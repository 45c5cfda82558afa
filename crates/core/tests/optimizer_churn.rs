//! Optimizer-churn differential suite: a warm incremental optimizer
//! against a fresh one under randomized workload and topology churn.
//!
//! Every trial drives one [`IncrementalOptimizer`] through an interleaving
//! of the changes below, and checks each of its rounds against the
//! reference: a fresh optimizer with the same seed, whose empty memo makes
//! it do every coordinator's work afresh. The changes:
//!
//! - substream **rate bursts** (the sources' periodic rate reports),
//! - per-query **load bursts** (processor CPU-time reports),
//! - query **arrivals** and **departures** (§3.6 online churn),
//! - processor **join**/**leave** (§3.3 dynamic tree maintenance), with
//!   [`CoordinatorTree::check_invariants`] asserted after every change,
//! - **quiet** rounds where nothing changed at all.
//!
//! After every round the two paths must agree *observationally*: the new
//! assignment (exact equality), the migration count, the moved state
//! (bit-for-bit) and the closing pass's work — timing is exempt, since it
//! measures the work actually performed and the whole point of the
//! incremental path is to do less of it. Each trial ends with a quiet round
//! and asserts the caches actually fired.
//!
//! `COSMOS_STRESS=1` raises the trial count. A failing trial prints its op
//! index and how to rerun exactly that trial ([`trial::run`]).

use cosmos_core::adaptive::{AdaptConfig, AdaptOutcome};
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::online::OnlineRouter;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_core::{IncrementalOptimizer, StatDelta};
use cosmos_net::{Deployment, NodeId, TransitStubConfig};
use cosmos_oracle::trial::{self, stress};
use cosmos_pubsub::SubstreamTable;
use cosmos_query::QueryId;
use cosmos_util::rng::rng_for;
use cosmos_util::InterestSet;
use rand::rngs::StdRng;
use rand::Rng;

/// Substream universe size.
const U: usize = 160;
/// Cluster-size parameter for the coordinator tree.
const K: usize = 2;

/// The reference round: a fresh optimizer with `seed`.
fn fresh_round(
    d: &Distributor<'_>,
    specs: &[QuerySpec],
    current: &Assignment,
    seed: u64,
) -> AdaptOutcome {
    let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());
    opt.round(d, specs, current)
}

fn random_spec(id: u64, rng: &mut StdRng, procs: &[NodeId]) -> QuerySpec {
    let bits = (0..rng.gen_range(2..=4)).map(|_| rng.gen_range(0..U));
    QuerySpec {
        id: QueryId(id),
        interest: InterestSet::from_indices(U, bits),
        load: rng.gen_range(0.5..2.0),
        proxy: procs[rng.gen_range(0..procs.len())],
        result_rate: rng.gen_range(0.1..1.0),
        state_size: rng.gen_range(0.5..4.0),
    }
}

/// The churn world of one trial: mutable statistics, query set, tree, and
/// the live/reserve processor split.
struct World {
    dep: Deployment,
    table: SubstreamTable,
    tree: CoordinatorTree,
    specs: Vec<QuerySpec>,
    current: Assignment,
    live: Vec<NodeId>,
    reserve: Vec<NodeId>,
    next_id: u64,
}

impl World {
    fn new(seed: u64, rng: &mut StdRng) -> Self {
        let topo = TransitStubConfig::small().generate(seed);
        let dep = Deployment::assign(topo, 4, 16, seed);
        let all: Vec<NodeId> = dep.processors().to_vec();
        let live: Vec<NodeId> = all[..12].to_vec();
        let reserve: Vec<NodeId> = all[12..].to_vec();
        let dep_live =
            Deployment::with_roles(dep.topology().clone(), dep.sources().to_vec(), live.clone());
        let tree = CoordinatorTree::build(&dep_live, K);
        let table = SubstreamTable::random(U, 4, 1.0, 10.0, seed);
        let n = rng.gen_range(80..120u64);
        let specs: Vec<QuerySpec> = (0..n).map(|i| random_spec(i, rng, &all)).collect();
        let mut current = Assignment::new();
        for q in &specs {
            current.place(q.id, live[rng.gen_range(0..live.len())]);
        }
        Self { dep, table, tree, specs, current, live, reserve, next_id: n }
    }

    /// Scales a few substream rates, reporting the touched substreams and
    /// every query whose interest covers one.
    fn rate_burst(&mut self, rng: &mut StdRng, opt: &mut IncrementalOptimizer) {
        for _ in 0..rng.gen_range(1..=3) {
            let s = rng.gen_range(0..U);
            let f = rng.gen_range(0.5..2.0);
            self.table.scale_rate(s, f);
            opt.ingest(&StatDelta::RateChanged { substream: s });
            for q in &self.specs {
                if q.interest.contains(s) {
                    opt.ingest(&StatDelta::QueryChanged { id: q.id });
                }
            }
        }
    }

    /// Perturbs a few queries' measured statistics.
    fn load_burst(&mut self, rng: &mut StdRng, opt: &mut IncrementalOptimizer) {
        for _ in 0..rng.gen_range(1..=4) {
            let i = rng.gen_range(0..self.specs.len());
            let q = &mut self.specs[i];
            q.load *= rng.gen_range(0.8..1.25);
            if rng.gen_bool(0.3) {
                q.state_size *= rng.gen_range(0.9..1.1);
            }
            opt.ingest(&StatDelta::QueryChanged { id: q.id });
        }
    }

    /// A new query arrives and is provisionally homed on a live processor
    /// (the adaptation round then re-balances it like any other query).
    fn arrival(&mut self, rng: &mut StdRng, opt: &mut IncrementalOptimizer) {
        let q = random_spec(self.next_id, rng, &self.live);
        self.next_id += 1;
        self.current.place(q.id, self.live[rng.gen_range(0..self.live.len())]);
        opt.ingest(&StatDelta::QueryArrived { id: q.id });
        self.specs.push(q);
    }

    fn departure(&mut self, rng: &mut StdRng, opt: &mut IncrementalOptimizer) {
        if self.specs.len() <= 10 {
            return;
        }
        let i = rng.gen_range(0..self.specs.len());
        let q = self.specs.swap_remove(i);
        self.current.remove(q.id);
        opt.ingest(&StatDelta::QueryDeparted { id: q.id });
    }

    fn join(&mut self, opt: &mut IncrementalOptimizer) {
        let Some(p) = self.reserve.pop() else {
            return;
        };
        self.tree.join(p, 1.0, K, &self.dep);
        self.tree.check_invariants().expect("tree invariants after join");
        self.live.push(p);
        opt.ingest(&StatDelta::ProcessorJoined);
    }

    fn leave(&mut self, rng: &mut StdRng, opt: &mut IncrementalOptimizer) {
        if self.live.len() <= 6 {
            return;
        }
        let i = rng.gen_range(0..self.live.len());
        let p = self.live.swap_remove(i);
        assert!(self.tree.leave(p, K, &self.dep), "{p} should be in the tree");
        self.tree.check_invariants().expect("tree invariants after leave");
        self.reserve.push(p);
        // Re-home queries orphaned by the departure; the next adaptation
        // round redistributes them properly.
        let home = self.live[0];
        let displaced: Vec<QueryId> =
            self.current.iter().filter(|&(_, n)| n == p).map(|(q, _)| q).collect();
        for q in displaced {
            self.current.place(q, home);
        }
        opt.ingest(&StatDelta::ProcessorLeft);
    }

    /// Runs one adaptation round on both paths and asserts observational
    /// equality: assignment, migrations, moved state and the closing pass's
    /// work — never timing.
    fn round_and_compare(&mut self, opt: &mut IncrementalOptimizer, seed: u64) {
        let d = Distributor::new(&self.dep, &self.tree, &self.table);
        let fresh = fresh_round(&d, &self.specs, &self.current, seed);
        let inc = opt.round(&d, &self.specs, &self.current);
        assert_eq!(
            inc.assignment, fresh.assignment,
            "incremental assignment diverged from the fresh optimizer's"
        );
        assert_eq!(inc.migrations, fresh.migrations, "migration counts diverged");
        assert_eq!(
            inc.moved_state.to_bits(),
            fresh.moved_state.to_bits(),
            "moved state diverged: {} vs {}",
            inc.moved_state,
            fresh.moved_state
        );
        assert_eq!(inc.refine, fresh.refine, "closing-pass work diverged");
        self.current = inc.assignment;
    }
}

fn run_trial(trial: u64) {
    let seed = 0xC05 + trial * 7919;
    let mut rng = rng_for(seed, "optimizer-churn");
    let mut world = World::new(seed, &mut rng);
    let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());

    let rounds = if stress() { 12 } else { 8 };
    for op in 0..rounds {
        trial::step(op);
        // The last two rounds are quiet so the trial always exercises the
        // all-hit path at least once.
        let kind = if op >= rounds - 2 { 6 } else { rng.gen_range(0..8u32) };
        match kind {
            0 | 1 => world.rate_burst(&mut rng, &mut opt),
            2 => world.load_burst(&mut rng, &mut opt),
            3 => world.arrival(&mut rng, &mut opt),
            4 => world.departure(&mut rng, &mut opt),
            5 => world.join(&mut opt),
            7 => world.leave(&mut rng, &mut opt),
            _ => {} // quiet round
        }
        world.round_and_compare(&mut opt, seed);
    }
    let stats = opt.cache_stats();
    assert!(stats.hier_hits > 0, "caches never fired over a whole trial: {stats:?}");
    assert!(stats.deltas_ingested > 0, "churn schedule produced no deltas");
}

/// ≥20 randomized trials of interleaved statistics churn, query
/// arrivals/departures, and processor joins/leaves: after every round the
/// incremental optimizer must produce the exact assignment, migration
/// count, and moved state of a fresh optimizer, with tree
/// invariants checked after every topology change. A failing trial
/// reports its seed and op index for one-line reproduction.
#[test]
fn incremental_rounds_match_wholesale_oracle_under_churn() {
    let trials: u64 = if stress() { 96 } else { 24 };
    trial::run("optimizer-churn", trials, run_trial);
}

/// A stat-delta-only schedule (no topology churn): every round equals the
/// fresh optimizer's, and the subtrees the bursts left alone are reused.
#[test]
fn stat_delta_rounds_equal_wholesale_and_reuse_clean_subtrees() {
    let seed = 4242;
    let mut rng = rng_for(seed, "patch-path");
    let mut world = World::new(seed, &mut rng);
    let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());
    world.round_and_compare(&mut opt, seed); // warm the caches
    for _ in 0..4 {
        world.load_burst(&mut rng, &mut opt);
        world.round_and_compare(&mut opt, seed);
    }
    let stats = opt.cache_stats();
    assert!(stats.hier_hits > 0, "clean subtrees were never reused: {stats:?}");
}

/// Satellite: an [`OnlineRouter`] seeded from the incrementally-adapted
/// assignment must behave identically to one seeded from fresh
/// optimizers' rounds — same accounted load, same routing decisions, same
/// insertion outcomes.
#[test]
fn online_router_seeding_is_path_independent() {
    let seed = 9090;
    let mut rng = rng_for(seed, "seed-from");
    let mut world = World::new(seed, &mut rng);
    let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());

    // A few churn rounds, tracking the fresh optimizers' assignment
    // separately.
    let mut fresh_current = world.current.clone();
    for op in 0..4 {
        match op % 3 {
            0 => world.rate_burst(&mut rng, &mut opt),
            1 => world.load_burst(&mut rng, &mut opt),
            _ => {}
        }
        let d = Distributor::new(&world.dep, &world.tree, &world.table);
        let fresh = fresh_round(&d, &world.specs, &fresh_current, seed);
        let inc = opt.round(&d, &world.specs, &world.current);
        fresh_current = fresh.assignment;
        world.current = inc.assignment;
    }

    let mut from_inc = OnlineRouter::new(&world.dep, &world.tree, &world.table);
    from_inc.seed_from(&world.specs, &world.current);
    let mut from_fresh = OnlineRouter::new(&world.dep, &world.tree, &world.table);
    from_fresh.seed_from(&world.specs, &fresh_current);
    assert!(
        (from_inc.total_load() - from_fresh.total_load()).abs() < 1e-12,
        "seeded loads diverged: {} vs {}",
        from_inc.total_load(),
        from_fresh.total_load()
    );
    // Identical aggregates must produce identical routing decisions for a
    // stream of new arrivals, inserted into both routers in lock-step.
    for i in 0..12 {
        let probe = random_spec(100_000 + i, &mut rng, &world.live);
        assert_eq!(
            from_inc.route_at(world.tree.root(), &probe),
            from_fresh.route_at(world.tree.root(), &probe),
            "root routing decision diverged for probe {i}"
        );
        assert_eq!(
            from_inc.insert(&probe),
            from_fresh.insert(&probe),
            "insertion landed on different processors for probe {i}"
        );
    }
}

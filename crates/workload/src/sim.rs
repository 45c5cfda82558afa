//! The simulation driver shared by every figure bench and the integration
//! tests.
//!
//! Owns the deployment, the (mutable) substream table, the coordinator
//! tree, the query population, and the current assignment. Exposes the two
//! measured quantities of §4.1 — the weighted communication cost (computed
//! under Pub/Sub multicast-sharing semantics) and the standard deviation of
//! processor loads — plus the workload events the experiments replay:
//! query arrivals (Figure 8), rate perturbations (Figure 10), and
//! adaptation rounds (Figures 7/8/10).

use crate::generator::QueryGenerator;
use crate::params::{PaperParams, RecoveryParams};
use cosmos_core::adaptive::{AdaptConfig, AdaptOutcome};
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::incremental::IncrementalOptimizer;
use cosmos_core::online::OnlineRouter;
use cosmos_core::spec::{modelled_cost, Assignment, QuerySpec};
use cosmos_core::stats::StatDelta;
use cosmos_net::{Deployment, NodeId};
use cosmos_pubsub::{LossyNetwork, Message, RecoveryNetwork, SubstreamTable};
use cosmos_query::{Query, QueryId};
use cosmos_util::rng::rng_for;
use cosmos_util::stats::stddev;
use rand::seq::SliceRandom;

/// Outcome of one [`RecoverySim::fault_step`] roll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Crashed the named engine host.
    Killed(NodeId),
    /// Restored the named engine host (reverse crash order).
    Restored(NodeId),
    /// No fault this step: the roll landed in the workload share, no host
    /// was safely killable, or nothing was down to restore.
    Idle,
}

/// A [`RecoveryNetwork`] driven by [`RecoveryParams`], whose churn
/// operations re-validate the broker ledger after every step in debug
/// builds.
///
/// The recovery protocol itself (retention, checkpoint acks, restore and
/// verified replay) is `cosmos-engine`'s `ReplayHost`, and the crash
/// discipline is the network's: [`RecoveryNetwork::killable`] names the
/// live hosts whose crash keeps the surviving overlay connected (an engine
/// cut off from its upstreams could never converge), and
/// [`RecoveryNetwork::crashed`] records the crash order. What this adds is
/// the workload behaviour: the checkpoint interval paces the network's
/// simulated-time schedule, and [`RecoverySim::fault_step`] rolls the
/// kill/restore weights into the step mix, restoring in reverse crash
/// order (the only order guaranteed to rebuild the pre-crash topology from
/// the saved edge batches).
#[derive(Debug)]
pub struct RecoverySim {
    r: RecoveryNetwork,
    params: RecoveryParams,
}

impl RecoverySim {
    /// Wraps a recovery network over `lossy`, checkpointing at the
    /// scenario's interval. Rejects invalid knobs up front (see
    /// [`RecoveryParams::validate`]).
    pub fn new(lossy: LossyNetwork, params: RecoveryParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Self { r: RecoveryNetwork::new(lossy, params.checkpoint_interval), params })
    }

    /// Read access to the wrapped recovery network.
    pub fn recovery(&self) -> &RecoveryNetwork {
        &self.r
    }

    /// Mutable access to the wrapped network. Churn performed through
    /// this borrow bypasses the debug audit; prefer the wrapper's own
    /// operations.
    pub fn recovery_mut(&mut self) -> &mut RecoveryNetwork {
        &mut self.r
    }

    /// Hosts whose engines are currently down, most recent crash last
    /// ([`RecoveryNetwork::crashed`]).
    pub fn crashed(&self) -> &[NodeId] {
        self.r.crashed()
    }

    /// [`RecoveryNetwork::host_engine`], audited.
    pub fn host_engine(&mut self, node: NodeId, queries: Vec<(QueryId, Query)>) {
        self.r.host_engine(node, queries);
        self.audit("host_engine");
    }

    /// [`RecoveryNetwork::publish`] — unaudited, it is the hot path; the
    /// next settle or churn operation audits its effects.
    pub fn publish(&mut self, msg: Message) -> bool {
        self.r.publish(msg)
    }

    /// [`RecoveryNetwork::settle`], audited.
    pub fn settle(&mut self) {
        self.r.settle();
        self.audit("settle");
    }

    /// [`RecoveryNetwork::restore_host`], audited.
    pub fn restore_host(&mut self, node: NodeId) {
        self.r.restore_host(node);
        self.audit("restore_host");
    }

    /// Rolls one fault-plane step of the workload mix. `roll` is taken
    /// modulo 100 against the scenario weights: the kill share crashes a
    /// [killable](RecoveryNetwork::killable) host (chosen by `pick`), the
    /// restore share brings back the most recently crashed one, and the
    /// rest of the budget is the caller's workload (publishes) —
    /// [`FaultOp::Idle`] here.
    pub fn fault_step(&mut self, roll: u32, pick: usize) -> FaultOp {
        let roll = roll % 100;
        if roll < self.params.kill_weight {
            let candidates = self.r.killable();
            if candidates.is_empty() {
                return FaultOp::Idle;
            }
            let victim = candidates[pick % candidates.len()];
            self.r.crash_host(victim);
            self.audit("crash_host");
            return FaultOp::Killed(victim);
        }
        if roll < self.params.kill_weight + self.params.restore_weight {
            if let Some(&node) = self.crashed().last() {
                self.restore_host(node);
                return FaultOp::Restored(node);
            }
        }
        FaultOp::Idle
    }

    #[inline]
    fn audit(&self, op: &str) {
        #[cfg(debug_assertions)]
        if let Err(why) = self.r.network().check_ledger_consistency() {
            panic!("ledger drift after {op}: {why}");
        }
        #[cfg(not(debug_assertions))]
        let _ = op;
    }
}

/// A fully built experiment environment.
#[derive(Debug)]
pub struct Simulation {
    /// Physical network with roles and routing state.
    pub dep: Deployment,
    /// Ground-truth substream rates (perturbable).
    pub table: SubstreamTable,
    /// Coordinator hierarchy.
    pub tree: CoordinatorTree,
    /// The experiment parameters used to build this simulation.
    pub params: PaperParams,
    /// All queries known to the system.
    pub specs: Vec<QuerySpec>,
    /// Current query → processor placement.
    pub assignment: Assignment,
    generator: QueryGenerator,
}

impl Simulation {
    /// Builds topology, deployment, substream table, and coordinator tree
    /// from `params`.
    pub fn build(params: PaperParams, seed: u64) -> Self {
        let topo = params.topology.generate(seed);
        let dep = Deployment::assign(topo, params.n_sources, params.n_processors, seed);
        let table = SubstreamTable::random(
            params.n_substreams,
            params.n_sources,
            params.rate_min,
            params.rate_max,
            seed,
        );
        let tree = CoordinatorTree::build(&dep, params.k);
        let generator = QueryGenerator::new(&params, seed);
        Self {
            dep,
            table,
            tree,
            params,
            specs: Vec::new(),
            assignment: Assignment::new(),
            generator,
        }
    }

    /// A distributor over the current state (borrow-scoped helper).
    pub fn distributor(&self) -> Distributor<'_> {
        Distributor::new(&self.dep, &self.tree, &self.table)
    }

    /// Generates `n` new queries (ids continue), appends them to the
    /// population, and returns clones of the new specs.
    pub fn arrivals(&mut self, n: usize, seed: u64) -> Vec<QuerySpec> {
        let batch = self.generator.generate(n, &self.dep, &self.table, seed);
        self.specs.extend(batch.iter().cloned());
        batch
    }

    /// Replaces the current assignment.
    pub fn apply(&mut self, assignment: Assignment) {
        self.assignment = assignment;
    }

    /// Routes a batch of new queries through the online router (seeded from
    /// the current assignment) and places them.
    pub fn insert_online(&mut self, batch: &[QuerySpec]) {
        let mut router = OnlineRouter::new(&self.dep, &self.tree, &self.table);
        router.seed_from(&self.specs, &self.assignment);
        for q in batch {
            let p = router.insert(q);
            self.assignment.place(q.id, p);
        }
    }

    /// One adaptation round (Algorithm 3 hierarchy-wide) by a fresh
    /// [`IncrementalOptimizer`] with `seed` — every coordinator's work done
    /// afresh; applies and returns the outcome.
    ///
    /// A round balances load and refines a local surrogate (phases 1 and
    /// 2), then ends on the modelled cost itself, each move priced by the
    /// state it carries, inside phase 2's balance band. That band can
    /// still cost communication to buy balance, so a round may end above
    /// the cost it started from; rounds compound, so periodic application
    /// converges — do not gate a round on the global metric, or load
    /// rebalancing starves.
    pub fn adapt_round(&mut self, seed: u64) -> AdaptOutcome {
        let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());
        self.adapt_round_incremental(&mut opt)
    }

    /// One adaptation round through a delta-driven
    /// [`IncrementalOptimizer`]; applies and returns the outcome. With the
    /// optimizer's fixed seed, the applied assignment is identical to what
    /// [`Simulation::adapt_round`] would apply with that same seed — only
    /// the work performed differs.
    pub fn adapt_round_incremental(&mut self, opt: &mut IncrementalOptimizer) -> AdaptOutcome {
        let d = self.distributor();
        let out = opt.round(&d, &self.specs, &self.assignment);
        drop(d);
        self.assignment = out.assignment.clone();
        out
    }

    /// Scales the rates of `n` random substreams by `factor` (the Figure 10
    /// "I"/"D" events use factors > 1 and < 1 respectively), then refreshes
    /// the rate-derived query statistics (load, result rate). Returns the
    /// [`StatDelta`] stream describing the change — one `RateChanged` per
    /// scaled substream, one `QueryChanged` per query whose statistics the
    /// refresh actually moved — for feeding an [`IncrementalOptimizer`].
    pub fn perturb_rates(&mut self, n: usize, factor: f64, seed: u64) -> Vec<StatDelta> {
        let mut rng = rng_for(seed, "perturb");
        let mut indices: Vec<usize> = (0..self.table.len()).collect();
        indices.shuffle(&mut rng);
        let scaled: Vec<usize> = indices.iter().take(n.min(self.table.len())).copied().collect();
        for &s in &scaled {
            self.table.scale_rate(s, factor);
        }
        let mut deltas: Vec<StatDelta> =
            scaled.iter().map(|&s| StatDelta::RateChanged { substream: s }).collect();
        for q in &self.specs {
            if scaled.iter().any(|&s| q.interest.contains(s)) {
                deltas.push(StatDelta::QueryChanged { id: q.id });
            }
        }
        self.refresh_statistics();
        deltas
    }

    /// Recomputes load and result rate of every query from the current
    /// rates (the §3.8 statistics reports reaching the coordinators).
    pub fn refresh_statistics(&mut self) {
        for q in &mut self.specs {
            let input = q.interest.weighted_len(self.table.rates());
            q.load = input * self.params.load_per_byte;
            q.result_rate = input * self.params.result_ratio;
        }
    }

    /// Measured weighted communication cost of an assignment: substream
    /// multicast delivery (shared links charged once) plus result-stream
    /// unicast back to the proxies.
    pub fn comm_cost_of(&self, assignment: &Assignment) -> f64 {
        let (source, result) = modelled_cost(&self.dep, &self.table, &self.specs, assignment);
        source + result
    }

    /// Measured communication cost of the current assignment.
    pub fn comm_cost(&self) -> f64 {
        self.comm_cost_of(&self.assignment)
    }

    /// Per-processor loads of the current assignment.
    pub fn loads(&self) -> Vec<f64> {
        self.assignment.loads(&self.specs, self.dep.processors())
    }

    /// Standard deviation of processor loads (Figures 7b/8b/10b).
    pub fn load_stddev(&self) -> f64 {
        stddev(&self.loads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_baselines::{naive_assignment, random_assignment};

    fn sim() -> Simulation {
        let mut s = Simulation::build(PaperParams::tiny(), 3);
        let batch = s.arrivals(60, 4);
        let d = s.distributor();
        let out = d.distribute(&batch, 5);
        drop(d);
        s.apply(out.assignment);
        s
    }

    #[test]
    fn build_produces_consistent_environment() {
        let s = sim();
        assert_eq!(s.dep.processors().len(), 8);
        assert_eq!(s.specs.len(), 60);
        assert_eq!(s.assignment.len(), 60);
        assert!(s.comm_cost() > 0.0);
    }

    #[test]
    fn optimized_beats_random_and_shares_sources_better_than_naive() {
        let s = sim();
        let naive = naive_assignment(&s.specs);
        let random = random_assignment(&s.specs, &s.dep, 9);
        let c_opt = s.comm_cost();
        let c_naive = s.comm_cost_of(&naive);
        let c_random = s.comm_cost_of(&random);
        assert!(c_opt < c_random, "optimized {c_opt} vs random {c_random}");
        // Naive pays zero result-delivery cost by construction, and at this
        // tiny scale (8 processors, low overlap) the multicast savings are
        // bounded, so only a loose total-cost bound is meaningful here; the
        // full Figure 6(a) ordering is exercised at bench scale.
        assert!(c_opt <= c_naive * 1.25, "optimized {c_opt} vs naive {c_naive}");
        // The sharing claim proper: source-side delivery must be cheaper.
        let source_of = |a: &Assignment| modelled_cost(&s.dep, &s.table, &s.specs, a).0;
        let (src_opt, src_naive) = (source_of(&s.assignment), source_of(&naive));
        assert!(src_opt < src_naive, "source delivery {src_opt} vs naive {src_naive}");
        // And load balance must be far better than naive's.
        assert!(s.load_stddev() < stddev(&naive.loads(&s.specs, s.dep.processors())));
    }

    #[test]
    fn online_insertion_extends_assignment() {
        let mut s = sim();
        let batch = s.arrivals(15, 6);
        s.insert_online(&batch);
        assert_eq!(s.assignment.len(), 75);
    }

    #[test]
    fn incremental_adaptation_matches_wholesale_rounds() {
        // Two identically-built simulations driven through the same rate
        // perturbations: one warm optimizer and a fresh one per round
        // must apply the same assignment after every round.
        let seed = 77;
        let mut whole = sim();
        let mut inc = sim();
        let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());
        for round in 0..4u64 {
            if round % 2 == 1 {
                whole.perturb_rates(5, 1.5, 100 + round);
                let deltas = inc.perturb_rates(5, 1.5, 100 + round);
                assert!(!deltas.is_empty(), "perturbation must report deltas");
                for d in &deltas {
                    opt.ingest(d);
                }
            }
            let a = whole.adapt_round(seed).assignment;
            let b = inc.adapt_round_incremental(&mut opt).assignment;
            assert_eq!(a, b, "round {round} diverged");
        }
        assert!(opt.cache_stats().hier_hits > 0, "quiet rounds must hit the caches");
    }

    #[test]
    fn perturbation_changes_cost_and_stats() {
        let mut s = sim();
        let before_cost = s.comm_cost();
        let before_load: f64 = s.specs.iter().map(|q| q.load).sum();
        s.perturb_rates(50, 4.0, 7);
        let after_cost = s.comm_cost();
        let after_load: f64 = s.specs.iter().map(|q| q.load).sum();
        assert!(after_cost > before_cost, "rate increase must raise cost");
        assert!(after_load > before_load, "loads must track rates");
    }

    #[test]
    fn recovery_sim_audits_fault_steps_and_bounds_retention() {
        use cosmos_net::Topology;
        use cosmos_pubsub::{BrokerNetwork, FaultConfig, FaultPlan};
        use cosmos_query::{parse_query, QueryId, Scalar};
        // A 5-node ring: any single crash leaves the survivors connected,
        // so both engine hosts are always killable.
        let mut topo = Topology::new(5);
        for i in 0..5u32 {
            topo.add_edge(NodeId(i), NodeId((i + 1) % 5), 1.0);
        }
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        let lossy = LossyNetwork::new(net, FaultPlan::new(11, FaultConfig::clean()));
        let params =
            RecoveryParams { checkpoint_interval: 10_000, kill_weight: 10, restore_weight: 10 };
        let mut s = RecoverySim::new(lossy, params).expect("valid knobs");
        let q = parse_query("SELECT R.v FROM R [Range 60 Seconds] WHERE R.v > 0")
            .expect("query parses");
        s.host_engine(NodeId(2), vec![(QueryId(1), q.clone())]);
        s.host_engine(NodeId(3), vec![(QueryId(2), q)]);
        fn feed(s: &mut RecoverySim, n: usize, ts: &mut i64) {
            for _ in 0..n {
                *ts += 1;
                assert!(s.publish(Message::new("R", *ts).with("v", Scalar::Int(5))));
            }
            s.settle();
        }
        let mut ts = 0i64;
        feed(&mut s, 8, &mut ts);
        // The kill share of the roll budget crashes a killable host...
        let FaultOp::Killed(victim) = s.fault_step(0, 1) else {
            panic!("kill share must fire with live hosts");
        };
        assert!(!s.recovery().is_up(victim));
        assert_eq!(s.crashed(), &[victim]);
        // ...the workload share does nothing...
        assert_eq!(s.fault_step(95, 0), FaultOp::Idle);
        // ...records published during downtime are retained for replay...
        feed(&mut s, 6, &mut ts);
        assert!(s.recovery().retained(victim) >= 6);
        // ...and the restore share brings back the most recent crash.
        assert_eq!(s.fault_step(params.kill_weight, 0), FaultOp::Restored(victim));
        assert!(s.crashed().is_empty());
        feed(&mut s, 4, &mut ts);
        // Replay closed the downtime gap: both hosts output all 18
        // records; an explicit checkpoint acks and truncates retention.
        for n in [NodeId(2), NodeId(3)] {
            assert_eq!(s.recovery().output_log(n).len(), 18);
            s.recovery_mut().checkpoint_now(n);
            assert_eq!(s.recovery().retained(n), 0);
        }
        // The restore share with nothing down is a no-op.
        assert_eq!(s.fault_step(params.kill_weight, 0), FaultOp::Idle);
    }

    #[test]
    fn adaptation_round_applies_assignment() {
        let mut s = sim();
        s.perturb_rates(50, 5.0, 8);
        let before = s.load_stddev();
        let mut improved = before;
        for round in 0..3 {
            s.adapt_round(40 + round);
            improved = s.load_stddev();
        }
        assert!(
            improved <= before * 1.5,
            "adaptation should not blow up load deviation: {before} -> {improved}"
        );
        assert_eq!(s.assignment.len(), s.specs.len());
    }
}

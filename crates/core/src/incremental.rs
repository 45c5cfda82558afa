//! The delta-driven incremental optimizer.
//!
//! A round computed from nothing re-derives everything: it rebuilds every
//! leaf query graph, re-coarsens every coordinator, and re-runs diffusion
//! and refinement over the whole tree. Between rounds, though, most
//! statistics are unchanged — a burst of [`StatDelta`]s touches a few
//! queries on a few processors. [`IncrementalOptimizer`] exploits that by
//! *memoizing* the pipeline per coordinator:
//!
//! - **Phase A (bottom-up)**: each coordinator's coarsening inputs are
//!   fingerprinted. An unchanged fingerprint replays the cached coarse
//!   outputs and Arc-shares the constituents; a changed one builds and
//!   coarsens its graph afresh.
//! - **Phase B (top-down)**: each subtree's placement decisions are keyed
//!   on a content-deep fingerprint of its work vertices plus the current
//!   homes of its queries; unchanged subtrees splice the previous round's
//!   placements without re-running diffusion or refinement scoring.
//!
//! Both layers, their fingerprints and their hit counters live in one
//! private memo type here; the round itself
//! ([`adaptive`](crate::adaptive)) only asks it for a replay and hands it
//! fresh results. Each layer holds at most one entry per coordinator.
//!
//! **Correctness model.** Every per-coordinator computation of a round is
//! a pure function of (inputs, per-coordinator derived seed), and all of
//! it is bit-reproducible (ordered adjacency, ordered derived-vertex
//! creation). The memo therefore keys on *content fingerprints of the
//! full input*, not on the delta stream: a warm optimizer's
//! [`IncrementalOptimizer::round`] produces the bit-identical
//! [`AdaptOutcome`] (assignment, migrations, moved state, closing-pass
//! work — not timing or coarsening work, which measure what was actually
//! done) as a fresh optimizer's with the same seed, whose memo is empty.
//! The `optimizer_churn` differential suite pins that across randomized
//! churn. [`StatDelta`]s ingested via
//! [`IncrementalOptimizer::ingest`] are bookkeeping hints (surfaced in
//! [`CacheStats`]); an unreported delta is still caught by the
//! fingerprint check and simply costs a cache miss.
//!
//! Topology changes (processor join/leave) bump the
//! [`CoordinatorTree::generation`](crate::hierarchy::CoordinatorTree::generation)
//! counter, which is folded into the environment fingerprint — any change
//! empties both layers and the round does all of its work afresh.

use crate::adaptive::{run_round, AdaptConfig, AdaptOutcome};
use crate::distribute::Distributor;
use crate::graph::{QgVertex, VertexKind};
use crate::hierarchy::CoordNode;
use crate::spec::{Assignment, QuerySpec};
use crate::stats::StatDelta;
use cosmos_net::NodeId;
use cosmos_query::QueryId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Content fingerprint of a query-graph vertex under the given rates:
/// kind, constituent queries, weight bits, interest (with each interested
/// substream's rate bits), state size, result flows, and tag. Two vertices
/// with equal fingerprints are — modulo 64-bit hash collisions, which this
/// design accepts — interchangeable inputs to coarsening and placement.
fn vertex_raw_fp(v: &QgVertex, rates: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    match v.kind {
        VertexKind::Query => 0u8.hash(&mut h),
        VertexKind::Net(n) => {
            1u8.hash(&mut h);
            n.hash(&mut h);
        }
    }
    v.queries.hash(&mut h);
    v.weight.to_bits().hash(&mut h);
    for s in v.interest.iter() {
        s.hash(&mut h);
        rates[s].to_bits().hash(&mut h);
    }
    v.state_size.to_bits().hash(&mut h);
    for &(p, r) in &v.result_flows {
        p.hash(&mut h);
        r.to_bits().hash(&mut h);
    }
    v.tag.hash(&mut h);
    h.finish()
}

/// Full statistics fingerprint of a query spec: everything that feeds its
/// q-vertex and its graph edges.
fn spec_full_fp(spec: &QuerySpec, rates: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    spec.id.hash(&mut h);
    for s in spec.interest.iter() {
        s.hash(&mut h);
        rates[s].to_bits().hash(&mut h);
    }
    spec.load.to_bits().hash(&mut h);
    spec.proxy.hash(&mut h);
    spec.result_rate.to_bits().hash(&mut h);
    spec.state_size.to_bits().hash(&mut h);
    h.finish()
}

/// One cached bottom-up result: the coarse outputs a coordinator handed
/// its parent, keyed by the fingerprint of its inputs.
#[derive(Debug)]
struct HierEntry {
    input_fp: u64,
    outputs: Vec<QgVertex>,
    constituents: Arc<Vec<Vec<QgVertex>>>,
    /// Content-deep fingerprint per output vertex (covers the vertex and,
    /// transitively, everything it was coarsened from).
    out_fps: Vec<u64>,
}

/// One cached top-down result: the placements a coordinator's subtree
/// decided, keyed by the fingerprint of its inputs.
#[derive(Debug)]
struct PlaceEntry {
    input_fp: u64,
    /// Sorted by query.
    placements: Arc<Vec<(QueryId, NodeId)>>,
}

/// The optimizer's memo, both layers of it. A lookup that misses returns
/// the key its fresh result is then stored under.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    /// Fingerprint of the environment both layers were built under
    /// ([`env_fp`]); a different one empties them.
    env_fp: Option<u64>,
    /// Phase A, per coordinator.
    hier: HashMap<usize, HierEntry>,
    /// Phase B, per coordinator.
    place: HashMap<usize, PlaceEntry>,
    /// Per-coordinator output fingerprints of the *current* round, filled
    /// bottom-up (from the cache entry on a hit, from fresh computation on
    /// a miss) so parents, and then phase B, can fingerprint their inputs
    /// content-deep.
    round_out_fps: HashMap<usize, Vec<u64>>,
    hier_hits: u64,
    hier_misses: u64,
    place_hits: u64,
    place_misses: u64,
}

impl Memo {
    /// Starts a round under environment fingerprint `env`: a new
    /// environment empties both layers, and the previous round's output
    /// fingerprints are stale either way.
    fn begin_round(&mut self, env: u64) {
        if self.env_fp != Some(env) {
            self.hier.clear();
            self.place.clear();
            self.env_fp = Some(env);
        }
        self.round_out_fps.clear();
    }

    /// Phase A: `coord`'s cached coarse outputs and constituents when its
    /// inputs are unchanged — at level 1 its member specs' full statistics
    /// (`leaf_specs`, in grouping order), above that its children's output
    /// fingerprints for this round — publishing its own output
    /// fingerprints for the parent's input check.
    #[allow(clippy::type_complexity)]
    pub(crate) fn lookup_hier(
        &mut self,
        coord: usize,
        node: &CoordNode,
        leaf_specs: &[&QuerySpec],
        rates: &[f64],
    ) -> Result<(Vec<QgVertex>, Arc<Vec<Vec<QgVertex>>>), u64> {
        let mut h = DefaultHasher::new();
        if node.level == 1 {
            b"leaf".hash(&mut h);
            for spec in leaf_specs {
                spec_full_fp(spec, rates).hash(&mut h);
            }
        } else {
            // Level-0 children contribute a marker (they produce no
            // outputs).
            for &ch in &node.children {
                ch.hash(&mut h);
                match self.round_out_fps.get(&ch) {
                    Some(fps) => {
                        1u8.hash(&mut h);
                        fps.hash(&mut h);
                    }
                    None => 0u8.hash(&mut h),
                }
            }
        }
        let input_fp = h.finish();
        match self.hier.get(&coord) {
            Some(e) if e.input_fp == input_fp => {
                self.round_out_fps.insert(coord, e.out_fps.clone());
                self.hier_hits += 1;
                Ok((e.outputs.clone(), e.constituents.clone()))
            }
            _ => {
                self.hier_misses += 1;
                Err(input_fp)
            }
        }
    }

    /// Stores a freshly computed phase-A result under `input_fp` and
    /// derives its content-deep output fingerprints (children's
    /// fingerprints for tagged constituents, raw content for untagged
    /// ones).
    pub(crate) fn store_hier(
        &mut self,
        coord: usize,
        input_fp: u64,
        outputs: &[QgVertex],
        constituents: &Arc<Vec<Vec<QgVertex>>>,
        rates: &[f64],
    ) {
        let out_fps: Vec<u64> = outputs
            .iter()
            .enumerate()
            .map(|(j, v)| {
                let mut h = DefaultHasher::new();
                vertex_raw_fp(v, rates).hash(&mut h);
                for c in &constituents[j] {
                    self.deep_fp(c, rates).hash(&mut h);
                }
                h.finish()
            })
            .collect();
        self.round_out_fps.insert(coord, out_fps.clone());
        self.hier.insert(
            coord,
            HierEntry {
                input_fp,
                outputs: outputs.to_vec(),
                constituents: constituents.clone(),
                out_fps,
            },
        );
    }

    fn deep_fp(&self, v: &QgVertex, rates: &[f64]) -> u64 {
        match v.tag {
            Some((coord, idx)) => self.round_out_fps[&coord][idx],
            None => vertex_raw_fp(v, rates),
        }
    }

    /// Phase B: the placements `coord`'s subtree decided last time, when
    /// everything its decisions depend on beyond the environment is
    /// unchanged — its work vertices, content-deep, and the current home
    /// of every query they contain.
    pub(crate) fn lookup_place(
        &mut self,
        coord: usize,
        work: &[QgVertex],
        current: &Assignment,
        rates: &[f64],
    ) -> Result<Arc<Vec<(QueryId, NodeId)>>, u64> {
        let mut h = DefaultHasher::new();
        for v in work {
            self.deep_fp(v, rates).hash(&mut h);
            for &q in &v.queries {
                q.hash(&mut h);
                match current.processor_of(q) {
                    Some(p) => {
                        1u8.hash(&mut h);
                        p.hash(&mut h);
                    }
                    None => 0u8.hash(&mut h),
                }
            }
        }
        let fp = h.finish();
        match self.place.get(&coord) {
            Some(e) if e.input_fp == fp => {
                self.place_hits += 1;
                Ok(e.placements.clone())
            }
            _ => {
                self.place_misses += 1;
                Err(fp)
            }
        }
    }

    /// Stores the placements `coord`'s subtree just decided under `fp`.
    pub(crate) fn store_place(&mut self, coord: usize, fp: u64, sub: &Assignment) {
        let mut pairs: Vec<(QueryId, NodeId)> = sub.iter().collect();
        pairs.sort_unstable_by_key(|&(q, _)| q);
        self.place.insert(coord, PlaceEntry { input_fp: fp, placements: Arc::new(pairs) });
    }
}

/// Cumulative cache effectiveness counters (diagnostic; asserted non-zero
/// by the churn suite on quiet rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Phase-A coordinator results replayed from cache.
    pub hier_hits: u64,
    /// Phase-A coordinator results recomputed.
    pub hier_misses: u64,
    /// Phase-B subtrees spliced from cache.
    pub place_hits: u64,
    /// Phase-B subtrees re-decided.
    pub place_misses: u64,
    /// [`StatDelta`]s ingested since construction.
    pub deltas_ingested: u64,
}

/// The delta-driven optimizer and the only way to run an adaptation
/// round: holds the per-coordinator memo across rounds and a **fixed
/// seed**, so that every round of a warm optimizer is observationally
/// equal to a fresh optimizer's round with that seed.
///
/// The same deployment, tree, and table must back the [`Distributor`]
/// passed to every round (topology churn through
/// [`CoordinatorTree::join`](crate::hierarchy::CoordinatorTree::join) /
/// [`leave`](crate::hierarchy::CoordinatorTree::leave) is fine — the
/// generation counter invalidates the caches).
#[derive(Debug)]
pub struct IncrementalOptimizer {
    seed: u64,
    memo: Memo,
    deltas_ingested: u64,
}

impl IncrementalOptimizer {
    /// Creates an optimizer with a fixed seed. It cannot fail: the
    /// [`AdaptConfig`] carries nothing to check, and `Result` stays only so
    /// callers that `expect` it keep compiling.
    pub fn new(seed: u64, _config: AdaptConfig) -> Result<Self, Infallible> {
        Ok(Self { seed, memo: Memo::default(), deltas_ingested: 0 })
    }

    /// Ingests one statistics delta. Deltas are *hints*: correctness comes
    /// from the fingerprint checks in [`IncrementalOptimizer::round`], so
    /// an over- or under-reported stream only shifts how much work the
    /// next round reuses, never what it answers.
    pub fn ingest(&mut self, _delta: &StatDelta) {
        self.deltas_ingested += 1;
    }

    /// Runs one hierarchical adaptation round (Algorithm 3, see
    /// [`adaptive`](crate::adaptive)) over the current assignment, reusing
    /// every cached result whose inputs are fingerprint-unchanged. Produces
    /// the identical assignment, migration count, moved state and
    /// closing-pass work (`refine`) as a fresh optimizer with this seed
    /// (timing differs: it measures the work actually performed).
    ///
    /// `specs` must contain every query in `current`.
    ///
    /// # Panics
    ///
    /// Panics if a query in `specs` is missing from `current` or placed on
    /// a processor unknown to the tree.
    pub fn round(
        &mut self,
        d: &Distributor<'_>,
        specs: &[QuerySpec],
        current: &Assignment,
    ) -> AdaptOutcome {
        self.memo.begin_round(env_fp(d, self.seed));
        run_round(d, specs, current, self.seed, &mut self.memo)
    }

    /// Cumulative cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        let m = &self.memo;
        CacheStats {
            hier_hits: m.hier_hits,
            hier_misses: m.hier_misses,
            place_hits: m.place_hits,
            place_misses: m.place_misses,
            deltas_ingested: self.deltas_ingested,
        }
    }
}

/// Everything outside the per-round inputs that the pipeline's output
/// depends on: the seed, the tree's structural generation and shape, and
/// every [`DistConfig`](crate::distribute::DistConfig) knob.
fn env_fp(d: &Distributor<'_>, seed: u64) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    d.tree.generation().hash(&mut h);
    d.tree.len().hash(&mut h);
    d.tree.root().hash(&mut h);
    d.universe().hash(&mut h);
    let dc = &d.config;
    dc.vmax.hash(&mut h);
    dc.overlap_edges.hash(&mut h);
    dc.per_level_alpha.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CoordinatorTree;
    use cosmos_net::{Deployment, TransitStubConfig};
    use cosmos_oracle::trial;
    use cosmos_pubsub::SubstreamTable;
    use cosmos_util::rng::rng_for;
    use cosmos_util::InterestSet;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::HashSet;

    const U: usize = 64;

    fn spec(id: u64, bits: &[usize], load: f64) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            interest: InterestSet::from_indices(U, bits.iter().copied()),
            load,
            proxy: NodeId(9),
            result_rate: 0.5,
            state_size: 2.0,
        }
    }

    /// Every field that feeds a leaf's graph — load, an interested rate,
    /// interest, proxy — moves the fingerprint its memo is keyed on.
    #[test]
    fn load_rate_interest_and_proxy_each_move_full_fp() {
        let rates = vec![1.5; U];
        let a = spec(1, &[3, 7], 1.0);
        let mut b = a.clone();
        assert_eq!(spec_full_fp(&a, &rates), spec_full_fp(&b, &rates));
        b.load = 2.0;
        assert_ne!(spec_full_fp(&a, &rates), spec_full_fp(&b, &rates), "load moved");
        let mut rates2 = rates.clone();
        rates2[3] = 4.0;
        assert_ne!(spec_full_fp(&a, &rates), spec_full_fp(&a, &rates2), "interested rate moved");
        let mut c = a.clone();
        c.interest.insert(20);
        assert_ne!(spec_full_fp(&a, &rates), spec_full_fp(&c, &rates), "interest moved");
        let mut p = a.clone();
        p.proxy = NodeId(10);
        assert_ne!(spec_full_fp(&a, &rates), spec_full_fp(&p, &rates), "proxy moved");
    }

    #[test]
    fn uninterested_rate_changes_leave_full_fp_alone() {
        let rates = vec![1.0; U];
        let a = spec(4, &[1, 2], 1.0);
        let mut rates2 = rates.clone();
        rates2[50] = 9.0;
        assert_eq!(spec_full_fp(&a, &rates), spec_full_fp(&a, &rates2));
    }

    #[test]
    fn ingest_counts_deltas() {
        let Ok(mut opt) = IncrementalOptimizer::new(7, AdaptConfig::default());
        opt.ingest(&StatDelta::RateChanged { substream: 3 });
        opt.ingest(&StatDelta::QueryChanged { id: QueryId(1) });
        assert_eq!(opt.cache_stats().deltas_ingested, 2);
    }

    fn random_spec(id: u64, rng: &mut StdRng, procs: &[NodeId]) -> QuerySpec {
        let bits: Vec<usize> = (0..rng.gen_range(2..=4)).map(|_| rng.gen_range(0..U)).collect();
        let mut q = spec(id, &bits, rng.gen_range(0.5..2.0));
        q.proxy = procs[rng.gen_range(0..procs.len())];
        q
    }

    /// Every map of the memo is keyed by an active internal coordinator
    /// of `tree`, so each holds at most one entry per coordinator.
    fn assert_one_entry_per_coordinator(memo: &Memo, tree: &CoordinatorTree, when: &str) {
        let active: HashSet<usize> = tree.internal_bottom_up().into_iter().collect();
        let layers: [(&str, Vec<usize>); 3] = [
            ("phase A", memo.hier.keys().copied().collect()),
            ("phase B", memo.place.keys().copied().collect()),
            ("round output fingerprints", memo.round_out_fps.keys().copied().collect()),
        ];
        for (layer, keys) in layers {
            let stale: Vec<usize> = keys.iter().copied().filter(|c| !active.contains(c)).collect();
            assert!(stale.is_empty(), "{when}: {layer} holds inactive coordinators {stale:?}");
            assert!(keys.len() <= active.len(), "{when}: {layer} outgrew the tree");
        }
    }

    /// One optimizer through rounds of query arrivals, departures and rate
    /// bursts, then one processor join and one leave: after every round
    /// each memo layer holds at most one entry per active coordinator, and
    /// each tree-generation change empties both layers. One trial, its
    /// rounds the ops a failure names.
    #[test]
    fn memo_holds_one_entry_per_coordinator_through_churn() {
        let rounds = if trial::stress() { 200 } else { 6 };
        trial::run("memo-bound", 1, |_| memo_bound_trial(rounds));
    }

    fn memo_bound_trial(rounds: usize) {
        let (seed, k) = (31, 2);
        let mut rng = rng_for(seed, "memo-bound");
        let dep = Deployment::assign(TransitStubConfig::small().generate(seed), 4, 12, seed);
        let mut live = dep.processors().to_vec();
        let spare = live.split_off(10);
        let live_dep =
            Deployment::with_roles(dep.topology().clone(), dep.sources().to_vec(), live.clone());
        let mut tree = CoordinatorTree::build(&live_dep, k);
        let mut table = SubstreamTable::random(U, 4, 1.0, 10.0, seed);
        let mut specs: Vec<QuerySpec> = (0..60).map(|i| random_spec(i, &mut rng, &live)).collect();
        let mut current: Assignment =
            specs.iter().map(|q| (q.id, live[rng.gen_range(0..live.len())])).collect();
        let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());
        let mut next_id = specs.len() as u64;

        for round in 0..rounds + 2 {
            trial::step(round as u32);
            let generation = tree.generation();
            if round < rounds {
                match round % 3 {
                    0 => {
                        let q = random_spec(next_id, &mut rng, &live);
                        next_id += 1;
                        current.place(q.id, live[rng.gen_range(0..live.len())]);
                        specs.push(q);
                    }
                    1 if specs.len() > 20 => {
                        let q = specs.swap_remove(rng.gen_range(0..specs.len()));
                        current.remove(q.id);
                    }
                    _ => table.scale_rate(rng.gen_range(0..U), rng.gen_range(0.5..2.0)),
                }
            } else if round == rounds {
                tree.join(spare[0], 1.0, k, &dep);
                live.push(spare[0]);
            } else {
                let gone = live.swap_remove(0);
                assert!(tree.leave(gone, k, &dep), "{gone} should be in the tree");
                let displaced: Vec<QueryId> =
                    current.iter().filter(|&(_, p)| p == gone).map(|(q, _)| q).collect();
                for q in displaced {
                    current.place(q, live[0]);
                }
            }
            let d = Distributor::new(&dep, &tree, &table);
            if tree.generation() != generation {
                opt.memo.begin_round(env_fp(&d, opt.seed));
                assert!(
                    opt.memo.hier.is_empty() && opt.memo.place.is_empty(),
                    "round {round}: a new tree generation left memo entries behind"
                );
            }
            current = opt.round(&d, &specs, &current).assignment;
            assert_one_entry_per_coordinator(&opt.memo, &tree, &format!("round {round}"));
        }
        let stats = opt.cache_stats();
        assert!(stats.hier_hits > 0 && stats.place_hits > 0, "the memo never fired: {stats:?}");
    }
}

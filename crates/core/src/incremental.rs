//! The delta-driven incremental optimizer (PR 10).
//!
//! The batch pipeline re-derives everything from scratch each round:
//! rebuild every leaf query graph, re-coarsen every coordinator, re-run
//! diffusion and refinement over the whole tree. Between rounds, though,
//! most statistics are unchanged — a burst of [`StatDelta`]s touches a few
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
//! **Correctness model.** Every per-coordinator computation in the batch
//! path is a pure function of (inputs, per-coordinator derived seed), and
//! since PR 10 all of it is bit-reproducible (ordered adjacency, ordered
//! derived-vertex creation). The caches therefore key on *content
//! fingerprints of the full input*, not on the delta stream:
//! [`IncrementalOptimizer::round`] produces the bit-identical
//! [`AdaptOutcome`] (assignment, migrations, moved state — not timing,
//! which measures the work actually done) as
//! [`adapt_wholesale`](crate::adaptive::adapt_wholesale) with the same
//! fixed seed, which the `optimizer_churn` differential suite pins across
//! randomized churn. [`StatDelta`]s ingested via
//! [`IncrementalOptimizer::ingest`] are bookkeeping hints (surfaced in
//! [`CacheStats`]); an unreported delta is still caught by the
//! fingerprint check and simply costs a cache miss.
//!
//! Topology changes (processor join/leave) bump the
//! [`CoordinatorTree::generation`](crate::hierarchy::CoordinatorTree::generation)
//! counter, which is folded into the environment fingerprint — any change
//! clears every cache and the round falls back to wholesale work.

use crate::adaptive::{adapt_with_caches, AdaptConfig, AdaptOutcome};
use crate::distribute::Distributor;
use crate::graph::{QgVertex, VertexKind};
use crate::spec::{Assignment, QuerySpec};
use crate::stats::StatDelta;
use cosmos_net::NodeId;
use cosmos_query::QueryId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Content fingerprint of a query-graph vertex under the given rates:
/// kind, constituent queries, weight bits, interest (with each interested
/// substream's rate bits), state size, result flows, and tag. Two vertices
/// with equal fingerprints are — modulo 64-bit hash collisions, which this
/// design accepts — interchangeable inputs to coarsening and placement.
pub(crate) fn vertex_raw_fp(v: &QgVertex, rates: &[f64]) -> u64 {
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
pub(crate) fn spec_full_fp(spec: &QuerySpec, rates: &[f64]) -> u64 {
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

/// A coordinator's cached coarse outputs plus its per-child constituent
/// groups, Arc-shared with the cache on a hit.
pub(crate) type CachedOutputs = (Vec<QgVertex>, Arc<Vec<Vec<QgVertex>>>);

/// The phase-A (bottom-up coarsening) memo, consulted by
/// `Distributor::build_hierarchy_graphs` when the incremental optimizer
/// drives a round.
#[derive(Debug, Default)]
pub(crate) struct HierCache {
    entries: HashMap<usize, HierEntry>,
    /// Per-coordinator output fingerprints of the *current* round, filled
    /// bottom-up (from the cache entry on a hit, from fresh computation on
    /// a miss) so parents can fingerprint their inputs content-deep.
    round_out_fps: HashMap<usize, Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl HierCache {
    /// Starts a round: the previous round's output fingerprints are stale.
    pub(crate) fn begin_round(&mut self) {
        self.round_out_fps.clear();
    }

    /// Drops every cached result (environment changed).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.round_out_fps.clear();
    }

    /// This round's per-coordinator output fingerprints (for phase B).
    pub(crate) fn round_out_fps(&self) -> &HashMap<usize, Vec<u64>> {
        &self.round_out_fps
    }

    /// Fingerprint of a level-1 coordinator's inputs: its member specs'
    /// full statistics, in grouping order.
    pub(crate) fn leaf_input_fp(&self, specs: &[&QuerySpec], rates: &[f64]) -> u64 {
        let mut h = DefaultHasher::new();
        b"leaf".hash(&mut h);
        for spec in specs {
            spec_full_fp(spec, rates).hash(&mut h);
        }
        h.finish()
    }

    /// Fingerprint of an internal coordinator's inputs: its children's
    /// output fingerprints for this round, in child order. Level-0
    /// children contribute a marker (they produce no outputs).
    pub(crate) fn internal_input_fp(&self, children: &[usize]) -> u64 {
        let mut h = DefaultHasher::new();
        for &ch in children {
            ch.hash(&mut h);
            match self.round_out_fps.get(&ch) {
                Some(fps) => {
                    1u8.hash(&mut h);
                    fps.hash(&mut h);
                }
                None => 0u8.hash(&mut h),
            }
        }
        h.finish()
    }

    /// Returns the cached outputs when `coord`'s inputs are unchanged,
    /// publishing its output fingerprints for the parent's input check.
    pub(crate) fn lookup(&mut self, coord: usize, input_fp: u64) -> Option<CachedOutputs> {
        match self.entries.get(&coord) {
            Some(e) if e.input_fp == input_fp => {
                self.round_out_fps.insert(coord, e.out_fps.clone());
                self.hits += 1;
                Some((e.outputs.clone(), e.constituents.clone()))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn deep_fp(&self, v: &QgVertex, rates: &[f64]) -> u64 {
        match v.tag {
            Some((coord, idx)) => self.round_out_fps[&coord][idx],
            None => vertex_raw_fp(v, rates),
        }
    }

    /// Stores a freshly computed result and derives its content-deep
    /// output fingerprints (children's fingerprints for tagged
    /// constituents, raw content for untagged ones).
    pub(crate) fn insert(
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
        self.entries.insert(
            coord,
            HierEntry {
                input_fp,
                outputs: outputs.to_vec(),
                constituents: constituents.clone(),
                out_fps,
            },
        );
    }
}

/// A memoized subtree decision: the fingerprint it was computed under
/// and the sorted `(query, processor)` placements to replay on a hit.
pub(crate) type PlacementMemo = (u64, Arc<Vec<(QueryId, NodeId)>>);

/// Persistent storage for the phase-B subtree memo (the per-round view is
/// `adaptive::PlaceCache`).
#[derive(Debug, Default)]
pub(crate) struct PlaceStore {
    /// Per coordinator: (subtree fingerprint, sorted placements).
    pub(crate) entries: HashMap<usize, PlacementMemo>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl PlaceStore {
    fn clear(&mut self) {
        self.entries.clear();
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

/// The delta-driven optimizer: holds the per-coordinator memos across
/// adaptation rounds and a **fixed seed**, so that
/// [`IncrementalOptimizer::round`] is observationally equal to
/// [`adapt_wholesale`](crate::adaptive::adapt_wholesale) with that seed,
/// every round.
///
/// The same deployment, tree, and table must back the [`Distributor`]
/// passed to every round (topology churn through
/// [`CoordinatorTree::join`](crate::hierarchy::CoordinatorTree::join) /
/// [`leave`](crate::hierarchy::CoordinatorTree::leave) is fine — the
/// generation counter invalidates the caches).
#[derive(Debug)]
pub struct IncrementalOptimizer {
    seed: u64,
    config: AdaptConfig,
    /// Fingerprint of the environment the caches were built under; a
    /// mismatch (new tree generation, different knobs) drops them.
    env_fp: Option<u64>,
    hier: HierCache,
    place: PlaceStore,
    deltas_ingested: u64,
}

impl IncrementalOptimizer {
    /// Creates an optimizer with a fixed seed and validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the offending knob's message when `config` fails
    /// [`AdaptConfig::validate`].
    pub fn new(seed: u64, config: AdaptConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self {
            seed,
            config,
            env_fp: None,
            hier: HierCache::default(),
            place: PlaceStore::default(),
            deltas_ingested: 0,
        })
    }

    /// The fixed seed every round runs under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The adaptation configuration.
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }

    /// Ingests one statistics delta. Deltas are *hints*: correctness comes
    /// from the fingerprint checks in [`IncrementalOptimizer::round`], so
    /// an over- or under-reported stream only shifts how much work the
    /// next round reuses, never what it answers.
    pub fn ingest(&mut self, _delta: &StatDelta) {
        self.deltas_ingested += 1;
    }

    /// Runs one adaptation round, reusing every cached result whose
    /// inputs are fingerprint-unchanged. Produces the identical
    /// assignment, migration count, moved state and closing-pass work
    /// (`refine`) as [`adapt_wholesale`](crate::adaptive::adapt_wholesale)
    /// called with this optimizer's seed and config (timing differs: it
    /// measures the work actually performed).
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
        let fp = env_fp(d, &self.config, self.seed);
        if self.env_fp != Some(fp) {
            self.hier.clear();
            self.place.clear();
            self.env_fp = Some(fp);
        }
        adapt_with_caches(
            d,
            specs,
            current,
            &self.config,
            self.seed,
            Some((&mut self.hier, &mut self.place)),
        )
    }

    /// Cumulative cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hier_hits: self.hier.hits,
            hier_misses: self.hier.misses,
            place_hits: self.place.hits,
            place_misses: self.place.misses,
            deltas_ingested: self.deltas_ingested,
        }
    }
}

/// Everything outside the per-round inputs that the pipeline's output
/// depends on: the seed, the tree's structural generation and shape, and
/// every optimizer knob.
fn env_fp(d: &Distributor<'_>, config: &AdaptConfig, seed: u64) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    d.tree.generation().hash(&mut h);
    d.tree.len().hash(&mut h);
    d.tree.root().hash(&mut h);
    d.universe().hash(&mut h);
    let dc = &d.config;
    dc.vmax.hash(&mut h);
    dc.alpha.to_bits().hash(&mut h);
    dc.overlap_edges.hash(&mut h);
    dc.per_level_alpha.hash(&mut h);
    config.x_fraction.to_bits().hash(&mut h);
    config.fill_fraction.to_bits().hash(&mut h);
    config.max_moves_factor.hash(&mut h);
    config.min_improvement.to_bits().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_util::InterestSet;

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
    fn full_fp_tracks_stats_struct_fp_does_not() {
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
    fn constructor_rejects_invalid_config() {
        let bad = AdaptConfig { max_moves_factor: 0, ..AdaptConfig::default() };
        let err = IncrementalOptimizer::new(1, bad).unwrap_err();
        assert!(err.contains("max_moves_factor"), "error should name the knob: {err}");
        let bad = AdaptConfig { x_fraction: f64::NAN, ..AdaptConfig::default() };
        assert!(IncrementalOptimizer::new(1, bad).unwrap_err().contains("x_fraction"));
        assert!(IncrementalOptimizer::new(1, AdaptConfig::default()).is_ok());
    }

    #[test]
    fn ingest_counts_deltas() {
        let mut opt = IncrementalOptimizer::new(7, AdaptConfig::default()).unwrap();
        opt.ingest(&StatDelta::RateChanged { substream: 3 });
        opt.ingest(&StatDelta::QueryChanged { id: QueryId(1) });
        assert_eq!(opt.cache_stats().deltas_ingested, 2);
    }
}

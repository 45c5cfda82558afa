//! Hierarchical initial query distribution (§3.5) and the graph-building
//! machinery shared by the online and adaptive algorithms.
//!
//! Bottom-up, every level-1 coordinator builds a query graph from the raw
//! queries of its processors' users, coarsens it to `vmax` vertices
//! (Algorithm 1), tags the coarse vertices with its own identity, and
//! submits them to its parent; parents combine children's submissions and
//! repeat. Top-down, each coordinator maps its (coarse) query graph onto
//! its children with Algorithm 2 and sends each child its share,
//! *uncoarsened one level* — using the vertex tags to retrieve constituent
//! vertices from their originating coordinator, exactly as §3.5 describes.
//!
//! A third documented deviation (after [`coarsen`](crate::coarsen)'s anchor
//! rule and gain-aware matching): the paper's uncoarsening stops at whole
//! level-1 clusters — no single query is ever moved — and Algorithm 2
//! refines the pairwise WEC surrogate. `distribute` ends, as a multilevel
//! partitioner does, with a *query-level refinement on the cost it is
//! judged on* — every substream's rate over the latency of its multicast
//! tree from the source to the processors reading it, plus every result
//! rate over `d(host, proxy)` — held by
//! [`cosmos_pubsub::PlacementCost`]: it sees what `TrafficModel` sees —
//! per-processor reader counts, each query's interest, proxy and rates —
//! and is the identity when no move pays. The same pass ends every
//! adaptation round ([`adaptive`](crate::adaptive)), where a move also pays
//! for the state it carries and balance is held to phase 2's band.
//!
//! Moving one query never frees a substream that another query on its
//! processor also reads — that reader keeps the substream's links in use —
//! so a pass of single moves cannot see the model's largest saving: a
//! processor pays for a substream once, however many of its queries read
//! it (§3.1.2). The pass therefore also moves *groups*, every query of a
//! processor that reads one substream, two or more of them, lifted and
//! priced together: the set price of `PlacementCost` charges each
//! substream of their union once. A substream sweep follows each query
//! sweep while substream sweeps move; once one moves nothing, query sweeps
//! run until one moves nothing, then a substream sweep again. The pass
//! ends when one sweep of each kind in a row moves nothing — a fixpoint of
//! both kinds of move — or after `REFINE_SWEEPS` sweeps. A group is lifted only if some leaf admitting it, priced with the
//! group still in place (a price lifting it can only raise), beats what
//! staying is worth: the group's result flows plus what lifting it frees,
//! worked out once per processor visit for all of that processor's groups.
//!
//! Graph construction appends: a vertex's few source and result-flow terms
//! are placed first, then the pairwise overlap pass rebuilds every
//! adjacency row in ascending order without searching one. Not every pair
//! shares a substream: of the pairs the pass tries, at most 72 % become
//! edges on `placement-churn` and at most 13 % on `sensor-join`.
//!
//! Scalability note (documented substitution): the paper never says how the
//! centralized baseline builds overlap edges among 60 000 queries — full
//! pairwise bit-vector ANDs are quadratic. Above `FULL_PAIRWISE_LIMIT`
//! (2 048) queryful vertices we sparsify: an inverted index over
//! substreams, each list capped at `CANDIDATES_PER_SUBSTREAM` (16),
//! proposes candidate pairs (queries sharing a hot substream), and every
//! vertex keeps exact-weighted edges to its `TOP_OVERLAP_EDGES` (12) top
//! co-occurring partners. Sharing-heavy pairs co-occur in many substream
//! lists, so the heavy edges — the ones coarsening and mapping act on —
//! survive.

use crate::coarsen::{coarsen, CoarsenStats, Coarsened};
use crate::graph::{effective_rates, load_limits, NetVertex, NetworkGraph, QgVertex, QueryGraph};
use crate::hierarchy::CoordinatorTree;
use crate::incremental::Memo;
use crate::mapping::{admissible, map_graph, map_greedy, MappingResult, PinOf};
use crate::spec::{Assignment, QuerySpec};
use cosmos_net::{Deployment, NodeId};
use cosmos_pubsub::{PlacementCost, QueryTraffic, SubstreamTable};
use cosmos_util::rng::derive_seed_indexed;
use cosmos_util::InterestSet;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

/// Up to this many queryful vertices, overlap edges are exact pairwise;
/// beyond it, the inverted-index sparsification kicks in.
const FULL_PAIRWISE_LIMIT: usize = 2048;
/// Candidate-list cap per substream on the sparsified path.
const CANDIDATES_PER_SUBSTREAM: usize = 16;
/// Overlap edges kept per vertex on the sparsified path (its top
/// co-occurring partners).
const TOP_OVERLAP_EDGES: usize = 12;
/// Sweep cap of the query-level refinement that ends a distribution, query
/// and substream sweeps counted together, sized for both kinds.
/// `sensor-join`'s population reaches the fixpoint in 9 to 14 sweeps.
const REFINE_SWEEPS: usize = 32;

/// Allowed load imbalance, `α` in eqn 3.1: no processor carries more than
/// `(1 + α)` times its capability's share of the load. Paper (§4.1): 0.1.
pub const ALPHA: f64 = 0.1;

/// Tuning knobs for the distribution machinery: the values a production
/// caller sets, each one more key of the incremental optimizer's memo. What
/// nobody sets is a constant above.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Coarsening threshold `vmax` (§3.4).
    pub vmax: NonZeroUsize,
    /// Include query-query overlap edges at all (§3.1.2's Pub/Sub-aware
    /// term). Disabled only by the ablation study — which still wins, by a
    /// hair, where result traffic rivals input traffic: on the end-to-end
    /// `sensor-join` workload the measured cost read 73 267 byte·ms per
    /// record with the term and 72 153 without (−1.5 %; it was 3× before a
    /// shared substream was charged once, −20 % before the query-level
    /// refinement) until the refinement moved groups of readers (72 521
    /// with the term since), and 4 492 with it on `placement-churn` (4 785
    /// before adaptation rounds ended on the same refinement, against 9 915
    /// without the term, measured then; 4 381 since groups move).
    pub overlap_edges: bool,
    /// Spread the load tolerance across tree levels
    /// (`(1+α)^(1/height) − 1` per level). Disabled only by the ablation
    /// study (which then re-applies α at every level and compounds).
    pub per_level_alpha: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        // vmax = 64, built without a panic site.
        let vmax = NonZeroUsize::MIN.saturating_add(63);
        Self { vmax, overlap_edges: true, per_level_alpha: true }
    }
}

/// Timing of a distribution run, mirroring Figure 6(b)'s two metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistTiming {
    /// Begin-to-end time with same-level coordinators running in parallel
    /// (critical path through the tree).
    pub response: Duration,
    /// Total CPU time summed over all coordinators.
    pub total: Duration,
    /// The closing query-level refinement's share of both.
    pub refine: Duration,
}

/// The outcome of a distribution run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Query → processor placement.
    pub assignment: Assignment,
    /// Response/total running time.
    pub timing: DistTiming,
    /// Coarsening work summed over all coordinators.
    pub coarsen: CoarsenStats,
    /// Work of the closing query-level refinement.
    pub refine: RefineStats,
}

/// Work counters of the query-level refinement (exact under a seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Queries moved to another processor one at a time.
    pub moves: usize,
    /// Sweeps of either kind, the last moving none unless capped first.
    pub passes: usize,
    /// Candidate targets priced with the moving queries lifted, each
    /// beating the best before it.
    pub evaluated: usize,
    /// Candidate targets dropped there at a partial sum that reached the
    /// best.
    pub pruned: usize,
    /// Groups — a processor's readers of one substream — moved together.
    pub substream_moves: usize,
    /// Groups priced exactly, lifted off their processor.
    pub groups_evaluated: usize,
    /// Groups no target could beat, told without lifting them.
    pub groups_pruned: usize,
}

/// Shared context: deployment + coordinator tree + substream table.
#[derive(Debug)]
pub struct Distributor<'a> {
    pub(crate) dep: &'a Deployment,
    pub(crate) tree: &'a CoordinatorTree,
    pub(crate) table: &'a SubstreamTable,
    /// Per-source substream sets (interest of source n-vertices).
    pub(crate) source_sets: Vec<InterestSet>,
    /// Configuration.
    pub config: DistConfig,
}

impl<'a> Distributor<'a> {
    /// Couples a deployment, its coordinator tree, and the substream table.
    pub fn new(dep: &'a Deployment, tree: &'a CoordinatorTree, table: &'a SubstreamTable) -> Self {
        Self::with_config(dep, tree, table, DistConfig::default())
    }

    /// As [`Distributor::new`] with explicit configuration.
    pub fn with_config(
        dep: &'a Deployment,
        tree: &'a CoordinatorTree,
        table: &'a SubstreamTable,
        config: DistConfig,
    ) -> Self {
        let universe = table.len();
        let mut source_sets = vec![InterestSet::new(universe); dep.sources().len()];
        for s in 0..universe {
            source_sets[table.source_index(s)].insert(s);
        }
        Self { dep, tree, table, source_sets, config }
    }

    /// The substream universe size.
    pub fn universe(&self) -> usize {
        self.table.len()
    }

    /// The per-level load tolerance: deviations compound multiplicatively
    /// down the coordinator tree, so each level gets
    /// `(1 + α)^(1/height) − 1` and the end-to-end slack stays ≈ [`ALPHA`].
    pub(crate) fn level_alpha(&self) -> f64 {
        if !self.config.per_level_alpha {
            return ALPHA;
        }
        let h = self.tree.height().max(1) as f64;
        (1.0 + ALPHA).powf(1.0 / h) - 1.0
    }

    /// Adaptation's balance band: half the per-level tolerance. Phase 2
    /// admits its moves against it, and so does the closing pass of every
    /// adaptation round ([`adaptive`](crate::adaptive)).
    pub(crate) fn band(&self) -> f64 {
        self.level_alpha() * 0.5
    }

    /// Builds a q-vertex for one query spec.
    pub(crate) fn vertex_for(&self, spec: &QuerySpec) -> QgVertex {
        QgVertex::for_query(
            spec.id,
            spec.interest.clone(),
            spec.load,
            spec.proxy,
            spec.result_rate,
            spec.state_size,
        )
    }

    /// Assembles a query graph from queryful vertices: derives the pure
    /// n-vertices (sources with any requested substream, proxies with any
    /// result flow) and computes all edges — every substream term from the
    /// rate shared among the input vertices that read it, which the graph
    /// keeps for coarsening to re-estimate with.
    pub(crate) fn graph_from_vertices(&self, vertices: Vec<QgVertex>, seed: u64) -> QueryGraph {
        self.graph_with_pairwise_limit(vertices, seed, FULL_PAIRWISE_LIMIT)
    }

    /// [`Self::graph_from_vertices`] with the overlap edges exact pairwise
    /// up to `full_pairwise_limit` queryful vertices, not the constant —
    /// how tests reach the sparsified path on a dozen queries.
    fn graph_with_pairwise_limit(
        &self,
        mut vertices: Vec<QgVertex>,
        seed: u64,
        full_pairwise_limit: usize,
    ) -> QueryGraph {
        let rates = effective_rates(&vertices, self.table.rates());
        let sources = self.dep.sources();
        let n_query = vertices.len();

        // Which network nodes already have a (mixed) Net vertex?
        let mut existing_net: HashMap<NodeId, usize> = HashMap::new();
        for (i, v) in vertices.iter().enumerate() {
            if let Some(node) = v.net_node() {
                existing_net.insert(node, i);
            }
        }

        // Source and result-flow terms `(i, j, rate)`, in the order they
        // add up on their edges.
        let mut terms: Vec<(usize, usize, f64)> = Vec::new();

        // Per-vertex, per-source requested rate (single pass over the
        // interest), deriving pure source vertices on the way — in sorted
        // source order per vertex: derived-vertex indices must be
        // bit-reproducible, or rebuilt graphs would differ from cached ones
        // and the incremental optimizer's memoization would be unsound.
        let mut source_vertex = vec![usize::MAX; sources.len()];
        let mut requested = vec![0.0; sources.len()];
        let mut last_seen = vec![usize::MAX; sources.len()];
        let mut wanted: Vec<usize> = Vec::new();
        for i in 0..n_query {
            wanted.clear();
            for s in vertices[i].interest.iter() {
                let src = self.table.source_index(s);
                if last_seen[src] != i {
                    last_seen[src] = i;
                    requested[src] = 0.0;
                    wanted.push(src);
                }
                requested[src] += rates[s];
            }
            wanted.sort_unstable();
            for &src in &wanted {
                let j = existing_net.get(&sources[src]).copied().unwrap_or_else(|| {
                    if source_vertex[src] == usize::MAX {
                        source_vertex[src] = vertices.len();
                        vertices
                            .push(QgVertex::for_net(sources[src], self.source_sets[src].clone()));
                    }
                    source_vertex[src]
                });
                if i != j {
                    terms.push((i, j, requested[src]));
                }
            }
        }
        // Result flows, deriving pure proxy vertices on the way.
        let mut proxy_vertex: HashMap<NodeId, usize> = HashMap::new();
        let mut proxies: Vec<QgVertex> = Vec::new();
        for (i, v) in vertices[..n_query].iter().enumerate() {
            for &(p, rate) in &v.result_flows {
                let j = existing_net.get(&p).copied().unwrap_or_else(|| {
                    *proxy_vertex.entry(p).or_insert_with(|| {
                        proxies.push(QgVertex::for_net(p, InterestSet::new(self.universe())));
                        vertices.len() + proxies.len() - 1
                    })
                });
                if v.net_node() != Some(p) && i != j {
                    terms.push((i, j, rate));
                }
            }
        }
        vertices.append(&mut proxies);

        let mut graph = QueryGraph::new(vertices);
        for (i, j, rate) in terms {
            graph.put_edge(i, j, graph.edge(i, j) + rate);
        }

        // Overlap edges among queryful vertices.
        if !self.config.overlap_edges {
            // Ablation: no Pub/Sub-sharing term in the query graph.
        } else if n_query <= full_pairwise_limit {
            graph.add_pairwise(n_query, |a, b| a.interest.weighted_overlap(&b.interest, &rates));
        } else {
            self.sparsified_overlap_edges(&mut graph, n_query, &rates, seed);
        }
        graph.rates = rates;
        graph
    }

    /// Inverted-index candidate generation for overlap edges (see module
    /// docs): every vertex counts its co-occurrences with the (capped)
    /// per-substream candidate lists and keeps exact-weighted edges to its
    /// top co-occurring partners — the heavy edges that coarsening and
    /// mapping act on.
    fn sparsified_overlap_edges(
        &self,
        graph: &mut QueryGraph,
        n_query: usize,
        rates: &[f64],
        seed: u64,
    ) {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); self.universe()];
        let mut order: Vec<usize> = (0..n_query).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        for &i in &order {
            for s in graph.vertices[i].interest.iter() {
                if lists[s].len() < CANDIDATES_PER_SUBSTREAM {
                    lists[s].push(i as u32);
                }
            }
        }
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for i in 0..n_query {
            counts.clear();
            for s in graph.vertices[i].interest.iter() {
                for &j in &lists[s] {
                    if j as usize != i {
                        *counts.entry(j).or_insert(0) += 1;
                    }
                }
            }
            let mut partners: Vec<(u32, u32)> = counts.iter().map(|(&j, &c)| (c, j)).collect();
            partners.sort_unstable_by(|a, b| b.cmp(a));
            for &(_, j) in partners.iter().take(TOP_OVERLAP_EDGES) {
                let j = j as usize;
                if graph.edge(i, j) > 0.0 {
                    continue;
                }
                let w =
                    graph.vertices[i].interest.weighted_overlap(&graph.vertices[j].interest, rates);
                if w > 0.0 {
                    graph.put_edge(i, j, w);
                }
            }
        }
    }

    /// The network graph at coordinator `coord`: targets = its children
    /// (represented by their medians, weighted by aggregate capability),
    /// anchors = the network nodes the query graph references that no child
    /// covers.
    pub(crate) fn network_graph_at(&self, coord: usize, qg: &QueryGraph) -> NetworkGraph {
        let node = self.tree.node(coord);
        let targets: Vec<NetVertex> = node
            .children
            .iter()
            .map(|&c| {
                let child = self.tree.node(c);
                NetVertex { node: child.representative, capability: child.capability }
            })
            .collect();
        self.network_graph(qg, targets, |n| self.tree.covering_child(coord, n).is_some())
    }

    /// The network graph over `targets`, anchored at every network node
    /// `qg` references that is not `covered` by one of them.
    fn network_graph(
        &self,
        qg: &QueryGraph,
        targets: Vec<NetVertex>,
        covered: impl Fn(NodeId) -> bool,
    ) -> NetworkGraph {
        let mut anchors: Vec<NetVertex> = Vec::new();
        for n in qg.vertices.iter().filter_map(QgVertex::net_node) {
            if !covered(n) && !anchors.iter().any(|a| a.node == n) {
                anchors.push(NetVertex { node: n, capability: 0.0 });
            }
        }
        let dep = self.dep;
        NetworkGraph::build(targets, anchors, |a, b| dep.distance(a, b))
    }

    /// The pin function at `coord`: n-vertices pin to the covering child's
    /// target index or to their anchor.
    pub(crate) fn pin_at<'b>(
        &'b self,
        coord: usize,
        ng: &'b NetworkGraph,
    ) -> impl Fn(&QgVertex) -> Option<usize> + 'b {
        move |v: &QgVertex| {
            let node = v.net_node()?;
            match self.tree.covering_child(coord, node) {
                Some(pos) => Some(pos),
                None => ng.index_of(node),
            }
        }
    }

    /// Maps a graph at one coordinator (Algorithm 2 with this coordinator's
    /// targets/anchors/pins).
    fn map_at(&self, coord: usize, qg: &QueryGraph) -> MappingResult {
        let ng = self.network_graph_at(coord, qg);
        let pin = self.pin_at(coord, &ng);
        map_graph(qg, &ng, &pin, self.level_alpha())
    }

    /// Hierarchical initial distribution (§3.5).
    pub fn distribute(&self, specs: &[QuerySpec], seed: u64) -> DistOutcome {
        let mut assignment = Assignment::new();
        let mut timing = DistTiming::default();
        let (coarsen, refine) = Default::default();
        if specs.is_empty() {
            return DistOutcome { assignment, timing, coarsen, refine };
        }
        // Trivial deployment: a single processor hosts everything.
        if self.tree.node(self.tree.root()).children.is_empty() {
            let p = self.tree.node(self.tree.root()).representative;
            for s in specs {
                assignment.place(s.id, p);
            }
            return DistOutcome { assignment, timing, coarsen, refine };
        }

        // ---- Phase A: bottom-up graph construction and coarsening.
        let mut per_coord =
            self.build_hierarchy_graphs(specs, seed, &mut timing, |spec| spec.proxy, None);

        // ---- Phase B: top-down mapping with one-level uncoarsening.
        let root = self.tree.root();
        let root_work = std::mem::take(&mut per_coord.outputs[root]);
        let response = self.assign_down(root, root_work, &per_coord, &mut assignment, &mut timing);
        timing.response += response;

        // ---- Phase C: query-level refinement on the model's own cost.
        let refine = self.refine_queries(specs, &mut assignment, None, ALPHA, &mut timing);
        DistOutcome { assignment, timing, coarsen: per_coord.coarsen, refine }
    }

    /// The query-level refinement (module docs). A move lifts a set of
    /// queries off their processor, prices them together on every live
    /// processor admissible under `alpha`'s limits for their summed load,
    /// and puts them where the modelled cost plus the move's price is
    /// lowest, if that beats staying by more than 1e-9 (ties to the lower
    /// index). A query sweep moves each query alone, in spec order; a
    /// substream sweep moves, processor by processor and substream by
    /// substream, the queries of a processor reading a substream two or
    /// more of them read. The kinds take turns as the module docs say, for
    /// at most `REFINE_SWEEPS` sweeps in all. With `moved_from`, a query
    /// hosted on `h` there pays `state_size × d(h, k)` to end on `k`:
    /// staying on `h`, or returning to it, is free, and a query without
    /// such a host pays nothing.
    pub(crate) fn refine_queries(
        &self,
        specs: &[QuerySpec],
        assignment: &mut Assignment,
        moved_from: Option<&Assignment>,
        alpha: f64,
        timing: &mut DistTiming,
    ) -> RefineStats {
        let mut sw = cosmos_util::Stopwatch::new();
        sw.start();
        // Each query's pre-round host, read once.
        let homes = specs.iter().map(|q| moved_from.and_then(|a| a.processor_of(q.id)));
        let mut pass = Refinement::new(self, specs, assignment, homes.collect(), alpha);
        // A substream sweep after each query sweep while substream sweeps
        // move; once one moves nothing, query sweeps until one moves
        // nothing, then a substream sweep again; until one of each in a row
        // moves nothing.
        let (mut idle, mut substreams, mut groups_move) = (0, false, true);
        while idle < 2 && pass.stats.passes < REFINE_SWEEPS {
            let moved = pass.sweep(substreams);
            idle = if moved { 0 } else { idle + 1 };
            groups_move = if substreams { moved } else { groups_move };
            substreams = !substreams && (groups_move || !moved);
        }
        for (q, &k) in specs.iter().zip(&pass.hosts) {
            assignment.place(q.id, pass.targets[k].node);
        }
        let stats = pass.stats;
        sw.stop();
        timing.refine = sw.elapsed();
        timing.total += timing.refine;
        timing.response += timing.refine;
        stats
    }

    /// Centralized baseline: one global graph, mapped directly onto all
    /// processors (the paper's scalability yardstick).
    pub fn distribute_centralized(&self, specs: &[QuerySpec], seed: u64) -> DistOutcome {
        let mut out = self.centralized(specs, seed, map_graph);
        out.refine = self.refine_queries(specs, &mut out.assignment, None, ALPHA, &mut out.timing);
        out
    }

    /// Greedy baseline: the centralized graph with only the greedy phase of
    /// Algorithm 2 (no iterative refinement, at either level).
    pub fn distribute_greedy(&self, specs: &[QuerySpec], seed: u64) -> DistOutcome {
        self.centralized(specs, seed, map_greedy)
    }

    /// The global graph under `map`, before any query-level refinement.
    fn centralized(
        &self,
        specs: &[QuerySpec],
        seed: u64,
        map: fn(&QueryGraph, &NetworkGraph, &PinOf, f64) -> MappingResult,
    ) -> DistOutcome {
        let mut sw = cosmos_util::Stopwatch::new();
        sw.start();
        let vertices: Vec<QgVertex> = specs.iter().map(|s| self.vertex_for(s)).collect();
        let qg = self.graph_from_vertices(vertices, seed);
        let ng = self.network_graph(&qg, self.tree.leaves(), |n| self.tree.leaf_of(n).is_some());
        let pin = |v: &QgVertex| -> Option<usize> { v.net_node().and_then(|n| ng.index_of(n)) };
        let result = map(&qg, &ng, &pin, ALPHA);
        let mut assignment = Assignment::new();
        for (i, v) in qg.vertices.iter().enumerate() {
            let target = result.mapping[i];
            if target < ng.target_count() {
                let node = ng.vertex(target).node;
                for &q in &v.queries {
                    assignment.place(q, node);
                }
            }
        }
        sw.stop();
        let timing =
            DistTiming { response: sw.elapsed(), total: sw.elapsed(), ..Default::default() };
        let (coarsen, refine) = Default::default();
        DistOutcome { assignment, timing, coarsen, refine }
    }

    /// Bottom-up phase shared by initial distribution and adaptation:
    /// `home_of` decides which processor a query is grouped under (proxy
    /// for initial distribution, current placement for adaptation).
    ///
    /// With `memo` present (an adaptation round's), each coordinator first
    /// asks it for a replay: unchanged inputs reuse the cached outputs and
    /// Arc-share the cached constituents; changed ones build and coarsen
    /// a fresh graph, which is all `distribute` (`None`) ever does.
    pub(crate) fn build_hierarchy_graphs(
        &self,
        specs: &[QuerySpec],
        seed: u64,
        timing: &mut DistTiming,
        home_of: impl Fn(&QuerySpec) -> NodeId,
        mut memo: Option<&mut Memo>,
    ) -> HierarchyGraphs {
        let n_coords = self.tree.len();
        let mut outputs: Vec<Vec<QgVertex>> = vec![Vec::new(); n_coords];
        let mut constituents: Vec<Arc<Vec<Vec<QgVertex>>>> = vec![Arc::default(); n_coords];
        let mut level_time: Vec<Duration> = Vec::new();
        let mut coarsen_stats = CoarsenStats::default();
        let rates = self.table.rates();

        // Group raw queries by their home processor's level-1 coordinator.
        let mut by_coord: HashMap<usize, Vec<&QuerySpec>> = HashMap::new();
        for spec in specs {
            let home = home_of(spec);
            let leaf = self
                .tree
                .leaf_of(home)
                .unwrap_or_else(|| panic!("query {} homed on unknown processor {home}", spec.id));
            let parent = self.tree.node(leaf).parent.unwrap_or(leaf);
            // Work attached anywhere but an active level-1 coordinator is
            // invisible to the bottom-up pass below and would silently
            // vanish from the output assignment — fail loudly instead.
            assert!(
                self.tree.is_active(parent) && self.tree.node(parent).level == 1,
                "query {} homed on {home}: leaf {leaf} hangs under coordinator {parent}, \
                 which is not an active level-1 cluster (detached tree?)",
                spec.id
            );
            by_coord.entry(parent).or_default().push(spec);
        }

        for coord in self.tree.internal_bottom_up() {
            let mut sw = cosmos_util::Stopwatch::new();
            sw.start();
            let node = self.tree.node(coord);
            let coarse_seed = derive_seed_indexed(seed, "coarsen", coord as u64);
            let tree = self.tree;
            let cluster_of = move |n: NodeId| -> Option<usize> { tree.covering_child(coord, n) };
            let leaf_specs: Vec<&QuerySpec> = if node.level == 1 {
                by_coord.get(&coord).cloned().unwrap_or_default()
            } else {
                Vec::new()
            };

            let lookup =
                memo.as_deref_mut().map(|m| m.lookup_hier(coord, node, &leaf_specs, rates));
            let (out, cons) = if let Some(Ok(hit)) = lookup {
                hit
            } else {
                let fine: Vec<QgVertex> = if node.level == 1 {
                    leaf_specs.iter().map(|s| self.vertex_for(s)).collect()
                } else {
                    node.children.iter().flat_map(|&ch| outputs[ch].iter().cloned()).collect()
                };
                let mut qg = self.graph_from_vertices(fine, coarse_seed);
                let shared = std::mem::take(&mut qg.rates);
                let co = coarsen(qg, self.config.vmax, &shared, &cluster_of, coarse_seed);
                coarsen_stats += co.stats;
                let (out, cons) = tag_outputs(coord, co);
                let cons = Arc::new(cons);
                if let (Some(m), Some(Err(input_fp))) = (memo.as_deref_mut(), lookup) {
                    m.store_hier(coord, input_fp, &out, &cons, rates);
                }
                (out, cons)
            };
            outputs[coord] = out;
            constituents[coord] = cons;
            sw.stop();
            timing.total += sw.elapsed();
            let level = node.level;
            if level_time.len() < level {
                level_time.resize(level, Duration::ZERO);
            }
            level_time[level - 1] = level_time[level - 1].max(sw.elapsed());
        }
        timing.response += level_time.iter().sum::<Duration>();
        HierarchyGraphs { outputs, constituents, coarsen: coarsen_stats }
    }

    /// Top-down assignment with one-level uncoarsening.
    pub(crate) fn assign_down(
        &self,
        coord: usize,
        work: Vec<QgVertex>,
        graphs: &HierarchyGraphs,
        assignment: &mut Assignment,
        timing: &mut DistTiming,
    ) -> Duration {
        let node = self.tree.node(coord);
        if node.level == 0 {
            place_work(&work, node.representative, assignment);
            return Duration::ZERO;
        }
        let mut sw = cosmos_util::Stopwatch::new();
        sw.start();
        let qg = self.graph_from_vertices(work, derive_seed_indexed(0, "down", coord as u64));
        let per_child = graphs.partition(&self.map_at(coord, &qg).mapping, qg, node.children.len());
        sw.stop();
        timing.total += sw.elapsed();
        let own = sw.elapsed();
        let mut child_max = Duration::ZERO;
        for (pos, child_work) in per_child.into_iter().enumerate() {
            let child = node.children[pos];
            let t = self.assign_down(child, child_work, graphs, assignment, timing);
            child_max = child_max.max(t);
        }
        own + child_max
    }
}

/// The closing refinement's state: the cost of the placement as it moves
/// and every leaf's load against its limit.
struct Refinement<'r> {
    dep: &'r Deployment,
    specs: &'r [QuerySpec],
    targets: Vec<NetVertex>,
    limits: Vec<f64>,
    cost: PlacementCost<'r>,
    loads: Vec<f64>,
    /// Per query, its leaf's index in `targets`.
    hosts: Vec<usize>,
    /// Per query, the pre-round host a move pays to leave.
    homes: Vec<Option<NodeId>>,
    /// Room for one leaf's substreams and, per substream, its readers
    /// there; for what lifting each group there frees (see
    /// [`Self::count_frees`]); for the result streams and the substreams of
    /// the queries a move prices; and for the leaves admitting them.
    subs: Vec<usize>,
    readers: Vec<Vec<usize>>,
    frees: Vec<f64>,
    flows: Vec<QueryTraffic<'r>>,
    union: InterestSet,
    admitting: Vec<usize>,
    stats: RefineStats,
}

impl<'r> Refinement<'r> {
    fn new(
        d: &Distributor<'r>,
        specs: &'r [QuerySpec],
        assignment: &Assignment,
        homes: Vec<Option<NodeId>>,
        alpha: f64,
    ) -> Self {
        let targets = d.tree.leaves();
        let limits = load_limits(&targets, specs.iter().map(|q| q.load).sum(), alpha);
        let mut cost = PlacementCost::new(d.dep, d.table);
        let mut loads = vec![0.0; targets.len()];
        let mut hosts: Vec<usize> = Vec::with_capacity(specs.len());
        for q in specs {
            let node = assignment.processor_of(q.id).expect("every query is placed");
            let k = targets.iter().position(|t| t.node == node).expect("placed on a live leaf");
            loads[k] += q.load;
            cost.put(&q.traffic(), node);
            hosts.push(k);
        }
        Self {
            dep: d.dep,
            specs,
            targets,
            limits,
            cost,
            loads,
            hosts,
            homes,
            subs: Vec::new(),
            readers: vec![Vec::new(); d.universe()],
            frees: vec![0.0; d.universe()],
            flows: Vec::new(),
            union: InterestSet::new(d.universe()),
            admitting: Vec::new(),
            stats: RefineStats::default(),
        }
    }

    /// One sweep of query moves or of substream moves; true when one moved.
    fn sweep(&mut self, substreams: bool) -> bool {
        self.stats.passes += 1;
        let before = self.stats.moves + self.stats.substream_moves;
        if substreams {
            (0..self.targets.len()).for_each(|p| self.substream_sweep_at(p));
        } else {
            for i in 0..self.specs.len() {
                self.stats.moves += usize::from(self.query_move(i));
            }
        }
        self.stats.moves + self.stats.substream_moves > before
    }

    /// Moves query `i` alone, or finds it stays; true when it moves.
    fn query_move(&mut self, i: usize) -> bool {
        let (q, from) = (&self.specs[i], self.hosts[i]);
        let (flows, at) = (q.traffic(), self.targets[from].node);
        // With `q` lifted, a target's price is exact whatever the lift
        // freed; the saving is computed once, not per target.
        let saved = self.cost.lift(&flows, at);
        let bar = saved + self.fare(&[i], from) - 1e-9;
        // No price is negative: a query that frees nothing stays.
        let to = if bar > 0.0 && self.admit(&[i], from) {
            self.cheapest(&[i], std::slice::from_ref(&flows), &q.interest, from, bar)
        } else {
            from
        };
        self.cost.put(&flows, self.targets[to].node);
        self.moved(&[i], from, to)
    }

    /// Moves each group on leaf `p` — its queries reading one substream,
    /// two or more of them — in substream order, or finds it stays.
    fn substream_sweep_at(&mut self, p: usize) {
        let (specs, at) = (self.specs, self.targets[p].node);
        let mut subs = std::mem::take(&mut self.subs);
        let mut readers = std::mem::take(&mut self.readers);
        for i in (0..specs.len()).filter(|&i| self.hosts[i] == p) {
            for s in specs[i].interest.iter() {
                subs.extend(readers[s].is_empty().then_some(s));
                readers[s].push(i);
            }
        }
        subs.sort_unstable();
        let (mut members, mut counted) = (Vec::new(), false);
        for &s in &subs {
            // A move takes readers of later substreams off the leaf and
            // leaves `frees` as the visit found it: a group priced on it is
            // lifted in vain or left for a later sweep, never moved at a
            // loss (a lifted group moves on its exact price), and a sweep
            // that moves nothing reads every value exact.
            members.clear();
            members.extend(readers[s].iter().copied().filter(|&i| self.hosts[i] == p));
            if members.len() < 2 {
                continue;
            }
            if !self.admit(&members, p) {
                self.stats.groups_pruned += 1;
                continue;
            }
            if !counted {
                self.count_frees(&subs, &readers, at);
                counted = true;
            }
            self.flows.clear();
            self.flows.extend(members.iter().map(|&i| specs[i].traffic()));
            self.union.clear();
            members.iter().for_each(|&i| self.union.union_with(&specs[i].interest));
            let bar = self.cost.saving(&self.flows, at, []) + self.frees[s];
            let moved = self.group_move(&members, p, bar + self.fare(&members, p) - 1e-9);
            self.stats.substream_moves += usize::from(moved);
        }
        for &s in &subs {
            readers[s].clear();
        }
        subs.clear();
        (self.subs, self.readers) = (subs, readers);
    }

    /// Fills `self.frees[s]`, for each substream `s` of `subs` — those read
    /// on the leaf at `at`, `readers[s]` reading it — with what lifting
    /// every reader of `s` there frees on the source side: each substream
    /// `t` read there only by readers of `s`, over the links that carry it
    /// for the leaf alone.
    fn count_frees(&mut self, subs: &[usize], readers: &[Vec<usize>], at: NodeId) {
        let specs = self.specs;
        for &s in subs {
            self.frees[s] = 0.0;
        }
        for &t in subs {
            let freed = self.cost.saving(&[], at, [t]);
            // Every reader of `t` reads `s` exactly when `s` is in all their
            // interests.
            if let Some((first, rest)) = readers[t].split_first().filter(|_| freed > 0.0) {
                self.union.clear();
                self.union.union_with(&specs[*first].interest);
                for &i in rest {
                    self.union.intersect_with(&specs[i].interest);
                }
                for s in self.union.iter() {
                    self.frees[s] += freed;
                }
            }
        }
    }

    /// Moves `members`, all on leaf `from`, whose result streams and
    /// substreams `self.flows` and `self.union` hold, to the leaf
    /// [`Self::cheapest`] finds among those [`Self::admit`] listed, if that
    /// beats staying, which is worth at most `bar`; true when they move. A
    /// leaf priced with the members still in place is priced no higher than
    /// with them lifted, so one that does not beat `bar` then never will:
    /// the members are lifted only if some leaf does.
    fn group_move(&mut self, members: &[usize], from: usize, bar: f64) -> bool {
        let mut admitting = std::mem::take(&mut self.admitting);
        admitting.retain(|&k| {
            let cap = bar - self.fare(members, k);
            self.cost.price(&self.flows, &self.union, self.targets[k].node, cap).is_some()
        });
        self.admitting = admitting;
        if bar <= 0.0 || self.admitting.is_empty() {
            self.stats.groups_pruned += 1;
            return false;
        }
        self.stats.groups_evaluated += 1;
        let (flows, at) = (std::mem::take(&mut self.flows), self.targets[from].node);
        let union = std::mem::replace(&mut self.union, InterestSet::new(0));
        let saved: f64 = flows.iter().map(|q| self.cost.lift(q, at)).sum();
        let bar = saved + self.fare(members, from) - 1e-9;
        let to = self.cheapest(members, &flows, &union, from, bar);
        for q in &flows {
            self.cost.put(q, self.targets[to].node);
        }
        (self.flows, self.union) = (flows, union);
        self.moved(members, from, to)
    }

    /// Lists in `self.admitting` the leaves other than `from` that admit
    /// the summed load of `members`; true when there is one.
    fn admit(&mut self, members: &[usize], from: usize) -> bool {
        let load: f64 = members.iter().map(|&i| self.specs[i].load).sum();
        let (loads, limits) = (&self.loads, &self.limits);
        let admits = |&k: &usize| k != from && admissible(loads, limits, Some(from), k, load);
        self.admitting.clear();
        self.admitting.extend((0..self.targets.len()).filter(admits));
        !self.admitting.is_empty()
    }

    /// Which of the leaves `self.admitting` lists `members`, lifted off
    /// leaf `from`, with result streams `flows` and substreams `reads`,
    /// cost least on — the modelled cost plus the move's price — if that
    /// beats staying, which is worth `bar` (ties to the lower index);
    /// `from` otherwise.
    fn cheapest(
        &mut self,
        members: &[usize],
        flows: &[QueryTraffic],
        reads: &InterestSet,
        from: usize,
        bar: f64,
    ) -> usize {
        let mut best = (from, bar);
        for &k in &self.admitting {
            let fare = self.fare(members, k);
            match self.cost.price(flows, reads, self.targets[k].node, best.1 - fare) {
                Some(price) => {
                    best = (k, price + fare);
                    self.stats.evaluated += 1;
                }
                None => self.stats.pruned += 1,
            }
        }
        best.0
    }

    /// Books `members` onto leaf `to` from `from`; true when that is a move.
    fn moved(&mut self, members: &[usize], from: usize, to: usize) -> bool {
        if to == from {
            return false;
        }
        let load: f64 = members.iter().map(|&i| self.specs[i].load).sum();
        self.loads[from] -= load;
        self.loads[to] += load;
        for &i in members {
            self.hosts[i] = to;
        }
        true
    }

    /// What moving `members` from wherever they are onto leaf `k` pays for
    /// the state they carry off their pre-round hosts.
    fn fare(&self, members: &[usize], k: usize) -> f64 {
        let to = self.targets[k].node;
        let fare =
            |&i: &usize| Some(self.specs[i].state_size * self.dep.distance(self.homes[i]?, to));
        members.iter().filter_map(fare).sum()
    }
}

/// The leaf case of both top-down passes: every query of `work` runs on
/// `processor`.
pub(crate) fn place_work(work: &[QgVertex], processor: NodeId, out: &mut Assignment) {
    for &q in work.iter().flat_map(|v| &v.queries) {
        out.place(q, processor);
    }
}

/// Tags the queryful coarse vertices with `coord` and collects, per output,
/// its queryful fine constituents, moving both out of `co`. Outputs exclude
/// derived pure n-vertices (the parent re-derives them); constituents keep
/// only queryful fine vertices.
fn tag_outputs(coord: usize, co: Coarsened) -> (Vec<QgVertex>, Vec<Vec<QgVertex>>) {
    let mut fine: Vec<Option<QgVertex>> = co.fine.into_iter().map(Some).collect();
    let mut out = Vec::new();
    let mut cons = Vec::new();
    for (mut v, members) in co.graph.vertices.into_iter().zip(co.members) {
        if v.queries.is_empty() {
            continue;
        }
        v.tag = Some((coord, cons.len()));
        out.push(v);
        let mine = members.iter().filter_map(|&fi| fine[fi].take());
        cons.push(mine.filter(|f| !f.queries.is_empty()).collect::<Vec<QgVertex>>());
    }
    (out, cons)
}

/// Bottom-up products: per coordinator, its tagged coarse output vertices
/// and the constituents behind each of them. Constituent lists sit behind
/// an [`Arc`] so the incremental optimizer can share unchanged subtrees
/// across rounds without cloning.
#[derive(Debug)]
pub(crate) struct HierarchyGraphs {
    pub outputs: Vec<Vec<QgVertex>>,
    pub constituents: Vec<Arc<Vec<Vec<QgVertex>>>>,
    /// Work of the coarsening runs performed; cache hits cost none.
    pub coarsen: CoarsenStats,
}

impl HierarchyGraphs {
    /// Each child's share of a mapped graph, consumed so that it is gone
    /// before the children build theirs: the queryful vertices mapped
    /// to it, each expanded one level via its tag ("retrieved from the
    /// corresponding coordinator"; an untagged, raw vertex is its own
    /// expansion). Anchors never hold queries (see the
    /// [`coarsen`](crate::coarsen) docs) and an unmapped vertex has none.
    pub fn partition(
        &self,
        mapping: &[usize],
        qg: QueryGraph,
        n_children: usize,
    ) -> Vec<Vec<QgVertex>> {
        let mut per_child: Vec<Vec<QgVertex>> = vec![Vec::new(); n_children];
        for (v, &target) in qg.vertices.into_iter().zip(mapping) {
            if !v.queries.is_empty() && target < n_children {
                match v.tag {
                    Some((coord, idx)) => {
                        per_child[target].extend_from_slice(&self.constituents[coord][idx])
                    }
                    None => per_child[target].push(v),
                }
            }
        }
        per_child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::edge_weight;
    use cosmos_net::TransitStubConfig;
    use cosmos_query::QueryId;
    use cosmos_util::rng::rng_for;
    use rand::Rng;

    const UNIVERSE: usize = 200;

    struct Fixture {
        dep: Deployment,
        table: SubstreamTable,
    }

    fn fixture(seed: u64) -> Fixture {
        let topo = TransitStubConfig::small().generate(seed);
        let dep = Deployment::assign(topo, 4, 8, seed);
        let table = SubstreamTable::random(UNIVERSE, 4, 1.0, 10.0, seed);
        Fixture { dep, table }
    }

    fn specs(fix: &Fixture, n: usize, seed: u64) -> Vec<QuerySpec> {
        let mut rng = rng_for(seed, "test-specs");
        (0..n)
            .map(|i| {
                let k = rng.gen_range(3..10);
                let interest =
                    InterestSet::from_indices(UNIVERSE, (0..k).map(|_| rng.gen_range(0..UNIVERSE)));
                let load = interest.weighted_len(fix.table.rates()) / 10.0;
                QuerySpec {
                    id: QueryId(i as u64),
                    interest,
                    load,
                    proxy: fix.dep.processors()[rng.gen_range(0..8usize)],
                    result_rate: 1.0,
                    state_size: 1.0,
                }
            })
            .collect()
    }

    /// The model's cost of `a`, from nothing.
    fn modelled_cost(fix: &Fixture, qs: &[QuerySpec], a: &Assignment) -> f64 {
        let (source, result) = crate::spec::modelled_cost(&fix.dep, &fix.table, qs, a);
        source + result
    }

    #[test]
    fn hierarchical_assigns_every_query_to_a_processor() {
        let fix = fixture(1);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        let qs = specs(&fix, 60, 2);
        let out = d.distribute(&qs, 3);
        assert_eq!(out.assignment.len(), 60);
        for q in &qs {
            let p = out.assignment.processor_of(q.id).expect("assigned");
            assert!(fix.dep.processors().contains(&p), "{p} is not a processor");
        }
    }

    #[test]
    fn centralized_assigns_and_balances() {
        let fix = fixture(2);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        let qs = specs(&fix, 40, 5);
        let out = d.distribute_centralized(&qs, 7);
        assert_eq!(out.assignment.len(), 40);
        let loads = out.assignment.loads(&qs, fix.dep.processors());
        let total: f64 = loads.iter().sum();
        let limit = 1.1 * total / 8.0;
        for l in &loads {
            assert!(*l <= limit + 1e-6, "load {l} exceeds limit {limit}");
        }
    }

    #[test]
    fn greedy_is_no_better_than_refined_centralized() {
        let fix = fixture(3);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        let qs = specs(&fix, 50, 9);
        let greedy = d.distribute_greedy(&qs, 11);
        let central = d.distribute_centralized(&qs, 11);
        assert_eq!(greedy.refine, RefineStats::default(), "greedy runs no refinement");
        let cg = modelled_cost(&fix, &qs, &greedy.assignment);
        let cc = modelled_cost(&fix, &qs, &central.assignment);
        assert!(cc <= cg + 1e-6, "refined centralized ({cc}) must not lose to greedy ({cg})");
    }

    #[test]
    fn sparsified_edges_cover_heavy_overlaps() {
        let fix = fixture(4);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        // Ten queries in two heavy-overlap groups.
        let qs: Vec<QuerySpec> = (0..10)
            .map(|i| {
                let base = if i < 5 { 0 } else { 100 };
                QuerySpec {
                    id: QueryId(i),
                    interest: InterestSet::from_indices(UNIVERSE, base..base + 20),
                    load: 1.0,
                    proxy: fix.dep.processors()[0],
                    result_rate: 0.1,
                    state_size: 1.0,
                }
            })
            .collect();
        let vertices: Vec<QgVertex> = qs.iter().map(|s| d.vertex_for(s)).collect();
        // Force sparsification.
        let g = d.graph_with_pairwise_limit(vertices, 5, 4);
        // Within-group overlap edges must exist, at the weight the shared
        // rates give them: twenty substreams, each read by five.
        let w01 = g.edge(0, 1);
        assert!(w01 > 0.0, "sparsified graph lost the heavy overlap edge");
        assert_eq!(w01, edge_weight(&g.vertices[0], &g.vertices[1], &g.rates));
        let raw = edge_weight(&g.vertices[0], &g.vertices[1], fix.table.rates());
        assert!((w01 - raw / 5.0).abs() < 1e-9, "{w01} is not a fifth of {raw}");
        // Cross-group overlap must stay zero.
        assert_eq!(g.edge(0, 7), 0.0);
    }

    /// Every edge a graph holds is [`edge_weight`] under the effective
    /// rates the graph keeps — on the exact path and on the sparsified one,
    /// which drops edges but never weighs one differently.
    #[test]
    fn graph_edges_match_edge_weight_formula() {
        let fix = fixture(6);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let qs = specs(&fix, 12, 20);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        for full_pairwise_limit in [FULL_PAIRWISE_LIMIT, 4] {
            let vertices: Vec<QgVertex> = qs.iter().map(|s| d.vertex_for(s)).collect();
            let g = d.graph_with_pairwise_limit(vertices, 1, full_pairwise_limit);
            assert_eq!(g.rates, effective_rates(&g.vertices[..qs.len()], fix.table.rates()));
            assert!(g.edge_count() > 0);
            for i in 0..g.len() {
                for (j, w) in g.neighbors(i) {
                    let expect = edge_weight(&g.vertices[i], &g.vertices[j], &g.rates);
                    assert!((w - expect).abs() < 1e-9, "edge ({i},{j}) = {w}, not {expect}");
                }
            }
        }
    }

    #[test]
    fn empty_workload_is_fine() {
        let fix = fixture(7);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        let out = d.distribute(&[], 0);
        assert!(out.assignment.is_empty());
    }

    #[test]
    fn hierarchical_is_deterministic() {
        let fix = fixture(8);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        let qs = specs(&fix, 30, 33);
        let a = d.distribute(&qs, 5);
        let b = d.distribute(&qs, 5);
        for q in &qs {
            assert_eq!(a.assignment.processor_of(q.id), b.assignment.processor_of(q.id));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// Every generated query is assigned exactly once, to a real
            /// processor, under both distribution strategies.
            #[test]
            fn prop_total_assignment(
                n in 1usize..60,
                seed in 0u64..30,
                vmax in 4usize..32,
            ) {
                let fix = fixture(seed % 5);
                let tree = CoordinatorTree::build(&fix.dep, 2);
                let vmax = NonZeroUsize::new(vmax).expect("vmax > 0");
                let config = DistConfig { vmax, ..DistConfig::default() };
                let d = Distributor::with_config(&fix.dep, &tree, &fix.table, config);
                let qs = specs(&fix, n, seed);
                for out in [d.distribute(&qs, seed), d.distribute_centralized(&qs, seed)] {
                    prop_assert_eq!(out.assignment.len(), n);
                    for q in &qs {
                        let p = out.assignment.processor_of(q.id);
                        prop_assert!(p.is_some());
                        prop_assert!(fix.dep.processors().contains(&p.unwrap()));
                    }
                }
            }

            /// The closing refinement, from any starting placement on the
            /// tree's live processors: the modelled cost never rises, loads
            /// within eqn 3.1's limits stay within them, only the specs'
            /// queries are placed and only on live processors — never on
            /// one that left the tree, whatever proxies point at it — the
            /// outcome is a pure function of its inputs, no single or group
            /// move priced from nothing pays, and a second run on its own
            /// output moves nothing in one sweep of each kind. The priced
            /// case (how an adaptation round ends) adds random pre-round
            /// hosts and phase 2's band: the cost plus the prices of the
            /// moves made never rises, the excess over the band's limits
            /// never rises, and a rerun with the output as the pre-round
            /// hosts moves nothing.
            #[test]
            fn prop_refinement_lowers_cost_within_limits_on_live_processors(
                n in 1usize..70,
                seed in 0u64..40,
                spread in 1usize..8,
                priced in 0u8..2,
                shared in 0u8..2,
            ) {
                let fix = fixture(seed % 5);
                let mut tree = CoordinatorTree::build(&fix.dep, 2);
                let gone = fix.dep.processors()[seed as usize % 8];
                let left = seed % 3 == 0 && tree.leave(gone, 2, &fix.dep);
                let d = Distributor::new(&fix.dep, &tree, &fix.table);
                let mut qs = specs(&fix, n, seed);
                // The shared case: every query reads among 16 substreams, so
                // that a processor's queries share theirs, as sensor joins do.
                for q in qs.iter_mut().filter(|_| shared == 1) {
                    q.interest = InterestSet::from_indices(UNIVERSE, q.interest.iter().map(|s| s % 16));
                }
                // The priced case: random pre-round hosts, and states large
                // enough that a move's price rivals the traffic it saves.
                let (mut rng, procs) = (rng_for(seed, "pre-round"), fix.dep.processors());
                let pre: Option<Assignment> = (priced == 1).then(|| {
                    let mut host = |q: &mut QuerySpec| {
                        q.state_size = rng.gen_range(0.0..60.0);
                        (q.id, procs[rng.gen_range(0..procs.len())])
                    };
                    qs.iter_mut().map(&mut host).collect()
                });
                let live: Vec<NetVertex> = (fix.dep.processors().iter())
                    .filter(|&&p| !(left && p == gone))
                    .map(|&node| NetVertex { node, capability: 1.0 })
                    .collect();
                // Round-robin over the first `spread` live processors: from
                // crowded (over the limits) to even.
                let start: Assignment =
                    qs.iter().enumerate().map(|(i, q)| (q.id, live[i % spread].node)).collect();
                let alpha = if pre.is_some() { d.band() } else { ALPHA };
                let limits = load_limits(&live, qs.iter().map(|q| q.load).sum(), alpha);
                let excess = |a: &Assignment| {
                    let nodes: Vec<NodeId> = live.iter().map(|t| t.node).collect();
                    let loads = a.loads(&qs, &nodes);
                    loads.iter().zip(&limits).map(|(l, lim)| l - lim).fold(0.0, f64::max)
                };
                // The modelled cost plus, off `pre`, the price of every move.
                let priced_cost = |a: &Assignment| {
                    let fare = |q: &QuerySpec| {
                        let (h, k) = (pre.as_ref()?.processor_of(q.id)?, a.processor_of(q.id)?);
                        Some(q.state_size * fix.dep.distance(h, k))
                    };
                    modelled_cost(&fix, &qs, a) + qs.iter().filter_map(fare).sum::<f64>()
                };
                let run = |from: &Assignment, pre: Option<&Assignment>| {
                    let (mut a, mut timing) = (from.clone(), DistTiming::default());
                    let stats = d.refine_queries(&qs, &mut a, pre, alpha, &mut timing);
                    prop_assert_eq!(timing.total, timing.refine);
                    Ok((a, stats))
                };
                let (refined, stats) = run(&start, pre.as_ref())?;
                let (before, after) = (priced_cost(&start), priced_cost(&refined));
                prop_assert!(after <= before + 1e-9 * before, "cost rose: {before} -> {after}");
                prop_assert!((stats.moves + stats.substream_moves == 0) == (refined == start));
                prop_assert!(excess(&refined) <= excess(&start).max(0.0) + 1e-9);
                prop_assert_eq!(refined.len(), qs.len());
                for q in &qs {
                    let host = refined.processor_of(q.id).expect("still placed");
                    prop_assert!(live.iter().any(|t| t.node == host), "{host} is not live");
                }
                prop_assert_eq!(&run(&start, pre.as_ref())?, &(refined.clone(), stats));
                prop_assert!(stats.passes < REFINE_SWEEPS, "no fixpoint in {REFINE_SWEEPS} sweeps");
                // The fixpoint, priced from nothing: neither a query alone nor
                // a group — every query of a processor reading a substream
                // two or more of them read — has an admissible target that
                // lowers the cost plus the move's price.
                let nodes: Vec<NodeId> = live.iter().map(|t| t.node).collect();
                let loads = refined.loads(&qs, &nodes);
                let mut sets: Vec<Vec<usize>> = (0..qs.len()).map(|i| vec![i]).collect();
                for &p in &nodes {
                    for sub in 0..UNIVERSE {
                        let on = |i: &usize| refined.processor_of(qs[*i].id) == Some(p);
                        let group: Vec<usize> =
                            (0..qs.len()).filter(on).filter(|&i| qs[i].interest.contains(sub)).collect();
                        if group.len() > 1 {
                            sets.push(group);
                        }
                    }
                }
                for set in &sets {
                    let from = refined.processor_of(qs[set[0]].id).expect("placed");
                    let f = nodes.iter().position(|&n| n == from).expect("live");
                    let load: f64 = set.iter().map(|&i| qs[i].load).sum();
                    for (k, &to) in nodes.iter().enumerate() {
                        if k == f || !admissible(&loads, &limits, Some(f), k, load) {
                            continue;
                        }
                        let mut moved = refined.clone();
                        for &i in set {
                            moved.place(qs[i].id, to);
                        }
                        let gain = after - priced_cost(&moved);
                        prop_assert!(
                            gain <= 1e-7 * after.max(1.0),
                            "moving {set:?} to {to} still saves {gain}"
                        );
                    }
                }
                let (again, idle) = run(&refined, pre.as_ref().map(|_| &refined))?;
                let idle = (idle.moves, idle.substream_moves, idle.passes);
                prop_assert_eq!((again, idle), (refined, (0, 0, 2)));
            }

            /// A shared substream is charged once: with every reader on one
            /// target, what `k` source edges and `k(k − 1)/2` overlap
            /// edges add to the cut is each substream's rate over the
            /// distance from its source — on either overlap path.
            #[test]
            fn prop_colocated_readers_pay_for_a_substream_once(seed in 0u64..40) {
                let fix = fixture(seed % 5);
                let tree = CoordinatorTree::build(&fix.dep, 2);
                let full_pairwise_limit = if seed % 2 == 0 { FULL_PAIRWISE_LIMIT } else { 4 };
                let d = Distributor::new(&fix.dep, &tree, &fix.table);
                let target = fix.dep.processors()[seed as usize % 8];
                let anchors = fix.dep.sources().iter();
                let ng = NetworkGraph::build(
                    vec![NetVertex { node: target, capability: 1.0 }],
                    anchors.map(|&node| NetVertex { node, capability: 0.0 }).collect(),
                    |a, b| fix.dep.distance(a, b),
                );
                let mut rng = rng_for(seed, "readers");
                for k in 1..=40 {
                    let mut read = InterestSet::new(UNIVERSE);
                    let vertices: Vec<QgVertex> = (0..k)
                        .map(|i| {
                            let bits = (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..12usize));
                            let interest = InterestSet::from_indices(UNIVERSE, bits);
                            read.union_with(&interest);
                            QgVertex::for_query(QueryId(i), interest, 1.0, target, 0.0, 1.0)
                        })
                        .collect();
                    let g = d.graph_with_pairwise_limit(vertices, seed, full_pairwise_limit);
                    let mapping: Vec<usize> = g
                        .vertices
                        .iter()
                        .map(|v| v.net_node().map_or(0, |n| ng.index_of(n).expect("known node")))
                        .collect();
                    let once: f64 = read
                        .iter()
                        .map(|s| {
                            let source = fix.dep.sources()[fix.table.source_index(s)];
                            fix.table.rate(s) * fix.dep.distance(source, target)
                        })
                        .sum();
                    let cut = crate::graph::wec(&g, &ng, &mapping);
                    prop_assert!((cut - once).abs() < 1e-9, "{k} readers: {cut}, once {once}");
                }
            }

            /// The derived graph never invents or loses interest mass: the
            /// sum of per-vertex interests equals the specs', and every
            /// n-vertex is a known source or proxy.
            #[test]
            fn prop_graph_vertices_are_consistent(n in 1usize..40, seed in 0u64..20) {
                let fix = fixture(1 + seed % 4);
                let tree = CoordinatorTree::build(&fix.dep, 2);
                let d = Distributor::new(&fix.dep, &tree, &fix.table);
                let qs = specs(&fix, n, seed);
                let vertices: Vec<QgVertex> = qs.iter().map(|s| d.vertex_for(s)).collect();
                let g = d.graph_from_vertices(vertices, seed);
                let mut q_count = 0usize;
                for v in &g.vertices {
                    if let Some(node) = v.net_node() {
                        let known = fix.dep.sources().contains(&node)
                            || fix.dep.processors().contains(&node);
                        prop_assert!(known, "n-vertex for unknown node {node}");
                    } else {
                        q_count += v.queries.len();
                    }
                }
                prop_assert_eq!(q_count, n);
            }
        }
    }

    #[test]
    fn hierarchical_beats_naive_on_communication() {
        let fix = fixture(9);
        let tree = CoordinatorTree::build(&fix.dep, 2);
        let d = Distributor::new(&fix.dep, &tree, &fix.table);
        let qs = specs(&fix, 80, 44);
        let hier = d.distribute(&qs, 1);
        // Naive: every query on its proxy.
        let naive: Assignment = qs.iter().map(|q| (q.id, q.proxy)).collect();
        let ch = modelled_cost(&fix, &qs, &hier.assignment);
        let cn = modelled_cost(&fix, &qs, &naive);
        assert!(ch <= cn * 1.05, "hierarchical ({ch}) should not lose clearly to naive ({cn})");
    }
}

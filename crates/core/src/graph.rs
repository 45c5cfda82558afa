//! The query-graph / network-graph model of §3.1.2.
//!
//! **Network graph** `NG = {Vn, En, Wn}`: one vertex per mappable target
//! (child cluster or processor, weighted by capability) plus *anchor*
//! vertices for external network nodes referenced by the query graph
//! (sources, remote proxies) that queries cannot be mapped to. Edge weights
//! are pairwise latencies.
//!
//! **Query graph** `QG = {Vq, Eq, Wq}`: q-vertices (queries, weighted by
//! load) and n-vertices (network nodes, weight 0). Edges:
//!
//! - q-vertex ↔ source n-vertex: the rate the query requests from that
//!   source;
//! - q-vertex ↔ proxy n-vertex: the query's result rate;
//! - q-vertex ↔ q-vertex: the rate of data *both* queries are interested
//!   in — the Pub/Sub sharing term, "to penalize allocation schemes that
//!   distribute the two queries to two nodes that are very far away".
//!
//! All three kinds reduce to one formula ([`edge_weight`]): the weighted
//! overlap of the endpoint interests (a source n-vertex's "interest" is the
//! substream set it originates) plus any result flows directed at the other
//! endpoint's node. This uniformity is what lets coarsening *re-estimate*
//! merged edges exactly (Algorithm 1, line 11).
//!
//! **What a substream contributes.** Its rate *shared among the vertices
//! that read it* ([`effective_rates`]): a substream of rate `r` read by `k`
//! vertices weighs `r / k` on each of its `k` source edges and on each of
//! its `k(k − 1)/2` overlap edges. Delivering it to all `k` costs one
//! source path plus at most `k − 1` hops, not `k` paths and a hop per
//! *pair*: with every reader on one target at distance `D` from the source
//! the cut is `r · D`, what the multicast costs, where raw rates make it
//! `k · r · D` and out-shout every result flow once `k` reaches the tens.
//! Result flows are unicast and weigh what they are.
//!
//! **Adjacency.** The optimizer has one adjacency representation: per
//! vertex, a flat row of `(neighbor, weight)` sorted by neighbor. The
//! graph builder appends to rows, coarsening scans a row for a vertex's
//! heaviest edge and merges two rows per collapse, mapping and adaptation
//! iterate rows to sum placement costs — always ascending, which is what
//! keeps those floating-point sums, and with them whole placements,
//! bit-reproducible from run to run.

use cosmos_net::NodeId;
use cosmos_query::QueryId;
use cosmos_util::InterestSet;

/// Is a vertex a query vertex or a network (pinned) vertex?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexKind {
    /// A (possibly coarse) group of queries; mappable.
    Query,
    /// A network node (source or proxy); pinned to wherever that node lives.
    Net(NodeId),
}

/// A vertex of the query graph.
#[derive(Debug, Clone)]
pub struct QgVertex {
    /// Query or pinned network vertex.
    pub kind: VertexKind,
    /// Constituent query ids (empty for pure n-vertices).
    pub queries: Vec<QueryId>,
    /// Total estimated load.
    pub weight: f64,
    /// Union data interest. For a source n-vertex: the substreams it
    /// originates.
    pub interest: InterestSet,
    /// Total operator state size (prices migration).
    pub state_size: f64,
    /// Result flows `(proxy node, rate)` of the constituent queries.
    pub result_flows: Vec<(NodeId, f64)>,
    /// Which coordinator produced this (coarse) vertex, and at what output
    /// index — the paper's vertex *tag*, used for uncoarsening.
    pub tag: Option<(usize, usize)>,
}

impl QgVertex {
    /// A q-vertex for a single query.
    pub fn for_query(
        id: QueryId,
        interest: InterestSet,
        load: f64,
        proxy: NodeId,
        result_rate: f64,
        state_size: f64,
    ) -> Self {
        Self {
            kind: VertexKind::Query,
            queries: vec![id],
            weight: load,
            interest,
            state_size,
            result_flows: vec![(proxy, result_rate)],
            tag: None,
        }
    }

    /// An n-vertex for a network node. A data source passes the substream
    /// set it originates as `interest`; a proxy passes an empty set.
    pub fn for_net(node: NodeId, interest: InterestSet) -> Self {
        Self {
            kind: VertexKind::Net(node),
            queries: Vec::new(),
            weight: 0.0,
            interest,
            state_size: 0.0,
            result_flows: Vec::new(),
            tag: None,
        }
    }

    /// Returns `true` for n-vertices (the paper's `is_n`).
    pub fn is_net(&self) -> bool {
        matches!(self.kind, VertexKind::Net(_))
    }

    /// The pinned network node, for n-vertices.
    pub fn net_node(&self) -> Option<NodeId> {
        match self.kind {
            VertexKind::Net(n) => Some(n),
            VertexKind::Query => None,
        }
    }

    /// Merges `other` into `self` (Algorithm 1's vertex collapse):
    /// weights/state add, interests union, queries and result flows
    /// concatenate, and n-vertex-ness is sticky.
    pub fn absorb(&mut self, other: &QgVertex) {
        if other.is_net() && !self.is_net() {
            self.kind = other.kind.clone();
        }
        self.queries.extend(other.queries.iter().copied());
        self.weight += other.weight;
        self.interest.union_with(&other.interest);
        self.state_size += other.state_size;
        self.result_flows.extend(other.result_flows.iter().cloned());
    }
}

/// Substream rates shared among their readers: `rates[s] / k_s`, `k_s` the
/// number of `readers` (the queryful vertices of a graph) whose interest
/// holds `s` — the vector a graph's substream terms are built from and
/// re-estimated with (module docs).
pub fn effective_rates(readers: &[QgVertex], rates: &[f64]) -> Vec<f64> {
    let mut k = vec![0u32; rates.len()];
    for v in readers {
        v.interest.iter().for_each(|s| k[s] += 1);
    }
    rates.iter().zip(k).map(|(&r, k)| r / f64::from(k.max(1))).collect()
}

/// The unified query-graph edge weight between two vertices: weighted
/// interest overlap plus result flows directed at the other endpoint.
/// Result flows toward a vertex's *own* node never appear here (the paper:
/// a query co-located with its proxy needs no result edge). `rates` are the
/// graph's [`effective_rates`], so that a shared substream is charged once
/// across the edges it appears on.
pub fn edge_weight(a: &QgVertex, b: &QgVertex, rates: &[f64]) -> f64 {
    let mut w = a.interest.weighted_overlap(&b.interest, rates);
    if let Some(node) = b.net_node() {
        w += a.result_flows.iter().filter(|(p, _)| *p == node).map(|(_, r)| *r).sum::<f64>();
    }
    if let Some(node) = a.net_node() {
        w += b.result_flows.iter().filter(|(p, _)| *p == node).map(|(_, r)| *r).sum::<f64>();
    }
    w
}

/// One vertex's adjacency: `(neighbor, weight)` pairs sorted by neighbor.
pub(crate) type Row = Vec<(usize, f64)>;

fn find(row: &Row, j: usize) -> Result<usize, usize> {
    row.binary_search_by_key(&j, |e| e.0)
}

/// Sets `j`'s entry of a sorted row to `w`; a weight that is not positive
/// clears the entry instead.
pub(crate) fn set_entry(row: &mut Row, j: usize, w: f64) {
    match (find(row, j), w > 0.0) {
        (Ok(at), true) => row[at].1 = w,
        (Ok(at), false) => {
            row.remove(at);
        }
        (Err(at), true) => row.insert(at, (j, w)),
        (Err(_), false) => {}
    }
}

/// The query graph: vertices plus a weighted adjacency.
#[derive(Debug, Clone, Default)]
pub struct QueryGraph {
    /// Vertices; q-vertices and n-vertices interleaved.
    pub vertices: Vec<QgVertex>,
    /// The [`effective_rates`] the substream terms were built from (empty
    /// for a graph whose edges were set by hand).
    pub(crate) rates: Vec<f64>,
    // One flat sorted row per vertex, holding positive weights only and
    // mirrored (`j` in row `i` iff `i` in row `j`, same weight). Sorted so
    // that neighbor iteration is ascending: derived-vertex creation and the
    // floating-point cost sums of mapping and adaptation must be bit-stable
    // across runs — the incremental optimizer's caches are only valid
    // because recomputation is bit-reproducible. Flat because its rows are
    // long (up to 72 % of query pairs overlap on `placement-churn`), where a
    // contiguous row is both the cheapest thing to build by appending and
    // the cheapest thing to scan for a vertex's heaviest edge.
    rows: Vec<Row>,
}

impl QueryGraph {
    /// Creates a graph with the given vertices and no edges.
    pub fn new(vertices: Vec<QgVertex>) -> Self {
        let n = vertices.len();
        Self { vertices, rates: Vec::new(), rows: vec![Row::new(); n] }
    }

    /// Splits the graph into its vertices and adjacency rows.
    pub(crate) fn into_parts(self) -> (Vec<QgVertex>, Vec<Row>) {
        (self.vertices, self.rows)
    }

    /// Reassembles a graph from vertices and rows that already satisfy the
    /// row invariant (sorted, mirrored, positive weights).
    pub(crate) fn from_parts(vertices: Vec<QgVertex>, rows: Vec<Row>, rates: Vec<f64>) -> Self {
        debug_assert_eq!(vertices.len(), rows.len());
        Self { vertices, rates, rows }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Sets (or overwrites) an undirected edge; zero/negative weights clear.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn set_edge(&mut self, i: usize, j: usize, w: f64) {
        assert!(i < self.len() && j < self.len(), "edge endpoint out of range");
        assert_ne!(i, j, "self-loops are meaningless in a query graph");
        self.put_edge(i, j, w);
    }

    /// [`QueryGraph::set_edge`] for callers whose endpoints are vertex
    /// indices of this graph by construction.
    pub(crate) fn put_edge(&mut self, i: usize, j: usize, w: f64) {
        set_entry(&mut self.rows[i], j, w);
        set_entry(&mut self.rows[j], i, w);
    }

    /// Adds `weight(i, j)`, where positive, to the edge of every pair
    /// `i < j < n` — the dense overlap pass of graph construction. Rows
    /// are rebuilt by appending alone: row `i` receives its `j > i`
    /// ascending during its own turn and row `j` receives each `i < j`
    /// ascending across turns, so no row is searched or shifted. An edge
    /// already present is the left operand of the sum, exactly as if it
    /// had been read back and overwritten.
    pub(crate) fn add_pairwise(&mut self, n: usize, weight: impl Fn(&QgVertex, &QgVertex) -> f64) {
        let fresh = vec![Row::new(); self.len()];
        let prior = std::mem::replace(&mut self.rows, fresh);
        for (i, row) in prior.iter().enumerate() {
            // The lower half of a row mirrors what earlier turns emitted.
            let mut upper = row[row.partition_point(|e| e.0 < i)..].iter().copied().peekable();
            for j in (i + 1)..n {
                let mut w = upper.next_if(|e| e.0 == j).map_or(0.0, |e| e.1);
                let added = weight(&self.vertices[i], &self.vertices[j]);
                if added > 0.0 {
                    w += added;
                }
                if w > 0.0 {
                    self.rows[i].push((j, w));
                    self.rows[j].push((i, w));
                }
            }
            for (j, w) in upper {
                self.rows[i].push((j, w));
                self.rows[j].push((i, w));
            }
        }
    }

    /// The weight of edge `{i, j}`, or 0 when absent.
    pub fn edge(&self, i: usize, j: usize) -> f64 {
        let row = &self.rows[i];
        find(row, j).map_or(0.0, |at| row[at].1)
    }

    /// Iterates over `(neighbor, weight)` of vertex `i`, ascending by
    /// neighbor.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows[i].iter().copied()
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.rows[i].len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total q-vertex weight (`Wᵥq` in eqn 3.1 — n-vertices weigh 0 by
    /// construction, so this is simply the total vertex weight).
    pub fn total_weight(&self) -> f64 {
        self.vertices.iter().map(|v| v.weight).sum()
    }

    /// Indices of q-vertices.
    pub fn query_vertices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| !self.vertices[i].is_net())
    }
}

/// A vertex of the network graph.
#[derive(Debug, Clone)]
pub struct NetVertex {
    /// The representative physical node (cluster median, processor, source).
    pub node: NodeId,
    /// Aggregate capability (`ci`; 0 for anchors such as sources).
    pub capability: f64,
}

/// The network graph at one coordinator: mappable targets (its children)
/// followed by pinned anchors (external nodes the query graph references).
#[derive(Debug, Clone)]
pub struct NetworkGraph {
    vertices: Vec<NetVertex>,
    n_targets: usize,
    /// Row-major pairwise distances.
    dist: Vec<f64>,
}

impl NetworkGraph {
    /// Builds a network graph from targets and anchors, with distances from
    /// `distance(a, b)` over representative nodes.
    pub fn build(
        targets: Vec<NetVertex>,
        anchors: Vec<NetVertex>,
        distance: impl Fn(NodeId, NodeId) -> f64,
    ) -> Self {
        let n_targets = targets.len();
        let vertices: Vec<NetVertex> = targets.into_iter().chain(anchors).collect();
        let m = vertices.len();
        let mut dist = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                dist[i * m + j] =
                    if i == j { 0.0 } else { distance(vertices[i].node, vertices[j].node) };
            }
        }
        Self { vertices, n_targets, dist }
    }

    /// Total number of vertices (targets + anchors).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of mappable targets (indices `0..n_targets`).
    pub fn target_count(&self) -> usize {
        self.n_targets
    }

    /// The vertex at index `k`.
    pub fn vertex(&self, k: usize) -> &NetVertex {
        &self.vertices[k]
    }

    /// Distance between vertices `k` and `l`.
    pub fn distance(&self, k: usize, l: usize) -> f64 {
        self.dist[k * self.len() + l]
    }

    /// Index of the vertex representing `node`, if present.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.vertices.iter().position(|v| v.node == node)
    }

    /// Total capability of the targets (`Wᵥn` in eqn 3.1).
    pub fn total_capability(&self) -> f64 {
        self.vertices[..self.n_targets].iter().map(|v| v.capability).sum()
    }

    /// Per-target load limits under eqn 3.1 ([`load_limits`]).
    pub fn load_limits(&self, total_query_weight: f64, alpha: f64) -> Vec<f64> {
        load_limits(&self.vertices[..self.n_targets], total_query_weight, alpha)
    }
}

/// Per-target load limits under eqn 3.1: `(1 + α) · c_k · W_q / C_total`.
pub fn load_limits(targets: &[NetVertex], total_query_weight: f64, alpha: f64) -> Vec<f64> {
    let total_cap: f64 = targets.iter().map(|v| v.capability).sum();
    targets
        .iter()
        .map(|v| {
            if total_cap <= 0.0 {
                0.0
            } else {
                (1.0 + alpha) * v.capability * total_query_weight / total_cap
            }
        })
        .collect()
}

/// The Weighted Edge Cut of a mapping (eqn 3.2):
/// `Σ_{(i,j) ∈ Eq} Wq(e_ij) · Wn(map(i), map(j))`.
///
/// # Panics
///
/// Panics if `mapping.len() != qg.len()` or any image is out of range.
pub fn wec(qg: &QueryGraph, ng: &NetworkGraph, mapping: &[usize]) -> f64 {
    assert_eq!(mapping.len(), qg.len(), "mapping must cover every vertex");
    let mut total = 0.0;
    for i in 0..qg.len() {
        for (j, w) in qg.neighbors(i) {
            if j > i {
                total += w * ng.distance(mapping[i], mapping[j]);
            }
        }
    }
    total
}

/// Per-target loads of a mapping (anchors excluded).
pub fn target_loads(qg: &QueryGraph, ng: &NetworkGraph, mapping: &[usize]) -> Vec<f64> {
    let mut loads = vec![0.0; ng.target_count()];
    for (i, &m) in mapping.iter().enumerate() {
        if m < ng.target_count() {
            loads[m] += qg.vertices[i].weight;
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(universe: usize, bits: &[usize]) -> InterestSet {
        InterestSet::from_indices(universe, bits.iter().copied())
    }

    #[test]
    fn edge_weight_overlap_only() {
        let rates = vec![2.0; 8];
        let a = QgVertex::for_query(QueryId(1), iv(8, &[0, 1, 2]), 1.0, NodeId(9), 0.5, 1.0);
        let b = QgVertex::for_query(QueryId(2), iv(8, &[2, 3]), 1.0, NodeId(9), 0.5, 1.0);
        // Overlap = substream 2 at rate 2; result flows both target node 9
        // but neither vertex *is* node 9.
        assert_eq!(edge_weight(&a, &b, &rates), 2.0);
    }

    #[test]
    fn edge_weight_to_source_and_proxy() {
        let rates = vec![1.0; 8];
        let q = QgVertex::for_query(QueryId(1), iv(8, &[0, 1, 4]), 1.0, NodeId(9), 0.5, 1.0);
        let source = QgVertex::for_net(NodeId(3), iv(8, &[0, 1, 2, 3]));
        let proxy = QgVertex::for_net(NodeId(9), InterestSet::new(8));
        assert_eq!(edge_weight(&q, &source, &rates), 2.0); // substreams 0, 1
        assert_eq!(edge_weight(&q, &proxy, &rates), 0.5); // result flow
        assert_eq!(edge_weight(&source, &proxy, &rates), 0.0);
    }

    #[test]
    fn absorb_accumulates_and_is_net_sticky() {
        let rates = vec![1.0; 8];
        let mut q = QgVertex::for_query(QueryId(1), iv(8, &[0]), 1.0, NodeId(9), 0.5, 2.0);
        let q2 = QgVertex::for_query(QueryId(2), iv(8, &[1]), 3.0, NodeId(8), 0.25, 1.0);
        q.absorb(&q2);
        assert_eq!(q.weight, 4.0);
        assert_eq!(q.state_size, 3.0);
        assert_eq!(q.queries, vec![QueryId(1), QueryId(2)]);
        assert_eq!(q.interest.len(), 2);
        assert!(!q.is_net());
        let net = QgVertex::for_net(NodeId(5), InterestSet::new(8));
        q.absorb(&net);
        assert!(q.is_net());
        assert_eq!(q.net_node(), Some(NodeId(5)));
        // Merged vertex keeps result flows for edge computation.
        let proxy9 = QgVertex::for_net(NodeId(9), InterestSet::new(8));
        assert_eq!(edge_weight(&q, &proxy9, &rates), 0.5);
    }

    #[test]
    fn graph_edges_and_reestimation() {
        let rates = vec![1.0; 8];
        let v0 = QgVertex::for_query(QueryId(1), iv(8, &[0, 1]), 1.0, NodeId(9), 0.0, 1.0);
        let v1 = QgVertex::for_query(QueryId(2), iv(8, &[1, 2]), 1.0, NodeId(9), 0.0, 1.0);
        let v2 = QgVertex::for_query(QueryId(3), iv(8, &[5]), 1.0, NodeId(9), 0.0, 1.0);
        let mut g = QueryGraph::new(vec![v0, v1, v2]);
        g.set_edge(0, 1, edge_weight(&g.vertices[0], &g.vertices[1], &rates));
        assert_eq!(g.edge(0, 1), 1.0);
        assert_eq!(g.edge(1, 0), 1.0);
        assert_eq!(g.edge(0, 2), 0.0);
        assert_eq!(g.edge_count(), 1);
        // Absorb v2 into v1 (no new overlap with v0): edge unchanged.
        let v2_clone = g.vertices[2].clone();
        g.vertices[1].absorb(&v2_clone);
        g.set_edge(0, 1, edge_weight(&g.vertices[0], &g.vertices[1], &rates));
        assert_eq!(g.edge(0, 1), 1.0);
        // Clearing via zero weight works.
        g.set_edge(0, 1, 0.0);
        assert_eq!(g.edge_count(), 0);
    }

    fn simple_ng() -> NetworkGraph {
        // Two targets 10 apart; one anchor 1 from target 0, 11 from target 1.
        let pos = |n: NodeId| -> f64 {
            match n.0 {
                0 => 0.0,
                1 => 10.0,
                _ => -1.0,
            }
        };
        NetworkGraph::build(
            vec![
                NetVertex { node: NodeId(0), capability: 1.0 },
                NetVertex { node: NodeId(1), capability: 3.0 },
            ],
            vec![NetVertex { node: NodeId(2), capability: 0.0 }],
            move |a, b| (pos(a) - pos(b)).abs(),
        )
    }

    #[test]
    fn network_graph_basics() {
        let ng = simple_ng();
        assert_eq!(ng.len(), 3);
        assert_eq!(ng.target_count(), 2);
        assert_eq!(ng.distance(0, 1), 10.0);
        assert_eq!(ng.distance(1, 1), 0.0);
        assert_eq!(ng.index_of(NodeId(2)), Some(2));
        assert_eq!(ng.total_capability(), 4.0);
    }

    #[test]
    fn load_limits_follow_eqn_31() {
        let ng = simple_ng();
        let limits = ng.load_limits(8.0, 0.1);
        // (1.1) * c_k * 8 / 4 = 2.2 c_k
        assert!((limits[0] - 2.2).abs() < 1e-9);
        assert!((limits[1] - 6.6).abs() < 1e-9);
    }

    #[test]
    fn wec_and_loads() {
        let rates = vec![1.0; 4];
        let q1 = QgVertex::for_query(QueryId(1), iv(4, &[0]), 2.0, NodeId(2), 1.0, 1.0);
        let q2 = QgVertex::for_query(QueryId(2), iv(4, &[0]), 3.0, NodeId(2), 1.0, 1.0);
        let anchor = QgVertex::for_net(NodeId(2), InterestSet::new(4));
        let mut g = QueryGraph::new(vec![q1, q2, anchor]);
        for i in 0..3 {
            for j in (i + 1)..3 {
                let w = edge_weight(&g.vertices[i], &g.vertices[j], &rates);
                g.set_edge(i, j, w);
            }
        }
        let ng = simple_ng();
        // q1 -> target0, q2 -> target1, anchor -> anchor(index 2).
        let mapping = vec![0, 1, 2];
        // Edges: q1-q2 overlap 1 × d(0,1)=10; q1-anchor 1 × d(0,2)=1;
        // q2-anchor 1 × d(1,2)=11.
        assert!((wec(&g, &ng, &mapping) - (10.0 + 1.0 + 11.0)).abs() < 1e-9);
        assert_eq!(target_loads(&g, &ng, &mapping), vec![2.0, 3.0]);
        // Co-locating both queries on target 0 removes the overlap cut.
        let together = vec![0, 0, 2];
        assert!((wec(&g, &ng, &together) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = QueryGraph::new(vec![QgVertex::for_net(NodeId(0), InterestSet::new(1))]);
        g.set_edge(0, 0, 1.0);
    }
}

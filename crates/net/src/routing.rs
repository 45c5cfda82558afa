//! Shortest-path routing and multicast-tree cost accounting.
//!
//! Communication cost in the paper is `Σ r(ni,nj) · d(ni,nj)` over links
//! (§3.1.1), where the Pub/Sub guarantees each message crosses each link at
//! most once. We model Pub/Sub delivery as routing along shortest paths from
//! the source with shared prefixes merged — i.e. the *union* of the
//! root-to-destination paths in the source's shortest-path tree. The cost of
//! delivering a stream of rate `r` to a destination set `D` is then
//! `r × Σ_{e ∈ union of paths} latency(e)`.

use crate::graph::{NodeId, Topology};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; ties broken by node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// A shortest-path tree rooted at one node, with distances and parents.
///
/// # Examples
///
/// ```
/// use cosmos_net::{Topology, NodeId, ShortestPathTree};
///
/// let mut t = Topology::new(3);
/// t.add_edge(NodeId(0), NodeId(1), 1.0);
/// t.add_edge(NodeId(1), NodeId(2), 2.0);
/// let spt = ShortestPathTree::compute(&t, NodeId(0));
/// assert_eq!(spt.distance(NodeId(2)), Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    root: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<NodeId>>,
    /// Latency of the edge to the parent (aligned with `parent`).
    parent_latency: Vec<f64>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `root` over the whole topology.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn compute(topo: &Topology, root: NodeId) -> Self {
        let n = topo.node_count();
        assert!(root.index() < n, "root {root} out of range");
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut parent_latency = vec![0.0; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[root.index()] = 0.0;
        heap.push(HeapEntry { dist: 0.0, node: root });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            for (v, w) in topo.neighbors(u) {
                let nd = d + w;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    parent[v.index()] = Some(u);
                    parent_latency[v.index()] = w;
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        Self { root, dist, parent, parent_latency }
    }

    /// The root of this tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Shortest-path distance from the root to `node`, or `None` when
    /// unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = *self.dist.get(node.index())?;
        d.is_finite().then_some(d)
    }

    /// The parent of `node` in the tree (`None` for the root / unreachable).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        *self.parent.get(node.index())?
    }

    /// The tree link above `node`: its parent and that link's latency
    /// (`None` for the root / unreachable).
    pub fn uplink(&self, node: NodeId) -> Option<(NodeId, f64)> {
        Some((self.parent(node)?, self.parent_latency[node.index()]))
    }

    /// The full path from the root to `node` (inclusive), or `None` when
    /// unreachable.
    pub fn path_to(&self, node: NodeId) -> Option<Vec<NodeId>> {
        self.distance(node)?;
        let mut rev = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        Some(rev)
    }

    /// Path provenance: every node whose root path traverses tree edge
    /// `{a, b}` — the subtree hanging below the edge. Returns `None` when
    /// `{a, b}` is not a tree edge (no path uses it, so removing that
    /// link from the topology leaves this tree exact).
    ///
    /// This is what lets a broker network re-route *only* the
    /// subscriptions whose installed paths crossed a failed link, instead
    /// of re-propagating the whole population.
    pub fn nodes_via_edge(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let child = if self.parent(b) == Some(a) {
            b
        } else if self.parent(a) == Some(b) {
            a
        } else {
            return None;
        };
        // Memoized parent-chain walk: 1 = below the edge, 2 = not.
        let mut mark = vec![0u8; self.parent.len()];
        mark[child.index()] = 1;
        let mut below = vec![child];
        let mut chain = Vec::new();
        for i in 0..self.parent.len() {
            let node = NodeId(i as u32);
            if mark[i] != 0 || self.distance(node).is_none() {
                continue;
            }
            chain.clear();
            let mut cur = node;
            let verdict = loop {
                match mark[cur.index()] {
                    0 => {}
                    m => break m,
                }
                chain.push(cur);
                match self.parent(cur) {
                    Some(p) => cur = p,
                    None => break 2, // reached the root without crossing
                }
            };
            for &n in &chain {
                mark[n.index()] = verdict;
                if verdict == 1 {
                    below.push(n);
                }
            }
        }
        below.sort_unstable();
        Some(below)
    }

    /// Total latency of the multicast tree spanning the root and `dests`:
    /// the union of root-to-destination tree paths, each edge counted once.
    ///
    /// Unreachable destinations are skipped (they contribute nothing). A
    /// stream of rate `r` delivered to `dests` costs `r *
    /// multicast_tree_latency(dests)` — the Pub/Sub sharing model.
    pub fn multicast_tree_latency(&self, dests: &[NodeId]) -> f64 {
        let mut scratch = MulticastScratch::new(self.dist.len());
        self.multicast_tree_latency_with(dests, &mut scratch)
    }

    /// As [`Self::multicast_tree_latency`] but reusing a scratch buffer —
    /// the experiment driver calls this once per substream per evaluation.
    pub fn multicast_tree_latency_with(
        &self,
        dests: &[NodeId],
        scratch: &mut MulticastScratch,
    ) -> f64 {
        scratch.begin(self.dist.len());
        let mut total = 0.0;
        for &d in dests {
            if self.distance(d).is_none() {
                continue;
            }
            let mut cur = d;
            while cur != self.root && !scratch.visit(cur) {
                total += self.parent_latency[cur.index()];
                cur = self.parent(cur).expect("non-root tree node must have a parent");
            }
        }
        total
    }
}

/// Reusable visited-marking buffer for multicast cost computation.
#[derive(Debug, Default)]
pub struct MulticastScratch {
    epoch: u32,
    marks: Vec<u32>,
}

impl MulticastScratch {
    /// Creates a scratch buffer sized for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { epoch: 0, marks: vec![0; n] }
    }

    fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `node`, returning `true` if it was already marked this epoch.
    fn visit(&mut self, node: NodeId) -> bool {
        let slot = &mut self.marks[node.index()];
        let seen = *slot == self.epoch;
        *slot = self.epoch;
        seen
    }
}

/// A bundle of shortest-path trees from a set of roots (e.g. every data
/// source), with an endpoint-to-endpoint distance lookup.
#[derive(Debug, Clone)]
pub struct SptForest {
    trees: Vec<ShortestPathTree>,
    root_index: Vec<Option<usize>>,
}

impl SptForest {
    /// Computes one tree per root.
    pub fn compute(topo: &Topology, roots: &[NodeId]) -> Self {
        let mut root_index = vec![None; topo.node_count()];
        let trees: Vec<ShortestPathTree> = roots
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                root_index[r.index()] = Some(i);
                ShortestPathTree::compute(topo, r)
            })
            .collect();
        Self { trees, root_index }
    }

    /// The tree rooted at `root`, if `root` was one of the requested roots.
    pub fn tree(&self, root: NodeId) -> Option<&ShortestPathTree> {
        let i = (*self.root_index.get(root.index())?)?;
        Some(&self.trees[i])
    }

    /// Iterates over all trees.
    pub fn iter(&self) -> impl Iterator<Item = &ShortestPathTree> {
        self.trees.iter()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Returns `true` if no trees were computed.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// Dense symmetric distance matrix between a subset of *endpoint* nodes.
///
/// The query-distribution optimizer needs `d(ni, nj)` between processors and
/// sources (for WEC evaluation and coordinator clustering), not between all
/// 4096 physical nodes. This stores only the endpoint rows.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    endpoints: Vec<NodeId>,
    /// Position of each topology node in `endpoints`, or `None`.
    position: Vec<Option<usize>>,
    /// Row-major `endpoints.len() × endpoints.len()` distances.
    dist: Vec<f64>,
}

impl DistanceMatrix {
    /// Runs one Dijkstra per endpoint and keeps endpoint-to-endpoint rows.
    pub fn compute(topo: &Topology, endpoints: &[NodeId]) -> Self {
        let trees = endpoints.iter().map(|&e| Cow::Owned(ShortestPathTree::compute(topo, e)));
        Self::from_trees(topo.node_count(), endpoints, trees)
    }

    /// Reads the rows off `trees`, one per endpoint in row order, each
    /// needed only while its row is filled.
    pub(crate) fn from_trees<'t>(
        node_count: usize,
        endpoints: &[NodeId],
        trees: impl Iterator<Item = Cow<'t, ShortestPathTree>>,
    ) -> Self {
        let m = endpoints.len();
        let mut position = vec![None; node_count];
        for (i, &e) in endpoints.iter().enumerate() {
            position[e.index()] = Some(i);
        }
        let mut dist = vec![f64::INFINITY; m * m];
        for (i, spt) in trees.enumerate() {
            assert_eq!(spt.root(), endpoints[i], "row {i} needs its endpoint's tree");
            for (j, &f) in endpoints.iter().enumerate() {
                dist[i * m + j] = spt.distance(f).unwrap_or(f64::INFINITY);
            }
        }
        Self { endpoints: endpoints.to_vec(), position, dist }
    }

    /// The endpoint list, in row order.
    pub fn endpoints(&self) -> &[NodeId] {
        &self.endpoints
    }

    /// Distance between endpoints `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is not an endpoint of this matrix.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let i = self.position[a.index()].unwrap_or_else(|| panic!("{a} is not an endpoint"));
        let j = self.position[b.index()].unwrap_or_else(|| panic!("{b} is not an endpoint"));
        self.dist[i * self.endpoints.len() + j]
    }

    /// Row/col index of an endpoint node, if present.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        *self.position.get(node.index())?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
        }
        t
    }

    #[test]
    fn dijkstra_on_line() {
        let t = line(5);
        let spt = ShortestPathTree::compute(&t, NodeId(0));
        for i in 0..5u32 {
            assert_eq!(spt.distance(NodeId(i)), Some(i as f64));
        }
        assert_eq!(
            spt.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn dijkstra_prefers_cheaper_detour() {
        // 0 -10- 1, 0 -1- 2 -1- 1 : detour wins
        let mut t = Topology::new(3);
        t.add_edge(NodeId(0), NodeId(1), 10.0);
        t.add_edge(NodeId(0), NodeId(2), 1.0);
        t.add_edge(NodeId(2), NodeId(1), 1.0);
        let spt = ShortestPathTree::compute(&t, NodeId(0));
        assert_eq!(spt.distance(NodeId(1)), Some(2.0));
        assert_eq!(spt.parent(NodeId(1)), Some(NodeId(2)));
    }

    #[test]
    fn nodes_via_edge_returns_the_subtree() {
        // 0 - 1 - 2 and 1 - 3: edge (1, 2)'s subtree is {2}; edge (0, 1)
        // carries everything but the root.
        let mut t = Topology::new(5);
        t.add_edge(NodeId(0), NodeId(1), 5.0);
        t.add_edge(NodeId(1), NodeId(2), 1.0);
        t.add_edge(NodeId(1), NodeId(3), 2.0);
        let spt = ShortestPathTree::compute(&t, NodeId(0));
        assert_eq!(spt.nodes_via_edge(NodeId(1), NodeId(2)), Some(vec![NodeId(2)]));
        assert_eq!(spt.nodes_via_edge(NodeId(2), NodeId(1)), Some(vec![NodeId(2)]));
        assert_eq!(
            spt.nodes_via_edge(NodeId(0), NodeId(1)),
            Some(vec![NodeId(1), NodeId(2), NodeId(3)])
        );
        // Unreachable node 4 never appears in any subtree.
        assert!(!spt.nodes_via_edge(NodeId(0), NodeId(1)).unwrap().contains(&NodeId(4)));
        // Not a tree edge (not even a graph edge): no path uses it.
        assert_eq!(spt.nodes_via_edge(NodeId(2), NodeId(3)), None);
    }

    #[test]
    fn nodes_via_edge_skips_non_tree_graph_edges() {
        // Ring 0-1-2-3-0: the tree from 0 reaches 2 via 1 (id tie-break),
        // so graph edge (2, 3) exists but carries no tree path.
        let mut t = Topology::new(4);
        for i in 0..4u32 {
            t.add_edge(NodeId(i), NodeId((i + 1) % 4), 1.0);
        }
        let spt = ShortestPathTree::compute(&t, NodeId(0));
        assert_eq!(spt.nodes_via_edge(NodeId(2), NodeId(3)), None);
        assert_eq!(spt.nodes_via_edge(NodeId(1), NodeId(2)), Some(vec![NodeId(2)]));
        assert_eq!(spt.nodes_via_edge(NodeId(0), NodeId(3)), Some(vec![NodeId(3)]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new(3);
        t.add_edge(NodeId(0), NodeId(1), 1.0);
        let spt = ShortestPathTree::compute(&t, NodeId(0));
        assert_eq!(spt.distance(NodeId(2)), None);
        assert_eq!(spt.path_to(NodeId(2)), None);
        // Multicast skips unreachable destinations.
        assert_eq!(spt.multicast_tree_latency(&[NodeId(2)]), 0.0);
    }

    #[test]
    fn multicast_shares_common_prefix() {
        // Star-of-paths: 0 - 1 - 2 and 1 - 3; sending to {2, 3} shares edge (0,1).
        let mut t = Topology::new(4);
        t.add_edge(NodeId(0), NodeId(1), 5.0);
        t.add_edge(NodeId(1), NodeId(2), 1.0);
        t.add_edge(NodeId(1), NodeId(3), 2.0);
        let spt = ShortestPathTree::compute(&t, NodeId(0));
        assert_eq!(spt.multicast_tree_latency(&[NodeId(2)]), 6.0);
        assert_eq!(spt.multicast_tree_latency(&[NodeId(3)]), 7.0);
        // Shared: 5 + 1 + 2 = 8, not 6 + 7 = 13.
        assert_eq!(spt.multicast_tree_latency(&[NodeId(2), NodeId(3)]), 8.0);
        // Duplicate destinations count once.
        assert_eq!(spt.multicast_tree_latency(&[NodeId(2), NodeId(2), NodeId(3)]), 8.0);
        // Root costs nothing.
        assert_eq!(spt.multicast_tree_latency(&[NodeId(0)]), 0.0);
    }

    #[test]
    fn distance_matrix_matches_tree_distances() {
        let t = line(6);
        let eps = [NodeId(0), NodeId(2), NodeId(5)];
        let m = DistanceMatrix::compute(&t, &eps);
        assert_eq!(m.distance(NodeId(0), NodeId(5)), 5.0);
        assert_eq!(m.distance(NodeId(2), NodeId(0)), 2.0);
        assert_eq!(m.distance(NodeId(2), NodeId(2)), 0.0);
        assert_eq!(m.index_of(NodeId(5)), Some(2));
        assert_eq!(m.index_of(NodeId(1)), None);
    }

    #[test]
    fn forest_lookup_by_root() {
        let t = line(4);
        let f = SptForest::compute(&t, &[NodeId(1), NodeId(3)]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.tree(NodeId(3)).unwrap().root(), NodeId(3));
        assert!(f.tree(NodeId(0)).is_none());
    }

    /// Random connected graph strategy: a spanning path plus random extras.
    fn arb_graph() -> impl Strategy<Value = (Topology, u64)> {
        (
            3usize..24,
            proptest::collection::vec((0usize..24, 0usize..24, 1u32..100), 0..40),
            0u64..1000,
        )
            .prop_map(|(n, extra, seed)| {
                let mut t = Topology::new(n);
                for i in 0..n - 1 {
                    let lat = 1.0 + ((i as u64 * 7 + seed) % 10) as f64;
                    t.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), lat);
                }
                for (a, b, w) in extra {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        t.add_edge(NodeId(a as u32), NodeId(b as u32), w as f64 / 10.0);
                    }
                }
                (t, seed)
            })
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality((t, _) in arb_graph()) {
            let ids: Vec<NodeId> = t.nodes().collect();
            let m = DistanceMatrix::compute(&t, &ids);
            for &a in ids.iter().take(6) {
                for &b in ids.iter().take(6) {
                    for &c in ids.iter().take(6) {
                        prop_assert!(
                            m.distance(a, c) <= m.distance(a, b) + m.distance(b, c) + 1e-9
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_distances_symmetric((t, _) in arb_graph()) {
            let ids: Vec<NodeId> = t.nodes().collect();
            let m = DistanceMatrix::compute(&t, &ids);
            for &a in &ids {
                for &b in &ids {
                    prop_assert!((m.distance(a, b) - m.distance(b, a)).abs() < 1e-9);
                }
            }
        }

        #[test]
        fn prop_multicast_bounded_by_sum_of_paths((t, _) in arb_graph()) {
            let spt = ShortestPathTree::compute(&t, NodeId(0));
            let dests: Vec<NodeId> = t.nodes().filter(|n| n.0 % 2 == 1).collect();
            let union = spt.multicast_tree_latency(&dests);
            let sum: f64 = dests.iter().filter_map(|&d| spt.distance(d)).sum();
            let max: f64 = dests
                .iter()
                .filter_map(|&d| spt.distance(d))
                .fold(0.0, f64::max);
            prop_assert!(union <= sum + 1e-9, "union {union} > sum {sum}");
            prop_assert!(union >= max - 1e-9, "union {union} < max path {max}");
        }
    }
}

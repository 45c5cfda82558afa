//! Undirected latency-weighted topology graph.

use std::fmt;

/// Identifier of a physical network node (router, processor, or source).
///
/// A plain index newtype: cheap to copy, `Display`s as `n<idx>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// An undirected graph with non-negative latency weights on edges.
///
/// Node identifiers are dense `0..node_count`. Parallel edges are collapsed
/// to the smaller latency at insertion time.
///
/// # Examples
///
/// ```
/// use cosmos_net::{Topology, NodeId};
///
/// let mut t = Topology::new(3);
/// t.add_edge(NodeId(0), NodeId(1), 5.0);
/// t.add_edge(NodeId(1), NodeId(2), 2.0);
/// assert_eq!(t.edge_count(), 2);
/// assert_eq!(t.neighbors(NodeId(1)).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// adjacency[u] = list of (v, latency)
    adjacency: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl Topology {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self { adjacency: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId)
    }

    /// Adds an undirected edge with the given latency. If the edge already
    /// exists, keeps the smaller latency (GT-ITM may propose duplicates when
    /// adding random extra edges).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, on a self-loop, or on a
    /// non-positive / non-finite latency.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, latency: f64) {
        assert!(u.index() < self.node_count(), "node {u} out of range");
        assert!(v.index() < self.node_count(), "node {v} out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(latency.is_finite() && latency > 0.0, "latency must be positive and finite");
        if let Some(slot) = self.adjacency[u.index()].iter_mut().find(|(n, _)| *n == v) {
            slot.1 = slot.1.min(latency);
            let back = self.adjacency[v.index()]
                .iter_mut()
                .find(|(n, _)| *n == u)
                .expect("asymmetric adjacency");
            back.1 = back.1.min(latency);
            return;
        }
        self.adjacency[u.index()].push((v, latency));
        self.adjacency[v.index()].push((u, latency));
        self.edge_count += 1;
    }

    /// Removes the undirected edge `{u, v}`. Returns `false` when the edge
    /// does not exist (out-of-range endpoints included). Used by the broker
    /// network's link-failure handling; experiment topologies themselves
    /// never shrink.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(adj) = self.adjacency.get_mut(u.index()) else { return false };
        let Some(at) = adj.iter().position(|(n, _)| *n == v) else { return false };
        adj.swap_remove(at);
        let back = &mut self.adjacency[v.index()];
        let at = back.iter().position(|(n, _)| *n == u).expect("asymmetric adjacency");
        back.swap_remove(at);
        self.edge_count -= 1;
        true
    }

    /// Detaches node `u` from the graph: removes every incident edge and
    /// returns the former `(neighbor, latency)` pairs, sorted by neighbor id
    /// so callers can replay them deterministically. The node slot itself
    /// persists (ids stay dense); a detached node is simply isolated, which
    /// is how the broker network models a crashed broker. Returns an empty
    /// vector when `u` is out of range or already isolated.
    pub fn remove_node(&mut self, u: NodeId) -> Vec<(NodeId, f64)> {
        let Some(adj) = self.adjacency.get_mut(u.index()) else { return Vec::new() };
        let mut edges = std::mem::take(adj);
        edges.sort_by_key(|(n, _)| *n);
        for &(v, _) in &edges {
            let back = &mut self.adjacency[v.index()];
            let at = back.iter().position(|(n, _)| *n == u).expect("asymmetric adjacency");
            back.swap_remove(at);
        }
        self.edge_count -= edges.len();
        edges
    }

    /// Returns `true` if `u` and `v` are directly connected.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency.get(u.index()).is_some_and(|adj| adj.iter().any(|(n, _)| *n == v))
    }

    /// Latency of the direct edge between `u` and `v`, if present.
    pub fn edge_latency(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.adjacency.get(u.index())?.iter().find(|(n, _)| *n == v).map(|(_, l)| *l)
    }

    /// Iterates over `(neighbor, latency)` pairs of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adjacency[u.index()].iter().copied()
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency[u.index()].len()
    }

    /// Returns `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    visited += 1;
                    stack.push(v);
                }
            }
        }
        visited == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let t = Topology::new(0);
        assert_eq!(t.node_count(), 0);
        assert!(t.is_connected());
    }

    #[test]
    fn add_and_query_edges() {
        let mut t = Topology::new(4);
        t.add_edge(NodeId(0), NodeId(1), 3.0);
        t.add_edge(NodeId(2), NodeId(3), 1.0);
        assert!(t.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(t.edge_latency(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(t.edge_latency(NodeId(0), NodeId(2)), None);
        assert!(!t.is_connected());
        t.add_edge(NodeId(1), NodeId(2), 9.0);
        assert!(t.is_connected());
        assert_eq!(t.edge_count(), 3);
    }

    #[test]
    fn duplicate_edge_keeps_min_latency() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(0), NodeId(1), 5.0);
        t.add_edge(NodeId(0), NodeId(1), 3.0);
        t.add_edge(NodeId(1), NodeId(0), 7.0);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.edge_latency(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(t.edge_latency(NodeId(1), NodeId(0)), Some(3.0));
    }

    #[test]
    fn remove_edge_round_trips() {
        let mut t = Topology::new(3);
        t.add_edge(NodeId(0), NodeId(1), 3.0);
        t.add_edge(NodeId(1), NodeId(2), 1.0);
        assert!(t.remove_edge(NodeId(1), NodeId(0)));
        assert_eq!(t.edge_count(), 1);
        assert!(!t.has_edge(NodeId(0), NodeId(1)));
        assert!(t.has_edge(NodeId(1), NodeId(2)));
        // Already gone / never existed / out of range: false, no change.
        assert!(!t.remove_edge(NodeId(0), NodeId(1)));
        assert!(!t.remove_edge(NodeId(0), NodeId(2)));
        assert!(!t.remove_edge(NodeId(7), NodeId(0)));
        t.add_edge(NodeId(0), NodeId(1), 3.0);
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn remove_node_detaches_and_round_trips() {
        let mut t = Topology::new(4);
        t.add_edge(NodeId(0), NodeId(1), 3.0);
        t.add_edge(NodeId(1), NodeId(2), 1.0);
        t.add_edge(NodeId(1), NodeId(3), 2.0);
        t.add_edge(NodeId(2), NodeId(3), 4.0);
        let edges = t.remove_node(NodeId(1));
        assert_eq!(edges, vec![(NodeId(0), 3.0), (NodeId(2), 1.0), (NodeId(3), 2.0)]);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.degree(NodeId(1)), 0);
        assert!(!t.has_edge(NodeId(0), NodeId(1)));
        assert!(t.has_edge(NodeId(2), NodeId(3)));
        // Node count unchanged: the slot persists, just isolated.
        assert_eq!(t.node_count(), 4);
        // Idempotent on an isolated / out-of-range node.
        assert!(t.remove_node(NodeId(1)).is_empty());
        assert!(t.remove_node(NodeId(9)).is_empty());
        // Replaying the returned edges restores the original graph.
        for (v, lat) in edges {
            t.add_edge(NodeId(1), v, lat);
        }
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.edge_latency(NodeId(1), NodeId(2)), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(1), NodeId(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_latency_panics() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(0), NodeId(1), 0.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}

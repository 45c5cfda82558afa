//! Role assignment: which physical nodes are data sources, which are stream
//! processors, and which merely route.
//!
//! §4.1: "Among these nodes, 100 nodes are chosen as the data stream sources,
//! and 256 nodes are selected as the stream processors, and the remaining
//! nodes act as the routers." Sources and processors are always stub nodes
//! (GT-ITM semantics: end systems live in stubs; transit nodes are carriers).

use crate::graph::{NodeId, Topology};
use crate::routing::{DistanceMatrix, ShortestPathTree, SptForest};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;

/// The role a physical node plays in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Origin of one or more source streams (has no processing capability —
    /// paper Figure 5(a) gives sources capability 0).
    Source,
    /// A stream processor that can host queries.
    Processor,
    /// Pure packet forwarder.
    Router,
}

/// A topology together with role assignments and precomputed routing state.
///
/// Owns:
/// - a shortest-path tree per source (for Pub/Sub multicast cost),
/// - an endpoint distance matrix over sources ∪ processors (for WEC,
///   result-stream unicast cost and coordinator clustering).
#[derive(Debug, Clone)]
pub struct Deployment {
    topology: Topology,
    sources: Vec<NodeId>,
    processors: Vec<NodeId>,
    roles: Vec<Role>,
    source_trees: SptForest,
    distances: DistanceMatrix,
}

impl Deployment {
    /// Picks `n_sources` sources and `n_processors` processors uniformly at
    /// random among nodes of degree ≥ 1, preferring high node ids (stub
    /// nodes, in transit-stub numbering) for end systems.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than `n_sources + n_processors`
    /// nodes.
    pub fn assign(topology: Topology, n_sources: usize, n_processors: usize, seed: u64) -> Self {
        let n = topology.node_count();
        assert!(
            n >= n_sources + n_processors,
            "topology has {n} nodes; need {} end systems",
            n_sources + n_processors
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Prefer the stub region (upper ids) for end systems when possible;
        // this mirrors GT-ITM, where hosts live in stub domains.
        let mut candidates: Vec<NodeId> = topology.nodes().collect();
        let needed = n_sources + n_processors;
        if candidates.len() > needed * 2 {
            let skip = candidates.len() - candidates.len() * 3 / 4;
            candidates.drain(0..skip.min(candidates.len() - needed));
        }
        candidates.shuffle(&mut rng);
        let sources: Vec<NodeId> = candidates[..n_sources].to_vec();
        let processors: Vec<NodeId> = candidates[n_sources..n_sources + n_processors].to_vec();
        Self::with_roles(topology, sources, processors)
    }

    /// Builds a deployment from explicit role lists.
    ///
    /// # Panics
    ///
    /// Panics if a node appears in both lists or is out of range.
    pub fn with_roles(topology: Topology, sources: Vec<NodeId>, processors: Vec<NodeId>) -> Self {
        let n = topology.node_count();
        let mut roles = vec![Role::Router; n];
        for &s in &sources {
            assert!(s.index() < n, "source {s} out of range");
            roles[s.index()] = Role::Source;
        }
        for &p in &processors {
            assert!(p.index() < n, "processor {p} out of range");
            assert!(roles[p.index()] != Role::Source, "{p} cannot be both source and processor");
            roles[p.index()] = Role::Processor;
        }
        // One Dijkstra per endpoint: the sources' trees are kept and lend
        // their matrix rows, a processor's tree lives for its row alone.
        let source_trees = SptForest::compute(&topology, &sources);
        let endpoints: Vec<NodeId> = sources.iter().chain(processors.iter()).copied().collect();
        let per_processor =
            processors.iter().map(|&p| Cow::Owned(ShortestPathTree::compute(&topology, p)));
        let trees = source_trees.iter().map(Cow::Borrowed).chain(per_processor);
        let distances = DistanceMatrix::from_trees(n, &endpoints, trees);
        Self { topology, sources, processors, roles, source_trees, distances }
    }

    /// The underlying physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Source node ids, in assignment order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Processor node ids, in assignment order.
    pub fn processors(&self) -> &[NodeId] {
        &self.processors
    }

    /// The role of `node`.
    pub fn role(&self, node: NodeId) -> Role {
        self.roles[node.index()]
    }

    /// Shortest-path tree rooted at a source (for source-stream multicast).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a source node.
    pub fn source_tree(&self, source: NodeId) -> &ShortestPathTree {
        self.source_trees.tree(source).unwrap_or_else(|| panic!("{source} is not a source"))
    }

    /// Endpoint-to-endpoint latency (`d(ni, nj)` in the paper), defined for
    /// sources and processors.
    ///
    /// # Panics
    ///
    /// Panics if either node is a router.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.distances.distance(a, b)
    }

    /// The distance matrix over sources ∪ processors.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transit_stub::TransitStubConfig;

    fn small_deployment(seed: u64) -> Deployment {
        let topo = TransitStubConfig::small().generate(seed);
        Deployment::assign(topo, 4, 8, seed)
    }

    #[test]
    fn roles_are_disjoint_and_counted() {
        let dep = small_deployment(1);
        assert_eq!(dep.sources().len(), 4);
        assert_eq!(dep.processors().len(), 8);
        for &s in dep.sources() {
            assert_eq!(dep.role(s), Role::Source);
        }
        for &p in dep.processors() {
            assert_eq!(dep.role(p), Role::Processor);
        }
        let end_systems = dep.sources().len() + dep.processors().len();
        let routers = dep.topology().nodes().filter(|&n| dep.role(n) == Role::Router).count();
        assert_eq!(routers + end_systems, dep.topology().node_count());
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let dep = small_deployment(2);
        let s = dep.sources()[0];
        let p = dep.processors()[0];
        assert!((dep.distance(s, p) - dep.distance(p, s)).abs() < 1e-9);
        assert_eq!(dep.distance(p, p), 0.0);
    }

    #[test]
    fn trees_exist_for_all_end_systems() {
        let dep = small_deployment(3);
        for &s in dep.sources() {
            assert_eq!(dep.source_tree(s).root(), s);
        }
    }

    /// The matrix rows come off the source forest and off processor trees
    /// dropped row by row: every entry is still, to the bit, the distance
    /// in its endpoint's own tree.
    #[test]
    fn every_distance_is_its_endpoints_tree_distance() {
        for seed in [3, 11] {
            let dep = small_deployment(seed);
            let endpoints: Vec<NodeId> =
                dep.sources().iter().chain(dep.processors()).copied().collect();
            assert_eq!(dep.distances().endpoints(), endpoints);
            for &a in &endpoints {
                let tree = ShortestPathTree::compute(dep.topology(), a);
                for &b in &endpoints {
                    let expect = tree.distance(b).unwrap_or(f64::INFINITY);
                    assert_eq!(dep.distance(a, b).to_bits(), expect.to_bits(), "d({a}, {b})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a source")]
    fn processor_is_not_a_source() {
        let dep = small_deployment(4);
        let p = dep.processors()[0];
        let _ = dep.source_tree(p);
    }

    #[test]
    fn assignment_is_deterministic() {
        let a = small_deployment(9);
        let b = small_deployment(9);
        assert_eq!(a.sources(), b.sources());
        assert_eq!(a.processors(), b.processors());
    }

    #[test]
    #[should_panic(expected = "need")]
    fn too_many_end_systems_panics() {
        let topo = Topology::new(3);
        let _ = Deployment::assign(topo, 2, 2, 0);
    }

    #[test]
    fn explicit_roles_respected() {
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(2), NodeId(3), 1.0);
        let dep = Deployment::with_roles(topo, vec![NodeId(0)], vec![NodeId(2), NodeId(3)]);
        assert_eq!(dep.role(NodeId(0)), Role::Source);
        assert_eq!(dep.role(NodeId(1)), Role::Router);
        assert_eq!(dep.distance(NodeId(0), NodeId(3)), 3.0);
    }
}

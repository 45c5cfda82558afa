//! Online insertion of new queries (§3.6).
//!
//! "A new query is first routed to the root coordinator which then routes
//! it to one of its children. The routing is done level by level until the
//! query is assigned to a processor. At each coordinator, the query is
//! added to the query graph and the weights of the new edges are estimated.
//! Then the new vertex is mapped to a vertex in the network graph such that
//! the resulting WEC is minimized."
//!
//! The edge-weight estimation at each coordinator uses per-child *aggregate*
//! state (union interest + total load): the coarse-grained information the
//! paper credits for the root's scalability to ">800,000 queries per
//! second". Smaller `k` means fewer children per coordinator and therefore
//! higher per-coordinator throughput — at the price of more levels and more
//! coarsening (Figure 9's trade-off).

use crate::distribute::ALPHA;
use crate::hierarchy::CoordinatorTree;
use crate::mapping::pick_target;
use crate::spec::{Assignment, QuerySpec};
use cosmos_net::{Deployment, NodeId};
use cosmos_pubsub::SubstreamTable;
use cosmos_util::InterestSet;

/// Maximum interest clusters tracked per child (the online analogue of the
/// coarse q-vertices the paper adds new queries to — a single union
/// interest per child saturates and stops discriminating between children).
const MAX_CLUSTERS: usize = 32;

/// Per-coordinator routing state for online insertion.
#[derive(Debug, Clone)]
struct CoordState {
    /// Bounded set of interest clusters per child.
    child_clusters: Vec<Vec<InterestSet>>,
    /// Union interest per child — what the child's subtree already
    /// subscribes to. Substreams in this union are *free* for a new query
    /// placed there (the Pub/Sub already delivers them), so routing charges
    /// only the residual interest.
    child_union: Vec<InterestSet>,
    /// Total load per child.
    child_load: Vec<f64>,
}

impl CoordState {
    /// Folds a query's interest into the closest cluster of `child` (or a
    /// new cluster while capacity lasts).
    fn absorb(&mut self, child: usize, interest: &InterestSet, rates: &[f64]) {
        let clusters = &mut self.child_clusters[child];
        let best = clusters
            .iter()
            .enumerate()
            .map(|(c, cl)| (c, interest.weighted_overlap(cl, rates)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        match best {
            Some((c, w)) if w > 0.0 || clusters.len() >= MAX_CLUSTERS => {
                clusters[c].union_with(interest);
            }
            _ if clusters.len() < MAX_CLUSTERS => clusters.push(interest.clone()),
            _ => clusters[0].union_with(interest),
        }
    }

    /// The strongest cluster affinity of `interest` within `child`.
    fn affinity(&self, child: usize, interest: &InterestSet, rates: &[f64]) -> f64 {
        self.child_clusters[child]
            .iter()
            .map(|cl| interest.weighted_overlap(cl, rates))
            .fold(0.0, f64::max)
    }
}

/// Routes newly arriving queries down the coordinator tree.
///
/// # Examples
///
/// ```
/// use cosmos_core::online::OnlineRouter;
/// use cosmos_core::hierarchy::CoordinatorTree;
/// use cosmos_core::spec::QuerySpec;
/// use cosmos_net::{Deployment, TransitStubConfig};
/// use cosmos_pubsub::SubstreamTable;
/// use cosmos_query::QueryId;
/// use cosmos_util::InterestSet;
///
/// let topo = TransitStubConfig::small().generate(1);
/// let dep = Deployment::assign(topo, 3, 6, 1);
/// let tree = CoordinatorTree::build(&dep, 2);
/// let table = SubstreamTable::random(100, 3, 1.0, 10.0, 1);
/// let mut router = OnlineRouter::new(&dep, &tree, &table);
/// let q = QuerySpec {
///     id: QueryId(1),
///     interest: InterestSet::from_indices(100, [5usize, 6]),
///     load: 1.0,
///     proxy: dep.processors()[0],
///     result_rate: 0.5,
///     state_size: 1.0,
/// };
/// let processor = router.insert(&q);
/// assert!(dep.processors().contains(&processor));
/// ```
#[derive(Debug)]
pub struct OnlineRouter<'a> {
    dep: &'a Deployment,
    tree: &'a CoordinatorTree,
    table: &'a SubstreamTable,
    states: Vec<CoordState>,
    total_load: f64,
}

impl<'a> OnlineRouter<'a> {
    /// Creates a router with empty aggregates; each level holds its
    /// children to eqn 3.1 under [`ALPHA`].
    pub fn new(dep: &'a Deployment, tree: &'a CoordinatorTree, table: &'a SubstreamTable) -> Self {
        let universe = table.len();
        let states = (0..tree.len())
            .map(|i| {
                let n = tree.node(i).children.len();
                CoordState {
                    child_clusters: vec![Vec::new(); n],
                    child_union: vec![InterestSet::new(universe); n],
                    child_load: vec![0.0; n],
                }
            })
            .collect();
        Self { dep, tree, table, states, total_load: 0.0 }
    }

    /// Seeds aggregates from an existing assignment (used when online
    /// insertion follows an initial distribution).
    pub fn seed_from(&mut self, specs: &[QuerySpec], assignment: &Assignment) {
        for spec in specs {
            let Some(proc) = assignment.processor_of(spec.id) else {
                continue;
            };
            self.account(spec, proc);
        }
    }

    /// Total load currently accounted.
    pub fn total_load(&self) -> f64 {
        self.total_load
    }

    /// Adds `spec`'s aggregates along the path from the root to `proc`.
    fn account(&mut self, spec: &QuerySpec, proc: NodeId) {
        self.total_load += spec.load;
        let mut coord = self.tree.root();
        loop {
            let node = self.tree.node(coord);
            if node.children.is_empty() {
                break;
            }
            let pos = self
                .tree
                .covering_child(coord, proc)
                .expect("processor must be covered by the root");
            let state = &mut self.states[coord];
            state.absorb(pos, &spec.interest, self.table.rates());
            state.child_union[pos].union_with(&spec.interest);
            state.child_load[pos] += spec.load;
            coord = node.children[pos];
        }
    }

    /// Routing decision at a single coordinator: the child minimizing the
    /// estimated WEC increase, subject to the load constraint. Exposed so
    /// benchmarks can time the *root* decision in isolation (Figure 9(b)).
    pub fn route_at(&self, coord: usize, spec: &QuerySpec) -> usize {
        let node = self.tree.node(coord);
        let state = &self.states[coord];
        let n = node.children.len();
        assert!(n > 0, "route_at called on a leaf");
        let rates = self.table.rates();
        // Affinity with each child's strongest interest cluster.
        let overlaps: Vec<f64> = (0..n).map(|i| state.affinity(i, &spec.interest, rates)).collect();

        let total_cap: f64 = node.children.iter().map(|&c| self.tree.node(c).capability).sum();
        // Load constraint against this subtree's share of the total.
        let subtree_load: f64 = node.children.iter().map(|&c| self.subtree_load(c)).sum();
        let share = (self.total_load + spec.load).min(subtree_load + spec.load); // local view
        let limit = |&c: &usize| {
            (1.0 + ALPHA) * self.tree.node(c).capability * share / total_cap.max(1e-12)
        };
        let limits: Vec<f64> = node.children.iter().map(limit).collect();
        pick_target(&state.child_load, &limits, spec.load, |i| {
            let rep = self.tree.node(node.children[i]).representative;
            // WEC delta: *marginal* source edges (substreams the child's
            // subtree already receives are free under the Pub/Sub) + proxy
            // edge + overlap edges to the other children's aggregates.
            let mut cost = 0.0;
            for s in spec.interest.iter() {
                if !state.child_union[i].contains(s) {
                    let src = self.dep.sources()[self.table.source_index(s)];
                    cost += rates[s] * self.dep.distance(rep, src);
                }
            }
            cost += spec.result_rate * self.dep.distance(rep, spec.proxy);
            for (j, &ov) in overlaps.iter().enumerate() {
                if j != i && ov > 0.0 {
                    let other = self.tree.node(node.children[j]).representative;
                    cost += ov * self.dep.distance(rep, other);
                }
            }
            cost
        })
    }

    fn subtree_load(&self, coord: usize) -> f64 {
        let node = self.tree.node(coord);
        if node.children.is_empty() {
            // Leaf (processor) loads are tracked at the parent.
            match node.parent {
                Some(p) => {
                    let pos = self.tree.node(p).children.iter().position(|&c| c == coord);
                    pos.map(|i| self.states[p].child_load[i]).unwrap_or(0.0)
                }
                None => 0.0,
            }
        } else {
            self.states[coord].child_load.iter().sum()
        }
    }

    /// Inserts a new query: routes it level by level from the root to a
    /// processor, updating aggregates, and returns the chosen processor.
    pub fn insert(&mut self, spec: &QuerySpec) -> NodeId {
        let mut coord = self.tree.root();
        loop {
            let node = self.tree.node(coord);
            if node.children.is_empty() {
                let proc = node.representative;
                self.account(spec, proc);
                return proc;
            }
            let pos = self.route_at(coord, spec);
            coord = node.children[pos];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_net::TransitStubConfig;
    use cosmos_query::QueryId;
    use cosmos_util::rng::rng_for;
    use rand::Rng;

    const U: usize = 120;

    fn fixture(seed: u64) -> (Deployment, SubstreamTable) {
        let topo = TransitStubConfig::small().generate(seed);
        let dep = Deployment::assign(topo, 4, 8, seed);
        let table = SubstreamTable::random(U, 4, 1.0, 10.0, seed);
        (dep, table)
    }

    fn spec(id: u64, bits: &[usize], load: f64, proxy: NodeId) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            interest: InterestSet::from_indices(U, bits.iter().copied()),
            load,
            proxy,
            result_rate: 0.5,
            state_size: 1.0,
        }
    }

    #[test]
    fn insert_lands_on_a_processor() {
        let (dep, table) = fixture(1);
        let tree = CoordinatorTree::build(&dep, 2);
        let mut router = OnlineRouter::new(&dep, &tree, &table);
        for i in 0..30 {
            let q = spec(i, &[(i as usize) % U, (i as usize * 3) % U], 1.0, dep.processors()[0]);
            let p = router.insert(&q);
            assert!(dep.processors().contains(&p));
        }
        assert!((router.total_load() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn similar_queries_cluster_together() {
        let (dep, table) = fixture(2);
        let tree = CoordinatorTree::build(&dep, 2);
        let mut router = OnlineRouter::new(&dep, &tree, &table);
        // Insert a batch of zero-load queries with identical interest:
        // overlap edges should pull them to the same processor (zero load
        // keeps eqn 3.1 from forcing a spread).
        let mut homes = std::collections::HashSet::new();
        for i in 0..4 {
            let q = spec(i, &[5, 6, 7, 8], 0.0, dep.processors()[3]);
            homes.insert(router.insert(&q));
        }
        assert_eq!(homes.len(), 1, "identical queries should co-locate: {homes:?}");
    }

    #[test]
    fn load_spreads_when_capacity_exceeded() {
        let (dep, table) = fixture(3);
        let tree = CoordinatorTree::build(&dep, 2);
        let mut router = OnlineRouter::new(&dep, &tree, &table);
        let mut rng = rng_for(3, "spread");
        let mut per_proc: std::collections::HashMap<NodeId, f64> = Default::default();
        for i in 0..200 {
            let bits = [rng.gen_range(0..U), rng.gen_range(0..U)];
            let q = spec(i, &bits, 1.0, dep.processors()[rng.gen_range(0..8usize)]);
            let p = router.insert(&q);
            *per_proc.entry(p).or_insert(0.0) += 1.0;
        }
        // With 200 unit loads and 8 processors, nobody should be wildly
        // overloaded (limit is soft during online routing).
        let max = per_proc.values().cloned().fold(0.0, f64::max);
        assert!(max <= 80.0, "one processor hoards {max} of 200 queries");
        assert!(per_proc.len() >= 4, "queries landed on too few processors");
    }

    #[test]
    fn seeding_matches_manual_insertion() {
        let (dep, table) = fixture(4);
        let tree = CoordinatorTree::build(&dep, 2);
        let specs: Vec<QuerySpec> =
            (0..10).map(|i| spec(i, &[i as usize], 1.0, dep.processors()[0])).collect();
        let mut r1 = OnlineRouter::new(&dep, &tree, &table);
        let mut assignment = Assignment::new();
        for q in &specs {
            let p = r1.insert(q);
            assignment.place(q.id, p);
        }
        let mut r2 = OnlineRouter::new(&dep, &tree, &table);
        r2.seed_from(&specs, &assignment);
        assert!((r1.total_load() - r2.total_load()).abs() < 1e-9);
        // The next decision must coincide.
        let probe = spec(99, &[3, 4, 5], 1.0, dep.processors()[1]);
        assert_eq!(r1.route_at(tree.root(), &probe), r2.route_at(tree.root(), &probe));
    }

    #[test]
    fn proxy_pull_affects_placement() {
        let (dep, table) = fixture(5);
        let tree = CoordinatorTree::build(&dep, 2);
        let mut router = OnlineRouter::new(&dep, &tree, &table);
        // A query with huge result rate and no interest should sit at (or
        // very near) its proxy.
        let q = QuerySpec {
            id: QueryId(1),
            interest: InterestSet::new(U),
            load: 0.1,
            proxy: dep.processors()[5],
            result_rate: 1000.0,
            state_size: 1.0,
        };
        let p = router.insert(&q);
        // Hierarchical routing steers by cluster representatives, so the
        // exact nearest processor is not guaranteed — but the choice must
        // clearly beat the average (i.e. random placement).
        let d_proxy = dep.distance(p, dep.processors()[5]);
        let avg: f64 =
            dep.processors().iter().map(|&o| dep.distance(o, dep.processors()[5])).sum::<f64>()
                / dep.processors().len() as f64;
        assert!(d_proxy <= avg, "proxy pull too weak: placed {d_proxy} away, average is {avg}");
    }
}

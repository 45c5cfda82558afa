//! Rate-based communication-cost model for the large-scale experiments.
//!
//! The simulation study never pushes individual messages: with 20 000
//! substreams and 60 000 queries, the measured quantity is the *weighted
//! unit-time communication cost* `Σ r(ni,nj) · d(ni,nj)` (§3.1.1). This
//! module computes that sum for a given query distribution under Pub/Sub
//! semantics:
//!
//! - **Source-side**: each substream is multicast from its source to every
//!   processor hosting at least one interested query, along the source's
//!   shortest-path tree, each link charged once (the sharing a CBN buys).
//! - **Result-side**: each query's result stream is unicast from its
//!   processor to its proxy.
//!
//! The paper subtracts the (distribution-invariant) final hop from proxy to
//! local user; we follow by simply not charging it.

use cosmos_net::routing::{MulticastScratch, ShortestPathTree};
use cosmos_net::{Deployment, NodeId};
use cosmos_util::rng::rng_for;
use cosmos_util::{InterestSet, VecMap};
use rand::Rng;

/// Substream metadata: which source originates each substream and at what
/// rate (bytes/second).
///
/// §4.1: "All the streams are partitioned into 20,000 substreams and they
/// are randomly distributed to the sources. The arrival rate of each
/// substream is randomly chosen from 1 to 10 (bytes/seconds)."
#[derive(Debug, Clone)]
pub struct SubstreamTable {
    /// Index into the deployment's source list, per substream.
    source_index: Vec<usize>,
    /// Rate in bytes/second, per substream.
    rates: Vec<f64>,
}

impl SubstreamTable {
    /// Builds the paper's random substream table.
    ///
    /// # Panics
    ///
    /// Panics if `n_sources == 0` or `min_rate > max_rate`.
    pub fn random(
        n_substreams: usize,
        n_sources: usize,
        min_rate: f64,
        max_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(n_sources > 0, "need at least one source");
        assert!(min_rate <= max_rate, "rate range inverted");
        let mut rng = rng_for(seed, "substream-table");
        let source_index = (0..n_substreams).map(|_| rng.gen_range(0..n_sources)).collect();
        let rates = (0..n_substreams).map(|_| rng.gen_range(min_rate..=max_rate)).collect();
        Self { source_index, rates }
    }

    /// Builds a table from explicit assignments.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors' lengths differ.
    pub fn from_parts(source_index: Vec<usize>, rates: Vec<f64>) -> Self {
        assert_eq!(source_index.len(), rates.len(), "length mismatch");
        Self { source_index, rates }
    }

    /// Number of substreams.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Returns `true` when there are no substreams.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The source index of substream `s`.
    pub fn source_index(&self, s: usize) -> usize {
        self.source_index[s]
    }

    /// The rate of substream `s` in bytes/second.
    pub fn rate(&self, s: usize) -> f64 {
        self.rates[s]
    }

    /// All rates, indexed by substream (the table queries weigh interests
    /// against).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Scales the rate of substream `s` by `factor` (used by the
    /// rate-perturbation experiment, Figure 10).
    pub fn scale_rate(&mut self, s: usize, factor: f64) {
        self.rates[s] *= factor;
    }

    /// Overwrites the rate of substream `s`.
    pub fn set_rate(&mut self, s: usize, rate: f64) {
        self.rates[s] = rate;
    }
}

/// Computes weighted communication cost for query distributions.
#[derive(Debug)]
pub struct TrafficModel<'a> {
    dep: &'a Deployment,
    table: &'a SubstreamTable,
}

impl<'a> TrafficModel<'a> {
    /// Couples a deployment with a substream table.
    pub fn new(dep: &'a Deployment, table: &'a SubstreamTable) -> Self {
        Self { dep, table }
    }

    /// Cost of delivering every substream from its source to each processor
    /// that needs it.
    ///
    /// `interests[i]` is the union of the interests of all queries placed on
    /// processor `i` (in deployment processor order) — the merged
    /// subscription that processor inserts into the Pub/Sub.
    ///
    /// # Panics
    ///
    /// Panics if `interests.len()` differs from the processor count.
    pub fn source_delivery_cost(&self, interests: &[InterestSet]) -> f64 {
        let procs = self.dep.processors();
        assert_eq!(interests.len(), procs.len(), "one interest set per processor required");
        let n_sub = self.table.len();
        // Destination lists per substream.
        let mut dests: Vec<Vec<NodeId>> = vec![Vec::new(); n_sub];
        for (i, interest) in interests.iter().enumerate() {
            let node = procs[i];
            for s in interest.iter() {
                dests[s].push(node);
            }
        }
        let mut scratch = MulticastScratch::new(self.dep.topology().node_count());
        let mut total = 0.0;
        for (s, dest) in dests.iter().enumerate() {
            if dest.is_empty() {
                continue;
            }
            let tree = self.source_tree_of(s);
            total += self.table.rate(s) * tree.multicast_tree_latency_with(dest, &mut scratch);
        }
        total
    }

    /// The shortest-path tree substream `s` is multicast along.
    fn source_tree_of(&self, s: usize) -> &'a ShortestPathTree {
        self.dep.source_tree(self.dep.sources()[self.table.source_index(s)])
    }

    /// Cost of one result flow; a local one (processor == proxy) is free.
    fn result_flow_cost(&self, from: NodeId, to: NodeId, rate: f64) -> f64 {
        if from == to {
            0.0
        } else {
            rate * self.dep.distance(from, to)
        }
    }

    /// Cost of unicasting result streams: one `(processor, proxy, rate)`
    /// flow per query. Local flows (processor == proxy) cost nothing.
    pub fn result_unicast_cost<I>(&self, flows: I) -> f64
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        flows.into_iter().map(|(from, to, rate)| self.result_flow_cost(from, to, rate)).sum()
    }
}

/// What the model sees of one query: the substreams it reads and the result
/// stream it sends its proxy.
#[derive(Debug, Clone, Copy)]
pub struct QueryTraffic<'q> {
    /// Substreams read.
    pub interest: &'q InterestSet,
    /// Where the result stream goes.
    pub proxy: NodeId,
    /// Rate of the result stream.
    pub result_rate: f64,
}

/// The [`TrafficModel`] cost of a placement — [`source_delivery_cost`] plus
/// [`result_unicast_cost`] — held incrementally: a shared substream is
/// charged once per tree link, so what moving one query changes is a
/// function of the counters on two paths per substream it reads, not of
/// the placement.
///
/// [`source_delivery_cost`]: TrafficModel::source_delivery_cost
/// [`result_unicast_cost`]: TrafficModel::result_unicast_cost
#[derive(Debug)]
pub struct PlacementCost<'a> {
    model: TrafficModel<'a>,
    /// Queries reading substream `s` on the processor that is endpoint `e`
    /// of the deployment's distance matrix, at `e · S + s`.
    readers: Vec<u32>,
    /// Per substream, per node with the link above it carrying the
    /// substream: the node's readers (as one) plus its children in the
    /// source's tree whose links carry it. Holds the nodes that ever were on
    /// a reading processor's path — never substreams × nodes.
    carried: Vec<VecMap<NodeId, u32>>,
    total: f64,
}

impl<'a> PlacementCost<'a> {
    /// The cost of the empty placement.
    pub fn new(dep: &'a Deployment, table: &'a SubstreamTable) -> Self {
        let readers = vec![0; table.len() * dep.distances().endpoints().len()];
        let carried = vec![VecMap::new(); table.len()];
        Self { model: TrafficModel::new(dep, table), readers, carried, total: 0.0 }
    }

    /// The cost of everything [`Self::put`] and not [`Self::lift`]ed.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Places `q` on processor `at`; returns what that adds to the total.
    pub fn put(&mut self, q: &QueryTraffic, at: NodeId) -> f64 {
        self.shift(q, at, true)
    }

    /// Takes `q` off processor `at` (panics if it was not put there);
    /// returns what that saves. With `q` lifted, [`Self::price`] of any
    /// processor less this saving is the exact cost change of moving `q`
    /// there — the two halves of a move do not add up when the target hangs
    /// under a branch the lift freed.
    pub fn lift(&mut self, q: &QueryTraffic, at: NodeId) -> f64 {
        self.shift(q, at, false)
    }

    /// Where `readers` counts processor `at`'s substreams from.
    fn row(&self, at: NodeId) -> usize {
        let dep = self.model.dep;
        dep.distances().index_of(at).expect("a deployment endpoint") * self.model.table.len()
    }

    /// Steps the counters for `q` arriving at (`put`) or leaving `at`, and
    /// the total by the result flow plus the links that start or stop
    /// carrying a substream.
    fn shift(&mut self, q: &QueryTraffic, at: NodeId, put: bool) -> f64 {
        // Steps a count; true when that took it from 0 to 1 or back.
        let step = |n: &mut u32| {
            *n = if put { *n + 1 } else { n.checked_sub(1).expect("lifted where never put") };
            *n == u32::from(put)
        };
        let row = self.row(at);
        let mut cost = self.model.result_flow_cost(at, q.proxy, q.result_rate);
        for s in q.interest.iter() {
            if !step(&mut self.readers[row + s]) {
                continue; // neither the processor's first reader nor its last
            }
            // Up to the first link that carried the substream and still does.
            let carried = &mut self.carried[s];
            let span = climb(self.model.source_tree_of(s), at, |cur, _| {
                step(carried.get_or_insert_default(cur))
            });
            cost += self.model.table.rate(s) * span;
        }
        self.total += if put { cost } else { -cost };
        cost
    }

    /// What [`Self::lift`]ing every member off `at` would save, leaving
    /// the placement as it is: their result flows, and each substream of
    /// `alone` — the ones no query but a member reads there — over the
    /// links that carry it for `at` alone.
    pub fn saving(
        &self,
        members: &[QueryTraffic],
        at: NodeId,
        alone: impl IntoIterator<Item = usize>,
    ) -> f64 {
        let flows = members.iter().map(|q| self.model.result_flow_cost(at, q.proxy, q.result_rate));
        let mut saved: f64 = flows.sum();
        for s in alone {
            let carried = &self.carried[s];
            let span =
                climb(self.model.source_tree_of(s), at, |cur, _| carried.get(&cur) == Some(&1));
            saved += self.model.table.rate(s) * span;
        }
        saved
    }

    /// What [`Self::put`] of every member at `at` would add, or `None` once
    /// that is known to reach `cap`: each member's result flow, and each
    /// substream of `reads` — the union of their interests — once, over the
    /// links it would newly take, as readers on one processor share it. A
    /// single query is the one-member case. Every term only adds, so a
    /// partial sum is a lower bound; and with the members still put
    /// somewhere, so is the whole price, which lifting them can only raise.
    pub fn price(
        &self,
        members: &[QueryTraffic],
        reads: &InterestSet,
        at: NodeId,
        cap: f64,
    ) -> Option<f64> {
        let row = self.row(at);
        let mut cost = 0.0;
        for q in members {
            cost += self.model.result_flow_cost(at, q.proxy, q.result_rate);
            if cost >= cap {
                return None;
            }
        }
        for s in reads.iter() {
            if cost >= cap {
                return None;
            }
            if self.readers[row + s] > 0 {
                continue; // `at` reads it already
            }
            // Up to the first node the substream already reaches.
            let (carried, rate) = (&self.carried[s], self.model.table.rate(s));
            let span = climb(self.model.source_tree_of(s), at, |cur, span| {
                carried.get(&cur).is_none_or(|&n| n == 0) && cost + rate * span < cap
            });
            cost += rate * span;
        }
        (cost < cap).then_some(cost)
    }
}

/// Climbs `tree` from `at` toward its root for as long as `on(node, span)`
/// holds for the node below the next link, `span` being the latency
/// climbed so far; returns the latency climbed.
fn climb(tree: &ShortestPathTree, at: NodeId, mut on: impl FnMut(NodeId, f64) -> bool) -> f64 {
    let (mut cur, mut span) = (at, 0.0);
    while let Some((parent, latency)) = tree.uplink(cur) {
        if !on(cur, span) {
            break;
        }
        span += latency;
        cur = parent;
    }
    span
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_net::{Topology, TransitStubConfig};

    fn line_deployment() -> Deployment {
        // 0 (source) - 1 - 2 (proc A) - 3 - 4 (proc B), unit latencies
        let mut t = Topology::new(5);
        for i in 0..4u32 {
            t.add_edge(NodeId(i), NodeId(i + 1), 1.0);
        }
        Deployment::with_roles(t, vec![NodeId(0)], vec![NodeId(2), NodeId(4)])
    }

    #[test]
    fn source_cost_charges_shared_prefix_once() {
        let dep = line_deployment();
        let table = SubstreamTable::from_parts(vec![0], vec![10.0]);
        let model = TrafficModel::new(&dep, &table);
        let both =
            vec![InterestSet::from_indices(1, [0usize]), InterestSet::from_indices(1, [0usize])];
        // Path to proc A: 2 links; to proc B: 4 links; union: 4 links.
        assert_eq!(model.source_delivery_cost(&both), 10.0 * 4.0);
        let only_a = vec![InterestSet::from_indices(1, [0usize]), InterestSet::new(1)];
        assert_eq!(model.source_delivery_cost(&only_a), 10.0 * 2.0);
        let nobody = vec![InterestSet::new(1), InterestSet::new(1)];
        assert_eq!(model.source_delivery_cost(&nobody), 0.0);
    }

    #[test]
    fn result_unicast_costs_distance_times_rate() {
        let dep = line_deployment();
        let table = SubstreamTable::from_parts(vec![0], vec![1.0]);
        let model = TrafficModel::new(&dep, &table);
        let cost = model.result_unicast_cost([
            (NodeId(2), NodeId(4), 3.0), // distance 2
            (NodeId(4), NodeId(4), 7.0), // local: free
        ]);
        assert_eq!(cost, 6.0);
    }

    #[test]
    fn random_table_rates_in_range() {
        let t = SubstreamTable::random(1000, 7, 1.0, 10.0, 42);
        assert_eq!(t.len(), 1000);
        for s in 0..t.len() {
            assert!(t.rate(s) >= 1.0 && t.rate(s) <= 10.0);
            assert!(t.source_index(s) < 7);
        }
        // Deterministic.
        let t2 = SubstreamTable::random(1000, 7, 1.0, 10.0, 42);
        assert_eq!(t.rates(), t2.rates());
    }

    #[test]
    fn perturbation_changes_rates() {
        let mut t = SubstreamTable::from_parts(vec![0, 0], vec![2.0, 4.0]);
        t.scale_rate(0, 3.0);
        t.set_rate(1, 1.0);
        assert_eq!(t.rate(0), 6.0);
        assert_eq!(t.rate(1), 1.0);
    }

    #[test]
    fn works_at_paper_scale_topology() {
        // Smoke test with a real transit-stub deployment (small version).
        let topo = TransitStubConfig::small().generate(1);
        let dep = Deployment::assign(topo, 3, 6, 1);
        let table = SubstreamTable::random(100, 3, 1.0, 10.0, 1);
        let model = TrafficModel::new(&dep, &table);
        let interests: Vec<InterestSet> = (0..6)
            .map(|i| InterestSet::from_indices(100, (0..100).filter(|s| s % 6 == i)))
            .collect();
        let cost = model.source_delivery_cost(&interests);
        assert!(cost > 0.0);
        // Concentrating all interest on one processor can't cost more than
        // spreading it (the multicast union only shrinks).
        let mut all = InterestSet::new(100);
        for i in &interests {
            all.union_with(i);
        }
        let mut concentrated = vec![InterestSet::new(100); 6];
        concentrated[0] = all;
        let conc_cost = model.source_delivery_cost(&concentrated);
        assert!(conc_cost > 0.0);
    }

    #[test]
    #[should_panic(expected = "one interest set per processor")]
    fn wrong_interest_count_panics() {
        let dep = line_deployment();
        let table = SubstreamTable::from_parts(vec![0], vec![1.0]);
        let model = TrafficModel::new(&dep, &table);
        let _ = model.source_delivery_cost(&[InterestSet::new(1)]);
    }

    /// One substream at rate 10 on [`line_deployment`], no result flows.
    fn one_substream() -> (SubstreamTable, InterestSet) {
        (SubstreamTable::from_parts(vec![0], vec![10.0]), InterestSet::from_indices(1, [0usize]))
    }

    /// `lift` from `from`, `price` at `to`, put back: the cost change of
    /// the move, as the refinement pass computes it.
    fn delta(cost: &mut PlacementCost, q: &QueryTraffic, from: NodeId, to: NodeId) -> f64 {
        let saved = cost.lift(q, from);
        let added = cost.price(&[*q], q.interest, to, f64::INFINITY).expect("no cap");
        assert_eq!(cost.put(q, from), saved, "putting back restores what the lift freed");
        added - saved
    }

    #[test]
    fn a_target_under_the_freed_branch_pays_for_the_branch_again() {
        let dep = line_deployment();
        let (table, interest) = one_substream();
        let q = QueryTraffic { interest: &interest, proxy: NodeId(2), result_rate: 0.0 };
        let mut cost = PlacementCost::new(&dep, &table);
        // The only reader sits on A (two links from the source); B hangs
        // two links below A. Freeing A's path saves 20 and reaching B from
        // a tree that still held A's path would add 20 — but the move costs
        // +20, not 0: B's path runs over the links the lift freed.
        let (a, b) = (NodeId(2), NodeId(4));
        assert_eq!(cost.put(&q, a), 20.0);
        assert_eq!(delta(&mut cost, &q, a, b), 20.0);
        // And back: from B, A is on the freed branch and costs its own two
        // links, not nothing.
        cost.lift(&q, a);
        assert_eq!(cost.put(&q, b), 40.0);
        assert_eq!(delta(&mut cost, &q, b, a), -20.0);
        assert_eq!(cost.total(), 40.0);
    }

    #[test]
    fn a_query_that_is_not_the_last_reader_frees_nothing() {
        let dep = line_deployment();
        let (table, interest) = one_substream();
        let q = QueryTraffic { interest: &interest, proxy: NodeId(2), result_rate: 0.0 };
        let mut cost = PlacementCost::new(&dep, &table);
        // Two readers on B, one on A: moving one of B's to A changes no link.
        let (a, b) = (NodeId(2), NodeId(4));
        assert_eq!(cost.put(&q, b) + cost.put(&q, b) + cost.put(&q, a), 40.0);
        assert_eq!(delta(&mut cost, &q, b, a), 0.0);
        // With a result flow to A the move saves exactly that flow (rate 3
        // over distance 2).
        let r = QueryTraffic { result_rate: 3.0, ..q };
        assert_eq!(cost.put(&r, b), 6.0);
        assert_eq!(delta(&mut cost, &r, b, a), -6.0);
        assert_eq!(cost.total(), 46.0);
    }

    /// A deployment refuses a node that is both source and processor; the
    /// nearest there is: a host that is the source's neighbour and lies on
    /// the other host's path, with its proxy on itself.
    #[test]
    fn a_host_next_to_the_source_on_anothers_path() {
        let mut t = Topology::new(3);
        t.add_edge(NodeId(0), NodeId(1), 1.0);
        t.add_edge(NodeId(1), NodeId(2), 1.0);
        let dep = Deployment::with_roles(t, vec![NodeId(0)], vec![NodeId(1), NodeId(2)]);
        let (table, interest) = one_substream();
        let q = QueryTraffic { interest: &interest, proxy: NodeId(1), result_rate: 1.0 };
        let mut cost = PlacementCost::new(&dep, &table);
        let (inner, outer) = (NodeId(1), NodeId(2));
        assert_eq!(cost.put(&q, outer), 20.0 + 1.0);
        // A second reader at the inner host rides the first one's path.
        assert_eq!(cost.price(&[q], q.interest, inner, f64::INFINITY), Some(0.0));
        assert_eq!(delta(&mut cost, &q, outer, inner), -11.0);
        // The cap cuts a price off at the first partial sum that reaches it.
        assert_eq!(cost.price(&[q], q.interest, inner, 0.0), None);
        cost.lift(&q, outer);
        assert_eq!(cost.price(&[q], q.interest, outer, 21.0), None);
        assert_eq!(cost.price(&[q], q.interest, outer, 21.5), Some(21.0));
        assert_eq!(cost.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "lifted where never put")]
    fn lifting_what_was_never_put_panics() {
        let dep = line_deployment();
        let (table, interest) = one_substream();
        let q = QueryTraffic { interest: &interest, proxy: NodeId(2), result_rate: 0.0 };
        PlacementCost::new(&dep, &table).lift(&q, NodeId(2));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        struct World {
            dep: Deployment,
            table: SubstreamTable,
            /// Per query: interest, proxy, result rate.
            queries: Vec<(InterestSet, NodeId, f64)>,
        }

        impl World {
            fn traffic(&self, i: usize) -> QueryTraffic<'_> {
                let (interest, proxy, result_rate) = &self.queries[i];
                QueryTraffic { interest, proxy: *proxy, result_rate: *result_rate }
            }

            /// The model's cost of `hosts`, from nothing.
            fn model_cost(&self, hosts: &[usize]) -> f64 {
                let procs = self.dep.processors();
                let mut interests = vec![InterestSet::new(self.table.len()); procs.len()];
                for (q, &at) in self.queries.iter().zip(hosts) {
                    interests[at].union_with(&q.0);
                }
                let model = TrafficModel::new(&self.dep, &self.table);
                let flows = self.queries.iter().zip(hosts).map(|(q, &at)| (procs[at], q.1, q.2));
                model.source_delivery_cost(&interests) + model.result_unicast_cost(flows)
            }
        }

        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() <= 1e-9 * a.abs().max(1.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// After every move the running total is the model's cost of
            /// the placement recomputed from nothing, and every priced
            /// move is the difference of two such recomputations.
            #[test]
            fn running_total_and_every_delta_equal_the_model(seed in 0u64..10_000) {
                let mut rng = rng_for(seed, "placement-cost");
                let (n_src, n_proc, n_sub) = (rng.gen_range(1..4), rng.gen_range(2..8), 24);
                let topo = TransitStubConfig::small().generate(seed);
                let dep = Deployment::assign(topo, n_src, n_proc, seed);
                let table = SubstreamTable::random(n_sub, n_src, 1.0, 10.0, seed);
                let queries = (0..rng.gen_range(1..30))
                    .map(|_| {
                        let reads: Vec<usize> =
                            (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..n_sub)).collect();
                        let proxy = dep.processors()[rng.gen_range(0..n_proc)];
                        let rate = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..5.0) };
                        (InterestSet::from_indices(n_sub, reads), proxy, rate)
                    })
                    .collect();
                let world = World { dep, table, queries };
                let mut hosts: Vec<usize> =
                    world.queries.iter().map(|_| rng.gen_range(0..n_proc)).collect();
                let mut cost = PlacementCost::new(&world.dep, &world.table);
                let procs = world.dep.processors();
                for (i, &at) in hosts.iter().enumerate() {
                    cost.put(&world.traffic(i), procs[at]);
                }
                let mut before = world.model_cost(&hosts);
                prop_assert!(close(cost.total(), before), "seed {seed}: initial total");
                for step in 0..60 {
                    let i = rng.gen_range(0..hosts.len());
                    let (from, to) = (hosts[i], rng.gen_range(0..n_proc));
                    let q = world.traffic(i);
                    let saved = cost.lift(&q, procs[from]);
                    let added = cost.price(&[q], q.interest, procs[to], f64::INFINITY).expect("no cap");
                    hosts[i] = to;
                    let after = world.model_cost(&hosts);
                    prop_assert!(
                        close(added - saved, after - before),
                        "seed {seed} move {step}: priced {} but the model says {}",
                        added - saved,
                        after - before
                    );
                    // A capped price is the same price or a refusal, never
                    // a different number.
                    let cap = rng.gen_range(0.0..2.0) * added;
                    let capped = cost.price(&[q], q.interest, procs[to], cap);
                    prop_assert!(
                        if added < cap { capped == Some(added) } else { capped.is_none() },
                        "seed {seed} move {step}: price {added} under cap {cap} gave {capped:?}"
                    );
                    prop_assert_eq!(cost.put(&q, procs[to]), added, "seed {} move {}", seed, step);
                    prop_assert!(
                        close(cost.total(), after),
                        "seed {seed} move {step}: total {} but the model says {after}",
                        cost.total()
                    );
                    before = after;
                }
            }

            /// Moving a set of queries together: what lifting them all off
            /// their processor saves is [`PlacementCost::saving`] with the
            /// substreams only they read there, and with them lifted, the
            /// set price of a processor is what putting them all there
            /// adds — each substream of their union charged once — or
            /// `None` exactly when that reaches the cap.
            #[test]
            fn set_saving_and_set_price_are_the_deltas_of_lift_all_and_put_all(
                seed in 0u64..10_000,
            ) {
                let mut rng = rng_for(seed, "set-price");
                let (n_src, n_proc, n_sub) = (rng.gen_range(1..4), rng.gen_range(2..8), 12);
                let topo = TransitStubConfig::small().generate(seed);
                let dep = Deployment::assign(topo, n_src, n_proc, seed);
                let table = SubstreamTable::random(n_sub, n_src, 1.0, 10.0, seed);
                let queries = (0..rng.gen_range(2..30))
                    .map(|_| {
                        let reads: Vec<usize> =
                            (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..n_sub)).collect();
                        let proxy = dep.processors()[rng.gen_range(0..n_proc)];
                        let rate = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..5.0) };
                        (InterestSet::from_indices(n_sub, reads), proxy, rate)
                    })
                    .collect();
                let world = World { dep, table, queries };
                let procs = world.dep.processors();
                let mut hosts: Vec<usize> =
                    world.queries.iter().map(|_| rng.gen_range(0..n_proc)).collect();
                let mut cost = PlacementCost::new(&world.dep, &world.table);
                for (i, &at) in hosts.iter().enumerate() {
                    cost.put(&world.traffic(i), procs[at]);
                }
                for step in 0..30 {
                    let from = hosts[rng.gen_range(0..hosts.len())];
                    // Every query there reading a random substream, or a
                    // random half of the queries there.
                    let s = rng.gen_range(0..n_sub);
                    let by_substream = rng.gen_bool(0.5);
                    let members: Vec<usize> = (0..hosts.len())
                        .filter(|&i| hosts[i] == from)
                        .filter(|&i| {
                            if by_substream { world.queries[i].0.contains(s) } else { rng.gen_bool(0.5) }
                        })
                        .collect();
                    let flows: Vec<QueryTraffic> = members.iter().map(|&i| world.traffic(i)).collect();
                    let read = |i: usize, t: usize| world.queries[i].0.contains(t);
                    let alone = (0..n_sub).filter(|&t| {
                        members.iter().any(|&i| read(i, t))
                            && (0..hosts.len()).all(|i| hosts[i] != from || members.contains(&i) || !read(i, t))
                    });
                    let saving = cost.saving(&flows, procs[from], alone);
                    let before = cost.total();
                    for q in &flows {
                        cost.lift(q, procs[from]);
                    }
                    let lifted = cost.total();
                    prop_assert!(
                        close(saving, before - lifted),
                        "seed {seed} step {step}: saving {saving} but lifting all saved {}",
                        before - lifted
                    );
                    let to = rng.gen_range(0..n_proc);
                    let mut reads = InterestSet::new(n_sub);
                    for q in &flows {
                        reads.union_with(q.interest);
                    }
                    let price = cost.price(&flows, &reads, procs[to], f64::INFINITY).expect("no cap");
                    let cap = rng.gen_range(0.0..2.0) * price;
                    let capped = cost.price(&flows, &reads, procs[to], cap);
                    for q in &flows {
                        cost.put(q, procs[to]);
                    }
                    let added = cost.total() - lifted;
                    prop_assert!(
                        close(price, added),
                        "seed {seed} step {step}: set price {price} but putting all added {added}"
                    );
                    prop_assert!(
                        if added < cap { capped == Some(price) } else { capped.is_none() },
                        "seed {seed} step {step}: price {price} under cap {cap} gave {capped:?}"
                    );
                    for &i in &members {
                        hosts[i] = to;
                    }
                    prop_assert!(close(cost.total(), world.model_cost(&hosts)), "seed {seed} step {step}");
                }
            }
        }
    }
}

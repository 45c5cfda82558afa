//! The hierarchical mapping judged on the cost it is judged on: the
//! `TrafficModel` source + result cost of `distribute`, against the naive
//! (every query at its proxy) and random placements, on the two
//! populations the end-to-end benchmark places.
//!
//! On the `sensor-join` population — 4 000 window joins over 100 sensors,
//! each sensor read by ≈ 80 queries, result flows a tenth of the input —
//! a query graph that charges a substream once per reader and once per
//! *pair* of readers, coarsened by weight alone, is worth 0.84 of a random
//! placement and 2.2 naive ones, with one query in six left in its proxy's
//! level-1 cluster. Charging a shared substream once and collapsing only
//! what co-location pays for reads 0.43, 1.14 and 85 in a hundred — still
//! over naive, because the top-down mapping stops at whole level-1
//! clusters and refines a pairwise surrogate. The query-level refinement
//! on the model's own cost that ends `distribute` read 0.36, 0.95 and 86
//! moving one query at a time, and 0.350, 0.934 and 82 once it also moves a
//! processor's readers of one substream together — the margin over naive
//! this test holds. With each sensor's rate the bytes of one reading (52,
//! where a random 4–16 was declared) they read 0.348, 0.931 and 84.

use cosmos_baselines::{naive_assignment, random_assignment};
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::{modelled_cost, Assignment, QuerySpec};
use cosmos_util::rng::derive_seed;
use cosmos_workload::sensors::SensorScenario;
use cosmos_workload::{PaperParams, Simulation};

#[test]
fn sensor_population_beats_random_and_stays_near_its_proxies() {
    const SEED: u64 = 42;
    let scenario = SensorScenario::build(100, 5, 30, SEED);
    let specs: Vec<QuerySpec> = scenario
        .generate_cql(4_000, SEED + 1)
        .iter()
        .map(|(id, q, proxy)| scenario.to_spec(*id, q, *proxy))
        .collect();
    let (dep, table) = (&scenario.dep, &scenario.table);
    let tree = CoordinatorTree::build(dep, 2);
    let placed = Distributor::new(dep, &tree, table).distribute(&specs, SEED + 2).assignment;

    let cost = |a: &Assignment| {
        let (source, result) = modelled_cost(dep, table, &specs, a);
        source + result
    };
    let (hier, naive, random) = (
        cost(&placed),
        cost(&naive_assignment(&specs)),
        cost(&random_assignment(&specs, dep, SEED + 3)),
    );
    assert!(hier <= 0.4 * random, "hierarchical {hier:.0} > 0.4 × random {random:.0}");
    assert!(hier <= 0.935 * naive, "hierarchical {hier:.0} > 0.935 × naive {naive:.0}");

    let level1 = |p| tree.node(tree.leaf_of(p).expect("a processor")).parent;
    let near = specs
        .iter()
        .filter(|q| level1(placed.processor_of(q.id).expect("placed")) == level1(q.proxy))
        .count();
    assert!(
        near * 100 >= 55 * specs.len(),
        "{near} of {} queries in their proxy's level-1 cluster",
        specs.len()
    );
}

/// `placement-churn`'s standing population, where input sharing dominates
/// and the paper's term is what wins: 0.5789 of a random placement before
/// a shared substream was charged once, 0.5536 with that, 0.38 with the
/// query-level refinement.
#[test]
fn churn_population_keeps_its_margin_over_random() {
    const SEED: u64 = 0xC4A2;
    let mut sim = Simulation::build(PaperParams::scaled(0.05), SEED);
    sim.arrivals(800, derive_seed(SEED, "standing"));
    let placed =
        sim.distributor().distribute(&sim.specs, derive_seed(SEED, "distribute")).assignment;
    let random = random_assignment(&sim.specs, &sim.dep, derive_seed(SEED, "random-placement"));
    let ratio = sim.comm_cost_of(&placed) / sim.comm_cost_of(&random);
    assert!(ratio <= 0.45, "hierarchical is {ratio:.4} of random, over 0.45");
}

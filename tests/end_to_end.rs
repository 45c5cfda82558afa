//! End-to-end integration: environment construction → workload generation
//! → hierarchical distribution → online insertion → adaptation, with the
//! measured Pub/Sub communication cost and the load constraint checked at
//! every stage.

use cosmos::baselines::{naive_assignment, random_assignment};
use cosmos::core::distribute::ALPHA;
use cosmos::workload::{PaperParams, Simulation};

fn distributed_sim(n: usize, seed: u64) -> Simulation {
    let mut sim = Simulation::build(PaperParams::tiny(), seed);
    let batch = sim.arrivals(n, seed + 1);
    let d = sim.distributor();
    let out = d.distribute(&batch, seed + 2);
    drop(d);
    sim.apply(out.assignment);
    sim
}

#[test]
fn every_query_lands_on_a_real_processor() {
    let sim = distributed_sim(120, 1);
    assert_eq!(sim.assignment.len(), 120);
    for q in &sim.specs {
        let p = sim.assignment.processor_of(q.id).expect("assigned");
        assert!(sim.dep.processors().contains(&p));
    }
}

#[test]
fn distribution_is_deterministic_across_runs() {
    let a = distributed_sim(100, 7);
    let b = distributed_sim(100, 7);
    for q in &a.specs {
        assert_eq!(
            a.assignment.processor_of(q.id),
            b.assignment.processor_of(q.id),
            "placement of {} differs between identical runs",
            q.id
        );
    }
}

#[test]
fn optimizer_beats_random_placement() {
    let sim = distributed_sim(150, 3);
    let random = random_assignment(&sim.specs, &sim.dep, 99);
    assert!(
        sim.comm_cost() < sim.comm_cost_of(&random),
        "hierarchical ({}) must beat random ({})",
        sim.comm_cost(),
        sim.comm_cost_of(&random)
    );
}

#[test]
fn load_constraint_holds_globally() {
    let sim = distributed_sim(200, 4);
    let loads = sim.loads();
    let total: f64 = loads.iter().sum();
    let limit = (1.0 + ALPHA) * total / loads.len() as f64;
    for (i, l) in loads.iter().enumerate() {
        assert!(
            *l <= limit * 1.05 + 1e-9,
            "processor {i} exceeds the global load limit: {l} > {limit}"
        );
    }
}

#[test]
fn online_insertions_preserve_consistency() {
    let mut sim = distributed_sim(80, 5);
    for wave in 0..5 {
        let batch = sim.arrivals(20, 50 + wave);
        sim.insert_online(&batch);
    }
    assert_eq!(sim.assignment.len(), 180);
    assert_eq!(sim.specs.len(), 180);
    // All placements remain valid processors.
    for q in &sim.specs {
        assert!(sim.dep.processors().contains(&sim.assignment.processor_of(q.id).unwrap()));
    }
}

#[test]
fn adaptation_converges_to_a_quiet_fixpoint() {
    let mut sim = distributed_sim(100, 6);
    // Let the system settle.
    for round in 0..4 {
        sim.adapt_round(80 + round);
    }
    // A settled system should migrate (almost) nothing.
    let out = sim.adapt_round(99);
    assert!(
        out.migrations <= sim.specs.len() / 20,
        "settled system migrated {} of {} queries",
        out.migrations,
        sim.specs.len()
    );
}

#[test]
fn adaptation_recovers_from_random_start() {
    let mut sim = distributed_sim(150, 8);
    let good_cost = sim.comm_cost();
    let random = random_assignment(&sim.specs, &sim.dep, 77);
    sim.apply(random);
    let bad_cost = sim.comm_cost();
    let bad_stddev = sim.load_stddev();
    assert!(bad_cost > good_cost);
    for round in 0..6 {
        sim.adapt_round(300 + round);
    }
    // The paper's objective is communication cost *subject to load
    // balance* (eqn 3.1): adaptation must restore balance without
    // materially worsening cost. A strict cost decrease is not guaranteed
    // from an arbitrary start — rebalancing trades a sliver of WEC for
    // large deviation reductions.
    let recovered = sim.comm_cost();
    assert!(
        recovered < bad_cost * 1.02,
        "adaptation must not materially worsen cost: {bad_cost} -> {recovered}"
    );
    assert!(
        sim.load_stddev() < bad_stddev * 0.5,
        "adaptation should rebalance load: stddev {bad_stddev} -> {}",
        sim.load_stddev()
    );
}

#[test]
fn naive_pays_more_for_source_delivery() {
    let sim = distributed_sim(150, 9);
    let naive = naive_assignment(&sim.specs);
    let model = cosmos::pubsub::TrafficModel::new(&sim.dep, &sim.table);
    let ours = model.source_delivery_cost(&sim.assignment.interests(
        &sim.specs,
        sim.dep.processors(),
        sim.table.len(),
    ));
    let theirs = model.source_delivery_cost(&naive.interests(
        &sim.specs,
        sim.dep.processors(),
        sim.table.len(),
    ));
    assert!(ours < theirs, "sharing-aware placement must reduce source traffic");
}

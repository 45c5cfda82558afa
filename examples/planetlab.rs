//! The §4.2 prototype scenario in miniature: a PlanetLab-like wide-area
//! deployment with synthetic SensorScope sensors, random CQL queries, and
//! the head-to-head between COSMOS and the classical operator-placement
//! architecture — plus actually *executing* a few queries on the stream
//! engine against random-walk sensor readings.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example planetlab
//! ```

use cosmos::baselines::opplace::{OperatorGraph, OperatorPlacement, RateModel};
use cosmos::core::distribute::Distributor;
use cosmos::core::hierarchy::CoordinatorTree;
use cosmos::core::spec::{modelled_cost, QuerySpec};
use cosmos::engine::StreamEngine;
use cosmos::workload::sensors::SensorScenario;
use std::time::Instant;

fn main() {
    // 100 sensors on 5 source nodes, 30 PlanetLab-like processors.
    let scenario = SensorScenario::build(100, 5, 30, 42);
    println!(
        "deployment: {} sensors, {} sources, {} processors",
        scenario.streams.len(),
        scenario.dep.sources().len(),
        scenario.dep.processors().len()
    );
    let n_queries = 1000;
    let cql = scenario.generate_cql(n_queries, 7);
    println!("generated {n_queries} CQL queries; first one:\n    {}", cql[0].1);

    // --- Operator placement baseline: shared operator graph + placement.
    let t0 = Instant::now();
    let graph = OperatorGraph::build(
        &cql,
        &scenario.stream_rate,
        &scenario.stream_source,
        &RateModel::default(),
    );
    let placed =
        OperatorPlacement::default().place(&graph, &scenario.dep, scenario.dep.processors());
    let op_time = t0.elapsed();
    let (scans, selects, joins, outputs) = graph.kind_counts();
    println!(
        "\noperator placement: {scans} scans, {selects} shared selections, \
         {joins} shared joins, {outputs} outputs"
    );
    println!("  cost {:.0}, optimizer time {op_time:?}", placed.cost);

    // --- COSMOS: whole-query distribution over the Pub/Sub.
    let specs: Vec<QuerySpec> =
        cql.iter().map(|(id, q, proxy)| scenario.to_spec(*id, q, *proxy)).collect();
    let tree = CoordinatorTree::build(&scenario.dep, 2);
    let t1 = Instant::now();
    let d = Distributor::new(&scenario.dep, &tree, &scenario.table);
    let out = d.distribute(&specs, 3);
    let cosmos_time = t1.elapsed();
    let (source, result) = modelled_cost(&scenario.dep, &scenario.table, &specs, &out.assignment);
    let cosmos_cost = source + result;
    println!("COSMOS: cost {cosmos_cost:.0}, optimizer time {cosmos_time:?}");
    println!("  cost ratio opplace/COSMOS: {:.2}", placed.cost / cosmos_cost);

    // --- Execute a handful of the queries against synthetic readings,
    // spread over per-processor engines as in the real deployment.
    let hosted: Vec<_> = cql.iter().take(25).collect();
    let mut engines: Vec<StreamEngine> = hosted
        .chunks(5)
        .map(|chunk| {
            let mut engine = StreamEngine::new();
            for (id, q, _) in chunk {
                engine.add_query(*id, q.clone());
            }
            engine
        })
        .collect();
    // Interleave readings from every sensor those queries touch.
    let mut sensors: Vec<usize> = hosted
        .iter()
        .flat_map(|(_, q, _)| {
            q.streams()
                .filter_map(|s| scenario.streams.iter().position(|n| n == s))
                .collect::<Vec<_>>()
        })
        .collect();
    sensors.sort_unstable();
    sensors.dedup();
    let mut tuples = Vec::new();
    for &s in &sensors {
        tuples.extend(scenario.readings(s, 120, 0, 1_000, 5));
    }
    tuples.sort_by_key(|t| t.timestamp);
    // Every engine sees the merged stream in timestamp order; a tuple no
    // hosted query reads costs an engine one map probe.
    let mut results = 0;
    for t in tuples {
        for engine in &mut engines {
            results += engine.push(t.clone()).len();
        }
    }
    let (probes, filtered) = engines.iter().fold((0, 0), |(p, f), e| {
        let stats = e.total_stats();
        (p + stats.probes, f + stats.filtered)
    });
    println!(
        "\nengine run ({} engines): {} sensors x 120 readings -> {results} join results \
         ({probes} probes, {filtered} filtered by pushed-down selections)",
        engines.len(),
        sensors.len(),
    );
}

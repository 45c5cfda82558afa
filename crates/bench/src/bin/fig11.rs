//! Figure 11: prototype study — COSMOS vs operator placement.
//!
//! Paper: 30 PlanetLab nodes across countries/continents, GSN as the
//! engine, 100 SensorScope sensors on 5 source nodes, 250–4000 random
//! queries (1–3 selections + 1–3 timestamp joins). Compared against a
//! NiagaraCQ-style global operator graph placed with a network-aware
//! algorithm:
//!
//! (a) communication cost (normalized to COSMOS): the two are comparable —
//!     operator placement may be slightly cheaper since it ignores load
//!     balancing;
//! (b) optimizer running time (normalized to the largest value): COSMOS
//!     scales far better with the number of queries.
//!
//! Our substitution: synthetic SensorScope-like streams + our own engine
//! and Pub/Sub (see DESIGN.md).

use cosmos_baselines::opplace::{OperatorGraph, OperatorPlacement, RateModel};
use cosmos_bench::{banner, write_result, BenchArgs};
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::{modelled_cost, QuerySpec};
use cosmos_workload::sensors::SensorScenario;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    banner("Figure 11", "prototype study: COSMOS vs operator placement", &args);
    // The prototype is small; scale only affects nothing here — the paper's
    // own sizes are laptop-friendly.
    let scenario = SensorScenario::build(100, 5, 30, args.seed);
    // COSMOS coordinator tree: "each cluster has 2-3 members" (paper §4.2).
    let tree = CoordinatorTree::build(&scenario.dep, 2);

    println!(
        "\n{:>8} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "#queries", "opplace cost", "COSMOS cost", "ratio", "opplace time", "COSMOS time"
    );
    let mut rows = Vec::new();
    for n in [250usize, 1000, 4000] {
        let cql = scenario.generate_cql(n, args.seed + n as u64);

        // --- Operator placement baseline.
        let t0 = Instant::now();
        let graph = OperatorGraph::build(
            &cql,
            &scenario.stream_rate,
            &scenario.stream_source,
            &RateModel::default(),
        );
        let placed =
            OperatorPlacement::default().place(&graph, &scenario.dep, scenario.dep.processors());
        let opplace_time = t0.elapsed();

        // --- COSMOS: distribute the same queries, measure Pub/Sub cost.
        let specs: Vec<QuerySpec> =
            cql.iter().map(|(id, q, proxy)| scenario.to_spec(*id, q, *proxy)).collect();
        let t1 = Instant::now();
        let d = Distributor::new(&scenario.dep, &tree, &scenario.table);
        let out = d.distribute(&specs, args.seed + 3);
        let cosmos_time = t1.elapsed();
        let (source, result) =
            modelled_cost(&scenario.dep, &scenario.table, &specs, &out.assignment);
        let cosmos_cost = source + result;

        let ratio = placed.cost / cosmos_cost;
        println!(
            "{n:>8} {:>14.0} {:>14.0} {ratio:>10.2} {:>11.3}s {:>11.3}s",
            placed.cost,
            cosmos_cost,
            opplace_time.as_secs_f64(),
            cosmos_time.as_secs_f64(),
        );
        rows.push(serde_json::json!({
            "queries": n,
            "opplace_cost": placed.cost,
            "cosmos_cost": cosmos_cost,
            "cost_ratio": ratio,
            "opplace_time_s": opplace_time.as_secs_f64(),
            "cosmos_time_s": cosmos_time.as_secs_f64(),
        }));
    }
    println!("\nShape checks (paper Figure 11):");
    let first = &rows[0];
    let last = rows.last().expect("rows nonempty");
    let comparable =
        last["cost_ratio"].as_f64().unwrap() > 0.4 && last["cost_ratio"].as_f64().unwrap() < 2.5;
    println!("  communication costs comparable (ratio within 0.4-2.5): {comparable}");
    let op_growth = last["opplace_time_s"].as_f64().unwrap()
        / first["opplace_time_s"].as_f64().unwrap().max(1e-9);
    let cosmos_growth = last["cosmos_time_s"].as_f64().unwrap()
        / first["cosmos_time_s"].as_f64().unwrap().max(1e-9);
    println!(
        "  COSMOS optimizer scales better (time growth {cosmos_growth:.1}x vs opplace {op_growth:.1}x): {}",
        cosmos_growth < op_growth
    );
    write_result("fig11", &serde_json::json!({"scale": args.scale, "rows": rows}));
}

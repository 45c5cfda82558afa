//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. **Overlap edges** (§3.1.2): the Pub/Sub-aware query-query term is
//!    the paper's modelling novelty — removing it should cost
//!    communication efficiency.
//! 2. **Coarsening budget `vmax`** (§3.4): smaller graphs map faster but
//!    lose placement precision.
//! 3. **Per-level α split**: applying the full eqn 3.1 tolerance at every
//!    tree level compounds to ~(1+α)^height and overloads processors.
//!
//! ```text
//! cargo run --release -p cosmos-bench --bin ablation -- [--scale 0.1]
//! ```
//!
//! `--scenario sensor` prices placements instead, on the population of the
//! end-to-end `sensor-join` workload (4 000 window joins over 100 sensors,
//! 30 processors, its standing seed — `--scale` and `--seed` do not
//! apply): the modelled source and result cost, the share of queries
//! running at their proxy and the load spread of the hierarchical mapping,
//! the same with overlap edges off, the centralized and greedy mappings,
//! and the naive and random placements, then the work and wall time of
//! each mapping's closing query-level refinement (queries moved alone,
//! groups — a processor's readers of one substream — moved together,
//! sweeps, targets priced and dropped with the movers lifted, groups
//! lifted and groups told without lifting that no target beats staying).
//! Where result traffic
//! matters this is the table that says whether the optimizer minimises
//! what it is judged on; the hierarchical row's total over the random
//! row's is the harness's `core.distribute.cost_vs_random`.

use cosmos_baselines::{naive_assignment, random_assignment};
use cosmos_bench::{banner, write_result, BenchArgs};
use cosmos_core::distribute::{DistConfig, Distributor, ALPHA};
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::{modelled_cost, Assignment, QuerySpec};
use cosmos_util::rng::derive_seed;
use cosmos_workload::sensors::SensorScenario;
use cosmos_workload::{PaperParams, Simulation};
use std::num::NonZeroUsize;

/// Standing seed of `e2ebench/src/workloads/sensor_join.rs`.
const SENSOR_SEED: u64 = 0x5E45;

fn sensor_scenario() {
    println!("=== Ablation: placements on the sensor-join population (modelled cost)");
    let scenario = SensorScenario::build(100, 5, 30, SENSOR_SEED);
    let specs: Vec<QuerySpec> = scenario
        .generate_cql(4_000, SENSOR_SEED)
        .iter()
        .map(|(id, q, proxy)| scenario.to_spec(*id, q, *proxy))
        .collect();
    let (dep, table) = (&scenario.dep, &scenario.table);
    let tree = CoordinatorTree::build(dep, 2);
    let seed = derive_seed(SENSOR_SEED, "distribute");
    let with = |overlap_edges| {
        let config = DistConfig { overlap_edges, ..DistConfig::default() };
        Distributor::with_config(dep, &tree, table, config)
    };
    let mapped = [
        ("hierarchical", with(true).distribute(&specs, seed)),
        ("overlap-off", with(false).distribute(&specs, seed)),
        ("centralized", with(true).distribute_centralized(&specs, seed)),
        ("greedy", with(true).distribute_greedy(&specs, seed)),
    ];
    let mut placements: Vec<(&str, Assignment)> =
        mapped.iter().map(|(name, out)| (*name, out.assignment.clone())).collect();
    placements.push(("naive", naive_assignment(&specs)));
    let random = random_assignment(&specs, dep, derive_seed(SENSOR_SEED, "random-placement"));
    placements.push(("random", random));
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "placement", "source", "result", "total", "at proxy", "load stddev"
    );
    let mut records = Vec::new();
    let mut totals = Vec::new();
    for (name, a) in &placements {
        let host = |q: &QuerySpec| a.processor_of(q.id).expect("every query is placed");
        let (source, result) = modelled_cost(dep, table, &specs, a);
        let at_proxy =
            specs.iter().filter(|q| host(q) == q.proxy).count() as f64 / specs.len() as f64;
        let stddev = cosmos_util::stats::stddev(&a.loads(&specs, dep.processors()));
        println!(
            "{name:>14} {source:>12.0} {result:>12.0} {:>12.0} {:>9.1}% {stddev:>12.4}",
            source + result,
            100.0 * at_proxy
        );
        totals.push(source + result);
        records.push(serde_json::json!({
            "placement": *name, "source_cost": source, "result_cost": result,
            "at_proxy": at_proxy, "load_stddev": stddev
        }));
    }
    println!("\nquery-level refinement (exact work; wall time of this run)");
    println!(
        "{:>14} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "placement", "moves", "groups", "sweeps", "evaluated", "pruned", "g-eval", "g-pruned", "ms"
    );
    let mut refinements = Vec::new();
    for (name, out) in &mapped {
        let (r, ms) = (out.refine, out.timing.refine.as_secs_f64() * 1e3);
        println!(
            "{name:>14} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8} {ms:>10.2}",
            r.moves,
            r.substream_moves,
            r.passes,
            r.evaluated,
            r.pruned,
            r.groups_evaluated,
            r.groups_pruned
        );
        refinements.push(serde_json::json!({
            "placement": *name, "moves": r.moves, "substream_moves": r.substream_moves,
            "passes": r.passes, "evaluated": r.evaluated, "pruned": r.pruned,
            "groups_evaluated": r.groups_evaluated, "groups_pruned": r.groups_pruned
        }));
    }
    let total_of = |name| totals[placements.iter().position(|p| p.0 == name).expect("a row")];
    let [hier, central, greedy, naive, random] =
        ["hierarchical", "centralized", "greedy", "naive", "random"].map(total_of);
    println!("\nhierarchical / random = {:.4}, / naive = {:.4}", hier / random, hier / naive);
    println!("Shape check: hierarchical <= 0.5 x random: {}", hier <= 0.5 * random);
    println!("Shape check: hierarchical < naive: {}", hier < naive);
    println!(
        "Shape check: Figure 6(a) ordering, both graph mappings < naive < greedy: {}",
        hier.max(central) < naive && naive < greedy
    );
    let result = serde_json::json!({"rows": records, "refinement": refinements});
    write_result("ablation_sensor", &result);
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|a| a == "--scenario") {
        let given: Vec<String> = argv.drain(at..(at + 2).min(argv.len())).collect();
        match given.get(1).map(String::as_str) {
            Some("sensor") => return sensor_scenario(),
            Some("synthetic") => {}
            other => panic!("--scenario needs `synthetic` or `sensor`, got {other:?}"),
        }
    }
    let args = BenchArgs::parse_from(&argv);
    banner("Ablation", "design-choice ablations", &args);
    let n_queries = ((20_000.0 * args.scale) as usize).max(200);
    let mut sim = Simulation::build(PaperParams::scaled(args.scale), args.seed);
    let batch = sim.arrivals(n_queries, args.seed + 1);
    let mut records = Vec::new();

    // --- 1. Overlap edges on/off.
    println!("\n[1] Pub/Sub-aware overlap edges ({n_queries} queries)");
    println!("{:>14} {:>14} {:>10}", "variant", "comm cost", "Δ vs on");
    let mut base_cost = 0.0;
    for on in [true, false] {
        let config = DistConfig { overlap_edges: on, ..DistConfig::default() };
        let d = Distributor::with_config(&sim.dep, &sim.tree, &sim.table, config);
        let out = d.distribute(&batch, args.seed + 2);
        drop(d);
        let cost = sim.comm_cost_of(&out.assignment);
        if on {
            base_cost = cost;
        }
        let delta = if on { 0.0 } else { 100.0 * (cost / base_cost - 1.0) };
        println!("{:>14} {cost:>14.0} {delta:>+9.1}%", if on { "on" } else { "off" });
        records.push(serde_json::json!({
            "ablation": "overlap_edges", "variant": on, "comm_cost": cost
        }));
    }

    // --- 2. Coarsening budget.
    println!("\n[2] coarsening budget vmax");
    println!("{:>8} {:>14} {:>12}", "vmax", "comm cost", "total time");
    for n in [16usize, 64, 256] {
        let vmax = NonZeroUsize::new(n).expect("vmax > 0");
        let config = DistConfig { vmax, ..DistConfig::default() };
        let d = Distributor::with_config(&sim.dep, &sim.tree, &sim.table, config);
        let out = d.distribute(&batch, args.seed + 2);
        drop(d);
        let cost = sim.comm_cost_of(&out.assignment);
        println!("{n:>8} {cost:>14.0} {:>11.2}s", out.timing.total.as_secs_f64());
        records.push(serde_json::json!({
            "ablation": "vmax", "variant": n, "comm_cost": cost,
            "total_time_s": out.timing.total.as_secs_f64()
        }));
    }

    // --- 3. Per-level α split on/off: compare worst processor overload.
    println!("\n[3] per-level alpha split");
    println!("{:>14} {:>16} {:>12}", "variant", "max load/limit", "comm cost");
    for split in [true, false] {
        let config = DistConfig { per_level_alpha: split, ..DistConfig::default() };
        let d = Distributor::with_config(&sim.dep, &sim.tree, &sim.table, config);
        let out = d.distribute(&batch, args.seed + 2);
        drop(d);
        let loads = out.assignment.loads(&batch, sim.dep.processors());
        let total: f64 = loads.iter().sum();
        let limit = (1.0 + ALPHA) * total / loads.len() as f64;
        let worst = loads.iter().cloned().fold(0.0, f64::max) / limit;
        let cost = sim.comm_cost_of(&out.assignment);
        println!("{:>14} {worst:>16.3} {cost:>12.0}", if split { "split" } else { "flat" });
        records.push(serde_json::json!({
            "ablation": "per_level_alpha", "variant": split,
            "worst_load_over_limit": worst, "comm_cost": cost
        }));
    }
    println!("\n(max load/limit > 1 means the global eqn 3.1 bound is violated)");
    write_result("ablation", &serde_json::json!({"scale": args.scale, "rows": records}));
}

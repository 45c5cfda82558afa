//! Figure 9: varying the cluster-size parameter k.
//!
//! Paper: with smaller k the distribution quality worsens (taller tree,
//! more coarsening) while the root coordinator's query-insertion
//! *throughput* improves (it routes to fewer children). k ∈ {2, 4, 8, 16}.

use cosmos_bench::{banner, write_result, BenchArgs};
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::online::OnlineRouter;
use cosmos_workload::{generator::QueryGenerator, PaperParams, Simulation};
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    banner("Figure 9", "varied cluster size parameter k", &args);
    let n_queries = ((30_000.0 * args.scale) as usize).max(200);

    println!("\n{:>4} {:>8} {:>14} {:>22}", "k", "height", "comm cost", "root throughput (q/s)");
    let mut rows = Vec::new();
    for k in [2usize, 4, 8, 16] {
        let mut params = PaperParams::scaled(args.scale);
        params.k = k;
        let mut sim = Simulation::build(params.clone(), args.seed);
        let batch = sim.arrivals(n_queries, args.seed + 1);
        let d = sim.distributor();
        let out = d.distribute(&batch, args.seed + 2);
        drop(d);
        sim.apply(out.assignment);
        let cost = sim.comm_cost();
        let tree = CoordinatorTree::build(&sim.dep, k);

        // Root-coordinator throughput: time route_at(root) on a fresh
        // stream of queries against the seeded router state.
        let mut router = OnlineRouter::new(&sim.dep, &tree, &sim.table);
        router.seed_from(&sim.specs, &sim.assignment);
        let mut generator = QueryGenerator::new(&params, args.seed + 9);
        let probes = generator.generate(2_000, &sim.dep, &sim.table, args.seed + 10);
        let root = tree.root();
        let t0 = Instant::now();
        let mut sink = 0usize;
        for q in &probes {
            sink = sink.wrapping_add(router.route_at(root, q));
        }
        let elapsed = t0.elapsed();
        std::hint::black_box(sink);
        let throughput = probes.len() as f64 / elapsed.as_secs_f64();

        println!("{k:>4} {:>8} {cost:>14.0} {throughput:>22.0}", tree.height());
        rows.push(serde_json::json!({
            "k": k,
            "tree_height": tree.height(),
            "comm_cost": cost,
            "root_throughput_qps": throughput,
        }));
    }
    println!("\nShape checks (paper Figure 9):");
    let first = &rows[0];
    let last = rows.last().expect("rows nonempty");
    println!(
        "  quality: cost(k=2) >= cost(k=16): {}",
        first["comm_cost"].as_f64() >= last["comm_cost"].as_f64()
    );
    println!(
        "  throughput: k=2 > k=16: {}",
        first["root_throughput_qps"].as_f64() > last["root_throughput_qps"].as_f64()
    );
    write_result("fig9", &serde_json::json!({"scale": args.scale, "rows": rows}));
}

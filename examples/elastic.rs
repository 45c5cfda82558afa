//! Elasticity at runtime: processors join and leave the coordinator
//! hierarchy while queries keep streaming in through the online router —
//! the "autonomous and distributed" operating mode the paper's
//! introduction motivates (§3.3's incremental tree + §3.6's fast query
//! streams).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example elastic
//! ```

use cosmos::core::hierarchy::CoordinatorTree;
use cosmos::core::online::OnlineRouter;
use cosmos::net::Deployment;
use cosmos::workload::generator::QueryGenerator;
use cosmos::workload::{PaperParams, Simulation};
use std::time::Instant;

fn main() {
    let params = PaperParams::scaled(0.05);
    let sim = Simulation::build(params.clone(), 42);
    let k = params.k;

    // Start the hierarchy with only the first half of the processors.
    let half = sim.dep.processors().len() / 2;
    let initial: Vec<_> = sim.dep.processors()[..half].to_vec();
    let dep_small =
        Deployment::with_roles(sim.dep.topology().clone(), sim.dep.sources().to_vec(), initial);
    let mut tree = CoordinatorTree::build(&dep_small, k);
    println!(
        "bootstrapped hierarchy: {} processors, height {}",
        tree.node(tree.root()).processors.len(),
        tree.height()
    );

    // Scale out: the second half of the processors joins one by one.
    for &p in &sim.dep.processors()[half..] {
        tree.join(p, 1.0, k, &sim.dep);
    }
    tree.check_invariants().expect("invariants after scale-out");
    println!(
        "after scale-out: {} processors, height {}",
        tree.node(tree.root()).processors.len(),
        tree.height()
    );

    // Stream 2 000 queries through the online router and measure.
    let mut generator = QueryGenerator::new(&params, 7);
    let batch = generator.generate(2_000, &sim.dep, &sim.table, 8);
    let mut router = OnlineRouter::new(&sim.dep, &tree, &sim.table);
    let t0 = Instant::now();
    let mut placements = std::collections::HashMap::new();
    for q in &batch {
        let p = router.insert(q);
        *placements.entry(p).or_insert(0usize) += 1;
    }
    let dt = t0.elapsed();
    println!(
        "routed {} queries end-to-end in {dt:?} ({:.0} queries/s), {} processors used",
        batch.len(),
        batch.len() as f64 / dt.as_secs_f64(),
        placements.len()
    );

    // Scale in: three processors retire; the tree merges their clusters.
    let retiring: Vec<_> = sim.dep.processors()[..3].to_vec();
    for &p in &retiring {
        assert!(tree.leave(p, k, &sim.dep));
    }
    tree.check_invariants().expect("invariants after scale-in");
    println!(
        "after scale-in: {} processors, height {}",
        tree.node(tree.root()).processors.len(),
        tree.height()
    );
    for &p in &retiring {
        assert!(tree.leaf_of(p).is_none(), "{p} should be gone");
    }
    println!("retired processors are no longer routable targets");
}

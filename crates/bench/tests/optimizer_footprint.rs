//! Footprint guard: how much heap the optimizer lifts while it works.
//!
//! The coordinator tree (§3.5) exists so that each coordinator works on
//! one small query graph, and at most one coordinator's graph is needed at
//! a time: coarsening runs Algorithm 1 on the rows of the graph it is
//! handed, and the top-down passes drop a coordinator's graph once its
//! children's shares are split off, before they build theirs. This binary
//! runs `placement-churn`'s optimizer under a counting
//! `#[global_allocator]` that also keeps the peak (its own test binary, so
//! no other suite pays for the counting) and bounds the peak live bytes
//! above the live bytes each call started from.
//!
//! While coarsening copied its whole input adjacency and a coordinator's
//! graph stayed alive under its children's, one distribution peaked
//! 3 167 221 B above its start and the three adaptation rounds
//! 3 750 863 / 3 940 560 / 3 918 656 B. With one live graph per
//! coordinator they read 1 612 773 B and 2 329 272 / 1 978 788 /
//! 1 910 708 B. The peaks repeat to within the test harness's own few
//! allocations (≈ 100 B); the budgets sit between the two.

use cosmos_bench::fixtures::{churn_distribute, churn_world, CHURN_SEED};
use cosmos_core::IncrementalOptimizer;
use cosmos_util::rng::{derive_seed, derive_seed_indexed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, as requested from the allocator (no malloc headers).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` has reached since the last [`start`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed statistics that guard
// no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `System` for this `layout` (above).
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p`, `layout` and `new_size` are the caller's, unchanged.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tests of this binary share the counters: they take turns.
static TURN: Mutex<()> = Mutex::new(());

/// Resets the peak to the live bytes now and returns them.
fn start() -> usize {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The peak live bytes since [`start`] returned `from`, above `from`.
fn peak_above(from: usize) -> usize {
    PEAK.load(Ordering::Relaxed) - from
}

/// `placement-churn`'s initial distribution: eight level-1 graphs built
/// and coarsened bottom-up, then mapped top-down.
#[test]
fn a_distribution_holds_one_graph_per_coordinator() {
    const BUDGET: usize = 2_000_000;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let sim = churn_world();
    let from = start();
    let out = churn_distribute(&sim);
    let peak = peak_above(from);
    eprintln!(
        "distribute: peak {peak} B above its start ({} queries placed)",
        out.assignment.len()
    );
    assert!(peak <= BUDGET, "one distribution peaked {peak} B above its start (budget {BUDGET} B)");
}

/// Three incremental adaptation rounds on that placement, with
/// `placement-churn`'s rate perturbation between them, each measured from
/// its own start (the optimizer's memo stays alive between rounds).
#[test]
fn an_adaptation_round_holds_one_graph_per_coordinator() {
    const BUDGET: usize = 3_000_000;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = churn_world();
    let placed = churn_distribute(&sim);
    sim.apply(placed.assignment);
    let mut opt = IncrementalOptimizer::new(derive_seed(CHURN_SEED, "adapt"), Default::default())
        .expect("the default adaptation config is valid");
    let perturbed = (sim.table.len() / 100).max(1);
    let mut peaks = Vec::new();
    for round in 0..3u64 {
        if round > 0 {
            let factor = if round % 2 == 0 { 1.5 } else { 1.0 / 1.5 };
            let seed = derive_seed_indexed(CHURN_SEED, "perturb", round);
            for delta in sim.perturb_rates(perturbed, factor, seed) {
                opt.ingest(&delta);
            }
        }
        let from = start();
        let out = sim.adapt_round_incremental(&mut opt);
        peaks.push(peak_above(from));
        drop(out);
    }
    eprintln!("adaptation rounds: peaks {peaks:?} B above their starts");
    for (round, &peak) in peaks.iter().enumerate() {
        assert!(
            peak <= BUDGET,
            "round {round} peaked {peak} B above its start (budget {BUDGET} B)"
        );
    }
}

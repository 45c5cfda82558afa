//! Footprint guard: routing state must cost bytes in proportion to the
//! *entries* it holds, not to the number of streams it holds them for.
//!
//! A massive query population gives every user a result stream with one
//! subscriber, so brokers on the host → proxy paths hold thousands of
//! single-member stream partitions. This binary installs such populations
//! under a counting `#[global_allocator]` (its own test binary, so no
//! other suite pays for the counting) and asserts the live heap bytes the
//! install leaves behind. The budgets are layout facts — they repeat to
//! the byte on one toolchain — with headroom for allocator-independent
//! drift only; a partition, hop group or subscription map that regrows trips
//! them long before an end-to-end `peak_rss_mb` bound would.

use cosmos_bench::fixtures;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, as requested from the allocator (no malloc headers).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic that guards
// no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tests of this binary share one counter: they take turns.
static TURN: Mutex<()> = Mutex::new(());

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// 4 000 filterless subscriptions, one fresh stream each, host → proxy
/// over the `sensor-join` overlay: what `subscribe_batch` adds to the heap
/// — tables, ledgers, installed forms — per routing-table entry. It reads
/// 447 B (495 B while each of the 23 879 hop groups carried its own
/// covering index: a 32-byte header and a 24-byte member for its one
/// forwarding entry, 1 337 224 B in all; 587 B while every partition kept its own projection classes and
/// every hop group its own needs union, 814 B while a forwarded-up record
/// stood beside every forwarding entry, 855 B while members, hop groups
/// and partitions still carried their match counters); commit 9812ce6
/// held 2 520 B per entry here (a 560-byte partition in a half-empty
/// 568-byte map slot, four-element first allocations for one member and
/// one hop group, a per-hop covering bucket in a second map, a `BTreeMap`
/// leaf per installed subscription). No covering bucket exists any more:
/// covering counts over each partition's own threshold lists.
#[test]
fn result_stream_plane_costs_entries_not_streams() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (mut net, subs) = fixtures::result_stream_install(4_000);
    // The subscriptions move into the network, so the baseline is taken
    // with them alive: the delta is what installing them adds.
    let before = live();
    net.subscribe_batch(subs);
    let held = live() - before;
    let entries: usize = net.topology().nodes().map(|n| net.table_len(n)).sum();
    assert_eq!(entries, 27_879, "the fixture itself moved");
    let per_entry = held / entries;
    eprintln!("result-stream plane: {held} B over {entries} entries = {per_entry} B/entry");
    assert!(per_entry <= 700, "{per_entry} B per table entry, over the 700 B budget");
}

/// What one subscription of the 12 000-strong `filter-fanout` population
/// holds on the heap (its stream map, requests, filters and projections;
/// measured on an exact-capacity clone): 544 B. Commit 9812ce6 spent a
/// 1 288-byte `BTreeMap` leaf on each single `(stream, request)` pair.
#[test]
fn a_subscription_holds_its_requests_not_a_tree_node() {
    /// Bytes per subscription of this same measurement at commit 9812ce6.
    const PARENT_BYTES_PER_SUB: usize = 1_712;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (_net, subs) = fixtures::covering_rich_install(12_000);
    let before = live();
    let copy = subs.clone();
    let per_sub = (live() - before) / copy.len();
    eprintln!("covering-rich population: {per_sub} B per subscription");
    assert!(
        per_sub * 100 <= PARENT_BYTES_PER_SUB * 40,
        "{per_sub} B per subscription is over 40 % of the parent's {PARENT_BYTES_PER_SUB}"
    );
}

//! Footprint guard: routing state must cost bytes in proportion to the
//! *entries* it holds, not to the number of streams it holds them for.
//!
//! A massive query population gives every user a result stream with one
//! subscriber, so brokers on the host → proxy paths hold thousands of
//! single-member stream partitions. A massive filtered population is held
//! by its subscriber and by the network, and must be stored once. This
//! binary installs such populations under a per-thread counting
//! `#[global_allocator]` (its own test binary, so no other suite pays for
//! the counting) and asserts the live heap bytes the install leaves
//! behind. The budgets are layout facts — they repeat to the byte on one
//! toolchain — with headroom for allocator-independent drift only; a
//! partition, hop group, subscription body or ledger set that regrows, or
//! a second copy of a population's requests, trips them long before an
//! end-to-end `peak_rss_mb` bound would.

use cosmos_bench::fixtures;
use cosmos_pubsub::broker::BrokerNetwork;
use cosmos_pubsub::subscription::Subscription;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap bytes this thread has requested minus those it has freed (no
    /// malloc headers), wrapping. Per thread, so the test harness's own
    /// allocations on other threads never land in a measurement.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

fn count(add: usize, sub: usize) {
    // A const-initialised `Cell` has no destructor, so the slot is always
    // there; `try_with` only keeps the allocator from ever panicking.
    let _ = LIVE.try_with(|live| live.set(live.get().wrapping_add(add).wrapping_sub(sub)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic that guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `System` for this `layout` (above).
        unsafe { System.dealloc(p, layout) };
        count(0, layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p`, `layout` and `new_size` are the caller's, unchanged.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            count(new_size, layout.size());
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread holds now beyond what it held at `before`
/// (a reading of [`live`]).
fn since(before: usize) -> usize {
    live().wrapping_sub(before)
}

fn live() -> usize {
    LIVE.with(Cell::get)
}

/// Live routing entries over every table of `net`.
fn entries(net: &BrokerNetwork) -> usize {
    net.topology().nodes().map(|n| net.table_len(n)).sum()
}

/// 4 000 filterless subscriptions, one fresh stream each, host → proxy
/// over the `sensor-join` overlay: what `subscribe_batch` adds to the heap
/// — tables, ledgers, installed forms — per routing-table entry. It reads
/// 273 B: a partition's lone member, always-candidate slot and hop group
/// live in its slot, and the batch leaves its tables exact-size (401 B
/// while each of the three was a one-element heap block and the tables
/// kept their doubling slack, 447 B while every owner of an entry kept a vector of its entry
/// slots, 495 B while each of the 23 879 hop groups carried its own
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
    let (mut net, subs) = fixtures::result_stream_install(4_000);
    // The subscriptions move into the network, so the baseline is taken
    // with them alive: the delta is what installing them adds.
    let before = live();
    net.subscribe_batch(subs);
    let held = since(before);
    let entries = entries(&net);
    assert_eq!(entries, 27_879, "the fixture itself moved");
    let per_entry = held / entries;
    eprintln!("result-stream plane: {held} B over {entries} entries = {per_entry} B/entry");
    assert!(per_entry <= 300, "{per_entry} B per table entry, over the 300 B budget");
}

/// What one subscription of the 12 000-strong `filter-fanout` population
/// holds on the heap, built afresh: its request body (one block: a 16 B
/// refcount header and the `(stream, request)` pair), its filters and
/// projections, and its 32 B slot in the population's vector — 421 B.
/// Before a body was shared a subscription held 413 B (a 40 B slot, no
/// header), and a clone as many again; 544 B before the query AST held
/// interned names. Commit 9812ce6 spent a 1 288-byte `BTreeMap` leaf on
/// each single `(stream, request)` pair.
#[test]
fn a_subscription_holds_its_requests_not_a_tree_node() {
    /// Bytes per subscription of this same measurement at commit 9812ce6.
    const PARENT_BYTES_PER_SUB: usize = 1_712;
    /// An unshared subscription, plus one refcount header.
    const UNSHARED_BYTES_PER_SUB: usize = 413 + 16;
    let (_net, subs) = fixtures::covering_rich_install(12_000);
    let rebuild = |sub: &Subscription| {
        let builder = Subscription::builder(sub.subscriber).id(sub.id);
        let builder = sub.streams.iter().fold(builder, |b, (&stream, req)| {
            b.stream(stream, req.projection().clone(), req.filters().to_vec())
        });
        builder.build()
    };
    let before = live();
    let fresh: Vec<Subscription> = subs.iter().map(rebuild).collect();
    let per_sub = since(before) / fresh.len();
    assert_eq!(fresh, subs);
    eprintln!("covering-rich population: {per_sub} B per fresh subscription");
    assert!(
        per_sub * 100 <= PARENT_BYTES_PER_SUB * 40,
        "{per_sub} B per subscription is over 40 % of the parent's {PARENT_BYTES_PER_SUB}"
    );
    assert!(
        per_sub <= UNSHARED_BYTES_PER_SUB,
        "{per_sub} B per subscription is over {UNSHARED_BYTES_PER_SUB}: a body takes a second block"
    );
}

/// A clone of a subscription shares its request body: copying the whole
/// population allocates its vector and nothing else.
#[test]
fn cloning_a_population_copies_only_its_vector() {
    let (_net, subs) = fixtures::covering_rich_install(12_000);
    let before = live();
    let copy = subs.clone();
    let held = since(before);
    assert_eq!(held, copy.capacity() * std::mem::size_of::<Subscription>());
    let shared = |(c, s): (&Subscription, &Subscription)| {
        c.streams.iter().zip(s.streams.iter()).all(|((_, a), (_, b))| std::ptr::eq(a, b))
    };
    assert!(copy.iter().zip(&subs).all(shared), "a clone holds requests of its own");
}

/// The covering-rich population installed the way `filter-fanout`
/// installs it: the caller keeps its subscriptions and the network gets a
/// clone. What the install adds to the heap per routing entry — tables,
/// installed forms, ledgers — reads 400 B: 470 B while partitions kept
/// their lone members and hop groups on the heap and the batch left its
/// tables' growth slack, 722 B while each clone was a
/// deep copy of its requests, 562 B while every owner of a table entry
/// also kept a vector of its slots, 513 B while every dependency set was
/// a B-tree. The budget fails with any one of the four back.
#[test]
fn covering_rich_install_shares_the_callers_requests() {
    const BUDGET: usize = 430;
    let (mut net, subs) = fixtures::covering_rich_install(12_000);
    let before = live();
    net.subscribe_batch(subs.clone());
    let held = since(before);
    let entries = entries(&net);
    assert_eq!(entries, 28_542, "the fixture itself moved");
    let per_entry = held / entries;
    eprintln!("covering-rich install: {held} B over {entries} entries = {per_entry} B/entry");
    assert!(per_entry <= BUDGET, "{per_entry} B per table entry, over the {BUDGET} B budget");
    drop(subs);
}

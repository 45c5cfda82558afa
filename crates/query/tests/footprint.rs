//! Footprint guard: what a parsed query and a record hold on the heap.
//!
//! A massive standing population keeps every parsed query alive, and each
//! filtered subscription keeps a copy of its query's predicates, so the
//! bytes of one AST are a scaling term; records are most of every large
//! resident set (inputs, windows, replay logs, checkpoints). Names in the AST are interned
//! `Symbol`s, so a query holds its three lists and its string constants
//! and nothing else. This binary parses a fixed CQL set under a counting
//! `#[global_allocator]` (its own test binary, so no other suite pays for
//! the counting) and pins the live heap bytes that parsing leaves behind
//! and that a copy of the predicates takes. The budgets are layout facts;
//! they repeat to the byte on one toolchain.

use cosmos_query::record::Record;
use cosmos_query::{parse_query, Predicate, Query, Scalar};
use cosmos_util::intern::{Schema, Symbol};
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

/// 1 200 queries: the shapes of the `filter-fanout` population (one
/// stream, a projection list, one to two selections) and of the
/// `sensor-join` population (two windowed streams, one to three
/// selections, one to three timestamp joins), with varying constants.
fn cql_set() -> Vec<String> {
    let shapes = ["*", "a", "a, b", "b, c", "a, b, c", "d", "c, d, e", "a, e"];
    let ops = ["<", "<=", ">", ">="];
    (0..1_200)
        .map(|i| {
            let t = format!("T{}", i % 4);
            if i % 3 == 2 {
                let sels: Vec<String> = (0..=i % 3)
                    .map(|k| format!("X.snowHeight {} {}", ops[(i + k) % 4], (i * 7 + k) % 120))
                    .collect();
                let joins = ["=", ">=", "<="][..1 + i % 3]
                    .iter()
                    .map(|op| format!("X.timestamp {op} Y.timestamp"))
                    .collect::<Vec<_>>();
                return format!(
                    "SELECT X.*, Y.* FROM Sensor{} [Range {} Seconds] X, Sensor{} [Now] Y \
                     WHERE {} AND {}",
                    i % 100,
                    10 + i % 50,
                    (i + 1) % 100,
                    sels.join(" AND "),
                    joins.join(" AND "),
                );
            }
            let select = shapes[i % shapes.len()]
                .split(", ")
                .map(|a| if a == "*" { a.to_string() } else { format!("{t}.{a}") })
                .collect::<Vec<_>>()
                .join(", ");
            let filter = match i % 5 {
                0 => format!("{t}.b > {}", i % 1000),
                1 | 2 => format!("{t}.a = {} AND {t}.b > {}", i * 13 % 10_000, i % 1000),
                _ => format!("{t}.b > {} AND {t}.c <= {}", i % 1000, i * 7 % 1000),
            };
            format!("SELECT {select} FROM {t} [Now] WHERE {filter}")
        })
        .collect()
}

fn parse_all(texts: &[String]) -> Vec<Query> {
    texts.iter().map(|t| parse_query(t).expect("fixed CQL parses")).collect()
}

/// The live heap bytes of what `parse_query` returns, per query and
/// counting the query's own slot in the result `Vec`: 255 B on this set.
/// With a heap `String` per name and the parser's lists left at their
/// growth capacity it was 942 B, and an exact-capacity clone of those
/// string-keyed trees took 645 B. The parser returns exact capacity, so a
/// clone takes exactly what parsing left behind.
#[test]
fn a_parsed_query_holds_symbols_and_exact_lists() {
    /// Bytes per query of the string-keyed AST as parsed.
    const STRING_KEYED_BYTES_PER_QUERY: usize = 942;
    let texts = cql_set();
    // Names are interned once, for the process, on first sight: parse the
    // set once so that the measured parse allocates only the trees.
    drop(parse_all(&texts));
    let before = live();
    let parsed = parse_all(&texts);
    let held = since(before);
    let cloned = {
        let before = live();
        let copy = parsed.clone();
        let bytes = since(before);
        drop(copy);
        bytes
    };
    let per_query = held / parsed.len();
    eprintln!(
        "parsed: {held} B for {} queries = {per_query} B/query; clone {cloned} B",
        texts.len()
    );
    assert_eq!(held, cloned, "the parser's lists hold spare capacity");
    assert!(
        per_query * 100 <= STRING_KEYED_BYTES_PER_QUERY * 30,
        "{per_query} B per parsed query is over 30 % of the string-keyed {STRING_KEYED_BYTES_PER_QUERY} B"
    );
}

/// What a copy of a query's predicates takes (every filtered subscription
/// holds one), counting its `Vec` header: 152 B per query on this set,
/// against 391 B while every `AttrRef` owned two strings. Beyond its own
/// slots a copy allocates only for string constants, and this set has none.
#[test]
fn a_predicate_copy_holds_no_names() {
    /// Bytes per query of the same copy with string-keyed names.
    const STRING_KEYED_BYTES_PER_QUERY: usize = 391;
    let texts = cql_set();
    let parsed = parse_all(&texts);
    let before = live();
    let copies: Vec<Vec<Predicate>> = parsed.iter().map(|q| q.predicates.clone()).collect();
    let held = since(before);
    let per_query = held / copies.len();
    let slots: usize = copies.iter().map(|p| p.len() * std::mem::size_of::<Predicate>()).sum();
    let outer = copies.len() * std::mem::size_of::<Vec<Predicate>>();
    eprintln!("predicate copies: {held} B = {per_query} B/query ({slots} B of predicates)");
    assert_eq!(held, outer + slots, "a predicate copy allocates beyond its own slots");
    assert!(
        per_query * 100 <= STRING_KEYED_BYTES_PER_QUERY * 45,
        "{per_query} B per predicate copy is over 45 % of the string-keyed {STRING_KEYED_BYTES_PER_QUERY} B"
    );
}

/// What a held record takes, counting its slot in a `Vec`: 32 B inline
/// (stream symbol, schema id, timestamp, payload fat pointer) plus 88 B of
/// shared payload (two `Arc` counts and three 24 B scalars), 120 B for the
/// three integer columns every workload's source records carry. It was
/// 128 B while a record held an `Arc<Schema>` (40 B inline).
#[test]
fn a_held_record_is_32_inline_plus_its_payload() {
    const RECORDS: usize = 10_000;
    const BYTES_PER_RECORD: usize = 32 + 88;
    let stream = Symbol::intern("footprint-sensor");
    let schema = Schema::intern(&["snowHeight", "temperature", "sensorType"].map(Symbol::intern));
    let before = live();
    let mut records = Vec::with_capacity(RECORDS);
    for i in 0..RECORDS as i64 {
        records.push(Record::build(stream, i, schema, |values| {
            values.extend([Scalar::Int(i), Scalar::Int(-i), Scalar::Int(i % 3)])
        }));
    }
    let held = since(before);
    eprintln!("records: {held} B for {RECORDS} = {} B/record", held / RECORDS);
    assert_eq!(held, RECORDS * BYTES_PER_RECORD);
    assert_eq!(
        records[RECORDS - 1].get_sym(schema.attrs()[1]),
        Some(&Scalar::Int(1 - RECORDS as i64))
    );
}

//! `StreamEngine` against `cosmos-oracle`'s `ReferenceEngine`, which shares
//! no code with it, keeps every input and answers each arrival by the
//! definition.
//!
//! Each trial draws two- and three-relation queries whose timestamp
//! predicates take every shape the engine's window retention reads (`=`,
//! `>=`, `>`, `<=`, `<`, `!=`, `TimeDelta`, none) over `[Now]`, `[Range]`
//! and `[Unbounded]` windows, some reading one stream twice, and feeds an
//! in-order schedule with many equal timestamps across streams. Queries
//! arrive and leave mid-stream, and the engine is checkpointed, rebuilt,
//! restored and replayed. Every push must return exactly the reference's
//! results in the reference's order, and a replay exactly what the engine
//! returned the first time, counters included.
//!
//! A failure names its seed and op and how to replay it ([`trial::run`]).
//! `COSMOS_STRESS=1` runs more and longer trials.

use cosmos_engine::checkpoint::{Recoverable, StreamCheckpoint};
use cosmos_engine::exec::StreamEngine;
use cosmos_engine::tuple::Tuple;
use cosmos_oracle::trial::{self, stress};
use cosmos_oracle::ReferenceEngine;
use cosmos_query::{parse_query, Predicate, Query, QueryId, Scalar};
use cosmos_util::intern::Symbol;
use cosmos_util::rng::rng_for;
use rand::rngs::StdRng;
use rand::Rng;

const STREAMS: [&str; 3] = ["R", "S", "T"];
const ALIASES: [&str; 3] = ["A", "B", "C"];
const WINDOWS: [&str; 5] =
    ["[Now]", "[Range 250 Milliseconds]", "[Range 1 Seconds]", "[Range 3 Seconds]", "[Unbounded]"];
/// Timestamp predicate shapes; `TimeDelta` and none have no operator.
const SHAPES: [&str; 8] = ["=", ">=", ">", "<=", "<", "!=", "delta", "none"];

/// A random query. Relation 0's window and the first pair's timestamp
/// shape cycle with the seed, so a short run still covers each of them.
fn random_query(rng: &mut StdRng, seed: u64) -> Query {
    let n = rng.gen_range(2..=3);
    let relations: Vec<String> = (0..n)
        .map(|i| {
            let window =
                if i == 0 { seed as usize % 3 * 2 } else { rng.gen_range(0..WINDOWS.len()) };
            let stream = STREAMS[rng.gen_range(0..STREAMS.len())];
            format!("{stream} {} {}", WINDOWS[window], ALIASES[i])
        })
        .collect();
    let mut preds = Vec::new();
    let mut deltas = Vec::new();
    for (pair, (i, j)) in [(0, 1), (1, 2), (0, 2)].into_iter().filter(|&(_, j)| j < n).enumerate() {
        let (l, r) =
            if rng.gen_bool(0.5) { (ALIASES[i], ALIASES[j]) } else { (ALIASES[j], ALIASES[i]) };
        let shape = if pair == 0 {
            (seed / 3) as usize % SHAPES.len()
        } else {
            rng.gen_range(0..SHAPES.len())
        };
        match SHAPES[shape] {
            "none" => {}
            "delta" => {
                let min_ms = rng.gen_range(-12i64..=4) * 250;
                let max_ms = min_ms + rng.gen_range(0i64..=8) * 250;
                deltas.push(Predicate::TimeDelta {
                    left: l.into(),
                    right: r.into(),
                    min_ms,
                    max_ms,
                });
            }
            op => preds.push(format!("{l}.timestamp {op} {r}.timestamp")),
        }
        if rng.gen_bool(0.5) {
            preds.push(format!("{l}.k = {r}.k"));
        }
    }
    if rng.gen_bool(0.3) {
        preds.push(format!("{}.v > {}", ALIASES[rng.gen_range(0..n)], rng.gen_range(-3..3)));
    }
    let clause =
        if preds.is_empty() { String::new() } else { format!(" WHERE {}", preds.join(" AND ")) };
    let text = format!("SELECT * FROM {}{clause}", relations.join(", "));
    let mut query = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
    query.predicates.extend(deltas);
    query
}

/// An in-order input. Time stands still on a third of the draws, and steps
/// of 1 and 249 ms land next to the 250 ms grid that windows and
/// `TimeDelta` bounds sit on.
fn random_tuple(rng: &mut StdRng, ts: &mut i64) -> Tuple {
    *ts += [0i64, 0, 1, 249, 250, 500][rng.gen_range(0..6usize)];
    Tuple::new(STREAMS[rng.gen_range(0..STREAMS.len())], *ts)
        .with("k", Scalar::Int(rng.gen_range(0i64..3)))
        .with("v", Scalar::Int(rng.gen_range(-5i64..5)))
}

type Results = Vec<(QueryId, Vec<(Symbol, Tuple)>)>;

fn engine_push(engine: &mut StreamEngine, tuple: Tuple) -> Results {
    let out = engine.push(tuple);
    out.into_iter()
        .map(|r| (r.query, r.joined.parts().map(|(a, t)| (a, t.clone())).collect()))
        .collect()
}

/// The engine's state at a checkpoint, with its query set and what it
/// was fed since, and what it answered.
struct Backup {
    checkpoint: StreamCheckpoint,
    queries: Vec<(QueryId, Query)>,
    since: Vec<(Tuple, Results)>,
}

fn run_trial(seed: u64, ops: u32) {
    let mut rng = rng_for(seed, "engine-reference");
    let (mut engine, mut reference) = (StreamEngine::new(), ReferenceEngine::new());
    let mut live: Vec<(QueryId, Query)> = Vec::new();
    let mut next_id = 0;
    let mut backup: Option<Backup> = None;
    let mut ts = 0i64;
    for op in 0..ops {
        trial::step(op);
        let at = format!("seed {seed}, op {op}");
        let roll = rng.gen_range(0u32..100);
        if live.is_empty() || roll < 6 {
            let query = random_query(&mut rng, seed + next_id);
            next_id += 1;
            engine.add_query(QueryId(next_id), query.clone());
            reference.add_query(QueryId(next_id), query.clone());
            live.push((QueryId(next_id), query));
            backup = None;
        } else if roll < 10 {
            let (id, _) = live.remove(rng.gen_range(0..live.len()));
            engine.remove_query(id);
            reference.remove_query(id);
            backup = None;
        } else if roll < 18 {
            let (checkpoint, queries) = (engine.checkpoint(), live.clone());
            backup = Some(Backup { checkpoint, queries, since: Vec::new() });
        } else if roll < 24 {
            let Some(b) = &backup else { continue };
            let mut restored = StreamEngine::build(&b.queries);
            restored.restore(&b.checkpoint);
            for (i, (tuple, answered)) in b.since.iter().enumerate() {
                let replayed = engine_push(&mut restored, tuple.clone());
                assert_eq!(&replayed, answered, "{at}: replayed input {i} answers otherwise");
            }
            assert_eq!(restored.total_stats(), engine.total_stats(), "{at}: counters after replay");
            engine = restored;
        } else {
            let tuple = random_tuple(&mut rng, &mut ts);
            let got = engine_push(&mut engine, tuple.clone());
            let want = reference.push(tuple.clone());
            assert_eq!(got, want, "{at}: push of {tuple:?} under {live:?}");
            if let Some(b) = &mut backup {
                b.since.push((tuple, got));
            }
        }
    }
}

#[test]
fn stream_engine_answers_as_the_reference() {
    let (trials, ops) = if stress() { (3_000, 400) } else { (64, 150) };
    trial::run("engine-reference", trials, |seed| run_trial(seed, ops));
}

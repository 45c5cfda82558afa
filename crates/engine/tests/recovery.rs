//! Engine crash-recovery differential suite.
//!
//! Every trial drives a [`ReplayHost`] — the one upstream-backup protocol,
//! the same type `cosmos-pubsub::recovery` hosts on the broker overlay,
//! here fed by a single in-process upstream — through a random
//! interleaving of input batches, checkpoints, crashes, and restores,
//! against a **crash-free twin** consuming the identical input serially.
//! After every operation the host's lifetime output log and execution
//! counters must equal the twin's **bit-for-bit**.
//!
//! Crashes land mid-window by construction: batches are small, windows
//! span many batches, and the op schedule interleaves freely — so
//! checkpoints race crashes, windows are partially filled, and joins are
//! in flight at most failure points.
//!
//! All three stateful engines run the same schedule: [`StreamEngine`]
//! (SPJ window joins), [`AggregateEngine`], and [`SharedEngine`].
//!
//! A failing trial prints its op index and a `COSMOS_REPLAY` line that
//! reruns exactly that trial ([`trial::run`]).
//! `COSMOS_STRESS=1` raises trial counts.
//!
//! The proptests pin the core algebraic law the suite leans on:
//! `restore(extract(e))` is observationally identical to `e` on
//! arbitrary subsequent input — push-for-push output equality.

use cosmos_engine::aggregate::AggregateEngine;
use cosmos_engine::checkpoint::{Recoverable, ReplayHost};
use cosmos_engine::exec::StreamEngine;
use cosmos_engine::shared::SharedEngine;
use cosmos_engine::tuple::Tuple;
use cosmos_oracle::trial::{self, stress};
use cosmos_query::{parse_query, Query, QueryId, Scalar};
use cosmos_util::rng::rng_for;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Random in-order tuple over small key/value domains (small keys force
/// join hits; ties and duplicates are common by design).
fn random_tuple(rng: &mut StdRng, streams: &[&str], ts: &mut i64) -> Tuple {
    *ts += rng.gen_range(0i64..4_000);
    Tuple::new(streams[rng.gen_range(0..streams.len())], *ts)
        .with("k", Scalar::Int(rng.gen_range(0i64..5)))
        .with("v", Scalar::Int(rng.gen_range(-20i64..20)))
}

/// One randomized trial: host vs crash-free twin over an identical
/// input schedule, compared bit-for-bit after every operation.
fn run_trial<E: Recoverable>(trial: u64, label: &str, pool: &[&str], streams: &[&str]) {
    let mut rng = rng_for(trial, label);
    let n_queries = rng.gen_range(1..=pool.len().min(4));
    let queries: Vec<(QueryId, Query)> = (0..n_queries)
        .map(|i| {
            let q = pool[rng.gen_range(0..pool.len())];
            (QueryId(i as u64 + 1), parse_query(q).expect("pool query parses"))
        })
        .collect();
    let mut host: ReplayHost<E> = ReplayHost::new(queries.clone());
    let mut twin = E::build(&queries);
    let mut twin_out: Vec<E::Output> = Vec::new();
    let mut ts = 0i64;
    for step in 0..rng.gen_range(30u32..70) {
        trial::step(step);
        let roll = rng.gen_range(0u32..100);
        if roll < 55 {
            for _ in 0..rng.gen_range(1u32..6) {
                let t = random_tuple(&mut rng, streams, &mut ts);
                twin_out.extend(twin.push(t.clone()));
                host.retain(t);
                host.feed();
            }
        } else if roll < 70 {
            if host.is_up() {
                host.checkpoint();
            }
        } else if roll < 85 {
            if host.is_up() {
                host.crash();
            }
        } else if !host.is_up() {
            host.restore();
        }
        if host.is_up() {
            assert_eq!(host.outputs(), twin_out, "output log diverged from the crash-free twin");
            let (h, t) = (host.stats(), twin.stats());
            assert_eq!(h, t, "execution counters diverged from the crash-free twin");
        }
    }
    trial::step(trial::FINAL);
    if !host.is_up() {
        host.restore();
    }
    assert_eq!(host.outputs(), twin_out, "final output log diverged from the crash-free twin");
    assert_eq!(
        host.stats(),
        twin.stats(),
        "final execution counters diverged from the crash-free twin"
    );
}

fn run_suite<E: Recoverable>(trials: u64, label: &'static str, pool: &[&str], streams: &[&str]) {
    trial::run(label, trials, |trial| run_trial::<E>(trial, label, pool, streams));
}

const STREAM_POOL: [&str; 5] = [
    "SELECT * FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k",
    "SELECT R.v, S.v FROM R [Range 30 Seconds], S [Range 30 Seconds] WHERE R.k = S.k",
    "SELECT R.v FROM R [Range 90 Seconds] WHERE R.v > 5",
    "SELECT * FROM S [Range 45 Seconds], T [Now] WHERE S.k = T.k",
    "SELECT R.v, T.v FROM R [Range 20 Seconds], T [Range 120 Seconds] WHERE R.v = T.v",
];

const AGG_POOL: [&str; 4] = [
    "SELECT COUNT(R.v), SUM(R.v) FROM R [Range 60 Seconds]",
    "SELECT AVG(S.v) FROM S [Range 30 Seconds]",
    "SELECT MIN(T.v), MAX(T.v) FROM T [Unbounded]",
    "SELECT COUNT(R.v) FROM R [Range 90 Seconds] WHERE R.v > 0",
];

const SHARED_POOL: [&str; 4] = [
    "SELECT R.v FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k AND R.v > 3",
    "SELECT R.v, S.v FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k",
    "SELECT S.v FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k AND S.v < 10",
    "SELECT R.k FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k AND R.v = S.v",
];

const STREAMS: [&str; 3] = ["R", "S", "T"];
const RS: [&str; 2] = ["R", "S"];

#[test]
fn stream_engine_recovers_bit_for_bit() {
    run_suite::<StreamEngine>(
        if stress() { 64 } else { 20 },
        "recovery-stream",
        &STREAM_POOL,
        &STREAMS,
    );
}

#[test]
fn aggregate_engine_recovers_bit_for_bit() {
    run_suite::<AggregateEngine>(
        if stress() { 48 } else { 16 },
        "recovery-agg",
        &AGG_POOL,
        &STREAMS,
    );
}

#[test]
fn shared_engine_recovers_bit_for_bit() {
    run_suite::<SharedEngine>(if stress() { 48 } else { 16 }, "recovery-shared", &SHARED_POOL, &RS);
}

/// Builds engine pairs `(original, restored-from-checkpoint)` after a
/// prefix, then proves push-for-push observational identity on an
/// arbitrary suffix.
fn split_feed<E: Recoverable>(
    queries: &[(QueryId, Query)],
    prefix: &[Tuple],
    suffix: &[Tuple],
) -> Result<(), String> {
    let mut a = E::build(queries);
    for t in prefix {
        a.push(t.clone());
    }
    let mut c = E::build(queries);
    c.restore(&a.checkpoint());
    for t in suffix {
        prop_assert_eq!(a.push(t.clone()), c.push(t.clone()), "push-for-push outputs diverged");
    }
    prop_assert_eq!(a.stats(), c.stats());
    Ok(())
}

/// `(ts deltas, keys, values, stream picks)` → an in-order tuple batch.
fn tuples(spec: Vec<(i64, i64, i64, u8)>, streams: &[&str], ts0: &mut i64) -> Vec<Tuple> {
    spec.into_iter()
        .map(|(dt, k, v, s)| {
            *ts0 += dt;
            Tuple::new(streams[s as usize % streams.len()], *ts0)
                .with("k", Scalar::Int(k))
                .with("v", Scalar::Int(v))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `restore(extract(e))` is observationally identical to `e` on
    /// arbitrary subsequent input, for all three stateful engines.
    #[test]
    fn restore_of_extract_is_observationally_identical(
        pre in proptest::collection::vec((0i64..3_000, 0i64..5, -20i64..20, 0u8..3), 0..50),
        post in proptest::collection::vec((0i64..3_000, 0i64..5, -20i64..20, 0u8..3), 0..50),
        picks in proptest::collection::vec(0usize..5, 1..4),
    ) {
        let mut ts = 0i64;
        let prefix = tuples(pre, &STREAMS, &mut ts);
        let suffix = tuples(post, &STREAMS, &mut ts);
        let qs = |pool: &[&str]| -> Vec<(QueryId, Query)> {
            picks.iter()
                .enumerate()
                .map(|(i, &p)| {
                    (QueryId(i as u64 + 1), parse_query(pool[p % pool.len()]).unwrap())
                })
                .collect()
        };
        split_feed::<StreamEngine>(&qs(&STREAM_POOL), &prefix, &suffix)?;
        split_feed::<AggregateEngine>(&qs(&AGG_POOL), &prefix, &suffix)?;
        split_feed::<SharedEngine>(&qs(&SHARED_POOL), &prefix, &suffix)?;
    }
}

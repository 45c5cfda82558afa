//! Operator-state checkpointing and upstream backup for engine crash
//! recovery.
//!
//! The paper pushes query operators out onto the broker overlay, so a
//! broker crash destroys not just routing state (healed incrementally by
//! `cosmos-pubsub`) but the *operator state* hosted there: window buffers,
//! join key indexes, aggregate windows, counters. This module gives every
//! stateful engine one checkpoint format and one recovery protocol, so a
//! restarted broker can resume its operators instead of forgetting them.
//!
//! # Checkpoint lifecycle
//!
//! Every engine implements [`Recoverable`] and checkpoints as a
//! [`StreamCheckpoint`]: per query, its windows as [`BufferState`]s and its
//! counters as [`EngineStats`]. A [`StreamEngine`](crate::exec::StreamEngine)
//! query has one window per relation; an
//! [`AggregateEngine`](crate::aggregate::AggregateEngine) query has one
//! window that never activates a key index; a
//! [`SharedEngine`](crate::shared::SharedEngine) checkpoints its inner
//! merged-query engine. [`ReplayHost`] is where the protocol lives:
//!
//! 1. **Extract.** [`Recoverable::checkpoint`] snapshots all mutable
//!    operator state — window contents in arrival order, the sticky
//!    index-activation flag of each buffer, and the per-query counters —
//!    tagged with the engine's **monotone input watermark**: the count of
//!    tuples consumed via `push` so far. Snapshots share tuple payloads by
//!    `Arc`, so extraction is O(window sizes) refcount bumps, never a deep
//!    copy. A join window holds only what a later arrival can still join
//!    ([`crate::exec`]), so that is all a checkpoint carries.
//! 2. **Retain upstream.** A [`ReplayHost`] keeps every input in one
//!    replay log until a checkpoint watermark acknowledges it. Inputs are
//!    numbered from 0 and the watermark *counts* them, so acking at
//!    watermark `w` drops inputs `0..w` (the ones the checkpoint has
//!    consumed). Input `w + i` sits at log index `i`: retention is exactly
//!    the unacked suffix by construction, and it is bounded by the
//!    checkpoint interval, not stream length.
//! 3. **Restore + replay.** After a crash, a fresh engine is built with
//!    the *same* queries in the *same* registration order, then
//!    [`Recoverable::restore`] overwrites its mutable state from the
//!    checkpoint (key buckets are rebuilt from the arrival-ordered window
//!    contents — derived state never travels), and the host replays the
//!    retained inputs `[w, now)` in input order. Because the restored state
//!    is bit-identical to the state the crash-free run had after its first
//!    `w` inputs — including the sticky `active` flags, which change how
//!    many probe combinations materialize and are therefore observable
//!    through [`EngineStats`] — the replayed run re-derives the exact
//!    outputs and counters of the run that never crashed. Outputs of
//!    inputs consumed before the crash are *verified* against the output
//!    log instead of emitted again (output-side dedup).
//!
//! Compiled shape (predicates, schemas, equi-join plans, residual groups)
//! is deliberately *not* checkpointed: it is a pure function of the query
//! set, which the host re-registers before restoring. `restore`
//! cross-checks that premise and panics on any mismatch — restoring a
//! checkpoint into the wrong query set silently corrupting windows is the
//! one failure mode this plane must never have.
//!
//! Where the inputs come from is the caller's business:
//! `cosmos-pubsub::recovery` feeds a host from the broker overlay and
//! keeps the network side (subscriptions, broker crash and restore, the
//! checkpoint clock).
//!
//! # Examples
//!
//! ```
//! use cosmos_engine::checkpoint::{Recoverable, ReplayHost};
//! use cosmos_engine::exec::StreamEngine;
//! use cosmos_engine::tuple::Tuple;
//! use cosmos_query::{parse_query, QueryId, Scalar};
//!
//! let q = "SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k";
//! let queries = vec![(QueryId(1), parse_query(q)?)];
//! let r = Tuple::new("R", 0).with("k", Scalar::Int(7));
//! let s = Tuple::new("S", 1_000).with("k", Scalar::Int(7));
//! let mut host = ReplayHost::<StreamEngine>::new(queries.clone());
//! host.retain(r.clone());
//! host.feed();
//! host.checkpoint();
//! assert_eq!((host.acked(), host.retained()), (1, 0));
//!
//! // Crash: the engine is lost, and `s` arrives while the host is down.
//! host.crash();
//! host.retain(s.clone());
//! // Rebuilt from the query set, restored, replayed: the join still fires.
//! host.restore();
//! let mut twin = StreamEngine::build(&queries);
//! twin.push(r);
//! assert_eq!(host.outputs(), &twin.push(s)[..]);
//! assert_eq!(host.stats(), twin.stats());
//! # Ok::<(), cosmos_query::ParseError>(())
//! ```

use crate::exec::{EngineStats, WindowBuffer};
use crate::tuple::Tuple;
use cosmos_query::{Query, QueryId};
use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;

/// Extracted state of one window buffer: the arrival-ordered contents and
/// the sticky key-index flag. Key buckets are derived state — rebuilt on
/// restore — so they never travel.
#[derive(Debug, Clone)]
pub struct BufferState {
    /// Window contents in arrival order (`Arc`-shared with the engine).
    pub tuples: Vec<Arc<Tuple>>,
    /// Whether the equi-join key index had activated. Sticky and
    /// observable (indexed probing materializes fewer combinations, which
    /// [`EngineStats::probes`] counts), so it must restore exactly.
    pub active: bool,
}

/// Extracted state of one compiled query.
#[derive(Debug, Clone)]
pub struct QueryState {
    /// The query this state belongs to; restore refuses a mismatch.
    pub id: QueryId,
    /// Execution counters at the checkpoint.
    pub stats: EngineStats,
    /// Window buffers in relation (`FROM`) order.
    pub buffers: Vec<BufferState>,
}

impl QueryState {
    pub(crate) fn new(id: QueryId, stats: EngineStats, windows: &[WindowBuffer]) -> Self {
        Self { id, stats, buffers: windows.iter().map(WindowBuffer::state).collect() }
    }
}

/// The one checkpoint format: everything `restore` needs to make a freshly
/// built engine (same queries, same registration order) observationally
/// identical to the one it was taken from.
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    /// Monotone input watermark: tuples consumed when the checkpoint was
    /// taken. Upstream replay logs truncate at this value.
    pub watermark: u64,
    /// Per-query state in registration order.
    pub queries: Vec<QueryState>,
}

impl StreamCheckpoint {
    /// Overwrites each `(id, windows, counters)` of an engine's queries, in
    /// registration order, from this checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the queries do not match the checkpoint (count, ids, or
    /// per-query window arity).
    pub(crate) fn restore_into<'a>(
        &self,
        queries: impl ExactSizeIterator<Item = (QueryId, &'a mut [WindowBuffer], &'a mut EngineStats)>,
    ) {
        assert_eq!(
            queries.len(),
            self.queries.len(),
            "checkpoint covers {} queries, engine has {}",
            self.queries.len(),
            queries.len()
        );
        for ((id, windows, stats), qs) in queries.zip(&self.queries) {
            assert_eq!(id, qs.id, "checkpoint query order mismatch");
            assert_eq!(
                windows.len(),
                qs.buffers.len(),
                "query {id} buffer arity mismatch: checkpoint has {}, engine has {}",
                qs.buffers.len(),
                windows.len()
            );
            for (w, bs) in windows.iter_mut().zip(&qs.buffers) {
                w.restore(bs);
            }
            *stats = qs.stats;
        }
    }
}

/// A stateful engine the recovery protocol can host: built from its query
/// set, fed one tuple at a time, checkpointed to and restored from a
/// [`StreamCheckpoint`], and counted in [`EngineStats`].
pub trait Recoverable {
    /// One emitted result.
    type Output: PartialEq + Debug;
    /// A fresh engine running `queries` in registration order.
    fn build(queries: &[(QueryId, Query)]) -> Self;
    /// Consumes one input, advancing the watermark by one.
    fn push(&mut self, tuple: Tuple) -> Vec<Self::Output>;
    /// Extracts all mutable operator state against the input watermark.
    fn checkpoint(&self) -> StreamCheckpoint;
    /// Overwrites windows, key indexes and counters from a checkpoint of
    /// an engine built over the same queries; the watermark resumes from
    /// the checkpoint's.
    ///
    /// # Panics
    ///
    /// Panics if the query set does not match the checkpoint.
    fn restore(&mut self, cp: &StreamCheckpoint);
    /// Execution counters summed over the queries.
    fn stats(&self) -> EngineStats;
}

/// Upstream backup for one engine host: the retain → checkpoint-ack →
/// crash → restore → replay-and-verify protocol, for any [`Recoverable`]
/// engine (see the [module docs](self)).
#[derive(Debug)]
pub struct ReplayHost<E: Recoverable> {
    /// Query set in registration order; a restore rebuilds from it.
    queries: Vec<(QueryId, Query)>,
    /// `None` while crashed.
    engine: Option<E>,
    /// Every input the last checkpoint has not acknowledged, in input
    /// order: input `acked + i` sits at index `i`.
    log: VecDeque<Tuple>,
    /// Watermark acknowledged by the last checkpoint.
    acked: u64,
    /// Inputs consumed by the live engine (== its watermark).
    consumed: u64,
    /// Inputs consumed when the host last crashed: replay below this mark
    /// verifies outputs instead of emitting them.
    consumed_at_crash: u64,
    /// Verification cursor into `outputs` during replay.
    verify_cursor: usize,
    last_checkpoint: Option<StreamCheckpoint>,
    /// Output-log length when `last_checkpoint` was taken: replay
    /// verification starts here.
    outputs_at_checkpoint: usize,
    /// Results emitted over the host's lifetime. Survives crashes — it
    /// models output the rest of the system already saw.
    outputs: Vec<E::Output>,
}

impl<E: Recoverable> ReplayHost<E> {
    /// A live host running `queries`, with nothing retained.
    pub fn new(queries: Vec<(QueryId, Query)>) -> Self {
        Self {
            engine: Some(E::build(&queries)),
            queries,
            log: VecDeque::new(),
            acked: 0,
            consumed: 0,
            consumed_at_crash: 0,
            verify_cursor: 0,
            last_checkpoint: None,
            outputs_at_checkpoint: 0,
            outputs: Vec::new(),
        }
    }

    /// Appends the next input to the replay log, crashed or not: inputs
    /// that arrive during downtime are exactly the ones only the log can
    /// still deliver. [`ReplayHost::feed`] hands it to the engine.
    pub fn retain(&mut self, input: Tuple) {
        self.log.push_back(input);
    }

    /// Feeds a live engine every retained input it has not consumed, in
    /// input order. Below the crash mark, outputs verify against the
    /// output log (output-side dedup); past it, they extend the log. A
    /// crashed host consumes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a replayed output diverges from the pre-crash log.
    pub fn feed(&mut self) {
        let Some(engine) = self.engine.as_mut() else { return };
        while self.consumed < self.acked + self.log.len() as u64 {
            let input = self.log[(self.consumed - self.acked) as usize].clone();
            let outputs = engine.push(input);
            self.consumed += 1;
            if self.consumed > self.consumed_at_crash {
                self.outputs.extend(outputs);
                continue;
            }
            for out in outputs {
                assert!(
                    self.verify_cursor < self.outputs.len(),
                    "replay produced more outputs than the pre-crash run"
                );
                assert_eq!(
                    self.outputs[self.verify_cursor], out,
                    "replayed output diverged from the pre-crash log"
                );
                self.verify_cursor += 1;
            }
            if self.consumed == self.consumed_at_crash {
                assert_eq!(
                    self.verify_cursor,
                    self.outputs.len(),
                    "replay must regenerate exactly the pre-crash outputs"
                );
            }
        }
    }

    /// Checkpoints the live engine and acknowledges its watermark: the log
    /// drops every input below it.
    ///
    /// # Panics
    ///
    /// Panics while crashed.
    pub fn checkpoint(&mut self) {
        let cp = self.engine.as_ref().expect("cannot checkpoint a crashed host").checkpoint();
        debug_assert_eq!(cp.watermark, self.consumed, "the feed loop keeps these in lockstep");
        self.log.drain(..(cp.watermark - self.acked) as usize);
        self.acked = cp.watermark;
        self.outputs_at_checkpoint = self.outputs.len();
        self.last_checkpoint = Some(cp);
    }

    /// Drops the engine. The output log and the replay log survive.
    ///
    /// # Panics
    ///
    /// Panics if the host is already down.
    pub fn crash(&mut self) {
        assert!(self.engine.take().is_some(), "host is already down");
        self.consumed_at_crash = self.consumed;
    }

    /// Rebuilds the engine from the query set, restores the last
    /// checkpoint (if any; otherwise the log still holds every input), and
    /// replays the retained suffix.
    ///
    /// # Panics
    ///
    /// Panics if the host is already up, or if replay diverges from the
    /// pre-crash output log.
    pub fn restore(&mut self) {
        assert!(self.engine.is_none(), "host is already up");
        let mut engine = E::build(&self.queries);
        if let Some(cp) = &self.last_checkpoint {
            engine.restore(cp);
        }
        self.engine = Some(engine);
        self.consumed = self.acked;
        self.verify_cursor = self.outputs_at_checkpoint;
        self.feed();
    }

    /// `true` while the engine is live.
    pub fn is_up(&self) -> bool {
        self.engine.is_some()
    }

    /// Results emitted over the host's lifetime, in input order.
    pub fn outputs(&self) -> &[E::Output] {
        &self.outputs
    }

    /// The watermark acknowledged by the last checkpoint.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Inputs retained for replay: exactly those not yet acknowledged.
    pub fn retained(&self) -> usize {
        self.log.len()
    }

    /// Execution counters of the live engine.
    ///
    /// # Panics
    ///
    /// Panics while crashed.
    pub fn stats(&self) -> EngineStats {
        self.engine.as_ref().expect("stats of a live engine").stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateEngine;
    use crate::exec::StreamEngine;
    use crate::shared::SharedEngine;
    use cosmos_query::{parse_query, Scalar};

    fn t(stream: &str, ts: i64, kv: &[(&str, i64)]) -> Tuple {
        let mut tup = Tuple::new(stream, ts);
        for (k, v) in kv {
            tup = tup.with(*k, Scalar::Int(*v));
        }
        tup
    }

    const JOIN: &str = "SELECT * FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k";

    #[test]
    fn stream_checkpoint_restores_windows_and_stats() {
        let mut a = StreamEngine::new();
        a.add_query(QueryId(1), parse_query(JOIN).unwrap());
        for i in 0..40i64 {
            a.push(t("R", i * 100, &[("k", i % 4)]));
        }
        let cp = a.checkpoint();
        assert_eq!(cp.watermark, 40);
        assert!(cp.queries[0].buffers[0].active, "40 tuples outgrow the activation threshold");

        let mut b = StreamEngine::new();
        b.add_query(QueryId(1), parse_query(JOIN).unwrap());
        b.restore(&cp);
        assert_eq!(b.watermark(), 40);
        assert_eq!(b.total_stats(), a.total_stats());
        // Identical subsequent input produces identical output and stats.
        for i in 40..60i64 {
            let probe = t("S", i * 100, &[("k", i % 4)]);
            assert_eq!(a.push(probe.clone()), b.push(probe));
        }
        assert_eq!(b.total_stats(), a.total_stats());
        assert_eq!(b.watermark(), a.watermark());
    }

    #[test]
    fn restore_preserves_inactive_index_flag() {
        // Below the activation threshold the index is off; a restore must
        // not turn it on (probes would diverge from the crash-free run).
        let mut a = StreamEngine::new();
        a.add_query(QueryId(1), parse_query(JOIN).unwrap());
        for i in 0..5i64 {
            a.push(t("R", i, &[("k", i)]));
        }
        let cp = a.checkpoint();
        assert!(!cp.queries[0].buffers[0].active);
        let mut b = StreamEngine::new();
        b.add_query(QueryId(1), parse_query(JOIN).unwrap());
        b.restore(&cp);
        let probe = t("S", 10, &[("k", 3)]);
        assert_eq!(a.push(probe.clone()), b.push(probe));
        assert_eq!(b.total_stats(), a.total_stats());
    }

    #[test]
    #[should_panic(expected = "query order mismatch")]
    fn restore_rejects_wrong_query_set() {
        let mut a = StreamEngine::new();
        a.add_query(QueryId(1), parse_query(JOIN).unwrap());
        let cp = a.checkpoint();
        let mut b = StreamEngine::new();
        b.add_query(QueryId(2), parse_query(JOIN).unwrap());
        b.restore(&cp);
    }

    #[test]
    #[should_panic(expected = "covers 1 queries")]
    fn restore_rejects_wrong_query_count() {
        let mut a = StreamEngine::new();
        a.add_query(QueryId(1), parse_query(JOIN).unwrap());
        let cp = a.checkpoint();
        let mut b = StreamEngine::new();
        b.restore(&cp);
    }

    #[test]
    fn aggregate_checkpoint_round_trips() {
        let src = "SELECT AVG(R.v), COUNT(R.v) FROM R [Range 10 Seconds] WHERE R.v > 0";
        let mut a = AggregateEngine::new();
        a.add_query(QueryId(1), parse_query(src).unwrap());
        for i in 0..10i64 {
            a.push(t("R", i * 500, &[("v", i - 2)])); // some filtered
        }
        let cp = a.checkpoint();
        assert_eq!(cp.watermark, 10);
        let mut b = AggregateEngine::new();
        b.add_query(QueryId(1), parse_query(src).unwrap());
        b.restore(&cp);
        assert_eq!(b.stats(), a.stats());
        assert_eq!(a.stats().filtered, 3, "v = -2, -1, 0 fail the selection");
        for i in 10..20i64 {
            let probe = t("R", i * 500, &[("v", i)]);
            assert_eq!(a.push(probe.clone()), b.push(probe));
        }
        assert_eq!(a.watermark(), b.watermark());
        assert_eq!(b.stats(), a.stats());
    }

    #[test]
    fn shared_checkpoint_round_trips() {
        let queries = || {
            vec![
                (
                    QueryId(1),
                    parse_query(
                        "SELECT R.v FROM R [Range 60 Seconds], S [Now] \
                         WHERE R.k = S.k AND R.v > 10",
                    )
                    .unwrap(),
                ),
                (
                    QueryId(2),
                    parse_query("SELECT R.v FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k")
                        .unwrap(),
                ),
            ]
        };
        let mut a = SharedEngine::build(queries());
        for i in 0..30i64 {
            a.push(t("R", i * 100, &[("k", i % 3), ("v", i)]));
        }
        let cp = a.checkpoint();
        let mut b = SharedEngine::build(queries());
        b.restore(&cp);
        for i in 30..45i64 {
            let probe = t("S", i * 100, &[("k", i % 3)]);
            assert_eq!(a.push(probe.clone()), b.push(probe));
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.watermark(), b.watermark());
    }
}

//! Operator-state checkpointing for engine crash recovery.
//!
//! The paper pushes query operators out onto the broker overlay, so a
//! broker crash destroys not just routing state (healed incrementally by
//! `cosmos-pubsub`) but the *operator state* hosted there: window buffers,
//! join key indexes, aggregate partials, shared-group counters. This module
//! gives every stateful engine an extract/restore API so a restarted broker
//! can resume its operators instead of forgetting them.
//!
//! # Checkpoint lifecycle
//!
//! 1. **Extract.** [`StreamEngine::checkpoint`] (and the aggregate
//!    equivalent; a [`SharedEngine`] checkpoints its inner merged-query
//!    engine as a [`StreamCheckpoint`]) snapshots all mutable operator
//!    state — window contents in arrival order, the sticky
//!    index-activation flag of each buffer, and the per-query execution
//!    counters — tagged with the engine's
//!    **monotone input watermark**: the count of tuples consumed via
//!    `push` so far. Snapshots share tuple payloads by `Arc`, so
//!    extraction is O(window sizes) refcount bumps, never a deep copy.
//! 2. **Retain upstream.** The upstream-backup layer
//!    (`cosmos-pubsub::recovery`) keeps every record forwarded toward the
//!    engine in a replay log until a checkpoint watermark acknowledges it.
//!    Inputs are numbered from 0 and the watermark *counts* them, so
//!    acking at watermark `w` truncates everything numbered below `w`
//!    (inputs `0..w`, the ones the checkpoint has consumed), and
//!    retention is bounded by the checkpoint interval, not stream length.
//! 3. **Restore + replay.** After a crash, a fresh engine is built with
//!    the *same* queries in the *same* registration order, then
//!    [`StreamEngine::restore`] overwrites its mutable state from the
//!    checkpoint (key buckets are rebuilt from the arrival-ordered window
//!    contents — derived state never travels). Upstreams replay the
//!    retained records `[w, now)` in input order; because the restored
//!    state is bit-identical to the state the crash-free run had after
//!    its first `w` inputs — including the sticky `active` flags, which
//!    change how many probe combinations materialize and are therefore
//!    observable through [`EngineStats`] — the replayed run re-derives
//!    the exact outputs and counters of the run that never crashed.
//!
//! Compiled shape (predicates, schemas, equi-join plans, residual groups)
//! is deliberately *not* checkpointed: it is a pure function of the query
//! set, which the recovery layer re-registers before restoring. `restore`
//! cross-checks that premise and panics on any mismatch — restoring a
//! checkpoint into the wrong query set silently corrupting windows is the
//! one failure mode this plane must never have.
//!
//! # Examples
//!
//! ```
//! use cosmos_engine::exec::StreamEngine;
//! use cosmos_engine::tuple::Tuple;
//! use cosmos_query::{parse_query, QueryId, Scalar};
//!
//! let q = "SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k";
//! let mut engine = StreamEngine::new();
//! engine.add_query(QueryId(1), parse_query(q)?);
//! engine.push(Tuple::new("R", 0).with("k", Scalar::Int(7)));
//! let cp = engine.checkpoint();
//! assert_eq!(cp.watermark, 1);
//!
//! // Crash: the engine is lost. Rebuild with the same queries, restore.
//! let mut restored = StreamEngine::new();
//! restored.add_query(QueryId(1), parse_query(q)?);
//! restored.restore(&cp);
//! // The restored engine joins against the checkpointed window.
//! let out = restored.push(Tuple::new("S", 1_000).with("k", Scalar::Int(7)));
//! assert_eq!(out.len(), 1);
//! # Ok::<(), cosmos_query::ParseError>(())
//! ```

use crate::aggregate::AggregateEngine;
use crate::exec::{EngineStats, StreamEngine};
use crate::shared::SharedEngine;
use crate::tuple::Tuple;
use cosmos_query::QueryId;
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

/// Extracted state of one compiled SPJ query.
#[derive(Debug, Clone)]
pub struct QueryState {
    /// The query this state belongs to; restore refuses a mismatch.
    pub id: QueryId,
    /// Execution counters at the checkpoint.
    pub stats: EngineStats,
    /// Window buffers in relation (`FROM`) order.
    pub buffers: Vec<BufferState>,
}

/// A [`StreamEngine`] checkpoint: everything `restore` needs to make a
/// freshly built engine (same queries, same registration order)
/// observationally identical to this one.
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    /// Monotone input watermark: tuples consumed when the checkpoint was
    /// taken. Upstream replay logs truncate at this value.
    pub watermark: u64,
    /// Per-query state in registration order.
    pub queries: Vec<QueryState>,
}

impl StreamEngine {
    /// Extracts a checkpoint of all mutable operator state.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        let queries = self
            .queries()
            .iter()
            .map(|q| QueryState {
                id: q.id(),
                stats: q.stats(),
                buffers: q
                    .buffers()
                    .iter()
                    .map(|b| {
                        let (tuples, active) = b.snapshot();
                        BufferState { tuples, active }
                    })
                    .collect(),
            })
            .collect();
        StreamCheckpoint { watermark: self.watermark(), queries }
    }

    /// Restores a checkpoint taken from an engine with the same queries in
    /// the same registration order, overwriting windows, key indexes, and
    /// counters. The input watermark resumes from the checkpoint's value.
    ///
    /// # Panics
    ///
    /// Panics if the registered query set does not match the checkpoint
    /// (count, ids, or per-query buffer arity).
    pub fn restore(&mut self, cp: &StreamCheckpoint) {
        assert_eq!(
            self.queries().len(),
            cp.queries.len(),
            "checkpoint covers {} queries, engine has {}",
            cp.queries.len(),
            self.queries().len()
        );
        for (q, qs) in self.queries_mut().iter_mut().zip(&cp.queries) {
            assert_eq!(q.id(), qs.id, "checkpoint query order mismatch");
            assert_eq!(
                q.buffers().len(),
                qs.buffers.len(),
                "query {} buffer arity mismatch: checkpoint has {}, engine has {}",
                qs.id,
                qs.buffers.len(),
                q.buffers().len()
            );
            for (b, bs) in q.buffers_mut().iter_mut().zip(&qs.buffers) {
                b.restore(bs.tuples.clone(), bs.active);
            }
            q.set_stats(qs.stats);
        }
        self.set_watermark(cp.watermark);
    }
}

/// Extracted state of one aggregate query: the window plus its counters.
#[derive(Debug, Clone)]
pub struct AggregateQueryState {
    /// The query this state belongs to; restore refuses a mismatch.
    pub id: QueryId,
    /// Window contents in arrival order.
    pub window: Vec<Arc<Tuple>>,
    /// Tuples accepted into the window so far.
    pub emitted: u64,
    /// Tuples rejected by pushed-down selections so far.
    pub filtered: u64,
}

/// An [`AggregateEngine`] checkpoint.
#[derive(Debug, Clone)]
pub struct AggregateCheckpoint {
    /// Monotone input watermark at extraction.
    pub watermark: u64,
    /// Per-query state in registration order.
    pub queries: Vec<AggregateQueryState>,
}

impl AggregateEngine {
    /// Extracts a checkpoint of all mutable operator state.
    pub fn checkpoint(&self) -> AggregateCheckpoint {
        let queries = self
            .queries()
            .iter()
            .map(|q| {
                let (window, emitted, filtered) = q.snapshot();
                AggregateQueryState { id: q.id(), window, emitted, filtered }
            })
            .collect();
        AggregateCheckpoint { watermark: self.watermark(), queries }
    }

    /// Restores a checkpoint taken from an engine with the same queries in
    /// the same registration order.
    ///
    /// # Panics
    ///
    /// Panics if the registered query set does not match the checkpoint.
    pub fn restore(&mut self, cp: &AggregateCheckpoint) {
        assert_eq!(
            self.queries().len(),
            cp.queries.len(),
            "checkpoint covers {} aggregate queries, engine has {}",
            cp.queries.len(),
            self.queries().len()
        );
        for (q, qs) in self.queries_mut().iter_mut().zip(&cp.queries) {
            assert_eq!(q.id(), qs.id, "checkpoint query order mismatch");
            q.restore(qs.window.clone(), qs.emitted, qs.filtered);
        }
        self.set_watermark(cp.watermark);
    }
}

/// A [`SharedEngine`]'s checkpoint is a [`StreamCheckpoint`]: all of a
/// shared engine's mutable state lives in the inner [`StreamEngine`]
/// hosting the merged queries (groups, residual filters, and projection
/// plans are compiled shape; verdicts are per-push scratch).
impl SharedEngine {
    /// Extracts a checkpoint of the inner merged-query engine.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        self.engine().checkpoint()
    }

    /// Restores a checkpoint taken from a shared engine built over the
    /// same member queries in the same order (grouping is deterministic,
    /// so equal builds produce equal merged query sets).
    ///
    /// # Panics
    ///
    /// Panics if the merged query set does not match the checkpoint.
    pub fn restore(&mut self, cp: &StreamCheckpoint) {
        self.engine_mut().restore(cp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for i in 10..20i64 {
            let probe = t("R", i * 500, &[("v", i)]);
            assert_eq!(a.push(probe.clone()), b.push(probe));
        }
        assert_eq!(a.watermark(), b.watermark());
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

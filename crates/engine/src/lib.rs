//! Mini continuous-query stream engine.
//!
//! The paper's prototype runs on GSN, a stream system "tailored for
//! processing data from heterogeneous sensor networks". GSN is external Java
//! software; this crate is the from-scratch substitute: a single-node engine
//! evaluating the CQL subset of [`cosmos_query`] —
//! selection/projection/sliding-window joins over timestamped tuples.
//!
//! Layers:
//!
//! - [`mod@tuple`]: timestamped tuples and joined tuples (with per-relation
//!   timestamps, so residual window filters can be re-applied downstream).
//! - [`exec`]: compiled continuous queries with pushed-down selections,
//!   per-relation window buffers, and event-driven window-join probing;
//!   plus [`exec::StreamEngine`], which hosts many queries and routes
//!   arriving tuples.
//! - [`shared`]: the §2.1 result-sharing mechanism: group mergeable queries,
//!   run one covering query per group, split the shared result stream back
//!   into per-query results with residual filters/projections. An engine
//!   invariant — shared execution produces exactly the same per-query
//!   results as independent execution — is enforced by property tests.
//! - [`checkpoint`]: crash recovery in one format and one protocol. Every
//!   stateful engine (SPJ windows + join indexes, aggregate windows, the
//!   shared engine's merged queries) is [`checkpoint::Recoverable`] and
//!   checkpoints as a [`StreamCheckpoint`] against a monotone input
//!   watermark; [`checkpoint::ReplayHost`] retains the unacked inputs,
//!   restores after a crash and replays, verifying that the restored run
//!   converges bit-for-bit to the crash-free one. `cosmos-pubsub::recovery`
//!   hosts it on the broker overlay.
//!
//! Tuples must arrive in non-decreasing timestamp order across all streams
//! (the usual in-order assumption; the paper's experiments satisfy it by
//! construction). The assumption bounds state too: a join keeps only the
//! tuples a later arrival can still join under the query's timestamp
//! predicates, which may be far fewer than its windows hold ([`exec`]).
//! Debug builds assert the order in [`exec::StreamEngine::push`].
//!
//! # Examples
//!
//! ```
//! use cosmos_engine::exec::StreamEngine;
//! use cosmos_engine::tuple::Tuple;
//! use cosmos_query::{parse_query, QueryId, Scalar};
//!
//! let mut engine = StreamEngine::new();
//! engine.add_query(
//!     QueryId(1),
//!     parse_query("SELECT R.v, S.v FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k")?,
//! );
//! engine.push(Tuple::new("R", 1_000).with("k", Scalar::Int(7)).with("v", Scalar::Int(1)));
//! let out = engine.push(Tuple::new("S", 2_000).with("k", Scalar::Int(7)).with("v", Scalar::Int(2)));
//! assert_eq!(out.len(), 1);
//! # Ok::<(), cosmos_query::ParseError>(())
//! ```

pub mod aggregate;
pub mod checkpoint;
pub mod exec;
pub mod shared;
pub mod tuple;

pub use aggregate::{AggregateEngine, AggregateQuery};
pub use checkpoint::{BufferState, QueryState, Recoverable, ReplayHost, StreamCheckpoint};
pub use exec::{CompiledQuery, EngineStats, ResultTuple, StreamEngine};
pub use shared::SharedEngine;
pub use tuple::{JoinedTuple, ProjPlanCache, Tuple};

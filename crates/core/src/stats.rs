//! Statistics collection (§3.8).
//!
//! "Stream statistics are periodically multicast to the coordinators from
//! the sources. … the stream statistics we need is the data rate of each
//! substream. In addition, each processor periodically collects the average
//! CPU time that each of its running queries consumes per unit time."
//!
//! In the simulation the ground truth lives in the
//! [`cosmos_pubsub::SubstreamTable`] and in each
//! [`QuerySpec`](crate::spec::QuerySpec); what travels between rounds is
//! the [`StatDelta`] stream below.

use cosmos_query::QueryId;

/// One unit of statistics change, as reported between adaptation rounds —
/// the delta stream the incremental optimizer
/// ([`crate::incremental::IncrementalOptimizer`]) ingests instead of
/// re-reading the whole world every round.
///
/// Deltas are *hints*: the optimizer's caches are keyed on content
/// fingerprints, so an over-reported delta costs a little recomputation
/// and an under-reported one is still caught by the fingerprint check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatDelta {
    /// A substream's rate moved (the sources' periodic rate report).
    RateChanged {
        /// Index of the substream whose rate changed.
        substream: usize,
    },
    /// A query's measured statistics (load, result rate, state size) moved.
    QueryChanged {
        /// The query whose statistics changed.
        id: QueryId,
    },
    /// A query arrived (inserted online, §3.6).
    QueryArrived {
        /// The new query.
        id: QueryId,
    },
    /// A query departed.
    QueryDeparted {
        /// The removed query.
        id: QueryId,
    },
    /// A processor joined the hierarchy (§3.3).
    ProcessorJoined,
    /// A processor left the hierarchy.
    ProcessorLeft,
}

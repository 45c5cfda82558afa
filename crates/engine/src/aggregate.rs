//! Windowed aggregation — an engine extension beyond the paper's worked
//! examples, motivated by its own application context (environmental
//! monitoring dashboards want `AVG(snowHeight)`-style rollups, not only
//! joins).
//!
//! An aggregate query is a single-relation CQL query whose `SELECT` list
//! contains aggregate functions:
//!
//! ```text
//! SELECT AVG(S1.snowHeight), MAX(S1.snowHeight)
//! FROM Station1 [Range 30 Minutes] S1
//! WHERE S1.snowHeight >= 0
//! ```
//!
//! Semantics: pushed-down selections filter tuples before they enter the
//! window; on every accepted tuple the engine emits one output tuple with
//! the aggregates evaluated over the current window contents (the usual
//! per-arrival istream behaviour of CQL windowed aggregates). Non-numeric
//! values participate only in `COUNT`.

use crate::checkpoint::{QueryState, Recoverable, StreamCheckpoint};
use crate::exec::{EngineStats, SingleView, WindowBuffer};
use crate::tuple::Tuple;
use cosmos_query::compiled::{eval_compiled, CompiledPredicate};
use cosmos_query::{AggFunc, Query, QueryId, Scalar};
use cosmos_util::intern::{Schema, Symbol};
use std::slice::{from_mut, from_ref};
use std::sync::Arc;

/// A compiled single-relation aggregate query. Names (stream, alias,
/// aggregated attributes, output attribute labels, output stream) are
/// resolved to symbols once at compile time; the per-tuple path allocates
/// only the output payload.
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    id: QueryId,
    stream: Symbol,
    alias: Symbol,
    /// Window width in ms; `None` = unbounded.
    width: Option<i64>,
    selections: Vec<CompiledPredicate>,
    /// `(function, aggregated attribute)` per output column.
    aggs: Vec<(AggFunc, Symbol)>,
    /// Output stream tag (`agg-<id>`), interned once.
    out_stream: Symbol,
    /// Output schema (`FUNC(alias.attr)` labels), interned once.
    out_schema: &'static Schema,
    /// The window: no join attributes, so it never builds a key index.
    window: WindowBuffer,
    stats: EngineStats,
}

impl AggregateQuery {
    /// Compiles an aggregate query.
    ///
    /// # Panics
    ///
    /// Panics if the query is not well-formed, has no aggregates, spans
    /// more than one relation, or mixes aggregates with join predicates.
    pub fn compile(id: QueryId, query: Query) -> Self {
        assert!(query.is_well_formed(), "aggregate query {id} is not well-formed");
        assert!(query.has_aggregates(), "query {id} has no aggregate items");
        assert_eq!(query.relations.len(), 1, "aggregate queries are single-relation (query {id})");
        assert_eq!(
            query.join_predicates().count(),
            0,
            "aggregate queries cannot contain join predicates (query {id})"
        );
        let rel = &query.relations[0];
        let mut aggs = Vec::new();
        let mut labels = Vec::new();
        for p in &query.projection {
            if let cosmos_query::ProjItem::Agg { func, attr } = p {
                let label = Symbol::intern(&format!("{func}({attr})"));
                // Repeated aggregate items collapse to one output column
                // (schemas are positional indices; duplicates are rejected).
                if !labels.contains(&label) {
                    aggs.push((*func, attr.attr));
                    labels.push(label);
                }
            }
        }
        Self {
            id,
            stream: rel.stream,
            alias: rel.alias,
            width: rel.window.width_ms().map(|w| w as i64),
            selections: query.selection_predicates().map(CompiledPredicate::compile).collect(),
            aggs,
            out_stream: Symbol::intern(&format!("agg-{}", id.0)),
            out_schema: Schema::intern(&labels),
            window: WindowBuffer::default(),
            stats: EngineStats::default(),
        }
    }

    /// The query id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    fn evaluate(&self, func: AggFunc, attr: Symbol) -> Scalar {
        let window = &self.window.queue;
        let values = window.iter().filter_map(|t| t.get_sym(attr).and_then(Scalar::as_f64));
        match func {
            AggFunc::Count => Scalar::Int(window.len() as i64),
            AggFunc::Sum => Scalar::Float(values.sum()),
            AggFunc::Avg => {
                let (mut sum, mut n) = (0.0, 0usize);
                for v in values {
                    sum += v;
                    n += 1;
                }
                if n == 0 {
                    Scalar::Float(0.0)
                } else {
                    Scalar::Float(sum / n as f64)
                }
            }
            AggFunc::Min => Scalar::Float(values.fold(f64::INFINITY, f64::min)),
            AggFunc::Max => Scalar::Float(values.fold(f64::NEG_INFINITY, f64::max)),
        }
    }

    /// Feeds one tuple; returns the aggregate output when the tuple enters
    /// the window (selection-passing), `None` otherwise.
    pub fn push(&mut self, tuple: Arc<Tuple>) -> Option<Tuple> {
        if tuple.stream != self.stream {
            return None;
        }
        let now = tuple.timestamp;
        if let Some(w) = self.width {
            self.window.prune(now - w);
        }
        let view = SingleView { alias: self.alias, tuple: &tuple };
        if !eval_compiled(&self.selections, &view) {
            self.stats.filtered += 1;
            return None;
        }
        self.window.push(tuple);
        self.stats.ingested += 1;
        self.stats.emitted += 1;
        let values: Vec<Scalar> =
            self.aggs.iter().map(|&(func, attr)| self.evaluate(func, attr)).collect();
        Some(Tuple::from_parts(self.out_stream, now, self.out_schema, values))
    }
}

/// Hosts many aggregate queries, routing tuples by stream.
///
/// # Examples
///
/// ```
/// use cosmos_engine::aggregate::AggregateEngine;
/// use cosmos_engine::tuple::Tuple;
/// use cosmos_query::{parse_query, QueryId, Scalar};
///
/// let mut engine = AggregateEngine::new();
/// engine.add_query(
///     QueryId(1),
///     parse_query("SELECT AVG(S.v), COUNT(S.v) FROM R [Range 10 Seconds] S")?,
/// );
/// engine.push(Tuple::new("R", 0).with("v", Scalar::Int(10)));
/// let out = engine.push(Tuple::new("R", 1_000).with("v", Scalar::Int(20)));
/// assert_eq!(out[0].1.get("AVG(S.v)"), Some(&Scalar::Float(15.0)));
/// # Ok::<(), cosmos_query::ParseError>(())
/// ```
#[derive(Debug, Default)]
pub struct AggregateEngine {
    queries: Vec<AggregateQuery>,
    /// Monotone input watermark (see [`crate::checkpoint`]).
    inputs: u64,
}

impl AggregateEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an aggregate query.
    ///
    /// # Panics
    ///
    /// See [`AggregateQuery::compile`].
    pub fn add_query(&mut self, id: QueryId, query: Query) {
        self.queries.push(AggregateQuery::compile(id, query));
    }

    /// Pushes a tuple; returns `(query, aggregate output)` pairs.
    pub fn push(&mut self, tuple: Tuple) -> Vec<(QueryId, Tuple)> {
        self.inputs += 1;
        let shared = Arc::new(tuple);
        self.queries
            .iter_mut()
            .filter_map(|q| q.push(shared.clone()).map(|t| (q.id(), t)))
            .collect()
    }

    /// Monotone input watermark: total tuples consumed via
    /// [`AggregateEngine::push`].
    pub fn watermark(&self) -> u64 {
        self.inputs
    }
}

/// An aggregate query checkpoints in the SPJ format: its window is one
/// [`crate::checkpoint::BufferState`] that never activates a key index.
impl Recoverable for AggregateEngine {
    type Output = (QueryId, Tuple);

    fn build(queries: &[(QueryId, Query)]) -> Self {
        let mut engine = Self::new();
        for (id, q) in queries {
            engine.add_query(*id, q.clone());
        }
        engine
    }

    fn push(&mut self, tuple: Tuple) -> Vec<(QueryId, Tuple)> {
        AggregateEngine::push(self, tuple)
    }

    fn checkpoint(&self) -> StreamCheckpoint {
        let queries =
            self.queries.iter().map(|q| QueryState::new(q.id, q.stats, from_ref(&q.window)));
        StreamCheckpoint { watermark: self.inputs, queries: queries.collect() }
    }

    fn restore(&mut self, cp: &StreamCheckpoint) {
        cp.restore_into(
            self.queries.iter_mut().map(|q| (q.id, from_mut(&mut q.window), &mut q.stats)),
        );
        self.inputs = cp.watermark;
    }

    fn stats(&self) -> EngineStats {
        self.queries.iter().map(|q| q.stats).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::parse_query;

    fn t(ts: i64, v: i64) -> Tuple {
        Tuple::new("R", ts).with("v", Scalar::Int(v))
    }

    fn engine(src: &str) -> AggregateEngine {
        let mut e = AggregateEngine::new();
        e.add_query(QueryId(1), parse_query(src).unwrap());
        e
    }

    #[test]
    fn count_sum_avg_min_max_over_window() {
        let mut e = engine(
            "SELECT COUNT(R.v), SUM(R.v), AVG(R.v), MIN(R.v), MAX(R.v) \
             FROM R [Range 10 Seconds]",
        );
        e.push(t(0, 10));
        e.push(t(2_000, 30));
        let out = e.push(t(4_000, 20));
        let (_, agg) = &out[0];
        assert_eq!(agg.get("COUNT(R.v)"), Some(&Scalar::Int(3)));
        assert_eq!(agg.get("SUM(R.v)"), Some(&Scalar::Float(60.0)));
        assert_eq!(agg.get("AVG(R.v)"), Some(&Scalar::Float(20.0)));
        assert_eq!(agg.get("MIN(R.v)"), Some(&Scalar::Float(10.0)));
        assert_eq!(agg.get("MAX(R.v)"), Some(&Scalar::Float(30.0)));
    }

    #[test]
    fn window_expiry_drops_old_tuples() {
        let mut e = engine("SELECT COUNT(R.v) FROM R [Range 10 Seconds]");
        e.push(t(0, 1));
        e.push(t(5_000, 2));
        // At t = 11s the first tuple has expired.
        let out = e.push(t(11_000, 3));
        assert_eq!(out[0].1.get("COUNT(R.v)"), Some(&Scalar::Int(2)));
    }

    #[test]
    fn selection_pushdown_filters_before_window() {
        let mut e = engine("SELECT COUNT(R.v) FROM R [Range 1 Minute] WHERE R.v > 10");
        assert!(e.push(t(0, 5)).is_empty());
        let out = e.push(t(1_000, 20));
        assert_eq!(out[0].1.get("COUNT(R.v)"), Some(&Scalar::Int(1)));
    }

    #[test]
    fn unbounded_window_accumulates_forever() {
        let mut e = engine("SELECT SUM(R.v) FROM R [Unbounded]");
        for i in 1..=10 {
            e.push(t(i * 100_000, i));
        }
        let out = e.push(t(10_000_000, 0));
        assert_eq!(out[0].1.get("SUM(R.v)"), Some(&Scalar::Float(55.0)));
    }

    #[test]
    fn parses_with_alias_and_display_round_trips() {
        let q =
            parse_query("SELECT AVG(S1.snowHeight) FROM Station1 [Range 30 Minutes] S1").unwrap();
        assert!(q.has_aggregates());
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn missing_attr_counts_but_does_not_sum() {
        let mut e = engine("SELECT COUNT(R.v), SUM(R.v) FROM R [Range 1 Minute]");
        let out = e.push(Tuple::new("R", 0).with("other", Scalar::Int(1)));
        assert_eq!(out[0].1.get("COUNT(R.v)"), Some(&Scalar::Int(1)));
        assert_eq!(out[0].1.get("SUM(R.v)"), Some(&Scalar::Float(0.0)));
    }

    #[test]
    fn other_streams_are_ignored() {
        let mut e = engine("SELECT COUNT(R.v) FROM R [Range 1 Minute]");
        assert!(e.push(Tuple::new("Z", 0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "single-relation")]
    fn multi_relation_aggregate_rejected() {
        let q = parse_query("SELECT COUNT(R.v) FROM R [Now], S [Now] WHERE R.k = S.k").unwrap();
        let _ = AggregateQuery::compile(QueryId(1), q);
    }

    #[test]
    #[should_panic(expected = "no aggregate items")]
    fn plain_query_rejected() {
        let q = parse_query("SELECT * FROM R [Now]").unwrap();
        let _ = AggregateQuery::compile(QueryId(1), q);
    }

    #[test]
    fn duplicate_aggregate_items_collapse_to_one_column() {
        let mut e = engine("SELECT COUNT(R.v), COUNT(R.v), SUM(R.v) FROM R [Range 1 Minute]");
        let out = e.push(t(0, 10));
        let (_, agg) = &out[0];
        assert_eq!(agg.len(), 2, "repeated COUNT collapses to one column");
        assert_eq!(agg.get("COUNT(R.v)"), Some(&Scalar::Int(1)));
        assert_eq!(agg.get("SUM(R.v)"), Some(&Scalar::Float(10.0)));
    }
}

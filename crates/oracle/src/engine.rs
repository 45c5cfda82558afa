//! The reference SPJ engine: what `cosmos_engine::StreamEngine` must answer,
//! computed by the definition. It shares no code with the engine: queries
//! stay CQL ASTs, predicates go through `cosmos-query`'s `eval_predicate`,
//! every input is kept, and each arrival is answered by nested loops over
//! everything a registered query has seen.

use cosmos_query::predicate::{eval_predicate, AttrSource};
use cosmos_query::{AttrRef, Query, QueryId, Record, Scalar};
use cosmos_util::intern::{sym_timestamp, Symbol};

/// A continuous-query engine with no state but its inputs. A join result is
/// a combination of one input per `FROM` relation that the engine's
/// candidate rules admit and every predicate of the query holds on:
///
/// - **window**: a candidate for relation `j` is at most `w_j` older than
///   the arrival (`[Now]` is 0, `[Unbounded]` has no bound);
/// - **emit once**: the arrival is the latest tuple of the combination;
/// - **arrival order**: an arrival takes a query's relations one by one in
///   `FROM` order, so a relation that reads the same stream *before* the
///   one it takes already holds it.
///
/// Inputs must arrive in timestamp order, as the engine requires.
#[derive(Debug, Default)]
pub struct ReferenceEngine {
    /// Registered queries in registration order, each with the number of
    /// inputs fed before it: a query sees only what came after it.
    queries: Vec<(QueryId, Query, usize)>,
    /// Every input so far, in arrival order.
    inputs: Vec<Record>,
}

/// A combination of inputs bound to their relations' aliases.
struct Combination<'a>(Vec<(Symbol, &'a Record)>);

impl Combination<'_> {
    fn part(&self, alias: Symbol) -> Option<&Record> {
        self.0.iter().find(|(a, _)| *a == alias).map(|(_, t)| *t)
    }
}

impl AttrSource for Combination<'_> {
    fn value(&self, attr: &AttrRef) -> Option<Scalar> {
        let part = self.part(attr.relation)?;
        if attr.attr == sym_timestamp() {
            return Some(Scalar::Int(part.timestamp));
        }
        part.get_sym(attr.attr).cloned()
    }

    fn timestamp(&self, alias: Symbol) -> Option<i64> {
        self.part(alias).map(|t| t.timestamp)
    }
}

impl ReferenceEngine {
    /// An engine with no queries and no inputs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `query`; it sees the inputs fed from now on.
    pub fn add_query(&mut self, id: QueryId, query: Query) {
        self.queries.push((id, query, self.inputs.len()));
    }

    /// Deregisters query `id`.
    pub fn remove_query(&mut self, id: QueryId) {
        self.queries.retain(|(q, ..)| *q != id);
    }

    /// Feeds one input and returns the results it completes, each as its
    /// query and `(alias, input)` in `FROM` order. They come in the
    /// engine's order: by query in registration order, by the relation the
    /// arrival takes, then by the other relations' inputs in arrival order,
    /// the earlier relation varying slowest.
    pub fn push(&mut self, tuple: Record) -> Vec<(QueryId, Vec<(Symbol, Record)>)> {
        self.inputs.push(tuple);
        let arrival = self.inputs.len() - 1;
        let mut out = Vec::new();
        for (id, query, since) in &self.queries {
            for (taken, rel) in query.relations.iter().enumerate() {
                if rel.stream != self.inputs[arrival].stream {
                    continue;
                }
                let mut picked = vec![arrival; query.relations.len()];
                self.extend(query, (*since, arrival, taken), 0, &mut picked, &mut |picked| {
                    let parts = query.relations.iter().zip(picked);
                    let joined = parts.map(|(r, &i)| (r.alias, self.inputs[i].clone()));
                    out.push((*id, joined.collect()));
                });
            }
        }
        out
    }

    /// Binds relation `j` and every later one to each admitted candidate
    /// in turn, and hands each complete combination the query's whole
    /// `WHERE` clause holds on to `emit`.
    fn extend(
        &self,
        query: &Query,
        (since, arrival, taken): (usize, usize, usize),
        j: usize,
        picked: &mut Vec<usize>,
        emit: &mut dyn FnMut(&[usize]),
    ) {
        if j == query.relations.len() {
            let parts = query.relations.iter().zip(picked.iter());
            let combination =
                Combination(parts.map(|(r, &i)| (r.alias, &self.inputs[i])).collect());
            let holds = |p| eval_predicate(p, &combination).unwrap_or(false);
            if query.predicates.iter().all(holds) {
                emit(picked);
            }
            return;
        }
        if j == taken {
            return self.extend(query, (since, arrival, taken), j + 1, picked, emit);
        }
        let rel = &query.relations[j];
        let now = self.inputs[arrival].timestamp;
        // A relation before the one the arrival takes already holds it.
        let end = if j < taken { arrival + 1 } else { arrival };
        for c in since..end {
            let cand = &self.inputs[c];
            let in_window = rel.window.width_ms().is_none_or(|w| cand.timestamp >= now - w as i64);
            // Emit once: the arrival is the latest of the combination, and
            // an equal timestamp counts as earlier only on an earlier
            // relation. Finding d: a partner arriving at the same time on a
            // later relation is lost. Its fix changes this rule and the
            // engine's together.
            let earlier = cand.timestamp < now || (cand.timestamp == now && j < taken);
            if rel.stream == cand.stream && in_window && earlier {
                picked[j] = c;
                self.extend(query, (since, arrival, taken), j + 1, picked, emit);
            }
        }
    }
}

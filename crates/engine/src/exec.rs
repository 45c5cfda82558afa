//! Compiled continuous queries and the multi-query engine.
//!
//! Each query compiles to per-relation window buffers with pushed-down
//! selection predicates (early filtering — tuples failing their relation's
//! selections never enter a window) and an event-driven probe: when a tuple
//! arrives on relation `i`, it is combined with every window combination of
//! the other relations; combinations passing the join predicates are
//! emitted. A pair is emitted exactly once — when its *later* tuple arrives
//! (ties broken by relation position).
//!
//! A window keeps only what a later arrival can still join. At compile
//! time each relation `i` gets a *lead*: the least `ts_i − ts_j` that the
//! query's direct timestamp predicates allow against every other relation
//! `j` (`=` gives 0 both ways, `>=` 0 and `>` 1 one way, `<=` and `<` the
//! mirror, `TimeDelta` its `min_ms` one way and `−max_ms` the other, `!=`
//! nothing). A relation some `j` leaves unconstrained has no lead. Each
//! arrival at `now` cuts relation `i` at the later of its window edge
//! `now − w_i` and `now + lead_i`. Tuples arrive in timestamp order (crate
//! docs), so every later arrival `t ≥ now`, and a tuple the lead cuts
//! breaks its direct predicate against it: dropping it changes no result
//! and no counter but `probes`. The rule is exact while timestamps stay
//! within ±2⁵³ ms, where the `f64` comparison predicates use is exact. It
//! looks at direct pairs only, so with three or more relations it is
//! conservative.
//!
//! A result is projected through one column plan
//! ([`crate::tuple`]), cached in one place: the [`ProjPlanCache`] its owner
//! hangs off itself (`ResultTuple::project_cached`). The uncached entry
//! point (`ResultTuple::project_compiled`) builds the plan per call.

use crate::checkpoint::{BufferState, QueryState, Recoverable, StreamCheckpoint};
pub use crate::tuple::ProjPlanCache;
use crate::tuple::{JoinedTuple, Tuple};
use cosmos_query::compiled::{eval_compiled, CompiledPredicate, Operand, ScalarRef, SymSource};
use cosmos_query::{CmpOp, ProjItem, Query, QueryId, Scalar};
use cosmos_util::intern::Symbol;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A projection list with aliases and attributes resolved to symbols once,
/// so applying it to a result tuple compares integers only. Two
/// compilations are equal when they keep the same columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProjection {
    items: Vec<ProjSym>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProjSym {
    All,
    AllOf(Symbol),
    Attr(Symbol, Symbol),
}

impl CompiledProjection {
    /// Resolves a projection list. Aggregate items are skipped — they are
    /// evaluated by the `AggregateEngine`, never by SPJ projection.
    pub fn compile(items: &[ProjItem]) -> Self {
        let items = items
            .iter()
            .filter_map(|item| match item {
                ProjItem::All => Some(ProjSym::All),
                ProjItem::AllOf(a) => Some(ProjSym::AllOf(*a)),
                ProjItem::Attr(ar) => Some(ProjSym::Attr(ar.relation, ar.attr)),
                ProjItem::Agg { .. } => None,
            })
            .collect();
        Self { items }
    }

    /// The keep rule `JoinedTuple::build_plan` takes: does the projection
    /// list `alias.attr`?
    fn keeps(&self) -> impl Fn(Symbol, Symbol) -> bool + '_ {
        |alias, attr| {
            self.items.iter().any(|item| match item {
                ProjSym::All => true,
                ProjSym::AllOf(a) => *a == alias,
                ProjSym::Attr(a, at) => *a == alias && *at == attr,
            })
        }
    }
}

/// One emitted result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTuple {
    /// The query that produced the result.
    pub query: QueryId,
    /// The joined source tuples.
    pub joined: JoinedTuple,
}

impl ResultTuple {
    /// Applies the producing query's compiled projection, flattening to a
    /// tuple on `result_stream` with `alias.attr` names — symbol compares
    /// and scalar copies, no string allocation. Component timestamps are
    /// always retained (`alias.timestamp`) so residual filters downstream
    /// can re-check window bounds. The column plan
    /// is built on every call (the output schema is still the interned
    /// one); repeated projection goes through
    /// [`ResultTuple::project_cached`]. Colliding output names (e.g. a
    /// stored `timestamp` attribute) keep their first occurrence, matching
    /// the legacy shadowing behaviour.
    pub fn project_compiled(
        &self,
        projection: &CompiledProjection,
        result_stream: impl Into<Symbol>,
    ) -> Tuple {
        self.joined.apply_plan(&self.joined.build_plan(projection.keeps()), result_stream)
    }

    /// [`ResultTuple::project_compiled`] with an owner-attached plan cache
    /// (one cache per projection — part shapes key the lookup, the
    /// projection's identity is implicit; see [`ProjPlanCache`]). The
    /// steady-state path compares part shapes against stored keys directly
    /// and copies scalars only.
    pub fn project_cached(
        &self,
        projection: &CompiledProjection,
        cache: &mut ProjPlanCache,
        result_stream: impl Into<Symbol>,
    ) -> Tuple {
        let plan = cache.plan_for(&self.joined, projection.keeps());
        self.joined.apply_plan(plan, result_stream)
    }
}

/// Execution counters for load estimation (§3.8 collects "the average CPU
/// time that each of its running queries consumes"; we expose probe/emit
/// counts as the deterministic analogue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tuples accepted into windows (passed selection).
    pub ingested: u64,
    /// Join combinations materialized (candidates skipped by the equi-join
    /// hash index never count — they are never formed).
    pub probes: u64,
    /// Results emitted.
    pub emitted: u64,
    /// Tuples rejected by pushed-down selections.
    pub filtered: u64,
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            ingested: a.ingested + b.ingested,
            probes: a.probes + b.probes,
            emitted: a.emitted + b.emitted,
            filtered: a.filtered + b.filtered,
        })
    }
}

/// A hashable view of an equi-join key value. Numeric values normalize
/// through `f64` bits (with `-0.0` collapsed onto `0.0`), matching
/// [`compare_ref`]'s equality semantics exactly: `Int(5)` and `Float(5.0)`
/// are the same key because `5 = 5.0` evaluates true. `NaN` has no key —
/// it is equal to nothing, so an un-indexed NaN tuple is correct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Num(u64),
    Str(String),
}

fn join_key(v: &Scalar) -> Option<JoinKey> {
    match v {
        Scalar::Int(i) => Some(JoinKey::Num((*i as f64).to_bits())),
        Scalar::Float(f) if f.is_nan() => None,
        Scalar::Float(f) => Some(JoinKey::Num((if *f == 0.0 { 0.0 } else { *f }).to_bits())),
        Scalar::Str(s) => Some(JoinKey::Str(s.clone())),
    }
}

/// One equi-join constraint usable as a probe fast path: this relation's
/// `attr` must equal `other`'s `other_attr`.
#[derive(Debug, Clone)]
struct EquiConstraint {
    attr: Symbol,
    other: usize,
    other_attr: Symbol,
}

/// Buffer size at which the key index switches on: below it, a linear
/// scan is cheaper than maintaining hash buckets (small and `[Now]`
/// windows churn tuples constantly — per-tuple bucket upkeep would cost
/// more than it saves).
const INDEX_ACTIVATION: usize = 16;

/// `(join attr, key value)` → the window's tuples with that key, in
/// arrival (= timestamp) order.
type KeyBuckets = HashMap<(Symbol, JoinKey), VecDeque<Arc<Tuple>>>;

/// A window buffer with a lazily-activated `(join attr, key value)` hash
/// index over the attributes that participate in equi-join predicates:
/// once the buffer outgrows [`INDEX_ACTIVATION`], probing binds only
/// candidates that can satisfy the join key instead of scanning (and
/// `Arc`-cloning into) every buffered tuple.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowBuffer {
    pub(crate) queue: VecDeque<Arc<Tuple>>,
    /// The key index, allocated when it activates and sticky from then on
    /// — a window that never outgrows [`INDEX_ACTIVATION`], or that no
    /// equi-join reads, pays one pointer for it.
    buckets: Option<Box<KeyBuckets>>,
    /// Attributes of this relation appearing in equi-join predicates.
    indexed_attrs: Box<[Symbol]>,
}

impl WindowBuffer {
    fn new(indexed_attrs: Box<[Symbol]>) -> Self {
        Self { queue: VecDeque::new(), buckets: None, indexed_attrs }
    }

    /// Whether the key index is live.
    fn active(&self) -> bool {
        self.buckets.is_some()
    }

    /// Builds the key index over the whole queue, allocating it if it is
    /// not live yet and keeping its table's room if it is.
    fn reindex(&mut self) {
        let buckets = self.buckets.get_or_insert_with(Box::default);
        buckets.clear();
        for t in &self.queue {
            Self::index_tuple(buckets, &self.indexed_attrs, t);
        }
    }

    fn index_tuple(buckets: &mut KeyBuckets, indexed_attrs: &[Symbol], tuple: &Arc<Tuple>) {
        for &attr in indexed_attrs {
            if let Some(key) = tuple.get_sym(attr).and_then(join_key) {
                buckets.entry((attr, key)).or_default().push_back(tuple.clone());
            }
        }
    }

    pub(crate) fn push(&mut self, tuple: Arc<Tuple>) {
        if let Some(buckets) = &mut self.buckets {
            Self::index_tuple(buckets, &self.indexed_attrs, &tuple);
        }
        self.queue.push_back(tuple);
        if !self.active() && !self.indexed_attrs.is_empty() && self.queue.len() >= INDEX_ACTIVATION
        {
            self.reindex();
        }
    }

    /// Checkpoint extraction: the arrival-ordered window contents plus the
    /// sticky index-activation flag. Together with the compiled query (which
    /// callers rebuild from its source [`Query`]) this is the buffer's
    /// complete observable state — activation must travel with the tuples
    /// because probing through buckets vs. the linear queue materializes
    /// different candidate counts ([`EngineStats::probes`] is observable).
    pub(crate) fn state(&self) -> BufferState {
        BufferState { tuples: self.queue.iter().cloned().collect(), active: self.active() }
    }

    /// Checkpoint restore: replaces the window contents and index flag,
    /// rebuilding the key buckets from the arrival-ordered tuples (bucket
    /// order is derived, so the rebuild is deterministic).
    pub(crate) fn restore(&mut self, state: &BufferState) {
        self.queue = state.tuples.iter().cloned().collect();
        if state.active {
            self.reindex();
        } else {
            self.buckets = None;
        }
    }

    /// Drops tuples older than `cutoff`. Bucket fronts mirror the queue
    /// front (both are arrival-ordered), so each removal is O(1).
    pub(crate) fn prune(&mut self, cutoff: i64) {
        while let Some(front) = self.queue.front() {
            if front.timestamp >= cutoff {
                break;
            }
            let tuple = self.queue.pop_front().expect("front exists");
            let Some(buckets) = &mut self.buckets else { continue };
            for &attr in self.indexed_attrs.iter() {
                if let Some(key) = tuple.get_sym(attr).and_then(join_key) {
                    if let std::collections::hash_map::Entry::Occupied(mut e) =
                        buckets.entry((attr, key))
                    {
                        e.get_mut().pop_front();
                        if e.get().is_empty() {
                            e.remove();
                        }
                    }
                }
            }
        }
    }
}

/// A compiled continuous query: names resolved to symbols, predicates
/// compiled, so the per-tuple path never touches a string.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    id: QueryId,
    /// Source stream per relation, in `FROM` order: what
    /// [`StreamEngine`] routes on. Every per-relation list is exact-size:
    /// a host holds thousands of compiled queries of one or two relations.
    streams: Box<[Symbol]>,
    /// Window width (ms) per relation; `None` = unbounded.
    widths: Box<[Option<i64>]>,
    /// Per relation: the least `ts − now` a tuple can have and still join
    /// a later arrival (module docs); `None` = no bound.
    leads: Box<[Option<i64>]>,
    /// Interned relation aliases, in `FROM` order.
    aliases: Box<[Symbol]>,
    /// Pushed-down selection predicates per relation, symbol-compiled
    /// (exact-size: most lists hold one to three).
    selections: Box<[Box<[CompiledPredicate]>]>,
    /// Join (and any other multi-relation) predicates, symbol-compiled.
    cross: Box<[CompiledPredicate]>,
    /// Per relation: equi-join constraints usable as probe fast paths.
    equi: Box<[Box<[EquiConstraint]>]>,
    /// Window buffers per relation, timestamp-ordered and key-indexed.
    buffers: Box<[WindowBuffer]>,
    stats: EngineStats,
}

impl CompiledQuery {
    /// Compiles `query` for execution.
    ///
    /// # Panics
    ///
    /// Panics if the query is not well-formed.
    pub fn compile(id: QueryId, query: Query) -> Self {
        assert!(query.is_well_formed(), "query {id} is not well-formed");
        assert!(
            !query.has_aggregates(),
            "query {id} contains aggregates; use cosmos_engine::aggregate::AggregateQuery"
        );
        let n = query.relations.len();
        let streams = query.relations.iter().map(|r| r.stream).collect();
        let widths =
            query.relations.iter().map(|r| r.window.width_ms().map(|w| w as i64)).collect();
        let aliases: Box<[Symbol]> = query.relations.iter().map(|r| r.alias).collect();
        let mut selections = vec![Vec::new(); n];
        let mut cross = Vec::new();
        for p in &query.predicates {
            match p {
                cosmos_query::Predicate::Cmp { attr, .. } => {
                    let idx = query
                        .relations
                        .iter()
                        .position(|r| r.alias == attr.relation)
                        .expect("well-formed query has known aliases");
                    selections[idx].push(CompiledPredicate::compile(p));
                }
                _ => cross.push(CompiledPredicate::compile(p)),
            }
        }
        // Equality joins between stored attributes become probe fast
        // paths: each side's buffer indexes the join attribute.
        let mut equi: Vec<Vec<EquiConstraint>> = vec![Vec::new(); n];
        for p in &cross {
            let CompiledPredicate::JoinCmp {
                left: Operand::Attr { rel: lr, attr: la },
                op: cosmos_query::CmpOp::Eq,
                right: Operand::Attr { rel: rr, attr: ra },
            } = p
            else {
                continue;
            };
            let (Some(li), Some(ri)) =
                (aliases.iter().position(|a| a == lr), aliases.iter().position(|a| a == rr))
            else {
                continue;
            };
            if li == ri {
                continue;
            }
            equi[li].push(EquiConstraint { attr: *la, other: ri, other_attr: *ra });
            equi[ri].push(EquiConstraint { attr: *ra, other: li, other_attr: *la });
        }
        let buffers = (0..n)
            .map(|i| {
                let mut attrs: Vec<Symbol> = equi[i].iter().map(|c| c.attr).collect();
                attrs.sort_unstable();
                attrs.dedup();
                WindowBuffer::new(attrs.into_boxed_slice())
            })
            .collect();
        let leads = retention_leads(&aliases, &cross);
        Self {
            id,
            streams,
            widths,
            leads,
            aliases,
            selections: selections.into_iter().map(Vec::into_boxed_slice).collect(),
            cross: cross.into_boxed_slice(),
            equi: equi.into_iter().map(Vec::into_boxed_slice).collect(),
            buffers,
            stats: EngineStats::default(),
        }
    }

    /// The query's identifier.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Execution counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Cuts each window at the later of its edge and the point before
    /// which no arrival from `now` on can join (module docs).
    fn prune(&mut self, now: i64) {
        for ((buf, width), lead) in self.buffers.iter_mut().zip(&self.widths).zip(&self.leads) {
            let edge = width.map(|w| now.saturating_sub(w));
            let joinable = lead.map(|l| now.saturating_add(l));
            if let Some(cutoff) = edge.max(joinable) {
                buf.prune(cutoff);
            }
        }
    }

    /// Feeds one tuple into relation `rel_idx`, returning emitted results.
    fn push_at(&mut self, rel_idx: usize, tuple: Arc<Tuple>, out: &mut Vec<ResultTuple>) {
        let now = tuple.timestamp;
        self.prune(now);
        // Pushed-down selection: reject before the tuple enters the window.
        let alias = self.aliases[rel_idx];
        let probe_view = SingleView { alias, tuple: &tuple };
        if !eval_compiled(&self.selections[rel_idx], &probe_view) {
            self.stats.filtered += 1;
            return;
        }
        self.stats.ingested += 1;

        // Probe: all combinations of other relations' windows.
        let n = self.buffers.len();
        if n == 1 {
            self.stats.probes += 1;
            self.stats.emitted += 1;
            out.push(ResultTuple {
                query: self.id,
                joined: JoinedTuple::new(vec![(alias, tuple.clone())]),
            });
        } else {
            let mut combo: Vec<Option<Arc<Tuple>>> = vec![None; n];
            combo[rel_idx] = Some(tuple.clone());
            let mut ctx = ProbeCtx {
                id: self.id,
                buffers: &self.buffers,
                widths: &self.widths,
                aliases: &self.aliases,
                cross: &self.cross,
                equi: &self.equi,
                stats: &mut self.stats,
            };
            probe_recursive(&mut ctx, 0, rel_idx, now, &mut combo, out);
        }
        self.buffers[rel_idx].push(tuple);
    }
}

/// Per relation, its lead (module docs): the least bound on `ts_i − ts_j`
/// that a direct timestamp predicate of `cross` sets, over every other
/// relation `j`. A relation with no other relation has nothing to join,
/// and its lead is `i64::MAX`.
fn retention_leads(aliases: &[Symbol], cross: &[CompiledPredicate]) -> Box<[Option<i64>]> {
    let n = aliases.len();
    let pos = |alias: Symbol| aliases.iter().position(|&a| a == alias);
    // lower[i][j]: a lower bound on `ts_i − ts_j`; the tightest one wins
    // (`None`, no bound, orders below every `Some`).
    let mut lower = vec![vec![None; n]; n];
    let mut bound = |i: usize, j: usize, b: i64| lower[i][j] = lower[i][j].max(Some(b));
    for p in cross {
        let (left, right, lo, hi) = match *p {
            CompiledPredicate::JoinCmp {
                left: Operand::Timestamp { rel: left },
                op,
                right: Operand::Timestamp { rel: right },
            } => {
                // Timestamps are integer ms, so `>` is `≥ 1`.
                let (lo, hi) = match op {
                    CmpOp::Eq => (Some(0), Some(0)),
                    CmpOp::Ge => (Some(0), None),
                    CmpOp::Gt => (Some(1), None),
                    CmpOp::Le => (None, Some(0)),
                    CmpOp::Lt => (None, Some(-1)),
                    CmpOp::Ne => (None, None),
                };
                (left, right, lo, hi)
            }
            CompiledPredicate::TimeDelta { left, right, min_ms, max_ms } => {
                (left, right, Some(min_ms), Some(max_ms))
            }
            _ => continue,
        };
        // `lo ≤ ts_i − ts_j ≤ hi`, so `ts_j − ts_i ≥ −hi`.
        let (Some(i), Some(j)) = (pos(left), pos(right)) else { continue };
        if i != j {
            lo.into_iter().for_each(|lo| bound(i, j, lo));
            hi.into_iter().for_each(|hi| bound(j, i, hi.saturating_neg()));
        }
    }
    // One unconstrained `j` makes the least bound `None`.
    let lead = |i: usize| (0..n).filter(|&j| j != i).map(|j| lower[i][j]).min();
    (0..n).map(|i| lead(i).unwrap_or(Some(i64::MAX))).collect()
}

/// Borrowed probe state: buffers are shared (so candidate iterators can
/// outlive recursive calls), stats are the only mutation.
struct ProbeCtx<'a> {
    id: QueryId,
    buffers: &'a [WindowBuffer],
    widths: &'a [Option<i64>],
    aliases: &'a [Symbol],
    cross: &'a [CompiledPredicate],
    equi: &'a [Box<[EquiConstraint]>],
    stats: &'a mut EngineStats,
}

fn probe_recursive(
    ctx: &mut ProbeCtx<'_>,
    rel: usize,
    arriving: usize,
    now: i64,
    combo: &mut Vec<Option<Arc<Tuple>>>,
    out: &mut Vec<ResultTuple>,
) {
    let n = ctx.buffers.len();
    if rel == n {
        ctx.stats.probes += 1;
        let parts: Vec<(Symbol, Arc<Tuple>)> = combo
            .iter()
            .enumerate()
            .map(|(i, t)| (ctx.aliases[i], t.clone().expect("combo complete")))
            .collect();
        let joined = JoinedTuple::new(parts);
        if eval_compiled(ctx.cross, &joined) {
            ctx.stats.emitted += 1;
            out.push(ResultTuple { query: ctx.id, joined });
        }
        return;
    }
    if rel == arriving {
        probe_recursive(ctx, rel + 1, arriving, now, combo, out);
        return;
    }
    // Fast path: if the buffer's key index is live and an equi-join
    // constraint links this relation to an already-bound one, probe only
    // the matching key bucket. A bound tuple missing the key attribute
    // (or carrying NaN) satisfies no equality, so there are no candidates
    // at all.
    let buffers = ctx.buffers;
    let fast = if buffers[rel].active() {
        ctx.equi[rel]
            .iter()
            .find_map(|c| combo[c.other].as_ref().map(|b| (c.attr, b.get_sym(c.other_attr))))
    } else {
        None
    };
    let candidates = match fast {
        Some((attr, Some(v))) => match join_key(v) {
            Some(key) => buffers[rel].buckets.as_ref().and_then(|b| b.get(&(attr, key))),
            None => None,
        },
        Some((_, None)) => None,
        None => Some(&buffers[rel].queue),
    };
    let Some(candidates) = candidates else { return };
    for cand in candidates {
        // Window check relative to the arriving tuple's time.
        if let Some(w) = ctx.widths[rel] {
            if cand.timestamp < now - w {
                continue;
            }
        }
        // Emit-once rule: the arriving tuple must be the latest of the
        // combination; ties broken by relation position.
        if cand.timestamp > now || (cand.timestamp == now && rel > arriving) {
            continue;
        }
        combo[rel] = Some(cand.clone());
        probe_recursive(ctx, rel + 1, arriving, now, combo, out);
        combo[rel] = None;
    }
}

/// Evaluates single-relation predicates against a lone tuple under an
/// alias. Shared by the SPJ and aggregate engines.
pub(crate) struct SingleView<'a> {
    pub(crate) alias: Symbol,
    pub(crate) tuple: &'a Tuple,
}

impl SymSource for SingleView<'_> {
    #[inline]
    fn value(&self, rel: Symbol, attr: Symbol) -> Option<ScalarRef<'_>> {
        if rel != self.alias {
            return None;
        }
        self.tuple.get_sym(attr).map(Into::into)
    }

    #[inline]
    fn timestamp(&self, rel: Symbol) -> Option<i64> {
        (rel == self.alias).then_some(self.tuple.timestamp)
    }
}

/// Hosts many continuous queries; routes arriving tuples by stream name.
///
/// See the crate-level example.
#[derive(Debug, Default)]
pub struct StreamEngine {
    queries: Vec<CompiledQuery>,
    /// stream symbol → (query index, relation index) feeds.
    feeds: HashMap<Symbol, Vec<(usize, usize)>>,
    /// Monotone input watermark: tuples consumed via [`StreamEngine::push`]
    /// over the engine's lifetime (including tuples no query reads). The
    /// checkpoint/recovery plane keys replay on it — see
    /// [`crate::checkpoint`].
    inputs: u64,
    /// The latest timestamp pushed since the engine was built or
    /// restored: debug builds check that arrivals are in order, which
    /// window retention relies on (module docs).
    latest: Option<i64>,
}

impl StreamEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query.
    ///
    /// # Panics
    ///
    /// Panics if the query is not well-formed.
    pub fn add_query(&mut self, id: QueryId, query: Query) {
        let compiled = CompiledQuery::compile(id, query);
        let qi = self.queries.len();
        for (ri, &stream) in compiled.streams.iter().enumerate() {
            self.feeds.entry(stream).or_default().push((qi, ri));
        }
        self.queries.push(compiled);
    }

    /// Removes a query (its window state is dropped).
    pub fn remove_query(&mut self, id: QueryId) {
        if let Some(pos) = self.queries.iter().position(|q| q.id == id) {
            self.queries.remove(pos);
            self.feeds.clear();
            for (qi, q) in self.queries.iter().enumerate() {
                for (ri, &stream) in q.streams.iter().enumerate() {
                    self.feeds.entry(stream).or_default().push((qi, ri));
                }
            }
        }
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Pushes one tuple, returning all results it triggers. Timestamps
    /// must not decrease from one push to the next (crate docs); debug
    /// builds assert it.
    pub fn push(&mut self, tuple: Tuple) -> Vec<ResultTuple> {
        let Self { queries, feeds, inputs, latest } = self;
        debug_assert!(
            latest.is_none_or(|l| l <= tuple.timestamp),
            "out-of-order push: timestamp {} after {latest:?}",
            tuple.timestamp
        );
        *latest = Some(tuple.timestamp);
        *inputs += 1;
        let mut out = Vec::new();
        let shared = Arc::new(tuple);
        for &(qi, ri) in feeds.get(&shared.stream).into_iter().flatten() {
            queries[qi].push_at(ri, shared.clone(), &mut out);
        }
        out
    }

    /// Monotone input watermark: total tuples consumed by
    /// [`StreamEngine::push`]. After `restore`, resumes from the restored
    /// checkpoint's watermark.
    pub fn watermark(&self) -> u64 {
        self.inputs
    }

    /// The compiled query with id `id`, if registered.
    pub fn query(&self, id: QueryId) -> Option<&CompiledQuery> {
        self.queries.iter().find(|q| q.id == id)
    }

    /// Aggregate statistics over all queries.
    pub fn total_stats(&self) -> EngineStats {
        self.queries.iter().map(|q| q.stats).sum()
    }
}

impl Recoverable for StreamEngine {
    type Output = ResultTuple;

    fn build(queries: &[(QueryId, Query)]) -> Self {
        let mut engine = Self::new();
        for (id, q) in queries {
            engine.add_query(*id, q.clone());
        }
        engine
    }

    fn push(&mut self, tuple: Tuple) -> Vec<ResultTuple> {
        StreamEngine::push(self, tuple)
    }

    fn checkpoint(&self) -> StreamCheckpoint {
        let queries = self.queries.iter().map(|q| QueryState::new(q.id, q.stats, &q.buffers));
        StreamCheckpoint { watermark: self.inputs, queries: queries.collect() }
    }

    fn restore(&mut self, cp: &StreamCheckpoint) {
        cp.restore_into(self.queries.iter_mut().map(|q| (q.id, &mut q.buffers[..], &mut q.stats)));
        self.inputs = cp.watermark;
        self.latest = None;
    }

    fn stats(&self) -> EngineStats {
        self.total_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::parse_query;

    fn engine_with(src: &str) -> StreamEngine {
        let mut e = StreamEngine::new();
        e.add_query(QueryId(1), parse_query(src).unwrap());
        e
    }

    fn t(stream: &str, ts: i64, kv: &[(&str, i64)]) -> Tuple {
        let mut tup = Tuple::new(stream, ts);
        for (k, v) in kv {
            tup = tup.with(*k, Scalar::Int(*v));
        }
        tup
    }

    #[test]
    fn selection_only_query() {
        let mut e = engine_with("SELECT * FROM R [Now] WHERE R.a > 10");
        assert_eq!(e.push(t("R", 0, &[("a", 15)])).len(), 1);
        assert_eq!(e.push(t("R", 1, &[("a", 5)])).len(), 0);
        let stats = e.total_stats();
        assert_eq!(stats.filtered, 1);
        assert_eq!(stats.emitted, 1);
    }

    #[test]
    fn window_join_within_range() {
        let mut e = engine_with("SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k");
        e.push(t("R", 0, &[("k", 1)]));
        e.push(t("R", 5_000, &[("k", 1)]));
        // S arrives at 8s: both R tuples are within 10s.
        let out = e.push(t("S", 8_000, &[("k", 1)]));
        assert_eq!(out.len(), 2);
        // S arrives at 12s: only the R@5s tuple remains in window.
        let out = e.push(t("S", 12_000, &[("k", 1)]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].joined.part("R".into()).unwrap().timestamp, 5_000);
    }

    #[test]
    fn join_key_mismatch_produces_nothing() {
        let mut e = engine_with("SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k");
        e.push(t("R", 0, &[("k", 1)]));
        assert_eq!(e.push(t("S", 1_000, &[("k", 2)])).len(), 0);
    }

    #[test]
    fn now_window_joins_only_simultaneous() {
        let mut e = engine_with("SELECT * FROM R [Now], S [Now] WHERE R.k = S.k");
        e.push(t("R", 1_000, &[("k", 1)]));
        // Same timestamp: joins.
        assert_eq!(e.push(t("S", 1_000, &[("k", 1)])).len(), 1);
        // Later: R@1s expired from [Now] window.
        assert_eq!(e.push(t("S", 2_000, &[("k", 1)])).len(), 0);
    }

    #[test]
    fn each_pair_emitted_exactly_once() {
        let mut e =
            engine_with("SELECT * FROM R [Range 1 Minute], S [Range 1 Minute] WHERE R.k = S.k");
        let mut total = 0;
        total += e.push(t("R", 0, &[("k", 1)])).len();
        total += e.push(t("S", 0, &[("k", 1)])).len(); // pair (R@0, S@0)
        total += e.push(t("R", 1_000, &[("k", 1)])).len(); // pair (R@1, S@0)
        total += e.push(t("S", 2_000, &[("k", 1)])).len(); // pairs with R@0, R@1
        assert_eq!(total, 4);
    }

    #[test]
    fn selection_pushdown_blocks_window_entry() {
        let mut e =
            engine_with("SELECT * FROM R [Range 1 Minute], S [Now] WHERE R.k = S.k AND R.a > 10");
        e.push(t("R", 0, &[("k", 1), ("a", 5)])); // filtered out
        assert_eq!(e.push(t("S", 1_000, &[("k", 1)])).len(), 0);
        e.push(t("R", 2_000, &[("k", 1), ("a", 20)]));
        assert_eq!(e.push(t("S", 3_000, &[("k", 1)])).len(), 1);
        assert_eq!(e.query(QueryId(1)).unwrap().stats().filtered, 1);
    }

    #[test]
    fn three_way_join() {
        let mut e = engine_with(
            "SELECT * FROM A [Range 1 Minute], B [Range 1 Minute], C [Now] \
             WHERE A.k = B.k AND B.k = C.k",
        );
        e.push(t("A", 0, &[("k", 7)]));
        e.push(t("B", 1_000, &[("k", 7)]));
        let out = e.push(t("C", 2_000, &[("k", 7)]));
        assert_eq!(out.len(), 1);
        let j = &out[0].joined;
        assert_eq!(j.part("A".into()).unwrap().timestamp, 0);
        assert_eq!(j.part("B".into()).unwrap().timestamp, 1_000);
        assert_eq!(j.part("C".into()).unwrap().timestamp, 2_000);
    }

    #[test]
    fn inequality_join_predicate() {
        let mut e = engine_with("SELECT * FROM R [Range 1 Minute], S [Now] WHERE R.v > S.v");
        e.push(t("R", 0, &[("v", 10)]));
        assert_eq!(e.push(t("S", 1_000, &[("v", 5)])).len(), 1);
        assert_eq!(e.push(t("S", 2_000, &[("v", 15)])).len(), 0);
    }

    #[test]
    fn self_stream_two_relations() {
        // Same stream twice under different aliases.
        let mut e =
            engine_with("SELECT * FROM R [Range 1 Minute] A, R [Range 1 Minute] B WHERE A.v < B.v");
        e.push(t("R", 0, &[("v", 1)]));
        let out = e.push(t("R", 1_000, &[("v", 2)]));
        // A@0 (v=1) < B@1s (v=2): one pair. The reverse has v 2 < 1: no.
        // Self-pair at same timestamp checked once in each role: v<v false.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn projection_of_results() {
        let mut e = engine_with("SELECT R.v FROM R [Range 1 Minute], S [Now] WHERE R.k = S.k");
        e.push(t("R", 0, &[("k", 1), ("v", 42), ("x", 9)]));
        let out = e.push(t("S", 500, &[("k", 1), ("y", 3)]));
        let projected = out[0].project_compiled(
            &CompiledProjection::compile(
                &parse_query("SELECT R.v FROM R [Range 1 Minute], S [Now] WHERE R.k = S.k")
                    .unwrap()
                    .projection,
            ),
            "res",
        );
        assert_eq!(projected.get("R.v"), Some(&Scalar::Int(42)));
        assert_eq!(projected.get("R.x"), None);
        assert_eq!(projected.get("S.y"), None);
        // Component timestamps always retained.
        assert_eq!(projected.get("R.timestamp"), Some(&Scalar::Int(0)));
    }

    /// The projection entry points are one column plan: `project_compiled`
    /// (of a fresh compilation and of a reused one) and `project_cached`
    /// (cold, warm, and with two part-shape sets through one cache) return
    /// equal tuples on the same interned schema, and `flatten` equals
    /// `flatten_cached`.
    #[test]
    fn projection_entry_points_agree() {
        use cosmos_query::AttrRef;
        let part = |stream: &str, ts: i64, kv: &[(&str, i64)]| Arc::new(t(stream, ts, kv));
        let result = |parts: Vec<(&str, Arc<Tuple>)>| ResultTuple {
            query: QueryId(1),
            joined: JoinedTuple::new(parts.into_iter().map(|(a, p)| (a.into(), p)).collect()),
        };
        // B stores an attribute named `timestamp`; the second shape binds
        // alias A twice. Colliding names keep their first occurrence.
        let shapes = [
            result(vec![
                ("A", part("R", 1_000, &[("x", 1), ("y", 2)])),
                ("B", part("S", 2_000, &[("x", 3), ("timestamp", 99)])),
            ]),
            result(vec![
                ("A", part("R", 3_000, &[("x", 4), ("timestamp", 98), ("z", 5)])),
                ("A", part("S", 4_000, &[("x", 6)])),
            ]),
        ];
        let all = CompiledProjection::compile(&[ProjItem::All]);
        let first = shapes[0].project_compiled(&all, "res");
        assert_eq!(first.get("B.timestamp"), Some(&Scalar::Int(2_000)), "header column first");
        let second = shapes[1].project_compiled(&all, "res");
        assert_eq!(second.get("A.x"), Some(&Scalar::Int(4)), "first part of a repeated alias");
        assert_eq!(second.get("A.timestamp"), Some(&Scalar::Int(3_000)));
        let lists = [
            vec![ProjItem::All],
            vec![ProjItem::AllOf("A".into())],
            vec![ProjItem::Attr(AttrRef::new("A", "x"))],
        ];
        for items in &lists {
            let compiled = CompiledProjection::compile(items);
            let mut cache = ProjPlanCache::new();
            // Cold and warm on the first shape, then the second shape's
            // cold and warm, then the first again through the same cache.
            for r in [&shapes[0], &shapes[0], &shapes[1], &shapes[1], &shapes[0]] {
                let reference = r.project_compiled(&CompiledProjection::compile(items), "res");
                for other in [
                    r.project_compiled(&compiled, "res"),
                    r.project_cached(&compiled, &mut cache, "res"),
                ] {
                    assert_eq!(other, reference, "{items:?}");
                    assert!(std::ptr::eq(other.schema(), reference.schema()), "{items:?}");
                    assert_eq!(other.schema().id(), reference.schema().id(), "{items:?}");
                }
            }
        }
        let mut cache = ProjPlanCache::new();
        for r in [&shapes[0], &shapes[0], &shapes[1], &shapes[1], &shapes[0]] {
            let (flat, cached) =
                (r.joined.flatten("res"), r.joined.flatten_cached(&mut cache, "res"));
            assert_eq!(cached, flat);
            assert!(std::ptr::eq(cached.schema(), flat.schema()));
            assert_eq!(cached.schema().id(), flat.schema().id());
            assert_eq!(flat, r.project_compiled(&all, "res"), "flatten keeps every column");
        }
    }

    #[test]
    fn unrelated_stream_is_ignored() {
        let mut e = engine_with("SELECT * FROM R [Now]");
        assert_eq!(e.push(t("Z", 0, &[])).len(), 0);
    }

    #[test]
    fn remove_query_stops_results() {
        let mut e = engine_with("SELECT * FROM R [Now]");
        assert_eq!(e.push(t("R", 0, &[])).len(), 1);
        e.remove_query(QueryId(1));
        assert_eq!(e.push(t("R", 1, &[])).len(), 0);
        assert_eq!(e.query_count(), 0);
    }

    #[test]
    fn equi_index_joins_int_and_float_keys() {
        // compare_ref says Int(1) = Float(1.0); the key index must agree.
        let mut e = engine_with("SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k");
        e.push(Tuple::new("R", 0).with("k", Scalar::Float(1.0)));
        e.push(Tuple::new("R", 100).with("k", Scalar::Float(-0.0)));
        assert_eq!(e.push(t("S", 1_000, &[("k", 1)])).len(), 1);
        assert_eq!(e.push(Tuple::new("S", 2_000).with("k", Scalar::Float(0.0))).len(), 1);
    }

    #[test]
    fn equi_index_skips_non_matching_candidates() {
        let mut e = engine_with("SELECT * FROM R [Range 1 Minute], S [Now] WHERE R.k = S.k");
        for i in 0..50 {
            e.push(t("R", i, &[("k", i % 10)]));
        }
        let out = e.push(t("S", 1_000, &[("k", 3)]));
        assert_eq!(out.len(), 5);
        // Probes count only materialized combinations: 5 candidates from
        // the key bucket (plus 50 single-relation ingests probed nothing).
        assert_eq!(e.total_stats().probes, 5);
    }

    #[test]
    fn equi_index_survives_window_pruning() {
        let mut e = engine_with("SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k");
        e.push(t("R", 0, &[("k", 1)]));
        e.push(t("R", 5_000, &[("k", 1)]));
        e.push(t("R", 11_000, &[("k", 1)]));
        // R@0 expired; the bucket must have dropped it too.
        let out = e.push(t("S", 12_000, &[("k", 1)]));
        assert_eq!(out.len(), 2);
        let times: Vec<i64> =
            out.iter().map(|r| r.joined.part("R".into()).unwrap().timestamp).collect();
        assert_eq!(times, vec![5_000, 11_000]);
    }

    #[test]
    fn string_join_keys_use_the_index() {
        let mut e = engine_with("SELECT * FROM R [Range 1 Minute], S [Now] WHERE R.name = S.name");
        e.push(Tuple::new("R", 0).with("name", Scalar::Str("a".into())));
        e.push(Tuple::new("R", 1).with("name", Scalar::Str("b".into())));
        let out = e.push(Tuple::new("S", 1_000).with("name", Scalar::Str("b".into())));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].joined.part("R".into()).unwrap().timestamp, 1);
    }

    #[test]
    fn indexed_probe_equals_full_scan_on_mixed_predicates() {
        // Differential test: `A.k = B.k` is rewritten for the reference
        // engine as `A.k <= B.k AND A.k >= B.k` — semantically identical,
        // but never recognized as an equi-join, so the reference always
        // probes by full window scan. Both engines must emit exactly the
        // same results in the same order; a bucket-index bug that drops
        // valid candidates diverges here.
        let mut indexed = engine_with(
            "SELECT * FROM A [Range 1 Minute], B [Range 1 Minute], C [Now] \
             WHERE A.k = B.k AND B.v < C.v",
        );
        let mut reference = engine_with(
            "SELECT * FROM A [Range 1 Minute], B [Range 1 Minute], C [Now] \
             WHERE A.k <= B.k AND A.k >= B.k AND B.v < C.v",
        );
        let mut indexed_out = Vec::new();
        let mut reference_out = Vec::new();
        for i in 0..30i64 {
            for tup in [
                t("A", i * 100, &[("k", i % 4), ("v", i)]),
                t("B", i * 100 + 10, &[("k", i % 3), ("v", i % 7)]),
                t("C", i * 100 + 20, &[("k", i % 5), ("v", 5)]),
            ] {
                indexed_out.extend(indexed.push(tup.clone()).into_iter().map(|r| r.joined));
                reference_out.extend(reference.push(tup).into_iter().map(|r| r.joined));
            }
        }
        assert!(!indexed_out.is_empty(), "workload must produce joins");
        assert_eq!(indexed_out, reference_out);
    }

    #[test]
    fn multiple_queries_share_input() {
        let mut e = StreamEngine::new();
        e.add_query(QueryId(1), parse_query("SELECT * FROM R [Now] WHERE R.a > 10").unwrap());
        e.add_query(QueryId(2), parse_query("SELECT * FROM R [Now] WHERE R.a > 20").unwrap());
        let out = e.push(t("R", 0, &[("a", 15)]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(1));
        let out = e.push(t("R", 1, &[("a", 25)]));
        assert_eq!(out.len(), 2);
    }
}

//! Subscription content, messages, matching, and covering.
//!
//! A subscription carries exactly the three lists §2.1 gives for `p3₁`:
//!
//! - `S`: the streams requested (here: the keys of [`StreamMap`], the
//!   sorted, shared slice a subscription keeps its per-stream requests in),
//! - `P`: the requested attributes, "so the Pub/Sub can perform projection
//!   of the unnecessary attributes as soon as possible",
//! - `F`: filters "used to perform early data filtering in the Pub/Sub".
//!
//! The *covering* relation (`a.covers(b)` ⇔ every message delivered for `b`
//! would also be delivered for `a`, with at least the same attributes) is
//! what lets brokers merge subscriptions: a node only propagates a new
//! subscription upstream if nothing it already forwarded covers it —
//! which the broker reads off the upstream node's routing table.

use cosmos_net::NodeId;
use cosmos_query::compiled::{eval_compiled, CompiledPredicate, IndexableCmp};
use cosmos_query::predicate::implies;
use cosmos_query::{Predicate, Scalar};
use cosmos_util::intern::{Schema, Symbol};
use cosmos_util::{PlanCache, VecMap};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Unique identifier of a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubId(pub u64);

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Which attributes of a stream a subscription requests.
///
/// Attribute names are interned [`Symbol`]s, so broker-side projection
/// (the early-projection fast path) tests set membership on `u32`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamProjection {
    /// All attributes (`S2.*`).
    All,
    /// A specific attribute set.
    Attrs(BTreeSet<Symbol>),
}

impl StreamProjection {
    /// Builds an attribute-set projection from names (interned).
    pub fn attrs<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        StreamProjection::Attrs(names.into_iter().map(Into::into).collect())
    }

    /// Does this projection retain every attribute `other` retains?
    pub fn covers(&self, other: &StreamProjection) -> bool {
        match (self, other) {
            (StreamProjection::All, _) => true,
            (StreamProjection::Attrs(_), StreamProjection::All) => false,
            (StreamProjection::Attrs(a), StreamProjection::Attrs(b)) => b.is_subset(a),
        }
    }

    /// The union of two projections.
    pub fn union(&self, other: &StreamProjection) -> StreamProjection {
        match (self, other) {
            (StreamProjection::All, _) | (_, StreamProjection::All) => StreamProjection::All,
            (StreamProjection::Attrs(a), StreamProjection::Attrs(b)) => {
                StreamProjection::Attrs(a.union(b).cloned().collect())
            }
        }
    }
}

/// Per-stream request: projection plus conjunctive filters.
///
/// Filters are kept in AST form (covering/merging reason about them
/// symbolically) *and* symbol-compiled once at construction, so matching a
/// message never resolves a name. The *needs* projection (see
/// [`StreamRequest::needs`]) is derived state too; every field is private
/// so neither can go stale — filters are replaced only by subscription
/// merging, which re-derives both.
#[derive(Debug, Clone)]
pub struct StreamRequest {
    /// Attributes to keep.
    projection: StreamProjection,
    /// Conjunctive filters over this stream's attributes. Predicates use
    /// the stream name as the relation qualifier. Private so the compiled
    /// form below can never go stale; read via [`StreamRequest::filters`].
    filters: Vec<Predicate>,
    /// The same filters, symbol-compiled (kept in sync by constructors).
    compiled: Vec<CompiledPredicate>,
    /// `projection` plus every attribute a filter reads (kept in sync by
    /// constructors): covering confirmation and hop-union upkeep read it
    /// at every hop, so it is interned and allocated once.
    needs: StreamProjection,
}

impl PartialEq for StreamRequest {
    fn eq(&self, other: &Self) -> bool {
        // `compiled` and `needs` are derived state.
        self.projection == other.projection && self.filters == other.filters
    }
}

impl StreamRequest {
    /// Builds a request, compiling `filters`.
    pub fn new(projection: StreamProjection, filters: Vec<Predicate>) -> Self {
        let compiled = CompiledPredicate::compile_all(&filters);
        let needs = needs_of(&projection, &filters);
        Self { projection, filters, compiled, needs }
    }

    /// Attributes to keep.
    pub fn projection(&self) -> &StreamProjection {
        &self.projection
    }

    /// The attributes this request *needs*: its projection plus every
    /// attribute any of its filters reads, both sides of an
    /// attribute-to-attribute comparison included. A broker forwards a
    /// record carrying what the matched requests below it need, and
    /// routing-level covering must preserve needs — a forward missing an
    /// attribute a downstream filter reads would make that filter false.
    pub fn needs(&self) -> &StreamProjection {
        &self.needs
    }

    /// The filter conjunction (AST form, for covering/merging logic).
    pub fn filters(&self) -> &[Predicate] {
        &self.filters
    }

    /// Does this request's filter set admit every message `other`'s admits?
    /// (i.e. `other`'s conjunction implies this conjunction).
    fn filters_cover(&self, other: &StreamRequest) -> bool {
        self.filters
            .iter()
            .all(|f_general| other.filters.iter().any(|f_specific| implies(f_specific, f_general)))
    }

    /// Splits the compiled filter conjunction for a counting index over
    /// `stream`: the indexable constant comparisons (as thresholds) and the
    /// residual predicates that must still be evaluated per message (string
    /// equality, `!=`, join/time-delta forms, foreign relations). A message
    /// satisfies this request iff every indexable comparison *and* every
    /// residual predicate holds.
    pub fn split_for_index(&self, stream: Symbol) -> (Vec<IndexableCmp>, Vec<CompiledPredicate>) {
        let mut indexable = Vec::new();
        let mut residual = Vec::new();
        for p in &self.compiled {
            match p.indexable_for(stream) {
                Some(cmp) => indexable.push(cmp),
                None => residual.push(p.clone()),
            }
        }
        (indexable, residual)
    }
}

/// `projection` widened by every attribute `filters` read (a time delta
/// reads timestamps, which every record carries).
fn needs_of(projection: &StreamProjection, filters: &[Predicate]) -> StreamProjection {
    let filter_attrs: BTreeSet<Symbol> = filters
        .iter()
        .flat_map(|f| match f {
            Predicate::Cmp { attr, .. } => [Some(attr), None],
            Predicate::JoinCmp { left, right, .. } => [Some(left), Some(right)],
            Predicate::TimeDelta { .. } => [None, None],
        })
        .flatten()
        .map(|attr| attr.attr)
        .collect();
    if filter_attrs.is_empty() {
        projection.clone()
    } else {
        projection.union(&StreamProjection::Attrs(filter_attrs))
    }
}

/// A subscription's per-stream requests, ascending by stream symbol: one
/// immutable body that every clone of the subscription shares.
///
/// Nearly every subscription requests one or two streams, and a massive
/// population is held twice over — by whoever subscribed it and by the
/// network's installed form, which the ledger and every hop's routing
/// entry share in turn. The pairs therefore live in one refcounted slice
/// (a `BTreeMap` spent a 1.3 KB leaf node on a single pair, an
/// `Arc<VecMap>` a second block): a fresh subscription allocates one block
/// for its body, and `clone()` bumps its count and allocates nothing.
/// Iteration order is the `BTreeMap`'s, requesting a stream twice replaces
/// its request, and lookups stay logarithmic for the engine-host feeds
/// that request dozens of streams. A body is built once, from pairs in any
/// order ([`FromIterator`], or a [`VecMap`] via `From`), and never edited:
/// only [`SubscriptionBuilder`] (and whoever restricts a subscription to
/// some of its streams) builds one.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMap {
    pairs: Arc<[(Symbol, StreamRequest)]>,
}

impl StreamMap {
    /// Number of requested streams.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no stream is requested.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The request for `stream`, if it is requested.
    pub fn get(&self, stream: &Symbol) -> Option<&StreamRequest> {
        let i = self.pairs.binary_search_by(|(s, _)| s.cmp(stream)).ok()?;
        Some(&self.pairs[i].1)
    }

    /// `(stream, request)` pairs in ascending stream order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Symbol, &StreamRequest)> + Clone {
        self.pairs.iter().map(|(s, req)| (s, req))
    }

    /// Requested streams in ascending order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Symbol> + Clone {
        self.pairs.iter().map(|(s, _)| s)
    }
}

impl From<VecMap<Symbol, StreamRequest>> for StreamMap {
    /// Freezes a built map into a body: one exact-size block.
    fn from(map: VecMap<Symbol, StreamRequest>) -> Self {
        Self { pairs: map.into_pairs().into() }
    }
}

impl FromIterator<(Symbol, StreamRequest)> for StreamMap {
    /// Collects pairs in any order; a repeated stream keeps its last
    /// request.
    fn from_iter<I: IntoIterator<Item = (Symbol, StreamRequest)>>(iter: I) -> Self {
        iter.into_iter().collect::<VecMap<_, _>>().into()
    }
}

impl std::ops::Index<&Symbol> for StreamMap {
    type Output = StreamRequest;

    /// # Panics
    ///
    /// Panics when `stream` is not requested.
    fn index(&self, stream: &Symbol) -> &StreamRequest {
        self.get(stream).expect("stream not requested by the subscription")
    }
}

/// A subscription: the subscriber's proxy node plus per-stream requests.
/// Cloning one shares its request body ([`StreamMap`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Identifier (assigned by the creator; brokers treat it as opaque).
    pub id: SubId,
    /// The node where results must be delivered.
    pub subscriber: NodeId,
    /// Requested streams (interned) with their projections and filters.
    /// Symbol-keyed so per-message stream lookups compare integers.
    pub streams: StreamMap,
}

impl Subscription {
    /// Starts building a subscription for `subscriber`.
    pub fn builder(subscriber: NodeId) -> SubscriptionBuilder {
        SubscriptionBuilder { id: SubId(0), subscriber, streams: VecMap::new() }
    }

    /// Returns `true` when this subscription would deliver (at least) every
    /// message that `other` delivers, with at least the same attributes.
    pub fn covers(&self, other: &Subscription) -> bool {
        other.streams.iter().all(|(name, o_req)| {
            self.streams.get(name).is_some_and(|s_req| {
                s_req.projection.covers(&o_req.projection) && s_req.filters_cover(o_req)
            })
        })
    }

    /// The attributes this subscription *needs* for `stream`
    /// ([`StreamRequest::needs`]); `None` when the stream is not requested.
    pub fn needs(&self, stream: Symbol) -> Option<&StreamProjection> {
        self.streams.get(&stream).map(StreamRequest::needs)
    }

    /// Does `msg` match this subscription (stream requested + all filters
    /// pass)? Filter evaluation is symbol-compiled — no name resolution
    /// per message.
    pub fn matches(&self, msg: &Message) -> bool {
        match self.streams.get(&msg.stream) {
            None => false,
            Some(req) => eval_compiled(&req.compiled, msg),
        }
    }

    /// Projects `msg` down to the attributes this subscription requests.
    ///
    /// Returns `None` if the message does not match.
    pub fn project(&self, msg: &Message) -> Option<Message> {
        let req = self.streams.get(&msg.stream)?;
        if !eval_compiled(&req.compiled, msg) {
            return None;
        }
        Some(self.project_matched(req, msg))
    }

    /// Projects a message already known to match (the broker's local
    /// delivery path checks `matches` during table scanning; this skips
    /// the redundant second filter evaluation).
    pub fn project_unchecked(&self, msg: &Message) -> Option<Message> {
        let req = self.streams.get(&msg.stream)?;
        Some(self.project_matched(req, msg))
    }

    fn project_matched(&self, req: &StreamRequest, msg: &Message) -> Message {
        match &req.projection {
            StreamProjection::All => msg.clone(),
            StreamProjection::Attrs(keep) => msg.retaining(keep),
        }
    }
}

/// Builder for [`Subscription`] (see [`Subscription::builder`]).
#[derive(Debug)]
pub struct SubscriptionBuilder {
    id: SubId,
    subscriber: NodeId,
    streams: VecMap<Symbol, StreamRequest>,
}

impl SubscriptionBuilder {
    /// Sets the subscription id.
    pub fn id(mut self, id: SubId) -> Self {
        self.id = id;
        self
    }

    /// Adds a stream request (name interned and filters symbol-compiled
    /// here, once).
    pub fn stream(
        mut self,
        name: impl Into<Symbol>,
        projection: StreamProjection,
        filters: Vec<Predicate>,
    ) -> Self {
        self.streams.insert(name.into(), StreamRequest::new(projection, filters));
        self
    }

    /// Finishes the subscription, freezing its requests into one body.
    pub fn build(self) -> Subscription {
        Subscription { id: self.id, subscriber: self.subscriber, streams: self.streams.into() }
    }
}

/// A published message — the broker-side name of the unified, `Arc`-shared
/// [`cosmos_query::record::Record`]. The engine's `Tuple` is the same
/// type, so a message crossing the broker→engine boundary needs no
/// re-keying (and no copy: it is the same value).
///
/// "Each message is represented as a set of attribute/value pairs" (§1.2);
/// here the *names* of those pairs live once in the interned schema rather
/// than once per message, and the payload is shared — delivering one
/// message to many subscribers bumps reference counts instead of cloning
/// scalars.
pub type Message = cosmos_query::record::Record;

/// A [`StreamProjection`] with its resolved per-input-schema plan cached
/// inline — the one plan cache of the record plane, hung off the routing
/// table's class that owns the projection (what local subscribers keep,
/// or what forwarding members need). [`Message::retaining`] plans and
/// interns per call; applying a `CachedProjection` to a message of an
/// already-seen shape copies scalars by precomputed column index — no
/// per-message allocation beyond the output payload.
#[derive(Debug, Clone)]
pub struct CachedProjection {
    proj: StreamProjection,
    /// Plans keyed by input schema id. A stream sees a handful of shapes,
    /// so the cache's linear scan beats hashing and hits never allocate.
    plans: PlanCache<u32, RetainPlan>,
}

/// A resolved projection plan for one input schema: the output schema and
/// the kept input column indices, in output order.
#[derive(Debug, Clone)]
pub(crate) struct RetainPlan {
    schema: &'static Schema,
    cols: Arc<[u32]>,
    /// The kept columns among the first 64, one bit each.
    first: u64,
}

impl RetainPlan {
    /// The plan keeping the columns `i` of `input` with `keep(i)`.
    fn new(input: &Schema, keep: impl Fn(usize) -> bool) -> Self {
        let cols: Vec<u32> = (0..input.len()).filter(|&i| keep(i)).map(|i| i as u32).collect();
        let attrs: Vec<Symbol> = cols.iter().map(|&i| input.attrs()[i as usize]).collect();
        let first = cols.iter().take_while(|&&i| i < 64).fold(0, |word, &i| word | 1 << i);
        Self { schema: Schema::intern(&attrs), cols: cols.into(), first }
    }

    /// `msg` with the kept columns only: one shared payload.
    fn apply(&self, msg: &Message) -> Message {
        let payload: Arc<[Scalar]> =
            self.cols.iter().map(|&i| msg.values()[i as usize].clone()).collect();
        Message::from_shared(msg.stream, msg.timestamp, self.schema, payload)
    }

    /// Adds the kept columns to `mask`, a column mask over the input schema
    /// (one bit per column, 64 to a word): one word up to 64 columns.
    pub(crate) fn add_to(&self, mask: &mut [u64]) {
        match mask {
            [word] => *word |= self.first,
            _ => self.cols.iter().for_each(|&i| mask[i as usize / 64] |= 1 << (i % 64)),
        }
    }
}

impl CachedProjection {
    /// Wraps a projection with an empty plan cache.
    pub fn new(proj: StreamProjection) -> Self {
        Self { proj, plans: PlanCache::new() }
    }

    /// The wrapped projection.
    pub fn projection(&self) -> &StreamProjection {
        &self.proj
    }

    /// The plan of what this projection keeps of `input`, resolved and
    /// cached on first sight of the schema — `None` for `All`, which keeps
    /// every column without a plan.
    pub(crate) fn kept(&mut self, input: &Schema) -> Option<&RetainPlan> {
        let StreamProjection::Attrs(keep) = &self.proj else { return None };
        let id = input.id();
        let build = || RetainPlan::new(input, |i| keep.contains(&input.attrs()[i]));
        Some(self.plans.get_or_insert_with(|sid| *sid == id, || id, build))
    }

    /// Applies the projection to `msg`: `All` is a refcount bump; an
    /// attribute set copies the kept scalars into one shared payload.
    pub fn apply(&mut self, msg: &Message) -> Message {
        self.kept(msg.schema()).map_or_else(|| msg.clone(), |plan| plan.apply(msg))
    }
}

/// Projections named per message by a column mask over its schema (one
/// bit per column, 64 to a word), each planned once per `(schema, mask)`:
/// a hop's forward, keeping the needs of whichever of its members matched.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskedProjection {
    /// Keyed by schema id and mask, the first word inline: records of up
    /// to 64 columns allocate no key.
    plans: PlanCache<(u32, u64, Box<[u64]>), RetainPlan>,
}

impl MaskedProjection {
    /// `msg` keeping the columns in `mask`, or `None` when that is every
    /// column — the caller shares `msg` itself.
    pub(crate) fn apply(&mut self, msg: &Message, mask: &[u64]) -> Option<Message> {
        let input = msg.schema();
        let kept: usize = mask.iter().map(|word| word.count_ones() as usize).sum();
        // Fewer bits than columns: there is a first word.
        let (&first, rest) = mask.split_first().filter(|_| kept < input.len())?;
        let id = input.id();
        let plan = self.plans.get_or_insert_with(
            |(sid, w, r)| *sid == id && *w == first && **r == *rest,
            || (id, first, rest.into()),
            || RetainPlan::new(input, |i| (mask[i / 64] >> (i % 64)) & 1 == 1),
        );
        Some(plan.apply(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::{AttrRef, CmpOp};
    use proptest::prelude::*;

    fn filter(stream: &str, attr: &str, op: CmpOp, v: i64) -> Predicate {
        Predicate::Cmp { attr: AttrRef::new(stream, attr), op, value: Scalar::Int(v) }
    }

    fn sub(node: u32, stream: &str, filters: Vec<Predicate>) -> Subscription {
        Subscription::builder(NodeId(node)).stream(stream, StreamProjection::All, filters).build()
    }

    #[test]
    fn matching_respects_stream_and_filters() {
        let s = sub(1, "R", vec![filter("R", "a", CmpOp::Gt, 10)]);
        let hit = Message::new("R", 0).with("a", Scalar::Int(15));
        let miss_val = Message::new("R", 0).with("a", Scalar::Int(5));
        let miss_stream = Message::new("S", 0).with("a", Scalar::Int(15));
        let miss_attr = Message::new("R", 0).with("b", Scalar::Int(15));
        assert!(s.matches(&hit));
        assert!(!s.matches(&miss_val));
        assert!(!s.matches(&miss_stream));
        assert!(!s.matches(&miss_attr));
    }

    #[test]
    fn projection_trims_attributes() {
        let s = Subscription::builder(NodeId(1))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        let m = Message::new("R", 9).with("a", Scalar::Int(1)).with("b", Scalar::Int(2));
        let p = s.project(&m).unwrap();
        let attrs: Vec<(String, Scalar)> =
            p.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        assert_eq!(attrs, vec![("a".to_string(), Scalar::Int(1))]);
        assert_eq!(p.timestamp, 9);
        assert!(p.wire_size() < m.wire_size());
    }

    #[test]
    fn covering_stream_sets() {
        let both = Subscription::builder(NodeId(1))
            .stream("R", StreamProjection::All, vec![])
            .stream("S", StreamProjection::All, vec![])
            .build();
        let only_r = sub(2, "R", vec![]);
        assert!(both.covers(&only_r));
        assert!(!only_r.covers(&both));
    }

    #[test]
    fn covering_filters_weaker_covers_stronger() {
        let weak = sub(1, "R", vec![filter("R", "a", CmpOp::Gt, 10)]);
        let strong = sub(2, "R", vec![filter("R", "a", CmpOp::Gt, 20)]);
        let none = sub(3, "R", vec![]);
        assert!(weak.covers(&strong));
        assert!(!strong.covers(&weak));
        assert!(none.covers(&weak));
        assert!(!weak.covers(&none));
    }

    #[test]
    fn covering_projection() {
        let all = sub(1, "R", vec![]);
        let some = Subscription::builder(NodeId(2))
            .stream("R", StreamProjection::attrs(["a", "b"]), vec![])
            .build();
        let fewer = Subscription::builder(NodeId(3))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        assert!(all.covers(&some));
        assert!(some.covers(&fewer));
        assert!(!fewer.covers(&some));
        assert!(!some.covers(&all));
    }

    #[test]
    fn paper_example_p3_subscription() {
        // p3₁: S = {S1, S2}, P = {S2.*}, F = {S1.snowHeight > 10}
        let p31 = Subscription::builder(NodeId(1))
            .stream(
                "S1",
                StreamProjection::attrs(["snowHeight", "timestamp"]),
                vec![filter("S1", "snowHeight", CmpOp::Gt, 10)],
            )
            .stream("S2", StreamProjection::All, vec![])
            .build();
        let tall = Message::new("S1", 0).with("snowHeight", Scalar::Int(30));
        let short = Message::new("S1", 0).with("snowHeight", Scalar::Int(3));
        let s2 = Message::new("S2", 0).with("snowHeight", Scalar::Int(1));
        assert!(p31.matches(&tall));
        assert!(!p31.matches(&short));
        assert!(p31.matches(&s2));
    }

    #[test]
    fn a_stream_requested_twice_keeps_the_later_request() {
        let s = Subscription::builder(NodeId(1))
            .stream("R", StreamProjection::All, vec![filter("R", "a", CmpOp::Gt, 10)])
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        assert_eq!(s.streams.len(), 1);
        let req = &s.streams[&Symbol::intern("R")];
        assert_eq!(req.projection(), &StreamProjection::attrs(["a"]));
        assert!(req.filters().is_empty(), "the earlier filter went with its request");
        assert!(s.matches(&Message::new("R", 0).with("a", Scalar::Int(1))));
    }

    /// A subscription to streams `V0 .. V(n-1)`, built in the order given
    /// (the map sorts), requesting `a` and `k` where `Vk.a > k + slack`.
    fn wide(ids: impl Iterator<Item = usize>, slack: i64) -> Subscription {
        ids.fold(Subscription::builder(NodeId(1)), |b, k| {
            let name = format!("V{k}");
            let f = filter(&name, "a", CmpOp::Gt, k as i64 + slack);
            b.stream(name.as_str(), StreamProjection::attrs(["a", "k"]), vec![f])
        })
        .build()
    }

    #[test]
    fn covering_merging_matching_and_projection_hold_on_1_2_and_40_streams() {
        for n in [1usize, 2, 40] {
            // Built back to front: every insert lands before the others.
            let general = wide((0..n).rev(), 0);
            let symbols: Vec<Symbol> = (0..n).map(|k| Symbol::intern(&format!("V{k}"))).collect();
            let mut ascending = symbols.clone();
            ascending.sort();
            assert_eq!(general.streams.keys().copied().collect::<Vec<_>>(), ascending);
            let specific = wide(0..n, 10);
            assert!(general.covers(&specific) && !specific.covers(&general), "n = {n}");
            // One stream short (none at all for n = 1), the narrower side
            // still fits under the wider, and covers nothing that
            // requests the stream it lacks.
            let partial = wide(0..n - 1, 10);
            assert!(general.covers(&partial));
            assert!(!partial.covers(&general) && !partial.covers(&specific));
            for (k, &stream) in symbols.iter().enumerate() {
                let msg = |a: i64| {
                    Message::new(stream.as_str(), 0)
                        .with("a", Scalar::Int(a))
                        .with("k", Scalar::Int(k as i64))
                        .with("z", Scalar::Int(0))
                };
                assert!(general.matches(&msg(k as i64 + 1)) && !general.matches(&msg(k as i64)));
                assert!(!specific.matches(&msg(k as i64 + 10)));
                assert_eq!(general.needs(stream), Some(&StreamProjection::attrs(["a", "k"])));
                let kept = general.project(&msg(k as i64 + 1)).expect("matches");
                assert_eq!(kept.len(), 2, "`z` is projected away");
                assert!(general.project(&msg(k as i64)).is_none());
            }
            assert!(!general.matches(&Message::new("V40", 0).with("a", Scalar::Int(99))));
            assert_eq!(general.needs(Symbol::intern("V40")), None);
        }
    }

    proptest! {
        /// The stream map against a `BTreeMap` model under random
        /// insert / replace / lookup sequences: the builder's vector map
        /// replaces what the model replaces, and the frozen body — built
        /// from it or collected from the same pairs — has the model's
        /// length, ascending iteration and lookups, and is shared by its
        /// clones.
        #[test]
        fn prop_stream_map_matches_btreemap_model(
            ops in proptest::collection::vec((0usize..12, -50i64..50), 0..60),
        ) {
            let names: Vec<Symbol> = (0..12).map(|k| Symbol::intern(&format!("M{k}"))).collect();
            let request = |k: usize, v: i64| {
                StreamRequest::new(
                    StreamProjection::All,
                    vec![filter(names[k].as_str(), "a", CmpOp::Gt, v)],
                )
            };
            let mut building = VecMap::new();
            let mut model = std::collections::BTreeMap::new();
            for &(k, v) in &ops {
                prop_assert_eq!(building.insert(names[k], request(k, v)), model.insert(names[k], request(k, v)));
            }
            let map = StreamMap::from(building);
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert!(map.iter().eq(model.iter()));
            prop_assert!(map.keys().eq(model.keys()));
            for name in &names {
                prop_assert_eq!(map.get(name), model.get(name));
                if model.contains_key(name) {
                    prop_assert_eq!(&map[name], &model[name]);
                }
            }
            let collected: StreamMap = ops.iter().map(|&(k, v)| (names[k], request(k, v))).collect();
            prop_assert_eq!(&collected, &map);
            prop_assert!(!Arc::ptr_eq(&collected.pairs, &map.pairs));
            prop_assert!(Arc::ptr_eq(&map.clone().pairs, &map.pairs));
        }

        /// Covering must be consistent with matching: if `a` covers `b`,
        /// every message matching `b` matches `a`.
        #[test]
        fn prop_covering_sound_for_matching(
            ca in -50i64..50, cb in -50i64..50,
            opa in 0usize..4, opb in 0usize..4,
            x in -60i64..60,
        ) {
            let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let a = sub(1, "R", vec![filter("R", "v", ops[opa], ca)]);
            let b = sub(2, "R", vec![filter("R", "v", ops[opb], cb)]);
            let msg = Message::new("R", 0).with("v", Scalar::Int(x));
            if a.covers(&b) && b.matches(&msg) {
                prop_assert!(a.matches(&msg));
            }
        }
    }
}

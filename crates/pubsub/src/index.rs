//! Per-node routing index: stream partitioning plus a counting-based
//! predicate index, making broker matching sublinear in table size.
//!
//! # Why
//!
//! The paper's Pub/Sub substrate assumes brokers match each published
//! message against *massive* subscription populations. A flat routing
//! table walks every entry per message and re-evaluates its compiled
//! filters — linear in table size with a large constant. This module
//! replaces the flat table with a [`RoutingTable`] that matches in time
//! proportional to the number of *satisfied predicates* plus the number of
//! unconstrained entries, in the spirit of Siena's counting algorithm.
//!
//! # Structure
//!
//! Three layers, built incrementally as entries are installed:
//!
//! 1. **Stream partition.** Entries are grouped by the stream symbols
//!    their subscriptions request, so a published message only ever sees
//!    the partition for its own stream — entries for other streams cost
//!    nothing. A massive query population means tens of thousands of
//!    streams with one subscriber each (every user's result stream), so a
//!    partition costs what it holds: partitions sit in one arena vector
//!    behind a symbol → slot map and own only their members, hop groups
//!    and one threshold-list map keyed by
//!    [`IndexOperand`] (attributes and the event-time pseudo-attribute
//!    alike). A partition's first member, its always-candidate slot and
//!    its first hop group live inline, in the partition's own slot
//!    ([`OneOrMany`]): a lone subscriber's route allocates no heap block
//!    per partition but its threshold lists. Everything matching *writes*
//!    lives outside the partitions, in the matcher's [`MatchScratch`] (see
//!    "Match state" below).
//! 2. **Counting predicate index.** Within a partition, every compiled
//!    filter that is an indexable constant comparison (`attr op constant`
//!    with a numeric constant and an order/equality operator — see
//!    [`CompiledPredicate::indexable_for`]) contributes its threshold to a
//!    tiered threshold list keyed by `(attribute, operator)`. Matching a
//!    message
//!    resolves each message attribute **once**, binary-searches each
//!    relevant list, and walks only the satisfied range, incrementing a
//!    per-slot counter in the matcher's scratch (epoch-versioned, so no
//!    per-message reset). An entry whose counter reaches its
//!    indexable-predicate count has its whole indexable prefix satisfied.
//! 3. **Residual fallback.** Non-indexable predicates (join comparisons,
//!    time deltas, string equality, `!=`, foreign-relation references) are
//!    kept on the entry and evaluated **only** for entries whose indexable
//!    prefix passed; entries with no indexable predicates are tracked in a
//!    small always-candidate list. Entries whose indexable prefix fails
//!    are never touched individually.
//!
//! # Delivery fan-out: projection classes
//!
//! Matching is sublinear, but a high-match-rate message still pays a
//! *linear-in-matches* delivery term. The index bounds its constant with
//! **projection classes**: local-delivery members of a table are
//! grouped at install time by their exact retained-attribute set (one
//! [`CachedProjection`] per class), each distinct projection is computed
//! **once per message**, and every matched member of the class receives the same
//! `Arc`-shared [`Message`] — per delivery, a refcount bump and a log
//! push, no scalar copies. A population of thousands of subscribers
//! usually requests a handful of distinct projections, so the projection
//! work per message is O(classes), not O(matches).
//!
//! # Forwarding projections
//!
//! §2.1 gives every subscription a projection list "so the Pub/Sub can
//! perform projection of the unnecessary attributes as soon as possible".
//! A forward toward next hop `v` carries the union of
//! [`StreamRequest::needs`] over the members toward `v` **that matched the
//! message**, and nothing a rejecting member needs. That is exactly what
//! the matching subscribers below `v` (in the source's tree) need:
//!
//! - Every member toward `v` is a subscriber below `v`, and each matched
//!   one is such a subscriber whose filter passes: the union holds nothing
//!   more.
//! - Take a subscriber below `v` whose filter passes. Either it has its
//!   own entry here, or a coverer skipped or dropped it. A coverer's filter
//!   is implied by the subscriber's and its needs contain the subscriber's
//!   (routing covering), so the coverer matched too: the union holds
//!   nothing less.
//! - One hop up the same holds, so the record arriving here carries every
//!   attribute a matching member's filter reads: a filter sees here what
//!   it would see at the source. A missing attribute makes a filter false,
//!   never true.
//!
//! Delivered content cannot change: the final projection at the delivery
//! node keeps a subset of what was forwarded, and retaining keeps column
//! order. Complete needs are the whole argument — which is why they
//! include both sides of an attribute-to-attribute comparison.
//!
//! The distinct needs of a table's forwarding members are its projection
//! classes too (one [`CachedProjection`] each, beside what local
//! subscribers keep), and a forwarding member's action names its
//! `(hop group, class)` — no class when it needs the whole record. Per
//! message, matched forwarding members mark their groups; then, in a
//! group no whole-record member marked, each adds its class's kept
//! columns — planned once per input schema — to the group's column mask
//! in the matcher's scratch. Each marked group projects once through its
//! [`MaskedProjection`], planned per `(schema, mask)`. A whole-record
//! member, or a mask keeping every column, makes an identity forward: the
//! record is shared, not copied. The work is O(matched members) marks and
//! word ORs and one projection per marked group, allocating nothing but
//! the projected payload.
//!
//! # Maintenance
//!
//! The table is maintained **incrementally in both directions**:
//!
//! - **Threshold-list lifecycle**: each `(attribute, operator)` list is a
//!   [`TieredList`] — bounded sorted *runs* (≤ `RUN_MAX` entries) under a
//!   flat *run-min directory*. An insert binary-searches the directory,
//!   then the owning run, and memmoves at most one run; a run that
//!   overflows splits in half (two directory entries replace one). Probes
//!   descend directory-then-run, so a match visits only the runs its
//!   satisfied range touches. Removal never edits runs on the match path:
//!   stale references are counted like live ones (a bump never reads a
//!   member) and the member's dead flag drops them where candidates are
//!   collected, and [`TieredList::retain_vals`] sweeps them run-at-a-time when the
//!   table compacts, merging underfull survivors — but never past the
//!   split steady state, so a sweep cannot force the next insert to
//!   immediately re-split. The dense-list semantics are preserved
//!   exactly — same counting results, same candidate order — which the
//!   tiered-vs-dense differential suite pins down.
//! - **Install**: [`RoutingTable::insert`] extends every affected
//!   stream partition in place (run-local sorted-insert into threshold
//!   lists, hop groups joined or opened, projection classes — kept
//!   attributes of a local member, needs of a forwarding one — joined or
//!   opened). Each
//!   entry carries the owning subscription's installation sequence number,
//!   so delivery order stays the population's subscribe order no matter
//!   how entries are later removed and re-added.
//! - **Remove**: [`RoutingTable::remove_entry`] is first-class removal by
//!   `(subscription id, direction)` — the primitive the broker's
//!   per-subscription [`crate::broker::BrokerNetwork`] ledger drives on
//!   unsubscribe and link failure/recovery. Removal tombstones the entry:
//!   threshold lists keep stale references that the dead flag filters out
//!   of the candidates, and a projection class its last member left simply
//!   stops being used — no live member names it, so nothing counts its
//!   members. Once tombstones dominate
//!   ([`tombstones_dominate`]: dead at least matches live, past
//!   a small absolute floor so tiny tables never thrash) the table
//!   compacts — threshold lists are swept run-at-a-time
//!   ([`TieredList::retain_vals`]), dead hop groups and emptied
//!   projection classes are dropped, and surviving entries re-group —
//!   preserving each entry's sequence number so observable order never
//!   changes. A member records its owning entry's id, and within a
//!   partition those ids **ascend with the member slot** — ids are handed
//!   out in insertion order, an entry adds at most one member per
//!   partition, compaction re-inserts survivors in order under fresh ids
//!   — so tombstoning finds an entry's member by binary search.
//!
//! - **Covering: the counting index run in reverse over the same lists**.
//!   Installs themselves are sublinear, and pay for what an arrival
//!   *changes* rather than for everything it is compared against. An
//!   entry can only cover a narrower one when its thresholds are weaker,
//!   so both covering queries an arrival asks — *"does a same-direction
//!   entry cover this subscription?"* ([`RoutingTable::insert_covering`]'s
//!   skip check) and *"which entries does it cover?"* (the merge drop) —
//!   binary-search the partition's own threshold lists for the ranges
//!   [`coverer_bounds`] allows and **count** over them in the matcher's
//!   counters: a member can cover the probe only if *every* comparison it
//!   carries falls in range (its count reaches its target, or it has no
//!   comparison at all), and the probe can cover a member only if *every*
//!   probe comparison finds one of the member's in range (a
//!   per-probe-comparison mask, kept as the length of the hit prefix).
//!   Members that pass are filtered once — live, forwarding toward the
//!   arrival's hop — and only those, a superset of the answer, are
//!   confirmed exactly, in table order, instead of scanning the table.
//!   Each forwarding comparison is stored once, so covering shares the
//!   lists' tombstone sweeps and the table's compaction with matching.
//!   The table is the only covering store of its link — the
//!   same-direction entry one hop up *is* the record of what a node
//!   already forwarded upstream, so the broker keeps none (the argument is
//!   on its install walk, which stops at the first skip). What its answers
//!   must equal is a scan of the table's live same-direction entries —
//!   the first coverer in table order, the victims in table order;
//!   candidates are merely fewer — and `tests/index_equivalence.rs` holds
//!   one table to a flat `Vec` under random insert and remove sequences,
//!   and whole networks to the from-scratch tables of `cosmos-oracle`'s
//!   `ReferenceNetwork`. [`CoverStats`] counts the work: list slots
//!   visited, confirmations attempted, confirmations that held.
//!
//! - **Crash recovery**: whole-node failure
//!   ([`crate::broker::BrokerNetwork::fail_node`]) is not a new table
//!   primitive — it is the two existing ones driven in bulk. The crashed
//!   broker's own table is dropped with the node; every *surviving* node
//!   sheds, via the same ledgered [`RoutingTable::remove_entry`] calls an
//!   unsubscribe issues, exactly the entries whose reverse paths routed
//!   through the crashed broker, and the repair wave re-installs the
//!   moved subscriptions through the normal install path (sequence
//!   numbers preserved, so delivery order is unchanged). The crashed
//!   broker's local subscriptions are fully unsubscribed from the ledger,
//!   never orphaned. The reliable-delivery plane
//!   ([`crate::reliable`]) sits entirely *below* this table: frames,
//!   acks, and retransmissions are per-link transport concerns the index
//!   never sees — by the time a message is matched here it is already
//!   exactly-once.
//!
//! # Match state: the matcher's, not the table's
//!
//! There is **one** matcher, [`match_run`]: a run of same-stream messages
//! against one partition, each message's result handed to a sink. A
//! single match is a run of one; every publish path reaches it through
//! the broker's one forwarding walk over the live tables, and the
//! reliable plane one hop at a time (`RoutingTable::match_one`).
//!
//! - **A partition owns** ([`Partition`]) members, the always-candidate
//!   list and the threshold lists — read by matching and by covering
//!   resolution, never written by either. Around it the live
//!   [`StreamIndex`] keeps what *installs* maintain: hop groups (next
//!   hop, forward plans). The projection classes are the table's, shared by its partitions: a
//!   class is a projection, cached per input schema, whichever stream
//!   the record is of.
//! - **The matcher owns** ([`MatchScratch`]) everything a message
//!   changes: slot counters, candidate buffers, the class records, hop
//!   marks and hop masks of the message, the recycled [`MatchOutput`], the
//!   [`MatchStats`] work counters — all stamped with one epoch that only
//!   ever grows, which is why one scratch serves every partition of a
//!   table (the argument is on the struct). One per [`RoutingTable`],
//!   whose covering probes count in the same slot counters under epochs
//!   of their own.
//! - **Dead members are filtered once**, where the fully-counted members
//!   become candidates (`count == target && !dead`); the always-candidate
//!   list drops a member when it is tombstoned. Everything before that
//!   point works on slots alone.
//! - **The plan caches are the table's**: the classes' and the hop
//!   groups' per-schema projection plans, filled as messages arrive — the
//!   one thing matching writes outside its scratch.
//!
//! Because matching never writes a partition, [`RoutingTable::freeze`] is
//! a clone of each [`Partition`] plus its hop groups' next hops and
//! plans ([`crate::snapshot`]). Install-time helpers
//! take an `Arc`-shared [`InstalledSub`] — the subscription with its
//! per-stream indexable/residual split — so one installation derives each
//! stream's skeleton once and every hop's skip probe, victim probes,
//! insert and later compaction reuse it, holding the form by refcount
//! instead of by deep copy.

use crate::snapshot::{FrozenPartition, FrozenTable};
use crate::subscription::{
    CachedProjection, MaskedProjection, Message, StreamProjection, StreamRequest, SubId,
    Subscription,
};
use crate::tiered::{tombstones_dominate, TieredList};
use cosmos_net::NodeId;
use cosmos_query::compiled::{
    eval_compiled, CompiledPredicate, IndexOperand, IndexableCmp, ScalarRef,
};
use cosmos_query::containment::{coverer_bounds, CoverBounds};
use cosmos_query::CmpOp;
use cosmos_util::{OneOrMany, Symbol, VecMap};
use std::collections::HashMap;
use std::sync::Arc;

/// One installed routing entry: a subscription's shared installed form
/// plus its forwarding direction (`None` = deliver locally at this node).
#[derive(Debug, Clone)]
struct Entry {
    form: Arc<InstalledSub>,
    to: Option<NodeId>,
    /// The owning subscription's installation sequence number. Local
    /// deliveries are emitted in ascending `seq`, so re-installing an
    /// entry (incremental repair appends it at the end of the partition)
    /// cannot reorder the delivery log relative to a fresh build.
    seq: u64,
    dead: bool,
    /// The owner's next live slot in this table (`NIL` ends the chain):
    /// an owner's live slots form one ascending chain from its
    /// [`RoutingTable::by_sub`] head. It fits in the entry's padding.
    next: u32,
}

// One per routing entry, tombstones included.
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

/// The end of an owner's chain of slots ([`Entry::next`]).
const NIL: u32 = u32::MAX;

/// A per-`(next hop)` group within one stream partition. A message any
/// member matched is forwarded once, keeping what the matched members
/// need (see the module docs' "Forwarding projections"). Its members are
/// also the candidates [`RoutingTable::insert_covering`] filters for
/// toward that hop: covering counts over the partition's lists, so the
/// group keeps no index of its own.
#[derive(Debug)]
pub(crate) struct HopGroup {
    to: NodeId,
    /// The forward's plans, per input schema and mask of matched needs.
    forwards: MaskedProjection,
}

// One per (stream, next hop) of every table: 64 bytes while each group
// carried its own covering index.
const _: () = assert!(std::mem::size_of::<HopGroup>() <= 32);

/// What a matched member does: local delivery (share its projection
/// class's record — all local-delivery members of a table requesting the
/// **same** retained-attribute set form one class, projected once per
/// message) or marking its hop group with what it needs (the class of its
/// [`StreamRequest::needs`]; `None` when it needs the whole record).
#[derive(Debug, Clone, Copy)]
enum MemberAction {
    Local { sub: SubId, class: u32 },
    Hop { group: u32, class: Option<u32> },
}

/// The table's class projecting to `proj`, opened if no class does.
fn class_of(classes: &mut Vec<CachedProjection>, proj: &StreamProjection) -> u32 {
    let c = classes.iter().position(|c| c.projection() == proj).unwrap_or_else(|| {
        if classes.capacity() == 0 {
            // Most tables hold one class; `Vec`'s first allocation holds four.
            classes.reserve_exact(1);
        }
        classes.push(CachedProjection::new(proj.clone()));
        classes.len() - 1
    });
    u32::try_from(c).expect("projection class overflow")
}

/// One `(entry, stream)` pair in a stream partition. Matching never
/// writes a member: its counter lives in the matcher's [`MatchScratch`].
#[derive(Debug, Clone)]
pub(crate) struct Member {
    /// The owning entry's id — ascending with the member slot (see the
    /// module docs), so tombstoning binary-searches for it.
    entry: u32,
    /// The owning entry's installation sequence number, cached here so
    /// ordering candidates never chases the entry indirection on the
    /// match hot path.
    seq: u64,
    /// Number of indexable predicates that must be satisfied.
    target: u32,
    /// Where a `target == 0` member sits in its partition's
    /// `zero_target` list (kept current by swap-removal), so leaving it
    /// is O(1).
    zero_slot: u32,
    /// Predicates evaluated only when the indexable prefix passed (shared
    /// with the entry's [`InstalledSub`]).
    residual: Arc<[CompiledPredicate]>,
    dead: bool,
    action: MemberAction,
}

// One per routing entry and stream.
const _: () = assert!(std::mem::size_of::<Member>() <= 56);

/// Sorted `(threshold, member)` lists for one attribute, one per operator
/// class. Ascending by threshold; never contains NaN (a NaN threshold is
/// unsatisfiable, so it only counts toward the member's target). Each
/// list is a [`TieredList`] — bounded runs under a run-min directory — so
/// an install memmoves at most one run no matter how large the partition
/// grows, while the satisfied-range walks below iterate runs in key
/// order and stay bit-identical to the dense layout they replaced.
#[derive(Debug, Default, Clone)]
struct OpLists {
    lt: TieredList,
    le: TieredList,
    gt: TieredList,
    ge: TieredList,
    eq: TieredList,
}

impl OpLists {
    fn list_mut(&mut self, op: CmpOp) -> &mut TieredList {
        match op {
            CmpOp::Lt => &mut self.lt,
            CmpOp::Le => &mut self.le,
            CmpOp::Gt => &mut self.gt,
            CmpOp::Ge => &mut self.ge,
            CmpOp::Eq => &mut self.eq,
            CmpOp::Ne => unreachable!("Ne is never indexable"),
        }
    }

    fn insert(&mut self, op: CmpOp, threshold: f64, member: u32) {
        self.list_mut(op).insert(threshold, member);
    }

    /// Per-run tombstone sweep: drops every reference to a dead member
    /// from all five lists (retain-in-place per run, underfull runs
    /// merged), so partitions under heavy churn shed stale references
    /// without waiting for the whole-table rebuild.
    fn sweep_dead(&mut self, members: &[Member]) {
        for list in [&mut self.lt, &mut self.le, &mut self.gt, &mut self.ge, &mut self.eq] {
            list.retain_vals(|m| !members[m as usize].dead);
        }
    }

    /// Hands `bump` every `(threshold, member)` reference whose predicate
    /// is satisfied by attribute value `v` (non-NaN): descend the run
    /// directory to the satisfied range, then walk only that range's runs
    /// in key order.
    fn bump_satisfied(&self, v: f64, mut bump: impl FnMut(&[(f64, u32)])) {
        // `attr > t` holds for thresholds t < v: an ascending prefix.
        self.gt.for_prefix(|t| t < v, &mut bump);
        // `attr >= t` holds for t <= v.
        self.ge.for_prefix(|t| t <= v, &mut bump);
        // `attr < t` holds for t > v: an ascending suffix.
        self.lt.for_suffix(|t| t > v, &mut bump);
        // `attr <= t` holds for t >= v.
        self.le.for_suffix(|t| t >= v, &mut bump);
        // `attr = t` holds for the equal range.
        self.eq.for_eq(|t| t < v, |t| t <= v, bump);
    }

    /// Hands `bump` every reference a coverer of a probe with `bounds` on
    /// this operand may carry: the prefix of weaker lower bounds, the
    /// suffix of weaker upper bounds, the equal range of each distinct
    /// point constraint — so no reference is handed over twice.
    fn bump_coverers(&self, bounds: &CoverBounds, mut bump: impl FnMut(&[(f64, u32)])) {
        if let Some(u) = bounds.lower_max.map(norm) {
            for list in [&self.gt, &self.ge] {
                list.for_prefix(|t| t.total_cmp(&u).is_le(), &mut bump);
            }
        }
        if let Some(l) = bounds.upper_min.map(norm) {
            for list in [&self.lt, &self.le] {
                list.for_suffix(|t| t.total_cmp(&l).is_ge(), &mut bump);
            }
        }
        for (j, &v) in bounds.eq_values.iter().enumerate() {
            if bounds.eq_values[..j].contains(&v) {
                continue; // a repeated point constraint: one walk
            }
            let v = norm(v);
            self.eq.for_eq(|t| t.total_cmp(&v).is_lt(), |t| t.total_cmp(&v).is_le(), &mut bump);
        }
    }

    /// Hands `bump` every reference whose comparison implies the probe's
    /// `op t`: a same-direction bound at least as strong, or a point
    /// constraint inside its range.
    fn bump_implying(&self, op: CmpOp, t: f64, mut bump: impl FnMut(&[(f64, u32)])) {
        let t = norm(t);
        match op {
            CmpOp::Gt | CmpOp::Ge => {
                for list in [&self.gt, &self.ge, &self.eq] {
                    list.for_suffix(|x| x.total_cmp(&t).is_ge(), &mut bump);
                }
            }
            CmpOp::Lt | CmpOp::Le => {
                for list in [&self.lt, &self.le, &self.eq] {
                    list.for_prefix(|x| x.total_cmp(&t).is_le(), &mut bump);
                }
            }
            CmpOp::Eq => {
                self.eq.for_eq(|x| x.total_cmp(&t).is_lt(), |x| x.total_cmp(&t).is_le(), bump)
            }
            CmpOp::Ne => unreachable!("Ne is never indexable"),
        }
    }
}

/// Counts one hit on every member `refs` names in the `epoch` counters,
/// noting each member's first hit in `touched`.
#[inline]
fn count_hits(counts: &mut [(u64, u32)], touched: &mut Vec<u32>, epoch: u64, refs: &[(f64, u32)]) {
    for &(_, m) in refs {
        let count = &mut counts[m as usize];
        if count.0 == epoch {
            count.1 += 1;
        } else {
            *count = (epoch, 1);
            touched.push(m);
        }
    }
}

/// Normalizes a threshold for `total_cmp`-ordered storage: `-0.0` and
/// `0.0` compare equal numerically but not under `total_cmp`, so both are
/// stored (and covering-probed) as `+0.0`. Matching compares numerically,
/// so it sees no difference. NaN never enters a list.
fn norm(t: f64) -> f64 {
    if t == 0.0 {
        0.0
    } else {
        t
    }
}

/// The immutable installed form of one subscription as one source's
/// dissemination tree carries it: the subscription restricted to that
/// source's streams plus its per-stream indexable/residual split
/// ([`StreamRequest::split_for_index`]), derived once. The broker's
/// ledger and every hop's routing entry of the installation hold the same
/// `Arc`, so a hop costs a refcount bump instead of a deep copy and
/// nothing re-derives the split — not the skip probe, the victim probes
/// or the insert, and not compaction either. The requests themselves are
/// not copied even once: a single-source form holds the subscription it
/// was handed, whose request body ([`crate::subscription::StreamMap`]) is
/// shared with every clone of it — the subscriber's own copy included.
#[derive(Debug)]
pub struct InstalledSub {
    sub: Subscription,
    /// `(indexable comparisons, residual predicates)` per stream, in
    /// `sub.streams` order.
    skeleton: Vec<(Vec<IndexableCmp>, Arc<[CompiledPredicate]>)>,
}

impl InstalledSub {
    /// Splits every stream of `sub` once.
    pub fn new(sub: Subscription) -> Arc<Self> {
        let skeleton = sub
            .streams
            .iter()
            .map(|(&s, req)| {
                let (indexable, residual) = req.split_for_index(s);
                (indexable, residual.into())
            })
            .collect();
        Arc::new(Self { sub, skeleton })
    }

    /// The subscription this form installs.
    pub fn sub(&self) -> &Subscription {
        &self.sub
    }

    /// Each stream with its request and precomputed split.
    fn streams(
        &self,
    ) -> impl Iterator<Item = (Symbol, &StreamRequest, &[IndexableCmp], &Arc<[CompiledPredicate]>)>
    {
        self.sub.streams.iter().zip(&self.skeleton).map(|((&s, req), (i, r))| (s, req, &i[..], r))
    }
}

/// Deterministic work counters of covering resolution: what an arrival
/// *did*, independent of the host it ran on. Exact under a seed, so tests
/// pin them as constants (see [`crate::broker::BrokerNetwork::cover_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// Threshold-list slots the counting range walks visited.
    pub visited: u64,
    /// Exact covering confirmations attempted on candidates.
    pub attempted: u64,
    /// Confirmations that held (a skip or a drop).
    pub held: u64,
}

impl CoverStats {
    /// Records the outcome of one exact confirmation and passes it on.
    pub(crate) fn confirm(&mut self, held: bool) -> bool {
        self.attempted += 1;
        self.held += u64::from(held);
        held
    }
}

/// The outcome of one covering-merged forwarding-entry insert
/// ([`RoutingTable::insert_covering`]).
#[derive(Debug)]
pub enum ForwardInsert {
    /// Entry installed; these subscriptions' covered same-direction
    /// entries were dropped — one id **per dropped entry** (a multi-stream
    /// victim can lose several entries toward the same hop), in table
    /// order, so the caller can scrub each from the victim's ledger.
    Inserted {
        /// Owning ids of the dropped entries.
        dropped: Vec<SubId>,
    },
    /// An existing covering entry of subscription `by` made the insert
    /// redundant.
    Skipped {
        /// The covering subscription.
        by: SubId,
    },
}

/// The part of a stream partition that matching reads and never writes:
/// members, always-candidates and threshold lists. A frozen partition
/// ([`FrozenPartition`]) holds a clone of it — same slots, tombstones
/// under their `dead` flag.
#[derive(Debug, Default, Clone)]
pub(crate) struct Partition {
    /// In insertion order; [`Member::entry`] ascends with the slot.
    members: OneOrMany<Member>,
    /// Live members with no indexable predicates (always candidates).
    zero_target: OneOrMany<u32>,
    /// Threshold lists per indexed operand: stored attributes and the
    /// event-time pseudo-attribute. A handful of keys at most, probed
    /// once per message attribute: a sorted vector, not a hash.
    lists: VecMap<IndexOperand, OpLists>,
}

impl Partition {
    /// The owning entry of member `m` when it is live and forwards toward
    /// hop group `g`: the filter every covering candidate passes once.
    fn toward(&self, g: u32, m: u32) -> Option<u32> {
        let member = &self.members[m as usize];
        let to_g = matches!(member.action, MemberAction::Hop { group, .. } if group == g);
        (to_g && !member.dead).then_some(member.entry)
    }

    /// Appends to `out` the entries toward hop group `g` that could cover
    /// a subscription whose comparisons on this stream are `probe` (a
    /// superset, unordered — callers confirm with the exact check): the
    /// members every comparison of which falls in the probe's
    /// [`coverer_bounds`], and the members with none.
    fn coverers(
        &self,
        g: u32,
        probe: &[IndexableCmp],
        scratch: &mut MatchScratch,
        out: &mut Vec<u32>,
        stats: &mut CoverStats,
    ) {
        let epoch = scratch.fresh_epoch(self.members.len());
        let MatchScratch { counts, touched, .. } = scratch;
        let mut visited = 0;
        for (i, c) in probe.iter().enumerate() {
            let operand = c.operand;
            if probe[..i].iter().any(|p| p.operand == operand) {
                continue; // walked with its first comparison
            }
            let Some(lists) = self.lists.get(&operand) else { continue };
            let bounds = coverer_bounds(
                probe.iter().filter(|c| c.operand == operand).map(|c| (c.op, c.threshold)),
            );
            lists.bump_coverers(&bounds, |refs| {
                visited += refs.len() as u64;
                count_hits(counts, touched, epoch, refs);
            });
        }
        stats.visited += visited;
        let counted =
            touched.iter().filter(|&&m| counts[m as usize].1 == self.members[m as usize].target);
        out.extend(self.zero_target.iter().chain(counted).filter_map(|&m| self.toward(g, m)));
    }

    /// Appends to `out` the entries toward hop group `g` that a
    /// subscription whose comparisons on this stream are `probe` could
    /// cover (a superset, unordered): every probe comparison must be
    /// implied by one of the member's, which the counters track as the
    /// length of the probe's hit prefix. With no comparison every member
    /// toward `g` is a candidate — output-sensitive rather than
    /// sublinear, but a filterless coverer drops nearly all it touches.
    fn covered(
        &self,
        g: u32,
        probe: &[IndexableCmp],
        scratch: &mut MatchScratch,
        out: &mut Vec<u32>,
        stats: &mut CoverStats,
    ) {
        if probe.is_empty() {
            out.extend((0..self.members.len() as u32).filter_map(|m| self.toward(g, m)));
            return;
        }
        if probe.iter().any(|c| c.threshold.is_nan()) {
            return; // an unsatisfiable comparison is implied by nothing
        }
        let epoch = scratch.fresh_epoch(self.members.len());
        let MatchScratch { counts, touched, .. } = scratch;
        let mut visited = 0;
        for (j, c) in (0u32..).zip(probe) {
            let Some(lists) = self.lists.get(&c.operand) else { break };
            let mut advanced = false;
            lists.bump_implying(c.op, c.threshold, |refs| {
                visited += refs.len() as u64;
                for &(_, m) in refs {
                    let count = &mut counts[m as usize];
                    if j == 0 && count.0 != epoch {
                        *count = (epoch, 1);
                        touched.push(m);
                        advanced = true;
                    } else if count.0 == epoch && count.1 == j {
                        count.1 = j + 1;
                        advanced = true;
                    }
                }
            });
            if !advanced {
                break; // nobody carries this comparison: nothing to cover
            }
        }
        stats.visited += visited;
        let n = probe.len() as u32;
        let hit_all = touched.iter().filter(|&&m| counts[m as usize].1 == n);
        out.extend(hit_all.filter_map(|&m| self.toward(g, m)));
    }
}

/// The index over one stream's entries at one node. A node on many users'
/// result paths holds thousands of these with a single member each, so it
/// owns nothing sized for a population it may not have (match state is
/// the matcher's [`MatchScratch`], projection classes are the table's).
#[derive(Debug, Default)]
struct StreamIndex {
    part: Partition,
    hops: OneOrMany<HopGroup>,
    /// Members tombstoned since the last per-run sweep of the threshold
    /// lists; once these dominate the partition the lists are swept
    /// run-by-run without rebuilding the table.
    dead_members: usize,
}

// Paid once per (node, stream), the lone member and hop group included
// (each `OneOrMany` keeps its tag in its element's niche): 104 bytes plus
// three one-element heap blocks while members, always-candidates and hop
// groups were `Vec`s; at 560 bytes it was a quarter of the end-to-end
// `sensor-join` heap, and 128 while every partition kept its own
// projection classes.
const _: () = assert!(std::mem::size_of::<StreamIndex>() <= 144);

/// Deterministic size counters of a network's routing state — how many
/// records of each kind are *stored* (tombstones included until their
/// owner compacts), a function of the operation sequence only. See
/// [`crate::broker::BrokerNetwork::footprint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingFootprint {
    /// Stream partitions over all routing tables.
    pub partitions: u64,
    /// `(entry, stream)` member records over all partitions.
    pub members: u64,
    /// `(stream, next hop)` groups over all partitions.
    pub hop_groups: u64,
}

impl RoutingFootprint {
    /// Counts one stored partition: its member records and its
    /// `hop_groups`.
    pub(crate) fn add_partition(&mut self, part: &Partition, hop_groups: usize) {
        self.partitions += 1;
        self.members += part.members.len() as u64;
        self.hop_groups += hop_groups as u64;
    }
}

/// Deterministic work counters of matching: what the messages matched
/// through one [`MatchScratch`] *did*, independent of the host. Exact for
/// a given routing state and message sequence, whichever publish path
/// matched it (see [`crate::broker::BrokerNetwork::match_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Messages matched against a partition (one per node visited).
    pub messages: u64,
    /// Threshold-list references the counting pass walked.
    pub bumps: u64,
    /// Live members whose whole indexable prefix was satisfied (filter-free
    /// members included): what the residual pass visits.
    pub candidates: u64,
    /// Candidates carrying residual predicates, i.e. evaluated in full.
    pub residual_evals: u64,
    /// Local deliveries produced.
    pub deliveries: u64,
    /// Next-hop forwards produced.
    pub forwards: u64,
}

impl std::ops::AddAssign for MatchStats {
    fn add_assign(&mut self, o: Self) {
        self.messages += o.messages;
        self.bumps += o.bumps;
        self.candidates += o.candidates;
        self.residual_evals += o.residual_evals;
        self.deliveries += o.deliveries;
        self.forwards += o.forwards;
    }
}

/// The outcome of matching one message at one node. The matcher recycles
/// one of these per [`MatchScratch`], handing it to the caller's sink.
#[derive(Debug, Default)]
pub struct MatchOutput {
    /// Local deliveries: `(subscription, projected message)` in
    /// installation-sequence order.
    pub deliveries: Vec<(SubId, Message)>,
    /// Forwards sorted by node id, each keeping what the members toward
    /// that hop that matched need. `None` is an identity forward (they
    /// need the whole record): the caller shares the message it already
    /// holds instead of paying a clone per hop.
    pub forwards: Vec<(NodeId, Option<Message>)>,
}

impl MatchOutput {
    /// Empties both buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.forwards.clear();
    }
}

/// Everything matching mutates but the plan caches, one per
/// [`RoutingTable`]. Every stamp below is valid only
/// when it equals the current `epoch`, which is bumped once per message
/// and never reused — so a counter, class record or hop mark left by an
/// earlier message, of this partition or any other matched through the
/// same scratch, can never be read as current, and nothing is reset
/// between messages or between partitions.
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    epoch: u64,
    /// Per member slot: `(epoch of the last bump, satisfied predicates)`.
    counts: Vec<(u64, u32)>,
    /// Members bumped this epoch.
    touched: Vec<u32>,
    /// Fully-satisfied `(seq, member)` pairs, sorted to subscribe order —
    /// flat keys, so the sort never chases pointers.
    candidates: Vec<(u64, u32)>,
    /// Hop groups marked by the current message.
    touched_hops: Vec<u32>,
    /// Per projection class: the record projected in the stamped epoch.
    class_records: Vec<(u64, Option<Message>)>,
    /// Per hop group: the last epoch in which a member matched, and where
    /// in `hop_masks` that message's mask for the group starts — `None`
    /// when a matched member needs the whole record.
    hop_marks: Vec<(u64, Option<u32>)>,
    /// The current message's marked groups' masks: per group, the OR of
    /// its matched members' needs over the message's columns.
    hop_masks: Vec<u64>,
    /// The current message's matched forwarding members that need less
    /// than the whole record: `(hop group, class)`.
    hop_needs: Vec<(u32, u32)>,
    /// Schema-resolution cache of the run being matched: `(value index,
    /// position in the partition's list map)` per indexed attribute of
    /// each schema seen in the run, at the range `resolutions` gives per
    /// schema id — positions, not references, so both are reused across
    /// runs and a one-message run allocates nothing. A run holds a few
    /// shapes where upstream forwards narrowed some records and not others.
    resolved: Vec<(u32, u32)>,
    resolutions: Vec<(u32, u32, u32)>,
    out: MatchOutput,
    /// The work done through this scratch so far.
    pub(crate) stats: MatchStats,
}

impl MatchScratch {
    /// Opens a fresh epoch for counting over a partition of `members`
    /// slots: no counter of an earlier epoch reads as current.
    fn fresh_epoch(&mut self, members: usize) -> u64 {
        self.epoch += 1;
        self.touched.clear();
        if self.counts.len() < members {
            self.counts.resize(members, (0, 0));
        }
        self.epoch
    }
}

/// The epoch stamp `v[i]`, growing `v` with never-current defaults first
/// when it is too short.
fn stamp<T: Default + Clone>(v: &mut Vec<T>, i: u32) -> &mut T {
    let i = i as usize;
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// **The** matcher: matches a run of same-stream messages against one
/// partition, handing each message's result to
/// `sink(tag, out)` in run order, `out` recycled between messages.
///
/// Per message: counting pass over the message's indexed attributes
/// (threshold lists re-resolved only when the schema pointer changes
/// within the run), candidates — fully-counted live members plus
/// filter-free ones — sorted by `(seq, slot)`, residual evaluation,
/// one projection per class, and per marked hop group one projection to
/// what its matched members need. `from` suppresses the reverse hop. A
/// single match is a run of one.
pub(crate) fn match_run(
    part: &Partition,
    classes: &mut [CachedProjection],
    hops: &mut [HopGroup],
    scratch: &mut MatchScratch,
    run: &[(u32, &Message)],
    from: Option<NodeId>,
    mut sink: impl FnMut(u32, &mut MatchOutput),
) {
    let Partition { members, zero_target, lists } = part;
    // Resolved to slices once: the run indexes members per candidate.
    let (members, zero_target): (&[Member], &[u32]) = (members, zero_target);
    let MatchScratch {
        epoch: scratch_epoch,
        counts,
        touched,
        candidates,
        touched_hops,
        class_records,
        hop_marks,
        hop_masks,
        hop_needs,
        resolved,
        resolutions,
        out,
        stats,
    } = scratch;
    resolved.clear();
    resolutions.clear();
    if counts.len() < members.len() {
        counts.resize(members.len(), (0, 0));
    }
    let ts_lists = lists.get(&IndexOperand::Timestamp);
    // Counted in a local (registers), folded into the scratch once.
    let mut work = MatchStats { messages: run.len() as u64, ..MatchStats::default() };
    for &(tag, msg) in run {
        *scratch_epoch += 1;
        let epoch = *scratch_epoch;
        touched.clear();
        candidates.clear();
        touched_hops.clear();
        hop_masks.clear();
        hop_needs.clear();
        let words = msg.schema().len().div_ceil(64);

        // Counting pass: dead members are bumped like live ones (a bump
        // never reads a member) and filtered with the candidates.
        let mut bump = |refs: &[(f64, u32)]| {
            work.bumps += refs.len() as u64;
            count_hits(counts, touched, epoch, refs);
        };
        if !lists.is_empty() {
            let schema = msg.schema();
            let id = schema.id();
            let (start, end) = match resolutions.iter().find(|r| r.0 == id) {
                Some(&(_, start, end)) => (start, end),
                None => {
                    let start = resolved.len() as u32;
                    resolved.extend(schema.attrs().iter().enumerate().filter_map(|(i, &attr)| {
                        let at = lists.keys().position(|k| *k == IndexOperand::Attr(attr))?;
                        Some((i as u32, at as u32))
                    }));
                    resolutions.push((id, start, resolved.len() as u32));
                    (start, resolved.len() as u32)
                }
            };
            for &(i, at) in &resolved[start as usize..end as usize] {
                let Some(v) = ScalarRef::from(&msg.values()[i as usize]).as_f64() else {
                    continue; // string value: numeric comparisons are false
                };
                if v.is_nan() {
                    continue;
                }
                let (_, attr_lists) = lists.iter().nth(at as usize).expect("resolved in this map");
                attr_lists.bump_satisfied(v, &mut bump);
            }
        }
        if let Some(ts_lists) = ts_lists {
            ts_lists.bump_satisfied(msg.timestamp as f64, &mut bump);
        }

        // Candidates in installation-sequence order — the population's
        // subscribe order, stable across incremental removal and
        // re-installation (member slots are only partition insertion
        // order, which repair churns). The seq rides along in the scratch
        // pairs, so the sort compares flat keys.
        candidates.extend(zero_target.iter().map(|&m| (members[m as usize].seq, m)));
        candidates.extend(touched.iter().filter_map(|&m| {
            let member = &members[m as usize];
            (counts[m as usize].1 == member.target && !member.dead).then_some((member.seq, m))
        }));
        candidates.sort_unstable();
        work.candidates += candidates.len() as u64;

        out.clear();
        for &(_, m) in candidates.iter() {
            let member = &members[m as usize];
            work.residual_evals += u64::from(!member.residual.is_empty());
            if !eval_compiled(&member.residual, msg) {
                continue;
            }
            match member.action {
                MemberAction::Local { sub, class } => {
                    // Projection-class dedup: the first matched member of a
                    // class computes the projection; the rest of the class
                    // shares the record (a refcount bump per delivery).
                    let record = stamp(class_records, class);
                    if record.0 != epoch {
                        *record = (epoch, Some(classes[class as usize].apply(msg)));
                    }
                    out.deliveries.push((sub, record.1.clone().expect("projected this epoch")));
                }
                MemberAction::Hop { group, class } => {
                    let mark = stamp(hop_marks, group);
                    if mark.0 != epoch {
                        touched_hops.push(group);
                        hop_masks.resize(hop_masks.len() + words, 0);
                        *mark = (epoch, Some((hop_masks.len() - words) as u32));
                    }
                    match class {
                        // Needing the whole record makes the forward an
                        // identity one, which no member can narrow.
                        None => mark.1 = None,
                        Some(class) => hop_needs.push((group, class)),
                    }
                }
            }
        }
        // Marking is order-free, so needs are added once every group knows
        // whether a member needing the whole record matched: most such
        // groups never read a class.
        for &(group, class) in hop_needs.iter() {
            if let Some(at) = hop_marks[group as usize].1 {
                if let Some(kept) = classes[class as usize].kept(msg.schema()) {
                    kept.add_to(&mut hop_masks[at as usize..][..words]);
                }
            }
        }
        // Forwards come from the groups this message marked; sorting by
        // node id gives the order the forwarding walk recurses in.
        for &g in touched_hops.iter() {
            let HopGroup { to, forwards } = &mut hops[g as usize];
            if Some(*to) != from {
                let narrowed = hop_marks[g as usize]
                    .1
                    .and_then(|at| forwards.apply(msg, &hop_masks[at as usize..][..words]));
                out.forwards.push((*to, narrowed));
            }
        }
        out.forwards.sort_by_key(|(n, _)| *n);
        work.deliveries += out.deliveries.len() as u64;
        work.forwards += out.forwards.len() as u64;
        sink(tag, out);
    }
    *stats += work;
}

/// A node's routing table: entries partitioned by stream, each partition
/// carrying a counting predicate index (see the module docs).
#[derive(Debug, Default)]
pub struct RoutingTable {
    entries: Vec<Entry>,
    /// Stream partitions, in order of first install.
    parts: Vec<StreamIndex>,
    /// Each stream's slot in `parts`.
    part_of: HashMap<Symbol, u32>,
    /// The projection classes of every partition: one per distinct
    /// projection a local member keeps or a forwarding member needs, each
    /// with the writer's plan cache.
    classes: Vec<CachedProjection>,
    /// Scratch buffer of candidate slots, reused across
    /// [`RoutingTable::insert_covering`] calls.
    cover_scratch: Vec<u32>,
    /// Each owning subscription's first live entry slot; the others
    /// follow through [`Entry::next`], ascending. Removal walks the
    /// owner's own entries instead of scanning the table, and an owner
    /// costs this map slot and no heap block of its own.
    by_sub: HashMap<SubId, u32>,
    dead: usize,
    /// The writer's match state: one per table — matching visits one
    /// partition at a time.
    scratch: MatchScratch,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live entries in installation order, as `(subscription, next hop)`.
    pub fn entries(&self) -> impl Iterator<Item = (&Subscription, Option<NodeId>)> {
        self.entries.iter().filter(|e| !e.dead).map(|e| (&e.form.sub, e.to))
    }

    /// The live slots of `id`'s entries, ascending: its chain from
    /// [`RoutingTable::by_sub`].
    fn owner_slots(&self, id: SubId) -> impl Iterator<Item = u32> + '_ {
        let head = self.by_sub.get(&id).copied();
        std::iter::successors(head, |&slot| {
            Some(self.entries[slot as usize].next).filter(|&next| next != NIL)
        })
    }

    /// Verifies the owner chains: every link names a live slot of its
    /// owner, each chain ascends, and every live entry is reached from
    /// its owner's head. Returns a description of the first violation.
    pub(crate) fn check_owner_links(&self) -> Result<(), String> {
        let mut reached = 0;
        for (&id, &head) in &self.by_sub {
            let (mut slot, mut prev) = (head, None);
            loop {
                let Some(e) = self.entries.get(slot as usize).filter(|e| !e.dead) else {
                    return Err(format!("an owner link of {id} names slot {slot}, not a live one"));
                };
                if e.form.sub.id != id {
                    return Err(format!(
                        "slot {slot} on {id}'s chain belongs to {}",
                        e.form.sub.id
                    ));
                }
                if prev.is_some_and(|p| p >= slot) {
                    return Err(format!("the chain of {id} does not ascend at slot {slot}"));
                }
                reached += 1;
                prev = Some(slot);
                if e.next == NIL {
                    break;
                }
                slot = e.next;
            }
        }
        if reached != self.len() {
            return Err(format!(
                "{reached} of {} live entries are reached from their owners' heads",
                self.len()
            ));
        }
        Ok(())
    }

    /// Adds this table's stored partitions, members and hop groups to
    /// `fp`.
    pub(crate) fn add_footprint(&self, fp: &mut RoutingFootprint) {
        for index in &self.parts {
            fp.add_partition(&index.part, index.hops.len());
        }
    }

    /// The matching work done against this table so far.
    pub(crate) fn match_stats(&self) -> MatchStats {
        self.scratch.stats
    }

    /// Releases growth slack: the entry and partition arenas, the stream
    /// and owner maps and each partition's member, always-candidate and
    /// hop lists keep exactly what they hold (a list of one goes inline).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.parts.shrink_to_fit();
        self.part_of.shrink_to_fit();
        self.by_sub.shrink_to_fit();
        for index in &mut self.parts {
            index.part.members.shrink_to_fit();
            index.part.zero_target.shrink_to_fit();
            index.hops.shrink_to_fit();
        }
    }

    /// Drops all entries and index state (the match scratch stays).
    fn clear(&mut self) {
        self.entries.clear();
        self.parts.clear();
        self.part_of.clear();
        self.classes.clear();
        self.by_sub.clear();
        self.dead = 0;
    }

    /// Installs an entry, extending every affected stream partition
    /// incrementally. `seq` is the owning subscription's installation
    /// sequence number: local deliveries are emitted in ascending `seq`,
    /// keeping delivery order stable across incremental removal and
    /// re-installation. The entry shares `form` — the broker hands the
    /// same one to every hop of an installation.
    pub fn insert(&mut self, form: Arc<InstalledSub>, to: Option<NodeId>, seq: u64) {
        let Self { entries, parts, part_of, classes, by_sub, .. } = self;
        let entry_id = u32::try_from(entries.len()).expect("routing table overflow");
        let sub = &form.sub;
        for (stream, req, indexable, residual) in form.streams() {
            let p = *part_of.entry(stream).or_insert_with(|| {
                parts.push(StreamIndex::default());
                u32::try_from(parts.len() - 1).expect("partition count overflow")
            });
            let index = &mut parts[p as usize];
            let member_id = u32::try_from(index.part.members.len()).expect("partition overflow");
            let target = u32::try_from(indexable.len()).expect("filter count overflow");
            for cmp in indexable {
                // NaN thresholds are unsatisfiable (every comparison with
                // NaN is false): they count toward `target` but never
                // enter a list, so the member simply can never match —
                // nor cover, and nothing implies them.
                if cmp.threshold.is_nan() {
                    continue;
                }
                index.part.lists.get_or_insert_default(cmp.operand).insert(
                    cmp.op,
                    norm(cmp.threshold),
                    member_id,
                );
            }
            let action = match to {
                // Join (or open) the projection class for this exact
                // retained-attribute set — the class's plan cache and
                // per-message projected record are shared by every member
                // requesting the same attributes.
                None => {
                    MemberAction::Local { sub: sub.id, class: class_of(classes, req.projection()) }
                }
                Some(next) => {
                    let class = match req.needs() {
                        StreamProjection::All => None,
                        needs => Some(class_of(classes, needs)),
                    };
                    let hops = &mut index.hops;
                    let g = hops.iter().position(|h| h.to == next).unwrap_or_else(|| {
                        hops.push(HopGroup { to: next, forwards: MaskedProjection::default() });
                        hops.len() - 1
                    });
                    MemberAction::Hop {
                        group: u32::try_from(g).expect("hop group overflow"),
                        class,
                    }
                }
            };
            let part = &mut index.part;
            let zero_slot = part.zero_target.len() as u32;
            if target == 0 {
                part.zero_target.push(member_id);
            }
            part.members.push(Member {
                entry: entry_id,
                seq,
                target,
                zero_slot,
                residual: Arc::clone(residual),
                dead: false,
                action,
            });
        }
        // Slots only grow, so the new one ends its owner's chain.
        match by_sub.get(&sub.id) {
            None => {
                by_sub.insert(sub.id, entry_id);
            }
            Some(&head) => {
                let mut tail = head as usize;
                while entries[tail].next != NIL {
                    tail = entries[tail].next as usize;
                }
                entries[tail].next = entry_id;
            }
        }
        entries.push(Entry { form, to, seq, dead: false, next: NIL });
    }

    /// First-class incremental removal: tombstones every live entry of
    /// subscription `id` pointing `to` the given direction (all of them —
    /// one subscription can contribute several stream-restricted entries
    /// at a node toward the same hop). Hop-group unions and projection
    /// classes are updated only where the removed entries were members;
    /// the table compacts once tombstones dominate, and is cleared once no
    /// live entry is left. Returns the number of entries removed.
    pub fn remove_entry(&mut self, id: SubId, to: Option<NodeId>) -> usize {
        // An owner's chain ascends, so the victims come out in table order
        // — identical to a whole-table scan.
        let victims: Vec<u32> =
            self.owner_slots(id).filter(|&v| self.entries[v as usize].to == to).collect();
        for &v in &victims {
            self.tombstone(v);
        }
        if self.is_empty() {
            // Below the compaction floor a table keeps its tombstones; one
            // whose last live entry left keeps none of them, nor their
            // room. Only the match state (and its counters) stays.
            let scratch = std::mem::take(&mut self.scratch);
            *self = Self { scratch, ..Self::default() };
        } else {
            self.maybe_compact();
        }
        victims.len()
    }

    /// Covering-merged insert of a forwarding entry toward `to`, answering
    /// both covering questions by counting over the partitions' threshold
    /// lists instead of walking the table. `form` requests at least one
    /// stream (the broker installs forwarding entries only per advertised
    /// source of one):
    ///
    /// 1. **Skip** when a live same-direction entry covers the
    ///    subscription (a coverer must request every one of its streams,
    ///    so the first stream's partition already holds every possible
    ///    coverer); the reported coverer is the first one in table order
    ///    — what a scan of the table would answer.
    /// 2. Otherwise **drop** every live entry it covers (a victim's
    ///    streams are a subset of its own, so the union of its stream
    ///    partitions holds every possible victim), tombstone them, and
    ///    insert the entry.
    ///
    /// `covers(general, specific)` is the exact confirmation the
    /// candidates are checked against; `stats` accumulates the work done.
    /// A subscription never skips or drops its own id: a multi-stream
    /// installation may revisit a hop once per source, and those sibling
    /// entries must coexist.
    pub fn insert_covering<F>(
        &mut self,
        form: Arc<InstalledSub>,
        to: NodeId,
        seq: u64,
        covers: F,
        stats: &mut CoverStats,
    ) -> ForwardInsert
    where
        F: Fn(&Subscription, &Subscription) -> bool,
    {
        let Self { entries, parts, part_of, cover_scratch: slots, scratch, .. } = self;
        let sub = &form.sub;
        // A stream's partition and its hop group toward `to`: without one,
        // the stream holds neither a coverer nor a victim.
        let hop_group = |stream: Symbol| {
            let index = &parts[*part_of.get(&stream)? as usize];
            let g = index.hops.iter().position(|h| h.to == to)?;
            Some((&index.part, g as u32))
        };
        slots.clear();
        let (s0, _, probe0, _) = form.streams().next().expect("non-empty streams");
        if let Some((part, g)) = hop_group(s0) {
            part.coverers(g, probe0, scratch, slots, stats);
        }
        // Entry ids ascend in table order.
        slots.sort_unstable();
        for &slot in slots.iter() {
            let general = &entries[slot as usize].form.sub;
            if general.id != sub.id && stats.confirm(covers(general, sub)) {
                return ForwardInsert::Skipped { by: general.id };
            }
        }
        slots.clear();
        for (s, _, probe, _) in form.streams() {
            if let Some((part, g)) = hop_group(s) {
                part.covered(g, probe, scratch, slots, stats);
            }
        }
        // Table order, once per entry: a multi-stream entry is a
        // candidate of each of its streams.
        slots.sort_unstable();
        slots.dedup();
        slots.retain(|&slot| {
            let specific = &entries[slot as usize].form.sub;
            specific.id != sub.id && stats.confirm(covers(sub, specific))
        });
        let victims = std::mem::take(slots);
        let dropped: Vec<SubId> =
            victims.iter().map(|&v| self.entries[v as usize].form.sub.id).collect();
        for &v in &victims {
            self.tombstone(v);
        }
        self.cover_scratch = victims;
        self.maybe_compact();
        self.insert(form, Some(to), seq);
        ForwardInsert::Inserted { dropped }
    }

    fn tombstone(&mut self, entry_id: u32) {
        let entry = &mut self.entries[entry_id as usize];
        entry.dead = true;
        self.dead += 1;
        let next = std::mem::replace(&mut entry.next, NIL);
        let form = Arc::clone(&entry.form);
        let id = form.sub.id;
        // Unlink the slot from its owner's chain.
        match self.by_sub.get(&id) {
            Some(&head) if head == entry_id => {
                if next == NIL {
                    self.by_sub.remove(&id);
                } else {
                    self.by_sub.insert(id, next);
                }
            }
            Some(&head) => {
                let mut prev = head as usize;
                while self.entries[prev].next != entry_id {
                    prev = self.entries[prev].next as usize;
                }
                self.entries[prev].next = next;
            }
            None => {}
        }
        for stream in form.sub.streams.keys() {
            let Some(&p) = self.part_of.get(stream) else { continue };
            let StreamIndex { part, dead_members, .. } = &mut self.parts[p as usize];
            let Partition { members, zero_target, lists } = part;
            // Entry ids ascend with the member slot (module docs).
            let Ok(m) = members.binary_search_by_key(&entry_id, |m| m.entry) else {
                continue;
            };
            let member = &mut members[m];
            if member.dead {
                continue;
            }
            member.dead = true;
            *dead_members += 1;
            if member.target == 0 {
                // Candidates are ordered by `(seq, member)` at match
                // time, so the list's own order is free to change.
                let slot = member.zero_slot as usize;
                zero_target.swap_remove(slot);
                if let Some(&moved) = zero_target.get(slot) {
                    members[moved as usize].zero_slot = slot as u32;
                }
            }
            // Per-run sweep: once tombstones dominate the partition, drop
            // the dead members' list slots run-by-run — no table rebuild,
            // no cross-run memmove. The member records themselves stay
            // until the whole table compacts.
            if tombstones_dominate(*dead_members, members.len()) {
                *dead_members = 0;
                for lists in lists.values_mut() {
                    lists.sweep_dead(members);
                }
            }
        }
    }

    /// Rebuilds the table from its live entries once tombstones dominate,
    /// bounding memory and keeping threshold lists dense: stale threshold
    /// references disappear, dead hop groups and emptied projection
    /// classes are dropped, and survivors re-group. Sequence numbers are
    /// preserved, so observable delivery order is unchanged.
    fn maybe_compact(&mut self) {
        if !tombstones_dominate(self.dead, self.entries.len()) {
            return;
        }
        let live: Vec<Entry> = self.entries.drain(..).filter(|e| !e.dead).collect();
        self.clear();
        for e in live {
            self.insert(e.form, e.to, e.seq);
        }
    }

    /// Matches one message — a run of one from a stack array — leaving
    /// its result in `out` (whose buffers are recycled into the scratch).
    pub(crate) fn match_one(&mut self, msg: &Message, from: Option<NodeId>, out: &mut MatchOutput) {
        out.clear();
        if let Some((part, classes, hops, scratch)) = self.at(msg.stream) {
            match_run(part, classes, hops, scratch, &[(0, msg)], from, |_, matched| {
                std::mem::swap(matched, out);
            });
        }
    }

    /// What [`match_run`] takes to match messages of `stream` here — that
    /// stream's partition, this table's projection classes, the
    /// partition's hop groups, this table's match state — or `None` when
    /// the table holds no entry for the stream.
    pub(crate) fn at(
        &mut self,
        stream: Symbol,
    ) -> Option<(&Partition, &mut [CachedProjection], &mut [HopGroup], &mut MatchScratch)> {
        let index = &mut self.parts[*self.part_of.get(&stream)? as usize];
        Some((&index.part, &mut self.classes, &mut index.hops, &mut self.scratch))
    }

    /// Freezes this table into its image ([`crate::snapshot`]): per
    /// stream, a clone of its partition and of each hop group's next hop
    /// with its forward plans — same slots, tombstones included.
    pub(crate) fn freeze(&self) -> FrozenTable {
        let freeze = |index: &StreamIndex| FrozenPartition {
            part: index.part.clone(),
            hops: index.hops.iter().map(|h| (h.to, h.forwards.clone())).collect(),
        };
        self.part_of.iter().map(|(&s, &p)| (s, freeze(&self.parts[p as usize]))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::{AttrRef, Predicate, Scalar};

    fn cmp(stream: &str, attr: &str, op: CmpOp, v: Scalar) -> Predicate {
        Predicate::Cmp { attr: AttrRef::new(stream, attr), op, value: v }
    }

    /// Test inserts: the subscription id doubles as the sequence number,
    /// so delivery order matches insertion order as before, and covering
    /// inserts confirm with [`rcovers`].
    trait TestInsert {
        fn ins(&mut self, sub: Subscription, to: Option<NodeId>);
        fn ins_covering(&mut self, sub: Subscription, to: NodeId) -> ForwardInsert;
    }

    impl TestInsert for RoutingTable {
        fn ins(&mut self, sub: Subscription, to: Option<NodeId>) {
            let seq = sub.id.0;
            self.insert(InstalledSub::new(sub), to, seq);
        }

        fn ins_covering(&mut self, sub: Subscription, to: NodeId) -> ForwardInsert {
            let seq = sub.id.0;
            let mut stats = CoverStats::default();
            self.insert_covering(InstalledSub::new(sub), to, seq, rcovers, &mut stats)
        }
    }

    fn sub(id: u64, filters: Vec<Predicate>) -> Subscription {
        Subscription::builder(NodeId(0))
            .id(SubId(id))
            .stream("R", StreamProjection::All, filters)
            .build()
    }

    /// The partition of stream `R`, which every fixture here uses.
    fn part_r(table: &RoutingTable) -> &StreamIndex {
        &table.parts[table.part_of[&Symbol::intern("R")] as usize]
    }

    /// Attribute count of the first forward, which must be a narrowed one.
    fn fwd_len(out: &MatchOutput) -> usize {
        out.forwards[0].1.as_ref().expect("narrowing union").len()
    }

    /// Matches one message into a fresh buffer.
    fn fresh_match(table: &mut RoutingTable, msg: &Message, from: Option<NodeId>) -> MatchOutput {
        let mut out = MatchOutput::default();
        table.match_one(msg, from, &mut out);
        out
    }

    fn local_matches(table: &mut RoutingTable, msg: &Message) -> Vec<SubId> {
        fresh_match(table, msg, None).deliveries.into_iter().map(|(s, _)| s).collect()
    }

    /// Pads the partition with entries whose thresholds can never match
    /// the test probes, so assertions run against non-trivial threshold
    /// lists rather than near-empty ones.
    fn pad(table: &mut RoutingTable) {
        for i in 0..25u64 {
            table
                .ins(sub(10_000 + i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(1_000_000))]), None);
        }
    }

    #[test]
    fn counting_matches_all_operator_classes() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), None);
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Ge, Scalar::Int(15))]), None);
        table.ins(sub(3, vec![cmp("R", "a", CmpOp::Lt, Scalar::Int(15))]), None);
        table.ins(sub(4, vec![cmp("R", "a", CmpOp::Le, Scalar::Int(15))]), None);
        table.ins(sub(5, vec![cmp("R", "a", CmpOp::Eq, Scalar::Int(15))]), None);
        table.ins(sub(6, vec![]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(15)));
        assert_eq!(ids, vec![SubId(1), SubId(2), SubId(4), SubId(5), SubId(6)]);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(3)));
        assert_eq!(ids, vec![SubId(3), SubId(4), SubId(6)]);
    }

    #[test]
    fn conjunction_requires_every_indexed_predicate() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(
            sub(
                1,
                vec![
                    cmp("R", "a", CmpOp::Gt, Scalar::Int(10)),
                    cmp("R", "b", CmpOp::Lt, Scalar::Int(5)),
                ],
            ),
            None,
        );
        let hit = Message::new("R", 0).with("a", Scalar::Int(20)).with("b", Scalar::Int(1));
        let miss = Message::new("R", 0).with("a", Scalar::Int(20)).with("b", Scalar::Int(9));
        let missing = Message::new("R", 0).with("a", Scalar::Int(20));
        assert_eq!(local_matches(&mut table, &hit), vec![SubId(1)]);
        assert!(local_matches(&mut table, &miss).is_empty());
        assert!(local_matches(&mut table, &missing).is_empty(), "missing attr is false");
    }

    #[test]
    fn residual_predicates_gate_indexed_candidates() {
        // String equality is residual; numeric part is indexed.
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(
            sub(
                1,
                vec![
                    cmp("R", "a", CmpOp::Gt, Scalar::Int(10)),
                    cmp("R", "s", CmpOp::Eq, Scalar::Str("x".into())),
                ],
            ),
            None,
        );
        let hit =
            Message::new("R", 0).with("a", Scalar::Int(20)).with("s", Scalar::Str("x".into()));
        let miss =
            Message::new("R", 0).with("a", Scalar::Int(20)).with("s", Scalar::Str("y".into()));
        assert_eq!(local_matches(&mut table, &hit), vec![SubId(1)]);
        assert!(local_matches(&mut table, &miss).is_empty());
    }

    #[test]
    fn ne_and_foreign_relation_fall_back_to_residual() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Ne, Scalar::Int(7))]), None);
        // A filter qualified with a different relation can never hold.
        table.ins(sub(2, vec![cmp("S", "a", CmpOp::Gt, Scalar::Int(0))]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(3)));
        assert_eq!(ids, vec![SubId(1)]);
        assert!(
            local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(7))).is_empty()
        );
    }

    #[test]
    fn timestamp_predicates_are_indexed() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "timestamp", CmpOp::Ge, Scalar::Int(1_000))]), None);
        assert!(local_matches(&mut table, &Message::new("R", 500)).is_empty());
        assert_eq!(local_matches(&mut table, &Message::new("R", 1_000)), vec![SubId(1)]);
    }

    #[test]
    fn float_int_mixing_matches_eval_semantics() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Eq, Scalar::Float(5.0))]), None);
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(4.5))]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(5)));
        assert_eq!(ids, vec![SubId(1), SubId(2)]);
    }

    #[test]
    fn nan_threshold_never_matches() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(f64::NAN))]), None);
        table.ins(sub(2, vec![]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(999)));
        assert_eq!(ids, vec![SubId(2)]);
    }

    #[test]
    fn tombstoned_entries_stop_matching_and_table_compacts() {
        let mut table = RoutingTable::new();
        for i in 0..40u64 {
            let mut s = sub(i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(i as i64))]);
            s.subscriber = NodeId(9);
            table.ins(s, Some(NodeId(1)));
        }
        assert_eq!(table.len(), 40);
        for i in (0..40u64).step_by(2) {
            assert_eq!(table.remove_entry(SubId(i), Some(NodeId(1))), 1);
        }
        assert_eq!(table.len(), 20, "every even entry removed");
        // Compaction triggered (tombstones > live): entries list is dense.
        assert_eq!(table.entries.len(), 20);
        let out = fresh_match(&mut table, &Message::new("R", 0).with("a", Scalar::Int(100)), None);
        assert_eq!(out.forwards.len(), 1, "one hop group toward node 1");
    }

    #[test]
    fn an_emptied_table_keeps_no_tombstones() {
        let mut table = RoutingTable::new();
        for i in 0..10u64 {
            let s = sub(i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(i as i64))]);
            table.ins(s, Some(NodeId(1)));
        }
        fresh_match(&mut table, &Message::new("R", 0).with("a", Scalar::Int(5)), None);
        for i in 0..9u64 {
            assert_eq!(table.remove_entry(SubId(i), Some(NodeId(1))), 1);
        }
        assert_eq!(table.entries.len(), 10, "nine tombstones sit below the compaction floor");
        assert_eq!(table.remove_entry(SubId(9), Some(NodeId(1))), 1);
        let mut fp = RoutingFootprint::default();
        table.add_footprint(&mut fp);
        assert_eq!(fp, RoutingFootprint::default());
        assert!(table.entries.is_empty() && table.classes.is_empty() && table.by_sub.is_empty());
        assert_eq!(table.match_stats().messages, 1, "the match counters stay");
    }

    #[test]
    fn hop_union_shrinks_after_removal() {
        let mut table = RoutingTable::new();
        let narrow = Subscription::builder(NodeId(5))
            .id(SubId(1))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        let wide = Subscription::builder(NodeId(6))
            .id(SubId(2))
            .stream("R", StreamProjection::attrs(["a", "b"]), vec![])
            .build();
        table.ins(narrow, Some(NodeId(1)));
        table.ins(wide, Some(NodeId(1)));
        let msg = Message::new("R", 0)
            .with("a", Scalar::Int(1))
            .with("b", Scalar::Int(2))
            .with("c", Scalar::Int(3));
        let out = fresh_match(&mut table, &msg, None);
        assert_eq!(fwd_len(&out), 2, "union {{a,b}} before removal");
        assert_eq!(table.remove_entry(SubId(2), Some(NodeId(1))), 1);
        let out = fresh_match(&mut table, &msg, None);
        assert_eq!(fwd_len(&out), 1, "union shrinks to {{a}}");
    }

    /// Two members toward one hop: `{a}` where `c < 10`, `{a, b}` where
    /// `d > 20` — the narrow one needs `{a, c}`, the wide one `{a, b, d}` —
    /// and an `All` member where `e > 100`.
    fn needs_fixture() -> RoutingTable {
        let member = |id: u64, proj: StreamProjection, filter: Predicate| {
            Subscription::builder(NodeId(5 + id as u32))
                .id(SubId(id))
                .stream("R", proj, vec![filter])
                .build()
        };
        let mut table = RoutingTable::new();
        for sub in [
            member(1, StreamProjection::attrs(["a"]), cmp("R", "c", CmpOp::Lt, Scalar::Int(10))),
            member(
                2,
                StreamProjection::attrs(["a", "b"]),
                cmp("R", "d", CmpOp::Gt, Scalar::Int(20)),
            ),
            member(3, StreamProjection::All, cmp("R", "e", CmpOp::Gt, Scalar::Int(100))),
        ] {
            table.ins(sub, Some(NodeId(1)));
        }
        table
    }

    /// The attributes forwarded toward the one hop for a record with these
    /// `c`, `d` and `e`: `None` for no forward, `Some(None)` for an
    /// identity forward.
    fn forwarded(table: &mut RoutingTable, c: i64, d: i64, e: i64) -> Option<Option<Vec<String>>> {
        let msg = ["a", "b", "c", "d", "e"]
            .into_iter()
            .zip([1, 2, c, d, e])
            .fold(Message::new("R", 0), |m, (attr, v)| m.with(attr, Scalar::Int(v)));
        let out = fresh_match(table, &msg, None);
        assert!(out.forwards.len() <= 1);
        let (_, fwd) = out.forwards.into_iter().next()?;
        Some(fwd.map(|m| m.schema().attrs().iter().map(|a| a.to_string()).collect()))
    }

    #[test]
    fn hop_forward_keeps_what_the_matched_members_need() {
        let mut table = needs_fixture();
        let attrs = |names: &[&str]| Some(Some(names.iter().map(|a| a.to_string()).collect()));
        assert_eq!(forwarded(&mut table, 5, 0, 0), attrs(&["a", "c"]), "narrow member only");
        assert_eq!(forwarded(&mut table, 50, 30, 0), attrs(&["a", "b", "d"]), "wide member only");
        assert_eq!(forwarded(&mut table, 5, 30, 0), attrs(&["a", "b", "c", "d"]), "both");
        assert_eq!(forwarded(&mut table, 50, 0, 0), None, "no member matched");
    }

    #[test]
    fn hop_forward_is_identity_only_when_a_matching_member_needs_all() {
        let mut table = needs_fixture();
        assert_eq!(forwarded(&mut table, 5, 0, 200), Some(None), "`All` matched: identity");
        assert_eq!(forwarded(&mut table, 50, 0, 200), Some(None), "`All` alone: identity");
        let narrow = Some(Some(vec!["a".to_string(), "c".to_string()]));
        assert_eq!(forwarded(&mut table, 5, 0, 0), narrow, "a rejecting `All` widens nothing");
    }

    /// Masks span words: on a 70-column record, members needing columns
    /// on both sides of the 64th forward exactly those columns, in order.
    #[test]
    fn hop_forward_masks_span_records_wider_than_64_columns() {
        let col = |i: usize| format!("c{i}");
        let member = |id: u64, keep: &[usize], filter: usize| {
            let attr = col(filter);
            Subscription::builder(NodeId(5 + id as u32))
                .id(SubId(id))
                .stream(
                    "R",
                    StreamProjection::attrs(keep.iter().map(|&i| col(i)).collect::<Vec<_>>()),
                    vec![cmp("R", &attr, CmpOp::Gt, Scalar::Int(0))],
                )
                .build()
        };
        let mut table = RoutingTable::new();
        table.ins(member(1, &[3], 66), Some(NodeId(1)));
        table.ins(member(2, &[69], 1), Some(NodeId(1)));
        let record = |positive: &[usize]| {
            (0..70).fold(Message::new("R", 0), |m, i| {
                m.with(col(i).as_str(), Scalar::Int(i64::from(positive.contains(&i))))
            })
        };
        let forwarded = |table: &mut RoutingTable, msg: &Message| -> Vec<String> {
            let out = fresh_match(table, msg, None);
            let fwd = out.forwards[0].1.as_ref().expect("narrowed");
            fwd.schema().attrs().iter().map(|a| a.to_string()).collect()
        };
        assert_eq!(forwarded(&mut table, &record(&[66])), ["c3", "c66"]);
        assert_eq!(forwarded(&mut table, &record(&[1])), ["c1", "c69"]);
        assert_eq!(forwarded(&mut table, &record(&[1, 66])), ["c1", "c3", "c66", "c69"]);
    }

    #[test]
    fn remove_entry_removes_only_that_subscription() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), None);
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), None);
        let probe = Message::new("R", 0).with("a", Scalar::Int(20));
        assert_eq!(local_matches(&mut table, &probe), vec![SubId(1), SubId(2)]);
        assert_eq!(table.remove_entry(SubId(1), None), 1);
        assert_eq!(local_matches(&mut table, &probe), vec![SubId(2)]);
        // Removing again (or a different direction) is a no-op.
        assert_eq!(table.remove_entry(SubId(1), None), 0);
        assert_eq!(table.remove_entry(SubId(2), Some(NodeId(9))), 0);
        assert_eq!(local_matches(&mut table, &probe), vec![SubId(2)]);
    }

    /// The live slots of `id` toward `to` by a scan of the whole table.
    fn scanned(table: &RoutingTable, id: u64, to: Option<NodeId>) -> Vec<u32> {
        let owned = |e: &Entry| !e.dead && e.form.sub.id == SubId(id) && e.to == to;
        (0..table.entries.len() as u32).filter(|&v| owned(&table.entries[v as usize])).collect()
    }

    #[test]
    fn owner_chains_ascend_through_inserts_drops_and_compaction() {
        let narrow = |id, t| sub(id, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(t))]);
        let mut table = RoutingTable::new();
        // Owner 7 gets one entry toward each of hops 1 to 4, between 40
        // narrow entries of others toward hop 9, and a local one.
        for k in 0..40u32 {
            table.ins(narrow(100 + u64::from(k), 500 + i64::from(k)), Some(NodeId(9)));
            if k % 10 == 0 {
                table.ins(narrow(7, 0), Some(NodeId(1 + k / 10)));
            }
        }
        table.ins(narrow(7, 0), None);
        table.check_owner_links().unwrap();
        // A filterless arrival toward hop 9 drops the 40 narrow entries:
        // the tombstones dominate and the table compacts.
        let ForwardInsert::Inserted { dropped } = table.ins_covering(sub(200, vec![]), NodeId(9))
        else {
            panic!("nothing toward hop 9 covers a filterless subscription");
        };
        assert_eq!(dropped.len(), 40);
        assert_eq!(table.entries.len(), 6, "five of owner 7 and the arrival, compacted");
        table.ins(narrow(300, 1), Some(NodeId(2)));
        table.ins(narrow(7, 0), Some(NodeId(2)));
        table.ins(narrow(301, 1), Some(NodeId(2)));
        table.check_owner_links().unwrap();
        let chain: Vec<u32> = table.owner_slots(SubId(7)).collect();
        assert_eq!(chain, vec![0, 1, 2, 3, 4, 7]);
        // What `remove_entry` tombstones, in the order it does: the
        // owner's chain toward the direction, which is the table scan's.
        let toward_2: Vec<u32> = chain
            .iter()
            .copied()
            .filter(|&v| table.entries[v as usize].to == Some(NodeId(2)))
            .collect();
        assert_eq!(toward_2, scanned(&table, 7, Some(NodeId(2))));
        assert_eq!(toward_2, vec![1, 7]);
        assert_eq!(table.remove_entry(SubId(7), Some(NodeId(2))), 2);
        assert!(toward_2.iter().all(|&v| table.entries[v as usize].dead));
        assert_eq!(table.owner_slots(SubId(7)).collect::<Vec<_>>(), vec![0, 2, 3, 4]);
        table.check_owner_links().unwrap();
        for to in [None, Some(NodeId(1)), Some(NodeId(3)), Some(NodeId(4))] {
            assert_eq!(table.remove_entry(SubId(7), to), 1);
        }
        assert!(!table.by_sub.contains_key(&SubId(7)), "an owner with no entry has no head");
        table.check_owner_links().unwrap();
    }

    #[test]
    fn owner_link_check_catches_unreachable_entries_and_dead_links() {
        // Owner 1 holds slots 0, 2 and 4.
        let build = || {
            let mut table = RoutingTable::new();
            for (k, id) in [1, 2, 1, 3, 1].into_iter().enumerate() {
                table.ins(sub(id, vec![]), Some(NodeId(k as u32)));
            }
            table.check_owner_links().unwrap();
            table
        };
        let mut table = build();
        table.entries[2].next = NIL;
        let err = table.check_owner_links().unwrap_err();
        assert!(err.contains("4 of 5 live entries"), "{err}");
        let mut table = build();
        assert_eq!(table.remove_entry(SubId(1), Some(NodeId(4))), 1);
        table.check_owner_links().unwrap();
        table.entries[2].next = 4;
        let err = table.check_owner_links().unwrap_err();
        assert!(err.contains("names slot 4, not a live one"), "{err}");
        let mut table = build();
        table.entries[0].next = 1;
        let err = table.check_owner_links().unwrap_err();
        assert!(err.contains("slot 1 on p1's chain belongs to p2"), "{err}");
    }

    #[test]
    fn remove_entry_compacts_threshold_lists() {
        let mut table = RoutingTable::new();
        for i in 0..40u64 {
            table.ins(sub(i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(i as i64))]), None);
        }
        let a = IndexOperand::Attr("a".into());
        let gt_len = |table: &RoutingTable| part_r(table).part.lists.get(&a).map(|l| l.gt.len());
        assert_eq!(gt_len(&table), Some(40));
        // Tombstone one at a time: the dead flags keep the stale threshold
        // references inert, and once tombstones reach half the table (at
        // the 20th removal) compaction rebuilds the lists dense. The last
        // 4 removals sit below the tombstone threshold again.
        for i in 0..24u64 {
            assert_eq!(table.remove_entry(SubId(i), None), 1);
        }
        assert_eq!(table.len(), 16);
        assert_eq!(table.entries.len(), 20, "compacted at tombstone majority; 4 tombstones since");
        assert_eq!(gt_len(&table), Some(20), "threshold list rebuilt dense at compaction (was 40)");
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(100)));
        assert_eq!(ids, (24..40).map(SubId).collect::<Vec<_>>());
    }

    #[test]
    fn hop_union_shrinks_after_remove_entry() {
        let mut table = RoutingTable::new();
        let narrow = Subscription::builder(NodeId(5))
            .id(SubId(1))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        let wide = Subscription::builder(NodeId(6))
            .id(SubId(2))
            .stream("R", StreamProjection::attrs(["a", "b"]), vec![])
            .build();
        table.ins(narrow, Some(NodeId(1)));
        table.ins(wide, Some(NodeId(1)));
        let msg = Message::new("R", 0)
            .with("a", Scalar::Int(1))
            .with("b", Scalar::Int(2))
            .with("c", Scalar::Int(3));
        assert_eq!(fwd_len(&fresh_match(&mut table, &msg, None)), 2);
        // First-class removal of the wide member shrinks the union to {a};
        // only this hop group is recomputed.
        assert_eq!(table.remove_entry(SubId(2), Some(NodeId(1))), 1);
        let out = fresh_match(&mut table, &msg, None);
        assert_eq!(fwd_len(&out), 1, "union shrinks to {{a}}");
        // Removing the last member silences the hop entirely.
        assert_eq!(table.remove_entry(SubId(1), Some(NodeId(1))), 1);
        assert!(fresh_match(&mut table, &msg, None).forwards.is_empty());
    }

    #[test]
    fn projection_class_regroups_when_a_class_empties() {
        let mut table = RoutingTable::new();
        let local = |id: u64, proj: StreamProjection| {
            Subscription::builder(NodeId(0)).id(SubId(id)).stream("R", proj, vec![]).build()
        };
        // 40 members keep {a}; 18 keep {b}: two projection classes.
        for i in 0..40u64 {
            table.ins(local(i, StreamProjection::attrs(["a"])), None);
        }
        for i in 40..58u64 {
            table.ins(local(i, StreamProjection::attrs(["b"])), None);
        }
        assert_eq!(table.classes.len(), 2);
        // Empty the {b} class entirely, then shed enough {a} members that
        // tombstones reach half the table: compaction re-groups and the
        // emptied class is not reopened.
        for i in 40..58u64 {
            assert_eq!(table.remove_entry(SubId(i), None), 1);
        }
        assert_eq!(table.classes.len(), 2, "emptied class lingers as a tombstone");
        for i in 0..11u64 {
            assert_eq!(table.remove_entry(SubId(i), None), 1);
        }
        assert_eq!(table.len(), 29);
        assert_eq!(table.classes.len(), 1, "emptied projection class dropped at re-grouping");
        let msg = Message::new("R", 0).with("a", Scalar::Int(7)).with("b", Scalar::Int(8));
        let out = fresh_match(&mut table, &msg, None);
        assert_eq!(out.deliveries.len(), 29);
        assert!(out.deliveries.iter().all(|(_, m)| m.len() == 1), "survivors still get {{a}}");
        let ids: Vec<SubId> = out.deliveries.iter().map(|(s, _)| *s).collect();
        assert_eq!(ids, (11..40).map(SubId).collect::<Vec<_>>(), "order preserved");
    }

    #[test]
    fn reverse_hop_is_suppressed() {
        let mut table = RoutingTable::new();
        let mut s = sub(1, vec![]);
        s.subscriber = NodeId(9);
        table.ins(s, Some(NodeId(3)));
        let msg = Message::new("R", 0);
        assert_eq!(fresh_match(&mut table, &msg, None).forwards.len(), 1);
        assert!(fresh_match(&mut table, &msg, Some(NodeId(3))).forwards.is_empty());
    }

    /// One scratch, one epoch, many partitions: whatever a big partition
    /// left in the table's match state — slot counters, class records, hop
    /// marks — must never count for the next partition matched, nor the
    /// other way round. Each partition's results are held to a table that
    /// holds that partition alone.
    #[test]
    fn match_state_of_one_partition_never_counts_for_another() {
        let on = |stream: &str, id: u64, proj: &[&str], filters: &[(&str, i64)]| {
            let filters = filters
                .iter()
                .map(|&(attr, t)| cmp(stream, attr, CmpOp::Gt, Scalar::Int(t)))
                .collect();
            Subscription::builder(NodeId(0))
                .id(SubId(id))
                .stream(stream, StreamProjection::attrs(proj.iter().copied()), filters)
                .build()
        };
        // "R": 5 000 members, locals and three hops alternating, each
        // bumped once or twice by the probe; slots 0..3 end the probe with
        // a count, class 0 with a record, hop group 0 with a mark.
        let big: Vec<(Subscription, Option<NodeId>)> = (0..5_000u64)
            .map(|i| {
                let to = (i % 2 == 1).then_some(NodeId(1 + (i % 3) as u32));
                let proj: &[&str] = if i % 4 == 0 { &["a"] } else { &["a", "b"] };
                let sub = if i % 5 == 0 {
                    on("R", i, proj, &[("a", (i % 50) as i64), ("b", (i % 7) as i64)])
                } else {
                    on("R", i, proj, &[("a", (i % 50) as i64)])
                };
                (sub, to)
            })
            .collect();
        // "S": the same slots, class id and group id, with requirements a
        // stale stamp would change: slot 0 needs two hits and gets one
        // (a stale count of one would complete it), slot 1 needs its one
        // hit to be its first this epoch, slot 2 must mark group 0 afresh,
        // and class 0 keeps `b` where "R"'s class 0 keeps `a`.
        let small = vec![
            (on("S", 10_000, &["b"], &[("a", 10), ("b", 100)]), None),
            (on("S", 10_001, &["b"], &[("a", 10)]), None),
            (on("S", 10_002, &["b"], &[("a", 10)]), Some(NodeId(2))),
        ];
        let table_of = |entries: &[(Subscription, Option<NodeId>)]| {
            let mut table = RoutingTable::new();
            for (sub, to) in entries {
                table.ins(sub.clone(), *to);
            }
            table
        };
        let (mut only_big, mut only_small) = (table_of(&big), table_of(&small));
        let mut shared = RoutingTable::new();
        for (sub, to) in big.iter().chain(&small) {
            shared.ins(sub.clone(), *to);
        }
        let probe = |stream: &str| {
            Message::new(stream, 0).with("a", Scalar::Int(25)).with("b", Scalar::Int(5))
        };
        for stream in ["R", "S", "R", "S"] {
            let alone = if stream == "R" { &mut only_big } else { &mut only_small };
            let want = fresh_match(alone, &probe(stream), None);
            let got = fresh_match(&mut shared, &probe(stream), None);
            assert_eq!(got.deliveries, want.deliveries, "deliveries on {stream}");
            assert_eq!(got.forwards, want.forwards, "forwards on {stream}");
            assert!(!got.deliveries.is_empty() && !got.forwards.is_empty());
        }
        let s = fresh_match(&mut shared, &probe("S"), None);
        assert_eq!(s.deliveries.len(), 1, "only the one-predicate local member of S");
        assert_eq!(s.deliveries[0].0, SubId(10_001));
        assert_eq!(s.deliveries[0].1.len(), 1, "S's class keeps `b` alone");
    }

    /// The routing-covering form the broker confirms candidates with
    /// (covering plus needs preservation) — mirrored here so the index
    /// tests exercise `insert_covering` under the real predicate.
    fn rcovers(general: &Subscription, specific: &Subscription) -> bool {
        general.covers(specific)
            && specific.streams.keys().all(|&s| match (general.needs(s), specific.needs(s)) {
                (Some(g), Some(sp)) => g.covers(sp),
                _ => false,
            })
    }

    #[test]
    fn insert_covering_skips_under_first_coverer_in_table_order() {
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(3))]), Some(hop));
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(4))]), Some(hop));
        // Covered by both real entries: the skip must report the first
        // one in table order, exactly as the linear scan would.
        let narrow = sub(3, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]);
        match table.ins_covering(narrow, hop) {
            ForwardInsert::Skipped { by } => assert_eq!(by, SubId(1)),
            other => panic!("expected a covering skip, got {other:?}"),
        }
        assert_eq!(table.len(), 2, "skipped insert leaves the table unchanged");
        // A filter-free entry covers everything same-direction, and the
        // partition's always-candidate list surfaces it past the range
        // probes.
        let mut table = RoutingTable::new();
        table.ins(sub(7, vec![]), Some(hop));
        match table.ins_covering(sub(8, vec![cmp("R", "a", CmpOp::Eq, Scalar::Int(5))]), hop) {
            ForwardInsert::Skipped { by } => assert_eq!(by, SubId(7)),
            other => panic!("expected the loose entry to cover, got {other:?}"),
        }
    }

    #[test]
    fn insert_covering_drops_exactly_the_covered_victims() {
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        // A covering-sparse point population plus one out-of-range entry.
        for i in 0..60u64 {
            table.ins(sub(i, vec![cmp("R", "a", CmpOp::Eq, Scalar::Int(i as i64))]), Some(hop));
        }
        table.ins(sub(99, vec![cmp("R", "a", CmpOp::Lt, Scalar::Int(-50))]), Some(hop));
        // `a > 9` covers the point entries 10..60 but not 0..10 and not
        // the `a < -50` entry.
        let broad = sub(500, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(9))]);
        match table.ins_covering(broad, hop) {
            ForwardInsert::Inserted { dropped } => {
                assert_eq!(dropped, (10..60).map(SubId).collect::<Vec<_>>(), "table order");
            }
            other => panic!("expected an insert, got {other:?}"),
        }
        assert_eq!(table.len(), 12, "10 points + a<-50 + the new entry survive");
    }

    #[test]
    fn counting_confirms_only_members_consistent_with_the_whole_probe() {
        // 40 members `a = i AND b > 0`.
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        let member = |id: u64, a: i64, b: i64| {
            sub(
                id,
                vec![
                    cmp("R", "a", CmpOp::Eq, Scalar::Int(a)),
                    cmp("R", "b", CmpOp::Gt, Scalar::Int(b)),
                ],
            )
        };
        for i in 0..40u64 {
            table.ins(member(i, i as i64, 0), Some(hop));
        }
        // Every member's `b > 0` lies in the probe's range (the union of
        // ranges would hand over all 40); only member 7's `a = 7` does
        // too, so only its count reaches its comparison count.
        let mut stats = CoverStats::default();
        let probe = InstalledSub::new(member(100, 7, 5));
        match table.insert_covering(probe, hop, 100, rcovers, &mut stats) {
            ForwardInsert::Skipped { by } => assert_eq!(by, SubId(7)),
            other => panic!("expected member 7 to cover, got {other:?}"),
        }
        assert_eq!((stats.attempted, stats.held), (1, 1));
        // Victim side: `a = 7 AND b > -1` is hit on `b` by every member
        // but on `a` by member 7 alone — a first-comparison anchor on `b`
        // would have confirmed all 40.
        let mut stats = CoverStats::default();
        let probe = InstalledSub::new(sub(
            101,
            vec![
                cmp("R", "b", CmpOp::Gt, Scalar::Int(-1)),
                cmp("R", "a", CmpOp::Eq, Scalar::Int(7)),
            ],
        ));
        match table.insert_covering(probe, hop, 101, rcovers, &mut stats) {
            ForwardInsert::Inserted { dropped } => assert_eq!(dropped, vec![SubId(7)]),
            other => panic!("expected member 7 dropped, got {other:?}"),
        }
        assert_eq!((stats.attempted, stats.held), (1, 1));
        assert!(stats.visited >= 41, "both probe comparisons walked their ranges");
    }

    #[test]
    fn insert_covering_never_drops_or_skips_its_own_id() {
        // The broker installs one restricted entry per advertised source
        // under the same id; when their paths share a hop the sibling
        // entries must coexist even if one would cover the other.
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), Some(hop));
        let weaker = sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(0))]);
        match table.ins_covering(weaker, hop) {
            ForwardInsert::Inserted { dropped } => assert!(dropped.is_empty()),
            other => panic!("self-covering must not skip: {other:?}"),
        }
        assert_eq!(table.len(), 2, "both same-id entries live");
        // And the stronger sibling arriving second is not skipped either.
        let stronger = sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(20))]);
        match table.ins_covering(stronger, hop) {
            ForwardInsert::Inserted { dropped } => assert!(dropped.is_empty()),
            other => panic!("self-covering must not skip: {other:?}"),
        }
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn negative_zero_thresholds_cover_symmetrically() {
        // -0.0 and 0.0 compare equal numerically, so `a > -0.0` and
        // `a > 0.0` cover each other; the lists store both as +0.0 so the
        // total_cmp-ordered covering probes cannot miss the pair.
        for (first, second) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            let mut table = RoutingTable::new();
            let hop = NodeId(1);
            table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(first))]), Some(hop));
            let twin = sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(second))]);
            match table.ins_covering(twin, hop) {
                ForwardInsert::Skipped { by } => assert_eq!(by, SubId(1)),
                other => panic!("signed-zero twin must be covered, got {other:?}"),
            }
        }
        // The same normalised lists match: a -0.0 threshold is 0 to
        // every message, integer or float.
        let mut table = RoutingTable::new();
        pad(&mut table);
        for (id, op) in [(1, CmpOp::Gt), (2, CmpOp::Ge), (3, CmpOp::Eq), (4, CmpOp::Le)] {
            table.ins(sub(id, vec![cmp("R", "a", op, Scalar::Float(-0.0))]), None);
        }
        for zero in [Scalar::Int(0), Scalar::Float(0.0)] {
            let ids = local_matches(&mut table, &Message::new("R", 0).with("a", zero.clone()));
            assert_eq!(ids, vec![SubId(2), SubId(3), SubId(4)], "a = {zero:?}");
        }
    }

    #[test]
    fn nan_threshold_entry_is_covered_by_filterless() {
        // A NaN threshold is unsatisfiable: it implies nothing (so the
        // entry can cover no one) but a filter-free subscription still
        // covers *it* — the member list must surface it as a victim even
        // though no threshold list contains it.
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(f64::NAN))]), Some(hop));
        match table.ins_covering(sub(2, vec![]), hop) {
            ForwardInsert::Inserted { dropped } => assert_eq!(dropped, vec![SubId(1)]),
            other => panic!("expected the NaN entry dropped, got {other:?}"),
        }
        // And the NaN entry itself never drops or skips anyone.
        let mut table = RoutingTable::new();
        table.ins(sub(3, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(5))]), Some(hop));
        let nan = sub(4, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(f64::NAN))]);
        match table.ins_covering(nan, hop) {
            ForwardInsert::Inserted { dropped } => assert!(dropped.is_empty()),
            other => panic!("a NaN probe covers no one, got {other:?}"),
        }
    }
}

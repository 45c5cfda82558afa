//! Immutable routing snapshots: the read side of the broker, enabling
//! parallel publish while its owner stays the single writer.
//!
//! # Lifecycle
//!
//! [`crate::broker::BrokerNetwork`] owns the *mutable* routing state and
//! is its single writer: subscribe/unsubscribe/link churn mutate the
//! per-node [`crate::index::RoutingTable`]s exactly as before, bumping a
//! version counter and marking the touched nodes dirty. The same owner
//! calls [`BrokerNetwork::snapshot`](crate::broker::BrokerNetwork::snapshot)
//! (`&mut self`: no lock, no cell), which *freezes* the dirty tables into
//! [`FrozenTable`]s and returns the new [`RoutingSnapshot`] as an `Arc`
//! for the owner to hand to its reader threads. Clean nodes' frozen
//! tables are reused by `Arc`, so a build costs O(changed nodes), not
//! O(network).
//!
//! # A frozen table is a clone
//!
//! Matching never writes a partition (all match state is the matcher's —
//! see [`crate::index`]), so the frozen image needs no types of its own:
//! per stream partition it is a **field-wise clone** of what matching
//! reads — members, always-candidates, threshold lists — plus each hop
//! group's next hop with its forward plans, and per table its projection
//! classes (what local members keep, what forwarding members need). What
//! that costs per dirty node is one `memcpy`-like pass over the node's
//! members and list runs (a refcount bump per member for its residual
//! predicates), tombstones and their stale list references included: a
//! table holds at most as many dead members as live ones before it
//! compacts, so an image is at most twice its dense size. Slots are
//! **kept**, not remapped: a reader's candidates are the writer's
//! `(seq, slot)` pairs and sort identically, so delivery order is the
//! serial order by construction rather than by an order-preserving remap,
//! and dead members are filtered where the writer filters them.
//!
//! # Read side
//!
//! A [`SnapshotReader`] wraps an `Arc<RoutingSnapshot>` plus everything
//! matching mutates: one match state per node (as the writer keeps one
//! per table), private projection-class and hop-forward plan caches per
//! node and partition it has touched, and the forwarding walk's buffers.
//! Matching and forwarding are the writer's own routines
//! ([`crate::index::match_run`], the broker's forwarding walk) over the
//! reader's plane. The snapshot itself is genuinely `&self`/`Sync`: N
//! readers on N threads match and forward concurrently with **zero**
//! shared mutable state and zero locks on the publish path — each reader
//! owns its snapshot handle outright and can keep publishing while the
//! writer churns and builds new snapshots.
//!
//! Every message a reader publishes observes exactly one snapshot: a
//! reader switches snapshots only between messages
//! ([`SnapshotReader::retarget`]), never mid-forward.
//!
//! # Deterministic merge
//!
//! Deliveries and link traffic accumulate per reader in a
//! [`ReaderOutput`], each delivery tagged with its message's caller-chosen
//! publish order ([`SnapshotReader::publish_at`]). Merging outputs and
//! stable-sorting by that order reproduces the serial `publish` log
//! *bit-identically* — same `Delivery` records in the same order, same
//! per-link counters — which is what the parallel-vs-serial differential
//! suite asserts.

use crate::broker::{Delivery, LinkStats, Plane, Walk};
use crate::index::{MatchScratch, MatchStats, Partition, Plans};
use crate::subscription::{CachedProjection, MaskedProjection, Message};
use cosmos_net::NodeId;
use cosmos_util::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

/// The frozen image of one stream partition: a clone of what matching
/// reads of the live partition, plus its hop groups' next hops and
/// forward plans — which each reader clones again for itself, because
/// applying one fills its plan cache and all match state is the
/// matcher's own.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenPartition {
    pub(crate) part: Partition,
    pub(crate) hops: Vec<(NodeId, MaskedProjection)>,
}

/// The frozen image of one node's routing table
/// ([`crate::index::RoutingTable::freeze`]): its stream partitions and
/// its projection classes, cloned (see the module docs). A hop's forward
/// keeps what its matched members' classes need, so a reader forwards
/// the writer's bytes.
#[derive(Debug, Clone, Default)]
pub struct FrozenTable {
    pub(crate) streams: HashMap<Symbol, FrozenPartition>,
    pub(crate) classes: Vec<CachedProjection>,
}

/// An immutable, `Sync` image of the whole network's dissemination
/// state: per-node frozen tables plus the stream→source map. Built by
/// the broker's owner and shared by `Arc`; any number of
/// [`SnapshotReader`]s match against it concurrently.
#[derive(Debug)]
pub struct RoutingSnapshot {
    /// The broker's routing-state version this snapshot was built from.
    pub(crate) version: u64,
    pub(crate) stream_source: HashMap<Symbol, NodeId>,
    pub(crate) tables: Vec<Arc<FrozenTable>>,
}

impl RoutingSnapshot {
    /// The broker routing-state version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A new reader (fresh scratch, empty output) over this snapshot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(self))
    }
}

/// The deliveries and link traffic one reader (or a merge of readers)
/// accumulated. Deliveries are tagged with their message's publish
/// order; [`ReaderOutput::sort_by_order`] (or
/// [`BrokerNetwork::absorb`](crate::broker::BrokerNetwork::absorb))
/// restores the global serial log order.
#[derive(Debug, Default)]
pub struct ReaderOutput {
    pub(crate) deliveries: Vec<(u64, Delivery)>,
    pub(crate) links: HashMap<(NodeId, NodeId), LinkStats>,
}

impl ReaderOutput {
    /// Total number of deliveries.
    pub fn delivered(&self) -> usize {
        self.deliveries.len()
    }

    /// `true` when nothing was delivered and no link was crossed.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty() && self.links.is_empty()
    }

    /// Deliveries in their current order (call
    /// [`ReaderOutput::sort_by_order`] after merging to restore global
    /// publish order).
    pub fn deliveries(&self) -> impl Iterator<Item = &Delivery> {
        self.deliveries.iter().map(|(_, d)| d)
    }

    /// Folds another output into this one (concatenates deliveries, sums
    /// link counters).
    pub fn merge(&mut self, other: ReaderOutput) {
        self.deliveries.extend(other.deliveries);
        for (k, s) in other.links {
            let e = self.links.entry(k).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
    }

    /// Stable-sorts deliveries by publish order. Within one message the
    /// reader already emitted deliveries in installation-sequence order,
    /// so after this sort the whole vector equals the serial log.
    pub fn sort_by_order(&mut self) {
        self.deliveries.sort_by_key(|(o, _)| *o);
    }

    /// All per-link traffic counters, sorted by link — same shape and
    /// filter as
    /// [`BrokerNetwork::all_link_stats`](crate::broker::BrokerNetwork::all_link_stats),
    /// for direct differential comparison.
    pub fn all_link_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        let mut all: Vec<_> = self
            .links
            .iter()
            .filter(|(_, s)| s.messages > 0 || s.bytes > 0)
            .map(|(&k, &s)| (k, s))
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }
}

/// A reader's plan caches: per node its copy of the table's classes, per
/// `(node, stream)` its copy of the partition's hop forwards — each made
/// when the reader first matches there.
#[derive(Debug, Default)]
struct ReaderPlans {
    classes: HashMap<NodeId, Vec<CachedProjection>>,
    hops: HashMap<(NodeId, Symbol), Vec<(NodeId, MaskedProjection)>>,
}

/// A reader's plane for the forwarding walk: the snapshot's frozen
/// partitions, with the reader's own plan caches and match state.
struct ReaderPlane<'a> {
    snap: &'a RoutingSnapshot,
    scratch: &'a mut [MatchScratch],
    plans: &'a mut ReaderPlans,
}

impl Plane for ReaderPlane<'_> {
    type Hop = (NodeId, MaskedProjection);

    fn at(
        &mut self,
        node: NodeId,
        stream: Symbol,
    ) -> Option<(&Partition, Plans<'_, Self::Hop>, &mut MatchScratch)> {
        let table = &self.snap.tables[node.index()];
        let part = table.streams.get(&stream)?;
        let ReaderPlans { classes, hops } = &mut *self.plans;
        let plans = Plans {
            classes: classes.entry(node).or_insert_with(|| table.classes.clone()),
            hops: hops.entry((node, stream)).or_insert_with(|| part.hops.clone()),
        };
        Some((&part.part, plans, &mut self.scratch[node.index()]))
    }
}

/// A read handle over one [`RoutingSnapshot`]: owns the snapshot `Arc`,
/// all match state, and its own output accumulator — `Send`, fully
/// independent of the broker and of every other reader, so N readers
/// publish concurrently without any synchronization.
#[derive(Debug)]
pub struct SnapshotReader {
    snap: Arc<RoutingSnapshot>,
    /// One match state per node, as the writer keeps one per table.
    scratch: Vec<MatchScratch>,
    plans: ReaderPlans,
    walk: Walk,
    out: ReaderOutput,
    next_order: u64,
}

impl SnapshotReader {
    /// Wraps a snapshot handle.
    pub fn new(snap: Arc<RoutingSnapshot>) -> Self {
        Self {
            scratch: snap.tables.iter().map(|_| MatchScratch::default()).collect(),
            snap,
            plans: ReaderPlans::default(),
            walk: Walk::default(),
            out: ReaderOutput::default(),
            next_order: 0,
        }
    }

    /// The snapshot this reader currently matches against.
    pub fn snapshot(&self) -> &Arc<RoutingSnapshot> {
        &self.snap
    }

    /// Switches to a newer snapshot *between* messages, keeping the
    /// accumulated output. Plan caches are rebuilt lazily (class and hop
    /// group ids are snapshot-specific); match state carries over — its
    /// stamps can never equal a later epoch. In-flight messages are
    /// unaffected by construction: a message is matched start-to-finish
    /// against the snapshot its reader held when `publish` began.
    pub fn retarget(&mut self, snap: &Arc<RoutingSnapshot>) {
        if Arc::ptr_eq(&self.snap, snap) {
            return;
        }
        self.snap = Arc::clone(snap);
        self.scratch.resize_with(snap.tables.len(), MatchScratch::default);
        self.plans = ReaderPlans::default();
    }

    /// The matching work this reader has done so far, over all nodes —
    /// for the same messages over the same routing state, exactly
    /// [`BrokerNetwork::match_stats`](crate::broker::BrokerNetwork::match_stats).
    pub fn match_stats(&self) -> MatchStats {
        let mut total = MatchStats::default();
        for scratch in &self.scratch {
            total += scratch.stats;
        }
        total
    }

    /// Publishes a message, tagging its deliveries with the next
    /// sequential order. Returns the number of local deliveries.
    pub fn publish(&mut self, msg: Message) -> usize {
        self.publish_at(self.next_order, msg)
    }

    /// Publishes a message under an explicit global order tag — how a
    /// thread pool partitioning one message stream keeps the merged
    /// output equal to the serial log. Returns the delivery count.
    pub fn publish_at(&mut self, order: u64, msg: Message) -> usize {
        self.publish_batch_at(order, std::slice::from_ref(&msg))
    }

    /// Publishes a slice of messages under consecutive order tags
    /// starting at `start_order` — message `k` is tagged exactly as
    /// `publish_at(start_order + k, ...)` would tag it, so a thread pool
    /// handing out disjoint order ranges can mix batched and serial
    /// publishing freely and the merged, order-sorted output stays equal
    /// to the serial log. Maximal same-stream runs share one forwarding
    /// walk — the writer's own (`BrokerNetwork::publish_batch`), over this
    /// reader's plane; the per-message delivery order is restored by the
    /// order tags instead of splicing. Returns the total number of local
    /// deliveries.
    pub fn publish_batch_at(&mut self, start_order: u64, msgs: &[Message]) -> usize {
        self.next_order = start_order + msgs.len() as u64;
        let Self { snap, scratch, plans, walk, out, .. } = self;
        let before = out.deliveries.len();
        let mut plane = ReaderPlane { snap, scratch, plans };
        walk.publish(&mut plane, &mut out.links, &snap.stream_source, msgs, &mut |at, delivery| {
            out.deliveries.push((start_order + u64::from(at), delivery));
        });
        out.deliveries.len() - before
    }

    /// Takes the accumulated output, leaving the reader empty (scratch
    /// and snapshot handle kept).
    pub fn take_output(&mut self) -> ReaderOutput {
        std::mem::take(&mut self.out)
    }

    /// The output accumulated so far.
    pub fn output(&self) -> &ReaderOutput {
        &self.out
    }
}

/// Merges many reader outputs into one, restoring global publish order.
pub fn merge_outputs(outputs: impl IntoIterator<Item = ReaderOutput>) -> ReaderOutput {
    let mut merged = ReaderOutput::default();
    for out in outputs {
        merged.merge(out);
    }
    merged.sort_by_order();
    merged
}

// Compile-time guarantees the parallel plane rests on: snapshots are
// shareable across threads, readers are movable into worker threads.
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<RoutingSnapshot>();
    assert_send::<SnapshotReader>();
};

#[cfg(test)]
mod tests {
    use crate::broker::BrokerNetwork;
    use crate::subscription::{Message, StreamProjection, SubId, Subscription};
    use cosmos_net::{NodeId, Topology};
    use cosmos_query::{AttrRef, CmpOp, Predicate, Scalar};
    use cosmos_util::Symbol;
    use std::sync::Arc;

    fn star_net() -> BrokerNetwork {
        // 0 - 1 - 2 and 1 - 3: churn at 3's branch must not re-freeze 2.
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(1), NodeId(3), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net
    }

    fn all_sub(id: u64, at: NodeId) -> Subscription {
        Subscription::builder(at).id(SubId(id)).stream("R", StreamProjection::All, vec![]).build()
    }

    #[test]
    fn incremental_build_reuses_clean_nodes_frozen_tables() {
        let mut net = star_net();
        net.subscribe(all_sub(1, NodeId(2)));
        let s1 = net.snapshot();
        net.subscribe(all_sub(2, NodeId(3)));
        let s2 = net.snapshot();
        // Node 2's table did not change: its frozen image is shared.
        assert!(Arc::ptr_eq(&s1.tables[2], &s2.tables[2]), "clean node must reuse its table");
        // Node 3 gained a local entry: it was re-frozen.
        assert!(!Arc::ptr_eq(&s1.tables[3], &s2.tables[3]), "dirty node must be re-frozen");
    }

    #[test]
    fn frozen_matching_equals_serial_on_fixture() {
        let mut net = star_net();
        net.subscribe(all_sub(1, NodeId(2)));
        net.subscribe(all_sub(2, NodeId(3)));
        let msgs: Vec<Message> =
            (0..5).map(|i| Message::new("R", i).with("a", Scalar::Int(i))).collect();
        for msg in &msgs {
            net.publish(msg.clone());
        }
        let expected = net.log().deliveries().to_vec();
        let expected_links = net.all_link_stats();
        let mut reader = net.reader();
        for msg in &msgs {
            reader.publish(msg.clone());
        }
        let mut out = reader.take_output();
        out.sort_by_order();
        assert_eq!(out.deliveries().cloned().collect::<Vec<_>>(), expected);
        assert_eq!(out.all_link_stats(), expected_links);
    }

    /// A frozen table is a clone, tombstones and all: freeze a table one
    /// removal short of compacting, dead members in every threshold list
    /// and gone from the always-candidates, and a reader must still log
    /// exactly what the writer logs — and hold the writer's partition slot
    /// for slot.
    #[test]
    fn frozen_image_of_a_tombstoned_table_is_the_live_partition() {
        let mut net = star_net();
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq];
        for i in 0..60u64 {
            // Five operator classes plus a filter-free sixth, all local
            // to node 2: one partition of 60 members there.
            let filters = ops.get((i % 6) as usize).map_or(vec![], |&op| {
                vec![Predicate::Cmp {
                    attr: AttrRef::new("R", "a"),
                    op,
                    value: Scalar::Int(i as i64),
                }]
            });
            net.subscribe(
                Subscription::builder(NodeId(2))
                    .id(SubId(i))
                    .stream("R", StreamProjection::All, filters)
                    .build(),
            );
        }
        // 29 dead of 60 stored: tombstones do not dominate yet.
        for i in 0..29u64 {
            net.unsubscribe(SubId(i));
        }
        // The live tables, printed before the network holds a frozen image.
        let live = format!("{net:?}");
        let snap = net.snapshot();
        let image = &snap.tables[2].streams[&Symbol::intern("R")].part;
        let image = format!("{image:?}");
        assert!(image.contains("dead: true"), "tombstones are kept, not remapped away");
        assert!(live.contains(&image), "same members, same slots, same lists");
        let mut reader = snap.reader();
        for a in [-1, 0, 5, 10, 28, 29, 30, 45, 59, 100] {
            let msg = Message::new("R", a).with("a", Scalar::Int(a));
            assert_eq!(reader.publish(msg.clone()), net.publish(msg), "delivery count at a = {a}");
        }
        let mut out = reader.take_output();
        out.sort_by_order();
        assert!(out.deliveries().all(|d| d.sub.0 >= 29), "no dead member delivers");
        assert_eq!(out.deliveries().cloned().collect::<Vec<_>>(), net.log().deliveries());
        assert_eq!(out.all_link_stats(), net.all_link_stats());
        assert_eq!(reader.match_stats(), net.match_stats(), "same work, either plane");
    }
}

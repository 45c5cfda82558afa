//! Immutable routing snapshots: the read side of the broker's
//! read-copy-update split, enabling parallel publish.
//!
//! # Lifecycle
//!
//! [`crate::broker::BrokerNetwork`] owns the *mutable* routing state and
//! remains the single writer: subscribe/unsubscribe/link churn mutate the
//! per-node [`crate::index::RoutingTable`]s exactly as before, bumping a
//! version counter and marking the touched nodes dirty.
//! [`BrokerNetwork::snapshot`](crate::broker::BrokerNetwork::snapshot)
//! then *freezes* the dirty tables into [`FrozenTable`]s — live-only,
//! densely remapped copies of the counting index — and publishes a
//! [`RoutingSnapshot`] through a [`cosmos_util::sync::SnapshotCell`].
//! Clean nodes' frozen tables are reused by `Arc`, so a commit costs
//! O(changed nodes), not O(network).
//!
//! # Read side
//!
//! A [`SnapshotReader`] wraps an `Arc<RoutingSnapshot>` plus *all* the
//! mutable per-message scratch the serial matcher kept inside the table
//! (epoch-versioned counters, candidate buffers, projection-class and
//! hop-union plan caches). The snapshot itself is therefore genuinely
//! `&self`/`Sync`: N readers on N threads match and forward concurrently
//! with **zero** shared mutable state and zero locks on the publish path
//! — each reader owns its snapshot handle outright and can keep
//! publishing while the writer churns and commits new snapshots.
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

use crate::broker::{Delivery, LinkStats};
use crate::index::MatchOutput;
use crate::subscription::{CachedProjection, Message, StreamProjection, SubId};
use cosmos_net::NodeId;
use cosmos_query::compiled::{eval_compiled, CompiledPredicate, IndexOperand, ScalarRef};
use cosmos_util::{Symbol, VecMap};
use std::collections::HashMap;
use std::sync::Arc;

/// What a matched frozen member does: local delivery (share its
/// projection class's record) or marking its hop group. Mirror of the
/// routing table's `MemberAction` over live members only.
#[derive(Debug, Clone)]
pub(crate) enum FrozenAction {
    Local { sub: SubId, class: u32 },
    Hop(u32),
}

/// One live `(entry, stream)` member of a frozen partition. Tombstones
/// are dropped at freeze time, so no `dead` flag and no per-member
/// mutable counter — counters live in the reader's [`PartScratch`].
#[derive(Debug, Clone)]
pub(crate) struct FrozenMember {
    pub(crate) seq: u64,
    pub(crate) target: u32,
    /// Shared with the live table's member (a freeze copies no predicate).
    pub(crate) residual: Arc<[CompiledPredicate]>,
    pub(crate) action: FrozenAction,
}

/// Sorted `(threshold, member)` lists per operator class — the frozen,
/// live-only image of the table's `OpLists` (dead references filtered,
/// member slots densely remapped in original order).
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenLists {
    pub(crate) lt: Vec<(f64, u32)>,
    pub(crate) le: Vec<(f64, u32)>,
    pub(crate) gt: Vec<(f64, u32)>,
    pub(crate) ge: Vec<(f64, u32)>,
    pub(crate) eq: Vec<(f64, u32)>,
}

impl FrozenLists {
    pub(crate) fn is_empty(&self) -> bool {
        self.lt.is_empty()
            && self.le.is_empty()
            && self.gt.is_empty()
            && self.ge.is_empty()
            && self.eq.is_empty()
    }

    /// Bumps the scratch counter of every member whose predicate is
    /// satisfied by value `v` — the same binary-searched ranges as the
    /// mutable index's `OpLists::bump_satisfied`, with the counters in
    /// caller-owned scratch instead of the members.
    fn bump_satisfied(
        &self,
        v: f64,
        count: &mut [u32],
        epoch_of: &mut [u64],
        touched: &mut Vec<u32>,
        epoch: u64,
    ) {
        // `attr > t` holds for thresholds t < v: an ascending prefix.
        let end = self.gt.partition_point(|(t, _)| *t < v);
        bump(&self.gt[..end], count, epoch_of, touched, epoch);
        // `attr >= t` holds for t <= v.
        let end = self.ge.partition_point(|(t, _)| *t <= v);
        bump(&self.ge[..end], count, epoch_of, touched, epoch);
        // `attr < t` holds for t > v: an ascending suffix.
        let start = self.lt.partition_point(|(t, _)| *t <= v);
        bump(&self.lt[start..], count, epoch_of, touched, epoch);
        // `attr <= t` holds for t >= v.
        let start = self.le.partition_point(|(t, _)| *t < v);
        bump(&self.le[start..], count, epoch_of, touched, epoch);
        // `attr = t` holds for the equal range.
        let lo = self.eq.partition_point(|(t, _)| *t < v);
        let hi = self.eq.partition_point(|(t, _)| *t <= v);
        bump(&self.eq[lo..hi], count, epoch_of, touched, epoch);
    }
}

/// Increments the epoch-versioned scratch counters of `satisfied`
/// members. Frozen partitions hold live members only, so no dead check.
fn bump(
    satisfied: &[(f64, u32)],
    count: &mut [u32],
    epoch_of: &mut [u64],
    touched: &mut Vec<u32>,
    epoch: u64,
) {
    for &(_, m) in satisfied {
        let i = m as usize;
        if epoch_of[i] == epoch {
            count[i] += 1;
        } else {
            epoch_of[i] = epoch;
            count[i] = 1;
            touched.push(m);
        }
    }
}

/// A per-hop forwarding group of a frozen partition: the next hop and
/// the install-time union of member needs. The per-reader projection
/// plan cache lives in [`PartScratch`].
#[derive(Debug, Clone)]
pub(crate) struct FrozenHop {
    pub(crate) to: NodeId,
    pub(crate) union: StreamProjection,
}

/// The frozen image of one stream partition: live members, dense
/// threshold lists, hop groups and projection classes — everything
/// immutable; all match scratch is reader-owned.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenPartition {
    pub(crate) members: Vec<FrozenMember>,
    /// Non-empty threshold lists per indexed operand (attributes and the
    /// event-time pseudo-attribute), as the live partition keys them.
    pub(crate) lists: VecMap<IndexOperand, FrozenLists>,
    pub(crate) zero_target: Vec<u32>,
    pub(crate) hops: Vec<FrozenHop>,
    pub(crate) classes: Vec<StreamProjection>,
}

/// The frozen image of one node's routing table
/// ([`crate::index::RoutingTable::freeze`]): stream partitions with all
/// tombstones dropped and member slots densely remapped (in original
/// order, so candidate `(seq, slot)` ordering — and therefore delivery
/// order — is identical to the mutable table's).
#[derive(Debug, Clone, Default)]
pub struct FrozenTable {
    pub(crate) streams: HashMap<Symbol, FrozenPartition>,
}

/// An immutable, `Sync` image of the whole network's dissemination
/// state: per-node frozen tables plus the stream→source map. Published
/// by the broker behind a [`cosmos_util::sync::SnapshotCell`]; any
/// number of [`SnapshotReader`]s match against it concurrently.
#[derive(Debug)]
pub struct RoutingSnapshot {
    /// The broker's routing-state version this snapshot was built from
    /// (`u64::MAX` = the placeholder before the first commit).
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

/// Per-`(node, stream)` reader-owned match scratch: everything the
/// mutable `StreamIndex` kept inline (epoch counters, candidate buffers)
/// plus private plan caches for the partition's projection classes and
/// hop unions. Built lazily the first time a reader's forwarding walk
/// touches the partition.
#[derive(Debug)]
struct PartScratch {
    epoch: u64,
    count: Vec<u32>,
    epoch_of: Vec<u64>,
    touched: Vec<u32>,
    candidates: Vec<(u64, u32)>,
    class_epoch: Vec<u64>,
    class_cached: Vec<Option<Message>>,
    class_proj: Vec<CachedProjection>,
    hop_epoch: Vec<u64>,
    hop_proj: Vec<CachedProjection>,
}

impl PartScratch {
    fn for_partition(part: &FrozenPartition) -> Self {
        Self {
            epoch: 0,
            count: vec![0; part.members.len()],
            epoch_of: vec![0; part.members.len()],
            touched: Vec::new(),
            candidates: Vec::new(),
            class_epoch: vec![0; part.classes.len()],
            class_cached: vec![None; part.classes.len()],
            class_proj: part.classes.iter().map(|p| CachedProjection::new(p.clone())).collect(),
            hop_epoch: vec![0; part.hops.len()],
            hop_proj: part.hops.iter().map(|h| CachedProjection::new(h.union.clone())).collect(),
        }
    }
}

/// Matches `msg` against one frozen partition — the exact algorithm of
/// `RoutingTable::match_message_into` with every mutation redirected
/// into `ps`: counting pass over threshold lists, candidates sorted by
/// `(seq, slot)`, residual evaluation, projection-class dedup, hop
/// marks. Output order is bit-identical to the serial matcher's.
fn match_frozen(
    part: &FrozenPartition,
    msg: &Message,
    from: Option<NodeId>,
    ps: &mut PartScratch,
    out: &mut MatchOutput,
) {
    let PartScratch {
        epoch: scratch_epoch,
        count,
        epoch_of,
        touched,
        candidates,
        class_epoch,
        class_cached,
        class_proj,
        hop_epoch,
        hop_proj,
    } = ps;
    *scratch_epoch += 1;
    let epoch = *scratch_epoch;
    touched.clear();
    candidates.clear();

    if !part.lists.is_empty() {
        for (i, &attr) in msg.schema().attrs().iter().enumerate() {
            let Some(lists) = part.lists.get(&IndexOperand::Attr(attr)) else { continue };
            let Some(v) = ScalarRef::from(&msg.values()[i]).as_f64() else {
                continue; // string value: numeric comparisons are false
            };
            if v.is_nan() {
                continue;
            }
            lists.bump_satisfied(v, count, epoch_of, touched, epoch);
        }
        if let Some(lists) = part.lists.get(&IndexOperand::Timestamp) {
            lists.bump_satisfied(msg.timestamp as f64, count, epoch_of, touched, epoch);
        }
    }

    candidates.extend(part.zero_target.iter().map(|&m| (part.members[m as usize].seq, m)));
    candidates.extend(touched.iter().filter_map(|&m| {
        let member = &part.members[m as usize];
        (count[m as usize] == member.target).then_some((member.seq, m))
    }));
    candidates.sort_unstable();

    for &(_, m) in candidates.iter() {
        let member = &part.members[m as usize];
        if !eval_compiled(&member.residual, msg) {
            continue;
        }
        match &member.action {
            FrozenAction::Local { sub, class } => {
                let c = *class as usize;
                if class_epoch[c] != epoch {
                    class_epoch[c] = epoch;
                    class_cached[c] = Some(class_proj[c].apply(msg));
                }
                let record = class_cached[c].clone().expect("projected this epoch");
                out.deliveries.push((*sub, record));
            }
            FrozenAction::Hop(g) => hop_epoch[*g as usize] = epoch,
        }
    }
    for (g, hop) in part.hops.iter().enumerate() {
        if hop_epoch[g] != epoch || Some(hop.to) == from {
            continue;
        }
        out.forwards.push((hop.to, hop_proj[g].apply(msg)));
    }
    out.forwards.sort_by_key(|(n, _)| *n);
}

/// Batched twin of [`match_frozen`]: matches a slice of **same-stream**
/// `(order, message)` pairs against one frozen partition through a
/// single walk — one scratch-epoch range for the whole batch, the
/// per-attribute list resolution cached across messages with the same
/// schema — handing each message's results to `sink(order, buf)` in
/// batch order. Per-message output is bit-identical to [`match_frozen`].
fn match_frozen_batch<F>(
    part: &FrozenPartition,
    msgs: &[(u64, Message)],
    from: Option<NodeId>,
    ps: &mut PartScratch,
    buf: &mut MatchOutput,
    mut sink: F,
) where
    F: FnMut(u64, &mut MatchOutput),
{
    let PartScratch {
        epoch: scratch_epoch,
        count,
        epoch_of,
        touched,
        candidates,
        class_epoch,
        class_cached,
        class_proj,
        hop_epoch,
        hop_proj,
    } = ps;
    let base = *scratch_epoch;
    *scratch_epoch += msgs.len() as u64;
    let ts_lists = part.lists.get(&IndexOperand::Timestamp);
    let mut resolved: Vec<(usize, &FrozenLists)> = Vec::new();
    let mut resolved_schema: *const Symbol = std::ptr::null();
    for (j, (order, msg)) in msgs.iter().enumerate() {
        let epoch = base + j as u64 + 1;
        touched.clear();
        candidates.clear();
        if !part.lists.is_empty() {
            let attrs = msg.schema().attrs();
            if attrs.as_ptr() != resolved_schema {
                resolved_schema = attrs.as_ptr();
                resolved.clear();
                resolved.extend(attrs.iter().enumerate().filter_map(|(i, &attr)| {
                    part.lists.get(&IndexOperand::Attr(attr)).map(|l| (i, l))
                }));
            }
            for &(i, lists) in &resolved {
                let Some(v) = ScalarRef::from(&msg.values()[i]).as_f64() else {
                    continue; // string value: numeric comparisons are false
                };
                if v.is_nan() {
                    continue;
                }
                lists.bump_satisfied(v, count, epoch_of, touched, epoch);
            }
        }
        if let Some(lists) = ts_lists {
            lists.bump_satisfied(msg.timestamp as f64, count, epoch_of, touched, epoch);
        }
        candidates.extend(part.zero_target.iter().map(|&m| (part.members[m as usize].seq, m)));
        candidates.extend(touched.iter().filter_map(|&m| {
            let member = &part.members[m as usize];
            (count[m as usize] == member.target).then_some((member.seq, m))
        }));
        candidates.sort_unstable();
        buf.clear();
        for &(_, m) in candidates.iter() {
            let member = &part.members[m as usize];
            if !eval_compiled(&member.residual, msg) {
                continue;
            }
            match &member.action {
                FrozenAction::Local { sub, class } => {
                    let c = *class as usize;
                    if class_epoch[c] != epoch {
                        class_epoch[c] = epoch;
                        class_cached[c] = Some(class_proj[c].apply(msg));
                    }
                    let record = class_cached[c].clone().expect("projected this epoch");
                    buf.deliveries.push((*sub, record));
                }
                FrozenAction::Hop(g) => hop_epoch[*g as usize] = epoch,
            }
        }
        for (g, hop) in part.hops.iter().enumerate() {
            if hop_epoch[g] != epoch || Some(hop.to) == from {
                continue;
            }
            buf.forwards.push((hop.to, hop_proj[g].apply(msg)));
        }
        buf.forwards.sort_by_key(|(n, _)| *n);
        sink(*order, buf);
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

/// A read handle over one [`RoutingSnapshot`]: owns the snapshot `Arc`,
/// all match scratch, and its own output accumulator — `Send`, fully
/// independent of the broker and of every other reader, so N readers
/// publish concurrently without any synchronization.
#[derive(Debug)]
pub struct SnapshotReader {
    snap: Arc<RoutingSnapshot>,
    scratch: HashMap<(NodeId, Symbol), PartScratch>,
    pool: Vec<MatchOutput>,
    out: ReaderOutput,
    next_order: u64,
}

impl SnapshotReader {
    /// Wraps a snapshot handle.
    pub fn new(snap: Arc<RoutingSnapshot>) -> Self {
        Self {
            snap,
            scratch: HashMap::new(),
            pool: Vec::new(),
            out: ReaderOutput::default(),
            next_order: 0,
        }
    }

    /// The snapshot this reader currently matches against.
    pub fn snapshot(&self) -> &Arc<RoutingSnapshot> {
        &self.snap
    }

    /// Switches to a newer snapshot *between* messages, keeping the
    /// accumulated output (partition scratch is rebuilt lazily — member
    /// slots are snapshot-specific). In-flight messages are unaffected
    /// by construction: a message is matched start-to-finish against the
    /// snapshot its reader held when `publish` began.
    pub fn retarget(&mut self, snap: &Arc<RoutingSnapshot>) {
        if Arc::ptr_eq(&self.snap, snap) {
            return;
        }
        self.snap = Arc::clone(snap);
        self.scratch.clear();
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
        self.next_order = order + 1;
        let Some(&src) = self.snap.stream_source.get(&msg.stream) else {
            return 0;
        };
        let before = self.out.deliveries.len();
        self.forward(src, None, msg, order);
        self.out.deliveries.len() - before
    }

    /// Publishes a slice of messages under consecutive order tags
    /// starting at `start_order` — message `k` is tagged exactly as
    /// `publish_at(start_order + k, ...)` would tag it, so a thread pool
    /// handing out disjoint order ranges can mix batched and serial
    /// publishing freely and the merged, order-sorted output stays equal
    /// to the serial log. Maximal same-stream runs share one forwarding
    /// walk (one partition-scratch resolution and one epoch range per
    /// node, per run). Returns the total number of local deliveries.
    pub fn publish_batch_at(&mut self, start_order: u64, msgs: &[Message]) -> usize {
        self.next_order = start_order + msgs.len() as u64;
        let before = self.out.deliveries.len();
        let mut i = 0;
        while i < msgs.len() {
            let stream = msgs[i].stream;
            let mut j = i + 1;
            while j < msgs.len() && msgs[j].stream == stream {
                j += 1;
            }
            if let Some(&src) = self.snap.stream_source.get(&stream) {
                let batch: Vec<(u64, Message)> = msgs[i..j]
                    .iter()
                    .enumerate()
                    .map(|(k, m)| (start_order + (i + k) as u64, m.clone()))
                    .collect();
                self.forward_batch(src, None, batch);
            }
            i = j;
        }
        self.out.deliveries.len() - before
    }

    /// Batched twin of [`SnapshotReader::forward`] — see
    /// `BrokerNetwork::forward_batch` for the ordering argument; the
    /// per-message delivery order here is restored by the order tags
    /// instead of splicing.
    fn forward_batch(&mut self, node: NodeId, from: Option<NodeId>, batch: Vec<(u64, Message)>) {
        let Some((_, first)) = batch.first() else { return };
        let stream = first.stream;
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        let mut next: Vec<(NodeId, Vec<(u64, Message)>)> = Vec::new();
        if let Some(part) = self.snap.tables[node.index()].streams.get(&stream) {
            let ps = self
                .scratch
                .entry((node, stream))
                .or_insert_with(|| PartScratch::for_partition(part));
            let out = &mut self.out;
            match_frozen_batch(part, &batch, from, ps, &mut buf, |order, buf| {
                for (sub, message) in buf.deliveries.drain(..) {
                    out.deliveries.push((order, Delivery { sub, node, message }));
                }
                for (hop, fwd) in buf.forwards.drain(..) {
                    match next.binary_search_by_key(&hop, |(n, _)| *n) {
                        Ok(i) => next[i].1.push((order, fwd)),
                        Err(i) => next.insert(i, (hop, vec![(order, fwd)])),
                    }
                }
            });
        }
        self.pool.push(buf);
        for (hop, sub_batch) in next {
            let key = if node <= hop { (node, hop) } else { (hop, node) };
            let stats = self.out.links.entry(key).or_default();
            stats.messages += sub_batch.len() as u64;
            stats.bytes += sub_batch.iter().map(|(_, m)| m.wire_size() as u64).sum::<u64>();
            self.forward_batch(hop, Some(node), sub_batch);
        }
    }

    fn forward(&mut self, node: NodeId, from: Option<NodeId>, msg: Message, order: u64) {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        if let Some(part) = self.snap.tables[node.index()].streams.get(&msg.stream) {
            let ps = self
                .scratch
                .entry((node, msg.stream))
                .or_insert_with(|| PartScratch::for_partition(part));
            match_frozen(part, &msg, from, ps, &mut buf);
        }
        for (sub, message) in buf.deliveries.drain(..) {
            self.out.deliveries.push((order, Delivery { sub, node, message }));
        }
        for (next, fwd) in buf.forwards.drain(..) {
            let key = if node <= next { (node, next) } else { (next, node) };
            let stats = self.out.links.entry(key).or_default();
            stats.messages += 1;
            stats.bytes += fwd.wire_size() as u64;
            self.forward(next, Some(node), fwd, order);
        }
        self.pool.push(buf);
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
    assert_sync::<crate::broker::BrokerNetwork>();
};

#[cfg(test)]
mod tests {
    use crate::broker::BrokerNetwork;
    use crate::subscription::{Message, StreamProjection, SubId, Subscription};
    use cosmos_net::{NodeId, Topology};
    use cosmos_query::Scalar;
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
}

//! Message-level broker network: advertisement-guided subscription
//! propagation with covering-based pruning, and reverse-path forwarding.
//!
//! This reproduces Figure 2's scenario end to end: sources advertise (2a),
//! receivers multicast subscriptions toward the sources under advertisement
//! guidance, merging along the way (2b), routing tables accumulate at each
//! node (2c), and published messages follow the tables, crossing each link
//! at most once while being filtered and projected as early as possible
//! (2d).
//!
//! Every physical node acts as a broker. Propagation follows the shortest
//! path between subscriber and the advertising source, so the implicit
//! dissemination tree per source is its shortest-path tree — the same tree
//! the rate-based [`crate::traffic::TrafficModel`] charges for, keeping the
//! two cost views consistent.
//!
//! # Incremental routing-state maintenance
//!
//! At massive scale the control plane churns continuously: subscriptions
//! arrive and depart, links fail and recover. The network therefore keeps
//! a per-subscription **installation ledger** ([`InstallRecord`]): every
//! `(node, direction)` entry a subscription contributed, and the covering
//! **dependencies** between subscriptions (who suppressed whose
//! propagation) — entries and dependencies, nothing else: a link's
//! same-direction routing entries *are* the record of what already
//! travels upstream, so a walk toward a source stops at the first table
//! that skips it and no node keeps an "already forwarded" set (why that
//! is the same prune — `routing_covers` is transitive and every removal
//! goes through the ledger — is argued on `BrokerNetwork::install`).
//! [`BrokerNetwork::unsubscribe`] tears down exactly the
//! departing subscription's footprint and re-propagates only its
//! transitive covering dependents; [`BrokerNetwork::fail_link`] /
//! [`BrokerNetwork::restore_link`] re-route only the subscriptions whose
//! installed paths traverse the changed link (per-source subtree
//! provenance from [`ShortestPathTree::nodes_via_edge`]). All of them are
//! one private routine, `BrokerNetwork::reroute` — edges cut, edges
//! joined, subscriptions leaving — which carries the argument; it is
//! sublinear in population size. What it must equal is a rebuild of the
//! world: the `cosmos-oracle` crate's `ReferenceNetwork` recomputes flat
//! tables from topology, advertisements and the population in subscribe
//! order after every operation of the differential suites, and repaired
//! tables are held to it — the same entries up to swapping same-direction
//! entries that cover each other (see `BrokerNetwork::repropagate`),
//! hence the same deliveries and link traffic.
//!
//! # Crash recovery
//!
//! Whole-broker crashes follow the same ledger discipline. A crash
//! ([`BrokerNetwork::fail_node`]) is a batched link failure plus a local
//! wipe: every incident edge leaves the topology at once and the node's
//! own subscribers are unsubscribed through their ledgers (crashed
//! consumers must re-subscribe after recovery). Recovery
//! ([`BrokerNetwork::restore_node`]) is the inverse: the detached edge
//! batch is validated all-or-nothing, re-attached, and only the subtrees
//! the fresh trees hang below the restored edges re-propagate.
//! `crates/pubsub/tests/chaos.rs` interleaves crashes, link flaps, and
//! lossy-link message faults (see [`crate::reliable`]) against the same
//! reference.
//!
//! # Publishing
//!
//! The network has one owner and one writer: churn and publishing alike
//! are `&mut self`, and every publish path walks the live routing tables
//! ([`BrokerNetwork::publish_batch`]).

use crate::index::{
    match_run, CoverStats, ForwardInsert, InstalledSub, MatchOutput, MatchStats, RoutingFootprint,
    RoutingTable,
};
use crate::subscription::{Message, SubId, Subscription};
use cosmos_net::{NodeId, ShortestPathTree, Topology};
use cosmos_util::Symbol;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Traffic counters for one undirected link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Number of message transmissions over the link.
    pub messages: u64,
    /// Total bytes transmitted.
    pub bytes: u64,
}

/// The routing state's size at one moment ([`BrokerNetwork::snapshot`]).
/// Kept only as the end-to-end harness's call site (it times
/// `pubsub.snapshot.*` around it); it goes when the harness stops timing
/// it (ROADMAP item 8(a)).
#[derive(Debug)]
pub struct RoutingSnapshot {
    footprint: RoutingFootprint,
}

impl RoutingSnapshot {
    /// [`BrokerNetwork::footprint`] when this snapshot was taken.
    pub fn footprint(&self) -> RoutingFootprint {
        self.footprint
    }
}

/// A delivered message: which subscription, where, and what content.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The matched subscription.
    pub sub: SubId,
    /// The subscriber's node.
    pub node: NodeId,
    /// The (projected) message content.
    pub message: Message,
}

/// Log of local deliveries made by [`BrokerNetwork::publish`].
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    pub(crate) deliveries: Vec<Delivery>,
}

impl DeliveryLog {
    /// All deliveries in publish order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Total number of deliveries.
    pub fn len(&self) -> usize {
        self.deliveries.len()
    }

    /// Returns `true` when nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty()
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.deliveries.clear();
    }
}

/// The per-subscription installation ledger: everything one subscription
/// contributed to the network's routing state, plus the covering
/// dependencies that gate incremental teardown (see
/// [`BrokerNetwork::unsubscribe`]).
#[derive(Debug)]
struct InstallRecord {
    /// Installation sequence number (subscribe order). Routing entries
    /// carry it, so delivery order survives removal and re-installation.
    seq: u64,
    /// The subscription itself, in its shared installed form — the ledger
    /// is the population store, so teardown and wave re-installation
    /// never scan a population list, and every entry of a single-source
    /// installation shares this very `Arc`. Its requests are the body the
    /// subscriber handed in (a clone of a `Subscription` shares it), so the
    /// network stores none of its own.
    form: Arc<InstalledSub>,
    /// Every `(node, direction)` whose routing table holds an entry this
    /// subscription contributed (`None` = the local delivery entry).
    entries: Vec<(NodeId, Option<NodeId>)>,
    /// Subscriptions whose presence suppressed part of this installation —
    /// a covering same-direction entry stopped our walk toward a source,
    /// or dropped an entry we had installed. If any of them leaves or
    /// re-routes, this subscription must be re-propagated. An ascending
    /// set ([`insert_sorted`]).
    depends_on: Vec<SubId>,
}

/// Adds `id` to the ascending set `set`, returning `false` when it is
/// already there. The first allocation holds exactly one id, not the four
/// of a `Vec`'s own first growth.
fn insert_sorted(set: &mut Vec<SubId>, id: SubId) -> bool {
    let Err(i) = set.binary_search(&id) else { return false };
    if set.capacity() == 0 {
        set.reserve_exact(1);
    }
    set.insert(i, id);
    true
}

/// Whether the ascending set `set` holds `id`.
fn contains_sorted(set: &[SubId], id: SubId) -> bool {
    set.binary_search(&id).is_ok()
}

/// Covering as used for *routing-table pruning*: semantic covering plus
/// needs preservation (see [`Subscription::needs`]).
fn routing_covers(general: &Subscription, specific: &Subscription) -> bool {
    if !general.covers(specific) {
        return false;
    }
    specific.streams.iter().all(|(&s, req)| general.needs(s).is_some_and(|g| g.covers(req.needs())))
}

/// `sub` restricted to `streams` — the form one source's tree carries.
fn restricted(sub: &Subscription, streams: &[Symbol]) -> Subscription {
    Subscription {
        id: sub.id,
        subscriber: sub.subscriber,
        streams: streams.iter().map(|s| (*s, sub.streams[s].clone())).collect(),
    }
}

/// Whether a restored edge `{a, b}` of the given latency can enter the
/// canonical tree that `old` was before the restoration, judged from the
/// old endpoint distances alone: only by strictly improving one
/// endpoint, *tying* one endpoint (a tie is adopted when the edge's
/// relaxation fires first in pop order — the fresh tree decides), or
/// connecting a previously unreachable one.
fn adoptable(old: &ShortestPathTree, a: NodeId, b: NodeId, latency: f64) -> bool {
    match (old.distance(a), old.distance(b)) {
        (None, None) => false,
        (Some(_), None) | (None, Some(_)) => true,
        (Some(da), Some(db)) => da + latency <= db || db + latency <= da,
    }
}

/// Where a hop's forwarded record lives while a run's sub-runs are
/// regrouped: `Same` borrows the matched message itself (an identity
/// forward), `Proj` indexes the forwarding node's arena of narrowed
/// records.
#[derive(Debug, Clone, Copy)]
enum FwdSlot {
    Same(u32),
    Proj(u32),
}

/// One hop's regrouped sub-run under construction: `(tag, slot)` pairs
/// in match order.
type HopSlots = Vec<(u32, FwdSlot)>;

/// The forwarding walk and its recycled buffers.
#[derive(Debug, Default)]
struct Walk {
    /// Tagged forward-slot buffers — one per (node, hop) edge of a run's
    /// union dissemination tree, recycled when the hop's sub-run returns.
    slot_pool: Vec<HopSlots>,
    /// Per-node hop-grouping buffers (outer vector of the per-hop slot
    /// regrouping).
    next_pool: Vec<Vec<(NodeId, HopSlots)>>,
    /// Per-node arenas of narrowed records.
    arena_pool: Vec<Vec<Message>>,
}

impl Walk {
    /// Publishes `msgs` over `tables`: each maximal run of consecutive
    /// same-stream messages is walked from its advertised source (runs of
    /// unadvertised streams go nowhere), charging `links`. Each delivery is
    /// handed to `deliver` with its message's position in `msgs`; within
    /// one position, in that message's own forwarding order.
    fn publish(
        &mut self,
        tables: &mut [RoutingTable],
        links: &mut HashMap<(NodeId, NodeId), LinkStats>,
        sources: &HashMap<Symbol, NodeId>,
        msgs: &[Message],
        deliver: &mut impl FnMut(u32, Delivery),
    ) {
        let mut i = 0;
        while i < msgs.len() {
            let stream = msgs[i].stream;
            let mut j = i + 1;
            while j < msgs.len() && msgs[j].stream == stream {
                j += 1;
            }
            if let Some(&src) = sources.get(&stream) {
                self.run(tables, links, src, &msgs[i..j], &mut |tag, d| deliver(i as u32 + tag, d));
            }
            i = j;
        }
    }

    /// Walks one same-stream run from its source `src`, tagging
    /// deliveries with run positions.
    fn run(
        &mut self,
        tables: &mut [RoutingTable],
        links: &mut HashMap<(NodeId, NodeId), LinkStats>,
        src: NodeId,
        msgs: &[Message],
        deliver: &mut impl FnMut(u32, Delivery),
    ) {
        if let [msg] = msgs {
            // A run of one, from a stack array.
            self.forward(tables, links, src, None, &[(0, msg)], deliver);
        } else {
            let run: Vec<(u32, &Message)> = (0..).zip(msgs).collect();
            self.forward(tables, links, src, None, &run, deliver);
        }
    }

    /// Matches a same-stream run at `node` through one [`match_run`]
    /// call, handing each delivery to `deliver` with its message's tag and
    /// regrouping forwards into per-hop sub-runs. Hops recurse in
    /// ascending node order, so restricting this union DFS to any single
    /// message's subtree is that message's own forwarding walk, and each
    /// tag's deliveries are handed over in that order. Link stats are
    /// order-independent sums and accumulate per sub-run.
    ///
    /// Sub-runs borrow their messages: an identity forward reuses the
    /// incoming run's reference and a narrowing one points into this
    /// call's `projected` arena (alive until the hop recursions return),
    /// so a record crossing k pass-through hops is cloned zero times
    /// instead of k. Slot buffers, hop groupings and arenas cycle through
    /// their pools and a sub-run of one lives on the stack, so
    /// steady-state publishing of single messages allocates nothing here
    /// and a batch only its sub-run vectors.
    fn forward(
        &mut self,
        tables: &mut [RoutingTable],
        links: &mut HashMap<(NodeId, NodeId), LinkStats>,
        node: NodeId,
        from: Option<NodeId>,
        run: &[(u32, &Message)],
        deliver: &mut impl FnMut(u32, Delivery),
    ) {
        let stream = run[0].1.stream;
        debug_assert!(run.iter().all(|(_, m)| m.stream == stream));
        let Some((part, classes, hops, scratch)) = tables[node.index()].at(stream) else {
            return;
        };
        // Records produced by narrowing forwards; identity forwards never
        // land here.
        let mut projected = self.arena_pool.pop().unwrap_or_default();
        let mut next = self.next_pool.pop().unwrap_or_default();
        // Run position of the message currently being sunk (sink runs
        // once per run entry, in order).
        let mut pos: u32 = 0;
        let pool = &mut self.slot_pool;
        match_run(part, classes, hops, scratch, run, from, |tag, out| {
            for (sub, message) in out.deliveries.drain(..) {
                deliver(tag, Delivery { sub, node, message });
            }
            for (hop, fwd) in out.forwards.drain(..) {
                let slot = match fwd {
                    None => FwdSlot::Same(pos),
                    Some(m) => {
                        projected.push(m);
                        FwdSlot::Proj(projected.len() as u32 - 1)
                    }
                };
                match next.binary_search_by_key(&hop, |(n, _)| *n) {
                    Ok(i) => next[i].1.push((tag, slot)),
                    Err(i) => {
                        let mut slots = pool.pop().unwrap_or_default();
                        slots.push((tag, slot));
                        next.insert(i, (hop, slots));
                    }
                }
            }
            pos += 1;
        });
        for (hop, mut slots) in next.drain(..) {
            let resolve = |&(tag, slot): &(u32, FwdSlot)| match slot {
                FwdSlot::Same(b) => (tag, run[b as usize].1),
                FwdSlot::Proj(p) => (tag, &projected[p as usize]),
            };
            let (one, many);
            let sub_run: &[(u32, &Message)] = if let [only] = &slots[..] {
                one = [resolve(only)];
                &one
            } else {
                many = slots.iter().map(resolve).collect::<Vec<_>>();
                &many
            };
            let key = if node <= hop { (node, hop) } else { (hop, node) };
            let stats = links.entry(key).or_default();
            stats.messages += sub_run.len() as u64;
            stats.bytes += sub_run.iter().map(|(_, m)| m.wire_size() as u64).sum::<u64>();
            self.forward(tables, links, hop, Some(node), sub_run, deliver);
            slots.clear();
            self.slot_pool.push(slots);
        }
        self.next_pool.push(next);
        projected.clear();
        self.arena_pool.push(projected);
    }
}

/// A content-based broker network over a physical topology.
///
/// # Examples
///
/// ```
/// use cosmos_net::{Topology, NodeId};
/// use cosmos_pubsub::broker::BrokerNetwork;
/// use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
/// use cosmos_query::Scalar;
///
/// let mut topo = Topology::new(3);
/// topo.add_edge(NodeId(0), NodeId(1), 1.0);
/// topo.add_edge(NodeId(1), NodeId(2), 1.0);
/// let mut net = BrokerNetwork::new(topo);
/// net.advertise("R", NodeId(0));
/// net.subscribe(
///     Subscription::builder(NodeId(2)).id(SubId(1)).stream("R", StreamProjection::All, vec![]).build(),
/// );
/// let n = net.publish(Message::new("R", 0).with("a", Scalar::Int(1)));
/// assert_eq!(n, 1);
/// ```
#[derive(Debug)]
pub struct BrokerNetwork {
    topo: Topology,
    /// stream symbol → advertising node.
    stream_source: HashMap<Symbol, NodeId>,
    /// advertising node → its shortest-path (dissemination) tree.
    adv_trees: HashMap<NodeId, ShortestPathTree>,
    /// Per-node routing tables (stream-partitioned counting indexes; see
    /// [`crate::index`]).
    tables: Vec<RoutingTable>,
    /// Per-subscription installation ledgers, keyed by id — the
    /// population store (subscribe order is each record's `seq`).
    records: HashMap<SubId, InstallRecord>,
    /// Live subscription ids per subscriber node: the re-route set of a
    /// link incident is found by walking the moved subtree's nodes, not
    /// the population.
    subs_at: Vec<Vec<SubId>>,
    /// Reverse covering-dependency index: `dependents[y]` = subscriptions
    /// whose installation was suppressed by `y` and must re-propagate
    /// when `y`'s routing state is torn down. Each an ascending set
    /// ([`insert_sorted`]); a subscription nobody depends on has no key.
    dependents: HashMap<SubId, Vec<SubId>>,
    /// Next installation sequence number.
    next_seq: u64,
    /// Covering-resolution work done by every install so far.
    cover_stats: CoverStats,
    /// The publish paths' forwarding walk.
    walk: Walk,
    link_stats: HashMap<(NodeId, NodeId), LinkStats>,
    log: DeliveryLog,
}

impl BrokerNetwork {
    /// Wraps a topology; every node becomes a broker.
    pub fn new(topo: Topology) -> Self {
        let n = topo.node_count();
        Self {
            topo,
            stream_source: HashMap::new(),
            adv_trees: HashMap::new(),
            tables: (0..n).map(|_| RoutingTable::new()).collect(),
            records: HashMap::new(),
            subs_at: vec![Vec::new(); n],
            dependents: HashMap::new(),
            next_seq: 0,
            cover_stats: CoverStats::default(),
            walk: Walk::default(),
            link_stats: HashMap::new(),
            log: DeliveryLog::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Advertises `stream` as produced by `source`. Re-advertising a stream
    /// moves it (subscriptions installed earlier are not rerouted — callers
    /// advertise before subscribing, as in Siena).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn advertise(&mut self, stream: impl Into<Symbol>, source: NodeId) {
        let stream = stream.into();
        self.adv_trees
            .entry(source)
            .or_insert_with(|| ShortestPathTree::compute(&self.topo, source));
        self.stream_source.insert(stream, source);
    }

    /// The advertised source of `stream`, if any.
    pub fn source_of(&self, stream: &str) -> Option<NodeId> {
        self.stream_source.get(&Symbol::lookup(stream)?).copied()
    }

    /// Installs a subscription, propagating it toward each advertised source
    /// of its streams with covering-based pruning and table merging (covered
    /// same-direction entries are replaced — the merge at `n1` in Figure 2).
    /// Streams without an advertisement are ignored (nothing can be routed
    /// for them yet). Subscription ids key the installation ledger:
    /// re-subscribing an id that is already live *replaces* the previous
    /// subscription (its installation is torn down first).
    pub fn subscribe(&mut self, sub: Subscription) {
        self.check_subscriber(&sub);
        self.enter(sub);
    }

    /// Installs a batch of subscriptions in order (covering skips/drops
    /// depend on install order, so the batch never reorders). Each
    /// subscription's installed form — its indexable/residual split and
    /// needs — is derived **once** here and shared, by `Arc`, with every
    /// hop of every per-source walk. A batch is a population arriving at
    /// once, so it ends by releasing the growth slack it left behind:
    /// every table it touched and its members' ledger records keep exactly
    /// what they hold (a single [`BrokerNetwork::subscribe`] does not,
    /// which keeps its amortized growth).
    ///
    /// # Panics
    ///
    /// The whole batch is validated **before** anything is installed:
    /// panics, naming the subscription and the node, when a subscriber
    /// lies outside the topology — leaving sequence numbers, ledgers and
    /// tables untouched rather than stranding the earlier members of the
    /// batch installed.
    pub fn subscribe_batch(&mut self, subs: Vec<Subscription>) {
        subs.iter().for_each(|sub| self.check_subscriber(sub));
        let ids: Vec<SubId> = subs.iter().map(|sub| sub.id).collect();
        for sub in subs {
            self.enter(sub);
        }
        self.trim(&ids);
    }

    /// Panics unless `sub`'s subscriber is a node of the topology.
    fn check_subscriber(&self, sub: &Subscription) {
        assert!(
            sub.subscriber.index() < self.topo.node_count(),
            "subscription {} names subscriber {:?}, outside the {}-node topology",
            sub.id,
            sub.subscriber,
            self.topo.node_count()
        );
    }

    /// Ledgers `sub` under the next sequence number and installs it,
    /// replacing a live subscription with its id.
    fn enter(&mut self, sub: Subscription) {
        let id = sub.id;
        if self.records.contains_key(&id) {
            self.unsubscribe(id);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.subs_at[sub.subscriber.index()].push(id);
        self.records.insert(
            id,
            InstallRecord {
                seq,
                form: InstalledSub::new(sub),
                entries: Vec::new(),
                depends_on: Vec::new(),
            },
        );
        self.install(id);
    }

    /// Releases the growth slack installing `ids` left: their ledger
    /// records, the ledger map, and every table holding one of their
    /// entries. Moves no entry and changes no order.
    fn trim(&mut self, ids: &[SubId]) {
        let mut touched = vec![false; self.tables.len()];
        for id in ids {
            let Some(rec) = self.records.get_mut(id) else { continue };
            rec.entries.shrink_to_fit();
            rec.depends_on.shrink_to_fit();
            for &(node, _) in &rec.entries {
                touched[node.index()] = true;
            }
        }
        for (table, _) in self.tables.iter_mut().zip(touched).filter(|&(_, t)| t) {
            table.shrink_to_fit();
        }
        self.records.shrink_to_fit();
    }

    /// Work counters of covering resolution over every install this
    /// network has run (arrivals and repair waves alike): threshold-list
    /// slots the counting range walks visited, exact covering
    /// confirmations attempted, and confirmations that held.
    /// Deterministic — a function of the operation sequence only — so
    /// tests pin them exactly.
    pub fn cover_stats(&self) -> CoverStats {
        self.cover_stats
    }

    /// Deterministic work counters of all matching the publish paths have
    /// done so far ([`BrokerNetwork::publish`],
    /// [`BrokerNetwork::publish_batch`], the reliable plane): counters
    /// bumped, candidates visited versus delivered, residuals evaluated.
    pub fn match_stats(&self) -> MatchStats {
        let mut total = MatchStats::default();
        for table in &self.tables {
            total += table.match_stats();
        }
        total
    }

    /// Size counters of the routing state as it stands: partitions,
    /// member records and hop groups stored over all tables. Covering
    /// keeps no records of its own: it counts over the partitions'
    /// threshold lists.
    /// Tombstones count until their owner compacts. Deterministic — a
    /// function of the operation sequence only — so tests pin them
    /// exactly, like [`BrokerNetwork::cover_stats`].
    pub fn footprint(&self) -> RoutingFootprint {
        let mut fp = RoutingFootprint::default();
        for table in &self.tables {
            table.add_footprint(&mut fp);
        }
        fp
    }

    /// Propagates the ledgered subscription `id` through the network,
    /// recording in its ledger every entry it contributes and every
    /// covering dependency its propagation runs into.
    ///
    /// After the local delivery entry, one walk per advertised source of
    /// its streams, up that source's tree from the subscriber. Each hop
    /// does one thing — [`RoutingTable::insert_covering`] toward the node
    /// just left, candidates confirmed by `routing_covers`. An insert is
    /// ledgered, and every entry it dropped is scrubbed from its owner's
    /// ledger, the owner now depending on `id`. A **skip stops the walk** (`id` depends on the skipper): a
    /// live same-direction entry covers this subscription, so what it
    /// needs already crosses this link and every link above.
    ///
    /// That makes the table the only covering store. Siena keeps a second
    /// one per node — the subscriptions already forwarded upstream — and
    /// prunes against it; it is implied by the tables. Let `p =
    /// parent(u)`. A subscription `y` forwarded from `u` was offered to
    /// `p`'s table toward `u`, and left its own entry there or was skipped
    /// by a live entry covering it. Entries leave a table only through the
    /// ledger: dropped by an arriving coverer, which takes their place, or
    /// uninstalled with their owner — and then everyone who transitively
    /// depended on the owner, `y` included, is uninstalled in the same
    /// wave. `routing_covers` is transitive (`routing_covers_is_transitive`
    /// draws pools of them), so while `y` stays installed a live entry at
    /// `p` toward `u` covers it and whatever it covers. Hence "something
    /// forwarded from `u` covers `x`" holds exactly when `p`'s table skips
    /// `x`: the forwarded-set prune at `u` and the skip at `p` are one
    /// event seen a hop apart, leaving the same entries, up to and
    /// including `u`'s. By the same induction nothing is missing above a
    /// skip: the skipper's owner walked on and is, on every link up to the
    /// source, present or covered by a live entry.
    /// [`BrokerNetwork::check_ledger_consistency`] asserts the resulting
    /// shape.
    fn install(&mut self, id: SubId) {
        let rec = &self.records[&id];
        let (seq, full) = (rec.seq, Arc::clone(&rec.form));
        let sub = full.sub();
        let mut rec_entries: Vec<(NodeId, Option<NodeId>)> = Vec::new();
        // Local delivery entry at the subscriber.
        self.tables[sub.subscriber.index()].insert(Arc::clone(&full), None, seq);
        rec_entries.push((sub.subscriber, None));
        for (src, stream_names) in self.streams_by_source(sub) {
            // Restrict the subscription to the streams this source serves
            // — one installed form per (subscription, source), shared by
            // every hop of the walk. A single-source subscription's
            // restriction is the subscription itself.
            let form = if stream_names.len() == sub.streams.len() {
                Arc::clone(&full)
            } else {
                InstalledSub::new(restricted(sub, &stream_names))
            };
            let Some(path) = self.adv_trees[&src].path_to(sub.subscriber) else {
                continue; // unreachable subscriber
            };
            // Walk from the subscriber toward the source: `path` is
            // `[src, ..., subscriber]`.
            for hop in path.windows(2).rev() {
                let (u, downstream) = (hop[0], hop[1]);
                let (table, stats) = (&mut self.tables[u.index()], &mut self.cover_stats);
                let form = Arc::clone(&form);
                match table.insert_covering(form, downstream, seq, routing_covers, stats) {
                    ForwardInsert::Inserted { dropped } => {
                        rec_entries.push((u, Some(downstream)));
                        for victim in dropped {
                            // The drop invalidated one of the victim's
                            // ledgered entries: scrub it immediately, so
                            // the ledger only ever records live entries
                            // (a stale pair would let a later uninstall
                            // tear down an entry it no longer owns).
                            self.scrub_ledger_entry(victim, u, downstream);
                            self.depend(victim, id);
                        }
                    }
                    ForwardInsert::Skipped { by } => {
                        self.depend(id, by);
                        break;
                    }
                }
            }
        }
        let rec = self.records.get_mut(&id).expect("installing an unregistered subscription");
        rec.entries.extend(rec_entries);
    }

    /// The advertised streams of `sub`, grouped by the source that
    /// serves them (unadvertised streams are left out), in source order.
    fn streams_by_source(&self, sub: &Subscription) -> BTreeMap<NodeId, Vec<Symbol>> {
        let mut per_source: BTreeMap<NodeId, Vec<Symbol>> = BTreeMap::new();
        for s in sub.streams.keys() {
            if let Some(&src) = self.stream_source.get(s) {
                per_source.entry(src).or_default().push(*s);
            }
        }
        per_source
    }

    /// Records the dependency `x` → `y` (both directions of the index):
    /// `x` must re-propagate if `y`'s routing state is torn down.
    fn depend(&mut self, x: SubId, y: SubId) {
        if let Some(rec) = self.records.get_mut(&x) {
            if insert_sorted(&mut rec.depends_on, y) {
                insert_sorted(self.dependents.entry(y).or_default(), x);
            }
        }
    }

    /// Removes one ledgered `(node, toward downstream)` pair from
    /// `victim`'s installation record — the bookkeeping half of a
    /// covering drop. [`RoutingTable::insert_covering`] reports one
    /// dropped id per tombstoned entry, so exactly one pair is scrubbed
    /// per report and the ledger keeps recording only live entries.
    fn scrub_ledger_entry(&mut self, victim: SubId, node: NodeId, downstream: NodeId) {
        if let Some(rec) = self.records.get_mut(&victim) {
            if let Some(pos) =
                rec.entries.iter().position(|&(n, d)| n == node && d == Some(downstream))
            {
                rec.entries.swap_remove(pos);
            }
        }
    }

    /// Tears down everything `id` installed — its table entries (via the
    /// ledger, not a population scan) and its outgoing dependency edges.
    /// The record itself survives with its sequence number, so the
    /// subscription can be re-installed.
    fn uninstall(&mut self, id: SubId) {
        let Some(rec) = self.records.get_mut(&id) else { return };
        let entries = std::mem::take(&mut rec.entries);
        let depends_on = std::mem::take(&mut rec.depends_on);
        for (node, to) in entries {
            self.tables[node.index()].remove_entry(id, to);
        }
        for y in depends_on {
            if let Some(d) = self.dependents.get_mut(&y) {
                if let Ok(i) = d.binary_search(&id) {
                    d.remove(i);
                }
                if d.is_empty() {
                    self.dependents.remove(&y);
                }
            }
        }
    }

    /// The set of subscriptions that must be re-propagated when every
    /// member of `roots` is torn down: the transitive closure over
    /// recorded covering dependencies.
    /// Ascending, each member once.
    fn dependent_closure(&self, roots: Vec<SubId>) -> Vec<SubId> {
        let mut seen: HashSet<SubId> = roots.iter().copied().collect();
        let mut work = roots;
        while let Some(y) = work.pop() {
            if let Some(ds) = self.dependents.get(&y) {
                for &x in ds {
                    if seen.insert(x) {
                        work.push(x);
                    }
                }
            }
        }
        let mut wave: Vec<SubId> = seen.into_iter().collect();
        wave.sort_unstable();
        wave
    }

    /// Uninstalls every wave member, then re-installs the survivors in
    /// subscribe (sequence) order, re-deriving their paths under the
    /// current trees and coverage, without touching anyone else. That
    /// leaves the entries a rebuild of the whole population would, **up to
    /// swapping same-direction entries that cover each other**: where a
    /// wave member is re-routed onto links a later subscriber with an
    /// equivalent request already holds, the one standing keeps them (the
    /// arrival is skipped), while a rebuild would give them to the earlier
    /// subscriber. Either entry matches the same messages and needs the
    /// same attributes, so deliveries and link traffic are the rebuild's
    /// (`tests/index_equivalence.rs` pins the smallest case). Cost is
    /// O(wave), never O(population): the subscriptions come out of their
    /// own ledger records.
    fn repropagate(&mut self, wave: &[SubId]) {
        for &w in wave {
            self.uninstall(w);
        }
        let mut reinstall: Vec<(u64, SubId)> =
            wave.iter().filter_map(|w| self.records.get(w).map(|r| (r.seq, *w))).collect();
        reinstall.sort_unstable();
        for (_, id) in reinstall {
            self.install(id);
        }
    }

    /// Drops `id` from the ledger and the per-node index (not from the
    /// routing tables — that is [`BrokerNetwork::uninstall`]'s job).
    fn forget(&mut self, id: SubId) {
        if let Some(rec) = self.records.remove(&id) {
            self.subs_at[rec.form.sub().subscriber.index()].retain(|&s| s != id);
        }
    }

    /// Removes subscription `id` **incrementally**: its ledger names every
    /// entry it installed, so teardown touches only those, and only the
    /// subscriptions whose propagation it had suppressed (covering
    /// dependents, transitively) are re-propagated — their merged-away or
    /// pruned routing state comes back as a rebuild without `id` would
    /// leave it, up to which of two mutually covering subscriptions holds
    /// a shared link (see `repropagate`). Cost is proportional to
    /// the departing subscription's footprint plus its dependents', never
    /// to the population size.
    pub fn unsubscribe(&mut self, id: SubId) {
        self.reroute(&[], &[], &[id]);
    }

    /// Publishes a message from its advertised source, forwarding it along
    /// routing tables — a [`BrokerNetwork::publish_batch`] of one. Returns
    /// the number of local deliveries.
    ///
    /// Messages for unadvertised streams go nowhere and return 0.
    pub fn publish(&mut self, msg: Message) -> usize {
        self.publish_batch(std::slice::from_ref(&msg))
    }

    /// Publishes a slice of messages, returning the number of local
    /// deliveries. The delivery log and link stats end up **bit-identical**
    /// to publishing each message on its own in slice order: maximal runs
    /// of consecutive same-stream messages share one forwarding walk — one
    /// table lookup and one matcher call per node instead of one per
    /// message — and each message's deliveries, collected per-message
    /// during the shared walks, are spliced into the log in slice order.
    ///
    /// Messages for unadvertised streams go nowhere.
    pub fn publish_batch(&mut self, msgs: &[Message]) -> usize {
        let Self { walk, tables, link_stats, stream_source, log, .. } = self;
        let log = &mut log.deliveries;
        let before = log.len();
        if msgs.len() == 1 {
            // The walk's own order is the log's.
            walk.publish(tables, link_stats, stream_source, msgs, &mut |_, d| log.push(d));
        } else {
            let mut tagged: Vec<(u32, Delivery)> = Vec::new();
            let deliver = &mut |at, d| tagged.push((at, d));
            walk.publish(tables, link_stats, stream_source, msgs, deliver);
            // Stable by position: each message's pushes happened in its
            // own forwarding order, so the sorted whole is the serial log.
            tagged.sort_by_key(|&(at, _)| at);
            log.extend(tagged.into_iter().map(|(_, d)| d));
        }
        log.len() - before
    }

    /// The routing state's [`footprint`](Self::footprint) as it stands.
    pub fn snapshot(&self) -> RoutingSnapshot {
        RoutingSnapshot { footprint: self.footprint() }
    }

    /// Traffic counters for the link `{a, b}`.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> LinkStats {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.link_stats.get(&key).copied().unwrap_or_default()
    }

    /// The delivery log.
    pub fn log(&self) -> &DeliveryLog {
        &self.log
    }

    /// Clears delivery log and link statistics (routing state kept).
    pub fn reset_stats(&mut self) {
        self.log.clear();
        self.link_stats.clear();
    }

    /// Number of live subscriptions (diagnostics).
    pub fn subscription_count(&self) -> usize {
        self.records.len()
    }

    /// Number of routing entries at `node` (diagnostics).
    pub fn table_len(&self, node: NodeId) -> usize {
        self.tables[node.index()].len()
    }

    /// Live routing entries at `node` in installation order, as
    /// `(subscription, next hop)` (diagnostics and differential testing:
    /// a wrong covering skip changes tables before it changes deliveries).
    pub fn table_entries(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (&Subscription, Option<NodeId>)> {
        self.tables[node.index()].entries()
    }

    /// Verifies the ledger↔table consistency invariant — the contract
    /// the incremental control plane maintains after every operation:
    ///
    /// - every ledgered `(node, direction)` pair resolves to a live
    ///   routing-table entry of that subscription, **with multiplicity**
    ///   (a multi-stream subscription may contribute several entries at
    ///   one hop), and every live entry is ledgered by exactly one
    ///   [`InstallRecord`] — its owner's;
    /// - per live subscription and advertised source of its streams, the
    ///   forwarding entries of its restriction to that source are a
    ///   **contiguous run of the current tree path** from the subscriber
    ///   upward, ending at the source or directly below a node whose
    ///   table holds a live same-direction entry of *another*
    ///   subscription that `routing_covers` the restriction (the install
    ///   walk's stop rule), and it ledgers no forwarding entry off those
    ///   runs;
    /// - the per-node subscriber index lists each live subscription
    ///   exactly once, and the covering-dependency edges are symmetric
    ///   between the forward and reverse indexes, which holds no empty
    ///   set;
    /// - in every table, each owner's chain of entry slots names live
    ///   entries of that owner only, ascending, and together the chains
    ///   reach every live entry (the index removal walks).
    ///
    /// Returns a description of the first violation. Exposed for the
    /// differential suites, which assert it after every churn operation.
    pub fn check_ledger_consistency(&self) -> Result<(), String> {
        let mut entries: HashMap<(SubId, NodeId, Option<NodeId>), i64> = HashMap::new();
        // Live forwarding entries as `(owner, node, toward, source of the
        // entry's streams)` — one restriction per source, so one key per
        // hop of a walk.
        let mut own: HashSet<(SubId, NodeId, NodeId, NodeId)> = HashSet::new();
        for (n, table) in self.tables.iter().enumerate() {
            let node = NodeId(n as u32);
            table.check_owner_links().map_err(|e| format!("table at {node:?}: {e}"))?;
            for (sub, to) in table.entries() {
                *entries.entry((sub.id, node, to)).or_default() += 1;
                let src = sub.streams.keys().next().and_then(|s| self.stream_source.get(s));
                if let (Some(to), Some(&src)) = (to, src) {
                    own.insert((sub.id, node, to, src));
                }
            }
        }
        for (&id, rec) in &self.records {
            for &(node, dir) in &rec.entries {
                *entries.entry((id, node, dir)).or_default() -= 1;
            }
        }
        if let Some(((id, node, dir), n)) = entries.iter().find(|(_, &n)| n != 0) {
            return Err(if *n > 0 {
                format!("live entry of {id} at {node:?} toward {dir:?} is not ledgered")
            } else {
                format!("ledgered entry of {id} at {node:?} toward {dir:?} is not live")
            });
        }
        for (&id, rec) in &self.records {
            let sub = rec.form.sub();
            let mut on_runs = 0;
            for (src, streams) in self.streams_by_source(sub) {
                let Some(path) = self.adv_trees[&src].path_to(sub.subscriber) else { continue };
                let mut walk = path.windows(2).rev().peekable();
                while walk.next_if(|w| own.contains(&(id, w[0], w[1], src))).is_some() {
                    on_runs += 1;
                }
                // The first hop without an entry of ours, if the run
                // stopped short of the source.
                let Some(stop) = walk.next() else { continue };
                let (part, down) = (restricted(sub, &streams), Some(stop[1]));
                let covered = |(e, to): (&Subscription, _)| {
                    to == down && e.id != id && routing_covers(e, &part)
                };
                if !self.tables[stop[0].index()].entries().any(covered) {
                    return Err(format!(
                        "run of {id} toward {src:?} stops below {:?} with no covering entry",
                        stop[0]
                    ));
                }
            }
            let ledgered = rec.entries.iter().filter(|(_, dir)| dir.is_some()).count();
            if ledgered != on_runs {
                return Err(format!(
                    "{id} ledgers {ledgered} forwarding entries, {on_runs} on its contiguous runs"
                ));
            }
        }
        for (&id, rec) in &self.records {
            let n = self.subs_at[rec.form.sub().subscriber.index()]
                .iter()
                .filter(|&&s| s == id)
                .count();
            if n != 1 {
                return Err(format!("subscriber index lists {id} {n} times"));
            }
        }
        let listed: usize = self.subs_at.iter().map(|v| v.len()).sum();
        if listed != self.records.len() {
            return Err(format!(
                "subscriber index holds {listed} ids for {} records",
                self.records.len()
            ));
        }
        for (&x, rec) in &self.records {
            for y in &rec.depends_on {
                if !self.dependents.get(y).is_some_and(|d| contains_sorted(d, x)) {
                    return Err(format!("dependency {x} -> {y} missing from the reverse index"));
                }
            }
        }
        for (&y, deps) in &self.dependents {
            if deps.is_empty() {
                return Err(format!("reverse index keeps an empty set for {y}"));
            }
            for &x in deps {
                if !self.records.get(&x).is_some_and(|r| contains_sorted(&r.depends_on, y)) {
                    return Err(format!("reverse dependency {x} -> {y} has no forward edge"));
                }
            }
        }
        Ok(())
    }

    /// All per-link traffic counters, sorted by link (diagnostics and
    /// differential testing).
    pub fn all_link_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        let mut all: Vec<_> = self
            .link_stats
            .iter()
            .filter(|(_, s)| s.messages > 0 || s.bytes > 0)
            .map(|(&k, &s)| (k, s))
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }

    /// Handles the failure of link `{a, b}` **incrementally**: the link
    /// leaves the topology, and only the sources whose dissemination trees
    /// crossed it and the subscribers below it in those trees (plus their
    /// transitive covering dependents) are re-routed — see `reroute`.
    ///
    /// Returns `false` when the link did not exist. Subscribers that
    /// became unreachable from a source silently stop receiving that
    /// source's messages — exactly the partition semantics a CBN exhibits.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.topo.remove_edge(a, b) {
            return false;
        }
        self.reroute(&[(a, b)], &[], &[]);
        true
    }

    /// Restores a previously failed link `{a, b}` with the given latency —
    /// the inverse of [`BrokerNetwork::fail_link`], equally incremental.
    /// Returns `false` when the link already exists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, on a self-loop, or on a
    /// non-positive / non-finite latency. The latency is validated
    /// **before** anything else — in particular before the edge-exists
    /// early return — so a `NaN` or negative latency is always rejected
    /// loudly instead of sometimes reporting a quiet `false`: a bogus
    /// latency that slipped into the topology would silently corrupt
    /// shortest-path tie-breaking for every later incident.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId, latency: f64) -> bool {
        assert!(latency.is_finite() && latency > 0.0, "latency must be positive and finite");
        if self.topo.edge_latency(a, b).is_some() {
            return false;
        }
        self.topo.add_edge(a, b, latency);
        self.reroute(&[], &[(a, b, latency)], &[]);
        true
    }

    /// Handles the **crash of broker `n`** incrementally: all incident
    /// links leave the topology at once (the node slot persists as an
    /// isolated broker, keeping ids dense), `n`'s local subscribers are
    /// unsubscribed from the ledger — a crashed broker's consumers are
    /// gone and must re-subscribe after recovery — and only the
    /// subscriptions whose installed paths were hosted on or routed
    /// through `n`, plus their transitive covering dependents,
    /// re-propagate: a crash is the cut of every incident edge with the
    /// locals leaving (`reroute`).
    ///
    /// Returns the detached `(neighbor, latency)` list, sorted by
    /// neighbor, for a later [`BrokerNetwork::restore_node`] — or `None`
    /// when `n` is out of range or already isolated (crashed).
    pub fn fail_node(&mut self, n: NodeId) -> Option<Vec<(NodeId, f64)>> {
        if n.index() >= self.topo.node_count() || self.topo.degree(n) == 0 {
            return None;
        }
        let locals = self.subs_at[n.index()].clone();
        let edges = self.topo.remove_node(n);
        let cut: Vec<(NodeId, NodeId)> = edges.iter().map(|&(v, _)| (n, v)).collect();
        self.reroute(&cut, &[], &locals);
        Some(edges)
    }

    /// Restores crashed broker `n` with the given incident links — the
    /// inverse of [`BrokerNetwork::fail_node`], equally incremental.
    /// Local subscribers the crash removed do **not** come back — crashed
    /// consumers must re-subscribe.
    ///
    /// Returns `false` when `n` is out of range or not currently crashed
    /// (it still has incident links).
    ///
    /// # Panics
    ///
    /// The whole `edges` batch is validated **before** any edge is
    /// applied: panics on an out-of-range or self-loop endpoint or a
    /// non-positive / non-finite latency, leaving the topology untouched.
    /// A half-applied batch would strand the network between two
    /// topologies — state no rebuild from either could reproduce.
    pub fn restore_node(&mut self, n: NodeId, edges: &[(NodeId, f64)]) -> bool {
        if n.index() >= self.topo.node_count() || self.topo.degree(n) != 0 {
            return false;
        }
        self.validate_restored_edges(n, edges);
        for &(v, lat) in edges {
            self.topo.add_edge(n, v, lat);
        }
        let joined: Vec<(NodeId, NodeId, f64)> =
            edges.iter().map(|&(v, lat)| (n, v, lat)).collect();
        self.reroute(&[], &joined, &[]);
        true
    }

    /// Validates a [`BrokerNetwork::restore_node`] edge batch up-front
    /// (all-or-nothing): every endpoint in range, no self-loops, every
    /// latency positive and finite.
    fn validate_restored_edges(&self, n: NodeId, edges: &[(NodeId, f64)]) {
        for &(v, lat) in edges {
            assert!(v.index() < self.topo.node_count(), "restored neighbor {v} out of range");
            assert_ne!(v, n, "self-loops are not allowed");
            assert!(lat.is_finite() && lat > 0.0, "latency must be positive and finite");
        }
    }

    /// Matches `msg` at a single broker without forwarding — the one-hop
    /// matching step the reliable-delivery plane ([`crate::reliable`])
    /// drives explicitly, since it owns transport, retransmission, and
    /// link accounting itself.
    pub(crate) fn match_one(
        &mut self,
        node: NodeId,
        from: Option<NodeId>,
        msg: &Message,
        out: &mut MatchOutput,
    ) {
        self.tables[node.index()].match_one(msg, from, out);
    }

    /// The advertised source of an interned stream symbol.
    pub(crate) fn source_of_symbol(&self, stream: Symbol) -> Option<NodeId> {
        self.stream_source.get(&stream).copied()
    }

    /// Adds to `roots` the subscriptions hosted on the `moved` nodes of
    /// `src`'s tree that request one of its streams. Walks the moved
    /// subtree's nodes, not the population: the per-node index yields
    /// exactly the subscribers that re-route.
    fn rerouted_into(&self, roots: &mut Vec<SubId>, moved: &[NodeId], src: NodeId) {
        for m in moved {
            for &id in &self.subs_at[m.index()] {
                let sub = self.records[&id].form.sub();
                if sub.streams.keys().any(|s| self.stream_source.get(s) == Some(&src)) {
                    roots.push(id);
                }
            }
        }
    }

    /// The one repair routine behind [`BrokerNetwork::unsubscribe`] and the
    /// four topology incidents. The caller has already edited the topology:
    /// `cut` names the edges it removed, `joined` the edges it added (with
    /// their latencies), and `leaving` the subscriptions that depart for
    /// good. Dissemination trees are recomputed only where an edge matters,
    /// and only the subscriptions whose installed paths it moves, the
    /// leavers, and the transitive covering dependents of both are torn
    /// down; the survivors re-propagate under the fresh trees.
    ///
    /// Why that set suffices, per source: a removed edge moves exactly the
    /// nodes below it in the **old** tree, an added edge exactly the nodes
    /// below it in the **fresh** one — any changed canonical path crosses
    /// one of them. Every other node's shortest path (and, with the tree's
    /// deterministic tie-breaking, its parent chain) is unchanged, so a
    /// source whose old tree hangs nothing below a cut edge and cannot
    /// adopt a joined one ([`adoptable`], judged from old distances before
    /// paying a shortest-path recomputation) keeps its tree, and
    /// subscribers outside the moved subtrees keep their installed entries.
    /// For a crashed node that is the subtree below the tree edge into it
    /// (remote source), or everything reachable (the source itself); a tree
    /// that never reaches the node has none of its edges and is skipped.
    fn reroute(
        &mut self,
        cut: &[(NodeId, NodeId)],
        joined: &[(NodeId, NodeId, f64)],
        leaving: &[SubId],
    ) {
        let mut roots: Vec<SubId> = leaving.to_vec();
        let sources: Vec<NodeId> = if cut.is_empty() && joined.is_empty() {
            Vec::new()
        } else {
            self.adv_trees.keys().copied().collect()
        };
        for src in sources {
            let old = &self.adv_trees[&src];
            let below_old = |&(a, b): &(NodeId, NodeId)| old.nodes_via_edge(a, b);
            let mut moved: Vec<NodeId> = cut.iter().filter_map(below_old).flatten().collect();
            if moved.is_empty() && !joined.iter().any(|&(a, b, lat)| adoptable(old, a, b, lat)) {
                continue;
            }
            let fresh = ShortestPathTree::compute(&self.topo, src);
            let below_fresh = |&(a, b, _): &(NodeId, NodeId, f64)| fresh.nodes_via_edge(a, b);
            moved.extend(joined.iter().filter_map(below_fresh).flatten());
            self.adv_trees.insert(src, fresh);
            self.rerouted_into(&mut roots, &moved, src);
        }
        let mut wave = self.dependent_closure(roots);
        // Leavers' footprints are torn down via the ledger, they drop out
        // of the re-propagation wave, and their records are forgotten.
        for &id in leaving {
            self.uninstall(id);
            if let Ok(i) = wave.binary_search(&id) {
                wave.remove(i);
            }
            self.forget(id);
            self.dependents.remove(&id);
        }
        self.repropagate(&wave);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::StreamProjection;
    use cosmos_query::{AttrRef, CmpOp, Predicate, Scalar};
    use proptest::prelude::*;

    /// The paper's Figure 1/2 topology: n3 (source) - n2 - n1 - {n6, n7},
    /// with n4, n5 hanging off n2 and n1.
    fn paper_topology() -> Topology {
        let mut t = Topology::new(8); // ids 1..=7 used, 0 unused
        let e = |t: &mut Topology, a: u32, b: u32| t.add_edge(NodeId(a), NodeId(b), 1.0);
        e(&mut t, 3, 2);
        e(&mut t, 2, 1);
        e(&mut t, 2, 4);
        e(&mut t, 1, 5);
        e(&mut t, 1, 6);
        e(&mut t, 1, 7);
        t
    }

    fn filter_gt(stream: &str, attr: &str, v: i64) -> Predicate {
        Predicate::Cmp { attr: AttrRef::new(stream, attr), op: CmpOp::Gt, value: Scalar::Int(v) }
    }

    fn sub_r(id: u64, node: u32, threshold: i64) -> Subscription {
        Subscription::builder(NodeId(node))
            .id(SubId(id))
            .stream("R", StreamProjection::All, vec![filter_gt("R", "a", threshold)])
            .build()
    }

    fn figure2_network() -> BrokerNetwork {
        let mut net = BrokerNetwork::new(paper_topology());
        net.advertise("R", NodeId(3));
        net.subscribe(sub_r(6, 6, 20)); // n6: a > 20
        net.subscribe(sub_r(7, 7, 10)); // n7: a > 10
        net
    }

    #[test]
    fn figure2_message_routing() {
        let mut net = figure2_network();
        // m1.a = 15: only n7 (a > 10) receives it.
        let d1 = net.publish(Message::new("R", 0).with("a", Scalar::Int(15)));
        assert_eq!(d1, 1);
        assert_eq!(net.log().deliveries()[0].node, NodeId(7));
        // m2.a = 25: both n6 and n7.
        let d2 = net.publish(Message::new("R", 1).with("a", Scalar::Int(25)));
        assert_eq!(d2, 2);
    }

    #[test]
    fn figure2_single_transmission_per_link() {
        let mut net = figure2_network();
        net.publish(Message::new("R", 1).with("a", Scalar::Int(25)));
        // m2 crosses (3,2), (2,1), (1,6), (1,7): one transmission each.
        assert_eq!(net.link_stats(NodeId(3), NodeId(2)).messages, 1);
        assert_eq!(net.link_stats(NodeId(2), NodeId(1)).messages, 1);
        assert_eq!(net.link_stats(NodeId(1), NodeId(6)).messages, 1);
        assert_eq!(net.link_stats(NodeId(1), NodeId(7)).messages, 1);
        // Nothing toward n4 / n5.
        assert_eq!(net.link_stats(NodeId(2), NodeId(4)).messages, 0);
        assert_eq!(net.link_stats(NodeId(1), NodeId(5)).messages, 0);
    }

    #[test]
    fn figure2_early_filtering_at_source() {
        let mut net = figure2_network();
        // a = 5 matches nobody: must not leave n3 at all.
        let d = net.publish(Message::new("R", 0).with("a", Scalar::Int(5)));
        assert_eq!(d, 0);
        assert!(net.all_link_stats().is_empty());
    }

    #[test]
    fn figure2_subscription_merging_prunes_upstream() {
        let net = figure2_network();
        // n7's a>10 was forwarded to n1, n2, n3. n6's a>20 is covered by
        // a>10 at n1, so n2's table holds only one upstream entry for n1's
        // direction... i.e. table at n2 has exactly one entry pointing to n1.
        let n2_entries_to_n1 =
            net.tables[2].entries().filter(|(_, to)| *to == Some(NodeId(1))).count();
        assert_eq!(n2_entries_to_n1, 1, "covered subscription must be pruned at n1");
        // But n1's table holds both (it is the merge point).
        assert_eq!(net.table_len(NodeId(1)), 2);
    }

    #[test]
    fn projection_happens_as_early_as_possible() {
        let mut topo = Topology::new(3);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(2))
                .id(SubId(1))
                .stream("R", StreamProjection::attrs(["a"]), vec![])
                .build(),
        );
        let msg = Message::new("R", 0)
            .with("a", Scalar::Int(1))
            .with("b", Scalar::Int(2))
            .with("c", Scalar::Int(3));
        net.publish(msg);
        // Both links must carry the projected (1-attribute) message:
        // 16-byte header + 4-byte symbol + 8-byte int payload.
        let small = 16 + 4 + 8;
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).bytes, small);
        assert_eq!(net.link_stats(NodeId(1), NodeId(2)).bytes, small);
        let d = &net.log().deliveries()[0];
        assert_eq!(d.message.len(), 1);
    }

    #[test]
    fn filter_attrs_survive_projection_despite_pruning() {
        // n2 subscribes proj {a} no filter (covers), n2' subscribes proj {a}
        // with filter on b. Routing-covering must keep b flowing.
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(1), NodeId(3), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(2))
                .id(SubId(1))
                .stream("R", StreamProjection::attrs(["a"]), vec![])
                .build(),
        );
        net.subscribe(
            Subscription::builder(NodeId(3))
                .id(SubId(2))
                .stream("R", StreamProjection::attrs(["a"]), vec![filter_gt("R", "b", 5)])
                .build(),
        );
        let n =
            net.publish(Message::new("R", 0).with("a", Scalar::Int(1)).with("b", Scalar::Int(10)));
        assert_eq!(n, 2, "both subscribers must receive the message");
        let miss =
            net.publish(Message::new("R", 1).with("a", Scalar::Int(1)).with("b", Scalar::Int(1)));
        assert_eq!(miss, 1, "only the filterless subscriber receives b=1");
    }

    /// A filter comparing two attributes of the record reads both: the
    /// subscription needs `b` although it keeps only `a`, so `b` must
    /// cross every link its filter is evaluated behind. (The CQL parser
    /// rejects same-relation comparisons; the builder takes them.)
    #[test]
    fn attribute_to_attribute_filters_keep_both_sides_flowing() {
        let mut topo = Topology::new(3);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        let a_below_b = Predicate::JoinCmp {
            left: AttrRef::new("R", "a"),
            op: CmpOp::Lt,
            right: AttrRef::new("R", "b"),
        };
        let sub = Subscription::builder(NodeId(2))
            .id(SubId(1))
            .stream("R", StreamProjection::attrs(["a"]), vec![a_below_b])
            .build();
        net.subscribe(sub.clone());
        for (a, b) in [(1, 5), (5, 1)] {
            let msg = Message::new("R", 0)
                .with("a", Scalar::Int(a))
                .with("b", Scalar::Int(b))
                .with("c", Scalar::Int(9));
            assert_eq!(net.publish(msg.clone()), usize::from(sub.matches(&msg)), "a={a}, b={b}");
        }
        // `{a, b}` crosses: 16-byte header + two (symbol, int) pairs.
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).bytes, 16 + 2 * (4 + 8));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut net = figure2_network();
        net.unsubscribe(SubId(7));
        let d = net.publish(Message::new("R", 0).with("a", Scalar::Int(15)));
        assert_eq!(d, 0);
        let d = net.publish(Message::new("R", 0).with("a", Scalar::Int(25)));
        assert_eq!(d, 1); // n6 still there
    }

    #[test]
    fn unsubscribe_restores_merged_away_entries() {
        // In figure2, n7's a>10 *replaced* n6's a>20 forwarding entries at
        // n2 and n3 (covering merge). Unsubscribing n7 must restore
        // exactly n6's entries — via the ledgered dependency, not a
        // population rebuild.
        let mut net = figure2_network();
        net.unsubscribe(SubId(7));
        let n2_to_n1: Vec<SubId> = net.tables[2]
            .entries()
            .filter(|(_, to)| *to == Some(NodeId(1)))
            .map(|(s, _)| s.id)
            .collect();
        assert_eq!(n2_to_n1, vec![SubId(6)], "n6's merged-away entry restored at n2");
        net.publish(Message::new("R", 0).with("a", Scalar::Int(25)));
        assert_eq!(net.log().deliveries().len(), 1);
        assert_eq!(net.log().deliveries()[0].node, NodeId(6));
        assert_eq!(net.link_stats(NodeId(3), NodeId(2)).messages, 1, "path to n6 intact");
    }

    #[test]
    fn unsubscribe_repropagates_pruned_subscription() {
        // Reverse install order: n7's broad a>10 goes in first, so n6's
        // a>20 is pruned at n1 (nothing installed at n2/n3 for it). When
        // n7 leaves, n6 must be re-propagated all the way to the source.
        let mut net = BrokerNetwork::new(paper_topology());
        net.advertise("R", NodeId(3));
        net.subscribe(sub_r(7, 7, 10));
        net.subscribe(sub_r(6, 6, 20));
        net.unsubscribe(SubId(7));
        let d = net.publish(Message::new("R", 0).with("a", Scalar::Int(25)));
        assert_eq!(d, 1, "n6 must receive after its coverer departed");
        assert_eq!(net.link_stats(NodeId(2), NodeId(1)).messages, 1);
    }

    /// Owners of the live entries at `node` toward `to`, in table order.
    fn toward(net: &BrokerNetwork, node: u32, to: u32) -> Vec<SubId> {
        net.tables[node as usize]
            .entries()
            .filter(|(_, hop)| *hop == Some(NodeId(to)))
            .map(|(s, _)| s.id)
            .collect()
    }

    #[test]
    fn covering_entry_from_another_direction_stops_the_walk_one_hop_above_the_meeting_node() {
        // n7's broad a>10 reaches the source first; n6's narrow a>20 joins
        // its path at n1, arriving from another direction. The narrow
        // walk leaves its entry at the meeting node and stops at n2, whose
        // entry toward n1 covers it — nothing of it above.
        let mut net = BrokerNetwork::new(paper_topology());
        net.advertise("R", NodeId(3));
        net.subscribe(sub_r(7, 7, 10));
        net.subscribe(sub_r(6, 6, 20));
        assert_eq!(toward(&net, 1, 6), vec![SubId(6)], "entry at the meeting node");
        assert_eq!(toward(&net, 2, 1), vec![SubId(7)], "skipped one hop above it");
        assert_eq!(toward(&net, 3, 2), vec![SubId(7)], "and never offered to the source");
        assert_eq!(net.records[&SubId(6)].depends_on, vec![SubId(7)]);
        net.check_ledger_consistency().expect("run ends below a covering entry");
        // The coverer leaves: the narrow walk is extended to the source.
        net.unsubscribe(SubId(7));
        assert_eq!(toward(&net, 2, 1), vec![SubId(6)]);
        assert_eq!(toward(&net, 3, 2), vec![SubId(6)]);
        net.check_ledger_consistency().expect("run ends at the source");
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 1);
    }

    #[test]
    fn a_dropped_skipper_still_stops_the_walk_through_its_own_coverer() {
        // Chain of three: n6's a>20 is skipped at n2 by n7's a>10, whose
        // entries at n2 and n3 are then dropped by n5's a>0. The narrow
        // run now ends below an entry that covers it only transitively.
        let mut net = BrokerNetwork::new(paper_topology());
        net.advertise("R", NodeId(3));
        net.subscribe(sub_r(7, 7, 10));
        net.subscribe(sub_r(6, 6, 20));
        net.subscribe(sub_r(5, 5, 0));
        assert_eq!(toward(&net, 2, 1), vec![SubId(5)], "the skipper's entry was dropped");
        assert_eq!(toward(&net, 1, 6), vec![SubId(6)]);
        assert_eq!(toward(&net, 1, 7), vec![SubId(7)]);
        net.check_ledger_consistency().expect("covered through the chain 5 ⊒ 7 ⊒ 6");
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 3);
        // The broadest leaves: the wave re-installs 7 to the source and
        // stops 6 below it again.
        net.unsubscribe(SubId(5));
        assert_eq!(toward(&net, 2, 1), vec![SubId(7)]);
        assert_eq!(toward(&net, 3, 2), vec![SubId(7)]);
        net.check_ledger_consistency().expect("consistent after the repair wave");
        // Then the middle one: the narrow walk reaches the source.
        net.unsubscribe(SubId(7));
        assert_eq!(toward(&net, 2, 1), vec![SubId(6)]);
        assert_eq!(toward(&net, 3, 2), vec![SubId(6)]);
        net.check_ledger_consistency().expect("run ends at the source");
        assert_eq!(net.publish(Message::new("R", 1).with("a", Scalar::Int(25))), 1);
    }

    #[test]
    fn restore_link_reroutes_incrementally() {
        // Ring: 0 - 1 - 2 - 3 - 0; source at 0, subscriber at 2.
        let mut topo = Topology::new(4);
        for i in 0..4u32 {
            topo.add_edge(NodeId(i), NodeId((i + 1) % 4), 1.0);
        }
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(2))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .build(),
        );
        assert!(net.fail_link(NodeId(0), NodeId(1)));
        assert_eq!(net.publish(Message::new("R", 0)), 1);
        assert_eq!(net.link_stats(NodeId(0), NodeId(3)).messages, 1, "detour in use");
        // Restoring the link re-routes back through the short side.
        assert!(net.restore_link(NodeId(0), NodeId(1), 1.0));
        assert!(!net.restore_link(NodeId(0), NodeId(1), 1.0), "already present");
        net.reset_stats();
        assert_eq!(net.publish(Message::new("R", 1)), 1);
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).messages, 1);
        assert_eq!(net.link_stats(NodeId(1), NodeId(2)).messages, 1);
        assert_eq!(net.link_stats(NodeId(0), NodeId(3)).messages, 0, "detour abandoned");
        // Restoring after a partition heals it.
        assert!(net.fail_link(NodeId(0), NodeId(1)));
        assert!(net.fail_link(NodeId(0), NodeId(3)));
        assert_eq!(net.publish(Message::new("R", 2)), 0, "partitioned");
        assert!(net.restore_link(NodeId(0), NodeId(3), 1.0));
        assert_eq!(net.publish(Message::new("R", 3)), 1, "healed via the detour");
    }

    #[test]
    fn restore_link_reclaims_equal_cost_path() {
        // 0-1 (1), 1-2 (1), 0-2 (2): the direct edge *ties* the detour.
        // The canonical tree uses the direct edge (node 0's relaxation of
        // node 2 fires first), so a fail+restore round-trip must return
        // to it even though the restored edge only equals the detour
        // distance — the adoptable check must treat ties as adoptable.
        let mut topo = Topology::new(3);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(0), NodeId(2), 2.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(2))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .build(),
        );
        net.publish(Message::new("R", 0));
        assert_eq!(net.link_stats(NodeId(0), NodeId(2)).messages, 1, "direct edge wins the tie");
        assert!(net.fail_link(NodeId(0), NodeId(2)));
        assert!(net.restore_link(NodeId(0), NodeId(2), 2.0));
        net.reset_stats();
        net.publish(Message::new("R", 1));
        assert_eq!(net.link_stats(NodeId(0), NodeId(2)).messages, 1, "tie reclaimed");
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).messages, 0);
        assert_eq!(net.link_stats(NodeId(1), NodeId(2)).messages, 0);
    }

    #[test]
    fn resubscribing_a_live_id_replaces_it() {
        // The ledger is keyed by id: subscribing an id that is already
        // live tears the old installation down first, so no orphaned
        // entries survive and a later unsubscribe removes everything.
        let mut net = figure2_network();
        net.subscribe(sub_r(7, 7, 30)); // replaces n7's a>10 with a>30
        let d = net.publish(Message::new("R", 0).with("a", Scalar::Int(15)));
        assert_eq!(d, 0, "the old a>10 subscription must be gone");
        let d = net.publish(Message::new("R", 1).with("a", Scalar::Int(35)));
        assert_eq!(d, 2, "replacement and n6 both match");
        net.unsubscribe(SubId(7));
        let d = net.publish(Message::new("R", 2).with("a", Scalar::Int(35)));
        assert_eq!(d, 1, "only n6 remains, nothing orphaned");
        assert_eq!(net.table_len(NodeId(7)), 0);
    }

    #[test]
    fn unadvertised_stream_goes_nowhere() {
        let mut net = figure2_network();
        assert_eq!(net.publish(Message::new("X", 0)), 0);
    }

    #[test]
    fn subscriber_at_source_gets_local_delivery() {
        let mut topo = Topology::new(2);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(0))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .build(),
        );
        assert_eq!(net.publish(Message::new("R", 0)), 1);
        assert!(net.all_link_stats().is_empty());
    }

    #[test]
    fn link_failure_reroutes_when_alternate_path_exists() {
        // Ring: 0 - 1 - 2 - 3 - 0; source at 0, subscriber at 2.
        let mut topo = Topology::new(4);
        for i in 0..4u32 {
            topo.add_edge(NodeId(i), NodeId((i + 1) % 4), 1.0);
        }
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(2))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .build(),
        );
        assert_eq!(net.publish(Message::new("R", 0)), 1);
        // Kill one side of the ring; the other path still delivers.
        assert!(net.fail_link(NodeId(0), NodeId(1)));
        assert_eq!(net.publish(Message::new("R", 1)), 1);
        // Kill the remaining path: partitioned, no delivery.
        assert!(net.fail_link(NodeId(3), NodeId(0)));
        assert_eq!(net.publish(Message::new("R", 2)), 0);
        // Unknown link: report false.
        assert!(!net.fail_link(NodeId(0), NodeId(2)));
    }

    #[test]
    fn link_failure_keeps_unaffected_subscribers() {
        let mut net = figure2_network();
        // (2,4) failing is irrelevant to n6/n7.
        assert!(net.fail_link(NodeId(2), NodeId(4)));
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 2);
    }

    /// Regression (multi-source self-covering): a two-stream subscription
    /// installs one restricted entry per advertised source under the same
    /// id; where the two paths share a `(node, downstream)` hop the
    /// sibling entries must coexist — the second walk must never
    /// covers-drop (or be skipped by) the first — and the ledger must
    /// record exactly the live entries throughout.
    #[test]
    fn multi_source_shared_suffix_keeps_sibling_entries() {
        // R at 0 and S at 1 both reach the subscriber 4 through the
        // shared suffix 2 → 3 → 4.
        let mut topo = Topology::new(5);
        topo.add_edge(NodeId(0), NodeId(2), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(2), NodeId(3), 1.0);
        topo.add_edge(NodeId(3), NodeId(4), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.advertise("S", NodeId(1));
        net.subscribe(
            Subscription::builder(NodeId(4))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![filter_gt("R", "a", 20)])
                .stream("S", StreamProjection::All, vec![])
                .build(),
        );
        let siblings = |net: &BrokerNetwork, node: u32, down: u32| {
            net.tables[node as usize]
                .entries()
                .filter(|(s, to)| s.id == SubId(1) && *to == Some(NodeId(down)))
                .count()
        };
        assert_eq!(siblings(&net, 3, 4), 2, "one restricted entry per source at the shared hop");
        assert_eq!(siblings(&net, 2, 3), 2);
        net.check_ledger_consistency().expect("both sibling entries ledgered");
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 1);
        assert_eq!(net.publish(Message::new("S", 1)), 1);
        // A broader R-only subscriber downstream covers exactly the R
        // sibling at the shared hops; the S sibling and the ledger must
        // survive the drop.
        net.subscribe(
            Subscription::builder(NodeId(4))
                .id(SubId(2))
                .stream("R", StreamProjection::All, vec![filter_gt("R", "a", 10)])
                .build(),
        );
        assert_eq!(siblings(&net, 3, 4), 1, "R sibling merged away, S sibling intact");
        net.check_ledger_consistency().expect("victim ledger scrubbed at drop time");
        let m = |ts| Message::new("R", ts).with("a", Scalar::Int(25));
        assert_eq!(net.publish(m(2)), 2, "both subscribers via the merged entry");
        assert_eq!(net.publish(Message::new("S", 3)), 1);
        // The coverer departs: the dropped sibling is re-propagated.
        net.unsubscribe(SubId(2));
        assert_eq!(siblings(&net, 3, 4), 2, "dropped sibling restored");
        net.check_ledger_consistency().expect("consistent after re-propagation");
        assert_eq!(net.publish(m(4)), 1, "the surviving subscriber still served");
        // Unsubscribing tears down every sibling entry.
        net.unsubscribe(SubId(1));
        assert_eq!(net.table_len(NodeId(2)), 0);
        assert_eq!(net.table_len(NodeId(3)), 0);
        assert_eq!(net.publish(m(5)), 0);
        net.check_ledger_consistency().expect("consistent after teardown");
    }

    /// Regression (stale victim ledgers): a covering drop must scrub the
    /// victim's ledgered `(node, direction)` pair at drop time — through
    /// the drop → re-propagation → unsubscribe interleaving the ledger
    /// and tables must never disagree, and the final teardown must remove
    /// exactly the re-installed entries.
    #[test]
    fn covering_drop_scrubs_victim_ledger() {
        let mut topo = Topology::new(3);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(sub_r(1, 2, 20)); // victim: a > 20 at node 2
        net.check_ledger_consistency().expect("fresh install consistent");
        // Drop: the broader arrival replaces the victim's forwarding
        // entries at every hop.
        net.subscribe(sub_r(2, 2, 10)); // coverer: a > 10, same path
        let victim_entries = |net: &BrokerNetwork| {
            (0..3u32)
                .map(|n| {
                    net.tables[n as usize]
                        .entries()
                        .filter(|(s, to)| s.id == SubId(1) && to.is_some())
                        .count()
                })
                .sum::<usize>()
        };
        assert_eq!(victim_entries(&net), 0, "victim's forwarding entries merged away");
        net.check_ledger_consistency().expect("victim ledger scrubbed at drop time");
        // Re-propagation: the coverer departs, the victim re-installs.
        net.unsubscribe(SubId(2));
        assert_eq!(victim_entries(&net), 2, "victim re-propagated to the source");
        net.check_ledger_consistency().expect("consistent after re-propagation");
        // Unsubscribe: the re-installed footprint (and nothing else) goes.
        net.unsubscribe(SubId(1));
        assert_eq!(victim_entries(&net), 0);
        assert_eq!(net.table_len(NodeId(0)), 0);
        assert_eq!(net.table_len(NodeId(1)), 0);
        assert_eq!(net.table_len(NodeId(2)), 0);
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 0);
        net.check_ledger_consistency().expect("consistent after final teardown");
    }

    #[test]
    fn two_streams_one_subscription() {
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(2), 1.0); // source R
        topo.add_edge(NodeId(1), NodeId(2), 1.0); // source S
        topo.add_edge(NodeId(2), NodeId(3), 1.0); // subscriber
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.advertise("S", NodeId(1));
        net.subscribe(
            Subscription::builder(NodeId(3))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .stream("S", StreamProjection::All, vec![])
                .build(),
        );
        assert_eq!(net.publish(Message::new("R", 0)), 1);
        assert_eq!(net.publish(Message::new("S", 0)), 1);
    }

    #[test]
    fn crashed_nodes_local_subscribers_are_unsubscribed_not_orphaned() {
        let mut net = figure2_network();
        // n7 hosts SubId(7); crash n7. Its ledger record, per-node index
        // slot, and every entry along its path (n7, n1, n2, n3) must go.
        let edges = net.fail_node(NodeId(7)).expect("n7 was attached");
        assert_eq!(edges, vec![(NodeId(1), 1.0)]);
        assert!(!net.records.contains_key(&SubId(7)), "crashed local sub forgotten");
        assert!(net.subs_at[7].is_empty(), "per-node index cleared");
        assert!(!net.dependents.contains_key(&SubId(7)));
        net.check_ledger_consistency().expect("consistent after crash");
        // Only n6's subscription remains; a>15 matches n7's old filter but
        // must now deliver nowhere.
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(15))), 0);
        assert_eq!(net.publish(Message::new("R", 1).with("a", Scalar::Int(25))), 1);
        // Recovery brings the broker back but not its consumers: they
        // re-subscribe explicitly.
        assert!(net.restore_node(NodeId(7), &edges));
        assert_eq!(net.publish(Message::new("R", 2).with("a", Scalar::Int(15))), 0);
        net.subscribe(sub_r(7, 7, 10));
        assert_eq!(net.publish(Message::new("R", 3).with("a", Scalar::Int(15))), 1);
        net.check_ledger_consistency().expect("consistent after recovery");
    }

    #[test]
    fn fail_node_reroutes_transit_traffic() {
        // Ring: 0 (source) - 1 - 2 (subscriber) - 3 - 0. Shortest path to
        // the subscriber goes via n1; crashing n1 re-routes via n3.
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(2), NodeId(3), 2.0);
        topo.add_edge(NodeId(3), NodeId(0), 2.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(sub_r(1, 2, 0));
        net.publish(Message::new("R", 0).with("a", Scalar::Int(5)));
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).messages, 1);
        let edges = net.fail_node(NodeId(1)).expect("n1 was attached");
        net.check_ledger_consistency().expect("consistent after transit crash");
        // Crashing an already-isolated node reports None.
        assert!(net.fail_node(NodeId(1)).is_none());
        net.reset_stats();
        assert_eq!(net.publish(Message::new("R", 1).with("a", Scalar::Int(5))), 1);
        assert_eq!(net.link_stats(NodeId(0), NodeId(3)).messages, 1);
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).messages, 0);
        // Recovery adopts the cheap path again.
        assert!(net.restore_node(NodeId(1), &edges));
        assert!(!net.restore_node(NodeId(1), &edges), "already restored");
        net.check_ledger_consistency().expect("consistent after recovery");
        net.reset_stats();
        assert_eq!(net.publish(Message::new("R", 2).with("a", Scalar::Int(5))), 1);
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).messages, 1);
    }

    #[test]
    fn fail_node_of_source_silences_its_stream() {
        let mut net = figure2_network();
        let edges = net.fail_node(NodeId(3)).expect("source was attached");
        net.check_ledger_consistency().expect("consistent after source crash");
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 0);
        assert!(net.all_link_stats().is_empty(), "nothing may leave a crashed source");
        // A network that never had the source's link holds the same tables.
        let mut survivors = paper_topology();
        assert!(survivors.remove_edge(NodeId(3), NodeId(2)));
        let mut fresh = BrokerNetwork::new(survivors);
        fresh.advertise("R", NodeId(3));
        fresh.subscribe(sub_r(6, 6, 20));
        fresh.subscribe(sub_r(7, 7, 10));
        let image = |net: &BrokerNetwork| -> Vec<Vec<(SubId, Option<NodeId>)>> {
            let at = |n| net.table_entries(NodeId(n)).map(|(s, to)| (s.id, to)).collect();
            (0..8).map(at).collect()
        };
        assert_eq!(image(&net), image(&fresh));
        assert_eq!(fresh.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 0);
        // Recovery restores delivery to the surviving subscribers.
        assert!(net.restore_node(NodeId(3), &edges));
        assert_eq!(net.publish(Message::new("R", 1).with("a", Scalar::Int(25))), 2);
        net.check_ledger_consistency().expect("consistent after source recovery");
    }

    #[test]
    fn stream_free_subscription_installs_delivers_nothing_and_leaves() {
        // No stream, so no source to walk toward: the local entry is the
        // whole installation (forwarding entries exist only per advertised
        // source of a requested stream).
        let mut net = figure2_network();
        net.subscribe(Subscription::builder(NodeId(5)).id(SubId(5)).build());
        assert_eq!(net.records[&SubId(5)].entries, vec![(NodeId(5), None)]);
        net.check_ledger_consistency().expect("consistent with a stream-free subscription");
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 2);
        let to_it = net.log().deliveries().iter().filter(|d| d.sub == SubId(5));
        assert_eq!(to_it.count(), 0, "nothing is delivered to it");
        assert_eq!(net.link_stats(NodeId(1), NodeId(5)).messages, 0, "or forwarded toward it");
        net.unsubscribe(SubId(5));
        assert_eq!(net.table_len(NodeId(5)), 0);
        net.check_ledger_consistency().expect("consistent after it left");
    }

    #[test]
    fn restore_node_rejects_bad_batches_atomically() {
        let mut net = figure2_network();
        let edges = net.fail_node(NodeId(1)).expect("n1 was attached");
        assert_eq!(edges.len(), 4);
        // A batch with one bad latency must be rejected before ANY edge
        // is applied: the node stays fully crashed.
        let mut bad = edges.clone();
        bad[2].1 = f64::NAN;
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.restore_node(NodeId(1), &bad)
        }));
        assert!(poisoned.is_err(), "NaN latency must panic");
        assert_eq!(net.topology().degree(NodeId(1)), 0, "no edge of the bad batch applied");
        net.check_ledger_consistency().expect("consistent after rejected batch");
        assert!(net.restore_node(NodeId(1), &edges));
        assert_eq!(net.publish(Message::new("R", 0).with("a", Scalar::Int(25))), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn restore_link_rejects_nonfinite_latency_up_front() {
        let mut net = figure2_network();
        // The edge exists, so the buggy path would quietly return false;
        // the validation must fire first.
        net.restore_link(NodeId(1), NodeId(2), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "subscription p2 names subscriber NodeId(99)")]
    fn subscribe_batch_validates_the_whole_batch_before_installing_any_of_it() {
        let mut net = figure2_network();
        let lens = |net: &BrokerNetwork| -> Vec<usize> {
            (0..8).map(|n| net.table_len(NodeId(n))).collect()
        };
        let (before, seq) = (lens(&net), net.next_seq);
        // The first member is installable; the second names a node the
        // topology does not have.
        let batch = vec![sub_r(1, 5, 0), sub_r(2, 99, 0)];
        let rejected =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.subscribe_batch(batch)))
                .expect_err("an out-of-range subscriber must panic");
        assert_eq!(lens(&net), before, "no member of the rejected batch was installed");
        assert_eq!(net.next_seq, seq, "no sequence number was consumed");
        net.check_ledger_consistency().expect("consistent after the rejected batch");
        std::panic::resume_unwind(rejected);
    }

    /// A snapshot holds the footprint at the call: later churn leaves an
    /// earlier snapshot as it was, and unsubscribing everyone brings a
    /// fresh one back to the empty footprint.
    #[test]
    fn snapshot_reports_the_footprint_at_the_call() {
        let mut net = figure2_network();
        let before = net.footprint();
        let first = net.snapshot();
        assert_eq!(first.footprint(), before);
        net.subscribe(sub_r(5, 5, 0));
        let second = net.snapshot();
        assert_eq!(second.footprint(), net.footprint());
        assert_ne!(second.footprint(), before, "the subscription left entries behind");
        assert_eq!(first.footprint(), before, "an earlier snapshot keeps its value");
        for id in [5, 6, 7] {
            net.unsubscribe(SubId(id));
        }
        assert_eq!(net.snapshot().footprint(), RoutingFootprint::default());
    }

    /// One stream request decoded from drawn `(shape, value)` codes: the
    /// differential suites' `random_predicate` shapes (every operator on
    /// three attributes, integer and half-step thresholds, string
    /// (in)equality, event-time bounds, a foreign-relation reference) and
    /// the covering-rich salt (hot `b >` bounds, NaN and signed zeros),
    /// over a value domain small enough that covering is common.
    fn decode_request(
        stream: &str,
        codes: &[(u32, i64)],
        projection: u32,
    ) -> (StreamProjection, Vec<Predicate>) {
        const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let cmp = |rel: &str, attr: &str, op, value| Predicate::Cmp {
            attr: AttrRef::new(rel, attr),
            op,
            value,
        };
        let filters = codes
            .iter()
            .map(|&(shape, v)| {
                let attr = ["a", "b", "c"][shape as usize % 3];
                let op = OPS[shape as usize / 3 % 6];
                match shape {
                    0..=17 => cmp(stream, attr, op, Scalar::Int(v)),
                    18..=23 => cmp(stream, attr, op, Scalar::Float(v as f64 + 0.5)),
                    24 | 25 => {
                        let s = Scalar::Str(["x", "y"][v.rem_euclid(2) as usize].to_string());
                        cmp(stream, "s", if shape == 24 { CmpOp::Eq } else { CmpOp::Ne }, s)
                    }
                    26 => cmp(stream, "timestamp", CmpOp::Ge, Scalar::Int(v * 1_000)),
                    27 => cmp(stream, "timestamp", CmpOp::Lt, Scalar::Int(v * 1_000)),
                    28 => cmp("not-R", "a", CmpOp::Gt, Scalar::Int(0)),
                    29 => cmp(stream, "b", CmpOp::Gt, Scalar::Float(f64::NAN)),
                    30 => cmp(stream, "b", CmpOp::Gt, Scalar::Float(-0.0)),
                    31 => cmp(stream, "b", CmpOp::Ge, Scalar::Float(0.0)),
                    _ => cmp(stream, "b", CmpOp::Gt, Scalar::Int(v)),
                }
            })
            .collect();
        let shapes: [&[&str]; 6] =
            [&[], &["a"], &["a", "b"], &["b", "c"], &["a", "b", "c"], &["s"]];
        let projection = match shapes[projection as usize] {
            [] => StreamProjection::All,
            attrs => StreamProjection::attrs(attrs.iter().copied()),
        };
        (projection, filters)
    }

    /// A subscription on `R`, `S` or both (as `covering_rich_sub` and
    /// `random_sub` draw them).
    fn any_sub() -> impl Strategy<Value = Subscription> {
        let request = || (proptest::collection::vec((0u32..64, -3i64..8), 0..3), 0u32..6);
        (request(), request(), 0u32..10).prop_map(|((fr, pr), (fs, ps), streams)| {
            let mut builder = Subscription::builder(NodeId(0));
            if streams != 8 {
                let (projection, filters) = decode_request("R", &fr, pr);
                builder = builder.stream("R", projection, filters);
            }
            if streams >= 8 {
                let (projection, filters) = decode_request("S", &fs, ps);
                builder = builder.stream("S", projection, filters);
            }
            builder.build()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// What lets the routing table double as the record of what was
        /// already forwarded upstream (see `BrokerNetwork::install`): if
        /// `x` covers `y` and `y` covers `z` for routing — filters,
        /// projections and needs — then `x` covers `z`. Every ordered
        /// triple of each drawn pool is checked (independent triples
        /// rarely chain).
        #[test]
        fn routing_covers_is_transitive(pool in proptest::collection::vec(any_sub(), 6..10)) {
            let n = pool.len();
            let covers: Vec<Vec<bool>> =
                pool.iter().map(|x| pool.iter().map(|y| routing_covers(x, y)).collect()).collect();
            for (x, y) in (0..n).flat_map(|x| (0..n).map(move |y| (x, y))) {
                for z in (0..n).filter(|&z| covers[x][y] && covers[y][z]) {
                    prop_assert!(
                        covers[x][z],
                        "{:?} covers {:?} covers {:?}, but not the last directly",
                        pool[x], pool[y], pool[z]
                    );
                }
            }
        }
    }
}

//! Per-link reliable, exactly-once delivery over a lossy message plane.
//!
//! [`crate::broker::BrokerNetwork::publish`] assumes a perfect transport:
//! `forward()` recursion *is* the network. [`LossyNetwork`] replaces that
//! assumption with an adversarial one — every physical transmission rolls
//! a seeded [`FaultPlan`](crate::fault::FaultPlan) that may drop,
//! duplicate, or reorder it — and layers enough protocol on each directed
//! link that the delivery log still converges **bit-for-bit** to the
//! fault-free serial log once the simulated clock drains.
//!
//! # Sender state machine (per directed link)
//!
//! Frames get monotone sequence numbers at enqueue. At most
//! [`WINDOW`] frames are in flight (unacked); excess queues in `pending`
//! (flow control, so the receiver ring below can never be outrun). One
//! retransmission timer guards the link: armed whenever `unacked` is
//! non-empty, firing after the current backoff ([`Backoff`]: bounded
//! exponential, reset by ack progress). On fire it retransmits only the
//! *first* unacked frame — the receiver buffers out of order, so one
//! frame is enough to restart cumulative progress. Timer cancellation is
//! lazy: each armed timer carries an epoch, and a stale epoch no-ops.
//! A cumulative ack `cum` acknowledges everything `< cum`; an ack with
//! `cum <= base` is a duplicate and ignored (idempotent).
//!
//! # Receiver state machine (per directed link)
//!
//! `cum_next` is the next in-order sequence; a fixed [`WINDOW`]-slot ring
//! indexed `seq % WINDOW` buffers out-of-order arrivals and doubles as
//! the dedup window: a frame below `cum_next` or landing in an occupied
//! slot is a duplicate — dropped, but still owed an ack so a lost ack
//! cannot wedge the sender. Sender flow control guarantees every live
//! sequence maps to a distinct slot, across arbitrarily many wraparounds.
//! Each in-order acceptance hands the frame to the broker matching layer
//! exactly once, counting **goodput** — which must equal the fault-free
//! link stats.
//!
//! Acks are cumulative and carry only news (delayed acknowledgement, as
//! in RFC 1122 §4.2.3.2). The first arrival after an ack, fresh or
//! duplicate, schedules an ack-due event [`ACK_WAIT_FACTOR`] link delays
//! out, and every arrival on the link until then shares it. When it
//! fires, an ack carrying `cum_next` goes out only if `cum_next` moved
//! past the point the link's last ack carried, or a duplicate arrived
//! since that ack. Otherwise nothing is sent: an out-of-order frame
//! behind a gap would only repeat the last ack.
//!
//! A skipped ack cannot wedge the link. It would carry a cumulative point
//! the sender already holds, or one whose earlier ack was lost. In the
//! lost case the sender still has frames unacked, so its timer is armed
//! and retransmits the first of them. That frame lies below the
//! receiver's point, arrives as a stale duplicate, and is acked. If
//! instead the sender's first unacked frame *is* the receiver's point,
//! the retransmission fills the gap and moves `cum_next`. The wait is
//! short enough that on a clean link the ack beats the timer: data (one
//! delay), the wait and the ack's return make `2 + ACK_WAIT_FACTOR`
//! delays, under the timeout's [`RTO_RTT_FACTOR`] (a `const` assert).
//!
//! The overhead ledger charges what senders put on the wire: originals,
//! timer retransmissions and acks. Fault duplicates are the network's
//! doing and are not charged. At quiescence every original has been
//! accepted exactly once, so per plane `physical messages == goodput
//! messages + retransmissions + acks`.
//!
//! # Bit-exact convergence
//!
//! Serial [`BrokerNetwork::publish`] logs deliveries in DFS preorder with
//! children in forward order. Every frame therefore carries its
//! `(publish, path)` key, where `path` is the child-index path from the
//! source; lexicographic order on those keys *is* DFS preorder (a node's
//! own deliveries keep a prefix key, sorting before its subtree). After
//! quiescence, [`LossyNetwork::converged_log`] stable-sorts by key and
//! must equal the fault-free serial log exactly — the chaos suite
//! asserts it against the from-scratch reference network of
//! `cosmos-oracle`.

use crate::broker::{BrokerNetwork, Delivery, LinkStats};
use crate::fault::{FaultAction, FaultPlan};
use crate::index::MatchOutput;
use crate::subscription::Message;
use cosmos_net::NodeId;
use cosmos_util::EventQueue;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Sender window / receiver ring size, in frames, per directed link.
pub const WINDOW: usize = 32;
/// Simulated ticks per unit of link latency.
const TICKS_PER_LATENCY: f64 = 100.0;
/// Accounted wire size of an ack frame, in bytes.
const ACK_BYTES: u64 = 16;
/// Retransmission timeout: `RTO_RTT_FACTOR * link delay`, then bounded
/// exponential up to `RTO_CAP_FACTOR` times that base.
const RTO_RTT_FACTOR: u64 = 4;
const RTO_CAP_FACTOR: u64 = 64;
/// A receiver's wait, in link delays, from the first arrival after an ack
/// to the ack that covers it and every arrival in between.
const ACK_WAIT_FACTOR: u64 = 1;
// On a clean link the ack returns before the timer fires: data, the
// wait and the ack's return take `2 + ACK_WAIT_FACTOR` link delays.
const _: () = assert!(RTO_RTT_FACTOR > 2 + ACK_WAIT_FACTOR);
/// Event budget for [`LossyNetwork::run_to_quiescence`]: a protocol bug
/// that stops convergence panics instead of hanging the suite.
const MAX_EVENTS_PER_DRAIN: u64 = 200_000_000;

/// Bounded exponential backoff for one link's retransmission timer.
#[derive(Debug, Clone)]
struct Backoff {
    base: u64,
    max: u64,
    cur: u64,
}

impl Backoff {
    fn new(base: u64) -> Self {
        let base = base.max(1);
        Self { base, max: base.saturating_mul(RTO_CAP_FACTOR), cur: base }
    }

    /// Ack progress: the next timeout starts from the base again.
    fn reset(&mut self) {
        self.cur = self.base;
    }

    /// The current timeout; doubles (bounded) for the next one.
    fn next(&mut self) -> u64 {
        let d = self.cur;
        self.cur = self.cur.saturating_mul(2).min(self.max);
        d
    }
}

/// A data frame in flight on one directed link.
#[derive(Debug, Clone)]
struct DataFrame {
    seq: u64,
    publish: u64,
    path: Vec<u32>,
    msg: Message,
}

/// Sender half of one directed link.
#[derive(Debug)]
struct SendState {
    next_seq: u64,
    /// Lowest unacknowledged sequence.
    base: u64,
    unacked: BTreeMap<u64, DataFrame>,
    /// Flow-controlled overflow beyond [`WINDOW`] frames in flight.
    pending: VecDeque<DataFrame>,
    backoff: Backoff,
    timer_epoch: u64,
    timer_armed: bool,
}

impl SendState {
    fn new(rto_base: u64) -> Self {
        Self {
            next_seq: 0,
            base: 0,
            unacked: BTreeMap::new(),
            pending: VecDeque::new(),
            backoff: Backoff::new(rto_base),
            timer_epoch: 0,
            timer_armed: false,
        }
    }
}

/// Receiver half of one directed link: cumulative cursor plus the
/// fixed-size out-of-order ring (the dedup window).
#[derive(Debug)]
struct RecvState {
    cum_next: u64,
    ring: Vec<Option<DataFrame>>,
    /// The cumulative point the link's last ack carried.
    acked: u64,
    /// A duplicate arrived since the last ack: the sender may be
    /// retransmitting because that ack was lost.
    duplicate: bool,
    /// An arrival since the last ack-due event; the next one is queued.
    ack_owed: bool,
}

impl RecvState {
    fn new() -> Self {
        Self {
            cum_next: 0,
            ring: (0..WINDOW).map(|_| None).collect(),
            acked: 0,
            duplicate: false,
            ack_owed: false,
        }
    }
}

#[derive(Debug)]
enum Event {
    /// A data frame arriving over `from → to`.
    Data { from: NodeId, to: NodeId, frame: DataFrame },
    /// The receiver of data link `from → to` acks the arrivals since its
    /// last ack, if they carry news.
    AckDue { from: NodeId, to: NodeId },
    /// A cumulative ack arriving at the sender of `to → from`'s reverse:
    /// acknowledges the data link `sender → receiver`.
    Ack { receiver: NodeId, sender: NodeId, cum: u64 },
    /// Retransmission timeout for data link `from → to`.
    Rto { from: NodeId, to: NodeId, epoch: u64 },
}

/// One delivery plus its convergence key.
#[derive(Debug, Clone)]
struct LogEntry {
    publish: u64,
    path: Vec<u32>,
    delivery: Delivery,
}

/// A [`BrokerNetwork`] whose message plane is lossy: transmissions roll a
/// seeded [`FaultPlan`], countered per directed link by the reliable
/// sender/receiver state machines above over a deterministic simulated
/// clock ([`EventQueue`]).
///
/// Publishes inject at the source and return immediately;
/// [`LossyNetwork::run_to_quiescence`] drains the clock (arrivals, acks,
/// retransmissions) until silence. Churn goes through
/// [`LossyNetwork::network_mut`], which insists on quiescence — routing
/// state may not change under in-flight traffic.
#[derive(Debug)]
pub struct LossyNetwork {
    net: BrokerNetwork,
    plan: FaultPlan,
    clock: EventQueue<Event>,
    send: HashMap<(NodeId, NodeId), SendState>,
    recv: HashMap<(NodeId, NodeId), RecvState>,
    /// Exactly-once deliveries to the matching layer, undirected keys —
    /// must converge to the fault-free [`BrokerNetwork::all_link_stats`].
    goodput: HashMap<(NodeId, NodeId), LinkStats>,
    /// Every transmission a sender puts on the wire: originals,
    /// retransmits, acks. Fault duplicates are not charged.
    physical: HashMap<(NodeId, NodeId), LinkStats>,
    log: Vec<LogEntry>,
    next_publish: u64,
    retransmissions: u64,
    acks_sent: u64,
    scratch: MatchOutput,
}

impl LossyNetwork {
    /// Wraps `net` under the given fault schedule.
    pub fn new(net: BrokerNetwork, plan: FaultPlan) -> Self {
        Self {
            net,
            plan,
            clock: EventQueue::new(),
            send: HashMap::new(),
            recv: HashMap::new(),
            goodput: HashMap::new(),
            physical: HashMap::new(),
            log: Vec::new(),
            next_publish: 0,
            retransmissions: 0,
            acks_sent: 0,
            scratch: MatchOutput::default(),
        }
    }

    /// The wrapped network, read-only (log, stats, ledger checks).
    pub fn network(&self) -> &BrokerNetwork {
        &self.net
    }

    /// The wrapped network for churn (subscribe, link/node incidents).
    ///
    /// # Panics
    ///
    /// Panics while traffic is in flight: routing state must be quiescent
    /// when it changes, or convergence against a serial oracle is
    /// undefined.
    pub fn network_mut(&mut self) -> &mut BrokerNetwork {
        assert!(self.clock.is_empty(), "churn requires a quiescent message plane");
        &mut self.net
    }

    /// Injects one publish at its advertised source. Local deliveries at
    /// the source happen inline; every forward becomes reliable frames.
    /// Returns `false` for an unadvertised stream. Call
    /// [`LossyNetwork::run_to_quiescence`] (after any batch) to drain.
    pub fn publish_lossy(&mut self, msg: Message) -> bool {
        let Some(src) = self.net.source_of_symbol(msg.stream) else {
            return false;
        };
        let publish = self.next_publish;
        self.next_publish += 1;
        self.process(src, None, publish, Vec::new(), msg);
        true
    }

    /// Drains the simulated clock: arrivals, acks, and retransmissions
    /// fire in deterministic `(tick, FIFO)` order until nothing is
    /// pending. With any drop rate below 1 this terminates: every
    /// retransmission rolls a fresh fault.
    pub fn run_to_quiescence(&mut self) {
        let mut budget = MAX_EVENTS_PER_DRAIN;
        while let Some((_, ev)) = self.clock.pop() {
            budget = budget.checked_sub(1).expect("message plane failed to converge");
            self.dispatch(ev);
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Data { from, to, frame } => self.handle_data(from, to, frame),
            Event::AckDue { from, to } => self.handle_ack_due(from, to),
            Event::Ack { receiver, sender, cum } => self.handle_ack(sender, receiver, cum),
            Event::Rto { from, to, epoch } => self.handle_rto(from, to, epoch),
        }
    }

    /// The exactly-once delivery log, stable-sorted to serial DFS
    /// preorder — after quiescence, bit-identical to what the fault-free
    /// serial network logs for the same publishes.
    pub fn converged_log(&self) -> Vec<Delivery> {
        let mut entries: Vec<&LogEntry> = self.log.iter().collect();
        entries.sort_by(|a, b| (a.publish, &a.path).cmp(&(b.publish, &b.path)));
        entries.into_iter().map(|e| e.delivery.clone()).collect()
    }

    /// Number of exactly-once deliveries logged since the last reset —
    /// [`LossyNetwork::converged_log`]'s length without the sort/clone,
    /// cheap enough for benchmark drain checks.
    pub fn delivered(&self) -> usize {
        self.log.len()
    }

    /// Per-link goodput (exactly-once crossings), nonzero links sorted —
    /// directly comparable to [`BrokerNetwork::all_link_stats`].
    pub fn goodput_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        Self::sorted_stats(&self.goodput)
    }

    /// Per-link physical transmissions (retransmit and ack overhead
    /// included, fault duplicates not), nonzero links sorted.
    pub fn physical_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        Self::sorted_stats(&self.physical)
    }

    fn sorted_stats(
        map: &HashMap<(NodeId, NodeId), LinkStats>,
    ) -> Vec<((NodeId, NodeId), LinkStats)> {
        let mut all: Vec<_> = map
            .iter()
            .filter(|(_, s)| s.messages > 0 || s.bytes > 0)
            .map(|(&k, &s)| (k, s))
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }

    /// Timer-driven retransmissions so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Acks put on the wire so far.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Frames sent but not yet acknowledged, plus frames queued behind a
    /// full window, over every link. Zero after
    /// [`LossyNetwork::run_to_quiescence`]: an unacked frame keeps its
    /// link's timer queued, so one still counted here was stranded.
    pub fn frames_in_flight(&self) -> usize {
        self.send.values().map(|ss| ss.unacked.len() + ss.pending.len()).sum()
    }

    /// The fault schedule (injection telemetry lives here).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current simulated time of the message plane's clock. External
    /// schedules (e.g. checkpoint timers in [`crate::recovery`]) pace
    /// themselves against this tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Clears delivery and traffic accounting (both layers), keeping
    /// protocol state — sequence numbers survive like the wrapped
    /// network's routing state does across [`BrokerNetwork::reset_stats`].
    pub fn reset_stats(&mut self) {
        assert!(self.clock.is_empty(), "reset requires a quiescent message plane");
        self.net.reset_stats();
        self.goodput.clear();
        self.physical.clear();
        self.log.clear();
        self.next_publish = 0;
        self.retransmissions = 0;
        self.acks_sent = 0;
    }

    /// Matches a frame's payload at `node` (the exactly-once upcall),
    /// logging deliveries under the frame's convergence key and sending
    /// every forward as fresh reliable frames.
    fn process(
        &mut self,
        node: NodeId,
        from: Option<NodeId>,
        publish: u64,
        path: Vec<u32>,
        msg: Message,
    ) {
        let mut out = std::mem::take(&mut self.scratch);
        self.net.match_one(node, from, &msg, &mut out);
        for (sub, message) in out.deliveries.drain(..) {
            self.log.push(LogEntry {
                publish,
                path: path.clone(),
                delivery: Delivery { sub, node, message },
            });
        }
        for (i, (next, fwd)) in out.forwards.drain(..).enumerate() {
            let mut child = path.clone();
            child.push(i as u32);
            // An identity forward (`None`) sends the record as it arrived.
            self.send_data(node, next, publish, child, fwd.unwrap_or_else(|| msg.clone()));
        }
        self.scratch = out;
    }

    fn link_delay(&self, s: NodeId, r: NodeId) -> u64 {
        let lat = self
            .net
            .topology()
            .edge_latency(s, r)
            .expect("reliable frames travel only over live links");
        ((lat * TICKS_PER_LATENCY).round() as u64).max(1)
    }

    /// Enqueues one frame on directed link `s → r`: sequence assigned
    /// now, transmitted immediately if the window has room, queued
    /// otherwise.
    fn send_data(&mut self, s: NodeId, r: NodeId, publish: u64, path: Vec<u32>, msg: Message) {
        let rto_base = RTO_RTT_FACTOR * self.link_delay(s, r);
        let ss = self.send.entry((s, r)).or_insert_with(|| SendState::new(rto_base));
        let seq = ss.next_seq;
        ss.next_seq += 1;
        let frame = DataFrame { seq, publish, path, msg };
        if ss.unacked.len() < WINDOW {
            ss.unacked.insert(seq, frame.clone());
            self.transmit(s, r, frame, false);
            self.arm_if_idle(s, r);
        } else {
            ss.pending.push_back(frame);
        }
    }

    /// One physical data transmission: counted as overhead, rolled
    /// through the fault plan, arrival(s) scheduled after link delay.
    fn transmit(&mut self, s: NodeId, r: NodeId, frame: DataFrame, is_retransmit: bool) {
        if is_retransmit {
            self.retransmissions += 1;
        }
        let key = undirected(s, r);
        let stats = self.physical.entry(key).or_default();
        stats.messages += 1;
        stats.bytes += frame.msg.wire_size() as u64;
        let delay = self.link_delay(s, r);
        match self.plan.roll(s, r) {
            FaultAction::Drop => {}
            FaultAction::Deliver => {
                self.clock.schedule_in(delay, Event::Data { from: s, to: r, frame });
            }
            FaultAction::Duplicate { extra } => {
                self.clock.schedule_in(delay, Event::Data { from: s, to: r, frame: frame.clone() });
                self.clock.schedule_in(delay + extra, Event::Data { from: s, to: r, frame });
            }
            FaultAction::Delay { extra } => {
                self.clock.schedule_in(delay + extra, Event::Data { from: s, to: r, frame });
            }
        }
    }

    /// One physical ack transmission for data link `s → r` (the ack
    /// itself crosses `r → s` and rolls its own faults).
    fn send_ack(&mut self, s: NodeId, r: NodeId, cum: u64) {
        self.acks_sent += 1;
        let stats = self.physical.entry(undirected(s, r)).or_default();
        stats.messages += 1;
        stats.bytes += ACK_BYTES;
        let delay = self.link_delay(r, s);
        let ev = |cum| Event::Ack { receiver: r, sender: s, cum };
        match self.plan.roll(r, s) {
            FaultAction::Drop => {}
            FaultAction::Deliver => self.clock.schedule_in(delay, ev(cum)),
            FaultAction::Duplicate { extra } => {
                self.clock.schedule_in(delay, ev(cum));
                self.clock.schedule_in(delay + extra, ev(cum));
            }
            FaultAction::Delay { extra } => self.clock.schedule_in(delay + extra, ev(cum)),
        }
    }

    /// Arms the retransmission timer when frames are unacked and no
    /// timer is live.
    fn arm_if_idle(&mut self, s: NodeId, r: NodeId) {
        let ss = self.send.get_mut(&(s, r)).expect("arming an unknown link");
        if ss.timer_armed || ss.unacked.is_empty() {
            return;
        }
        ss.timer_armed = true;
        ss.timer_epoch += 1;
        let epoch = ss.timer_epoch;
        let rto = ss.backoff.next();
        self.clock.schedule_in(rto, Event::Rto { from: s, to: r, epoch });
    }

    fn handle_data(&mut self, s: NodeId, r: NodeId, frame: DataFrame) {
        let rs = self.recv.entry((s, r)).or_insert_with(RecvState::new);
        let mut accepted: Vec<DataFrame> = Vec::new();
        if frame.seq >= rs.cum_next + WINDOW as u64 {
            // Sender flow control makes this unreachable; drop defensively
            // (a retransmission will land inside the window).
            debug_assert!(false, "frame beyond the receive window");
        } else if frame.seq < rs.cum_next {
            // Stale duplicate (already accepted): drop, but still owe an
            // ack — the sender may be retransmitting because ours was lost.
            rs.duplicate = true;
        } else {
            let slot = (frame.seq % WINDOW as u64) as usize;
            match &rs.ring[slot] {
                Some(buffered) => {
                    // In-window duplicate: the slot can only hold the
                    // same sequence (distinct live sequences map to
                    // distinct slots).
                    debug_assert_eq!(buffered.seq, frame.seq);
                    rs.duplicate = true;
                }
                None => {
                    rs.ring[slot] = Some(frame);
                    // Cumulative drain: accept every in-order frame.
                    loop {
                        let head = (rs.cum_next % WINDOW as u64) as usize;
                        match rs.ring[head] {
                            Some(ref f) if f.seq == rs.cum_next => {
                                accepted.push(rs.ring[head].take().expect("checked occupied"));
                                rs.cum_next += 1;
                            }
                            _ => break,
                        }
                    }
                }
            }
        }
        if !std::mem::replace(&mut rs.ack_owed, true) {
            let wait = ACK_WAIT_FACTOR * self.link_delay(s, r);
            self.clock.schedule_in(wait, Event::AckDue { from: s, to: r });
        }
        for f in accepted {
            let stats = self.goodput.entry(undirected(s, r)).or_default();
            stats.messages += 1;
            stats.bytes += f.msg.wire_size() as u64;
            self.process(r, Some(s), f.publish, f.path, f.msg);
        }
    }

    /// The one ack for data link `s → r` covering every arrival since the
    /// last ack-due event, sent only if it carries news: a cumulative point
    /// past the last ack's, or an answer to a duplicate.
    fn handle_ack_due(&mut self, s: NodeId, r: NodeId) {
        let rs = self.recv.get_mut(&(s, r)).expect("an owed ack has a receiver");
        rs.ack_owed = false;
        if rs.cum_next == rs.acked && !rs.duplicate {
            return;
        }
        rs.duplicate = false;
        rs.acked = rs.cum_next;
        let cum = rs.cum_next;
        self.send_ack(s, r, cum);
    }

    /// Cumulative ack for data link `s → r`: everything below `cum` is
    /// acknowledged. Duplicate acks (`cum <= base`) are ignored —
    /// idempotent by construction.
    fn handle_ack(&mut self, s: NodeId, r: NodeId, cum: u64) {
        let Some(ss) = self.send.get_mut(&(s, r)) else { return };
        if cum <= ss.base {
            return;
        }
        ss.base = cum;
        ss.unacked = ss.unacked.split_off(&cum);
        ss.backoff.reset();
        // Lazy-cancel the live timer; progress re-arms from base backoff.
        ss.timer_epoch += 1;
        ss.timer_armed = false;
        let mut refill: Vec<DataFrame> = Vec::new();
        while ss.unacked.len() + refill.len() < WINDOW {
            let Some(f) = ss.pending.pop_front() else { break };
            refill.push(f);
        }
        for f in &refill {
            ss.unacked.insert(f.seq, f.clone());
        }
        for f in refill {
            self.transmit(s, r, f, false);
        }
        self.arm_if_idle(s, r);
    }

    fn handle_rto(&mut self, s: NodeId, r: NodeId, epoch: u64) {
        let Some(ss) = self.send.get_mut(&(s, r)) else { return };
        if !ss.timer_armed || ss.timer_epoch != epoch {
            return; // lazily cancelled
        }
        ss.timer_armed = false;
        let Some(frame) = ss.unacked.values().next().cloned() else { return };
        self.transmit(s, r, frame, true);
        self.arm_if_idle(s, r); // backoff already doubled by `next()`
    }
}

fn undirected(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::subscription::{StreamProjection, SubId, Subscription};
    use cosmos_net::Topology;
    use cosmos_query::Scalar;

    /// Two brokers, source at n0, one all-pass subscriber at n1.
    fn pipe(plan: FaultPlan) -> LossyNetwork {
        let mut topo = Topology::new(2);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(1))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .build(),
        );
        LossyNetwork::new(net, plan)
    }

    fn msg(i: i64) -> Message {
        Message::new("R", i).with("a", Scalar::Int(i))
    }

    #[test]
    fn backoff_doubles_and_caps_and_resets() {
        let mut b = Backoff::new(100);
        let taken: Vec<u64> = (0..12).map(|_| b.next()).collect();
        assert_eq!(&taken[..4], &[100, 200, 400, 800]);
        assert_eq!(*taken.last().unwrap(), 6400, "bounded at base * 64");
        assert!(taken.windows(2).all(|w| w[1] >= w[0]), "monotone until the cap");
        b.reset();
        assert_eq!(b.next(), 100, "ack progress restarts from the base");
        // A degenerate zero base still ticks forward.
        let mut z = Backoff::new(0);
        assert_eq!(z.next(), 1);
    }

    /// A recovery cycle must not leak pre-crash escalation: while the
    /// peer is down every retransmission doubles the timeout toward the
    /// cap, but the first ack after the peer returns resets the link to
    /// a *fresh* schedule — the post-recovery timeout sequence is
    /// indistinguishable from a brand-new link's.
    #[test]
    fn backoff_resets_to_fresh_schedule_after_recovery() {
        let mut b = Backoff::new(250);
        // Peer down: retransmission timer escalates all the way to cap
        // and stays there however long the outage lasts.
        let escalated: Vec<u64> = (0..10).map(|_| b.next()).collect();
        assert_eq!(*escalated.last().unwrap(), 250 * RTO_CAP_FACTOR);
        assert_eq!(b.next(), 250 * RTO_CAP_FACTOR, "cap is sticky while the peer is down");
        // Peer recovered: the first ack-progress reset restarts the
        // schedule from base, exactly matching a fresh link.
        b.reset();
        let mut fresh = Backoff::new(250);
        let after: Vec<u64> = (0..10).map(|_| b.next()).collect();
        let new_link: Vec<u64> = (0..10).map(|_| fresh.next()).collect();
        assert_eq!(after, new_link, "post-recovery schedule must equal a fresh link's");
        assert_eq!(after[0], 250);
    }

    #[test]
    fn clean_link_delivers_in_order_without_retransmission() {
        let mut lossy = pipe(FaultPlan::clean());
        for i in 0..10 {
            assert!(lossy.publish_lossy(msg(i)));
        }
        lossy.run_to_quiescence();
        let log = lossy.converged_log();
        assert_eq!(log.len(), 10);
        assert!(log.iter().enumerate().all(|(i, d)| d.message.timestamp == i as i64));
        assert_eq!(lossy.retransmissions(), 0);
        assert_eq!(lossy.fault_plan().total_injected(), 0);
        // Goodput equals one crossing per message. All ten arrive within
        // one link delay, so physical adds one cumulative ack.
        let goodput = lossy.goodput_stats();
        assert_eq!(goodput.len(), 1);
        assert_eq!(goodput[0].1.messages, 10);
        assert_eq!(lossy.physical_stats()[0].1.messages, 11);
        assert_eq!(lossy.acks_sent(), 1);
    }

    #[test]
    fn dedup_window_survives_wraparound_under_duplication_and_reorder() {
        // 200 messages through a 32-slot ring: sequence numbers wrap the
        // ring six times while ~a third of transmissions are faulted.
        let cfg = FaultConfig { drop: 0.1, duplicate: 0.15, reorder: 0.1, max_extra_ticks: 1200 };
        let mut lossy = pipe(FaultPlan::new(1234, cfg));
        for i in 0..200 {
            assert!(lossy.publish_lossy(msg(i)));
        }
        lossy.run_to_quiescence();
        let log = lossy.converged_log();
        assert_eq!(log.len(), 200, "exactly once: no loss, no duplicate delivery");
        assert!(log.iter().enumerate().all(|(i, d)| d.message.timestamp == i as i64));
        let goodput = lossy.goodput_stats()[0].1.messages;
        assert_eq!(goodput, 200, "goodput counts each frame once");
        assert!(lossy.retransmissions() > 0, "drops must have forced retransmissions");
        assert!(lossy.fault_plan().total_injected() > 30);
        let phys = lossy.physical_stats()[0].1.messages;
        assert_eq!(phys, goodput + lossy.retransmissions() + lossy.acks_sent());
        assert!(lossy.acks_sent() < goodput, "acks are coalesced over one link delay");
    }

    #[test]
    fn flow_control_queues_past_the_window() {
        // All 200 frames enqueue before the first ack can arrive, so the
        // pending queue must absorb everything beyond WINDOW in flight.
        let mut lossy = pipe(FaultPlan::clean());
        for i in 0..200 {
            lossy.publish_lossy(msg(i));
        }
        let ss = &lossy.send[&(NodeId(0), NodeId(1))];
        assert_eq!(ss.unacked.len(), WINDOW);
        assert_eq!(ss.pending.len(), 200 - WINDOW);
        lossy.run_to_quiescence();
        assert_eq!(lossy.converged_log().len(), 200);
        let ss = &lossy.send[&(NodeId(0), NodeId(1))];
        assert!(ss.unacked.is_empty() && ss.pending.is_empty());
        assert_eq!(ss.base, 200);
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut lossy = pipe(FaultPlan::clean());
        for i in 0..5 {
            lossy.publish_lossy(msg(i));
        }
        lossy.run_to_quiescence();
        let snapshot = |l: &LossyNetwork| {
            let ss = &l.send[&(NodeId(0), NodeId(1))];
            (ss.base, ss.next_seq, ss.unacked.len(), ss.timer_armed)
        };
        let before = snapshot(&lossy);
        assert_eq!(before.0, 5);
        // Replay stale and duplicate cumulative acks straight into the
        // sender: none may move state, rearm timers, or panic.
        for stale in [0, 3, 5, 5] {
            lossy.handle_ack(NodeId(0), NodeId(1), stale);
        }
        assert!(lossy.clock.is_empty(), "no timer rearmed by duplicate acks");
        assert_eq!(snapshot(&lossy), before);
        // The link still works afterwards.
        lossy.publish_lossy(msg(99));
        lossy.run_to_quiescence();
        assert_eq!(lossy.converged_log().len(), 6);
    }

    #[test]
    fn arrivals_at_two_ticks_get_two_acks() {
        // WINDOW frames arrive together; the last one waits in `pending`
        // until their ack returns, so it arrives three link delays after
        // them, well past the first ack's wait.
        let mut lossy = pipe(FaultPlan::clean());
        for i in 0..=WINDOW as i64 {
            lossy.publish_lossy(msg(i));
        }
        lossy.run_to_quiescence();
        assert_eq!(lossy.converged_log().len(), WINDOW + 1);
        assert_eq!(lossy.acks_sent(), 2);
        assert_eq!(lossy.physical_stats()[0].1.messages, WINDOW as u64 + 1 + 2);
    }

    #[test]
    fn stale_duplicate_alone_in_its_tick_is_acked() {
        // The receiver's only ack is lost in flight, so the sender's timer
        // retransmits a frame the receiver already accepted. That stale
        // duplicate moves no cumulative point, but it must still be acked,
        // or the sender would retransmit forever.
        let mut lossy = pipe(FaultPlan::clean());
        lossy.publish_lossy(msg(0));
        let mut lost = false;
        while let Some((_, ev)) = lossy.clock.pop() {
            match ev {
                Event::Ack { .. } if !lost => lost = true,
                ev => lossy.dispatch(ev),
            }
        }
        assert!(lost);
        assert_eq!(lossy.retransmissions(), 1);
        assert_eq!(lossy.acks_sent(), 2, "the retransmission is acked");
        assert_eq!(lossy.converged_log().len(), 1, "and not delivered twice");
        let ss = &lossy.send[&(NodeId(0), NodeId(1))];
        assert!(ss.unacked.is_empty());
        assert_eq!(ss.base, 1);
    }

    /// Pops the first `n` events, which a fresh burst's data frames are,
    /// so a test can deliver them in its own order.
    fn take_frames(lossy: &mut LossyNetwork, n: usize) -> Vec<DataFrame> {
        (0..n)
            .map(|_| match lossy.clock.pop() {
                Some((_, Event::Data { frame, .. })) => frame,
                _ => panic!("a burst's frames are the first events due"),
            })
            .collect()
    }

    fn data(frame: &DataFrame) -> Event {
        Event::Data { from: NodeId(0), to: NodeId(1), frame: frame.clone() }
    }

    /// Dispatches events up to and including the next ack-due event.
    fn until_ack_due(lossy: &mut LossyNetwork) {
        while let Some((_, ev)) = lossy.clock.pop() {
            let due = matches!(ev, Event::AckDue { .. });
            lossy.dispatch(ev);
            if due {
                return;
            }
        }
        panic!("no ack-due event was queued");
    }

    /// Frames 0, 1 and 2 in flight: 0 arrives and is acked, then 2
    /// arrives behind the gap 1 leaves and its ack-due event fires.
    fn gap_behind_the_acked_point() -> (LossyNetwork, Vec<DataFrame>) {
        let mut lossy = pipe(FaultPlan::clean());
        for i in 0..3 {
            lossy.publish_lossy(msg(i));
        }
        let frames = take_frames(&mut lossy, 3);
        lossy.dispatch(data(&frames[0]));
        until_ack_due(&mut lossy);
        assert_eq!(lossy.acks_sent(), 1, "moving the cumulative point to 1 is news");
        lossy.dispatch(data(&frames[2]));
        until_ack_due(&mut lossy);
        (lossy, frames)
    }

    #[test]
    fn out_of_order_arrival_behind_a_gap_sends_no_ack() {
        let (mut lossy, _) = gap_behind_the_acked_point();
        assert_eq!(lossy.acks_sent(), 1, "repeating point 1 would tell the sender nothing");
        assert_eq!(lossy.physical_stats()[0].1.messages, 3 + 1, "and nothing is charged");
        // The sender's timer resends frame 1, which fills the gap.
        lossy.run_to_quiescence();
        assert_eq!(lossy.retransmissions(), 1);
        assert_eq!(lossy.acks_sent(), 2);
        let log = lossy.converged_log();
        assert!(log.iter().map(|d| d.message.timestamp).eq(0..3));
        assert_eq!(lossy.frames_in_flight(), 0);
    }

    #[test]
    fn stale_duplicate_after_the_ack_sends_exactly_one_ack() {
        let (mut lossy, frames) = gap_behind_the_acked_point();
        // Frame 0 twice more, within one wait: both stale duplicates.
        lossy.dispatch(data(&frames[0]));
        lossy.dispatch(data(&frames[0]));
        until_ack_due(&mut lossy);
        assert_eq!(lossy.acks_sent(), 2, "the duplicates are answered by one ack");
        lossy.run_to_quiescence();
        assert_eq!(lossy.acks_sent(), 3, "and the timer's gap fill by one more");
        assert_eq!(lossy.converged_log().len(), 3, "nothing is delivered twice");
        assert_eq!(lossy.frames_in_flight(), 0);
    }

    #[test]
    fn arrivals_within_one_link_delay_share_one_ack() {
        // Frame 1 arrives half a link delay after frame 0, in a later
        // tick but before frame 0's ack is due.
        let mut lossy = pipe(FaultPlan::clean());
        lossy.publish_lossy(msg(0));
        lossy.publish_lossy(msg(1));
        let frames = take_frames(&mut lossy, 2);
        lossy.dispatch(data(&frames[0]));
        let half = lossy.link_delay(NodeId(0), NodeId(1)) / 2;
        lossy.clock.schedule_in(half, data(&frames[1]));
        lossy.run_to_quiescence();
        assert_eq!(lossy.acks_sent(), 1);
        assert_eq!(lossy.retransmissions(), 0, "the shared ack still beats the timer");
        assert!(lossy.converged_log().iter().map(|d| d.message.timestamp).eq(0..2));
        assert_eq!(lossy.frames_in_flight(), 0);
    }

    #[test]
    fn link_converges_when_a_waves_final_ack_is_lost() {
        // Two waves: WINDOW frames, then the one `pending` held back. The
        // ack closing the second wave is lost, so the timer resends frame
        // WINDOW, now a stale duplicate, and that ack closes the link.
        let mut lossy = pipe(FaultPlan::clean());
        for i in 0..=WINDOW as i64 {
            lossy.publish_lossy(msg(i));
        }
        let mut acks = 0;
        while let Some((_, ev)) = lossy.clock.pop() {
            if matches!(ev, Event::Ack { .. }) {
                acks += 1;
                if acks == 2 {
                    continue;
                }
            }
            lossy.dispatch(ev);
        }
        assert_eq!(acks, 3);
        assert_eq!(lossy.acks_sent(), 3);
        assert_eq!(lossy.retransmissions(), 1);
        assert_eq!(lossy.converged_log().len(), WINDOW + 1);
        assert_eq!(lossy.frames_in_flight(), 0);
        assert_eq!(lossy.send[&(NodeId(0), NodeId(1))].base, WINDOW as u64 + 1);
    }

    #[test]
    fn in_window_duplicate_sharing_a_tick_adds_no_ack() {
        // Frames 0 and 1 reach the receiver in one tick as 1, 1, 0: the
        // second 1 lands in an occupied slot of the window, then 0 drains
        // both. One ack covers all three arrivals.
        let mut lossy = pipe(FaultPlan::clean());
        lossy.publish_lossy(msg(0));
        lossy.publish_lossy(msg(1));
        let frames = take_frames(&mut lossy, 2);
        for f in [&frames[1], &frames[1], &frames[0]] {
            lossy.dispatch(data(f));
        }
        lossy.run_to_quiescence();
        assert_eq!(lossy.acks_sent(), 1);
        let log = lossy.converged_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().enumerate().all(|(i, d)| d.message.timestamp == i as i64));
        assert!(lossy.send[&(NodeId(0), NodeId(1))].unacked.is_empty());
    }

    #[test]
    fn lost_acks_recover_via_reack_of_duplicates() {
        // Heavy ack loss: data mostly gets through, acks often do not;
        // retransmitted frames hit the dedup window and are re-acked.
        let cfg = FaultConfig { drop: 0.3, duplicate: 0.0, reorder: 0.0, max_extra_ticks: 0 };
        let mut lossy = pipe(FaultPlan::new(7, cfg));
        for i in 0..60 {
            lossy.publish_lossy(msg(i));
        }
        lossy.run_to_quiescence();
        assert_eq!(lossy.converged_log().len(), 60);
        assert!(lossy.retransmissions() > 0);
    }

    #[test]
    fn churn_is_rejected_while_traffic_is_in_flight() {
        let mut lossy = pipe(FaultPlan::clean());
        lossy.publish_lossy(msg(0));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lossy.network_mut();
        }));
        assert!(poisoned.is_err(), "network_mut must insist on quiescence");
        lossy.run_to_quiescence();
        lossy.network_mut().unsubscribe(SubId(1)); // quiescent: fine
    }
}

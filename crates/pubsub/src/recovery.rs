//! Engine crash recovery over the broker overlay: the network side of
//! upstream backup.
//!
//! The paper pushes query operators onto brokers, so
//! [`BrokerNetwork::fail_node`] destroys operator state along with routing
//! state. The routing side heals incrementally. The operator side's
//! protocol — retain every input until a checkpoint acknowledges it,
//! restore the last checkpoint after a crash, replay the retained suffix
//! and verify the outputs the crash-free run already emitted — is
//! [`ReplayHost`] in `cosmos-engine::checkpoint`, written once for every
//! engine. This module hosts one [`ReplayHost`] per engine-hosting broker
//! and keeps only what the network adds:
//!
//! - **The feed**: one subscription over the host's input streams, each
//!   filtered by the cover of the hosted selections on it
//!   ([`covering_selection`]: a record passes when some hosted relation
//!   reading the stream could accept it), so the brokers drop what no
//!   hosted query can use as early as the paper's Pub/Sub filters. The
//!   engine's input sequence is *every record its feed admits, in publish
//!   order* (each query still applies its exact selection in-engine, so
//!   its outputs are those of an engine fed every record of its streams),
//!   retained at publish — crashed hosts included, since records published
//!   during downtime are exactly the ones only the replay log can still
//!   deliver — and fed to live engines once the message plane settles. Under
//!   `debug_assertions` the feed is cross-checked against the reliable
//!   plane's exactly-once converged deliveries for the host's
//!   subscription, tying replay to the same seq/path-key machinery the
//!   chaos suite trusts.
//! - **Broker crash and restore**: [`RecoveryNetwork::crash_host`] tears
//!   the node out of the overlay and keeps its incident edges;
//!   [`RecoveryNetwork::restore_host`] rejoins it over the saved edges
//!   (filtered to live endpoints) and re-installs its subscription. The
//!   network records the crash order and answers which live host may crash
//!   ([`RecoveryNetwork::killable`]: the surviving nodes stay connected).
//! - **The checkpoint clock**: one next-checkpoint tick per host (`None`
//!   while the host is crashed), paced by the reliable plane's simulated
//!   clock ([`LossyNetwork::now`]). A settle that reaches the tick
//!   checkpoints the host and moves the tick past the clock by whole
//!   intervals; a restore re-arms it one interval out.

use crate::broker::BrokerNetwork;
use crate::reliable::LossyNetwork;
use crate::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_engine::checkpoint::ReplayHost;
use cosmos_engine::exec::{EngineStats, ResultTuple, StreamEngine};
use cosmos_net::NodeId;
use cosmos_query::containment::{covering_selection, stream_selection};
use cosmos_query::{Query, QueryId, RelationRef};
use std::collections::BTreeMap;

/// Engine-host subscriptions get ids far above any test population.
const RECOVERY_SUB_BASE: u64 = u64::MAX / 2;

/// One broker node hosting a stream engine.
#[derive(Debug)]
struct EngineHost {
    /// The feed: every input stream, filtered by the cover of the hosted
    /// selections on it; re-installed on restore (`fail_node` tears it
    /// down with the broker).
    sub: Subscription,
    backup: ReplayHost<StreamEngine>,
    /// Incident edges saved by `fail_node`, replayed by `restore_node`.
    saved_edges: Vec<(NodeId, f64)>,
    /// Tick of the next scheduled checkpoint; `None` while crashed.
    next_checkpoint: Option<u64>,
    /// Records published while the host was up, in publish order — the
    /// exactly-once deliveries its subscription must converge to.
    #[cfg(debug_assertions)]
    expected: Vec<Message>,
}

/// A [`LossyNetwork`] hosting checkpointed engines at broker nodes, with
/// upstream-backup replay across [`RecoveryNetwork::crash_host`] /
/// [`RecoveryNetwork::restore_host`] cycles.
///
/// Driving pattern: [`RecoveryNetwork::publish`] batches, then
/// [`RecoveryNetwork::settle`] (drain the message plane, feed engines,
/// fire due checkpoints). Crash and restore settle internally, so hosts
/// only ever fail at quiescence — the same discipline
/// [`LossyNetwork::network_mut`] enforces for routing churn.
#[derive(Debug)]
pub struct RecoveryNetwork {
    lossy: LossyNetwork,
    hosts: BTreeMap<NodeId, EngineHost>,
    /// Crashed hosts, most recent crash last.
    crashed: Vec<NodeId>,
    /// Ticks between checkpoints of one host.
    interval: u64,
}

impl RecoveryNetwork {
    /// Wraps `lossy`, checkpointing every hosted engine each `interval`
    /// simulated ticks.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn new(lossy: LossyNetwork, interval: u64) -> Self {
        assert!(interval > 0, "a zero checkpoint interval would truncate nothing ever gained");
        Self { lossy, hosts: BTreeMap::new(), crashed: Vec::new(), interval }
    }

    /// Hosts a [`StreamEngine`] running `queries` at broker `node`: one
    /// subscription over the queries' input streams, each filtered by the
    /// [`covering_selection`] of every hosted relation's selection on it,
    /// feeds it in publish order every record some hosted query can
    /// accept, and its first checkpoint is scheduled one interval out.
    ///
    /// # Panics
    ///
    /// Panics if `node` already hosts an engine or `queries` is empty.
    pub fn host_engine(&mut self, node: NodeId, queries: Vec<(QueryId, Query)>) {
        assert!(!self.hosts.contains_key(&node), "node {node} already hosts an engine");
        // The hosted relations grouped by stream (a stable sort keeps each
        // stream's readers in hosting order); each stream's cover renames
        // its readers' selections only until one reader has none.
        let mut readers: Vec<(&Query, &RelationRef)> =
            queries.iter().flat_map(|(_, q)| q.relations.iter().map(move |rel| (q, rel))).collect();
        readers.sort_by_key(|(_, rel)| rel.stream);
        assert!(!readers.is_empty(), "an engine host needs at least one input stream");
        let mut builder = Subscription::builder(node).id(SubId(RECOVERY_SUB_BASE + node.0 as u64));
        for rels in readers.chunk_by(|(_, a), (_, b)| a.stream == b.stream) {
            let cover = covering_selection(rels.iter().map(|&(q, rel)| stream_selection(q, rel)));
            builder = builder.stream(rels[0].1.stream, StreamProjection::All, cover);
        }
        let sub = builder.build();
        self.lossy.network_mut().subscribe(sub.clone());
        let host = EngineHost {
            sub,
            backup: ReplayHost::new(queries),
            saved_edges: Vec::new(),
            next_checkpoint: Some(self.lossy.now() + self.interval),
            #[cfg(debug_assertions)]
            expected: Vec::new(),
        };
        self.hosts.insert(node, host);
    }

    /// Publishes one record: retained toward every hosted engine whose
    /// subscription matches (crashed hosts included), then injected into
    /// the lossy plane. Returns `false` for an unadvertised stream
    /// (nothing retained).
    ///
    /// # Panics
    ///
    /// Panics if a matching host *is* the stream's source broker:
    /// upstream backup requires the upstream to outlive the downstream's
    /// crash.
    pub fn publish(&mut self, msg: Message) -> bool {
        let Some(src) = self.lossy.network().source_of_symbol(msg.stream) else {
            return false;
        };
        for (&node, host) in &mut self.hosts {
            if !host.sub.matches(&msg) {
                continue;
            }
            assert_ne!(
                src, node,
                "upstream backup requires the upstream to outlive the engine host \
                 (stream sourced at the host itself)"
            );
            #[cfg(debug_assertions)]
            if host.backup.is_up() {
                host.expected.push(msg.clone());
            }
            host.backup.retain(msg.clone());
        }
        let injected = self.lossy.publish_lossy(msg);
        assert!(injected, "source resolved, so the publish must inject");
        true
    }

    /// Drains the message plane to quiescence, feeds every live engine
    /// its unconsumed input suffix, and checkpoints every host whose
    /// next-checkpoint tick the clock has reached. A checkpoint that
    /// fired leaves nothing for a second one at the same watermark, so
    /// the tick moves past the clock by whole intervals.
    pub fn settle(&mut self) {
        self.lossy.run_to_quiescence();
        let now = self.lossy.now();
        for host in self.hosts.values_mut() {
            host.backup.feed();
            if let Some(due) = host.next_checkpoint.as_mut().filter(|due| **due <= now) {
                host.backup.checkpoint();
                *due += ((now - *due) / self.interval + 1) * self.interval;
            }
        }
        #[cfg(debug_assertions)]
        self.check_feed_matches_deliveries();
    }

    /// Checkpoints `node`'s engine immediately (outside the schedule):
    /// extracts state, advances the ack watermark, truncates the
    /// upstream replay log.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine or is crashed.
    pub fn checkpoint_now(&mut self, node: NodeId) {
        self.hosts.get_mut(&node).expect("unknown engine host").backup.checkpoint();
    }

    /// Crashes the broker at `node`: settles first (failures happen at
    /// quiescence, like all routing churn), then drops its engine and
    /// tears the node out of the overlay. The output log survives — it
    /// models results the rest of the system already consumed.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine or is already down.
    pub fn crash_host(&mut self, node: NodeId) {
        self.settle();
        let host = self.hosts.get_mut(&node).expect("unknown engine host");
        host.backup.crash();
        host.next_checkpoint = None;
        host.saved_edges =
            self.lossy.network_mut().fail_node(node).expect("crashing a live broker node");
        self.crashed.push(node);
        debug_assert_eq!(self.lossy.network().check_ledger_consistency(), Ok(()));
    }

    /// Restores the broker at `node`: restores the last checkpoint into a
    /// freshly built engine and replays the retained suffix `[watermark,
    /// now)` — verifying pre-crash outputs bit-for-bit, emitting the rest
    /// — then rejoins the overlay over the saved edge batch (filtered to
    /// surviving endpoints) and re-installs the subscription.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine, is already up, or replay
    /// diverges from the pre-crash output log.
    pub fn restore_host(&mut self, node: NodeId) {
        self.settle();
        let host = self.hosts.get_mut(&node).expect("unknown engine host");
        host.backup.restore();
        host.next_checkpoint = Some(self.lossy.now() + self.interval);
        self.crashed.retain(|&n| n != node);
        // Skip edges whose far endpoint is itself a crashed host — the
        // link returns when the later-crashing side (whose batch recorded
        // it) restores. Topology degree cannot decide this: a leaf
        // stranded behind the crash is also isolated, yet its link must
        // return now. Same semantics as the chaos suite: a link is lost
        // for good only if both endpoints sat crashed at once and the
        // recording side restored first.
        let edges: Vec<(NodeId, f64)> =
            host.saved_edges.iter().copied().filter(|(m, _)| !self.crashed.contains(m)).collect();
        assert!(
            self.lossy.network_mut().restore_node(node, &edges),
            "restore_node must accept the filtered edge batch"
        );
        self.lossy.network_mut().subscribe(host.sub.clone());
        debug_assert_eq!(self.lossy.network().check_ledger_consistency(), Ok(()));
    }

    /// Hosts whose engines are down, most recent crash last.
    pub fn crashed(&self) -> &[NodeId] {
        &self.crashed
    }

    /// Live hosts, ascending, whose crash would keep every surviving node
    /// in one connected component — the overlay can then still route
    /// every publish to every live engine, so recovery converges.
    pub fn killable(&self) -> Vec<NodeId> {
        let topo = self.network().topology();
        self.host_nodes()
            .filter(|&victim| self.is_up(victim))
            .filter(|&victim| {
                // Mark the dead, then everything reachable from the first
                // survivor: every node must end up marked.
                let mut marked = vec![false; topo.node_count()];
                for &d in self.crashed.iter().chain([&victim]) {
                    marked[d.0 as usize] = true;
                }
                let Some(start) = marked.iter().position(|&m| !m) else { return false };
                marked[start] = true;
                let mut stack = vec![NodeId(start as u32)];
                while let Some(u) = stack.pop() {
                    for (v, _) in topo.neighbors(u) {
                        if !std::mem::replace(&mut marked[v.0 as usize], true) {
                            stack.push(v);
                        }
                    }
                }
                marked.iter().all(|&m| m)
            })
            .collect()
    }

    /// Cross-checks the engine feed against the reliable plane: records
    /// published while the host was up must equal, bit-for-bit and in
    /// publish order, the exactly-once converged deliveries of the
    /// host's subscription.
    #[cfg(debug_assertions)]
    fn check_feed_matches_deliveries(&self) {
        let log = self.lossy.converged_log();
        for (&node, host) in &self.hosts {
            let delivered: Vec<&Message> = log
                .iter()
                .filter(|d| d.sub == host.sub.id && d.node == node)
                .map(|d| &d.message)
                .collect();
            assert_eq!(
                delivered.len(),
                host.expected.len(),
                "host {node} subscription must see each up-time publish exactly once"
            );
            for (d, e) in delivered.iter().zip(&host.expected) {
                assert_eq!(*d, e, "delivered record diverged from the published one");
            }
        }
    }

    fn host(&self, node: NodeId) -> &EngineHost {
        self.hosts.get(&node).expect("unknown engine host")
    }

    /// Results emitted by `node`'s engine over its lifetime, in input
    /// order — the artifact the differential suites compare bit-for-bit
    /// against a crash-free twin.
    pub fn output_log(&self, node: NodeId) -> &[ResultTuple] {
        self.host(node).backup.outputs()
    }

    /// The subscription feeding `node`'s engine: what it admits is the
    /// engine's input sequence.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine.
    pub fn feed(&self, node: NodeId) -> &Subscription {
        &self.host(node).sub
    }

    /// Execution counters of `node`'s engine.
    ///
    /// # Panics
    ///
    /// Panics while the host is crashed.
    pub fn engine_stats(&self, node: NodeId) -> EngineStats {
        self.host(node).backup.stats()
    }

    /// `true` while `node`'s engine is live.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.hosts.get(&node).is_some_and(|h| h.backup.is_up())
    }

    /// The watermark acknowledged upstream by `node`'s last checkpoint.
    pub fn acked_watermark(&self, node: NodeId) -> u64 {
        self.host(node).backup.acked()
    }

    /// Records retained upstream for `node`: exactly its unacked inputs.
    pub fn retained(&self, node: NodeId) -> usize {
        self.host(node).backup.retained()
    }

    /// Hosted engine nodes, ascending.
    pub fn host_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hosts.keys().copied()
    }

    /// The wrapped reliable plane, read-only.
    pub fn lossy(&self) -> &LossyNetwork {
        &self.lossy
    }

    /// The wrapped broker network, read-only (ledger checks, logs).
    pub fn network(&self) -> &BrokerNetwork {
        self.lossy.network()
    }

    /// The wrapped broker network for *non-host* churn (subscriber
    /// arrivals/departures, link flaps elsewhere in the overlay). Host
    /// crash/restore must go through [`RecoveryNetwork::crash_host`] /
    /// [`RecoveryNetwork::restore_host`] so replay bookkeeping stays
    /// consistent.
    ///
    /// # Panics
    ///
    /// Panics while traffic is in flight (see
    /// [`LossyNetwork::network_mut`]).
    pub fn network_mut(&mut self) -> &mut BrokerNetwork {
        self.lossy.network_mut()
    }

    /// Clears delivery and traffic accounting on the reliable plane (and
    /// the debug feed cross-check history). Replay logs, checkpoints, and
    /// output logs are recovery state, not accounting — they survive.
    pub fn reset_stats(&mut self) {
        self.lossy.reset_stats();
        #[cfg(debug_assertions)]
        for host in self.hosts.values_mut() {
            host.expected.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use cosmos_net::Topology;
    use cosmos_query::{parse_query, Scalar};

    /// A 4-node line: source 0 — transit 1 — host 2 — subscriber 3.
    /// Streams R and S both source at node 0.
    fn line_net(plan: FaultPlan) -> LossyNetwork {
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(2), NodeId(3), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.advertise("S", NodeId(0));
        net.subscribe(
            Subscription::builder(NodeId(3))
                .id(SubId(1))
                .stream("R", StreamProjection::All, vec![])
                .build(),
        );
        LossyNetwork::new(net, plan)
    }

    const JOIN: &str = "SELECT * FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k";

    fn rec(plan: FaultPlan, interval: u64) -> RecoveryNetwork {
        let mut r = RecoveryNetwork::new(line_net(plan), interval);
        r.host_engine(NodeId(2), vec![(QueryId(1), parse_query(JOIN).unwrap())]);
        r
    }

    fn msg(stream: &str, ts: i64, k: i64) -> Message {
        Message::new(stream, ts).with("k", Scalar::Int(k))
    }

    /// Crash-free twin: the same records through a bare engine.
    fn twin() -> StreamEngine {
        let mut e = StreamEngine::new();
        e.add_query(QueryId(1), parse_query(JOIN).unwrap());
        e
    }

    #[test]
    fn outputs_match_twin_without_crashes() {
        let mut r = rec(FaultPlan::clean(), 1_000);
        let mut t = twin();
        let mut expect = Vec::new();
        for i in 0..30i64 {
            let m = msg(if i % 3 == 2 { "S" } else { "R" }, i * 100, i % 4);
            assert!(r.publish(m.clone()));
            expect.extend(t.push(m));
        }
        r.settle();
        assert_eq!(r.output_log(NodeId(2)), &expect[..]);
        assert_eq!(r.engine_stats(NodeId(2)), t.total_stats());
    }

    #[test]
    fn checkpoint_truncates_replay_logs() {
        let mut r = rec(FaultPlan::clean(), 1_000);
        for i in 0..10i64 {
            r.publish(msg("R", i, 0));
        }
        r.settle();
        assert_eq!(r.retained(NodeId(2)), 10, "nothing acked yet");
        r.checkpoint_now(NodeId(2));
        assert_eq!(r.retained(NodeId(2)), 0, "ack at watermark 10 truncates everything");
        assert_eq!(r.acked_watermark(NodeId(2)), 10);
    }

    #[test]
    fn scheduled_checkpoints_fire_on_simulated_time() {
        // Interval 1: any settled batch advances the clock past the next
        // due tick, so the schedule acks every batch.
        let mut r = rec(FaultPlan::clean(), 1);
        r.publish(msg("R", 0, 0));
        r.settle();
        assert_eq!(r.acked_watermark(NodeId(2)), 1);
        r.publish(msg("R", 1, 0));
        r.publish(msg("R", 2, 1));
        r.settle();
        assert_eq!(r.acked_watermark(NodeId(2)), 3);
        assert_eq!(r.retained(NodeId(2)), 0);
    }

    /// Pins the checkpoint clock: `(plane tick, acked watermark)` after
    /// every settle, with a crash / restore pair in between, at an
    /// interval longer than one settle (1 000 ticks; the first 3 000 row
    /// fires on a due tick equal to the plane's) and at one shorter (250,
    /// where one settle passes several due ticks).
    ///
    /// The plane's tick at quiescence is the due tick of the last event
    /// popped, a lazily cancelled retransmission timer: four link delays
    /// after it was last armed. The receiver acks the arrivals of one link
    /// delay once, one delay after the first of them, so a burst of
    /// several frames on one link is acked whole and the ack returns three
    /// link delays after the send, before the timer. That leaves only the
    /// timer its send armed. An ack per frame would have each partial ack
    /// re-arm it two link delays later, ending a multi-frame settle up to
    /// 200 ticks later (the second row would read 1 300).
    ///
    /// The sequence does not depend on how the schedule is kept. A
    /// restore arms `now + interval` on the plane's clock, which is never
    /// behind the last due tick fired (only due ticks at or before the
    /// plane's clock fire), and a fired checkpoint re-arms `due +
    /// interval` with a positive interval. So every re-schedule lands
    /// after an event queue's own `now`, its clamp never applies, and per
    /// host an epoch-cancelled event queue and one next-due tick (none
    /// while crashed) fire the same checkpoints.
    #[test]
    fn checkpoint_clock_is_pinned_across_crash_and_restore() {
        let expected: [(u64, [(u64, u64); 14]); 2] = [
            (
                1_000,
                [
                    (600, 0),
                    (1200, 3),
                    (1800, 3),
                    (2400, 7),
                    (3000, 8),
                    (3000, 8),
                    (3000, 8),
                    (3000, 8),
                    (3500, 8),
                    (4100, 13),
                    (4700, 13),
                    (5300, 16),
                    (5900, 16),
                    (6400, 18),
                ],
            ),
            (
                250,
                [
                    (600, 1),
                    (1200, 3),
                    (1800, 4),
                    (2400, 7),
                    (3000, 8),
                    (3000, 8),
                    (3000, 8),
                    (3000, 8),
                    (3500, 12),
                    (4100, 13),
                    (4700, 15),
                    (5300, 16),
                    (5900, 17),
                    (6400, 18),
                ],
            ),
        ];
        for (interval, expected) in expected {
            let mut r = rec(FaultPlan::clean(), interval);
            let mut seen = Vec::new();
            let mut ts = 0i64;
            let mut step = |r: &mut RecoveryNetwork, n: usize, seen: &mut Vec<(u64, u64)>| {
                for _ in 0..n {
                    ts += 100;
                    r.publish(msg(if ts % 300 == 0 { "S" } else { "R" }, ts, ts % 4));
                }
                r.settle();
                seen.push((r.lossy().now(), r.acked_watermark(NodeId(2))));
            };
            for n in [1, 2, 1, 3, 1] {
                step(&mut r, n, &mut seen);
            }
            r.crash_host(NodeId(2));
            for n in [2, 1] {
                step(&mut r, n, &mut seen);
            }
            r.restore_host(NodeId(2));
            seen.push((r.lossy().now(), r.acked_watermark(NodeId(2))));
            for n in [1, 1, 2, 1, 1, 1] {
                step(&mut r, n, &mut seen);
            }
            assert_eq!(seen, expected, "interval {interval}");
        }
    }

    #[test]
    fn crash_restore_converges_bit_for_bit() {
        // Effectively-infinite interval: only the explicit checkpoint below
        // acks, so the retention bound stays observable across the crash.
        let mut r = rec(FaultPlan::clean(), u64::MAX / 2);
        let mut t = twin();
        let mut expect = Vec::new();
        let feed = |r: &mut RecoveryNetwork, lo: i64, hi: i64| {
            let mut out = Vec::new();
            for i in lo..hi {
                let m = msg(if i % 3 == 2 { "S" } else { "R" }, i * 100, i % 4);
                assert!(r.publish(m.clone()));
                out.push(m);
            }
            out
        };
        for m in feed(&mut r, 0, 20) {
            expect.extend(t.push(m));
        }
        r.settle();
        r.checkpoint_now(NodeId(2));
        // Post-checkpoint traffic sits unacked in the replay logs.
        for m in feed(&mut r, 20, 30) {
            expect.extend(t.push(m));
        }
        r.settle();
        assert_eq!(r.retained(NodeId(2)), 10);
        r.crash_host(NodeId(2));
        assert!(!r.is_up(NodeId(2)));
        // Published while down: only the replay log still has these.
        for m in feed(&mut r, 30, 40) {
            expect.extend(t.push(m));
        }
        r.settle();
        r.restore_host(NodeId(2));
        assert_eq!(r.output_log(NodeId(2)), &expect[..]);
        assert_eq!(r.engine_stats(NodeId(2)), t.total_stats());
        // The plane still runs and stays converged afterwards.
        for m in feed(&mut r, 40, 50) {
            expect.extend(t.push(m));
        }
        r.settle();
        assert_eq!(r.output_log(NodeId(2)), &expect[..]);
        // The unrelated subscriber at node 3 gets exactly-once R
        // deliveries for every publish made while its path existed. The
        // downtime window (node 2 carried its only path, and plain
        // subscribers have no upstream backup) is legitimately lost —
        // only the hosted engine recovers those via replay.
        let n3: usize = r.lossy().converged_log().iter().filter(|d| d.sub == SubId(1)).count();
        let published_r = (0..50).filter(|i| i % 3 != 2 && !(30..40).contains(i)).count();
        assert_eq!(n3, published_r);
    }

    #[test]
    fn crash_before_first_checkpoint_replays_from_zero() {
        let mut r = rec(FaultPlan::clean(), u64::MAX / 2);
        let mut t = twin();
        let mut expect = Vec::new();
        for i in 0..15i64 {
            let m = msg(if i % 2 == 0 { "R" } else { "S" }, i * 100, i % 3);
            r.publish(m.clone());
            expect.extend(t.push(m));
        }
        r.settle();
        r.crash_host(NodeId(2));
        r.restore_host(NodeId(2));
        assert_eq!(r.output_log(NodeId(2)), &expect[..]);
        assert_eq!(r.engine_stats(NodeId(2)), t.total_stats());
    }

    #[test]
    fn lossy_plane_does_not_disturb_recovery() {
        let cfg = FaultConfig { drop: 0.1, duplicate: 0.1, reorder: 0.1, max_extra_ticks: 500 };
        let mut r = rec(FaultPlan::new(77, cfg), 2_000);
        let mut t = twin();
        let mut expect = Vec::new();
        for i in 0..40i64 {
            let m = msg(if i % 3 == 2 { "S" } else { "R" }, i * 100, i % 4);
            r.publish(m.clone());
            expect.extend(t.push(m));
        }
        r.settle();
        r.crash_host(NodeId(2));
        r.restore_host(NodeId(2));
        assert_eq!(r.output_log(NodeId(2)), &expect[..]);
        assert_eq!(r.engine_stats(NodeId(2)), t.total_stats());
    }

    /// Publishes `n` more records to the recovery network and the
    /// crash-free twin, collecting the twin's outputs.
    fn publish_both(
        r: &mut RecoveryNetwork,
        t: &mut StreamEngine,
        expect: &mut Vec<ResultTuple>,
        next: &mut i64,
        n: i64,
    ) {
        for i in *next..*next + n {
            let m = msg(if i % 3 == 2 { "S" } else { "R" }, i * 100, i % 4);
            assert!(r.publish(m.clone()));
            expect.extend(t.push(m));
        }
        *next += n;
    }

    /// Crash/restore cycles over a lossy plane. After each cycle of
    /// publish, settle, crash, publish, restore and settle: no frame is
    /// left in flight, the host's outputs equal the crash-free twin's,
    /// and the host retains exactly the records published since its last
    /// acknowledged checkpoint. `COSMOS_STRESS=1` runs more cycles. It
    /// reads the variable itself: `cosmos_oracle::trial` depends on this
    /// crate, so a unit test here would see a second copy of its types.
    #[test]
    fn crash_restore_soak_over_a_lossy_plane() {
        let stress = std::env::var("COSMOS_STRESS").is_ok_and(|v| v == "1");
        let cycles = if stress { 200 } else { 4 };
        let host = NodeId(2);
        let mut r = rec(FaultPlan::new(11, FaultConfig::lossy()), 500);
        let (mut t, mut expect, mut published) = (twin(), Vec::new(), 0i64);
        for cycle in 0..cycles {
            publish_both(&mut r, &mut t, &mut expect, &mut published, 6 + cycle % 5);
            r.settle();
            r.crash_host(host);
            publish_both(&mut r, &mut t, &mut expect, &mut published, 3);
            r.restore_host(host);
            r.settle();
            assert_eq!(r.lossy().frames_in_flight(), 0, "frames stranded (cycle {cycle})");
            assert_eq!(r.output_log(host), &expect[..], "outputs diverged (cycle {cycle})");
            assert_eq!(
                r.retained(host) as u64,
                published as u64 - r.acked_watermark(host),
                "retention is not the unacknowledged suffix (cycle {cycle})"
            );
        }
        assert!(r.acked_watermark(host) > 0, "the schedule must have checkpointed");
        assert!(r.lossy().fault_plan().total_injected() > 0, "the plane must have faulted");
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_crash_is_rejected() {
        let mut r = rec(FaultPlan::clean(), 1_000);
        r.crash_host(NodeId(2));
        r.crash_host(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "sourced at the host itself")]
    fn hosting_at_the_source_is_rejected_at_publish() {
        let mut lossy = line_net(FaultPlan::clean());
        lossy.network_mut().advertise("T", NodeId(2));
        let mut r = RecoveryNetwork::new(lossy, 1_000);
        r.host_engine(NodeId(2), vec![(QueryId(1), parse_query("SELECT * FROM T [Now]").unwrap())]);
        r.publish(Message::new("T", 0));
    }
}

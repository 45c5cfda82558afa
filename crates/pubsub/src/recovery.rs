//! Upstream-backup replay: engine crash recovery over the broker overlay.
//!
//! The paper pushes query operators onto brokers, so
//! [`BrokerNetwork::fail_node`] destroys operator state along with routing
//! state. The routing side heals incrementally (PR 7); this module heals
//! the *operator* side by composing three planes:
//!
//! - **Checkpoints** (`cosmos-engine::checkpoint`): each hosted
//!   [`StreamEngine`] periodically extracts its mutable state against a
//!   monotone input watermark, on a simulated-time schedule paced by the
//!   reliable plane's clock ([`LossyNetwork::now`]).
//! - **Upstream backup**: every record forwarded toward a hosted engine is
//!   retained in a replay log *at its upstream source broker* until the
//!   engine's checkpoint watermark acknowledges it. Sequence numbers
//!   start at 0 and the watermark counts consumed inputs, so acking at
//!   watermark `w` truncates everything below `w`: retention is bounded
//!   by the checkpoint interval — never by stream length. The bound —
//!   retained records are exactly the unacked suffix `[w, now)` — is
//!   asserted after every truncation.
//! - **Replay**: on [`RecoveryNetwork::restore_host`], the broker rejoins
//!   the overlay ([`BrokerNetwork::restore_node`]), its subscription is
//!   re-installed, a fresh engine restores the last checkpoint, and the
//!   upstreams replay the retained suffix in input order. Replayed inputs
//!   the crash-free run had already consumed regenerate outputs that were
//!   already emitted downstream; those are *verified bit-for-bit* against
//!   the pre-crash output log instead of re-emitted (output-side dedup),
//!   and inputs published while the host was down — which only the replay
//!   log still has — extend the log. The recovered output log therefore
//!   converges bit-for-bit to the run that never crashed, which the
//!   differential suites pin against a crash-free twin engine.
//!
//! Checkpoint timers cancel lazily across a crash, exactly like the
//! reliable plane's retransmission timers: each scheduled firing carries
//! the host's epoch, a crash bumps the epoch, and stale firings no-op.
//!
//! The engine's input sequence is defined as *every record of its input
//! streams in publish order* (the host subscribes all-pass; selection
//! pushdown happens in-engine). Under `debug_assertions` the feed is
//! cross-checked against the reliable plane's exactly-once converged
//! deliveries for the host's subscription, tying replay to the same
//! seq/path-key machinery the chaos suite trusts.

use crate::broker::BrokerNetwork;
use crate::reliable::LossyNetwork;
use crate::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_engine::checkpoint::StreamCheckpoint;
use cosmos_engine::exec::{EngineStats, ResultTuple, StreamEngine};
use cosmos_net::NodeId;
use cosmos_query::{Query, QueryId};
use cosmos_util::EventQueue;
use std::collections::{BTreeMap, VecDeque};

/// Engine-host subscriptions get ids far above any test population.
const RECOVERY_SUB_BASE: u64 = u64::MAX / 2;

/// One broker node hosting a stream engine.
#[derive(Debug)]
struct EngineHost {
    node: NodeId,
    /// The all-pass subscription feeding the engine; re-installed on
    /// restore (`fail_node` tears it down with the broker).
    sub: Subscription,
    /// Query set in registration order; restore rebuilds the compiled
    /// shape from it before applying the checkpoint.
    queries: Vec<(QueryId, Query)>,
    /// `None` while crashed.
    engine: Option<StreamEngine>,
    /// Incident edges saved by `fail_node`, replayed by `restore_node`.
    saved_edges: Vec<(NodeId, f64)>,
    last_checkpoint: Option<StreamCheckpoint>,
    /// Output-log length when `last_checkpoint` was taken: replay
    /// verification starts here.
    outputs_at_checkpoint: usize,
    /// Per upstream source broker: retained `(seq, record)` replay log,
    /// seq-ordered. Truncated at checkpoint ack.
    replay: BTreeMap<NodeId, VecDeque<(u64, Message)>>,
    /// Next input sequence number to assign (counts every matching
    /// publish, delivered or not).
    next_seq: u64,
    /// Inputs consumed by the live engine (== its watermark).
    consumed: u64,
    /// Watermark acknowledged upstream by the last checkpoint.
    acked: u64,
    /// Inputs consumed when the host last crashed: replay below this mark
    /// verifies outputs instead of emitting them.
    consumed_at_crash: u64,
    /// Verification cursor into `output_log` during replay.
    verify_cursor: usize,
    /// Results emitted downstream over the host's lifetime. Survives the
    /// crash — it models output the rest of the system already saw.
    output_log: Vec<ResultTuple>,
    /// Checkpoint-timer epoch; bumped by crash and restore so stale
    /// scheduled firings cancel lazily.
    epoch: u64,
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
    /// Simulated-time checkpoint schedule: `(host, epoch)` payloads fire
    /// when the message plane's clock passes their due tick.
    sched: EventQueue<(NodeId, u64)>,
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
        Self { lossy, hosts: BTreeMap::new(), sched: EventQueue::new(), interval }
    }

    /// Hosts a [`StreamEngine`] running `queries` at broker `node`: an
    /// all-pass subscription over the queries' input streams feeds it
    /// every record in publish order, and its first checkpoint is
    /// scheduled one interval out.
    ///
    /// # Panics
    ///
    /// Panics if `node` already hosts an engine or `queries` is empty.
    pub fn host_engine(&mut self, node: NodeId, queries: Vec<(QueryId, Query)>) {
        assert!(!self.hosts.contains_key(&node), "node {node} already hosts an engine");
        let mut streams: Vec<String> = queries
            .iter()
            .flat_map(|(_, q)| q.relations.iter().map(|r| r.stream.clone()))
            .collect();
        streams.sort();
        streams.dedup();
        assert!(!streams.is_empty(), "an engine host needs at least one input stream");
        let mut builder = Subscription::builder(node).id(SubId(RECOVERY_SUB_BASE + node.0 as u64));
        for s in &streams {
            builder = builder.stream(s.as_str(), StreamProjection::All, vec![]);
        }
        let sub = builder.build();
        self.lossy.network_mut().subscribe(sub.clone());
        let mut engine = StreamEngine::new();
        for (id, q) in &queries {
            engine.add_query(*id, q.clone());
        }
        self.sched.schedule_at(self.lossy.now() + self.interval, (node, 0));
        self.hosts.insert(
            node,
            EngineHost {
                node,
                sub,
                queries,
                engine: Some(engine),
                saved_edges: Vec::new(),
                last_checkpoint: None,
                outputs_at_checkpoint: 0,
                replay: BTreeMap::new(),
                next_seq: 0,
                consumed: 0,
                acked: 0,
                consumed_at_crash: 0,
                verify_cursor: 0,
                output_log: Vec::new(),
                epoch: 0,
                #[cfg(debug_assertions)]
                expected: Vec::new(),
            },
        );
    }

    /// Publishes one record: retained toward every hosted engine whose
    /// subscription matches (crashed hosts included — records published
    /// during downtime are exactly the ones only the replay log can still
    /// deliver), then injected into the lossy plane. Returns `false` for
    /// an unadvertised stream (nothing retained).
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
        for host in self.hosts.values_mut() {
            if !host.sub.matches(&msg) {
                continue;
            }
            assert_ne!(
                src, host.node,
                "upstream backup requires the upstream to outlive the engine host \
                 (stream sourced at the host itself)"
            );
            let seq = host.next_seq;
            host.next_seq += 1;
            host.replay.entry(src).or_default().push_back((seq, msg.clone()));
            #[cfg(debug_assertions)]
            if host.engine.is_some() {
                host.expected.push(msg.clone());
            }
        }
        let injected = self.lossy.publish_lossy(msg);
        assert!(injected, "source resolved, so the publish must inject");
        true
    }

    /// Drains the message plane to quiescence, feeds every live engine
    /// its unconsumed input suffix, and fires due checkpoints from the
    /// simulated-time schedule.
    pub fn settle(&mut self) {
        self.lossy.run_to_quiescence();
        let nodes: Vec<NodeId> = self.hosts.keys().copied().collect();
        for &n in &nodes {
            self.feed_host(n);
        }
        #[cfg(debug_assertions)]
        self.check_feed_matches_deliveries();
        let now = self.lossy.now();
        while let Some((due, (node, epoch))) = self.sched.pop_due(now) {
            let host = self.hosts.get(&node).expect("scheduled host exists");
            if host.epoch != epoch || host.engine.is_none() {
                continue; // lazily cancelled by a crash/restore cycle
            }
            self.take_checkpoint(node);
            self.sched.schedule_at(due + self.interval, (node, epoch));
        }
    }

    /// Checkpoints `node`'s engine immediately (outside the schedule):
    /// extracts state, advances the ack watermark, truncates the
    /// upstream replay logs.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine or is crashed.
    pub fn checkpoint_now(&mut self, node: NodeId) {
        assert!(self.is_up(node), "cannot checkpoint a crashed host");
        self.take_checkpoint(node);
    }

    /// Crashes the broker at `node`: settles first (failures happen at
    /// quiescence, like all routing churn), then tears the node out of
    /// the overlay and drops its engine. The output log survives — it
    /// models results the rest of the system already consumed.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine or is already down.
    pub fn crash_host(&mut self, node: NodeId) {
        self.settle();
        let host = self.hosts.get_mut(&node).expect("unknown engine host");
        assert!(host.engine.is_some(), "host {node} is already down");
        host.engine = None;
        host.consumed_at_crash = host.consumed;
        host.epoch += 1; // lazily cancel scheduled checkpoints
        let edges = self.lossy.network_mut().fail_node(node).expect("crashing a live broker node");
        self.hosts.get_mut(&node).expect("host exists").saved_edges = edges;
        debug_assert_eq!(self.lossy.network().check_ledger_consistency(), Ok(()));
    }

    /// Restores the broker at `node`: rejoins the overlay over the saved
    /// edge batch (filtered to surviving endpoints), re-installs the
    /// subscription, restores the last checkpoint into a freshly built
    /// engine, and replays the retained suffix `[watermark, now)` —
    /// verifying pre-crash outputs bit-for-bit, emitting the rest.
    ///
    /// # Panics
    ///
    /// Panics if `node` hosts no engine, is already up, or replay
    /// diverges from the pre-crash output log.
    pub fn restore_host(&mut self, node: NodeId) {
        self.settle();
        let host = self.hosts.get(&node).expect("unknown engine host");
        assert!(host.engine.is_none(), "host {node} is already up");
        // Skip edges whose far endpoint is itself a crashed host — the
        // link returns when the later-crashing side (whose batch recorded
        // it) restores. Topology degree cannot decide this: a leaf
        // stranded behind the crash is also isolated, yet its link must
        // return now. Same semantics as the chaos suite: a link is lost
        // for good only if both endpoints sat crashed at once and the
        // recording side restored first.
        let down: Vec<NodeId> = self
            .hosts
            .values()
            .filter(|h| h.engine.is_none() && h.node != node)
            .map(|h| h.node)
            .collect();
        let edges: Vec<(NodeId, f64)> =
            host.saved_edges.iter().copied().filter(|&(m, _)| !down.contains(&m)).collect();
        assert!(
            self.lossy.network_mut().restore_node(node, &edges),
            "restore_node must accept the filtered edge batch"
        );
        let sub = host.sub.clone();
        self.lossy.network_mut().subscribe(sub);
        let host = self.hosts.get_mut(&node).expect("host exists");
        let mut engine = StreamEngine::new();
        for (id, q) in &host.queries {
            engine.add_query(*id, q.clone());
        }
        match &host.last_checkpoint {
            Some(cp) => {
                engine.restore(cp);
                host.consumed = cp.watermark;
                host.verify_cursor = host.outputs_at_checkpoint;
            }
            None => {
                // Crashed before the first checkpoint: replay everything.
                host.consumed = 0;
                host.verify_cursor = 0;
            }
        }
        host.engine = Some(engine);
        host.epoch += 1;
        let epoch = host.epoch;
        debug_assert_eq!(self.lossy.network().check_ledger_consistency(), Ok(()));
        // Upstreams replay the retained suffix immediately; records
        // published during downtime ride the same path.
        self.feed_host(node);
        self.sched.schedule_at(self.lossy.now() + self.interval, (node, epoch));
    }

    /// Feeds `node`'s engine every retained record it has not consumed,
    /// in input-sequence order. Below the crash mark, outputs verify
    /// against the pre-crash log (output dedup); past it, they emit.
    fn feed_host(&mut self, node: NodeId) {
        let host = self.hosts.get_mut(&node).expect("unknown engine host");
        let Some(engine) = host.engine.as_mut() else { return };
        while host.consumed < host.next_seq {
            let seq = host.consumed;
            let record = host
                .replay
                .values()
                .find_map(|log| {
                    let i = log.partition_point(|(s, _)| *s < seq);
                    log.get(i).filter(|(s, _)| *s == seq).map(|(_, m)| m.clone())
                })
                .expect("every unacked input sequence is retained upstream");
            let outputs = engine.push(record);
            host.consumed += 1;
            if host.consumed <= host.consumed_at_crash {
                for out in outputs {
                    assert!(
                        host.verify_cursor < host.output_log.len(),
                        "replay produced more outputs than the pre-crash run"
                    );
                    assert_eq!(
                        host.output_log[host.verify_cursor], out,
                        "replayed output diverged from the pre-crash log"
                    );
                    host.verify_cursor += 1;
                }
                if host.consumed == host.consumed_at_crash {
                    assert_eq!(
                        host.verify_cursor,
                        host.output_log.len(),
                        "replay must regenerate exactly the pre-crash outputs"
                    );
                }
            } else {
                host.output_log.extend(outputs);
            }
        }
        debug_assert_eq!(engine.watermark(), host.consumed);
    }

    /// Extracts a checkpoint of `node`'s engine and truncates the
    /// upstream replay logs at its watermark, asserting the retention
    /// bound: exactly the unacked suffix survives.
    fn take_checkpoint(&mut self, node: NodeId) {
        let host = self.hosts.get_mut(&node).expect("unknown engine host");
        let engine = host.engine.as_ref().expect("checkpointing a live engine");
        let cp = engine.checkpoint();
        assert_eq!(cp.watermark, host.consumed, "the feed loop keeps these in lockstep");
        host.acked = cp.watermark;
        host.outputs_at_checkpoint = host.output_log.len();
        host.last_checkpoint = Some(cp);
        for log in host.replay.values_mut() {
            while log.front().is_some_and(|&(s, _)| s < host.acked) {
                log.pop_front();
            }
        }
        host.replay.retain(|_, log| !log.is_empty());
        let retained: u64 = host.replay.values().map(|l| l.len() as u64).sum();
        assert_eq!(
            retained,
            host.next_seq - host.acked,
            "replay retention must be exactly the unacked suffix"
        );
        assert!(
            host.replay.values().flatten().all(|&(s, _)| s >= host.acked),
            "no retained record may predate the ack watermark"
        );
    }

    /// Cross-checks the engine feed against the reliable plane: records
    /// published while the host was up must equal, bit-for-bit and in
    /// publish order, the exactly-once converged deliveries of the
    /// host's subscription.
    #[cfg(debug_assertions)]
    fn check_feed_matches_deliveries(&self) {
        let log = self.lossy.converged_log();
        for host in self.hosts.values() {
            let delivered: Vec<&Message> = log
                .iter()
                .filter(|d| d.sub == host.sub.id && d.node == host.node)
                .map(|d| &d.message)
                .collect();
            assert_eq!(
                delivered.len(),
                host.expected.len(),
                "host {} subscription must see each up-time publish exactly once",
                host.node
            );
            for (d, e) in delivered.iter().zip(&host.expected) {
                assert_eq!(*d, e, "delivered record diverged from the published one");
            }
        }
    }

    /// Results emitted by `node`'s engine over its lifetime, in input
    /// order — the artifact the differential suites compare bit-for-bit
    /// against a crash-free twin.
    pub fn output_log(&self, node: NodeId) -> &[ResultTuple] {
        &self.hosts.get(&node).expect("unknown engine host").output_log
    }

    /// Execution counters of `node`'s engine.
    ///
    /// # Panics
    ///
    /// Panics while the host is crashed.
    pub fn engine_stats(&self, node: NodeId) -> EngineStats {
        self.hosts
            .get(&node)
            .and_then(|h| h.engine.as_ref())
            .expect("stats of a live engine")
            .total_stats()
    }

    /// `true` while `node`'s engine is live.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.hosts.get(&node).is_some_and(|h| h.engine.is_some())
    }

    /// The watermark acknowledged upstream by `node`'s last checkpoint.
    pub fn acked_watermark(&self, node: NodeId) -> u64 {
        self.hosts.get(&node).expect("unknown engine host").acked
    }

    /// Total records retained upstream for `node` across all sources.
    pub fn retained(&self, node: NodeId) -> usize {
        self.hosts.get(&node).expect("unknown engine host").replay.values().map(|l| l.len()).sum()
    }

    /// Inputs assigned to `node`'s engine so far (consumed or retained).
    pub fn input_seq(&self, node: NodeId) -> u64 {
        self.hosts.get(&node).expect("unknown engine host").next_seq
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

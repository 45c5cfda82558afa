//! Differential testing of the parallel publish plane: N publisher
//! threads matching over a frozen [`RoutingSnapshot`] must produce the
//! same delivery log (contents *and* order) and the same per-link
//! traffic as serial [`BrokerNetwork::publish`] — across random
//! topologies, populations, and message streams, with subscription
//! churn interleaved between snapshot swaps.
//!
//! The suite also drives the snapshot lifecycle under load: publisher
//! workers race a churning writer that commits snapshots mid-stream, and
//! every message must observe **exactly one** committed snapshot — its
//! deliveries equal what a serially built oracle network at that exact
//! churn prefix produces.
//!
//! Set `COSMOS_STRESS=1` to elevate trials, thread counts, and message
//! volume (the CI stress job does).

use cosmos_net::{NodeId, Topology};
use cosmos_pubsub::broker::{BrokerNetwork, Delivery, LinkStats};
use cosmos_pubsub::snapshot::{merge_outputs, ReaderOutput, RoutingSnapshot, SnapshotReader};
use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_query::{AttrRef, CmpOp, Predicate, Scalar};
use cosmos_util::rng::rng_for;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const STREAMS: [&str; 3] = ["A", "B", "C"];
const ATTRS: [&str; 3] = ["a", "b", "c"];
const STRINGS: [&str; 3] = ["x", "y", "z"];
const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

fn stress() -> bool {
    std::env::var("COSMOS_STRESS").is_ok()
}

/// A random connected topology: a spanning tree plus a few extra edges.
fn random_topology(rng: &mut StdRng) -> Topology {
    let n = rng.gen_range(4u32..12);
    let mut topo = Topology::new(n as usize);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        topo.add_edge(NodeId(i), NodeId(j), rng.gen_range(1.0..5.0));
    }
    for _ in 0..rng.gen_range(0..4) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && topo.edge_latency(NodeId(a), NodeId(b)).is_none() {
            topo.add_edge(NodeId(a), NodeId(b), rng.gen_range(1.0..5.0));
        }
    }
    topo
}

fn random_scalar(rng: &mut StdRng) -> Scalar {
    if rng.gen_bool(0.3) {
        Scalar::Float(rng.gen_range(-5.0..45.0))
    } else {
        Scalar::Int(rng.gen_range(-5i64..45))
    }
}

/// A random filter: mostly indexable numeric comparisons, plus the
/// residual classes the frozen matcher must handle identically.
fn random_predicate(rng: &mut StdRng, stream: &str) -> Predicate {
    let roll = rng.gen_range(0u32..10);
    if roll < 7 {
        Predicate::Cmp {
            attr: AttrRef::new(stream, ATTRS[rng.gen_range(0..ATTRS.len())]),
            op: OPS[rng.gen_range(0..OPS.len())],
            value: random_scalar(rng),
        }
    } else if roll < 8 {
        Predicate::Cmp {
            attr: AttrRef::new(stream, "s"),
            op: if rng.gen_bool(0.5) { CmpOp::Eq } else { CmpOp::Ne },
            value: Scalar::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_string()),
        }
    } else if roll < 9 {
        Predicate::Cmp {
            attr: AttrRef::new(stream, "timestamp"),
            op: if rng.gen_bool(0.5) { CmpOp::Ge } else { CmpOp::Lt },
            value: Scalar::Int(rng.gen_range(0i64..60_000)),
        }
    } else {
        let other = STREAMS[rng.gen_range(0..STREAMS.len())];
        Predicate::Cmp {
            attr: AttrRef::new(format!("not-{other}"), "a"),
            op: CmpOp::Gt,
            value: Scalar::Int(0),
        }
    }
}

fn random_projection(rng: &mut StdRng) -> StreamProjection {
    if rng.gen_bool(0.5) {
        StreamProjection::All
    } else {
        let mut attrs: Vec<&str> = Vec::new();
        for a in ATTRS.iter().chain(std::iter::once(&"s")) {
            if rng.gen_bool(0.5) {
                attrs.push(a);
            }
        }
        StreamProjection::attrs(attrs)
    }
}

fn random_sub(rng: &mut StdRng, id: u64, nodes: u32) -> Subscription {
    let mut builder = Subscription::builder(NodeId(rng.gen_range(0..nodes))).id(SubId(id));
    let first = rng.gen_range(0..STREAMS.len());
    let take_second = rng.gen_bool(0.3);
    for (i, stream) in STREAMS.iter().enumerate() {
        if i != first && (!take_second || i != (first + 1) % STREAMS.len()) {
            continue;
        }
        let filters = (0..rng.gen_range(0..4)).map(|_| random_predicate(rng, stream)).collect();
        builder = builder.stream(*stream, random_projection(rng), filters);
    }
    builder.build()
}

fn random_message(rng: &mut StdRng, ts: i64) -> Message {
    let stream =
        if rng.gen_bool(0.9) { STREAMS[rng.gen_range(0..STREAMS.len())] } else { "unadvertised" };
    let mut msg = Message::new(stream, ts);
    for attr in ATTRS {
        if rng.gen_bool(0.75) {
            msg = msg.with(attr, random_scalar(rng));
        }
    }
    if rng.gen_bool(0.5) {
        msg = msg.with("s", Scalar::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_string()));
    }
    msg
}

/// N publisher threads over a frozen snapshot, round-robin over a shared
/// message stream with explicit global orders, merged deterministically —
/// against serial `publish` of the same stream on the same network.
/// Three phases per trial with subscription churn (and a snapshot swap)
/// between them; the merged output is also absorbed back into the broker
/// to pin `absorb`'s log/stats equivalence. Odd workers hand their output
/// over message by message instead of once at the end: the pieces must
/// reassemble to the same log and counters.
#[test]
fn parallel_publish_equals_serial() {
    let trials = if stress() { 48 } else { 24u64 };
    for trial in 0..trials {
        let mut rng = rng_for(trial, "parallel-publish");
        let topo = random_topology(&mut rng);
        let nodes = topo.node_count() as u32;
        let mut net = BrokerNetwork::new(topo);
        for stream in STREAMS {
            net.advertise(stream, NodeId(rng.gen_range(0..nodes)));
        }
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..rng.gen_range(10u64..60) {
            net.subscribe(random_sub(&mut rng, next_id, nodes));
            live.push(next_id);
            next_id += 1;
        }
        let threads: usize = if stress() { 8 } else { [2, 4][(trial % 2) as usize] };
        let mut ts = 0i64;
        for phase in 0..3 {
            let m = rng.gen_range(10usize..40);
            let msgs: Vec<Message> = (0..m)
                .map(|_| {
                    ts += rng.gen_range(1i64..1_000);
                    random_message(&mut rng, ts)
                })
                .collect();
            // Serial reference on the broker itself.
            net.reset_stats();
            for msg in &msgs {
                net.publish(msg.clone());
            }
            let expected_log = net.log().deliveries().to_vec();
            let expected_links = net.all_link_stats();
            // Parallel over the frozen snapshot: thread t takes every
            // t-th message, tagging it with its global stream position.
            let snap = net.snapshot();
            let outputs: Vec<ReaderOutput> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let snap = &snap;
                        let msgs = &msgs;
                        s.spawn(move || {
                            let mut reader = snap.reader();
                            let mut pieces = ReaderOutput::default();
                            for (k, msg) in msgs.iter().enumerate() {
                                if k % threads == t {
                                    reader.publish_at(k as u64, msg.clone());
                                    if t % 2 == 1 {
                                        pieces.merge(reader.take_output());
                                    }
                                }
                            }
                            pieces.merge(reader.take_output());
                            pieces
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let merged = merge_outputs(outputs);
            assert_eq!(
                merged.deliveries().cloned().collect::<Vec<_>>(),
                expected_log,
                "parallel delivery log diverged (trial {trial}, phase {phase})"
            );
            assert_eq!(
                merged.all_link_stats(),
                expected_links,
                "parallel link traffic diverged (trial {trial}, phase {phase})"
            );
            // Absorb round-trip: folding the merged output back into the
            // broker must reproduce the serial log and counters exactly.
            net.reset_stats();
            net.absorb(merged);
            assert_eq!(
                net.log().deliveries(),
                expected_log.as_slice(),
                "absorbed log diverged (trial {trial}, phase {phase})"
            );
            assert_eq!(
                net.all_link_stats(),
                expected_links,
                "absorbed link traffic diverged (trial {trial}, phase {phase})"
            );
            // Churn between phases: the next phase publishes over a
            // freshly committed snapshot.
            for _ in 0..rng.gen_range(1u32..5) {
                if !live.is_empty() && rng.gen_bool(0.5) {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    net.unsubscribe(SubId(id));
                } else {
                    net.subscribe(random_sub(&mut rng, next_id, nodes));
                    live.push(next_id);
                    next_id += 1;
                }
            }
            net.check_ledger_consistency().expect("ledger consistent after churn");
        }
    }
}

/// Snapshots are cached (same `Arc` back) while no churn happens and
/// rebuilt — with a higher version — as soon as churn commits.
#[test]
fn snapshot_cached_until_churn() {
    let mut topo = Topology::new(3);
    topo.add_edge(NodeId(0), NodeId(1), 1.0);
    topo.add_edge(NodeId(1), NodeId(2), 1.0);
    let mut net = BrokerNetwork::new(topo);
    net.advertise("R", NodeId(0));
    net.subscribe(
        Subscription::builder(NodeId(2))
            .id(SubId(1))
            .stream("R", StreamProjection::All, vec![])
            .build(),
    );
    let s1 = net.snapshot();
    let s2 = net.snapshot();
    assert!(Arc::ptr_eq(&s1, &s2), "no churn: snapshot must be cached");
    assert_eq!(s1.version(), net.routing_version());
    net.subscribe(
        Subscription::builder(NodeId(1))
            .id(SubId(2))
            .stream("R", StreamProjection::All, vec![])
            .build(),
    );
    let s3 = net.snapshot();
    assert!(!Arc::ptr_eq(&s1, &s3), "churn must produce a new snapshot");
    assert!(s3.version() > s1.version());
    // A reader kept on the old snapshot still matches the old state
    // consistently; retargeting adopts the new one.
    let mut reader = s1.reader();
    assert_eq!(reader.publish(Message::new("R", 0).with("a", Scalar::Int(1))), 1);
    assert_ne!(reader.snapshot().version(), net.routing_version(), "stale, and can tell");
    reader.retarget(&s3);
    reader.take_output();
    assert_eq!(reader.publish(Message::new("R", 1).with("a", Scalar::Int(1))), 2);
    // And the other direction: committed unsubscribes are observed too.
    net.unsubscribe(SubId(1));
    net.unsubscribe(SubId(2));
    reader.retarget(&net.snapshot());
    assert_eq!(reader.snapshot().version(), net.routing_version());
    assert_eq!(reader.publish(Message::new("R", 2).with("a", Scalar::Int(1))), 0);
}

/// One churn step of the swap-under-load script.
#[derive(Debug, Clone)]
enum Op {
    Sub(Subscription),
    Unsub(SubId),
}

/// The snapshot lifecycle under load: publisher workers drain a bounded
/// channel of message indices while the writer interleaves churn and
/// snapshot commits through a `Mutex<Arc<RoutingSnapshot>>` of the test's
/// own — the broker's owner decides how its snapshots reach readers.
/// Every message must observe exactly one *committed* snapshot: its
/// recorded snapshot version must be one the writer actually published,
/// and its deliveries and link traffic must equal a serially built oracle
/// network replaying precisely that churn prefix. A message matched
/// against a half-applied
/// or torn state would either report an uncommitted version or diverge
/// from every prefix oracle.
#[test]
fn snapshot_swap_under_load_is_consistent() {
    let trials = if stress() { 10 } else { 5u64 };
    let batches = if stress() { 10 } else { 6usize };
    let per_batch = if stress() { 12 } else { 8usize };
    let workers: usize = if stress() { 4 } else { 2 };
    for trial in 0..trials {
        let mut rng = rng_for(trial, "snapshot-swap");
        let topo = random_topology(&mut rng);
        let nodes = topo.node_count() as u32;
        let sources: Vec<(&str, NodeId)> =
            STREAMS.iter().map(|&s| (s, NodeId(rng.gen_range(0..nodes)))).collect();
        let mut net = BrokerNetwork::new(topo.clone());
        for &(s, src) in &sources {
            net.advertise(s, src);
        }
        let initial: Vec<Subscription> =
            (0..rng.gen_range(5u64..25)).map(|id| random_sub(&mut rng, id, nodes)).collect();
        for sub in &initial {
            net.subscribe(sub.clone());
        }
        let mut next_id = initial.len() as u64;
        let mut live: Vec<u64> = (0..initial.len() as u64).collect();
        let ops: Vec<Op> = (0..batches)
            .map(|_| {
                if !live.is_empty() && rng.gen_bool(0.4) {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    Op::Unsub(SubId(id))
                } else {
                    let sub = random_sub(&mut rng, next_id, nodes);
                    live.push(next_id);
                    next_id += 1;
                    Op::Sub(sub)
                }
            })
            .collect();
        let mut ts = 0i64;
        let messages: Vec<Message> = (0..batches * per_batch)
            .map(|_| {
                ts += rng.gen_range(1i64..1_000);
                random_message(&mut rng, ts)
            })
            .collect();

        let first = net.snapshot();
        // Every snapshot version the writer publishes, with the number of
        // churn ops applied when it was built.
        let mut committed: Vec<(u64, usize)> = vec![(first.version(), 0)];
        let cell: Mutex<Arc<RoutingSnapshot>> = Mutex::new(first);
        // One bounded queue, many consumers: the workers take turns at
        // the receiver, holding its lock only for the `recv` itself.
        let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(4);
        let rx = Mutex::new(rx);
        let next = || rx.lock().unwrap().recv();
        type Record = (usize, u64, Vec<Delivery>, Vec<((NodeId, NodeId), LinkStats)>);
        let records: Vec<Record> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (cell, messages, next) = (&cell, &messages, &next);
                    s.spawn(move || {
                        let mut reader: Option<SnapshotReader> = None;
                        let mut local: Vec<Record> = Vec::new();
                        while let Ok(idx) = next() {
                            // Re-sync to the latest committed snapshot
                            // *between* messages — never mid-message.
                            let snap = Arc::clone(&cell.lock().unwrap());
                            let r = reader.get_or_insert_with(|| snap.reader());
                            r.retarget(&snap);
                            r.publish_at(idx as u64, messages[idx].clone());
                            let out = r.take_output();
                            local.push((
                                idx,
                                r.snapshot().version(),
                                out.deliveries().cloned().collect(),
                                out.all_link_stats(),
                            ));
                        }
                        local
                    })
                })
                .collect();
            for (b, op) in ops.iter().enumerate() {
                for k in 0..per_batch {
                    tx.send(b * per_batch + k).unwrap();
                }
                // Churn commits mid-stream: workers may still be matching
                // earlier messages against the previous snapshot.
                match op {
                    Op::Sub(sub) => net.subscribe(sub.clone()),
                    Op::Unsub(id) => net.unsubscribe(*id),
                }
                *cell.lock().unwrap() = net.snapshot();
                committed.push((net.routing_version(), b + 1));
            }
            drop(tx);
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(records.len(), batches * per_batch, "every message processed once");

        // Oracle networks, one per observed snapshot version: a serial
        // broker replaying exactly that churn prefix.
        let mut oracles: HashMap<u64, BrokerNetwork> = HashMap::new();
        for (idx, version, deliveries, links) in records {
            let applied = committed
                .iter()
                .find(|&&(v, _)| v == version)
                .unwrap_or_else(|| {
                    panic!("message {idx} observed uncommitted snapshot version {version} (trial {trial})")
                })
                .1;
            let oracle = oracles.entry(version).or_insert_with(|| {
                let mut o = BrokerNetwork::new(topo.clone());
                for &(s, src) in &sources {
                    o.advertise(s, src);
                }
                for sub in &initial {
                    o.subscribe(sub.clone());
                }
                for op in &ops[..applied] {
                    match op {
                        Op::Sub(sub) => o.subscribe(sub.clone()),
                        Op::Unsub(id) => o.unsubscribe(*id),
                    }
                }
                o
            });
            oracle.reset_stats();
            oracle.publish(messages[idx].clone());
            assert_eq!(
                deliveries,
                oracle.log().deliveries(),
                "message {idx} diverged from its snapshot's oracle (trial {trial}, version {version})"
            );
            assert_eq!(
                links,
                oracle.all_link_stats(),
                "message {idx} link traffic diverged (trial {trial}, version {version})"
            );
        }
    }
}

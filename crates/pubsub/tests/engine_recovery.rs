//! Chaos-suite extension: broker crashes that kill *hosted engines*
//! mid-window.
//!
//! Where `chaos.rs` pins the routing plane (delivery logs converge to the
//! fault-free oracle across crashes), this suite pins the **operator
//! plane**: each trial hosts checkpointed [`StreamEngine`]s at random
//! brokers of a random topology, then interleaves publish batches,
//! scheduled and explicit checkpoints, host crashes (with partially
//! filled windows and in-flight joins, by construction), restores, and
//! non-host subscriber churn — over both clean and seeded-lossy message
//! planes. After every settle with the host up, its lifetime output log
//! must equal a **crash-free twin** engine fed the identical publish
//! sequence, bit-for-bit (the host's feed, filtered by the cover of its
//! queries' selections, loses no result), and its execution counters
//! must equal a second twin fed only the records that feed admits (what
//! the host's engine actually consumes); broker ledger consistency is
//! asserted after every operation.
//!
//! Checkpoints race crashes two ways: the simulated-time schedule fires
//! whenever a settle drains past a due tick, and the op mix takes
//! explicit checkpoints — sometimes immediately before a kill.
//!
//! A failing trial prints its op index and a `COSMOS_REPLAY` line that
//! reruns exactly that trial ([`trial::run`]).
//! `COSMOS_STRESS=1` raises trial counts and fault rates.

use cosmos_engine::exec::{ResultTuple, StreamEngine};
use cosmos_net::NodeId;
use cosmos_oracle::trial::{self, random_topology, stress};
use cosmos_pubsub::broker::BrokerNetwork;
use cosmos_pubsub::fault::{FaultConfig, FaultPlan};
use cosmos_pubsub::recovery::RecoveryNetwork;
use cosmos_pubsub::reliable::LossyNetwork;
use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_query::{parse_query, Query, QueryId, Scalar};
use cosmos_util::rng::rng_for;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

const QUERY_POOL: [&str; 4] = [
    "SELECT * FROM R [Range 60 Seconds], S [Now] WHERE R.k = S.k",
    "SELECT R.v, S.v FROM R [Range 30 Seconds], S [Range 30 Seconds] WHERE R.k = S.k",
    "SELECT R.v FROM R [Range 90 Seconds] WHERE R.v > 5",
    "SELECT S.k FROM R [Now], S [Range 120 Seconds] WHERE R.k = S.k",
];

fn msg(rng: &mut StdRng, ts: i64) -> Message {
    Message::new(if rng.gen_bool(0.5) { "R" } else { "S" }, ts)
        .with("k", Scalar::Int(rng.gen_range(0i64..5)))
        .with("v", Scalar::Int(rng.gen_range(-20i64..20)))
}

/// Per-host crash-free twins: the same publish sequence through a bare
/// engine, in publish order — every record, and only the records the
/// host's feed admits.
struct Twin {
    engine: StreamEngine,
    outputs: Vec<ResultTuple>,
    fed: StreamEngine,
}

/// Crashes go through the network's discipline: only a
/// [killable](RecoveryNetwork::killable) host crashes (the survivors stay
/// connected, so every live host stays reachable from every source — the
/// exactly-once feed cross-check needs the path), and restores take the
/// most recent crash: reverse crash order re-adds exactly the edges each
/// fail removed, so each restore rebuilds the pre-crash topology.
struct Harness {
    r: RecoveryNetwork,
    twins: BTreeMap<NodeId, Twin>,
    /// Non-host subscriber ids currently installed.
    churn_subs: Vec<u64>,
    next_sub: u64,
    nodes: u32,
}

impl Harness {
    /// Publishes through the recovery plane and through every host's
    /// crash-free twins (twins never crash, so they consume immediately).
    /// Returns how many hosts reading `m`'s stream their feeds kept it
    /// from.
    fn publish(&mut self, m: Message) -> u64 {
        let mut dropped = 0;
        for (&node, twin) in &mut self.twins {
            twin.outputs.extend(twin.engine.push(m.clone()));
            let feed = self.r.feed(node);
            if feed.matches(&m) {
                twin.fed.push(m.clone());
            } else if feed.streams.get(&m.stream).is_some() {
                dropped += 1;
            }
        }
        assert!(self.r.publish(m), "R and S are advertised");
        dropped
    }

    fn converged(&self, trial: u64, step: u32) {
        self.r
            .network()
            .check_ledger_consistency()
            .unwrap_or_else(|e| panic!("ledger inconsistent (trial {trial}, step {step}): {e}"));
        for node in self.r.host_nodes().collect::<Vec<_>>() {
            if self.r.is_up(node) {
                let twin = &self.twins[&node];
                assert_eq!(
                    self.r.output_log(node),
                    &twin.outputs[..],
                    "host {node} output log diverged from its crash-free twin \
                     (trial {trial}, step {step})"
                );
                assert_eq!(
                    self.r.engine_stats(node),
                    twin.fed.total_stats(),
                    "host {node} stats diverged from its crash-free twin fed what its feed \
                     admits (trial {trial}, step {step})"
                );
            }
        }
    }
}

/// Adversary-activity counters, summed across a suite run.
#[derive(Default)]
struct Activity {
    crashes: u64,
    restores: u64,
    checkpoints: u64,
    outputs: u64,
    faults: u64,
    /// Publishes a host's feed kept from it (on a stream it reads).
    dropped: u64,
}

fn run_trial(suite: &str, trial: u64, cfg: FaultConfig, act: &mut Activity) {
    let mut rng = rng_for(trial, suite);
    let topo = random_topology(&mut rng, 5..11, 1..5);
    let nodes = topo.node_count() as u32;
    let mut net = BrokerNetwork::new(topo);
    // Distinct sources for R and S, so a host can sit at neither.
    let src_r = NodeId(rng.gen_range(0..nodes));
    let src_s = NodeId((src_r.0 + 1 + rng.gen_range(0..nodes - 1)) % nodes);
    net.advertise("R", src_r);
    net.advertise("S", src_s);
    let lossy = LossyNetwork::new(net, FaultPlan::new(rng.gen(), cfg));
    let interval = rng.gen_range(2_000u64..20_000);
    let mut r = RecoveryNetwork::new(lossy, interval);
    // Host engines at 1–2 non-source brokers.
    let candidates: Vec<NodeId> =
        (0..nodes).map(NodeId).filter(|&n| n != src_r && n != src_s).collect();
    let n_hosts = rng.gen_range(1..=2.min(candidates.len()));
    let mut twins = BTreeMap::new();
    for i in 0..n_hosts {
        let node = candidates[(rng.gen_range(0..candidates.len()) + i) % candidates.len()];
        if twins.contains_key(&node) {
            continue;
        }
        let queries: Vec<(QueryId, Query)> = (0..rng.gen_range(1..=3))
            .map(|j| {
                let q = QUERY_POOL[rng.gen_range(0..QUERY_POOL.len())];
                (QueryId(j + 1), parse_query(q).expect("pool query parses"))
            })
            .collect();
        r.host_engine(node, queries.clone());
        let (mut engine, mut fed) = (StreamEngine::new(), StreamEngine::new());
        for (id, q) in &queries {
            engine.add_query(*id, q.clone());
            fed.add_query(*id, q.clone());
        }
        twins.insert(node, Twin { engine, outputs: Vec::new(), fed });
    }
    let mut h = Harness { r, twins, churn_subs: Vec::new(), next_sub: 0, nodes };
    let mut ts = 0i64;
    for step in 0..rng.gen_range(30u32..60) {
        trial::step(step);
        let roll = rng.gen_range(0u32..100);
        if roll < 40 {
            // Publish a small batch and settle: windows fill gradually, so
            // most crashes land on partially filled windows with joins in
            // flight.
            for _ in 0..rng.gen_range(1u32..6) {
                ts += rng.gen_range(1i64..3_000);
                let m = msg(&mut rng, ts);
                act.dropped += h.publish(m);
            }
            h.r.settle();
        } else if roll < 52 {
            let up: Vec<NodeId> = h.r.host_nodes().filter(|&n| h.r.is_up(n)).collect();
            if !up.is_empty() {
                h.r.checkpoint_now(up[rng.gen_range(0..up.len())]);
                act.checkpoints += 1;
            }
        } else if roll < 70 {
            // Kill a live host — sometimes checkpointing it first, so
            // checkpoints race the crash at zero distance.
            let killable = h.r.killable();
            if !killable.is_empty() {
                let n = killable[rng.gen_range(0..killable.len())];
                if rng.gen_bool(0.3) {
                    h.r.checkpoint_now(n);
                    act.checkpoints += 1;
                }
                h.r.crash_host(n);
                act.crashes += 1;
            }
        } else if roll < 85 {
            if let Some(&n) = h.r.crashed().last() {
                h.r.restore_host(n);
                act.restores += 1;
            }
        } else if roll < 93 || h.churn_subs.is_empty() {
            // Non-host subscriber arrival (churn must hit quiescence).
            h.r.settle();
            let id = h.next_sub;
            h.next_sub += 1;
            let node = NodeId(rng.gen_range(0..h.nodes));
            if !h.r.crashed().contains(&node) {
                let sub = Subscription::builder(node)
                    .id(SubId(id))
                    .stream(
                        if rng.gen_bool(0.5) { "R" } else { "S" },
                        StreamProjection::All,
                        vec![],
                    )
                    .build();
                h.r.network_mut().subscribe(sub);
                h.churn_subs.push(id);
            }
        } else {
            h.r.settle();
            let at = rng.gen_range(0..h.churn_subs.len());
            let id = h.churn_subs.swap_remove(at);
            h.r.network_mut().unsubscribe(SubId(id));
        }
        h.converged(trial, step);
    }
    // Final convergence: everyone restored (reverse crash order),
    // everything replayed.
    trial::step(trial::FINAL);
    while let Some(&n) = h.r.crashed().last() {
        h.r.restore_host(n);
        act.restores += 1;
    }
    h.r.settle();
    h.converged(trial, u32::MAX);
    act.outputs += h.r.host_nodes().map(|n| h.r.output_log(n).len() as u64).sum::<u64>();
    act.faults += h.r.lossy().fault_plan().total_injected();
}

/// Runs `suite`, whose name labels its trials' draws; its activity, unless
/// a replay narrowed the run to one trial on purpose.
fn run_suite(suite: &str, trials: u64, cfg: FaultConfig) -> Option<Activity> {
    let mut act = Activity::default();
    if !trial::run(suite, trials, |trial| run_trial(suite, trial, cfg, &mut act)) {
        return None;
    }
    // The suite must actually exercise the machinery it pins.
    assert!(act.crashes >= trials, "host crashes barely fired ({} crashes)", act.crashes);
    assert!(act.restores == act.crashes, "every crash must be restored");
    assert!(act.checkpoints >= trials, "checkpoints barely fired ({})", act.checkpoints);
    assert!(act.outputs > 200, "hosted engines barely produced output ({})", act.outputs);
    assert!(act.dropped > 0, "no feed ever kept a record from its host");
    Some(act)
}

/// Clean message plane: isolates checkpoint/replay correctness from
/// message faults. Its own label, so its topologies and schedules are not
/// the lossy suite's first ones with the faults switched off.
#[test]
fn hosted_engines_recover_over_clean_plane() {
    run_suite("engine-recovery-clean", if stress() { 40 } else { 14 }, FaultConfig::clean());
}

/// Seeded lossy plane: drops, duplicates, and reorders underneath the
/// recovery machinery must leave no trace in the recovered output.
#[test]
fn hosted_engines_recover_over_lossy_plane() {
    let cfg = if stress() {
        FaultConfig { drop: 0.12, duplicate: 0.08, reorder: 0.1, max_extra_ticks: 1200 }
    } else {
        FaultConfig { drop: 0.07, duplicate: 0.05, reorder: 0.06, max_extra_ticks: 800 }
    };
    if let Some(act) = run_suite("engine-recovery", if stress() { 40 } else { 14 }, cfg) {
        assert!(act.faults > 100, "fault plan barely fired ({} faults)", act.faults);
    }
}

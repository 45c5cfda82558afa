//! Chaos differential suite: the full fault plane against the fault-free
//! from-scratch reference.
//!
//! Every trial drives the incremental network on **two planes**, and the
//! reference beside them, over the same random topology through the same
//! interleaving of subscription churn, link flaps, and whole-broker
//! crashes/recoveries:
//!
//! - `lossy` — the incremental network wrapped in a
//!   [`LossyNetwork`], publishing over a seeded drop/duplicate/reorder
//!   schedule countered by per-link reliable delivery;
//! - `clean` — the incremental network on a perfect message plane,
//!   publishing serially through [`BrokerNetwork::publish`];
//! - `reference` — [`ReferenceNetwork`]: flat tables rebuilt from
//!   topology, advertisements and population after every churn operation,
//!   matched by evaluating every entry, publishing serially.
//!
//! After every publish batch the lossy plane is drained to quiescence
//! and all three must agree **bit-for-bit**: the converged delivery log
//! (contents and order) equals the reference's serial log, and per-link
//! goodput equals the reference's link counters — retransmissions,
//! duplicates, and reorderings must leave no trace beyond the overhead
//! ledger, which must read goodput + retransmissions + acks exactly.
//! After every control-plane operation both incremental networks
//! must pass [`BrokerNetwork::check_ledger_consistency`] and hold tables
//! equivalent to the rebuilt ones ([`assert_tables_equivalent`]).
//!
//! `COSMOS_STRESS=1` raises the trial count and the fault rates. A
//! failing trial prints its seed and op index; `COSMOS_CHAOS_TRIAL=<n>`
//! reruns exactly that trial.

use cosmos_net::{NodeId, Topology};
use cosmos_oracle::{assert_tables_equivalent, ReferenceNetwork};
use cosmos_pubsub::broker::{BrokerNetwork, LinkStats};
use cosmos_pubsub::fault::{FaultConfig, FaultPlan};
use cosmos_pubsub::reliable::LossyNetwork;
use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_query::{AttrRef, CmpOp, Predicate, Scalar};
use cosmos_util::rng::rng_for;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const STREAMS: [&str; 3] = ["A", "B", "C"];
const ATTRS: [&str; 3] = ["a", "b", "c"];
const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

fn stress() -> bool {
    std::env::var("COSMOS_STRESS").is_ok_and(|v| v == "1")
}

/// `COSMOS_CHAOS_TRIAL=<n>` replays a single failing trial.
fn trial_override() -> Option<u64> {
    std::env::var("COSMOS_CHAOS_TRIAL").ok().and_then(|v| v.parse().ok())
}

thread_local! {
    /// Op index of the step currently executing, for failure reports.
    static STEP: Cell<u32> = const { Cell::new(0) };
}

/// A random connected topology: a spanning tree plus a few extra edges
/// (the extras give crashes and flaps alternate paths to re-route over).
fn random_topology(rng: &mut StdRng) -> Topology {
    let n = rng.gen_range(5u32..12);
    let mut topo = Topology::new(n as usize);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        topo.add_edge(NodeId(i), NodeId(j), rng.gen_range(1.0..5.0));
    }
    for _ in 0..rng.gen_range(1..5) {
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

fn random_sub(rng: &mut StdRng, id: u64, nodes: u32) -> Subscription {
    let mut builder = Subscription::builder(NodeId(rng.gen_range(0..nodes))).id(SubId(id));
    let first = rng.gen_range(0..STREAMS.len());
    let take_second = rng.gen_bool(0.3);
    for (i, stream) in STREAMS.iter().enumerate() {
        if i != first && (!take_second || i != (first + 1) % STREAMS.len()) {
            continue;
        }
        let filters = (0..rng.gen_range(0..3))
            .map(|_| Predicate::Cmp {
                attr: AttrRef::new(*stream, ATTRS[rng.gen_range(0..ATTRS.len())]),
                op: OPS[rng.gen_range(0..OPS.len())],
                value: random_scalar(rng),
            })
            .collect();
        let proj = if rng.gen_bool(0.5) {
            StreamProjection::All
        } else {
            StreamProjection::attrs(ATTRS.iter().filter(|_| rng.gen_bool(0.6)).copied())
        };
        builder = builder.stream(*stream, proj, filters);
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
    msg
}

/// The overhead ledger at quiescence: every frame a sender put on the
/// wire is an original (accepted exactly once, so goodput), a timer
/// retransmission or an ack. Fault duplicates are not charged.
fn assert_physical_identity(lossy: &LossyNetwork, at: &str) {
    let messages = |stats: Vec<(_, LinkStats)>| stats.iter().map(|(_, s)| s.messages).sum::<u64>();
    let (physical, goodput) = (messages(lossy.physical_stats()), messages(lossy.goodput_stats()));
    assert_eq!(
        physical,
        goodput + lossy.retransmissions() + lossy.acks_sent(),
        "physical messages != goodput + retransmissions + acks ({at})"
    );
}

fn edges_of(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for u in topo.nodes() {
        for (v, _) in topo.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Both planes and the reference under the same churn schedule, plus the
/// bookkeeping the harness needs to undo incidents.
struct Trial {
    lossy: LossyNetwork,
    clean: BrokerNetwork,
    reference: ReferenceNetwork,
    live: Vec<u64>,
    home: HashMap<u64, NodeId>,
    failed_links: Vec<(NodeId, NodeId, f64)>,
    failed_nodes: Vec<(NodeId, Vec<(NodeId, f64)>)>,
    next_id: u64,
}

impl Trial {
    /// `true` while broker `v` is crashed: no link may re-attach to it
    /// until its own recovery.
    fn is_down(&self, v: NodeId) -> bool {
        self.failed_nodes.iter().any(|&(n, _)| n == v)
    }

    fn consistent(&mut self, what: &str, trial: u64, step: u32) {
        for (name, net) in [("lossy", self.lossy.network()), ("clean", &self.clean)] {
            net.check_ledger_consistency().unwrap_or_else(|e| {
                panic!("{name} ledger inconsistent after {what} (trial {trial}, step {step}): {e}")
            });
            assert_tables_equivalent(net, &mut self.reference);
        }
    }

    fn subscribe(&mut self, sub: Subscription) {
        self.home.insert(sub.id.0, sub.subscriber);
        self.live.push(sub.id.0);
        self.lossy.network_mut().subscribe(sub.clone());
        self.clean.subscribe(sub.clone());
        self.reference.subscribe(sub);
    }

    fn unsubscribe(&mut self, id: u64) {
        self.home.remove(&id);
        self.lossy.network_mut().unsubscribe(SubId(id));
        self.clean.unsubscribe(SubId(id));
        self.reference.unsubscribe(SubId(id));
    }
}

/// One randomized trial of interleaved broker crashes, link flaps, and
/// seeded message-fault schedules; returns `(injected faults,
/// retransmissions)` for the suite's activity floor.
fn run_trial(trial: u64, cfg: FaultConfig) -> (u64, u64) {
    let mut total_retransmissions = 0u64;
    {
        let mut rng = rng_for(trial, "chaos");
        let topo = random_topology(&mut rng);
        let nodes = topo.node_count() as u32;
        let mut t = Trial {
            lossy: LossyNetwork::new(
                BrokerNetwork::new(topo.clone()),
                FaultPlan::new(rng.gen(), cfg),
            ),
            clean: BrokerNetwork::new(topo.clone()),
            reference: ReferenceNetwork::new(topo),
            live: Vec::new(),
            home: HashMap::new(),
            failed_links: Vec::new(),
            failed_nodes: Vec::new(),
            next_id: 0,
        };
        for stream in STREAMS {
            let src = NodeId(rng.gen_range(0..nodes));
            t.lossy.network_mut().advertise(stream, src);
            t.clean.advertise(stream, src);
            t.reference.advertise(stream, src);
        }
        for _ in 0..rng.gen_range(10u64..40) {
            let id = t.next_id;
            t.next_id += 1;
            let sub = random_sub(&mut rng, id, nodes);
            t.subscribe(sub);
        }
        let mut ts = 0i64;
        for step in 0..rng.gen_range(35u32..70) {
            STEP.set(step);
            let roll = rng.gen_range(0u32..100);
            if roll < 10 && !t.live.is_empty() {
                for _ in 0..rng.gen_range(1usize..4).min(t.live.len()) {
                    let id = t.live.swap_remove(rng.gen_range(0..t.live.len()));
                    t.unsubscribe(id);
                    t.consistent("unsubscribe", trial, step);
                }
            } else if roll < 18 {
                for _ in 0..rng.gen_range(1u32..3) {
                    let id = t.next_id;
                    t.next_id += 1;
                    let sub = random_sub(&mut rng, id, nodes);
                    t.subscribe(sub);
                    t.consistent("subscribe", trial, step);
                }
            } else if roll < 26 {
                let edges = edges_of(t.lossy.network().topology());
                if !edges.is_empty() {
                    let (a, b) = edges[rng.gen_range(0..edges.len())];
                    let lat = t.lossy.network().topology().edge_latency(a, b).unwrap();
                    assert!(t.lossy.network_mut().fail_link(a, b));
                    assert!(t.clean.fail_link(a, b));
                    t.reference.fail_link(a, b);
                    t.failed_links.push((a, b, lat));
                    t.consistent("fail_link", trial, step);
                }
            } else if roll < 33 && !t.failed_links.is_empty() {
                // A failed link may only come back while both endpoints
                // are up — a crashed broker's links return with *it*.
                let at = rng.gen_range(0..t.failed_links.len());
                let (a, b, lat) = t.failed_links[at];
                if !t.is_down(a) && !t.is_down(b) {
                    t.failed_links.swap_remove(at);
                    assert!(t.lossy.network_mut().restore_link(a, b, lat));
                    assert!(t.clean.restore_link(a, b, lat));
                    t.reference.restore_link(a, b, lat);
                    t.consistent("restore_link", trial, step);
                }
            } else if roll < 41 {
                // Crash a random attached broker. Both planes must
                // agree on the detached footprint, and the crashed
                // broker's local subscribers leave the population.
                let attached: Vec<NodeId> = t
                    .lossy
                    .network()
                    .topology()
                    .nodes()
                    .filter(|&u| t.lossy.network().topology().degree(u) > 0)
                    .collect();
                if !attached.is_empty() {
                    let n = attached[rng.gen_range(0..attached.len())];
                    let edges = t.lossy.network_mut().fail_node(n).expect("attached");
                    assert_eq!(t.clean.fail_node(n).as_ref(), Some(&edges));
                    t.reference.fail_node(n);
                    let home = &t.home;
                    t.live.retain(|id| home.get(id) != Some(&n));
                    t.home.retain(|_, node| *node != n);
                    t.failed_nodes.push((n, edges));
                    t.consistent("fail_node", trial, step);
                }
            } else if roll < 48 && !t.failed_nodes.is_empty() {
                // Recover a crashed broker. Links toward brokers that are
                // still down stay detached (they come back, if ever, with
                // the other endpoint's recovery).
                let at = rng.gen_range(0..t.failed_nodes.len());
                let (n, saved) = t.failed_nodes[at].clone();
                let up: Vec<(NodeId, f64)> =
                    saved.iter().copied().filter(|&(v, _)| !t.is_down(v)).collect();
                if !up.is_empty() {
                    t.failed_nodes.swap_remove(at);
                    assert!(t.lossy.network_mut().restore_node(n, &up));
                    assert!(t.clean.restore_node(n, &up));
                    up.iter().for_each(|&(v, lat)| t.reference.restore_link(n, v, lat));
                    t.consistent("restore_node", trial, step);
                }
            } else {
                // A publish batch, drained to quiescence, then the full
                // three-way convergence check.
                for _ in 0..rng.gen_range(1u32..5) {
                    ts += rng.gen_range(1i64..1_000);
                    let msg = random_message(&mut rng, ts);
                    t.lossy.publish_lossy(msg.clone());
                    let dc = t.clean.publish(msg.clone());
                    let dl = t.reference.publish(msg);
                    assert_eq!(dc, dl, "delivery count diverged (trial {trial}, step {step})");
                }
                t.lossy.run_to_quiescence();
                assert_physical_identity(&t.lossy, &format!("trial {trial}, step {step}"));
                assert_eq!(
                    t.lossy.converged_log(),
                    t.reference.log,
                    "lossy log failed to converge to the reference (trial {trial}, step {step})"
                );
                assert_eq!(
                    t.clean.log().deliveries(),
                    t.reference.log,
                    "clean log diverged from the reference (trial {trial}, step {step})"
                );
                assert_eq!(
                    t.lossy.goodput_stats(),
                    t.reference.all_link_stats(),
                    "lossy goodput diverged from reference link stats (trial {trial}, step {step})"
                );
                assert_eq!(
                    t.clean.all_link_stats(),
                    t.reference.all_link_stats(),
                    "clean link stats diverged from the reference (trial {trial}, step {step})"
                );
                // Segment verified on all three: restart the logs so
                // later comparisons stay sharp (and fast).
                total_retransmissions += t.lossy.retransmissions();
                t.lossy.reset_stats();
                t.clean.reset_stats();
                t.reference.log.clear();
                t.reference.links.clear();
            }
        }
        total_retransmissions += t.lossy.retransmissions();
        (t.lossy.fault_plan().total_injected(), total_retransmissions)
    }
}

/// ≥20 randomized trials of interleaved broker crashes, link flaps, and
/// seeded message-fault schedules: the lossy plane must converge to the
/// fault-free reference's exact delivery log and per-link stats, with
/// ledger consistency and table equivalence asserted after every
/// operation. A failing
/// trial reports its seed and op index for one-line reproduction.
#[test]
fn chaos_converges_to_fault_free_oracle() {
    let trials: u64 = if stress() { 60 } else { 24 };
    let cfg = if stress() {
        FaultConfig { drop: 0.12, duplicate: 0.08, reorder: 0.1, max_extra_ticks: 1500 }
    } else {
        FaultConfig { drop: 0.07, duplicate: 0.04, reorder: 0.06, max_extra_ticks: 900 }
    };
    let (mut total_faults, mut total_retransmissions) = (0u64, 0u64);
    for trial in 0..trials {
        if trial_override().is_some_and(|t| t != trial) {
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| run_trial(trial, cfg))) {
            Ok((faults, rtx)) => {
                total_faults += faults;
                total_retransmissions += rtx;
            }
            Err(e) => {
                eprintln!(
                    "chaos trial {trial} failed at op {}; rerun with \
                     COSMOS_CHAOS_TRIAL={trial} cargo test -p cosmos-pubsub --test chaos",
                    STEP.get()
                );
                resume_unwind(e);
            }
        }
    }
    // The suite must actually have exercised the adversary: plenty of
    // injected faults, and drops forcing timer-driven retransmissions —
    // unless a single-trial override narrowed the run on purpose.
    if trial_override().is_none() {
        assert!(total_faults > 500, "fault plan barely fired ({total_faults} faults)");
        assert!(total_retransmissions > 50, "retransmission path barely fired");
    }
}

/// Deterministic replay: the same seed must reproduce the exact same
/// converged log, fault schedule, and overhead accounting.
#[test]
fn chaos_trials_replay_deterministically() {
    let run = || {
        let mut rng = rng_for(99, "chaos-replay");
        let topo = random_topology(&mut rng);
        let nodes = topo.node_count() as u32;
        let mut net = BrokerNetwork::new(topo);
        for stream in STREAMS {
            net.advertise(stream, NodeId(rng.gen_range(0..nodes)));
        }
        for id in 0..20u64 {
            net.subscribe(random_sub(&mut rng, id, nodes));
        }
        let mut lossy = LossyNetwork::new(
            net,
            FaultPlan::new(
                7,
                FaultConfig { drop: 0.1, duplicate: 0.08, reorder: 0.1, max_extra_ticks: 700 },
            ),
        );
        for ts in 0..60 {
            lossy.publish_lossy(random_message(&mut rng, ts));
        }
        lossy.run_to_quiescence();
        assert_physical_identity(&lossy, "replay");
        (
            lossy.converged_log(),
            lossy.fault_plan().injected(),
            lossy.retransmissions(),
            lossy.physical_stats(),
        )
    };
    let (log_a, faults_a, rtx_a, phys_a) = run();
    let (log_b, faults_b, rtx_b, phys_b) = run();
    assert_eq!(log_a, log_b);
    assert_eq!(faults_a, faults_b);
    assert_eq!(rtx_a, rtx_b);
    assert_eq!(phys_a, phys_b);
    assert!(faults_a.0 > 0 && rtx_a > 0, "replay must exercise drops and retransmissions");
}

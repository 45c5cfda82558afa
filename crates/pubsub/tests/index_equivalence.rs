//! Differential testing of the broker network against the from-scratch
//! reference ([`ReferenceNetwork`], `crates/oracle`): the indexed,
//! incrementally maintained [`BrokerNetwork`] must be observationally
//! identical to flat tables recomputed from topology, advertisements and
//! the population in subscribe order, matched by evaluating every entry —
//! same `DeliveryLog`, same per-link traffic — across random topologies,
//! subscription populations (indexable and residual filters,
//! projections), message streams, departures and arrivals, link and
//! broker failures and recoveries.
//!
//! Every family drives a [`Pair`]: each operation goes to the network and
//! to the reference, and every churn operation ends in [`Pair::settled`] —
//! [`BrokerNetwork::check_ledger_consistency`], and the live tables equal
//! to the rebuilt ones up to swapping same-direction entries that cover
//! each other ([`assert_tables_equivalent`]; why not entry for entry is
//! pinned by [`rerouted_subscription_is_skipped_by_its_later_equal`]).
//! Delivery counts are compared per publish, full logs and link counters
//! at the end. What covering resolution answers is held to a scan of the
//! table directly ([`covering_answers_equal_a_scan_of_the_table`]).
//!
//! Most families draw from three streams with many subscribers each; the
//! many-streams family ([`many_streams_equal_linear_oracle`]) is the
//! opposite population — hundreds of streams with a subscriber or three —
//! under churn heavy enough that tables compact.
//! Each family runs through [`trial::run`] under its seed label.

use cosmos_net::{NodeId, ShortestPathTree, Topology};
use cosmos_oracle::trial::{self, edges_of, random_scalar, random_topology, stress};
use cosmos_oracle::{assert_tables_equivalent, stands_in_for, ReferenceNetwork};
use cosmos_pubsub::broker::{BrokerNetwork, LinkStats};
use cosmos_pubsub::index::{CoverStats, ForwardInsert, InstalledSub, RoutingTable};
use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_query::{AttrRef, CmpOp, Predicate, Scalar};
use cosmos_util::rng::rng_for;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

const STREAMS: [&str; 3] = ["A", "B", "C"];
const ATTRS: [&str; 3] = ["a", "b", "c"];
const STRINGS: [&str; 3] = ["x", "y", "z"];
const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

/// A random filter: mostly indexable numeric comparisons, plus the
/// residual classes (string equality, `!=` included via OPS, timestamp
/// comparisons, foreign-relation references that can never hold).
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
        // Qualified with a different stream: never satisfiable, must be
        // handled identically by both paths.
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

/// Run lengths the batched suites chop their message sequences into: the
/// run of one is *the* single-message path, 64 outlasts every sequence.
const RUNS: [usize; 4] = [1, 2, 7, 64];

/// `len` messages of one stream whose schema flips mid-run to the same
/// attributes in another column order: a matcher that kept its schema
/// resolution across the flip reads the wrong columns.
fn schema_flip_run(rng: &mut StdRng, ts: &mut i64, len: usize) -> Vec<Message> {
    let stream = STREAMS[rng.gen_range(0..STREAMS.len())];
    (0..len)
        .map(|k| {
            *ts += rng.gen_range(1i64..1_000);
            let (first, second) = if k < len.div_ceil(2) { ("a", "b") } else { ("b", "a") };
            Message::new(stream, *ts)
                .with(first, random_scalar(rng))
                .with(second, random_scalar(rng))
        })
        .collect()
}

/// The network under test beside the reference it is held to.
struct Pair {
    net: BrokerNetwork,
    reference: ReferenceNetwork,
}

impl Pair {
    fn new(topo: Topology) -> Self {
        Self { net: BrokerNetwork::new(topo.clone()), reference: ReferenceNetwork::new(topo) }
    }

    /// A trial's generator, its random topology under a fresh pair, and
    /// the node count.
    fn start(label: &str, trial: u64) -> (StdRng, Self, u32) {
        let mut rng = rng_for(trial, label);
        let topo = random_topology(&mut rng, 4..12, 0..4);
        let nodes = topo.node_count() as u32;
        (rng, Self::new(topo), nodes)
    }

    fn advertise(&mut self, stream: &str, src: NodeId) {
        self.net.advertise(stream, src);
        self.reference.advertise(stream, src);
    }

    /// What must hold after every churn operation: a consistent ledger,
    /// and tables equivalent to the ones rebuilt from nothing.
    fn settled(&mut self, what: &str) {
        if let Err(e) = self.net.check_ledger_consistency() {
            panic!("ledger inconsistent after {what}: {e}");
        }
        assert_tables_equivalent(&self.net, &mut self.reference);
    }

    fn subscribe(&mut self, sub: Subscription) {
        self.net.subscribe(sub.clone());
        self.reference.subscribe(sub);
        self.settled("subscribe");
    }

    fn subscribe_batch(&mut self, subs: Vec<Subscription>) {
        self.net.subscribe_batch(subs.clone());
        subs.into_iter().for_each(|sub| self.reference.subscribe(sub));
        self.settled("subscribe_batch");
    }

    fn unsubscribe(&mut self, id: SubId) {
        self.net.unsubscribe(id);
        self.reference.unsubscribe(id);
        self.settled("unsubscribe");
    }

    fn fail_link(&mut self, a: NodeId, b: NodeId) {
        assert!(self.net.fail_link(a, b));
        self.reference.fail_link(a, b);
        self.settled("fail_link");
    }

    fn restore_link(&mut self, a: NodeId, b: NodeId, latency: f64) {
        assert!(self.net.restore_link(a, b, latency));
        self.reference.restore_link(a, b, latency);
        self.settled("restore_link");
    }

    fn fail_node(&mut self, n: NodeId) -> Vec<(NodeId, f64)> {
        let edges = self.net.fail_node(n).expect("attached");
        self.reference.fail_node(n);
        self.settled("fail_node");
        edges
    }

    fn restore_node(&mut self, n: NodeId, edges: &[(NodeId, f64)]) {
        assert!(self.net.restore_node(n, edges));
        edges.iter().for_each(|&(v, latency)| self.reference.restore_link(n, v, latency));
        self.settled("restore_node");
    }

    /// Publishes on both; the delivery counts must agree.
    fn publish(&mut self, msg: Message) -> usize {
        let delivered = self.net.publish(msg.clone());
        assert_eq!(delivered, self.reference.publish(msg), "delivery count diverged");
        delivered
    }

    /// The complete delivery logs (contents *and* order) and every link's
    /// traffic counters must be the reference's.
    fn same_outcome(&self) {
        assert_eq!(self.net.log().deliveries(), self.reference.log, "delivery logs diverged");
        assert_eq!(
            self.net.all_link_stats(),
            self.reference.all_link_stats(),
            "link traffic diverged"
        );
    }
}

/// The full random driver: every step either publishes, unsubscribes, or
/// fails a link. The indexed network maintains its routing state
/// *incrementally* (ledger teardown + dependent re-propagation) and
/// matches through the counting index; the reference rebuilds and scans.
#[test]
fn indexed_matching_equals_linear_scan() {
    trial::run("index-equivalence", 25, |trial| {
        let (mut rng, mut pair, nodes) = Pair::start("index-equivalence", trial);
        for stream in STREAMS {
            pair.advertise(stream, NodeId(rng.gen_range(0..nodes)));
        }
        let mut live: Vec<u64> = Vec::new();
        for id in 0..rng.gen_range(5u64..80) {
            pair.subscribe(random_sub(&mut rng, id, nodes));
            live.push(id);
        }
        let mut ts = 0i64;
        for step in 0..rng.gen_range(40u32..120) {
            trial::step(step);
            let roll = rng.gen_range(0u32..100);
            if roll < 5 && !live.is_empty() {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                pair.unsubscribe(SubId(id));
            } else if roll < 8 {
                let edges = edges_of(pair.net.topology());
                if !edges.is_empty() {
                    let (a, b) = edges[rng.gen_range(0..edges.len())];
                    pair.fail_link(a, b);
                }
            } else {
                ts += rng.gen_range(1i64..1_000);
                pair.publish(random_message(&mut rng, ts));
            }
        }
        pair.same_outcome();
    });
}

/// A message the covering-rich population's thresholds can actually
/// tell apart (its `b > t` sits near 1 000, its `a = k` near 0).
fn covering_rich_message(rng: &mut StdRng, ts: i64) -> Message {
    Message::new(STREAMS[rng.gen_range(0usize..2)], ts)
        .with("a", Scalar::Int(rng.gen_range(0i64..40)))
        .with("b", Scalar::Int(rng.gen_range(900i64..1_100)))
        .with("c", Scalar::Int(rng.gen_range(0i64..1_000)))
}

/// Heavy-churn driver: the incrementally maintained indexed network
/// against the reference under *bursty* control-plane load — waves of
/// unsubscribes, fresh arrivals, link failures and recoveries, broker
/// crashes and recoveries, interleaved with publishes. Even trials draw
/// the general random population, odd ones the covering-rich one (where
/// most walks stop at a covering entry and most departures start a repair
/// wave). This is the acceptance suite for the installation-ledger
/// design: [`Pair::settled`] after every control operation, the complete
/// delivery log and every link's counters at the end.
/// `COSMOS_STRESS=1` raises the trial count and the populations.
#[test]
fn heavy_churn_equals_wholesale_oracle() {
    let (trials, standing, steps) = if stress() { (120, 900u64, 400u32) } else { (22, 90, 140) };
    trial::run("index-heavy-churn", trials, |trial| {
        let (mut rng, mut pair, nodes) = Pair::start("index-heavy-churn", trial);
        let rich = trial % 2 == 1;
        for stream in STREAMS {
            pair.advertise(stream, NodeId(rng.gen_range(0..nodes)));
        }
        let draw = |rng: &mut StdRng, id: u64| {
            if rich {
                covering_rich_sub(rng, id, nodes)
            } else {
                random_sub(rng, id, nodes)
            }
        };
        let mut live: Vec<(u64, NodeId)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..rng.gen_range(standing / 3..standing) {
            let sub = draw(&mut rng, next_id);
            live.push((next_id, sub.subscriber));
            pair.subscribe(sub);
            next_id += 1;
        }
        let mut failed: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut crashed: Vec<(NodeId, Vec<(NodeId, f64)>)> = Vec::new();
        let mut ts = 0i64;
        for step in 0..rng.gen_range(steps / 2..steps) {
            trial::step(step);
            let roll = rng.gen_range(0u32..100);
            let is_down = |crashed: &[(NodeId, Vec<(NodeId, f64)>)], v: NodeId| {
                crashed.iter().any(|&(n, _)| n == v)
            };
            if roll < 12 && !live.is_empty() {
                // A wave of departures (bursty churn).
                for _ in 0..rng.gen_range(1usize..4).min(live.len()) {
                    let (id, _) = live.swap_remove(rng.gen_range(0..live.len()));
                    pair.unsubscribe(SubId(id));
                }
            } else if roll < 17 {
                // Fresh arrivals keep the population churning both ways.
                for _ in 0..rng.gen_range(1u32..3) {
                    let sub = draw(&mut rng, next_id);
                    live.push((next_id, sub.subscriber));
                    pair.subscribe(sub);
                    next_id += 1;
                }
            } else if roll < 22 {
                let edges = edges_of(pair.net.topology());
                if !edges.is_empty() {
                    let (a, b) = edges[rng.gen_range(0..edges.len())];
                    let lat = pair.net.topology().edge_latency(a, b).unwrap();
                    pair.fail_link(a, b);
                    failed.push((a, b, lat));
                }
            } else if roll < 27 && !failed.is_empty() {
                // A failed link comes back only while both endpoints are
                // up — a crashed broker's links return with *it*.
                let at = rng.gen_range(0..failed.len());
                let (a, b, lat) = failed[at];
                if !is_down(&crashed, a) && !is_down(&crashed, b) {
                    failed.swap_remove(at);
                    pair.restore_link(a, b, lat);
                }
            } else if roll < 31 {
                // Crash an attached broker: its local subscribers leave.
                let topo = pair.net.topology();
                let attached: Vec<NodeId> = topo.nodes().filter(|&u| topo.degree(u) > 0).collect();
                if !attached.is_empty() {
                    let n = attached[rng.gen_range(0..attached.len())];
                    let edges = pair.fail_node(n);
                    live.retain(|&(_, home)| home != n);
                    crashed.push((n, edges));
                }
            } else if roll < 35 && !crashed.is_empty() {
                // Recover a crashed broker; links toward brokers that are
                // still down stay detached.
                let at = rng.gen_range(0..crashed.len());
                let up: Vec<(NodeId, f64)> =
                    crashed[at].1.iter().copied().filter(|&(v, _)| !is_down(&crashed, v)).collect();
                if !up.is_empty() {
                    let (n, _) = crashed.swap_remove(at);
                    pair.restore_node(n, &up);
                }
            } else {
                ts += rng.gen_range(1i64..1_000);
                let msg = if rich && rng.gen_bool(0.7) {
                    covering_rich_message(&mut rng, ts)
                } else {
                    random_message(&mut rng, ts)
                };
                pair.publish(msg);
            }
        }
        pair.same_outcome();
    });
}

/// The broker half of a soak: nothing the control plane stores outlives
/// the population. Each cycle, `filter-fanout`'s covering-rich population
/// arrives in one batch, a link beside a random subscriber fails, half
/// the population leaves one by one in a seeded order, the link comes
/// back, and the rest leaves. Every arrival builds the routing state the
/// first one built, and after every cycle the network holds what a fresh
/// one holds: no subscription, no table entry, a zero footprint (a table
/// whose last entry leaves is cleared, tombstones and all) and a
/// consistent ledger — which, with no record left, means no dependency
/// key (a key names dependents with records, never an empty set) and no
/// owner head in any table (a head names a live entry). `COSMOS_STRESS=1`
/// runs 100 cycles of the full 3 000.
#[test]
fn churn_soak_returns_the_broker_to_empty() {
    let (cycles, population) = if stress() { (100, 3_000) } else { (3, 1_000) };
    let (mut net, subs) = cosmos_bench::fixtures::covering_rich_install(population);
    let fresh = BrokerNetwork::new(net.topology().clone()).footprint();
    let mut rng = rng_for(11, "index-churn-soak");
    let mut arrived = None;
    let consistent = |net: &BrokerNetwork, cycle: u32, at: &str| {
        net.check_ledger_consistency().unwrap_or_else(|e| panic!("cycle {cycle}, {at}: {e}"));
    };
    for cycle in 0..cycles {
        net.subscribe_batch(subs.clone());
        let fp = net.footprint();
        assert_eq!(*arrived.get_or_insert(fp), fp, "cycle {cycle}: the arrival built other state");
        consistent(&net, cycle, "arrived");
        let at = subs[rng.gen_range(0..subs.len())].subscriber;
        let links: Vec<(NodeId, f64)> = net.topology().neighbors(at).collect();
        let (to, latency) = links[rng.gen_range(0..links.len())];
        assert!(net.fail_link(at, to));
        let mut order: Vec<SubId> = subs.iter().map(|s| s.id).collect();
        order.shuffle(&mut rng);
        let (first, rest) = order.split_at(order.len() / 2);
        for &id in first {
            net.unsubscribe(id);
        }
        assert!(net.restore_link(at, to, latency));
        consistent(&net, cycle, "half left");
        for &id in rest {
            net.unsubscribe(id);
        }
        consistent(&net, cycle, "all left");
        assert_eq!(net.subscription_count(), 0);
        assert!(net.topology().nodes().all(|n| net.table_len(n) == 0), "cycle {cycle}");
        assert_eq!(net.footprint(), fresh, "cycle {cycle}: the emptied network keeps state");
    }
}

/// The smallest case in which repaired tables are not the rebuilt ones,
/// entry for entry (found by the heavy-churn family: seed label
/// `"index-heavy-churn"`, trial 12, step 9). Two subscriptions with equal
/// requests at different nodes; a link failure re-routes only the earlier
/// one, onto the later one's path. The repair offers the earlier one to a
/// table where the later one stands and covers it, so the later one keeps
/// the links they now share; a rebuild installs in subscribe order and
/// gives them to the earlier one. Either way the same messages cross the
/// same links carrying the same attributes.
#[test]
fn rerouted_subscription_is_skipped_by_its_later_equal() {
    // Source 0; the earlier subscriber sits at 3 (path 0-3, detour
    // 0-1-2-3), the later one at 2 (path 0-1-2).
    let mut topo = Topology::new(4);
    for (a, b, lat) in [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (2, 3, 2.0)] {
        topo.add_edge(NodeId(a), NodeId(b), lat);
    }
    let mut pair = Pair::new(topo);
    pair.advertise("A", NodeId(0));
    let equal = |id: u64, at: u32| {
        let filter =
            Predicate::Cmp { attr: AttrRef::new("A", "a"), op: CmpOp::Gt, value: Scalar::Int(10) };
        Subscription::builder(NodeId(at))
            .id(SubId(id))
            .stream("A", StreamProjection::All, vec![filter])
            .build()
    };
    pair.subscribe(equal(1, 3));
    pair.subscribe(equal(2, 2));
    // `settled` inside: the tables are equivalent to the rebuilt ones…
    pair.fail_link(NodeId(0), NodeId(3));
    // …but not equal to them. A fresh network over the surviving topology
    // *is* a rebuild.
    let mut rebuilt = BrokerNetwork::new(pair.net.topology().clone());
    rebuilt.advertise("A", NodeId(0));
    rebuilt.subscribe(equal(1, 3));
    rebuilt.subscribe(equal(2, 2));
    let shared = |net: &BrokerNetwork| -> Vec<SubId> {
        let toward_2 = |&(_, to): &(&Subscription, Option<NodeId>)| to == Some(NodeId(2));
        net.table_entries(NodeId(1)).filter(toward_2).map(|(sub, _)| sub.id).collect()
    };
    assert_eq!(shared(&pair.net), vec![SubId(2)], "the one standing keeps the shared links");
    assert_eq!(shared(&rebuilt), vec![SubId(1)], "a rebuild gives them to the earlier one");
    for (ts, a) in [(0, 25), (1, 5), (2, 11)] {
        let msg = Message::new("A", ts).with("a", Scalar::Int(a));
        assert_eq!(pair.publish(msg.clone()), rebuilt.publish(msg));
    }
    pair.same_outcome();
    assert_eq!(pair.net.all_link_stats(), rebuilt.all_link_stats());
}

/// A *covering-sparse* subscription: a point constraint on a wide value
/// domain, so pairwise covering is rare and routing tables grow with the
/// population instead of merging down — the population shape that makes
/// subscription arrival expensive and that covering resolution must
/// handle identically to the linear scans.
fn sparse_sub(rng: &mut StdRng, id: u64, nodes: u32) -> Subscription {
    let stream = STREAMS[rng.gen_range(0..STREAMS.len())];
    let filters = vec![Predicate::Cmp {
        attr: AttrRef::new(stream, ATTRS[rng.gen_range(0..ATTRS.len())]),
        op: CmpOp::Eq,
        value: Scalar::Int(rng.gen_range(-5_000i64..5_000)),
    }];
    Subscription::builder(NodeId(rng.gen_range(0..nodes)))
        .id(SubId(id))
        .stream(stream, random_projection(rng), filters)
        .build()
}

/// Arrival-dominated driver: bursts of subscribes against a large
/// standing population — mostly covering-sparse point subscriptions (so
/// tables keep growing and every install probes non-trivial lists),
/// salted with the general random shapes — with occasional departures and
/// publishes, [`Pair::settled`] after every arrival and departure.
#[test]
fn arrival_bursts_equal_wholesale_oracle() {
    trial::run("index-arrival-bursts", 8, |trial| {
        let (mut rng, mut pair, nodes) = Pair::start("index-arrival-bursts", trial);
        for stream in STREAMS {
            pair.advertise(stream, NodeId(rng.gen_range(0..nodes)));
        }
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        let mut arrive = |pair: &mut Pair, live: &mut Vec<u64>, rng: &mut StdRng| {
            let sub = if rng.gen_bool(0.8) {
                sparse_sub(rng, next_id, nodes)
            } else {
                random_sub(rng, next_id, nodes)
            };
            pair.subscribe(sub);
            live.push(next_id);
            next_id += 1;
        };
        // The standing population the bursts land on.
        for _ in 0..rng.gen_range(150u32..300) {
            arrive(&mut pair, &mut live, &mut rng);
        }
        let mut ts = 0i64;
        for step in 0..rng.gen_range(25u32..50) {
            trial::step(step);
            let roll = rng.gen_range(0u32..100);
            if roll < 55 {
                // The dominant operation: a burst of fresh arrivals.
                for _ in 0..rng.gen_range(3u32..12) {
                    arrive(&mut pair, &mut live, &mut rng);
                }
            } else if roll < 70 && !live.is_empty() {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                pair.unsubscribe(SubId(id));
            } else {
                ts += rng.gen_range(1i64..1_000);
                pair.publish(random_message(&mut rng, ts));
            }
        }
        pair.same_outcome();
    });
}

/// One stream request of the `filter-fanout` shape — the covering-rich
/// mix the counting covering queries must resolve exactly as the linear
/// scans do: `a = k AND b > t`, `b > t AND c <= u`, `b > t`, salted with
/// duplicate comparisons on one attribute, NaN and signed-zero
/// thresholds, and a residual string equality; one of a few projection
/// shapes, `*` included. Values are cube-skewed: the hot ones cover one
/// another constantly, the tail stays incomparable (tables grow).
fn covering_rich_request(rng: &mut StdRng, stream: &str) -> (StreamProjection, Vec<Predicate>) {
    let cmp = |attr: &str, op: CmpOp, value: Scalar| Predicate::Cmp {
        attr: AttrRef::new(stream, attr),
        op,
        value,
    };
    let skewed = |rng: &mut StdRng, n: f64| {
        let u: f64 = rng.gen_range(0.0..1.0);
        (n * u * u * u) as i64
    };
    // Mostly small integers; sometimes a half step, a signed zero or NaN.
    let threshold = |rng: &mut StdRng, v: i64| match rng.gen_range(0u32..24) {
        0 => Scalar::Float(f64::NAN),
        1 => Scalar::Float(-0.0),
        2 => Scalar::Float(0.0),
        3 => Scalar::Float(v as f64 + 0.5),
        _ => Scalar::Int(v),
    };
    let k = skewed(rng, 2000.0);
    let t = 1000 - skewed(rng, 1000.0);
    let u = skewed(rng, 1000.0);
    let mut filters = match rng.gen_range(0u32..20) {
        0..=10 => {
            vec![cmp("a", CmpOp::Eq, threshold(rng, k)), cmp("b", CmpOp::Gt, threshold(rng, t))]
        }
        11..=17 => {
            vec![cmp("b", CmpOp::Gt, threshold(rng, t)), cmp("c", CmpOp::Le, threshold(rng, u))]
        }
        _ => vec![cmp("b", CmpOp::Gt, threshold(rng, t))],
    };
    // Salt: a duplicate comparison, a second bound on a used attribute, a
    // point where the mix has ranges (and the reverse), a residual —
    // beside the comparisons or alone — and, rarely, no filter at all.
    match rng.gen_range(0u32..16) {
        0 => filters.push(filters[0].clone()),
        1 => filters.push(cmp("b", CmpOp::Ge, threshold(rng, u))),
        2 => filters.push(cmp("b", CmpOp::Gt, threshold(rng, u))),
        3 => filters.push(cmp("b", CmpOp::Eq, threshold(rng, t))),
        4 => filters[0] = cmp("a", CmpOp::Ge, threshold(rng, k)),
        5 => filters.push(cmp("c", CmpOp::Lt, threshold(rng, u))),
        6 => filters.push(cmp("s", CmpOp::Eq, Scalar::Str("x".into()))),
        7 if rng.gen_bool(0.2) => filters = vec![cmp("s", CmpOp::Eq, Scalar::Str("x".into()))],
        8 if rng.gen_bool(0.1) => filters.clear(),
        _ => {}
    }
    let shapes: [&[&str]; 6] = [&[], &["a"], &["a", "b"], &["b", "c"], &["a", "b", "c"], &["s"]];
    let projection = match shapes[rng.gen_range(0..shapes.len())] {
        [] => StreamProjection::All,
        attrs => StreamProjection::attrs(attrs.iter().copied()),
    };
    (projection, filters)
}

/// A covering-rich subscription: mostly one stream, sometimes two.
fn covering_rich_sub(rng: &mut StdRng, id: u64, nodes: u32) -> Subscription {
    let mut builder = Subscription::builder(NodeId(rng.gen_range(0..nodes))).id(SubId(id));
    let first = rng.gen_range(0..2);
    let both = rng.gen_bool(0.1);
    for (i, stream) in STREAMS[..2].iter().enumerate() {
        if both || i == first {
            let (projection, filters) = covering_rich_request(rng, stream);
            builder = builder.stream(*stream, projection, filters);
        }
    }
    builder.build()
}

/// One covering-rich arrival trial: a standing population large enough
/// that every arrival's covering probes walk long threshold lists, then
/// bursts of arrivals (single and batched), departures and
/// publishes. A wrong skip or drop shows in [`Pair::settled`]'s table
/// comparison long before it reaches a delivery; deliveries go through
/// the reference's matcher all the same (its tables are in subscribe
/// order, whatever repair waves did to the live ones).
fn covering_rich_trial(trial: u64, standing: u32, steps: u32) {
    let (mut rng, mut pair, nodes) = Pair::start("index-covering-rich", trial);
    for stream in &STREAMS[..2] {
        pair.advertise(stream, NodeId(rng.gen_range(0..nodes)));
    }
    let mut next_id = 0u64;
    let mut draw = |rng: &mut StdRng, n: u32| -> Vec<Subscription> {
        (0..n)
            .map(|_| {
                next_id += 1;
                covering_rich_sub(rng, next_id - 1, nodes)
            })
            .collect()
    };
    let mut live: Vec<u64> = Vec::new();
    let mut ts = 0i64;
    for op in 0..=steps {
        trial::step(op);
        let roll = rng.gen_range(0u32..100);
        if op == 0 || roll < 30 {
            // The standing population, then batched bursts.
            let n = if op == 0 { standing } else { rng.gen_range(2u32..20) };
            let subs = draw(&mut rng, n);
            live.extend(subs.iter().map(|s| s.id.0));
            pair.subscribe_batch(subs);
        } else if roll < 55 {
            let sub = draw(&mut rng, 1).remove(0);
            live.push(sub.id.0);
            pair.subscribe(sub);
        } else if roll < 85 && !live.is_empty() {
            pair.unsubscribe(SubId(live.swap_remove(rng.gen_range(0..live.len()))));
        } else {
            ts += rng.gen_range(1i64..1_000);
            pair.publish(random_message(&mut rng, ts));
        }
    }
    pair.same_outcome();
    let visited = pair.net.cover_stats().visited;
    assert!(visited > 0, "no probe walked a list: the population is too small");
}

/// The covering-rich differential family (see [`covering_rich_trial`]).
/// `COSMOS_STRESS=1` raises the trial count and the populations.
#[test]
fn covering_rich_arrivals_equal_linear_oracle() {
    let (trials, standing, steps) = if stress() { (24, 2500, 400) } else { (6, 700, 120) };
    trial::run("index-covering-rich", trials, |trial| covering_rich_trial(trial, standing, steps));
}

/// The claim covering resolution makes, with no network around it: one
/// [`RoutingTable`] against a flat `Vec` of its live forwarding entries
/// under random [`RoutingTable::insert_covering`] /
/// [`RoutingTable::remove_entry`] sequences of covering-rich
/// subscriptions toward three hops. Every insert must answer what a scan
/// of the `Vec` answers — skipped by the first coverer in table order, or
/// inserted with the covered same-direction entries dropped in table
/// order — and the live entries must stay the `Vec`'s, in order. Purges
/// of most of the table push it across tombstone sweeps and compactions
/// (dead entries outnumber live ones), and regrowth refills them.
#[test]
fn covering_answers_equal_a_scan_of_the_table() {
    trial::run("index-bucket-vs-scan", 6, |trial| {
        let mut rng = rng_for(trial, "index-bucket-vs-scan");
        let mut table = RoutingTable::new();
        let mut flat: Vec<(Subscription, NodeId)> = Vec::new();
        let mut stats = CoverStats::default();
        for id in 0..1_500u64 {
            trial::step(id as u32);
            if id % 500 == 499 {
                // A purge: four entries in five leave, one by one.
                for _ in 0..flat.len() * 4 / 5 {
                    let (sub, to) = flat.remove(rng.gen_range(0..flat.len()));
                    assert_eq!(table.remove_entry(sub.id, Some(to)), 1);
                }
            } else if rng.gen_bool(0.15) && !flat.is_empty() {
                let (sub, to) = flat.remove(rng.gen_range(0..flat.len()));
                assert_eq!(table.remove_entry(sub.id, Some(to)), 1);
            }
            let sub = covering_rich_sub(&mut rng, id, 1);
            let to = NodeId(rng.gen_range(1u32..4));
            let form = InstalledSub::new(sub.clone());
            let got = match table.insert_covering(form, to, id, stands_in_for, &mut stats) {
                ForwardInsert::Skipped { by } => Err(by),
                ForwardInsert::Inserted { dropped } => Ok(dropped),
            };
            let rival = |e: &&(Subscription, NodeId)| e.1 == to;
            let want = match flat.iter().filter(rival).find(|e| stands_in_for(&e.0, &sub)) {
                Some(coverer) => Err(coverer.0.id),
                None => {
                    let covered =
                        |e: &(Subscription, NodeId)| e.1 == to && stands_in_for(&sub, &e.0);
                    let dropped = flat.iter().filter(|e| covered(e)).map(|e| e.0.id).collect();
                    flat.retain(|e| !covered(e));
                    flat.push((sub, to));
                    Ok(dropped)
                }
            };
            assert_eq!(got, want, "trial {trial}, insert {id} toward {to:?}");
            let live: Vec<(SubId, NodeId)> =
                table.entries().map(|(sub, to)| (sub.id, to.expect("forwarding"))).collect();
            let scan: Vec<(SubId, NodeId)> = flat.iter().map(|(sub, to)| (sub.id, *to)).collect();
            assert_eq!(live, scan, "trial {trial}, after insert {id}");
        }
        assert!(stats.visited > 0, "no probe walked a list: the table stayed too small");
    });
}

/// Work, not time: how many exact covering confirmations the fixture's
/// install — one batch of 3 000 [`covering_rich_sub`]s on a fresh network
/// — attempts is a constant of the algorithm: machine-independent, exact
/// under the seed, 0 % tolerance. A change to candidate selection moves
/// it, and must argue for its new value here.
///
/// At commit 858cd38, where candidates were the *union* of every range a
/// probe comparison touched (and the victim query anchored on the first
/// comparison only), the same install made 139 436 `routing_covers` calls
/// — measured once, on an instrumented copy. Counting handed over 23.7 %
/// of that (33 073; most of it the whole-bucket scans below the build
/// threshold and the always-candidate loose members, which both designs
/// share) while a forwarded set stood beside every table. Since the
/// table's same-direction entry is the only covering store, every prune
/// is confirmed once — as the skip one hop up — where it used to be
/// confirmed twice, as a skip *and* as a forwarded-set hit: 20 208
/// attempted, 2 272 held (4 047 before, 1 775 of them the second
/// confirmation of a prune), with tables, ledgers and deliveries
/// unchanged. The reference's scan of every same-direction entry attempts
/// 8 times as many for the same 2 272.
///
/// Since covering counts over the partitions' own threshold lists — no
/// per-`(stream, hop)` copy of them, no whole scan of a copy under 32
/// members — only live members toward the hop whose counts complete are
/// confirmed: 14 853 attempted (20 208 before), the same 2 272 held. The
/// walks visit 741 701 list slots (224 858 before), because a stream's
/// lists also hold its local and other-hop members.
#[test]
fn covering_rich_fixture_confirmations_are_pinned() {
    let topo = random_topology(&mut rng_for(7, "index-covering-rich-topology"), 4..12, 0..4);
    let mut pair = Pair::new(topo);
    let mut rng = rng_for(7, "index-covering-rich-fixture");
    let nodes = pair.net.topology().node_count() as u32;
    for stream in &STREAMS[..2] {
        pair.advertise(stream, NodeId(rng.gen_range(0..nodes)));
    }
    pair.subscribe_batch((0..3000).map(|id| covering_rich_sub(&mut rng, id, nodes)).collect());
    let entries: usize = pair.net.topology().nodes().map(|n| pair.net.table_len(n)).sum();
    assert_eq!(entries, 3368, "the fixture itself moved");
    let stats = pair.net.cover_stats();
    assert_eq!((stats.attempted, stats.held, stats.visited), (14_853, 2272, 741_701));
    assert_eq!(pair.reference.confirmations, (166_888, 2272));
}

/// The `k`-th stream of the many-streams family (shared across trials:
/// symbols are process-global, streams are per network).
fn many_stream(k: usize) -> String {
    format!("ms{k}")
}

/// One subscriber of the many-streams family: one stream, or two for a
/// tenth of the population (often served by different sources, so the
/// installation splits into restricted forms); half filterless, half
/// carrying one or two random predicates.
fn many_streams_sub(
    rng: &mut StdRng,
    id: u64,
    nodes: u32,
    first: usize,
    n_streams: usize,
) -> Subscription {
    let mut builder = Subscription::builder(NodeId(rng.gen_range(0..nodes))).id(SubId(id));
    let second = rng.gen_bool(0.1).then(|| rng.gen_range(0..n_streams));
    for k in std::iter::once(first).chain(second) {
        let stream = many_stream(k);
        let filters = if rng.gen_bool(0.5) {
            Vec::new()
        } else {
            (0..rng.gen_range(1..3)).map(|_| random_predicate(rng, &stream)).collect()
        };
        builder = builder.stream(stream.as_str(), random_projection(rng), filters);
    }
    builder.build()
}

/// One many-streams trial: hundreds of streams with one to three
/// subscribers each — the per-user result-stream shape, where a table is
/// mostly single-member partitions — under churn heavy enough that
/// partitions are swept and whole tables compact again and again: waves
/// of departures and returns, link failures and recoveries (each a
/// repair wave of tombstones and re-appended entries). A departure wave
/// is checked as one operation, like the batch that returns it — up to
/// two thirds of the population leave in one. Every publish round goes
/// through `publish` and `publish_batch` alike.
/// Tombstoning finds an entry's member by binary search over ascending
/// entry ids, so a compaction or repair wave that broke that order would
/// strand a live member and deliver to a subscriber that left.
fn many_streams_trial(trial: u64, steps: u32) {
    let (mut rng, mut pair, nodes) = Pair::start("index-many-streams", trial);
    let n_streams = rng.gen_range(300usize..800);
    let sources: Vec<NodeId> =
        (0..rng.gen_range(2..5)).map(|_| NodeId(rng.gen_range(0..nodes))).collect();
    for k in 0..n_streams {
        pair.advertise(many_stream(k).as_str(), sources[rng.gen_range(0..sources.len())]);
    }
    let mut subs: Vec<Subscription> = Vec::new();
    for k in 0..n_streams {
        for _ in 0..rng.gen_range(1..4) {
            subs.push(many_streams_sub(&mut rng, subs.len() as u64, nodes, k, n_streams));
        }
    }
    pair.subscribe_batch(subs.clone());
    let mut live: Vec<usize> = (0..subs.len()).collect();
    let mut gone: Vec<usize> = Vec::new();
    let mut failed: Vec<(NodeId, NodeId, f64)> = Vec::new();
    let mut ts = 0i64;
    let mut message = |rng: &mut StdRng| {
        ts += rng.gen_range(1i64..1_000);
        let mut msg = Message::new(many_stream(rng.gen_range(0..n_streams)).as_str(), ts);
        for attr in ATTRS {
            if rng.gen_bool(0.75) {
                msg = msg.with(attr, random_scalar(rng));
            }
        }
        msg
    };
    // Stored member records only ever shrink when a table compacts.
    let (mut stored, mut compactions) = (pair.net.footprint().members, 0u32);
    for op in 0..steps {
        trial::step(op);
        let roll = rng.gen_range(0u32..100);
        if roll < 20 && !live.is_empty() {
            // A wave of departures: up to two thirds of the population.
            let wave = rng.gen_range(1..=live.len() * 2 / 3 + 1).min(live.len());
            for _ in 0..wave {
                let i = live.swap_remove(rng.gen_range(0..live.len()));
                pair.net.unsubscribe(subs[i].id);
                pair.reference.unsubscribe(subs[i].id);
                gone.push(i);
            }
            pair.settled("a wave of departures");
        } else if roll < 40 && !gone.is_empty() {
            // Most of the departed return (same ids, new sequence numbers).
            let back: Vec<usize> = gone.drain(..rng.gen_range(1..=gone.len())).collect();
            pair.subscribe_batch(back.iter().map(|&i| subs[i].clone()).collect());
            live.extend(back);
        } else if roll < 50 {
            let edges = edges_of(pair.net.topology());
            if !edges.is_empty() {
                let (a, b) = edges[rng.gen_range(0..edges.len())];
                let lat = pair.net.topology().edge_latency(a, b).unwrap();
                pair.fail_link(a, b);
                failed.push((a, b, lat));
            }
        } else if roll < 60 && !failed.is_empty() {
            let (a, b, lat) = failed.swap_remove(rng.gen_range(0..failed.len()));
            pair.restore_link(a, b, lat);
        } else {
            // The same round two ways — serially and batched — against
            // the reference's scan.
            let round: Vec<Message> =
                (0..rng.gen_range(1..40)).map(|_| message(&mut rng)).collect();
            pair.net.reset_stats();
            pair.reference.log.clear();
            pair.reference.links.clear();
            for msg in &round {
                pair.publish(msg.clone());
            }
            pair.same_outcome();
            let Pair { net, reference, .. } = &mut pair;
            let (log, links) = (&reference.log[..], reference.all_link_stats());
            net.reset_stats();
            net.publish_batch(&round);
            assert_eq!(net.log().deliveries(), log, "publish_batch log diverged");
            assert_eq!(net.all_link_stats(), links, "publish_batch link traffic diverged");
            continue;
        }
        let now = pair.net.footprint().members;
        compactions += u32::from(now < stored);
        stored = now;
    }
    assert!(compactions > 0, "no table ever compacted: the churn is too light");
}

/// The many-streams differential family (see [`many_streams_trial`]).
/// `COSMOS_STRESS=1` raises the trial count and the schedule length.
#[test]
fn many_streams_equal_linear_oracle() {
    let (trials, steps) = if stress() { (16, 400) } else { (3, 90) };
    trial::run("index-many-streams", trials, |trial| many_streams_trial(trial, steps));
}

/// A *broad* subscription: a weak threshold (or none), so ≥90% of
/// published messages match, and a projection drawn from a small set of
/// shapes — many subscribers share a projection class, which is exactly
/// the population the delivery-side dedup must stay oracle-identical on.
fn broad_sub(rng: &mut StdRng, id: u64, nodes: u32) -> Subscription {
    let stream = STREAMS[rng.gen_range(0..STREAMS.len())];
    // Thresholds in [-10, -5]: message values are drawn from [-5, 45], so
    // an `a > threshold` filter passes whenever `a` is present (~90%+ of
    // messages carry each attribute). A tenth of the population is
    // filter-free and matches everything.
    let filters = if rng.gen_bool(0.9) {
        vec![Predicate::Cmp {
            attr: AttrRef::new(stream, ATTRS[rng.gen_range(0..ATTRS.len())]),
            op: CmpOp::Gt,
            value: Scalar::Int(rng.gen_range(-10i64..-5)),
        }]
    } else {
        vec![]
    };
    let proj = match rng.gen_range(0u32..4) {
        0 => StreamProjection::All,
        1 => StreamProjection::attrs(["a"]),
        2 => StreamProjection::attrs(["a", "b"]),
        _ => StreamProjection::attrs(["b", "c", "s"]),
    };
    Subscription::builder(NodeId(rng.gen_range(0..nodes)))
        .id(SubId(id))
        .stream(stream, proj, filters)
        .build()
}

/// A message carrying *every* attribute, so a broad subscription's weak
/// filter always resolves (and passes): ≥90% of same-stream subscribers
/// match each message.
fn broad_message(rng: &mut StdRng, ts: i64) -> Message {
    let stream = STREAMS[rng.gen_range(0..STREAMS.len())];
    let mut msg = Message::new(stream, ts);
    for attr in ATTRS {
        msg = msg.with(attr, random_scalar(rng));
    }
    msg.with("s", Scalar::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_string()))
}

/// High-match-rate populations: hundreds of broad subscriptions sharing a
/// handful of projection classes, nearly every message delivered to most
/// of them. This drives the projection-class dedup path hard; the indexed
/// network must still produce the identical delivery log (contents *and*
/// order) and identical link traffic as the reference.
#[test]
fn high_match_rate_equals_linear_scan() {
    trial::run("index-equivalence-broad", 8, |trial| {
        let (mut rng, mut pair, nodes) = Pair::start("index-equivalence-broad", trial);
        for stream in STREAMS {
            pair.advertise(stream, NodeId(rng.gen_range(0..nodes)));
        }
        let n_subs = rng.gen_range(120u64..250);
        for id in 0..n_subs {
            pair.subscribe(broad_sub(&mut rng, id, nodes));
        }
        let mut ts = 0i64;
        let (mut published, mut delivered) = (0u64, 0u64);
        for step in 0..60 {
            trial::step(step);
            ts += rng.gen_range(1i64..1_000);
            delivered += pair.publish(broad_message(&mut rng, ts)) as u64;
            published += 1;
        }
        // The population splits evenly over three streams and every
        // broad filter passes: each publish must reach ≥90% of the ~n/3
        // same-stream subscribers.
        assert!(
            delivered * 10 >= published * (n_subs / 3) * 9,
            "population must be ≥90% match (trial {trial}: {delivered} deliveries \
             over {published} publishes of {n_subs} subs)"
        );
        pair.same_outcome();
    });
}

/// Unsubscribing must leave the index in exactly the state a fresh network
/// holding only the surviving subscriptions would build.
#[test]
fn unsubscribe_rebuild_matches_fresh_network() {
    let mut rng = rng_for(7, "index-rebuild");
    let topo = random_topology(&mut rng, 4..12, 0..4);
    let nodes = topo.node_count() as u32;
    let mut rebuilt = BrokerNetwork::new(topo.clone());
    let mut fresh = BrokerNetwork::new(topo);
    let src = NodeId(0);
    rebuilt.advertise("A", src);
    fresh.advertise("A", src);
    let subs: Vec<Subscription> = (0..12).map(|i| random_sub(&mut rng, i, nodes)).collect();
    for sub in &subs {
        rebuilt.subscribe(sub.clone());
    }
    for (i, sub) in subs.iter().enumerate() {
        if i % 3 == 0 {
            rebuilt.unsubscribe(sub.id);
        } else {
            fresh.subscribe(sub.clone());
        }
    }
    let mut ts = 0;
    for _ in 0..40 {
        ts += rng.gen_range(1i64..500);
        let msg = random_message(&mut rng, ts);
        assert_eq!(rebuilt.publish(msg.clone()), fresh.publish(msg));
    }
    assert_eq!(rebuilt.log().deliveries(), fresh.log().deliveries());
    assert_eq!(rebuilt.all_link_stats(), fresh.all_link_stats());
}

/// Link failure re-propagates through the indexed tables; the surviving
/// routes must deliver exactly what a fresh network over the surviving
/// topology delivers.
#[test]
fn fail_link_rebuild_matches_fresh_network() {
    let mut rng = rng_for(11, "index-fail-link");
    // A ring guarantees an alternate path for any single failure.
    let n = 6u32;
    let mut topo = Topology::new(n as usize);
    for i in 0..n {
        topo.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0);
    }
    let mut failed = BrokerNetwork::new(topo);
    failed.advertise("A", NodeId(0));
    failed.advertise("B", NodeId(2));
    let subs: Vec<Subscription> = (0..8).map(|i| random_sub(&mut rng, i, n)).collect();
    for sub in &subs {
        failed.subscribe(sub.clone());
    }
    assert!(failed.fail_link(NodeId(0), NodeId(1)));

    let mut survivor_topo = Topology::new(n as usize);
    for i in 0..n {
        if i == 0 {
            continue; // the failed link {0, 1}
        }
        survivor_topo.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0);
    }
    let mut fresh = BrokerNetwork::new(survivor_topo);
    fresh.advertise("A", NodeId(0));
    fresh.advertise("B", NodeId(2));
    for sub in &subs {
        fresh.subscribe(sub.clone());
    }
    let mut ts = 0;
    for _ in 0..40 {
        ts += rng.gen_range(1i64..500);
        let msg = random_message(&mut rng, ts);
        assert_eq!(failed.publish(msg.clone()), fresh.publish(msg));
    }
    assert_eq!(failed.log().deliveries(), fresh.log().deliveries());
    assert_eq!(failed.all_link_stats(), fresh.all_link_stats());
}

/// Batched-ingestion twin: a network fed exclusively through
/// [`BrokerNetwork::subscribe_batch`] and [`BrokerNetwork::publish_batch`]
/// against the serial indexed network and the reference. Batches mix
/// streams (split into same-stream runs internally) and are sometimes
/// pre-sorted by stream to exercise long shared walks; each ends in a
/// same-stream tail whose schema flips mid-run, and is published in
/// chunks of 1, 2, 7 or 64 messages — serial and batched publishing are
/// one routine now, so the reference's scan is what both are held to.
/// Delivery counts are compared per batch; full logs and link counters
/// at the end.
/// `COSMOS_STRESS=1` elevates the population and batch sizes — the
/// large-population batched-publish equivalence run wired into CI.
#[test]
fn batched_publish_and_subscribe_equal_serial_and_linear() {
    let (trials, pop_max, batch_max) = if stress() { (6, 1200u64, 48) } else { (10, 90, 24) };
    trial::run("batched-publish", trials, |trial| {
        let (mut rng, mut serial, nodes) = Pair::start("batched-publish", trial);
        let mut batched = BrokerNetwork::new(serial.net.topology().clone());
        for stream in STREAMS {
            let src = NodeId(rng.gen_range(0..nodes));
            serial.advertise(stream, src);
            batched.advertise(stream, src);
        }
        let pop = rng.gen_range(pop_max / 2..pop_max);
        let subs: Vec<Subscription> = (0..pop).map(|id| random_sub(&mut rng, id, nodes)).collect();
        for sub in &subs {
            serial.subscribe(sub.clone());
        }
        batched.subscribe_batch(subs);
        batched.check_ledger_consistency().expect("batched install ledger");
        assert_tables_equivalent(&batched, &mut serial.reference);
        let mut ts = 0i64;
        for round in 0..rng.gen_range(5u32..10) {
            trial::step(round);
            let mut batch = Vec::new();
            for _ in 0..rng.gen_range(1..batch_max) {
                ts += rng.gen_range(1i64..1_000);
                batch.push(random_message(&mut rng, ts));
            }
            let flip = RUNS[rng.gen_range(0..RUNS.len())];
            batch.extend(schema_flip_run(&mut rng, &mut ts, flip));
            if rng.gen_bool(0.5) {
                // Long same-stream runs: the shared-walk fast path.
                batch.sort_by_key(|m| m.stream);
            }
            let run = RUNS[(trial as usize + round as usize) % RUNS.len()];
            let db: usize = batch.chunks(run).map(|chunk| batched.publish_batch(chunk)).sum();
            let ds: usize = batch.iter().map(|msg| serial.publish(msg.clone())).sum();
            assert_eq!(db, ds, "batch/serial delivery count (trial {trial}, round {round})");
        }
        serial.same_outcome();
        assert_eq!(batched.log().deliveries(), serial.reference.log, "batched log diverged");
        assert_eq!(batched.all_link_stats(), serial.reference.all_link_stats());
    });
}

/// `sub` with an attribute-to-attribute comparison added to every stream
/// request: a filter that reads `a` and `b` whether or not it keeps them.
fn with_attr_comparison(rng: &mut StdRng, sub: Subscription) -> Subscription {
    let mut builder = Subscription::builder(sub.subscriber).id(sub.id);
    for (stream, req) in sub.streams.iter() {
        let mut filters = req.filters().to_vec();
        filters.push(Predicate::JoinCmp {
            left: AttrRef::new(stream.as_str(), "a"),
            op: OPS[rng.gen_range(0..OPS.len())],
            right: AttrRef::new(stream.as_str(), "b"),
        });
        builder = builder.stream(*stream, req.projection().clone(), filters);
    }
    builder.build()
}

/// Link minimality from the definition alone — no reference network, no
/// look inside the tables. Publishing one message at a time, a link
/// carries it exactly when some live subscription below that link in the
/// source's shortest-path tree matches it, once, narrowed to the union of
/// those subscriptions' needs: to the byte, so nothing a matching
/// subscriber below needs is missing and nothing else crosses. Even
/// trials draw the general random population, odd ones the covering-rich
/// one (where most subscriptions forward through a coverer); a quarter of
/// the subscriptions also compare two attributes. Departures and link
/// failures interleave with the publishes.
/// `COSMOS_STRESS=1` raises the trial count and the populations.
#[test]
fn link_bytes_are_what_the_matching_subscribers_below_need() {
    let (trials, standing, steps) = if stress() { (300, 400u64, 300u32) } else { (30, 60, 80) };
    trial::run("index-link-minimality", trials, |trial| {
        let mut rng = rng_for(trial, "index-link-minimality");
        let topo = random_topology(&mut rng, 4..12, 0..4);
        let nodes = topo.node_count() as u32;
        let mut net = BrokerNetwork::new(topo);
        let sources: Vec<(&str, NodeId)> =
            STREAMS.iter().map(|&s| (s, NodeId(rng.gen_range(0..nodes)))).collect();
        for &(stream, src) in &sources {
            net.advertise(stream, src);
        }
        let rich = trial % 2 == 1;
        let mut live: Vec<Subscription> = Vec::new();
        for id in 0..rng.gen_range(standing / 3..standing) {
            let sub = if rich {
                covering_rich_sub(&mut rng, id, nodes)
            } else {
                random_sub(&mut rng, id, nodes)
            };
            let sub = if rng.gen_bool(0.25) { with_attr_comparison(&mut rng, sub) } else { sub };
            net.subscribe(sub.clone());
            live.push(sub);
        }
        let mut expected: BTreeMap<(NodeId, NodeId), LinkStats> = BTreeMap::new();
        let mut ts = 0i64;
        for step in 0..rng.gen_range(steps / 2..steps) {
            trial::step(step);
            let roll = rng.gen_range(0u32..100);
            if roll < 5 && !live.is_empty() {
                net.unsubscribe(live.swap_remove(rng.gen_range(0..live.len())).id);
                continue;
            }
            if roll < 8 {
                let edges = edges_of(net.topology());
                if !edges.is_empty() {
                    let (a, b) = edges[rng.gen_range(0..edges.len())];
                    assert!(net.fail_link(a, b));
                }
                continue;
            }
            ts += rng.gen_range(1i64..1_000);
            let msg = if rich && rng.gen_bool(0.7) {
                covering_rich_message(&mut rng, ts)
            } else {
                random_message(&mut rng, ts)
            };
            let mut needed: BTreeMap<(NodeId, NodeId), StreamProjection> = BTreeMap::new();
            if let Some(&(_, src)) = sources.iter().find(|(s, _)| msg.stream.as_str() == *s) {
                let tree = ShortestPathTree::compute(net.topology(), src);
                for sub in live.iter().filter(|s| s.matches(&msg)) {
                    let needs = sub.needs(msg.stream).expect("matched, so requested");
                    for hop in tree.path_to(sub.subscriber).unwrap_or_default().windows(2) {
                        let union = needed
                            .entry((hop[0].min(hop[1]), hop[0].max(hop[1])))
                            .or_insert_with(|| StreamProjection::Attrs(BTreeSet::new()));
                        *union = union.union(needs);
                    }
                }
            }
            for (link, needs) in needed {
                let sent = match needs {
                    StreamProjection::All => msg.clone(),
                    StreamProjection::Attrs(keep) => msg.retaining(&keep),
                };
                let stats = expected.entry(link).or_default();
                stats.messages += 1;
                stats.bytes += sent.wire_size() as u64;
            }
            net.publish(msg);
            let expected: Vec<_> = expected.iter().map(|(&link, &stats)| (link, stats)).collect();
            assert_eq!(net.all_link_stats(), expected, "trial {trial}, step {step}");
        }
    });
}

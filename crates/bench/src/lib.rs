//! Shared infrastructure for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (`table2`, `fig6` … `fig11`) that prints the same rows or
//! series the paper plots and appends a machine-readable JSON record under
//! `results/`. Common command-line handling lives here:
//!
//! ```text
//! cargo run --release -p cosmos-bench --bin fig6 -- [--scale 0.1] [--seed 42] [--quick]
//! ```
//!
//! `--scale` scales the paper's dimensions (default 0.1; `1.0` = the full
//! 4096-node / 20 000-substream / 60 000-query setup — hours of CPU);
//! `--quick` is shorthand for `--scale 0.04` for smoke runs.

use cosmos_net::{NodeId, TransitStubConfig};
use cosmos_pubsub::broker::BrokerNetwork;
use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_query::{parse_query, Query, QueryId, Scalar};
use std::fs;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Scale factor in (0, 1].
    pub scale: f64,
    /// Root seed.
    pub seed: u64,
}

impl BenchArgs {
    /// Parses `--scale`, `--seed`, `--quick` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    pub fn parse() -> Self {
        Self::parse_from(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// [`BenchArgs::parse`] over an explicit argument list, for a binary
    /// that takes options of its own out first.
    pub fn parse_from(args: &[String]) -> Self {
        let mut scale = 0.1;
        let mut seed = 42;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--scale needs a number in (0, 1]"));
                }
                "--seed" => {
                    i += 1;
                    seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs an integer"));
                }
                "--quick" => scale = 0.04,
                "--help" | "-h" => {
                    eprintln!("usage: [--scale F] [--seed N] [--quick]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?}"),
            }
            i += 1;
        }
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Self { scale, seed }
    }
}

/// Writes a JSON result record to `results/<name>.json` (relative to the
/// workspace root when run via cargo).
pub fn write_result(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => {
            if let Err(e) = fs::write(&path, body) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Prints a header banner for a figure binary.
pub fn banner(figure: &str, what: &str, args: &BenchArgs) {
    println!("=== {figure}: {what}");
    println!("    scale {} seed {}  (paper scale = 1.0)", args.scale, args.seed);
}

/// Extracts `(name, median_ns)` pairs, in file order, from a
/// `BENCH_micro.json` body — the one reader of that file, for the
/// regression guard (`bench_check`) and for the test that holds
/// `bench_json`'s registry to the committed snapshot. The vendored
/// `serde_json` stub has no parser, so this scans the snapshot's fixed
/// shape: objects with a `"name"` string and a `"median_ns"` number.
pub fn parse(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + "\"name\"".len()..];
        let Some(open) = rest.find('"') else { break };
        let value = &rest[open + 1..];
        let Some(close) = value.find('"') else { break };
        let name = value[..close].to_string();
        rest = &value[close + 1..];
        let Some(med) = rest.find("\"median_ns\"") else { break };
        let after = &rest[med + "\"median_ns\"".len()..];
        let Some(colon) = after.find(':') else { break };
        let num = after[colon + 1..].trim_start();
        let end = num
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
            })
            .unwrap_or(num.len());
        if let Ok(v) = num[..end].parse::<f64>() {
            out.push((name, v));
        }
        rest = &num[end..];
    }
    out
}

/// Micro-benchmark fixtures: the populations and probes behind the rows
/// of the runner (`src/bin/bench_json.rs`) — in the library rather than
/// beside the rows because the work-counter pins in this file's tests and
/// `crates/pubsub/tests/footprint.rs` build the very same worlds.
pub mod fixtures {
    use super::*;

    /// The `i`-th subscription of [`broker_with_subs`]' population —
    /// exposed so the churn benchmarks can re-subscribe exactly the shape
    /// they remove, keeping the population in steady state.
    pub fn scaling_sub(i: u64) -> Subscription {
        Subscription::builder(NodeId(30 + (i % 30) as u32))
            .id(SubId(i))
            .stream(
                "R",
                StreamProjection::All,
                vec![cosmos_query::Predicate::Cmp {
                    attr: cosmos_query::AttrRef::new("R", "a"),
                    op: cosmos_query::CmpOp::Gt,
                    value: Scalar::Int((i % 40) as i64),
                }],
            )
            .build()
    }

    /// A 66-node transit-stub broker network with `n_subs` subscriptions
    /// spread over 30 subscriber nodes, thresholds cycling over 40
    /// distinct values — the scaling workload behind the
    /// sublinear-matching claim (~62% of subscriptions match
    /// [`scaling_message`]).
    pub fn broker_with_subs(n_subs: u64) -> BrokerNetwork {
        let topo = TransitStubConfig::small().generate(3);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        for i in 0..n_subs {
            net.subscribe(scaling_sub(i));
        }
        net
    }

    /// A link of the scaling topology suitable for fail/restore churn:
    /// the dissemination-tree edge directly above subscriber node 45,
    /// with its latency. Failing it re-routes (or partitions) only that
    /// subtree's subscribers — the typical single-link incident the
    /// incremental path should handle without touching the rest of the
    /// population.
    pub fn churn_link(net: &BrokerNetwork) -> (NodeId, NodeId, f64) {
        let tree = cosmos_net::ShortestPathTree::compute(net.topology(), NodeId(0));
        let leaf = NodeId(45);
        let parent = tree.parent(leaf).expect("subscriber node must be reachable");
        let lat = net.topology().edge_latency(leaf, parent).expect("tree edge exists");
        (leaf, parent, lat)
    }

    /// The probe message for [`broker_with_subs`].
    pub fn scaling_message() -> Message {
        Message::new("R", 0).with("a", Scalar::Int(25))
    }

    /// A broker of the scaling topology suitable for whole-node
    /// fail/restore churn: the non-subscriber node whose dissemination
    /// subtree contains the fewest (but at least one) subscriber nodes —
    /// the typical single-broker incident, re-homing one neighbourhood of
    /// subscribers while the rest of the population stands. Subscriber
    /// nodes are excluded because `fail_node` forgets a crashed broker's
    /// *local* subscriptions permanently, which would drain the population
    /// and break the benchmark's steady state; the stream source is
    /// excluded because crashing it silences the stream entirely.
    pub fn churn_node(net: &BrokerNetwork) -> NodeId {
        let topo = net.topology();
        let tree = cosmos_net::ShortestPathTree::compute(topo, NodeId(0));
        let mut best: Option<(usize, NodeId)> = None;
        for n in topo.nodes() {
            if n == NodeId(0) || (30..60).contains(&n.0) || topo.degree(n) == 0 {
                continue;
            }
            let Some(p) = tree.parent(n) else { continue };
            let Some(below) = tree.nodes_via_edge(p, n) else { continue };
            let subs = below.iter().filter(|m| (30..60).contains(&m.0)).count();
            if subs > 0 && best.is_none_or(|(s, _)| subs < s) {
                best = Some((subs, n));
            }
        }
        best.expect("a transit node with a subscriber subtree must exist").1
    }

    /// [`broker_with_subs`] wrapped in the reliable-delivery plane over a
    /// seeded pure-drop fault schedule (duplicates and reorders off) —
    /// the workload behind `broker/publish-lossy-*`. `drop = 0.0` is the
    /// clean twin: same machinery, no retransmissions.
    pub fn lossy_broker(n_subs: u64, drop: f64) -> cosmos_pubsub::LossyNetwork {
        let cfg =
            cosmos_pubsub::FaultConfig { drop, duplicate: 0.0, reorder: 0.0, max_extra_ticks: 0 };
        cosmos_pubsub::LossyNetwork::new(
            broker_with_subs(n_subs),
            cosmos_pubsub::FaultPlan::new(7, cfg),
        )
    }

    /// The `i`-th subscription of [`broker_with_distinct_subs`]'
    /// population: a point constraint `a = i`, so no pair covers another
    /// and covering merges never collapse the tables — the
    /// covering-sparse population shape that makes subscription *arrival*
    /// expensive (every install hop probes a table that grows with the
    /// population).
    pub fn arrival_sub(i: u64) -> Subscription {
        Subscription::builder(NodeId(30 + (i % 30) as u32))
            .id(SubId(i))
            .stream(
                "R",
                StreamProjection::All,
                vec![cosmos_query::Predicate::Cmp {
                    attr: cosmos_query::AttrRef::new("R", "a"),
                    op: cosmos_query::CmpOp::Eq,
                    value: Scalar::Int(i as i64),
                }],
            )
            .build()
    }

    /// A 66-node transit-stub broker network holding `n_subs` pairwise
    /// non-covering subscriptions ([`arrival_sub`]) — the standing
    /// population behind the `broker/subscribe-*` arrival benchmarks.
    pub fn broker_with_distinct_subs(n_subs: u64) -> BrokerNetwork {
        let topo = TransitStubConfig::small().generate(3);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net.subscribe_batch((0..n_subs).map(arrival_sub).collect());
        net
    }

    /// The covering-rich arrival workload behind
    /// `broker/subscribe-batch-12k-covering-rich`: the end-to-end
    /// `filter-fanout` benchmark's set-up as a micro row — its 496-node
    /// overlay (`PaperParams::scaled(0.1)`, 4 sources, 26 processors) and
    /// its subscription mix (60 % `a = k AND b > t` with `k` cube-skewed
    /// over 0..10 000, 35 % `b > t AND c <= u`, 5 % `b > t`, thresholds
    /// leaning selective, 8 projection shapes), each subscriber a random
    /// processor. Unlike the distinct-point populations above, members
    /// cover one another constantly, so every install hop resolves real
    /// skips, prunes and merge drops. Returns the empty advertised
    /// network and the `n_subs` subscriptions to batch-install on it.
    pub fn covering_rich_install(n_subs: u64) -> (BrokerNetwork, Vec<Subscription>) {
        use cosmos_query::{AttrRef, CmpOp, Predicate};
        use rand::Rng;
        const SEED: u64 = 0xF17E;
        const STREAMS: [&str; 4] = ["T0", "T1", "T2", "T3"];
        const SHAPES: [&[&str]; 8] = [
            &[],
            &["a"],
            &["a", "b"],
            &["b", "c"],
            &["a", "b", "c"],
            &["d"],
            &["c", "d", "e"],
            &["a", "e"],
        ];
        let topo = cosmos_workload::PaperParams::scaled(0.1).topology.generate(SEED);
        let dep = cosmos_net::Deployment::assign(topo, STREAMS.len(), 26, SEED);
        let mut net = BrokerNetwork::new(dep.topology().clone());
        for (stream, &source) in STREAMS.iter().zip(dep.sources()) {
            net.advertise(*stream, source);
        }
        let mut rng = cosmos_util::rng::rng_for(SEED, "fanout-subs");
        let skewed = |rng: &mut rand::rngs::StdRng| {
            let u: f64 = rng.gen_range(0.0..1.0);
            (10_000.0 * u * u * u) as i64
        };
        let procs = dep.processors();
        let subs = (0..n_subs)
            .map(|i| {
                let t = STREAMS[rng.gen_range(0..STREAMS.len())];
                let projection = match SHAPES[rng.gen_range(0..SHAPES.len())] {
                    [] => StreamProjection::All,
                    attrs => StreamProjection::attrs(attrs.iter().copied()),
                };
                let cmp = |attr: &str, op: CmpOp, v: i64| Predicate::Cmp {
                    attr: AttrRef::new(t, attr),
                    op,
                    value: Scalar::Int(v),
                };
                let b = cmp("b", CmpOp::Gt, 1000 - skewed(&mut rng) / 10);
                let filters = match rng.gen_range(0..20) {
                    0..=11 => vec![cmp("a", CmpOp::Eq, skewed(&mut rng)), b],
                    12..=18 => vec![b, cmp("c", CmpOp::Le, skewed(&mut rng) / 10)],
                    _ => vec![b],
                };
                Subscription::builder(procs[rng.gen_range(0..procs.len())])
                    .id(SubId(i))
                    .stream(t, projection, filters)
                    .build()
            })
            .collect();
        (net, subs)
    }

    /// The per-user result-stream plane of the end-to-end `sensor-join`
    /// workload as a micro fixture, behind
    /// `broker/subscribe-batch-4k-result-streams` and the routing-state
    /// footprint guard (`crates/pubsub/tests/footprint.rs`): that
    /// workload's overlay (`SensorScenario::build(100, 5, 30, ..)` under
    /// its standing seed) with
    /// `n_subs` result streams, each advertised at a random hosting
    /// processor and requested — filterless, whole records — by one
    /// subscriber at a random proxy processor. Tens of thousands of
    /// streams with one subscriber each is the population shape a
    /// *massive* query plane gives the brokers, and the opposite of the
    /// few-streams-many-subscribers fixtures above. Returns the advertised
    /// network and the `n_subs` subscriptions to batch-install on it.
    pub fn result_stream_install(n_subs: u64) -> (BrokerNetwork, Vec<Subscription>) {
        use rand::Rng;
        const SEED: u64 = 0x5E45;
        let scenario = cosmos_workload::sensors::SensorScenario::build(100, 5, 30, SEED);
        let procs = scenario.dep.processors();
        let mut net = BrokerNetwork::new(scenario.dep.topology().clone());
        let mut rng = cosmos_util::rng::rng_for(SEED, "result-streams");
        let subs = (0..n_subs)
            .map(|i| {
                let stream = format!("result-of-user-{i}");
                net.advertise(stream.as_str(), procs[rng.gen_range(0..procs.len())]);
                Subscription::builder(procs[rng.gen_range(0..procs.len())])
                    .id(SubId(i))
                    .stream(stream.as_str(), StreamProjection::All, vec![])
                    .build()
            })
            .collect();
        (net, subs)
    }

    /// The `len`-message same-stream round behind
    /// `broker/publish-batch-64`: telemetry-shaped records (one routed
    /// attribute `a` plus fifteen payload attributes) whose point probes
    /// cycle through the distinct population of size `pop`, so each
    /// message matches ~1 subscription and fixed per-hop overheads
    /// dominate — the regime batched ingestion amortizes (one routing
    /// descent, one schema resolution, one counter epoch, and one
    /// match-scratch reuse per batch instead of one per message).
    pub fn batch_round(len: u64, pop: u64) -> Vec<Message> {
        let payload = ["b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p"];
        (0..len)
            .map(|k| {
                let mut m =
                    Message::new("R", k as i64).with("a", Scalar::Int((k * 79 % pop) as i64));
                for name in payload {
                    m = m.with(name, Scalar::Int(k as i64));
                }
                m
            })
            .collect()
    }

    /// A *broad* population: ≥90% of subscriptions match
    /// [`broad_message`] (thresholds cycle over 0..10 against `a = 9`),
    /// and the projections cycle over 8 distinct shapes — the
    /// delivery-volume-bound workload the projection-class dedup targets.
    /// The `-linear` row (the reference's scan) pays per-match clone +
    /// projection; the indexed path pays one projection per class plus a
    /// refcount bump per delivery.
    pub fn broker_with_broad_subs(n_subs: u64) -> BrokerNetwork {
        let topo = TransitStubConfig::small().generate(3);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        let projections: [StreamProjection; 8] = [
            StreamProjection::All,
            StreamProjection::attrs(["a"]),
            StreamProjection::attrs(["a", "b"]),
            StreamProjection::attrs(["a", "b", "c"]),
            StreamProjection::attrs(["b", "d"]),
            StreamProjection::attrs(["c", "d"]),
            StreamProjection::attrs(["a", "d"]),
            StreamProjection::attrs(["b", "c", "d"]),
        ];
        for i in 0..n_subs {
            net.subscribe(
                Subscription::builder(NodeId(30 + (i % 30) as u32))
                    .id(SubId(i))
                    .stream(
                        "R",
                        projections[(i % 8) as usize].clone(),
                        vec![cosmos_query::Predicate::Cmp {
                            attr: cosmos_query::AttrRef::new("R", "a"),
                            op: cosmos_query::CmpOp::Gt,
                            value: Scalar::Int((i % 10) as i64 - 1),
                        }],
                    )
                    .build(),
            );
        }
        net
    }

    /// The probe message for [`broker_with_broad_subs`]: every broad
    /// filter resolves and passes.
    pub fn broad_message() -> Message {
        Message::new("R", 0)
            .with("a", Scalar::Int(9))
            .with("b", Scalar::Int(1))
            .with("c", Scalar::Int(2))
            .with("d", Scalar::Int(3))
    }

    /// A [`StreamEngine`](cosmos_engine::exec::StreamEngine) running one
    /// long-window join with `n_tuples` buffered across its windows —
    /// the standing state behind `engine/checkpoint-*`. Keys pair off
    /// (`k = i / 2`), so windows fill linearly without a quadratic join
    /// blow-up; checkpoint extract/restore cost then scales with the
    /// buffered population. `checkpointed_engine(0)` is the empty twin
    /// with the identical query set, the only restore target
    /// [`Recoverable::restore`](cosmos_engine::checkpoint::Recoverable::restore)
    /// accepts.
    pub fn checkpointed_engine(n_tuples: u64) -> cosmos_engine::exec::StreamEngine {
        use cosmos_engine::tuple::Tuple;
        let mut engine = cosmos_engine::exec::StreamEngine::new();
        engine.add_query(
            QueryId(1),
            parse_query(
                "SELECT * FROM R [Range 3600 Seconds], S [Range 3600 Seconds] WHERE R.k = S.k",
            )
            .unwrap(),
        );
        for i in 0..n_tuples {
            let stream = if i % 2 == 0 { "R" } else { "S" };
            engine.push(
                Tuple::new(stream, i as i64)
                    .with("k", Scalar::Int((i / 2) as i64))
                    .with("v", Scalar::Int(1)),
            );
        }
        engine
    }

    /// [`lossy_broker`]'s clean twin hosting a checkpointed engine at the
    /// churn node: `window` records checkpointed into the engine plus a
    /// `suffix` of unacked records retained upstream — the standing state
    /// behind `broker/recover-engine-*`. Each crash/restore cycle then
    /// tears the host out of the `n_subs`-subscription overlay, re-homes
    /// the routing, restores the checkpoint into a rebuilt engine, and
    /// replays (verify-mode) the retained suffix. The checkpoint interval
    /// is effectively infinite so the simulated-time schedule never
    /// fires: every cycle measures exactly one explicit-checkpoint
    /// recovery, nothing more.
    pub fn recovery_host(
        n_subs: u64,
        window: u64,
        suffix: u64,
    ) -> (cosmos_pubsub::RecoveryNetwork, NodeId) {
        let lossy = lossy_broker(n_subs, 0.0);
        let host = churn_node(lossy.network());
        let mut r = cosmos_pubsub::RecoveryNetwork::new(lossy, u64::MAX / 2);
        r.host_engine(
            host,
            vec![(
                QueryId(1),
                parse_query("SELECT R.a FROM R [Range 3600 Seconds] WHERE R.a > 0").unwrap(),
            )],
        );
        let mut ts = 0i64;
        let feed = |r: &mut cosmos_pubsub::RecoveryNetwork, n: u64, ts: &mut i64| {
            for _ in 0..n {
                *ts += 1;
                assert!(r.publish(Message::new("R", *ts).with("a", Scalar::Int(25))));
            }
            r.settle();
        };
        feed(&mut r, window, &mut ts);
        r.checkpoint_now(host);
        feed(&mut r, suffix, &mut ts);
        assert_eq!(r.retained(host) as u64, suffix, "exactly the suffix stays retained");
        (r, host)
    }

    /// The standing optimizer world behind `core/adapt-round-10k`:
    /// `n_queries` random queries over a 32-processor coordinator tree
    /// (k = 2, so clean subtrees abound), homed round-robin, plus the
    /// *dirty set* — the first `n_queries / 100` queries living on one
    /// single processor. Toggling only their loads between rounds leaves
    /// every other level-1 coordinator's inputs fingerprint-identical, so
    /// the incremental round re-coarsens one leaf and re-places one
    /// root-to-leaf path while the `-wholesale` twin redoes the world.
    pub struct AdaptWorld {
        /// Deployment backing the distributor.
        pub dep: cosmos_net::Deployment,
        /// Coordinator tree over the deployment's processors.
        pub tree: cosmos_core::hierarchy::CoordinatorTree,
        /// Substream rates.
        pub table: cosmos_pubsub::SubstreamTable,
        /// The query population.
        pub specs: Vec<cosmos_core::spec::QuerySpec>,
        /// The standing assignment each round adapts from.
        pub current: cosmos_core::spec::Assignment,
        /// Indices (into `specs`) of the ~1% of queries whose loads the
        /// benchmark toggles — all homed on a single processor.
        pub dirty: Vec<usize>,
    }

    /// Applies one load toggle to [`AdaptWorld`]'s dirty set: `step`
    /// alternates between ×1.05 and its exact inverse, so the population
    /// cycles through two statistics states instead of drifting. A free
    /// function (not a method) so callers can toggle `specs` while a
    /// `Distributor` borrows the world's deployment, tree, and table.
    pub fn toggle_dirty(specs: &mut [cosmos_core::spec::QuerySpec], dirty: &[usize], step: u64) {
        let f = if step.is_multiple_of(2) { 1.05 } else { 1.0 / 1.05 };
        for &i in dirty {
            specs[i].load *= f;
        }
    }

    /// The fixed optimizer seed shared by [`adapt_world`]'s settle rounds
    /// and the `core/adapt-round-*` benchmarks: the standing assignment is
    /// a fixpoint only under the seed that produced it.
    pub const ADAPT_SEED: u64 = 11;

    /// Builds the [`AdaptWorld`] — see its docs for the shape.
    pub fn adapt_world(n_queries: u64) -> AdaptWorld {
        use cosmos_core::spec::{Assignment, QuerySpec};
        use cosmos_util::rng::rng_for;
        use cosmos_util::InterestSet;
        use rand::Rng;

        const UNIVERSE: usize = 500;
        let seed = 5;
        let topo = TransitStubConfig::small().generate(seed);
        let dep = cosmos_net::Deployment::assign(topo, 4, 32, seed);
        let tree = cosmos_core::hierarchy::CoordinatorTree::build(&dep, 2);
        let table = cosmos_pubsub::SubstreamTable::random(UNIVERSE, 4, 1.0, 10.0, seed);
        let mut rng = rng_for(seed, "adapt-world");
        let procs = dep.processors();
        let specs: Vec<QuerySpec> = (0..n_queries)
            .map(|i| {
                let k = rng.gen_range(2..6);
                QuerySpec {
                    id: QueryId(i),
                    interest: InterestSet::from_indices(
                        UNIVERSE,
                        (0..k).map(|_| rng.gen_range(0..UNIVERSE)),
                    ),
                    load: rng.gen_range(0.5..2.0),
                    proxy: procs[rng.gen_range(0..procs.len())],
                    result_rate: rng.gen_range(0.1..1.0),
                    state_size: rng.gen_range(0.5..4.0),
                }
            })
            .collect();
        // Round-robin homes, then a few settle rounds with the benchmark's
        // seed: the standing assignment must be near the optimizer's
        // fixpoint, or every measured round would redo wholesale-scale
        // rebalancing and measure convergence, not churn handling.
        let mut current = Assignment::new();
        for (i, q) in specs.iter().enumerate() {
            current.place(q.id, procs[i % procs.len()]);
        }
        let d = cosmos_core::distribute::Distributor::new(&dep, &tree, &table);
        let config = cosmos_core::adaptive::AdaptConfig::default();
        for _ in 0..3 {
            let Ok(mut opt) = cosmos_core::IncrementalOptimizer::new(ADAPT_SEED, config);
            current = opt.round(&d, &specs, &current).assignment;
        }
        drop(d);
        // The dirty 1%: the settled queries of one processor (re-homed
        // there if the settle rounds left it short), so their churn lands
        // in exactly one level-1 leaf.
        let dirty_n = (n_queries / 100).max(1) as usize;
        let mut dirty: Vec<usize> = specs
            .iter()
            .enumerate()
            .filter(|(_, q)| current.processor_of(q.id) == Some(procs[0]))
            .map(|(i, _)| i)
            .take(dirty_n)
            .collect();
        for (i, q) in specs.iter().enumerate() {
            if dirty.len() >= dirty_n {
                break;
            }
            if current.processor_of(q.id) != Some(procs[0]) {
                current.place(q.id, procs[0]);
                dirty.push(i);
            }
        }
        AdaptWorld { dep, tree, table, specs, current, dirty }
    }

    /// Root seed of the end-to-end `placement-churn` workload's standing
    /// world (`e2ebench/src/workloads/placement_churn.rs`).
    pub const CHURN_SEED: u64 = 0xC4A2;

    /// `placement-churn`'s standing world as a micro fixture: the
    /// `PaperParams::scaled(0.05)` overlay with its 800 standing queries,
    /// not yet placed — what that workload's set-up hands the optimizer.
    pub fn churn_world() -> cosmos_workload::Simulation {
        let mut sim = cosmos_workload::Simulation::build(
            cosmos_workload::PaperParams::scaled(0.05),
            CHURN_SEED,
        );
        sim.arrivals(800, cosmos_util::rng::derive_seed(CHURN_SEED, "standing"));
        sim
    }

    /// The initial hierarchical distribution of [`churn_world`], under the
    /// seed the workload uses — the call behind `core/distribute-800-churn`.
    pub fn churn_distribute(
        sim: &cosmos_workload::Simulation,
    ) -> cosmos_core::distribute::DistOutcome {
        sim.distributor()
            .distribute(&sim.specs, cosmos_util::rng::derive_seed(CHURN_SEED, "distribute"))
    }

    /// The first `n` queries of [`churn_world`] as one query graph with
    /// exact pairwise edges, plus the substream rates — the input of
    /// `core/coarsen-dense-400`. Dense like the leaf graphs the optimizer
    /// builds (most query pairs share a substream), only larger than any
    /// single one of them.
    pub fn dense_query_graph(n: usize) -> (cosmos_core::QueryGraph, Vec<f64>) {
        use cosmos_core::graph::{edge_weight, QgVertex};
        let sim = churn_world();
        let rates = sim.table.rates().to_vec();
        let vertices = sim.specs[..n]
            .iter()
            .map(|s| {
                let interest = s.interest.clone();
                QgVertex::for_query(s.id, interest, s.load, s.proxy, s.result_rate, s.state_size)
            })
            .collect();
        let mut graph = cosmos_core::QueryGraph::new(vertices);
        for i in 0..n {
            for j in (i + 1)..n {
                let w = edge_weight(&graph.vertices[i], &graph.vertices[j], &rates);
                graph.set_edge(i, j, w);
            }
        }
        (graph, rates)
    }

    /// `members` mergeable queries with exactly two distinct residual
    /// conjunctions (alternating thresholds) — the duplicated-residual
    /// workload behind `engine/shared-split-*`.
    pub fn shared_split_queries(members: u64) -> Vec<(QueryId, Query)> {
        (0..members)
            .map(|i| {
                let th = if i % 2 == 0 { 10 } else { 20 };
                (
                    QueryId(i),
                    parse_query(&format!(
                        "SELECT R.v FROM R [Range 5 Seconds], S [Now] \
                         WHERE R.k = S.k AND R.v > {th}"
                    ))
                    .unwrap(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The covering-rich fixture is `filter-fanout`'s population, and what
    /// its install costs in covering work is exact: the range union of
    /// commit 858cd38 attempted 2 691 651 confirmations on it, counting
    /// 605 572 (32 568 held) while every prune was confirmed twice — as a
    /// table skip and as a hit in the forwarded-up set that stood beside
    /// the table. With the table as the only covering store a prune is the
    /// skip one hop up, confirmed once; tables and ledgers are unchanged
    /// (`install_footprints_are_pinned` below did not move). That made
    /// 415 916 attempts while each `(stream, hop)` group kept a covering
    /// copy of its entries' comparisons, scanned whole below 32 members —
    /// dead entries and all. Counting over the partition's own lists
    /// instead hands over only live members toward the hop whose counts
    /// complete: 107 677 attempts for the same 27 161 held, walking
    /// 3 161 031 list slots where the copies walked 1 714 795 (the lists
    /// also hold the stream's local and other-hop members).
    #[test]
    fn covering_rich_install_work_is_pinned() {
        let (mut net, subs) = fixtures::covering_rich_install(12_000);
        net.subscribe_batch(subs);
        let stats = net.cover_stats();
        assert_eq!((stats.attempted, stats.held), (107_677, 27_161));
    }

    /// What the covering-rich population's links carry is exact: 256 fixed
    /// probes, `filter-fanout`-shaped records over its four streams, cross
    /// 16 997 link hops carrying 1 284 158 bytes. A forward keeps what the
    /// members that matched it need; while it kept what every member
    /// toward the hop needed, the same hops carried 1 390 086 bytes.
    #[test]
    fn covering_rich_probe_traffic_is_pinned() {
        let (mut net, subs) = fixtures::covering_rich_install(12_000);
        net.subscribe_batch(subs);
        for k in 0..256i64 {
            let msg = Message::new(["T0", "T1", "T2", "T3"][k as usize % 4], k)
                .with("a", Scalar::Int(k * k % 600))
                .with("b", Scalar::Int(k * 389 % 1000))
                .with("c", Scalar::Int(k * 577 % 1000))
                .with("d", Scalar::Int(k * 7919))
                .with("e", Scalar::Str(format!("station-{}", k % 50)));
            net.publish(msg);
        }
        let links = net.all_link_stats();
        let messages: u64 = links.iter().map(|(_, s)| s.messages).sum();
        let bytes: u64 = links.iter().map(|(_, s)| s.bytes).sum();
        assert_eq!((messages, bytes), (16_997, 1_284_158));
    }

    /// What the routing state *holds* after the two install fixtures is
    /// exact too. On the result-stream plane every entry is the only
    /// member of its partition (27 879 entries, 27 879 partitions) and
    /// every forwarding entry the only member of its hop group (23 879).
    /// The covering-rich population shares 4 streams, so its tables hold
    /// few partitions, and the member count includes the tombstones of
    /// covering drops. Neither moved when covering began to count over the
    /// partitions' own lists instead of a per-hop-group copy of them.
    #[test]
    fn install_footprints_are_pinned() {
        let (mut net, subs) = fixtures::result_stream_install(4_000);
        net.subscribe_batch(subs);
        let fp = net.footprint();
        assert_eq!((fp.partitions, fp.members, fp.hop_groups), (27_879, 27_879, 23_879));
        let (mut net, subs) = fixtures::covering_rich_install(12_000);
        net.subscribe_batch(subs);
        let fp = net.footprint();
        assert_eq!((fp.partitions, fp.members, fp.hop_groups), (328, 35_920, 324));
    }

    /// What matching *does* is exact, and the same on every path that
    /// publishes: 64 probes over the 5 000-subscription scaling population
    /// visit as many candidates, bump as many counters and deliver as many
    /// records one message at a time as in one batch — it is one matcher. Each probe is matched at 38
    /// nodes and crosses 37 links; every candidate delivers or forwards
    /// (one predicate per subscription, no residuals, covering leaves one
    /// entry per hop), and the 30 bumps per probe that produce no
    /// candidate are references to covering-dropped tombstones.
    #[test]
    fn scaling_match_work_is_pinned_serial_and_batched() {
        let msgs: Vec<_> = (0..64).map(|_| fixtures::scaling_message()).collect();
        let mut serial = fixtures::broker_with_subs(5_000);
        for msg in &msgs {
            serial.publish(msg.clone());
        }
        let mut batched = fixtures::broker_with_subs(5_000);
        batched.publish_batch(&msgs);
        let work = serial.match_stats();
        assert_eq!(work, batched.match_stats(), "serial vs batched");
        assert_eq!(
            (work.messages, work.bumps, work.candidates, work.residual_evals),
            (2_432, 204_288, 202_368, 0)
        );
        assert_eq!((work.deliveries, work.forwards), (200_000, 2_368));
        assert_eq!(work.deliveries as usize, serial.log().len());
    }

    /// What the engines do on a small `sensor-join` population is exact:
    /// 80 generated queries in one engine, 20 sensors' readings fed in
    /// `(timestamp, sensor)` order. Every query joins `X [Range 10–60
    /// Seconds]` with `Y [Now]` on `X.timestamp = Y.timestamp`, so an `X`
    /// tuple older than the newest arrival can join nothing later, and a
    /// window keeps only what a later arrival can still join: each of the
    /// 1 551 probes emits, and the windows end holding 97 tuples, all of
    /// the last instant. While windows kept everything their width
    /// admitted, the same inputs made 85 035 probes and left 1 767 tuples;
    /// `ingested`, `filtered` and `emitted` read the same.
    #[test]
    fn sensor_join_engine_work_is_pinned() {
        use cosmos_engine::checkpoint::Recoverable;
        use cosmos_engine::exec::StreamEngine;
        let scenario = cosmos_workload::sensors::SensorScenario::build(20, 2, 6, 0x5E45);
        let mut engine = StreamEngine::new();
        for (id, query, _) in scenario.generate_cql(80, 0x5E45) {
            engine.add_query(id, query);
        }
        let mut records: Vec<_> =
            (0..20).flat_map(|s| scenario.readings(s, 120, 0, 1_000, 42)).collect();
        records.sort_by_key(|r| r.timestamp);
        let emitted: usize = records.into_iter().map(|r| engine.push(r).len()).sum();
        let stats = engine.total_stats();
        let retained: usize = engine
            .checkpoint()
            .queries
            .iter()
            .flat_map(|q| &q.buffers)
            .map(|b| b.tuples.len())
            .sum();
        assert_eq!(stats.emitted as usize, emitted);
        assert_eq!(stats.probes, stats.emitted, "every probe emits");
        assert_eq!(
            (stats.ingested, stats.filtered, stats.probes, stats.emitted),
            (12_107, 7_093, 1_551, 1_551)
        );
        assert_eq!(retained, 97);
    }

    /// The optimizer's work on `placement-churn`'s standing population is
    /// exact: 8 coordinator graphs of 1 010 vertices and 93 068 edges,
    /// coarsened by 754 collapses that re-estimate 107 606 edges. Re-pinned
    /// by PR 21, which changed what coarsening collapses (a pair with two
    /// homes only when the shared input outweighs the result flow given up)
    /// and so which coarse vertices the upper graphs are made of; from
    /// commit 3cbb866 until then it read 93 097 edges and 106 996
    /// re-estimates through every rewrite of the kernel. The query-level
    /// refinement that ends `distribute` then moves 188 of the 800 queries
    /// alone and 12 groups of a processor's readers of one substream, in 7
    /// sweeps of queries and of groups in turn, the last two moving none:
    /// 255 candidate targets priced with the movers lifted and 17 850
    /// dropped there at a partial sum, 74 groups lifted and 6 613 not (no
    /// leaf priced with the group in place beats staying). Re-pinned when
    /// groups began to move: it read 201 moves in 4 sweeps, 262 targets
    /// priced in full and 16 434 dropped at a partial sum.
    #[test]
    fn churn_distribute_work_is_pinned() {
        let out = fixtures::churn_distribute(&fixtures::churn_world());
        let stats = out.coarsen;
        assert_eq!(
            (stats.vertices, stats.edges, stats.collapses, stats.reestimated),
            (1_010, 93_068, 754, 107_606)
        );
        let r = out.refine;
        assert_eq!(
            (r.moves, r.substream_moves, r.passes, r.evaluated, r.pruned),
            (188, 12, 7, 255, 17_850)
        );
        assert_eq!((r.groups_evaluated, r.groups_pruned), (74, 6_613));
    }

    /// One incremental adaptation round on that placement, under the seed
    /// `placement-churn` adapts with, ends with the same refinement, priced
    /// for moving and held to phase 2's band. Its work is exact too: 36
    /// queries and 1 group moved in 7 sweeps, 38 targets priced with the
    /// movers lifted and 7 869 dropped there, 4 groups lifted and 6 284
    /// not. Re-pinned when groups began to move (it read 39 queries in 3
    /// sweeps, 44 targets priced in full and 9 253 dropped at a partial
    /// sum).
    #[test]
    fn churn_adapt_round_refine_work_is_pinned() {
        let mut sim = fixtures::churn_world();
        let placed = fixtures::churn_distribute(&sim);
        sim.apply(placed.assignment);
        let seed = cosmos_util::rng::derive_seed(fixtures::CHURN_SEED, "adapt");
        let mut opt = cosmos_core::IncrementalOptimizer::new(seed, Default::default())
            .expect("the default adaptation config is valid");
        let r = sim.adapt_round_incremental(&mut opt).refine;
        assert_eq!(
            (r.moves, r.substream_moves, r.passes, r.evaluated, r.pruned),
            (36, 1, 7, 38, 7_869)
        );
        assert_eq!((r.groups_evaluated, r.groups_pruned), (4, 6_284));
    }

    #[test]
    fn default_args() {
        // Can't touch process args in a test; just exercise the validators.
        let a = BenchArgs { scale: 0.5, seed: 1 };
        assert!(a.scale > 0.0);
    }

    #[test]
    fn write_result_smoke() {
        write_result("selftest", &serde_json::json!({"ok": true}));
    }
}

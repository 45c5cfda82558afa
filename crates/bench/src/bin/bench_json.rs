//! The micro-benchmark runner: every single-layer row the repository
//! measures is one `(name, fn)` entry of [`REGISTRY`], and this binary is
//! the only thing that runs them.
//!
//! It measures the hot paths one layer at a time — engine push, broker
//! publish and churn, join flatten/projection, predicate evaluation, the
//! optimizer's kernels, interest-vector math — and writes
//! `BENCH_micro.json` at the workspace root: one record per row with the
//! median ns per operation. `bench_check` guards that file in CI; PRs
//! quote it before/after hot-path work.
//!
//! ```text
//! cargo run --release -p cosmos-bench --bin bench_json [name-filter]
//! ```
//!
//! With a filter argument only the rows whose name contains it run, and
//! the snapshot file is left untouched — a partial run must never
//! masquerade as a full baseline. A filter that matches no row is an
//! error (exit 1, the registry's names listed): a typo must not read as a
//! clean run.

use cosmos_bench::fixtures::{
    adapt_world, arrival_sub, batch_round, broad_message, broker_with_broad_subs,
    broker_with_distinct_subs, broker_with_subs, checkpointed_engine, churn_distribute, churn_link,
    churn_node, churn_world, covering_rich_install, dense_query_graph, lossy_broker, recovery_host,
    result_stream_install, scaling_message, scaling_sub, shared_split_queries, toggle_dirty,
    ADAPT_SEED,
};
use cosmos_core::adaptive::{adapt_wholesale, AdaptConfig};
use cosmos_core::distribute::Distributor;
use cosmos_core::online::OnlineRouter;
use cosmos_core::IncrementalOptimizer;
use cosmos_engine::exec::{CompiledProjection, StreamEngine};
use cosmos_engine::tuple::{JoinedTuple, Tuple};
use cosmos_engine::{ProjPlanCache, Recoverable, SharedEngine};
use cosmos_oracle::ReferenceNetwork;
use cosmos_pubsub::broker::BrokerNetwork;
use cosmos_pubsub::subscription::{SubId, Subscription};
use cosmos_query::{parse_query, QueryId, Scalar};
use cosmos_util::InterestSet;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Where a full run writes its snapshot (the workspace root).
const SNAPSHOT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
const SAMPLES: usize = 21;
const TARGET_SAMPLE_NS: u128 = 8_000_000;

/// Median ns per call of `routine`, batched so timer noise amortizes: one
/// calibration call sizes the batch, then [`SAMPLES`] batches are timed.
/// `reset` runs untimed before every sample, for routines that accumulate
/// state (e.g. a broker's delivery log): memory stays bounded without
/// charging cleanup to the measurement.
fn measure_with_reset<T, O>(
    state: &mut T,
    mut routine: impl FnMut(&mut T) -> O,
    mut reset: impl FnMut(&mut T),
) -> f64 {
    let t0 = Instant::now();
    black_box(routine(state));
    let once = t0.elapsed().as_nanos().max(1);
    let batch = (TARGET_SAMPLE_NS / once).clamp(1, 2_000_000) as usize;
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        reset(state);
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine(state));
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// [`measure_with_reset`] for a routine with nothing to reset.
fn measure<O>(mut routine: impl FnMut() -> O) -> f64 {
    measure_with_reset(&mut (), |()| routine(), |()| {})
}

fn bench_engine_push() -> f64 {
    let mut engine = StreamEngine::new();
    for i in 0..20u64 {
        engine.add_query(
            QueryId(i),
            parse_query(&format!(
                "SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k AND R.v > {}",
                i * 5
            ))
            .unwrap(),
        );
    }
    let mut ts = 0i64;
    measure(|| {
        ts += 100;
        let r = Tuple::new("R", ts).with("k", Scalar::Int(ts % 5)).with("v", Scalar::Int(ts % 100));
        let s = Tuple::new("S", ts + 50).with("k", Scalar::Int(ts % 5)).with("v", Scalar::Int(1));
        engine.push(r);
        engine.push(s).len()
    })
}

fn bench_broker_publish(n_subs: u64) -> f64 {
    let mut net = broker_with_subs(n_subs);
    measure_with_reset(&mut net, |net| net.publish(scaling_message()), |net| net.reset_stats())
}

/// A fixture's population as it was subscribed, read back from the local
/// entries of its tables (every fixture numbers its subscriptions in
/// subscribe order).
fn population(net: &BrokerNetwork) -> Vec<Subscription> {
    let local = |n| net.table_entries(n).filter(|(_, to)| to.is_none()).map(|(sub, _)| sub.clone());
    let mut subs: Vec<Subscription> = net.topology().nodes().flat_map(local).collect();
    subs.sort_by_key(|sub| sub.id);
    subs
}

/// The from-scratch reference over a single-stream fixture's topology,
/// advertisement and population, tables built.
fn reference_of(net: &BrokerNetwork) -> ReferenceNetwork {
    let mut reference = ReferenceNetwork::new(net.topology().clone());
    reference.advertise("R", net.source_of("R").expect("the fixtures advertise R"));
    population(net).into_iter().for_each(|sub| reference.subscribe(sub));
    // The first look builds the tables: keep that off the clock.
    reference.publish(scaling_message());
    reset(&mut reference);
    reference
}

/// Drops what the publishes of one sample left behind.
fn reset(reference: &mut ReferenceNetwork) {
    reference.log.clear();
    reference.links.clear();
}

/// The reference's evaluate-every-entry publish on the same workload: the
/// baseline the indexed path's scaling is measured against.
fn bench_broker_publish_linear(n_subs: u64) -> f64 {
    let mut reference = reference_of(&broker_with_subs(n_subs));
    measure_with_reset(&mut reference, |net| net.publish(scaling_message()), reset)
}

/// Subscription churn against a standing population: one departure plus
/// one (identical) re-arrival per op, victims cycling through the
/// most-recent fifth of the population. The incremental path tears down
/// only the victim's ledgered footprint and re-propagates only its
/// covering dependents.
fn bench_broker_unsubscribe(n_subs: u64) -> f64 {
    let mut net = broker_with_subs(n_subs);
    let window = (n_subs / 5).max(1);
    let mut step = 0u64;
    measure(|| {
        let id = n_subs - window + (step % window);
        step += 1;
        net.unsubscribe(SubId(id));
        net.subscribe(scaling_sub(id));
    })
}

/// What any one of the incremental churn rows above and below would cost
/// done wholesale: a fresh network over the topology, the advertisement
/// and the `n_subs` survivors, through `new` / `advertise` /
/// `subscribe_batch`.
fn bench_broker_rebuild(n_subs: u64) -> f64 {
    let standing = broker_with_subs(n_subs);
    let (topo, subs) = (standing.topology().clone(), population(&standing));
    let source = standing.source_of("R").expect("the fixtures advertise R");
    measure(|| {
        let mut net = BrokerNetwork::new(topo.clone());
        net.advertise("R", source);
        net.subscribe_batch(subs.clone());
        net
    })
}

/// Subscription *arrival* against a covering-sparse standing population:
/// one fresh distinct subscription installed and incrementally removed
/// per op. Install cost is the covering resolution at every path hop —
/// the counting index run in reverse over the partition's own threshold
/// lists, where a scan of the node's entries would grow with the
/// population.
fn bench_broker_subscribe(n_subs: u64) -> f64 {
    let mut net = broker_with_distinct_subs(n_subs);
    measure(|| {
        net.subscribe(arrival_sub(n_subs));
        net.unsubscribe(SubId(n_subs));
    })
}

/// [`bench_broker_subscribe`] at a 100 000-subscription standing
/// population: the tiered threshold lists bound every install
/// probe by run size plus a directory descent, so the per-arrival cost
/// stays near the 5000-pop point instead of scaling with the population.
fn bench_broker_subscribe_100k() -> f64 {
    let pop = 100_000u64;
    let mut net = broker_with_distinct_subs(pop);
    measure(|| {
        net.subscribe(arrival_sub(pop));
        net.unsubscribe(SubId(pop));
    })
}

/// One batch install of the 12 000 covering-rich subscriptions of
/// [`covering_rich_install`] on a fresh network per op — the shape the
/// end-to-end `filter-fanout` set-up spends its time in. The fixture is
/// rebuilt in the untimed reset.
fn bench_broker_subscribe_batch_covering_rich() -> f64 {
    let mut fixture = covering_rich_install(12_000);
    measure_with_reset(
        &mut fixture,
        |(net, subs)| net.subscribe_batch(std::mem::take(subs)),
        |fixture| *fixture = covering_rich_install(12_000),
    )
}

/// One batch install of the 4 000 single-subscriber result streams of
/// [`result_stream_install`] on a fresh network per op — the per-user
/// plane of the end-to-end `sensor-join` set-up, where every hop opens a
/// stream partition for one member. The fixture is rebuilt in the
/// untimed reset.
fn bench_broker_subscribe_batch_result_streams() -> f64 {
    let mut fixture = result_stream_install(4_000);
    measure_with_reset(
        &mut fixture,
        |(net, subs)| net.subscribe_batch(std::mem::take(subs)),
        |fixture| *fixture = result_stream_install(4_000),
    )
}

/// A 64-message same-stream batch against the 5000-subscription distinct
/// population, one `publish_batch` call per op: one routing descent, one
/// counter epoch, and one match-scratch reuse for the whole batch. The
/// `-serial` twin publishes the identical 64 messages one at a time; the
/// gap is the amortization win. Reported time is per *batch*, so the
/// twins compare directly.
fn bench_broker_publish_batch(n_subs: u64, serial: bool) -> f64 {
    let mut net = broker_with_distinct_subs(n_subs);
    let msgs = batch_round(64, n_subs);
    measure_with_reset(
        &mut net,
        |net| {
            if serial {
                msgs.iter().map(|m| net.publish(m.clone())).sum::<usize>()
            } else {
                net.publish_batch(&msgs)
            }
        },
        |net| net.reset_stats(),
    )
}

/// Link churn against a standing population: one failure plus one
/// recovery of a dissemination-tree stub link per op. The incremental
/// path recomputes one source tree and re-routes only the subtree's
/// subscribers.
fn bench_broker_fail_link(n_subs: u64) -> f64 {
    let mut net = broker_with_subs(n_subs);
    let (a, b, lat) = churn_link(&net);
    measure(|| {
        assert!(net.fail_link(a, b));
        assert!(net.restore_link(a, b, lat));
    })
}

/// Whole-node churn against a standing population: one broker crash plus
/// one recovery per op (a non-subscriber transit node, so the population
/// stays in steady state). The incremental path tears down only the
/// ledgered footprint routed through the crashed broker and re-homes the
/// moved subtrees.
fn bench_broker_fail_node(n_subs: u64) -> f64 {
    let mut net = broker_with_subs(n_subs);
    let n = churn_node(&net);
    measure(|| {
        let edges = net.fail_node(n).expect("churn node is attached");
        assert!(net.restore_node(n, &edges));
    })
}

/// One publish driven through the reliable-delivery plane to quiescence.
/// At `drop = 0.05` every twentieth frame is retransmitted after an RTO;
/// the `-clean` twin runs the identical window/ack machinery with no
/// faults, so the gap prices retransmit overhead alone.
fn bench_broker_publish_lossy(n_subs: u64, drop: f64) -> f64 {
    let mut lossy = lossy_broker(n_subs, drop);
    measure_with_reset(
        &mut lossy,
        |net| {
            assert!(net.publish_lossy(scaling_message()));
            net.run_to_quiescence();
        },
        |net| net.reset_stats(),
    )
}

fn bench_broker_publish_broad(n_subs: u64) -> f64 {
    let mut net = broker_with_broad_subs(n_subs);
    measure_with_reset(&mut net, |net| net.publish(broad_message()), |net| net.reset_stats())
}

fn bench_broker_publish_broad_linear(n_subs: u64) -> f64 {
    let mut reference = reference_of(&broker_with_broad_subs(n_subs));
    measure_with_reset(&mut reference, |net| net.publish(broad_message()), reset)
}

/// Shared execution with heavily duplicated residuals: 50 members merge
/// into one covering query with only two distinct residual conjunctions,
/// so residual-group splitting evaluates 2 filter sets per shared result
/// instead of 50.
fn bench_shared_split(members: u64) -> f64 {
    let mut shared = SharedEngine::build(shared_split_queries(members));
    assert_eq!(shared.group_count(), 1, "bench members must merge into one group");
    assert!(shared.residual_set_count() <= 3, "residuals must deduplicate");
    let mut ts = 0i64;
    measure(|| {
        ts += 100;
        let r = Tuple::new("R", ts).with("k", Scalar::Int(ts % 10)).with("v", Scalar::Int(ts % 40));
        let s = Tuple::new("S", ts + 50).with("k", Scalar::Int(ts % 10)).with("v", Scalar::Int(1));
        shared.push(r);
        shared.push(s).len()
    })
}

/// One checkpoint extract + restore of an engine with `n_tuples`
/// buffered across a long-window join: the per-cycle cost an operator
/// pays for crash durability, dominated by cloning the window
/// population into (and back out of) the snapshot.
fn bench_engine_checkpoint(n_tuples: u64) -> f64 {
    let engine = checkpointed_engine(n_tuples);
    let mut target = checkpointed_engine(0);
    measure(|| {
        let cp = engine.checkpoint();
        target.restore(&cp);
        cp.watermark
    })
}

/// One full crash/restore cycle of an engine host against a standing
/// 5000-subscription population: fail the broker node (incremental
/// teardown + subtree re-homing), restore it, re-install the engine's
/// subscription, restore the checkpoint, and replay the retained
/// 32-record suffix in verify mode. The broker-churn half is priced
/// alone by `broker/fail-node-5000-pop`; the gap is the recovery layer.
fn bench_broker_recover_engine(n_subs: u64) -> f64 {
    let (mut r, host) = recovery_host(n_subs, 512, 32);
    measure(|| {
        r.crash_host(host);
        r.restore_host(host);
        r.output_log(host).len()
    })
}

/// The end-to-end `placement-churn` workload's optimizer set-up as a micro
/// row: hierarchical distribution of its 800 standing queries — eight
/// dense coordinator graphs built, coarsened, and mapped.
fn bench_distribute_churn() -> f64 {
    let sim = churn_world();
    measure(|| churn_distribute(&sim).assignment.len())
}

/// Algorithm 1 on one dense 400-vertex graph, like the optimizer's leaf
/// graphs, down to the default `vmax` of 64. `coarsen` consumes its
/// graph, so each sample also clones it: a copy plus Algorithm 1, what
/// the row has always measured.
fn bench_coarsen_dense() -> f64 {
    let (graph, rates) = dense_query_graph(400);
    measure(|| cosmos_core::coarsen::coarsen(graph.clone(), 64, &rates, &|_| None, 3).stats)
}

/// One adaptation round over a 10 000-query world whose statistics churn
/// touches 1% of the queries, all homed on one processor — one dirty
/// level-1 leaf per round. The incremental optimizer rebuilds and
/// re-coarsens that leaf's graph, re-scores the root-to-leaf path, and
/// fingerprint-reuses every other subtree's coarsening and placement;
/// the `-wholesale` twin recomputes the whole pipeline with the same
/// seed, producing the identical assignment. The gap is the delta-driven
/// optimizer's claim.
fn bench_adapt_round(n_queries: u64, wholesale: bool) -> f64 {
    let cosmos_bench::fixtures::AdaptWorld { dep, tree, table, mut specs, current, dirty } =
        adapt_world(n_queries);
    let config = AdaptConfig::default();
    let seed = ADAPT_SEED;
    let mut opt = IncrementalOptimizer::new(seed, config).expect("default config is valid");
    let d = Distributor::new(&dep, &tree, &table);
    if !wholesale {
        // Warm the caches: the benchmark prices the steady churn state,
        // not the cold first round.
        let _ = opt.round(&d, &specs, &current);
    }
    let mut step = 0u64;
    measure(|| {
        toggle_dirty(&mut specs, &dirty, step);
        step += 1;
        let out = if wholesale {
            adapt_wholesale(&d, &specs, &current, &config, seed)
        } else {
            opt.round(&d, &specs, &current)
        };
        out.migrations
    })
}

/// The incremental round with *no* churn at all: every coordinator's
/// inputs fingerprint-match, so this prices the memoization layer's fixed
/// overhead (fingerprint recomputation, cache lookups, assignment splice)
/// — the floor under `core/adapt-round-10k`.
fn bench_adapt_round_quiet() -> f64 {
    let cosmos_bench::fixtures::AdaptWorld { dep, tree, table, specs, current, .. } =
        adapt_world(10_000);
    let config = AdaptConfig::default();
    let mut opt = IncrementalOptimizer::new(ADAPT_SEED, config).expect("default config is valid");
    let d = Distributor::new(&dep, &tree, &table);
    let _ = opt.round(&d, &specs, &current);
    measure(|| opt.round(&d, &specs, &current).migrations)
}

fn bench_flatten_project() -> f64 {
    let projection = parse_query(
        "SELECT A.v, B.v FROM R [Now] A, R [Now] B, R [Now] C \
         WHERE A.k = B.k AND B.k = C.k",
    )
    .unwrap()
    .projection;
    let part = |name: &str, ts: i64| {
        (
            name.into(),
            Arc::new(
                Tuple::new("R", ts)
                    .with("k", Scalar::Int(1))
                    .with("v", Scalar::Int(ts))
                    .with("w", Scalar::Int(2 * ts)),
            ),
        )
    };
    let joined = JoinedTuple::new(vec![part("A", 1), part("B", 2), part("C", 3)]);
    let result = cosmos_engine::exec::ResultTuple { query: QueryId(1), joined };
    // The steady-state emit path: projection compiled once, flatten and
    // projection plans hung off owner-attached caches (allocation-free
    // apart from the output payloads).
    let compiled = CompiledProjection::compile(&projection);
    let mut flatten_cache = ProjPlanCache::new();
    let mut plan_cache = ProjPlanCache::new();
    measure(|| {
        let flat = result.joined.flatten_cached(&mut flatten_cache, "res");
        let projected = result.project_cached(&compiled, &mut plan_cache, "res");
        (flat.timestamp, projected.timestamp)
    })
}

fn bench_predicate_eval() -> f64 {
    // Selection-heavy single-relation workload: predicate evaluation and
    // pushed-down filtering dominate.
    let mut engine = StreamEngine::new();
    for i in 0..50u64 {
        engine.add_query(
            QueryId(i),
            parse_query(&format!("SELECT * FROM R [Now] WHERE R.v > {} AND R.k = 1", i * 2))
                .unwrap(),
        );
    }
    let mut ts = 0i64;
    measure(|| {
        ts += 10;
        engine
            .push(Tuple::new("R", ts).with("k", Scalar::Int(1)).with("v", Scalar::Int(ts % 100)))
            .len()
    })
}

/// Interest-vector math (§3.2) between two 150-substream interests drawn
/// over a universe of `universe` substreams: the rate-weighted overlap
/// behind every query-graph edge, or (`weighted == false`) the bare
/// intersection test.
fn bench_interest_sets(universe: usize, weighted: bool) -> f64 {
    use rand::Rng;
    let mut rng = cosmos_util::rng::rng_for(1, "bench-bitset");
    let a = InterestSet::from_indices(universe, (0..150).map(|_| rng.gen_range(0..universe)));
    let b = InterestSet::from_indices(universe, (0..150).map(|_| rng.gen_range(0..universe)));
    let rates: Vec<f64> = (0..universe).map(|i| 1.0 + (i % 10) as f64).collect();
    if weighted {
        measure(|| a.weighted_overlap(&b, &rates))
    } else {
        measure(|| a.overlaps(&b))
    }
}

/// 500 generated queries over the `PaperParams::scaled(0.05)` world (its
/// k = 4 coordinator tree included) — the population behind
/// `core/distribute-500-*` and `core/online-route-at-root`.
fn workload_world() -> cosmos_workload::Simulation {
    let mut sim = cosmos_workload::Simulation::build(cosmos_workload::PaperParams::scaled(0.05), 7);
    sim.arrivals(500, 8);
    sim
}

/// Graph mapping (Algorithm 2) of [`workload_world`] down its coordinator
/// tree, against the one-coordinator `centralized` mapping.
fn bench_distribute(centralized: bool) -> f64 {
    let sim = workload_world();
    let d = sim.distributor();
    if centralized {
        measure(|| d.distribute_centralized(&sim.specs, 5).assignment.len())
    } else {
        measure(|| d.distribute(&sim.specs, 5).assignment.len())
    }
}

/// One online routing decision (§3.6) at the root coordinator of a tree
/// seeded with [`workload_world`]'s distributed population.
fn bench_online_route() -> f64 {
    let sim = workload_world();
    let assignment = sim.distributor().distribute(&sim.specs, 5).assignment;
    let mut router = OnlineRouter::new(&sim.dep, &sim.tree, &sim.table, 0.1);
    router.seed_from(&sim.specs, &assignment);
    measure(|| router.route_at(sim.tree.root(), &sim.specs[0]))
}

/// The Hu–Blake diffusion solve (§3.7) over 64 fully connected children.
fn bench_diffusion() -> f64 {
    let loads: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 3.0).collect();
    let edges: Vec<(usize, usize)> =
        (0..64).flat_map(|i| ((i + 1)..64).map(move |j| (i, j))).collect();
    measure(|| cosmos_util::solver::diffusion_solution(&loads, &edges))
}

/// Containment check and merge of the paper's Q3 / Q4 pair.
fn bench_containment_merge() -> f64 {
    let q3 = parse_query(
        "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
         WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
    )
    .unwrap();
    let q4 = parse_query(
        "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
         FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
         WHERE S1.snowHeight > S2.snowHeight",
    )
    .unwrap();
    measure(|| cosmos_query::merge_queries(&[(QueryId(3), &q3), (QueryId(4), &q4)]))
}

/// Sets up one row's fixture, measures it, returns its median ns per op.
type BenchFn = fn() -> f64;

/// Every micro-benchmark row, in snapshot order: the name `BENCH_micro.json`
/// and `bench_check` know it by, and the function that measures it.
const REGISTRY: &[(&str, BenchFn)] = &[
    ("engine/push-20-queries", bench_engine_push),
    ("engine/flatten-project", bench_flatten_project),
    ("engine/predicate-eval-50-queries", bench_predicate_eval),
    ("broker/publish-50-subs", || bench_broker_publish(50)),
    ("broker/publish-500-subs", || bench_broker_publish(500)),
    ("broker/publish-5000-subs", || bench_broker_publish(5000)),
    ("broker/publish-500-subs-linear", || bench_broker_publish_linear(500)),
    ("broker/publish-5000-subs-linear", || bench_broker_publish_linear(5000)),
    ("broker/publish-500-subs-broad", || bench_broker_publish_broad(500)),
    ("broker/publish-500-subs-broad-linear", || bench_broker_publish_broad_linear(500)),
    ("broker/subscribe-5000-pop", || bench_broker_subscribe(5000)),
    ("broker/subscribe-100k-pop", bench_broker_subscribe_100k),
    ("broker/subscribe-batch-12k-covering-rich", bench_broker_subscribe_batch_covering_rich),
    ("broker/subscribe-batch-4k-result-streams", bench_broker_subscribe_batch_result_streams),
    ("broker/publish-batch-64", || bench_broker_publish_batch(5000, false)),
    ("broker/publish-batch-64-serial", || bench_broker_publish_batch(5000, true)),
    ("broker/unsubscribe-5000-pop", || bench_broker_unsubscribe(5000)),
    ("broker/fail-link-5000-pop", || bench_broker_fail_link(5000)),
    ("broker/fail-node-5000-pop", || bench_broker_fail_node(5000)),
    ("broker/rebuild-5000-pop", || bench_broker_rebuild(5000)),
    ("broker/publish-lossy-5pct", || bench_broker_publish_lossy(5000, 0.05)),
    ("broker/publish-lossy-clean", || bench_broker_publish_lossy(5000, 0.0)),
    ("core/distribute-800-churn", bench_distribute_churn),
    ("core/coarsen-dense-400", bench_coarsen_dense),
    ("core/adapt-round-10k", || bench_adapt_round(10_000, false)),
    ("core/adapt-round-10k-quiet", bench_adapt_round_quiet),
    ("core/adapt-round-10k-wholesale", || bench_adapt_round(10_000, true)),
    ("engine/shared-split-50-members", || bench_shared_split(50)),
    ("engine/checkpoint-5000-window", || bench_engine_checkpoint(5000)),
    ("broker/recover-engine-5000-pop", || bench_broker_recover_engine(5000)),
    ("util/weighted-overlap-2000", || bench_interest_sets(2_000, true)),
    ("util/weighted-overlap-20000", || bench_interest_sets(20_000, true)),
    ("util/overlaps-2000", || bench_interest_sets(2_000, false)),
    ("util/overlaps-20000", || bench_interest_sets(20_000, false)),
    ("core/distribute-500-hierarchical", || bench_distribute(false)),
    ("core/distribute-500-centralized", || bench_distribute(true)),
    ("core/online-route-at-root", bench_online_route),
    ("util/diffusion-64-children", bench_diffusion),
    ("query/containment-merge-pair", bench_containment_merge),
];

fn main() -> ExitCode {
    let filter = std::env::args().nth(1);
    let mut rows = Vec::new();
    for &(name, f) in REGISTRY {
        if filter.as_deref().is_some_and(|pat| !name.contains(pat)) {
            continue;
        }
        let median = f();
        println!("{name:<36} median {median:>12.1} ns/op");
        rows.push(serde_json::json!({"name": name, "median_ns": median}));
    }
    if let Some(pat) = filter {
        if rows.is_empty() {
            eprintln!("bench_json: no row name contains {pat:?}; the rows are:");
            for (name, _) in REGISTRY {
                eprintln!("  {name}");
            }
            return ExitCode::FAILURE;
        }
        println!("(filtered run; not writing the snapshot)");
        return ExitCode::SUCCESS;
    }
    // Core count travels with the numbers: thread-count variants are only
    // comparable between snapshots taken on hosts with the same
    // parallelism, and `bench_check` skips them otherwise.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = serde_json::json!({"meta": {"cores": cores}, "benchmarks": rows});
    match serde_json::to_string_pretty(&out) {
        Ok(body) => {
            std::fs::write(SNAPSHOT_PATH, body + "\n").expect("write BENCH_micro.json");
            println!("(wrote {SNAPSHOT_PATH})");
        }
        Err(e) => {
            eprintln!("could not serialize results: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{REGISTRY, SNAPSHOT_PATH};
    use std::collections::BTreeSet;

    /// The registry and the committed snapshot name the same rows, once
    /// each: a renamed or vanished row fails here, not only in the CI
    /// guard after a full benchmark run.
    #[test]
    fn registry_names_are_unique_and_match_the_committed_snapshot() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|&(name, _)| name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate row name in the registry");
        let body = std::fs::read_to_string(SNAPSHOT_PATH).expect("BENCH_micro.json is committed");
        let snapshot = cosmos_bench::parse(&body);
        let committed: BTreeSet<&str> = snapshot.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(committed.len(), snapshot.len(), "duplicate row name in BENCH_micro.json");
        assert_eq!(names, committed, "regenerate BENCH_micro.json alongside a registry change");
    }
}

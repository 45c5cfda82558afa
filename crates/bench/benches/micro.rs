//! Criterion micro-benchmarks for the hot paths of the COSMOS middleware:
//! interest-vector math (§3.2), coarsening (Algorithm 1), graph mapping
//! (Algorithm 2), online routing (§3.6), load diffusion (§3.7), the
//! Pub/Sub broker, and the stream engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cosmos_bench::fixtures::{
    arrival_sub, batch_round, broad_message, broker_with_broad_subs, broker_with_distinct_subs,
    broker_with_subs, checkpointed_engine, churn_distribute, churn_link, churn_node, churn_world,
    covering_rich_install, dense_query_graph, lossy_broker, recovery_host, result_stream_install,
    scaling_message, scaling_sub, shared_split_queries,
};
use cosmos_core::coarsen::coarsen_wholesale;
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::online::OnlineRouter;
use cosmos_core::spec::QuerySpec;
use cosmos_engine::exec::StreamEngine;
use cosmos_engine::tuple::Tuple;
use cosmos_net::Deployment;
use cosmos_pubsub::subscription::SubId;
use cosmos_pubsub::SubstreamTable;
use cosmos_query::{parse_query, QueryId, Scalar};
use cosmos_util::rng::rng_for;
use cosmos_util::solver::diffusion_solution;
use cosmos_util::InterestSet;
use cosmos_workload::generator::QueryGenerator;
use cosmos_workload::{PaperParams, WorkloadConfig};
use rand::Rng;

fn bench_interest_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("interest-set");
    for universe in [2_000usize, 20_000] {
        let mut rng = rng_for(1, "bench-bitset");
        let a = InterestSet::from_indices(universe, (0..150).map(|_| rng.gen_range(0..universe)));
        let b = InterestSet::from_indices(universe, (0..150).map(|_| rng.gen_range(0..universe)));
        let rates: Vec<f64> = (0..universe).map(|i| 1.0 + (i % 10) as f64).collect();
        group.bench_with_input(
            BenchmarkId::new("weighted_overlap", universe),
            &universe,
            |bench, _| bench.iter(|| black_box(a.weighted_overlap(&b, &rates))),
        );
        group.bench_with_input(BenchmarkId::new("overlaps", universe), &universe, |bench, _| {
            bench.iter(|| black_box(a.overlaps(&b)))
        });
    }
    group.finish();
}

fn workload_fixture() -> (Deployment, SubstreamTable, Vec<QuerySpec>) {
    let params = PaperParams::scaled(0.05);
    let topo = params.topology.generate(7);
    let dep = Deployment::assign(topo, params.n_sources, params.n_processors, 7);
    let table = SubstreamTable::random(
        params.n_substreams,
        params.n_sources,
        params.rate_min,
        params.rate_max,
        7,
    );
    let mut generator = QueryGenerator::new(WorkloadConfig::from_params(&params), 7);
    let specs = generator.generate(500, &dep, &table, 8);
    (dep, table, specs)
}

/// The snapshot runner's `core/coarsen-dense-400` and
/// `core/distribute-800-churn`, on the same shared fixtures.
fn bench_coarsen(c: &mut Criterion) {
    let (graph, rates) = dense_query_graph(400);
    c.bench_function("core/coarsen-dense-400", |bench| {
        bench.iter(|| black_box(coarsen_wholesale(&graph, 64, &rates, &|_| None, 3)))
    });
    let sim = churn_world();
    c.bench_function("core/distribute-800-churn", |bench| {
        bench.iter(|| black_box(churn_distribute(&sim)))
    });
}

fn bench_distribution(c: &mut Criterion) {
    let (dep, table, specs) = workload_fixture();
    let tree = CoordinatorTree::build(&dep, 4);
    let d = Distributor::new(&dep, &tree, &table);
    let mut group = c.benchmark_group("distribute");
    group.sample_size(10);
    group.bench_function("hierarchical/500q", |bench| {
        bench.iter(|| black_box(d.distribute(&specs, 5)))
    });
    group.bench_function("centralized/500q", |bench| {
        bench.iter(|| black_box(d.distribute_centralized(&specs, 5)))
    });
    group.finish();
}

/// The `core/adapt-round-*` twins of the snapshot runner, at a smaller
/// population so the criterion run stays interactive: one stat-delta
/// round touching 1% of the queries through the incremental optimizer,
/// against the wholesale recompute producing the identical assignment.
fn bench_adapt_round(c: &mut Criterion) {
    use cosmos_bench::fixtures::{adapt_world, toggle_dirty, AdaptWorld, ADAPT_SEED};
    use cosmos_core::adaptive::{adapt_wholesale, AdaptConfig};
    use cosmos_core::IncrementalOptimizer;

    let AdaptWorld { dep, tree, table, mut specs, current, dirty } = adapt_world(2_000);
    let config = AdaptConfig::default();
    let d = Distributor::new(&dep, &tree, &table);
    let mut group = c.benchmark_group("adapt-round");
    group.sample_size(10);
    let mut opt = IncrementalOptimizer::new(ADAPT_SEED, config).expect("default config is valid");
    let _ = opt.round(&d, &specs, &current);
    let mut step = 0u64;
    group.bench_function("incremental/2000q", |bench| {
        bench.iter(|| {
            toggle_dirty(&mut specs, &dirty, step);
            step += 1;
            black_box(opt.round(&d, &specs, &current).migrations)
        })
    });
    group.bench_function("wholesale/2000q", |bench| {
        bench.iter(|| {
            toggle_dirty(&mut specs, &dirty, step);
            step += 1;
            black_box(adapt_wholesale(&d, &specs, &current, &config, ADAPT_SEED).migrations)
        })
    });
    group.finish();
}

fn bench_online_routing(c: &mut Criterion) {
    let (dep, table, specs) = workload_fixture();
    let tree = CoordinatorTree::build(&dep, 4);
    let d = Distributor::new(&dep, &tree, &table);
    let assignment = d.distribute(&specs, 5).assignment;
    drop(d);
    let mut router = OnlineRouter::new(&dep, &tree, &table, 0.1);
    router.seed_from(&specs, &assignment);
    let probe = &specs[0];
    c.bench_function("online/route_at_root", |bench| {
        bench.iter(|| black_box(router.route_at(tree.root(), probe)))
    });
}

fn bench_diffusion(c: &mut Criterion) {
    let loads: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 3.0).collect();
    let edges: Vec<(usize, usize)> =
        (0..64).flat_map(|i| ((i + 1)..64).map(move |j| (i, j))).collect();
    c.bench_function("diffusion/64-children", |bench| {
        bench.iter(|| black_box(diffusion_solution(&loads, &edges)))
    });
}

fn bench_broker(c: &mut Criterion) {
    // Scaling points for the sublinear-matching claim (the delivery log is
    // drained periodically so long runs stay memory-bounded; the amortized
    // cost is negligible).
    for n_subs in [50u64, 500, 5000] {
        let mut net = broker_with_subs(n_subs);
        c.bench_function(&format!("pubsub/publish-{n_subs}-subs"), |bench| {
            bench.iter(|| {
                let n = net.publish(scaling_message());
                if net.log().len() > 250_000 {
                    net.reset_stats();
                }
                black_box(n)
            })
        });
    }
    // The linear-scan reference points: the gap to the indexed
    // `publish-*-subs` twins is the index's win.
    for n_subs in [500u64, 5000] {
        let mut net = broker_with_subs(n_subs);
        c.bench_function(&format!("pubsub/publish-{n_subs}-subs-linear"), |bench| {
            bench.iter(|| {
                let n = net.publish_linear(scaling_message());
                if net.log().len() > 250_000 {
                    net.reset_stats();
                }
                black_box(n)
            })
        });
    }
    // High-match-rate points: delivery volume dominates, so the gap
    // between the indexed path and its linear twin is the projection-class
    // dedup plus zero-copy delivery.
    let mut net = broker_with_broad_subs(500);
    c.bench_function("pubsub/publish-500-subs-broad", |bench| {
        bench.iter(|| {
            let n = net.publish(broad_message());
            if net.log().len() > 250_000 {
                net.reset_stats();
            }
            black_box(n)
        })
    });
    let mut net = broker_with_broad_subs(500);
    c.bench_function("pubsub/publish-500-subs-broad-linear", |bench| {
        bench.iter(|| {
            let n = net.publish_linear(broad_message());
            if net.log().len() > 250_000 {
                net.reset_stats();
            }
            black_box(n)
        })
    });
}

/// Parallel publish over a frozen routing snapshot: N persistent readers
/// each publish a strided share of a 64-message round through the same
/// immutable snapshot; the reported time is the round divided by its
/// message count, comparable to `pubsub/publish-5000-subs`. Thread counts
/// beyond the host's cores only measure scheduling overhead.
fn bench_broker_parallel(c: &mut Criterion) {
    const ROUND: usize = 64;
    for threads in [1usize, 2, 4, 8] {
        let net = broker_with_subs(5000);
        let snap = net.snapshot();
        let mut readers: Vec<_> = (0..threads).map(|_| snap.reader()).collect();
        c.bench_function(&format!("pubsub/publish-par-{threads}-threads"), |bench| {
            bench.iter(|| {
                let delivered: usize = std::thread::scope(|scope| {
                    let handles: Vec<_> = readers
                        .iter_mut()
                        .enumerate()
                        .map(|(t, reader)| {
                            scope.spawn(move || {
                                for k in (t..ROUND).step_by(threads) {
                                    reader.publish_at(k as u64, scaling_message());
                                }
                                reader.take_output().delivered()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum()
                });
                black_box(delivered)
            })
        });
    }
}

/// Batched ingestion and the large-population arrival point — the
/// criterion twins of `bench_json`'s `broker/publish-batch-64{,-serial}`
/// and `broker/subscribe-100k-pop`. The batch pair runs a 64-message
/// same-stream round against the distinct (≈1 match per message)
/// population, where fixed per-hop overheads dominate and batching
/// amortizes them; the 100k arrival point checks that the tiered
/// threshold lists keep install cost near the 5000-pop point.
fn bench_broker_batch(c: &mut Criterion) {
    let msgs = batch_round(64, 5000);
    let mut net = broker_with_distinct_subs(5000);
    c.bench_function("broker/publish-batch-64", |bench| {
        bench.iter(|| {
            let n = net.publish_batch(&msgs);
            if net.log().len() > 250_000 {
                net.reset_stats();
            }
            black_box(n)
        })
    });
    let mut net = broker_with_distinct_subs(5000);
    c.bench_function("broker/publish-batch-64-serial", |bench| {
        bench.iter(|| {
            let n: usize = msgs.iter().map(|m| net.publish(m.clone())).sum();
            if net.log().len() > 250_000 {
                net.reset_stats();
            }
            black_box(n)
        })
    });
    let pop = 100_000u64;
    let mut net = broker_with_distinct_subs(pop);
    let mut group = c.benchmark_group("broker-subscribe-100k");
    group.sample_size(10);
    group.bench_function("subscribe-100k-pop", |bench| {
        bench.iter(|| {
            net.subscribe(arrival_sub(pop));
            net.unsubscribe(SubId(pop));
        })
    });
    group.finish();
    // The covering-rich arrival shape (`filter-fanout`'s set-up): one
    // batch install of 12 000 mutually covering subscriptions on a fresh
    // 496-node overlay. Each iteration rebuilds the fixture (≈ a tenth of
    // the install); `bench_json` resets it untimed.
    let mut group = c.benchmark_group("broker-subscribe-batch");
    group.sample_size(10);
    group.bench_function("subscribe-batch-12k-covering-rich", |bench| {
        bench.iter(|| {
            let (mut net, subs) = covering_rich_install(12_000);
            net.subscribe_batch(subs);
            black_box(net.table_len(cosmos_net::NodeId(0)))
        })
    });
    // The per-user result-stream shape (`sensor-join`'s set-up): 4 000
    // streams with one filterless subscriber each, so every path hop
    // opens a single-member partition. Rebuilt per iteration as above.
    group.bench_function("subscribe-batch-4k-result-streams", |bench| {
        bench.iter(|| {
            let (mut net, subs) = result_stream_install(4_000);
            net.subscribe_batch(subs);
            black_box(net.table_len(cosmos_net::NodeId(0)))
        })
    });
    group.finish();
}

/// Control-plane churn against a 5000-subscription standing population:
/// departure + identical re-arrival, and stub-link failure + recovery.
/// The incremental ledger touches only the victim's footprint (plus its
/// covering dependents); the `-wholesale` twins rebuild the world and are
/// the baseline the sublinear-churn claim is measured against.
fn bench_broker_churn(c: &mut Criterion) {
    let n_subs = 5000u64;
    // Subscription arrival against a covering-sparse standing population
    // (one fresh distinct subscription installed and incrementally
    // removed per op): the covering buckets resolve every path hop's
    // covering queries from binary-searched threshold skeletons; the
    // -linear twin runs the reference scans over the same (identical)
    // routing state.
    let mut net = broker_with_distinct_subs(n_subs);
    c.bench_function("pubsub/subscribe-5000-pop", |bench| {
        bench.iter(|| {
            net.subscribe(arrival_sub(n_subs));
            net.unsubscribe(SubId(n_subs));
        })
    });
    let mut net = broker_with_distinct_subs(n_subs);
    net.set_linear_install(true);
    let mut group = c.benchmark_group("pubsub-subscribe-linear");
    group.sample_size(10);
    group.bench_function("subscribe-5000-pop-linear", |bench| {
        bench.iter(|| {
            net.subscribe(arrival_sub(n_subs));
            net.unsubscribe(SubId(n_subs));
        })
    });
    group.finish();
    let window = n_subs / 5;
    let mut net = broker_with_subs(n_subs);
    let mut step = 0u64;
    c.bench_function("pubsub/unsubscribe-5000-pop", |bench| {
        bench.iter(|| {
            let id = n_subs - window + (step % window);
            step += 1;
            net.unsubscribe(SubId(id));
            net.subscribe(scaling_sub(id));
        })
    });
    let mut net = broker_with_subs(n_subs);
    let mut step = 0u64;
    let mut group = c.benchmark_group("pubsub-churn-wholesale");
    group.sample_size(10);
    group.bench_function("unsubscribe-5000-pop-wholesale", |bench| {
        bench.iter(|| {
            let id = n_subs - window + (step % window);
            step += 1;
            net.unsubscribe_wholesale(SubId(id));
            net.subscribe(scaling_sub(id));
        })
    });
    group.finish();
    let mut net = broker_with_subs(n_subs);
    let (a, b, lat) = churn_link(&net);
    c.bench_function("pubsub/fail-link-5000-pop", |bench| {
        bench.iter(|| {
            assert!(net.fail_link(a, b));
            assert!(net.restore_link(a, b, lat));
        })
    });
    let mut net = broker_with_subs(n_subs);
    let mut group = c.benchmark_group("pubsub-churn-wholesale");
    group.sample_size(10);
    group.bench_function("fail-link-5000-pop-wholesale", |bench| {
        bench.iter(|| {
            assert!(net.fail_link_wholesale(a, b));
            assert!(net.restore_link_wholesale(a, b, lat));
        })
    });
    group.finish();
    // Whole-node crash + recovery of a non-subscriber transit broker: the
    // incremental path re-homes only the subtrees routed through it.
    let mut net = broker_with_subs(n_subs);
    let n = churn_node(&net);
    c.bench_function("pubsub/fail-node-5000-pop", |bench| {
        bench.iter(|| {
            let edges = net.fail_node(n).expect("churn node is attached");
            assert!(net.restore_node(n, &edges));
        })
    });
    let mut net = broker_with_subs(n_subs);
    let mut group = c.benchmark_group("pubsub-churn-wholesale");
    group.sample_size(10);
    group.bench_function("fail-node-5000-pop-wholesale", |bench| {
        bench.iter(|| {
            let edges = net.fail_node_wholesale(n).expect("churn node is attached");
            assert!(net.restore_node_wholesale(n, &edges));
        })
    });
    group.finish();
}

/// One publish driven through the reliable-delivery plane to quiescence,
/// at 5% drop (every twentieth frame retransmitted after an RTO) vs the
/// identical window/ack machinery over a clean schedule — the gap prices
/// retransmit overhead alone.
fn bench_broker_lossy(c: &mut Criterion) {
    for (name, drop) in [("pubsub/publish-lossy-5pct", 0.05), ("pubsub/publish-lossy-clean", 0.0)] {
        let mut lossy = lossy_broker(5000, drop);
        c.bench_function(name, |bench| {
            bench.iter(|| {
                assert!(lossy.publish_lossy(scaling_message()));
                lossy.run_to_quiescence();
                // Drained periodically so long runs stay memory-bounded.
                if lossy.delivered() > 250_000 {
                    lossy.reset_stats();
                }
            })
        });
    }
}

/// Shared execution with heavily duplicated residuals: 50 members, one
/// merged group, two distinct residual conjunctions.
fn bench_shared_split(c: &mut Criterion) {
    let mut shared = cosmos_engine::SharedEngine::build(shared_split_queries(50));
    assert_eq!(shared.group_count(), 1);
    let mut ts = 0i64;
    c.bench_function("engine/shared-split-50-members", |bench| {
        bench.iter(|| {
            ts += 100;
            let r =
                Tuple::new("R", ts).with("k", Scalar::Int(ts % 10)).with("v", Scalar::Int(ts % 40));
            let s =
                Tuple::new("S", ts + 50).with("k", Scalar::Int(ts % 10)).with("v", Scalar::Int(1));
            shared.push(r);
            black_box(shared.push(s).len())
        })
    });
}

fn bench_engine(c: &mut Criterion) {
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
    c.bench_function("engine/push-20-queries", |bench| {
        bench.iter(|| {
            ts += 100;
            let r =
                Tuple::new("R", ts).with("k", Scalar::Int(ts % 5)).with("v", Scalar::Int(ts % 100));
            let s =
                Tuple::new("S", ts + 50).with("k", Scalar::Int(ts % 5)).with("v", Scalar::Int(1));
            engine.push(r);
            black_box(engine.push(s).len())
        })
    });
}

/// Checkpoint extract + restore of a 5000-tuple window population, and
/// a full crash/restore cycle of an engine host against the standing
/// 5000-subscription broker population — the recovery-plane twins of
/// `bench_json`'s `engine/checkpoint-5000-window` and
/// `broker/recover-engine-5000-pop`.
fn bench_recovery(c: &mut Criterion) {
    let engine = checkpointed_engine(5000);
    let mut target = checkpointed_engine(0);
    c.bench_function("engine/checkpoint-5000-window", |bench| {
        bench.iter(|| {
            let cp = engine.checkpoint();
            target.restore(&cp);
            black_box(cp.watermark)
        })
    });
    let (mut r, host) = recovery_host(5000, 512, 32);
    c.bench_function("broker/recover-engine-5000-pop", |bench| {
        bench.iter(|| {
            r.crash_host(host);
            r.restore_host(host);
            black_box(r.output_log(host).len())
        })
    });
}

fn bench_containment(c: &mut Criterion) {
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
    c.bench_function("containment/merge-pair", |bench| {
        bench.iter(|| {
            black_box(cosmos_query::merge_queries(&[(QueryId(3), &q3), (QueryId(4), &q4)]))
        })
    });
}

criterion_group!(
    benches,
    bench_interest_sets,
    bench_coarsen,
    bench_distribution,
    bench_adapt_round,
    bench_online_routing,
    bench_diffusion,
    bench_broker,
    bench_broker_parallel,
    bench_broker_batch,
    bench_broker_churn,
    bench_broker_lossy,
    bench_engine,
    bench_shared_split,
    bench_recovery,
    bench_containment,
);
criterion_main!(benches);

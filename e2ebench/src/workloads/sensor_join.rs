//! `sensor-join`: the paper's §4.2 prototype, and the only workload that
//! crosses every layer. Window-join queries arrive as CQL text, are placed
//! on processors by the distributor, run in one `StreamEngine` per
//! processor fed by the brokers, and their projected results travel on one
//! result stream per query to the user's proxy. The reconfiguration is a
//! user reconnecting: the proxy's subscription leaves and returns.

use crate::harness::{Ctx, Scale, Verdict, Workload, BATCH, RECONFIG};
use crate::measure::{
    delivery_hash, link_latencies, multiset_difference, quantile, Counts, LinkLedger,
};
use crate::trace::Tracer;
use crate::workloads::{drain, modelled_cost, BATCH_LEN, RESULT, SOURCE};
use cosmos_baselines::random_assignment;
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_engine::exec::{CompiledProjection, EngineStats, ProjPlanCache, StreamEngine};
use cosmos_net::NodeId;
use cosmos_pubsub::{BrokerNetwork, Message, StreamProjection, SubId, Subscription};
use cosmos_query::{parse_query, Query, QueryId};
use cosmos_util::rng::{derive_seed, rng_for};
use cosmos_util::stats::stddev;
use cosmos_util::Symbol;
use cosmos_workload::sensors::SensorScenario;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What stands still is the workload, like its sizes: the overlay, the
/// roles on it, the users' queries and where they are placed. `--seed`
/// draws what flows through: the readings, and who reconnects when.
const STANDING_SEED: u64 = 0x5E45;
/// Subscription ids of the processors' input feeds; query ids stay below.
const HOST_SUB_BASE: u64 = 1 << 32;
const READING_PERIOD_MS: i64 = 1_000;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub sensors: usize,
    pub sources: usize,
    pub processors: usize,
    pub queries: usize,
    pub readings_per_sensor: usize,
    pub batches_per_unit: usize,
    pub singles_per_unit: usize,
    pub reconfigs_per_unit: usize,
}

pub fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            sensors: 100,
            sources: 5,
            processors: 30,
            queries: 4000,
            readings_per_sensor: 2000,
            batches_per_unit: 8,
            singles_per_unit: 32,
            reconfigs_per_unit: 4,
        },
        Scale::Test => Size {
            sensors: 20,
            sources: 2,
            processors: 6,
            queries: 80,
            readings_per_sensor: 60,
            batches_per_unit: 2,
            singles_per_unit: 4,
            reconfigs_per_unit: 1,
        },
    }
}

pub fn scenario(size: &Size) -> SensorScenario {
    SensorScenario::build(size.sensors, size.sources, size.processors, STANDING_SEED)
}

/// The CQL population as text with each user's proxy, and every sensor's
/// readings interleaved in `(timestamp, sensor)` order.
pub fn generate_population(
    seed: u64,
    size: &Size,
) -> (Vec<(QueryId, String, NodeId)>, Vec<Message>) {
    let scenario = scenario(size);
    let queries = scenario
        .generate_cql(size.queries, STANDING_SEED)
        .into_iter()
        .map(|(id, q, proxy)| (id, q.to_string(), proxy))
        .collect();
    let mut records = Vec::with_capacity(size.sensors * size.readings_per_sensor);
    for s in 0..size.sensors {
        records.extend(scenario.readings(s, size.readings_per_sensor, 0, READING_PERIOD_MS, seed));
    }
    // Stable: sensors were appended in order, so ties keep sensor order.
    records.sort_by_key(|r| r.timestamp);
    (queries, records)
}

pub struct Inputs {
    scale: Scale,
    size: Size,
    queries: Vec<(QueryId, String, NodeId)>,
    records: Vec<Message>,
    /// Query indices whose proxy reconnects, in order.
    reconfigs: Vec<usize>,
}

/// What placement decides, shared with `lossy-recovery`.
pub struct Placement {
    pub scenario: SensorScenario,
    pub queries: Vec<(QueryId, Query, NodeId)>,
    pub specs: Vec<QuerySpec>,
    pub assignment: Assignment,
    /// Processors hosting at least one query, with their queries in id
    /// order.
    pub hosts: Vec<(NodeId, Vec<(QueryId, Query)>)>,
}

/// Parse → scenario → specs → coordinator tree → distribute.
pub fn place(
    texts: &[(QueryId, String, NodeId)],
    size: &Size,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Placement {
    let queries: Vec<(QueryId, Query, NodeId)> = tracer.scope("query.parse", || {
        texts
            .iter()
            .map(|(id, text, proxy)| {
                (*id, parse_query(text).expect("generated CQL parses"), *proxy)
            })
            .collect()
    });
    counts.set("query.parse.calls", queries.len() as f64);
    let scenario = tracer.scope("net.build", || scenario(size));
    let (specs, assignment) = tracer.scope("core.distribute", || {
        let specs: Vec<QuerySpec> =
            queries.iter().map(|(id, q, proxy)| scenario.to_spec(*id, q, *proxy)).collect();
        let tree = CoordinatorTree::build(&scenario.dep, 2);
        let out = Distributor::new(&scenario.dep, &tree, &scenario.table)
            .distribute(&specs, derive_seed(STANDING_SEED, "distribute"));
        (specs, out.assignment)
    });
    counts.set("core.distribute.queries", specs.len() as f64);
    let mut by_host: BTreeMap<NodeId, Vec<(QueryId, Query)>> = BTreeMap::new();
    for (id, q, _) in &queries {
        let host = assignment.processor_of(*id).expect("every query is placed");
        by_host.entry(host).or_default().push((*id, q.clone()));
    }
    Placement { scenario, queries, specs, assignment, hosts: by_host.into_iter().collect() }
}

/// Placement quality, computed outside the timed set-up.
pub fn placement_counts(p: &Placement, counts: &mut Counts) {
    let dep = &p.scenario.dep;
    let random = random_assignment(&p.specs, dep, derive_seed(STANDING_SEED, "random-placement"));
    let cost = |a: &Assignment| modelled_cost(dep, &p.scenario.table, &p.specs, a);
    counts.set("core.distribute.cost_vs_random", cost(&p.assignment) / cost(&random));
    counts.set("core.load_stddev", stddev(&p.assignment.loads(&p.specs, dep.processors())));
}

struct Host {
    engine: StreamEngine,
    inbox: Vec<Message>,
    /// Simulated latency from each source node to this host.
    from_source: Vec<f64>,
}

pub struct System {
    placement: Placement,
    net: BrokerNetwork,
    hosts: Vec<Host>,
    /// Per query id: projection, its plan cache, result stream, the
    /// proxy's subscription, simulated latency host → proxy.
    projections: Vec<CompiledProjection>,
    plans: Vec<ProjPlanCache>,
    result_streams: Vec<Symbol>,
    proxy_subs: Vec<Subscription>,
    to_proxy: Vec<f64>,
    source_of_stream: HashMap<Symbol, usize>,
    latency: BTreeMap<(NodeId, NodeId), f64>,
    source_ledger: LinkLedger,
    result_ledger: LinkLedger,
    results: Vec<Message>,
    result_delays_ms: Vec<f64>,
    cursor: usize,
    next_reconfig: usize,
}

pub struct SensorJoin;

impl Workload for SensorJoin {
    const NAME: &'static str = "sensor-join";
    type Inputs = Inputs;
    type System = System;

    fn fixed_units(scale: Scale) -> (usize, usize) {
        match scale {
            Scale::Full => (16, 4),
            Scale::Test => (4, 4),
        }
    }

    fn generate(seed: u64, scale: Scale) -> Inputs {
        let size = size(scale);
        let (queries, records) = generate_population(seed, &size);
        let mut rng = rng_for(seed, "join-reconfigs");
        let reconfigs = (0..1024).map(|_| rng.gen_range(0..size.queries)).collect();
        Inputs { scale, size, queries, records, reconfigs }
    }

    fn setup(inputs: &Inputs, tracer: &mut Tracer, counts: &mut Counts) -> System {
        let placement = place(&inputs.queries, &inputs.size, tracer, counts);
        let scenario = &placement.scenario;
        let dep = &scenario.dep;

        tracer.enter("pubsub.install");
        let mut net = BrokerNetwork::new(dep.topology().clone());
        for name in &scenario.streams {
            net.advertise(name.as_str(), scenario.stream_source[name]);
        }
        let mut subs = Vec::with_capacity(placement.hosts.len() + placement.queries.len());
        for (h, (node, queries)) in placement.hosts.iter().enumerate() {
            let sensors: BTreeSet<&str> = queries.iter().flat_map(|(_, q)| q.streams()).collect();
            let mut feed = Subscription::builder(*node).id(SubId(HOST_SUB_BASE + h as u64));
            for sensor in sensors {
                feed = feed.stream(sensor, StreamProjection::All, vec![]);
            }
            subs.push(feed.build());
        }
        let result_streams: Vec<Symbol> = placement
            .queries
            .iter()
            .map(|(id, _, _)| Symbol::intern(&format!("q{}", id.0)))
            .collect();
        let mut proxy_subs = Vec::with_capacity(placement.queries.len());
        for (id, _, proxy) in &placement.queries {
            let stream = result_streams[id.0 as usize];
            let host = placement.assignment.processor_of(*id).expect("every query is placed");
            net.advertise(stream, host);
            proxy_subs.push(
                Subscription::builder(*proxy)
                    .id(SubId(id.0))
                    .stream(stream, StreamProjection::All, vec![])
                    .build(),
            );
        }
        subs.extend(proxy_subs.iter().cloned());
        let installed = subs.len();
        net.subscribe_batch(subs);
        tracer.exit();
        counts.set("pubsub.install.subs", installed as f64);
        let entries: usize = dep.topology().nodes().map(|n| net.table_len(n)).sum();
        counts.set("pubsub.table_entries", entries as f64);

        tracer.enter("engine.build");
        let hosts: Vec<Host> = placement
            .hosts
            .iter()
            .map(|(node, queries)| {
                let mut engine = StreamEngine::new();
                for (id, q) in queries {
                    engine.add_query(*id, q.clone());
                }
                let from_source = dep.sources().iter().map(|&s| dep.distance(s, *node)).collect();
                Host { engine, inbox: Vec::new(), from_source }
            })
            .collect();
        let projections: Vec<CompiledProjection> = placement
            .queries
            .iter()
            .map(|(_, q, _)| CompiledProjection::compile(&q.projection))
            .collect();
        let plans = placement.queries.iter().map(|_| ProjPlanCache::new()).collect();
        tracer.exit();
        counts.set("engine.queries", placement.queries.len() as f64);

        let to_proxy = placement
            .queries
            .iter()
            .map(|(id, _, proxy)| {
                let host = placement.assignment.processor_of(*id).expect("every query is placed");
                dep.distance(host, *proxy)
            })
            .collect();
        let source_of_stream = scenario
            .streams
            .iter()
            .enumerate()
            .map(|(i, name)| (Symbol::intern(name), scenario.table.source_index(i)))
            .collect();
        let latency = link_latencies(dep.topology());
        System {
            placement,
            net,
            hosts,
            projections,
            plans,
            result_streams,
            proxy_subs,
            to_proxy,
            source_of_stream,
            latency,
            source_ledger: LinkLedger::default(),
            result_ledger: LinkLedger::default(),
            results: Vec::new(),
            result_delays_ms: Vec::new(),
            cursor: 0,
            next_reconfig: 0,
        }
    }

    fn unit(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) -> bool {
        let size = &inputs.size;
        let need = size.batches_per_unit * BATCH_LEN + size.singles_per_unit;
        if sys.cursor + need > inputs.records.len() {
            return false;
        }
        let mut batch_s = 0.0;
        for _ in 0..size.batches_per_unit {
            let msgs = &inputs.records[sys.cursor..sys.cursor + BATCH_LEN];
            sys.cursor += BATCH_LEN;
            let t = ctx.begin(BATCH);
            ctx.tracer.scope("pubsub.source", || sys.net.publish_batch(msgs));
            through_engines(sys, ctx, BATCH_LEN);
            let s = ctx.end(t);
            ctx.sample_batch(s);
            batch_s += s;
        }
        ctx.sample_unit((size.batches_per_unit * BATCH_LEN) as u64, batch_s);
        for _ in 0..size.singles_per_unit {
            let msg = inputs.records[sys.cursor].clone();
            sys.cursor += 1;
            let t = ctx.begin(BATCH);
            ctx.tracer.scope("pubsub.single", || sys.net.publish(msg));
            through_engines(sys, ctx, 1);
            let s = ctx.end(t);
            ctx.sample_single(s);
        }
        for _ in 0..size.reconfigs_per_unit {
            let q = inputs.reconfigs[sys.next_reconfig % inputs.reconfigs.len()];
            sys.next_reconfig += 1;
            let sub = sys.proxy_subs[q].clone();
            let t = ctx.begin(RECONFIG);
            ctx.tracer.scope("pubsub.unsubscribe", || sys.net.unsubscribe(sub.id));
            ctx.tracer.scope("pubsub.subscribe", || sys.net.subscribe(sub));
            let s = ctx.end(t);
            ctx.sample_reconfig(s);
            ctx.counts.add("pubsub.unsubscribe.calls", 1.0);
            ctx.counts.add("pubsub.subscribe.calls", 1.0);
        }
        true
    }

    fn finish_fixed(sys: &mut System, _: &Inputs, ctx: &mut Ctx) {
        let c = &mut ctx.counts;
        let records = c.get("pubsub.source.records");
        let (src, res) = (&sys.source_ledger, &sys.result_ledger);
        c.set("pubsub.source.link_msgs", src.messages() as f64);
        c.set("pubsub.source.link_bytes", src.bytes() as f64);
        c.set("pubsub.result.link_msgs", res.messages() as f64);
        c.set("pubsub.result.link_bytes", res.bytes() as f64);
        let deliveries = c.get("pubsub.source.deliveries") + c.get("pubsub.result.deliveries");
        c.set(
            "pubsub.link_msgs_per_delivery",
            (src.messages() + res.messages()) as f64 / deliveries,
        );
        c.set("pipeline.results_per_record", c.get("pubsub.result.deliveries") / records);
        c.set("comm_cost_per_record", (src.cost(&sys.latency) + res.cost(&sys.latency)) / records);
        engine_counts(sys.hosts.iter().map(|h| h.engine.total_stats()), c);
        c.set("pipeline.result_delay_p50_ms", quantile(&mut sys.result_delays_ms, 0.5));
        c.set("pipeline.result_delay_p99_ms", quantile(&mut sys.result_delays_ms, 0.99));
        sys.result_delays_ms = Vec::new();
        placement_counts(&sys.placement, c);
    }

    /// One engine holding every query, fed the captured records directly:
    /// its projected results are what the proxies must have received.
    fn verify(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) -> Verdict {
        let size = &inputs.size;
        let (_, units) = Self::fixed_units(inputs.scale);
        let records = units * (size.batches_per_unit * BATCH_LEN + size.singles_per_unit);
        let mut engine = StreamEngine::new();
        for (id, q, _) in &sys.placement.queries {
            engine.add_query(*id, q.clone());
        }
        let mut expected = Vec::with_capacity(ctx.delivered.len());
        for msg in &inputs.records[..records] {
            for r in engine.push(msg.clone()) {
                let q = r.query.0 as usize;
                let projected = r.project_compiled(&sys.projections[q], sys.result_streams[q]);
                expected.push(delivery_hash(r.query.0, &projected));
            }
        }
        let mismatches = multiset_difference(&mut expected, &mut ctx.delivered);
        let mut problems = Vec::new();
        if mismatches > 0 {
            problems
                .push(format!("{mismatches} proxy deliveries differ from the single-engine run"));
        }
        if expected.is_empty() {
            problems.push("the verified prefix produced no results".to_string());
        }
        Verdict { verified_records: records as u64, mismatches, problems }
    }
}

/// The engines' own counters, summed over the hosts.
pub fn engine_counts(per_host: impl Iterator<Item = EngineStats>, c: &mut Counts) {
    let (mut ingested, mut filtered, mut probes, mut emitted) = (0u64, 0u64, 0u64, 0u64);
    for s in per_host {
        ingested += s.ingested;
        filtered += s.filtered;
        probes += s.probes;
        emitted += s.emitted;
    }
    c.set("engine.ingested", ingested as f64);
    c.set("engine.filtered", filtered as f64);
    c.set("engine.probes", probes as f64);
    c.set("engine.emitted", emitted as f64);
    c.set("engine.emit_per_probe", emitted as f64 / probes as f64);
}

/// The rest of the loop after the source publish: each processor's feed
/// goes through its engine in publish order, results are projected and
/// re-published on their queries' result streams, and the proxies'
/// deliveries are consumed.
fn through_engines(sys: &mut System, ctx: &mut Ctx, published: usize) {
    let log = sys.net.log().deliveries();
    for d in log {
        sys.hosts[(d.sub.0 - HOST_SUB_BASE) as usize].inbox.push(d.message.clone());
    }
    if ctx.fixed {
        ctx.counts.add("engine.push.records", log.len() as f64);
    }
    ctx.attempted += published as u64;
    drain(&mut sys.net, &mut sys.source_ledger, ctx, SOURCE, published);

    let mut emitted = Vec::new();
    // Per pushed record: its stream and where its results start.
    let mut marks: Vec<(Symbol, usize)> = Vec::new();
    for host in &mut sys.hosts {
        if host.inbox.is_empty() {
            continue;
        }
        ctx.tracer.enter("engine.push");
        for msg in host.inbox.drain(..) {
            marks.push((msg.stream, emitted.len()));
            emitted.extend(host.engine.push(msg));
        }
        ctx.tracer.exit();
        if ctx.fixed {
            // Simulated source → host → proxy latency of every result.
            marks.push((sys.result_streams[0], emitted.len()));
            for pair in marks.windows(2) {
                let from_source = host.from_source[sys.source_of_stream[&pair[0].0]];
                for r in &emitted[pair[0].1..pair[1].1] {
                    sys.result_delays_ms.push(from_source + sys.to_proxy[r.query.0 as usize]);
                }
            }
        }
        marks.clear();
        ctx.tracer.enter("engine.project");
        for r in emitted.drain(..) {
            let q = r.query.0 as usize;
            sys.results.push(r.project_cached(
                &sys.projections[q],
                &mut sys.plans[q],
                sys.result_streams[q],
            ));
        }
        ctx.tracer.exit();
    }

    let results = &sys.results;
    ctx.tracer.scope("pubsub.result", || sys.net.publish_batch(results));
    for d in sys.net.log().deliveries() {
        ctx.deliver(d.sub.0, &d.message);
    }
    drain(&mut sys.net, &mut sys.result_ledger, ctx, RESULT, sys.results.len());
    sys.results.clear();
}

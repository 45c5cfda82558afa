//! `filter-fanout`: pub/sub only. Thousands of single-stream selection
//! queries arrive as CQL text, become filtered, projecting subscriptions
//! at random processors of a 496-node overlay, and every record is
//! matched, forwarded, projected and delivered by the brokers alone. The
//! reconfiguration is the same index used for writes beside the reads: one
//! subscription leaves and returns.

use crate::harness::{Ctx, Scale, Verdict, Workload, BATCH, RECONFIG};
use crate::measure::{delivery_hash, link_latencies, multiset_difference, Counts, LinkLedger};
use crate::trace::Tracer;
use crate::workloads::{drain, BATCH_LEN, SOURCE};
use cosmos_net::{Deployment, NodeId};
use cosmos_pubsub::{BrokerNetwork, Message, StreamProjection, SubId, Subscription};
use cosmos_query::{parse_query, ProjItem, Query, Scalar};
use cosmos_util::rng::rng_for;
use cosmos_workload::PaperParams;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// What stands still is the workload, like its sizes: the overlay, the
/// roles on it and the subscription population. `--seed` draws what flows
/// through: the records, and which subscriptions leave and return.
const STANDING_SEED: u64 = 0xF17E;
const STREAMS: [&str; 4] = ["T0", "T1", "T2", "T3"];

#[derive(Debug, Clone, Copy)]
struct Size {
    subs: usize,
    /// Batches in the record pool; the loop cycles through it (matching
    /// is stateless, so a repeated record costs what a fresh one does).
    pool_batches: usize,
    batches_per_unit: usize,
    singles_per_unit: usize,
    reconfigs_per_unit: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            subs: 12000,
            pool_batches: 256,
            batches_per_unit: 8,
            singles_per_unit: 4,
            reconfigs_per_unit: 2,
        },
        Scale::Test => Size {
            subs: 80,
            pool_batches: 8,
            batches_per_unit: 2,
            singles_per_unit: 4,
            reconfigs_per_unit: 1,
        },
    }
}

pub struct Inputs {
    scale: Scale,
    size: Size,
    /// `(CQL text, subscriber)`; the index is the subscription id.
    subs: Vec<(String, NodeId)>,
    /// `pool_batches` runs of `BATCH_LEN` records, one stream per run.
    pool: Vec<Message>,
    singles: Vec<Message>,
    /// Subscription indices to take out and put back, in order.
    reconfigs: Vec<usize>,
}

pub struct System {
    net: BrokerNetwork,
    subs: Vec<Subscription>,
    latency: BTreeMap<(NodeId, NodeId), f64>,
    ledger: LinkLedger,
    next_batch: usize,
    next_single: usize,
    next_reconfig: usize,
}

fn deployment() -> Deployment {
    let topo = PaperParams::scaled(0.1).topology.generate(STANDING_SEED);
    Deployment::assign(topo, STREAMS.len(), 26, STANDING_SEED)
}

/// Cube-skewed point in `0..10_000`: a few hot values, a long tail.
fn skewed_point(rng: &mut impl Rng) -> i64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    (10_000.0 * u * u * u) as i64
}

fn record(rng: &mut impl Rng, stream: &str, ts: i64) -> Message {
    Message::new(stream, ts)
        .with("a", Scalar::Int(skewed_point(rng)))
        .with("b", Scalar::Int(rng.gen_range(0..1000)))
        .with("c", Scalar::Int(rng.gen_range(0..1000)))
        .with("d", Scalar::Int(rng.gen_range(0..1_000_000)))
        .with("e", Scalar::Str(format!("station-{}", rng.gen_range(0..50))))
}

/// A single-stream selection query becomes one subscription: its `SELECT`
/// list is the projection, its `WHERE` conjuncts are the filters.
fn subscription(id: SubId, at: NodeId, q: &Query) -> Subscription {
    let stream = q.relations[0].stream.as_str();
    let attrs: Option<Vec<&str>> = q
        .projection
        .iter()
        .map(|p| match p {
            ProjItem::Attr(a) => Some(a.attr.as_str()),
            _ => None,
        })
        .collect();
    let projection = attrs.map_or(StreamProjection::All, StreamProjection::attrs);
    Subscription::builder(at).id(id).stream(stream, projection, q.predicates.clone()).build()
}

pub struct FilterFanout;

impl Workload for FilterFanout {
    const NAME: &'static str = "filter-fanout";
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
        let dep = deployment();
        let procs = dep.processors();
        let mut rng = rng_for(STANDING_SEED, "fanout-subs");
        let shapes = ["*", "a", "a, b", "b, c", "a, b, c", "d", "c, d, e", "a, e"];
        let subs = (0..size.subs)
            .map(|_| {
                let t = STREAMS[rng.gen_range(0..STREAMS.len())];
                let shape = shapes[rng.gen_range(0..shapes.len())];
                let select = shape
                    .split(", ")
                    .map(|a| if a == "*" { a.to_string() } else { format!("{t}.{a}") })
                    .collect::<Vec<_>>()
                    .join(", ");
                // Thresholds lean towards the selective end, smoothly: every
                // record matches someone, few match many.
                let b = 1000 - skewed_point(&mut rng) / 10;
                let kind = rng.gen_range(0..20);
                let filter = if kind < 12 {
                    format!("{t}.a = {} AND {t}.b > {b}", skewed_point(&mut rng))
                } else if kind < 19 {
                    format!("{t}.b > {b} AND {t}.c <= {}", skewed_point(&mut rng) / 10)
                } else {
                    format!("{t}.b > {b}")
                };
                let text = format!("SELECT {select} FROM {t} [Now] WHERE {filter}");
                (text, procs[rng.gen_range(0..procs.len())])
            })
            .collect();
        let mut rng = rng_for(seed, "fanout-records");
        let mut pool = Vec::with_capacity(size.pool_batches * BATCH_LEN);
        for b in 0..size.pool_batches {
            for i in 0..BATCH_LEN {
                pool.push(record(&mut rng, STREAMS[b % STREAMS.len()], (b * BATCH_LEN + i) as i64));
            }
        }
        let singles = (0..size.pool_batches * 8)
            .map(|i| {
                let stream = STREAMS[rng.gen_range(0..STREAMS.len())];
                record(&mut rng, stream, i as i64)
            })
            .collect();
        let mut rng = rng_for(seed, "fanout-reconfigs");
        let reconfigs = (0..1024).map(|_| rng.gen_range(0..size.subs)).collect();
        Inputs { scale, size, subs, pool, singles, reconfigs }
    }

    fn setup(inputs: &Inputs, tracer: &mut Tracer, counts: &mut Counts) -> System {
        let queries: Vec<Query> = tracer.scope("query.parse", || {
            inputs
                .subs
                .iter()
                .map(|(text, _)| parse_query(text).expect("generated CQL parses"))
                .collect()
        });
        counts.set("query.parse.calls", queries.len() as f64);
        let (dep, mut net) = tracer.scope("net.build", || {
            let dep = deployment();
            let net = BrokerNetwork::new(dep.topology().clone());
            (dep, net)
        });
        let subs: Vec<Subscription> = queries
            .iter()
            .zip(&inputs.subs)
            .enumerate()
            .map(|(i, (q, (_, at)))| subscription(SubId(i as u64), *at, q))
            .collect();
        tracer.scope("pubsub.install", || {
            for (stream, &source) in STREAMS.iter().zip(dep.sources()) {
                net.advertise(*stream, source);
            }
            net.subscribe_batch(subs.clone());
        });
        counts.set("pubsub.install.subs", subs.len() as f64);
        let entries: usize = dep.topology().nodes().map(|n| net.table_len(n)).sum();
        counts.set("pubsub.table_entries", entries as f64);
        let latency = link_latencies(dep.topology());
        System {
            net,
            subs,
            latency,
            ledger: LinkLedger::default(),
            next_batch: 0,
            next_single: 0,
            next_reconfig: 0,
        }
    }

    fn unit(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) -> bool {
        let size = &inputs.size;
        let mut batch_s = 0.0;
        for _ in 0..size.batches_per_unit {
            let at = (sys.next_batch % size.pool_batches) * BATCH_LEN;
            sys.next_batch += 1;
            let msgs = &inputs.pool[at..at + BATCH_LEN];
            let t = ctx.begin(BATCH);
            ctx.tracer.scope("pubsub.source", || sys.net.publish_batch(msgs));
            absorb(sys, ctx, BATCH_LEN);
            let s = ctx.end(t);
            ctx.sample_batch(s);
            batch_s += s;
        }
        ctx.sample_unit((size.batches_per_unit * BATCH_LEN) as u64, batch_s);
        for _ in 0..size.singles_per_unit {
            let msg = inputs.singles[sys.next_single % inputs.singles.len()].clone();
            sys.next_single += 1;
            let t = ctx.begin(BATCH);
            ctx.tracer.scope("pubsub.single", || sys.net.publish(msg));
            absorb(sys, ctx, 1);
            let s = ctx.end(t);
            ctx.sample_single(s);
        }
        for _ in 0..size.reconfigs_per_unit {
            let i = inputs.reconfigs[sys.next_reconfig % inputs.reconfigs.len()];
            sys.next_reconfig += 1;
            let sub = sys.subs[i].clone();
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
        c.set("pubsub.source.link_msgs", sys.ledger.messages() as f64);
        c.set("pubsub.source.link_bytes", sys.ledger.bytes() as f64);
        c.set(
            "pubsub.link_msgs_per_delivery",
            sys.ledger.messages() as f64 / c.get("pubsub.source.deliveries"),
        );
        c.set("pipeline.results_per_record", c.get("pubsub.source.deliveries") / records);
        c.set("comm_cost_per_record", sys.ledger.cost(&sys.latency) / records);
        // Baseline for a later parallel-reader workload: what one freeze of
        // the routing state costs from scratch and after churn.
        let t = Instant::now();
        let first = sys.net.snapshot();
        c.set("pubsub.snapshot.freeze_s", t.elapsed().as_secs_f64());
        let sub = sys.subs[0].clone();
        sys.net.unsubscribe(sub.id);
        sys.net.subscribe(sub);
        let t = Instant::now();
        let second = sys.net.snapshot();
        c.set("pubsub.snapshot.refreeze_s", t.elapsed().as_secs_f64());
        drop((first, second));
    }

    /// Every captured record against every subscription, one by one:
    /// whoever `matches` gets its `project`ion, nobody else gets anything.
    fn verify(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) -> Verdict {
        let size = &inputs.size;
        let (_, units) = Self::fixed_units(inputs.scale);
        let batch_records = units * size.batches_per_unit * BATCH_LEN;
        let singles = units * size.singles_per_unit;
        let mut expected = Vec::with_capacity(ctx.delivered.len());
        let published = (0..batch_records)
            .map(|i| &inputs.pool[i % inputs.pool.len()])
            .chain((0..singles).map(|i| &inputs.singles[i % inputs.singles.len()]));
        for msg in published {
            for sub in &sys.subs {
                if sub.matches(msg) {
                    let projected = sub.project(msg).expect("a matching record projects");
                    expected.push(delivery_hash(sub.id.0, &projected));
                }
            }
        }
        let mismatches = multiset_difference(&mut expected, &mut ctx.delivered);
        let mut problems = Vec::new();
        if mismatches > 0 {
            problems.push(format!("{mismatches} deliveries differ from match-and-project"));
        }
        Verdict { verified_records: (batch_records + singles) as u64, mismatches, problems }
    }
}

/// The consumer side of the loop: takes what the last publish delivered.
fn absorb(sys: &mut System, ctx: &mut Ctx, published: usize) {
    for d in sys.net.log().deliveries() {
        ctx.deliver(d.sub.0, &d.message);
    }
    ctx.attempted += published as u64;
    drain(&mut sys.net, &mut sys.ledger, ctx, SOURCE, published);
}

//! `placement-churn`: the optimizer against live broker state. A placed
//! query population (abstract specs, as in the paper's §4.1 simulation)
//! becomes one filterless subscription per (processor, substream) in each
//! processor's union interest. Every round publishes one tick of every
//! substream at its current rate, then rates move, queries arrive and
//! depart, the incremental optimizer re-places, and the change of every
//! processor's interest is applied to the brokers. The only place where
//! placement decisions turn into real per-link bytes, so it also carries
//! the paper's missing experiment: measured against modelled cost.

use crate::harness::{Ctx, Scale, Verdict, Workload, BATCH, RECONFIG};
use crate::measure::{link_latencies, Counts, LinkLedger};
use crate::trace::Tracer;
use crate::workloads::{drain, modelled_cost, BATCH_LEN, SOURCE};
use cosmos_baselines::random_assignment;
use cosmos_core::adaptive::AdaptConfig;
use cosmos_core::incremental::IncrementalOptimizer;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_core::stats::StatDelta;
use cosmos_net::NodeId;
use cosmos_pubsub::{
    BrokerNetwork, Message, StreamProjection, SubId, Subscription, SubstreamTable, TrafficModel,
};
use cosmos_query::Scalar;
use cosmos_util::rng::{derive_seed, derive_seed_indexed, rng_for};
use cosmos_util::stats::{mean, stddev};
use cosmos_util::{InterestSet, Symbol};
use cosmos_workload::{PaperParams, Simulation};
use rand::Rng;
use std::collections::BTreeMap;

/// What stands still is the workload, like its sizes: the overlay, the
/// roles on it, the substream table, the standing query population, its
/// initial placement and the optimizer's own seed. `--seed` draws what
/// happens to them: which queries arrive, which rates move, the records.
const STANDING_SEED: u64 = 0xC4A2;

#[derive(Debug, Clone, Copy)]
struct Size {
    /// `PaperParams::scaled` factor.
    scale: f64,
    queries: usize,
    /// Queries arriving and departing per round.
    turnover: usize,
    /// Rounds of arrivals generated up front.
    rounds: usize,
    singles_per_unit: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => {
            Size { scale: 0.05, queries: 800, turnover: 8, rounds: 600, singles_per_unit: 32 }
        }
        Scale::Test => {
            Size { scale: 0.01, queries: 40, turnover: 2, rounds: 12, singles_per_unit: 4 }
        }
    }
}

fn simulation(size: &Size) -> Simulation {
    Simulation::build(PaperParams::scaled(size.scale), STANDING_SEED)
}

pub struct Inputs {
    size: Size,
    seed: u64,
    initial: Vec<QuerySpec>,
    /// Per round, the queries that arrive.
    arrivals: Vec<Vec<QuerySpec>>,
    /// One record per substream; a tick publishes `round(rate)` of each.
    templates: Vec<Message>,
    /// Substreams of the single-record publishes, in order.
    singles: Vec<usize>,
}

pub struct System {
    sim: Simulation,
    opt: IncrementalOptimizer,
    net: BrokerNetwork,
    /// What is subscribed at the brokers, per processor.
    installed: Vec<InterestSet>,
    initial: Assignment,
    latency: BTreeMap<(NodeId, NodeId), f64>,
    ledger: LinkLedger,
    /// Per round of the fixed phase: measured ÷ modelled delivery cost.
    model_ratios: Vec<f64>,
    /// Ticks whose per-processor delivery counts were wrong.
    bad_ticks: u64,
    checked_records: u64,
    round: usize,
    next_single: usize,
}

fn stream_name(s: usize) -> String {
    format!("s{s}")
}

fn sub_id(processor: usize, substream: usize, universe: usize) -> SubId {
    SubId((processor * universe + substream) as u64)
}

fn feed(at: NodeId, id: SubId, substream: usize) -> Subscription {
    Subscription::builder(at)
        .id(id)
        .stream(Symbol::intern(&stream_name(substream)), StreamProjection::All, vec![])
        .build()
}

fn interests(sim: &Simulation) -> Vec<InterestSet> {
    sim.assignment.interests(&sim.specs, sim.dep.processors(), sim.table.len())
}

pub struct PlacementChurn;

impl Workload for PlacementChurn {
    const NAME: &'static str = "placement-churn";
    type Inputs = Inputs;
    type System = System;

    fn fixed_units(scale: Scale) -> (usize, usize) {
        match scale {
            // The reference check runs inline on every tick of the fixed
            // phase; it needs no captured deliveries.
            Scale::Full => (6, 0),
            Scale::Test => (3, 0),
        }
    }

    fn generate(seed: u64, scale: Scale) -> Inputs {
        let size = size(scale);
        let mut sim = simulation(&size);
        let initial = sim.arrivals(size.queries, derive_seed(STANDING_SEED, "standing"));
        let arrivals = (0..size.rounds)
            .map(|r| sim.arrivals(size.turnover, derive_seed_indexed(seed, "arrivals", r as u64)))
            .collect();
        let mut rng = rng_for(seed, "churn-records");
        let templates = (0..sim.table.len())
            .map(|s| {
                Message::new(Symbol::intern(&stream_name(s)), s as i64)
                    .with("v", Scalar::Int(rng.gen_range(0..1_000_000)))
            })
            .collect();
        let singles = (0..4096).map(|_| rng.gen_range(0..sim.table.len())).collect();
        Inputs { size, seed, initial, arrivals, templates, singles }
    }

    fn setup(inputs: &Inputs, tracer: &mut Tracer, counts: &mut Counts) -> System {
        let mut sim = tracer.scope("net.build", || simulation(&inputs.size));
        tracer.enter("core.distribute");
        sim.specs = inputs.initial.clone();
        let placed =
            sim.distributor().distribute(&sim.specs, derive_seed(STANDING_SEED, "distribute"));
        sim.apply(placed.assignment);
        let opt =
            IncrementalOptimizer::new(derive_seed(STANDING_SEED, "adapt"), AdaptConfig::default())
                .expect("the default adaptation config is valid");
        tracer.exit();
        counts.set("core.distribute.queries", sim.specs.len() as f64);

        tracer.enter("pubsub.install");
        let mut net = BrokerNetwork::new(sim.dep.topology().clone());
        for s in 0..sim.table.len() {
            net.advertise(
                Symbol::intern(&stream_name(s)),
                sim.dep.sources()[sim.table.source_index(s)],
            );
        }
        let installed = interests(&sim);
        let mut subs = Vec::new();
        for (p, interest) in installed.iter().enumerate() {
            for s in interest.iter() {
                subs.push(feed(sim.dep.processors()[p], sub_id(p, s, sim.table.len()), s));
            }
        }
        let n_subs = subs.len();
        net.subscribe_batch(subs);
        tracer.exit();
        counts.set("pubsub.install.subs", n_subs as f64);
        let entries: usize = sim.dep.topology().nodes().map(|n| net.table_len(n)).sum();
        counts.set("pubsub.table_entries", entries as f64);

        let latency = link_latencies(sim.dep.topology());
        let initial = sim.assignment.clone();
        System {
            sim,
            opt,
            net,
            installed,
            initial,
            latency,
            ledger: LinkLedger::default(),
            model_ratios: Vec::new(),
            bad_ticks: 0,
            checked_records: 0,
            round: 0,
            next_single: 0,
        }
    }

    fn unit(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) -> bool {
        let Some(arrivals) = inputs.arrivals.get(sys.round) else { return false };
        let round = sys.round as u64;
        sys.round += 1;
        let universe = sys.sim.table.len();

        // One tick: every substream publishes `round(rate)` records.
        let copies: Vec<usize> =
            (0..universe).map(|s| sys.sim.table.rate(s).round() as usize).collect();
        let tick: Vec<Message> = copies
            .iter()
            .zip(&inputs.templates)
            .flat_map(|(&k, m)| std::iter::repeat_n(m, k).cloned())
            .collect();
        let mut received = vec![0u64; sys.installed.len()];
        let cost_before = sys.ledger.cost(&sys.latency);
        let mut batch_s = 0.0;
        for msgs in tick.chunks(BATCH_LEN) {
            let t = ctx.begin(BATCH);
            ctx.tracer.scope("pubsub.source", || sys.net.publish_batch(msgs));
            consume(sys, ctx, msgs.len(), &mut received);
            let s = ctx.end(t);
            ctx.sample_batch(s);
            batch_s += s;
        }
        ctx.sample_unit(tick.len() as u64, batch_s);
        if ctx.fixed {
            // The reference: a processor receives exactly the records of
            // the substreams in its interest, and what crossed the links is
            // what the paper's model predicts for the rates just published.
            let expected: Vec<u64> = sys
                .installed
                .iter()
                .map(|interest| interest.iter().map(|s| copies[s] as u64).sum())
                .collect();
            sys.bad_ticks += u64::from(expected != received);
            sys.checked_records += tick.len() as u64;
            let published = SubstreamTable::from_parts(
                (0..universe).map(|s| sys.sim.table.source_index(s)).collect(),
                copies.iter().map(|&k| k as f64).collect(),
            );
            let modelled =
                TrafficModel::new(&sys.sim.dep, &published).source_delivery_cost(&sys.installed);
            sys.model_ratios.push((sys.ledger.cost(&sys.latency) - cost_before) / modelled);
        }

        for _ in 0..inputs.size.singles_per_unit {
            let s = inputs.singles[sys.next_single % inputs.singles.len()];
            sys.next_single += 1;
            let msg = inputs.templates[s].clone();
            let t = ctx.begin(BATCH);
            ctx.tracer.scope("pubsub.single", || sys.net.publish(msg));
            consume(sys, ctx, 1, &mut received);
            let s = ctx.end(t);
            ctx.sample_single(s);
        }

        // The world moves: the oldest queries depart, new ones arrive and
        // are routed online, and 1% of the substreams change rate.
        let t = ctx.begin(RECONFIG);
        ctx.tracer.enter("workload.events");
        let departed: Vec<QuerySpec> = sys.sim.specs.drain(..arrivals.len()).collect();
        for q in &departed {
            sys.sim.assignment.remove(q.id);
            sys.opt.ingest(&StatDelta::QueryDeparted { id: q.id });
        }
        sys.sim.specs.extend(arrivals.iter().cloned());
        ctx.tracer.exit();
        ctx.tracer.scope("core.online", || sys.sim.insert_online(arrivals));
        ctx.tracer.enter("workload.events");
        for q in arrivals {
            sys.opt.ingest(&StatDelta::QueryArrived { id: q.id });
        }
        let factor = if round.is_multiple_of(2) { 1.5 } else { 1.0 / 1.5 };
        let perturbed = (universe / 100).max(1);
        let seed = derive_seed_indexed(inputs.seed, "perturb", round);
        for delta in sys.sim.perturb_rates(perturbed, factor, seed) {
            sys.opt.ingest(&delta);
        }
        ctx.tracer.exit();
        let _ = ctx.end(t);
        ctx.counts.add("core.online.inserts", arrivals.len() as f64);

        // The reconfiguration: re-optimize, then make the brokers match.
        let t = ctx.begin(RECONFIG);
        let outcome =
            ctx.tracer.scope("core.adapt", || sys.sim.adapt_round_incremental(&mut sys.opt));
        let wanted = interests(&sys.sim);
        let (mut subscribed, mut unsubscribed) = (0u64, 0u64);
        for (p, (old, new)) in sys.installed.iter().zip(&wanted).enumerate() {
            let at = sys.sim.dep.processors()[p];
            for s in old.iter().filter(|&s| !new.contains(s)) {
                ctx.tracer
                    .scope("pubsub.unsubscribe", || sys.net.unsubscribe(sub_id(p, s, universe)));
                unsubscribed += 1;
            }
            for s in new.iter().filter(|&s| !old.contains(s)) {
                let sub = feed(at, sub_id(p, s, universe), s);
                ctx.tracer.scope("pubsub.subscribe", || sys.net.subscribe(sub));
                subscribed += 1;
            }
        }
        sys.installed = wanted;
        let s = ctx.end(t);
        ctx.sample_reconfig(s);
        let c = &mut ctx.counts;
        c.add("core.adapt.rounds", 1.0);
        c.add("core.adapt.migrations", outcome.migrations as f64);
        c.add("core.adapt.moved_state", outcome.moved_state);
        c.add("pubsub.subscribe.calls", subscribed as f64);
        c.add("pubsub.unsubscribe.calls", unsubscribed as f64);
        true
    }

    fn finish_fixed(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) {
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
        c.set("traffic.model_ratio", mean(&sys.model_ratios));
        c.set("traffic.model_ratio_cv", stddev(&sys.model_ratios) / mean(&sys.model_ratios));
        c.set("core.load_stddev", sys.sim.load_stddev());
        let stats = sys.opt.cache_stats();
        let hits = stats.hier_hits + stats.place_hits;
        c.set(
            "core.adapt.memo_hit_ratio",
            hits as f64 / (hits + stats.hier_misses + stats.place_misses) as f64,
        );
        // How much better than chance the initial placement was, under the
        // model and today's rates.
        let random = random_assignment(
            &inputs.initial,
            &sys.sim.dep,
            derive_seed(STANDING_SEED, "random-placement"),
        );
        let cost = |a: &Assignment| modelled_cost(&sys.sim.dep, &sys.sim.table, &inputs.initial, a);
        c.set("core.distribute.cost_vs_random", cost(&sys.initial) / cost(&random));
    }

    /// The per-tick checks ran inline; this collects them and bounds the
    /// spread of the measured-to-modelled cost ratio across rounds.
    fn verify(sys: &mut System, _: &Inputs, ctx: &mut Ctx) -> Verdict {
        let mut problems = Vec::new();
        if sys.bad_ticks > 0 {
            problems.push(format!(
                "{} ticks delivered other per-processor counts than the interests dictate",
                sys.bad_ticks
            ));
        }
        let cv = ctx.counts.get("traffic.model_ratio_cv");
        if cv.is_nan() || cv >= 0.02 {
            problems.push(format!(
                "measured/modelled cost ratio varies by {:.2} % across rounds",
                100.0 * cv
            ));
        }
        Verdict { verified_records: sys.checked_records, mismatches: sys.bad_ticks, problems }
    }
}

/// The consumer side: counts each processor's deliveries.
fn consume(sys: &mut System, ctx: &mut Ctx, published: usize, received: &mut [u64]) {
    let universe = sys.sim.table.len();
    for d in sys.net.log().deliveries() {
        received[d.sub.0 as usize / universe] += 1;
        ctx.deliver(d.sub.0, &d.message);
    }
    ctx.attempted += published as u64;
    drain(&mut sys.net, &mut sys.ledger, ctx, SOURCE, published);
}

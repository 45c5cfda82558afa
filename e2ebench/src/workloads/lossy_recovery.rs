//! `lossy-recovery`: `sensor-join`'s population on the other hosting
//! path. The same placed engines are hosted through the recovery plane
//! over links that drop, duplicate and reorder, every batch is driven to
//! quiescence (acks, retransmissions, due checkpoints), and in every unit
//! one engine host crashes and, some batches later, is restored from its
//! checkpoint and the upstream replay logs. The reconfiguration is that
//! restore. The only coverage of `reliable`, `fault`, `recovery` and
//! `checkpoint`.

use crate::harness::{Ctx, Scale, Verdict, Workload, BATCH, RECONFIG};
use crate::measure::{link_latencies, Counts, LinkLedger};
use crate::trace::Tracer;
use crate::workloads::sensor_join::{
    engine_counts, generate_population, place, placement_counts, Placement, Size,
};
use crate::workloads::BATCH_LEN;
use cosmos_engine::exec::StreamEngine;
use cosmos_net::NodeId;
use cosmos_pubsub::{BrokerNetwork, FaultConfig, FaultPlan, LossyNetwork, Message};
use cosmos_query::{Query, QueryId};
use cosmos_util::rng::{derive_seed, splitmix64};
use cosmos_util::Symbol;
use cosmos_workload::{FaultOp, RecoveryParams, RecoverySim};
use std::collections::{BTreeMap, BTreeSet};

/// Simulated ticks between two checkpoints of one host.
const CHECKPOINT_INTERVAL: u64 = 2_000_000;
/// `RecoverySim::fault_step` rolls: with the weights below, 0 lands in the
/// kill share and 50 in the restore share.
const ROLL_KILL: u32 = 0;
const ROLL_RESTORE: u32 = 50;

fn size(scale: Scale) -> (Size, usize, usize) {
    // (population, batch after which a host is killed, … restored)
    match scale {
        Scale::Full => (
            Size {
                sensors: 100,
                sources: 5,
                processors: 30,
                queries: 600,
                readings_per_sensor: 6000,
                batches_per_unit: 48,
                singles_per_unit: 32,
                reconfigs_per_unit: 1,
            },
            12,
            36,
        ),
        Scale::Test => (
            Size {
                sensors: 20,
                sources: 2,
                // Enough processors that some sit at the edge of the
                // overlay: only those can crash without partitioning it.
                processors: 16,
                queries: 40,
                readings_per_sensor: 120,
                batches_per_unit: 4,
                singles_per_unit: 4,
                reconfigs_per_unit: 1,
            },
            1,
            3,
        ),
    }
}

pub struct Inputs {
    size: Size,
    kill_after: usize,
    restore_after: usize,
    seed: u64,
    queries: Vec<(QueryId, String, NodeId)>,
    records: Vec<Message>,
}

pub struct System {
    placement: Placement,
    sim: RecoverySim,
    hosts: Vec<NodeId>,
    /// Link latencies of the topology before any crash.
    latency: BTreeMap<(NodeId, NodeId), f64>,
    physical: LinkLedger,
    goodput: LinkLedger,
    /// Per host: acked watermark and output-log length last seen.
    acked: Vec<u64>,
    seen_outputs: Vec<usize>,
    cursor: usize,
    batch: usize,
}

pub struct LossyRecovery;

impl Workload for LossyRecovery {
    const NAME: &'static str = "lossy-recovery";
    type Inputs = Inputs;
    type System = System;

    fn fixed_units(scale: Scale) -> (usize, usize) {
        // The reference replays the whole fixed phase per host from the
        // published records; it needs no captured deliveries.
        match scale {
            Scale::Full => (8, 0),
            Scale::Test => (3, 0),
        }
    }

    fn generate(seed: u64, scale: Scale) -> Inputs {
        let (size, kill_after, restore_after) = size(scale);
        let (queries, records) = generate_population(seed, &size);
        Inputs { size, kill_after, restore_after, seed, queries, records }
    }

    fn setup(inputs: &Inputs, tracer: &mut Tracer, counts: &mut Counts) -> System {
        let placement = place(&inputs.queries, &inputs.size, tracer, counts);
        let scenario = &placement.scenario;
        tracer.enter("pubsub.install");
        let mut net = BrokerNetwork::new(scenario.dep.topology().clone());
        for name in &scenario.streams {
            net.advertise(name.as_str(), scenario.stream_source[name]);
        }
        let plan = FaultPlan::new(derive_seed(inputs.seed, "faults"), FaultConfig::lossy());
        let params = RecoveryParams {
            checkpoint_interval: CHECKPOINT_INTERVAL,
            kill_weight: 50,
            restore_weight: 50,
        };
        let mut sim = RecoverySim::new(LossyNetwork::new(net, plan), params)
            .expect("the recovery knobs are valid");
        tracer.exit();
        // `host_engine` installs the host's feed and builds its engine in
        // one call; the span goes to the engine.
        tracer.enter("engine.build");
        for (node, queries) in &placement.hosts {
            sim.host_engine(*node, queries.clone());
        }
        tracer.exit();
        let hosts: Vec<NodeId> = placement.hosts.iter().map(|(n, _)| *n).collect();
        counts.set("pubsub.install.subs", hosts.len() as f64);
        counts.set("engine.queries", placement.queries.len() as f64);
        let topo = sim.recovery().network().topology();
        let entries: usize = topo.nodes().map(|n| sim.recovery().network().table_len(n)).sum();
        counts.set("pubsub.table_entries", entries as f64);
        let latency = link_latencies(topo);
        System {
            acked: vec![0; hosts.len()],
            seen_outputs: vec![0; hosts.len()],
            placement,
            sim,
            hosts,
            latency,
            physical: LinkLedger::default(),
            goodput: LinkLedger::default(),
            cursor: 0,
            batch: 0,
        }
    }

    fn unit(sys: &mut System, inputs: &Inputs, ctx: &mut Ctx) -> bool {
        let size = &inputs.size;
        let need = size.batches_per_unit * BATCH_LEN + size.singles_per_unit;
        if sys.cursor + need > inputs.records.len() {
            return false;
        }
        let mut batch_s = 0.0;
        for b in 1..=size.batches_per_unit {
            let msgs = &inputs.records[sys.cursor..sys.cursor + BATCH_LEN];
            sys.cursor += BATCH_LEN;
            let t = ctx.begin(BATCH);
            publish_and_settle(sys, ctx, msgs);
            let s = ctx.end(t);
            ctx.sample_batch(s);
            batch_s += s;
            sys.batch += 1;
            if b == inputs.kill_after {
                let t = ctx.begin(RECONFIG);
                let op =
                    ctx.tracer.scope("recovery.crash", || sys.sim.fault_step(ROLL_KILL, sys.batch));
                let _ = ctx.end(t);
                ctx.counts
                    .add("recovery.crashes", f64::from(u8::from(matches!(op, FaultOp::Killed(_)))));
            } else if b == inputs.restore_after {
                let t = ctx.begin(RECONFIG);
                let op = ctx
                    .tracer
                    .scope("recovery.restore", || sys.sim.fault_step(ROLL_RESTORE, sys.batch));
                let s = ctx.end(t);
                if matches!(op, FaultOp::Restored(_)) {
                    ctx.sample_reconfig(s);
                    ctx.counts.add("recovery.restores", 1.0);
                }
                observe(sys, ctx);
            }
        }
        ctx.sample_unit((size.batches_per_unit * BATCH_LEN) as u64, batch_s);
        for _ in 0..size.singles_per_unit {
            let msgs = &inputs.records[sys.cursor..sys.cursor + 1];
            sys.cursor += 1;
            let t = ctx.begin(BATCH);
            publish_and_settle(sys, ctx, msgs);
            let s = ctx.end(t);
            ctx.sample_single(s);
        }
        true
    }

    fn finish_fixed(sys: &mut System, _: &Inputs, ctx: &mut Ctx) {
        // Bring every host back, so that every engine has consumed every
        // record and its statistics can be read.
        while let Some(&node) = sys.sim.crashed().last() {
            sys.sim.restore_host(node);
        }
        sys.sim.settle();
        observe(sys, ctx);
        let c = &mut ctx.counts;
        let records = c.get("pubsub.source.records");
        c.set("pubsub.source.link_msgs", sys.goodput.messages() as f64);
        c.set("pubsub.source.link_bytes", sys.goodput.bytes() as f64);
        c.set("reliable.goodput_msgs", sys.goodput.messages() as f64);
        c.set("reliable.physical_msgs", sys.physical.messages() as f64);
        c.set(
            "reliable.retransmit_ratio",
            c.get("reliable.retransmissions") / sys.goodput.messages() as f64,
        );
        c.set(
            "pubsub.link_msgs_per_delivery",
            sys.physical.messages() as f64 / c.get("pubsub.source.deliveries"),
        );
        c.set("comm_cost_per_record", sys.physical.cost(&sys.latency) / records);
        c.set("fault.injected", sys.sim.recovery().lossy().fault_plan().total_injected() as f64);
        engine_counts(sys.hosts.iter().map(|&h| sys.sim.recovery().engine_stats(h)), c);
        let outputs: usize =
            sys.hosts.iter().map(|&h| sys.sim.recovery().output_log(h).len()).sum();
        c.set("pipeline.results_per_record", outputs as f64 / records);
        placement_counts(&sys.placement, c);
    }

    /// Per host, a fresh engine fed that host's streams in publish order
    /// must equal the host's output log bit for bit, crashes, replays and
    /// faults notwithstanding.
    fn verify(sys: &mut System, inputs: &Inputs, _: &mut Ctx) -> Verdict {
        let published = &inputs.records[..sys.cursor];
        let mut mismatches = 0u64;
        let mut problems = Vec::new();
        for (node, queries) in &sys.placement.hosts {
            let expected = crash_free_outputs(queries, published);
            let got = sys.sim.recovery().output_log(*node);
            if got != expected.as_slice() {
                let same = got.iter().zip(&expected).take_while(|(a, b)| a == b).count();
                mismatches += (got.len().max(expected.len()) - same) as u64;
                problems.push(format!(
                    "host {node}: output log diverges from the crash-free engine at result {same} \
                     ({} logged, {} expected)",
                    got.len(),
                    expected.len()
                ));
            }
        }
        Verdict { verified_records: published.len() as u64, mismatches, problems }
    }
}

fn crash_free_outputs(
    queries: &[(QueryId, Query)],
    published: &[Message],
) -> Vec<cosmos_engine::exec::ResultTuple> {
    let mut engine = StreamEngine::new();
    let mut streams: BTreeSet<Symbol> = BTreeSet::new();
    for (id, q) in queries {
        engine.add_query(*id, q.clone());
        streams.extend(q.streams().map(Symbol::intern));
    }
    published
        .iter()
        .filter(|m| streams.contains(&m.stream))
        .flat_map(|m| engine.push(m.clone()))
        .collect()
}

/// One closed-loop step: inject the records, drive the plane to
/// quiescence, take the traffic counters.
fn publish_and_settle(sys: &mut System, ctx: &mut Ctx, msgs: &[Message]) {
    ctx.tracer.enter("recovery.publish");
    for m in msgs {
        if !sys.sim.publish(m.clone()) {
            ctx.refused += 1;
        }
    }
    ctx.tracer.exit();
    ctx.tracer.scope("reliable.settle", || sys.sim.settle());
    ctx.attempted += msgs.len() as u64;
    ctx.tracer.enter("pubsub.drain");
    if ctx.fixed {
        let lossy = sys.sim.recovery().lossy();
        ctx.counts.add("pubsub.source.records", msgs.len() as f64);
        ctx.counts.add("pubsub.source.deliveries", lossy.delivered() as f64);
        ctx.counts.add("reliable.retransmissions", lossy.retransmissions() as f64);
        ctx.counts.add("reliable.acks", lossy.acks_sent() as f64);
        sys.physical.absorb(lossy.physical_stats());
        sys.goodput.absorb(lossy.goodput_stats());
    }
    sys.sim.recovery_mut().reset_stats();
    ctx.tracer.exit();
    observe(sys, ctx);
}

/// Reads the recovery plane's own accessors: checkpoint acknowledgements,
/// replay backlog, and the results emitted since the last look (which go
/// into the digest by query and event time).
fn observe(sys: &mut System, ctx: &mut Ctx) {
    if !ctx.fixed {
        return;
    }
    let r = sys.sim.recovery();
    for (i, &h) in sys.hosts.iter().enumerate() {
        let acked = r.acked_watermark(h);
        if acked != sys.acked[i] {
            sys.acked[i] = acked;
            ctx.counts.add("recovery.checkpoint_acks", 1.0);
        }
        ctx.counts.max("recovery.retained_max", r.retained(h) as f64);
        let log = r.output_log(h);
        for out in &log[sys.seen_outputs[i]..] {
            ctx.digest.add(splitmix64(splitmix64(out.query.0) ^ out.joined.timestamp() as u64));
        }
        sys.seen_outputs[i] = log.len();
    }
}

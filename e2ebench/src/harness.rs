//! The run every workload shares.
//!
//! 1. generate every input from the seed (untimed; the system sees only
//!    these);
//! 2. [`BUILDS`] times over: set the system up from those inputs, then
//!    - **fixed phase**: a fixed number of units of closed-loop work. Every
//!      count, byte and delivery of this phase is a pure function of the
//!      seed. On the first build it feeds the reference check, the
//!      delivery digest, `comm_cost_per_record`, `peak_rss_mb` and every
//!      per-layer count and `busy_s`; on every build it fills windows and
//!      caches, and must reproduce the first build's digest;
//!    - **timed phase**: more units until this build's share of
//!      `--seconds` has passed.
//! 3. `setup_s` is the median set-up time; the unit, single-record and
//!    reconfiguration wall times of all builds' timed phases give the
//!    other timing medians.
//!
//! One client, closed loop: the next batch is published once the previous
//! one's results are delivered. The call chain is synchronous, so there is
//! no queue and the sustainable rate is the closed-loop rate.

use crate::measure::{delivery_hash, median, peak_rss_mb, quantile, shape_hash, Counts, Digest};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use cosmos_pubsub::Message;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Independently built systems per run. `setup_s` is the median of their
/// set-up times, and each is measured for an equal share of the run's
/// seconds: how a build's long-lived structures happen to land in memory
/// (hash seeds, allocation order) moves its speed by ±10–20 % for its
/// whole life, so one build is one sample of that luck, and the run's
/// medians are taken over the units of all of them.
pub const BUILDS: usize = 5;

/// Full size for the driver, or about 1/50 of it for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Only the tests run at this scale.
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Wall-time samples of the timed phase.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per unit: was it traced, and its batch-part records per second.
    pub unit_rate: Vec<(bool, f64)>,
    pub batch_ms: Vec<f64>,
    pub single_us: Vec<f64>,
    pub reconfig_ms: Vec<f64>,
}

/// What a unit of work reads and writes besides the system itself.
#[derive(Debug)]
pub struct Ctx {
    pub tracer: Tracer,
    pub counts: Counts,
    /// True during the fixed phase: every delivery's shape (who, when,
    /// how many bytes) goes into `digest`.
    pub fixed: bool,
    /// True for the first units of the fixed phase: every delivery's
    /// content hash is kept in `delivered` for the reference check.
    pub capture: bool,
    pub digest: Digest,
    pub delivered: Vec<u64>,
    pub samples: Samples,
    /// Source records published / refused so far.
    pub attempted: u64,
    pub refused: u64,
    next_batch: u32,
}

impl Ctx {
    fn new(trace: bool) -> Self {
        Self {
            tracer: Tracer::new(trace),
            counts: Counts::default(),
            fixed: true,
            capture: true,
            digest: Digest::default(),
            delivered: Vec::new(),
            samples: Samples::default(),
            attempted: 0,
            refused: 0,
            next_batch: 0,
        }
    }

    /// Opens a root span under a fresh batch id and reads the clock: with
    /// tracing off, a batch costs exactly this read and the one in
    /// [`Ctx::end`].
    #[inline]
    pub fn begin(&mut self, root: &'static str) -> Instant {
        self.tracer.set_batch(self.next_batch);
        self.next_batch += 1;
        self.tracer.enter(root);
        Instant::now()
    }

    /// Closes the root span; returns the seconds since [`Ctx::begin`].
    #[inline]
    pub fn end(&mut self, started: Instant) -> f64 {
        let s = started.elapsed().as_secs_f64();
        self.tracer.exit();
        s
    }

    /// Keeps a batch's wall time, unless tracing inflated it.
    #[inline]
    pub fn sample_batch(&mut self, seconds: f64) {
        if !self.tracer.on {
            self.samples.batch_ms.push(seconds * 1e3);
        }
    }

    /// Keeps a single record's publish-to-last-delivery time.
    #[inline]
    pub fn sample_single(&mut self, seconds: f64) {
        if !self.tracer.on {
            self.samples.single_us.push(seconds * 1e6);
        }
    }

    /// Keeps a reconfiguration's wall time.
    #[inline]
    pub fn sample_reconfig(&mut self, seconds: f64) {
        if !self.tracer.on {
            self.samples.reconfig_ms.push(seconds * 1e3);
        }
    }

    /// Keeps a unit's batch-part throughput.
    pub fn sample_unit(&mut self, records: u64, seconds: f64) {
        self.samples.unit_rate.push((self.tracer.on, records as f64 / seconds));
    }

    /// Records one delivery at its final consumer, under the id of the
    /// subscription or query it answers.
    #[inline]
    pub fn deliver(&mut self, tag: u64, record: &Message) {
        if self.fixed {
            self.digest.add(shape_hash(tag, record));
            if self.capture {
                self.delivered.push(delivery_hash(tag, record));
            }
        }
    }
}

/// Root span of a batch or a single record.
pub const BATCH: &str = "pipeline.batch";
/// Root span of a control-plane reconfiguration.
pub const RECONFIG: &str = "pipeline.reconfig";

/// Result of a reference check.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Source records the check covered.
    pub verified_records: u64,
    /// Deliveries missing, extra or altered (capped at the records
    /// covered when it becomes `failed`).
    pub mismatches: u64,
    /// Human-readable reasons; empty when the check passed.
    pub problems: Vec<String>,
}

pub trait Workload {
    const NAME: &'static str;
    type Inputs;
    type System;

    /// Units in the fixed phase, and how many of the first of them the
    /// reference check covers.
    fn fixed_units(scale: Scale) -> (usize, usize);
    fn generate(seed: u64, scale: Scale) -> Self::Inputs;
    /// Parse, build, place, install. Layer spans go to `tracer`, set-up
    /// counts to `counts`.
    fn setup(inputs: &Self::Inputs, tracer: &mut Tracer, counts: &mut Counts) -> Self::System;
    /// One unit of closed-loop work; false when the inputs ran out.
    fn unit(sys: &mut Self::System, inputs: &Self::Inputs, ctx: &mut Ctx) -> bool;
    /// End of the fixed phase: quiesce, then turn the system's own
    /// accessors into counts (`comm_cost_per_record` among them).
    fn finish_fixed(sys: &mut Self::System, inputs: &Self::Inputs, ctx: &mut Ctx);
    /// The reference check over what the first units delivered.
    fn verify(sys: &mut Self::System, inputs: &Self::Inputs, ctx: &mut Ctx) -> Verdict;
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Order-insensitive digest of every delivery of the fixed phase.
    pub digest: u64,
    pub problems: Vec<String>,
    /// `(name, unit, value)` in `BENCHMARK.json` order: the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Share of the fixed-phase loop per span name, for the report.
    pub shares: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

/// What only the first build produces: the exact counts, the reference
/// check, peak memory, and where its fixed phase and check sit in the
/// trace.
struct FirstBuild {
    exact: Counts,
    verdict: Verdict,
    rss: f64,
    fixed_from: usize,
    fixed_to: usize,
    spans_to: usize,
}

pub fn run<W: Workload>(cfg: &RunConfig) -> Outcome {
    let inputs = W::generate(cfg.seed, cfg.scale);
    let (fixed_units, verify_units) = W::fixed_units(cfg.scale);
    let mut ctx = Ctx::new(cfg.trace);
    let mut setup_s = Vec::with_capacity(BUILDS);
    let mut problems = Vec::new();
    let mut first = None;
    let mut timed_units = 0u64;
    let mut timed_records = 0u64;

    for build in 0..BUILDS {
        // Only the first build is traced and checked against the
        // reference; the others repeat its fixed phase as a warm-up and
        // must reproduce its digest.
        let mut warm = Ctx::new(false);
        let c = if build == 0 { &mut ctx } else { &mut warm };
        let t = Instant::now();
        let mut sys = W::setup(&inputs, &mut c.tracer, &mut c.counts);
        setup_s.push(t.elapsed().as_secs_f64());

        let fixed_from = c.tracer.len();
        for u in 0..fixed_units {
            c.capture = build == 0 && u < verify_units;
            assert!(W::unit(&mut sys, &inputs, c), "inputs must cover the fixed phase");
        }
        W::finish_fixed(&mut sys, &inputs, c);
        let fixed_to = c.tracer.len();
        c.fixed = false;
        c.capture = false;
        if build == 0 {
            let rss = peak_rss_mb();
            let exact = ctx.counts.clone();
            ctx.tracer.enter("pipeline.reference");
            let verdict = W::verify(&mut sys, &inputs, &mut ctx);
            ctx.tracer.exit();
            ctx.delivered = Vec::new();
            ctx.samples = Samples::default();
            first = Some(FirstBuild {
                exact,
                verdict,
                rss,
                fixed_from,
                fixed_to,
                spans_to: ctx.tracer.len(),
            });
        } else if warm.digest != ctx.digest {
            problems.push(format!("build {build} delivered differently from build 0"));
        }

        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / BUILDS as f64);
        let before = ctx.attempted;
        while Instant::now() < deadline {
            // A traced run traces every other unit, so that the traced and
            // untraced unit times it compares share the host's drift.
            ctx.tracer.on = cfg.trace && timed_units.is_multiple_of(2);
            if !W::unit(&mut sys, &inputs, &mut ctx) {
                break;
            }
            timed_units += 1;
        }
        ctx.tracer.on = cfg.trace;
        timed_records += ctx.attempted - before;
    }
    let FirstBuild { exact, verdict, rss, fixed_from, fixed_to, spans_to } =
        first.expect("BUILDS > 0");

    let failed = verdict.mismatches.min(verdict.verified_records) + ctx.refused;
    problems.extend(verdict.problems);
    if ctx.refused > 0 {
        problems.push(format!("{} publishes refused", ctx.refused));
    }
    let s = &mut ctx.samples;
    let rates = |traced: bool| {
        let mut xs: Vec<f64> =
            s.unit_rate.iter().filter(|(t, _)| *t == traced).map(|(_, r)| *r).collect();
        median(&mut xs)
    };
    let (untraced_rate, traced_rate) = (rates(false), rates(true));

    let mut values: BTreeMap<&'static str, f64> = exact.iter().collect();
    let mut shares = Vec::new();
    if cfg.trace {
        let times = ctx.tracer.layer_times(0, spans_to);
        for (name, t) in &times {
            if let Some(m) = PER_LAYER.iter().find(|m| m.name.strip_suffix(".busy_s") == Some(name))
            {
                values.insert(m.name, t.self_s);
            }
        }
        let loop_s = ctx.tracer.root_seconds(BATCH, fixed_from, fixed_to)
            + ctx.tracer.root_seconds(RECONFIG, fixed_from, fixed_to);
        let in_loop = ctx.tracer.layer_times(fixed_from, fixed_to);
        let glue: f64 =
            [BATCH, RECONFIG].iter().filter_map(|n| in_loop.get(n)).map(|t| t.self_s).sum();
        values.insert("pipeline.loop_s", loop_s);
        values.insert("pipeline.glue.self_s", glue);
        values.insert("pipeline.glue_share_pct", 100.0 * glue / loop_s);
        for (name, t) in &in_loop {
            let label = if [BATCH, RECONFIG].contains(name) { "pipeline.glue" } else { name };
            match shares.iter_mut().find(|(n, _)| *n == label) {
                Some((_, share)) => *share += t.self_s / loop_s,
                None => shares.push((label, t.self_s / loop_s)),
            }
        }
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        values.insert("pipeline.trace_spans", ctx.tracer.len() as f64);
        if traced_rate > 0.0 {
            values
                .insert("pipeline.trace_overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0));
        }
    }
    values.insert("pipeline.batch_p50_ms", median(&mut s.batch_ms));
    values.insert("pipeline.batch_p99_ms", quantile(&mut s.batch_ms, 0.99));
    values.insert("pipeline.record_latency_p99_us", quantile(&mut s.single_us, 0.99));
    values.insert("pipeline.reconfig_p90_ms", quantile(&mut s.reconfig_ms, 0.9));
    values.insert("pipeline.verified_records", verdict.verified_records as f64);
    values.insert("pipeline.timed_units", timed_units as f64);
    values.insert("pipeline.timed_records", timed_records as f64);
    values.insert("setup_s", median(&mut setup_s));
    values.insert("pipeline.records_per_s", untraced_rate);
    values.insert("pipeline.record_latency_p50_us", median(&mut s.single_us));
    values.insert("pipeline.reconfig_p50_ms", median(&mut s.reconfig_ms));
    values.insert("peak_rss_mb", rss);

    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let metrics: Vec<_> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit, get(m.name))).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, get(m.name))).collect()
    };
    if !cfg.trace {
        for (name, _, v) in &metrics {
            if !(*v > 0.0 && v.is_finite()) {
                problems.push(format!("end-to-end metric {name} is {v}"));
            }
        }
    }
    Outcome {
        workload: W::NAME,
        seed: cfg.seed,
        traced: cfg.trace,
        correct: problems.is_empty() && failed == 0,
        attempted: ctx.attempted.max(1),
        failed,
        digest: ctx.digest.0,
        problems,
        metrics,
        shares,
        tracer: ctx.tracer,
    }
}

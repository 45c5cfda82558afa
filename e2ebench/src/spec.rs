//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] rendered to a file (`e2ebench
//! manifest`); a test pins the two together, so the names a run prints and
//! the names the driver expects cannot drift apart.

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "sensor-join",
        why: "CQL window joins placed on 30 processors, results re-published to user proxies: \
              the only workload crossing every layer; engine-dominant",
    },
    WorkloadSpec {
        name: "filter-fanout",
        why: "thousands of covering-rich filtered subscriptions on a 496-node overlay, no engine: \
              index match/forward/project dominant, with install/uninstall beside the reads",
    },
    WorkloadSpec {
        name: "placement-churn",
        why: "rate perturbation, query arrival/departure and incremental re-optimization applied \
              to live broker state: optimizer-dominant, matching trivial (filterless)",
    },
    WorkloadSpec {
        name: "lossy-recovery",
        why: "engines hosted over a dropping/duplicating/reordering plane with periodic host \
              crash and restore: reliable delivery, checkpoint and replay dominant",
    },
];

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever zero.
///
/// Besides the set-up time the contract requires, only quantities that
/// are pure functions of the seed carry a bound. Throughput, latency and
/// reconfiguration time are measured just as carefully but live in
/// [`PER_LAYER`] (`pipeline.records_per_s` and friends): on this host
/// identical runs differ by an interquartile 12–27 % of their median, so
/// no bound the contract allows would hold, and the issue rules out
/// widening one to fit.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.2 },
    EndToEnd { name: "comm_cost_per_record", unit: "byte.ms", better: Lower, bound: 0.2 },
];

/// A per-layer metric: unbounded, explains where an end-to-end change
/// comes from. A layer a workload does not exercise reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Names are `<crate>.<call>.<what>`. `busy_s` is span self time over the
/// fixed-work phase, so it is comparable between two runs of one seed.
pub const PER_LAYER: [PerLayer; 82] = [
    layer("query.parse.calls", "count", Higher),
    layer("query.parse.busy_s", "s", Lower),
    layer("net.build.busy_s", "s", Lower),
    layer("core.distribute.busy_s", "s", Lower),
    layer("core.distribute.queries", "count", Higher),
    layer("core.distribute.cost_vs_random", "ratio", Lower),
    layer("core.load_stddev", "load", Lower),
    layer("core.adapt.rounds", "count", Higher),
    layer("core.adapt.busy_s", "s", Lower),
    layer("core.adapt.migrations", "count", Lower),
    layer("core.adapt.moved_state", "state", Lower),
    layer("core.adapt.memo_hit_ratio", "ratio", Higher),
    layer("core.online.inserts", "count", Higher),
    layer("core.online.busy_s", "s", Lower),
    layer("workload.events.busy_s", "s", Lower),
    layer("pubsub.install.subs", "count", Higher),
    layer("pubsub.install.busy_s", "s", Lower),
    layer("pubsub.table_entries", "count", Lower),
    layer("pubsub.subscribe.calls", "count", Higher),
    layer("pubsub.subscribe.busy_s", "s", Lower),
    layer("pubsub.unsubscribe.calls", "count", Higher),
    layer("pubsub.unsubscribe.busy_s", "s", Lower),
    layer("pubsub.source.records", "count", Higher),
    layer("pubsub.source.busy_s", "s", Lower),
    layer("pubsub.source.deliveries", "count", Higher),
    layer("pubsub.source.link_msgs", "count", Lower),
    layer("pubsub.source.link_bytes", "bytes", Lower),
    layer("pubsub.result.records", "count", Higher),
    layer("pubsub.result.busy_s", "s", Lower),
    layer("pubsub.result.deliveries", "count", Higher),
    layer("pubsub.result.link_msgs", "count", Lower),
    layer("pubsub.result.link_bytes", "bytes", Lower),
    layer("pubsub.single.busy_s", "s", Lower),
    layer("pubsub.drain.busy_s", "s", Lower),
    layer("pubsub.link_msgs_per_delivery", "ratio", Lower),
    layer("pubsub.snapshot.freeze_s", "s", Lower),
    layer("pubsub.snapshot.refreeze_s", "s", Lower),
    layer("traffic.model_ratio", "ratio", Lower),
    layer("traffic.model_ratio_cv", "ratio", Lower),
    layer("engine.build.busy_s", "s", Lower),
    layer("engine.queries", "count", Higher),
    layer("engine.push.records", "count", Higher),
    layer("engine.push.busy_s", "s", Lower),
    layer("engine.ingested", "count", Higher),
    layer("engine.filtered", "count", Higher),
    layer("engine.probes", "count", Lower),
    layer("engine.emitted", "count", Higher),
    layer("engine.emit_per_probe", "ratio", Higher),
    layer("engine.project.busy_s", "s", Lower),
    layer("recovery.publish.busy_s", "s", Lower),
    layer("reliable.settle.busy_s", "s", Lower),
    layer("reliable.retransmissions", "count", Lower),
    layer("reliable.acks", "count", Lower),
    layer("reliable.goodput_msgs", "count", Higher),
    layer("reliable.physical_msgs", "count", Lower),
    layer("reliable.retransmit_ratio", "ratio", Lower),
    layer("fault.injected", "count", Higher),
    layer("recovery.crashes", "count", Higher),
    layer("recovery.crash.busy_s", "s", Lower),
    layer("recovery.restores", "count", Higher),
    layer("recovery.restore.busy_s", "s", Lower),
    layer("recovery.checkpoint_acks", "count", Higher),
    layer("recovery.retained_max", "count", Lower),
    layer("pipeline.records_per_s", "1/s", Higher),
    layer("pipeline.record_latency_p50_us", "us", Lower),
    layer("pipeline.reconfig_p50_ms", "ms", Lower),
    layer("pipeline.loop_s", "s", Lower),
    layer("pipeline.glue.self_s", "s", Lower),
    layer("pipeline.glue_share_pct", "%", Lower),
    layer("pipeline.batch_p50_ms", "ms", Lower),
    layer("pipeline.batch_p99_ms", "ms", Lower),
    layer("pipeline.record_latency_p99_us", "us", Lower),
    layer("pipeline.reconfig_p90_ms", "ms", Lower),
    layer("pipeline.result_delay_p50_ms", "ms", Lower),
    layer("pipeline.result_delay_p99_ms", "ms", Lower),
    layer("pipeline.reference.busy_s", "s", Lower),
    layer("pipeline.verified_records", "count", Higher),
    layer("pipeline.results_per_record", "ratio", Higher),
    layer("pipeline.timed_units", "count", Higher),
    layer("pipeline.timed_records", "count", Higher),
    layer("pipeline.trace_spans", "count", Lower),
    layer("pipeline.trace_overhead_pct", "%", Lower),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `why` strings are written wrapped in the source; the manifest wants one
/// line.
fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"e2ebench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(&one_line(w.why))
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(one_line(w.why).len() <= 200, "{} why too long", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_on_disk_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `e2ebench manifest`");
        assert!(on_disk.len() <= 64 * 1024);
    }
}

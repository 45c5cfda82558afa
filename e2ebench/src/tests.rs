//! Whole-harness tests: every workload at about 1/50 of its size.

use crate::harness::{run, Outcome, RunConfig, Scale, Workload};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::filter_fanout::FilterFanout;
use crate::workloads::lossy_recovery::LossyRecovery;
use crate::workloads::placement_churn::PlacementChurn;
use crate::workloads::sensor_join::SensorJoin;

fn small<W: Workload>(seed: u64, trace: bool) -> Outcome {
    run::<W>(&RunConfig { seed, seconds: 0.2, trace, scale: Scale::Test })
}

fn names(o: &Outcome) -> Vec<&'static str> {
    o.metrics.iter().map(|(n, _, _)| *n).collect()
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|(n, _, _)| *n == name).unwrap_or_else(|| panic!("no metric {name}")).2
}

/// The properties every workload must have, whatever it runs.
fn check<W: Workload>() {
    assert!(WORKLOADS.iter().any(|w| w.name == W::NAME), "{} is not in the manifest", W::NAME);

    let plain = small::<W>(42, false);
    assert!(plain.correct, "{}: {:?}", W::NAME, plain.problems);
    assert_eq!(plain.failed, 0);
    assert_eq!(names(&plain), END_TO_END.map(|m| m.name), "untraced runs print end_to_end");
    for (name, _, v) in &plain.metrics {
        assert!(*v > 0.0 && v.is_finite(), "{} {name} = {v}", W::NAME);
    }

    let traced = small::<W>(42, true);
    assert!(traced.correct, "{}: {:?}", W::NAME, traced.problems);
    assert_eq!(names(&traced), PER_LAYER.map(|m| m.name), "traced runs print per_layer");
    assert!(value(&traced, "pipeline.verified_records") > 0.0);
    assert!(value(&traced, "pipeline.timed_units") > 0.0, "the timed phase must run");
    for timing in
        ["pipeline.records_per_s", "pipeline.record_latency_p50_us", "pipeline.reconfig_p50_ms"]
    {
        assert!(value(&traced, timing) > 0.0, "{} {timing}", W::NAME);
    }
    assert!(traced.tracer.len() > 0);

    // Self times of the traced fixed phase account for its loop time.
    let covered: f64 = traced.shares.iter().map(|(_, s)| s).sum();
    assert!((covered - 1.0).abs() < 0.1, "{}: layer shares sum to {covered}", W::NAME);
    let glue = value(&traced, "pipeline.glue.self_s");
    let busy: f64 = traced
        .metrics
        .iter()
        .filter(|(n, _, _)| n.ends_with(".busy_s") && !matches!(*n, "pipeline.reference.busy_s"))
        .map(|(_, _, v)| v)
        .sum();
    assert!(busy + glue >= value(&traced, "pipeline.loop_s") * 0.9, "{}: spans lost time", W::NAME);

    // What is a pure function of the seed repeats exactly, traced or not,
    // and moves with the seed.
    let again = small::<W>(42, false);
    let other = small::<W>(43, false);
    assert_eq!(plain.digest, again.digest, "{}: same seed, same deliveries", W::NAME);
    assert_eq!(plain.digest, traced.digest, "{}: tracing must not change results", W::NAME);
    assert_ne!(plain.digest, other.digest, "{}: another seed, other deliveries", W::NAME);
    let exact = "comm_cost_per_record";
    assert_eq!(value(&plain, exact).to_bits(), value(&again, exact).to_bits());
    assert_ne!(value(&plain, exact).to_bits(), value(&other, exact).to_bits());
    let traced_again = small::<W>(42, true);
    for name in ["pubsub.source.records", "pubsub.source.deliveries", "pubsub.source.link_bytes"] {
        assert_eq!(value(&traced, name), value(&traced_again, name), "{} {name}", W::NAME);
    }
}

#[test]
fn sensor_join_checks_out() {
    check::<SensorJoin>();
    let t = small::<SensorJoin>(7, true);
    assert!(value(&t, "engine.emitted") > 0.0, "the joins must produce results");
    assert_eq!(value(&t, "pubsub.result.records"), value(&t, "pubsub.result.deliveries"));
}

#[test]
fn filter_fanout_checks_out() {
    check::<FilterFanout>();
    let t = small::<FilterFanout>(7, true);
    assert_eq!(value(&t, "engine.push.records"), 0.0, "no engine in this workload");
    assert!(value(&t, "pubsub.unsubscribe.calls") > 0.0);
}

#[test]
fn placement_churn_checks_out() {
    check::<PlacementChurn>();
    let t = small::<PlacementChurn>(7, true);
    assert!(value(&t, "core.adapt.rounds") > 0.0);
    assert!(value(&t, "traffic.model_ratio") > 0.0 && value(&t, "traffic.model_ratio_cv") < 0.02);
}

#[test]
fn lossy_recovery_checks_out() {
    check::<LossyRecovery>();
    let t = small::<LossyRecovery>(7, true);
    assert!(value(&t, "recovery.restores") > 0.0, "hosts must crash and come back");
    assert!(value(&t, "fault.injected") > 0.0, "the plane must be lossy");
}

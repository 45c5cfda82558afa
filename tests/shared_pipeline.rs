//! Cross-crate pipeline: CQL parsing → containment/merging → shared
//! execution → Pub/Sub delivery, on the sensor scenario. Verifies the §2.1
//! correctness contract end to end: sharing changes *costs*, never
//! *results*.

use cosmos::engine::exec::{CompiledProjection, StreamEngine};
use cosmos::engine::SharedEngine;
use cosmos::net::NodeId;
use cosmos::pubsub::broker::BrokerNetwork;
use cosmos::pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos::query::{covers, merge_queries, parse_query, QueryId, Scalar};
use cosmos::workload::sensors::SensorScenario;
use std::collections::BTreeSet;

#[test]
fn merged_query_covers_all_sensor_queries_it_absorbs() {
    let scenario = SensorScenario::build(10, 2, 6, 3);
    // Force a mergeable family: same two sensors, varying windows/filters.
    let base = |w: u32, th: i64| {
        parse_query(&format!(
            "SELECT X.*, Y.* FROM Sensor0 [Range {w} Seconds] X, Sensor1 [Now] Y \
             WHERE X.timestamp >= Y.timestamp AND X.snowHeight > {th}"
        ))
        .unwrap()
    };
    let queries = vec![base(10, 40), base(30, 20), base(60, 10)];
    let inputs: Vec<(QueryId, &cosmos::query::Query)> =
        queries.iter().enumerate().map(|(i, q)| (QueryId(i as u64), q)).collect();
    let merged = merge_queries(&inputs).expect("family is mergeable");
    for q in &queries {
        assert!(covers(&merged.query, q), "{} should cover {q}", merged.query);
    }
    let _ = scenario;
}

#[test]
fn shared_execution_equals_independent_on_sensor_readings() {
    let scenario = SensorScenario::build(6, 2, 6, 5);
    let mk = |w: u32, th: i64| {
        parse_query(&format!(
            "SELECT X.snowHeight, Y.snowHeight FROM Sensor0 [Range {w} Seconds] X, \
             Sensor1 [Now] Y WHERE X.snowHeight > Y.snowHeight AND X.snowHeight > {th}"
        ))
        .unwrap()
    };
    let queries = vec![(QueryId(1), mk(20, 30)), (QueryId(2), mk(45, 10))];

    // Interleaved, timestamp-ordered readings.
    let mut tuples = scenario.readings(0, 80, 0, 1_000, 9);
    tuples.extend(scenario.readings(1, 80, 500, 1_000, 10));
    tuples.sort_by_key(|t| t.timestamp);

    let mut shared = SharedEngine::build(queries.clone());
    assert_eq!(shared.group_count(), 1, "the two queries must merge");
    let mut shared_results: BTreeSet<String> = BTreeSet::new();
    for t in &tuples {
        for (id, r) in shared.push(t.clone()) {
            let mut vals: Vec<String> = r.iter().map(|(k, v)| format!("{k}={v}")).collect();
            vals.sort();
            shared_results.insert(format!("{id}|{}", vals.join(",")));
        }
    }

    let mut indep = StreamEngine::new();
    for (id, q) in &queries {
        indep.add_query(*id, q.clone());
    }
    let mut indep_results: BTreeSet<String> = BTreeSet::new();
    for t in &tuples {
        for r in indep.push(t.clone()) {
            let projection = &queries.iter().find(|(i, _)| *i == r.query).unwrap().1.projection;
            let p = r.project_compiled(&CompiledProjection::compile(projection), "x");
            let mut vals: Vec<String> = p.iter().map(|(k, v)| format!("{k}={v}")).collect();
            vals.sort();
            indep_results.insert(format!("{}|{}", r.query, vals.join(",")));
        }
    }
    assert_eq!(shared_results, indep_results);
    assert!(!shared_results.is_empty(), "workload must produce results");
}

#[test]
fn broker_delivery_respects_covering_merges_end_to_end() {
    // Two subscribers behind a shared path; the weaker filter's
    // subscription covers the stronger one after merging — deliveries must
    // be exactly what per-subscriber matching dictates.
    let scenario = SensorScenario::build(4, 2, 6, 7);
    let topo = scenario.dep.topology().clone();
    let mut net = BrokerNetwork::new(topo);
    let source = scenario.stream_source["Sensor0"];
    net.advertise("Sensor0", source);
    let procs = scenario.dep.processors();
    let weak = Subscription::builder(procs[0])
        .id(SubId(1))
        .stream(
            "Sensor0",
            StreamProjection::All,
            vec![cosmos::query::Predicate::Cmp {
                attr: cosmos::query::AttrRef::new("Sensor0", "snowHeight"),
                op: cosmos::query::CmpOp::Gt,
                value: Scalar::Int(10),
            }],
        )
        .build();
    let strong = Subscription::builder(procs[1])
        .id(SubId(2))
        .stream(
            "Sensor0",
            StreamProjection::All,
            vec![cosmos::query::Predicate::Cmp {
                attr: cosmos::query::AttrRef::new("Sensor0", "snowHeight"),
                op: cosmos::query::CmpOp::Gt,
                value: Scalar::Int(50),
            }],
        )
        .build();
    net.subscribe(weak);
    net.subscribe(strong);
    for (height, expect) in [(5, 0), (30, 1), (80, 2)] {
        let n =
            net.publish(Message::new("Sensor0", height).with("snowHeight", Scalar::Int(height)));
        assert_eq!(n, expect, "snowHeight {height} must reach {expect} subscribers");
    }
}

#[test]
fn generated_sensor_queries_always_compile_into_the_engine() {
    let scenario = SensorScenario::build(30, 5, 10, 11);
    let cql = scenario.generate_cql(60, 13);
    let mut engine = StreamEngine::new();
    for (id, q, _) in &cql {
        engine.add_query(*id, q.clone());
    }
    assert_eq!(engine.query_count(), 60);
    // Push a few readings through; no panics, selections enforced.
    let mut tuples = Vec::new();
    for s in 0..30 {
        tuples.extend(scenario.readings(s, 10, 0, 2_000, 17));
    }
    tuples.sort_by_key(|t| t.timestamp);
    let mut delivered = 0usize;
    for t in tuples {
        delivered += engine.push(t).len();
    }
    // Some queries should fire on 300 readings.
    assert!(delivered > 0, "no results from 300 readings across 60 queries");
}

#[test]
fn unsubscribe_then_resubscribe_round_trip() {
    let scenario = SensorScenario::build(4, 2, 6, 19);
    let mut net = BrokerNetwork::new(scenario.dep.topology().clone());
    let source = scenario.stream_source["Sensor1"];
    net.advertise("Sensor1", source);
    let proxy = scenario.dep.processors()[2];
    let sub = Subscription::builder(proxy)
        .id(SubId(9))
        .stream("Sensor1", StreamProjection::All, vec![])
        .build();
    net.subscribe(sub.clone());
    assert_eq!(net.publish(Message::new("Sensor1", 0)), 1);
    net.unsubscribe(SubId(9));
    assert_eq!(net.publish(Message::new("Sensor1", 1)), 0);
    net.subscribe(sub);
    assert_eq!(net.publish(Message::new("Sensor1", 2)), 1);
    let _ = NodeId(0);
}

//! The optimizer's source cost is the traffic the brokers carry.
//!
//! `spec::modelled_cost` prices a placement's source side as Σ over
//! substreams of rate × the latency of the multicast tree from the
//! substream's source to the processors reading it. On the sensor
//! workloads a rate is the wire size of one reading per reading period, so
//! publishing P periods of readings to one all-pass feed per hosting
//! processor (as `sensor-join` installs them) must put exactly P × that
//! cost on the links, counted as bytes × link latency.

use cosmos_baselines::naive_assignment;
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::{modelled_cost, Assignment, QuerySpec};
use cosmos_pubsub::{BrokerNetwork, StreamProjection, SubId, Subscription};
use cosmos_workload::sensors::SensorScenario;
use std::collections::{BTreeMap, BTreeSet};

/// `sensor-join`'s standing seed.
const SEED: u64 = 0x5E45;
const PERIODS: usize = 4;
const PERIOD_MS: i64 = 1_000;

/// Σ bytes × latency over the overlay's links after publishing `PERIODS`
/// periods of every sensor's readings to one feed per hosting processor.
fn measured_source_cost(s: &SensorScenario, specs: &[QuerySpec], a: &Assignment) -> f64 {
    let topo = s.dep.topology();
    let mut net = BrokerNetwork::new(topo.clone());
    for name in &s.streams {
        net.advertise(name.as_str(), s.stream_source[name]);
    }
    let mut read: BTreeMap<_, BTreeSet<usize>> = BTreeMap::new();
    for q in specs {
        read.entry(a.processor_of(q.id).expect("placed")).or_default().extend(q.interest.iter());
    }
    let feeds = read.into_iter().enumerate().map(|(h, (node, sensors))| {
        let mut feed = Subscription::builder(node).id(SubId(h as u64));
        for sensor in sensors {
            feed = feed.stream(s.streams[sensor].as_str(), StreamProjection::All, vec![]);
        }
        feed.build()
    });
    net.subscribe_batch(feeds.collect());

    let mut records: Vec<_> =
        (0..s.streams.len()).flat_map(|i| s.readings(i, PERIODS, 0, PERIOD_MS, 42)).collect();
    records.sort_by_key(|r| r.timestamp);
    net.publish_batch(&records);

    let mut total = 0.0;
    for u in topo.nodes() {
        for (v, latency) in topo.neighbors(u) {
            if u < v {
                total += net.link_stats(u, v).bytes as f64 * latency;
            }
        }
    }
    total
}

#[test]
fn broker_bytes_equal_the_modelled_source_cost() {
    let s = SensorScenario::build(100, 5, 30, SEED);
    let specs: Vec<QuerySpec> =
        s.generate_cql(600, SEED).iter().map(|(id, q, proxy)| s.to_spec(*id, q, *proxy)).collect();
    let tree = CoordinatorTree::build(&s.dep, 2);
    let procs = s.dep.processors();
    let placements = [
        (
            "hierarchical",
            Distributor::new(&s.dep, &tree, &s.table).distribute(&specs, SEED).assignment,
        ),
        ("naive", naive_assignment(&specs)),
        (
            "round-robin",
            specs.iter().enumerate().map(|(i, q)| (q.id, procs[i % procs.len()])).collect(),
        ),
    ];
    for (name, a) in &placements {
        let (source, _) = modelled_cost(&s.dep, &s.table, &specs, a);
        let measured = measured_source_cost(&s, &specs, a);
        let expected = PERIODS as f64 * source;
        assert!(
            (measured - expected).abs() <= 1e-9 * expected,
            "{name}: measured {measured} ≠ {PERIODS} × modelled {source} (ratio {:.6})",
            measured / expected
        );
    }
}

//! Engine hosts subscribe to what their queries select.
//!
//! `RecoveryNetwork::host_engine` filters each input stream of a host's
//! feed by the cover of every hosted selection on it. On `sensor-join`'s
//! population, placed by `distribute` as `lossy-recovery` places it and
//! hosted on a fault-free plane, every host's output log must equal an
//! engine fed every record of its streams, and the links must carry
//! strictly less (bytes × latency) than all-pass feeds for the same hosts.

use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::QuerySpec;
use cosmos_engine::exec::StreamEngine;
use cosmos_net::NodeId;
use cosmos_pubsub::{
    BrokerNetwork, FaultPlan, LinkStats, LossyNetwork, Message, RecoveryNetwork, StreamProjection,
    SubId, Subscription,
};
use cosmos_query::{Query, QueryId};
use cosmos_util::rng::derive_seed;
use cosmos_workload::sensors::SensorScenario;
use std::collections::{BTreeMap, BTreeSet};

/// `sensor-join`'s standing seed.
const SEED: u64 = 0x5E45;
const PERIODS: usize = 10;
const PERIOD_MS: i64 = 1_000;

/// Σ bytes × latency over `stats`' links.
fn link_cost(s: &SensorScenario, stats: &[((NodeId, NodeId), LinkStats)]) -> f64 {
    let topo = s.dep.topology();
    stats
        .iter()
        .map(|&((u, v), st)| {
            let latency = topo.neighbors(u).find(|&(w, _)| w == v).expect("a link").1;
            st.bytes as f64 * latency
        })
        .sum()
}

#[test]
fn selection_feeds_lose_no_result_and_carry_less_than_all_pass_feeds() {
    let s = SensorScenario::build(100, 5, 30, SEED);
    let queries = s.generate_cql(600, SEED);
    let specs: Vec<QuerySpec> =
        queries.iter().map(|(id, q, proxy)| s.to_spec(*id, q, *proxy)).collect();
    let tree = CoordinatorTree::build(&s.dep, 2);
    let placed = Distributor::new(&s.dep, &tree, &s.table)
        .distribute(&specs, derive_seed(SEED, "distribute"))
        .assignment;
    let mut hosts: BTreeMap<NodeId, Vec<(QueryId, Query)>> = BTreeMap::new();
    for (id, q, _) in &queries {
        hosts.entry(placed.processor_of(*id).expect("placed")).or_default().push((*id, q.clone()));
    }

    let network = || {
        let mut net = BrokerNetwork::new(s.dep.topology().clone());
        for name in &s.streams {
            net.advertise(name.as_str(), s.stream_source[name]);
        }
        net
    };
    let mut r =
        RecoveryNetwork::new(LossyNetwork::new(network(), FaultPlan::clean()), u64::MAX / 2);
    for (&node, hosted) in &hosts {
        r.host_engine(node, hosted.clone());
    }
    let feeds = hosts.iter().enumerate().map(|(h, (&node, hosted))| {
        let streams: BTreeSet<_> = hosted.iter().flat_map(|(_, q)| q.streams()).collect();
        let mut feed = Subscription::builder(node).id(SubId(h as u64));
        for stream in streams {
            feed = feed.stream(stream, StreamProjection::All, vec![]);
        }
        feed.build()
    });
    let mut all_pass = network();
    all_pass.subscribe_batch(feeds.collect());

    let mut records: Vec<Message> =
        (0..s.streams.len()).flat_map(|i| s.readings(i, PERIODS, 0, PERIOD_MS, 42)).collect();
    records.sort_by_key(|m| m.timestamp);
    for period in records.chunk_by(|a, b| a.timestamp == b.timestamp) {
        for m in period {
            assert!(r.publish(m.clone()), "every sensor stream is advertised");
        }
        r.settle();
    }
    all_pass.publish_batch(&records);

    let mut outputs = 0;
    for (&node, hosted) in &hosts {
        let mut engine = StreamEngine::new();
        for (id, q) in hosted {
            engine.add_query(*id, q.clone());
        }
        let streams: BTreeSet<_> = hosted.iter().flat_map(|(_, q)| q.streams()).collect();
        let expected: Vec<_> = records
            .iter()
            .filter(|m| streams.contains(m.stream.as_str()))
            .flat_map(|m| engine.push(m.clone()))
            .collect();
        assert_eq!(r.output_log(node), &expected[..], "host {node} lost results to its feed");
        outputs += expected.len();
    }
    assert!(outputs > 0, "the hosted engines emitted nothing: the check is vacuous");

    let filtered = link_cost(&s, &r.lossy().goodput_stats());
    let unfiltered = link_cost(&s, &all_pass.all_link_stats());
    assert!(filtered < unfiltered, "selection feeds cost {filtered}, all-pass feeds {unfiltered}");
    // Exact under the standing seed: a change to the cover, the placement
    // or the broker's forwarding moves them.
    assert_eq!(outputs, 972);
    assert_eq!(filtered, 30_437_476.702_656_634);
    assert_eq!(unfiltered, 32_046_302.073_507_57);
}

//! The four workloads. Each stresses another layer; see the README for
//! why each exists and what its traced breakdown should look like.

pub mod filter_fanout;
pub mod lossy_recovery;
pub mod placement_churn;
pub mod sensor_join;

use crate::harness::Ctx;
use crate::measure::LinkLedger;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_net::Deployment;
use cosmos_pubsub::{BrokerNetwork, SubstreamTable, TrafficModel};

/// Records per `publish_batch` call, in every workload.
pub const BATCH_LEN: usize = 64;

/// The paper's *modelled* weighted communication cost of an assignment:
/// multicast delivery of each substream to the processors interested in
/// it, plus unicast of each result stream to its proxy.
pub fn modelled_cost(
    dep: &Deployment,
    table: &SubstreamTable,
    specs: &[QuerySpec],
    assignment: &Assignment,
) -> f64 {
    let model = TrafficModel::new(dep, table);
    let interests = assignment.interests(specs, dep.processors(), table.len());
    let flows = specs
        .iter()
        .filter_map(|q| assignment.processor_of(q.id).map(|p| (p, q.proxy, q.result_rate)));
    model.source_delivery_cost(&interests) + model.result_unicast_cost(flows)
}

/// Count names of the two publish stages: records published, deliveries.
pub const SOURCE: [&str; 2] = ["pubsub.source.records", "pubsub.source.deliveries"];
pub const RESULT: [&str; 2] = ["pubsub.result.records", "pubsub.result.deliveries"];

/// After a publish's deliveries have been consumed: folds the brokers'
/// link counters into `ledger` and clears them together with the delivery
/// log (the log can only be cleared with the counters, and would otherwise
/// grow without bound). Counts only during the fixed phase.
pub fn drain(
    net: &mut BrokerNetwork,
    ledger: &mut LinkLedger,
    ctx: &mut Ctx,
    stage: [&'static str; 2],
    published: usize,
) {
    let delivered = net.log().len();
    ctx.tracer.enter("pubsub.drain");
    if ctx.fixed {
        ctx.counts.add(stage[0], published as f64);
        ctx.counts.add(stage[1], delivered as f64);
        ledger.absorb(net.all_link_stats());
    }
    net.reset_stats();
    ctx.tracer.exit();
}

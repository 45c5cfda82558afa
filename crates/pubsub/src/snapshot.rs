//! The frozen image of the broker's routing state.
//!
//! [`BrokerNetwork::snapshot`](crate::broker::BrokerNetwork::snapshot)
//! freezes every routing table into a [`RoutingSnapshot`]: per node and
//! stream, a clone of the partition matching reads — members, threshold
//! lists, tombstones and all — and of each hop group's next hop with its
//! forward plans (`RoutingTable::freeze`). Churn only marks the nodes
//! whose tables it touched; the next snapshot freezes those again,
//! shares every clean node's frozen table with the previous snapshot by
//! `Arc`, and is cached until the next churn.
//!
//! Nothing publishes through the image. Its one reader,
//! [`RoutingSnapshot::footprint`], counts it the way
//! [`BrokerNetwork::footprint`](crate::broker::BrokerNetwork::footprint)
//! counts the live tables. The freeze stays because the end-to-end
//! harness times it — from scratch and again after churn — and goes when
//! the harness stops doing so.

use crate::index::{Partition, RoutingFootprint};
use crate::subscription::MaskedProjection;
use cosmos_net::NodeId;
use cosmos_util::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

/// The frozen image of one stream partition: a clone of the live
/// partition, plus its hop groups' next hops and forward plans.
#[derive(Debug)]
pub(crate) struct FrozenPartition {
    pub(crate) part: Partition,
    pub(crate) hops: Vec<(NodeId, MaskedProjection)>,
}

/// The frozen image of one node's routing table, per stream.
pub(crate) type FrozenTable = HashMap<Symbol, FrozenPartition>;

/// An immutable image of the whole network's routing tables, one frozen
/// table per node, built by
/// [`BrokerNetwork::snapshot`](crate::broker::BrokerNetwork::snapshot).
#[derive(Debug)]
pub struct RoutingSnapshot {
    /// The broker's routing-state version this snapshot was built from.
    pub(crate) version: u64,
    pub(crate) tables: Vec<Arc<FrozenTable>>,
}

impl RoutingSnapshot {
    /// The broker routing-state version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Size counters of the frozen tables: partitions, member records and
    /// hop groups, tombstones included — equal to the live network's
    /// footprint when this snapshot was built.
    pub fn footprint(&self) -> RoutingFootprint {
        let mut fp = RoutingFootprint::default();
        for frozen in self.tables.iter().flat_map(|t| t.values()) {
            fp.add_partition(&frozen.part, frozen.hops.len());
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use crate::broker::BrokerNetwork;
    use crate::subscription::{StreamProjection, SubId, Subscription};
    use cosmos_net::{NodeId, Topology};
    use cosmos_query::{AttrRef, CmpOp, Predicate, Scalar};
    use cosmos_util::Symbol;
    use std::sync::Arc;

    fn star_net() -> BrokerNetwork {
        // 0 - 1 - 2 and 1 - 3: churn at 3's branch must not re-freeze 2.
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(1), NodeId(3), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net
    }

    fn all_sub(id: u64, at: NodeId) -> Subscription {
        Subscription::builder(at).id(SubId(id)).stream("R", StreamProjection::All, vec![]).build()
    }

    #[test]
    fn incremental_build_reuses_clean_nodes_frozen_tables() {
        let mut net = star_net();
        net.subscribe(all_sub(1, NodeId(2)));
        let s1 = net.snapshot();
        net.subscribe(all_sub(2, NodeId(3)));
        let s2 = net.snapshot();
        // Node 2's table did not change: its frozen image is shared.
        assert!(Arc::ptr_eq(&s1.tables[2], &s2.tables[2]), "clean node must reuse its table");
        // Node 3 gained a local entry: it was re-frozen.
        assert!(!Arc::ptr_eq(&s1.tables[3], &s2.tables[3]), "dirty node must be re-frozen");
    }

    /// Snapshots are cached (same `Arc` back) while no churn happens and
    /// rebuilt — with a higher version — as soon as churn commits. An old
    /// snapshot keeps what it froze.
    #[test]
    fn snapshot_cached_until_churn() {
        let mut net = star_net();
        net.subscribe(all_sub(1, NodeId(2)));
        let s1 = net.snapshot();
        let s2 = net.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "no churn: snapshot must be cached");
        assert_eq!(s1.version(), net.routing_version());
        let before = net.footprint();
        assert_eq!(s1.footprint(), before);
        net.subscribe(all_sub(2, NodeId(1)));
        let s3 = net.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3), "churn must produce a new snapshot");
        assert!(s3.version() > s1.version());
        assert_eq!(s3.footprint(), net.footprint());
        assert_ne!(s3.footprint(), before, "the subscription left entries behind");
        assert_eq!(s1.footprint(), before, "an old snapshot keeps what it froze");
        // And the other direction: committed unsubscribes are frozen too.
        net.unsubscribe(SubId(1));
        net.unsubscribe(SubId(2));
        let s4 = net.snapshot();
        assert_eq!(s4.version(), net.routing_version());
        assert_eq!(s4.footprint(), net.footprint());
    }

    /// A frozen table is a clone, tombstones and all: freeze a table one
    /// removal short of compacting, dead members in every threshold list
    /// and gone from the always-candidates, and the image must hold the
    /// writer's partition slot for slot.
    #[test]
    fn frozen_image_of_a_tombstoned_table_is_the_live_partition() {
        let mut net = star_net();
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq];
        for i in 0..60u64 {
            // Five operator classes plus a filter-free sixth, all local
            // to node 2: one partition of 60 members there.
            let filters = ops.get((i % 6) as usize).map_or(vec![], |&op| {
                vec![Predicate::Cmp {
                    attr: AttrRef::new("R", "a"),
                    op,
                    value: Scalar::Int(i as i64),
                }]
            });
            net.subscribe(
                Subscription::builder(NodeId(2))
                    .id(SubId(i))
                    .stream("R", StreamProjection::All, filters)
                    .build(),
            );
        }
        // 29 dead of 60 stored: tombstones do not dominate yet.
        for i in 0..29u64 {
            net.unsubscribe(SubId(i));
        }
        // The live tables, printed before the network holds a frozen image.
        let live = format!("{net:?}");
        let snap = net.snapshot();
        let image = &snap.tables[2][&Symbol::intern("R")].part;
        let image = format!("{image:?}");
        assert!(image.contains("dead: true"), "tombstones are kept, not remapped away");
        assert!(live.contains(&image), "same members, same slots, same lists");
        assert_eq!(snap.footprint(), net.footprint(), "tombstones count on both sides");
    }
}

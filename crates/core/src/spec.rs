//! Abstract query specifications for the distribution problem.
//!
//! The distribution layer does not look inside CQL text: what it needs from
//! a query is its *data interest* (which substreams it reads, as a bit
//! vector — §3.2), its estimated *load* (CPU time per unit time on a
//! capability-1 processor — §3.1.1), its *proxy* (the processor its user
//! connected to, where results must be delivered), its result rate, and the
//! size of its operator state (which prices migration — §3.7).

use cosmos_net::{Deployment, NodeId};
use cosmos_pubsub::{QueryTraffic, SubstreamTable, TrafficModel};
use cosmos_query::QueryId;
use cosmos_util::InterestSet;
use std::collections::HashMap;

/// Everything the distribution algorithms need to know about one query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Unique query identifier.
    pub id: QueryId,
    /// Substreams the query reads.
    pub interest: InterestSet,
    /// Estimated CPU load (per unit time on a capability-1 processor).
    pub load: f64,
    /// The processor acting as the user's proxy (result destination).
    pub proxy: NodeId,
    /// Result stream rate in bytes/second.
    pub result_rate: f64,
    /// Size of the query's operator state (for migration cost).
    pub state_size: f64,
}

impl QuerySpec {
    /// The query's input rate: the summed rates of its interest substreams.
    pub fn input_rate(&self, rates: &[f64]) -> f64 {
        self.interest.weighted_len(rates)
    }

    /// What the traffic model sees of the query.
    pub fn traffic(&self) -> QueryTraffic<'_> {
        QueryTraffic { interest: &self.interest, proxy: self.proxy, result_rate: self.result_rate }
    }
}

/// A placement of queries onto processors.
///
/// # Examples
///
/// ```
/// use cosmos_core::spec::Assignment;
/// use cosmos_net::NodeId;
/// use cosmos_query::QueryId;
///
/// let mut a = Assignment::new();
/// a.place(QueryId(1), NodeId(10));
/// assert_eq!(a.processor_of(QueryId(1)), Some(NodeId(10)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    map: HashMap<QueryId, NodeId>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places (or re-places) a query on a processor.
    pub fn place(&mut self, query: QueryId, processor: NodeId) {
        self.map.insert(query, processor);
    }

    /// Removes a query from the assignment.
    pub fn remove(&mut self, query: QueryId) -> Option<NodeId> {
        self.map.remove(&query)
    }

    /// The processor hosting `query`, if assigned.
    pub fn processor_of(&self, query: QueryId) -> Option<NodeId> {
        self.map.get(&query).copied()
    }

    /// Number of assigned queries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no queries are assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(query, processor)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, NodeId)> + '_ {
        self.map.iter().map(|(q, n)| (*q, *n))
    }

    /// Counts queries whose placement differs between `self` and `other`
    /// (queries present in both) — the migration count of an adaptation
    /// round.
    pub fn migrations_from(&self, other: &Assignment) -> usize {
        self.map.iter().filter(|(q, n)| other.map.get(q).is_some_and(|o| o != *n)).count()
    }

    /// Per-processor aggregate load, given the query set.
    pub fn loads(&self, queries: &[QuerySpec], processors: &[NodeId]) -> Vec<f64> {
        let index: HashMap<NodeId, usize> =
            processors.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut loads = vec![0.0; processors.len()];
        for q in queries {
            if let Some(&node) = self.map.get(&q.id) {
                if let Some(&i) = index.get(&node) {
                    loads[i] += q.load;
                }
            }
        }
        loads
    }

    /// Per-processor union interest, given the query set — the merged
    /// subscription each processor inserts into the Pub/Sub.
    pub fn interests(
        &self,
        queries: &[QuerySpec],
        processors: &[NodeId],
        universe: usize,
    ) -> Vec<InterestSet> {
        let index: HashMap<NodeId, usize> =
            processors.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut interests = vec![InterestSet::new(universe); processors.len()];
        for q in queries {
            if let Some(&node) = self.map.get(&q.id) {
                if let Some(&i) = index.get(&node) {
                    interests[i].union_with(&q.interest);
                }
            }
        }
        interests
    }
}

impl FromIterator<(QueryId, NodeId)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (QueryId, NodeId)>>(iter: T) -> Self {
        Self { map: iter.into_iter().collect() }
    }
}

/// The paper's *modelled* weighted communication cost of an assignment,
/// from nothing, as its `(source, result)` parts: multicast delivery of
/// each substream to the processors hosting a query that reads it, and
/// unicast of each placed query's result stream to its proxy
/// ([`TrafficModel`]). The total is their sum.
pub fn modelled_cost(
    dep: &Deployment,
    table: &SubstreamTable,
    specs: &[QuerySpec],
    assignment: &Assignment,
) -> (f64, f64) {
    let model = TrafficModel::new(dep, table);
    let interests = assignment.interests(specs, dep.processors(), table.len());
    let flows = specs
        .iter()
        .filter_map(|q| assignment.processor_of(q.id).map(|p| (p, q.proxy, q.result_rate)));
    (model.source_delivery_cost(&interests), model.result_unicast_cost(flows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, load: f64, proxy: u32) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            interest: InterestSet::from_indices(10, [id as usize % 10]),
            load,
            proxy: NodeId(proxy),
            result_rate: 1.0,
            state_size: 1.0,
        }
    }

    #[test]
    fn place_and_lookup() {
        let mut a = Assignment::new();
        a.place(QueryId(1), NodeId(5));
        a.place(QueryId(2), NodeId(6));
        a.place(QueryId(1), NodeId(7)); // re-place
        assert_eq!(a.processor_of(QueryId(1)), Some(NodeId(7)));
        assert_eq!(a.len(), 2);
        assert_eq!(a.remove(QueryId(2)), Some(NodeId(6)));
        assert_eq!(a.processor_of(QueryId(2)), None);
    }

    #[test]
    fn migration_count() {
        let a: Assignment =
            [(QueryId(1), NodeId(1)), (QueryId(2), NodeId(2))].into_iter().collect();
        let mut b = a.clone();
        assert_eq!(b.migrations_from(&a), 0);
        b.place(QueryId(2), NodeId(3));
        assert_eq!(b.migrations_from(&a), 1);
        b.place(QueryId(9), NodeId(9)); // new query: not a migration
        assert_eq!(b.migrations_from(&a), 1);
    }

    #[test]
    fn loads_and_interests_aggregate() {
        let queries = vec![spec(1, 2.0, 0), spec(2, 3.0, 0), spec(3, 4.0, 0)];
        let procs = vec![NodeId(10), NodeId(11)];
        let a: Assignment =
            [(QueryId(1), NodeId(10)), (QueryId(2), NodeId(10)), (QueryId(3), NodeId(11))]
                .into_iter()
                .collect();
        assert_eq!(a.loads(&queries, &procs), vec![5.0, 4.0]);
        let interests = a.interests(&queries, &procs, 10);
        assert_eq!(interests[0].len(), 2); // substreams 1 and 2
        assert_eq!(interests[1].len(), 1);
    }

    #[test]
    fn input_rate_weighs_interest() {
        let q = spec(3, 1.0, 0);
        let rates: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(q.input_rate(&rates), 3.0);
    }
}

//! The operator-placement baseline of the prototype study (§4.2).
//!
//! Two phases, mirroring the classical architecture the paper argues
//! against:
//!
//! 1. **Global operator graph** ("an algorithm similar to \[12\]" —
//!    NiagaraCQ): per-stream scans, selection operators shared between
//!    queries with identical predicate signatures, join operators shared
//!    between queries with identical inputs and join predicates, one output
//!    operator per query pinned at its proxy.
//! 2. **Network-aware placement** ("the algorithm proposed in \[3\]"):
//!    scans pinned at their sources, outputs at their proxies; free
//!    operators placed greedily at the candidate node minimizing
//!    `Σ rate × latency` to their placed neighbors, then improved by local
//!    relocation sweeps until fixpoint (or the sweep budget runs out).
//!
//! Inter-operator traffic is *unicast per edge* — the tightly-coupled
//! client-server transfer model whose lack of sharing motivates COSMOS.

use cosmos_net::{Deployment, NodeId};
use cosmos_query::predicate::selectivity_uniform;
use cosmos_query::{Predicate, Query, QueryId};
use cosmos_util::intern::Symbol;
use std::collections::HashMap;

/// An operator in the shared global plan.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Reads a source stream; pinned at the stream's source node.
    Scan {
        /// Stream name.
        stream: Symbol,
    },
    /// A shared selection with a normalized predicate signature.
    Select {
        /// Stream the selection filters.
        stream: Symbol,
        /// Normalized predicate signature (sorted rendering).
        signature: String,
    },
    /// A shared (binary) join.
    Join {
        /// Normalized join signature including both input signatures.
        signature: String,
    },
    /// Delivers one query's results; pinned at the query's proxy.
    Output {
        /// The consuming query.
        query: QueryId,
    },
}

/// One operator with its output rate estimate.
#[derive(Debug, Clone)]
pub struct Operator {
    /// What the operator does.
    pub kind: OpKind,
    /// Node the operator must run on, if constrained.
    pub pinned: Option<NodeId>,
    /// Estimated output rate (bytes/s).
    pub out_rate: f64,
}

/// The shared global operator graph.
#[derive(Debug, Clone, Default)]
pub struct OperatorGraph {
    /// Operators, topologically ordered (inputs precede consumers).
    pub ops: Vec<Operator>,
    /// Data-flow edges `(producer, consumer, rate)`.
    pub edges: Vec<(usize, usize, f64)>,
}

/// Configuration for rate estimation.
#[derive(Debug, Clone, Copy)]
pub struct RateModel {
    /// Assumed uniform attribute range for selectivity estimation.
    pub attr_lo: f64,
    /// Upper end of the attribute range.
    pub attr_hi: f64,
    /// Join selectivity coefficient: `out = coeff × min(in_l, in_r)`.
    pub join_coeff: f64,
}

impl Default for RateModel {
    fn default() -> Self {
        Self { attr_lo: 0.0, attr_hi: 100.0, join_coeff: 0.5 }
    }
}

fn predicate_signature(preds: &[&Predicate]) -> String {
    let mut parts: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
    parts.sort();
    parts.join(" AND ")
}

fn selection_selectivity(preds: &[&Predicate], model: &RateModel) -> f64 {
    preds
        .iter()
        .map(|p| match p {
            Predicate::Cmp { op, value, .. } => {
                let c = value.as_f64().unwrap_or(model.attr_lo);
                selectivity_uniform(*op, c, model.attr_lo, model.attr_hi)
            }
            _ => 1.0,
        })
        .product()
}

impl OperatorGraph {
    /// Builds the shared plan for a set of parsed queries.
    ///
    /// `stream_rate` gives the input rate per stream name; `stream_source`
    /// its origin node. Queries may have 1..n relations; joins compose
    /// left-deep in `FROM` order.
    ///
    /// # Panics
    ///
    /// Panics if a query references a stream missing from either map.
    pub fn build(
        queries: &[(QueryId, Query, NodeId)],
        stream_rate: &HashMap<String, f64>,
        stream_source: &HashMap<String, NodeId>,
        model: &RateModel,
    ) -> Self {
        let mut graph = OperatorGraph::default();
        let mut scan_of: HashMap<Symbol, usize> = HashMap::new();
        let mut select_of: HashMap<(Symbol, String), usize> = HashMap::new();
        let mut join_of: HashMap<String, usize> = HashMap::new();

        for (qid, query, proxy) in queries {
            // Per-relation chain: scan → (shared) select.
            let mut rel_tops: Vec<usize> = Vec::new();
            for rel in &query.relations {
                let rate = *stream_rate
                    .get(rel.stream.as_str())
                    .unwrap_or_else(|| panic!("unknown stream {}", rel.stream));
                let source = *stream_source
                    .get(rel.stream.as_str())
                    .unwrap_or_else(|| panic!("unknown stream {}", rel.stream));
                let scan = *scan_of.entry(rel.stream).or_insert_with(|| {
                    graph.ops.push(Operator {
                        kind: OpKind::Scan { stream: rel.stream },
                        pinned: Some(source),
                        out_rate: rate,
                    });
                    graph.ops.len() - 1
                });
                let preds = query.selection_predicates_for(rel.alias);
                let top = if preds.is_empty() {
                    scan
                } else {
                    let sig = predicate_signature(&preds);
                    let key = (rel.stream, sig.clone());
                    *select_of.entry(key).or_insert_with(|| {
                        let sel = selection_selectivity(&preds, model);
                        let out_rate = rate * sel;
                        graph.ops.push(Operator {
                            kind: OpKind::Select { stream: rel.stream, signature: sig },
                            pinned: None,
                            out_rate,
                        });
                        let idx = graph.ops.len() - 1;
                        graph.edges.push((scan, idx, rate));
                        idx
                    })
                };
                rel_tops.push(top);
            }

            // Left-deep join chain, shared by signature.
            let join_sig = predicate_signature(&query.join_predicates().collect::<Vec<_>>());
            let mut top = rel_tops[0];
            for &right in &rel_tops[1..] {
                let (a, b) = if top <= right { (top, right) } else { (right, top) };
                let signature = format!("{a}|{b}|{join_sig}");
                top = *join_of.entry(signature.clone()).or_insert_with(|| {
                    let rl = graph.ops[a].out_rate;
                    let rr = graph.ops[b].out_rate;
                    let out_rate = model.join_coeff * rl.min(rr);
                    graph.ops.push(Operator {
                        kind: OpKind::Join { signature },
                        pinned: None,
                        out_rate,
                    });
                    let idx = graph.ops.len() - 1;
                    graph.edges.push((a, idx, rl));
                    graph.edges.push((b, idx, rr));
                    idx
                });
            }

            // Per-query output pinned at the proxy.
            graph.ops.push(Operator {
                kind: OpKind::Output { query: *qid },
                pinned: Some(*proxy),
                out_rate: graph.ops[top].out_rate,
            });
            let out = graph.ops.len() - 1;
            let rate = graph.ops[top].out_rate;
            graph.edges.push((top, out, rate));
        }
        graph
    }

    /// Number of operators of each kind: `(scans, selects, joins, outputs)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for op in &self.ops {
            match op.kind {
                OpKind::Scan { .. } => c.0 += 1,
                OpKind::Select { .. } => c.1 += 1,
                OpKind::Join { .. } => c.2 += 1,
                OpKind::Output { .. } => c.3 += 1,
            }
        }
        c
    }
}

/// The network-aware placement algorithm.
#[derive(Debug, Clone, Copy)]
pub struct OperatorPlacement {
    /// Local-improvement sweeps after the greedy pass.
    pub sweeps: usize,
}

impl Default for OperatorPlacement {
    fn default() -> Self {
        Self { sweeps: 4 }
    }
}

/// A placed operator graph with its communication cost.
#[derive(Debug, Clone)]
pub struct PlacedGraph {
    /// Node hosting each operator.
    pub location: Vec<NodeId>,
    /// `Σ rate × latency` over data-flow edges (unicast per edge).
    pub cost: f64,
}

impl OperatorPlacement {
    /// Places `graph` onto `candidates` (the processors), respecting pins.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty while free operators exist.
    pub fn place(
        &self,
        graph: &OperatorGraph,
        dep: &Deployment,
        candidates: &[NodeId],
    ) -> PlacedGraph {
        let n = graph.ops.len();
        let mut location: Vec<Option<NodeId>> = graph.ops.iter().map(|o| o.pinned).collect();
        // Adjacency for cost evaluation.
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(a, b, r) in &graph.edges {
            adj[a].push((b, r));
            adj[b].push((a, r));
        }
        let cost_of = |location: &[Option<NodeId>], op: usize, at: NodeId| -> f64 {
            adj[op]
                .iter()
                .filter_map(|&(o, r)| location[o].map(|loc| r * dep.distance(at, loc)))
                .sum()
        };
        // Greedy pass in topological (construction) order.
        for op in 0..n {
            if location[op].is_some() {
                continue;
            }
            assert!(!candidates.is_empty(), "no candidate nodes for free operators");
            let best = candidates
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    cost_of(&location, op, a)
                        .partial_cmp(&cost_of(&location, op, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("candidates nonempty");
            location[op] = Some(best);
        }
        // Local improvement sweeps.
        for _ in 0..self.sweeps {
            let mut moved = false;
            for op in 0..n {
                if graph.ops[op].pinned.is_some() {
                    continue;
                }
                let cur = location[op].expect("placed in greedy pass");
                let cur_cost = cost_of(&location, op, cur);
                let best = candidates
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        cost_of(&location, op, a)
                            .partial_cmp(&cost_of(&location, op, b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("candidates nonempty");
                if cost_of(&location, op, best) < cur_cost - 1e-9 {
                    location[op] = Some(best);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let location: Vec<NodeId> =
            location.into_iter().map(|l| l.expect("all operators placed")).collect();
        let cost =
            graph.edges.iter().map(|&(a, b, r)| r * dep.distance(location[a], location[b])).sum();
        PlacedGraph { location, cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_net::{Topology, TransitStubConfig};
    use cosmos_query::parse_query;

    fn line_deployment() -> Deployment {
        // src0 -1- p1 -1- p2 -1- p3 (proxy side)
        let mut t = Topology::new(4);
        for i in 0..3u32 {
            t.add_edge(NodeId(i), NodeId(i + 1), 1.0);
        }
        Deployment::with_roles(t, vec![NodeId(0)], vec![NodeId(1), NodeId(2), NodeId(3)])
    }

    fn maps() -> (HashMap<String, f64>, HashMap<String, NodeId>) {
        let rates = HashMap::from([("R".to_string(), 100.0), ("S".to_string(), 100.0)]);
        let sources = HashMap::from([("R".to_string(), NodeId(0)), ("S".to_string(), NodeId(0))]);
        (rates, sources)
    }

    #[test]
    fn identical_selections_are_shared() {
        let (rates, sources) = maps();
        let q = |i: u64| {
            (QueryId(i), parse_query("SELECT * FROM R [Now] WHERE R.a > 50").unwrap(), NodeId(3))
        };
        let graph =
            OperatorGraph::build(&[q(1), q(2), q(3)], &rates, &sources, &RateModel::default());
        let (scans, selects, joins, outputs) = graph.kind_counts();
        assert_eq!(scans, 1);
        assert_eq!(selects, 1, "equal predicates must share one selection");
        assert_eq!(joins, 0);
        assert_eq!(outputs, 3);
    }

    #[test]
    fn different_selections_are_not_shared() {
        let (rates, sources) = maps();
        let queries = vec![
            (QueryId(1), parse_query("SELECT * FROM R [Now] WHERE R.a > 50").unwrap(), NodeId(3)),
            (QueryId(2), parse_query("SELECT * FROM R [Now] WHERE R.a > 60").unwrap(), NodeId(3)),
        ];
        let graph = OperatorGraph::build(&queries, &rates, &sources, &RateModel::default());
        assert_eq!(graph.kind_counts().1, 2);
    }

    #[test]
    fn identical_joins_are_shared() {
        let (rates, sources) = maps();
        let q = |i: u64| {
            (
                QueryId(i),
                parse_query("SELECT * FROM R [Now], S [Now] WHERE R.k = S.k").unwrap(),
                NodeId(3),
            )
        };
        let graph = OperatorGraph::build(&[q(1), q(2)], &rates, &sources, &RateModel::default());
        assert_eq!(graph.kind_counts().2, 1, "identical joins must be shared");
    }

    #[test]
    fn selective_filter_reduces_downstream_rate() {
        let (rates, sources) = maps();
        let queries = vec![(
            QueryId(1),
            parse_query("SELECT * FROM R [Now] WHERE R.a > 90").unwrap(),
            NodeId(3),
        )];
        let graph = OperatorGraph::build(&queries, &rates, &sources, &RateModel::default());
        let select = graph.ops.iter().find(|o| matches!(o.kind, OpKind::Select { .. })).unwrap();
        assert!((select.out_rate - 10.0).abs() < 1e-9, "90% selectivity filter");
    }

    #[test]
    fn placement_respects_pins_and_pushes_filters_to_source() {
        let dep = line_deployment();
        let (rates, sources) = maps();
        let queries = vec![(
            QueryId(1),
            parse_query("SELECT * FROM R [Now] WHERE R.a > 90").unwrap(),
            NodeId(3),
        )];
        let graph = OperatorGraph::build(&queries, &rates, &sources, &RateModel::default());
        let placed = OperatorPlacement::default().place(&graph, &dep, dep.processors());
        for (i, op) in graph.ops.iter().enumerate() {
            if let Some(pin) = op.pinned {
                assert_eq!(placed.location[i], pin);
            }
        }
        // The selective filter should sit next to the source (node 1), not
        // at the proxy: scan→select edge carries 100 B/s, select→output 10.
        let select_idx =
            graph.ops.iter().position(|o| matches!(o.kind, OpKind::Select { .. })).unwrap();
        assert_eq!(placed.location[select_idx], NodeId(1), "early filtering expected");
        // Cost: scan(0)→select(1): 100×1; select(1)→output(3): 10×2.
        assert!((placed.cost - 120.0).abs() < 1e-9, "cost {}", placed.cost);
    }

    #[test]
    fn sweeps_never_increase_cost() {
        let topo = TransitStubConfig::small().generate(3);
        let dep = Deployment::assign(topo, 4, 8, 3);
        let mut rates = HashMap::new();
        let mut sources = HashMap::new();
        for (i, &s) in dep.sources().iter().enumerate() {
            rates.insert(format!("S{i}"), 50.0 + i as f64);
            sources.insert(format!("S{i}"), s);
        }
        let queries: Vec<(QueryId, Query, NodeId)> = (0..12)
            .map(|i| {
                let a = i % 4;
                let b = (i + 1) % 4;
                let q = parse_query(&format!(
                    "SELECT * FROM S{a} [Now] X, S{b} [Now] Y WHERE X.ts = Y.ts AND X.v > {}",
                    (i * 7) % 100
                ))
                .unwrap();
                (QueryId(i as u64), q, dep.processors()[i as usize % 8])
            })
            .collect();
        let graph = OperatorGraph::build(&queries, &rates, &sources, &RateModel::default());
        let no_sweeps = OperatorPlacement { sweeps: 0 }.place(&graph, &dep, dep.processors());
        let swept = OperatorPlacement { sweeps: 6 }.place(&graph, &dep, dep.processors());
        assert!(swept.cost <= no_sweeps.cost + 1e-9);
    }
}

//! Graph mapping — Algorithm 2 of the paper (§3.5).
//!
//! A greedy pass produces an initial mapping; Kernighan–Lin-style iterative
//! refinement then repeatedly remaps the q-vertex with the highest *gain*
//! (WEC reduction). Hill-climbing: a vertex with the best (possibly
//! negative) gain is still remapped, so the search can escape local minima;
//! the best mapping ever seen is restored at the start of each outer
//! iteration and returned at the end.
//!
//! The load-balancing constraint (eqn 3.1) is enforced throughout: a remap
//! is admissible only if the destination stays within its limit or the move
//! strictly improves an existing violation. As the paper notes, finding a
//! feasible mapping is itself NP-complete; the algorithm is best-effort.

use crate::graph::{target_loads, wec, NetworkGraph, QgVertex, QueryGraph};

/// Safety cap on the outer refinement iterations of [`refine`].
const MAX_OUTER: usize = 16;

/// Result of mapping a query graph onto a network graph.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// `mapping[i]` = network-graph vertex hosting query-graph vertex `i`.
    pub mapping: Vec<usize>,
    /// The mapping's Weighted Edge Cut.
    pub wec: f64,
    /// Per-target loads.
    pub loads: Vec<f64>,
    /// Per-target load limits (eqn 3.1).
    pub limits: Vec<f64>,
}

impl MappingResult {
    /// Does every target respect its load limit (within `eps`)?
    pub fn is_balanced(&self, eps: f64) -> bool {
        self.loads.iter().zip(&self.limits).all(|(l, lim)| *l <= lim + eps)
    }
}

/// Where an n-vertex must be pinned: its covering target, or its anchor.
pub type PinOf<'a> = dyn Fn(&QgVertex) -> Option<usize> + 'a;

/// Cost of placing vertex `v` on target `k` (the WEC terms incident to
/// `v`), counting only neighbors that already have an image.
pub(crate) fn placement_cost(
    qg: &QueryGraph,
    ng: &NetworkGraph,
    mapping: &[usize],
    v: usize,
    k: usize,
) -> f64 {
    qg.neighbors(v)
        .filter(|(j, _)| mapping[*j] != usize::MAX)
        .map(|(j, w)| w * ng.distance(k, mapping[j]))
        .sum()
}

/// Is moving weight `w` onto target `k` admissible: within limit, or a
/// strict improvement of the source target's violation?
pub(crate) fn admissible(
    loads: &[f64],
    limits: &[f64],
    from: Option<usize>,
    to: usize,
    w: f64,
) -> bool {
    let new_violation = (loads[to] + w - limits[to]).max(0.0);
    if new_violation <= 1e-12 {
        return true;
    }
    match from {
        Some(f) => {
            let old_violation = (loads[f] - limits[f]).max(0.0);
            new_violation < old_violation - 1e-12
        }
        None => false,
    }
}

/// Eqn 3.1's choice of a target for a vertex of weight `w`: the cheapest
/// target that stays within its limit, else the one with the least
/// violation, cost breaking ties (within 1e-12); the lower index wins an
/// exact tie. `cost(k)` prices target `k`.
///
/// # Panics
///
/// Panics when there is no target.
pub(crate) fn pick_target(
    loads: &[f64],
    limits: &[f64],
    w: f64,
    mut cost: impl FnMut(usize) -> f64,
) -> usize {
    let mut best_feasible: Option<(f64, usize)> = None;
    let mut best_violation: Option<(f64, f64, usize)> = None;
    for k in 0..loads.len() {
        let cost = cost(k);
        if loads[k] + w <= limits[k] + 1e-12 && best_feasible.is_none_or(|(c, _)| cost < c) {
            best_feasible = Some((cost, k));
        }
        // Violations compare lexicographically; cost breaks ties.
        let viol = loads[k] + w - limits[k];
        if best_violation
            .is_none_or(|(vv, vc, _)| viol < vv - 1e-12 || (viol < vv + 1e-12 && cost < vc))
        {
            best_violation = Some((viol, cost, k));
        }
    }
    best_feasible
        .map(|(_, k)| k)
        .or(best_violation.map(|(_, _, k)| k))
        .expect("at least one target exists")
}

/// Runs Algorithm 2: greedy initial mapping + iterative refinement.
///
/// `pin` fixes n-vertices to network-graph indices (targets for covered
/// nodes, anchors otherwise); it must return `Some` for every n-vertex and
/// is ignored for q-vertices. `alpha` is the allowed load imbalance (`α` in
/// eqn 3.1; paper: 0.1).
///
/// # Panics
///
/// Panics if the network graph has no targets while the query graph has
/// q-vertices, or if `pin` fails to pin an n-vertex.
pub fn map_graph(qg: &QueryGraph, ng: &NetworkGraph, pin: &PinOf, alpha: f64) -> MappingResult {
    map(qg, ng, pin, alpha, true)
}

/// The greedy phase of Algorithm 2 alone (the Greedy baseline): as
/// [`map_graph`] without the iterative refinement.
pub fn map_greedy(qg: &QueryGraph, ng: &NetworkGraph, pin: &PinOf, alpha: f64) -> MappingResult {
    map(qg, ng, pin, alpha, false)
}

/// Pins the n-vertices, places the q-vertices in descending weight order,
/// each by [`pick_target`], and refines the outcome when asked to.
fn map(
    qg: &QueryGraph,
    ng: &NetworkGraph,
    pin: &PinOf,
    alpha: f64,
    refined: bool,
) -> MappingResult {
    let n = qg.len();
    let k_targets = ng.target_count();
    let mut mapping = vec![usize::MAX; n];
    let limits = ng.load_limits(qg.total_weight(), alpha);
    let mut loads = vec![0.0; k_targets];

    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let v = &qg.vertices[i];
        if v.is_net() {
            let p = pin(v).unwrap_or_else(|| panic!("n-vertex {i} has no pin target"));
            mapping[i] = p;
            if p < k_targets {
                loads[p] += v.weight;
            }
        }
    }

    let mut order: Vec<usize> = qg.query_vertices().collect();
    if !order.is_empty() {
        assert!(k_targets > 0, "cannot map q-vertices without targets");
    }
    order.sort_by(|&a, &b| {
        qg.vertices[b]
            .weight
            .partial_cmp(&qg.vertices[a].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &v in &order {
        let w = qg.vertices[v].weight;
        let k = pick_target(&loads, &limits, w, |k| placement_cost(qg, ng, &mapping, v, k));
        mapping[v] = k;
        loads[k] += w;
    }
    if refined {
        refine(qg, ng, &mut mapping, &mut loads, &limits);
    }
    let (wec, loads) = (wec(qg, ng, &mapping), target_loads(qg, ng, &mapping));
    MappingResult { mapping, wec, loads, limits }
}

/// Iterative refinement (Algorithm 2, lines 2–20) on an existing mapping.
fn refine(
    qg: &QueryGraph,
    ng: &NetworkGraph,
    mapping: &mut Vec<usize>,
    loads: &mut Vec<f64>,
    limits: &[f64],
) {
    let n = qg.len();
    let k_targets = ng.target_count();
    if k_targets == 0 || n == 0 {
        return;
    }
    let q_vertices: Vec<usize> = qg.query_vertices().collect();
    if q_vertices.is_empty() {
        return;
    }

    // cost[v][k] for q-vertices (dense rows indexed by a side table).
    let mut row_of = vec![usize::MAX; n];
    for (r, &v) in q_vertices.iter().enumerate() {
        row_of[v] = r;
    }
    let mut cost = vec![0.0; q_vertices.len() * k_targets];
    let compute_row = |cost: &mut Vec<f64>, mapping: &[usize], v: usize, r: usize| {
        for k in 0..k_targets {
            cost[r * k_targets + k] = placement_cost(qg, ng, mapping, v, k);
        }
    };
    for (r, &v) in q_vertices.iter().enumerate() {
        compute_row(&mut cost, mapping, v, r);
    }

    let mut current_wec = wec(qg, ng, mapping);
    let mut min_wec = current_wec;
    let mut min_mapping = mapping.clone();

    for _outer in 0..MAX_OUTER {
        // Restore the best mapping seen so far.
        if *mapping != min_mapping {
            mapping.clone_from(&min_mapping);
            *loads = target_loads(qg, ng, mapping);
            for (r, &v) in q_vertices.iter().enumerate() {
                compute_row(&mut cost, mapping, v, r);
            }
            current_wec = min_wec;
        }
        let wec_at_start = min_wec;

        let mut matched = vec![false; n];
        loop {
            // Global best admissible move among unmatched q-vertices.
            let mut best: Option<(f64, usize, usize)> = None; // (gain, v, k)
            for (r, &v) in q_vertices.iter().enumerate() {
                if matched[v] {
                    continue;
                }
                let from = mapping[v];
                let w = qg.vertices[v].weight;
                let c_from = cost[r * k_targets + from];
                for k in 0..k_targets {
                    if k == from {
                        continue;
                    }
                    if !admissible(loads, limits, Some(from), k, w) {
                        continue;
                    }
                    let gain = c_from - cost[r * k_targets + k];
                    if best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, v, k));
                    }
                }
            }
            let Some((gain, v, k)) = best else { break };
            // Apply the move (even when gain < 0: hill climbing).
            let from = mapping[v];
            let w = qg.vertices[v].weight;
            mapping[v] = k;
            loads[from] -= w;
            loads[k] += w;
            matched[v] = true;
            current_wec -= gain;
            // Update neighbor cost rows.
            for (j, wj) in qg.neighbors(v) {
                let rj = row_of[j];
                if rj == usize::MAX {
                    continue;
                }
                for t in 0..k_targets {
                    cost[rj * k_targets + t] += wj * (ng.distance(t, k) - ng.distance(t, from));
                }
            }
            if current_wec < min_wec - 1e-9 {
                min_wec = current_wec;
                min_mapping.clone_from(mapping);
            }
        }

        if min_wec >= wec_at_start - 1e-9 {
            break; // no outer improvement
        }
    }

    mapping.clone_from(&min_mapping);
    *loads = target_loads(qg, ng, mapping);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{edge_weight, effective_rates, NetVertex};
    use cosmos_net::NodeId;
    use cosmos_query::QueryId;
    use cosmos_util::InterestSet;
    use proptest::prelude::*;

    const U: usize = 16;

    /// The Figure 5 example, structurally: two sources (s1 = node 0,
    /// s2 = node 1), two equal processors (n1 = node 2, n2 = node 3).
    /// Q1 reads heavily from s1, result to n1. Q2 reads from s2, result to
    /// n1. Q3's interest is contained in Q1's (overlap!), result to n2.
    /// Q4 reads from s2, result to n2.
    /// Priced with raw substream rates or, as the distributor's graphs
    /// are, with the rates `shared` among the queries that read them.
    fn figure5(shared: bool) -> (QueryGraph, NetworkGraph) {
        // Substreams 0..8 from s1, 8..16 from s2.
        let raw = vec![1.0; U];
        let q1 = QgVertex::for_query(
            QueryId(1),
            InterestSet::from_indices(U, 0..8), // 8 units from s1
            0.1,
            NodeId(2),
            1.0,
            1.0,
        );
        let q2 = QgVertex::for_query(
            QueryId(2),
            InterestSet::from_indices(U, 8..16),
            0.1,
            NodeId(2),
            1.0,
            1.0,
        );
        let q3 = QgVertex::for_query(
            QueryId(3),
            InterestSet::from_indices(U, 0..4), // contained in Q1's
            0.1,
            NodeId(3),
            1.0,
            1.0,
        );
        let q4 = QgVertex::for_query(
            QueryId(4),
            InterestSet::from_indices(U, 12..16),
            0.1,
            NodeId(3),
            1.0,
            1.0,
        );
        let s1 = QgVertex::for_net(NodeId(0), InterestSet::from_indices(U, 0..8));
        let s2 = QgVertex::for_net(NodeId(1), InterestSet::from_indices(U, 8..16));
        let p1 = QgVertex::for_net(NodeId(2), InterestSet::new(U));
        let p2 = QgVertex::for_net(NodeId(3), InterestSet::new(U));
        let vertices = vec![q1, q2, q3, q4, s1, s2, p1, p2];
        let rates = if shared { effective_rates(&vertices[..4], &raw) } else { raw };
        let mut qg = QueryGraph::new(vertices);
        for i in 0..qg.len() {
            for j in (i + 1)..qg.len() {
                let w = edge_weight(&qg.vertices[i], &qg.vertices[j], &rates);
                qg.set_edge(i, j, w);
            }
        }
        // Distances: s1 close to n1, s2 close to n2, n1-n2 moderately far.
        let d = move |a: NodeId, b: NodeId| -> f64 {
            let pos = |n: NodeId| -> f64 {
                match n.0 {
                    0 => 0.0, // s1
                    2 => 1.0, // n1
                    3 => 6.0, // n2
                    1 => 7.0, // s2
                    _ => unreachable!(),
                }
            };
            (pos(a) - pos(b)).abs()
        };
        let ng = NetworkGraph::build(
            vec![
                NetVertex { node: NodeId(2), capability: 1.0 },
                NetVertex { node: NodeId(3), capability: 1.0 },
            ],
            vec![
                NetVertex { node: NodeId(0), capability: 0.0 },
                NetVertex { node: NodeId(1), capability: 0.0 },
            ],
            d,
        );
        (qg, ng)
    }

    fn pin_fig5(v: &QgVertex) -> Option<usize> {
        match v.net_node()?.0 {
            2 => Some(0), // n1 is target 0
            3 => Some(1), // n2 is target 1
            0 => Some(2), // s1 anchor
            1 => Some(3), // s2 anchor
            _ => None,
        }
    }

    /// Manual WEC of a scheme (Table 2's evaluation).
    fn scheme_wec(qg: &QueryGraph, ng: &NetworkGraph, scheme: [usize; 4]) -> f64 {
        let mut mapping = vec![0usize; qg.len()];
        mapping[..4].copy_from_slice(&scheme);
        #[allow(clippy::needless_range_loop)]
        for i in 4..qg.len() {
            mapping[i] = pin_fig5(&qg.vertices[i]).unwrap();
        }
        wec(qg, ng, &mapping)
    }

    /// Table 2's ordering: queries at their proxies (Q1, Q2 → n1; Q3, Q4 →
    /// n2) cost more than the best mapping that ignores sharing (Q1, Q4 →
    /// n1; Q2, Q3 → n2), which is no better than the sharing-aware one that
    /// co-locates the overlapping pairs (Q1, Q3 → n1; Q2, Q4 → n2) —
    /// whether a shared substream is charged per reader or once.
    #[test]
    fn table2_scheme_ordering() {
        for (shared, expect) in [(false, [124.0, 114.0, 34.0]), (true, [76.0, 66.0, 26.0])] {
            let (qg, ng) = figure5(shared);
            let [naive, oblivious, aware] =
                [[0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]].map(|s| scheme_wec(&qg, &ng, s));
            assert!(naive > oblivious && oblivious >= aware, "{naive} / {oblivious} / {aware}");
            assert_eq!([naive, oblivious, aware], expect, "shared rates: {shared}");
        }
    }

    /// The three regimes of eqn 3.1's rule, each target priced once.
    #[test]
    fn pick_target_prefers_feasible_then_least_violation_then_cost() {
        let pick = |loads: &[f64], costs: &[f64]| {
            let mut priced = Vec::new();
            let k = pick_target(loads, &[1.0; 3], 1.0, |k| {
                priced.push(k);
                costs[k]
            });
            assert_eq!(priced, [0, 1, 2]);
            k
        };
        // The cheapest target within its limit, not the cheapest overall.
        assert_eq!(pick(&[0.0, 0.0, 0.0], &[3.0, 1.0, 2.0]), 1);
        assert_eq!(pick(&[0.0, 0.5, 0.0], &[3.0, 1.0, 2.0]), 2);
        // All over their limits: the least violation, whatever it costs.
        assert_eq!(pick(&[2.0, 1.5, 3.0], &[0.0, 5.0, 0.0]), 1);
        // Violations within 1e-12 of each other: cost decides, and the
        // lower index wins an exact tie.
        assert_eq!(pick(&[1.5, 1.5 + 4e-13, 1.5 - 4e-13], &[2.0, 1.0, 3.0]), 1);
        assert_eq!(pick(&[1.5, 1.5, 1.5], &[2.0, 2.0, 2.0]), 0);
        assert_eq!(pick(&[0.0, 0.0, 0.0], &[2.0, 2.0, 2.0]), 0);
    }

    #[test]
    fn algorithm2_finds_sharing_aware_mapping() {
        let (qg, ng) = figure5(true);
        let result = map_graph(&qg, &ng, &pin_fig5, 0.1);
        // Enumerate all 16 schemes for the true optimum among balanced ones.
        let mut best = f64::INFINITY;
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    for d in 0..2 {
                        let scheme = [a, b, c, d];
                        let loads: f64 = scheme.iter().filter(|&&k| k == 0).count() as f64 * 0.1;
                        // Balanced ⇔ 2 queries each ((1+α) · 0.2 = 0.22).
                        if !(0.19..=0.22).contains(&loads) {
                            continue;
                        }
                        best = best.min(scheme_wec(&qg, &ng, scheme));
                    }
                }
            }
        }
        assert!(
            result.wec <= best + 1e-9,
            "algorithm WEC {} worse than enumerated optimum {best}",
            result.wec
        );
        assert!(result.is_balanced(1e-9));
    }

    #[test]
    fn pinned_vertices_stay_pinned() {
        let (qg, ng) = figure5(true);
        let result = map_graph(&qg, &ng, &pin_fig5, 0.1);
        for i in 0..qg.len() {
            if qg.vertices[i].is_net() {
                assert_eq!(result.mapping[i], pin_fig5(&qg.vertices[i]).unwrap());
            } else {
                assert!(result.mapping[i] < ng.target_count());
            }
        }
    }

    #[test]
    fn load_constraint_respected_when_feasible() {
        // 4 unit-load queries, 2 equal targets → 2 each under α = 0.1.
        let rates = vec![1.0; U];
        let vertices: Vec<QgVertex> = (0..4)
            .map(|i| {
                QgVertex::for_query(
                    QueryId(i),
                    InterestSet::from_indices(U, [0usize]), // all overlap
                    1.0,
                    NodeId(0),
                    0.0,
                    1.0,
                )
            })
            .collect();
        let mut qg = QueryGraph::new(vertices);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let w = edge_weight(&qg.vertices[i], &qg.vertices[j], &rates);
                qg.set_edge(i, j, w);
            }
        }
        let ng = NetworkGraph::build(
            vec![
                NetVertex { node: NodeId(0), capability: 1.0 },
                NetVertex { node: NodeId(1), capability: 1.0 },
            ],
            vec![],
            |_, _| 5.0,
        );
        let result = map_graph(&qg, &ng, &|_| None, 0.1);
        // Without the constraint all four would co-locate (overlap edges);
        // the constraint forces a 2-2 split.
        assert!(result.is_balanced(1e-9), "loads {:?}", result.loads);
        assert_eq!(result.loads, vec![2.0, 2.0]);
    }

    #[test]
    fn heterogeneous_capabilities_shift_the_limit() {
        let _rates = [1.0; U];
        let vertices: Vec<QgVertex> = (0..6)
            .map(|i| {
                QgVertex::for_query(
                    QueryId(i),
                    InterestSet::from_indices(U, [i as usize % U]),
                    1.0,
                    NodeId(0),
                    0.0,
                    1.0,
                )
            })
            .collect();
        let qg = QueryGraph::new(vertices);
        let ng = NetworkGraph::build(
            vec![
                NetVertex { node: NodeId(0), capability: 2.0 },
                NetVertex { node: NodeId(1), capability: 1.0 },
            ],
            vec![],
            |_, _| 1.0,
        );
        let result = map_graph(&qg, &ng, &|_| None, 0.1);
        assert!(result.is_balanced(1e-9));
        // Limit for target 1: 1.1 * 1 * 6 / 3 = 2.2 → at most 2 queries.
        assert!(result.loads[1] <= 2.2 + 1e-9);
    }

    #[test]
    fn empty_graph_maps_trivially() {
        let qg = QueryGraph::new(vec![]);
        let ng = NetworkGraph::build(
            vec![NetVertex { node: NodeId(0), capability: 1.0 }],
            vec![],
            |_, _| 0.0,
        );
        let r = map_graph(&qg, &ng, &|_| None, 0.1);
        assert_eq!(r.mapping.len(), 0);
        assert_eq!(r.wec, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Refinement never worsens the greedy mapping's WEC and never
        /// unpins n-vertices.
        #[test]
        fn prop_refinement_never_worse_than_greedy(
            n in 2usize..14,
            k in 2usize..5,
            seed in 0u64..50,
        ) {
            let rates = vec![1.0; U];
            let vertices: Vec<QgVertex> = (0..n)
                .map(|i| {
                    let bits = [
                        (i * 3 + seed as usize) % U,
                        (i * 7 + 1) % U,
                        (i + seed as usize) % U,
                    ];
                    QgVertex::for_query(
                        QueryId(i as u64),
                        InterestSet::from_indices(U, bits.iter().copied()),
                        1.0 + (i % 3) as f64,
                        NodeId(0),
                        0.1,
                        1.0,
                    )
                })
                .collect();
            let mut qg = QueryGraph::new(vertices);
            for i in 0..n {
                for j in (i + 1)..n {
                    let w = edge_weight(&qg.vertices[i], &qg.vertices[j], &rates);
                    qg.set_edge(i, j, w);
                }
            }
            let targets: Vec<NetVertex> = (0..k)
                .map(|t| NetVertex { node: NodeId(t as u32), capability: 1.0 })
                .collect();
            let ng = NetworkGraph::build(targets, vec![], |a, b| {
                ((a.0 as f64) - (b.0 as f64)).abs() * 3.0 + 1.0
            });
            let result = map_graph(&qg, &ng, &|_| None, 0.1);
            // Recompute WEC from scratch: must agree with the reported one.
            let fresh = wec(&qg, &ng, &result.mapping);
            prop_assert!((fresh - result.wec).abs() < 1e-6);
            // All vertices mapped to valid targets.
            for &m in &result.mapping {
                prop_assert!(m < k);
            }
        }
    }
}

//! Adaptive query redistribution — Algorithm 3 and the refinement phase
//! (§3.7).
//!
//! Adaptation runs in rounds, root-first: every coordinator re-balances
//! load among its children with a Hu–Blake *load diffusion* solution (the
//! minimum-Euclidean-norm set of inter-child transfers that balances load),
//! then refines the mapping to shave WEC without breaking balance.
//! Transfers run between any two children, which is why Hu–Blake's
//! Laplacian solve has a closed form here: on the complete graph over `n`
//! children with excess loads `e`, `m_ij = (e_i − e_j) / n`. Children
//! repeat the procedure on the finer-grained vertices they receive, down to
//! the processors. Actual query migration happens only after all decisions
//! are made — the driver compares the old and new assignments.
//! A round runs through
//! [`IncrementalOptimizer::round`](crate::IncrementalOptimizer::round),
//! whose memo lets it skip subtrees whose inputs did not change.
//!
//! Vertex-selection heuristics from the paper, all implemented here:
//!
//! - prefer vertices whose migration *benefit* (WEC reduction) is within
//!   `x% = 10%` of the largest benefit;
//! - among those, prefer **dirty** vertices (already picked for remapping
//!   in this round — moving them again adds no migration cost);
//! - among those, prefer the largest **load density** (load per unit of
//!   operator state), minimizing the state that must move;
//! - a vertex may only absorb a transfer `m_ij` that exceeds 90% of its
//!   weight (no drastic overshoot).
//!
//! Every round then ends as `distribute` does: with the query-level
//! refinement on the modelled multicast + unicast cost, over the round's
//! assignment, so a round stops on the cost it is judged on rather than on
//! phase 2's pairwise surrogate. Two of its inputs are adaptation's own.
//! A move has a price: a query off its pre-round host `h` pays
//! `state_size × d(h, k)` to end on `k` — one transfer of its state against
//! one unit of rate time's traffic, a constant, not a knob — and staying on
//! `h`, or returning to it, is free. And moves are admitted against phase
//! 2's band (half the per-level tolerance, applied at the processors), not
//! eqn 3.1's full α: under the full limit the pass re-packs processors to
//! it and undoes the balance phase 1 just bought, and Figure 7's
//! load-deviation curve stops falling.

use crate::coarsen::CoarsenStats;
use crate::distribute::{place_work, DistTiming, Distributor, HierarchyGraphs, RefineStats};
use crate::graph::QgVertex;
use crate::incremental::Memo;
use crate::mapping::{pick_target, placement_cost};
use crate::spec::{Assignment, QuerySpec};
use cosmos_util::rng::rng_for_indexed;
use rand::seq::SliceRandom;

/// Benefit window `x` of §3.7, as a fraction: a phase-1 candidate's
/// benefit must be within 10 % of the largest.
const X_FRACTION: f64 = 0.10;
/// §3.7's fill rule: a vertex absorbs a transfer `m_ij` only if
/// `m_ij > FILL_FRACTION × weight` (90 %, no drastic overshoot).
const FILL_FRACTION: f64 = 0.90;
/// Safety cap on phase-1 moves per coordinator, as a multiple of the
/// vertex count (not from the paper).
const MAX_MOVES_FACTOR: usize = 8;
/// Minimum relative WEC improvement for a phase-2 move (not from the
/// paper): damps oscillation between near-tie placements across rounds.
const MIN_IMPROVEMENT: f64 = 0.002;

/// What [`IncrementalOptimizer::new`](crate::IncrementalOptimizer::new)
/// takes. It carries nothing: adaptation's settings are the constants
/// above, and the type stays only so callers that pass one keep
/// compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptConfig {}

/// Result of one adaptation round.
#[derive(Debug, Clone)]
pub struct AdaptOutcome {
    /// The new placement.
    pub assignment: Assignment,
    /// Queries whose processor changed.
    pub migrations: usize,
    /// Total operator state moved (the paper's migration-cost proxy).
    pub moved_state: f64,
    /// Optimizer running time.
    pub timing: DistTiming,
    /// Coarsening work actually performed (an incremental round's cache
    /// hits cost none — like `timing`, exempt from the comparison with a
    /// fresh optimizer's round).
    pub coarsen: CoarsenStats,
    /// Work of the round's closing pass.
    pub refine: RefineStats,
}

/// The body of [`IncrementalOptimizer::round`](crate::IncrementalOptimizer::round),
/// which has started `memo`'s round.
pub(crate) fn run_round(
    d: &Distributor<'_>,
    specs: &[QuerySpec],
    current: &Assignment,
    seed: u64,
    memo: &mut Memo,
) -> AdaptOutcome {
    let mut timing = DistTiming::default();
    let root = d.tree.root();
    if specs.is_empty() || d.tree.node(root).children.is_empty() {
        // Nothing to place, or a single processor: nothing to adapt.
        let assignment = if specs.is_empty() { Assignment::new() } else { current.clone() };
        let (migrations, moved_state, coarsen, refine) = Default::default();
        return AdaptOutcome { assignment, migrations, moved_state, timing, coarsen, refine };
    }
    let mut next = Assignment::new();

    // Bottom-up graphs grouped by *current* placement.
    let graphs = d.build_hierarchy_graphs(
        specs,
        seed,
        &mut timing,
        |spec| {
            current
                .processor_of(spec.id)
                .unwrap_or_else(|| panic!("query {} missing from current assignment", spec.id))
        },
        Some(&mut *memo),
    );

    // Top-down redistribution. The root operates on its *combined* graph
    // (its children's outputs), not its own coarsened output: coarse
    // vertices at the root may straddle root children — their "current
    // child" would be ambiguous and every round's (re-seeded) coarsening
    // would force different spurious co-location migrations.
    let root_work: Vec<QgVertex> = graphs.constituents[root].iter().flatten().cloned().collect();
    let response =
        adapt_down(d, root, root_work, &graphs, current, &mut next, &mut timing, seed, memo);
    timing.response += response;

    // The closing pass (module docs).
    let refine = d.refine_queries(specs, &mut next, Some(current), d.band(), &mut timing);

    // Migration accounting at the query level.
    let mut migrations = 0;
    let mut moved_state = 0.0;
    for spec in specs {
        let old = current.processor_of(spec.id);
        let new = next.processor_of(spec.id);
        if old.is_some() && new.is_some() && old != new {
            migrations += 1;
            moved_state += spec.state_size;
        }
    }
    let coarsen = graphs.coarsen;
    AdaptOutcome { assignment: next, migrations, moved_state, timing, coarsen, refine }
}

#[allow(clippy::too_many_arguments)]
fn adapt_down(
    d: &Distributor<'_>,
    coord: usize,
    work: Vec<QgVertex>,
    graphs: &HierarchyGraphs,
    current: &Assignment,
    next: &mut Assignment,
    timing: &mut DistTiming,
    seed: u64,
    memo: &mut Memo,
) -> std::time::Duration {
    let node = d.tree.node(coord);
    if node.level == 0 {
        place_work(&work, node.representative, next);
        return std::time::Duration::ZERO;
    }
    // Subtree memo: replay the previous round's decisions for this whole
    // subtree when its inputs are fingerprint-identical.
    let key = match memo.lookup_place(coord, &work, current, d.table.rates()) {
        Ok(placements) => {
            for &(q, p) in placements.iter() {
                next.place(q, p);
            }
            return std::time::Duration::ZERO;
        }
        Err(key) => key,
    };
    // On a miss, decisions are collected into a local assignment so the
    // subtree's placements can be stored before being merged into `next`.
    let mut local = Assignment::new();
    let mut sw = cosmos_util::Stopwatch::new();
    sw.start();
    let mut rng = rng_for_indexed(seed, "adapt", coord as u64);
    let qg = d.graph_from_vertices(work, seed ^ coord as u64);
    let ng = d.network_graph_at(coord, &qg);
    let n_children = ng.target_count();
    let pin = d.pin_at(coord, &ng);
    let cost = |mapping: &[usize], v, k| placement_cost(&qg, &ng, mapping, v, k);

    // Initial mapping = current homes; foreign arrivals get usize::MAX.
    let mut mapping = vec![usize::MAX; qg.len()];
    let mut movable: Vec<usize> = Vec::new();
    let mut arrivals: Vec<usize> = Vec::new();
    let mut dirty = vec![false; qg.len()];
    #[allow(clippy::needless_range_loop)]
    for i in 0..qg.len() {
        let v = &qg.vertices[i];
        if v.is_net() {
            mapping[i] = pin(v).expect("n-vertex must pin");
            continue;
        }
        if v.queries.is_empty() {
            continue;
        }
        let proc = current.processor_of(v.queries[0]);
        match proc.and_then(|p| d.tree.covering_child(coord, p)) {
            Some(pos) => {
                mapping[i] = pos;
                movable.push(i);
            }
            None => arrivals.push(i),
        }
    }
    let original = mapping.clone();

    let total_load: f64 = qg.total_weight();
    let total_cap = ng.total_capability();
    let limits = ng.load_limits(total_load, d.level_alpha());
    let mut loads = vec![0.0; n_children];
    for (i, &m) in mapping.iter().enumerate() {
        if m != usize::MAX && m < n_children {
            loads[m] += qg.vertices[i].weight;
        }
    }

    // Arrivals: greedy placement, marked dirty (they migrate regardless).
    for &v in &arrivals {
        let w = qg.vertices[v].weight;
        let k = pick_target(&loads, &limits, w, |k| cost(&mapping, v, k));
        mapping[v] = k;
        loads[k] += w;
        dirty[v] = true;
        movable.push(v);
    }

    // ---- Phase 1: load re-balancing via diffusion (Algorithm 3).
    // Transfers run between any two children, so Hu–Blake's Laplacian
    // solve has a closed form (`transfers`). Transfers below a small
    // deadband (a few percent of the fair share) are dropped: they cannot
    // affect eqn 3.1 compliance and chasing exact balance every round would
    // migrate queries for nothing.
    let fair = |i: usize| ng.vertex(i).capability * total_load / total_cap.max(1e-12);
    let excess: Vec<f64> = (0..n_children).map(|i| loads[i] - fair(i)).collect();
    // Each transfer past the deadband becomes `(from, to, load left to move)`.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for (i, j, m) in transfers(&excess) {
        let deadband = 0.02 * fair(i).min(fair(j)).max(1e-12);
        if m.abs() < deadband {
            continue;
        }
        if m > 1e-9 {
            pairs.push((i, j, m));
        } else if m < -1e-9 {
            pairs.push((j, i, -m));
        }
    }
    let mut moves = 0usize;
    let max_moves = MAX_MOVES_FACTOR * qg.len().max(1);
    while moves < max_moves {
        let open: Vec<usize> = (0..pairs.len()).filter(|&p| pairs[p].2 > 1e-9).collect();
        let Some(&pick) = open.as_slice().choose(&mut rng) else { break };
        let (from, to, left) = pairs[pick];
        // Benefits of moving each candidate from `from` to `to`.
        let candidates: Vec<usize> = movable
            .iter()
            .copied()
            .filter(|&v| mapping[v] == from && qg.vertices[v].weight > 1e-12)
            .collect();
        let benefits: Vec<f64> =
            candidates.iter().map(|&v| cost(&mapping, v, from) - cost(&mapping, v, to)).collect();
        let Some(&max_benefit) =
            benefits.iter().max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        else {
            pairs[pick].2 = 0.0;
            continue;
        };
        let threshold = max_benefit - X_FRACTION * max_benefit.abs();
        let in_window: Vec<usize> = candidates
            .iter()
            .copied()
            .zip(&benefits)
            .filter(|&(_, b)| *b >= threshold - 1e-12)
            .map(|(v, _)| v)
            .collect();
        let dirty_in: Vec<usize> = in_window.iter().copied().filter(|&v| dirty[v]).collect();
        let pool = if dirty_in.is_empty() { in_window } else { dirty_in };
        // Largest load density among those fitting the 90% rule.
        let fit = |v: usize| left > FILL_FRACTION * qg.vertices[v].weight;
        let chosen = pool.into_iter().filter(|&v| fit(v)).max_by(|&a, &b| {
            let da = qg.vertices[a].weight / qg.vertices[a].state_size.max(1e-12);
            let db = qg.vertices[b].weight / qg.vertices[b].state_size.max(1e-12);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        let Some(v) = chosen else {
            pairs[pick].2 = 0.0; // no admissible vertex: give up on this pair
            continue;
        };
        let w = qg.vertices[v].weight;
        mapping[v] = to;
        loads[from] -= w;
        loads[to] += w;
        pairs[pick].2 -= w;
        dirty[v] = true;
        moves += 1;
    }

    // ---- Phase 2: distribution refinement.
    // Refinement must not undo the balance phase 1 just bought: moves are
    // admitted against a band around the fair share (half the per-level
    // tolerance), not the full eqn 3.1 limit — otherwise WEC-greedy moves
    // re-pack processors to the limit and the paper's decreasing
    // load-deviation curves (Figure 7b) are unreproducible.
    let band: Vec<f64> = (0..n_children).map(|i| fair(i) * (1.0 + d.band())).collect();
    // Refinement passes repeat (fresh shuffled order each time) until a
    // pass moves nothing; a small cap bounds the worst case. One pass is
    // very order-sensitive — an early vertex can block the profitable move
    // of a later one — and iterating to a fixpoint removes most of that
    // seed variance.
    for _pass in 0..4 {
        let mut order = movable.clone();
        order.shuffle(&mut rng);
        let mut moved = 0usize;
        for v in order {
            let cur = mapping[v];
            let w = qg.vertices[v].weight;
            let c_cur = cost(&mapping, v, cur);
            // (1) Move back home if it keeps balance and does not raise WEC.
            let home = original[v];
            if home != usize::MAX && home != cur {
                let c_home = cost(&mapping, v, home);
                if c_home <= c_cur + 1e-9 && loads[home] + w <= band[home] + 1e-9 {
                    mapping[v] = home;
                    loads[cur] -= w;
                    loads[home] += w;
                    moved += 1;
                    continue;
                }
            }
            // (2) Any clearly-WEC-decreasing move that keeps balance.
            let mut best: Option<(f64, usize)> = None;
            let bar = c_cur - MIN_IMPROVEMENT * c_cur.abs() - 1e-9;
            for k in 0..n_children {
                if k == cur || loads[k] + w > band[k] + 1e-9 {
                    continue;
                }
                let c = cost(&mapping, v, k);
                if c < bar && best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, k));
                }
            }
            if let Some((_, k)) = best {
                mapping[v] = k;
                loads[cur] -= w;
                loads[k] += w;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }

    // Partition, which drops this coordinator's graph, and recurse.
    let per_child = graphs.partition(&mapping, qg, n_children);
    sw.stop();
    timing.total += sw.elapsed();
    let own = sw.elapsed();
    let mut child_max = std::time::Duration::ZERO;
    for (pos, child_work) in per_child.into_iter().enumerate() {
        let child = node.children[pos];
        let t = adapt_down(d, child, child_work, graphs, current, &mut local, timing, seed, memo);
        child_max = child_max.max(t);
    }
    memo.store_place(coord, key, &local);
    for (q, p) in local.iter() {
        next.place(q, p);
    }
    own + child_max
}

/// Hu–Blake's balancing transfers among `excess.len()` children, as
/// `(i, j, m_ij)` for every pair `i < j` in order: child `i` sends `m_ij`
/// to child `j` (receives `−m_ij` when it is negative). Any two children
/// may trade load, so the diffusion graph is the complete graph `K_n`,
/// whose Laplacian is `nI − J`: `L λ = e − ē` is solved by
/// `λ = (e − ē) / n`, and the minimum-norm transfers `m_ij = λ_i − λ_j`
/// are `(e_i − e_j) / n`. A sparse child graph would need a real
/// Laplacian solve: `cosmos-util` had a conjugate-gradient one, and git
/// history still does.
fn transfers(excess: &[f64]) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
    let n = excess.len();
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j, (excess[i] - excess[j]) / n as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CoordinatorTree;
    use crate::IncrementalOptimizer;
    use cosmos_net::{Deployment, NodeId, TransitStubConfig};
    use cosmos_pubsub::SubstreamTable;
    use cosmos_query::QueryId;
    use cosmos_util::rng::rng_for;
    use cosmos_util::stats::stddev;
    use cosmos_util::InterestSet;
    use proptest::prelude::*;
    use rand::Rng;

    const U: usize = 160;

    fn fixture(seed: u64) -> (Deployment, SubstreamTable) {
        let topo = TransitStubConfig::small().generate(seed);
        let dep = Deployment::assign(topo, 4, 8, seed);
        let table = SubstreamTable::random(U, 4, 1.0, 10.0, seed);
        (dep, table)
    }

    fn random_specs(
        dep: &Deployment,
        table: &SubstreamTable,
        n: usize,
        seed: u64,
    ) -> Vec<QuerySpec> {
        let mut rng = rng_for(seed, "adapt-specs");
        (0..n)
            .map(|i| {
                let k = rng.gen_range(3..9);
                let interest = InterestSet::from_indices(U, (0..k).map(|_| rng.gen_range(0..U)));
                let load = interest.weighted_len(table.rates()) / 20.0;
                QuerySpec {
                    id: QueryId(i as u64),
                    interest,
                    load,
                    proxy: dep.processors()[rng.gen_range(0..dep.processors().len())],
                    result_rate: 0.5,
                    state_size: 1.0 + (i % 5) as f64,
                }
            })
            .collect()
    }

    fn random_assignment(specs: &[QuerySpec], dep: &Deployment, seed: u64) -> Assignment {
        let mut rng = rng_for(seed, "rand-assign");
        specs
            .iter()
            .map(|q| (q.id, dep.processors()[rng.gen_range(0..dep.processors().len())]))
            .collect()
    }

    /// One round of a fresh optimizer: an empty memo, so every
    /// coordinator's work is done afresh.
    fn fresh_round(
        d: &Distributor<'_>,
        specs: &[QuerySpec],
        current: &Assignment,
        seed: u64,
    ) -> AdaptOutcome {
        let Ok(mut opt) = IncrementalOptimizer::new(seed, AdaptConfig::default());
        opt.round(d, specs, current)
    }

    /// Very skewed assignment: everything on one processor.
    fn skewed_assignment(specs: &[QuerySpec], node: NodeId) -> Assignment {
        specs.iter().map(|q| (q.id, node)).collect()
    }

    #[test]
    fn adaptation_preserves_all_queries() {
        let (dep, table) = fixture(1);
        let tree = CoordinatorTree::build(&dep, 2);
        let d = Distributor::new(&dep, &tree, &table);
        let specs = random_specs(&dep, &table, 60, 2);
        let current = random_assignment(&specs, &dep, 3);
        let out = fresh_round(&d, &specs, &current, 4);
        assert_eq!(out.assignment.len(), 60);
        for q in &specs {
            assert!(dep.processors().contains(&out.assignment.processor_of(q.id).unwrap()));
        }
    }

    #[test]
    fn adaptation_rebalances_a_skewed_assignment() {
        let (dep, table) = fixture(2);
        let tree = CoordinatorTree::build(&dep, 2);
        let d = Distributor::new(&dep, &tree, &table);
        let specs = random_specs(&dep, &table, 80, 5);
        let current = skewed_assignment(&specs, dep.processors()[0]);
        let before = stddev(&current.loads(&specs, dep.processors()));
        let mut a = current.clone();
        for round in 0..4 {
            a = fresh_round(&d, &specs, &a, 10 + round).assignment;
        }
        let after = stddev(&a.loads(&specs, dep.processors()));
        assert!(after < before * 0.5, "load stddev should drop substantially: {before} -> {after}");
    }

    #[test]
    fn adaptation_reduces_comm_cost_of_random_start() {
        let (dep, table) = fixture(3);
        let tree = CoordinatorTree::build(&dep, 2);
        let d = Distributor::new(&dep, &tree, &table);
        let specs = random_specs(&dep, &table, 80, 6);
        let current = random_assignment(&specs, &dep, 7);
        let comm_cost = |a: &Assignment| {
            let (source, result) = crate::spec::modelled_cost(&dep, &table, &specs, a);
            source + result
        };
        let before = comm_cost(&current);
        let mut a = current.clone();
        for round in 0..5 {
            a = fresh_round(&d, &specs, &a, 20 + round).assignment;
        }
        let after = comm_cost(&a);
        assert!(after < before, "adaptation should reduce communication cost: {before} -> {after}");
    }

    #[test]
    fn stable_assignment_migrates_little() {
        let (dep, table) = fixture(4);
        let tree = CoordinatorTree::build(&dep, 2);
        let d = Distributor::new(&dep, &tree, &table);
        let specs = random_specs(&dep, &table, 60, 8);
        // Start from the hierarchical initial distribution (already good).
        let initial = d.distribute(&specs, 9).assignment;
        let mut a = initial.clone();
        for round in 0..3 {
            a = fresh_round(&d, &specs, &a, 30 + round).assignment;
        }
        let churn = a.migrations_from(&initial);
        assert!(
            churn <= specs.len() / 2,
            "a good assignment should not churn heavily ({churn}/{} moved)",
            specs.len()
        );
    }

    #[test]
    fn migration_accounting_is_consistent() {
        let (dep, table) = fixture(5);
        let tree = CoordinatorTree::build(&dep, 2);
        let d = Distributor::new(&dep, &tree, &table);
        let specs = random_specs(&dep, &table, 40, 11);
        let current = random_assignment(&specs, &dep, 12);
        let out = fresh_round(&d, &specs, &current, 13);
        assert_eq!(out.migrations, out.assignment.migrations_from(&current));
        if out.migrations == 0 {
            assert_eq!(out.moved_state, 0.0);
        } else {
            assert!(out.moved_state > 0.0);
        }
    }

    proptest! {
        /// The closed form is Hu–Blake's solution on `K_n`: applied, the
        /// transfers leave every child at its fair share, and they are
        /// potential differences (`m_ij + m_jk = m_ik`). The two together
        /// characterise the minimum-norm balancing transfers.
        #[test]
        fn prop_transfers_balance_as_potential_differences(
            children in proptest::collection::vec((0.0f64..1e4, 0.1f64..10.0), 2..65),
        ) {
            let n = children.len();
            let total_load: f64 = children.iter().map(|c| c.0).sum();
            let total_cap: f64 = children.iter().map(|c| c.1).sum();
            let fair: Vec<f64> = children.iter().map(|c| c.1 * total_load / total_cap).collect();
            let excess: Vec<f64> = (0..n).map(|i| children[i].0 - fair[i]).collect();
            let mut m = vec![vec![0.0; n]; n];
            let mut after: Vec<f64> = children.iter().map(|c| c.0).collect();
            for (i, j, m_ij) in transfers(&excess) {
                m[i][j] = m_ij;
                after[i] -= m_ij;
                after[j] += m_ij;
            }
            let scale = total_load.max(1.0);
            for i in 0..n {
                prop_assert!((after[i] - fair[i]).abs() <= 1e-9 * scale, "child {i} of {n}");
                for j in i + 1..n {
                    for k in j + 1..n {
                        prop_assert!((m[i][j] + m[j][k] - m[i][k]).abs() <= 1e-9 * scale);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_specs_no_op() {
        let (dep, table) = fixture(6);
        let tree = CoordinatorTree::build(&dep, 2);
        let d = Distributor::new(&dep, &tree, &table);
        let out = fresh_round(&d, &[], &Assignment::new(), 0);
        assert_eq!(out.migrations, 0);
        assert!(out.assignment.is_empty());
    }
}

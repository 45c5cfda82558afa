//! Query-graph coarsening — Algorithm 1 of the paper (§3.4).
//!
//! Repeatedly collapses matched vertex pairs until the graph has at most
//! `vmax` vertices. A vertex prefers the neighbor behind its heaviest edge
//! ("these two vertices are more likely to be mapped to the same vertex in
//! the network graph"). Constraints from the paper:
//!
//! - Two n-vertices merge only when the same child cluster covers both
//!   (they must be pinned to the same mapping target).
//! - Collapsing a q-vertex into an n-vertex yields an n-vertex (pinning is
//!   sticky), inheriting the n-side's cluster.
//!
//! One documented deviation: *anchor* n-vertices — network nodes covered by
//! no child cluster (data sources, remote proxies) — never participate in a
//! collapse at all. The paper only excludes them from n-n matches; letting
//! a q-vertex collapse into a capability-0 anchor would pin query load to
//! an unmappable vertex and make the load constraint unsatisfiable.
//!
//! A second one: *gain-aware matching*. Algorithm 1 collapses the pair
//! behind the heaviest edge whatever it costs to put the two in one place,
//! and queries whose results go to different children then merge at every
//! level on shared input alone. Here a vertex has a *home* — the child
//! cluster receiving most of its result flow; an n-vertex, which cannot
//! move, the cluster that covers it — and a pair with two different homes
//! is rated by its edge *less the result flow the cheaper side gives up by
//! leaving home*, net of what the move brings closer; a rating that is not
//! positive is no match. Pairs sharing a home, or with a homeless side (no
//! result flow covered here: adaptation graphs, foreign arrivals), are
//! rated by the edge alone, so with negligible result flows (the paper's
//! `result_ratio` of 0.002) the rule *is* Algorithm 1.
//!
//! **Mechanics.** The working adjacency is the rows of the query graph
//! [`coarsen`] is handed by value (no copy of it exists beside them): one
//! sorted row per vertex. A vertex's match is found by scanning its row
//! for the best-rated edge to an eligible neighbor — only a strictly
//! better one displaces the current best, so equal ratings resolve to the
//! smallest index — and collapsing `v` into `u` is one merge of their two
//! rows into `u`'s new one, re-estimating each edge of the merged vertex on
//! the way (Algorithm 1, line 11).
//!
//! **Exactness.** Every weight is recomputed from the endpoint interests
//! by [`edge_weight`], never derived from the old ones. An identity such as
//! `w(u ∪ v, x) = w(u, x) + w(v, x) − w(u ∩ v, x)` holds for the reals but
//! sums the substream rates in another order and so rounds differently —
//! enough to flip a near-tie between two candidates and, from there, a
//! whole placement. Exact recomputation is what lets a cached run stand
//! in for a fresh one bit for bit.

use crate::graph::{edge_weight, set_entry, QgVertex, QueryGraph, Row};
use cosmos_net::NodeId;
use cosmos_util::rng::rng_for;
use rand::seq::SliceRandom;
use std::num::NonZeroUsize;

/// Machine-independent work counters of coarsening runs; they add up
/// across runs, so an outcome can report the total of a whole round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoarsenStats {
    /// Input vertices.
    pub vertices: u64,
    /// Input edges.
    pub edges: u64,
    /// Vertex pairs collapsed.
    pub collapses: u64,
    /// Edges re-estimated after a collapse (one [`edge_weight`] call each).
    pub reestimated: u64,
}

impl std::ops::AddAssign for CoarsenStats {
    fn add_assign(&mut self, other: Self) {
        self.vertices += other.vertices;
        self.edges += other.edges;
        self.collapses += other.collapses;
        self.reestimated += other.reestimated;
    }
}

/// The result of coarsening: the coarse graph plus, per coarse vertex, the
/// indices of the input vertices it contains — and the input vertices
/// themselves, all that remains of the input graph.
#[derive(Debug, Clone)]
pub struct Coarsened {
    /// The coarse graph.
    pub graph: QueryGraph,
    /// `members[c]` = input-vertex indices merged into coarse vertex `c`.
    pub members: Vec<Vec<usize>>,
    /// The input vertices as handed in, indexed as `members` names them.
    pub fine: Vec<QgVertex>,
    /// What this run cost.
    pub stats: CoarsenStats,
}

/// Which child cluster covers a network node (`clu` in Algorithm 1);
/// `None` is the paper's `unknown`.
pub type ClusterOf<'a> = dyn Fn(NodeId) -> Option<usize> + 'a;

fn clu(v: &QgVertex, cluster_of: &ClusterOf) -> Option<usize> {
    v.net_node().and_then(cluster_of)
}

/// Is this vertex an unmergeable anchor (n-vertex with unknown cluster)?
fn is_anchor(v: &QgVertex, cluster_of: &ClusterOf) -> bool {
    v.is_net() && clu(v, cluster_of).is_none()
}

/// What gain-aware matching knows of a vertex (module docs).
struct Site {
    /// Result flow toward each child cluster, indexed by cluster and grown
    /// on demand — sums, added up when vertices collapse. An n-vertex holds
    /// its own cluster with infinite flow: it never leaves.
    flows: Vec<f64>,
    /// The child with the largest flow (ties to the smaller index); none
    /// when no flow is covered.
    home: Option<usize>,
}

impl Site {
    fn of(v: &QgVertex, cluster_of: &ClusterOf) -> Self {
        let mut site = Site { flows: Vec::new(), home: None };
        let own = clu(v, cluster_of).map(|c| (c, f64::INFINITY));
        let covered = v.result_flows.iter().filter_map(|&(p, rate)| Some((cluster_of(p)?, rate)));
        for (c, rate) in covered.chain(own) {
            if site.flows.len() <= c {
                site.flows.resize(c + 1, 0.0);
            }
            site.flows[c] += rate;
        }
        site.settle();
        site
    }

    fn settle(&mut self) {
        let largest = self.flows.iter().fold(0.0, |m: f64, &f| m.max(f));
        self.home = self.flows.iter().position(|&f| f == largest).filter(|_| largest > 0.0);
    }

    /// Takes in the flows of a vertex just collapsed into this one.
    fn absorb(&mut self, flows: &[f64]) {
        if self.flows.len() < flows.len() {
            self.flows.resize(flows.len(), 0.0);
        }
        self.flows.iter_mut().zip(flows).for_each(|(a, b)| *a += b);
        self.settle();
    }

    /// The result flow given up by moving from home `from` to `to`.
    fn leave(&self, from: usize, to: usize) -> f64 {
        let flow = |c: usize| self.flows.get(c).copied().unwrap_or(0.0);
        (flow(from) - flow(to)).max(0.0)
    }
}

/// What collapsing the pair behind an edge of weight `w` is worth: `w`,
/// less — for two different homes — what the cheaper side gives up.
fn rating(w: f64, u: &Site, v: &Site) -> f64 {
    match (u.home, v.home) {
        (Some(a), Some(b)) if a != b => w - u.leave(a, b).min(v.leave(b, a)),
        _ => w,
    }
}

/// Runs Algorithm 1 on `input`'s own rows until at most `vmax` vertices
/// remain (or no further collapse is possible — e.g. everything left is an
/// anchor). `rates` are the input graph's effective rates
/// ([`crate::graph::effective_rates`]): what its substream terms were built
/// from is what re-estimates them. A caller that needs the graph afterwards
/// passes a clone.
///
/// Deterministic for a given `seed`.
pub fn coarsen(
    input: QueryGraph,
    vmax: NonZeroUsize,
    rates: &[f64],
    cluster_of: &ClusterOf,
    seed: u64,
) -> Coarsened {
    let vmax = vmax.get();
    let n = input.len();
    let mut stats =
        CoarsenStats { vertices: n as u64, edges: input.edge_count() as u64, ..Default::default() };
    // A collapsed vertex's slot goes `None`, and that is all its neighbors
    // learn of it: their rows keep naming it and every reader skips the
    // dead entries, which spares each collapse a search-and-shift in every
    // neighbor's row. Merging drops them from the survivor's row.
    let (fine, mut rows) = input.into_parts();
    let mut vertices: Vec<Option<QgVertex>> = fine.iter().cloned().map(Some).collect();
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut sites: Vec<Site> = fine.iter().map(|v| Site::of(v, cluster_of)).collect();
    let mut alive = n;
    let mut rng = rng_for(seed, "coarsen");

    while alive > vmax {
        let mut matched = vec![false; n];
        let mut order: Vec<usize> = (0..n).filter(|&i| vertices[i].is_some()).collect();
        order.shuffle(&mut rng);
        let mut progress = false;

        for u in order {
            if alive <= vmax {
                break;
            }
            if vertices[u].is_none() || matched[u] {
                continue;
            }
            matched[u] = true;
            let u_vert = vertices[u].as_ref().expect("checked alive");
            if is_anchor(u_vert, cluster_of) {
                continue;
            }
            // Candidate selection (Algorithm 1, lines 5-7). Two n-vertices
            // of different clusters rate −∞: neither can leave.
            let mut best: Option<(usize, f64)> = None;
            for &(j, w) in &rows[u] {
                let Some(v_vert) = vertices[j].as_ref() else { continue };
                if matched[j] || is_anchor(v_vert, cluster_of) {
                    continue;
                }
                let r = rating(w, &sites[u], &sites[j]);
                if r > 0.0 && best.is_none_or(|(_, br)| r > br) {
                    best = Some((j, r));
                }
            }
            let Some((v, _)) = best else { continue };

            // Collapse v into u (lines 8-14): one merge of their two rows
            // yields u's new row, every edge re-estimated (line 11).
            let v_vert = vertices[v].take().expect("candidate alive");
            let v_members = std::mem::take(&mut members[v]);
            members[u].extend(v_members);
            vertices[u].as_mut().expect("u alive").absorb(&v_vert);
            let u_vert = vertices[u].as_ref().expect("u alive");
            let v_flows = std::mem::take(&mut sites[v].flows);
            sites[u].absorb(&v_flows);
            let (row_u, row_v) = (std::mem::take(&mut rows[u]), std::mem::take(&mut rows[v]));
            let mut merged = Row::with_capacity(row_u.len() + row_v.len());
            let (mut a, mut b) = (0, 0);
            while a < row_u.len() || b < row_v.len() {
                let xa = row_u.get(a).map_or(usize::MAX, |e| e.0);
                let xb = row_v.get(b).map_or(usize::MAX, |e| e.0);
                let x = xa.min(xb);
                a += usize::from(xa == x);
                b += usize::from(xb == x);
                // Skips v, just collapsed, along with the longer dead.
                let Some(x_vert) = vertices[x].as_ref().filter(|_| x != u) else { continue };
                let w = edge_weight(u_vert, x_vert, rates);
                stats.reestimated += 1;
                if w > 0.0 {
                    merged.push((x, w));
                }
                set_entry(&mut rows[x], u, w);
            }
            rows[u] = merged;
            alive -= 1;
            stats.collapses += 1;
            progress = true;
        }
        if !progress {
            break; // nothing mergeable remains
        }
    }

    // Compact into a fresh graph; the index map is monotone, so rows stay
    // sorted.
    let mut index_map = vec![usize::MAX; n];
    let mut out_vertices = Vec::with_capacity(alive);
    let mut out_members = Vec::with_capacity(alive);
    let mut out_rows = Vec::with_capacity(alive);
    for i in 0..n {
        if let Some(v) = vertices[i].take() {
            index_map[i] = out_vertices.len();
            out_vertices.push(v);
            out_members.push(std::mem::take(&mut members[i]));
            out_rows.push(std::mem::take(&mut rows[i]));
        }
    }
    for row in &mut out_rows {
        row.retain_mut(|e| {
            e.0 = index_map[e.0];
            e.0 != usize::MAX
        });
    }
    let graph = QueryGraph::from_parts(out_vertices, out_rows, rates.to_vec());
    Coarsened { graph, members: out_members, fine, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_oracle::trial;
    use cosmos_query::QueryId;
    use cosmos_util::InterestSet;
    use proptest::prelude::*;

    const U: usize = 32;

    fn nz(vmax: usize) -> NonZeroUsize {
        NonZeroUsize::new(vmax).expect("vmax > 0")
    }

    /// The reference: Algorithm 1 over a `HashMap` adjacency, with the match
    /// chosen by a full scan under an explicit (max rating, smallest index)
    /// rule, a candidate's rating computed from the two vertices' result
    /// flows as they stand (no sums carried along), and rewiring and
    /// re-estimation as two separate steps. Written for obviousness; the
    /// oracle the sorted-row [`coarsen`] must be output-identical to,
    /// counters included. With `gain_aware` off every pair is rated by its
    /// edge alone: Algorithm 1 as it stood before gain-aware matching.
    fn coarsen_reference(
        input: &QueryGraph,
        vmax: NonZeroUsize,
        rates: &[f64],
        cluster_of: &ClusterOf,
        seed: u64,
        gain_aware: bool,
    ) -> Coarsened {
        let vmax = vmax.get();
        let n = input.len();
        let mut vertices: Vec<Option<QgVertex>> =
            input.vertices.iter().cloned().map(Some).collect();
        let mut adj: Vec<std::collections::HashMap<usize, f64>> =
            (0..n).map(|i| input.neighbors(i).collect()).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut alive = n;
        let mut rng = rng_for(seed, "coarsen");
        let mut stats = CoarsenStats {
            vertices: n as u64,
            edges: input.edge_count() as u64,
            ..Default::default()
        };

        while alive > vmax {
            let mut matched = vec![false; n];
            let mut order: Vec<usize> = (0..n).filter(|&i| vertices[i].is_some()).collect();
            order.shuffle(&mut rng);
            let mut progress = false;

            for u in order {
                if alive <= vmax {
                    break;
                }
                if vertices[u].is_none() || matched[u] {
                    continue;
                }
                let u_vert = vertices[u].as_ref().expect("checked alive");
                if is_anchor(u_vert, cluster_of) {
                    matched[u] = true;
                    continue;
                }
                let u_is_net = u_vert.is_net();
                let u_clu = clu(u_vert, cluster_of);
                let mut best: Option<(usize, f64)> = None;
                for (&j, &w) in &adj[u] {
                    let Some(v_vert) = vertices[j].as_ref() else { continue };
                    if matched[j] || is_anchor(v_vert, cluster_of) {
                        continue;
                    }
                    if u_is_net && v_vert.is_net() && u_clu != clu(v_vert, cluster_of) {
                        continue;
                    }
                    let w = if gain_aware {
                        rating(w, &Site::of(u_vert, cluster_of), &Site::of(v_vert, cluster_of))
                    } else {
                        w
                    };
                    match best {
                        _ if w <= 0.0 => {}
                        Some((bj, bw)) if w < bw || (w == bw && j > bj) => {}
                        _ => best = Some((j, w)),
                    }
                }
                let Some((v, _)) = best else {
                    matched[u] = true;
                    continue;
                };
                let v_vert = vertices[v].take().expect("candidate alive");
                let v_members = std::mem::take(&mut members[v]);
                vertices[u].as_mut().expect("u alive").absorb(&v_vert);
                members[u].extend(v_members);
                let v_edges: Vec<usize> = adj[v].keys().copied().collect();
                for x in v_edges {
                    adj[x].remove(&v);
                    if x != u {
                        adj[u].entry(x).or_insert(0.0);
                        adj[x].entry(u).or_insert(0.0);
                    }
                }
                adj[v].clear();
                adj[u].remove(&u);
                let neighbors: Vec<usize> = adj[u].keys().copied().collect();
                stats.reestimated += neighbors.len() as u64;
                for x in neighbors {
                    let w = edge_weight(
                        vertices[u].as_ref().expect("u alive"),
                        vertices[x].as_ref().expect("neighbor alive"),
                        rates,
                    );
                    if w > 0.0 {
                        adj[u].insert(x, w);
                        adj[x].insert(u, w);
                    } else {
                        adj[u].remove(&x);
                        adj[x].remove(&u);
                    }
                }
                matched[u] = true;
                alive -= 1;
                stats.collapses += 1;
                progress = true;
            }
            if !progress {
                break;
            }
        }

        let mut index_map = vec![usize::MAX; n];
        let mut out_vertices = Vec::with_capacity(alive);
        let mut out_members = Vec::with_capacity(alive);
        for i in 0..n {
            if let Some(v) = vertices[i].take() {
                index_map[i] = out_vertices.len();
                out_vertices.push(v);
                out_members.push(std::mem::take(&mut members[i]));
            }
        }
        let mut graph = QueryGraph::new(out_vertices);
        for i in 0..n {
            if index_map[i] == usize::MAX {
                continue;
            }
            for (&j, &w) in &adj[i] {
                if j > i && index_map[j] != usize::MAX {
                    graph.set_edge(index_map[i], index_map[j], w);
                }
            }
        }
        Coarsened { graph, members: out_members, fine: input.vertices.clone(), stats }
    }

    /// Members, counters, and the coarse graph bit for bit.
    fn assert_identical(fast: &Coarsened, slow: &Coarsened, what: &str) {
        assert_eq!(fast.members, slow.members, "{what}: members diverged");
        let queries =
            |c: &Coarsened| -> Vec<_> { c.fine.iter().map(|v| v.queries.clone()).collect() };
        assert_eq!(queries(fast), queries(slow), "{what}: fine vertices diverged");
        assert_eq!(fast.stats, slow.stats, "{what}: work counters diverged");
        assert_eq!(fast.graph.len(), slow.graph.len());
        for i in 0..fast.graph.len() {
            assert_eq!(
                fast.graph.vertices[i].weight.to_bits(),
                slow.graph.vertices[i].weight.to_bits(),
                "{what}: weight of coarse vertex {i} diverged"
            );
            let bits = |g: &QueryGraph| -> Vec<(usize, u64)> {
                g.neighbors(i).map(|(j, w)| (j, w.to_bits())).collect()
            };
            assert_eq!(bits(&fast.graph), bits(&slow.graph), "{what}: edges of {i} diverged");
        }
    }

    /// Some n-vertices in cluster 0, some in cluster 1, some anchors
    /// (cluster unknown).
    fn mixed_clusters(node: NodeId) -> Option<usize> {
        (!node.0.is_multiple_of(3)).then_some((node.0 % 2) as usize)
    }

    /// One seeded trial against the reference: small-integer rates and
    /// loads so that equal weights (and hence the smallest-index
    /// tie-break) are the rule, n-vertices in two clusters plus anchors,
    /// result flows — multiples of a half up to the weight of a typical
    /// edge, so every sum is exact in whatever order it is taken — aimed at
    /// some of them. With `gain_aware` off every result rate is 0 and the
    /// reference is Algorithm 1 without the rule, which must then make no
    /// difference. Every suite draws under the one label `coarsen-diff`,
    /// so the Algorithm 1 suite sees the sparse suite's graphs with their
    /// result flows zeroed.
    fn differential_trial(
        seed: u64,
        sizes: std::ops::Range<usize>,
        interests: std::ops::Range<usize>,
        min_density: f64,
        gain_aware: bool,
    ) {
        use rand::Rng;
        let mut rng = rng_for(seed, "coarsen-diff");
        let rates: Vec<f64> = (0..U).map(|i| 1.0 + (i % 3) as f64).collect();
        let n = rng.gen_range(sizes);
        let vertices: Vec<QgVertex> = (0..n)
            .map(|i| {
                let bits: Vec<usize> =
                    (0..rng.gen_range(interests.clone())).map(|_| rng.gen_range(0..U)).collect();
                if i % 7 == 3 {
                    return nv(i as u32, &bits);
                }
                let mut v = qv(i as u64, &bits, rng.gen_range(1..5) as f64);
                // Half the result flows target an n-vertex of the graph.
                v.result_flows[0].0 = NodeId(3 + 7 * rng.gen_range(0..2 * (n as u32 / 7)));
                let flow = f64::from(rng.gen_range(0..12u32)) / 2.0;
                v.result_flows[0].1 = if gain_aware { flow } else { 0.0 };
                v
            })
            .collect();
        let g = with_edges(vertices, &rates);
        let density = g.edge_count() as f64 / (n * (n - 1) / 2) as f64;
        assert!(density >= min_density, "seed {seed}: density {density} of {n} vertices");
        let vmax = nz(rng.gen_range(2..(n / 3).min(64)));
        let slow = coarsen_reference(&g, vmax, &rates, &mixed_clusters, seed, gain_aware);
        let fast = coarsen(g, vmax, &rates, &mixed_clusters, seed);
        assert_identical(&fast, &slow, &format!("seed {seed}, n {n}"));
    }

    /// Small sparse graphs, where a divergence is easy to read.
    #[test]
    fn row_scan_is_output_identical_to_reference() {
        trial::run("coarsen-diff", 12, |seed| differential_trial(seed, 12..36, 1..5, 0.0, true));
    }

    /// With no result flow to lose, gain-aware matching is Algorithm 1:
    /// `members`, graph and work counters of the pre-rule reference.
    #[test]
    fn without_result_flows_the_rule_is_algorithm_1() {
        trial::run("coarsen-diff-algorithm-1", 12, |seed| {
            differential_trial(seed, 12..36, 1..5, 0.0, false)
        });
        differential_trial(0, 100..401, 6..12, 0.5, false);
    }

    /// Where the optimizer's graphs actually live: 100–400 vertices at
    /// edge density ≥ 0.5. `COSMOS_STRESS=1` runs more seeds.
    #[test]
    fn dense_row_scan_is_output_identical_to_reference() {
        let trials = if trial::stress() { 24 } else { 3 };
        trial::run("coarsen-diff-dense", trials, |seed| {
            differential_trial(seed, 100..401, 6..12, 0.5, true)
        });
    }

    fn qv(id: u64, bits: &[usize], load: f64) -> QgVertex {
        QgVertex::for_query(
            QueryId(id),
            InterestSet::from_indices(U, bits.iter().copied()),
            load,
            NodeId(100),
            0.1,
            1.0,
        )
    }

    fn nv(node: u32, bits: &[usize]) -> QgVertex {
        QgVertex::for_net(NodeId(node), InterestSet::from_indices(U, bits.iter().copied()))
    }

    /// Builds a graph with exact pairwise edges.
    fn with_edges(vertices: Vec<QgVertex>, rates: &[f64]) -> QueryGraph {
        let mut g = QueryGraph::new(vertices);
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                let w = edge_weight(&g.vertices[i], &g.vertices[j], rates);
                g.set_edge(i, j, w);
            }
        }
        g
    }

    #[test]
    fn coarsens_to_vmax() {
        let rates = vec![1.0; U];
        let vertices: Vec<QgVertex> =
            (0..10).map(|i| qv(i, &[i as usize, i as usize + 1], 1.0)).collect();
        let g = with_edges(vertices, &rates);
        let c = coarsen(g, nz(4), &rates, &|_| None, 7);
        assert!(c.graph.len() <= 4);
        assert_eq!(c.members.iter().map(Vec::len).sum::<usize>(), 10);
    }

    #[test]
    fn weight_and_interest_preserved() {
        let rates = vec![1.0; U];
        let vertices: Vec<QgVertex> =
            (0..12).map(|i| qv(i, &[(i % 6) as usize], (i + 1) as f64)).collect();
        let g = with_edges(vertices, &rates);
        let before_weight = g.total_weight();
        let mut before_union = InterestSet::new(U);
        for v in &g.vertices {
            before_union.union_with(&v.interest);
        }
        let c = coarsen(g, nz(3), &rates, &|_| None, 1);
        assert!((c.graph.total_weight() - before_weight).abs() < 1e-9);
        let mut after_union = InterestSet::new(U);
        for v in &c.graph.vertices {
            after_union.union_with(&v.interest);
        }
        assert_eq!(before_union, after_union);
    }

    #[test]
    fn heavy_edges_merge_first() {
        let rates = vec![1.0; U];
        // Two heavy pairs {0,1} and {2,3} plus light cross edges. Whichever
        // vertex Algorithm 1 visits first, its max-weight neighbor is its
        // heavy partner, so the outcome is independent of the random order.
        let vertices = vec![
            qv(0, &[0, 1, 2, 3, 4, 20], 1.0),
            qv(1, &[0, 1, 2, 3, 4, 21], 1.0),
            qv(2, &[10, 11, 12, 13, 20], 1.0),
            qv(3, &[10, 11, 12, 13, 21], 1.0),
        ];
        let g = with_edges(vertices, &rates);
        for seed in 0..8 {
            let c = coarsen(g.clone(), nz(2), &rates, &|_| None, seed);
            assert_eq!(c.graph.len(), 2);
            let ok = c.members.iter().any(|m| m.contains(&0) && m.contains(&1) && m.len() == 2);
            assert!(ok, "seed {seed}: heavy pairs should collapse: {:?}", c.members);
        }
    }

    /// A q-vertex reading substream 0 (rate 1), its results going to `node`.
    fn qf(id: u64, node: u32, flow: f64) -> QgVertex {
        let mut v = qv(id, &[0], 1.0);
        v.result_flows[0] = (NodeId(node), flow);
        v
    }

    #[test]
    fn a_pair_with_two_homes_collapses_only_when_it_pays() {
        let rates = vec![1.0; U];
        // Nodes 1 and 2 are children 0 and 1; node 9 is covered by neither.
        let cluster_of = |n: NodeId| (n.0 < 3).then(|| n.0 as usize - 1);
        let left = |pair: Vec<QgVertex>| {
            coarsen(with_edges(pair, &rates), nz(1), &rates, &cluster_of, 3).graph.len()
        };
        // The shared rate against the smaller of the two result flows.
        assert_eq!(left(vec![qf(0, 1, 0.5), qf(1, 2, 3.0)]), 1, "1 > 0.5: collapses");
        assert_eq!(left(vec![qf(0, 1, 3.0), qf(1, 2, 0.5)]), 1, "whichever side it is");
        assert_eq!(left(vec![qf(0, 1, 1.0), qf(1, 2, 3.0)]), 2, "1 ≤ 1: does not");
        // Sharing a home, or having none, is rated by the edge alone.
        assert_eq!(left(vec![qf(0, 1, 9.0), qf(1, 1, 9.0)]), 1, "same home");
        assert_eq!(left(vec![qf(0, 9, 9.0), qf(1, 2, 9.0)]), 1, "a homeless side");
        // An n-vertex never leaves: the q-vertex's flow is what is lost,
        // though the n-vertex itself has no flow to give up.
        assert_eq!(left(vec![nv(1, &[0]), qf(1, 2, 3.0)]), 2, "pinned, 1 ≤ 3");
        assert_eq!(left(vec![nv(1, &[0]), qf(1, 2, 0.5)]), 1, "pinned, 1 > 0.5");

        let site = |v: &QgVertex| Site::of(v, &cluster_of);
        let (a, b) = (qf(0, 1, 0.5), qf(1, 2, 3.0));
        assert_eq!(rating(4.0, &site(&a), &site(&b)), 3.5);
        assert_eq!(rating(4.0, &site(&a), &site(&a)), 4.0);
        // What is given up is net of what the move brings closer.
        let mut both = a.clone();
        both.absorb(&b);
        assert_eq!(site(&both).home, Some(1));
        assert_eq!(rating(4.0, &site(&both), &site(&a)), 4.0 - 0.5);
        assert_eq!(rating(4.0, &site(&both), &site(&nv(1, &[]))), 4.0 - 2.5);
    }

    #[test]
    fn n_vertices_of_different_clusters_never_merge() {
        let rates = vec![1.0; U];
        // Two heavily-overlapping net vertices in different clusters.
        let vertices = vec![
            nv(1, &[0, 1, 2, 3]),
            nv(2, &[0, 1, 2, 3]),
            qv(10, &[0, 1], 1.0),
            qv(11, &[2, 3], 1.0),
        ];
        let g = with_edges(vertices, &rates);
        let cluster_of = |n: NodeId| -> Option<usize> { Some(n.0 as usize) };
        let c = coarsen(g, nz(1), &rates, &cluster_of, 5);
        // Can't reach 1 vertex: the two n-vertices must stay apart.
        assert!(c.graph.len() >= 2);
        for v in &c.graph.vertices {
            if v.is_net() {
                // No coarse vertex may contain both node 1 and node 2.
                let has1 = v.net_node() == Some(NodeId(1));
                let has2 = v.net_node() == Some(NodeId(2));
                assert!(!(has1 && has2));
            }
        }
        let m1 = c.members.iter().find(|m| m.contains(&0)).unwrap();
        assert!(!m1.contains(&1), "n-vertices of different clusters merged");
    }

    #[test]
    fn anchors_are_never_merged() {
        let rates = vec![1.0; U];
        let vertices = vec![
            nv(50, &[0, 1, 2, 3]), // anchor: cluster_of returns None
            qv(1, &[0, 1, 2, 3], 1.0),
            qv(2, &[0, 1, 2], 1.0),
        ];
        let g = with_edges(vertices, &rates);
        let c = coarsen(g, nz(1), &rates, &|_| None, 9);
        // Anchor survives alone; the two queries may merge.
        assert!(c.graph.len() >= 2);
        let anchor_members =
            c.members.iter().find(|m| m.contains(&0)).expect("anchor still present");
        assert_eq!(anchor_members, &vec![0]);
    }

    #[test]
    fn query_merging_into_covered_net_vertex_pins_it() {
        let rates = vec![1.0; U];
        let vertices = vec![
            nv(7, &[0, 1, 2, 3]), // covered by cluster 0
            qv(1, &[0, 1, 2, 3], 2.0),
        ];
        let g = with_edges(vertices, &rates);
        let c = coarsen(g, nz(1), &rates, &|_| Some(0), 2);
        assert_eq!(c.graph.len(), 1);
        let v = &c.graph.vertices[0];
        assert!(v.is_net());
        assert_eq!(v.net_node(), Some(NodeId(7)));
        assert_eq!(v.weight, 2.0);
    }

    #[test]
    fn already_small_graph_is_untouched() {
        let rates = vec![1.0; U];
        let g = with_edges(vec![qv(0, &[0], 1.0), qv(1, &[5], 1.0)], &rates);
        let c = coarsen(g, nz(10), &rates, &|_| None, 0);
        assert_eq!(c.graph.len(), 2);
        assert_eq!(c.members, vec![vec![0], vec![1]]);
    }

    #[test]
    fn deterministic_for_seed() {
        let rates = vec![1.0; U];
        let vertices: Vec<QgVertex> =
            (0..20).map(|i| qv(i, &[(i % 7) as usize, ((i * 3) % 11) as usize], 1.0)).collect();
        let g = with_edges(vertices, &rates);
        let a = coarsen(g.clone(), nz(5), &rates, &|_| None, 42);
        let b = coarsen(g, nz(5), &rates, &|_| None, 42);
        assert_eq!(a.members, b.members);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_members_partition_input(
            n in 2usize..24,
            vmax in 1usize..8,
            seed in 0u64..100,
        ) {
            let rates = vec![1.0; U];
            let vertices: Vec<QgVertex> = (0..n)
                .map(|i| qv(i as u64, &[i % U, (i * 5 + 1) % U], 1.0))
                .collect();
            let g = with_edges(vertices, &rates);
            let c = coarsen(g, nz(vmax), &rates, &|_| None, seed);
            let mut seen: Vec<usize> = c.members.iter().flatten().copied().collect();
            seen.sort_unstable();
            let expect: Vec<usize> = (0..n).collect();
            prop_assert_eq!(seen, expect);
            // Reaches vmax unless the residue is edge-free (Algorithm 1 can
            // only collapse adjacent vertices).
            prop_assert!(
                c.graph.len() <= vmax.max(1) || c.graph.edge_count() == 0,
                "stopped at {} vertices with {} edges (vmax {})",
                c.graph.len(),
                c.graph.edge_count(),
                vmax
            );
        }

        #[test]
        fn prop_edges_consistent_with_vertices(
            n in 2usize..16,
            seed in 0u64..50,
        ) {
            let rates = vec![1.0; U];
            let vertices: Vec<QgVertex> = (0..n)
                .map(|i| qv(i as u64, &[i % U, (i * 3) % U, (i * 7) % U], 1.0))
                .collect();
            let g = with_edges(vertices, &rates);
            let c = coarsen(g, nz(2), &rates, &|_| None, seed);
            for i in 0..c.graph.len() {
                for (j, w) in c.graph.neighbors(i) {
                    let expect = edge_weight(&c.graph.vertices[i], &c.graph.vertices[j], &rates);
                    prop_assert!((w - expect).abs() < 1e-9,
                        "edge ({i},{j}) weight {w} != recomputed {expect}");
                }
            }
        }
    }
}

//! The coordinator hierarchy (§3.3).
//!
//! Coordinators are a subset of processors organized into a tree: at the
//! bottom, every processor is its own cluster; each level up, close-by (in
//! transfer latency) coordinators are clustered into groups of size
//! `[k, 3k−1]` whose *median* — the member with minimum total latency to
//! the others — becomes the parent (after Banerjee et al.'s scalable
//! application-layer multicast construction). The root's cluster may be
//! smaller than `k`.

use crate::graph::NetVertex;
use cosmos_net::{Deployment, NodeId};
use std::collections::HashSet;

/// One node of the coordinator tree.
#[derive(Debug, Clone)]
pub struct CoordNode {
    /// Parent coordinator index (`None` for the root).
    pub parent: Option<usize>,
    /// Child coordinator indices (empty at processor level).
    pub children: Vec<usize>,
    /// The physical processor playing this coordinator role (the cluster
    /// median).
    pub representative: NodeId,
    /// All descendant processors.
    pub processors: Vec<NodeId>,
    proc_set: HashSet<NodeId>,
    /// Aggregate capability of the descendant processors.
    pub capability: f64,
    /// Tree level: 0 = processor, increasing toward the root.
    pub level: usize,
    /// `false` once detached by dynamic maintenance (indices are stable, so
    /// removed nodes stay in the arena but drop out of every query).
    active: bool,
}

impl CoordNode {
    /// A level-0 node: `processor` as its own cluster.
    fn leaf(processor: NodeId, capability: f64) -> Self {
        Self {
            parent: None,
            children: Vec::new(),
            representative: processor,
            processors: vec![processor],
            proc_set: HashSet::from([processor]),
            capability,
            level: 0,
            active: true,
        }
    }

    /// An internal node over `children`, its summary (processors,
    /// capability, median) left for `refresh_node` to fill in; until then
    /// `representative` stands in.
    fn internal(
        parent: Option<usize>,
        children: Vec<usize>,
        representative: NodeId,
        level: usize,
    ) -> Self {
        Self {
            parent,
            children,
            representative,
            processors: Vec::new(),
            proc_set: HashSet::new(),
            capability: 0.0,
            level,
            active: true,
        }
    }

    /// Does this coordinator's subtree contain `node`?
    pub fn covers(&self, node: NodeId) -> bool {
        self.proc_set.contains(&node)
    }
}

/// The coordinator tree over a deployment's processors.
///
/// # Examples
///
/// ```
/// use cosmos_core::hierarchy::CoordinatorTree;
/// use cosmos_net::{Deployment, TransitStubConfig};
///
/// let topo = TransitStubConfig::small().generate(3);
/// let dep = Deployment::assign(topo, 3, 9, 3);
/// let tree = CoordinatorTree::build(&dep, 2);
/// let root = tree.node(tree.root());
/// assert_eq!(root.processors.len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct CoordinatorTree {
    nodes: Vec<CoordNode>,
    root: usize,
    /// Bumped on every structural change (`join`/`leave`): the incremental
    /// optimizer keys its caches on this, so any topology change falls back
    /// to wholesale recomputation.
    generation: u64,
}

impl CoordinatorTree {
    /// Builds the tree with cluster-size parameter `k` and uniform
    /// processor capability 1.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or the deployment has no processors.
    pub fn build(dep: &Deployment, k: usize) -> Self {
        let caps = vec![1.0; dep.processors().len()];
        Self::build_with_capabilities(dep, k, &caps)
    }

    /// Builds the tree with explicit per-processor capabilities (aligned
    /// with `dep.processors()`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, there are no processors, or the capability slice
    /// length mismatches.
    pub fn build_with_capabilities(dep: &Deployment, k: usize, capabilities: &[f64]) -> Self {
        assert!(k >= 2, "cluster size parameter k must be at least 2");
        let procs = dep.processors();
        assert!(!procs.is_empty(), "deployment has no processors");
        assert_eq!(capabilities.len(), procs.len(), "one capability per processor");

        let nodes: Vec<CoordNode> =
            procs.iter().zip(capabilities).map(|(&p, &c)| CoordNode::leaf(p, c)).collect();
        let mut tree = Self { nodes, root: 0, generation: 0 };

        let mut current: Vec<usize> = (0..tree.nodes.len()).collect();
        let mut level = 0;
        while current.len() > 1 {
            level += 1;
            let clusters = cluster_level(&tree.nodes, &current, k, dep);
            current.clear();
            for members in clusters {
                let parent_idx = tree.nodes.len();
                for &m in &members {
                    tree.nodes[m].parent = Some(parent_idx);
                }
                let stand_in = tree.nodes[members[0]].representative;
                tree.nodes.push(CoordNode::internal(None, members, stand_in, level));
                tree.refresh_node(parent_idx, dep);
                current.push(parent_idx);
            }
        }
        tree.root = current[0];
        tree
    }

    /// The root coordinator's index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Structural generation: incremented by every [`CoordinatorTree::join`]
    /// and every successful [`CoordinatorTree::leave`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The coordinator at `idx`.
    pub fn node(&self, idx: usize) -> &CoordNode {
        &self.nodes[idx]
    }

    /// Number of tree nodes (processors + internal coordinators).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for an empty tree (never: `build` panics first).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Tree height (root's level).
    pub fn height(&self) -> usize {
        self.nodes[self.root].level
    }

    /// Indices of all internal (level ≥ 1) coordinators, bottom-up.
    pub fn internal_bottom_up(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].active && self.nodes[i].level >= 1)
            .collect();
        idx.sort_by_key(|&i| self.nodes[i].level);
        idx
    }

    /// The position (within `coord`'s children) of the child whose subtree
    /// covers `node`, if any.
    pub fn covering_child(&self, coord: usize, node: NodeId) -> Option<usize> {
        self.nodes[coord].children.iter().position(|&c| self.nodes[c].covers(node))
    }

    /// Whether `idx` is still part of the tree (detached nodes keep their
    /// arena slots but drop out of every query).
    pub fn is_active(&self, idx: usize) -> bool {
        self.nodes[idx].active
    }

    /// The processors in the tree — its level-0 nodes, less any a
    /// [`CoordinatorTree::leave`] detached — as mapping targets, each with
    /// its own capability.
    pub fn leaves(&self) -> Vec<NetVertex> {
        let live = self.nodes.iter().filter(|n| n.active && n.level == 0);
        live.map(|n| NetVertex { node: n.representative, capability: n.capability }).collect()
    }

    /// The level-0 node index of a processor.
    pub fn leaf_of(&self, processor: NodeId) -> Option<usize> {
        self.nodes.iter().position(|n| n.active && n.level == 0 && n.representative == processor)
    }

    /// Incrementally admits a new processor (§3.3: "The tree is constructed
    /// incrementally and dynamically"): the processor joins the closest
    /// level-1 cluster; a cluster growing past `3k − 1` members splits into
    /// two proximity-based halves. Medians, processor sets, and
    /// capabilities are refreshed along the ancestor path.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is already in the tree or `k < 2`.
    pub fn join(&mut self, processor: NodeId, capability: f64, k: usize, dep: &Deployment) {
        assert!(k >= 2, "cluster size parameter k must be at least 2");
        assert!(self.leaf_of(processor).is_none(), "{processor} is already part of the hierarchy");
        self.generation += 1;
        // New level-0 node.
        let leaf = self.nodes.len();
        self.nodes.push(CoordNode::leaf(processor, capability));
        // Degenerate tree (single processor): create a level-1 root.
        if self.nodes[self.root].level == 0 {
            let old_root = self.root;
            let new_root = self.nodes.len();
            let stand_in = self.nodes[old_root].representative;
            self.nodes.push(CoordNode::internal(None, vec![old_root, leaf], stand_in, 1));
            self.nodes[old_root].parent = Some(new_root);
            self.nodes[leaf].parent = Some(new_root);
            self.root = new_root;
            self.refresh_upward(new_root, dep);
            return;
        }
        // Closest level-1 cluster by representative latency. Detached
        // nodes stay in the arena with stale representatives (possibly
        // this very processor, rejoining after a merge deactivated its
        // old cluster at distance zero) — they must never win, or the new
        // leaf is grafted outside the reachable tree.
        let target = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.active && n.level == 1)
            .min_by(|(_, a), (_, b)| {
                let da = dep.distance(processor, a.representative);
                let db = dep.distance(processor, b.representative);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("a non-degenerate tree has level-1 coordinators");
        self.nodes[leaf].parent = Some(target);
        self.nodes[target].children.push(leaf);
        if self.nodes[target].children.len() > 3 * k - 1 {
            self.split_cluster(target, k, dep);
        }
        self.refresh_upward(target, dep);
    }

    /// Removes a processor from the hierarchy. A level-1 cluster shrinking
    /// below `k` members merges into its nearest sibling cluster (when one
    /// exists). Returns `false` when the processor is unknown.
    ///
    /// # Panics
    ///
    /// Panics when removing the last processor of the tree.
    pub fn leave(&mut self, processor: NodeId, k: usize, dep: &Deployment) -> bool {
        let Some(leaf) = self.leaf_of(processor) else {
            return false;
        };
        assert!(self.nodes[self.root].processors.len() > 1, "cannot remove the last processor");
        let Some(parent) = self.nodes[leaf].parent else {
            return false; // degenerate single-node tree guarded above
        };
        self.generation += 1;
        self.nodes[parent].children.retain(|&c| c != leaf);
        self.nodes[leaf].parent = None;
        self.nodes[leaf].active = false;
        // Under-full cluster: merge into the nearest sibling cluster.
        if self.nodes[parent].children.len() < k {
            let rep = self.nodes[parent].representative;
            let sibling = match self.nodes[parent].parent {
                Some(gp) => {
                    self.nodes[gp].children.iter().copied().filter(|&c| c != parent).min_by(
                        |&a, &b| {
                            let da = dep.distance(rep, self.nodes[a].representative);
                            let db = dep.distance(rep, self.nodes[b].representative);
                            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                        },
                    )
                }
                None => None,
            };
            if let Some(sib) = sibling {
                let orphans = std::mem::take(&mut self.nodes[parent].children);
                for o in &orphans {
                    self.nodes[*o].parent = Some(sib);
                }
                self.nodes[sib].children.extend(orphans);
                if let Some(gp) = self.nodes[parent].parent {
                    self.nodes[gp].children.retain(|&c| c != parent);
                }
                // Sever the upward link too: a detached node with a live
                // parent pointer reads as reachable to naive walks.
                self.nodes[parent].parent = None;
                self.nodes[parent].active = false;
                if self.nodes[sib].children.len() > 3 * k - 1 {
                    self.split_cluster(sib, k, dep);
                }
                self.refresh_upward(sib, dep);
                return true;
            }
        }
        self.refresh_upward(parent, dep);
        true
    }

    /// Splits an over-full cluster into two proximity halves, attaching the
    /// new half to the same grandparent (or a new root).
    fn split_cluster(&mut self, coord: usize, k: usize, dep: &Deployment) {
        let members = self.nodes[coord].children.clone();
        debug_assert!(members.len() >= 2 * k, "split requires at least 2k members");
        // Seeds: the two mutually farthest members.
        let (mut s1, mut s2, mut best) = (members[0], members[1], -1.0);
        for &a in &members {
            for &b in &members {
                if a == b {
                    continue;
                }
                let d = dep.distance(self.nodes[a].representative, self.nodes[b].representative);
                if d > best {
                    best = d;
                    s1 = a;
                    s2 = b;
                }
            }
        }
        let mut half1 = vec![s1];
        let mut half2 = vec![s2];
        let mut rest: Vec<usize> =
            members.iter().copied().filter(|&m| m != s1 && m != s2).collect();
        // Assign nearest-seed first, then rebalance to respect ≥ k.
        rest.sort_by(|&a, &b| {
            let da = dep.distance(self.nodes[a].representative, self.nodes[s1].representative);
            let db = dep.distance(self.nodes[b].representative, self.nodes[s1].representative);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        for m in rest {
            let d1 = dep.distance(self.nodes[m].representative, self.nodes[s1].representative);
            let d2 = dep.distance(self.nodes[m].representative, self.nodes[s2].representative);
            if (d1 <= d2 && half1.len() < members.len() - k) || half2.len() >= members.len() - k {
                half1.push(m);
            } else {
                half2.push(m);
            }
        }
        // Keep half1 in `coord`; create a sibling for half2.
        let level = self.nodes[coord].level;
        let parent = self.nodes[coord].parent;
        let sibling = self.nodes.len();
        for &m in &half2 {
            self.nodes[m].parent = Some(sibling);
        }
        let stand_in = self.nodes[s2].representative;
        self.nodes.push(CoordNode::internal(parent, half2, stand_in, level));
        self.nodes[coord].children = half1;
        match parent {
            Some(gp) => {
                self.nodes[gp].children.push(sibling);
                if self.nodes[gp].children.len() > 3 * k - 1 {
                    self.split_cluster(gp, k, dep);
                }
            }
            None => {
                // Splitting the root: grow the tree by one level.
                let new_root = self.nodes.len();
                let stand_in = self.nodes[coord].representative;
                self.nodes.push(CoordNode::internal(
                    None,
                    vec![coord, sibling],
                    stand_in,
                    level + 1,
                ));
                self.nodes[coord].parent = Some(new_root);
                self.nodes[sibling].parent = Some(new_root);
                self.root = new_root;
            }
        }
        self.refresh_node(sibling, dep);
    }

    /// Recomputes processors / capability / representative of `coord` from
    /// its children; the representative is the member with minimum total
    /// latency to the rest (the paper's median; the first on a tie).
    fn refresh_node(&mut self, coord: usize, dep: &Deployment) {
        if self.nodes[coord].level == 0 {
            return;
        }
        let children = self.nodes[coord].children.clone();
        let mut processors = Vec::new();
        let mut capability = 0.0;
        for &c in &children {
            processors.extend(self.nodes[c].processors.iter().copied());
            capability += self.nodes[c].capability;
        }
        let median = children
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ra = self.nodes[a].representative;
                let rb = self.nodes[b].representative;
                let da: f64 =
                    children.iter().map(|&o| dep.distance(ra, self.nodes[o].representative)).sum();
                let db: f64 =
                    children.iter().map(|&o| dep.distance(rb, self.nodes[o].representative)).sum();
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("internal nodes have children");
        let median_rep = self.nodes[median].representative;
        let node = &mut self.nodes[coord];
        node.proc_set = processors.iter().copied().collect();
        node.processors = processors;
        node.capability = capability;
        node.representative = median_rep;
    }

    /// Refreshes `coord` and every ancestor.
    fn refresh_upward(&mut self, coord: usize, dep: &Deployment) {
        let mut cur = Some(coord);
        while let Some(c) = cur {
            self.refresh_node(c, dep);
            cur = self.nodes[c].parent;
        }
    }

    /// Validates structural invariants (used by tests and after dynamic
    /// maintenance): parent/child symmetry, exact processor coverage, and
    /// medians drawn from members.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every active node must be reachable from the root. Detached
        // nodes keep their arena slots, so a maintenance bug that grafts
        // a new leaf under a deactivated coordinator is invisible to the
        // per-node checks below — only a root walk exposes it.
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            seen[i] = true;
            stack.extend(self.nodes[i].children.iter().copied());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.active && !seen[i] {
                return Err(format!("active node {i} is unreachable from root {}", self.root));
            }
            if !n.active && seen[i] {
                return Err(format!("inactive node {i} is still linked under root {}", self.root));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.active {
                continue;
            }
            for &c in &n.children {
                if self.nodes[c].parent != Some(i) {
                    return Err(format!("child {c} of {i} has parent {:?}", self.nodes[c].parent));
                }
            }
            if n.level > 0 && !n.children.is_empty() {
                let mut procs: Vec<NodeId> = n
                    .children
                    .iter()
                    .flat_map(|&c| self.nodes[c].processors.iter().copied())
                    .collect();
                procs.sort();
                let mut own = n.processors.clone();
                own.sort();
                if procs != own {
                    return Err(format!("node {i} processor set out of sync"));
                }
                if !n.children.iter().any(|&c| self.nodes[c].representative == n.representative) {
                    return Err(format!("node {i} representative is not a member median"));
                }
            }
        }
        Ok(())
    }
}

/// Greedy proximity clustering of `items` into groups of size `[k, 3k−1]`
/// (one final group may grow to `2k−1 + k` at most when absorbing a
/// remainder smaller than `k`).
fn cluster_level(
    nodes: &[CoordNode],
    items: &[usize],
    k: usize,
    dep: &Deployment,
) -> Vec<Vec<usize>> {
    if items.len() < 3 * k {
        return vec![items.to_vec()];
    }
    let mut remaining: Vec<usize> = items.to_vec();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    while remaining.len() >= 2 * k {
        let seed = remaining[0];
        let seed_rep = nodes[seed].representative;
        // k−1 nearest to the seed (deterministic tie-break on index).
        let mut rest: Vec<usize> = remaining[1..].to_vec();
        rest.sort_by(|&a, &b| {
            let da = dep.distance(seed_rep, nodes[a].representative);
            let db = dep.distance(seed_rep, nodes[b].representative);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let mut cluster = vec![seed];
        cluster.extend(rest.iter().take(k - 1).copied());
        remaining.retain(|i| !cluster.contains(i));
        clusters.push(cluster);
    }
    if !remaining.is_empty() {
        if remaining.len() >= k || clusters.is_empty() {
            clusters.push(remaining);
        } else {
            // Too small for its own cluster: absorb into the last one
            // (size ≤ k + k − 1 ≤ 3k − 1? k + (k−1) = 2k−1 ✓).
            clusters.last_mut().expect("guarded by is_empty").extend(remaining);
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_net::TransitStubConfig;

    fn deployment(n_procs: usize, seed: u64) -> Deployment {
        let topo = TransitStubConfig::small().generate(seed);
        Deployment::assign(topo, 3, n_procs, seed)
    }

    #[test]
    fn every_processor_is_a_leaf() {
        let dep = deployment(10, 1);
        let tree = CoordinatorTree::build(&dep, 2);
        for &p in dep.processors() {
            let leaf = tree.leaf_of(p).expect("leaf exists");
            assert_eq!(tree.node(leaf).level, 0);
            assert_eq!(tree.node(leaf).processors, vec![p]);
        }
    }

    #[test]
    fn root_covers_everything() {
        let dep = deployment(12, 2);
        let tree = CoordinatorTree::build(&dep, 3);
        let root = tree.node(tree.root());
        assert_eq!(root.processors.len(), 12);
        for &p in dep.processors() {
            assert!(root.covers(p));
        }
        assert!((root.capability - 12.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_sizes_respect_bounds() {
        let dep = deployment(20, 3);
        let k = 3;
        let tree = CoordinatorTree::build(&dep, k);
        for idx in tree.internal_bottom_up() {
            let n = tree.node(idx);
            if idx == tree.root() {
                assert!(n.children.len() <= 3 * k - 1 + k); // root may absorb remainder
            } else {
                assert!(
                    n.children.len() >= k.min(n.children.len()) && n.children.len() < 3 * k,
                    "cluster of {} children violates [k, 3k-1]",
                    n.children.len()
                );
            }
        }
    }

    #[test]
    fn parents_are_members_medians() {
        let dep = deployment(9, 4);
        let tree = CoordinatorTree::build(&dep, 2);
        for idx in tree.internal_bottom_up() {
            let n = tree.node(idx);
            // The representative must be one of the children's representatives.
            assert!(
                n.children.iter().any(|&c| tree.node(c).representative == n.representative),
                "parent representative not among its cluster"
            );
        }
    }

    #[test]
    fn covering_child_partition() {
        let dep = deployment(14, 5);
        let tree = CoordinatorTree::build(&dep, 2);
        let root = tree.root();
        for &p in dep.processors() {
            let pos = tree.covering_child(root, p).expect("root covers all");
            let child = tree.node(root).children[pos];
            assert!(tree.node(child).covers(p));
            // Exactly one child covers a processor.
            let count =
                tree.node(root).children.iter().filter(|&&c| tree.node(c).covers(p)).count();
            assert_eq!(count, 1);
        }
        // A non-processor node is covered by nobody.
        assert_eq!(tree.covering_child(root, NodeId(u32::MAX - 1)), None);
    }

    #[test]
    fn smaller_k_means_taller_tree() {
        let dep = deployment(16, 6);
        let t2 = CoordinatorTree::build(&dep, 2);
        let t8 = CoordinatorTree::build(&dep, 8);
        assert!(t2.height() > t8.height(), "{} vs {}", t2.height(), t8.height());
    }

    #[test]
    fn capabilities_flow_up() {
        let dep = deployment(6, 7);
        let caps = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let tree = CoordinatorTree::build_with_capabilities(&dep, 2, &caps);
        let root = tree.node(tree.root());
        assert!((root.capability - 21.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k1_is_rejected() {
        let dep = deployment(4, 8);
        let _ = CoordinatorTree::build(&dep, 1);
    }

    #[test]
    fn single_processor_tree() {
        let dep = deployment(1, 9);
        let tree = CoordinatorTree::build(&dep, 2);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn join_grows_tree_and_keeps_invariants() {
        // Build on 10 of 14 processors, then join the remaining 4.
        let topo = TransitStubConfig::small().generate(30);
        let dep = Deployment::assign(topo, 3, 14, 30);
        let first: Vec<_> = dep.processors()[..10].to_vec();
        let dep_small =
            Deployment::with_roles(dep.topology().clone(), dep.sources().to_vec(), first.clone());
        let mut tree = CoordinatorTree::build(&dep_small, 2);
        for &p in &dep.processors()[10..] {
            tree.join(p, 1.0, 2, &dep);
            tree.check_invariants().expect("invariants after join");
        }
        let root = tree.node(tree.root());
        assert_eq!(root.processors.len(), 14);
        for &p in dep.processors() {
            assert!(root.covers(p), "{p} missing after joins");
            assert!(tree.leaf_of(p).is_some());
        }
        assert!((root.capability - 14.0).abs() < 1e-9);
    }

    #[test]
    fn join_splits_overfull_clusters() {
        let topo = TransitStubConfig::small().generate(31);
        let dep = Deployment::assign(topo, 3, 16, 31);
        let first: Vec<_> = dep.processors()[..4].to_vec();
        let dep_small =
            Deployment::with_roles(dep.topology().clone(), dep.sources().to_vec(), first);
        let k = 2;
        let mut tree = CoordinatorTree::build(&dep_small, k);
        for &p in &dep.processors()[4..] {
            tree.join(p, 1.0, k, &dep);
        }
        tree.check_invariants().expect("invariants");
        // No level-1 cluster may exceed 3k-1 members.
        for i in 0..tree.len() {
            let n = tree.node(i);
            if n.level == 1 {
                assert!(
                    n.children.len() < 3 * k,
                    "cluster of {} children after joins",
                    n.children.len()
                );
            }
        }
    }

    #[test]
    fn leave_removes_processor_and_merges_underfull_clusters() {
        let dep = deployment(12, 32);
        let k = 2;
        let mut tree = CoordinatorTree::build(&dep, k);
        let victims: Vec<_> = dep.processors()[..6].to_vec();
        for &p in &victims {
            assert!(tree.leave(p, k, &dep), "{p} should be removable");
            tree.check_invariants().expect("invariants after leave");
            assert!(tree.leaf_of(p).is_none());
        }
        let root = tree.node(tree.root());
        assert_eq!(root.processors.len(), 6);
        for &p in &dep.processors()[6..] {
            assert!(root.covers(p));
        }
        // Unknown processor: no-op.
        assert!(!tree.leave(victims[0], k, &dep));
    }

    #[test]
    fn join_then_leave_round_trip() {
        let topo = TransitStubConfig::small().generate(33);
        let dep = Deployment::assign(topo, 3, 9, 33);
        let first: Vec<_> = dep.processors()[..8].to_vec();
        let dep_small =
            Deployment::with_roles(dep.topology().clone(), dep.sources().to_vec(), first);
        let mut tree = CoordinatorTree::build(&dep_small, 2);
        let extra = dep.processors()[8];
        tree.join(extra, 1.0, 2, &dep);
        assert!(tree.node(tree.root()).covers(extra));
        assert!(tree.leave(extra, 2, &dep));
        assert!(!tree.node(tree.root()).covers(extra));
        tree.check_invariants().expect("invariants");
        assert_eq!(tree.node(tree.root()).processors.len(), 8);
    }

    /// Regression: a processor whose departure merged its underfull
    /// cluster away must rejoin the *reachable* tree. The deactivated
    /// cluster keeps its arena slot with the departed processor as its
    /// stale representative (distance zero to itself), so an unfiltered
    /// closest-cluster search grafts the new leaf under the detached node
    /// — present per `leaf_of`, invisible to every root-down walk, and
    /// any query homed there silently vanishes from distribution.
    #[test]
    fn rejoin_after_cluster_merge_stays_reachable() {
        let dep = deployment(12, 32);
        let k = 2;
        let mut tree = CoordinatorTree::build(&dep, k);
        // Find a processor whose leave collapses its cluster below k.
        let victim = *dep
            .processors()
            .iter()
            .find(|&&p| {
                let leaf = tree.leaf_of(p).unwrap();
                let parent = tree.node(leaf).parent.unwrap();
                tree.node(parent).children.len() == k
            })
            .expect("some cluster sits at the minimum size");
        assert!(tree.leave(victim, k, &dep));
        tree.check_invariants().expect("invariants after merging leave");
        tree.join(victim, 1.0, k, &dep);
        tree.check_invariants().expect("invariants after rejoin");
        let leaf = tree.leaf_of(victim).expect("rejoined leaf exists");
        // The new leaf's ancestor chain must end at the root.
        let mut cur = leaf;
        while let Some(parent) = tree.node(cur).parent {
            assert!(tree.is_active(parent), "ancestor {parent} of rejoined leaf is detached");
            cur = parent;
        }
        assert_eq!(cur, tree.root(), "rejoined leaf is not attached under the root");
        assert!(tree.node(tree.root()).covers(victim));
    }

    #[test]
    fn determinism() {
        let dep = deployment(15, 10);
        let a = CoordinatorTree::build(&dep, 3);
        let b = CoordinatorTree::build(&dep, 3);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.node(i).representative, b.node(i).representative);
            assert_eq!(a.node(i).children, b.node(i).children);
        }
    }
}

//! Sparse symmetric linear solvers for the load-diffusion step.
//!
//! The adaptive redistribution algorithm (§3.7) adopts the Hu–Blake optimal
//! dynamic load-balancing method: find per-edge load transfers `m_ij` whose
//! Euclidean norm is minimal among all transfers that balance the load. The
//! classic construction solves the graph Laplacian system `L λ = b` (where
//! `b_i = load_i − average`) and sets `m_ij = λ_i − λ_j` along each edge.
//!
//! The Laplacian is singular (constant vectors are its null space), so we use
//! conjugate gradients restricted to the subspace orthogonal to the all-ones
//! vector, which is exactly where `b` lives when total load is conserved.

/// A sparse symmetric matrix stored as (row, col, value) triplets with
/// implied symmetry: push each off-diagonal pair once.
#[derive(Debug, Clone, Default)]
pub struct SparseSym {
    n: usize,
    /// Adjacency: for each row, (col, value) entries including the diagonal.
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseSym {
    /// Creates an `n × n` zero matrix.
    pub fn new(n: usize) -> Self {
        Self { n, rows: vec![Vec::new(); n] }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix is 0 × 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `v` at `(i, j)` and, when `i != j`, at `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.rows[i].push((j, v));
        if i != j {
            self.rows[j].push((i, v));
        }
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    fn mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for (i, row) in self.rows.iter().enumerate() {
            let mut acc = 0.0;
            for &(j, v) in row {
                acc += v * x[j];
            }
            y[i] = acc;
        }
        y
    }
}

/// Builds the graph Laplacian of an undirected graph given as an edge list
/// over `n` vertices. Parallel edges accumulate.
fn laplacian(n: usize, edges: &[(usize, usize)]) -> SparseSym {
    let mut l = SparseSym::new(n);
    let mut degree = vec![0.0; n];
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of bounds");
        assert_ne!(u, v, "self-loops are not part of a Laplacian");
        l.add(u, v, -1.0);
        degree[u] += 1.0;
        degree[v] += 1.0;
    }
    for (i, d) in degree.iter().enumerate() {
        l.add(i, i, *d);
    }
    l
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn project_out_ones(v: &mut [f64]) {
    if v.is_empty() {
        return;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

/// Solves `A x = b` by conjugate gradients in the subspace orthogonal to the
/// all-ones vector (suitable for connected-graph Laplacians).
///
/// Returns the solution with zero mean. Iterates until the residual norm
/// falls below `tol` or `max_iter` iterations elapse.
///
/// # Panics
///
/// Panics if `b.len() != A.len()`.
fn cg_laplacian(a: &SparseSym, b: &[f64], tol: f64, max_iter: usize) -> Vec<f64> {
    assert_eq!(b.len(), a.len(), "dimension mismatch");
    let n = b.len();
    let mut b = b.to_vec();
    project_out_ones(&mut b);

    let mut x = vec![0.0; n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rs_old = dot(&r, &r);
    if rs_old.sqrt() <= tol {
        return x;
    }
    for _ in 0..max_iter {
        let ap = a.mul(&p);
        let denom = dot(&p, &ap);
        if denom.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rs_old / denom;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = dot(&r, &r);
        if rs_new.sqrt() <= tol {
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    project_out_ones(&mut x);
    x
}

/// Hu–Blake diffusion solution: given vertex loads and an undirected edge
/// list, returns per-edge transfers `m`, aligned with `edges`, such that
/// applying them balances the load (vertex `u` sends `m_k` to `v` when
/// `m_k > 0`, receives when negative) with minimal Euclidean norm.
///
/// The graph must be connected for an exact balance; on a disconnected graph
/// each component balances internally around its own mean.
pub fn diffusion_solution(loads: &[f64], edges: &[(usize, usize)]) -> Vec<f64> {
    let n = loads.len();
    if n == 0 || edges.is_empty() {
        return vec![0.0; edges.len()];
    }
    let l = laplacian(n, edges);
    let mean = loads.iter().sum::<f64>() / n as f64;
    let b: Vec<f64> = loads.iter().map(|&x| x - mean).collect();
    let lambda = cg_laplacian(&l, &b, 1e-10, 4 * n.max(32));
    edges.iter().map(|&(u, v)| lambda[u] - lambda[v]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn apply_transfers(loads: &[f64], edges: &[(usize, usize)], m: &[f64]) -> Vec<f64> {
        let mut out = loads.to_vec();
        for (k, &(u, v)) in edges.iter().enumerate() {
            out[u] -= m[k];
            out[v] += m[k];
        }
        out
    }

    #[test]
    fn two_nodes_split_evenly() {
        let loads = [10.0, 0.0];
        let edges = [(0, 1)];
        let m = diffusion_solution(&loads, &edges);
        let after = apply_transfers(&loads, &edges, &m);
        assert!((after[0] - 5.0).abs() < 1e-6);
        assert!((after[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn path_graph_balances() {
        let loads = [9.0, 0.0, 0.0];
        let edges = [(0, 1), (1, 2)];
        let m = diffusion_solution(&loads, &edges);
        let after = apply_transfers(&loads, &edges, &m);
        for l in after {
            assert!((l - 3.0).abs() < 1e-6, "got {l}");
        }
        // Node 0 must push 6 through its only edge; edge (1,2) carries 3.
        assert!((m[0] - 6.0).abs() < 1e-6);
        assert!((m[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn complete_graph_matches_closed_form() {
        // On K_n, lambda_i = (load_i - mean) / n, so m_ij = (l_i - l_j) / n.
        let loads = [8.0, 2.0, 2.0, 0.0];
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let m = diffusion_solution(&loads, &edges);
        let after = apply_transfers(&loads, &edges, &m);
        for l in &after {
            assert!((l - 3.0).abs() < 1e-6);
        }
        for (k, &(u, v)) in edges.iter().enumerate() {
            let expect = (loads[u] - loads[v]) / 4.0;
            assert!((m[k] - expect).abs() < 1e-6, "edge {k}");
        }
    }

    #[test]
    fn already_balanced_means_zero_transfers() {
        let loads = [4.0, 4.0, 4.0];
        let edges = [(0, 1), (1, 2), (0, 2)];
        let m = diffusion_solution(&loads, &edges);
        for v in m {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let l = laplacian(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let ones = vec![1.0; 4];
        for v in l.mul(&ones) {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = laplacian(3, &[(1, 1)]);
    }

    proptest! {
        #[test]
        fn prop_diffusion_balances_random_ring(
            loads in proptest::collection::vec(0.0f64..100.0, 3..20),
        ) {
            let n = loads.len();
            let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let m = diffusion_solution(&loads, &edges);
            let after = apply_transfers(&loads, &edges, &m);
            let mean = loads.iter().sum::<f64>() / n as f64;
            for l in after {
                prop_assert!((l - mean).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_total_load_conserved(
            loads in proptest::collection::vec(0.0f64..50.0, 2..16),
            extra in proptest::collection::vec((0usize..16, 0usize..16), 0..10),
        ) {
            let n = loads.len();
            let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            let m = diffusion_solution(&loads, &edges);
            let after = apply_transfers(&loads, &edges, &m);
            let before_total: f64 = loads.iter().sum();
            let after_total: f64 = after.iter().sum();
            prop_assert!((before_total - after_total).abs() < 1e-6);
        }
    }
}

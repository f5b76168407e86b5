//! Recursive spectral bisection — the multi-scale extension.
//!
//! The paper notes that Laplacian methods "support multi-scale, hierarchical
//! clustering by tuning spectral components" (§3.1.1). This module implements
//! that direction: instead of one flat k-means over k eigenvectors, the rows
//! are recursively bisected by the Fiedler vector of each submatrix's
//! similarity graph until groups fall below a leaf size, then emitted in
//! depth-first order (leaves sorted by Fiedler coordinate). No `k` needs to
//! be chosen at all — the hierarchy adapts to the structure.
//!
//! This is an *extension* beyond the paper's deployed algorithm, compared
//! against flat spectral clustering in the `ablations` harness.

use bootes_linalg::lanczos::{lanczos_smallest, LanczosConfig};
use bootes_linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes_reorder::{MemTracker, ReorderError, ReorderOutcome, Reorderer, StatsScope};
use bootes_sparse::{CsrMatrix, Permutation};

use crate::spectral::numerical;

/// Configuration for [`RecursiveSpectralReorderer`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecursiveConfig {
    /// Stop splitting groups at or below this size.
    pub leaf_size: usize,
    /// Maximum recursion depth (bounds worst-case work on pathological
    /// inputs; `2^max_depth · leaf_size` should exceed the row count).
    pub max_depth: usize,
    /// Eigensolver tolerance (loose: only the Fiedler *ordering* matters).
    pub eig_tol: f64,
    /// Eigensolver restart budget per bisection.
    pub max_restarts: usize,
    /// RNG seed for eigensolver start vectors.
    pub seed: u64,
}

impl Default for RecursiveConfig {
    fn default() -> Self {
        RecursiveConfig {
            leaf_size: 32,
            max_depth: 24,
            eig_tol: 1e-3,
            max_restarts: 10,
            seed: 0x2EC,
        }
    }
}

/// Row reordering by recursive Fiedler bisection of the similarity graph.
///
/// # Example
///
/// ```
/// use bootes_core::recursive::{RecursiveConfig, RecursiveSpectralReorderer};
/// use bootes_reorder::Reorderer;
/// use bootes_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), bootes_reorder::ReorderError> {
/// let out = RecursiveSpectralReorderer::new(RecursiveConfig::default())
///     .reorder(&CsrMatrix::identity(64))?;
/// assert_eq!(out.permutation.len(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecursiveSpectralReorderer {
    config: RecursiveConfig,
}

impl RecursiveSpectralReorderer {
    /// Creates a reorderer with the given configuration.
    pub fn new(config: RecursiveConfig) -> Self {
        RecursiveSpectralReorderer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RecursiveConfig {
        &self.config
    }

    fn bisect(
        &self,
        a: &CsrMatrix,
        rows: Vec<usize>,
        depth: usize,
        out: &mut Vec<usize>,
        mem: &mut MemTracker,
    ) -> Result<(), ReorderError> {
        bootes_guard::checkpoint("recursive.bisect")?;
        let leaf = self.config.leaf_size.max(2);
        if rows.len() <= leaf || depth >= self.config.max_depth {
            out.extend_from_slice(&rows);
            return Ok(());
        }
        let _span = bootes_obs::span!("spectral.bisect");
        // Extract the row subset as its own matrix (columns unchanged).
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for &r in &rows {
            let (cols, vals) = a.row(r);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        let sub = CsrMatrix::from_parts_unchecked(rows.len(), a.ncols(), indptr, indices, values);
        mem.alloc(sub.heap_bytes());

        // Fiedler vector of the subset's similarity graph.
        let op = ImplicitNormalizedLaplacian::new(&sub);
        mem.alloc(op.heap_bytes());
        let lcfg = LanczosConfig {
            tol: self.config.eig_tol,
            max_restarts: self.config.max_restarts,
            seed: self.config.seed.wrapping_add(depth as u64),
            allow_unconverged: true,
            converge_k: 2,
            ..LanczosConfig::default()
        };
        let eig = lanczos_smallest(&op, 2.min(rows.len()), &lcfg).map_err(numerical)?;
        mem.free(op.heap_bytes());
        mem.free(sub.heap_bytes());
        let fiedler = match eig.eigenvectors.last() {
            Some(v) => v.clone(),
            None => {
                return Err(ReorderError::Numerical(
                    "eigensolver returned no eigenvectors for bisection".to_string(),
                ))
            }
        };

        // Order the subset by Fiedler coordinate and split at the median,
        // which guarantees both halves are non-empty and strictly smaller.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&x, &y| {
            fiedler[x]
                .partial_cmp(&fiedler[y])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(rows[x].cmp(&rows[y]))
        });
        let mid = rows.len() / 2;
        let left: Vec<usize> = order[..mid].iter().map(|&i| rows[i]).collect();
        let right: Vec<usize> = order[mid..].iter().map(|&i| rows[i]).collect();

        // Near the root both halves are large independent subproblems, so run
        // them on two scoped threads. Each half writes into its own order
        // vector and tracker; stitching left-then-right and folding the
        // larger child peak into the parent tracker reproduces the serial
        // schedule exactly (bit-identical permutation and peak_bytes).
        if depth < 2 && bootes_par::threads() > 1 {
            let run = |rows: Vec<usize>| {
                let mut sub_out = Vec::with_capacity(rows.len());
                let mut sub_mem = MemTracker::new();
                self.bisect(a, rows, depth + 1, &mut sub_out, &mut sub_mem)
                    .map(|()| (sub_out, sub_mem))
            };
            let (l, r) = bootes_par::join(true, || run(left), || run(right))?;
            let (l_out, l_mem) = l?;
            let (r_out, r_mem) = r?;
            out.extend_from_slice(&l_out);
            out.extend_from_slice(&r_out);
            let child_peak = l_mem.peak_bytes().max(r_mem.peak_bytes());
            mem.alloc(child_peak);
            mem.free(child_peak);
            return Ok(());
        }
        self.bisect(a, left, depth + 1, out, mem)?;
        self.bisect(a, right, depth + 1, out, mem)
    }
}

impl Reorderer for RecursiveSpectralReorderer {
    fn name(&self) -> &'static str {
        "bootes-recursive"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<ReorderOutcome, ReorderError> {
        let scope = StatsScope::start(self.name(), "reorder.recursive");
        let n = a.nrows();
        let mut mem = MemTracker::new();
        let mut order = Vec::with_capacity(n);
        self.bisect(a, (0..n).collect(), 0, &mut order, &mut mem)?;
        mem.alloc(n * std::mem::size_of::<usize>());
        Ok(ReorderOutcome {
            permutation: Permutation::try_new(order)?,
            stats: scope.stats(&mem),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::CooMatrix;
    use bootes_workloads::scramble_rows;

    fn scrambled_blocks(n: usize, k: usize, span: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, k * span);
        for r in 0..n {
            let g = r * k / n;
            for c in 0..span {
                coo.push(r, g * span + c, 1.0).unwrap();
            }
        }
        scramble_rows(&coo.to_csr(), seed)
    }

    #[test]
    fn recovers_blocks_without_knowing_k() {
        let a = scrambled_blocks(128, 4, 8, 17);
        let out = RecursiveSpectralReorderer::default().reorder(&a).unwrap();
        let b = out.permutation.apply_rows(&a).unwrap();
        let same = (0..b.nrows() - 1)
            .filter(|&i| b.row(i).0 == b.row(i + 1).0)
            .count();
        assert!(same >= 110, "only {same}/127 same-pattern adjacencies");
    }

    #[test]
    fn valid_permutation_on_odd_inputs() {
        for a in [
            CsrMatrix::zeros(0, 0),
            CsrMatrix::zeros(5, 5),
            CsrMatrix::identity(3),
            scrambled_blocks(70, 3, 5, 2),
        ] {
            let out = RecursiveSpectralReorderer::default().reorder(&a).unwrap();
            assert_eq!(out.permutation.len(), a.nrows());
        }
    }

    #[test]
    fn leaf_size_stops_recursion() {
        let a = scrambled_blocks(64, 2, 4, 3);
        let big_leaf = RecursiveSpectralReorderer::new(RecursiveConfig {
            leaf_size: 64,
            ..RecursiveConfig::default()
        });
        // Leaf covers everything: order must be identity.
        let out = big_leaf.reorder(&a).unwrap();
        assert!(out.permutation.is_identity());
    }

    #[test]
    fn depth_bound_is_respected() {
        let a = scrambled_blocks(256, 4, 4, 5);
        let shallow = RecursiveSpectralReorderer::new(RecursiveConfig {
            leaf_size: 2,
            max_depth: 1,
            ..RecursiveConfig::default()
        });
        // One split only: both halves stay in original relative order.
        let out = shallow.reorder(&a).unwrap();
        assert_eq!(out.permutation.len(), 256);
    }

    #[test]
    fn nonempty_matrices_report_nonzero_footprint() {
        for n in [1usize, 2, 3] {
            let out = RecursiveSpectralReorderer::default()
                .reorder(&CsrMatrix::identity(n))
                .unwrap();
            assert!(out.stats.peak_bytes > 0, "n={n} reported peak_bytes == 0");
        }
    }

    #[test]
    fn deterministic() {
        let a = scrambled_blocks(96, 3, 6, 8);
        let r = RecursiveSpectralReorderer::default();
        assert_eq!(
            r.reorder(&a).unwrap().permutation,
            r.reorder(&a).unwrap().permutation
        );
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        let a = scrambled_blocks(128, 4, 8, 9);
        let r = RecursiveSpectralReorderer::default();
        bootes_par::set_threads(1);
        let serial = r.reorder(&a).unwrap();
        bootes_par::set_threads(4);
        let parallel = r.reorder(&a).unwrap();
        bootes_par::set_threads(0);
        assert_eq!(serial.permutation, parallel.permutation);
        assert_eq!(serial.stats.peak_bytes, parallel.stats.peak_bytes);
    }
}

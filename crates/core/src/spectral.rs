//! The spectral-clustering row reorderer (Algorithm 4 of the paper).

use bootes_cache::{Artifact, ArtifactKind, CacheKey, RitzArtifact};
use bootes_linalg::kmeans::{kmeans, KMeansConfig};
use bootes_linalg::lanczos::{lanczos_smallest, Eigenpairs, LanczosConfig};
use bootes_linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes_linalg::LinalgError;
use bootes_reorder::{MemTracker, ReorderError, ReorderOutcome, Reorderer, StatsScope};
use bootes_sparse::{CsrMatrix, DenseMatrix, Permutation};

use crate::config::BootesConfig;

/// Bootes' spectral-clustering row reordering.
///
/// Implements Algorithm 4: normalized Laplacian of the binary row-similarity
/// graph → `k` smallest eigenvectors (thick-restart Lanczos) → k-means on the
/// spectral embedding → permutation grouping same-cluster rows. The
/// Laplacian is applied implicitly through two SpMVs with the pattern of `A`,
/// so the similarity matrix `Ā·Āᵀ` is never formed (design D3).
///
/// # Example
///
/// ```
/// use bootes_core::{BootesConfig, SpectralReorderer};
/// use bootes_reorder::Reorderer;
/// use bootes_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), bootes_reorder::ReorderError> {
/// let out = SpectralReorderer::new(BootesConfig::default().with_k(2))
///     .reorder(&CsrMatrix::identity(32))?;
/// assert_eq!(out.permutation.len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpectralReorderer {
    config: BootesConfig,
}

/// Maps a linear-algebra failure into the reorder error space, keeping guard
/// failures (budget exhaustion, injected faults) typed rather than collapsing
/// them into an opaque numerical-error string.
fn numerical(e: LinalgError) -> ReorderError {
    match e {
        LinalgError::Guard(g) => ReorderError::Guard(g),
        other => ReorderError::Numerical(other.to_string()),
    }
}

impl SpectralReorderer {
    /// Creates a reorderer with the given configuration.
    pub fn new(config: BootesConfig) -> Self {
        SpectralReorderer { config }
    }

    /// Computes cluster labels for the rows of `a` (the clustering stage of
    /// the reordering, exposed for inspection and for the label-generation
    /// harness that trains the decision tree).
    ///
    /// Returns `(labels, embedding)` where `labels[i] ∈ 0..k` and
    /// `embedding` is the `n x k` spectral embedding.
    ///
    /// # Errors
    ///
    /// Returns [`ReorderError::Numerical`] if the eigensolver or k-means
    /// fails, [`ReorderError::InvalidConfig`] if `k < 2`, and
    /// [`ReorderError::Guard`] if the armed resource budget runs out or a
    /// failpoint fires.
    pub fn cluster(&self, a: &CsrMatrix) -> Result<(Vec<usize>, DenseMatrix), ReorderError> {
        self.cluster_tracked(a, &mut MemTracker::new())
    }

    fn cluster_tracked(
        &self,
        a: &CsrMatrix,
        mem: &mut MemTracker,
    ) -> Result<(Vec<usize>, DenseMatrix), ReorderError> {
        bootes_guard::checkpoint("spectral.cluster")?;
        let n = a.nrows();
        let k = self.config.k;
        if k < 2 {
            return Err(ReorderError::InvalidConfig(format!(
                "k = {k} must be at least 2"
            )));
        }
        // Effective cluster count for tiny matrices.
        let k = k.min(n.max(1));
        if n <= k {
            // Each row its own cluster.
            return Ok(((0..n).collect(), DenseMatrix::zeros(n, 1)));
        }

        // Lines 11-15: smallest eigenvectors of the normalized Laplacian of
        // the row-similarity graph. The first k eigenvectors carry the
        // k-cluster structure; extra vectors (extra_embed, design D1b)
        // expose finer intra-cluster structure used by the within-cluster
        // ordering.
        let k_embed = (k + self.config.extra_embed.min(k)).clamp(k, n.saturating_sub(1).max(k));
        let lcfg = LanczosConfig {
            tol: self.config.eig_tol,
            max_restarts: self.config.max_restarts,
            seed: self.config.seed,
            allow_unconverged: true,
            // Convergence is gated on the k cluster eigenvectors only; the
            // extra embedding dimensions are best-effort.
            converge_k: k,
            // A lean subspace: ordering needs approximate eigenvectors, not
            // machine-precision ones, and the basis is the memory high-water
            // mark of the whole preprocessing.
            max_subspace: (k_embed + 16).min(n),
        };
        // Artifact-cache consult: converged Ritz pairs are keyed on the
        // sparsity pattern (the Laplacian is a pattern-only operator) plus
        // every parameter the solve depends on. An exact hit is reused
        // verbatim — the solve is deterministic, so this is bit-identical to
        // re-solving. Reorder keys include the model, so pipelines that pick
        // the same k for one matrix share the eigensolve through this key.
        let cache = bootes_cache::global();
        let ritz_key = cache.as_ref().map(|_| {
            let fp = bootes_sparse::MatrixFingerprint::of(a);
            let mut h = bootes_sparse::Fnv1a::new();
            h.write_usize(n)
                .write_usize(k_embed)
                .write_f64(lcfg.tol)
                .write_usize(lcfg.max_restarts)
                .write_u64(lcfg.seed)
                .write_u64(lcfg.allow_unconverged as u64)
                .write_usize(lcfg.converge_k)
                .write_usize(lcfg.max_subspace);
            CacheKey::new(ArtifactKind::Ritz, &fp, h.finish())
        });
        let cached_eig = match (&cache, &ritz_key) {
            (Some(c), Some(key)) => match c.get(key) {
                Some(Artifact::Ritz(hit)) => Some(hit.pairs),
                _ => None,
            },
            _ => None,
        };
        let eig: Eigenpairs = match cached_eig {
            Some(eig) => eig,
            None => {
                // Implicit Laplacian: two SpMVs with the binary pattern per
                // application, no similarity matrix at all.
                let op = {
                    let _span = bootes_obs::span!("spectral.laplacian");
                    ImplicitNormalizedLaplacian::new(a)
                };
                mem.alloc(op.heap_bytes());
                bootes_guard::check_bytes("spectral", mem.current_bytes() as u64)?;
                let eig = {
                    let _span = bootes_obs::span!("spectral.lanczos");
                    lanczos_smallest(&op, k_embed, &lcfg).map_err(numerical)?
                };
                mem.free(op.heap_bytes());
                if let (Some(c), Some(key)) = (&cache, &ritz_key) {
                    c.put(*key, Artifact::Ritz(RitzArtifact { pairs: eig.clone() }));
                }
                eig
            }
        };
        // Krylov basis high-water mark (dominant transient of the solve).
        let m_basis = (k_embed + 16).min(n);
        mem.alloc(n * m_basis * std::mem::size_of::<f64>());
        mem.free(n * m_basis * std::mem::size_of::<f64>());
        mem.alloc(n * k_embed * std::mem::size_of::<f64>());
        bootes_guard::check_bytes("spectral", mem.current_bytes() as u64)?;

        // Assemble the n x k_embed spectral embedding.
        let mut embedding = DenseMatrix::zeros(n, k_embed);
        for (j, v) in eig.eigenvectors.iter().enumerate() {
            for i in 0..n {
                embedding[(i, j)] = v[i];
            }
        }

        // Line 16-17: k-means on the embedding.
        let kcfg = KMeansConfig {
            max_iter: self.config.kmeans_max_iter,
            n_init: self.config.kmeans_n_init,
            seed: self.config.seed ^ 0x5EED,
            ..KMeansConfig::default()
        };
        let km = {
            let _span = bootes_obs::span!("spectral.kmeans");
            kmeans(&embedding, k, &kcfg).map_err(numerical)?
        };
        Ok((km.labels, embedding))
    }
}

impl Reorderer for SpectralReorderer {
    fn name(&self) -> &'static str {
        "bootes"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<ReorderOutcome, ReorderError> {
        let scope = StatsScope::start(self.name(), "reorder.spectral");
        let n = a.nrows();
        let mut mem = MemTracker::new();
        if n <= 2 {
            // Even the degenerate path materializes the identity permutation.
            mem.alloc(n * std::mem::size_of::<usize>());
            return Ok(ReorderOutcome {
                permutation: Permutation::identity(n),
                stats: scope.stats(&mem),
            });
        }
        let (labels, embedding) = self.cluster_tracked(a, &mut mem)?;
        let k = labels.iter().copied().max().map_or(1, |m| m + 1);

        // Permutation synthesis. Baseline: group rows by cluster label.
        // Design decision D1 (default): order clusters by their mean Fiedler
        // coordinate, and rows *within* a cluster by a greedy
        // nearest-neighbor chain in embedding space — rows with
        // near-identical column supports have near-identical embeddings and
        // become adjacent, so a cluster containing several distinct row
        // patterns lays each pattern out contiguously.
        let _order_span = bootes_obs::span!("spectral.order");
        let fiedler_col = if embedding.ncols() > 1 { 1 } else { 0 };
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (row, &label) in labels.iter().enumerate() {
            clusters[label].push(row);
        }
        if self.config.fiedler_refine {
            for members in &mut clusters {
                chain_by_embedding(members, &embedding, fiedler_col);
            }
            clusters.sort_by(|ca, cb| {
                let ma = cluster_mean(ca, &embedding, fiedler_col);
                let mb = cluster_mean(cb, &embedding, fiedler_col);
                ma.partial_cmp(&mb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| ca.first().cmp(&cb.first()))
            });
        }
        let mut p = Vec::with_capacity(n);
        for members in &clusters {
            p.extend_from_slice(members);
        }
        mem.alloc(n * std::mem::size_of::<usize>());

        let permutation = Permutation::try_new(p)?;
        Ok(ReorderOutcome {
            permutation,
            stats: scope.stats(&mem),
        })
    }
}

/// Reorders `members` in place into a greedy nearest-neighbor chain in
/// embedding space, starting from the member with the smallest Fiedler
/// coordinate. `O(m² · d)` per cluster, which on large clusters is a sizable
/// share of the eigensolve's time (DESIGN.md, D1). So the members'
/// coordinates are copied column-major, in `members` order, and each step
/// accumulates the distances from the current row to every remaining
/// candidate one dimension at a time. Each distance adds the same terms in
/// the same order as a row-at-a-time sum, from `0.0` rather than
/// `Iterator::sum`'s `-0.0`, which gives the same bits because a square is
/// never `-0.0`.
fn chain_by_embedding(members: &mut [usize], embedding: &DenseMatrix, fiedler_col: usize) {
    let m = members.len();
    if m < 3 {
        return;
    }
    // Start from the extreme Fiedler coordinate for a stable anchor.
    let start = (0..m)
        .min_by(|&x, &y| {
            embedding[(members[x], fiedler_col)]
                .partial_cmp(&embedding[(members[y], fiedler_col)])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(members[x].cmp(&members[y]))
        })
        .unwrap_or(0);
    members.swap(0, start);
    // coords[c * m + idx] is coordinate c of members[idx].
    let mut coords = vec![0.0; m * embedding.ncols()];
    for (idx, &row) in members.iter().enumerate() {
        for (c, &v) in embedding.row(row).iter().enumerate() {
            coords[c * m + idx] = v;
        }
    }
    let mut dist = vec![0.0; m];
    for pos in 1..m - 1 {
        let dist = &mut dist[pos..];
        dist.fill(0.0);
        for col in coords.chunks_exact(m) {
            let cur = col[pos - 1];
            for (dd, &cand) in dist.iter_mut().zip(&col[pos..]) {
                let delta = cur - cand;
                *dd += delta * delta;
            }
        }
        let mut best = pos;
        let mut best_d = f64::INFINITY;
        for (idx, &dd) in (pos..).zip(dist.iter()) {
            if dd < best_d || (dd == best_d && members[idx] < members[best]) {
                best_d = dd;
                best = idx;
            }
        }
        members.swap(pos, best);
        for col in coords.chunks_exact_mut(m) {
            col.swap(pos, best);
        }
    }
}

fn cluster_mean(members: &[usize], embedding: &DenseMatrix, col: usize) -> f64 {
    if members.is_empty() {
        return f64::INFINITY; // empty clusters sort last (then dropped)
    }
    members.iter().map(|&r| embedding[(r, col)]).sum::<f64>() / members.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::CooMatrix;
    use proptest::prelude::*;

    /// The row-at-a-time chain: the bit-for-bit reference of
    /// [`chain_by_embedding`].
    fn chain_reference(members: &mut [usize], embedding: &DenseMatrix, fiedler_col: usize) {
        let m = members.len();
        if m < 3 {
            return;
        }
        let d = embedding.ncols();
        let dist2 = |a: usize, b: usize| -> f64 {
            (0..d)
                .map(|c| {
                    let delta = embedding[(a, c)] - embedding[(b, c)];
                    delta * delta
                })
                .sum()
        };
        let start = (0..m)
            .min_by(|&x, &y| {
                embedding[(members[x], fiedler_col)]
                    .partial_cmp(&embedding[(members[y], fiedler_col)])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(members[x].cmp(&members[y]))
            })
            .unwrap_or(0);
        members.swap(0, start);
        for pos in 1..m - 1 {
            let cur = members[pos - 1];
            let mut best = pos;
            let mut best_d = f64::INFINITY;
            for (idx, &cand) in members.iter().enumerate().skip(pos) {
                let dd = dist2(cur, cand);
                if dd < best_d || (dd == best_d && cand < members[best]) {
                    best_d = dd;
                    best = idx;
                }
            }
            members.swap(pos, best);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The column-major chain orders every cluster exactly as the
        /// reference does, on embeddings whose coarse grid makes identical
        /// rows and tied distances common.
        #[test]
        fn column_major_chain_matches_the_reference(
            (cells, n, d) in (1usize..90, 1usize..6).prop_flat_map(|(n, d)| {
                (proptest::collection::vec(0usize..3, n * d), n..n + 1, d..d + 1)
            }),
            stride in 1usize..7,
        ) {
            let data = cells.into_iter().map(|c| c as f64 - 1.0).collect();
            let embedding = DenseMatrix::from_rows(n, d, data);
            // A scattered cluster: every `stride`-th row, last row first.
            let members: Vec<usize> = (0..n).rev().step_by(stride).collect();
            let fiedler_col = if d > 1 { 1 } else { 0 };
            let mut got = members.clone();
            chain_by_embedding(&mut got, &embedding, fiedler_col);
            let mut want = members;
            chain_reference(&mut want, &embedding, fiedler_col);
            prop_assert_eq!(got, want);
        }
    }
    use bootes_workloads::gen::{clustered, GenConfig};
    use bootes_workloads::scramble_rows;

    /// Block matrix with `k` groups of identical rows, scrambled.
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

    /// Fraction of adjacent pairs in the permuted order whose rows have
    /// identical column supports.
    fn adjacency_purity(a: &CsrMatrix, perm: &Permutation) -> f64 {
        let b = perm.apply_rows(a).unwrap();
        let n = b.nrows();
        if n < 2 {
            return 1.0;
        }
        let same = (0..n - 1).filter(|&i| b.row(i).0 == b.row(i + 1).0).count();
        same as f64 / (n - 1) as f64
    }

    #[test]
    fn recovers_scrambled_blocks() {
        let a = scrambled_blocks(120, 4, 8, 99);
        let out = SpectralReorderer::new(BootesConfig::default().with_k(4))
            .reorder(&a)
            .unwrap();
        let purity = adjacency_purity(&a, &out.permutation);
        // 4 groups of 30 identical rows: optimal purity = 116/119 ≈ 0.975.
        assert!(purity > 0.9, "purity {purity}");
    }

    #[test]
    fn identity_on_tiny_matrices() {
        for n in 0..3 {
            let out = SpectralReorderer::default()
                .reorder(&CsrMatrix::zeros(n, 4))
                .unwrap();
            assert!(out.permutation.is_identity());
        }
    }

    #[test]
    fn rejects_k_below_two() {
        let a = scrambled_blocks(32, 2, 4, 1);
        let r = SpectralReorderer::new(BootesConfig::default().with_k(1));
        assert!(matches!(r.reorder(&a), Err(ReorderError::InvalidConfig(_))));
    }

    #[test]
    fn handles_disconnected_and_empty_rows() {
        // Matrix with empty rows and two disconnected components.
        let mut coo = CooMatrix::new(40, 40);
        for r in 0..15 {
            coo.push(r, 0, 1.0).unwrap();
            coo.push(r, 1, 1.0).unwrap();
        }
        for r in 20..35 {
            coo.push(r, 30, 1.0).unwrap();
            coo.push(r, 31, 1.0).unwrap();
        }
        // rows 15..20 and 35..40 stay empty
        let a = scramble_rows(&coo.to_csr(), 5);
        let out = SpectralReorderer::new(BootesConfig::default().with_k(2))
            .reorder(&a)
            .unwrap();
        assert_eq!(out.permutation.len(), 40);
    }

    #[test]
    fn cluster_labels_align_with_hidden_groups() {
        let a = scrambled_blocks(90, 3, 6, 2);
        let (labels, _) = SpectralReorderer::new(BootesConfig::default().with_k(3))
            .cluster(&a)
            .unwrap();
        // Rows with the same column support must get the same label.
        for i in 0..a.nrows() {
            for j in (i + 1)..a.nrows() {
                if a.row(i).0 == a.row(j).0 {
                    assert_eq!(labels[i], labels[j], "rows {i} and {j} split");
                }
            }
        }
    }

    #[test]
    fn fiedler_refinement_changes_order_not_validity() {
        let a = clustered(&GenConfig::new(200, 200).seed(8), 4, 0.9).unwrap();
        let refined = SpectralReorderer::new(BootesConfig::default().with_k(4))
            .reorder(&a)
            .unwrap();
        let plain = SpectralReorderer::new(BootesConfig {
            fiedler_refine: false,
            ..BootesConfig::default().with_k(4)
        })
        .reorder(&a)
        .unwrap();
        assert_eq!(refined.permutation.len(), plain.permutation.len());
    }

    #[test]
    fn nonempty_matrices_report_nonzero_footprint() {
        // Regression: the n <= 2 early exit must still report the tracked
        // footprint of the identity permutation, not a hardcoded zero.
        for n in [1usize, 2, 3] {
            let out = SpectralReorderer::default()
                .reorder(&CsrMatrix::identity(n))
                .unwrap();
            assert!(out.stats.peak_bytes > 0, "n={n} reported peak_bytes == 0");
        }
    }

    #[test]
    fn memory_accounting_reports_footprint() {
        let a = scrambled_blocks(150, 5, 6, 3);
        let out = SpectralReorderer::new(BootesConfig::default().with_k(5))
            .reorder(&a)
            .unwrap();
        assert!(out.stats.peak_bytes > 0);
        assert_eq!(out.stats.algorithm, "bootes");
    }

    #[test]
    fn deterministic() {
        let a = scrambled_blocks(80, 4, 4, 7);
        let r = SpectralReorderer::new(BootesConfig::default().with_k(4));
        assert_eq!(
            r.reorder(&a).unwrap().permutation,
            r.reorder(&a).unwrap().permutation
        );
    }
}

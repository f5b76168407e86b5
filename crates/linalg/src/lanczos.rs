//! The Lanczos eigensolver for symmetric operators.
//!
//! [`lanczos_smallest`] is a thick-restart Lanczos method (Wu & Simon) with
//! full reorthogonalization — the same family of algorithm behind
//! `scipy.sparse.linalg.eigsh`, which the paper calls on Algorithm 4 line 15.
//! It computes the `k` algebraically smallest eigenpairs of a symmetric
//! operator, which for the normalized Laplacian yields the spectral embedding.
//! It is the crate's only iterative eigensolver (design decision D2 in
//! `DESIGN.md`).

use bootes_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::LinalgError;
use crate::jacobi::jacobi_eigen;
use crate::operator::LinearOperator;
use crate::vecops::{all_finite, axpy, dot, normalize};

/// Configuration for [`lanczos_smallest`].
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosConfig {
    /// Krylov subspace dimension `m` (`0` selects `min(n, max(2k + 16, 36))`).
    pub max_subspace: usize,
    /// Maximum number of thick restarts before giving up.
    pub max_restarts: usize,
    /// Relative residual tolerance: a Ritz pair `(θ, x)` is converged when
    /// `‖Ax − θx‖ ≤ tol · max(|θ|, 1)`.
    pub tol: f64,
    /// Seed for the random starting vector (deterministic runs).
    pub seed: u64,
    /// When `true`, exhausting `max_restarts` returns the best-effort Ritz
    /// pairs (with their residual estimates) instead of
    /// [`LinalgError::NoConvergence`]. Useful when approximate eigenvectors
    /// suffice, as in spectral ordering.
    pub allow_unconverged: bool,
    /// Number of leading Ritz pairs whose residuals gate convergence
    /// (`0` means all `k` requested pairs). Spectral ordering needs tight
    /// residuals only on the cluster-structure eigenvectors and treats the
    /// trailing embedding dimensions as best-effort.
    pub converge_k: usize,
}

impl Default for LanczosConfig {
    fn default() -> Self {
        LanczosConfig {
            max_subspace: 0,
            max_restarts: 300,
            tol: 1e-8,
            seed: 0xB007E5,
            allow_unconverged: false,
            converge_k: 0,
        }
    }
}

/// Converged eigenpairs returned by [`lanczos_smallest`].
///
/// Serializable so the preprocessing artifact cache (`bootes-cache`) can
/// persist converged Ritz pairs and reuse them on an exact key hit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Eigenpairs {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Matching eigenvectors; `eigenvectors[i]` has the operator dimension.
    pub eigenvectors: Vec<Vec<f64>>,
    /// Total operator applications performed.
    pub matvecs: usize,
    /// Thick restarts performed (0 if the dense fallback was used).
    pub restarts: usize,
    /// Residual estimates `‖Ax − θx‖` per returned pair.
    pub residuals: Vec<f64>,
}

/// Publishes per-solve observability: matvec/iteration/restart counters and
/// the worst residual among the returned pairs. No-op unless profiling is on.
fn record_solve_metrics(matvecs: usize, iterations: usize, restarts: usize, residuals: &[f64]) {
    bootes_obs::counter_add("lanczos.matvecs", matvecs as u64);
    bootes_obs::counter_add("lanczos.iterations", iterations as u64);
    bootes_obs::counter_add("lanczos.restarts", restarts as u64);
    if let Some(worst) = residuals.iter().copied().fold(None, |acc: Option<f64>, r| {
        Some(acc.map_or(r, |a| a.max(r)))
    }) {
        bootes_obs::gauge_set("lanczos.residual", worst);
    }
}

fn random_unit(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    if normalize(&mut v) == 0.0 {
        // Astronomically unlikely; fall back to e_0.
        v = vec![0.0; n];
        if n > 0 {
            v[0] = 1.0;
        }
    }
    v
}

/// Orthogonalizes `w` against the columns in `basis` with two Gram-Schmidt
/// passes, accumulating the (first + second pass) coefficients into `coeffs`.
///
/// Each projection `axpy(-h, v_i, w)` shares one sweep with the next
/// coefficient `dot(v_{i+1}, w)` (across the pass boundary too): element
/// `e` of `w` is final once the axpy has updated it, so the dot reads the
/// same operands in the same order as a separate sweep would.
fn orthogonalize(w: &mut [f64], basis: &[Vec<f64>], coeffs: &mut [f64]) {
    let Some(first) = basis.first() else {
        return;
    };
    let steps = 2 * basis.len();
    let mut h = dot(first, w);
    for step in 0..steps {
        let i = step % basis.len();
        coeffs[i] += h;
        if step + 1 < steps {
            h = axpy_dot(-h, &basis[i], w, &basis[(step + 1) % basis.len()]);
        } else {
            axpy(-h, &basis[i], w);
        }
    }
}

/// `w += alpha · v`, then `dot(next, w)` of the updated `w`, in one sweep.
/// The sum starts where [`dot`]'s `Iterator::sum` does, at `-0.0`.
fn axpy_dot(alpha: f64, v: &[f64], w: &mut [f64], next: &[f64]) -> f64 {
    assert!(
        v.len() == w.len() && next.len() == w.len(),
        "axpy_dot length mismatch"
    );
    let mut acc = -0.0;
    for ((we, &ve), &ne) in w.iter_mut().zip(v).zip(next) {
        *we += alpha * ve;
        acc += ne * *we;
    }
    acc
}

/// Computes the `k` algebraically smallest eigenpairs of a symmetric operator
/// by thick-restart Lanczos with full reorthogonalization.
///
/// Small operators (`n ≤ m`) are solved exactly with a dense Jacobi
/// diagonalization instead; large ones iterate
/// build-subspace → Rayleigh–Ritz → compress until the first `k` Ritz pairs
/// have relative residuals below `cfg.tol`.
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] if `k == 0` or `k > a.dim()`.
/// - [`LinalgError::NoConvergence`] if `cfg.max_restarts` is exhausted.
/// - [`LinalgError::NumericalBreakdown`] if the operator produces non-finite
///   values.
/// - [`LinalgError::Guard`] if the armed resource budget runs out at a
///   `lanczos.restart` checkpoint or a failpoint fires there.
///
/// # Example
///
/// ```
/// use bootes_linalg::lanczos::{lanczos_smallest, LanczosConfig};
/// use bootes_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), bootes_linalg::LinalgError> {
/// let diag: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let a = CsrMatrix::from_diagonal(&diag);
/// let eig = lanczos_smallest(&a, 3, &LanczosConfig::default())?;
/// assert!(eig.eigenvalues[2] < 2.0 + 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn lanczos_smallest<A: LinearOperator + ?Sized>(
    a: &A,
    k: usize,
    cfg: &LanczosConfig,
) -> Result<Eigenpairs, LinalgError> {
    let n = a.dim();
    if k == 0 {
        return Err(LinalgError::InvalidArgument(
            "k must be at least 1".to_string(),
        ));
    }
    if k > n {
        return Err(LinalgError::InvalidArgument(format!(
            "k = {k} exceeds operator dimension {n}"
        )));
    }
    let m = if cfg.max_subspace == 0 {
        n.min((2 * k + 16).max(36))
    } else {
        cfg.max_subspace.clamp(k + 1, n.max(k + 1)).min(n)
    };

    if n <= m || n <= k + 1 {
        return dense_fallback(a, k, n);
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut t = DenseMatrix::zeros(m, m);
    let mut candidate = random_unit(n, &mut rng);
    let mut matvecs = 0usize;
    // Coupling norm between the last basis column and the candidate vector:
    // the residual of Ritz pair i is `beta_last * |y[dim-1, i]|`.
    let mut beta_last = 0.0f64;

    for restart in 0..cfg.max_restarts {
        bootes_guard::checkpoint("lanczos.restart")?;
        let _restart_span = bootes_obs::span!("lanczos.restart");
        // Extend the basis up to dimension m.
        while basis.len() < m {
            let j = basis.len();
            basis.push(std::mem::take(&mut candidate));
            let mut w = vec![0.0; n];
            a.apply(&basis[j], &mut w);
            matvecs += 1;
            if !all_finite(&w) {
                return Err(LinalgError::NumericalBreakdown(
                    "operator produced non-finite values".to_string(),
                ));
            }
            let mut coeffs = vec![0.0; j + 1];
            orthogonalize(&mut w, &basis, &mut coeffs);
            for (i, &h) in coeffs.iter().enumerate() {
                t[(i, j)] += h;
                if i != j {
                    t[(j, i)] += h;
                }
            }
            let beta = normalize(&mut w);
            beta_last = beta;
            if beta <= 1e-12 {
                // Invariant subspace: continue with a fresh random direction.
                let mut fresh = random_unit(n, &mut rng);
                let mut discard = vec![0.0; basis.len()];
                orthogonalize(&mut fresh, &basis, &mut discard);
                if normalize(&mut fresh) == 0.0 {
                    // Basis already spans everything useful; solve what we have.
                    break;
                }
                candidate = fresh;
            } else {
                candidate = w;
            }
        }

        let dim = basis.len();
        let mut proj = DenseMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                proj[(i, j)] = t[(i, j)];
            }
        }
        // Symmetrize against roundoff drift before the dense solve.
        for i in 0..dim {
            for j in (i + 1)..dim {
                let avg = 0.5 * (proj[(i, j)] + proj[(j, i)]);
                proj[(i, j)] = avg;
                proj[(j, i)] = avg;
            }
        }
        let (theta, y) = jacobi_eigen(&proj)?;

        // Residual of Ritz pair i: |beta_last * y[dim-1, i]| where beta_last
        // couples the basis to the candidate vector (the norm removed when the
        // last residual was normalized). If the extension broke off early on
        // an invariant subspace, beta_last is ~0 and the pairs are exact.
        let need = if cfg.converge_k == 0 {
            k
        } else {
            cfg.converge_k.min(k)
        };
        let converged = (0..need)
            .all(|i| beta_last * y[(dim - 1, i)].abs() <= cfg.tol * theta[i].abs().max(1.0));

        if converged || restart + 1 == cfg.max_restarts || dim < m {
            if !converged && dim >= m && !cfg.allow_unconverged {
                return Err(LinalgError::NoConvergence {
                    routine: "lanczos",
                    iterations: matvecs,
                });
            }
            let mut vectors = Vec::with_capacity(k);
            let mut residuals = Vec::with_capacity(k);
            for i in 0..k {
                let mut x = vec![0.0; n];
                for (j, bv) in basis.iter().enumerate() {
                    axpy(y[(j, i)], bv, &mut x);
                }
                normalize(&mut x);
                residuals.push(beta_last * y[(dim - 1, i)].abs());
                vectors.push(x);
            }
            record_solve_metrics(matvecs, matvecs, restart, &residuals);
            return Ok(Eigenpairs {
                eigenvalues: theta[..k].to_vec(),
                eigenvectors: vectors,
                matvecs,
                restarts: restart,
                residuals,
            });
        }

        // Thick restart: keep the l best Ritz vectors plus the residual
        // direction as the new candidate.
        let l = (k + (m - k) / 2).min(m - 2).max(k);
        let mut new_basis: Vec<Vec<f64>> = Vec::with_capacity(m);
        for i in 0..l {
            let mut x = vec![0.0; n];
            for (j, bv) in basis.iter().enumerate() {
                axpy(y[(j, i)], bv, &mut x);
            }
            normalize(&mut x);
            new_basis.push(x);
        }
        basis = new_basis;
        t = DenseMatrix::zeros(m, m);
        for (i, &th) in theta.iter().take(l).enumerate() {
            t[(i, i)] = th;
        }
        // The couplings between the kept Ritz vectors and the candidate
        // (s_i = beta_last * y[dim-1, i]) are recovered exactly by the next
        // extension's orthogonalization dot products, so T needs no seeding
        // beyond its diagonal.
    }

    Err(LinalgError::NoConvergence {
        routine: "lanczos",
        iterations: matvecs,
    })
}

fn dense_fallback<A: LinearOperator + ?Sized>(
    a: &A,
    k: usize,
    n: usize,
) -> Result<Eigenpairs, LinalgError> {
    let _span = bootes_obs::span!("lanczos.dense_fallback");
    let mut dense = DenseMatrix::zeros(n, n);
    let mut e = vec![0.0; n];
    let mut col = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        a.apply(&e, &mut col);
        e[j] = 0.0;
        if !all_finite(&col) {
            return Err(LinalgError::NumericalBreakdown(
                "operator produced non-finite values".to_string(),
            ));
        }
        for i in 0..n {
            dense[(i, j)] = col[i];
        }
    }
    // Symmetrize to absorb roundoff asymmetry from the operator.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (dense[(i, j)] + dense[(j, i)]);
            dense[(i, j)] = avg;
            dense[(j, i)] = avg;
        }
    }
    let (vals, vecs) = jacobi_eigen(&dense)?;
    let mut vectors = Vec::with_capacity(k);
    for i in 0..k {
        vectors.push((0..n).map(|r| vecs[(r, i)]).collect());
    }
    let residuals = vec![0.0; k];
    record_solve_metrics(n, 0, 0, &residuals);
    Ok(Eigenpairs {
        eigenvalues: vals[..k].to_vec(),
        eigenvectors: vectors,
        matvecs: n,
        restarts: 0,
        residuals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::{CooMatrix, CsrMatrix};
    use proptest::prelude::*;

    /// Two-pass Gram-Schmidt with a separate dot and axpy sweep per basis
    /// vector: the bit-for-bit reference of [`orthogonalize`].
    fn orthogonalize_reference(w: &mut [f64], basis: &[Vec<f64>], coeffs: &mut [f64]) {
        for _ in 0..2 {
            for (i, v) in basis.iter().enumerate() {
                let h = dot(v, w);
                axpy(-h, v, w);
                coeffs[i] += h;
            }
        }
    }

    /// Maps a draw to an entry, a few of them exact signed zeros.
    fn entry(u: f64) -> f64 {
        match (u * 1e6) as u64 % 11 {
            0 => -0.0,
            1 => 0.0,
            _ => u,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused sweep is bit-identical to the separate dot and axpy
        /// sweeps, on bases that hold zero vectors and signed zeros.
        #[test]
        fn fused_gram_schmidt_matches_the_reference(
            cols in (1usize..40, 0usize..9).prop_flat_map(|(n, cols)| {
                proptest::collection::vec(proptest::collection::vec(-2.0f64..2.0, n), cols + 1)
            }),
            zero_col in 0usize..12,
        ) {
            let n = cols[0].len();
            let mut vs: Vec<Vec<f64>> = cols
                .into_iter()
                .map(|c| c.into_iter().map(entry).collect())
                .collect();
            let w0 = vs.pop().expect("one extra column for w");
            if let Some(z) = vs.get_mut(zero_col) {
                z.iter_mut().for_each(|v| *v = -0.0);
            }
            let mut coeffs = vec![0.5; vs.len()];
            let mut w = w0.clone();
            orthogonalize(&mut w, &vs, &mut coeffs);
            let mut want_coeffs = vec![0.5; vs.len()];
            let mut want = w0;
            orthogonalize_reference(&mut want, &vs, &mut want_coeffs);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&w), bits(&want), "n {}", n);
            prop_assert_eq!(bits(&coeffs), bits(&want_coeffs));
        }
    }

    #[test]
    fn dot_sums_from_negative_zero() {
        // The fused sweep starts its sum at -0.0 because `dot` does.
        assert_eq!(dot(&[-0.0], &[1.0]).to_bits(), (-0.0f64).to_bits());
        let mut w = vec![-0.0];
        assert_eq!(
            axpy_dot(0.0, &[-0.0], &mut w, &[1.0]).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    fn residual_norm<A: LinearOperator>(a: &A, val: f64, x: &[f64]) -> f64 {
        let mut w = vec![0.0; a.dim()];
        a.apply(x, &mut w);
        axpy(-val, x, &mut w);
        crate::vecops::norm2(&w)
    }

    #[test]
    fn diagonal_smallest() {
        let diag: Vec<f64> = (0..200).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let a = CsrMatrix::from_diagonal(&diag);
        let eig = lanczos_smallest(&a, 4, &LanczosConfig::default()).unwrap();
        for (i, &v) in eig.eigenvalues.iter().enumerate() {
            assert!((v - (1.0 + 0.5 * i as f64)).abs() < 1e-6, "pair {i}: {v}");
            assert!(residual_norm(&a, v, &eig.eigenvectors[i]) < 1e-6);
        }
    }

    #[test]
    fn small_matrix_uses_dense_path_exactly() {
        let a = CsrMatrix::from_diagonal(&[5.0, 1.0, 3.0]);
        let eig = lanczos_smallest(&a, 2, &LanczosConfig::default()).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
        assert_eq!(eig.restarts, 0);
    }

    #[test]
    fn path_laplacian_fiedler() {
        // Unnormalized path-graph Laplacian; eigenvalues 2 - 2cos(pi k / n).
        let n = 150;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            coo.push(i, i, deg).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let l = coo.to_csr();
        let cfg = LanczosConfig {
            tol: 1e-9,
            ..LanczosConfig::default()
        };
        let eig = lanczos_smallest(&l, 3, &cfg).unwrap();
        for (kk, &v) in eig.eigenvalues.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * kk as f64 / n as f64).cos();
            assert!((v - expect).abs() < 1e-7, "k={kk}: {v} vs {expect}");
        }
        // Fiedler vector of a path must be monotone.
        let fiedler = &eig.eigenvectors[1];
        let increasing = fiedler.windows(2).filter(|w| w[1] > w[0]).count();
        let decreasing = fiedler.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(increasing == n - 1 || decreasing == n - 1);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let diag: Vec<f64> = (0..120).map(|i| ((i * 7919) % 97) as f64).collect();
        let a = CsrMatrix::from_diagonal(&diag);
        let eig = lanczos_smallest(&a, 5, &LanczosConfig::default()).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let d = dot(&eig.eigenvectors[i], &eig.eigenvectors[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-6, "gram ({i}, {j}) = {d}");
            }
        }
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // Many repeated eigenvalues force deflation/breakdown handling.
        let mut diag = vec![0.0; 80];
        for (i, d) in diag.iter_mut().enumerate() {
            *d = (i / 20) as f64; // 0,0,...,1,1,...,2,2,...,3,3,...
        }
        let a = CsrMatrix::from_diagonal(&diag);
        let eig = lanczos_smallest(&a, 3, &LanczosConfig::default()).unwrap();
        for &v in &eig.eigenvalues {
            assert!(v.abs() < 1e-6, "expected 0, got {v}");
        }
    }

    #[test]
    fn invalid_arguments_rejected() {
        let a = CsrMatrix::identity(4);
        assert!(lanczos_smallest(&a, 0, &LanczosConfig::default()).is_err());
        assert!(lanczos_smallest(&a, 5, &LanczosConfig::default()).is_err());
    }

    #[test]
    fn eigenpairs_serde_roundtrip_is_exact() {
        let diag: Vec<f64> = (0..64).map(|i| ((i * 17) % 23) as f64 / 3.0).collect();
        let a = CsrMatrix::from_diagonal(&diag);
        let eig = lanczos_smallest(&a, 3, &LanczosConfig::default()).unwrap();
        let v = serde::Serialize::serialize(&eig);
        let back: Eigenpairs = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(eig, back, "Ritz pairs must survive the cache bit-exactly");
    }

    #[test]
    fn deterministic_across_runs() {
        let diag: Vec<f64> = (0..90).map(|i| (i % 13) as f64 + 0.1).collect();
        let a = CsrMatrix::from_diagonal(&diag);
        let cfg = LanczosConfig::default();
        let e1 = lanczos_smallest(&a, 3, &cfg).unwrap();
        let e2 = lanczos_smallest(&a, 3, &cfg).unwrap();
        assert_eq!(e1.eigenvalues, e2.eigenvalues);
    }
}

//! Cyclic Jacobi eigensolver for small dense symmetric matrices.
//!
//! Used for the projected matrices inside the thick-restart Lanczos solver
//! (dimension ≲ 100), where robustness matters far more than asymptotics.

use bootes_sparse::DenseMatrix;

use crate::error::LinalgError;

/// Computes all eigenvalues and eigenvectors of a symmetric matrix by the
/// cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted ascending and
/// `eigenvectors` holding the matching orthonormal eigenvectors as *columns*.
///
/// # Errors
///
/// - [`LinalgError::Dimension`] if `a` is not square.
/// - [`LinalgError::InvalidArgument`] if `a` is not (numerically) symmetric.
/// - [`LinalgError::NoConvergence`] if the off-diagonal mass fails to vanish
///   within the sweep budget (does not occur for finite symmetric input).
///
/// # Example
///
/// ```
/// use bootes_linalg::jacobi::jacobi_eigen;
/// use bootes_sparse::DenseMatrix;
///
/// # fn main() -> Result<(), bootes_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let (vals, _vecs) = jacobi_eigen(&a)?;
/// assert!((vals[0] - 1.0).abs() < 1e-12);
/// assert!((vals[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn jacobi_eigen(a: &DenseMatrix) -> Result<(Vec<f64>, DenseMatrix), LinalgError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(LinalgError::Dimension(format!(
            "jacobi needs a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > 1e-9 * scale {
                return Err(LinalgError::InvalidArgument(format!(
                    "matrix not symmetric at ({i}, {j})"
                )));
            }
            if !a[(i, j)].is_finite() {
                return Err(LinalgError::NumericalBreakdown(format!(
                    "non-finite entry at ({i}, {j})"
                )));
            }
        }
    }

    // `m` is flat and row-major, so rows p and q rotate as two contiguous
    // slices. The eigenvectors are kept transposed (`vt` row i is column i
    // of V), so their rotation is a two-row update too.
    let mut m = a.as_slice().to_vec();
    let mut vt = DenseMatrix::identity(n).as_slice().to_vec();
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        if off.sqrt() <= 1e-14 * scale * n as f64 {
            return Ok(sorted_pairs(&m, &vt, n));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                // Rotation angle from the standard Jacobi formulas.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Columns p and q of m stay a strided pass: after a rotation
                // m's (p, q) and (q, p) entries round differently, so m is
                // not symmetric bit for bit and the columns cannot be read
                // off the rows.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                let (mp, mq) = two_rows(&mut m, n, p, q);
                rotate(mp, mq, c, s);
                // Accumulate the eigenvector rotation.
                let (vp, vq) = two_rows(&mut vt, n, p, q);
                rotate(vp, vq, c, s);
            }
        }
    }
    Err(LinalgError::NoConvergence {
        routine: "jacobi",
        iterations: max_sweeps,
    })
}

/// Rows `p < q` of the flat row-major `n x n` matrix `m`.
fn two_rows(m: &mut [f64], n: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = m.split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// `(x, y) ← (c·x − s·y, s·x + c·y)` element by element.
fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xk, *yk);
        *xk = c * a - s * b;
        *yk = s * a + c * b;
    }
}

/// The diagonal of the flat `m` in ascending order, with the matching rows
/// of the transposed eigenvectors `vt` transposed back into columns.
fn sorted_pairs(m: &[f64], vt: &[f64], n: usize) -> (Vec<f64>, DenseMatrix) {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m[i * n + i]
            .partial_cmp(&m[j * n + j])
            .expect("finite eigenvalues")
    });
    let vals: Vec<f64> = order.iter().map(|&i| m[i * n + i]).collect();
    let mut vecs = DenseMatrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for (r, &v) in vt[old_col * n..(old_col + 1) * n].iter().enumerate() {
            vecs[(r, new_col)] = v;
        }
    }
    (vals, vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Jacobi on `DenseMatrix` indexing with untransposed eigenvectors: the
    /// bit-for-bit reference of [`jacobi_eigen`] (input checks left out).
    fn jacobi_reference(a: &DenseMatrix) -> (Vec<f64>, DenseMatrix) {
        let n = a.nrows();
        let scale = a
            .as_slice()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1.0);
        let mut m = a.clone();
        let mut v = DenseMatrix::identity(n);
        for _ in 0..64 {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= 1e-14 * scale * n as f64 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).unwrap());
        let vals = order.iter().map(|&i| m[(i, i)]).collect();
        let mut vecs = DenseMatrix::zeros(n, n);
        for (new_col, &old_col) in order.iter().enumerate() {
            for r in 0..n {
                vecs[(r, new_col)] = v[(r, old_col)];
            }
        }
        (vals, vecs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Flat Jacobi returns the reference's eigenpairs bit for bit on
        /// random symmetric matrices of order 1..60, some of them with
        /// exact zeros and repeated entries.
        #[test]
        fn flat_jacobi_matches_the_reference(
            upper in (1usize..60).prop_flat_map(|n| {
                proptest::collection::vec(-3.0f64..3.0, n * (n + 1) / 2)
            }),
            sparsity in 0usize..4,
        ) {
            let n = ((((8 * upper.len() + 1) as f64).sqrt() as usize) - 1) / 2;
            let mut a = DenseMatrix::zeros(n, n);
            let mut at = 0;
            for i in 0..n {
                for j in i..n {
                    // Every few entries are zero or a repeated value.
                    let v = match (i + 2 * j) % 5 {
                        0 if sparsity > 0 => 0.0,
                        1 if sparsity > 1 => 0.75,
                        _ => upper[at],
                    };
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                    at += 1;
                }
            }
            let (vals, vecs) = jacobi_eigen(&a).expect("finite symmetric input");
            let (want_vals, want_vecs) = jacobi_reference(&a);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&vals), bits(&want_vals), "order {}", n);
            prop_assert_eq!(bits(vecs.as_slice()), bits(want_vecs.as_slice()));
        }
    }

    fn residual(a: &DenseMatrix, vals: &[f64], vecs: &DenseMatrix) -> f64 {
        // max_i || A v_i - lambda_i v_i ||
        let n = a.nrows();
        let mut worst = 0.0f64;
        for i in 0..n {
            let mut r = vec![0.0; n];
            for row in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[(row, k)] * vecs[(k, i)];
                }
                r[row] = acc - vals[i] * vecs[(row, i)];
            }
            worst = worst.max(crate::vecops::norm2(&r));
        }
        worst
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseMatrix::from_rows(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let (vals, vecs) = jacobi_eigen(&a).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
        assert!(residual(&a, &vals, &vecs) < 1e-10);
    }

    #[test]
    fn known_2x2() {
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let (vals, vecs) = jacobi_eigen(&a).unwrap();
        assert!((vals[0] + 1.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        assert!(residual(&a, &vals, &vecs) < 1e-12);
    }

    #[test]
    fn random_symmetric_has_small_residual_and_orthonormal_vectors() {
        let n = 12;
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            for j in i..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (vals, vecs) = jacobi_eigen(&a).unwrap();
        assert!(residual(&a, &vals, &vecs) < 1e-9);
        // ascending order
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // orthonormal columns
        for i in 0..n {
            for j in 0..n {
                let mut d = 0.0;
                for k in 0..n {
                    d += vecs[(k, i)] * vecs[(k, j)];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "gram ({i}, {j}) = {d}");
            }
        }
    }

    #[test]
    fn rejects_nonsquare_and_asymmetric() {
        assert!(jacobi_eigen(&DenseMatrix::zeros(2, 3)).is_err());
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
        assert!(jacobi_eigen(&a).is_err());
    }

    #[test]
    fn empty_matrix() {
        let a = DenseMatrix::zeros(0, 0);
        let (vals, _) = jacobi_eigen(&a).unwrap();
        assert!(vals.is_empty());
    }
}

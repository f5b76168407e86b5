//! Normalized graph Laplacian construction.
//!
//! Implements `ComputeLaplacian` from Algorithm 4 of the paper:
//! `L = I − D^{-1/2} · S · D^{-1/2}` where `S` is the (symmetric) similarity
//! matrix and `D` its diagonal degree matrix (`D_ii = Σ_j S_ij`). Everything
//! stays in CSR; the degree and inverse-square-root-degree vectors are plain
//! arrays, matching the paper's memory-footprint optimization (§3.1.2).

use bootes_sparse::CsrMatrix;

use crate::error::LinalgError;

/// Builds the symmetric normalized Laplacian of a similarity matrix.
///
/// Rows with zero degree (isolated vertices) contribute only their identity
/// entry `L_ii = 1`, mirroring the `1/√0 → 0` convention used by SciPy.
/// The reorderer applies the same `L` through
/// [`ImplicitNormalizedLaplacian`]; this explicit form, over
/// `similarity_matrix`, is the reference its tests compare against.
///
/// # Errors
///
/// - [`LinalgError::Dimension`] if `similarity` is not square.
/// - [`LinalgError::InvalidArgument`] if a degree is negative (similarities
///   must be non-negative).
///
/// # Example
///
/// ```
/// use bootes_linalg::normalized_laplacian;
/// use bootes_sparse::{CsrMatrix, ops::similarity_matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = CsrMatrix::identity(4);
/// let s = similarity_matrix(&a)?;
/// let l = normalized_laplacian(&s)?;
/// // Each row is its own cluster: L = I - I = 0 off-diagonal, 0 diagonal.
/// assert_eq!(l.get(0, 0), 0.0);
/// # Ok(())
/// # }
/// ```
pub fn normalized_laplacian(similarity: &CsrMatrix) -> Result<CsrMatrix, LinalgError> {
    let n = similarity.nrows();
    if similarity.ncols() != n {
        return Err(LinalgError::Dimension(format!(
            "similarity matrix must be square, got {}x{}",
            similarity.nrows(),
            similarity.ncols()
        )));
    }
    let degrees = similarity.row_sums();
    let mut inv_sqrt = vec![0.0f64; n];
    for (i, &d) in degrees.iter().enumerate() {
        if d < 0.0 {
            return Err(LinalgError::InvalidArgument(format!(
                "negative degree {d} at row {i}; similarities must be non-negative"
            )));
        }
        if d > 0.0 {
            inv_sqrt[i] = 1.0 / d.sqrt();
        }
    }

    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(similarity.nnz() + n);
    let mut values = Vec::with_capacity(similarity.nnz() + n);
    indptr.push(0);
    for i in 0..n {
        let (cols, vals) = similarity.row(i);
        let mut wrote_diag = false;
        for (&j, &s) in cols.iter().zip(vals) {
            let scaled = s * inv_sqrt[i] * inv_sqrt[j];
            if j == i {
                let v = 1.0 - scaled;
                // Keep the diagonal entry even if it is exactly 0 so the
                // pattern of L always contains the identity's structure.
                indices.push(j);
                values.push(v);
                wrote_diag = true;
            } else if j > i && !wrote_diag {
                indices.push(i);
                values.push(1.0);
                wrote_diag = true;
                indices.push(j);
                values.push(-scaled);
            } else {
                indices.push(j);
                values.push(-scaled);
            }
        }
        if !wrote_diag {
            indices.push(i);
            values.push(1.0);
        }
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        n, n, indptr, indices, values,
    ))
}

/// The normalized Laplacian of the row-similarity graph applied *implicitly*:
/// `L x = x − D^{-1/2} · Ā · (Āᵀ · (D^{-1/2} x))` with `Ā` the binary pattern
/// of `A`.
///
/// This avoids materializing the similarity matrix `S = Ā·Āᵀ` entirely: each
/// application costs `O(nnz(A))` instead of `O(nnz(S))`, and memory stays
/// `O(nnz(A) + n)` even when `S` would be dense (high column degrees). It is
/// the operator the Bootes reorderer runs Lanczos on; [`normalized_laplacian`]
/// builds Algorithm 4's `L` explicitly and serves as the tests' reference.
/// Both products are pattern products
/// ([`CsrMatrix::par_pattern_matvec_into`]), which read no values, so the
/// operator borrows `A` for `Ā` and owns only `Aᵀ` (whose values ride along
/// unread), the inverse-square-root degrees and two scratch vectors.
#[derive(Debug, Clone)]
pub struct ImplicitNormalizedLaplacian<'a> {
    /// `A`, read as its pattern `Ā`.
    a: &'a CsrMatrix,
    /// `Aᵀ` in CSR layout, read as the pattern `Āᵀ`.
    at: CsrMatrix,
    /// `1/sqrt(degree)` per row (0 for isolated rows).
    inv_sqrt: Vec<f64>,
    /// Scratch buffers reused across applications.
    scratch_rows: std::cell::RefCell<Vec<f64>>,
    scratch_cols: std::cell::RefCell<Vec<f64>>,
}

impl<'a> ImplicitNormalizedLaplacian<'a> {
    /// Builds the operator for the row-similarity graph of `a`.
    ///
    /// Degrees are computed as `Ā · (Āᵀ · 1)` — the row sums of the
    /// never-materialized similarity matrix — with the same pattern product
    /// every application runs.
    pub fn new(a: &'a CsrMatrix) -> Self {
        let at = a.transpose();
        let threads = bootes_par::threads();
        let rows = vec![1.0; a.nrows()];
        let mut cols = vec![0.0; a.ncols()];
        at.par_pattern_matvec_into(&rows, &mut cols, threads);
        let mut inv_sqrt = vec![0.0; a.nrows()];
        a.par_pattern_matvec_into(&cols, &mut inv_sqrt, threads);
        for d in &mut inv_sqrt {
            *d = if *d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
        }
        // Every application overwrites both vectors in full, so the degree
        // pass's buffers become the scratch.
        ImplicitNormalizedLaplacian {
            a,
            at,
            inv_sqrt,
            scratch_rows: std::cell::RefCell::new(rows),
            scratch_cols: std::cell::RefCell::new(cols),
        }
    }

    /// Approximate heap footprint in bytes of what the operator owns: `Aᵀ`
    /// plus the three vectors (not the borrowed `A`).
    pub fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + (self.inv_sqrt.len() + self.a.ncols() + self.a.nrows()) * std::mem::size_of::<f64>()
    }
}

impl crate::operator::LinearOperator for ImplicitNormalizedLaplacian<'_> {
    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut scaled = self.scratch_rows.borrow_mut();
        let mut cols = self.scratch_cols.borrow_mut();
        for ((s, &xi), &w) in scaled.iter_mut().zip(x).zip(&self.inv_sqrt) {
            *s = xi * w;
        }
        // The Lanczos hot loop: both pattern SpMVs run chunked (bit-identical
        // to serial), which is where the operator's parallelism comes from.
        let threads = bootes_par::threads();
        self.at.par_pattern_matvec_into(&scaled, &mut cols, threads);
        self.a.par_pattern_matvec_into(&cols, &mut scaled, threads);
        for ((yi, &xi), (&s, &w)) in y.iter_mut().zip(x).zip(scaled.iter().zip(&self.inv_sqrt)) {
            *yi = xi - w * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::LinearOperator;
    use bootes_sparse::ops::similarity_matrix;
    use bootes_sparse::CooMatrix;

    fn block_matrix() -> CsrMatrix {
        // Two 3-row blocks with identical column supports inside each block.
        let mut coo = CooMatrix::new(6, 6);
        for r in 0..3 {
            for c in 0..2 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        for r in 3..6 {
            for c in 4..6 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn laplacian_is_symmetric() {
        let s = similarity_matrix(&block_matrix()).unwrap();
        let l = normalized_laplacian(&s).unwrap();
        for i in 0..l.nrows() {
            for j in 0..l.ncols() {
                assert!((l.get(i, j) - l.get(j, i)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn laplacian_rows_of_connected_graph() {
        let s = similarity_matrix(&block_matrix()).unwrap();
        let l = normalized_laplacian(&s).unwrap();
        // Within a block of 3 identical rows: degree = 3*2 = 6,
        // off-diagonal = -2/6 = -1/3, diagonal = 1 - 2/6 = 2/3.
        assert!((l.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((l.get(0, 1) + 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.get(0, 3), 0.0);
    }

    #[test]
    fn zero_eigenvector_property() {
        // L * (D^{1/2} 1) = 0 for each connected component.
        let s = similarity_matrix(&block_matrix()).unwrap();
        let l = normalized_laplacian(&s).unwrap();
        let d = s.row_sums();
        let x: Vec<f64> = d.iter().map(|v| v.sqrt()).collect();
        let y = l.matvec(&x).unwrap();
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn isolated_rows_get_identity() {
        // Matrix with an empty row -> similarity row empty -> L row = [1].
        let a = CsrMatrix::try_new(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![1.0, 1.0]).unwrap();
        let s = similarity_matrix(&a).unwrap();
        let l = normalized_laplacian(&s).unwrap();
        assert_eq!(l.get(1, 1), 1.0);
        assert_eq!(l.row_nnz(1), 1);
    }

    #[test]
    fn eigenvalue_range_zero_to_two() {
        let s = similarity_matrix(&block_matrix()).unwrap();
        let l = normalized_laplacian(&s).unwrap();
        // Gershgorin-style check on the dense spectrum via Jacobi.
        let (vals, _) = crate::jacobi::jacobi_eigen(&l.to_dense()).unwrap();
        for v in vals {
            assert!(v > -1e-12 && v < 2.0 + 1e-12, "eigenvalue {v} out of [0,2]");
        }
    }

    #[test]
    fn rejects_nonsquare() {
        let s = CsrMatrix::zeros(2, 3);
        assert!(normalized_laplacian(&s).is_err());
    }

    #[test]
    fn implicit_matches_materialized() {
        let a = block_matrix();
        let s = similarity_matrix(&a).unwrap();
        let l = normalized_laplacian(&s).unwrap();
        let op = ImplicitNormalizedLaplacian::new(&a);
        assert_eq!(op.dim(), a.nrows());
        let n = a.nrows();
        let mut x = vec![0.0; n];
        for trial in 0..n {
            x.iter_mut().enumerate().for_each(|(i, v)| {
                *v = ((i * 7 + trial * 13) % 11) as f64 - 5.0;
            });
            let dense = l.matvec(&x).unwrap();
            let mut implicit = vec![0.0; n];
            op.apply(&x, &mut implicit);
            for (d, i) in dense.iter().zip(&implicit) {
                assert!((d - i).abs() < 1e-12, "{d} vs {i}");
            }
        }
    }

    #[test]
    fn implicit_matches_on_rectangular_and_empty_rows() {
        let a = CsrMatrix::try_new(
            4,
            7,
            vec![0, 3, 3, 5, 6],
            vec![0, 2, 6, 2, 4, 6],
            vec![2.0, -1.0, 4.0, 1.0, 1.0, 3.0],
        )
        .unwrap();
        let l = normalized_laplacian(&similarity_matrix(&a).unwrap()).unwrap();
        let op = ImplicitNormalizedLaplacian::new(&a);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let dense = l.matvec(&x).unwrap();
        let mut implicit = vec![0.0; 4];
        op.apply(&x, &mut implicit);
        for (d, i) in dense.iter().zip(&implicit) {
            assert!((d - i).abs() < 1e-12);
        }
        // It owns Aᵀ and three vectors (4 rows, 7 columns, 4 rows), no copy
        // of A.
        assert_eq!(
            op.heap_bytes(),
            a.transpose().heap_bytes() + (4 + 7 + 4) * std::mem::size_of::<f64>()
        );
    }

    #[test]
    fn degrees_match_the_binary_matvec_bit_for_bit() {
        // The degrees as `Ā · (Āᵀ · 1)` over explicit 1.0 copies of A.
        let a = CsrMatrix::try_new(
            6,
            5,
            vec![0, 3, 3, 5, 9, 10, 12],
            vec![0, 2, 4, 1, 2, 0, 1, 3, 4, 2, 3, 4],
            vec![
                2.0, -1.0, 4.0, 1.0, 0.5, 3.0, 7.0, -2.0, 1.5, 9.0, 0.25, 6.0,
            ],
        )
        .unwrap();
        let bin = a.to_binary();
        let cols = bin.transpose().matvec(&[1.0; 6]).unwrap();
        let want: Vec<u64> = bin
            .matvec(&cols)
            .unwrap()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }.to_bits())
            .collect();
        let op = ImplicitNormalizedLaplacian::new(&a);
        let got: Vec<u64> = op.inv_sqrt.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rejects_negative_similarity() {
        let s = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![-1.0]).unwrap();
        assert!(normalized_laplacian(&s).is_err());
    }
}

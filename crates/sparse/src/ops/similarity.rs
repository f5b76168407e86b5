//! The binary row-similarity product `S = Ā · Āᵀ`.
//!
//! With `Ā` the 0/1 pattern of `A`, entry `S[i][j]` counts the column
//! coordinates rows `i` and `j` share — exactly the similarity measure
//! Algorithm 4 (lines 11–12) of the paper builds before the Laplacian.
//! The reorderer never forms `S` (it applies the Laplacian implicitly, design
//! D3); this materialized product is the reference the implicit-Laplacian
//! tests compare against, so it is one serial call of the row-wise
//! [`spgemm`]. Its cost is `O(Σ_j d_j²)` where `d_j` is the number of
//! nonzeros in column `j` (Table 2).

use crate::csr::CsrMatrix;
use crate::ops::spgemm::spgemm;

/// Computes the similarity matrix `S = pattern(A) · pattern(A)ᵀ` in CSR form
/// as one serial [`spgemm`] of the binary pattern with its transpose.
///
/// `S` is symmetric, has `nrows x nrows` shape, and its diagonal holds each
/// row's nonzero count. Every product is `1.0 · 1.0` and every entry a count
/// far below 2⁵³, so the sums are exact and the result contains no explicit
/// zeros.
///
/// # Example
///
/// ```
/// use bootes_sparse::{CsrMatrix, ops::similarity_matrix};
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// // rows 0 and 1 share column 1; row 2 shares nothing.
/// let a = CsrMatrix::try_new(
///     3, 3,
///     vec![0, 2, 3, 4],
///     vec![0, 1, 1, 2],
///     vec![9.0, 8.0, 7.0, 6.0],
/// )?;
/// let s = similarity_matrix(&a);
/// assert_eq!(s.get(0, 1), 1.0);
/// assert_eq!(s.get(0, 0), 2.0);
/// assert_eq!(s.get(0, 2), 0.0);
/// # Ok(())
/// # }
/// ```
pub fn similarity_matrix(a: &CsrMatrix) -> CsrMatrix {
    let bin = a.to_binary();
    spgemm(&bin, &bin.transpose()).expect("a matrix conforms with its transpose")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::try_new(
            4,
            5,
            vec![0, 3, 5, 7, 8],
            vec![0, 2, 4, 0, 2, 1, 3, 4],
            vec![5.0, -1.0, 2.0, 3.0, 3.0, 1.0, 1.0, 9.0],
        )
        .unwrap()
    }

    #[test]
    fn diagonal_is_row_nnz() {
        let a = sample();
        let s = similarity_matrix(&a);
        for i in 0..a.nrows() {
            assert_eq!(s.get(i, i), a.row_nnz(i) as f64);
        }
    }

    #[test]
    fn symmetric() {
        let a = sample();
        let s = similarity_matrix(&a);
        for i in 0..s.nrows() {
            for j in 0..s.ncols() {
                assert_eq!(s.get(i, j), s.get(j, i));
            }
        }
    }

    #[test]
    fn values_ignore_magnitudes() {
        // Same pattern with different values must give the same similarity.
        let a = sample();
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= 100.0;
        }
        assert_eq!(similarity_matrix(&a), similarity_matrix(&b));
    }

    #[test]
    fn disjoint_rows_have_zero_similarity() {
        let a = CsrMatrix::try_new(2, 4, vec![0, 2, 4], vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
        let s = similarity_matrix(&a);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.nnz(), 2); // just the diagonal
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::zeros(3, 3);
        let s = similarity_matrix(&a);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.shape(), (3, 3));
    }
}

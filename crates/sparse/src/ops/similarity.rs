//! The binary row-similarity product `S = Ā · Āᵀ`.
//!
//! With `Ā` the 0/1 pattern of `A`, entry `S[i][j]` counts the column
//! coordinates rows `i` and `j` share — exactly the similarity measure
//! Algorithm 4 (lines 11–12) of the paper builds before the Laplacian.
//! The product is computed row-wise against the CSC view of `A` (which *is*
//! `Āᵀ` in CSR layout), costing `O(Σ_j d_j²)` where `d_j` is the number of
//! nonzeros in column `j` (Table 2).

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// Computes the similarity matrix `S = pattern(A) · pattern(A)ᵀ` in CSR form
/// over `threads` workers (pass [`bootes_par::threads`] for the global
/// policy).
///
/// `S` is symmetric, has `nrows x nrows` shape, and its diagonal holds each
/// row's nonzero count. The result contains no explicit zeros. Rows of `S`
/// are independent, so they are computed in contiguous chunks (weighted by
/// each row's column-degree work) and stitched in chunk order —
/// bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`SparseError::Guard`] if a row chunk panics or the `par.worker`
/// failpoint fires.
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
/// let s = similarity_matrix(&a, 1)?;
/// assert_eq!(s.get(0, 1), 1.0);
/// assert_eq!(s.get(0, 0), 2.0);
/// assert_eq!(s.get(0, 2), 0.0);
/// # Ok(())
/// # }
/// ```
pub fn similarity_matrix(a: &CsrMatrix, threads: usize) -> Result<CsrMatrix, SparseError> {
    let a_csc = a.to_csc();
    let _span = bootes_obs::span!("similarity.rows");
    let n = a.nrows();
    let row_work = |i: usize| -> u64 { a.row(i).0.iter().map(|&k| a_csc.col_nnz(k) as u64).sum() };
    let ranges = bootes_par::partition_weighted(n, bootes_par::chunk_count(threads), row_work);
    let chunks = bootes_par::map_ranges("similarity.rows", threads, &ranges, |_, rows| {
        similarity_rows(a, &a_csc, rows)
    })?;

    let nnz: usize = chunks.iter().map(|c| c.1.len()).sum();
    if bootes_obs::enabled() {
        // One integer accumulate per (row-nonzero × column-fiber) pair; the
        // traffic model charges pattern reads (8-byte indices on both sides)
        // and one 16-byte write per output entry.
        let ops: u64 = (0..n).map(row_work).sum();
        bootes_obs::counter_add("kernel.flops{kernel=similarity.rows}", ops);
        bootes_obs::counter_add(
            "kernel.bytes{kernel=similarity.rows}",
            8 * (a.nnz() as u64 + ops) + 16 * nnz as u64,
        );
    }
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices: Vec<usize> = Vec::with_capacity(nnz);
    let mut values: Vec<f64> = Vec::with_capacity(nnz);
    indptr.push(0);
    for (row_lens, chunk_indices, chunk_values) in chunks {
        for len in row_lens {
            indptr.push(indptr.last().expect("nonempty indptr") + len);
        }
        indices.extend_from_slice(&chunk_indices);
        values.extend_from_slice(&chunk_values);
    }
    Ok(CsrMatrix::from_parts_unchecked(
        n, n, indptr, indices, values,
    ))
}

/// Serial similarity kernel over one contiguous row block, accumulating
/// into the calling worker's reusable thread-local `u32` scratch (zeroed
/// once per worker, touched-entries-only reset per row); returns per-row
/// lengths plus the block's concatenated indices and values.
#[allow(clippy::type_complexity)]
fn similarity_rows(
    a: &CsrMatrix,
    a_csc: &CscMatrix,
    rows: std::ops::Range<usize>,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let n = a.nrows();
    crate::scratch::with_dense_u32(n, |acc, touched| {
        let mut row_lens = Vec::with_capacity(rows.len());
        let mut indices: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();

        for i in rows.clone() {
            let row_start = indices.len();
            let (cols, _) = a.row(i);
            for &k in cols {
                // Row i of S accumulates 1 for every row that also has column k.
                let (srows, _) = a_csc.col(k);
                for &j in srows {
                    if acc[j] == 0 {
                        touched.push(j);
                    }
                    acc[j] += 1;
                }
            }
            touched.sort_unstable();
            for &j in touched.iter() {
                indices.push(j);
                values.push(acc[j] as f64);
                acc[j] = 0;
            }
            touched.clear();
            row_lens.push(indices.len() - row_start);
        }
        (row_lens, indices, values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::spgemm::spgemm;

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
    fn matches_explicit_binary_spgemm() {
        let a = sample();
        let s = similarity_matrix(&a, 1).unwrap();
        let bin = a.to_binary();
        let reference = spgemm(&bin, &bin.transpose(), 1).unwrap();
        assert_eq!(s, reference);
    }

    #[test]
    fn diagonal_is_row_nnz() {
        let a = sample();
        let s = similarity_matrix(&a, 1).unwrap();
        for i in 0..a.nrows() {
            assert_eq!(s.get(i, i), a.row_nnz(i) as f64);
        }
    }

    #[test]
    fn symmetric() {
        let a = sample();
        let s = similarity_matrix(&a, 1).unwrap();
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
        assert_eq!(
            similarity_matrix(&a, 1).unwrap(),
            similarity_matrix(&b, 1).unwrap()
        );
    }

    #[test]
    fn disjoint_rows_have_zero_similarity() {
        let a = CsrMatrix::try_new(2, 4, vec![0, 2, 4], vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
        let s = similarity_matrix(&a, 1).unwrap();
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.nnz(), 2); // just the diagonal
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::zeros(3, 3);
        let s = similarity_matrix(&a, 1).unwrap();
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.shape(), (3, 3));
    }

    #[test]
    fn threads_match_serial_exactly() {
        let a = sample();
        let serial = similarity_matrix(&a, 1).unwrap();
        for threads in [2usize, 3, 7, 64] {
            assert_eq!(similarity_matrix(&a, threads).unwrap(), serial);
        }
    }
}

//! Sparse general matrix-matrix multiplication.
//!
//! The kernel is the **row-wise product** (Gustavson's algorithm), the
//! dataflow the paper identifies as the favorable one for sparse accelerators:
//! `C[i,:] = Σ_{k ∈ cols(A_i)} A[i,k] · B[k,:]`. Bootes runs the product on
//! the simulated accelerators (`bootes-accel` counts nnz(C) symbolically), so
//! [`spgemm`] is a serial host reference: the [`dataflow_costs`] analysis of
//! Table 1 and the materialized similarity matrix build on it.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

fn check_dims(a: &CsrMatrix, b: &CsrMatrix) -> Result<(), SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(())
}

/// Row-wise (Gustavson) SpGEMM `a * b` with a dense accumulator.
///
/// Each output column sums its products in k-iteration encounter order
/// from `0.0`, the columns of a row are gathered sorted, and entries that
/// cancel to exactly `0.0` are dropped.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use bootes_sparse::{CsrMatrix, ops::spgemm};
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// let a = CsrMatrix::identity(2);
/// let c = spgemm(&a, &a)?;
/// assert_eq!(c, CsrMatrix::identity(2));
/// # Ok(())
/// # }
/// ```
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    check_dims(a, b)?;
    let mut acc = vec![0.0f64; b.ncols()];
    let mut touched = Vec::new();
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    for i in 0..a.nrows() {
        let (acols, avals) = a.row(i);
        for (&k, &aik) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k);
            for (&j, &bkj) in bcols.iter().zip(bvals) {
                // A zero accumulator marks "untouched"; a partial sum that
                // cancels back to 0.0 re-pushes j, deduplicated below.
                if acc[j] == 0.0 {
                    touched.push(j);
                }
                acc[j] += aik * bkj;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &j in &touched {
            let v = acc[j];
            if v != 0.0 {
                indices.push(j);
                values.push(v);
            }
            acc[j] = 0.0;
        }
        touched.clear();
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        indptr,
        indices,
        values,
    ))
}

/// Number of scalar multiply-accumulate operations a row-wise SpGEMM
/// `a * b` performs (`Σ_i Σ_{k ∈ cols(A_i)} nnz(B_k)`).
pub fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> Result<u64, SparseError> {
    check_dims(a, b)?;
    let mut flops = 0u64;
    for i in 0..a.nrows() {
        for &k in a.row(i).0 {
            flops += b.row_nnz(k) as u64;
        }
    }
    Ok(flops)
}

/// Analytic cost profile of one SpGEMM dataflow (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataflowCost {
    /// Scalar multiplications performed.
    pub multiplies: u64,
    /// Elements of `B` fetched (with no cache, i.e. upper bound on traffic).
    pub b_fetches: u64,
    /// Partial-sum values produced that must be buffered or merged before
    /// becoming final outputs.
    pub partial_outputs: u64,
    /// Index-intersection comparisons (nonzero only for the inner product).
    pub index_intersections: u64,
}

/// Computes the Table-1 cost profile of the inner-product, outer-product and
/// row-wise dataflows for `a * b`, in that order.
///
/// The model follows §2.1 of the paper:
/// - **inner**: every `(i, j)` output position intersects row `A_i` with
///   column `B_:,j`; `B` columns are re-fetched for every row of `A`.
/// - **outer**: column `k` of `A` pairs with row `k` of `B`; inputs are read
///   once, but `Σ_k nnz(A_:,k)·nnz(B_k)` partial outputs must be merged.
/// - **row-wise**: each nonzero `A[i,k]` fetches row `B_k`; partial sums stay
///   within one output row.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
pub fn dataflow_costs(a: &CsrMatrix, b: &CsrMatrix) -> Result<[DataflowCost; 3], SparseError> {
    check_dims(a, b)?;
    let a_csc = a.to_csc();
    let b_csc = b.to_csc();
    let flops = spgemm_flops(a, b)?;
    let c = spgemm(a, b)?;

    // Inner product: for all M*N (i, j) pairs, merge-intersect indices.
    let mut inner_intersections = 0u64;
    let mut inner_b_fetches = 0u64;
    for i in 0..a.nrows() {
        let na = a.row_nnz(i) as u64;
        for j in 0..b.ncols() {
            let nb = b_csc.col_nnz(j) as u64;
            inner_intersections += na + nb; // merge-style intersection cost
            inner_b_fetches += nb;
        }
    }
    let inner = DataflowCost {
        multiplies: flops,
        b_fetches: inner_b_fetches,
        partial_outputs: c.nnz() as u64,
        index_intersections: inner_intersections,
    };

    // Outer product: inputs streamed once; all cross products become psums.
    let mut outer_psums = 0u64;
    for k in 0..a.ncols() {
        outer_psums += a_csc.col_nnz(k) as u64 * b.row_nnz(k) as u64;
    }
    let outer = DataflowCost {
        multiplies: flops,
        b_fetches: b.nnz() as u64,
        partial_outputs: outer_psums,
        index_intersections: 0,
    };

    // Row-wise: B rows fetched per nonzero of A; psums bounded per output row.
    let mut row_b_fetches = 0u64;
    for i in 0..a.nrows() {
        for &k in a.row(i).0 {
            row_b_fetches += b.row_nnz(k) as u64;
        }
    }
    let row_wise = DataflowCost {
        multiplies: flops,
        b_fetches: row_b_fetches,
        partial_outputs: c.nnz() as u64,
        index_intersections: 0,
    };

    Ok([inner, outer, row_wise])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn random_like(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
        // Small deterministic pseudo-random matrix without pulling in `rand`.
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for r in 0..nrows {
            for c in 0..ncols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 61 == 0 {
                    // ~1/8 density
                    let v = ((state >> 33) % 7) as f64 - 3.0;
                    if v != 0.0 {
                        coo.push(r, c, v).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn identity_times_identity() {
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm(&i, &i).unwrap(), i);
    }

    #[test]
    fn matches_dense_reference() {
        for seed in 0..8 {
            let a = random_like(13, 17, seed);
            let b = random_like(17, 11, seed + 100);
            let c = spgemm(&a, &b).unwrap();
            let c_ref = a.to_dense().matmul(&b.to_dense()).unwrap();
            assert!(c.to_dense().max_abs_diff(&c_ref) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn zero_and_tall_shapes_match_dense() {
        // An all-zero operand, and a tall matrix with interior empty rows.
        let zero = CsrMatrix::zeros(6, 5);
        let tall = CsrMatrix::try_new(
            5,
            4,
            vec![0, 2, 2, 3, 3, 4],
            vec![0, 3, 1, 2],
            vec![1.0, -2.0, 4.0, 0.5],
        )
        .unwrap();
        let pairs = [
            (&zero, CsrMatrix::zeros(5, 3)),
            (&tall, CsrMatrix::zeros(4, 7)),
            (&tall, tall.transpose()),
        ];
        for (a, b) in pairs {
            let c = spgemm(a, &b).unwrap();
            let want = a.to_dense().matmul(&b.to_dense()).unwrap();
            assert_eq!(c.to_dense(), want);
            let nonzeros = want.as_slice().iter().filter(|&&v| v != 0.0).count();
            assert_eq!(c.nnz(), nonzeros, "no explicit zeros stored");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(spgemm(&a, &b).is_err());
        assert!(spgemm_flops(&a, &b).is_err());
        assert!(dataflow_costs(&a, &b).is_err());
    }

    #[test]
    fn cancellation_drops_entries() {
        // a = [1 1], b = [[1], [-1]]  =>  c = [0] (dropped).
        let a = CsrMatrix::try_new(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let b = CsrMatrix::try_new(2, 1, vec![0, 1, 2], vec![0, 0], vec![1.0, -1.0]).unwrap();
        assert_eq!(spgemm(&a, &b).unwrap().nnz(), 0);
    }

    #[test]
    fn empty_operands() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(4, 2);
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn flops_counts_fiber_products() {
        let a = random_like(9, 9, 3);
        let flops = spgemm_flops(&a, &a).unwrap();
        let mut expected = 0u64;
        for i in 0..9 {
            for &k in a.row(i).0 {
                expected += a.row_nnz(k) as u64;
            }
        }
        assert_eq!(flops, expected);
    }

    #[test]
    fn table1_tradeoffs_hold() {
        // On a sparse matrix the row-wise dataflow should fetch (weakly) less
        // of B than inner product and create fewer partial outputs than outer.
        let a = random_like(30, 30, 5);
        let [inner, outer, row] = dataflow_costs(&a, &a).unwrap();
        assert_eq!(inner.multiplies, row.multiplies);
        assert!(inner.b_fetches >= row.b_fetches);
        assert!(outer.partial_outputs >= row.partial_outputs);
        assert!(inner.index_intersections > 0);
        assert_eq!(row.index_intersections, 0);
        assert_eq!(outer.index_intersections, 0);
        assert!(outer.b_fetches <= row.b_fetches);
    }
}

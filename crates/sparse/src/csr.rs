//! Compressed sparse row matrices.

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// A sparse matrix in Compressed Sparse Row format.
///
/// This is the canonical format used throughout the Bootes pipeline: the input
/// matrix `A`, the binary similarity matrix `A·Aᵀ`, and the normalized
/// Laplacian are all held in CSR (paper §3.1.2 calls this out as the key
/// memory-footprint optimization).
///
/// # Invariants
///
/// - `indptr.len() == nrows + 1`, `indptr[0] == 0`,
///   `indptr[nrows] == indices.len() == values.len()`,
/// - `indptr` is non-decreasing,
/// - within each row, column indices are strictly increasing and `< ncols`.
///
/// Constructors validate these invariants ([`CsrMatrix::try_new`]) or are
/// restricted to crate-internal callers that uphold them by construction.
///
/// # Example
///
/// ```
/// use bootes_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// let a = CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.row(0), (&[0usize, 2][..], &[1.0, 2.0][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the arrays violate any
    /// CSR invariant (see type-level docs).
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidStructure(
                "indptr[0] must be 0".to_string(),
            ));
        }
        if *indptr.last().expect("indptr nonempty") != indices.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indptr[last] = {} != indices.len() = {}",
                indptr.last().unwrap(),
                indices.len()
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices.len() = {} != values.len() = {}",
                indices.len(),
                values.len()
            )));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidStructure(
                    "indptr must be non-decreasing".to_string(),
                ));
            }
        }
        for r in 0..nrows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for (i, &c) in row.iter().enumerate() {
                if c >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "column index {c} >= ncols {ncols} in row {r}"
                    )));
                }
                if i > 0 && row[i - 1] >= c {
                    return Err(SparseError::InvalidStructure(format!(
                        "column indices not strictly increasing in row {r}"
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from arrays known to satisfy the invariants.
    ///
    /// Only for callers (in this workspace) that construct the arrays in
    /// sorted, validated form; the invariants are checked with
    /// `debug_assert!` in debug builds.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), values.len());
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        debug_assert!(indices.iter().all(|&c| c < ncols));
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Creates an empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an `n x n` diagonal matrix from the given diagonal values.
    /// Exact zeros on the diagonal are stored (callers may rely on the
    /// pattern), keeping the structure predictable.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array (the pattern stays fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// The value at `(i, j)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Returns a copy with every stored value replaced by `1.0`.
    ///
    /// This is Algorithm 4 line 11 of the paper (`A.data ← 1`): the binary
    /// pattern whose product with its transpose counts shared column
    /// coordinates.
    pub fn to_binary(&self) -> CsrMatrix {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: vec![1.0; self.indices.len()],
        }
    }

    /// Converts to compressed sparse column format.
    pub fn to_csc(&self) -> CscMatrix {
        let (indptr, indices, values) = crate::ops::transpose::transpose_raw(
            self.nrows,
            self.ncols,
            &self.indptr,
            &self.indices,
            &self.values,
        );
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, indptr, indices, values)
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let (indptr, indices, values) = crate::ops::transpose::transpose_raw(
            self.nrows,
            self.ncols,
            &self.indptr,
            &self.indices,
            &self.values,
        );
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Converts to a dense matrix (for tests and small reference computations).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Computes `y = self * x` for a dense vector `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                left: (self.nrows, self.ncols),
                right: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// Computes `y = self * x` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec input length");
        assert_eq!(y.len(), self.nrows, "matvec output length");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[idx] * x[self.indices[idx]];
            }
            *yr = acc;
        }
    }

    /// `y[r] = Σ x[j]` over the columns `j` of row `r`, ignoring the stored
    /// values: the product of the matrix's binary pattern with `x`, over an
    /// explicit number of worker threads.
    ///
    /// Each row sums in column-index order from `0.0`, so on a matrix whose
    /// values are all `1.0` (a [`Self::to_binary`] pattern) this equals
    /// [`Self::matvec_into`] bit for bit (`1.0 · v == v`), without loading a
    /// value or multiplying. Four rows advance side by side over their
    /// common length, then each finishes its own tail, so four independent
    /// add chains overlap. `y` is split into nnz-weighted contiguous row
    /// chunks (oversubscribed past the worker count so the pool can
    /// load-balance dynamically) in the `spmv` region; at 1 thread or below
    /// 2^14 nonzeros the rows run serially. Every thread count gives the
    /// same bits.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`, and re-raises a
    /// worker's [`bootes_guard::GuardError`] (a panicking chunk or the
    /// `par.worker` failpoint) as a panic: the `LinearOperator::apply` this
    /// backs has no error channel, so the fallback chain catches it at its
    /// rung boundary.
    pub fn par_pattern_matvec_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.ncols, "matvec input length");
        assert_eq!(y.len(), self.nrows, "matvec output length");
        if bootes_obs::enabled() {
            // One add per nonzero; traffic reads the column index and the
            // gathered x element per nonzero and writes y once.
            let nnz = self.nnz() as u64;
            bootes_obs::counter_add("kernel.flops{kernel=spmv}", nnz);
            bootes_obs::counter_add(
                "kernel.bytes{kernel=spmv}",
                16 * nnz + 8 * self.nrows as u64,
            );
        }
        let small = threads <= 1 || self.nnz() < 1 << 14;
        if small && !bootes_obs::enabled() {
            return self.pattern_rows(0, x, y);
        }
        // While profiling, even the serial fallback routes through the
        // attributed combinator so the `spmv` region accrues wall time.
        let workers = if small { 1 } else { threads };
        let parts = if small {
            1
        } else {
            bootes_par::chunk_count(threads)
        };
        let ranges = bootes_par::partition_weighted(self.nrows, parts, |r| {
            (self.indptr[r + 1] - self.indptr[r]) as u64
        });
        let res = bootes_par::for_each_chunk_mut("spmv", workers, y, &ranges, |_, range, chunk| {
            self.pattern_rows(range.start, x, chunk)
        });
        if let Err(e) = res {
            panic!("{e}");
        }
    }

    /// The pattern sums of rows `start..start + out.len()`, four rows at a
    /// time: their common prefix in lockstep, then each row's tail.
    fn pattern_rows(&self, start: usize, x: &[f64], out: &mut [f64]) {
        let cols = |r: usize| &self.indices[self.indptr[r]..self.indptr[r + 1]];
        let tail = |mut acc: f64, js: &[usize]| {
            for &j in js {
                acc += x[j];
            }
            acc
        };
        let mut quads = out.chunks_exact_mut(4);
        let mut r = start;
        for quad in &mut quads {
            let (c0, c1, c2, c3) = (cols(r), cols(r + 1), cols(r + 2), cols(r + 3));
            let common = c0.len().min(c1.len()).min(c2.len()).min(c3.len());
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (((&j0, &j1), &j2), &j3) in c0[..common]
                .iter()
                .zip(&c1[..common])
                .zip(&c2[..common])
                .zip(&c3[..common])
            {
                a0 += x[j0];
                a1 += x[j1];
                a2 += x[j2];
                a3 += x[j3];
            }
            quad[0] = tail(a0, &c0[common..]);
            quad[1] = tail(a1, &c1[common..]);
            quad[2] = tail(a2, &c2[common..]);
            quad[3] = tail(a3, &c3[common..]);
            r += 4;
        }
        for yr in quads.into_remainder() {
            *yr = tail(0.0, cols(r));
            r += 1;
        }
    }

    /// Per-row sums (the degree array of a similarity matrix, Alg. 4 line 4).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).1.iter().sum())
            .collect()
    }

    /// Approximate heap footprint of this matrix in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Decomposes the matrix into `(indptr, indices, values)` without copying.
    pub fn into_raw(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.indptr, self.indices, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn accessors() {
        let a = sample();
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.row_nnz(1), 1);
    }

    #[test]
    fn try_new_rejects_bad_indptr_length() {
        let e = CsrMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn try_new_rejects_decreasing_indptr() {
        let e = CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn try_new_rejects_unsorted_columns() {
        let e = CsrMatrix::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn try_new_rejects_duplicate_columns() {
        let e = CsrMatrix::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn try_new_rejects_out_of_range_column() {
        let e = CsrMatrix::try_new(1, 2, vec![0, 1], vec![2], vec![1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn try_new_rejects_mismatched_values() {
        let e = CsrMatrix::try_new(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn identity_and_diagonal() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let d = CsrMatrix::from_diagonal(&[2.0, 0.0, 5.0]);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(d.get(2, 2), 5.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_values() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        assert_eq!(t.get(0, 1), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let y = a.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        let a = sample();
        assert!(a.matvec(&[1.0]).is_err());
    }

    /// Strategy: a matrix with any row count (so four-row groups leave
    /// every remainder) whose rows keep each column at their own rate, from
    /// empty rows to full ones in one matrix, with arbitrary stored values;
    /// paired with an `x` that holds signed zeros among its entries.
    fn ragged_with_x(
        max_rows: usize,
        max_cols: usize,
    ) -> impl proptest::Strategy<Value = (CsrMatrix, Vec<f64>)> {
        use proptest::prelude::*;
        (1..max_rows, 1..max_cols).prop_flat_map(|(nrows, ncols)| {
            let rows = proptest::collection::vec((0.0f64..1.0, 0..u64::MAX), nrows).prop_map(
                move |rows| {
                    let mut indptr = vec![0];
                    let (mut indices, mut values) = (Vec::new(), Vec::new());
                    for (keep, mut state) in rows {
                        for c in 0..ncols {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            // Squaring the rate makes near-empty rows common too.
                            if ((state >> 11) as f64 / (1u64 << 53) as f64) < keep * keep {
                                indices.push(c);
                                values.push(c as f64 - 3.5);
                            }
                        }
                        indptr.push(indices.len());
                    }
                    CsrMatrix::try_new(nrows, ncols, indptr, indices, values).unwrap()
                },
            );
            let x = proptest::collection::vec(-1e3f64..1e3, ncols).prop_map(|mut x| {
                for (j, v) in x.iter_mut().enumerate() {
                    match j % 7 {
                        3 => *v = -0.0,
                        5 => *v = 0.0,
                        _ => {}
                    }
                }
                x
            });
            (rows, x)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The pattern product equals `matvec_into` on the binary pattern
        /// bit for bit, and ignores the stored values.
        #[test]
        fn pattern_matvec_equals_the_binary_matvec((a, x) in ragged_with_x(23, 40)) {
            let bin = a.to_binary();
            let mut want = vec![f64::NAN; a.nrows()];
            bin.matvec_into(&x, &mut want);
            for m in [&a, &bin] {
                let mut got = vec![f64::NAN; a.nrows()];
                m.par_pattern_matvec_into(&x, &mut got, 1);
                for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                    proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "row {}", r);
                }
            }
        }
    }

    #[test]
    fn pattern_matvec_handles_empty_and_uneven_rows() {
        // Rows of lengths 0, 3, 1, 0 | 2 and one trailing empty row.
        let a = CsrMatrix::try_new(
            6,
            4,
            vec![0, 0, 3, 4, 4, 6, 6],
            vec![0, 1, 3, 2, 0, 3],
            vec![9.0; 6],
        )
        .unwrap();
        let mut y = vec![f64::NAN; 6];
        a.par_pattern_matvec_into(&[1.0, 2.0, 4.0, 8.0], &mut y, 1);
        assert_eq!(y, vec![0.0, 11.0, 4.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn binary_pattern() {
        let a = sample();
        let b = a.to_binary();
        assert_eq!(b.values(), &[1.0, 1.0, 1.0]);
        assert_eq!(b.indices(), a.indices());
    }

    #[test]
    fn row_sums_work() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![3.0, 3.0]);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.shape(), (4, 5));
        assert_eq!(z.get(3, 4), 0.0);
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let a = sample();
        let t: Vec<_> = a.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(sample().heap_bytes() > 0);
    }
}

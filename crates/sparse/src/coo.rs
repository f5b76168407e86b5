//! Coordinate-format matrix builder.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A sparse matrix in coordinate (triplet) format.
///
/// `CooMatrix` is the mutable builder format: entries may be pushed in any
/// order and duplicates are allowed (they are summed during conversion to
/// [`CsrMatrix`]). All generators and the Matrix Market reader produce `COO`
/// first and convert once construction is complete.
///
/// # Example
///
/// ```
/// use bootes_sparse::CooMatrix;
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0)?;
/// coo.push(0, 1, 2.0)?; // duplicate: summed on conversion
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Takes ownership of parallel triplet vectors, checking every index.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the vectors differ in
    /// length and [`SparseError::IndexOutOfBounds`] for the first triplet
    /// outside the matrix shape.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::InvalidStructure(format!(
                "triplet vectors differ in length: {} rows, {} cols, {} vals",
                rows.len(),
                cols.len(),
                vals.len()
            )));
        }
        if let Some((&r, &c)) = rows
            .iter()
            .zip(&cols)
            .find(|(&r, &c)| r >= nrows || c >= ncols)
        {
            return Err(SparseError::IndexOutOfBounds {
                index: (r, c),
                shape: (nrows, ncols),
            });
        }
        Ok(CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries, counting duplicates separately.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends an entry.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `(row, col)` lies outside
    /// the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicate entries and dropping exact zeros
    /// that result from cancellation. Explicitly stored zeros pushed by the
    /// caller are preserved only if they do not cancel (a summed value of
    /// exactly `0.0` is dropped).
    ///
    /// Triplets strictly sorted by row, then column — the order CSR-derived
    /// payloads and the Matrix Market writer produce — convert in one pass;
    /// any other order takes a counting sort.
    pub fn to_csr(&self) -> CsrMatrix {
        self.sorted_to_csr().unwrap_or_else(|| self.sort_to_csr())
    }

    /// One pass over triplets strictly sorted by `(row, col)`, or `None` at
    /// the first one out of that order. Sorted triplets hold no duplicates,
    /// so each value is its own sum.
    fn sorted_to_csr(&self) -> Option<CsrMatrix> {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        let mut prev = None;
        for (r, c, v) in self.iter() {
            if prev >= Some((r, c)) {
                return None;
            }
            prev = Some((r, c));
            // Close every row before `r`.
            indptr.resize(r + 1, indices.len());
            if v != 0.0 {
                indices.push(c);
                values.push(v);
            }
        }
        indptr.resize(self.nrows + 1, indices.len());
        Some(CsrMatrix::from_parts_unchecked(
            self.nrows, self.ncols, indptr, indices, values,
        ))
    }

    fn sort_to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then per-row sort by column and merge dups.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<usize> = vec![0; self.nnz()];
        let mut next = counts.clone();
        for (idx, &r) in self.rows.iter().enumerate() {
            order[next[r]] = idx;
            next[r] += 1;
        }

        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for &idx in &order[counts[r]..counts[r + 1]] {
                scratch.push((self.cols[idx], self.vals[idx]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == col {
                    sum += scratch[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(col);
                    values.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, indptr, indices, values)
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    /// Extends with triplets.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds; use [`CooMatrix::push`] for
    /// fallible insertion.
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("triplet out of bounds in extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_convert_sorts_rows_and_columns() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(2, 3, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(2, 0, 3.0).unwrap();
        coo.push(0, 0, 4.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row(0), (&[0usize, 1][..], &[4.0, 2.0][..]));
        assert_eq!(csr.row(1), (&[][..], &[][..]));
        assert_eq!(csr.row(2), (&[0usize, 3][..], &[3.0, 1.0][..]));
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 1.5).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), 4.0);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, -1.0).unwrap();
        assert_eq!(coo.to_csr().nnz(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(0, 0);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 0);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn extend_collects_triplets() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn from_triplets_checks_lengths_and_bounds() {
        let coo = CooMatrix::from_triplets(2, 3, vec![1, 0], vec![2, 0], vec![5.0, 6.0]).unwrap();
        assert_eq!(coo.to_csr().get(1, 2), 5.0);
        assert!(matches!(
            CooMatrix::from_triplets(2, 3, vec![0], vec![0, 1], vec![1.0]),
            Err(SparseError::InvalidStructure(_))
        ));
        assert!(matches!(
            CooMatrix::from_triplets(2, 3, vec![0, 1], vec![0, 3], vec![1.0, 1.0]),
            Err(SparseError::IndexOutOfBounds {
                index: (1, 3),
                shape: (2, 3)
            })
        ));
    }

    use proptest::prelude::*;

    /// A shape plus triplets in random order with repeats; values are
    /// multiples of 0.5 in [-1.5, 1.5], zero included, so every sum is exact
    /// in any order and cancellations occur.
    fn triplets() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
        (1usize..9, 1usize..9).prop_flat_map(|(r, c)| {
            proptest::collection::vec((0..r, 0..c, 0u32..7), 0..3 * r * c).prop_map(move |t| {
                let t = t
                    .into_iter()
                    .map(|(i, j, v)| (i, j, (f64::from(v) - 3.0) * 0.5))
                    .collect();
                (r, c, t)
            })
        })
    }

    proptest! {
        /// Unsorted, sorted-with-duplicates and strictly sorted triplets all
        /// convert to exactly the nonzero sums of a dense reference, and the
        /// one-pass path equals the counting sort wherever it applies.
        #[test]
        fn to_csr_matches_a_dense_reference((r, c, unsorted) in triplets()) {
            let mut sorted = unsorted.clone();
            sorted.sort_by_key(|&(i, j, _)| (i, j));
            let mut strict = sorted.clone();
            strict.dedup_by_key(|&mut (i, j, _)| (i, j));
            for (case, trips) in [("unsorted", unsorted), ("sorted", sorted), ("strict", strict)] {
                let mut dense = vec![0.0; r * c];
                let mut coo = CooMatrix::new(r, c);
                for &(i, j, v) in &trips {
                    dense[i * c + j] += v;
                    coo.push(i, j, v).unwrap();
                }
                let csr = coo.to_csr();
                let stored: Vec<(usize, usize, f64)> = (0..r)
                    .flat_map(|i| {
                        let (cols, vals) = csr.row(i);
                        cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
                    })
                    .collect();
                let want: Vec<(usize, usize, f64)> = (0..r * c)
                    .filter(|&k| dense[k] != 0.0)
                    .map(|k| (k / c, k % c, dense[k]))
                    .collect();
                prop_assert_eq!(&stored, &want, "{} triplets", case);
                let fast = coo.sorted_to_csr();
                prop_assert!(case != "strict" || fast.is_some(), "strictly sorted input took the sort");
                if let Some(fast) = fast {
                    let slow = coo.sort_to_csr();
                    prop_assert_eq!(fast.indptr(), slow.indptr());
                    prop_assert_eq!(fast.indices(), slow.indices());
                    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&fast), bits(&slow));
                }
            }
        }
    }

    #[test]
    fn iter_returns_insertion_order() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 9.0).unwrap();
        coo.push(0, 1, 8.0).unwrap();
        let got: Vec<_> = coo.iter().collect();
        assert_eq!(got, vec![(1, 0, 9.0), (0, 1, 8.0)]);
    }
}

//! Sparsity-pattern statistics.
//!
//! These are the raw measurements behind the feature vector of the paper's
//! decision tree (§3.2): global sparsity, per-row and per-column nonzero
//! variance, and row-intersection statistics.

use crate::csr::CsrMatrix;

/// Per-row nonzero counts.
pub fn row_nnz_counts(a: &CsrMatrix) -> Vec<usize> {
    (0..a.nrows()).map(|r| a.row_nnz(r)).collect()
}

/// Per-column nonzero counts (computed in one pass; no CSC needed).
pub fn col_nnz_counts(a: &CsrMatrix) -> Vec<usize> {
    let mut counts = vec![0usize; a.ncols()];
    for &c in a.indices() {
        counts[c] += 1;
    }
    counts
}

/// Fraction of stored entries: `nnz / (nrows * ncols)`. Zero for empty shapes.
pub fn density(a: &CsrMatrix) -> f64 {
    let cells = a.nrows() as f64 * a.ncols() as f64;
    if cells == 0.0 {
        0.0
    } else {
        a.nnz() as f64 / cells
    }
}

/// Mean of a slice of counts. Zero for an empty slice.
pub fn mean(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<usize>() as f64 / xs.len() as f64
    }
}

/// Population variance of a slice of counts. Zero for an empty slice.
pub fn variance(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Number of shared column coordinates between rows `i` and `j`
/// (merge-based intersection of the two sorted index slices).
///
/// # Panics
///
/// Panics if `i` or `j` is out of range.
pub fn row_intersection(a: &CsrMatrix, i: usize, j: usize) -> usize {
    let (ci, _) = a.row(i);
    let (cj, _) = a.row(j);
    let mut p = 0;
    let mut q = 0;
    let mut count = 0;
    while p < ci.len() && q < cj.len() {
        match ci[p].cmp(&cj[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                p += 1;
                q += 1;
            }
        }
    }
    count
}

/// Jaccard similarity of the column supports of rows `i` and `j`:
/// `|cols(i) ∩ cols(j)| / |cols(i) ∪ cols(j)|`. Returns `0.0` when both rows
/// are empty. This is the similarity score used by the Hier baseline (§2.2.3).
///
/// # Panics
///
/// Panics if `i` or `j` is out of range.
pub fn jaccard(a: &CsrMatrix, i: usize, j: usize) -> f64 {
    let inter = row_intersection(a, i, j);
    let union = a.row_nnz(i) + a.row_nnz(j) - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Average and variance of the intersection size between *adjacent* rows
/// `(i, i+1)` — the structural-overlap "fingerprint" features of §3.2.
/// Returns `(0.0, 0.0)` for matrices with fewer than two rows.
///
/// One pass over the nonzeros: each row counts the columns stamped by the
/// row before it, then stamps its own (a row's columns are distinct, so
/// probing and stamping a column in one step cannot see its own stamp).
pub fn adjacent_intersection_stats(a: &CsrMatrix) -> (f64, f64) {
    if a.nrows() < 2 {
        return (0.0, 0.0);
    }
    // stamp[c] = 1 + the last row seen holding column c; 0 = none yet.
    let mut stamp = vec![0usize; a.ncols()];
    let mut counts = Vec::with_capacity(a.nrows() - 1);
    for r in 0..a.nrows() {
        let mut shared = 0;
        for &c in a.row(r).0 {
            shared += usize::from(stamp[c] == r);
            stamp[c] = r + 1;
        }
        if r > 0 {
            counts.push(shared);
        }
    }
    (mean(&counts), variance(&counts))
}

/// Pattern bandwidth: the maximum of `|i - j|` over stored entries. Zero for
/// empty matrices.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for (r, c, _) in a.iter() {
        bw = bw.max(r.abs_diff(c));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [1 1 0 0]
        // [0 1 1 0]
        // [0 0 0 1]
        CsrMatrix::try_new(3, 4, vec![0, 2, 4, 5], vec![0, 1, 1, 2, 3], vec![1.0; 5]).unwrap()
    }

    #[test]
    fn counts() {
        let a = sample();
        assert_eq!(row_nnz_counts(&a), vec![2, 2, 1]);
        assert_eq!(col_nnz_counts(&a), vec![1, 2, 1, 1]);
    }

    #[test]
    fn density_value() {
        let a = sample();
        assert!((density(&a) - 5.0 / 12.0).abs() < 1e-15);
        assert_eq!(density(&CsrMatrix::zeros(0, 0)), 0.0);
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[2, 4]), 3.0);
        assert_eq!(variance(&[2, 4]), 1.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5, 5, 5]), 0.0);
    }

    #[test]
    fn intersections() {
        let a = sample();
        assert_eq!(row_intersection(&a, 0, 1), 1); // share column 1
        assert_eq!(row_intersection(&a, 0, 2), 0);
        assert_eq!(row_intersection(&a, 1, 1), 2);
    }

    #[test]
    fn jaccard_values() {
        let a = sample();
        assert!((jaccard(&a, 0, 1) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(jaccard(&a, 0, 2), 0.0);
        assert_eq!(jaccard(&a, 1, 1), 1.0);
        let empty = CsrMatrix::zeros(2, 2);
        assert_eq!(jaccard(&empty, 0, 1), 0.0);
    }

    #[test]
    fn adjacent_stats() {
        let a = sample();
        let (avg, var) = adjacent_intersection_stats(&a);
        // intersections: (0,1)=1, (1,2)=0 -> mean 0.5, var 0.25
        assert!((avg - 0.5).abs() < 1e-15);
        assert!((var - 0.25).abs() < 1e-15);
        assert_eq!(
            adjacent_intersection_stats(&CsrMatrix::zeros(1, 1)),
            (0.0, 0.0)
        );
    }

    fn random_matrix() -> impl Strategy<Value = CsrMatrix> {
        (1usize..24, 1usize..16).prop_flat_map(|(r, c)| {
            proptest::collection::vec((0..r, 0..c), 0..4 * r).prop_map(move |t| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j) in t {
                    coo.push(i, j, 1.0).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stamped pass equals the mean and variance of the merge-based
        /// `row_intersection` over every adjacent pair, bit for bit.
        #[test]
        fn adjacent_stats_match_pairwise_intersections(a in random_matrix()) {
            let pairs: Vec<usize> = (1..a.nrows())
                .map(|i| row_intersection(&a, i - 1, i))
                .collect();
            prop_assert_eq!(adjacent_intersection_stats(&a), (mean(&pairs), variance(&pairs)));
        }
    }

    #[test]
    fn bandwidth_value() {
        let a = sample();
        assert_eq!(bandwidth(&a), 1);
        assert_eq!(bandwidth(&CsrMatrix::zeros(5, 5)), 0);
        let wide = CsrMatrix::try_new(2, 10, vec![0, 1, 1], vec![9], vec![1.0]).unwrap();
        assert_eq!(bandwidth(&wide), 9);
    }
}

//! Splicing changed rows into a donor permutation.

use bootes_sparse::{CsrMatrix, Permutation};

/// Failures of the incremental update path. All variants are recoverable:
/// the pipeline answers any of them with a full recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftError {
    /// A `BOOTES_FAILPOINTS` fault was injected at `drift.resplice`.
    Injected(String),
    /// The inputs cannot be respliced (donor length mismatch, changed-row
    /// index out of range).
    Invalid(String),
}

impl std::fmt::Display for DriftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriftError::Injected(s) => write!(f, "injected fault: {s}"),
            DriftError::Invalid(s) => write!(f, "invalid resplice input: {s}"),
        }
    }
}

impl std::error::Error for DriftError {}

/// Indices of the rows whose pattern hash differs between the donor and the
/// incoming matrix, in ascending order. Vectors of different lengths mean
/// the matrices are not comparable row-by-row, so *every* row is reported
/// changed (the caller's drift threshold then forces a full recompute).
pub fn changed_rows(donor_hashes: &[u64], new_hashes: &[u64]) -> Vec<usize> {
    if donor_hashes.len() != new_hashes.len() {
        return (0..new_hashes.len()).collect();
    }
    donor_hashes
        .iter()
        .zip(new_hashes)
        .enumerate()
        .filter_map(|(i, (d, n))| (d != n).then_some(i))
        .collect()
}

/// Splices the `changed` rows of `a` into the `donor` permutation.
///
/// Unchanged rows keep their donor order. Each changed row is re-clustered
/// against the *unchanged* rows by exact column-support Jaccard, restricted
/// to rows that share at least one column (found through an inverted index
/// over the changed rows' columns, so the cost is proportional to the
/// changed rows' neighborhoods, not to `nnz · siglen`): it is placed
/// immediately after the unchanged row it is most similar to (its
/// *anchor*), which in a clustered donor order is a row of its own cluster.
/// A changed row sharing no column with any unchanged row keeps its donor
/// position — for a small drift the donor position is still the best
/// available guess, and strictly better than exiling the row to the end of
/// the order.
///
/// Deterministic: anchors tie-break by donor position then index, multiple
/// rows behind one anchor emit by descending similarity then ascending
/// index. The result is validated as a bijection before it is returned.
///
/// # Errors
///
/// [`DriftError::Invalid`] when `donor.len() != a.nrows()` or a changed
/// index is out of range; [`DriftError::Injected`] under an armed
/// `drift.resplice` failpoint.
pub fn resplice(
    a: &CsrMatrix,
    donor: &Permutation,
    changed: &[usize],
) -> Result<Permutation, DriftError> {
    bootes_guard::fail_point("drift.resplice").map_err(|e| DriftError::Injected(e.to_string()))?;
    let n = a.nrows();
    if donor.len() != n {
        return Err(DriftError::Invalid(format!(
            "donor permutation length {} != matrix rows {n}",
            donor.len()
        )));
    }
    let mut is_changed = vec![false; n];
    for &r in changed {
        if r >= n {
            return Err(DriftError::Invalid(format!(
                "changed row {r} out of range for {n} rows"
            )));
        }
        is_changed[r] = true;
    }
    if changed.is_empty() {
        return Ok(donor.clone());
    }

    // Position of each old row in the donor order, for deterministic anchor
    // tie-breaks and for keeping anchorless rows in place.
    let inv = donor.inverse();
    let donor_pos = inv.as_slice();

    // Inverted index over the columns the changed rows touch, unchanged rows
    // only: every unchanged row sharing a column with a changed row is an
    // anchor candidate; rows sharing nothing have Jaccard 0 and are never
    // better than keeping the donor position.
    let mut col_used = vec![false; a.ncols()];
    for &cr in changed {
        for &col in a.row(cr).0 {
            col_used[col] = true;
        }
    }
    let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); a.ncols()];
    for (r, &r_changed) in is_changed.iter().enumerate() {
        if r_changed {
            continue;
        }
        for &col in a.row(r).0 {
            if col_used[col] {
                col_rows[col].push(r);
            }
        }
    }

    // anchor[r] = (similarity, donor position of anchor, anchor row)
    let mut anchor: Vec<Option<(f64, usize, usize)>> = vec![None; n];
    let mut overlap = vec![0usize; n];
    let mut touched: Vec<usize> = Vec::new();
    for &cr in changed {
        let (cols, _) = a.row(cr);
        for &col in cols {
            for &u in &col_rows[col] {
                if overlap[u] == 0 {
                    touched.push(u);
                }
                overlap[u] += 1;
            }
        }
        let mut best: Option<(f64, usize, usize)> = None;
        for &u in &touched {
            let inter = overlap[u] as f64;
            let union = (cols.len() + a.row(u).0.len()) as f64 - inter;
            let sim = if union > 0.0 { inter / union } else { 0.0 };
            let cand = (sim, donor_pos[u], u);
            // Higher similarity wins; then the earlier donor position; then
            // the smaller row index — a total order, so the choice does not
            // depend on the candidate iteration order.
            let better = match best {
                None => true,
                Some((sim, pos, row)) => {
                    cand.0 > sim
                        || (cand.0 == sim && (cand.1 < pos || (cand.1 == pos && cand.2 < row)))
                }
            };
            if better {
                best = Some(cand);
            }
        }
        anchor[cr] = best;
        for &u in &touched {
            overlap[u] = 0;
        }
        touched.clear();
    }

    // Changed rows that found an anchor move next to it; the rest stay at
    // their donor position (treated as unchanged below).
    let mut behind: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n];
    for &c in changed {
        match anchor[c] {
            Some((sim, _, u)) => behind[u].push((sim, c)),
            None => is_changed[c] = false,
        }
    }
    for group in &mut behind {
        group.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
    }

    let mut out = Vec::with_capacity(n);
    for new in 0..n {
        let old = donor.old_index(new);
        if is_changed[old] {
            continue; // re-emitted behind its anchor
        }
        out.push(old);
        for &(_, c) in &behind[old] {
            out.push(c);
        }
    }
    Permutation::try_new(out).map_err(|e| DriftError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::CooMatrix;

    /// Two clear clusters: rows 0..4 share columns 0..6, rows 4..8 share
    /// columns 10..16.
    /// A fault-free failpoint scope: it keeps `injected_fault_surfaces_as_drift_error`
    /// from arming `drift.resplice` while another test here resplices.
    fn no_faults() -> bootes_guard::ScopedFailpoints {
        bootes_guard::ScopedFailpoints::arm("").unwrap()
    }

    fn two_clusters() -> CsrMatrix {
        let mut coo = CooMatrix::new(8, 20);
        for r in 0..4 {
            for c in 0..6 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        for r in 4..8 {
            for c in 10..16 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn changed_rows_diffs_and_handles_length_mismatch() {
        assert_eq!(changed_rows(&[1, 2, 3], &[1, 9, 3]), vec![1]);
        assert!(changed_rows(&[1, 2], &[1, 2]).is_empty());
        assert_eq!(changed_rows(&[1], &[1, 2, 3]), vec![0, 1, 2]);
    }

    #[test]
    fn empty_delta_returns_the_donor_verbatim() {
        let _fp = no_faults();
        let a = two_clusters();
        let donor = Permutation::try_new(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let out = resplice(&a, &donor, &[]).unwrap();
        assert_eq!(out, donor);
    }

    #[test]
    fn changed_row_lands_next_to_its_cluster() {
        let _fp = no_faults();
        // Donor order groups cluster B then cluster A; row 2 (cluster A)
        // "changed" and must be respliced among the cluster-A block, not
        // left where the donor scan happens to put it.
        let a = two_clusters();
        let donor = Permutation::try_new(vec![4, 5, 6, 7, 2, 0, 1, 3]).unwrap();
        let out = resplice(&a, &donor, &[2]).unwrap();
        let pos: Vec<usize> = (0..8)
            .map(|old| out.as_slice().iter().position(|&o| o == old).unwrap())
            .collect();
        // Row 2 sits somewhere inside the cluster-A half (positions 4..8).
        assert!(pos[2] >= 4, "row 2 at {} in {:?}", pos[2], out.as_slice());
        // Still a bijection over all 8 rows.
        let mut sorted = out.as_slice().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn resplice_is_deterministic() {
        let _fp = no_faults();
        let a = two_clusters();
        let donor = Permutation::try_new(vec![4, 5, 6, 7, 0, 1, 2, 3]).unwrap();
        let x = resplice(&a, &donor, &[1, 6]).unwrap();
        let y = resplice(&a, &donor, &[1, 6]).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn invalid_inputs_error_instead_of_panicking() {
        let _fp = no_faults();
        let a = two_clusters();
        let short = Permutation::try_new(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            resplice(&a, &short, &[0]),
            Err(DriftError::Invalid(_))
        ));
        let donor = Permutation::identity(8);
        assert!(matches!(
            resplice(&a, &donor, &[99]),
            Err(DriftError::Invalid(_))
        ));
    }

    #[test]
    fn injected_fault_surfaces_as_drift_error() {
        let _fp = bootes_guard::ScopedFailpoints::arm("drift.resplice=err").unwrap();
        let a = two_clusters();
        let donor = Permutation::identity(8);
        assert!(matches!(
            resplice(&a, &donor, &[0]),
            Err(DriftError::Injected(_))
        ));
    }
}

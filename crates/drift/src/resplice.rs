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
/// over the changed rows' columns, so the cost is one branch-free pass over
/// the nonzeros plus the changed rows' neighborhoods, not `nnz · siglen`):
/// it is placed immediately after the unchanged row it is most similar to
/// (its *anchor*), which in a clustered donor order is a row of its own
/// cluster. A changed row sharing no column with any unchanged row keeps
/// its donor position — for a small drift the donor position is still the
/// best available guess, and strictly better than exiling the row to the
/// end of the order.
///
/// Deterministic: anchors tie-break by donor position then index, multiple
/// rows behind one anchor emit by descending similarity then ascending
/// index. The result is validated as a bijection before it is returned, so
/// a row listed twice in `changed` that finds an anchor (it would be
/// emitted twice) is rejected; [`changed_rows`] lists each row once.
///
/// # Errors
///
/// [`DriftError::Invalid`] when `donor.len() != a.nrows()`, a changed
/// index is out of range, or the spliced order is not a bijection;
/// [`DriftError::Injected`] under an armed `drift.resplice` failpoint.
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
    // tie-breaks and for emitting moved rows behind their anchors.
    let inv = donor.inverse();
    let donor_pos = inv.as_slice();

    // Inverted index over the columns the changed rows touch, unchanged rows
    // only: every unchanged row sharing a column with a changed row is an
    // anchor candidate; rows sharing nothing have Jaccard 0 and are never
    // better than keeping the donor position. One flat counting sort:
    // `rows[start[c]..start[c + 1]]` lists, ascending, the unchanged rows
    // holding column `c`, and is empty for columns no changed row touches.
    let ncols = a.ncols();
    let mut used = vec![false; ncols];
    for &cr in changed {
        for &col in a.row(cr).0 {
            used[col] = true;
        }
    }
    let unchanged_rows = || (0..n).filter(|&r| !is_changed[r]).map(|r| (r, a.row(r).0));
    let mut start = vec![0usize; ncols + 1];
    for (_, cols) in unchanged_rows() {
        for &col in cols {
            start[col + 1] += usize::from(used[col]);
        }
    }
    for c in 0..ncols {
        start[c + 1] += start[c];
    }
    // An untouched column's cursor points at one spare slot past the end and
    // never advances, so every nonzero does the same store and add.
    let spare = start[ncols];
    let mut cursor: Vec<usize> = (0..ncols)
        .map(|c| if used[c] { start[c] } else { spare })
        .collect();
    let mut rows = vec![0usize; spare + 1];
    for (r, cols) in unchanged_rows() {
        for &col in cols {
            rows[cursor[col]] = r;
            cursor[col] += usize::from(used[col]);
        }
    }

    // moved: (donor position of the anchor, similarity, row) per changed row
    // that found an anchor. The rest stay at their donor position (treated
    // as unchanged below).
    let mut moved: Vec<(usize, f64, usize)> = Vec::with_capacity(changed.len());
    let mut overlap = vec![0usize; n];
    // touched[..len]: the candidates of the current changed row. A row is
    // written on every visit and kept (len advances) only on its first;
    // candidates are unchanged rows, fewer than `n`, so writes stay in bounds.
    let mut touched = vec![0usize; n];
    for &cr in changed {
        let cols = a.row(cr).0;
        let mut len = 0;
        for &col in cols {
            for &u in &rows[start[col]..start[col + 1]] {
                touched[len] = u;
                len += usize::from(overlap[u] == 0);
                overlap[u] += 1;
            }
        }
        // (similarity, donor position of anchor, anchor row)
        let mut best: Option<(f64, usize, usize)> = None;
        for &u in &touched[..len] {
            let inter = overlap[u] as f64;
            let union = (cols.len() + a.row_nnz(u)) as f64 - inter;
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
            overlap[u] = 0;
        }
        match best {
            Some((sim, pos, _)) => moved.push((pos, sim, cr)),
            None => is_changed[cr] = false,
        }
    }
    // Emission order: by anchor position, then descending similarity, then
    // ascending index. Similarities are finite, so `total_cmp` is the
    // numeric order.
    moved.sort_unstable_by(|x, y| x.0.cmp(&y.0).then(y.1.total_cmp(&x.1)).then(x.2.cmp(&y.2)));

    let mut out = Vec::with_capacity(n);
    let mut moved = moved.iter().peekable();
    for (pos, &old) in donor.as_slice().iter().enumerate() {
        if is_changed[old] {
            continue; // re-emitted behind its anchor
        }
        out.push(old);
        while let Some(&(_, _, c)) = moved.next_if(|m| m.0 == pos) {
            out.push(c);
        }
    }
    Permutation::try_new(out).map_err(|e| DriftError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::{stats, CooMatrix};
    use proptest::prelude::*;

    /// A fault-free failpoint scope: it keeps `injected_fault_surfaces_as_drift_error`
    /// from arming `drift.resplice` while another test here resplices.
    fn no_faults() -> bootes_guard::ScopedFailpoints {
        bootes_guard::ScopedFailpoints::arm("").unwrap()
    }

    /// Brute-force resplice from the documented contract: every changed row
    /// scans every unchanged row, scores it by exact Jaccard, and keeps the
    /// best under the total order (higher similarity, then earlier donor
    /// position, then smaller index). A row sharing no column is no anchor,
    /// and an anchorless changed row keeps its donor position. Rows behind
    /// one anchor emit by descending similarity, then ascending index.
    fn reference(
        a: &CsrMatrix,
        donor: &Permutation,
        changed: &[usize],
    ) -> Result<Permutation, DriftError> {
        let n = a.nrows();
        if donor.len() != n || changed.iter().any(|&r| r >= n) {
            return Err(DriftError::Invalid(String::new()));
        }
        let inv = donor.inverse();
        let pos = inv.as_slice();
        let mut behind: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n];
        let mut moves = vec![false; n];
        for &c in changed {
            let best = (0..n)
                .filter(|&u| !changed.contains(&u) && stats::row_intersection(a, c, u) > 0)
                .map(|u| (stats::jaccard(a, c, u), pos[u], u))
                .max_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)).then(y.2.cmp(&x.2)));
            if let Some((sim, _, u)) = best {
                behind[u].push((sim, c));
                moves[c] = true;
            }
        }
        let mut out = Vec::new();
        for &old in donor.as_slice() {
            if moves[old] {
                continue;
            }
            out.push(old);
            behind[old].sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
            out.extend(behind[old].iter().map(|&(_, c)| c));
        }
        Permutation::try_new(out).map_err(|e| DriftError::Invalid(e.to_string()))
    }

    /// `resplice` and the reference agree: the same permutation, or the same
    /// error variant.
    fn agrees_with_reference(
        a: &CsrMatrix,
        donor: &Permutation,
        changed: &[usize],
    ) -> Result<Permutation, DriftError> {
        let _fp = no_faults();
        let got = resplice(a, donor, changed);
        match (&got, reference(a, donor, changed)) {
            (Ok(p), Ok(q)) => assert_eq!(p, &q, "changed {changed:?}"),
            (Err(DriftError::Invalid(_)), Err(DriftError::Invalid(_))) => {}
            (g, r) => panic!("resplice {g:?} but reference {r:?} for {changed:?}"),
        }
        got
    }

    /// Builds a binary matrix from per-row column lists.
    fn from_rows(ncols: usize, rows: &[&[usize]]) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows.len(), ncols);
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Small, narrow binary matrices (so empty rows, shared columns and
    /// equal similarities are common), an arbitrary donor order, and a
    /// changed list drawn as a subset, as every row, or as raw indices that
    /// may repeat or run past the last row.
    fn resplice_case() -> impl Strategy<Value = (CsrMatrix, Permutation, Vec<usize>)> {
        (1usize..16, 1usize..8).prop_flat_map(|(n, ncols)| {
            (
                proptest::collection::vec((0..n, 0..ncols), 0..3 * n),
                proptest::collection::vec(0u64..1000, n),
                proptest::collection::vec(0u32..3, n),
                proptest::collection::vec(0..n + 2, 0..n),
                0u32..4,
            )
                .prop_map(move |(entries, keys, flags, raw, mode)| {
                    let mut coo = CooMatrix::new(n, ncols);
                    for (r, c) in entries {
                        coo.push(r, c, 1.0).unwrap();
                    }
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_by_key(|&i| (keys[i], i));
                    let donor = Permutation::try_new(order).unwrap();
                    let changed = match mode {
                        0 => (0..n).collect(),
                        1 => raw,
                        _ => (0..n).filter(|&r| flags[r] == 0).collect(),
                    };
                    (coo.to_csr(), donor, changed)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed resplice equals the brute-force reference on every
        /// input: the same permutation, or the same error variant.
        #[test]
        fn resplice_matches_the_brute_force_reference(case in resplice_case()) {
            let (a, donor, changed) = case;
            agrees_with_reference(&a, &donor, &changed).ok();
        }
    }

    #[test]
    fn reference_agreement_on_named_edge_cases() {
        // Rows 0-2 and 7 are identical, 3 and 6 are empty, 4 holds a column
        // no other row has, 5 is half of row 0.
        let a = from_rows(
            6,
            &[&[0, 1], &[0, 1], &[0, 1], &[], &[5], &[0], &[], &[0, 1]],
        );
        let donor = Permutation::try_new(vec![6, 2, 5, 4, 3, 1, 0, 7]).unwrap();
        // Empty and anchorless changed rows keep their donor positions.
        let out = agrees_with_reference(&a, &donor, &[3, 4]).unwrap();
        assert_eq!(out, donor);
        // Rows 7 and 0 tie between anchors 1 and 2 and take row 2, the
        // earlier donor position; behind it they emit by descending
        // similarity (row 5 scores 1/2), then ascending index.
        let out = agrees_with_reference(&a, &donor, &[7, 0, 5]).unwrap();
        assert_eq!(out.as_slice(), &[6, 2, 0, 7, 5, 4, 3, 1]);
        // Every row changed: nothing to anchor to, the donor comes back.
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(agrees_with_reference(&a, &donor, &all).unwrap(), donor);
        // A duplicate that moves would be emitted twice; one that stays is
        // harmless. Out-of-range indices are rejected.
        assert!(agrees_with_reference(&a, &donor, &[1, 1]).is_err());
        assert_eq!(agrees_with_reference(&a, &donor, &[4, 4]).unwrap(), donor);
        assert!(agrees_with_reference(&a, &donor, &[8]).is_err());
    }

    /// Two clear clusters: rows 0..4 share columns 0..6, rows 4..8 share
    /// columns 10..16.
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

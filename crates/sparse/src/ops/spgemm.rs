//! Sparse general matrix-matrix multiplication.
//!
//! The kernel is the **row-wise product** (Gustavson's algorithm), the
//! dataflow the paper identifies as the favorable one for sparse accelerators:
//! `C[i,:] = Σ_{k ∈ cols(A_i)} A[i,k] · B[k,:]`. [`spgemm`] picks a dense,
//! hash-map or sorted-merge accumulator **per row** from the upper-bounded row
//! flop count (à la Nagasaka et al.'s KNL SpGEMM). All three accumulators sum
//! each output column's products in identical k-iteration encounter order and
//! drop exact-`0.0` finals, so the choice only changes speed, never bits.
//! Per-worker dense/hash scratch is reused across chunks through thread-local
//! storage (`crate::scratch`) instead of being allocated and zeroed per chunk.
//! The [`dataflow_costs`] analysis reproduces the inner/outer/row-wise
//! trade-offs of Table 1.

use std::collections::HashMap;
use std::ops::Range;

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scratch;

fn check_dims(a: &CsrMatrix, b: &CsrMatrix) -> Result<(), SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(())
}

/// Output of one contiguous block of Gustavson rows: per-row lengths plus the
/// concatenated column indices and values, stitched in chunk order by
/// [`spgemm`].
struct RowChunk {
    row_lens: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    flops: u64,
}

/// Splits `A`'s rows into `parts` contiguous chunks weighted by the
/// row-wise flop count `Σ_{k ∈ cols(A_i)} nnz(B_k)` — the actual work of a
/// Gustavson row — so dense rows don't serialize one worker. Callers pass
/// [`bootes_par::chunk_count`] of their thread count, giving the dynamic
/// claim loop slack to rebalance stragglers.
fn flop_weighted_rows(a: &CsrMatrix, b: &CsrMatrix, parts: usize) -> Vec<Range<usize>> {
    bootes_par::partition_weighted(a.nrows(), parts, |i| {
        a.row(i).0.iter().map(|&k| b.row_nnz(k) as u64).sum()
    })
}

/// One dense-accumulator Gustavson row: accumulate `Σ aik · B[k,:]` into
/// `acc` (all-zero on entry), then gather the touched columns in sorted
/// order into `indices`/`values`, resetting `acc` back to all-zero. Returns
/// the fiber-product (flop) count.
fn dense_row(
    a: &CsrMatrix,
    b: &CsrMatrix,
    i: usize,
    acc: &mut [f64],
    touched: &mut Vec<usize>,
    indices: &mut Vec<usize>,
    values: &mut Vec<f64>,
) -> u64 {
    let mut flops = 0u64;
    let (acols, avals) = a.row(i);
    for (&k, &aik) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k);
        flops += bcols.len() as u64;
        for (&j, &bkj) in bcols.iter().zip(bvals) {
            // A zero accumulator marks "untouched"; a partial sum that
            // cancels back to 0.0 re-pushes j, deduplicated below.
            if acc[j] == 0.0 {
                touched.push(j);
            }
            acc[j] += aik * bkj;
        }
    }
    // `touched` can contain duplicates when a partial sum passed through
    // exactly 0.0; deduplicate via sort.
    touched.sort_unstable();
    touched.dedup();
    for &j in touched.iter() {
        let v = acc[j];
        if v != 0.0 {
            indices.push(j);
            values.push(v);
        }
        acc[j] = 0.0;
    }
    touched.clear();
    flops
}

/// One hash-accumulator Gustavson row (`acc`/`rowbuf` cleared on entry by
/// the caller's loop); appends the sorted row to `indices`/`values` and
/// returns the flop count.
fn hash_row(
    a: &CsrMatrix,
    b: &CsrMatrix,
    i: usize,
    acc: &mut HashMap<usize, f64>,
    rowbuf: &mut Vec<(usize, f64)>,
    indices: &mut Vec<usize>,
    values: &mut Vec<f64>,
) -> u64 {
    let mut flops = 0u64;
    acc.clear();
    let (acols, avals) = a.row(i);
    for (&k, &aik) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k);
        flops += bcols.len() as u64;
        for (&j, &bkj) in bcols.iter().zip(bvals) {
            *acc.entry(j).or_insert(0.0) += aik * bkj;
        }
    }
    rowbuf.clear();
    rowbuf.extend(
        acc.iter()
            .filter(|(_, v)| **v != 0.0)
            .map(|(&j, &v)| (j, v)),
    );
    rowbuf.sort_unstable_by_key(|&(j, _)| j);
    for &(j, v) in rowbuf.iter() {
        indices.push(j);
        values.push(v);
    }
    flops
}

/// One sorted-merge Gustavson row for tiny rows: gather every `(j, aik·bkj)`
/// product in k-encounter order, stable-sort by `j` (preserving the
/// encounter order of equal columns, so the per-column summation order —
/// and hence the bits — match the dense and hash accumulators), and fold
/// runs. Appends to `indices`/`values` and returns the flop count.
fn merge_row(
    a: &CsrMatrix,
    b: &CsrMatrix,
    i: usize,
    pairs: &mut Vec<(usize, f64)>,
    indices: &mut Vec<usize>,
    values: &mut Vec<f64>,
) -> u64 {
    let mut flops = 0u64;
    pairs.clear();
    let (acols, avals) = a.row(i);
    for (&k, &aik) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k);
        flops += bcols.len() as u64;
        for (&j, &bkj) in bcols.iter().zip(bvals) {
            pairs.push((j, aik * bkj));
        }
    }
    // Stable: equal-j products stay in encounter order.
    pairs.sort_by_key(|&(j, _)| j);
    let mut idx = 0usize;
    while idx < pairs.len() {
        let j = pairs[idx].0;
        let mut sum = 0.0f64;
        while idx < pairs.len() && pairs[idx].0 == j {
            sum += pairs[idx].1;
            idx += 1;
        }
        if sum != 0.0 {
            indices.push(j);
            values.push(sum);
        }
    }
    flops
}

/// A merge row is cheaper than dense/hash bookkeeping up to this many
/// gathered products.
const MERGE_MAX_FLOPS: u64 = 32;

/// Below this width the dense accumulator always wins (the scratch prefix
/// fits comfortably in cache, and it is reused across the whole chunk).
const DENSE_ALWAYS_COLS: usize = 4096;

/// The Gustavson kernel over one contiguous row block, accumulating into the
/// calling worker's reusable thread-local scratch. Selects merge, dense, or
/// hash per row by
/// the upper-bounded row flop count `ub_i = Σ_{k ∈ cols(A_i)} nnz(B_k)`
/// (which bounds both the products gathered and the output row width):
///
/// - `ub ≤ 32` → **sorted-merge** (tiny rows: no accumulator state at all),
/// - dense width ≤ 4096 or `ub ≥ ncols/64` → **dense** (scratch prefix is
///   cache-resident or the row is dense enough to amortize the gather scan),
/// - otherwise → **hash** (long sparse rows over a very wide `B`).
///
/// Returns the per-variant row counts `[dense, hash, merge]` alongside the
/// chunk for the `spgemm.acc_choice` observability counters.
fn spgemm_rows(a: &CsrMatrix, b: &CsrMatrix, rows: Range<usize>) -> (RowChunk, [u64; 3]) {
    let n = b.ncols();
    scratch::with_dense_f64(n, |acc, touched| {
        scratch::with_hash_f64(|hacc, rowbuf| {
            let mut row_lens = Vec::with_capacity(rows.len());
            let mut indices: Vec<usize> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            let mut flops = 0u64;
            let mut choices = [0u64; 3];
            let mut pairs: Vec<(usize, f64)> = Vec::new();
            for i in rows.clone() {
                let row_start = indices.len();
                let ub: u64 = a.row(i).0.iter().map(|&k| b.row_nnz(k) as u64).sum();
                if ub <= MERGE_MAX_FLOPS {
                    choices[2] += 1;
                    flops += merge_row(a, b, i, &mut pairs, &mut indices, &mut values);
                } else if n <= DENSE_ALWAYS_COLS || ub >= (n as u64 >> 6) {
                    choices[0] += 1;
                    flops += dense_row(a, b, i, acc, touched, &mut indices, &mut values);
                } else {
                    choices[1] += 1;
                    flops += hash_row(a, b, i, hacc, rowbuf, &mut indices, &mut values);
                }
                row_lens.push(indices.len() - row_start);
            }
            (
                RowChunk {
                    row_lens,
                    indices,
                    values,
                    flops,
                },
                choices,
            )
        })
    })
}

/// Row-wise (Gustavson) SpGEMM over `threads` workers.
///
/// The rows of `A` are split into flop-weighted contiguous chunks, each row
/// is routed to the sorted-merge, dense, or hash accumulator by its
/// upper-bounded flop count, and the chunk outputs are stitched back in
/// chunk order. Products are summed in identical k-iteration encounter order,
/// columns are gathered sorted, and entries that cancel to exactly `0.0` are
/// dropped, so the result is **bit-identical** for every thread count and
/// every accumulator choice. Pass [`bootes_par::threads`] for the global
/// policy.
///
/// Records the `spgemm.row_nnz` histogram, the `spgemm.flops` counter, the
/// `kernel.flops`/`kernel.bytes` accounting under the `spgemm` label (the
/// span and par region share it, so profiles pair the work with the wall
/// time into MFLOP/s and GB/s), and the rows routed per accumulator on
/// `spgemm.acc_choice{acc=dense|hash|merge}` while profiling is enabled.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.ncols() != b.nrows()`,
/// and [`SparseError::Guard`] if a row chunk panics or the `par.worker`
/// failpoint fires.
///
/// # Example
///
/// ```
/// use bootes_sparse::{CsrMatrix, ops::spgemm};
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// let a = CsrMatrix::identity(2);
/// let c = spgemm(&a, &a, 1)?;
/// assert_eq!(c, CsrMatrix::identity(2));
/// # Ok(())
/// # }
/// ```
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix, threads: usize) -> Result<CsrMatrix, SparseError> {
    check_dims(a, b)?;
    let _span = bootes_obs::span!("spgemm");
    let ranges = flop_weighted_rows(a, b, bootes_par::chunk_count(threads));
    let outputs = bootes_par::map_ranges("spgemm", threads, &ranges, |_, rows| {
        spgemm_rows(a, b, rows)
    })?;
    let (nrows, ncols) = (a.nrows(), b.ncols());
    let nnz: usize = outputs.iter().map(|(c, _)| c.indices.len()).sum();
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    indptr.push(0);
    let mut flops = 0u64;
    let mut choices = [0u64; 3];
    for (chunk, counts) in outputs {
        for len in chunk.row_lens {
            indptr.push(indptr.last().expect("nonempty indptr") + len);
            bootes_obs::histogram_record("spgemm.row_nnz", len as u64);
        }
        indices.extend_from_slice(&chunk.indices);
        values.extend_from_slice(&chunk.values);
        flops += chunk.flops;
        for (total, c) in choices.iter_mut().zip(counts) {
            *total += c;
        }
    }
    bootes_obs::counter_add("spgemm.flops", flops);
    // One multiply + one add per fiber product.
    bootes_obs::counter_add("kernel.flops{kernel=spgemm}", 2 * flops);
    // Traffic model (no-cache upper bound): each A nonzero read once, one B
    // element fetched per fiber product, each C nonzero written once; 16
    // bytes per element (f64 value + 8-byte column index).
    let bytes = 16 * (a.nnz() as u64 + flops + nnz as u64);
    bootes_obs::counter_add("kernel.bytes{kernel=spgemm}", bytes);
    if bootes_obs::enabled() {
        for (label, count) in ["dense", "hash", "merge"].iter().zip(choices) {
            if count > 0 {
                bootes_obs::counter_add(&format!("spgemm.acc_choice{{acc={label}}}"), count);
            }
        }
    }
    Ok(CsrMatrix::from_parts_unchecked(
        nrows, ncols, indptr, indices, values,
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
    let c = spgemm(a, b, 1)?;

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
        assert_eq!(spgemm(&i, &i, 1).unwrap(), i);
    }

    #[test]
    fn matches_dense_reference() {
        for seed in 0..8 {
            let a = random_like(13, 17, seed);
            let b = random_like(17, 11, seed + 100);
            let c = spgemm(&a, &b, 1).unwrap();
            let c_ref = a.to_dense().matmul(&b.to_dense()).unwrap();
            assert!(c.to_dense().max_abs_diff(&c_ref) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn threads_match_serial_exactly() {
        for seed in 0..4 {
            let a = random_like(33, 29, seed);
            let b = random_like(29, 41, seed + 50);
            let serial = spgemm(&a, &b, 1).unwrap();
            // 64 threads also covers more threads than rows.
            for threads in [2usize, 3, 7, 64] {
                assert_eq!(spgemm(&a, &b, threads).unwrap(), serial);
            }
        }
    }

    #[test]
    fn records_acc_choice_counters() {
        let a = random_like(40, 30, 9);
        let b = random_like(30, 25, 21);
        bootes_obs::set_enabled(true);
        bootes_obs::reset();
        let _ = spgemm(&a, &b, 1).unwrap();
        let profile = bootes_obs::snapshot();
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
        let routed: u64 = profile
            .counters
            .iter()
            .filter(|c| c.name.starts_with("spgemm.acc_choice{"))
            .map(|c| c.value)
            .sum();
        // ">=" rather than "==": the obs registry is process-global, so a
        // concurrently running test may add to the same counters.
        assert!(
            routed >= a.nrows() as u64,
            "every row routed exactly once (got {routed})"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(spgemm(&a, &b, 1).is_err());
        assert!(spgemm_flops(&a, &b).is_err());
        assert!(dataflow_costs(&a, &b).is_err());
    }

    #[test]
    fn cancellation_drops_entries() {
        // a = [1 1], b = [[1], [-1]]  =>  c = [0] (dropped). The row is tiny,
        // so this goes through the merge accumulator.
        let a = CsrMatrix::try_new(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let b = CsrMatrix::try_new(2, 1, vec![0, 1, 2], vec![0, 0], vec![1.0, -1.0]).unwrap();
        assert_eq!(spgemm(&a, &b, 1).unwrap().nnz(), 0);
    }

    #[test]
    fn empty_operands() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(4, 2);
        let c = spgemm(&a, &b, 1).unwrap();
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

    /// Strategy: a conforming (`a`, `b`) pair with signed small-integer
    /// values, so partial sums cancel to exactly `0.0` now and then.
    fn operands() -> impl proptest::Strategy<Value = (CsrMatrix, CsrMatrix)> {
        use proptest::prelude::*;
        (1usize..16, 1usize..16, 1usize..16).prop_flat_map(|(m, k, n)| {
            let side = |r: usize, c: usize| {
                proptest::collection::vec((0..r, 0..c, 0u32..7), 0..r * c).prop_map(move |trips| {
                    let mut coo = CooMatrix::new(r, c);
                    for (i, j, v) in trips {
                        coo.push(i, j, (f64::from(v) - 3.0) * 0.5).unwrap();
                    }
                    coo.to_csr()
                })
            };
            (side(m, k), side(k, n))
        })
    }

    proptest::proptest! {
        /// The dense, hash and merge accumulators produce the same row, bit
        /// for bit, on every row — so the per-row choice in [`spgemm`] can
        /// never change a result.
        #[test]
        fn accumulators_agree_bit_for_bit((a, b) in operands()) {
            let mut acc = vec![0.0f64; b.ncols()];
            let mut touched = Vec::new();
            let mut hacc = HashMap::new();
            let mut buf = Vec::new();
            for i in 0..a.nrows() {
                let mut rows: Vec<(Vec<usize>, Vec<u64>, u64)> = Vec::new();
                for acc_kind in 0..3 {
                    let (mut idx, mut val) = (Vec::new(), Vec::new());
                    let flops = match acc_kind {
                        0 => dense_row(&a, &b, i, &mut acc, &mut touched, &mut idx, &mut val),
                        1 => hash_row(&a, &b, i, &mut hacc, &mut buf, &mut idx, &mut val),
                        _ => merge_row(&a, &b, i, &mut buf, &mut idx, &mut val),
                    };
                    rows.push((idx, val.iter().map(|v| v.to_bits()).collect(), flops));
                }
                proptest::prop_assert_eq!(&rows[0], &rows[1], "dense vs hash, row {}", i);
                proptest::prop_assert_eq!(&rows[0], &rows[2], "dense vs merge, row {}", i);
                proptest::prop_assert!(acc.iter().all(|&x| x == 0.0), "dense acc reset");
            }
        }
    }
}

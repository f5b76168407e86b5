//! The row-wise-dataflow SpGEMM engine.
//!
//! Simulates `C = A · B` on a row-wise-product accelerator: rows of `A` are
//! handed to PEs in order (round-robin over idle PEs), each nonzero `A[i,k]`
//! fetches row `k` of `B` through the shared LRU cache, and partial sums stay
//! on-chip (row-wise psums are small — Table 1). `A` is streamed in and `C`
//! streamed out, so their traffic is compulsory; all reuse-dependent traffic
//! is `B`'s, which is exactly the quantity row reordering optimizes.
//!
//! Timing is a roofline over (a) the busiest PE's MAC count including load
//! imbalance and (b) total DRAM bytes over the bandwidth, whichever is the
//! bottleneck.
//!
//! Two kernels do the host work of a call. Each `B`-row fetch is one
//! [`LruCache::access_range`] over the row's lines, whose per-line scan has
//! no data-dependent branches (see [`crate::cache`]). The output size
//! nnz(C) comes from `symbolic_nnz`, which merges `B` rows into a bitset
//! 64 columns per word operation where a row is dense enough to pay for it.

use std::hint::select_unpredictable;

use bootes_sparse::{CsrMatrix, SparseError};

use crate::cache::LruCache;
use crate::configs::AcceleratorConfig;
use crate::error::AccelError;
use crate::report::TrafficReport;

/// Size of a compressed row pointer in bytes (CSR `indptr` entry).
const PTR_BYTES: u64 = 4;

/// Simulates the row-wise SpGEMM `a * b` on the given accelerator.
///
/// Returns per-operand off-chip traffic, cache statistics and a cycle count.
///
/// # Errors
///
/// - [`AccelError::Sparse`] if `a.ncols() != b.nrows()`.
/// - [`AccelError::InvalidConfig`] if the configuration fails validation.
///
/// # Example
///
/// ```
/// use bootes_accel::{configs, simulate_spgemm};
/// use bootes_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), bootes_accel::AccelError> {
/// let a = CsrMatrix::identity(128);
/// let r = simulate_spgemm(&a, &a, &configs::gamma())?;
/// assert_eq!(r.macs, 128);
/// # Ok(())
/// # }
/// ```
pub fn simulate_spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &AcceleratorConfig,
) -> Result<TrafficReport, AccelError> {
    cfg.validate()?;
    if a.ncols() != b.nrows() {
        return Err(AccelError::Sparse(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        }));
    }
    let _span = bootes_obs::span!("accel.simulate");

    let row_first_line = fiber_first_lines(b.indptr(), cfg);

    let mut cache = LruCache::new(cfg.num_sets(), cfg.ways);
    let mut macs = 0u64;
    let mut pe_cycles = vec![0u64; cfg.num_pes];

    // PE scheduling: idle PEs take the next row of A (a PE that drains its
    // row picks up the next one within the same step); each simulation step
    // advances every busy PE by one nonzero of its current row, so B fetches
    // from concurrently-active rows interleave in the shared cache just as
    // concurrent PEs would interleave them. The schedule is the shared
    // generator in `bootes_sparse::schedule`, which the analytical reuse
    // profile consumes too — the two can never diverge.
    bootes_sparse::schedule::for_each_scheduled_event(a, cfg.num_pes, |ev| match ev {
        bootes_sparse::schedule::PeEvent::Dispatch { pe, .. } => {
            // Row-dispatch overhead.
            pe_cycles[pe] += 1;
        }
        bootes_sparse::schedule::PeEvent::Access { pe, col: k, .. } => {
            // Fetch every line of B row k through the shared cache.
            cache.access_range(row_first_line[k]..row_first_line[k + 1]);
            let fiber = b.row_nnz(k) as u64;
            macs += fiber;
            // One MAC per cycle per PE; an empty fiber still costs the lookup.
            pe_cycles[pe] += fiber.max(1);
        }
    });

    // Symbolic row-wise pass for nnz(C) (compulsory output traffic).
    let nnz_c = {
        let _span = bootes_obs::span!("accel.symbolic");
        symbolic_nnz(a, b)
    };

    let a_bytes = a.nnz() as u64 * cfg.elem_bytes as u64 + (a.nrows() as u64 + 1) * PTR_BYTES;
    let compulsory_b = b.nnz() as u64 * cfg.elem_bytes as u64 + (b.nrows() as u64 + 1) * PTR_BYTES;
    let c_bytes = nnz_c * cfg.elem_bytes as u64 + (a.nrows() as u64 + 1) * PTR_BYTES;
    let b_bytes = cache.misses() * cfg.line_bytes as u64;

    let total_bytes = a_bytes + b_bytes + c_bytes;
    let dram_cycles = (total_bytes as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
    let max_pe_cycles = pe_cycles.iter().copied().max().unwrap_or(0);
    let cycles = dram_cycles.max(max_pe_cycles);

    if bootes_obs::enabled() {
        bootes_obs::counter_add("cache.hits{operand=B}", cache.hits());
        bootes_obs::counter_add("cache.misses{operand=B}", cache.misses());
        bootes_obs::counter_add("accel.bytes{operand=A}", a_bytes);
        bootes_obs::counter_add("accel.bytes{operand=B}", b_bytes);
        bootes_obs::counter_add("accel.bytes{operand=C}", c_bytes);
        let busy: u64 = pe_cycles.iter().sum();
        bootes_obs::counter_add("pe.busy_cycles", busy);
        for &c in &pe_cycles {
            bootes_obs::histogram_record("accel.pe_cycles", c);
        }
        // Mean PE occupancy relative to the busiest PE's critical path.
        if max_pe_cycles > 0 {
            let util = busy as f64 / (max_pe_cycles as f64 * cfg.num_pes as f64);
            bootes_obs::gauge_set("pe.utilization", util);
        }
    }

    Ok(TrafficReport {
        accelerator: cfg.name.clone(),
        a_bytes,
        b_bytes,
        c_bytes,
        compulsory_a: a_bytes,
        compulsory_b,
        compulsory_c: c_bytes,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        macs,
        cycles,
        dram_cycles,
        max_pe_cycles,
    })
}

/// Maps fibers laid out back to back, each starting on a fresh line, to
/// their cache lines: fiber `f`, holding `ptr[f + 1] - ptr[f]` nonzeros of
/// `cfg.elem_bytes` each, occupies lines `first[f]..first[f + 1]` of the
/// returned `first`. `ptr` is a CSR row pointer or a CSC column pointer.
pub(crate) fn fiber_first_lines(ptr: &[usize], cfg: &AcceleratorConfig) -> Vec<u64> {
    let mut first = Vec::with_capacity(ptr.len());
    let mut next_line = 0u64;
    first.push(0);
    for fiber in ptr.windows(2) {
        let bytes = (fiber[1] - fiber[0]) as u64 * cfg.elem_bytes as u64;
        next_line += bytes.div_ceil(cfg.line_bytes as u64);
        first.push(next_line);
    }
    first
}

/// The words a dense `B` row sets in the nnz(C) bitset: `len` words from
/// word `first` on, stored at `start` in the span pool.
#[derive(Clone, Copy)]
struct Span {
    first: usize,
    start: usize,
    len: usize,
}

/// Counts `nnz(A · B)` without materializing values (symbolic Gustavson).
///
/// Row `i` of `C` collects its columns in a bitset of `ceil(ncols / 64)`
/// words. Each word is tagged with the row that last wrote it, so a word
/// left by an earlier row reads as empty and no clearing pass is needed.
///
/// A `B` row whose columns span fewer 64-bit words than it has nonzeros is
/// precomputed once per call as a span bitset; merging it ORs a word at a
/// time and counts the bits each word adds, `(add & !cur).count_ones()`.
/// Every other row sets its bits one at a time, without branches. The
/// choice is per row, from that row's own nonzero count and span, so the
/// span bitsets together hold fewer words than `B` has nonzeros.
pub(crate) fn symbolic_nnz(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    let mut pool = Vec::new();
    let spans: Vec<Option<Span>> = (0..b.nrows())
        .map(|k| {
            let cols = b.row(k).0;
            let (&lo, &hi) = (cols.first()?, cols.last()?);
            let (first, len) = (lo / 64, hi / 64 - lo / 64 + 1);
            if len >= cols.len() {
                return None;
            }
            let start = pool.len();
            pool.resize(start + len, 0u64);
            for &j in cols {
                pool[start + j / 64 - first] |= 1 << (j % 64);
            }
            Some(Span { first, start, len })
        })
        .collect();

    // (owning row, bits) per word of row i's bitset. Whether a word is
    // already row i's follows no pattern, and a plain `if` here compiles to
    // a branch because one arm is a load, so the select is marked
    // unpredictable to get a conditional move.
    let mut acc = vec![(usize::MAX, 0u64); b.ncols().div_ceil(64)];
    let mut count = 0u64;
    for i in 0..a.nrows() {
        for &k in a.row(i).0 {
            match spans[k] {
                Some(span) => {
                    let words = &mut acc[span.first..span.first + span.len];
                    for (slot, &add) in words.iter_mut().zip(&pool[span.start..]) {
                        let cur = select_unpredictable(slot.0 == i, slot.1, 0);
                        count += u64::from((add & !cur).count_ones());
                        *slot = (i, cur | add);
                    }
                }
                None => {
                    for &j in b.row(k).0 {
                        let slot = &mut acc[j / 64];
                        let bit = 1u64 << (j % 64);
                        let cur = select_unpredictable(slot.0 == i, slot.1, 0);
                        count += u64::from(cur & bit == 0);
                        *slot = (i, cur | bit);
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use bootes_sparse::{ops, CooMatrix, Permutation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};

    /// The stamp-per-column count the bitset one replaced, kept as the
    /// reference it must match.
    fn reference_symbolic_nnz(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
        let n = b.ncols();
        let mut stamp = vec![usize::MAX; n];
        let mut count = 0u64;
        for i in 0..a.nrows() {
            for &k in a.row(i).0 {
                for &j in b.row(k).0 {
                    if stamp[j] != i {
                        stamp[j] = i;
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// A random `rows × cols` operand mixing empty rows, full-width rows,
    /// contiguous runs and scattered columns.
    fn mixed_rows(rows: usize, cols: usize, rng: &mut StdRng) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for r in 0..rows {
            match rng.random_range(0..4u32) {
                0 => {}
                1 => (0..cols).for_each(|c| coo.push(r, c, 1.0).unwrap()),
                2 => {
                    let lo = rng.random_range(0..cols);
                    let hi = rng.random_range(lo..cols) + 1;
                    (lo..hi).for_each(|c| coo.push(r, c, 1.0).unwrap());
                }
                _ => {
                    for _ in 0..rng.random_range(1..12usize) {
                        coo.push(r, rng.random_range(0..cols), 1.0).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// n rows, each touching the same `span` columns of B starting at a
    /// row-group-dependent offset.
    fn grouped(n: usize, groups: usize, span: usize, interleave: bool) -> CsrMatrix {
        let cols = groups * span;
        let mut coo = CooMatrix::new(n, cols);
        for r in 0..n {
            let g = if interleave {
                r % groups
            } else {
                r * groups / n
            };
            for c in 0..span {
                coo.push(r, g * span + c, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn dense_b(rows: usize, cols: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn identity_product_traffic_is_near_compulsory() {
        let a = CsrMatrix::identity(256);
        let r = simulate_spgemm(&a, &a, &configs::gamma()).unwrap();
        // Each B row is fetched exactly once (no capacity misses) ...
        assert_eq!(r.cache_misses, 256);
        assert_eq!(r.cache_hits, 0);
        assert_eq!(r.macs, 256);
        // ... so B traffic is exactly one line per single-element row: all
        // excess over compulsory is line padding, bounded by line/elem bytes.
        assert_eq!(r.b_bytes, 256 * 64);
        assert!(r.normalized_traffic() < 64.0 / 12.0);
    }

    #[test]
    fn macs_match_flop_count() {
        let a = grouped(100, 4, 8, true);
        let b = dense_b(32, 16);
        let r = simulate_spgemm(&a, &b, &configs::trapezoid()).unwrap();
        assert_eq!(r.macs, ops::spgemm_flops(&a, &b).unwrap());
    }

    #[test]
    fn reuse_creates_hits() {
        // Every row of A touches the same 8 rows of B: after the first
        // fetch all subsequent accesses hit.
        let a = grouped(64, 1, 8, false);
        let b = dense_b(8, 64);
        let r = simulate_spgemm(&a, &b, &configs::gamma()).unwrap();
        assert!(r.hit_rate() > 0.9, "hit rate {}", r.hit_rate());
    }

    #[test]
    fn small_cache_thrashes_where_big_cache_does_not() {
        // Working set sized between Flexagon's 1 MB and Trapezoid's 4 MB,
        // swept twice so the second sweep hits only if it fits.
        let b_rows = 2048;
        let b = dense_b(b_rows, 96); // 96 * 12B = 1152 B/row => ~2.3 MB total
        let mut coo = CooMatrix::new(512, b_rows);
        let mut state = 1u64;
        for r in 0..512 {
            for _ in 0..8 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let c = ((state >> 33) % b_rows as u64) as usize;
                coo.push(r, c, 1.0).ok();
            }
        }
        let a = coo.to_csr();
        let small = simulate_spgemm(&a, &b, &configs::flexagon()).unwrap();
        let big = simulate_spgemm(&a, &b, &configs::trapezoid()).unwrap();
        assert!(
            small.b_bytes > big.b_bytes,
            "flexagon {} vs trapezoid {}",
            small.b_bytes,
            big.b_bytes
        );
    }

    #[test]
    fn grouping_similar_rows_reduces_b_traffic() {
        // The same matrix with rows interleaved vs grouped: the grouped
        // version reuses B rows while they are still resident.
        let groups = 64;
        let span = 32;
        let n = 2048;
        let b = dense_b(groups * span, 64);
        let interleaved = grouped(n, groups, span, true);
        let contiguous = grouped(n, groups, span, false);
        let cfg = configs::flexagon();
        let r_int = simulate_spgemm(&interleaved, &b, &cfg).unwrap();
        let r_grp = simulate_spgemm(&contiguous, &b, &cfg).unwrap();
        assert!(
            r_grp.b_bytes < r_int.b_bytes,
            "grouped {} vs interleaved {}",
            r_grp.b_bytes,
            r_int.b_bytes
        );
        // A and C traffic must be identical: reordering only changes B reuse.
        assert_eq!(r_grp.a_bytes, r_int.a_bytes);
        assert_eq!(r_grp.c_bytes, r_int.c_bytes);
    }

    #[test]
    fn more_pes_do_not_change_traffic_accounting_totals() {
        let a = grouped(128, 4, 8, true);
        let b = dense_b(32, 32);
        let mut one_pe = configs::gamma();
        one_pe.num_pes = 1;
        let r1 = simulate_spgemm(&a, &b, &one_pe).unwrap();
        let rn = simulate_spgemm(&a, &b, &configs::gamma()).unwrap();
        assert_eq!(r1.macs, rn.macs);
        assert_eq!(r1.a_bytes, rn.a_bytes);
        assert_eq!(r1.c_bytes, rn.c_bytes);
        // Single PE has a longer critical path.
        assert!(r1.max_pe_cycles >= rn.max_pe_cycles);
    }

    #[test]
    fn engine_cache_stats_match_scheduled_stream_replay() {
        // The analytical reuse profile and the engine must see the same B-row
        // stream: replaying `scheduled_b_row_stream` through an identical
        // cache reproduces the engine's hit/miss counts exactly.
        let a = grouped(96, 4, 8, true);
        let b = dense_b(32, 16);
        for cfg in [configs::gamma(), configs::flexagon()] {
            let report = simulate_spgemm(&a, &b, &cfg).unwrap();

            let row_first_line = fiber_first_lines(b.indptr(), &cfg);
            let mut cache = LruCache::new(cfg.num_sets(), cfg.ways);
            for k in bootes_sparse::schedule::scheduled_b_row_stream(&a, cfg.num_pes) {
                cache.access_range(row_first_line[k]..row_first_line[k + 1]);
            }
            assert_eq!(
                (cache.hits(), cache.misses()),
                (report.cache_hits, report.cache_misses),
                "config {}",
                cfg.name
            );
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::zeros(4, 5);
        let b = CsrMatrix::zeros(4, 5);
        assert!(simulate_spgemm(&a, &b, &configs::gamma()).is_err());
    }

    #[test]
    fn empty_matrices_are_fine() {
        let a = CsrMatrix::zeros(0, 0);
        let r = simulate_spgemm(&a, &a, &configs::flexagon()).unwrap();
        assert_eq!(r.macs, 0);
        assert_eq!(r.b_bytes, 0);
        let a = CsrMatrix::zeros(10, 10);
        let r = simulate_spgemm(&a, &a, &configs::flexagon()).unwrap();
        assert_eq!(r.cache_misses, 0);
    }

    #[test]
    fn symbolic_nnz_matches_real_product() {
        let a = grouped(40, 4, 6, true);
        let b = dense_b(24, 10);
        let c = ops::spgemm(&a, &b, 1).unwrap();
        assert_eq!(symbolic_nnz(&a, &b), c.nnz() as u64);
    }

    #[test]
    fn cycles_cover_both_bottlenecks() {
        let a = grouped(100, 2, 16, true);
        let b = dense_b(32, 128);
        let r = simulate_spgemm(&a, &b, &configs::flexagon()).unwrap();
        assert!(r.cycles >= r.dram_cycles);
        assert!(r.cycles >= r.max_pe_cycles);
        assert_eq!(r.cycles, r.dram_cycles.max(r.max_pe_cycles));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The span-bitset count matches the stamp reference on random
        /// operands: empty and full-width rows, a rectangular `B`, and column
        /// counts that are mostly not multiples of 64.
        #[test]
        fn symbolic_nnz_matches_reference(
            (m, k, n, seed) in (1usize..48, 1usize..40, 1usize..400, 0u64..1 << 32),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = mixed_rows(m, k, &mut rng);
            let b = mixed_rows(k, n, &mut rng);
            prop_assert_eq!(symbolic_nnz(&a, &b), reference_symbolic_nnz(&a, &b));
        }

        /// nnz(C) does not depend on the order of A's rows.
        #[test]
        fn symbolic_nnz_is_row_order_invariant(
            (m, k, n, seed) in (1usize..48, 1usize..40, 1usize..400, 0u64..1 << 32),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = mixed_rows(m, k, &mut rng);
            let b = mixed_rows(k, n, &mut rng);
            let mut order: Vec<usize> = (0..m).collect();
            order.shuffle(&mut rng);
            let permuted = Permutation::try_new(order).unwrap().apply_rows(&a).unwrap();
            prop_assert_eq!(symbolic_nnz(&permuted, &b), symbolic_nnz(&a, &b));
        }
    }
}

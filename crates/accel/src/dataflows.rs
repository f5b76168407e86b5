//! Inner-product and outer-product dataflow engines.
//!
//! The row-wise engine ([`crate::engine::simulate_spgemm`]) is the paper's
//! deployment target; these two siblings simulate the alternative dataflows
//! of §2.1 / Table 1 so the trade-offs can be *measured* rather than only
//! counted analytically:
//!
//! - **inner product** ([`simulate_inner`]): every output position `(i, j)`
//!   intersects row `A_i` with column `B_:,j`; columns of `B` stream through
//!   the shared cache, so `B` is heavily over-fetched and index
//!   intersections dominate compute.
//! - **outer product** ([`simulate_outer`]): column `k` of `A` pairs with
//!   row `k` of `B`; inputs are read exactly once, but every partial product
//!   spills to DRAM and is read back by the merge phase, so partial-sum
//!   traffic dominates.

use bootes_sparse::{CsrMatrix, SparseError};

use crate::cache::LruCache;
use crate::configs::AcceleratorConfig;
use crate::engine::fiber_first_lines;
use crate::error::AccelError;
use crate::report::TrafficReport;

const PTR_BYTES: u64 = 4;

fn check(a: &CsrMatrix, b: &CsrMatrix, cfg: &AcceleratorConfig) -> Result<(), AccelError> {
    cfg.validate()?;
    if a.ncols() != b.nrows() {
        return Err(AccelError::Sparse(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        }));
    }
    Ok(())
}

fn stream_bytes(nnz: usize, rows: usize, cfg: &AcceleratorConfig) -> u64 {
    nnz as u64 * cfg.elem_bytes as u64 + (rows as u64 + 1) * PTR_BYTES
}

/// Simulates the **inner-product** dataflow: `C[i,j] = A_i · B_:,j` with the
/// columns of `B` fetched through the shared cache.
///
/// # Errors
///
/// Same conditions as [`crate::engine::simulate_spgemm`].
///
/// Note: the inner product visits all `M·N` output positions; use small
/// operands (the Table-1 harness does).
pub fn simulate_inner(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &AcceleratorConfig,
) -> Result<TrafficReport, AccelError> {
    check(a, b, cfg)?;
    let b_csc = b.to_csc();

    // Column j of B occupies a contiguous, column-aligned line range.
    let col_first_line = fiber_first_lines(b_csc.indptr(), cfg);

    let mut cache = LruCache::new(cfg.num_sets(), cfg.ways);
    let mut macs = 0u64;
    let mut nnz_c = 0u64;
    let mut pe_cycles = vec![0u64; cfg.num_pes];

    for i in 0..a.nrows() {
        let pe = i % cfg.num_pes;
        let (acols, avals) = a.row(i);
        pe_cycles[pe] += 1;
        for j in 0..b.ncols() {
            let (brows, bvals) = b_csc.col(j);
            cache.access_range(col_first_line[j]..col_first_line[j + 1]);
            // Merge-intersect the sorted index lists; the intersection cost
            // is charged to the PE's cycle count.
            pe_cycles[pe] += (acols.len() + brows.len()) as u64;
            let mut p = 0;
            let mut q = 0;
            let mut acc = 0.0;
            while p < acols.len() && q < brows.len() {
                match acols[p].cmp(&brows[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        acc += avals[p] * bvals[q];
                        macs += 1;
                        p += 1;
                        q += 1;
                    }
                }
            }
            if acc != 0.0 {
                nnz_c += 1;
            }
        }
    }

    let a_bytes = stream_bytes(a.nnz(), a.nrows(), cfg);
    let compulsory_b = stream_bytes(b.nnz(), b.nrows(), cfg);
    let c_bytes = nnz_c * cfg.elem_bytes as u64 + (a.nrows() as u64 + 1) * PTR_BYTES;
    let b_bytes = cache.misses() * cfg.line_bytes as u64;
    let total = a_bytes + b_bytes + c_bytes;
    let dram_cycles = (total as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
    let max_pe_cycles = pe_cycles.iter().copied().max().unwrap_or(0);
    Ok(TrafficReport {
        accelerator: format!("{}-inner", cfg.name),
        a_bytes,
        b_bytes,
        c_bytes,
        compulsory_a: a_bytes,
        compulsory_b,
        compulsory_c: c_bytes,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        macs,
        cycles: dram_cycles.max(max_pe_cycles),
        dram_cycles,
        max_pe_cycles,
    })
}

/// Simulates the **outer-product** dataflow: for every `k`, the cross
/// product of column `A_:,k` and row `B_k` generates partial sums that spill
/// to DRAM and are read back once by the merge phase.
///
/// # Errors
///
/// Same conditions as [`crate::engine::simulate_spgemm`].
pub fn simulate_outer(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &AcceleratorConfig,
) -> Result<TrafficReport, AccelError> {
    check(a, b, cfg)?;
    let a_csc = a.to_csc();

    let mut macs = 0u64;
    let mut psum_count = 0u64;
    let mut pe_cycles = vec![0u64; cfg.num_pes];
    for k in 0..a.ncols() {
        let pe = k % cfg.num_pes;
        let products = a_csc.col_nnz(k) as u64 * b.row_nnz(k) as u64;
        macs += products;
        psum_count += products;
        pe_cycles[pe] += products.max(1);
    }
    // Merge phase: read every psum back and reduce; one compare-add each.
    let nnz_c = crate::engine::symbolic_nnz(a, b);
    for (pe, cycles) in pe_cycles.iter_mut().enumerate() {
        // Merge work distributed evenly, charged after generation.
        let share = psum_count / cfg.num_pes as u64;
        let extra = u64::from((pe as u64) < psum_count % cfg.num_pes as u64);
        *cycles += share + extra;
    }

    let a_bytes = stream_bytes(a.nnz(), a.nrows(), cfg);
    let compulsory_b = stream_bytes(b.nnz(), b.nrows(), cfg);
    // B streamed exactly once: its off-chip traffic equals its size.
    let b_bytes = compulsory_b;
    let psum_bytes = psum_count * cfg.elem_bytes as u64;
    let c_bytes =
        2 * psum_bytes + nnz_c * cfg.elem_bytes as u64 + (a.nrows() as u64 + 1) * PTR_BYTES;
    let total = a_bytes + b_bytes + c_bytes;
    let dram_cycles = (total as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
    let max_pe_cycles = pe_cycles.iter().copied().max().unwrap_or(0);
    Ok(TrafficReport {
        accelerator: format!("{}-outer", cfg.name),
        a_bytes,
        b_bytes,
        c_bytes,
        compulsory_a: a_bytes,
        compulsory_b,
        compulsory_c: nnz_c * cfg.elem_bytes as u64 + (a.nrows() as u64 + 1) * PTR_BYTES,
        cache_hits: 0,
        cache_misses: 0,
        macs,
        cycles: dram_cycles.max(max_pe_cycles),
        dram_cycles,
        max_pe_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::engine::simulate_spgemm;
    use bootes_sparse::CooMatrix;

    fn random_sparse(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut state = seed;
        for r in 0..n {
            for _ in 0..per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                coo.push(r, ((state >> 33) % n as u64) as usize, 1.0).ok();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn inner_overfetches_b_relative_to_row_wise() {
        let a = random_sparse(96, 6, 1);
        let cfg = {
            let mut c = configs::flexagon();
            c.cache_bytes = 4096;
            c
        };
        let inner = simulate_inner(&a, &a, &cfg).unwrap();
        let row = simulate_spgemm(&a, &a, &cfg).unwrap();
        assert!(
            inner.b_bytes > row.b_bytes,
            "inner {} <= row-wise {}",
            inner.b_bytes,
            row.b_bytes
        );
    }

    #[test]
    fn outer_reads_inputs_once_but_spills_psums() {
        let a = random_sparse(96, 6, 2);
        let cfg = configs::flexagon();
        let outer = simulate_outer(&a, &a, &cfg).unwrap();
        let row = simulate_spgemm(&a, &a, &cfg).unwrap();
        // Inputs exactly once.
        assert_eq!(outer.b_bytes, outer.compulsory_b);
        // Output-side traffic (psum spill + merge) dominates row-wise's C.
        assert!(outer.c_bytes > row.c_bytes);
        assert_eq!(outer.macs, row.macs);
    }

    #[test]
    fn all_dataflows_agree_on_compute_volume() {
        let a = random_sparse(64, 5, 3);
        let cfg = configs::gamma();
        let inner = simulate_inner(&a, &a, &cfg).unwrap();
        let outer = simulate_outer(&a, &a, &cfg).unwrap();
        let row = simulate_spgemm(&a, &a, &cfg).unwrap();
        assert_eq!(inner.macs, outer.macs);
        assert_eq!(outer.macs, row.macs);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::zeros(4, 5);
        let b = CsrMatrix::zeros(4, 5);
        let cfg = configs::gamma();
        assert!(simulate_inner(&a, &b, &cfg).is_err());
        assert!(simulate_outer(&a, &b, &cfg).is_err());
    }

    #[test]
    fn empty_operands() {
        let a = CsrMatrix::zeros(8, 8);
        let cfg = configs::trapezoid();
        let inner = simulate_inner(&a, &a, &cfg).unwrap();
        assert_eq!(inner.macs, 0);
        let outer = simulate_outer(&a, &a, &cfg).unwrap();
        assert_eq!(outer.macs, 0);
    }
}

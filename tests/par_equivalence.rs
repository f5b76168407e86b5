//! Property-based bit-equivalence of every parallel kernel across thread
//! counts, through the public facade.
//!
//! The worker pool, chunk oversubscription, and per-thread scratch reuse all
//! change *how* work is scheduled; these properties pin that none of it
//! changes *what* is computed: for any generated matrix, every thread count
//! in {1, 2, 4, 8} (which exercises the serial-inline path, pool dispatch,
//! and oversubscribed chunk claiming, regardless of the host's CPU count)
//! must produce output bit-identical to the 1-thread run — for SpGEMM and
//! the pattern SpMV behind the implicit Laplacian. Floats are compared via
//! `to_bits`, so `-0.0 != 0.0` and no epsilon can hide a reassociated sum.
//! The generated shapes are rectangular and include empty rows and all-zero
//! matrices (`0..max_nnz` triplets); the degenerate shapes are also pinned
//! deterministically below.

use bootes::sparse::ops::spgemm;
use bootes::sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// Thread counts every kernel is swept over (beyond the host CPU count on
/// purpose: oversubscription must also be bit-exact).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Strategy: an `r x c` matrix from `0..max_nnz` random signed triplets (so
/// cancellation and sign handling are exercised; duplicate coordinates
/// collapse in `to_csr`, and unreferenced rows stay empty).
fn sized(r: usize, c: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..r, 0..c, -5.0f64..5.0), 0..max_nnz).prop_map(move |trips| {
        let mut coo = CooMatrix::new(r, c);
        for (i, j, v) in trips {
            coo.push(i, j, v).expect("in range by construction");
        }
        coo.to_csr()
    })
}

/// Strategy: a conforming (`a`, `b`) SpGEMM pair with a shared inner dim.
fn spgemm_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..max_dim, 1..max_dim, 1..max_dim)
        .prop_flat_map(move |(m, k, n)| (sized(m, k, max_nnz), sized(k, n, max_nnz)))
}

/// Exact (bitwise) equality of two CSR matrices.
fn bit_identical(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.shape() == b.shape()
        && a.iter().count() == b.iter().count()
        && a.iter().zip(b.iter()).all(|((ri, ci, vi), (rj, cj, vj))| {
            ri == rj && ci == cj && vi.to_bits() == vj.to_bits()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SpGEMM is bit-identical across thread counts.
    #[test]
    fn spgemm_bit_identical_across_threads((a, b) in spgemm_pair(20, 120)) {
        let serial = spgemm(&a, &b, 1).expect("valid operands");
        for t in THREAD_COUNTS {
            let out = spgemm(&a, &b, t).expect("valid operands");
            prop_assert!(bit_identical(&out, &serial), "spgemm t={t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pattern SpMV is bit-identical across thread counts, and to
    /// `matvec_into` on the binary pattern, on shapes past the 2^14-nnz
    /// cutoff so the chunked path runs. Row lengths vary from empty to a
    /// few hundred within one matrix.
    #[test]
    fn pattern_spmv_bit_identical_across_threads(
        (nrows, ncols, seed) in (300usize..700, 200usize..500, 0u64..u64::MAX),
    ) {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut state = seed;
        for r in 0..nrows {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = match state >> 62 {
                0 => 0,
                1 => (state >> 40) as usize % 8,
                _ => (state >> 40) as usize % ncols,
            };
            for t in 0..len {
                coo.push(r, (r * 31 + t * 17) % ncols, -1.5).expect("in range");
            }
        }
        let a = coo.to_csr();
        prop_assume!(a.nnz() >= 1 << 14);
        let bin = a.to_binary();
        let x: Vec<f64> = (0..ncols).map(|i| ((i * 37) % 19) as f64 * 0.3 - 2.7).collect();
        let mut want = vec![f64::NAN; nrows];
        bin.matvec_into(&x, &mut want);
        for t in THREAD_COUNTS {
            let mut y = vec![f64::NAN; nrows];
            a.par_pattern_matvec_into(&x, &mut y, t);
            let same = y.iter().zip(&want).all(|(p, s)| p.to_bits() == s.to_bits());
            prop_assert!(same, "pattern spmv t={t}");
        }
    }
}

#[test]
fn zero_and_tall_shapes_bit_identical_across_threads() {
    // The degenerate shapes the strategies only sometimes produce: an
    // all-zero operand and a tall matrix with interior empty rows.
    let zero = CsrMatrix::zeros(6, 5);
    let tall = CsrMatrix::try_new(
        5,
        4,
        vec![0, 2, 2, 3, 3, 4],
        vec![0, 3, 1, 2],
        vec![1.0, -2.0, 4.0, 0.5],
    )
    .expect("valid csr");
    for t in THREAD_COUNTS {
        assert_eq!(
            spgemm(&zero, &CsrMatrix::zeros(5, 3), t).unwrap(),
            CsrMatrix::zeros(6, 3)
        );
        assert_eq!(
            spgemm(&tall, &CsrMatrix::zeros(4, 7), t).unwrap(),
            CsrMatrix::zeros(5, 7)
        );
        assert!(bit_identical(
            &spgemm(&tall, &tall.transpose(), t).unwrap(),
            &spgemm(&tall, &tall.transpose(), 1).unwrap()
        ));
    }
}

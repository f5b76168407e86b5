//! Property-based bit-equivalence of the parallel pattern SpMV across
//! thread counts, through the public facade.
//!
//! The worker pool and chunk oversubscription change *how* work is
//! scheduled; this property pins that neither changes *what* is computed:
//! for any generated matrix, every thread count in {1, 2, 4, 8} (which
//! exercises the serial-inline path, pool dispatch, and oversubscribed
//! chunk claiming, regardless of the host's CPU count) must produce output
//! bit-identical to `matvec_into` on the binary pattern — the product
//! behind the implicit Laplacian. Floats are compared via `to_bits`, so
//! `-0.0 != 0.0` and no epsilon can hide a reassociated sum.

use bootes::sparse::CooMatrix;
use proptest::prelude::*;

/// Thread counts the kernel is swept over (beyond the host CPU count on
/// purpose: oversubscription must also be bit-exact).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

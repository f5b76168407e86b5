//! "No-panic" property suite: arbitrary small valid CSR matrices through the
//! guarded reordering chain, under hostile conditions — tiny iteration and
//! time budgets and both serial and 4-thread execution — must always return
//! `Ok` with a valid permutation of the row count. Budgets and thread counts
//! are process-global, so the property body holds [`GlobalState`].

mod common;

use bootes::core::{BootesConfig, FallbackReorderer};
use bootes::guard::Budget;
use bootes::reorder::Reorderer;
use bootes::sparse::{CooMatrix, CsrMatrix};
use common::GlobalState;
use proptest::prelude::*;

/// Strategy: a small square CSR matrix with clustered-ish values.
fn small_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.5f64..5.0), 0..160).prop_map(move |trips| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in trips {
                coo.push(i, j, v).expect("in range by construction");
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The guarded chain never fails and never panics, whatever the matrix,
    /// budget, or thread count.
    #[test]
    fn guarded_chain_always_returns_a_valid_permutation(
        a in small_matrix(),
        iter_cap in 1u64..40,
        threads_sel in 0usize..2,
        k_sel in 0usize..3,
    ) {
        // The vendored proptest stand-in has no `prop_oneof`; select from
        // small index ranges instead.
        let threads = [1usize, 4][threads_sel];
        let k = [2usize, 4, 8][k_sel];
        let _state = GlobalState::lock();
        bootes::par::set_threads(threads);
        let armed = Budget::unlimited().with_iterations(iter_cap).arm();
        let result = FallbackReorderer::new(BootesConfig::default().with_k(k)).reorder(&a);
        drop(armed);
        let out = result.expect("guarded chain must not fail");
        prop_assert_eq!(out.permutation.len(), a.nrows());
        // A Permutation is a bijection by construction; double-check the
        // row-application round-trips to the same nnz.
        let b = out.permutation.apply_rows(&a).expect("valid permutation");
        prop_assert_eq!(b.nnz(), a.nnz());
    }

    /// Same property under a zero wall-clock budget: everything degrades to
    /// the identity ordering, nothing errors.
    #[test]
    fn zero_time_budget_never_errors(a in small_matrix()) {
        let _state = GlobalState::lock();
        let armed = Budget::unlimited().with_time_ms(0).arm();
        let result = FallbackReorderer::new(BootesConfig::default().with_k(4)).reorder(&a);
        drop(armed);
        let out = result.expect("guarded chain must not fail");
        prop_assert_eq!(out.permutation.len(), a.nrows());
    }
}

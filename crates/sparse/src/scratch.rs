//! Per-thread reusable kernel scratch.
//!
//! The Gustavson kernels need an `O(ncols)` dense accumulator (or a hash
//! map) per worker. Allocating and zeroing it per *chunk* — the pre-PR-7
//! behavior — made total work grow with the chunk count, which is exactly
//! how the parallel SpGEMM ended up slower than serial. Workers are now
//! persistent pool threads, so the scratch lives in thread-local storage:
//! each worker zeroes its dense buffer once, and every row/chunk afterwards
//! resets only the entries it actually touched (tracked in a touched-list,
//! à la Nagasaka et al.'s thread-private SPA).
//!
//! # Invariants and panic recovery
//!
//! A dense scratch is handed out **all-zero** and must be returned all-zero
//! (the kernels re-zero touched entries as they gather each row). A `dirty`
//! flag guards panics: it is set before the closure runs and cleared only on
//! normal return, so a chunk that panicked mid-row (isolated by
//! `bootes-par`) leaves the flag set and the next acquisition re-zeroes the
//! whole buffer instead of trusting the touched-list discipline.
//!
//! Nested acquisition (a kernel running inline inside another kernel's chunk
//! on the same thread) falls back to a fresh local allocation instead of
//! aliasing the thread's scratch.

use std::cell::RefCell;
use std::collections::HashMap;

/// Dense `f64` accumulator + touched-list.
struct DenseScratch {
    buf: Vec<f64>,
    touched: Vec<usize>,
    dirty: bool,
}

impl DenseScratch {
    const fn new() -> Self {
        DenseScratch {
            buf: Vec::new(),
            touched: Vec::new(),
            dirty: false,
        }
    }

    /// Ensures an all-zero prefix of length `n`: recovers from a previous
    /// panic (full re-zero) and grows the buffer as needed.
    fn prepare(&mut self, n: usize) {
        if self.dirty {
            self.buf.fill(0.0);
            self.touched.clear();
            self.dirty = false;
        }
        if self.buf.len() < n {
            self.buf.resize(n, 0.0);
        }
    }
}

thread_local! {
    static DENSE_F64: RefCell<DenseScratch> = const { RefCell::new(DenseScratch::new()) };
    #[allow(clippy::type_complexity)]
    static HASH_F64: RefCell<(HashMap<usize, f64>, Vec<(usize, f64)>)> =
        RefCell::new((HashMap::new(), Vec::new()));
}

/// Runs `f` with this thread's reusable `f64` dense accumulator (first `n`
/// entries zeroed) and its touched-list. `f` must leave every touched entry
/// back at `0.0` (the standard gather-and-reset row loop does); the
/// touched-list is cleared on return either way.
pub(crate) fn with_dense_f64<R>(n: usize, f: impl FnOnce(&mut [f64], &mut Vec<usize>) -> R) -> R {
    DENSE_F64.with(|cell| match cell.try_borrow_mut() {
        Ok(mut borrow) => {
            let s = &mut *borrow;
            s.prepare(n);
            s.dirty = true;
            let out = f(&mut s.buf[..n], &mut s.touched);
            s.touched.clear();
            s.dirty = false;
            out
        }
        // Nested acquisition on this thread: fall back to a one-off
        // allocation rather than aliasing the outer kernel's scratch.
        Err(_) => f(&mut vec![0.0; n], &mut Vec::new()),
    })
}

/// Runs `f` with this thread's reusable hash accumulator and sorted-gather
/// row buffer. Both are handed out empty (cleared at entry, so a panicked
/// predecessor can't leak state) with whatever capacity earlier chunks
/// built up.
pub(crate) fn with_hash_f64<R>(
    f: impl FnOnce(&mut HashMap<usize, f64>, &mut Vec<(usize, f64)>) -> R,
) -> R {
    HASH_F64.with(|cell| match cell.try_borrow_mut() {
        Ok(mut borrow) => {
            let (map, rowbuf) = &mut *borrow;
            map.clear();
            rowbuf.clear();
            f(map, rowbuf)
        }
        Err(_) => f(&mut HashMap::new(), &mut Vec::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_scratch_is_zeroed_and_reused() {
        let ptr1 = with_dense_f64(64, |buf, touched| {
            assert!(buf.iter().all(|&v| v == 0.0));
            buf[7] = 3.0;
            touched.push(7);
            buf[7] = 0.0;
            buf.as_ptr() as usize
        });
        let ptr2 = with_dense_f64(32, |buf, _| {
            assert!(buf.iter().all(|&v| v == 0.0));
            buf.as_ptr() as usize
        });
        assert_eq!(ptr1, ptr2, "same thread reuses the same allocation");
    }

    #[test]
    fn dense_scratch_recovers_from_panic() {
        // A panicking user leaves entries set; the dirty flag forces a full
        // re-zero on the next acquisition.
        let caught = std::panic::catch_unwind(|| {
            with_dense_f64(16, |buf, touched| {
                buf[3] = 42.0;
                touched.push(3);
                panic!("mid-row failure");
            })
        });
        assert!(caught.is_err());
        with_dense_f64(16, |buf, touched| {
            assert!(buf.iter().all(|&v| v == 0.0), "panic residue not re-zeroed");
            assert!(touched.is_empty());
        });
    }

    #[test]
    fn nested_acquisition_falls_back_to_fresh_buffer() {
        with_dense_f64(8, |outer, _| {
            outer[0] = 1.0;
            with_dense_f64(8, |inner, _| {
                assert!(inner.iter().all(|&v| v == 0.0), "inner must not alias");
                assert_ne!(outer.as_ptr(), inner.as_ptr());
            });
            outer[0] = 0.0;
        });
    }

    #[test]
    fn hash_scratch_starts_empty_keeps_capacity() {
        with_hash_f64(|map, rowbuf| {
            map.insert(9, 1.5);
            rowbuf.push((9, 1.5));
        });
        with_hash_f64(|map, rowbuf| {
            assert!(map.is_empty());
            assert!(rowbuf.is_empty());
            assert!(map.capacity() > 0, "capacity survives across uses");
        });
    }
}

//! Process-global state shared by the tests of one integration-test binary.
//!
//! The artifact cache (`bootes::cache::install`) and the kernel thread count
//! (`bootes::par::set_threads`) are process-wide, and the tests of one binary
//! run on parallel threads. A test that touches either holds a
//! [`GlobalState`] for its whole body. Failpoints have their own guard,
//! `bootes::guard::ScopedFailpoints`.

use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-global cache and thread count. Taking it
/// waits for every other holder in this binary; a holder that panicked does
/// not poison it. Dropping it uninstalls the cache and clears the thread
/// override, also when the test failed, so the next holder starts clean.
pub struct GlobalState {
    _lock: MutexGuard<'static, ()>,
}

impl GlobalState {
    /// Waits for the process-global state and takes it.
    pub fn lock() -> Self {
        GlobalState {
            _lock: LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        }
    }
}

impl Drop for GlobalState {
    fn drop(&mut self) {
        bootes::cache::uninstall();
        bootes::par::set_threads(0);
    }
}

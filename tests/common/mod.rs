//! Helpers shared by the integration-test binaries.
//!
//! The artifact cache (`bootes::cache::install`), the kernel thread count
//! (`bootes::par::set_threads`) and the obs registry (`bootes::obs`) are
//! process-wide, and the tests of one binary run on parallel threads. A test
//! that touches any of them holds a [`GlobalState`] for its whole body.
//! Failpoints have their own guard, `bootes::guard::ScopedFailpoints`. A
//! test that holds both for its whole body takes `ScopedFailpoints` first;
//! within one binary every test takes the two in one order, so no two tests
//! wait on each other.
//!
//! [`assert_golden`] compares a snapshot with its file under
//! `tests/fixtures/`, or rewrites the file under `BOOTES_BLESS=1`.

// Each test binary compiles its own copy and uses only part of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-global cache, thread count and obs
/// registry. Taking it waits for every other holder in this binary; a holder
/// that panicked does not poison it. Dropping it uninstalls the cache,
/// clears the thread override, turns profiling off and empties the obs
/// registry, also when the test failed, so the next holder starts clean.
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
        bootes::obs::set_enabled(false);
        bootes::obs::reset();
    }
}

/// Checks that `got` equals the golden file `tests/fixtures/{name}` less its
/// trailing whitespace, and panics naming the first line that differs. With
/// `BOOTES_BLESS=1` it writes `got` to the file instead.
pub fn assert_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let bless = "if the change is intended, regenerate with `BOOTES_BLESS=1 cargo test`";
    if std::env::var("BOOTES_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, format!("{got}\n"))
            .unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `BOOTES_BLESS=1 cargo test` to create it",
            path.display()
        )
    });
    let want = want.trim_end();
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => panic!(
                "line {line} of {} differs;\n{bless}\nwant: {}\n got: {}",
                path.display(),
                w.unwrap_or("(end of file)"),
                g.unwrap_or("(end of output)"),
            ),
        }
    }
    // `lines` reads `\r\n` as `\n` and drops one trailing newline.
    assert_eq!(
        want,
        got,
        "{} differs only in line endings;\n{bless}",
        path.display()
    );
}

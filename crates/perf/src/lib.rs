#![warn(missing_docs)]
//! Statistically rigorous benchmarking and perf-regression gating.
//!
//! The paper's central claim is a *measured* one, so this crate is the
//! measurement discipline the rest of the workspace reports through:
//!
//! - [`Runner`]: warmup + N-repeat measurement of closures, summarized as
//!   median / MAD / min / max / mean with full environment capture (thread
//!   policy, CPU count, git revision, config hash) — see [`stats`] for the
//!   estimators,
//! - [`history`]: an append-only `results/history/<bench>.jsonl` ledger of
//!   every run, one JSON record per case per run,
//! - [`baseline`]: blessed per-bench baselines (`results/baselines/
//!   <bench>.json`), written when `BOOTES_BLESS_PERF=1`,
//! - [`diff`]: the noise-aware comparator behind `bootes perf diff` — a case
//!   regresses only if its median slowdown exceeds
//!   `max(rel_threshold · baseline, k · MAD, abs_floor)`, so gating stays
//!   non-flaky on noisy shared machines,
//! - [`speedup`]: the parallel-speedup floor gate behind `bootes perf
//!   speedup` — fails when a kernel's measured speedup at the gate thread
//!   count drops below its floor (clamp- and noise-aware),
//! - [`rates`]: achieved MFLOP/s and GB/s per kernel, pairing the
//!   `kernel.flops{kernel=X}` / `kernel.bytes{kernel=X}` accounting counters
//!   with the matching `par.region.wall_ns{region=X}` region clock.
//!
//! Median-of-repeats plus MAD (median absolute deviation) is the standard
//! robust pairing: one preempted repeat shifts neither estimator, whereas a
//! mean/stddev gate trips on every scheduler hiccup.

pub mod baseline;
pub mod diff;
pub mod history;
pub mod rates;
pub mod runner;
pub mod speedup;
pub mod stats;

pub use baseline::{bless, load_baseline, Baseline, BaselineCase};
pub use diff::{diff_benches, render_diff, CaseDiff, DiffConfig, DiffReport, DiffStatus};
pub use history::{append_history, history_path, latest_run, load_history};
pub use rates::{kernel_rates, render_rates, KernelRate};
pub use runner::{BenchEnv, Measurement, Runner};
pub use speedup::{
    check_speedup, load_speedup_rows, render_speedup, SpeedupConfig, SpeedupReport, SpeedupRow,
};
pub use stats::{mad, median, summarize, Summary};

use std::path::{Path, PathBuf};

/// The workspace root this crate was built in (`CARGO_MANIFEST_DIR` is
/// `crates/perf`).
fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Directory where harness outputs are written (`results/` at the workspace
/// root, overridable with `BOOTES_RESULTS`). Benchmarks, baselines, and the
/// run history all live under this root.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BOOTES_RESULTS") {
        return PathBuf::from(dir);
    }
    workspace_root().join("results")
}

/// `path` as a harness log prints it: relative to the workspace root when it
/// lies under it, as the default [`results_dir`] does, so the log reads the
/// same in every checkout; any other path as given.
pub fn log_path(path: &Path) -> &Path {
    path.strip_prefix(workspace_root()).unwrap_or(path)
}

/// Whether this process should bless (overwrite) perf baselines
/// (`BOOTES_BLESS_PERF=1`).
pub fn blessing() -> bool {
    std::env::var("BOOTES_BLESS_PERF").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_path_drops_the_checkout_prefix() {
        let saved = workspace_root()
            .join("results")
            .join("table1_dataflows.json");
        assert_eq!(log_path(&saved), Path::new("results/table1_dataflows.json"));
        let elsewhere = Path::new("/elsewhere/table1_dataflows.json");
        assert_eq!(log_path(elsewhere), elsewhere);
    }
}

//! Parallel-speedup floor gate over `results/par_speedup.json`.
//!
//! The regression [`crate::diff`] gate compares a kernel against *its own
//! past*; this module gates a different failure mode: parallelism that
//! silently stops helping. The `par_speedup` bench sweeps each kernel over
//! thread counts and records the speedup versus its own 1-thread median;
//! [`check_speedup`] fails when the measured speedup at the gate thread
//! count falls below a per-kernel floor (the PR-7 bug class — a 0.89×
//! "speedup" at 4 threads — can then never land silently again).
//!
//! Two guards keep the gate honest rather than flaky:
//!
//! - **Oversubscription awareness.** Rows whose workers outnumbered the
//!   hardware CPUs are skipped with a warning — a 4-thread floor is
//!   meaningless on a 1-CPU container, and failing there would train people
//!   to ignore the gate.
//! - **Noise awareness.** The compared speedup is the *optimistic* estimate
//!   `serial_median / max(par_median − k·MAD, ε)`: the gate only fails when
//!   even after crediting the parallel row its full noise band it still
//!   misses the floor.
//!
//! A floor whose kernel has no t=1/t=[`GATE_THREADS`] row pair in the file
//! fails too, so a floor left on a kernel the bench stopped sweeping cannot
//! pass unchecked.

use serde::{Deserialize, Serialize};

/// Thread count the floors are gated at.
pub const GATE_THREADS: usize = 4;

/// One row of `results/par_speedup.json` (written by the `par_speedup`
/// bench). The worker fields are absent in older files and default off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Kernel name, e.g. `"spmv"`.
    pub kernel: String,
    /// Nonzeros of the benched operand.
    pub nnz: usize,
    /// Nominal thread count of this row.
    pub threads: usize,
    /// Median wall time (ms) across repeats.
    pub median_ms: f64,
    /// Median absolute deviation (ms).
    pub mad_ms: f64,
    /// Fastest repeat (ms).
    pub min_ms: f64,
    /// `median(t=1) / median(t=threads)`, as measured.
    pub speedup: f64,
    /// Worker imbalance (max/mean busy) from the obs attribution.
    pub imbalance: f64,
    /// Worker utilization (Σ busy / workers·wall) from the obs attribution.
    pub utilization: f64,
    /// Pool workers each timed call ran; an explicit per-call thread count
    /// is not clamped to the hardware.
    #[serde(default)]
    pub workers: usize,
    /// True when `workers` exceeded the host's CPUs (they shared cores).
    #[serde(default)]
    pub oversubscribed: bool,
}

/// Configuration of the floor gate.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupConfig {
    /// `(kernel, minimum speedup)` floors checked at [`GATE_THREADS`].
    pub floors: Vec<(String, f64)>,
    /// MADs of slack credited to the parallel median before comparing.
    pub k_mad: f64,
}

impl Default for SpeedupConfig {
    fn default() -> Self {
        SpeedupConfig {
            // The one parallel kernel `par_speedup` sweeps, at the floor CI
            // passes; other kernels come in through `--floor` flags.
            floors: vec![("spmv".to_string(), 1.5)],
            k_mad: 3.0,
        }
    }
}

/// Verdict for one gated kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupVerdict {
    /// Kernel the floor applies to.
    pub kernel: String,
    /// Required minimum speedup at [`GATE_THREADS`].
    pub floor: f64,
    /// Raw measured speedup.
    pub measured: f64,
    /// Noise-credited speedup actually compared against the floor.
    pub adjusted: f64,
    /// Whether the kernel met its floor.
    pub passed: bool,
}

/// Result of gating one result file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpeedupReport {
    /// One verdict per configured floor that was actually compared.
    pub verdicts: Vec<SpeedupVerdict>,
    /// Kernels with a floor but no t=1/t=[`GATE_THREADS`] row pair in the
    /// file. Each counts as a failure: a floor on a kernel the bench no
    /// longer sweeps would otherwise pass forever.
    pub missing: Vec<String>,
    /// Floors that failed, missing ones included.
    pub failures: usize,
    /// Floors skipped because their row ran oversubscribed.
    pub warnings: Vec<String>,
}

impl SpeedupReport {
    /// Whether the gate passes (no floor failed).
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Loads a `par_speedup.json` result file.
///
/// # Errors
///
/// Propagates the read error (including `NotFound`, which callers may treat
/// as "bench not run yet"); a parse failure maps to `InvalidData`.
pub fn load_speedup_rows(path: &std::path::Path) -> std::io::Result<Vec<SpeedupRow>> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Gates `rows` (one parsed `par_speedup.json`) against `cfg`'s floors.
pub fn check_speedup(rows: &[SpeedupRow], cfg: &SpeedupConfig) -> SpeedupReport {
    let mut report = SpeedupReport::default();
    for (kernel, floor) in &cfg.floors {
        let serial = rows.iter().find(|r| r.kernel == *kernel && r.threads == 1);
        let par = rows
            .iter()
            .find(|r| r.kernel == *kernel && r.threads == GATE_THREADS);
        let (Some(serial), Some(par)) = (serial, par) else {
            report.missing.push(kernel.clone());
            report.failures += 1;
            continue;
        };
        if par.oversubscribed {
            report.warnings.push(format!(
                "{kernel}: t={GATE_THREADS} row ran {} workers on fewer cpus — floor not \
                 checked (re-run on a ≥{GATE_THREADS}-cpu machine)",
                par.workers
            ));
            continue;
        }
        // Credit the parallel median its noise band; only a clear miss fails.
        let slack = cfg.k_mad * par.mad_ms.max(serial.mad_ms);
        let adjusted = serial.median_ms / (par.median_ms - slack).max(f64::EPSILON);
        let passed = adjusted >= *floor;
        if !passed {
            report.failures += 1;
        }
        report.verdicts.push(SpeedupVerdict {
            kernel: kernel.clone(),
            floor: *floor,
            measured: par.speedup,
            adjusted,
            passed,
        });
    }
    report
}

/// Renders a report as the fixed-width text the CLI prints.
pub fn render_speedup(report: &SpeedupReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in &report.verdicts {
        let _ = writeln!(
            out,
            "{:<24} t={} speedup {:.2}x (noise-adjusted {:.2}x) floor {:.2}x -> {}",
            v.kernel,
            GATE_THREADS,
            v.measured,
            v.adjusted,
            v.floor,
            if v.passed { "ok" } else { "BELOW FLOOR" }
        );
    }
    for kernel in &report.missing {
        let _ = writeln!(
            out,
            "{kernel:<24} no t=1/t={GATE_THREADS} row pair in the result file -> MISSING"
        );
    }
    for w in &report.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    let _ = writeln!(
        out,
        "{} floor(s) checked, {} failure(s) -> {}",
        report.verdicts.len(),
        report.failures,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, threads: usize, median_ms: f64, mad_ms: f64) -> SpeedupRow {
        SpeedupRow {
            kernel: kernel.to_string(),
            nnz: 1_000,
            threads,
            median_ms,
            mad_ms,
            min_ms: median_ms - mad_ms,
            speedup: 0.0,
            imbalance: 1.0,
            utilization: 1.0,
            workers: threads,
            oversubscribed: false,
        }
    }

    fn sweep(kernel: &str, serial_ms: f64, par4_ms: f64) -> Vec<SpeedupRow> {
        let mut r1 = row(kernel, 1, serial_ms, serial_ms * 0.01);
        r1.speedup = 1.0;
        let mut r4 = row(kernel, 4, par4_ms, par4_ms * 0.01);
        r4.speedup = serial_ms / par4_ms;
        vec![r1, r4]
    }

    #[test]
    fn meeting_the_floor_passes() {
        let rows = sweep("spmv", 400.0, 160.0); // 2.5x
        let report = check_speedup(&rows, &SpeedupConfig::default());
        assert!(report.passed());
        assert_eq!(report.verdicts.len(), 1);
        assert!(report.verdicts[0].passed);
        assert!(report.verdicts[0].adjusted > 2.0);
    }

    #[test]
    fn parallel_slowdown_fails_the_floor() {
        // The pre-fix pathology: 4 threads slower than 1.
        let rows = sweep("spmv", 435.0, 489.0); // 0.89x
        let report = check_speedup(&rows, &SpeedupConfig::default());
        assert!(!report.passed());
        assert_eq!(report.failures, 1);
        assert!(render_speedup(&report).contains("BELOW FLOOR"));
    }

    #[test]
    fn noise_band_saves_a_borderline_row() {
        // Raw speedup 1.38x misses a 1.5x floor, but a large MAD on the
        // parallel row brings the optimistic estimate above it.
        let mut rows = sweep("spmv", 400.0, 290.0);
        rows[1].mad_ms = 10.0; // 3·10 ms credit -> 400/260 = 1.54x
        let report = check_speedup(&rows, &SpeedupConfig::default());
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn oversubscribed_rows_are_skipped_with_a_warning() {
        let mut rows = sweep("spmv", 435.0, 489.0);
        rows[1].oversubscribed = true;
        let report = check_speedup(&rows, &SpeedupConfig::default());
        assert!(report.passed(), "oversubscribed row must not fail the gate");
        assert!(report.verdicts.is_empty());
        assert!(report.warnings.iter().any(|w| w.contains("on fewer cpus")));
    }

    #[test]
    fn a_floor_without_rows_fails_the_gate() {
        // A floor left on a kernel the bench no longer sweeps must not pass
        // unchecked.
        let cfg = SpeedupConfig {
            floors: vec![("spmv".to_string(), 1.5), ("spgemm".to_string(), 1.8)],
            ..SpeedupConfig::default()
        };
        let report = check_speedup(&sweep("spmv", 400.0, 160.0), &cfg);
        assert!(!report.passed(), "{report:?}");
        assert_eq!(report.failures, 1);
        let text = render_speedup(&report);
        assert!(
            text.contains("spgemm") && text.contains("MISSING"),
            "{text}"
        );
        assert!(!check_speedup(&[], &SpeedupConfig::default()).passed());
    }

    #[test]
    fn rows_without_worker_fields_parse_and_gate() {
        let text = r#"[{
            "kernel": "spmv", "nnz": 10, "threads": 1,
            "median_ms": 400.0, "mad_ms": 1.0, "min_ms": 399.0,
            "speedup": 1.0, "imbalance": 1.0, "utilization": 1.0
        }, {
            "kernel": "spmv", "nnz": 10, "threads": 4,
            "median_ms": 100.0, "mad_ms": 1.0, "min_ms": 99.0,
            "speedup": 4.0, "imbalance": 1.0, "utilization": 1.0
        }]"#;
        let rows: Vec<SpeedupRow> = serde_json::from_str(text).unwrap();
        assert!(!rows[0].oversubscribed);
        let report = check_speedup(&rows, &SpeedupConfig::default());
        assert!(report.passed());
        assert_eq!(report.verdicts.len(), 1);
    }
}

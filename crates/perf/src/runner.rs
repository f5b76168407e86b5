//! The warmup + N-repeat measurement loop every bench binary routes through.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::stats::{summarize, Summary};

/// Environment captured with every measurement, so a history record is
/// interpretable long after the machine or configuration changed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEnv {
    /// Worker-thread policy in effect ([`bootes_par::threads`]) — already
    /// clamped to the hardware.
    pub threads: usize,
    /// Thread count the configuration *asked* for
    /// ([`bootes_par::requested_threads`]), before clamping.
    #[serde(default)]
    pub requested_threads: usize,
    /// True when `requested_threads` exceeded the hardware and was clamped
    /// down. Perf comparisons must never treat a clamped run as equal to an
    /// unclamped one at the same nominal thread count.
    #[serde(default)]
    pub threads_clamped: bool,
    /// Hardware threads available to the process.
    pub cpus: usize,
    /// Short git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// FNV-1a hash over the `BOOTES_*` environment (sorted), so two runs
    /// with different scales/knobs are never compared as equals.
    pub config_hash: String,
    /// Unix timestamp (seconds) when the run started.
    pub timestamp_unix: u64,
}

impl BenchEnv {
    /// Captures the current process environment.
    pub fn capture() -> Self {
        BenchEnv {
            threads: bootes_par::threads(),
            requested_threads: bootes_par::requested_threads(),
            threads_clamped: bootes_par::threads_clamped(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev(),
            config_hash: config_hash(),
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every `BOOTES_*` env var (name=value, sorted by name),
/// excluding the perf-runner's own knobs so rep-count changes don't split
/// histories.
fn config_hash() -> String {
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BOOTES_"))
        .filter(|(k, _)| {
            !matches!(
                k.as_str(),
                "BOOTES_PERF_REPS" | "BOOTES_PERF_WARMUP" | "BOOTES_BLESS_PERF"
            )
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vars.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in vars.join("\n").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// One measured case: the robust timing summary plus everything needed to
/// compare it against other runs. This is the record type of the history
/// ledger and the "current" side of `bootes perf diff`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Bench (suite) name, e.g. `"perf_smoke"` — one history file each.
    pub bench: String,
    /// Case name within the bench, e.g. `"spgemm/t4"`.
    pub case: String,
    /// Unit of the samples (always `"ns"` today).
    pub unit: String,
    /// Number of warmup executions discarded before sampling.
    pub warmup: usize,
    /// Number of timed repeats behind the summary.
    pub reps: usize,
    /// Robust summary of the repeats.
    pub summary: Summary,
    /// Raw samples in execution order (kept for re-analysis).
    pub samples: Vec<f64>,
    /// Environment the case ran under.
    pub env: BenchEnv,
}

/// Warmup + N-repeat measurement harness for one bench binary.
///
/// ```
/// let mut runner = bootes_perf::Runner::new("doc_example");
/// runner.measure("noop", || {});
/// let records = runner.into_measurements();
/// assert_eq!(records[0].case, "noop");
/// ```
#[derive(Debug)]
pub struct Runner {
    bench: String,
    warmup: usize,
    reps: usize,
    env: BenchEnv,
    records: Vec<Measurement>,
}

fn env_count(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
}

impl Runner {
    /// Creates a runner for the named bench. Repeat counts come from
    /// `BOOTES_PERF_REPS` (default 5, at least 1) and `BOOTES_PERF_WARMUP`
    /// (default 1; 0 runs no warmup).
    pub fn new(bench: &str) -> Self {
        Runner {
            bench: bench.to_string(),
            warmup: env_count("BOOTES_PERF_WARMUP", 1),
            reps: env_count("BOOTES_PERF_REPS", 5).max(1),
            env: BenchEnv::capture(),
            records: Vec::new(),
        }
    }

    /// Overrides the repeat counts (tests and quick smoke runs).
    pub fn with_counts(mut self, warmup: usize, reps: usize) -> Self {
        self.warmup = warmup;
        self.reps = reps.max(1);
        self
    }

    /// Bench name this runner records under.
    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// Runs `f` `warmup` times untimed, then `reps` times timed, and records
    /// the robust summary under `case`. Returns the new measurement.
    pub fn measure<R>(&mut self, case: &str, mut f: impl FnMut() -> R) -> &Measurement {
        self.measure_with_setup(case, || (), |()| f())
    }

    /// [`Runner::measure`] for a case whose every execution needs fresh
    /// state (an empty cache, a new directory): before each of the warmup
    /// and timed executions, `setup` runs untimed and its output is handed
    /// to `f`, and only `f` is timed.
    pub fn measure_with_setup<S, R>(
        &mut self,
        case: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> &Measurement {
        for _ in 0..self.warmup {
            std::hint::black_box(f(setup()));
        }
        let mut samples = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            let state = setup();
            let start = Instant::now();
            std::hint::black_box(f(state));
            samples.push(start.elapsed().as_nanos() as f64);
        }
        self.records.push(Measurement {
            bench: self.bench.clone(),
            case: case.to_string(),
            unit: "ns".to_string(),
            warmup: self.warmup,
            reps: self.reps,
            summary: summarize(&samples),
            samples,
            env: self.env.clone(),
        });
        self.records
            .last()
            .unwrap_or_else(|| unreachable!("just pushed"))
    }

    /// Records an externally produced set of samples (already in ns) under
    /// `case` — for harnesses that time phases themselves.
    pub fn record_samples(&mut self, case: &str, samples: Vec<f64>) -> &Measurement {
        self.records.push(Measurement {
            bench: self.bench.clone(),
            case: case.to_string(),
            unit: "ns".to_string(),
            warmup: 0,
            reps: samples.len(),
            summary: summarize(&samples),
            samples,
            env: self.env.clone(),
        });
        self.records
            .last()
            .unwrap_or_else(|| unreachable!("just pushed"))
    }

    /// Consumes the runner, returning its measurements.
    pub fn into_measurements(self) -> Vec<Measurement> {
        self.records
    }

    /// Appends every measurement to the bench's history ledger under
    /// `results_root`, blesses the baseline when `BOOTES_BLESS_PERF=1`, and
    /// returns the measurements.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the ledger or baseline.
    pub fn finish(self, results_root: &std::path::Path) -> std::io::Result<Vec<Measurement>> {
        crate::history::append_history(results_root, &self.records)?;
        if crate::blessing() {
            crate::baseline::bless(results_root, &self.bench, &self.records)?;
        }
        Ok(self.records)
    }
}

/// Converts a summary's nanosecond field to a human-friendly string.
pub fn fmt_summary_ns(s: &Summary) -> String {
    format!(
        "median {} ±{} (min {})",
        bootes_obs::fmt_ns(s.median as u64),
        bootes_obs::fmt_ns(s.mad as u64),
        bootes_obs::fmt_ns(s.min as u64)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_positive_samples() {
        let mut runner = Runner::new("unit_test").with_counts(1, 3);
        let m = runner.measure("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(m.reps, 3);
        assert_eq!(m.samples.len(), 3);
        assert!(m.summary.median > 0.0);
        assert!(m.summary.min <= m.summary.median);
        assert!(m.summary.median <= m.summary.max);
        assert_eq!(m.unit, "ns");
    }

    #[test]
    fn measure_with_setup_hands_every_execution_fresh_state() {
        let mut runner = Runner::new("unit_test").with_counts(2, 3);
        let mut made = 0;
        let mut seen = Vec::new();
        let m = runner.measure_with_setup(
            "fresh",
            || {
                made += 1;
                made
            },
            |state| seen.push(state),
        );
        assert_eq!((m.warmup, m.reps, m.samples.len()), (2, 3, 3));
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn env_capture_is_sane() {
        let env = BenchEnv::capture();
        assert!(env.threads >= 1);
        assert!(env.cpus >= 1);
        assert!(!env.git_rev.is_empty());
        assert_eq!(env.config_hash.len(), 16);
    }

    #[test]
    fn record_samples_summarizes() {
        let mut runner = Runner::new("unit_test");
        let m = runner.record_samples("given", vec![5.0, 1.0, 3.0]);
        assert_eq!(m.summary.median, 3.0);
        assert_eq!(m.reps, 3);
    }

    #[test]
    fn measurement_json_round_trip() {
        let mut runner = Runner::new("rt").with_counts(0, 2);
        runner.measure("case", || 1 + 1);
        let records = runner.into_measurements();
        let text = serde_json::to_string(&records[0]).unwrap();
        let back: Measurement = serde_json::from_str(&text).unwrap();
        assert_eq!(back, records[0]);
    }
}

//! The machine and the committed inputs the benchmark reads: peak memory,
//! a copy-bandwidth ceiling, the host's speed, and the trained cost models.

use std::path::Path;
use std::time::Instant;

use bootes_model::DecisionTree;

use crate::stats::{percentile, splitmix64};

/// Milliseconds the calibration kernel takes on the reference host (a
/// 2-vCPU 2.1 GHz virtual machine, median over quiet and busy periods).
/// End-to-end host times are reported at this host speed.
pub const CALIBRATION_REF_MS: f64 = 4.5;
/// Entries of the calibration kernel's table: 2 MiB of `u64`, more than a
/// core's private caches hold, like the sparse structures the layers walk.
const CALIBRATION_TABLE: usize = 1 << 18;
/// Table lookups per kernel run.
const CALIBRATION_STEPS: usize = 400_000;

/// A fixed piece of host work that calls none of the repository's code:
/// seeded random lookups into `table`, integer hashing and a data-dependent
/// floating-point update. A change to the repository cannot speed it up, so
/// its time tracks only how fast the host runs.
fn calibration_kernel(table: &[u64]) -> u64 {
    let mask = table.len() - 1;
    let mut state = 1u64;
    let mut acc = 0u64;
    let mut f = 0.0f64;
    for _ in 0..CALIBRATION_STEPS {
        let h = splitmix64(&mut state);
        let x = table[h as usize & mask];
        acc = acc.wrapping_add(x ^ h);
        if x & 1 == 0 {
            f += (x >> 11) as f64 * 1e-12;
        } else {
            f *= 0.999_999;
        }
    }
    acc ^ f.to_bits()
}

/// The host's speed over a run, sampled around each measured stretch.
///
/// A shared virtual machine runs the same code up to twice as slowly at
/// times, for seconds to minutes. Every end-to-end host time is therefore
/// measured in short stretches (a pass, a slice of a load level, one
/// set-up) with the calibration kernel timed before and after each, and
/// multiplied by the stretch's scale: the reference kernel time over the
/// kernel time around the stretch. A run on a host slowed down by a noisy
/// neighbour then reports about what it would have on the reference host,
/// while a change to the measured code moves the numbers as much as it
/// moves the raw times.
pub struct HostSpeed {
    table: Vec<u64>,
    kernel_ms: Vec<f64>,
}

impl HostSpeed {
    /// A tracker with no samples yet.
    pub fn new() -> Self {
        let mut state = 0xCA1B;
        let table = (0..CALIBRATION_TABLE)
            .map(|_| splitmix64(&mut state))
            .collect();
        HostSpeed {
            table,
            kernel_ms: Vec::new(),
        }
    }

    /// Times the calibration kernel three times and records the median.
    /// Returns the scale of the stretch since the previous sample: the
    /// reference time over the mean of the two samples around it (this one
    /// alone for the first).
    pub fn sample(&mut self) -> f64 {
        let mut times = [0.0; 3];
        for t in &mut times {
            let started = Instant::now();
            std::hint::black_box(calibration_kernel(std::hint::black_box(&self.table)));
            *t = started.elapsed().as_secs_f64() * 1e3;
        }
        self.kernel_ms.push(percentile(&times, 0.5));
        latest_stretch_scale(&self.kernel_ms)
    }

    /// Median calibration kernel time of the run, in ms.
    pub fn kernel_ms(&self) -> f64 {
        percentile(&self.kernel_ms, 0.5)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.kernel_ms.len()
    }

    /// The run's typical scale: the reference time over the median sample.
    pub fn scale(&self) -> f64 {
        CALIBRATION_REF_MS / self.kernel_ms()
    }
}

/// Scale of the stretch that ended at the last of `kernel_ms`: the
/// reference time over the mean of the last two samples.
fn latest_stretch_scale(kernel_ms: &[f64]) -> f64 {
    let around = &kernel_ms[kernel_ms.len().saturating_sub(2)..];
    CALIBRATION_REF_MS * around.len() as f64 / around.iter().sum::<f64>()
}

/// The three accelerators of the paper, in Table 4 order.
pub const ACCELS: [&str; 3] = ["flexagon", "gamma", "trapezoid"];

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Bytes in each array of the copy-bandwidth measurement.
pub const COPY_BYTES: usize = 64 << 20;

/// STREAM-style copy bandwidth in GB/s (bytes read plus bytes written over
/// the best of five copies of a [`COPY_BYTES`] array). Kernel rates are
/// reported next to it, as a share of what this machine can move.
pub fn copy_gb_s() -> f64 {
    let n = COPY_BYTES / std::mem::size_of::<f64>();
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * COPY_BYTES as f64 / best / 1e9
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The committed decision tree of `accel`: `results/models/<accel>.json`
/// holds `{"model": "<tree JSON>", "accuracy": ...}`. A missing file is an
/// error, never a reason to retrain (retraining labels hundreds of matrices
/// and writes into `results/`).
pub fn load_model(accel: &str) -> Result<DecisionTree, String> {
    let path = Path::new("results/models").join(format!("{accel}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (the committed models are required)",
            path.display()
        )
    })?;
    let wrapper: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let tree = wrapper
        .get("model")
        .and_then(serde::Value::as_str)
        .ok_or_else(|| format!("{}: no \"model\" string field", path.display()))?;
    DecisionTree::from_json(tree).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_scaled_by_the_samples_around_it() {
        let r = CALIBRATION_REF_MS;
        assert_eq!(latest_stretch_scale(&[r]), 1.0);
        // A host twice as slow on both sides: times are halved.
        assert_eq!(latest_stretch_scale(&[r, 2.0 * r, 2.0 * r]), 0.5);
        // Only the two latest samples count.
        assert_eq!(latest_stretch_scale(&[9.0 * r, r, 3.0 * r]), 0.5);
    }

    #[test]
    fn host_speed_samples_the_kernel() {
        let mut speed = HostSpeed::new();
        let first = speed.sample();
        assert!(first.is_finite() && first > 0.0);
        speed.sample();
        assert_eq!(speed.samples(), 2);
        assert!((speed.scale() - CALIBRATION_REF_MS / speed.kernel_ms()).abs() < 1e-12);
    }
}

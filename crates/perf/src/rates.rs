//! Achieved kernel rates: MFLOP/s and GB/s derived from a profile.
//!
//! Instrumented kernels publish `kernel.flops{kernel=X}` and
//! `kernel.bytes{kernel=X}` accounting counters, and their parallel regions
//! accumulate `par.region.wall_ns{region=X}` under the **same label** `X`
//! (e.g. `spgemm`, `spmv`, `kmeans.assign`). Pairing the two turns
//! wall time into achieved throughput per kernel.

use serde::{Deserialize, Serialize};

use bootes_obs::Profile;

/// Achieved throughput of one instrumented kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRate {
    /// Kernel label (shared by the counters and the par region).
    pub kernel: String,
    /// Floating-point (or integer-accumulate) operations counted.
    pub flops: u64,
    /// Bytes moved under the kernel's traffic model.
    pub bytes: u64,
    /// Wall nanoseconds accumulated by the kernel's parallel region.
    pub wall_ns: u64,
    /// Achieved MFLOP/s (`0.0` when no wall time was recorded).
    pub mflops: f64,
    /// Achieved GB/s (`0.0` when no wall time was recorded).
    pub gbps: f64,
}

fn label_of<'a>(name: &'a str, prefix: &str, key: &str) -> Option<&'a str> {
    let rest = name.strip_prefix(prefix)?;
    let rest = rest.strip_prefix('{')?.strip_suffix('}')?;
    rest.strip_prefix(key)?.strip_prefix('=')
}

fn counter(profile: &Profile, name: &str) -> u64 {
    profile
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Extracts per-kernel achieved rates from a profile snapshot. Kernels are
/// returned sorted by label; a kernel appears if it recorded either counter,
/// with rates computed only when its region also accrued wall time.
pub fn kernel_rates(profile: &Profile) -> Vec<KernelRate> {
    let mut kernels: Vec<String> = profile
        .counters
        .iter()
        .filter_map(|c| {
            label_of(&c.name, "kernel.flops", "kernel")
                .or_else(|| label_of(&c.name, "kernel.bytes", "kernel"))
                .map(|k| k.to_string())
        })
        .collect();
    kernels.sort();
    kernels.dedup();
    kernels
        .into_iter()
        .map(|kernel| {
            let flops = counter(profile, &format!("kernel.flops{{kernel={kernel}}}"));
            let bytes = counter(profile, &format!("kernel.bytes{{kernel={kernel}}}"));
            let wall_ns = counter(profile, &format!("par.region.wall_ns{{region={kernel}}}"));
            let secs = wall_ns as f64 / 1e9;
            let (mflops, gbps) = if wall_ns > 0 {
                (flops as f64 / secs / 1e6, bytes as f64 / secs / 1e9)
            } else {
                (0.0, 0.0)
            };
            KernelRate {
                kernel,
                flops,
                bytes,
                wall_ns,
                mflops,
                gbps,
            }
        })
        .collect()
}

/// Renders kernel rates as the table `--profile` appends.
pub fn render_rates(rates: &[KernelRate]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if rates.is_empty() {
        return out;
    }
    out.push_str("  -- kernel rates --\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>14} {:>12} {:>12} {:>10} {:>9}",
        "kernel", "flops", "bytes", "wall", "MFLOP/s", "GB/s"
    );
    for r in rates {
        let _ = writeln!(
            out,
            "  {:<24} {:>14} {:>12} {:>12} {:>10.1} {:>9.2}",
            r.kernel,
            r.flops,
            r.bytes,
            bootes_obs::fmt_ns(r.wall_ns),
            r.mflops,
            r.gbps
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The obs registry is process-global; serialize tests that enable it.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn rates_pair_counters_with_region_wall() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        bootes_obs::set_enabled(true);
        bootes_obs::reset();
        bootes_obs::counter_add("kernel.flops{kernel=demo}", 2_000_000);
        bootes_obs::counter_add("kernel.bytes{kernel=demo}", 4_000_000);
        bootes_obs::counter_add("par.region.wall_ns{region=demo}", 1_000_000);
        let profile = bootes_obs::snapshot();
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
        let rates = kernel_rates(&profile);
        assert_eq!(rates.len(), 1);
        let r = &rates[0];
        assert_eq!(r.kernel, "demo");
        // 2e6 ops in 1 ms = 2e9 op/s = 2000 MFLOP/s; 4e6 B in 1 ms = 4 GB/s.
        assert!((r.mflops - 2000.0).abs() < 1e-6, "{}", r.mflops);
        assert!((r.gbps - 4.0).abs() < 1e-9, "{}", r.gbps);
        let text = render_rates(&rates);
        assert!(text.contains("demo"), "{text}");
    }

    #[test]
    fn kernel_without_wall_time_reports_zero_rates() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        bootes_obs::set_enabled(true);
        bootes_obs::reset();
        bootes_obs::counter_add("kernel.flops{kernel=idle}", 10);
        let profile = bootes_obs::snapshot();
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
        let rates = kernel_rates(&profile);
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].mflops, 0.0);
        assert_eq!(rates[0].wall_ns, 0);
    }

    #[test]
    fn empty_profile_renders_nothing() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        bootes_obs::reset();
        let rates = kernel_rates(&bootes_obs::snapshot());
        assert!(rates.is_empty());
        assert!(render_rates(&rates).is_empty());
    }
}

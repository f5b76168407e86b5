//! Parallel-kernel speedup sweep for `bootes-par`.
//!
//! Sweeps the pattern SpMV over threads ∈ {1, 2, 4, 8} on a clustered
//! matrix of ~`BOOTES_PAR_NNZ` nonzeros (default 1e6), verifies every
//! parallel output is bit-identical to the serial one, and writes
//! `results/par_speedup.json`. Each row carries the per-region load-balance
//! attribution (`par.region.imbalance` = max/mean worker busy time,
//! `par.region.utilization` = Σ busy / (workers × wall)) plus the clamp
//! facts the `bootes perf speedup` floor gate needs: `effective_threads`
//! (nominal count clamped to the hardware) and `clamped`. Rows marked
//! clamped are skipped by the gate — a 4-thread floor is meaningless on a
//! 1-cpu container.
//!
//! Timing routes through the [`bootes_perf::Runner`] (warmup + repeats,
//! median/MAD, environment capture), appends every run to
//! `results/history/par_speedup.jsonl`, and blesses
//! `results/baselines/par_speedup.json` under `BOOTES_BLESS_PERF=1`.

use bootes_bench::results_dir;
use bootes_bench::table::{f2, save_json, Table};
use bootes_workloads::gen::{clustered_with_density, GenConfig};
use serde::Serialize;

#[derive(Serialize)]
struct SweepRow {
    kernel: String,
    nnz: usize,
    threads: usize,
    median_ms: f64,
    mad_ms: f64,
    min_ms: f64,
    speedup: f64,
    imbalance: f64,
    utilization: f64,
    effective_threads: usize,
    clamped: bool,
}

/// Reads one `name{label=value}` gauge from the current profile snapshot.
fn gauge(name: &str) -> f64 {
    bootes_obs::snapshot()
        .gauges
        .iter()
        .find(|g| g.name == name)
        .map_or(0.0, |g| g.value)
}

/// Sweeps one kernel over the thread counts, asserting bit-identity against
/// the 1-thread output and appending a [`SweepRow`] per count.
///
/// `name` is also the `bootes-obs` region the kernel attributes its workers
/// to (the imbalance/utilization gauges are read back under that name).
fn sweep_kernel<R: PartialEq>(
    runner: &mut bootes_perf::Runner,
    table: &mut Table,
    results: &mut Vec<SweepRow>,
    name: &str,
    nnz: usize,
    run: impl Fn(usize) -> R,
) {
    let sweep = [1usize, 2, 4, 8];
    let cpus = bootes_par::available();
    let reference = run(1);
    let mut serial_median_ms = f64::NAN;
    for t in sweep {
        // Attribution rides on the profiling registry: reset so each row's
        // imbalance/utilization gauges reflect only its own runs.
        bootes_obs::set_enabled(true);
        bootes_obs::reset();
        let m = runner.measure(&format!("{name}/t{t}"), || {
            let out = run(t);
            assert!(out == reference, "{name}: t={t} output differs from serial");
        });
        let (median_ms, mad_ms, min_ms) = (
            m.summary.median / 1e6,
            m.summary.mad / 1e6,
            m.summary.min / 1e6,
        );
        let imbalance = gauge(&format!("par.region.imbalance{{region={name}}}"));
        let utilization = gauge(&format!("par.region.utilization{{region={name}}}"));
        if t == 1 {
            serial_median_ms = median_ms;
        }
        let speedup = serial_median_ms / median_ms;
        let effective_threads = t.min(cpus);
        let clamped = t > cpus;
        table.row([
            name.to_string(),
            if clamped {
                format!("{t} (clamped to {effective_threads})")
            } else {
                t.to_string()
            },
            f2(median_ms),
            f2(speedup),
            f2(imbalance),
            f2(utilization),
        ]);
        results.push(SweepRow {
            kernel: name.to_string(),
            nnz,
            threads: t,
            median_ms,
            mad_ms,
            min_ms,
            speedup,
            imbalance,
            utilization,
            effective_threads,
            clamped,
        });
    }
}

fn main() {
    let was_profiling = bootes_bench::init_profiling();
    let target_nnz: usize = std::env::var("BOOTES_PAR_NNZ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    // ~64 nnz per row.
    let n = (target_nnz / 64).max(64);
    let density = 64.0 / n as f64;
    let a = clustered_with_density(&GenConfig::new(n, n).seed(0x0B007E5), 8, 0.9, density)
        .expect("valid generator parameters");
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.25).collect();
    println!(
        "par_speedup: {} x {} matrix, {} nnz, sweeping threads {:?} on {} cpu(s)",
        n,
        n,
        a.nnz(),
        [1usize, 2, 4, 8],
        bootes_par::available()
    );

    let mut runner = bootes_perf::Runner::new("par_speedup");
    let mut table = Table::new([
        "kernel",
        "threads",
        "median ms",
        "speedup",
        "imbalance",
        "util",
    ]);
    let mut results: Vec<SweepRow> = Vec::new();
    let nnz = a.nnz();

    // The pattern SpMV: the product the implicit Laplacian runs twice per
    // Lanczos step, so the `spmv` floor gates the eigensolver's parallelism.
    sweep_kernel(&mut runner, &mut table, &mut results, "spmv", nnz, |t| {
        let mut y = vec![0.0f64; n];
        a.par_pattern_matvec_into(&x, &mut y, t);
        y
    });

    table.print("Parallel kernel sweep (bit-identical outputs; speedup vs t=1 median)");
    if bootes_par::available() < 4 {
        println!(
            "note: only {} cpu(s) available; rows above that count are marked clamped \
             and skipped by `bootes perf speedup`",
            bootes_par::available()
        );
    }
    if !was_profiling {
        // Profiling was only enabled for attribution; write bare results.
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
    }
    save_json(&results_dir(), "par_speedup.json", &results);
    runner
        .finish(&results_dir())
        .expect("append par_speedup history");
}

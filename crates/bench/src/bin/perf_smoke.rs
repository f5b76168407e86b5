//! Quick perf smoke suite — the workload behind the CI perf gate.
//!
//! Measures the hot kernels (one implicit-Laplacian application, the
//! Lanczos eigensolve, `kmeans_threads` on synthetic points, and the
//! accelerator simulator's `A · A` on Flexagon) and the whole spectral
//! reorderer (`k = 8`: Laplacian, eigensolve, k-means and the
//! within-cluster chain, with no cache installed) on small fixed inputs
//! through the [`bootes_perf::Runner`] (warmup + repeats, median/MAD),
//! appends the run to `results/history/perf_smoke.jsonl`, and blesses
//! `results/baselines/perf_smoke.json` when `BOOTES_BLESS_PERF=1`.
//! `bootes perf diff` then gates later runs against the blessed medians with
//! noise-aware (MAD-scaled) thresholds.
//!
//! Sized to finish in a few seconds: the gate's job is catching
//! order-of-allowance regressions in kernels, not reproducing paper
//! figures.

use bootes_accel::{configs, simulate_spgemm};
use bootes_bench::results_dir;
use bootes_core::{BootesConfig, SpectralReorderer};
use bootes_linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes_linalg::{
    kmeans_threads, lanczos_smallest, KMeansConfig, LanczosConfig, LinearOperator,
};
use bootes_reorder::Reorderer;
use bootes_sparse::DenseMatrix;
use bootes_workloads::gen::{clustered_with_density, GenConfig};

fn main() {
    bootes_bench::init_profiling();
    let threads = bootes_par::threads();
    let nnz_target: usize = std::env::var("BOOTES_PAR_NNZ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let n = (nnz_target / 32).max(128);
    let density = 32.0 / n as f64;
    let a = clustered_with_density(&GenConfig::new(n, n).seed(0x540CE), 8, 0.9, density)
        .expect("valid generator parameters");
    println!(
        "perf_smoke: {} x {} matrix, {} nnz, {} thread(s)",
        n,
        n,
        a.nnz(),
        threads
    );

    let mut runner = bootes_perf::Runner::new("perf_smoke");

    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
    let mut y = vec![0.0; n];
    // One application of the implicit normalized Laplacian, then the
    // eigensolve that runs on it: 16 vectors, 8 of them gated on `tol`.
    let laplacian = ImplicitNormalizedLaplacian::new(&a);
    runner.measure(&format!("matvec_implicit/t{threads}"), || {
        laplacian.apply(&x, &mut y);
        y[0]
    });
    let lanczos = LanczosConfig {
        tol: 1e-3,
        max_restarts: 12,
        allow_unconverged: true,
        converge_k: 8,
        ..LanczosConfig::default()
    };
    runner.measure(&format!("lanczos/t{threads}"), || {
        lanczos_smallest(&laplacian, 16, &lanczos)
            .expect("valid eigensolve")
            .eigenvalues[0]
    });
    // K-means assignment over a modest point set (d=8, k=8).
    let pts: Vec<f64> = (0..(1024 * 8))
        .map(|i| ((i * 2_654_435_761usize) % 1000) as f64 / 1000.0)
        .collect();
    let points = DenseMatrix::from_rows(1024, 8, pts);
    let cfg = KMeansConfig {
        n_init: 2,
        max_iter: 20,
        ..KMeansConfig::default()
    };
    runner.measure(&format!("kmeans/t{threads}"), || {
        kmeans_threads(&points, 8, &cfg, threads)
            .expect("valid kmeans input")
            .inertia
    });

    // The whole spectral reorderer on the clustered matrix: the only case
    // that times the within-cluster chain. No cache is installed, so every
    // execution solves from scratch.
    let reorderer = SpectralReorderer::new(BootesConfig::default().with_k(8));
    runner.measure(&format!("reorder/t{threads}"), || {
        reorderer
            .reorder(&a)
            .expect("valid reorder")
            .permutation
            .len()
    });

    // The row-wise simulator, which runs on one thread whatever the pool
    // size: the PE schedule, the LRU range fetches and the nnz(C) count.
    let flexagon = configs::flexagon();
    runner.measure(&format!("simulate/t{threads}"), || {
        simulate_spgemm(&a, &a, &flexagon)
            .expect("valid operands")
            .cycles
    });

    for m in runner
        .finish(&results_dir())
        .expect("append perf_smoke history")
    {
        println!(
            "  {:<22} {}",
            m.case,
            bootes_perf::runner::fmt_summary_ns(&m.summary)
        );
    }
    if bootes_perf::blessing() {
        println!("[blessed results/baselines/perf_smoke.json]");
    }
}

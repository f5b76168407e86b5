//! Ablation benchmarks for the design decisions called out in `DESIGN.md`:
//!
//! - **D1** Fiedler/chain permutation refinement vs plain cluster grouping,
//! - **D2** thick-restart Lanczos vs plain (non-restarted) Lanczos,
//! - **D4** balanced vs unbalanced class weights in the decision tree
//!   (quality measured in the paired test below, time measured here).
//!
//! Each ablation also has a quality-side check in the harness binaries; the
//! bench isolates the *cost* of each choice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use bootes_core::{BootesConfig, SpectralReorderer};
use bootes_linalg::lanczos::{lanczos_plain, lanczos_smallest, LanczosConfig};
use bootes_linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes_model::{Dataset, DecisionTree, TreeConfig};
use bootes_reorder::Reorderer;
use bootes_workloads::gen::{clustered_with_density, GenConfig};

fn workload(n: usize) -> bootes_sparse::CsrMatrix {
    clustered_with_density(&GenConfig::new(n, n).seed(1), 8, 0.92, 16.0 / n as f64)
        .expect("valid parameters")
}

fn bench_d1_refinement(c: &mut Criterion) {
    let mut g = c.benchmark_group("d1_permutation_refinement");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let a = workload(1024);
    for (label, refine) in [("chain_refined", true), ("plain_grouping", false)] {
        let algo = SpectralReorderer::new(BootesConfig {
            fiedler_refine: refine,
            ..BootesConfig::default().with_k(8)
        });
        g.bench_function(BenchmarkId::new(label, 1024), |b| {
            b.iter(|| algo.reorder(black_box(&a)).expect("reorder"))
        });
    }
    g.finish();
}

fn bench_d2_eigensolvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("d2_eigensolver");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let a = workload(1024);
    let op = ImplicitNormalizedLaplacian::new(&a);
    let cfg = LanczosConfig {
        tol: 1e-3,
        max_restarts: 12,
        allow_unconverged: true,
        converge_k: 8,
        ..LanczosConfig::default()
    };
    g.bench_function("thick_restart", |b| {
        b.iter(|| lanczos_smallest(black_box(&op), 12, black_box(&cfg)).expect("solve"))
    });
    g.bench_function("plain_sweep", |b| {
        b.iter(|| lanczos_plain(black_box(&op), 12, 48, 7).expect("solve"))
    });
    g.finish();
}

fn bench_d4_tree_training(c: &mut Criterion) {
    let mut g = c.benchmark_group("d4_tree_training");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    // Synthetic imbalanced dataset shaped like the reorder/no-reorder corpus.
    let n = 400usize;
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let cls = if i % 5 == 0 { 1.0 } else { 0.0 };
            vec![
                (i % 13) as f64,
                cls * 3.0 + ((i * 7) % 10) as f64 * 0.1,
                ((i * 31) % 17) as f64,
            ]
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|i| usize::from(i % 5 == 0)).collect();
    let ds = Dataset::new(x, y, vec!["a".into(), "b".into(), "c".into()], 2).expect("consistent");
    let balanced = TreeConfig {
        class_weights: Some(ds.balanced_class_weights()),
        ..TreeConfig::default()
    };
    let unbalanced = TreeConfig::default();
    g.bench_function("balanced_weights", |b| {
        b.iter(|| DecisionTree::fit(black_box(&ds), black_box(&balanced)).expect("fit"))
    });
    g.bench_function("unbalanced", |b| {
        b.iter(|| DecisionTree::fit(black_box(&ds), black_box(&unbalanced)).expect("fit"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_d1_refinement,
    bench_d2_eigensolvers,
    bench_d4_tree_training
);
criterion_main!(benches);

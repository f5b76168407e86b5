//! Criterion micro-benchmarks for the computational kernels underpinning the
//! paper's complexity table (Table 2): SpGEMM, similarity construction,
//! Laplacian assembly/application, the Lanczos eigensolve, and k-means.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use bootes_linalg::kmeans::{kmeans, KMeansConfig};
use bootes_linalg::lanczos::{lanczos_smallest, LanczosConfig};
use bootes_linalg::laplacian::{normalized_laplacian, ImplicitNormalizedLaplacian};
use bootes_linalg::operator::LinearOperator;
use bootes_sparse::ops::{block_spgemm, similarity_matrix, spgemm, BlockSparseMatrix};
use bootes_sparse::DenseMatrix;
use bootes_workloads::gen::{clustered_with_density, GenConfig};

fn workload(n: usize) -> bootes_sparse::CsrMatrix {
    clustered_with_density(
        &GenConfig::new(n, n).seed(n as u64),
        8,
        0.92,
        16.0 / n as f64,
    )
    .expect("valid parameters")
}

fn bench_spgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("spgemm");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [256usize, 512, 1024] {
        let a = workload(n);
        g.bench_with_input(BenchmarkId::new("row_wise", n), &a, |b, a| {
            b.iter(|| spgemm(black_box(a), black_box(a), 1).expect("square"))
        });
        // TileSpGEMM-style block kernel (conversion amortized outside).
        let blocked = BlockSparseMatrix::from_csr(&a, 16).expect("valid block size");
        g.bench_with_input(BenchmarkId::new("tiled_16x16", n), &blocked, |b, m| {
            b.iter(|| block_spgemm(black_box(m), black_box(m)).expect("square"))
        });
    }
    g.finish();
}

fn bench_similarity_and_laplacian(c: &mut Criterion) {
    let mut g = c.benchmark_group("similarity_laplacian");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [256usize, 512, 1024] {
        let a = workload(n);
        g.bench_with_input(BenchmarkId::new("similarity", n), &a, |b, a| {
            b.iter(|| similarity_matrix(black_box(a), 1).expect("no worker faults"))
        });
        let s = similarity_matrix(&a, 1).expect("no worker faults");
        g.bench_with_input(BenchmarkId::new("laplacian", n), &s, |b, s| {
            b.iter(|| normalized_laplacian(black_box(s)).expect("valid"))
        });
        // One application of the implicit operator the eigensolver runs on.
        let op = ImplicitNormalizedLaplacian::new(&a);
        let x = vec![1.0; n];
        g.bench_with_input(BenchmarkId::new("matvec_implicit", n), &op, |b, op| {
            let mut y = vec![0.0; n];
            b.iter(|| op.apply(black_box(&x), black_box(&mut y)))
        });
    }
    g.finish();
}

fn bench_eigensolve(c: &mut Criterion) {
    let mut g = c.benchmark_group("lanczos");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [512usize, 1024] {
        let a = workload(n);
        let op = ImplicitNormalizedLaplacian::new(&a);
        let cfg = LanczosConfig {
            tol: 1e-3,
            max_restarts: 12,
            allow_unconverged: true,
            converge_k: 8,
            ..LanczosConfig::default()
        };
        g.bench_function(BenchmarkId::new("k8_embed16", n), |b| {
            b.iter(|| lanczos_smallest(black_box(&op), 16, black_box(&cfg)).expect("solve"))
        });
    }
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmeans");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [1024usize, 4096] {
        let d = 16;
        let pts: Vec<f64> = (0..n * d)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0)
            .collect();
        let m = DenseMatrix::from_rows(n, d, pts);
        let cfg = KMeansConfig {
            n_init: 2,
            max_iter: 40,
            ..KMeansConfig::default()
        };
        g.bench_function(BenchmarkId::new("k8", n), |b| {
            b.iter(|| kmeans(black_box(&m), 8, black_box(&cfg)).expect("valid"))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_spgemm,
    bench_similarity_and_laplacian,
    bench_eigensolve,
    bench_kmeans
);
criterion_main!(benches);

//! Golden snapshot of the spectral stage (Algorithm 4): the eigensolve, the
//! k-means on its embedding and the reorderer's permutation, pinned bit for
//! bit.
//!
//! One JSON line per (input, k): the Ritz values and residuals as raw bits,
//! an FNV-1a digest of every eigenvector bit, the matvec and restart counts,
//! a digest of the k-means labels and of the centroid bits, the inertia bits
//! and the Lloyd iterations, then the `SpectralReorderer` permutation digest
//! and its `peak_bytes`. Inputs are the checked-in fixtures, at `k` ∈ {2, 8,
//! 32}, and four Table-3 stand-ins at scale 0.02, at `k` ∈ {2, 8} (a `k` of
//! 32 costs 0.7–1.1 s per stand-in in the debug build); a `k` is skipped
//! unless `k + 1 < n`.
//! The eigensolve and k-means calls mirror `SpectralReorderer::cluster`.
//! Any change to the Laplacian product, the Lanczos recurrence, the Jacobi
//! solver, k-means or the within-cluster chain shows up as a diff against
//! `tests/fixtures/spectral.golden`. Regenerate deliberately with
//! `BOOTES_BLESS=1`.

mod common;

use bootes::core::{BootesConfig, SpectralReorderer};
use bootes::linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes::linalg::{kmeans, lanczos_smallest, KMeansConfig, LanczosConfig};
use bootes::reorder::Reorderer;
use bootes::sparse::io::read_matrix_market;
use bootes::sparse::{CsrMatrix, DenseMatrix, Fnv1a};
use bootes::workloads::suite::table3_suite;
use common::assert_golden;
use std::path::PathBuf;

/// The repository's evaluation scale (`bootes_bench::suite_scale`).
const SCALE: f64 = 0.02;

/// Cluster counts pinned per fixture and per Table-3 stand-in.
const FIXTURE_KS: &[usize] = &[2, 8, 32];
const SUITE_KS: &[usize] = &[2, 8];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn inputs() -> Vec<(String, CsrMatrix, &'static [usize])> {
    let mut out = Vec::new();
    for name in ["banded_64", "clustered_96", "dense_16"] {
        let path = fixture_dir().join(format!("{name}.mtx"));
        let file = std::fs::File::open(&path)
            .unwrap_or_else(|e| panic!("open fixture {}: {e}", path.display()));
        let a = read_matrix_market(std::io::BufReader::new(file)).expect("valid fixture");
        out.push((name.to_string(), a, FIXTURE_KS));
    }
    for entry in table3_suite() {
        if ["Oregon-1", "vibrobox", "sme3Da", "Maragal_6"].contains(&entry.name) {
            let a = entry.generate(SCALE).expect("suite entry generates");
            out.push((entry.name.to_string(), a, SUITE_KS));
        }
    }
    out
}

fn bits(values: &[f64]) -> String {
    let hex: Vec<String> = values
        .iter()
        .map(|v| format!("\"{:016x}\"", v.to_bits()))
        .collect();
    format!("[{}]", hex.join(","))
}

fn digest_f64<'a>(values: impl IntoIterator<Item = &'a f64>) -> String {
    let mut h = Fnv1a::new();
    for v in values {
        h.write_u64(v.to_bits());
    }
    format!("{:016x}", h.finish())
}

fn digest_usize(values: &[usize]) -> String {
    let mut h = Fnv1a::new();
    for &v in values {
        h.write_usize(v);
    }
    format!("{:016x}", h.finish())
}

/// The eigensolve and k-means of `SpectralReorderer::cluster` for `a` at
/// `k`, then the reorderer itself, as one JSON line.
fn line(input: &str, a: &CsrMatrix, k: usize) -> String {
    let cfg = BootesConfig::default().with_k(k);
    let n = a.nrows();
    let k_embed = (k + cfg.extra_embed.min(k)).clamp(k, n.saturating_sub(1).max(k));
    let lcfg = LanczosConfig {
        tol: cfg.eig_tol,
        max_restarts: cfg.max_restarts,
        seed: cfg.seed,
        allow_unconverged: true,
        converge_k: k,
        max_subspace: (k_embed + 16).min(n),
    };
    let op = ImplicitNormalizedLaplacian::new(a);
    let eig = lanczos_smallest(&op, k_embed, &lcfg).expect("eigensolve");
    let mut embedding = DenseMatrix::zeros(n, k_embed);
    for (j, v) in eig.eigenvectors.iter().enumerate() {
        for (i, &x) in v.iter().enumerate() {
            embedding[(i, j)] = x;
        }
    }
    let kcfg = KMeansConfig {
        max_iter: cfg.kmeans_max_iter,
        n_init: cfg.kmeans_n_init,
        seed: cfg.seed ^ 0x5EED,
        ..KMeansConfig::default()
    };
    let km = kmeans(&embedding, k, &kcfg).expect("k-means");
    let out = SpectralReorderer::new(cfg).reorder(a).expect("reorder");
    format!(
        "{{\"input\":\"{input}\",\"k\":{k},\"n\":{n},\"eigenvalues\":{},\"residuals\":{},\
         \"eigenvectors_fnv\":\"{}\",\"matvecs\":{},\"restarts\":{},\
         \"labels_fnv\":\"{}\",\"centroids_fnv\":\"{}\",\"inertia\":\"{:016x}\",\
         \"iterations\":{},\"permutation_fnv\":\"{}\",\"peak_bytes\":{}}}",
        bits(&eig.eigenvalues),
        bits(&eig.residuals),
        digest_f64(eig.eigenvectors.iter().flatten()),
        eig.matvecs,
        eig.restarts,
        digest_usize(&km.labels),
        digest_f64(km.centroids.as_slice()),
        km.inertia.to_bits(),
        km.iterations,
        digest_usize(out.permutation.as_slice()),
        out.stats.peak_bytes,
    )
}

fn snapshot() -> String {
    let mut lines = Vec::new();
    for (input, a, ks) in inputs() {
        for &k in ks {
            if k + 1 < a.nrows() {
                lines.push(line(&input, &a, k));
            }
        }
    }
    lines.join("\n")
}

#[test]
fn golden_spectral_stage() {
    assert_golden("spectral.golden", &snapshot());
}

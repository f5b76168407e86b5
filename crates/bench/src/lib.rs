#![warn(missing_docs)]
//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `fig*`/`table*` binary in `src/bin/` uses these helpers:
//!
//! - [`suite_scale`]: evaluation scale factor (`BOOTES_SCALE`, or 1.0 under
//!   `BOOTES_FULL=1`; default 0.02 so the full evaluation runs in minutes),
//! - [`scaled_configs`]: the three paper accelerators with caches scaled by
//!   the same factor as the matrices, preserving the B-size : cache-size
//!   pressure ratio that drives the paper's results,
//! - [`trained_model`]: trains (and caches to `results/models/`) the
//!   decision tree for one accelerator by labeling a synthetic corpus with
//!   measured traffic, exactly the §3.2 procedure,
//! - [`run_reordered`]: reorder → permute → simulate, the inner loop of
//!   Figure 3,
//! - [`measure_last`]: times a call through the [`bootes_perf::Runner`]
//!   and keeps what its last execution produced,
//! - [`viz`]: ASCII density rendering of sparsity patterns (Figure 2),
//! - [`table`]: plain-text table printing and JSON result persistence.

use std::path::PathBuf;

use bootes_accel::{configs, simulate_spgemm, AcceleratorConfig, TrafficReport};
use bootes_core::{Label, MatrixFeatures, FEATURE_NAMES};
use bootes_model::{Dataset, DecisionTree, TreeConfig};
use bootes_perf::Runner;
use bootes_reorder::{ReorderStats, Reorderer};

use bootes_sparse::CsrMatrix;
use bootes_workloads::suite::training_corpus;

pub mod table;
pub mod viz;

/// Re-exported geometric mean (used by every summary row).
pub use bootes_model::eval::geomean;

/// Enables profiling when `BOOTES_PROFILE=1` (or `true`) is set; every
/// harness binary calls this first so `save_json` can attach the collected
/// profile to its `results/*.json` output. Returns the enabled state.
pub fn init_profiling() -> bool {
    bootes_obs::init_from_env()
}

/// Evaluation scale factor: `BOOTES_FULL=1` → 1.0 (paper-scale dimensions),
/// `BOOTES_SCALE=<f>` → `f`, default `0.02`.
pub fn suite_scale() -> f64 {
    if std::env::var("BOOTES_FULL").is_ok_and(|v| v == "1") {
        return 1.0;
    }
    std::env::var("BOOTES_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(0.02)
}

/// The three paper accelerators with cache capacity scaled by `scale`
/// (floored at 4 KiB) so the matrix-to-cache pressure ratio matches the
/// paper's full-size setup.
pub fn scaled_configs(scale: f64) -> Vec<AcceleratorConfig> {
    configs::all()
        .into_iter()
        .map(|mut c| {
            c.cache_bytes = ((c.cache_bytes as f64 * scale) as usize).max(4096);
            c
        })
        .collect()
}

/// The right-hand operand for `A`: the paper multiplies `A · A` for square
/// matrices and `A · Aᵀ` for rectangular ones (§4 "Workloads"); `B` is never
/// reordered.
pub fn b_operand(a: &CsrMatrix) -> CsrMatrix {
    if a.nrows() == a.ncols() {
        a.clone()
    } else {
        a.transpose()
    }
}

/// Applies a reorderer to `a` and simulates the SpGEMM on `accel`.
/// Returns the preprocessing stats and the traffic report.
///
/// # Panics
///
/// Panics if the reorderer or simulator fails (harness-internal inputs are
/// always valid).
pub fn run_reordered(
    a: &CsrMatrix,
    b: &CsrMatrix,
    algo: &dyn Reorderer,
    accel: &AcceleratorConfig,
) -> (ReorderStats, TrafficReport) {
    let out = algo
        .reorder(a)
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
    let permuted = out
        .permutation
        .apply_rows(a)
        .expect("permutation length matches by construction");
    let report = simulate_spgemm(&permuted, b, accel).expect("valid operands");
    (out.stats, report)
}

/// The four baseline reorderers of the paper's comparison, in presentation
/// order (`original`, `gamma`, `graph`, `hier`).
pub fn baseline_reorderers() -> Vec<Box<dyn Reorderer>> {
    vec![
        Box::new(bootes_reorder::OriginalOrder),
        Box::new(bootes_reorder::GammaReorderer::default()),
        Box::new(bootes_reorder::GraphReorderer::default()),
        Box::new(bootes_reorder::HierReorderer::default()),
    ]
}

/// Times `f` through `runner` under `case` (warmup + repeats) and returns
/// the output of its last execution with the Runner's median in seconds,
/// for harnesses that report what the timed call produced (a permutation,
/// its memory high-water mark, a fitted model) next to how long it took.
pub fn measure_last<R>(runner: &mut Runner, case: &str, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut last = None;
    let median_ns = runner.measure(case, || last = Some(f())).summary.median;
    (
        last.expect("the Runner executes every case at least once"),
        median_ns * 1e-9,
    )
}

/// Labels `a` for `accel` by [`bootes_core::measure_label`], pricing each
/// ordering of `a` by its simulated SpGEMM traffic against `a`'s
/// [`b_operand`].
fn measure_label(a: &CsrMatrix, accel: &AcceleratorConfig) -> Result<Label, String> {
    let b = b_operand(a);
    bootes_core::measure_label(a, |m| {
        simulate_spgemm(m, &b, accel)
            .map(|report| report.total_bytes())
            .map_err(|e| e.to_string())
    })
}

/// Number of corpus matrices used for training (kept modest so harnesses run
/// in CI time; the paper uses ~500).
pub fn corpus_size() -> usize {
    std::env::var("BOOTES_CORPUS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(408)
}

/// Builds the labeled training dataset for one accelerator, labeling the
/// corpus on up to `threads` pool workers (the result is the same for any
/// count).
///
/// Half the corpus consists of fresh same-family instances of the Table-3
/// and Figure-3 suite entries (different seeds and jittered scales, so the
/// evaluation instances themselves are never trained on) — mirroring the
/// paper, whose training corpus and evaluation matrices are both drawn from
/// SuiteSparse/SNAP. The other half comes from the generic generator classes
/// for diversity.
///
/// # Panics
///
/// Panics if corpus generation or labeling fails (built-in parameters are
/// valid).
pub fn build_dataset(
    accel: &AcceleratorConfig,
    count: usize,
    seed: u64,
    threads: usize,
) -> Dataset {
    let mut corpus: Vec<CsrMatrix> = Vec::with_capacity(count);
    // Suite-like half: cycle through the evaluation families with fresh
    // seeds and mildly jittered scales.
    let mut entries = bootes_workloads::suite::table3_suite();
    entries.extend(bootes_workloads::suite::figure3_suite());
    let eval_scale = suite_scale();
    for i in 0..count / 2 {
        let entry = &entries[i % entries.len()];
        let jitter = 0.75 + 0.15 * ((i / entries.len()) % 6) as f64;
        let m = entry
            .generate_seeded(eval_scale * jitter, seed ^ (0x9E37 + i as u64 * 131))
            .expect("valid suite parameters");
        corpus.push(m);
    }
    // Generic half.
    for (_, m) in training_corpus(count - count / 2, seed, 512).expect("valid corpus parameters") {
        corpus.push(m);
    }
    // Labeling is embarrassingly parallel (5 reorders + 6 simulations per
    // matrix): one region over the corpus, whose nested `label.sweep`
    // regions run inline on their worker.
    let rows = bootes_par::map_indices("label.corpus", threads, corpus.len(), |i| {
        let class = measure_label(&corpus[i], accel)?
            .to_class()
            .map_err(|e| e.to_string())?;
        Ok((MatrixFeatures::extract(&corpus[i]).to_vec(), class))
    })
    .map_err(|e| e.to_string())
    .and_then(|rows| rows.into_iter().collect::<Result<Vec<_>, String>>())
    .unwrap_or_else(|e| panic!("labeling the training corpus failed: {e}"));
    let (x, y): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    Dataset::new(x, y, names, Label::N_CLASSES).expect("consistent dataset")
}

/// Path of the cached model for an accelerator.
fn model_path(accel_name: &str) -> PathBuf {
    results_dir()
        .join("models")
        .join(format!("{accel_name}.json"))
}

/// Directory where harness outputs are written (`results/` at the workspace
/// root, overridable with `BOOTES_RESULTS`). Delegates to
/// [`bootes_perf::results_dir`] so benches, baselines, and the perf history
/// ledger agree on one root.
pub fn results_dir() -> PathBuf {
    bootes_perf::results_dir()
}

/// Trains (or loads from cache) the decision tree for one accelerator,
/// following §3.2: balanced class weights, 70/30 split; returns the model
/// and its held-out accuracy.
///
/// # Panics
///
/// Panics on I/O failures writing the model cache.
pub fn trained_model(accel: &AcceleratorConfig, seed: u64) -> (DecisionTree, f64) {
    let path = model_path(&accel.name);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(cached) = serde_json::from_str::<CachedModel>(&text) {
            if let Ok(model) = DecisionTree::from_json(&cached.model) {
                return (model, cached.accuracy);
            }
        }
    }
    let ds = build_dataset(accel, corpus_size(), seed, bootes_par::threads());
    // Model selection over several split seeds: labeling dominates the cost,
    // so fitting a handful of trees and keeping the best validated one is
    // nearly free and removes most seed-to-seed variance.
    let mut best: Option<(DecisionTree, f64)> = None;
    for attempt in 0..5u64 {
        let (train, test) = ds
            .split(0.7, seed ^ (attempt * 0x9E3779B9))
            .expect("valid fraction");
        let cfg = TreeConfig {
            max_depth: 10,
            min_samples_leaf: 2,
            class_weights: Some(train.balanced_class_weights()),
            ..TreeConfig::default()
        };
        let mut model = DecisionTree::fit(&train, &cfg).expect("nonempty training set");
        model.prune();
        let preds: Vec<usize> = (0..test.len())
            .map(|i| model.predict(test.features(i)).expect("matching features"))
            .collect();
        let acc = if test.is_empty() {
            1.0
        } else {
            bootes_model::eval::accuracy(test.labels(), &preds)
        };
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((model, acc));
        }
    }
    let (model, accuracy) = best.expect("at least one attempt");
    std::fs::create_dir_all(path.parent().expect("model path has a parent"))
        .expect("create model cache dir");
    let cached = CachedModel {
        model: model.to_json().expect("serializable model"),
        accuracy,
    };
    std::fs::write(&path, serde_json::to_string(&cached).expect("serializable"))
        .expect("write model cache");
    (model, accuracy)
}

#[derive(serde::Serialize, serde::Deserialize)]
struct CachedModel {
    model: String,
    accuracy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_workloads::gen::{clustered, GenConfig};

    #[test]
    fn scale_default_and_override() {
        // Only check the default path here; env-var paths are exercised by
        // the harness binaries (env mutation in tests races other tests).
        assert!(suite_scale() > 0.0);
    }

    #[test]
    fn scaled_configs_preserve_order() {
        let cfgs = scaled_configs(0.02);
        assert_eq!(cfgs.len(), 3);
        assert!(cfgs[0].cache_bytes < cfgs[1].cache_bytes);
        assert!(cfgs[1].cache_bytes < cfgs[2].cache_bytes);
        for c in &cfgs {
            c.validate().unwrap();
        }
    }

    #[test]
    fn b_operand_square_and_rect() {
        let sq = CsrMatrix::identity(4);
        assert_eq!(b_operand(&sq), sq);
        let rect = CsrMatrix::zeros(4, 6);
        assert_eq!(b_operand(&rect).shape(), (6, 4));
    }

    #[test]
    fn run_reordered_produces_consistent_traffic() {
        let a = clustered(&GenConfig::new(200, 200).seed(2), 4, 0.95).unwrap();
        let b = b_operand(&a);
        let accel = &scaled_configs(0.02)[0];
        let (stats, report) = run_reordered(&a, &b, &bootes_reorder::OriginalOrder, accel);
        assert_eq!(stats.algorithm, "original");
        assert!(report.total_bytes() > 0);
    }

    #[test]
    fn measure_last_keeps_the_last_output_and_the_median() {
        let mut runner = Runner::new("unit_test").with_counts(1, 3);
        let mut calls = 0;
        let (last, secs) = measure_last(&mut runner, "count", || {
            calls += 1;
            calls
        });
        assert_eq!(last, 4);
        let m = &runner.into_measurements()[0];
        assert_eq!(secs, m.summary.median * 1e-9);
    }

    #[test]
    fn measured_label_prefers_reordering_on_clustered_input() {
        // Strongly clustered, scrambled matrix with B far exceeding a small
        // cache: reordering must win by far more than the 10% threshold.
        let a = clustered(&GenConfig::new(600, 600).seed(3), 4, 0.97).unwrap();
        let mut accel = scaled_configs(0.02).remove(0);
        accel.cache_bytes = 4096;
        assert!(matches!(measure_label(&a, &accel), Ok(Label::Reorder(_))));
    }

    #[test]
    fn build_dataset_is_the_same_for_any_thread_count() {
        let accel = &scaled_configs(0.02)[0];
        let serial = build_dataset(accel, 8, 5, 1);
        let pooled = build_dataset(accel, 8, 5, 4);
        assert_eq!(serial.labels(), pooled.labels());
        for i in 0..serial.len() {
            assert_eq!(serial.features(i), pooled.features(i));
        }
    }
}

//! Quality-side ablations for the design decisions in `DESIGN.md` (the
//! `ablations` Criterion bench measures their cost; this harness measures
//! what each choice buys in traffic / accuracy).
//!
//! - D1: chain-refined permutation vs plain cluster grouping,
//! - D1b: extra embedding dimensions vs exactly-k,
//! - D4: balanced vs unbalanced decision-tree training,
//! - extension: recursive spectral bisection vs flat spectral clustering.

use bootes_accel::simulate_spgemm;
use bootes_bench::table::{f2, save_json, Table};
use bootes_bench::{b_operand, build_dataset, results_dir, scaled_configs, suite_scale};
use bootes_core::{BootesConfig, RecursiveSpectralReorderer, SpectralReorderer};
use bootes_model::{DecisionTree, TreeConfig};
use bootes_reorder::Reorderer;
use bootes_workloads::suite::table3_suite;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    matrix: String,
    variant: String,
    total_bytes: u64,
    preprocess_ms: f64,
    peak_kib: u64,
}

fn main() {
    bootes_bench::init_profiling();
    let scale = suite_scale();
    let accel = scaled_configs(scale).remove(0);
    println!("Ablation quality study on {} (scale {scale})\n", accel.name);

    // Cluster-structured entries where ordering quality matters most.
    let ids = ["IN", "MI", "EX", "K4", "TO"];
    let variants: Vec<(&str, Box<dyn Reorderer>)> = vec![
        (
            "bootes (default)",
            Box::new(SpectralReorderer::new(BootesConfig::default().with_k(8))),
        ),
        (
            "D1 off: plain grouping",
            Box::new(SpectralReorderer::new(BootesConfig {
                fiedler_refine: false,
                ..BootesConfig::default().with_k(8)
            })),
        ),
        (
            "D1b off: exactly-k embedding",
            Box::new(SpectralReorderer::new(BootesConfig {
                extra_embed: 0,
                ..BootesConfig::default().with_k(8)
            })),
        ),
        (
            "extension: recursive bisection",
            Box::new(RecursiveSpectralReorderer::default()),
        ),
    ];

    let mut rows = Vec::new();
    let mut t = Table::new([
        "matrix",
        "variant",
        "traffic (norm. to default)",
        "prep ms",
        "peak KiB",
    ]);
    for id in ids {
        let entry = table3_suite()
            .into_iter()
            .find(|e| e.id == id)
            .expect("known id");
        let a = entry.generate(scale).expect("suite generation");
        let b = b_operand(&a);
        let mut default_bytes = 0u64;
        for (name, algo) in &variants {
            let out = algo.reorder(&a).expect("reorder");
            let rep = simulate_spgemm(&out.permutation.apply_rows(&a).expect("sized"), &b, &accel)
                .expect("simulate");
            if *name == "bootes (default)" {
                default_bytes = rep.total_bytes();
            }
            t.row([
                entry.name.to_string(),
                name.to_string(),
                f2(rep.total_bytes() as f64 / default_bytes as f64),
                format!("{:.1}", out.stats.elapsed.as_secs_f64() * 1e3),
                (out.stats.peak_bytes as u64 / 1024).to_string(),
            ]);
            rows.push(AblationRow {
                matrix: entry.name.to_string(),
                variant: name.to_string(),
                total_bytes: rep.total_bytes(),
                preprocess_ms: out.stats.elapsed.as_secs_f64() * 1e3,
                peak_kib: out.stats.peak_bytes as u64 / 1024,
            });
        }
    }
    t.print("permutation-quality ablations (traffic relative to the full default)");

    // D4: balanced vs unbalanced class weights on the same labeled corpus.
    println!("\nD4: decision-tree class balancing (labeling a training corpus, ~1 min)...");
    let ds = build_dataset(&accel, 136, 77);
    let (train, test) = ds.split(0.7, 7).expect("valid fraction");
    let fit = |weights: Option<Vec<f64>>| {
        let mut m = DecisionTree::fit(
            &train,
            &TreeConfig {
                max_depth: 10,
                min_samples_leaf: 2,
                class_weights: weights,
                ..TreeConfig::default()
            },
        )
        .expect("train");
        m.prune();
        let preds: Vec<usize> = (0..test.len())
            .map(|i| m.predict(test.features(i)).expect("predict"))
            .collect();
        (
            bootes_model::eval::accuracy(test.labels(), &preds),
            bootes_model::eval::macro_f1(test.labels(), &preds, ds.n_classes()),
        )
    };
    let (acc_b, f1_b) = fit(Some(train.balanced_class_weights()));
    let (acc_u, f1_u) = fit(None);
    let mut d4 = Table::new(["training", "accuracy", "macro F1"]);
    d4.row(["balanced (paper)".to_string(), f2(acc_b), f2(f1_b)]);
    d4.row(["unbalanced".to_string(), f2(acc_u), f2(f1_u)]);
    d4.print("D4: class balancing (macro F1 exposes minority-class recall)");

    save_json(&results_dir(), "ablation_quality.json", &rows);
}

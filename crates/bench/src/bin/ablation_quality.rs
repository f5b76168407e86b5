//! Ablations for the design decisions in `DESIGN.md`: what each choice
//! costs in time and what it buys in traffic or accuracy.
//!
//! - D1: chain-refined permutation vs plain cluster grouping,
//! - D1b: extra embedding dimensions vs exactly-k,
//! - D4: balanced vs unbalanced decision-tree training.
//!
//! Every time is a [`bootes_perf::Runner`] median, appended to
//! `results/history/ablation_quality.jsonl`.

use bootes_accel::simulate_spgemm;
use bootes_bench::table::{f2, save_json, Table};
use bootes_bench::{
    b_operand, build_dataset, measure_last, results_dir, scaled_configs, suite_scale,
};
use bootes_core::{BootesConfig, SpectralReorderer};
use bootes_model::{DecisionTree, TreeConfig};
use bootes_perf::Runner;
use bootes_reorder::Reorderer;
use bootes_workloads::suite::table3_suite;
use serde::Serialize;

#[derive(Serialize)]
struct Ablations {
    permutation: Vec<AblationRow>,
    tree_training: Vec<TrainingRow>,
}

#[derive(Serialize)]
struct AblationRow {
    matrix: String,
    variant: String,
    total_bytes: u64,
    preprocess_ms: f64,
    peak_kib: u64,
}

#[derive(Serialize)]
struct TrainingRow {
    training: String,
    fit_ms: f64,
    accuracy: f64,
    macro_f1: f64,
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
    ];

    let mut runner = Runner::new("ablation_quality");
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
            let (out, seconds) = measure_last(&mut runner, &format!("{id}/{name}"), || {
                algo.reorder(&a).expect("reorder")
            });
            let rep = simulate_spgemm(&out.permutation.apply_rows(&a).expect("sized"), &b, &accel)
                .expect("simulate");
            if *name == "bootes (default)" {
                default_bytes = rep.total_bytes();
            }
            t.row([
                entry.name.to_string(),
                name.to_string(),
                f2(rep.total_bytes() as f64 / default_bytes as f64),
                format!("{:.1}", seconds * 1e3),
                (out.stats.peak_bytes as u64 / 1024).to_string(),
            ]);
            rows.push(AblationRow {
                matrix: entry.name.to_string(),
                variant: name.to_string(),
                total_bytes: rep.total_bytes(),
                preprocess_ms: seconds * 1e3,
                peak_kib: out.stats.peak_bytes as u64 / 1024,
            });
        }
    }
    t.print("permutation-quality ablations (traffic relative to the full default)");

    // D4: balanced vs unbalanced class weights on the same labeled corpus.
    println!("\nD4: decision-tree class balancing (labeling a training corpus, ~1 min)...");
    let ds = build_dataset(&accel, 136, 77, bootes_par::threads());
    let (train, test) = ds.split(0.7, 7).expect("valid fraction");
    let mut trainings = Vec::new();
    let mut d4 = Table::new(["training", "fit ms", "accuracy", "macro F1"]);
    for (training, weights) in [
        ("balanced (paper)", Some(train.balanced_class_weights())),
        ("unbalanced", None),
    ] {
        let cfg = TreeConfig {
            max_depth: 10,
            min_samples_leaf: 2,
            class_weights: weights,
            ..TreeConfig::default()
        };
        let (mut m, seconds) = measure_last(&mut runner, &format!("d4/{training}"), || {
            DecisionTree::fit(&train, &cfg).expect("train")
        });
        m.prune();
        let preds: Vec<usize> = (0..test.len())
            .map(|i| m.predict(test.features(i)).expect("predict"))
            .collect();
        let row = TrainingRow {
            training: training.to_string(),
            fit_ms: seconds * 1e3,
            accuracy: bootes_model::eval::accuracy(test.labels(), &preds),
            macro_f1: bootes_model::eval::macro_f1(test.labels(), &preds, ds.n_classes()),
        };
        d4.row([
            training.to_string(),
            format!("{:.2}", row.fit_ms),
            f2(row.accuracy),
            f2(row.macro_f1),
        ]);
        trainings.push(row);
    }
    d4.print("D4: class balancing (macro F1 exposes minority-class recall)");

    save_json(
        &results_dir(),
        "ablation_quality.json",
        &Ablations {
            permutation: rows,
            tree_training: trainings,
        },
    );
    runner
        .finish(&results_dir())
        .expect("append ablation_quality history");
}

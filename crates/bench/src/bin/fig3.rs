//! Figure 3 + §5.1 — Decision-tree analysis: per-matrix execution time across
//! cluster sizes (normalized to the best size), with the model's pick
//! starred; model accuracy, storage size, and the geomean speedup from
//! letting the model choose.
//!
//! The paper reports 88% validation accuracy, a 1.38x geomean speedup over
//! no-clustering from picking (reorder?, k), an ~11 KB model, and worst-case
//! spreads up to 9.08x (Andrews).

use bootes_accel::simulate_spgemm;
use bootes_bench::table::{f2, save_json, Table};
use bootes_bench::{
    b_operand, geomean, results_dir, run_reordered, scaled_configs, suite_scale, trained_model,
};
use bootes_core::{BootesConfig, BootesPipeline, Label, SpectralReorderer, CANDIDATE_KS};
use bootes_workloads::suite::figure3_suite;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Row {
    matrix: String,
    normalized_times: Vec<f64>,
    original_normalized: f64,
    predicted: String,
    measured_best: String,
    model_time_normalized: f64,
}

fn main() {
    bootes_bench::init_profiling();
    let scale = suite_scale();
    // The smallest-cache accelerator shows the strongest k sensitivity.
    let accel = scaled_configs(scale).remove(0);
    let (model, val_acc) = trained_model(&accel, 42);
    println!(
        "Figure 3 reproduction on {} — decision tree: {} nodes, depth {}, {} bytes serialized",
        accel.name,
        model.node_count(),
        model.depth(),
        model.serialized_size()
    );
    println!(
        "Held-out validation accuracy (70/30 split of the training corpus): {:.0}%",
        val_acc * 100.0
    );
    if std::env::args().any(|a| a == "--train-report") {
        let importances = model.feature_importances();
        let mut t = Table::new(["feature", "gini importance"]);
        for (name, imp) in bootes_core::FEATURE_NAMES.iter().zip(importances) {
            t.row([name.to_string(), format!("{imp:.3}")]);
        }
        t.print("feature importances");
    }
    let pipeline = BootesPipeline::new(model, BootesConfig::default()).expect("compatible");

    let mut t = Table::new(
        ["matrix".to_string()]
            .into_iter()
            .chain(CANDIDATE_KS.iter().map(|k| format!("k={k}")))
            .chain(["no-reorder".to_string(), "model pick".to_string()])
            .collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    let mut hits = 0usize;
    let mut model_vs_noreorder = Vec::new();
    for entry in figure3_suite() {
        let a = entry.generate(scale).expect("suite generation");
        let b = b_operand(&a);

        // Measure the SpGEMM kernel's execution time on the accelerator at
        // every candidate k and without reordering (Figure 3's "execution
        // time" is the accelerator run, whose cycles track memory traffic).
        let mut times = Vec::new();
        for &k in &CANDIDATE_KS {
            let algo = SpectralReorderer::new(BootesConfig::default().with_k(k));
            let (_stats, report) = run_reordered(&a, &b, &algo, &accel);
            times.push(report.seconds(accel.clock_hz));
        }
        let original_time = {
            let report = simulate_spgemm(&a, &b, &accel).expect("simulate");
            report.seconds(accel.clock_hz)
        };
        let best_k_time = times.iter().copied().fold(f64::INFINITY, f64::min);
        let best = best_k_time.min(original_time);

        // Measured best: the candidate k with the shortest kernel time if it
        // beats the original order at all. Unlike the training labels of
        // `measure_label`, this takes no 10% traffic margin.
        let measured = if best_k_time < original_time {
            let idx = times
                .iter()
                .position(|&t| t == best_k_time)
                .expect("present");
            Label::Reorder(CANDIDATE_KS[idx])
        } else {
            Label::NoReorder
        };
        let decision = pipeline.decide(&a).expect("inference");
        if decision.label == measured {
            hits += 1;
        }
        let model_time = match decision.label {
            Label::NoReorder => original_time,
            Label::Reorder(k) => {
                times[CANDIDATE_KS
                    .iter()
                    .position(|&c| c == k)
                    .expect("candidate")]
            }
        };
        model_vs_noreorder.push(original_time / model_time);

        let fmt_label = |l: Label| match l {
            Label::NoReorder => "none".to_string(),
            Label::Reorder(k) => format!("k={k}"),
        };
        let mut cells = vec![entry.name.to_string()];
        for (i, &time) in times.iter().enumerate() {
            let star = if decision.label == Label::Reorder(CANDIDATE_KS[i]) {
                " *"
            } else {
                ""
            };
            cells.push(format!("{}{star}", f2(time / best)));
        }
        let star = if decision.label == Label::NoReorder {
            " *"
        } else {
            ""
        };
        cells.push(format!("{}{star}", f2(original_time / best)));
        cells.push(f2(model_time / best));
        t.row(cells);

        rows.push(Fig3Row {
            matrix: entry.name.to_string(),
            normalized_times: times.iter().map(|&x| x / best).collect(),
            original_normalized: original_time / best,
            predicted: fmt_label(decision.label),
            measured_best: fmt_label(measured),
            model_time_normalized: model_time / best,
        });
    }
    t.print("kernel execution time normalized to best configuration (* = model pick)");

    let n = rows.len();
    println!(
        "\nModel picked the measured-best configuration on {hits}/{n} validation matrices ({:.0}%).",
        100.0 * hits as f64 / n as f64
    );
    println!(
        "Geomean kernel speedup of the model's choice over no-clustering: {:.2}x (paper: 1.38x).",
        geomean(&model_vs_noreorder)
    );
    let worst_spread = rows
        .iter()
        .map(|r| {
            r.normalized_times
                .iter()
                .copied()
                .fold(r.original_normalized, f64::max)
        })
        .fold(0.0, f64::max);
    println!("Worst-case spread between best and worst configuration: {worst_spread:.2}x (paper: 9.08x on Andrews).");
    let worst_pick = rows
        .iter()
        .map(|r| r.model_time_normalized)
        .fold(1.0, f64::max);
    println!(
        "Worst slowdown from a suboptimal model pick: {worst_pick:.2}x (paper: 1.05x on stokes128) — mispredictions land on near-equivalent configurations."
    );

    save_json(&results_dir(), "fig3_decision_tree.json", &rows);
}

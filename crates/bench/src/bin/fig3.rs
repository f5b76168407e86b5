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
use bootes_bench::{b_operand, geomean, results_dir, scaled_configs, suite_scale, trained_model};
use bootes_core::{price_sweep, BootesConfig, BootesPipeline, Label, CANDIDATE_KS};
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
    let (model, val_acc) = trained_model(std::slice::from_ref(&accel), 42).remove(0);
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

        // The SpGEMM kernel's execution time on the accelerator without
        // reordering and at every candidate k (Figure 3's "execution time"
        // is the accelerator run, whose cycles track memory traffic).
        let sweep = price_sweep(&a, |m| {
            simulate_spgemm(m, &b, &accel).map(|report| report.seconds(accel.clock_hz))
        })
        .expect("sweep");
        assert_eq!(sweep.reordered.len(), CANDIDATE_KS.len(), "every k fits");
        // Every choice with its kernel time, no reordering first.
        let choices: Vec<(Label, f64)> = std::iter::once((Label::NoReorder, sweep.original))
            .chain(sweep.reordered.iter().map(|&(k, t)| (Label::Reorder(k), t)))
            .collect();
        let time_of = |l: Label| choices.iter().find(|c| c.0 == l).expect("a choice").1;

        // Measured best: the choice with the shortest kernel time; `min_by`
        // keeps the first of equal minima, so no reordering wins ties, then
        // the smallest k. Unlike the training labels of `PriceSweep::label`,
        // this takes no 10% traffic margin.
        let (measured, best) = choices
            .iter()
            .copied()
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("a choice");
        let decision = pipeline.decide(&a).expect("inference");
        if decision.label == measured {
            hits += 1;
        }
        let (original_time, model_time) = (sweep.original, time_of(decision.label));
        model_vs_noreorder.push(original_time / model_time);

        let fmt_label = |l: Label| match l {
            Label::NoReorder => "none".to_string(),
            Label::Reorder(k) => format!("k={k}"),
        };
        // Columns: each k, then no reordering, then the model's pick.
        let mut cells = vec![entry.name.to_string()];
        for &(label, time) in choices[1..].iter().chain(&choices[..1]) {
            let star = if decision.label == label { " *" } else { "" };
            cells.push(format!("{}{star}", f2(time / best)));
        }
        cells.push(f2(model_time / best));
        t.row(cells);

        rows.push(Fig3Row {
            matrix: entry.name.to_string(),
            normalized_times: choices[1..].iter().map(|&(_, x)| x / best).collect(),
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

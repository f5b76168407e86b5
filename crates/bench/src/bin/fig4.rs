//! Figure 4 — Adaptability analysis: off-chip memory traffic breakdown when
//! Bootes, Gamma, Graph, Hier and the original order run on Flexagon, GAMMA
//! and Trapezoid.
//!
//! Prints, per accelerator and matrix, the A/B/C traffic normalized to
//! compulsory traffic for every reordering method, then the geomean traffic
//! reduction of Bootes over each baseline (the paper reports 1.67/1.55/1.95/
//! 2.31x on Flexagon, 1.50/1.35/1.51/1.67x on GAMMA, 1.30/1.28/1.36/1.38x on
//! Trapezoid).

use std::collections::HashMap;

use bootes_accel::simulate_spgemm;
use bootes_bench::table::{f2, f3, save_json, Table};
use bootes_bench::{
    b_operand, baseline_reorderers, geomean, results_dir, scaled_configs, suite_scale,
    trained_model,
};
use bootes_core::{BootesConfig, BootesPipeline};
use bootes_sparse::Permutation;
use bootes_workloads::suite::table3_suite;
use serde::Serialize;

#[derive(Serialize)]
struct MatrixResult {
    accelerator: String,
    matrix: String,
    method: String,
    a_norm: f64,
    b_norm: f64,
    c_norm: f64,
    total_norm: f64,
    total_bytes: u64,
}

fn main() {
    bootes_bench::init_profiling();
    let scale = suite_scale();
    let accels = scaled_configs(scale);
    let suite = table3_suite();
    println!(
        "Figure 4 reproduction: traffic breakdown, scale = {scale} ({} matrices)",
        suite.len()
    );

    // Baseline permutations are accelerator-independent; compute them once.
    let baselines = baseline_reorderers();
    let mut perms: HashMap<(String, String), Permutation> = HashMap::new();
    let mut matrices = Vec::new();
    for entry in &suite {
        let a = entry.generate(scale).expect("suite generation");
        for algo in &baselines {
            let out = algo.reorder(&a).expect("baseline reorder");
            perms.insert(
                (entry.name.to_string(), algo.name().to_string()),
                out.permutation,
            );
        }
        matrices.push((entry, a));
    }

    let mut all_results: Vec<MatrixResult> = Vec::new();
    for (accel, (model, acc)) in accels.iter().zip(trained_model(&accels, 42)) {
        println!(
            "\n#### Accelerator {} (cache {} B, {} PEs; decision tree val. accuracy {:.0}%)",
            accel.name,
            accel.cache_bytes,
            accel.num_pes,
            acc * 100.0
        );
        let pipeline =
            BootesPipeline::new(model, BootesConfig::default()).expect("compatible model");

        let methods = ["bootes", "gamma", "graph", "hier", "original"];
        let mut t = Table::new(
            ["matrix"]
                .into_iter()
                .map(String::from)
                .chain(methods.iter().map(|m| format!("{m} A/B/C (norm total)")))
                .collect::<Vec<_>>(),
        );
        // totals[method] per matrix for the geomean summary
        let mut totals: HashMap<&str, Vec<f64>> = HashMap::new();
        // MACs per matrix (identical across reorderings of the same matrix).
        let mut macs_per_matrix: Vec<f64> = Vec::new();

        for (entry, a) in &matrices {
            let b = b_operand(a);
            let mut cells = vec![format!("{} ({})", entry.id, entry.name)];
            for method in methods {
                let report = if method == "bootes" {
                    let out = pipeline.preprocess(a).expect("pipeline");
                    let permuted = out.permutation.apply_rows(a).expect("sized");
                    simulate_spgemm(&permuted, &b, accel).expect("simulate")
                } else {
                    let p = &perms[&(entry.name.to_string(), method.to_string())];
                    let permuted = p.apply_rows(a).expect("sized");
                    simulate_spgemm(&permuted, &b, accel).expect("simulate")
                };
                let comp = report.compulsory_bytes() as f64;
                let (an, bn, cn) = (
                    report.a_bytes as f64 / comp,
                    report.b_bytes as f64 / comp,
                    report.c_bytes as f64 / comp,
                );
                cells.push(format!(
                    "{}/{}/{} ({})",
                    f2(an),
                    f2(bn),
                    f2(cn),
                    f2(an + bn + cn)
                ));
                totals
                    .entry(method)
                    .or_default()
                    .push(report.total_bytes() as f64);
                if method == "bootes" {
                    macs_per_matrix.push(report.macs as f64);
                }
                all_results.push(MatrixResult {
                    accelerator: accel.name.clone(),
                    matrix: entry.name.to_string(),
                    method: method.to_string(),
                    a_norm: an,
                    b_norm: bn,
                    c_norm: cn,
                    total_norm: an + bn + cn,
                    total_bytes: report.total_bytes(),
                });
            }
            t.row(cells);
        }
        t.print(&format!(
            "traffic normalized to compulsory — {}",
            accel.name
        ));

        let bootes_tot = &totals["bootes"];
        let mut summary = Table::new([
            "baseline",
            "geomean traffic reduction (x, Bootes vs baseline)",
        ]);
        for base in ["gamma", "graph", "hier", "original"] {
            let ratios: Vec<f64> = totals[base]
                .iter()
                .zip(bootes_tot)
                .map(|(o, b)| o / b)
                .collect();
            summary.row([base.to_string(), f3(geomean(&ratios))]);
        }
        summary.print(&format!("geomean reductions — {}", accel.name));

        // §5.2 energy argument: traffic reductions translate into energy
        // savings because DRAM bytes cost orders of magnitude more than MACs.
        let energy_model = bootes_accel::EnergyModel::default();
        let energy_ratios: Vec<f64> = totals["original"]
            .iter()
            .zip(bootes_tot)
            .zip(&macs_per_matrix)
            .map(|((o, b), macs)| {
                let energy =
                    |bytes: f64| bytes * energy_model.dram_pj_per_byte + macs * energy_model.mac_pj;
                energy(*o) / energy(*b)
            })
            .collect();
        println!(
            "Estimated off-chip-movement energy reduction vs original: {:.2}x geomean on {} (paper §5.2 reports 2.01/2.05/1.69x)",
            geomean(&energy_ratios),
            accel.name
        );
    }

    save_json(&results_dir(), "fig4_traffic.json", &all_results);
}

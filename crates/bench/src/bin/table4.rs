//! Table 4 — Geomean kernel speedup of each reordering algorithm over
//! no-preprocessing, per accelerator.
//!
//! The paper reports: Flexagon 1.74/1.28/1.30/1.12x, GAMMA 1.35/1.09/1.15/
//! 1.07x, Trapezoid 1.22/1.05/1.07/1.02x for Bootes/Gamma/Graph/Hier.

use std::collections::HashMap;

use bootes_accel::simulate_spgemm;
use bootes_bench::table::{f2, save_json, Table};
use bootes_bench::{
    b_operand, baseline_reorderers, geomean, results_dir, scaled_configs, suite_scale,
    trained_model,
};
use bootes_core::{BootesConfig, BootesPipeline};
use bootes_workloads::suite::table3_suite;
use serde::Serialize;

#[derive(Serialize)]
struct SpeedupRow {
    accelerator: String,
    method: String,
    geomean_speedup: f64,
}

fn main() {
    bootes_bench::init_profiling();
    let scale = suite_scale();
    let accels = scaled_configs(scale);
    println!("Table 4 reproduction: geomean kernel speedup over no preprocessing\n");

    let methods = ["bootes", "gamma", "graph", "hier"];
    let mut out = Vec::new();
    let mut t = Table::new(
        ["accelerator".to_string()]
            .into_iter()
            .chain(methods.iter().map(|m| m.to_string()))
            .collect::<Vec<_>>(),
    );
    for (accel, (model, _)) in accels.iter().zip(trained_model(&accels, 42)) {
        let pipeline = BootesPipeline::new(model, BootesConfig::default()).expect("compatible");
        let mut speedups: HashMap<&str, Vec<f64>> = HashMap::new();
        for entry in table3_suite() {
            let a = entry.generate(scale).expect("suite generation");
            let b = b_operand(&a);
            let base = simulate_spgemm(&a, &b, accel).expect("simulate").cycles as f64;
            for method in methods {
                let permuted = if method == "bootes" {
                    let outp = pipeline.preprocess(&a).expect("pipeline");
                    outp.permutation.apply_rows(&a).expect("sized")
                } else {
                    let algo = baseline_reorderers()
                        .into_iter()
                        .find(|r| r.name() == method)
                        .expect("known baseline");
                    algo.reorder(&a)
                        .expect("reorder")
                        .permutation
                        .apply_rows(&a)
                        .expect("sized")
                };
                let cycles = simulate_spgemm(&permuted, &b, accel)
                    .expect("simulate")
                    .cycles;
                speedups
                    .entry(method)
                    .or_default()
                    .push(base / cycles as f64);
            }
        }
        let mut cells = vec![accel.name.clone()];
        for method in methods {
            let g = geomean(&speedups[method]);
            cells.push(f2(g));
            out.push(SpeedupRow {
                accelerator: accel.name.clone(),
                method: method.to_string(),
                geomean_speedup: g,
            });
        }
        t.row(cells);
    }
    t.print("geomean speedup vs original order (paper: Bootes 1.74/1.35/1.22x top row first)");
    save_json(&results_dir(), "table4_speedups.json", &out);
}

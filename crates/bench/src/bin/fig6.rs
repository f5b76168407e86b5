//! Figure 6 — End-to-end speedup of Bootes over the prior reordering studies,
//! counting both preprocessing (host) time and SpGEMM (accelerator) time.
//!
//! The paper reports that Bootes reduces the preprocessing-to-compute ratio
//! by 13.41x / 1.96x / 10.34x versus Gamma / Graph / Hier, and shows
//! per-matrix end-to-end speedup bars of Bootes over each prior method.
//! Preprocessing times are [`bootes_perf::Runner`] medians, appended to
//! `results/history/fig6.jsonl`; compute times are simulated cycles.

use bootes_bench::table::{f2, save_json, Table};
use bootes_bench::{
    b_operand, baseline_reorderers, geomean, measure_last, results_dir, scaled_configs,
    suite_scale, trained_model,
};
use bootes_core::{BootesConfig, BootesPipeline};
use bootes_perf::Runner;
use bootes_workloads::suite::table3_suite;
use serde::Serialize;

#[derive(Serialize)]
struct EndToEnd {
    matrix: String,
    method: String,
    /// Runner median of the host preprocessing time.
    preprocess_seconds: f64,
    compute_seconds: f64,
}

fn main() {
    bootes_bench::init_profiling();
    let scale = suite_scale();
    // The paper's Figure 6 is measured on the GAMMA accelerator setup.
    let accel = scaled_configs(scale).remove(1);
    let (model, _) = trained_model(std::slice::from_ref(&accel), 42).remove(0);
    let pipeline = BootesPipeline::new(model, BootesConfig::default()).expect("compatible");
    println!(
        "Figure 6 reproduction on {}: end-to-end = preprocessing + kernel time",
        accel.name
    );

    let mut runner = Runner::new("fig6");
    let mut records: Vec<EndToEnd> = Vec::new();
    let mut t = Table::new([
        "matrix",
        "bootes e2e (ms)",
        "speedup vs gamma",
        "speedup vs graph",
        "speedup vs hier",
        "prep/compute bootes",
        "prep/compute gamma",
    ]);
    for entry in table3_suite() {
        let a = entry.generate(scale).expect("suite generation");
        let b = b_operand(&a);

        let mut run_method = |name: &str| -> (f64, f64) {
            let case = format!("{name}/{}", entry.name);
            let (permutation, prep) = if name == "bootes" {
                let (out, prep) = measure_last(&mut runner, &case, || {
                    pipeline.preprocess(&a).expect("pipeline")
                });
                (out.permutation, prep)
            } else {
                let algo = baseline_reorderers()
                    .into_iter()
                    .find(|r| r.name() == name)
                    .expect("known baseline");
                let (out, prep) =
                    measure_last(&mut runner, &case, || algo.reorder(&a).expect("reorder"));
                (out.permutation, prep)
            };
            let permuted = permutation.apply_rows(&a).expect("sized");
            let report = bootes_accel::simulate_spgemm(&permuted, &b, &accel).expect("simulate");
            let compute = report.seconds(accel.clock_hz);
            records.push(EndToEnd {
                matrix: entry.name.to_string(),
                method: name.to_string(),
                preprocess_seconds: prep,
                compute_seconds: compute,
            });
            (prep, compute)
        };

        let (bp, bc) = run_method("bootes");
        let (gp, gc) = run_method("gamma");
        let (rp, rc) = run_method("graph");
        let (hp, hc) = run_method("hier");
        let e2e = |p: f64, c: f64| p + c;
        t.row([
            entry.name.to_string(),
            format!("{:.2}", e2e(bp, bc) * 1e3),
            f2(e2e(gp, gc) / e2e(bp, bc)),
            f2(e2e(rp, rc) / e2e(bp, bc)),
            f2(e2e(hp, hc) / e2e(bp, bc)),
            f2(bp / bc.max(1e-12)),
            f2(gp / gc.max(1e-12)),
        ]);
    }
    t.print("end-to-end speedup of Bootes over prior reordering methods");

    // Preprocessing-to-compute ratio reductions (paper: 13.41/1.96/10.34x).
    let ratio = |method: &str| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.method == method)
            .map(|r| r.preprocess_seconds / r.compute_seconds.max(1e-12))
            .collect()
    };
    let bootes_ratio = ratio("bootes");
    let mut summary = Table::new(["baseline", "geomean prep/compute ratio reduction (x)"]);
    for base in ["gamma", "graph", "hier"] {
        let reductions: Vec<f64> = ratio(base)
            .iter()
            .zip(&bootes_ratio)
            .map(|(o, b)| (o / b.max(1e-9)).max(1e-9))
            .collect();
        summary.row([base.to_string(), f2(geomean(&reductions))]);
    }
    summary.print("preprocessing-to-compute ratio reduction (paper: 13.41/1.96/10.34x)");

    save_json(&results_dir(), "fig6_endtoend.json", &records);
    runner.finish(&results_dir()).expect("append fig6 history");
}

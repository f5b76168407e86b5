//! Figure 5 — Scalability: preprocessing time (top) and memory footprint
//! (bottom) as matrix size and density vary.
//!
//! The paper reports geomean preprocessing-time speedups of 10.2x / 1.95x /
//! 11.61x for Bootes over Gamma / Graph / Hier, and memory-footprint
//! reductions of 2.63x / 1.35x / 2.10x, with Bootes scaling best as matrices
//! grow and densify. Each time is a [`bootes_perf::Runner`] median, appended
//! to `results/history/fig5.jsonl`.

use bootes_bench::table::{f2, f3, human_bytes, save_json, Table};
use bootes_bench::{geomean, measure_last, results_dir};
use bootes_core::{BootesConfig, SpectralReorderer};
use bootes_perf::Runner;
use bootes_reorder::{GammaReorderer, GraphReorderer, HierReorderer, Reorderer};
use bootes_workloads::gen::{clustered_with_density, GenConfig};
use serde::Serialize;

#[derive(Serialize)]
struct ScalePoint {
    rows: usize,
    density: f64,
    algorithm: String,
    /// Runner median of the preprocessing time.
    seconds: f64,
    peak_bytes: usize,
}

fn main() {
    bootes_bench::init_profiling();
    let full = std::env::var("BOOTES_FULL").is_ok_and(|v| v == "1");
    let sizes: Vec<usize> = if full {
        vec![2048, 4096, 8192, 16384, 32768]
    } else {
        vec![1024, 2048, 4096, 8192]
    };
    // Per-row degrees: the bubble sizes of the figure (density = degree/n).
    let degrees = [8usize, 16, 32];
    println!("Figure 5 reproduction: preprocessing time and memory footprint");
    println!("sizes {sizes:?}, per-row degrees {degrees:?} (density = degree / size)\n");

    let algos: Vec<Box<dyn Reorderer>> = vec![
        Box::new(SpectralReorderer::new(BootesConfig::default().with_k(16))),
        Box::new(GammaReorderer::default()),
        Box::new(GraphReorderer::default()),
        Box::new(HierReorderer::default()),
    ];

    let mut runner = Runner::new("fig5");
    let mut points = Vec::new();
    let mut time_table = Table::new(
        ["rows x degree".to_string()]
            .into_iter()
            .chain(algos.iter().map(|a| format!("{} time (ms)", a.name())))
            .collect::<Vec<_>>(),
    );
    let mut mem_table = Table::new(
        ["rows x degree".to_string()]
            .into_iter()
            .chain(algos.iter().map(|a| format!("{} peak mem", a.name())))
            .collect::<Vec<_>>(),
    );
    for &n in &sizes {
        for &deg in &degrees {
            let density = deg as f64 / n as f64;
            let a = clustered_with_density(
                &GenConfig::new(n, n).seed(n as u64 * 31 + deg as u64),
                16,
                0.92,
                density,
            )
            .expect("valid parameters");
            let mut time_cells = vec![format!("{n} x {deg}")];
            let mut mem_cells = vec![format!("{n} x {deg}")];
            for algo in &algos {
                let case = format!("{}/n{n}_d{deg}", algo.name());
                let (out, seconds) =
                    measure_last(&mut runner, &case, || algo.reorder(&a).expect("reorder"));
                time_cells.push(format!("{:.1}", seconds * 1e3));
                mem_cells.push(human_bytes(out.stats.peak_bytes as u64));
                points.push(ScalePoint {
                    rows: n,
                    density,
                    algorithm: algo.name().to_string(),
                    seconds,
                    peak_bytes: out.stats.peak_bytes,
                });
            }
            time_table.row(time_cells);
            mem_table.row(mem_cells);
        }
    }
    time_table.print("preprocessing time (Runner median)");
    mem_table.print("memory footprint (explicit accounting)");

    // Geomean ratios of each baseline over Bootes.
    let mut summary = Table::new(["baseline", "time ratio vs bootes", "memory ratio vs bootes"]);
    let bootes: Vec<&ScalePoint> = points.iter().filter(|p| p.algorithm == "bootes").collect();
    for base in ["gamma", "graph", "hier"] {
        let others: Vec<&ScalePoint> = points.iter().filter(|p| p.algorithm == base).collect();
        let time_ratios: Vec<f64> = others
            .iter()
            .zip(&bootes)
            .map(|(o, b)| o.seconds / b.seconds)
            .collect();
        let mem_ratios: Vec<f64> = others
            .iter()
            .zip(&bootes)
            .map(|(o, b)| o.peak_bytes.max(1) as f64 / b.peak_bytes.max(1) as f64)
            .collect();
        summary.row([
            base.to_string(),
            f2(geomean(&time_ratios)),
            f3(geomean(&mem_ratios)),
        ]);
    }
    summary.print("geomean preprocessing cost of baselines relative to Bootes (paper: time 10.2/1.95/11.61x, memory 2.63/1.35/2.10x)");

    save_json(&results_dir(), "fig5_scalability.json", &points);
    runner.finish(&results_dir()).expect("append fig5 history");
}

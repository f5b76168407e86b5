//! Table 2 — Time-complexity analysis of the reordering algorithms,
//! validated empirically: measure preprocessing time across a size sweep at
//! fixed per-row degree and fit the growth exponent `time ~ N^alpha`
//! (log-log least squares), then across a degree sweep at fixed size for the
//! density exponent `time ~ q^beta`. Every point is a [`bootes_perf::Runner`]
//! median, appended to `results/history/table2.jsonl`.
//!
//! Paper claims: Gamma `O(N log N · Q²)` (poor with density), Graph
//! `O(r · q²)` (density-squared), Hier `O(E log E)` (moderate), Bootes
//! linear in matrix size (excellent).

use bootes_bench::results_dir;
use bootes_bench::table::{f2, save_json, Table};
use bootes_core::{BootesConfig, SpectralReorderer};
use bootes_perf::Runner;
use bootes_reorder::{GammaReorderer, GraphReorderer, HierReorderer, Reorderer};
use bootes_workloads::gen::{clustered_with_density, GenConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Fit {
    algorithm: String,
    size_exponent: f64,
    density_exponent: f64,
    /// Runner median per size-sweep point, in seconds.
    size_sweep_seconds: Vec<f64>,
    /// Runner median per degree-sweep point, in seconds.
    density_sweep_seconds: Vec<f64>,
}

/// Least-squares slope of ln(y) vs ln(x).
fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.max(1e-9).ln()).collect();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Runner median, in seconds, of `algo` on the `n`-row, degree-`deg`
/// sweep matrix.
fn time_of(runner: &mut Runner, algo: &dyn Reorderer, n: usize, deg: usize) -> f64 {
    let a = clustered_with_density(
        &GenConfig::new(n, n).seed(n as u64 ^ (deg as u64) << 7),
        16,
        0.92,
        deg as f64 / n as f64,
    )
    .expect("valid parameters");
    runner
        .measure(&format!("{}/n{n}_d{deg}", algo.name()), || {
            algo.reorder(&a).expect("reorder")
        })
        .summary
        .median
        * 1e-9
}

fn main() {
    bootes_bench::init_profiling();
    let full = std::env::var("BOOTES_FULL").is_ok_and(|v| v == "1");
    let sizes: Vec<usize> = if full {
        vec![2048, 4096, 8192, 16384]
    } else {
        vec![1024, 2048, 4096, 8192]
    };
    let degrees: Vec<usize> = vec![8, 16, 32, 64];
    let fixed_deg = 16usize;
    let fixed_n = *sizes.last().expect("nonempty sweep");
    println!("Table 2 reproduction: empirical scaling exponents");
    println!(
        "size sweep {sizes:?} at degree {fixed_deg}; degree sweep {degrees:?} at n = {fixed_n}\n"
    );

    let algos: Vec<(Box<dyn Reorderer>, &str)> = vec![
        (
            Box::new(SpectralReorderer::new(BootesConfig::default().with_k(16))),
            "O(sum d_j^2 + Ng + Ngkt + Nk^2), linear in N (excellent)",
        ),
        (
            Box::new(GammaReorderer::default()),
            "O(N log N * Q^2), poor with density",
        ),
        (
            Box::new(GraphReorderer::default()),
            "O(r * q^2), density-squared",
        ),
        (
            Box::new(HierReorderer::default()),
            "O(E log N + (N+E) log E + N), moderate",
        ),
    ];

    let mut fits = Vec::new();
    let mut t = Table::new([
        "algorithm",
        "size exponent (time ~ N^a)",
        "density exponent (time ~ q^b)",
        "paper claim",
    ]);
    let mut runner = Runner::new("table2");
    for (algo, claim) in &algos {
        let size_times: Vec<f64> = sizes
            .iter()
            .map(|&n| time_of(&mut runner, algo.as_ref(), n, fixed_deg))
            .collect();
        // The sweeps share the (fixed_n, fixed_deg) corner: measure it once.
        let corner = *size_times.last().expect("nonempty sweep");
        let deg_times: Vec<f64> = degrees
            .iter()
            .map(|&d| {
                if d == fixed_deg {
                    corner
                } else {
                    time_of(&mut runner, algo.as_ref(), fixed_n, d)
                }
            })
            .collect();
        let a = loglog_slope(
            &sizes.iter().map(|&n| n as f64).collect::<Vec<_>>(),
            &size_times,
        );
        let b = loglog_slope(
            &degrees.iter().map(|&d| d as f64).collect::<Vec<_>>(),
            &deg_times,
        );
        t.row([algo.name().to_string(), f2(a), f2(b), claim.to_string()]);
        fits.push(Fit {
            algorithm: algo.name().to_string(),
            size_exponent: a,
            density_exponent: b,
            size_sweep_seconds: size_times,
            density_sweep_seconds: deg_times,
        });
    }
    t.print("fitted growth exponents");
    println!("\nExpectation: Bootes' density exponent is the smallest of the four, and its");
    println!("size exponent stays near 1 (linear), matching the paper's scalability column.");
    save_json(&results_dir(), "table2_complexity.json", &fits);
    runner
        .finish(&results_dir())
        .expect("append table2 history");
}

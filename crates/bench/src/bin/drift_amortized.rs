//! Amortized preprocessing cost on a drifting matrix sequence.
//!
//! Replays a seeded [`bootes_workloads::drifting_sequence`] (default 1024
//! rows, 64 steps, 2% of rows perturbed per step) through the pipeline
//! twice:
//!
//! 1. **incremental** — artifact cache installed, drift donor path enabled:
//!    step 0 is a cold spectral reorder, every later step finds the previous
//!    step's permutation through the sketch index and resplices only the
//!    changed rows;
//! 2. **cold-every-time** — no cache: every step pays the full spectral
//!    reorder.
//!
//! For each step both runs report preprocessing wall time and the
//! reuse-distance B-traffic of the *reordered* matrix (LRU stack-distance
//! model at `CAPACITY` B rows, the paper's single-PE picture), and the
//! incremental run reports how many rows each step respliced. Three gates:
//!
//! - **quality** (always enforced — deterministic): per-step incremental
//!   B-traffic must stay within `EPSILON` (5%) of the full re-reorder's;
//! - **donor ranking** (always enforced — deterministic): every respliced
//!   step must move exactly the rows that step changed, which holds only
//!   when it spliced from the step before it;
//! - **amortized cost** (under `BOOTES_DRIFT_GATE=1` — timing-based, CI
//!   enforces it): the incremental run's mean per-step preprocessing time
//!   must be at least `MIN_SPEEDUP` (5x) cheaper than cold-every-time.
//!
//! Writes `results/drift_amortized.json` and appends the per-step samples to
//! the perf history ledger. Knobs: `BOOTES_DRIFT_N`, `BOOTES_DRIFT_STEPS`,
//! `BOOTES_DRIFT_RATE`.

use std::time::Instant;

use bootes_bench::results_dir;
use bootes_bench::table::{f2, save_json, Table};
use bootes_cache::{Cache, CacheConfig};
use bootes_core::{toy_tree, BootesConfig, BootesPipeline, DriftConfig};
use bootes_reorder::analysis::b_reuse_profile;
use bootes_sparse::CsrMatrix;
use bootes_workloads::drifting_sequence;
use bootes_workloads::gen::{clustered, GenConfig};
use serde::Serialize;

/// LRU capacity (in B rows) at which traffic is evaluated.
const CAPACITY: usize = 64;
/// Per-step B-traffic tolerance of the incremental path vs full re-reorder.
const EPSILON: f64 = 0.05;
/// Required amortized speedup of incremental over cold-every-time.
const MIN_SPEEDUP: f64 = 5.0;

#[derive(Serialize)]
struct StepResult {
    step: usize,
    changed_rows: usize,
    incremental_ms: f64,
    cold_ms: f64,
    incremental_traffic: f64,
    cold_traffic: f64,
    traffic_ratio: f64,
    rows_respliced: usize,
}

#[derive(Serialize)]
struct Summary {
    n: usize,
    steps: usize,
    rate: f64,
    capacity: usize,
    epsilon: f64,
    resplices: usize,
    amortized_incremental_ms: f64,
    amortized_cold_ms: f64,
    amortized_speedup: f64,
    max_traffic_ratio: f64,
    per_step: Vec<StepResult>,
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// B-traffic (row fetches from DRAM) of `a` under an LRU of `CAPACITY` rows.
fn traffic_of(a: &CsrMatrix) -> f64 {
    let profile = b_reuse_profile(a);
    profile.accesses as f64 * (1.0 - profile.hit_rate_at(CAPACITY))
}

fn main() {
    bootes_bench::init_profiling();
    let n: usize = env_or("BOOTES_DRIFT_N", 1024);
    let steps: usize = env_or("BOOTES_DRIFT_STEPS", 64);
    let rate: f64 = env_or("BOOTES_DRIFT_RATE", 0.02);
    let gate = std::env::var("BOOTES_DRIFT_GATE").is_ok_and(|v| v == "1");

    let base = clustered(&GenConfig::new(n, n).seed(0xD81F7), 8, 0.9).expect("valid generator");
    let seq = drifting_sequence(&base, steps, rate, 0xD81F7).expect("valid drift sequence");
    println!(
        "drift_amortized: {n} x {n} base ({} nnz), {steps} steps, rate {rate}",
        base.nnz()
    );

    // k = 16 for sparse inputs: a flat spectral clustering with 16
    // eigenvectors, so the cold baseline pays a realistic full-pipeline
    // cost (the resplice path is k-independent).
    let model = toy_tree(16).expect("16 is a candidate k");

    // Incremental: fresh in-memory cache, donor path on. Each step's sketch
    // and permutation become the next step's donor.
    bootes_cache::install(Cache::new(CacheConfig::memory_only(256 << 20)).expect("cache opens"));
    let drifted = BootesPipeline::new(model.clone(), BootesConfig::default())
        .expect("valid model")
        .with_drift(Some(DriftConfig::default()));
    let mut incremental: Vec<(f64, f64, usize)> = Vec::with_capacity(seq.len());
    for step in &seq {
        let t = Instant::now();
        let out = drifted
            .preprocess(&step.matrix)
            .expect("incremental preprocess");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let reordered = out
            .permutation
            .apply_rows(&step.matrix)
            .expect("permutation applies");
        incremental.push((ms, traffic_of(&reordered), out.stats.rows_respliced));
    }
    bootes_cache::uninstall();

    // Cold-every-time: no cache installed, so every step recomputes; the
    // donor path never engages (it needs the cache).
    let cold_pipeline = BootesPipeline::new(model, BootesConfig::default())
        .expect("valid model")
        .with_drift(None);
    let mut cold: Vec<(f64, f64)> = Vec::with_capacity(seq.len());
    for step in &seq {
        let t = Instant::now();
        let out = cold_pipeline
            .preprocess(&step.matrix)
            .expect("cold preprocess");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let reordered = out
            .permutation
            .apply_rows(&step.matrix)
            .expect("permutation applies");
        cold.push((ms, traffic_of(&reordered)));
    }

    let mut per_step = Vec::with_capacity(seq.len());
    let mut max_ratio = 0.0f64;
    let mut resplices = 0usize;
    for (i, step) in seq.iter().enumerate() {
        let (inc_ms, inc_traffic, rows_respliced) = incremental[i];
        let (cold_ms, cold_traffic) = cold[i];
        let ratio = if cold_traffic > 0.0 {
            inc_traffic / cold_traffic
        } else {
            1.0
        };
        max_ratio = max_ratio.max(ratio);
        resplices += (rows_respliced > 0) as usize;
        per_step.push(StepResult {
            step: i,
            changed_rows: step.changed_rows.len(),
            incremental_ms: inc_ms,
            cold_ms,
            incremental_traffic: inc_traffic,
            cold_traffic,
            traffic_ratio: ratio,
            rows_respliced,
        });
    }
    // Amortized per-step preprocessing cost over the whole sequence
    // (including the incremental run's cold step 0 — that is the point of
    // amortization).
    let amortized_inc = incremental.iter().map(|s| s.0).sum::<f64>() / seq.len() as f64;
    let amortized_cold = cold.iter().map(|s| s.0).sum::<f64>() / seq.len() as f64;
    let speedup = amortized_cold / amortized_inc;

    let mut table = Table::new(["metric", "value"]);
    table.row(["resplices".into(), format!("{resplices}/{steps}")]);
    table.row(["amortized incremental ms".into(), f2(amortized_inc)]);
    table.row(["amortized cold ms".into(), f2(amortized_cold)]);
    table.row(["amortized speedup".into(), f2(speedup)]);
    table.row(["max traffic ratio".into(), f2(max_ratio)]);
    table.print("Drifting-sequence amortized preprocessing (see results/drift_amortized.json)");

    let summary = Summary {
        n,
        steps,
        rate,
        capacity: CAPACITY,
        epsilon: EPSILON,
        resplices,
        amortized_incremental_ms: amortized_inc,
        amortized_cold_ms: amortized_cold,
        amortized_speedup: speedup,
        max_traffic_ratio: max_ratio,
        per_step,
    };
    save_json(&results_dir(), "drift_amortized.json", &summary);
    let mut runner = bootes_perf::Runner::new("drift_amortized");
    runner.record_samples(
        "incremental_step",
        incremental.iter().map(|s| s.0 * 1e6).collect(),
    );
    runner.record_samples("cold_step", cold.iter().map(|s| s.0 * 1e6).collect());
    runner
        .finish(&results_dir())
        .expect("append drift_amortized history");

    // Quality gate: deterministic, always enforced.
    assert!(
        max_ratio <= 1.0 + EPSILON,
        "incremental B-traffic exceeded the full re-reorder by more than \
         {:.0}% (worst step ratio {max_ratio:.4})",
        EPSILON * 100.0
    );
    // Donor-ranking gate: deterministic, always enforced.
    let misranked: Vec<(usize, usize, usize)> = summary
        .per_step
        .iter()
        .filter(|s| s.rows_respliced > 0 && s.rows_respliced != s.changed_rows)
        .map(|s| (s.step, s.rows_respliced, s.changed_rows))
        .collect();
    assert!(
        misranked.is_empty(),
        "respliced steps moved rows they did not change, so their donor was \
         not the previous step — (step, respliced, changed): {misranked:?}"
    );
    assert!(
        resplices >= steps / 2,
        "donor path engaged on only {resplices}/{steps} steps — the \
         incremental run is not actually incremental"
    );
    // Cost gate: timing-based, opt-in (CI sets BOOTES_DRIFT_GATE=1).
    if gate {
        assert!(
            speedup >= MIN_SPEEDUP,
            "amortized incremental cost must be at least {MIN_SPEEDUP}x \
             cheaper than cold-every-time, got {speedup:.2}x"
        );
    }
    println!("drift_amortized: speedup {speedup:.2}x, max traffic ratio {max_ratio:.4}");
}

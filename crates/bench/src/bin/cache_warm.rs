//! Warm-vs-cold preprocessing time with the artifact cache.
//!
//! Runs the full pipeline (features → decision tree → spectral reorder) on a
//! clustered matrix of `BOOTES_CACHE_N` rows (default 4000) three ways:
//!
//! 1. **cold** — empty cache, everything computed,
//! 2. **warm (memory)** — identical input again, served from the in-memory
//!    store (verified bit-identical to the cold permutation),
//! 3. **warm (disk)** — a fresh process-equivalent cache over the same
//!    `--cache-dir`, served from the on-disk layer.
//!
//! Writes `results/cache_warm.json`.

use std::time::Instant;

use bootes_bench::results_dir;
use bootes_bench::table::{f2, save_json, Table};
use bootes_cache::{Cache, CacheConfig};
use bootes_core::{BootesConfig, BootesPipeline, Label, FEATURE_NAMES};
use bootes_model::{Dataset, DecisionTree, TreeConfig};
use bootes_workloads::gen::{clustered, GenConfig};
use serde::Serialize;

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    elapsed_ms: f64,
    speedup_vs_cold: f64,
    cache_hit: bool,
}

/// A deterministic tree that always advises reordering with k = 8 for the
/// sparse matrices this bench generates (class 3), trained on a synthetic
/// two-point dataset the same way the pipeline unit tests do.
fn toy_model() -> DecisionTree {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..20 {
        let dense = i % 2 == 0;
        let mut f = vec![3.0; FEATURE_NAMES.len()];
        f[2] = if dense { 0.9 } else { 0.001 };
        x.push(f);
        y.push(if dense { 0 } else { 3 });
    }
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let ds = Dataset::new(x, y, names, Label::N_CLASSES).expect("valid toy dataset");
    DecisionTree::fit(&ds, &TreeConfig::default()).expect("toy tree fits")
}

fn main() {
    bootes_bench::init_profiling();
    let n: usize = std::env::var("BOOTES_CACHE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000);
    // Weak-ish cluster coherence: the cold eigensolve needs a thick restart.
    let a = clustered(&GenConfig::new(n, n).seed(0x0B007E5), 8, 0.6).expect("valid generator");
    let dir = std::env::temp_dir().join(format!("bootes-cache-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = BootesPipeline::new(toy_model(), BootesConfig::default()).expect("valid model");
    println!(
        "cache_warm: {n} x {n} matrix, {} nnz, cache dir {}",
        a.nnz(),
        dir.display()
    );

    let cache_cfg = || CacheConfig::memory_only(256 << 20).with_dir(&dir);
    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut table = Table::new(["scenario", "ms", "speedup", "hit"]);
    let record = |results: &mut Vec<ScenarioResult>,
                  table: &mut Table,
                  scenario: &str,
                  ms: f64,
                  cold_ms: f64,
                  hit: bool| {
        table.row([
            scenario.to_string(),
            f2(ms),
            f2(cold_ms / ms),
            hit.to_string(),
        ]);
        results.push(ScenarioResult {
            scenario: scenario.to_string(),
            elapsed_ms: ms,
            speedup_vs_cold: cold_ms / ms,
            cache_hit: hit,
        });
    };

    // 1. Cold: empty store, populate memory + disk.
    bootes_cache::install(Cache::new(cache_cfg()).expect("cache opens"));
    let t = Instant::now();
    let cold = pipeline.preprocess(&a).expect("cold preprocess");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.stats.cache_hit);
    record(&mut results, &mut table, "cold", cold_ms, cold_ms, false);

    // 2. Warm from memory: same input, same installed cache.
    let t = Instant::now();
    let warm = pipeline.preprocess(&a).expect("warm preprocess");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(warm.stats.cache_hit, "second run must hit the cache");
    assert_eq!(
        warm.permutation, cold.permutation,
        "hit must be bit-identical"
    );
    record(
        &mut results,
        &mut table,
        "warm (memory)",
        warm_ms,
        cold_ms,
        true,
    );

    // 3. Warm from disk: new cache instance over the same directory.
    bootes_cache::install(Cache::new(cache_cfg()).expect("cache reopens"));
    let t = Instant::now();
    let disk = pipeline.preprocess(&a).expect("disk preprocess");
    let disk_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(disk.stats.cache_hit, "disk reload must hit the cache");
    assert_eq!(
        disk.permutation, cold.permutation,
        "hit must be bit-identical"
    );
    record(
        &mut results,
        &mut table,
        "warm (disk)",
        disk_ms,
        cold_ms,
        true,
    );

    let final_stats = bootes_cache::uninstall().expect("cache installed").stats();
    table.print("Preprocessing time: cold vs cached (see results/cache_warm.json)");
    println!(
        "cache counters: {} hits, {} misses, {} evictions, {} bytes",
        final_stats.hits, final_stats.misses, final_stats.evictions, final_stats.bytes
    );
    save_json(&results_dir(), "cache_warm.json", &results);
    // The cold/warm scenarios are one-shot by nature (a repeat of "cold" is
    // warm), so record the single-sample timings into the perf history
    // ledger instead of re-running them through the repeat loop.
    let mut runner = bootes_perf::Runner::new("cache_warm");
    for r in &results {
        runner.record_samples(&r.scenario, vec![r.elapsed_ms * 1e6]);
    }
    runner
        .finish(&results_dir())
        .expect("append cache_warm history");
    let _ = std::fs::remove_dir_all(&dir);
}

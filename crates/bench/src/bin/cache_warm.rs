//! Warm-vs-cold preprocessing time with the artifact cache.
//!
//! Runs the full pipeline (features → decision tree → spectral reorder) on a
//! clustered matrix of `BOOTES_CACHE_N` rows (default 4000) three ways, each
//! timed through the [`bootes_perf::Runner`] (warmup + repeats, median/MAD):
//!
//! 1. **cold** — every execution starts from an empty cache in a fresh
//!    directory, so everything is computed,
//! 2. **warm (memory)** — identical input again, served from the in-memory
//!    store the last cold execution populated,
//! 3. **warm (disk)** — every execution installs a fresh memory layer over
//!    that directory, so each one is served from the on-disk layer.
//!
//! Every execution is checked: cold ones miss, warm ones hit, and each
//! permutation equals the first cold one. Writes the Runner medians to
//! `results/cache_warm.json` and appends `results/history/cache_warm.jsonl`.

use std::path::Path;

use bootes_bench::results_dir;
use bootes_bench::table::{f2, save_json, Table};
use bootes_cache::{Cache, CacheConfig};
use bootes_core::{toy_tree, BootesConfig, BootesPipeline};
use bootes_perf::Runner;
use bootes_workloads::gen::{clustered, GenConfig};
use serde::Serialize;

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    median_ms: f64,
    speedup_vs_cold: f64,
    cache_hit: bool,
}

fn main() {
    bootes_bench::init_profiling();
    let n: usize = std::env::var("BOOTES_CACHE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000);
    // Weak-ish cluster coherence: the cold eigensolve needs a thick restart.
    let a = clustered(&GenConfig::new(n, n).seed(0x0B007E5), 8, 0.6).expect("valid generator");
    let root = std::env::temp_dir().join(format!("bootes-cache-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let pipeline = BootesPipeline::new(
        toy_tree(8).expect("8 is a candidate k"),
        BootesConfig::default(),
    )
    .expect("valid model");
    println!(
        "cache_warm: {n} x {n} matrix, {} nnz, cache dirs under {}",
        a.nnz(),
        root.display()
    );
    let open = |dir: &Path| {
        bootes_cache::install(
            Cache::new(CacheConfig::memory_only(256 << 20).with_dir(dir)).expect("cache opens"),
        );
    };
    let mut runner = Runner::new("cache_warm");

    // 1. Cold: a fresh directory and an empty cache per execution.
    let mut dirs = 0;
    let mut cold = Vec::new();
    runner.measure_with_setup(
        "cold",
        || {
            dirs += 1;
            open(&root.join(format!("cold-{dirs}")));
        },
        |()| cold.push(pipeline.preprocess(&a).expect("cold preprocess")),
    );

    // 2. Warm from memory: the last cold execution's cache stays installed.
    let mut memory = Vec::new();
    runner.measure("warm (memory)", || {
        memory.push(pipeline.preprocess(&a).expect("warm preprocess"));
    });

    // 3. Warm from disk: a fresh memory layer over the populated directory
    //    per execution; otherwise every execution after the first would be
    //    a memory hit.
    let populated = root.join(format!("cold-{dirs}"));
    let mut disk = Vec::new();
    runner.measure_with_setup(
        "warm (disk)",
        || open(&populated),
        |()| disk.push(pipeline.preprocess(&a).expect("disk preprocess")),
    );
    bootes_cache::uninstall();
    let _ = std::fs::remove_dir_all(&root);

    let first = &cold[0].permutation;
    let scenarios = [
        ("cold", &cold, false),
        ("warm (memory)", &memory, true),
        ("warm (disk)", &disk, true),
    ];
    for (scenario, outcomes, hit) in scenarios {
        for out in outcomes {
            assert_eq!(
                out.stats.cache_hit, hit,
                "{scenario}: cache_hit must be {hit}"
            );
            assert_eq!(
                &out.permutation, first,
                "{scenario}: every permutation must equal the first cold one"
            );
        }
    }

    let measurements = runner
        .finish(&results_dir())
        .expect("append cache_warm history");
    let cold_ms = measurements[0].summary.median / 1e6;
    let mut table = Table::new(["scenario", "median ms", "speedup", "hit"]);
    let results: Vec<ScenarioResult> = measurements
        .iter()
        .zip(scenarios)
        .map(|(m, (_, _, cache_hit))| {
            let median_ms = m.summary.median / 1e6;
            table.row([
                m.case.clone(),
                f2(median_ms),
                f2(cold_ms / median_ms),
                cache_hit.to_string(),
            ]);
            ScenarioResult {
                scenario: m.case.clone(),
                median_ms,
                speedup_vs_cold: cold_ms / median_ms,
                cache_hit,
            }
        })
        .collect();
    table.print("Preprocessing time: cold vs cached (see results/cache_warm.json)");
    save_json(&results_dir(), "cache_warm.json", &results);
}

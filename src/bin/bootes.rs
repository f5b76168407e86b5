//! `bootes` — command-line front end for the library.
//!
//! Subcommands:
//!
//! - `reorder <in.mtx> [-o out.mtx] [--algo A] [--k K]` — reorder a Matrix
//!   Market file (`bootes`, `gamma`, `graph`, `hier`),
//! - `features <in.mtx>` — print the §3.2 structural feature vector,
//! - `simulate <in.mtx> [--accel NAME] [--cache BYTES] [--reorder ALGO]` —
//!   simulate the row-wise SpGEMM `A·A` (or `A·Aᵀ`), reorder the rows
//!   (spectral clustering by default; `--reorder none` skips), re-simulate,
//!   and print both traffic reports,
//! - `train [--corpus N] [--accel NAME] [--cache BYTES] -o model.json` —
//!   train the decision tree on a measured synthetic corpus,
//! - `decide <in.mtx> --model model.json` — run the cost model on a matrix,
//! - `analyze <in.mtx> [--pes N]` — stack-distance reuse analysis of the
//!   B-row access stream with predicted hit rates per cache size,
//! - `perf diff [--baseline DIR] [-D]` — compare the latest bench runs in
//!   `results/history/` against the blessed baselines with noise-aware
//!   (MAD-scaled) thresholds; `-D` turns regressions into a nonzero exit,
//! - `perf bless [BENCH...]` — bless the latest run of each bench as the new
//!   regression baseline (equivalently, re-run under `BOOTES_BLESS_PERF=1`),
//! - `serve [--listen ADDR]` — run the long-lived reorder/decision daemon:
//!   newline-delimited JSON over a Unix or TCP socket, with bounded
//!   admission, per-tenant budgets, singleflight coalescing of identical
//!   in-flight requests, and graceful drain on the `shutdown` op,
//! - `chaos [--seeds N]` — run seeded random fault schedules against
//!   pipeline, serve, and crash-restart workloads in subprocesses, check the
//!   invariant oracles, and shrink any failing schedule to a minimal replay
//!   token (`--replay TOKEN` reruns one).
//!
//! Every subcommand also accepts the global flags:
//!
//! - `--threads N` — worker threads for the parallel kernels (default: all
//!   cores; `BOOTES_THREADS=N` in the environment works too). Results are
//!   bit-identical for any thread count,
//! - `--cache-dir DIR` / `--cache-mem-mb MB` / `--no-cache` — the
//!   content-addressed preprocessing artifact cache
//!   (permutations, Ritz pairs and model verdicts keyed on the sparsity
//!   pattern; on by default as a memory-only store),
//! - `--profile` — enable span/metric collection and print a profile table to
//!   stderr on exit (equivalently, set `BOOTES_PROFILE=1`),
//! - `--profile-out FILE.json` — also write the profile as JSON,
//! - `--trace-out FILE.json` — also write a Chrome trace-event file, viewable
//!   in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Examples:
//!
//! ```sh
//! bootes reorder matrix.mtx -o reordered.mtx --algo bootes --k 8
//! bootes simulate matrix.mtx --accel flexagon --profile --trace-out trace.json
//! bootes train --corpus 60 -o model.json && bootes decide matrix.mtx --model model.json
//! ```

use std::io::BufReader;
use std::process::ExitCode;

use bootes::accel::{configs, simulate_spgemm, AcceleratorConfig};
use bootes::core::{
    measure_label, BootesConfig, BootesPipeline, FallbackReorderer, Label, MatrixFeatures,
    FEATURE_NAMES,
};
use bootes::model::{Dataset, DecisionTree, TreeConfig};
use bootes::reorder::{GammaReorderer, GraphReorderer, HierReorderer, Reorderer};
use bootes::sparse::io::{read_matrix_market, write_matrix_market};
use bootes::sparse::CsrMatrix;
use bootes::workloads::suite::training_corpus;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, prof) = match ProfileOpts::extract(args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = run(&args, &prof);
    if let Err(msg) = prof.finish() {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  bootes reorder  <in.mtx> [-o out.mtx] [--algo bootes|gamma|graph|hier] [--k K]
  bootes features <in.mtx>
  bootes simulate <in.mtx> [--accel flexagon|gamma|trapezoid] [--cache BYTES]
                  [--reorder bootes|gamma|graph|hier|none] [--k K]
  bootes train    [--corpus N] [--accel NAME] [--cache BYTES] [--seed S] -o model.json
  bootes decide   <in.mtx> --model model.json   (a tree from `bootes train` or
                  a committed results/models/<accel>.json)
  bootes analyze  <in.mtx> [--pes N]
  bootes perf diff  [--baseline DIR] [-D] [--rel-threshold F] [--k-mad F]
                    [--abs-floor-ms MS]
  bootes perf bless [BENCH...] [--baseline DIR]
  bootes perf speedup [--file RESULTS.json] [--floor KERNEL=SPEEDUP]...
                    [--k-mad F] [-D]
  bootes serve    [--listen ADDR] [--model model.json] [--serve-workers N]
                  [--queue-cap N] [--max-inflight N] [--max-tenant-mb MB]
                  [--drain-grace-ms MS]
                  (ADDR: unix:/path.sock | tcp:host:port; default
                   tcp:127.0.0.1:0 — the bound address is printed on stdout.
                   Newline-delimited JSON; ops: preprocess, decide, ping,
                   stats, shutdown. A shutdown request drains gracefully and
                   is answered after the drain.)
  bootes chaos    [--seeds N] [--seed S] [--requests N] [--scratch DIR]
                  [--replay TOKEN] [--out FILE.json] [--keep-going]
                  [--no-shrink]
                  (N seeded random fault schedules against subprocess
                   workloads — exit 1 on any invariant violation, with the
                   failing schedule shrunk to a minimal seed:workload:spec
                   replay token)
global flags (any subcommand):
  --threads N             worker threads for the parallel kernels (default:
                          all cores; BOOTES_THREADS=N also works; output is
                          bit-identical for any value)
  --time-budget-ms MS     wall-clock budget for preprocessing; on exhaustion
                          the reorderer degrades to a cheaper algorithm
                          instead of running long
  --mem-budget-mb MB      explicit-accounting memory budget for preprocessing;
                          on exhaustion the reorderer degrades likewise
  --cache-dir DIR         persist preprocessing artifacts (permutations, Ritz
                          pairs, model verdicts) in DIR and reuse them across
                          runs on matrices with a recurring sparsity pattern
  --cache-mem-mb MB       in-memory artifact cache ceiling (default: 256)
  --no-cache              disable the artifact cache entirely
  --drift-threshold F     rows-changed fraction above which a cached donor
                          permutation is abandoned for a full recompute
                          (default: 0.25; 0 always recomputes, 1 always
                          resplices)
  --no-donor              disable drift donor reuse: every exact cache miss
                          recomputes cold, no sketches are stored
  --profile               collect spans/metrics, print profile table to stderr
  --profile-out FILE.json write the profile as JSON
  --trace-out FILE.json   write a Chrome trace-event file
  (BOOTES_PROFILE=1 in the environment also enables profiling;
   BOOTES_FAILPOINTS=\"site=err@N,...\" injects deterministic faults)";

/// The global flags (`--profile`, `--threads`, the guard budgets,
/// `--cache-dir`, ...), stripped from the argument list before subcommand
/// dispatch. Holding the struct keeps the armed budget alive for the whole
/// run; it disarms on drop.
struct ProfileOpts {
    enabled: bool,
    profile_out: Option<String>,
    trace_out: Option<String>,
    drift: Option<bootes::core::DriftConfig>,
    _budget: Option<bootes::guard::ArmedBudget>,
}

impl ProfileOpts {
    fn extract(mut args: Vec<String>) -> Result<(Vec<String>, Self), String> {
        let mut enabled = false;
        let mut profile_out = None;
        let mut trace_out = None;
        let mut no_donor = false;
        let mut drift_threshold: Option<f64> = None;
        let mut use_cache = true;
        let mut cache_dir: Option<String> = None;
        let mut cache_mem_mb: u64 = 256;
        let mut budget = bootes::guard::Budget::unlimited();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--profile" => {
                    enabled = true;
                    args.remove(i);
                }
                "--no-cache" => {
                    use_cache = false;
                    args.remove(i);
                }
                "--no-donor" => {
                    no_donor = true;
                    args.remove(i);
                }
                "--drift-threshold" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--drift-threshold needs a value argument".to_string());
                    }
                    let value = args.remove(i);
                    let t: f64 = value
                        .parse()
                        .map_err(|e| format!("bad --drift-threshold value {value:?}: {e}"))?;
                    if !(0.0..=1.0).contains(&t) {
                        return Err(format!("--drift-threshold {t} outside [0, 1]"));
                    }
                    drift_threshold = Some(t);
                }
                "--cache-dir" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--cache-dir needs a directory argument".to_string());
                    }
                    cache_dir = Some(args.remove(i));
                }
                "--cache-mem-mb" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--cache-mem-mb needs a value argument".to_string());
                    }
                    let value = args.remove(i);
                    cache_mem_mb = value
                        .parse()
                        .map_err(|e| format!("bad --cache-mem-mb value {value:?}: {e}"))?;
                }
                "--time-budget-ms" | "--mem-budget-mb" => {
                    let flag = args.remove(i);
                    if i >= args.len() {
                        return Err(format!("{flag} needs a value argument"));
                    }
                    let value = args.remove(i);
                    let n: u64 = value
                        .parse()
                        .map_err(|e| format!("bad {flag} value {value:?}: {e}"))?;
                    budget = if flag == "--time-budget-ms" {
                        budget.with_time_ms(n)
                    } else {
                        budget.with_bytes(n.saturating_mul(1024 * 1024))
                    };
                }
                "--threads" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--threads needs a count argument".to_string());
                    }
                    let value = args.remove(i);
                    let n: usize = value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad --threads value {value:?}"))?;
                    bootes::par::set_threads(n);
                }
                "--profile-out" | "--trace-out" => {
                    let flag = args.remove(i);
                    if i >= args.len() {
                        return Err(format!("{flag} needs a file argument"));
                    }
                    let path = args.remove(i);
                    if flag == "--profile-out" {
                        profile_out = Some(path);
                    } else {
                        trace_out = Some(path);
                    }
                }
                _ => i += 1,
            }
        }
        if enabled || profile_out.is_some() || trace_out.is_some() {
            bootes::obs::set_enabled(true);
            enabled = true;
        }
        if trace_out.is_some() {
            // The Chrome trace renders per-chunk worker lanes; those records
            // are only collected when the chunk timeline is switched on
            // (plain --profile keeps the cheaper per-region aggregates).
            bootes::obs::set_chunk_timeline(true);
        }
        enabled |= bootes::obs::init_from_env();
        if use_cache {
            let mut cfg =
                bootes::cache::CacheConfig::memory_only(cache_mem_mb.saturating_mul(1024 * 1024));
            if let Some(dir) = cache_dir {
                cfg = cfg.with_dir(dir);
            }
            if args.first().map(String::as_str) == Some("serve") {
                // The daemon runs one pipeline: see `CacheConfig::skip_ritz`.
                cfg = cfg.without_ritz();
            }
            let cache = bootes::cache::Cache::new(cfg)
                .map_err(|e| format!("failed to open artifact cache: {e}"))?;
            bootes::cache::install(cache);
        }
        let armed = if budget.is_unlimited() {
            None
        } else {
            Some(budget.arm())
        };
        let drift = if no_donor {
            None
        } else {
            let mut cfg = bootes::core::DriftConfig::default();
            if let Some(t) = drift_threshold {
                cfg = cfg.with_threshold(t);
            }
            Some(cfg)
        };
        Ok((
            args,
            ProfileOpts {
                enabled,
                profile_out,
                trace_out,
                drift,
                _budget: armed,
            },
        ))
    }

    fn finish(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let profile = bootes::obs::snapshot();
        eprint!("{}", bootes::obs::render_table(&profile));
        // Instrumented kernels also publish flop/byte accounting; pair it
        // with the region clocks into achieved MFLOP/s / GB/s.
        eprint!(
            "{}",
            bootes::perf::render_rates(&bootes::perf::kernel_rates(&profile))
        );
        if let Some(path) = &self.profile_out {
            std::fs::write(path, bootes::obs::export_json(&profile))
                .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("profile JSON written to {path}");
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, bootes::obs::export_chrome_trace())
                .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("Chrome trace written to {path} (open in chrome://tracing)");
        }
        Ok(())
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load(path: &str) -> Result<CsrMatrix, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_matrix_market(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

/// Reads a decision tree from `path`: either a bare tree as `bootes train`
/// writes it, or the `{"model": "<tree JSON>", "accuracy": ...}` wrapper of
/// the committed `results/models/<accel>.json`.
fn load_model(path: &str) -> Result<DecisionTree, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    DecisionTree::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn accel_from(args: &[String]) -> Result<AcceleratorConfig, String> {
    let name = flag(args, "--accel").unwrap_or_else(|| "flexagon".to_string());
    let mut cfg = match name.as_str() {
        "flexagon" => configs::flexagon(),
        "gamma" => configs::gamma(),
        "trapezoid" => configs::trapezoid(),
        other => return Err(format!("unknown accelerator {other:?}")),
    };
    if let Some(cache) = flag(args, "--cache") {
        cfg.cache_bytes = cache
            .parse()
            .map_err(|e| format!("bad --cache value {cache:?}: {e}"))?;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn run(args: &[String], prof: &ProfileOpts) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".to_string());
    };
    match cmd.as_str() {
        "reorder" => cmd_reorder(&args[1..]),
        "features" => cmd_features(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "decide" => cmd_decide(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "perf" => cmd_perf(&args[1..]),
        "serve" => cmd_serve(&args[1..], prof.drift.clone()),
        "chaos" => cmd_chaos(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_reorder(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("reorder needs an input file")?;
    let a = load(input)?;
    let algo_name = flag(args, "--algo").unwrap_or_else(|| "bootes".to_string());
    let k: usize = match flag(args, "--k") {
        Some(v) => v.parse().map_err(|e| format!("bad --k {v:?}: {e}"))?,
        None => 8,
    };
    let algo = reorderer_from(&algo_name, k)?;
    let out = algo.reorder(&a).map_err(|e| e.to_string())?;
    if let (Some(from), Some(reason)) = (&out.stats.degraded_from, &out.stats.degrade_reason) {
        eprintln!("note: output produced by fallback ({from} failed: {reason})");
    }
    let reordered = out.permutation.apply_rows(&a).map_err(|e| e.to_string())?;
    let out_path = flag(args, "-o").unwrap_or_else(|| format!("{input}.reordered.mtx"));
    let mut file =
        std::fs::File::create(&out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    write_matrix_market(&mut file, &reordered).map_err(|e| e.to_string())?;
    println!(
        "{}: reordered {}x{} ({} nnz) with {} in {:.2} ms (peak {} KiB) -> {}",
        input,
        a.nrows(),
        a.ncols(),
        a.nnz(),
        out.stats.algorithm,
        out.stats.elapsed.as_secs_f64() * 1e3,
        out.stats.peak_bytes / 1024,
        out_path
    );
    Ok(())
}

fn reorderer_from(name: &str, k: usize) -> Result<Box<dyn Reorderer>, String> {
    Ok(match name {
        // "bootes" routes through the graceful-degradation chain.
        "bootes" => Box::new(FallbackReorderer::new(BootesConfig::default().with_k(k))),
        "gamma" => Box::new(GammaReorderer::default()),
        "graph" => Box::new(GraphReorderer::default()),
        "hier" => Box::new(HierReorderer::default()),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

fn cmd_features(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("features needs an input file")?;
    let a = load(input)?;
    let f = MatrixFeatures::extract(&a).to_vec();
    for (name, v) in FEATURE_NAMES.iter().zip(f) {
        println!("{name:<18} {v:.6}");
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("simulate needs an input file")?;
    let a = load(input)?;
    let accel = accel_from(args)?;
    // Validate reorder flags up front so a typo fails before the (possibly
    // slow) baseline simulation runs.
    let algo_name = flag(args, "--reorder").unwrap_or_else(|| "bootes".to_string());
    let reorderer = if algo_name == "none" {
        None
    } else {
        let k: usize = match flag(args, "--k") {
            Some(v) => v.parse().map_err(|e| format!("bad --k {v:?}: {e}"))?,
            None => 8,
        };
        Some(reorderer_from(&algo_name, k)?)
    };
    let b = if a.nrows() == a.ncols() {
        a.clone()
    } else {
        a.transpose()
    };
    let rep = simulate_spgemm(&a, &b, &accel).map_err(|e| e.to_string())?;
    println!("accelerator      {}", rep.accelerator);
    println!("original order:");
    print_report(&rep);
    if let Some(algo) = reorderer {
        let out = algo.reorder(&a).map_err(|e| e.to_string())?;
        let permuted = out.permutation.apply_rows(&a).map_err(|e| e.to_string())?;
        let after = simulate_spgemm(&permuted, &b, &accel).map_err(|e| e.to_string())?;
        println!(
            "after {} reordering ({:.2} ms, peak {} KiB):",
            out.stats.algorithm,
            out.stats.elapsed.as_secs_f64() * 1e3,
            out.stats.peak_bytes / 1024
        );
        print_report(&after);
        println!(
            "B-traffic change {:+.1}%",
            (after.b_bytes as f64 / rep.b_bytes.max(1) as f64 - 1.0) * 100.0
        );
    }
    Ok(())
}

fn print_report(rep: &bootes::accel::TrafficReport) {
    println!(
        "  traffic A/B/C    {} / {} / {} bytes",
        rep.a_bytes, rep.b_bytes, rep.c_bytes
    );
    println!(
        "  total            {} bytes ({:.2}x compulsory)",
        rep.total_bytes(),
        rep.normalized_traffic()
    );
    println!("  cache hit rate   {:.1}%", rep.hit_rate() * 100.0);
    println!("  macs / cycles    {} / {}", rep.macs, rep.cycles);
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let out_path = flag(args, "-o").ok_or("train needs -o <model.json>")?;
    let corpus_size: usize = match flag(args, "--corpus") {
        Some(v) => v.parse().map_err(|e| format!("bad --corpus {v:?}: {e}"))?,
        None => 60,
    };
    let seed: u64 = match flag(args, "--seed") {
        Some(v) => v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?,
        None => 42,
    };
    let accel = accel_from(args)?;
    eprintln!(
        "labeling {corpus_size} synthetic matrices on {} (cache {} B)...",
        accel.name, accel.cache_bytes
    );
    let corpus = training_corpus(corpus_size, seed, 384).map_err(|e| e.to_string())?;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for (_, m) in &corpus {
        x.push(MatrixFeatures::extract(m).to_vec());
        // Training matrices are square, so each ordering is priced as A·A.
        let label = measure_label(m, |reordered| {
            simulate_spgemm(reordered, m, &accel)
                .map(|report| report.total_bytes())
                .map_err(|e| e.to_string())
        })?;
        y.push(label.to_class().map_err(|e| e.to_string())?);
    }
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let ds = Dataset::new(x, y, names, Label::N_CLASSES).map_err(|e| e.to_string())?;
    let (train, test) = ds.split(0.7, seed).map_err(|e| e.to_string())?;
    let mut tree = DecisionTree::fit(
        &train,
        &TreeConfig {
            max_depth: 10,
            class_weights: Some(train.balanced_class_weights()),
            ..TreeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    tree.prune();
    let preds: Vec<usize> = (0..test.len())
        .map(|i| tree.predict(test.features(i)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let acc = bootes::model::accuracy(test.labels(), &preds);
    std::fs::write(&out_path, tree.to_json().map_err(|e| e.to_string())?)
        .map_err(|e| format!("write {out_path}: {e}"))?;
    println!(
        "trained on {} samples, held-out accuracy {:.0}%, wrote {} ({} bytes)",
        train.len(),
        acc * 100.0,
        out_path,
        tree.serialized_size()
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("analyze needs an input file")?;
    let pes: usize = match flag(args, "--pes") {
        Some(v) => v.parse().map_err(|e| format!("bad --pes {v:?}: {e}"))?,
        None => 64,
    };
    let a = load(input)?;
    let profile = bootes::reorder::b_reuse_profile_scheduled(&a, pes);
    println!(
        "B-row accesses      {} ({} cold / first-touch)",
        profile.accesses, profile.cold
    );
    println!(
        "mean reuse distance {:.1} B rows",
        profile.mean_reuse_distance()
    );
    println!("predicted LRU hit rate by cache capacity (in B rows):");
    for cap in [16usize, 64, 256, 1024, 4096] {
        println!("  {cap:>5} rows: {:.1}%", profile.hit_rate_at(cap) * 100.0);
    }
    Ok(())
}

/// Resolves the results root the perf actions operate on. `--baseline DIR`
/// accepts either a `baselines/` directory (its parent becomes the root, so
/// the sibling `history/` ledger is found next to it) or a results root.
fn perf_root(args: &[String]) -> std::path::PathBuf {
    match flag(args, "--baseline") {
        Some(dir) => {
            let p = std::path::PathBuf::from(&dir);
            if p.file_name().and_then(|s| s.to_str()) == Some("baselines") {
                p.parent().map_or(p.clone(), |parent| parent.to_path_buf())
            } else {
                p
            }
        }
        None => bootes::perf::results_dir(),
    }
}

fn cmd_perf(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        return Err("perf needs an action: diff | bless | speedup".to_string());
    };
    match action.as_str() {
        "diff" => cmd_perf_diff(&args[1..]),
        "bless" => cmd_perf_bless(&args[1..]),
        "speedup" => cmd_perf_speedup(&args[1..]),
        other => Err(format!("unknown perf action {other:?}")),
    }
}

fn cmd_perf_speedup(args: &[String]) -> Result<(), String> {
    let mut cfg = bootes::perf::SpeedupConfig::default();
    // Any explicit --floor list replaces the default, so CI pins exactly the
    // kernels it gates.
    let floors: Vec<(String, f64)> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == "--floor")
        .map(|(i, _)| {
            let spec = args
                .get(i + 1)
                .ok_or("--floor needs a KERNEL=SPEEDUP argument")?;
            let (kernel, floor) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad --floor {spec:?}: expected KERNEL=SPEEDUP"))?;
            let floor: f64 = floor
                .parse()
                .map_err(|e| format!("bad --floor {spec:?}: {e}"))?;
            Ok((kernel.to_string(), floor))
        })
        .collect::<Result<_, String>>()?;
    if !floors.is_empty() {
        cfg.floors = floors;
    }
    if let Some(v) = flag(args, "--k-mad") {
        cfg.k_mad = v.parse().map_err(|e| format!("bad --k-mad {v:?}: {e}"))?;
    }
    let path = flag(args, "--file").map_or_else(
        || bootes::perf::results_dir().join("par_speedup.json"),
        std::path::PathBuf::from,
    );
    let strict = args.iter().any(|a| a == "-D" || a == "--deny-regressions");
    let rows = match bootes::perf::load_speedup_rows(&path) {
        Ok(rows) => rows,
        // Like `perf diff` with no baselines: a missing result file warns
        // (the bench hasn't run on this machine) but never gates.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!(
                "no speedup results at {} — run the par_speedup bench first; PASS",
                path.display()
            );
            return Ok(());
        }
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let report = bootes::perf::check_speedup(&rows, &cfg);
    print!("{}", bootes::perf::render_speedup(&report));
    if !report.passed() {
        if strict {
            eprintln!(
                "error: {} kernel(s) fell below their parallel-speedup floor",
                report.failures
            );
            std::process::exit(1);
        }
        eprintln!("note: floors missed; rerun with -D to fail the exit code");
    }
    Ok(())
}

fn cmd_perf_diff(args: &[String]) -> Result<(), String> {
    let mut cfg = bootes::perf::DiffConfig::default();
    if let Some(v) = flag(args, "--rel-threshold") {
        cfg.rel_threshold = v
            .parse()
            .map_err(|e| format!("bad --rel-threshold {v:?}: {e}"))?;
    }
    if let Some(v) = flag(args, "--k-mad") {
        cfg.k_mad = v.parse().map_err(|e| format!("bad --k-mad {v:?}: {e}"))?;
    }
    if let Some(v) = flag(args, "--abs-floor-ms") {
        let ms: f64 = v
            .parse()
            .map_err(|e| format!("bad --abs-floor-ms {v:?}: {e}"))?;
        cfg.abs_floor_ns = ms * 1e6;
    }
    let strict = args.iter().any(|a| a == "-D" || a == "--deny-regressions");
    let root = perf_root(args);
    let report = bootes::perf::diff_benches(&root, &cfg);
    print!("{}", bootes::perf::render_diff(&report));
    if !report.passed() {
        if strict {
            // Exit directly: a gate failure should print the table above,
            // not the subcommand usage.
            eprintln!(
                "error: {} perf regression(s) exceed the noise allowance",
                report.regressions
            );
            std::process::exit(1);
        }
        eprintln!("note: regressions present; rerun with -D to fail the exit code");
    }
    Ok(())
}

fn cmd_perf_bless(args: &[String]) -> Result<(), String> {
    let root = perf_root(args);
    let mut benches: Vec<String> = args
        .iter()
        .take_while(|a| !a.starts_with('-'))
        .cloned()
        .collect();
    if benches.is_empty() {
        // No explicit benches: bless everything with a history ledger.
        benches = std::fs::read_dir(root.join("history"))
            .map_err(|e| format!("no run history under {}: {e}", root.display()))?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let path = e.path();
                if path.extension().and_then(|x| x.to_str()) == Some("jsonl") {
                    path.file_stem()
                        .and_then(|s| s.to_str())
                        .map(|s| s.to_string())
                } else {
                    None
                }
            })
            .collect();
        benches.sort();
    }
    if benches.is_empty() {
        return Err(format!(
            "nothing to bless: no history ledgers under {}",
            root.join("history").display()
        ));
    }
    for bench in &benches {
        let history = bootes::perf::load_history(&root, bench)
            .map_err(|e| format!("{bench}: read history: {e}"))?;
        let latest = bootes::perf::latest_run(&history);
        if latest.is_empty() {
            return Err(format!("{bench}: history is empty — run the bench first"));
        }
        bootes::perf::bless(&root, bench, &latest).map_err(|e| format!("{bench}: bless: {e}"))?;
        println!(
            "blessed {} ({} case(s)) -> {}",
            bench,
            latest.len(),
            root.join("baselines")
                .join(format!("{bench}.json"))
                .display()
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String], drift: Option<bootes::core::DriftConfig>) -> Result<(), String> {
    let mut config = bootes::serve::ServeConfig::default();
    if let Some(addr) = flag(args, "--listen") {
        config.listen = addr;
    }
    if let Some(v) = flag(args, "--serve-workers") {
        config.workers = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad --serve-workers value {v:?}"))?;
    }
    if let Some(v) = flag(args, "--queue-cap") {
        config.queue_cap = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad --queue-cap value {v:?}"))?;
    }
    if let Some(v) = flag(args, "--max-inflight") {
        let n: u64 = v
            .parse()
            .map_err(|e| format!("bad --max-inflight {v:?}: {e}"))?;
        config.policy = config.policy.with_inflight(n);
    }
    if let Some(v) = flag(args, "--max-tenant-mb") {
        let mb: u64 = v
            .parse()
            .map_err(|e| format!("bad --max-tenant-mb {v:?}: {e}"))?;
        config.policy = config.policy.with_bytes(mb.saturating_mul(1024 * 1024));
    }
    if let Some(v) = flag(args, "--drain-grace-ms") {
        config.drain_grace_ms = v
            .parse()
            .map_err(|e| format!("bad --drain-grace-ms {v:?}: {e}"))?;
    }
    let model = flag(args, "--model")
        .map(|path| load_model(&path))
        .transpose()?;
    let pipeline = bootes::serve::build_pipeline_with_drift(model, drift)?;
    let handle = bootes::serve::start(config, pipeline)
        .map_err(|e| format!("failed to start serve daemon: {e}"))?;
    // Machine-parseable readiness line: tests and load generators wait for
    // it, then connect to the printed address.
    println!("bootes-serve listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = handle.join();
    println!(
        "bootes-serve drained: {} accepted, {} completed, {} coalesced, {} cache hits, \
         {} rejected (admission {}, queue {}, draining {})",
        stats.accepted,
        stats.completed,
        stats.coalesced,
        stats.cache_hits,
        stats.rejected_admission + stats.rejected_queue + stats.rejected_draining,
        stats.rejected_admission,
        stats.rejected_queue,
        stats.rejected_draining,
    );
    Ok(())
}

fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let bin = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cfg = bootes::chaos::ChaosConfig::new(bin);
    if let Some(v) = flag(args, "--seeds") {
        cfg.seeds = v.parse().map_err(|e| format!("bad --seeds {v:?}: {e}"))?;
    }
    if let Some(v) = flag(args, "--seed") {
        cfg.start_seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
    }
    if let Some(v) = flag(args, "--requests") {
        cfg.requests = v
            .parse()
            .map_err(|e| format!("bad --requests {v:?}: {e}"))?;
    }
    if let Some(dir) = flag(args, "--scratch") {
        cfg.scratch = std::path::PathBuf::from(dir);
    }
    cfg.keep_going = args.iter().any(|a| a == "--keep-going");
    if args.iter().any(|a| a == "--no-shrink") {
        cfg.shrink = false;
    }
    let report = if let Some(token) = flag(args, "--replay") {
        let schedule = bootes::chaos::Schedule::parse_replay(&token)?;
        let fixture = bootes::chaos::driver::ensure_fixture(&cfg)?;
        println!(
            "chaos: replaying seed {} [{}] spec `{}`",
            schedule.seed,
            schedule.workload.name(),
            schedule.spec_string()
        );
        let run = bootes::chaos::run_and_shrink(&cfg, &fixture, &schedule)?;
        let violations = run.violations.len();
        bootes::chaos::ChaosReport {
            runs: vec![run],
            violations,
        }
    } else {
        println!(
            "chaos: running {} seeded schedule(s) from seed {} (scratch {})",
            cfg.seeds,
            cfg.start_seed,
            cfg.scratch.display()
        );
        bootes::chaos::run_batch(&cfg)?
    };
    for run in &report.runs {
        if run.violations.is_empty() {
            println!(
                "  seed {:>4} [{:>13}] PASS  {}",
                run.seed,
                run.workload,
                if run.spec.is_empty() {
                    "(no faults)"
                } else {
                    &run.spec
                }
            );
        } else {
            println!(
                "  seed {:>4} [{:>13}] FAIL  {}",
                run.seed, run.workload, run.spec
            );
            for v in &run.violations {
                println!("        violation {v}");
            }
            println!("        replay:    bootes chaos --replay '{}'", run.replay);
            if let Some(min) = &run.minimized {
                println!(
                    "        minimized: bootes chaos --replay '{min}'  ({} shrink rerun(s))",
                    run.shrink_reruns
                );
            }
        }
    }
    if let Some(path) = flag(args, "--out") {
        let json = report.to_json()?;
        std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("chaos: report written to {path}");
    }
    if report.passed() {
        println!(
            "chaos: {} schedule(s), zero invariant violations",
            report.runs.len()
        );
        Ok(())
    } else {
        // Exit directly: the violation listing above is the diagnosis, not
        // the subcommand usage text.
        eprintln!(
            "error: chaos found {} invariant violation(s) across {} schedule(s)",
            report.violations,
            report.runs.len()
        );
        std::process::exit(1);
    }
}

fn cmd_decide(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("decide needs an input file")?;
    let model_path = flag(args, "--model").ok_or("decide needs --model <model.json>")?;
    let a = load(input)?;
    let tree = load_model(&model_path)?;
    let pipeline = BootesPipeline::new(tree, BootesConfig::default()).map_err(|e| e.to_string())?;
    let decision = pipeline.decide(&a).map_err(|e| e.to_string())?;
    match decision.label {
        Label::NoReorder => println!("{input}: do not reorder"),
        Label::Reorder(k) => println!("{input}: reorder with k = {k}"),
    }
    Ok(())
}

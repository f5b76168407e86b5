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
//! - `serve [--listen ADDR] [--drift-threshold F] [--no-donor]` — run the
//!   long-lived reorder/decision daemon: newline-delimited JSON over a Unix
//!   or TCP socket, with bounded admission, per-tenant budgets, singleflight
//!   coalescing of identical in-flight requests, drift donor reuse, and
//!   graceful drain on the `shutdown` op,
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
//! - `--time-budget-ms MS` / `--mem-budget-mb MB` — preprocessing budgets;
//!   on exhaustion the reorderer degrades to a cheaper algorithm,
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
//! The subcommand comes first; flags and arguments follow it in any order.
//! Each subcommand declares its flags in one table (`COMMANDS`, plus
//! `GLOBAL_FLAGS`): an undeclared flag, a flag without its value, or an
//! extra argument is an error, reported before anything runs. `-h` or
//! `--help` anywhere prints the usage and exits 0.
//!
//! Examples:
//!
//! ```sh
//! bootes reorder matrix.mtx -o reordered.mtx --algo bootes --k 8
//! bootes simulate matrix.mtx --accel flexagon --profile --trace-out trace.json
//! bootes train --corpus 60 -o model.json && bootes decide matrix.mtx --model model.json
//! ```

use std::fmt::Display;
use std::io::BufReader;
use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

use bootes::accel::{configs, simulate_spgemm, AcceleratorConfig};
use bootes::core::{
    label_corpus, BootesConfig, BootesPipeline, FallbackReorderer, Label, MatrixFeatures,
    FEATURE_NAMES,
};
use bootes::model::{DecisionTree, TreeConfig};
use bootes::reorder::{GammaReorderer, GraphReorderer, HierReorderer, Reorderer};
use bootes::sparse::io::{read_matrix_market, write_matrix_market};
use bootes::sparse::CsrMatrix;
use bootes::workloads::suite::training_corpus;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return usage_error(&msg),
    };
    let globals = match Globals::apply(&args) {
        Ok(globals) => globals,
        Err(msg) => return usage_error(&msg),
    };
    let result = (args.cmd.run)(&args);
    if let Err(msg) = globals.finish() {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => usage_error(&msg),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
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
                  [--drain-grace-ms MS] [--drift-threshold F] [--no-donor]
                  (ADDR: unix:/path.sock | tcp:host:port; default
                   tcp:127.0.0.1:0 — the bound address is printed on stdout.
                   Newline-delimited JSON; ops: preprocess, decide, ping,
                   stats, shutdown. A shutdown request drains gracefully and
                   is answered after the drain. F: the rows-changed fraction
                   above which a cached donor permutation is abandoned for a
                   full recompute, default 0.25; 0 always recomputes, 1
                   always resplices. --no-donor turns donor reuse off: every
                   exact cache miss recomputes cold, no sketches are stored)
  bootes chaos    [--seeds N] [--seed S] [--requests N] [--scratch DIR]
                  [--replay TOKEN] [--out FILE.json] [--keep-going]
                  [--no-shrink]
                  (N seeded random fault schedules against subprocess
                   workloads — exit 1 on any invariant violation, with the
                   failing schedule shrunk to a minimal seed:workload:spec
                   replay token)
global flags (after any subcommand):
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
  --profile               collect spans/metrics, print profile table to stderr
  --profile-out FILE.json write the profile as JSON
  --trace-out FILE.json   write a Chrome trace-event file
  -h, --help              print this usage and exit
  (The subcommand comes first. An unknown flag, a flag without its value or
   an extra argument is an error. BOOTES_PROFILE=1 in the environment also
   enables profiling; BOOTES_FAILPOINTS=\"site=err@N,...\" injects
   deterministic faults)";

/// A flag as `(name, takes_value)`.
type Flag = (&'static str, bool);

/// Flags every subcommand accepts; [`Globals::apply`] acts on them.
#[rustfmt::skip]
const GLOBAL_FLAGS: &[Flag] = &[
    ("--threads", true), ("--time-budget-ms", true), ("--mem-budget-mb", true),
    ("--cache-dir", true), ("--cache-mem-mb", true), ("--no-cache", false),
    ("--profile", false), ("--profile-out", true), ("--trace-out", true),
];

/// Flags that print the usage and exit 0 wherever they appear.
const HELP: [&str; 2] = ["-h", "--help"];

/// One subcommand (or `perf` action): how many positional arguments it
/// takes, the flags it declares on top of [`GLOBAL_FLAGS`], and its body.
struct Command {
    name: &'static str,
    positionals: RangeInclusive<usize>,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), String>,
}

impl Command {
    fn flag(&self, name: &str) -> Option<Flag> {
        let mut flags = self.flags.iter().chain(GLOBAL_FLAGS);
        flags.find(|(f, _)| *f == name).copied()
    }
}

/// Every subcommand and `perf` action; `parse` looks the command line up here.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "reorder", positionals: 1..=1, run: cmd_reorder,
        flags: &[("-o", true), ("--algo", true), ("--k", true)] },
    Command { name: "features", positionals: 1..=1, run: cmd_features, flags: &[] },
    Command { name: "simulate", positionals: 1..=1, run: cmd_simulate,
        flags: &[("--accel", true), ("--cache", true), ("--reorder", true), ("--k", true)] },
    Command { name: "train", positionals: 0..=0, run: cmd_train,
        flags: &[("--corpus", true), ("--accel", true), ("--cache", true), ("--seed", true),
                 ("-o", true)] },
    Command { name: "decide", positionals: 1..=1, run: cmd_decide, flags: &[("--model", true)] },
    Command { name: "analyze", positionals: 1..=1, run: cmd_analyze, flags: &[("--pes", true)] },
    Command { name: "perf diff", positionals: 0..=0, run: cmd_perf_diff,
        flags: &[("--baseline", true), ("-D", false), ("--rel-threshold", true),
                 ("--k-mad", true), ("--abs-floor-ms", true)] },
    Command { name: "perf bless", positionals: 0..=usize::MAX, run: cmd_perf_bless,
        flags: &[("--baseline", true)] },
    Command { name: "perf speedup", positionals: 0..=0, run: cmd_perf_speedup,
        flags: &[("--file", true), ("--floor", true), ("--k-mad", true), ("-D", false)] },
    Command { name: "serve", positionals: 0..=0, run: cmd_serve,
        flags: &[("--listen", true), ("--model", true), ("--serve-workers", true),
                 ("--queue-cap", true), ("--max-inflight", true), ("--max-tenant-mb", true),
                 ("--drain-grace-ms", true), ("--drift-threshold", true), ("--no-donor", false)] },
    Command { name: "chaos", positionals: 0..=0, run: cmd_chaos,
        flags: &[("--seeds", true), ("--seed", true), ("--requests", true), ("--scratch", true),
                 ("--replay", true), ("--out", true), ("--keep-going", false),
                 ("--no-shrink", false)] },
];

/// A command line checked against its [`Command`]'s table.
struct Args {
    cmd: &'static Command,
    /// Declared flags in command-line order, with their values.
    flags: Vec<(&'static str, Option<String>)>,
    /// A count within `cmd.positionals`, so a command that takes an input
    /// file always has it first.
    positionals: Vec<String>,
}

/// Parses the arguments after the program name: the subcommand (two words
/// for `perf`), then its flags and positional arguments in any order.
/// `Ok(None)` means help was asked for. A value is the word after its flag
/// and may not start with `-`.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| HELP.contains(&a.as_str())) {
        return Ok(None);
    }
    let (name, rest) = match argv {
        [] => return Err("missing subcommand".to_string()),
        [help, ..] if help == "help" => return Ok(None),
        [perf] if perf == "perf" => {
            return Err("perf needs an action: diff | bless | speedup".into())
        }
        [perf, action, rest @ ..] if perf == "perf" => (format!("perf {action}"), rest),
        [cmd, rest @ ..] => (cmd.clone(), rest),
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let mut args = Args {
        cmd,
        flags: Vec::new(),
        positionals: Vec::new(),
    };
    let mut words = rest.iter();
    while let Some(word) = words.next() {
        if !word.starts_with('-') {
            args.positionals.push(word.clone());
            continue;
        }
        let (flag, takes_value) = cmd
            .flag(word)
            .ok_or_else(|| format!("unknown flag {word:?} for {name}"))?;
        let mut value = None;
        if takes_value {
            let next = words.next().filter(|v| !v.starts_with('-'));
            value = Some(next.ok_or_else(|| format!("{flag} needs a value"))?.clone());
        }
        args.flags.push((flag, value));
    }
    if let Some(extra) = args.positionals.get(*cmd.positionals.end()) {
        return Err(format!("unexpected argument {extra:?} for {name}"));
    }
    if args.positionals.len() < *cmd.positionals.start() {
        return Err(format!("{name} needs an input file"));
    }
    Ok(Some(args))
}

impl Args {
    /// Each occurrence of `name`, in command-line order, with its value.
    fn occurrences<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Option<String>> {
        debug_assert!(self.cmd.flag(name).is_some(), "{name} is undeclared");
        self.flags
            .iter()
            .filter(move |(f, _)| *f == name)
            .map(|(_, v)| v)
    }

    /// The values given to `name`, in command-line order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.occurrences(name).filter_map(Option::as_deref)
    }

    /// The last value given to `name`.
    fn get<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.values(name).last()
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.occurrences(name).next().is_some()
    }

    /// [`Args::get`] parsed as `T`.
    fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("bad {name} value {v:?}: {e}"))
            })
            .transpose()
    }

    /// [`Args::parse`], or `default` when the flag is absent.
    fn parse_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.parse(name)?.unwrap_or(default))
    }

    /// The input file of a command that takes one.
    fn input(&self) -> &str {
        &self.positionals[0]
    }
}

/// The effects of the global flags, applied before the subcommand runs.
/// Holding the struct keeps the armed budget alive for the whole run; it
/// disarms on drop.
struct Globals {
    enabled: bool,
    profile_out: Option<String>,
    trace_out: Option<String>,
    _budget: Option<bootes::guard::ArmedBudget>,
}

impl Globals {
    fn apply(args: &Args) -> Result<Self, String> {
        let threads: Option<NonZeroUsize> = args.parse("--threads")?;
        let time_ms: Option<u64> = args.parse("--time-budget-ms")?;
        let mem_mb: Option<u64> = args.parse("--mem-budget-mb")?;
        let cache_mem_mb: u64 = args.parse_or("--cache-mem-mb", 256)?;
        if let Some(n) = threads {
            bootes::par::set_threads(n.get());
        }
        let profile_out = args.get("--profile-out").map(str::to_string);
        let trace_out = args.get("--trace-out").map(str::to_string);
        let mut enabled = args.has("--profile") || profile_out.is_some() || trace_out.is_some();
        if enabled {
            bootes::obs::set_enabled(true);
        }
        if trace_out.is_some() {
            // The Chrome trace renders per-chunk worker lanes; those records
            // are only collected when the chunk timeline is switched on
            // (plain --profile keeps the cheaper per-region aggregates).
            bootes::obs::set_chunk_timeline(true);
        }
        enabled |= bootes::obs::init_from_env();
        if !args.has("--no-cache") {
            let mut cfg =
                bootes::cache::CacheConfig::memory_only(cache_mem_mb.saturating_mul(1024 * 1024));
            if let Some(dir) = args.get("--cache-dir") {
                cfg = cfg.with_dir(dir);
            }
            if args.cmd.name == "serve" {
                // The daemon runs one pipeline: see `CacheConfig::skip_ritz`.
                cfg = cfg.without_ritz();
            }
            let cache = bootes::cache::Cache::new(cfg)
                .map_err(|e| format!("failed to open artifact cache: {e}"))?;
            bootes::cache::install(cache);
        }
        let mut budget = bootes::guard::Budget::unlimited();
        if let Some(ms) = time_ms {
            budget = budget.with_time_ms(ms);
        }
        if let Some(mb) = mem_mb {
            budget = budget.with_bytes(mb.saturating_mul(1024 * 1024));
        }
        Ok(Globals {
            enabled,
            profile_out,
            trace_out,
            _budget: (!budget.is_unlimited()).then(|| budget.arm()),
        })
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

fn accel_from(args: &Args) -> Result<AcceleratorConfig, String> {
    let mut cfg = match args.get("--accel").unwrap_or("flexagon") {
        "flexagon" => configs::flexagon(),
        "gamma" => configs::gamma(),
        "trapezoid" => configs::trapezoid(),
        other => return Err(format!("unknown accelerator {other:?}")),
    };
    cfg.cache_bytes = args.parse_or("--cache", cfg.cache_bytes)?;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn cmd_reorder(args: &Args) -> Result<(), String> {
    let input = args.input();
    let algo = reorderer_from(args.get("--algo").unwrap_or("bootes"), args)?;
    let a = load(input)?;
    let out = algo.reorder(&a).map_err(|e| e.to_string())?;
    if let (Some(from), Some(reason)) = (&out.stats.degraded_from, &out.stats.degrade_reason) {
        eprintln!("note: output produced by fallback ({from} failed: {reason})");
    }
    let reordered = out.permutation.apply_rows(&a).map_err(|e| e.to_string())?;
    let out_path = args
        .get("-o")
        .map_or_else(|| format!("{input}.reordered.mtx"), str::to_string);
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

/// The reorderer `name`, with the cluster count from `--k` (default 8).
fn reorderer_from(name: &str, args: &Args) -> Result<Box<dyn Reorderer>, String> {
    let k = args.parse_or("--k", 8)?;
    Ok(match name {
        // "bootes" routes through the graceful-degradation chain.
        "bootes" => Box::new(FallbackReorderer::new(BootesConfig::default().with_k(k))),
        "gamma" => Box::new(GammaReorderer::default()),
        "graph" => Box::new(GraphReorderer::default()),
        "hier" => Box::new(HierReorderer::default()),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

fn cmd_features(args: &Args) -> Result<(), String> {
    let a = load(args.input())?;
    let f = MatrixFeatures::extract(&a).to_vec();
    for (name, v) in FEATURE_NAMES.iter().zip(f) {
        println!("{name:<18} {v:.6}");
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let accel = accel_from(args)?;
    // Check the flag values before the input is read and the (possibly
    // slow) baseline simulation runs.
    let reorderer = match args.get("--reorder").unwrap_or("bootes") {
        "none" => None,
        name => Some(reorderer_from(name, args)?),
    };
    let a = load(args.input())?;
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

fn cmd_train(args: &Args) -> Result<(), String> {
    let out_path = args.get("-o").ok_or("train needs -o <model.json>")?;
    let corpus_size: usize = args.parse_or("--corpus", 60)?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let accel = &accel_from(args)?;
    eprintln!(
        "labeling {corpus_size} synthetic matrices on {} (cache {} B)...",
        accel.name, accel.cache_bytes
    );
    let corpus = training_corpus(corpus_size, seed, 384).map_err(|e| e.to_string())?;
    // Training matrices are square, so each ordering is priced as A·A.
    let matrices = corpus.iter().map(|(_, m)| m);
    let ds = label_corpus(matrices, 1, bootes::par::threads(), |a| {
        move |m: &CsrMatrix| simulate_spgemm(m, a, accel).map(|r| vec![r.total_bytes()])
    })?
    .remove(0);
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
    std::fs::write(out_path, tree.to_json().map_err(|e| e.to_string())?)
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

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let pes: usize = args.parse_or("--pes", 64)?;
    let a = load(args.input())?;
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
fn perf_root(args: &Args) -> std::path::PathBuf {
    match args.get("--baseline") {
        Some(dir) => {
            let p = std::path::PathBuf::from(dir);
            if p.file_name().and_then(|s| s.to_str()) == Some("baselines") {
                p.parent().map_or(p.clone(), |parent| parent.to_path_buf())
            } else {
                p
            }
        }
        None => bootes::perf::results_dir(),
    }
}

fn cmd_perf_speedup(args: &Args) -> Result<(), String> {
    let mut cfg = bootes::perf::SpeedupConfig::default();
    // Any explicit --floor list replaces the default, so CI pins exactly the
    // kernels it gates.
    let floors: Vec<(String, f64)> = args
        .values("--floor")
        .map(|spec| {
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
    cfg.k_mad = args.parse_or("--k-mad", cfg.k_mad)?;
    let path = args.get("--file").map_or_else(
        || bootes::perf::results_dir().join("par_speedup.json"),
        std::path::PathBuf::from,
    );
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
        if args.has("-D") {
            eprintln!(
                "error: {} kernel(s) fell below their parallel-speedup floor or have no rows",
                report.failures
            );
            std::process::exit(1);
        }
        eprintln!("note: floors missed; rerun with -D to fail the exit code");
    }
    Ok(())
}

fn cmd_perf_diff(args: &Args) -> Result<(), String> {
    let defaults = bootes::perf::DiffConfig::default();
    let cfg = bootes::perf::DiffConfig {
        rel_threshold: args.parse_or("--rel-threshold", defaults.rel_threshold)?,
        k_mad: args.parse_or("--k-mad", defaults.k_mad)?,
        abs_floor_ns: args
            .parse::<f64>("--abs-floor-ms")?
            .map_or(defaults.abs_floor_ns, |ms| ms * 1e6),
    };
    let report = bootes::perf::diff_benches(&perf_root(args), &cfg);
    print!("{}", bootes::perf::render_diff(&report));
    if !report.passed() {
        if args.has("-D") {
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

fn cmd_perf_bless(args: &Args) -> Result<(), String> {
    let root = perf_root(args);
    let mut benches = args.positionals.clone();
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

fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut config = bootes::serve::ServeConfig::default();
    if let Some(addr) = args.get("--listen") {
        config.listen = addr.to_string();
    }
    if let Some(n) = args.parse::<NonZeroUsize>("--serve-workers")? {
        config.workers = n.get();
    }
    if let Some(n) = args.parse::<NonZeroUsize>("--queue-cap")? {
        config.queue_cap = n.get();
    }
    if let Some(n) = args.parse("--max-inflight")? {
        config.policy = config.policy.with_inflight(n);
    }
    if let Some(mb) = args.parse::<u64>("--max-tenant-mb")? {
        config.policy = config.policy.with_bytes(mb.saturating_mul(1024 * 1024));
    }
    config.drain_grace_ms = args.parse_or("--drain-grace-ms", config.drain_grace_ms)?;
    let mut drift = bootes::core::DriftConfig::default();
    if let Some(t) = args.parse::<f64>("--drift-threshold")? {
        if !(0.0..=1.0).contains(&t) {
            return Err(format!("--drift-threshold {t} outside [0, 1]"));
        }
        drift = drift.with_threshold(t);
    }
    let drift = (!args.has("--no-donor")).then_some(drift);
    let model = args.get("--model").map(load_model).transpose()?;
    let pipeline = bootes::serve::build_pipeline(model, drift)?;
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

fn cmd_chaos(args: &Args) -> Result<(), String> {
    let bin = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cfg = bootes::chaos::ChaosConfig::new(bin);
    cfg.seeds = args.parse_or("--seeds", cfg.seeds)?;
    cfg.start_seed = args.parse_or("--seed", cfg.start_seed)?;
    cfg.requests = args.parse_or("--requests", cfg.requests)?;
    if let Some(dir) = args.get("--scratch") {
        cfg.scratch = std::path::PathBuf::from(dir);
    }
    cfg.keep_going = args.has("--keep-going");
    cfg.shrink = !args.has("--no-shrink");
    let report = if let Some(token) = args.get("--replay") {
        let schedule = bootes::chaos::Schedule::parse_replay(token)?;
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
    if let Some(path) = args.get("--out") {
        let json = report.to_json()?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
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

fn cmd_decide(args: &Args) -> Result<(), String> {
    let input = args.input();
    let model_path = args
        .get("--model")
        .ok_or("decide needs --model <model.json>")?;
    let a = load(input)?;
    let tree = load_model(model_path)?;
    let pipeline = BootesPipeline::new(tree, BootesConfig::default()).map_err(|e| e.to_string())?;
    let decision = pipeline.decide(&a).map_err(|e| e.to_string())?;
    match decision.label {
        Label::NoReorder => println!("{input}: do not reorder"),
        Label::Reorder(k) => println!("{input}: reorder with k = {k}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The usage text names exactly the flags the tables declare, so a flag
    /// cannot be documented without being accepted or the other way round.
    #[test]
    fn usage_names_exactly_the_declared_flags() {
        let named: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.len() > 1 && w.starts_with('-'))
            .collect();
        let declared: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.flags)
            .chain(GLOBAL_FLAGS)
            .map(|&(name, _)| name)
            .chain(HELP)
            .collect();
        assert_eq!(named, declared);
    }
}

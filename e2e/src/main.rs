//! `e2e`: one end-to-end, layer-resolved benchmark over the Bootes CLI,
//! serve and drift paths. See `README.md` next to this crate for the
//! workloads, the metric catalogue and the commands.
//!
//! ```text
//! e2e --workload <suite-cold|serve-mixed|drift-stream> --seed N
//!     [--seconds S] [--trace 0|1] [--smoke] [--bootes PATH] [--history DIR]
//! e2e agree A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! One invocation runs one workload in its own process. Every metric is
//! printed with its unit and sample count; the last line of stdout is the
//! JSON summary. The exit code is nonzero when an output check failed.

mod agree;
mod drift;
mod env;
mod layers;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use bootes_cache::{Cache, CacheConfig};

use crate::env::HostSpeed;
use crate::report::Outcome;
use crate::trace::{Breakdown, Tracer};

/// The workloads, each with a module that sets it up, measures it
/// untraced, and replays a slice of it traced.
pub const WORKLOADS: [&str; 3] = ["suite-cold", "serve-mixed", "drift-stream"];

/// Everything a workload run needs to know.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the untraced measurement runs.
    pub seconds: f64,
    /// Run the traced replay and report the per-layer metrics instead.
    pub trace: bool,
    /// One pass and sub-second levels: a quick check that everything runs.
    pub smoke: bool,
    /// Where the daemon's socket and model file and the span dump go
    /// (`$CARGO_TARGET_DIR/e2e`).
    pub out_dir: PathBuf,
    /// The `bootes` executable the serve workload starts.
    pub bootes: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

impl Ctx {
    /// Passes the untraced measurement runs at least.
    pub fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Times the set-up is repeated to report its median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// A seed for the `i`-th independent input stream of this run.
    pub fn sub_seed(&self, i: u64) -> u64 {
        let mut s = self.seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F);
        stats::splitmix64(&mut s)
    }
}

/// Installs a fresh in-memory artifact cache with the CLI's default
/// ceiling (256 MB), replacing any previous one.
pub fn fresh_cache() {
    let cache = Cache::new(CacheConfig::memory_only(256 << 20)).expect("memory-only cache opens");
    bootes_cache::install(cache);
}

/// Runs `setup` `reps` times, sampling the host's speed around each, and
/// returns the last result with the median set-up time in reference-host
/// seconds.
pub fn timed_setup<T>(
    reps: usize,
    speed: &mut HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    speed.sample();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        let seconds = t.elapsed().as_secs_f64();
        times.push(seconds * speed.sample());
    }
    let value = last.expect("at least one set-up ran");
    Ok((value, bootes_perf::median(&times), times.len()))
}

/// Counters the traced replays gather besides the spans.
#[derive(Default)]
pub struct LayerCounts {
    /// `preprocess` calls replayed.
    pub calls: usize,
    /// Calls answered from the exact-key cache entry.
    pub hits: usize,
    /// Calls whose verdict was to reorder.
    pub reorders: usize,
    /// Sum of the chosen cluster counts.
    pub k_sum: usize,
    /// Calls served by a donor resplice.
    pub resplices: usize,
    /// Calls where a donor qualified but too many rows had changed.
    pub fallbacks: usize,
    /// Split-eigensolve counters.
    pub linalg: layers::LinalgCounters,
    /// Per accelerator: B bytes, B-cache hits and misses of the
    /// Bootes-ordered runs.
    pub accel: [(u64, u64, u64); 3],
    /// Simulated multiply-accumulates.
    pub macs: u64,
    /// Host seconds of every `simulate_spgemm` call.
    pub simulate_s: Vec<f64>,
    /// Host seconds of every `apply_rows` call.
    pub permute_s: Vec<f64>,
    /// Requests the daemon coalesced.
    pub coalesced: u64,
    /// Traced time over untraced time of the same slice, minus one.
    pub overhead_frac: f64,
    /// Entries and bytes of the replay's cache when the slice ended.
    pub cache_end: (usize, usize),
    /// Worst ratio of the donor path's B traffic to a cold reorder's; 1
    /// where nothing was respliced.
    pub traffic_ratio_max: Option<f64>,
    /// The traced run's host-speed scale (see [`HostSpeed::scale`]).
    pub host_scale: f64,
}

impl LayerCounts {
    /// Records the installed cache's size as the slice's final state.
    pub fn snapshot_cache(&mut self) {
        if let Some(cache) = bootes_cache::global() {
            let s = cache.stats();
            self.cache_end = (s.entries, s.bytes);
        }
    }

    /// Tallies one replayed `preprocess` call.
    pub fn tally(&mut self, r: &layers::Replayed) {
        self.calls += 1;
        self.hits += r.cache_hit as usize;
        self.resplices += r.respliced as usize;
        self.fallbacks += r.drift_fallback as usize;
        if let bootes_core::Label::Reorder(k) = r.label {
            self.reorders += 1;
            self.k_sum += k;
        }
    }

    /// Tallies one simulation and the host seconds it took.
    pub fn tally_simulation(&mut self, r: &bootes_accel::TrafficReport, host_s: f64) {
        self.macs += r.macs;
        self.simulate_s.push(host_s);
    }

    /// Tallies the B traffic of a Bootes-ordered run on accelerator `i`.
    pub fn tally_traffic(&mut self, i: usize, r: &bootes_accel::TrafficReport) {
        self.accel[i].0 += r.b_bytes;
        self.accel[i].1 += r.cache_hits;
        self.accel[i].2 += r.cache_misses;
    }
}

/// Adds the per-layer metrics every workload reports to `out`.
pub fn push_layer_metrics(out: &mut Outcome, b: &Breakdown, c: &LayerCounts) {
    let units = b.units;
    for name in [
        "sparse.parse",
        "sparse.fingerprint",
        "cache.get",
        "cache.put",
        "cache.sketch_candidates",
        "core.features",
        "model.predict",
        "drift.probe",
        "drift.sketch",
        "drift.best_donor",
        "drift.row_hashes",
        "drift.resplice",
        "core.reorder",
        "linalg.laplacian",
        "linalg.lanczos",
        "linalg.kmeans",
        "serve.decode",
        "serve.to_csr",
        "serve.encode",
    ] {
        out.push(format!("{name}_ms"), b.ms_per_unit(name), "ms", units);
    }
    let order_ns = b.self_ns.get("core.reorder").copied().unwrap_or(0);
    out.push(
        "core.order_ms",
        order_ns as f64 / 1e6 / units.max(1) as f64,
        "ms",
        units,
    );
    let per_call = |v: &[f64]| stats::mean(v) * 1e3;
    out.push(
        "sparse.permute_ms",
        per_call(&c.permute_s),
        "ms",
        c.permute_s.len(),
    );
    out.push(
        "accel.simulate_ms",
        per_call(&c.simulate_s),
        "ms",
        c.simulate_s.len(),
    );
    out.push(
        "trace.e2e_ms",
        b.e2e_ns as f64 / 1e6 / units.max(1) as f64,
        "ms",
        units,
    );
    out.push(
        "trace.unattributed_ms",
        b.unattributed_ns as f64 / 1e6 / units.max(1) as f64,
        "ms",
        units,
    );
    out.push("trace.overhead_frac", c.overhead_frac, "frac", 1);
    for layer in [
        "sparse", "cache", "core", "model", "linalg", "drift", "accel", "serve",
    ] {
        out.push(
            format!("share.{layer}"),
            b.layer_share(layer),
            "frac",
            units,
        );
    }
    let calls = c.calls.max(1) as f64;
    out.push("cache.hit_share", c.hits as f64 / calls, "frac", c.calls);
    out.push(
        "core.reorder_share",
        c.reorders as f64 / calls,
        "frac",
        c.calls,
    );
    out.push(
        "core.k_mean",
        c.k_sum as f64 / c.reorders.max(1) as f64,
        "count",
        c.reorders,
    );
    out.push(
        "drift.donor_share",
        c.resplices as f64 / calls,
        "frac",
        c.calls,
    );
    out.push("drift.fallbacks", c.fallbacks as f64, "count", c.calls);
    out.push(
        "drift.traffic_ratio_max",
        c.traffic_ratio_max.unwrap_or(1.0),
        "x",
        c.resplices,
    );
    out.push("cache.entries_end", c.cache_end.0 as f64, "count", 1);
    out.push("cache.bytes_end", c.cache_end.1 as f64, "bytes", 1);
    let l = &c.linalg;
    out.push(
        "linalg.lanczos_applies",
        l.applies as f64 / l.solves.max(1) as f64,
        "count",
        l.solves,
    );
    let lanczos_s = b.busy_ns.get("linalg.lanczos").copied().unwrap_or(0) as f64 / 1e9;
    out.push(
        "linalg.lanczos_gb_s",
        if lanczos_s > 0.0 {
            l.bytes / lanczos_s / 1e9
        } else {
            0.0
        },
        "GB/s",
        l.solves,
    );
    for (i, accel) in env::ACCELS.iter().enumerate() {
        let (bytes, hits, misses) = c.accel[i];
        out.push(format!("accel.b_bytes.{accel}"), bytes as f64, "bytes", 1);
        out.push(
            format!("accel.hit_rate.{accel}"),
            hits as f64 / (hits + misses).max(1) as f64,
            "frac",
            1,
        );
    }
    let sim_s: f64 = c.simulate_s.iter().sum();
    out.push(
        "accel.macs_per_host_s",
        if sim_s > 0.0 {
            c.macs as f64 / sim_s
        } else {
            0.0
        },
        "1/s",
        c.simulate_s.len(),
    );
    out.push("serve.coalesced", c.coalesced as f64, "count", 1);
    out.push("env.copy_gb_s", env::copy_gb_s(), "GB/s", 5);
    out.push("env.nproc", env::nproc() as f64, "count", 1);
    out.push("env.host_scale", c.host_scale, "x", 1);
}

/// Per-layer metrics that only one workload measures. The traced runs of
/// the other workloads report them as 0, so that every traced run reports
/// the same set.
const WORKLOAD_SPECIFIC: [(&str, &str); 25] = [
    ("drift.step_ms.first64", "ms"),
    ("drift.step_ms.last64", "ms"),
    ("serve.hit_share", "frac"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.exec_ms_p50.hit", "ms"),
    ("serve.exec_ms_p50.miss", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.gen_late_ms_p90", "ms"),
    ("serve.p50_ms.r50", "ms"),
    ("serve.p90_ms.r50", "ms"),
    ("serve.hit_p50_ms.r50", "ms"),
    ("serve.miss_p50_ms.r50", "ms"),
    ("serve.backlog.r50", "s"),
    ("serve.p50_ms.r100", "ms"),
    ("serve.p90_ms.r100", "ms"),
    ("serve.hit_p50_ms.r100", "ms"),
    ("serve.miss_p50_ms.r100", "ms"),
    ("serve.backlog.r100", "s"),
    ("serve.p50_ms.r200", "ms"),
    ("serve.p90_ms.r200", "ms"),
    ("serve.hit_p50_ms.r200", "ms"),
    ("serve.miss_p50_ms.r200", "ms"),
    ("serve.backlog.r200", "s"),
    ("serve.max_rps", "1/s"),
];

/// Adds a 0 for every workload-specific per-layer metric `out` lacks.
fn fill_workload_specific(out: &mut Outcome) {
    for (name, unit) in WORKLOAD_SPECIFIC {
        if !out.metrics.iter().any(|m| m.name == name) {
            out.push(name, 0.0, unit, 0);
        }
    }
}

/// Writes the spans of a traced run, once, at its end.
pub fn dump_spans(ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
    tracer
        .write_json(&ctx.spans)
        .map_err(|e| format!("write {}: {e}", ctx.spans.display()))?;
    eprintln!("spans written to {}", ctx.spans.display());
    Ok(())
}

struct Args {
    workload: String,
    ctx: Ctx,
    history: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: e2e --workload <{}> --seed N [--seconds S] [--trace 0|1] [--smoke] \
         [--bootes PATH] [--history DIR]\n       \
         e2e agree A.jsonl B.jsonl [--bounds BENCHMARK.json]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut bootes = None;
    let mut history = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--bootes" => bootes = Some(PathBuf::from(value()?)),
            "--history" => history = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seed = seed.ok_or_else(usage)?;
    let out_dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("e2e");
    let spans = out_dir.join(format!("spans.{workload}.{seed}.json"));
    let bootes = match bootes {
        Some(b) => b,
        None => std::env::current_exe()
            .map_err(|e| format!("locate the e2e executable: {e}"))?
            .with_file_name("bootes"),
    };
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            smoke,
            out_dir,
            bootes,
            spans,
        },
        history,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("create {}: {e}", ctx.out_dir.display()))?;
    match args.workload.as_str() {
        "suite-cold" => suite::run(ctx),
        "serve-mixed" => serve::run(ctx),
        "drift-stream" => drift::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Summarizes the raw timing samples through the perf runner (median and
/// MAD) and, with `--history DIR`, appends them to its ledger under `DIR`
/// together with the summary line that `e2e agree` reads.
fn record_samples(args: &Args, outcome: &Outcome, summary: &str) -> Result<(), String> {
    let mode = if args.ctx.trace { "trace" } else { "e2e" };
    let mut runner = bootes_perf::Runner::new(&format!("e2e.{}.{mode}", args.workload));
    for (case, samples) in &outcome.samples {
        let m = runner.record_samples(case, samples.clone());
        println!(
            "samples {case:<30} {} n={}",
            bootes_perf::runner::fmt_summary_ns(&m.summary),
            m.reps
        );
    }
    let Some(dir) = &args.history else {
        return Ok(());
    };
    runner
        .finish(dir)
        .map_err(|e| format!("append history under {}: {e}", dir.display()))?;
    use std::io::Write as _;
    let path = dir.join(format!("{}.{mode}.jsonl", args.workload));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{summary}").map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("agree") {
        match agree::run(&argv[1..]) {
            Ok(all_pass) => std::process::exit(if all_pass { 0 } else { 1 }),
            Err(e) => {
                eprintln!("e2e agree: {e}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    // Every kernel runs on one thread: concurrency comes only from the
    // daemon's workers and the load generator's connections.
    bootes_par::set_threads(1);
    let env = bootes_perf::BenchEnv::capture();
    println!(
        "e2e {} seed {} ({} s{}): {} of {} cpus, git {}",
        args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        if args.ctx.trace { ", traced" } else { "" },
        env.threads,
        env.cpus,
        env.git_rev
    );
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        }
    };
    if args.ctx.trace {
        fill_workload_specific(&mut outcome);
    }
    for m in &outcome.metrics {
        assert!(
            stats::valid_metric_name(&m.name),
            "metric name {:?}",
            m.name
        );
    }
    outcome.print();
    let summary = serde_json::to_string(&outcome.summary()).expect("summary serializes");
    if let Err(e) = record_samples(&args, &outcome, &summary) {
        eprintln!("e2e: {e}");
    }
    println!("{summary}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}

//! `suite-cold`: the 26 Table-3 matrices through the CLI path, Table 4's
//! flow. Per matrix: parse its Matrix Market bytes, then for each
//! accelerator preprocess with that accelerator's model, permute, and
//! simulate. Every pass starts from an empty cache, so every preprocess is
//! a cold miss: spectral clustering, parsing and the simulator do the work.

use std::collections::HashMap;
use std::time::Instant;

use bootes_accel::{simulate_spgemm, AcceleratorConfig};
use bootes_bench::{b_operand, geomean, scaled_configs};
use bootes_core::{BootesConfig, BootesPipeline, Label, MatrixFeatures};
use bootes_model::DecisionTree;
use bootes_sparse::io::{read_matrix_market, write_matrix_market};
use bootes_sparse::{CsrMatrix, Permutation};
use bootes_workloads::suite::{table3_suite, SuiteEntry};

use crate::env::{self, HostSpeed, ACCELS};
use crate::layers::{shadow_reorder, EigenMemo, Replay};
use crate::report::Outcome;
use crate::stats::{percentile, splitmix64};
use crate::trace::{breakdown, Tracer, UNIT};
use crate::{fresh_cache, push_layer_metrics, timed_setup, Ctx, LayerCounts};

/// The repository's evaluation scale (matrix dimensions and accelerator
/// caches both shrink by it; see `bootes_bench::suite_scale`).
pub const SCALE: f64 = 0.02;

struct Input {
    name: &'static str,
    mtx: Vec<u8>,
    /// Original-order cycles per accelerator.
    base_cycles: [u64; 3],
}

struct Suite {
    accels: Vec<AcceleratorConfig>,
    replays: Vec<Replay>,
    inputs: Vec<Input>,
}

/// Fresh instances drawn per suite entry before settling for one whose
/// verdicts differ from the Table-3 instance's.
const MAX_DRAWS: u64 = 32;

/// The verdicts `models` give `a`, as class indices.
fn verdicts(a: &CsrMatrix, models: &[&DecisionTree]) -> Result<Vec<usize>, String> {
    let features = MatrixFeatures::extract(a).to_vec();
    models
        .iter()
        .map(|m| m.predict(&features).map_err(|e| e.to_string()))
        .collect()
}

/// One Table-3 entry: its Table-3 instance and the verdicts the models give
/// that instance.
pub struct Family {
    /// The suite entry.
    pub entry: SuiteEntry,
    /// The Table-3 instance.
    pub table3: CsrMatrix,
    want: Vec<usize>,
}

impl Family {
    /// A fresh instance drawn from `seed` whose verdicts under `models`
    /// equal the Table-3 instance's, so that every seed preprocesses the
    /// same mix of skip and reorder-with-`k` decisions and only the
    /// patterns behind them change. Keeps the last draw if none matches.
    pub fn draw(&self, models: &[&DecisionTree], seed: u64) -> Result<CsrMatrix, String> {
        let mut state = seed;
        let mut last = None;
        for _ in 0..MAX_DRAWS {
            let a = self
                .entry
                .generate_seeded(SCALE, splitmix64(&mut state))
                .map_err(|e| format!("generate {}: {e}", self.entry.name))?;
            if verdicts(&a, models)? == self.want {
                return Ok(a);
            }
            last = Some(a);
        }
        last.ok_or_else(|| "no draws".to_string())
    }
}

/// The 26 Table-3 entries with their verdicts under `models`.
pub fn families(models: &[&DecisionTree]) -> Result<Vec<Family>, String> {
    table3_suite()
        .into_iter()
        .map(|entry| {
            let table3 = entry
                .generate(SCALE)
                .map_err(|e| format!("generate {}: {e}", entry.name))?;
            let want = verdicts(&table3, models)?;
            Ok(Family {
                entry,
                table3,
                want,
            })
        })
        .collect()
}

/// The 26 suite matrices of this seed: seed 0 gives the Table-3 instances,
/// any other seed matched fresh instances (see [`Family::draw`]).
pub fn suite_matrices(
    ctx: &Ctx,
    models: &[&DecisionTree],
) -> Result<Vec<(&'static str, CsrMatrix)>, String> {
    families(models)?
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let a = match ctx.seed {
                0 => f.table3,
                _ => f.draw(models, ctx.sub_seed(i as u64))?,
            };
            Ok((f.entry.name, a))
        })
        .collect()
}

/// One pipeline per accelerator, each over its committed model.
fn replays() -> Result<Vec<Replay>, String> {
    ACCELS
        .iter()
        .map(|accel| {
            let config = BootesConfig::default();
            let pipeline = BootesPipeline::new(env::load_model(accel)?, config.clone())
                .map_err(|e| format!("{accel} model: {e}"))?;
            Ok(Replay::new(pipeline, config))
        })
        .collect()
}

fn setup(ctx: &Ctx) -> Result<Suite, String> {
    let accels = scaled_configs(SCALE);
    let replays = replays()?;
    let models: Vec<&DecisionTree> = replays.iter().map(|r| r.pipeline().model()).collect();
    let mut inputs = Vec::new();
    for (name, a) in suite_matrices(ctx, &models)? {
        let b = b_operand(&a);
        let mut base_cycles = [0u64; 3];
        for (j, accel) in accels.iter().enumerate() {
            base_cycles[j] = simulate_spgemm(&a, &b, accel)
                .map_err(|e| format!("simulate {name}: {e}"))?
                .cycles;
        }
        let mut mtx = Vec::new();
        write_matrix_market(&mut mtx, &a).map_err(|e| format!("write {name}: {e}"))?;
        inputs.push(Input {
            name,
            mtx,
            base_cycles,
        });
    }
    Ok(Suite {
        accels,
        replays,
        inputs,
    })
}

/// What one untraced pass produced.
struct Pass {
    seconds: f64,
    prep_s: f64,
    /// Per matrix: wall seconds of its whole flow.
    matrix_s: Vec<f64>,
    /// Per (matrix, accelerator): verdict, permutation, speedup.
    answers: Vec<(Label, Permutation, f64)>,
    /// Host-speed scale of the pass (see [`HostSpeed`]).
    scale: f64,
}

fn pass(s: &Suite, out: &mut Outcome) -> Pass {
    fresh_cache();
    let started = Instant::now();
    let mut p = Pass {
        seconds: 0.0,
        prep_s: 0.0,
        matrix_s: Vec::with_capacity(s.inputs.len()),
        answers: Vec::with_capacity(3 * s.inputs.len()),
        scale: 1.0,
    };
    for input in &s.inputs {
        out.attempted += 1;
        let t = Instant::now();
        let ok = (|| -> Result<(), String> {
            let a = read_matrix_market(&input.mtx[..]).map_err(|e| e.to_string())?;
            let b = b_operand(&a);
            for (j, accel) in s.accels.iter().enumerate() {
                let tp = Instant::now();
                let res = s.replays[j]
                    .pipeline()
                    .preprocess(&a)
                    .map_err(|e| e.to_string())?;
                p.prep_s += tp.elapsed().as_secs_f64();
                if res.stats.cache_hit
                    || res.stats.is_degraded()
                    || res.permutation.len() != a.nrows()
                {
                    return Err(format!(
                        "{} on {}: cache_hit {}, degraded {}, permutation length {}",
                        accel.name,
                        input.name,
                        res.stats.cache_hit,
                        res.stats.is_degraded(),
                        res.permutation.len()
                    ));
                }
                let permuted = res.permutation.apply_rows(&a).map_err(|e| e.to_string())?;
                let cycles = simulate_spgemm(&permuted, &b, accel)
                    .map_err(|e| e.to_string())?
                    .cycles;
                let speedup = input.base_cycles[j] as f64 / cycles as f64;
                p.answers
                    .push((res.decision.label, res.permutation, speedup));
            }
            Ok(())
        })();
        p.matrix_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = ok {
            out.check(false, || format!("suite {}: {e}", input.name));
        }
    }
    p.seconds = started.elapsed().as_secs_f64();
    p
}

/// Runs `suite-cold` for `ctx.seconds` (or, traced, its three-pass slice).
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut speed = HostSpeed::new();
    let (suite, setup_s, setup_n) = timed_setup(ctx.setup_reps(), &mut speed, || setup(ctx))?;
    let mut out = Outcome::default();
    // Traced, the slice is `min_passes` untraced passes, then as many
    // traced ones.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    speed.sample();
    while passes.len() < ctx.min_passes()
        || (!ctx.trace && !ctx.smoke && started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let mut p = pass(&suite, &mut out);
        p.scale = speed.sample();
        if let Some(first) = passes.first() {
            let same = first
                .answers
                .iter()
                .zip(&p.answers)
                .all(|(x, y)| x.0 == y.0 && x.1 == y.1);
            out.check(same && first.answers.len() == p.answers.len(), || {
                "a suite matrix got a different verdict or permutation in a later pass".into()
            });
        }
        passes.push(p);
    }
    let reference = &passes[0].answers;
    if ctx.trace {
        traced(ctx, &suite, &passes, speed.scale(), &mut out)?;
        return Ok(out);
    }
    let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds * p.scale).collect();
    let matrix_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.matrix_s.iter().map(|s| s * 1e3 * p.scale))
        .collect();
    // Mean cost of one preprocess call, per pass.
    let prep_ms: Vec<f64> = passes
        .iter()
        .map(|p| p.prep_s * 1e3 * p.scale / p.answers.len().max(1) as f64)
        .collect();
    out.push("setup_s", setup_s, "s", setup_n);
    out.push("peak_rss_mb", env::peak_rss_mb(None)?, "MB", 1);
    out.push(
        "latency_p50_ms",
        percentile(&matrix_ms, 0.5),
        "ms",
        matrix_ms.len(),
    );
    out.push(
        "latency_p90_ms",
        percentile(&matrix_ms, 0.9),
        "ms",
        matrix_ms.len(),
    );
    out.push(
        "throughput",
        suite.inputs.len() as f64 / bootes_perf::median(&pass_s),
        "1/s",
        pass_s.len(),
    );
    out.push(
        "prep_ms",
        bootes_perf::median(&prep_ms),
        "ms",
        prep_ms.len(),
    );
    let speedups = per_accel_speedups(reference);
    for (j, accel) in ACCELS.iter().enumerate() {
        out.push(
            format!("speedup.{accel}"),
            speedups[j],
            "x",
            suite.inputs.len(),
        );
    }
    if ctx.seed == 0 {
        cross_check(&speedups);
    }
    out.note_host(&speed);
    out.samples.push((
        "pass.raw".into(),
        passes.iter().map(|p| p.seconds * 1e9).collect(),
    ));
    out.samples
        .push(("pass".into(), pass_s.iter().map(|s| s * 1e9).collect()));
    out.samples
        .push(("matrix".into(), matrix_ms.iter().map(|m| m * 1e6).collect()));
    Ok(out)
}

/// Geomean speedup per accelerator over the matrices of one pass.
fn per_accel_speedups(answers: &[(Label, Permutation, f64)]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (j, slot) in out.iter_mut().enumerate() {
        let v: Vec<f64> = answers.iter().skip(j).step_by(3).map(|a| a.2).collect();
        *slot = geomean(&v);
    }
    out
}

/// Prints the measured Bootes row next to the committed Table 4 row.
fn cross_check(speedups: &[f64; 3]) {
    let path = std::path::Path::new("results/table4_speedups.json");
    let committed: HashMap<String, f64> = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<serde::Value>(&t).ok())
        .and_then(|v| v.as_array().map(<[serde::Value]>::to_vec))
        .unwrap_or_default()
        .iter()
        .filter(|row| row.get("method").and_then(serde::Value::as_str) == Some("bootes"))
        .filter_map(|row| {
            Some((
                row.get("accelerator")?.as_str()?.to_string(),
                row.get("geomean_speedup")?.as_f64()?,
            ))
        })
        .collect();
    for (j, accel) in ACCELS.iter().enumerate() {
        match committed.get(*accel) {
            Some(c) => println!(
                "table4 cross-check {accel:<9}: measured {:.4}x, committed {c:.4}x, diff {:+.4}",
                speedups[j],
                speedups[j] - c
            ),
            None => println!(
                "table4 cross-check {accel:<9}: no committed row in {}",
                path.display()
            ),
        }
    }
}

/// The traced replay: three more passes through the layer-by-layer
/// decomposition, checked against the untraced passes.
fn traced(
    ctx: &Ctx,
    s: &Suite,
    untraced: &[Pass],
    host_scale: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // The first pass warms the process up, so the untraced baseline is the
    // passes after it.
    let baseline = if untraced.len() > 1 {
        &untraced[1..]
    } else {
        untraced
    };
    let untraced_ns: f64 =
        baseline.iter().flat_map(|p| &p.matrix_s).sum::<f64>() * 1e9 / baseline.len() as f64;
    let reference = &untraced[0].answers;
    let mut t = Tracer::default();
    let mut counts = LayerCounts {
        host_scale,
        ..LayerCounts::default()
    };
    for pass_no in 0..untraced.len() {
        fresh_cache();
        let mut memo = EigenMemo::default();
        for (i, input) in s.inputs.iter().enumerate() {
            out.attempted += 1;
            let unit = t.open(UNIT);
            let a = t.span("sparse.parse", |_| read_matrix_market(&input.mtx[..]));
            let a = a.map_err(|e| format!("parse {}: {e}", input.name))?;
            let b = t.span("sparse.operand", |_| b_operand(&a));
            let mut colds = Vec::new();
            let mut answers = Vec::new();
            for (j, accel) in s.accels.iter().enumerate() {
                let r = s.replays[j].preprocess(&mut t, &a)?;
                let tp = Instant::now();
                let permuted = t.span("sparse.permute", |_| r.permutation.apply_rows(&a));
                counts.permute_s.push(tp.elapsed().as_secs_f64());
                let permuted = permuted.map_err(|e| e.to_string())?;
                let ts = Instant::now();
                let report = t.span("accel.simulate", |_| simulate_spgemm(&permuted, &b, accel));
                let report = report.map_err(|e| e.to_string())?;
                counts.tally_simulation(&report, ts.elapsed().as_secs_f64());
                if pass_no == 0 {
                    counts.tally_traffic(j, &report);
                }
                counts.tally(&r);
                answers.push((r.label, r.permutation));
                if let Some(cold) = r.cold {
                    colds.push((j, cold));
                }
            }
            t.close(unit);
            for (j, cold) in &colds {
                let agree = shadow_reorder(
                    &mut t,
                    &s.replays[*j],
                    &a,
                    cold,
                    &mut memo,
                    &mut counts.linalg,
                    pass_no == 0,
                )?;
                out.check(agree, || {
                    format!(
                        "{}: split eigensolve labels differ from cluster()",
                        input.name
                    )
                });
            }
            let same = reference.get(3 * i..3 * i + 3).is_some_and(|want| {
                answers
                    .iter()
                    .zip(want)
                    .all(|(x, y)| x.0 == y.0 && x.1 == y.1)
            });
            out.check(same, || {
                format!(
                    "{}: the replay's permutation differs from preprocess's",
                    input.name
                )
            });
        }
    }
    counts.snapshot_cache();
    let b = breakdown(t.spans());
    counts.overhead_frac = (b.e2e_ns as f64 / untraced.len() as f64) / untraced_ns - 1.0;
    push_layer_metrics(out, &b, &counts);
    out.note(
        "sparse.operand_ms",
        b.ms_per_unit("sparse.operand"),
        "ms",
        b.units,
    );
    crate::dump_spans(ctx, &t)
}

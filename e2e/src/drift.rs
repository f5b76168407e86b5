//! `drift-stream`: a seeded 256-step drifting sequence through the library
//! path with drift donor reuse on. Each step changes 2% of the rows; after
//! the cold first step, every step finds the previous step's permutation
//! through the sketch index and resplices the changed rows. The donor path
//! and the cache (a put on every step, a candidate scan that grows with the
//! cached sketches) do the work; spectral clustering runs once per pass.

use std::time::Instant;

use bootes_accel::simulate_spgemm;
use bootes_bench::{geomean, scaled_configs};
use bootes_core::{BootesConfig, BootesPipeline};
use bootes_reorder::analysis::b_reuse_profile;
use bootes_sparse::{CsrMatrix, Fnv1a, Permutation};
use bootes_workloads::drifting_sequence;
use bootes_workloads::gen::{clustered, GenConfig};

use crate::env::{self, HostSpeed, ACCELS};
use crate::layers::{shadow_reorder, EigenMemo, Replay};
use crate::report::Outcome;
use crate::stats::percentile;
use crate::suite::SCALE;
use crate::trace::{breakdown, Tracer, UNIT};
use crate::{fresh_cache, push_layer_metrics, timed_setup, Ctx, LayerCounts};

/// Rows (and columns) of the base matrix.
const N: usize = 4096;
/// Hidden clusters of the base matrix.
const CLUSTERS: usize = 16;
/// Steps after the base.
const STEPS: usize = 256;
/// Share of rows each step changes.
const RATE: f64 = 0.02;
/// Steps between quality evaluations.
const EVERY: usize = 16;
/// LRU capacity, in B rows, of the traffic model the donor path is judged
/// by (the `drift_amortized` bench's).
const LRU_ROWS: usize = 64;

/// A step as the rows it changed, with their new contents: the sequence
/// is kept as deltas so its matrices need not all be in memory at once.
type Delta = Vec<(usize, Vec<(usize, f64)>)>;

struct Stream {
    replay: Replay,
    base: CsrMatrix,
    deltas: Vec<Delta>,
}

/// Replays a [`Stream`] one matrix at a time.
struct Walker {
    rows: Vec<Vec<(usize, f64)>>,
    ncols: usize,
}

impl Walker {
    fn new(base: &CsrMatrix) -> Self {
        let rows = (0..base.nrows())
            .map(|r| {
                let (c, v) = base.row(r);
                c.iter().copied().zip(v.iter().copied()).collect()
            })
            .collect();
        Walker {
            rows,
            ncols: base.ncols(),
        }
    }

    fn apply(&mut self, delta: &Delta) {
        for (r, row) in delta {
            self.rows[*r] = row.clone();
        }
    }

    fn matrix(&self) -> CsrMatrix {
        let nnz = self.rows.iter().map(Vec::len).sum();
        let mut indptr = Vec::with_capacity(self.rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for row in &self.rows {
            for &(c, v) in row {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::try_new(self.rows.len(), self.ncols, indptr, indices, values)
            .expect("drift rows stay sorted and in range")
    }
}

fn setup(ctx: &Ctx) -> Result<Stream, String> {
    let config = BootesConfig::default();
    let pipeline = BootesPipeline::new(env::load_model("gamma")?, config.clone())
        .map_err(|e| format!("gamma model: {e}"))?;
    let base = clustered(&GenConfig::new(N, N).seed(ctx.sub_seed(1)), CLUSTERS, 0.9)
        .map_err(|e| e.to_string())?;
    let mut deltas = Vec::with_capacity(STEPS);
    let mut prev = base.clone();
    for step in 0..STEPS {
        // One step at a time keeps two matrices alive, not 257.
        let next = drifting_sequence(&prev, 1, RATE, ctx.sub_seed(100 + step as u64))
            .map_err(|e| e.to_string())?
            .pop()
            .expect("a one-step sequence has two matrices");
        let delta = next
            .changed_rows
            .iter()
            .map(|&r| {
                let (c, v) = next.matrix.row(r);
                (r, c.iter().copied().zip(v.iter().copied()).collect())
            })
            .collect();
        deltas.push(delta);
        prev = next.matrix;
    }
    Ok(Stream {
        replay: Replay::new(pipeline, config),
        base,
        deltas,
    })
}

fn perm_hash(p: &Permutation) -> u64 {
    let mut h = Fnv1a::new();
    for &i in p.as_slice() {
        h.write_usize(i);
    }
    h.finish()
}

struct Pass {
    /// Per step: seconds of `preprocess` plus `apply_rows`, and of
    /// `preprocess` alone.
    step_s: Vec<f64>,
    prep_s: Vec<f64>,
    /// Per step: whether the donor path answered it.
    respliced: Vec<bool>,
    perms: Vec<u64>,
    /// Every `EVERY`-th step's matrix and permutation, kept from the first
    /// pass for the quality evaluation.
    kept: Vec<(CsrMatrix, Permutation)>,
    /// Host-speed scale of the pass (see [`HostSpeed`]).
    scale: f64,
}

impl Pass {
    /// Steps the donor path answered.
    fn resplices(&self) -> usize {
        self.respliced.iter().filter(|&&r| r).count()
    }

    /// Seconds `per_step` adds up to over the donor-path steps.
    fn donor_s(&self, per_step: &[f64]) -> f64 {
        per_step
            .iter()
            .zip(&self.respliced)
            .filter(|(_, &r)| r)
            .map(|(s, _)| s)
            .sum()
    }
}

fn pass(s: &Stream, keep: bool, out: &mut Outcome) -> Pass {
    fresh_cache();
    let mut walker = Walker::new(&s.base);
    let mut p = Pass {
        step_s: Vec::with_capacity(STEPS + 1),
        prep_s: Vec::with_capacity(STEPS + 1),
        respliced: Vec::with_capacity(STEPS + 1),
        perms: Vec::with_capacity(STEPS + 1),
        kept: Vec::new(),
        scale: 1.0,
    };
    for step in 0..=STEPS {
        if step > 0 {
            walker.apply(&s.deltas[step - 1]);
        }
        let a = walker.matrix();
        out.attempted += 1;
        let t = Instant::now();
        let res = s.replay.pipeline().preprocess(&a);
        let prep = t.elapsed().as_secs_f64();
        let res = res.map_err(|e| e.to_string()).and_then(|r| {
            let permuted = r.permutation.apply_rows(&a).map_err(|e| e.to_string())?;
            Ok((r, permuted))
        });
        p.step_s.push(t.elapsed().as_secs_f64());
        p.prep_s.push(prep);
        match res {
            Ok((r, _permuted)) => {
                out.check(!r.stats.cache_hit && !r.stats.is_degraded(), || {
                    format!(
                        "drift step {step}: cache_hit {}, degraded {}",
                        r.stats.cache_hit,
                        r.stats.is_degraded()
                    )
                });
                p.respliced.push(r.stats.rows_respliced > 0);
                p.perms.push(perm_hash(&r.permutation));
                if keep && step % EVERY == 0 {
                    p.kept.push((a, r.permutation));
                }
            }
            Err(e) => {
                p.respliced.push(false);
                out.check(false, || format!("drift step {step}: {e}"));
            }
        }
    }
    p
}

/// Runs `drift-stream` for `ctx.seconds` (or, traced, its one-pass slice).
///
/// The step latencies are percentiles, and the throughput and `prep_ms`
/// count only the steps the donor path answered: how often a seed's
/// sequence falls back to a full reorder (0 to 7 of 256 steps) is a
/// property of its random patterns, and each fallback costs about twenty
/// donor steps, so a mean over all steps would differ by tens of percent
/// between seeds. The fallbacks are counted by the traced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut speed = HostSpeed::new();
    let (stream, setup_s, setup_n) = timed_setup(ctx.setup_reps(), &mut speed, || setup(ctx))?;
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Traced, a second untraced pass gives a warmed-up baseline.
    let wanted = if ctx.trace {
        ctx.min_passes().min(2)
    } else {
        ctx.min_passes()
    };
    speed.sample();
    while passes.len() < wanted
        || (!ctx.trace && !ctx.smoke && started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let mut p = pass(&stream, passes.is_empty(), &mut out);
        p.scale = speed.sample();
        if let Some(first) = passes.first() {
            out.check(first.perms == p.perms, || {
                "a drift step got a different permutation in a later pass".into()
            });
        }
        passes.push(p);
    }
    let resplices = passes[0].resplices();
    out.check(resplices >= STEPS / 2, || {
        format!("the donor path engaged on only {resplices}/{STEPS} steps")
    });
    let mut counts = LayerCounts {
        host_scale: speed.scale(),
        ..LayerCounts::default()
    };
    let speedups = quality(&passes[0].kept, &mut counts)?;
    if ctx.trace {
        traced(ctx, &stream, &passes, &mut counts, &mut out)?;
        return Ok(out);
    }
    let step_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.step_s[1..].iter().map(|s| s * 1e3 * p.scale))
        .collect();
    let donor_steps_per_s: Vec<f64> = passes
        .iter()
        .map(|p| p.resplices() as f64 / (p.donor_s(&p.step_s) * p.scale))
        .collect();
    let prep_ms: Vec<f64> = passes
        .iter()
        .map(|p| p.donor_s(&p.prep_s) * 1e3 * p.scale / p.resplices() as f64)
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(|p| p.step_s.iter().sum()).collect();
    out.push("setup_s", setup_s, "s", setup_n);
    out.push("peak_rss_mb", env::peak_rss_mb(None)?, "MB", 1);
    out.push(
        "latency_p50_ms",
        percentile(&step_ms, 0.5),
        "ms",
        step_ms.len(),
    );
    out.push(
        "latency_p90_ms",
        percentile(&step_ms, 0.9),
        "ms",
        step_ms.len(),
    );
    out.push(
        "throughput",
        bootes_perf::median(&donor_steps_per_s),
        "1/s",
        passes.len(),
    );
    out.push("prep_ms", bootes_perf::median(&prep_ms), "ms", passes.len());
    for (j, accel) in ACCELS.iter().enumerate() {
        out.push(
            format!("speedup.{accel}"),
            speedups[j],
            "x",
            passes[0].kept.len(),
        );
    }
    out.note(
        "drift.steps_not_respliced",
        (STEPS + 1 - resplices) as f64,
        "count",
        STEPS + 1,
    );
    out.note_host(&speed);
    out.samples
        .push(("pass.raw".into(), pass_s.iter().map(|s| s * 1e9).collect()));
    out.samples
        .push(("step".into(), step_ms.iter().map(|m| m * 1e6).collect()));
    Ok(out)
}

/// Geomean simulated speedup of the donor-path permutations over original
/// order, per accelerator, at every `EVERY`-th step.
fn quality(
    kept: &[(CsrMatrix, Permutation)],
    counts: &mut LayerCounts,
) -> Result<[f64; 3], String> {
    let accels = scaled_configs(SCALE);
    let mut speedups = [Vec::new(), Vec::new(), Vec::new()];
    for (a, perm) in kept {
        let tp = Instant::now();
        let permuted = perm.apply_rows(a).map_err(|e| e.to_string())?;
        counts.permute_s.push(tp.elapsed().as_secs_f64());
        for (j, accel) in accels.iter().enumerate() {
            let base = simulate_spgemm(a, a, accel).map_err(|e| e.to_string())?;
            let ts = Instant::now();
            let ours = simulate_spgemm(&permuted, a, accel).map_err(|e| e.to_string())?;
            counts.tally_simulation(&ours, ts.elapsed().as_secs_f64());
            counts.tally_traffic(j, &ours);
            speedups[j].push(base.cycles as f64 / ours.cycles as f64);
        }
    }
    Ok(speedups.map(|v| geomean(&v)))
}

/// B-traffic (row fetches) of `a` under an LRU of [`LRU_ROWS`] rows.
fn lru_traffic(a: &CsrMatrix) -> f64 {
    let profile = b_reuse_profile(a);
    profile.accesses as f64 * (1.0 - profile.hit_rate_at(LRU_ROWS))
}

/// The traced replay of one pass, then the donor path's traffic against a
/// cold reorder of the same steps.
fn traced(
    ctx: &Ctx,
    s: &Stream,
    untraced: &[Pass],
    counts: &mut LayerCounts,
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = &untraced[0];
    let baseline = untraced.last().expect("at least one untraced pass");
    let untraced_ns: f64 = baseline.step_s.iter().sum::<f64>() * 1e9;
    let mut t = Tracer::default();
    let mut memo = EigenMemo::default();
    fresh_cache();
    let mut walker = Walker::new(&s.base);
    for step in 0..=STEPS {
        if step > 0 {
            walker.apply(&s.deltas[step - 1]);
        }
        let a = walker.matrix();
        out.attempted += 1;
        let unit = t.open(UNIT);
        let r = s.replay.preprocess(&mut t, &a)?;
        let tp = Instant::now();
        let permuted = t.span("sparse.permute", |_| r.permutation.apply_rows(&a));
        counts.permute_s.push(tp.elapsed().as_secs_f64());
        permuted.map_err(|e| e.to_string())?;
        t.close(unit);
        counts.tally(&r);
        if let Some(cold) = &r.cold {
            let agree = shadow_reorder(
                &mut t,
                &s.replay,
                &a,
                cold,
                &mut memo,
                &mut counts.linalg,
                true,
            )?;
            out.check(agree, || {
                format!("drift step {step}: split eigensolve labels differ from cluster()")
            });
        }
        out.check(
            Some(&perm_hash(&r.permutation)) == reference.perms.get(step),
            || format!("drift step {step}: the replay's permutation differs from preprocess's"),
        );
    }
    counts.snapshot_cache();
    // The donor path's quality: its traffic against a cold reorder of the
    // same step (no cache, so no donor), computed after the timing.
    bootes_cache::uninstall();
    let mut worst = 0.0f64;
    for (a, perm) in &reference.kept {
        let cold = s
            .replay
            .pipeline()
            .preprocess(a)
            .map_err(|e| format!("cold reference: {e}"))?;
        let donor = lru_traffic(&perm.apply_rows(a).map_err(|e| e.to_string())?);
        let fresh = lru_traffic(&cold.permutation.apply_rows(a).map_err(|e| e.to_string())?);
        worst = worst.max(if fresh > 0.0 { donor / fresh } else { 1.0 });
    }
    counts.traffic_ratio_max = Some(worst);
    let b = breakdown(t.spans());
    counts.overhead_frac = b.e2e_ns as f64 / untraced_ns - 1.0;
    push_layer_metrics(out, &b, counts);
    let step_ms: Vec<f64> = reference.step_s.iter().map(|s| s * 1e3).collect();
    out.push(
        "drift.step_ms.first64",
        percentile(&step_ms[1..65], 0.5),
        "ms",
        64,
    );
    out.push(
        "drift.step_ms.last64",
        percentile(&step_ms[STEPS - 63..], 0.5),
        "ms",
        64,
    );
    crate::dump_spans(ctx, &t)
}

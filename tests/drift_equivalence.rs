//! Differential quality gates for the drift donor path: on a seeded
//! drifting sequence, the incremental-patch pipeline must stay within
//! ε = 5% of the full re-reorder's B-traffic at every step; when no donor
//! is used the stats serialization must be bit-identical to a build without
//! drift support; and a threshold-forced fallback must be indistinguishable
//! from a cold run except for its recorded donor decision. Everything runs
//! under both serial and 4-thread kernels.
//!
//! The cache under test is the process-global instance, so every test in
//! this binary holds [`GlobalState`], which uninstalls it on drop; test
//! binaries are separate processes, so no other suite can observe the
//! installed cache.

mod common;

use bootes::cache::{self, Artifact, ArtifactKind, Cache, CacheConfig, CacheKey, ReorderArtifact};
use bootes::core::{toy_tree, BootesConfig, BootesPipeline, DriftConfig, PipelineOutcome};
use bootes::sparse::{CsrMatrix, Permutation};
use bootes::workloads::gen::{clustered, GenConfig};
use bootes::workloads::{drifting_sequence, DriftStep};
use common::{assert_golden, GlobalState};

/// ε of the quality gate: incremental B-traffic may exceed the full
/// re-reorder's by at most this fraction, at every step.
const EPSILON: f64 = 0.05;
/// LRU capacity (in B rows) of the reuse-distance traffic model, matching
/// the `drift_amortized` bench.
const CAPACITY: usize = 64;

fn pipeline(drift: Option<DriftConfig>) -> BootesPipeline {
    BootesPipeline::new(
        toy_tree(4).expect("4 is a candidate k"),
        BootesConfig::default(),
    )
    .expect("valid model")
    .with_drift(drift)
}

/// A clustered base whose drift steps keep exercising the Reorder branch.
fn base_matrix() -> CsrMatrix {
    clustered(&GenConfig::new(96, 96).seed(0xD81F7), 4, 0.9).expect("valid generator")
}

fn sequence(steps: usize) -> Vec<DriftStep> {
    drifting_sequence(&base_matrix(), steps, 0.03, 0xD81F7).expect("valid drift sequence")
}

/// B-traffic (row fetches from DRAM) of `a` under an LRU of `CAPACITY` rows.
fn traffic_of(a: &CsrMatrix) -> f64 {
    let p = bootes::reorder::b_reuse_profile(a);
    p.accesses as f64 * (1.0 - p.hit_rate_at(CAPACITY))
}

/// Canonical stats JSON: wall clock and hit marker stripped, everything else
/// byte-exact (drift provenance fields included).
fn canon_json(out: &PipelineOutcome) -> String {
    serde_json::to_string(&out.stats.canonical()).expect("stats serialize")
}

/// Canonical stats JSON with the drift provenance cleared — what a fallback
/// run must collapse to, since its permutation was recomputed from scratch.
fn canon_json_no_drift(out: &PipelineOutcome) -> String {
    let mut stats = out.stats.canonical();
    stats.drift_fallback = false;
    stats.donor_fingerprint = None;
    serde_json::to_string(&stats).expect("stats serialize")
}

fn mem_cache() -> Cache {
    Cache::new(CacheConfig::memory_only(64 << 20)).expect("cache opens")
}

/// Per-step reuse-distance B-traffic of the incremental pipeline vs the full
/// re-reorder, at every step of a seeded drifting sequence.
#[test]
fn incremental_traffic_within_epsilon_of_full_reorder() {
    let _state = GlobalState::lock();
    let seq = sequence(6);
    for threads in [1usize, 4] {
        bootes::par::set_threads(threads);

        // Full re-reorder: no cache, no donor path — every step cold.
        cache::uninstall();
        let full_pipeline = pipeline(None);
        let full: Vec<PipelineOutcome> = seq
            .iter()
            .map(|s| full_pipeline.preprocess(&s.matrix).expect("full reorder"))
            .collect();

        // Incremental: fresh cache + donor path; each step donates to the next.
        cache::install(mem_cache());
        let inc_pipeline = pipeline(Some(DriftConfig::default()));
        let inc: Vec<PipelineOutcome> = seq
            .iter()
            .map(|s| inc_pipeline.preprocess(&s.matrix).expect("incremental"))
            .collect();
        cache::uninstall();

        // Step 0 has no donor to splice from: bit-identical to the full run.
        assert_eq!(inc[0].permutation, full[0].permutation, "t{threads} step 0");
        assert_eq!(inc[0].stats.rows_respliced, 0);

        let mut resplices = 0;
        for (i, step) in seq.iter().enumerate() {
            let full_traffic = traffic_of(
                &full[i]
                    .permutation
                    .apply_rows(&step.matrix)
                    .expect("applies"),
            );
            let inc_traffic = traffic_of(
                &inc[i]
                    .permutation
                    .apply_rows(&step.matrix)
                    .expect("applies"),
            );
            assert!(
                inc_traffic <= full_traffic * (1.0 + EPSILON),
                "t{threads} step {i}: incremental traffic {inc_traffic} vs full {full_traffic} \
                 exceeds ε = {EPSILON}"
            );
            resplices += (inc[i].stats.rows_respliced > 0) as usize;
        }
        assert!(
            resplices >= (seq.len() - 1) / 2,
            "t{threads}: donor path must actually engage ({resplices}/{} steps respliced)",
            seq.len() - 1
        );
    }
}

/// Each step of a drifting sequence splices from the step before it. The
/// sketch estimate ties between donors a few steps apart, and the index
/// ranks such ties by recency, so a step resplices exactly the rows it
/// changed, never also those an older donor differs in, and never falls
/// back because of them.
#[test]
fn every_step_splices_from_the_previous_one() {
    let _state = GlobalState::lock();
    let seq = sequence(16);
    for threads in [1usize, 4] {
        bootes::par::set_threads(threads);
        cache::install(mem_cache());
        let p = pipeline(Some(DriftConfig::default()));
        let outs: Vec<PipelineOutcome> = seq
            .iter()
            .map(|s| p.preprocess(&s.matrix).expect("preprocess"))
            .collect();
        cache::uninstall();
        for (i, (step, out)) in seq.iter().zip(&outs).enumerate().skip(1) {
            let previous = format!("{:016x}", p.reorder_key(&seq[i - 1].matrix).pattern);
            assert_eq!(
                out.stats.donor_fingerprint.as_deref(),
                Some(previous.as_str()),
                "t{threads} step {i}: the donor is the previous step"
            );
            assert_eq!(
                out.stats.rows_respliced,
                step.changed_rows.len(),
                "t{threads} step {i}: only the step's own changed rows move"
            );
            assert!(!out.stats.drift_fallback, "t{threads} step {i}");
        }
    }
}

/// With no donor in play the drift machinery must be invisible: a pipeline
/// with drift enabled but nothing to splice from serializes *byte-identical*
/// stats to a pipeline built without drift support.
#[test]
fn stats_bit_identical_when_no_donor_used() {
    let _state = GlobalState::lock();
    let a = base_matrix();
    for threads in [1usize, 4] {
        bootes::par::set_threads(threads);
        cache::uninstall();
        let without_drift = pipeline(None).preprocess(&a).expect("no-drift run");
        let with_drift = pipeline(Some(DriftConfig::default()))
            .preprocess(&a)
            .expect("drift-enabled run");
        assert_eq!(with_drift.permutation, without_drift.permutation);
        assert_eq!(with_drift.decision, without_drift.decision);
        assert_eq!(canon_json(&with_drift), canon_json(&without_drift));

        // Same with a cache installed but empty: the probe finds no
        // candidates and must leave no trace in the stats.
        cache::install(mem_cache());
        let empty_cache = pipeline(Some(DriftConfig::default()))
            .preprocess(&a)
            .expect("empty-cache run");
        cache::uninstall();
        assert!(!empty_cache.stats.cache_hit);
        assert_eq!(canon_json(&empty_cache), canon_json(&without_drift));

        // The default drift fields are omitted from the serialization
        // entirely, so pre-drift consumers parse the same bytes.
        let json = canon_json(&with_drift);
        for key in ["donor_fingerprint", "rows_respliced", "drift_fallback"] {
            assert!(!json.contains(key), "unexpected `{key}` in {json}");
        }
    }
    bootes::par::set_threads(1);

    // A cached sketch of another shape is a candidate that never qualifies:
    // the probe sketches the query, finds no donor, and hands that sketch
    // to the cache put, which must store exactly what `sketch_of` computes.
    let drift = DriftConfig::default();
    let p = pipeline(Some(drift.clone()));
    cache::install(mem_cache());
    p.preprocess(&a).expect("populate a candidate");
    let other = clustered(&GenConfig::new(80, 96).seed(0xD81F8), 4, 0.9).expect("valid generator");
    let out = p.preprocess(&other).expect("donorless miss");
    assert_eq!(out.stats.donor_fingerprint, None);
    let sketch_key = CacheKey {
        kind: ArtifactKind::Sketch,
        pattern: p.reorder_key(&other).pattern,
        config: drift.sketch_config_hash(),
    };
    let stored = cache::global().expect("installed").get(&sketch_key);
    cache::uninstall();
    assert_eq!(
        stored,
        Some(Artifact::Sketch(bootes::drift::sketch_of(&other, &drift)))
    );
}

/// threshold = 0.0: any nonempty delta abandons the donor. The outcome must
/// be a genuine cold recompute — bit-identical permutation — with only the
/// recorded decision (`drift_fallback`, donor fingerprint) differing, and
/// the cached artifact must hold the cold stats, without that record.
#[test]
fn forced_fallback_is_a_cold_run_with_provenance() {
    let _state = GlobalState::lock();
    let seq = sequence(1);
    let (a, b) = (&seq[0].matrix, &seq[1].matrix);
    for threads in [1usize, 4] {
        bootes::par::set_threads(threads);
        cache::uninstall();
        let cold_b = pipeline(None).preprocess(b).expect("cold b");

        let always_fallback = pipeline(Some(DriftConfig::default().with_threshold(0.0)));
        let donor_hex = format!("{:016x}", always_fallback.reorder_key(a).pattern);
        cache::install(mem_cache());
        let first = always_fallback.preprocess(a).expect("populate donor");
        assert!(!first.stats.drift_fallback, "nothing to fall back from");
        let fb = always_fallback.preprocess(b).expect("fallback run");

        assert!(
            fb.stats.drift_fallback,
            "t{threads}: threshold 0 must fall back"
        );
        assert_eq!(
            fb.stats.donor_fingerprint.as_deref(),
            Some(donor_hex.as_str())
        );
        assert_eq!(fb.stats.rows_respliced, 0, "fallback resplices nothing");
        assert_eq!(
            fb.permutation, cold_b.permutation,
            "t{threads}: recompute is cold"
        );
        assert_eq!(canon_json_no_drift(&fb), canon_json(&cold_b));

        // The stored artifact is a pure cold result: an exact hit must not
        // replay the donor decision.
        let hit = always_fallback.preprocess(b).expect("exact hit");
        cache::uninstall();
        assert!(hit.stats.cache_hit);
        assert!(!hit.stats.drift_fallback, "stored stats were stripped");
        assert_eq!(hit.stats.donor_fingerprint, None);
        assert_eq!(hit.permutation, cold_b.permutation);
    }
}

/// threshold = 1.0: the donor is never abandoned. Every post-base step must
/// resplice (valid bijection, donor recorded) and still clear the ε gate.
#[test]
fn threshold_one_never_falls_back() {
    let _state = GlobalState::lock();
    let seq = sequence(3);
    for threads in [1usize, 4] {
        bootes::par::set_threads(threads);
        cache::uninstall();
        let cold = pipeline(None);
        let never_fallback = pipeline(Some(DriftConfig::default().with_threshold(1.0)));
        cache::install(mem_cache());
        let mut outs = Vec::new();
        for step in &seq {
            outs.push(never_fallback.preprocess(&step.matrix).expect("preprocess"));
        }
        cache::uninstall();
        for (i, (step, out)) in seq.iter().zip(&outs).enumerate().skip(1) {
            assert!(!out.stats.drift_fallback, "t{threads} step {i}");
            assert!(
                out.stats.rows_respliced > 0,
                "t{threads} step {i} must resplice"
            );
            assert!(out.stats.donor_fingerprint.is_some(), "t{threads} step {i}");
            // A resplice output is a bijection over all rows.
            let mut seen = out.permutation.as_slice().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..step.matrix.nrows()).collect::<Vec<_>>());
            // And it still clears the quality gate against a full reorder.
            let cold_out = cold.preprocess(&step.matrix).expect("cold");
            let full = traffic_of(
                &cold_out
                    .permutation
                    .apply_rows(&step.matrix)
                    .expect("applies"),
            );
            let inc = traffic_of(&out.permutation.apply_rows(&step.matrix).expect("applies"));
            assert!(
                inc <= full * (1.0 + EPSILON),
                "t{threads} step {i}: {inc} vs {full}"
            );
        }
    }
}

/// Regression (cache poisoning): a cached donor whose permutation length
/// disagrees with the requesting matrix must be quarantined and the run must
/// proceed cold — never panic, never splice a wrong-sized permutation.
#[test]
fn mismatched_donor_permutation_is_quarantined() {
    let _state = GlobalState::lock();
    bootes::par::set_threads(1);
    let seq = sequence(1);
    let (a, b) = (&seq[0].matrix, &seq[1].matrix);
    let drift = DriftConfig::default();
    let cold_b = pipeline(None).preprocess(b).expect("cold b");

    // The guard found the obs registry off and empty, and leaves it so.
    bootes::obs::set_enabled(true);
    let p = pipeline(Some(drift.clone()));
    let reorder_config = p.reorder_key(b).config;
    const EVIL_PATTERN: u64 = 0xD0D0;
    let cache_inst = mem_cache();
    // The donor's sketch is `a`'s (near-identical to `b`, right shape), but
    // the permutation stored under the same pattern is the wrong length —
    // the poisoned-artifact shape this regression guards against.
    cache_inst.put(
        CacheKey {
            kind: ArtifactKind::Sketch,
            pattern: EVIL_PATTERN,
            config: drift.sketch_config_hash(),
        },
        Artifact::Sketch(bootes::drift::sketch_of(a, &drift)),
    );
    cache_inst.put(
        CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: EVIL_PATTERN,
            config: reorder_config,
        },
        Artifact::Reorder(ReorderArtifact {
            permutation: Permutation::identity(10),
            stats: bootes::reorder::ReorderStats::new(
                "bootes",
                std::time::Duration::from_millis(1),
                64,
            ),
        }),
    );
    cache::install(cache_inst);
    let out = p.preprocess(b).expect("must not panic on poisoned donor");
    assert_eq!(out.stats.donor_fingerprint, None, "donor must be rejected");
    assert!(!out.stats.drift_fallback);
    assert_eq!(out.permutation, cold_b.permutation, "run proceeds cold");

    let snapshot = bootes::obs::snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert!(
        counter("cache.quarantine") >= 1,
        "quarantine must be counted"
    );
    assert_eq!(
        counter("drift.donor_hits"),
        0,
        "a quarantined donor is no hit"
    );
    // The poisoned entry is gone: a direct donor lookup (any expectation)
    // finds nothing.
    let cache_ref = cache::global().expect("installed");
    assert!(cache_ref
        .reorder_donor(EVIL_PATTERN, reorder_config, b.nrows())
        .is_none());
    assert!(cache_ref
        .reorder_donor(EVIL_PATTERN, reorder_config, 10)
        .is_none());
}

/// `drift.donor=err` failpoint: the probe reports no donor and the run is
/// bit-identical to cold — the failure mode of an unavailable donor index.
#[test]
fn donor_failpoint_disables_the_probe() {
    let _state = GlobalState::lock();
    bootes::par::set_threads(1);
    let seq = sequence(1);
    let (a, b) = (&seq[0].matrix, &seq[1].matrix);
    let cold_b = pipeline(None).preprocess(b).expect("cold b");

    let p = pipeline(Some(DriftConfig::default()));
    cache::install(mem_cache());
    p.preprocess(a).expect("populate donor");
    let fp = bootes::guard::ScopedFailpoints::arm("drift.donor=err").expect("failpoint arms");
    let out = p.preprocess(b).expect("probe failure is recoverable");
    drop(fp);
    cache::uninstall();
    assert_eq!(out.stats.donor_fingerprint, None);
    assert!(!out.stats.drift_fallback);
    assert_eq!(out.stats.rows_respliced, 0);
    assert_eq!(out.permutation, cold_b.permutation);
    assert_eq!(canon_json(&out), canon_json(&cold_b));
}

/// `drift.resplice=err` failpoint: a donor was found but the splice fails —
/// the pipeline must record the fallback and recompute cold.
#[test]
fn resplice_failpoint_forces_fallback() {
    let _state = GlobalState::lock();
    bootes::par::set_threads(1);
    let seq = sequence(1);
    let (a, b) = (&seq[0].matrix, &seq[1].matrix);
    let cold_b = pipeline(None).preprocess(b).expect("cold b");

    let p = pipeline(Some(DriftConfig::default()));
    cache::install(mem_cache());
    p.preprocess(a).expect("populate donor");
    let fp = bootes::guard::ScopedFailpoints::arm("drift.resplice=err").expect("failpoint arms");
    let out = p.preprocess(b).expect("resplice failure is recoverable");
    drop(fp);
    cache::uninstall();
    assert!(out.stats.drift_fallback, "failed resplice falls back");
    assert!(out.stats.donor_fingerprint.is_some());
    assert_eq!(out.stats.rows_respliced, 0);
    assert_eq!(out.permutation, cold_b.permutation);
    assert_eq!(canon_json_no_drift(&out), canon_json(&cold_b));
}

// ---------------------------------------------------------------------------
// Golden snapshot: the full drift decision trail of one seeded sequence.
// Locks donor selection, changed-row detection, the fallback decision, and
// the respliced permutations (as FNV hashes) against unintended change.
// Regenerate deliberately with BOOTES_BLESS=1.
// ---------------------------------------------------------------------------

#[test]
fn golden_drift_sequence() {
    let _state = GlobalState::lock();
    bootes::par::set_threads(1);
    let seq = sequence(4);
    let p = pipeline(Some(DriftConfig::default()));
    cache::install(mem_cache());
    let mut steps = Vec::new();
    for (i, step) in seq.iter().enumerate() {
        let out = p.preprocess(&step.matrix).expect("preprocess");
        let mut h = bootes::sparse::Fnv1a::new();
        for &old in out.permutation.as_slice() {
            h.write_u64(old as u64);
        }
        steps.push(serde::Value::Object(vec![
            ("step".to_string(), serde::Value::UInt(i as u64)),
            (
                "pattern".to_string(),
                serde::Value::Str(format!("{:016x}", p.reorder_key(&step.matrix).pattern)),
            ),
            (
                "changed_rows".to_string(),
                serde::Value::UInt(step.changed_rows.len() as u64),
            ),
            (
                "donor".to_string(),
                out.stats
                    .donor_fingerprint
                    .clone()
                    .map_or(serde::Value::Null, serde::Value::Str),
            ),
            (
                "respliced".to_string(),
                serde::Value::UInt(out.stats.rows_respliced as u64),
            ),
            (
                "fallback".to_string(),
                serde::Value::Bool(out.stats.drift_fallback),
            ),
            (
                "perm_fnv".to_string(),
                serde::Value::Str(format!("{:016x}", h.finish())),
            ),
        ]));
    }
    cache::uninstall();
    let got = serde_json::to_string(&serde::Value::Array(steps)).expect("serializes");

    assert_golden("drift_seq.golden", &got);
}

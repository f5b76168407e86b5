//! Differential tests of the artifact cache: a cached (warm) preprocessing
//! run must be **bit-identical** to an uncached (cold) one — same
//! permutation, same decision, and byte-identical canonical stats JSON —
//! whether the hit is served from memory or from a disk reload, and under
//! both serial and multi-threaded kernels.
//!
//! The cache under test is the process-global instance, so every test in
//! this binary holds [`GlobalState`], which uninstalls it on drop; test
//! binaries are separate processes, so no other suite can observe the
//! installed cache.

mod common;

use std::path::PathBuf;

use bootes::cache::{self, Artifact, ArtifactKind, Cache, CacheConfig, CacheKey, DecisionArtifact};
use bootes::core::{toy_tree, BootesConfig, BootesPipeline, DriftConfig, PipelineOutcome};
use bootes::guard::ScopedFailpoints;
use bootes::sparse::{row_pattern_hashes, CooMatrix, CsrMatrix, MatrixFingerprint};
use bootes::workloads::drifting_sequence;
use bootes::workloads::gen::{clustered, GenConfig};
use common::GlobalState;
use proptest::prelude::*;

/// Unique on-disk cache root per call, under the target-adjacent temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bootes-cache-equiv-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// Canonical stats JSON: wall clock and hit marker stripped, everything else
/// byte-exact.
fn canon_json(out: &PipelineOutcome) -> String {
    serde_json::to_string(&out.stats.canonical()).expect("stats serialize")
}

/// Runs the pipeline cold (no cache), then cached (populate, memory hit,
/// disk reload) and asserts all four outcomes are equivalent.
fn assert_cold_warm_disk_equivalent(a: &CsrMatrix, threads: usize) {
    bootes::par::set_threads(threads);
    cache::uninstall();
    let pipeline = BootesPipeline::new(
        toy_tree(4).expect("4 is a candidate k"),
        BootesConfig::default(),
    )
    .expect("valid model");

    let cold = pipeline.preprocess(a).expect("cold run");
    assert!(!cold.stats.cache_hit);

    let dir = scratch_dir("equiv");
    let cfg = || CacheConfig::memory_only(64 << 20).with_dir(&dir);
    cache::install(Cache::new(cfg()).expect("cache opens"));

    // First cached run computes everything (a miss) and must already be
    // bit-identical to the uncached run.
    let populate = pipeline.preprocess(a).expect("populate run");
    assert!(!populate.stats.cache_hit, "empty cache cannot hit");
    assert_eq!(populate.permutation, cold.permutation);
    assert_eq!(populate.decision, cold.decision);
    assert_eq!(canon_json(&populate), canon_json(&cold));

    // Second cached run is a memory hit.
    let hit = pipeline.preprocess(a).expect("hit run");
    assert!(hit.stats.cache_hit, "second run must hit");
    assert_eq!(hit.permutation, cold.permutation);
    assert_eq!(hit.decision, cold.decision);
    assert_eq!(canon_json(&hit), canon_json(&cold));

    // Fresh cache over the same directory: the hit comes from disk.
    cache::install(Cache::new(cfg()).expect("cache reopens"));
    let disk = pipeline.preprocess(a).expect("disk run");
    assert!(disk.stats.cache_hit, "disk reload must hit");
    assert_eq!(disk.permutation, cold.permutation);
    assert_eq!(disk.decision, cold.decision);
    assert_eq!(canon_json(&disk), canon_json(&cold));

    cache::uninstall();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strategy: a square sparse matrix sized so the full pipeline stays cheap.
fn square_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (4..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.5f64..5.0), 0..max_nnz).prop_map(move |trips| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in trips {
                coo.push(i, j, v).expect("in range by construction");
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// cold ≡ warm(memory hit) ≡ disk-reloaded, serial and 4-thread.
    #[test]
    fn cold_warm_disk_equivalent(a in square_matrix(28, 120)) {
        let _state = GlobalState::lock();
        for threads in [1usize, 4] {
            assert_cold_warm_disk_equivalent(&a, threads);
        }
    }
}

/// The same differential check on a realistic checked-in fixture (the one
/// the golden suite also locks), where the reorder branch is guaranteed.
#[test]
fn fixture_cold_warm_disk_equivalent() {
    let _state = GlobalState::lock();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clustered_96.mtx");
    let file = std::fs::File::open(&path).expect("fixture exists");
    let a = bootes::sparse::io::read_matrix_market(std::io::BufReader::new(file))
        .expect("valid fixture");
    for threads in [1usize, 4] {
        assert_cold_warm_disk_equivalent(&a, threads);
    }
}

/// `preprocess` and `decide` against their fingerprinted forms, which the
/// daemon calls with the fingerprint and row hashes it already took for its
/// singleflight key: identical permutations, labels and canonical stats on a
/// cold run, a warm hit and donor resplices. The fingerprint here comes from
/// `MatrixFingerprint::of` and the row hashes from a separate walk, as the
/// traced replay takes them.
#[test]
fn fingerprinted_forms_match_the_plain_ones() {
    let _state = GlobalState::lock();
    bootes::par::set_threads(1);
    let base = clustered(&GenConfig::new(96, 96).seed(0xD81F7), 4, 0.9).expect("valid generator");
    let steps = drifting_sequence(&base, 4, 0.03, 0xD81F7).expect("valid drift sequence");
    // Cold, then a warm hit on the same matrix, then drifted steps whose
    // exact keys miss and whose predecessor can donate.
    let inputs: Vec<&CsrMatrix> = std::iter::once(&steps[0].matrix)
        .chain(steps.iter().map(|s| &s.matrix))
        .collect();
    let pipeline = BootesPipeline::new(
        toy_tree(4).expect("4 is a candidate k"),
        BootesConfig::default(),
    )
    .expect("valid model");
    let run = |fingerprinted: bool| {
        cache::install(Cache::new(CacheConfig::memory_only(64 << 20)).expect("cache opens"));
        let outs: Vec<_> = inputs
            .iter()
            .map(|&a| {
                let fp = MatrixFingerprint::of(a);
                let (out, decision) = if fingerprinted {
                    (
                        pipeline.preprocess_fingerprinted(a, &fp, row_pattern_hashes(a)),
                        pipeline.decide_fingerprinted(a, &fp),
                    )
                } else {
                    (pipeline.preprocess(a), pipeline.decide(a))
                };
                (out.expect("preprocess"), decision.expect("decide"))
            })
            .collect();
        cache::uninstall();
        outs
    };
    let plain = run(false);
    let fingerprinted = run(true);
    assert!(!plain[0].0.stats.cache_hit, "first run is cold");
    assert!(plain[1].0.stats.cache_hit, "second run hits");
    assert!(
        plain.iter().any(|(out, _)| out.stats.rows_respliced > 0),
        "a drifted step must resplice a donor"
    );
    for (i, (p, f)) in plain.iter().zip(&fingerprinted).enumerate() {
        assert_eq!(p.0.permutation, f.0.permutation, "run {i}");
        assert_eq!(p.0.decision, f.0.decision, "run {i}");
        assert_eq!(p.1, f.1, "run {i}");
        assert_eq!(p.0.stats.cache_hit, f.0.stats.cache_hit, "run {i}");
        assert_eq!(canon_json(&p.0), canon_json(&f.0), "run {i}");
    }
}

/// What one `preprocess` leaves behind in a memory-only cache, branch by
/// branch: a NoReorder verdict and a pipeline without drift store no sketch,
/// a degraded run stores no permutation, a failed donor probe still
/// publishes the query's clean entry and its sketch, and an exact hit on a
/// respliced matrix replays the resplice's donor record.
#[test]
fn preprocess_publishes_what_each_branch_produced() {
    let _state = GlobalState::lock();
    bootes::par::set_threads(1);
    let drift = DriftConfig::default();
    let pipeline = BootesPipeline::new(
        toy_tree(4).expect("4 is a candidate k"),
        BootesConfig::default(),
    )
    .expect("valid model");
    let no_drift = pipeline.clone().with_drift(None);
    // Runs `p` over `inputs` against a fresh cache, with `faults` armed for
    // the last input only; returns the cache and the last outcome.
    let run = |p: &BootesPipeline, inputs: &[&CsrMatrix], faults: &str| {
        cache::install(Cache::new(CacheConfig::memory_only(64 << 20)).expect("cache opens"));
        let (last, before) = inputs.split_last().expect("one input at least");
        for a in before {
            p.preprocess(a).expect("preprocess");
        }
        let armed = ScopedFailpoints::arm(faults).expect("failpoints arm");
        let out = p.preprocess(last).expect("preprocess survives faults");
        drop(armed);
        (cache::uninstall().expect("installed"), out)
    };
    // The decision, reorder and sketch entries `a` may leave behind.
    let stored = |cache: &Cache, a: &CsrMatrix| {
        let fp = MatrixFingerprint::of(a);
        let sketch = CacheKey {
            kind: ArtifactKind::Sketch,
            pattern: fp.pattern,
            config: drift.sketch_config_hash(),
        };
        (
            cache.get(&pipeline.decision_key_of(&fp)),
            cache.get(&pipeline.reorder_key_of(&fp)),
            cache.get(&sketch),
        )
    };

    let mut coo = CooMatrix::new(16, 16);
    for r in 0..16 {
        for c in 0..14 {
            coo.push(r, c, 1.0).expect("in range");
        }
    }
    let dense = coo.to_csr();
    let (c, out) = run(&pipeline, &[&dense], "");
    assert!(
        !out.decision.should_reorder(),
        "dense input is not reordered"
    );
    let (decision, reorder, sketch) = stored(&c, &dense);
    assert!(matches!(decision, Some(Artifact::Decision(_))));
    assert!(matches!(reorder, Some(Artifact::Reorder(_))));
    assert!(sketch.is_none(), "a NoReorder verdict stores no sketch");
    assert_eq!(c.stats().entries, 2);

    let base = clustered(&GenConfig::new(96, 96).seed(0xD81F7), 4, 0.9).expect("valid generator");
    let steps = drifting_sequence(&base, 1, 0.03, 0xD81F7).expect("valid drift sequence");
    let (a, b) = (&steps[0].matrix, &steps[1].matrix);

    // Decision, Ritz pairs, permutation and sketch.
    let (c, out) = run(&pipeline, &[a], "");
    assert!(out.decision.should_reorder());
    let (decision, reorder, sketch) = stored(&c, a);
    assert!(matches!(decision, Some(Artifact::Decision(_))));
    assert!(matches!(reorder, Some(Artifact::Reorder(r)) if r.permutation == out.permutation));
    assert_eq!(
        sketch,
        Some(Artifact::Sketch(bootes::drift::sketch_of(a, &drift)))
    );
    assert_eq!(c.stats().entries, 4);

    let (c, _) = run(&no_drift, &[a], "");
    let (decision, reorder, sketch) = stored(&c, a);
    assert!(matches!(decision, Some(Artifact::Decision(_))));
    assert!(matches!(reorder, Some(Artifact::Reorder(_))));
    assert!(
        sketch.is_none(),
        "a pipeline without drift stores no sketch"
    );
    assert_eq!(c.stats().entries, 3);

    // A degraded run keeps its decision (and the Ritz pairs of a solve that
    // finished) but publishes neither permutation nor sketch.
    for (faults, entries) in [("lanczos.restart=err", 1), ("kmeans.iter=err", 2)] {
        let (c, out) = run(&pipeline, &[a], faults);
        assert!(out.stats.is_degraded(), "{faults}");
        let (decision, reorder, sketch) = stored(&c, a);
        assert!(matches!(decision, Some(Artifact::Decision(_))), "{faults}");
        assert!(reorder.is_none(), "{faults}: no degraded permutation");
        assert!(sketch.is_none(), "{faults}: no sketch");
        assert_eq!(c.stats().entries, entries, "{faults}");
    }

    // A donor was cached, but the probe fails: `b` runs cold and is
    // published with its sketch and without donor fields.
    let (c, out) = run(&pipeline, &[a, b], "drift.donor=err");
    assert_eq!(out.stats.donor_fingerprint, None);
    let (_, reorder, sketch) = stored(&c, b);
    let Some(Artifact::Reorder(r)) = reorder else {
        panic!("b's permutation is stored");
    };
    assert_eq!(r.permutation, out.permutation);
    assert_eq!(r.stats.donor_fingerprint, None);
    assert!(!r.stats.drift_fallback);
    assert_eq!(r.stats.rows_respliced, 0);
    assert_eq!(
        sketch,
        Some(Artifact::Sketch(bootes::drift::sketch_of(b, &drift)))
    );

    // `b` resplices `a`'s permutation; an exact hit on `b` replays the
    // donor record.
    let (_, hit) = run(&pipeline, &[a, b, b], "");
    let donor_hex = format!("{:016x}", MatrixFingerprint::of(a).pattern);
    assert!(hit.stats.cache_hit, "the second run of b hits");
    assert_eq!(
        hit.stats.donor_fingerprint.as_deref(),
        Some(donor_hex.as_str())
    );
    assert!(hit.stats.rows_respliced > 0, "b was respliced");
    assert!(!hit.stats.drift_fallback);
}

/// A corrupted on-disk entry must quarantine (not panic, not deserialize
/// garbage) and report a miss, and the entry must vanish from the store dir.
#[test]
fn corrupt_disk_entry_is_quarantined_and_missed() {
    let _state = GlobalState::lock();
    let dir = scratch_dir("corrupt");
    let key = CacheKey {
        kind: ArtifactKind::Decision,
        pattern: 0xFEED,
        config: 0xBEEF,
    };
    {
        let cache =
            Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).expect("cache opens");
        cache.put(
            key,
            Artifact::Decision(DecisionArtifact {
                features: vec![1.0, 2.0, 3.0],
                class: 2,
            }),
        );
    }
    let entry = dir.join(key.file_name());
    assert!(entry.is_file(), "entry persisted");
    std::fs::write(&entry, b"{\"kind\":\"decision\",\"data\":").expect("truncate entry");

    let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).expect("reopen");
    assert_eq!(cache.get(&key), None, "corrupt entry must read as a miss");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));
    assert!(!entry.exists(), "corrupt entry must leave the store");
    let quarantined = dir
        .join(bootes::cache::QUARANTINE_DIR)
        .join(key.file_name());
    assert!(
        quarantined.is_file(),
        "corrupt entry must land in quarantine/"
    );
    // A later valid write under the same key recovers transparently.
    cache.put(
        key,
        Artifact::Decision(DecisionArtifact {
            features: vec![1.0],
            class: 0,
        }),
    );
    let reopened =
        Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).expect("reopen again");
    assert!(matches!(
        reopened.get(&key),
        Some(Artifact::Decision(d)) if d.class == 0
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A test that fails while it holds the global state leaves none behind:
/// the guard uninstalls the cache, clears the thread override, turns
/// profiling off and empties the obs registry while the panic unwinds, and
/// the poisoned lock still admits the next test.
#[test]
fn a_failed_test_leaves_no_global_state() {
    let default = {
        let _state = GlobalState::lock();
        bootes::par::requested_threads()
    };
    let failed = std::panic::catch_unwind(|| {
        let _state = GlobalState::lock();
        bootes::par::set_threads(default + 7);
        cache::install(Cache::new(CacheConfig::memory_only(1 << 20)).expect("cache opens"));
        bootes::obs::set_enabled(true);
        bootes::obs::counter_add("test.left_behind", 1);
        panic!("an assertion fails while the state is taken");
    });
    assert!(failed.is_err());
    let _state = GlobalState::lock();
    assert!(cache::global().is_none(), "the cache was uninstalled");
    assert_eq!(bootes::par::requested_threads(), default);
    assert!(!bootes::obs::enabled(), "profiling was turned off");
    assert!(
        bootes::obs::snapshot().counters.is_empty(),
        "the obs registry was emptied"
    );
}

//! End-to-end tests of the `bootes perf` regression gate: the CLI binary is
//! driven as a subprocess against synthetic results roots, proving that
//!
//! - an injected regression (current median far past the noise allowance)
//!   makes `bootes perf diff -D` exit nonzero,
//! - a clean re-run of the blessed baseline passes under `-D`,
//! - a missing baseline directory warns but never fails the gate,
//! - `bootes perf bless` freezes the latest history run as the baseline,
//! - the threshold flags (`--rel-threshold`, ...) widen the gate,
//! - a mistyped, unknown or valueless flag fails `perf diff` before it
//!   diffs, and `--help` prints the usage instead of a diff,
//! - `perf bless` with named benches blesses only those.
//!
//! The synthetic histories/baselines are written through the public
//! `bootes::perf` API, so these tests also pin the on-disk formats the CI
//! job depends on.

use std::path::{Path, PathBuf};
use std::process::Output;

use bootes::perf::{append_history, bless, summarize, BenchEnv, Measurement};

/// Unique results root per test, under the temp dir.
fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bootes-perf-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch root");
    dir
}

/// A synthetic measurement with ±2% sample spread (MAD = 1% of the median),
/// so the default allowance for a 10 ms case is its 10% relative band.
fn measurement(bench: &str, case: &str, median_ms: f64, ts: u64) -> Measurement {
    let base = median_ms * 1e6;
    let samples: Vec<f64> = [0.98, 0.99, 1.0, 1.01, 1.02]
        .iter()
        .map(|f| base * f)
        .collect();
    Measurement {
        bench: bench.to_string(),
        case: case.to_string(),
        unit: "ns".to_string(),
        warmup: 1,
        reps: samples.len(),
        summary: summarize(&samples),
        samples,
        env: BenchEnv {
            threads: 1,
            requested_threads: 1,
            threads_clamped: false,
            cpus: 1,
            git_rev: "test".to_string(),
            config_hash: "cafef00dcafef00d".to_string(),
            timestamp_unix: ts,
        },
    }
}

fn run_bootes(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_bootes"))
        .args(args)
        .output()
        .expect("spawn bootes binary")
}

fn perf_diff(root: &Path, extra: &[&str]) -> Output {
    let baselines = root.join("baselines");
    let mut args = vec!["perf", "diff", "--baseline", baselines.to_str().unwrap()];
    args.extend_from_slice(extra);
    run_bootes(&args)
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn injected_regression_fails_the_gate_under_strict() {
    let root = scratch_root("regress");
    let blessed = [measurement("gate_bench", "kernel", 10.0, 100)];
    bless(&root, "gate_bench", &blessed).unwrap();
    // The "current" run: 2x slower — far past max(10% rel, 5·MAD, 0.2 ms).
    append_history(&root, &[measurement("gate_bench", "kernel", 20.0, 200)]).unwrap();

    let out = perf_diff(&root, &["-D"]);
    let text = stdout_of(&out);
    assert!(
        !out.status.success(),
        "injected regression must exit nonzero: {text}"
    );
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("FAIL"), "{text}");

    // Without -D the regression is reported but the exit stays clean.
    let soft = perf_diff(&root, &[]);
    assert!(soft.status.success(), "non-strict diff must exit 0");
    assert!(stdout_of(&soft).contains("REGRESSED"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_rerun_of_blessed_baseline_passes() {
    let root = scratch_root("clean");
    let blessed = [
        measurement("gate_bench", "kernel_a", 10.0, 100),
        measurement("gate_bench", "kernel_b", 3.0, 100),
    ];
    bless(&root, "gate_bench", &blessed).unwrap();
    // Re-run with identical medians (a fresh timestamp: a later run).
    append_history(
        &root,
        &[
            measurement("gate_bench", "kernel_a", 10.0, 200),
            measurement("gate_bench", "kernel_b", 3.0, 200),
        ],
    )
    .unwrap();

    let out = perf_diff(&root, &["-D"]);
    let text = stdout_of(&out);
    assert!(out.status.success(), "clean rerun must pass -D: {text}");
    assert!(text.contains("PASS"), "{text}");
    assert!(!text.contains("REGRESSED"), "{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_baseline_dir_warns_but_exits_zero() {
    let root = scratch_root("nobase");
    let out = perf_diff(&root, &["-D"]);
    let text = stdout_of(&out);
    assert!(
        out.status.success(),
        "missing baselines must not gate: {text}"
    );
    assert!(text.contains("no baselines"), "{text}");
    assert!(text.contains("PASS"), "{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bless_subcommand_freezes_latest_run() {
    let root = scratch_root("bless");
    // Two runs in the ledger; only the latest (slower) one must be blessed.
    append_history(&root, &[measurement("gate_bench", "kernel", 10.0, 100)]).unwrap();
    append_history(&root, &[measurement("gate_bench", "kernel", 12.0, 200)]).unwrap();

    let baselines = root.join("baselines");
    let out = run_bootes(&["perf", "bless", "--baseline", baselines.to_str().unwrap()]);
    let text = stdout_of(&out);
    assert!(out.status.success(), "bless must succeed: {text}");
    assert!(text.contains("blessed gate_bench"), "{text}");

    let frozen = bootes::perf::load_baseline(&root, "gate_bench").unwrap();
    assert_eq!(frozen.cases.len(), 1);
    assert_eq!(frozen.cases[0].summary.median, 12.0 * 1e6);

    // And the gate now passes against what was just blessed.
    let diff = perf_diff(&root, &["-D"]);
    assert!(diff.status.success(), "{}", stdout_of(&diff));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn threshold_flags_widen_the_gate() {
    let root = scratch_root("widen");
    bless(
        &root,
        "gate_bench",
        &[measurement("gate_bench", "kernel", 10.0, 100)],
    )
    .unwrap();
    append_history(&root, &[measurement("gate_bench", "kernel", 20.0, 200)]).unwrap();

    // +100% is a regression at the default 10% band but fine under 200%.
    let out = perf_diff(&root, &["-D", "--rel-threshold", "2.0"]);
    let text = stdout_of(&out);
    assert!(out.status.success(), "widened gate must pass: {text}");
    assert!(text.contains("PASS"), "{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_diff_flags_fail_before_any_diff() {
    let root = scratch_root("malformed");
    bless(
        &root,
        "gate_bench",
        &[measurement("gate_bench", "kernel", 10.0, 100)],
    )
    .unwrap();
    append_history(&root, &[measurement("gate_bench", "kernel", 20.0, 200)]).unwrap();

    // `-d` for `-D` must not turn the gate into a report that always passes.
    for extra in [&["-d"][..], &["--bogus-flag"], &["--rel-threshold"]] {
        let out = perf_diff(&root, extra);
        let text = stdout_of(&out);
        assert!(!out.status.success(), "perf diff {extra:?} must fail");
        assert!(
            !text.contains("bench/case"),
            "{extra:?} ran the diff: {text}"
        );
    }
    let help = perf_diff(&root, &["--help"]);
    let text = stdout_of(&help);
    assert!(help.status.success(), "--help must exit 0: {text}");
    assert!(text.contains("usage:"), "{text}");
    assert!(!text.contains("bench/case"), "--help ran the diff: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bless_named_bench_blesses_only_that_bench() {
    let root = scratch_root("bless-named");
    append_history(&root, &[measurement("perf_smoke", "kernel", 10.0, 100)]).unwrap();
    append_history(&root, &[measurement("other_bench", "kernel", 10.0, 100)]).unwrap();

    let baselines = root.join("baselines");
    let out = run_bootes(&[
        "perf",
        "bless",
        "--baseline",
        baselines.to_str().unwrap(),
        "perf_smoke",
    ]);
    assert!(
        out.status.success(),
        "bless must succeed: {}",
        stdout_of(&out)
    );
    let written: Vec<String> = std::fs::read_dir(&baselines)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written, ["perf_smoke.json"]);
    let _ = std::fs::remove_dir_all(&root);
}

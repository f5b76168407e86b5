//! Runs every workload once in `--smoke` mode, untraced and traced, and
//! checks the summary line against `BENCHMARK.json`: the keys, a clean
//! run, and exactly the declared end-to-end (untraced) or per-layer
//! (traced) metric names.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use serde::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Builds the `bootes` CLI the serve workload starts, into the
/// repository's own target directory (separate from this package's, so the
/// nested build never waits on the outer one's lock).
fn bootes_cli() -> &'static Path {
    static CLI: OnceLock<PathBuf> = OnceLock::new();
    CLI.get_or_init(|| {
        let root = repo_root();
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "bootes",
            ])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", root.join("target"))
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the bootes CLI failed");
        root.join("target/release/bootes")
    })
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--bootes")
        .arg(bootes_cli())
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target"))
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    let summary: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = summary
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(summary.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(summary.get("failed").and_then(Value::as_u64), Some(0));
    assert!(summary.get("attempted").and_then(Value::as_u64) > Some(0));
    let mut got: Vec<String> = summary
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {m:?}");
            name.clone()
        })
        .collect();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "{workload} (trace {trace}) reports other metrics"
    );
    if trace {
        // The layers' self-time shares and the unattributed time add up
        // to the traced end-to-end time.
        let metric = |name: &str| {
            summary
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect("declared metric")
        };
        let shares: f64 = got
            .iter()
            .filter(|n| n.starts_with("share."))
            .map(|n| metric(n))
            .sum();
        let unattributed = metric("trace.unattributed_ms") / metric("trace.e2e_ms");
        assert!(
            (shares + unattributed - 1.0).abs() < 1e-6,
            "{workload}: shares {shares} + unattributed {unattributed} != 1"
        );
    }
}

#[test]
fn suite_cold_smoke() {
    smoke("suite-cold", false);
    smoke("suite-cold", true);
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve-mixed", false);
    smoke("serve-mixed", true);
}

#[test]
fn drift_stream_smoke() {
    smoke("drift-stream", false);
    smoke("drift-stream", true);
}

//! `perf_smoke` run as a subprocess: the Runner's repeat knobs reach the
//! history ledger it appends.

use std::process::Command;

#[test]
fn zero_warmup_is_recorded_as_zero() {
    let results =
        std::env::temp_dir().join(format!("bootes-perf-smoke-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    let out = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
        .env("BOOTES_PERF_WARMUP", "0")
        .env("BOOTES_PERF_REPS", "1")
        .env("BOOTES_PAR_NNZ", "4096")
        .env("BOOTES_RESULTS", &results)
        .env_remove("BOOTES_BLESS_PERF")
        .output()
        .expect("perf_smoke starts");
    assert!(
        out.status.success(),
        "perf_smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ledger = std::fs::read_to_string(bootes_perf::history_path(&results, "perf_smoke"))
        .expect("perf_smoke appends its history");
    let lines: Vec<&str> = ledger.lines().collect();
    assert_eq!(lines.len(), 6, "one line per case");
    for line in lines {
        assert!(line.contains("\"warmup\":0,"), "{line}");
        assert!(line.contains("\"reps\":1,"), "{line}");
    }
    let _ = std::fs::remove_dir_all(&results);
}

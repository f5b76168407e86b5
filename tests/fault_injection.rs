//! Fault-injection suite: drives every edge of the graceful-degradation
//! chain through the public facade, using the deterministic failpoints and
//! resource budgets from `bootes::guard`.
//!
//! Failpoints, budgets, thread counts and the obs registry are all
//! process-global, so every test holds a [`ScopedFailpoints`] for its whole
//! body: scopes take a process-wide lock, and tests that inject nothing arm
//! an empty spec ([`no_faults`]). A test that sets the thread count or
//! turns profiling on also holds a [`GlobalState`], taken after the scope,
//! which resets both when it drops. A scope replaces any `BOOTES_FAILPOINTS`
//! spec from the environment while it lives, and the subprocess helpers set
//! or clear that variable for their children, so the CI fault-injection
//! job's env matrix checks that this suite ignores ambient faults.

mod common;

use bootes::core::{toy_tree, BootesConfig, BootesPipeline, FallbackReorderer, SpectralReorderer};
use bootes::guard::{Budget, GuardError, ScopedFailpoints};
use bootes::reorder::Reorderer;
use bootes::sparse::ops::spgemm;
use bootes::sparse::{CsrMatrix, SparseError};
use bootes::workloads::gen::{clustered, GenConfig};
use common::GlobalState;

/// A scope with nothing armed: serializes the test against every other
/// test here and guarantees a fault-free failpoint table.
fn no_faults() -> ScopedFailpoints {
    ScopedFailpoints::arm("").unwrap()
}

/// A clustered test matrix large enough that every rung does real work.
fn matrix() -> CsrMatrix {
    clustered(&GenConfig::new(96, 96).seed(7), 4, 0.95).expect("valid generator config")
}

fn chain() -> FallbackReorderer {
    FallbackReorderer::new(BootesConfig::default().with_k(4))
}

/// The rungs a `degrade_reason` names, in the order they failed: the chain
/// joins one `"<rung>: <error>"` entry per failed rung with `"; "`.
fn failed_rungs(reason: &str) -> Vec<&str> {
    reason
        .split("; ")
        .map(|entry| entry.split_once(": ").map_or(entry, |(rung, _)| rung))
        .collect()
}

#[test]
fn lanczos_failpoint_degrades_to_hier() {
    // @1 fires exactly once: the spectral rung consumes it and the LSH rung,
    // which needs no eigensolve, produces the ordering. The scoped guard
    // restores the previous (empty) spec when the test ends, pass or fail.
    let _fp = ScopedFailpoints::arm("lanczos.restart=err@1").unwrap();
    let a = matrix();
    let out = chain().reorder(&a).expect("chain must absorb the fault");
    assert_eq!(out.stats.algorithm, "hier");
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
    let reason = out.stats.degrade_reason.expect("reason recorded");
    assert!(reason.contains("injected fault"), "{reason}");
    assert_eq!(out.permutation.len(), a.nrows());
}

#[test]
fn kmeans_failpoint_degrades_to_hier() {
    let _fp = ScopedFailpoints::arm("kmeans.iter=err@1").unwrap();
    let a = matrix();
    let out = chain().reorder(&a).expect("chain must absorb the fault");
    assert_eq!(out.stats.algorithm, "hier");
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
}

#[test]
fn persistent_lanczos_fault_falls_through_to_hier() {
    // No @N: fires on every hit, so the spectral rung fails and the chain
    // lands on the LSH reorderer, which needs no eigensolve.
    let _fp = ScopedFailpoints::arm("lanczos.restart=err").unwrap();
    let a = matrix();
    let out = chain().reorder(&a).expect("chain must absorb the fault");
    assert_eq!(out.stats.algorithm, "hier");
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
    let reason = out.stats.degrade_reason.expect("reason recorded");
    assert_eq!(failed_rungs(&reason), ["bootes"], "{reason}");
    assert_eq!(out.permutation.len(), a.nrows());
}

#[test]
fn spectral_and_hier_faults_land_on_original_order() {
    // Both ordering rungs fail, so only the identity rung is left.
    let _fp = ScopedFailpoints::arm("lanczos.restart=err,hier.merge=err").unwrap();
    let a = matrix();
    let out = chain().reorder(&a).expect("chain must absorb the faults");
    assert_eq!(out.stats.algorithm, "original");
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
    let reason = out.stats.degrade_reason.expect("reason recorded");
    assert_eq!(failed_rungs(&reason), ["bootes", "hier"], "{reason}");
    assert!(out.permutation.is_identity());
}

#[test]
fn worker_panic_is_isolated_and_degraded() {
    let _fp = ScopedFailpoints::arm("par.worker=panic@1").unwrap();
    let _state = GlobalState::lock();
    bootes::par::set_threads(4);
    let a = matrix();
    let out = chain()
        .reorder(&a)
        .expect("a worker panic must not escape the chain");
    assert!(out.stats.is_degraded());
    assert_eq!(out.permutation.len(), a.nrows());
}

#[test]
fn zero_time_budget_lands_on_original_order() {
    let _fp = no_faults();
    let a = matrix();
    let armed = Budget::unlimited().with_time_ms(0).arm();
    let out = chain().reorder(&a).expect("budget exhaustion must degrade");
    drop(armed);
    assert_eq!(out.stats.algorithm, "original");
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
    let reason = out.stats.degrade_reason.expect("reason recorded");
    assert!(reason.contains("time-ms"), "{reason}");
    assert!(out.permutation.is_identity());
}

#[test]
fn iteration_cap_lands_on_original_order() {
    let _fp = no_faults();
    let a = matrix();
    let armed = Budget::unlimited().with_iterations(1).arm();
    let out = chain().reorder(&a).expect("budget exhaustion must degrade");
    drop(armed);
    assert_eq!(out.stats.algorithm, "original");
    let reason = out.stats.degrade_reason.expect("reason recorded");
    assert!(reason.contains("iterations"), "{reason}");
}

#[test]
fn byte_budget_lands_on_original_order() {
    let _fp = no_faults();
    let a = matrix();
    // 1 byte: the explicit accounting of both the spectral embedding and
    // the LSH signatures trips at once, so only the identity rung is left.
    let armed = Budget::unlimited().with_bytes(1).arm();
    let out = chain().reorder(&a).expect("budget exhaustion must degrade");
    drop(armed);
    assert_eq!(out.stats.algorithm, "original");
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
    let reason = out.stats.degrade_reason.expect("reason recorded");
    assert_eq!(failed_rungs(&reason), ["bootes", "hier"], "{reason}");
    assert!(reason.contains("bytes"), "{reason}");
    assert!(out.permutation.is_identity());
}

#[test]
fn healthy_chain_is_bit_identical_to_plain_spectral() {
    let _fp = no_faults();
    let a = matrix();
    let cfg = BootesConfig::default().with_k(4);
    let guarded = FallbackReorderer::new(cfg.clone()).reorder(&a).unwrap();
    let plain = SpectralReorderer::new(cfg).reorder(&a).unwrap();
    assert_eq!(guarded.permutation, plain.permutation);
    assert_eq!(guarded.stats.algorithm, "bootes");
    assert!(!guarded.stats.is_degraded());
    assert!(guarded.stats.degrade_reason.is_none());
}

#[test]
fn fallback_counters_name_the_failed_rung() {
    let _fp = ScopedFailpoints::arm("lanczos.restart=err@1").unwrap();
    let _state = GlobalState::lock();
    bootes::obs::set_enabled(true);
    let a = matrix();
    chain().reorder(&a).expect("chain must absorb the fault");
    let profile = bootes::obs::snapshot();
    let counter = |name: &str| {
        profile
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    };
    assert_eq!(counter("guard.fallback"), Some(1));
    assert_eq!(counter("guard.fallback.from.bootes"), Some(1));
    assert_eq!(counter("guard.failpoint"), Some(1));
}

#[test]
fn pipeline_preprocess_survives_faults_and_reports_degradation() {
    let _fp = ScopedFailpoints::arm("lanczos.restart=err").unwrap();
    let pipeline = BootesPipeline::new(toy_tree(4).unwrap(), BootesConfig::default()).unwrap();
    let a = matrix();
    let out = pipeline.preprocess(&a).expect("pipeline must degrade");
    assert!(out.decision.should_reorder());
    assert_eq!(out.stats.degraded_from.as_deref(), Some("bootes"));
    assert_eq!(out.stats.algorithm, "hier");
    assert_eq!(out.permutation.len(), a.nrows());
}

#[test]
fn kernels_return_worker_faults_as_typed_errors() {
    // SpGEMM hands a failed chunk back as `SparseError::Guard` instead of
    // panicking, on the inline (1 thread) and the pool (4 threads) path
    // alike.
    let a = matrix();
    let at = a.transpose();
    for threads in [1, 4] {
        let _fp = ScopedFailpoints::arm("par.worker=err@1").unwrap();
        let err = spgemm(&a, &at, threads).expect_err("the injected fault must surface");
        assert!(
            matches!(err, SparseError::Guard(GuardError::Injected { .. })),
            "spgemm at {threads} threads: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// End-to-end: the installed binary must exit 0 and emit a valid permutation
// under injected faults and exhausted budgets.
// ---------------------------------------------------------------------------

fn write_test_matrix(path: &std::path::Path) {
    let a = matrix();
    let mut file = std::fs::File::create(path).expect("create temp mtx");
    bootes::sparse::io::write_matrix_market(&mut file, &a).expect("write temp mtx");
}

fn run_cli(args: &[&str], failpoints: Option<&str>) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_bootes"));
    cmd.args(args);
    // The failpoint env var is read once per process, so it must be set on
    // the child's environment, never on the test process itself.
    match failpoints {
        Some(spec) => cmd.env("BOOTES_FAILPOINTS", spec),
        None => cmd.env_remove("BOOTES_FAILPOINTS"),
    };
    cmd.output().expect("spawn bootes binary")
}

#[test]
fn cli_reorder_exits_zero_under_persistent_faults() {
    let _fp = no_faults();
    let dir = std::env::temp_dir();
    let input = dir.join("bootes_fault_injection_in.mtx");
    let output = dir.join("bootes_fault_injection_out.mtx");
    write_test_matrix(&input);
    let _ = std::fs::remove_file(&output);
    let out = run_cli(
        &[
            "reorder",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ],
        Some("lanczos.restart=err"),
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reordered = bootes::sparse::io::read_matrix_market(std::io::BufReader::new(
        std::fs::File::open(&output).expect("output written"),
    ))
    .expect("output parses");
    assert_eq!(reordered.nrows(), 96);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "stderr: {stderr}");
    // The summary names the rung that produced the permutation.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("with hier in"), "stdout: {stdout}");
}

#[test]
fn cli_reorder_exits_zero_with_zero_time_budget() {
    let _fp = no_faults();
    let dir = std::env::temp_dir();
    let input = dir.join("bootes_budget_in.mtx");
    let output = dir.join("bootes_budget_out.mtx");
    write_test_matrix(&input);
    let _ = std::fs::remove_file(&output);
    let out = run_cli(
        &[
            "reorder",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
            "--time-budget-ms",
            "0",
        ],
        None,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(output.exists());
}

// ---------------------------------------------------------------------------
// Daemon fault injection: the `bootes serve` subprocess must turn injected
// faults at its own sites (`serve.accept`, `serve.parse`,
// `serve.coalesce.leader`) into per-connection/per-request failures — never a
// hang and never a dead daemon — and must drain cleanly with work in flight.
// ---------------------------------------------------------------------------

use bootes::serve::{Client, MatrixPayload};

/// Spawns a `bootes serve` child on a fresh Unix socket and waits for its
/// readiness line. Returns the child, the rest of its stdout, and the
/// connectable address.
fn spawn_serve(
    tag: &str,
    extra: &[&str],
    failpoints: Option<&str>,
) -> (
    std::process::Child,
    std::io::BufReader<std::process::ChildStdout>,
    String,
) {
    use std::io::BufRead as _;
    let sock = std::env::temp_dir().join(format!("bootes-fi-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_bootes"));
    cmd.arg("serve")
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    match failpoints {
        Some(spec) => cmd.env("BOOTES_FAILPOINTS", spec),
        None => cmd.env_remove("BOOTES_FAILPOINTS"),
    };
    let mut child = cmd.spawn().expect("spawn serve daemon");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read readiness line");
    let addr = line
        .trim()
        .strip_prefix("bootes-serve listening on ")
        .unwrap_or_else(|| panic!("daemon did not come up; first line: {line:?}"))
        .to_string();
    (child, stdout, addr)
}

/// Connects with a generous read timeout so a hung daemon fails the test
/// instead of wedging the suite.
fn serve_client(addr: &str) -> Client {
    let mut client = Client::connect(addr).expect("connect to daemon");
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("set read timeout");
    client
}

/// Drains the daemon and asserts a clean exit: shutdown answered `ok` after
/// the drain, exit status 0, and the final counters line printed.
fn assert_clean_drain(
    mut child: std::process::Child,
    mut stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: &str,
) {
    use std::io::Read as _;
    let resp = serve_client(addr).shutdown().expect("shutdown answered");
    assert!(resp.ok, "shutdown failed: {:?}", resp.error);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read drain line");
    assert!(
        rest.contains("bootes-serve drained:"),
        "missing drain summary, stdout tail: {rest:?}"
    );
}

#[test]
fn serve_parse_failpoint_is_a_protocol_error_not_a_hang() {
    let _fp = no_faults();
    let (child, stdout, addr) = spawn_serve("parse", &[], Some("serve.parse=err@1"));
    let mut client = serve_client(&addr);
    // The first line hits the injected parse fault: a well-formed error
    // response on the same connection, not a hang or a disconnect.
    let faulted = client.ping().expect("fault is answered in-band");
    assert!(!faulted.ok);
    let err = faulted.error.expect("error text present");
    assert!(err.contains("injected fault"), "{err}");
    // @1 fires once: the daemon keeps serving the same connection.
    let healthy = client.ping().expect("second request answered");
    assert!(healthy.ok, "daemon must survive the injected fault");
    assert_clean_drain(child, stdout, &addr);
}

#[test]
fn serve_degraded_preprocess_names_the_rung_that_ordered_it() {
    let _fp = no_faults();
    let (child, stdout, addr) = spawn_serve("degraded", &[], Some("lanczos.restart=err"));
    let resp = serve_client(&addr)
        .preprocess(MatrixPayload::from_csr(&matrix()), Some("fi"))
        .expect("answered");
    assert!(resp.ok, "preprocess failed: {:?}", resp.error);
    assert_eq!(resp.label.as_deref(), Some("reorder"));
    assert!(resp.degraded);
    assert_eq!(resp.algorithm.as_deref(), Some("hier"));
    assert_clean_drain(child, stdout, &addr);
}

#[test]
fn serve_deeply_nested_line_is_a_bad_request_not_an_abort() {
    use bootes::serve::protocol::{decode, Response};
    use std::io::{BufRead as _, Write as _};
    let _fp = no_faults();
    let (child, stdout, addr) = spawn_serve("nested", &[], None);
    // 200 000 nested brackets under an unknown key: parsing them recursively
    // would overflow the connection thread's stack and abort the daemon.
    let depth = 200_000;
    let line = format!(
        "{{\"id\":7,\"op\":\"ping\",\"x\":{}{}}}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let path = addr.strip_prefix("unix:").expect("unix address");
    let mut stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("set read timeout");
    stream.write_all(line.as_bytes()).expect("send the line");
    let mut reply = String::new();
    std::io::BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("the line is answered in-band");
    let resp: Response = decode(reply.trim_end()).expect("well-formed response");
    assert!(!resp.ok);
    let err = resp.error.expect("error text present");
    assert!(err.starts_with("bad request line: "), "{err}");
    assert!(err.contains("nesting deeper than 128"), "{err}");
    // The daemon is alive and counted the line as a parse error.
    let mut client = serve_client(&addr);
    assert!(client.ping().expect("ping answered").ok);
    let stats = client.stats().expect("stats").stats.expect("payload");
    assert_eq!(stats.parse_errors, 1);
    assert_clean_drain(child, stdout, &addr);
}

#[test]
fn serve_accept_failpoint_drops_one_connection_daemon_survives() {
    let _fp = no_faults();
    let (child, stdout, addr) = spawn_serve("accept", &[], Some("serve.accept=err@1"));
    // The first accept consumes the fault: that connection is dropped
    // without a response.
    let mut dropped = serve_client(&addr);
    assert!(
        dropped.ping().is_err(),
        "faulted accept must drop the connection"
    );
    // The daemon itself stays up: the next connection is served normally.
    let mut healthy = serve_client(&addr);
    assert!(healthy.ping().expect("answered").ok);
    assert_clean_drain(child, stdout, &addr);
}

#[test]
fn serve_coalesce_leader_fault_propagates_and_terminates() {
    let _fp = no_faults();
    let (child, stdout, addr) = spawn_serve(
        "coalesce",
        &["--serve-workers", "4"],
        Some("serve.coalesce.leader=err@1"),
    );
    // Identical concurrent requests: whoever leads the singleflight hits the
    // injected fault; any coalesced waiters must receive that same error
    // (not hang), and late arrivals recompute cleanly.
    let payload = MatrixPayload::from_csr(&matrix());
    let responses: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let payload = payload.clone();
            std::thread::spawn(move || {
                serve_client(&addr)
                    .preprocess(payload, Some("fi"))
                    .expect("request answered in-band")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("no request may hang"))
        .collect();
    let failed: Vec<_> = responses.iter().filter(|r| !r.ok).collect();
    assert_eq!(failed.len() + responses.iter().filter(|r| r.ok).count(), 4);
    assert!(
        !failed.is_empty(),
        "exactly one leader must have consumed the @1 fault"
    );
    for r in &failed {
        let err = r.error.as_deref().expect("error text present");
        assert!(err.contains("injected fault"), "{err}");
    }
    // The fault is consumed; the same key now computes successfully.
    let retry = serve_client(&addr)
        .preprocess(payload, Some("fi"))
        .expect("retry answered");
    assert!(retry.ok, "retry failed: {:?}", retry.error);
    assert_clean_drain(child, stdout, &addr);
}

#[test]
fn serve_admission_reject_is_well_formed_and_non_sticky() {
    let _fp = no_faults();
    // 50k triplets at ~24 bytes each (~1.2 MiB) against a 1 MiB tenant cap.
    let (child, stdout, addr) = spawn_serve("admission", &["--max-tenant-mb", "1"], None);
    let n = 256;
    let count = 50_000;
    let oversized = MatrixPayload {
        nrows: n,
        ncols: n,
        rows: (0..count).map(|k| k % n).collect(),
        cols: (0..count).map(|k| (k / n) % n).collect(),
        vals: (0..count).map(|k| 1.0 + (k % 3) as f64).collect(),
    };
    let mut client = serve_client(&addr);
    let rejected = client
        .preprocess(oversized, Some("fi"))
        .expect("reject is answered in-band");
    assert!(!rejected.ok);
    assert!(
        rejected.retry_after_ms.is_some(),
        "admission reject must carry a retry hint"
    );
    let err = rejected.error.expect("error text present");
    assert!(err.contains("tenant:fi"), "{err}");
    // The rejected request consumed no budget: a small one sails through.
    let small = client
        .preprocess(MatrixPayload::from_csr(&matrix()), Some("fi"))
        .expect("answered");
    assert!(small.ok, "small request failed: {:?}", small.error);
    assert_clean_drain(child, stdout, &addr);
}

#[test]
fn serve_drain_with_inflight_work_exits_zero_and_loses_nothing() {
    let _fp = no_faults();
    let (mut child, mut stdout, addr) = spawn_serve("drain", &["--serve-workers", "1"], None);
    // Distinct matrices through a single worker: some execute during the
    // drain's grace window under the revoked (zero-time) budget.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let senders: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let a = clustered(&GenConfig::new(96, 96).seed(100 + i), 4, 0.95)
                    .expect("valid generator config");
                let mut client = serve_client(&addr);
                barrier.wait();
                client
                    .preprocess(MatrixPayload::from_csr(&a), Some("fi"))
                    .expect("admitted work is always answered")
            })
        })
        .collect();
    // All senders are connected; give their requests a moment to land, then
    // drain under them.
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let resp = serve_client(&addr).shutdown().expect("shutdown answered");
    assert!(resp.ok, "shutdown failed: {:?}", resp.error);
    for h in senders {
        let r = h.join().expect("no sender may hang");
        // Every response is well-formed: completed (possibly degraded by the
        // drain's budget revocation) or a typed draining reject.
        if !r.ok {
            let err = r.error.as_deref().expect("error text present");
            assert!(err.contains("draining"), "{err}");
            assert!(r.retry_after_ms.is_some());
        }
    }
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
    use std::io::Read as _;
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read drain line");
    assert!(rest.contains("bootes-serve drained:"), "{rest:?}");
    // Drained means drained: the socket no longer accepts work.
    assert!(Client::connect(&addr).is_err() || serve_client(&addr).ping().is_err());
}

#[test]
fn serve_non_utf8_line_is_a_bad_request_not_a_hangup() {
    use bootes::serve::protocol::{decode, Response};
    use std::io::{BufRead as _, Write as _};
    let _fp = no_faults();
    let (child, stdout, addr) = spawn_serve("utf8", &[], None);
    let path = addr.strip_prefix("unix:").expect("unix address");
    let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("set read timeout");
    let mut reader = std::io::BufReader::new(&stream);
    let mut answer = |line: &[u8]| -> Result<Response, String> {
        (&stream).write_all(line).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        decode(reply.trim_end()).map_err(|e| format!("{e}: {reply:?}"))
    };
    let bad = answer(b"{\"id\":1,\"op\":\"ping\",\"x\":\"\xff\"}\n");
    // The connection lives on, and `\r\n` still ends a line.
    let ping = answer(b"{\"id\":2,\"op\":\"ping\"}\r\n");
    let stats = answer(b"{\"id\":3,\"op\":\"stats\"}\n");
    assert_clean_drain(child, stdout, &addr);
    let bad = bad.expect("the line is answered in-band");
    assert!(!bad.ok);
    let err = bad.error.expect("error text present");
    assert!(err.starts_with("bad request line: "), "{err}");
    assert!(ping.expect("ping answered").ok);
    let stats = stats.expect("stats answered").stats.expect("payload");
    assert_eq!(stats.parse_errors, 1);
}

#[test]
fn serve_waiting_requests_run_in_arrival_order() {
    use std::sync::{Arc, Mutex};
    let _fp = no_faults();
    // One slot, and every Lanczos restart held for 100 ms: each cold request
    // keeps the slot long enough for the ones behind it to wait.
    let (child, stdout, addr) = spawn_serve(
        "order",
        &["--serve-workers", "1"],
        Some("lanczos.restart=delay:100ms"),
    );
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    // Request 0 takes the slot; 1, 2 and 3 follow 40 ms apart, each on its
    // own connection, and queue behind it.
    let senders: Vec<_> = (0..4u64)
        .map(|i| {
            let a = clustered(&GenConfig::new(96, 96).seed(300 + i), 4, 0.95)
                .expect("valid generator config");
            let payload = MatrixPayload::from_csr(&a);
            let mut client = serve_client(&addr);
            let arrivals = Arc::clone(&arrivals);
            if i > 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            std::thread::spawn(move || {
                let resp = client.preprocess(payload, Some("fi"));
                arrivals.lock().unwrap().push(i);
                resp
            })
        })
        .collect();
    let answers: Vec<_> = senders.into_iter().map(|h| h.join()).collect();
    // Drained before asserting, so a failure leaves no daemon behind.
    assert_clean_drain(child, stdout, &addr);
    for (i, answer) in answers.into_iter().enumerate() {
        let resp = answer.expect("sender joins").expect("request answered");
        assert!(resp.ok, "request {i} failed: {:?}", resp.error);
        assert!(
            i == 0 || resp.queue_ms > 0.0,
            "request {i} never waited for the slot"
        );
    }
    assert_eq!(*arrivals.lock().unwrap(), [0, 1, 2, 3]);
}

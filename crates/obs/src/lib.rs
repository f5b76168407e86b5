//! Observability for the Bootes preprocessing + simulation pipeline:
//! scoped spans, a metrics registry, and profile exporters.
//!
//! Everything funnels into one process-wide registry behind a single
//! `AtomicBool` gate. While profiling is disabled (the default) every
//! instrumentation call is a relaxed atomic load and a branch — no clock
//! reads, no locks, no allocation — so instrumented hot paths stay within
//! noise of uninstrumented builds. Enable with [`set_enabled`] or the
//! `BOOTES_PROFILE=1` environment variable via [`init_from_env`] (the CLI
//! does both for `--profile`).
//!
//! # Spans
//!
//! [`span!`] opens a scope whose wall-time is recorded on drop into a
//! hierarchical timer tree (nesting follows a thread-local span stack).
//! [`TimedScope`] is the always-timed variant for components whose public
//! results embed an elapsed duration (e.g. `ReorderStats`).
//!
//! # Exporters
//!
//! [`snapshot`] captures a serializable [`Profile`] (top-level JSON keys:
//! `meta`, `spans`, `counters`, `gauges`, `histograms`);
//! [`render_table`] renders it for stderr; [`export_json`] pretty-prints
//! it; [`export_chrome_trace`] emits Chrome trace-event JSON (open in
//! `chrome://tracing` or Perfetto).
//!
//! # Metric catalog
//!
//! Span names (hierarchy shown flat; actual nesting depends on call paths):
//!
//! | span | recorded by |
//! |------|-------------|
//! | `pipeline.preprocess` | `bootes-core` — full preprocessing pass |
//! | `pipeline.decide` | `bootes-core` — model-driven label decision |
//! | `reorder.gamma` / `reorder.graph` / `reorder.hier` / `reorder.spectral` | each `Reorderer::reorder` implementation |
//! | `spectral.laplacian` / `spectral.lanczos` / `spectral.kmeans` / `spectral.order` | spectral clustering stages |
//! | `lanczos.restart` | `bootes-linalg` — one thick-restart outer iteration |
//! | `lanczos.dense_fallback` | `bootes-linalg` — dense eigensolver fallback |
//! | `kmeans.run` | `bootes-linalg` — one seeded k-means attempt |
//! | `accel.simulate` | `bootes-accel` — full SpGEMM simulation |
//! | `accel.symbolic` | `bootes-accel` — symbolic output sizing |
//! | `spgemm` | `bootes-sparse` — the one SpGEMM kernel |
//! | `par.worker` | `bootes-par` — one worker thread's share of a parallel kernel |
//! | `reorder.fallback` | `bootes-core` — one pass of the graceful-degradation chain |
//!
//! Parallel regions additionally record **worker-chunk events** (region,
//! worker lane, chunk index, row range, weight, wall-ns) via
//! [`record_worker_chunk`]; these appear as per-worker lanes in the Chrome
//! trace. Chunk events are gated separately behind [`chunk_timeline`]
//! (enabled by the CLI for `--trace-out`): with profiling on but the
//! timeline off, `bootes-par` still publishes the aggregate `par.region.*`
//! metrics below from one timing per worker, skipping the per-chunk clock
//! reads and record pushes.
//!
//! Counters:
//!
//! | counter | meaning |
//! |---------|---------|
//! | `lanczos.matvecs` | operator applications across all solves |
//! | `lanczos.restarts` | thick-restart outer iterations |
//! | `lanczos.iterations` | inner Lanczos steps |
//! | `kmeans.iterations` | Lloyd iterations across all attempts |
//! | `spgemm.flops` | multiply-accumulates performed by sparse kernels |
//! | `cache.hits{operand=B}` / `cache.misses{operand=B}` | accelerator B-row cache outcomes |
//! | `accel.bytes{operand=A}` / `accel.bytes{operand=B}` / `accel.bytes{operand=C}` | simulated DRAM traffic per operand |
//! | `pe.busy_cycles` | total busy cycles across processing elements |
//! | `guard.fallback` | degradation steps taken by the fallback chain |
//! | `guard.fallback.from.<rung>` | degradation steps attributed to the named failed rung |
//! | `guard.failpoint` | deterministic faults fired by `BOOTES_FAILPOINTS` |
//! | `guard.failpoint.delay` | injected `delay:Nms` failpoint firings (sleep in place, no error) |
//! | `cache.hit` | artifact-cache lookups served from memory or disk (`bootes-cache`) |
//! | `cache.miss` | artifact-cache lookups that found nothing valid |
//! | `cache.evict` | entries evicted from the in-memory LRU (incl. oversized rejects) |
//! | `cache.quarantine` | corrupt on-disk entries moved to `quarantine/` |
//! | `cache.quarantine_evicted` | oldest quarantined entries removed to keep `quarantine/` within its cap |
//! | `cache.tmp_swept` | orphaned temp files from torn writes removed by the open-time sweep |
//! | `kernel.flops{kernel=<name>}` | scalar floating-point operations performed by the named kernel (`spgemm`, `spmv`, `kmeans.assign`); `spmv`, the pattern product the Lanczos operator runs, counts one add per nonzero |
//! | `kernel.bytes{kernel=<name>}` | estimated bytes moved (operand reads + output writes) by the named kernel; `spmv` counts 16 per nonzero (column index and gathered `x`; the pattern product reads no values) plus 8 per row written |
//! | `par.region.wall_ns{region=<name>}` | accumulated wall time of the named parallel region across invocations (`bootes-par`) |
//! | `par.region.busy_ns{region=<name>}` | accumulated worker busy time of the named region (sum over chunks) |
//! | `par.region.invocations` | parallel region invocations that recorded attribution |
//! | `par.pool.spawned` | worker threads spawned by the persistent `bootes-par` pool (lifetime total) |
//! | `par.pool.dispatches` | worker-slot jobs dispatched to the pool (one per worker per region invocation) |
//! | `spgemm.acc_choice{acc=dense}` / `{acc=hash}` / `{acc=merge}` | rows `spgemm` routed to each accumulator variant (`bootes-sparse`) |
//! | `serve.accepted_conns` | connections accepted by the `bootes serve` daemon |
//! | `serve.accept.dropped` | connections dropped by the `serve.accept` failpoint |
//! | `serve.accepted` | work requests admitted to wait for one of the daemon's execution slots |
//! | `serve.completed` | work requests fully executed (response sent) |
//! | `serve.rejected.admission` | requests rejected by per-tenant admission control |
//! | `serve.rejected.queue_full` | requests rejected because `--queue-cap` requests already waited for a slot |
//! | `serve.rejected.draining` | requests rejected because the daemon was draining |
//! | `serve.coalesce.hits` | requests served by singleflight-coalescing onto an identical in-flight computation |
//! | `serve.cache.hits` | daemon requests whose leader was answered from the artifact cache |
//! | `serve.tenant.bytes{tenant=<name>}` | payload bytes admitted per tenant (admission accounting) |
//! | `serve.deadline.rejected` | requests whose `deadline_ms` expired in-queue (typed reject, never executed) |
//! | `serve.deadline.exceeded` | requests that executed but finished past their deadline (full answer, flagged) |
//! | `serve.client.retries` | retrying-client attempts repeated after a hinted rejection (`retry_after_ms`) |
//! | `serve.client.reconnects` | retrying-client reconnects after a transport failure |
//! | `drift.donor_hits` | exact-miss lookups that found a usable donor permutation (`bootes-drift`) |
//! | `drift.resplices` | donor permutations patched incrementally instead of recomputed |
//! | `drift.fallbacks` | donor candidates abandoned for a full recompute (threshold exceeded or resplice failed) |
//! | `chaos.runs` | chaos schedules executed by `bootes chaos` (including shrink reruns) |
//! | `chaos.violations` | invariant violations found across a chaos batch |
//! | `chaos.shrink_reruns` | subprocess reruns spent minimizing failing schedules |
//!
//! The `kernel.*` counters pair with `par.region.wall_ns` under the same
//! name to yield achieved MFLOP/s and GB/s per kernel (see
//! `bootes_perf::kernel_rates`).
//!
//! Gauges:
//!
//! | gauge | meaning |
//! |-------|---------|
//! | `lanczos.residual` | worst converged-pair residual of the last solve |
//! | `kmeans.inertia` | best inertia of the last k-means call |
//! | `pe.utilization` | busy/critical-path ratio of the last simulation |
//! | `cache.bytes` | current byte footprint of the in-memory artifact cache |
//! | `par.region.imbalance{region=<name>}` | max/mean worker busy time of the last invocation of the named parallel region (1.0 = perfectly balanced) |
//! | `par.region.utilization{region=<name>}` | Σ busy / (workers × wall) of the last invocation of the named region |
//! | `serve.queue.depth` | admitted `bootes serve` requests now waiting for an execution slot |
//!
//! Histograms (log2 buckets):
//!
//! | histogram | meaning |
//! |-----------|---------|
//! | `accel.pe_cycles` | per-PE cycle totals of the last simulation |
//! | `spgemm.row_nnz` | output-row nonzero counts seen by sparse kernels |
//! | `par.region.chunks_per_worker{region=<name>}` | chunks each worker completed per invocation of the named region |
//! | `serve.queue.wait_ns` | per-request wait from admission to an execution slot (`bootes serve`) |
//! | `serve.exec_ns` | per-request execution time in a daemon execution slot |

mod export;
mod profile;
mod registry;
mod span;

pub use export::{export_chrome_trace, export_json, fmt_ns, render_table};
pub use profile::{
    snapshot, BucketEntry, CounterEntry, GaugeEntry, HistogramEntry, Profile, ProfileMeta,
    SpanNode, PROFILE_FORMAT_VERSION,
};
pub use registry::{
    counter_add, epoch_ns, gauge_set, histogram_record, pin_worker_tid, record_worker_chunk, reset,
    worker_chunks, ChunkRecord,
};
pub use span::{SpanGuard, TimedScope};

use std::sync::atomic::Ordering;

/// Returns whether profiling is currently enabled.
#[inline]
pub fn enabled() -> bool {
    registry::ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off process-wide.
pub fn set_enabled(on: bool) {
    registry::ENABLED.store(on, Ordering::Relaxed);
}

/// Returns whether per-chunk timeline recording is active: profiling must be
/// enabled *and* the timeline switch set. Parallel regions only pay the
/// per-chunk clock reads and [`ChunkRecord`] pushes when this returns true;
/// with profiling on but the timeline off they record aggregate
/// `par.region.*` metrics from one timing per worker instead.
#[inline]
pub fn chunk_timeline() -> bool {
    enabled() && registry::CHUNK_TIMELINE.load(Ordering::Relaxed)
}

/// Turns per-chunk timeline recording on or off. The CLI enables it for
/// `--trace-out` (the Chrome trace's per-worker lanes are built from chunk
/// events); plain `--profile` runs leave it off.
pub fn set_chunk_timeline(on: bool) {
    registry::CHUNK_TIMELINE.store(on, Ordering::Relaxed);
}

/// Enables profiling when `BOOTES_PROFILE` is set to `1` or `true`.
/// Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("BOOTES_PROFILE") {
        if v == "1" || v.eq_ignore_ascii_case("true") {
            set_enabled(true);
        }
    }
    enabled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global, so tests that mutate it serialize
    /// through this lock (and restore the disabled state on exit).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_profiling<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    fn find<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
        nodes.iter().find(|n| n.name == name)
    }

    #[test]
    fn nested_scopes_build_a_span_tree() {
        let profile = with_profiling(|| {
            {
                let _outer = span!("outer");
                for _ in 0..3 {
                    let _inner = span!("inner");
                }
            }
            {
                let _solo = span!("solo");
            }
            snapshot()
        });
        let outer = find(&profile.spans, "outer").expect("outer span recorded");
        assert_eq!(outer.count, 1);
        let inner = find(&outer.children, "inner").expect("inner nested under outer");
        assert_eq!(inner.count, 3);
        assert!(
            inner.total_ns <= outer.total_ns,
            "children fit inside parent"
        );
        let solo = find(&profile.spans, "solo").expect("solo is a root span");
        assert!(solo.children.is_empty());
        assert_eq!(profile.meta.span_events, 5);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        {
            let _g = span!("ghost");
            counter_add("ghost.counter", 7);
            gauge_set("ghost.gauge", 1.0);
            histogram_record("ghost.hist", 3);
        }
        let profile = snapshot();
        assert!(profile.spans.is_empty());
        assert!(profile.counters.is_empty());
        assert!(profile.gauges.is_empty());
        assert!(profile.histograms.is_empty());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let profile = with_profiling(|| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    std::thread::spawn(move || {
                        for _ in 0..100 {
                            counter_add("threads.work", 1);
                        }
                        counter_add(&format!("threads.t{i}"), i + 1)
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            snapshot()
        });
        let work = profile
            .counters
            .iter()
            .find(|c| c.name == "threads.work")
            .expect("shared counter present");
        assert_eq!(work.value, 400);
        for i in 0..4u64 {
            let c = profile
                .counters
                .iter()
                .find(|c| c.name == format!("threads.t{i}"))
                .expect("per-thread counter present");
            assert_eq!(c.value, i + 1);
        }
    }

    #[test]
    fn spans_on_other_threads_keep_their_own_stack() {
        let profile = with_profiling(|| {
            {
                let _outer = span!("main_thread");
                std::thread::spawn(|| {
                    let _w = span!("worker");
                })
                .join()
                .unwrap();
            }
            snapshot()
        });
        // The worker span must be a root, not a child of main_thread.
        assert!(find(&profile.spans, "worker").is_some());
        let main = find(&profile.spans, "main_thread").unwrap();
        assert!(find(&main.children, "worker").is_none());
    }

    #[test]
    fn profile_round_trips_through_json() {
        let profile = with_profiling(|| {
            {
                let _a = span!("stage.a");
                let _b = span!("stage.b");
            }
            counter_add("c.events", 42);
            gauge_set("g.ratio", 0.25);
            histogram_record("h.sizes", 0);
            histogram_record("h.sizes", 9);
            histogram_record("h.sizes", 1024);
            snapshot()
        });
        let json = export_json(&profile);
        let back: Profile = serde_json::from_str(&json).expect("profile parses");
        assert_eq!(back, profile);
        assert_eq!(back.meta.format_version, PROFILE_FORMAT_VERSION);
        let hist = &back.histograms[0];
        assert_eq!(hist.count, 3);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, 1024);
        assert_eq!(hist.buckets.iter().map(|b| b.count).sum::<u64>(), 3);
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let trace = with_profiling(|| {
            {
                let _a = span!("trace.outer");
                let _b = span!("trace.inner");
            }
            export_chrome_trace()
        });
        let v: serde::Value = serde_json::from_str(&trace).expect("trace parses");
        let events = v
            .get("traceEvents")
            .and_then(serde::Value::as_array)
            .expect("traceEvents array");
        let (meta, complete): (Vec<_>, Vec<_>) = events
            .iter()
            .partition(|e| e.get("ph").and_then(serde::Value::as_str) == Some("M"));
        assert_eq!(complete.len(), 2);
        for e in complete {
            assert_eq!(e.get("ph").and_then(serde::Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(serde::Value::as_f64).is_some());
            assert!(e.get("dur").and_then(serde::Value::as_f64).is_some());
            assert!(e.get("name").and_then(serde::Value::as_str).is_some());
        }
        // process_name plus one thread_name per tid (both spans ran on the
        // recording thread).
        assert_eq!(meta.len(), 2);
        assert!(meta
            .iter()
            .any(|e| e.get("name").and_then(serde::Value::as_str) == Some("process_name")));
        assert!(meta
            .iter()
            .any(|e| e.get("name").and_then(serde::Value::as_str) == Some("thread_name")));
    }

    #[test]
    fn worker_chunks_get_labeled_stable_lanes() {
        let trace = with_profiling(|| {
            set_chunk_timeline(true);
            std::thread::scope(|scope| {
                for slot in 0..2usize {
                    scope.spawn(move || {
                        let tid = pin_worker_tid(slot);
                        assert_eq!(tid, 10_000 + slot as u64);
                        let start = epoch_ns();
                        record_worker_chunk("test.region", slot, slot..slot + 4, 4, start, 1000);
                    });
                }
            });
            assert_eq!(worker_chunks().len(), 2);
            let trace = export_chrome_trace();
            set_chunk_timeline(false);
            trace
        });
        let v: serde::Value = serde_json::from_str(&trace).expect("trace parses");
        let events = v
            .get("traceEvents")
            .and_then(serde::Value::as_array)
            .expect("traceEvents array");
        // Both worker lanes are named via thread_name metadata...
        for slot in 0..2u64 {
            let name = format!("worker-{slot}");
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(serde::Value::as_str) == Some("M")
                        && e.get("tid").and_then(serde::Value::as_u64) == Some(10_000 + slot)
                        && e.get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(serde::Value::as_str)
                            == Some(name.as_str())
                }),
                "missing thread_name for {name}"
            );
        }
        // ...and the chunk events landed in those lanes with their args.
        let chunk_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(serde::Value::as_str) == Some("bootes.par"))
            .collect();
        assert_eq!(chunk_events.len(), 2);
        for e in chunk_events {
            assert!(e.get("tid").and_then(serde::Value::as_u64).unwrap() >= 10_000);
            let args = e.get("args").expect("chunk args");
            assert!(args.get("chunk").is_some());
            assert!(args.get("range").is_some());
            assert!(args.get("weight").is_some());
        }
    }

    #[test]
    fn disabled_chunk_recording_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        // Disabled profiling is inert even with the timeline switch set...
        set_enabled(false);
        set_chunk_timeline(true);
        record_worker_chunk("ghost.region", 0, 0..8, 8, 0, 100);
        assert!(worker_chunks().is_empty());
        // ...and enabled profiling without the timeline switch is too.
        set_enabled(true);
        set_chunk_timeline(false);
        record_worker_chunk("ghost.region", 0, 0..8, 8, 0, 100);
        assert!(worker_chunks().is_empty());
        set_enabled(false);
    }

    #[test]
    fn timed_scope_measures_even_when_disabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        let scope = TimedScope::start("always.timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(scope.elapsed() >= std::time::Duration::from_millis(1));
        drop(scope);
        assert!(snapshot().spans.is_empty(), "no span while disabled");
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(812), "812ns");
        assert!(fmt_ns(4_310).contains("µs"));
        assert!(fmt_ns(12_500_000).contains("ms"));
        assert!(fmt_ns(3_000_000_000).ends_with('s'));
    }

    /// The non-test Rust source of every workspace crate, comment lines
    /// dropped: each file is cut at its first `#[cfg(test)]`.
    fn non_test_source() -> String {
        fn walk(dir: &std::path::Path, out: &mut String) {
            let mut entries: Vec<_> = std::fs::read_dir(dir)
                .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
                .map(|e| e.expect("directory entry").path())
                .collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    let text = std::fs::read_to_string(&path).expect("source file");
                    for line in text.lines() {
                        if line.trim() == "#[cfg(test)]" {
                            break;
                        }
                        if !line.trim_start().starts_with("//") {
                            out.push_str(line);
                            out.push('\n');
                        }
                    }
                }
            }
        }
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates directory");
        let mut out = String::new();
        for entry in std::fs::read_dir(crates).expect("crates directory") {
            let src = entry.expect("crate entry").path().join("src");
            if src.is_dir() {
                walk(&src, &mut out);
            }
        }
        let root = crates.parent().expect("workspace root");
        walk(&root.join("src"), &mut out);
        out
    }

    /// Every span, counter, gauge and histogram the module-level catalog
    /// lists is recorded somewhere: it appears as a string literal in some
    /// crate's non-test source. A name is compared up to its first `{` or
    /// `<`, where a label or a placeholder begins; a name without either
    /// must appear as a whole literal.
    #[test]
    fn catalog_names_appear_in_non_test_source() {
        let source = non_test_source();
        let mut names = Vec::new();
        for row in include_str!("lib.rs").lines() {
            let Some(cells) = row.strip_prefix("//! | `") else {
                continue;
            };
            let first = cells.split(" |").next().expect("first cell");
            for name in first.split(" / ") {
                let name = name.trim().trim_matches('`');
                // `{acc=hash}` after `spgemm.acc_choice{acc=dense}` is the
                // same name with another label.
                if !name.starts_with('{') {
                    names.push(name.to_string());
                }
            }
        }
        assert!(names.len() > 50, "catalog rows parsed: {names:?}");
        let missing: Vec<&String> = names
            .iter()
            .filter(|name| {
                let needle = match name.find(['{', '<']) {
                    Some(cut) => format!("\"{}", &name[..cut]),
                    None => format!("\"{name}\""),
                };
                !source.contains(&needle)
            })
            .collect();
        assert!(
            missing.is_empty(),
            "catalog names no non-test source records: {missing:?}"
        );
    }
}

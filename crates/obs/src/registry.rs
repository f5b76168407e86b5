//! Global metric and span storage behind the enabled gate.
//!
//! All state lives in one process-wide [`Registry`] guarded by coarse
//! mutexes. Hot paths (counter bumps, span entry) check the
//! [`ENABLED`](crate::enabled) flag with a relaxed atomic load before
//! touching any lock, so a disabled build pays one branch per call site.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Process-wide profiling switch. Relaxed ordering is sufficient: the flag
/// only gates whether events are recorded, never synchronizes data.
pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);

/// Per-chunk timeline switch, off by default even while profiling is
/// enabled: individual [`ChunkRecord`] events (two clock reads + a global
/// mutex push per chunk) are only worth paying for when a Chrome trace
/// export was requested. Aggregate `par.region.*` metrics do not need it.
pub(crate) static CHUNK_TIMELINE: AtomicBool = AtomicBool::new(false);

/// Spans recorded beyond this cap are counted but not stored, bounding
/// memory on pathological workloads (e.g. per-row spans on huge matrices).
pub(crate) const MAX_SPAN_RECORDS: usize = 1 << 18;

/// Worker-chunk records beyond this cap are counted but not stored.
pub(crate) const MAX_CHUNK_RECORDS: usize = 1 << 17;

/// Base of the stable trace-thread-id range reserved for parallel workers.
/// Dense ids handed out to ordinary threads start at 0 and never reach this.
pub(crate) const WORKER_TID_BASE: u64 = 10_000;

/// One completed span occurrence (the raw event, pre-aggregation).
#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    /// Full slash-joined path from the thread's span-stack root,
    /// e.g. `"pipeline.preprocess/spectral.lanczos/lanczos.restart"`.
    pub path: String,
    /// Offset of the span start from the profile epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the recording thread (for trace export).
    pub tid: u64,
}

/// One chunk of a parallel region executed by one worker: the raw event
/// behind per-worker attribution (trace lanes and imbalance metrics).
#[derive(Debug, Clone)]
pub struct ChunkRecord {
    /// Region name, e.g. `"spmv"`.
    pub region: String,
    /// Stable trace thread id of the worker that ran the chunk
    /// (see [`crate::pin_worker_tid`]).
    pub tid: u64,
    /// Chunk index within the region's range list.
    pub chunk: usize,
    /// Global index range the chunk covered.
    pub range: Range<usize>,
    /// Work weight of the chunk (item count unless the caller knows better).
    pub weight: u64,
    /// Offset of the chunk start from the profile epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
}

/// Power-of-two-bucket histogram: bucket `i` counts values `v` with
/// `floor(log2(v)) == i` (value 0 goes to bucket 0).
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    pub buckets: [u64; 64],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

#[derive(Default)]
pub(crate) struct Registry {
    pub spans: Mutex<Vec<SpanRecord>>,
    pub dropped_spans: AtomicU64,
    pub chunks: Mutex<Vec<ChunkRecord>>,
    pub dropped_chunks: AtomicU64,
    pub counters: Mutex<HashMap<String, u64>>,
    pub gauges: Mutex<HashMap<String, f64>>,
    pub histograms: Mutex<HashMap<String, Histogram>>,
    pub thread_ids: Mutex<HashMap<ThreadId, u64>>,
    /// Human names for trace thread ids (worker lanes, pinned explicitly).
    pub thread_names: Mutex<HashMap<u64, String>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

pub(crate) fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// Instant all span offsets are measured from. First use pins it.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the profile epoch — the time base of every
/// span/chunk `start_ns`. Callers that record their own timeline events
/// (e.g. `bootes-par` chunk attribution) read their start offsets here.
pub fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Stable trace-tid override for parallel workers (set by
    /// [`pin_worker_tid`]; dies with the scoped worker thread).
    static TID_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Dense per-thread id used as `tid` in trace export, unless the thread
/// pinned a stable worker id with [`pin_worker_tid`].
pub(crate) fn thread_tid() -> u64 {
    if let Some(tid) = TID_OVERRIDE.with(Cell::get) {
        return tid;
    }
    let reg = registry();
    let mut map = reg.thread_ids.lock().unwrap();
    let next = map.len() as u64;
    *map.entry(std::thread::current().id()).or_insert(next)
}

/// Pins the calling thread to the stable trace thread id of worker `slot`
/// and registers its `worker-<slot>` lane name, so every span and chunk this
/// thread records lands in the same labeled Perfetto lane regardless of how
/// many scoped threads the process has spawned before. Returns the tid.
///
/// The pin is thread-local: it ends when the (scoped) worker thread exits.
/// Cheap enough to call unconditionally; the name registration is skipped
/// while profiling is disabled.
pub fn pin_worker_tid(slot: usize) -> u64 {
    let tid = WORKER_TID_BASE + slot as u64;
    TID_OVERRIDE.with(|c| c.set(Some(tid)));
    if crate::enabled() {
        registry()
            .thread_names
            .lock()
            .unwrap()
            .entry(tid)
            .or_insert_with(|| format!("worker-{slot}"));
    }
    tid
}

/// Records one worker chunk of a parallel region (worker lane attribution).
/// The recording thread's tid is captured automatically. No-op unless the
/// chunk timeline is enabled ([`crate::chunk_timeline`]).
pub fn record_worker_chunk(
    region: &str,
    chunk: usize,
    range: Range<usize>,
    weight: u64,
    start_ns: u64,
    dur_ns: u64,
) {
    if !crate::chunk_timeline() {
        return;
    }
    let reg = registry();
    let tid = thread_tid();
    // Persistent pool workers pin their tid once at spawn, possibly before
    // profiling was enabled (and `reset` clears lane names between runs), so
    // the lane name is (re-)registered at record time.
    if tid >= WORKER_TID_BASE {
        let slot = tid - WORKER_TID_BASE;
        reg.thread_names
            .lock()
            .unwrap()
            .entry(tid)
            .or_insert_with(|| format!("worker-{slot}"));
    }
    let mut chunks = reg.chunks.lock().unwrap();
    if chunks.len() >= MAX_CHUNK_RECORDS {
        reg.dropped_chunks.fetch_add(1, Ordering::Relaxed);
        return;
    }
    chunks.push(ChunkRecord {
        region: region.to_string(),
        tid,
        chunk,
        range,
        weight,
        start_ns,
        dur_ns,
    });
}

/// Snapshot of the raw worker-chunk records (used by the trace exporter and
/// by tests; aggregate metrics are derived at record time by `bootes-par`).
pub fn worker_chunks() -> Vec<ChunkRecord> {
    registry().chunks.lock().unwrap().clone()
}

pub(crate) fn record_span(record: SpanRecord) {
    let reg = registry();
    let mut spans = reg.spans.lock().unwrap();
    if spans.len() >= MAX_SPAN_RECORDS {
        reg.dropped_spans.fetch_add(1, Ordering::Relaxed);
        return;
    }
    spans.push(record);
}

/// Adds `delta` to the named monotonic counter. No-op while disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    let mut counters = registry().counters.lock().unwrap();
    match counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            counters.insert(name.to_string(), delta);
        }
    }
}

/// Sets the named gauge to `value` (last write wins). No-op while disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut gauges = registry().gauges.lock().unwrap();
    gauges.insert(name.to_string(), value);
}

/// Records one observation into the named log2-bucket histogram.
/// No-op while disabled.
pub fn histogram_record(name: &str, value: u64) {
    if !crate::enabled() {
        return;
    }
    let mut hists = registry().histograms.lock().unwrap();
    hists
        .entry(name.to_string())
        .or_insert_with(Histogram::new)
        .record(value);
}

/// Clears all recorded spans and metrics (the enabled flag is untouched).
/// Intended for tests and for the CLI before starting a profiled run.
pub fn reset() {
    let reg = registry();
    reg.spans.lock().unwrap().clear();
    reg.dropped_spans.store(0, Ordering::Relaxed);
    reg.chunks.lock().unwrap().clear();
    reg.dropped_chunks.store(0, Ordering::Relaxed);
    reg.counters.lock().unwrap().clear();
    reg.gauges.lock().unwrap().clear();
    reg.histograms.lock().unwrap().clear();
    reg.thread_names.lock().unwrap().clear();
}

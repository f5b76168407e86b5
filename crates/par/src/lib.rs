#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Deterministic multi-threading primitives for the Bootes kernels.
//!
//! The vendored dependency stand-ins provide no rayon, so this crate builds
//! the little that the workspace needs directly on the standard library:
//!
//! - a process-wide thread-count policy ([`threads`]) resolved from
//!   [`set_threads`] (the CLI's `--threads N`), the `BOOTES_THREADS`
//!   environment variable, or [`std::thread::available_parallelism`] — and
//!   always clamped to the hardware ([`threads_clamped`] reports when the
//!   request exceeded it, so benchmarks can refuse to compare oversubscribed
//!   runs),
//! - a lazily-initialized **persistent worker pool** ([`pool`]) of parked
//!   threads on plain channels that every combinator routes through, so a
//!   caller issuing thousands of small regions (one SpMV per Lanczos
//!   iteration) pays a channel send per region instead of a thread
//!   spawn + join,
//! - a weighted contiguous range partitioner ([`partition_weighted`]) that
//!   balances nnz/flop work across chunks, plus [`chunk_count`] for the
//!   standard oversubscription factor fed to it,
//! - ordered-merge parallel combinators ([`map_ranges`], [`map_indices`],
//!   [`for_each_chunk_mut`]) whose results are stitched back in chunk order.
//!
//! # Determinism
//!
//! Every combinator here is *bit-deterministic*: chunk results are collected
//! by chunk index and merged in chunk order, never in completion order, so a
//! caller that computes independent per-row (or per-chunk) results observes
//! output identical to a serial loop regardless of the thread count or OS
//! scheduling. Callers are responsible for keeping any cross-chunk reduction
//! order-canonical (e.g. summing partial floating-point results in chunk
//! order, or deferring the reduction to a serial pass in index order).
//!
//! Workers claim chunks dynamically (an atomic counter), so *which* worker
//! runs a chunk is scheduling-dependent — but chunk results themselves are
//! pure functions of `(chunk_index, range)`, and the merge ignores worker
//! identity entirely.
//!
//! # Nested regions
//!
//! A parallel region started *from* a pool worker (e.g. the per-`k`
//! `label.sweep` sweep, whose candidates each run parallel kernels) runs
//! inline on that worker instead of re-entering the pool — dispatching to
//! the pool from inside it could deadlock, and outer-level parallelism
//! already owns the cores.
//!
//! # Per-worker attribution
//!
//! [`map_ranges`], [`map_indices`] and [`for_each_chunk_mut`] take a
//! **region name** (conventionally the kernel's span name, e.g. `"kmeans.run"`).
//! While profiling is enabled, each invocation aggregates:
//!
//! - `par.region.imbalance{region=<name>}` — max/mean worker busy time,
//! - `par.region.utilization{region=<name>}` — Σ busy / (workers × wall),
//! - `par.region.wall_ns` / `par.region.busy_ns{region=<name>}` counters,
//! - a `par.region.chunks_per_worker{region=<name>}` histogram.
//!
//! Per-chunk timeline events (worker lane, chunk index, row range, weight,
//! wall-ns — the Chrome-trace worker lanes) are gated separately behind
//! `bootes_obs::chunk_timeline()`, which the CLI enables for `--trace-out`:
//! with profiling on but the timeline off, workers time their whole loop
//! once instead of every chunk, and no `ChunkRecord` is pushed. With
//! profiling disabled the attribution path costs one relaxed atomic load per
//! region — no clock reads, no allocation.
//!
//! # Panic isolation
//!
//! Every chunk closure runs inside [`std::panic::catch_unwind`] and hits the
//! `par.worker` guard failpoint first. All three combinators return a
//! panicking or fault-injected chunk as a typed [`GuardError`] instead of
//! aborting the process; callers map it into their own error type. The one
//! caller without an error channel, the SpMV behind the Lanczos operator,
//! re-raises it as a panic, which the fallback chain in `bootes-core` catches
//! at the rung boundary. When multiple chunks fail, the error reported is the
//! failing chunk with the lowest index, keeping the observed failure
//! deterministic.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use bootes_guard::GuardError;

pub mod pool;

/// Explicitly configured thread count; `0` means "not set, use the default".
static EXPLICIT: AtomicUsize = AtomicUsize::new(0);
/// Lazily resolved default (`BOOTES_THREADS` env, else available parallelism).
static DEFAULT: OnceLock<usize> = OnceLock::new();

/// Number of hardware threads available to this process (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Overrides the global thread count used by [`threads`].
///
/// `0` clears the override, falling back to `BOOTES_THREADS` or the
/// available parallelism. The CLI wires `--threads N` here.
pub fn set_threads(n: usize) {
    EXPLICIT.store(n, Ordering::Relaxed);
}

/// The thread count the user asked for, before hardware clamping: an
/// explicit [`set_threads`] value if one was set, else `BOOTES_THREADS` from
/// the environment (read once), else [`available`] parallelism.
pub fn requested_threads() -> usize {
    match EXPLICIT.load(Ordering::Relaxed) {
        0 => *DEFAULT.get_or_init(|| {
            std::env::var("BOOTES_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(available)
        }),
        n => n,
    }
}

/// The effective thread count kernels should use: [`requested_threads`]
/// clamped to [`available`] parallelism.
///
/// Running more compute-bound workers than hardware threads only adds
/// scheduler thrash (the pre-clamp 8-thread sweeps showed ~95 ms MAD from
/// oversubscription), so requests beyond the hardware are capped here, at
/// the single policy choke point. [`threads_clamped`] reports when the cap
/// engaged so benchmark records can refuse cross-machine comparisons.
pub fn threads() -> usize {
    requested_threads().min(available())
}

/// Whether [`threads`] is currently clamping a request that exceeds the
/// hardware ([`requested_threads`] > [`available`]).
pub fn threads_clamped() -> bool {
    requested_threads() > available()
}

/// The standard chunk-count for dynamically-claimed regions: a small
/// multiple of the worker count, so stragglers can be rebalanced without
/// letting per-chunk overhead (claim + merge bookkeeping, and timeline
/// records when tracing) grow unbounded. `1` when the region is serial.
pub fn chunk_count(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 4).min(512)
    }
}

fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Splits `0..n` into at most `parts` contiguous ranges of approximately
/// equal total weight.
///
/// `weight(i)` is the cost of item `i` (e.g. a row's nnz or flops) and is
/// evaluated twice per item (total pass + assignment pass) instead of being
/// materialized. Weights are **not** padded: a run of zero-weight items
/// (empty rows) carries no cost and attracts no partition boundary — it
/// rides along with the nearest weighted work. When every item has zero
/// weight the split degenerates to [`partition_even`]. The returned ranges
/// are non-empty, in order, and cover `0..n` exactly; fewer than `parts`
/// ranges are returned when `n < parts` or when heavy head items exhaust the
/// weight early.
pub fn partition_weighted(
    n: usize,
    parts: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    if n == 0 {
        return Vec::new();
    }
    if parts == 1 {
        // One chunk spanning all rows (not a 0..n index list).
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..n];
    }
    let total: u64 = (0..n).map(&weight).sum();
    if total == 0 {
        return even_ranges(n, parts);
    }
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut done = 0u64;
    for i in 0..n {
        acc += weight(i);
        // Close the chunk once it holds an even share of the remaining work
        // (at least 1, so zero-weight runs never force empty shares),
        // leaving at least one part for the tail.
        let share = (total - done)
            .div_ceil((parts - ranges.len()) as u64)
            .max(1);
        if acc >= share && ranges.len() + 1 < parts {
            ranges.push(start..i + 1);
            start = i + 1;
            done += acc;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal length.
pub fn partition_even(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    if n == 0 {
        return Vec::new();
    }
    even_ranges(n, parts)
}

/// Per-worker attribution tally for one parallel region invocation.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    busy_ns: u64,
    chunks: u64,
}

/// Runs `f` behind the `par.worker` failpoint and a panic isolation
/// boundary, converting both failure modes to [`GuardError`]. Every chunk of
/// every region runs through here.
fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, GuardError> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        bootes_guard::fail_point("par.worker")?;
        Ok(f())
    }))
    .unwrap_or_else(|payload| {
        Err(GuardError::Panic {
            site: "par.worker".to_string(),
            message: bootes_guard::panic_message(payload.as_ref()),
        })
    })
}

/// One chunk of a region, [`isolated`], with optional per-chunk timeline
/// attribution: when `timeline` is set the chunk is timed, recorded as a
/// worker-chunk event in the calling thread's lane, and its duration tallied
/// into `stats`. With the timeline off only the chunk count is tallied (no
/// clock reads) — the caller then charges `stats.busy_ns` once from its
/// whole claim loop.
fn run_chunk<R>(
    region: &str,
    timeline: bool,
    i: usize,
    range: Range<usize>,
    f: &(impl Fn(usize, Range<usize>) -> R + Sync),
    stats: &mut WorkerStats,
) -> Result<R, GuardError> {
    stats.chunks += 1;
    if !timeline {
        return isolated(|| f(i, range));
    }
    let start_ns = bootes_obs::epoch_ns();
    let started = Instant::now();
    let weight = range.len() as u64;
    let recorded = range.clone();
    let res = isolated(|| f(i, range));
    let dur_ns = started.elapsed().as_nanos() as u64;
    stats.busy_ns += dur_ns;
    bootes_obs::record_worker_chunk(region, i, recorded, weight, start_ns, dur_ns);
    res
}

/// Publishes one region invocation's aggregate attribution metrics:
/// imbalance (max/mean busy), utilization (Σ busy / workers × wall), wall
/// and busy time counters, and the chunks-per-worker histogram.
fn record_region(region: &str, wall_ns: u64, workers: &[WorkerStats]) {
    if !bootes_obs::enabled() || workers.is_empty() {
        return;
    }
    let total: u64 = workers.iter().map(|w| w.busy_ns).sum();
    let max = workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
    let mean = total as f64 / workers.len() as f64;
    let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    let utilization = if wall_ns > 0 {
        total as f64 / (workers.len() as f64 * wall_ns as f64)
    } else {
        0.0
    };
    bootes_obs::gauge_set(
        &format!("par.region.imbalance{{region={region}}}"),
        imbalance,
    );
    bootes_obs::gauge_set(
        &format!("par.region.utilization{{region={region}}}"),
        utilization,
    );
    bootes_obs::counter_add(&format!("par.region.wall_ns{{region={region}}}"), wall_ns);
    bootes_obs::counter_add(&format!("par.region.busy_ns{{region={region}}}"), total);
    bootes_obs::counter_add("par.region.invocations", 1);
    for w in workers {
        bootes_obs::histogram_record(
            &format!("par.region.chunks_per_worker{{region={region}}}"),
            w.chunks,
        );
    }
}

/// Applies `f` to every range on up to `threads` pool workers and returns
/// the results **in range order** (the ordered merge), or the lowest-index
/// failing chunk's [`GuardError`] if a chunk panicked or an armed
/// `par.worker` failpoint fired.
///
/// `f(chunk_index, range)` must be a pure function of its arguments for the
/// determinism guarantee to carry through to the caller. With `threads <= 1`,
/// a single range, or when called from inside a pool worker (nested region),
/// the closure runs inline on the calling thread (and stops at the first
/// failing chunk instead of attempting the rest).
///
/// The invocation is attributed to `region` (use the kernel's span name):
/// while profiling is enabled it records the `par.region.*`
/// imbalance/utilization metrics under that name, and when the chunk
/// timeline is also on each chunk lands in its worker's Perfetto lane.
pub fn map_ranges<R, F>(
    region: &str,
    threads: usize,
    ranges: &[Range<usize>],
    f: F,
) -> Result<Vec<R>, GuardError>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let profiled = bootes_obs::enabled();
    let timeline = bootes_obs::chunk_timeline();
    let region_start = profiled.then(Instant::now);
    let workers = threads.min(ranges.len());
    if workers <= 1 || pool::in_worker() {
        let mut stats = WorkerStats::default();
        let results: Result<Vec<R>, GuardError> = ranges
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| run_chunk(region, timeline, i, r, &f, &mut stats))
            .collect();
        if let Some(start) = region_start {
            let wall_ns = start.elapsed().as_nanos() as u64;
            if !timeline {
                stats.busy_ns = wall_ns;
            }
            record_region(region, wall_ns, &[stats]);
        }
        return results;
    }
    let next = AtomicUsize::new(0);
    type SlotOutput<R> = Option<(Vec<(usize, Result<R, GuardError>)>, WorkerStats)>;
    let cells: Vec<Mutex<SlotOutput<R>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    {
        let slot_body = |slot: usize| {
            let _span = bootes_obs::span!("par.worker");
            let mut produced: Vec<(usize, Result<R, GuardError>)> = Vec::new();
            let mut stats = WorkerStats::default();
            let loop_start = profiled.then(Instant::now);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ranges.len() {
                    break;
                }
                produced.push((
                    i,
                    run_chunk(region, timeline, i, ranges[i].clone(), &f, &mut stats),
                ));
            }
            if let Some(start) = loop_start {
                if !timeline {
                    stats.busy_ns = start.elapsed().as_nanos() as u64;
                }
            }
            *cells[slot].lock().unwrap_or_else(|p| p.into_inner()) = Some((produced, stats));
        };
        pool::run(workers, &slot_body);
    }
    let mut out: Vec<Option<Result<R, GuardError>>> = Vec::with_capacity(ranges.len());
    out.resize_with(ranges.len(), || None);
    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
    for cell in cells {
        if let Some((produced, stats)) = cell.into_inner().unwrap_or_else(|p| p.into_inner()) {
            worker_stats.push(stats);
            for (i, r) in produced {
                out[i] = Some(r);
            }
        }
    }
    if let Some(start) = region_start {
        record_region(region, start.elapsed().as_nanos() as u64, &worker_stats);
    }
    let mut results = Vec::with_capacity(ranges.len());
    for (i, slot) in out.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => results.push(r),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(GuardError::Panic {
                    site: "par.worker".to_string(),
                    message: format!("chunk {i} produced no result"),
                })
            }
        }
    }
    Ok(results)
}

/// Applies `f` to every index in `0..n` on up to `threads` pool workers,
/// returning results in index order, or the lowest failing index's
/// [`GuardError`]: [`map_ranges`] over one-element ranges, for
/// coarse-grained tasks (e.g. independent k-means restarts) attributed to
/// `region`.
pub fn map_indices<R, F>(region: &str, threads: usize, n: usize, f: F) -> Result<Vec<R>, GuardError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges: Vec<Range<usize>> = (0..n).map(|i| i..i + 1).collect();
    map_ranges(region, threads, &ranges, |i, _| f(i))
}

/// Runs `f` over disjoint mutable chunks of `data` on up to `threads` pool
/// workers: [`map_ranges`] over `ranges`, with the slice pre-split so that
/// chunk `i` is handed to `f(i, range, chunk)`, attributed to `region`.
///
/// `ranges` must be contiguous, in order, and cover `0..data.len()` exactly;
/// `f` receives the chunk's global index range so it can address global
/// state (e.g. the row index of a matvec). More ranges than workers is fine
/// (and recommended — see [`chunk_count`]): workers claim the next unclaimed
/// chunk as they finish.
///
/// # Errors
///
/// A chunk that panics (or whose `par.worker` failpoint fires) yields the
/// lowest-index failing chunk's [`GuardError`]; that chunk's slice may be
/// partially written, but other chunks are unaffected and the process
/// survives.
///
/// # Panics
///
/// Panics if `ranges` does not tile `0..data.len()`.
pub fn for_each_chunk_mut<T, F>(
    region: &str,
    threads: usize,
    data: &mut [T],
    ranges: &[Range<usize>],
    f: F,
) -> Result<(), GuardError>
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let mut expected = 0usize;
    for r in ranges {
        assert_eq!(r.start, expected, "ranges must tile the slice contiguously");
        expected = r.end;
    }
    assert_eq!(expected, data.len(), "ranges must cover the whole slice");
    // Pre-split the slice so dynamically-claiming workers can each take
    // exclusive ownership of a chunk through its cell.
    let mut chunk_cells: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in ranges {
        let (chunk, tail) = rest.split_at_mut(r.len());
        rest = tail;
        chunk_cells.push(Mutex::new(Some(chunk)));
    }
    map_ranges(region, threads, ranges, |i, r| {
        let taken = chunk_cells[i]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        let Some(chunk) = taken else {
            panic!("chunk {i} claimed twice");
        };
        f(i, r, chunk);
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles(ranges: &[Range<usize>], n: usize) {
        let mut expected = 0;
        for r in ranges {
            assert_eq!(r.start, expected);
            assert!(r.end > r.start, "empty range {r:?}");
            expected = r.end;
        }
        assert_eq!(expected, n);
    }

    #[test]
    fn partition_covers_contiguously() {
        for n in [0usize, 1, 2, 7, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = partition_weighted(n, parts, |i| (i % 5) as u64);
                assert!(ranges.len() <= parts.max(1));
                assert_tiles(&ranges, n);
            }
        }
    }

    #[test]
    fn partition_respects_heavy_head() {
        // Item 0 carries almost all the weight: it must sit alone in the
        // first chunk instead of dragging half the items with it.
        let ranges = partition_weighted(4, 2, |i| if i == 0 { 1000 } else { 1 });
        assert_eq!(ranges, vec![0..1, 1..4]);
    }

    #[test]
    fn partition_ignores_empty_row_runs() {
        // 90 empty rows then 10 weighted rows: the old per-row +1 padding
        // placed most boundaries inside the empty head; now every part must
        // hold some real weight (the empty run rides along with part 0).
        let ranges = partition_weighted(100, 4, |i| if i < 90 { 0 } else { 100 });
        assert_tiles(&ranges, 100);
        for r in &ranges {
            assert!(r.end > 90, "part {r:?} holds no weighted row");
        }
        assert_eq!(ranges.len(), 4);
    }

    #[test]
    fn partition_all_zero_weights_splits_evenly() {
        let ranges = partition_weighted(12, 4, |_| 0);
        assert_tiles(&ranges, 12);
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.len() == 3), "{ranges:?}");
    }

    #[test]
    fn partition_even_balances_lengths() {
        let ranges = partition_even(10, 3);
        assert_tiles(&ranges, 10);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert!(lens.iter().all(|&l| (3..=4).contains(&l)), "{lens:?}");
    }

    #[test]
    fn chunk_count_scales_with_threads() {
        assert_eq!(chunk_count(0), 1);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(4), 16);
        assert_eq!(chunk_count(1000), 512);
    }

    /// A fault-free failpoint scope. Scopes hold a process-wide lock, so it
    /// also keeps an armed `par.worker` fault of another test out of these
    /// regions, and serializes the tests below that touch global profiling
    /// state.
    fn no_faults() -> bootes_guard::ScopedFailpoints {
        bootes_guard::ScopedFailpoints::arm("").unwrap()
    }

    #[test]
    fn map_ranges_merges_in_order() {
        let _fp = no_faults();
        let ranges = partition_even(100, 7);
        let triple = |i, r: Range<usize>| (i, r.start, r.end);
        let serial = map_ranges("test", 1, &ranges, triple).unwrap();
        for t in [2usize, 3, 16] {
            assert_eq!(map_ranges("test", t, &ranges, triple).unwrap(), serial);
        }
    }

    #[test]
    fn map_indices_is_identity_ordered() {
        let _fp = no_faults();
        let out = map_indices("test", 4, 9, |i| i * i).unwrap();
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_chunk_mut_writes_disjointly() {
        let _fp = no_faults();
        let mut data = vec![0usize; 23];
        let ranges = partition_even(data.len(), 4);
        for_each_chunk_mut("test", 4, &mut data, &ranges, |_, range, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = range.start + off;
            }
        })
        .unwrap();
        assert_eq!(data, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_chunk_mut_takes_more_chunks_than_workers() {
        // Oversubscribed chunking: 16 chunks on 3 workers.
        let _fp = no_faults();
        let mut data = vec![0usize; 64];
        let ranges = partition_even(data.len(), 16);
        assert_eq!(ranges.len(), 16);
        for_each_chunk_mut("test", 3, &mut data, &ranges, |_, range, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = range.start + off;
            }
        })
        .unwrap();
        assert_eq!(data, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "tile the slice")]
    fn for_each_chunk_mut_rejects_gaps() {
        let mut data = vec![0usize; 4];
        let _ = for_each_chunk_mut("test", 2, &mut data, &[0..1, 2..4], |_, _, _| {});
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        // An outer pool region whose chunks each start an inner region: the
        // inner ones must run inline on the pool workers instead of
        // re-entering the pool (which could deadlock).
        let _fp = no_faults();
        let ranges = partition_even(8, 4);
        let out = map_ranges("test.outer", 4, &ranges, |_, r| {
            let inner = partition_even(6, 2);
            let sums = map_ranges("test.inner", 2, &inner, |_, ir| ir.len()).unwrap();
            r.len() + sums.iter().sum::<usize>()
        })
        .unwrap();
        assert_eq!(out, vec![8, 8, 8, 8]);
    }

    #[test]
    fn explicit_thread_count_wins_and_clamps() {
        set_threads(3);
        assert_eq!(requested_threads(), 3);
        assert_eq!(threads(), 3.min(available()));
        // A request beyond the hardware is clamped and reported as such.
        set_threads(available() + 7);
        assert_eq!(requested_threads(), available() + 7);
        assert_eq!(threads(), available());
        assert!(threads_clamped());
        set_threads(0);
        assert!(threads() >= 1);
        assert!(threads() <= available());
    }

    #[test]
    fn map_ranges_converts_chunk_panic() {
        let _fp = no_faults();
        let ranges = partition_even(10, 4);
        for t in [1usize, 4] {
            let err = map_ranges("test", t, &ranges, |i, _| {
                if i == 2 {
                    panic!("boom in chunk 2");
                }
                i
            })
            .unwrap_err();
            match err {
                GuardError::Panic { site, message } => {
                    assert_eq!(site, "par.worker");
                    assert!(message.contains("boom in chunk 2"), "{message}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn map_ranges_fires_worker_failpoint() {
        let fp = bootes_guard::ScopedFailpoints::arm("par.worker=err@1").unwrap();
        let ranges = partition_even(10, 4);
        let err = map_ranges("test", 4, &ranges, |i, _| i).unwrap_err();
        assert!(matches!(err, GuardError::Injected { .. }), "{err:?}");
        drop(fp);
        let _fp = no_faults();
        assert_eq!(
            map_ranges("test", 4, &ranges, |i, _| i).unwrap(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn for_each_chunk_mut_survives_chunk_panic() {
        let _fp = no_faults();
        let mut data = vec![0usize; 16];
        let ranges = partition_even(data.len(), 4);
        let err = for_each_chunk_mut("test", 4, &mut data, &ranges, |i, range, chunk| {
            if i % 2 == 1 {
                panic!("chunk {i} dies");
            }
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = range.start + off + 1;
            }
        })
        .unwrap_err();
        // Chunks 1 and 3 both fail; the lowest index is the one reported,
        // whichever finished first.
        match err {
            GuardError::Panic { message, .. } => assert!(message.contains("chunk 1 dies")),
            other => panic!("unexpected {other:?}"),
        }
        // Chunks 0 and 2 still completed; only the failing ranges are
        // untouched.
        assert!(data[..4].iter().all(|&v| v != 0));
        assert!(data[8..12].iter().all(|&v| v != 0));
        assert!(data[4..8].iter().chain(&data[12..]).all(|&v| v == 0));
    }

    fn gauge(profile: &bootes_obs::Profile, name: &str) -> Option<f64> {
        profile
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
    }

    // Profiling state is process-global like failpoints, so attribution
    // tests serialize through a failpoint scope and restore the disabled
    // state.
    #[test]
    fn region_attribution_records_metrics_and_chunks() {
        let _fp = no_faults();
        bootes_obs::set_enabled(true);
        bootes_obs::set_chunk_timeline(true);
        bootes_obs::reset();
        let ranges = partition_even(64, 4);
        let out = map_ranges("test.attr", 4, &ranges, |_, r| {
            // Burn a little measurable time per chunk.
            let mut acc = 0u64;
            for i in r {
                acc = acc.wrapping_add((i as u64).wrapping_mul(2_654_435_761));
            }
            acc
        })
        .unwrap();
        assert_eq!(out.len(), 4);
        let profile = bootes_obs::snapshot();
        let chunks = bootes_obs::worker_chunks();
        bootes_obs::set_chunk_timeline(false);
        bootes_obs::set_enabled(false);
        bootes_obs::reset();

        let imbalance = gauge(&profile, "par.region.imbalance{region=test.attr}")
            .expect("imbalance gauge recorded");
        assert!(imbalance >= 1.0, "imbalance {imbalance} must be >= 1");
        let utilization = gauge(&profile, "par.region.utilization{region=test.attr}")
            .expect("utilization gauge recorded");
        assert!(
            utilization > 0.0 && utilization <= 1.0 + 1e-9,
            "utilization {utilization} out of (0, 1]"
        );
        assert!(profile
            .histograms
            .iter()
            .any(|h| h.name == "par.region.chunks_per_worker{region=test.attr}"));

        let attr: Vec<_> = chunks.iter().filter(|c| c.region == "test.attr").collect();
        assert_eq!(attr.len(), 4, "one chunk event per range");
        let mut seen: Vec<usize> = attr.iter().map(|c| c.chunk).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        for c in &attr {
            assert!(c.tid >= 10_000, "worker lane tid, got {}", c.tid);
            assert_eq!(c.weight, c.range.len() as u64);
        }
    }

    #[test]
    fn profiled_without_timeline_skips_chunk_records() {
        // Satellite regression test: profiling on but no trace export
        // requested — the region gauges must appear, but not a single
        // ChunkRecord may be pushed.
        let _fp = no_faults();
        bootes_obs::set_enabled(true);
        bootes_obs::set_chunk_timeline(false);
        bootes_obs::reset();
        let ranges = partition_even(64, 8);
        let out = map_ranges("test.notimeline", 4, &ranges, |i, _| i).unwrap();
        let profile = bootes_obs::snapshot();
        let chunks = bootes_obs::worker_chunks();
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
        assert_eq!(out.len(), 8);
        assert!(chunks.is_empty(), "timeline off => zero ChunkRecords");
        assert!(
            gauge(&profile, "par.region.utilization{region=test.notimeline}").is_some(),
            "aggregate region metrics still recorded"
        );
        assert!(profile
            .counters
            .iter()
            .any(|c| c.name == "par.region.busy_ns{region=test.notimeline}" && c.value > 0));
    }

    #[test]
    fn serial_path_still_attributes_region() {
        let _fp = no_faults();
        bootes_obs::set_enabled(true);
        bootes_obs::reset();
        let ranges = partition_even(16, 4);
        let mut data = vec![0u32; 16];
        for_each_chunk_mut("test.serial", 1, &mut data, &ranges, |_, range, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (range.start + off) as u32;
            }
        })
        .unwrap();
        let profile = bootes_obs::snapshot();
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
        assert_eq!(data, (0..16).collect::<Vec<_>>());
        let imbalance = gauge(&profile, "par.region.imbalance{region=test.serial}")
            .expect("serial invocations still record the region gauges");
        assert!(
            (imbalance - 1.0).abs() < 1e-9,
            "single worker => {imbalance}"
        );
        assert!(profile
            .counters
            .iter()
            .any(|c| c.name == "par.region.wall_ns{region=test.serial}" && c.value > 0));
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let _fp = no_faults();
        bootes_obs::set_enabled(false);
        bootes_obs::reset();
        let ranges = partition_even(32, 4);
        let _ = map_ranges("test.off", 4, &ranges, |i, _| i);
        assert!(bootes_obs::worker_chunks().is_empty());
        assert!(bootes_obs::snapshot().gauges.is_empty());
    }
}

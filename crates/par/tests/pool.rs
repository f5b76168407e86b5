//! Lifecycle tests for the persistent worker pool: reuse across regions,
//! clean shutdown-drain, and transparent respawn.
//!
//! These live in their own integration binary so the drain assertions can't
//! race the unit tests (which share the process-global pool).

use std::sync::Mutex;

use bootes_par::{map_ranges, partition_even, pool};

/// The pool is process-global; every test here serializes through this lock.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn consecutive_regions_reuse_the_same_workers() {
    let _g = serial();
    let ranges = partition_even(64, 8);
    let first = map_ranges("test.pool", 4, &ranges, |i, r| (i, r.len())).unwrap();
    assert!(pool::worker_count() >= 4);
    let ids_before = pool::worker_ids();
    let spawned_before = pool::spawned_total();
    let second = map_ranges("test.pool", 4, &ranges, |i, r| (i, r.len())).unwrap();
    let ids_after = pool::worker_ids();
    let spawned_after = pool::spawned_total();
    assert_eq!(first, second);
    assert_eq!(
        ids_before, ids_after,
        "second region must observe the same worker threads"
    );
    assert_eq!(
        spawned_before, spawned_after,
        "no new workers spawned for a repeat region"
    );
}

#[test]
fn many_small_regions_spawn_no_extra_workers() {
    let _g = serial();
    let ranges = partition_even(16, 4);
    let _ = map_ranges("test.pool", 4, &ranges, |i, _| i).unwrap();
    let spawned_before = pool::spawned_total();
    for _ in 0..100 {
        let out = map_ranges("test.pool", 4, &ranges, |i, r| i + r.start).unwrap();
        assert_eq!(out.len(), 4);
    }
    assert_eq!(
        pool::spawned_total(),
        spawned_before,
        "100 regions must not spawn any thread"
    );
}

#[test]
fn drain_shuts_down_and_regions_respawn() {
    let _g = serial();
    let ranges = partition_even(32, 4);
    let before = map_ranges("test.pool", 2, &ranges, |_, r| r.start).unwrap();
    assert!(pool::worker_count() >= 2);
    pool::drain();
    assert_eq!(pool::worker_count(), 0, "drain joins every worker");
    // The next region transparently respawns workers and still merges in
    // order.
    let after = map_ranges("test.pool", 2, &ranges, |_, r| r.start).unwrap();
    assert_eq!(before, after);
    assert!(pool::worker_count() >= 2, "regions respawn after drain");
    // Draining an already-drained pool is a no-op.
    pool::drain();
    pool::drain();
    assert_eq!(pool::worker_count(), 0);
    // Leave a usable pool behind for any test harness teardown.
    let _ = map_ranges("test.pool", 2, &ranges, |i, _| i).unwrap();
}

#[test]
fn pool_workers_report_in_worker_only_inside() {
    let _g = serial();
    assert!(!pool::in_worker(), "test thread is not a pool worker");
    let ranges = partition_even(8, 4);
    let flags = map_ranges("test.pool", 4, &ranges, |_, _| pool::in_worker()).unwrap();
    assert!(
        flags.iter().all(|&f| f),
        "chunks must run on pool worker threads: {flags:?}"
    );
}

//! The lazily-initialized persistent worker pool behind the `bootes-par`
//! combinators.
//!
//! Before this module existed every parallel region spawned fresh scoped
//! threads, so a caller issuing thousands of small regions (the Lanczos
//! operator performs one SpMV per iteration) paid a thread spawn + join per
//! call. The pool parks a fixed set of named worker threads on plain
//! [`std::sync::mpsc`] channels instead; a region dispatches one job per
//! worker slot and blocks on a countdown latch until every slot finished.
//!
//! Design points:
//!
//! - **Stable identity.** Worker `slot` is always executed by pool thread
//!   `slot` (`bootes-par-<slot>`), which pins the stable obs trace lane
//!   `worker-<slot>`. Two consecutive regions therefore observe the same
//!   worker threads — no churn, and profile lanes stay comparable across a
//!   whole run.
//! - **Lazy growth, explicit drain.** Workers are spawned on first demand and
//!   kept parked until [`drain`] shuts them down (send a shutdown job, join
//!   the thread). After a drain the next region transparently respawns.
//! - **Deadlock-free nesting.** A region dispatched *from* a pool worker
//!   would wait on slots that may be queued behind itself. The combinators
//!   check [`in_worker`] and run nested regions inline on the calling worker
//!   instead — outer-level parallelism wins, nested regions degrade to the
//!   serial (still bit-identical) path.
//! - **Borrowed closures.** Jobs carry a lifetime-erased pointer to the
//!   region's slot closure. This is sound because `run` blocks on the latch
//!   until every dispatched job has finished, so the pointee strictly
//!   outlives every dereference (the classic scoped-pool argument).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Countdown latch: the dispatching thread blocks until every slot of a
/// region counted down.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|p| p.into_inner());
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|p| p.into_inner());
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// One dispatched slot of a parallel region: a lifetime-erased pointer to the
/// region's shared slot closure, the latch to count down on completion, and
/// the slot index to execute.
struct Task {
    f: *const (dyn Fn(usize) + Sync),
    latch: *const Latch,
    slot: usize,
}

// SAFETY: both raw pointers reference stack data owned by the dispatching
// thread, which blocks on the latch inside `run` until every task has counted
// down — the pointees therefore strictly outlive every dereference on the
// worker side.
unsafe impl Send for Task {}

enum Job {
    Run(Task),
    Shutdown,
}

struct Worker {
    tx: Sender<Job>,
    handle: JoinHandle<()>,
}

#[derive(Default)]
struct Pool {
    workers: Vec<Worker>,
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

/// Total worker threads spawned over the process lifetime (a worker
/// re-created after [`drain`] counts again). Tests use this to prove that
/// consecutive regions reuse the pool instead of respawning.
static SPAWNED_TOTAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set for the lifetime of a pool worker thread (nested-region check).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a pool worker. The combinators run nested
/// parallel regions inline when this is set, keeping the pool deadlock-free.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

fn pool() -> &'static Mutex<Pool> {
    POOL.get_or_init(|| Mutex::new(Pool::default()))
}

fn worker_loop(slot: usize, rx: Receiver<Job>) {
    IN_WORKER.with(|c| c.set(true));
    bootes_obs::pin_worker_tid(slot);
    // A `Shutdown` job or a disconnected channel ends the loop.
    while let Ok(Job::Run(task)) = rx.recv() {
        // SAFETY: see `Task` — the dispatcher blocks on the latch until this
        // job counts down, keeping both pointees alive.
        let f = unsafe { &*task.f };
        // The slot closures isolate chunk panics themselves; this outer catch
        // is a last line of defense so the latch always counts down and the
        // dispatcher can never deadlock on a buggy closure.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(task.slot)));
        // SAFETY: as above; the latch outlives the count-down by contract.
        unsafe { (*task.latch).count_down() };
    }
}

fn spawn_worker(slot: usize) -> Worker {
    let (tx, rx) = mpsc::channel::<Job>();
    let handle = match std::thread::Builder::new()
        .name(format!("bootes-par-{slot}"))
        .spawn(move || worker_loop(slot, rx))
    {
        Ok(h) => h,
        Err(e) => panic!("spawning bootes-par worker {slot}: {e}"),
    };
    SPAWNED_TOTAL.fetch_add(1, Ordering::Relaxed);
    bootes_obs::counter_add("par.pool.spawned", 1);
    Worker { tx, handle }
}

/// Executes `f(slot)` for every slot in `0..slots` on the persistent pool
/// workers and blocks until all of them finished.
///
/// Worker `slot` always executes slot `slot`, so thread identity (and the
/// pinned `worker-<slot>` trace lane) is stable across calls. The pool grows
/// lazily to `slots` workers and never shrinks except through [`drain`]. If a
/// worker's channel is gone (a racing drain), its slot runs inline on the
/// caller — the region still completes.
pub(crate) fn run(slots: usize, f: &(dyn Fn(usize) + Sync)) {
    if slots == 0 {
        return;
    }
    let latch = Latch::new(slots);
    // SAFETY (lifetime erasure): `run` blocks on the latch below until every
    // dispatched task finished, so shortening nothing — the 'static cast only
    // satisfies the channel's type; no worker dereferences `f` after the
    // latch reaches zero.
    let f_static: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(f as *const _)
    };
    bootes_obs::counter_add("par.pool.dispatches", slots as u64);
    let mut inline_slots: Vec<usize> = Vec::new();
    {
        let mut pool = pool().lock().unwrap_or_else(|p| p.into_inner());
        while pool.workers.len() < slots {
            let slot = pool.workers.len();
            let worker = spawn_worker(slot);
            pool.workers.push(worker);
        }
        for slot in 0..slots {
            let task = Task {
                f: f_static,
                latch: &latch as *const Latch,
                slot,
            };
            if pool.workers[slot].tx.send(Job::Run(task)).is_err() {
                inline_slots.push(slot);
            }
        }
    }
    for slot in inline_slots {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(slot)));
        latch.count_down();
    }
    latch.wait();
}

/// Shuts the pool down: every parked worker receives a shutdown job and is
/// joined. In-flight jobs finish first (channels deliver in order), so a
/// drain never cancels running work. Subsequent parallel regions lazily
/// respawn workers; intended for tests and orderly process teardown.
pub fn drain() {
    let workers = {
        let mut pool = pool().lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut pool.workers)
    };
    for w in &workers {
        let _ = w.tx.send(Job::Shutdown);
    }
    for w in workers {
        let _ = w.handle.join();
    }
}

/// Number of currently live pool workers.
pub fn worker_count() -> usize {
    pool()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .workers
        .len()
}

/// Thread ids of the live pool workers, in slot order. Slot `i` of every
/// parallel region runs on thread `worker_ids()[i]` (when `i` is in range).
pub fn worker_ids() -> Vec<std::thread::ThreadId> {
    pool()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .workers
        .iter()
        .map(|w| w.handle.thread().id())
        .collect()
}

/// Total worker threads spawned over the process lifetime (monotonic; a
/// worker re-created after [`drain`] counts again).
pub fn spawned_total() -> usize {
    SPAWNED_TOTAL.load(Ordering::Relaxed)
}

//! Deterministic and seeded-probabilistic fault injection.
//!
//! A failpoint is a named site (`"lanczos.restart"`, `"par.worker"`, …) that
//! the instrumented code hits via [`fail_point`] (usually indirectly through
//! [`crate::checkpoint`]). Armed failpoints come from the
//! `BOOTES_FAILPOINTS` environment variable or programmatically via
//! [`ScopedFailpoints::arm`]; the spec grammar is
//!
//! ```text
//! spec     := entry (',' entry)*
//! entry    := site '=' action trigger?
//! action   := 'err' | 'panic' | 'kill' | 'delay:' N 'ms'
//! trigger  := '@' N          (fire exactly on the Nth hit, 1-based)
//!           | '%' P          (fire each hit with probability P in (0, 1])
//! ```
//!
//! `site=err@3` injects [`GuardError::Injected`] on exactly the 3rd hit of
//! `site` and never again; `site=err` fires on *every* hit. `panic` actions
//! panic instead, exercising the `catch_unwind` isolation boundaries. `kill`
//! aborts the process without unwinding (no destructors, no cleanup — the
//! in-process equivalent of SIGKILL), which is how the chaos harness drills
//! crash-mid-write recovery. `delay:25ms` parks the hitting thread for 25 ms
//! and then succeeds — it widens race windows (a write parked between
//! `fs::write` and `fs::rename` is an easy SIGKILL target) without changing
//! any result.
//!
//! Probabilistic triggers draw from a *seeded per-entry* generator: entry
//! `i` for site `s` uses a SplitMix64 stream seeded with
//! `global_seed ⊕ fnv1a(s) ⊕ i`, where the global seed comes from
//! [`ScopedFailpoints::arm_seeded`] or the `BOOTES_FAILPOINT_SEED`
//! environment variable (default 0). For a fixed seed the k-th hit of an entry always
//! makes the same fire/skip decision, so a `(seed, workload)` pair replays
//! the same fault schedule — this is what makes chaos runs reproducible.
//!
//! Hit counters are per-entry and deterministic. When nothing is armed,
//! [`fail_point`] is a single relaxed atomic load after a one-time env
//! lookup.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use crate::error::GuardError;

#[derive(Debug, Clone, Copy, PartialEq)]
enum FailAction {
    Err,
    Panic,
    /// Abort the process without unwinding (crash-drill action).
    Kill,
    /// Sleep for the given duration, then succeed.
    Delay(Duration),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on every hit.
    Every,
    /// Fire exactly on the Nth hit (1-based), never again.
    At(u64),
    /// Fire each hit independently with this probability, drawn from the
    /// entry's seeded deterministic stream.
    Prob(f64),
}

#[derive(Debug)]
struct Failpoint {
    site: String,
    action: FailAction,
    trigger: Trigger,
    hits: AtomicU64,
    /// SplitMix64 state for `Trigger::Prob` draws; advanced once per hit so
    /// the k-th hit's decision is a pure function of (seed, site, entry, k).
    rng: AtomicU64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static TABLE: OnceLock<Mutex<Vec<Failpoint>>> = OnceLock::new();
/// The spec text the current table was parsed from (for [`current_failpoints`]
/// and the [`ScopedFailpoints`] save/restore protocol).
static SPEC: OnceLock<Mutex<String>> = OnceLock::new();
static SEED: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn table() -> &'static Mutex<Vec<Failpoint>> {
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_table() -> std::sync::MutexGuard<'static, Vec<Failpoint>> {
    match table().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn spec_slot() -> std::sync::MutexGuard<'static, String> {
    let m = SPEC.get_or_init(|| Mutex::new(String::new()));
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One SplitMix64 step: returns the mixed output and advances `state`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn install(points: Vec<Failpoint>, spec: &str) {
    let active = !points.is_empty();
    *lock_table() = points;
    *spec_slot() = spec.to_string();
    ACTIVE.store(active, Ordering::Release);
}

fn parse_spec(spec: &str, seed: u64) -> Result<Vec<Failpoint>, String> {
    let mut points = Vec::new();
    for (index, entry) in spec.split(',').enumerate() {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry `{entry}` is missing `=action`"))?;
        // Trigger suffix: `@N` (Nth hit) or `%P` (per-hit probability). The
        // action text may itself contain neither character, so the rightmost
        // occurrence is unambiguous.
        let (action_str, trigger) = if let Some((a, n)) = rhs.rsplit_once('@') {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("failpoint entry `{entry}`: `@{n}` is not a number"))?;
            if n == 0 {
                return Err(format!("failpoint entry `{entry}`: hit index is 1-based"));
            }
            (a, Trigger::At(n))
        } else if let Some((a, p)) = rhs.rsplit_once('%') {
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| format!("failpoint entry `{entry}`: `%{p}` is not a number"))?;
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!(
                    "failpoint entry `{entry}`: probability must be in (0, 1]"
                ));
            }
            (a, Trigger::Prob(p))
        } else {
            (rhs, Trigger::Every)
        };
        let action = match action_str.trim() {
            "err" => FailAction::Err,
            "panic" => FailAction::Panic,
            "kill" => FailAction::Kill,
            other => match other.strip_prefix("delay:").and_then(|d| {
                d.strip_suffix("ms")
                    .and_then(|ms| ms.trim().parse::<u64>().ok())
            }) {
                Some(ms) => FailAction::Delay(Duration::from_millis(ms)),
                None => {
                    return Err(format!(
                        "failpoint entry `{entry}`: unknown action `{other}` \
                         (expected err|panic|kill|delay:<N>ms)"
                    ))
                }
            },
        };
        let site = site.trim().to_string();
        let rng_seed = seed ^ fnv1a(&site) ^ index as u64;
        points.push(Failpoint {
            site,
            action,
            trigger,
            hits: AtomicU64::new(0),
            rng: AtomicU64::new(rng_seed),
        });
    }
    Ok(points)
}

fn ensure_env_init() {
    ENV_INIT.get_or_init(|| {
        if let Ok(seed) = std::env::var("BOOTES_FAILPOINT_SEED") {
            match seed.parse::<u64>() {
                Ok(s) => SEED.store(s, Ordering::Relaxed),
                Err(_) => {
                    eprintln!("bootes-guard: ignoring non-numeric BOOTES_FAILPOINT_SEED `{seed}`")
                }
            }
        }
        if let Ok(spec) = std::env::var("BOOTES_FAILPOINTS") {
            match parse_spec(&spec, SEED.load(Ordering::Relaxed)) {
                Ok(points) => install(points, &spec),
                Err(msg) => eprintln!("bootes-guard: ignoring BOOTES_FAILPOINTS: {msg}"),
            }
        }
    });
}

/// The spec text currently armed (empty string when nothing is armed).
pub fn current_failpoints() -> String {
    ensure_env_init();
    spec_slot().clone()
}

/// Held by the live [`ScopedFailpoints`], if any. The table stays
/// process-global — failpoints fire on `bootes-par` pool workers, so a
/// thread-local table would miss them — and a scope owns it exclusively for
/// its whole lifetime, so concurrent tests cannot re-arm or clear each
/// other's entries mid-run.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread holds a scope. A second scope on the same thread
    /// would deadlock on [`SCOPE_LOCK`], so [`ScopedFailpoints::arm`]
    /// refuses it instead.
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
}

/// RAII failpoint scope — the only way to arm failpoints in-process. Arming
/// takes a process-wide lock that the scope holds until it is dropped, so
/// at most one scope is live at a time: a test that arms faults (or arms an
/// empty spec to guarantee a fault-free table) cannot race another test's
/// faults. On drop the spec that was armed before (the `BOOTES_FAILPOINTS`
/// one, or nothing) is restored with fresh hit counters. Scopes do not nest
/// on one thread.
///
/// ```
/// use bootes_guard::{fail_point, ScopedFailpoints};
/// {
///     let _fp = ScopedFailpoints::arm("demo.site=err@1").unwrap();
///     assert!(fail_point("demo.site").is_err());
/// } // dropped: previous (empty) spec restored
/// assert!(fail_point("demo.site").is_ok());
/// ```
#[must_use = "dropping the scope immediately restores the previous failpoints"]
pub struct ScopedFailpoints {
    prev_spec: String,
    prev_seed: u64,
    _lock: MutexGuard<'static, ()>,
}

impl ScopedFailpoints {
    /// Arms `spec` under the current global seed, saving the previous spec.
    /// Blocks while another thread holds a scope.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry, or of the
    /// nesting error when this thread already holds a scope. Nothing is
    /// armed and no lock is held then.
    pub fn arm(spec: &str) -> Result<Self, String> {
        Self::lock_and_arm(spec, None)
    }

    /// Arms `spec` under an explicit seed, saving both the previous spec and
    /// the previous seed.
    ///
    /// # Errors
    ///
    /// Same as [`ScopedFailpoints::arm`].
    pub fn arm_seeded(spec: &str, seed: u64) -> Result<Self, String> {
        Self::lock_and_arm(spec, Some(seed))
    }

    fn lock_and_arm(spec: &str, seed: Option<u64>) -> Result<Self, String> {
        if IN_SCOPE.get() {
            return Err("this thread already holds a ScopedFailpoints; scopes do not nest".into());
        }
        // A test that panics inside its scope poisons the lock, but the
        // scope's drop has restored the table by then: nothing to repair.
        let lock = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        ensure_env_init();
        let prev_seed = SEED.load(Ordering::Relaxed);
        let seed = seed.unwrap_or(prev_seed);
        let points = parse_spec(spec, seed)?;
        IN_SCOPE.set(true);
        let prev_spec = current_failpoints();
        SEED.store(seed, Ordering::Relaxed);
        install(points, spec);
        Ok(ScopedFailpoints {
            prev_spec,
            prev_seed,
            _lock: lock,
        })
    }
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        SEED.store(self.prev_seed, Ordering::Relaxed);
        match parse_spec(&self.prev_spec, self.prev_seed) {
            Ok(points) => {
                let spec = std::mem::take(&mut self.prev_spec);
                install(points, &spec);
            }
            // The saved spec parsed when it was armed; a re-parse failure is
            // unreachable in practice, but never panic in a destructor.
            Err(_) => install(Vec::new(), ""),
        }
        IN_SCOPE.set(false);
        // `_lock` is released after this body, once the table is restored.
    }
}

/// Hits the failpoint named `site`. Returns [`GuardError::Injected`] (or
/// panics / aborts / sleeps, per the armed action) when an armed entry's
/// trigger condition is met; otherwise returns `Ok(())`.
///
/// # Errors
///
/// Returns [`GuardError::Injected`] when an armed `err` entry fires.
pub fn fail_point(site: &str) -> Result<(), GuardError> {
    ensure_env_init();
    if !ACTIVE.load(Ordering::Acquire) {
        return Ok(());
    }
    let fired = {
        let tbl = lock_table();
        let mut fired = None;
        for fp in tbl.iter() {
            if fp.site != site {
                continue;
            }
            let hit = fp.hits.fetch_add(1, Ordering::Relaxed) + 1;
            let fire = match fp.trigger {
                Trigger::At(n) => hit == n,
                Trigger::Every => true,
                Trigger::Prob(p) => {
                    // Advance this entry's SplitMix64 stream exactly once per
                    // hit; the table lock serializes hits, so hit k always
                    // consumes draw k.
                    let mut state = fp.rng.load(Ordering::Relaxed);
                    let draw = splitmix64(&mut state);
                    fp.rng.store(state, Ordering::Relaxed);
                    let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    unit < p
                }
            };
            if fire {
                fired = Some((fp.action, hit));
                break;
            }
        }
        fired
    };
    if let Some((action, hit)) = fired {
        bootes_obs::counter_add("guard.failpoint", 1);
        match action {
            FailAction::Err => Err(GuardError::Injected {
                site: site.to_string(),
            }),
            FailAction::Panic => panic!("failpoint {site}: injected panic (hit {hit})"),
            FailAction::Kill => {
                // Crash drill: die like SIGKILL would — no unwinding, no
                // destructors, no atexit cleanup. Anything half-written
                // stays half-written for the recovery path to deal with.
                eprintln!("failpoint {site}: injected kill (hit {hit}), aborting");
                std::process::abort();
            }
            FailAction::Delay(d) => {
                // We are outside the table-lock scope here, so a parked
                // thread never blocks other sites from evaluating entries.
                bootes_obs::counter_add("guard.failpoint.delay", 1);
                std::thread::sleep(d);
                Ok(())
            }
        }
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(spec: &str) -> ScopedFailpoints {
        ScopedFailpoints::arm(spec).unwrap()
    }

    #[test]
    fn unset_fail_point_is_ok() {
        let _fp = arm("");
        for _ in 0..10 {
            fail_point("anything").unwrap();
        }
    }

    #[test]
    fn err_at_n_fires_exactly_once() {
        let _fp = arm("a.site=err@3");
        fail_point("a.site").unwrap();
        fail_point("a.site").unwrap();
        let err = fail_point("a.site").unwrap_err();
        assert_eq!(
            err,
            GuardError::Injected {
                site: "a.site".to_string()
            }
        );
        // Hit 4 and beyond: armed-at-3 never fires again.
        fail_point("a.site").unwrap();
        fail_point("a.site").unwrap();
    }

    #[test]
    fn err_without_index_fires_every_hit() {
        let _fp = arm("b.site=err");
        assert!(fail_point("b.site").is_err());
        assert!(fail_point("b.site").is_err());
        assert!(fail_point("other.site").is_ok());
    }

    #[test]
    fn panic_action_panics() {
        let _fp = arm("c.site=panic@1");
        let caught = std::panic::catch_unwind(|| fail_point("c.site"));
        assert!(caught.is_err());
    }

    #[test]
    fn multiple_entries_parse() {
        let _fp = arm("lanczos.restart=err@3, kmeans.iter=panic@1");
        fail_point("lanczos.restart").unwrap();
        fail_point("lanczos.restart").unwrap();
        assert!(fail_point("lanczos.restart").is_err());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for spec in [
            "nosite",
            "a=nope",
            "a=err@x",
            "a=err@0",
            "a=err%0",
            "a=err%1.5",
            "a=delay:ms",
            "a=delay:10",
        ] {
            assert!(ScopedFailpoints::arm(spec).is_err(), "{spec}");
        }
    }

    #[test]
    fn checkpoint_routes_through_fail_point() {
        let _fp = arm("d.site=err@1");
        assert!(crate::checkpoint("d.site").is_err());
        assert!(crate::checkpoint("d.site").is_ok());
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        let _fp = arm("e.site=delay:20ms@1");
        let t0 = std::time::Instant::now();
        fail_point("e.site").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // @1 consumed: the next hit is instant.
        let t1 = std::time::Instant::now();
        fail_point("e.site").unwrap();
        assert!(t1.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn probabilistic_firing_is_seed_deterministic() {
        let sequence = |seed: u64| -> Vec<bool> {
            let _fp = ScopedFailpoints::arm_seeded("p.site=err%0.5", seed).unwrap();
            (0..64).map(|_| fail_point("p.site").is_err()).collect()
        };
        let a = sequence(1234);
        let b = sequence(1234);
        let c = sequence(5678);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds must differ (64 draws at p=0.5)");
        let fires = a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fires),
            "p=0.5 over 64 draws fired {fires} times"
        );
    }

    #[test]
    fn scope_restores_previous_seed_and_disarms_on_drop() {
        // Every scope restores the seed it found, so this is the baseline.
        let base_seed = {
            let _fp = arm("");
            SEED.load(Ordering::Relaxed)
        };
        {
            let _fp = ScopedFailpoints::arm_seeded("inner.site=err", 99).unwrap();
            assert!(fail_point("inner.site").is_err());
            assert_eq!(current_failpoints(), "inner.site=err");
            assert_eq!(SEED.load(Ordering::Relaxed), 99);
        }
        // No other test arms `inner.site`, so this check needs no scope.
        assert!(fail_point("inner.site").is_ok());
        let _fp = arm("");
        assert_eq!(SEED.load(Ordering::Relaxed), base_seed);
    }

    #[test]
    fn scopes_do_not_nest_on_one_thread() {
        let _fp = arm("outer.site=err");
        let nested = ScopedFailpoints::arm("inner.site=err");
        assert!(
            nested.is_err(),
            "a nested scope must be refused, not deadlock"
        );
        assert!(fail_point("outer.site").is_err(), "outer scope still armed");
        assert!(fail_point("inner.site").is_ok());
    }

    #[test]
    fn scope_excludes_other_threads_until_dropped() {
        let fp = arm("x.site=err");
        let (tx, rx) = std::sync::mpsc::channel();
        let other = std::thread::spawn(move || {
            let _fp = ScopedFailpoints::arm("").unwrap();
            tx.send(fail_point("x.site").is_ok()).unwrap();
        });
        // The other thread blocks on arming while our scope is live.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(fail_point("x.site").is_err());
        drop(fp);
        assert!(rx.recv().unwrap(), "the other scope sees a clean table");
        other.join().unwrap();
    }
}

//! Singleflight coalescing of concurrent computations for the same key.
//!
//! The content-addressed cache answers *repeat* lookups, but a burst of N
//! concurrent requests for the same not-yet-cached key would still run the
//! expensive preprocessing N times — once per request — and then race to
//! `put` identical artifacts. A [`Singleflight`] group closes that hole: the
//! first arrival for a [`CacheKey`] becomes the **leader** and runs the
//! computation; every later arrival for the same key becomes a **waiter**
//! that blocks (on a condvar, no spinning) until the leader finishes and
//! then receives a clone of the leader's result — success *or* error, so a
//! failed leader can never strand its waiters in a hang.
//!
//! The flight is removed from the group the moment the leader completes:
//! subsequent arrivals start a fresh flight (and will typically be served by
//! the cache the leader just populated). A panicking leader is caught and
//! converted into an error result for the whole flight.
//!
//! The group is generic over the flight's value type `V` so the serving
//! layer can coalesce full protocol outcomes (permutation + stats), not just
//! raw cache artifacts.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::key::CacheKey;

/// Shared state of one in-flight computation.
struct Flight<V> {
    result: Mutex<Option<Result<V, String>>>,
    done: Condvar,
    /// Number of waiters that coalesced onto this flight (excludes leader).
    waiters: Mutex<u64>,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
            waiters: Mutex::new(0),
        }
    }

    fn complete(&self, result: Result<V, String>)
    where
        V: Clone,
    {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<V, String>
    where
        V: Clone,
    {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        while slot.is_none() {
            slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        match slot.as_ref() {
            Some(r) => r.clone(),
            // Unreachable: the loop above only exits on `Some`.
            None => Err("singleflight flight completed without a result".to_string()),
        }
    }
}

/// How a [`Singleflight::run`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// This call ran the computation.
    Leader,
    /// This call blocked on another call's in-flight computation and
    /// received its result.
    Coalesced,
}

/// A group of keyed in-flight computations (see module docs).
pub struct Singleflight<V> {
    flights: Mutex<HashMap<CacheKey, Arc<Flight<V>>>>,
}

impl<V> Default for Singleflight<V> {
    fn default() -> Self {
        Singleflight::new()
    }
}

impl<V> Singleflight<V> {
    /// Creates an empty group.
    pub fn new() -> Self {
        Singleflight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Arc<Flight<V>>>> {
        self.flights.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Number of keys currently in flight.
    pub fn inflight(&self) -> usize {
        self.lock().len()
    }
}

impl<V: Clone> Singleflight<V> {
    /// Runs `compute` for `key`, coalescing with any concurrent call for the
    /// same key: exactly one caller (the leader) executes `compute`; all
    /// others block until the leader finishes and receive a clone of its
    /// result. Returns the result and this caller's [`FlightRole`].
    ///
    /// A leader panic is caught and propagated to every caller of the flight
    /// as an `Err` carrying the panic message — waiters can never hang on a
    /// dead leader.
    pub fn run(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<V, String>,
    ) -> (Result<V, String>, FlightRole) {
        let (flight, role) = {
            let mut map = self.lock();
            match map.get(&key) {
                Some(existing) => {
                    let flight = Arc::clone(existing);
                    *flight.waiters.lock().unwrap_or_else(|p| p.into_inner()) += 1;
                    (flight, FlightRole::Coalesced)
                }
                None => {
                    let flight = Arc::new(Flight::new());
                    map.insert(key, Arc::clone(&flight));
                    (flight, FlightRole::Leader)
                }
            }
        };
        match role {
            FlightRole::Coalesced => (flight.wait(), role),
            FlightRole::Leader => {
                let result = match catch_unwind(AssertUnwindSafe(compute)) {
                    Ok(r) => r,
                    Err(payload) => Err(format!(
                        "singleflight leader panicked: {}",
                        bootes_guard::panic_message(payload.as_ref())
                    )),
                };
                // Remove the flight *before* publishing so a caller arriving
                // after completion starts fresh instead of reading a stale
                // flight.
                self.lock().remove(&key);
                flight.complete(result.clone());
                (result, role)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ArtifactKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(pattern: u64) -> CacheKey {
        CacheKey {
            kind: ArtifactKind::Decision,
            pattern,
            config: 0,
        }
    }

    #[test]
    fn sequential_runs_are_independent_leaders() {
        let group: Singleflight<u64> = Singleflight::new();
        let (r1, role1) = group.run(key(1), || Ok(10));
        let (r2, role2) = group.run(key(1), || Ok(20));
        assert_eq!((r1, role1), (Ok(10), FlightRole::Leader));
        assert_eq!((r2, role2), (Ok(20), FlightRole::Leader));
        assert_eq!(group.inflight(), 0);
    }

    #[test]
    fn concurrent_same_key_coalesces_onto_one_computation() {
        let group: Arc<Singleflight<u64>> = Arc::new(Singleflight::new());
        let computations = Arc::new(AtomicU64::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let group = Arc::clone(&group);
            let computations = Arc::clone(&computations);
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                group.run(key(7), move || {
                    computations.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open until the main thread releases it,
                    // so every other thread must coalesce.
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    Ok(42)
                })
            }));
        }
        // The gate holds the leader, so the other seven threads must all
        // coalesce onto its flight; release it only once they have.
        let waiters = || {
            group
                .lock()
                .get(&key(7))
                .map_or(0, |f| *f.waiters.lock().unwrap())
        };
        while waiters() < 7 {
            std::thread::yield_now();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let mut leaders = 0;
        let mut coalesced = 0;
        for h in handles {
            let (result, role) = h.join().expect("thread joins");
            assert_eq!(result, Ok(42));
            match role {
                FlightRole::Leader => leaders += 1,
                FlightRole::Coalesced => coalesced += 1,
            }
        }
        assert_eq!((leaders, coalesced), (1, 7));
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(group.inflight(), 0);
    }

    #[test]
    fn leader_error_propagates_to_waiters() {
        let group: Arc<Singleflight<u64>> = Arc::new(Singleflight::new());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let leader = {
            let group = Arc::clone(&group);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                group.run(key(9), move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    Err("boom".to_string())
                })
            })
        };
        while group.inflight() == 0 {
            std::thread::yield_now();
        }
        let waiter = {
            let group = Arc::clone(&group);
            std::thread::spawn(move || group.run(key(9), || Ok(1)))
        };
        // Give the waiter a moment to coalesce, then release the leader.
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let (lr, lrole) = leader.join().expect("leader joins");
        let (wr, _wrole) = waiter.join().expect("waiter joins, does not hang");
        assert_eq!(lrole, FlightRole::Leader);
        assert_eq!(lr, Err("boom".to_string()));
        // The waiter either coalesced onto the failed flight (same error) or
        // lost the race and led its own successful flight; both are sound.
        assert!(wr == Err("boom".to_string()) || wr == Ok(1));
        assert_eq!(group.inflight(), 0);
    }

    #[test]
    fn leader_panic_becomes_an_error_not_a_hang() {
        let group: Singleflight<u64> = Singleflight::new();
        let (result, role) = group.run(key(3), || panic!("leader died"));
        assert_eq!(role, FlightRole::Leader);
        let err = result.expect_err("panic converted to error");
        assert!(err.contains("leader died"), "{err}");
        assert_eq!(group.inflight(), 0, "flight removed after panic");
        // The group stays usable.
        assert_eq!(group.run(key(3), || Ok(5)).0, Ok(5));
    }
}

//! Budgets and the process-global cooperative watchdog.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{GuardError, Resource};

/// Resource limits for one preprocessing run. All limits are optional; a
/// default budget is unlimited and arming it costs one atomic store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from the instant the budget is armed.
    pub time_limit: Option<Duration>,
    /// Cap on cooperative checkpoint ticks (outer-loop iterations summed
    /// across every instrumented loop).
    pub max_iterations: Option<u64>,
    /// Ceiling on explicitly-accounted bytes reported via [`check_bytes`].
    pub max_bytes: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets a wall-clock deadline in milliseconds.
    pub fn with_time_ms(mut self, ms: u64) -> Self {
        self.time_limit = Some(Duration::from_millis(ms));
        self
    }

    /// Sets an iteration cap.
    pub fn with_iterations(mut self, iters: u64) -> Self {
        self.max_iterations = Some(iters);
        self
    }

    /// Sets a byte ceiling.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// True when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none() && self.max_iterations.is_none() && self.max_bytes.is_none()
    }

    /// Arms this budget process-globally and returns an RAII handle that
    /// restores the previously armed budget (if any) on drop. The deadline
    /// clock starts now.
    pub fn arm(self) -> ArmedBudget {
        let watchdog = Arc::new(Watchdog::new(self));
        let prev = {
            let mut slot = lock_current();
            slot.replace(Arc::clone(&watchdog))
        };
        ARMED.store(true, Ordering::Release);
        ArmedBudget { prev }
    }
}

/// Live state of an armed [`Budget`]: the shared start instant and the
/// cumulative checkpoint-tick counter.
#[derive(Debug)]
pub struct Watchdog {
    start: Instant,
    budget: Budget,
    iterations: AtomicU64,
}

impl Watchdog {
    fn new(budget: Budget) -> Self {
        Watchdog {
            start: Instant::now(),
            budget,
            iterations: AtomicU64::new(0),
        }
    }

    /// Elapsed wall-time since the budget was armed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Checkpoint ticks observed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Ticks the iteration counter and checks the time and iteration limits.
    fn tick(&self, stage: &str) -> Result<(), GuardError> {
        let iters = self.iterations.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cap) = self.budget.max_iterations {
            if iters > cap {
                return Err(GuardError::BudgetExceeded {
                    stage: stage.to_string(),
                    resource: Resource::Iterations,
                    spent: iters,
                    limit: cap,
                });
            }
        }
        if let Some(deadline) = self.budget.time_limit {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(GuardError::BudgetExceeded {
                    stage: stage.to_string(),
                    resource: Resource::TimeMs,
                    spent: elapsed.as_millis() as u64,
                    limit: deadline.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Checks `bytes` against the byte ceiling (no tick).
    fn bytes(&self, stage: &str, bytes: u64) -> Result<(), GuardError> {
        if let Some(cap) = self.budget.max_bytes {
            if bytes > cap {
                return Err(GuardError::BudgetExceeded {
                    stage: stage.to_string(),
                    resource: Resource::Bytes,
                    spent: bytes,
                    limit: cap,
                });
            }
        }
        Ok(())
    }
}

/// RAII handle returned by [`Budget::arm`]; restores the previously armed
/// budget on drop.
#[must_use = "dropping the handle immediately disarms the budget"]
pub struct ArmedBudget {
    prev: Option<Arc<Watchdog>>,
}

impl ArmedBudget {
    /// The watchdog this handle armed.
    pub fn watchdog(&self) -> Option<Arc<Watchdog>> {
        lock_current().clone()
    }
}

impl Drop for ArmedBudget {
    fn drop(&mut self) {
        let mut slot = lock_current();
        *slot = self.prev.take();
        ARMED.store(slot.is_some(), Ordering::Release);
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static CURRENT: OnceLock<Mutex<Option<Arc<Watchdog>>>> = OnceLock::new();

fn lock_current() -> std::sync::MutexGuard<'static, Option<Arc<Watchdog>>> {
    let m = CURRENT.get_or_init(|| Mutex::new(None));
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn current_watchdog() -> Option<Arc<Watchdog>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    lock_current().clone()
}

/// Cooperative checkpoint: fires any armed failpoint for `site`, then ticks
/// and checks the armed budget (if any).
///
/// Call this once per outer iteration of a long-running loop. When no
/// failpoints are set and no budget is armed, the cost is two relaxed atomic
/// loads.
pub fn checkpoint(site: &str) -> Result<(), GuardError> {
    crate::failpoint::fail_point(site)?;
    if let Some(w) = current_watchdog() {
        w.tick(site)?;
    }
    Ok(())
}

/// Checks explicitly-accounted `bytes` against the armed budget's byte
/// ceiling (if any). Does not tick the iteration counter.
pub fn check_bytes(stage: &str, bytes: u64) -> Result<(), GuardError> {
    if let Some(w) = current_watchdog() {
        w.bytes(stage, bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Budgets are process-global, and the failpoint tests' checkpoints read
    /// them: a fault-free failpoint scope serializes every test that arms one
    /// against those tests.
    fn no_faults() -> crate::ScopedFailpoints {
        crate::ScopedFailpoints::arm("").unwrap()
    }

    #[test]
    fn unarmed_checkpoint_is_ok() {
        let _fp = no_faults();
        for _ in 0..100 {
            checkpoint("test.site").unwrap();
        }
        check_bytes("test.site", u64::MAX).unwrap();
    }

    #[test]
    fn iteration_cap_fires() {
        let _fp = no_faults();
        let armed = Budget::unlimited().with_iterations(3).arm();
        checkpoint("a").unwrap();
        checkpoint("b").unwrap();
        checkpoint("c").unwrap();
        let err = checkpoint("d").unwrap_err();
        match err {
            GuardError::BudgetExceeded {
                stage,
                resource,
                spent,
                limit,
            } => {
                assert_eq!(stage, "d");
                assert_eq!(resource, Resource::Iterations);
                assert_eq!(spent, 4);
                assert_eq!(limit, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
        drop(armed);
        checkpoint("e").unwrap();
    }

    #[test]
    fn zero_time_budget_fires_immediately() {
        let _fp = no_faults();
        let _armed = Budget::unlimited().with_time_ms(0).arm();
        std::thread::sleep(Duration::from_millis(2));
        let err = checkpoint("slow.loop").unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                resource: Resource::TimeMs,
                ..
            }
        ));
    }

    #[test]
    fn byte_ceiling_fires() {
        let _fp = no_faults();
        let _armed = Budget::unlimited().with_bytes(1024).arm();
        check_bytes("alloc", 1024).unwrap();
        let err = check_bytes("alloc", 1025).unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                resource: Resource::Bytes,
                spent: 1025,
                limit: 1024,
                ..
            }
        ));
    }

    #[test]
    fn nested_arm_restores_outer_budget() {
        let _fp = no_faults();
        let outer = Budget::unlimited().with_iterations(1000).arm();
        {
            let _inner = Budget::unlimited().with_iterations(1).arm();
            checkpoint("inner").unwrap();
            assert!(checkpoint("inner").is_err());
        }
        // Outer budget is live again and has its own counter.
        checkpoint("outer").unwrap();
        drop(outer);
    }

    #[test]
    fn unlimited_budget_reports_unlimited() {
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::unlimited().with_time_ms(5).is_unlimited());
    }
}

//! Typed failure vocabulary shared by every guarded layer.

use std::fmt;

/// Which budgeted resource was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Wall-clock milliseconds since the budget was armed.
    TimeMs,
    /// Cooperative checkpoint ticks (outer-loop iterations).
    Iterations,
    /// Explicitly-accounted bytes.
    Bytes,
    /// Concurrently admitted requests (per-tenant admission control).
    Requests,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::TimeMs => write!(f, "time-ms"),
            Resource::Iterations => write!(f, "iterations"),
            Resource::Bytes => write!(f, "bytes"),
            Resource::Requests => write!(f, "requests"),
        }
    }
}

/// A guard-layer failure: budget exhaustion, an injected fault, or a panic
/// captured at an isolation boundary.
///
/// The variants are deliberately `Clone + PartialEq` so they can ride inside
/// the workspace's existing error enums and be asserted on in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardError {
    /// A cooperative checkpoint observed a crossed budget limit.
    BudgetExceeded {
        /// Checkpoint site (e.g. `"lanczos.restart"`) that observed the
        /// exhaustion — not necessarily the stage that spent the budget.
        stage: String,
        /// Which resource ran out.
        resource: Resource,
        /// Amount spent when the check fired.
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
    /// A failpoint armed via `BOOTES_FAILPOINTS` (or
    /// [`ScopedFailpoints`](crate::ScopedFailpoints)) fired an `err` action.
    Injected {
        /// The failpoint site that fired.
        site: String,
    },
    /// A panic was caught at an isolation boundary (a `par` worker chunk or
    /// a fallback-chain rung) and converted to a typed error.
    Panic {
        /// The boundary that caught the panic (e.g. `"par.worker"`).
        site: String,
        /// Best-effort panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::BudgetExceeded {
                stage,
                resource,
                spent,
                limit,
            } => write!(
                f,
                "budget exceeded at {stage}: {resource} spent {spent} > limit {limit}"
            ),
            GuardError::Injected { site } => write!(f, "injected fault at {site}"),
            GuardError::Panic { site, message } => {
                write!(f, "panic caught at {site}: {message}")
            }
        }
    }
}

impl std::error::Error for GuardError {}

/// Renders a `catch_unwind` payload as text for [`GuardError::Panic`].
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

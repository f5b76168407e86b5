//! bootes-guard: resource budgets, cooperative watchdog checkpoints, and a
//! deterministic fault-injection facility.
//!
//! Bootes is a *preprocessing* framework: a reorder service must always hand
//! back a usable permutation, degrading toward the identity order rather than
//! hanging in an unconverged eigensolve, blowing past a memory ceiling, or
//! aborting the process because one worker panicked. This crate supplies the
//! three primitives the rest of the workspace builds that guarantee on:
//!
//! - [`Budget`] / [`Watchdog`]: a wall-clock deadline (shared start
//!   [`std::time::Instant`]), an iteration cap, and a byte ceiling, checked
//!   *cooperatively* — long-running loops call [`checkpoint`] at natural
//!   yield points (Lanczos restarts, Lloyd iterations, agglomerative merges)
//!   and get back [`GuardError::BudgetExceeded`] once a limit is crossed.
//! - [`GuardError`]: the typed failure vocabulary shared by every layer, so
//!   a panic caught in a `par` worker, an injected fault, and an exhausted
//!   budget all travel the same degradation path in `core::pipeline`.
//! - Failpoints: `BOOTES_FAILPOINTS="lanczos.restart=err@3,kmeans.iter=panic@1"`
//!   deterministically injects a typed error (or a panic) at the Nth hit of a
//!   named site; `site=err%0.01` fires probabilistically from a seeded stream
//!   (`BOOTES_FAILPOINT_SEED`), `site=delay:25ms` widens race windows, and
//!   `site=kill` aborts without unwinding for crash drills. The facility is a
//!   single relaxed atomic load when unset, so production runs pay nothing.
//!   [`ScopedFailpoints`] arms a spec in-process for a lexical scope, holding
//!   a process-wide lock so scopes never overlap, and restores the previous
//!   spec on drop.
//!
//! # Checkpoint protocol
//!
//! Every instrumented loop calls [`checkpoint("site.name")`](checkpoint) once
//! per outer iteration. The call:
//!
//! 1. fires any armed failpoint registered for `site.name` (error or panic),
//! 2. ticks the global iteration counter and compares it, plus the elapsed
//!    wall-clock time, against the armed [`Budget`] (if any).
//!
//! Byte ceilings are checked at allocation sites via [`check_bytes`], fed by
//! the caller's explicit `MemTracker`-style accounting.
//!
//! # Scoping
//!
//! Budgets are armed process-globally (the preprocessing pipeline is one
//! logical request at a time in the CLI); [`Budget::arm`] returns an RAII
//! [`ArmedBudget`] that restores the previously armed budget on drop, so
//! nested scopes and tests compose. The serving daemon additionally scopes
//! admission *per tenant* through [`TenantBudgets`], whose RAII
//! [`TenantPermit`] releases in-flight request/byte accounting on drop.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
mod error;
mod failpoint;
mod tenant;

pub use budget::{check_bytes, checkpoint, ArmedBudget, Budget, Watchdog};
pub use error::{panic_message, GuardError, Resource};
pub use failpoint::{current_failpoints, fail_point, ScopedFailpoints};
pub use tenant::{TenantBudgets, TenantPermit, TenantPolicy};

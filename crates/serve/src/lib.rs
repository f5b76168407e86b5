//! bootes-serve: a long-running reorder/decision daemon.
//!
//! The one-shot CLI pays the full startup cost (process spawn, model load,
//! cold cache) per matrix. This crate keeps the [`BootesPipeline`] and the
//! process-global artifact cache resident in a daemon that serves concurrent
//! `preprocess` / `decide` requests over a Unix or TCP socket, speaking
//! newline-delimited JSON (see [`protocol`]).
//!
//! Each connection has one thread, and it does all of the work for the
//! requests it reads: parse, admit, wait for an execution slot, run, answer.
//! Three properties are load-bearing:
//!
//! - **Bounded admission** — every request is either admitted under a
//!   per-tenant [`bootes_guard::TenantBudgets`] permit to wait, in arrival
//!   order, for one of a fixed number of execution slots, or is rejected
//!   *immediately* with a well-formed `retry_after_ms` response. The number
//!   of waiting requests is capped too; there is no unbounded queueing
//!   anywhere.
//! - **Singleflight coalescing** — concurrent requests whose inputs hash to
//!   the same `(kind, pattern, config)` cache key block on one in-flight
//!   computation and share its result, so a thundering herd of identical
//!   matrices costs one preprocess (and primes the cache for the next
//!   herd). See [`bootes_cache::Singleflight`].
//! - **Graceful drain** — a `shutdown` request stops admission, lets
//!   in-flight work finish within a grace window, then revokes stragglers
//!   through a zero-time [`bootes_guard::Budget`] so the degradation chain
//!   completes them cheaply. The shutdown response is sent only after the
//!   drain, so no admitted request loses its response.
//!
//! Observability: the daemon publishes `serve.*` metrics (waiting-request
//! depth and wait/exec latency histograms, coalesce and cache hits,
//! admission rejects, per-tenant admitted bytes) through `bootes-obs` when
//! profiling is enabled — see the metric catalog in `bootes_obs`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use protocol::{MatrixPayload, Request, Response, ServerStats};
pub use server::{start, ServeConfig, ServerHandle};

use bootes_core::{BootesConfig, BootesPipeline, DriftConfig};
use bootes_model::DecisionTree;

/// Builds the daemon's pipeline: `model` over the default Bootes
/// configuration, with drift donor reuse configured by `drift` (`None`
/// turns it off, the daemon's `--no-donor`). Without a model the daemon
/// runs [`bootes_core::toy_tree`] with k = 8, so startup needs no model file
/// and no corpus run.
///
/// # Errors
///
/// Returns the model-validation error text.
pub fn build_pipeline(
    model: Option<DecisionTree>,
    drift: Option<DriftConfig>,
) -> Result<BootesPipeline, String> {
    let model = match model {
        Some(model) => model,
        None => bootes_core::toy_tree(8).map_err(|e| e.to_string())?,
    };
    Ok(BootesPipeline::new(model, BootesConfig::default())
        .map_err(|e| e.to_string())?
        .with_drift(drift))
}

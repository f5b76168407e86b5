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

use bootes_core::{BootesPipeline, Label, FEATURE_NAMES};
use bootes_model::{Dataset, DecisionTree, TreeConfig};

/// A deterministic built-in decision tree used when the daemon is started
/// without `--model`: it advises reordering with k = 8 for sparse inputs
/// (density below ~1%) and no reorder for dense ones — the same synthetic
/// two-point construction the pipeline unit tests and benches use. Training
/// is instant (20 samples), so daemon startup needs no model file and no
/// corpus run.
///
/// # Panics
///
/// Never in practice: the synthetic dataset is statically valid.
pub fn default_model() -> DecisionTree {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..20 {
        let dense = i % 2 == 0;
        let mut f = vec![3.0; FEATURE_NAMES.len()];
        f[2] = if dense { 0.9 } else { 0.001 };
        x.push(f);
        y.push(if dense { 0 } else { 3 });
    }
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    #[allow(clippy::expect_used)]
    {
        let ds = Dataset::new(x, y, names, Label::N_CLASSES).expect("valid toy dataset");
        DecisionTree::fit(&ds, &TreeConfig::default()).expect("toy tree fits")
    }
}

/// Builds the daemon's pipeline: the given model (or [`default_model`]) over
/// the default Bootes configuration.
///
/// # Errors
///
/// Returns the model-validation error text.
pub fn build_pipeline(model: Option<DecisionTree>) -> Result<BootesPipeline, String> {
    build_pipeline_with_drift(model, Some(bootes_core::DriftConfig::default()))
}

/// [`build_pipeline`] with an explicit drift donor configuration: `None`
/// disables donor reuse entirely (the daemon's `--no-donor`), `Some` tunes
/// the resplice-vs-recompute threshold (`--drift-threshold`).
///
/// # Errors
///
/// Returns the model-validation error text.
pub fn build_pipeline_with_drift(
    model: Option<DecisionTree>,
    drift: Option<bootes_core::DriftConfig>,
) -> Result<BootesPipeline, String> {
    let model = model.unwrap_or_else(default_model);
    Ok(
        BootesPipeline::new(model, bootes_core::BootesConfig::default())
            .map_err(|e| e.to_string())?
            .with_drift(drift),
    )
}

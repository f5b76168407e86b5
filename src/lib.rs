#![warn(missing_docs)]
//! # Bootes
//!
//! A reproduction of *"Bootes: Boosting the Efficiency of Sparse Accelerators
//! Using Spectral Clustering"* (MICRO 2025): spectral-clustering row
//! reordering for row-wise-product SpGEMM accelerators, with a decision-tree
//! cost model that predicts when reordering pays off and which cluster count
//! to use.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`sparse`]: CSR/CSC/COO matrices, the serial SpGEMM reference, similarity products.
//! - [`linalg`]: Lanczos eigensolver, normalized Laplacian, k-means++.
//! - [`reorder`]: the Gamma, Graph and Hier baselines behind one trait.
//! - [`core`]: the Bootes spectral reorderer, features and pipeline.
//! - [`model`]: CART decision tree and random forest.
//! - [`accel`]: the row-wise-dataflow accelerator simulator
//!   (Flexagon / GAMMA / Trapezoid configurations).
//! - [`workloads`]: synthetic matrix generators and the evaluation suite.
//! - [`obs`]: spans, metrics and profile export behind `--profile` /
//!   `BOOTES_PROFILE=1` (see the module docs for the full metric catalog).
//! - [`par`]: deterministic scoped-thread parallelism behind `--threads` /
//!   `BOOTES_THREADS` (ordered-merge combinators; serial-identical output).
//! - [`guard`]: resource budgets (`--time-budget-ms` / `--mem-budget-mb`),
//!   the graceful-degradation machinery, and deterministic fault injection
//!   behind `BOOTES_FAILPOINTS` (see the README "Failure semantics &
//!   budgets" section).
//! - [`perf`]: the statistically rigorous bench runner (warmup + repeats,
//!   median/MAD), the append-only run history, blessed baselines, and the
//!   noise-aware regression comparator behind `bootes perf diff`.
//! - [`drift`]: incremental reordering for drifting matrices — donor lookup
//!   over cached sketches, changed-row resplicing, and the drift-threshold
//!   fallback decision (see the README "Drift & donor reuse" section).
//! - [`serve`]: the long-running reorder/decision daemon behind
//!   `bootes serve` — newline-delimited JSON over Unix/TCP sockets with
//!   bounded admission, per-tenant budgets, singleflight coalescing and
//!   graceful drain (see the README "Serving" section).
//!
//! # Quickstart
//!
//! ```
//! use bootes::core::{BootesConfig, SpectralReorderer};
//! use bootes::reorder::Reorderer;
//! use bootes::workloads::gen::{clustered, GenConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A matrix with hidden cluster structure, rows scrambled.
//! let a = clustered(&GenConfig::new(256, 256).seed(7), 4, 0.9)?;
//! let reorderer = SpectralReorderer::new(BootesConfig::default().with_k(4));
//! let result = reorderer.reorder(&a)?;
//! let reordered = result.permutation.apply_rows(&a)?;
//! assert_eq!(reordered.nnz(), a.nnz());
//! # Ok(())
//! # }
//! ```

pub use bootes_accel as accel;
pub use bootes_cache as cache;
pub use bootes_chaos as chaos;
pub use bootes_core as core;
pub use bootes_drift as drift;
pub use bootes_guard as guard;
pub use bootes_linalg as linalg;
pub use bootes_model as model;
pub use bootes_obs as obs;
pub use bootes_par as par;
pub use bootes_perf as perf;
pub use bootes_reorder as reorder;
pub use bootes_serve as serve;
pub use bootes_sparse as sparse;
pub use bootes_workloads as workloads;

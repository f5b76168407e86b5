#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Bootes: spectral-clustering row reordering with a cost-aware decision
//! model — the paper's primary contribution.
//!
//! The pipeline (paper §3) is:
//!
//! 1. **Feature extraction** ([`features`]): structural fingerprints of the
//!    input matrix (global sparsity, row/column nonzero variance,
//!    intersection statistics).
//! 2. **Decision** ([`pipeline`]): a trained decision tree predicts whether
//!    reordering will reduce memory traffic enough to justify the
//!    preprocessing (threshold 10% in the paper) and, if so, which cluster
//!    count `k ∈ {2, 4, 8, 16, 32}` to use. [`measure_label`] produces the
//!    tree's training labels by the same 10% rule on measured traffic.
//! 3. **Spectral reordering** ([`spectral`], Algorithm 4): build the binary
//!    similarity matrix `S = Ā·Āᵀ`, form the normalized Laplacian
//!    `L = I − D^{-1/2} S D^{-1/2}`, extract the `k` smallest eigenvectors
//!    with thick-restart Lanczos, k-means the spectral embedding, and emit a
//!    permutation that groups same-cluster rows contiguously.
//!
//! # Example
//!
//! ```
//! use bootes_core::{BootesConfig, SpectralReorderer};
//! use bootes_reorder::Reorderer;
//! use bootes_workloads::gen::{clustered, GenConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = clustered(&GenConfig::new(300, 300).seed(3), 4, 0.95)?;
//! let out = SpectralReorderer::new(BootesConfig::default().with_k(4)).reorder(&a)?;
//! assert_eq!(out.permutation.len(), 300);
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod features;
pub mod pipeline;
pub mod spectral;

pub use bootes_drift::DriftConfig;
pub use config::BootesConfig;
pub use features::{MatrixFeatures, FEATURE_NAMES};
pub use pipeline::{
    measure_label, BootesPipeline, Decision, FallbackReorderer, Label, PipelineError,
    PipelineOutcome, CANDIDATE_KS,
};
pub use spectral::SpectralReorderer;

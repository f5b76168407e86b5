//! Configuration of the spectral reorderer.

use serde::{Deserialize, Serialize};

/// Tuning knobs for [`crate::SpectralReorderer`].
///
/// The defaults follow the paper: `k` is normally chosen by the decision
/// tree from `{2, 4, 8, 16, 32}` (§3.1.2); [`BootesConfig::with_k`] pins it
/// for direct use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootesConfig {
    /// Number of eigenvectors and k-means clusters.
    pub k: usize,
    /// Relative residual tolerance of the Lanczos eigensolver.
    pub eig_tol: f64,
    /// Maximum thick restarts of the eigensolver.
    pub max_restarts: usize,
    /// k-means restarts (lowest inertia wins).
    pub kmeans_n_init: usize,
    /// Maximum Lloyd iterations per k-means restart.
    pub kmeans_max_iter: usize,
    /// Design decision D1: order clusters by Fiedler coordinate and rows
    /// within a cluster by a greedy nearest-neighbor chain in embedding
    /// space, instead of first-seen order. `true` is the Bootes default;
    /// `false` is the ablation baseline.
    pub fiedler_refine: bool,
    /// Extra embedding dimensions beyond `k`: the eigensolver extracts
    /// `min(k + extra_embed.min(k), n − 1)` eigenvectors. The first `k` carry
    /// the cluster structure; the extras expose intra-cluster structure that
    /// the within-cluster ordering exploits (design decision D1b).
    pub extra_embed: usize,
    /// RNG seed shared by the eigensolver start vector and k-means seeding.
    pub seed: u64,
}

impl Default for BootesConfig {
    fn default() -> Self {
        BootesConfig {
            k: 8,
            eig_tol: 1e-3,
            max_restarts: 20,
            kmeans_n_init: 2,
            kmeans_max_iter: 40,
            fiedler_refine: true,
            extra_embed: 8,
            seed: 0xB007E5,
        }
    }
}

impl BootesConfig {
    /// Returns the configuration with `k` replaced.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns the configuration with the RNG seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let c = BootesConfig::default().with_k(16).with_seed(9);
        assert_eq!(c.k, 16);
        assert_eq!(c.seed, 9);
        assert!(c.fiedler_refine);
    }

    #[test]
    fn serde_roundtrip() {
        let c = BootesConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<BootesConfig>(&json).unwrap(), c);
    }
}

#![warn(missing_docs)]
//! Incremental reordering for drifting sparsity patterns.
//!
//! Real iterative-solver and GNN-training workloads re-present *near*-
//! identical matrices step after step: a few rows gain or lose a nonzero,
//! everything else is unchanged. An exact fingerprint cache (`bootes-cache`)
//! misses on every such step and pays the full spectral-reorder cost again.
//! This crate closes that gap with three pieces:
//!
//! 1. [`DriftConfig`] — the knobs: a MinHash sketch configuration (`siglen`,
//!    `seed`), a donor similarity `floor`, and a rows-changed-fraction
//!    `threshold` past which patching is abandoned for a full recompute.
//! 2. [`SimilarityIndex`] — ranks lightweight candidate views of the cached
//!    [`SketchArtifact`]s (whole-matrix MinHash sketches, stored by the
//!    pipeline alongside every permutation) against the incoming matrix's
//!    sketch and returns the nearest *donor* whose estimated Jaccard
//!    similarity clears the floor.
//! 3. [`resplice()`] — given the donor's permutation and the set of rows whose
//!    pattern changed, re-clusters only those rows (exact column-support
//!    Jaccard against the unchanged rows sharing a column, via an inverted
//!    index scoped to the changed rows' columns) and splices them next to
//!    their most similar anchors in the donor order, yielding a valid
//!    permutation without touching the eigensolver.
//!
//! The pipeline integration lives in `bootes-core`: on an exact reorder-key
//! miss it consults the index, resplices below the threshold, and records
//! the decision in `ReorderStats` (`donor_fingerprint`, `rows_respliced`,
//! `drift_fallback`). Counters: `drift.donor_hits`, `drift.resplices`,
//! `drift.fallbacks` (see the `bootes-obs` metric catalog).

pub mod index;
pub mod resplice;

use bootes_cache::SketchArtifact;
use bootes_reorder::lsh::MatrixSketch;
use bootes_sparse::{CsrMatrix, Fnv1a};

pub use bootes_sparse::row_pattern_hashes;
pub use index::{DonorMatch, SimilarityIndex};
pub use resplice::{changed_rows, resplice, DriftError};

/// Configuration of the drift donor path.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftConfig {
    /// Rows-changed fraction above which the resplice is abandoned and the
    /// permutation fully recomputed. `0.0` always falls back (any change is
    /// too much); `1.0` never does.
    pub threshold: f64,
    /// Minimum estimated whole-matrix Jaccard similarity for a cached entry
    /// to qualify as a donor. Below the floor the lookup reports no donor.
    pub floor: f64,
    /// MinHash signature length of the similarity sketches. Longer
    /// signatures sharpen the Jaccard estimate at linear cost in sketch
    /// compute and storage.
    pub siglen: usize,
    /// Seed of the MinHash hash family. Sketches from different seeds are
    /// incomparable, so the seed is part of the sketch cache key.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 0.25,
            floor: 0.6,
            siglen: 96,
            seed: 0xB007E5,
        }
    }
}

impl DriftConfig {
    /// Sets the fallback threshold (rows-changed fraction).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the donor similarity floor.
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = floor;
        self
    }

    /// Sets the MinHash signature length.
    pub fn with_siglen(mut self, siglen: usize) -> Self {
        self.siglen = siglen.max(1);
        self
    }

    /// Sets the MinHash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The drift decision: `true` when `changed` out of `nrows` rows exceed
    /// the threshold fraction and the donor must be abandoned for a full
    /// recompute. An empty delta never falls back; an empty matrix never
    /// falls back (there is nothing to recompute).
    pub fn should_fallback(&self, changed: usize, nrows: usize) -> bool {
        if changed == 0 || nrows == 0 {
            return false;
        }
        changed as f64 / nrows as f64 > self.threshold
    }

    /// Hash of the sketch-affecting knobs (`siglen`, `seed`) — the `config`
    /// component of sketch cache keys. `threshold` and `floor` are runtime
    /// decisions that do not change what a sketch *is*, so they are
    /// deliberately excluded: tightening the threshold must not orphan every
    /// stored sketch.
    pub fn sketch_config_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str("drift.sketch")
            .write_u64(self.siglen as u64)
            .write_u64(self.seed);
        h.finish()
    }
}

/// Computes the [`SketchArtifact`] of `a` under `cfg` — the entry the
/// pipeline stores alongside every cached permutation so later near-identical
/// matrices can find it.
pub fn sketch_of(a: &CsrMatrix, cfg: &DriftConfig) -> SketchArtifact {
    artifact_of(
        a,
        cfg,
        MatrixSketch::compute(a, cfg.siglen, cfg.seed),
        row_pattern_hashes(a),
    )
}

/// The [`SketchArtifact`] of `a` assembled from its `sketch` (computed under
/// `cfg`) and its [`row_pattern_hashes`]: [`sketch_of`] for a caller that
/// already holds both, so `a` is not hashed again.
pub fn artifact_of(
    a: &CsrMatrix,
    cfg: &DriftConfig,
    sketch: MatrixSketch,
    row_hashes: Vec<u64>,
) -> SketchArtifact {
    SketchArtifact {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        siglen: cfg.siglen,
        seed: cfg.seed,
        sketch: sketch.into_values(),
        row_hashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::CooMatrix;

    fn small() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 6);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 3, 1.0).unwrap();
        coo.push(2, 5, 1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn row_hashes_detect_pattern_changes_only() {
        let a = small();
        let mut coo = CooMatrix::new(3, 6);
        coo.push(0, 0, 9.0).unwrap(); // value change only
        coo.push(0, 3, 9.0).unwrap();
        coo.push(2, 4, 1.0).unwrap(); // pattern change
        let b = coo.to_csr();
        let ha = row_pattern_hashes(&a);
        let hb = row_pattern_hashes(&b);
        assert_eq!(ha[0], hb[0], "values do not affect the pattern hash");
        assert_eq!(ha[1], hb[1], "empty rows agree");
        assert_ne!(ha[2], hb[2], "moved nonzero changes the hash");
    }

    #[test]
    fn fallback_decision_honors_threshold_edges() {
        let zero = DriftConfig::default().with_threshold(0.0);
        let one = DriftConfig::default().with_threshold(1.0);
        for changed in 1..=10usize {
            assert!(zero.should_fallback(changed, 10));
            assert!(!one.should_fallback(changed, 10));
        }
        assert!(!zero.should_fallback(0, 10), "no delta, no fallback");
        let mid = DriftConfig::default().with_threshold(0.25);
        assert!(!mid.should_fallback(2, 10));
        assert!(mid.should_fallback(3, 10));
    }

    #[test]
    fn sketch_config_hash_tracks_sketch_knobs_only() {
        let base = DriftConfig::default();
        assert_eq!(
            base.sketch_config_hash(),
            base.clone()
                .with_threshold(0.9)
                .with_floor(0.1)
                .sketch_config_hash()
        );
        assert_ne!(
            base.sketch_config_hash(),
            base.clone().with_siglen(32).sketch_config_hash()
        );
        assert_ne!(
            base.sketch_config_hash(),
            base.clone().with_seed(1).sketch_config_hash()
        );
    }

    #[test]
    fn sketch_of_matches_direct_computation() {
        let a = small();
        let cfg = DriftConfig::default().with_siglen(16);
        let art = sketch_of(&a, &cfg);
        assert_eq!(art.nrows, 3);
        assert_eq!(art.ncols, 6);
        assert_eq!(art.nnz, 3);
        assert_eq!(
            art.sketch,
            MatrixSketch::compute(&a, 16, cfg.seed).values().to_vec()
        );
        assert_eq!(art.row_hashes, row_pattern_hashes(&a));
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = DriftConfig::default().with_threshold(0.5).with_floor(0.75);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DriftConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}

//! The four cached artifact families and their serialized form.

use bootes_linalg::Eigenpairs;
use bootes_reorder::ReorderStats;
use bootes_sparse::Permutation;

use crate::key::ArtifactKind;

/// A cached final row permutation with the stats of the run that produced it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReorderArtifact {
    /// The permutation to apply.
    pub permutation: Permutation,
    /// Stats of the original (cold) computation. Consumers serving a hit
    /// override the wall-clock fields; see `ReorderStats::cache_hit`.
    pub stats: ReorderStats,
}

/// Cached converged Ritz pairs of a normalized-Laplacian eigensolve, reused
/// verbatim on an exact key hit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RitzArtifact {
    /// The stored eigenpairs (values, vectors, residuals, solve counters).
    pub pairs: Eigenpairs,
}

/// A cached cost-model verdict: the structural feature vector and the class
/// index the decision tree predicted for it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DecisionArtifact {
    /// The extracted feature vector (pattern-only features).
    pub features: Vec<f64>,
    /// Predicted class index (see `bootes_core::Label::to_class`).
    pub class: usize,
}

/// A cached whole-matrix similarity sketch: the MinHash signature over the
/// nonzero-cell set plus one FNV pattern hash per row. The sketch locates the
/// nearest cached donor when the exact reorder key misses; the row hashes
/// identify exactly which rows drifted so the resplice only re-clusters
/// those.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SketchArtifact {
    /// Row count of the sketched matrix (donors must match exactly).
    pub nrows: usize,
    /// Column count of the sketched matrix (donors must match exactly).
    pub ncols: usize,
    /// Nonzero count, for diagnostics.
    pub nnz: usize,
    /// MinHash signature length the sketch was computed with.
    pub siglen: usize,
    /// Hash seed the sketch was computed with.
    pub seed: u64,
    /// The `siglen` MinHash values (see `bootes_reorder::lsh::MatrixSketch`).
    pub sketch: Vec<u64>,
    /// FNV-1a hash of each row's column indices.
    pub row_hashes: Vec<u64>,
}

/// A lightweight view of one cached sketch for the drift donor index: the
/// signature and shape without the per-row hashes. Enumerating candidates
/// (`Cache::sketch_candidates`) clones one of these per cached pattern, so
/// leaving the `nrows`-long row-hash vector behind keeps the probe cost
/// proportional to `candidates × siglen`; the winner's full
/// [`SketchArtifact`] is fetched separately (`Cache::sketch_donor`).
#[derive(Debug, Clone, PartialEq)]
pub struct SketchCandidate {
    /// Pattern hash of the sketched matrix (the candidate's cache-key
    /// pattern).
    pub pattern: u64,
    /// Row count of the sketched matrix.
    pub nrows: usize,
    /// Column count of the sketched matrix.
    pub ncols: usize,
    /// The MinHash signature values.
    pub sig: Vec<u64>,
    /// When the sketch entered the memory layer: the insertion tick of its
    /// entry (larger is newer; lookups do not change it). 0 for a sketch
    /// found only on disk, so such candidates rank as the oldest.
    pub stamp: u64,
}

impl SketchArtifact {
    /// The lightweight donor-index view of this artifact, stored under
    /// `pattern` with insertion tick `stamp`.
    pub fn candidate(&self, pattern: u64, stamp: u64) -> SketchCandidate {
        SketchCandidate {
            pattern,
            nrows: self.nrows,
            ncols: self.ncols,
            sig: self.sketch.clone(),
            stamp,
        }
    }
}

/// Any cacheable preprocessing artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A final permutation + stats.
    Reorder(ReorderArtifact),
    /// Converged Ritz pairs.
    Ritz(RitzArtifact),
    /// A cost-model feature vector + predicted class.
    Decision(DecisionArtifact),
    /// A drift similarity sketch.
    Sketch(SketchArtifact),
}

impl Artifact {
    /// The artifact family, for key consistency checks.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Reorder(_) => ArtifactKind::Reorder,
            Artifact::Ritz(_) => ArtifactKind::Ritz,
            Artifact::Decision(_) => ArtifactKind::Decision,
            Artifact::Sketch(_) => ArtifactKind::Sketch,
        }
    }

    /// Approximate heap footprint in bytes, used for the LRU byte
    /// accounting. Counts the dominant payload arrays plus a small constant
    /// per structure; allocator overhead and `Vec` spare capacity are
    /// deliberately ignored (same convention as `bootes_reorder::vec_bytes`).
    pub fn approx_bytes(&self) -> usize {
        const STRUCT_OVERHEAD: usize = 64;
        match self {
            Artifact::Reorder(a) => {
                STRUCT_OVERHEAD
                    + a.permutation.len() * std::mem::size_of::<usize>()
                    + a.stats.algorithm.len()
                    + a.stats.degraded_from.as_ref().map_or(0, String::len)
                    + a.stats.degrade_reason.as_ref().map_or(0, String::len)
            }
            Artifact::Ritz(a) => {
                let vecs: usize = a
                    .pairs
                    .eigenvectors
                    .iter()
                    .map(|v| v.len() * std::mem::size_of::<f64>())
                    .sum();
                STRUCT_OVERHEAD
                    + vecs
                    + (a.pairs.eigenvalues.len() + a.pairs.residuals.len())
                        * std::mem::size_of::<f64>()
            }
            Artifact::Decision(a) => {
                STRUCT_OVERHEAD + a.features.len() * std::mem::size_of::<f64>()
            }
            Artifact::Sketch(a) => {
                STRUCT_OVERHEAD + (a.sketch.len() + a.row_hashes.len()) * std::mem::size_of::<u64>()
            }
        }
    }
}

// Tagged-object encoding: `{"kind": "<tag>", "data": {...}}`. Written by
// hand because the enum carries payloads and the vendored derive only
// handles named-field structs.
impl serde::Serialize for Artifact {
    fn serialize(&self) -> serde::Value {
        let data = match self {
            Artifact::Reorder(a) => a.serialize(),
            Artifact::Ritz(a) => a.serialize(),
            Artifact::Decision(a) => a.serialize(),
            Artifact::Sketch(a) => a.serialize(),
        };
        serde::Value::Object(vec![
            (
                "kind".to_string(),
                self.kind().tag().to_string().serialize(),
            ),
            ("data".to_string(), data),
        ])
    }
}

impl serde::Deserialize for Artifact {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let tag = v
            .get("kind")
            .and_then(|t| t.as_str())
            .ok_or_else(|| serde::Error::custom("artifact missing string field kind"))?;
        let kind = ArtifactKind::from_tag(tag)
            .ok_or_else(|| serde::Error::custom(format!("unknown artifact kind {tag:?}")))?;
        let data = v
            .get("data")
            .ok_or_else(|| serde::Error::custom("artifact missing field data"))?;
        Ok(match kind {
            ArtifactKind::Reorder => Artifact::Reorder(serde::Deserialize::deserialize(data)?),
            ArtifactKind::Ritz => Artifact::Ritz(serde::Deserialize::deserialize(data)?),
            ArtifactKind::Decision => Artifact::Decision(serde::Deserialize::deserialize(data)?),
            ArtifactKind::Sketch => Artifact::Sketch(serde::Deserialize::deserialize(data)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_reorder() -> Artifact {
        Artifact::Reorder(ReorderArtifact {
            permutation: Permutation::try_new(vec![2, 0, 1]).unwrap(),
            stats: ReorderStats::new("bootes", Duration::from_millis(5), 4096),
        })
    }

    fn sample_ritz() -> Artifact {
        Artifact::Ritz(RitzArtifact {
            pairs: Eigenpairs {
                eigenvalues: vec![0.5, 1.25],
                eigenvectors: vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]],
                matvecs: 12,
                restarts: 1,
                residuals: vec![1e-9, 3e-9],
            },
        })
    }

    fn sample_decision() -> Artifact {
        Artifact::Decision(DecisionArtifact {
            features: vec![1.0, 0.25, 0.001],
            class: 3,
        })
    }

    fn sample_sketch() -> Artifact {
        Artifact::Sketch(SketchArtifact {
            nrows: 4,
            ncols: 8,
            nnz: 9,
            siglen: 4,
            seed: 0xB007E5,
            sketch: vec![3, u64::MAX, 17, 0],
            row_hashes: vec![11, 22, 33, 44],
        })
    }

    #[test]
    fn all_kinds_roundtrip_through_json() {
        for artifact in [
            sample_reorder(),
            sample_ritz(),
            sample_decision(),
            sample_sketch(),
        ] {
            let json = serde_json::to_string(&artifact).unwrap();
            let back: Artifact = serde_json::from_str(&json).unwrap();
            assert_eq!(artifact, back);
            assert_eq!(artifact.kind(), back.kind());
        }
    }

    #[test]
    fn unknown_kind_is_an_error_not_a_panic() {
        let bad = r#"{"kind":"weights","data":{}}"#;
        assert!(serde_json::from_str::<Artifact>(bad).is_err());
        let missing = r#"{"data":{}}"#;
        assert!(serde_json::from_str::<Artifact>(missing).is_err());
    }

    #[test]
    fn byte_accounting_scales_with_payload() {
        let small = sample_decision().approx_bytes();
        let big = Artifact::Decision(DecisionArtifact {
            features: vec![0.0; 1000],
            class: 0,
        })
        .approx_bytes();
        assert!(big > small + 7000, "{big} vs {small}");
        // The dominant Ritz payload is the eigenvector block.
        assert!(sample_ritz().approx_bytes() >= 64 + 6 * 8 + 4 * 8);
    }
}

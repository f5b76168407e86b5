//! Cache keys: artifact kind + content fingerprint + configuration hash.

use bootes_sparse::MatrixFingerprint;

/// The kind of preprocessing artifact a cache entry holds.
///
/// The kind is part of the key, so the artifact families of one matrix
/// live in separate entries and can expire independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A final row permutation plus its [`bootes_reorder::ReorderStats`].
    Reorder,
    /// Converged Lanczos Ritz pairs of the normalized Laplacian.
    Ritz,
    /// A cost-model feature vector and the predicted class.
    Decision,
    /// A whole-matrix MinHash sketch plus per-row pattern hashes, used by the
    /// drift donor lookup to find near-identical cached permutations.
    Sketch,
}

impl ArtifactKind {
    /// Stable short tag used in on-disk file names and envelopes.
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::Reorder => "reorder",
            ArtifactKind::Ritz => "ritz",
            ArtifactKind::Decision => "decision",
            ArtifactKind::Sketch => "drift.sketch",
        }
    }

    /// Inverse of [`ArtifactKind::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "reorder" => Some(ArtifactKind::Reorder),
            "ritz" => Some(ArtifactKind::Ritz),
            "decision" => Some(ArtifactKind::Decision),
            "drift.sketch" => Some(ArtifactKind::Sketch),
            _ => None,
        }
    }
}

/// Content-addressed key of one cache entry.
///
/// `pattern` is the [`MatrixFingerprint::pattern`] hash — all four artifact
/// kinds are functions of the sparsity pattern only (the spectral reorderer
/// works on the *binary* similarity graph, every cost-model feature is
/// structural, and a drift sketch hashes nonzero positions), so matrices
/// that differ only in their numerical values share entries by
/// construction. `config` hashes every configuration knob the artifact
/// depends on (e.g. the [`bootes_core` `BootesConfig`] for a permutation,
/// the Lanczos parameters for Ritz pairs, the decision-tree identity for a
/// prediction), so changing a knob can never serve a stale artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which artifact family the entry belongs to.
    pub kind: ArtifactKind,
    /// Sparsity-pattern hash of the input matrix.
    pub pattern: u64,
    /// Hash of the producing configuration.
    pub config: u64,
}

impl CacheKey {
    /// Builds a key from a matrix fingerprint and a configuration hash.
    pub fn new(kind: ArtifactKind, fp: &MatrixFingerprint, config: u64) -> Self {
        CacheKey {
            kind,
            pattern: fp.pattern,
            config,
        }
    }

    /// File name of this entry in the on-disk layer:
    /// `{kind}-{pattern:016x}-{config:016x}.json`.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{:016x}-{:016x}.json",
            self.kind.tag(),
            self.pattern,
            self.config
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for kind in [
            ArtifactKind::Reorder,
            ArtifactKind::Ritz,
            ArtifactKind::Decision,
            ArtifactKind::Sketch,
        ] {
            assert_eq!(ArtifactKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(ArtifactKind::from_tag("bogus"), None);
    }

    #[test]
    fn file_names_are_unique_per_key_component() {
        let base = CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: 0xAB,
            config: 0xCD,
        };
        let other_kind = CacheKey {
            kind: ArtifactKind::Ritz,
            ..base
        };
        let other_pattern = CacheKey {
            pattern: 0xAC,
            ..base
        };
        let other_config = CacheKey {
            config: 0xCE,
            ..base
        };
        let names: std::collections::HashSet<String> =
            [base, other_kind, other_pattern, other_config]
                .iter()
                .map(CacheKey::file_name)
                .collect();
        assert_eq!(names.len(), 4);
        assert_eq!(
            base.file_name(),
            "reorder-00000000000000ab-00000000000000cd.json"
        );
    }
}

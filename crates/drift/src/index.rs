//! Ranking cached sketches to find the nearest donor.

use bootes_cache::SketchCandidate;
use bootes_reorder::lsh::MatrixSketch;

/// The chosen donor: its pattern hash and the estimated similarity that
/// qualified it. The donor's per-row hashes (needed to compute the changed
/// set) are fetched from the cache afterwards — only for the winner, never
/// for every candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct DonorMatch {
    /// Pattern hash of the donor matrix (the donor's cache-key pattern).
    pub pattern: u64,
    /// Estimated whole-matrix Jaccard similarity to the query.
    pub similarity: f64,
}

/// A one-shot similarity index over the cached sketches of one sketch
/// configuration.
///
/// Built per lookup from [`bootes_cache::Cache::sketch_candidates`]; the
/// candidate set is small (one sketch per distinct cached pattern), so a
/// linear scan over `siglen`-word signatures is cheaper than maintaining LSH
/// band tables across processes.
pub struct SimilarityIndex {
    entries: Vec<SketchCandidate>,
}

impl SimilarityIndex {
    /// Builds the index from lightweight sketch candidates.
    pub fn new(entries: Vec<SketchCandidate>) -> Self {
        SimilarityIndex { entries }
    }

    /// Number of candidate sketches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most similar candidate to `query` that (a) sketches a matrix of
    /// exactly `nrows x ncols` (a donor permutation must be directly
    /// spliceable), (b) is not the query's own pattern, and (c) clears the
    /// similarity `floor`. Returns `None` when nothing qualifies — never a
    /// donor below the floor.
    ///
    /// Candidates rank by estimated similarity (highest first), then by
    /// [`SketchCandidate::stamp`] (newest first), then by pattern hash
    /// (smallest first), so the pick depends on the order in which the
    /// sketches were put into the cache, never on their order in the index.
    /// The estimate saturates on near-identical matrices (at `siglen` 96 it
    /// reads 1.000 against a drifting matrix's donors up to a dozen steps
    /// old); among those the newest is usually the one that differs in the
    /// fewest rows.
    pub fn best_donor(
        &self,
        query: &MatrixSketch,
        nrows: usize,
        ncols: usize,
        exclude_pattern: u64,
        floor: f64,
    ) -> Option<DonorMatch> {
        self.entries
            .iter()
            .filter(|c| c.pattern != exclude_pattern && c.nrows == nrows && c.ncols == ncols)
            .map(|c| (query.estimate_jaccard(&c.sig), c))
            .filter(|(sim, _)| *sim >= floor)
            .max_by(|(sim_a, a), (sim_b, b)| {
                sim_a
                    .total_cmp(sim_b)
                    .then(a.stamp.cmp(&b.stamp))
                    .then(b.pattern.cmp(&a.pattern))
            })
            .map(|(similarity, c)| DonorMatch {
                pattern: c.pattern,
                similarity,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sketch_of, DriftConfig};
    use bootes_sparse::{CooMatrix, CsrMatrix};

    fn banded(n: usize, shift: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for d in 0..3 {
                coo.push(r, (r + d + shift) % n, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn perturbed(a: &CsrMatrix, rows: &[usize]) -> CsrMatrix {
        let n = a.nrows();
        let mut coo = CooMatrix::new(n, a.ncols());
        for r in 0..n {
            let (cols, vals) = a.row(r);
            let drop = rows.contains(&r);
            for (i, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                if drop && i == 0 {
                    coo.push(r, (c + 7) % a.ncols(), v).unwrap();
                } else {
                    coo.push(r, c, v).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    fn query_of(a: &CsrMatrix, cfg: &DriftConfig) -> MatrixSketch {
        MatrixSketch::compute(a, cfg.siglen, cfg.seed)
    }

    #[test]
    fn near_identical_matrix_beats_unrelated_one() {
        let cfg = DriftConfig::default();
        let base = banded(64, 0);
        let near = perturbed(&base, &[3, 10]);
        let far = banded(64, 29);
        // The unrelated matrix is the newer entry: similarity ranks first.
        let index = SimilarityIndex::new(vec![
            sketch_of(&near, &cfg).candidate(1, 1),
            sketch_of(&far, &cfg).candidate(2, 2),
        ]);
        let m = index
            .best_donor(&query_of(&base, &cfg), 64, 64, 0, cfg.floor)
            .unwrap();
        assert_eq!(m.pattern, 1, "the drifted twin is the donor");
        assert!(m.similarity >= cfg.floor);
    }

    #[test]
    fn tied_estimates_pick_the_newest_then_the_smallest_pattern() {
        let cfg = DriftConfig::default();
        let base = banded(64, 0);
        let query = query_of(&base, &cfg);
        // Every candidate carries one sketch, so every estimate ties.
        let twin = sketch_of(&perturbed(&base, &[5]), &cfg);
        let pick = |candidates: Vec<(u64, u64)>| {
            let index = SimilarityIndex::new(
                candidates
                    .iter()
                    .map(|&(pattern, stamp)| twin.candidate(pattern, stamp))
                    .collect(),
            );
            index
                .best_donor(&query, 64, 64, 0, cfg.floor)
                .unwrap()
                .pattern
        };
        assert_eq!(pick(vec![(1, 10), (2, 30), (3, 20)]), 2, "newest stamp");
        assert_eq!(pick(vec![(3, 20), (2, 30), (1, 10)]), 2, "any order");
        assert_eq!(pick(vec![(9, 7), (4, 7), (6, 7)]), 4, "smallest pattern");
        // Disk-only candidates (stamp 0) rank below any memory entry.
        assert_eq!(pick(vec![(1, 0), (8, 1)]), 8);
    }

    #[test]
    fn floor_shape_and_self_exclusion_are_enforced() {
        let cfg = DriftConfig::default();
        let base = banded(32, 0);
        let near = perturbed(&base, &[1]);
        let other_shape = banded(16, 0);
        let index = SimilarityIndex::new(vec![
            sketch_of(&near, &cfg).candidate(1, 1),
            sketch_of(&other_shape, &cfg).candidate(2, 2),
        ]);
        let query = query_of(&base, &cfg);
        // A floor of 1.01 can never be cleared.
        assert!(index.best_donor(&query, 32, 32, 0, 1.01).is_none());
        // The query's own pattern never donates to itself.
        assert!(index.best_donor(&query, 32, 32, 1, cfg.floor).is_none());
        // Shape mismatches are filtered before similarity is even estimated:
        // with only the 32x32 twin as a candidate, a 16x16 query finds
        // nothing even at floor 0.
        let only_near = SimilarityIndex::new(vec![sketch_of(&near, &cfg).candidate(1, 1)]);
        assert!(only_near.best_donor(&query, 16, 16, 0, 0.0).is_none());
        assert!(!index.is_empty() && index.len() == 2);
    }
}

//! MinHash locality-sensitive hashing over row column-supports.
//!
//! The Hier baseline (Algorithm 3) avoids an exhaustive pairwise similarity
//! matrix by MinHash + banding: each row's column set is summarized by
//! `siglen` minimum hash values; the signature is cut into bands of `bsize`
//! rows, and two rows become a *candidate pair* whenever any band collides.
//! The collision probability of a band is `jaccard^bsize`, so similar rows
//! collide with high probability while dissimilar ones rarely do.

use std::collections::HashMap;

use bootes_sparse::CsrMatrix;

/// MinHash signatures for every row of a matrix.
#[derive(Debug, Clone)]
pub struct MinHashSignatures {
    siglen: usize,
    /// Row-major `nrows x siglen` signature matrix.
    sig: Vec<u64>,
    nrows: usize,
}

/// A large Mersenne prime used as the hash modulus.
const PRIME: u64 = (1 << 61) - 1;

/// `x % PRIME` by the Mersenne fold: `2^61 ≡ 1 (mod PRIME)`, so the top three
/// bits of `x` add onto its low 61, and the sum (at most `PRIME + 7`) needs
/// one conditional subtraction.
fn mod_prime(x: u64) -> u64 {
    let y = (x & PRIME) + (x >> 61);
    if y >= PRIME {
        y - PRIME
    } else {
        y
    }
}

/// Remainder by a divisor fixed for a whole sketch, as one multiply-high
/// and one conditional subtraction instead of a hardware division.
///
/// With `m = ⌊(2^64 − 1) / d⌋`, the quotient estimate `q = ⌊h·m / 2^64⌋`
/// never exceeds `h / d` and, for `h < 2^61`, falls short of it by less
/// than 1.25, so `h − q·d` lies in `[0, 2d)`. Every hash reduced here is
/// already below `PRIME < 2^61`.
struct Remainder {
    d: u64,
    m: u64,
}

impl Remainder {
    fn new(d: u64) -> Self {
        Remainder { d, m: u64::MAX / d }
    }

    fn of(&self, h: u64) -> u64 {
        debug_assert!(h < 1 << 61, "remainder input {h} is not below 2^61");
        let q = ((u128::from(h) * u128::from(self.m)) >> 64) as u64;
        let r = h - q * self.d;
        if r >= self.d {
            r - self.d
        } else {
            r
        }
    }
}

fn hash_params(siglen: usize, seed: u64) -> Vec<(u64, u64)> {
    // Deterministic splitmix64 stream for the (a, b) pairs.
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..siglen)
        .map(|_| (next() % (PRIME - 1) + 1, next() % PRIME))
        .collect()
}

impl MinHashSignatures {
    /// Computes `siglen` MinHash values per row of `a`.
    ///
    /// Empty rows receive the all-`u64::MAX` signature, which never collides
    /// with a non-empty row's bands (their band hashes are segregated).
    pub fn compute(a: &CsrMatrix, siglen: usize, seed: u64) -> Self {
        let params = hash_params(siglen, seed);
        let nrows = a.nrows();
        let mut sig = vec![u64::MAX; nrows * siglen];
        for r in 0..nrows {
            let (cols, _) = a.row(r);
            let row_sig = &mut sig[r * siglen..(r + 1) * siglen];
            for &c in cols {
                for (s, &(ha, hb)) in row_sig.iter_mut().zip(&params) {
                    let h = (ha.wrapping_mul(c as u64 + 1).wrapping_add(hb)) % PRIME;
                    if h < *s {
                        *s = h;
                    }
                }
            }
        }
        MinHashSignatures { siglen, sig, nrows }
    }

    /// The signature of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.sig[r * self.siglen..(r + 1) * self.siglen]
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Signature length.
    pub fn siglen(&self) -> usize {
        self.siglen
    }

    /// Estimated Jaccard similarity between rows `i` and `j`: the fraction of
    /// matching signature positions.
    pub fn estimate_jaccard(&self, i: usize, j: usize) -> f64 {
        if self.siglen == 0 {
            return 0.0;
        }
        let matches = self
            .row(i)
            .iter()
            .zip(self.row(j))
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.siglen as f64
    }

    /// Heap bytes used by the signature matrix (for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.sig.len() * std::mem::size_of::<u64>()
    }

    /// Generates candidate pairs by banding: the signature is split into
    /// bands of `bsize` values and rows sharing any band hash are paired.
    /// Pairs are deduplicated and returned with `i < j`. Rows whose band is
    /// entirely `u64::MAX` (empty rows) are skipped.
    pub fn candidate_pairs(&self, bsize: usize) -> Vec<(usize, usize)> {
        let bsize = bsize.clamp(1, self.siglen.max(1));
        let nbands = if self.siglen == 0 {
            0
        } else {
            self.siglen / bsize
        };
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for band in 0..nbands {
            buckets.clear();
            for r in 0..self.nrows {
                let slice = &self.row(r)[band * bsize..(band + 1) * bsize];
                if slice.iter().all(|&v| v == u64::MAX) {
                    continue;
                }
                // FNV-style fold of the band values.
                let mut h = 0xcbf29ce484222325u64 ^ (band as u64);
                for &v in slice {
                    h = (h ^ v).wrapping_mul(0x100000001b3);
                }
                buckets.entry(h).or_default().push(r);
            }
            for rows in buckets.values() {
                for (ai, &i) in rows.iter().enumerate() {
                    for &j in &rows[ai + 1..] {
                        pairs.push((i.min(j), i.max(j)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// A whole-matrix MinHash sketch over the set of nonzero *cells*
/// `(row, col)`, using the same Carter–Wegman hash family as the per-row
/// [`MinHashSignatures`] in its one-permutation form: each cell is hashed
/// once and routed to bucket `h % siglen`, which keeps the minimum hash it
/// sees.
///
/// Two sketches computed with the same `(siglen, seed)` estimate the Jaccard
/// similarity of the two matrices' nonzero-cell sets — near 1.0 for a matrix
/// that drifted by a few entries, near 0.0 for unrelated patterns. This is
/// the similarity measure behind the drift donor lookup (`bootes-drift`):
/// cheap to compute (`O(nnz)` — one hash per cell, independent of the
/// signature length), cheap to store (`siglen` words), and comparable
/// without access to either matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixSketch {
    sig: Vec<u64>,
}

impl MatrixSketch {
    /// Computes a `siglen`-bucket one-permutation MinHash sketch of `a`'s
    /// nonzero cells.
    ///
    /// An empty matrix gets the all-`u64::MAX` sketch (every bucket empty),
    /// which estimates similarity 1.0 only against another empty matrix of
    /// any shape (shape filtering is the caller's concern).
    pub fn compute(a: &CsrMatrix, siglen: usize, seed: u64) -> Self {
        let siglen = siglen.max(1);
        let (ha, hb) = hash_params(1, seed)[0];
        let mut sig = vec![u64::MAX; siglen];
        let buckets = Remainder::new(siglen as u64);
        let ncols = a.ncols() as u64;
        for r in 0..a.nrows() {
            let (cols, _) = a.row(r);
            for &c in cols {
                // 1-based flat cell id, same convention as the row hashing
                // above (0 would collapse under `a * x`).
                let cell = (r as u64) * ncols + c as u64 + 1;
                let h = mod_prime(ha.wrapping_mul(cell).wrapping_add(hb));
                let bucket = buckets.of(h) as usize;
                if h < sig[bucket] {
                    sig[bucket] = h;
                }
            }
        }
        MatrixSketch { sig }
    }

    /// The signature values.
    pub fn values(&self) -> &[u64] {
        &self.sig
    }

    /// The signature values, moved out (e.g. into a cached artifact).
    pub fn into_values(self) -> Vec<u64> {
        self.sig
    }

    /// Signature length.
    pub fn siglen(&self) -> usize {
        self.sig.len()
    }

    /// Estimated Jaccard similarity of the two nonzero-cell sets, against
    /// `other`, the signature values of another sketch (borrowed, e.g. from
    /// a cached artifact): the fraction of matching positions among buckets
    /// that at least one sketch filled (both-empty buckets carry no evidence
    /// and are skipped, so two sparse but unrelated patterns do not look
    /// similar just by leaving the same buckets empty). Two all-empty
    /// sketches — two empty matrices — estimate 1.0. Sketches of different
    /// lengths (different configurations) are incomparable and estimate 0.
    pub fn estimate_jaccard(&self, other: &[u64]) -> f64 {
        if self.sig.is_empty() || self.sig.len() != other.len() {
            return 0.0;
        }
        let mut matches = 0usize;
        let mut informative = 0usize;
        for (a, b) in self.sig.iter().zip(other) {
            if *a == u64::MAX && *b == u64::MAX {
                continue;
            }
            informative += 1;
            if a == b {
                matches += 1;
            }
        }
        if informative == 0 {
            return 1.0;
        }
        matches as f64 / informative as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootes_sparse::CooMatrix;
    use proptest::prelude::*;

    fn matrix_with_identical_and_disjoint_rows() -> CsrMatrix {
        let mut coo = CooMatrix::new(4, 40);
        // Rows 0 and 1 identical; row 2 disjoint; row 3 empty.
        for c in 0..10 {
            coo.push(0, c, 1.0).unwrap();
            coo.push(1, c, 1.0).unwrap();
            coo.push(2, c + 20, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn identical_rows_have_identical_signatures() {
        let a = matrix_with_identical_and_disjoint_rows();
        let s = MinHashSignatures::compute(&a, 16, 1);
        assert_eq!(s.row(0), s.row(1));
        assert_eq!(s.estimate_jaccard(0, 1), 1.0);
    }

    #[test]
    fn disjoint_rows_have_low_estimate() {
        let a = matrix_with_identical_and_disjoint_rows();
        let s = MinHashSignatures::compute(&a, 32, 1);
        assert!(s.estimate_jaccard(0, 2) < 0.3);
    }

    #[test]
    fn candidates_include_identical_pairs_and_skip_empty_rows() {
        let a = matrix_with_identical_and_disjoint_rows();
        let s = MinHashSignatures::compute(&a, 16, 1);
        let pairs = s.candidate_pairs(4);
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.iter().all(|&(i, j)| i != 3 && j != 3));
    }

    #[test]
    fn jaccard_estimate_tracks_truth() {
        // Rows overlapping in half their columns -> jaccard 1/3.
        let mut coo = CooMatrix::new(2, 100);
        for c in 0..50 {
            coo.push(0, c, 1.0).unwrap();
            coo.push(1, c + 25, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let s = MinHashSignatures::compute(&a, 256, 3);
        let est = s.estimate_jaccard(0, 1);
        assert!((est - 1.0 / 3.0).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = matrix_with_identical_and_disjoint_rows();
        let s1 = MinHashSignatures::compute(&a, 8, 42);
        let s2 = MinHashSignatures::compute(&a, 8, 42);
        assert_eq!(s1.row(0), s2.row(0));
        let s3 = MinHashSignatures::compute(&a, 8, 43);
        assert_ne!(s1.row(0), s3.row(0));
    }

    #[test]
    fn empty_matrix_yields_no_candidates() {
        let a = CsrMatrix::zeros(3, 3);
        let s = MinHashSignatures::compute(&a, 8, 0);
        assert!(s.candidate_pairs(2).is_empty());
    }

    /// Pins the sketch of one fixed matrix at a bucket count that is not a
    /// power of two, empty buckets included, so a change to the hash, the
    /// reduction mod `PRIME` or the bucket remainder shows as a diff here.
    #[test]
    fn matrix_sketch_known_answer() {
        let mut coo = CooMatrix::new(6, 10);
        for (r, c) in [
            (0, 0),
            (0, 3),
            (0, 9),
            (1, 1),
            (1, 2),
            (2, 5),
            (3, 0),
            (3, 7),
            (3, 8),
            (4, 4),
            (5, 6),
            (5, 9),
        ] {
            coo.push(r, c, 1.0).unwrap();
        }
        let sketch = MatrixSketch::compute(&coo.to_csr(), 7, 0xB007E5);
        assert_eq!(
            sketch.values(),
            [
                624020327726979204,
                u64::MAX,
                480242360900213102,
                u64::MAX,
                18273071754113481,
                u64::MAX,
                309832441924449863,
            ]
        );
    }

    #[test]
    fn fold_and_remainder_are_exact_at_the_edges() {
        for x in [
            0,
            1,
            PRIME - 1,
            PRIME,
            PRIME + 1,
            PRIME + 7,
            2 * PRIME,
            2 * PRIME + 1,
            1 << 61,
            (1 << 62) - 1,
            1 << 63,
            u64::MAX - PRIME,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(mod_prime(x), x % PRIME, "x = {x}");
        }
        for d in [1, 2, 3, 7, 32, 63, 64, 96, 100, 1000, 4095, 4096] {
            let rem = Remainder::new(d);
            for h in [
                0,
                1,
                d - 1,
                d,
                d + 1,
                2 * d - 1,
                2 * d,
                PRIME - d,
                PRIME - 1,
            ] {
                assert_eq!(rem.of(h), h % d, "h = {h}, d = {d}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Both reductions `MatrixSketch::compute` uses equal the `%` they
        /// replace: the fold over all of `u64` (`u64::MAX` is covered by the
        /// edge test), the remainder for every `siglen` up to 4096 over the
        /// hash range below 2^61.
        #[test]
        fn fold_and_remainder_match_the_modulo(
            x in 0u64..u64::MAX,
            d in 1u64..4097,
            h in 0u64..(1 << 61),
        ) {
            prop_assert_eq!(mod_prime(x), x % PRIME);
            prop_assert_eq!(Remainder::new(d).of(h), h % d);
        }
    }
}

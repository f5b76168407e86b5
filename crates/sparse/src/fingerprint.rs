//! Deterministic content fingerprints of sparse matrices.
//!
//! The preprocessing artifact cache (`bootes-cache`) keys every stored
//! artifact on the *content* of the input matrix, not on its provenance: the
//! same matrix loaded from two different files, or rebuilt from a COO
//! triplet stream, must map to the same cache entry. [`MatrixFingerprint`]
//! provides that key as a 64-bit FNV-1a **pattern hash**: a fold of the
//! shape (`nrows`, `ncols`) plus, per row, its length and its row hash, the
//! FNV-1a hash of the row's column indices ([`row_pattern_hashes`]) —
//! everything that defines the sparsity pattern. Every cached artifact is a
//! function of the pattern alone (the spectral reorderer works on the
//! *binary* similarity graph, the structural feature extractor counts
//! nonzeros), so matrices that differ only in values share entries. The
//! drift donor path compares the same row hashes to find the rows that
//! changed, so a caller that needs both walks the indices once
//! ([`MatrixFingerprint::from_row_hashes`]).
//!
//! Every word is folded in through its little-endian byte encoding
//! (`u64::to_le_bytes`), except each row hash, which is folded as one word
//! (one xor, one multiply): its eight bytes are all live, and eight byte
//! steps per row made `MatrixFingerprint::of` slower than the direct walk
//! over the indices it replaced.
//! So the fingerprint is a pure function of the logical matrix — stable
//! across platforms of either endianness, across serialization round-trips,
//! and across process runs (FNV is unkeyed; no per-process hash seeding is
//! involved).
//!
//! A word's zero high bytes are folded as one multiply: FNV-1a turns a zero
//! byte into `h · P` (`h ^ 0 = h`), so `k` trailing zero bytes are exactly
//! `h · Pᵏ`. Column indices and row lengths fill one or two of their eight
//! bytes, which makes the serial multiply chain about 3× shorter, with the
//! same values as the byte-at-a-time FNV-1a.
//!
//! This scheme is `bootes-cache`'s `FORMAT_VERSION` 2. Any change to it
//! moves every cache key, so it must bump that version (see the
//! known-answer test below).

use crate::csr::CsrMatrix;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POW[k] = FNV_PRIME^k` (wrapping): folding `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Incremental FNV-1a 64-bit hasher over little-endian words.
///
/// Deliberately *not* `std::hash::Hasher`: the std `Hasher` contract allows
/// platform- and release-dependent output, while cache keys must be stable
/// enough to survive on disk between runs.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Starts a fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds one `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        // Bytes up to the highest nonzero one go through the byte loop; the
        // zero bytes above it fold into a single multiply by a prime power.
        let live = 8 - (v.leading_zeros() / 8) as usize;
        self.write_bytes(&v.to_le_bytes()[..live]);
        self.0 = self.0.wrapping_mul(PRIME_POW[8 - live]);
        self
    }

    /// Folds one `usize` widened to `u64` (so 32- and 64-bit targets agree).
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Folds one `u64` as a single word, one xor and one multiply: for
    /// words that are themselves hashes, whose eight bytes are all live.
    fn write_word(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
        self
    }

    /// Folds one `f64` through its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Folds a string's UTF-8 bytes, length-prefixed so concatenations of
    /// different splits cannot collide.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of each row's column-index pattern. Two rows hash equal iff
/// (modulo FNV collisions) their column supports are identical, so comparing
/// the vectors of two same-shape matrices yields exactly the rows that
/// drifted. This is the one walk over the indices: [`MatrixFingerprint`]
/// folds its result.
pub fn row_pattern_hashes(a: &CsrMatrix) -> Vec<u64> {
    (0..a.nrows())
        .map(|r| {
            let mut h = Fnv1a::new();
            for &c in a.row(r).0 {
                h.write_usize(c);
            }
            h.finish()
        })
        .collect()
}

/// Content fingerprint of a [`CsrMatrix`]: shape, nonzero count, and the
/// pattern hash described at module level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixFingerprint {
    /// Number of rows of the fingerprinted matrix.
    pub nrows: usize,
    /// Number of columns of the fingerprinted matrix.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// Hash of the shape plus each row's length and row hash (the sparsity
    /// pattern).
    pub pattern: u64,
}

impl MatrixFingerprint {
    /// Computes the fingerprint of `a` in one pass over its indices.
    pub fn of(a: &CsrMatrix) -> Self {
        Self::from_row_hashes(a, &row_pattern_hashes(a))
    }

    /// The fingerprint of `a` from its [`row_pattern_hashes`], without
    /// walking the indices again: equal to [`MatrixFingerprint::of`]`(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `row_hashes` does not hold one hash per row of `a`.
    pub fn from_row_hashes(a: &CsrMatrix, row_hashes: &[u64]) -> Self {
        assert_eq!(row_hashes.len(), a.nrows(), "one row hash per row");
        let mut h = Fnv1a::new();
        h.write_usize(a.nrows()).write_usize(a.ncols());
        for (r, &row) in row_hashes.iter().enumerate() {
            h.write_usize(a.row_nnz(r)).write_word(row);
        }
        MatrixFingerprint {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            pattern: h.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::try_new(
            3,
            4,
            vec![0, 2, 2, 4],
            vec![0, 3, 1, 2],
            vec![1.0, -2.5, 0.5, 4.0],
        )
        .unwrap()
    }

    fn pattern(a: &CsrMatrix) -> u64 {
        MatrixFingerprint::of(a).pattern
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(
            MatrixFingerprint::of(&sample()),
            MatrixFingerprint::of(&sample())
        );
    }

    #[test]
    fn known_answer_locks_the_byte_scheme() {
        // Golden values: any change to the hashing scheme (byte order, word
        // widths, field order) invalidates every on-disk cache entry and must
        // bump the cache format version. Regenerate deliberately if so.
        let fp = MatrixFingerprint::of(&sample());
        assert_eq!(fp.pattern, 0x3bca07ad730e0e03, "{:#x}", fp.pattern);
        // The row hashes are the ones stored sketches carry; the empty row
        // hashes to the offset basis.
        assert_eq!(
            row_pattern_hashes(&sample()),
            [0xa71ae6c26beeae86, FNV_OFFSET, 0x7717980363c8e066]
        );
    }

    #[test]
    fn values_do_not_touch_the_pattern_hash() {
        let a = sample();
        let mut coo = CooMatrix::new(3, 4);
        for (r, c, v) in a.iter() {
            coo.push(r, c, v * 3.0 + 1.0).unwrap();
        }
        let b = coo.to_csr();
        assert_eq!(pattern(&a), pattern(&b));
    }

    #[test]
    fn pattern_changes_move_the_pattern_hash() {
        let a = sample();
        let b = CsrMatrix::try_new(
            3,
            4,
            vec![0, 2, 2, 4],
            vec![0, 3, 1, 3], // one column index moved
            vec![1.0, -2.5, 0.5, 4.0],
        )
        .unwrap();
        assert_ne!(pattern(&a), pattern(&b));
    }

    #[test]
    fn shape_is_part_of_the_pattern() {
        // Same arrays, one extra (empty) trailing row / wider column space.
        let a = CsrMatrix::try_new(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).unwrap();
        let b = CsrMatrix::try_new(3, 2, vec![0, 1, 1, 1], vec![0], vec![1.0]).unwrap();
        let c = CsrMatrix::try_new(2, 3, vec![0, 1, 1], vec![0], vec![1.0]).unwrap();
        assert_ne!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c));
    }

    /// Plain byte-at-a-time FNV-1a over `v`'s little-endian bytes: the
    /// definition the folded `write_u64` must agree with.
    fn fold_bytes(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The zero-byte fold equals the byte-at-a-time fold for any word
        /// from any start state. `shift` strips high bytes so every count of
        /// zero bytes is drawn; 0, `u64::MAX` and every power of two are
        /// checked from each drawn start state as well.
        #[test]
        fn write_u64_equals_the_byte_fold(
            start in 0u64..u64::MAX,
            word in 0u64..u64::MAX,
            shift in 0u32..65,
        ) {
            let drawn = word.checked_shr(shift).unwrap_or(0);
            let edges = [0, u64::MAX].into_iter().chain((0..64).map(|k| 1u64 << k));
            for v in std::iter::once(drawn).chain(edges) {
                let mut h = Fnv1a(start);
                h.write_u64(v);
                prop_assert_eq!(h.finish(), fold_bytes(start, v), "word {:#x} from {:#x}", v, start);
            }
        }
    }

    #[test]
    fn hasher_helpers_compose() {
        let mut a = Fnv1a::new();
        a.write_str("ab").write_u64(7);
        let mut b = Fnv1a::new();
        b.write_str("ab").write_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv1a::new();
        c.write_str("a").write_str("b7");
        assert_ne!(a.finish(), c.finish(), "length prefix must separate splits");
    }
}

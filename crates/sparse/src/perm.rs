//! Validated row permutations.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A permutation of `0..n`, stored in the paper's convention: `perm[new] = old`.
///
/// Every reordering algorithm in the workspace produces a `Permutation` `P`
/// such that row `i` of the reordered matrix is row `P[i]` of the original
/// (Algorithm 1/2/3/4 all emit this "array of the final row permutation").
///
/// # Example
///
/// ```
/// use bootes_sparse::{CsrMatrix, Permutation};
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// let a = CsrMatrix::try_new(3, 1, vec![0, 1, 2, 3], vec![0, 0, 0], vec![1.0, 2.0, 3.0])?;
/// let p = Permutation::try_new(vec![2, 0, 1])?;
/// let b = p.apply_rows(&a)?;
/// assert_eq!(b.get(0, 0), 3.0); // new row 0 is old row 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<usize>,
}

impl Permutation {
    /// Creates the identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            new_to_old: (0..n).collect(),
        }
    }

    /// Builds a permutation from a `new -> old` index array, validating that
    /// it is a bijection on `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if any index is out of
    /// range or repeated.
    pub fn try_new(new_to_old: Vec<usize>) -> Result<Self, SparseError> {
        let n = new_to_old.len();
        let mut seen = vec![false; n];
        for &old in &new_to_old {
            if old >= n {
                return Err(SparseError::InvalidPermutation(format!(
                    "index {old} out of range for length {n}"
                )));
            }
            if seen[old] {
                return Err(SparseError::InvalidPermutation(format!(
                    "index {old} appears more than once"
                )));
            }
            seen[old] = true;
        }
        Ok(Permutation { new_to_old })
    }

    /// Length of the permuted domain.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// The `new -> old` mapping as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.new_to_old
    }

    /// Returns the inverse permutation (`old -> new` becomes `new -> old`).
    ///
    /// Applying the inverse to a reordered matrix restores the original row
    /// order — the "post-processing" step the paper counts in preprocessing
    /// time (§5.4).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.new_to_old.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { new_to_old: inv }
    }

    /// Composes `self` after `other`: the result maps `new` through `self`
    /// then `other`, i.e. `result[i] = other[self[i]]`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if lengths differ.
    pub fn compose(&self, other: &Permutation) -> Result<Permutation, SparseError> {
        if self.len() != other.len() {
            return Err(SparseError::InvalidPermutation(format!(
                "cannot compose permutations of lengths {} and {}",
                self.len(),
                other.len()
            )));
        }
        Ok(Permutation {
            new_to_old: self
                .new_to_old
                .iter()
                .map(|&mid| other.new_to_old[mid])
                .collect(),
        })
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.new_to_old.iter().enumerate().all(|(i, &o)| i == o)
    }

    /// Applies the permutation to the rows of a CSR matrix: row `i` of the
    /// result is row `self[i]` of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a.nrows() != len()`.
    pub fn apply_rows(&self, a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
        // Failpoint-only site (no budget tick): applying an already-computed
        // permutation must succeed even after the preprocessing budget ran
        // out, or the fallback chain's output would be unusable.
        bootes_guard::fail_point("sparse.permute")?;
        if a.nrows() != self.len() {
            return Err(SparseError::DimensionMismatch {
                left: (self.len(), self.len()),
                right: a.shape(),
            });
        }
        let mut indptr = Vec::with_capacity(a.nrows() + 1);
        let mut indices = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        indptr.push(0);
        for &old in &self.new_to_old {
            let (cols, vals) = a.row(old);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_parts_unchecked(
            a.nrows(),
            a.ncols(),
            indptr,
            indices,
            values,
        ))
    }
}

impl From<Permutation> for Vec<usize> {
    fn from(p: Permutation) -> Vec<usize> {
        p.new_to_old
    }
}

// Serialized as the bare `new -> old` index array (not a struct wrapper):
// the JSON form is exactly what the paper calls "the array of the final row
// permutation", and deserialization re-validates bijectivity through
// `try_new` so a hand-edited or corrupted file cannot smuggle in an invalid
// permutation.
impl serde::Serialize for Permutation {
    fn serialize(&self) -> serde::Value {
        self.new_to_old.serialize()
    }
}

impl serde::Deserialize for Permutation {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let raw: Vec<usize> = serde::Deserialize::deserialize(v)?;
        Permutation::try_new(raw)
            .map_err(|e| serde::Error::custom(format!("invalid permutation: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrips_and_validates() {
        let p = Permutation::try_new(vec![2, 0, 1]).unwrap();
        let v = serde::Serialize::serialize(&p);
        let back: Permutation = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(p, back);
        // A non-bijective array must be rejected at deserialization time.
        let bad = serde::Serialize::serialize(&vec![0usize, 0, 1]);
        assert!(<Permutation as serde::Deserialize>::deserialize(&bad).is_err());
    }

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn rejects_duplicate() {
        assert!(Permutation::try_new(vec![0, 0, 1]).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Permutation::try_new(vec![0, 3]).is_err());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::try_new(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.compose(&inv).unwrap().is_identity() || inv.compose(&p).unwrap().is_identity());
        // Both directions must be the identity for a true inverse.
        assert!(p.compose(&inv).unwrap().is_identity());
        assert!(inv.compose(&p).unwrap().is_identity());
    }

    #[test]
    fn apply_rows_then_inverse_restores() {
        let a =
            CsrMatrix::try_new(3, 2, vec![0, 1, 2, 3], vec![0, 1, 0], vec![1.0, 2.0, 3.0]).unwrap();
        let p = Permutation::try_new(vec![1, 2, 0]).unwrap();
        let b = p.apply_rows(&a).unwrap();
        assert_eq!(b.get(0, 1), 2.0);
        let restored = p.inverse().apply_rows(&b).unwrap();
        assert_eq!(restored, a);
    }

    #[test]
    fn apply_rows_rejects_wrong_size() {
        let a = CsrMatrix::zeros(3, 3);
        let p = Permutation::identity(2);
        assert!(p.apply_rows(&a).is_err());
    }

    #[test]
    fn compose_rejects_length_mismatch() {
        let p = Permutation::identity(2);
        let q = Permutation::identity(3);
        assert!(p.compose(&q).is_err());
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
    }
}

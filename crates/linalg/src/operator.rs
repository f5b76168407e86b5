//! Matrix-free symmetric linear operators.

use bootes_sparse::CsrMatrix;

/// A square linear operator `y = A x` applied matrix-free.
///
/// The Lanczos eigensolver only touches the operator through this trait, so
/// callers can pass an explicit [`CsrMatrix`] or an implicit operator (the
/// normalized Laplacian of spectral ordering) without materializing it.
///
/// Implementations must be *symmetric*: `xᵀ(Ay) == yᵀ(Ax)`. The eigensolver
/// does not verify this; violating it silently yields garbage eigenpairs.
pub trait LinearOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != dim()` or `y.len() != dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols(), "operator must be square");
        self.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Chunked SpMV, bit-identical to the serial matvec (small matrices
        // take the serial path inside par_matvec_into).
        self.par_matvec_into(x, y, bootes_par::threads());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_operator_applies() {
        let a = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        let mut y = vec![0.0; 2];
        a.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
        assert_eq!(LinearOperator::dim(&a), 2);
    }
}

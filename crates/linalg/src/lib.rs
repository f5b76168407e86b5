#![warn(missing_docs)]
//! Numerical linear algebra for the Bootes reproduction.
//!
//! The paper's spectral-clustering step (Algorithm 4) relies on two library
//! calls: `scipy.sparse.linalg.eigsh` (a restarted Krylov eigensolver) and
//! `sklearn.cluster.KMeans`. This crate implements both from scratch:
//!
//! - [`laplacian::normalized_laplacian`]: `L = I − D^{-1/2} S D^{-1/2}`,
//! - [`lanczos::lanczos_smallest`]: thick-restart Lanczos with full
//!   reorthogonalization for the `k` algebraically smallest eigenpairs of a
//!   symmetric operator,
//! - [`tridiag::tridiag_eigen`]: implicit-QL eigensolver for the Lanczos
//!   tridiagonal matrices (plain, non-restarted path),
//! - [`jacobi::jacobi_eigen`]: cyclic Jacobi for the small dense projected
//!   matrices of the thick-restart path,
//! - [`kmeans::kmeans`]: Lloyd iterations with k-means++ seeding,
//! - [`operator::LinearOperator`]: the matrix-free operator abstraction.
//!
//! # Example
//!
//! ```
//! use bootes_linalg::lanczos::{lanczos_smallest, LanczosConfig};
//! use bootes_sparse::CsrMatrix;
//!
//! # fn main() -> Result<(), bootes_linalg::LinalgError> {
//! let a = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0, 4.0, 5.0]);
//! let eig = lanczos_smallest(&a, 2, &LanczosConfig::default())?;
//! assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-8);
//! assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod jacobi;
pub mod kmeans;
pub mod lanczos;
pub mod laplacian;
pub mod operator;
pub mod tridiag;
pub mod vecops;

pub use error::LinalgError;
pub use kmeans::{kmeans, kmeans_threads, KMeansConfig, KMeansResult};
pub use lanczos::{lanczos_smallest, Eigenpairs, LanczosConfig};
pub use laplacian::normalized_laplacian;
pub use operator::LinearOperator;

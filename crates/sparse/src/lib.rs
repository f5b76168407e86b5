#![warn(missing_docs)]
//! Sparse matrix substrate for the Bootes reproduction.
//!
//! This crate provides the sparse-matrix data structures and kernels that every
//! other layer of the system is built on:
//!
//! - [`CooMatrix`]: coordinate-format builder for incremental construction,
//! - [`CsrMatrix`]: compressed sparse row, the workhorse format (the paper keeps
//!   `A`, the similarity matrix and the Laplacian in CSR throughout),
//! - [`CscMatrix`]: compressed sparse column, used for column-coordinate lookups
//!   by the Gamma and Graph reordering baselines,
//! - [`Permutation`]: validated row permutations,
//! - the one SpGEMM kernel, row-wise (Gustavson) with a per-row adaptive
//!   accumulator, and the binary `A·Aᵀ` similarity product built on it
//!   ([`ops`]),
//! - Matrix Market I/O ([`io`]) and pattern statistics ([`stats`]).
//!
//! # Example
//!
//! ```
//! use bootes_sparse::{CooMatrix, ops};
//!
//! # fn main() -> Result<(), bootes_sparse::SparseError> {
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0)?;
//! coo.push(1, 1, 3.0)?;
//! coo.push(2, 0, 1.0)?;
//! let a = coo.to_csr();
//! let c = ops::spgemm(&a, &a, 1)?;
//! assert_eq!(c.get(0, 0), 4.0);
//! # Ok(())
//! # }
//! ```

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod fingerprint;
pub mod io;
pub mod ops;
pub mod perm;
pub mod schedule;
mod scratch;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use fingerprint::{row_pattern_hashes, Fnv1a, MatrixFingerprint};
pub use perm::Permutation;

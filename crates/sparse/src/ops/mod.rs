//! Sparse kernels: SpGEMM, transposition, similarity products.

pub mod block;
pub mod elementwise;
pub mod similarity;
pub mod spgemm;
pub mod transpose;

pub use block::{block_spgemm, BlockSparseMatrix};
pub use elementwise::{add_scaled, frobenius_norm, scale, spmm};
pub use similarity::similarity_matrix;
pub use spgemm::{dataflow_costs, spgemm, spgemm_flops, DataflowCost};

//! Sparse kernels: row-wise and block-tiled SpGEMM, transposition, and the
//! binary `A·Aᵀ` similarity product.

pub mod block;
pub mod similarity;
pub mod spgemm;
pub mod transpose;

pub use block::{block_spgemm, BlockSparseMatrix};
pub use similarity::similarity_matrix;
pub use spgemm::{dataflow_costs, spgemm, spgemm_flops, DataflowCost};

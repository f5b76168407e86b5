//! Sparse kernels: the row-wise SpGEMM, transposition, and the binary
//! `A·Aᵀ` similarity product built on it.

pub mod similarity;
pub mod spgemm;
pub mod transpose;

pub use similarity::similarity_matrix;
pub use spgemm::{dataflow_costs, spgemm, spgemm_flops, DataflowCost};

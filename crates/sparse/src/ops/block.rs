//! Block-sparse (tiled) storage and SpGEMM — the TileSpGEMM-style
//! alternative of the paper's §2.2.
//!
//! Prior work mitigates the row-wise product's cache thrashing by *tiling*
//! instead of reordering: TileSpGEMM divides the matrix into fixed
//! `16×16` sub-blocks and multiplies block-by-block, bounding every
//! partial-product working set by the block size. This module implements
//! that approach so the reordering-vs-tiling trade-off can be measured
//! (`kernels` bench, `block_spgemm` group).

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// The tile edge length used by TileSpGEMM.
pub const DEFAULT_BLOCK: usize = 16;

/// A sparse matrix stored as a block-CSR of sparse tiles.
///
/// Block `(I, J)` covers rows `I·b .. (I+1)·b` and the matching column range.
/// Only non-empty tiles are stored; each tile keeps its entries as
/// `(local_row, local_col, value)` triplets in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSparseMatrix {
    nrows: usize,
    ncols: usize,
    block: usize,
    /// Block-row pointer array (`block_rows + 1` entries).
    bindptr: Vec<usize>,
    /// Block-column index per stored tile.
    bindices: Vec<usize>,
    /// Entries of each stored tile.
    tiles: Vec<Vec<(u16, u16, f64)>>,
}

impl BlockSparseMatrix {
    /// Converts a CSR matrix into block-sparse form with the given tile edge.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `block == 0` or exceeds
    /// `u16::MAX + 1` (tile-local coordinates are 16-bit).
    pub fn from_csr(a: &CsrMatrix, block: usize) -> Result<Self, SparseError> {
        if block == 0 || block > u16::MAX as usize + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "block size {block} outside 1..=65536"
            )));
        }
        let block_rows = a.nrows().div_ceil(block);
        let block_cols = a.ncols().div_ceil(block);
        let mut bindptr = Vec::with_capacity(block_rows + 1);
        let mut bindices = Vec::new();
        let mut tiles: Vec<Vec<(u16, u16, f64)>> = Vec::new();
        bindptr.push(0);
        // Per block-row, bucket entries by block column.
        let mut buckets: Vec<Vec<(u16, u16, f64)>> = vec![Vec::new(); block_cols];
        let mut touched: Vec<usize> = Vec::new();
        for bi in 0..block_rows {
            for bucket in &mut buckets {
                bucket.clear();
            }
            touched.clear();
            let row_lo = bi * block;
            let row_hi = (row_lo + block).min(a.nrows());
            for r in row_lo..row_hi {
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let bj = c / block;
                    if buckets[bj].is_empty() {
                        touched.push(bj);
                    }
                    buckets[bj].push(((r - row_lo) as u16, (c - bj * block) as u16, v));
                }
            }
            touched.sort_unstable();
            for &bj in &touched {
                bindices.push(bj);
                tiles.push(std::mem::take(&mut buckets[bj]));
            }
            bindptr.push(bindices.len());
        }
        Ok(BlockSparseMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            block,
            bindptr,
            bindices,
            tiles,
        })
    }

    /// Number of rows of the underlying matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the underlying matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Tile edge length.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of stored (non-empty) tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// Mean fill of the stored tiles (entries per tile / tile capacity).
    pub fn mean_tile_fill(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.nnz() as f64 / (self.tiles.len() * self.block * self.block) as f64
    }

    /// Converts back to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = crate::coo::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for bi in 0..self.bindptr.len() - 1 {
            for t in self.bindptr[bi]..self.bindptr[bi + 1] {
                let bj = self.bindices[t];
                for &(r, c, v) in &self.tiles[t] {
                    coo.push(
                        bi * self.block + r as usize,
                        bj * self.block + c as usize,
                        v,
                    )
                    .expect("in range by construction");
                }
            }
        }
        coo.to_csr()
    }
}

/// Tiled SpGEMM: `C = A · B` computed block-by-block (TileSpGEMM's
/// algorithm). Every partial product touches only one `block x block` tile of
/// `B` at a time, which is the data-locality argument of §2.2.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes or block sizes are
/// incompatible.
pub fn block_spgemm(
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
) -> Result<CsrMatrix, SparseError> {
    if a.ncols != b.nrows || a.block != b.block {
        return Err(SparseError::DimensionMismatch {
            left: (a.nrows, a.ncols),
            right: (b.nrows, b.ncols),
        });
    }
    let _span = bootes_obs::span!("spgemm.block");
    let block = a.block;
    let block_cols_b = b.ncols.div_ceil(block);
    let mut coo = crate::coo::CooMatrix::new(a.nrows, b.ncols);
    // Dense accumulators, one per block column of B, reused per block row.
    let mut acc: Vec<Vec<f64>> = vec![vec![0.0; block * block]; block_cols_b];
    let mut dirty: Vec<bool> = vec![false; block_cols_b];

    for bi in 0..a.bindptr.len() - 1 {
        dirty.fill(false);
        for t in a.bindptr[bi]..a.bindptr[bi + 1] {
            let bk = a.bindices[t];
            // Find B's block row bk.
            let lo = b.bindptr[bk];
            let hi = b.bindptr[bk + 1];
            for u in lo..hi {
                let bj = b.bindices[u];
                let target = &mut acc[bj];
                if !dirty[bj] {
                    target.iter_mut().for_each(|v| *v = 0.0);
                    dirty[bj] = true;
                }
                // Sparse tile x sparse tile into the dense accumulator.
                for &(ar, ac_, av) in &a.tiles[t] {
                    for &(br, bc, bv) in &b.tiles[u] {
                        if ac_ == br {
                            target[ar as usize * block + bc as usize] += av * bv;
                        }
                    }
                }
            }
        }
        for (bj, is_dirty) in dirty.iter().enumerate() {
            if !is_dirty {
                continue;
            }
            let tile = &acc[bj];
            for r in 0..block {
                let gr = bi * block + r;
                if gr >= a.nrows {
                    break;
                }
                for c in 0..block {
                    let gc = bj * block + c;
                    if gc >= b.ncols {
                        break;
                    }
                    let v = tile[r * block + c];
                    if v != 0.0 {
                        coo.push(gr, gc, v).expect("in range by construction");
                    }
                }
            }
        }
    }
    Ok(coo.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::ops::spgemm::spgemm;

    fn random_like(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for r in 0..nrows {
            for _ in 0..5 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = ((state >> 33) % ncols as u64) as usize;
                let v = ((state >> 20) % 9) as f64 - 4.0;
                if v != 0.0 {
                    coo.push(r, c, v).ok();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn roundtrip_csr_block_csr() {
        for seed in 0..4 {
            let a = random_like(37, 53, seed);
            let blocked = BlockSparseMatrix::from_csr(&a, DEFAULT_BLOCK).unwrap();
            assert_eq!(blocked.to_csr(), a);
            assert_eq!(blocked.nnz(), a.nnz());
        }
    }

    #[test]
    fn block_spgemm_matches_row_wise() {
        for seed in 0..4 {
            let a = random_like(40, 48, seed);
            let b = random_like(48, 33, seed + 9);
            let ab = BlockSparseMatrix::from_csr(&a, DEFAULT_BLOCK).unwrap();
            let bb = BlockSparseMatrix::from_csr(&b, DEFAULT_BLOCK).unwrap();
            let tiled = block_spgemm(&ab, &bb).unwrap();
            let reference = spgemm(&a, &b, 1).unwrap();
            assert!(
                tiled.to_dense().max_abs_diff(&reference.to_dense()) < 1e-12,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn odd_shapes_and_small_blocks() {
        let a = random_like(17, 19, 5);
        let b = random_like(19, 15, 6);
        for block in [1usize, 3, 16, 32] {
            let ab = BlockSparseMatrix::from_csr(&a, block).unwrap();
            let bb = BlockSparseMatrix::from_csr(&b, block).unwrap();
            let tiled = block_spgemm(&ab, &bb).unwrap();
            let reference = spgemm(&a, &b, 1).unwrap();
            assert_eq!(tiled, reference, "block {block}");
        }
    }

    #[test]
    fn tile_statistics() {
        let a = CsrMatrix::identity(32);
        let blocked = BlockSparseMatrix::from_csr(&a, 16).unwrap();
        assert_eq!(blocked.tile_count(), 2); // two diagonal tiles
        assert!((blocked.mean_tile_fill() - 16.0 / 256.0).abs() < 1e-12);
        assert_eq!(blocked.block_size(), 16);
    }

    #[test]
    fn rejects_incompatible_operands() {
        let a = BlockSparseMatrix::from_csr(&CsrMatrix::zeros(8, 8), 4).unwrap();
        let b = BlockSparseMatrix::from_csr(&CsrMatrix::zeros(8, 8), 8).unwrap();
        assert!(block_spgemm(&a, &b).is_err());
        let c = BlockSparseMatrix::from_csr(&CsrMatrix::zeros(9, 8), 4).unwrap();
        assert!(block_spgemm(&a, &c).is_err());
        assert!(BlockSparseMatrix::from_csr(&CsrMatrix::zeros(4, 4), 0).is_err());
    }

    #[test]
    fn empty_matrix() {
        let blocked = BlockSparseMatrix::from_csr(&CsrMatrix::zeros(10, 10), 16).unwrap();
        assert_eq!(blocked.tile_count(), 0);
        assert_eq!(blocked.mean_tile_fill(), 0.0);
        let product = block_spgemm(&blocked, &blocked).unwrap();
        assert_eq!(product.nnz(), 0);
    }
}

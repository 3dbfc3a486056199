//! Row-sparse tensors: COO storage specialised to whole-row sparsity.
//!
//! An embedding gradient touches only the vocabulary rows present in the
//! batch, so its natural representation is a list of `(row index, row
//! vector)` pairs. This matches what PyTorch produces for
//! `nn.Embedding(sparse=True)` and what Horovod's AllGather path transmits.

use crate::dense::DenseTensor;
use crate::INDEX_BYTES;
use std::sync::Arc;

/// A row-sparse view of a `vocab × dim` matrix: `indices[i]` names the
/// vocabulary row stored in `values.row(i)`.
///
/// Indices may contain duplicates (e.g. a word appearing twice in a batch
/// contributes two gradient rows) until [`crate::coalesce()`] merges them.
///
/// Like [`DenseTensor`], both components are `Arc`-shared: [`Clone`] /
/// [`RowSparse::share`] are O(1), and mutation of the value block is
/// copy-on-write. Indices are immutable once constructed (no mutating
/// accessor exists), so sharing them is always safe.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSparse {
    indices: Arc<Vec<u32>>,
    values: DenseTensor,
}

impl RowSparse {
    /// Build from parallel index/value arrays. Panics when lengths disagree.
    pub fn new(indices: Vec<u32>, values: DenseTensor) -> Self {
        assert_eq!(indices.len(), values.rows(), "one value row per index required");
        Self { indices: Arc::new(indices), values }
    }

    /// An empty gradient for a table with `dim` columns.
    pub fn empty(dim: usize) -> Self {
        Self { indices: Arc::new(Vec::new()), values: DenseTensor::zeros(0, dim) }
    }

    /// O(1) handle onto the same index/value storage (`Arc` bumps); see
    /// [`DenseTensor::share`].
    pub fn share(&self) -> Self {
        Self { indices: Arc::clone(&self.indices), values: self.values.share() }
    }

    /// Wire bytes whose backing buffers are exclusively owned by this
    /// handle — i.e. were materialised rather than shared. A fan-out send
    /// of a [`RowSparse::share`] handle reports 0 copied bytes.
    pub fn copied_nbytes(&self) -> usize {
        let idx =
            if Arc::strong_count(&self.indices) > 1 { 0 } else { self.indices.len() * INDEX_BYTES };
        let vals = if self.values.is_shared() { 0 } else { self.values.nbytes() };
        idx + vals
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    pub fn values(&self) -> &DenseTensor {
        &self.values
    }

    /// Number of stored (possibly duplicate) rows.
    pub fn nnz_rows(&self) -> usize {
        self.indices.len()
    }

    /// Embedding dimension (columns per row).
    pub fn dim(&self) -> usize {
        self.values.cols()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Wire size in COO format: row indices plus the value block.
    pub fn nbytes(&self) -> usize {
        self.indices.len() * INDEX_BYTES + self.values.nbytes()
    }

    /// Fraction of the dense table actually carried (paper's α, by rows).
    pub fn density(&self, vocab: usize) -> f64 {
        if vocab == 0 {
            return 0.0;
        }
        self.indices.len() as f64 / vocab as f64
    }

    /// Materialise as a dense `vocab × dim` matrix, summing duplicate rows —
    /// the semantics AllReduce sees when a sparse gradient is densified.
    pub fn to_dense(&self, vocab: usize) -> DenseTensor {
        let mut out = DenseTensor::zeros(vocab, self.dim());
        crate::merge::scatter_add_rows(&mut out, 0, self);
        out
    }

    /// Extract the rows of a dense matrix that are non-zero, producing the
    /// sparse equivalent (inverse of [`Self::to_dense`] for coalesced input).
    pub fn from_dense_nonzero(dense: &DenseTensor) -> Self {
        let mut indices = Vec::new();
        let mut rows = Vec::new();
        for r in 0..dense.rows() {
            if dense.row(r).iter().any(|&x| x != 0.0) {
                indices.push(r as u32);
                rows.push(dense.gather_rows(&[r as u32]));
            }
        }
        let values = if rows.is_empty() {
            DenseTensor::zeros(0, dense.cols())
        } else {
            DenseTensor::concat_rows(&rows)
        };
        Self { indices: Arc::new(indices), values }
    }

    /// Concatenate several row-sparse gradients (same `dim`) by stacking.
    /// The result is generally uncoalesced.
    pub fn concat(parts: &[RowSparse]) -> Self {
        assert!(!parts.is_empty(), "cannot concatenate zero parts");
        let dim = parts[0].dim();
        let mut indices = Vec::with_capacity(parts.iter().map(|p| p.nnz_rows()).sum());
        let mut blocks = Vec::new();
        for p in parts {
            assert_eq!(p.dim(), dim, "dim mismatch in sparse concat");
            indices.extend_from_slice(&p.indices);
            if !p.is_empty() {
                blocks.push(p.values.clone());
            }
        }
        let values = if blocks.is_empty() {
            DenseTensor::zeros(0, dim)
        } else {
            DenseTensor::concat_rows(&blocks)
        };
        Self { indices: Arc::new(indices), values }
    }

    /// Split a *coalesced* gradient at vocabulary row `row`: the left part
    /// keeps indices `< row`, the right part indices `>= row`. When one
    /// side is empty the other is an O(1) shared handle (no bytes copied) —
    /// the recursive-halving fast path for segments that are entirely on
    /// one side of the split point.
    ///
    /// Panics when the indices are not strictly increasing.
    pub fn split_at_row(&self, row: u32) -> (RowSparse, RowSparse) {
        assert!(
            self.indices.windows(2).all(|w| w[0] < w[1]),
            "split_at_row requires a coalesced gradient"
        );
        let pos = self.indices.partition_point(|&i| i < row);
        if pos == 0 {
            return (RowSparse::empty(self.dim()), self.share());
        }
        if pos == self.indices.len() {
            return (self.share(), RowSparse::empty(self.dim()));
        }
        let left = RowSparse {
            indices: Arc::new(self.indices[..pos].to_vec()),
            values: self.values.slice_rows(0, pos),
        };
        let right = RowSparse {
            indices: Arc::new(self.indices[pos..].to_vec()),
            values: self.values.slice_rows(pos, self.indices.len()),
        };
        (left, right)
    }

    /// Keep only the columns `[start, end)` of every stored row — the
    /// column-wise shard of this gradient owned by one worker (§4.1.1).
    pub fn slice_columns(&self, start: usize, end: usize) -> RowSparse {
        RowSparse {
            indices: Arc::clone(&self.indices),
            values: self.values.slice_columns(start, end),
        }
    }

    /// Scale all stored values.
    pub fn scale(&mut self, alpha: f32) {
        self.values.scale(alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F32_BYTES;

    fn sample() -> RowSparse {
        // rows 3 and 1 of a vocab-4, dim-2 table; row 3 appears twice.
        RowSparse::new(
            vec![3, 1, 3],
            DenseTensor::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 0.5, 0.5]),
        )
    }

    #[test]
    fn nbytes_counts_indices_and_values() {
        let s = sample();
        assert_eq!(s.nbytes(), 3 * INDEX_BYTES + 6 * F32_BYTES);
    }

    #[test]
    fn density_is_row_fraction() {
        let s = sample();
        assert!((s.density(4) - 0.75).abs() < 1e-12);
        assert_eq!(RowSparse::empty(2).density(0), 0.0);
    }

    #[test]
    fn to_dense_sums_duplicates() {
        let d = sample().to_dense(4);
        assert_eq!(d.row(3), &[1.5, 1.5]);
        assert_eq!(d.row(1), &[2.0, 2.0]);
        assert_eq!(d.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn from_dense_nonzero_roundtrip() {
        let d = sample().to_dense(4);
        let s = RowSparse::from_dense_nonzero(&d);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.to_dense(4), d);
    }

    #[test]
    fn concat_stacks_rows() {
        let a = sample();
        let b = RowSparse::new(vec![0], DenseTensor::from_vec(1, 2, vec![9.0, 9.0]));
        let c = RowSparse::concat(&[a.clone(), b]);
        assert_eq!(c.nnz_rows(), 4);
        assert_eq!(c.indices(), &[3, 1, 3, 0]);
        let mut expect = a.to_dense(4);
        expect.row_mut(0).copy_from_slice(&[9.0, 9.0]);
        assert_eq!(c.to_dense(4), expect);
    }

    #[test]
    fn concat_with_empty_part() {
        let c = RowSparse::concat(&[RowSparse::empty(2), sample()]);
        assert_eq!(c.nnz_rows(), 3);
    }

    #[test]
    fn column_slice_keeps_indices() {
        let s = sample();
        let left = s.slice_columns(0, 1);
        assert_eq!(left.indices(), s.indices());
        assert_eq!(left.dim(), 1);
        assert_eq!(left.values().row(1), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "one value row per index")]
    fn mismatched_lengths_panic() {
        let _ = RowSparse::new(vec![1, 2], DenseTensor::zeros(1, 3));
    }
}

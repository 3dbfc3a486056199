//! Dense and row-sparse tensor primitives for the EmbRace reproduction.
//!
//! The EmbRace paper (ICPP'22) manipulates two kinds of data:
//!
//! * **dense tensors** — contiguous `f32` buffers holding the parameters and
//!   gradients of the non-embedding ("dense") part of an NLP model;
//! * **row-sparse tensors** — the gradients of embedding tables, where only
//!   the rows touched by the current batch are non-zero. PyTorch stores these
//!   in COO format; we store them as a sorted-or-unsorted list of row indices
//!   plus a `rows × dim` dense value block, which is exactly the COO layout
//!   specialised to whole-row sparsity.
//!
//! Everything EmbRace's algorithms do to data — `COALESCE`, `UNIQUE`,
//! set intersection, the fused coalesce-and-`INDEX_SELECT` of Algorithm 1,
//! column-wise partitioning (§4.1.1) — is provided here, independent of any
//! communication or scheduling machinery.
//!
//! # Example
//!
//! ```
//! use embrace_tensor::{coalesce, coalesce_split, DenseTensor, RowSparse};
//!
//! // A raw embedding gradient with a duplicate row (token 7 twice).
//! let grad = RowSparse::new(
//!     vec![7, 2, 7],
//!     DenseTensor::from_vec(3, 2, vec![1.0, 1.0, 5.0, 5.0, 2.0, 2.0]),
//! );
//! let c = coalesce(&grad);
//! assert_eq!(c.indices(), &[2, 7]);
//! assert_eq!(c.values().row(1), &[3.0, 3.0]); // 1 + 2 summed
//!
//! // The same sums, with the rows the next batch needs (7 and 9) apart.
//! let (prior, delayed) = coalesce_split(&grad, |id| Some([7, 9].contains(&id)));
//! assert_eq!(prior.indices(), &[7]);
//! assert_eq!(prior.values().row(0), &[3.0, 3.0]);
//! assert_eq!(delayed.indices(), &[2]);
//! ```

#![forbid(unsafe_code)]

mod proptests;

pub mod alloc_counter;
pub mod coalesce;
pub mod dense;
pub mod index;
pub mod kernels;
pub mod merge;
pub mod shard;
pub mod sparse;
pub mod tokens;

pub use coalesce::{coalesce, coalesce_split, is_coalesced};
pub use dense::DenseTensor;
pub use index::{intersect, unique_sorted, IndexSet};
pub use kernels::Unsummed;
pub use merge::merge_rowsparse;
pub use shard::{column_partition, owner_of_row, row_partition, ColumnRange, RowRange};
pub use sparse::RowSparse;
pub use tokens::TokenBuf;

/// Bytes per `f32` element; used throughout the cost model.
pub const F32_BYTES: usize = 4;

/// Bytes used to encode one COO row index on the wire (PyTorch uses i64).
pub const INDEX_BYTES: usize = 8;

/// Bytes used to encode one token id on the wire (`u32`, as token
/// vocabularies fit comfortably in 32 bits).
pub const TOKEN_BYTES: usize = 4;

#[cfg(test)]
mod wire_size_tests {
    use super::{F32_BYTES, INDEX_BYTES, TOKEN_BYTES};

    #[test]
    fn wire_sizes_match_element_types() {
        assert_eq!(F32_BYTES, std::mem::size_of::<f32>());
        assert_eq!(INDEX_BYTES, std::mem::size_of::<i64>());
        assert_eq!(TOKEN_BYTES, std::mem::size_of::<u32>());
    }
}

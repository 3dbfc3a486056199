//! **EmbRace** — the paper's contribution: efficient sparse communication
//! for distributed training of NLP models.
//!
//! Two techniques compose (paper §4):
//!
//! 1. **Sparsity-aware Hybrid Communication** (§4.1): embedding tables are
//!    *column-wise partitioned* across workers (model parallelism inside a
//!    data-parallel job) and their lookup results and gradients travel via
//!    **AlltoAll**, while dense gradients keep the ordinary ring
//!    AllReduce. Implemented functionally in [`hybrid`] over the
//!    `embrace-collectives` mesh, with partition policy in [`partition`].
//!
//! 2. **2D Communication Scheduling** (§4.2): *horizontal* — dense blocks
//!    get priorities in next-FP order and embedding FP is hoisted ahead of
//!    the dense FP ([`horizontal`]); *vertical* — each embedding gradient
//!    is coalesced and split into a *prior* part (rows the next batch
//!    needs, sent at highest priority before the embedding FP) and a
//!    *delayed* part (sent at lowest priority), per Algorithm 1
//!    ([`vertical`]).
//!
//! # Example
//!
//! ```
//! use embrace_core::vertical_split;
//! use embrace_tensor::{DenseTensor, RowSparse};
//!
//! // Algorithm 1: split a gradient by the prefetched next batch.
//! let grad = RowSparse::new(vec![4, 9], DenseTensor::full(2, 3, 1.0));
//! let split = vertical_split(&grad, &[4, 9], &[9, 100]);
//! assert_eq!(split.i_prior, vec![9]);    // reused next step: race it
//! assert_eq!(split.i_delayed, vec![4]);  // idle until step after next
//! ```

#![forbid(unsafe_code)]

pub mod horizontal;
pub mod hybrid;
pub mod partition;
pub mod vertical;

pub use hybrid::ColumnShardedEmbedding;
pub use partition::{column_payload_matrix, row_payload_matrix};
pub use vertical::{vertical_split, VerticalSplit};

//! Baseline distributed-training methods (paper §5.2.3).
//!
//! Every method the paper compares against is a [`MethodId`] that the step
//! simulator (`embrace_trainer::sim`) prices with `embrace_simnet`'s cost
//! model. The Horovod planes also run functionally on the live
//! collectives EmbRace uses:
//!
//! * **Horovod AllReduce** — sparse tensors densified, everything ring-
//!   AllReduced, FIFO communication ([`method`], functional ops in
//!   [`horovod`]);
//! * **Horovod AllGather** — COO sparse gradients AllGather'ed, dense
//!   AllReduced (Horovod ≥ 0.22 default; the convergence baseline of
//!   Fig. 11);
//! * **BytePS** — dense parameter-server push/pull plus ByteScheduler's
//!   tensor partitioning and priority scheduling ([`bytescheduler`]; the
//!   PS itself is cost model only);
//! * **Parallax** — row-partitioned sparse PS for embeddings + AllReduce
//!   for dense parameters (cost model only: `CostModel::ps` with a
//!   host-copy penalty);
//! * **OmniReduce** — block-sparse AllReduce (cost model in
//!   `embrace_simnet::cost`; appears in Fig. 4 only, matching the paper's
//!   1-GPU-per-node restriction).
//!
//! # Example
//!
//! ```
//! use embrace_baselines::bytescheduler::partition_tensor;
//! use embrace_baselines::compression::{dequantize_8bit, quantize_8bit};
//! use embrace_tensor::DenseTensor;
//!
//! // ByteScheduler chunks a 10 MB tensor into 4 MB credits.
//! let chunks = partition_tensor(10e6, 4e6);
//! assert_eq!(chunks.len(), 3);
//!
//! // QSGD-style quantization bounds the per-element error by scale/2.
//! let g = DenseTensor::from_vec(1, 2, vec![1.0, -0.5]);
//! let q = quantize_8bit(&g);
//! assert!(dequantize_8bit(&q).max_abs_diff(&g) <= q.scale / 2.0 + 1e-6);
//! ```

#![forbid(unsafe_code)]

pub mod bytescheduler;
pub mod compression;
pub mod horovod;
pub mod method;

pub use bytescheduler::partition_tensor;
pub use compression::{dequantize_8bit, quantize_8bit, topk_sparsify};
pub use method::MethodId;

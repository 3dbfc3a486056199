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
//! §6's gradient-compression comparators (DGC top-k, QSGD 8-bit) are not
//! methods here: the `ablation_compression` binary prices them by their
//! byte counts alone.
//!
//! # Example
//!
//! ```
//! use embrace_baselines::bytescheduler::partition_tensor;
//!
//! // ByteScheduler chunks a 10 MB tensor into 4 MB credits.
//! let chunks = partition_tensor(10e6, 4e6);
//! assert_eq!(chunks.len(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod bytescheduler;
pub mod horovod;
pub mod method;

pub use bytescheduler::partition_tensor;
pub use method::MethodId;

//! Sharded embedding parameter service for the EmbRace reproduction.
//!
//! [`EmbeddingService`] is the one parameter-server substrate: one
//! instance per SPMD rank, rows placed by a [`PartitionBook`]
//! (contiguous-range or cyclic-hash policies), lookups that read rows
//! one-sidedly from the owners' shard regions behind one barrier (the
//! regions registered once through the collectives layer), gradient
//! pushes over `alltoallv_sparse` or the sparse-native allreduce,
//! per-row optimizer state ([`RowOptimizer`]: SGD / Adagrad) colocated
//! with the shard it updates, and serving counters exported through
//! `embrace-obs`. There is no client-side row cache: every lookup reads
//! the owners' current rows.
//! The paper's PS baselines (BytePS, Parallax) are priced by
//! `embrace_simnet::cost::CostModel::ps`, not run on this crate.
//!
//! Failures are typed [`PsError`]s throughout — no panicking paths on
//! missing rows or shard-boundary ids (the comm-path lint rules cover
//! this crate).

#![forbid(unsafe_code)]

pub mod error;
pub mod optim;
pub mod partition;
pub mod service;

pub use error::PsError;
pub use optim::{OptimizerKind, RowOptimizer};
pub use partition::{PartitionBook, PartitionPolicy};
pub use service::{EmbeddingService, PushTransport, ServiceConfig};

//! Functional collective communication for the EmbRace reproduction.
//!
//! The paper's prototype drives NCCL through Horovod; here the same
//! primitives run over an in-memory full mesh of channels between worker
//! threads. Data really moves and is really reduced — the convergence
//! experiment (paper Fig. 11) and all algebraic identities of hybrid
//! communication are exercised for real, while *timing* is handled
//! separately by `embrace-simnet`'s cost model.
//!
//! Provided primitives (§2.2 of the paper):
//! * [`ops::ring_allreduce`] — bandwidth-optimal ring AllReduce, and its
//!   reduce-scatter and all-gather phases alone ([`ops::try_ring_part`]:
//!   the dense plane, gradient in and updated weights out),
//! * [`ops::allgather_sparse`] — AllGather of COO row-sparse gradients
//!   (Horovod ≥ 0.22 sparse path),
//! * [`ops::alltoall_dense`] / [`ops::alltoallv_sparse`] — the AlltoAll
//!   exchanges EmbRace uses for embedding lookup results and gradients,
//! * [`ops::allgather_tokens`], [`ops::broadcast`], [`ops::barrier`] —
//!   support plumbing (token gathering feeds Algorithm 1's `D_cur`),
//! * [`ops::try_allgather_regions`] — the one-time exchange of
//!   [`Region`] handles behind the embedding service's one-sided reads.
//!
//! # Example
//!
//! ```
//! use embrace_collectives::{ops::ring_allreduce, run_group};
//!
//! let sums = run_group(4, |rank, ep| {
//!     let mut buf = vec![rank as f32; 3];
//!     ring_allreduce(ep, &mut buf);
//!     buf[0]
//! });
//! assert_eq!(sums, vec![6.0; 4]); // 0+1+2+3 on every rank
//! ```

//! # Failure model
//!
//! Communication failure is typed, not fatal: every collective has a
//! `try_` variant returning [`transport::CommError`], faults are injected
//! deterministically through a seeded [`transport::FaultPlan`]
//! ([`transport::mesh_with_faults`]), and [`group::run_group_with_deadline`]
//! guards whole groups with a deadlock watchdog. See the module docs of
//! [`ops`] and [`transport`] for the survivor guarantees.

#![forbid(unsafe_code)]

pub mod elastic;
pub mod group;
pub mod ops;
pub mod schedule;
pub mod scheduler;
pub mod transport;

pub use elastic::{ElasticError, ElasticWorker, ReformOutcome};
pub use group::{
    run_group, run_group_on, run_group_with_deadline, run_group_with_faults, GroupError,
};
pub use scheduler::{
    CommOp, CommResult, CommScheduler, OpTiming, SchedOptions, SubmittedOp, Ticket,
    DEFAULT_CHUNK_BYTES,
};
pub use transport::{
    mesh, mesh_with_faults, slot_mesh, Comm, CommError, Endpoint, FaultPlan, Packet, ReformMsg,
    Region, SegBody, SparseSeg, SEG_HEADER_BYTES,
};

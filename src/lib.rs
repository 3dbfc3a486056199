//! # embrace-repro
//!
//! A pure-Rust reproduction of **EmbRace: Accelerating Sparse
//! Communication for Distributed Training of Deep Neural Networks**
//! (Li et al., ICPP 2022).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense and row-sparse (COO) tensors, `coalesce`,
//!   `coalesce_split`, set ops, partition helpers;
//! * [`simnet`] — cluster topologies, the α–β communication cost model
//!   (paper Table 2) and the discrete-event step simulator;
//! * [`collectives`] — real multi-threaded AllReduce / AllGather /
//!   AlltoAll over an in-memory mesh;
//! * [`ps`] — the sharded embedding service (collective lookup/push,
//!   colocated row optimizers);
//! * [`dlsim`] — the mini DL framework (module graphs, optimizers with
//!   the paper's Adam modification, priority queues, prefetcher, hooks);
//! * [`models`] — LM / GNMT-8 / Transformer / BERT-base specs and
//!   synthetic Zipf workloads;
//! * [`core`] — EmbRace itself: Sparsity-aware Hybrid Communication and
//!   2D Communication Scheduling (Algorithm 1);
//! * [`baselines`] — Horovod AllReduce/AllGather, BytePS(+ByteScheduler),
//!   Parallax, OmniReduce (the PS and OmniReduce planes as cost models);
//! * [`trainer`] — the end-to-end step simulator and the functional
//!   convergence trainer;
//! * [`obs`] — the observability layer: hierarchical spans (wall +
//!   virtual clock domains), metric registry, and Chrome `trace_event`
//!   export (see `embrace_sim trace`).
//!
//! ## Quick taste
//!
//! ```
//! use embrace_repro::core::vertical_split;
//! use embrace_repro::tensor::{DenseTensor, RowSparse};
//!
//! // A raw embedding gradient: batch tokens [5, 1, 5] (token 5 twice).
//! let grad = RowSparse::new(
//!     vec![5, 1, 5],
//!     DenseTensor::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 0.5, 0.5]),
//! );
//! // The next batch (gathered over all workers) will use tokens 5 and 9.
//! let split = vertical_split(&grad, &[5, 1, 5], &[9, 5]);
//! assert_eq!(split.i_prior, vec![5]);     // needed before the next FP
//! assert_eq!(split.i_delayed, vec![1]);   // can be communicated later
//! // Duplicate rows were coalesced on the way.
//! assert_eq!(split.prior.values().row(0), &[1.5, 1.5]);
//! ```

#![forbid(unsafe_code)]

pub use embrace_baselines as baselines;
pub use embrace_collectives as collectives;
pub use embrace_core as core;
pub use embrace_dlsim as dlsim;
pub use embrace_models as models;
pub use embrace_obs as obs;
pub use embrace_ps as ps;
pub use embrace_simnet as simnet;
pub use embrace_tensor as tensor;
pub use embrace_trainer as trainer;

//! Mini deep-learning-framework substrate.
//!
//! EmbRace is implemented in the paper as hooks inside PyTorch + Horovod.
//! This crate rebuilds the parts of that stack the algorithms actually
//! touch:
//!
//! * [`graph`] — the module dependency graph of an NLP model (paper
//!   Fig. 5): embeddings and dense blocks in FP order, with the input
//!   edges that constrain scheduling;
//! * [`embedding`] — a functional embedding table with sparse backward;
//! * [`optim`] — SGD and Adam sparse/dense optimizers, including
//!   the paper's Adam `step`-state modification (§5.7) that makes the
//!   two-part (prior/delayed) update equivalent to a single update;
//! * [`prefetch`] — the next-batch prefetcher Vertical Sparse Scheduling
//!   relies on to know `D_next` (§4.2.2).
//!
//! The prototype's backward hooks, which push each block's communication
//! into a priority queue (§5.1), have no counterpart here: the trainer's
//! step submits every op to the comm scheduler directly, with the
//! priorities `embrace_core::horizontal` states.
//!
//! # Example
//!
//! ```
//! use embrace_dlsim::autograd::Tape;
//! use embrace_tensor::DenseTensor;
//!
//! // Differentiate ½‖x·W‖² with the tape.
//! let mut tape = Tape::new();
//! let x = tape.leaf(DenseTensor::full(1, 2, 1.0), true);
//! let w = tape.leaf(DenseTensor::from_vec(2, 1, vec![3.0, 4.0]), false);
//! let y = tape.matmul(x, w);
//! let loss = tape.mse_loss(y, &DenseTensor::zeros(1, 1));
//! tape.backward(loss);
//! assert_eq!(tape.grad(x).as_slice(), &[21.0, 28.0]); // (x·W)·Wᵀ
//! ```

#![forbid(unsafe_code)]

pub mod autograd;
pub mod embedding;
pub mod fusion;
pub mod graph;
pub mod optim;
pub mod prefetch;

pub use autograd::{NodeId, Tape};
pub use embedding::EmbeddingTable;
pub use fusion::{assign_buckets, Bucket};
pub use graph::{ModelGraph, Module, ModuleKind};
pub use optim::{Adam, Optimizer, Sgd, UpdatePart};
pub use prefetch::Prefetcher;

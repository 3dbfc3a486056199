//! Simulated cluster substrate for the EmbRace reproduction.
//!
//! The paper's quantitative results are functions of *time*: collective
//! latencies under an α–β (startup-latency / bandwidth) model, and training
//! step timelines produced by scheduling compute and communication tasks on
//! GPU streams and a shared network stream. This crate provides:
//!
//! * [`topology`] — cluster shapes (nodes × GPUs/node, GPU kind, link
//!   bandwidths) mirroring the paper's RTX3090 and RTX2080 testbeds;
//! * [`cost`] — analytic communication-cost functions for AlltoAll,
//!   ring-AllReduce, AllGather, Parameter Server and OmniReduce (paper
//!   Table 2 plus the effective-bandwidth refinement of §4.1.2);
//! * [`event`] — the discrete-event engine: a DAG of compute tasks on
//!   per-worker streams and collectives on one shared network, drained
//!   FIFO, by priority, or preemptively;
//! * [`failure`] — the checkpoint/restart vs group-shrink recovery cost
//!   model;
//! * [`trace`] — timeline spans and an ASCII Gantt renderer (paper Figs 2/6).
//!
//! # Example
//!
//! ```
//! use embrace_simnet::{Cluster, CommOrder, CostModel, Sim, Task};
//!
//! // Price a sparse AlltoAll on the paper's 16-GPU RTX3090 testbed.
//! let cm = CostModel::new(Cluster::rtx3090(16));
//! let t = cm.alltoall(12.0 * 1024.0 * 1024.0); // 12 MiB of gradient rows
//! assert!(t > 0.0 && t < 0.05);
//!
//! // Schedule a two-task step on the compute + network streams.
//! let mut sim = Sim::new(CommOrder::Priority);
//! let bp = sim.add(Task::compute("bp", 1e-3));
//! sim.add(Task::comm("grads", 2e-3, 0).after([bp]));
//! let result = sim.run();
//! assert!((result.makespan - 3e-3).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod event;
pub mod failure;
pub mod topology;
pub mod trace;

pub use cost::{CollectiveKind, CostModel};
pub use event::{synchronous_step, CommOrder, QueueSample, Res, Sim, SimResult, Task, TaskId};
pub use failure::{Recovery, RecoveryModel, RecoveryModelError};
pub use topology::{Cluster, GpuKind, NetworkParams};
pub use trace::{Span, Trace};

//! Static analysis for the EmbRace collective stack.
//!
//! Three engines, none of which execute the real transport:
//!
//! * [`plan`] — a per-rank communication-plan IR ([`plan::P2pPlan`] for
//!   point-to-point send/recv sequences, [`plan::SchedulePlan`] for
//!   prioritised collective submissions) plus generators: byte-sizing
//!   folds over `embrace_collectives::schedule` for the data-independent
//!   collectives, simulations for SSAR and re-form, and the 2D schedule
//!   from `embrace_core::horizontal`.
//! * [`verify`] — the static verifier: SPMD multiset/priority
//!   consistency, send/recv pairing (orphan sends, static deadlocks),
//!   byte conservation, exact-once partition coverage, and priority
//!   monotonicity, reported as structured [`verify::Diagnostic`]s with
//!   rank/op provenance. [`verify::PlanMutation`] seeds single defects
//!   for testing that each is caught with the right diagnostic kind.
//! * [`model_check`] — a deterministic interleaving model checker that
//!   interprets those same schedules over virtual links and
//!   exhaustively enumerates message-delivery orders for small worlds,
//!   proving deadlock-freedom, bitwise determinism, and abort
//!   termination.
//! * [`graph`] — wait-for-graph deadlock analysis: the same
//!   deadlock-freedom and byte-conservation guarantees as enumeration,
//!   but structural (cycles as SCCs, conservation in closed form) and
//!   O(ops), so it scales to worlds 64–1024; [`graph::enumerate_p2p`]
//!   is the explicit-state agreement oracle.
//! * [`hb`] — a vector-clock happens-before checker over recorded
//!   scheduler traces from live threaded runs: determinism violations,
//!   priority inversions, unordered conflicting accesses.
//!
//! The [`lint`] module (and the `embrace-lint` binary) is the workspace
//! lint pass enforcing repo rules on comm-path code.

#![forbid(unsafe_code)]

pub mod graph;
pub mod hb;
pub mod lint;
pub mod model_check;
pub mod plan;
pub mod verify;

pub use graph::{analyze_p2p, byte_conservation, enumerate_p2p, graph_deadlocks, WaitGraph};
pub use hb::{check_hb, check_op_timings, HbOp};
pub use model_check::{check, check_collective, CheckConfig, CheckReport, Collective};
pub use plan::{P2pOp, P2pPlan, PlannedCollective, RecordingEndpoint, SchedulePlan};
pub use verify::{
    sort_diagnostics, verify_horizontal, verify_p2p, verify_partition, verify_schedule, Diagnostic,
    DiagnosticKind, PlanMutation,
};

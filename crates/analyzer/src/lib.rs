//! Static analysis for the EmbRace collective stack.
//!
//! A plan IR, two verifiers of it that each prove what the other cannot,
//! and a checker of live traces — none of which execute the real
//! transport:
//!
//! * [`plan`] — a per-rank communication-plan IR ([`plan::P2pPlan`] for
//!   point-to-point send/recv sequences, [`plan::SchedulePlan`] for
//!   prioritised collective submissions) plus generators: byte-sizing
//!   folds over `embrace_collectives::schedule`, the re-form handshake,
//!   and the 2D schedule plan of `embrace_core::horizontal`'s step plan.
//! * [`verify`] — the static verifier. [`verify::verify_p2p`] checks a
//!   point-to-point plan at any world size: send/recv pairing (orphan
//!   sends, static deadlocks, byte conservation per message) and
//!   deadlock-freedom over unbounded or capacity-bounded links, with
//!   wait cycles reported by rank and op. Its siblings check SPMD
//!   multiset/priority consistency, exact-once partition coverage and
//!   priority monotonicity. Findings are structured
//!   [`verify::Diagnostic`]s; [`verify::PlanMutation`] seeds single
//!   defects for testing that each is caught with the right kind.
//! * [`model_check`] — a deterministic interleaving model checker that
//!   interprets those same schedules *with their data* over virtual
//!   links and exhaustively enumerates message-delivery orders for worlds
//!   2–4, proving what a plan cannot express: bitwise determinism, abort
//!   termination under a crash, re-form agreement, per-link queue depth.
//! * [`hb`] — a vector-clock happens-before checker over recorded
//!   scheduler traces from live threaded runs: determinism violations,
//!   priority inversions, unordered conflicting accesses.
//!
//! The [`lint`] module (and the `embrace-lint` binary) is the workspace
//! lint pass enforcing repo rules on comm-path code.

#![forbid(unsafe_code)]

pub mod hb;
pub mod lint;
pub mod model_check;
pub mod plan;
pub mod verify;

pub use hb::{check_hb, check_op_timings, HbOp};
pub use model_check::{check, check_collective, CheckConfig, CheckReport, Collective};
pub use plan::{P2pOp, P2pPlan, PlannedCollective, RecordingEndpoint, SchedulePlan};
pub use verify::{
    sort_diagnostics, verify_horizontal, verify_p2p, verify_partition, verify_schedule, Diagnostic,
    DiagnosticKind, P2pReport, PlanMutation,
};

//! End-to-end training harness: the step simulator behind every
//! throughput/stall figure, and the functional convergence trainer.
//!
//! * [`sim`] — builds a multi-step discrete-event task DAG for any
//!   [`embrace_baselines::MethodId`] × model × cluster combination and
//!   extracts steady-state step time, throughput (tokens/sec, counting
//!   non-padding words as the paper does, §5.2.2) and Computation Stall
//!   (§5.4). Drives Figs 7, 8, 9, 10.
//! * [`real`] — trains a real (small) embedding model through the
//!   functional collectives with EmbRace's hybrid communication + split
//!   Adam updates vs the Horovod-AllGather baseline, demonstrating the
//!   convergence equivalence of Fig. 11. Its `RankState::run_step` is the
//!   one EmbRace step, submitted to the comm scheduler in §5.2's priority
//!   order, and `train_allgather` the one baseline; both are generic over
//!   the model, and every entry point below runs them.
//! * [`lstm`] / [`translation`] — Fig. 11's unrolled-LSTM LM and
//!   encoder/decoder translation proxy: only their initial state, batch
//!   expansion and forward/backward, as models of that step.
//! * [`scheduled`] — the toy's EmbRace training, handing back each rank's
//!   submission log and scheduler observation for the plan verifier and
//!   the happens-before analyzer.
//! * [`chaos`] / [`elastic`] — the step under injected faults: typed
//!   per-rank outcomes, and recovery by group shrink or checkpoint restart.
//! * [`timeline`] — renders the execution timelines of Figs 2/6.
//! * [`report`] — plain-text table formatting shared by the bench
//!   binaries.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod elastic;
pub mod lstm;
pub mod real;
pub mod report;
pub mod scheduled;
pub mod sim;
pub mod timeline;
pub mod translation;

pub use chaos::{run_chaos, standard_scenarios, ChaosConfig, RankOutcome};
pub use elastic::{
    capture_state_at, run_elastic, train_from_state, ElasticConfig, ElasticRankOutcome,
    ElasticReport, ElasticRunError, FullState, RecoveryPolicy,
};
pub use lstm::train_lstm_lm;
pub use real::{
    train_convergence, train_convergence_observed, ConvergenceConfig, ConvergenceResult,
    TrainMethod,
};
pub use scheduled::train_convergence_scheduled_observed;
pub use sim::{simulate, simulate_full, SimConfig, StepMetrics};
pub use timeline::{chrome_export, ChromeExport};
pub use translation::train_translation;

//! A recovery cost model for losing a rank.
//!
//! [`RecoveryModel`] prices the two standard responses to a crashed
//! worker: **checkpoint/restart** (pay a rollback to the last checkpoint
//! plus restart overhead, keep full throughput) versus **group shrink**
//! (pay a one-off re-form, then run every remaining step slower on fewer
//! workers). The elastic trainer and `embrace_sim scenarios` use it to
//! price crashes measured on the live threaded transport.

/// Which recovery strategy to take after losing a rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// Roll back to the last checkpoint, restart the full group.
    CheckpointRestart,
    /// Re-form the group without the lost rank and keep going slower.
    GroupShrink,
}

/// Prices the recovery choice after a worker loss.
///
/// All times in seconds; `step_time` is the fault-free synchronous step
/// time of the full group (e.g. a [`crate::synchronous_step`] makespan).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryModel {
    /// Fault-free time of one training step on the full group.
    pub step_time: f64,
    /// Wall-clock cost of writing one checkpoint.
    pub checkpoint_write: f64,
    /// Steps between checkpoints.
    pub checkpoint_interval: u64,
    /// Time to reschedule + reload + rebuild communicators on restart.
    pub restart_overhead: f64,
    /// Time to re-form the communicator excluding the lost rank.
    pub shrink_overhead: f64,
    /// Per-step slowdown factor once the group has shrunk (≥ 1).
    pub shrink_slowdown: f64,
}

/// A [`RecoveryModel`] whose parameters cannot price anything meaningful.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryModelError {
    /// `shrink_slowdown < 1` claims the job runs *faster* after losing a
    /// rank, which silently makes shrink win every comparison.
    SlowdownBelowOne { got: f64 },
    /// `checkpoint_interval == 0` makes the steady-state checkpoint tax
    /// infinite (division by zero).
    ZeroCheckpointInterval,
}

impl std::fmt::Display for RecoveryModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryModelError::SlowdownBelowOne { got } => {
                write!(f, "shrink_slowdown must be ≥ 1, got {got}")
            }
            RecoveryModelError::ZeroCheckpointInterval => {
                write!(f, "checkpoint_interval must be ≥ 1 step")
            }
        }
    }
}

impl std::error::Error for RecoveryModelError {}

impl RecoveryModel {
    /// Check the model's parameters are priceable.
    pub fn validate(&self) -> Result<(), RecoveryModelError> {
        if self.shrink_slowdown < 1.0 {
            return Err(RecoveryModelError::SlowdownBelowOne { got: self.shrink_slowdown });
        }
        if self.checkpoint_interval == 0 {
            return Err(RecoveryModelError::ZeroCheckpointInterval);
        }
        Ok(())
    }

    /// A model whose shrink slowdown comes from pure data-parallel
    /// arithmetic: losing one of `workers` ranks leaves `workers − 1`
    /// ranks doing the same total work, so each step slows by
    /// `workers / (workers − 1)`.
    pub fn data_parallel(
        step_time: f64,
        checkpoint_write: f64,
        checkpoint_interval: u64,
        restart_overhead: f64,
        shrink_overhead: f64,
        workers: usize,
    ) -> Self {
        assert!(workers > 1, "cannot shrink a single-worker group");
        RecoveryModel {
            step_time,
            checkpoint_write,
            checkpoint_interval,
            restart_overhead,
            shrink_overhead,
            shrink_slowdown: workers as f64 / (workers - 1) as f64,
        }
    }

    /// Steady-state checkpointing tax added to every step. Panics on an
    /// invalid model — use [`RecoveryModel::try_checkpoint_overhead_per_step`]
    /// to handle it.
    pub fn checkpoint_overhead_per_step(&self) -> f64 {
        self.try_checkpoint_overhead_per_step().expect("invalid recovery model")
    }

    /// Fallible [`RecoveryModel::checkpoint_overhead_per_step`].
    pub fn try_checkpoint_overhead_per_step(&self) -> Result<f64, RecoveryModelError> {
        self.validate()?;
        Ok(self.checkpoint_write / self.checkpoint_interval as f64)
    }

    /// Total time to finish the job via checkpoint/restart, given the
    /// crash happened `steps_since_checkpoint` steps after the last
    /// checkpoint with `remaining_steps` still to run. Lost steps are
    /// re-executed at full speed.
    pub fn checkpoint_restart_cost(
        &self,
        steps_since_checkpoint: u64,
        remaining_steps: u64,
    ) -> f64 {
        self.restart_overhead + (steps_since_checkpoint + remaining_steps) as f64 * self.step_time
    }

    /// Total time to finish the job via group shrink: nothing is lost or
    /// re-run, but every remaining step pays the slowdown.
    pub fn group_shrink_cost(&self, remaining_steps: u64) -> f64 {
        self.shrink_overhead + remaining_steps as f64 * self.step_time * self.shrink_slowdown
    }

    /// The cheaper strategy for this crash point (ties go to shrink,
    /// which also preserves the job's memory footprint headroom). Panics
    /// on an invalid model — use [`RecoveryModel::try_cheaper`] to
    /// handle it.
    pub fn cheaper(&self, steps_since_checkpoint: u64, remaining_steps: u64) -> Recovery {
        self.try_cheaper(steps_since_checkpoint, remaining_steps).expect("invalid recovery model")
    }

    /// Fallible [`RecoveryModel::cheaper`].
    pub fn try_cheaper(
        &self,
        steps_since_checkpoint: u64,
        remaining_steps: u64,
    ) -> Result<Recovery, RecoveryModelError> {
        self.validate()?;
        let restart = self.checkpoint_restart_cost(steps_since_checkpoint, remaining_steps);
        let shrink = self.group_shrink_cost(remaining_steps);
        Ok(if restart < shrink { Recovery::CheckpointRestart } else { Recovery::GroupShrink })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_model_prefers_shrink_near_the_end() {
        // Expensive restart, mild slowdown: with few steps left, shrink
        // wins; with a whole job left and a fresh checkpoint, restart wins.
        let m = RecoveryModel::data_parallel(1.0, 5.0, 100, 120.0, 10.0, 16);
        assert_eq!(m.cheaper(99, 10), Recovery::GroupShrink);
        assert_eq!(m.cheaper(0, 10_000), Recovery::CheckpointRestart);
    }

    #[test]
    fn recovery_costs_are_consistent() {
        let m = RecoveryModel::data_parallel(2.0, 4.0, 50, 60.0, 5.0, 4);
        assert!((m.checkpoint_overhead_per_step() - 0.08).abs() < 1e-12);
        // Restart re-runs lost steps at full speed.
        assert!((m.checkpoint_restart_cost(10, 100) - (60.0 + 110.0 * 2.0)).abs() < 1e-12);
        // Shrink runs remaining steps at 4/3 the step time.
        let shrink = m.group_shrink_cost(100);
        assert!((shrink - (5.0 + 100.0 * 2.0 * (4.0 / 3.0))).abs() < 1e-9);
    }

    #[test]
    fn recovery_model_rejects_nonsense_parameters() {
        let mut m = RecoveryModel::data_parallel(1.0, 5.0, 100, 120.0, 10.0, 16);
        assert_eq!(m.validate(), Ok(()));
        m.shrink_slowdown = 0.5;
        assert_eq!(m.try_cheaper(0, 10), Err(RecoveryModelError::SlowdownBelowOne { got: 0.5 }));
        m.shrink_slowdown = 1.1;
        m.checkpoint_interval = 0;
        assert_eq!(
            m.try_checkpoint_overhead_per_step(),
            Err(RecoveryModelError::ZeroCheckpointInterval)
        );
    }

    #[test]
    fn crossover_point_matches_analytic_formula() {
        // restart = R + (s + n)·t; shrink = S + n·t·σ. Equal at
        // n* = (R + s·t − S) / (t·(σ − 1)). With t=1, R=120, s=0, S=10,
        // σ=1.1 → n* = 110 / 0.1 = 1100.
        let m = RecoveryModel {
            step_time: 1.0,
            checkpoint_write: 5.0,
            checkpoint_interval: 100,
            restart_overhead: 120.0,
            shrink_overhead: 10.0,
            shrink_slowdown: 1.1,
        };
        assert_eq!(m.cheaper(0, 1099), Recovery::GroupShrink);
        // Exactly at the crossover the costs tie; ties go to shrink.
        assert!((m.checkpoint_restart_cost(0, 1100) - m.group_shrink_cost(1100)).abs() < 1e-9);
        assert_eq!(m.cheaper(0, 1100), Recovery::GroupShrink);
        assert_eq!(m.cheaper(0, 1101), Recovery::CheckpointRestart);
    }
}

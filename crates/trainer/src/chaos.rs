//! Chaos harness: the EmbRace hybrid training step under injected faults.
//!
//! [`run_chaos`] runs the step [`crate::real::train_convergence`]'s
//! EmbRace path runs (`real::RankState::run_step`: AllGather of batch
//! tokens, hybrid AlltoAll forward, dense ring AllReduce, Vertical Sparse
//! Scheduling with two AlltoAll #2 exchanges, all through the comm
//! scheduler) over a mesh built from a seeded
//! [`FaultPlan`], under both a per-receive
//! deadline and a whole-group watchdog, and reports each rank's typed
//! error instead of panicking with it. Each step gets a scheduler of its
//! own over the rank's endpoint, which stays the harness's between steps
//! for the crash-at-step check; so a failure also exercises the
//! scheduler's abort contract.
//!
//! The contract every scenario must satisfy (and the chaos tests assert):
//!
//! * **termination** — every rank returns within the group deadline;
//!   no hang, no panic;
//! * **typed failure** — a rank that cannot finish reports *which* step
//!   died and a [`CommError`] naming the cause;
//! * **fault-free fidelity** — with an empty plan (or faults below the
//!   detection thresholds, e.g. a small link delay) the per-step losses
//!   are bitwise identical to the fault-free trainer's.

use crate::real::{sched_options, ConvergenceConfig, RankState};
use embrace_collectives::{
    run_group_with_deadline, CommError, CommScheduler, Endpoint, FaultPlan, GroupError,
};
use embrace_models::ZipfSampler;
use std::time::Duration;

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The training workload (world size, model shape, steps, seed).
    pub train: ConvergenceConfig,
    /// The fault schedule injected into the mesh.
    pub plan: FaultPlan,
    /// Per-receive deadline: how long a rank waits on one peer before
    /// declaring [`CommError::Timeout`].
    pub recv_deadline: Duration,
    /// Whole-group watchdog: the run is declared deadlocked if any rank
    /// is still going after this long.
    pub group_deadline: Duration,
}

impl ChaosConfig {
    /// A small, fast workload suited to running a scenario matrix.
    pub fn quick(plan: FaultPlan) -> Self {
        ChaosConfig {
            train: ConvergenceConfig {
                world: 4,
                vocab: 40,
                dim: 8,
                tokens_per_batch: 12,
                steps: 5,
                ..Default::default()
            },
            plan,
            recv_deadline: Duration::from_millis(400),
            group_deadline: Duration::from_secs(30),
        }
    }
}

/// What one rank got out of a chaos run.
#[derive(Clone, Debug, PartialEq)]
pub enum RankOutcome {
    /// The rank ran every step; per-step global losses attached.
    Completed { losses: Vec<f64> },
    /// The rank stopped at `step` (0-based) with a typed error — its own
    /// injected fault, or a peer failure it observed.
    Failed { step: usize, error: CommError },
}

impl RankOutcome {
    pub fn is_completed(&self) -> bool {
        matches!(self, RankOutcome::Completed { .. })
    }

    pub fn losses(&self) -> Option<&[f64]> {
        match self {
            RankOutcome::Completed { losses } => Some(losses),
            RankOutcome::Failed { .. } => None,
        }
    }

    pub fn error(&self) -> Option<&CommError> {
        match self {
            RankOutcome::Failed { error, .. } => Some(error),
            RankOutcome::Completed { .. } => None,
        }
    }
}

/// Run the EmbRace hybrid step under `cfg`'s fault plan. Returns per-rank
/// outcomes in rank order, or [`GroupError`] if the watchdog fired (which
/// a correct transport/collective stack must never let happen).
pub fn run_chaos(cfg: &ChaosConfig) -> Result<Vec<RankOutcome>, GroupError> {
    let train = cfg.train;
    let world = train.world;
    let sampler = ZipfSampler::new(train.vocab, train.zipf_s);
    run_group_with_deadline(
        world,
        &cfg.plan,
        Some(cfg.recv_deadline),
        cfg.group_deadline,
        move |rank, ep| chaos_worker(rank, ep, &train, &sampler),
    )
}

fn chaos_worker(
    rank: usize,
    ep: &mut Endpoint,
    cfg: &ConvergenceConfig,
    sampler: &ZipfSampler,
) -> RankOutcome {
    let mut st = RankState::new(rank, cfg, sampler);
    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        // Crash-at-step faults fire here; the endpoint tears itself down
        // so peers observe PeerGone instead of a hang.
        let loss = ep.begin_step().and_then(|_| {
            st.run_step(&mut CommScheduler::new(&mut *ep, sched_options(cfg, false)))
        });
        match loss {
            Ok(loss) => losses.push(loss),
            Err(error) => return RankOutcome::Failed { step, error },
        }
    }
    RankOutcome::Completed { losses }
}

/// The standard seeded fault-scenario matrix the chaos tests (and the
/// `chaos` bench binary) run. `world` and `steps` must match the
/// [`ChaosConfig`] the scenarios will run under.
pub fn standard_scenarios(world: usize, steps: u64) -> Vec<(String, FaultPlan)> {
    assert!(world >= 3, "the scenario matrix assumes at least 3 ranks");
    let long = Duration::from_secs(3600);
    vec![
        ("fault-free".into(), FaultPlan::new(0)),
        // Below the receive deadline: must not change any result.
        (
            "delay-below-deadline".into(),
            FaultPlan::new(1).delay_link(0, 1, Duration::from_millis(2)),
        ),
        // Effectively infinite delay: the receiver must time out.
        ("delay-beyond-deadline".into(), FaultPlan::new(2).delay_link(0, 1, long)),
        // Dead cable from the start.
        ("drop-link-immediately".into(), FaultPlan::new(3).drop_link_after(0, 1, 0)),
        // Cable dies mid-training (after N messages delivered).
        ("drop-link-after-20".into(), FaultPlan::new(4).drop_link_after(1, 2, 20)),
        ("crash-rank0-step0".into(), FaultPlan::new(5).crash_rank_at_step(0, 0)),
        (
            "crash-last-rank-midway".into(),
            FaultPlan::new(6).crash_rank_at_step(world - 1, steps / 2),
        ),
        (
            "double-crash".into(),
            FaultPlan::new(7).crash_rank_at_step(1, 1).crash_rank_at_step(2, 2),
        ),
        (
            "crash-plus-drop".into(),
            FaultPlan::new(8)
                .crash_rank_at_step(world - 1, steps.saturating_sub(1))
                .drop_link_after(0, 1, 30),
        ),
        ("seeded-random".into(), FaultPlan::random(0xC0FFEE, world, steps)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_chaos_matches_reference_bitwise() {
        let cfg = ChaosConfig::quick(FaultPlan::new(0));
        let out = run_chaos(&cfg).expect("no watchdog");
        let reference =
            crate::real::train_convergence(crate::real::TrainMethod::EmbRace, &cfg.train);
        for (rank, o) in out.iter().enumerate() {
            let losses = o.losses().unwrap_or_else(|| panic!("rank {rank}: {o:?}"));
            assert_eq!(losses, &reference.losses[..], "rank {rank}");
        }
    }

    #[test]
    fn crash_at_step_reports_step_and_cause() {
        let plan = FaultPlan::new(9).crash_rank_at_step(2, 1);
        let cfg = ChaosConfig::quick(plan);
        let out = run_chaos(&cfg).expect("no watchdog");
        assert_eq!(out[2], RankOutcome::Failed { step: 1, error: CommError::Injected { rank: 2 } });
        for (rank, o) in out.iter().enumerate() {
            if rank != 2 {
                let e = o.error().unwrap_or_else(|| panic!("rank {rank} should fail: {o:?}"));
                // Survivors may blame the crashed rank directly, or any rank
                // in the cascade once an earlier-failing survivor has
                // dropped its own endpoint — but never a protocol violation
                // or an injected fault of their own.
                assert!(
                    matches!(
                        e,
                        CommError::PeerGone { .. }
                            | CommError::Timeout { .. }
                            | CommError::Aborted { .. }
                    ),
                    "rank {rank}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn scenario_matrix_has_at_least_eight_entries() {
        assert!(standard_scenarios(4, 5).len() >= 8);
    }
}

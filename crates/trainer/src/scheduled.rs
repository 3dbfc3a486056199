//! The scheduled pipeline's harness (§5.1). The paper's prototype has
//! backward hooks dump communication operations into a priority queue;
//! here the EmbRace step submits each operation straight to the comm
//! scheduler with its 2D-scheduling priority, and the scheduler drains
//! its queue in priority order.
//!
//! There is one step, `real::RankState::run_step`, and it always runs
//! through a [`embrace_collectives::CommScheduler`]; this entry
//! point runs the same training as `train_convergence(TrainMethod::EmbRace,
//! _)` and also hands back what the schedulers recorded: every rank's
//! submission log for `embrace_analyzer`'s static plan verifier, and with
//! `observe` set the wall-clock spans and [`embrace_collectives::OpTiming`]
//! logs its happens-before analyzer checks.

use crate::real::{
    train_embrace, ConvergenceConfig, ConvergenceResult, RankObservation, RankState, Toy,
};
use embrace_collectives::{run_group, SubmittedOp};
use embrace_models::ZipfSampler;

/// Train the toy convergence model with the full scheduled pipeline —
/// `train_convergence(TrainMethod::EmbRace, _)`, bit for bit — and also
/// return every rank's submission log (in submission order) and, when
/// `observe` is set, every rank's scheduler spans and
/// [`embrace_collectives::OpTiming`] log, so the happens-before analyzer —
/// `embrace_analyzer::hb` — can check a *live* threaded run for
/// determinism violations, priority inversions, and unordered conflicting
/// accesses.
pub fn train_convergence_scheduled_observed(
    cfg: &ConvergenceConfig,
    observe: bool,
) -> (ConvergenceResult, Vec<Vec<SubmittedOp>>, Vec<RankObservation>) {
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let states = RankState::<Toy>::initial(cfg, &sampler);
    let per_rank =
        run_group(cfg.world, |rank, ep| train_embrace(ep, cfg, states.take(rank), observe));
    let mut losses = None;
    let (mut logs, mut observations) = (Vec::new(), Vec::new());
    for (l, log, obs) in per_rank {
        losses.get_or_insert(l);
        logs.push(log);
        observations.extend(obs);
    }
    (ConvergenceResult { losses: losses.expect("at least one worker") }, logs, observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::{train_convergence, TrainMethod};
    use embrace_core::{GradPlane, GradPlanePolicy};

    #[test]
    fn scheduled_matches_inline_embrace() {
        // One step, so the same losses bit for bit — on the hybrid plane
        // and on the sparse-native one the config asks for.
        let base = ConvergenceConfig { world: 4, steps: 25, ..Default::default() };
        let ssar = ConvergenceConfig {
            grad_plane: GradPlanePolicy::fixed(GradPlane::SparseAllreduce),
            ..base
        };
        for cfg in [base, ssar] {
            let inline = train_convergence(TrainMethod::EmbRace, &cfg);
            let (scheduled, _, observed) = train_convergence_scheduled_observed(&cfg, true);
            assert_eq!(inline.losses, scheduled.losses, "{:?}", cfg.grad_plane);
            // ... on a run that did partition and preempt: every step's
            // dense reduce-scatter ran as several units and was overtaken
            // mid-tensor by that step's prior gradients.
            for (rank, (_, timings)) in observed.iter().enumerate() {
                for step in 0..cfg.steps {
                    let find = |op: &str| {
                        let tag = format!("s{step}/{op}");
                        timings.iter().find(|t| t.tag == tag).unwrap_or_else(|| panic!("no {tag}"))
                    };
                    let (bulk, prior) = (find("reduce_scatter_w"), find("prior_grad"));
                    assert!(bulk.chunks > 1, "rank {rank} step {step}: reduce_scatter_w ran whole");
                    assert!(
                        bulk.started_s < prior.started_s && prior.finished_s < bulk.finished_s,
                        "rank {rank} step {step}: prior_grad did not preempt reduce_scatter_w"
                    );
                }
            }
        }
    }
}

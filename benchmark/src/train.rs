//! The trainer workloads: `train_sparse` and `train_dense`.
//!
//! A round is one call of `embrace_trainer::train_convergence(EmbRace)`
//! at world 2 — the product's own entry point, construction included, so
//! a later change anywhere under it is what gets measured. The seed is
//! the trainer's seed: it fixes the initial tables and each rank's Zipf
//! token stream, so every round of a run does bit-identical work.

use crate::report::Report;
use crate::run::{guarded, put_latency, Round, Workload, WORLD};
use crate::trace::StepProfile;
use embrace_obs::SpanSet;
use embrace_trainer::{
    train_convergence, train_convergence_observed, ConvergenceConfig, TrainMethod,
};
use std::time::Instant;

/// Zipf exponent of every token stream of this benchmark: the serving
/// replay's paper-calibrated skew (between the LM and GNMT exponents).
pub const ZIPF_S: f64 = 1.05;

/// The embedding plane does the work: 8192 Zipf tokens per rank per step
/// against a 64 B dense block.
pub fn sparse_config(seed: u64, steps: usize) -> ConvergenceConfig {
    ConvergenceConfig {
        world: WORLD,
        vocab: 262_144,
        dim: 4,
        tokens_per_batch: 8192,
        steps,
        zipf_s: ZIPF_S,
        seed,
        ..ConvergenceConfig::default()
    }
}

/// The dense plane does the work: a 1024² (4 MiB) weight gradient per
/// step against one token per rank. Adam moves each of the 1024 weights
/// a prediction sums over by `lr` per step, so the default 0.05 diverges
/// at this width; 0.001 learns on every seed tried.
pub fn dense_config(seed: u64, steps: usize) -> ConvergenceConfig {
    ConvergenceConfig {
        world: WORLD,
        vocab: 4096,
        dim: 1024,
        tokens_per_batch: 1,
        steps,
        lr: 0.001,
        zipf_s: ZIPF_S,
        seed,
        ..ConvergenceConfig::default()
    }
}

/// Steps per round of both trainer workloads.
pub const STEPS: usize = 150;

pub struct TrainWorkload {
    cfg: ConvergenceConfig,
    /// The loss curve of the first warm-up round; every later round must
    /// reproduce it bit for bit.
    reference: Option<Vec<f64>>,
}

impl TrainWorkload {
    pub fn new(cfg: ConvergenceConfig) -> Self {
        TrainWorkload { cfg, reference: None }
    }

    /// Check one round's loss curve: finite, learning (the mean of the
    /// last quarter below the mean of the first — single steps of a
    /// one-token batch are too noisy to compare end points), and
    /// bit-identical to the first round's.
    fn check_losses(&mut self, losses: &[f64], report: &mut Report) {
        let q = (losses.len() / 4).max(1);
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        let (head, tail) = (mean(&losses[..q]), mean(&losses[losses.len() - q..]));
        report.check(losses.iter().all(|l| l.is_finite()) && tail < head, || {
            format!("loss does not fall: first quarter {head}, last quarter {tail}")
        });
        match &self.reference {
            None => self.reference = Some(losses.to_vec()),
            Some(r) => report.check(bits(r) == bits(losses), || {
                "loss curve differs from the first warm-up round's".to_string()
            }),
        }
    }

    fn run(&mut self, traced: bool, report: &mut Report) -> (Round, Vec<SpanSet>) {
        let cfg = self.cfg;
        let t = Instant::now();
        let out = guarded(|| {
            if traced {
                train_convergence_observed(TrainMethod::EmbRace, &cfg)
            } else {
                (train_convergence(TrainMethod::EmbRace, &cfg), Vec::new())
            }
        });
        let wall_s = t.elapsed().as_secs_f64();
        report.attempted += cfg.steps as u64;
        match out {
            Ok((result, spans)) => {
                self.check_losses(&result.losses, report);
                (Round { wall_s, step_ms: Vec::new() }, spans)
            }
            Err(why) => {
                report.failed += cfg.steps as u64;
                report.problems.push(format!("trainer round panicked: {why}"));
                (Round { wall_s, step_ms: Vec::new() }, Vec::new())
            }
        }
    }

    /// The last loss of the reference curve: a fingerprint that stays
    /// equal from parent to change while the arithmetic is untouched.
    pub fn final_loss(&self) -> Option<f64> {
        self.reference.as_ref().and_then(|r| r.last().copied())
    }

    /// Wall of a `steps: 0` call: what a round spends before its first
    /// step (tables, optimizer state, threads).
    pub fn construct_ms(&self) -> f64 {
        let cfg = ConvergenceConfig { steps: 0, ..self.cfg };
        let t = Instant::now();
        // A zero-step run has no losses; only its duration is of interest.
        let _ = guarded(|| train_convergence(TrainMethod::EmbRace, &cfg));
        t.elapsed().as_secs_f64() * 1e3
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

impl Workload for TrainWorkload {
    fn set_up(&mut self, report: &mut Report) {
        // The trainer builds its inputs and state inside the call, so its
        // set-up is the checked first warm-up round and nothing else.
        self.run(false, report);
    }

    fn round(&mut self, report: &mut Report) -> Round {
        self.run(false, report).0
    }

    fn traced_round(&mut self, report: &mut Report) -> (Round, Vec<SpanSet>) {
        self.run(true, report)
    }

    fn final_check(&mut self, _report: &mut Report) {
        // Every round was already compared with the reference curve.
    }

    fn steps_per_round(&self) -> usize {
        self.cfg.steps
    }

    fn tokens_per_round(&self) -> usize {
        self.cfg.world * self.cfg.tokens_per_batch * self.cfg.steps
    }

    fn step_span_cat(&self) -> &'static str {
        "train"
    }

    fn layer_metrics(&mut self, profile: &StepProfile, report: &mut Report) {
        put_latency(report, "trainer.step_ms", &profile.step_ms);
        // The trainer records nothing but collectives under a step, so a
        // step's self time is its compute.
        report.put_value("trainer.compute_share", profile.step_self_share);
        report.put_value("trainer.construct_ms", self.construct_ms());
        if let Some(loss) = self.final_loss() {
            report.put_value("trainer.final_loss", loss);
        }
    }
}

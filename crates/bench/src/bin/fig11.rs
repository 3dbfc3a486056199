//! Figure 11: convergence of EmbRace vs Horovod AllGather.
//!
//! The paper traces (a) PPL-vs-steps for LM and (b) BLEU-vs-epochs for
//! GNMT-8, showing both methods converge identically. Here three real
//! (small) models train end-to-end through the functional collectives on
//! 8 worker threads, each through the one scheduled EmbRace step and the
//! one AllGather baseline:
//!
//! * an LM-proxy — one embedding table + dense projection (Fig. 11a
//!   analog, loss plays the role of PPL);
//! * a translation-proxy — encoder + decoder embeddings feeding a tanh
//!   MLP through the autograd tape (Fig. 11b analog);
//! * an unrolled-LSTM language model (the actual model class of the
//!   paper's LM benchmark) whose per-step embedding gradient is the
//!   duplicate-heavy concatenation over timesteps.
//!
//! With the modified Adam (§5.7) each pair of curves must coincide to
//! float precision.

use embrace_trainer::{
    train_convergence, train_lstm_lm, train_translation, ConvergenceConfig, TrainMethod,
};

fn print_curves(
    label: &str,
    base: &embrace_trainer::ConvergenceResult,
    embrace: &embrace_trainer::ConvergenceResult,
) {
    println!("--- {label} ---");
    println!("step   AllGather-loss   EmbRace-loss");
    let n = base.losses.len();
    for (i, (a, b)) in base.losses.iter().zip(&embrace.losses).enumerate() {
        if i % 10 == 0 || i + 1 == n {
            println!("{i:>4}   {a:>14.4}   {b:>12.4}");
        }
    }
    let rel = base.max_curve_diff(embrace) / base.losses[0].max(1.0);
    println!("max relative curve divergence: {rel:.2e}\n");
    assert!(rel < 1e-3, "curves must coincide");
}

fn main() {
    println!("Figure 11: convergence, EmbRace vs Horovod AllGather (8 workers)\n");

    let cfg = ConvergenceConfig {
        world: 8,
        vocab: 500,
        dim: 16,
        tokens_per_batch: 96,
        steps: 80,
        lr: 0.05,
        zipf_s: 0.9,
        seed: 11,
    };
    let base = train_convergence(TrainMethod::HorovodAllGather, &cfg);
    let embrace = train_convergence(TrainMethod::EmbRace, &cfg);
    print_curves("(a) LM-proxy: loss vs steps (PPL analog)", &base, &embrace);

    let tcfg = ConvergenceConfig { vocab: 400, tokens_per_batch: 64, lr: 0.03, ..cfg };
    let base = train_translation(TrainMethod::HorovodAllGather, &tcfg);
    let embrace = train_translation(TrainMethod::EmbRace, &tcfg);
    print_curves(
        "(b) translation-proxy (enc+dec embeddings): loss vs steps (BLEU analog)",
        &base,
        &embrace,
    );

    let lcfg = ConvergenceConfig { vocab: 200, dim: 8, tokens_per_batch: 80, lr: 0.06, ..cfg };
    let base = train_lstm_lm(TrainMethod::HorovodAllGather, &lcfg);
    let embrace = train_lstm_lm(TrainMethod::EmbRace, &lcfg);
    print_curves("(c) unrolled-LSTM LM (the paper LM's model class)", &base, &embrace);

    println!("As in the paper, the synchronous semantics (and the step-state Adam");
    println!("modification) make EmbRace's convergence indistinguishable from the");
    println!("baseline on all three model shapes.");
}

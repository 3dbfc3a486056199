//! Train a real model two ways — EmbRace hybrid communication vs Horovod
//! AllGather — and watch the loss curves coincide (the Fig. 11 claim).
//!
//! ```text
//! cargo run --release --example convergence_demo
//! ```

use embrace_repro::trainer::{train_convergence, ConvergenceConfig, TrainMethod};

fn main() {
    let cfg = ConvergenceConfig {
        world: 4,
        vocab: 300,
        dim: 16,
        tokens_per_batch: 64,
        steps: 50,
        lr: 0.05,
        zipf_s: 0.9,
        seed: 3,
    };
    println!(
        "training a {}-token-vocab embedding model on {} workers, {} steps\n",
        cfg.vocab, cfg.world, cfg.steps
    );
    let allgather = train_convergence(TrainMethod::HorovodAllGather, &cfg);
    let embrace = train_convergence(TrainMethod::EmbRace, &cfg);

    println!("step   AllGather      EmbRace        bar (AllGather loss)");
    let max = allgather.losses[0];
    for (i, (a, e)) in allgather.losses.iter().zip(&embrace.losses).enumerate() {
        if i % 2 == 0 {
            let bar = "#".repeat((a / max * 40.0).round() as usize);
            println!("{i:>4}   {a:>10.3}   {e:>10.3}    {bar}");
        }
    }
    let rel = allgather.max_curve_diff(&embrace) / allgather.losses[0];
    println!("\nmax relative divergence between the curves: {rel:.2e}");
    println!("(synchronous semantics + the modified Adam keep them identical)");
}

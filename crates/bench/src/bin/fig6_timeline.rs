//! Figures 2 & 6: execution-timeline comparison of the scheduling schemes.
//!
//! Prints, per model, the steady step time and Computation Stall under
//! (a) default FIFO scheduling, (b) Block-level Horizontal Scheduling and
//! (c) full 2D Communication Scheduling — the quantitative content of the
//! paper's timeline figures.

use embrace_baselines::MethodId;
use embrace_models::ModelId;
use embrace_simnet::Cluster;
use embrace_trainer::timeline::{render_fig6, render_step_gantt};

fn main() {
    let cluster = Cluster::rtx3090(16);
    println!("Figures 2/6: scheduling-scheme timelines on 16 RTX3090 GPUs\n");
    for model in ModelId::ALL {
        println!("--- {model:?} ---");
        print!("{}", render_fig6(model, cluster));
        println!();
    }
    println!("One steady GNMT-8 step under each scheme (f/b = FP/BP kernels, v =");
    println!("vertical scheduling, r/a = dense reduce-scatter/all-gather, e = embedding");
    println!("data, p/d = prior/delayed gradients, g = whole-gradient AlltoAll, l = loss");
    println!("gather, . = idle):\n");
    for (label, method) in [
        ("Fig. 6a  default FIFO", MethodId::EmbRaceNoSched),
        ("Fig. 6b  horizontal", MethodId::EmbRaceHorizontal),
        ("Fig. 6c  2D scheduling", MethodId::EmbRace),
    ] {
        println!("{label}:");
        print!("{}", render_step_gantt(method, ModelId::Gnmt8, cluster, 100));
        println!();
    }
    println!("Reading: FIFO leaves all communication serialized against the next FP");
    println!("(Fig. 6a); the priority queue overlaps dense transfers with FP (Fig. 6b);");
    println!("the vertical split shrinks the sparse communication blocking the embedding");
    println!("FP to the prior rows only (Fig. 6c).");
}

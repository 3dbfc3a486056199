//! `embrace-sim` — the command-line driver: simulate any method × model ×
//! cluster × scheduling-knob combination and print its metrics.
//!
//! ```text
//! cargo run --release -p embrace-bench --bin embrace_sim -- \
//!     --model transformer --gpus 16 --method embrace --order preemptive
//! ```

use embrace_baselines::MethodId;
use embrace_bench::cli::{parse_args, CliArgs};
use embrace_bench::WORLDS;
use embrace_trainer::report::table;
use embrace_trainer::{simulate, SimConfig};

fn main() {
    // `embrace_sim verify-plan`: static comm-plan verification + model
    // checking instead of simulation.
    if std::env::args().nth(1).as_deref() == Some("verify-plan") {
        match embrace_bench::verify_plan::run(std::env::args().skip(2)) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("verify-plan FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    // `embrace_sim trace`: export a Chrome trace_event timeline.
    if std::env::args().nth(1).as_deref() == Some("trace") {
        match embrace_bench::trace_cmd::run(std::env::args().skip(2)) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("trace FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    // `embrace_sim scenarios`: the elastic fault × recovery-policy
    // capacity-planning matrix on the live threaded trainer.
    if std::env::args().nth(1).as_deref() == Some("scenarios") {
        match embrace_bench::scenarios::run(std::env::args().skip(2)) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("scenarios FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("embrace-sim") { 0 } else { 2 });
        }
    };
    if args.grid {
        run_grid(&args);
    } else {
        run_one(&args);
    }
}

fn run_one(args: &CliArgs) {
    let cfg = args.sim_config();
    let m = simulate(&cfg);
    let cluster = args.cluster();
    println!(
        "{} / {:?} on {} x {} ({} nodes x {} GPUs)",
        args.method.name(),
        args.model,
        cluster.world(),
        cluster.gpu.name(),
        cluster.nodes,
        cluster.gpus_per_node
    );
    println!("  step time          {:>10.3} ms", m.step_time * 1e3);
    println!("  model compute      {:>10.3} ms", m.compute_time * 1e3);
    println!("  computation stall  {:>10.3} ms", m.stall * 1e3);
    println!("  throughput         {:>10.0} tokens/s", m.tokens_per_sec);
}

fn run_grid(args: &CliArgs) {
    let gpu = args.cluster().gpu;
    println!("{:?} on {}: full method grid\n", args.model, gpu.name());
    let mut rows = Vec::new();
    for method in MethodId::ALL {
        let mut row = vec![method.name().to_string()];
        for world in WORLDS {
            let mut a = args.clone();
            a.gpus = world;
            let mut cfg = SimConfig::new(method, args.model, a.cluster());
            cfg.steps = args.steps;
            let m = simulate(&cfg);
            row.push(format!("{:.0}", m.tokens_per_sec));
        }
        rows.push(row);
    }
    print!("{}", table(&["method", "4 GPUs tok/s", "8 GPUs tok/s", "16 GPUs tok/s"], &rows));
}

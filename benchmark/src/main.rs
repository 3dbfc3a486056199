//! The repo's benchmark: one command runs one workload for one seed and
//! prints every metric by name and unit. See `README.md` beside this
//! crate's manifest for the workloads, the metrics and how they interact.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark compare <dir A> <dir B>
//! ```
//!
//! `--trace 0` runs the timed window and prints the end-to-end metrics;
//! `--trace 1` runs the traced rounds and the layer probes, prints the
//! per-layer metrics and writes `target/trace-<workload>.json`. The last
//! line of standard output is the result object, the line before it the
//! same numbers with quartiles and sample counts.

mod compare;
mod host;
mod layers;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Report, RunShape};
use run::Workload;
use serve::{Mix, ServeWorkload};
use std::time::Instant;
use train::TrainWorkload;

const WORKLOADS: [&str; 4] = ["train_sparse", "train_dense", "serve_read", "serve_mixed"];

/// The run length a traced run's round and probe iteration counts are
/// sized for (`run_seconds` of `BENCHMARK.json`).
const FULL_SECONDS: f64 = 27.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("between 0 and 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Steps per round of an unoptimised build, whatever the workload: such
/// a build measures nothing worth comparing, and a round of the declared
/// length would take it a minute. Long enough for a trainer's loss to
/// fall. The detail line records the steps per round a run used.
const DEBUG_BUILD_STEPS: usize = 40;

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    let steps = |declared: usize| if cfg!(debug_assertions) { DEBUG_BUILD_STEPS } else { declared };
    match name {
        "train_sparse" => {
            Box::new(TrainWorkload::new(train::sparse_config(seed, steps(train::STEPS))))
        }
        "train_dense" => {
            Box::new(TrainWorkload::new(train::dense_config(seed, steps(train::STEPS))))
        }
        "serve_read" => Box::new(ServeWorkload::new(Mix::Read, seed, steps(serve::READ_STEPS))),
        _ => Box::new(ServeWorkload::new(Mix::Mixed, seed, steps(serve::MIXED_STEPS))),
    }
}

/// The workloads whose traced rounds supply the layer metrics `name`'s
/// own family does not: a trainer needs a service for `ps.*` and the
/// per-step counters, a service a trainer for `trainer.*`, and
/// `serve_read`, which never pushes, `serve_mixed` for the push latency.
fn partners(name: &str) -> &'static [&'static str] {
    match name {
        "serve_read" => &["train_sparse", "serve_mixed"],
        "serve_mixed" => &["train_sparse"],
        _ => &["serve_mixed"],
    }
}

/// Run one workload in a process that started at `started`; the detail
/// line, the result line, and whether the run is correct.
fn measure(args: &Args, started: Instant) -> Result<(String, String, bool), String> {
    let probe = host::HostProbe::start()?;
    let mut report = Report::default();
    let mut w = make(&args.workload, args.seed);
    let rounds = if args.trace {
        let mut others: Vec<Box<dyn Workload>> =
            partners(&args.workload).iter().map(|p| make(p, args.seed)).collect();
        // A run shorter than a full-length one measures fewer rounds and
        // probe iterations, never fewer names.
        let scale = (args.seconds / FULL_SECONDS).min(1.0);
        let (path, rounds) =
            run::traced(w.as_mut(), &mut others, &args.workload, scale, &mut report)?;
        eprintln!("trace written to {path}");
        layers::probe_all(args.seed, scale, &mut report)?;
        rounds
    } else {
        run::end_to_end(w.as_mut(), args.seconds, started, &mut report)?
    };
    let host = probe.finish()?;
    let table = if args.trace {
        report.put_value("host.cores", host.cores as f64);
        report.put_value("host.calib_ms", host.calib_ms);
        report.put_value("host.calib_spread", host.calib_spread);
        report.put_value("host.steal_share", host.steal_share);
        report.put_value("host.rounds", rounds as f64);
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let shape = RunShape { rounds, steps_per_round: w.steps_per_round() };
    Ok(report.render(table, &args.workload, args.seed, args.trace, &host, &shape))
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: benchmark compare <dir A> <dir B>");
            std::process::exit(2);
        };
        match compare::run(a, b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("compare: {e}");
                std::process::exit(2);
            }
        }
    }
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    match measure(&args, started) {
        Ok((detail, result, correct)) => {
            println!("{detail}\n{result}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            // A run that could not be measured prints no result.
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

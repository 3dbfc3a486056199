//! Argument parsing for the `embrace-sim` CLI (hand-rolled — no external
//! dependencies beyond the workspace policy).

use embrace_baselines::MethodId;
use embrace_models::ModelId;
use embrace_simnet::{Cluster, CommOrder};
use embrace_trainer::SimConfig;

/// A parsed CLI request.
#[derive(Clone, Debug, PartialEq)]
pub struct CliArgs {
    pub model: ModelId,
    pub method: MethodId,
    pub gpus: usize,
    pub rtx2080: bool,
    pub steps: usize,
    pub comm_order: Option<CommOrder>,
    pub fusion_mib: Option<f64>,
    /// Run the whole method × world grid for the chosen model/cluster.
    pub grid: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            model: ModelId::Gnmt8,
            method: MethodId::EmbRace,
            gpus: 16,
            rtx2080: false,
            steps: 8,
            comm_order: None,
            fusion_mib: None,
            grid: false,
        }
    }
}

impl CliArgs {
    /// Build the simulator configuration this request describes.
    pub fn sim_config(&self) -> SimConfig {
        let cluster = self.cluster();
        let mut cfg = SimConfig::new(self.method, self.model, cluster);
        cfg.steps = self.steps;
        cfg.comm_order = self.comm_order;
        cfg.fusion_bucket = self.fusion_mib.map(|m| m * 1024.0 * 1024.0);
        cfg
    }

    pub fn cluster(&self) -> Cluster {
        if self.rtx2080 {
            Cluster::rtx2080(self.gpus)
        } else {
            Cluster::rtx3090(self.gpus)
        }
    }
}

/// The `--help` text.
const USAGE: &str = "\
embrace-sim — simulate one training configuration of the EmbRace reproduction

USAGE:
  embrace-sim [OPTIONS]
  embrace-sim verify-plan [--large] [--out <file>]
  embrace-sim trace [OPTIONS] [--smoke] [--out <file>] [--out-dir <dir>]
  embrace-sim scenarios [--quick] [--out <file>]

SUBCOMMANDS:
  verify-plan   static comm-plan verification + interleaving model check
                (collectives, chunked programs, elastic re-form handshake);
                --large runs the plan checker over every plan family at
                worlds 64-1024, --out writes its timing table
  trace         export the simulated timeline as Chrome trace_event JSON
                (open in Perfetto); --smoke sweeps the four method
                families and validates each export against the makespan
  scenarios     elastic capacity planning: sweep {fault profile x recovery
                policy} through the live elastic trainer, report goodput /
                p99 step time / recovery cost, price the shrink-vs-restart
                crossover, compare multi-tenant link sharing; --quick for
                the CI smoke size, --out to persist the report

OPTIONS:
  --model <lm|gnmt8|transformer|bert>   benchmark model        [default: gnmt8]
  --method <embrace|embrace-nosched|embrace-horizontal|
            allreduce|allgather|byteps|parallax>               [default: embrace]
  --gpus <4|8|16|...>                   world size             [default: 16]
  --rtx2080                             use the RTX2080 testbed calibration
  --steps <n>                           simulated steps        [default: 8]
  --order <fifo|priority|preemptive>    override comm ordering
  --fusion-mib <f>                      fuse dense gradients into buckets
  --grid                                run every method at 4/8/16 GPUs
  --help                                print this text
";

/// Parse argv (without the program name). Returns `Err(message)` on any
/// unknown flag or malformed value.
pub fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<CliArgs, String> {
    let mut args = CliArgs::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--model" => {
                args.model = match value("--model")?.as_str() {
                    "lm" => ModelId::Lm,
                    "gnmt8" => ModelId::Gnmt8,
                    "transformer" => ModelId::Transformer,
                    "bert" | "bert-base" => ModelId::BertBase,
                    other => return Err(format!("unknown model '{other}'")),
                };
            }
            "--method" => {
                args.method = match value("--method")?.as_str() {
                    "embrace" => MethodId::EmbRace,
                    "embrace-nosched" => MethodId::EmbRaceNoSched,
                    "embrace-horizontal" => MethodId::EmbRaceHorizontal,
                    "allreduce" => MethodId::HorovodAllReduce,
                    "allgather" => MethodId::HorovodAllGather,
                    "byteps" => MethodId::BytePs,
                    "parallax" => MethodId::Parallax,
                    other => return Err(format!("unknown method '{other}'")),
                };
            }
            "--gpus" => {
                args.gpus = value("--gpus")?
                    .parse()
                    .map_err(|_| "--gpus expects an integer".to_string())?;
            }
            "--steps" => {
                args.steps = value("--steps")?
                    .parse()
                    .map_err(|_| "--steps expects an integer".to_string())?;
                if args.steps < 3 {
                    return Err("--steps must be at least 3 (steady state)".into());
                }
            }
            "--order" => {
                args.comm_order = Some(match value("--order")?.as_str() {
                    "fifo" => CommOrder::Fifo,
                    "priority" => CommOrder::Priority,
                    "preemptive" => CommOrder::Preemptive,
                    other => return Err(format!("unknown order '{other}'")),
                });
            }
            "--fusion-mib" => {
                args.fusion_mib = Some(
                    value("--fusion-mib")?
                        .parse()
                        .map_err(|_| "--fusion-mib expects a number".to_string())?,
                );
            }
            "--rtx2080" => args.rtx2080 = true,
            "--grid" => args.grid = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CliArgs, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a, CliArgs::default());
        assert_eq!(a.sim_config().steps, 8);
    }

    #[test]
    fn full_flag_set() {
        let a = parse("--model lm --method parallax --gpus 8 --rtx2080 --steps 10 --order preemptive --fusion-mib 32 --grid").unwrap();
        assert_eq!(a.model, ModelId::Lm);
        assert_eq!(a.method, MethodId::Parallax);
        assert_eq!(a.gpus, 8);
        assert!(a.rtx2080);
        assert_eq!(a.steps, 10);
        assert_eq!(a.comm_order, Some(CommOrder::Preemptive));
        assert_eq!(a.fusion_mib, Some(32.0));
        assert!(a.grid);
        let cfg = a.sim_config();
        assert_eq!(cfg.fusion_bucket, Some(32.0 * 1024.0 * 1024.0));
        assert_eq!(a.cluster().gpu, embrace_simnet::GpuKind::Rtx2080);
    }

    #[test]
    fn rejects_unknown_model() {
        assert!(parse("--model resnet").is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse("--frobnicate").unwrap_err();
        assert!(err.contains("unknown flag"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse("--gpus").is_err());
        assert!(parse("--gpus abc").is_err());
    }

    #[test]
    fn rejects_too_few_steps() {
        assert!(parse("--steps 2").is_err());
    }

    #[test]
    fn help_returns_usage() {
        let err = parse("--help").unwrap_err();
        assert!(err.starts_with("embrace-sim"));
    }
}

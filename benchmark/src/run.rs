//! The shape of a run: set-up with four warm-up rounds, then identical
//! fixed-work rounds until the timed window closes, every timing the
//! median across rounds.
//!
//! Single rounds on the 2-core reference host swing ±10 % and up to 2×
//! during noisy-neighbour bursts, while medians over a long window agree
//! within a few percent — hence short rounds, a long window, medians.

use crate::host;
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::{self, StepProfile};
use embrace_obs::SpanSet;
use std::time::Instant;

/// Ranks of every workload: the reference host's core count, so the two
/// rank threads own a core each while the driver thread blocks.
pub const WORLD: usize = 2;

/// Warm-up rounds of the set-up, the checked first one included: caches,
/// the allocator and the service's hot-row cache are in their steady
/// state when the window opens, and `setup_s` spans seconds, not the
/// milliseconds a burst or process start-up would swamp.
pub const WARMUP_ROUNDS: usize = 4;

/// A window never closes on fewer rounds than this, however short.
const MIN_ROUNDS: usize = 2;

/// One fixed-work round.
pub struct Round {
    pub wall_s: f64,
    /// Per-step wall on rank 0 in ms, when the workload's steps are
    /// driven (and so timed) by the benchmark; empty when the product's
    /// entry point runs the whole round.
    pub step_ms: Vec<f64>,
}

impl Round {
    /// What the round's `steps` steps take at their typical pace: steps ×
    /// the median step where steps were timed, the round's wall where
    /// not. A round's wall also counts the few steps during which the
    /// hypervisor had descheduled a vCPU for milliseconds; rates built on
    /// it read 16–31 % apart between runs of identical code where rates
    /// built on the median step read 5–8 %.
    fn typical_wall_s(&self, steps: usize) -> f64 {
        if self.step_ms.is_empty() {
            self.wall_s
        } else {
            stats::median(&self.step_ms) * steps as f64 / 1e3
        }
    }
}

/// What the run loop needs from a workload.
pub trait Workload {
    /// Build inputs and state from the seed, run the first warm-up round
    /// and check its outputs.
    fn set_up(&mut self, report: &mut Report);
    /// One untraced round on the state set-up left.
    fn round(&mut self, report: &mut Report) -> Round;
    /// The same round with spans on: one wall-clock span set per rank.
    fn traced_round(&mut self, report: &mut Report) -> (Round, Vec<SpanSet>);
    /// Output check after the last round.
    fn final_check(&mut self, report: &mut Report);
    fn steps_per_round(&self) -> usize;
    /// Tokens (train) or looked-up ids (serve) per round, all ranks.
    fn tokens_per_round(&self) -> usize;
    /// Category of the span that wraps one step on a rank's track.
    fn step_span_cat(&self) -> &'static str;
    /// This workload family's layer metrics (`trainer.*`, or `ps.*` with
    /// the per-step counters), from rank 0's digest of its traced rounds.
    fn layer_metrics(&mut self, profile: &StepProfile, report: &mut Report);
}

/// Run `f`, turning a panic (a rank thread's included: `run_group`
/// re-raises it) into an error string so it is counted, not fatal.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with a non-string payload".into())
    })
}

/// Stop the run at the first failed operation or check: what follows
/// would be measured on a poisoned group or a wrong table.
fn bail_if_failed(report: &Report, during: &str) -> Result<(), String> {
    if report.failed == 0 {
        return Ok(());
    }
    Err(format!("{during} failed: {}", report.problems.join("; ")))
}

/// Per-step wall of a set of rounds in ms: pooled per-step samples where
/// the benchmark timed them, otherwise each round's wall ÷ steps.
pub fn step_ms(rounds: &[Round], steps: usize) -> Vec<f64> {
    if rounds.iter().all(|r| !r.step_ms.is_empty()) {
        stats::pooled(rounds.iter().map(|r| r.step_ms.as_slice()))
    } else {
        rounds.iter().map(|r| r.wall_s * 1e3 / steps as f64).collect()
    }
}

/// The untraced run: set-up, the timed window, the end-to-end metrics.
/// `started` is when the process started; the number of timed rounds is
/// returned.
pub fn end_to_end(
    w: &mut dyn Workload,
    seconds: f64,
    started: Instant,
    report: &mut Report,
) -> Result<usize, String> {
    w.set_up(report);
    bail_if_failed(report, "set-up")?;
    for _ in 1..WARMUP_ROUNDS {
        w.round(report);
        bail_if_failed(report, "a warm-up round")?;
    }
    report.put_value("setup_s", started.elapsed().as_secs_f64());

    let mut rounds: Vec<Round> = Vec::new();
    let cpu_before = host::process_cpu_s()?;
    let window = Instant::now();
    while rounds.len() < MIN_ROUNDS || window.elapsed().as_secs_f64() < seconds {
        rounds.push(w.round(report));
        bail_if_failed(report, "a timed round")?;
    }
    let cpu_s = host::process_cpu_s()? - cpu_before;
    w.final_check(report);

    let steps = w.steps_per_round();
    let tokens = w.tokens_per_round() as f64;
    let rates: Vec<f64> = rounds.iter().map(|r| tokens / r.typical_wall_s(steps)).collect();
    report.put("tokens_per_s", stats::summarize(&rates));
    report.put("step_ms_p50", stats::summarize(&step_ms(&rounds, steps)));
    report.put_value("cpu_ms_per_step", cpu_s * 1e3 / (rounds.len() * steps) as f64);
    report.put_value("peak_rss_mib", host::peak_rss_mib()?);
    Ok(rounds.len())
}

/// Rounds a traced run measures, untraced and traced alternating. Seven
/// 150-step trainer rounds give the 1000 step spans a p99 needs.
const TRACED_ROUNDS: usize = 7;
/// Traced rounds of a partner workload (see [`traced`]).
const PARTNER_ROUNDS: usize = 2;

/// `<stem>_p50` and `<stem>_p99` of one latency distribution. The tail
/// is taken at the highest percentile the sample count supports, and the
/// detail line says which.
pub fn put_latency(report: &mut Report, stem: &str, samples: &[f64]) {
    if samples.is_empty() {
        return;
    }
    report.put(&format!("{stem}_p50"), stats::summarize(samples));
    let (p, value) = stats::tail(samples, 0.99);
    report.put_noted(
        &format!("{stem}_p99"),
        Summary { median: value, q1: value, q3: value, n: samples.len() },
        format!("p{} of {} samples", p * 100.0, samples.len()),
    );
}

/// What a series of traced rounds produced.
#[derive(Default)]
struct TracedRounds {
    /// The untraced round run before each traced one, when paired.
    plain: Vec<Round>,
    traced: Vec<Round>,
    /// Per traced round: its wall and one span set per rank.
    spans: Vec<(f64, Vec<SpanSet>)>,
}

/// Run `rounds` traced rounds of `w` (each preceded by an untraced one
/// when `paired`) and check that every rank's trace is well nested.
fn traced_rounds(
    w: &mut dyn Workload,
    rounds: usize,
    paired: bool,
    report: &mut Report,
) -> Result<TracedRounds, String> {
    let mut out = TracedRounds::default();
    for _ in 0..rounds {
        if paired {
            out.plain.push(w.round(report));
        }
        let (round, sets) = w.traced_round(report);
        bail_if_failed(report, "a traced round")?;
        for (rank, set) in sets.iter().enumerate() {
            let nested = set.check_well_nested();
            report.check(nested.is_ok() && !set.is_empty(), || {
                format!("rank {rank} trace: {}", nested.err().unwrap_or("no spans".into()))
            });
        }
        out.spans.push((round.wall_s, sets));
        out.traced.push(round);
    }
    Ok(out)
}

fn digest(spans: &[(f64, Vec<SpanSet>)], step_cat: &str) -> StepProfile {
    let rank0: Vec<&SpanSet> = spans.iter().filter_map(|(_, sets)| sets.first()).collect();
    trace::profile(&rank0, step_cat, spans.iter().map(|(wall, _)| wall).sum())
}

/// The traced run of `w`, after a short one of each of `partners`:
/// `ops.collective_share`, `obs.*` and every family's layer metrics.
/// Partners are there so that every per-layer name is emitted whichever
/// workload was asked for; they run first, and what `w` measures of its
/// own family replaces theirs. `scale` in (0, 1] shrinks the number of
/// rounds for a short run. Writes the Chrome trace of `w`; returns its
/// path and the number of rounds of `w` run.
pub fn traced(
    w: &mut dyn Workload,
    partners: &mut [Box<dyn Workload>],
    name: &str,
    scale: f64,
    report: &mut Report,
) -> Result<(String, usize), String> {
    for partner in partners {
        partner.set_up(report);
        bail_if_failed(report, "a partner's set-up")?;
        let rounds = traced_rounds(partner.as_mut(), PARTNER_ROUNDS, false, report)?;
        partner.layer_metrics(&digest(&rounds.spans, partner.step_span_cat()), report);
    }

    w.set_up(report);
    bail_if_failed(report, "set-up")?;
    let rounds = ((TRACED_ROUNDS as f64 * scale).round() as usize).max(1);
    let TracedRounds { plain, traced, spans } = traced_rounds(w, rounds, true, report)?;
    w.final_check(report);

    let profile = digest(&spans, w.step_span_cat());
    let steps = w.steps_per_round();
    let overhead = stats::median(&step_ms(&traced, steps)) / stats::median(&step_ms(&plain, steps));
    report.put_value("obs.trace_overhead_ratio", overhead);
    report.put_noted(
        "obs.spans_per_step",
        Summary::single(profile.spans_per_step),
        format!(
            "rank-0 step spans cover {:.1}% of the traced rounds' wall",
            profile.coverage * 100.0
        ),
    );
    report.put_value("ops.collective_share", profile.collective_share);
    w.layer_metrics(&profile, report);
    let path = trace::write_chrome(&trace::merged(&spans), name)?;
    Ok((path, 2 * rounds))
}

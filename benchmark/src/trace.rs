//! What the traced rounds say: per-step times, where a step's time
//! went, and the Chrome trace file.
//!
//! A span's self time is its duration minus the part its child spans
//! cover. The tracks are the rank threads' own recorders (wall clock,
//! anchored when the rank starts its round), so the spans the product's
//! collectives and service calls record nest under the step spans.

use embrace_obs::{chrome_trace, ClockDomain, SpanRec, SpanSet};
use std::collections::BTreeMap;

/// One rank's traced rounds, digested.
#[derive(Default)]
pub struct StepProfile {
    /// Duration of every step span, ms.
    pub step_ms: Vec<f64>,
    /// Step time inside outermost `collective` spans ÷ step time.
    pub collective_share: f64,
    /// Self time of the step spans ÷ step time: what a step spends
    /// outside every span the product records under it.
    pub step_self_share: f64,
    /// All spans recorded ÷ step spans.
    pub spans_per_step: f64,
    /// Step time ÷ wall of the traced rounds.
    pub coverage: f64,
    /// Durations in µs of every span, by name, steps excluded.
    pub by_name: BTreeMap<String, Vec<f64>>,
}

/// Digest `rounds` (one span set per traced round, all of one rank)
/// whose round walls sum to `wall_s`.
pub fn profile(rounds: &[&SpanSet], step_cat: &str, wall_s: f64) -> StepProfile {
    let mut p = StepProfile::default();
    let (mut step_s, mut collective_s, mut self_s, mut spans) = (0.0, 0.0, 0.0, 0usize);
    for set in rounds {
        let mut order: Vec<&SpanRec> = set.spans().iter().filter(|s| s.end.is_finite()).collect();
        // Start order, longest first on ties: a parent precedes its children.
        order.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
        spans += order.len();
        // Stack of open ancestors: (span, time covered by direct children).
        let mut stack: Vec<(&SpanRec, f64)> = Vec::new();
        let mut close = |stack: &mut Vec<(&SpanRec, f64)>, until: f64| {
            while stack.last().is_some_and(|(top, _)| top.end <= until) {
                let (done, covered) = stack.pop().expect("checked non-empty");
                if done.cat == step_cat {
                    self_s += done.dur() - covered;
                }
            }
        };
        for s in order {
            close(&mut stack, s.start);
            if let Some((_, covered)) = stack.last_mut() {
                *covered += s.dur();
            }
            let in_step = stack.iter().any(|(a, _)| a.cat == step_cat);
            let in_collective = stack.iter().any(|(a, _)| a.cat == "collective");
            if s.cat == step_cat {
                step_s += s.dur();
                p.step_ms.push(s.dur() * 1e3);
            } else {
                p.by_name.entry(s.name.clone()).or_default().push(s.dur() * 1e6);
                if s.cat == "collective" && in_step && !in_collective {
                    collective_s += s.dur();
                }
            }
            stack.push((s, 0.0));
        }
        close(&mut stack, f64::INFINITY);
    }
    if step_s > 0.0 {
        p.collective_share = collective_s / step_s;
        p.step_self_share = self_s / step_s;
        p.spans_per_step = spans as f64 / p.step_ms.len() as f64;
    }
    if wall_s > 0.0 {
        p.coverage = step_s / wall_s;
    }
    p
}

/// All ranks' spans of all traced rounds on one time axis: round `k`
/// starts where round `k − 1` ended.
pub fn merged(rounds: &[(f64, Vec<SpanSet>)]) -> SpanSet {
    let mut all = SpanSet::new(ClockDomain::Wall);
    let mut offset = 0.0;
    for (wall_s, ranks) in rounds {
        for (rank, set) in ranks.iter().enumerate() {
            while all.tracks().len() <= rank {
                let name = set.tracks().first().cloned().unwrap_or_else(|| format!("rank{rank}"));
                all.add_track(&name);
            }
            for s in set.spans().iter().filter(|s| s.end.is_finite()) {
                all.record(rank, &s.name, &s.cat, s.start + offset, s.end + offset);
            }
        }
        offset += wall_s;
    }
    all
}

/// Write `set` as `trace-<workload>.json` (Chrome `trace_event`) under
/// the benchmark's own `target/` directory; returns the path.
pub fn write_chrome(set: &SpanSet, workload: &str) -> Result<String, String> {
    // `cargo run` exports the manifest directory; a bare binary falls
    // back to the path the driver's working directory gives it.
    let base = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "benchmark".into());
    let dir = format!("{base}/target");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{workload}.json");
    std::fs::write(&path, chrome_trace(set, &[])).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_round() -> SpanSet {
        let mut set = SpanSet::new(ClockDomain::Wall);
        let t = set.add_track("rank0");
        // step [0,10]: lookup [1,7] holding collectives [2,4] and [4,6],
        // the second with a nested collective [4.5,5.5]; then step [10,14]
        // with nothing under it.
        set.record(t, "step", "step", 0.0, 10.0);
        set.record(t, "ps_lookup", "serving", 1.0, 7.0);
        set.record(t, "a2a", "collective", 2.0, 4.0);
        set.record(t, "ssar", "collective", 4.0, 6.0);
        set.record(t, "inner", "collective", 4.5, 5.5);
        set.record(t, "step", "step", 10.0, 14.0);
        set
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let set = rank_round();
        let p = profile(&[&set], "step", 16.0);
        assert_eq!(p.step_ms, vec![10_000.0, 4_000.0]);
        // Outermost collectives only: 2 + 2 of 14 s; the nested one is
        // already inside `ssar`.
        assert!((p.collective_share - 4.0 / 14.0).abs() < 1e-12);
        // Step self time: (10 − 6) + 4 of 14 s.
        assert!((p.step_self_share - 8.0 / 14.0).abs() < 1e-12);
        assert_eq!(p.spans_per_step, 3.0);
        assert!((p.coverage - 14.0 / 16.0).abs() < 1e-12);
        assert_eq!(p.by_name["ps_lookup"], vec![6e6]);
        assert_eq!(p.by_name["inner"].len(), 1);
        assert!(!p.by_name.contains_key("step"));
    }

    #[test]
    fn merged_rounds_stay_well_nested_on_one_axis() {
        let rounds = vec![(20.0, vec![rank_round(), rank_round()]), (20.0, vec![rank_round()])];
        let all = merged(&rounds);
        assert_eq!(all.tracks(), ["rank0".to_string(), "rank0".to_string()]);
        assert_eq!(all.len(), 18);
        all.check_well_nested().expect("offset rounds do not overlap");
        assert!((all.max_end() - 34.0).abs() < 1e-12);
    }
}

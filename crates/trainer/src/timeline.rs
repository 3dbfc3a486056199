//! Execution timelines (paper Figs 2 and 6).
//!
//! Renders, for one model/cluster, the three scheduling schemes the paper
//! contrasts: default FIFO (Fig. 6a), Block-level Horizontal Scheduling
//! (Fig. 6b) and full 2D Communication Scheduling (Fig. 6c) — all over
//! Sparsity-aware Hybrid Communication, as in the paper's figure.

use crate::sim::{simulate, simulate_full, SimConfig};
use embrace_baselines::MethodId;
use embrace_models::ModelId;
use embrace_simnet::{Cluster, Trace};

/// One scheme's rendered timeline plus its steady step time.
#[derive(Clone, Debug)]
struct SchemeTimeline {
    label: &'static str,
    step_time: f64,
    stall: f64,
}

/// Compare the three scheduling schemes of Fig. 6. Returns them in the
/// paper's order: default, horizontal, 2D.
fn fig6_comparison(model: ModelId, cluster: Cluster) -> Vec<SchemeTimeline> {
    let schemes = [
        ("Default (FIFO) scheduling", MethodId::EmbRaceNoSched),
        ("Block-level Horizontal Scheduling", MethodId::EmbRaceHorizontal),
        ("2D Communication Scheduling", MethodId::EmbRace),
    ];
    schemes
        .iter()
        .map(|&(label, method)| {
            let m = simulate(&SimConfig::new(method, model, cluster));
            SchemeTimeline { label, step_time: m.step_time, stall: m.stall }
        })
        .collect()
}

/// ASCII Gantt chart of one steady-state step under `method`, rendered
/// `width` characters wide: `f`/`b` = forward/backward kernels, `v` =
/// vertical-scheduling computation, `r`/`a` = a dense block's ring
/// reduce-scatter/all-gather, `e` = embedding-data AlltoAll, `p`/`d` =
/// prior/delayed gradient AlltoAll, `g` = whole-gradient AlltoAll, `l` =
/// loss gather.
pub fn render_step_gantt(
    method: embrace_baselines::MethodId,
    model: ModelId,
    cluster: Cluster,
    width: usize,
) -> String {
    let mut cfg = SimConfig::new(method, model, cluster);
    cfg.steps = 5;
    let trace = simulate_full(&cfg).1.trace;
    // Window on one steady step: from the first FP of step 3 to the first
    // FP of step 4.
    let from = trace.first_start("s3/").unwrap_or(0.0);
    let to = trace.first_start("s4/").unwrap_or(f64::MAX);
    let windowed: Vec<_> = trace
        .spans
        .iter()
        .filter(|sp| sp.start < to && sp.end > from)
        .map(|sp| embrace_simnet::Span {
            task: sp.task,
            name: sp.name.clone(),
            res: sp.res,
            start: (sp.start.max(from) - from),
            end: (sp.end.min(to) - from),
        })
        .collect();
    embrace_simnet::Trace { spans: windowed }.render_ascii(width)
}

/// A simulated step timeline exported for the Chrome/Perfetto trace
/// viewer: the DES span set (virtual-clock domain), the per-priority
/// comm-queue depth counters, and the makespan the spans must reconcile
/// against.
pub struct ChromeExport {
    pub json: String,
    pub makespan: f64,
    /// Sum of network-stream span durations (for reconciliation checks).
    pub network_busy: f64,
}

/// Simulate `cfg` and export the full discrete-event timeline as Chrome
/// `trace_event` JSON (load in `chrome://tracing` or Perfetto). Spans land
/// on the "gpu compute" / "network" tracks; comm-queue depth per priority
/// class is emitted as counter series.
pub fn chrome_export(cfg: &SimConfig) -> ChromeExport {
    let (_, result) = simulate_full(cfg);
    let spans = result.trace.to_spans();
    let counters = Trace::queue_depth_series(&result.comm_queue);
    let json = embrace_obs::chrome_trace(&spans, &counters);
    let network_busy = result.trace.on(embrace_simnet::Res::Comm).iter().map(|s| s.dur()).sum();
    ChromeExport { json, makespan: result.makespan, network_busy }
}

/// Render the Fig. 6 comparison as text (used by the `fig6_timeline` bench
/// binary): per scheme, the step time, the stall, and the speedup over the
/// default FIFO schedule.
pub fn render_fig6(model: ModelId, cluster: Cluster) -> String {
    let rows = fig6_comparison(model, cluster);
    let base = rows[0].step_time;
    let mut out = String::new();
    for r in &rows {
        out.push_str(&format!(
            "{:<36} step {:8.2} ms   stall {:8.2} ms   speedup {:.3}x\n",
            r.label,
            r.step_time * 1e3,
            r.stall * 1e3,
            base / r.step_time
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_improve_in_paper_order() {
        // Fig. 6: each level of scheduling shortens (or at least does not
        // lengthen) the step.
        let rows = fig6_comparison(ModelId::Gnmt8, Cluster::rtx3090(16));
        assert_eq!(rows.len(), 3);
        assert!(rows[1].step_time <= rows[0].step_time * 1.001, "horizontal must not regress");
        assert!(rows[2].step_time <= rows[1].step_time * 1.001, "2D must not regress");
    }

    #[test]
    fn gantt_renders_both_streams() {
        let g = render_step_gantt(MethodId::EmbRace, ModelId::Gnmt8, Cluster::rtx3090(16), 80);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('f') || lines[0].contains('b'), "compute row: {g}");
        let dense = lines[1].contains('r') && lines[1].contains('a');
        assert!(dense, "network row should show the reduce-scatter and all-gather: {g}");
    }

    #[test]
    fn chrome_export_parses_and_reconciles() {
        let mut cfg = SimConfig::new(MethodId::EmbRace, ModelId::Gnmt8, Cluster::rtx3090(8));
        cfg.steps = 4;
        let exp = chrome_export(&cfg);
        let v = embrace_obs::json::parse(&exp.json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
        assert!(!events.is_empty());
        // Max span end (µs) must reconcile with the DES makespan: the
        // makespan IS the end of the last task on either stream.
        let max_end_us = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| {
                e.get("ts").and_then(|t| t.as_f64()).expect("ts")
                    + e.get("dur").and_then(|d| d.as_f64()).expect("dur")
            })
            .fold(0.0, f64::max);
        let rel = (max_end_us - exp.makespan * 1e6).abs() / (exp.makespan * 1e6);
        assert!(rel < 0.01, "span horizon {} vs makespan {} µs", max_end_us, exp.makespan * 1e6);
        assert!(exp.network_busy > 0.0 && exp.network_busy <= exp.makespan * 1.0001);
        // Queue-depth counters present for a priority method.
        assert!(
            events.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")),
            "expected counter events"
        );
    }

    #[test]
    fn render_contains_all_schemes() {
        let text = render_fig6(ModelId::BertBase, Cluster::rtx3090(8));
        assert!(text.contains("Default"));
        assert!(text.contains("Horizontal"));
        assert!(text.contains("2D"));
        assert_eq!(text.lines().count(), 3);
    }
}

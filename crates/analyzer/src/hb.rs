//! Vector-clock happens-before analysis of live scheduler traces.
//!
//! The plan verifiers ([`crate::verify`], [`crate::model_check`]) prove
//! properties of *plans*; this module checks what a threaded run *actually
//! did*, from the logs the `obs`-instrumented scheduler records
//! ([`OpTiming`] per executed op, or the equivalent op-level spans of a
//! [`SpanSet`]).
//!
//! Encoding: each rank's comm scheduler is a process with a vector
//! clock, and every collective `tag` is a synchronization object. When
//! rank `r` starts executing `tag` it ticks its own component and joins
//! its clock *into* the object's clock; when it finishes, it joins the
//! object's clock back — so op completions inherit a happens-before edge
//! from every participant that started earlier in wall time. Events are
//! replayed in the recorded wall-clock order (all ranks are threads of
//! one process sharing `obs::WallClock`).
//!
//! Detections, each a [`Diagnostic`]:
//!
//! * **Determinism violation** — every rank applies the same rule to an
//!   equal queue (there is no controller; the queue is a function of the
//!   rank's call sequence, which SPMD ranks share), so every rank's
//!   executed tag sequence must be identical
//!   ([`DiagnosticKind::DeterminismViolation`]).
//! * **Priority inversion** — an op executed while a strictly more urgent
//!   op was already *globally runnable* (submitted on every rank — a
//!   collective cannot start before that) and was left waiting
//!   ([`DiagnosticKind::PriorityInversion`]). No slack: the scheduler
//!   chooses on the thread that submits, so an op more urgent than the one
//!   chosen and submitted before the choice is the one chosen.
//! * **Unordered conflicting accesses** — two collectives observed in
//!   opposite completion orders on different ranks whose completion
//!   clocks are incomparable: a real race on the scheduler's queue /
//!   preemption state machine ([`DiagnosticKind::UnorderedAccess`]).
//!
//! Clean traced runs — including chunked and preempted ones — must come
//! back empty; that is cross-checked against the model checker's
//! determinism verdict in this crate's tests and exercised on live runs
//! by `embrace_sim trace --check-hb`.

use crate::verify::{sort_diagnostics, Diagnostic, DiagnosticKind};
use embrace_collectives::OpTiming;
use embrace_obs::SpanSet;

/// One executed collective in a rank's trace, in execution (completion)
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct HbOp {
    pub tag: String,
    /// Queue priority (lower = more urgent). Zero when the source (span
    /// exports) does not carry priorities — disables inversion checks.
    pub priority: i64,
    /// When the op entered the queue; equal to `started_s` when the
    /// source does not record submission times.
    pub submitted_s: f64,
    pub started_s: f64,
    pub finished_s: f64,
}

/// Convert per-rank [`OpTiming`] logs (from `CommScheduler::observation`)
/// into happens-before traces.
pub fn from_timings(logs: &[Vec<OpTiming>]) -> Vec<Vec<HbOp>> {
    logs.iter()
        .map(|log| {
            log.iter()
                .map(|t| HbOp {
                    tag: t.tag.clone(),
                    priority: t.priority,
                    submitted_s: t.submitted_s,
                    started_s: t.started_s,
                    finished_s: t.finished_s,
                })
                .collect()
        })
        .collect()
}

/// Extract happens-before traces from an observed scheduler's span set:
/// one trace per track, op-level spans only (`"chunk"` segment spans are
/// resume bookkeeping, not separate queue transitions). Spans carry no
/// priorities or submit times, so only order/clock checks apply.
pub fn from_spans(spans: &SpanSet) -> Vec<Vec<HbOp>> {
    (0..spans.tracks().len())
        .map(|track| {
            spans
                .spans()
                .iter()
                .filter(|s| s.track == track && s.cat != "chunk")
                .map(|s| HbOp {
                    tag: s.name.clone(),
                    priority: 0,
                    submitted_s: s.start,
                    started_s: s.start,
                    finished_s: s.end,
                })
                .collect()
        })
        .collect()
}

type Clock = Vec<u64>;

fn join(into: &mut Clock, other: &Clock) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// Strict vector-clock order: `a` happened before `b`.
fn before(a: &Clock, b: &Clock) -> bool {
    a != b && a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Run the happens-before analysis over per-rank execution traces.
pub fn check_hb(ranks: &[Vec<HbOp>]) -> Vec<Diagnostic> {
    let w = ranks.len();
    let mut out = Vec::new();
    if w == 0 {
        return out;
    }

    // Determinism: every rank must execute the one tag order the shared
    // rule yields.
    for (r, trace) in ranks.iter().enumerate().skip(1) {
        let head = &ranks[0];
        let diverge = (0..trace.len().max(head.len()))
            .find(|&i| trace.get(i).map(|o| &o.tag) != head.get(i).map(|o| &o.tag));
        if let Some(i) = diverge {
            let name = |t: Option<&HbOp>| t.map_or("<end>".to_string(), |o| o.tag.clone());
            out.push(Diagnostic {
                kind: DiagnosticKind::DeterminismViolation,
                rank: Some(r),
                op: name(trace.get(i)),
                message: format!(
                    "execution order diverges from rank 0 at op #{i}: {} vs {}",
                    name(trace.get(i)),
                    name(ranks[0].get(i))
                ),
            });
        }
    }

    // Priority inversion, per rank: an op ran while a strictly more
    // urgent one was already *globally runnable*. A collective cannot
    // start until every rank has submitted it, so the moment it becomes
    // runnable is the latest submission across ranks — judging by the
    // local submit time would flag the scheduler for correctly filling
    // the wait with lower-priority work.
    let mut global_ready: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
    for trace in ranks {
        for op in trace {
            let e = global_ready.entry(op.tag.as_str()).or_insert(op.submitted_s);
            *e = e.max(op.submitted_s);
        }
    }
    for (r, trace) in ranks.iter().enumerate() {
        for (i, ran) in trace.iter().enumerate() {
            for waited in &trace[i + 1..] {
                let ready = global_ready[waited.tag.as_str()];
                if waited.priority < ran.priority && ready < ran.started_s {
                    out.push(Diagnostic {
                        kind: DiagnosticKind::PriorityInversion,
                        rank: Some(r),
                        op: waited.tag.clone(),
                        message: format!(
                            "priority {} op waited {:.1} ms while '{}' (priority {}) ran",
                            waited.priority,
                            (ran.started_s - ready) * 1e3,
                            ran.tag,
                            ran.priority
                        ),
                    });
                }
            }
        }
    }

    // Vector clocks: replay start/finish events in wall-clock order.
    #[derive(Clone, Copy)]
    enum Ev {
        Start,
        Finish,
    }
    let mut events: Vec<(f64, usize, usize, Ev)> = Vec::new();
    for (r, trace) in ranks.iter().enumerate() {
        for (i, op) in trace.iter().enumerate() {
            events.push((op.started_s, r, i, Ev::Start));
            events.push((op.finished_s, r, i, Ev::Finish));
        }
    }
    // Ties: earlier log index first, Start before Finish of the same op.
    events.sort_by(|a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)).then(match (a.3, b.3) {
            (Ev::Start, Ev::Finish) => std::cmp::Ordering::Less,
            (Ev::Finish, Ev::Start) => std::cmp::Ordering::Greater,
            _ => std::cmp::Ordering::Equal,
        })
    });
    let mut vc: Vec<Clock> = vec![vec![0; w]; w];
    let mut objects: std::collections::HashMap<&str, Clock> = std::collections::HashMap::new();
    let mut finish_clock: Vec<Vec<Clock>> =
        ranks.iter().map(|t| vec![Vec::new(); t.len()]).collect();
    for (_, r, i, ev) in events {
        let tag = ranks[r][i].tag.as_str();
        match ev {
            Ev::Start => {
                vc[r][r] += 1;
                let obj = objects.entry(tag).or_insert_with(|| vec![0; w]);
                join(obj, &vc[r]);
            }
            Ev::Finish => {
                if let Some(obj) = objects.get(tag) {
                    join(&mut vc[r], obj);
                }
                finish_clock[r][i] = vc[r].clone();
            }
        }
    }

    // Unordered conflicting accesses: tags completed in opposite orders
    // on different ranks, with incomparable completion clocks. Completion
    // clock of a tag = join of its per-rank finish clocks.
    let mut done: std::collections::BTreeMap<&str, (Clock, Vec<usize>)> =
        std::collections::BTreeMap::new();
    for (r, trace) in ranks.iter().enumerate() {
        for (i, op) in trace.iter().enumerate() {
            let e =
                done.entry(op.tag.as_str()).or_insert_with(|| (vec![0; w], vec![usize::MAX; w]));
            join(&mut e.0, &finish_clock[r][i]);
            // First completion position per rank decides observed order.
            if e.1[r] == usize::MAX {
                e.1[r] = i;
            }
        }
    }
    let tags: Vec<&str> = done.keys().copied().collect();
    for (x, &a) in tags.iter().enumerate() {
        for &b in &tags[x + 1..] {
            let (ca, pa) = &done[a];
            let (cb, pb) = &done[b];
            let orders: Vec<std::cmp::Ordering> = (0..w)
                .filter(|&r| pa[r] != usize::MAX && pb[r] != usize::MAX)
                .map(|r| pa[r].cmp(&pb[r]))
                .collect();
            let both_orders = orders.iter().any(|o| o.is_lt()) && orders.iter().any(|o| o.is_gt());
            if both_orders && !before(ca, cb) && !before(cb, ca) {
                out.push(Diagnostic {
                    kind: DiagnosticKind::UnorderedAccess,
                    rank: None,
                    op: format!("{a} vs {b}"),
                    message: format!(
                        "'{a}' and '{b}' completed in opposite orders on different ranks \
                         with no happens-before edge between them"
                    ),
                });
            }
        }
    }

    sort_diagnostics(&mut out);
    out
}

/// Convenience: analyze raw scheduler timing logs directly.
pub fn check_op_timings(logs: &[Vec<OpTiming>]) -> Vec<Diagnostic> {
    check_hb(&from_timings(logs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(tag: &str, priority: i64, submitted: f64, start: f64, finish: f64) -> HbOp {
        HbOp {
            tag: tag.into(),
            priority,
            submitted_s: submitted,
            started_s: start,
            finished_s: finish,
        }
    }

    /// A clean SPMD trace: same tags, same order, interleaved start times.
    fn clean(world: usize) -> Vec<Vec<HbOp>> {
        (0..world)
            .map(|r| {
                let skew = r as f64 * 1e-5;
                vec![
                    op("grad/0", -2, 0.0, 0.01 + skew, 0.02 + skew),
                    op("emb/0", -1, 0.0, 0.03 + skew, 0.04 + skew),
                    op("dense/0", 3, 0.0, 0.05 + skew, 0.06 + skew),
                ]
            })
            .collect()
    }

    #[test]
    fn clean_trace_reports_nothing() {
        for world in [1usize, 2, 4] {
            let diags = check_hb(&clean(world));
            assert!(diags.is_empty(), "world {world}: {diags:?}");
        }
    }

    #[test]
    fn divergent_order_is_a_determinism_violation() {
        let mut t = clean(3);
        t[2].swap(0, 1);
        let diags = check_hb(&t);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::DeterminismViolation && d.rank == Some(2)),
            "{diags:?}"
        );
    }

    #[test]
    fn queued_urgent_op_losing_is_priority_inversion() {
        // The urgent op was submitted 40 ms before the bulk op started,
        // yet ran after it.
        let t = vec![vec![op("dense/0", 3, 0.00, 0.05, 0.10), op("grad/0", -2, 0.01, 0.10, 0.11)]];
        let diags = check_hb(&t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::PriorityInversion);
        assert_eq!(diags[0].op, "grad/0");
    }

    #[test]
    fn preemption_pattern_is_not_an_inversion() {
        // Urgent op submitted mid-execution of the bulk op and finishing
        // first (the chunked scheduler's preemption): clean.
        let t: Vec<Vec<HbOp>> = (0..2)
            .map(|_| {
                vec![
                    op("grad/0", -2, 0.05, 0.06, 0.07), // completes first
                    op("dense/0", 3, 0.00, 0.01, 0.09), // preempted around it
                ]
            })
            .collect();
        let diags = check_hb(&t);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn opposite_completion_orders_are_unordered_access() {
        // Rank 0 runs a then b; rank 1 runs b then a, overlapping in time
        // so no clock orders the two completions.
        let t = vec![
            vec![op("a", 0, 0.0, 0.01, 0.02), op("b", 0, 0.0, 0.03, 0.04)],
            vec![op("b", 0, 0.0, 0.011, 0.021), op("a", 0, 0.0, 0.031, 0.041)],
        ];
        let diags = check_hb(&t);
        assert!(diags.iter().any(|d| d.kind == DiagnosticKind::UnorderedAccess), "{diags:?}");
        // The divergence itself is also a determinism violation.
        assert!(diags.iter().any(|d| d.kind == DiagnosticKind::DeterminismViolation));
    }

    #[test]
    fn span_extraction_matches_timing_extraction() {
        use embrace_obs::{ClockDomain, SpanSet};
        let mut spans = SpanSet::new(ClockDomain::Wall);
        let t0 = spans.add_track("comm-0");
        spans.record(t0, "grad/0", "alltoallv_sparse", 0.01, 0.02);
        spans.record(t0, "grad/0:seg", "chunk", 0.012, 0.014);
        spans.record(t0, "dense/0", "allreduce_dense", 0.03, 0.05);
        let traces = from_spans(&spans);
        assert_eq!(traces.len(), 1);
        let tags: Vec<&str> = traces[0].iter().map(|o| o.tag.as_str()).collect();
        assert_eq!(tags, ["grad/0", "dense/0"], "chunk spans are not queue transitions");
        assert!(check_hb(&traces).is_empty());
    }
}

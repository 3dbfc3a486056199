//! The static comm-plan verifier.
//!
//! Consumes the plan IR of [`crate::plan`] and emits structured
//! [`Diagnostic`]s with rank/op provenance. Checked invariants:
//!
//! * **SPMD consistency** — every rank's schedule plan carries the same
//!   multiset of `(tag, kind)` submissions ([`DiagnosticKind::SpmdMismatch`])
//!   with identical priorities per tag ([`DiagnosticKind::PrioritySkew`]);
//! * **send/recv pairing** — on every ordered link, planned sends and
//!   receives match one-to-one: an unmatched send is an orphan
//!   ([`DiagnosticKind::OrphanSend`]), an unmatched receive is a static
//!   deadlock ([`DiagnosticKind::RecvWithoutSend`]), and a matched pair
//!   with different byte counts breaks byte conservation
//!   ([`DiagnosticKind::ByteMismatch`]);
//! * **byte conservation** — ring-allreduce plans keep neighbour-only
//!   topology with 2(w-1) messages each way and conserve bytes globally,
//!   and alltoall plans conserve bytes on every link;
//! * **exact-once partition coverage** — a sharding of `0..domain` covers
//!   every index exactly once ([`DiagnosticKind::PartitionGap`] /
//!   [`DiagnosticKind::PartitionOverlap`]);
//! * **priority monotonicity** — the horizontal schedule orders prior
//!   gradients before embedding data before dense blocks (in FP order)
//!   before delayed gradients ([`DiagnosticKind::PriorityInversion`]).

use crate::plan::{P2pOp, P2pPlan, SchedulePlan};
use embrace_core::CommKind;
use std::collections::BTreeMap;
use std::fmt;

/// What kind of invariant a diagnostic reports.
///
/// The `Ord` derive is the tie-breaker of [`sort_diagnostics`]; new
/// variants go at the end so existing relative orders stay stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagnosticKind {
    /// Ranks disagree on the multiset of submitted collectives.
    SpmdMismatch,
    /// The same tag is submitted with different priorities across ranks.
    PrioritySkew,
    /// A planned send has no matching receive on the destination.
    OrphanSend,
    /// A planned receive has no matching send — a static deadlock.
    RecvWithoutSend,
    /// A matched send/recv pair disagrees on byte count.
    ByteMismatch,
    /// Part of the domain is covered by no partition shard.
    PartitionGap,
    /// Part of the domain is covered by more than one shard.
    PartitionOverlap,
    /// The horizontal schedule violates §4.2.1 priority ordering.
    PriorityInversion,
    /// The wait-for graph of a p2p plan contains a dependency cycle — a
    /// deadlock no interleaving can escape (reported with the full cycle).
    WaitCycle,
    /// Ranks executed collectives in different orders even though the
    /// scheduler's controller imposes one global order.
    DeterminismViolation,
    /// Two conflicting scheduler-state accesses completed in opposite
    /// orders on different ranks with no happens-before edge between them.
    UnorderedAccess,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagnosticKind::SpmdMismatch => "spmd-mismatch",
            DiagnosticKind::PrioritySkew => "priority-skew",
            DiagnosticKind::OrphanSend => "orphan-send",
            DiagnosticKind::RecvWithoutSend => "recv-without-send",
            DiagnosticKind::ByteMismatch => "byte-mismatch",
            DiagnosticKind::PartitionGap => "partition-gap",
            DiagnosticKind::PartitionOverlap => "partition-overlap",
            DiagnosticKind::PriorityInversion => "priority-inversion",
            DiagnosticKind::WaitCycle => "wait-cycle",
            DiagnosticKind::DeterminismViolation => "determinism-violation",
            DiagnosticKind::UnorderedAccess => "unordered-access",
        };
        f.write_str(s)
    }
}

/// One verifier finding, with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub kind: DiagnosticKind,
    /// Rank the finding is attributed to (`None` for whole-group findings).
    pub rank: Option<usize>,
    /// The op or plan element involved (tag, link, shard index, …).
    pub op: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank {
            Some(r) => write!(f, "[{}] rank {} {}: {}", self.kind, r, self.op, self.message),
            None => write!(f, "[{}] {}: {}", self.kind, self.op, self.message),
        }
    }
}

fn diag(
    kind: DiagnosticKind,
    rank: Option<usize>,
    op: impl Into<String>,
    msg: String,
) -> Diagnostic {
    Diagnostic { kind, rank, op: op.into(), message: msg }
}

/// Put diagnostics in the deterministic emission order every verifier
/// uses: rank (whole-group findings last), then op, then kind. The sort
/// is stable, so equal keys keep their discovery order — `verify-plan`
/// output diffs cleanly across runs and machines.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let ka = (a.rank.map_or(usize::MAX, |r| r), &a.op, a.kind);
        let kb = (b.rank.map_or(usize::MAX, |r| r), &b.op, b.kind);
        ka.cmp(&kb)
    });
}

/// Verify a point-to-point plan: link pairing, byte conservation.
pub fn verify_p2p(plan: &P2pPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let w = plan.world;
    // Per ordered link, the k-th send pairs with the k-th recv (the
    // transport's per-link FIFO guarantees exactly this matching).
    for from in 0..w {
        for to in 0..w {
            if from == to {
                continue;
            }
            let sends: Vec<u64> = plan.ranks[from]
                .iter()
                .filter_map(|op| match op {
                    P2pOp::Send { to: t, bytes } if *t == to => Some(*bytes),
                    _ => None,
                })
                .collect();
            let recvs: Vec<u64> = plan.ranks[to]
                .iter()
                .filter_map(|op| match op {
                    P2pOp::Recv { from: f, bytes } if *f == from => Some(*bytes),
                    _ => None,
                })
                .collect();
            let link = format!("{}:{from}->{to}", plan.kind);
            for (k, bytes) in sends.iter().enumerate().skip(recvs.len()) {
                out.push(diag(
                    DiagnosticKind::OrphanSend,
                    Some(from),
                    link.clone(),
                    format!("send #{k} ({bytes} B) has no matching receive on rank {to}"),
                ));
            }
            for (k, bytes) in recvs.iter().enumerate().skip(sends.len()) {
                out.push(diag(
                    DiagnosticKind::RecvWithoutSend,
                    Some(to),
                    link.clone(),
                    format!(
                        "receive #{k} ({bytes} B) has no matching send on rank {from}: static deadlock"
                    ),
                ));
            }
            for (k, (s, r)) in sends.iter().zip(&recvs).enumerate() {
                if s != r {
                    out.push(diag(
                        DiagnosticKind::ByteMismatch,
                        Some(to),
                        link.clone(),
                        format!("message #{k}: sender plans {s} B, receiver expects {r} B"),
                    ));
                }
            }
        }
    }
    // Ring structure: every rank talks only to its neighbours, with
    // 2(w-1) messages each way, and bytes are conserved globally (each
    // rank's per-rank totals legitimately differ when `row_partition`
    // produces uneven chunks).
    if plan.kind == "ring_allreduce" && w > 1 {
        for r in 0..w {
            let next = (r + 1) % w;
            let prev = (r + w - 1) % w;
            let (mut sends, mut recvs) = (0usize, 0usize);
            for op in &plan.ranks[r] {
                match op {
                    P2pOp::Send { to, .. } => {
                        sends += 1;
                        if *to != next {
                            out.push(diag(
                                DiagnosticKind::ByteMismatch,
                                Some(r),
                                plan.kind,
                                format!("ring rank sends to {to}, expected neighbour {next}"),
                            ));
                        }
                    }
                    P2pOp::Recv { from, .. } => {
                        recvs += 1;
                        if *from != prev {
                            out.push(diag(
                                DiagnosticKind::ByteMismatch,
                                Some(r),
                                plan.kind,
                                format!("ring rank receives from {from}, expected {prev}"),
                            ));
                        }
                    }
                }
            }
            if sends != 2 * (w - 1) || recvs != 2 * (w - 1) {
                out.push(diag(
                    DiagnosticKind::ByteMismatch,
                    Some(r),
                    plan.kind,
                    format!(
                        "ring rank has {sends} sends / {recvs} recvs, expected {} each",
                        2 * (w - 1)
                    ),
                ));
            }
        }
        let total_sent: u64 = (0..w).map(|r| plan.bytes_sent(r)).sum();
        let total_recv: u64 = (0..w).map(|r| plan.bytes_received(r)).sum();
        if total_sent != total_recv {
            out.push(diag(
                DiagnosticKind::ByteMismatch,
                None,
                plan.kind,
                format!("ring circulates {total_sent} B sent vs {total_recv} B received"),
            ));
        }
    }
    sort_diagnostics(&mut out);
    out
}

/// Verify SPMD consistency of a schedule plan across ranks.
pub fn verify_schedule(plan: &SchedulePlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if plan.ranks.is_empty() {
        return out;
    }
    // Multiset of (tag, kind) per rank, plus the priority each rank gave
    // each tag.
    let shapes: Vec<BTreeMap<(String, &'static str), usize>> = plan
        .ranks
        .iter()
        .map(|ops| {
            let mut m = BTreeMap::new();
            for op in ops {
                *m.entry((op.tag.clone(), op.kind)).or_insert(0) += 1;
            }
            m
        })
        .collect();
    for (r, shape) in shapes.iter().enumerate().skip(1) {
        if shape != &shapes[0] {
            // Name one differing tag for provenance.
            let offending = shapes[0]
                .keys()
                .find(|k| shape.get(*k) != shapes[0].get(*k))
                .or_else(|| shape.keys().find(|k| !shapes[0].contains_key(*k)))
                .map(|(t, k)| format!("{t} ({k})"))
                .unwrap_or_else(|| "<unknown>".into());
            out.push(diag(
                DiagnosticKind::SpmdMismatch,
                Some(r),
                offending,
                format!("rank {r}'s submission multiset differs from rank 0's"),
            ));
        }
    }
    // Priority skew: same tag, different priority anywhere.
    let mut prio: BTreeMap<&str, (usize, i64)> = BTreeMap::new();
    for (r, ops) in plan.ranks.iter().enumerate() {
        for op in ops {
            match prio.get(op.tag.as_str()) {
                None => {
                    prio.insert(&op.tag, (r, op.priority));
                }
                Some(&(r0, p0)) if p0 != op.priority => {
                    out.push(diag(
                        DiagnosticKind::PrioritySkew,
                        Some(r),
                        op.tag.clone(),
                        format!(
                            "priority {} disagrees with rank {r0}'s priority {p0}",
                            op.priority
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    sort_diagnostics(&mut out);
    out
}

/// Verify §4.2.1 priority monotonicity of a horizontal schedule (as
/// produced by `Priorities::schedule_ops`): prior gradients before
/// embedding data before dense blocks (ascending in FP order) before
/// delayed gradients.
pub fn verify_horizontal(ops: &[(CommKind, i64)]) -> Vec<Diagnostic> {
    // Class rank: the coarse §4.2.1 tier of an op.
    fn tier(k: CommKind) -> u8 {
        match k {
            CommKind::PriorGrad(_) => 0,
            CommKind::EmbData(_) => 1,
            CommKind::DenseBlock(_) => 2,
            CommKind::DelayedGrad(_) => 3,
        }
    }
    let mut out = Vec::new();
    let mut sorted = ops.to_vec();
    sorted.sort_by_key(|&(_, p)| p);
    for w in sorted.windows(2) {
        let ((ka, pa), (kb, pb)) = (w[0], w[1]);
        let inverted = match (tier(ka), tier(kb)) {
            (ta, tb) if ta > tb => true,
            // Dense blocks must additionally ascend in FP/block order.
            (2, 2) => {
                matches!((ka, kb), (CommKind::DenseBlock(a), CommKind::DenseBlock(b)) if a > b)
            }
            _ => false,
        };
        if inverted {
            out.push(diag(
                DiagnosticKind::PriorityInversion,
                None,
                format!("{ka:?} (prio {pa}) vs {kb:?} (prio {pb})"),
                "horizontal schedule violates §4.2.1 ordering".into(),
            ));
        }
    }
    sort_diagnostics(&mut out);
    out
}

/// Verify that `shards` (half-open `(start, end)` ranges, one per rank)
/// cover `0..domain` exactly once — the hybrid split's correctness
/// precondition (every vocab row / embedding column owned by exactly one
/// shard).
pub fn verify_partition(shards: &[(usize, usize)], domain: usize) -> Vec<Diagnostic> {
    let mut cover = vec![0u32; domain];
    for &(start, end) in shards {
        for c in cover.iter_mut().take(end.min(domain)).skip(start) {
            *c += 1;
        }
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < domain {
        if cover[i] == 1 {
            i += 1;
            continue;
        }
        let bad = cover[i];
        let start = i;
        while i < domain && cover[i] == bad {
            i += 1;
        }
        let owner = shards.iter().position(|&(s, e)| start >= s && start < e);
        if bad == 0 {
            out.push(diag(
                DiagnosticKind::PartitionGap,
                None,
                format!("rows {start}..{i}"),
                "covered by no shard".into(),
            ));
        } else {
            out.push(diag(
                DiagnosticKind::PartitionOverlap,
                owner,
                format!("rows {start}..{i}"),
                format!("covered by {bad} shards"),
            ));
        }
    }
    sort_diagnostics(&mut out);
    out
}

/// A single seeded defect to plant in a valid plan — the verifier must
/// catch each with the right [`DiagnosticKind`] (property-tested).
#[derive(Clone, Copy, Debug)]
pub enum PlanMutation {
    /// Delete rank `rank`'s `index`-th send (→ the peer's matching
    /// receive becomes a static deadlock).
    DropSend { rank: usize, index: usize },
    /// Redirect rank `rank`'s `index`-th send to the next peer over (→
    /// the intended receiver starves and the accidental one gets an
    /// orphan message). Needs `world ≥ 3`; a 2-rank misroute would have
    /// to target the sender itself.
    RetargetSend { rank: usize, index: usize },
    /// Change the priority of rank `rank`'s `index`-th submission.
    SkewPriority { rank: usize, index: usize, delta: i64 },
    /// Halve-and-truncate the byte count of rank `rank`'s `index`-th send.
    ShrinkBytes { rank: usize, index: usize },
    /// Remove shard `rank` from a partition (→ coverage gap).
    DropPartitionRow { rank: usize },
}

/// Apply [`PlanMutation::DropSend`] / [`PlanMutation::RetargetSend`] /
/// [`PlanMutation::ShrinkBytes`] to a p2p plan. `index` counts the
/// rank's *sends* (receives are untouched).
/// Returns `false` if the mutation had no target (e.g. index past the
/// send count) and the plan is unchanged.
pub fn mutate_p2p(plan: &mut P2pPlan, m: PlanMutation) -> bool {
    match m {
        PlanMutation::DropSend { rank, index } => {
            let rank = rank % plan.world;
            let pos = plan.ranks[rank]
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, P2pOp::Send { .. }))
                .map(|(i, _)| i)
                .nth(index);
            match pos {
                Some(i) => {
                    plan.ranks[rank].remove(i);
                    true
                }
                None => false,
            }
        }
        PlanMutation::RetargetSend { rank, index } => {
            let rank = rank % plan.world;
            let mut seen = 0;
            for op in plan.ranks[rank].iter_mut() {
                if let P2pOp::Send { to, .. } = op {
                    if seen == index {
                        let mut new_to = (*to + 1) % plan.world;
                        if new_to == rank {
                            new_to = (new_to + 1) % plan.world;
                        }
                        if new_to == *to {
                            return false; // world < 3: no third rank to misroute to
                        }
                        *to = new_to;
                        return true;
                    }
                    seen += 1;
                }
            }
            false
        }
        PlanMutation::ShrinkBytes { rank, index } => {
            let rank = rank % plan.world;
            let mut seen = 0;
            for op in plan.ranks[rank].iter_mut() {
                if let P2pOp::Send { bytes, .. } = op {
                    if seen == index {
                        if *bytes == 0 {
                            return false; // nothing to shrink
                        }
                        *bytes /= 2;
                        return true;
                    }
                    seen += 1;
                }
            }
            false
        }
        _ => false,
    }
}

/// Apply [`PlanMutation::SkewPriority`] to a schedule plan. Returns
/// `false` when out of range or when `delta` is zero.
pub fn mutate_schedule(plan: &mut SchedulePlan, m: PlanMutation) -> bool {
    if let PlanMutation::SkewPriority { rank, index, delta } = m {
        if delta == 0 || plan.world < 2 {
            return false;
        }
        let rank = rank % plan.world;
        let ops = &mut plan.ranks[rank];
        if ops.is_empty() {
            return false;
        }
        let index = index % ops.len();
        ops[index].priority = ops[index].priority.saturating_add(delta);
        true
    } else {
        false
    }
}

/// Apply [`PlanMutation::DropPartitionRow`] to a shard list.
pub fn mutate_partition(shards: &mut Vec<(usize, usize)>, m: PlanMutation) -> bool {
    if let PlanMutation::DropPartitionRow { rank } = m {
        if shards.is_empty() {
            return false;
        }
        let rank = rank % shards.len();
        // Only a non-empty shard produces a gap.
        if shards[rank].0 == shards[rank].1 {
            return false;
        }
        shards.remove(rank);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{allgather_plan, alltoall_plan, barrier_plan, ring_allreduce_plan};

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn valid_plans_are_clean() {
        assert!(verify_p2p(&barrier_plan(4)).is_empty());
        assert!(verify_p2p(&ring_allreduce_plan(3, 11)).is_empty());
        assert!(verify_p2p(&allgather_plan(3, &[4, 8, 12])).is_empty());
        let bytes = vec![vec![0, 5], vec![7, 0]];
        assert!(verify_p2p(&alltoall_plan("alltoall_dense", &bytes)).is_empty());
    }

    #[test]
    fn dropped_send_is_a_static_deadlock() {
        let mut p = allgather_plan(3, &[4, 4, 4]);
        assert!(mutate_p2p(&mut p, PlanMutation::DropSend { rank: 1, index: 0 }));
        let diags = verify_p2p(&p);
        assert!(kinds(&diags).contains(&DiagnosticKind::RecvWithoutSend), "{diags:?}");
        // The receiver of the dropped message is named.
        let d = diags.iter().find(|d| d.kind == DiagnosticKind::RecvWithoutSend).unwrap();
        assert_eq!(d.rank, Some(2)); // rank 1's first send goes to rank 2 (rotated order)
    }

    #[test]
    fn extra_send_is_orphan() {
        let mut p = barrier_plan(2);
        p.ranks[1].push(P2pOp::Send { to: 0, bytes: 8 });
        let diags = verify_p2p(&p);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::OrphanSend]);
    }

    #[test]
    fn shrunk_bytes_is_byte_mismatch() {
        let mut p = ring_allreduce_plan(2, 8);
        assert!(mutate_p2p(&mut p, PlanMutation::ShrinkBytes { rank: 0, index: 0 }));
        let diags = verify_p2p(&p);
        assert!(kinds(&diags).contains(&DiagnosticKind::ByteMismatch), "{diags:?}");
    }

    #[test]
    fn skewed_priority_is_detected() {
        use crate::plan::horizontal_schedule_plan;
        let graph = embrace_dlsim::graph::ModelGraph::translation(
            (10, 4),
            (10, 4),
            2,
            2,
            8,
            0.1,
            0.1,
            0.1,
            0.1,
        );
        let pri = embrace_core::Priorities::assign(&graph);
        let mut plan = horizontal_schedule_plan(&pri, 3);
        assert!(verify_schedule(&plan).is_empty());
        assert!(mutate_schedule(
            &mut plan,
            PlanMutation::SkewPriority { rank: 2, index: 1, delta: 7 }
        ));
        let diags = verify_schedule(&plan);
        assert!(kinds(&diags).contains(&DiagnosticKind::PrioritySkew), "{diags:?}");
    }

    #[test]
    fn missing_op_is_spmd_mismatch() {
        use crate::plan::SchedulePlan;
        use embrace_collectives::SubmittedOp;
        let full = vec![
            SubmittedOp { priority: -1, tag: "a".into(), kind: "gather_tokens", bytes: 4 },
            SubmittedOp { priority: 0, tag: "b".into(), kind: "allreduce_dense", bytes: 8 },
        ];
        let short = vec![full[0].clone()];
        let plan = SchedulePlan::from_logs(&[full.clone(), short, full]);
        let diags = verify_schedule(&plan);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::SpmdMismatch]);
        assert_eq!(diags[0].rank, Some(1));
    }

    #[test]
    fn partition_gap_and_overlap() {
        assert!(verify_partition(&[(0, 3), (3, 7)], 7).is_empty());
        let gap = verify_partition(&[(0, 3), (4, 7)], 7);
        assert_eq!(kinds(&gap), vec![DiagnosticKind::PartitionGap]);
        assert!(gap[0].op.contains("3..4"), "{gap:?}");
        let overlap = verify_partition(&[(0, 4), (3, 7)], 7);
        assert_eq!(kinds(&overlap), vec![DiagnosticKind::PartitionOverlap]);
        let mut shards = vec![(0, 3), (3, 7)];
        assert!(mutate_partition(&mut shards, PlanMutation::DropPartitionRow { rank: 0 }));
        assert_eq!(kinds(&verify_partition(&shards, 7)), vec![DiagnosticKind::PartitionGap]);
    }

    #[test]
    fn diagnostics_come_out_in_stable_sorted_order() {
        // Plant two defects whose discovery order (link iteration) differs
        // from the sorted order: emission must be rank-major anyway.
        let mut p = allgather_plan(3, &[4, 4, 4]);
        assert!(mutate_p2p(&mut p, PlanMutation::DropSend { rank: 2, index: 1 }));
        p.ranks[2].push(P2pOp::Send { to: 0, bytes: 8 });
        let diags = verify_p2p(&p);
        assert!(diags.len() >= 2, "{diags:?}");
        let mut resorted = diags.clone();
        sort_diagnostics(&mut resorted);
        assert_eq!(diags, resorted, "verify_p2p emits pre-sorted diagnostics");
        for w in diags.windows(2) {
            let ra = w[0].rank.map_or(usize::MAX, |r| r);
            let rb = w[1].rank.map_or(usize::MAX, |r| r);
            assert!(ra <= rb, "rank-major order: {diags:?}");
        }
    }

    #[test]
    fn horizontal_monotonicity() {
        use embrace_core::CommKind::*;
        let good = vec![
            (PriorGrad(0), -2),
            (EmbData(0), -1),
            (DenseBlock(1), 0),
            (DenseBlock(2), 1),
            (DelayedGrad(0), 100),
        ];
        assert!(verify_horizontal(&good).is_empty());
        // Delayed gradients jumping ahead of dense blocks is an inversion.
        let bad = vec![(DenseBlock(1), 5), (DelayedGrad(0), 0)];
        assert_eq!(kinds(&verify_horizontal(&bad)), vec![DiagnosticKind::PriorityInversion]);
        // Dense blocks out of FP order is an inversion too.
        let bad2 = vec![(DenseBlock(2), 0), (DenseBlock(1), 1)];
        assert_eq!(kinds(&verify_horizontal(&bad2)), vec![DiagnosticKind::PriorityInversion]);
    }
}

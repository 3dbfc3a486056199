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
//!   ([`DiagnosticKind::ByteMismatch`]) — per message, hence in total;
//! * **deadlock-freedom** — the plan runs to completion over unbounded
//!   links or links of a given capacity, at any world size; ranks waiting
//!   on each other in a cycle are a [`DiagnosticKind::WaitCycle`] (both
//!   checked by [`verify_p2p`]);
//! * **exact-once partition coverage** — a sharding of `0..domain` covers
//!   every index exactly once ([`DiagnosticKind::PartitionGap`] /
//!   [`DiagnosticKind::PartitionOverlap`]);
//! * **priority monotonicity** — a step plan's priorities order its ops by
//!   the forward pass each one feeds: the embedding FPs (token gathers,
//!   prior gradients) before this step's dense FPs (embedding data) before
//!   the next step's (dense units, in FP order) before the FP two steps
//!   out (delayed gradients) ([`DiagnosticKind::PriorityInversion`]).

use crate::plan::{P2pOp, P2pPlan, SchedulePlan};
use embrace_core::horizontal::{Phase, PlanOp, StepPlan};
use embrace_dlsim::graph::ModelGraph;
use std::collections::{BTreeMap, VecDeque};
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
    /// Ranks of a p2p plan wait on each other in a cycle — a deadlock no
    /// interleaving can escape (reported with each rank's blocked op).
    WaitCycle,
    /// Ranks executed collectives in different orders even though every
    /// rank's scheduler applies one rule to an equal queue.
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

/// What [`verify_p2p`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct P2pReport {
    /// Pairing findings and wait cycles, in [`sort_diagnostics`] order.
    pub diagnostics: Vec<Diagnostic>,
    /// Ranks that can never finish, with the op index each is blocked at.
    /// A stuck rank always comes with a diagnostic: following blocked-on
    /// pointers from it ends in a wait cycle or at an op with no
    /// counterpart, which the pairing pass has reported.
    pub stuck: Vec<(usize, usize)>,
    /// Rank visits the executor made: at most one per rank plus one per
    /// completed op, whatever the plan's shape.
    pub visits: usize,
    /// Bytes the paired messages carry (sender's count; a clean plan's
    /// receivers expect exactly as many).
    pub bytes: u64,
}

impl P2pReport {
    /// Every message matched and sized consistently, every rank finishes.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn deadlocks(&self) -> bool {
        !self.stuck.is_empty()
    }
}

/// Verify a point-to-point plan: link pairing, and deadlock-freedom over
/// unbounded links (`capacity: None`) or links on which a send blocks
/// while `capacity` messages are undelivered (`Some`; `Some(1)` is the
/// rendezvous-send reading, the strictest bound).
///
/// One execution decides every interleaving. A plan is a Kahn process
/// network: each ordered link is a FIFO with one sender and one receiver,
/// and a receive names its link (no wildcard). Completing an op therefore
/// only ever enables others — a send arms a message, a receive returns a
/// credit — so every schedule reaches the same final state, and the
/// greedy one run here is stuck iff all of them are.
pub fn verify_p2p(plan: &P2pPlan, capacity: Option<usize>) -> P2pReport {
    let mut links = Links::new(plan);
    let (pc, visits) = execute(plan, capacity, &mut links);
    // What a stuck rank never reaches still has a partner to be held against.
    for (rank, ops) in plan.ranks.iter().enumerate() {
        for &op in &ops[pc[rank]..] {
            links.meet(rank, op);
        }
    }
    let bytes = links.bytes;
    let mut diagnostics = links.unpaired();
    diagnostics.extend(wait_cycles(plan, &pc));
    sort_diagnostics(&mut diagnostics);
    let stuck =
        (0..plan.world).filter(|&r| pc[r] < plan.ranks[r].len()).map(|r| (r, pc[r])).collect();
    P2pReport { diagnostics, stuck, visits, bytes }
}

/// Per-link FIFO pairing: the k-th send on an ordered link pairs with the
/// k-th receive (the transport's per-link FIFO guarantees exactly this
/// matching). Ops are fed one at a time, in any order that keeps each
/// rank's program order; one whose partner has not come up yet queues on
/// its link — while the plan executes, those are the messages in flight.
struct Links<'a> {
    plan: &'a P2pPlan,
    /// Per link `from * world + to`: sends met so far, receives met so
    /// far, first and last node of its queue (node 0 ends every list). An
    /// array, not a struct, so that a world-1024 table is zero pages until
    /// touched.
    state: Vec<[u32; 4]>,
    /// Every op that had to queue, as `(bytes, next node)`.
    nodes: Vec<(u64, u32)>,
    queued: usize,
    /// Bytes of the messages paired so far, by the sender's count.
    bytes: u64,
    found: Vec<Diagnostic>,
}

impl<'a> Links<'a> {
    fn new(plan: &'a P2pPlan) -> Self {
        assert!(plan.ranks.iter().map(Vec::len).sum::<usize>() < u32::MAX as usize);
        Links {
            plan,
            state: vec![[0; 4]; plan.world * plan.world],
            nodes: vec![(0, 0)],
            queued: 0,
            bytes: 0,
            found: Vec::new(),
        }
    }

    /// Sends on `from → to` not yet received; meaningful while ops arrive
    /// in an order the plan can execute in.
    fn in_flight(&self, from: usize, to: usize) -> usize {
        let [sends, recvs, ..] = self.state[from * self.plan.world + to];
        (sends - recvs) as usize
    }

    fn name(&self, from: usize, to: usize) -> String {
        format!("{}:{from}->{to}", self.plan.kind)
    }

    /// Pair `rank`'s next op with the oldest queued op of the other kind on
    /// its link, or queue it.
    fn meet(&mut self, rank: usize, op: P2pOp) {
        let (from, to, sending, bytes) = match op {
            P2pOp::Send { to, bytes } => (rank, to, true, bytes),
            P2pOp::Recv { from, bytes } => (from, rank, false, bytes),
        };
        let [sends, recvs, first, last] = &mut self.state[from * self.plan.world + to];
        let (mine, theirs) = if sending { (sends, recvs) } else { (recvs, sends) };
        let k = *mine;
        *mine += 1;
        if k >= *theirs {
            let node = self.nodes.len() as u32;
            self.nodes.push((bytes, 0));
            if *first == 0 {
                *first = node;
            } else {
                self.nodes[*last as usize].1 = node;
            }
            *last = node;
            self.queued += 1;
            return;
        }
        let (partner, next) = self.nodes[*first as usize];
        *first = next;
        self.queued -= 1;
        let (sent, want) = if sending { (bytes, partner) } else { (partner, bytes) };
        self.bytes += sent;
        if sent != want {
            let message = format!("message #{k}: sender plans {sent} B, receiver expects {want} B");
            let finding =
                diag(DiagnosticKind::ByteMismatch, Some(to), self.name(from, to), message);
            self.found.push(finding);
        }
    }

    /// Every finding, once the whole plan has been fed: what is still
    /// queued has no partner.
    fn unpaired(mut self) -> Vec<Diagnostic> {
        if self.queued == 0 {
            return self.found;
        }
        let w = self.plan.world;
        for link in 0..w * w {
            let (from, to) = (link / w, link % w);
            let [sends, recvs, mut node, _] = self.state[link];
            for k in sends.min(recvs)..sends.max(recvs) {
                let (bytes, next) = self.nodes[node as usize];
                node = next;
                let finding = if sends > recvs {
                    diag(
                        DiagnosticKind::OrphanSend,
                        Some(from),
                        self.name(from, to),
                        format!("send #{k} ({bytes} B) has no matching receive on rank {to}"),
                    )
                } else {
                    diag(
                        DiagnosticKind::RecvWithoutSend,
                        Some(to),
                        self.name(from, to),
                        format!(
                            "receive #{k} ({bytes} B) has no matching send on rank {from}: \
                             static deadlock"
                        ),
                    )
                };
                self.found.push(finding);
            }
        }
        self.found
    }
}

/// Run the plan greedily from a worklist, feeding `links` every op that
/// completes; returns every rank's final program counter and the number
/// of rank visits. A rank runs until its next op cannot complete, and is
/// revisited only when the one peer on that op's link has moved the link.
fn execute(plan: &P2pPlan, capacity: Option<usize>, links: &mut Links) -> (Vec<usize>, usize) {
    let w = plan.world;
    let mut pc = vec![0usize; w];
    let mut ready: VecDeque<usize> = (0..w).collect();
    let mut listed = vec![true; w];
    let mut visits = 0;
    while let Some(r) = ready.pop_front() {
        listed[r] = false;
        visits += 1;
        while let Some(&op) = plan.ranks[r].get(pc[r]) {
            let (peer, blocked) = match op {
                P2pOp::Send { to, .. } => {
                    (to, capacity.is_some_and(|cap| links.in_flight(r, to) >= cap))
                }
                P2pOp::Recv { from, .. } => (from, links.in_flight(from, r) == 0),
            };
            if blocked {
                break; // out of credits, or nothing sent yet: the peer will wake us
            }
            links.meet(r, op);
            pc[r] += 1;
            // Wake the peer if it is parked on the link this op moved: at the
            // receive of this send, or at the send this receive returned a
            // credit to (senders park on bounded links only).
            let parked = |pending: &P2pOp| match (op, *pending) {
                (P2pOp::Send { .. }, P2pOp::Recv { from, .. }) => from == r,
                (P2pOp::Recv { .. }, P2pOp::Send { to, .. }) => to == r,
                _ => false,
            };
            let may_park = matches!(op, P2pOp::Send { .. }) || capacity.is_some();
            if may_park && !listed[peer] && plan.ranks[peer].get(pc[peer]).is_some_and(parked) {
                listed[peer] = true;
                ready.push_back(peer);
            }
        }
    }
    (pc, visits)
}

fn describe_op(plan: &P2pPlan, rank: usize, op: usize) -> String {
    match plan.ranks[rank][op] {
        P2pOp::Send { to, bytes } => format!("rank {rank} op#{op} send->{to} ({bytes} B)"),
        P2pOp::Recv { from, bytes } => format!("rank {rank} op#{op} recv<-{from} ({bytes} B)"),
    }
}

/// Cycles among the ranks `pc` leaves stuck. A stuck rank waits on the one
/// peer whose remaining program holds the counterpart of its pending op —
/// the send its receive pairs with, or the receive that returns the credit
/// its send needs — and on nobody when that counterpart does not exist (an
/// unmatched op: the pairing pass names it). So a walk along those
/// pointers either re-enters itself — a cycle — or ends.
fn wait_cycles(plan: &P2pPlan, pc: &[usize]) -> Vec<Diagnostic> {
    let waits_on = |r: usize| match *plan.ranks[r].get(pc[r])? {
        P2pOp::Send { to, .. } => plan.ranks[to][pc[to]..]
            .iter()
            .any(|op| matches!(op, P2pOp::Recv { from, .. } if *from == r))
            .then_some(to),
        P2pOp::Recv { from, .. } => plan.ranks[from][pc[from]..]
            .iter()
            .any(|op| matches!(op, P2pOp::Send { to, .. } if *to == r))
            .then_some(from),
    };
    const UNSEEN: usize = usize::MAX;
    let mut walk_of = vec![UNSEEN; plan.world];
    let mut out = Vec::new();
    for start in 0..plan.world {
        let mut path = Vec::new();
        let mut r = start;
        while walk_of[r] == UNSEEN {
            walk_of[r] = start;
            let Some(peer) = waits_on(r) else { break };
            path.push(r);
            r = peer;
        }
        let Some(at) = path.iter().position(|&on_path| on_path == r) else { continue };
        let mut cycle = path.split_off(at);
        let lead = (0..cycle.len()).min_by_key(|&i| cycle[i]).expect("a cycle has a rank");
        cycle.rotate_left(lead); // report from the lowest rank, whichever walk found it
        let shown: Vec<String> =
            cycle.iter().take(8).map(|&r| describe_op(plan, r, pc[r])).collect();
        let elided = if cycle.len() > 8 { " -> …" } else { "" };
        out.push(diag(
            DiagnosticKind::WaitCycle,
            Some(cycle[0]),
            plan.kind,
            format!(
                "wait cycle on {} ranks: {}{elided} -> (back to start)",
                cycle.len(),
                shown.join(" -> ")
            ),
        ));
    }
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

/// Verify §4.2.1 priority monotonicity of a step plan of `graph`. Each op
/// is ranked by the forward pass it feeds, read off its gates (a ring
/// phase feeds what the op after its sharded update feeds): a FP two steps
/// out last, then the dense FPs after the embedding FPs, this step's
/// before the next step's, and in FP order. A higher-ranked op must not
/// have a lower priority. The next batch's token gather ranks by the
/// first next-step embedding FP it feeds; the loss feeds no FP and is not
/// ranked.
pub fn verify_horizontal(plan: &StepPlan, graph: &ModelGraph) -> Vec<Diagnostic> {
    let feeds = |op: &PlanOp| {
        let updated =
            |p: Phase| matches!(p, Phase::Update(_)) && op.unblocks.iter().any(|g| g.0 == p);
        let after_update = plan.ops.iter().filter(|o| updated(o.after)).flat_map(|o| &o.unblocks);
        op.unblocks.iter().chain(after_update).find_map(|&(p, k)| match p {
            Phase::Fp(m) => Some((k == 2, !graph.modules[m].is_embedding(), k, m)),
            _ => None,
        })
    };
    let mut ranked: Vec<_> =
        plan.ops.iter().filter_map(|op| Some((op.priority, feeds(op)?, op.tag.as_str()))).collect();
    ranked.sort();
    let mut out = Vec::new();
    for w in ranked.windows(2) {
        let ((pa, ra, a), (pb, rb, b)) = (w[0], w[1]);
        if pa < pb && ra > rb {
            out.push(diag(
                DiagnosticKind::PriorityInversion,
                None,
                format!("{a} (prio {pa}) vs {b} (prio {pb})"),
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
    /// On every rank, move the first receive above the first send (→ every
    /// message still pairs, but where all ranks send first nothing can
    /// start: a wait cycle).
    HoistRecv,
    /// Remove shard `rank` from a partition (→ coverage gap).
    DropPartitionRow { rank: usize },
}

/// Apply [`PlanMutation::DropSend`] / [`PlanMutation::RetargetSend`] /
/// [`PlanMutation::ShrinkBytes`] / [`PlanMutation::HoistRecv`] to a p2p
/// plan. `index` counts the rank's *sends* (receives are untouched).
/// Returns `false` if the mutation had no target (e.g. index past the
/// send count, or no rank that sends before it receives) and the plan is
/// unchanged.
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
        PlanMutation::HoistRecv => {
            let mut hoisted = false;
            for ops in &mut plan.ranks {
                let send = ops.iter().position(|op| matches!(op, P2pOp::Send { .. }));
                let recv = ops.iter().position(|op| matches!(op, P2pOp::Recv { .. }));
                if let (Some(send), Some(recv)) = (send, recv) {
                    if send < recv {
                        ops[send..=recv].rotate_right(1);
                        hoisted = true;
                    }
                }
            }
            hoisted
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
    use crate::model_check::{check_collective, Collective};
    use crate::plan::{
        allgather_plan, alltoall_plan, barrier_plan, broadcast_plan, chunked_ring_allreduce_plan,
        grad_alltoall_bytes, lookup_alltoall_bytes, reform_plan, ring_allreduce_plan,
    };

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    fn family_plans(world: usize) -> Vec<P2pPlan> {
        let rows = vec![3 + world / 2; world];
        vec![
            barrier_plan(world),
            broadcast_plan(world, 0, 64),
            ring_allreduce_plan(world, 4 * world + 1),
            chunked_ring_allreduce_plan(world, 4 * world + 1, 2),
            allgather_plan(world, &vec![16; world]),
            alltoall_plan("alltoall_lookup", &lookup_alltoall_bytes(&rows, 8 * world)),
            alltoall_plan("alltoallv_grad", &grad_alltoall_bytes(&rows, 8 * world)),
            reform_plan(world),
        ]
    }

    #[test]
    fn every_plan_family_is_clean_at_every_capacity() {
        // Unbounded channels and the tightest blocking links: no family
        // ever has more than one message per link outstanding before it
        // turns to receive.
        for world in [1usize, 2, 3, 4, 8, 16] {
            for plan in family_plans(world) {
                for capacity in [None, Some(1), Some(2)] {
                    let report = verify_p2p(&plan, capacity);
                    assert!(report.clean(), "{} w={world} {capacity:?}: {report:?}", plan.kind);
                    assert!(!report.deadlocks(), "{} w={world} {capacity:?}", plan.kind);
                }
            }
        }
    }

    #[test]
    fn executor_visits_each_rank_once_per_wake_up() {
        // A count, not a timing: the worklist revisits a rank only when the
        // peer it waits on has moved their link, so visits are bounded by
        // the ops that complete — also on the dissemination barrier, where
        // a rank-order sweep needs a pass per round-trip of the wrap-around.
        let mut plans = family_plans(16);
        plans.extend(family_plans(64));
        plans.push(barrier_plan(1024));
        for plan in plans {
            let ops: usize = plan.ranks.iter().map(Vec::len).sum();
            for capacity in [None, Some(1)] {
                let report = verify_p2p(&plan, capacity);
                assert!(report.clean(), "{} w={} {capacity:?}", plan.kind, plan.world);
                assert!(
                    report.visits <= 2 * ops + plan.world,
                    "{} w={} {capacity:?}: {} visits for {ops} ops",
                    plan.kind,
                    plan.world,
                    report.visits
                );
            }
        }
    }

    #[test]
    fn checker_verdict_matches_model_checker_on_every_collective() {
        // Worlds 2–4: the plan checker's one greedy schedule must reach the
        // verdict the model checker reaches over every interleaving.
        for world in 2..=4usize {
            let cases: Vec<(Collective, P2pPlan)> = vec![
                (Collective::Barrier, barrier_plan(world)),
                (Collective::Broadcast { root: 0 }, broadcast_plan(world, 0, 12)),
                (Collective::ring(2 * world + 1), ring_allreduce_plan(world, 2 * world + 1)),
                (
                    Collective::RingAllreduce { elems: 2 * world + 1, seg: 2 },
                    chunked_ring_allreduce_plan(world, 2 * world + 1, 2),
                ),
                (Collective::Reform, reform_plan(world)),
            ];
            for (collective, plan) in cases {
                let model = check_collective(world, collective);
                let report = verify_p2p(&plan, None);
                assert_eq!(
                    model.deadlock_free(),
                    !report.deadlocks(),
                    "w={world} {}: model {} vs checker {report:?}",
                    plan.kind,
                    model.summary()
                );
            }
        }
    }

    #[test]
    fn valid_plans_are_clean() {
        assert!(verify_p2p(&barrier_plan(4), None).clean());
        assert!(verify_p2p(&ring_allreduce_plan(3, 11), None).clean());
        assert!(verify_p2p(&allgather_plan(3, &[4, 8, 12]), None).clean());
        let bytes = vec![vec![0, 5], vec![7, 0]];
        assert!(verify_p2p(&alltoall_plan("alltoall_dense", &bytes), None).clean());
    }

    #[test]
    fn dropped_send_is_a_static_deadlock() {
        let mut p = allgather_plan(3, &[4, 4, 4]);
        assert!(mutate_p2p(&mut p, PlanMutation::DropSend { rank: 1, index: 0 }));
        let report = verify_p2p(&p, None);
        let diags = &report.diagnostics;
        assert!(kinds(diags).contains(&DiagnosticKind::RecvWithoutSend), "{diags:?}");
        // The receiver of the dropped message is named, and is what hangs.
        let d = diags.iter().find(|d| d.kind == DiagnosticKind::RecvWithoutSend).unwrap();
        assert_eq!(d.rank, Some(2)); // rank 1's first send goes to rank 2 (rotated order)
        assert_eq!(report.stuck, vec![(2, 3)]); // its second receive, the one from rank 1
    }

    #[test]
    fn dropped_send_leaves_every_family_stuck() {
        // Removing a send starves the last receive on its link: the
        // receiver can never finish, whatever else still completes.
        for world in [2usize, 3, 4, 8] {
            for plan0 in family_plans(world) {
                for rank in 0..world {
                    let mut plan = plan0.clone();
                    if !mutate_p2p(&mut plan, PlanMutation::DropSend { rank, index: 0 }) {
                        continue; // a broadcast receiver sends nothing
                    }
                    let report = verify_p2p(&plan, None);
                    assert!(report.deadlocks(), "{} w={world} drop rank {rank}", plan.kind);
                    assert!(
                        kinds(&report.diagnostics).contains(&DiagnosticKind::RecvWithoutSend),
                        "{} w={world} drop rank {rank}: {report:?}",
                        plan.kind
                    );
                }
            }
        }
    }

    #[test]
    fn retargeted_ring_send_is_rejected_by_pairing() {
        // A ring rank that sends past its neighbour: the neighbour's last
        // receive starves and the accidental receiver gets an orphan — no
        // ring-specific rule needed, whole or chunked.
        for plan0 in [ring_allreduce_plan(4, 21), chunked_ring_allreduce_plan(4, 21, 2)] {
            let mut plan = plan0.clone();
            assert!(mutate_p2p(&mut plan, PlanMutation::RetargetSend { rank: 1, index: 0 }));
            let report = verify_p2p(&plan, None);
            let ks = kinds(&report.diagnostics);
            assert!(ks.contains(&DiagnosticKind::OrphanSend), "{}: {ks:?}", plan.kind);
            assert!(ks.contains(&DiagnosticKind::RecvWithoutSend), "{}: {ks:?}", plan.kind);
            let orphan =
                report.diagnostics.iter().find(|d| d.kind == DiagnosticKind::OrphanSend).unwrap();
            assert!(orphan.op.ends_with(":1->3"), "{orphan}");
            assert!(report.deadlocks(), "{}", plan.kind);
        }
    }

    #[test]
    fn hoisted_receives_are_a_wait_cycle() {
        // Every rank receives before it has sent anything: each message
        // still has its partner, so pairing is clean, but nothing can start.
        for world in 2..=8usize {
            let bytes = lookup_alltoall_bytes(&vec![3; world], 8 * world);
            // (plan, ranks on its one cycle)
            let cases = [
                (ring_allreduce_plan(world, 4 * world + 1), world),
                (chunked_ring_allreduce_plan(world, 4 * world + 1, 2), world),
                (barrier_plan(world), world),
                // Posted receives drain in ascending source order: rank 0
                // waits on rank 1, everyone else on rank 0.
                (alltoall_plan("alltoall_posted", &bytes), 2),
            ];
            for (plan0, on_cycle) in cases {
                let mut plan = plan0.clone();
                assert!(mutate_p2p(&mut plan, PlanMutation::HoistRecv), "{}", plan.kind);
                let report = verify_p2p(&plan, None);
                let stuck_at_start: Vec<_> = (0..world).map(|r| (r, 0)).collect();
                assert_eq!(report.stuck, stuck_at_start, "{} w={world}", plan.kind);
                assert_eq!(
                    kinds(&report.diagnostics)
                        .into_iter()
                        .collect::<std::collections::BTreeSet<_>>(),
                    [DiagnosticKind::WaitCycle].into_iter().collect(),
                    "{} w={world}: {report:?}",
                    plan.kind
                );
                for d in &report.diagnostics {
                    // The cycle starts at its lowest rank and names that
                    // rank's blocked receive.
                    let rank = d.rank.expect("a cycle is attributed to a rank");
                    let P2pOp::Recv { from, .. } = plan.ranks[rank][0] else { panic!("hoisted") };
                    let named = format!("rank {rank} op#0 recv<-{from}");
                    assert!(d.message.contains(&named), "{} w={world}: {d}", plan.kind);
                    let ranks = format!("on {on_cycle} ranks");
                    assert!(d.message.contains(&ranks), "{}: {d}", plan.kind);
                }
                assert_eq!(report.diagnostics.len(), 1, "{} w={world}", plan.kind);
            }
            // The root only sends and everyone else only receives.
            let mut broadcast = broadcast_plan(world, 0, 64);
            assert!(!mutate_p2p(&mut broadcast, PlanMutation::HoistRecv));
            assert_eq!(broadcast, broadcast_plan(world, 0, 64));
        }
    }

    #[test]
    fn deep_pipelining_deadlocks_a_strictly_blocking_link() {
        // A ring step that posts every segment before receiving any: each
        // rank sends S segments to its successor, then drains S from its
        // predecessor. With fewer credits than segments a *blocking* send
        // deadlocks the whole ring — exactly why sends on the mesh never
        // block.
        let world = 4;
        let segments = 24usize;
        let mut plan =
            P2pPlan { kind: "ring_pipelined_step", world, ranks: vec![Vec::new(); world] };
        for r in 0..world {
            for _ in 0..segments {
                plan.ranks[r].push(P2pOp::Send { to: (r + 1) % world, bytes: 8 });
            }
            for _ in 0..segments {
                plan.ranks[r].push(P2pOp::Recv { from: (r + world - 1) % world, bytes: 8 });
            }
        }
        assert!(verify_p2p(&plan, None).clean(), "unbounded links are fine");
        for cap in [1usize, 4, segments - 1] {
            let report = verify_p2p(&plan, Some(cap));
            assert_eq!(kinds(&report.diagnostics), vec![DiagnosticKind::WaitCycle], "cap={cap}");
            // Every rank is out of credits at its send #cap.
            assert_eq!(report.stuck, (0..world).map(|r| (r, cap)).collect::<Vec<_>>());
            let cycle = &report.diagnostics[0].message;
            assert!(cycle.contains("on 4 ranks"), "{cycle}");
            assert!(cycle.contains(&format!("rank 0 op#{cap} send->1")), "{cycle}");
        }
        // A link deep enough for every posted segment restores cleanliness.
        assert!(verify_p2p(&plan, Some(segments)).clean());
        // The *scheduler's* chunked ring interleaves unit sends with unit
        // receives, so it stays within even a tiny credit line.
        assert!(verify_p2p(&chunked_ring_allreduce_plan(4, 64, 1), Some(2)).clean());
    }

    #[test]
    fn hand_built_cycle_is_reported_with_provenance() {
        // r0 waits for r1's send, r1 waits for r0's send: the classic
        // recv-before-send deadlock, with perfectly matched pairing.
        let mut plan = P2pPlan { kind: "cyclic", world: 2, ranks: vec![Vec::new(); 2] };
        plan.ranks[0].push(P2pOp::Recv { from: 1, bytes: 4 });
        plan.ranks[0].push(P2pOp::Send { to: 1, bytes: 4 });
        plan.ranks[1].push(P2pOp::Recv { from: 0, bytes: 4 });
        plan.ranks[1].push(P2pOp::Send { to: 0, bytes: 4 });
        let report = verify_p2p(&plan, None);
        assert_eq!(kinds(&report.diagnostics), vec![DiagnosticKind::WaitCycle]);
        let cycle = &report.diagnostics[0];
        assert!(cycle.message.contains("rank 0 op#0 recv<-1"), "{}", cycle.message);
        assert!(cycle.message.contains("rank 1 op#0 recv<-0"), "{}", cycle.message);
        assert_eq!(report.stuck, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn three_rank_rotated_cycle_is_found() {
        // Each rank receives from its predecessor before sending to its
        // successor — deadlocks only as a length-3 cycle through all ranks.
        let world = 3;
        let mut plan = P2pPlan { kind: "rotated", world, ranks: vec![Vec::new(); world] };
        for r in 0..world {
            plan.ranks[r].push(P2pOp::Recv { from: (r + world - 1) % world, bytes: 8 });
            plan.ranks[r].push(P2pOp::Send { to: (r + 1) % world, bytes: 8 });
        }
        let report = verify_p2p(&plan, None);
        let cycle =
            report.diagnostics.iter().find(|d| d.kind == DiagnosticKind::WaitCycle).unwrap();
        assert!(cycle.message.contains("3 ranks"), "{}", cycle.message);
        assert!(report.deadlocks());
    }

    #[test]
    fn extra_send_is_orphan() {
        let mut p = barrier_plan(2);
        p.ranks[1].push(P2pOp::Send { to: 0, bytes: 8 });
        let report = verify_p2p(&p, None);
        assert_eq!(kinds(&report.diagnostics), vec![DiagnosticKind::OrphanSend]);
        // Nobody waits for an orphan on an unbounded link…
        assert!(!report.deadlocks());
        // …but its sender does once the link's one credit is taken.
        p.ranks[1].push(P2pOp::Send { to: 0, bytes: 8 });
        assert_eq!(verify_p2p(&p, Some(1)).stuck, vec![(1, 3)]);
    }

    #[test]
    fn shrunk_bytes_is_byte_mismatch() {
        let mut p = ring_allreduce_plan(2, 8);
        assert!(mutate_p2p(&mut p, PlanMutation::ShrinkBytes { rank: 0, index: 0 }));
        let report = verify_p2p(&p, None);
        assert_eq!(kinds(&report.diagnostics), vec![DiagnosticKind::ByteMismatch]);
        assert!(!report.deadlocks(), "a mis-sized message still arrives");
    }

    /// The translation graph of Fig. 5 (2 + 2 blocks) and its step plan.
    fn translation_step() -> (ModelGraph, StepPlan) {
        use embrace_core::horizontal::{GradRows, OpKind, StepShapes};
        let graph = ModelGraph::translation((10, 4), (10, 4), 2, 2, 8, 0.1, 0.1, 0.1, 0.1);
        let shapes = StepShapes {
            world: 3,
            tokens: 6.0,
            shard_width: 2.0,
            grad_exchange: (OpKind::AlltoAllSparse, 24.0),
            grad: GradRows::Split { coalesced: 5.0, prior: 2.0 },
            fusion: 0.0,
        };
        let plan = StepPlan::embrace(&graph, &shapes);
        (graph, plan)
    }

    #[test]
    fn skewed_priority_is_detected() {
        let mut plan = crate::plan::SchedulePlan::from_plan(&translation_step().1, 3);
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
        let diags = verify_p2p(&p, None).diagnostics;
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
        let (graph, plan) = translation_step();
        assert!(verify_horizontal(&plan, &graph).is_empty());
        let reprioritised = |pick: &dyn Fn(&str) -> Option<i64>| {
            let mut bad = plan.clone();
            for op in &mut bad.ops {
                op.priority = pick(&op.tag).unwrap_or(op.priority);
            }
            kinds(&verify_horizontal(&bad, &graph))
        };
        // Delayed gradients jumping ahead of dense blocks is an inversion.
        let delayed_first = |tag: &str| tag.starts_with("delayed_grad").then_some(0);
        assert_eq!(reprioritised(&delayed_first), vec![DiagnosticKind::PriorityInversion]);
        // Dense blocks out of FP order is an inversion too.
        let swapped = |tag: &str| match tag.split_once('/') {
            Some((_, "enc_blk0")) => Some(1),
            Some((_, "enc_blk1")) => Some(0),
            _ => None,
        };
        assert_eq!(reprioritised(&swapped), vec![DiagnosticKind::PriorityInversion]);
    }
}

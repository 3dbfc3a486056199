//! Wait-for-graph deadlock analysis — `verify_p2p`-level guarantees at
//! worlds where enumeration is hopeless.
//!
//! The model checker ([`crate::model_check`]) proves deadlock-freedom by
//! exhaustively enumerating interleavings, which caps it at worlds 2–4.
//! This module proves the same property *structurally*, in O(ops):
//!
//! * **Nodes** are per-rank op instances of a [`P2pPlan`] (rank `r`'s
//!   `i`-th send or receive).
//! * **Edges** point from an op to what it waits for: program order
//!   (op `i` waits for op `i−1` of its rank) and message dependency (the
//!   `k`-th receive on an ordered link waits for the `k`-th send on that
//!   link — the transport's per-link FIFO guarantees exactly this
//!   matching). Sends ride unbounded channels and never block on their
//!   receiver, so there are no rendezvous back-edges; with that buffering
//!   model the dependency graph is exact, not an approximation.
//! * **Deadlock ⇔ cycle.** All dependencies are AND-dependencies, so ops
//!   can keep completing until none remain iff the graph is acyclic; any
//!   cycle starves every op on it in *every* interleaving. Cycles are
//!   found as non-trivial strongly connected components (iterative
//!   Tarjan — plans at world 1024 have millions of nodes, so no
//!   recursion) and reported as [`DiagnosticKind::WaitCycle`] with the
//!   full cycle's rank/op provenance. A receive whose send does not exist
//!   at all also never completes ([`DiagnosticKind::RecvWithoutSend`]).
//!
//! Byte conservation is proved in closed form by the same pass: the
//! FIFO pairing checks every matched message's size
//! ([`DiagnosticKind::ByteMismatch`]), and [`byte_conservation`] checks
//! the whole communicator round's planned totals.
//!
//! [`enumerate_p2p`] is the agreement oracle: an explicit-state greedy
//! executor of the plan (per-rank program counters + per-link FIFO
//! queues). Because sends never block, plan execution is confluent —
//! if any schedule gets stuck, the greedy one does — so its verdict is
//! the enumeration verdict, and tests assert it matches the graph verdict
//! on every plan family and every seeded [`crate::verify::PlanMutation`].
//!
//! **Credit mode** ([`WaitGraph::build_with_credits`],
//! [`analyze_p2p_credits`], [`enumerate_p2p_credits`]) models the
//! one-sided slot transport's flow control on top of all of the above:
//! send `#k` on a link additionally waits on receive `#(k−C)` of the same
//! link, i.e. the sender stalls when all `C` registered slots are armed.
//! Acyclicity under credit edges proves the credit protocol deadlock-free
//! at worlds far past enumeration — even for a strictly blocking put,
//! which the shipped transport's counted rendezvous fallback is strictly
//! safer than.

use crate::plan::{P2pOp, P2pPlan};
use crate::verify::{sort_diagnostics, Diagnostic, DiagnosticKind};
use std::collections::HashMap;

/// The wait-for graph of a plan, plus the unmatched-op findings produced
/// while building it.
pub struct WaitGraph {
    /// Per-node rank (parallel to the global node numbering).
    ranks: Vec<u32>,
    /// Per-node index of the op within its rank's program.
    ops: Vec<u32>,
    /// CSR adjacency: `adj[adj_off[v]..adj_off[v+1]]` are the nodes `v`
    /// waits for.
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// Pairing findings (orphan sends, receives without sends, per-message
    /// byte mismatches) discovered during FIFO matching.
    pairing: Vec<Diagnostic>,
}

impl WaitGraph {
    /// Build the wait-for graph of `plan`: program-order edges plus one
    /// dependency edge per FIFO-matched (send, recv) pair.
    pub fn build(plan: &P2pPlan) -> WaitGraph {
        WaitGraph::build_with_credits(plan, None)
    }

    /// [`WaitGraph::build`] with the slot transport's credit protocol
    /// modeled explicitly: with `credit = Some(C)`, send `#k` on an
    /// ordered link additionally waits on receive `#(k−C)` of the same
    /// link (for `k ≥ C`) — the sender may not reuse a slot until the
    /// receiver has consumed the message `C` sequence numbers back.
    /// Acyclicity of this graph proves the protocol deadlock-free even
    /// for a *strictly blocking* put with a `C`-slot pool; the shipped
    /// transport is safer still (an out-of-credit put falls back to a
    /// counted, non-blocking rendezvous).
    pub fn build_with_credits(plan: &P2pPlan, credit: Option<usize>) -> WaitGraph {
        let total: usize = plan.ranks.iter().map(Vec::len).sum();
        let mut base = Vec::with_capacity(plan.world + 1);
        let mut acc = 0u32;
        for ops in &plan.ranks {
            base.push(acc);
            acc += ops.len() as u32;
        }
        base.push(acc);

        let mut ranks = Vec::with_capacity(total);
        let mut ops = Vec::with_capacity(total);
        // Per ordered link: (node, bytes) of its sends and recvs, in
        // program order — which is FIFO order on the wire.
        type Ends = (Vec<(u32, u64)>, Vec<(u32, u64)>);
        let mut links: HashMap<(u32, u32), Ends> = HashMap::new();
        for (r, prog) in plan.ranks.iter().enumerate() {
            for (i, op) in prog.iter().enumerate() {
                let node = base[r] + i as u32;
                ranks.push(r as u32);
                ops.push(i as u32);
                match *op {
                    P2pOp::Send { to, bytes } => {
                        links.entry((r as u32, to as u32)).or_default().0.push((node, bytes));
                    }
                    P2pOp::Recv { from, bytes } => {
                        links.entry((from as u32, r as u32)).or_default().1.push((node, bytes));
                    }
                }
            }
        }

        let mut pairing = Vec::new();
        // Degree count, then CSR fill. Program order contributes one edge
        // per non-first op; matching contributes one edge per paired recv.
        let mut deg = vec![0u32; total];
        for r in 0..plan.world {
            for node in base[r] + 1..base[r + 1] {
                deg[node as usize] += 1;
            }
        }
        let mut matched: Vec<(u32, u32)> = Vec::new(); // (recv node, send node)
                                                       // (send node, recv node) credit edges: send #k waits on recv #(k−C).
        let mut credit_edges: Vec<(u32, u32)> = Vec::new();
        for (&(from, to), (sends, recvs)) in &links {
            let link = || format!("{}:{from}->{to}", plan.kind);
            if let Some(cap) = credit {
                for (k, (snode, _)) in sends.iter().enumerate().skip(cap) {
                    if let Some((rnode, _)) = recvs.get(k - cap) {
                        credit_edges.push((*snode, *rnode));
                        deg[*snode as usize] += 1;
                    }
                }
            }
            for (k, ((snode, sbytes), (rnode, rbytes))) in sends.iter().zip(recvs).enumerate() {
                matched.push((*rnode, *snode));
                deg[*rnode as usize] += 1;
                if sbytes != rbytes {
                    pairing.push(Diagnostic {
                        kind: DiagnosticKind::ByteMismatch,
                        rank: Some(to as usize),
                        op: link(),
                        message: format!(
                            "message #{k}: sender plans {sbytes} B, receiver expects {rbytes} B"
                        ),
                    });
                }
            }
            for (k, (_, bytes)) in sends.iter().enumerate().skip(recvs.len()) {
                pairing.push(Diagnostic {
                    kind: DiagnosticKind::OrphanSend,
                    rank: Some(from as usize),
                    op: link(),
                    message: format!("send #{k} ({bytes} B) has no matching receive on rank {to}"),
                });
            }
            for (k, (_, bytes)) in recvs.iter().enumerate().skip(sends.len()) {
                pairing.push(Diagnostic {
                    kind: DiagnosticKind::RecvWithoutSend,
                    rank: Some(to as usize),
                    op: link(),
                    message: format!(
                        "receive #{k} ({bytes} B) has no matching send on rank {from}: static deadlock"
                    ),
                });
            }
        }
        let mut adj_off = Vec::with_capacity(total + 1);
        let mut off = 0u32;
        for d in &deg {
            adj_off.push(off);
            off += d;
        }
        adj_off.push(off);
        let mut cursor = adj_off.clone();
        let mut adj = vec![0u32; off as usize];
        for r in 0..plan.world {
            for node in base[r] + 1..base[r + 1] {
                adj[cursor[node as usize] as usize] = node - 1;
                cursor[node as usize] += 1;
            }
        }
        for (rnode, snode) in matched {
            adj[cursor[rnode as usize] as usize] = snode;
            cursor[rnode as usize] += 1;
        }
        for (snode, rnode) in credit_edges {
            adj[cursor[snode as usize] as usize] = rnode;
            cursor[snode as usize] += 1;
        }
        WaitGraph { ranks, ops, adj_off, adj, pairing }
    }

    fn node_count(&self) -> usize {
        self.ranks.len()
    }

    /// Non-trivial strongly connected components (≥ 2 nodes), each a
    /// genuine wait cycle. Iterative Tarjan — plans at world 1024 reach
    /// millions of nodes, far past any recursion limit.
    fn cycles(&self) -> Vec<Vec<u32>> {
        let n = self.node_count();
        const UNSEEN: u32 = u32::MAX;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut out = Vec::new();
        // (node, next unexplored edge slot) — the explicit call stack.
        let mut work: Vec<(u32, u32)> = Vec::new();
        for start in 0..n as u32 {
            if index[start as usize] != UNSEEN {
                continue;
            }
            index[start as usize] = next;
            low[start as usize] = next;
            next += 1;
            stack.push(start);
            on_stack[start as usize] = true;
            work.push((start, self.adj_off[start as usize]));
            while let Some(&(v, ei)) = work.last() {
                let vi = v as usize;
                if ei < self.adj_off[vi + 1] {
                    work.last_mut().expect("work stack is non-empty inside the loop").1 = ei + 1;
                    let w = self.adj[ei as usize];
                    let wi = w as usize;
                    if index[wi] == UNSEEN {
                        index[wi] = next;
                        low[wi] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[wi] = true;
                        work.push((w, self.adj_off[wi]));
                    } else if on_stack[wi] {
                        low[vi] = low[vi].min(index[wi]);
                    }
                } else {
                    work.pop();
                    if let Some(&(parent, _)) = work.last() {
                        let pi = parent as usize;
                        low[pi] = low[pi].min(low[vi]);
                    }
                    if low[vi] == index[vi] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("SCC root is on the Tarjan stack");
                            on_stack[w as usize] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if scc.len() > 1 {
                            out.push(scc);
                        }
                    }
                }
            }
        }
        out
    }

    /// Walk one concrete cycle inside an SCC (follow intra-SCC edges from
    /// any member until a node repeats), for provenance reporting.
    fn concrete_cycle(&self, scc: &[u32]) -> Vec<u32> {
        let member: std::collections::HashSet<u32> = scc.iter().copied().collect();
        let mut seen: HashMap<u32, usize> = HashMap::new();
        let mut path = Vec::new();
        let mut v = scc[0];
        loop {
            if let Some(&at) = seen.get(&v) {
                return path.split_off(at);
            }
            seen.insert(v, path.len());
            path.push(v);
            let vi = v as usize;
            v = (self.adj_off[vi]..self.adj_off[vi + 1])
                .map(|e| self.adj[e as usize])
                .find(|t| member.contains(t))
                .expect("every SCC node has an intra-SCC successor");
        }
    }
}

fn describe_op(plan: &P2pPlan, rank: u32, op: u32) -> String {
    match plan.ranks[rank as usize][op as usize] {
        P2pOp::Send { to, bytes } => format!("rank {rank} op#{op} send->{to} ({bytes} B)"),
        P2pOp::Recv { from, bytes } => format!("rank {rank} op#{op} recv<-{from} ({bytes} B)"),
    }
}

/// Closed-form byte conservation of the whole communicator round: total
/// planned bytes sent must equal total planned bytes received. Returns
/// the conserved total, or the violation.
pub fn byte_conservation(plan: &P2pPlan) -> Result<u64, Diagnostic> {
    let sent: u64 = (0..plan.world).map(|r| plan.bytes_sent(r)).sum();
    let received: u64 = (0..plan.world).map(|r| plan.bytes_received(r)).sum();
    if sent == received {
        Ok(sent)
    } else {
        Err(Diagnostic {
            kind: DiagnosticKind::ByteMismatch,
            rank: None,
            op: plan.kind.to_string(),
            message: format!("round plans {sent} B sent but {received} B received"),
        })
    }
}

/// Analyze a plan through its wait-for graph: FIFO pairing findings
/// (orphans, receives without sends, per-message byte mismatches), wait
/// cycles as [`DiagnosticKind::WaitCycle`] with full cycle provenance,
/// and whole-round byte conservation. An empty result proves the plan
/// deadlock-free and byte-conserving in every interleaving, in O(ops).
pub fn analyze_p2p(plan: &P2pPlan) -> Vec<Diagnostic> {
    analyze_graph(plan, WaitGraph::build(plan))
}

/// [`analyze_p2p`] over the credit-augmented graph
/// ([`WaitGraph::build_with_credits`]): an empty result proves the plan
/// deadlock-free even under a strictly blocking `capacity`-slot one-sided
/// transport — the structural half of the slot transport's safety
/// argument at worlds past enumeration.
pub fn analyze_p2p_credits(plan: &P2pPlan, capacity: usize) -> Vec<Diagnostic> {
    analyze_graph(plan, WaitGraph::build_with_credits(plan, Some(capacity)))
}

fn analyze_graph(plan: &P2pPlan, g: WaitGraph) -> Vec<Diagnostic> {
    let mut out = g.pairing.clone();
    for scc in g.cycles() {
        let cycle = g.concrete_cycle(&scc);
        let min_rank = cycle.iter().map(|&v| g.ranks[v as usize]).min().unwrap_or(0);
        let shown = cycle
            .iter()
            .take(8)
            .map(|&v| describe_op(plan, g.ranks[v as usize], g.ops[v as usize]))
            .collect::<Vec<_>>()
            .join(" -> ");
        let elided = if cycle.len() > 8 {
            format!(" -> … ({} ops total)", cycle.len())
        } else {
            String::new()
        };
        out.push(Diagnostic {
            kind: DiagnosticKind::WaitCycle,
            rank: Some(min_rank as usize),
            op: plan.kind.to_string(),
            message: format!(
                "wait cycle over {} ops on {} ranks: {shown}{elided} -> (back to start)",
                cycle.len(),
                {
                    let mut rs: Vec<u32> = cycle.iter().map(|&v| g.ranks[v as usize]).collect();
                    rs.sort_unstable();
                    rs.dedup();
                    rs.len()
                },
            ),
        });
    }
    if let Err(d) = byte_conservation(plan) {
        out.push(d);
    }
    sort_diagnostics(&mut out);
    out
}

/// Does the graph analysis verdict say "this plan deadlocks"? True when
/// some op can never complete: a wait cycle or a receive with no send.
pub fn graph_deadlocks(diags: &[Diagnostic]) -> bool {
    diags
        .iter()
        .any(|d| matches!(d.kind, DiagnosticKind::WaitCycle | DiagnosticKind::RecvWithoutSend))
}

/// The enumeration verdict on one plan, from [`enumerate_p2p`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecReport {
    /// Ranks that could not finish, with the op index they blocked at.
    pub stuck: Vec<(usize, usize)>,
}

impl ExecReport {
    pub fn deadlock_free(&self) -> bool {
        self.stuck.is_empty()
    }
}

/// Execute the plan in an explicit-state machine: per-rank program
/// counters plus per-link FIFO depth. Sends never block (unbounded
/// channels), receives block until their link is non-empty — the same
/// semantics the model checker enumerates. Under those semantics
/// execution is confluent: completing an enabled receive never disables
/// another rank's receive, so one greedy schedule suffices to decide
/// whether *any* schedule completes.
pub fn enumerate_p2p(plan: &P2pPlan) -> ExecReport {
    enumerate_bounded(plan, None)
}

/// [`enumerate_p2p`] under a strictly blocking `capacity`-deep link (a
/// send blocks while its link already holds `capacity` undelivered
/// messages) — the executable counterpart of
/// [`WaitGraph::build_with_credits`]. Confluence still holds: each link
/// has one sender and one receiver, and completing any op only ever
/// *enables* others (a receive returns a credit, a send arms a slot), so
/// the greedy schedule's verdict is the enumeration verdict.
pub fn enumerate_p2p_credits(plan: &P2pPlan, capacity: usize) -> ExecReport {
    enumerate_bounded(plan, Some(capacity as u64))
}

fn enumerate_bounded(plan: &P2pPlan, capacity: Option<u64>) -> ExecReport {
    let w = plan.world;
    let mut pc = vec![0usize; w];
    let mut queued = vec![0u64; w * w]; // queued[from * w + to]
    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..w {
            while pc[r] < plan.ranks[r].len() {
                match plan.ranks[r][pc[r]] {
                    P2pOp::Send { to, .. } => {
                        let q = &mut queued[r * w + to];
                        if capacity.is_some_and(|cap| *q >= cap) {
                            break; // out of credits: wait for the receiver
                        }
                        *q += 1;
                    }
                    P2pOp::Recv { from, .. } => {
                        let q = &mut queued[from * w + r];
                        if *q == 0 {
                            break; // blocked: revisit after other ranks run
                        }
                        *q -= 1;
                    }
                }
                pc[r] += 1;
                progressed = true;
            }
        }
    }
    let stuck = (0..w).filter(|&r| pc[r] < plan.ranks[r].len()).map(|r| (r, pc[r])).collect();
    ExecReport { stuck }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_check::{check_collective, Collective};
    use crate::plan::{
        allgather_plan, alltoall_plan, barrier_plan, broadcast_plan, chunked_alltoall_plan,
        chunked_ring_allreduce_plan, grad_alltoall_bytes, lookup_alltoall_bytes, reform_plan,
        ring_allreduce_plan, sparse_allreduce_demo_plan,
    };
    use crate::verify::{mutate_p2p, verify_p2p, PlanMutation};

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
            chunked_alltoall_plan("alltoall_chunked", &lookup_alltoall_bytes(&rows, 8 * world)),
            sparse_allreduce_demo_plan(world),
            reform_plan(world),
        ]
    }

    #[test]
    fn every_plan_family_is_clean_on_the_graph() {
        for world in [1usize, 2, 3, 4, 8, 16] {
            for plan in family_plans(world) {
                let diags = analyze_p2p(&plan);
                assert!(diags.is_empty(), "{} w={world}: {diags:?}", plan.kind);
                assert!(enumerate_p2p(&plan).deadlock_free(), "{} w={world}", plan.kind);
            }
        }
    }

    #[test]
    fn every_plan_family_survives_slot_credit_edges() {
        // The credit protocol at the shipped capacity: no plan family
        // deadlocks even if a put blocked when all slots were armed.
        let cap = embrace_collectives::SLOT_CAPACITY;
        for world in [1usize, 2, 3, 4, 8, 16] {
            for plan in family_plans(world) {
                let diags = analyze_p2p_credits(&plan, cap);
                assert!(diags.is_empty(), "{} w={world} cap={cap}: {diags:?}", plan.kind);
                assert!(
                    enumerate_p2p_credits(&plan, cap).deadlock_free(),
                    "{} w={world} cap={cap}",
                    plan.kind
                );
            }
        }
    }

    #[test]
    fn deep_pipelining_deadlocks_a_strictly_blocking_pool() {
        // A ring step that posts every segment before receiving any: each
        // rank sends S segments to its successor, then drains S from its
        // predecessor. With fewer credits than segments a *blocking* put
        // would deadlock the whole ring — exactly why the slot
        // transport's overflow path falls back to a non-blocking
        // (counted) rendezvous instead. Both verdicts must spot it.
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
        assert!(analyze_p2p(&plan).is_empty(), "unbounded links are fine");
        for cap in [1usize, 4, segments - 1] {
            let diags = analyze_p2p_credits(&plan, cap);
            assert!(graph_deadlocks(&diags), "cap={cap}: expected a credit cycle");
            assert!(!enumerate_p2p_credits(&plan, cap).deadlock_free(), "cap={cap}");
        }
        // A pool deep enough for every posted segment restores cleanliness.
        assert!(analyze_p2p_credits(&plan, segments).is_empty());
        assert!(enumerate_p2p_credits(&plan, segments).deadlock_free());
        // The *scheduler's* chunked ring interleaves unit sends with unit
        // receives, so it stays within even a tiny credit line.
        let chunked = chunked_ring_allreduce_plan(4, 64, 1);
        assert!(analyze_p2p_credits(&chunked, 2).is_empty());
    }

    #[test]
    fn credit_verdict_agrees_with_bounded_enumeration_across_capacities() {
        for world in [2usize, 3, 4, 8] {
            for plan in family_plans(world) {
                for cap in [1usize, 2, embrace_collectives::SLOT_CAPACITY] {
                    let graph_dead = graph_deadlocks(&analyze_p2p_credits(&plan, cap));
                    let exec_dead = !enumerate_p2p_credits(&plan, cap).deadlock_free();
                    assert_eq!(
                        graph_dead, exec_dead,
                        "{} w={world} cap={cap}: graph vs enumeration disagree",
                        plan.kind
                    );
                }
            }
        }
    }

    #[test]
    fn hand_built_cycle_is_reported_with_provenance() {
        // r0 waits for r1's send, r1 waits for r0's send: the classic
        // recv-before-send deadlock. Every op is on the cycle.
        let mut plan = P2pPlan { kind: "cyclic", world: 2, ranks: vec![Vec::new(); 2] };
        plan.ranks[0].push(P2pOp::Recv { from: 1, bytes: 4 });
        plan.ranks[0].push(P2pOp::Send { to: 1, bytes: 4 });
        plan.ranks[1].push(P2pOp::Recv { from: 0, bytes: 4 });
        plan.ranks[1].push(P2pOp::Send { to: 0, bytes: 4 });
        let diags = analyze_p2p(&plan);
        assert!(graph_deadlocks(&diags), "{diags:?}");
        let cycle = diags.iter().find(|d| d.kind == DiagnosticKind::WaitCycle).unwrap();
        assert!(cycle.message.contains("rank 0 op#0 recv<-1"), "{}", cycle.message);
        assert!(cycle.message.contains("rank 1 op#0 recv<-0"), "{}", cycle.message);
        // verify_p2p alone cannot see this: pairing is perfectly matched.
        assert!(verify_p2p(&plan).is_empty());
        // The enumeration verdict agrees.
        let exec = enumerate_p2p(&plan);
        assert_eq!(exec.stuck, vec![(0, 0), (1, 0)]);
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
        let diags = analyze_p2p(&plan);
        let cycle = diags.iter().find(|d| d.kind == DiagnosticKind::WaitCycle).unwrap();
        assert!(cycle.message.contains("3 ranks"), "{}", cycle.message);
        assert!(!enumerate_p2p(&plan).deadlock_free());
    }

    #[test]
    fn graph_pairing_findings_match_verify_p2p() {
        // On matched-pair defects the graph pass reproduces verify_p2p's
        // findings exactly (same kinds, ranks, links, messages).
        for world in [2usize, 3, 4] {
            for mutation in [
                PlanMutation::DropSend { rank: 1, index: 0 },
                PlanMutation::ShrinkBytes { rank: 0, index: 0 },
            ] {
                let mut plan = allgather_plan(world, &vec![24; world]);
                assert!(mutate_p2p(&mut plan, mutation));
                let mut from_verify = verify_p2p(&plan);
                // Keep only the pairing findings: the graph pass also
                // emits the whole-round conservation diagnostic (rank
                // None), which verify_p2p does not have.
                let from_graph: Vec<Diagnostic> = analyze_p2p(&plan)
                    .into_iter()
                    .filter(|d| d.kind != DiagnosticKind::WaitCycle && d.rank.is_some())
                    .collect();
                crate::verify::sort_diagnostics(&mut from_verify);
                assert_eq!(from_graph, from_verify, "w={world} {mutation:?}");
            }
        }
    }

    #[test]
    fn dropped_send_verdicts_agree_with_enumeration() {
        for world in [2usize, 3, 4] {
            for plan0 in family_plans(world) {
                let sends = plan0
                    .ranks
                    .iter()
                    .flatten()
                    .filter(|op| matches!(op, P2pOp::Send { .. }))
                    .count();
                if sends == 0 {
                    continue;
                }
                for rank in 0..world {
                    let mut plan = plan0.clone();
                    if !mutate_p2p(&mut plan, PlanMutation::DropSend { rank, index: 0 }) {
                        continue;
                    }
                    let diags = analyze_p2p(&plan);
                    let exec = enumerate_p2p(&plan);
                    assert_eq!(
                        graph_deadlocks(&diags),
                        !exec.deadlock_free(),
                        "{} w={world} drop rank {rank}: {diags:?} vs {exec:?}",
                        plan.kind
                    );
                    // Removing a send always breaks the plan somehow.
                    assert!(!diags.is_empty(), "{} w={world}", plan.kind);
                }
            }
        }
    }

    #[test]
    fn graph_verdict_matches_model_checker_on_every_collective() {
        // Worlds 2–4: the structural verdict must equal the exhaustive
        // enumeration verdict of the model checker, plan by plan.
        for world in 2..=4usize {
            let cases: Vec<(Collective, P2pPlan)> = vec![
                (Collective::Barrier, barrier_plan(world)),
                (Collective::Broadcast { root: 0 }, broadcast_plan(world, 0, 12)),
                (Collective::ring(2 * world + 1), ring_allreduce_plan(world, 2 * world + 1)),
                (
                    Collective::RingAllreduce { elems: 2 * world + 1, seg: 2 },
                    chunked_ring_allreduce_plan(world, 2 * world + 1, 2),
                ),
                (Collective::SparseAllreduce, sparse_allreduce_demo_plan(world)),
                (Collective::Reform, reform_plan(world)),
            ];
            for (collective, plan) in cases {
                let report = check_collective(world, collective);
                let diags = analyze_p2p(&plan);
                assert_eq!(
                    report.deadlock_free(),
                    !graph_deadlocks(&diags),
                    "w={world} {}: model {} vs graph {diags:?}",
                    plan.kind,
                    report.summary()
                );
                assert!(enumerate_p2p(&plan).deadlock_free() == report.deadlock_free());
            }
        }
    }

    #[test]
    fn conservation_is_closed_form() {
        let plan = ring_allreduce_plan(4, 11);
        assert!(byte_conservation(&plan).unwrap() > 0);
        let mut bad = plan.clone();
        assert!(mutate_p2p(&mut bad, PlanMutation::ShrinkBytes { rank: 2, index: 0 }));
        let d = byte_conservation(&bad).unwrap_err();
        assert_eq!(d.kind, DiagnosticKind::ByteMismatch);
        assert_eq!(d.rank, None);
    }

    #[test]
    fn large_world_smoke_is_fast_enough_for_tests() {
        // A debug-build sanity bound; the release-mode sweep in
        // `embrace_sim verify-plan --large` covers worlds up to 1024.
        let plan = alltoall_plan("alltoall_large", &lookup_alltoall_bytes(&vec![4; 64], 256));
        assert!(analyze_p2p(&plan).is_empty());
        assert!(enumerate_p2p(&plan).deadlock_free());
    }
}

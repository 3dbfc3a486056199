//! The communication-plan IR.
//!
//! A *plan* is what a collective (or a whole training step) intends to do
//! on the wire, extracted without executing any transport. Two levels:
//!
//! * **Point-to-point plans** ([`P2pPlan`]): per rank, the ordered
//!   send/recv records — peer and byte count — a collective will perform.
//!   Peers and order are not restated here: each generator sizes the
//!   steps of `embrace_collectives::schedule` — the definition the live
//!   ops execute — in bytes. A fan-out is planned in the traversal that
//!   runs it: posted for a whole-op call, paired for the chunked
//!   scheduler's units (the schedule module records why they differ).
//!   Only the re-form handshake is written out here. Both are diffed
//!   against live wire counters by the cross-validation tests.
//! * **Schedule plans** ([`SchedulePlan`]): per rank, the ordered
//!   collective submissions — tag, kind, priority, payload bytes — either
//!   built from the step plan of `embrace_core::horizontal` or harvested
//!   from a live `CommScheduler`'s [`SubmittedOp`] log.
//!
//! `verify` consumes both levels; `model_check` executes the same
//! schedules under a virtual scheduler.

use embrace_collectives::schedule::{Payload, RingPart, Schedule, Step, Traversal};
use embrace_collectives::{Comm, CommError, Packet, ReformMsg, SubmittedOp, UNIT_HEADER_BYTES};
use embrace_core::horizontal::{PlanOp, StepPlan};
use embrace_tensor::{column_partition, F32_BYTES, INDEX_BYTES};

/// One point-to-point record in a rank's plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P2pOp {
    /// This rank sends `bytes` to rank `to`.
    Send { to: usize, bytes: u64 },
    /// This rank receives `bytes` from rank `from`.
    Recv { from: usize, bytes: u64 },
}

/// A whole group's point-to-point plan for one collective: `ranks[r]` is
/// rank `r`'s ordered op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct P2pPlan {
    /// Which collective this plan describes (diagnostic provenance).
    pub kind: &'static str,
    pub world: usize,
    pub ranks: Vec<Vec<P2pOp>>,
}

impl P2pPlan {
    fn new(kind: &'static str, world: usize) -> Self {
        P2pPlan { kind, world, ranks: vec![Vec::new(); world] }
    }

    /// Total bytes rank `r` plans to send.
    pub fn bytes_sent(&self, r: usize) -> u64 {
        self.ranks[r]
            .iter()
            .map(|op| if let P2pOp::Send { bytes, .. } = op { *bytes } else { 0 })
            .sum()
    }

    /// Total bytes rank `r` plans to receive.
    #[cfg(test)]
    fn bytes_received(&self, r: usize) -> u64 {
        self.ranks[r]
            .iter()
            .map(|op| if let P2pOp::Recv { bytes, .. } = op { *bytes } else { 0 })
            .sum()
    }

    /// Planned (messages, bytes) on the ordered link `from → to`.
    pub fn link_traffic(&self, from: usize, to: usize) -> (u64, u64) {
        let mut msgs = 0;
        let mut bytes = 0;
        for op in &self.ranks[from] {
            if let P2pOp::Send { to: t, bytes: b } = op {
                if *t == to {
                    msgs += 1;
                    bytes += b;
                }
            }
        }
        (msgs, bytes)
    }
}

/// Size every step of `schedule` in bytes: `bytes(src, dst, payload)` is
/// the wire size of what `src` sends `dst`.
fn sized(
    kind: &'static str,
    world: usize,
    schedule: Schedule,
    bytes: impl Fn(usize, usize, &Payload) -> u64,
) -> P2pPlan {
    let mut plan = P2pPlan::new(kind, world);
    for (rank, ops) in plan.ranks.iter_mut().enumerate() {
        ops.extend(schedule.units(world, rank).into_iter().flatten().map(|step| match step {
            Step::Send { to, payload } => P2pOp::Send { to, bytes: bytes(rank, to, &payload) },
            Step::Recv { from, payload } => {
                P2pOp::Recv { from, bytes: bytes(from, rank, &payload) }
            }
        }));
    }
    plan
}

/// Wire bytes of a ring unit's message: its fingerprint header and its
/// segment.
fn seg_bytes(payload: &Payload) -> u64 {
    let Payload::Seg { lo, hi, .. } = payload else { unreachable!("a ring moves segments") };
    (UNIT_HEADER_BYTES + (hi - lo) * F32_BYTES) as u64
}

/// Wire bytes of a fan-out message whose block is `block` bytes.
fn unit_bytes(block: u64) -> u64 {
    UNIT_HEADER_BYTES as u64 + block
}

/// Plan of [`embrace_collectives::ops::barrier`]: one empty packet each
/// way per dissemination round.
pub fn barrier_plan(world: usize) -> P2pPlan {
    sized("barrier", world, Schedule::Barrier, |_, _, _| 0)
}

/// Plan of [`embrace_collectives::ops::broadcast`] of a `bytes`-sized
/// payload from `root`.
pub fn broadcast_plan(world: usize, root: usize, bytes: u64) -> P2pPlan {
    sized("broadcast", world, Schedule::Broadcast { root }, |_, _, _| bytes)
}

/// Plan of [`embrace_collectives::ops::ring_allreduce`] over a buffer of
/// `elems` f32 values: one segment per ring step.
pub fn ring_allreduce_plan(world: usize, elems: usize) -> P2pPlan {
    let whole = Schedule::Ring { elems, seg: usize::MAX, part: RingPart::AllReduce };
    sized("ring_allreduce", world, whole, |_, _, p| seg_bytes(p))
}

/// Plan of the chunked scheduler's ring allreduce (kind
/// `"ring_allreduce_chunked"`): the same ring cut into `seg_elems`-element
/// units. Its segment bytes equal [`ring_allreduce_plan`]'s for the same
/// `elems`; each extra message adds a header.
pub fn chunked_ring_allreduce_plan(world: usize, elems: usize, seg_elems: usize) -> P2pPlan {
    let ring = Schedule::Ring { elems, seg: seg_elems, part: RingPart::AllReduce };
    sized("ring_allreduce_chunked", world, ring, |_, _, p| seg_bytes(p))
}

/// Plan of one phase of the ring in `seg_elems`-element units
/// (`usize::MAX`: one per step), as the sharded dense update runs them:
/// the reduce-scatter of the gradient (kind `"ring_reduce_scatter"`) or the
/// all-gather of the updated weights (kind `"ring_allgather"`). The two
/// phases of one `elems` are [`chunked_ring_allreduce_plan`]'s records, cut
/// at the phase boundary.
pub fn ring_phase_plan(world: usize, elems: usize, seg_elems: usize, part: RingPart) -> P2pPlan {
    let kind = match part {
        RingPart::AllReduce => return chunked_ring_allreduce_plan(world, elems, seg_elems),
        RingPart::ReduceScatter => "ring_reduce_scatter",
        RingPart::AllGather => "ring_allgather",
    };
    sized(kind, world, Schedule::Ring { elems, seg: seg_elems, part }, |_, _, p| seg_bytes(p))
}

/// Plan of the whole-op allgather family (`allgather_dense`,
/// `allgather_sparse`, `allgather_tokens`): an alltoall in which rank `r`
/// sends the same `local_bytes[r]` block, behind its header, to every peer.
pub fn allgather_plan(world: usize, local_bytes: &[u64]) -> P2pPlan {
    assert_eq!(local_bytes.len(), world, "one payload size per rank");
    let fanout = Schedule::Fanout(Traversal::Posted);
    sized("allgather", world, fanout, |src, _, _| unit_bytes(local_bytes[src]))
}

fn fanout_plan(kind: &'static str, bytes: &[Vec<u64>], traversal: Traversal) -> P2pPlan {
    let world = bytes.len();
    assert!(bytes.iter().all(|row| row.len() == world), "square byte matrix");
    sized(kind, world, Schedule::Fanout(traversal), |src, dst, _| unit_bytes(bytes[src][dst]))
}

/// Plan of the whole-op alltoall family (`alltoall_dense`,
/// `alltoallv_sparse`, `alltoallv_tokens`): `bytes[i][j]` is the block rank
/// `i` sends rank `j` behind its header; every send is posted, then
/// receives drain in source-rank order.
pub fn alltoall_plan(kind: &'static str, bytes: &[Vec<u64>]) -> P2pPlan {
    fanout_plan(kind, bytes, Traversal::Posted)
}

/// Plan of the chunked scheduler's fan-out collectives (alltoall dense /
/// sparse and the token allgather): one send and one receive per unit, so
/// the plan is deadlock-free without buffering assumptions. `bytes[i][j]`
/// is the block rank `i` sends rank `j` behind its header; pass a row of
/// identical entries per rank for the allgather case.
pub fn chunked_alltoall_plan(kind: &'static str, bytes: &[Vec<u64>]) -> P2pPlan {
    fanout_plan(kind, bytes, Traversal::Paired)
}

/// Byte matrix of EmbRace's **AlltoAll #1** (lookup-result redistribution,
/// §4.1.1): rank `i` sends rank `j` the lookup of `j`'s batch against
/// `i`'s column shard — a dense block of `batch_rows[j] × shard_dim(i)`
/// f32 values.
pub fn lookup_alltoall_bytes(batch_rows: &[usize], dim_total: usize) -> Vec<Vec<u64>> {
    let world = batch_rows.len();
    let cols = column_partition(dim_total, world);
    (0..world)
        .map(|i| (0..world).map(|j| (batch_rows[j] * cols[i].width() * F32_BYTES) as u64).collect())
        .collect()
}

/// Byte matrix of EmbRace's **AlltoAll #2** (gradient exchange): rank `i`
/// sends rank `j` its gradient rows sliced to `j`'s column range — a
/// row-sparse block of `grad_rows[i]` rows, each `shard_dim(j)` wide plus
/// one COO index.
pub fn grad_alltoall_bytes(grad_rows: &[usize], dim_total: usize) -> Vec<Vec<u64>> {
    let world = grad_rows.len();
    let cols = column_partition(dim_total, world);
    (0..world)
        .map(|i| {
            (0..world)
                .map(|j| (grad_rows[i] * (cols[j].width() * F32_BYTES + INDEX_BYTES)) as u64)
                .collect()
        })
        .collect()
}

/// Plan of the fault-free elastic re-form handshake
/// (`ElasticWorker::reform`, model-checked as `Collective::Reform`): every
/// rank probes every other current member with a [`ReformMsg::Report`] in
/// ascending member order; the minimum alive rank (rank 0 fault-free)
/// gathers one report per peer and then commits the agreed membership to
/// each with a [`ReformMsg::Commit`]. A non-coordinator's await loop first
/// drains the coordinator's own (stale) probe report before the commit,
/// and the probe reports of the other non-coordinators are drained by the
/// next collective's epoch filter — the plan includes those drains, so
/// every planned send has a matching planned receive.
pub fn reform_plan(world: usize) -> P2pPlan {
    let mut plan = P2pPlan::new("reform", world);
    if world <= 1 {
        return plan;
    }
    let report = ReformMsg::Report { origin: 0, epoch: 0 }.nbytes() as u64;
    let commit = ReformMsg::Commit { epoch: 1, members: (0..world).collect() }.nbytes() as u64;
    // Coordinator (rank 0): probe all, gather one report per peer, commit.
    for peer in 1..world {
        plan.ranks[0].push(P2pOp::Send { to: peer, bytes: report });
    }
    for peer in 1..world {
        plan.ranks[0].push(P2pOp::Recv { from: peer, bytes: report });
    }
    for peer in 1..world {
        plan.ranks[0].push(P2pOp::Send { to: peer, bytes: commit });
    }
    // Members: probe all, drain the coordinator's probe, take the commit,
    // then drain the other members' probes (stale-epoch drops).
    for rank in 1..world {
        for peer in (0..world).filter(|&p| p != rank) {
            plan.ranks[rank].push(P2pOp::Send { to: peer, bytes: report });
        }
        plan.ranks[rank].push(P2pOp::Recv { from: 0, bytes: report });
        plan.ranks[rank].push(P2pOp::Recv { from: 0, bytes: commit });
        for peer in (1..world).filter(|&p| p != rank) {
            plan.ranks[rank].push(P2pOp::Recv { from: peer, bytes: report });
        }
    }
    plan
}

/// One collective in a rank's schedule plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedCollective {
    /// Cross-rank consistency tag.
    pub tag: String,
    /// Operation kind (`CommOp::kind_str` vocabulary).
    pub kind: &'static str,
    /// Queue priority (lower = sooner).
    pub priority: i64,
    /// This rank's outgoing payload bytes (may differ across ranks).
    pub bytes: u64,
}

/// A whole group's schedule plan: `ranks[r]` is rank `r`'s submissions in
/// submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedulePlan {
    pub world: usize,
    pub ranks: Vec<Vec<PlannedCollective>>,
}

impl SchedulePlan {
    /// The SPMD schedule plan of one step: every rank submits `plan`'s ops
    /// in its order, with their tags, kinds, priorities and bytes.
    pub fn from_plan(plan: &StepPlan, world: usize) -> Self {
        let planned = |op: &PlanOp| PlannedCollective {
            tag: op.tag.clone(),
            kind: op.kind.name(),
            priority: op.priority,
            bytes: op.bytes as u64,
        };
        SchedulePlan { world, ranks: vec![plan.ops.iter().map(planned).collect(); world] }
    }

    /// Harvest a schedule plan from live `CommScheduler` submission logs
    /// (one log per rank, via `CommScheduler::submitted`).
    pub fn from_logs(logs: &[Vec<SubmittedOp>]) -> Self {
        SchedulePlan {
            world: logs.len(),
            ranks: logs
                .iter()
                .map(|log| {
                    log.iter()
                        .map(|op| PlannedCollective {
                            tag: op.tag.clone(),
                            kind: op.kind,
                            priority: op.priority,
                            bytes: op.bytes,
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// A [`Comm`] endpoint that performs no communication but records the
/// point-to-point trace as plan ops. Receives are satisfied from a queue
/// of scripted packets (typically the packets a paired in-process run
/// sent, fingerprint headers included); when the script runs dry the recv
/// still records and yields [`Packet::Empty`], which a ring or fan-out
/// receive rejects, so script every receive of those.
pub struct RecordingEndpoint {
    rank: usize,
    world: usize,
    trace: Vec<P2pOp>,
    scripted: Vec<std::collections::VecDeque<Packet>>,
}

impl RecordingEndpoint {
    pub fn new(rank: usize, world: usize) -> Self {
        RecordingEndpoint {
            rank,
            world,
            trace: Vec::new(),
            scripted: (0..world).map(|_| std::collections::VecDeque::new()).collect(),
        }
    }

    /// Queue a packet to be returned by a later `try_recv(from)`.
    pub fn script(&mut self, from: usize, packet: Packet) {
        self.scripted[from].push_back(packet);
    }

    /// The point-to-point trace recorded so far.
    pub fn trace(&self) -> &[P2pOp] {
        &self.trace
    }
}

impl Comm for RecordingEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        self.trace.push(P2pOp::Send { to, bytes: packet.nbytes() as u64 });
        Ok(())
    }

    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError> {
        let packet = self.scripted[from].pop_front().unwrap_or(Packet::Empty);
        self.trace.push(P2pOp::Recv { from, bytes: packet.nbytes() as u64 });
        Ok(packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_tensor::TOKEN_BYTES;

    #[test]
    fn barrier_plan_shape() {
        // Dissemination barrier: ⌈log₂ world⌉ rounds, one send + one recv
        // per rank per round, distances 1, 2, 4, ...
        let p = barrier_plan(3);
        for r in 0..3 {
            assert_eq!(p.ranks[r].len(), 4); // 2 rounds × (send + recv)
        }
        assert_eq!(
            p.ranks[1],
            vec![
                P2pOp::Send { to: 2, bytes: 0 },
                P2pOp::Recv { from: 0, bytes: 0 },
                P2pOp::Send { to: 0, bytes: 0 },
                P2pOp::Recv { from: 2, bytes: 0 },
            ]
        );
        assert_eq!(barrier_plan(1).ranks[0], vec![]);
    }

    #[test]
    fn chunked_ring_plan_matches_unchunked_bytes_and_verifies() {
        for world in [2, 3, 4] {
            for elems in [7usize, 12, 65, 256] {
                for seg in [1usize, 3, 16, 1024] {
                    let chunked = chunked_ring_allreduce_plan(world, elems, seg);
                    let whole = ring_allreduce_plan(world, elems);
                    // The same segment bytes; a header per message on top.
                    let segs = |p: &P2pPlan, r: usize| {
                        let sends = p.ranks[r].iter().filter(|op| matches!(op, P2pOp::Send { .. }));
                        p.bytes_sent(r) - (sends.count() * UNIT_HEADER_BYTES) as u64
                    };
                    for r in 0..world {
                        let at = format!("world {world} elems {elems} seg {seg} rank {r}");
                        assert_eq!(segs(&chunked, r), segs(&whole, r), "{at}");
                    }
                    let report = crate::verify::verify_p2p(&chunked, None);
                    assert!(report.clean(), "chunked ring plan clean, got {report:?}");
                }
            }
        }
        // seg >= max chunk degenerates to exactly one unit per step.
        let p = chunked_ring_allreduce_plan(3, 12, 100);
        assert_eq!(p.ranks[0].len(), ring_allreduce_plan(3, 12).ranks[0].len());
    }

    #[test]
    fn chunked_alltoall_plan_pairs_units_per_link() {
        let bytes = vec![vec![0, 10, 20], vec![30, 0, 40], vec![50, 60, 0]];
        let p = chunked_alltoall_plan("alltoall_dense_chunked", &bytes);
        assert!(crate::verify::verify_p2p(&p, None).clean(), "chunked alltoall plan clean");
        for (r, row) in bytes.iter().enumerate() {
            // world-1 units, each one send + one recv.
            assert_eq!(p.ranks[r].len(), 4);
            let sent: u64 = row.iter().sum();
            assert_eq!(p.bytes_sent(r), sent + 2 * UNIT_HEADER_BYTES as u64);
        }
        // Same totals as the whole-op plan, different interleaving.
        let whole = alltoall_plan("alltoall_dense", &bytes);
        for r in 0..3 {
            assert_eq!(p.bytes_sent(r), whole.bytes_sent(r));
            assert_eq!(p.bytes_received(r), whole.bytes_received(r));
        }
        // Allgather shape: identical row entries per rank.
        let gather = chunked_alltoall_plan(
            "allgather_chunked",
            &(0..3).map(|r| vec![(r as u64 + 1) * 8; 3]).collect::<Vec<_>>(),
        );
        assert!(crate::verify::verify_p2p(&gather, None).clean(), "chunked allgather plan clean");
        assert_eq!(gather.bytes_received(0), 16 + 24 + 2 * UNIT_HEADER_BYTES as u64);
    }

    #[test]
    fn ring_plan_conserves_bytes_per_rank() {
        for world in [2, 3, 4] {
            // Evenly divisible chunks: per-rank symmetry holds exactly.
            let p = ring_allreduce_plan(world, 12);
            for r in 0..world {
                assert_eq!(p.bytes_sent(r), p.bytes_received(r), "rank {r}");
                assert_eq!(p.ranks[r].len(), 4 * (world - 1));
            }
            // Uneven chunks: conservation holds globally.
            let p = ring_allreduce_plan(world, 11);
            let sent: u64 = (0..world).map(|r| p.bytes_sent(r)).sum();
            let recv: u64 = (0..world).map(|r| p.bytes_received(r)).sum();
            assert_eq!(sent, recv);
        }
    }

    #[test]
    fn alltoall_plan_links_match_matrix() {
        let bytes = vec![vec![0, 10, 20], vec![30, 0, 40], vec![50, 60, 0]];
        let p = alltoall_plan("alltoall_dense", &bytes);
        assert_eq!(p.link_traffic(0, 1), (1, unit_bytes(10)));
        assert_eq!(p.link_traffic(2, 1), (1, unit_bytes(60)));
        assert_eq!(p.link_traffic(1, 1), (0, 0));
    }

    #[test]
    fn lookup_bytes_depend_on_dest_batch_and_own_shard() {
        let m = lookup_alltoall_bytes(&[2, 5], 8);
        // rank 0 shard is 4 cols wide; to rank 1 it sends 5 rows × 4 cols.
        assert_eq!(m[0][1], (5 * 4 * F32_BYTES) as u64);
        assert_eq!(m[1][0], (2 * 4 * F32_BYTES) as u64);
    }

    #[test]
    fn reform_plan_is_matched_and_sized() {
        assert!(reform_plan(1).ranks[0].is_empty());
        for world in [2usize, 3, 4, 8] {
            let p = reform_plan(world);
            let report = crate::verify::verify_p2p(&p, None);
            assert!(report.clean(), "world {world}: {report:?}");
            // Coordinator: one probe out + one report in + one commit out
            // per peer; members: world-1 probes out, commit + world-1
            // stale reports in.
            assert_eq!(p.ranks[0].len(), 3 * (world - 1));
            for r in 1..world {
                assert_eq!(p.ranks[r].len(), 2 * world - 1);
            }
            // Report = rank id + epoch; commit carries the member list.
            assert_eq!(p.link_traffic(1, 0), (1, (TOKEN_BYTES + 8) as u64));
            let commit = (8 + world * TOKEN_BYTES) as u64;
            assert_eq!(p.link_traffic(0, 1), (2, (TOKEN_BYTES + 8) as u64 + commit));
        }
    }

    #[test]
    fn tokens_plan_roundtrip_constant() {
        let p = allgather_plan(2, &[(3 * TOKEN_BYTES) as u64, TOKEN_BYTES as u64]);
        assert_eq!(p.bytes_sent(0), unit_bytes((3 * TOKEN_BYTES) as u64));
        assert_eq!(p.bytes_received(0), unit_bytes(TOKEN_BYTES as u64));
    }
}

//! Deterministic interleaving model checker ("loom-lite").
//!
//! Replaces the threaded mesh with a virtual single-threaded scheduler
//! for small worlds (2–4 ranks) and exhaustively enumerates every
//! schedule of the collective algorithms in `embrace_collectives::ops`:
//!
//! * **Choice points** are blocking receives: a scheduled step picks one
//!   rank whose pending receive is resolvable, completes it, then runs
//!   that rank forward through its (non-blocking) sends to its next
//!   receive or termination.
//! * **Partial-order reduction**: sends never block and are invisible to
//!   every rank except their consumer, so they are executed eagerly as
//!   part of the step that enables them rather than scheduled separately.
//!   Receives addressed to distinct ranks are the only operations whose
//!   order matters, and all of their orders are explored.
//! * The state graph is acyclic (every step advances some program
//!   counter); states are deduplicated and the number of *interleavings*
//!   (paths from the initial state to a terminal state) is computed by
//!   dynamic programming over the DAG in `u128`.
//!
//! Checked properties:
//!
//! * **deadlock-freedom** — no reachable state has running ranks but no
//!   enabled step;
//! * **determinism** — every terminal state carries bitwise-identical
//!   per-rank results (f32 payloads are tracked as bit patterns);
//! * **abort termination** — with a crashed rank injected, every
//!   interleaving still terminates: PR 1's abort broadcast reaches every
//!   survivor in every ordering;
//! * **re-form safety** — the elastic shrink handshake
//!   ([`Collective::Reform`] / [`Collective::ReformMidway`]) is
//!   deadlock-free and commits one agreed membership containing every
//!   survivor, even when a rank crashes *mid-handshake* (including the
//!   coordinator, exercising failover).
//!
//! The collectives (barrier, broadcast, ring, allgather, alltoallv — whole
//! or cut into the chunked scheduler's units; the posted allgather is
//! also `sparse_allreduce`'s traversal) are not restated here: each
//! rank's virtual program is its `embrace_collectives::schedule` — the
//! definition the live ops execute
//! — interpreted step by step over virtual links. Only the re-form
//! handshake keeps an interpreter of its own. The abort protocol is the
//! live one (origin broadcasts [`Packet::Abort`]-equivalents, receivers of
//! an abort do not re-broadcast), and terminal results are cross-checked
//! against the real threaded implementation in this crate's tests.
//!
//! [`Packet::Abort`]: embrace_collectives::Packet::Abort

use embrace_collectives::schedule::{Payload, RingPart, Schedule, Step, Traversal};
use std::collections::{HashMap, HashSet, VecDeque};

/// Which collective algorithm to model-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collective {
    Barrier,
    Broadcast {
        root: usize,
    },
    /// Ring allreduce in `seg`-element units; `seg` at or above the
    /// largest chunk is the whole-op ring ([`Collective::ring`]), smaller
    /// is the chunked scheduler's segmented execution.
    RingAllreduce {
        elems: usize,
        seg: usize,
    },
    /// Token allgather: [`Traversal::Posted`] is the whole op,
    /// [`Traversal::Paired`] the chunked scheduler's unit-stepped run.
    AllgatherTokens(Traversal),
    /// Alltoallv (dense and sparse share the structure), likewise.
    Alltoallv(Traversal),
    /// A chunked ring allreduce preempted after `preempt_at` units by a
    /// whole paired allgather (the §5.2 scenario: urgent sparse op
    /// interleaved mid-tensor into a bulk dense op), then resumed. The
    /// cut is unit-aligned on every rank, as the scheduler's rule — applied
    /// before every unit to a queue that is equal on every rank —
    /// guarantees, and as the fingerprint header on every unit's message
    /// (units run per suspended op) checks.
    PreemptedRing {
        elems: usize,
        seg: usize,
        preempt_at: usize,
    },
    /// The elastic shrink re-form handshake of
    /// `embrace_collectives::ElasticWorker::reform`: probe every current
    /// member with a `Report`, elect the minimum presumed-alive rank
    /// coordinator, gather one report per alive peer, commit the
    /// membership, with coordinator-failover re-probe rounds when the
    /// coordinator dies mid-handshake. Combine with [`CheckConfig::crash`]
    /// for a rank that is dead before the re-form begins.
    ///
    /// Unlike the data collectives, re-form sends *observe* peer liveness
    /// (`try_send` → `PeerGone` removes the peer from the candidate set),
    /// so the model schedules every send as a choice point instead of
    /// executing sends eagerly.
    Reform,
    /// Re-form with `victim` crashing *mid-handshake*: it probes (so its
    /// reports may or may not be seen), gathers if it elected itself
    /// coordinator, then its endpoint drops before it commits. Every
    /// interleaving of the victim's death against the survivors' probes
    /// is explored.
    ReformMidway {
        victim: usize,
    },
}

impl Collective {
    pub fn name(&self) -> &'static str {
        match self {
            Collective::Barrier => "barrier",
            Collective::Broadcast { .. } => "broadcast",
            Collective::RingAllreduce { elems, seg } if *seg >= *elems => "ring_allreduce",
            Collective::RingAllreduce { .. } => "ring_allreduce_chunked",
            Collective::AllgatherTokens(Traversal::Posted) => "allgather",
            Collective::AllgatherTokens(Traversal::Paired) => "allgather_chunked",
            Collective::Alltoallv(Traversal::Posted) => "alltoallv",
            Collective::Alltoallv(Traversal::Paired) => "alltoallv_chunked",
            Collective::PreemptedRing { .. } => "ring_preempted",
            Collective::Reform => "reform",
            Collective::ReformMidway { .. } => "reform_midway",
        }
    }

    /// Is this one of the elastic re-form handshake programs?
    fn is_reform(&self) -> bool {
        matches!(self, Collective::Reform | Collective::ReformMidway { .. })
    }

    /// The mid-handshake crash victim, if this is [`Collective::ReformMidway`].
    fn midway_victim(&self) -> Option<usize> {
        match self {
            Collective::ReformMidway { victim } => Some(*victim),
            _ => None,
        }
    }

    /// The re-form handshake programs: fault-free plus a mid-handshake
    /// crash of every rank.
    pub fn reform(world: usize) -> Vec<Collective> {
        let mut v = vec![Collective::Reform];
        v.extend((0..world).map(|victim| Collective::ReformMidway { victim }));
        v
    }

    /// The whole-op ring allreduce over `elems` values.
    pub fn ring(elems: usize) -> Collective {
        Collective::RingAllreduce { elems, seg: usize::MAX }
    }

    /// The whole-op collectives at their default check sizes.
    pub fn all(world: usize) -> Vec<Collective> {
        vec![
            Collective::Barrier,
            Collective::Broadcast { root: 0 },
            Collective::ring(2 * world + 1),
            Collective::AllgatherTokens(Traversal::Posted),
            Collective::Alltoallv(Traversal::Posted),
        ]
    }

    /// The chunked-execution programs at their default check sizes: a
    /// segment size of 2 forces multiple units per ring step, and the
    /// preempted variant cuts the ring after `world` units — mid
    /// reduce-scatter.
    pub fn chunked(world: usize) -> Vec<Collective> {
        vec![
            Collective::RingAllreduce { elems: 2 * world + 1, seg: 2 },
            Collective::AllgatherTokens(Traversal::Paired),
            Collective::Alltoallv(Traversal::Paired),
            Collective::PreemptedRing { elems: 2 * world + 1, seg: 2, preempt_at: world },
        ]
    }
}

/// One model-checking run: a collective, a world size, and optionally a
/// rank that is crashed from the start (to prove abort termination).
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    pub world: usize,
    pub collective: Collective,
    /// Rank that is dead before the collective begins (its endpoint
    /// dropped): peers observe `PeerGone` and must abort-terminate.
    pub crash: Option<usize>,
}

/// Virtual communication failure (the model's `CommError` subset).
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub enum VErr {
    PeerGone {
        peer: usize,
    },
    Aborted {
        origin: usize,
    },
    /// This rank was the injected crash victim.
    Crashed,
}

/// A packet on a virtual link. f32 payloads are carried as bit patterns so
/// states hash and results compare bitwise.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum VPacket {
    Data(Vec<u32>),
    Empty,
    Abort { origin: usize },
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum Status {
    Running,
    Done(Result<(), VErr>),
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct RankState {
    pc: u32,
    /// Working buffer (ring-allreduce accumulator, as f32 bit patterns).
    buf: Vec<u32>,
    /// Collected results, indexed by source rank where applicable.
    out: Vec<Vec<u32>>,
    status: Status,
}

/// The whole virtual world. `queues[to][from]` is the FIFO link
/// `from → to`, exactly the transport's per-ordered-pair channel.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct World {
    ranks: Vec<RankState>,
    queues: Vec<Vec<VecDeque<VPacket>>>,
}

/// Rank `rank`'s program, read off the shared schedule; empty for re-form
/// (its own interpreter, [`World::advance_reform`]).
fn program(cfg: &CheckConfig, rank: usize) -> Vec<Step> {
    let flat = |schedule: Schedule| schedule.units(cfg.world, rank).concat();
    match cfg.collective {
        Collective::Barrier => flat(Schedule::Barrier),
        Collective::Broadcast { root } => flat(Schedule::Broadcast { root }),
        Collective::RingAllreduce { elems, seg } => {
            flat(Schedule::Ring { elems, seg, part: RingPart::AllReduce })
        }
        Collective::AllgatherTokens(traversal) | Collective::Alltoallv(traversal) => {
            flat(Schedule::Fanout(traversal))
        }
        // Unit indices align across ranks (every rank runs the same units
        // per ring step), which is what makes a unit-aligned cut coherent.
        Collective::PreemptedRing { elems, seg, preempt_at } => {
            let units =
                Schedule::Ring { elems, seg, part: RingPart::AllReduce }.units(cfg.world, rank);
            let k = preempt_at.min(units.len());
            let mut prog = units[..k].concat();
            prog.extend(flat(Schedule::Fanout(Traversal::Paired)));
            prog.extend(units[k..].concat());
            prog
        }
        Collective::Reform | Collective::ReformMidway { .. } => Vec::new(),
    }
}

/// One configuration plus every rank's schedule program, built once.
struct Model<'a> {
    cfg: &'a CheckConfig,
    progs: Vec<Vec<Step>>,
}

// --- Elastic re-form handshake state machine -----------------------------
//
// Re-form ranks keep their protocol state in `RankState::buf` instead of a
// static pc-indexed program, because the handshake is data-dependent: which
// peers answer a probe decides who coordinates, and coordinator failover
// loops back to a fresh probe round over a strictly smaller candidate set.
// Membership sets are bitmasks (worlds ≤ 32).

/// `buf` slots of a re-form rank.
const B_PHASE: usize = 0;
const B_CAND: usize = 1;
const B_ALIVE: usize = 2;
const B_CUR: usize = 3;
const B_MASK: usize = 4;

/// Re-form phases. Probe/commit rest at a *send* choice point; gather and
/// await rest at receives; crash is the midway victim's scheduled death.
const P_PROBE: u32 = 0;
const P_GATHER: u32 = 1;
const P_AWAIT: u32 = 2;
const P_COMMIT: u32 = 3;
const P_CRASH: u32 = 4;
const P_DONE: u32 = 5;

/// Smallest rank ≥ `from` in `mask`, excluding `me`.
fn next_member(mask: u32, from: u32, me: usize) -> Option<usize> {
    (from as usize..32).find(|&i| i != me && mask & (1 << i) != 0)
}

/// Advance a re-form rank through exhausted phase boundaries so `buf`
/// always points at a real pending operation (or a terminal phase).
/// Mirrors `ElasticWorker::reform`'s control flow: probe → elect min
/// alive → gather (coordinator) or await-commit (member); the midway
/// victim substitutes its crash for await/commit.
fn reform_normalize(buf: &mut [u32], me: usize, victim: bool) {
    loop {
        match buf[B_PHASE] {
            P_PROBE => {
                if next_member(buf[B_CAND], buf[B_CUR], me).is_some() {
                    return;
                }
                // `alive` always contains `me`, so the minimum exists.
                let coord = buf[B_ALIVE].trailing_zeros();
                if coord as usize == me {
                    buf[B_PHASE] = P_GATHER;
                    buf[B_CUR] = 0;
                } else if victim {
                    buf[B_PHASE] = P_CRASH;
                } else {
                    buf[B_PHASE] = P_AWAIT;
                    buf[B_CUR] = coord;
                }
            }
            P_GATHER => {
                if next_member(buf[B_ALIVE], buf[B_CUR], me).is_some() {
                    return;
                }
                if victim {
                    buf[B_PHASE] = P_CRASH;
                } else {
                    buf[B_PHASE] = P_COMMIT;
                    buf[B_CUR] = 0;
                }
            }
            P_COMMIT => {
                if next_member(buf[B_MASK], buf[B_CUR], me).is_some() {
                    return;
                }
                buf[B_PHASE] = P_DONE;
            }
            _ => return, // await / crash / done rest as they are
        }
    }
}

/// This rank's initial local payload for the allgather model. Values are
/// distinct per rank and lengths vary to exercise variable payloads;
/// public so tests can replay the identical inputs through the real
/// threaded collectives and compare results bitwise.
pub fn gather_local(rank: usize) -> Vec<u32> {
    (0..=rank as u32).map(|i| (rank as u32) * 16 + i).collect()
}

/// Rank `rank`'s part destined for `dst` in the alltoallv model (see
/// [`gather_local`] for why this is public).
pub fn alltoallv_part(rank: usize, dst: usize) -> Vec<u32> {
    let len = (rank + dst) % 2 + 1;
    vec![(rank as u32) * 16 + dst as u32; len]
}

/// Rank `rank`'s initial buffer in the ring-allreduce model, as f32 bit
/// patterns (see [`gather_local`] for why this is public).
pub fn ring_init(rank: usize, elems: usize) -> Vec<u32> {
    (0..elems).map(|i| ((rank * 100 + i) as f32).to_bits()).collect()
}

/// The payload the broadcast model's root transmits (see
/// [`gather_local`] for why this is public).
pub fn broadcast_payload(world: usize) -> Vec<u32> {
    vec![7, 42, world as u32]
}

/// What rank `rank` puts on the wire for a send of `payload` to `to`
/// (computed from current state, since reduction payloads depend on
/// received data).
fn send_payload(
    cfg: &CheckConfig,
    rank: usize,
    to: usize,
    payload: &Payload,
    st: &RankState,
) -> VPacket {
    match payload {
        Payload::Signal => VPacket::Empty,
        Payload::Message => VPacket::Data(broadcast_payload(cfg.world)),
        Payload::Seg { lo, hi, .. } => VPacket::Data(st.buf[*lo..*hi].to_vec()),
        Payload::Block => VPacket::Data(match cfg.collective {
            Collective::Alltoallv(_) => alltoallv_part(rank, to),
            // Allgather and the preemptor inside PreemptedRing.
            _ => gather_local(rank),
        }),
    }
}

/// Fold packet `p`, received from `from` for a receive of `payload`, into
/// the rank's state.
fn handle_recv(payload: &Payload, st: &mut RankState, from: usize, p: VPacket) {
    match (payload, p) {
        (Payload::Signal, VPacket::Empty) => {}
        (Payload::Message, VPacket::Data(d)) => st.out = vec![d],
        (Payload::Seg { lo, hi, reduce }, VPacket::Data(d)) => {
            for (i, inc) in (*lo..*hi).zip(d) {
                // Accumulate bit-exactly as the real reduce does.
                let acc = &mut st.buf[i];
                *acc = if *reduce {
                    (f32::from_bits(*acc) + f32::from_bits(inc)).to_bits()
                } else {
                    inc
                };
            }
        }
        (Payload::Block, VPacket::Data(d)) => st.out[from] = d,
        (payload, p) => unreachable!("model protocol violation: {payload:?} received {p:?}"),
    }
}

impl World {
    fn new(cfg: &CheckConfig) -> World {
        let w = cfg.world;
        let ranks = (0..w)
            .map(|rank| {
                let (buf, out, status) = match cfg.collective {
                    Collective::RingAllreduce { elems, .. } => {
                        (ring_init(rank, elems), Vec::new(), Status::Running)
                    }
                    Collective::AllgatherTokens(_) | Collective::Alltoallv(_) => {
                        (Vec::new(), vec![Vec::new(); w], Status::Running)
                    }
                    // The preempted ring carries both the ring buffer and
                    // the preemptor gather's output slots.
                    Collective::PreemptedRing { elems, .. } => {
                        (ring_init(rank, elems), vec![Vec::new(); w], Status::Running)
                    }
                    // Re-form: protocol state, not payload, lives in `buf`.
                    // Everyone starts probing the full membership, presuming
                    // only itself alive and committed.
                    Collective::Reform | Collective::ReformMidway { .. } => {
                        let full = ((1u64 << w) - 1) as u32;
                        let me = 1u32 << rank;
                        (vec![P_PROBE, full, me, 0, me], Vec::new(), Status::Running)
                    }
                    Collective::Barrier | Collective::Broadcast { .. } => {
                        (Vec::new(), Vec::new(), Status::Running)
                    }
                };
                let status =
                    if cfg.crash == Some(rank) { Status::Done(Err(VErr::Crashed)) } else { status };
                RankState { pc: 0, buf, out, status }
            })
            .collect();
        let queues = (0..w).map(|_| (0..w).map(|_| VecDeque::new()).collect()).collect();
        World { ranks, queues }
    }

    fn running(&self, r: usize) -> bool {
        self.ranks[r].status == Status::Running
    }

    /// Abort broadcast + terminate with `err` — mirrors `ops::fail`:
    /// locally detected failures notify every live peer; received aborts
    /// (handled at the recv site) are not re-broadcast.
    fn fail(&mut self, r: usize, err: VErr) {
        if !matches!(err, VErr::Aborted { .. }) {
            for dst in 0..self.ranks.len() {
                if dst != r && self.running(dst) {
                    self.queues[dst][r].push_back(VPacket::Abort { origin: r });
                }
            }
        }
        self.finish(r, Err(err));
    }

    /// Terminate rank `r`: its endpoint drops, so in-flight packets to it
    /// are discarded (crossbeam disconnect semantics) — also keeps states
    /// canonical for deduplication.
    fn finish(&mut self, r: usize, result: Result<(), VErr>) {
        self.ranks[r].status = Status::Done(result);
        for q in &mut self.queues[r] {
            q.clear();
        }
    }

    /// A peer a re-form probe can deliver to: running, or finished
    /// cleanly (its endpoint outlives the handshake). Only a *crashed*
    /// rank's endpoint is gone, which is exactly what `try_send`'s
    /// `PeerGone` detects in the real transport.
    fn reachable(&self, r: usize) -> bool {
        !matches!(self.ranks[r].status, Status::Done(Err(_)))
    }

    /// Run re-form rank `r` forward by up to `budget` scheduled
    /// operations. Every probe/commit send, gather/await receive, and the
    /// midway victim's crash is a separate choice point: sends observe
    /// peer liveness here, so their order against a peer's death matters
    /// and must be explored.
    fn advance_reform(&mut self, cfg: &CheckConfig, r: usize, mut budget: u32) {
        let victim = cfg.collective.midway_victim() == Some(r);
        while self.running(r) {
            reform_normalize(&mut self.ranks[r].buf, r, victim);
            let phase = self.ranks[r].buf[B_PHASE];
            if phase == P_DONE {
                // Committed: the membership mask is the result; the
                // protocol scratch state is not part of it.
                let mask = self.ranks[r].buf[B_MASK];
                self.ranks[r].out = vec![vec![mask]];
                self.ranks[r].buf = Vec::new();
                self.finish(r, Ok(()));
                return;
            }
            if budget == 0 {
                return;
            }
            match phase {
                P_CRASH => {
                    // Mid-handshake death: endpoint drops silently — no
                    // abort broadcast, peers discover it by probe/timeout.
                    self.finish(r, Err(VErr::Crashed));
                    return;
                }
                P_PROBE => {
                    let st = &self.ranks[r];
                    let c = next_member(st.buf[B_CAND], st.buf[B_CUR], r)
                        .expect("normalized probe has a target");
                    if self.running(c) {
                        self.queues[c][r].push_back(VPacket::Empty);
                    }
                    if self.reachable(c) {
                        // Delivered (a finished peer just never reads it):
                        // the peer is presumed alive.
                        self.ranks[r].buf[B_ALIVE] |= 1 << c;
                    }
                    self.ranks[r].buf[B_CUR] = c as u32 + 1;
                }
                P_COMMIT => {
                    let st = &self.ranks[r];
                    let c = next_member(st.buf[B_MASK], st.buf[B_CUR], r)
                        .expect("normalized commit has a target");
                    let mask = st.buf[B_MASK];
                    if self.running(c) {
                        self.queues[c][r].push_back(VPacket::Data(vec![mask]));
                    }
                    // A member dying between gather and commit is tolerated
                    // (`let _ = try_send`): the next collective re-forms.
                    self.ranks[r].buf[B_CUR] = c as u32 + 1;
                }
                P_GATHER => {
                    let st = &self.ranks[r];
                    let p = next_member(st.buf[B_ALIVE], st.buf[B_CUR], r)
                        .expect("normalized gather has a target");
                    match self.queues[r][p].pop_front() {
                        Some(VPacket::Empty) => {
                            // The peer's report: it is in the next epoch.
                            self.ranks[r].buf[B_MASK] |= 1 << p;
                            self.ranks[r].buf[B_CUR] = p as u32 + 1;
                        }
                        Some(other) => {
                            unreachable!("re-form gather from {p} received {other:?}")
                        }
                        None if !self.running(p) => {
                            // Timeout / disconnect: the peer drops out.
                            self.ranks[r].buf[B_CUR] = p as u32 + 1;
                        }
                        None => return, // blocked on a live peer's report
                    }
                }
                P_AWAIT => {
                    let coord = self.ranks[r].buf[B_CUR] as usize;
                    match self.queues[r][coord].pop_front() {
                        Some(VPacket::Data(m)) => {
                            let mask = m[0];
                            assert!(
                                mask & (1 << r) != 0,
                                "model protocol violation: live rank {r} evicted by {coord}"
                            );
                            self.ranks[r].buf[B_MASK] = mask;
                            self.ranks[r].buf[B_PHASE] = P_DONE;
                        }
                        Some(VPacket::Empty) => {
                            // The coordinator's own probe report: stale,
                            // dropped without leaving the await loop.
                        }
                        Some(other) => {
                            unreachable!("re-form await from {coord} received {other:?}")
                        }
                        None if !self.running(coord) => {
                            // Coordinator died (or will never answer):
                            // failover round without it. The candidate set
                            // strictly shrinks, so this terminates.
                            let alive = self.ranks[r].buf[B_ALIVE];
                            self.ranks[r].buf[B_CAND] = alive & !(1u32 << coord);
                            self.ranks[r].buf[B_ALIVE] = 1 << r;
                            self.ranks[r].buf[B_CUR] = 0;
                            self.ranks[r].buf[B_PHASE] = P_PROBE;
                        }
                        None => return, // blocked: coordinator still running
                    }
                }
                _ => unreachable!("re-form rank {r} scheduled at phase {phase}"),
            }
            self.ranks[r].pc += 1;
            budget -= 1;
        }
    }

    /// Run rank `r` forward: complete up to `recv_budget` receives, then
    /// keep executing non-blocking sends until the next receive choice
    /// point or termination. With budget 0 this is the normalisation pass
    /// (flush initial sends).
    fn advance(&mut self, m: &Model, r: usize, mut recv_budget: u32) {
        if m.cfg.collective.is_reform() {
            return self.advance_reform(m.cfg, r, recv_budget);
        }
        while self.running(r) {
            match m.progs[r].get(self.ranks[r].pc as usize) {
                None => {
                    let outcome = finish_payload(m.cfg, r);
                    if let Some(out) = outcome {
                        self.ranks[r].out = out_merge(std::mem::take(&mut self.ranks[r].out), out);
                    }
                    self.finish(r, Ok(()));
                    return;
                }
                Some(&Step::Send { to, ref payload }) => {
                    if !self.running(to) {
                        // Peer's endpoint is gone: typed failure + abort.
                        self.fail(r, VErr::PeerGone { peer: to });
                        return;
                    }
                    let packet = send_payload(m.cfg, r, to, payload, &self.ranks[r]);
                    self.queues[to][r].push_back(packet);
                    self.ranks[r].pc += 1;
                }
                Some(&Step::Recv { from, ref payload }) => {
                    if recv_budget == 0 {
                        return; // choice point: wait to be scheduled
                    }
                    match self.queues[r][from].pop_front() {
                        Some(VPacket::Abort { origin }) => {
                            // Received abort: terminate, do NOT re-broadcast.
                            self.fail(r, VErr::Aborted { origin });
                            return;
                        }
                        Some(p) => {
                            let mut st = std::mem::replace(
                                &mut self.ranks[r],
                                RankState {
                                    pc: 0,
                                    buf: Vec::new(),
                                    out: Vec::new(),
                                    status: Status::Running,
                                },
                            );
                            handle_recv(payload, &mut st, from, p);
                            st.pc += 1;
                            self.ranks[r] = st;
                            recv_budget -= 1;
                        }
                        None => {
                            if self.running(from) {
                                return; // genuinely blocked
                            }
                            // Sender finished/crashed with nothing queued.
                            self.fail(r, VErr::PeerGone { peer: from });
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Is completing rank `r`'s pending receive possible right now?
    fn enabled(&self, m: &Model, r: usize) -> bool {
        if !self.running(r) {
            return false;
        }
        if m.cfg.collective.is_reform() {
            let st = &self.ranks[r];
            return match st.buf[B_PHASE] {
                // Sends and the victim's crash are always executable.
                P_PROBE | P_COMMIT | P_CRASH | P_DONE => true,
                P_GATHER => {
                    let p = next_member(st.buf[B_ALIVE], st.buf[B_CUR], r)
                        .expect("normalized gather has a target");
                    !self.queues[r][p].is_empty() || !self.running(p)
                }
                P_AWAIT => {
                    let c = st.buf[B_CUR] as usize;
                    !self.queues[r][c].is_empty() || !self.running(c)
                }
                phase => unreachable!("re-form rank {r} resting at phase {phase}"),
            };
        }
        match m.progs[r].get(self.ranks[r].pc as usize) {
            Some(&Step::Recv { from, .. }) => {
                !self.queues[r][from].is_empty() || !self.running(from)
            }
            // After normalisation a running rank always sits at a recv;
            // anything else would be a driver bug.
            other => unreachable!("running rank {r} scheduled at {other:?}"),
        }
    }
}

/// What a rank's own contribution to its gather output is (merged at
/// finish so the result matches the real collectives, which keep the
/// local part in place).
fn finish_payload(cfg: &CheckConfig, rank: usize) -> Option<Vec<(usize, Vec<u32>)>> {
    match cfg.collective {
        Collective::AllgatherTokens(_) | Collective::PreemptedRing { .. } => {
            Some(vec![(rank, gather_local(rank))])
        }
        Collective::Alltoallv(_) => Some(vec![(rank, alltoallv_part(rank, rank))]),
        Collective::Broadcast { root } if rank == root => {
            Some(vec![(0, broadcast_payload(cfg.world))])
        }
        _ => None,
    }
}

fn out_merge(mut out: Vec<Vec<u32>>, own: Vec<(usize, Vec<u32>)>) -> Vec<Vec<u32>> {
    for (i, v) in own {
        if out.len() <= i {
            out.resize(i + 1, Vec::new());
        }
        out[i] = v;
    }
    out
}

/// One rank's terminal result.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub enum RankOutcome {
    /// Completed: gather outputs (by source rank) and/or the final buffer
    /// (ring-allreduce, as f32 bit patterns).
    Ok {
        out: Vec<Vec<u32>>,
        buf: Vec<u32>,
    },
    Err(VErr),
}

fn outcome(w: &World) -> Vec<RankOutcome> {
    w.ranks
        .iter()
        .map(|st| match &st.status {
            Status::Done(Ok(())) => RankOutcome::Ok { out: st.out.clone(), buf: st.buf.clone() },
            Status::Done(Err(e)) => RankOutcome::Err(*e),
            Status::Running => unreachable!("outcome of a non-terminal world"),
        })
        .collect()
}

/// The result of exhaustively exploring one [`CheckConfig`].
#[derive(Clone, Debug)]
pub struct CheckReport {
    pub world: usize,
    pub collective: &'static str,
    pub crash: Option<usize>,
    /// Distinct states visited (after partial-order reduction).
    pub states: usize,
    /// Total schedules (paths through the state DAG), counted exactly.
    pub interleavings: u128,
    /// Reachable states with running ranks but no enabled step.
    pub deadlock_states: usize,
    /// Distinct terminal results (sorted).
    pub outcomes: Vec<Vec<RankOutcome>>,
}

impl CheckReport {
    /// No interleaving gets stuck: every schedule terminates.
    pub fn deadlock_free(&self) -> bool {
        self.deadlock_states == 0
    }

    /// Every interleaving produced the same bitwise result, with every
    /// rank succeeding.
    pub fn deterministic_success(&self) -> bool {
        self.deadlock_free()
            && self.outcomes.len() == 1
            && self.outcomes[0].iter().all(|o| matches!(o, RankOutcome::Ok { .. }))
    }

    /// The unique all-ranks-ok outcome, if there is one.
    pub fn unique_outcome(&self) -> Option<&[RankOutcome]> {
        if self.outcomes.len() == 1 {
            Some(&self.outcomes[0])
        } else {
            None
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} w={}{}: {} states, {} interleavings, {} deadlocks, {} distinct outcomes",
            self.collective,
            self.world,
            self.crash.map(|c| format!(" crash={c}")).unwrap_or_default(),
            self.states,
            self.interleavings,
            self.deadlock_states,
            self.outcomes.len()
        )
    }
}

struct Explorer<'a> {
    model: Model<'a>,
    /// state → number of schedules from it to any terminal.
    memo: HashMap<World, u128>,
    terminals: HashSet<Vec<RankOutcome>>,
    deadlocks: usize,
}

impl Explorer<'_> {
    fn paths(&mut self, w: World) -> u128 {
        if let Some(&p) = self.memo.get(&w) {
            return p;
        }
        let enabled: Vec<usize> =
            (0..w.ranks.len()).filter(|&r| w.enabled(&self.model, r)).collect();
        let p = if enabled.is_empty() {
            if w.ranks.iter().any(|st| st.status == Status::Running) {
                self.deadlocks += 1;
            } else {
                self.terminals.insert(outcome(&w));
            }
            1
        } else {
            let mut total: u128 = 0;
            for r in enabled {
                let mut next = w.clone();
                next.advance(&self.model, r, 1);
                total += self.paths(next);
            }
            total
        };
        self.memo.insert(w, p);
        p
    }
}

/// Exhaustively model-check one configuration.
pub fn check(cfg: &CheckConfig) -> CheckReport {
    assert!(cfg.world >= 1, "world must be positive");
    assert!(cfg.crash.is_none_or(|c| c < cfg.world), "crash rank out of range");
    if let Collective::ReformMidway { victim } = cfg.collective {
        assert!(victim < cfg.world, "midway victim out of range");
        assert!(cfg.crash.is_none(), "midway re-form models its own crash");
    }
    let model = Model { cfg, progs: (0..cfg.world).map(|rank| program(cfg, rank)).collect() };
    let mut init = World::new(cfg);
    for r in 0..cfg.world {
        if init.running(r) {
            init.advance(&model, r, 0);
        }
    }
    let mut ex = Explorer { model, memo: HashMap::new(), terminals: HashSet::new(), deadlocks: 0 };
    let interleavings = ex.paths(init);
    let mut outcomes: Vec<Vec<RankOutcome>> = ex.terminals.into_iter().collect();
    outcomes.sort();
    CheckReport {
        world: cfg.world,
        collective: cfg.collective.name(),
        crash: cfg.crash,
        states: ex.memo.len(),
        interleavings,
        deadlock_states: ex.deadlocks,
        outcomes,
    }
}

/// Fault-free convenience wrapper.
pub fn check_collective(world: usize, collective: Collective) -> CheckReport {
    check(&CheckConfig { world, collective, crash: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_is_deterministic_and_deadlock_free() {
        for world in 2..=4 {
            let r = check_collective(world, Collective::Barrier);
            assert!(r.deterministic_success(), "{}", r.summary());
            assert!(r.interleavings >= 1);
        }
    }

    #[test]
    fn all_collectives_worlds_2_to_4() {
        for world in 2..=4 {
            for c in Collective::all(world) {
                let r = check_collective(world, c);
                assert!(r.deterministic_success(), "{}", r.summary());
            }
        }
    }

    #[test]
    fn interleaving_counts_grow_with_world() {
        let gather = Collective::AllgatherTokens(Traversal::Posted);
        let w2 = check_collective(2, gather);
        let w4 = check_collective(4, gather);
        assert!(w4.interleavings > w2.interleavings, "{} vs {}", w4.summary(), w2.summary());
        // w=4 allgather: 12 addressed receives, 3 per rank, every order:
        // 12! / (3!)^4 schedules.
        assert_eq!(w4.interleavings, 369_600);
    }

    #[test]
    fn ring_allreduce_result_is_the_sum() {
        let elems = 5;
        let r = check_collective(3, Collective::ring(elems));
        let out = r.unique_outcome().expect("deterministic");
        for o in out {
            let RankOutcome::Ok { buf, .. } = o else { panic!("rank failed") };
            let vals: Vec<f32> = buf.iter().map(|&b| f32::from_bits(b)).collect();
            // Sum over ranks of (rank*100 + i).
            let expect: Vec<f32> =
                (0..elems).map(|i| (0..3).map(|r| (r * 100 + i) as f32).sum()).collect();
            assert_eq!(vals, expect);
        }
    }

    #[test]
    fn crashed_rank_aborts_terminate_in_every_ordering() {
        for world in 2..=4 {
            for c in Collective::all(world) {
                for crash in 0..world {
                    let r = check(&CheckConfig { world, collective: c, crash: Some(crash) });
                    assert!(
                        r.deadlock_free(),
                        "{}: {} deadlocked orderings",
                        r.summary(),
                        r.deadlock_states
                    );
                    // The victim reports the injection; no rank hangs.
                    for out in &r.outcomes {
                        assert_eq!(out[crash], RankOutcome::Err(VErr::Crashed));
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_collectives_deterministic_and_deadlock_free() {
        for world in 2..=4 {
            for c in Collective::chunked(world) {
                let r = check_collective(world, c);
                assert!(r.deterministic_success(), "{}", r.summary());
                assert!(r.interleavings >= 1);
            }
        }
    }

    #[test]
    fn chunked_ring_matches_unchunked_ring_bitwise() {
        // Splitting into segments — and even preempting mid-tensor with a
        // whole gather — must not change a single bit of the reduction.
        for world in 2..=3 {
            let elems = 2 * world + 1;
            let whole = check_collective(world, Collective::ring(elems));
            let whole_out = whole.unique_outcome().expect("deterministic");
            for c in [
                Collective::RingAllreduce { elems, seg: 2 },
                Collective::PreemptedRing { elems, seg: 2, preempt_at: world },
            ] {
                let r = check_collective(world, c);
                assert!(r.deterministic_success(), "{}", r.summary());
                let out = r.unique_outcome().expect("deterministic");
                for (rank, (got, want)) in out.iter().zip(whole_out).enumerate() {
                    let RankOutcome::Ok { buf: got_buf, .. } = got else { panic!("rank failed") };
                    let RankOutcome::Ok { buf: want_buf, .. } = want else { panic!("rank failed") };
                    assert_eq!(got_buf, want_buf, "{} rank {rank}", c.name());
                }
            }
        }
    }

    #[test]
    fn preempted_ring_gather_results_are_exact() {
        let world = 3;
        let r = check_collective(
            world,
            Collective::PreemptedRing { elems: 2 * world + 1, seg: 2, preempt_at: world },
        );
        let out = r.unique_outcome().expect("deterministic");
        for o in out {
            let RankOutcome::Ok { out, .. } = o else { panic!("rank failed") };
            for (src, v) in out.iter().enumerate() {
                assert_eq!(v, &gather_local(src), "preemptor gather from rank {src}");
            }
        }
    }

    #[test]
    fn chunked_crash_aborts_terminate_in_every_ordering() {
        for world in 2..=3 {
            for c in Collective::chunked(world) {
                for crash in 0..world {
                    let r = check(&CheckConfig { world, collective: c, crash: Some(crash) });
                    assert!(
                        r.deadlock_free(),
                        "{}: {} deadlocked orderings",
                        r.summary(),
                        r.deadlock_states
                    );
                    for out in &r.outcomes {
                        assert_eq!(out[crash], RankOutcome::Err(VErr::Crashed));
                    }
                }
            }
        }
    }

    fn rank_mask(ranks: impl Iterator<Item = usize>) -> u32 {
        ranks.map(|r| 1u32 << r).sum()
    }

    #[test]
    fn reform_fault_free_commits_full_membership() {
        for world in 1..=4 {
            let r = check_collective(world, Collective::Reform);
            assert!(r.deterministic_success(), "{}", r.summary());
            let full = rank_mask(0..world);
            for o in r.unique_outcome().expect("deterministic") {
                let RankOutcome::Ok { out, .. } = o else { panic!("rank failed: {o:?}") };
                assert_eq!(out[0], vec![full]);
            }
        }
    }

    #[test]
    fn reform_with_dead_rank_commits_exactly_the_survivors() {
        for world in 2..=4 {
            for crash in 0..world {
                let cfg = CheckConfig { world, collective: Collective::Reform, crash: Some(crash) };
                let r = check(&cfg);
                assert!(r.deadlock_free(), "{}", r.summary());
                // Membership is deterministic: a dead-from-the-start rank
                // fails every probe, so no interleaving can include it.
                assert_eq!(r.outcomes.len(), 1, "{}", r.summary());
                let survivors = rank_mask((0..world).filter(|&x| x != crash));
                for (rank, o) in r.outcomes[0].iter().enumerate() {
                    if rank == crash {
                        assert_eq!(*o, RankOutcome::Err(VErr::Crashed));
                    } else {
                        let RankOutcome::Ok { out, .. } = o else {
                            panic!("rank {rank} failed: {o:?}")
                        };
                        assert_eq!(out[0], vec![survivors], "rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn reform_midway_crash_terminates_with_agreed_membership() {
        for world in 2..=4 {
            for victim in 0..world {
                let c = Collective::ReformMidway { victim };
                let r = check(&CheckConfig { world, collective: c, crash: None });
                assert!(
                    r.deadlock_free(),
                    "{}: {} deadlocked orderings",
                    r.summary(),
                    r.deadlock_states
                );
                let survivors = rank_mask((0..world).filter(|&x| x != victim));
                for out in &r.outcomes {
                    assert_eq!(out[victim], RankOutcome::Err(VErr::Crashed));
                    // Within one interleaving every survivor commits the
                    // *same* membership (exactly one rank ever commits),
                    // containing all survivors and at most the victim
                    // (who may die after reporting; the stale member is
                    // shed on the group's next re-form).
                    let masks: Vec<u32> = out
                        .iter()
                        .enumerate()
                        .filter(|&(rank, _)| rank != victim)
                        .map(|(rank, o)| {
                            let RankOutcome::Ok { out, .. } = o else {
                                panic!("rank {rank} failed: {o:?}")
                            };
                            out[0][0]
                        })
                        .collect();
                    for &m in &masks {
                        assert_eq!(m, masks[0], "survivors disagree on membership");
                        assert_eq!(m & survivors, survivors, "a survivor was evicted");
                        assert_eq!(m & !(survivors | (1 << victim)), 0, "ghost member");
                    }
                    // A victim that would have coordinated (rank 0) can
                    // never be committed: its successor only commits after
                    // observing its death.
                    if victim == 0 {
                        assert_eq!(masks[0], survivors);
                    }
                }
            }
        }
    }

    #[test]
    fn reform_midway_victim_inclusion_depends_on_timing() {
        // A non-coordinator victim reports before dying, so interleavings
        // where the coordinator probes it in time commit it (to be shed on
        // the next re-form), and interleavings where the probe finds it
        // dead do not: both memberships must be reachable.
        let r = check(&CheckConfig {
            world: 3,
            collective: Collective::ReformMidway { victim: 2 },
            crash: None,
        });
        assert!(r.deadlock_free(), "{}", r.summary());
        let masks: std::collections::BTreeSet<u32> = r
            .outcomes
            .iter()
            .map(|out| {
                let RankOutcome::Ok { out, .. } = &out[0] else { panic!("rank 0 failed") };
                out[0][0]
            })
            .collect();
        assert_eq!(masks, [0b011u32, 0b111u32].into_iter().collect(), "{}", r.summary());
    }

    #[test]
    fn single_rank_world_trivially_terminates() {
        for c in
            Collective::all(1).into_iter().chain(Collective::chunked(1)).chain([Collective::Reform])
        {
            let r = check_collective(1, c);
            assert!(r.deterministic_success(), "{}", r.summary());
            assert_eq!(r.interleavings, 1);
        }
    }
}

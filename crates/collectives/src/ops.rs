//! The collective algorithms themselves.
//!
//! All functions are SPMD: every rank of a group calls the same function
//! with its own transport handle and the call returns the rank's share of
//! the result. Every algorithm is generic over [`Comm`] — the production
//! mesh [`crate::transport::Endpoint`] on the fast path, or the recording
//! and virtual endpoints `embrace-analyzer` uses to extract communication
//! plans and model-check interleavings. Sends are non-blocking (unbounded
//! channels), so no algorithm here can deadlock regardless of send/recv
//! interleaving.
//!
//! Who sends what to whom in which order is not decided here: barrier,
//! broadcast, the ring and the fan-outs execute [`crate::schedule`]. The
//! ring is a resumable machine (`RingMachine`) that the scheduler steps one
//! unit at a time and the blocking functions run to completion; a fan-out
//! is one posted exchange (`posted`), which both run whole. Each message
//! either sends carries the sender's SPMD fingerprint as a header
//! (`fingerprint`).
//!
//! # Failure semantics
//!
//! Every collective comes in two flavours:
//!
//! * the plain form (`barrier`, `ring_allreduce`, …) treats communication
//!   failure as fatal and panics — the right default for the fault-free
//!   in-process mesh, and byte-for-byte identical to the original
//!   implementation on the happy path;
//! * the `try_` form returns `Result<_, CommError>`. When a rank detects a
//!   failure locally (peer gone, deadline expired, its own injected
//!   crash), it best-effort broadcasts [`Packet::Abort`] to every peer
//!   before returning `Err`, so survivors blocked on it observe
//!   [`CommError::Aborted`] on their next receive instead of hanging.
//!   A rank that *receives* an abort does not re-broadcast (the origin
//!   already notified everyone), which bounds abort traffic at one
//!   message per link.
//!
//! After any `try_` collective returns `Err`, the mesh must be considered
//! poisoned for that group — in-flight packets from the failed round may
//! still be queued — matching NCCL's "abort the communicator and rebuild"
//! contract. On `Err` from [`try_ring_allreduce`] the contents of `buf`
//! are unspecified (partially reduced).
//!
//! Survivor liveness is only guaranteed when endpoints have a receive
//! deadline (see [`crate::transport::mesh_with_faults`]): a silent-drop
//! fault produces no disconnection edge, so a blocking receive would wait
//! forever where a deadline turns it into [`CommError::Timeout`].

use crate::schedule::{self, Ring, RingPart};
use crate::transport::{Comm, CommError, Packet, Region, UnitBody};
use embrace_obs::recorder;
use embrace_tensor::{
    coalesce, kernels, merge_rowsparse, DenseTensor, RowSparse, TokenBuf, Unsummed,
};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Best-effort abort broadcast, then pass the error through. Locally
/// detected failures notify every peer; received aborts are not
/// re-broadcast (the origin already told everyone).
pub(crate) fn fail<T, C: Comm>(ep: &mut C, err: CommError) -> Result<T, CommError> {
    if !matches!(err, CommError::Aborted { .. }) {
        let origin = ep.rank();
        for dst in 0..ep.world() {
            if dst != origin {
                let _ = ep.try_send(dst, Packet::Abort { origin });
            }
        }
    }
    Err(err)
}

/// The SPMD fingerprint a machine stamps on every message it sends and
/// checks on every one it receives: a fixed-key hash of the segment size
/// and `(tag, priority, kind, units run)` of every op on the sender's
/// execution stack. Links are FIFO and ranks pick units by one rule, so a
/// divergent enqueue, or a preemption at another unit boundary, arrives as
/// a mismatched header.
pub(crate) fn fingerprint<'a>(
    seg_bytes: usize,
    stack: impl IntoIterator<Item = (&'a str, i64, &'a str, u32)>,
) -> u64 {
    let mut hasher = DefaultHasher::new();
    seg_bytes.hash(&mut hasher);
    stack.into_iter().for_each(|op| op.hash(&mut hasher));
    hasher.finish()
}

/// The fingerprint a blocking `try_*` form stamps: a one-op stack of its
/// own kind.
pub(crate) fn solo(name: &str) -> u64 {
    fingerprint(0, [(name, 0, name, 0)])
}

/// Receive one unit message from `from`; a header other than `fp` is
/// [`CommError::Protocol`], checked before the block is touched.
fn recv_unit<C: Comm, P: Block>(ep: &mut C, from: usize, fp: u64) -> Result<P, CommError> {
    match ep.try_recv(from)? {
        Packet::Unit { fp: theirs, body } if theirs == fp => P::try_from_body(body),
        Packet::Unit { .. } => Err(CommError::Protocol {
            expected: "identical (tag, priority, kind, units run) stacks on every rank",
            got: "divergent SPMD fingerprint",
        }),
        Packet::Abort { origin } => Err(CommError::Aborted { origin }),
        other => Err(CommError::Protocol { expected: "Unit", got: other.kind() }),
    }
}

/// Unwrap the result of an infallible-wrapper collective: panic with the
/// typed [`CommError`] rendered, instead of an opaque `.expect` debug dump.
fn finish<T>(result: Result<T, CommError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("collective failed: {e}"),
    }
}

/// Synchronise all ranks: no rank returns before every rank has entered.
pub fn barrier<C: Comm>(ep: &mut C) {
    finish(try_barrier(ep));
}

/// Fallible [`barrier`]: the dissemination barrier of
/// [`schedule::barrier_rounds`]. The critical path is O(log N) rounds,
/// versus the O(N) serial gather-then-release through rank 0 it replaces,
/// and no rank is a hotspot. A failure on any rank aborts the whole group.
pub fn try_barrier<C: Comm>(ep: &mut C) -> Result<(), CommError> {
    let _span = recorder::span("barrier", "collective");
    for (to, from) in schedule::barrier_rounds(ep.world(), ep.rank()) {
        let round = ep
            .try_send(to, Packet::Empty)
            .and_then(|()| ep.try_recv(from))
            .and_then(Packet::try_into_empty);
        if let Err(e) = round {
            return fail(ep, e);
        }
    }
    Ok(())
}

/// Broadcast `packet` from `root` to every rank; returns the packet on all.
pub fn broadcast<C: Comm>(ep: &mut C, root: usize, packet: Option<Packet>) -> Packet {
    finish(try_broadcast(ep, root, packet))
}

/// Fallible [`broadcast`]. A non-root failure does not disturb the root
/// (it performs no receives); it surfaces on the failed rank and, via the
/// abort notification, on any rank still blocked in a later collective.
pub fn try_broadcast<C: Comm>(
    ep: &mut C,
    root: usize,
    packet: Option<Packet>,
) -> Result<Packet, CommError> {
    let _span = recorder::span("broadcast", "collective");
    if ep.rank() == root {
        let p = packet.expect("root must supply the payload");
        for dst in schedule::broadcast_fan(ep.world(), root) {
            if let Err(e) = ep.try_send(dst, p.clone()) {
                return fail(ep, e);
            }
        }
        Ok(p)
    } else {
        assert!(packet.is_none(), "non-root ranks must not supply a payload");
        match ep.try_recv(root) {
            Ok(Packet::Abort { origin }) => fail(ep, CommError::Aborted { origin }),
            Ok(p) => Ok(p),
            Err(e) => fail(ep, e),
        }
    }
}

/// What a ring runs over: a buffer lent to it, or one it shares.
pub(crate) enum RingBuf<'a> {
    /// The caller's buffer, which is where the result lands. The first step a
    /// machine runs stages its sends, and every reduce writes the sum into
    /// the buffer and into the packet it forwards
    /// ([`kernels::add_assign_both`]); an all-gather copies what it
    /// receives in.
    Lent(&'a mut [f32]),
    /// A reduce-scatter's gradient, which the ring shares and never writes.
    /// The first step sends O(1) views of it, and every reduce but the last
    /// step's writes `own + incoming` once, into the segment sent next
    /// ([`kernels::add_to`]). The last step's reduces are left to the
    /// owner's update: each owned segment ends one add short
    /// ([`RingMachine::take_segments`]).
    Shared(&'a DenseTensor),
}

/// One segment of this rank's [`Ring::owned`] chunk as a shared
/// reduce-scatter leaves it: one add short of its sum. The owner's update
/// takes that add in its own element loop ([`OwnedSegment::unsummed`]) and
/// writes the segment's new values where the all-gather sends them from
/// ([`crate::CommOp::AllGatherDense`]), so the sum is never written on its
/// own.
#[derive(Debug)]
pub struct OwnedSegment {
    /// This rank's gradient over the segment: a view of the shared buffer.
    own: DenseTensor,
    rest: Rest,
}

/// The rest of an [`OwnedSegment`]'s sum, and where its update writes.
#[derive(Debug)]
enum Rest {
    /// The last step's packet, when the update cannot write it — a view of
    /// the peer's gradient, as at world 2, where the last step is the
    /// first — or no packet, in a world of one. The update writes `out`,
    /// a segment buffer of the ring's: the one the sum would have taken.
    Apart { partial: Option<DenseTensor>, out: DenseTensor },
    /// The last step's packet when it is the peer's sum, a buffer this
    /// rank now owns outright: the update writes over it.
    Over { acc: DenseTensor },
}

impl OwnedSegment {
    /// The segment's addends and where its update writes, for the owner's
    /// element loop ([`Unsummed::update`]).
    pub fn unsummed(&mut self) -> Unsummed<'_> {
        let own = self.own.as_slice();
        match &mut self.rest {
            Rest::Apart { partial, out } => {
                let partial = partial.as_ref().map(DenseTensor::as_slice);
                Unsummed::Apart { own, partial, out: out.as_mut_slice() }
            }
            Rest::Over { acc } => Unsummed::Over { own, acc: acc.as_mut_slice() },
        }
    }

    /// What the update wrote: the all-gather's packet.
    fn into_packet(self) -> DenseTensor {
        match self.rest {
            Rest::Apart { out, .. } => out,
            Rest::Over { acc } => acc,
        }
    }
}

/// A ring allreduce, or one of its phases, in flight, executed one
/// [`schedule::RingUnit`] at a time over the units [`Ring::part`] names.
/// Errors come back raw; the caller owns the abort broadcast.
///
/// # Receive-reduce-forward
///
/// The segment a unit receives is exactly the segment the same unit of
/// the next step sends (see [`Ring`]), so what a unit makes of the
/// received tensor — the reduce's output during reduce-scatter, the tensor
/// itself during all-gather — *is* that unit's outgoing packet, held until
/// the unit comes round again. Only the first step a machine runs sends
/// from its buffer ([`RingBuf`]): step 0, or for an all-gather on its own
/// step N−1, whose packets are what the owner's update wrote
/// ([`RingMachine::hold`]) or, in a lent buffer, staged from it. Every
/// other step touches each element once. A shared reduce-scatter's last
/// step does not reduce at all: what it receives is one add short of the
/// owned chunk's sum, and the owner's update, which reads every element
/// of that chunk anyway, takes the add ([`OwnedSegment`]); so the sum is
/// never written and read back.
///
/// # Allocation discipline
///
/// Segment buffers circulate. A lent ring's first step stages each send
/// into a buffer of its own; a shared one sends views, and each of its
/// reduces takes a buffer for its output and gives back the peer's sums
/// it consumed (not the first step's views, which are the peer's
/// gradient). A received buffer, whose sole owner we now are, is held
/// until its unit comes round again and goes back out, and a machine ends
/// owning what it holds ([`RingMachine::into_spare`]) less what
/// [`RingMachine::take_segments`] hands out. So a lent ring needs
/// [`Ring::per_step`] buffers however many steps it runs (one for the
/// whole-op ring). A shared reduce-scatter's last step takes none. Before
/// it, its first step's sums take as many and its second step's one more
/// (the rest reuse the sums consumed), so it needs `per_step` at world 3
/// and `per_step + 1` from world 4. Its result takes one per segment only
/// where the update cannot write over the partial (world 2, or a world of
/// one, which has none). An all-gather given its packets needs none, and
/// in a world of one keeps them as spares. A caller running rings back to
/// back passes each machine's spare buffers to the next, which then
/// allocates nothing (fresh memory is page-faulted memory: +52 µs per
/// 256 KiB segment measured). Asserted by the `*_steady_state` tests via
/// [`embrace_tensor::alloc_counter`].
pub(crate) struct RingMachine {
    ring: Ring,
    part: RingPart,
    unit: usize,
    /// One past the last unit of the first step this machine runs.
    first_step_end: usize,
    /// One past the last unit to run.
    end: usize,
    /// `held[i]`: the packet segment `i` of the next step sends — after a
    /// shared reduce-scatter's last step, the partial it received.
    held: Vec<Option<DenseTensor>>,
    /// Segment buffers to stage or reduce into, used before allocating.
    spare: Vec<DenseTensor>,
}

impl RingMachine {
    pub(crate) fn new(ring: Ring, part: RingPart, spare: Vec<DenseTensor>) -> Self {
        let held = (0..ring.per_step()).map(|_| None).collect();
        let units = ring.part(part);
        let first_step_end = units.start + ring.per_step();
        RingMachine { ring, part, unit: units.start, first_step_end, end: units.end, held, spare }
    }

    /// Give an all-gather the packets of its first step: this rank's
    /// [`Ring::owned`] chunk cut as [`Ring::owned_segments`], each what the
    /// owner's update wrote into a segment [`RingMachine::take_segments`]
    /// returned. They go out as they are; a world of one, which runs no
    /// unit, keeps them as spares. Panics on segments cut otherwise.
    pub(crate) fn hold(&mut self, segments: Vec<OwnedSegment>) {
        let cut = self.ring.owned_segments().map(|range| range.len());
        let fits = segments.iter().map(|segment| segment.own.len()).eq(cut);
        assert!(fits, "all-gather packets must be cut as the owned chunk's segments");
        let done = self.done();
        for (slot, segment) in self.held.iter_mut().zip(segments) {
            let packet = segment.into_packet();
            if done {
                self.spare.push(packet);
            } else {
                *slot = Some(packet);
            }
        }
    }

    /// A finished reduce-scatter's result over the shared gradient `grad`:
    /// its [`Ring::owned`] chunk one add short of the sum, one
    /// [`OwnedSegment`] per segment of [`Ring::owned_segments`]. A world of
    /// one runs no unit: its segments are `grad` alone, each with a spare
    /// buffer for the update to write.
    pub(crate) fn take_segments(&mut self, grad: &DenseTensor) -> Vec<OwnedSegment> {
        // The last step's packets are the peer's sums, ours to write over,
        // unless that step was the first (world 2): views of its gradient.
        let ours = self.first_step_end < self.end;
        let mut segments = Vec::with_capacity(self.held.len());
        for (range, held) in self.ring.owned_segments().zip(&mut self.held) {
            let rest = match held.take() {
                Some(acc) if ours => Rest::Over { acc },
                partial => {
                    let seg = self.ring.seg();
                    let mut out = self.spare.pop().unwrap_or_else(|| DenseTensor::zeros(1, seg));
                    out.overwrite_row(range.len());
                    Rest::Apart { partial, out }
                }
            };
            segments.push(OwnedSegment { own: grad.view(range), rest });
        }
        segments
    }

    /// Every buffer this machine still owns, for the next ring to use.
    pub(crate) fn into_spare(self) -> Vec<DenseTensor> {
        self.held.into_iter().flatten().chain(self.spare).collect()
    }

    pub(crate) fn done(&self) -> bool {
        self.unit == self.end
    }

    pub(crate) fn part(&self) -> RingPart {
        self.part
    }

    /// A spare segment buffer, or a fresh one sized for the largest segment.
    fn buffer(&mut self) -> DenseTensor {
        self.spare.pop().unwrap_or_else(|| DenseTensor::zeros(1, self.ring.seg()))
    }

    /// Run the next unit, its messages stamped `fp`.
    pub(crate) fn step<C: Comm>(
        &mut self,
        ep: &mut C,
        buf: &mut RingBuf<'_>,
        fp: u64,
    ) -> Result<(), CommError> {
        let unit = self.ring.unit(self.unit);
        let slot = self.unit % self.ring.per_step();
        if let Some(send) = unit.send {
            let outgoing = match (self.held[slot].take(), &*buf) {
                (Some(held), _) => held,
                (None, RingBuf::Shared(grad)) => grad.view(send),
                (None, RingBuf::Lent(buf)) => {
                    let mut staged = self.buffer();
                    staged.overwrite_row(send.len()).copy_from_slice(&buf[send]);
                    staged
                }
            };
            ep.try_send(self.ring.next(), Packet::Unit { fp, body: UnitBody::Dense(outgoing) })?;
        }
        if let Some(recv) = unit.recv {
            let mut incoming: DenseTensor = recv_unit(ep, self.ring.prev(), fp)?;
            // A peer whose buffer has another length cuts other segments.
            if incoming.len() != recv.len() {
                let (expected, got) = ("ring segment of the unit's length", "another length");
                return Err(CommError::Protocol { expected, got });
            }
            let outgoing = match buf {
                RingBuf::Lent(buf) if unit.reduce => {
                    kernels::add_assign_both(&mut buf[recv], incoming.as_mut_slice());
                    incoming
                }
                RingBuf::Lent(buf) => {
                    buf[recv].copy_from_slice(incoming.as_slice());
                    incoming
                }
                RingBuf::Shared(grad) => {
                    assert!(unit.reduce, "an all-gather writes its buffer: it is lent");
                    if self.unit + self.ring.per_step() >= self.end {
                        // The last step: the owner's update takes the add.
                        incoming
                    } else {
                        let mut sum = self.buffer();
                        let own = &grad.as_slice()[recv.clone()];
                        kernels::add_to(sum.overwrite_row(recv.len()), own, incoming.as_slice());
                        // The first step's packets are views of the peer's
                        // gradient; later ones are its sums, ours to reuse.
                        if self.unit >= self.first_step_end {
                            self.spare.push(incoming);
                        }
                        sum
                    }
                }
            };
            self.held[slot] = Some(outgoing);
        }
        self.unit += 1;
        Ok(())
    }

    /// Run every unit left, all stamped `fp`.
    pub(crate) fn run<C: Comm>(
        &mut self,
        ep: &mut C,
        buf: &mut RingBuf<'_>,
        fp: u64,
    ) -> Result<(), CommError> {
        while !self.done() {
            self.step(ep, buf, fp)?;
        }
        Ok(())
    }
}

/// Bandwidth-optimal ring AllReduce (sum) in place: after the call every
/// rank's `buf` holds the element-wise sum over all ranks.
///
/// Implements the classic two-phase algorithm (Patarasuk & Yuan 2009) the
/// paper's Table 2 analyses: N−1 reduce-scatter steps then N−1 all-gather
/// steps, each moving one of N near-equal chunks around the ring.
pub fn ring_allreduce<C: Comm>(ep: &mut C, buf: &mut [f32]) {
    finish(try_ring_allreduce(ep, buf));
}

/// Fallible [`ring_allreduce`]: a `RingMachine` with one segment per
/// step, run to completion. On `Err` the contents of `buf` are
/// unspecified (the reduction was interrupted part-way).
pub fn try_ring_allreduce<C: Comm>(ep: &mut C, buf: &mut [f32]) -> Result<(), CommError> {
    try_ring_part(ep, buf, RingPart::AllReduce)
}

/// The `collective` span name of a ring op: its function here.
pub(crate) fn ring_name(part: RingPart) -> &'static str {
    match part {
        RingPart::AllReduce => "ring_allreduce",
        RingPart::ReduceScatter => "ring_reduce_scatter",
        RingPart::AllGather => "ring_allgather",
    }
}

/// `part` of the ring in place, one segment per step; the allreduce is
/// [`try_ring_allreduce`]. After [`RingPart::ReduceScatter`] this rank's
/// [`Ring::owned`] range of `buf` holds the element-wise sum over all
/// ranks, bitwise what the allreduce leaves there, and the rest is
/// partially reduced; after [`RingPart::AllGather`] every rank's `buf`
/// holds, in each rank's [`Ring::owned`] range, that rank's values. On
/// `Err` the contents of `buf` are unspecified.
pub fn try_ring_part<C: Comm>(
    ep: &mut C,
    buf: &mut [f32],
    part: RingPart,
) -> Result<(), CommError> {
    let _span = recorder::span(ring_name(part), "collective");
    let ring = Ring::whole(ep.world(), ep.rank(), buf.len());
    let mut machine = RingMachine::new(ring, part, Vec::new());
    machine.run(ep, &mut RingBuf::Lent(buf), solo(ring_name(part))).or_else(|e| fail(ep, e))
}

/// A block the machines move: the wire types share one exchange body.
pub(crate) trait Block: Sized {
    fn into_body(self) -> UnitBody;
    fn try_from_body(body: UnitBody) -> Result<Self, CommError>;
}

/// [`Block`] for each type `UnitBody::$variant` carries.
macro_rules! block {
    ($($ty:ty => $variant:ident),*) => {$(
        impl Block for $ty {
            fn into_body(self) -> UnitBody {
                UnitBody::$variant(self)
            }
            fn try_from_body(body: UnitBody) -> Result<Self, CommError> {
                match body {
                    UnitBody::$variant(block) => Ok(block),
                    _ => Err(CommError::Protocol {
                        expected: stringify!($variant),
                        got: "another block",
                    }),
                }
            }
        }
    )*};
}
block!(DenseTensor => Dense, RowSparse => Sparse, TokenBuf => Tokens, Region => Region);

/// Run a whole fan-out under its span, broadcasting an abort on failure.
fn fanout<C: Comm, P: Block>(ep: &mut C, name: &str, parts: Vec<P>) -> Result<Vec<P>, CommError> {
    let _span = recorder::span(name, "collective");
    posted(ep, parts, solo(name)).or_else(|e| fail(ep, e))
}

/// A whole fan-out exchange, its messages stamped `fp`: `parts[j]` goes to
/// rank `j`, every send posted in [`schedule::fanout_peers`] order, then
/// every receive drained in [`schedule::fanout_sources`] order into the
/// slot it emptied. The result is indexed by source rank (own block kept in
/// place, never sent). Errors come back raw; the caller owns the abort
/// broadcast.
pub(crate) fn posted<C: Comm, P: Block>(
    ep: &mut C,
    parts: Vec<P>,
    fp: u64,
) -> Result<Vec<P>, CommError> {
    let (world, rank) = (ep.world(), ep.rank());
    assert_eq!(parts.len(), world, "need one outgoing block per rank");
    let mut blocks: Vec<Option<P>> = parts.into_iter().map(Some).collect();
    for to in schedule::fanout_peers(world, rank) {
        let block = blocks[to].take().expect("each peer is sent to once");
        ep.try_send(to, Packet::Unit { fp, body: block.into_body() })?;
    }
    for from in schedule::fanout_sources(world, rank) {
        blocks[from] = Some(recv_unit(ep, from, fp)?);
    }
    Ok(blocks.into_iter().map(|b| b.expect("every source delivered its block")).collect())
}

/// AllGather of per-rank dense tensors; returns all ranks' tensors in rank
/// order (own tensor included).
pub fn allgather_dense<C: Comm>(ep: &mut C, local: DenseTensor) -> Vec<DenseTensor> {
    // An alltoall whose blocks all share one buffer: O(1) `Arc` bumps,
    // zero payload bytes copied.
    finish(fanout(ep, "allgather_dense", (0..ep.world()).map(|_| local.share()).collect()))
}

/// AllGather of row-sparse gradients — Horovod's sparse aggregation path
/// (§2.2): every rank receives every other rank's COO tensor. The returned
/// concatenation is *uncoalesced*; summing duplicates is the caller's job,
/// exactly as in `horovod.torch.allreduce_` for sparse inputs.
pub fn allgather_sparse<C: Comm>(ep: &mut C, local: RowSparse) -> Vec<RowSparse> {
    finish(fanout(ep, "allgather_sparse", (0..ep.world()).map(|_| local.share()).collect()))
}

/// AllGather of token-id batches; feeds `D_cur` in Algorithm 1 (every rank
/// learns which tokens every other rank's batch contains).
pub fn allgather_tokens<C: Comm>(ep: &mut C, local: Vec<u32>) -> Vec<TokenBuf> {
    finish(try_allgather_tokens(ep, local))
}

/// Fallible [`allgather_tokens`].
pub fn try_allgather_tokens<C: Comm>(
    ep: &mut C,
    local: Vec<u32>,
) -> Result<Vec<TokenBuf>, CommError> {
    let local = TokenBuf::from(local);
    fanout(ep, "allgather_tokens", (0..ep.world()).map(|_| local.share()).collect())
}

/// AllGather of registered regions: every rank receives every rank's
/// [`Region`] handle, in rank order (own included). Only handles move;
/// this is how a group registers its shards for one-sided reads.
pub fn try_allgather_regions<C: Comm>(ep: &mut C, local: Region) -> Result<Vec<Region>, CommError> {
    fanout(ep, "allgather_regions", (0..ep.world()).map(|_| local.clone()).collect())
}

/// AlltoAllv of token batches: `parts[j]` goes to rank `j`; returns the
/// batches received, indexed by source rank (own batch kept in place,
/// zero-copy via the `TokenBuf` handle).
pub fn alltoallv_tokens<C: Comm>(ep: &mut C, parts: Vec<TokenBuf>) -> Vec<TokenBuf> {
    finish(fanout(ep, "alltoallv_tokens", parts))
}

/// AlltoAll of dense blocks: `parts[j]` goes to rank `j`; returns the
/// blocks received, indexed by source rank (own block kept in place).
/// This is AlltoAll #1 of §4.1.1 — redistributing embedding lookup results.
pub fn alltoall_dense<C: Comm>(ep: &mut C, parts: Vec<DenseTensor>) -> Vec<DenseTensor> {
    finish(fanout(ep, "alltoall_dense", parts))
}

/// AlltoAllv of row-sparse blocks: `parts[j]` goes to rank `j`. This is
/// AlltoAll #2 of §4.1.1 — exchanging column-sharded embedding gradients.
pub fn alltoallv_sparse<C: Comm>(ep: &mut C, parts: Vec<RowSparse>) -> Vec<RowSparse> {
    finish(try_alltoallv_sparse(ep, parts))
}

/// Fallible [`alltoallv_sparse`].
pub fn try_alltoallv_sparse<C: Comm>(
    ep: &mut C,
    parts: Vec<RowSparse>,
) -> Result<Vec<RowSparse>, CommError> {
    fanout(ep, "alltoallv_sparse", parts)
}

/// Configuration of [`sparse_allreduce`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsarConfig {
    /// Vocabulary rows of the table the gradient indices address.
    pub vocab: usize,
    /// Density threshold of the result's representation: the sum comes
    /// back dense once its row density (`nnz / vocab`,
    /// [`RowSparse::density`]) reaches this value. `0.0` makes every
    /// non-empty vocabulary's result dense; any value above `1.0` keeps
    /// every result sparse.
    pub crossover: f64,
}

/// Result of [`sparse_allreduce`]: the index–value sum below the
/// crossover density, the dense `vocab × dim` sum at or above it.
#[derive(Clone, Debug, PartialEq)]
pub enum SparseReduced {
    /// Coalesced sum: indices are the union of all ranks' row sets.
    Sparse(RowSparse),
    /// Densified sum over the full vocabulary.
    Dense(DenseTensor),
}

impl SparseReduced {
    /// Materialise as the dense `vocab × dim` sum whichever representation
    /// was produced (O(1) when already dense).
    pub fn to_dense(&self, vocab: usize) -> DenseTensor {
        match self {
            SparseReduced::Sparse(s) => s.to_dense(vocab),
            SparseReduced::Dense(d) => d.share(),
        }
    }

    /// True when the crossover fired and the result is densified.
    pub fn is_dense(&self) -> bool {
        matches!(self, SparseReduced::Dense(_))
    }
}

/// Allreduce of row-sparse gradients: every rank gets the sum. Panics on
/// communication failure.
pub fn sparse_allreduce<C: Comm>(ep: &mut C, grad: &RowSparse, cfg: &SsarConfig) -> SparseReduced {
    finish(try_sparse_allreduce(ep, grad, cfg))
}

/// Fallible [`sparse_allreduce`]: coalesce the local gradient, gather
/// every rank's block in one posted fan-out, and merge the blocks in rank
/// order ([`merge_rowsparse`]). The blocks are `Arc`-shared: zero payload
/// bytes copied. The header folds in `cfg.vocab` and the row width, so a
/// peer that disagrees on either is [`CommError::Protocol`] before its
/// block is touched.
///
/// # Determinism
///
/// Every rank merges the same blocks in the same order, so the sum is
/// bitwise identical on every rank and across runs and interleavings. It
/// equals [`sparse_allreduce_oracle`] in either representation, provided
/// no input value is `-0.0` (the dense fold and the densified result
/// materialise absent rows as `+0.0`).
pub fn try_sparse_allreduce<C: Comm>(
    ep: &mut C,
    grad: &RowSparse,
    cfg: &SsarConfig,
) -> Result<SparseReduced, CommError> {
    const NAME: &str = "sparse_allreduce";
    let _span = recorder::span(NAME, "collective");
    let local = coalesce(grad);
    if let Some(&max) = local.indices().last() {
        assert!((max as usize) < cfg.vocab, "gradient row {max} out of vocab {}", cfg.vocab);
    }
    let mut header = DefaultHasher::new();
    (solo(NAME), cfg.vocab, local.dim()).hash(&mut header);
    let parts = (0..ep.world()).map(|_| local.share()).collect();
    let gathered = posted(ep, parts, header.finish()).or_else(|e| fail(ep, e))?;
    let sum = merge_rowsparse(&gathered);
    if cfg.vocab > 0 && sum.density(cfg.vocab) >= cfg.crossover {
        Ok(SparseReduced::Dense(sum.to_dense(cfg.vocab)))
    } else {
        Ok(SparseReduced::Sparse(sum))
    }
}

/// Reference semantics of [`sparse_allreduce`]: the dense `vocab × dim`
/// sum every rank must hold afterwards, bitwise — each rank's coalesced
/// gradient densified and folded in rank order.
pub fn sparse_allreduce_oracle(locals: &[RowSparse], vocab: usize) -> DenseTensor {
    let (first, rest) = locals.split_first().expect("oracle needs at least one rank");
    let mut acc = coalesce(first).to_dense(vocab);
    for local in rest {
        acc.add_assign(&coalesce(local).to_dense(vocab));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_group;
    use crate::transport::UNIT_HEADER_BYTES;

    #[test]
    fn barrier_completes_all_world_sizes() {
        for world in [1, 2, 3, 5, 8] {
            run_group(world, |_r, ep| barrier(ep));
        }
    }

    #[test]
    fn collectives_record_spans_when_observed() {
        let structures = run_group(3, |rank, ep| {
            recorder::install(&format!("rank{rank}"));
            let mut buf = vec![rank as f32; 8];
            ring_allreduce(ep, &mut buf);
            let _ = allgather_tokens(ep, vec![rank as u32]);
            let set = recorder::take().expect("recorder installed");
            set.check_well_nested().expect("spans closed");
            // Strip the per-rank track name: op sequence must be SPMD.
            set.structure()
                .into_iter()
                .map(|s| s.split_once('|').map(|(_, rest)| rest.to_string()).unwrap_or(s))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            structures[0],
            vec![
                "d0|collective|ring_allreduce".to_string(),
                "d0|collective|allgather_tokens".to_string()
            ]
        );
        assert!(structures.iter().all(|s| s == &structures[0]));
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let out = run_group(4, |rank, ep| {
            let payload = (rank == 2).then(|| Packet::Tokens(vec![42].into()));
            broadcast(ep, 2, payload)
        });
        assert!(out.iter().all(|p| p == &Packet::Tokens(vec![42].into())));
    }

    #[test]
    fn ring_allreduce_sums_across_ranks() {
        for world in [2, 3, 4, 7] {
            let len = 23;
            let out = run_group(world, move |rank, ep| {
                let mut buf: Vec<f32> = (0..len).map(|i| (rank * 100 + i) as f32).collect();
                ring_allreduce(ep, &mut buf);
                buf
            });
            let expect: Vec<f32> =
                (0..len).map(|i| (0..world).map(|r| (r * 100 + i) as f32).sum()).collect();
            for buf in out {
                assert_eq!(buf, expect, "world={world}");
            }
        }
    }

    #[test]
    fn ring_allreduce_short_buffer() {
        // Fewer elements than ranks: some chunks are empty.
        let out = run_group(5, |rank, ep| {
            let mut buf = vec![rank as f32, 1.0];
            ring_allreduce(ep, &mut buf);
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![10.0, 5.0]);
        }
    }

    /// Drive a [`RingMachine`] running `part` over `seg`-element units to
    /// completion, staging into `spare` first and leaving its buffers there
    /// after.
    fn stepped_ring(
        ep: &mut crate::Endpoint,
        buf: &mut [f32],
        part: RingPart,
        seg: usize,
        spare: &mut Vec<DenseTensor>,
    ) {
        let ring = Ring::new(ep.world(), ep.rank(), buf.len(), seg);
        let mut m = RingMachine::new(ring, part, std::mem::take(spare));
        m.run(ep, &mut RingBuf::Lent(buf), 0).expect("fault-free mesh");
        *spare = m.into_spare();
    }

    /// Run `part` of the ring on `buf`: whole (`seg` `None`) through its
    /// blocking function, else stepped in `seg`-element units.
    fn run_part(
        ep: &mut crate::Endpoint,
        buf: &mut [f32],
        part: RingPart,
        seg: Option<usize>,
        spare: &mut Vec<DenseTensor>,
    ) {
        match seg {
            Some(seg) => stepped_ring(ep, buf, part, seg, spare),
            None => try_ring_part(ep, buf, part).expect("fault-free mesh"),
        }
    }

    /// The sharded update's pair as the comm scheduler runs it: a
    /// reduce-scatter sharing a copy of `buf`, `f` in the owner's loop over
    /// its unsummed segments — each new value into `buf`'s owned range and
    /// where the segment writes — and an all-gather lent `buf` that sends
    /// what the segments wrote; whole (`seg` `None`) or in `seg`-element
    /// units, with `spare` handed from ring to ring.
    fn shared_pair(
        ep: &mut crate::Endpoint,
        buf: &mut [f32],
        seg: Option<usize>,
        spare: &mut Vec<DenseTensor>,
        f: impl Fn(f32) -> f32,
    ) {
        let ring = Ring::new(ep.world(), ep.rank(), buf.len(), seg.unwrap_or(usize::MAX));
        let grad = DenseTensor::from_vec(1, buf.len(), buf.to_vec());
        let mut rs = RingMachine::new(ring.clone(), RingPart::ReduceScatter, std::mem::take(spare));
        rs.run(ep, &mut RingBuf::Shared(&grad), 0).expect("fault-free mesh");
        let mut segments = rs.take_segments(&grad);
        *spare = rs.into_spare();
        for (range, segment) in ring.owned_segments().zip(&mut segments) {
            segment.unsummed().update(&mut buf[range], |x, g| {
                *x = f(g);
                *x
            });
        }
        let mut ag = RingMachine::new(ring, RingPart::AllGather, std::mem::take(spare));
        ag.hold(segments);
        ag.run(ep, &mut RingBuf::Lent(buf), 0).expect("fault-free mesh");
        *spare = ag.into_spare();
    }

    #[test]
    fn ring_steady_state_allocates_per_call_not_per_step() {
        // Segment buffers circulate, so a call allocates only what its
        // first steps take, independent of step count and payload length:
        // cold, a lent ring's first step stages one buffer per segment (one
        // for the whole-op ring). A shared reduce-scatter's last step takes
        // none: at world 2 its result takes one per segment instead, at
        // world 3 its first step takes as many for its sums, and from
        // world 4 its second step takes one more. An all-gather sending
        // the reduce-scatter's segments takes none. A ring handed its
        // predecessor's buffers allocates nothing at all, which is how the
        // comm scheduler runs them (its `Core::spare`). A call here is the allreduce, or its
        // reduce-scatter then its all-gather (each lent phase stages once),
        // or the shared pair.
        #[derive(Clone, Copy, Debug)]
        enum Call {
            Lent(&'static [RingPart]),
            Shared,
        }
        const CALLS: [Call; 3] = [
            Call::Lent(&[RingPart::AllReduce]),
            Call::Lent(&[RingPart::ReduceScatter, RingPart::AllGather]),
            Call::Shared,
        ];
        for world in [2, 3, 4, 8] {
            for call in CALLS {
                for (seg, handoff) in [(None, false), (Some(64), false), (Some(64), true)] {
                    let calls = 3u64;
                    let counts = run_group(world, move |rank, ep| {
                        let mut buf = vec![rank as f32; 4096];
                        let mut spare = Vec::new();
                        let mut run = |ep: &mut crate::Endpoint, buf: &mut [f32]| match call {
                            Call::Lent(parts) => {
                                for &part in parts {
                                    run_part(ep, buf, part, seg, &mut spare);
                                    if !handoff {
                                        spare.clear();
                                    }
                                }
                            }
                            Call::Shared => {
                                shared_pair(ep, buf, seg, &mut spare, |x| x);
                                if !handoff {
                                    spare.clear();
                                }
                            }
                        };
                        run(ep, &mut buf); // warm-up outside the window
                        barrier(ep);
                        embrace_tensor::alloc_counter::reset();
                        for _ in 0..calls {
                            run(ep, &mut buf);
                        }
                        embrace_tensor::alloc_counter::events()
                    });
                    let per_step = seg.map_or(1, |seg| (4096 / world).div_ceil(seg)) as u64;
                    let per_call = match (call, handoff) {
                        (_, true) => 0,
                        (Call::Lent(parts), false) => per_step * parts.len() as u64,
                        (Call::Shared, false) => per_step + u64::from(world > 3),
                    };
                    for (rank, events) in counts.into_iter().enumerate() {
                        assert_eq!(
                            events,
                            calls * per_call,
                            "world={world} {call:?} seg={seg:?} handoff={handoff} rank={rank}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_phases_around_an_owner_transform_equal_allreduce_then_transform() {
        // Reduce-scatter, `f` on the owned chunk only, all-gather: every
        // rank must hold, bit for bit, what the allreduce followed by `f`
        // on every element gives — whole and at every segmentation, for
        // empty buffers, buffers shorter than the world and several
        // segments per chunk.
        let f = |x: f32| 3.0 * x + 1.0;
        for world in 1..=5 {
            for len in [0, 1, world - 1, world + 1, 7, 64, 257] {
                let mk = move |rank: usize| -> Vec<f32> {
                    (0..len).map(|i| ((rank * 31 + i) as f32).sin()).collect()
                };
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let max_chunk = len.div_ceil(world).max(1);
                for seg in [None, Some(1), Some(3), Some(max_chunk), Some(len + 1)] {
                    let out = run_group(world, move |rank, ep| {
                        let mut want = mk(rank);
                        let mut spare = Vec::new();
                        run_part(ep, &mut want, RingPart::AllReduce, seg, &mut spare);
                        want.iter_mut().for_each(|x| *x = f(*x));
                        let mut got = mk(rank);
                        run_part(ep, &mut got, RingPart::ReduceScatter, seg, &mut spare);
                        let owned = Ring::whole(world, rank, len).owned();
                        got[owned].iter_mut().for_each(|x| *x = f(*x));
                        run_part(ep, &mut got, RingPart::AllGather, seg, &mut spare);
                        (want, got)
                    });
                    for (rank, (want, got)) in out.iter().enumerate() {
                        assert_eq!(
                            bits(got),
                            bits(want),
                            "world={world} len={len} seg={seg:?} rank={rank}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shared_pair_around_an_owner_transform_equals_allreduce_then_transform() {
        // The reduce-scatter over a shared gradient sums out of place into
        // its segments but for the last step's add, which `f`'s loop takes
        // over each owned segment's unsummed pieces — its own gradient and
        // the received partial (none at world 1), apart or written over
        // (world 3 and up) — and the all-gather sends what that loop
        // wrote: the pair must leave every rank, bit for bit, what the
        // lent allreduce followed by `f` gives, at worlds 1–5 and every
        // segmentation.
        let f = |x: f32| 3.0 * x + 1.0;
        for world in 1..=5 {
            for len in [0, 1, world - 1, world + 1, 7, 64, 257] {
                let mk = move |rank: usize| -> Vec<f32> {
                    (0..len).map(|i| ((rank * 31 + i) as f32).sin()).collect()
                };
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let max_chunk = len.div_ceil(world).max(1);
                for seg in [None, Some(1), Some(3), Some(max_chunk), Some(len + 1)] {
                    let out = run_group(world, move |rank, ep| {
                        let mut want = mk(rank);
                        ring_allreduce(ep, &mut want);
                        want.iter_mut().for_each(|x| *x = f(*x));
                        let mut got = mk(rank);
                        shared_pair(ep, &mut got, seg, &mut Vec::new(), f);
                        (want, got)
                    });
                    for (rank, (want, got)) in out.iter().enumerate() {
                        let at = format!("world={world} len={len} seg={seg:?} rank={rank}");
                        assert_eq!(bits(got), bits(want), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn unit_stepped_ring_matches_whole_op_and_serial_fold_bitwise() {
        // The ring folds chunk c over ranks c, c+1, …, c+N−1 (mod N); f32
        // `+` is commutative, so that left fold is the exact bit pattern
        // both the whole-op and every segmentation of it must produce.
        for world in [1, 2, 3, 4, 5] {
            for len in [0, 1, 7, 64, 257] {
                let mk = move |rank: usize| -> Vec<f32> {
                    (0..len).map(|i| ((rank * 31 + i) as f32).sin()).collect()
                };
                let inputs: Vec<Vec<f32>> = (0..world).map(mk).collect();
                let mut serial = vec![0.0f32; len];
                for (c, chunk) in embrace_tensor::row_partition(len, world).iter().enumerate() {
                    for (i, sum) in serial.iter_mut().enumerate().take(chunk.end).skip(chunk.start)
                    {
                        *sum = (1..world)
                            .fold(inputs[c][i], |acc, k| acc + inputs[(c + k) % world][i]);
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let max_chunk = len.div_ceil(world).max(1);
                for seg in [None, Some(1), Some(3), Some(max_chunk), Some(len + 1)] {
                    let out = run_group(world, move |rank, ep| {
                        let mut buf = mk(rank);
                        match seg {
                            None => ring_allreduce(ep, &mut buf),
                            Some(seg) => stepped_ring(
                                ep,
                                &mut buf,
                                RingPart::AllReduce,
                                seg,
                                &mut Vec::new(),
                            ),
                        }
                        buf
                    });
                    for got in &out {
                        assert_eq!(bits(got), bits(&serial), "world={world} len={len} seg={seg:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn allgather_fanout_sends_share_storage() {
        // world-1 sends of a 1 MiB-scale tensor must copy zero payload
        // bytes: each link's packet shares the caller's buffer.
        let out = run_group(4, |rank, ep| {
            let local = DenseTensor::full(64, 64, rank as f32);
            let before = (ep.bytes_sent(), ep.bytes_copied());
            let all = allgather_dense(ep, local);
            (ep.bytes_sent() - before.0, ep.bytes_copied() - before.1, all.len())
        });
        for (sent, copied, n) in out {
            assert_eq!(n, 4);
            let unit = UNIT_HEADER_BYTES + 64 * 64 * 4;
            assert_eq!(sent, 3 * unit as u64, "logical bytes: world-1 headed full tensors");
            assert_eq!(copied, 0, "fan-out must not copy payload bytes");
        }
    }

    #[test]
    fn allgather_dense_collects_in_rank_order() {
        let out = run_group(3, |rank, ep| {
            let local = DenseTensor::full(1, 2, rank as f32);
            allgather_dense(ep, local)
        });
        for gathered in out {
            for (src, t) in gathered.iter().enumerate() {
                assert_eq!(t.as_slice(), &[src as f32, src as f32]);
            }
        }
    }

    #[test]
    fn allgather_sparse_collects_all_coo() {
        let out = run_group(3, |rank, ep| {
            let local = RowSparse::new(vec![rank as u32], DenseTensor::full(1, 2, rank as f32));
            let all = allgather_sparse(ep, local);
            RowSparse::concat(&all)
        });
        for merged in out {
            assert_eq!(merged.nnz_rows(), 3);
            let dense = merged.to_dense(3);
            for r in 0..3 {
                assert_eq!(dense.row(r), &[r as f32, r as f32]);
            }
        }
    }

    #[test]
    fn allgather_tokens_roundtrip() {
        let out = run_group(4, |rank, ep| allgather_tokens(ep, vec![rank as u32; rank + 1]));
        for all in out {
            for (src, toks) in all.iter().enumerate() {
                assert_eq!(toks, &vec![src as u32; src + 1]);
            }
        }
    }

    #[test]
    fn alltoall_dense_transposes_ownership() {
        // parts[i][j] is a 1x1 tensor with value i*10+j; after alltoall,
        // rank j holds received[i] = i*10+j.
        let out = run_group(4, |rank, ep| {
            let parts: Vec<DenseTensor> =
                (0..4).map(|j| DenseTensor::full(1, 1, (rank * 10 + j) as f32)).collect();
            alltoall_dense(ep, parts)
        });
        for (j, received) in out.iter().enumerate() {
            for (i, t) in received.iter().enumerate() {
                assert_eq!(t.as_slice()[0], (i * 10 + j) as f32);
            }
        }
    }

    #[test]
    fn alltoall_roundtrip_is_identity() {
        // alltoall twice restores each rank's original blocks (transpose
        // of a transpose).
        let out = run_group(3, |rank, ep| {
            let parts: Vec<DenseTensor> =
                (0..3).map(|j| DenseTensor::full(1, 2, (rank * 3 + j) as f32)).collect();
            let once = alltoall_dense(ep, parts.clone());
            let twice = alltoall_dense(ep, once);
            (parts, twice)
        });
        for (orig, back) in out {
            assert_eq!(orig, back);
        }
    }

    #[test]
    fn alltoallv_sparse_exchanges_shards() {
        let out = run_group(2, |rank, ep| {
            let mk = |v: f32| RowSparse::new(vec![0], DenseTensor::full(1, 1, v));
            let parts = vec![mk(rank as f32 * 2.0), mk(rank as f32 * 2.0 + 1.0)];
            alltoallv_sparse(ep, parts)
        });
        // rank 0 receives [own part0 = 0, rank1's part0 = 2]
        assert_eq!(out[0][0].values().as_slice(), &[0.0]);
        assert_eq!(out[0][1].values().as_slice(), &[2.0]);
        assert_eq!(out[1][0].values().as_slice(), &[1.0]);
        assert_eq!(out[1][1].values().as_slice(), &[3.0]);
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = run_group(1, |_rank, ep| {
            let mut buf = vec![1.0, 2.0];
            ring_allreduce(ep, &mut buf);
            let g = allgather_dense(ep, DenseTensor::full(1, 1, 5.0));
            let a = alltoall_dense(ep, vec![DenseTensor::full(1, 1, 9.0)]);
            (buf, g, a)
        });
        let (buf, g, a) = &out[0];
        assert_eq!(buf, &vec![1.0, 2.0]);
        assert_eq!(g[0].as_slice(), &[5.0]);
        assert_eq!(a[0].as_slice(), &[9.0]);
    }

    mod sparse_allreduce_tests {
        use super::*;

        /// Deterministic per-rank gradient: every `stride`-th row starting
        /// at `rank`, with a duplicate of the first index appended so the
        /// local coalesce path is exercised. Values avoid `-0.0`/NaN.
        fn grad(rank: usize, vocab: usize, dim: usize, stride: usize) -> RowSparse {
            let mut indices: Vec<u32> = (rank..vocab).step_by(stride).map(|i| i as u32).collect();
            if let Some(&first) = indices.first() {
                indices.push(first);
            }
            let rows = indices.len();
            let vals: Vec<f32> =
                (0..rows * dim).map(|k| ((rank * 131 + k) as f32) * 0.03125 - 8.0).collect();
            RowSparse::new(indices, DenseTensor::from_vec(rows, dim, vals))
        }

        fn check_world(world: usize, crossover: f64) {
            let (vocab, dim, stride) = (24, 3, 3);
            let locals: Vec<RowSparse> = (0..world).map(|r| grad(r, vocab, dim, stride)).collect();
            let expect = sparse_allreduce_oracle(&locals, vocab);
            let cfg = SsarConfig { vocab, crossover };
            let out = run_group(world, move |rank, ep| {
                sparse_allreduce(ep, &grad(rank, vocab, dim, stride), &cfg)
            });
            for (rank, r) in out.iter().enumerate() {
                let got = r.to_dense(vocab);
                let gb: Vec<u32> = got.as_slice().iter().map(|x| x.to_bits()).collect();
                let eb: Vec<u32> = expect.as_slice().iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, eb, "world={world} crossover={crossover} rank={rank}");
            }
        }

        #[test]
        fn matches_oracle_bitwise_across_worlds() {
            for world in [1, 2, 3, 4, 5, 7, 8] {
                // Never densify, densify from step 0, and a mid threshold.
                check_world(world, 2.0);
                check_world(world, 0.0);
                check_world(world, 0.5);
            }
        }

        #[test]
        fn sparse_result_indices_are_the_union() {
            let (vocab, dim) = (16, 2);
            let cfg = SsarConfig { vocab, crossover: 2.0 };
            let out = run_group(4, move |rank, ep| {
                let g = RowSparse::new(
                    vec![rank as u32, (rank + 8) as u32],
                    DenseTensor::full(2, dim, 1.0 + rank as f32),
                );
                sparse_allreduce(ep, &g, &cfg)
            });
            for r in &out {
                match r {
                    SparseReduced::Sparse(s) => {
                        assert_eq!(s.indices(), &[0, 1, 2, 3, 8, 9, 10, 11]);
                        assert!(embrace_tensor::is_coalesced(s));
                    }
                    SparseReduced::Dense(_) => panic!("crossover 2.0 must stay sparse"),
                }
            }
        }

        #[test]
        fn crossover_zero_returns_dense_on_all_ranks() {
            let cfg = SsarConfig { vocab: 8, crossover: 0.0 };
            let out = run_group(3, move |rank, ep| {
                let g = RowSparse::new(vec![rank as u32], DenseTensor::full(1, 2, 2.0));
                sparse_allreduce(ep, &g, &cfg)
            });
            for r in &out {
                assert!(r.is_dense());
                let d = r.to_dense(8);
                assert_eq!(d.row(0), &[2.0, 2.0]);
                assert_eq!(d.row(3), &[0.0, 0.0]);
            }
        }

        #[test]
        fn gathered_blocks_are_shared_not_copied() {
            // Every peer is sent an `Arc` handle of the one coalesced
            // block: no payload byte is copied.
            let out = run_group(4, |rank, ep| {
                let g = grad(rank, 64, 4, 2);
                let before = (ep.bytes_sent(), ep.bytes_copied());
                let cfg = SsarConfig { vocab: 64, crossover: 2.0 };
                let _ = sparse_allreduce(ep, &g, &cfg);
                (ep.bytes_sent() - before.0, ep.bytes_copied() - before.1)
            });
            for (rank, (sent, copied)) in out.into_iter().enumerate() {
                assert!(sent > 0, "rank {rank} sent nothing");
                assert_eq!(copied, 0, "rank {rank}: copied {copied} of {sent} sent bytes");
            }
        }

        #[test]
        fn fault_aborts_terminate_every_rank() {
            use crate::group::run_group_with_faults;
            use crate::transport::FaultPlan;
            use std::time::Duration;
            let plan = FaultPlan::new(21).crash_rank_at_step(1, 0);
            let cfg = SsarConfig { vocab: 16, crossover: 0.5 };
            let out = run_group_with_faults(
                4,
                &plan,
                Some(Duration::from_millis(250)),
                move |rank, ep| {
                    if ep.begin_step().is_err() {
                        ep.crash();
                        return Err(CommError::Injected { rank });
                    }
                    let g = RowSparse::new(vec![rank as u32], DenseTensor::full(1, 2, 1.0));
                    try_sparse_allreduce(ep, &g, &cfg).map(|_| ())
                },
            );
            assert_eq!(out[1], Err(CommError::Injected { rank: 1 }));
            for (rank, r) in out.iter().enumerate() {
                if rank != 1 {
                    let err = r.as_ref().unwrap_err();
                    assert!(
                        matches!(
                            err,
                            CommError::PeerGone { .. }
                                | CommError::Timeout { .. }
                                | CommError::Aborted { .. }
                        ),
                        "rank {rank}: {err:?}"
                    );
                }
            }
        }
    }

    mod fault_tolerance {
        use super::*;
        use crate::group::run_group_with_faults;
        use crate::transport::FaultPlan;
        use std::time::Duration;

        const DEADLINE: Duration = Duration::from_millis(250);

        /// Every rank must terminate: crashed ranks with `Injected`,
        /// survivors with either the correct result or a typed error.
        #[test]
        fn barrier_survives_rank_crash() {
            let plan = FaultPlan::new(10).crash_rank_at_step(1, 0);
            let out = run_group_with_faults(3, &plan, Some(DEADLINE), |rank, ep| {
                if ep.begin_step().is_err() {
                    ep.crash();
                    return Err(CommError::Injected { rank });
                }
                try_barrier(ep)
            });
            assert_eq!(out[1], Err(CommError::Injected { rank: 1 }));
            for (rank, r) in out.iter().enumerate() {
                if rank != 1 {
                    // In the dissemination barrier every rank talks to every
                    // other within ⌈log₂ 3⌉ rounds, so a survivor may observe
                    // either the crashed rank directly or the *other*
                    // survivor's abort-and-exit — all typed, none hang.
                    let err = r.as_ref().unwrap_err();
                    assert!(
                        matches!(
                            err,
                            CommError::PeerGone { .. }
                                | CommError::Timeout { .. }
                                | CommError::Aborted { .. }
                        ),
                        "rank {rank}: {err:?}"
                    );
                }
            }
        }

        #[test]
        fn ring_allreduce_survives_rank_crash() {
            let plan = FaultPlan::new(11).crash_rank_at_step(2, 0);
            let out = run_group_with_faults(4, &plan, Some(DEADLINE), |_rank, ep| {
                if ep.begin_step().is_err() {
                    ep.crash();
                    return Err(CommError::Injected { rank: ep.rank() });
                }
                let mut buf = vec![1.0f32; 8];
                try_ring_allreduce(ep, &mut buf).map(|_| buf)
            });
            assert!(out.iter().all(Result::is_err), "{out:?}");
        }

        #[test]
        fn allgather_survives_silent_link_drop() {
            // Link 0 -> 2 drops everything: rank 2 times out waiting for
            // rank 0's contribution; everyone terminates with an error.
            let plan = FaultPlan::new(12).drop_link_after(0, 2, 0);
            let out = run_group_with_faults(3, &plan, Some(DEADLINE), |rank, ep| {
                try_allgather_tokens(ep, vec![rank as u32])
            });
            let e2 = out[2].as_ref().unwrap_err();
            // Timeout while rank 0 is still running, PeerGone once rank 0
            // finished and dropped its endpoint — both are typed, neither
            // hangs.
            assert!(
                matches!(e2, CommError::Timeout { peer: 0, .. } | CommError::PeerGone { peer: 0 }),
                "{e2:?}"
            );
            // Ranks 0 and 1 either finished before the abort reached them
            // (their receives were already satisfied) or observed it.
            for (rank, r) in out.iter().enumerate().take(2) {
                match r {
                    Ok(all) => {
                        assert_eq!(all.len(), 3, "rank {rank}");
                    }
                    Err(e) => {
                        assert!(matches!(e, CommError::Aborted { origin: 2 }), "rank {rank}: {e:?}")
                    }
                }
            }
        }

        #[test]
        fn delayed_link_beyond_deadline_times_out() {
            let plan = FaultPlan::new(13).delay_link(0, 1, Duration::from_secs(60));
            let out = run_group_with_faults(2, &plan, Some(DEADLINE), |rank, ep| {
                try_allgather_tokens(ep, vec![rank as u32])
            });
            let e1 = out[1].as_ref().unwrap_err();
            assert!(matches!(e1, CommError::Timeout { peer: 0, .. }), "{e1:?}");
        }

        #[test]
        fn delayed_link_within_deadline_is_correct() {
            // A short delay below the deadline must not change results.
            let plan = FaultPlan::new(14).delay_link(0, 1, Duration::from_millis(20));
            let out = run_group_with_faults(2, &plan, Some(DEADLINE), |rank, ep| {
                try_allgather_tokens(ep, vec![rank as u32])
            });
            for r in &out {
                assert_eq!(r.as_ref().unwrap(), &vec![vec![0], vec![1]]);
            }
        }

        #[test]
        fn abort_is_not_rebroadcast_by_receivers() {
            // After a failed collective, each survivor has sent at most one
            // abort per link: origin broadcasts, receivers do not echo.
            let plan = FaultPlan::new(15).crash_rank_at_step(0, 0);
            let out = run_group_with_faults(3, &plan, Some(DEADLINE), |rank, ep| {
                if ep.begin_step().is_err() {
                    ep.crash();
                    return (rank, ep.msgs_sent(), true);
                }
                let failed = try_barrier(ep).is_err();
                (rank, ep.msgs_sent(), failed)
            });
            for (rank, msgs, failed) in out {
                assert!(failed, "rank {rank} should fail");
                // The dissemination barrier sends at most ⌈log₂ 3⌉ = 2
                // signals, plus world-1 aborts from the failure origin.
                assert!(msgs <= 4, "rank {rank} sent {msgs} messages");
            }
        }
    }
}

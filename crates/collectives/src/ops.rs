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
//! broadcast, the ring, the fan-outs and the split allreduce execute
//! [`crate::schedule`]. The ring and the fan-outs are resumable machines
//! (`RingMachine`, `FanoutMachine`) that the chunked scheduler steps
//! one unit at a time; the blocking functions below run the same machines
//! to completion.
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

use crate::schedule::{self, prev_pow2, Ring, RingPart};
use crate::transport::{Comm, CommError, Packet, Region, SegBody, SparseSeg};
use embrace_obs::recorder;
use embrace_tensor::{
    coalesce, densify_range, kernels, merge_rowsparse, scatter_add_rows, DenseTensor, RowSparse,
    TokenBuf,
};

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

/// A ring allreduce, or one of its phases, in flight, executed one
/// [`schedule::RingUnit`] at a time over the units [`Ring::part`] names.
/// Errors come back raw; the caller owns the abort broadcast.
///
/// # Receive-fuse-forward
///
/// The segment a unit receives is exactly the segment the same unit of
/// the next step sends (see [`Ring`]), so the received tensor — updated in
/// place by the fused [`kernels::add_assign_both`] reduce during
/// reduce-scatter, forwarded verbatim during allgather — *is* that unit's
/// outgoing packet. Only the first step a machine runs stages from `buf` —
/// step 0, or for an all-gather on its own step N−1, whose packets no
/// reduce-scatter holds; every other step touches each element once.
///
/// # Allocation discipline
///
/// The first step stages each segment it sends into a buffer of its own; from
/// then on each received buffer — whose sole owner we now are — is held
/// until its unit comes round again and goes back out. A machine
/// therefore needs at most [`Ring::per_step`] staging buffers (one for
/// the whole-op ring) however many steps it runs, and it ends owning as
/// many: a caller running rings back to back passes each machine's
/// [`RingMachine::into_spare`] to the next, which then allocates nothing
/// (fresh staging memory is page-faulted memory: +52 µs per 256 KiB
/// segment measured). Asserted by the `*_steady_state` tests via
/// [`embrace_tensor::alloc_counter`].
pub(crate) struct RingMachine {
    ring: Ring,
    part: RingPart,
    unit: usize,
    /// One past the last unit to run.
    end: usize,
    /// `held[i]`: the buffer received by segment `i` of the previous step.
    held: Vec<Option<DenseTensor>>,
    /// Staging buffers for the first step, used before allocating.
    spare: Vec<DenseTensor>,
}

impl RingMachine {
    pub(crate) fn new(ring: Ring, part: RingPart, spare: Vec<DenseTensor>) -> Self {
        let held = (0..ring.per_step()).map(|_| None).collect();
        let units = ring.part(part);
        RingMachine { ring, part, unit: units.start, end: units.end, held, spare }
    }

    /// Every buffer this machine still owns, for the next ring to stage into.
    pub(crate) fn into_spare(self) -> Vec<DenseTensor> {
        self.held.into_iter().flatten().chain(self.spare).collect()
    }

    pub(crate) fn done(&self) -> bool {
        self.unit == self.end
    }

    pub(crate) fn part(&self) -> RingPart {
        self.part
    }

    pub(crate) fn step<C: Comm>(&mut self, ep: &mut C, buf: &mut [f32]) -> Result<(), CommError> {
        let unit = self.ring.unit(self.unit);
        let slot = &mut self.held[self.unit % self.ring.per_step()];
        if let Some(send) = unit.send {
            let outgoing = slot.take().unwrap_or_else(|| {
                let fresh = || DenseTensor::zeros(1, self.ring.seg());
                let mut staged = self.spare.pop().unwrap_or_else(fresh);
                staged.stage_row(&buf[send]);
                staged
            });
            ep.try_send(self.ring.next(), Packet::Dense(outgoing))?;
        }
        if let Some(recv) = unit.recv {
            let mut incoming = ep.try_recv(self.ring.prev()).and_then(Packet::try_into_dense)?;
            let dst = &mut buf[recv];
            if unit.reduce {
                // Fused: dst[i] += incoming[i] and incoming[i] becomes the
                // sum too — the next step's outgoing segment, already reduced.
                kernels::add_assign_both(dst, incoming.as_mut_slice());
            } else {
                dst.copy_from_slice(incoming.as_slice());
            }
            *slot = Some(incoming);
        }
        self.unit += 1;
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
    while !machine.done() {
        if let Err(e) = machine.step(ep, buf) {
            return fail(ep, e);
        }
    }
    Ok(())
}

/// A fan-out payload: the wire types share one exchange body.
pub(crate) trait Block: Sized {
    fn into_packet(self) -> Packet;
    fn try_from_packet(packet: Packet) -> Result<Self, CommError>;
}

impl Block for DenseTensor {
    fn into_packet(self) -> Packet {
        Packet::Dense(self)
    }
    fn try_from_packet(packet: Packet) -> Result<Self, CommError> {
        packet.try_into_dense()
    }
}

impl Block for RowSparse {
    fn into_packet(self) -> Packet {
        Packet::Sparse(self)
    }
    fn try_from_packet(packet: Packet) -> Result<Self, CommError> {
        packet.try_into_sparse()
    }
}

impl Block for TokenBuf {
    fn into_packet(self) -> Packet {
        Packet::Tokens(self)
    }
    fn try_from_packet(packet: Packet) -> Result<Self, CommError> {
        packet.try_into_tokens()
    }
}

impl Block for Region {
    fn into_packet(self) -> Packet {
        Packet::Region(self)
    }
    fn try_from_packet(packet: Packet) -> Result<Self, CommError> {
        packet.try_into_region()
    }
}

/// A fan-out exchange in flight: `parts[j]` goes to rank `j`, the result
/// is indexed by source rank (own block moved across, never sent). Errors
/// come back raw; the caller owns the abort broadcast.
pub(crate) struct FanoutMachine<P> {
    parts: Vec<Option<P>>,
    out: Vec<Option<P>>,
    unit: usize,
}

impl<P: Block> FanoutMachine<P> {
    pub(crate) fn new<C: Comm>(ep: &C, parts: Vec<P>) -> Self {
        let world = ep.world();
        assert_eq!(parts.len(), world, "need one outgoing block per rank");
        let parts = parts.into_iter().map(Some).collect();
        FanoutMachine { parts, out: (0..world).map(|_| None).collect(), unit: 0 }
    }

    fn send<C: Comm>(&mut self, ep: &mut C, to: usize) -> Result<(), CommError> {
        let block = self.parts[to].take().expect("each peer is sent to once");
        ep.try_send(to, block.into_packet())
    }

    fn recv<C: Comm>(&mut self, ep: &mut C, from: usize) -> Result<(), CommError> {
        self.out[from] = Some(P::try_from_packet(ep.try_recv(from)?)?);
        Ok(())
    }

    fn finish(&mut self, rank: usize) -> Vec<P> {
        self.out[rank] = self.parts[rank].take();
        let out = std::mem::take(&mut self.out);
        out.into_iter().map(|b| b.expect("every source delivered its block")).collect()
    }

    /// The whole exchange in [`schedule::Traversal::Posted`] order.
    fn run<C: Comm>(mut self, ep: &mut C) -> Result<Vec<P>, CommError> {
        let (world, rank) = (ep.world(), ep.rank());
        for to in schedule::fanout_peers(world, rank) {
            self.send(ep, to)?;
        }
        for from in schedule::fanout_sources(world, rank) {
            self.recv(ep, from)?;
        }
        Ok(self.finish(rank))
    }

    /// One unit of [`schedule::Traversal::Paired`] order (requires
    /// `world > 1`); `Some(result)` once the last unit has run.
    pub(crate) fn step<C: Comm>(&mut self, ep: &mut C) -> Result<Option<Vec<P>>, CommError> {
        let (world, rank) = (ep.world(), ep.rank());
        let (to, from) =
            schedule::fanout_pairs(world, rank).nth(self.unit).expect("stepped past the last unit");
        self.send(ep, to)?;
        self.recv(ep, from)?;
        self.unit += 1;
        Ok((self.unit == world - 1).then(|| self.finish(rank)))
    }
}

/// Run a whole fan-out under its span, broadcasting an abort on failure.
fn fanout<C: Comm, P: Block>(ep: &mut C, name: &str, parts: Vec<P>) -> Result<Vec<P>, CommError> {
    let _span = recorder::span(name, "collective");
    FanoutMachine::new(ep, parts).run(ep).or_else(|e| fail(ep, e))
}

/// AllGather of per-rank dense tensors; returns all ranks' tensors in rank
/// order (own tensor included).
pub fn allgather_dense<C: Comm>(ep: &mut C, local: DenseTensor) -> Vec<DenseTensor> {
    finish(try_allgather_dense(ep, local))
}

/// Fallible [`allgather_dense`].
fn try_allgather_dense<C: Comm>(
    ep: &mut C,
    local: DenseTensor,
) -> Result<Vec<DenseTensor>, CommError> {
    // An alltoall whose blocks all share one buffer: O(1) `Arc` bumps,
    // zero payload bytes copied.
    fanout(ep, "allgather_dense", (0..ep.world()).map(|_| local.share()).collect())
}

/// AllGather of row-sparse gradients — Horovod's sparse aggregation path
/// (§2.2): every rank receives every other rank's COO tensor. The returned
/// concatenation is *uncoalesced*; summing duplicates is the caller's job,
/// exactly as in `horovod.torch.allreduce_` for sparse inputs.
pub fn allgather_sparse<C: Comm>(ep: &mut C, local: RowSparse) -> Vec<RowSparse> {
    finish(try_allgather_sparse(ep, local))
}

/// Fallible [`allgather_sparse`].
fn try_allgather_sparse<C: Comm>(
    ep: &mut C,
    local: RowSparse,
) -> Result<Vec<RowSparse>, CommError> {
    fanout(ep, "allgather_sparse", (0..ep.world()).map(|_| local.share()).collect())
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
    finish(try_alltoallv_tokens(ep, parts))
}

/// Fallible [`alltoallv_tokens`].
fn try_alltoallv_tokens<C: Comm>(
    ep: &mut C,
    parts: Vec<TokenBuf>,
) -> Result<Vec<TokenBuf>, CommError> {
    fanout(ep, "alltoallv_tokens", parts)
}

/// AlltoAll of dense blocks: `parts[j]` goes to rank `j`; returns the
/// blocks received, indexed by source rank (own block kept in place).
/// This is AlltoAll #1 of §4.1.1 — redistributing embedding lookup results.
pub fn alltoall_dense<C: Comm>(ep: &mut C, parts: Vec<DenseTensor>) -> Vec<DenseTensor> {
    finish(try_alltoall_dense(ep, parts))
}

/// Fallible [`alltoall_dense`].
pub fn try_alltoall_dense<C: Comm>(
    ep: &mut C,
    parts: Vec<DenseTensor>,
) -> Result<Vec<DenseTensor>, CommError> {
    fanout(ep, "alltoall_dense", parts)
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

/// Configuration of the sparse-native allreduce ([`sparse_allreduce`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsarConfig {
    /// Vocabulary rows of the table the gradient indices address.
    pub vocab: usize,
    /// Density threshold of the representation switch: a segment densifies
    /// as soon as its accumulated row density (`nnz / segment_rows`,
    /// [`RowSparse::density`] over the segment) reaches this value, and
    /// stays dense for the rest of the algorithm. `0.0` forces the dense
    /// representation from step 0; any value above `1.0` disables the
    /// switch entirely.
    pub crossover: f64,
}

/// Result of [`sparse_allreduce`]: the index–value representation when
/// every segment stayed below the crossover threshold, the dense
/// `vocab × dim` sum as soon as any segment densified.
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

/// Representation rule: densify a freshly merged stream when its row
/// density over `[lo, hi)` reaches the crossover threshold.
fn mk_body(stream: RowSparse, lo: u32, hi: u32, crossover: f64) -> SegBody {
    if hi > lo && stream.nnz_rows() as f64 / (hi - lo) as f64 >= crossover {
        SegBody::Dense(densify_range(&stream, lo, hi))
    } else {
        SegBody::Rows(stream)
    }
}

/// Merge two partial sums for the range `[lo, hi)`. Sparse–sparse merges
/// re-apply the crossover rule to the union; a dense operand keeps the
/// result dense (densification is one-way).
fn merge_bodies(a: SegBody, b: SegBody, lo: u32, hi: u32, crossover: f64) -> SegBody {
    match (a, b) {
        (SegBody::Rows(x), SegBody::Rows(y)) => {
            mk_body(merge_rowsparse(&[x, y]), lo, hi, crossover)
        }
        (SegBody::Dense(mut d), SegBody::Rows(s)) | (SegBody::Rows(s), SegBody::Dense(mut d)) => {
            scatter_add_rows(&mut d, lo, &s);
            SegBody::Dense(d)
        }
        (SegBody::Dense(mut d), SegBody::Dense(e)) => {
            d.add_assign(&e);
            SegBody::Dense(d)
        }
    }
}

/// Split a partial sum for `[lo, hi)` at `mid` into `[lo, mid)` and
/// `[mid, hi)`, preserving the representation of each half.
fn split_body(body: SegBody, lo: u32, mid: u32, hi: u32) -> (SegBody, SegBody) {
    match body {
        SegBody::Rows(s) => {
            let (l, r) = s.split_at_row(mid);
            (SegBody::Rows(l), SegBody::Rows(r))
        }
        SegBody::Dense(d) => {
            let cut = (mid - lo) as usize;
            let len = (hi - lo) as usize;
            (SegBody::Dense(d.slice_rows(0, cut)), SegBody::Dense(d.slice_rows(cut, len)))
        }
    }
}

/// Assemble the final per-range segments (disjoint, covering the whole
/// vocabulary) into the caller-facing result. Sparse throughout → the
/// concatenation of the streams (coalesced, since ranges ascend); any
/// dense segment → the dense `vocab × dim` sum.
fn assemble(mut segs: Vec<SparseSeg>, vocab: usize) -> SparseReduced {
    segs.sort_by_key(|s| s.lo);
    if segs.iter().all(|s| matches!(s.body, SegBody::Rows(_))) {
        let streams: Vec<RowSparse> = segs
            .into_iter()
            .map(|s| match s.body {
                SegBody::Rows(r) => r,
                SegBody::Dense(_) => unreachable!("checked all-sparse above"),
            })
            .collect();
        return SparseReduced::Sparse(RowSparse::concat(&streams));
    }
    let dim = match &segs[0].body {
        SegBody::Rows(r) => r.dim(),
        SegBody::Dense(d) => d.cols(),
    };
    let mut out = DenseTensor::zeros(vocab, dim);
    for seg in segs {
        match seg.body {
            SegBody::Rows(r) => scatter_add_rows(&mut out, 0, &r),
            SegBody::Dense(d) => {
                let at = seg.lo as usize * dim;
                out.as_mut_slice()[at..at + d.len()].copy_from_slice(d.as_slice());
            }
        }
    }
    SparseReduced::Dense(out)
}

/// Sparse-native allreduce (SparCML's split-allreduce, SSAR): sums
/// row-sparse gradients across ranks without densifying up front, and
/// switches representation mid-algorithm once density crosses
/// `cfg.crossover`. Panics on communication failure.
pub fn sparse_allreduce<C: Comm>(ep: &mut C, grad: &RowSparse, cfg: &SsarConfig) -> SparseReduced {
    finish(try_sparse_allreduce(ep, grad, cfg))
}

/// Fallible [`sparse_allreduce`]: executes [`schedule::ssar_rounds`]
/// (fold-in, recursive-halving reduce-scatter, recursive-doubling
/// allgather, fold-out — peers, order and row ranges are defined there) on
/// index–value segments. Allgather and fold-out sends are `Arc`-shared:
/// zero payload bytes copied.
///
/// # Determinism
///
/// Every index's sum is combined along the same balanced binary tree
/// (extras folded into their base rank, then pairs at doubling distances),
/// and f32 addition is commutative, so the result is bitwise deterministic
/// across runs and message interleavings — and independent of where (or
/// whether) the crossover fires, provided no input value is `-0.0` (the
/// densified representation materialises absent rows as `+0.0`). The
/// model checker proves this on the same schedule; the serial reference
/// is [`sparse_allreduce_oracle`].
pub fn try_sparse_allreduce<C: Comm>(
    ep: &mut C,
    grad: &RowSparse,
    cfg: &SsarConfig,
) -> Result<SparseReduced, CommError> {
    let _span = recorder::span("sparse_allreduce", "collective");
    assert!(u32::try_from(cfg.vocab).is_ok(), "vocab must fit in u32");
    let vocab = cfg.vocab as u32;
    let local = coalesce(grad);
    if let Some(&max) = local.indices().last() {
        assert!((max as usize) < cfg.vocab, "gradient row {max} out of vocab {}", cfg.vocab);
    }
    let mut held =
        vec![SparseSeg { lo: 0, hi: vocab, body: mk_body(local, 0, vocab, cfg.crossover) }];
    for round in schedule::ssar_rounds(ep.world(), ep.rank(), cfg.vocab) {
        if let Some(msg) = &round.send {
            let outgoing = if round.reduce {
                let seg = held.pop().expect("a reduce round starts holding one segment");
                match round.halving() {
                    // Fold-in: the whole stream leaves.
                    None => vec![seg],
                    Some((mid, keep_low)) => {
                        let mid = mid as u32;
                        let (low, high) = split_body(seg.body, seg.lo, mid, seg.hi);
                        let low = SparseSeg { lo: seg.lo, hi: mid, body: low };
                        let high = SparseSeg { lo: mid, hi: seg.hi, body: high };
                        let (keep, sent) = if keep_low { (low, high) } else { (high, low) };
                        held.push(keep);
                        vec![sent]
                    }
                }
            } else {
                held.iter().map(SparseSeg::share).collect()
            };
            if let Err(e) = ep.try_send(msg.peer, Packet::SparseSegs(outgoing)) {
                return fail(ep, e);
            }
        }
        if let Some(msg) = &round.recv {
            let mut incoming = match ep.try_recv(msg.peer).and_then(Packet::try_into_sparse_segs) {
                Ok(segs) => segs,
                Err(e) => return fail(ep, e),
            };
            if round.reduce {
                debug_assert_eq!(incoming.len(), 1, "a reduce round carries one segment");
                let seg = incoming.pop().expect("non-empty reduce message");
                let kept = held.pop().expect("a reduce round receives into one segment");
                debug_assert_eq!(
                    (seg.lo, seg.hi),
                    (kept.lo, kept.hi),
                    "partner sent the wrong range"
                );
                let body = merge_bodies(kept.body, seg.body, kept.lo, kept.hi, cfg.crossover);
                held.push(SparseSeg { lo: kept.lo, hi: kept.hi, body });
            } else {
                held.append(&mut incoming);
            }
        }
    }
    Ok(assemble(held, cfg.vocab))
}

/// Reference semantics of [`sparse_allreduce`]: serially replay the
/// canonical reduction tree — coalesce each rank's gradient, densify,
/// fold rank `r >= p` into `r − p`, then combine pairs at doubling
/// distances — and return the dense `vocab × dim` sum every rank must
/// hold afterwards, bitwise. The tree, not a left-to-right fold, is the
/// specification: a recursive-halving exchange cannot produce serial
/// fold order for f32 sums, so the oracle pins the exact add schedule
/// the collective commits to.
pub fn sparse_allreduce_oracle(locals: &[RowSparse], vocab: usize) -> DenseTensor {
    assert!(!locals.is_empty(), "oracle needs at least one rank");
    let mut acc: Vec<DenseTensor> = locals.iter().map(|g| coalesce(g).to_dense(vocab)).collect();
    let world = acc.len();
    let p = prev_pow2(world);
    for r in p..world {
        let folded = acc[r].share();
        acc[r - p].add_assign(&folded);
    }
    let mut d = 1;
    while d < p {
        for r in (0..p).step_by(2 * d) {
            let right = acc[r + d].share();
            acc[r].add_assign(&right);
        }
        d *= 2;
    }
    acc.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_group;

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
            broadcast(ep, 2, payload).into_tokens()
        });
        assert!(out.iter().all(|t| t == &vec![42]));
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
        while !m.done() {
            m.step(ep, buf).expect("fault-free mesh");
        }
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

    #[test]
    fn ring_steady_state_allocates_per_call_not_per_step() {
        // Received buffers circulate, so a call allocates only what its
        // first step's sends stage into, independent of world size, step
        // count and payload length: one buffer for the whole-op ring, one
        // per segment for a stepped ring starting cold — and nothing at all
        // for a stepped ring handed its predecessor's buffers, which is how
        // the comm scheduler runs them (its `Core::spare`). A call here is
        // the allreduce, or its reduce-scatter then its all-gather: each
        // phase stages once, and the all-gather stages into what the
        // reduce-scatter received.
        const PARTS: [&[RingPart]; 2] =
            [&[RingPart::AllReduce], &[RingPart::ReduceScatter, RingPart::AllGather]];
        for world in [2, 4, 8] {
            for parts in PARTS {
                for (seg, handoff) in [(None, false), (Some(64), false), (Some(64), true)] {
                    let calls = 3u64;
                    let counts = run_group(world, move |rank, ep| {
                        let mut buf = vec![rank as f32; 4096];
                        let mut spare = Vec::new();
                        let mut run = |ep: &mut crate::Endpoint, buf: &mut [f32]| {
                            for &part in parts {
                                run_part(ep, buf, part, seg, &mut spare);
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
                    let per_part = match (seg, handoff) {
                        (None, _) => 1,
                        (Some(seg), false) => (4096 / world).div_ceil(seg) as u64,
                        (Some(_), true) => 0,
                    };
                    for (rank, events) in counts.into_iter().enumerate() {
                        assert_eq!(
                            events,
                            calls * per_part * parts.len() as u64,
                            "world={world} {parts:?} seg={seg:?} handoff={handoff} rank={rank}"
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
            assert_eq!(sent, 3 * 64 * 64 * 4, "logical bytes: world-1 full tensors");
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
        fn allgather_phase_sends_share_segments() {
            // At worlds of a power of two with a high threshold, the
            // allgather + fold phases forward received segments by Arc
            // bump: copied bytes stay well below sent bytes.
            let out = run_group(4, |rank, ep| {
                let g = grad(rank, 64, 4, 2);
                let before = (ep.bytes_sent(), ep.bytes_copied());
                let cfg = SsarConfig { vocab: 64, crossover: 2.0 };
                let _ = sparse_allreduce(ep, &g, &cfg);
                (ep.bytes_sent() - before.0, ep.bytes_copied() - before.1)
            });
            for (rank, (sent, copied)) in out.into_iter().enumerate() {
                assert!(sent > 0, "rank {rank} sent nothing");
                assert!(
                    copied < sent,
                    "rank {rank}: copied {copied} of {sent} sent bytes — allgather must share"
                );
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

//! In-memory full-mesh transport between worker threads.
//!
//! Each ordered pair of ranks gets a dedicated unbounded channel, so
//! point-to-point receives are addressed by source rank and never interleave
//! across senders — the delivery semantics collective algorithms assume
//! from MPI/NCCL.
//!
//! # Failure model
//!
//! Failure is a first-class input, not a panic. Every send/receive has a
//! `Result`-returning variant carrying a typed [`CommError`]:
//!
//! * [`Endpoint::try_send`] / [`Endpoint::try_recv`] — fallible
//!   point-to-point operations; `try_recv` honours the endpoint's
//!   configured deadline (none by default, i.e. it waits indefinitely).
//! * [`Endpoint::recv_timeout`] — receive with an explicit deadline.
//! * [`Endpoint::crash`] — tears the endpoint down mid-run: its channels
//!   disconnect, so peers observe [`CommError::PeerGone`] (or a timeout)
//!   instead of hanging forever.
//!
//! Deterministic fault injection is configured through a [`FaultPlan`]
//! (per-link delivery delay, link-drops-after-N-messages, rank-crashes-at-
//! step-K) and attached to a mesh by [`mesh_with_faults`]. A mesh built by
//! plain [`mesh`] carries no fault state and its fast path is unchanged.
//!
//! The legacy panicking [`Endpoint::send`]/[`Endpoint::recv`] remain as
//! thin wrappers for code that treats communication failure as fatal.
//!
//! # Waiting
//!
//! Every receive goes through one private function, `Endpoint::wait`: poll
//! the link for a bounded budget (`SPIN_BUDGET`), then park on the channel.
//! Most packets of a lock-step collective are queued already or arrive
//! within the budget, and taking them costs neither side a futex call;
//! `transport.recv_spun` / `transport.recv_parked` say how a run's receives
//! split. A mesh with more ranks than the host has cores never polls.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use embrace_tensor::{DenseTensor, RowSparse, TokenBuf, TOKEN_BYTES};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The transport capability the collective algorithms actually need:
/// addressed fallible point-to-point send/receive plus the rank/world
/// identity. [`Endpoint`] is the production implementation (threaded
/// in-memory mesh); `embrace-analyzer` provides recording and virtual
/// implementations so the *same* collective code can be traced for the
/// static plan verifier or replayed under a model checker without
/// touching any real channel.
pub trait Comm {
    /// This rank's id within the group.
    fn rank(&self) -> usize;
    /// Number of ranks in the group.
    fn world(&self) -> usize;
    /// Send `packet` to rank `to`, reporting failure as a typed error.
    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError>;
    /// Receive the next packet from rank `from`.
    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError>;
}

/// A borrowed transport is one too: a [`crate::CommScheduler`] scoped to
/// one step can run over `&mut` the caller's endpoint or elastic group and
/// hand it back afterwards.
impl<C: Comm + ?Sized> Comm for &mut C {
    fn rank(&self) -> usize {
        (**self).rank()
    }

    fn world(&self) -> usize {
        (**self).world()
    }

    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        (**self).try_send(to, packet)
    }

    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError> {
        (**self).try_recv(from)
    }
}

impl Comm for Endpoint {
    fn rank(&self) -> usize {
        Endpoint::rank(self)
    }

    fn world(&self) -> usize {
        Endpoint::world(self)
    }

    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        Endpoint::try_send(self, to, packet)
    }

    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError> {
        Endpoint::try_recv(self, from)
    }
}

/// One unit of data on the wire. The transport is typed rather than
/// byte-serialised (everything is in-process), but [`Packet::nbytes`]
/// reports the size the payload would occupy on a real wire so traffic
/// accounting matches the cost model.
#[derive(Clone, Debug, PartialEq)]
pub enum Packet {
    /// A dense f32 block with row/col shape.
    Dense(DenseTensor),
    /// A row-sparse (COO) block: row ids + value rows.
    Sparse(RowSparse),
    /// A batch of token ids (used to gather `D_cur` across ranks).
    /// `Arc`-backed ([`TokenBuf`]): fan-out sends share the storage.
    Tokens(TokenBuf),
    /// Zero-payload control message (barrier).
    Empty,
    /// Abort notification: `origin` observed a failure mid-collective and
    /// is telling the remaining ranks to bail out instead of hanging.
    Abort { origin: usize },
    /// An epoch-tagged payload of the elastic membership layer
    /// (`crate::elastic`): the receiver delivers `inner` only when it
    /// agrees on `epoch`, silently discards packets from older epochs, and
    /// surfaces [`CommError::StaleEpoch`] when the tag is *newer* than its
    /// own (meaning this endpoint missed a re-form).
    Tagged { epoch: u64, inner: Box<Packet> },
    /// Membership re-form control message. Deliberately *untagged* so the
    /// re-form handshake can cross an epoch boundary.
    Reform(ReformMsg),
    /// One message of the sparse-native allreduce (SparCML SSAR): a list of
    /// row-range segments, each carried either as an index–value stream or
    /// as a densified block once accumulated density crossed the crossover
    /// threshold. Both bodies are `Arc`-backed, so forwarding a received
    /// segment copies no payload bytes.
    SparseSegs(Vec<SparseSeg>),
    /// A registered memory region (see [`Region`]): sent once per peer
    /// when a group sets up one-sided reads.
    Region(Region),
}

/// A registered memory region: the shared handle of one rank's table
/// shard plus the owner's description of its row placement (`book`,
/// encoded by the owner and opaque to the transport). The handle *is* the
/// shard, not a copy: a peer that received it reads rows straight from
/// the owner's memory, and it is the owner's protocol that decides when
/// such reads may happen.
#[derive(Clone)]
pub struct Region {
    pub rows: Arc<RwLock<DenseTensor>>,
    pub book: TokenBuf,
}

/// Two regions are equal when they are the same memory under the same book.
impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows) && self.book == other.book
    }
}

/// The address, not the rows: a shard can be millions of rows.
impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region({:p}, book {:?})", Arc::as_ptr(&self.rows), self.book)
    }
}

/// A half-open vocabulary row range `[lo, hi)` of a sparse allreduce,
/// together with the accumulated partial sum for that range in whichever
/// representation the sender's crossover rule chose.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseSeg {
    pub lo: u32,
    pub hi: u32,
    pub body: SegBody,
}

/// Representation of one [`SparseSeg`]'s payload.
#[derive(Clone, Debug, PartialEq)]
pub enum SegBody {
    /// Coalesced index–value stream; indices are *absolute* vocabulary
    /// rows inside `[lo, hi)`.
    Rows(RowSparse),
    /// Densified `(hi - lo) × dim` block.
    Dense(DenseTensor),
}

/// Wire bytes of one segment header: `lo` and `hi` as u32 each.
pub const SEG_HEADER_BYTES: usize = 8;

impl SparseSeg {
    /// Wire size: range header plus the payload in its representation.
    pub fn nbytes(&self) -> usize {
        SEG_HEADER_BYTES
            + match &self.body {
                SegBody::Rows(s) => s.nbytes(),
                SegBody::Dense(d) => d.nbytes(),
            }
    }

    /// Payload bytes materialised for this segment (headers are control
    /// words and never counted); see [`Packet::copied_nbytes`].
    pub fn copied_nbytes(&self) -> usize {
        match &self.body {
            SegBody::Rows(s) => s.copied_nbytes(),
            SegBody::Dense(d) => {
                if d.is_shared() {
                    0
                } else {
                    d.nbytes()
                }
            }
        }
    }

    /// O(1) handle onto the same payload storage (`Arc` bumps).
    pub fn share(&self) -> SparseSeg {
        let body = match &self.body {
            SegBody::Rows(s) => SegBody::Rows(s.share()),
            SegBody::Dense(d) => SegBody::Dense(d.share()),
        };
        SparseSeg { lo: self.lo, hi: self.hi, body }
    }
}

/// The elastic membership layer's re-form handshake messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReformMsg {
    /// `origin` is alive at `epoch` and proposing a re-form; doubles as a
    /// liveness probe (a failed send proves the peer's endpoint is gone).
    Report { origin: usize, epoch: u64 },
    /// The coordinator's commit: the next epoch and its sorted
    /// physical-rank member set.
    Commit { epoch: u64, members: Vec<usize> },
}

impl ReformMsg {
    /// Wire size: rank ids as u32, epochs as u64.
    pub fn nbytes(&self) -> usize {
        match self {
            ReformMsg::Report { .. } => TOKEN_BYTES + 8,
            ReformMsg::Commit { members, .. } => 8 + members.len() * TOKEN_BYTES,
        }
    }

    /// The epoch this message was sent at (Report) or commits (Commit).
    pub fn epoch(&self) -> u64 {
        match self {
            ReformMsg::Report { epoch, .. } | ReformMsg::Commit { epoch, .. } => *epoch,
        }
    }
}

impl Packet {
    /// Wire size in bytes (f32 values, i64 COO indices, u32 token ids).
    pub fn nbytes(&self) -> usize {
        match self {
            Packet::Dense(d) => d.nbytes(),
            Packet::Sparse(s) => s.nbytes(),
            Packet::Tokens(t) => t.nbytes(),
            Packet::Empty => 0,
            // One rank id on the wire.
            Packet::Abort { .. } => TOKEN_BYTES,
            // The epoch tag rides ahead of the payload.
            Packet::Tagged { inner, .. } => 8 + inner.nbytes(),
            Packet::Reform(m) => m.nbytes(),
            Packet::SparseSegs(segs) => segs.iter().map(SparseSeg::nbytes).sum(),
            // An (address, key) pair, as an RDMA registration ships, and
            // the book.
            Packet::Region(r) => 16 + r.book.nbytes(),
        }
    }

    /// Bytes of this packet's payload that were *materialised* for it —
    /// i.e. whose backing buffer this packet owns exclusively — as opposed
    /// to shared zero-copy storage. A fan-out send of a
    /// [`DenseTensor::share`]/[`RowSparse::share`]/[`TokenBuf::share`]
    /// handle reports 0; a staged ring chunk (copied into a reused scratch
    /// buffer) or an exclusively owned token batch reports its full wire
    /// size. `bytes_sent − bytes_copied` over a run is the transport's
    /// copy-elimination win.
    pub fn copied_nbytes(&self) -> usize {
        match self {
            Packet::Dense(d) => {
                if d.is_shared() {
                    0
                } else {
                    d.nbytes()
                }
            }
            Packet::Sparse(s) => s.copied_nbytes(),
            Packet::Tokens(t) => {
                if t.is_shared() {
                    0
                } else {
                    t.nbytes()
                }
            }
            Packet::Empty | Packet::Abort { .. } => 0,
            Packet::Tagged { inner, .. } => inner.copied_nbytes(),
            // Control messages are always materialised.
            Packet::Reform(m) => m.nbytes(),
            Packet::Region(_) => self.nbytes(),
            Packet::SparseSegs(segs) => segs.iter().map(SparseSeg::copied_nbytes).sum(),
        }
    }

    /// Short name of the packet kind, for error reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Packet::Dense(_) => "Dense",
            Packet::Sparse(_) => "Sparse",
            Packet::Tokens(_) => "Tokens",
            Packet::Empty => "Empty",
            Packet::Abort { .. } => "Abort",
            Packet::Tagged { .. } => "Tagged",
            Packet::Reform(_) => "Reform",
            Packet::SparseSegs(_) => "SparseSegs",
            Packet::Region(_) => "Region",
        }
    }

    pub fn into_tokens(self) -> TokenBuf {
        match self {
            Packet::Tokens(t) => t,
            other => panic!("expected Tokens packet, got {other:?}"),
        }
    }

    /// Fallible extraction: an [`Packet::Abort`] maps to
    /// [`CommError::Aborted`], any other mismatch to [`CommError::Protocol`].
    pub fn try_into_dense(self) -> Result<DenseTensor, CommError> {
        match self {
            Packet::Dense(d) => Ok(d),
            other => Err(other.mismatch("Dense")),
        }
    }

    /// See [`Packet::try_into_dense`].
    pub fn try_into_sparse(self) -> Result<RowSparse, CommError> {
        match self {
            Packet::Sparse(s) => Ok(s),
            other => Err(other.mismatch("Sparse")),
        }
    }

    /// See [`Packet::try_into_dense`].
    pub fn try_into_tokens(self) -> Result<TokenBuf, CommError> {
        match self {
            Packet::Tokens(t) => Ok(t),
            other => Err(other.mismatch("Tokens")),
        }
    }

    /// See [`Packet::try_into_dense`].
    pub fn try_into_sparse_segs(self) -> Result<Vec<SparseSeg>, CommError> {
        match self {
            Packet::SparseSegs(segs) => Ok(segs),
            other => Err(other.mismatch("SparseSegs")),
        }
    }

    /// See [`Packet::try_into_dense`].
    pub fn try_into_region(self) -> Result<Region, CommError> {
        match self {
            Packet::Region(r) => Ok(r),
            other => Err(other.mismatch("Region")),
        }
    }

    /// See [`Packet::try_into_dense`], for zero-payload control packets.
    pub fn try_into_empty(self) -> Result<(), CommError> {
        match self {
            Packet::Empty => Ok(()),
            other => Err(other.mismatch("Empty")),
        }
    }

    fn mismatch(self, expected: &'static str) -> CommError {
        match self {
            Packet::Abort { origin } => CommError::Aborted { origin },
            other => CommError::Protocol { expected, got: other.kind() },
        }
    }
}

/// Typed communication failure. Everything a collective can observe when a
/// peer misbehaves, with enough context to attribute the failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer's endpoint no longer exists (its rank crashed or returned):
    /// the underlying channel disconnected.
    PeerGone { peer: usize },
    /// No message from `peer` arrived within the deadline.
    Timeout { peer: usize, waited: Duration },
    /// A configured fault fired on this rank itself (e.g. its
    /// crash-at-step point was reached, or it was asked to operate after
    /// [`Endpoint::crash`]).
    Injected { rank: usize },
    /// A surviving peer aborted the collective and notified us.
    Aborted { origin: usize },
    /// Wire protocol violation: a packet of the wrong kind arrived where a
    /// specific kind was required.
    Protocol { expected: &'static str, got: &'static str },
    /// A packet tagged with a *newer* group epoch arrived: this endpoint
    /// missed a membership re-form and must not keep participating at its
    /// stale epoch. (Packets from *older* epochs are silently dropped by
    /// the elastic layer; this error is the receiving side's own
    /// staleness, not the sender's.)
    StaleEpoch { ours: u64, theirs: u64 },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerGone { peer } => write!(f, "peer rank {peer} is gone"),
            CommError::Timeout { peer, waited } => {
                write!(f, "timed out after {waited:?} waiting for rank {peer}")
            }
            CommError::Injected { rank } => write!(f, "injected fault on rank {rank}"),
            CommError::Aborted { origin } => {
                write!(f, "collective aborted by rank {origin}")
            }
            CommError::Protocol { expected, got } => {
                write!(f, "protocol violation: expected {expected} packet, got {got}")
            }
            CommError::StaleEpoch { ours, theirs } => {
                write!(f, "stale epoch: we are at {ours} but the group moved to {theirs}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A deterministic, seeded schedule of faults to inject into a mesh.
///
/// Three fault shapes (composable; all addressed by rank):
/// * **link delay** — every delivery on the ordered link `(from → to)` is
///   deferred by a fixed duration (the sender never blocks; a store-and-
///   forward worker serialises the link, so per-link ordering is
///   preserved and back-to-back messages accumulate delay like a
///   one-packet-deep slow pipe);
/// * **drop-after-N** — the ordered link delivers its first `n` messages,
///   then silently discards everything (a dead cable: the receiver sees
///   only a timeout);
/// * **crash-at-step** — the rank tears its endpoint down when it begins
///   step `k` ([`Endpoint::begin_step`]), so peers observe
///   [`CommError::PeerGone`] or a timeout.
///
/// Plans are plain data: building one never touches the transport, and a
/// mesh built from an empty plan behaves exactly like [`mesh`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delays: HashMap<(usize, usize), Duration>,
    drop_after: HashMap<(usize, usize), u64>,
    crashes: HashMap<usize, u64>,
    /// Persistent per-rank slowdown: every outgoing delivery of the rank
    /// is deferred (a straggler node, not a one-shot link delay).
    straggles: HashMap<usize, Duration>,
    /// Flaky link: messages with per-link index in `[down, up)` are
    /// dropped on the wire, delivery resumes from `up` on.
    flaky: HashMap<(usize, usize), (u64, u64)>,
    /// Crash the rank when its endpoint performs its `n`-th send
    /// ([`Endpoint::try_send`] call) — a mid-collective death, as opposed
    /// to the step-boundary `crashes`.
    crashes_at_op: HashMap<usize, u64>,
    /// Monotonic per-link delivery clock for flaky windows, shared across
    /// every clone of the plan (see [`FlakyClock`]).
    flaky_clock: FlakyClock,
}

/// Monotonic per-link message clock backing `FaultPlan::flaky_link`
/// windows. The clock is shared across every clone of the plan, so the
/// window is keyed to *plan* time: a full restart that rebuilds the mesh
/// from the same (cloned) plan continues the fault timeline instead of
/// re-arming the window from message zero — restart and in-group shrink
/// see the same faults, as a real intermittent cable would behave.
/// Fresh plans (even with the same seed) get fresh clocks.
#[derive(Clone, Default)]
struct FlakyClock(Arc<Mutex<HashMap<(usize, usize), u64>>>);

impl FlakyClock {
    /// Tick the clock for the ordered link `from → to` and return the
    /// message index *before* the tick (0 for the first message ever sent
    /// on the link under this plan).
    fn tick(&self, from: usize, to: usize) -> u64 {
        let mut m = self.0.lock().expect("flaky clock mutex poisoned");
        let c = m.entry((from, to)).or_insert(0);
        let n = *c;
        *c += 1;
        n
    }
}

impl fmt::Debug for FlakyClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.lock() {
            Ok(m) => write!(f, "FlakyClock({m:?})"),
            Err(_) => write!(f, "FlakyClock(<poisoned>)"),
        }
    }
}

/// Plan equality is about the *configured* faults, not how far a mesh has
/// advanced through them: the clock is runtime bookkeeping and never
/// distinguishes two plans.
impl PartialEq for FlakyClock {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl FaultPlan {
    /// An empty plan tagged with `seed` (the seed only matters for
    /// [`FaultPlan::random`]-style generation and for labelling runs).
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Delay every delivery on the ordered link `from → to` by `delay`.
    pub fn delay_link(mut self, from: usize, to: usize, delay: Duration) -> Self {
        self.delays.insert((from, to), delay);
        self
    }

    /// Deliver the first `n` messages on `from → to`, then drop the rest.
    pub fn drop_link_after(mut self, from: usize, to: usize, n: u64) -> Self {
        self.drop_after.insert((from, to), n);
        self
    }

    /// Crash `rank` when it begins step `step` (0-based; see
    /// [`Endpoint::begin_step`]).
    pub fn crash_rank_at_step(mut self, rank: usize, step: u64) -> Self {
        self.crashes.insert(rank, step);
        self
    }

    /// Crash `rank` when it performs its `op`-th send (0-based count of
    /// [`Endpoint::try_send`] calls): the endpoint tears down *inside*
    /// whatever collective is running, so peers observe the failure
    /// mid-algorithm rather than at a step boundary.
    pub fn crash_rank_at_op(mut self, rank: usize, op: u64) -> Self {
        self.crashes_at_op.insert(rank, op);
        self
    }

    /// Make `rank` a persistent straggler: every delivery on each of its
    /// outgoing links is deferred by `delay` — the threaded-transport
    /// analogue of the DES's slow-worker profile. An explicit
    /// [`FaultPlan::delay_link`] on a specific link takes precedence.
    pub fn straggle_rank(mut self, rank: usize, delay: Duration) -> Self {
        self.straggles.insert(rank, delay);
        self
    }

    /// Make the ordered link `from → to` flaky: deliveries with per-link
    /// message index in `[down, up)` are silently dropped, then the link
    /// heals and delivers again — the threaded-transport analogue of the
    /// DES's intermittent drop/restore profile.
    pub fn flaky_link(mut self, from: usize, to: usize, down: u64, up: u64) -> Self {
        assert!(down < up, "flaky window must be non-empty");
        self.flaky.insert((from, to), (down, up));
        self
    }

    /// Remove any crash scheduled for `rank` (step- or op-granular). Used
    /// by checkpoint-restart recovery: the replacement node a restart
    /// brings up does not re-inherit the fault that killed its
    /// predecessor.
    pub fn clear_crash(mut self, rank: usize) -> Self {
        self.crashes.remove(&rank);
        self.crashes_at_op.remove(&rank);
        self
    }

    /// Generate a deterministic single-fault scenario from `seed`: picks a
    /// fault shape, a victim link/rank and a trigger point. Same seed and
    /// world always yield the same plan.
    pub fn random(seed: u64, world: usize, steps: u64) -> Self {
        assert!(world > 1, "random fault plans need at least two ranks");
        let mut state = seed ^ 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let from = next() as usize % world;
        let to_raw = next() as usize % (world - 1);
        let to = if to_raw >= from { to_raw + 1 } else { to_raw };
        let step = next() % steps.max(1);
        match next() % 3 {
            0 => FaultPlan::new(seed).crash_rank_at_step(from, step),
            1 => FaultPlan::new(seed).drop_link_after(from, to, next() % 8),
            _ => {
                // A delay long enough that any sane test timeout trips.
                FaultPlan::new(seed).delay_link(from, to, Duration::from_secs(3600))
            }
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
            && self.drop_after.is_empty()
            && self.crashes.is_empty()
            && self.straggles.is_empty()
            && self.flaky.is_empty()
            && self.crashes_at_op.is_empty()
    }

    /// The step at which `rank` is scheduled to crash, if any.
    fn crash_step(&self, rank: usize) -> Option<u64> {
        self.crashes.get(&rank).copied()
    }

    /// The send index at which `rank` is scheduled to crash mid-collective,
    /// if any (see [`FaultPlan::crash_rank_at_op`]).
    fn crash_op(&self, rank: usize) -> Option<u64> {
        self.crashes_at_op.get(&rank).copied()
    }

    fn link_state_for(&self, rank: usize, world: usize) -> Option<LinkFaults> {
        let mut delays = vec![None; world];
        let mut drop_after = vec![None; world];
        let mut flaky = vec![None; world];
        let straggle = self.straggles.get(&rank).copied();
        let mut any = straggle.is_some();
        for to in 0..world {
            // A persistent straggler delays every outgoing link; an
            // explicit per-link delay overrides it for that link.
            delays[to] = straggle.filter(|_| to != rank);
            if let Some(&d) = self.delays.get(&(rank, to)) {
                delays[to] = Some(d);
                any = true;
            }
            if let Some(&n) = self.drop_after.get(&(rank, to)) {
                drop_after[to] = Some(n);
                any = true;
            }
            if let Some(&w) = self.flaky.get(&(rank, to)) {
                flaky[to] = Some(w);
                any = true;
            }
        }
        any.then_some(LinkFaults {
            delays,
            drop_after,
            flaky,
            delivered: vec![0; world],
            rank,
            clock: self.flaky_clock.clone(),
            delay_tx: (0..world).map(|_| None).collect(),
        })
    }
}

/// Per-rank outgoing-link fault state (sender side).
struct LinkFaults {
    delays: Vec<Option<Duration>>,
    drop_after: Vec<Option<u64>>,
    /// Flaky windows `[down, up)` of per-link message indices that are
    /// dropped; delivery resumes once the window has passed. Window
    /// indices are read off the plan-shared [`FlakyClock`], not the
    /// per-mesh `delivered` counters, so a relaunch cannot re-arm them.
    flaky: Vec<Option<(u64, u64)>>,
    delivered: Vec<u64>,
    /// This sender's rank — the `from` half of the clock's link key.
    rank: usize,
    /// Plan-shared monotonic message clock for flaky links.
    clock: FlakyClock,
    /// Lazily spawned store-and-forward workers for delayed links; the
    /// worker exits once this sender half is dropped and its queue drains.
    delay_tx: Vec<Option<Sender<Packet>>>,
}

/// Spawn the store-and-forward worker for one delayed link: it receives
/// each packet, sleeps the link delay, then forwards — preserving per-link
/// ordering (delays accumulate for back-to-back messages, like a
/// one-packet-deep slow pipe). A forward failure means the destination is
/// gone; the packet is dropped, which is indistinguishable on the wire.
fn spawn_delay_worker(out: Sender<Packet>, delay: Duration) -> Sender<Packet> {
    let (dtx, drx) = unbounded::<Packet>();
    std::thread::spawn(move || {
        while let Ok(p) = drx.recv() {
            std::thread::sleep(delay);
            let _ = out.send(p);
        }
    });
    dtx
}

/// How long a receive polls its link before it parks: twice what a parked
/// receive costs. On the reference host that is ~20 µs in a ping-pong (two
/// hops take ~40 µs with every receive parked, ~1 µs spinning) and 40–60 µs
/// inside a real step, where the core had time to go idle and the sender
/// pays the wake (`serve_read`, two receives per rank per step: 0.39 → 0.26
/// ms). Twice the in-situ figure is the 2-competitive choice — a spin in
/// vain costs at most the park it failed to save, twice — and the margin
/// matters: a rank that did park resumes a wake-up late, and a peer whose
/// budget is shorter than that lateness parks in turn (at 40 µs `serve_read`
/// is bimodal, at 20 µs nothing is gained; DESIGN §3.5 has the sweep). A
/// constant, not an option: the input that changes the answer is whether the
/// peers can all be running, and [`mesh_with_faults`] reads that off the host.
const SPIN_BUDGET: Duration = Duration::from_micros(80);

/// Per-rank handle onto the mesh. Sending never blocks (channels are
/// unbounded) unless a link-delay fault is configured; receiving waits
/// until the addressed peer has sent, bounded by the configured deadline:
/// it polls the link for up to `SPIN_BUDGET`, then parks on the channel
/// (`Endpoint::wait`, the only receive path).
pub struct Endpoint {
    rank: usize,
    world: usize,
    tx: Vec<Sender<Packet>>,
    rx: Vec<Receiver<Packet>>,
    bytes_sent: u64,
    msgs_sent: u64,
    /// Bytes of sent payloads that were exclusively owned (materialised)
    /// rather than shared; see [`Packet::copied_nbytes`].
    bytes_copied: u64,
    /// Per-destination (messages, bytes) pushed onto the wire; feeds the
    /// static plan verifier's cross-validation against extracted plans.
    sent_per_peer: Vec<(u64, u64)>,
    /// Receive-side counters. `Cell` because every receive path takes
    /// `&self`; endpoints are owned by one worker thread (`Send`, not
    /// shared), so interior mutability is safe here.
    bytes_recv: Cell<u64>,
    msgs_recv: Cell<u64>,
    /// Receives satisfied while polling / receives that reached the
    /// blocking call: where a receive's time went, without a clock.
    spun: Cell<u64>,
    parked: Cell<u64>,
    /// Whether a receive polls before it parks: false when the mesh has
    /// more ranks than the host has cores, where a spinning receiver would
    /// burn the time slice its peer needs to send.
    spin: bool,
    /// Default deadline for `try_recv`; `None` = block forever (the
    /// fault-free fast path).
    deadline: Option<Duration>,
    /// Outgoing link faults, if any were configured for this rank.
    faults: Option<LinkFaults>,
    /// Step at which this rank is scheduled to crash.
    crash_at_step: Option<u64>,
    /// Send index at which this rank is scheduled to crash mid-collective.
    crash_at_op: Option<u64>,
    /// [`Endpoint::try_send`] calls made so far.
    ops: u64,
    /// Steps begun so far (driven by [`Endpoint::begin_step`]).
    step: u64,
    crashed: bool,
}

impl Endpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world(&self) -> usize {
        self.world
    }

    /// The deadline `try_recv` applies (`None` = blocking).
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Set the default receive deadline (`None` restores blocking receives).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Send `packet` to rank `to` (self-sends allowed and delivered).
    /// Panics on failure — use [`Endpoint::try_send`] to handle it.
    pub fn send(&mut self, to: usize, packet: Packet) {
        if let Err(e) = self.try_send(to, packet) {
            panic!("peer endpoint dropped mid-collective: {e}");
        }
    }

    /// Send `packet` to rank `to`, reporting failure as a typed error.
    /// Injected link faults apply here: a delayed link defers delivery
    /// (the sender never blocks, so abort notifications always get out),
    /// a dropped link counts the traffic but never delivers.
    pub fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        if self.crashed {
            return Err(CommError::Injected { rank: self.rank });
        }
        // Op-granular crash: die *inside* whatever collective is running.
        let op = self.ops;
        self.ops += 1;
        if self.crash_at_op.is_some_and(|k| op >= k) {
            self.crash();
            return Err(CommError::Injected { rank: self.rank });
        }
        self.bytes_sent += packet.nbytes() as u64;
        self.bytes_copied += packet.copied_nbytes() as u64;
        self.msgs_sent += 1;
        self.sent_per_peer[to].0 += 1;
        self.sent_per_peer[to].1 += packet.nbytes() as u64;
        if let Some(f) = self.faults.as_mut() {
            let n = f.delivered[to];
            f.delivered[to] = n + 1;
            if let Some(cap) = f.drop_after[to] {
                if n >= cap {
                    return Ok(()); // silently dropped on the wire
                }
            }
            if let Some((down, up)) = f.flaky[to] {
                // Window indices come off the plan-shared clock: a mesh
                // rebuilt from a clone of the plan (checkpoint restart)
                // continues the fault timeline where the previous
                // incarnation left it instead of re-arming the window.
                let k = f.clock.tick(f.rank, to);
                if k >= down && k < up {
                    return Ok(()); // dropped inside the flaky window
                }
            }
            if let Some(delay) = f.delays[to] {
                let out = &self.tx[to];
                let dtx =
                    f.delay_tx[to].get_or_insert_with(|| spawn_delay_worker(out.clone(), delay));
                // The worker holds its receiver for as long as this sender
                // half exists, so this send cannot observe disconnection.
                return dtx.send(packet).map_err(|_| CommError::PeerGone { peer: to });
            }
        }
        self.tx[to].send(packet).map_err(|_| CommError::PeerGone { peer: to })
    }

    /// Receive the next packet sent by rank `from`. Panics on failure —
    /// use [`Endpoint::try_recv`] to handle it.
    pub fn recv(&self, from: usize) -> Packet {
        match self.try_recv(from) {
            Ok(p) => p,
            Err(e) => panic!("peer endpoint dropped mid-collective: {e}"),
        }
    }

    /// Receive the next packet from `from`, honouring the endpoint's
    /// configured deadline (unbounded when none is set).
    pub fn try_recv(&self, from: usize) -> Result<Packet, CommError> {
        self.wait(from, self.deadline)
    }

    /// Receive from `from` with an explicit deadline: `Timeout { waited:
    /// deadline }` no later than `deadline` plus scheduling slack.
    pub fn recv_timeout(&self, from: usize, deadline: Duration) -> Result<Packet, CommError> {
        self.wait(from, Some(deadline))
    }

    /// The one place a receive waits: poll the link for at most
    /// [`SPIN_BUDGET`], then block exactly as the transport always has. The
    /// spin is [`Endpoint::poll`], so its error contract is `poll`'s, and
    /// the time it took counts against `deadline`. An oversubscribed mesh
    /// (`!self.spin`) goes straight to the blocking call.
    fn wait(&self, from: usize, deadline: Option<Duration>) -> Result<Packet, CommError> {
        if self.crashed {
            return Err(CommError::Injected { rank: self.rank });
        }
        let mut left = deadline;
        if self.spin {
            let budget = deadline.map_or(SPIN_BUDGET, |d| d.min(SPIN_BUDGET));
            let start = Instant::now();
            loop {
                if let Some(p) = self.poll(from)? {
                    self.spun.set(self.spun.get() + 1);
                    return Ok(p);
                }
                if start.elapsed() >= budget {
                    break;
                }
                std::hint::spin_loop();
            }
            left = deadline.map(|d| d.saturating_sub(start.elapsed()));
        }
        self.parked.set(self.parked.get() + 1);
        let got = match left {
            None => self.rx[from].recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(d) => self.rx[from].recv_timeout(d),
        };
        match (got, deadline) {
            (Ok(p), _) => {
                self.note_recv(&p);
                Ok(p)
            }
            (Err(RecvTimeoutError::Timeout), Some(waited)) => {
                Err(CommError::Timeout { peer: from, waited })
            }
            (Err(_), _) => Err(CommError::PeerGone { peer: from }),
        }
    }

    /// Take a packet already queued from `from` without blocking:
    /// `Ok(None)` when the link is merely empty, [`CommError::PeerGone`]
    /// once the peer is gone and its queued packets have drained.
    fn poll(&self, from: usize) -> Result<Option<Packet>, CommError> {
        if self.crashed {
            return Err(CommError::Injected { rank: self.rank });
        }
        match self.rx[from].try_recv() {
            Ok(p) => {
                self.note_recv(&p);
                Ok(Some(p))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::PeerGone { peer: from }),
        }
    }

    /// Count a successfully received packet.
    fn note_recv(&self, p: &Packet) {
        self.bytes_recv.set(self.bytes_recv.get() + p.nbytes() as u64);
        self.msgs_recv.set(self.msgs_recv.get() + 1);
    }

    /// Mark the start of a training step. If the fault plan scheduled this
    /// rank to crash at the current step, the endpoint is torn down and
    /// [`CommError::Injected`] is returned; the caller must stop using it.
    pub fn begin_step(&mut self) -> Result<u64, CommError> {
        if self.crashed {
            return Err(CommError::Injected { rank: self.rank });
        }
        let step = self.step;
        if self.crash_at_step.is_some_and(|k| step >= k) {
            self.crash();
            return Err(CommError::Injected { rank: self.rank });
        }
        self.step += 1;
        Ok(step)
    }

    /// Simulate this rank dying: all channel halves are dropped so peers'
    /// sends and receives observe disconnection ([`CommError::PeerGone`])
    /// instead of blocking forever, and every further operation on this
    /// endpoint returns [`CommError::Injected`].
    pub fn crash(&mut self) {
        self.crashed = true;
        self.tx.clear();
        self.rx.clear();
        // Dropping the delay-worker senders lets store-and-forward threads
        // drain and exit.
        self.faults = None;
    }

    /// Total bytes this endpoint has pushed onto the wire.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages this endpoint has pushed onto the wire.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Bytes of sent payloads that were materialised (deep-copied or
    /// staged) rather than shared zero-copy storage. Always ≤
    /// [`Endpoint::bytes_sent`]; the difference is traffic that moved
    /// without touching memory bandwidth.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Messages this endpoint has sent to `peer`.
    pub fn msgs_sent_to(&self, peer: usize) -> u64 {
        self.sent_per_peer[peer].0
    }

    /// Bytes this endpoint has sent to `peer`.
    pub fn bytes_sent_to(&self, peer: usize) -> u64 {
        self.sent_per_peer[peer].1
    }

    /// Always 0: no receive path retries. The name is frozen by the
    /// benchmark and goes in the ROADMAP's "Benchmark revision 2" item.
    pub fn recv_retries(&self) -> u64 {
        0
    }

    /// Equal to [`Endpoint::msgs_sent`]. The name is frozen by the
    /// benchmark and goes with [`slot_mesh`] in the ROADMAP's "Benchmark
    /// revision 2" item.
    pub fn control_msgs(&self) -> u64 {
        self.msgs_sent
    }

    /// Export this endpoint's transport counters into an
    /// [`embrace_obs::Metrics`] registry under `transport.*` names.
    /// Counters *add*, so merging per-rank registries yields mesh totals.
    pub fn export_metrics(&self, m: &mut embrace_obs::Metrics) {
        m.inc("transport.bytes_sent", self.bytes_sent);
        m.inc("transport.bytes_copied", self.bytes_copied);
        m.inc("transport.msgs_sent", self.msgs_sent);
        m.inc("transport.bytes_received", self.bytes_recv.get());
        m.inc("transport.msgs_received", self.msgs_recv.get());
        m.inc("transport.recv_spun", self.spun.get());
        m.inc("transport.recv_parked", self.parked.get());
        m.inc("transport.control_msgs", self.control_msgs());
    }
}

/// Construct a full mesh of `world` endpoints with no fault state and
/// blocking receives — the fast path, identical to the original transport.
pub fn mesh(world: usize) -> Vec<Endpoint> {
    mesh_with_faults(world, &FaultPlan::default(), None)
}

/// Construct a full mesh with the given fault plan attached and `deadline`
/// as every endpoint's default receive deadline. An empty plan plus `None`
/// deadline is exactly [`mesh`].
pub fn mesh_with_faults(
    world: usize,
    plan: &FaultPlan,
    deadline: Option<Duration>,
) -> Vec<Endpoint> {
    assert!(world > 0, "mesh needs at least one rank");
    // Decided once per mesh, from what the host can run at the same time.
    let spin = std::thread::available_parallelism().is_ok_and(|cores| world <= cores.get());
    // channels[i][j]: i -> j
    let mut senders: Vec<Vec<Option<Sender<Packet>>>> =
        (0..world).map(|_| (0..world).map(|_| None).collect()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Packet>>>> =
        (0..world).map(|_| (0..world).map(|_| None).collect()).collect();
    for (i, row) in senders.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            let (tx, rx) = unbounded();
            *slot = Some(tx);
            receivers[j][i] = Some(rx);
        }
    }
    senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (tx_row, rx_row))| Endpoint {
            rank,
            world,
            tx: tx_row.into_iter().map(Option::unwrap).collect(),
            rx: rx_row.into_iter().map(Option::unwrap).collect(),
            bytes_sent: 0,
            msgs_sent: 0,
            bytes_copied: 0,
            sent_per_peer: vec![(0, 0); world],
            bytes_recv: Cell::new(0),
            msgs_recv: Cell::new(0),
            spun: Cell::new(0),
            parked: Cell::new(0),
            spin,
            deadline,
            faults: plan.link_state_for(rank, world),
            crash_at_step: plan.crash_step(rank),
            crash_at_op: plan.crash_op(rank),
            ops: 0,
            step: 0,
            crashed: false,
        })
        .collect()
}

/// Alias of [`mesh`]: the name is frozen by the benchmark and is removed
/// with its next revision (the ROADMAP's "Benchmark revision 2" item).
pub fn slot_mesh(world: usize) -> Vec<Endpoint> {
    mesh(world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_tensor::{F32_BYTES, INDEX_BYTES};
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let mut eps = mesh(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        thread::scope(|s| {
            s.spawn(|| {
                a.send(1, Packet::Tokens(vec![7, 8].into()));
            });
            s.spawn(|| {
                assert_eq!(b.recv(0).into_tokens(), vec![7, 8]);
                b.send(1, Packet::Empty); // self-send
                assert_eq!(b.recv(1), Packet::Empty);
            });
        });
        // Receive-side counters mirror the sender's view.
        let mut m = embrace_obs::Metrics::new();
        a.export_metrics(&mut m);
        assert_eq!(m.counter("transport.msgs_received"), 0);
        b.export_metrics(&mut m);
        assert_eq!(m.counter("transport.msgs_sent"), 2);
        assert_eq!(m.counter("transport.msgs_received"), 2);
        assert_eq!(m.counter("transport.bytes_received"), m.counter("transport.bytes_sent"));
    }

    #[test]
    fn per_source_ordering_preserved() {
        let mut eps = mesh(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for k in 0..10u32 {
            a.send(1, Packet::Tokens(vec![k].into()));
        }
        for k in 0..10u32 {
            assert_eq!(b.recv(0).into_tokens(), vec![k]);
        }
    }

    #[test]
    fn byte_accounting() {
        let mut eps = mesh(2);
        let mut a = eps.remove(0);
        a.send(1, Packet::Dense(DenseTensor::zeros(2, 3)));
        assert_eq!(a.bytes_sent(), 2 * 3 * F32_BYTES as u64);
        assert_eq!(a.msgs_sent(), 1);
    }

    #[test]
    fn copy_accounting_distinguishes_shared_from_owned() {
        let mut eps = mesh(2);
        let mut a = eps.remove(0);
        let t = DenseTensor::zeros(2, 3);
        // Shared handle on the wire: logical bytes count, copied bytes 0.
        a.send(1, Packet::Dense(t.share()));
        assert_eq!(a.bytes_sent(), 24);
        assert_eq!(a.bytes_copied(), 0);
        // Exclusively owned payload counts as copied. (`t` itself is still
        // shared — its aliased packet sits in rank 1's queue.)
        a.send(1, Packet::Dense(DenseTensor::zeros(2, 3)));
        assert_eq!(a.bytes_sent(), 48);
        assert_eq!(a.bytes_copied(), 24);
        drop(t);
        // An exclusively owned token payload counts as copied…
        a.send(1, Packet::Tokens(vec![1, 2].into()));
        assert_eq!(a.bytes_copied(), 24 + 2 * TOKEN_BYTES as u64);
        // …but a shared handle rides the wire copy-free, like Dense.
        let toks: TokenBuf = vec![3, 4, 5].into();
        a.send(1, Packet::Tokens(toks.share()));
        assert_eq!(a.bytes_sent(), 48 + 5 * TOKEN_BYTES as u64);
        assert_eq!(a.bytes_copied(), 24 + 2 * TOKEN_BYTES as u64);
        let mut m = embrace_obs::Metrics::new();
        a.export_metrics(&mut m);
        assert_eq!(m.counter("transport.bytes_copied"), a.bytes_copied());
    }

    #[test]
    fn shared_sparse_payload_reports_zero_copied() {
        let s = RowSparse::new(vec![0, 3], DenseTensor::zeros(2, 2));
        let shared = s.share();
        assert_eq!(Packet::Sparse(shared).copied_nbytes(), 0);
        drop(s);
        let owned = RowSparse::new(vec![1], DenseTensor::zeros(1, 2));
        assert_eq!(Packet::Sparse(owned).copied_nbytes(), INDEX_BYTES + 2 * F32_BYTES);
    }

    #[test]
    fn packet_sizes() {
        assert_eq!(Packet::Empty.nbytes(), 0);
        assert_eq!(Packet::Tokens(vec![1, 2, 3].into()).nbytes(), 12);
        assert_eq!(Packet::Tokens(vec![9].into()).nbytes(), TOKEN_BYTES);
        assert_eq!(Packet::Abort { origin: 0 }.nbytes(), TOKEN_BYTES);
        let s = RowSparse::new(vec![0], DenseTensor::zeros(1, 4));
        assert_eq!(Packet::Sparse(s).nbytes(), INDEX_BYTES + 4 * F32_BYTES);
    }

    #[test]
    fn typed_extraction_reports_protocol_and_abort() {
        assert_eq!(
            Packet::Empty.try_into_dense(),
            Err(CommError::Protocol { expected: "Dense", got: "Empty" })
        );
        assert_eq!(
            Packet::Abort { origin: 3 }.try_into_tokens(),
            Err(CommError::Aborted { origin: 3 })
        );
        assert_eq!(Packet::Tokens(vec![1].into()).try_into_tokens(), Ok(vec![1].into()));
        assert_eq!(Packet::Empty.try_into_empty(), Ok(()));
    }

    #[test]
    fn recv_timeout_times_out() {
        let eps = mesh(2);
        let err = eps[0].recv_timeout(1, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, CommError::Timeout { peer: 1, .. }), "{err:?}");
    }

    #[test]
    fn dropped_peer_yields_peer_gone_after_drain() {
        let mut eps = mesh(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.try_send(1, Packet::Empty).unwrap();
        // Rank 0's endpoint dies; queued packets drain before the disconnect
        // is reported.
        drop(a);
        assert_eq!(b.try_recv(0), Ok(Packet::Empty));
        assert_eq!(b.try_recv(0), Err(CommError::PeerGone { peer: 0 }));
    }

    #[test]
    fn crash_disconnects_peers_and_poisons_self() {
        let mut eps = mesh(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.crash();
        assert!(a.crashed);
        assert_eq!(a.try_send(1, Packet::Empty), Err(CommError::Injected { rank: 0 }));
        assert_eq!(a.try_recv(1), Err(CommError::Injected { rank: 0 }));
        // The survivor sees disconnection, not a hang.
        assert_eq!(b.try_recv(0), Err(CommError::PeerGone { peer: 0 }));
        assert_eq!(b.try_send(0, Packet::Empty), Err(CommError::PeerGone { peer: 0 }));
    }

    #[test]
    fn begin_step_triggers_scheduled_crash() {
        let plan = FaultPlan::new(1).crash_rank_at_step(0, 2);
        let mut eps = mesh_with_faults(2, &plan, None);
        let mut a = eps.remove(0);
        assert_eq!(a.begin_step(), Ok(0));
        assert_eq!(a.begin_step(), Ok(1));
        assert_eq!(a.begin_step(), Err(CommError::Injected { rank: 0 }));
        assert!(a.crashed);
        // Idempotent after the crash.
        assert_eq!(a.begin_step(), Err(CommError::Injected { rank: 0 }));
    }

    #[test]
    fn drop_after_n_silently_discards() {
        let plan = FaultPlan::new(2).drop_link_after(0, 1, 2);
        let mut eps = mesh_with_faults(2, &plan, Some(Duration::from_millis(30)));
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for k in 0..4u32 {
            a.try_send(1, Packet::Tokens(vec![k].into())).unwrap();
        }
        // First two delivered, rest dropped: receiver times out on the 3rd.
        assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![0]);
        assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![1]);
        assert!(matches!(b.try_recv(0), Err(CommError::Timeout { peer: 0, .. })));
        // Traffic accounting still counts the attempted sends.
        assert_eq!(a.msgs_sent(), 4);
    }

    #[test]
    fn link_delay_blocks_delivery_past_short_timeouts() {
        let plan = FaultPlan::new(3).delay_link(0, 1, Duration::from_millis(80));
        let mut eps = mesh_with_faults(2, &plan, None);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        thread::scope(|s| {
            s.spawn(move || {
                a.try_send(1, Packet::Empty).unwrap();
            });
            s.spawn(move || {
                // Too-short deadline trips...
                assert!(matches!(
                    b.recv_timeout(0, Duration::from_millis(5)),
                    Err(CommError::Timeout { .. })
                ));
                // ...but a deadline past the delay delivers the packet.
                assert_eq!(b.recv_timeout(0, Duration::from_secs(2)).unwrap(), Packet::Empty);
            });
        });
    }

    #[test]
    fn delayed_link_preserves_per_link_ordering() {
        let plan = FaultPlan::new(4).delay_link(0, 1, Duration::from_millis(2));
        let mut eps = mesh_with_faults(2, &plan, Some(Duration::from_secs(2)));
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for k in 0..20u32 {
            a.try_send(1, Packet::Tokens(vec![k].into())).unwrap();
        }
        for k in 0..20u32 {
            assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![k]);
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_nonempty() {
        for seed in 0..20 {
            let a = FaultPlan::random(seed, 4, 6);
            let b = FaultPlan::random(seed, 4, 6);
            assert_eq!(a, b, "seed {seed}");
            assert!(!a.is_empty(), "seed {seed}");
        }
        // Different seeds explore different scenarios.
        let distinct: std::collections::HashSet<String> =
            (0..20).map(|s| format!("{:?}", FaultPlan::random(s, 4, 6))).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn fault_free_mesh_has_no_fault_state() {
        let eps = mesh(3);
        for ep in &eps {
            assert!(ep.faults.is_none());
            assert!(ep.crash_at_step.is_none());
            assert!(ep.crash_at_op.is_none());
            assert!(ep.deadline().is_none());
        }
    }

    #[test]
    fn flaky_link_drops_window_then_heals() {
        let plan = FaultPlan::new(5).flaky_link(0, 1, 1, 3);
        let mut eps = mesh_with_faults(2, &plan, Some(Duration::from_millis(30)));
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for k in 0..5u32 {
            a.try_send(1, Packet::Tokens(vec![k].into())).unwrap();
        }
        // Message 0 delivered, 1 and 2 dropped, 3 and 4 delivered again.
        assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![0]);
        assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![3]);
        assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![4]);
        assert!(matches!(b.try_recv(0), Err(CommError::Timeout { peer: 0, .. })));
    }

    #[test]
    fn straggler_delays_every_outgoing_link() {
        let plan = FaultPlan::new(6).straggle_rank(0, Duration::from_millis(60));
        let mut eps = mesh_with_faults(3, &plan, None);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        thread::scope(|s| {
            s.spawn(move || {
                a.try_send(1, Packet::Empty).unwrap();
                a.try_send(2, Packet::Empty).unwrap();
            });
            for ep in [b, c] {
                s.spawn(move || {
                    // Both destination links are slow...
                    assert!(matches!(
                        ep.recv_timeout(0, Duration::from_millis(5)),
                        Err(CommError::Timeout { .. })
                    ));
                    // ...but delivery does eventually happen.
                    assert_eq!(ep.recv_timeout(0, Duration::from_secs(2)).unwrap(), Packet::Empty);
                });
            }
        });
    }

    #[test]
    fn explicit_delay_overrides_straggler_on_that_link() {
        let plan = FaultPlan::new(7).straggle_rank(0, Duration::from_secs(3600)).delay_link(
            0,
            1,
            Duration::from_millis(1),
        );
        let mut eps = mesh_with_faults(2, &plan, None);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        thread::scope(|s| {
            s.spawn(move || {
                a.try_send(1, Packet::Empty).unwrap();
            });
            s.spawn(move || {
                assert_eq!(b.recv_timeout(0, Duration::from_secs(2)).unwrap(), Packet::Empty);
            });
        });
    }

    #[test]
    fn crash_at_op_fires_mid_collective() {
        let plan = FaultPlan::new(8).crash_rank_at_op(0, 2);
        let mut eps = mesh_with_faults(2, &plan, Some(Duration::from_millis(30)));
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert!(a.try_send(1, Packet::Empty).is_ok());
        assert!(a.try_send(1, Packet::Empty).is_ok());
        // Third send is the op-2 crash: the endpoint dies mid-sequence.
        assert_eq!(a.try_send(1, Packet::Empty), Err(CommError::Injected { rank: 0 }));
        assert!(a.crashed);
        assert_eq!(b.try_recv(0).unwrap(), Packet::Empty);
        assert_eq!(b.try_recv(0).unwrap(), Packet::Empty);
        assert_eq!(b.try_recv(0), Err(CommError::PeerGone { peer: 0 }));
    }

    #[test]
    fn clear_crash_prunes_both_granularities() {
        let plan = FaultPlan::new(9)
            .crash_rank_at_step(0, 1)
            .crash_rank_at_op(1, 5)
            .crash_rank_at_step(2, 3);
        let pruned = plan.clear_crash(0).clear_crash(1);
        assert_eq!(pruned.crash_step(0), None);
        assert_eq!(pruned.crash_op(1), None);
        assert_eq!(pruned.crash_step(2), Some(3));
        assert!(!pruned.is_empty());
    }

    #[test]
    fn tagged_and_reform_packets_account_wire_bytes() {
        let inner = Packet::Tokens(vec![1, 2, 3].into());
        let tagged = Packet::Tagged { epoch: 4, inner: Box::new(inner.clone()) };
        assert_eq!(tagged.nbytes(), 8 + inner.nbytes());
        assert_eq!(tagged.kind(), "Tagged");
        let report = Packet::Reform(ReformMsg::Report { origin: 2, epoch: 1 });
        assert_eq!(report.nbytes(), TOKEN_BYTES + 8);
        let commit = Packet::Reform(ReformMsg::Commit { epoch: 2, members: vec![0, 1, 3] });
        assert_eq!(commit.nbytes(), 8 + 3 * TOKEN_BYTES);
        assert_eq!(commit.kind(), "Reform");
    }

    #[test]
    fn poll_drains_without_blocking_and_reports_failures() {
        let mut eps = mesh(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert_eq!(b.poll(0), Ok(None));
        a.try_send(1, Packet::Empty).unwrap();
        a.try_send(1, Packet::Empty).unwrap();
        assert_eq!(b.poll(0), Ok(Some(Packet::Empty)));
        assert_eq!(b.msgs_recv.get(), 1);
        // A dead peer reads as PeerGone, but only once its queue drained.
        drop(a);
        assert_eq!(b.poll(0), Ok(Some(Packet::Empty)));
        assert_eq!(b.poll(0), Err(CommError::PeerGone { peer: 0 }));
        // A crashed endpoint answers like `try_recv`, not with a panic.
        b.crash();
        assert_eq!(b.poll(0), Err(CommError::Injected { rank: 1 }));
    }

    /// A world-2 mesh whose receives spin (or not) whatever the host's
    /// core count says, so the wait tests mean the same everywhere.
    fn pair(spin: bool) -> (Endpoint, Endpoint) {
        let mut eps = mesh(2);
        eps.iter_mut().for_each(|ep| ep.spin = spin);
        let b = eps.pop().unwrap();
        (eps.pop().unwrap(), b)
    }

    #[test]
    fn queued_packet_is_taken_spinning_and_a_late_one_after_one_park() {
        let (mut a, mut b) = pair(true);
        a.send(1, Packet::Empty);
        assert_eq!(b.try_recv(0), Ok(Packet::Empty));
        assert_eq!((b.spun.get(), b.parked.get()), (1, 0));
        thread::scope(|s| {
            s.spawn(|| {
                // Starts the clock only once the receiver is about to wait.
                assert_eq!(a.recv(1), Packet::Empty);
                thread::sleep(Duration::from_millis(5));
                a.send(1, Packet::Tokens(vec![9].into()));
            });
            b.send(0, Packet::Empty);
            assert_eq!(b.recv(0).into_tokens(), vec![9]);
        });
        assert_eq!((b.spun.get(), b.parked.get()), (1, 1));
        let mut m = embrace_obs::Metrics::new();
        b.export_metrics(&mut m);
        assert_eq!(m.counter("transport.recv_spun"), 1);
        assert_eq!(m.counter("transport.recv_parked"), 1);
        assert_eq!(m.counter("transport.msgs_received"), 2);
    }

    #[test]
    fn spinning_reports_failures_exactly_as_blocking_does() {
        for spin in [true, false] {
            // An Abort is a packet; a dead peer is PeerGone once drained.
            let (mut a, b) = pair(spin);
            a.send(1, Packet::Abort { origin: 0 });
            drop(a);
            assert_eq!(b.try_recv(0), Ok(Packet::Abort { origin: 0 }), "spin={spin}");
            assert_eq!(b.try_recv(0), Err(CommError::PeerGone { peer: 0 }), "spin={spin}");
            let d = Duration::from_millis(1);
            assert_eq!(b.recv_timeout(0, d), Err(CommError::PeerGone { peer: 0 }), "spin={spin}");
            // The spinning endpoint never reached the blocking call.
            assert_eq!(b.parked.get(), if spin { 0 } else { 3 });
            // A crashed endpoint answers Injected before it looks at a link.
            let (_a, mut b) = pair(spin);
            b.crash();
            assert_eq!(b.try_recv(0), Err(CommError::Injected { rank: 1 }), "spin={spin}");
            assert_eq!(b.recv_timeout(0, d), Err(CommError::Injected { rank: 1 }), "spin={spin}");
        }
    }

    #[test]
    fn what_a_peer_does_while_the_receiver_waits_reads_the_same_spun_or_parked() {
        // Whether it lands in the spin or after the park is up to the OS;
        // the answer may not depend on it.
        type Act = fn(Endpoint);
        let gone = Err(CommError::PeerGone { peer: 0 });
        let cases: [(Act, Result<Packet, CommError>); 3] = [
            (drop, gone.clone()),
            (|mut a| a.crash(), gone),
            (|mut a| a.send(1, Packet::Abort { origin: 0 }), Ok(Packet::Abort { origin: 0 })),
        ];
        for (act, expect) in cases {
            for spin in [true, false] {
                let (a, b) = pair(spin);
                thread::scope(|s| {
                    s.spawn(move || act(a));
                    assert_eq!(b.try_recv(0), expect, "spin={spin}");
                });
            }
        }
    }

    #[test]
    fn spin_time_counts_against_the_deadline() {
        let (_a, spinning) = pair(true);
        let (_c, blocking) = pair(false);
        let timed = |ep: &Endpoint, d: Duration| {
            let start = Instant::now();
            assert_eq!(ep.recv_timeout(0, d), Err(CommError::Timeout { peer: 0, waited: d }));
            start.elapsed()
        };
        // Best of a few tries: one undisturbed attempt is what is bounded.
        let best = |ep: &Endpoint, d: Duration| (0..8).map(|_| timed(ep, d)).min().unwrap();
        // A deadline inside the budget is spun out and no longer.
        let short = SPIN_BUDGET / 4;
        assert!(best(&spinning, short) < short + SPIN_BUDGET / 2);
        // A longer one parks for the remainder only. The OS timer's own
        // overshoot (~90 µs here) is on both sides of the comparison.
        let long = Duration::from_millis(1);
        let (t_spin, t_block) = (best(&spinning, long), best(&blocking, long));
        assert!(t_spin >= long && t_spin < t_block + SPIN_BUDGET / 2, "{t_spin:?} vs {t_block:?}");
        assert_eq!(spinning.spun.get(), 0);
        assert_eq!(spinning.parked.get(), 16);
    }

    #[test]
    fn oversubscribed_mesh_never_spins() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert!(mesh(cores).iter().all(|ep| ep.spin));
        let world = cores + 1;
        let mut eps = mesh(world);
        thread::scope(|s| {
            for ep in &mut eps {
                s.spawn(move || {
                    let mut buf = vec![ep.rank() as f32; 3 * world];
                    crate::ops::ring_allreduce(ep, &mut buf);
                    assert_eq!(buf[0], (world * (world - 1) / 2) as f32);
                });
            }
        });
        for ep in &eps {
            assert_eq!(ep.spun.get(), 0, "rank {} spun on an oversubscribed mesh", ep.rank());
            assert_eq!(ep.parked.get(), ep.msgs_recv.get());
            assert!(ep.parked.get() > 0);
        }
    }

    #[test]
    fn control_msgs_equals_msgs_sent() {
        let mut eps = mesh(2);
        let mut a = eps.remove(0);
        a.try_send(1, Packet::Empty).unwrap();
        a.try_send(1, Packet::Abort { origin: 0 }).unwrap();
        a.try_send(1, Packet::Reform(ReformMsg::Report { origin: 0, epoch: 1 })).unwrap();
        a.try_send(0, Packet::Tokens(vec![1, 2].into())).unwrap();
        assert_eq!(a.msgs_sent(), 4);
        assert_eq!(a.control_msgs(), a.msgs_sent());
        let mut m = embrace_obs::Metrics::default();
        a.export_metrics(&mut m);
        assert_eq!(m.counter("transport.control_msgs"), 4);
    }
}

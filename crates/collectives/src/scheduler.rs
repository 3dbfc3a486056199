//! The communication scheduler (§5.1) with 2D scheduling (§5.2), run
//! cooperatively on the rank thread.
//!
//! The paper's prototype "holds a priority queue and a communication
//! thread. Communications are performed in the communication thread
//! according to the priority queue." Here the queue is the same and the
//! thread is the caller's, and the transport is any [`Comm`]: an owned
//! [`Endpoint`] (the default), or `&mut` an endpoint or elastic group for
//! a scheduler scoped to one training step. [`CommScheduler::submit`] only
//! enqueues and never communicates, and every other call — [`Ticket::wait`],
//! [`CommScheduler::flush`], [`CommScheduler::progress`] (one unit: the
//! quantum a BP hook hands the comm plane) and `Drop` (drains) — runs
//! **units** of the queued collectives on the calling thread. On the
//! in-process mesh a transfer is a pointer hand-off, so a thread of its own
//! overlapped nothing but the reduce kernel and cost two hand-offs per op;
//! what asynchrony buys on a real network is reproduced by the DES
//! (`embrace-simnet`), which keeps modelling the asynchronous thread. On a
//! thread with the `embrace_obs::recorder` installed every unit lies inside
//! a `collective` span: a whole op's is its [`crate::ops`] function's, a
//! partitioned op records one per unit.
//!
//! # Units, priorities and preemption
//!
//! Every op runs on the [`crate::ops`] machine of its kind over the same
//! [`crate::schedule`] the blocking functions run, so every result is
//! bitwise-identical to the blocking op's. An op that runs whole — every op
//! of [`CommScheduler::spawn`], every fence, and on a chunked scheduler
//! ([`CommScheduler::spawn_chunked`]) every ring op whose buffer fits one
//! segment — is one unit: its machine run to the end. A larger ring op is
//! tensor-partitioned, the second dimension of §5.2, into `chunk_bytes`
//! ring segments, one per unit; on a chunked scheduler a fan-out runs one
//! paired send + receive per unit. Before *every* unit one rule is
//! applied: if the queue head is strictly more urgent than the op on top of
//! the execution stack, or the stack is empty, the head is started (pushed)
//! and runs its first unit; otherwise the top op runs its next unit. A
//! strictly more urgent submission therefore preempts the op in flight at
//! its next unit boundary, and the preempted op resumes when it is on top
//! again.
//!
//! # The SPMD contract, and why it needs no controller
//!
//! Collectives are SPMD: a unit completes only when every rank runs it.
//! Nothing here runs concurrently with the caller, so a rank's queue and
//! stack at its k-th scheduler call are a function of its call sequence
//! alone; and every op runs as the same number of units on every rank, as
//! whole-or-partitioned is decided from values every rank shares (a ring
//! buffer's length, a fan-out's world). Hence ranks that make **the same
//! sequence of `submit` / `progress` / `wait` / `flush` calls** pick the
//! same unit every time, with no message saying so. EmbRace guarantees that
//! sequence (priorities and hook points are a pure function of the model
//! graph), and the data checks it: every message a unit sends carries an
//! 8-byte fingerprint of the sender's whole execution stack —
//! `(tag, priority, kind, units run)` of the running op and of every
//! suspended one, plus the segment size — and the receiver compares it
//! with its own before it touches the block. So a divergent enqueue, or a
//! rank that preempted at a different unit boundary, is
//! [`CommError::Protocol`] at the first receive that reads it, instead of a
//! deadlock or two segments mistaken for each other; the scheduler itself
//! sends nothing. The same submissions are recorded in a per-scheduler
//! [`SubmittedOp`] log that `embrace-analyzer`'s static plan verifier
//! consumes.
//!
//! # Abort contract
//!
//! Every failure is typed; nothing panics and nothing hangs:
//! - the op whose unit failed, every op suspended under it and every op
//!   queued behind it resolve to [`CommResult::Failed`] with that unit's
//!   error — the real cause (`Protocol`, `PeerGone`, `Timeout`, the
//!   origin's `Aborted`, the victim's own `Injected`);
//! - the failing rank tells its peers ([`crate::ops`]' abort broadcast) and
//!   drops its transport — an owned endpoint goes, so a peer blocked on it
//!   sees `Aborted` or `PeerGone`, or `Timeout` where the mesh has a
//!   deadline; a borrowed one goes back to its owner. So a divergence fails
//!   `Protocol` on every rank that reads a divergent header, and the
//!   origin's `Aborted` on a peer that reads none;
//! - [`CommScheduler::submit`] / [`CommScheduler::flush`] after a failure
//!   return a pre-failed ticket / `Failed(Aborted)`;
//! - an op only this rank enqueued is started by `Drop`'s drain and fails
//!   at its first receive: `Protocol` against a peer running another op,
//!   `PeerGone` against a peer that already left.

use crate::ops::{
    fail, fingerprint, ring_name, solo, FanoutMachine, OwnedSegment, RingBuf, RingMachine,
};
use crate::schedule::{Ring, RingPart, Traversal};
use crate::transport::{Comm, CommError, Endpoint};
use embrace_obs::{recorder, ClockDomain, SpanSet, TrackId, WallClock};
use embrace_tensor::{DenseTensor, RowSparse, TokenBuf, F32_BYTES};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One communication request.
pub enum CommOp {
    /// In-place sum-AllReduce of a dense buffer.
    AllReduceDense(Vec<f32>),
    /// The allreduce's reduce-scatter phase over a gradient it takes as a
    /// shared buffer and never writes: its first step sends views of it.
    /// The result is this rank's [`Ring::owned`] chunk of the sum, one
    /// [`OwnedSegment`] per segment of [`Ring::owned_segments`], each one
    /// add short: the owner's update takes the last add.
    ReduceScatterDense(DenseTensor),
    /// The allreduce's all-gather phase: a block whose [`Ring::owned`]
    /// range already holds this rank's values, and the segments a
    /// reduce-scatter returned, holding those values as the owner's update
    /// wrote them, which the first step sends as they are. The result is
    /// the block holding every rank's [`Ring::owned`] range.
    AllGatherDense(DenseTensor, Vec<OwnedSegment>),
    /// AlltoAll of dense blocks (one per destination rank) — EmbRace's
    /// lookup-result redistribution.
    AlltoAllDense(Vec<embrace_tensor::DenseTensor>),
    /// AlltoAllv of row-sparse shards (one per destination rank).
    AlltoAllSparse(Vec<RowSparse>),
    /// AllGather of token ids.
    GatherTokens(Vec<u32>),
    /// Fence: completes when everything enqueued before it has run.
    Flush,
}

impl CommOp {
    /// Short name of the operation kind — part of the cross-rank SPMD
    /// fingerprint and of [`SubmittedOp`] records.
    fn kind_str(&self) -> &'static str {
        match self {
            CommOp::AllReduceDense(_) => "allreduce_dense",
            CommOp::ReduceScatterDense(_) => "reduce_scatter_dense",
            CommOp::AllGatherDense(..) => "allgather_dense",
            CommOp::AlltoAllDense(_) => "alltoall_dense",
            CommOp::AlltoAllSparse(_) => "alltoallv_sparse",
            CommOp::GatherTokens(_) => "gather_tokens",
            CommOp::Flush => "flush",
        }
    }

    /// Wire bytes of this rank's outgoing payload (plan accounting; the
    /// per-rank value may legitimately differ across ranks for gathers).
    fn payload_bytes(&self) -> u64 {
        match self {
            CommOp::AllReduceDense(buf) => (buf.len() * embrace_tensor::F32_BYTES) as u64,
            CommOp::ReduceScatterDense(buf) | CommOp::AllGatherDense(buf, _) => buf.nbytes() as u64,
            CommOp::AlltoAllDense(parts) => parts.iter().map(|p| p.nbytes() as u64).sum(),
            CommOp::AlltoAllSparse(parts) => parts.iter().map(|p| p.nbytes() as u64).sum(),
            CommOp::GatherTokens(toks) => (toks.len() * embrace_tensor::TOKEN_BYTES) as u64,
            CommOp::Flush => 0,
        }
    }

    /// Move the op out, leaving a fence behind.
    fn take(&mut self) -> CommOp {
        std::mem::replace(self, CommOp::Flush)
    }

    /// Run the op whole on `ep`, as its blocking [`crate::ops`] function
    /// does: one unit, whose messages carry that function's one-op
    /// fingerprint.
    pub fn try_run<C: Comm>(self, ep: &mut C) -> Result<CommResult, CommError> {
        let (mut machine, _) = Machine::start(self, ep, None, &mut Vec::new());
        let name = machine.unit_name();
        let _span = name.map(|name| recorder::span(name, "collective"));
        let done = machine.advance(ep, name.map_or(0, solo))?;
        Ok(done.expect("a whole op is one unit"))
    }
}

/// The result of a completed [`CommOp`].
#[derive(Debug)]
pub enum CommResult {
    AllReduceDense(Vec<f32>),
    /// This rank's owned chunk of the sum, one add short, per ring segment.
    ReduceScatterDense(Vec<OwnedSegment>),
    AllGatherDense(DenseTensor),
    AlltoAllDense(Vec<embrace_tensor::DenseTensor>),
    AlltoAllSparse(Vec<RowSparse>),
    GatherTokens(Vec<TokenBuf>),
    Flush,
    /// The operation was not executed, or not to the end: divergent
    /// enqueues (SPMD fingerprint mismatch), a peer failure, an expired
    /// deadline, or an earlier failure on this scheduler. Always a typed
    /// [`CommError`]; the scheduler never panics a waiter.
    Failed(CommError),
}

impl CommResult {
    /// The typed cause of a `Failed` result as `Err`; any other result as
    /// `Ok`, for `?` at the point a step needs the data.
    pub fn into_result(self) -> Result<CommResult, CommError> {
        match self {
            CommResult::Failed(err) => Err(err),
            done => Ok(done),
        }
    }
}

/// One record of the submission log: everything the static plan verifier
/// needs to cross-check SPMD consistency of a live scheduler's enqueues
/// (`embrace-analyzer` consumes these via its schedule-plan IR).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmittedOp {
    /// Queue priority (lower = sooner).
    pub priority: i64,
    /// Cross-rank consistency tag.
    pub tag: String,
    /// Operation kind (`allreduce_dense`, `gather_tokens`, …).
    pub kind: &'static str,
    /// Outgoing payload bytes on this rank.
    pub bytes: u64,
}

/// Where a finished (or failed) op leaves its result for its [`Ticket`]; a
/// dropped ticket (fire-and-forget delayed gradients) just leaves it unread.
type Done = Rc<Cell<Option<CommResult>>>;

/// Ticket redeemable for the operation's result. `!Send`, like the
/// scheduler it came from: it is redeemed on the thread that submitted.
pub struct Ticket<C: Comm = Endpoint> {
    core: Rc<RefCell<Core<C>>>,
    done: Done,
}

impl<C: Comm> Ticket<C> {
    /// Take the operation's result, first running units on this thread —
    /// in priority order, so possibly other ops' — until it is there: the
    /// `synchronize()` call of Horovod's API. A failed or aborted op
    /// returns `Failed` with the typed cause; this never panics or hangs
    /// on a scheduler that shut down.
    pub fn wait(self) -> CommResult {
        loop {
            if let Some(result) = self.done.take() {
                return result;
            }
            let mut core = self.core.borrow_mut();
            if !core.step() {
                return CommResult::Failed(CommError::Aborted { origin: core.rank });
            }
        }
    }
}

/// Wall-clock timing of one executed operation, recorded when
/// [`SchedOptions::observed`] is set. All times are seconds on the
/// scheduler's own [`WallClock`] (anchored at construction), so
/// `started_s - submitted_s` is the queue wait and `finished_s - started_s`
/// the transfer (wire) time — the §5.1 decomposition of where a collective's
/// latency goes. Under a chunked scheduler the window of a preempted op
/// contains its preemptors.
#[derive(Clone, Debug)]
pub struct OpTiming {
    pub tag: String,
    pub kind: &'static str,
    pub priority: i64,
    /// Outgoing payload bytes on this rank.
    pub bytes: u64,
    /// When the worker enqueued the op.
    pub submitted_s: f64,
    /// When the op was started (taken off the queue).
    pub started_s: f64,
    /// When its last unit finished.
    pub finished_s: f64,
    /// Units the op ran as (1 = executed whole).
    pub chunks: u32,
}

impl OpTiming {
    /// Time spent queued behind other collectives.
    pub fn queue_wait(&self) -> f64 {
        self.started_s - self.submitted_s
    }

    /// Time spent on the wire (executing the collective).
    pub fn exec_time(&self) -> f64 {
        self.finished_s - self.started_s
    }
}

/// What an observed scheduler records.
struct SchedObs {
    spans: SpanSet,
    track: TrackId,
    clock: WallClock,
    timings: Vec<OpTiming>,
}

/// Default segment size for [`CommScheduler::spawn_chunked`]: large
/// enough that the per-unit bookkeeping is noise against the payload,
/// small enough that a 16 MiB dense allreduce yields ~64 preemption
/// points.
pub const DEFAULT_CHUNK_BYTES: usize = 256 << 10;

/// Per-worker handle: enqueue operations and run them, in priority order,
/// against this worker's transport — by default its mesh [`Endpoint`] — on
/// the calling thread. Build it on the thread that uses it; like its
/// [`Ticket`]s it is `!Send`.
pub struct CommScheduler<C: Comm = Endpoint> {
    core: Rc<RefCell<Core<C>>>,
    log: Vec<SubmittedOp>,
}

/// How a scheduler runs its ops. The default: whole, nothing recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedOptions {
    /// Tensor partitioning (§5.2's second dimension): a payload larger than
    /// this runs as resumable segments of this size, between which a strictly
    /// more urgent submission preempts it; results are bitwise-identical to
    /// whole execution. `None`: whole ops, priorities only reorder the queue.
    pub chunk_bytes: Option<usize>,
    /// Record a wall-clock span per executed op and per segment plus an
    /// [`OpTiming`] log, harvested with [`CommScheduler::observation`].
    pub observed: bool,
}

impl<C: Comm> CommScheduler<C> {
    /// [`CommScheduler::new`] with the default options.
    pub fn spawn(ep: C) -> Self {
        Self::new(ep, SchedOptions::default())
    }

    /// [`CommScheduler::new`] with `chunk_bytes` set.
    pub fn spawn_chunked(ep: C, chunk_bytes: usize) -> Self {
        Self::new(ep, SchedOptions { chunk_bytes: Some(chunk_bytes), observed: false })
    }

    /// Take ownership of the transport and run ops as `opts` says.
    pub fn new(ep: C, SchedOptions { chunk_bytes, observed }: SchedOptions) -> Self {
        assert!(chunk_bytes != Some(0), "chunk size must be positive");
        let obs = observed.then(|| {
            let mut spans = SpanSet::new(ClockDomain::Wall);
            let track = spans.add_track(&format!("comm-{}", ep.rank()));
            SchedObs { spans, track, clock: WallClock::new(), timings: Vec::new() }
        });
        let core = Core {
            rank: ep.rank(),
            ep: Some(ep),
            chunk_bytes,
            queue: BTreeMap::new(),
            seq: 0,
            stack: Vec::new(),
            spare: Vec::new(),
            obs,
        };
        CommScheduler { core: Rc::new(RefCell::new(core)), log: Vec::new() }
    }

    /// Snapshot the spans and timings recorded so far (`None` unless
    /// observed). Call after [`CommScheduler::flush`] for a quiescent view.
    pub fn observation(&self) -> Option<(SpanSet, Vec<OpTiming>)> {
        self.core.borrow().obs.as_ref().map(|o| (o.spans.clone(), o.timings.clone()))
    }

    /// Enqueue `op` with `priority` (lower = sooner). `tag` names the
    /// operation for cross-rank consistency checking. Returns a ticket.
    /// Never communicates. After a failure on this scheduler the ticket is
    /// pre-failed with [`CommError::Aborted`].
    pub fn submit(&mut self, priority: i64, tag: impl Into<String>, op: CommOp) -> Ticket<C> {
        let (tag, kind, bytes) = (tag.into(), op.kind_str(), op.payload_bytes());
        self.log.push(SubmittedOp { priority, tag: tag.clone(), kind, bytes });
        let done = Done::default();
        let ticket = Ticket { core: self.core.clone(), done: done.clone() };
        let mut core = self.core.borrow_mut();
        if core.ep.is_none() {
            done.set(Some(CommResult::Failed(CommError::Aborted { origin: core.rank })));
            return ticket;
        }
        let (key, machine, at) = ((priority, core.seq), Machine::Queued(op), Instant::now());
        core.seq += 1;
        let (partitioned, units, submitted_at, started_at) = (false, 0, at, at);
        let job = Job {
            priority,
            tag,
            kind,
            bytes,
            done,
            machine,
            partitioned,
            units,
            submitted_at,
            started_at,
        };
        core.queue.insert(key, job);
        ticket
    }

    /// Every operation submitted so far, in submission order — the raw
    /// material of the static SPMD plan check (identical multiset of
    /// `(tag, kind, priority)` required on every rank).
    pub fn submitted(&self) -> &[SubmittedOp] {
        &self.log
    }

    /// Run one unit — the next segment of the op in flight, or the whole
    /// of a small one — and say whether there was one to run. Call it
    /// where compute can spare the comm plane a quantum (a BP hook);
    /// like every other call, the same number of times on every rank.
    pub fn progress(&mut self) -> bool {
        self.core.borrow_mut().step()
    }

    /// Run until all previously submitted operations have executed.
    /// Returns [`CommResult::Flush`] on success, or `Failed` with the
    /// typed error if an op failed first.
    pub fn flush(&mut self) -> CommResult {
        // A max-priority fence: everything already queued drains first.
        self.submit(i64::MAX, "flush", CommOp::Flush).wait()
    }
}

impl<C: Comm> Drop for CommScheduler<C> {
    /// Drain: whatever is still queued runs to completion (dropped tickets
    /// are fire-and-forget, not cancelled), then the transport goes: an
    /// owned endpoint with it, so a peer that expects more from this rank
    /// sees `PeerGone`.
    fn drop(&mut self) {
        let mut core = self.core.borrow_mut();
        while core.step() {}
        core.ep = None;
    }
}

/// A collective in flight: the [`crate::ops`] machine of its kind. One that
/// runs whole finishes in its first unit, as the blocking op runs it
/// ([`Traversal::Posted`] for the fan-outs); a partitioned one runs a
/// `seg`-f32 ring segment, or one send plus one receive in
/// [`Traversal::Paired`] order, per unit.
enum Machine {
    /// Not started yet. A fence (`Flush`) stays so: it moves nothing.
    Queued(CommOp),
    /// The ring, its buffer (shared by a reduce-scatter, lent otherwise),
    /// and whether it runs whole.
    Ring(RingMachine, DenseTensor, bool),
    Dense(FanoutMachine<DenseTensor>),
    Sparse(FanoutMachine<RowSparse>),
    Tokens(FanoutMachine<TokenBuf>),
}

impl Machine {
    /// The machine of `op`, and whether it is partitioned, decided from
    /// values every rank shares, so every rank runs it as the same units.
    /// With no segment size (a whole scheduler, or a world of one) every
    /// op runs whole. Otherwise a ring op is partitioned iff its buffer
    /// exceeds a segment (a length every rank must share: a segment of
    /// another length is a protocol error), and a fan-out always steps
    /// `Paired`, `world − 1` units whatever the payload sizes.
    fn start<C: Comm>(
        op: CommOp,
        ep: &C,
        seg_bytes: Option<usize>,
        spare: &mut Vec<DenseTensor>,
    ) -> (Self, bool) {
        let paired = seg_bytes.is_some();
        let traversal = if paired { Traversal::Paired } else { Traversal::Posted };
        // An all-gather also takes the packets of its first step.
        let mut ring = |part, buf: DenseTensor, held: Option<Vec<OwnedSegment>>| {
            let seg = seg_bytes.filter(|&seg| buf.nbytes() > seg);
            let seg_elems = seg.map_or(usize::MAX, |seg| (seg / F32_BYTES).max(1));
            let ring = Ring::new(ep.world(), ep.rank(), buf.len(), seg_elems);
            let mut machine = RingMachine::new(ring, part, std::mem::take(spare));
            if let Some(held) = held {
                machine.hold(held);
            }
            (Machine::Ring(machine, buf, seg.is_none()), seg.is_some())
        };
        match op {
            CommOp::AllReduceDense(buf) => {
                let buf = DenseTensor::from_vec(1, buf.len(), buf);
                ring(RingPart::AllReduce, buf, None)
            }
            CommOp::ReduceScatterDense(grad) => ring(RingPart::ReduceScatter, grad, None),
            CommOp::AllGatherDense(block, owned) => ring(RingPart::AllGather, block, Some(owned)),
            CommOp::AlltoAllDense(parts) => {
                (Machine::Dense(FanoutMachine::new(ep, parts, traversal)), paired)
            }
            CommOp::AlltoAllSparse(parts) => {
                (Machine::Sparse(FanoutMachine::new(ep, parts, traversal)), paired)
            }
            CommOp::GatherTokens(local) => {
                let local = TokenBuf::from(local);
                let parts = (0..ep.world()).map(|_| local.share()).collect();
                (Machine::Tokens(FanoutMachine::new(ep, parts, traversal)), paired)
            }
            CommOp::Flush => (Machine::Queued(CommOp::Flush), false),
        }
    }

    /// The `collective` span name of a unit: its op's [`crate::ops`]
    /// function. A fence has none.
    fn unit_name(&self) -> Option<&'static str> {
        Some(match self {
            Machine::Ring(machine, ..) => ring_name(machine.part()),
            Machine::Dense(_) => "alltoall_dense",
            Machine::Sparse(_) => "alltoallv_sparse",
            Machine::Tokens(_) => "allgather_tokens",
            Machine::Queued(_) => return None,
        })
    }

    /// Run one unit, its messages stamped `fp`. `Ok(None)`: more units
    /// remain; `Ok(Some(result))`: that was the last. An error has been
    /// abort-broadcast to the peers.
    fn advance<C: Comm>(&mut self, ep: &mut C, fp: u64) -> Result<Option<CommResult>, CommError> {
        let stepped = match self {
            Machine::Queued(_) => return Ok(Some(CommResult::Flush)),
            Machine::Ring(machine, buf, whole) => {
                let mut ring_buf = match machine.part() {
                    RingPart::ReduceScatter => RingBuf::Shared(buf),
                    RingPart::AllReduce | RingPart::AllGather => RingBuf::Lent(buf.as_mut_slice()),
                };
                let ran = if *whole {
                    machine.run(ep, &mut ring_buf, fp)
                } else {
                    machine.step(ep, &mut ring_buf, fp)
                };
                ran.map(|()| {
                    machine.done().then(|| {
                        let buf = std::mem::replace(buf, DenseTensor::zeros(0, 0));
                        match machine.part() {
                            RingPart::AllReduce => CommResult::AllReduceDense(buf.into_vec()),
                            RingPart::ReduceScatter => {
                                CommResult::ReduceScatterDense(machine.take_segments(&buf))
                            }
                            RingPart::AllGather => CommResult::AllGatherDense(buf),
                        }
                    })
                })
            }
            Machine::Dense(m) => m.step(ep, fp).map(|out| out.map(CommResult::AlltoAllDense)),
            Machine::Sparse(m) => m.step(ep, fp).map(|out| out.map(CommResult::AlltoAllSparse)),
            Machine::Tokens(m) => m.step(ep, fp).map(|out| out.map(CommResult::GatherTokens)),
        };
        stepped.or_else(|e| fail(ep, e))
    }
}

/// A submitted op: queued, then on the execution stack — running (on top)
/// or suspended at a unit boundary by the more urgent ops above it.
struct Job {
    priority: i64,
    tag: String,
    kind: &'static str,
    bytes: u64,
    done: Done,
    machine: Machine,
    /// Whether it runs in more than one unit; decided when it starts.
    partitioned: bool,
    /// Units run so far: names the per-chunk spans, becomes
    /// [`OpTiming::chunks`], and is part of the SPMD fingerprint.
    units: u32,
    submitted_at: Instant,
    /// When it left the queue.
    started_at: Instant,
}

/// The scheduler proper, shared by the handle and its tickets.
struct Core<C> {
    rank: usize,
    /// `None` once a unit failed or the handle was dropped: the scheduler
    /// has shut down and runs nothing more.
    ep: Option<C>,
    chunk_bytes: Option<usize>,
    /// The stable priority queue: `(priority, submission number)`, least
    /// first.
    queue: BTreeMap<(i64, u64), Job>,
    seq: u64,
    /// Ops started and not finished, most urgent on top — exactly the span
    /// nesting.
    stack: Vec<Job>,
    /// Staging buffers the last finished ring hands the next one.
    spare: Vec<DenseTensor>,
    obs: Option<SchedObs>,
}

impl<C: Comm> Core<C> {
    /// Run one unit, chosen by the module doc's rule; `false` when there is
    /// none to run. A failed unit fails everything pending and shuts the
    /// scheduler down.
    fn step(&mut self) -> bool {
        let head = self.queue.first_key_value().map(|(&(priority, _), _)| priority);
        let start = match (head, self.stack.last()) {
            (None, None) => return false,
            (Some(_), None) => true,
            (Some(head), Some(top)) => head < top.priority,
            (None, Some(_)) => false,
        };
        let Some(mut ep) = self.ep.take() else { return false };
        if start {
            self.start(&ep);
        }
        match self.unit(&mut ep) {
            Ok(()) => self.ep = Some(ep),
            // `ep` drops with this arm: the mesh is poisoned (see `ops`),
            // and a peer still expecting this rank sees `PeerGone`.
            Err(err) => {
                let queued = std::mem::take(&mut self.queue).into_values().map(|j| j.done);
                for done in self.stack.drain(..).map(|e| e.done).chain(queued) {
                    done.set(Some(CommResult::Failed(err.clone())));
                }
            }
        }
        true
    }

    /// Move the queue head onto the stack, with the machine that runs it.
    fn start(&mut self, ep: &C) {
        let (_, mut job) = self.queue.pop_first().expect("step saw a queue head");
        job.started_at = Instant::now();
        let Machine::Queued(op) = &mut job.machine else {
            unreachable!("queued ops are unstarted")
        };
        let seg_bytes = self.chunk_bytes.filter(|_| ep.world() > 1);
        (job.machine, job.partitioned) = Machine::start(op.take(), ep, seg_bytes, &mut self.spare);
        self.stack.push(job);
    }

    /// Run one unit of the op on top of the stack, stamped with the
    /// stack's fingerprint, recording a chunk span and — after its last
    /// unit — its op span, timing and result.
    fn unit(&mut self, ep: &mut C) -> Result<(), CommError> {
        let seg_bytes = self.chunk_bytes.filter(|_| ep.world() > 1).unwrap_or(0);
        let stack = self.stack.iter().map(|j| (&*j.tag, j.priority, j.kind, j.units));
        let fp = fingerprint(seg_bytes, stack);
        let top = self.stack.last_mut().expect("step saw an op to run");
        let chunk_start = Instant::now();
        let result = {
            let _span = top.machine.unit_name().map(|name| recorder::span(name, "collective"));
            top.machine.advance(ep, fp)?
        };
        if let (Some(o), true) = (self.obs.as_mut(), top.partitioned) {
            let name = format!("{}/chunk{}", top.tag, top.units);
            o.spans.record(o.track, &name, "chunk", o.clock.at(chunk_start), o.clock.now());
        }
        top.units += 1;
        let Some(result) = result else { return Ok(()) };
        let finished = self.stack.pop().expect("step saw an op to run");
        if let Some(o) = self.obs.as_mut() {
            let (started_s, finished_s) = (o.clock.at(finished.started_at), o.clock.now());
            o.spans.record(o.track, &finished.tag, finished.kind, started_s, finished_s);
            o.timings.push(OpTiming {
                tag: finished.tag,
                kind: finished.kind,
                priority: finished.priority,
                bytes: finished.bytes,
                submitted_s: o.clock.at(finished.submitted_at),
                started_s,
                finished_s,
                chunks: finished.units,
            });
        }
        finished.done.set(Some(result));
        if let Machine::Ring(machine, ..) = finished.machine {
            self.spare.extend(machine.into_spare());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{mesh, mesh_with_faults, FaultPlan};
    use std::time::Duration;

    type Spawn = fn(Endpoint) -> CommScheduler;

    fn observed(ep: Endpoint, chunk_bytes: Option<usize>) -> CommScheduler {
        CommScheduler::new(ep, SchedOptions { chunk_bytes, observed: true })
    }

    /// Segment small enough that even modest payloads split: 64 bytes =
    /// 16 f32 elements per ring segment.
    const TINY_CHUNK: usize = 64;

    /// Whole and chunked, observed and not.
    const FLAVOURS: [Spawn; 4] = [
        CommScheduler::spawn,
        |ep| observed(ep, None),
        |ep| CommScheduler::spawn_chunked(ep, TINY_CHUNK),
        |ep| observed(ep, Some(TINY_CHUNK)),
    ];

    /// One thread per rank, each building its scheduler on the thread that
    /// uses it (the contract, and the types are `!Send`); results in rank
    /// order.
    fn per_rank<R: Send>(eps: Vec<Endpoint>, f: impl Fn(usize, Endpoint) -> R + Sync) -> Vec<R> {
        std::thread::scope(|sc| {
            let f = &f;
            let ranks: Vec<_> =
                eps.into_iter().enumerate().map(|(r, ep)| sc.spawn(move || f(r, ep))).collect();
            ranks.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }

    /// Names of everything an observed scheduler ran, in completion order:
    /// `tag/chunkN` per unit of a partitioned op, `tag` per finished op.
    fn unit_order(s: &CommScheduler) -> Vec<String> {
        let (spans, _) = s.observation().expect("observed");
        spans.check_well_nested().expect("preemptors nest inside the preempted op's span");
        spans.spans().iter().map(|sp| sp.name.clone()).collect()
    }

    fn chunks(tag: &str, units: std::ops::Range<u32>) -> impl Iterator<Item = String> + '_ {
        units.map(move |u| format!("{tag}/chunk{u}"))
    }

    fn protocol(result: CommResult) -> bool {
        matches!(result, CommResult::Failed(CommError::Protocol { .. }))
    }

    #[test]
    fn whole_ops_deliver_exact_results() {
        let world = 3;
        per_rank(mesh(world), |rank, ep| {
            let mut s = CommScheduler::spawn(ep);
            let ar = s.submit(0, "ar", CommOp::AllReduceDense(vec![rank as f32, 1.0]));
            let dense = (0..world).map(|j| DenseTensor::full(1, 1, (rank * 3 + j) as f32));
            let a2ad = s.submit(0, "a2ad", CommOp::AlltoAllDense(dense.collect()));
            let sparse = (0..world)
                .map(|j| RowSparse::new(vec![0], DenseTensor::full(1, 1, (rank * 3 + j) as f32)));
            let a2as = s.submit(0, "a2as", CommOp::AlltoAllSparse(sparse.collect()));
            let CommResult::AllReduceDense(buf) = ar.wait() else { panic!("wrong kind") };
            assert_eq!(buf, vec![3.0, 3.0]);
            let CommResult::AlltoAllDense(blocks) = a2ad.wait() else { panic!("wrong kind") };
            let CommResult::AlltoAllSparse(shards) = a2as.wait() else { panic!("wrong kind") };
            for src in 0..world {
                assert_eq!(blocks[src].as_slice(), &[(src * 3 + rank) as f32]);
                assert_eq!(shards[src].values().as_slice(), &[(src * 3 + rank) as f32]);
            }
        });
        // A world of one short-circuits, chunked or not.
        for spawn in FLAVOURS {
            let mut s = spawn(mesh(1).pop().expect("one endpoint"));
            let t = s.submit(0, "ar", CommOp::AllReduceDense(vec![4.0; 64]));
            let CommResult::AllReduceDense(buf) = t.wait() else { panic!("wrong kind") };
            assert_eq!(buf, vec![4.0; 64]);
            assert!(matches!(s.flush(), CommResult::Flush));
        }
    }

    #[test]
    fn ring_phase_ops_around_an_owner_update_equal_the_allreduce() {
        // The ops' path through the queue, whole and chunked: reduce-scatter,
        // an update of the owned range, all-gather — as the allreduce and
        // the same update everywhere. Round after round, the segment
        // buffers the rings hand on stay as many: a world of one, whose
        // all-gather sends nothing, keeps its packets as the spares the
        // next round's update writes.
        let len = 101;
        for world in 1..=3 {
            for spawn in FLAVOURS {
                per_rank(mesh(world), |rank, ep| {
                    let mut s = spawn(ep);
                    let mut spare = Vec::new();
                    for round in 0..3 {
                        let input: Vec<f32> =
                            (0..len).map(|i| ((rank * 7 + round * 3 + i) as f32).cos()).collect();
                        let ar = s.submit(0, "ar", CommOp::AllReduceDense(input.clone()));
                        let CommResult::AllReduceDense(mut want) = ar.wait() else {
                            panic!("wrong kind")
                        };
                        want.iter_mut().for_each(|x| *x *= 0.5);
                        let grad = DenseTensor::from_vec(1, len, input);
                        let rs = s.submit(0, "rs", CommOp::ReduceScatterDense(grad));
                        let CommResult::ReduceScatterDense(mut segments) = rs.wait() else {
                            panic!("wrong kind")
                        };
                        // The update, in the owner's loop over the unsummed
                        // segments: into the block's owned range, which it
                        // keeps, and where each segment writes, which the
                        // all-gather sends.
                        let mut block = DenseTensor::zeros(1, len);
                        let mut at = Ring::whole(world, rank, len).owned().start;
                        for segment in &mut segments {
                            let piece = segment.unsummed();
                            let owned = &mut block.as_mut_slice()[at..at + piece.len()];
                            at += piece.len();
                            piece.update(owned, |x, g| {
                                *x = g * 0.5;
                                *x
                            });
                        }
                        let ag = s.submit(0, "ag", CommOp::AllGatherDense(block, segments));
                        let CommResult::AllGatherDense(got) = ag.wait() else {
                            panic!("wrong kind")
                        };
                        assert_eq!(got.as_slice(), want, "world {world} rank {rank}");
                        spare.push(s.core.borrow().spare.len());
                    }
                    assert_eq!(spare[1], spare[2], "world {world} rank {rank}: {spare:?}");
                });
            }
        }
    }

    #[test]
    fn queued_ops_run_in_priority_order_and_submit_never_communicates() {
        // Ten rounds, later ones more urgent, then a flush: nothing runs
        // until the flush (a rank alone in `submit` would otherwise block),
        // and then everything runs most urgent first, ties in submission
        // order — the same order on every rank.
        let orders = per_rank(mesh(4), |rank, ep| {
            let mut s = observed(ep, None);
            let mut tickets = Vec::new();
            for round in 0..10u32 {
                let op = CommOp::GatherTokens(vec![rank as u32, round]);
                tickets.push(s.submit(10 - i64::from(round / 2), format!("round{round}"), op));
            }
            assert!(unit_order(&s).is_empty(), "submit ran something");
            assert!(matches!(s.flush(), CommResult::Flush));
            assert!(!s.progress(), "flush left work behind");
            for (round, t) in tickets.into_iter().enumerate() {
                let CommResult::GatherTokens(all) = t.wait() else { panic!("gather failed") };
                let want: Vec<Vec<u32>> = (0..4).map(|r| vec![r, round as u32]).collect();
                assert_eq!(all, want);
            }
            unit_order(&s)
        });
        let want: Vec<String> = [8, 9, 6, 7, 4, 5, 2, 3, 0, 1]
            .iter()
            .map(|r| format!("round{r}"))
            .chain(["flush".to_string()])
            .collect();
        for order in orders {
            assert_eq!(order, want);
        }
    }

    #[test]
    fn dropped_tickets_and_dropped_schedulers_drain() {
        // Fire-and-forget (the delayed-gradient pattern): the op still
        // runs, at the latest when the scheduler is dropped, and a ticket
        // may outlive its scheduler.
        per_rank(mesh(2), |rank, ep| {
            let mut s = CommScheduler::spawn(ep);
            let _ = s.submit(5, "forgotten", CommOp::GatherTokens(vec![rank as u32]));
            let kept = s.submit(6, "kept", CommOp::AllReduceDense(vec![1.0; 4]));
            drop(s);
            let CommResult::AllReduceDense(buf) = kept.wait() else { panic!("not drained") };
            assert_eq!(buf, vec![2.0; 4]);
        });
    }

    #[test]
    fn submission_log_and_observation_record_everything() {
        per_rank(mesh(2), |rank, ep| {
            let mut s = observed(ep, None);
            s.submit(3, "g", CommOp::GatherTokens(vec![rank as u32, 9]));
            s.submit(-1, "ar", CommOp::AllReduceDense(vec![1.0; 8]));
            assert!(matches!(s.flush(), CommResult::Flush));
            let log: Vec<_> = s.submitted().iter().map(|o| (&*o.tag, o.kind, o.priority)).collect();
            let fence = ("flush", "flush", i64::MAX);
            assert_eq!(log, [("g", "gather_tokens", 3), ("ar", "allreduce_dense", -1), fence]);
            assert_eq!(s.submitted()[0].bytes, 2 * embrace_tensor::TOKEN_BYTES as u64);

            // Two ops + the fence, each spanned once on this rank's track.
            let (spans, timings) = s.observation().expect("observed");
            assert_eq!(unit_order(&s), ["ar", "g", "flush"]);
            assert_eq!(spans.track_name(0), format!("comm-{rank}"));
            for t in &timings {
                assert!(t.queue_wait() >= 0.0, "{}: negative queue wait", t.tag);
                assert!(t.exec_time() >= 0.0, "{}: negative exec time", t.tag);
                assert_eq!(t.chunks, 1, "{}: unchunked scheduler ran whole ops", t.tag);
            }
            assert_eq!((timings[0].kind, timings[0].bytes), ("allreduce_dense", 8 * 4));
        });
        // Plain spawn records nothing.
        let s = CommScheduler::spawn(mesh(1).pop().expect("one endpoint"));
        assert!(s.observation().is_none());
    }

    /// One op of each kind, each (but the fence) large enough to split at
    /// any segment size up to 96 bytes.
    fn one_of_each(world: usize, rank: usize) -> Vec<(&'static str, CommOp)> {
        let v = |j: usize| (rank * world + j) as f32;
        let sparse = |j| RowSparse::new(vec![j as u32, 9], DenseTensor::full(2, 8, v(j)));
        vec![
            (
                "a2ad",
                CommOp::AlltoAllDense((0..world).map(|j| DenseTensor::full(4, 8, v(j))).collect()),
            ),
            ("a2as", CommOp::AlltoAllSparse((0..world).map(sparse).collect())),
            ("gt", CommOp::GatherTokens((0..30).map(|k| (rank * 64 + k) as u32).collect())),
            ("fence", CommOp::Flush),
        ]
    }

    /// A bulk allreduce, `head_start` units of it, then one urgent op of
    /// every other kind. Per rank: every result (f32s as bit patterns) and
    /// the completion order.
    fn run_all_kinds(
        world: usize,
        spawn: Spawn,
        head_start: usize,
    ) -> Vec<(Vec<String>, Vec<String>)> {
        per_rank(mesh(world), |rank, ep| {
            let mut s = spawn(ep);
            let bulk = (0..257).map(|i| ((rank * 131 + i * 7) as f32) * 0.1).collect();
            let mut tickets = vec![s.submit(100, "bulk", CommOp::AllReduceDense(bulk))];
            for _ in 0..head_start {
                s.progress();
            }
            for (tag, op) in one_of_each(world, rank) {
                tickets.push(s.submit(-10, tag, op));
            }
            let results = tickets.into_iter().map(|t| match t.wait() {
                CommResult::AllReduceDense(buf) => {
                    format!("{:?}", buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                }
                CommResult::Failed(e) => panic!("world {world} rank {rank}: {e:?}"),
                moved => format!("{moved:?}"),
            });
            let results = results.collect();
            let (_, timings) = s.observation().expect("observed");
            (results, timings.into_iter().map(|t| t.tag).collect())
        })
    }

    #[test]
    fn chunked_matches_whole_bitwise_for_every_kind_at_every_head_start() {
        for world in 1..=4 {
            let whole = run_all_kinds(world, |ep| observed(ep, None), 0);
            let chunked: [Spawn; 3] = [
                |ep| observed(ep, Some(16)),
                |ep| observed(ep, Some(TINY_CHUNK)),
                |ep| observed(ep, Some(96)),
            ];
            for (seg, spawn) in chunked.into_iter().enumerate() {
                for head_start in 0..8 {
                    let got = run_all_kinds(world, spawn, head_start);
                    for rank in 0..world {
                        let at = format!("world {world} seg #{seg} head start {head_start}");
                        assert_eq!(got[rank].0, whole[rank].0, "{at}: rank {rank} results");
                        assert_eq!(got[rank].1, got[0].1, "{at}: rank {rank} completion order");
                    }
                    // The urgent ops overtake a bulk op that has units left
                    // (at world 1 it is whole: one unit).
                    let bulk_at = got[0].1.iter().position(|t| t == "bulk").expect("bulk ran");
                    let overtaken = world > 1 || head_start == 0;
                    assert_eq!(bulk_at == 4, overtaken, "world {world}: {:?}", got[0].1);
                }
            }
        }
    }

    #[test]
    fn urgent_op_lands_exactly_between_two_units_of_the_bulk_op() {
        // 257 f32 over two ranks in 16-element segments: 9 units per step,
        // 18 in all. Three units of head start, then a small urgent gather,
        // then a larger one: each a fan-out of one unit at world 2.
        let orders = per_rank(mesh(2), |rank, ep| {
            let mut s = observed(ep, Some(TINY_CHUNK));
            let bulk = s.submit(100, "bulk", CommOp::AllReduceDense(vec![(rank + 1) as f32; 257]));
            assert!((0..3).all(|_| s.progress()));
            let hp = s.submit(-10, "hp", CommOp::GatherTokens(vec![rank as u32]));
            let CommResult::GatherTokens(all) = hp.wait() else { panic!("hp failed") };
            assert_eq!(all, vec![vec![0], vec![1]]);
            assert!(s.progress(), "bulk resumes");
            let hp2 = s.submit(-10, "hp2", CommOp::GatherTokens(vec![rank as u32; 17]));
            let CommResult::AllReduceDense(out) = bulk.wait() else { panic!("bulk failed") };
            assert!(out.iter().all(|&x| x == 3.0), "bulk result wrong after preemption");
            assert!(matches!(hp2.wait(), CommResult::GatherTokens(_)));
            let (_, timings) = s.observation().expect("observed");
            let chunks: Vec<_> = timings.iter().map(|t| (&*t.tag, t.chunks)).collect();
            assert_eq!(chunks, [("hp", 1), ("hp2", 1), ("bulk", 18)]);
            unit_order(&s)
        });
        let want: Vec<String> = chunks("bulk", 0..3)
            .chain(chunks("hp", 0..1))
            .chain(["hp".to_string()])
            .chain(chunks("bulk", 3..4))
            .chain(chunks("hp2", 0..1))
            .chain(["hp2".to_string()])
            .chain(chunks("bulk", 4..18))
            .chain(["bulk".to_string()])
            .collect();
        for order in orders {
            assert_eq!(order, want);
        }
    }

    #[test]
    fn three_level_nesting_is_an_exact_order() {
        // bulk (12 units at world 3) preempted by mid (4 units) preempted
        // by hp (a gather: 2 units); an equally urgent op does not preempt.
        let orders = per_rank(mesh(3), |rank, ep| {
            let mut s = observed(ep, Some(TINY_CHUNK));
            let bulk = s.submit(100, "bulk", CommOp::AllReduceDense(vec![1.0; 144]));
            assert!((0..2).all(|_| s.progress()));
            let mid = s.submit(10, "mid", CommOp::AllReduceDense(vec![2.0; 48]));
            let tie = s.submit(10, "tie", CommOp::GatherTokens(vec![rank as u32]));
            assert!((0..2).all(|_| s.progress()));
            let hp = s.submit(-10, "hp", CommOp::GatherTokens(vec![rank as u32]));
            let CommResult::AllReduceDense(b) = bulk.wait() else { panic!("bulk failed") };
            assert!(b.iter().all(|&x| x == 3.0));
            let CommResult::AllReduceDense(m) = mid.wait() else { panic!("mid failed") };
            assert!(m.iter().all(|&x| x == 6.0));
            assert!(matches!(hp.wait(), CommResult::GatherTokens(_)));
            assert!(matches!(tie.wait(), CommResult::GatherTokens(_)));
            unit_order(&s)
        });
        let want: Vec<String> = chunks("bulk", 0..2)
            .chain(chunks("mid", 0..2))
            .chain(chunks("hp", 0..2))
            .chain(["hp".to_string()])
            .chain(chunks("mid", 2..4))
            .chain(["mid".to_string()])
            .chain(chunks("tie", 0..2))
            .chain(["tie".to_string()])
            .chain(chunks("bulk", 2..12))
            .chain(["bulk".to_string()])
            .collect();
        for order in orders {
            assert_eq!(order, want);
        }
    }

    #[test]
    fn a_fan_outs_unit_count_does_not_depend_on_payload_sizes() {
        // 15 tokens fit a 64-byte segment, 17 do not: a rule that looked at
        // the payload would split the ranks. A fan-out on a chunked
        // scheduler steps `Paired` whatever its size, so every rank runs
        // world − 1 units.
        for lens in [[15, 15, 15], [15, 17, 15]] {
            per_rank(mesh(3), |rank, ep| {
                let mut s = observed(ep, Some(TINY_CHUNK));
                let t = s.submit(0, "g", CommOp::GatherTokens(vec![7; lens[rank]]));
                let CommResult::GatherTokens(all) = t.wait() else { panic!("gather failed") };
                assert_eq!(all.iter().map(|v| v.len()).collect::<Vec<_>>(), lens);
                assert_eq!(s.observation().expect("observed").1[0].chunks, 2);
            });
        }
    }

    #[test]
    fn preempting_at_a_different_unit_boundary_fails_typed_on_every_rank() {
        // 7 elements over 3 ranks in 1-element segments: chunks of 3, 2, 2,
        // so some unit moves nothing on some rank. That rank can run it
        // alone — one `progress()` call more than its peers — with nothing
        // on the wire to give it away; only the units-run count in the
        // header of the urgent op's messages does. Without it the urgent op
        // would run, and the resumed ring would reduce unit k+1's segment
        // into unit k's range. The idle rank and every rank that reads its
        // header fail `Protocol`; a rank that reads none fails on a rank
        // that did: its abort, or its endpoint gone.
        let world = 3;
        let ring = |rank| Ring::new(world, rank, 7, 1);
        let (idle_rank, idle_unit) = (0..world)
            .flat_map(|r| (0..ring(r).units()).map(move |u| (r, u)))
            .find(|&(r, u)| ring(r).unit(u).send.is_none() && ring(r).unit(u).recv.is_none())
            .expect("an uneven ring has an idle unit");
        let errors = per_rank(mesh(world), |rank, ep| {
            let mut s = CommScheduler::spawn_chunked(ep, F32_BYTES);
            let bulk = s.submit(100, "bulk", CommOp::AllReduceDense(vec![1.0; 7]));
            let head_start = idle_unit + usize::from(rank == idle_rank);
            assert!((0..head_start).all(|_| s.progress()));
            let hp = s.submit(-10, "hp", CommOp::GatherTokens(vec![rank as u32]));
            let CommResult::Failed(err) = hp.wait() else { panic!("rank {rank}: urgent op ran") };
            let CommResult::Failed(same) = bulk.wait() else { panic!("rank {rank}: bulk ran") };
            assert_eq!(same, err, "rank {rank}: suspended op");
            err
        });
        let is_protocol = |err: &CommError| matches!(err, CommError::Protocol { .. });
        assert!(is_protocol(&errors[idle_rank]), "{errors:?}");
        for (rank, err) in errors.iter().enumerate() {
            let on_a_reader = match *err {
                CommError::Aborted { origin: peer } | CommError::PeerGone { peer } => {
                    is_protocol(&errors[peer])
                }
                _ => false,
            };
            assert!(is_protocol(err) || on_a_reader, "rank {rank}: {errors:?}");
        }
    }

    // --- The abort contract: every ticket typed, nothing panics, nothing
    // hangs — whole and chunked, observed and not. ---

    #[test]
    fn divergent_priorities_fail_everything_pending_and_everything_later() {
        // Same tag, different priority: the first header each rank reads
        // rejects the op; the op queued behind it fails with the same cause;
        // `submit` and `flush` afterwards are pre-failed `Aborted`.
        for spawn in FLAVOURS {
            per_rank(mesh(2), |rank, ep| {
                let mut s = spawn(ep);
                let skewed = s.submit(rank as i64, "skewed", CommOp::AllReduceDense(vec![1.0; 64]));
                let behind = s.submit(50, "behind", CommOp::AllReduceDense(vec![1.0; 64]));
                assert!(protocol(skewed.wait()), "rank {rank}: divergent op");
                assert!(protocol(behind.wait()), "rank {rank}: op queued behind the failure");
                let late = s.submit(0, "late", CommOp::GatherTokens(vec![1])).wait();
                for after in [late, s.flush()] {
                    let CommResult::Failed(err) = after else { panic!("ran after a failure") };
                    assert_eq!(err, CommError::Aborted { origin: rank });
                }
                assert!(!s.progress());
            });
        }
    }

    #[test]
    fn divergent_segment_sizes_are_a_protocol_error() {
        // The segment size shapes every partitioned op's units and is no
        // longer sent by anyone, so it is part of the fingerprint.
        per_rank(mesh(2), |rank, ep| {
            let mut s = CommScheduler::spawn_chunked(ep, TINY_CHUNK << rank);
            assert!(protocol(s.submit(0, "ar", CommOp::AllReduceDense(vec![1.0; 64])).wait()));
        });
    }

    #[test]
    fn divergent_tags_fail_typed_when_the_scheduler_is_dropped() {
        // Every rank enqueues a tag no other rank knows and drops its
        // scheduler: the drain starts the op, its first receive reads
        // another rank's fingerprint, and the ticket resolves `Protocol`.
        for world in 2..=4 {
            for spawn in FLAVOURS {
                per_rank(mesh(world), |rank, ep| {
                    let mut s = spawn(ep);
                    let op = CommOp::AllReduceDense(vec![1.0; 4096]);
                    let t = s.submit(0, format!("only-{rank}"), op);
                    drop(s);
                    assert!(protocol(t.wait()), "world {world} rank {rank}");
                });
            }
        }
    }

    #[test]
    fn orphan_op_at_shutdown_fails_typed() {
        // Rank 1 queues an op rank 0 never heard of, and both shut down.
        // There is no controller to answer `Aborted` any more: rank 0
        // drains nothing and leaves, so rank 1's drain finds it gone.
        let results = per_rank(mesh(2), |rank, ep| {
            let mut s = CommScheduler::spawn(ep);
            let orphan =
                (rank == 1).then(|| s.submit(0, "nobody-else", CommOp::GatherTokens(vec![9])));
            drop(s);
            orphan.map(Ticket::wait)
        });
        assert!(
            matches!(results[1], Some(CommResult::Failed(CommError::PeerGone { peer: 0 }))),
            "{:?}",
            results[1]
        );
    }

    #[test]
    fn stalled_link_fails_typed_within_the_deadline() {
        // The link 0 → 1 never delivers and receives give up after 50 ms.
        // Rank 1 sends before it receives, so rank 0 holds all of the first
        // gather and completes it; rank 1 times out on it and says so, and
        // rank 0's next op sees that abort (or its own timeout). Nobody
        // waits for the stalled packet.
        for spawn in FLAVOURS {
            let plan = FaultPlan::new(11).delay_link(0, 1, Duration::from_secs(3600));
            let t0 = Instant::now();
            per_rank(mesh_with_faults(2, &plan, Some(Duration::from_millis(50))), |rank, ep| {
                let mut s = spawn(ep);
                let first = s.submit(0, "g", CommOp::GatherTokens(vec![rank as u32; 32]));
                let next = s.submit(1, "g2", CommOp::GatherTokens(vec![rank as u32; 32]));
                let first = first.wait();
                let done = matches!(first, CommResult::GatherTokens(_));
                assert_eq!(done, rank == 0, "rank {rank}: {first:?}");
                let CommResult::Failed(err) = next.wait() else { panic!("rank {rank}: survived") };
                let expected = match err {
                    CommError::Timeout { peer, .. } => peer == 1 - rank,
                    CommError::Aborted { origin } => rank == 0 && origin == 1,
                    _ => false,
                };
                assert!(expected, "rank {rank}: {err:?}");
            });
            assert!(t0.elapsed() < Duration::from_secs(5), "waited out the stalled link");
        }
    }

    #[test]
    fn peer_crash_inside_an_op_fails_typed_with_the_real_cause() {
        // The last rank's endpoint tears down at its send number world − 1,
        // inside the allreduce, whole and partitioned alike. Every waiter sees the real cause — the victim
        // its own injection, a survivor the peer it lost or the abort of
        // whoever noticed first — never `Aborted { origin: <own rank> }`;
        // and the op queued behind fails with the same error.
        for world in 2..=3 {
            for spawn in FLAVOURS {
                let victim = world - 1;
                let plan = FaultPlan::new(23).crash_rank_at_op(victim, (world - 1) as u64);
                let deadline = Some(Duration::from_millis(250));
                per_rank(mesh_with_faults(world, &plan, deadline), |rank, ep| {
                    let mut s = spawn(ep);
                    let ar = s.submit(0, "ar", CommOp::AllReduceDense(vec![1.0; 64]));
                    let behind = s.submit(5, "behind", CommOp::GatherTokens(vec![7]));
                    let CommResult::Failed(err) = ar.wait() else {
                        panic!("world {world} rank {rank}: allreduce survived the crash")
                    };
                    let real_cause = match err {
                        CommError::Injected { rank: r } => r == victim && rank == victim,
                        CommError::PeerGone { .. } | CommError::Timeout { .. } => rank != victim,
                        CommError::Aborted { origin } => origin != rank,
                        _ => false,
                    };
                    assert!(real_cause, "world {world} rank {rank}: {err:?}");
                    let CommResult::Failed(same) = behind.wait() else {
                        panic!("ran after a failure")
                    };
                    assert_eq!(same, err, "world {world} rank {rank}");
                });
            }
        }
    }
}

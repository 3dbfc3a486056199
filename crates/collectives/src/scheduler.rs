//! The background communication thread (§5.1) with 2D scheduling (§5.2).
//!
//! The prototype "holds a priority queue and a communication thread.
//! Communications are performed in the communication thread according to
//! the priority queue." This module reproduces that mechanism on the
//! functional plane: each worker owns a [`CommScheduler`] whose thread
//! drains enqueued collective operations in priority order and fulfils a
//! ticket per operation.
//!
//! The *second* dimension of the paper's 2D Communication Scheduling is
//! tensor partitioning: a chunked scheduler
//! ([`CommScheduler::spawn_chunked`]) splits large payloads into
//! fixed-byte segments executed as resumable units, and the rank-0
//! controller re-consults its priority queue between units. A strictly
//! more urgent submission preempts the op already on the wire; its
//! remaining units resume afterwards, and the chunked result is
//! bitwise-identical to unchunked execution: both run the same
//! [`crate::ops`] machines over the same [`crate::schedule`], whole ops to
//! completion and chunked ops one unit at a time.
//!
//! Collectives are SPMD: an operation only completes when *every* rank's
//! thread reaches it. Correctness therefore requires all ranks to enqueue
//! the same multiset of operations with the same priorities — which the
//! EmbRace algorithm guarantees (priorities are a pure function of the
//! model graph) and an always-on cross-rank fingerprint check enforces:
//! divergent enqueues surface as [`CommResult::Failed`] carrying
//! [`CommError::Protocol`] instead of deadlocking inside a collective.
//! The same submissions are recorded in a per-scheduler [`SubmittedOp`]
//! log that `embrace-analyzer`'s static plan verifier consumes.
//!
//! # Abort contract
//!
//! Every shutdown path is typed; none panics:
//! - [`Ticket::wait`] on a ticket the comm thread dropped (fail-fast
//!   shutdown, divergent enqueue) returns
//!   `CommResult::Failed(CommError::Aborted)`.
//! - [`CommScheduler::submit`] / [`CommScheduler::flush`] after the comm
//!   thread exited return a pre-failed ticket / `Failed(Aborted)`.
//! - A non-zero rank whose control channel times out fails its pending
//!   ops with the original [`CommError::Timeout`]; a controller that
//!   names a tag never submitted locally after a local shutdown yields
//!   [`CommError::Protocol`]; a clean controller shutdown is an explicit
//!   control token, never conflated with either.

use crate::ops::{
    fail, try_allgather_tokens, try_alltoall_dense, try_alltoallv_sparse, try_ring_allreduce,
    FanoutMachine, RingMachine,
};
use crate::schedule::Ring;
use crate::transport::{CommError, Endpoint, Packet};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use embrace_obs::{ClockDomain, Metrics, SpanSet, TrackId, WallClock};
use embrace_tensor::{DenseTensor, RowSparse, TokenBuf, F32_BYTES};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One communication request.
pub enum CommOp {
    /// In-place sum-AllReduce of a dense buffer.
    AllReduceDense(Vec<f32>),
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
    pub fn kind_str(&self) -> &'static str {
        match self {
            CommOp::AllReduceDense(_) => "allreduce_dense",
            CommOp::AlltoAllDense(_) => "alltoall_dense",
            CommOp::AlltoAllSparse(_) => "alltoallv_sparse",
            CommOp::GatherTokens(_) => "gather_tokens",
            CommOp::Flush => "flush",
        }
    }

    /// Wire bytes of this rank's outgoing payload (plan accounting; the
    /// per-rank value may legitimately differ across ranks for gathers).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            CommOp::AllReduceDense(buf) => (buf.len() * embrace_tensor::F32_BYTES) as u64,
            CommOp::AlltoAllDense(parts) => parts.iter().map(|p| p.nbytes() as u64).sum(),
            CommOp::AlltoAllSparse(parts) => parts.iter().map(|p| p.nbytes() as u64).sum(),
            CommOp::GatherTokens(toks) => (toks.len() * embrace_tensor::TOKEN_BYTES) as u64,
            CommOp::Flush => 0,
        }
    }
}

/// The result of a completed [`CommOp`].
#[derive(Debug)]
pub enum CommResult {
    AllReduceDense(Vec<f32>),
    AlltoAllDense(Vec<embrace_tensor::DenseTensor>),
    AlltoAllSparse(Vec<RowSparse>),
    GatherTokens(Vec<TokenBuf>),
    Flush,
    /// The operation was not executed: the scheduler shut down first —
    /// divergent enqueues (SPMD fingerprint mismatch), a peer failure, a
    /// control-channel timeout, or a fail-fast abort. Always a typed
    /// [`CommError`]; the scheduler never panics a waiter.
    Failed(CommError),
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
    /// Operation kind (see [`CommOp::kind_str`]).
    pub kind: &'static str,
    /// Outgoing payload bytes on this rank.
    pub bytes: u64,
}

/// Ticket redeemable for the operation's result (blocks until the
/// communication thread has executed it).
pub struct Ticket {
    rx: Receiver<CommResult>,
    /// This rank, for the typed abort when the comm thread is gone.
    rank: usize,
}

impl Ticket {
    /// Wait for the operation to complete and take its result — the
    /// `synchronize()` call of Horovod's API. If the communication thread
    /// shut down without executing the op (fail-fast abort, divergent
    /// enqueue), this returns `Failed(CommError::Aborted)` — the abort
    /// contract — rather than panicking on the dropped channel.
    pub fn wait(self) -> CommResult {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => CommResult::Failed(CommError::Aborted { origin: self.rank }),
        }
    }
}

/// Wall-clock timing of one executed operation, from an *observed*
/// scheduler ([`CommScheduler::spawn_observed`]). All times are seconds
/// on the scheduler's own [`WallClock`] (anchored at spawn), so
/// `started_s - submitted_s` is the queue wait and
/// `finished_s - started_s` the transfer (wire) time — the §5.1
/// decomposition of where a collective's latency goes. Under a chunked
/// scheduler the window of a preempted op contains its preemptors.
#[derive(Clone, Debug)]
pub struct OpTiming {
    pub tag: String,
    pub kind: &'static str,
    pub priority: i64,
    /// Outgoing payload bytes on this rank.
    pub bytes: u64,
    /// When the worker enqueued the op.
    pub submitted_s: f64,
    /// When the communication thread started executing it.
    pub started_s: f64,
    /// When execution (including the SPMD fingerprint round) finished.
    pub finished_s: f64,
    /// Resumable segments the op ran as (1 = executed whole).
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

/// Fold a timing log into an [`embrace_obs::Metrics`] registry:
/// `sched.queue_wait_s` / `sched.exec_s` histograms plus op/byte/chunk
/// counters. Mergeable across ranks.
pub fn scheduler_metrics(timings: &[OpTiming]) -> Metrics {
    let mut m = Metrics::new();
    for t in timings {
        m.inc("sched.ops_executed", 1);
        m.inc("sched.bytes_submitted", t.bytes);
        m.inc("sched.chunks_executed", t.chunks as u64);
        m.observe("sched.queue_wait_s", t.queue_wait());
        m.observe("sched.exec_s", t.exec_time());
    }
    m
}

/// Shared between an observed scheduler handle and its comm thread.
struct SchedObs {
    spans: SpanSet,
    track: TrackId,
    clock: WallClock,
    timings: Vec<OpTiming>,
}

struct Job {
    priority: i64,
    tag: String,
    op: CommOp,
    done: Sender<CommResult>,
    /// Submission instant, for queue-wait accounting under observation.
    submitted_at: Instant,
}

enum Msg {
    Submit(Job),
    Shutdown,
}

/// Default segment size for [`CommScheduler::spawn_chunked`]: large
/// enough that per-segment control traffic is noise against the payload,
/// small enough that a 16 MiB dense allreduce yields ~64 preemption
/// points.
pub const DEFAULT_CHUNK_BYTES: usize = 256 << 10;

/// Per-worker handle: enqueue operations; a background thread executes
/// them against this worker's mesh [`Endpoint`] in priority order.
pub struct CommScheduler {
    tx: Sender<Msg>,
    rank: usize,
    handle: Option<JoinHandle<()>>,
    log: Vec<SubmittedOp>,
    obs: Option<Arc<Mutex<SchedObs>>>,
}

impl CommScheduler {
    /// Spawn the communication thread, taking ownership of the endpoint.
    /// Ops run whole (no partitioning); priorities only reorder *queued*
    /// ops.
    pub fn spawn(ep: Endpoint) -> Self {
        Self::spawn_inner(ep, None, None)
    }

    /// Like [`CommScheduler::spawn`], but the communication thread records
    /// a wall-clock span per executed op plus an [`OpTiming`] log, both
    /// harvested with [`CommScheduler::observation`].
    pub fn spawn_observed(ep: Endpoint) -> Self {
        let obs = Self::new_obs(&ep);
        Self::spawn_inner(ep, Some(obs), None)
    }

    /// Spawn with tensor partitioning: payloads larger than `chunk_bytes`
    /// run as resumable `chunk_bytes`-sized segments, and a strictly more
    /// urgent submission preempts the op on the wire between segments —
    /// the second dimension of §5.2's 2D scheduling. Results are
    /// bitwise-identical to unchunked execution.
    pub fn spawn_chunked(ep: Endpoint, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        Self::spawn_inner(ep, None, Some(chunk_bytes))
    }

    /// [`CommScheduler::spawn_chunked`] with observation: per-op spans and
    /// timings plus one `"chunk"` span per executed segment.
    pub fn spawn_chunked_observed(ep: Endpoint, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        let obs = Self::new_obs(&ep);
        Self::spawn_inner(ep, Some(obs), Some(chunk_bytes))
    }

    fn new_obs(ep: &Endpoint) -> Arc<Mutex<SchedObs>> {
        let mut spans = SpanSet::new(ClockDomain::Wall);
        let track = spans.add_track(&format!("comm-{}", ep.rank()));
        Arc::new(Mutex::new(SchedObs {
            spans,
            track,
            clock: WallClock::new(),
            timings: Vec::new(),
        }))
    }

    fn spawn_inner(
        mut ep: Endpoint,
        obs: Option<Arc<Mutex<SchedObs>>>,
        chunk_bytes: Option<usize>,
    ) -> Self {
        let rank = ep.rank();
        let (tx, rx) = unbounded::<Msg>();
        let thread_obs = obs.clone();
        let handle = std::thread::Builder::new()
            .name(format!("embrace-comm-{rank}"))
            .spawn(move || comm_thread(&mut ep, &rx, thread_obs, chunk_bytes))
            .expect("failed to spawn communication thread");
        CommScheduler { tx, rank, handle: Some(handle), log: Vec::new(), obs }
    }

    /// Snapshot the spans and timings recorded so far (observed schedulers
    /// only; `None` for [`CommScheduler::spawn`]). Call after
    /// [`CommScheduler::flush`] for a quiescent view.
    pub fn observation(&self) -> Option<(SpanSet, Vec<OpTiming>)> {
        self.obs.as_ref().map(|o| {
            let g = o.lock();
            (g.spans.clone(), g.timings.clone())
        })
    }

    /// Enqueue `op` with `priority` (lower = sooner). `tag` names the
    /// operation for cross-rank consistency checking. Returns a ticket.
    /// If the communication thread has already shut down (fail-fast
    /// abort), the ticket is pre-failed with [`CommError::Aborted`]
    /// instead of this call panicking on the closed channel.
    pub fn submit(&mut self, priority: i64, tag: impl Into<String>, op: CommOp) -> Ticket {
        let (done, rx) = bounded(1);
        let tag = tag.into();
        self.log.push(SubmittedOp {
            priority,
            tag: tag.clone(),
            kind: op.kind_str(),
            bytes: op.payload_bytes(),
        });
        let fallback = done.clone();
        let job = Job { priority, tag, op, done, submitted_at: Instant::now() };
        if self.tx.send(Msg::Submit(job)).is_err() {
            let _ = fallback.send(CommResult::Failed(CommError::Aborted { origin: self.rank }));
        }
        Ticket { rx, rank: self.rank }
    }

    /// Every operation submitted so far, in submission order — the raw
    /// material of the static SPMD plan check (identical multiset of
    /// `(tag, kind, priority)` required on every rank).
    pub fn submitted(&self) -> &[SubmittedOp] {
        &self.log
    }

    /// Block until all previously submitted operations have executed.
    /// Returns [`CommResult::Flush`] on success, or `Failed` with the
    /// typed error if the scheduler shut down before draining.
    pub fn flush(&mut self) -> CommResult {
        // A max-priority fence: everything already queued drains first.
        self.submit(i64::MAX, "flush", CommOp::Flush).wait()
    }
}

impl Drop for CommScheduler {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Control protocol (rank 0 → all): which op to run next, and how.
// ---------------------------------------------------------------------------

/// One controller broadcast. Encoded as a short ASCII line packed four
/// bytes per `u32` token with a byte-length prefix, so the control
/// channel's transport byte accounting matches the analyzer's plan bytes
/// (the old encoding burned one token per tag *byte* — 4× inflation).
#[derive(Debug, PartialEq, Eq)]
enum Ctrl {
    /// Execute the named op whole, as a single segment.
    Run(String),
    /// Begin chunked execution of the named op; segments of `seg_elems`
    /// f32s (ring) or whole per-peer blocks (fan-out) are driven by
    /// `Next`. Carrying the segment size here keeps chunking policy
    /// controller-local: followers need no configuration.
    Start { tag: String, seg_elems: usize },
    /// Run one more segment of the innermost in-progress chunked op.
    Next,
    /// Clean controller shutdown.
    Shutdown,
}

fn pack_ctrl(ctrl: &Ctrl) -> Vec<u32> {
    let line = match ctrl {
        Ctrl::Run(tag) => format!("r{tag}"),
        Ctrl::Start { tag, seg_elems } => format!("c{seg_elems}:{tag}"),
        Ctrl::Next => "n".to_string(),
        Ctrl::Shutdown => "q".to_string(),
    };
    let bytes = line.as_bytes();
    let mut words = Vec::with_capacity(1 + bytes.len().div_ceil(4));
    words.push(bytes.len() as u32);
    for group in bytes.chunks(4) {
        let mut w = [0u8; 4];
        w[..group.len()].copy_from_slice(group);
        words.push(u32::from_le_bytes(w));
    }
    words
}

fn unpack_ctrl(words: &[u32]) -> Option<Ctrl> {
    let (&len, rest) = words.split_first()?;
    let len = len as usize;
    if rest.len() != len.div_ceil(4) {
        return None;
    }
    let mut bytes = Vec::with_capacity(rest.len() * 4);
    for w in rest {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.truncate(len);
    let line = String::from_utf8(bytes).ok()?;
    let rest = line.get(1..)?;
    match line.as_bytes().first()? {
        b'r' => Some(Ctrl::Run(rest.to_string())),
        b'n' if line.len() == 1 => Some(Ctrl::Next),
        b'q' if line.len() == 1 => Some(Ctrl::Shutdown),
        b'c' => {
            // The segment size is the decimal prefix; the tag is
            // everything after the first ':' (tags may contain ':').
            let (seg, tag) = rest.split_once(':')?;
            Some(Ctrl::Start { tag: tag.to_string(), seg_elems: seg.parse().ok()? })
        }
        _ => None,
    }
}

fn broadcast_ctrl(ep: &mut Endpoint, ctrl: &Ctrl) {
    let words: TokenBuf = pack_ctrl(ctrl).into();
    for dst in 1..ep.world() {
        // A peer whose comm thread already failed fast is gone; that is
        // its own typed failure, not a reason to panic here.
        let _ = ep.try_send(dst, Packet::Tokens(words.share()));
    }
}

/// Receive the next control token from the controller. Every failure is
/// typed and distinguishable: a disconnect is `PeerGone` (the controller
/// failed fast), an expired deadline is `Timeout` (transient stall), an
/// abort packet is `Aborted` — and none of them is conflated with a clean
/// shutdown, which arrives as an explicit [`Ctrl::Shutdown`] token.
fn recv_ctrl(ep: &mut Endpoint) -> Result<Ctrl, CommError> {
    let words = ep.try_recv(0)?.try_into_tokens()?;
    unpack_ctrl(&words).ok_or(CommError::Protocol {
        expected: "a control token from the controller",
        got: "malformed control payload",
    })
}

// ---------------------------------------------------------------------------
// Resumable chunked execution.
// ---------------------------------------------------------------------------

/// A collective in flight, executed one *unit* at a time so the
/// controller can preempt between units: the [`crate::ops`] machines,
/// stepped instead of run to completion. Ring units are `seg_elems`-f32
/// segments; fan-out units are one send plus one receive in
/// [`crate::schedule::Traversal::Paired`] order.
enum ChunkedExec {
    Ring(RingMachine, Vec<f32>),
    Dense(FanoutMachine<DenseTensor>),
    Sparse(FanoutMachine<RowSparse>),
    Tokens(FanoutMachine<TokenBuf>),
}

impl ChunkedExec {
    fn new(
        op: CommOp,
        ep: &Endpoint,
        seg_elems: usize,
        spare: &mut Vec<DenseTensor>,
    ) -> Result<Self, CommError> {
        match op {
            CommOp::AllReduceDense(buf) => {
                let ring = Ring::new(ep.world(), ep.rank(), buf.len(), seg_elems);
                Ok(ChunkedExec::Ring(RingMachine::new(ring, std::mem::take(spare)), buf))
            }
            CommOp::AlltoAllDense(parts) => Ok(ChunkedExec::Dense(FanoutMachine::new(ep, parts))),
            CommOp::AlltoAllSparse(parts) => Ok(ChunkedExec::Sparse(FanoutMachine::new(ep, parts))),
            CommOp::GatherTokens(local) => {
                let local = TokenBuf::from(local);
                let parts = (0..ep.world()).map(|_| local.share()).collect();
                Ok(ChunkedExec::Tokens(FanoutMachine::new(ep, parts)))
            }
            CommOp::Flush => Err(CommError::Protocol {
                expected: "a chunkable collective",
                got: "chunked start for a flush fence",
            }),
        }
    }

    /// Execute one unit. `Ok(None)` means the op yielded (more units
    /// remain); `Ok(Some(result))` means the last unit just ran.
    fn advance(&mut self, ep: &mut Endpoint) -> Result<Option<CommResult>, CommError> {
        let stepped = match self {
            ChunkedExec::Ring(machine, buf) => machine
                .step(ep, buf)
                .map(|()| machine.done().then(|| CommResult::AllReduceDense(std::mem::take(buf)))),
            ChunkedExec::Dense(m) => m.step(ep).map(|out| out.map(CommResult::AlltoAllDense)),
            ChunkedExec::Sparse(m) => m.step(ep).map(|out| out.map(CommResult::AlltoAllSparse)),
            ChunkedExec::Tokens(m) => m.step(ep).map(|out| out.map(CommResult::GatherTokens)),
        };
        stepped.or_else(|e| fail(ep, e))
    }
}

/// A chunked op suspended (or running) on the preemption stack.
struct Exec {
    priority: i64,
    tag: String,
    kind: &'static str,
    bytes: u64,
    done: Sender<CommResult>,
    machine: ChunkedExec,
    /// Units executed so far (for per-chunk span naming and
    /// [`OpTiming::chunks`]).
    chunk_idx: u32,
    /// `(submitted_s, started_s)` under observation.
    win: Option<(f64, f64)>,
}

// ---------------------------------------------------------------------------
// The communication thread.
// ---------------------------------------------------------------------------

type Obs = Option<Arc<Mutex<SchedObs>>>;

/// Rank 0 coordinates execution order (as Horovod's controller does):
/// it drains its own priority queue and broadcasts each chosen op's
/// control token; every other rank executes the matching job from its
/// local queue. This makes the cross-rank collective order deterministic
/// even when ranks' submissions race. Chunked ops re-enter the decision
/// loop between units: the controller checks its queue before each
/// `Ctrl::Next`, so a strictly more urgent op preempts the one in flight.
fn comm_thread(ep: &mut Endpoint, rx: &Receiver<Msg>, obs: Obs, chunk_bytes: Option<usize>) {
    use embrace_dlsim_queue_shim::StablePriorityQueue;
    let mut queue: StablePriorityQueue<Job> = StablePriorityQueue::new();
    let mut stack: Vec<Exec> = Vec::new();
    // Staging buffers the last finished chunked ring hands the next one.
    let mut spare: Vec<DenseTensor> = Vec::new();
    if ep.rank() == 0 {
        let mut open = true;
        loop {
            while let Ok(msg) = rx.try_recv() {
                match msg {
                    Msg::Submit(j) => queue.push(j.priority, j),
                    Msg::Shutdown => open = false,
                }
            }
            let step = if let Some(top_prio) = stack.last().map(|e| e.priority) {
                // §5.2's second dimension: between units, a strictly more
                // urgent submission preempts the op on the wire.
                if queue.peek_priority().is_some_and(|p| p < top_prio) {
                    let (_, job) = match queue.pop() {
                        Some(popped) => popped,
                        None => continue,
                    };
                    start_job(ep, job, chunk_bytes, &obs, &mut stack, &mut spare)
                } else {
                    broadcast_ctrl(ep, &Ctrl::Next);
                    step_top(ep, &mut stack, &mut spare, &obs)
                }
            } else if let Some((_, job)) = queue.pop() {
                start_job(ep, job, chunk_bytes, &obs, &mut stack, &mut spare)
            } else if !open {
                broadcast_ctrl(ep, &Ctrl::Shutdown);
                return;
            } else {
                // Idle: block for at least one job, then loop back to
                // drain the channel so the queue can reorder the pile-up.
                match rx.recv() {
                    Ok(Msg::Submit(j)) => queue.push(j.priority, j),
                    Ok(Msg::Shutdown) | Err(_) => open = false,
                }
                continue;
            };
            if let Err(err) = step {
                // Fail fast, but honour the abort contract: every ticket
                // this thread still holds observes a typed error.
                fail_all(stack, queue, rx, &err);
                return;
            }
        }
    } else {
        // Once this rank's handle shut down, the submission channel can
        // yield no further jobs: a controller tag with no local match is
        // then a divergence, not something to block (or panic) on.
        let mut local_open = true;
        loop {
            let step = match recv_ctrl(ep) {
                Ok(Ctrl::Shutdown) => {
                    // Clean controller shutdown. Locally queued leftovers
                    // were never globally scheduled (divergent enqueue);
                    // fail them instead of leaving waiters hanging.
                    fail_all(stack, queue, rx, &CommError::Aborted { origin: 0 });
                    return;
                }
                Ok(Ctrl::Run(tag)) => wait_for_job(&mut queue, rx, &tag, &mut local_open)
                    .and_then(|job| execute(ep, job, &obs)),
                Ok(Ctrl::Start { tag, seg_elems }) => {
                    wait_for_job(&mut queue, rx, &tag, &mut local_open).and_then(|job| {
                        begin_chunked(ep, job, seg_elems, &obs, &mut stack, &mut spare)
                    })
                }
                Ok(Ctrl::Next) => step_top(ep, &mut stack, &mut spare, &obs),
                Err(err) => Err(err),
            };
            if let Err(err) = step {
                fail_all(stack, queue, rx, &err);
                return;
            }
        }
    }
}

/// Fail every pending ticket this thread still holds — suspended chunked
/// ops, queued jobs, and submissions sitting unread in the channel — with
/// a typed error. The caller returns immediately afterwards, dropping
/// `rx`, so *later* submissions observe [`CommError::Aborted`] through
/// the closed channel instead of a panic.
fn fail_all(
    stack: Vec<Exec>,
    mut queue: embrace_dlsim_queue_shim::StablePriorityQueue<Job>,
    rx: &Receiver<Msg>,
    err: &CommError,
) {
    for e in stack {
        let _ = e.done.send(CommResult::Failed(err.clone()));
    }
    while let Some((_, j)) = queue.pop() {
        let _ = j.done.send(CommResult::Failed(err.clone()));
    }
    while let Ok(Msg::Submit(j)) = rx.try_recv() {
        let _ = j.done.send(CommResult::Failed(err.clone()));
    }
}

/// Block until the job named by the controller has been submitted
/// locally. After a local shutdown no further submissions can arrive, so
/// an unmatched tag is a divergence: a typed `Protocol` failure, not a
/// panic and not an indefinite block.
fn wait_for_job(
    queue: &mut embrace_dlsim_queue_shim::StablePriorityQueue<Job>,
    rx: &Receiver<Msg>,
    tag: &str,
    local_open: &mut bool,
) -> Result<Job, CommError> {
    loop {
        if let Some(job) = queue.take_by_tag(tag) {
            return Ok(job);
        }
        if !*local_open {
            return Err(CommError::Protocol {
                expected: "a locally submitted job matching the controller's tag",
                got: "an orphan tag after local shutdown (divergent enqueue)",
            });
        }
        match rx.recv() {
            Ok(Msg::Submit(j)) => queue.push(j.priority, j),
            Ok(Msg::Shutdown) | Err(_) => {
                *local_open = false;
                while let Ok(Msg::Submit(j)) = rx.try_recv() {
                    queue.push(j.priority, j);
                }
            }
        }
    }
}

/// Controller-side dispatch: run `job` whole or start it chunked,
/// broadcasting the matching control token first.
fn start_job(
    ep: &mut Endpoint,
    job: Job,
    chunk_bytes: Option<usize>,
    obs: &Obs,
    stack: &mut Vec<Exec>,
    spare: &mut Vec<DenseTensor>,
) -> Result<(), CommError> {
    let chunked = chunk_bytes.is_some_and(|cb| {
        ep.world() > 1 && !matches!(job.op, CommOp::Flush) && job.op.payload_bytes() > cb as u64
    });
    if chunked {
        let cb = chunk_bytes.unwrap_or(DEFAULT_CHUNK_BYTES);
        let seg_elems = (cb / F32_BYTES).max(1);
        broadcast_ctrl(ep, &Ctrl::Start { tag: job.tag.clone(), seg_elems });
        begin_chunked(ep, job, seg_elems, obs, stack, spare)
    } else {
        broadcast_ctrl(ep, &Ctrl::Run(job.tag.clone()));
        execute(ep, job, obs)
    }
}

/// Fingerprint-check the op, then push its resumable machine onto the
/// preemption stack. Units run via [`step_top`].
fn begin_chunked(
    ep: &mut Endpoint,
    job: Job,
    seg_elems: usize,
    obs: &Obs,
    stack: &mut Vec<Exec>,
    spare: &mut Vec<DenseTensor>,
) -> Result<(), CommError> {
    let win = obs.as_ref().map(|o| {
        let g = o.lock();
        (g.clock.at(job.submitted_at), g.clock.now())
    });
    if let Err(err) = verify_spmd_fingerprint(ep, &job) {
        let _ = job.done.send(CommResult::Failed(err.clone()));
        return Err(err);
    }
    let Job { priority, tag, op, done, .. } = job;
    let kind = op.kind_str();
    let bytes = op.payload_bytes();
    let machine = match ChunkedExec::new(op, ep, seg_elems, spare) {
        Ok(m) => m,
        Err(err) => {
            let _ = done.send(CommResult::Failed(err.clone()));
            return Err(err);
        }
    };
    stack.push(Exec { priority, tag, kind, bytes, done, machine, chunk_idx: 0, win });
    Ok(())
}

/// Run one unit of the innermost in-flight chunked op, recording a chunk
/// span and — on the op's last unit — its op-level span, timing, and
/// result. A `Next` with an empty stack is a protocol divergence, typed
/// rather than panicked.
fn step_top(
    ep: &mut Endpoint,
    stack: &mut Vec<Exec>,
    spare: &mut Vec<DenseTensor>,
    obs: &Obs,
) -> Result<(), CommError> {
    if stack.is_empty() {
        return Err(CommError::Protocol {
            expected: "an in-progress chunked collective to resume",
            got: "a resume token with an empty execution stack",
        });
    }
    let chunk_start = obs.as_ref().map(|o| o.lock().clock.now());
    let top = stack.last_mut().expect("stack checked non-empty above");
    let done = match top.machine.advance(ep) {
        Ok(d) => d,
        Err(err) => {
            let failed = stack.pop().expect("stack checked non-empty above");
            let _ = failed.done.send(CommResult::Failed(err.clone()));
            return Err(err);
        }
    };
    if let (Some(o), Some(c0)) = (obs.as_ref(), chunk_start) {
        let mut g = o.lock();
        let now = g.clock.now();
        let track = g.track;
        let name = format!("{}/chunk{}", top.tag, top.chunk_idx);
        g.spans.record(track, &name, "chunk", c0, now);
    }
    top.chunk_idx += 1;
    if let Some(result) = done {
        let finished = stack.pop().expect("stack checked non-empty above");
        if let (Some(o), Some((submitted_s, started_s))) = (obs.as_ref(), finished.win) {
            let mut g = o.lock();
            let finished_s = g.clock.now();
            let track = g.track;
            g.spans.record(track, &finished.tag, finished.kind, started_s, finished_s);
            g.timings.push(OpTiming {
                tag: finished.tag.clone(),
                kind: finished.kind,
                priority: finished.priority,
                bytes: finished.bytes,
                submitted_s,
                started_s,
                finished_s,
                chunks: finished.chunk_idx,
            });
        }
        let _ = finished.done.send(result);
        if let ChunkedExec::Ring(machine, _) = finished.machine {
            spare.extend(machine.into_spare());
        }
    }
    Ok(())
}

fn execute(ep: &mut Endpoint, job: Job, obs: &Obs) -> Result<(), CommError> {
    // Cross-rank consistency: all ranks must run the same op, in the same
    // order, with the same priority. Always on (not just a debug assert):
    // a divergent enqueue in a release build would otherwise surface as a
    // silent deadlock inside a collective.
    // Capture metadata before the op's payload is consumed below. The exec
    // window includes the fingerprint round: it runs on the same mesh, so
    // it is genuine wire time attributable to this op. (Ops rejected by the
    // fingerprint check are not timed — the scheduler is shutting down.)
    let timing = obs.as_ref().map(|o| {
        let g = o.lock();
        (
            g.clock.at(job.submitted_at),
            g.clock.now(),
            job.tag.clone(),
            job.op.kind_str(),
            job.priority,
            job.op.payload_bytes(),
        )
    });
    if let Err(err) = verify_spmd_fingerprint(ep, &job) {
        let _ = job.done.send(CommResult::Failed(err.clone()));
        return Err(err);
    }
    let result = match job.op {
        CommOp::AllReduceDense(mut buf) => {
            try_ring_allreduce(ep, &mut buf).map(|()| CommResult::AllReduceDense(buf))
        }
        CommOp::AlltoAllDense(parts) => {
            try_alltoall_dense(ep, parts).map(CommResult::AlltoAllDense)
        }
        CommOp::AlltoAllSparse(parts) => {
            try_alltoallv_sparse(ep, parts).map(CommResult::AlltoAllSparse)
        }
        CommOp::GatherTokens(tokens) => {
            try_allgather_tokens(ep, tokens).map(CommResult::GatherTokens)
        }
        CommOp::Flush => Ok(CommResult::Flush),
    };
    let result = match result {
        Ok(result) => result,
        Err(err) => {
            let _ = job.done.send(CommResult::Failed(err.clone()));
            return Err(err);
        }
    };
    if let (Some(o), Some((submitted_s, started_s, tag, kind, priority, bytes))) =
        (obs.as_ref(), timing)
    {
        let mut g = o.lock();
        let finished_s = g.clock.now();
        let track = g.track;
        g.spans.record(track, &tag, kind, started_s, finished_s);
        g.timings.push(OpTiming {
            tag,
            kind,
            priority,
            bytes,
            submitted_s,
            started_s,
            finished_s,
            chunks: 1,
        });
    }
    // The submitter may have dropped the ticket (fire-and-forget delayed
    // gradients) — that's fine.
    let _ = job.done.send(result);
    Ok(())
}

/// Fingerprint the `(tag, priority, kind)` triple of the op this rank is
/// about to run; allgather everyone's and compare. Uses the same mesh, so
/// it also enforces the ordering it checks. Payload bytes are deliberately
/// *not* part of the fingerprint: per-rank payload sizes legitimately
/// differ (variable-length gathers). A peer that died mid-round surfaces
/// as the typed transport error, not a panic.
fn verify_spmd_fingerprint(ep: &mut Endpoint, job: &Job) -> Result<(), CommError> {
    let mut fp = 0xcbf29ce484222325u64; // FNV-1a
    let mut mix = |byte: u8| {
        fp ^= byte as u64;
        fp = fp.wrapping_mul(0x100000001b3);
    };
    for b in job.tag.bytes() {
        mix(b);
    }
    for b in job.priority.to_le_bytes() {
        mix(b);
    }
    for b in job.op.kind_str().bytes() {
        mix(b);
    }
    let local = vec![fp as u32, (fp >> 32) as u32];
    let all = try_allgather_tokens(ep, local.clone())?;
    if all.iter().all(|v| *v == local) {
        Ok(())
    } else {
        Err(CommError::Protocol {
            expected: "identical (tag, priority, kind) on every rank",
            got: "divergent SPMD op fingerprint",
        })
    }
}

/// Minimal internal shim so this crate does not depend on `embrace-dlsim`
/// (which depends on nothing here, keeping the dependency graph acyclic):
/// a stable min-priority queue identical in behaviour to
/// `embrace_dlsim::StablePriorityQueue`.
mod embrace_dlsim_queue_shim {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<T> {
        key: (i64, u64),
        item: T,
    }
    impl<T> PartialEq for Entry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<T> Eq for Entry<T> {}
    impl<T> Ord for Entry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            other.key.cmp(&self.key)
        }
    }
    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    pub struct StablePriorityQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        seq: u64,
    }

    impl<T> StablePriorityQueue<T> {
        pub fn new() -> Self {
            StablePriorityQueue { heap: BinaryHeap::new(), seq: 0 }
        }

        pub fn push(&mut self, priority: i64, item: T) {
            self.heap.push(Entry { key: (priority, self.seq), item });
            self.seq += 1;
        }

        pub fn pop(&mut self) -> Option<(i64, T)> {
            self.heap.pop().map(|e| (e.key.0, e.item))
        }

        /// Priority of the next item [`StablePriorityQueue::pop`] would
        /// return — the controller's preemption check.
        pub fn peek_priority(&self) -> Option<i64> {
            self.heap.peek().map(|e| e.key.0)
        }
    }

    impl StablePriorityQueue<super::Job> {
        /// Remove the highest-priority job whose tag matches.
        pub fn take_by_tag(&mut self, tag: &str) -> Option<super::Job> {
            let mut rest = Vec::with_capacity(self.heap.len());
            let mut found = None;
            while let Some(e) = self.heap.pop() {
                if found.is_none() && e.item.tag == tag {
                    found = Some(e.item);
                } else {
                    rest.push(e);
                }
            }
            for e in rest {
                self.heap.push(e);
            }
            found
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mesh;
    use embrace_tensor::DenseTensor;

    fn spawn_world(world: usize) -> Vec<CommScheduler> {
        mesh(world).into_iter().map(CommScheduler::spawn).collect()
    }

    #[test]
    fn allreduce_through_comm_threads() {
        let mut scheds = spawn_world(3);
        let tickets: Vec<Ticket> = scheds
            .iter_mut()
            .enumerate()
            .map(|(rank, s)| s.submit(0, "ar", CommOp::AllReduceDense(vec![rank as f32, 1.0])))
            .collect();
        for t in tickets {
            match t.wait() {
                CommResult::AllReduceDense(buf) => assert_eq!(buf, vec![3.0, 3.0]),
                other => panic!("unexpected result {other:?}"),
            }
        }
    }

    #[test]
    fn priority_order_respected_when_queued() {
        // Submit a low-priority then a high-priority op *before* flushing;
        // completion order is observed through a shared log of gathered
        // tokens: the high-priority gather must execute first on all ranks.
        let mut scheds = spawn_world(2);
        let mut low = Vec::new();
        let mut high = Vec::new();
        for (rank, s) in scheds.iter_mut().enumerate() {
            low.push(s.submit(10, "low", CommOp::GatherTokens(vec![rank as u32])));
            high.push(s.submit(-1, "high", CommOp::GatherTokens(vec![100 + rank as u32])));
        }
        // Both complete; the debug-mode tag verification would panic if
        // ranks disagreed on execution order.
        for t in high {
            assert!(matches!(t.wait(), CommResult::GatherTokens(_)));
        }
        for t in low {
            assert!(matches!(t.wait(), CommResult::GatherTokens(_)));
        }
    }

    #[test]
    fn alltoall_sparse_through_comm_threads() {
        let mut scheds = spawn_world(2);
        let mk = |v: f32| RowSparse::new(vec![0], DenseTensor::full(1, 1, v));
        let tickets: Vec<Ticket> = scheds
            .iter_mut()
            .enumerate()
            .map(|(rank, s)| {
                let parts = vec![mk(rank as f32), mk(rank as f32 + 10.0)];
                s.submit(0, "a2a", CommOp::AlltoAllSparse(parts))
            })
            .collect();
        let results: Vec<Vec<RowSparse>> = tickets
            .into_iter()
            .map(|t| match t.wait() {
                CommResult::AlltoAllSparse(r) => r,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(results[0][1].values().as_slice(), &[1.0]); // from rank 1
        assert_eq!(results[1][0].values().as_slice(), &[10.0]); // from rank 0
    }

    #[test]
    fn flush_waits_for_everything() {
        let mut scheds = spawn_world(2);
        let mut pending = Vec::new();
        for (rank, s) in scheds.iter_mut().enumerate() {
            for k in 0..5 {
                pending.push(s.submit(
                    k,
                    format!("op{k}"),
                    CommOp::GatherTokens(vec![rank as u32]),
                ));
            }
        }
        // flush() must only return after all 5 ops ran on both ranks.
        std::thread::scope(|sc| {
            for s in scheds.iter_mut() {
                sc.spawn(move || s.flush());
            }
        });
        for t in pending {
            assert!(matches!(t.wait(), CommResult::GatherTokens(_)));
        }
    }

    #[test]
    fn dropped_tickets_are_fine() {
        // Fire-and-forget (the delayed-gradient pattern): drop the ticket.
        let mut scheds = spawn_world(2);
        for (rank, s) in scheds.iter_mut().enumerate() {
            let _ = s.submit(5, "forgotten", CommOp::GatherTokens(vec![rank as u32]));
        }
        std::thread::scope(|sc| {
            for s in scheds.iter_mut() {
                sc.spawn(move || s.flush());
            }
        });
    }

    #[test]
    fn ctrl_roundtrip() {
        for ctrl in [
            Ctrl::Run("ar".into()),
            Ctrl::Run("tag:with:colons".into()),
            Ctrl::Start { tag: "bulk".into(), seg_elems: 65536 },
            Ctrl::Start { tag: "t:odd".into(), seg_elems: 1 },
            Ctrl::Next,
            Ctrl::Shutdown,
        ] {
            let words = pack_ctrl(&ctrl);
            assert_eq!(unpack_ctrl(&words), Some(ctrl));
        }
        // Packed: 4 tag bytes per token + the length prefix, not 1 per byte.
        let words = pack_ctrl(&Ctrl::Run("abcdefg".into()));
        assert_eq!(words.len(), 1 + 2); // len + ceil(8 bytes / 4)
        assert_eq!(unpack_ctrl(&[]), None);
        assert_eq!(unpack_ctrl(&[99, 0]), None); // length prefix lies
        assert_eq!(unpack_ctrl(&pack_ctrl_raw("zboom")), None); // unknown verb
        assert_eq!(unpack_ctrl(&pack_ctrl_raw("cnotanum:t")), None);
    }

    fn pack_ctrl_raw(line: &str) -> Vec<u32> {
        let bytes = line.as_bytes();
        let mut words = vec![bytes.len() as u32];
        for group in bytes.chunks(4) {
            let mut w = [0u8; 4];
            w[..group.len()].copy_from_slice(group);
            words.push(u32::from_le_bytes(w));
        }
        words
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::transport::mesh;
    use embrace_tensor::DenseTensor;

    #[test]
    fn alltoall_dense_through_comm_threads() {
        let mut scheds: Vec<CommScheduler> =
            mesh(3).into_iter().map(CommScheduler::spawn).collect();
        let tickets: Vec<Ticket> = scheds
            .iter_mut()
            .enumerate()
            .map(|(rank, s)| {
                let parts: Vec<DenseTensor> =
                    (0..3).map(|j| DenseTensor::full(1, 1, (rank * 3 + j) as f32)).collect();
                s.submit(0, "a2a-dense", CommOp::AlltoAllDense(parts))
            })
            .collect();
        for (j, t) in tickets.into_iter().enumerate() {
            let CommResult::AlltoAllDense(received) = t.wait() else { panic!("wrong kind") };
            for (i, block) in received.iter().enumerate() {
                assert_eq!(block.as_slice()[0], (i * 3 + j) as f32);
            }
        }
    }

    #[test]
    fn single_rank_scheduler() {
        let mut s = mesh(1).into_iter().map(CommScheduler::spawn).next().unwrap();
        let t = s.submit(0, "ar", CommOp::AllReduceDense(vec![4.0]));
        let CommResult::AllReduceDense(buf) = t.wait() else { panic!("wrong kind") };
        assert_eq!(buf, vec![4.0]);
        s.flush();
    }

    #[test]
    fn divergent_priorities_fail_fast_with_protocol_error() {
        // Both ranks submit the same tag but disagree on its priority: the
        // always-on SPMD fingerprint check must reject the op on every
        // rank instead of letting the mismatch fester into a deadlock.
        let mut scheds: Vec<CommScheduler> =
            mesh(2).into_iter().map(CommScheduler::spawn).collect();
        let tickets: Vec<Ticket> = scheds
            .iter_mut()
            .enumerate()
            .map(|(rank, s)| {
                s.submit(rank as i64, "skewed", CommOp::GatherTokens(vec![rank as u32]))
            })
            .collect();
        for t in tickets {
            match t.wait() {
                CommResult::Failed(crate::transport::CommError::Protocol { .. }) => {}
                other => panic!("expected Failed(Protocol), got {other:?}"),
            }
        }
    }

    #[test]
    fn submission_log_records_everything() {
        let mut scheds: Vec<CommScheduler> =
            mesh(2).into_iter().map(CommScheduler::spawn).collect();
        for (rank, s) in scheds.iter_mut().enumerate() {
            s.submit(3, "g", CommOp::GatherTokens(vec![rank as u32, 9]));
            s.submit(-1, "ar", CommOp::AllReduceDense(vec![0.0; 4]));
        }
        std::thread::scope(|sc| {
            for s in scheds.iter_mut() {
                sc.spawn(move || s.flush());
            }
        });
        for s in &scheds {
            let log = s.submitted();
            assert_eq!(log.len(), 3); // two ops + the flush fence
            assert_eq!(
                (log[0].tag.as_str(), log[0].kind, log[0].priority),
                ("g", "gather_tokens", 3)
            );
            assert_eq!(log[0].bytes, 2 * embrace_tensor::TOKEN_BYTES as u64);
            assert_eq!((log[1].tag.as_str(), log[1].kind), ("ar", "allreduce_dense"));
            assert_eq!(log[1].bytes, 4 * embrace_tensor::F32_BYTES as u64);
            assert_eq!(log[2].kind, "flush");
        }
    }

    #[test]
    fn observed_scheduler_times_queue_wait_and_transfer() {
        let mut scheds: Vec<CommScheduler> =
            mesh(2).into_iter().map(CommScheduler::spawn_observed).collect();
        let mut tickets = Vec::new();
        for (rank, s) in scheds.iter_mut().enumerate() {
            tickets.push(s.submit(1, "g0", CommOp::GatherTokens(vec![rank as u32])));
            tickets.push(s.submit(0, "ar", CommOp::AllReduceDense(vec![1.0; 8])));
        }
        std::thread::scope(|sc| {
            for s in scheds.iter_mut() {
                sc.spawn(move || s.flush());
            }
        });
        for t in tickets {
            assert!(!matches!(t.wait(), CommResult::Failed(_)));
        }
        for (rank, s) in scheds.iter().enumerate() {
            let (spans, timings) = s.observation().expect("spawn_observed records timings");
            // Two ops + the flush fence, each spanned on this rank's track.
            assert_eq!(timings.len(), 3);
            assert_eq!(spans.len(), 3);
            assert_eq!(spans.track_name(0), format!("comm-{rank}"));
            spans.check_well_nested().expect("serial comm-thread spans nest");
            for t in &timings {
                assert!(t.queue_wait() >= 0.0, "{}: negative queue wait", t.tag);
                assert!(t.exec_time() >= 0.0, "{}: negative exec time", t.tag);
                assert_eq!(t.chunks, 1, "{}: unchunked scheduler ran whole ops", t.tag);
            }
            let ar = timings.iter().find(|t| t.tag == "ar").expect("ar timed");
            assert_eq!(ar.kind, "allreduce_dense");
            assert_eq!(ar.bytes, 8 * embrace_tensor::F32_BYTES as u64);
            let m = scheduler_metrics(&timings);
            assert_eq!(m.counter("sched.ops_executed"), 3);
            assert_eq!(m.counter("sched.chunks_executed"), 3);
            assert_eq!(m.histogram("sched.exec_s").expect("exec histogram").count(), 3);
        }
        // Plain spawn records nothing.
        let s = mesh(1).into_iter().map(CommScheduler::spawn).next().expect("one scheduler");
        assert!(s.observation().is_none());
    }

    #[test]
    fn many_interleaved_ops_complete() {
        let mut scheds: Vec<CommScheduler> =
            mesh(4).into_iter().map(CommScheduler::spawn).collect();
        let mut tickets = Vec::new();
        for round in 0..10i64 {
            for (rank, s) in scheds.iter_mut().enumerate() {
                tickets.push(s.submit(
                    10 - round, // later rounds more urgent: stress reordering
                    format!("round{round}"),
                    CommOp::GatherTokens(vec![rank as u32, round as u32]),
                ));
            }
        }
        let mut completed = 0;
        for t in tickets {
            assert!(matches!(t.wait(), CommResult::GatherTokens(_)));
            completed += 1;
        }
        assert_eq!(completed, 40);
    }
}

#[cfg(test)]
mod abort_contract_tests {
    //! The satellite bugfixes: every shutdown/abort path yields a typed
    //! [`CommError`] — no panic is reachable from divergent enqueues,
    //! fail-fast shutdown, or a control-channel timeout.
    use super::*;
    use crate::transport::{mesh, mesh_with_faults, FaultPlan};
    use std::time::Duration;

    /// Divergent enqueue: every rank submits a tag no other rank knows,
    /// then drops its scheduler. No panic anywhere; every ticket resolves
    /// to a typed failure (Protocol / PeerGone / Aborted depending on
    /// which rank noticed first).
    fn divergent_enqueue_world(world: usize, observed: bool) {
        let mut scheds: Vec<CommScheduler> = mesh(world)
            .into_iter()
            .map(|ep| {
                if observed {
                    CommScheduler::spawn_observed(ep)
                } else {
                    CommScheduler::spawn(ep)
                }
            })
            .collect();
        std::thread::scope(|sc| {
            for (rank, s) in scheds.drain(..).enumerate().rev() {
                sc.spawn(move || {
                    let mut s = s;
                    let t = s.submit(0, format!("only-{rank}"), CommOp::GatherTokens(vec![1]));
                    drop(s); // fail-fast shutdown while the op is pending
                    match t.wait() {
                        CommResult::Failed(err) => {
                            assert!(
                                matches!(
                                    err,
                                    CommError::Protocol { .. }
                                        | CommError::PeerGone { .. }
                                        | CommError::Aborted { .. }
                                ),
                                "rank {rank}: unexpected error {err:?}"
                            );
                        }
                        other => panic!("rank {rank}: expected Failed, got {other:?}"),
                    }
                });
            }
        });
    }

    #[test]
    fn divergent_enqueue_typed_failures_worlds_2_to_4() {
        for world in 2..=4 {
            divergent_enqueue_world(world, false);
            divergent_enqueue_world(world, true);
        }
    }

    #[test]
    fn wait_after_failure_returns_typed_error_for_queued_tickets() {
        // Ops queued *behind* the op that fails must also resolve typed:
        // the skewed-priority gather trips the fingerprint check, and the
        // allreduce queued after it is failed by the shutting-down thread.
        let mut scheds: Vec<CommScheduler> =
            mesh(2).into_iter().map(CommScheduler::spawn).collect();
        let mut first = Vec::new();
        let mut behind = Vec::new();
        for (rank, s) in scheds.iter_mut().enumerate() {
            first.push(s.submit(rank as i64, "skewed", CommOp::GatherTokens(vec![7])));
            behind.push(s.submit(50, "behind", CommOp::AllReduceDense(vec![1.0; 4])));
        }
        for t in first {
            assert!(matches!(t.wait(), CommResult::Failed(_)));
        }
        for t in behind {
            assert!(matches!(t.wait(), CommResult::Failed(_)));
        }
    }

    #[test]
    fn submit_and_flush_after_shutdown_fail_typed() {
        // Trip the fail-fast path, then keep using the handle: submit and
        // flush must return typed aborts, not panic on the closed channel.
        let mut scheds: Vec<CommScheduler> =
            mesh(2).into_iter().map(CommScheduler::spawn).collect();
        let tickets: Vec<Ticket> = scheds
            .iter_mut()
            .enumerate()
            .map(|(rank, s)| s.submit(rank as i64, "skewed", CommOp::GatherTokens(vec![7])))
            .collect();
        for t in tickets {
            assert!(matches!(t.wait(), CommResult::Failed(_)));
        }
        for s in scheds.iter_mut() {
            let late = s.submit(0, "late", CommOp::GatherTokens(vec![1]));
            assert!(matches!(late.wait(), CommResult::Failed(_)));
            assert!(matches!(s.flush(), CommResult::Failed(_)));
        }
    }

    #[test]
    fn control_channel_timeout_is_typed_not_conflated_with_shutdown() {
        // Delay the controller's control channel past the recv deadline:
        // rank 1 must fail its pending op with the *original* Timeout (or
        // the follow-on PeerGone if the controller noticed first) — and
        // never treat the stall as a clean shutdown or panic.
        let plan = FaultPlan::new(11).delay_link(0, 1, Duration::from_secs(3600));
        let mut scheds: Vec<CommScheduler> =
            mesh_with_faults(2, &plan, Some(Duration::from_millis(50)))
                .into_iter()
                .map(CommScheduler::spawn)
                .collect();
        std::thread::scope(|sc| {
            for (rank, s) in scheds.drain(..).enumerate().rev() {
                sc.spawn(move || {
                    let mut s = s;
                    let t = s.submit(0, "g", CommOp::GatherTokens(vec![rank as u32]));
                    let result = t.wait();
                    match result {
                        CommResult::Failed(err) => assert!(
                            matches!(
                                err,
                                CommError::Timeout { .. }
                                    | CommError::PeerGone { .. }
                                    | CommError::Aborted { .. }
                            ),
                            "rank {rank}: unexpected error {err:?}"
                        ),
                        other => panic!("rank {rank}: expected Failed, got {other:?}"),
                    }
                    drop(s);
                });
            }
        });
    }

    #[test]
    fn peer_crash_inside_a_whole_op_fails_typed_with_the_real_cause() {
        // The last rank's endpoint tears down at the ring's first send (its
        // earlier sends are the fingerprint round), on a scheduler that
        // runs ops whole. Every waiter must see the real cause — the
        // victim its own injection, survivors the peer they lost or the
        // abort of whoever noticed first — never a panicked comm thread's
        // `Aborted { origin: <own rank> }`. The op queued behind fails
        // typed too (with the same cause, or the closed-channel abort if
        // it lost the race against the comm thread's exit).
        for world in 2..=3 {
            let victim = world - 1;
            let plan = FaultPlan::new(23).crash_rank_at_op(victim, (world - 1) as u64);
            let mut scheds: Vec<CommScheduler> =
                mesh_with_faults(world, &plan, Some(Duration::from_millis(250)))
                    .into_iter()
                    .map(CommScheduler::spawn)
                    .collect();
            std::thread::scope(|sc| {
                for (rank, s) in scheds.iter_mut().enumerate() {
                    sc.spawn(move || {
                        let ar = s.submit(0, "ar", CommOp::AllReduceDense(vec![1.0; 64]));
                        let behind = s.submit(5, "behind", CommOp::GatherTokens(vec![7]));
                        let CommResult::Failed(err) = ar.wait() else {
                            panic!("world {world} rank {rank}: allreduce survived the crash")
                        };
                        let real_cause = match err {
                            CommError::Injected { rank: r } => r == victim && rank == victim,
                            CommError::PeerGone { .. } | CommError::Timeout { .. } => true,
                            CommError::Aborted { origin } => origin != rank,
                            _ => false,
                        };
                        assert!(real_cause, "world {world} rank {rank}: {err:?}");
                        assert!(matches!(behind.wait(), CommResult::Failed(_)));
                        let comm = s.handle.take().expect("comm thread handle");
                        assert!(comm.join().is_ok(), "world {world} rank {rank}: comm panicked");
                    });
                }
            });
        }
    }

    #[test]
    fn clean_shutdown_with_unscheduled_local_op_fails_typed() {
        // Rank 1 queues an op rank 0 never heard of, then both shut down.
        // The controller drains nothing, broadcasts the shutdown token,
        // and rank 1's leftover ticket must resolve Failed(Aborted).
        let mut eps = mesh(2).into_iter();
        let s0 = CommScheduler::spawn(eps.next().expect("rank 0"));
        let mut s1 = CommScheduler::spawn(eps.next().expect("rank 1"));
        let orphan = s1.submit(0, "nobody-else", CommOp::GatherTokens(vec![9]));
        drop(s0); // clean controller shutdown: empty queue
        drop(s1);
        match orphan.wait() {
            CommResult::Failed(CommError::Aborted { .. }) => {}
            other => panic!("expected Failed(Aborted), got {other:?}"),
        }
    }
}

#[cfg(test)]
mod chunked_tests {
    use super::*;
    use crate::transport::mesh;
    use embrace_tensor::DenseTensor;

    /// Chunk small enough that even modest payloads split: 64 bytes =
    /// 16 f32 elements per ring segment.
    const TINY_CHUNK: usize = 64;

    fn spawn_chunked_world(world: usize) -> Vec<CommScheduler> {
        mesh(world).into_iter().map(|ep| CommScheduler::spawn_chunked(ep, TINY_CHUNK)).collect()
    }

    #[test]
    fn chunked_allreduce_matches_unchunked_bitwise() {
        for world in 2..=4 {
            let payload = |rank: usize| -> Vec<f32> {
                (0..257).map(|i| ((rank * 131 + i * 7) as f32) * 0.1).collect()
            };
            let expect: Vec<f32> = {
                let mut scheds: Vec<CommScheduler> =
                    mesh(world).into_iter().map(CommScheduler::spawn).collect();
                let tickets: Vec<Ticket> = scheds
                    .iter_mut()
                    .enumerate()
                    .map(|(r, s)| s.submit(0, "ar", CommOp::AllReduceDense(payload(r))))
                    .collect();
                let mut out = None;
                for t in tickets {
                    let CommResult::AllReduceDense(buf) = t.wait() else { panic!("wrong kind") };
                    out = Some(buf);
                }
                out.expect("at least one rank")
            };
            let mut scheds = spawn_chunked_world(world);
            let tickets: Vec<Ticket> = scheds
                .iter_mut()
                .enumerate()
                .map(|(r, s)| s.submit(0, "ar", CommOp::AllReduceDense(payload(r))))
                .collect();
            for t in tickets {
                let CommResult::AllReduceDense(buf) = t.wait() else { panic!("wrong kind") };
                let got: Vec<u32> = buf.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = expect.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "world {world}: chunked != unchunked");
            }
        }
    }

    #[test]
    fn chunked_fanout_ops_deliver_exact_blocks() {
        for world in 2..=4 {
            let mut scheds = spawn_chunked_world(world);
            let mut tickets = Vec::new();
            for (rank, s) in scheds.iter_mut().enumerate() {
                let dense: Vec<DenseTensor> = (0..world)
                    .map(|j| DenseTensor::full(4, 4, (rank * world + j) as f32))
                    .collect();
                tickets.push(s.submit(0, "a2ad", CommOp::AlltoAllDense(dense)));
                let sparse: Vec<RowSparse> = (0..world)
                    .map(|j| {
                        RowSparse::new(
                            vec![j as u32],
                            DenseTensor::full(1, 8, (rank * world + j) as f32),
                        )
                    })
                    .collect();
                tickets.push(s.submit(1, "a2as", CommOp::AlltoAllSparse(sparse)));
                tickets.push(s.submit(
                    2,
                    "gt",
                    CommOp::GatherTokens((0..9).map(|k| (rank * 16 + k) as u32).collect()),
                ));
            }
            let per_rank = 3;
            for (i, t) in tickets.into_iter().enumerate() {
                let rank = i / per_rank;
                match t.wait() {
                    CommResult::AlltoAllDense(blocks) => {
                        for (src, b) in blocks.iter().enumerate() {
                            assert_eq!(b.as_slice()[0], (src * world + rank) as f32);
                            assert_eq!(b.as_slice().len(), 16);
                        }
                    }
                    CommResult::AlltoAllSparse(parts) => {
                        for (src, p) in parts.iter().enumerate() {
                            assert_eq!(p.values().as_slice()[0], (src * world + rank) as f32);
                        }
                    }
                    CommResult::GatherTokens(all) => {
                        for (src, toks) in all.iter().enumerate() {
                            let want: Vec<u32> = (0..9).map(|k| (src * 16 + k) as u32).collect();
                            assert_eq!(toks, &want);
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn high_priority_op_preempts_bulk_mid_flight() {
        // A bulk low-priority allreduce big enough to still be on the wire
        // when small urgent gathers arrive: with chunking they must finish
        // *before* the bulk op (observed via OpTiming), and the bulk
        // result must still be exact.
        let world = 2;
        let elems = 1 << 20; // 4 MiB per rank
        let mut scheds: Vec<CommScheduler> = mesh(world)
            .into_iter()
            .map(|ep| CommScheduler::spawn_chunked_observed(ep, 16 << 10))
            .collect();
        std::thread::scope(|sc| {
            for (rank, s) in scheds.iter_mut().enumerate() {
                sc.spawn(move || {
                    let buf = vec![(rank + 1) as f32; elems];
                    let bulk = s.submit(100, "bulk", CommOp::AllReduceDense(buf));
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let hp = s.submit(-10, "hp", CommOp::GatherTokens(vec![rank as u32]));
                    let CommResult::GatherTokens(all) = hp.wait() else { panic!("hp failed") };
                    assert_eq!(all, vec![vec![0], vec![1]]);
                    let CommResult::AllReduceDense(out) = bulk.wait() else {
                        panic!("bulk failed")
                    };
                    assert!(out.iter().all(|&x| x == 3.0), "bulk result wrong after preemption");
                    s.flush();
                });
            }
        });
        for s in &scheds {
            let (spans, timings) = s.observation().expect("observed");
            spans.check_well_nested().expect("preemption nests inside the preempted op's span");
            let bulk = timings.iter().find(|t| t.tag == "bulk").expect("bulk timed");
            assert!(bulk.chunks > 1, "bulk ran whole: chunks = {}", bulk.chunks);
            let hp = timings.iter().find(|t| t.tag == "hp").expect("hp timed");
            assert!(
                hp.finished_s < bulk.finished_s,
                "hp (finished {:.6}s) should preempt bulk (finished {:.6}s)",
                hp.finished_s,
                bulk.finished_s
            );
        }
    }

    #[test]
    fn nested_preemption_three_levels() {
        // bulk (chunked) preempted by mid (chunked) preempted by hp
        // (whole): all three must complete with exact results.
        let world = 2;
        let mut scheds: Vec<CommScheduler> =
            mesh(world).into_iter().map(|ep| CommScheduler::spawn_chunked(ep, 4 << 10)).collect();
        std::thread::scope(|sc| {
            for (rank, s) in scheds.iter_mut().enumerate() {
                sc.spawn(move || {
                    let bulk = s.submit(100, "bulk", CommOp::AllReduceDense(vec![1.0; 1 << 19]));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    let mid = s.submit(10, "mid", CommOp::AllReduceDense(vec![2.0; 1 << 17]));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    let hp = s.submit(-10, "hp", CommOp::GatherTokens(vec![rank as u32]));
                    let CommResult::GatherTokens(all) = hp.wait() else { panic!("hp failed") };
                    assert_eq!(all.len(), 2);
                    let CommResult::AllReduceDense(m) = mid.wait() else { panic!("mid failed") };
                    assert!(m.iter().all(|&x| x == 4.0));
                    let CommResult::AllReduceDense(b) = bulk.wait() else { panic!("bulk failed") };
                    assert!(b.iter().all(|&x| x == 2.0));
                });
            }
        });
    }

    #[test]
    fn chunked_scheduler_passes_whole_op_suite() {
        // Small ops below the chunk threshold run whole on a chunked
        // scheduler; everything still completes in priority order.
        let mut scheds: Vec<CommScheduler> = mesh(3)
            .into_iter()
            .map(|ep| CommScheduler::spawn_chunked(ep, DEFAULT_CHUNK_BYTES))
            .collect();
        let mut tickets = Vec::new();
        for (rank, s) in scheds.iter_mut().enumerate() {
            tickets.push(s.submit(1, "g", CommOp::GatherTokens(vec![rank as u32])));
            tickets.push(s.submit(0, "ar", CommOp::AllReduceDense(vec![rank as f32; 8])));
        }
        std::thread::scope(|sc| {
            for s in scheds.iter_mut() {
                sc.spawn(move || s.flush());
            }
        });
        for t in tickets {
            assert!(!matches!(t.wait(), CommResult::Failed(_)));
        }
    }

    #[test]
    fn divergent_enqueue_on_chunked_scheduler_fails_typed() {
        // The abort contract holds for chunked ops too: payloads above the
        // threshold take the Start/Next path, and a divergence still
        // resolves every ticket with a typed error, no panic.
        for world in 2..=3 {
            let mut scheds = spawn_chunked_world(world);
            std::thread::scope(|sc| {
                for (rank, s) in scheds.drain(..).enumerate().rev() {
                    sc.spawn(move || {
                        let mut s = s;
                        let t = s.submit(
                            0,
                            format!("bulk-{rank}"),
                            CommOp::AllReduceDense(vec![1.0; 4096]),
                        );
                        drop(s);
                        assert!(matches!(t.wait(), CommResult::Failed(_)));
                    });
                }
            });
        }
    }
}

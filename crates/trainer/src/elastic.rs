//! Elastic training: survive rank loss by shrinking the group live, or
//! fall back to checkpoint-restart — chosen by a [`RecoveryPolicy`].
//!
//! This is the training-loop half of elastic membership (DESIGN §8,
//! "Elastic membership & epochs"). The collectives half — epoch-tagged
//! transport and the re-form protocol — lives in
//! [`embrace_collectives::ElasticWorker`]; here we make the *model state*
//! survive the membership change:
//!
//! * Every step begins with a local **snapshot** of the rank's column
//!   shard, its Adam moments and the replicated projection state. The
//!   last two snapshots are kept, because survivors can disagree by at
//!   most one step on where a failure landed.
//! * Every step ends with a **replica ring exchange**: each rank ships
//!   its post-step shard state to its logical successor. The replica is
//!   overwritten only on a successful receive, so it always holds a
//!   begin-of-step state consistent with what the restore will need.
//! * On a failed collective the survivors [`ElasticWorker::reform`],
//!   agree (via an AllGather) on the oldest begin-of-step snapshot any
//!   of them holds, consult the [`RecoveryPolicy`], and either
//!   **shrink** — every pre-crash shard slot is broadcast by its holder
//!   (the owner if it survived, else the ring successor holding the
//!   replica), the full table is reassembled by column concatenation and
//!   re-sharded for the smaller world — or return
//!   [`ElasticRankOutcome::NeedsRestart`] so the driver relaunches the
//!   full group from the last checkpoint.
//!
//! Everything is rebuilt bitwise-exactly: Adam moments are column-sliced
//! from the reassembled full moments, batch streams are reseeded by the
//! new logical rank and fast-forwarded, and the loss history is truncated
//! to the restore step. The headline test asserts that the post-shrink
//! loss trajectory equals a *fresh fault-free run at the smaller world
//! started from the same restored state*, bit for bit.

use crate::real::{batch_stream, embrace_step, init_toy_state, ConvergenceConfig};
use embrace_collectives::ops::{try_allgather_tokens, try_broadcast};
use embrace_collectives::{
    run_group, run_group_with_deadline, Comm, CommError, ElasticError, ElasticWorker, Endpoint,
    FaultPlan, GroupError, Packet,
};
use embrace_core::ColumnShardedEmbedding;
use embrace_dlsim::optim::Adam;
use embrace_dlsim::Prefetcher;
use embrace_models::{BatchGen, ZipfSampler};
use embrace_simnet::{Recovery, RecoveryModel};
use embrace_tensor::{column_partition, DenseTensor};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// How the surviving group reacts to losing a rank.
#[derive(Clone, Copy, Debug)]
pub enum RecoveryPolicy {
    /// Always re-form without the lost rank and keep training.
    Shrink,
    /// Always roll back to the last checkpoint and relaunch the full
    /// group (the driver prunes the fired crash from the fault plan).
    Restart,
    /// Price both options with the live cost model and pick the cheaper,
    /// computed identically on every survivor from the agreed restore
    /// step — so the group never splits on the decision.
    ModelDriven(RecoveryModel),
}

/// Configuration of one elastic training run.
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// The training workload (full-world size, model shape, steps, seed).
    pub train: ConvergenceConfig,
    /// The fault schedule injected into the mesh.
    pub plan: FaultPlan,
    /// Per-receive deadline before a rank declares [`CommError::Timeout`].
    pub recv_deadline: Duration,
    /// Whole-group watchdog per launch attempt.
    pub group_deadline: Duration,
    /// What to do when a rank is lost.
    pub policy: RecoveryPolicy,
    /// Steps between collective checkpoint assemblies (0 = never; the
    /// deterministic initial state always counts as a step-0 checkpoint).
    pub checkpoint_interval: u64,
    /// How many checkpoint-restarts the driver will attempt.
    pub max_restarts: u32,
}

impl ElasticConfig {
    /// A small, fast workload suited to scenario sweeps and tests.
    pub fn quick(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        ElasticConfig {
            train: ConvergenceConfig {
                world: 4,
                vocab: 40,
                dim: 8,
                tokens_per_batch: 12,
                steps: 8,
                ..Default::default()
            },
            plan,
            recv_deadline: Duration::from_millis(400),
            group_deadline: Duration::from_secs(60),
            policy,
            checkpoint_interval: 4,
            max_restarts: 3,
        }
    }
}

/// A complete, world-independent training state: the full embedding table
/// with its Adam moments, the replicated projection with its moments, the
/// step reached, and the loss history up to that step. Any world size can
/// be (re)started from it bitwise-deterministically.
#[derive(Clone, Debug)]
pub struct FullState {
    /// The next step to run.
    pub step: u64,
    pub emb: DenseTensor,
    pub emb_m: DenseTensor,
    pub emb_v: DenseTensor,
    pub w: DenseTensor,
    pub w_m: DenseTensor,
    pub w_v: DenseTensor,
    /// Global losses of steps `0..step`.
    pub losses: Vec<f64>,
}

impl FullState {
    /// The deterministic step-0 state every run starts from.
    pub fn initial(cfg: &ConvergenceConfig) -> FullState {
        let (emb, w, _) = init_toy_state(cfg);
        FullState {
            step: 0,
            emb_m: DenseTensor::zeros(cfg.vocab, cfg.dim),
            emb_v: DenseTensor::zeros(cfg.vocab, cfg.dim),
            w_m: DenseTensor::zeros(cfg.dim, cfg.dim),
            w_v: DenseTensor::zeros(cfg.dim, cfg.dim),
            emb,
            w,
            losses: Vec::new(),
        }
    }
}

/// Per-rank live training state.
struct RankState {
    emb: ColumnShardedEmbedding,
    w: DenseTensor,
    opt_e: Adam,
    opt_w: Adam,
    stream: Prefetcher<Vec<u32>, BatchGen>,
    targets: DenseTensor,
    /// The next step to run.
    step: u64,
}

impl RankState {
    /// Rebuild the state of logical `rank` in a `world`-sized group from
    /// a full checkpoint — sharding, moment slices and the fast-forwarded
    /// batch stream are all bitwise what a fresh run at that world would
    /// have after `fs.step` steps.
    fn from_full(
        fs: &FullState,
        rank: usize,
        world: usize,
        cfg: &ConvergenceConfig,
        sampler: &ZipfSampler,
    ) -> RankState {
        let (_, _, targets) = init_toy_state(cfg);
        let part = column_partition(cfg.dim, world);
        let r = &part[rank];
        let emb = ColumnShardedEmbedding::new(&fs.emb, rank, world);
        let opt_e = Adam::from_state(
            cfg.lr,
            fs.emb_m.slice_columns(r.start, r.end),
            fs.emb_v.slice_columns(r.start, r.end),
            fs.step,
        );
        let opt_w = Adam::from_state(cfg.lr, fs.w_m.clone(), fs.w_v.clone(), fs.step);
        let mut stream = batch_stream(sampler, cfg, rank);
        for _ in 0..fs.step {
            stream.advance().expect("infinite stream");
        }
        RankState { emb, w: fs.w.clone(), opt_e, opt_w, stream, targets, step: fs.step }
    }
}

/// A begin-of-step image of one rank's recoverable state.
#[derive(Clone)]
struct Snapshot {
    step: u64,
    emb_shard: DenseTensor,
    emb_m: DenseTensor,
    emb_v: DenseTensor,
    w: DenseTensor,
    w_m: DenseTensor,
    w_v: DenseTensor,
}

impl Snapshot {
    fn of(st: &RankState) -> Snapshot {
        let (m, v, _) = st.opt_e.state();
        let (wm, wv, _) = st.opt_w.state();
        Snapshot {
            step: st.step,
            emb_shard: st.emb.shard_table().clone(),
            emb_m: m.clone(),
            emb_v: v.clone(),
            w: st.w.clone(),
            w_m: wm.clone(),
            w_v: wv.clone(),
        }
    }

    fn blob(&self) -> DenseTensor {
        shard_blob(&self.emb_shard, &self.emb_m, &self.emb_v, self.step)
    }
}

/// Wire format of one column-shard state: `[table; m; v; header]` stacked
/// by rows, the single header row carrying the step in element 0 (steps
/// stay far below 2^24, so the f32 round-trip is exact).
fn shard_blob(table: &DenseTensor, m: &DenseTensor, v: &DenseTensor, step: u64) -> DenseTensor {
    let sd = table.cols();
    let mut hdr = DenseTensor::zeros(1, sd);
    hdr.row_mut(0)[0] = step as f32;
    DenseTensor::concat_rows(&[table.clone(), m.clone(), v.clone(), hdr])
}

fn rows_range(t: &DenseTensor, a: usize, b: usize) -> DenseTensor {
    let mut data = Vec::with_capacity((b - a) * t.cols());
    for r in a..b {
        data.extend_from_slice(t.row(r));
    }
    DenseTensor::from_vec(b - a, t.cols(), data)
}

/// Inverse of [`shard_blob`]; `None` when the shape or the step header
/// does not match what the restore needs.
fn parse_blob(
    t: &DenseTensor,
    vocab: usize,
    want_step: u64,
) -> Option<(DenseTensor, DenseTensor, DenseTensor)> {
    if t.rows() != 3 * vocab + 1 || t.row(3 * vocab)[0] as u64 != want_step {
        return None;
    }
    Some((
        rows_range(t, 0, vocab),
        rows_range(t, vocab, 2 * vocab),
        rows_range(t, 2 * vocab, 3 * vocab),
    ))
}

/// What one physical rank got out of an elastic launch attempt.
#[derive(Clone, Debug)]
pub enum ElasticRankOutcome {
    /// Ran to the final step — possibly in a shrunken group.
    Completed {
        /// Global loss of every step (restored prefixes included).
        losses: Vec<f64>,
        /// Wall-clock seconds of each successfully *executed* step in
        /// this attempt; entries restored from a checkpoint are zero.
        step_secs: Vec<f64>,
        /// The group epoch at the end (number of membership changes).
        epoch: u64,
        final_world: usize,
        /// In-group shrink recoveries performed in this attempt.
        shrinks: u32,
    },
    /// The survivors decided (by policy, or because both a shard and its
    /// replica died) to fall back to checkpoint-restart.
    NeedsRestart { at_step: u64, checkpoint: Box<FullState> },
    /// This rank died (its own injected crash) or hit an unroutable error.
    Failed { step: u64, error: CommError },
    /// The group re-formed without this rank.
    Evicted { step: u64, epoch: u64 },
}

impl ElasticRankOutcome {
    pub fn is_completed(&self) -> bool {
        matches!(self, ElasticRankOutcome::Completed { .. })
    }
}

/// How many consecutive reform→recover rounds a survivor attempts before
/// giving up with a typed error (guards against pathological timeout
/// livelock; each round normally removes at least one member).
const MAX_RECOVERY_ROUNDS: u32 = 8;

fn elastic_worker(
    rank: usize,
    ep: &mut Endpoint,
    cfg: &ElasticConfig,
    init: Option<&FullState>,
    sampler: &ZipfSampler,
) -> ElasticRankOutcome {
    let train = &cfg.train;
    let steps = train.steps as u64;
    let mut group = ElasticWorker::new(ep);
    let base = match init {
        Some(fs) => fs.clone(),
        None => FullState::initial(train),
    };
    let mut st = RankState::from_full(&base, rank, train.world, train, sampler);
    let mut losses = base.losses.clone();
    let mut step_secs: Vec<f64> = vec![0.0; losses.len()];
    let mut replicas: HashMap<usize, DenseTensor> = HashMap::new();
    seed_replica(&mut replicas, &group, &base, train);
    let mut last_ckpt = base;
    // `snap_prev` is always written at the top of each step before any
    // read, so it needs no initial value.
    let mut snap_prev: Option<Snapshot>;
    let mut snap_cur: Option<Snapshot> = None;
    let mut shrinks = 0u32;

    while st.step < steps {
        let s = st.step;
        if let Err(error) = group.begin_step() {
            return ElasticRankOutcome::Failed { step: s, error };
        }
        snap_prev = snap_cur.take();
        snap_cur = Some(Snapshot::of(&st));
        let t0 = Instant::now();
        match run_one_step(&mut group, &mut st, &mut replicas, &mut last_ckpt, &losses, cfg) {
            Ok(loss) => {
                losses.push(loss);
                step_secs.push(t0.elapsed().as_secs_f64());
                st.step = s + 1;
            }
            Err(first) => {
                let mut error = first;
                let mut rounds = 0u32;
                loop {
                    if matches!(error, CommError::Injected { .. }) {
                        return ElasticRankOutcome::Failed { step: s, error };
                    }
                    if matches!(error, CommError::StaleEpoch { .. }) {
                        // The group re-formed without us while we were
                        // stuck: we are no longer a member.
                        return ElasticRankOutcome::Evicted { step: s, epoch: group.epoch() };
                    }
                    rounds += 1;
                    if rounds > MAX_RECOVERY_ROUNDS {
                        return ElasticRankOutcome::Failed { step: s, error };
                    }
                    let old_members = group.members().to_vec();
                    match group.reform() {
                        Err(ElasticError::Evicted { epoch }) => {
                            return ElasticRankOutcome::Evicted { step: s, epoch }
                        }
                        Err(ElasticError::Comm(error)) => {
                            return ElasticRankOutcome::Failed { step: s, error }
                        }
                        Ok(_) => {}
                    }
                    match recover(
                        &mut group,
                        cfg,
                        &old_members,
                        &snap_prev,
                        &snap_cur,
                        &replicas,
                        last_ckpt.step,
                        &losses,
                    ) {
                        Ok(Recovered::Shrunk(fs)) => {
                            shrinks += 1;
                            let me = Comm::rank(&group);
                            st = RankState::from_full(&fs, me, group.world(), train, sampler);
                            losses = fs.losses.clone();
                            step_secs.truncate(losses.len());
                            replicas.clear();
                            seed_replica(&mut replicas, &group, &fs, train);
                            snap_cur = None;
                            // The reassembled state is as good as a
                            // checkpoint: later restart decisions may
                            // roll back to it instead of further.
                            last_ckpt = *fs;
                            break;
                        }
                        Ok(Recovered::Restart { at_step }) => {
                            return ElasticRankOutcome::NeedsRestart {
                                at_step,
                                checkpoint: Box::new(last_ckpt),
                            }
                        }
                        // Another failure mid-recovery: reform again.
                        Err(e) => error = e,
                    }
                }
            }
        }
    }
    ElasticRankOutcome::Completed {
        losses,
        step_secs,
        epoch: group.epoch(),
        final_world: group.world(),
        shrinks,
    }
}

/// One elastic step: checkpoint assembly at interval boundaries, the
/// hybrid EmbRace step, then the end-of-step replica ring exchange.
fn run_one_step(
    group: &mut ElasticWorker,
    st: &mut RankState,
    replicas: &mut HashMap<usize, DenseTensor>,
    last_ckpt: &mut FullState,
    losses: &[f64],
    cfg: &ElasticConfig,
) -> Result<f64, CommError> {
    let s = st.step;
    if cfg.checkpoint_interval > 0
        && s > 0
        && s.is_multiple_of(cfg.checkpoint_interval)
        && last_ckpt.step != s
    {
        *last_ckpt = assemble_full_state(group, st, losses, &cfg.train)?;
    }
    let loss = embrace_step(
        group,
        &mut st.emb,
        &mut st.w,
        &st.targets,
        &mut st.opt_e,
        &mut st.opt_w,
        &mut st.stream,
    )?;
    exchange_replica(group, st, replicas)?;
    Ok(loss)
}

/// End-of-step replica ring exchange: ship the post-step shard state to
/// the logical successor, keep the predecessor's. The stored replica is
/// only overwritten on a successful receive, so after a mid-exchange
/// crash it still holds the state the agreed restore step will ask for.
fn exchange_replica(
    group: &mut ElasticWorker,
    st: &RankState,
    replicas: &mut HashMap<usize, DenseTensor>,
) -> Result<(), CommError> {
    let world = group.world();
    if world <= 1 {
        return Ok(());
    }
    let me = Comm::rank(group);
    let succ = (me + 1) % world;
    let pred = (me + world - 1) % world;
    let pred_phys = group.members()[pred];
    let (m, v, _) = st.opt_e.state();
    // Post-step state: what a restore at the *next* step boundary needs.
    let blob = shard_blob(st.emb.shard_table(), m, v, st.step + 1);
    group.try_send(succ, Packet::Dense(blob))?;
    match group.try_recv(pred)? {
        Packet::Dense(t) => {
            replicas.insert(pred_phys, t);
            Ok(())
        }
        Packet::Abort { origin } => Err(CommError::Aborted { origin }),
        other => Err(CommError::Protocol { expected: "Dense", got: other.kind() }),
    }
}

/// Compute the replica this rank's predecessor would have sent it, from a
/// full state every member knows — so a crash *before the first exchange
/// after a (re)start or shrink* is still recoverable in-group.
fn seed_replica(
    replicas: &mut HashMap<usize, DenseTensor>,
    group: &ElasticWorker,
    fs: &FullState,
    cfg: &ConvergenceConfig,
) {
    let world = group.world();
    if world <= 1 {
        return;
    }
    let members = group.members();
    let me = members.binary_search(&group.phys_rank()).expect("member");
    let pred = (me + world - 1) % world;
    let part = column_partition(cfg.dim, world);
    let r = &part[pred];
    let blob = shard_blob(
        &fs.emb.slice_columns(r.start, r.end),
        &fs.emb_m.slice_columns(r.start, r.end),
        &fs.emb_v.slice_columns(r.start, r.end),
        fs.step,
    );
    replicas.insert(members[pred], blob);
}

/// Collectively assemble the complete training state at the current step:
/// every member broadcasts its shard blob, everyone concatenates columns.
fn assemble_full_state<C: Comm>(
    group: &mut C,
    st: &RankState,
    losses: &[f64],
    cfg: &ConvergenceConfig,
) -> Result<FullState, CommError> {
    let me = group.rank();
    let world = group.world();
    let (m, v, _) = st.opt_e.state();
    let my_blob = shard_blob(st.emb.shard_table(), m, v, st.step);
    let mut tables = Vec::with_capacity(world);
    let mut ms = Vec::with_capacity(world);
    let mut vs = Vec::with_capacity(world);
    for root in 0..world {
        let payload = (root == me).then(|| Packet::Dense(my_blob.share()));
        let t = match try_broadcast(group, root, payload)? {
            Packet::Dense(t) => t,
            other => {
                return Err(CommError::Protocol { expected: "Dense", got: other.kind() });
            }
        };
        let (tb, mb, vb) = parse_blob(&t, cfg.vocab, st.step)
            .ok_or(CommError::Protocol { expected: "shard blob", got: "Dense" })?;
        tables.push(tb);
        ms.push(mb);
        vs.push(vb);
    }
    let (wm, wv, _) = st.opt_w.state();
    Ok(FullState {
        step: st.step,
        emb: DenseTensor::concat_columns(&tables),
        emb_m: DenseTensor::concat_columns(&ms),
        emb_v: DenseTensor::concat_columns(&vs),
        w: st.w.clone(),
        w_m: wm.clone(),
        w_v: wv.clone(),
        losses: losses.to_vec(),
    })
}

enum Recovered {
    Shrunk(Box<FullState>),
    Restart { at_step: u64 },
}

/// Post-reform recovery on the surviving group: agree on the restore
/// step, consult the policy, and either redistribute state for the
/// smaller world or decide (identically on every survivor) to restart.
#[allow(clippy::too_many_arguments)]
fn recover(
    group: &mut ElasticWorker,
    cfg: &ElasticConfig,
    old_members: &[usize],
    snap_prev: &Option<Snapshot>,
    snap_cur: &Option<Snapshot>,
    replicas: &HashMap<usize, DenseTensor>,
    last_ckpt_step: u64,
    losses: &[f64],
) -> Result<Recovered, CommError> {
    let train = &cfg.train;
    // Agree on the restore step: the oldest begin-of-step snapshot any
    // survivor holds as its current one. Survivors can disagree by at
    // most one step (every collective is global, so nobody can finish
    // step s+1 while a peer is still stuck in step s), which is exactly
    // why two snapshots are kept.
    let my_step = snap_cur.as_ref().map(|s| s.step).unwrap_or(0);
    let all = try_allgather_tokens(group, vec![my_step as u32])?;
    let s_min = all.iter().map(|v| u64::from(v[0])).min().unwrap_or(0);
    let steps_since = s_min.saturating_sub(last_ckpt_step);
    let remaining = (train.steps as u64).saturating_sub(s_min);
    let shrink = match cfg.policy {
        RecoveryPolicy::Shrink => true,
        RecoveryPolicy::Restart => false,
        RecoveryPolicy::ModelDriven(m) => {
            matches!(m.cheaper(steps_since, remaining), Recovery::GroupShrink)
        }
    };
    if !shrink {
        return Ok(Recovered::Restart { at_step: last_ckpt_step });
    }
    // Redistribute: every pre-crash member slot is broadcast by its
    // holder — the owner if it survived, else the owner's old ring
    // successor holding the replica. An unusable blob (missing, or at
    // the wrong step) is broadcast as `Empty`, so the whole group reaches
    // the restart verdict together.
    let me = group.phys_rank();
    let new_members = group.members().to_vec();
    let mut tables = Vec::with_capacity(old_members.len());
    let mut ms = Vec::with_capacity(old_members.len());
    let mut vs = Vec::with_capacity(old_members.len());
    for (slot, &owner) in old_members.iter().enumerate() {
        let holder = if new_members.contains(&owner) {
            owner
        } else {
            let succ = old_members[(slot + 1) % old_members.len()];
            if !new_members.contains(&succ) {
                // The shard and its replica died together: in-group
                // recovery is impossible. Every survivor computes this
                // from the same membership data — no handshake needed.
                return Ok(Recovered::Restart { at_step: last_ckpt_step });
            }
            succ
        };
        let root = new_members.binary_search(&holder).expect("holder survives");
        let payload = (holder == me).then(|| {
            let blob = if owner == me {
                [snap_cur, snap_prev]
                    .into_iter()
                    .find_map(|s| s.as_ref().filter(|s| s.step == s_min).map(Snapshot::blob))
            } else {
                replicas.get(&owner).cloned()
            };
            blob.map(Packet::Dense).unwrap_or(Packet::Empty)
        });
        match try_broadcast(group, root, payload)? {
            Packet::Dense(t) => match parse_blob(&t, train.vocab, s_min) {
                Some((tb, mb, vb)) => {
                    tables.push(tb);
                    ms.push(mb);
                    vs.push(vb);
                }
                None => return Ok(Recovered::Restart { at_step: last_ckpt_step }),
            },
            _ => return Ok(Recovered::Restart { at_step: last_ckpt_step }),
        }
    }
    // The projection plane is replicated; restore it from the local
    // snapshot at the agreed step (always present — see above).
    let own = [snap_cur, snap_prev]
        .into_iter()
        .find_map(|s| s.as_ref().filter(|s| s.step == s_min))
        .ok_or(CommError::Protocol { expected: "snapshot at agreed step", got: "none" })?;
    Ok(Recovered::Shrunk(Box::new(FullState {
        step: s_min,
        emb: DenseTensor::concat_columns(&tables),
        emb_m: DenseTensor::concat_columns(&ms),
        emb_v: DenseTensor::concat_columns(&vs),
        w: own.w.clone(),
        w_m: own.w_m.clone(),
        w_v: own.w_v.clone(),
        losses: losses[..s_min as usize].to_vec(),
    })))
}

/// Result of a whole elastic run (possibly spanning several restarts).
#[derive(Clone, Debug)]
pub struct ElasticReport {
    /// Global loss of every step, from the rank that completed.
    pub losses: Vec<f64>,
    /// Per-step wall-clock seconds of the final attempt (zeros for steps
    /// restored from a checkpoint rather than executed in it).
    pub step_secs: Vec<f64>,
    /// Checkpoint-restarts the driver performed.
    pub restarts: u32,
    /// In-group shrinks performed in the final attempt.
    pub shrinks: u32,
    pub final_world: usize,
    pub final_epoch: u64,
    /// Final-attempt outcome of every physical rank.
    pub outcomes: Vec<ElasticRankOutcome>,
}

/// Why an elastic run could not produce a completed training curve.
#[derive(Clone, Debug)]
pub enum ElasticRunError {
    /// The whole-group watchdog fired — a liveness bug, never expected.
    Watchdog(GroupError),
    /// More restarts were needed than `max_restarts` allows.
    RestartsExhausted { attempts: u32, last: Vec<ElasticRankOutcome> },
    /// No rank completed and none asked for a restart.
    NoSurvivors { outcomes: Vec<ElasticRankOutcome> },
}

impl fmt::Display for ElasticRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticRunError::Watchdog(e) => write!(f, "watchdog fired: {e}"),
            ElasticRunError::RestartsExhausted { attempts, .. } => {
                write!(f, "gave up after {attempts} restarts")
            }
            ElasticRunError::NoSurvivors { .. } => write!(f, "no rank survived the run"),
        }
    }
}

impl std::error::Error for ElasticRunError {}

/// Drive an elastic training run to completion: launch the full group,
/// let it shrink in place, and relaunch from the newest checkpoint when
/// the survivors ask for a restart (pruning crashes that already fired,
/// as the replaced hardware would not re-fail the same way).
pub fn run_elastic(cfg: &ElasticConfig) -> Result<ElasticReport, ElasticRunError> {
    let mut plan = cfg.plan.clone();
    let mut init: Option<FullState> = None;
    let mut restarts = 0u32;
    let sampler = ZipfSampler::new(cfg.train.vocab, cfg.train.zipf_s);
    loop {
        let worker_cfg = cfg.clone();
        let worker_init = init.clone();
        let sampler = sampler.clone();
        let outcomes = run_group_with_deadline(
            cfg.train.world,
            &plan,
            Some(cfg.recv_deadline),
            cfg.group_deadline,
            move |rank, ep| elastic_worker(rank, ep, &worker_cfg, worker_init.as_ref(), &sampler),
        )
        .map_err(ElasticRunError::Watchdog)?;
        if let Some(done) = outcomes.iter().find(|o| o.is_completed()) {
            let ElasticRankOutcome::Completed { losses, step_secs, epoch, final_world, shrinks } =
                done.clone()
            else {
                unreachable!("is_completed");
            };
            return Ok(ElasticReport {
                losses,
                step_secs,
                restarts,
                shrinks,
                final_world,
                final_epoch: epoch,
                outcomes,
            });
        }
        let checkpoint = outcomes.iter().find_map(|o| match o {
            ElasticRankOutcome::NeedsRestart { checkpoint, .. } => Some(checkpoint.clone()),
            _ => None,
        });
        match checkpoint {
            Some(ckpt) => {
                restarts += 1;
                if restarts > cfg.max_restarts {
                    return Err(ElasticRunError::RestartsExhausted {
                        attempts: restarts,
                        last: outcomes,
                    });
                }
                for o in &outcomes {
                    if let ElasticRankOutcome::Failed {
                        error: CommError::Injected { rank }, ..
                    } = o
                    {
                        plan = plan.clone().clear_crash(*rank);
                    }
                }
                init = Some(*ckpt);
            }
            None => return Err(ElasticRunError::NoSurvivors { outcomes }),
        }
    }
}

/// Run `at_step` fault-free steps at the configured world and return the
/// complete training state reached — the reference restore point for the
/// bitwise post-shrink comparisons.
pub fn capture_state_at(cfg: &ConvergenceConfig, at_step: u64) -> FullState {
    let cfg = *cfg;
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let states = run_group(cfg.world, move |rank, ep| {
        let base = FullState::initial(&cfg);
        let mut st = RankState::from_full(&base, rank, cfg.world, &cfg, &sampler);
        let mut losses = Vec::new();
        while st.step < at_step {
            let loss = embrace_step(
                ep,
                &mut st.emb,
                &mut st.w,
                &st.targets,
                &mut st.opt_e,
                &mut st.opt_w,
                &mut st.stream,
            )
            .expect("fault-free");
            losses.push(loss);
            st.step += 1;
        }
        assemble_full_state(ep, &st, &losses, &cfg).expect("fault-free")
    });
    states.into_iter().next().expect("at least one rank")
}

/// Continue training fault-free from `fs` at `world` ranks; returns the
/// complete loss history (the state's prefix plus one entry per step run).
pub fn train_from_state(fs: &FullState, world: usize, cfg: &ConvergenceConfig) -> Vec<f64> {
    let cfg = ConvergenceConfig { world, ..*cfg };
    let fs = fs.clone();
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let all = run_group(world, move |rank, ep| {
        let mut st = RankState::from_full(&fs, rank, world, &cfg, &sampler);
        let mut losses = fs.losses.clone();
        while st.step < cfg.steps as u64 {
            let loss = embrace_step(
                ep,
                &mut st.emb,
                &mut st.w,
                &st.targets,
                &mut st.opt_e,
                &mut st.opt_w,
                &mut st.stream,
            )
            .expect("fault-free");
            losses.push(loss);
            st.step += 1;
        }
        losses
    });
    all.into_iter().next().expect("at least one rank")
}

/// Messages each rank sends in one elastic step *before* the delayed
/// AlltoAll #2 begins — lets tests aim an op-granular crash inside the
/// second gradient exchange. Runs the real pipeline up to the cut point
/// (keep in sync with [`crate::real::embrace_step`]).
#[cfg(test)]
fn ops_before_delayed_exchange(cfg: &ConvergenceConfig) -> u64 {
    use crate::real::fwd_bwd_toy;
    use embrace_collectives::ops::try_ring_allreduce;
    use embrace_core::vertical_split;
    use embrace_tensor::RowSparse;
    let cfg = *cfg;
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let counts = run_group(cfg.world, move |rank, ep| {
        let base = FullState::initial(&cfg);
        let mut st = RankState::from_full(&base, rank, cfg.world, &cfg, &sampler);
        let mut g = ElasticWorker::new(ep);
        let tokens = st.stream.advance().expect("infinite stream");
        let next_local = st.stream.peek_next().expect("infinite stream").clone();
        let all_tokens = try_allgather_tokens(&mut g, tokens.clone()).expect("fault-free");
        let lookup = st.emb.try_forward(&mut g, &all_tokens).expect("fault-free");
        let (_, mut grad_w, grad_rows) = fwd_bwd_toy(&lookup, &tokens, &st.w, &st.targets);
        try_ring_allreduce(&mut g, grad_w.as_mut_slice()).expect("fault-free");
        let next_gathered: Vec<u32> =
            try_allgather_tokens(&mut g, next_local).expect("fault-free").concat();
        let raw = RowSparse::new(tokens.clone(), grad_rows);
        let split = vertical_split(&raw, &tokens, &next_gathered);
        let _ = st.emb.try_exchange_grad_part(&mut g, &split.prior).expect("fault-free");
        g.endpoint().msgs_sent()
    });
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "collectives are send-symmetric");
    counts[0]
}

/// Total messages each rank sends in one full elastic step (hybrid step
/// plus the replica ring exchange) away from checkpoint boundaries.
#[cfg(test)]
fn ops_per_step(cfg: &ConvergenceConfig) -> u64 {
    let cfg = *cfg;
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let counts = run_group(cfg.world, move |rank, ep| {
        let base = FullState::initial(&cfg);
        let mut st = RankState::from_full(&base, rank, cfg.world, &cfg, &sampler);
        let mut g = ElasticWorker::new(ep);
        let mut replicas = HashMap::new();
        let mut ckpt = FullState::initial(&cfg);
        let ecfg = ElasticConfig {
            checkpoint_interval: 0,
            ..ElasticConfig::quick(FaultPlan::new(0), RecoveryPolicy::Shrink)
        };
        let ecfg = ElasticConfig { train: cfg, ..ecfg };
        run_one_step(&mut g, &mut st, &mut replicas, &mut ckpt, &[], &ecfg).expect("fault-free");
        g.endpoint().msgs_sent()
    });
    counts[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_free_reference(cfg: &ElasticConfig) -> Vec<f64> {
        train_from_state(&FullState::initial(&cfg.train), cfg.train.world, &cfg.train)
    }

    #[test]
    fn fault_free_elastic_matches_reference_bitwise() {
        let cfg = ElasticConfig::quick(FaultPlan::new(0), RecoveryPolicy::Shrink);
        let report = run_elastic(&cfg).expect("fault-free");
        assert_eq!(report.shrinks, 0);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.final_epoch, 0);
        assert_eq!(report.final_world, 4);
        assert_eq!(report.losses, fault_free_reference(&cfg));
    }

    #[test]
    fn shrink_losses_bitwise_match_fresh_run_at_smaller_world() {
        // Rank 2 dies entering step 3; policy: always shrink.
        let plan = FaultPlan::new(11).crash_rank_at_step(2, 3);
        let cfg = ElasticConfig {
            checkpoint_interval: 0,
            ..ElasticConfig::quick(plan, RecoveryPolicy::Shrink)
        };
        let report = run_elastic(&cfg).expect("no watchdog");
        assert_eq!(report.restarts, 0);
        assert_eq!(report.shrinks, 1);
        assert_eq!(report.final_world, 3);
        assert_eq!(report.final_epoch, 1);
        assert_eq!(report.losses.len(), cfg.train.steps);
        // The crashed rank failed with its own typed fault at step 3.
        assert!(matches!(
            report.outcomes[2],
            ElasticRankOutcome::Failed { step: 3, error: CommError::Injected { rank: 2 } }
        ));
        // Prefix: bitwise the fault-free full-world run.
        let full = fault_free_reference(&cfg);
        assert_eq!(&report.losses[..3], &full[..3]);
        // Suffix: bitwise a *fresh fault-free world-3 run* started from
        // the same restored state — the tentpole's headline guarantee.
        let restored = capture_state_at(&cfg.train, 3);
        assert_eq!(restored.losses[..], full[..3], "restore point sanity");
        let reference = train_from_state(&restored, 3, &cfg.train);
        assert_eq!(report.losses, reference);
        // The shrink genuinely changed the trajectory (different batch
        // streams at world 3): this is not a trivially-equal comparison.
        assert_ne!(&report.losses[3..], &full[3..]);
    }

    #[test]
    fn shrink_during_second_alltoall_recovers_bitwise() {
        let base = ElasticConfig::quick(FaultPlan::new(0), RecoveryPolicy::Shrink);
        let before = ops_before_delayed_exchange(&base.train);
        let per_step = ops_per_step(&base.train);
        // Rank 1 dies on its second send of step 2's delayed AlltoAll #2.
        let plan = FaultPlan::new(13).crash_rank_at_op(1, 2 * per_step + before + 1);
        let cfg = ElasticConfig { plan, checkpoint_interval: 0, ..base };
        let report = run_elastic(&cfg).expect("no watchdog");
        assert_eq!(report.restarts, 0);
        assert_eq!(report.shrinks, 1);
        assert_eq!(report.final_world, 3);
        assert!(matches!(
            report.outcomes[1],
            ElasticRankOutcome::Failed { step: 2, error: CommError::Injected { rank: 1 } }
        ));
        let restored = capture_state_at(&cfg.train, 2);
        let reference = train_from_state(&restored, 3, &cfg.train);
        assert_eq!(report.losses, reference);
    }

    #[test]
    fn restart_policy_replays_from_checkpoint_at_full_world() {
        // Rank 1 dies entering step 5; checkpoint taken at step 4.
        let plan = FaultPlan::new(12).crash_rank_at_step(1, 5);
        let cfg = ElasticConfig {
            checkpoint_interval: 4,
            ..ElasticConfig::quick(plan, RecoveryPolicy::Restart)
        };
        let report = run_elastic(&cfg).expect("no watchdog");
        assert_eq!(report.restarts, 1);
        assert_eq!(report.shrinks, 0);
        assert_eq!(report.final_world, 4);
        assert_eq!(report.final_epoch, 0);
        // Restart replays the crashed span at the full world, so the
        // curve equals the fault-free run bitwise.
        assert_eq!(report.losses, fault_free_reference(&cfg));
    }

    #[test]
    fn model_driven_policy_picks_shrink_when_restart_is_expensive() {
        let model = RecoveryModel {
            step_time: 1.0,
            checkpoint_write: 0.0,
            checkpoint_interval: 4,
            restart_overhead: 1e6,
            shrink_overhead: 0.0,
            shrink_slowdown: 1.3,
        };
        let plan = FaultPlan::new(14).crash_rank_at_step(3, 4);
        let cfg = ElasticConfig::quick(plan, RecoveryPolicy::ModelDriven(model));
        let report = run_elastic(&cfg).expect("no watchdog");
        assert_eq!((report.shrinks, report.restarts), (1, 0));
        assert_eq!(report.final_world, 3);
    }

    #[test]
    fn model_driven_policy_picks_restart_when_shrink_is_expensive() {
        let model = RecoveryModel {
            step_time: 1.0,
            checkpoint_write: 0.0,
            checkpoint_interval: 4,
            restart_overhead: 0.0,
            shrink_overhead: 0.0,
            shrink_slowdown: 100.0,
        };
        let plan = FaultPlan::new(15).crash_rank_at_step(3, 4);
        let cfg = ElasticConfig::quick(plan, RecoveryPolicy::ModelDriven(model));
        let report = run_elastic(&cfg).expect("no watchdog");
        assert_eq!((report.shrinks, report.restarts), (0, 1));
        assert_eq!(report.final_world, 4);
        assert_eq!(report.losses, fault_free_reference(&cfg));
    }

    #[test]
    fn flaky_window_does_not_rearm_across_restarts() {
        // PR 6 surfaced finding, fixed here: flaky windows used to be
        // keyed to per-mesh delivery counters, so a full relaunch reset
        // the link's message index to zero and the checkpoint replay ran
        // straight back into the same `[down, up)` window — the restart
        // policy burned its whole budget on two dropped messages that
        // in-group shrink sailed past. The window is *plan* time: once an
        // incarnation has spent it, the relaunch must see a healed link.
        let plan = FaultPlan::new(17).flaky_link(0, 1, 10, 12);
        let cfg = ElasticConfig::quick(plan, RecoveryPolicy::Restart);
        let report = run_elastic(&cfg).expect("restart heals a spent flaky window");
        assert!(report.restarts >= 1, "the flaky window never tripped — move it earlier");
        assert!(report.restarts <= cfg.max_restarts);
        assert_eq!(report.shrinks, 0);
        assert_eq!(report.final_world, 4);
        // Restart replays the dropped span at the full world, so the
        // curve still equals the fault-free run bitwise.
        assert_eq!(report.losses, fault_free_reference(&cfg));
    }

    #[test]
    fn crash_at_step_zero_shrinks_via_seeded_replica() {
        // No replica exchange has run yet when rank 0 dies entering step
        // 0 — the deterministic initial state seeds the replica, so the
        // survivors still shrink in-group instead of restarting.
        let plan = FaultPlan::new(16).crash_rank_at_step(0, 0);
        let cfg = ElasticConfig {
            checkpoint_interval: 0,
            ..ElasticConfig::quick(plan, RecoveryPolicy::Shrink)
        };
        let report = run_elastic(&cfg).expect("no watchdog");
        assert_eq!((report.shrinks, report.restarts), (1, 0));
        assert_eq!(report.final_world, 3);
        let reference = train_from_state(&FullState::initial(&cfg.train), 3, &cfg.train);
        assert_eq!(report.losses, reference);
    }
}

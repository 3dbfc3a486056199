//! Elastic training: survive rank loss by shrinking the group live, or
//! fall back to checkpoint-restart — chosen by a [`RecoveryPolicy`].
//!
//! This is the training-loop half of elastic membership (DESIGN §8,
//! "Elastic membership & epochs"). The collectives half — epoch-tagged
//! transport and the re-form protocol — lives in
//! [`embrace_collectives::ElasticWorker`]; here we make the *model state*
//! survive the membership change:
//!
//! * Every step begins with a local **snapshot** of the rank's slot — its
//!   column shard with the shard's Adam moments, and the Adam moments of
//!   the projection chunk it owns (only the owner updates a chunk, so only
//!   the owner's moments are current) — and of the replicated projection.
//!   The last two snapshots are kept, because survivors can disagree by at
//!   most one step on where a failure landed.
//! * Every step ends with a **replica ring exchange**: each rank ships
//!   its post-step slot to its logical successor. The replica is
//!   overwritten only on a successful receive, so it always holds a
//!   begin-of-step state consistent with what the restore will need.
//! * On a failed collective the survivors [`ElasticWorker::reform`],
//!   agree (via an AllGather) on the oldest begin-of-step snapshot any
//!   of them holds, consult the [`RecoveryPolicy`], and either
//!   **shrink** — every pre-crash shard slot is broadcast by its holder
//!   (the owner if it survived, else the ring successor holding the
//!   replica), the full table is reassembled by column concatenation and
//!   the projection's moments chunk by chunk from their owners, and both
//!   are re-sharded for the smaller world, whose ranks own other chunks —
//!   or return
//!   [`ElasticRankOutcome::NeedsRestart`] so the driver relaunches the
//!   full group from the last checkpoint.
//!
//! Everything is rebuilt bitwise-exactly: Adam moments are sliced from the
//! reassembled full moments, batch streams are reseeded by the
//! new logical rank and fast-forwarded, and the loss history is truncated
//! to the restore step. The headline test asserts that the post-shrink
//! loss trajectory equals a *fresh fault-free run at the smaller world
//! started from the same restored state*, bit for bit.

use crate::real::{batch_stream, owned, ConvergenceConfig, Model, RankState, Toy};
use embrace_collectives::ops::{try_allgather_tokens, try_broadcast};
use embrace_collectives::{
    run_group_with_deadline, Comm, CommError, CommScheduler, ElasticError, ElasticWorker, Endpoint,
    FaultPlan, GroupError, Packet,
};
use embrace_core::ColumnShardedEmbedding;
use embrace_dlsim::optim::Adam;
use embrace_models::ZipfSampler;
use embrace_simnet::{Recovery, RecoveryModel};
use embrace_tensor::{column_partition, DenseTensor};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
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
    #[cfg(test)]
    fn initial(cfg: &ConvergenceConfig) -> FullState {
        FullState::initial_and_model(cfg).0
    }

    /// The deterministic step-0 state every run starts from, and the model
    /// (its targets) of the same draw, which every rank of a run shares.
    fn initial_and_model(cfg: &ConvergenceConfig) -> (FullState, Toy) {
        let (mut emb, w, model) = Toy::init(cfg, 1);
        let emb = emb.pop().expect("one shard");
        let initial = FullState {
            step: 0,
            emb_m: DenseTensor::zeros(cfg.vocab, cfg.dim),
            emb_v: DenseTensor::zeros(cfg.vocab, cfg.dim),
            w_m: DenseTensor::zeros(cfg.dim, cfg.dim),
            w_v: DenseTensor::zeros(cfg.dim, cfg.dim),
            emb,
            w,
            losses: Vec::new(),
        };
        (initial, model)
    }
}

/// `t`'s elements in `span`, as one row.
fn span_of(t: &DenseTensor, span: Range<usize>) -> DenseTensor {
    DenseTensor::from_vec(1, span.len(), t.as_slice()[span].to_vec())
}

impl RankState {
    /// Rebuild the state of logical `rank` in a `world`-sized group from
    /// a full checkpoint and the run's shared `model` — sharding, moment
    /// slices and the fast-forwarded batch stream are all bitwise what a
    /// fresh run at that world would have after `fs.step` steps.
    fn from_full(
        fs: &FullState,
        rank: usize,
        world: usize,
        cfg: &ConvergenceConfig,
        sampler: &ZipfSampler,
        model: &Toy,
    ) -> RankState {
        let r = column_partition(cfg.dim, world)[rank];
        let emb = ColumnShardedEmbedding::new(&fs.emb, rank, world).with_policy(cfg.grad_plane);
        let opt_e = Adam::from_state(
            cfg.lr,
            fs.emb_m.slice_columns(r.start, r.end),
            fs.emb_v.slice_columns(r.start, r.end),
            fs.step,
        );
        let dense_owned = owned(fs.w.len(), rank, world);
        let w_m = span_of(&fs.w_m, dense_owned.clone());
        let w_v = span_of(&fs.w_v, dense_owned.clone());
        let opt_dense = Adam::from_state(cfg.lr, w_m, w_v, fs.step);
        let mut stream = batch_stream(sampler, cfg, rank);
        for _ in 0..fs.step {
            stream.advance().expect("infinite stream");
        }
        let (dense, model) = (fs.w.clone(), model.clone());
        RankState { emb, dense, dense_owned, model, opt_e, opt_dense, stream, step: fs.step }
    }
}

/// What one rank alone holds of the training state: its column shard of
/// the table with the shard's Adam moments, and the Adam moments of the
/// projection chunk it owns ([`owned`]).
#[derive(Clone)]
struct Slot {
    table: DenseTensor,
    m: DenseTensor,
    v: DenseTensor,
    w_m: DenseTensor,
    w_v: DenseTensor,
}

impl Slot {
    fn of(st: &RankState) -> Slot {
        let (m, v, _) = st.opt_e.state();
        let (w_m, w_v, _) = st.opt_dense.state();
        let table = st.emb.shard_table().clone();
        Slot { table, m: m.clone(), v: v.clone(), w_m: w_m.clone(), w_v: w_v.clone() }
    }

    /// Logical rank `slot`'s part of `fs` in a `world`-sized group.
    fn of_full(fs: &FullState, slot: usize, world: usize, cfg: &ConvergenceConfig) -> Slot {
        let r = column_partition(cfg.dim, world)[slot];
        let w_owned = owned(fs.w.len(), slot, world);
        Slot {
            table: fs.emb.slice_columns(r.start, r.end),
            m: fs.emb_m.slice_columns(r.start, r.end),
            v: fs.emb_v.slice_columns(r.start, r.end),
            w_m: span_of(&fs.w_m, w_owned.clone()),
            w_v: span_of(&fs.w_v, w_owned),
        }
    }

    /// Wire format: the five tensors flat in one row, then the step (steps
    /// stay far below 2^24, so the f32 round-trip is exact).
    fn blob(&self, step: u64) -> DenseTensor {
        let parts = [&self.table, &self.m, &self.v, &self.w_m, &self.w_v];
        let mut data = Vec::with_capacity(parts.iter().map(|t| t.len()).sum::<usize>() + 1);
        for t in parts {
            data.extend_from_slice(t.as_slice());
        }
        data.push(step as f32);
        DenseTensor::from_vec(1, data.len(), data)
    }

    /// Inverse of [`Slot::blob`] for logical rank `slot` of a `world`-sized
    /// group; `None` when the length or the step does not match what the
    /// restore needs.
    fn parse(
        t: &DenseTensor,
        slot: usize,
        world: usize,
        cfg: &ConvergenceConfig,
        want_step: u64,
    ) -> Option<Slot> {
        let cols = column_partition(cfg.dim, world)[slot].width();
        let (table, w) = (cfg.vocab * cols, owned(cfg.dim * cfg.dim, slot, world).len());
        let (step, data) = t.as_slice().split_last()?;
        if data.len() != 3 * table + 2 * w || *step as u64 != want_step {
            return None;
        }
        let (tables, ws) = data.split_at(3 * table);
        let block = |i: usize| {
            DenseTensor::from_vec(cfg.vocab, cols, tables[i * table..][..table].to_vec())
        };
        let row = |i: usize| DenseTensor::from_vec(1, w, ws[i * w..][..w].to_vec());
        Some(Slot { table: block(0), m: block(1), v: block(2), w_m: row(0), w_v: row(1) })
    }
}

/// The full state at `step` from every slot of a group, in logical-rank
/// order, and the replicated projection: the table by column
/// concatenation, the projection's moments chunk by chunk from the slots
/// owning them.
fn assemble(step: u64, slots: &[Slot], w: DenseTensor, losses: &[f64]) -> FullState {
    let world = slots.len();
    let cat = |part: fn(&Slot) -> &DenseTensor| {
        DenseTensor::concat_columns(&slots.iter().map(|s| part(s).share()).collect::<Vec<_>>())
    };
    // Chunk `c` of the ring's partition is owned by slot `c − 1 mod N`.
    let chunks = |part: fn(&Slot) -> &DenseTensor| {
        let owners = (0..world).map(|c| part(&slots[(c + world - 1) % world]).as_slice());
        DenseTensor::from_vec(w.rows(), w.cols(), owners.flatten().copied().collect())
    };
    FullState {
        step,
        emb: cat(|s| &s.table),
        emb_m: cat(|s| &s.m),
        emb_v: cat(|s| &s.v),
        w_m: chunks(|s| &s.w_m),
        w_v: chunks(|s| &s.w_v),
        w,
        losses: losses.to_vec(),
    }
}

/// A begin-of-step image of one rank's recoverable state.
#[derive(Clone)]
struct Snapshot {
    step: u64,
    slot: Slot,
    w: DenseTensor,
}

impl Snapshot {
    fn of(st: &RankState) -> Snapshot {
        Snapshot { step: st.step, slot: Slot::of(st), w: st.dense.clone() }
    }

    fn blob(&self) -> DenseTensor {
        self.slot.blob(self.step)
    }
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

/// What every rank of an elastic launch starts from: the state to resume,
/// the run's batch sampler and its read-only targets — built once per run.
struct Launch {
    base: FullState,
    sampler: ZipfSampler,
    model: Toy,
}

fn elastic_worker(
    rank: usize,
    ep: &mut Endpoint,
    cfg: &ElasticConfig,
    launch: &Launch,
) -> ElasticRankOutcome {
    let train = &cfg.train;
    let steps = train.steps as u64;
    let mut group = ElasticWorker::new(ep);
    let Launch { base, sampler, model } = launch;
    let base = base.clone();
    let mut st = RankState::from_full(&base, rank, train.world, train, sampler, model);
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
                            let world = group.world();
                            st = RankState::from_full(&fs, me, world, train, sampler, model);
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
/// hybrid EmbRace step on a comm scheduler of its own over the group, then
/// the end-of-step replica ring exchange.
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
    let loss = st.run_step(&mut CommScheduler::new(&mut *group, st.sched_options(false)))?;
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
    // Post-step state (the step has advanced `st.step`): what a restore at
    // the next step boundary needs.
    let blob = Slot::of(st).blob(st.step);
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
    replicas.insert(members[pred], Slot::of_full(fs, pred, world, cfg).blob(fs.step));
}

/// Collectively assemble the complete training state at the current step:
/// every member broadcasts its slot, everyone reassembles the slots.
fn assemble_full_state<C: Comm>(
    group: &mut C,
    st: &RankState,
    losses: &[f64],
    cfg: &ConvergenceConfig,
) -> Result<FullState, CommError> {
    let me = group.rank();
    let world = group.world();
    let my_blob = Slot::of(st).blob(st.step);
    let mut slots = Vec::with_capacity(world);
    for root in 0..world {
        let payload = (root == me).then(|| Packet::Dense(my_blob.share()));
        let t = match try_broadcast(group, root, payload)? {
            Packet::Dense(t) => t,
            other => {
                return Err(CommError::Protocol { expected: "Dense", got: other.kind() });
            }
        };
        let slot = Slot::parse(&t, root, world, cfg, st.step)
            .ok_or(CommError::Protocol { expected: "slot blob", got: "Dense" })?;
        slots.push(slot);
    }
    Ok(assemble(st.step, &slots, st.dense.clone(), losses))
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
    let old_world = old_members.len();
    let mut slots = Vec::with_capacity(old_world);
    for (slot, &owner) in old_members.iter().enumerate() {
        let holder = if new_members.contains(&owner) {
            owner
        } else {
            let succ = old_members[(slot + 1) % old_world];
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
        let parsed = match try_broadcast(group, root, payload)? {
            Packet::Dense(t) => Slot::parse(&t, slot, old_world, train, s_min),
            _ => None,
        };
        match parsed {
            Some(parsed) => slots.push(parsed),
            None => return Ok(Recovered::Restart { at_step: last_ckpt_step }),
        }
    }
    // The projection itself is replicated; restore it from the local
    // snapshot at the agreed step (always present — see above).
    let own = [snap_cur, snap_prev]
        .into_iter()
        .find_map(|s| s.as_ref().filter(|s| s.step == s_min))
        .ok_or(CommError::Protocol { expected: "snapshot at agreed step", got: "none" })?;
    let losses = &losses[..s_min as usize];
    Ok(Recovered::Shrunk(Box::new(assemble(s_min, &slots, own.w.clone(), losses))))
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
    let (mut init, model) = FullState::initial_and_model(&cfg.train);
    let mut restarts = 0u32;
    let sampler = ZipfSampler::new(cfg.train.vocab, cfg.train.zipf_s);
    loop {
        let worker_cfg = cfg.clone();
        let launch = Launch { base: init.clone(), sampler: sampler.clone(), model: model.clone() };
        let outcomes = run_group_with_deadline(
            cfg.train.world,
            &plan,
            Some(cfg.recv_deadline),
            cfg.group_deadline,
            move |rank, ep| elastic_worker(rank, ep, &worker_cfg, &launch),
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
                init = *ckpt;
            }
            None => return Err(ElasticRunError::NoSurvivors { outcomes }),
        }
    }
}

/// Run `at_step` fault-free steps at the configured world and return the
/// complete training state reached — the reference restore point for the
/// bitwise post-shrink comparisons.
#[cfg(test)]
fn capture_state_at(cfg: &ConvergenceConfig, at_step: u64) -> FullState {
    let cfg = *cfg;
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let (base, model) = FullState::initial_and_model(&cfg);
    let states = run_group(cfg.world, move |rank, ep| {
        let mut st = RankState::from_full(&base, rank, cfg.world, &cfg, &sampler, &model);
        let mut losses = Vec::new();
        train_until(ep, &mut st, at_step, &mut losses);
        assemble_full_state(ep, &st, &losses, &cfg).expect("fault-free")
    });
    states.into_iter().next().expect("at least one rank")
}

/// Continue training fault-free from `fs` at `world` ranks; returns the
/// complete loss history (the state's prefix plus one entry per step run).
#[cfg(test)]
fn train_from_state(fs: &FullState, world: usize, cfg: &ConvergenceConfig) -> Vec<f64> {
    let cfg = ConvergenceConfig { world, ..*cfg };
    let fs = fs.clone();
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let (_, _, model) = Toy::init(&cfg, 1);
    let all = run_group(world, move |rank, ep| {
        let mut st = RankState::from_full(&fs, rank, world, &cfg, &sampler, &model);
        let mut losses = fs.losses.clone();
        train_until(ep, &mut st, cfg.steps as u64, &mut losses);
        losses
    });
    all.into_iter().next().expect("at least one rank")
}

/// Run `st` fault-free up to step `until` on one comm scheduler, pushing
/// each step's global loss onto `losses`.
#[cfg(test)]
fn train_until(ep: &mut Endpoint, st: &mut RankState, until: u64, losses: &mut Vec<f64>) {
    let mut comm = CommScheduler::new(ep, st.sched_options(false));
    while st.step < until {
        losses.push(st.run_step(&mut comm).expect("fault-free"));
    }
}

/// The packet kinds rank `rank` sends in the first EmbRace step of an
/// elastic run, replica exchange excluded.
#[cfg(test)]
use crate::real::SendLog;
#[cfg(test)]
use embrace_collectives::run_group;

#[cfg(test)]
fn step_sends(cfg: &ConvergenceConfig, rank: usize) -> Vec<&'static str> {
    let cfg = *cfg;
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let (base, model) = FullState::initial_and_model(&cfg);
    let mut logs = run_group(cfg.world, move |rank, ep| {
        let mut st = RankState::from_full(&base, rank, cfg.world, &cfg, &sampler, &model);
        let mut log = SendLog::new(ElasticWorker::new(ep));
        st.run_step(&mut CommScheduler::new(&mut log, st.sched_options(false)))
            .expect("fault-free");
        log.sent.into_iter().map(|(kind, _)| kind).collect::<Vec<_>>()
    });
    logs.swap_remove(rank)
}

/// Total messages each rank sends in one full elastic step (hybrid step
/// plus the replica ring exchange) away from checkpoint boundaries.
#[cfg(test)]
fn ops_per_step(cfg: &ConvergenceConfig) -> u64 {
    let cfg = *cfg;
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let (base, model) = FullState::initial_and_model(&cfg);
    let counts = run_group(cfg.world, move |rank, ep| {
        let mut st = RankState::from_full(&base, rank, cfg.world, &cfg, &sampler, &model);
        let mut g = ElasticWorker::new(ep);
        let mut replicas = HashMap::new();
        let mut ckpt = base.clone();
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
        let per_step = ops_per_step(&base.train);
        // The step's AlltoAll #2 payloads are its sparse packets, the
        // delayed exchange's (one per peer) the last of them.
        let sends = step_sends(&base.train, 1);
        let sparse: Vec<u64> =
            (0..).zip(&sends).filter(|(_, &kind)| kind == "Sparse").map(|(at, _)| at).collect();
        let delayed = &sparse[sparse.len() - (base.train.world - 1)..];
        // Rank 1 dies on its second send of step 2's delayed AlltoAll #2.
        let plan = FaultPlan::new(13).crash_rank_at_op(1, 2 * per_step + delayed[1]);
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

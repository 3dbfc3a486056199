//! Functional convergence training (paper Fig. 11).
//!
//! A small but *real* model is trained end-to-end through the functional
//! collectives: an embedding table `E` feeding a dense projection `W`,
//! with a regression loss against fixed per-token targets
//! (`loss = ½‖E[t]·W − y_t‖²`). The gradients have exactly the paper's
//! structure — sparse rows for `E`, a dense matrix for `W` — so the
//! comparison EmbRace vs Horovod-AllGather exercises hybrid AlltoAll
//! communication, Algorithm 1's split updates and the modified Adam, and
//! must converge identically (both are synchronous with summed gradients).
//!
//! `RankState::run_step` is the one statement of the EmbRace step. It
//! submits every exchange to a [`CommScheduler`] in the paper's priority
//! order (§5.1–5.2) and waits only where the data is needed. Every EmbRace
//! entry point runs it: the trainers here, in [`crate::lstm`],
//! [`crate::translation`] and [`crate::scheduled`], the chaos harness and
//! the elastic trainer. The step and the one AllGather baseline,
//! `train_allgather`, are generic over a `Model`: the toy here (`Toy`,
//! the default), and Fig. 11's LSTM and translation proxies.

use embrace_baselines::horovod::{allgather_sparse_grad, allreduce_dense_grad};
use embrace_collectives::ops::allgather_dense;
use embrace_collectives::schedule::Ring;
use embrace_collectives::{
    run_group, Comm, CommError, CommOp, CommResult, CommScheduler, Endpoint, OpTiming,
    SchedOptions, SubmittedOp,
};
use embrace_core::horizontal::{
    DELAYED_GRAD_PRIORITY, DENSE_GATHER_PRIORITY, DENSE_PRIORITY, EMB_DATA_PRIORITY, LOSS_PRIORITY,
    PRIOR_GRAD_PRIORITY, TOKEN_GATHER_PRIORITY,
};
use embrace_core::{vertical_split, ColumnShardedEmbedding, GradPlanePolicy};
use embrace_dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_dlsim::{EmbeddingTable, NodeId, Prefetcher, Tape};
use embrace_models::{BatchGen, ZipfSampler};
use embrace_obs::{recorder, SpanSet};
use embrace_tensor::{column_partition, DenseTensor, RowSparse, F32_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Mutex;

/// Which training method drives the embedding plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainMethod {
    /// EmbRace: column-sharded embedding, AlltoAll, prior/delayed split
    /// updates with the modified Adam.
    EmbRace,
    /// Horovod AllGather: replicated embedding, sparse AllGather, single
    /// whole-gradient Adam update.
    HorovodAllGather,
}

/// Configuration of a convergence run.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceConfig {
    pub world: usize,
    pub vocab: usize,
    pub dim: usize,
    pub tokens_per_batch: usize,
    pub steps: usize,
    pub lr: f32,
    pub zipf_s: f64,
    pub seed: u64,
    /// Which collective carries the embedding-gradient exchanges of the
    /// EmbRace method (shared config, so every rank dispatches alike).
    pub grad_plane: GradPlanePolicy,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        ConvergenceConfig {
            world: 4,
            vocab: 200,
            dim: 16,
            tokens_per_batch: 64,
            steps: 40,
            lr: 0.05,
            zipf_s: 0.9,
            seed: 7,
            grad_plane: GradPlanePolicy::default(),
        }
    }
}

/// Outcome: the global (summed over workers) loss after every step.
#[derive(Clone, Debug)]
pub struct ConvergenceResult {
    pub losses: Vec<f64>,
}

impl ConvergenceResult {
    pub fn final_loss(&self) -> f64 {
        *self.losses.last().expect("at least one step")
    }

    /// Largest per-step absolute difference to another run's curve.
    pub fn max_curve_diff(&self, other: &ConvergenceResult) -> f64 {
        self.losses.iter().zip(&other.losses).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// What the one EmbRace step ([`RankState::run_step`]) and the one
/// AllGather baseline need of a model: an embedding table feeding dense
/// parameters, trained on per-rank token batches. Each Fig. 11 model
/// implements it; everything else about a step is the same for all.
pub(crate) trait Model: Clone + Send + Sync {
    /// Draw the run's initial state once: the embedding table as `world`
    /// column shards (drawn in place, so no full table is built for
    /// `world > 1`), every dense parameter in one block, and the model's
    /// read-only data.
    fn init(cfg: &ConvergenceConfig, world: usize) -> (Vec<DenseTensor>, DenseTensor, Self);

    /// The table rows the step looks up for one drawn batch.
    fn expand(&self, batch: Vec<u32>) -> Vec<u32> {
        batch
    }

    /// Forward + backward on `lookup`, the full-width rows of `tokens`.
    /// Returns `(loss, grad_dense, grad_emb_rows)`: the dense block's
    /// gradient in its shape, and the uncoalesced embedding gradient, one
    /// row per token of `tokens`.
    fn fwd_bwd(
        &self,
        lookup: &DenseTensor,
        tokens: &[u32],
        dense: &DenseTensor,
    ) -> (f64, DenseTensor, DenseTensor);
}

/// A `rows × dim` table drawn from `[-scale, scale]` in row-major order,
/// straight into its `world` column shards: [`DenseTensor::uniform`]'s
/// draws in the same order, so the shards are bitwise that table's
/// columns.
pub(crate) fn uniform_shards(
    rows: usize,
    dim: usize,
    world: usize,
    scale: f32,
    rng: &mut StdRng,
) -> Vec<DenseTensor> {
    let parts = column_partition(dim, world);
    let mut shards: Vec<Vec<f32>> =
        parts.iter().map(|p| Vec::with_capacity(rows * p.width())).collect();
    for _ in 0..rows {
        for (shard, p) in shards.iter_mut().zip(&parts) {
            shard.extend((0..p.width()).map(|_| rng.gen_range(-scale..=scale)));
        }
    }
    let table = shards.into_iter().zip(&parts);
    table.map(|(s, p)| DenseTensor::from_vec(rows, p.width(), s)).collect()
}

/// Dense parameters of the given `(rows, cols, scale)` shapes, each
/// drawn from `[-scale, scale]` as [`DenseTensor::uniform`] would, one
/// after another into one flat block.
pub(crate) fn uniform_block(params: &[(usize, usize, f32)], rng: &mut StdRng) -> DenseTensor {
    let mut block = Vec::new();
    for &(rows, cols, scale) in params {
        block.extend((0..rows * cols).map(|_| rng.gen_range(-scale..=scale)));
    }
    DenseTensor::from_vec(1, block.len(), block)
}

/// The parameters of a [`uniform_block`] of `params`, each a leaf of
/// `tape` in its own shape.
pub(crate) fn leaves<const N: usize>(
    tape: &mut Tape,
    block: &DenseTensor,
    params: [(usize, usize, f32); N],
) -> [NodeId; N] {
    let mut at = 0;
    params.map(|(rows, cols, _)| {
        let value = block.as_slice()[at..at + rows * cols].to_vec();
        at += rows * cols;
        tape.leaf(DenseTensor::from_vec(rows, cols, value), true)
    })
}

/// The gradients of `leaves`, flat and in order: the block's gradient.
pub(crate) fn flat_grad(tape: &Tape, leaves: &[NodeId]) -> DenseTensor {
    let grad: Vec<f32> = leaves.iter().flat_map(|&n| tape.grad(n).as_slice()).copied().collect();
    DenseTensor::from_vec(1, grad.len(), grad)
}

/// The toy model: `loss = ½‖E[t]·W − y_t‖²` with fixed per-token targets
/// `y`. Its dense block is the `dim × dim` projection `W`.
#[derive(Clone)]
pub(crate) struct Toy {
    targets: DenseTensor,
}

impl Model for Toy {
    fn init(cfg: &ConvergenceConfig, world: usize) -> (Vec<DenseTensor>, DenseTensor, Toy) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let table = uniform_shards(cfg.vocab, cfg.dim, world, 0.3, &mut rng);
        let w = DenseTensor::uniform(cfg.dim, cfg.dim, 0.3, &mut rng);
        let targets = DenseTensor::uniform(cfg.vocab, cfg.dim, 1.0, &mut rng);
        (table, w, Toy { targets })
    }

    fn fwd_bwd(
        &self,
        lookup: &DenseTensor,
        tokens: &[u32],
        w: &DenseTensor,
    ) -> (f64, DenseTensor, DenseTensor) {
        // Residuals (the prediction, less each token's target) and loss.
        let mut resid = lookup.matmul(w);
        for (rr, &t) in resid.rows_mut().zip(tokens) {
            for (r, &y) in rr.iter_mut().zip(self.targets.row(t as usize)) {
                *r -= y;
            }
        }
        let loss = 0.5 * resid.norm_sq() as f64;
        let grad_w = lookup.matmul_tn(&resid);
        let grad_emb = resid.matmul_nt(w);
        (loss, grad_w, grad_emb)
    }
}

/// One rank's EmbRace training state: its column shard, the replicated
/// dense block, both optimizers — the dense block's over the chunk it
/// owns only — the model's read-only data, its batch stream and the next
/// step to run.
pub(crate) struct RankState<M = Toy> {
    pub(crate) emb: ColumnShardedEmbedding,
    pub(crate) dense: DenseTensor,
    /// Elements of `dense` this rank updates: the chunk its ring
    /// reduce-scatter leaves summed ([`owned`]); `opt_dense` holds the
    /// moments of these and no others.
    pub(crate) dense_owned: Range<usize>,
    pub(crate) model: M,
    pub(crate) opt_e: Adam,
    pub(crate) opt_dense: Adam,
    pub(crate) stream: Prefetcher<Vec<u32>, BatchGen>,
    pub(crate) step: u64,
}

/// The elements of a flat `len`-element dense block whose update rank
/// `rank` of `world` owns: the chunk its ring reduce-scatter leaves
/// reduced, [`Ring::owned`].
pub(crate) fn owned(len: usize, rank: usize, world: usize) -> Range<usize> {
    Ring::whole(world, rank, len).owned()
}

impl<M: Model> RankState<M> {
    /// Every rank's state before the first step of a `cfg` run, from one
    /// draw of the initial state: each rank gets its column shard of the
    /// table, drawn in place (no full table exists), and all ranks share
    /// the model's read-only data and start from the same dense block.
    pub(crate) fn initial(cfg: &ConvergenceConfig, sampler: &ZipfSampler) -> PerRank<Self> {
        let (shards, dense, model) = M::init(cfg, cfg.world);
        let states = shards.into_iter().enumerate().map(|(rank, shard)| {
            let vocab = shard.rows();
            let emb = ColumnShardedEmbedding::from_shard(shard, rank, cfg.world, cfg.dim)
                .with_policy(cfg.grad_plane);
            let dense_owned = owned(dense.len(), rank, cfg.world);
            // Adam over the local column shard only; the modified step-state
            // rule makes the split update equivalent to the baseline's whole
            // update.
            let opt_e = Adam::new(vocab, emb.shard_dim(), cfg.lr);
            let opt_dense = Adam::new(1, dense_owned.len(), cfg.lr);
            let stream = batch_stream(sampler, cfg, rank);
            let (dense, model) = (dense.share(), model.clone());
            RankState { emb, dense, dense_owned, model, opt_e, opt_dense, stream, step: 0 }
        });
        PerRank::new(states.collect())
    }

    /// Segment size of the step's comm scheduler: an eighth of the dense
    /// block, at least one f32. Derived from the model so the dense ring's
    /// phases split into a handful of resumable segments at every size —
    /// enough for the prior gradients to preempt it mid-tensor (§5.2's
    /// second dimension), without drowning a large block in per-segment
    /// overhead. Chunked execution is bitwise-identical to whole.
    pub(crate) fn sched_options(&self, observed: bool) -> SchedOptions {
        let chunk_bytes = (self.dense.len() * F32_BYTES / 8).max(F32_BYTES);
        SchedOptions { chunk_bytes: Some(chunk_bytes), observed }
    }

    /// One EmbRace hybrid step — AllGather of batch tokens, hybrid AlltoAll
    /// forward, the dense plane, Vertical Sparse Scheduling with two
    /// AlltoAll #2 exchanges — returning the global loss. The dense plane
    /// is the ring allreduce cut at its phase boundary around a sharded
    /// update: the reduce-scatter of the dense block's gradient, Adam on the
    /// chunk this rank owns, and the all-gather of the updated block. Every
    /// exchange goes through `comm` with its §4.2.1 priority, tagged with
    /// the step; the step returns with every ticket waited and `comm`
    /// empty, so a scheduler per step and one per run send the same
    /// messages.
    pub(crate) fn run_step<C: Comm>(
        &mut self,
        comm: &mut CommScheduler<C>,
    ) -> Result<f64, CommError> {
        let step = self.step;
        let tag = |op: &str| format!("s{step}/{op}");
        let tokens = self.model.expand(self.stream.advance().expect("infinite stream"));
        let next_local = self.stream.peek_next().expect("infinite stream").clone();
        let next_local = self.model.expand(next_local);
        // Hybrid FP: gather this batch and the next, AlltoAll #1 the
        // lookup results.
        let cur = CommOp::GatherTokens(tokens.clone());
        let t_cur = comm.submit(TOKEN_GATHER_PRIORITY, tag("tokens_cur"), cur);
        let next = CommOp::GatherTokens(next_local);
        let t_next = comm.submit(TOKEN_GATHER_PRIORITY, tag("tokens_next"), next);
        let CommResult::GatherTokens(all_tokens) = t_cur.wait().into_result()? else {
            unreachable!("token gather")
        };
        let lookup_op = self.emb.lookup_op(&all_tokens);
        let lookup = comm.submit(EMB_DATA_PRIORITY, tag("emb_data"), lookup_op).wait();
        let lookup = ColumnShardedEmbedding::finish_lookup(lookup)?;
        let (loss, grad_dense, grad_rows) = self.model.fwd_bwd(&lookup, &tokens, &self.dense);
        // Dense plane: the BP hook fires the reduce-scatter and hands the
        // comm plane one quantum, so the bulk op is in flight when the more
        // urgent prior gradients preempt it below.
        let dense = CommOp::ReduceScatterDense(grad_dense.into_vec());
        let t_w = comm.submit(DENSE_PRIORITY, tag("reduce_scatter_w"), dense);
        comm.progress();
        // Vertical Sparse Scheduling: split by next-iteration data.
        let CommResult::GatherTokens(next_gathered) = t_next.wait().into_result()? else {
            unreachable!("token gather")
        };
        let raw = RowSparse::new(tokens.clone(), grad_rows);
        let split = vertical_split(&raw, &tokens, &next_gathered.concat());
        // AlltoAll #2, prior first, then delayed; Adam advances once.
        let prior = self.emb.grad_op(&split.prior);
        let t_prior = comm.submit(PRIOR_GRAD_PRIORITY, tag("prior_grad"), prior);
        let delayed = self.emb.grad_op(&split.delayed);
        let t_delayed = comm.submit(DELAYED_GRAD_PRIORITY, tag("delayed_grad"), delayed);
        // The owned chunk of the gradient is summed: update those elements,
        // then ship them to every rank in the block's own buffer.
        let CommResult::ReduceScatterDense(summed) = t_w.wait().into_result()? else {
            unreachable!("dense reduce-scatter")
        };
        let (rows, cols) = (self.dense.rows(), self.dense.cols());
        let mut dense = std::mem::replace(&mut self.dense, DenseTensor::zeros(0, 0)).into_vec();
        let owned = self.dense_owned.clone();
        self.opt_dense.step_span(&mut dense[owned.clone()], &summed[owned]);
        let gather = CommOp::AllGatherDense(dense);
        let t_gather = comm.submit(DENSE_GATHER_PRIORITY, tag("allgather_w"), gather);
        let prior = self.emb.finish_grad(t_prior.wait())?;
        self.emb.apply_grad(&prior, &mut self.opt_e, UpdatePart::Prior);
        // Global loss: every rank's f32 scalar, gathered bit for bit.
        let bits = CommOp::GatherTokens(vec![(loss as f32).to_bits()]);
        let t_loss = comm.submit(LOSS_PRIORITY, tag("loss"), bits);
        let delayed = self.emb.finish_grad(t_delayed.wait())?;
        self.emb.apply_grad(&delayed, &mut self.opt_e, UpdatePart::Delayed);
        let CommResult::GatherTokens(all) = t_loss.wait().into_result()? else {
            unreachable!("loss gather")
        };
        let CommResult::AllGatherDense(dense) = t_gather.wait().into_result()? else {
            unreachable!("dense all-gather")
        };
        self.dense = DenseTensor::from_vec(rows, cols, dense);
        self.step += 1;
        // Summed in rank order, so every rank computes the identical f64.
        Ok(all.iter().map(|v| f32::from_bits(v[0]) as f64).sum())
    }
}

/// A run's initial state, drawn once before its ranks start.
enum Start<M> {
    /// The whole table, the dense block and the model: every rank starts
    /// from a replica.
    AllGather((DenseTensor, DenseTensor, M)),
    EmbRace(PerRank<RankState<M>>),
}

impl<M: Model> Start<M> {
    fn draw(method: TrainMethod, cfg: &ConvergenceConfig, sampler: &ZipfSampler) -> Self {
        match method {
            TrainMethod::HorovodAllGather => {
                let (mut table, dense, model) = M::init(cfg, 1);
                Start::AllGather((table.pop().expect("one shard"), dense, model))
            }
            TrainMethod::EmbRace => Start::EmbRace(RankState::initial(cfg, sampler)),
        }
    }

    /// Rank `rank`'s run from this state: its per-step global losses.
    fn run(
        &self,
        rank: usize,
        ep: &mut Endpoint,
        cfg: &ConvergenceConfig,
        sampler: &ZipfSampler,
    ) -> Vec<f64> {
        match self {
            Start::AllGather(init) => train_allgather(rank, ep, cfg, sampler, init),
            Start::EmbRace(states) => train_embrace(ep, cfg, states.take(rank), false).0,
        }
    }
}

/// Train model `M` with `method`; returns the per-step global loss.
pub(crate) fn train<M: Model>(method: TrainMethod, cfg: &ConvergenceConfig) -> ConvergenceResult {
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let start = Start::<M>::draw(method, cfg, &sampler);
    let losses = run_group(cfg.world, |rank, ep| start.run(rank, ep, cfg, &sampler));
    ConvergenceResult { losses: losses.into_iter().next().expect("at least one worker") }
}

/// Train the toy model with `method`; returns the per-step global loss.
pub fn train_convergence(method: TrainMethod, cfg: &ConvergenceConfig) -> ConvergenceResult {
    train::<Toy>(method, cfg)
}

/// Like [`train_convergence`], but with the observability recorder
/// installed on every worker thread: each step opens a `train` span and
/// every collective inside records a nested `collective` span. Returns
/// the loss curve plus one wall-clock [`SpanSet`] per rank.
///
/// Training is unchanged — the recorder is passive — so losses are
/// bitwise-identical to an unobserved run with the same config, and the
/// span *structure* (not timing) is identical across ranks and across
/// repeat runs: both are asserted by `tests/schedule_invariants.rs`.
pub fn train_convergence_observed(
    method: TrainMethod,
    cfg: &ConvergenceConfig,
) -> (ConvergenceResult, Vec<SpanSet>) {
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let start = Start::<Toy>::draw(method, cfg, &sampler);
    let per_rank = run_group(cfg.world, |rank, ep| {
        recorder::install(&format!("rank{rank}"));
        let losses = start.run(rank, ep, cfg, &sampler);
        let spans = recorder::take().expect("recorder installed at worker start");
        (losses, spans)
    });
    let mut losses = None;
    let mut spans = Vec::with_capacity(per_rank.len());
    for (l, s) in per_rank {
        losses.get_or_insert(l);
        spans.push(s);
    }
    (ConvergenceResult { losses: losses.expect("at least one worker") }, spans)
}

/// Rank `rank`'s token stream. `sampler` is the run's one
/// `ZipfSampler::new(cfg.vocab, cfg.zipf_s)`, built before the ranks
/// start: its tables are `vocab`-sized and shared between clones.
pub(crate) fn batch_stream(
    sampler: &ZipfSampler,
    cfg: &ConvergenceConfig,
    rank: usize,
) -> Prefetcher<Vec<u32>, BatchGen> {
    let seed = cfg.seed ^ ((rank as u64) << 32);
    Prefetcher::new(BatchGen::new(sampler.clone(), cfg.tokens_per_batch, 0.0, seed))
}

/// Rank `rank`'s Horovod-AllGather run of `M` from a replica of `init`:
/// the dense gradient ring-allreduced, the sparse one all-gathered,
/// coalesced and applied whole.
fn train_allgather<M: Model>(
    rank: usize,
    ep: &mut Endpoint,
    cfg: &ConvergenceConfig,
    sampler: &ZipfSampler,
    init: &(DenseTensor, DenseTensor, M),
) -> Vec<f64> {
    let (table, dense, model) = init;
    let mut emb = EmbeddingTable::from_table(table.share());
    let mut dense = dense.share();
    let mut opt_e = Adam::new(table.rows(), table.cols(), cfg.lr);
    let mut opt_dense = Adam::new(dense.rows(), dense.cols(), cfg.lr);
    let mut stream = batch_stream(sampler, cfg, rank);

    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let _span = recorder::span(&format!("step{step}"), "train");
        let tokens = model.expand(stream.advance().expect("infinite stream"));
        let lookup = emb.lookup(&tokens);
        let (loss, mut grad_dense, grad_rows) = model.fwd_bwd(&lookup, &tokens, &dense);
        allreduce_dense_grad(ep, &mut grad_dense);
        let global = allgather_sparse_grad(ep, RowSparse::new(tokens, grad_rows));
        opt_e.step_sparse(emb.table_mut(), &global, UpdatePart::Whole);
        opt_dense.step_dense(&mut dense, &grad_dense);
        // Global loss, summed in rank order as in the EmbRace step.
        let all = allgather_dense(ep, DenseTensor::from_vec(1, 1, vec![loss as f32]));
        losses.push(all.iter().map(|t| t.as_slice()[0] as f64).sum());
    }
    losses
}

/// One rank's recorded observation: its scheduler's wall-clock spans
/// plus the per-collective [`OpTiming`] log.
pub type RankObservation = (SpanSet, Vec<OpTiming>);

/// Values built once per run for the ranks of a group: rank `r` takes
/// element `r`, once, on its own thread.
pub(crate) struct PerRank<T>(Vec<Mutex<Option<T>>>);

impl<T> PerRank<T> {
    pub(crate) fn new(items: Vec<T>) -> Self {
        PerRank(items.into_iter().map(|t| Mutex::new(Some(t))).collect())
    }

    pub(crate) fn take(&self, rank: usize) -> T {
        let slot = self.0[rank].lock().expect("no rank panics holding its slot").take();
        slot.unwrap_or_else(|| panic!("rank {rank} took its value twice"))
    }
}

/// One rank's EmbRace run from `st` over one comm scheduler for the whole
/// run, so its ring staging buffers carry over from step to step. Returns
/// the per-step global losses, the scheduler's submission log and, when
/// `observed`, its observation.
pub(crate) fn train_embrace<M: Model>(
    ep: &mut Endpoint,
    cfg: &ConvergenceConfig,
    mut st: RankState<M>,
    observed: bool,
) -> (Vec<f64>, Vec<SubmittedOp>, Option<RankObservation>) {
    let mut comm = CommScheduler::new(ep, st.sched_options(observed));
    let losses = (0..cfg.steps)
        .map(|step| {
            let _span = recorder::span(&format!("step{step}"), "train");
            st.run_step(&mut comm).unwrap_or_else(|e| panic!("collective failed: {e}"))
        })
        .collect();
    (losses, comm.submitted().to_vec(), comm.observation())
}

/// Every packet a transport is asked to send — kind and wire bytes — in
/// order.
#[cfg(test)]
pub(crate) struct SendLog<C> {
    inner: C,
    pub(crate) sent: Vec<(&'static str, usize)>,
}

#[cfg(test)]
impl<C: Comm> SendLog<C> {
    pub(crate) fn new(inner: C) -> Self {
        SendLog { inner, sent: Vec::new() }
    }
}

#[cfg(test)]
impl<C: Comm> Comm for SendLog<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world(&self) -> usize {
        self.inner.world()
    }

    fn try_send(
        &mut self,
        to: usize,
        packet: embrace_collectives::Packet,
    ) -> Result<(), CommError> {
        self.sent.push((packet.kind(), packet.nbytes()));
        self.inner.try_send(to, packet)
    }

    fn try_recv(&mut self, from: usize) -> Result<embrace_collectives::Packet, CommError> {
        self.inner.try_recv(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::Lstm;
    use crate::translation::Translation;
    use embrace_tensor::TOKEN_BYTES;

    #[test]
    fn shards_drawn_in_place_are_the_full_tables_columns() {
        let table = DenseTensor::uniform(13, 7, 0.3, &mut StdRng::seed_from_u64(5));
        for world in 1..=4 {
            let shards = uniform_shards(13, 7, world, 0.3, &mut StdRng::seed_from_u64(5));
            assert_eq!(DenseTensor::concat_columns(&shards), table, "world {world}");
        }
    }

    #[test]
    fn dense_plane_moves_the_allreduce_bytes_with_one_more_start_round() {
        // Sharding the update changes no byte the ring moves: a step's
        // dense data messages, less AlltoAll #1's lookup blocks, carry
        // 2·(N−1)/N of W per rank, as the allreduce's did. Each op's start
        // round (a 3-word token gather) is the only added traffic: eight
        // ops per step — the two halves of the dense plane where the
        // allreduce was one.
        let cfg = ConvergenceConfig { world: 4, steps: 1, ..Default::default() };
        let (n, len) = (cfg.world, cfg.dim * cfg.dim);
        assert_eq!(len % n, 0, "equal chunks keep the expected bytes exact");
        let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
        let states = RankState::initial(&cfg, &sampler);
        let logs = run_group(n, |rank, ep| {
            let mut log = SendLog::new(ep);
            let mut st: RankState = states.take(rank);
            st.run_step(&mut CommScheduler::new(&mut log, st.sched_options(false)))
                .expect("fault-free");
            log.sent
        });
        let shards = column_partition(cfg.dim, n);
        for (rank, sent) in logs.iter().enumerate() {
            let dense: usize = sent.iter().filter(|(k, _)| *k == "Dense").map(|(_, b)| b).sum();
            let lookup = (n - 1) * cfg.tokens_per_batch * shards[rank].width() * F32_BYTES;
            assert_eq!(dense - lookup, 2 * (n - 1) * len / n * F32_BYTES, "rank {rank}");
            let starts = sent.iter().filter(|&&(k, b)| k == "Tokens" && b == 3 * TOKEN_BYTES);
            assert_eq!(starts.count(), 8 * (n - 1), "rank {rank}");
        }
    }

    #[test]
    fn both_methods_learn() {
        let cfg = ConvergenceConfig { steps: 60, ..Default::default() };
        for method in [TrainMethod::HorovodAllGather, TrainMethod::EmbRace] {
            let r = train_convergence(method, &cfg);
            assert_eq!(r.losses.len(), 60);
            let early: f64 = r.losses[..5].iter().sum();
            let late: f64 = r.losses[55..].iter().sum();
            assert!(late < early * 0.5, "{method:?} failed to learn: early {early}, late {late}");
        }
    }

    type Trainer = fn(TrainMethod, &ConvergenceConfig) -> ConvergenceResult;

    /// The three Fig. 11 models, each at a small shape of its own.
    fn models() -> [(&'static str, Trainer, ConvergenceConfig); 3] {
        let base = ConvergenceConfig { steps: 30, ..Default::default() };
        let lstm = ConvergenceConfig {
            vocab: 120,
            dim: 8,
            tokens_per_batch: 60,
            lr: 0.06,
            seed: 33,
            ..base
        };
        let translation = ConvergenceConfig {
            vocab: 150,
            dim: 12,
            tokens_per_batch: 48,
            lr: 0.03,
            seed: 21,
            ..base
        };
        [
            ("toy", train::<Toy>, base),
            ("lstm", train::<Lstm>, lstm),
            ("translation", train::<Translation>, translation),
        ]
    }

    #[test]
    fn every_model_converges_like_allgather_and_repeats() {
        // The Fig. 11 claim — same convergence as the synchronous
        // baseline — for every model at every world, bit for bit
        // repeatable. At world 3 the LSTM's 608-element dense block
        // (2·8·32 + 32 + 8·8) splits into unequal ring chunks.
        for (name, train, cfg) in models() {
            for world in 1..=4 {
                let cfg = ConvergenceConfig { world, ..cfg };
                let base = train(TrainMethod::HorovodAllGather, &cfg);
                let embrace = train(TrainMethod::EmbRace, &cfg);
                let diff = base.max_curve_diff(&embrace) / base.losses[0].abs().max(1.0);
                assert!(diff < 1e-3, "{name} world {world}: relative diff {diff}");
                let again = train(TrainMethod::EmbRace, &cfg);
                assert_eq!(again.losses, embrace.losses, "{name} world {world}");
            }
        }
    }

    #[test]
    fn every_model_submits_the_same_step() {
        // One step, one submission log: each op's kind and priority are
        // the toy's for every model.
        fn log<M: Model>(cfg: &ConvergenceConfig) -> Vec<Vec<(&'static str, i64)>> {
            let cfg = ConvergenceConfig { world: 3, steps: 1, ..*cfg };
            let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
            let states = RankState::<M>::initial(&cfg, &sampler);
            run_group(cfg.world, |rank, ep| {
                let (_, log, _) = train_embrace(ep, &cfg, states.take(rank), false);
                log.iter().map(|op| (op.kind, op.priority)).collect()
            })
        }
        let [(_, _, toy), (_, _, lstm), (_, _, translation)] = models();
        let want = log::<Toy>(&toy);
        assert_eq!(want[0].len(), 8, "{want:?}");
        assert_eq!(log::<Lstm>(&lstm), want);
        assert_eq!(log::<Translation>(&translation), want);
    }

    #[test]
    fn ssar_grad_plane_trains_to_the_same_curve() {
        // Routing AlltoAll #2 through the sparse-native allreduce changes
        // only the summation order of the shard gradient, so the loss
        // curve must track the hybrid plane within float-sum jitter.
        use embrace_core::GradPlane;
        let base = ConvergenceConfig { steps: 20, ..Default::default() };
        let hybrid = train_convergence(TrainMethod::EmbRace, &base);
        let ssar_cfg = ConvergenceConfig {
            grad_plane: GradPlanePolicy::fixed(GradPlane::SparseAllreduce),
            ..base
        };
        let ssar = train_convergence(TrainMethod::EmbRace, &ssar_cfg);
        let scale = hybrid.losses[0].abs().max(1.0);
        let diff = hybrid.max_curve_diff(&ssar) / scale;
        assert!(diff < 1e-3, "planes diverge: relative diff {diff}");
    }

    /// FNV-1a over the bits of a loss curve.
    fn curve_hash(losses: &[f64]) -> u64 {
        losses.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, l| {
            (h ^ l.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The EmbRace loss curves at the benchmark's two trainer shapes —
    /// `train_sparse` (262144 × 4, 8192 tokens, s 1.05) and `train_dense`
    /// (4096 × 1024, one token, lr 0.001) — at world 2, seed 1, so a
    /// kernel change that moves one loss bit fails here and not only in a
    /// benchmark run. Hashes taken at the commit before the products were
    /// register-tiled.
    #[test]
    fn benchmark_shapes_keep_their_loss_bits() {
        let base = ConvergenceConfig { world: 2, zipf_s: 1.05, seed: 1, ..Default::default() };
        let sparse =
            ConvergenceConfig { vocab: 262_144, dim: 4, tokens_per_batch: 8192, steps: 12, ..base };
        let dense = ConvergenceConfig {
            vocab: 4096,
            dim: 1024,
            tokens_per_batch: 1,
            steps: 8,
            lr: 0.001,
            ..base
        };
        for (name, cfg, want) in [
            ("train_sparse", sparse, 5_224_326_064_428_311_701),
            ("train_dense", dense, 8_790_206_135_083_350_469),
        ] {
            let losses = train_convergence(TrainMethod::EmbRace, &cfg).losses;
            assert_eq!(curve_hash(&losses), want, "{name}: {losses:?}");
        }
    }

    /// The same pin at worlds 1, 3 and 4 — the default shape, and the
    /// `train_dense` shape for three steps — where the ring's chunk
    /// ownership rotates with the rank: a dense update applied to the
    /// wrong chunk moves bits here even when world 2 agrees. Hashes taken
    /// at the commit before the dense update was sharded.
    #[test]
    fn other_worlds_keep_their_loss_bits() {
        let dense = ConvergenceConfig {
            vocab: 4096,
            dim: 1024,
            tokens_per_batch: 1,
            steps: 3,
            lr: 0.001,
            zipf_s: 1.05,
            seed: 1,
            ..Default::default()
        };
        let mut got = Vec::new();
        for world in [1, 3, 4] {
            for (name, cfg) in [("default", ConvergenceConfig::default()), ("train_dense", dense)] {
                let cfg = ConvergenceConfig { world, ..cfg };
                let losses = train_convergence(TrainMethod::EmbRace, &cfg).losses;
                got.push((world, name, curve_hash(&losses)));
            }
        }
        let want = [
            (1, "default", 1_346_755_885_073_325_125),
            (1, "train_dense", 12_190_693_736_674_439_095),
            (3, "default", 10_833_823_071_781_411_909),
            (3, "train_dense", 12_035_152_240_689_754_039),
            (4, "default", 15_586_026_831_662_701_637),
            (4, "train_dense", 8_327_059_131_757_178_807),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn worlds_of_different_sizes_work() {
        for world in [1, 2, 3] {
            let cfg = ConvergenceConfig { world, steps: 6, ..Default::default() };
            let r = train_convergence(TrainMethod::EmbRace, &cfg);
            assert_eq!(r.losses.len(), 6);
            assert!(r.final_loss().is_finite());
        }
    }
}

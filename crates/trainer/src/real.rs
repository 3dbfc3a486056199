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
use embrace_collectives::ops::{allgather_dense, OwnedSegment};
use embrace_collectives::schedule::Ring;
use embrace_collectives::{
    run_group, Comm, CommError, CommOp, CommResult, CommScheduler, Endpoint, OpTiming,
    SchedOptions, SubmittedOp,
};
#[cfg(test)]
use embrace_collectives::{Packet, UnitBody};
use embrace_core::horizontal::{GradRows, PlanOp, StepPlan};
use embrace_core::{vertical_split, ColumnShardedEmbedding};
use embrace_dlsim::graph::ModelGraph;
use embrace_dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_dlsim::{EmbeddingTable, NodeId, Prefetcher, Tape};
use embrace_models::{BatchGen, ZipfSampler};
use embrace_obs::{recorder, SpanSet};
use embrace_tensor::{column_partition, DenseTensor, RowSparse, TokenBuf, F32_BYTES};
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
///
/// Every model's initial state is one stream of draws from
/// `StdRng::seed_from_u64(seed + SEED_OFFSET)`, in this order: the
/// `table_rows × dim` embedding table from `[-0.3, 0.3]`, each dense
/// parameter from `[-scale, scale]`, and the `vocab × dim` targets from
/// `[-1, 1]`, each row-major ([`draw_state`]).
pub(crate) trait Model: Clone + Send + Sync {
    /// Added to the run's seed for the model's stream of initial draws.
    const SEED_OFFSET: u64;

    /// Rows of the embedding table, which is `cfg.dim` wide.
    fn table_rows(cfg: &ConvergenceConfig) -> usize {
        cfg.vocab
    }

    /// The dense block's parameters as `(rows, cols, init scale)`, in
    /// block order.
    fn dense_params(dim: usize) -> Vec<(usize, usize, f32)>;

    /// The dense block's shape: one row of every parameter, which
    /// [`leaves`] cuts, unless the model keeps one matrix's.
    fn block_shape(cfg: &ConvergenceConfig) -> (usize, usize) {
        (1, Self::dense_params(cfg.dim).iter().map(|&(rows, cols, _)| rows * cols).sum())
    }

    /// The model's read-only data around `targets`, each vocabulary
    /// token's target vector (`vocab × dim`).
    fn with_targets(cfg: &ConvergenceConfig, targets: DenseTensor) -> Self;

    /// The targets [`Model::with_targets`] was given.
    #[cfg(test)]
    fn targets(&self) -> &[f32];

    /// Draw the run's initial state once: the embedding table as `world`
    /// column shards (drawn in place, so no full table is built for
    /// `world > 1`), every dense parameter in one block, and the model's
    /// read-only data.
    fn init(cfg: &ConvergenceConfig, world: usize) -> (Vec<DenseTensor>, DenseTensor, Self) {
        draw_state(cfg, world)
    }

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

/// One matrix of the initial-state stream: `rows` rows drawn from
/// `[-scale, scale]`, each row across the column shards left to right.
struct Matrix<'a> {
    scale: f32,
    rows: usize,
    /// Each column shard's rows, row-major, and its width.
    shards: Vec<(&'a mut [f32], usize)>,
}

impl<'a> Matrix<'a> {
    fn words(&self) -> usize {
        self.rows * self.shards.iter().map(|&(_, width)| width).sum::<usize>()
    }

    /// Rows `..r` and rows `r..`.
    fn split(self, r: usize) -> (Matrix<'a>, Matrix<'a>) {
        let (mut top, mut bottom) = (Vec::new(), Vec::new());
        for (shard, width) in self.shards {
            let (a, b) = shard.split_at_mut(r * width);
            top.push((a, width));
            bottom.push((b, width));
        }
        let scale = self.scale;
        (
            Matrix { scale, rows: r, shards: top },
            Matrix { scale, rows: self.rows - r, shards: bottom },
        )
    }

    fn fill(&mut self, rng: &mut StdRng) {
        let scale = self.scale;
        for row in 0..self.rows {
            for (shard, width) in &mut self.shards {
                let cells = &mut shard[row * *width..(row + 1) * *width];
                cells.iter_mut().for_each(|x| *x = rng.gen_range(-scale..=scale));
            }
        }
    }
}

/// [`Model::init`]: `M`'s stream for `world` column shards, drawn on two
/// cores. Every buffer is allocated here, on the calling thread; a helper
/// thread draws the stream's second half into them — starting its
/// generator there with [`StdRng::advance`], each draw being one word —
/// while this thread draws the first half. So the draws are bitwise those
/// of one thread, and the helper allocates nothing, which this asserts
/// ([`embrace_tensor::alloc_counter`]): buffers it allocated would come
/// from a second malloc arena, which the rank threads' later allocations
/// do not reuse (a helper that allocated W and the targets read
/// `peak_rss_mib` 11–15 % higher).
fn draw_state<M: Model>(
    cfg: &ConvergenceConfig,
    world: usize,
) -> (Vec<DenseTensor>, DenseTensor, M) {
    let (rows, dim) = (M::table_rows(cfg), cfg.dim);
    let widths: Vec<usize> = column_partition(dim, world).iter().map(|p| p.width()).collect();
    let mut table: Vec<Vec<f32>> = widths.iter().map(|w| vec![0.0; rows * w]).collect();
    let params = M::dense_params(dim);
    let (block_rows, block_cols) = M::block_shape(cfg);
    let mut block = vec![0.0; block_rows * block_cols];
    let mut targets = vec![0.0; cfg.vocab * dim];
    let mut stream = Vec::with_capacity(params.len() + 2);
    let shards = table.iter_mut().zip(&widths).map(|(t, &w)| (t.as_mut_slice(), w)).collect();
    stream.push(Matrix { scale: 0.3, rows, shards });
    let mut rest = block.as_mut_slice();
    for &(rows, cols, scale) in &params {
        let (param, tail) = std::mem::take(&mut rest).split_at_mut(rows * cols);
        rest = tail;
        stream.push(Matrix { scale, rows, shards: vec![(param, cols)] });
    }
    assert!(rest.is_empty(), "the block's shape must hold its parameters");
    stream.push(Matrix { scale: 1.0, rows: cfg.vocab, shards: vec![(&mut targets, dim)] });
    // The halves, cut at the row in which the stream's middle word falls.
    let half = stream.iter().map(Matrix::words).sum::<usize>() / 2;
    let (mut first, mut second, mut at) = (Vec::new(), Vec::new(), 0);
    for matrix in stream {
        let words = matrix.words();
        if at >= half || words == 0 {
            second.push(matrix);
        } else if at + words <= half {
            first.push(matrix);
        } else {
            let per_row = words / matrix.rows;
            let (top, bottom) = matrix.split((half - at).div_ceil(per_row));
            first.push(top);
            second.push(bottom);
        }
        at += words;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(M::SEED_OFFSET));
    let mut tail = rng.clone();
    tail.advance(first.iter().map(Matrix::words).sum::<usize>() as u64);
    let helper_allocs = std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            embrace_tensor::alloc_counter::reset();
            second.iter_mut().for_each(|matrix| matrix.fill(&mut tail));
            embrace_tensor::alloc_counter::events()
        });
        first.iter_mut().for_each(|matrix| matrix.fill(&mut rng));
        helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    assert_eq!(helper_allocs, 0, "the helper thread fills buffers and allocates none");
    drop((first, second));
    let table = table.into_iter().zip(&widths).map(|(t, &w)| DenseTensor::from_vec(rows, w, t));
    let targets = DenseTensor::from_vec(cfg.vocab, dim, targets);
    let dense = DenseTensor::from_vec(block_rows, block_cols, block);
    (table.collect(), dense, M::with_targets(cfg, targets))
}

/// The parameters of a dense block of `params`, each a leaf of
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
    const SEED_OFFSET: u64 = 0;

    fn dense_params(dim: usize) -> Vec<(usize, usize, f32)> {
        vec![(dim, dim, 0.3)]
    }

    /// `W` keeps its shape: the products read it as a matrix.
    fn block_shape(cfg: &ConvergenceConfig) -> (usize, usize) {
        (cfg.dim, cfg.dim)
    }

    fn with_targets(_: &ConvergenceConfig, targets: DenseTensor) -> Toy {
        Toy { targets }
    }

    #[cfg(test)]
    fn targets(&self) -> &[f32] {
        self.targets.as_slice()
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
    /// Every rank's ids of the next step's batch, as this step's token
    /// gather fetched them; `None` until a step has returned `Ok`.
    pub(crate) prefetched: Option<Vec<TokenBuf>>,
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
    /// draw of the initial state ([`Model::init`], on two cores): each
    /// rank gets its column shard of the table, drawn in place (no full
    /// table exists), and all ranks share the model's read-only data and
    /// start from the same dense block. `sampler` is the run's one.
    pub(crate) fn initial(cfg: &ConvergenceConfig, sampler: &ZipfSampler) -> PerRank<Self> {
        let world = cfg.world;
        let (shards, dense, model) = M::init(cfg, world);
        let states = shards.into_iter().enumerate().map(|(rank, shard)| {
            let vocab = shard.rows();
            let emb = ColumnShardedEmbedding::from_shard(shard, rank, world, cfg.dim);
            let dense_owned = owned(dense.len(), rank, world);
            // Adam over the local column shard only; the modified step-state
            // rule makes the split update equivalent to the baseline's whole
            // update.
            let opt_e = Adam::new(vocab, emb.shard_dim(), cfg.lr);
            let opt_dense = Adam::new(1, dense_owned.len(), cfg.lr);
            let stream = batch_stream(sampler, cfg, rank);
            let (dense, model, prefetched, step) = (dense.share(), model.clone(), None, 0);
            RankState { emb, dense, dense_owned, model, opt_e, opt_dense, stream, prefetched, step }
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

    /// This rank's step plan: the model as one embedding feeding one dense
    /// block, `tokens` ids looked up per step, and `grad`'s split.
    pub(crate) fn plan(&self, tokens: usize, grad: GradRows) -> StepPlan {
        let graph =
            ModelGraph::one_block((self.emb.vocab(), self.emb.dim_total()), self.dense.len());
        StepPlan::embrace(&graph, &self.emb.step_shapes(tokens, grad))
    }

    /// One EmbRace hybrid step — hybrid AlltoAll forward on the ids the step
    /// before prefetched, the dense plane, Vertical Sparse Scheduling with
    /// two AlltoAll #2 exchanges — returning the global loss. Its one token
    /// AllGather prefetches the next batch's ids for the split and the next
    /// step (§4.2); a step that finds none (the first after
    /// [`Self::initial`], an elastic rebuild or a failed step) first gathers
    /// its own batch, as the whole-gradient plan does. The dense plane is
    /// the ring allreduce cut at its phase boundary around a sharded update:
    /// the reduce-scatter of the dense block's gradient, Adam on the chunk
    /// this rank owns, and the all-gather of the updated block. Every
    /// exchange goes through `comm` in the order of [`Self::plan`], with its
    /// tag (prefixed by the step) and priority, and the step waits only
    /// where the data is needed. It returns with every ticket waited and
    /// `comm` empty, so a scheduler per step and one per run send the same
    /// messages.
    pub(crate) fn run_step<C: Comm>(
        &mut self,
        comm: &mut CommScheduler<C>,
    ) -> Result<f64, CommError> {
        let step = self.step;
        let tokens = self.model.expand(self.stream.advance().expect("infinite stream"));
        let next_local = self.stream.peek_next().expect("infinite stream").clone();
        let next_local = self.model.expand(next_local);
        let tag = |p: &PlanOp| format!("s{step}/{}", p.tag);
        let all_tokens = match self.prefetched.take() {
            Some(ids) => ids,
            None => {
                let whole = self.plan(tokens.len(), GradRows::Whole(0.0));
                let (prime, op) = (whole.token_gather(), CommOp::GatherTokens(tokens.clone()));
                let CommResult::GatherTokens(ids) =
                    comm.submit(prime.priority, tag(prime), op).wait().into_result()?
                else {
                    unreachable!("token gather")
                };
                ids
            }
        };
        // The split's sizes are this step's data: the step reads the plan's
        // tags and priorities only.
        let plan = self.plan(tokens.len(), GradRows::Split { coalesced: 0.0, prior: 0.0 });
        let mut planned = plan.ops.iter();
        let mut submit = |comm: &mut CommScheduler<C>, op| {
            let p = planned.next().expect("the step submits the plan's ops");
            comm.submit(p.priority, tag(p), op)
        };
        // Hybrid FP: AlltoAll #1 this batch's lookup results, then prefetch
        // the next batch's ids, for the split. They are taken before the
        // dense plane's quantum, which would go to the gather.
        let lookup = submit(comm, self.emb.lookup_op(&all_tokens)).wait();
        let lookup = ColumnShardedEmbedding::finish_lookup(lookup)?;
        let t_next = submit(comm, CommOp::GatherTokens(next_local));
        let (loss, grad_dense, grad_rows) = self.model.fwd_bwd(&lookup, &tokens, &self.dense);
        let CommResult::GatherTokens(next_gathered) = t_next.wait().into_result()? else {
            unreachable!("token gather")
        };
        // Dense plane: the BP hook fires the reduce-scatter and hands the
        // comm plane one quantum, so the bulk op is in flight when the more
        // urgent prior gradients preempt it below.
        let t_w = submit(comm, CommOp::ReduceScatterDense(grad_dense));
        comm.progress();
        // Vertical Sparse Scheduling: split by next-iteration data.
        let raw = RowSparse::new(tokens.clone(), grad_rows);
        let split = vertical_split(&raw, &tokens, &next_gathered.concat());
        // AlltoAll #2, prior first, then delayed; Adam advances once.
        let t_prior = submit(comm, self.emb.grad_op(&split.prior));
        let t_delayed = submit(comm, self.emb.grad_op(&split.delayed));
        // The owned chunk of the gradient is one add short of its sum, in
        // the ring's segments: Adam takes that add in its element loop,
        // which also leaves the new values where the segments write, and
        // the all-gather sends them as they are.
        let CommResult::ReduceScatterDense(mut segments) = t_w.wait().into_result()? else {
            unreachable!("dense reduce-scatter")
        };
        let mut dense = std::mem::replace(&mut self.dense, DenseTensor::zeros(0, 0));
        let owned = &mut dense.as_mut_slice()[self.dense_owned.clone()];
        self.opt_dense.step_span_into(owned, segments.iter_mut().map(OwnedSegment::unsummed));
        let t_gather = submit(comm, CommOp::AllGatherDense(dense, segments));
        let prior = self.emb.finish_grad(t_prior.wait())?;
        self.emb.apply_grad(&prior, &mut self.opt_e, UpdatePart::Prior);
        // Global loss: every rank's f32 scalar, gathered bit for bit.
        let t_loss = submit(comm, CommOp::GatherTokens(vec![(loss as f32).to_bits()]));
        debug_assert!(planned.next().is_none(), "the step submits every op of its plan");
        let delayed = self.emb.finish_grad(t_delayed.wait())?;
        self.emb.apply_grad(&delayed, &mut self.opt_e, UpdatePart::Delayed);
        let CommResult::GatherTokens(all) = t_loss.wait().into_result()? else {
            unreachable!("loss gather")
        };
        let CommResult::AllGatherDense(dense) = t_gather.wait().into_result()? else {
            unreachable!("dense all-gather")
        };
        self.dense = dense;
        self.prefetched = Some(next_gathered);
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

/// Every packet a transport is asked to send — kind (`unit <block>` for a
/// machine's unit message), wire bytes and the payload bytes materialised
/// for it ([`Packet::copied_nbytes`]) — in order.
#[cfg(test)]
pub(crate) struct SendLog<C> {
    inner: C,
    pub(crate) sent: Vec<(&'static str, usize, usize)>,
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

    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        let kind = match &packet {
            Packet::Unit { body: UnitBody::Dense(_), .. } => "unit Dense",
            Packet::Unit { body: UnitBody::Sparse(_), .. } => "unit Sparse",
            Packet::Unit { body: UnitBody::Tokens(_), .. } => "unit Tokens",
            other => other.kind(),
        };
        self.sent.push((kind, packet.nbytes(), packet.copied_nbytes()));
        self.inner.try_send(to, packet)
    }

    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError> {
        self.inner.try_recv(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::Lstm;
    use crate::translation::Translation;
    use embrace_collectives::UNIT_HEADER_BYTES;
    use embrace_tensor::TOKEN_BYTES;

    /// Every model's initial stream drawn by one thread, in order, as
    /// whole tensors — the table, each dense parameter, the targets — from
    /// each model's literal seed and shapes: the bits [`draw_state`] must
    /// leave in the shards, the block and the targets.
    fn serial_stream(model: &str, cfg: &ConvergenceConfig) -> Vec<u32> {
        let (v, d) = (cfg.vocab, cfg.dim);
        let (offset, rows, params) = match model {
            "toy" => (0, v, vec![(d, d, 0.3)]),
            "lstm" => {
                (1234, v, vec![(d, 4 * d, 0.3), (d, 4 * d, 0.3), (1, 4 * d, 0.1), (d, d, 0.3)])
            }
            _ => (77, 2 * v, vec![(d, d, 0.3); 3]),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed + offset);
        let mut words = DenseTensor::uniform(rows, d, 0.3, &mut rng).into_vec();
        for (r, c, scale) in params {
            words.extend(DenseTensor::uniform(r, c, scale, &mut rng).into_vec());
        }
        words.extend(DenseTensor::uniform(v, d, 1.0, &mut rng).into_vec());
        words.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shards_drawn_in_place_are_the_full_tables_columns() {
        // Each model's state drawn on two cores into column shards, at
        // worlds 1–4 (some shards zero-wide), is bitwise the serial draw,
        // with the stream's middle in the table or in the dense block; and
        // the draw asserts that its helper thread materialised no tensor
        // buffer.
        fn check<M: Model>(model: &str, cfg: ConvergenceConfig) {
            let want = serial_stream(model, &cfg);
            for world in 1..=4 {
                let (shards, dense, drawn) = M::init(&cfg, world);
                let table = DenseTensor::concat_columns(&shards);
                let parts = [table.as_slice(), dense.as_slice(), drawn.targets()];
                let got: Vec<u32> = parts.concat().iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{model} {}x{} world {world}", cfg.vocab, cfg.dim);
            }
        }
        for (vocab, dim) in [(13, 7), (50, 2), (3, 9)] {
            let cfg = ConvergenceConfig { vocab, dim, seed: 5, ..Default::default() };
            check::<Toy>("toy", cfg);
            check::<Lstm>("lstm", cfg);
            check::<Translation>("translation", cfg);
        }
    }

    #[test]
    fn dense_plane_moves_the_allreduce_bytes_and_no_start_round() {
        // Sharding the update changes no byte the ring moves: a step's
        // dense data messages, less their headers and AlltoAll #1's lookup
        // blocks, carry 2·(N−1)/N of W per rank, as the allreduce's did.
        // The SPMD check rides those messages: no op start sends a 3-word
        // token record of its own.
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
            let dense: Vec<usize> =
                sent.iter().filter(|(k, ..)| *k == "unit Dense").map(|&(_, b, _)| b).collect();
            let payload = dense.iter().sum::<usize>() - dense.len() * UNIT_HEADER_BYTES;
            let lookup = (n - 1) * cfg.tokens_per_batch * shards[rank].width() * F32_BYTES;
            assert_eq!(payload - lookup, 2 * (n - 1) * len / n * F32_BYTES, "rank {rank}");
            let starts = sent.iter().filter(|&&(k, b, _)| k == "Tokens" && b == 3 * TOKEN_BYTES);
            assert_eq!(starts.count(), 0, "rank {rank}");
        }
    }

    #[test]
    fn a_train_sparse_step_sends_thirteen_messages_per_rank() {
        // The benchmark's `train_sparse` shape at world 2, where every
        // collective unit is one message: the next batch's token gather,
        // the loss gather, AlltoAll #1, 2 AlltoAll #2 exchanges and 8 ring
        // units (4 reduce-scatter, 4 all-gather). Nothing else: the
        // scheduler sends no message of its own. Step 0 also gathers its
        // own batch, which no step before it prefetched.
        let cfg = ConvergenceConfig {
            world: 2,
            vocab: 262_144,
            dim: 4,
            tokens_per_batch: 8192,
            zipf_s: 1.05,
            seed: 1,
            steps: 3,
            ..Default::default()
        };
        let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
        let states = RankState::initial(&cfg, &sampler);
        let counts = run_group(cfg.world, |rank, ep| {
            let mut log = SendLog::new(ep);
            let mut st: RankState = states.take(rank);
            let mut per_step = Vec::new();
            for _ in 0..cfg.steps {
                let before = log.sent.len();
                st.run_step(&mut CommScheduler::new(&mut log, st.sched_options(false)))
                    .expect("fault-free");
                per_step.push(log.sent.len() - before);
            }
            per_step
        });
        assert_eq!(counts, vec![vec![14, 13, 13]; cfg.world]);
    }

    #[test]
    fn a_train_dense_step_stages_nothing_and_allocates_no_ring_buffer() {
        // The benchmark's `train_dense` shape: W's 4 MiB gradient in ring
        // segments of an eighth of W (512 KiB). The reduce-scatter's first
        // step sends views of the gradient, so no byte of it is staged — at
        // world 2 that is every reduce-scatter message; a later step sends
        // its reduces' outputs. With one scheduler for the run, as
        // `train_embrace` has, the ring's buffers circulate from step to
        // step: a steady-state step allocates W's gradient and buffers
        // smaller than a segment, and no ring segment.
        for world in [2, 3] {
            let cfg = ConvergenceConfig {
                world,
                vocab: 4096,
                dim: 1024,
                tokens_per_batch: 1,
                lr: 0.001,
                zipf_s: 1.05,
                seed: 1,
                steps: 3,
            };
            let w_bytes = cfg.dim * cfg.dim * F32_BYTES;
            let ring = Ring::new(world, 0, cfg.dim * cfg.dim, w_bytes / 8 / F32_BYTES);
            let per_step = ring.per_step();
            let smallest_segment = (0..ring.units())
                .filter_map(|u| ring.unit(u).send)
                .map(|range| range.len() * F32_BYTES)
                .min()
                .expect("a ring of two or more ranks sends");
            let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
            let states = RankState::initial(&cfg, &sampler);
            let out = run_group(world, |rank, ep| {
                let mut log = SendLog::new(ep);
                let mut st: RankState = states.take(rank);
                let mut comm = CommScheduler::new(&mut log, st.sched_options(false));
                let allocated: Vec<u64> = (0..cfg.steps)
                    .map(|_| {
                        embrace_tensor::alloc_counter::reset();
                        st.run_step(&mut comm).expect("fault-free");
                        embrace_tensor::alloc_counter::bytes()
                    })
                    .collect();
                drop(comm);
                (log.sent, allocated)
            });
            for (rank, (sent, allocated)) in out.into_iter().enumerate() {
                let at = format!("world {world} rank {rank}");
                let ring_msgs: Vec<(usize, usize)> = sent
                    .iter()
                    .filter(|&&(k, b, _)| k == "unit Dense" && b >= smallest_segment)
                    .map(|&(_, b, copied)| (b, copied))
                    .collect();
                let (rs, ag) = ((world - 1) * per_step, (world - 1) * per_step);
                assert_eq!(ring_msgs.len(), cfg.steps * (rs + ag), "{at}");
                for (step, msgs) in ring_msgs.chunks(rs + ag).enumerate() {
                    for (i, &(bytes, copied)) in msgs[..per_step].iter().enumerate() {
                        assert_eq!(copied, 0, "{at} step {step}: {bytes} B view {i} was staged");
                    }
                }
                // Step 0 also fills the ring's buffers and copies the
                // initial block, which every rank shares.
                for &bytes in &allocated[1..] {
                    let bytes = bytes as usize;
                    assert!(bytes < w_bytes + smallest_segment, "{at}: {allocated:?} B per step");
                }
            }
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
        // the toy's for every model (the gather of the step's own batch,
        // then the 7 ops of its plan).
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

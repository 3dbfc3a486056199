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
//! entry point runs it: the trainers here and in [`crate::scheduled`], the
//! chaos harness and the elastic trainer.

use embrace_baselines::horovod::{allgather_sparse_grad, allreduce_dense_grad};
use embrace_collectives::ops::allgather_dense;
use embrace_collectives::{
    run_group, Comm, CommError, CommOp, CommResult, CommScheduler, Endpoint, OpTiming,
    SchedOptions, SubmittedOp,
};
use embrace_core::horizontal::{
    DELAYED_GRAD_PRIORITY, DENSE_PRIORITY, EMB_DATA_PRIORITY, LOSS_PRIORITY, PRIOR_GRAD_PRIORITY,
    TOKEN_GATHER_PRIORITY,
};
use embrace_core::{vertical_split, ColumnShardedEmbedding, GradPlanePolicy};
use embrace_dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_dlsim::{EmbeddingTable, Prefetcher};
use embrace_models::{BatchGen, ZipfSampler};
use embrace_obs::{recorder, SpanSet};
use embrace_simnet::{Cluster, CostModel};
use embrace_tensor::{DenseTensor, RowSparse, F32_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

impl ConvergenceConfig {
    /// Resolve [`Self::grad_plane`] from the simnet cost crossover on the
    /// paper's RTX3090 testbed at this config's world/batch shape: the
    /// gradient plane rides the sparse-native allreduce whenever the cost
    /// model prices it under the column-block AlltoAllv.
    pub fn with_cost_tuned_plane(mut self) -> Self {
        let model = CostModel::new(Cluster::rtx3090(self.world));
        self.grad_plane =
            GradPlanePolicy::from_cost(&model, self.vocab, self.dim, self.tokens_per_batch);
        self
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

/// Shared deterministic initial state: embedding, projection, targets.
pub(crate) fn init_toy_state(cfg: &ConvergenceConfig) -> (DenseTensor, DenseTensor, DenseTensor) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let emb = DenseTensor::uniform(cfg.vocab, cfg.dim, 0.3, &mut rng);
    let w = DenseTensor::uniform(cfg.dim, cfg.dim, 0.3, &mut rng);
    let targets = DenseTensor::uniform(cfg.vocab, cfg.dim, 1.0, &mut rng);
    (emb, w, targets)
}

/// Forward + backward of the toy model on one batch.
/// Returns `(loss, grad_w, grad_emb_rows)` where `grad_emb_rows` pairs
/// with `tokens` as an uncoalesced sparse gradient of `E`.
pub(crate) fn fwd_bwd_toy(
    lookup: &DenseTensor,
    tokens: &[u32],
    w: &DenseTensor,
    targets: &DenseTensor,
) -> (f64, DenseTensor, DenseTensor) {
    // Residuals (the prediction, less each token's target) and loss.
    let mut resid = lookup.matmul(w);
    for (rr, &t) in resid.rows_mut().zip(tokens) {
        for (r, &y) in rr.iter_mut().zip(targets.row(t as usize)) {
            *r -= y;
        }
    }
    let loss = 0.5 * resid.norm_sq() as f64;
    let grad_w = lookup.matmul_tn(&resid);
    let grad_emb = resid.matmul_nt(w);
    (loss, grad_w, grad_emb)
}

/// Segment size of the step's comm scheduler: an eighth of the dense
/// weight block (dim² f32s), at least one f32. Derived from the model so
/// the bulk allreduce splits into a handful of resumable segments at every
/// `dim` — enough for the prior gradients to preempt it mid-tensor (§5.2's
/// second dimension), without drowning a large block in per-segment
/// overhead. Chunked execution is bitwise-identical to whole.
pub(crate) fn sched_options(cfg: &ConvergenceConfig, observed: bool) -> SchedOptions {
    let chunk_bytes = (cfg.dim * cfg.dim * F32_BYTES / 8).max(F32_BYTES);
    SchedOptions { chunk_bytes: Some(chunk_bytes), observed }
}

/// One rank's EmbRace training state: its column shard, the replicated
/// projection, both optimizers, its batch stream and the next step to run.
pub(crate) struct RankState {
    pub(crate) emb: ColumnShardedEmbedding,
    pub(crate) w: DenseTensor,
    pub(crate) targets: DenseTensor,
    pub(crate) opt_e: Adam,
    pub(crate) opt_w: Adam,
    pub(crate) stream: Prefetcher<Vec<u32>, BatchGen>,
    pub(crate) step: u64,
}

impl RankState {
    /// Rank `rank`'s state before the first step of a `cfg` run.
    pub(crate) fn new(rank: usize, cfg: &ConvergenceConfig, sampler: &ZipfSampler) -> Self {
        let (emb_init, w, targets) = init_toy_state(cfg);
        let emb =
            ColumnShardedEmbedding::new(&emb_init, rank, cfg.world).with_policy(cfg.grad_plane);
        // Adam over the local column shard only; the modified step-state
        // rule makes the split update equivalent to the baseline's whole
        // update.
        let opt_e = Adam::new(cfg.vocab, emb.shard_dim(), cfg.lr);
        let opt_w = Adam::new(cfg.dim, cfg.dim, cfg.lr);
        let stream = batch_stream(sampler, cfg, rank);
        RankState { emb, w, targets, opt_e, opt_w, stream, step: 0 }
    }

    /// One EmbRace hybrid step — AllGather of batch tokens, hybrid AlltoAll
    /// forward, dense ring AllReduce, Vertical Sparse Scheduling with two
    /// AlltoAll #2 exchanges — returning the global loss. Every exchange
    /// goes through `comm` with its §4.2.1 priority, tagged with the step;
    /// the step returns with every ticket waited and `comm` empty, so a
    /// scheduler per step and one per run send the same messages.
    pub(crate) fn run_step<C: Comm>(
        &mut self,
        comm: &mut CommScheduler<C>,
    ) -> Result<f64, CommError> {
        let step = self.step;
        let tag = |op: &str| format!("s{step}/{op}");
        let tokens = self.stream.advance().expect("infinite stream");
        let next_local = self.stream.peek_next().expect("infinite stream").clone();
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
        let (loss, grad_w, grad_rows) = fwd_bwd_toy(&lookup, &tokens, &self.w, &self.targets);
        // Dense plane: the BP hook fires the AllReduce and hands the comm
        // plane one quantum, so the bulk op is in flight when the more
        // urgent prior gradients preempt it below.
        let (rows, cols) = (grad_w.rows(), grad_w.cols());
        let dense = CommOp::AllReduceDense(grad_w.into_vec());
        let t_w = comm.submit(DENSE_PRIORITY, tag("allreduce_w"), dense);
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
        let CommResult::AllReduceDense(summed) = t_w.wait().into_result()? else {
            unreachable!("dense allreduce")
        };
        self.opt_w.step_dense(&mut self.w, &DenseTensor::from_vec(rows, cols, summed));
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
        self.step += 1;
        // Summed in rank order, so every rank computes the identical f64.
        Ok(all.iter().map(|v| f32::from_bits(v[0]) as f64).sum())
    }
}

/// Train the toy model with `method`; returns the per-step global loss.
pub fn train_convergence(method: TrainMethod, cfg: &ConvergenceConfig) -> ConvergenceResult {
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    let losses = run_group(cfg.world, |rank, ep| match method {
        TrainMethod::HorovodAllGather => train_allgather(rank, ep, cfg, &sampler),
        TrainMethod::EmbRace => train_embrace(rank, ep, cfg, &sampler, false).0,
    });
    ConvergenceResult { losses: losses.into_iter().next().expect("at least one worker") }
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
    let per_rank = run_group(cfg.world, |rank, ep| {
        recorder::install(&format!("rank{rank}"));
        let losses = match method {
            TrainMethod::HorovodAllGather => train_allgather(rank, ep, cfg, &sampler),
            TrainMethod::EmbRace => train_embrace(rank, ep, cfg, &sampler, false).0,
        };
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

fn train_allgather(
    rank: usize,
    ep: &mut Endpoint,
    cfg: &ConvergenceConfig,
    sampler: &ZipfSampler,
) -> Vec<f64> {
    let (emb_init, w_init, targets) = init_toy_state(cfg);
    let mut emb = EmbeddingTable::from_table(emb_init);
    let mut w = w_init;
    let mut opt_e = Adam::new(cfg.vocab, cfg.dim, cfg.lr);
    let mut opt_w = Adam::new(cfg.dim, cfg.dim, cfg.lr);
    let mut stream = batch_stream(sampler, cfg, rank);

    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let _span = recorder::span(&format!("step{step}"), "train");
        let tokens = stream.advance().expect("infinite stream");
        let lookup = emb.lookup(&tokens);
        let (loss, mut grad_w, grad_rows) = fwd_bwd_toy(&lookup, &tokens, &w, &targets);
        // Dense plane: ring AllReduce.
        allreduce_dense_grad(ep, &mut grad_w);
        // Sparse plane: AllGather the COO gradient, coalesce, apply whole.
        let sparse = RowSparse::new(tokens.clone(), grad_rows);
        let global = allgather_sparse_grad(ep, sparse);
        opt_e.step_sparse(emb.table_mut(), &global, UpdatePart::Whole);
        opt_w.step_dense(&mut w, &grad_w);
        // Global loss, summed in rank order as in the EmbRace step.
        let all = allgather_dense(ep, DenseTensor::from_vec(1, 1, vec![loss as f32]));
        losses.push(all.iter().map(|t| t.as_slice()[0] as f64).sum());
    }
    losses
}

/// One rank's recorded observation: its scheduler's wall-clock spans
/// plus the per-collective [`OpTiming`] log.
pub type RankObservation = (SpanSet, Vec<OpTiming>);

/// Rank `rank`'s EmbRace run over one comm scheduler for the whole run, so
/// its ring staging buffers carry over from step to step. Returns the
/// per-step global losses, the scheduler's submission log and, when
/// `observed`, its observation.
pub(crate) fn train_embrace(
    rank: usize,
    ep: &mut Endpoint,
    cfg: &ConvergenceConfig,
    sampler: &ZipfSampler,
    observed: bool,
) -> (Vec<f64>, Vec<SubmittedOp>, Option<RankObservation>) {
    let mut comm = CommScheduler::new(ep, sched_options(cfg, observed));
    let mut st = RankState::new(rank, cfg, sampler);
    let losses = (0..cfg.steps)
        .map(|step| {
            let _span = recorder::span(&format!("step{step}"), "train");
            st.run_step(&mut comm).unwrap_or_else(|e| panic!("collective failed: {e}"))
        })
        .collect();
    (losses, comm.submitted().to_vec(), comm.observation())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn embrace_converges_like_allgather() {
        // The Fig. 11 claim: same convergence as the synchronous baseline.
        let cfg = ConvergenceConfig::default();
        let base = train_convergence(TrainMethod::HorovodAllGather, &cfg);
        let embrace = train_convergence(TrainMethod::EmbRace, &cfg);
        let scale = base.losses[0].abs().max(1.0);
        let diff = base.max_curve_diff(&embrace) / scale;
        assert!(diff < 1e-3, "curves diverge: relative diff {diff}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ConvergenceConfig { steps: 10, ..Default::default() };
        let a = train_convergence(TrainMethod::EmbRace, &cfg);
        let b = train_convergence(TrainMethod::EmbRace, &cfg);
        assert_eq!(a.losses, b.losses);
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

    #[test]
    fn cost_tuned_plane_is_deterministic_and_trains() {
        let cfg = ConvergenceConfig::default().with_cost_tuned_plane();
        let again = ConvergenceConfig::default().with_cost_tuned_plane();
        assert_eq!(cfg.grad_plane, again.grad_plane, "resolution must be rank-invariant");
        let r = train_convergence(TrainMethod::EmbRace, &ConvergenceConfig { steps: 4, ..cfg });
        assert!(r.final_loss().is_finite());
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

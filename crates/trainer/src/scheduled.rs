//! The fully-assembled functional EmbRace pipeline (§5.1): backward hooks
//! dump communication operations into a priority queue with 2D-scheduling
//! priorities, and the comm scheduler drains it.
//!
//! [`crate::real`] drives the collectives inline; this module routes every
//! exchange through [`embrace_collectives::CommScheduler`] instead — the
//! paper's prototype, with the queue drained cooperatively on the rank
//! thread rather than by a thread of its own — and must produce
//! *identical* training trajectories (asserted in tests): scheduling
//! changes performance, never semantics.

use crate::real::{
    batch_stream, fwd_bwd_toy, init_toy_state, ConvergenceConfig, ConvergenceResult,
};
use embrace_collectives::{
    mesh, CommOp, CommResult, CommScheduler, OpTiming, SchedOptions, SubmittedOp,
};
use embrace_core::horizontal::{DELAYED_GRAD_PRIORITY, EMB_DATA_PRIORITY, PRIOR_GRAD_PRIORITY};
use embrace_core::{vertical_split, ColumnShardedEmbedding};
use embrace_dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_models::ZipfSampler;
use embrace_obs::SpanSet;
use embrace_tensor::{RowSparse, F32_BYTES};

/// Priority for gathering the next batch's tokens (scheduling metadata —
/// cheap and needed early, like the prefetch itself).
const TOKEN_GATHER_PRIORITY: i64 = -4;
/// Dense-gradient AllReduce priority (single dense block in the toy model).
const DENSE_PRIORITY: i64 = 0;

/// Segment size for the chunked comm scheduler: an eighth of the dense
/// weight block (dim² f32s), at least one f32. Derived from the model so
/// the bulk allreduce splits into a handful of resumable segments at every
/// `dim` — enough for the higher-priority sparse ops to preempt it
/// mid-tensor, as in the full-size system, without drowning a large block
/// in per-segment overhead.
fn sched_chunk_bytes(cfg: &ConvergenceConfig) -> usize {
    (cfg.dim * cfg.dim * F32_BYTES / 8).max(F32_BYTES)
}

/// Train the toy convergence model with the full scheduled pipeline.
/// Semantically identical to `train_convergence(TrainMethod::EmbRace, _)`.
pub fn train_convergence_scheduled(cfg: &ConvergenceConfig) -> ConvergenceResult {
    train_convergence_traced(cfg).0
}

/// Like [`train_convergence_scheduled`], but also returns every rank's
/// communication submission log (in submission order), so static
/// analysis — `embrace_analyzer`'s SPMD schedule verifier — can check
/// the live pipeline's comm plan without re-instrumenting it.
pub fn train_convergence_traced(
    cfg: &ConvergenceConfig,
) -> (ConvergenceResult, Vec<Vec<SubmittedOp>>) {
    let (result, logs, _) = train_convergence_scheduled_observed(cfg, false);
    (result, logs)
}

/// One rank's recorded observation: its scheduler's wall-clock spans
/// plus the per-collective [`OpTiming`] log.
pub type RankObservation = (SpanSet, Vec<OpTiming>);

/// Like [`train_convergence_traced`], but when `observe` is set the comm
/// schedulers also record wall-clock spans and [`OpTiming`] logs
/// (harvested per rank), so the happens-before analyzer —
/// `embrace_analyzer::hb` — can check a *live* threaded run for
/// determinism violations, priority inversions, and unordered
/// conflicting accesses.
pub fn train_convergence_scheduled_observed(
    cfg: &ConvergenceConfig,
    observe: bool,
) -> (ConvergenceResult, Vec<Vec<SubmittedOp>>, Vec<RankObservation>) {
    let endpoints = mesh(cfg.world);
    let mut losses_per_rank: Vec<Option<Vec<f64>>> = (0..cfg.world).map(|_| None).collect();
    let mut logs_per_rank: Vec<Vec<SubmittedOp>> = (0..cfg.world).map(|_| Vec::new()).collect();
    let mut obs_per_rank: Vec<Option<RankObservation>> = (0..cfg.world).map(|_| None).collect();
    let sampler = ZipfSampler::new(cfg.vocab, cfg.zipf_s);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let sampler = &sampler;
            handles.push(scope.spawn(move || (rank, worker(rank, ep, cfg, sampler, observe))));
        }
        for h in handles {
            let (rank, (losses, log, obs)) = h.join().expect("worker panicked");
            losses_per_rank[rank] = Some(losses);
            logs_per_rank[rank] = log;
            obs_per_rank[rank] = obs;
        }
    });
    (
        ConvergenceResult { losses: losses_per_rank.remove(0).expect("rank 0 losses") },
        logs_per_rank,
        obs_per_rank.into_iter().flatten().collect(),
    )
}

fn worker(
    rank: usize,
    ep: embrace_collectives::Endpoint,
    cfg: &ConvergenceConfig,
    sampler: &ZipfSampler,
    observe: bool,
) -> (Vec<f64>, Vec<SubmittedOp>, Option<RankObservation>) {
    // Chunked submission (§5.2's second dimension): the dense weight
    // allreduce is the bulk op here, and the segment size guarantees it
    // genuinely partitions, so the prior-gradient AlltoAll preempts it
    // mid-tensor. Chunked execution is bitwise-identical to unchunked,
    // which the trajectory-equality test against the inline pipeline
    // (`scheduled_matches_inline_embrace`) re-proves end to end on every
    // run.
    let opts = SchedOptions { chunk_bytes: Some(sched_chunk_bytes(cfg)), observed: observe };
    let mut comm = CommScheduler::new(ep, opts);
    let (emb_init, w_init, targets) = init_toy_state(cfg);
    let mut emb = ColumnShardedEmbedding::new(&emb_init, rank, cfg.world);
    let mut w = w_init;
    let mut opt_e = Adam::new(cfg.vocab, emb.shard_dim(), cfg.lr);
    let mut opt_w = Adam::new(cfg.dim, cfg.dim, cfg.lr);
    let mut stream = batch_stream(sampler, cfg, rank);

    let mut losses = Vec::with_capacity(cfg.steps);
    // Delayed gradient of the previous step: applied at the top of the
    // next step, before any of its rows can be looked up again
    // (Algorithm 1 guarantees they are absent from the very next batch).
    let mut pending_delayed: Option<embrace_collectives::Ticket> = None;

    for step in 0..cfg.steps {
        if let Some(t) = pending_delayed.take() {
            let CommResult::AlltoAllSparse(shards) = t.wait() else { unreachable!() };
            let delayed = ColumnShardedEmbedding::merge_grad_shards(&shards);
            emb.apply_grad(&delayed, &mut opt_e, UpdatePart::Delayed);
        }

        let tokens = stream.advance().expect("infinite stream");
        let next_local = stream.peek_next().expect("infinite stream").clone();

        // Gather this step's and the next step's tokens (prefetch plane).
        let t_cur = comm.submit(
            TOKEN_GATHER_PRIORITY,
            format!("s{step}/tokens_cur"),
            CommOp::GatherTokens(tokens.clone()),
        );
        let t_next = comm.submit(
            TOKEN_GATHER_PRIORITY,
            format!("s{step}/tokens_next"),
            CommOp::GatherTokens(next_local),
        );
        let CommResult::GatherTokens(all_tokens) = t_cur.wait() else { unreachable!() };

        // Embedding FP: local lookups, then AlltoAll #1 via the queue.
        let parts = emb.lookup_parts(&all_tokens);
        let t_data = comm.submit(
            EMB_DATA_PRIORITY,
            format!("s{step}/emb_data"),
            CommOp::AlltoAllDense(parts),
        );
        let CommResult::AlltoAllDense(blocks) = t_data.wait() else { unreachable!() };
        let lookup = ColumnShardedEmbedding::assemble_lookup(&blocks);

        // Dense FP/BP.
        let (loss, grad_w, grad_rows) = fwd_bwd_toy(&lookup, &tokens, &w, &targets);

        // Dense plane: hook fires the AllReduce into the queue and hands
        // the comm plane one quantum, so the bulk op is genuinely in flight
        // when the more urgent prior gradients arrive below.
        let t_w = comm.submit(
            DENSE_PRIORITY,
            format!("s{step}/allreduce_w"),
            CommOp::AllReduceDense(grad_w.into_vec()),
        );
        comm.progress();

        // Vertical Sparse Scheduling.
        let CommResult::GatherTokens(next_gathered) = t_next.wait() else { unreachable!() };
        let raw = RowSparse::new(tokens.clone(), grad_rows);
        let split = vertical_split(&raw, &tokens, &next_gathered.concat());
        let t_prior = comm.submit(
            PRIOR_GRAD_PRIORITY,
            format!("s{step}/prior_grad"),
            CommOp::AlltoAllSparse(emb.grad_parts(&split.prior)),
        );
        pending_delayed = Some(comm.submit(
            DELAYED_GRAD_PRIORITY,
            format!("s{step}/delayed_grad"),
            CommOp::AlltoAllSparse(emb.grad_parts(&split.delayed)),
        ));

        // Apply: dense weights, then the prior embedding rows (the next
        // lookup's minimum dependency).
        let CommResult::AllReduceDense(summed_w) = t_w.wait() else { unreachable!() };
        let grad_w = embrace_tensor::DenseTensor::from_vec(cfg.dim, cfg.dim, summed_w);
        opt_w.step_dense(&mut w, &grad_w);
        let CommResult::AlltoAllSparse(shards) = t_prior.wait() else { unreachable!() };
        let prior = ColumnShardedEmbedding::merge_grad_shards(&shards);
        emb.apply_grad(&prior, &mut opt_e, UpdatePart::Prior);

        // Global loss via the queue as well.
        let t_loss = comm.submit(
            i64::MAX - 1,
            format!("s{step}/loss"),
            CommOp::GatherTokens(vec![(loss * 1000.0).round() as u32]),
        );
        let CommResult::GatherTokens(all) = t_loss.wait() else { unreachable!() };
        losses.push(all.iter().map(|v| v[0] as f64 / 1000.0).sum());
    }
    // Drain the final delayed gradient before shutdown.
    if let Some(t) = pending_delayed.take() {
        let CommResult::AlltoAllSparse(shards) = t.wait() else { unreachable!() };
        let delayed = ColumnShardedEmbedding::merge_grad_shards(&shards);
        emb.apply_grad(&delayed, &mut opt_e, UpdatePart::Delayed);
    }
    comm.flush();
    let log = comm.submitted().to_vec();
    let obs = comm.observation();
    (losses, log, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::{train_convergence, TrainMethod};

    #[test]
    fn scheduled_pipeline_learns() {
        let cfg = ConvergenceConfig { world: 3, steps: 30, ..Default::default() };
        let r = train_convergence_scheduled(&cfg);
        assert_eq!(r.losses.len(), 30);
        assert!(r.losses[29] < r.losses[0] * 0.5, "first {} last {}", r.losses[0], r.losses[29]);
    }

    #[test]
    fn scheduled_matches_inline_embrace() {
        // Scheduling must not change semantics: same losses as the inline
        // EmbRace trainer (loss comparison is quantised to 1e-3 by the
        // integer gather, so compare at that granularity).
        let cfg = ConvergenceConfig { world: 4, steps: 25, ..Default::default() };
        let inline = train_convergence(TrainMethod::EmbRace, &cfg);
        let (scheduled, _, observed) = train_convergence_scheduled_observed(&cfg, true);
        for (i, (a, b)) in inline.losses.iter().zip(&scheduled.losses).enumerate() {
            assert!(
                (a - b).abs() <= 0.004 * cfg.world as f64 + a.abs() * 1e-4,
                "step {i}: inline {a} vs scheduled {b}"
            );
        }
        // ... on a run that did partition and preempt: every step's dense
        // allreduce ran as several units and was overtaken mid-tensor by
        // that step's prior gradients.
        for (rank, (_, timings)) in observed.iter().enumerate() {
            for step in 0..cfg.steps {
                let find = |op: &str| {
                    let tag = format!("s{step}/{op}");
                    timings.iter().find(|t| t.tag == tag).unwrap_or_else(|| panic!("no {tag}"))
                };
                let (bulk, prior) = (find("allreduce_w"), find("prior_grad"));
                assert!(bulk.chunks > 1, "rank {rank} step {step}: allreduce_w ran whole");
                assert!(
                    bulk.started_s < prior.started_s && prior.finished_s < bulk.finished_s,
                    "rank {rank} step {step}: prior_grad did not preempt allreduce_w"
                );
            }
        }
    }

    #[test]
    fn single_worker_scheduled() {
        let cfg = ConvergenceConfig { world: 1, steps: 5, ..Default::default() };
        let r = train_convergence_scheduled(&cfg);
        assert_eq!(r.losses.len(), 5);
        assert!(r.final_loss().is_finite());
    }
}

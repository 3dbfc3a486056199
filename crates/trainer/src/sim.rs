//! The per-method training-step simulator.
//!
//! For each method we build a K-step task DAG over two streams (GPU
//! compute, network) and run it through `embrace_simnet::Sim`. The DAG
//! encodes exactly the dependency structure of the paper's Fig. 5/6: BP in
//! reverse FP order, wait-free gradient communication fired per module,
//! the next step's FP gated on the arrival of that module's parameters,
//! and (for EmbRace) the hoisted embedding FP, the lookup-result AlltoAll
//! and the prior/delayed gradient split of Algorithm 1.

use embrace_baselines::bytescheduler::{partition_tensor, DEFAULT_CHUNK_BYTES};
use embrace_baselines::MethodId;
use embrace_core::horizontal::{CommKind, Priorities, DELAYED_GRAD_PRIORITY, PRIOR_GRAD_PRIORITY};
use embrace_models::{grad_stats, GradStats, ModelId, ModelSpec};
use embrace_simnet::{Cluster, CostModel, Sim, SimResult, Task, TaskId};
use embrace_tensor::F32_BYTES;

/// BytePS moves tensors through host shared memory; the paper observes its
/// performance is bound by (slow) RAM on both testbeds (§5.3). Multiplier
/// on PS transfer times.
const BYTEPS_RAM_PENALTY: f64 = 1.2;
/// Parallax copies embedding rows between GPU and CPU PS every step
/// ("frequent memory copy", §5.3). Multiplier on its PS transfer times.
const PARALLAX_HOSTCOPY_PENALTY: f64 = 1.60;
/// Vertical Sparse Scheduling computation: fixed kernel-launch overhead
/// plus per-row set-operation cost (coalesce/unique/intersect on GPU).
const VERTICAL_SCHED_BASE: f64 = 0.2e-3;
const VERTICAL_SCHED_PER_ROW: f64 = 30e-9;

/// One simulation request.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    pub method: MethodId,
    pub model: ModelId,
    pub cluster: Cluster,
    /// Simulated steps; steady state is measured over the middle ones.
    pub steps: usize,
    pub seed: u64,
    /// Override the method's default communication ordering (e.g. run
    /// EmbRace with `CommOrder::Preemptive` for the PACE-style ablation).
    pub comm_order: Option<embrace_simnet::CommOrder>,
    /// Fuse dense-block gradients into buckets of at most this many bytes
    /// before communicating (Horovod-style tensor fusion; ablation knob).
    /// `None` keeps the paper's block-granularity communication.
    pub fusion_bucket: Option<f64>,
}

impl SimConfig {
    pub fn new(method: MethodId, model: ModelId, cluster: Cluster) -> Self {
        SimConfig {
            method,
            model,
            cluster,
            steps: 8,
            seed: 42,
            comm_order: None,
            fusion_bucket: None,
        }
    }

    /// Builder-style communication-order override.
    pub fn with_comm_order(mut self, order: embrace_simnet::CommOrder) -> Self {
        self.comm_order = Some(order);
        self
    }

    /// Builder-style fusion-bucket override.
    pub fn with_fusion(mut self, bucket_bytes: f64) -> Self {
        self.fusion_bucket = Some(bucket_bytes);
        self
    }
}

/// Steady-state metrics of one simulated configuration.
#[derive(Clone, Copy, Debug)]
pub struct StepMetrics {
    /// Steady-state wall time per training step (seconds).
    pub step_time: f64,
    /// Pure model compute per step (FP+BP, seconds).
    pub compute_time: f64,
    /// Computation Stall per step (§5.4): step time not covered by useful
    /// model compute — non-overlapped communication plus scheduling
    /// computation.
    pub stall: f64,
    /// Aggregate training throughput in non-padding tokens/sec.
    pub tokens_per_sec: f64,
}

/// Sizes and volumes one step of a given configuration moves around.
struct StepSizes {
    /// Dense bytes per block (uniform blocks).
    block_bytes: f64,
    /// Number of dense blocks.
    n_blocks: usize,
    /// Dense bytes of each embedding table (for sparse-as-dense methods).
    emb_dense_bytes: Vec<f64>,
    /// Per-table per-rank sparse gradient bytes (raw / coalesced / prior).
    grad_original: f64,
    grad_coalesced: f64,
    grad_prior: f64,
    /// Per-rank AlltoAll #1 payload: this rank's batch lookup results.
    emb_data_bytes: f64,
    /// Coalesced gradient rows per batch (vertical-compute cost driver).
    rows_coalesced: f64,
    /// Useful tokens per worker batch (non-padding).
    tokens_per_batch: f64,
}

fn step_sizes(spec: &ModelSpec, cfg: &SimConfig, stats: &GradStats) -> StepSizes {
    let n_tables = spec.embeddings.len() as f64;
    let mib = 1024.0 * 1024.0;
    let rows = spec.rows_per_batch(cfg.cluster.gpu) as f64;
    StepSizes {
        block_bytes: (spec.block_params * F32_BYTES) as f64,
        n_blocks: spec.n_blocks(),
        emb_dense_bytes: spec.embeddings.iter().map(|e| e.bytes() as f64).collect(),
        grad_original: stats.original_mib() * mib / n_tables,
        grad_coalesced: stats.coalesced_mib() * mib / n_tables,
        grad_prior: stats.prior_mib() * mib / n_tables,
        emb_data_bytes: rows * spec.dim() as f64 * F32_BYTES as f64,
        rows_coalesced: stats.rows_coalesced,
        tokens_per_batch: rows * (1.0 - spec.pad_fraction),
    }
}

/// Workload statistics for the gradient volumes, memoised per
/// (model, gpu, world, seed): the Zipf averages are stable across calls
/// and resampling them dominates the simulator's own cost.
fn cached_stats(cfg: &SimConfig) -> GradStats {
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::OnceLock;
    type Key = (ModelId, embrace_simnet::GpuKind, usize, u64);
    static CACHE: OnceLock<Mutex<HashMap<Key, GradStats>>> = OnceLock::new();
    let key = (cfg.model, cfg.cluster.gpu, cfg.cluster.world(), cfg.seed);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(st) = cache.lock().get(&key) {
        return *st;
    }
    let spec = ModelSpec::get(cfg.model);
    // Few steps suffice — the averages are stable.
    let st = grad_stats(&spec, cfg.cluster.gpu, cfg.cluster.world(), 3, cfg.seed);
    cache.lock().insert(key, st);
    st
}

/// Simulate one configuration and return its steady-state metrics.
pub fn simulate(cfg: &SimConfig) -> StepMetrics {
    simulate_full(cfg).0
}

/// Like [`simulate`], but return the complete [`SimResult`] — trace spans
/// plus the per-priority comm-queue depth samples and stream occupancy
/// that the observability exporters consume.
pub fn simulate_full(cfg: &SimConfig) -> (StepMetrics, SimResult) {
    let spec = ModelSpec::get(cfg.model);
    let stats = cached_stats(cfg);
    // Replicated-table methods must host full embedding tables in CPU
    // memory on 8 GB RTX2080s (§5.3); EmbRace's column shards and the PS
    // methods' server-side tables avoid that. The slowdown is modelled as
    // *overhead* time around the embedding kernels (the GPU waiting on
    // host staging), so it counts toward Computation Stall, not useful
    // compute.
    let cpu_embeddings = matches!(
        cfg.method,
        MethodId::HorovodAllReduce | MethodId::HorovodAllGather | MethodId::BytePs
    );
    let graph = spec.graph(cfg.cluster.gpu);
    let cpu_extra = if cpu_embeddings && cfg.cluster.gpu == embrace_simnet::GpuKind::Rtx2080 {
        spec.cpu_emb_penalty_2080 - 1.0
    } else {
        0.0
    };
    let sizes = step_sizes(&spec, cfg, &stats);
    let cm = CostModel::new(cfg.cluster);
    let prio = Priorities::assign(&graph);

    let mut sim = Sim::new(cfg.comm_order.unwrap_or_else(|| cfg.method.comm_order()));
    let mut markers: Vec<TaskId> = Vec::with_capacity(cfg.steps);

    // Per-module comm task(s) of the previous step, gating this step's FP.
    let n = graph.len();
    let mut prev_param_ready: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    // EmbRace: delayed-grad comm of step s-2 per embedding, gating FP.
    let mut prev_delayed: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    let mut fp_done: Vec<Option<TaskId>> = vec![None; n];

    let world = cfg.cluster.world() as f64;
    let servers = cfg.cluster.nodes;
    let is_embrace = matches!(
        cfg.method,
        MethodId::EmbRace | MethodId::EmbRaceNoSched | MethodId::EmbRaceHorizontal
    );
    // Horizontal scheduling: priority queue + hoisted embedding FP.
    let hoist = matches!(cfg.method, MethodId::EmbRace | MethodId::EmbRaceHorizontal);
    // Vertical scheduling: prior/delayed gradient split.
    let vertical_enabled = cfg.method == MethodId::EmbRace;

    for step in 0..cfg.steps {
        // ---------------- Forward pass ----------------
        let fp_order: Vec<usize> =
            if hoist { graph.hoisted_fp_order() } else { graph.fp_order().collect() };
        // EmbRace: lookup-result AlltoAll tasks created after embedding FP;
        // dense-consumer FP additionally depends on them.
        let mut emb_data_comm: Vec<Option<TaskId>> = vec![None; n];

        for &m in &fp_order {
            let module = &graph.modules[m];
            let mut deps: Vec<TaskId> = Vec::new();
            // FP inputs computed this step.
            for &inp in &module.inputs {
                if let Some(t) = fp_done[inp] {
                    deps.push(t);
                }
                if let Some(t) = emb_data_comm[inp] {
                    deps.push(t);
                }
            }
            // Parameters must have arrived: the previous step's prompt
            // communications plus the step-before-last's delayed
            // gradients (already merged into `prev_param_ready`).
            deps.extend(prev_param_ready[m].iter().copied());
            // Host-staged embeddings: CPU lookup time precedes the kernel.
            if cpu_extra > 0.0 && module.is_embedding() {
                let stage = sim.add(
                    Task::overhead(
                        format!("s{step}/cpu_fp/{}", module.name),
                        module.fp_time * cpu_extra,
                    )
                    .after(deps.clone()),
                );
                deps = vec![stage];
            }
            let fp = sim.add(
                Task::compute(format!("s{step}/fp/{}", module.name), module.fp_time).after(deps),
            );
            fp_done[m] = Some(fp);

            if is_embrace && module.is_embedding() {
                // AlltoAll #1: redistribute this batch's lookup results.
                let dur = cm.alltoall(sizes.emb_data_bytes);
                let pr = if hoist { prio.of(CommKind::EmbData(m)) } else { 0 };
                let t = sim.add(
                    Task::comm(format!("s{step}/emb_data/{}", module.name), dur, pr).after([fp]),
                );
                emb_data_comm[m] = Some(t);
            }
        }

        // ---------------- Backward pass ----------------
        let mut prev_bp: Option<TaskId> = None;
        let mut bp_done: Vec<Option<TaskId>> = vec![None; n];
        for m in graph.bp_order() {
            let module = &graph.modules[m];
            let mut deps: Vec<TaskId> = Vec::new();
            // Loss comes after the whole FP; chain BP in reverse order.
            if let Some(p) = prev_bp {
                deps.push(p);
            } else {
                // First BP task waits for the last FP task of this step.
                for t in fp_done.iter().flatten() {
                    deps.push(*t);
                }
            }
            let mut bp = sim.add(
                Task::compute(format!("s{step}/bp/{}", module.name), module.bp_time).after(deps),
            );
            if cpu_extra > 0.0 && module.is_embedding() {
                // CPU-side gradient staging after the kernel.
                bp = sim.add(
                    Task::overhead(
                        format!("s{step}/cpu_bp/{}", module.name),
                        module.bp_time * cpu_extra,
                    )
                    .after([bp]),
                );
            }
            bp_done[m] = Some(bp);
            prev_bp = Some(bp);
        }

        // ---------------- Gradient communication ----------------
        let mut param_ready: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut delayed_ready: Vec<Vec<TaskId>> = vec![Vec::new(); n];

        // EmbRace vertical-scheduling computation: fires once after the
        // last BP (the prototype registers it on the last BP hook, §5.1).
        let vertical = if vertical_enabled {
            let dur = VERTICAL_SCHED_BASE + sizes.rows_coalesced * VERTICAL_SCHED_PER_ROW;
            Some(
                sim.add(
                    Task::overhead(format!("s{step}/vertical_sched"), dur)
                        .after([prev_bp.expect("backward pass emitted at least one module")]),
                ),
            )
        } else {
            None
        };

        // Optional Horovod-style tensor fusion for the dense plane
        // (ablation knob; BytePS keeps its own ByteScheduler chunking).
        let fusion = cfg.fusion_bucket.filter(|_| cfg.method != MethodId::BytePs);

        for m in 0..n {
            let module = &graph.modules[m];
            let bp = bp_done[m].expect("backward task recorded for every module");
            if module.is_embedding() {
                match cfg.method {
                    MethodId::EmbRace => {
                        let prior_dur = cm.alltoall(sizes.grad_prior);
                        let delayed_dur = cm.alltoall(sizes.grad_coalesced - sizes.grad_prior);
                        let v =
                            vertical.expect("EmbRace method always schedules the vertical split");
                        let p = sim.add(
                            Task::comm(
                                format!("s{step}/prior_grad/{}", module.name),
                                prior_dur,
                                PRIOR_GRAD_PRIORITY,
                            )
                            .after([bp, v]),
                        );
                        let d = sim.add(
                            Task::comm(
                                format!("s{step}/delayed_grad/{}", module.name),
                                delayed_dur,
                                DELAYED_GRAD_PRIORITY,
                            )
                            .after([bp, v]),
                        );
                        param_ready[m].push(p);
                        delayed_ready[m].push(d);
                    }
                    MethodId::EmbRaceNoSched => {
                        // Hybrid communication only: the raw (uncoalesced)
                        // gradient in one AlltoAll, FIFO — coalescing
                        // belongs to Vertical Sparse Scheduling (§4.2.2).
                        let dur = cm.alltoall(sizes.grad_original);
                        let t = sim.add(
                            Task::comm(format!("s{step}/grad_whole/{}", module.name), dur, 0)
                                .after([bp]),
                        );
                        param_ready[m].push(t);
                    }
                    MethodId::EmbRaceHorizontal => {
                        // Whole raw gradient (no vertical split /
                        // coalescing), but at the urgent priority of the
                        // horizontal schedule (Fig. 6b).
                        let dur = cm.alltoall(sizes.grad_original);
                        let t = sim.add(
                            Task::comm(
                                format!("s{step}/grad_whole/{}", module.name),
                                dur,
                                PRIOR_GRAD_PRIORITY,
                            )
                            .after([bp]),
                        );
                        param_ready[m].push(t);
                    }
                    MethodId::HorovodAllReduce => {
                        let dur =
                            cm.ring_allreduce(sizes.emb_dense_bytes[embedding_pos(&graph, m)]);
                        let t = sim.add(
                            Task::comm(format!("s{step}/emb_allreduce/{}", module.name), dur, 0)
                                .after([bp]),
                        );
                        param_ready[m].push(t);
                    }
                    MethodId::HorovodAllGather => {
                        // Horovod's PyTorch sparse path coalesces before
                        // gathering, so the coalesced size travels.
                        let dur = cm.allgather(sizes.grad_coalesced);
                        let t = sim.add(
                            Task::comm(format!("s{step}/emb_allgather/{}", module.name), dur, 0)
                                .after([bp]),
                        );
                        param_ready[m].push(t);
                    }
                    MethodId::BytePs => {
                        // Densified embedding through the PS, chunked by
                        // ByteScheduler; FP-order priority (embeddings are
                        // needed first, so chunks get the lowest values).
                        let bytes = sizes.emb_dense_bytes[embedding_pos(&graph, m)];
                        for (c, chunk) in
                            partition_tensor(bytes, DEFAULT_CHUNK_BYTES).iter().enumerate()
                        {
                            let dur = cm.ps_hierarchical(*chunk, servers) * BYTEPS_RAM_PENALTY;
                            let t = sim.add(
                                Task::comm(
                                    format!("s{step}/ps_emb{c}/{}", module.name),
                                    dur,
                                    m as i64,
                                )
                                .after([bp]),
                            );
                            param_ready[m].push(t);
                        }
                    }
                    MethodId::Parallax => {
                        // Push: the raw gradient as the framework emits it
                        // (duplicates included); pull: the unique rows of
                        // the batch. `ps` charges both directions, so pass
                        // the average one-way volume.
                        let one_way = 0.5 * (sizes.grad_original + sizes.grad_coalesced);
                        let dur = cm.ps(one_way, servers) * PARALLAX_HOSTCOPY_PENALTY;
                        let t = sim.add(
                            Task::comm(format!("s{step}/ps_sparse/{}", module.name), dur, 0)
                                .after([bp]),
                        );
                        param_ready[m].push(t);
                    }
                }
            } else if fusion.is_some() {
                // Dense gradients handled by the fused pass below.
            } else {
                // Dense block gradients.
                match cfg.method {
                    MethodId::BytePs => {
                        for (c, chunk) in partition_tensor(sizes.block_bytes, DEFAULT_CHUNK_BYTES)
                            .iter()
                            .enumerate()
                        {
                            let dur = cm.ps_hierarchical(*chunk, servers) * BYTEPS_RAM_PENALTY;
                            let t = sim.add(
                                Task::comm(
                                    format!("s{step}/ps_blk{c}/{}", module.name),
                                    dur,
                                    m as i64,
                                )
                                .after([bp]),
                            );
                            param_ready[m].push(t);
                        }
                    }
                    _ => {
                        let dur = cm.ring_allreduce(sizes.block_bytes);
                        let pr = if hoist { prio.of(CommKind::DenseBlock(m)) } else { 0 };
                        let t = sim.add(
                            Task::comm(format!("s{step}/allreduce/{}", module.name), dur, pr)
                                .after([bp]),
                        );
                        param_ready[m].push(t);
                    }
                }
            }
        }

        if let Some(bucket_bytes) = fusion {
            use embrace_dlsim::fusion::assign_buckets;
            let bp_sizes: Vec<(usize, f64)> = graph
                .bp_order()
                .filter(|&m| !graph.modules[m].is_embedding())
                .map(|m| (m, sizes.block_bytes))
                .collect();
            for (b, bucket) in assign_buckets(&bp_sizes, bucket_bytes).into_iter().enumerate() {
                // The bucket flushes when its last-produced gradient is
                // ready; it inherits the urgency of its earliest-needed
                // member.
                let gate =
                    bp_done[bucket.ready_after()].expect("backward task recorded for every module");
                let dur = cm.ring_allreduce(bucket.bytes);
                let pr = if hoist {
                    bucket
                        .modules
                        .iter()
                        .map(|&m| prio.of(CommKind::DenseBlock(m)))
                        .min()
                        .expect("bucket cannot be empty")
                } else {
                    0
                };
                let t = sim
                    .add(Task::comm(format!("s{step}/fused_allreduce{b}"), dur, pr).after([gate]));
                for &m in &bucket.modules {
                    param_ready[m].push(t);
                }
            }
        }

        markers.push(prev_bp.expect("backward pass emitted at least one module"));
        // Delayed gradients of step s gate the FP of step s+2, not s+1:
        // Algorithm 1 guarantees rows reused by step s+1 are in the prior
        // part, so only the *previous* step's delayed comm joins the
        // parameter-ready set for the upcoming FP.
        let delayed_prev = std::mem::take(&mut prev_delayed); // delayed(s-1)
        prev_param_ready = param_ready;
        for (m, ts) in delayed_prev.into_iter().enumerate() {
            prev_param_ready[m].extend(ts);
        }
        prev_delayed = delayed_ready;
        fp_done = vec![None; n];
    }

    let result = sim.run();
    let metrics = metrics_from(&result, &markers, &graph, &sizes, world, sizes.n_blocks);
    (metrics, result)
}

/// Position of embedding module `m` among the graph's embeddings (to pick
/// the matching dense-table size).
fn embedding_pos(graph: &embrace_dlsim::graph::ModelGraph, m: usize) -> usize {
    graph.embeddings().iter().position(|&e| e == m).expect("module is an embedding")
}

fn metrics_from(
    result: &SimResult,
    markers: &[TaskId],
    graph: &embrace_dlsim::graph::ModelGraph,
    sizes: &StepSizes,
    world: f64,
    _n_blocks: usize,
) -> StepMetrics {
    // Steady state: average step duration between the 2nd and last marker.
    let ends: Vec<f64> = markers
        .iter()
        .map(|&id| {
            result
                .trace
                .spans
                .iter()
                .find(|s| s.task == id)
                .map(|s| s.end)
                .expect("marker task must have run")
        })
        .collect();
    let k = ends.len();
    assert!(k >= 3, "need at least 3 steps for steady state");
    let step_time = (ends[k - 1] - ends[1]) / (k - 2) as f64;
    let compute_time = graph.compute_time();
    StepMetrics {
        step_time,
        compute_time,
        stall: (step_time - compute_time).max(0.0),
        tokens_per_sec: world * sizes.tokens_per_batch / step_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(method: MethodId, model: ModelId, cluster: Cluster) -> StepMetrics {
        simulate(&SimConfig::new(method, model, cluster))
    }

    #[test]
    fn step_time_bounded_below_by_compute() {
        for method in MethodId::ALL {
            let m = run(method, ModelId::Gnmt8, Cluster::rtx3090(8));
            assert!(
                m.step_time >= m.compute_time * 0.999,
                "{}: step {} < compute {}",
                method.name(),
                m.step_time,
                m.compute_time
            );
            assert!(m.tokens_per_sec > 0.0);
        }
    }

    #[test]
    fn embrace_beats_all_baselines_on_lm() {
        // The headline result: LM is 97% sparse, dense methods drown.
        let cluster = Cluster::rtx3090(16);
        let embrace = run(MethodId::EmbRace, ModelId::Lm, cluster);
        for b in MethodId::BASELINES {
            let m = run(b, ModelId::Lm, cluster);
            assert!(
                embrace.tokens_per_sec > m.tokens_per_sec,
                "EmbRace {} <= {} {}",
                embrace.tokens_per_sec,
                b.name(),
                m.tokens_per_sec
            );
        }
    }

    #[test]
    fn embrace_beats_baselines_on_all_models_16gpu() {
        let cluster = Cluster::rtx3090(16);
        for model in ModelId::ALL {
            let embrace = run(MethodId::EmbRace, model, cluster);
            for b in MethodId::BASELINES {
                let m = run(b, model, cluster);
                assert!(
                    embrace.tokens_per_sec >= m.tokens_per_sec * 0.98,
                    "{:?}: EmbRace {} vs {} {}",
                    model,
                    embrace.tokens_per_sec,
                    b.name(),
                    m.tokens_per_sec
                );
            }
        }
    }

    #[test]
    fn scheduling_ablation_helps() {
        // Fig. 9: full EmbRace ≥ hybrid-comm-only ≥ Horovod AllGather.
        let cluster = Cluster::rtx3090(16);
        for model in ModelId::ALL {
            let full = run(MethodId::EmbRace, model, cluster);
            let nosched = run(MethodId::EmbRaceNoSched, model, cluster);
            assert!(
                full.tokens_per_sec >= nosched.tokens_per_sec * 0.999,
                "{model:?}: sched {} < nosched {}",
                full.tokens_per_sec,
                nosched.tokens_per_sec
            );
        }
    }

    #[test]
    fn embrace_reduces_stall() {
        let cluster = Cluster::rtx3090(16);
        for model in ModelId::ALL {
            let embrace = run(MethodId::EmbRace, model, cluster);
            let best_baseline_stall = MethodId::BASELINES
                .iter()
                .map(|&b| run(b, model, cluster).stall)
                .fold(f64::INFINITY, f64::min);
            assert!(
                embrace.stall <= best_baseline_stall,
                "{model:?}: EmbRace stall {} vs best baseline {best_baseline_stall}",
                embrace.stall
            );
        }
    }

    #[test]
    fn throughput_scales_with_gpus() {
        for world in [4, 8, 16] {
            let m = run(MethodId::EmbRace, ModelId::Gnmt8, Cluster::rtx3090(world));
            let single_ideal = m.tokens_per_sec / world as f64;
            // Efficiency must stay sane (not super-linear, not collapsed).
            let per_gpu_compute_bound = ModelSpec::get(ModelId::Gnmt8)
                .rows_per_batch(embrace_simnet::GpuKind::Rtx3090)
                as f64
                / ModelSpec::get(ModelId::Gnmt8).compute_time(embrace_simnet::GpuKind::Rtx3090);
            assert!(single_ideal <= per_gpu_compute_bound * 1.001);
            assert!(single_ideal >= per_gpu_compute_bound * 0.3);
        }
    }
}

#[cfg(test)]
mod knob_tests {
    use super::*;
    use embrace_simnet::CommOrder;

    #[test]
    fn comm_order_override_is_respected() {
        let base = SimConfig::new(MethodId::EmbRace, ModelId::Transformer, Cluster::rtx3090(16));
        let prio = simulate(&base);
        let fifo = simulate(&base.with_comm_order(CommOrder::Fifo));
        // EmbRace forced to FIFO must degrade toward the no-priority case.
        assert!(
            fifo.step_time >= prio.step_time * 0.999,
            "fifo {} prio {}",
            fifo.step_time,
            prio.step_time
        );
    }

    #[test]
    fn preemptive_override_runs_and_stays_sane() {
        for model in ModelId::ALL {
            let base = SimConfig::new(MethodId::EmbRace, model, Cluster::rtx3090(16));
            let pre = simulate(&base.with_comm_order(CommOrder::Preemptive));
            assert!(pre.step_time >= pre.compute_time * 0.999);
            assert!(pre.tokens_per_sec > 0.0);
        }
    }

    #[test]
    fn extreme_fusion_hurts() {
        // One giant bucket serialises all dense comm behind the last BP.
        let base =
            SimConfig::new(MethodId::HorovodAllReduce, ModelId::Transformer, Cluster::rtx3090(16));
        let per_block = simulate(&base);
        let fused = simulate(&base.with_fusion(1e12));
        assert!(
            fused.step_time > per_block.step_time,
            "all-in-one fusion should remove overlap: {} vs {}",
            fused.step_time,
            per_block.step_time
        );
    }

    #[test]
    fn fusion_conserves_correctness_of_metrics() {
        let base = SimConfig::new(MethodId::EmbRace, ModelId::Gnmt8, Cluster::rtx3090(16));
        let fused = simulate(&base.with_fusion(64.0 * 1024.0 * 1024.0));
        assert!(fused.step_time >= fused.compute_time * 0.999);
        assert!((fused.stall - (fused.step_time - fused.compute_time)).abs() < 1e-9);
    }

    #[test]
    fn more_steps_converge_to_same_steady_state() {
        let mut a = SimConfig::new(MethodId::EmbRace, ModelId::Gnmt8, Cluster::rtx3090(16));
        let mut b = a;
        a.steps = 6;
        b.steps = 14;
        let ta = simulate(&a).step_time;
        let tb = simulate(&b).step_time;
        assert!((ta - tb).abs() / ta < 0.02, "steady state must be stable: {ta} vs {tb}");
    }

    #[test]
    fn rtx2080_cpu_embedding_penalty_applies_to_replicated_methods_only() {
        let cluster = Cluster::rtx2080(8);
        let gather = simulate(&SimConfig::new(MethodId::HorovodAllGather, ModelId::Lm, cluster));
        let embrace = simulate(&SimConfig::new(MethodId::EmbRace, ModelId::Lm, cluster));
        // The replicated method pays the host-staging overhead as stall.
        assert!(
            gather.stall > embrace.stall * 5.0,
            "gather {} embrace {}",
            gather.stall,
            embrace.stall
        );
        // Useful compute is identical (same model, same GPU).
        assert!((gather.compute_time - embrace.compute_time).abs() < 1e-9);
    }
}

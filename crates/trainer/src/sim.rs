//! The per-method training-step simulator.
//!
//! Every method's step is a [`StepPlan`]. EmbRace and its Fig. 9
//! ablations run `core::horizontal`'s plan, the one the live step submits;
//! each baseline's plan holds its own exchanges. [`simulate_full`] lowers
//! K steps of the plan to a task DAG over two streams (GPU compute,
//! network) and runs it through `embrace_simnet::Sim`. The DAG encodes the
//! dependency structure of the paper's Fig. 5/6: FP in (for horizontal
//! scheduling, hoisted) program order, BP in reverse, and each op after
//! the phase it waits on and ahead of the phases it unblocks. So a
//! module's next FP waits on the arrival of its parameters, and a delayed
//! gradient gates the FP two steps later (Algorithm 1).

use embrace_baselines::bytescheduler::{partition_tensor, DEFAULT_CHUNK_BYTES};
use embrace_baselines::MethodId;
use embrace_core::horizontal::{
    dense_units, suffix, GradRows, OpKind, Phase, PlanOp, StepPlan, StepShapes,
};
use embrace_dlsim::graph::ModelGraph;
use embrace_models::{grad_stats, GradStats, ModelId, ModelSpec};
use embrace_simnet::{Cluster, CostModel, Sim, SimResult, Task, TaskId};
use embrace_tensor::F32_BYTES;
use std::collections::HashMap;

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

/// The step plan the DES prices for `cfg`.
pub fn step_plan(cfg: &SimConfig) -> StepPlan {
    let spec = ModelSpec::get(cfg.model);
    plan(cfg, &spec, &spec.graph(cfg.cluster.gpu), &cached_stats(cfg))
}

/// One rank's step under `cfg.method`, from the averaged gradient volumes
/// in `stats` (counted over all of the model's tables).
fn plan(cfg: &SimConfig, spec: &ModelSpec, graph: &ModelGraph, stats: &GradStats) -> StepPlan {
    let tables = spec.embeddings.len() as f64;
    let row_bytes = stats.row_bytes as f64;
    let fusion = cfg.fusion_bucket.unwrap_or(0.0);
    let grad = match cfg.method {
        MethodId::EmbRace => GradRows::Split {
            coalesced: stats.rows_coalesced / tables,
            prior: stats.rows_prior / tables,
        },
        // Hybrid communication only: the raw (uncoalesced) gradient in one
        // AlltoAll, as coalescing belongs to Vertical Sparse Scheduling
        // (§4.2.2). FIFO without hoisting (Fig. 6a), or at the urgent
        // priority of the horizontal schedule (Fig. 6b).
        MethodId::EmbRaceNoSched | MethodId::EmbRaceHorizontal => {
            GradRows::Whole(stats.rows_original / tables)
        }
        baseline => return baseline_plan(baseline, graph, stats, fusion),
    };
    let world = cfg.cluster.world();
    let shapes = StepShapes {
        world,
        tokens: spec.rows_per_batch(cfg.cluster.gpu) as f64,
        shard_width: spec.dim() as f64 / world as f64,
        grad_exchange: (OpKind::AlltoAllSparse, row_bytes),
        grad,
        fusion,
    };
    StepPlan::embrace(graph, &shapes)
}

/// A baseline's step: each module's exchange after its BP, gating its next
/// FP. BytePS keeps its own ByteScheduler chunking instead of fusion.
fn baseline_plan(method: MethodId, graph: &ModelGraph, stats: &GradStats, fusion: f64) -> StepPlan {
    use OpKind::*;
    let (embeddings, dense) = (graph.embeddings(), graph.dense_blocks());
    let grad = |rows: f64| rows / embeddings.len() as f64 * stats.row_bytes as f64;
    let bytes = |m: usize| (graph.modules[m].params() * F32_BYTES) as f64;
    let mut plan = StepPlan { ops: Vec::new() };
    let mut exchange = |kind, op: &str, m: usize, several: usize, priority, bytes| {
        let tag = op.to_string() + &suffix(&graph.modules[m].name, several);
        plan.push(kind, tag, priority, bytes, Phase::Bp(m), [(Phase::Fp(m), 1)]);
    };
    // ByteScheduler's chunks, with FP-order priority: embeddings are
    // needed first, so their chunks get the lowest values.
    let chunks = |m: usize| partition_tensor(bytes(m), DEFAULT_CHUNK_BYTES).into_iter().enumerate();
    let n = embeddings.len();
    for &e in &embeddings {
        match method {
            MethodId::HorovodAllReduce => {
                exchange(AllReduceDense, "emb_allreduce", e, n, 0, bytes(e))
            }
            // Horovod's PyTorch sparse path coalesces before gathering, so
            // the coalesced size travels.
            MethodId::HorovodAllGather => {
                exchange(AllGatherSparse, "emb_allgather", e, n, 0, grad(stats.rows_coalesced))
            }
            // The densified embedding through the PS.
            MethodId::BytePs => {
                for (c, chunk) in chunks(e) {
                    exchange(PsHierarchical, &format!("ps_emb{c}"), e, n, e as i64, chunk)
                }
            }
            // Push: the raw gradient as the framework emits it (duplicates
            // included); pull: the unique rows of the batch. `ps` charges
            // both directions, so pass the average one-way volume.
            MethodId::Parallax => {
                let one_way = 0.5 * (grad(stats.rows_original) + grad(stats.rows_coalesced));
                exchange(Ps, "ps_sparse", e, n, 0, one_way)
            }
            embrace => unreachable!("{} is not a baseline", embrace.name()),
        }
    }
    if method == MethodId::BytePs {
        for &m in &dense {
            for (c, chunk) in chunks(m) {
                exchange(PsHierarchical, &format!("ps_blk{c}"), m, dense.len(), m as i64, chunk);
            }
        }
        return plan;
    }
    // A dense unit flushes when its last-produced gradient is ready.
    for (suffix, unit) in dense_units(graph, fusion) {
        let (tag, after) = (format!("allreduce{suffix}"), Phase::Bp(unit.ready_after()));
        let fps = unit.modules.iter().map(|&m| (Phase::Fp(m), 1));
        plan.push(AllReduceDense, tag, 0, unit.bytes, after, fps);
    }
    plan
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
    let graph = spec.graph(cfg.cluster.gpu);
    let (sim, markers) = lower(cfg, &spec, &graph);
    let result = sim.run();
    let tokens = spec.rows_per_batch(cfg.cluster.gpu) as f64 * (1.0 - spec.pad_fraction);
    let metrics = metrics_from(&result, &markers, &graph, tokens, cfg.cluster.world() as f64);
    (metrics, result)
}

/// `cfg.steps` steps of `cfg`'s plan as one task DAG, with each step's
/// marker: its last backward task.
fn lower(cfg: &SimConfig, spec: &ModelSpec, graph: &ModelGraph) -> (Sim, Vec<TaskId>) {
    let stats = cached_stats(cfg);
    let plan = plan(cfg, spec, graph, &stats);
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
    let cpu_extra = if cpu_embeddings && cfg.cluster.gpu == embrace_simnet::GpuKind::Rtx2080 {
        spec.cpu_emb_penalty_2080 - 1.0
    } else {
        0.0
    };
    // Horizontal scheduling hoists the embedding FP ahead of the blocks.
    let hoist = matches!(cfg.method, MethodId::EmbRace | MethodId::EmbRaceHorizontal);
    let fp_order: Vec<usize> =
        if hoist { graph.hoisted_fp_order() } else { graph.fp_order().collect() };
    let split = plan.ops.iter().any(|op| op.after == Phase::Split);
    let order = cfg.comm_order.unwrap_or_else(|| cfg.method.comm_order());
    let mut l = Lowering {
        sim: Sim::new(order),
        plan: &plan,
        cm: CostModel::new(cfg.cluster),
        servers: cfg.cluster.nodes,
        gates: HashMap::new(),
    };
    let mut markers = Vec::with_capacity(cfg.steps);
    // What a step's start waits on: the previous step's last compute task.
    let mut start = Vec::new();
    for s in 0..cfg.steps {
        l.emit(s, Phase::Start, &start);
        let mut fp_done: Vec<Option<TaskId>> = vec![None; graph.len()];
        for &m in &fp_order {
            let module = &graph.modules[m];
            // This step's FP inputs, and every op gating this FP: earlier
            // steps' parameters and this step's lookups.
            let mut deps: Vec<TaskId> = module.inputs.iter().filter_map(|&i| fp_done[i]).collect();
            deps.extend(l.gates(s, Phase::Fp(m)));
            if cpu_extra > 0.0 && module.is_embedding() {
                // Host-staged embeddings: CPU lookup time precedes the kernel.
                let name = format!("s{s}/cpu_fp/{}", module.name);
                deps =
                    vec![l.sim.add(Task::overhead(name, module.fp_time * cpu_extra).after(deps))];
            }
            let name = format!("s{s}/fp/{}", module.name);
            let fp = l.sim.add(Task::compute(name, module.fp_time).after(deps));
            fp_done[m] = Some(fp);
            l.emit(s, Phase::Fp(m), &[fp]);
        }
        // The first BP waits for the whole FP; the rest chain in reverse.
        let mut bp_deps: Vec<TaskId> = fp_done.iter().flatten().copied().collect();
        for m in graph.bp_order() {
            let module = &graph.modules[m];
            let name = format!("s{s}/bp/{}", module.name);
            let mut bp = l.sim.add(Task::compute(name, module.bp_time).after(bp_deps));
            if cpu_extra > 0.0 && module.is_embedding() {
                // CPU-side gradient staging after the kernel.
                let name = format!("s{s}/cpu_bp/{}", module.name);
                bp = l.sim.add(Task::overhead(name, module.bp_time * cpu_extra).after([bp]));
            }
            l.emit(s, Phase::Bp(m), &[bp]);
            bp_deps = vec![bp];
        }
        markers.extend(bp_deps.first());
        start = if split {
            // Vertical Sparse Scheduling fires once after the last BP (the
            // prototype registers it on the last BP hook, §5.1).
            let dur = VERTICAL_SCHED_BASE + stats.rows_coalesced * VERTICAL_SCHED_PER_ROW;
            bp_deps.extend(l.gates(s, Phase::Split));
            let task = Task::overhead(format!("s{s}/vertical_sched"), dur).after(bp_deps);
            let v = l.sim.add(task);
            l.emit(s, Phase::Split, &[v]);
            vec![v]
        } else {
            bp_deps
        };
    }
    (l.sim, markers)
}

/// A plan's ops as `Sim` comm tasks: each waits on its phase's task and
/// gates the phases it unblocks.
struct Lowering<'a> {
    sim: Sim,
    plan: &'a StepPlan,
    cm: CostModel,
    servers: usize,
    /// The tasks gating each `(step, phase)` not lowered yet.
    gates: HashMap<(usize, Phase), Vec<TaskId>>,
}

impl Lowering<'_> {
    /// Take the tasks gating `phase` of step `s`.
    fn gates(&mut self, s: usize, phase: Phase) -> Vec<TaskId> {
        self.gates.remove(&(s, phase)).unwrap_or_default()
    }

    /// Add the ops waiting on `phase` of step `s`, which `deps` complete,
    /// and then those waiting on the sharded updates they unblock: the DES
    /// prices no optimizer, so an update takes no time.
    fn emit(&mut self, s: usize, phase: Phase, deps: &[TaskId]) {
        let plan = self.plan;
        for op in plan.ops.iter().filter(|op| op.after == phase) {
            let task = Task::comm(format!("s{s}/{}", op.tag), self.price(op), op.priority);
            let t = self.sim.add(task.after(deps.iter().copied()));
            for &(gated, k) in &op.unblocks {
                self.gates.entry((s + k, gated)).or_default().push(t);
            }
            for &(gated, _) in op.unblocks.iter().filter(|(p, _)| matches!(p, Phase::Update(_))) {
                let done = self.gates(s, gated);
                self.emit(s, gated, &done);
            }
        }
    }

    /// Duration of `op` on the network.
    fn price(&self, op: &PlanOp) -> f64 {
        let (cm, bytes) = (&self.cm, op.bytes);
        match op.kind {
            OpKind::GatherTokens | OpKind::AllGatherSparse => cm.allgather(bytes),
            OpKind::AlltoAllDense | OpKind::AlltoAllSparse => cm.alltoall(bytes),
            // Half a ring each: with the update between them free, a
            // unit's two phases price exactly the allreduce they replace.
            OpKind::ReduceScatterDense | OpKind::AllGatherDense => cm.ring_allreduce(bytes) / 2.0,
            OpKind::AllReduceDense => cm.ring_allreduce(bytes),
            OpKind::Ps => cm.ps(bytes, self.servers) * PARALLAX_HOSTCOPY_PENALTY,
            OpKind::PsHierarchical => cm.ps_hierarchical(bytes, self.servers) * BYTEPS_RAM_PENALTY,
        }
    }
}

fn metrics_from(
    result: &SimResult,
    markers: &[TaskId],
    graph: &ModelGraph,
    tokens_per_batch: f64,
    world: f64,
) -> StepMetrics {
    // Steady state: average step duration between the 2nd and last marker.
    let end = |id: &TaskId| result.trace.spans.iter().find(|s| s.task == *id).map(|s| s.end);
    let ends: Vec<f64> = markers.iter().map(|id| end(id).expect("marker task ran")).collect();
    let k = ends.len();
    assert!(k >= 3, "need at least 3 steps for steady state");
    let step_time = (ends[k - 1] - ends[1]) / (k - 2) as f64;
    let compute_time = graph.compute_time();
    StepMetrics {
        step_time,
        compute_time,
        stall: (step_time - compute_time).max(0.0),
        tokens_per_sec: world * tokens_per_batch / step_time,
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
mod lowering_tests {
    use super::*;
    use embrace_simnet::Res;

    #[test]
    fn one_span_per_plan_op_at_its_priority() {
        // One steady step of the 2D schedule, for two embeddings and for
        // one: a comm span per op of the plan, named by its tag and queued
        // at its priority, and no other.
        for model in [ModelId::Gnmt8, ModelId::BertBase] {
            let cfg = SimConfig::new(MethodId::EmbRace, model, Cluster::rtx3090(16));
            let spec = ModelSpec::get(model);
            let (sim, _) = lower(&cfg, &spec, &spec.graph(cfg.cluster.gpu));
            let spans = sim.run().trace.spans;
            let step: Vec<_> =
                spans.iter().filter(|s| s.res == Res::Comm && s.name.starts_with("s3/")).collect();
            let plan = step_plan(&cfg);
            assert_eq!(step.len(), plan.ops.len(), "{model:?}: {step:?}");
            for op in &plan.ops {
                let name = format!("s3/{}", op.tag);
                let found: Vec<_> = step.iter().filter(|s| s.name == name).collect();
                assert_eq!(found.len(), 1, "{model:?} {name}");
                assert_eq!(sim.task(found[0].task).priority, op.priority, "{model:?} {name}");
            }
        }
    }

    #[test]
    fn the_token_prefetch_is_off_the_fp_path() {
        // LM on 16 RTX3090s, in steady state: a step's prefetch of the
        // next batch's ids lands before that batch's embedding FPs, and it
        // becomes ready at the same instant as the step before's prior
        // gradients (both wait on its split), which gate the step's own
        // embedding FPs; the network, which no op preempts, sends the
        // prior gradients first.
        let cfg = SimConfig::new(MethodId::EmbRace, ModelId::Lm, Cluster::rtx3090(16));
        let spec = ModelSpec::get(ModelId::Lm);
        let graph = spec.graph(cfg.cluster.gpu);
        let (sim, _) = lower(&cfg, &spec, &graph);
        let spans = sim.run().trace.spans;
        let span = |name: String| {
            spans.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}"))
        };
        let embeddings = graph.embeddings();
        for k in 1..cfg.steps - 1 {
            let (gathered, prefetch) =
                (span(format!("s{k}/tokens_next")), span(format!("s{}/tokens_next", k + 1)));
            for &e in &embeddings {
                let module = &graph.modules[e].name;
                let fp = span(format!("s{}/fp/{module}", k + 1));
                assert!(gathered.end <= fp.start, "step {k}: {fp:?} before {gathered:?}");
                let prior = span(format!("s{k}/prior_grad{}", suffix(module, embeddings.len())));
                assert!(prior.end <= prefetch.start, "step {k}: {prefetch:?} before {prior:?}");
            }
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

//! The EmbRace step, stated once: [`StepPlan::embrace`] lists, from a
//! [`ModelGraph`], every communication op of one training step in
//! submission order, each with its kind, step-relative tag, §4.2.1
//! priority, bytes, and the compute phases it waits on and unblocks. The
//! toy model of the live trainers is the one-embedding, one-block graph.
//!
//! The live step (`embrace_trainer::real`) takes every tag and priority
//! from the plan and submits in its order; the DES (`embrace_trainer::sim`)
//! lowers it to tasks, pricing a dense unit's two ring phases (the
//! reduce-scatter of its gradient and the all-gather of its weights) at
//! half the allreduce each and the sharded update between them at zero;
//! `verify-plan` builds its schedule plan from it.
//!
//! A step gathers the next batch's token ids (§4.2's prefetcher): its
//! split reads them, and the next step looks them up. Without the split
//! (the Fig. 9 ablations) a step gathers its own batch.
//!
//! Priorities (lower drains first) encode §4.2.1. A step's gather of its
//! own batch goes first: every FP of the step waits on it. Prior
//! gradients are the most urgent gradients, because the next embedding FP
//! waits on them; the embedding-data AlltoAll comes next, because the
//! first dense FP waits on it. The prefetch of the next batch ties with
//! the prior gradients, as it feeds the same FPs, but queues behind them
//! and behind the step's lookups: nothing reads those ids before the
//! split. Dense blocks follow in *FP dependency order*, so each block's
//! weights arrive just before its FP needs them;
//! they are communicated whole, as the paper avoids tensor partitioning
//! and its startup/bandwidth penalties. Delayed gradients go last,
//! overlapping the next iteration, and only the loss gather after them.

use embrace_dlsim::fusion::{assign_buckets, Bucket};
use embrace_dlsim::graph::ModelGraph;
use embrace_tensor::{F32_BYTES, TOKEN_BYTES};

/// Priority of the gather of a step's own batch, which its FPs wait on.
const TOKEN_GATHER_PRIORITY: i64 = -4;
/// Priority of prior embedding gradients (most urgent gradient).
const PRIOR_GRAD_PRIORITY: i64 = -2;
/// Priority of the embedding lookup-result AlltoAll.
const EMB_DATA_PRIORITY: i64 = -1;
/// Priority of the prefetch of the next batch's ids: tied with the prior
/// gradients, which feed the same next-step embedding FPs; a later one
/// would rank an FP the ids feed behind another embedding's. The prior
/// gradients become ready first, at the split the prefetch also waits on.
const TOKEN_PREFETCH_PRIORITY: i64 = PRIOR_GRAD_PRIORITY;
/// Priority of the first dense block in FP order; the blocks after it are
/// numbered on from here.
const DENSE_PRIORITY: i64 = 0;
/// Priority of delayed embedding gradients (least urgent gradient).
const DELAYED_GRAD_PRIORITY: i64 = i64::MAX / 2;
/// Priority of the global-loss gather: after every gradient.
const LOSS_PRIORITY: i64 = i64::MAX - 1;

/// A compute phase of a training step: what a communication op waits on
/// or unblocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The step's start: the previous step's compute has finished.
    Start,
    /// Forward pass of module `m`.
    Fp(usize),
    /// Backward pass of module `m`.
    Bp(usize),
    /// Algorithm 1's prior/delayed split, after the last backward pass.
    Split,
    /// The sharded optimizer step of the dense unit whose last gradient
    /// module `m` produces: between its reduce-scatter and its all-gather.
    Update(usize),
}

/// The collective an op runs. All but the last three are the comm
/// scheduler's `CommOp` kinds; those three are baseline exchanges that
/// only the DES prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    GatherTokens,
    AlltoAllDense,
    ReduceScatterDense,
    AllGatherDense,
    AlltoAllSparse,
    AllReduceDense,
    /// Horovod's sparse-gradient AllGather.
    AllGatherSparse,
    /// Parallax's sparse parameter-server push and pull.
    Ps,
    /// BytePS's node-aggregated parameter-server push and pull.
    PsHierarchical,
}

impl OpKind {
    /// The kind's name, as the comm scheduler's submission log records it.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::GatherTokens => "gather_tokens",
            OpKind::AlltoAllDense => "alltoall_dense",
            OpKind::ReduceScatterDense => "reduce_scatter_dense",
            OpKind::AllGatherDense => "allgather_dense",
            OpKind::AlltoAllSparse => "alltoallv_sparse",
            OpKind::AllReduceDense => "allreduce_dense",
            OpKind::AllGatherSparse => "allgather_sparse",
            OpKind::Ps => "ps",
            OpKind::PsHierarchical => "ps_hierarchical",
        }
    }
}

/// One communication op of a step.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanOp {
    pub kind: OpKind,
    /// Tag relative to the step; the live step prefixes `s{step}/`.
    pub tag: String,
    /// Queue priority (lower drains first).
    pub priority: i64,
    /// This rank's outgoing payload bytes.
    pub bytes: f64,
    /// The phase of its own step the op waits on.
    pub after: Phase,
    /// The phases the op unblocks, each with its step offset: 0 for its
    /// own step, 1 for the next, 2 for the one after.
    pub unblocks: Vec<(Phase, usize)>,
}

/// Embedding-gradient rows one rank exchanges per embedding in a step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GradRows {
    /// Algorithm 1's split of the coalesced gradient: `prior` of its
    /// `coalesced` rows race the next FP, and the rest are delayed.
    Split { coalesced: f64, prior: f64 },
    /// The whole gradient in one exchange at the prior part's urgency,
    /// as the Fig. 9 ablations send it.
    Whole(f64),
}

/// What one rank's step moves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepShapes {
    pub world: usize,
    /// Token ids the rank looks up in each embedding.
    pub tokens: f64,
    /// Columns of each embedding in the rank's shard.
    pub shard_width: f64,
    /// The collective carrying the gradient exchange, and the bytes one
    /// gradient row puts on the rank's wire in it.
    pub grad_exchange: (OpKind, f64),
    pub grad: GradRows,
    /// Horovod-style fusion of the dense plane into buckets of at most
    /// this many bytes; 0 communicates every block whole.
    pub fusion: f64,
}

/// A training step's communication ops, in submission order.
#[derive(Clone, Debug, PartialEq)]
pub struct StepPlan {
    pub ops: Vec<PlanOp>,
}

impl StepPlan {
    /// The EmbRace step of `graph`, as one rank moving `shapes` runs it:
    /// wait-free BP per module (Fig. 5), with the priorities of §4.2.1.
    pub fn embrace(graph: &ModelGraph, shapes: &StepShapes) -> Self {
        use OpKind::*;
        use Phase::{Bp, Fp, Start, Update};
        let embeddings = graph.embeddings();
        let dense = graph.dense_blocks();
        let name =
            |op: &str, e: usize| op.to_string() + &suffix(&graph.modules[e].name, embeddings.len());
        // A unit's priority: its earliest-needed block's place in FP order.
        let prio = |unit: &Bucket| {
            let rank = unit.modules.iter().map(|m| dense.binary_search(m).expect("dense"));
            DENSE_PRIORITY + rank.min().expect("a unit has a block") as i64
        };
        let tokens = embeddings.len() as f64 * shapes.tokens * TOKEN_BYTES as f64;
        let lookup = shapes.tokens * shapes.world as f64 * shapes.shard_width * F32_BYTES as f64;
        let mut plan = StepPlan { ops: Vec::new() };
        for &e in &embeddings {
            let fed = graph.fp_order().filter(|c| graph.modules[*c].inputs.contains(&e));
            let fed = fed.map(|c| (Fp(c), 0));
            plan.push(AlltoAllDense, name("emb_data", e), EMB_DATA_PRIORITY, lookup, Fp(e), fed);
        }
        // One gather of a batch's ids for every embedding: under the split,
        // the next batch's, which the split and then the next step's
        // lookups read, submitted after this step's lookups; otherwise the
        // step's own, moved ahead of the lookups that read it.
        let split = matches!(shapes.grad, GradRows::Split { .. });
        let (tag, priority, k) = if split {
            ("tokens_next", TOKEN_PREFETCH_PRIORITY, 1)
        } else {
            ("tokens", TOKEN_GATHER_PRIORITY, 0)
        };
        let fps = embeddings.iter().map(|&e| (Fp(e), k));
        let gates = split.then_some((Phase::Split, 0)).into_iter().chain(fps);
        plan.push(GatherTokens, tag.into(), priority, tokens, Start, gates);
        if !split {
            plan.ops.rotate_right(1);
        }
        let units = dense_units(graph, shapes.fusion);
        for (suffix, unit) in &units {
            let (tag, last) = (format!("reduce_scatter_w{suffix}"), unit.ready_after());
            plan.push(
                ReduceScatterDense,
                tag,
                prio(unit),
                unit.bytes,
                Bp(last),
                [(Update(last), 0)],
            );
        }
        // The size rule of the gradient exchanges.
        let (kind, row_bytes) = shapes.grad_exchange;
        for &e in &embeddings {
            let next = |k| [(Fp(e), k)];
            match shapes.grad {
                GradRows::Split { coalesced, prior } => {
                    let (prior, all) = (prior * row_bytes, coalesced * row_bytes);
                    let (tag, split) = (name("prior_grad", e), Phase::Split);
                    plan.push(kind, tag, PRIOR_GRAD_PRIORITY, prior, split, next(1));
                    let tag = name("delayed_grad", e);
                    plan.push(kind, tag, DELAYED_GRAD_PRIORITY, all - prior, split, next(2));
                }
                GradRows::Whole(rows) => {
                    let (tag, bytes) = (name("grad_whole", e), rows * row_bytes);
                    plan.push(kind, tag, PRIOR_GRAD_PRIORITY, bytes, Bp(e), next(1));
                }
            }
        }
        for (suffix, unit) in &units {
            let (tag, after) = (format!("allgather_w{suffix}"), Update(unit.ready_after()));
            let fps = unit.modules.iter().map(|&m| (Fp(m), 1));
            plan.push(AllGatherDense, tag, prio(unit), unit.bytes, after, fps);
        }
        // The loss is known once the backward pass is done, and gates nothing.
        let loss = TOKEN_BYTES as f64;
        plan.push(GatherTokens, "loss".into(), LOSS_PRIORITY, loss, Bp(0), []);
        plan
    }

    /// The step's one gather of a batch's token ids: the op that waits on
    /// the step's start.
    pub fn token_gather(&self) -> &PlanOp {
        self.ops.iter().find(|op| op.after == Phase::Start).expect("a step gathers its tokens")
    }

    /// Append an op: `kind`, `tag`, `priority` and `bytes`, waiting on
    /// `after` and unblocking `unblocks`.
    pub fn push(
        &mut self,
        kind: OpKind,
        tag: String,
        priority: i64,
        bytes: f64,
        after: Phase,
        unblocks: impl IntoIterator<Item = (Phase, usize)>,
    ) {
        let unblocks = unblocks.into_iter().collect();
        self.ops.push(PlanOp { kind, tag, priority, bytes, after, unblocks });
    }
}

/// The tag suffix of a per-module op: `/module` where the graph has
/// `several` modules of its kind, and nothing where it has one.
pub fn suffix(module: &str, several: usize) -> String {
    if several > 1 {
        format!("/{module}")
    } else {
        String::new()
    }
}

/// The dense plane's units in BP order, each with its tag suffix: every
/// block whole, as the paper sends them, or Horovod-style fusion buckets
/// of at most `fusion` bytes (0: no fusion).
pub fn dense_units(graph: &ModelGraph, fusion: f64) -> Vec<(String, Bucket)> {
    let dense = graph.bp_order().filter(|&m| !graph.modules[m].is_embedding());
    let sizes: Vec<(usize, f64)> =
        dense.map(|m| (m, (graph.modules[m].params() * F32_BYTES) as f64)).collect();
    let units = assign_buckets(&sizes, fusion);
    let name = |b: usize, unit: &Bucket| match unit.modules[..] {
        [m] => graph.modules[m].name.clone(),
        _ => format!("fused{b}"),
    };
    let several = units.len();
    let names: Vec<String> =
        units.iter().enumerate().map(|(b, u)| suffix(&name(b, u), several)).collect();
    names.into_iter().zip(units).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ModelGraph {
        ModelGraph::translation((10, 4), (10, 4), 2, 2, 8, 0.1, 0.1, 0.1, 0.1)
    }

    fn shapes(grad: GradRows) -> StepShapes {
        let grad_exchange = (OpKind::AlltoAllSparse, 24.0);
        StepShapes { world: 2, tokens: 6.0, shard_width: 2.0, grad_exchange, grad, fusion: 0.0 }
    }

    fn find<'a>(plan: &'a StepPlan, tag: &str) -> &'a PlanOp {
        plan.ops.iter().find(|op| op.tag == tag).unwrap_or_else(|| panic!("no {tag}"))
    }

    #[test]
    fn dense_blocks_numbered_in_fp_order() {
        // Modules: 0=enc_emb, 1..2=enc blocks, 3=dec_emb, 4..5=dec blocks.
        let plan =
            StepPlan::embrace(&graph(), &shapes(GradRows::Split { coalesced: 5.0, prior: 2.0 }));
        for (blk, want) in [("enc_blk0", 0), ("enc_blk1", 1), ("dec_blk0", 2), ("dec_blk1", 3)] {
            for op in ["reduce_scatter_w", "allgather_w"] {
                assert_eq!(find(&plan, &format!("{op}/{blk}")).priority, want, "{op}/{blk}");
            }
        }
    }

    #[test]
    fn plan_lists_every_op_once_with_its_gates() {
        let plan =
            StepPlan::embrace(&graph(), &shapes(GradRows::Split { coalesced: 5.0, prior: 2.0 }));
        // One gather of the next batch's ids for both embeddings, 2
        // embeddings × 3 ops (data, prior, delayed), 4 blocks × 2 ring
        // phases, the loss.
        assert_eq!(plan.ops.len(), 1 + 2 * 3 + 4 * 2 + 1);
        // Submitted after both lookups, which it must not hold up.
        let tokens = plan.token_gather();
        let gates = [(Phase::Split, 0), (Phase::Fp(0), 1), (Phase::Fp(3), 1)];
        assert_eq!(
            (tokens.tag.as_str(), tokens.bytes, tokens.priority, &tokens.unblocks[..]),
            ("tokens_next", 48.0, TOKEN_PREFETCH_PRIORITY, &gates[..])
        );
        assert_eq!(plan.ops[2].tag, "tokens_next");
        let prior = find(&plan, "prior_grad/dec_emb");
        assert_eq!(
            (prior.bytes, prior.after, &prior.unblocks[..]),
            (48.0, Phase::Split, &[(Phase::Fp(3), 1)][..])
        );
        let delayed = find(&plan, "delayed_grad/enc_emb");
        assert_eq!((delayed.bytes, &delayed.unblocks[..]), (72.0, &[(Phase::Fp(0), 2)][..]));
        // The lookup feeds the embedding's consumer: 2 ranks' 6 tokens x 2 columns.
        let data = find(&plan, "emb_data/dec_emb");
        assert_eq!((data.bytes, &data.unblocks[..]), (96.0, &[(Phase::Fp(4), 0)][..]));
        let gather = find(&plan, "allgather_w/dec_blk1");
        assert_eq!(
            (gather.after, &gather.unblocks[..]),
            (Phase::Update(5), &[(Phase::Fp(5), 1)][..])
        );
        assert_eq!(find(&plan, "reduce_scatter_w/dec_blk1").bytes, 32.0);
    }

    #[test]
    fn whole_gradient_drops_the_split() {
        let plan = StepPlan::embrace(&graph(), &shapes(GradRows::Whole(7.0)));
        assert!(plan.ops.iter().all(|op| op.after != Phase::Split));
        // One gather, of the step's own batch, first: it gates this step's
        // FPs.
        let gathers = plan.ops.iter().filter(|op| op.kind == OpKind::GatherTokens);
        assert_eq!(gathers.count(), 2, "the batch's ids and the loss");
        let tokens = plan.token_gather();
        let both_fps = [(Phase::Fp(0), 0), (Phase::Fp(3), 0)];
        assert_eq!(
            (tokens.tag.as_str(), tokens.bytes, tokens.priority, &tokens.unblocks[..]),
            ("tokens", 48.0, TOKEN_GATHER_PRIORITY, &both_fps[..])
        );
        assert_eq!(plan.ops[0].tag, "tokens");
        let whole = find(&plan, "grad_whole/enc_emb");
        assert_eq!(
            (whole.bytes, whole.priority, whole.after),
            (168.0, PRIOR_GRAD_PRIORITY, Phase::Bp(0))
        );
    }

    #[test]
    fn fusion_buckets_take_their_earliest_blocks_priority() {
        let shapes = StepShapes { fusion: 64.0, ..shapes(GradRows::Whole(1.0)) };
        let plan = StepPlan::embrace(&graph(), &shapes);
        // 32-byte blocks in BP order 5, 4, 2, 1: two buckets of two.
        let fused: Vec<(&str, i64, f64)> = plan
            .ops
            .iter()
            .filter(|op| op.kind == OpKind::ReduceScatterDense)
            .map(|op| (op.tag.as_str(), op.priority, op.bytes))
            .collect();
        assert_eq!(
            fused,
            [("reduce_scatter_w/fused0", 2, 64.0), ("reduce_scatter_w/fused1", 0, 64.0)]
        );
    }
}

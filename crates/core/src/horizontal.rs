//! Block-level Horizontal Scheduling (§4.2.1): priority assignment.
//!
//! Communication operations drain from a single priority queue (lower
//! value first). The ordering encodes the paper's rules:
//!
//! * prior sparse gradients are most urgent — the next embedding FP waits
//!   on them;
//! * the embedding-data AlltoAll (lookup-result redistribution) comes
//!   next — the first dense FP waits on it;
//! * dense blocks are prioritised in *FP dependency order*, so each
//!   block's gradients arrive just before its FP needs the updated
//!   parameters (blocks are communicated whole — the paper deliberately
//!   avoids tensor partitioning and its startup/bandwidth penalties);
//! * delayed sparse gradients go last, overlapping the next iteration.
//!
//! The constants below are every priority the live EmbRace step
//! (`embrace_trainer::real`) submits to its comm scheduler.

use embrace_dlsim::graph::ModelGraph;

/// Priority of the token AllGathers (this batch's and the next one's):
/// scheduling metadata, cheap and needed before anything else, like the
/// prefetch itself.
pub const TOKEN_GATHER_PRIORITY: i64 = -4;
/// Priority of prior embedding gradients (most urgent gradient).
pub const PRIOR_GRAD_PRIORITY: i64 = -2;
/// Priority of the embedding lookup-result AlltoAll.
pub const EMB_DATA_PRIORITY: i64 = -1;
/// Priority of the first dense block in FP order ([`Priorities::assign`]
/// numbers the blocks from here); the toy model's one dense gradient.
pub const DENSE_PRIORITY: i64 = 0;
/// Priority of the dense weights' all-gather after the sharded update: the
/// block's own, since its next FP waits on the weights as this step waited
/// on their gradient — ahead of the delayed gradients and the loss.
pub const DENSE_GATHER_PRIORITY: i64 = DENSE_PRIORITY;
/// Priority of delayed embedding gradients (least urgent gradient).
pub const DELAYED_GRAD_PRIORITY: i64 = i64::MAX / 2;
/// Priority of the global-loss gather: after every gradient.
pub const LOSS_PRIORITY: i64 = i64::MAX - 1;

/// The communication operations EmbRace schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// AllReduce of one dense block's gradients (block index).
    DenseBlock(usize),
    /// AlltoAll of one embedding's lookup results (embedding module index).
    EmbData(usize),
    /// AlltoAll of one embedding's prior gradients.
    PriorGrad(usize),
    /// AlltoAll of one embedding's delayed gradients.
    DelayedGrad(usize),
}

/// Priority assignment for a model graph.
#[derive(Clone, Debug)]
pub struct Priorities {
    /// Dense-block priority by module index (0 = first in FP order).
    dense: Vec<Option<i64>>,
    /// Embedding module indices, in FP order.
    embeddings: Vec<usize>,
}

impl Priorities {
    /// Assign priorities per §4.2.1: dense blocks numbered in FP order.
    pub fn assign(graph: &ModelGraph) -> Self {
        let mut dense = vec![None; graph.len()];
        let mut embeddings = Vec::new();
        let mut next = DENSE_PRIORITY;
        for i in graph.fp_order() {
            if graph.modules[i].is_embedding() {
                embeddings.push(i);
            } else {
                dense[i] = Some(next);
                next += 1;
            }
        }
        Priorities { dense, embeddings }
    }

    /// Embedding module indices in FP order.
    pub fn embedding_modules(&self) -> &[usize] {
        &self.embeddings
    }

    /// The full horizontal schedule of one training step: every
    /// communication operation the 2D schedule emits, paired with its
    /// priority, in ascending priority order (the order the scheduler's
    /// queue would drain them when all are pending). This is the schedule
    /// plan `embrace-analyzer`'s static verifier checks for priority
    /// monotonicity and SPMD consistency — built without touching any
    /// transport.
    pub fn schedule_ops(&self) -> Vec<(CommKind, i64)> {
        let mut ops = Vec::new();
        for &e in &self.embeddings {
            ops.push((CommKind::PriorGrad(e), self.of(CommKind::PriorGrad(e))));
            ops.push((CommKind::EmbData(e), self.of(CommKind::EmbData(e))));
        }
        for (m, p) in self.dense.iter().enumerate() {
            if p.is_some() {
                ops.push((CommKind::DenseBlock(m), self.of(CommKind::DenseBlock(m))));
            }
        }
        for &e in &self.embeddings {
            ops.push((CommKind::DelayedGrad(e), self.of(CommKind::DelayedGrad(e))));
        }
        ops.sort_by_key(|&(_, p)| p);
        ops
    }

    /// Priority value of a communication operation.
    pub fn of(&self, kind: CommKind) -> i64 {
        match kind {
            CommKind::PriorGrad(_) => PRIOR_GRAD_PRIORITY,
            CommKind::EmbData(_) => EMB_DATA_PRIORITY,
            CommKind::DelayedGrad(_) => DELAYED_GRAD_PRIORITY,
            CommKind::DenseBlock(m) => self.dense[m].expect("module is not a dense block"),
        }
    }

    /// Number of prioritised dense blocks.
    pub fn n_dense(&self) -> usize {
        self.dense.iter().filter(|d| d.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ModelGraph {
        ModelGraph::translation((10, 4), (10, 4), 2, 2, 8, 0.1, 0.1, 0.1, 0.1)
    }

    #[test]
    fn dense_blocks_numbered_in_fp_order() {
        // Modules: 0=enc_emb, 1..2=enc blocks, 3=dec_emb, 4..5=dec blocks.
        let p = Priorities::assign(&graph());
        assert_eq!(p.of(CommKind::DenseBlock(1)), 0);
        assert_eq!(p.of(CommKind::DenseBlock(2)), 1);
        assert_eq!(p.of(CommKind::DenseBlock(4)), 2);
        assert_eq!(p.of(CommKind::DenseBlock(5)), 3);
        assert_eq!(p.n_dense(), 4);
    }

    #[test]
    fn sparse_ops_bracket_dense_ops() {
        let p = Priorities::assign(&graph());
        let prior = p.of(CommKind::PriorGrad(0));
        let data = p.of(CommKind::EmbData(0));
        let first_dense = p.of(CommKind::DenseBlock(1));
        let last_dense = p.of(CommKind::DenseBlock(5));
        let delayed = p.of(CommKind::DelayedGrad(0));
        assert!(prior < data, "prior gradients beat embedding data");
        assert!(data < first_dense, "embedding data beats all dense blocks");
        assert!(last_dense < delayed, "delayed gradients come last");
    }

    #[test]
    fn schedule_ops_is_sorted_and_complete() {
        let p = Priorities::assign(&graph());
        let ops = p.schedule_ops();
        // 2 embeddings × 3 sparse ops + 4 dense blocks = 10 ops.
        assert_eq!(ops.len(), 10);
        assert!(ops.windows(2).all(|w| w[0].1 <= w[1].1), "ascending priorities");
        assert!(matches!(ops[0].0, CommKind::PriorGrad(_)));
        assert!(matches!(ops.last().unwrap().0, CommKind::DelayedGrad(_)));
        assert_eq!(p.embedding_modules(), &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "not a dense block")]
    fn embedding_module_has_no_dense_priority() {
        let p = Priorities::assign(&graph());
        p.of(CommKind::DenseBlock(0));
    }
}

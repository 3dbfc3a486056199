//! Sparsity-aware Hybrid Communication — the functional embedding plane.
//!
//! The full embedding table is column-wise partitioned before training
//! (§4.1.1). Each step:
//!
//! 1. every worker looks up *all* workers' batch tokens against its column
//!    shard, producing one dense block per destination;
//! 2. **AlltoAll #1** redistributes lookup results: worker `j` assembles
//!    its own batch's full-width embedding output from the received
//!    column blocks;
//! 3. dense FP/BP runs; worker `j` ends with `∂loss/∂(lookup output)`;
//! 4. **AlltoAll #2** exchanges sparse gradients: worker `j` slices its
//!    output gradient into column blocks and sends each to the owning
//!    shard, which coalesces and applies the update.
//!
//! With Vertical Sparse Scheduling, step 4 happens twice — once for the
//! prior rows, once for the delayed rows — and the optimizer is told which
//! part it is applying ([`UpdatePart`]).
//!
//! Each exchange is two local halves around one collective: the embedding
//! builds the [`CommOp`] and finishes that op's [`CommResult`]. A comm
//! scheduler runs the op between them in the training step;
//! [`ColumnShardedEmbedding::forward`] and
//! [`ColumnShardedEmbedding::exchange_grad_part`] run it whole. The
//! gradient always rides the AlltoAllv:
//! `embrace_collectives::ops::sparse_allreduce` (an allgather and a
//! merge) is a standalone op that no step selects.

use crate::horizontal::{GradRows, OpKind, StepShapes};
use embrace_collectives::{Comm, CommError, CommOp, CommResult};
use embrace_dlsim::optim::{Optimizer, UpdatePart};
use embrace_dlsim::EmbeddingTable;
use embrace_tensor::{
    coalesce, column_partition, ColumnRange, DenseTensor, RowSparse, F32_BYTES, INDEX_BYTES,
};

/// Unwrap a panicking wrapper's result with the typed [`CommError`]
/// rendered, as the `embrace_collectives::ops` wrappers do.
fn finish<T>(result: Result<T, CommError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("collective failed: {e}"),
    }
}

/// One worker's column shard of an embedding table, with the AlltoAll
/// forward/backward protocol.
#[derive(Clone, Debug)]
pub struct ColumnShardedEmbedding {
    shard: EmbeddingTable,
    ranges: Vec<ColumnRange>,
    dim_total: usize,
}

impl ColumnShardedEmbedding {
    /// Carve worker `rank`'s shard out of the full `vocab × dim` table.
    /// Every worker must construct from the same `full` table.
    pub fn new(full: &DenseTensor, rank: usize, world: usize) -> Self {
        let r = column_partition(full.cols(), world)[rank];
        Self::from_shard(full.slice_columns(r.start, r.end), rank, world, full.cols())
    }

    /// Worker `rank`'s shard, already cut: column range `rank` of a
    /// `dim_total`-wide table split over `world` workers.
    pub fn from_shard(shard: DenseTensor, rank: usize, world: usize, dim_total: usize) -> Self {
        let ranges = column_partition(dim_total, world);
        assert_eq!(shard.cols(), ranges[rank].width(), "shard width must match its column range");
        ColumnShardedEmbedding { shard: EmbeddingTable::from_table(shard), ranges, dim_total }
    }

    pub fn vocab(&self) -> usize {
        self.shard.vocab()
    }

    /// Width of this worker's column range.
    pub fn shard_dim(&self) -> usize {
        self.shard.dim()
    }

    /// Full embedding dimension.
    pub fn dim_total(&self) -> usize {
        self.dim_total
    }

    /// This worker's column shard (vocab × shard_dim).
    pub fn shard_table(&self) -> &DenseTensor {
        self.shard.table()
    }

    /// Forward: given every rank's batch tokens (`all_tokens[r]`), perform
    /// the local lookups and AlltoAll #1; returns this rank's full-width
    /// lookup output for its own batch. Panics on a communication failure.
    pub fn forward<C: Comm, T: AsRef<[u32]>>(&self, ep: &mut C, all_tokens: &[T]) -> DenseTensor {
        assert_eq!(all_tokens.len(), ep.world(), "need every rank's tokens");
        finish(self.lookup_op(all_tokens).try_run(ep).and_then(Self::finish_lookup))
    }

    /// The local half of the forward pass: AlltoAll #1 of one dense block
    /// per destination rank, its batch looked up against my column shard.
    pub fn lookup_op<T: AsRef<[u32]>>(&self, all_tokens: &[T]) -> CommOp {
        CommOp::AlltoAllDense(all_tokens.iter().map(|t| self.shard.lookup(t.as_ref())).collect())
    }

    /// This rank's full-width lookup output, reassembled from the column
    /// blocks AlltoAll #1 delivered (indexed by source rank == column
    /// order); a failed exchange's typed error otherwise.
    pub fn finish_lookup(result: CommResult) -> Result<DenseTensor, CommError> {
        match result.into_result()? {
            CommResult::AlltoAllDense(blocks) => Ok(DenseTensor::concat_columns(&blocks)),
            _ => unreachable!("AlltoAll #1 finished with another op's result"),
        }
    }

    /// Exchange a full-width gradient part (AlltoAll #2) and return the
    /// coalesced gradient for *this* worker's shard (full-vocab row ids,
    /// shard-width values): the raw output gradient, or Vertical
    /// Scheduling's `G_p` or `G_d`. Panics on a communication failure.
    pub fn exchange_grad_part<C: Comm>(&self, ep: &mut C, part: &RowSparse) -> RowSparse {
        finish(self.grad_op(part).try_run(ep).and_then(|r| self.finish_grad(r)))
    }

    /// The local half of a gradient exchange (AlltoAll #2) of a full-width
    /// gradient part: the part sliced into one column block per
    /// destination shard.
    pub fn grad_op(&self, part: &RowSparse) -> CommOp {
        assert_eq!(part.dim(), self.dim_total, "part must be full width");
        let blocks = self.ranges.iter().map(|r| part.slice_columns(r.start, r.end));
        CommOp::AlltoAllSparse(blocks.collect())
    }

    /// What one step moves for this shard: `tokens` ids looked up in it and
    /// `grad`'s gradient rows exchanged, one column slice and its row index
    /// per destination shard.
    pub fn step_shapes(&self, tokens: usize, grad: GradRows) -> StepShapes {
        let world = self.ranges.len();
        let row_bytes = self.dim_total * F32_BYTES + world * INDEX_BYTES;
        StepShapes {
            world,
            tokens: tokens as f64,
            shard_width: self.shard_dim() as f64,
            grad_exchange: (OpKind::AlltoAllSparse, row_bytes as f64),
            grad,
            fusion: 0.0,
        }
    }

    /// This shard's coalesced gradient from a [`Self::grad_op`]'s result
    /// (full-vocab row ids, shard-width values); a failed exchange's typed
    /// error otherwise.
    pub fn finish_grad(&self, result: CommResult) -> Result<RowSparse, CommError> {
        match result.into_result()? {
            CommResult::AlltoAllSparse(shards) => Ok(coalesce(&RowSparse::concat(&shards))),
            _ => unreachable!("AlltoAll #2 finished with another op's result"),
        }
    }

    /// Apply a shard-width gradient (as returned by
    /// [`Self::exchange_grad_part`] or [`Self::finish_grad`]) to the local
    /// shard.
    pub fn apply_grad(&mut self, grad: &RowSparse, opt: &mut dyn Optimizer, part: UpdatePart) {
        assert_eq!(grad.dim(), self.shard_dim(), "gradient width must match shard");
        opt.step_sparse(self.shard.table_mut(), grad, part);
    }

    /// Reassemble the full table from every worker's shard (testing and
    /// checkpoint export).
    pub fn assemble_full(shards: &[&ColumnShardedEmbedding]) -> DenseTensor {
        let blocks: Vec<DenseTensor> = shards.iter().map(|s| s.shard.table().clone()).collect();
        DenseTensor::concat_columns(&blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_collectives::run_group;
    use embrace_dlsim::optim::Sgd;
    use rand::{rngs::StdRng, SeedableRng};

    fn full_table(vocab: usize, dim: usize) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(99);
        DenseTensor::uniform(vocab, dim, 1.0, &mut rng)
    }

    #[test]
    fn forward_matches_replicated_lookup() {
        let full = full_table(20, 8);
        let batches: Vec<Vec<u32>> = vec![vec![1, 3, 3], vec![0, 19], vec![7, 7, 7, 2]];
        let full2 = full.clone();
        let batches2 = batches.clone();
        let out = run_group(3, move |rank, ep| {
            let emb = ColumnShardedEmbedding::new(&full2, rank, 3);
            emb.forward(ep, &batches2)
        });
        let reference = EmbeddingTable::from_table(full);
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &reference.lookup(&batches[rank]), "rank {rank}");
        }
    }

    #[test]
    fn backward_applies_same_update_as_replicated() {
        // Hybrid AlltoAll training must equal a replicated table updated
        // with the *sum* of all workers' gradients (synchronous DP).
        let vocab = 12;
        let dim = 6;
        let world = 3;
        let full = full_table(vocab, dim);
        let batches: Vec<Vec<u32>> = vec![vec![1, 3, 3], vec![0, 11, 3], vec![7, 1]];
        let lr = 0.1_f32;

        // Reference: replicated table, summed gradient, SGD.
        let mut reference = full.clone();
        {
            let mut summed = Vec::new();
            for b in &batches {
                // d(loss)/d(out) = all ones.
                summed.push(RowSparse::new(b.clone(), DenseTensor::full(b.len(), dim, 1.0)));
            }
            let g = coalesce(&RowSparse::concat(&summed));
            Sgd::new(lr).step_sparse(&mut reference, &g, UpdatePart::Whole);
        }

        // Hybrid: each worker exchanges and applies its shard.
        let full2 = full.clone();
        let batches2 = batches.clone();
        let shards = run_group(world, move |rank, ep| {
            let mut emb = ColumnShardedEmbedding::new(&full2, rank, world);
            let my = &batches2[rank];
            let grad_out = DenseTensor::full(my.len(), dim, 1.0);
            let shard_grad = emb.exchange_grad_part(ep, &RowSparse::new(my.clone(), grad_out));
            let mut opt = Sgd::new(lr);
            emb.apply_grad(&shard_grad, &mut opt, UpdatePart::Whole);
            emb
        });
        let refs: Vec<&ColumnShardedEmbedding> = shards.iter().collect();
        let assembled = ColumnShardedEmbedding::assemble_full(&refs);
        assert!(assembled.approx_eq(&reference, 1e-6));
    }

    #[test]
    fn split_exchange_equals_single_exchange() {
        // Prior+delayed exchange must deliver the same shard gradient as
        // one whole exchange.
        use crate::vertical::vertical_split;
        let vocab = 10;
        let dim = 4;
        let world = 2;
        let full = full_table(vocab, dim);
        let batches: Vec<Vec<u32>> = vec![vec![1, 2, 2, 5], vec![5, 9]];
        let next: Vec<u32> = vec![2, 9]; // next-iteration tokens (gathered)

        let full2 = full.clone();
        let batches2 = batches.clone();
        let got = run_group(world, move |rank, ep| {
            let emb = ColumnShardedEmbedding::new(&full2, rank, world);
            let my = &batches2[rank];
            let grad_out = DenseTensor::full(my.len(), dim, 0.5);
            let raw = RowSparse::new(my.clone(), grad_out.clone());
            let split = vertical_split(&raw, my, &next);
            let prior = emb.exchange_grad_part(ep, &split.prior);
            let delayed = emb.exchange_grad_part(ep, &split.delayed);
            let whole = emb.exchange_grad_part(ep, &raw);
            (prior, delayed, whole)
        });
        for (prior, delayed, whole) in got {
            let merged = coalesce(&RowSparse::concat(&[prior, delayed]));
            assert_eq!(merged, whole);
        }
    }

    #[test]
    fn shard_dims_cover_table() {
        let full = full_table(5, 10);
        let shards: Vec<ColumnShardedEmbedding> =
            (0..3).map(|r| ColumnShardedEmbedding::new(&full, r, 3)).collect();
        let total: usize = shards.iter().map(ColumnShardedEmbedding::shard_dim).sum();
        assert_eq!(total, 10);
        let refs: Vec<&ColumnShardedEmbedding> = shards.iter().collect();
        assert_eq!(ColumnShardedEmbedding::assemble_full(&refs), full);
    }
}

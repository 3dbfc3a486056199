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
//! builds the [`CommOp`] (for the gradient, on its [`GradPlane`]) and
//! finishes that op's [`CommResult`]. A comm scheduler runs the op between
//! them in the training step; [`ColumnShardedEmbedding::forward`] and
//! [`ColumnShardedEmbedding::exchange_grad_part`] run it whole.

use crate::horizontal::{GradRows, OpKind, StepShapes};
use crate::partition::column_payload_matrix;
use embrace_collectives::ops::{SparseReduced, SsarConfig};
use embrace_collectives::{Comm, CommError, CommOp, CommResult};
use embrace_dlsim::optim::{Optimizer, UpdatePart};
use embrace_dlsim::EmbeddingTable;
use embrace_simnet::CostModel;
use embrace_tensor::{
    coalesce, column_partition, ColumnRange, DenseTensor, RowSparse, F32_BYTES, INDEX_BYTES,
};

/// Which collective carries a gradient exchange (AlltoAll #2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GradPlane {
    /// The paper's hybrid plane: slice per-shard column blocks and
    /// AlltoAllv them to the owning shards.
    #[default]
    Alltoallv,
    /// Sparse-native allreduce (SparCML SSAR) of the full-width gradient;
    /// every rank then slices its own column range out of the global sum.
    SparseAllreduce,
}

/// Rank-invariant dispatch policy for the embedding-gradient plane.
///
/// Both planes are collectives, so every rank of a group must pick the
/// same one: the plane is resolved **once**, from configuration shared by
/// all ranks (either a hand-picked [`GradPlane`] or the simnet cost
/// crossover via [`GradPlanePolicy::from_cost`]) — never from per-rank
/// gradient contents, which differ across ranks and would wedge the
/// group on mismatched collectives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradPlanePolicy {
    /// The plane every exchange of this run rides.
    pub plane: GradPlane,
    /// Representation-switch density forwarded to [`SsarConfig`] when the
    /// sparse-native plane carries the exchange; values above `1.0` keep
    /// the index–value representation throughout.
    pub crossover: f64,
}

impl Default for GradPlanePolicy {
    fn default() -> Self {
        GradPlanePolicy { plane: GradPlane::Alltoallv, crossover: SSAR_NEVER_DENSIFY }
    }
}

/// A crossover density above 1.0: the SSAR stream never densifies, so the
/// reduced gradient keeps the row set the AlltoAllv plane would deliver.
const SSAR_NEVER_DENSIFY: f64 = 1.5;

impl GradPlanePolicy {
    /// Pin the plane explicitly (the default policy is hybrid AlltoAllv).
    pub fn fixed(plane: GradPlane) -> Self {
        GradPlanePolicy { plane, ..Self::default() }
    }

    /// Resolve the plane from the simnet cost model: price one exchange of
    /// `batch_rows` gradient rows per rank, both as the column-block
    /// AlltoAllv (`column_payload_matrix`) and as the sparse-native
    /// allreduce at per-rank density `batch_rows / vocab`, and take the
    /// cheaper. Deterministic in `(model, vocab, dim_total, batch_rows)`,
    /// so ranks constructing from the same config always agree.
    pub fn from_cost(model: &CostModel, vocab: usize, dim_total: usize, batch_rows: usize) -> Self {
        let world = model.cluster.world();
        let a2a = model.alltoallv(&column_payload_matrix(&vec![batch_rows; world], dim_total));
        let delta = (batch_rows as f64 / vocab as f64).min(1.0);
        let ssar =
            model.sparse_allreduce(delta, vocab as f64, dim_total as f64, SSAR_NEVER_DENSIFY);
        let plane = if ssar < a2a { GradPlane::SparseAllreduce } else { GradPlane::Alltoallv };
        GradPlanePolicy { plane, crossover: SSAR_NEVER_DENSIFY }
    }
}

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
    rank: usize,
    dim_total: usize,
    policy: GradPlanePolicy,
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
        ColumnShardedEmbedding {
            shard: EmbeddingTable::from_table(shard),
            ranges,
            rank,
            dim_total,
            policy: GradPlanePolicy::default(),
        }
    }

    /// Builder: route gradient exchanges per `policy` (every rank of the
    /// group must install the same policy — see [`GradPlanePolicy`]).
    pub fn with_policy(mut self, policy: GradPlanePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The installed gradient-plane policy.
    pub fn policy(&self) -> GradPlanePolicy {
        self.policy
    }

    pub fn rank(&self) -> usize {
        self.rank
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

    /// Exchange a full-width gradient part (AlltoAll #2, on the installed
    /// [`GradPlanePolicy`]'s plane) and return the coalesced gradient for
    /// *this* worker's shard (full-vocab row ids, shard-width values): the
    /// raw output gradient, or Vertical Scheduling's `G_p` or `G_d`. Panics
    /// on a communication failure.
    pub fn exchange_grad_part<C: Comm>(&self, ep: &mut C, part: &RowSparse) -> RowSparse {
        finish(self.grad_op(part).try_run(ep).and_then(|r| self.finish_grad(r)))
    }

    /// The local half of a gradient exchange (AlltoAll #2) of a full-width
    /// gradient part, on the installed [`GradPlanePolicy`]'s plane: the
    /// part sliced into one column block per destination shard, or the
    /// whole part for the sparse-native allreduce.
    pub fn grad_op(&self, part: &RowSparse) -> CommOp {
        assert_eq!(part.dim(), self.dim_total, "part must be full width");
        if self.policy.plane == GradPlane::SparseAllreduce {
            let cfg = SsarConfig { vocab: self.shard.vocab(), crossover: self.policy.crossover };
            return CommOp::SparseAllreduce(part.share(), cfg);
        }
        let blocks = self.ranges.iter().map(|r| part.slice_columns(r.start, r.end));
        CommOp::AlltoAllSparse(blocks.collect())
    }

    /// What one step moves for this shard: `tokens` ids looked up in it and
    /// `grad`'s gradient rows exchanged on the installed plane, one column
    /// slice and its row index per destination shard, or the full-width row
    /// and its index once.
    pub fn step_shapes(&self, tokens: usize, grad: GradRows) -> StepShapes {
        let (values, world) = (self.dim_total * F32_BYTES, self.ranges.len());
        let (kind, row_bytes) = match self.policy.plane {
            GradPlane::Alltoallv => (OpKind::AlltoAllSparse, values + world * INDEX_BYTES),
            GradPlane::SparseAllreduce => (OpKind::SparseAllreduce, values + INDEX_BYTES),
        };
        StepShapes {
            world,
            tokens: tokens as f64,
            shard_width: self.shard_dim() as f64,
            grad_exchange: (kind, row_bytes as f64),
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
            CommResult::SparseAllreduce(reduced) => Ok(self.slice_reduced(reduced)),
            _ => unreachable!("AlltoAll #2 finished with another op's result"),
        }
    }

    /// Slice this rank's column range out of a globally-reduced full-width
    /// gradient. The sparse result carries the union of every rank's rows —
    /// the same row set the AlltoAllv plane coalesces. A densified result
    /// keeps rows with any nonzero full-width value: a summed row of exact
    /// zeros is indistinguishable from an untouched one, and applying it
    /// would be a no-op either way.
    fn slice_reduced(&self, reduced: SparseReduced) -> RowSparse {
        let r = self.ranges[self.rank];
        match reduced {
            SparseReduced::Sparse(s) => s.slice_columns(r.start, r.end),
            SparseReduced::Dense(d) => {
                let keep: Vec<u32> = (0..d.rows())
                    .filter(|&i| d.row(i).iter().any(|&x| x != 0.0))
                    .map(|i| i as u32)
                    .collect();
                RowSparse::new(keep.clone(), d.gather_rows(&keep).slice_columns(r.start, r.end))
            }
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
    fn ssar_plane_delivers_the_alltoallv_gradient() {
        // Same exchange, either plane: identical row set, values equal up
        // to the summation-order difference between the destination's
        // stable coalesce and SSAR's tree reduction.
        for world in [1, 2, 3, 4] {
            let vocab = 16;
            let dim = 6;
            let full = full_table(vocab, dim);
            let got = run_group(world, move |rank, ep| {
                let a2a = ColumnShardedEmbedding::new(&full, rank, world);
                let ssar = ColumnShardedEmbedding::new(&full, rank, world)
                    .with_policy(GradPlanePolicy::fixed(GradPlane::SparseAllreduce));
                // Duplicate, rank-skewed rows; values vary per position.
                let rows: Vec<u32> =
                    vec![rank as u32, (rank as u32 + 3) % vocab as u32, rank as u32];
                let vals = DenseTensor::from_vec(
                    rows.len(),
                    dim,
                    (0..rows.len() * dim).map(|i| 0.25 * (i + rank + 1) as f32).collect(),
                );
                let part = RowSparse::new(rows, vals);
                (a2a.exchange_grad_part(ep, &part), ssar.exchange_grad_part(ep, &part))
            });
            for (rank, (a, s)) in got.into_iter().enumerate() {
                assert_eq!(a.indices(), s.indices(), "row set diverged: rank {rank}");
                assert!(
                    a.values().approx_eq(s.values(), 1e-5),
                    "values diverged: rank {rank} world {world}"
                );
            }
        }
    }

    #[test]
    fn densified_ssar_plane_still_matches() {
        // crossover 0.0 forces the dense representation from step 0, so
        // the Dense-result slice path (nonzero-row recovery) is exercised.
        let world = 4;
        let vocab = 12;
        let dim = 8;
        let full = full_table(vocab, dim);
        let got = run_group(world, move |rank, ep| {
            let a2a = ColumnShardedEmbedding::new(&full, rank, world);
            let mut policy = GradPlanePolicy::fixed(GradPlane::SparseAllreduce);
            policy.crossover = 0.0;
            let ssar = ColumnShardedEmbedding::new(&full, rank, world).with_policy(policy);
            let rows: Vec<u32> = vec![2 * rank as u32, 2 * rank as u32 + 1];
            let part = RowSparse::new(rows.clone(), DenseTensor::full(rows.len(), dim, 1.5));
            (a2a.exchange_grad_part(ep, &part), ssar.exchange_grad_part(ep, &part))
        });
        for (a, s) in got {
            assert_eq!(a.indices(), s.indices());
            assert!(a.values().approx_eq(s.values(), 1e-5));
        }
    }

    #[test]
    fn policy_resolution_agrees_with_the_raw_cost_comparison() {
        // `from_cost` must pick exactly the argmin of the two priced
        // collectives for every batch size — the dispatch IS the cost
        // crossover, not an approximation of it.
        use embrace_simnet::Cluster;
        let model = CostModel::new(Cluster::rtx3090(8));
        let vocab = 100_000;
        let dim = 64;
        let world = model.cluster.world();
        let mut planes = std::collections::BTreeSet::new();
        for rows in [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536] {
            let a2a = model.alltoallv(&column_payload_matrix(&vec![rows; world], dim));
            let ssar = model.sparse_allreduce(
                (rows as f64 / vocab as f64).min(1.0),
                vocab as f64,
                dim as f64,
                1.5,
            );
            let picked = GradPlanePolicy::from_cost(&model, vocab, dim, rows).plane;
            let cheaper =
                if ssar < a2a { GradPlane::SparseAllreduce } else { GradPlane::Alltoallv };
            assert_eq!(picked, cheaper, "rows {rows}: a2a {a2a:.3e} ssar {ssar:.3e}");
            planes.insert(format!("{picked:?}"));
        }
        // The sweep must actually cross: both planes get picked somewhere.
        assert_eq!(planes.len(), 2, "no crossover in sweep: {planes:?}");
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

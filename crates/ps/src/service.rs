//! The sharded embedding service: batched lookup/push RPCs over collectives.
//!
//! One `EmbeddingService` instance runs per rank of an SPMD group; rank
//! `r` *is* shard `r` (server and worker colocated, the DGL
//! `DistEmbedding` arrangement). The table never exists materialised in
//! one place — each rank holds only the rows its [`PartitionBook`] assigns
//! it, plus the per-row optimizer state for exactly those rows.
//!
//! **Lookup** is two collectives deep: requests scatter to their owning
//! shards (`alltoallv_tokens`, the request leg), each shard gathers the
//! rows it owns, and the responses scatter back (`alltoall_dense` — the
//! paper's AlltoAll #1 shape). The request plan is one sort of packed
//! `(id, position)` keys: each run of equal ids becomes one request entry
//! to its owner, so a Zipf-skewed batch shrinks to its distinct ids before
//! the wire. There is no client-side row cache (DGL's `DistEmbedding`
//! keeps none either); every lookup reads the owners' current rows.
//!
//! **Push** partitions a [`RowSparse`] gradient by owning shard and rides
//! `alltoallv_sparse` (AlltoAll #2); each shard coalesces what it received
//! — source-rank order, the same summation order a single-shard service
//! applies — and updates through its colocated [`RowOptimizer`].
//! Alternatively a push can ride the sparse-native allreduce
//! ([`PushTransport::SparseAllreduce`]); every rank then applies its own
//! slice of the reduced gradient, bitwise the SSAR oracle.
//!
//! All lookups and pushes are *collective*: every rank of the group must
//! call them together, like the collectives they ride. Input validation
//! happens before any packet moves, and a rank that rejects its input
//! broadcasts an abort so peers fail with [`CommError::Aborted`] instead
//! of deadlocking.

use crate::error::PsError;
use crate::optim::{OptimizerKind, RowOptimizer};
use crate::partition::{PartitionBook, PartitionPolicy};
use embrace_collectives::ops::{
    try_alltoall_dense, try_alltoallv_sparse, try_alltoallv_tokens, try_sparse_allreduce,
    SparseReduced, SsarConfig,
};
use embrace_collectives::{Comm, Packet};
use embrace_obs::recorder;
use embrace_obs::Metrics;
use embrace_tensor::{coalesce, DenseTensor, RowSparse, TokenBuf};

/// How a push moves gradients to their owning shards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PushTransport {
    /// Partition by owner and exchange point-to-point (AlltoAll #2).
    Alltoallv,
    /// Reduce the whole gradient sparse-natively (SparCML SSAR) with the
    /// given densify crossover; every rank applies its owned slice.
    SparseAllreduce { crossover: f64 },
}

/// Configuration of one [`EmbeddingService`] group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Global rows of the table.
    pub vocab: usize,
    /// Embedding width.
    pub dim: usize,
    /// Row-to-shard placement.
    pub policy: PartitionPolicy,
    /// Update rule colocated with each shard.
    pub optimizer: OptimizerKind,
    /// Accepted and ignored: the service keeps no row cache. The field
    /// stays so configurations built by field keep compiling.
    pub cache_rows: usize,
    /// Gradient transport of [`EmbeddingService::try_push`].
    pub push: PushTransport,
}

impl ServiceConfig {
    /// A plain SGD service over `vocab × dim`, range-
    /// partitioned — the minimal configuration tests start from.
    pub fn minimal(vocab: usize, dim: usize, lr: f32) -> Self {
        ServiceConfig {
            vocab,
            dim,
            policy: PartitionPolicy::Range,
            optimizer: OptimizerKind::Sgd { lr },
            cache_rows: 0,
            push: PushTransport::Alltoallv,
        }
    }
}

/// One rank's shard of the sharded embedding service.
pub struct EmbeddingService {
    book: PartitionBook,
    rank: usize,
    world: usize,
    dim: usize,
    /// The parameter rows this rank owns (`book.shard_rows(rank) × dim`).
    shard: DenseTensor,
    opt: RowOptimizer,
    push: PushTransport,
    /// Owner-side scratch: the local indices of one asked batch, reused
    /// across lookups.
    local: Vec<u32>,
    lookups: u64,
    pushes: u64,
    /// Rows returned to lookup callers (before dedup).
    rows_served: u64,
    /// Rows actually moved through the AlltoAll (the distinct ids).
    rows_fetched: u64,
    /// Gradient rows applied to this shard.
    rows_updated: u64,
}

impl EmbeddingService {
    /// Build rank `rank`'s shard of a `world`-rank service. `init` gives
    /// the initial value of `(global row, column)`; only the rows this
    /// rank owns are materialised, so million-row tables cost each rank
    /// `vocab/world` rows, not `vocab`.
    pub fn new(
        rank: usize,
        world: usize,
        cfg: &ServiceConfig,
        init: &dyn Fn(u32, usize) -> f32,
    ) -> Self {
        assert!(rank < world, "rank {rank} outside world {world}");
        let book = PartitionBook::new(cfg.policy, cfg.vocab, world);
        let rows = book.shard_rows(rank);
        let mut shard = DenseTensor::zeros(rows, cfg.dim);
        for (local, dst) in shard.rows_mut().enumerate() {
            let global = book.global_of(rank, local);
            for (c, v) in dst.iter_mut().enumerate() {
                *v = init(global, c);
            }
        }
        EmbeddingService {
            book,
            rank,
            world,
            dim: cfg.dim,
            shard,
            opt: RowOptimizer::new(cfg.optimizer, rows, cfg.dim),
            push: cfg.push,
            local: Vec::new(),
            lookups: 0,
            pushes: 0,
            rows_served: 0,
            rows_fetched: 0,
            rows_updated: 0,
        }
    }

    pub fn book(&self) -> &PartitionBook {
        &self.book
    }

    /// The rows this rank owns (test/inspection helper).
    pub fn shard_table(&self) -> &DenseTensor {
        &self.shard
    }

    /// Collective lookup: every rank calls with its own `ids` (any order,
    /// duplicates fine, empty fine) and receives the `ids.len() × dim`
    /// rows in request order.
    pub fn try_lookup<C: Comm>(&mut self, ep: &mut C, ids: &[u32]) -> Result<DenseTensor, PsError> {
        let _span = recorder::span("ps_lookup", "serving");
        let plan = recorder::span("ps_lookup_plan", "serving");
        assert!(ids.len() <= u32::MAX as usize, "a lookup numbers its positions as u32");
        // Validate before any packet moves (a rejected lookup serves
        // nothing), packing `(id << 32 | position)` keys in the same pass.
        let vocab = self.book.vocab();
        let mut keys: Vec<u64> = Vec::with_capacity(ids.len());
        for (pos, &id) in ids.iter().enumerate() {
            if id as usize >= vocab {
                return abort(ep, PsError::RowOutOfRange { row: id, vocab });
            }
            keys.push(u64::from(id) << 32 | pos as u64);
        }
        self.lookups += 1;
        self.rows_served += ids.len() as u64;
        // One sort groups equal ids: each run is one request entry to its
        // owner (self included — the self slot of the AlltoAll), and every
        // position of the run reads that entry's `(owner, entry)` slot.
        keys.sort_unstable();
        let mut reqs: Vec<Vec<u32>> = vec![Vec::new(); self.world];
        let mut slots: Vec<(usize, usize)> = vec![(0, 0); ids.len()];
        let (mut prev, mut slot) = (None, (0, 0));
        for key in keys {
            let id = (key >> 32) as u32;
            if prev != Some(id) {
                let dest = self.book.owner_of(id)?;
                reqs[dest].push(id);
                (prev, slot) = (Some(id), (dest, reqs[dest].len() - 1));
            }
            slots[key as u32 as usize] = slot;
        }
        let distinct: usize = reqs.iter().map(Vec::len).sum();
        drop(plan);
        // Round 1: scatter row-id requests to their owning shards.
        let request = recorder::span("ps_lookup_request", "serving");
        let asked = try_alltoallv_tokens(ep, reqs.into_iter().map(TokenBuf::from).collect())?;
        drop(request);
        // Serve: check every asked id is ours, then gather the rows each
        // peer asked for in one call.
        let serve = recorder::span("ps_lookup_serve", "serving");
        let mut responses: Vec<DenseTensor> = Vec::with_capacity(self.world);
        for batch in &asked {
            self.local.clear();
            for &id in batch.as_slice() {
                let owner = self.book.owner_of(id)?;
                if owner != self.rank {
                    return abort(ep, PsError::WrongShard { row: id, owner, shard: self.rank });
                }
                self.local.push(self.book.local_index(id) as u32);
            }
            responses.push(self.shard.gather_rows(&self.local));
        }
        drop(serve);
        // Round 2: scatter the served rows back to the requesting ranks.
        let response = recorder::span("ps_lookup_response", "serving");
        let fetched = try_alltoall_dense(ep, responses)?;
        drop(response);
        self.rows_fetched += distinct as u64;
        // Assemble in request order.
        let _assemble = recorder::span("ps_lookup_assemble", "serving");
        let mut out = DenseTensor::zeros(ids.len(), self.dim);
        for (dst, &(dest, pos)) in out.rows_mut().zip(&slots) {
            dst.copy_from_slice(fetched[dest].row(pos));
        }
        Ok(out)
    }

    /// Collective push: every rank contributes its own `RowSparse`
    /// gradient (global row ids; empty fine); each shard applies the sum
    /// of all contributions to the rows it owns through its colocated
    /// optimizer.
    pub fn try_push<C: Comm>(&mut self, ep: &mut C, grad: &RowSparse) -> Result<(), PsError> {
        let _span = recorder::span("ps_push", "serving");
        if grad.dim() != self.dim {
            return abort(ep, PsError::DimMismatch { expected: self.dim, got: grad.dim() });
        }
        for &row in grad.indices() {
            if row as usize >= self.book.vocab() {
                return abort(ep, PsError::RowOutOfRange { row, vocab: self.book.vocab() });
            }
        }
        self.pushes += 1;
        match self.push {
            PushTransport::Alltoallv => {
                // Partition by owning shard, positions kept in input order
                // so the destination's coalesce sums in (source rank,
                // source position) order — the same order a single-shard
                // store would see.
                let partition = recorder::span("ps_push_partition", "serving");
                let mut per_shard: Vec<(Vec<u32>, Vec<u32>)> =
                    vec![(Vec::new(), Vec::new()); self.world];
                for (pos, &row) in grad.indices().iter().enumerate() {
                    let dest = self.book.owner_of(row)?;
                    per_shard[dest].0.push(pos as u32);
                    per_shard[dest].1.push(row);
                }
                let parts: Vec<RowSparse> = per_shard
                    .into_iter()
                    .map(|(positions, rows)| {
                        if positions.is_empty() {
                            RowSparse::empty(self.dim)
                        } else {
                            RowSparse::new(rows, grad.values().gather_rows(&positions))
                        }
                    })
                    .collect();
                drop(partition);
                let exchange = recorder::span("ps_push_exchange", "serving");
                let received = try_alltoallv_sparse(ep, parts)?;
                drop(exchange);
                let coalescing = recorder::span("ps_push_coalesce", "serving");
                let summed = coalesce(&RowSparse::concat(&received));
                drop(coalescing);
                let _apply = recorder::span("ps_push_apply", "serving");
                let rows = summed.indices().iter().map(|&row| self.book.local_index(row));
                self.rows_updated +=
                    self.opt.update_rows(&mut self.shard, rows.zip(summed.values().row_iter()));
            }
            PushTransport::SparseAllreduce { crossover } => {
                let cfg = SsarConfig { vocab: self.book.vocab(), crossover };
                let exchange = recorder::span("ps_push_exchange", "serving");
                let reduced = try_sparse_allreduce(ep, grad, &cfg)?;
                drop(exchange);
                let _apply = recorder::span("ps_push_apply", "serving");
                match reduced {
                    SparseReduced::Sparse(summed) => {
                        let mut owned = Vec::new();
                        for (&row, g) in summed.indices().iter().zip(summed.values().row_iter()) {
                            if self.book.owner_of(row)? == self.rank {
                                owned.push((self.book.local_index(row), g));
                            }
                        }
                        self.rows_updated += self.opt.update_rows(&mut self.shard, owned);
                    }
                    SparseReduced::Dense(summed) => {
                        // Row participation is lost after densify: apply
                        // every owned row with a nonzero sum (a true-zero
                        // summed row is indistinguishable from an
                        // untouched one; both are no-ops for SGD/Adagrad).
                        let touched = (0..self.shard.rows())
                            .map(|local| {
                                (local, summed.row(self.book.global_of(self.rank, local) as usize))
                            })
                            .filter(|(_, g)| g.iter().any(|&x| x != 0.0));
                        self.rows_updated += self.opt.update_rows(&mut self.shard, touched);
                    }
                }
            }
        }
        Ok(())
    }

    /// Export serving counters into `m` (registry names
    /// under `ps.*`). Call on a fresh registry or merge downstream — the
    /// counters are lifetime totals, not deltas.
    pub fn export_metrics(&self, m: &mut Metrics) {
        m.inc("ps.lookup.batches", self.lookups);
        m.inc("ps.lookup.rows_served", self.rows_served);
        m.inc("ps.lookup.rows_fetched", self.rows_fetched);
        m.inc("ps.push.batches", self.pushes);
        m.inc("ps.push.rows_updated", self.rows_updated);
    }
}

/// Best-effort abort broadcast for locally-detected input errors, then the
/// error itself — peers blocked in the collective observe
/// [`embrace_collectives::CommError::Aborted`] instead of deadlocking
/// (the same contract `ops::fail` gives communication failures).
fn abort<T, C: Comm>(ep: &mut C, err: PsError) -> Result<T, PsError> {
    let origin = ep.rank();
    for dst in 0..ep.world() {
        if dst != origin {
            let _ = ep.try_send(dst, Packet::Abort { origin });
        }
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_collectives::ops::sparse_allreduce_oracle;
    use embrace_collectives::{run_group, CommError};

    fn init(row: u32, col: usize) -> f32 {
        row as f32 * 10.0 + col as f32
    }

    fn base_cfg(vocab: usize, dim: usize, policy: PartitionPolicy) -> ServiceConfig {
        ServiceConfig { policy, ..ServiceConfig::minimal(vocab, dim, 0.5) }
    }

    #[test]
    fn lookup_returns_owner_rows_across_policies_and_worlds() {
        for policy in [PartitionPolicy::Range, PartitionPolicy::Hash] {
            for world in [1usize, 2, 4] {
                let outs = run_group(world, move |rank, ep| {
                    let cfg = base_cfg(19, 3, policy);
                    let mut svc = EmbeddingService::new(rank, world, &cfg, &init);
                    // Skewed, duplicated, cross-shard batch per rank.
                    let ids = vec![(rank as u32 * 5) % 19, 18, 0, 18];
                    let out = svc.try_lookup(ep, &ids).expect("lookup in range");
                    (ids, out)
                });
                for (ids, out) in outs {
                    assert_eq!(out.rows(), ids.len());
                    for (i, &id) in ids.iter().enumerate() {
                        let want: Vec<f32> = (0..3).map(|c| init(id, c)).collect();
                        assert_eq!(out.row(i), &want[..], "{policy:?} world {world} id {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn rows_come_back_in_request_order() {
        let outs = run_group(2, |rank, ep| {
            let cfg = base_cfg(16, 2, PartitionPolicy::Range);
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            // Descending, interleaved across both shards, duplicates apart.
            let ids = vec![15u32, 9, 3, 15, 0, 8, 7, 3];
            let out = svc.try_lookup(ep, &ids).expect("lookup in range");
            (ids, out)
        });
        for (ids, out) in outs {
            let want: Vec<f32> = ids.iter().flat_map(|&id| [init(id, 0), init(id, 1)]).collect();
            assert_eq!(out.as_slice(), &want[..]);
        }
    }

    #[test]
    fn each_lookup_fetches_exactly_the_distinct_ids() {
        let fetched = run_group(2, |rank, ep| {
            let cfg = ServiceConfig { cache_rows: 8, ..base_cfg(16, 2, PartitionPolicy::Hash) };
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            // Eight positions, four distinct ids over both shards.
            let ids = [5u32, 1, 5, 5, 2, 1, 6, 5];
            let counters = |svc: &EmbeddingService| {
                let mut m = Metrics::new();
                svc.export_metrics(&mut m);
                ["ps.lookup.batches", "ps.lookup.rows_served", "ps.lookup.rows_fetched"]
                    .map(|c| m.counter(c))
            };
            let a = svc.try_lookup(ep, &ids).expect("first lookup");
            let first = counters(&svc);
            let b = svc.try_lookup(ep, &ids).expect("second lookup");
            assert_eq!(a, b);
            (first, counters(&svc))
        });
        for counters in fetched {
            assert_eq!(counters, ([1, 8, 4], [2, 16, 8]));
        }
    }

    #[test]
    fn partition_book_disagreement_aborts_the_group() {
        let errs = run_group(2, |rank, ep| {
            // Rank 0 places rows by range, rank 1 by hash: id 4 is rank
            // 0's under hash but rank 1's under range.
            let policy = if rank == 0 { PartitionPolicy::Range } else { PartitionPolicy::Hash };
            let mut svc = EmbeddingService::new(rank, 2, &base_cfg(8, 1, policy), &init);
            let ids = if rank == 0 { vec![] } else { vec![4u32] };
            svc.try_lookup(ep, &ids).expect_err("both ranks must fail")
        });
        assert_eq!(errs[0], PsError::WrongShard { row: 4, owner: 1, shard: 0 });
        assert!(
            matches!(
                errs[1],
                PsError::Comm(CommError::Aborted { origin: 0 })
                    | PsError::Comm(CommError::PeerGone { peer: 0 })
            ),
            "unexpected peer error: {:?}",
            errs[1]
        );
    }

    #[test]
    fn lookup_after_push_reads_the_updated_row() {
        run_group(2, |rank, ep| {
            let cfg = ServiceConfig {
                optimizer: OptimizerKind::Sgd { lr: 1.0 },
                ..base_cfg(8, 1, PartitionPolicy::Range)
            };
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &|_, _| 0.0);
            let before = svc.try_lookup(ep, &[3]).expect("lookup");
            assert_eq!(before.row(0), &[0.0]);
            let grad = RowSparse::new(vec![3], DenseTensor::full(1, 1, 1.0));
            svc.try_push(ep, &grad).expect("push");
            let after = svc.try_lookup(ep, &[3]).expect("lookup after push");
            // Both ranks pushed g=1 at lr=1: row 3 is now -2.
            assert_eq!(after.row(0), &[-2.0]);
        });
    }

    #[test]
    fn ssar_push_matches_the_dense_oracle() {
        let vocab = 32;
        let dim = 2;
        for crossover in [2.0f64, 0.0] {
            // 2.0 keeps the reduction sparse end to end; 0.0 densifies at
            // step 0 — both must land on the oracle's summed gradient.
            let tables = run_group(4, move |rank, ep| {
                let cfg = ServiceConfig {
                    optimizer: OptimizerKind::Sgd { lr: 1.0 },
                    push: PushTransport::SparseAllreduce { crossover },
                    ..base_cfg(vocab, dim, PartitionPolicy::Range)
                };
                let mut svc = EmbeddingService::new(rank, 4, &cfg, &|_, _| 0.0);
                let grad = RowSparse::new(
                    vec![rank as u32, (rank as u32 + 7) % vocab as u32],
                    DenseTensor::full(2, dim, 1.0 + rank as f32),
                );
                svc.try_push(ep, &grad).expect("push");
                (grad, svc.shard_table().clone(), svc.book().clone())
            });
            let locals: Vec<RowSparse> = tables.iter().map(|(g, _, _)| g.share()).collect();
            let summed = sparse_allreduce_oracle(&locals, vocab);
            for (rank, (_, shard, book)) in tables.iter().enumerate() {
                for local in 0..shard.rows() {
                    let global = book.global_of(rank, local) as usize;
                    let want: Vec<f32> = summed.row(global).iter().map(|g| -g).collect();
                    assert_eq!(shard.row(local), &want[..], "crossover {crossover} row {global}");
                }
            }
        }
    }

    #[test]
    fn empty_batches_and_world_one_are_fine() {
        // world = 1: both collectives degenerate to the self slot.
        let out = run_group(1, |rank, ep| {
            let cfg = base_cfg(5, 2, PartitionPolicy::Range);
            let mut svc = EmbeddingService::new(rank, 1, &cfg, &init);
            let empty = svc.try_lookup(ep, &[]).expect("empty lookup");
            assert_eq!(empty.rows(), 0);
            svc.try_push(ep, &RowSparse::empty(2)).expect("empty push");
            svc.try_lookup(ep, &[4, 4, 0]).expect("lookup")
        });
        assert_eq!(out[0].row(0), &[init(4, 0), init(4, 1)]);
        assert_eq!(out[0].row(2), &[init(0, 0), init(0, 1)]);
    }

    #[test]
    fn out_of_range_lookup_aborts_the_group() {
        let errs = run_group(2, |rank, ep| {
            let cfg = base_cfg(8, 1, PartitionPolicy::Hash);
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            let ids = if rank == 0 { vec![99u32] } else { vec![1u32] };
            svc.try_lookup(ep, &ids).expect_err("both ranks must fail")
        });
        assert_eq!(errs[0], PsError::RowOutOfRange { row: 99, vocab: 8 });
        // The peer sees the abort notification, or — if the failing rank
        // already tore down — the disconnection edge; never a hang.
        assert!(
            matches!(
                errs[1],
                PsError::Comm(CommError::Aborted { origin: 0 })
                    | PsError::Comm(CommError::PeerGone { peer: 0 })
            ),
            "unexpected peer error: {:?}",
            errs[1]
        );
    }

    #[test]
    fn wrong_dim_push_aborts_the_group() {
        let errs = run_group(2, |rank, ep| {
            let cfg = base_cfg(8, 2, PartitionPolicy::Range);
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            let grad = if rank == 0 {
                RowSparse::new(vec![1], DenseTensor::zeros(1, 3))
            } else {
                RowSparse::new(vec![1], DenseTensor::zeros(1, 2))
            };
            svc.try_push(ep, &grad).expect_err("both ranks must fail")
        });
        assert_eq!(errs[0], PsError::DimMismatch { expected: 2, got: 3 });
        assert!(
            matches!(
                errs[1],
                PsError::Comm(CommError::Aborted { origin: 0 })
                    | PsError::Comm(CommError::PeerGone { peer: 0 })
            ),
            "unexpected peer error: {:?}",
            errs[1]
        );
    }

    #[test]
    fn rejected_calls_leave_the_serving_counters_alone() {
        let out = run_group(1, |rank, ep| {
            let mut svc =
                EmbeddingService::new(rank, 1, &base_cfg(4, 2, PartitionPolicy::Range), &init);
            svc.try_lookup(ep, &[1, 2]).expect("lookup");
            svc.try_push(ep, &RowSparse::new(vec![1], DenseTensor::zeros(1, 2))).expect("push");
            let snapshot = |svc: &EmbeddingService| {
                let mut m = Metrics::new();
                svc.export_metrics(&mut m);
                ["ps.lookup.batches", "ps.lookup.rows_served", "ps.push.batches"]
                    .map(|c| m.counter(c))
            };
            let before = snapshot(&svc);
            svc.try_lookup(ep, &[1, 99]).expect_err("row out of range");
            svc.try_push(ep, &RowSparse::new(vec![0], DenseTensor::zeros(1, 5)))
                .expect_err("wrong width");
            svc.try_push(ep, &RowSparse::new(vec![7], DenseTensor::zeros(1, 2)))
                .expect_err("row out of range");
            (before, snapshot(&svc))
        });
        assert_eq!(out[0], ([1, 2, 1], [1, 2, 1]));
    }
}

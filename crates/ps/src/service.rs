//! The sharded embedding service: one-sided lookups, collective pushes.
//!
//! One `EmbeddingService` instance runs per rank of an SPMD group; rank
//! `r` *is* shard `r` (server and worker colocated, the DGL
//! `DistEmbedding` arrangement). The table never exists materialised in
//! one place — each rank holds only the rows its [`PartitionBook`] assigns
//! it, plus the per-row optimizer state for exactly those rows.
//!
//! **Registration.** Each rank keeps its shard in a region (a shared
//! `RwLock` handle). At the first service call every rank receives every
//! region once, through the transport (one `try_allgather_regions`),
//! together with each owner's partition book; a book that differs from
//! this rank's fails every rank with [`PsError::BookMismatch`] before any
//! row is read. Regions are not a second transport: they are registered
//! through it, and read only between the fences below.
//!
//! **Lookup** is one barrier deep: validate the ids, pass `try_barrier`,
//! then copy each row, in request order, straight from its owner's region
//! (own shard included). No owner takes part and nothing is sorted or
//! deduplicated. There is no client-side row cache (DGL's `DistEmbedding`
//! keeps none either); every lookup reads the owners' current rows.
//!
//! **Push** partitions a [`RowSparse`] gradient by owning shard and rides
//! `alltoallv_sparse` (AlltoAll #2); each shard coalesces what it received
//! — source-rank order, the same summation order a single-shard service
//! applies — and updates through its colocated [`RowOptimizer`].
//! Alternatively a push can ride the sparse-native allreduce
//! ([`PushTransport::SparseAllreduce`]); every rank then applies its own
//! slice of the reduced gradient, bitwise the SSAR oracle. Either way the
//! owner applies under its region's write side.
//!
//! **Fence.** A lookup's barrier is the fence: a rank enters it only after
//! its previous push has applied, so every read sees every earlier push;
//! and a rank sends its next push part only after its reads are done,
//! while an owner applies only after receiving every rank's part, so no
//! write overlaps a read. Region access therefore never waits: it takes
//! `try_read` / `try_write`, and contention is [`PsError::RegionBusy`].
//!
//! All lookups and pushes are *collective*: every rank of the group must
//! call them together, like the collectives they ride. Input validation
//! happens before any packet moves, and a rank that rejects its input
//! broadcasts an abort so peers fail with
//! [`CommError::Aborted`](embrace_collectives::CommError::Aborted) instead
//! of deadlocking.

use crate::error::PsError;
use crate::optim::{OptimizerKind, RowOptimizer};
use crate::partition::{PartitionBook, PartitionPolicy};
use embrace_collectives::ops::{
    try_allgather_regions, try_alltoallv_sparse, try_barrier, try_sparse_allreduce, SparseReduced,
    SsarConfig,
};
use embrace_collectives::{Comm, Packet, Region};
use embrace_obs::recorder;
use embrace_obs::Metrics;
use embrace_tensor::{coalesce, DenseTensor, RowSparse, TokenBuf};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

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
    dim: usize,
    /// The parameter rows this rank owns (`book.shard_rows(rank) × dim`),
    /// as the region peers read.
    shard: Arc<RwLock<DenseTensor>>,
    /// Every rank's region in rank order (own included): empty until the
    /// first service call registers them.
    regions: Vec<Arc<RwLock<DenseTensor>>>,
    opt: RowOptimizer,
    push: PushTransport,
    lookups: u64,
    pushes: u64,
    /// Rows returned to lookup callers.
    rows_served: u64,
    /// Rows of those copied from a peer's region.
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
            dim: cfg.dim,
            shard: Arc::new(RwLock::new(shard)),
            regions: Vec::new(),
            opt: RowOptimizer::new(cfg.optimizer, rows, cfg.dim),
            push: cfg.push,
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

    /// Registration: on this service's first call every rank receives
    /// every region and book. Every rank compares every book with its own,
    /// so a disagreement fails the whole group, typed, before any read.
    fn register<C: Comm>(&mut self, ep: &mut C) -> Result<(), PsError> {
        if !self.regions.is_empty() {
            return Ok(());
        }
        let book = TokenBuf::from(vec![
            self.book.policy() as u32,
            self.book.vocab() as u32,
            self.book.shards() as u32,
        ]);
        let local = Region { rows: Arc::clone(&self.shard), book: book.share() };
        let regions = try_allgather_regions(ep, local)?;
        if let Some(rank) = regions.iter().position(|r| r.book != book) {
            return Err(PsError::BookMismatch { rank });
        }
        self.regions = regions.into_iter().map(|r| r.rows).collect();
        Ok(())
    }

    /// Collective lookup: every rank calls with its own `ids` (any order,
    /// duplicates fine, empty fine) and receives the `ids.len() × dim`
    /// rows in request order.
    pub fn try_lookup<C: Comm>(&mut self, ep: &mut C, ids: &[u32]) -> Result<DenseTensor, PsError> {
        let _span = recorder::span("ps_lookup", "serving");
        // Validate before any packet moves (a rejected lookup reads nothing).
        let vocab = self.book.vocab();
        if let Some(&row) = ids.iter().find(|&&id| id as usize >= vocab) {
            return abort(ep, PsError::RowOutOfRange { row, vocab });
        }
        self.lookups += 1;
        self.rows_served += ids.len() as u64;
        self.register(ep)?;
        // The fence: every rank's previous push has applied.
        try_barrier(ep)?;
        let _read = recorder::span("ps_lookup_read", "serving");
        let mut shards = Vec::with_capacity(self.regions.len());
        for (shard, region) in self.regions.iter().enumerate() {
            shards.push(region.try_read().map_err(|_| PsError::RegionBusy { shard })?);
        }
        let mut out = DenseTensor::zeros(ids.len(), self.dim);
        for (dst, &id) in out.rows_mut().zip(ids) {
            let (owner, local) = self.book.locate(id)?;
            dst.copy_from_slice(shards[owner].row(local));
            self.rows_fetched += u64::from(owner != self.rank);
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
        self.register(ep)?;
        match self.push {
            PushTransport::Alltoallv => {
                // Partition by owning shard, positions kept in input order
                // so the destination's coalesce sums in (source rank,
                // source position) order — the same order a single-shard
                // store would see.
                let partition = recorder::span("ps_push_partition", "serving");
                let mut per_shard: Vec<(Vec<u32>, Vec<u32>)> =
                    vec![(Vec::new(), Vec::new()); self.book.shards()];
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
                let mut shard = write(&self.shard, self.rank)?;
                self.rows_updated +=
                    self.opt.update_rows(&mut shard, rows.zip(summed.values().row_iter()));
            }
            PushTransport::SparseAllreduce { crossover } => {
                let cfg = SsarConfig { vocab: self.book.vocab(), crossover };
                let exchange = recorder::span("ps_push_exchange", "serving");
                let reduced = try_sparse_allreduce(ep, grad, &cfg)?;
                drop(exchange);
                let _apply = recorder::span("ps_push_apply", "serving");
                let mut shard = write(&self.shard, self.rank)?;
                match reduced {
                    SparseReduced::Sparse(summed) => {
                        let mut owned = Vec::new();
                        for (&row, g) in summed.indices().iter().zip(summed.values().row_iter()) {
                            if self.book.owner_of(row)? == self.rank {
                                owned.push((self.book.local_index(row), g));
                            }
                        }
                        self.rows_updated += self.opt.update_rows(&mut shard, owned);
                    }
                    SparseReduced::Dense(summed) => {
                        // Row participation is lost after densify: apply
                        // every owned row with a nonzero sum (a true-zero
                        // summed row is indistinguishable from an
                        // untouched one; both are no-ops for SGD/Adagrad).
                        let touched = (0..shard.rows())
                            .map(|local| {
                                (local, summed.row(self.book.global_of(self.rank, local) as usize))
                            })
                            .filter(|(_, g)| g.iter().any(|&x| x != 0.0));
                        self.rows_updated += self.opt.update_rows(&mut shard, touched);
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

/// The owner's write side of its region. The fence keeps every peer's
/// reads out of an apply, so contention is an error, never a wait.
fn write(
    region: &RwLock<DenseTensor>,
    shard: usize,
) -> Result<RwLockWriteGuard<'_, DenseTensor>, PsError> {
    region.try_write().map_err(|_| PsError::RegionBusy { shard })
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
    use embrace_collectives::{run_group, run_group_with_faults, CommError, FaultPlan};
    use std::time::Duration;

    impl EmbeddingService {
        /// A handle on the rows this rank owns.
        fn shard_table(&self) -> DenseTensor {
            match self.shard.try_read() {
                Ok(shard) => shard.share(),
                Err(e) => panic!("only the owner writes its region: {e}"),
            }
        }
    }

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
    fn rows_fetched_counts_the_rows_read_from_peers() {
        let fetched = run_group(2, |rank, ep| {
            let cfg = ServiceConfig { cache_rows: 8, ..base_cfg(16, 2, PartitionPolicy::Hash) };
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            // Eight positions, four distinct ids: 2 and 6 on shard 0,
            // 1 and 5 (six positions) on shard 1. Nothing is deduplicated.
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
        assert_eq!(fetched[0], ([1, 8, 6], [2, 16, 12]));
        assert_eq!(fetched[1], ([1, 8, 2], [2, 16, 4]));
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
        // Registration hands every rank every book: each rank finds the
        // other's, and fails typed, before any row is read.
        assert_eq!(errs, [PsError::BookMismatch { rank: 1 }, PsError::BookMismatch { rank: 0 }]);
    }

    /// The barrier fences a lookup's reads after every earlier push: with
    /// each peer's push part to the owner of row 0 held up on the wire,
    /// the owner applies late, and a peer that reached its next lookup
    /// early must still read the pushed row.
    #[test]
    fn lookup_waits_for_a_late_push_apply() {
        for world in [2usize, 3] {
            let mut plan = FaultPlan::new(1);
            for peer in 1..world {
                plan = plan.delay_link(peer, 0, Duration::from_millis(20));
            }
            let rows =
                run_group_with_faults(world, &plan, Some(Duration::from_secs(10)), |rank, ep| {
                    let cfg = ServiceConfig {
                        optimizer: OptimizerKind::Sgd { lr: 1.0 },
                        ..base_cfg(4 * world, 1, PartitionPolicy::Range)
                    };
                    let mut svc = EmbeddingService::new(rank, world, &cfg, &|_, _| 0.0);
                    svc.try_lookup(ep, &[0]).expect("first lookup registers");
                    let grad = RowSparse::new(vec![0], DenseTensor::full(1, 1, 1.0));
                    svc.try_push(ep, &grad).expect("push");
                    svc.try_lookup(ep, &[0]).expect("lookup after push").row(0)[0]
                });
            // Every rank pushed g=1 at lr=1 to row 0, owned by rank 0.
            assert_eq!(rows, vec![-(world as f32); world], "world {world}");
        }
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

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
//! paper's AlltoAll #1 shape). Requested ids are deduplicated per
//! destination before the wire, and a hot-row [`RowCache`] short-circuits
//! rows served recently, so a Zipf-skewed batch often shrinks to a
//! fraction of its raw size.
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

use crate::cache::{CacheStats, RowCache};
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
use std::collections::HashMap;

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
    /// Hot-row cache capacity per rank (0 disables caching).
    pub cache_rows: usize,
    /// Gradient transport of [`EmbeddingService::try_push`].
    pub push: PushTransport,
}

impl ServiceConfig {
    /// A plain SGD service with no cache over `vocab × dim`, range-
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

/// Where each position of a lookup batch gets its row from.
enum Slot {
    /// Index into the locally-cached row buffer.
    Cached(usize),
    /// `(owning shard, position within that shard's request list)`.
    Fetched(usize, usize),
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
    cache: RowCache,
    push: PushTransport,
    lookups: u64,
    pushes: u64,
    /// Rows returned to lookup callers (before dedup/caching).
    rows_served: u64,
    /// Rows actually moved through the AlltoAll (after dedup and cache).
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
            cache: RowCache::new(cfg.cache_rows),
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

    /// The rows this rank owns (test/inspection helper).
    pub fn shard_table(&self) -> &DenseTensor {
        &self.shard
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Collective lookup: every rank calls with its own `ids` (any order,
    /// duplicates fine, empty fine) and receives the `ids.len() × dim`
    /// rows in request order.
    pub fn try_lookup<C: Comm>(&mut self, ep: &mut C, ids: &[u32]) -> Result<DenseTensor, PsError> {
        let _span = recorder::span("ps_lookup", "serving");
        // Validate before any packet moves; a rejected lookup serves nothing.
        for &id in ids {
            if id as usize >= self.book.vocab() {
                return abort(ep, PsError::RowOutOfRange { row: id, vocab: self.book.vocab() });
            }
        }
        self.lookups += 1;
        self.rows_served += ids.len() as u64;
        // Plan each position: cache hit, or a deduplicated fetch from the
        // owning shard (self included — the self slot of the AlltoAll).
        let mut slots: Vec<Slot> = Vec::with_capacity(ids.len());
        let mut planned: HashMap<u32, (usize, usize)> = HashMap::new();
        let mut cached: Vec<f32> = Vec::new();
        let mut cached_ids: HashMap<u32, usize> = HashMap::new();
        let mut reqs: Vec<Vec<u32>> = vec![Vec::new(); self.world];
        for &id in ids {
            if let Some(&(dest, pos)) = planned.get(&id) {
                slots.push(Slot::Fetched(dest, pos));
                continue;
            }
            if let Some(&k) = cached_ids.get(&id) {
                slots.push(Slot::Cached(k));
                continue;
            }
            if let Some(vals) = self.cache.get(id) {
                let k = cached.len() / self.dim;
                cached.extend_from_slice(vals);
                cached_ids.insert(id, k);
                slots.push(Slot::Cached(k));
                continue;
            }
            let dest = self.book.owner_of(id)?;
            reqs[dest].push(id);
            let pos = reqs[dest].len() - 1;
            planned.insert(id, (dest, pos));
            slots.push(Slot::Fetched(dest, pos));
        }
        // Round 1: scatter row-id requests to their owning shards.
        let outgoing: Vec<TokenBuf> = reqs.iter().map(|r| TokenBuf::from(r.clone())).collect();
        let asked = try_alltoallv_tokens(ep, outgoing)?;
        // Serve: gather the rows each peer asked this shard for.
        let mut responses: Vec<DenseTensor> = Vec::with_capacity(self.world);
        for batch in &asked {
            let mut resp = DenseTensor::zeros(batch.len(), self.dim);
            for (dst, &id) in resp.rows_mut().zip(batch.as_slice()) {
                let owner = self.book.owner_of(id)?;
                if owner != self.rank {
                    return abort(ep, PsError::WrongShard { row: id, owner, shard: self.rank });
                }
                dst.copy_from_slice(self.shard.row(self.book.local_index(id)));
            }
            responses.push(resp);
        }
        // Round 2: scatter the served rows back to the requesting ranks.
        let fetched = try_alltoall_dense(ep, responses)?;
        for (dest, req) in reqs.iter().enumerate() {
            self.rows_fetched += req.len() as u64;
            for (pos, &id) in req.iter().enumerate() {
                self.cache.insert(id, fetched[dest].row(pos));
            }
        }
        // Assemble in request order.
        let mut out = DenseTensor::zeros(ids.len(), self.dim);
        for (dst, slot) in out.rows_mut().zip(&slots) {
            dst.copy_from_slice(match slot {
                Slot::Cached(k) => &cached[k * self.dim..(k + 1) * self.dim],
                Slot::Fetched(dest, pos) => fetched[*dest].row(*pos),
            });
        }
        Ok(out)
    }

    /// Collective push: every rank contributes its own `RowSparse`
    /// gradient (global row ids; empty fine); each shard applies the sum
    /// of all contributions to the rows it owns through its colocated
    /// optimizer, then invalidates its hot-row cache.
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
                let received = try_alltoallv_sparse(ep, parts)?;
                let summed = coalesce(&RowSparse::concat(&received));
                let rows = summed.indices().iter().map(|&row| self.book.local_index(row));
                self.rows_updated +=
                    self.opt.update_rows(&mut self.shard, rows.zip(summed.values().row_iter()));
            }
            PushTransport::SparseAllreduce { crossover } => {
                let cfg = SsarConfig { vocab: self.book.vocab(), crossover };
                match try_sparse_allreduce(ep, grad, &cfg)? {
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
        self.cache.invalidate_all();
        Ok(())
    }

    /// Export serving counters and cache health into `m` (registry names
    /// under `ps.*`). Call on a fresh registry or merge downstream — the
    /// counters are lifetime totals, not deltas.
    pub fn export_metrics(&self, m: &mut Metrics) {
        let s = self.cache.stats();
        m.inc("ps.lookup.batches", self.lookups);
        m.inc("ps.lookup.rows_served", self.rows_served);
        m.inc("ps.lookup.rows_fetched", self.rows_fetched);
        m.inc("ps.push.batches", self.pushes);
        m.inc("ps.push.rows_updated", self.rows_updated);
        m.inc("ps.cache.hits", s.hits);
        m.inc("ps.cache.misses", s.misses);
        m.inc("ps.cache.evictions", s.evictions);
        m.inc("ps.cache.invalidations", s.invalidations);
        m.set_gauge("ps.cache.hit_rate", s.hit_rate());
        m.set_gauge(
            "ps.cache.occupancy",
            if s.capacity == 0 { 0.0 } else { s.occupancy as f64 / s.capacity as f64 },
        );
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
    fn repeat_lookup_is_served_from_cache() {
        let stats = run_group(2, |rank, ep| {
            let cfg = ServiceConfig { cache_rows: 8, ..base_cfg(16, 2, PartitionPolicy::Hash) };
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            let ids = [1u32, 2, 3, 1];
            let a = svc.try_lookup(ep, &ids).expect("first lookup");
            let b = svc.try_lookup(ep, &ids).expect("second lookup");
            assert_eq!(a, b, "cache must be value-transparent");
            svc.cache_stats()
        });
        for s in stats {
            // First pass misses the three unique rows (the duplicate is
            // deduplicated before the cache); second pass hits all three.
            assert_eq!((s.hits, s.misses), (3, 3));
            assert_eq!(s.occupancy, 3);
            assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn push_invalidates_cached_rows() {
        run_group(2, |rank, ep| {
            let cfg = ServiceConfig {
                cache_rows: 8,
                optimizer: OptimizerKind::Sgd { lr: 1.0 },
                ..base_cfg(8, 1, PartitionPolicy::Range)
            };
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &|_, _| 0.0);
            let before = svc.try_lookup(ep, &[3]).expect("lookup");
            assert_eq!(before.row(0), &[0.0]);
            let grad = RowSparse::new(vec![3], DenseTensor::full(1, 1, 1.0));
            svc.try_push(ep, &grad).expect("push");
            let after = svc.try_lookup(ep, &[3]).expect("lookup after push");
            // Both ranks pushed g=1 at lr=1: row 3 is now -2. A stale
            // cache would still say 0.
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

    #[test]
    fn metrics_export_reports_serving_counters() {
        let metrics = run_group(2, |rank, ep| {
            let cfg = ServiceConfig { cache_rows: 4, ..base_cfg(8, 1, PartitionPolicy::Range) };
            let mut svc = EmbeddingService::new(rank, 2, &cfg, &init);
            svc.try_lookup(ep, &[0, 1]).expect("lookup");
            svc.try_lookup(ep, &[0, 1]).expect("lookup");
            let mut m = Metrics::new();
            svc.export_metrics(&mut m);
            m
        });
        for m in metrics {
            assert_eq!(m.counter("ps.lookup.batches"), 2);
            assert_eq!(m.counter("ps.lookup.rows_served"), 4);
            assert_eq!(m.counter("ps.lookup.rows_fetched"), 2);
            assert_eq!(m.counter("ps.cache.hits"), 2);
            assert_eq!(m.gauge("ps.cache.hit_rate"), Some(0.5));
        }
    }
}

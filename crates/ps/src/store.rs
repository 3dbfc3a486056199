//! The sharded synchronous parameter store.
//!
//! Parameters of one table (`vocab × dim`) are **row-partitioned** across
//! `shards` server shards (Parallax partitions its sparse PS this way; the
//! paper contrasts this with EmbRace's column-wise partitioning in §4.1.1).
//! Workers `pull` the rows they need and `push` sparse gradients; a push
//! blocks until all `world` workers of the step have pushed, then one
//! worker applies the summed update — synchronous data-parallel semantics.
//!
//! Bad inputs are typed [`PsError`]s, not panics: the comm-path lint rules
//! apply to this crate, and a worker thread that panics mid-barrier would
//! strand every peer blocked on the shard condvar. All validation happens
//! *before* a push touches any shard's barrier state, so an `Err` return
//! leaves the synchronisation protocol exactly as it found it.

use crate::error::PsError;
use embrace_tensor::{coalesce, row_partition, DenseTensor, RowRange, RowSparse};
use parking_lot::{Condvar, Mutex};

struct ShardState {
    /// Parameter rows `range.start..range.end` of the global table.
    table: DenseTensor,
    /// Sum of gradients pushed this step (global row ids).
    pending: Vec<RowSparse>,
    /// Number of workers that have pushed this step.
    pushes: usize,
    /// Monotone step counter, bumped when an update is applied.
    step: u64,
}

struct Shard {
    range: RowRange,
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// A row-sharded parameter server for one embedding table.
///
/// All methods take `&self`; shards are independently locked so pushes to
/// different shards proceed in parallel.
pub struct ShardedStore {
    vocab: usize,
    dim: usize,
    world: usize,
    shards: Vec<Shard>,
}

impl ShardedStore {
    /// Create a store holding `init` (a `vocab × dim` table) split across
    /// `shards` row shards, serving `world` synchronous workers.
    pub fn new(init: DenseTensor, shards: usize, world: usize) -> Self {
        assert!(shards > 0 && world > 0);
        let vocab = init.rows();
        let dim = init.cols();
        let ranges = row_partition(vocab, shards);
        let shards = ranges
            .into_iter()
            .map(|range| {
                let rows: Vec<u32> = (range.start as u32..range.end as u32).collect();
                Shard {
                    range,
                    state: Mutex::new(ShardState {
                        table: init.gather_rows(&rows),
                        pending: Vec::new(),
                        pushes: 0,
                        step: 0,
                    }),
                    cv: Condvar::new(),
                }
            })
            .collect();
        ShardedStore { vocab, dim, world, shards }
    }

    pub fn vocab(&self) -> usize {
        self.vocab
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, row: u32) -> Result<usize, PsError> {
        self.shards
            .iter()
            .position(|s| s.range.contains(row))
            .ok_or(PsError::RowOutOfRange { row, vocab: self.vocab })
    }

    /// Fetch the current values of `rows` (global ids, any order, duplicates
    /// allowed) — the per-step parameter pull. A row outside the table is a
    /// typed error and no partial result.
    pub fn pull_rows(&self, rows: &[u32]) -> Result<DenseTensor, PsError> {
        let mut out = DenseTensor::zeros(rows.len(), self.dim);
        for (dst, &row) in out.rows_mut().zip(rows) {
            let shard = &self.shards[self.shard_of(row)?];
            let st = shard.state.lock();
            dst.copy_from_slice(st.table.row(row as usize - shard.range.start));
        }
        Ok(out)
    }

    /// Push this worker's sparse gradient for the step and block until the
    /// step's summed update (SGD with rate `lr`) has been applied by the
    /// last pusher. Every worker must push exactly once per step.
    ///
    /// A malformed gradient (wrong width, out-of-range row) fails *before*
    /// the worker enters any shard's barrier, so an `Err` never strands the
    /// other workers of the step.
    pub fn push_sparse(&self, grad: &RowSparse, lr: f32) -> Result<(), PsError> {
        if grad.dim() != self.dim {
            return Err(PsError::DimMismatch { expected: self.dim, got: grad.dim() });
        }
        // Split the gradient by owning shard, then run the sync protocol
        // independently per shard (empty pushes still participate so the
        // barrier count reaches `world` on every shard). Validation — the
        // only fallible part — completes here, before any barrier state
        // moves.
        let mut per_shard: Vec<(Vec<u32>, Vec<u32>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (pos, &row) in grad.indices().iter().enumerate() {
            let s = self.shard_of(row)?;
            per_shard[s].0.push(pos as u32);
            per_shard[s].1.push(row);
        }
        for (sidx, (positions, rows)) in per_shard.into_iter().enumerate() {
            let shard = &self.shards[sidx];
            let part = if positions.is_empty() {
                RowSparse::empty(self.dim)
            } else {
                RowSparse::new(rows, grad.values().gather_rows(&positions))
            };
            let mut st = shard.state.lock();
            let my_step = st.step;
            if !part.is_empty() {
                st.pending.push(part);
            }
            st.pushes += 1;
            if st.pushes == self.world {
                // Last pusher applies the update.
                let pending = std::mem::take(&mut st.pending);
                if !pending.is_empty() {
                    let summed = coalesce(&RowSparse::concat(&pending));
                    let (start, dim) = (shard.range.start, self.dim);
                    let table = st.table.as_mut_slice();
                    for (&row, g) in summed.indices().iter().zip(summed.values().row_iter()) {
                        let local = row as usize - start;
                        for (d, g) in table[local * dim..(local + 1) * dim].iter_mut().zip(g) {
                            *d -= lr * g;
                        }
                    }
                }
                st.pushes = 0;
                st.step += 1;
                shard.cv.notify_all();
            } else {
                shard.cv.wait_while(&mut st, |st| st.step == my_step);
            }
        }
        Ok(())
    }

    /// Snapshot the full table (test/inspection helper).
    pub fn snapshot(&self) -> DenseTensor {
        let blocks: Vec<DenseTensor> =
            self.shards.iter().map(|s| s.state.lock().table.clone()).collect();
        DenseTensor::concat_rows(&blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn arange_table(vocab: usize, dim: usize) -> DenseTensor {
        DenseTensor::from_vec(vocab, dim, (0..vocab * dim).map(|x| x as f32).collect())
    }

    #[test]
    fn pull_returns_requested_rows() {
        let store = ShardedStore::new(arange_table(10, 2), 3, 1);
        let got = store.pull_rows(&[9, 0, 9]).expect("rows in range");
        assert_eq!(got.row(0), &[18.0, 19.0]);
        assert_eq!(got.row(1), &[0.0, 1.0]);
        assert_eq!(got.row(2), &[18.0, 19.0]);
    }

    #[test]
    fn pull_of_empty_batch_is_empty() {
        let store = ShardedStore::new(arange_table(10, 2), 3, 1);
        let got = store.pull_rows(&[]).expect("empty batch is fine");
        assert_eq!((got.rows(), got.cols()), (0, 2));
    }

    #[test]
    fn pull_out_of_range_is_typed() {
        let store = ShardedStore::new(arange_table(10, 2), 3, 1);
        assert_eq!(store.pull_rows(&[0, 10]), Err(PsError::RowOutOfRange { row: 10, vocab: 10 }));
    }

    #[test]
    fn single_worker_push_applies_sgd() {
        let store = ShardedStore::new(DenseTensor::zeros(4, 2), 2, 1);
        let g = RowSparse::new(vec![1, 3], DenseTensor::full(2, 2, 1.0));
        store.push_sparse(&g, 0.5).expect("valid gradient");
        let snap = store.snapshot();
        assert_eq!(snap.row(1), &[-0.5, -0.5]);
        assert_eq!(snap.row(3), &[-0.5, -0.5]);
        assert_eq!(snap.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn synchronous_push_sums_across_workers() {
        let world = 4;
        let store = Arc::new(ShardedStore::new(DenseTensor::zeros(8, 1), 3, world));
        thread::scope(|s| {
            for w in 0..world {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    // All workers touch row 2; worker w also touches row w+3.
                    let g = RowSparse::new(
                        vec![2, (w + 3) as u32],
                        DenseTensor::from_vec(2, 1, vec![1.0, 10.0]),
                    );
                    store.push_sparse(&g, 1.0).expect("valid gradient");
                });
            }
        });
        let snap = store.snapshot();
        assert_eq!(snap.row(2), &[-4.0]); // summed over 4 workers
        for w in 0..world {
            assert_eq!(snap.row(w + 3), &[-10.0]);
        }
    }

    #[test]
    fn multiple_steps_advance() {
        let store = Arc::new(ShardedStore::new(DenseTensor::zeros(2, 1), 1, 2));
        thread::scope(|s| {
            for _ in 0..2 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for _ in 0..5 {
                        let g = RowSparse::new(vec![0], DenseTensor::full(1, 1, 1.0));
                        store.push_sparse(&g, 1.0).expect("valid gradient");
                    }
                });
            }
        });
        assert_eq!(store.snapshot().row(0), &[-10.0]);
    }

    #[test]
    fn empty_gradient_still_synchronises() {
        let store = Arc::new(ShardedStore::new(DenseTensor::zeros(4, 1), 2, 2));
        thread::scope(|s| {
            {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    store.push_sparse(&RowSparse::empty(1), 1.0).expect("empty push is fine");
                });
            }
            {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let g = RowSparse::new(vec![0], DenseTensor::full(1, 1, 2.0));
                    store.push_sparse(&g, 1.0).expect("valid gradient");
                });
            }
        });
        assert_eq!(store.snapshot().row(0), &[-2.0]);
    }

    #[test]
    fn duplicate_rows_in_push_are_coalesced() {
        let store = ShardedStore::new(DenseTensor::zeros(4, 1), 1, 1);
        let g = RowSparse::new(vec![1, 1], DenseTensor::from_vec(2, 1, vec![1.0, 2.0]));
        store.push_sparse(&g, 1.0).expect("valid gradient");
        assert_eq!(store.snapshot().row(1), &[-3.0]);
    }

    #[test]
    fn wrong_dim_push_is_typed() {
        let store = ShardedStore::new(DenseTensor::zeros(4, 2), 1, 1);
        let err = store.push_sparse(&RowSparse::new(vec![0], DenseTensor::zeros(1, 3)), 1.0);
        assert_eq!(err, Err(PsError::DimMismatch { expected: 2, got: 3 }));
    }

    #[test]
    fn out_of_range_push_fails_before_the_barrier() {
        // world = 2 but only one worker pushes (a bad gradient): the error
        // must surface without touching any shard barrier, so a later
        // valid two-worker step still completes.
        let store = Arc::new(ShardedStore::new(DenseTensor::zeros(4, 1), 2, 2));
        let bad = RowSparse::new(vec![9], DenseTensor::full(1, 1, 1.0));
        assert_eq!(store.push_sparse(&bad, 1.0), Err(PsError::RowOutOfRange { row: 9, vocab: 4 }));
        thread::scope(|s| {
            for _ in 0..2 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let g = RowSparse::new(vec![0], DenseTensor::full(1, 1, 1.0));
                    store.push_sparse(&g, 1.0).expect("valid gradient");
                });
            }
        });
        assert_eq!(store.snapshot().row(0), &[-2.0]);
    }
}

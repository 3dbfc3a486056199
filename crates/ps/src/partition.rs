//! The partition book: which shard owns which embedding row.
//!
//! Two placement policies, both O(1) per row with no per-row table:
//!
//! * **Range** — contiguous row blocks, the layout `row_partition` gives the
//!   training-side store (Parallax-style). Pull/push batches for a range of
//!   ids touch one shard, but a Zipf-skewed id stream (DLRM inference; the
//!   paper's Fig. 2 skew) lands its entire hot head on shard 0.
//! * **Hash** — cyclic placement (`owner = row mod shards`). Consecutive hot
//!   rows spread round-robin across all shards, so skewed serving traffic
//!   load-balances at the cost of splitting every batch across shards.
//!
//! Both policies are deterministic pure functions of `(vocab, shards)`, so
//! every rank of an SPMD group derives an identical book with no exchange.

use crate::error::PsError;
use embrace_tensor::{row_partition, RowRange};

/// Row-to-shard placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Contiguous row ranges, shard `s` owning `ranges[s]` of
    /// `row_partition(vocab, shards)`.
    Range,
    /// Cyclic placement: shard `s` owns rows `{ r | r ≡ s (mod shards) }`.
    Hash,
}

/// Maps global row ids to `(shard, local index)` and back.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionBook {
    policy: PartitionPolicy,
    vocab: usize,
    shards: usize,
    /// Range bounds (only used by the `Range` policy; empty for `Hash`).
    ranges: Vec<RowRange>,
}

impl PartitionBook {
    /// Build the book for a `vocab`-row table split across `shards` shards.
    pub fn new(policy: PartitionPolicy, vocab: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(u32::try_from(vocab).is_ok(), "vocab must fit in u32");
        let ranges = match policy {
            PartitionPolicy::Range => row_partition(vocab, shards),
            PartitionPolicy::Hash => Vec::new(),
        };
        PartitionBook { policy, vocab, shards, ranges }
    }

    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    pub fn vocab(&self) -> usize {
        self.vocab
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning global row `row` and the row's position inside
    /// that shard's local table, in one pass of the placement arithmetic:
    /// the per-row step of every lookup.
    pub fn locate(&self, row: u32) -> Result<(usize, usize), PsError> {
        if row as usize >= self.vocab {
            return Err(PsError::RowOutOfRange { row, vocab: self.vocab });
        }
        let r = row as usize;
        Ok(match self.policy {
            PartitionPolicy::Range => {
                // row_partition gives the first `vocab % shards` ranges one
                // extra row; invert that arithmetic instead of searching.
                let base = self.vocab / self.shards;
                let extra = self.vocab % self.shards;
                let boundary = extra * (base + 1);
                let owner =
                    if r < boundary { r / (base + 1) } else { extra + (r - boundary) / base };
                (owner, r - self.ranges[owner].start)
            }
            PartitionPolicy::Hash => (r % self.shards, r / self.shards),
        })
    }

    /// The shard owning global row `row`.
    pub fn owner_of(&self, row: u32) -> Result<usize, PsError> {
        self.locate(row).map(|(owner, _)| owner)
    }

    /// Position of `row` inside its owning shard's local table. The caller
    /// must have validated `row` (e.g. via [`PartitionBook::owner_of`]).
    pub fn local_index(&self, row: u32) -> usize {
        self.locate(row).expect("caller validated the row").1
    }

    /// Number of rows shard `shard` owns.
    pub fn shard_rows(&self, shard: usize) -> usize {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        match self.policy {
            PartitionPolicy::Range => self.ranges[shard].len(),
            PartitionPolicy::Hash => (self.vocab + self.shards - 1 - shard) / self.shards,
        }
    }

    /// The global row id stored at `local` inside shard `shard` — the
    /// inverse of ([`PartitionBook::owner_of`], [`PartitionBook::local_index`]).
    pub fn global_of(&self, shard: usize, local: usize) -> u32 {
        assert!(local < self.shard_rows(shard), "local row out of shard");
        match self.policy {
            PartitionPolicy::Range => (self.ranges[shard].start + local) as u32,
            PartitionPolicy::Hash => (local * self.shards + shard) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(policy: PartitionPolicy, vocab: usize, shards: usize) {
        let book = PartitionBook::new(policy, vocab, shards);
        let mut seen = vec![0usize; shards];
        for row in 0..vocab as u32 {
            let owner = book.owner_of(row).expect("in range");
            let local = book.local_index(row);
            assert!(owner < shards);
            assert!(local < book.shard_rows(owner), "{policy:?} row {row}");
            assert_eq!(book.global_of(owner, local), row, "{policy:?} row {row}");
            seen[owner] += 1;
        }
        for (s, &count) in seen.iter().enumerate() {
            assert_eq!(count, book.shard_rows(s), "{policy:?} shard {s} coverage");
        }
        assert_eq!(seen.iter().sum::<usize>(), vocab);
    }

    #[test]
    fn both_policies_partition_exactly() {
        for &vocab in &[1usize, 2, 7, 64, 100, 101] {
            for shards in 1..=8usize.min(vocab) {
                roundtrip(PartitionPolicy::Range, vocab, shards);
                roundtrip(PartitionPolicy::Hash, vocab, shards);
            }
        }
    }

    #[test]
    fn range_matches_row_partition() {
        let book = PartitionBook::new(PartitionPolicy::Range, 10, 3);
        // row_partition(10, 3) = [0..4, 4..7, 7..10]
        assert_eq!(book.owner_of(0), Ok(0));
        assert_eq!(book.owner_of(3), Ok(0));
        assert_eq!(book.owner_of(4), Ok(1));
        assert_eq!(book.owner_of(9), Ok(2));
        assert_eq!(book.local_index(7), 0);
        assert_eq!(book.shard_rows(0), 4);
    }

    #[test]
    fn hash_spreads_consecutive_rows() {
        let book = PartitionBook::new(PartitionPolicy::Hash, 10, 3);
        let owners: Vec<usize> = (0..6u32).map(|r| book.owner_of(r).expect("in range")).collect();
        assert_eq!(owners, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(book.shard_rows(0), 4); // rows 0, 3, 6, 9
        assert_eq!(book.shard_rows(1), 3); // rows 1, 4, 7
    }

    #[test]
    fn out_of_range_row_is_a_typed_error() {
        let book = PartitionBook::new(PartitionPolicy::Range, 10, 3);
        assert_eq!(book.owner_of(10), Err(PsError::RowOutOfRange { row: 10, vocab: 10 }));
        let book = PartitionBook::new(PartitionPolicy::Hash, 10, 3);
        assert_eq!(book.owner_of(99), Err(PsError::RowOutOfRange { row: 99, vocab: 10 }));
    }
}

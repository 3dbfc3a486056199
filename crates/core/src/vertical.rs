//! Vertical Sparse Scheduling — the paper's Algorithm 1.
//!
//! After BP, the raw embedding gradient `G` is coalesced; the unique
//! tokens of this worker's current batch (`Du`) are intersected with the
//! *gathered* next-iteration data (`D_next`, known thanks to the
//! prefetcher) to find `i_prior`, the rows the next FP actually depends
//! on. Those rows become the *prior* gradient (communicated at highest
//! priority, before the next embedding FP); the rest are *delayed* and
//! communicated at lowest priority, overlapped with the next iteration.
//!
//! The algorithm's seven set operations run as one pass: the batch is
//! sorted once, each distinct row is summed as it is met and emitted
//! straight into `G_p` or `G_d` according to a membership test against
//! `D_next`, which is never sorted (see `TokenSet`).

use embrace_tensor::{coalesce_split, unique_sorted, IndexSet, RowSparse};

/// Result of Algorithm 1: the prior/delayed gradient split.
#[derive(Clone, Debug)]
pub struct VerticalSplit {
    /// `G_p` — rows in `Du ∩ D_next`; must finish before the next
    /// embedding FP.
    pub prior: RowSparse,
    /// `G_d` — rows in `Du \ i_prior`; may be delayed arbitrarily within
    /// the step.
    pub delayed: RowSparse,
    /// `i_prior`, sorted.
    pub i_prior: IndexSet,
    /// `i_delayed`, sorted.
    pub i_delayed: IndexSet,
}

impl VerticalSplit {
    /// Rows in the coalesced gradient (prior + delayed).
    pub fn total_rows(&self) -> usize {
        self.prior.nnz_rows() + self.delayed.nnz_rows()
    }
}

/// Membership in a token list. A bitmap over the list's own id span
/// when that costs no more than the list itself (`span / 64 ≤ len`: every
/// embedding batch, whose ids are dense in the vocabulary), else the
/// sorted list under binary search.
enum TokenSet {
    Bits { lo: u32, words: Vec<u64> },
    Sorted(Vec<u32>),
}

impl TokenSet {
    fn of(tokens: &[u32]) -> Self {
        let lo = tokens.iter().copied().min().unwrap_or(0);
        let hi = tokens.iter().copied().max().unwrap_or(0);
        let span = (hi - lo) as usize;
        if span / 64 > tokens.len() {
            let mut sorted = tokens.to_vec();
            sorted.sort_unstable();
            return TokenSet::Sorted(sorted);
        }
        let mut words = vec![0u64; span / 64 + 1];
        for &t in tokens {
            let bit = (t - lo) as usize;
            words[bit / 64] |= 1 << (bit % 64);
        }
        TokenSet::Bits { lo, words }
    }

    fn contains(&self, id: u32) -> bool {
        match self {
            TokenSet::Bits { lo, words } => {
                let Some(bit) = id.checked_sub(*lo) else { return false };
                words.get(bit as usize / 64).is_some_and(|w| w >> (bit % 64) & 1 == 1)
            }
            TokenSet::Sorted(sorted) => sorted.binary_search(&id).is_ok(),
        }
    }
}

/// Algorithm 1 (Vertical Sparse Scheduling).
///
/// * `grad` — the raw (possibly uncoalesced) sparse gradient `G`;
/// * `d_cur_rank` — this process's training data for the current
///   iteration, `D_cur[n]` (token ids, duplicates allowed);
/// * `d_next_gathered` — the gathered (all workers') training data for the
///   next iteration, `D_next`.
///
/// Returns `{G_p, G_d}` plus the index sets. `G_p ∪ G_d` carries exactly
/// the coalesced gradient, with disjoint row sets (tested below).
pub fn vertical_split(
    grad: &RowSparse,
    d_cur_rank: &[u32],
    d_next_gathered: &[u32],
) -> VerticalSplit {
    let d_next = TokenSet::of(d_next_gathered);
    // Line 3: Du ← UNIQUE(D_cur[n]). The usual caller passes the batch the
    // gradient was taken on, and Du is then the coalesced row ids; a
    // caller whose token list differs gets Du from that list, and rows
    // outside it belong to neither part.
    let du = (d_cur_rank != grad.indices()).then(|| unique_sorted(d_cur_rank));
    // Lines 2 and 4-7: coalesce, and send each row of Du to G_p when
    // D_next holds its id (i_prior = Du ∩ D_next), else to G_d.
    let (prior, delayed) = coalesce_split(grad, |id| match &du {
        Some(du) if du.binary_search(&id).is_err() => None,
        _ => Some(d_next.contains(id)),
    });
    let (i_prior, i_delayed) = match du {
        Some(du) => du.into_iter().partition(|&id| d_next.contains(id)),
        None => (prior.indices().to_vec(), delayed.indices().to_vec()),
    };
    VerticalSplit { prior, delayed, i_prior, i_delayed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_tensor::{coalesce, intersect, DenseTensor};

    /// Gradient whose rows mirror the batch tokens (as an embedding BP
    /// produces): tokens [5,1,5,2], grad value = token id.
    fn sample() -> (RowSparse, Vec<u32>) {
        let tokens = vec![5u32, 1, 5, 2];
        let vals = DenseTensor::from_vec(4, 1, vec![5.0, 1.0, 5.0, 2.0]);
        (RowSparse::new(tokens.clone(), vals), tokens)
    }

    #[test]
    fn splits_by_next_batch_intersection() {
        let (g, d_cur) = sample();
        // Next iteration (all workers) uses tokens 5 and 7.
        let split = vertical_split(&g, &d_cur, &[7, 5, 7]);
        assert_eq!(split.i_prior, vec![5]);
        assert_eq!(split.i_delayed, vec![1, 2]);
        assert_eq!(split.prior.indices(), &[5]);
        assert_eq!(split.prior.values().as_slice(), &[10.0]); // coalesced 5+5
        assert_eq!(split.delayed.indices(), &[1, 2]);
    }

    #[test]
    fn union_carries_coalesced_gradient() {
        let (g, d_cur) = sample();
        let split = vertical_split(&g, &d_cur, &[1, 5]);
        let merged = RowSparse::concat(&[split.prior.clone(), split.delayed.clone()]);
        assert_eq!(coalesce(&merged), coalesce(&g));
    }

    #[test]
    fn disjoint_index_sets() {
        let (g, d_cur) = sample();
        let split = vertical_split(&g, &d_cur, &[2]);
        assert!(intersect(&split.i_prior, &split.i_delayed).is_empty());
        let mut all = [split.i_prior.clone(), split.i_delayed.clone()].concat();
        all.sort_unstable();
        assert_eq!(all, unique_sorted(&d_cur));
    }

    #[test]
    fn empty_next_batch_delays_everything() {
        let (g, d_cur) = sample();
        let split = vertical_split(&g, &d_cur, &[]);
        assert!(split.prior.is_empty());
        assert_eq!(split.delayed.nnz_rows(), 3);
    }

    #[test]
    fn full_overlap_prioritises_everything() {
        let (g, d_cur) = sample();
        let split = vertical_split(&g, &d_cur, &d_cur);
        assert!(split.delayed.is_empty());
        assert_eq!(split.prior.nnz_rows(), 3);
    }

    #[test]
    fn next_tokens_absent_from_current_are_ignored() {
        let (g, d_cur) = sample();
        // Token 9 is in the next batch but had no gradient here.
        let split = vertical_split(&g, &d_cur, &[9, 1]);
        assert_eq!(split.i_prior, vec![1]);
        assert!(!split.i_prior.contains(&9));
    }

    #[test]
    fn empty_gradient() {
        let g = RowSparse::empty(3);
        let split = vertical_split(&g, &[], &[1, 2]);
        assert!(split.prior.is_empty() && split.delayed.is_empty());
        assert_eq!(split.total_rows(), 0);
    }
}

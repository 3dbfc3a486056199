//! `COALESCE` — merge duplicate rows of a row-sparse gradient by summation.
//!
//! This is line 2 of the paper's Algorithm 1 (Vertical Sparse Scheduling):
//! NLP batches contain duplicate and padded tokens, so the raw embedding
//! gradient has repeated coordinates; summing them shrinks the gradient by
//! 20–85% depending on the model (paper Table 3).

use crate::dense::DenseTensor;
use crate::sparse::RowSparse;

/// True when indices are strictly increasing (each row appears once).
pub fn is_coalesced(grad: &RowSparse) -> bool {
    grad.indices().windows(2).all(|w| w[0] < w[1])
}

/// Return a coalesced copy: indices strictly increasing, duplicate rows
/// summed. Idempotent; the dense materialisation is preserved exactly
/// (summation is performed in the same f32 precision PyTorch uses).
///
/// Already-coalesced input returns an O(1) shared handle onto the same
/// storage (no gradient bytes are copied); see [`RowSparse::share`].
pub fn coalesce(grad: &RowSparse) -> RowSparse {
    if is_coalesced(grad) {
        return grad.share();
    }
    let mut out = Coalescer::for_rows_of(grad);
    for (id, row) in sorted_rows(grad) {
        out.add(id, row);
    }
    out.finish()
}

/// [`coalesce`] and partition in one pass: every distinct row id is
/// summed exactly as `coalesce` sums it (duplicates in input order) and
/// `route(id)` — asked once per distinct id, in ascending order — sends
/// the summed row to the first output (`Some(true)`), the second
/// (`Some(false)`) or neither (`None`). Both outputs are coalesced.
pub fn coalesce_split(
    grad: &RowSparse,
    mut route: impl FnMut(u32) -> Option<bool>,
) -> (RowSparse, RowSparse) {
    let (mut first, mut second) = (Coalescer::for_rows_of(grad), Coalescer::for_rows_of(grad));
    let mut current = None;
    for (id, row) in sorted_rows(grad) {
        let dest = match current {
            Some((last, dest)) if last == id => dest,
            _ => route(id),
        };
        current = Some((id, dest));
        match dest {
            Some(true) => first.add(id, row),
            Some(false) => second.add(id, row),
            None => {}
        }
    }
    (first.finish(), second.finish())
}

/// Builds a coalesced gradient from rows arriving in ascending id order,
/// summing a row into its predecessor when the id repeats.
struct Coalescer {
    dim: usize,
    indices: Vec<u32>,
    /// Zeroed for the worst case up front, so a new row is copied into
    /// place (growing the `Vec` a row at a time would be a `memset` call
    /// per row); [`Self::finish`] cuts it to the rows written.
    values: Vec<f32>,
}

impl Coalescer {
    /// Sized for the worst case: every row of `grad` distinct.
    fn for_rows_of(grad: &RowSparse) -> Self {
        let (rows, dim) = (grad.nnz_rows(), grad.dim());
        Coalescer { dim, indices: Vec::with_capacity(rows), values: vec![0.0; rows * dim] }
    }

    #[inline]
    fn add(&mut self, id: u32, row: &[f32]) {
        let end = self.indices.len() * self.dim;
        if self.indices.last() == Some(&id) {
            crate::kernels::add_assign(&mut self.values[end - self.dim..end], row);
        } else {
            self.indices.push(id);
            crate::kernels::copy_row(&mut self.values[end..end + self.dim], row);
        }
    }

    fn finish(mut self) -> RowSparse {
        let rows = self.indices.len();
        self.values.truncate(rows * self.dim);
        RowSparse::new(self.indices, DenseTensor::from_vec(rows, self.dim, self.values))
    }
}

/// `grad`'s rows in ascending id order, duplicates in input order.
fn sorted_rows(grad: &RowSparse) -> impl Iterator<Item = (u32, &[f32])> {
    let (ids, values, dim) = (grad.indices(), grad.values().as_slice(), grad.dim());
    sort_permutation(ids).into_iter().map(move |src| {
        let src = src as usize;
        (ids[src], &values[src * dim..(src + 1) * dim])
    })
}

/// Stable permutation sorting `ids` ascending: `perm[k]` is the original
/// position of the k-th smallest id, duplicates kept in input order, so
/// duplicate rows are summed first to last downstream. A stable sort
/// permutation is unique, so this is exactly what any stable sort returns.
///
/// One LSD radix sort on `id − min`: as many digits as the span's bit
/// length needs at [`RADIX_BITS`] bits each, split evenly — one pass below
/// 2¹¹, two up to 2²² (embedding batches: `train_sparse`'s 2¹⁸-row table,
/// the service's 2²⁰), three over the whole `u32` range. Each pass scatters
/// positions in their current order, which is what keeps it stable.
pub(crate) fn sort_permutation(ids: &[u32]) -> Vec<u32> {
    let n = ids.len();
    assert!(n <= u32::MAX as usize, "sort_permutation numbers rows as u32");
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let (mut min, mut max) = (u32::MAX, 0);
    for &i in ids {
        min = min.min(i);
        max = max.max(i);
    }
    if min >= max {
        // Empty, or every id equal: input order is the sorted order.
        return perm;
    }
    let bits = u32::BITS - (max - min).leading_zeros();
    let passes = bits.div_ceil(RADIX_BITS) as usize;
    let width = bits.div_ceil(passes as u32);
    let buckets = 1 << width;
    let digit =
        |id: u32, pass: usize| ((id - min) >> (pass as u32 * width)) as usize & (buckets - 1);
    // Every pass's bucket sizes from one sweep over the ids, then each
    // pass's run of buckets turned into their start slots.
    let mut starts = vec![0usize; passes * buckets];
    for &id in ids {
        for pass in 0..passes {
            starts[pass * buckets + digit(id, pass)] += 1;
        }
    }
    let mut next = vec![0u32; n];
    for (pass, starts) in starts.chunks_exact_mut(buckets).enumerate() {
        let mut sum = 0;
        for s in starts.iter_mut() {
            (*s, sum) = (sum, sum + *s);
        }
        for &p in &perm {
            let slot = &mut starts[digit(ids[p as usize], pass)];
            next[*slot] = p;
            *slot += 1;
        }
        std::mem::swap(&mut perm, &mut next);
    }
    perm
}

/// Widest digit of [`sort_permutation`]: a pass's 2¹¹ `usize` bucket
/// counts, 16 KiB, stay in L1.
const RADIX_BITS: u32 = 11;

#[cfg(test)]
mod tests {
    use super::*;

    fn uncoalesced() -> RowSparse {
        RowSparse::new(
            vec![5, 1, 5, 1, 2],
            DenseTensor::from_vec(5, 1, vec![1.0, 10.0, 2.0, 20.0, 7.0]),
        )
    }

    #[test]
    fn merges_duplicates_and_sorts() {
        let c = coalesce(&uncoalesced());
        assert_eq!(c.indices(), &[1, 2, 5]);
        assert_eq!(c.values().as_slice(), &[30.0, 7.0, 3.0]);
        assert!(is_coalesced(&c));
    }

    #[test]
    fn idempotent() {
        let once = coalesce(&uncoalesced());
        let twice = coalesce(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn preserves_dense_materialisation() {
        let g = uncoalesced();
        assert_eq!(coalesce(&g).to_dense(8), g.to_dense(8));
    }

    #[test]
    fn empty_is_coalesced() {
        let e = RowSparse::empty(3);
        assert!(is_coalesced(&e));
        assert_eq!(coalesce(&e), e);
    }

    #[test]
    fn single_row() {
        let g = RowSparse::new(vec![4], DenseTensor::from_vec(1, 2, vec![1.0, 2.0]));
        let c = coalesce(&g);
        assert_eq!(c, g);
    }

    #[test]
    fn already_sorted_fast_path() {
        let g = RowSparse::new(vec![0, 2, 9], DenseTensor::zeros(3, 2));
        assert!(is_coalesced(&g));
        assert_eq!(coalesce(&g).indices(), &[0, 2, 9]);
    }

    #[test]
    fn fast_path_shares_instead_of_copying() {
        let g = RowSparse::new(vec![0, 2, 9], DenseTensor::zeros(3, 2));
        crate::alloc_counter::reset();
        let c = coalesce(&g);
        assert_eq!(crate::alloc_counter::events(), 0, "coalesced input must not be copied");
        assert!(c.values().is_shared() && g.values().is_shared());
    }

    #[test]
    fn wide_range_input_still_coalesces() {
        let g = RowSparse::new(
            vec![4_000_000, 7, 4_000_000],
            DenseTensor::from_vec(3, 1, vec![1.0, 10.0, 2.0]),
        );
        let c = coalesce(&g);
        assert_eq!(c.indices(), &[7, 4_000_000]);
        assert_eq!(c.values().as_slice(), &[10.0, 3.0]);
    }
}

//! K-way merge of coalesced row-sparse streams — the reduction kernel of
//! `sparse_allreduce`, which merges every rank's gathered block.
//!
//! Each input stream is a coalesced `(index, row)` list; the merge produces
//! the coalesced sum: the union of the index sets, with rows present in
//! several streams summed in *stream order* (stream 0's contribution first).
//! Stream order is what makes the reduction deterministic: every rank that
//! merges the same streams in the same order produces bitwise-identical
//! f32 sums.

use crate::dense::DenseTensor;
use crate::sparse::RowSparse;
use crate::{alloc_counter, F32_BYTES, INDEX_BYTES};

/// Merge `parts` (each coalesced, same `dim`) into one coalesced stream,
/// summing rows with equal indices in part order.
///
/// Fast path: when at most one part is non-empty the result is an O(1)
/// shared handle onto it ([`RowSparse::share`]) — no bytes are copied. The
/// slow path materialises exactly one index buffer and one value buffer
/// (both counted by [`crate::alloc_counter`]).
///
/// Panics when `parts` is empty, dims disagree, or a part is uncoalesced.
pub fn merge_rowsparse(parts: &[RowSparse]) -> RowSparse {
    assert!(!parts.is_empty(), "cannot merge zero streams");
    let dim = parts[0].dim();
    for p in parts {
        assert_eq!(p.dim(), dim, "dim mismatch in sparse merge");
        assert!(crate::is_coalesced(p), "merge_rowsparse requires coalesced streams");
    }
    let live: Vec<&RowSparse> = parts.iter().filter(|p| !p.is_empty()).collect();
    match live.len() {
        0 => return RowSparse::empty(dim),
        1 => return live[0].share(),
        _ => {}
    }

    let upper: usize = live.iter().map(|p| p.nnz_rows()).sum();
    let mut indices: Vec<u32> = Vec::with_capacity(upper);
    // Zeroed for the worst case so each output row is copied into place,
    // as in the coalescer; cut to the rows produced below.
    let mut values: Vec<f32> = vec![0.0; upper * dim];
    let mut cursor = vec![0usize; live.len()];
    loop {
        let mut next: Option<u32> = None;
        for (k, p) in live.iter().enumerate() {
            if let Some(&idx) = p.indices().get(cursor[k]) {
                next = Some(next.map_or(idx, |n| n.min(idx)));
            }
        }
        let Some(idx) = next else { break };
        let at = indices.len() * dim;
        indices.push(idx);
        let out = &mut values[at..at + dim];
        let mut first = true;
        for (k, p) in live.iter().enumerate() {
            if p.indices().get(cursor[k]) == Some(&idx) {
                let row = p.values().row(cursor[k]);
                if first {
                    crate::kernels::copy_row(out, row);
                    first = false;
                } else {
                    crate::kernels::add_assign(out, row);
                }
                cursor[k] += 1;
            }
        }
    }
    values.truncate(indices.len() * dim);
    alloc_counter::note(indices.len() * INDEX_BYTES + values.len() * F32_BYTES);
    let rows = indices.len();
    RowSparse::new(indices, DenseTensor::from_vec(rows, dim, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(indices: Vec<u32>, vals: Vec<f32>) -> RowSparse {
        let rows = indices.len();
        let dim = vals.len().checked_div(rows).unwrap_or(2);
        RowSparse::new(indices, DenseTensor::from_vec(rows, dim, vals))
    }

    #[test]
    fn merges_disjoint_streams_in_index_order() {
        let a = rs(vec![1, 5], vec![1.0, 1.0, 5.0, 5.0]);
        let b = rs(vec![0, 9], vec![0.5, 0.5, 9.0, 9.0]);
        let m = merge_rowsparse(&[a, b]);
        assert_eq!(m.indices(), &[0, 1, 5, 9]);
        assert_eq!(m.values().row(0), &[0.5, 0.5]);
        assert_eq!(m.values().row(3), &[9.0, 9.0]);
    }

    #[test]
    fn sums_duplicates_in_stream_order() {
        let a = rs(vec![3], vec![1.0, 2.0]);
        let b = rs(vec![3], vec![10.0, 20.0]);
        let c = rs(vec![3], vec![100.0, 200.0]);
        let m = merge_rowsparse(&[a, b, c]);
        assert_eq!(m.indices(), &[3]);
        assert_eq!(m.values().row(0), &[111.0, 222.0]);
    }

    #[test]
    fn merge_matches_dense_materialisation() {
        let a = rs(vec![0, 2, 3], vec![1., 1., 2., 2., 3., 3.]);
        let b = rs(vec![2, 4], vec![0.25, 0.25, 4., 4.]);
        let m = merge_rowsparse(&[a.clone(), b.clone()]);
        let mut expect = a.to_dense(6);
        expect.add_assign(&b.to_dense(6));
        assert_eq!(m.to_dense(6), expect);
        assert!(crate::is_coalesced(&m));
    }

    #[test]
    fn single_live_stream_is_shared_not_copied() {
        let a = rs(vec![1, 2], vec![1., 1., 2., 2.]);
        let e = RowSparse::empty(2);
        crate::alloc_counter::reset();
        let m = merge_rowsparse(&[e, a.clone()]);
        assert_eq!(crate::alloc_counter::events(), 0, "fast path must not allocate");
        assert!(m.values().is_shared() && a.values().is_shared());
        assert_eq!(m, a);
    }

    #[test]
    fn all_empty_streams_merge_to_empty() {
        let m = merge_rowsparse(&[RowSparse::empty(3), RowSparse::empty(3)]);
        assert!(m.is_empty());
        assert_eq!(m.dim(), 3);
    }

    #[test]
    fn slow_path_counts_exactly_one_materialisation() {
        let a = rs(vec![1], vec![1., 1.]);
        let b = rs(vec![2], vec![2., 2.]);
        crate::alloc_counter::reset();
        let _ = merge_rowsparse(&[a, b]);
        assert_eq!(crate::alloc_counter::events(), 1, "one counted buffer per merge");
    }

    #[test]
    #[should_panic(expected = "coalesced")]
    fn uncoalesced_input_panics() {
        let bad = rs(vec![5, 1], vec![0.; 4]);
        let _ = merge_rowsparse(&[bad]);
    }
}

//! In-crate property tests of the tensor algebra the whole workspace
//! leans on. (Cross-crate properties — Algorithm 1, collectives — live in
//! the top-level `tests/proptests.rs`.)

#![cfg(test)]

use crate::{coalesce, column_partition, is_coalesced, row_partition, DenseTensor, RowSparse};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = DenseTensor> {
    prop::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |data| DenseTensor::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn concat_columns_inverts_slicing(t in tensor(4, 9), cut1 in 0usize..9, cut2 in 0usize..9) {
        let (a, b) = (cut1.min(cut2), cut1.max(cut2));
        let parts = [t.slice_columns(0, a), t.slice_columns(a, b), t.slice_columns(b, 9)];
        let non_empty: Vec<DenseTensor> =
            parts.iter().filter(|p| p.cols() > 0).cloned().collect();
        if !non_empty.is_empty() {
            prop_assert_eq!(DenseTensor::concat_columns(&non_empty), t);
        }
    }

    #[test]
    fn concat_rows_inverts_row_gather(t in tensor(6, 3)) {
        let blocks: Vec<DenseTensor> =
            (0..6u32).map(|r| t.gather_rows(&[r])).collect();
        prop_assert_eq!(DenseTensor::concat_rows(&blocks), t);
    }

    #[test]
    fn axpy_matches_scalar_arithmetic(
        a in tensor(2, 3),
        b in tensor(2, 3),
        alpha in -5.0f32..5.0,
        // (dst, fwd) element pairs for the fused ring reduce: lengths
        // 0..=20 cover empty, shorter than any SIMD width, ragged tails.
        pairs in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..21),
    ) {
        let mut got = a.clone();
        got.axpy(alpha, &b);
        for i in 0..a.len() {
            let want = a.as_slice()[i] + alpha * b.as_slice()[i];
            prop_assert!((got.as_slice()[i] - want).abs() < 1e-3);
        }
        // `add_assign_both` is `add_assign` followed by a copy, bit for bit.
        let (mut dst, mut fwd): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let mut want = dst.clone();
        crate::kernels::add_assign(&mut want, &fwd);
        crate::kernels::add_assign_both(&mut dst, &mut fwd);
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor(3, 4),
        b in tensor(4, 2),
        c in tensor(4, 2),
    ) {
        // A·(B + C) == A·B + A·C, within f32 tolerance.
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-1), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn products_equal_index_loops_bitwise(
        n in 0usize..=20,
        k in 0usize..=20,
        m in 0usize..=20,
        seed in 0u64..1 << 32,
    ) {
        use crate::dense::matmul_tests::{index_loop_products, kernel_products};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let [a, b, c, d] = [(n, k), (k, m), (n, m), (m, k)]
            .map(|(r, w)| DenseTensor::uniform(r, w, 100.0, &mut rng));
        prop_assert_eq!(kernel_products(&a, &b, &c, &d), index_loop_products(&a, &b, &c, &d));
    }

    #[test]
    fn sparse_dense_roundtrip(
        indices in prop::collection::vec(0u32..20, 0..15),
        dim in 1usize..4,
    ) {
        let values = DenseTensor::full(indices.len(), dim, 1.5);
        let sparse = RowSparse::new(indices, values);
        let dense = sparse.to_dense(20);
        let back = RowSparse::from_dense_nonzero(&dense);
        prop_assert!(is_coalesced(&back));
        prop_assert!(back.to_dense(20).approx_eq(&dense, 1e-5));
        let coalesced = coalesce(&sparse);
        prop_assert_eq!(back.indices(), coalesced.indices());
    }

    #[test]
    fn partitions_tile_exactly(total in 1usize..200, parts in 1usize..20) {
        let cols = column_partition(total, parts);
        prop_assert_eq!(cols.len(), parts);
        prop_assert_eq!(cols[0].start, 0);
        prop_assert_eq!(cols.last().unwrap().end, total);
        for w in cols.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Near-equal widths: max - min <= 1.
        let widths: Vec<usize> = cols.iter().map(|c| c.width()).collect();
        prop_assert!(widths.iter().max().unwrap() - widths.iter().min().unwrap() <= 1);

        let rows = row_partition(total, parts);
        prop_assert_eq!(rows.iter().map(|r| r.len()).sum::<usize>(), total);
    }

    #[test]
    fn coalesce_row_count_bounds(
        indices in prop::collection::vec(0u32..10, 0..40),
    ) {
        let n = indices.len();
        let sparse = RowSparse::new(indices.clone(), DenseTensor::zeros(n, 2));
        let c = coalesce(&sparse);
        let mut unique = indices;
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(c.nnz_rows(), unique.len());
        prop_assert!(c.nnz_rows() <= n);
    }
}

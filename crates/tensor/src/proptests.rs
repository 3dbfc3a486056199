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
    fn add_to_is_a_copy_then_add_assign_bitwise(
        // (own, incoming) element pairs of any bit pattern, NaNs and
        // infinities included: the ring's out-of-place reduce must keep
        // the `own + incoming` operand order of the in-place fold.
        pairs in prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..41),
    ) {
        let floats = pairs.into_iter().map(|(a, b)| (f32::from_bits(a), f32::from_bits(b)));
        let (own, incoming): (Vec<f32>, Vec<f32>) = floats.unzip();
        let mut want = vec![0.0; own.len()];
        want.copy_from_slice(&own);
        crate::kernels::add_assign(&mut want, &incoming);
        let mut got = vec![1.0; own.len()];
        crate::kernels::add_to(&mut got, &own, &incoming);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
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

    // The radix permutation is the stable sort's, on batches of up to 3000
    // ids drawn from a pool of at most 64, so ties are many. Spans: 0
    // (every id equal), under 2¹¹ (one pass), 2¹⁸ and 2²⁰ (two passes),
    // and all of `u32` with both 0 and `u32::MAX` present (three passes).
    #[test]
    fn sort_permutation_is_the_stable_sort(
        n in 0usize..=3000,
        span in 0usize..5,
        distinct in 1usize..=64,
        seed in 0u64..1 << 32,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let base = |rng: &mut StdRng, width: u32| rng.gen_range(0..=u32::MAX - width);
        let (lo, hi) = match span {
            0 => {
                let x = base(&mut rng, 0);
                (x, x)
            }
            1 => {
                let lo = base(&mut rng, 1 << 11);
                (lo, lo + rng.gen_range(1u32..1 << 11))
            }
            2 | 3 => {
                let width = if span == 2 { 1 << 18 } else { 1 << 20 };
                let lo = base(&mut rng, width);
                (lo, lo + width)
            }
            _ => (0, u32::MAX),
        };
        let pool: Vec<u32> = (0..distinct).map(|_| rng.gen_range(lo..=hi)).collect();
        let mut ids: Vec<u32> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        if n >= 2 {
            // Both ends of the span, so the pass count is the span's.
            ids[rng.gen_range(0..n / 2)] = lo;
            ids[rng.gen_range(n / 2..n)] = hi;
        }
        let mut want: Vec<u32> = (0..n as u32).collect();
        want.sort_by_key(|&i| ids[i as usize]);
        prop_assert_eq!(crate::coalesce::sort_permutation(&ids), want);
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

//! Contiguous row-major 2-D `f32` tensors.
//!
//! A deliberately small surface: the reproduction needs construction,
//! element-wise arithmetic, row/column slicing and (de)serialisation into
//! flat buffers, not a full BLAS.

use rand::Rng;
use std::sync::Arc;

/// A dense row-major matrix of `f32`.
///
/// One-dimensional tensors are represented as `rows == 1`. All binary
/// operations panic on shape mismatch — shape errors are programming errors
/// in this codebase, not recoverable conditions.
///
/// # Storage
///
/// The element buffer is `Arc`-shared: [`Clone`] (and its documented alias
/// [`DenseTensor::share`]) is O(1) — it bumps a reference count instead of
/// copying `rows × cols` floats, which is what makes collective fan-out
/// sends cheap. Mutation is copy-on-write: the first mutating call on a
/// tensor whose buffer is shared materialises a private copy (counted by
/// [`crate::alloc_counter`]); an exclusively-owned tensor mutates in place
/// with no allocation, exactly like the plain-`Vec` representation. Every
/// [`DenseTensor::row_mut`] / [`DenseTensor::as_mut_slice`] call performs
/// that uniqueness check (an atomic load plus a compare-exchange), so a
/// loop over rows takes [`DenseTensor::rows_mut`] or the slice once,
/// outside the loop.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseTensor {
    rows: usize,
    cols: usize,
    data: Arc<Vec<f32>>,
}

impl DenseTensor {
    /// Wrap a freshly materialised buffer, recording the allocation.
    fn fresh(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        crate::alloc_counter::note(data.len() * crate::F32_BYTES);
        Self { rows, cols, data: Arc::new(data) }
    }

    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::fresh(rows, cols, vec![0.0; rows * cols])
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self::fresh(rows, cols, vec![value; rows * cols])
    }

    /// Build from an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { rows, cols, data: Arc::new(data) }
    }

    /// A tensor with entries drawn uniformly from `[-scale, scale]`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self::fresh(rows, cols, data)
    }

    /// O(1) handle onto the same storage (an `Arc` bump). Semantically
    /// identical to [`Clone::clone`]; spelled out at collective send sites
    /// so the `payload-clone` lint can tell cheap sharing from deep copies.
    pub fn share(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: Arc::clone(&self.data) }
    }

    /// True when other handles alias this buffer — the next mutating call
    /// will copy-on-write instead of mutating in place.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// Exclusive access to the element buffer, copy-on-write when shared.
    fn data_mut(&mut self) -> &mut Vec<f32> {
        if self.is_shared() {
            crate::alloc_counter::note(self.data.len() * crate::F32_BYTES);
        }
        Arc::make_mut(&mut self.data)
    }

    /// Reuse this tensor as a 1 × `src.len()` staging row, copying `src`
    /// into the existing buffer. Allocation-free when the storage is
    /// exclusively owned and its capacity suffices — the ring-allreduce
    /// steady state, where one staging buffer circulates for the whole
    /// 2·(N−1)-step schedule.
    pub fn stage_row(&mut self, src: &[f32]) {
        self.rows = 1;
        self.cols = src.len();
        let v = self.data_mut();
        if v.capacity() < src.len() {
            crate::alloc_counter::note(src.len() * crate::F32_BYTES);
        }
        v.clear();
        v.extend_from_slice(src);
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes when stored (or transmitted) densely.
    pub fn nbytes(&self) -> usize {
        self.len() * crate::F32_BYTES
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut()
    }

    /// Take the buffer out. Free when this handle is the only owner;
    /// copies (and counts the allocation) when the storage is shared.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| {
            crate::alloc_counter::note(shared.len() * crate::F32_BYTES);
            (*shared).clone()
        })
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        let cols = self.cols;
        &mut self.data_mut()[r * cols..(r + 1) * cols]
    }

    /// Every row in order, mutably: one copy-on-write check for the whole
    /// pass instead of one per [`Self::row_mut`] call.
    pub fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, f32> {
        let cols = self.cols;
        // A zero-width tensor has no elements: any chunk size yields nothing.
        self.data_mut().chunks_exact_mut(cols.max(1))
    }

    /// Every row in order (see [`Self::rows_mut`] for the zero-width case).
    pub fn row_iter(&self) -> std::slice::ChunksExact<'_, f32> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &DenseTensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch in add");
        crate::kernels::add_assign(self.data_mut(), &other.data);
    }

    /// `self += alpha * other`, element-wise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &DenseTensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch in axpy");
        crate::kernels::scaled_add(self.data_mut(), alpha, &other.data);
    }

    /// `self *= alpha`, element-wise.
    pub fn scale(&mut self, alpha: f32) {
        crate::kernels::scale(self.data_mut(), alpha);
    }

    /// Set every element to zero without reallocating (unless shared, in
    /// which case copy-on-write materialises a private buffer first).
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Copy the rows given by `indices` (in order) into a new tensor.
    pub fn gather_rows(&self, indices: &[u32]) -> DenseTensor {
        let mut out = DenseTensor::zeros(indices.len(), self.cols);
        for (dst, &src) in out.rows_mut().zip(indices) {
            dst.copy_from_slice(self.row(src as usize));
        }
        out
    }

    /// Copy a half-open row range `[start, end)` into a new tensor — the
    /// row-split primitive the sparse-native allreduce uses to halve a
    /// densified segment at each recursive-halving step.
    pub fn slice_rows(&self, start: usize, end: usize) -> DenseTensor {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        let mut out = DenseTensor::zeros(end - start, self.cols);
        out.as_mut_slice().copy_from_slice(&self.data[start * self.cols..end * self.cols]);
        out
    }

    /// Copy a half-open column range `[start, end)` of every row.
    pub fn slice_columns(&self, start: usize, end: usize) -> DenseTensor {
        assert!(start <= end && end <= self.cols, "column range out of bounds");
        let width = end - start;
        let mut out = DenseTensor::zeros(self.rows, width);
        for (dst, src) in out.rows_mut().zip(self.row_iter()) {
            dst.copy_from_slice(&src[start..end]);
        }
        out
    }

    /// Write `block` into the column range starting at `start` of every row.
    pub fn set_columns(&mut self, start: usize, block: &DenseTensor) {
        assert_eq!(self.rows, block.rows, "row count mismatch in set_columns");
        assert!(start + block.cols <= self.cols, "column range out of bounds");
        for (dst, src) in self.rows_mut().zip(block.row_iter()) {
            dst[start..start + block.cols].copy_from_slice(src);
        }
    }

    /// Horizontally concatenate column blocks with identical row counts.
    pub fn concat_columns(blocks: &[DenseTensor]) -> DenseTensor {
        assert!(!blocks.is_empty(), "cannot concatenate zero blocks");
        let rows = blocks[0].rows;
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut out = DenseTensor::zeros(rows, cols);
        let mut offset = 0;
        for b in blocks {
            assert_eq!(b.rows, rows, "row count mismatch in concat_columns");
            out.set_columns(offset, b);
            offset += b.cols;
        }
        out
    }

    /// Vertically concatenate row blocks with identical column counts.
    pub fn concat_rows(blocks: &[DenseTensor]) -> DenseTensor {
        assert!(!blocks.is_empty(), "cannot concatenate zero blocks");
        let cols = blocks[0].cols;
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            assert_eq!(b.cols, cols, "column count mismatch in concat_rows");
            data.extend_from_slice(&b.data);
        }
        DenseTensor::fresh(rows, cols, data)
    }

    /// Maximum absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0_f32, f32::max)
    }

    /// True when all elements differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &DenseTensor, tol: f32) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zeros_shape_and_bytes() {
        let t = DenseTensor::zeros(3, 5);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 5);
        assert_eq!(t.len(), 15);
        assert_eq!(t.nbytes(), 60);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn full_and_sum() {
        let t = DenseTensor::full(2, 4, 0.5);
        assert_eq!(t.sum(), 4.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = DenseTensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len_panics() {
        let _ = DenseTensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn add_and_axpy_and_scale() {
        let mut a = DenseTensor::full(1, 3, 1.0);
        let b = DenseTensor::full(1, 3, 2.0);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 3.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[4.0, 4.0, 4.0]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let mut a = DenseTensor::zeros(1, 3);
        let b = DenseTensor::zeros(3, 1);
        a.add_assign(&b);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let t = DenseTensor::from_vec(3, 2, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[20.0, 21.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[20.0, 21.0]);
    }

    #[test]
    fn column_slice_and_set_roundtrip() {
        let t = DenseTensor::from_vec(2, 4, (0..8).map(|x| x as f32).collect());
        let s = t.slice_columns(1, 3);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[5.0, 6.0]);
        let mut u = DenseTensor::zeros(2, 4);
        u.set_columns(1, &s);
        assert_eq!(u.row(0), &[0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn concat_columns_reassembles_slices() {
        let t = DenseTensor::from_vec(2, 4, (0..8).map(|x| x as f32).collect());
        let parts = [t.slice_columns(0, 1), t.slice_columns(1, 3), t.slice_columns(3, 4)];
        assert_eq!(DenseTensor::concat_columns(&parts), t);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = DenseTensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = DenseTensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = DenseTensor::concat_rows(&[a, b]);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn uniform_respects_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = DenseTensor::uniform(8, 8, 0.1, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-0.1..=0.1).contains(&x)));
    }

    #[test]
    fn share_is_aliased_until_first_write() {
        let a = DenseTensor::full(2, 2, 1.0);
        assert!(!a.is_shared());
        let mut b = a.share();
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(a, b);
        // First write copies; the original is untouched.
        b.as_mut_slice()[0] = 9.0;
        assert!(!a.is_shared() && !b.is_shared());
        assert_eq!(a.as_slice()[0], 1.0);
        assert_eq!(b.as_slice()[0], 9.0);
    }

    #[test]
    fn clone_and_share_are_equivalent() {
        let a = DenseTensor::full(1, 3, 2.0);
        let c = a.clone();
        assert!(a.is_shared() && c.is_shared());
        assert_eq!(a, c);
    }

    #[test]
    fn into_vec_is_free_when_unique_and_copies_when_shared() {
        let a = DenseTensor::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(a.into_vec(), vec![1.0, 2.0]);
        let b = DenseTensor::from_vec(1, 2, vec![3.0, 4.0]);
        let keep = b.share();
        assert_eq!(b.into_vec(), vec![3.0, 4.0]);
        assert_eq!(keep.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn stage_row_reuses_capacity_without_allocating() {
        let mut scratch = DenseTensor::zeros(1, 8);
        crate::alloc_counter::reset();
        for k in 0..10 {
            let src: Vec<f32> = (0..8 - k % 3).map(|x| x as f32).collect();
            scratch.stage_row(&src);
            assert_eq!(scratch.rows(), 1);
            assert_eq!(scratch.cols(), src.len());
            assert_eq!(scratch.as_slice(), &src[..]);
        }
        assert_eq!(crate::alloc_counter::events(), 0, "staging must reuse the buffer");
    }

    #[test]
    fn stage_row_on_shared_storage_copies_on_write() {
        let mut scratch = DenseTensor::full(1, 4, 7.0);
        let alias = scratch.share();
        scratch.stage_row(&[1.0, 2.0]);
        assert_eq!(scratch.as_slice(), &[1.0, 2.0]);
        assert_eq!(alias.as_slice(), &[7.0; 4], "aliased handle must be untouched");
    }

    #[test]
    fn rows_mut_checks_copy_on_write_once_per_pass() {
        let mut own = DenseTensor::from_vec(3, 2, (0..6).map(|x| x as f32).collect());
        crate::alloc_counter::reset();
        for (r, row) in own.rows_mut().enumerate() {
            row[1] = r as f32;
        }
        assert_eq!(crate::alloc_counter::events(), 0, "exclusive storage mutates in place");
        assert_eq!(own.as_slice(), &[0.0, 0.0, 2.0, 1.0, 4.0, 2.0]);

        let sharer = own.share();
        crate::alloc_counter::reset();
        assert_eq!(own.rows_mut().len(), 3);
        for row in own.rows_mut() {
            row.fill(9.0);
        }
        assert_eq!(crate::alloc_counter::events(), 1, "one copy, made by the first pass");
        assert_eq!(crate::alloc_counter::bytes(), 6 * crate::F32_BYTES as u64);
        assert_eq!(sharer.as_slice(), &[0.0, 0.0, 2.0, 1.0, 4.0, 2.0], "sharer untouched");
        assert_eq!(own.as_slice(), &[9.0; 6]);
        // Zero-width and zero-row tensors have no rows to hand out.
        assert_eq!(DenseTensor::zeros(4, 0).rows_mut().len(), 0);
        assert_eq!(DenseTensor::zeros(0, 4).rows_mut().len(), 0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = DenseTensor::full(1, 2, 1.0);
        let mut b = a.clone();
        b.as_mut_slice()[0] = 1.0005;
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-4));
    }
}

impl DenseTensor {
    /// Matrix product `self(n×k) · other(k×m)`.
    pub fn matmul(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = DenseTensor::zeros(self.rows, other.cols);
        for (ar, or) in self.row_iter().zip(out.rows_mut()) {
            for (&av, br) in ar.iter().zip(other.row_iter()) {
                for (o, &bv) in or.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `selfᵀ(k×n) · other(n×m)` where `self` is `n×k` — the gradient of a
    /// matmul with respect to its right operand.
    pub fn matmul_tn(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.rows, other.rows, "leading dimensions must agree");
        let m = other.cols;
        let mut out = DenseTensor::zeros(self.cols, m);
        let acc = out.as_mut_slice();
        for (ar, br) in self.row_iter().zip(other.row_iter()) {
            for (&av, or) in ar.iter().zip(acc.chunks_exact_mut(m.max(1))) {
                for (o, &bv) in or.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `self(n×k) · otherᵀ(k×m)` where `other` is `m×k` — the gradient of
    /// a matmul with respect to its left operand.
    pub fn matmul_nt(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.cols, other.cols, "trailing dimensions must agree");
        let mut out = DenseTensor::zeros(self.rows, other.rows);
        for (ar, or) in self.row_iter().zip(out.rows_mut()) {
            for (o, br) in or.iter_mut().zip(other.row_iter()) {
                let mut dot = 0.0;
                for (&av, &bv) in ar.iter().zip(br) {
                    dot += av * bv;
                }
                *o = dot;
            }
        }
        out
    }
}

#[cfg(test)]
mod matmul_tests {
    use super::*;

    fn a() -> DenseTensor {
        DenseTensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])
    }

    fn b() -> DenseTensor {
        DenseTensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.])
    }

    #[test]
    fn matmul_basic() {
        let c = a().matmul(&b());
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let i = DenseTensor::from_vec(3, 3, vec![1., 0., 0., 0., 1., 0., 0., 0., 1.]);
        assert_eq!(a().matmul(&i), a());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        // aᵀ·b via matmul_tn equals transpose(a)·b via matmul.
        let at = DenseTensor::from_vec(3, 2, vec![1., 4., 2., 5., 3., 6.]);
        let c = DenseTensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert!(a().matmul_tn(&c).approx_eq(&at.matmul(&c), 1e-6));
        // a·bᵀ via matmul_nt equals a·transpose(b).
        let bt = DenseTensor::from_vec(2, 3, vec![7., 9., 11., 8., 10., 12.]);
        assert!(a().matmul_nt(&bt).approx_eq(&a().matmul(&b()), 1e-6));
    }

    /// The index-loop definitions the iterator forms must match bit for
    /// bit (same products, same accumulation order), at the shapes the
    /// toy trainer runs them: `a(n×k)·b(k×m)`, `aᵀ·c(n×m)`, `a·dᵀ` with
    /// `d(m×k)`.
    #[test]
    fn iterator_matmuls_match_index_loops_bitwise() {
        use rand::{rngs::StdRng, SeedableRng};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (n, k, m) in [(0, 4, 4), (1, 1024, 1024), (8192, 4, 4), (7, 3, 5), (3, 0, 2)] {
            let mut rng = StdRng::seed_from_u64((n * 31 + k * 7 + m) as u64);
            let [a, b, c, d] = [(n, k), (k, m), (n, m), (m, k)]
                .map(|(r, w)| DenseTensor::uniform(r, w, 1.0, &mut rng));
            let (av, bv, cv, dv) = (a.as_slice(), b.as_slice(), c.as_slice(), d.as_slice());
            let (mut nn, mut tn, mut nt) =
                (vec![0.0f32; n * m], vec![0.0f32; k * m], vec![0.0f32; n * m]);
            for i in 0..n {
                for p in 0..k {
                    for j in 0..m {
                        nn[i * m + j] += av[i * k + p] * bv[p * m + j];
                        tn[p * m + j] += av[i * k + p] * cv[i * m + j];
                    }
                }
                for j in 0..m {
                    let mut dot = 0.0;
                    for p in 0..k {
                        dot += av[i * k + p] * dv[j * k + p];
                    }
                    nt[i * m + j] = dot;
                }
            }
            assert_eq!(bits(a.matmul(&b).as_slice()), bits(&nn), "matmul {n}x{k}x{m}");
            assert_eq!(bits(a.matmul_tn(&c).as_slice()), bits(&tn), "matmul_tn {n}x{k}x{m}");
            assert_eq!(bits(a.matmul_nt(&d).as_slice()), bits(&nt), "matmul_nt {n}x{k}x{m}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let _ = a().matmul(&a());
    }
}

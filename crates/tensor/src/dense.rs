//! Contiguous row-major 2-D `f32` tensors.
//!
//! A deliberately small surface: the reproduction needs construction,
//! element-wise arithmetic, row/column slicing and (de)serialisation into
//! flat buffers, not a full BLAS.

use crate::kernels::{copy_row, NARROW};
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
            copy_row(dst, self.row(src as usize));
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
            copy_row(dst, &src[start..end]);
        }
        out
    }

    /// Write `block` into the column range starting at `start` of every row.
    pub fn set_columns(&mut self, start: usize, block: &DenseTensor) {
        assert_eq!(self.rows, block.rows, "row count mismatch in set_columns");
        assert!(start + block.cols <= self.cols, "column range out of bounds");
        for (dst, src) in self.rows_mut().zip(block.row_iter()) {
            copy_row(&mut dst[start..start + block.cols], src);
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

/// The three products share one contract: every output element is
/// `0.0 + p₀ + p₁ + …`, its products summed in ascending inner index,
/// whichever loop order computes it — so results are bitwise those of the
/// plain index loops (`iterator_matmuls_match_index_loops_bitwise`). Each
/// picks its loop order from the output width `m`: up to `NARROW`
/// columns, output tiles sit in fixed-size accumulators across the whole
/// inner loop; wider outputs stream their rows.
impl DenseTensor {
    /// Matrix product `self(n×k) · other(k×m)`.
    pub fn matmul(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let m = other.cols;
        let mut out = DenseTensor::zeros(self.rows, m);
        let b = other.as_slice();
        if !narrow_product(self, m, |p, j| b[p * m + j], out.data_mut()) {
            // Wide: row-axpy, bound by reading `other` once per row.
            for (ar, or) in self.row_iter().zip(out.rows_mut()) {
                for (&av, br) in ar.iter().zip(other.row_iter()) {
                    crate::kernels::scaled_add(or, av, br);
                }
            }
        }
        out
    }

    /// `selfᵀ(k×n) · other(n×m)` where `self` is `n×k` — the gradient of a
    /// matmul with respect to its right operand.
    pub fn matmul_tn(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.rows, other.rows, "leading dimensions must agree");
        let (k, m) = (self.cols, other.cols);
        let mut rows = self.row_iter().zip(other.row_iter());
        let mut out = match rows.next() {
            // Wide: the first row writes `0.0 + a·c` straight into a fresh
            // buffer, one pass over the output instead of a zero-fill and
            // an add.
            Some((a0, c0)) if m > NARROW => {
                let mut data = Vec::with_capacity(k * m);
                for &av in a0 {
                    data.extend(c0.iter().map(|&cv| 0.0 + av * cv));
                }
                DenseTensor::fresh(k, m, data)
            }
            _ => DenseTensor::zeros(k, m),
        };
        let acc = out.data_mut();
        match m {
            1 => tn_tiles::<1>(self, other, acc),
            2 => tn_tiles::<2>(self, other, acc),
            3 => tn_tiles::<3>(self, other, acc),
            NARROW => tn_tiles::<NARROW>(self, other, acc),
            // Wide: every later row axpys into the output rows.
            _ => {
                for (ar, cr) in rows {
                    for (&av, or) in ar.iter().zip(acc.chunks_exact_mut(m)) {
                        crate::kernels::scaled_add(or, av, cr);
                    }
                }
            }
        }
        out
    }

    /// `self(n×k) · otherᵀ(k×m)` where `other` is `m×k` — the gradient of
    /// a matmul with respect to its left operand.
    pub fn matmul_nt(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.cols, other.cols, "trailing dimensions must agree");
        let (k, m) = (self.cols, other.rows);
        let mut out = DenseTensor::zeros(self.rows, m);
        let d = other.as_slice();
        // Narrow: `other` read as its transpose, `otherᵀ[p][j] = d[j][p]`.
        if !narrow_product(self, m, |p, j| d[j * k + p], out.data_mut()) {
            // Wide: CHAINS independent dot products at a time, so the adds
            // of one output do not wait on each other's latency.
            for (ar, or) in self.row_iter().zip(out.rows_mut()) {
                let ar = &ar[..k];
                let mut drows = other.row_iter();
                let mut groups = or.chunks_exact_mut(CHAINS);
                for og in &mut groups {
                    let ds: [&[f32]; CHAINS] =
                        std::array::from_fn(|_| &drows.next().expect("m rows")[..k]);
                    let mut acc = [0.0f32; CHAINS];
                    for (p, &av) in ar.iter().enumerate() {
                        for (s, dr) in acc.iter_mut().zip(&ds) {
                            *s += av * dr[p];
                        }
                    }
                    og.copy_from_slice(&acc);
                }
                for (o, dr) in groups.into_remainder().iter_mut().zip(drows) {
                    let mut dot = 0.0;
                    for (&av, &dv) in ar.iter().zip(dr) {
                        dot += av * dv;
                    }
                    *o = dot;
                }
            }
        }
        out
    }
}

/// Rows of the right operand one stack panel of [`panel_product`] holds.
const PANEL: usize = 64;

/// Output chains a wide `matmul_nt` advances together.
const CHAINS: usize = 8;

/// `out(n×m) = a(n×k) · B(k×m)` with `B[p][j] = b(p, j)`, through
/// [`panel_product`] when `m` is narrow. Returns false, with `out`
/// untouched, when it is not.
fn narrow_product(
    a: &DenseTensor,
    m: usize,
    b: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
) -> bool {
    match m {
        1 => panel_product::<1>(a, b, out),
        2 => panel_product::<2>(a, b, out),
        3 => panel_product::<3>(a, b, out),
        NARROW => panel_product::<NARROW>(a, b, out),
        _ => return false,
    }
    true
}

/// `out(n×M) += a(n×k) · B(k×M)`, `B[p][j] = b(p, j)`: `B` is copied
/// [`PANEL`] rows at a time onto the stack, and each output row sums a
/// panel's products in registers. A row carried over to the next panel
/// round-trips through `out` exactly, so on a zeroed `out` every element
/// is `0.0 + p₀ + p₁ + …` in ascending `p`.
fn panel_product<const M: usize>(
    a: &DenseTensor,
    b: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
) {
    let k = a.cols;
    for p0 in (0..k).step_by(PANEL) {
        let len = PANEL.min(k - p0);
        let mut panel = [[0.0f32; M]; PANEL];
        for (p, row) in (p0..).zip(&mut panel[..len]) {
            for (j, x) in row.iter_mut().enumerate() {
                *x = b(p, j);
            }
        }
        for (ar, or) in a.row_iter().zip(out.chunks_exact_mut(M)) {
            let or: &mut [f32; M] = or.try_into().expect("rows of M");
            let mut acc = *or;
            for (&av, br) in ar[p0..p0 + len].iter().zip(&panel) {
                for (s, &bv) in acc.iter_mut().zip(br) {
                    *s += av * bv;
                }
            }
            *or = acc;
        }
    }
}

/// `out(k×M) = aᵀ · c` for `a` `n×k` and `c` `n×M`: [`NARROW`] output
/// rows at a time sit in registers across all `n` rows of the operands.
/// A last block of fewer rows reads `a` zero-padded and stores only its
/// real rows.
fn tn_tiles<const M: usize>(a: &DenseTensor, c: &DenseTensor, out: &mut [f32]) {
    for (p0, block) in (0..).step_by(NARROW).zip(out.chunks_mut(NARROW * M)) {
        let mut acc = [[0.0f32; M]; NARROW];
        for (ar, cr) in a.row_iter().zip(c.row_iter()) {
            let cr: &[f32; M] = cr.try_into().expect("rows of M");
            let av = ar[p0..].first_chunk::<NARROW>().copied().unwrap_or_else(|| {
                let mut v = [0.0; NARROW];
                v[..ar.len() - p0].copy_from_slice(&ar[p0..]);
                v
            });
            for (row, &x) in acc.iter_mut().zip(&av) {
                for (s, &cv) in row.iter_mut().zip(cr) {
                    *s += x * cv;
                }
            }
        }
        for (or, row) in block.chunks_exact_mut(M).zip(&acc) {
            or.copy_from_slice(row);
        }
    }
}

#[cfg(test)]
pub(crate) mod matmul_tests {
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The three products by definition, as bit patterns: plain index
    /// loops, every element `0.0 + p₀ + p₁ + …` in ascending inner index.
    /// For `a(n×k)`, `b(k×m)`, `c(n×m)`, `d(m×k)`: `[a·b, aᵀ·c, a·dᵀ]`.
    pub(crate) fn index_loop_products(
        a: &DenseTensor,
        b: &DenseTensor,
        c: &DenseTensor,
        d: &DenseTensor,
    ) -> [Vec<u32>; 3] {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
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
        [bits(&nn), bits(&tn), bits(&nt)]
    }

    /// What the kernels return on the same operands, as bit patterns.
    pub(crate) fn kernel_products(
        a: &DenseTensor,
        b: &DenseTensor,
        c: &DenseTensor,
        d: &DenseTensor,
    ) -> [Vec<u32>; 3] {
        [a.matmul(b), a.matmul_tn(c), a.matmul_nt(d)].map(|t| bits(t.as_slice()))
    }

    fn assert_products_match(a: &DenseTensor, b: &DenseTensor, c: &DenseTensor, d: &DenseTensor) {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let want = index_loop_products(a, b, c, d);
        let got = kernel_products(a, b, c, d);
        for ((name, got), want) in ["matmul", "matmul_tn", "matmul_nt"].iter().zip(got).zip(want) {
            assert_eq!(got, want, "{name} {n}x{k}x{m}");
        }
    }

    /// The kernels against the index-loop definitions, bit for bit: the
    /// toy trainer's shapes, tile remainders on every axis, both sides of
    /// the narrow/wide width and of a panel, a wide width that is no
    /// multiple of the chain count — and rows of `-0.0` against positive
    /// weights, which sum to `+0.0` as `0.0 + (-0.0)` does, where a kernel
    /// that seeded its accumulator with the first product would give `-0.0`.
    #[test]
    fn iterator_matmuls_match_index_loops_bitwise() {
        use rand::{rngs::StdRng, SeedableRng};
        let shapes = [
            (0, 4, 4),
            (1, 1024, 1024),
            (8192, 4, 4),
            (7, 3, 5),
            (3, 0, 2),
            (5, 3, 7),
            (9, 17, 13),
            (3, 2, 1),
            (6, 5, NARROW),
            (6, 5, NARROW + 1),
            (3, PANEL + 3, NARROW),
            (2, 64, 1030),
        ];
        for (n, k, m) in shapes {
            let mut rng = StdRng::seed_from_u64((n * 31 + k * 7 + m) as u64);
            let [a, b, c, d] = [(n, k), (k, m), (n, m), (m, k)]
                .map(|(r, w)| DenseTensor::uniform(r, w, 1.0, &mut rng));
            assert_products_match(&a, &b, &c, &d);
        }
        for m in [NARROW, 2 * CHAINS + 1] {
            let (n, k) = (3, 5);
            let a = DenseTensor::full(n, k, -0.0);
            let [b, c, d] = [(k, m), (n, m), (m, k)].map(|(r, w)| DenseTensor::full(r, w, 0.5));
            assert_products_match(&a, &b, &c, &d);
            for product in kernel_products(&a, &b, &c, &d) {
                assert!(product.iter().all(|&x| x == 0.0f32.to_bits()), "-0.0 rows, width {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let _ = a().matmul(&a());
    }
}

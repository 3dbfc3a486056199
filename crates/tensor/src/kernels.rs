//! The f32 row kernels: the reduce loops every collective reduce step runs
//! (ring chunks, the row-sparse k-way merge, coalesce duplicate-summing,
//! scatter-add, the dense optimizers' tensor algebra), and `copy_row`,
//! the one row copy of the tensor row movers (gather, column split and
//! reassembly, the coalescer and the row-sparse merge).
//!
//! The reduce kernels are five plain slice loops. Each asserts equal
//! lengths up front, which is all the autovectoriser needs to drop the
//! bounds checks and emit packed SIMD: hand-blocking the same loops into
//! `[f32; 8]` chunks measures the same or slower at every size the
//! workloads run. They are index loops rather than `iter_mut().zip(..)`
//! because most calls are on rows 2–16 elements wide, where the `zip`
//! form's extra set-up costs `train_sparse` about 5 % of a step (DESIGN
//! §3.5 has both sets of numbers). No `unsafe`, no intrinsics, no feature
//! detection, so the crate-wide `#![forbid(unsafe_code)]` stands.
//!
//! Every element sees one operation on fixed operands in index order, so
//! results do not depend on how the compiler blocks the loop — that is
//! what the collectives' bitwise-determinism proofs in the analyzer rest
//! on. [`add_to`] is the trainer's ring reduce: it reads the rank's own
//! segment of the gradient, which the ring shares and never writes, and
//! the incoming one, and writes their sum once, into the segment it sends
//! next. The last reduce of a segment is not written at all: the ring
//! hands the segment's owner both addends as an [`Unsummed`], whose
//! [`Unsummed::update`] adds them, in the same order, inside the owner's
//! own element loop. [`add_assign_both`] is no longer the trainer's ring reduce: it
//! writes the sum twice, into the caller's buffer and the packet it
//! forwards, which only the blocking slice forms, whose result lives in a
//! borrowed buffer, still need; it stays because the frozen benchmark
//! imports it as well.
//!
//! `copy_row` exists because a runtime-length `copy_from_slice` is a
//! libc `memcpy` call, and the sparse plane copies tens of thousands of
//! rows 2 or 4 floats wide per step. Up to `NARROW` floats it copies a
//! `[f32; W]` in registers instead. The reduce kernels get no such width
//! match: it measured slower end to end (DESIGN §3.5 "Row copies").

/// The width rule of DESIGN §3.5: rows up to `NARROW` floats wide (one SSE
/// register of `f32`) are handled as fixed-size arrays — copied whole by
/// [`copy_row`], and held in register tiles by the dense products (whose
/// `matmul_tn` tile is `NARROW × NARROW`). Wider rows take the general loop.
pub(crate) const NARROW: usize = 4;

/// `dst.copy_from_slice(src)`, bit for bit. Rows 1 to [`NARROW`] wide are
/// copied as one `[f32; W]`, wider ones by `copy_from_slice`. Panics on
/// length mismatch.
#[inline]
pub(crate) fn copy_row(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in copy_row");
    match src.len() {
        1 => copy_fixed::<1>(dst, src),
        2 => copy_fixed::<2>(dst, src),
        3 => copy_fixed::<3>(dst, src),
        NARROW => copy_fixed::<NARROW>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// [`copy_row`] at a width known at compile time: a register move, no call.
#[inline(always)]
fn copy_fixed<const W: usize>(dst: &mut [f32], src: &[f32]) {
    let src: &[f32; W] = src.try_into().expect("copy_row matched the width");
    let dst: &mut [f32; W] = dst.try_into().expect("copy_row checked the lengths");
    *dst = *src;
}

/// `dst[i] += src[i]`. Panics on length mismatch.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in add_assign");
    for i in 0..dst.len() {
        dst[i] += src[i];
    }
}

/// `dst[i] += alpha * src[i]` (axpy). Panics on length mismatch.
#[inline]
pub fn scaled_add(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in scaled_add");
    for i in 0..dst.len() {
        dst[i] += alpha * src[i];
    }
}

/// `dst[i] *= alpha`.
#[inline]
pub fn scale(dst: &mut [f32], alpha: f32) {
    for d in dst {
        *d *= alpha;
    }
}

/// `out[i] = a[i] + b[i]`: the out-of-place reduce, one write per element
/// into a third buffer — the ring's reduce over a buffer it shares, which
/// sums its own segment and the incoming one into the segment it sends
/// next. Bitwise a copy of `a` followed by [`add_assign`] of `b`. Panics on
/// length mismatch.
#[inline]
pub fn add_to(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(out.len(), a.len(), "length mismatch in add_to");
    assert_eq!(out.len(), b.len(), "length mismatch in add_to");
    for i in 0..out.len() {
        out[i] = a[i] + b[i];
    }
}

/// A segment of a sum one add short, as a shared ring reduce-scatter's
/// last step leaves it for the segment's owner: the owner's addend, the
/// received one, and where the owner writes what it makes of each sum.
/// [`Unsummed::update`] takes the add inside the owner's element loop, so
/// the sum is never written on its own.
#[derive(Debug)]
pub enum Unsummed<'a> {
    /// `own[i] + partial[i]` — or `own[i]` alone without a partial (a world
    /// of one, where `+ 0.0` would turn −0.0 into +0.0) — with the results
    /// going to `out`.
    Apart { own: &'a [f32], partial: Option<&'a [f32]>, out: &'a mut [f32] },
    /// `own[i] + acc[i]`, the results going over `acc`: a partial the owner
    /// holds outright.
    Over { own: &'a [f32], acc: &'a mut [f32] },
}

impl Unsummed<'_> {
    /// Elements in the segment.
    pub fn len(&self) -> usize {
        match self {
            Unsummed::Apart { own, .. } | Unsummed::Over { own, .. } => own.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// For each element in index order, with the next item of `state`:
    /// `f(item, sum)` written where this segment writes. The sum is `own +
    /// partial`, in the order [`add_to`] adds, so the results are bitwise
    /// those of `f` over [`add_to`]'s output. Panics on length mismatch.
    #[inline]
    pub fn update<I>(self, state: I, mut f: impl FnMut(I::Item, f32) -> f32)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let state = state.into_iter();
        assert_eq!(state.len(), self.len(), "length mismatch in Unsummed::update");
        match self {
            Unsummed::Apart { own, partial: None, out } => {
                assert_eq!(out.len(), own.len(), "length mismatch in Unsummed::update");
                for ((o, &a), s) in out.iter_mut().zip(own).zip(state) {
                    *o = f(s, a);
                }
            }
            Unsummed::Apart { own, partial: Some(partial), out } => {
                assert_eq!(out.len(), own.len(), "length mismatch in Unsummed::update");
                assert_eq!(partial.len(), own.len(), "length mismatch in Unsummed::update");
                for (((o, &a), &b), s) in out.iter_mut().zip(own).zip(partial).zip(state) {
                    *o = f(s, a + b);
                }
            }
            Unsummed::Over { own, acc } => {
                assert_eq!(acc.len(), own.len(), "length mismatch in Unsummed::update");
                for ((o, &a), s) in acc.iter_mut().zip(own).zip(state) {
                    *o = f(s, a + *o);
                }
            }
        }
    }
}

/// Fused receive-reduce-forward step: `v = dst[i] + fwd[i]` written to
/// **both** slices, so the accumulator and the packet forwarded to the
/// next ring neighbour are updated in one memory pass instead of an
/// add pass plus a staging copy. Summation order is `dst + fwd`, matching
/// the unfused `dst += fwd` fold bitwise. Panics on length mismatch.
#[inline]
pub fn add_assign_both(dst: &mut [f32], fwd: &mut [f32]) {
    assert_eq!(dst.len(), fwd.len(), "length mismatch in add_assign_both");
    for i in 0..dst.len() {
        let v = dst[i] + fwd[i];
        dst[i] = v;
        fwd[i] = v;
    }
}

/// [`add_assign`] under the name the frozen benchmark imports for its
/// `tensor.add_assign_scalar_gbps` probe; both names now time the same
/// loop. Retired by the ROADMAP's "Benchmark revision 2" item.
#[inline]
pub fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    add_assign(dst, src);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random data exercising a spread of exponents.
    fn data(len: usize, seed: u32) -> Vec<f32> {
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                // Map to roughly [-8, 8) with varied mantissas.
                (x as f32 / u32::MAX as f32 - 0.5) * 16.0
            })
            .collect()
    }

    /// Lengths covering empty, short, power-of-two and ragged inputs.
    const LENS: [usize; 9] = [0, 1, 3, 7, 8, 9, 16, 31, 1000];

    #[test]
    fn add_assign_both_writes_same_sum_to_both() {
        for &len in &LENS {
            let mut dst = data(len, 6);
            let mut fwd = data(len, 7);
            let mut expect = dst.clone();
            add_assign(&mut expect, &fwd);
            add_assign_both(&mut dst, &mut fwd);
            let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "len {len}");
            assert_eq!(fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "len {len}");
        }
    }

    /// Every fixed width and the fallback on both sides of it, with the
    /// bit patterns a float copy could lose: `-0.0` and a NaN payload.
    #[test]
    fn copy_row_copies_bits_at_every_width() {
        for len in 0..=9 {
            let mut src = data(len, 8);
            if let Some(x) = src.first_mut() {
                *x = -0.0;
            }
            if let Some(x) = src.get_mut(1) {
                *x = f32::from_bits(0x7fc0_1234);
            }
            let mut dst = vec![1.0; len];
            copy_row(&mut dst, &src);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dst), bits(&src), "len {len}");
        }
    }

    #[test]
    fn copy_row_length_mismatch_panics() {
        // (dst, src) lengths: src at a fixed width, then on the fallback.
        for (d, s) in [(3, 2), (NARROW + 1, NARROW), (1, 0), (8, 9)] {
            let copy = || copy_row(&mut vec![0.0; d], &vec![0.0; s]);
            assert!(std::panic::catch_unwind(copy).is_err(), "{d} <- {s} must panic");
        }
    }

    /// Every form of [`Unsummed`] under the identity is [`add_to`]'s sum
    /// bit for bit — and without a partial the addend itself, −0.0 kept.
    #[test]
    fn unsummed_identity_update_is_add_to_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &len in &LENS {
            let mut own = data(len, 10);
            if let Some(x) = own.first_mut() {
                *x = -0.0;
            }
            let partial = data(len, 11);
            let mut want = vec![0.0; len];
            add_to(&mut want, &own, &partial);
            let same = || std::iter::repeat_n((), len);
            let mut out = vec![1.0; len];
            Unsummed::Apart { own: &own, partial: Some(&partial), out: &mut out }
                .update(same(), |(), g| g);
            assert_eq!(bits(&out), bits(&want), "apart, len {len}");
            let mut acc = partial.clone();
            Unsummed::Over { own: &own, acc: &mut acc }.update(same(), |(), g| g);
            assert_eq!(bits(&acc), bits(&want), "over, len {len}");
            Unsummed::Apart { own: &own, partial: None, out: &mut out }.update(same(), |(), g| g);
            assert_eq!(bits(&out), bits(&own), "alone, len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut a = vec![0.0; 4];
        add_assign(&mut a, &[1.0; 5]);
    }
}

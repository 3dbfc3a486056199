//! The f32 reduce kernels — the arithmetic hot loop of every collective
//! reduce step (ring chunks, the SSAR k-way merge, coalesce
//! duplicate-summing, scatter-add, the dense optimizers' tensor algebra).
//!
//! Four plain slice loops. Each asserts equal lengths up front, which is
//! all the autovectoriser needs to drop the bounds checks and emit packed
//! SIMD: hand-blocking the same loops into `[f32; 8]` chunks measures the
//! same or slower at every size the workloads run. They are index loops
//! rather than `iter_mut().zip(..)` because most calls are on rows 2–16
//! elements wide, where the `zip` form's extra set-up costs `train_sparse`
//! about 5 % of a step (DESIGN §3.5 has both sets of numbers). No
//! `unsafe`, no intrinsics, no feature detection, so the crate-wide
//! `#![forbid(unsafe_code)]` stands.
//!
//! Every element sees one operation on fixed operands in index order, so
//! results do not depend on how the compiler blocks the loop — that is
//! what the collectives' bitwise-determinism proofs in the analyzer rest
//! on. [`add_assign_both`] is the one fused pass: the ring's
//! receive-reduce-forward step in a single sweep over memory.

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

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut a = vec![0.0; 4];
        add_assign(&mut a, &[1.0; 5]);
    }
}

//! Sparse-capable optimizers: SGD and Adam.
//!
//! Vertical Sparse Scheduling (§4.2.2) splits each embedding gradient into
//! a *prior* and a *delayed* part, so the table is updated twice per step.
//! SGD is fully element-wise, hence unaffected (§5.7); so is Adagrad, whose
//! one definition is `embrace_ps::OptimizerKind::Adagrad`. Adam's
//! `step` state is *per tensor*, so naively calling it twice advances the
//! bias correction twice; the paper modifies Adam to advance `step` only
//! when the delayed part is applied. [`UpdatePart`] selects that behaviour
//! and the equivalence is proven in this module's tests.

use embrace_tensor::{kernels, DenseTensor, RowSparse, Unsummed};
use std::ops::Range;

/// Which portion of a split sparse gradient an update call carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePart {
    /// The entire gradient in one call (non-EmbRace behaviour).
    Whole,
    /// The prior rows (needed by the next batch); `step` must NOT advance.
    Prior,
    /// The delayed rows; `step` advances here, completing the logical step.
    Delayed,
}

/// A parameter-tensor optimizer with dense and row-sparse update paths.
pub trait Optimizer {
    /// Apply a dense gradient to a dense parameter tensor.
    fn step_dense(&mut self, params: &mut DenseTensor, grad: &DenseTensor);

    /// Apply a (coalesced) row-sparse gradient to `params`.
    fn step_sparse(&mut self, params: &mut DenseTensor, grad: &RowSparse, part: UpdatePart);
}

/// A gradient as the element spans it touches: `(span, values)` pairs over
/// the flat row-major buffers of the parameters and the optimizer state,
/// which the optimizer borrows mutably **once** per step (that is where a
/// `DenseTensor` pays its copy-on-write check) and indexes span by span.
/// A sparse gradient is one span per row it names.
fn row_spans(grad: &RowSparse, dim: usize) -> impl Iterator<Item = (Range<usize>, &[f32])> {
    assert_eq!(grad.dim(), dim, "gradient width must match the parameters");
    let spans = grad.indices().iter().map(move |&r| r as usize * dim..(r as usize + 1) * dim);
    spans.zip(grad.values().row_iter())
}

/// A dense gradient is a single span: every element of `params`.
fn whole_span<'g>(
    params: &DenseTensor,
    grad: &'g DenseTensor,
) -> impl Iterator<Item = (Range<usize>, &'g [f32])> {
    assert_eq!((params.rows(), params.cols()), (grad.rows(), grad.cols()), "shape mismatch");
    std::iter::once((0..grad.len(), grad.as_slice()))
}

/// Plain SGD: `p -= lr * g`. Stateless, trivially element-wise.
#[derive(Clone, Debug)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step_dense(&mut self, params: &mut DenseTensor, grad: &DenseTensor) {
        params.axpy(-self.lr, grad);
    }

    fn step_sparse(&mut self, params: &mut DenseTensor, grad: &RowSparse, _part: UpdatePart) {
        let dim = params.cols();
        let p = params.as_mut_slice();
        for (at, g) in row_spans(grad, dim) {
            kernels::scaled_add(&mut p[at], -self.lr, g);
        }
    }
}

/// Adam (Kingma & Ba 2014), PyTorch-style with a per-tensor `step` counter
/// used for bias correction.
///
/// `step` advances on [`UpdatePart::Whole`] and [`UpdatePart::Delayed`]
/// but not on [`UpdatePart::Prior`] — the paper's modification (§5.7)
/// making `Prior`-then-`Delayed` bit-identical to one `Whole` update on
/// the union of rows.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    m: DenseTensor,
    v: DenseTensor,
    step: u64,
}

impl Adam {
    pub fn new(rows: usize, cols: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: DenseTensor::zeros(rows, cols),
            v: DenseTensor::zeros(rows, cols),
            step: 0,
        }
    }

    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The optimizer's full state: first and second moments plus the step
    /// counter. Together with the hyperparameters this is everything a
    /// checkpoint (or an elastic re-shard) needs to reproduce the
    /// optimizer bit-for-bit.
    pub fn state(&self) -> (&DenseTensor, &DenseTensor, u64) {
        (&self.m, &self.v, self.step)
    }

    /// Reconstruct an Adam instance from checkpointed state, with the
    /// default hyperparameters [`Adam::new`] uses. Inverse of
    /// [`Adam::state`].
    pub fn from_state(lr: f32, m: DenseTensor, v: DenseTensor, step: u64) -> Self {
        assert_eq!((m.rows(), m.cols()), (v.rows(), v.cols()), "moment shapes must match");
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m, v, step }
    }

    fn effective_step(&mut self, part: UpdatePart) -> u64 {
        match part {
            UpdatePart::Whole | UpdatePart::Delayed => {
                self.step += 1;
                self.step
            }
            // Use the upcoming step's bias correction without committing it.
            UpdatePart::Prior => self.step + 1,
        }
    }

    /// One dense step of `params`, a span of a larger tensor whose moments
    /// this optimizer holds for that span alone, its gradient given in
    /// consecutive pieces (together `params.len()` elements), each one add
    /// short of its sum, as a shared ring reduce-scatter's last step leaves
    /// its owned segments. The element loop takes that add — `own +
    /// partial`, in [`kernels::add_to`]'s order, or `own` alone without a
    /// partial — and writes each new value into `params` and where the
    /// piece writes, which the all-gather then sends as it is. The rule is
    /// element-wise, so both come out bitwise as [`kernels::add_to`]
    /// followed by a whole-tensor [`Optimizer::step_dense`] would leave the
    /// span: a tensor updated span by span, each span by its own
    /// optimizer, is the tensor updated whole.
    pub fn step_span_into<'g>(
        &mut self,
        params: &mut [f32],
        grad: impl IntoIterator<Item = Unsummed<'g>>,
    ) {
        assert_eq!(params.len(), self.m.len(), "state length must match the span");
        let rule = self.rule(UpdatePart::Whole);
        let (m, v) = (self.m.as_mut_slice(), self.v.as_mut_slice());
        let mut covered = 0;
        for piece in grad {
            let at = covered..covered + piece.len();
            assert!(at.end <= params.len(), "gradient pieces must cover the span");
            let moments = m[at.clone()].iter_mut().zip(&mut v[at.clone()]);
            piece.update(params[at.clone()].iter_mut().zip(moments), |(p, (m, v)), g| {
                rule.update(p, m, v, g);
                *p
            });
            covered = at.end;
        }
        assert_eq!(covered, params.len(), "gradient pieces must cover the span");
    }

    /// The element rule at this call's step, advancing it as `part` says.
    fn rule(&mut self, part: UpdatePart) -> AdamRule {
        let t = self.effective_step(part);
        AdamRule {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(t as i32),
            bc2: 1.0 - self.beta2.powi(t as i32),
        }
    }

    fn apply<'g>(
        &mut self,
        p: &mut [f32],
        grad: impl Iterator<Item = (Range<usize>, &'g [f32])>,
        part: UpdatePart,
    ) {
        let rule = self.rule(part);
        let (m, v) = (self.m.as_mut_slice(), self.v.as_mut_slice());
        for (at, g) in grad {
            let moments = m[at.clone()].iter_mut().zip(&mut v[at.clone()]);
            for ((p, (m, v)), &g) in p[at].iter_mut().zip(moments).zip(g) {
                rule.update(p, m, v, g);
            }
        }
    }
}

/// Adam's element update at one step: every path runs this one rule, so
/// they agree bit for bit.
#[derive(Clone, Copy)]
struct AdamRule {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// The step's bias corrections, `1 − β^t`.
    bc1: f32,
    bc2: f32,
}

impl AdamRule {
    #[inline(always)]
    fn update(&self, p: &mut f32, m: &mut f32, v: &mut f32, g: f32) {
        *m = self.beta1 * *m + (1.0 - self.beta1) * g;
        *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
        let m_hat = *m / self.bc1;
        let v_hat = *v / self.bc2;
        *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
    }
}

impl Optimizer for Adam {
    fn step_dense(&mut self, params: &mut DenseTensor, grad: &DenseTensor) {
        assert_eq!(self.m.cols(), params.cols(), "state width must match the parameters");
        let grad = whole_span(params, grad);
        self.apply(params.as_mut_slice(), grad, UpdatePart::Whole);
    }

    fn step_sparse(&mut self, params: &mut DenseTensor, grad: &RowSparse, part: UpdatePart) {
        assert_eq!(self.m.cols(), params.cols(), "state width must match the parameters");
        let grad = row_spans(grad, params.cols());
        self.apply(params.as_mut_slice(), grad, part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_tensor::coalesce_split;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The rows of `g` named in `prior`, and the rest.
    fn split(g: &RowSparse, prior: &[u32]) -> (RowSparse, RowSparse) {
        coalesce_split(g, |id| Some(prior.contains(&id)))
    }

    fn rand_grad(rows: &[u32], dim: usize, seed: u64) -> RowSparse {
        let mut rng = StdRng::seed_from_u64(seed);
        let vals = DenseTensor::uniform(rows.len(), dim, 1.0, &mut rng);
        RowSparse::new(rows.to_vec(), vals)
    }

    #[test]
    fn sgd_sparse_matches_dense() {
        let mut p1 = DenseTensor::full(4, 2, 1.0);
        let mut p2 = p1.clone();
        let g = rand_grad(&[0, 2], 2, 7);
        Sgd::new(0.1).step_sparse(&mut p1, &g, UpdatePart::Whole);
        Sgd::new(0.1).step_dense(&mut p2, &g.to_dense(4));
        assert!(p1.approx_eq(&p2, 1e-7));
    }

    #[test]
    fn adam_modified_split_equals_whole() {
        // The §5.7 claim: with the step-state modification, prior+delayed
        // equals a single whole update — over many steps.
        let mut rng = StdRng::seed_from_u64(3);
        let mut p_whole = DenseTensor::full(8, 2, 0.3);
        let mut p_split = p_whole.clone();
        let mut o_whole = Adam::new(8, 2, 0.01);
        let mut o_split = o_whole.clone();

        for step in 0..20 {
            let rows: Vec<u32> = (0..8u32).filter(|_| rng.gen_bool(0.6)).collect();
            if rows.is_empty() {
                continue;
            }
            let g = rand_grad(&rows, 2, 100 + step);
            let cut = rows.len() / 2;
            let (prior, delayed) = split(&g, &rows[..cut]);

            o_whole.step_sparse(&mut p_whole, &g, UpdatePart::Whole);
            o_split.step_sparse(&mut p_split, &prior, UpdatePart::Prior);
            o_split.step_sparse(&mut p_split, &delayed, UpdatePart::Delayed);
        }
        assert!(p_whole.approx_eq(&p_split, 0.0), "modified Adam must match exactly");
        assert_eq!(o_whole.step_count(), o_split.step_count());
    }

    #[test]
    fn adam_unmodified_double_step_diverges() {
        // Without the modification (two Whole calls), the step counter
        // advances twice and results differ — the problem §5.7 fixes.
        let g = rand_grad(&[0, 1, 2, 3], 2, 5);
        let (prior, delayed) = split(&g, &[0, 1]);

        let mut p_ref = DenseTensor::full(4, 2, 0.3);
        let mut p_bad = p_ref.clone();
        let mut o_ref = Adam::new(4, 2, 0.01);
        let mut o_bad = o_ref.clone();

        for _ in 0..5 {
            o_ref.step_sparse(&mut p_ref, &g, UpdatePart::Whole);
            o_bad.step_sparse(&mut p_bad, &prior, UpdatePart::Whole);
            o_bad.step_sparse(&mut p_bad, &delayed, UpdatePart::Whole);
        }
        assert!(o_bad.step_count() > o_ref.step_count());
        assert!(p_ref.max_abs_diff(&p_bad) > 0.0, "naive double update must differ");
    }

    /// Every optimizer against the per-row definition of its rule — one
    /// row at a time, Adam's bias corrections recomputed for each row —
    /// over sparse calls of every [`UpdatePart`] and dense calls: the
    /// parameters must agree bit for bit after every call.
    #[test]
    fn hoisted_loops_match_the_per_row_rules_bitwise() {
        let (rows, dim, lr) = (12usize, 3usize, 0.05f32);
        let mut rng = StdRng::seed_from_u64(17);
        let init = DenseTensor::uniform(rows, dim, 0.5, &mut rng);
        let mut opts: [Box<dyn Optimizer>; 2] =
            [Box::new(Sgd::new(lr)), Box::new(Adam::new(rows, dim, lr))];
        let mut got = [init.clone(), init.clone()];
        let mut want = [init.as_slice().to_vec(), init.into_vec()];
        let zeros = || vec![0.0f32; rows * dim];
        let (mut m, mut v, mut step) = (zeros(), zeros(), 0u64);
        for call in 0..32 {
            // A coalesced sparse gradient over a random row subset, or
            // (every fourth call) a dense one over all rows.
            let part =
                [UpdatePart::Prior, UpdatePart::Delayed, UpdatePart::Whole, UpdatePart::Whole]
                    [call % 4];
            let ids: Vec<u32> =
                (0..rows as u32).filter(|_| call % 4 == 3 || rng.gen_bool(0.4)).collect();
            let grad = rand_grad(&ids, dim, 1000 + call as u64);
            for (opt, params) in opts.iter_mut().zip(&mut got) {
                if call % 4 == 3 {
                    opt.step_dense(params, grad.values());
                } else {
                    opt.step_sparse(params, &grad, part);
                }
            }
            let t = match part {
                UpdatePart::Prior => step + 1,
                UpdatePart::Whole | UpdatePart::Delayed => {
                    step += 1;
                    step
                }
            };
            for (i, &row) in ids.iter().enumerate() {
                let g = grad.values().row(i).to_vec();
                let at = row as usize * dim..(row as usize + 1) * dim;
                for (p, g) in want[0][at.clone()].iter_mut().zip(&g) {
                    *p -= lr * g;
                }
                let (beta1, beta2) = (0.9f32, 0.999f32);
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                let state = m[at.clone()].iter_mut().zip(&mut v[at.clone()]);
                for ((p, (m, v)), &g) in want[1][at].iter_mut().zip(state).zip(&g) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    *p -= lr * (*m / bc1) / ((*v / bc2).sqrt() + 1e-8);
                }
            }
            for (k, (got, want)) in got.iter().zip(&want).enumerate() {
                let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.as_slice()), bits(want), "optimizer {k}, call {call}");
            }
        }
    }

    /// The three forms a shared reduce-scatter leaves a piece in — the
    /// partial apart, the partial taken over, no partial (a world of
    /// one) — for `own`, `partial` and `out` of one length.
    fn unsummed<'a>(
        form: usize,
        own: &'a [f32],
        partial: &'a [f32],
        out: &'a mut [f32],
    ) -> Unsummed<'a> {
        match form % 3 {
            0 => Unsummed::Apart { own, partial: Some(partial), out },
            1 => {
                out.copy_from_slice(partial);
                Unsummed::Over { own, acc: out }
            }
            _ => Unsummed::Apart { own, partial: None, out },
        }
    }

    /// Bits, every NaN one key: the add may take either NaN operand's payload.
    fn keys(s: &[f32]) -> Vec<u32> {
        s.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
    }

    #[test]
    fn adam_span_by_span_equals_whole_bitwise() {
        // Three spans, uneven and one empty, each with its own optimizer
        // and its gradient in unsummed pieces (none, one, several with an
        // empty one) of every form, against `kernels::add_to` (or the
        // addend alone, for a piece with no partial) followed by one
        // whole-tensor optimizer: the weights, the pieces written and the
        // moments all equal the whole step. Twelve steps of finite values
        // with −0.0 sprinkled through weights, moments and addends (a
        // world of one must not add `+ 0.0`, which makes −0.0 +0.0), then
        // single steps from arbitrary bit patterns.
        let n = 35;
        let cuts = [0..9, 9..9, 9..n];
        let pieces: [&[usize]; 3] = [&[9], &[], &[4, 0, 11, 11]];
        let mut rng = StdRng::seed_from_u64(21);
        let mut finite = |scale: f32| -> Vec<f32> {
            let v = DenseTensor::uniform(1, n, scale, &mut rng).into_vec();
            v.into_iter().enumerate().map(|(i, x)| if i % 5 == 2 { -0.0 } else { x }).collect()
        };
        let mut arbitrary = StdRng::seed_from_u64(22);
        let mut bits = || -> Vec<f32> {
            (0..n).map(|_| f32::from_bits(arbitrary.gen_range(0..=u32::MAX))).collect()
        };
        for round in 0..40 {
            let (steps, lr) = if round == 0 { (12, 0.02) } else { (1, 0.02) };
            let (params, m, v) = if round == 0 {
                (finite(0.5), finite(0.1), vec![0.0; n])
            } else {
                (bits(), bits(), bits())
            };
            let state = |range: std::ops::Range<usize>| {
                let (m, v) = (m[range.clone()].to_vec(), v[range.clone()].to_vec());
                let len = range.len();
                Adam::from_state(
                    lr,
                    DenseTensor::from_vec(1, len, m),
                    DenseTensor::from_vec(1, len, v),
                    0,
                )
            };
            let mut whole = DenseTensor::from_vec(1, n, params.clone());
            let mut o_whole = state(0..n);
            let mut spans = params;
            let mut o_spans: Vec<Adam> = cuts.iter().map(|c| state(c.clone())).collect();
            for step in 0..steps {
                let (own, partial) = if round == 0 {
                    (finite(1.0 + step as f32), finite(2.0))
                } else {
                    (bits(), bits())
                };
                // Piece k of every span takes form k + step, so each form
                // meets every cut.
                let mut g = vec![0.0; n];
                kernels::add_to(&mut g, &own, &partial);
                let mut written = vec![f32::NAN; n];
                for ((opt, cut), lens) in o_spans.iter_mut().zip(&cuts).zip(pieces) {
                    let mut at = cut.start;
                    let mut rest = &mut written[cut.clone()];
                    let mut grad = Vec::new();
                    for (k, &len) in lens.iter().enumerate() {
                        let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
                        rest = tail;
                        let (own, partial) = (&own[at..at + len], &partial[at..at + len]);
                        if (k + step) % 3 == 2 {
                            g[at..at + len].copy_from_slice(own);
                        }
                        grad.push(unsummed(k + step, own, partial, out));
                        at += len;
                    }
                    opt.step_span_into(&mut spans[cut.clone()], grad);
                }
                let g = DenseTensor::from_vec(1, n, g);
                o_whole.step_dense(&mut whole, &g);
                let at = format!("round {round} step {step}");
                assert_eq!(keys(&spans), keys(whole.as_slice()), "{at}: weights");
                assert_eq!(keys(&written), keys(whole.as_slice()), "{at}: written");
                let (m_whole, v_whole, _) = o_whole.state();
                let moments = |k: usize| -> Vec<f32> {
                    let each = o_spans.iter().map(|o| [o.state().0, o.state().1][k]);
                    each.flat_map(DenseTensor::as_slice).copied().collect()
                };
                assert_eq!(keys(&moments(0)), keys(m_whole.as_slice()), "{at}: first moments");
                assert_eq!(keys(&moments(1)), keys(v_whole.as_slice()), "{at}: second moments");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient pieces must cover the span")]
    fn adam_span_into_rejects_pieces_short_of_the_span() {
        let (own, mut out) = ([0.5f32; 3], [0.0f32; 3]);
        let short = Unsummed::Apart { own: &own, partial: None, out: &mut out };
        Adam::new(1, 4, 0.02).step_span_into(&mut [0.0; 4], [short]);
    }

    #[test]
    fn adam_moves_params_toward_minimum() {
        // Minimise (p - 2)^2 / 2 by gradient p - 2.
        let mut p = DenseTensor::full(1, 1, 0.0);
        let mut o = Adam::new(1, 1, 0.1);
        for _ in 0..400 {
            let g = DenseTensor::from_vec(1, 1, vec![p.as_slice()[0] - 2.0]);
            o.step_dense(&mut p, &g);
        }
        assert!((p.as_slice()[0] - 2.0).abs() < 0.05, "got {}", p.as_slice()[0]);
    }

    #[test]
    fn adam_state_roundtrip_is_bitwise() {
        let mut p = DenseTensor::full(4, 2, 0.3);
        let mut o = Adam::new(4, 2, 0.01);
        for s in 0..3 {
            o.step_sparse(&mut p, &rand_grad(&[0, 2, 3], 2, s), UpdatePart::Whole);
        }
        let (m, v, step) = o.state();
        let mut o2 = Adam::from_state(0.01, m.clone(), v.clone(), step);
        let mut p2 = p.clone();
        for s in 10..13 {
            let g = rand_grad(&[1, 2], 2, s);
            o.step_sparse(&mut p, &g, UpdatePart::Whole);
            o2.step_sparse(&mut p2, &g, UpdatePart::Whole);
        }
        assert!(p.approx_eq(&p2, 0.0), "restored optimizer must continue bit-for-bit");
        assert_eq!(o.step_count(), o2.step_count());
    }
}

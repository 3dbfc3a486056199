//! Sparse per-row optimizers colocated with the shard.
//!
//! The optimizer state (the Adagrad accumulator) lives next to the
//! parameter rows it updates — DGL's `DistSparseGradOptimizer` layout — so
//! a push only moves the gradient, never the state. Updates are
//! element-wise over exactly the rows a push touched, so a sharded service
//! and a single-shard oracle stay bitwise interchangeable, and applying a
//! gradient's rows in two calls (§5.7's prior/delayed split) is bitwise
//! one call over all of them.

use embrace_tensor::{kernels, DenseTensor};

/// Which update rule a [`RowOptimizer`] applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD: `p -= lr * g`, computed as `p += (-lr) * g` (negation is
    /// exact, so the two are bitwise equal).
    Sgd { lr: f32 },
    /// Adagrad: `a += g²; p -= lr * g / (sqrt(a) + eps)` with `eps = 1e-10`.
    Adagrad { lr: f32 },
}

/// Per-row optimizer state for one shard of `rows × dim` parameters.
pub struct RowOptimizer {
    kind: OptimizerKind,
    /// Adagrad accumulator (`rows × dim`); empty (0 × dim) for stateless
    /// SGD.
    state: DenseTensor,
}

const ADAGRAD_EPS: f32 = 1e-10;

impl RowOptimizer {
    /// Fresh (zero) state for a shard of `rows` rows of width `dim`.
    pub fn new(kind: OptimizerKind, rows: usize, dim: usize) -> Self {
        let state = match kind {
            OptimizerKind::Sgd { .. } => DenseTensor::zeros(0, dim),
            OptimizerKind::Adagrad { .. } => DenseTensor::zeros(rows, dim),
        };
        RowOptimizer { kind, state }
    }

    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Apply one gradient row `grad` to the parameter row `params`, using
    /// (and updating) the state of local row `local`.
    pub fn update_row(&mut self, local: usize, params: &mut [f32], grad: &[f32]) {
        let state = match self.kind {
            OptimizerKind::Sgd { .. } => &mut [],
            OptimizerKind::Adagrad { .. } => self.state.row_mut(local),
        };
        self.kind.apply(params, state, grad);
    }

    /// Apply `updates` — `(local row, gradient row)` pairs, in order — to
    /// the rows of `shard`, and return how many there were. One
    /// copy-on-write check on the shard and one on the state for the
    /// whole batch, where a loop over [`Self::update_row`] pays both per
    /// row.
    pub fn update_rows<'g>(
        &mut self,
        shard: &mut DenseTensor,
        updates: impl IntoIterator<Item = (usize, &'g [f32])>,
    ) -> u64 {
        let dim = shard.cols();
        let (params, state) = (shard.as_mut_slice(), self.state.as_mut_slice());
        let mut applied = 0;
        for (local, grad) in updates {
            let at = local * dim..(local + 1) * dim;
            let state = match self.kind {
                OptimizerKind::Sgd { .. } => &mut [],
                OptimizerKind::Adagrad { .. } => &mut state[at.clone()],
            };
            self.kind.apply(&mut params[at], state, grad);
            applied += 1;
        }
        applied
    }
}

impl OptimizerKind {
    /// The rule itself, over one parameter row, that row's state (unused
    /// by SGD) and its gradient.
    fn apply(self, params: &mut [f32], state: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(params.len(), grad.len());
        match self {
            OptimizerKind::Sgd { lr } => kernels::scaled_add(params, -lr, grad),
            OptimizerKind::Adagrad { lr } => {
                for ((p, a), &g) in params.iter_mut().zip(state).zip(grad) {
                    *a += g * g;
                    *p -= lr * g / (a.sqrt() + ADAGRAD_EPS);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [OptimizerKind; 2] =
        [OptimizerKind::Sgd { lr: 0.1 }, OptimizerKind::Adagrad { lr: 0.1 }];

    fn bits(s: &[f32]) -> Vec<u32> {
        s.iter().map(|x| x.to_bits()).collect()
    }

    /// `rows × dim` values with varied mantissas and both signs.
    fn table(rows: usize, dim: usize, seed: u32) -> DenseTensor {
        let vals = (0..rows * dim).map(|i| ((i as u32 * 7 + seed) % 23) as f32 * 0.173 - 1.9);
        DenseTensor::from_vec(rows, dim, vals.collect())
    }

    #[test]
    fn sgd_is_stateless_scaling() {
        let mut opt = RowOptimizer::new(OptimizerKind::Sgd { lr: 0.5 }, 2, 2);
        let mut p = vec![1.0, 2.0];
        opt.update_row(0, &mut p, &[2.0, 4.0]);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn rules_match_their_inline_formulas_bitwise() {
        let lr = 0.3f32;
        let grads = table(3, 4, 5);
        let mut sgd = RowOptimizer::new(OptimizerKind::Sgd { lr }, 1, 4);
        let mut ada = RowOptimizer::new(OptimizerKind::Adagrad { lr }, 1, 4);
        let (mut p_sgd, mut p_ada) = (table(1, 4, 1).into_vec(), table(1, 4, 1).into_vec());
        let (mut want_sgd, mut want_ada, mut accum) = (p_sgd.clone(), p_ada.clone(), [0.0f32; 4]);
        // Three steps on one row: Adagrad's later steps read its state.
        for g in grads.row_iter() {
            sgd.update_row(0, &mut p_sgd, g);
            ada.update_row(0, &mut p_ada, g);
            for i in 0..4 {
                want_sgd[i] -= lr * g[i];
                accum[i] += g[i] * g[i];
                want_ada[i] -= lr * g[i] / (accum[i].sqrt() + 1e-10);
            }
            assert_eq!(bits(&p_sgd), bits(&want_sgd));
            assert_eq!(bits(&p_ada), bits(&want_ada));
        }
    }

    #[test]
    fn update_rows_matches_a_loop_of_update_row_bitwise() {
        let grads = [[0.5f32, -1.5, 2.0], [3.0, 0.25, -0.125], [-2.0, 1.0, 0.75]];
        // Row 2 twice: the second application must see the first's state.
        let order = [2usize, 0, 2, 3];
        for kind in KINDS {
            let mut one = RowOptimizer::new(kind, 4, 3);
            let mut batch = RowOptimizer::new(kind, 4, 3);
            let mut a = DenseTensor::from_vec(4, 3, (0..12).map(|x| x as f32 * 0.3).collect());
            let mut b = a.clone();
            for round in 0..3 {
                for (k, &local) in order.iter().enumerate() {
                    one.update_row(local, a.row_mut(local), &grads[(k + round) % 3]);
                }
                let updates = order
                    .iter()
                    .enumerate()
                    .map(|(k, &local)| (local, &grads[(k + round) % 3][..]));
                assert_eq!(batch.update_rows(&mut b, updates), 4);
            }
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{kind:?}");
        }
    }

    /// §5.7: both rules are element-wise, so a step split into its prior
    /// rows and then its delayed rows equals one whole step, bit for bit
    /// and over many steps.
    #[test]
    fn split_update_equals_whole_bitwise() {
        let (rows, dim) = (8usize, 3usize);
        for kind in KINDS {
            let mut whole = RowOptimizer::new(kind, rows, dim);
            let mut split = RowOptimizer::new(kind, rows, dim);
            let mut p_whole = table(rows, dim, 3);
            let mut p_split = p_whole.clone();
            for step in 0..6u32 {
                let grad = table(rows, dim, 11 + step);
                // A step's distinct rows; the first `cut` of them are prior.
                let ids: Vec<usize> =
                    (0..rows).filter(|r| !(r * 5 + step as usize).is_multiple_of(3)).collect();
                let cut = ids.len() / 2;
                let upd = |ids: &[usize]| ids.iter().map(|&r| (r, grad.row(r))).collect::<Vec<_>>();
                whole.update_rows(&mut p_whole, upd(&ids));
                split.update_rows(&mut p_split, upd(&ids[..cut]));
                split.update_rows(&mut p_split, upd(&ids[cut..]));
                let (w, s) = (p_whole.as_slice(), p_split.as_slice());
                assert_eq!(bits(w), bits(s), "{kind:?} step {step}");
            }
        }
    }

    #[test]
    fn adagrad_shrinks_effective_rate() {
        let mut opt = RowOptimizer::new(OptimizerKind::Adagrad { lr: 1.0 }, 1, 1);
        let mut p = vec![0.0f32];
        opt.update_row(0, &mut p, &[1.0]);
        let first = -p[0];
        let before = p[0];
        opt.update_row(0, &mut p, &[1.0]);
        let second = before - p[0];
        assert!(second < first, "accumulated squares must damp the step");
    }

    #[test]
    fn rows_have_independent_state() {
        let mut opt = RowOptimizer::new(OptimizerKind::Adagrad { lr: 1.0 }, 2, 1);
        let mut p0 = vec![0.0];
        let mut p1 = vec![0.0];
        opt.update_row(0, &mut p0, &[3.0]);
        opt.update_row(1, &mut p1, &[3.0]);
        assert_eq!(p0, p1, "first step identical on fresh state");
        opt.update_row(0, &mut p0, &[3.0]);
        assert_ne!(p0, p1, "second step sees row 0's accumulator only");
    }
}

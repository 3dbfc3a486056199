//! Sparse per-row optimizers colocated with the shard.
//!
//! The optimizer state (Adagrad accumulator, momentum velocity) lives next
//! to the parameter rows it updates — DGL's `DistSparseGradOptimizer`
//! layout — so a push only moves the gradient, never the state. Updates
//! are element-wise over exactly the rows a push touched; the arithmetic
//! matches `embrace-dlsim`'s dense optimizers step-for-step so a sharded
//! service and a single-shard oracle stay bitwise interchangeable.

use embrace_tensor::DenseTensor;

/// Which update rule a [`RowOptimizer`] applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD: `p -= lr * g`.
    Sgd { lr: f32 },
    /// SGD with momentum: `v = m*v + g; p -= lr * v`.
    Momentum { lr: f32, momentum: f32 },
    /// Adagrad: `a += g²; p -= lr * g / (sqrt(a) + eps)` with `eps = 1e-10`
    /// (the same constant `embrace-dlsim`'s Adagrad uses).
    Adagrad { lr: f32 },
}

/// Per-row optimizer state for one shard of `rows × dim` parameters.
pub struct RowOptimizer {
    kind: OptimizerKind,
    /// Adagrad accumulator or momentum velocity (`rows × dim`); empty
    /// (0 × dim) for stateless SGD.
    state: DenseTensor,
}

const ADAGRAD_EPS: f32 = 1e-10;

impl RowOptimizer {
    /// Fresh (zero) state for a shard of `rows` rows of width `dim`.
    pub fn new(kind: OptimizerKind, rows: usize, dim: usize) -> Self {
        let state = match kind {
            OptimizerKind::Sgd { .. } => DenseTensor::zeros(0, dim),
            OptimizerKind::Momentum { .. } | OptimizerKind::Adagrad { .. } => {
                DenseTensor::zeros(rows, dim)
            }
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
            _ => self.state.row_mut(local),
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
                _ => &mut state[at.clone()],
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
            OptimizerKind::Sgd { lr } => {
                for (p, &g) in params.iter_mut().zip(grad) {
                    *p -= lr * g;
                }
            }
            OptimizerKind::Momentum { lr, momentum } => {
                for ((p, v), &g) in params.iter_mut().zip(state).zip(grad) {
                    *v = momentum * *v + g;
                    *p -= lr * *v;
                }
            }
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

    #[test]
    fn sgd_is_stateless_scaling() {
        let mut opt = RowOptimizer::new(OptimizerKind::Sgd { lr: 0.5 }, 2, 2);
        let mut p = vec![1.0, 2.0];
        opt.update_row(0, &mut p, &[2.0, 4.0]);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = RowOptimizer::new(OptimizerKind::Momentum { lr: 1.0, momentum: 0.5 }, 1, 1);
        let mut p = vec![0.0];
        opt.update_row(0, &mut p, &[1.0]); // v = 1,   p = -1
        opt.update_row(0, &mut p, &[1.0]); // v = 1.5, p = -2.5
        assert_eq!(p, vec![-2.5]);
    }

    #[test]
    fn adagrad_matches_dlsim_math() {
        let lr = 0.1f32;
        let g = 2.0f32;
        let mut opt = RowOptimizer::new(OptimizerKind::Adagrad { lr }, 1, 1);
        let mut p = vec![0.0f32];
        opt.update_row(0, &mut p, &[g]);
        let a = g * g;
        assert_eq!(p[0], -(lr * g / (a.sqrt() + ADAGRAD_EPS)));
    }

    #[test]
    fn update_rows_matches_a_loop_of_update_row_bitwise() {
        let grads = [[0.5f32, -1.5, 2.0], [3.0, 0.25, -0.125], [-2.0, 1.0, 0.75]];
        // Row 2 twice: the second application must see the first's state.
        let order = [2usize, 0, 2, 3];
        for kind in [
            OptimizerKind::Sgd { lr: 0.1 },
            OptimizerKind::Momentum { lr: 0.1, momentum: 0.9 },
            OptimizerKind::Adagrad { lr: 0.1 },
        ] {
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
            let bits =
                |t: &DenseTensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{kind:?}");
        }
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

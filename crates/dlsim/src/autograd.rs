//! A minimal tape-based automatic-differentiation engine.
//!
//! The EmbRace prototype rides on PyTorch's autograd; the reproduction's
//! convergence experiments need real gradients flowing through real model
//! structure (embedding lookups feeding dense layers). This tape supports
//! exactly the dense operators those models use — matmul, addition, bias
//! broadcast, tanh, mean-squared-error — with reverse-mode backward in
//! node-creation order. Embedding tables stay *outside* the tape (EmbRace
//! shards them across workers): a lookup result enters as a
//! gradient-requiring leaf, and after `backward` its gradient pairs with
//! the batch tokens to form the row-sparse embedding gradient.

use embrace_tensor::DenseTensor;

/// Identifier of a tape node.
pub type NodeId = usize;

enum Op {
    /// Input tensor; `requires_grad` decides whether a gradient buffer is
    /// accumulated for it.
    Leaf,
    /// `C = A · B`.
    MatMul(NodeId, NodeId),
    /// `C = A + B` (same shape).
    Add(NodeId, NodeId),
    /// `C = A + bias` where `bias` is `1 × cols`, broadcast over rows.
    AddBias(NodeId, NodeId),
    /// `C = tanh(A)`, element-wise.
    Tanh(NodeId),
    /// `C = sigmoid(A)`, element-wise.
    Sigmoid(NodeId),
    /// `C = A ⊙ B`, element-wise product.
    Mul(NodeId, NodeId),
    /// `C = A[:, start..start+C.cols]`.
    SliceCols(NodeId, usize),
    /// Scalar node: `½ Σ (A − target)²`.
    MseLoss(NodeId, DenseTensor),
}

struct Node {
    value: DenseTensor,
    grad: Option<DenseTensor>,
    op: Op,
    requires_grad: bool,
}

/// A dynamic computation graph recorded in execution order.
///
/// Typical use: create leaves, compose ops, call [`Tape::backward`] on the
/// (scalar) loss node, read gradients with [`Tape::grad`].
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Tape::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: DenseTensor, op: Op, requires_grad: bool) -> NodeId {
        self.nodes.push(Node { value, grad: None, op, requires_grad });
        self.nodes.len() - 1
    }

    /// Add an input tensor. Gradients are accumulated for it only when
    /// `requires_grad` is set.
    pub fn leaf(&mut self, value: DenseTensor, requires_grad: bool) -> NodeId {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &DenseTensor {
        &self.nodes[id].value
    }

    /// The gradient of a node after [`Tape::backward`]; panics if the node
    /// did not require (or receive) a gradient.
    pub fn grad(&self, id: NodeId) -> &DenseTensor {
        self.nodes[id].grad.as_ref().unwrap_or_else(|| {
            panic!("node {id} has no gradient (requires_grad or backward missing)")
        })
    }

    /// Matrix product node.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.matmul(&self.nodes[b].value);
        let rg = self.nodes[a].requires_grad || self.nodes[b].requires_grad;
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Element-wise sum node (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut value = self.nodes[a].value.clone();
        value.add_assign(&self.nodes[b].value);
        let rg = self.nodes[a].requires_grad || self.nodes[b].requires_grad;
        self.push(value, Op::Add(a, b), rg)
    }

    /// Broadcast-add a `1 × cols` bias to every row of `a`.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let b = &self.nodes[bias].value;
        assert_eq!(b.rows(), 1, "bias must be a single row");
        assert_eq!(b.cols(), self.nodes[a].value.cols(), "bias width mismatch");
        let mut value = self.nodes[a].value.clone();
        for dst in value.rows_mut() {
            for (d, s) in dst.iter_mut().zip(b.row(0)) {
                *d += s;
            }
        }
        let rg = self.nodes[a].requires_grad || self.nodes[bias].requires_grad;
        self.push(value, Op::AddBias(a, bias), rg)
    }

    /// Element-wise logistic sigmoid node.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut value = self.nodes[a].value.clone();
        for x in value.as_mut_slice() {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        let rg = self.nodes[a].requires_grad;
        self.push(value, Op::Sigmoid(a), rg)
    }

    /// Element-wise (Hadamard) product node.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let av = &self.nodes[a].value;
        let bv = &self.nodes[b].value;
        assert_eq!((av.rows(), av.cols()), (bv.rows(), bv.cols()), "shape mismatch in mul");
        let mut value = av.clone();
        for (x, &y) in value.as_mut_slice().iter_mut().zip(bv.as_slice()) {
            *x *= y;
        }
        let rg = self.nodes[a].requires_grad || self.nodes[b].requires_grad;
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Column-slice node: keep columns `[start, end)` of every row.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let value = self.nodes[a].value.slice_columns(start, end);
        let rg = self.nodes[a].requires_grad;
        self.push(value, Op::SliceCols(a, start), rg)
    }

    /// Element-wise `tanh` node.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut value = self.nodes[a].value.clone();
        for x in value.as_mut_slice() {
            *x = x.tanh();
        }
        let rg = self.nodes[a].requires_grad;
        self.push(value, Op::Tanh(a), rg)
    }

    /// Scalar loss node `½‖a − target‖²` (sum over all elements).
    pub fn mse_loss(&mut self, a: NodeId, target: &DenseTensor) -> NodeId {
        let av = &self.nodes[a].value;
        assert_eq!((av.rows(), av.cols()), (target.rows(), target.cols()), "target shape mismatch");
        let mut diff = av.clone();
        diff.axpy(-1.0, target);
        let loss = 0.5 * diff.norm_sq();
        let rg = self.nodes[a].requires_grad;
        self.push(DenseTensor::from_vec(1, 1, vec![loss]), Op::MseLoss(a, target.clone()), rg)
    }

    /// Scalar value of a `1 × 1` node (e.g. a loss).
    pub fn scalar(&self, id: NodeId) -> f32 {
        let v = &self.nodes[id].value;
        assert_eq!((v.rows(), v.cols()), (1, 1), "not a scalar node");
        v.as_slice()[0]
    }

    fn accumulate(&mut self, id: NodeId, delta: &DenseTensor) {
        let node = &mut self.nodes[id];
        match &mut node.grad {
            Some(g) => g.add_assign(delta),
            None => node.grad = Some(delta.clone()),
        }
    }

    /// Reverse-mode backward from the scalar node `loss` (seeded with 1).
    /// Gradients accumulate into every node on the path to gradient-
    /// requiring leaves; calling `backward` twice accumulates twice.
    pub fn backward(&mut self, loss: NodeId) {
        let v = &self.nodes[loss].value;
        assert_eq!((v.rows(), v.cols()), (1, 1), "backward starts from a scalar node");
        self.accumulate(loss, &DenseTensor::from_vec(1, 1, vec![1.0]));
        for id in (0..=loss).rev() {
            let Some(grad) = self.nodes[id].grad.clone() else { continue };
            if !self.nodes[id].requires_grad {
                continue;
            }
            match &self.nodes[id].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a].requires_grad {
                        let da = grad.matmul_nt(&self.nodes[b].value);
                        self.accumulate(a, &da);
                    }
                    if self.nodes[b].requires_grad {
                        let db = self.nodes[a].value.matmul_tn(&grad);
                        self.accumulate(b, &db);
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a].requires_grad {
                        self.accumulate(a, &grad);
                    }
                    if self.nodes[b].requires_grad {
                        self.accumulate(b, &grad);
                    }
                }
                Op::AddBias(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    if self.nodes[a].requires_grad {
                        self.accumulate(a, &grad);
                    }
                    if self.nodes[bias].requires_grad {
                        let mut db = DenseTensor::zeros(1, grad.cols());
                        let dst = db.as_mut_slice();
                        for row in grad.row_iter() {
                            embrace_tensor::kernels::add_assign(dst, row);
                        }
                        self.accumulate(bias, &db);
                    }
                }
                Op::Tanh(a) => {
                    let a = *a;
                    if self.nodes[a].requires_grad {
                        // d tanh(x) = 1 - tanh(x)^2, and we stored tanh(x).
                        let mut da = grad.clone();
                        for (d, &y) in
                            da.as_mut_slice().iter_mut().zip(self.nodes[id].value.as_slice())
                        {
                            *d *= 1.0 - y * y;
                        }
                        self.accumulate(a, &da);
                    }
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    if self.nodes[a].requires_grad {
                        // d sigmoid(x) = y(1-y), and we stored y.
                        let mut da = grad.clone();
                        for (d, &y) in
                            da.as_mut_slice().iter_mut().zip(self.nodes[id].value.as_slice())
                        {
                            *d *= y * (1.0 - y);
                        }
                        self.accumulate(a, &da);
                    }
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a].requires_grad {
                        let mut da = grad.clone();
                        for (d, &y) in
                            da.as_mut_slice().iter_mut().zip(self.nodes[b].value.as_slice())
                        {
                            *d *= y;
                        }
                        self.accumulate(a, &da);
                    }
                    if self.nodes[b].requires_grad {
                        let mut db = grad.clone();
                        for (d, &y) in
                            db.as_mut_slice().iter_mut().zip(self.nodes[a].value.as_slice())
                        {
                            *d *= y;
                        }
                        self.accumulate(b, &db);
                    }
                }
                Op::SliceCols(a, start) => {
                    let (a, start) = (*a, *start);
                    if self.nodes[a].requires_grad {
                        let mut da = DenseTensor::zeros(
                            self.nodes[a].value.rows(),
                            self.nodes[a].value.cols(),
                        );
                        da.set_columns(start, &grad);
                        self.accumulate(a, &da);
                    }
                }
                Op::MseLoss(a, target) => {
                    let a = *a;
                    if self.nodes[a].requires_grad {
                        let scale = grad.as_slice()[0];
                        let mut da = self.nodes[a].value.clone();
                        da.axpy(-1.0, target);
                        da.scale(scale);
                        self.accumulate(a, &da);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Central-difference check of `d loss / d x[i]` for every element of
    /// a leaf, against the tape's analytic gradient.
    fn check_numeric<F>(x: DenseTensor, build: F)
    where
        F: Fn(&mut Tape, NodeId) -> NodeId,
    {
        let mut tape = Tape::new();
        let xid = tape.leaf(x.clone(), true);
        let loss = build(&mut tape, xid);
        tape.backward(loss);
        let analytic = tape.grad(xid).clone();

        let eps = 1e-3_f32;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let f = |t: DenseTensor| {
                let mut tape = Tape::new();
                let id = tape.leaf(t, false);
                let loss = build(&mut tape, id);
                tape.scalar(loss)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let got = analytic.as_slice()[i];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "element {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn mse_gradient_matches_numeric() {
        let x = DenseTensor::from_vec(2, 2, vec![0.5, -0.3, 1.2, 0.0]);
        let target = DenseTensor::full(2, 2, 0.7);
        check_numeric(x, move |tape, xid| tape.mse_loss(xid, &target));
    }

    #[test]
    fn matmul_gradient_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = DenseTensor::uniform(3, 4, 1.0, &mut rng);
        let w = DenseTensor::uniform(4, 2, 1.0, &mut rng);
        let target = DenseTensor::zeros(3, 2);
        check_numeric(x, move |tape, xid| {
            let wid = tape.leaf(w.clone(), false);
            let y = tape.matmul(xid, wid);
            tape.mse_loss(y, &target)
        });
    }

    #[test]
    fn weight_gradient_through_matmul() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = DenseTensor::uniform(3, 4, 1.0, &mut rng);
        let w = DenseTensor::uniform(4, 2, 1.0, &mut rng);
        let target = DenseTensor::zeros(3, 2);
        let x2 = x.clone();
        check_numeric(w, move |tape, wid| {
            let xid = tape.leaf(x2.clone(), false);
            let y = tape.matmul(xid, wid);
            tape.mse_loss(y, &target)
        });
        let _ = x;
    }

    #[test]
    fn tanh_mlp_gradient_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = DenseTensor::uniform(2, 3, 0.8, &mut rng);
        let w1 = DenseTensor::uniform(3, 3, 0.8, &mut rng);
        let b1 = DenseTensor::uniform(1, 3, 0.5, &mut rng);
        let w2 = DenseTensor::uniform(3, 2, 0.8, &mut rng);
        let target = DenseTensor::full(2, 2, 0.3);
        check_numeric(x, move |tape, xid| {
            let w1 = tape.leaf(w1.clone(), false);
            let b1 = tape.leaf(b1.clone(), false);
            let w2 = tape.leaf(w2.clone(), false);
            let h = tape.matmul(xid, w1);
            let h = tape.add_bias(h, b1);
            let h = tape.tanh(h);
            let y = tape.matmul(h, w2);
            tape.mse_loss(y, &target)
        });
    }

    #[test]
    fn add_fans_gradient_to_both_inputs() {
        let mut tape = Tape::new();
        let a = tape.leaf(DenseTensor::full(1, 2, 1.0), true);
        let b = tape.leaf(DenseTensor::full(1, 2, 2.0), true);
        let c = tape.add(a, b);
        let loss = tape.mse_loss(c, &DenseTensor::zeros(1, 2));
        tape.backward(loss);
        // d loss/d c = c = [3,3]; both inputs receive it.
        assert_eq!(tape.grad(a).as_slice(), &[3.0, 3.0]);
        assert_eq!(tape.grad(b).as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn bias_gradient_sums_over_rows() {
        let mut tape = Tape::new();
        let x = tape.leaf(DenseTensor::zeros(3, 2), false);
        let b = tape.leaf(DenseTensor::full(1, 2, 1.0), true);
        let y = tape.add_bias(x, b);
        let loss = tape.mse_loss(y, &DenseTensor::zeros(3, 2));
        tape.backward(loss);
        // Every row contributes its residual (=1) to the bias gradient.
        assert_eq!(tape.grad(b).as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn no_grad_leaves_skip_accumulation() {
        let mut tape = Tape::new();
        let x = tape.leaf(DenseTensor::full(1, 1, 2.0), false);
        let loss = tape.mse_loss(x, &DenseTensor::zeros(1, 1));
        tape.backward(loss);
        assert!((tape.scalar(loss) - 2.0).abs() < 1e-6);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tape.grad(x))).is_err());
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = mse(a + a) — gradient w.r.t. a flows down both edges.
        let mut tape = Tape::new();
        let a = tape.leaf(DenseTensor::full(1, 1, 1.0), true);
        let c = tape.add(a, a);
        let loss = tape.mse_loss(c, &DenseTensor::zeros(1, 1));
        tape.backward(loss);
        // c = 2, d loss/dc = 2, d loss/da = 2 + 2 = 4.
        assert_eq!(tape.grad(a).as_slice(), &[4.0]);
    }

    #[test]
    #[should_panic(expected = "scalar node")]
    fn backward_from_non_scalar_panics() {
        let mut tape = Tape::new();
        let a = tape.leaf(DenseTensor::zeros(2, 2), true);
        tape.backward(a);
    }
}

#[cfg(test)]
mod lstm_op_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sigmoid_gradient_matches_numeric() {
        let x = DenseTensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let target = DenseTensor::zeros(1, 3);
        let build = move |tape: &mut Tape, xid: NodeId| {
            let s = tape.sigmoid(xid);
            tape.mse_loss(s, &target)
        };
        let mut tape = Tape::new();
        let xid = tape.leaf(x.clone(), true);
        let loss = build(&mut tape, xid);
        tape.backward(loss);
        let analytic = tape.grad(xid).clone();
        let eps = 1e-3_f32;
        for i in 0..x.len() {
            let f = |v: f32| {
                let mut t = x.clone();
                t.as_mut_slice()[i] = v;
                let mut tape = Tape::new();
                let id = tape.leaf(t, false);
                let l = build(&mut tape, id);
                tape.scalar(l)
            };
            let numeric = (f(x.as_slice()[i] + eps) - f(x.as_slice()[i] - eps)) / (2.0 * eps);
            assert!((numeric - analytic.as_slice()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn mul_gradient_is_cross_term() {
        let mut tape = Tape::new();
        let a = tape.leaf(DenseTensor::from_vec(1, 2, vec![2.0, 3.0]), true);
        let b = tape.leaf(DenseTensor::from_vec(1, 2, vec![5.0, 7.0]), true);
        let c = tape.mul(a, b);
        let loss = tape.mse_loss(c, &DenseTensor::zeros(1, 2));
        tape.backward(loss);
        // d loss/dc = c = [10, 21]; da = c*b, db = c*a.
        assert_eq!(tape.grad(a).as_slice(), &[50.0, 147.0]);
        assert_eq!(tape.grad(b).as_slice(), &[20.0, 63.0]);
    }

    #[test]
    fn slice_backward_scatters_into_range() {
        let mut tape = Tape::new();
        let a = tape.leaf(DenseTensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]), true);
        let mid = tape.slice_cols(a, 1, 3);
        let loss = tape.mse_loss(mid, &DenseTensor::zeros(1, 2));
        tape.backward(loss);
        assert_eq!(tape.grad(a).as_slice(), &[0.0, 2.0, 3.0, 0.0]);
    }

    /// One LSTM cell built from tape ops; numeric-check the input grad.
    #[test]
    fn lstm_cell_gradient_matches_numeric() {
        let d = 3;
        let mut rng = StdRng::seed_from_u64(12);
        let x = DenseTensor::uniform(2, d, 0.7, &mut rng);
        let h0 = DenseTensor::uniform(2, d, 0.5, &mut rng);
        let c0 = DenseTensor::uniform(2, d, 0.5, &mut rng);
        let wx = DenseTensor::uniform(d, 4 * d, 0.5, &mut rng);
        let wh = DenseTensor::uniform(d, 4 * d, 0.5, &mut rng);
        let target = DenseTensor::zeros(2, d);

        let build = move |tape: &mut Tape, xid: NodeId| {
            let h0 = tape.leaf(h0.clone(), false);
            let c0 = tape.leaf(c0.clone(), false);
            let wx = tape.leaf(wx.clone(), false);
            let wh = tape.leaf(wh.clone(), false);
            let gx = tape.matmul(xid, wx);
            let gh = tape.matmul(h0, wh);
            let gates = tape.add(gx, gh);
            let i = tape.slice_cols(gates, 0, d);
            let i = tape.sigmoid(i);
            let f = tape.slice_cols(gates, d, 2 * d);
            let f = tape.sigmoid(f);
            let o = tape.slice_cols(gates, 2 * d, 3 * d);
            let o = tape.sigmoid(o);
            let g = tape.slice_cols(gates, 3 * d, 4 * d);
            let g = tape.tanh(g);
            let fc = tape.mul(f, c0);
            let ig = tape.mul(i, g);
            let c1 = tape.add(fc, ig);
            let c1t = tape.tanh(c1);
            let h1 = tape.mul(o, c1t);
            tape.mse_loss(h1, &target)
        };

        let mut tape = Tape::new();
        let xid = tape.leaf(x.clone(), true);
        let loss = build(&mut tape, xid);
        tape.backward(loss);
        let analytic = tape.grad(xid).clone();
        let eps = 1e-3_f32;
        for idx in 0..x.len() {
            let f = |v: f32| {
                let mut t = x.clone();
                t.as_mut_slice()[idx] = v;
                let mut tape = Tape::new();
                let id = tape.leaf(t, false);
                let l = build(&mut tape, id);
                tape.scalar(l)
            };
            let numeric = (f(x.as_slice()[idx] + eps) - f(x.as_slice()[idx] - eps)) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "elem {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }
}

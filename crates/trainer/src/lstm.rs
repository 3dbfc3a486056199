//! Convergence of a recurrent (LSTM) language model — the model *class*
//! of the paper's LM benchmark (Jozefowicz et al. big-LSTM), miniaturised.
//!
//! A single LSTM layer is unrolled over `SEQ_LEN` timesteps on the
//! autograd tape; each position's hidden state predicts the target vector
//! of the *next* token (the regression analog of next-token prediction,
//! so the loss plays the role of PPL). The first
//! `tokens_per_batch / (SEQ_LEN + 1)` tokens of a drawn batch each head a
//! sequence, and a successor grammar supplies the rest. The step looks up
//! every timestep's tokens at once, timestep-major, so the sparse
//! gradient is the *uncoalesced concatenation over timesteps* — precisely
//! the duplicate-heavy gradient Algorithm 1's coalescing was designed for.
//!
//! `Lstm` is a `Model` of the one EmbRace step and the one AllGather
//! baseline in [`crate::real`]; trained both ways, the loss curves must
//! coincide.

use crate::real::{
    flat_grad, leaves, train, ConvergenceConfig, ConvergenceResult, Model, TrainMethod,
};
use embrace_dlsim::autograd::Tape;
use embrace_tensor::DenseTensor;

/// Unroll length (tokens per sequence; position `t` predicts `t+1`).
const SEQ_LEN: usize = 4;

/// The dense block's parameters as `(rows, cols, init scale)`, in block
/// order: `Wx` and `Wh` (`d × 4d`), the gate bias (`1 × 4d`) and `W_out`
/// (`d × d`).
fn params(d: usize) -> [(usize, usize, f32); 4] {
    [(d, 4 * d, 0.3), (d, 4 * d, 0.3), (1, 4 * d, 0.1), (d, d, 0.3)]
}

/// The LSTM LM's read-only data.
#[derive(Clone)]
pub(crate) struct Lstm {
    /// Each token's target vector (`vocab × dim`).
    targets: DenseTensor,
    /// Sequences per batch.
    seqs: usize,
}

/// Deterministic token-successor function: the synthetic "grammar". A
/// sequence is a Zipf-drawn head token followed by its successor chain,
/// so the next token (and hence its target vector) is *predictable* from
/// the prefix — giving the LSTM a learnable task.
fn successor(token: u32, vocab: usize) -> u32 {
    ((token as u64 * 31 + 17) % (vocab as u64 - 1)) as u32 + 1
}

impl Model for Lstm {
    const SEED_OFFSET: u64 = 1234;

    fn dense_params(dim: usize) -> Vec<(usize, usize, f32)> {
        params(dim).to_vec()
    }

    fn with_targets(cfg: &ConvergenceConfig, targets: DenseTensor) -> Lstm {
        Lstm { targets, seqs: (cfg.tokens_per_batch / (SEQ_LEN + 1)).max(1) }
    }

    #[cfg(test)]
    fn targets(&self) -> &[f32] {
        self.targets.as_slice()
    }

    /// `SEQ_LEN` blocks of `seqs` tokens, block `t` timestep `t`'s inputs:
    /// the batch's first `seqs` tokens, then each block the successors of
    /// the one before.
    fn expand(&self, mut batch: Vec<u32>) -> Vec<u32> {
        batch.truncate(self.seqs);
        for i in 0..(SEQ_LEN - 1) * self.seqs {
            batch.push(successor(batch[i], self.targets.rows()));
        }
        batch
    }

    fn fwd_bwd(
        &self,
        lookup: &DenseTensor,
        tokens: &[u32],
        dense: &DenseTensor,
    ) -> (f64, DenseTensor, DenseTensor) {
        let (d, seqs) = (lookup.cols(), self.seqs);
        let mut tape = Tape::new();
        let [wx, wh, bias, w_out] = leaves(&mut tape, dense, params(d));
        let mut h = tape.leaf(DenseTensor::zeros(seqs, d), false);
        let mut c = tape.leaf(DenseTensor::zeros(seqs, d), false);
        let mut x_nodes = Vec::with_capacity(SEQ_LEN);
        let mut total_loss = None;
        for (t, inputs) in tokens.chunks(seqs).enumerate() {
            let x = tape.leaf(lookup.slice_rows(t * seqs, (t + 1) * seqs), true);
            x_nodes.push(x);
            // Gates = x·Wx + h·Wh + bias.
            let gx = tape.matmul(x, wx);
            let gh = tape.matmul(h, wh);
            let gsum = tape.add(gx, gh);
            let gates = tape.add_bias(gsum, bias);
            let i = tape.slice_cols(gates, 0, d);
            let i = tape.sigmoid(i);
            let f = tape.slice_cols(gates, d, 2 * d);
            let f = tape.sigmoid(f);
            let o = tape.slice_cols(gates, 2 * d, 3 * d);
            let o = tape.sigmoid(o);
            let g = tape.slice_cols(gates, 3 * d, 4 * d);
            let g = tape.tanh(g);
            let fc = tape.mul(f, c);
            let ig = tape.mul(i, g);
            c = tape.add(fc, ig);
            let ct = tape.tanh(c);
            h = tape.mul(o, ct);
            // Predict the next token's target vector.
            let y = tape.matmul(h, w_out);
            let next: Vec<u32> =
                inputs.iter().map(|&tok| successor(tok, self.targets.rows())).collect();
            let l = tape.mse_loss(y, &self.targets.gather_rows(&next));
            total_loss = Some(match total_loss {
                None => l,
                Some(acc) => tape.add(acc, l),
            });
        }
        let loss = total_loss.expect("SEQ_LEN > 0");
        tape.backward(loss);
        // The timesteps' lookup gradients stacked in token order: one
        // uncoalesced sparse gradient (tokens repeat across timesteps —
        // coalescing's raison d'être).
        let grad_rows: Vec<DenseTensor> = x_nodes.iter().map(|&x| tape.grad(x).clone()).collect();
        let grad_dense = flat_grad(&tape, &[wx, wh, bias, w_out]);
        (tape.scalar(loss) as f64, grad_dense, DenseTensor::concat_rows(&grad_rows))
    }
}

/// Train the LSTM LM; returns the per-step global loss curve.
pub fn train_lstm_lm(method: TrainMethod, cfg: &ConvergenceConfig) -> ConvergenceResult {
    train::<Lstm>(method, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_tensor::{coalesce, RowSparse};

    fn cfg() -> ConvergenceConfig {
        ConvergenceConfig {
            world: 4,
            vocab: 120,
            dim: 8,
            tokens_per_batch: 60, // 12 sequences of 5 tokens
            steps: 80,
            lr: 0.06,
            zipf_s: 0.9,
            seed: 33,
        }
    }

    #[test]
    fn lstm_lm_learns() {
        let r = train_lstm_lm(TrainMethod::HorovodAllGather, &cfg());
        let early: f64 = r.losses[..5].iter().sum();
        let late: f64 = r.losses[75..].iter().sum();
        assert!(late < early * 0.7, "early {early} late {late}");
    }

    #[test]
    fn timestep_gradients_have_duplicates_to_coalesce() {
        // The whole point of testing with an RNN: the concatenated
        // gradient carries each sequence token once per *occurrence*.
        let (mut table, dense, lstm) = Lstm::init(&cfg(), 1);
        let heads = vec![1, 5, 1, 2, 9, 1, 5, 3, 1, 2, 7, 1];
        let tokens = lstm.expand(heads);
        let lookup = table.pop().unwrap().gather_rows(&tokens);
        let (_, grad_dense, grad_rows) = lstm.fwd_bwd(&lookup, &tokens, &dense);
        assert_eq!(grad_dense.len(), dense.len());
        let grad = RowSparse::new(tokens, grad_rows);
        assert_eq!(grad.nnz_rows(), SEQ_LEN * lstm.seqs);
        assert!(coalesce(&grad).nnz_rows() < grad.nnz_rows(), "Zipf batch must repeat tokens");
    }

    #[test]
    fn expansion_follows_the_grammar() {
        let lstm = Lstm { targets: DenseTensor::zeros(100, 1), seqs: 2 };
        let tokens = lstm.expand(vec![3, 7, 50]);
        assert_eq!(tokens.len(), SEQ_LEN * 2);
        assert_eq!(tokens[..2], [3, 7]);
        for (t, next) in tokens.iter().zip(&tokens[2..]) {
            assert_eq!(*next, successor(*t, 100));
        }
        // Successor stays inside the vocabulary and off the PAD token.
        for tok in 0..100u32 {
            let n = successor(tok, 100);
            assert!((1..100).contains(&n));
        }
    }
}

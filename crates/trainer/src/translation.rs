//! Convergence of a translation-shaped model (paper Fig. 11b analog).
//!
//! A GNMT-like micro-model with *two* embedding tables (encoder and
//! decoder, §4.2.1's structure) and a real autograd tape
//! (`embrace_dlsim::autograd`) computing the dense gradients:
//!
//! ```text
//! enc_tokens → E_enc → ·W_enc → tanh ┐
//!                                    (+) → ·W_out → MSE(target rows)
//! dec_tokens → E_dec → ·W_dec → tanh ┘
//! ```
//!
//! Both tables are row ranges of one column-sharded table: the encoder's
//! rows are `[0, vocab)`, the decoder's `[vocab, 2·vocab)`. Each batch a
//! rank draws is a sentence pair: its first half holds the encoder
//! tokens, its second half the decoder tokens, which the expansion shifts
//! by `vocab` into the decoder's rows (an odd batch's last token goes
//! unused). One token gather, one AlltoAll #1 and one prior/delayed pair
//! of AlltoAll #2 exchanges then serve both tables; the rows are
//! disjoint, so per row the split, the sum and Adam are those of two
//! tables exchanged apart.
//!
//! `Translation` is a `Model` of the one EmbRace step and the one
//! AllGather baseline in [`crate::real`]; trained both ways, the loss
//! curves must coincide, reproducing the Fig. 11b claim for the
//! multi-embedding case.

use crate::real::{
    flat_grad, leaves, train, ConvergenceConfig, ConvergenceResult, Model, TrainMethod,
};
use embrace_dlsim::autograd::Tape;
use embrace_tensor::DenseTensor;

/// The dense block's parameters as `(rows, cols, init scale)`, in block
/// order: `W_enc`, `W_dec` and `W_out`, each `d × d`.
fn params(d: usize) -> [(usize, usize, f32); 3] {
    [(d, d, 0.3); 3]
}

/// The translation model's read-only data: each decoder token's target
/// vector (`vocab × dim`).
#[derive(Clone)]
pub(crate) struct Translation {
    targets: DenseTensor,
}

impl Model for Translation {
    const SEED_OFFSET: u64 = 77;

    /// The encoder's rows, then the decoder's.
    fn table_rows(cfg: &ConvergenceConfig) -> usize {
        2 * cfg.vocab
    }

    fn dense_params(dim: usize) -> Vec<(usize, usize, f32)> {
        params(dim).to_vec()
    }

    fn with_targets(_: &ConvergenceConfig, targets: DenseTensor) -> Translation {
        Translation { targets }
    }

    #[cfg(test)]
    fn targets(&self) -> &[f32] {
        self.targets.as_slice()
    }

    /// The batch's first half as encoder rows, its second half shifted
    /// into the decoder's.
    fn expand(&self, mut batch: Vec<u32>) -> Vec<u32> {
        let pairs = batch.len() / 2;
        batch.truncate(2 * pairs);
        for t in &mut batch[pairs..] {
            *t += self.targets.rows() as u32;
        }
        batch
    }

    fn fwd_bwd(
        &self,
        lookup: &DenseTensor,
        tokens: &[u32],
        dense: &DenseTensor,
    ) -> (f64, DenseTensor, DenseTensor) {
        let pairs = tokens.len() / 2;
        let mut tape = Tape::new();
        let enc_in = tape.leaf(lookup.slice_rows(0, pairs), true);
        let dec_in = tape.leaf(lookup.slice_rows(pairs, 2 * pairs), true);
        let [w_enc, w_dec, w_out] = leaves(&mut tape, dense, params(lookup.cols()));

        let he = tape.matmul(enc_in, w_enc);
        let he = tape.tanh(he);
        let hd = tape.matmul(dec_in, w_dec);
        let hd = tape.tanh(hd);
        let h = tape.add(he, hd);
        let y = tape.matmul(h, w_out);
        let vocab = self.targets.rows() as u32;
        let dec_tokens: Vec<u32> = tokens[pairs..].iter().map(|&t| t - vocab).collect();
        let loss = tape.mse_loss(y, &self.targets.gather_rows(&dec_tokens));
        tape.backward(loss);

        let grad_rows = [tape.grad(enc_in).clone(), tape.grad(dec_in).clone()];
        let grad_dense = flat_grad(&tape, &[w_enc, w_dec, w_out]);
        (tape.scalar(loss) as f64, grad_dense, DenseTensor::concat_rows(&grad_rows))
    }
}

/// Train the translation micro-model; per-step global loss curve.
pub fn train_translation(method: TrainMethod, cfg: &ConvergenceConfig) -> ConvergenceResult {
    train::<Translation>(method, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_model_learns() {
        let cfg = ConvergenceConfig {
            world: 4,
            vocab: 150,
            dim: 12,
            tokens_per_batch: 48,
            steps: 40,
            lr: 0.03,
            zipf_s: 0.9,
            seed: 21,
        };
        let r = train_translation(TrainMethod::HorovodAllGather, &cfg);
        let early: f64 = r.losses[..5].iter().sum();
        let late: f64 = r.losses[35..].iter().sum();
        assert!(late < early * 0.6, "early {early} late {late}");
    }

    #[test]
    fn decoder_tokens_are_the_second_half_shifted() {
        let model = Translation { targets: DenseTensor::zeros(10, 1) };
        assert_eq!(model.expand(vec![1, 2, 3, 4, 5]), [1, 2, 13, 14]);
    }
}

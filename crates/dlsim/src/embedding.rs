//! A functional embedding table with sparse backward.
//!
//! `lookup` gathers rows for a token batch (FP). Its backward is the
//! output gradient keyed by the same tokens, `RowSparse::new(tokens,
//! d_out)`: the uncoalesced row-sparse COO gradient that is the object of
//! the whole paper, which the trainers build directly.

use embrace_tensor::DenseTensor;
use rand::Rng;

/// A `vocab × dim` embedding table.
#[derive(Clone, Debug)]
pub struct EmbeddingTable {
    table: DenseTensor,
}

impl EmbeddingTable {
    /// Initialise with uniform random weights in `[-scale, scale]`.
    pub fn new<R: Rng>(vocab: usize, dim: usize, scale: f32, rng: &mut R) -> Self {
        EmbeddingTable { table: DenseTensor::uniform(vocab, dim, scale, rng) }
    }

    /// Wrap an existing table (e.g. a column shard of a larger one).
    pub fn from_table(table: DenseTensor) -> Self {
        EmbeddingTable { table }
    }

    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    pub fn table(&self) -> &DenseTensor {
        &self.table
    }

    pub fn table_mut(&mut self) -> &mut DenseTensor {
        &mut self.table
    }

    /// Forward pass: one output row per token (duplicates repeat rows).
    pub fn lookup(&self, tokens: &[u32]) -> DenseTensor {
        self.table.gather_rows(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn table() -> EmbeddingTable {
        let t = DenseTensor::from_vec(4, 2, vec![0., 0., 1., 10., 2., 20., 3., 30.]);
        EmbeddingTable::from_table(t)
    }

    #[test]
    fn lookup_repeats_duplicate_tokens() {
        let e = table();
        let out = e.lookup(&[3, 1, 3]);
        assert_eq!(out.row(0), &[3.0, 30.0]);
        assert_eq!(out.row(1), &[1.0, 10.0]);
        assert_eq!(out.row(2), &[3.0, 30.0]);
    }

    #[test]
    fn random_init_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = EmbeddingTable::new(10, 4, 0.5, &mut rng);
        assert_eq!(e.vocab(), 10);
        assert_eq!(e.dim(), 4);
        assert!(e.table().as_slice().iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }
}

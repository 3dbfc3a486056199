//! The module dependency graph of an NLP model (paper Fig. 5).
//!
//! Models are decomposed into the units the paper schedules: embedding
//! tables (sparse plane) and dense blocks (dense plane). Modules are stored
//! in forward-pass order; each records its input modules, so both the FP
//! dependency structure and the reverse BP order fall out directly.

/// What a module is, for communication purposes.
#[derive(Clone, Debug, PartialEq)]
pub enum ModuleKind {
    /// An embedding table: `vocab` rows of `dim` columns. Its gradients are
    /// row-sparse; its FP output must be communicated under hybrid
    /// communication (AlltoAll of lookup results).
    Embedding { vocab: usize, dim: usize },
    /// A dense block (e.g. one transformer layer) of `params` scalar
    /// parameters; gradients are dense and AllReduce-able.
    Dense { params: usize },
}

/// One schedulable module.
#[derive(Clone, Debug)]
pub struct Module {
    pub name: String,
    pub kind: ModuleKind,
    /// Modules (by index) whose FP output this module consumes.
    pub inputs: Vec<usize>,
    /// Calibrated forward-pass compute time (seconds) on the target GPU.
    pub fp_time: f64,
    /// Calibrated backward-pass compute time (seconds).
    pub bp_time: f64,
}

impl Module {
    pub fn is_embedding(&self) -> bool {
        matches!(self.kind, ModuleKind::Embedding { .. })
    }

    /// Parameter count of this module.
    pub fn params(&self) -> usize {
        match self.kind {
            ModuleKind::Embedding { vocab, dim } => vocab * dim,
            ModuleKind::Dense { params } => params,
        }
    }

    /// Dense wire size of this module's parameters/gradients in bytes.
    fn param_bytes(&self) -> usize {
        self.params() * embrace_tensor::F32_BYTES
    }
}

/// A model as an ordered list of modules (index order == FP order) plus
/// input edges.
#[derive(Clone, Debug, Default)]
pub struct ModelGraph {
    pub modules: Vec<Module>,
}

impl ModelGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a module whose inputs must already exist; returns its index.
    pub fn add(&mut self, module: Module) -> usize {
        for &i in &module.inputs {
            assert!(i < self.modules.len(), "input {i} does not exist yet");
        }
        self.modules.push(module);
        self.modules.len() - 1
    }

    pub fn len(&self) -> usize {
        self.modules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Indices in forward order (construction order).
    pub fn fp_order(&self) -> impl Iterator<Item = usize> {
        0..self.modules.len()
    }

    /// Indices in backward order: the inverse of FP (§2.3: "the orders of
    /// FP and BP are inverse").
    pub fn bp_order(&self) -> impl Iterator<Item = usize> {
        (0..self.modules.len()).rev()
    }

    /// Indices of embedding modules.
    pub fn embeddings(&self) -> Vec<usize> {
        (0..self.modules.len()).filter(|&i| self.modules[i].is_embedding()).collect()
    }

    /// Indices of dense modules.
    pub fn dense_blocks(&self) -> Vec<usize> {
        (0..self.modules.len()).filter(|&i| !self.modules[i].is_embedding()).collect()
    }

    /// Total dense-parameter bytes (the AllReduce plane volume).
    pub fn dense_bytes(&self) -> usize {
        self.dense_blocks().iter().map(|&i| self.modules[i].param_bytes()).sum()
    }

    /// Total embedding-parameter bytes.
    pub fn embedding_bytes(&self) -> usize {
        self.embeddings().iter().map(|&i| self.modules[i].param_bytes()).sum()
    }

    /// Total model compute time for one step (sum of FP+BP of all modules).
    pub fn compute_time(&self) -> f64 {
        self.modules.iter().map(|m| m.fp_time + m.bp_time).sum()
    }

    /// True when every FP input edge points backwards (a valid FP order).
    pub fn validate(&self) -> bool {
        self.modules.iter().enumerate().all(|(i, m)| m.inputs.iter().all(|&j| j < i))
    }

    /// The paper's observation (§4.2.1): embedding FP depends on no other
    /// module's FP (only on its own parameters being up to date), so it can
    /// be hoisted ahead of the dense blocks. Returns FP order with all
    /// embeddings first, then the dense blocks in their original order.
    pub fn hoisted_fp_order(&self) -> Vec<usize> {
        let mut order = self.embeddings();
        order.extend(self.dense_blocks());
        order
    }

    /// The live trainers' model: an untimed `(vocab, dim)` embedding
    /// feeding one dense block of `params` parameters.
    pub fn one_block(emb: (usize, usize), params: usize) -> Self {
        let mut g = ModelGraph::new();
        let kind = ModuleKind::Embedding { vocab: emb.0, dim: emb.1 };
        let e =
            g.add(Module { name: "emb".into(), kind, inputs: vec![], fp_time: 0.0, bp_time: 0.0 });
        let kind = ModuleKind::Dense { params };
        g.add(Module { name: "dense".into(), kind, inputs: vec![e], fp_time: 0.0, bp_time: 0.0 });
        g
    }

    /// Build the translation-model shape of Fig. 5:
    /// EncEmbedding → k encoder blocks → DecEmbedding → m decoder blocks,
    /// where the first decoder block also consumes the last encoder block.
    /// `emb = (vocab, dim)`, block params/timing are uniform (the paper
    /// notes NLP blocks have even loads, §4.2.1).
    #[allow(clippy::too_many_arguments)]
    pub fn translation(
        enc_emb: (usize, usize),
        dec_emb: (usize, usize),
        enc_blocks: usize,
        dec_blocks: usize,
        block_params: usize,
        emb_fp: f64,
        emb_bp: f64,
        block_fp: f64,
        block_bp: f64,
    ) -> Self {
        let mut g = ModelGraph::new();
        let e = g.add(Module {
            name: "enc_emb".into(),
            kind: ModuleKind::Embedding { vocab: enc_emb.0, dim: enc_emb.1 },
            inputs: vec![],
            fp_time: emb_fp,
            bp_time: emb_bp,
        });
        let mut prev = e;
        for i in 0..enc_blocks {
            prev = g.add(Module {
                name: format!("enc_blk{i}"),
                kind: ModuleKind::Dense { params: block_params },
                inputs: vec![prev],
                fp_time: block_fp,
                bp_time: block_bp,
            });
        }
        let enc_out = prev;
        let d = g.add(Module {
            name: "dec_emb".into(),
            kind: ModuleKind::Embedding { vocab: dec_emb.0, dim: dec_emb.1 },
            inputs: vec![],
            fp_time: emb_fp,
            bp_time: emb_bp,
        });
        let mut prev = d;
        for i in 0..dec_blocks {
            let inputs = if i == 0 { vec![prev, enc_out] } else { vec![prev] };
            prev = g.add(Module {
                name: format!("dec_blk{i}"),
                kind: ModuleKind::Dense { params: block_params },
                inputs,
                fp_time: block_fp,
                bp_time: block_bp,
            });
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ModelGraph {
        ModelGraph::translation((100, 8), (100, 8), 2, 2, 64, 1.0, 2.0, 3.0, 4.0)
    }

    #[test]
    fn translation_shape_matches_fig5() {
        let g = toy();
        assert_eq!(g.len(), 6);
        assert_eq!(g.embeddings(), vec![0, 3]);
        assert_eq!(g.dense_blocks(), vec![1, 2, 4, 5]);
        assert!(g.validate());
        // First decoder block consumes both decoder embedding and encoder out.
        assert_eq!(g.modules[4].inputs, vec![3, 2]);
        // Embeddings have no FP inputs.
        assert!(g.modules[0].inputs.is_empty());
        assert!(g.modules[3].inputs.is_empty());
    }

    #[test]
    fn orders_are_inverse() {
        let g = toy();
        let fp: Vec<usize> = g.fp_order().collect();
        let mut bp: Vec<usize> = g.bp_order().collect();
        bp.reverse();
        assert_eq!(fp, bp);
    }

    #[test]
    fn hoisted_order_puts_embeddings_first() {
        let g = toy();
        assert_eq!(g.hoisted_fp_order(), vec![0, 3, 1, 2, 4, 5]);
    }

    #[test]
    fn byte_accounting() {
        let g = toy();
        assert_eq!(g.embedding_bytes(), 2 * 100 * 8 * 4);
        assert_eq!(g.dense_bytes(), 4 * 64 * 4);
        assert!((g.compute_time() - (2.0 * 3.0 + 4.0 * 7.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_edge_rejected() {
        let mut g = ModelGraph::new();
        g.add(Module {
            name: "bad".into(),
            kind: ModuleKind::Dense { params: 1 },
            inputs: vec![5],
            fp_time: 0.0,
            bp_time: 0.0,
        });
    }
}

//! EmbRace's hybrid plane beyond NLP: a recommender-style workload.
//!
//! §4.1.1 imports AlltoAll from "recommender system training (Mudigere et
//! al.)" — DLRM-class models with many categorical embedding tables. This
//! example runs one synchronous hybrid-communication training step over
//! *eight* column-sharded tables with multi-hot lookups and checks the
//! result against replicated training, demonstrating the mechanism
//! generalises past the paper's NLP benchmarks.
//!
//! ```text
//! cargo run --release --example recsys_embedding_bag
//! ```

use embrace_repro::collectives::ops::allgather_tokens;
use embrace_repro::collectives::run_group;
use embrace_repro::core::ColumnShardedEmbedding;
use embrace_repro::dlsim::optim::{Optimizer, Sgd, UpdatePart};
use embrace_repro::tensor::{coalesce, DenseTensor, RowSparse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORLD: usize = 4;
const TABLES: usize = 8;
const VOCAB: usize = 1000;
const DIM: usize = 64;
const MULTI_HOT: usize = 4; // categorical features per sample per table
const SAMPLES: usize = 32;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let tables: Vec<DenseTensor> =
        (0..TABLES).map(|_| DenseTensor::uniform(VOCAB, DIM, 0.1, &mut rng)).collect();
    // Per-worker, per-table multi-hot index batches.
    let mut batches = vec![vec![Vec::new(); TABLES]; WORLD];
    for worker_batches in batches.iter_mut() {
        for feature in worker_batches.iter_mut() {
            *feature = (0..SAMPLES * MULTI_HOT).map(|_| rng.gen_range(0..VOCAB as u32)).collect();
        }
    }
    let lr = 0.1_f32;

    // Replicated reference: sum all workers' gradients per table.
    let mut reference = tables.clone();
    for (t, table) in reference.iter_mut().enumerate() {
        let parts: Vec<RowSparse> = (0..WORLD)
            .map(|w| {
                let toks = &batches[w][t];
                RowSparse::new(toks.clone(), DenseTensor::full(toks.len(), DIM, 1.0))
            })
            .collect();
        let summed = coalesce(&RowSparse::concat(&parts));
        Sgd::new(lr).step_sparse(table, &summed, UpdatePart::Whole);
    }

    // Hybrid plane: every table column-sharded, AlltoAll per table.
    let tables2 = tables.clone();
    let batches2 = batches.clone();
    let shards = run_group(WORLD, move |rank, ep| {
        let mut my_tables: Vec<ColumnShardedEmbedding> =
            tables2.iter().map(|t| ColumnShardedEmbedding::new(t, rank, WORLD)).collect();
        let mut bytes_moved = 0u64;
        for (t, emb) in my_tables.iter_mut().enumerate() {
            let toks = batches2[rank][t].clone();
            // Forward: embedding-bag style — gather tokens, AlltoAll.
            let all = allgather_tokens(ep, toks.clone());
            let lookup = emb.forward(ep, &all);
            assert_eq!(lookup.rows(), toks.len());
            // Backward with an all-ones output gradient.
            let grad_out = DenseTensor::full(toks.len(), DIM, 1.0);
            let shard_grad = emb.exchange_grad_part(ep, &RowSparse::new(toks, grad_out));
            let mut opt = Sgd::new(lr);
            emb.apply_grad(&shard_grad, &mut opt, UpdatePart::Whole);
            bytes_moved = ep.bytes_sent();
        }
        (my_tables, bytes_moved)
    });

    // Verify every table matches the replicated reference.
    for t in 0..TABLES {
        let refs: Vec<&ColumnShardedEmbedding> = shards.iter().map(|(v, _)| &v[t]).collect();
        let assembled = ColumnShardedEmbedding::assemble_full(&refs);
        assert!(
            assembled.approx_eq(&reference[t], 1e-5),
            "table {t} diverged: {}",
            assembled.max_abs_diff(&reference[t])
        );
    }
    let per_worker_mib = shards[0].1 as f64 / (1024.0 * 1024.0);
    println!("{TABLES} tables x {VOCAB} rows x {DIM} dims, {WORLD} workers,");
    println!("{SAMPLES} samples x {MULTI_HOT}-hot features per table:");
    println!("  all tables match replicated training exactly");
    println!("  per-worker wire traffic: {per_worker_mib:.2} MiB");
    println!("recsys embedding-bag OK");
}

//! Cross-crate integration: the full EmbRace embedding plane at realistic
//! (downscaled) model dimensions, checked against replicated training.
//!
//! Exercises `models` (workloads) → `core` (hybrid comm + Algorithm 1) →
//! `dlsim` (modified Adam) over `collectives` for several steps and
//! verifies the assembled table matches a replicated reference exactly.

use embrace_repro::collectives::ops::allgather_tokens;
use embrace_repro::collectives::run_group;
use embrace_repro::core::{vertical_split, ColumnShardedEmbedding};
use embrace_repro::dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_repro::models::{BatchGen, ZipfSampler};
use embrace_repro::tensor::{coalesce, DenseTensor, RowSparse};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 120;
const DIM: usize = 12;
const WORLD: usize = 4;
const STEPS: usize = 7;

fn batches_for(rank: usize) -> Vec<Vec<u32>> {
    let sampler = ZipfSampler::new(VOCAB, 1.0);
    BatchGen::new(sampler, 24, 0.1, 1000 + rank as u64).take(STEPS + 1).collect()
}

fn init_table() -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(5);
    DenseTensor::uniform(VOCAB, DIM, 0.4, &mut rng)
}

/// Gradient of a fake loss: each token's row gradient is its lookup value
/// (so the gradient depends on current parameters — state actually flows
/// between steps).
fn grad_for(lookup: &DenseTensor, tokens: &[u32]) -> RowSparse {
    RowSparse::new(tokens.to_vec(), lookup.clone())
}

#[test]
fn multi_step_hybrid_training_equals_replicated_training() {
    // --- Replicated reference: one big table, summed gradients, whole
    // Adam updates. ---
    let mut reference = init_table();
    let mut ref_opt = Adam::new(VOCAB, DIM, 0.02);
    let all_batches: Vec<Vec<Vec<u32>>> = (0..WORLD).map(batches_for).collect();
    for step in 0..STEPS {
        let mut parts = Vec::new();
        for batches in &all_batches {
            let tokens = &batches[step];
            let lookup = reference.gather_rows(tokens);
            parts.push(grad_for(&lookup, tokens));
        }
        let summed = coalesce(&RowSparse::concat(&parts));
        ref_opt.step_sparse(&mut reference, &summed, UpdatePart::Whole);
    }

    // --- EmbRace: column-sharded with Algorithm 1 split updates. ---
    let init = init_table();
    let shards = run_group(WORLD, |rank, ep| {
        let mut emb = ColumnShardedEmbedding::new(&init, rank, WORLD);
        let mut opt = Adam::new(VOCAB, emb.shard_dim(), 0.02);
        let batches = batches_for(rank);
        for step in 0..STEPS {
            let tokens = batches[step].clone();
            let all_tokens = allgather_tokens(ep, tokens.clone());
            let lookup = emb.forward(ep, &all_tokens);
            let raw = grad_for(&lookup, &tokens);
            let next = allgather_tokens(ep, batches[step + 1].clone()).concat();
            let split = vertical_split(&raw, &tokens, &next);
            let prior = emb.exchange_grad_part(ep, &split.prior);
            emb.apply_grad(&prior, &mut opt, UpdatePart::Prior);
            let delayed = emb.exchange_grad_part(ep, &split.delayed);
            emb.apply_grad(&delayed, &mut opt, UpdatePart::Delayed);
        }
        (emb, opt.step_count())
    });

    for (_, steps) in &shards {
        assert_eq!(*steps, STEPS as u64, "modified Adam advances once per step");
    }
    let refs: Vec<&ColumnShardedEmbedding> = shards.iter().map(|(e, _)| e).collect();
    let assembled = ColumnShardedEmbedding::assemble_full(&refs);
    let diff = assembled.max_abs_diff(&reference);
    assert!(
        diff < 1e-5,
        "hybrid multi-step training must match the replicated reference (max diff {diff})"
    );
}

#[test]
fn world_size_does_not_change_the_math() {
    // The same workload trained with 2 and 4 shards converges to the
    // same table (column partitioning is math-transparent).
    let init = init_table();
    let run = |world: usize| {
        let init = init.clone();
        let shards = run_group(world, move |rank, ep| {
            let mut emb = ColumnShardedEmbedding::new(&init, rank, world);
            let mut opt = Adam::new(VOCAB, emb.shard_dim(), 0.02);
            // All workers use rank-0..world batches from the same pool of
            // 4 streams so the global batch is identical for both runs.
            let pool: Vec<Vec<Vec<u32>>> = (0..4).map(batches_for).collect();
            for step in 0..3 {
                let mine: Vec<u32> = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % world == rank)
                    .flat_map(|(_, b)| b[step].clone())
                    .collect();
                let all_tokens = allgather_tokens(ep, mine.clone());
                let lookup = emb.forward(ep, &all_tokens);
                let raw = grad_for(&lookup, &mine);
                let shard_grad = emb.exchange_grad_part(ep, &raw);
                emb.apply_grad(&shard_grad, &mut opt, UpdatePart::Whole);
            }
            emb
        });
        let refs: Vec<&ColumnShardedEmbedding> = shards.iter().collect();
        ColumnShardedEmbedding::assemble_full(&refs)
    };
    let t2 = run(2);
    let t4 = run(4);
    assert!(t2.approx_eq(&t4, 1e-5), "max diff {}", t2.max_abs_diff(&t4));
}

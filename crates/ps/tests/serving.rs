#![recursion_limit = "1024"] // the 11-parameter proptest! below expands deep

//! Serving-path properties: the sharded embedding service must be
//! observationally *bitwise* identical to a single-shard oracle — same
//! lookups, same post-push tables — across partition policies, worlds 2–8,
//! duplicate-id batches and both optimizers. Two oracles: a world-1
//! service, and a service-free replay that shares none of the service's
//! plan / assemble code.

use embrace_collectives::run_group;
use embrace_ps::{
    EmbeddingService, OptimizerKind, PartitionPolicy, PushTransport, RowOptimizer, ServiceConfig,
};
use embrace_tensor::{coalesce, DenseTensor, RowSparse};
use proptest::collection::vec;
use proptest::prelude::*;

const MAX_WORLD: usize = 8;
const MAX_STEPS: usize = 3;
const MAX_BATCH: usize = 8;
const MAX_DIM: usize = 3;

fn init(row: u32, col: usize) -> f32 {
    (row as f32 + 1.0) * 0.125 - 0.01 * col as f32
}

/// One rank's trajectory: the lookup result of every step plus a final
/// post-training lookup, flattened to raw f32s for bitwise comparison.
type Trajectory = Vec<Vec<f32>>;

/// Drive `steps` of lookup→push on a `world`-rank service and return each
/// rank's trajectory. `batches[step][rank]` are the (duplicated, skewed)
/// ids; values are deterministic in (step, rank, position).
fn run_sharded(
    world: usize,
    cfg: ServiceConfig,
    batches: &[Vec<Vec<u32>>],
    vals: &[Vec<Vec<f32>>],
) -> Vec<Trajectory> {
    let batches = batches.to_vec();
    let vals = vals.to_vec();
    run_group(world, move |rank, ep| {
        let mut svc = EmbeddingService::new(rank, world, &cfg, &init);
        let mut traj: Trajectory = Vec::new();
        for (step_ids, step_vals) in batches.iter().zip(&vals) {
            let ids = &step_ids[rank];
            let looked = svc.try_lookup(ep, ids).expect("lookup in range");
            traj.push(looked.as_slice().to_vec());
            let grad = RowSparse::new(
                ids.clone(),
                DenseTensor::from_vec(ids.len(), cfg.dim, step_vals[rank].clone()),
            );
            svc.try_push(ep, &grad).expect("push in range");
        }
        // Final read-back of everything this rank ever touched.
        let all: Vec<u32> = batches.iter().flat_map(|s| s[rank].iter().copied()).collect();
        let fin = svc.try_lookup(ep, &all).expect("final lookup");
        traj.push(fin.as_slice().to_vec());
        traj
    })
}

/// The single-shard oracle: a world-1 service pushed with the concatenation
/// of all ranks' gradients (rank order), looked up with each rank's batch
/// in rank order — the exact (source rank, source position) summation
/// order the sharded destination's stable coalesce applies.
fn run_oracle(
    world: usize,
    cfg: ServiceConfig,
    batches: &[Vec<Vec<u32>>],
    vals: &[Vec<Vec<f32>>],
) -> Vec<Trajectory> {
    let batches = batches.to_vec();
    let vals = vals.to_vec();
    let mut out = run_group(1, move |_, ep| {
        let mut svc = EmbeddingService::new(0, 1, &cfg, &init);
        let mut trajs: Vec<Trajectory> = vec![Vec::new(); world];
        for (step_ids, step_vals) in batches.iter().zip(&vals) {
            for rank in 0..world {
                let looked = svc.try_lookup(ep, &step_ids[rank]).expect("lookup in range");
                trajs[rank].push(looked.as_slice().to_vec());
            }
            let parts: Vec<RowSparse> = (0..world)
                .map(|rank| {
                    let ids = &step_ids[rank];
                    RowSparse::new(
                        ids.clone(),
                        DenseTensor::from_vec(ids.len(), cfg.dim, step_vals[rank].clone()),
                    )
                })
                .collect();
            svc.try_push(ep, &RowSparse::concat(&parts)).expect("push in range");
        }
        for (rank, traj) in trajs.iter_mut().enumerate() {
            let all: Vec<u32> = batches.iter().flat_map(|s| s[rank].iter().copied()).collect();
            let fin = svc.try_lookup(ep, &all).expect("final lookup");
            traj.push(fin.as_slice().to_vec());
        }
        trajs
    });
    out.pop().expect("one rank")
}

/// The service-free oracle: the whole table materialised from `init`,
/// lookups as plain row reads, and every step's pushes — all ranks', in
/// rank order — through `coalesce` and `RowOptimizer::update_rows`.
fn run_replay(
    world: usize,
    cfg: ServiceConfig,
    batches: &[Vec<Vec<u32>>],
    vals: &[Vec<Vec<f32>>],
) -> Vec<Trajectory> {
    let mut table = DenseTensor::zeros(cfg.vocab, cfg.dim);
    for (row, dst) in table.rows_mut().enumerate() {
        for (c, v) in dst.iter_mut().enumerate() {
            *v = init(row as u32, c);
        }
    }
    let mut opt = RowOptimizer::new(cfg.optimizer, cfg.vocab, cfg.dim);
    let read = |table: &DenseTensor, ids: &[u32]| -> Vec<f32> {
        ids.iter().flat_map(|&id| table.row(id as usize).to_vec()).collect()
    };
    let mut trajs: Vec<Trajectory> = vec![Vec::new(); world];
    for (step_ids, step_vals) in batches.iter().zip(vals) {
        for (traj, ids) in trajs.iter_mut().zip(step_ids) {
            traj.push(read(&table, ids));
        }
        let parts: Vec<RowSparse> = step_ids
            .iter()
            .zip(step_vals)
            .map(|(ids, v)| {
                RowSparse::new(ids.clone(), DenseTensor::from_vec(ids.len(), cfg.dim, v.clone()))
            })
            .collect();
        let summed = coalesce(&RowSparse::concat(&parts));
        let rows = summed.indices().iter().map(|&row| row as usize);
        opt.update_rows(&mut table, rows.zip(summed.values().row_iter()));
    }
    for (rank, traj) in trajs.iter_mut().enumerate() {
        let all: Vec<u32> = batches.iter().flat_map(|s| s[rank].iter().copied()).collect();
        traj.push(read(&table, &all));
    }
    trajs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Sharded lookup→update→lookup round-trips are bitwise identical to
    // both single-shard oracles (the world-1 service and the service-free
    // replay) for every partition policy, world 2–8, optimizer, and
    // duplicate-heavy batch mix.
    #[test]
    fn sharded_service_is_bitwise_the_single_shard_oracle(
        world in 2usize..=MAX_WORLD,
        vocab in 8usize..48,
        dim in 1usize..=MAX_DIM,
        steps in 1usize..=MAX_STEPS,
        policy_sel in 0u8..2,
        opt_sel in 0u8..2,
        cache_rows in 0usize..6,
        raw_lens in vec(0usize..=MAX_BATCH, MAX_STEPS * MAX_WORLD),
        raw_ids in vec(0u32..u32::MAX, MAX_STEPS * MAX_WORLD * MAX_BATCH),
        raw_vals in vec(-1.0f32..1.0, MAX_STEPS * MAX_WORLD * MAX_BATCH * MAX_DIM),
    ) {
        let policy =
            if policy_sel == 1 { PartitionPolicy::Hash } else { PartitionPolicy::Range };
        let optimizer = if opt_sel == 1 {
            OptimizerKind::Adagrad { lr: 0.3 }
        } else {
            OptimizerKind::Sgd { lr: 0.3 }
        };
        // batches[step][rank]: ids folded into the vocabulary, duplicates
        // kept (the dedup/coalesce paths must both handle them).
        let mut batches: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut vals: Vec<Vec<Vec<f32>>> = Vec::new();
        for step in 0..steps {
            let mut step_ids = Vec::new();
            let mut step_vals = Vec::new();
            for rank in 0..world {
                let slot = step * MAX_WORLD + rank;
                let n = raw_lens[slot];
                let base = slot * MAX_BATCH;
                let ids: Vec<u32> =
                    (0..n).map(|i| raw_ids[base + i] % vocab as u32).collect();
                let vbase = slot * MAX_BATCH * MAX_DIM;
                let v: Vec<f32> = (0..n * dim).map(|i| raw_vals[vbase + i]).collect();
                step_ids.push(ids);
                step_vals.push(v);
            }
            batches.push(step_ids);
            vals.push(step_vals);
        }
        let cfg = ServiceConfig {
            vocab,
            dim,
            policy,
            optimizer,
            cache_rows,
            push: PushTransport::Alltoallv,
        };
        // `cache_rows` is accepted and ignored: the oracles run with 0,
        // the sharded side with whatever the case drew.
        let oracle_cfg = ServiceConfig { cache_rows: 0, ..cfg };
        let sharded = run_sharded(world, cfg, &batches, &vals);
        let oracle = run_oracle(world, oracle_cfg, &batches, &vals);
        let replay = run_replay(world, oracle_cfg, &batches, &vals);
        for rank in 0..world {
            prop_assert_eq!(
                &sharded[rank],
                &oracle[rank],
                "trajectory diverged from the world-1 service at rank {} ({:?}, world {})",
                rank,
                policy,
                world
            );
            prop_assert_eq!(
                &sharded[rank],
                &replay[rank],
                "trajectory diverged from the service-free replay at rank {} ({:?}, world {})",
                rank,
                policy,
                world
            );
        }
    }
}

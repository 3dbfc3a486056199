//! `bench_comm` — the SSAR density sweep on the real threaded collectives.
//!
//! ```text
//! bench_comm            # densities 1e-4 … 1.0, worlds {2, 4, 8}
//! bench_comm --quick    # two densities
//! ```
//!
//! At a fixed vocabulary and varying gradient row density, times
//! `sparse_allreduce` (the sparse-native SSAR) against
//! `sparse_hybrid_alltoallv` (coalesce → AlltoAllv shard scatter → local
//! reduce → allgather) and prints one table to stdout. The density where
//! the hybrid overtakes the sparse-native path is SparCML's crossover —
//! the number §4's representation switch is calibrated against, and the
//! one sweep `benchmark/` (the repo's performance harness) has no
//! equivalent of.
//!
//! `bytes` is the per-rank logical payload (indices + values); `GB/s` is
//! that payload divided by wall time per iteration — a *goodput* number
//! comparable across the two ops, not a wire bandwidth. Worlds wider than
//! the host's core count measure the OS scheduler as much as the code.

use embrace_collectives::group::run_group;
use embrace_collectives::ops::{
    allgather_sparse, alltoallv_sparse, barrier, sparse_allreduce, SparseReduced, SsarConfig,
};
use embrace_collectives::transport::Endpoint;
use embrace_tensor::{
    coalesce, merge_rowsparse, row_partition, DenseTensor, RowSparse, F32_BYTES, INDEX_BYTES,
};
use std::time::Instant;

const WORLDS: [usize; 3] = [2, 4, 8];
/// Vocabulary rows shaping the sweep.
const VOCAB: usize = 1 << 15;
/// Column width of the gradient rows (embedding-dim scale).
const DIM: usize = 64;
/// Crossover threshold of the sparse-native cells: segments densify once
/// their accumulated row density reaches one half.
const CROSSOVER: f64 = 0.5;
const FULL_DENSITIES: [f64; 6] = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0];
const QUICK_DENSITIES: [f64; 2] = [1e-3, 0.1];

/// Run `f` once as warm-up, then `iters` timed iterations, on every rank
/// of a fresh group. Returns the slowest rank's nanoseconds per iteration
/// (every rank runs the same closure, so the max is the completion time
/// of the collective, not one rank's early exit) and rank 0's result.
fn time_group<R, F>(world: usize, iters: u64, f: F) -> (u64, R)
where
    R: Send,
    F: Fn(usize, &mut Endpoint) -> R + Sync,
{
    let mut per_rank = run_group(world, |rank, ep| {
        let out = f(rank, ep);
        barrier(ep);
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f(rank, ep));
        }
        let elapsed = t0.elapsed().as_nanos() as u64;
        barrier(ep);
        (elapsed, out)
    });
    let slowest = per_rank.iter().map(|(ns, _)| *ns).max().unwrap_or(0);
    (slowest / iters, per_rank.swap_remove(0).1)
}

/// Gradient rows per rank at `density`.
fn nnz_rows(density: f64) -> usize {
    ((density * VOCAB as f64) as usize).clamp(1, VOCAB)
}

/// Per-rank gradient at `density`: distinct strided indices with a
/// rank-dependent offset, so rank index sets overlap partially (fully at
/// density 1) the way hot embedding rows do across batches.
fn density_grad(rank: usize, density: f64) -> RowSparse {
    let nnz = nnz_rows(density);
    let stride = (VOCAB / nnz).max(1);
    let offset = (rank * 13) % stride;
    let indices: Vec<u32> = (0..nnz).map(|i| (i * stride + offset) as u32).collect();
    RowSparse::new(indices, DenseTensor::full(nnz, DIM, 1.0))
}

/// The pre-SSAR baseline: coalesce the local gradient, scatter row shards
/// to their owners over AlltoAllv, reduce each shard locally, then
/// allgather the reduced shards — a sparse allreduce assembled from the
/// alltoallv + allgather primitives.
fn hybrid_sparse_allreduce(ep: &mut Endpoint, grad: &RowSparse) -> Vec<RowSparse> {
    let world = ep.world();
    let mut rest = coalesce(grad);
    let mut parts = Vec::with_capacity(world);
    for range in row_partition(VOCAB, world) {
        let (head, tail) = rest.split_at_row(range.end as u32);
        parts.push(head);
        rest = tail;
    }
    let received = alltoallv_sparse(ep, parts);
    let reduced = merge_rowsparse(&received);
    allgather_sparse(ep, reduced)
}

/// One cell of the sweep: both ops on the same gradients. Per op, the
/// nanoseconds per iteration and rank 0's result (which the unit test
/// checks one against the other).
fn run_cell(
    world: usize,
    density: f64,
    iters: u64,
) -> ((u64, SparseReduced), (u64, Vec<RowSparse>)) {
    let grads: Vec<RowSparse> = (0..world).map(|r| density_grad(r, density)).collect();
    let cfg = SsarConfig { vocab: VOCAB, crossover: CROSSOVER };
    let ssar = time_group(world, iters, |rank, ep| sparse_allreduce(ep, &grads[rank], &cfg));
    let hybrid = time_group(world, iters, |rank, ep| hybrid_sparse_allreduce(ep, &grads[rank]));
    (ssar, hybrid)
}

/// Iteration count scaled so big payloads don't dominate wall time.
fn iters_for(bytes: usize, quick: bool) -> u64 {
    let budget: usize = if quick { 32 << 20 } else { 128 << 20 };
    ((budget / bytes.max(1)) as u64).clamp(3, 200)
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("unknown flag {other}; usage: bench_comm [--quick]");
                std::process::exit(2);
            }
        }
    }
    let densities: &[f64] = if quick { &QUICK_DENSITIES } else { &FULL_DENSITIES };
    for world in WORLDS {
        for &density in densities {
            let bytes = nnz_rows(density) * (INDEX_BYTES + DIM * F32_BYTES);
            let iters = iters_for(bytes, quick);
            let ((ssar_ns, _), (hybrid_ns, _)) = run_cell(world, density, iters);
            for (op, ns) in [("sparse_allreduce", ssar_ns), ("sparse_hybrid_alltoallv", hybrid_ns)]
            {
                println!(
                    "{op:<26} world={world} δ={density:<8} {bytes:>9} B  {ns:>12} ns/iter  {:>8.3} GB/s  ({iters} iters)",
                    bytes as f64 / ns.max(1) as f64,
                );
            }
            println!(
                "    sparse-native vs hybrid at δ={density}: {:.2}x",
                hybrid_ns as f64 / ssar_ns.max(1) as f64
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both ops of a cell reduce the same gradients to the same sum, on
    /// either side of the crossover. Payload values are 1.0, so every sum
    /// is a small integer and the comparison is exact.
    #[test]
    fn ssar_and_hybrid_agree_on_the_reduced_gradient() {
        for density in QUICK_DENSITIES.into_iter().chain([1.0]) {
            let ((ssar_ns, ssar), (hybrid_ns, hybrid)) = run_cell(2, density, 3);
            assert!(ssar_ns > 0 && hybrid_ns > 0, "δ={density}");
            assert_eq!(
                ssar.to_dense(VOCAB),
                merge_rowsparse(&hybrid).to_dense(VOCAB),
                "δ={density}"
            );
        }
    }
}

//! Property tests for the zero-copy collectives (ISSUE satellite): the
//! shared-payload / scratch-buffer implementations must be *bitwise*
//! identical to the straightforward pre-change semantics on random
//! worlds and shapes — including degenerate ones (`world == 1`,
//! `len < world`, empty buffers). (Segmented == unsegmented ring is a
//! table-driven unit test next to the ring machine in `ops.rs`.)

use embrace_collectives::ops::{
    allgather_dense, alltoallv_sparse, broadcast, ring_allreduce, sparse_allreduce,
    sparse_allreduce_oracle, SsarConfig,
};
use embrace_collectives::transport::Packet;
use embrace_collectives::{run_group, run_group_with_faults, FaultPlan};
use embrace_tensor::{row_partition, DenseTensor, RowSparse};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// Element-wise serial reference for the ring AllReduce. The ring
/// accumulates chunk `c` by visiting ranks `c, c+1, …, c+N−1 (mod N)` and
/// folding `acc += contribution` — f32 addition is commutative, so this
/// left fold in ring order is the exact bit pattern the ring produces.
fn serial_allreduce(inputs: &[Vec<f32>]) -> Vec<f32> {
    let world = inputs.len();
    let len = inputs[0].len();
    let chunks = row_partition(len, world);
    let mut out = vec![0.0f32; len];
    for (c, chunk) in chunks.iter().enumerate() {
        for i in chunk.start..chunk.end {
            let mut acc = inputs[c % world][i];
            for k in 1..world {
                acc += inputs[(c + k) % world][i];
            }
            out[i] = acc;
        }
    }
    out
}

const MAX_WORLD: usize = 5;
const MAX_LEN: usize = 67;

const SSAR_MAX_WORLD: usize = 16;
const SSAR_MAX_NNZ: usize = 12;

/// Build rank `rank`'s gradient for the sparse allreduce oracle property
/// from the proptest raw material. `shape` selects the cross-rank index relation:
/// 0 draws freely over the vocabulary (duplicates within a rank are kept —
/// the local coalesce path must sum them), 1 confines each rank to its own
/// `row_partition` band (pairwise disjoint), 2 gives every rank the same
/// index set (full overlap) with rank-specific values.
fn ssar_local(
    rank: usize,
    world: usize,
    vocab: usize,
    dim: usize,
    shape: u8,
    raw: (&[usize], &[u32], &[f32]),
) -> RowSparse {
    let (nnzs, raw_idx, raw_val) = raw;
    let slot = if shape == 2 { 0 } else { rank };
    let n = nnzs[slot];
    let idx_slice = &raw_idx[slot * SSAR_MAX_NNZ..slot * SSAR_MAX_NNZ + n];
    let indices: Vec<u32> = match shape {
        1 => {
            let ranges = row_partition(vocab, world);
            let band = &ranges[rank];
            let len = band.end - band.start;
            if len == 0 {
                return RowSparse::empty(dim);
            }
            idx_slice.iter().map(|&v| (band.start + v as usize % len) as u32).collect()
        }
        _ => idx_slice.iter().map(|&v| v % vocab as u32).collect(),
    };
    let vals: Vec<f32> = (0..n * dim)
        .map(|i| {
            let v = raw_val[rank * SSAR_MAX_NNZ * 3 + i];
            if v == 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect();
    RowSparse::new(indices, DenseTensor::from_vec(n, dim, vals))
}

/// Run the same per-rank closure over a fault-free mesh and over a mesh
/// with `plan` attached, returning both result vectors. The two runs split
/// their receives differently between spinning and parking (a delayed link
/// outlasts the spin; a world wider than the host never spins), so equal
/// results are also the proof that the split changes none. The split itself
/// must be a partition: every packet was taken by exactly one of the two.
fn clean_and_faulted<R, F>(world: usize, plan: &FaultPlan, f: F) -> (Vec<R>, Vec<R>)
where
    R: Send,
    F: Fn(usize, &mut embrace_collectives::Endpoint) -> R + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let accounted = |rank: usize, ep: &mut embrace_collectives::Endpoint| {
        let out = f(rank, ep);
        let mut m = embrace_obs::Metrics::new();
        ep.export_metrics(&mut m);
        let (spun, parked) = (m.counter("transport.recv_spun"), m.counter("transport.recv_parked"));
        assert_eq!(spun + parked, m.counter("transport.msgs_received"), "rank {rank}");
        assert!(world <= cores || spun == 0, "rank {rank} spun {spun}× at world {world}");
        out
    };
    (run_group(world, accounted), run_group_with_faults(world, plan, None, accounted))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_allreduce_is_bitwise_serial_sum(
        world in 1usize..=MAX_WORLD,
        len in 0usize..=MAX_LEN,
        // Modest magnitudes keep sums finite so bitwise comparison is
        // meaningful (f32 `+` is commutative for finite values).
        flat in vec(-1.0e3f32..1.0e3, MAX_WORLD * MAX_LEN),
    ) {
        let inputs: Vec<Vec<f32>> =
            (0..world).map(|r| flat[r * len..(r + 1) * len].to_vec()).collect();
        let expect = serial_allreduce(&inputs);
        let inputs2 = inputs.clone();
        let results = run_group(world, move |rank, ep| {
            let mut buf = inputs2[rank].clone();
            ring_allreduce(ep, &mut buf);
            buf
        });
        for (rank, got) in results.iter().enumerate() {
            prop_assert_eq!(got.len(), expect.len());
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), e.to_bits(),
                    "rank {} element {}: {} vs {}", rank, i, g, e
                );
            }
        }
    }

    #[test]
    fn allgather_dense_shares_payloads_and_preserves_bits(
        world in 1usize..=5,
        rows in 0usize..=6,
        cols in 1usize..=9,
    ) {
        let locals: Vec<DenseTensor> = (0..world)
            .map(|r| {
                let data: Vec<f32> =
                    (0..rows * cols).map(|i| (r as f32 + 1.0) * (i as f32 - 3.5)).collect();
                DenseTensor::from_vec(rows, cols, data)
            })
            .collect();
        let l = locals.clone();
        let results = run_group(world, move |rank, ep| {
            allgather_dense(ep, l[rank].clone())
        });
        for (rank, gathered) in results.iter().enumerate() {
            prop_assert_eq!(gathered.len(), world, "rank {}", rank);
            for (src, t) in gathered.iter().enumerate() {
                prop_assert_eq!(t, &locals[src], "rank {} slot {}", rank, src);
            }
        }
    }

    #[test]
    fn sparse_allreduce_is_bitwise_oracle(
        world in 2usize..=SSAR_MAX_WORLD,
        vocab in 1usize..=20,
        dim in 1usize..=3,
        // 0 = random (duplicate indices within a rank allowed),
        // 1 = disjoint per-rank index bands, 2 = identical (full overlap).
        shape in 0u8..3,
        // Crossover forced never (2.0) or always (0.0).
        crossover_sel in 0u8..2,
        nnzs in vec(0usize..=SSAR_MAX_NNZ, SSAR_MAX_WORLD),
        raw_idx in vec(0u32..4096, SSAR_MAX_WORLD * SSAR_MAX_NNZ),
        // Finite, and `-0.0` normalised away below: the densified
        // representation materialises absent rows as `+0.0`, so a `-0.0`
        // input is the one value whose bits depend on the representation.
        raw_val in vec(-1.0e3f32..1.0e3, SSAR_MAX_WORLD * SSAR_MAX_NNZ * 3),
    ) {
        let locals: Vec<RowSparse> = (0..world)
            .map(|r| ssar_local(r, world, vocab, dim, shape, (&nnzs, &raw_idx, &raw_val)))
            .collect();
        let expect = sparse_allreduce_oracle(&locals, vocab);
        let crossover_never = crossover_sel == 0;
        let crossover = if crossover_never { 2.0 } else { 0.0 };
        let cfg = SsarConfig { vocab, crossover };
        let l = locals.clone();
        let results = run_group(world, move |rank, ep| sparse_allreduce(ep, &l[rank], &cfg));
        for (rank, got) in results.iter().enumerate() {
            // 0.0 densifies every result (the vocabulary is non-empty);
            // 2.0 never does (density <= 1).
            prop_assert_eq!(got.is_dense(), !crossover_never, "rank {} representation", rank);
            let dense = got.to_dense(vocab);
            prop_assert_eq!(dense.rows(), vocab);
            for (i, (g, e)) in dense.as_slice().iter().zip(expect.as_slice()).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), e.to_bits(),
                    "rank {} flat element {}: {} vs {}", rank, i, g, e
                );
            }
        }
    }

    #[test]
    fn delayed_links_are_bitwise_identical_to_fault_free(
        world in 2usize..=8,
        len in 0usize..=MAX_LEN,
        rows in 0usize..=4,
        dim in 1usize..=5,
        // Delays on two links: the stamps keep per-link delivery order,
        // so no result may depend on them.
        delay_us in 50u64..=400,
        vocab in 1usize..=20,
        nnzs in vec(0usize..=SSAR_MAX_NNZ, 8),
        raw_idx in vec(0u32..4096, 8 * SSAR_MAX_NNZ),
        raw_val in vec(-1.0e3f32..1.0e3, 8 * SSAR_MAX_NNZ * 3),
    ) {
        let plan = FaultPlan::new(7)
            .delay_link(0, 1, Duration::from_micros(delay_us))
            .delay_link(world - 1, 0, Duration::from_micros(delay_us / 2 + 1));

        // Ring AllReduce.
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..len).map(|i| ((r * 131 + i * 7) % 257) as f32 * 0.5 - 64.0).collect())
            .collect();
        let (clean, slow) = clean_and_faulted(world, &plan, |rank, ep| {
            let mut buf = inputs[rank].clone();
            ring_allreduce(ep, &mut buf);
            buf
        });
        let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rank in 0..world {
            prop_assert_eq!(bits(&clean[rank]), bits(&slow[rank]), "ring rank {}", rank);
        }

        // Dense allgather.
        let locals: Vec<DenseTensor> = (0..world)
            .map(|r| {
                let data: Vec<f32> =
                    (0..rows * dim).map(|i| (r as f32 + 1.0) * (i as f32 - 3.5)).collect();
                DenseTensor::from_vec(rows, dim, data)
            })
            .collect();
        let (clean, slow) =
            clean_and_faulted(world, &plan, |rank, ep| allgather_dense(ep, locals[rank].clone()));
        for rank in 0..world {
            prop_assert_eq!(&clean[rank], &slow[rank], "allgather rank {}", rank);
        }

        // Sparse AlltoAllv.
        let parts: Vec<Vec<RowSparse>> = (0..world)
            .map(|r| {
                (0..world)
                    .map(|c| {
                        let idx: Vec<u32> = (0..rows as u32).map(|i| i * 2 + c as u32).collect();
                        let vals: Vec<f32> =
                            (0..rows * dim).map(|i| (r * 100 + c * 10 + i) as f32).collect();
                        RowSparse::new(idx, DenseTensor::from_vec(rows, dim, vals))
                    })
                    .collect()
            })
            .collect();
        let (clean, slow) =
            clean_and_faulted(world, &plan, |rank, ep| alltoallv_sparse(ep, parts[rank].clone()));
        for rank in 0..world {
            prop_assert_eq!(&clean[rank], &slow[rank], "alltoallv rank {}", rank);
        }

        // Broadcast from rank 0.
        let root_payload = DenseTensor::from_vec(
            rows,
            dim,
            (0..rows * dim).map(|i| i as f32 * 0.25 - 1.0).collect(),
        );
        let (clean, slow) = clean_and_faulted(world, &plan, |rank, ep| {
            let payload = (rank == 0).then(|| Packet::Dense(root_payload.share()));
            match broadcast(ep, 0, payload) {
                Packet::Dense(d) => d,
                other => panic!("broadcast returned non-dense packet {other:?}"),
            }
        });
        for rank in 0..world {
            prop_assert_eq!(&clean[rank], &slow[rank], "broadcast rank {}", rank);
        }

        // Sparse allreduce, crossover mid-range so random densities
        // exercise both representations.
        let grads: Vec<RowSparse> = (0..world)
            .map(|r| ssar_local(r, world, vocab, dim.min(3), 0, (&nnzs, &raw_idx, &raw_val)))
            .collect();
        let cfg = SsarConfig { vocab, crossover: 0.5 };
        let (clean, slow) =
            clean_and_faulted(world, &plan, |rank, ep| sparse_allreduce(ep, &grads[rank], &cfg));
        for rank in 0..world {
            prop_assert_eq!(
                clean[rank].is_dense(), slow[rank].is_dense(),
                "ssar representation rank {}", rank
            );
            let (d_clean, d_slow) = (clean[rank].to_dense(vocab), slow[rank].to_dense(vocab));
            prop_assert_eq!(bits(&d_clean.as_slice().to_vec()), bits(&d_slow.as_slice().to_vec()),
                "ssar rank {}", rank);
        }
    }

    #[test]
    fn alltoallv_sparse_exchanges_exact_parts(
        world in 1usize..=4,
        dim in 1usize..=5,
        rows in 0usize..=4,
    ) {
        // parts[r][c]: rank r's block destined for rank c.
        let parts: Vec<Vec<RowSparse>> = (0..world)
            .map(|r| {
                (0..world)
                    .map(|c| {
                        let idx: Vec<u32> = (0..rows as u32).map(|i| i * 2 + c as u32).collect();
                        let vals: Vec<f32> =
                            (0..rows * dim).map(|i| (r * 100 + c * 10 + i) as f32).collect();
                        RowSparse::new(idx, DenseTensor::from_vec(rows, dim, vals))
                    })
                    .collect()
            })
            .collect();
        let p = parts.clone();
        let results = run_group(world, move |rank, ep| {
            alltoallv_sparse(ep, p[rank].clone())
        });
        for (rank, received) in results.iter().enumerate() {
            prop_assert_eq!(received.len(), world, "rank {}", rank);
            for (src, block) in received.iter().enumerate() {
                prop_assert_eq!(block, &parts[src][rank], "rank {} from {}", rank, src);
            }
        }
    }
}

//! Cross-crate property-based tests of the invariants everything else
//! leans on: coalescing, Algorithm 1's partition, real collectives, the
//! modified Adam, and cost-model monotonicity.

use embrace_repro::collectives::ops::{alltoall_dense, ring_allreduce};
use embrace_repro::collectives::run_group;
use embrace_repro::core::vertical_split;
use embrace_repro::dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_repro::simnet::{Cluster, CostModel};
use embrace_repro::tensor::{
    coalesce, difference, index_select, intersect, is_coalesced, unique_sorted, DenseTensor,
    RowSparse,
};
use proptest::prelude::*;

/// Strategy: a random row-sparse gradient over `vocab` rows of `dim`.
fn sparse_grad(vocab: u32, dim: usize, max_rows: usize) -> impl Strategy<Value = RowSparse> {
    prop::collection::vec((0..vocab, prop::collection::vec(-10.0f32..10.0, dim)), 0..max_rows)
        .prop_map(move |rows| {
            let indices: Vec<u32> = rows.iter().map(|(i, _)| *i).collect();
            let values: Vec<f32> = rows.into_iter().flat_map(|(_, v)| v).collect();
            let n = indices.len();
            RowSparse::new(indices, DenseTensor::from_vec(n, dim, values))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalesce_preserves_dense_semantics(grad in sparse_grad(40, 3, 30)) {
        let c = coalesce(&grad);
        prop_assert!(is_coalesced(&c));
        let dense_raw = grad.to_dense(40);
        let dense_coalesced = c.to_dense(40);
        prop_assert!(dense_raw.approx_eq(&dense_coalesced, 1e-4));
        // Idempotent.
        prop_assert_eq!(coalesce(&c), c);
    }

    #[test]
    fn set_ops_partition_their_input(
        a in prop::collection::vec(0u32..100, 0..60),
        b in prop::collection::vec(0u32..100, 0..60),
    ) {
        let ua = unique_sorted(&a);
        let ub = unique_sorted(&b);
        let inter = intersect(&ua, &ub);
        let diff = difference(&ua, &ub);
        // Disjoint and covering.
        prop_assert!(intersect(&inter, &diff).is_empty());
        let mut merged = [inter.clone(), diff].concat();
        merged.sort_unstable();
        prop_assert_eq!(merged, ua);
        // Intersection is symmetric.
        prop_assert_eq!(inter, intersect(&ub, &unique_sorted(&a)));
    }

    #[test]
    fn algorithm1_partitions_the_coalesced_gradient(
        tokens in prop::collection::vec(0u32..50, 1..40),
        next in prop::collection::vec(0u32..50, 0..40),
        dim in 1usize..4,
    ) {
        let values = DenseTensor::full(tokens.len(), dim, 1.0);
        let grad = RowSparse::new(tokens.clone(), values);
        let split = vertical_split(&grad, &tokens, &next);
        // Disjoint index sets covering unique(tokens).
        prop_assert!(intersect(&split.i_prior, &split.i_delayed).is_empty());
        let mut all = [split.i_prior.clone(), split.i_delayed.clone()].concat();
        all.sort_unstable();
        prop_assert_eq!(all, unique_sorted(&tokens));
        // Prior rows are exactly those appearing in `next`.
        let next_set = unique_sorted(&next);
        for &i in &split.i_prior {
            prop_assert!(next_set.binary_search(&i).is_ok());
        }
        for &i in &split.i_delayed {
            prop_assert!(next_set.binary_search(&i).is_err());
        }
        // The two parts reassemble the coalesced gradient.
        let merged = coalesce(&RowSparse::concat(&[split.prior, split.delayed]));
        prop_assert_eq!(merged, coalesce(&grad));
    }

    #[test]
    fn index_select_returns_requested_rows_only(
        grad in sparse_grad(30, 2, 25),
        select in prop::collection::vec(0u32..30, 0..20),
    ) {
        let c = coalesce(&grad);
        let sel = unique_sorted(&select);
        let out = index_select(&c, &sel);
        prop_assert!(is_coalesced(&out));
        for &i in out.indices() {
            prop_assert!(sel.binary_search(&i).is_ok());
            prop_assert!(c.indices().binary_search(&i).is_ok());
        }
        prop_assert_eq!(out.indices().len(), intersect(c.indices(), &sel).len());
    }

    #[test]
    fn ring_allreduce_equals_serial_sum(
        world in 2usize..6,
        len in 1usize..40,
        seed in 0u64..1000,
    ) {
        let data: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..len).map(|i| ((seed + r as u64 * 31 + i as u64) % 17) as f32 - 8.0).collect())
            .collect();
        let expect: Vec<f32> =
            (0..len).map(|i| data.iter().map(|d| d[i]).sum()).collect();
        let data2 = data.clone();
        let out = run_group(world, move |rank, ep| {
            let mut buf = data2[rank].clone();
            ring_allreduce(ep, &mut buf);
            buf
        });
        for buf in out {
            for (got, want) in buf.iter().zip(&expect) {
                prop_assert!((got - want).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn alltoall_is_an_involution(world in 1usize..5, seed in 0u64..100) {
        let out = run_group(world, move |rank, ep| {
            let parts: Vec<DenseTensor> = (0..world)
                .map(|j| DenseTensor::full(1, 2, (seed as usize + rank * world + j) as f32))
                .collect();
            let once = alltoall_dense(ep, parts.clone());
            let twice = alltoall_dense(ep, once);
            (parts, twice)
        });
        for (orig, back) in out {
            prop_assert_eq!(orig, back);
        }
    }

    #[test]
    fn modified_adam_split_equals_whole_for_random_partitions(
        tokens in prop::collection::vec(0u32..20, 1..15),
        cut in 0usize..15,
        steps in 1usize..5,
    ) {
        let dim = 2;
        let mut p_whole = DenseTensor::full(20, dim, 0.5);
        let mut p_split = p_whole.clone();
        let mut o_whole = Adam::new(20, dim, 0.01);
        let mut o_split = o_whole.clone();
        for s in 0..steps {
            let vals = DenseTensor::full(tokens.len(), dim, (s + 1) as f32 * 0.1);
            let grad = coalesce(&RowSparse::new(tokens.clone(), vals));
            let ids = grad.indices().to_vec();
            let cut = cut.min(ids.len());
            let prior = index_select(&grad, &ids[..cut]);
            let delayed = index_select(&grad, &ids[cut..]);
            o_whole.step_sparse(&mut p_whole, &grad, UpdatePart::Whole);
            o_split.step_sparse(&mut p_split, &prior, UpdatePart::Prior);
            o_split.step_sparse(&mut p_split, &delayed, UpdatePart::Delayed);
        }
        prop_assert!(p_whole.approx_eq(&p_split, 0.0));
    }

    #[test]
    fn cost_model_monotone_in_payload(
        mb in 1.0f64..2000.0,
        extra in 0.01f64..1000.0,
        world in 2usize..5,
    ) {
        let cm = CostModel::new(Cluster::rtx3090(world * 4));
        let small = mb * 1e6;
        let large = (mb + extra) * 1e6;
        prop_assert!(cm.alltoall(small) <= cm.alltoall(large));
        prop_assert!(cm.allgather(small) <= cm.allgather(large));
        prop_assert!(cm.ring_allreduce(small) <= cm.ring_allreduce(large));
        prop_assert!(cm.ps(small, 4) <= cm.ps(large, 4));
    }
}

/// PR 5: the chunked/preemptible scheduler must be *bitwise* identical to
/// unchunked execution for every `CommOp` kind, on random worlds, shapes,
/// chunk sizes, and preemption points — including bulk ops genuinely
/// preempted mid-tensor by the urgent stream (tiny chunks force many
/// resumable segments; the head start puts that many of them on the wire
/// first).
mod chunked_scheduler {
    use super::*;
    use embrace_repro::collectives::{mesh, CommOp, CommResult, CommScheduler, Ticket};

    /// Canonical bit-encoding of a result: f32 payloads as bit patterns,
    /// framed with lengths so distinct shapes can never collide.
    fn result_bits(r: &CommResult) -> Vec<u64> {
        let mut out = Vec::new();
        match r {
            CommResult::AllReduceDense(v) => {
                out.push(0);
                out.extend(v.iter().map(|x| u64::from(x.to_bits())));
            }
            CommResult::AlltoAllDense(ts) => {
                out.push(1);
                for t in ts {
                    out.push(t.rows() as u64);
                    out.push(t.cols() as u64);
                    out.extend(t.as_slice().iter().map(|x| u64::from(x.to_bits())));
                }
            }
            CommResult::AlltoAllSparse(ps) => {
                out.push(2);
                for p in ps {
                    out.push(p.indices().len() as u64);
                    out.extend(p.indices().iter().map(|&i| u64::from(i)));
                    out.extend(p.values().as_slice().iter().map(|x| u64::from(x.to_bits())));
                }
            }
            CommResult::GatherTokens(vs) => {
                out.push(3);
                for v in vs {
                    out.push(v.len() as u64);
                    out.extend(v.iter().map(|&t| u64::from(t)));
                }
            }
            CommResult::Flush => out.push(4),
            CommResult::Failed(e) => panic!("scheduler failed: {e:?}"),
        }
        out
    }

    /// One full SPMD round over all five op kinds: a bulk low-priority
    /// AllReduce first, `head_start` units of it, then the high-priority
    /// ops that preempt it when chunking is on. Returns per-rank result
    /// encodings.
    fn run_all_ops(
        world: usize,
        chunk: Option<usize>,
        bulk_len: usize,
        rows: usize,
        dim: usize,
        head_start: usize,
        seed: u64,
    ) -> Vec<Vec<u64>> {
        let eps = mesh(world);
        std::thread::scope(|scope| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    scope.spawn(move || {
                        let mut s = match chunk {
                            Some(c) => CommScheduler::spawn_chunked(ep, c),
                            None => CommScheduler::spawn(ep),
                        };
                        let bulk: Vec<f32> = (0..bulk_len)
                            .map(|i| {
                                ((seed as usize + rank * 131 + i * 7) % 509) as f32 * 0.25 - 63.0
                            })
                            .collect();
                        let t_bulk = s.submit(100, "bulk", CommOp::AllReduceDense(bulk));
                        for _ in 0..head_start {
                            s.progress();
                        }
                        let dense: Vec<DenseTensor> = (0..world)
                            .map(|j| {
                                let data =
                                    (0..rows * dim).map(|i| (rank * 100 + j * 10 + i) as f32);
                                DenseTensor::from_vec(rows, dim, data.collect())
                            })
                            .collect();
                        let sparse: Vec<RowSparse> = (0..world)
                            .map(|j| {
                                let idx: Vec<u32> =
                                    (0..rows as u32).map(|i| i * 3 + j as u32).collect();
                                let vals = (0..rows * dim).map(|i| (rank * 7 + j + i) as f32 * 0.5);
                                RowSparse::new(
                                    idx,
                                    DenseTensor::from_vec(rows, dim, vals.collect()),
                                )
                            })
                            .collect();
                        let tokens: Vec<u32> =
                            (0..5).map(|i| (seed as usize + rank * 17 + i) as u32).collect();
                        let hp: Vec<Ticket> = vec![
                            s.submit(-10, "hp_gather", CommOp::GatherTokens(tokens)),
                            s.submit(-10, "hp_a2ad", CommOp::AlltoAllDense(dense)),
                            s.submit(-10, "hp_a2as", CommOp::AlltoAllSparse(sparse)),
                            s.submit(-10, "hp_flush", CommOp::Flush),
                        ];
                        let mut bits = Vec::new();
                        for t in hp {
                            bits.extend(result_bits(&t.wait()));
                        }
                        bits.extend(result_bits(&t_bulk.wait()));
                        bits
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn chunked_scheduler_bitwise_identical_to_unchunked(
            world in 2usize..=4,
            bulk_len in 32usize..400,
            // 4–24 f32 elements per segment: every bulk payload splits
            // into dozens of resumable units.
            chunk_bytes in 16usize..=96,
            rows in 0usize..=3,
            dim in 1usize..=4,
            head_start in 0usize..=40,
            seed in 0u64..1000,
        ) {
            let plain = run_all_ops(world, None, bulk_len, rows, dim, 0, seed);
            let chunked =
                run_all_ops(world, Some(chunk_bytes), bulk_len, rows, dim, head_start, seed);
            for rank in 0..world {
                prop_assert_eq!(&plain[rank], &chunked[rank], "rank {}", rank);
            }
        }
    }
}

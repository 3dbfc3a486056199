//! Cross-crate property-based tests of the invariants everything else
//! leans on: coalescing, Algorithm 1's partition, real collectives, the
//! modified Adam, and cost-model monotonicity.

use embrace_repro::collectives::ops::{alltoall_dense, ring_allreduce};
use embrace_repro::collectives::run_group;
use embrace_repro::core::vertical_split;
use embrace_repro::dlsim::optim::{Adam, Optimizer, UpdatePart};
use embrace_repro::simnet::{Cluster, CostModel};
use embrace_repro::tensor::{
    coalesce, intersect, is_coalesced, unique_sorted, DenseTensor, IndexSet, RowSparse,
};
use proptest::prelude::*;

/// Algorithm 1 as the paper lists it: `COALESCE`, two `UNIQUE`s, an
/// intersection, a difference and two `INDEX_SELECT`s, each materialising
/// its result. `vertical_split` fuses them into one pass and must agree
/// with this composition bit for bit; `difference` and `index_select`
/// have no other use left and live here.
mod oracle {
    use super::{intersect, is_coalesced, unique_sorted, DenseTensor, IndexSet, RowSparse};
    use std::collections::btree_map::{BTreeMap, Entry};

    /// Set difference `a \ b` of two sorted sets (linear merge).
    pub fn difference(a: &[u32], b: &[u32]) -> IndexSet {
        let mut out = Vec::with_capacity(a.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            if j >= b.len() || a[i] < b[j] {
                out.push(a[i]);
                i += 1;
            } else if a[i] > b[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        out
    }

    /// `INDEX_SELECT`: the rows of a **coalesced** gradient whose ids
    /// appear in the sorted set `select`; ids absent from the gradient are
    /// skipped.
    pub fn index_select(coalesced: &RowSparse, select: &[u32]) -> RowSparse {
        assert!(is_coalesced(coalesced), "index_select requires a coalesced gradient");
        let keep = intersect(coalesced.indices(), select);
        let positions: Vec<u32> = keep
            .iter()
            .map(|id| coalesced.indices().binary_search(id).expect("kept ids are present") as u32)
            .collect();
        RowSparse::new(keep, coalesced.values().gather_rows(&positions))
    }

    /// `COALESCE` by definition, sharing nothing with the library's sort:
    /// each id's rows summed one element at a time in input order.
    pub fn coalesce(grad: &RowSparse) -> RowSparse {
        let mut sums: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
        for (i, &id) in grad.indices().iter().enumerate() {
            let row = grad.values().row(i);
            match sums.entry(id) {
                Entry::Vacant(e) => drop(e.insert(row.to_vec())),
                Entry::Occupied(mut e) => {
                    e.get_mut().iter_mut().zip(row).for_each(|(s, v)| *s += v)
                }
            }
        }
        let values = sums.values().flatten().copied().collect();
        RowSparse::new(
            sums.keys().copied().collect(),
            DenseTensor::from_vec(sums.len(), grad.dim(), values),
        )
    }

    pub fn vertical_split(
        grad: &RowSparse,
        d_cur_rank: &[u32],
        d_next_gathered: &[u32],
    ) -> (RowSparse, RowSparse, IndexSet, IndexSet) {
        let g_coalesced = coalesce(grad);
        let du = unique_sorted(d_cur_rank);
        let d_next = unique_sorted(d_next_gathered);
        let i_prior = intersect(&du, &d_next);
        let i_delayed = difference(&du, &i_prior);
        let prior = index_select(&g_coalesced, &i_prior);
        let delayed = index_select(&g_coalesced, &i_delayed);
        (prior, delayed, i_prior, i_delayed)
    }
}
use oracle::{difference, index_select};

/// Bit patterns of a gradient: `==` on `f32` would let `-0.0 == 0.0` and
/// a NaN mismatch through.
fn bits(g: &RowSparse) -> (Vec<u32>, usize, Vec<u32>) {
    (g.indices().to_vec(), g.dim(), g.values().as_slice().iter().map(|v| v.to_bits()).collect())
}

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
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // The fused split against the seven-pass composition, over duplicates,
    // empty inputs, a `D_next` empty / equal to the batch / disjoint from
    // it / overlapping it, a `D_cur` that is not the gradient's index
    // list, and id spreads on both sides of every regime switch (one, two
    // and three radix-sort passes; bitmap vs sorted `D_next` at span
    // 64·len).
    #[test]
    fn vertical_split_equals_the_seven_pass_composition(
        rows in prop::collection::vec((0u32..40, prop::collection::vec(-10.0f32..10.0, 3)), 0..60),
        next in prop::collection::vec(0u32..48, 0..60),
        next_kind in 0usize..4,
        other_cur in prop::collection::vec(0u32..44, 0..60),
        cur_is_batch in 0usize..3,
        stretch in 0usize..4,
        dim in 0usize..4,
    ) {
        let stretch = [1u32, 50, 1000, 80_000_000][stretch];
        let ids: Vec<u32> = rows.iter().map(|(i, _)| i * stretch).collect();
        let values: Vec<f32> = rows.iter().flat_map(|(_, v)| v[..dim].to_vec()).collect();
        let grad = RowSparse::new(ids.clone(), DenseTensor::from_vec(ids.len(), dim, values));
        let next: Vec<u32> = match next_kind {
            0 => Vec::new(),
            1 => ids.clone(),
            2 => next.iter().map(|t| t * stretch + 1).collect(),
            _ => next.iter().map(|t| t * stretch).collect(),
        };
        let cur = if cur_is_batch > 0 {
            ids
        } else {
            other_cur.iter().map(|t| t * stretch).collect()
        };
        let got = vertical_split(&grad, &cur, &next);
        let (prior, delayed, i_prior, i_delayed) = oracle::vertical_split(&grad, &cur, &next);
        prop_assert_eq!(bits(&coalesce(&grad)), bits(&oracle::coalesce(&grad)));
        prop_assert_eq!(bits(&got.prior), bits(&prior));
        prop_assert_eq!(bits(&got.delayed), bits(&delayed));
        prop_assert_eq!(got.i_prior, i_prior);
        prop_assert_eq!(got.i_delayed, i_delayed);
    }
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
    use embrace_repro::collectives::schedule::Ring;
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
            // One add short: `run_all_ops` encodes the sums it completes.
            CommResult::ReduceScatterDense(_) => unreachable!("encoded once summed"),
            CommResult::AllGatherDense(block) => {
                out.push(6);
                out.extend(block.as_slice().iter().map(|x| u64::from(x.to_bits())));
            }
            CommResult::Failed(e) => panic!("scheduler failed: {e:?}"),
        }
        out
    }

    /// One full SPMD round over all seven op kinds: a bulk low-priority
    /// AllReduce first, `head_start` units of it, then the high-priority
    /// ops that preempt it when chunking is on, the all-gather sending the
    /// reduce-scatter's segments. Returns per-rank result encodings.
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
                        let block = DenseTensor::from_vec(1, bulk_len, bulk.clone());
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
                            s.submit(-10, "hp_rs", CommOp::ReduceScatterDense(block.share())),
                        ];
                        let mut bits = Vec::new();
                        let mut unsummed = Vec::new();
                        for t in hp {
                            match t.wait() {
                                CommResult::ReduceScatterDense(segments) => unsummed = segments,
                                result => bits.extend(result_bits(&result)),
                            }
                        }
                        // The owned chunk's sums, taken by an identity
                        // update into the block and where the segments
                        // write: the all-gather completes the allreduce.
                        let mut block = block;
                        let owned = Ring::whole(world, rank, bulk_len).owned();
                        let mut at = owned.start;
                        for segment in &mut unsummed {
                            let piece = segment.unsummed();
                            let sums = &mut block.as_mut_slice()[at..at + piece.len()];
                            at += piece.len();
                            piece.update(sums, |x, g| {
                                *x = g;
                                g
                            });
                        }
                        bits.push(5);
                        bits.extend(block.as_slice()[owned].iter().map(|x| u64::from(x.to_bits())));
                        let ag = s.submit(-10, "hp_ag", CommOp::AllGatherDense(block, unsummed));
                        bits.extend(result_bits(&ag.wait()));
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

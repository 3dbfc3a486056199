//! Degenerate-shape collectives: single-rank worlds, zero-length buffers,
//! and empty sparse payloads must all round-trip exactly — these are the
//! shapes real workloads hit at the edges (last uneven batch, a shard
//! with no touched rows, debugging on one worker). Ranks that disagree on
//! a collective's shape must all fail typed instead.

use embrace_repro::collectives::ops::{
    allgather_tokens, alltoallv_sparse, barrier, broadcast, ring_allreduce, try_barrier,
    try_ring_allreduce, try_sparse_allreduce, SparseReduced, SsarConfig,
};
use embrace_repro::collectives::{
    run_group, run_group_with_deadline, CommError, Endpoint, FaultPlan, Packet,
};
use embrace_repro::tensor::{DenseTensor, RowSparse};
use std::time::Duration;

#[test]
fn world_of_one_short_circuits_every_collective() {
    let out = run_group(1, |rank, ep| {
        barrier(ep);
        try_barrier(ep).unwrap();
        let b = broadcast(ep, 0, Some(Packet::Tokens(vec![9].into())));
        let mut buf = vec![2.5f32, -1.0];
        ring_allreduce(ep, &mut buf);
        let toks = allgather_tokens(ep, vec![rank as u32]);
        let sparse =
            alltoallv_sparse(ep, vec![RowSparse::new(vec![3], DenseTensor::full(1, 2, 4.0))]);
        (b, buf, toks, sparse)
    });
    let (b, buf, toks, sparse) = &out[0];
    assert_eq!(b, &Packet::Tokens(vec![9].into()));
    assert_eq!(buf, &vec![2.5, -1.0]); // untouched: nothing to reduce with
    assert_eq!(toks[0], vec![0]);
    assert_eq!(toks.len(), 1);
    assert_eq!(sparse[0].indices(), &[3]);
    // No messages should have crossed the wire for the pure self-world
    // collectives above (broadcast/barrier/allreduce/gather all
    // early-return or keep data local).
}

#[test]
fn zero_length_ring_allreduce_is_a_noop_on_data() {
    // Empty gradient buffers occur when a worker owns a zero-width shard;
    // the ring still runs its 2(N-1) rounds with empty chunks and must
    // neither panic nor deadlock.
    for world in [2, 3, 5] {
        let out = run_group(world, |_rank, ep| {
            let mut buf: Vec<f32> = Vec::new();
            ring_allreduce(ep, &mut buf);
            let mut buf2: Vec<f32> = Vec::new();
            try_ring_allreduce(ep, &mut buf2).unwrap();
            (buf, buf2)
        });
        for (buf, buf2) in out {
            assert!(buf.is_empty() && buf2.is_empty());
        }
    }
}

#[test]
fn empty_row_sparse_flows_through_alltoallv() {
    // A rank whose batch touched no rows of some shard sends a 0-row
    // block; every receiver must get back a well-formed empty tensor with
    // the right width.
    let dim = 3;
    let out = run_group(3, move |rank, ep| {
        // Rank 1 has nothing for anyone; others send one row to each.
        let parts: Vec<RowSparse> = (0..3)
            .map(|_| {
                if rank == 1 {
                    RowSparse::empty(dim)
                } else {
                    RowSparse::new(vec![rank as u32], DenseTensor::full(1, dim, rank as f32))
                }
            })
            .collect();
        alltoallv_sparse(ep, parts)
    });
    for received in &out {
        assert_eq!(received.len(), 3);
        for (src, block) in received.iter().enumerate() {
            assert_eq!(block.dim(), dim, "width preserved even when empty");
            if src == 1 {
                assert_eq!(block.nnz_rows(), 0);
            } else {
                assert_eq!(block.indices(), &[src as u32]);
            }
        }
    }
}

/// Unwrap the sparse representation (crossover disabled ⇒ the result must
/// never densify, whatever the inputs looked like).
fn expect_sparse(r: SparseReduced) -> RowSparse {
    match r {
        SparseReduced::Sparse(s) => s,
        SparseReduced::Dense(_) => panic!("crossover disabled but result densified"),
    }
}

#[test]
fn sparse_allreduce_empty_on_every_rank() {
    // No rank touched any row: the allreduce still gathers every rank's
    // empty block and must return an empty sum.
    let cfg = SsarConfig { vocab: 8, crossover: 2.0 };
    for world in [1, 2, 3, 5] {
        let out = run_group(world, move |_rank, ep| {
            try_sparse_allreduce(ep, &RowSparse::empty(4), &cfg).unwrap()
        });
        for got in out {
            let s = expect_sparse(got);
            assert_eq!(s.nnz_rows(), 0);
            assert_eq!(s.dim(), 4, "width survives an all-empty reduction");
        }
    }
}

#[test]
fn sparse_allreduce_empty_on_a_strict_subset() {
    // Only rank 0 contributes; everyone must still converge on its rows.
    let cfg = SsarConfig { vocab: 16, crossover: 2.0 };
    for world in [2, 3, 4, 6] {
        let out = run_group(world, move |rank, ep| {
            let grad = if rank == 0 {
                RowSparse::new(vec![2, 9], DenseTensor::full(2, 3, 1.5))
            } else {
                RowSparse::empty(3)
            };
            try_sparse_allreduce(ep, &grad, &cfg).unwrap()
        });
        for got in out {
            let s = expect_sparse(got);
            assert_eq!(s.indices(), &[2, 9]);
            assert_eq!(s.values().as_slice(), &[1.5f32; 6][..]);
        }
    }
}

#[test]
fn sparse_allreduce_world_of_one_keeps_data_local() {
    let cfg = SsarConfig { vocab: 8, crossover: 2.0 };
    let out = run_group(1, move |_rank, ep| {
        let grad = RowSparse::new(vec![1, 1, 5], DenseTensor::full(3, 2, 2.0));
        try_sparse_allreduce(ep, &grad, &cfg).unwrap()
    });
    let s = expect_sparse(out.into_iter().next().unwrap());
    // The local duplicate is coalesced even with no peers to talk to.
    assert_eq!(s.indices(), &[1, 5]);
    assert_eq!(s.values().as_slice(), &[4.0, 4.0, 2.0, 2.0]);
}

#[test]
fn sparse_allreduce_single_shared_row() {
    // Every rank updates the same single row: the union has one index and
    // the value is the exact sum of the per-rank contributions.
    let cfg = SsarConfig { vocab: 32, crossover: 2.0 };
    for world in [2, 3, 4, 5, 8] {
        let out = run_group(world, move |rank, ep| {
            let grad = RowSparse::new(vec![7], DenseTensor::full(1, 2, (rank + 1) as f32));
            try_sparse_allreduce(ep, &grad, &cfg).unwrap()
        });
        let expect = (world * (world + 1) / 2) as f32; // exact in f32
        for got in out {
            let s = expect_sparse(got);
            assert_eq!(s.indices(), &[7]);
            assert_eq!(s.values().as_slice(), &[expect, expect]);
        }
    }
}

#[test]
fn sparse_allreduce_zero_vocab() {
    // A zero-row table (an unsharded slot on this worker) reduces to an
    // empty result without panicking, at either crossover extreme.
    for crossover in [2.0, 0.0] {
        let cfg = SsarConfig { vocab: 0, crossover };
        for world in [1, 2, 3, 4] {
            let out = run_group(world, move |_rank, ep| {
                try_sparse_allreduce(ep, &RowSparse::empty(5), &cfg).unwrap()
            });
            for got in out {
                // A zero-row vocabulary has no density to reach, so the
                // result stays sparse even at crossover 0.
                let s = expect_sparse(got);
                assert_eq!(s.nnz_rows(), 0);
            }
        }
    }
}

#[test]
fn mixed_empty_and_nonempty_token_gathers() {
    let out = run_group(4, |rank, ep| {
        // Even ranks contribute no tokens.
        let mine = if rank % 2 == 0 { vec![] } else { vec![rank as u32] };
        allgather_tokens(ep, mine)
    });
    for all in out {
        assert_eq!(all, vec![vec![], vec![1], vec![], vec![3]]);
    }
}

/// Run `f` on every rank of a fault-free `world` group and return each
/// rank's outcome; a rank that panics or hangs fails the test.
fn outcomes<F>(world: usize, f: F) -> Vec<Result<(), CommError>>
where
    F: Fn(usize, &mut Endpoint) -> Result<(), CommError> + Send + Sync + 'static,
{
    let plan = FaultPlan::new(0);
    match run_group_with_deadline(world, &plan, None, Duration::from_secs(10), f) {
        Ok(out) => out,
        Err(e) => panic!("a rank panicked or hung: {e:?}"),
    }
}

/// Every rank failed, and at least one saw the shapes disagree.
fn all_failed_typed(label: &str, out: &[Result<(), CommError>]) {
    assert!(out.iter().all(Result::is_err), "{label}: a rank returned Ok: {out:?}");
    let protocol = out.iter().any(|r| matches!(r, Err(CommError::Protocol { .. })));
    assert!(protocol, "{label}: no rank reported the mismatch: {out:?}");
}

#[test]
fn sparse_allreduce_with_disagreeing_vocabs_fails_on_every_rank() {
    // Another vocab, or another gradient width, is another header: a
    // peer's block fails the check before this rank merges it.
    for (vocabs, dims) in
        [(vec![16, 32], vec![2, 2]), (vec![16, 32, 16], vec![2, 2, 2]), (vec![16, 16], vec![2, 3])]
    {
        let world = vocabs.len();
        let label = format!("vocabs {vocabs:?} widths {dims:?}");
        let out = outcomes(world, move |rank, ep| {
            let cfg = SsarConfig { vocab: vocabs[rank], crossover: 2.0 };
            let grad = RowSparse::new(vec![3, 9, 12], DenseTensor::full(3, dims[rank], 1.0));
            try_sparse_allreduce(ep, &grad, &cfg).map(drop)
        });
        all_failed_typed(&label, &out);
    }
}

#[test]
fn ring_allreduce_with_disagreeing_lengths_fails_on_every_rank() {
    // Another length cuts other segments: a received segment is not the
    // length of the range this rank's unit reduces it into.
    for lens in [vec![8, 12], vec![8, 12, 8]] {
        let world = lens.len();
        let label = format!("lengths {lens:?}");
        let out =
            outcomes(world, move |rank, ep| try_ring_allreduce(ep, &mut vec![1.0; lens[rank]]));
        all_failed_typed(&label, &out);
    }
}

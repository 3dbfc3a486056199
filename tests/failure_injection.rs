//! Failure-injection: the substrate must fail loudly and precisely on
//! misuse — a distributed-training framework that hangs or silently
//! corrupts on programmer error is worse than one that panics. The
//! parameter-server surface goes one better and returns typed errors.

use embrace_repro::collectives::{mesh, run_group, CommOp, CommScheduler};
use embrace_repro::ps::{EmbeddingService, PsError, ServiceConfig};
use embrace_repro::simnet::{CommOrder, Sim, Task};
use embrace_repro::tensor::{DenseTensor, RowSparse};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn worker_panic_propagates_out_of_the_group() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_group(3, |rank, _ep| {
            if rank == 1 {
                panic!("injected worker failure");
            }
            rank
        })
    }));
    assert!(result.is_err(), "a worker panic must fail the whole group");
}

#[test]
fn mismatched_alltoall_parts_panic() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_group(2, |_rank, ep| {
            // Wrong number of outgoing blocks (3 for a world of 2).
            let parts = vec![DenseTensor::zeros(1, 1); 3];
            embrace_repro::collectives::ops::alltoall_dense(ep, parts)
        })
    }));
    assert!(result.is_err());
}

/// A one-rank embedding service over a zero-initialised 4 × 2 table.
fn zero_service() -> EmbeddingService {
    EmbeddingService::new(0, 1, &ServiceConfig::minimal(4, 2, 1.0), &|_, _| 0.0)
}

#[test]
fn ps_rejects_wrong_gradient_width() {
    run_group(1, |_rank, ep| {
        let mut svc = zero_service();
        let bad = RowSparse::new(vec![0], DenseTensor::zeros(1, 5));
        assert_eq!(svc.try_push(ep, &bad), Err(PsError::DimMismatch { expected: 2, got: 5 }));
        // The service remains usable afterwards.
        let good = RowSparse::new(vec![1], DenseTensor::full(1, 2, 1.0));
        svc.try_push(ep, &good).expect("matching width");
        assert_eq!(svc.try_lookup(ep, &[1]).expect("row in range").row(0), &[-1.0, -1.0]);
    });
}

#[test]
fn ps_rejects_out_of_range_rows() {
    run_group(1, |_rank, ep| {
        let mut svc = zero_service();
        let err = svc.try_lookup(ep, &[99]).expect_err("row 99 of 4");
        assert_eq!(err, PsError::RowOutOfRange { row: 99, vocab: 4 });
        // The service still serves afterwards.
        assert_eq!(svc.try_lookup(ep, &[3]).expect("row in range").row(0), &[0.0, 0.0]);
    });
}

#[test]
fn sim_rejects_forward_dependencies() {
    let mut sim = Sim::new(CommOrder::Fifo);
    let result = catch_unwind(AssertUnwindSafe(|| {
        sim.add(Task::compute("bad", 1.0).after([42]));
    }));
    assert!(result.is_err(), "dangling dependency must be rejected at construction");
}

#[test]
fn comm_scheduler_drains_cleanly_on_drop() {
    // Dropping schedulers with work still enqueued must not deadlock:
    // every rank's drop drains its queue, in the same order.
    let endpoints = mesh(2);
    std::thread::scope(|s| {
        for (rank, ep) in endpoints.into_iter().enumerate() {
            s.spawn(move || {
                let mut comm = CommScheduler::spawn(ep);
                for k in 0..3 {
                    let _ =
                        comm.submit(k, format!("op{k}"), CommOp::GatherTokens(vec![rank as u32]));
                }
                // Implicit drop — no flush.
            });
        }
    });
}

#[test]
fn zero_duration_tasks_complete() {
    let mut sim = Sim::new(CommOrder::Priority);
    let a = sim.add(Task::compute("instant", 0.0));
    let b = sim.add(Task::comm("also-instant", 0.0, 0).after([a]));
    sim.add(Task::compute("after", 1.0).after([b]));
    let r = sim.run();
    assert!((r.makespan - 1.0).abs() < 1e-12);
    assert_eq!(r.trace.spans.len(), 3);
}

#[test]
fn degenerate_model_dimensions_survive() {
    // A 1-row, 1-dim table across more workers than columns.
    use embrace_repro::core::ColumnShardedEmbedding;
    let full = DenseTensor::full(1, 2, 1.0);
    let out = run_group(4, move |rank, ep| {
        let emb = ColumnShardedEmbedding::new(&full, rank, 4);
        // Two of the four shards are zero-width; lookups still work.
        let all_tokens: Vec<Vec<u32>> = vec![vec![0]; 4];
        let lookup = emb.forward(ep, &all_tokens);
        (emb.shard_dim(), lookup)
    });
    let widths: Vec<usize> = out.iter().map(|(w, _)| *w).collect();
    assert_eq!(widths.iter().sum::<usize>(), 2);
    for (_, lookup) in out {
        assert_eq!(lookup.row(0), &[1.0, 1.0]);
    }
}

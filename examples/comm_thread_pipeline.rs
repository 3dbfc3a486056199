//! Drive the full §5.1 architecture by hand: a comm scheduler per worker,
//! backward hooks dumping prioritized operations into its queue, and
//! 2D-scheduling priorities deciding the drain order. (The paper drains the
//! queue from a background thread; here the worker's own thread does, each
//! time it waits on a ticket — same queue, same order, and the name of this
//! example is the paper's.)
//!
//! ```text
//! cargo run --release --example comm_thread_pipeline
//! ```

use embrace_repro::collectives::{mesh, CommOp, CommResult, CommScheduler};
use embrace_repro::core::horizontal::{
    DELAYED_GRAD_PRIORITY, EMB_DATA_PRIORITY, PRIOR_GRAD_PRIORITY,
};
use embrace_repro::dlsim::HookRegistry;
use embrace_repro::tensor::{DenseTensor, RowSparse};

fn main() {
    const WORLD: usize = 3;
    let endpoints = mesh(WORLD);

    std::thread::scope(|scope| {
        for (rank, ep) in endpoints.into_iter().enumerate() {
            scope.spawn(move || {
                let mut comm = CommScheduler::spawn(ep);

                // A 3-module toy model: embedding + two dense blocks.
                // Hooks fire as each module's backward completes and dump
                // the corresponding communication into the queue — exactly
                // the prototype's mechanism.
                let mut hooks: HookRegistry<Vec<(i64, &'static str)>> = HookRegistry::new(3);
                hooks.register(2, |q| q.push((1, "allreduce blk2")));
                hooks.register(1, |q| q.push((0, "allreduce blk1")));
                hooks.register(0, |q| q.push((PRIOR_GRAD_PRIORITY, "prior emb grads")));
                hooks.register(0, |q| q.push((DELAYED_GRAD_PRIORITY, "delayed emb grads")));

                // "Backward pass": modules 2, 1, 0 in reverse FP order.
                let mut queued = Vec::new();
                for module in [2, 1, 0] {
                    hooks.fire(module, &mut queued);
                }
                if rank == 0 {
                    println!("hook-emitted ops in BP order: {queued:?}");
                }

                // Submit everything; nothing runs yet, and the queue
                // reorders by priority.
                let mut tickets = Vec::new();
                for (priority, name) in queued {
                    let op = match name {
                        "prior emb grads" | "delayed emb grads" => CommOp::AlltoAllSparse(
                            (0..WORLD)
                                .map(|_| {
                                    RowSparse::new(
                                        vec![rank as u32],
                                        DenseTensor::full(1, 2, rank as f32),
                                    )
                                })
                                .collect(),
                        ),
                        _ => CommOp::AllReduceDense(vec![rank as f32; 4]),
                    };
                    tickets.push((name, comm.submit(priority, name, op)));
                }
                // An urgent lookup-result exchange arrives while the queue
                // is full — waiting on it runs the prior gradients, then
                // it, ahead of the dense transfers.
                let data = comm.submit(
                    EMB_DATA_PRIORITY,
                    "emb data",
                    CommOp::AlltoAllDense(
                        (0..WORLD).map(|_| DenseTensor::full(1, 2, rank as f32)).collect(),
                    ),
                );
                let CommResult::AlltoAllDense(blocks) = data.wait() else { unreachable!() };
                if rank == 0 {
                    println!("lookup blocks received from ranks: {}", blocks.len());
                }

                for (name, t) in tickets {
                    match t.wait() {
                        CommResult::AllReduceDense(buf) if rank == 0 => {
                            println!("{name:<16} -> summed[0] = {}", buf[0]);
                        }
                        CommResult::AlltoAllSparse(shards) if rank == 0 => {
                            println!("{name:<16} -> {} shard blocks", shards.len());
                        }
                        _ => {}
                    }
                }
                comm.flush();
            });
        }
    });
    println!("pipeline OK: hooks -> priority queue -> comm scheduler");
}

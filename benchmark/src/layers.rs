//! Per-layer probes: each times one public function of one crate at the
//! shape a workload uses it at, world 2, and reports the median call.
//!
//! Collective probes run a fixed number of lockstep iterations on both
//! ranks (a time budget would let the ranks disagree on when to stop);
//! rank 0's walls are the samples. Inputs come from the seed through the
//! same Zipf generator the trainer uses.

use crate::report::Report;
use crate::run::{guarded, WORLD};
use crate::stats::{self, Summary};
use crate::train::ZIPF_S;
use embrace_collectives::ops::{
    allgather_tokens, alltoall_dense, alltoallv_sparse, alltoallv_tokens, barrier, ring_allreduce,
    sparse_allreduce, SsarConfig,
};
use embrace_collectives::{
    mesh, run_group_on, slot_mesh, CommOp, CommResult, CommScheduler, Endpoint, OpTiming, Packet,
    DEFAULT_CHUNK_BYTES,
};
use embrace_core::{vertical_split, ColumnShardedEmbedding};
use embrace_dlsim::{Adam, Optimizer, UpdatePart};
use embrace_models::{BatchGen, ZipfSampler};
use embrace_tensor::{coalesce, kernels, merge_rowsparse, DenseTensor, RowSparse, TokenBuf};
use embrace_trainer::{
    train_convergence, train_convergence_scheduled_observed, ConvergenceConfig, TrainMethod,
};
use std::time::Instant;

/// `train_sparse`'s embedding shape.
const VOCAB: usize = 262_144;
const DIM: usize = 4;
const TOKENS: usize = 8192;
/// Elements of a 4 MiB f32 buffer: `train_dense`'s weight gradient.
const ELEMS_4M: usize = 1 << 20;
const BYTES_4M: f64 = (ELEMS_4M * 4) as f64;
/// 1 MiB messages per streaming iteration; within the slot window, so the
/// slot transport never falls back to its overflow rendezvous.
const STREAM_MSGS: usize = 8;

/// Time `iters` calls of `f` on this thread (after a tenth as many
/// untimed ones); seconds per call.
fn local(iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Time `iters` lockstep calls of `op` on every rank of `endpoints`,
/// each rank starting from its own `init(rank)` state; rank 0's seconds
/// per call.
fn group<S>(
    endpoints: Vec<Endpoint>,
    iters: usize,
    init: impl Fn(usize) -> S + Sync,
    op: impl Fn(usize, &mut Endpoint, &mut S) + Sync,
) -> Result<Vec<f64>, String> {
    guarded(|| {
        run_group_on(endpoints, |rank, ep| {
            let mut state = init(rank);
            local(iters, || op(rank, ep, &mut state))
        })
        .swap_remove(0)
    })
}

fn us(samples: &[f64]) -> Summary {
    stats::summarize(&samples.iter().map(|s| s * 1e6).collect::<Vec<_>>())
}

fn ms(samples: &[f64]) -> Summary {
    stats::summarize(&samples.iter().map(|s| s * 1e3).collect::<Vec<_>>())
}

fn gbps(samples: &[f64], bytes: f64) -> Summary {
    stats::summarize(&samples.iter().map(|s| bytes / s / 1e9).collect::<Vec<_>>())
}

/// The inputs every probe shares: per rank, this step's and the next
/// step's token batch and the raw embedding gradient of this step.
struct Inputs {
    tokens: Vec<Vec<u32>>,
    next_gathered: Vec<u32>,
    raw: Vec<RowSparse>,
    /// One serving batch's deduplicated ids, split by owning shard.
    requests: Vec<TokenBuf>,
}

fn inputs(seed: u64) -> Inputs {
    let sampler = ZipfSampler::new(VOCAB, ZIPF_S);
    let mut gens: Vec<BatchGen> = (0..WORLD)
        .map(|r| BatchGen::new(sampler.clone(), TOKENS, 0.0, seed ^ ((r as u64) << 32)))
        .collect();
    let tokens: Vec<Vec<u32>> = gens.iter_mut().map(BatchGen::next_batch).collect();
    let next_gathered: Vec<u32> = gens.iter_mut().flat_map(BatchGen::next_batch).collect();
    let raw = tokens
        .iter()
        .map(|t| RowSparse::new(t.clone(), DenseTensor::full(t.len(), DIM, 1e-3)))
        .collect();
    // The serving table has 2²⁰ rows, range-partitioned over two shards.
    let serve_vocab = 1usize << 20;
    let mut ids = BatchGen::new(ZipfSampler::new(serve_vocab, ZIPF_S), 512, 0.0, seed).next_batch();
    ids.sort_unstable();
    ids.dedup();
    let (lo, hi): (Vec<u32>, Vec<u32>) =
        ids.iter().partition(|&&id| (id as usize) < serve_vocab / 2);
    Inputs { tokens, next_gathered, raw, requests: vec![TokenBuf::from(lo), TokenBuf::from(hi)] }
}

/// Probes that need no peer: `tensor`, `dlsim`, `models`, and the local
/// half of `core`.
fn local_probes(inp: &Inputs, n: &dyn Fn(usize) -> usize, report: &mut Report) {
    let mut a = vec![0.0f32; ELEMS_4M];
    let mut b = vec![1e-3f32; ELEMS_4M];
    report.put(
        "tensor.add_assign_gbps",
        gbps(&local(n(300), || kernels::add_assign(&mut a, &b)), BYTES_4M),
    );
    report.put(
        "tensor.add_assign_scalar_gbps",
        gbps(&local(n(300), || kernels::add_assign_scalar(&mut a, &b)), BYTES_4M),
    );
    // Both operands take the sum, so they double every call: zeros stay
    // zeros and never reach infinity. An add costs the same either way.
    a.fill(0.0);
    b.fill(0.0);
    report.put(
        "tensor.add_assign_both_gbps",
        gbps(&local(n(300), || kernels::add_assign_both(&mut a, &mut b)), BYTES_4M),
    );
    std::hint::black_box((&a, &b));

    let raw = &inp.raw[0];
    report.put(
        "tensor.coalesce_us",
        us(&local(n(300), || {
            std::hint::black_box(coalesce(raw));
        })),
    );
    let parts: Vec<RowSparse> = inp.raw.iter().map(coalesce).collect();
    report.put(
        "tensor.merge_rowsparse_us",
        us(&local(n(300), || {
            std::hint::black_box(merge_rowsparse(&parts));
        })),
    );
    report.put(
        "core.vertical_split_us",
        us(&local(n(150), || {
            std::hint::black_box(vertical_split(raw, &inp.tokens[0], &inp.next_gathered));
        })),
    );

    let half = parts[0].slice_columns(0, DIM / WORLD);
    let mut table = DenseTensor::zeros(VOCAB, DIM / WORLD);
    let mut adam = Adam::new(VOCAB, DIM / WORLD, 0.05);
    report.put(
        "dlsim.adam_sparse_us",
        us(&local(n(300), || adam.step_sparse(&mut table, &half, UpdatePart::Whole))),
    );
    let mut w = DenseTensor::zeros(1024, 1024);
    let g = DenseTensor::full(1024, 1024, 1e-3);
    let mut adam = Adam::new(1024, 1024, 0.001);
    report.put("dlsim.adam_dense_ms", ms(&local(n(40), || adam.step_dense(&mut w, &g))));

    let mut gen = BatchGen::new(ZipfSampler::new(VOCAB, ZIPF_S), TOKENS, 0.0, 7);
    report.put(
        "models.zipf_batch_us",
        us(&local(n(100), || {
            std::hint::black_box(gen.next_batch());
        })),
    );
}

/// 64 B ping-pong and 1 MiB one-way streaming over one mesh kind.
fn transport_probes(
    make: fn(usize) -> Vec<Endpoint>,
    n: &dyn Fn(usize) -> usize,
) -> Result<(Summary, Summary), String> {
    let ping = DenseTensor::zeros(1, 16);
    let pingpong = group(
        make(WORLD),
        n(3000),
        |_| (),
        |rank, ep, _| {
            if rank == 0 {
                ep.send(1, Packet::Dense(ping.share()));
                ep.recv(1);
            } else {
                ep.recv(0);
                ep.send(0, Packet::Dense(ping.share()));
            }
        },
    )?;
    // The sender materialises every message, as the ring does for every
    // chunk it forwards, so the bytes really move once; the receiver
    // takes the message and drops it, then acknowledges the batch.
    let src = vec![1.0f32; 1 << 18];
    let stream = group(
        make(WORLD),
        n(60),
        |_| (),
        |rank, ep, _| {
            if rank == 0 {
                for _ in 0..STREAM_MSGS {
                    ep.send(1, Packet::Dense(DenseTensor::from_vec(512, 512, src.to_vec())));
                }
                ep.recv(1);
            } else {
                for _ in 0..STREAM_MSGS {
                    std::hint::black_box(ep.recv(0));
                }
                ep.send(0, Packet::Empty);
            }
        },
    )?;
    Ok((us(&pingpong), gbps(&stream, (STREAM_MSGS << 20) as f64)))
}

/// Every collective of `ops`, and the two collective halves of `core`.
fn collective_probes(
    inp: &Inputs,
    n: &dyn Fn(usize) -> usize,
    report: &mut Report,
) -> Result<(), String> {
    let none = |_: usize| ();
    report.put("ops.barrier_us", us(&group(mesh(WORLD), n(3000), none, |_, ep, _| barrier(ep))?));
    let ring_4m = group(
        mesh(WORLD),
        n(40),
        |_| vec![0.0f32; ELEMS_4M],
        |_, ep, buf| ring_allreduce(ep, buf),
    )?;
    let ring_4m = ms(&ring_4m);
    report.put("ops.ring_allreduce_4m_ms", ring_4m);
    report.put(
        "ops.ring_allreduce_64b_us",
        us(&group(
            mesh(WORLD),
            n(3000),
            |_| vec![0.0f32; 16],
            |_, ep, buf| ring_allreduce(ep, buf),
        )?),
    );
    report.put(
        "ops.allgather_tokens_us",
        us(&group(mesh(WORLD), n(1000), none, |rank, ep, _| {
            std::hint::black_box(allgather_tokens(ep, inp.tokens[rank].clone()));
        })?),
    );
    // AlltoAll #1 of `train_sparse`: one column block of the local
    // lookups per destination.
    let blocks = DenseTensor::full(TOKENS, DIM / WORLD, 0.1);
    report.put(
        "ops.alltoall_dense_us",
        us(&group(mesh(WORLD), n(1000), none, |_, ep, _| {
            std::hint::black_box(alltoall_dense(ep, vec![blocks.share(); WORLD]));
        })?),
    );
    // AlltoAll #2: the coalesced gradient's column block per destination.
    let grads: Vec<RowSparse> = inp.raw.iter().map(coalesce).collect();
    report.put(
        "ops.alltoallv_sparse_us",
        us(&group(mesh(WORLD), n(1000), none, |rank, ep, _| {
            let half = grads[rank].slice_columns(0, DIM / WORLD);
            std::hint::black_box(alltoallv_sparse(ep, vec![half.share(); WORLD]));
        })?),
    );
    // A serving lookup's request leg: one batch's deduplicated ids.
    report.put(
        "ops.alltoallv_tokens_us",
        us(&group(mesh(WORLD), n(3000), none, |_, ep, _| {
            let parts = inp.requests.iter().map(TokenBuf::share).collect();
            std::hint::black_box(alltoallv_tokens(ep, parts));
        })?),
    );
    // Never densifies, as the trainer's default gradient-plane policy.
    let ssar = SsarConfig { vocab: VOCAB, crossover: 1.5 };
    report.put(
        "ops.sparse_allreduce_us",
        us(&group(mesh(WORLD), n(300), none, |rank, ep, _| {
            std::hint::black_box(sparse_allreduce(ep, &grads[rank], &ssar));
        })?),
    );

    let full = DenseTensor::full(VOCAB, DIM, 0.1);
    let shard = |rank: usize| ColumnShardedEmbedding::new(&full, rank, WORLD);
    report.put(
        "core.forward_us",
        us(&group(mesh(WORLD), n(300), shard, |_, ep, emb| {
            std::hint::black_box(emb.forward(ep, &inp.tokens));
        })?),
    );
    let priors: Vec<RowSparse> = (0..WORLD)
        .map(|r| vertical_split(&inp.raw[r], &inp.tokens[r], &inp.next_gathered).prior)
        .collect();
    report.put(
        "core.exchange_grad_us",
        us(&group(mesh(WORLD), n(300), shard, |rank, ep, emb| {
            std::hint::black_box(emb.exchange_grad_part(ep, &priors[rank]));
        })?),
    );

    // ROADMAP item 1's "fraction of the layer below": a ring moves
    // 2(N−1)/N of the buffer through the reduce kernel at best.
    let kernel_gbps = report.get("tensor.add_assign_gbps").ok_or("kernel probe ran first")?;
    let bound_ms = 2.0 * (WORLD - 1) as f64 / WORLD as f64 * BYTES_4M / (kernel_gbps * 1e9) * 1e3;
    report.put_value("ops.ring_allreduce_4m_bound_frac", bound_ms / ring_4m.median);
    Ok(())
}

/// Run `per_rank` on one thread per rank, each owning its endpoint (a
/// `CommScheduler` takes the endpoint by value); rank 0's result.
fn owned_group<R: Send>(per_rank: impl Fn(Endpoint) -> R + Sync) -> Result<R, String> {
    guarded(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> =
                mesh(WORLD).into_iter().map(|ep| s.spawn(|| per_rank(ep))).collect();
            let mut results: Vec<R> =
                handles.into_iter().map(|h| h.join().expect("scheduler probe rank")).collect();
            results.swap_remove(0)
        })
    })
}

/// The comm scheduler: an empty op, a chunked 4 MiB allreduce, and the
/// scheduled trainer against the inline one.
fn scheduler_probes(
    seed: u64,
    n: &dyn Fn(usize) -> usize,
    report: &mut Report,
) -> Result<(), String> {
    let iters = n(2000);
    let noop = owned_group(|ep| {
        let mut comm = CommScheduler::spawn(ep);
        local(iters, || {
            comm.flush();
        })
    })?;
    report.put("scheduler.noop_us", us(&noop));

    let iters = n(40);
    let chunked = owned_group(|ep| {
        let mut comm = CommScheduler::spawn_chunked(ep, DEFAULT_CHUNK_BYTES);
        // The result buffer goes back in as the next payload, so no call
        // pays for faulting in 4 MiB of fresh pages.
        let mut buf = vec![0.0f32; ELEMS_4M];
        let mut k = 0;
        local(iters, || {
            k += 1;
            let op = CommOp::AllReduceDense(std::mem::take(&mut buf));
            match comm.submit(0, format!("ar{k}"), op).wait() {
                CommResult::AllReduceDense(out) => buf = out,
                other => panic!("chunked allreduce returned {other:?}"),
            }
        })
    })?;
    let chunked = ms(&chunked);
    report.put("scheduler.chunked_allreduce_256k_ms", chunked);
    let inline = report.get("ops.ring_allreduce_4m_ms").ok_or("ring probe ran first")?;
    report.put_value("scheduler.chunk_overhead_ratio", chunked.median / inline);

    // The reserved `train_sched` workload's shape. At world 2 it runs
    // four busy threads on two cores, so this ratio is a baseline, not a
    // gated number.
    let cfg = |steps| ConvergenceConfig {
        world: WORLD,
        vocab: 16_384,
        dim: 256,
        tokens_per_batch: 32,
        steps,
        zipf_s: ZIPF_S,
        seed,
        ..ConvergenceConfig::default()
    };
    let steps = n(40);
    let timed = |f: &dyn Fn()| -> Result<f64, String> {
        let t = Instant::now();
        guarded(f)?;
        Ok(t.elapsed().as_secs_f64())
    };
    // A zero-step call is the construction both pipelines pay alike.
    let inline = timed(&|| drop(train_convergence(TrainMethod::EmbRace, &cfg(steps))))?
        - timed(&|| drop(train_convergence(TrainMethod::EmbRace, &cfg(0))))?;
    let mut timings: Vec<OpTiming> = Vec::new();
    let t = Instant::now();
    let observed = guarded(|| train_convergence_scheduled_observed(&cfg(steps), true))?;
    let scheduled = t.elapsed().as_secs_f64()
        - timed(&|| drop(train_convergence_scheduled_observed(&cfg(0), true)))?;
    for (_, ops) in observed.2 {
        timings.extend(ops);
    }
    report.put_value("scheduler.train_step_ratio", scheduled / inline);
    let waits: Vec<f64> = timings.iter().map(OpTiming::queue_wait).collect();
    let execs: Vec<f64> = timings.iter().map(OpTiming::exec_time).collect();
    report.put("scheduler.queue_wait_us_p50", us(&waits));
    report.put("scheduler.exec_us_p50", us(&execs));
    Ok(())
}

/// Run every probe. `scale` in (0, 1] shrinks the iteration counts for
/// short runs; a full-length run uses 1.
pub fn probe_all(seed: u64, scale: f64, report: &mut Report) -> Result<(), String> {
    let n = move |full: usize| ((full as f64 * scale) as usize).max(3);
    let inp = inputs(seed);
    local_probes(&inp, &n, report);
    let (pingpong, stream) = transport_probes(mesh, &n)?;
    report.put("transport.pingpong_us", pingpong);
    report.put("transport.stream_gbps", stream);
    let (pingpong, stream) = transport_probes(slot_mesh, &n)?;
    report.put("transport.slot_pingpong_us", pingpong);
    report.put("transport.slot_stream_gbps", stream);
    collective_probes(&inp, &n, report)?;
    scheduler_probes(seed, &n, report)
}

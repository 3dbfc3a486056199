//! `bench_comm` — wall-clock microbenchmarks for the *real* threaded
//! collectives, persisted as a machine-readable perf trajectory.
//!
//! ```text
//! bench_comm                        # full sweep, label "current"
//! bench_comm --quick --label before # CI-sized sweep (2 sizes)
//! bench_comm --out BENCH_collectives.json
//! bench_comm --compare before after # speedup table from the stored file
//! ```
//!
//! Each invocation times every (op × world × payload) cell, then merges
//! the run into the output JSON under its `--label` (replacing a previous
//! run with the same label, keeping all others) — so the file accumulates
//! a before/after trajectory across commits. The written file is
//! re-parsed with `embrace-obs`'s JSON parser before the process exits;
//! an unparseable file is a hard error, which is what the CI
//! `bench-smoke` job relies on.
//!
//! Schema (`BENCH_collectives.json`, documented in DESIGN.md):
//!
//! ```text
//! { "schema": "bench-collectives-v1",
//!   "runs": [ { "label": "...", "mode": "quick|full",
//!               "entries": [ { "op", "world", "bytes", "density",
//!                              "iters", "ns_per_iter", "gb_per_s" } ] } ] }
//! ```
//!
//! Besides the payload-size sweep, each run records a *density* sweep:
//! `sparse_allreduce` (the sparse-native SSAR) against
//! `sparse_hybrid_alltoallv` (coalesce → AlltoAllv shard scatter →
//! local reduce → allgather) at fixed vocabulary and varying gradient
//! row density — the crossover where the hybrid overtakes the
//! sparse-native path is the number §4's representation switch is
//! calibrated against. `density` is 0 for size-sweep entries.
//!
//! `bytes` is the per-rank logical payload (the buffer being reduced /
//! gathered / exchanged); `gb_per_s` is that payload divided by wall time
//! per iteration — a *goodput* number comparable across ops, not a wire
//! bandwidth.

use embrace_bench::record::{compare, fmt_run, merge_into_file, Entry, Mode};
use embrace_collectives::group::run_group;
use embrace_collectives::ops::{
    allgather_dense, allgather_sparse, alltoallv_sparse, broadcast, ring_allreduce,
    sparse_allreduce, SsarConfig,
};
use embrace_collectives::transport::Packet;
use embrace_obs::json;
use embrace_tensor::{
    coalesce, merge_rowsparse, row_partition, DenseTensor, RowSparse, F32_BYTES, INDEX_BYTES,
};
use std::time::Instant;

const WORLDS: [usize; 3] = [2, 4, 8];
const QUICK_BYTES: [usize; 2] = [64 << 10, 4 << 20];
const FULL_BYTES: [usize; 5] = [1 << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20];
/// Column width used to shape sparse payloads (embedding-dim scale).
const SPARSE_DIM: usize = 64;

/// Time `f` (already holding its inputs) over `iters` iterations inside a
/// running group; returns the slowest rank's per-iteration nanoseconds.
/// Every rank runs the same closure, so the max over ranks is the
/// completion time of the collective, not one rank's early exit.
fn time_group<F>(world: usize, iters: u64, f: F) -> u64
where
    F: Fn(usize, &mut embrace_collectives::transport::Endpoint) + Sync,
{
    let per_rank_ns = run_group(world, |rank, ep| {
        f(rank, ep); // warm-up
        embrace_collectives::ops::barrier(ep);
        let t0 = Instant::now();
        for _ in 0..iters {
            f(rank, ep);
        }
        let elapsed = t0.elapsed().as_nanos() as u64;
        embrace_collectives::ops::barrier(ep);
        elapsed
    });
    per_rank_ns.into_iter().max().unwrap_or(0) / iters
}

/// Iteration count scaled so big payloads don't dominate wall time.
fn iters_for(bytes: usize, mode: Mode) -> u64 {
    let budget: usize = match mode {
        Mode::Quick => 32 << 20,
        Mode::Full => 128 << 20,
    };
    ((budget / bytes.max(1)) as u64).clamp(3, 200)
}

fn dense_payload(bytes: usize) -> DenseTensor {
    DenseTensor::full(1, bytes / F32_BYTES, 1.0)
}

/// A sparse block sized so each rank's total outgoing payload ≈ `bytes`.
fn sparse_parts(world: usize, bytes: usize) -> Vec<RowSparse> {
    let rows_total = (bytes / F32_BYTES / SPARSE_DIM).max(world);
    let rows_per_part = (rows_total / world).max(1);
    (0..world)
        .map(|_| {
            let indices: Vec<u32> = (0..rows_per_part as u32).collect();
            RowSparse::new(indices, DenseTensor::full(rows_per_part, SPARSE_DIM, 1.0))
        })
        .collect()
}

fn bench_cell(op: &'static str, world: usize, bytes: usize, mode: Mode) -> Entry {
    let iters = iters_for(bytes, mode);
    let elems = bytes / F32_BYTES;
    let ns = match op {
        "ring_allreduce" => time_group(world, iters, |_r, ep| {
            let mut buf = vec![1.0f32; elems];
            ring_allreduce(ep, &mut buf);
            std::hint::black_box(&buf);
        }),
        "allgather_dense" => {
            let local = dense_payload(bytes);
            time_group(world, iters, move |_r, ep| {
                let all = allgather_dense(ep, local.clone());
                std::hint::black_box(&all);
            })
        }
        "alltoallv_sparse" => {
            let parts = sparse_parts(world, bytes);
            time_group(world, iters, move |_r, ep| {
                let out = alltoallv_sparse(ep, parts.clone());
                std::hint::black_box(&out);
            })
        }
        "broadcast_dense" => {
            let local = dense_payload(bytes);
            time_group(world, iters, move |rank, ep| {
                let payload = (rank == 0).then(|| Packet::Dense(local.share()));
                let p = broadcast(ep, 0, payload);
                std::hint::black_box(&p);
            })
        }
        other => panic!("unknown op {other}"),
    };
    let gb_per_s = if ns == 0 { 0.0 } else { bytes as f64 / ns as f64 };
    Entry { op, world, bytes, density: 0.0, iters, ns_per_iter: ns, gb_per_s }
}

/// Vocabulary rows shaping the sparse-allreduce density sweep.
const SWEEP_VOCAB: usize = 1 << 15;
/// Crossover threshold used for the sparse-native cells: segments densify
/// once their accumulated row density reaches one half.
const SWEEP_CROSSOVER: f64 = 0.5;
const FULL_DENSITIES: [f64; 6] = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0];
const QUICK_DENSITIES: [f64; 2] = [1e-3, 0.1];

/// Per-rank gradient at `density`: distinct strided indices with a
/// rank-dependent offset, so rank index sets overlap partially (fully at
/// density 1) the way hot embedding rows do across batches.
fn density_grad(rank: usize, density: f64) -> RowSparse {
    let nnz = ((density * SWEEP_VOCAB as f64) as usize).clamp(1, SWEEP_VOCAB);
    let stride = (SWEEP_VOCAB / nnz).max(1);
    let offset = (rank * 13) % stride;
    let indices: Vec<u32> = (0..nnz).map(|i| (i * stride + offset) as u32).collect();
    RowSparse::new(indices, DenseTensor::full(nnz, SPARSE_DIM, 1.0))
}

/// The pre-SSAR baseline: coalesce the local gradient, scatter row shards
/// to their owners over AlltoAllv, reduce each shard locally, then
/// allgather the reduced shards — a sparse allreduce assembled from the
/// alltoallv + allgather primitives.
fn hybrid_sparse_allreduce(
    ep: &mut embrace_collectives::transport::Endpoint,
    grad: &RowSparse,
) -> Vec<RowSparse> {
    let world = ep.world();
    let mut rest = coalesce(grad);
    let mut parts = Vec::with_capacity(world);
    for range in row_partition(SWEEP_VOCAB, world) {
        let (head, tail) = rest.split_at_row(range.end as u32);
        parts.push(head);
        rest = tail;
    }
    let received = alltoallv_sparse(ep, parts);
    let reduced = merge_rowsparse(&received);
    allgather_sparse(ep, reduced)
}

/// Sweep gradient density at fixed vocabulary: the sparse-native SSAR
/// against the coalesce→alltoallv hybrid it replaces. `bytes` is the
/// per-rank logical payload (indices + values); the interesting output is
/// where the sparse-native goodput crosses the hybrid's as density rises.
fn run_density_sweep(mode: Mode) -> Vec<Entry> {
    let densities: &[f64] = match mode {
        Mode::Quick => &QUICK_DENSITIES,
        Mode::Full => &FULL_DENSITIES,
    };
    let mut entries = Vec::new();
    for &world in &WORLDS {
        for &density in densities {
            let grads: Vec<RowSparse> = (0..world).map(|r| density_grad(r, density)).collect();
            let bytes = grads[0].nnz_rows() * (INDEX_BYTES + SPARSE_DIM * F32_BYTES);
            let iters = iters_for(bytes, mode);
            for op in ["sparse_allreduce", "sparse_hybrid_alltoallv"] {
                let g = grads.clone();
                let ns = match op {
                    "sparse_allreduce" => time_group(world, iters, move |rank, ep| {
                        let cfg = SsarConfig { vocab: SWEEP_VOCAB, crossover: SWEEP_CROSSOVER };
                        let out = sparse_allreduce(ep, &g[rank], &cfg);
                        std::hint::black_box(&out);
                    }),
                    _ => time_group(world, iters, move |rank, ep| {
                        let out = hybrid_sparse_allreduce(ep, &g[rank]);
                        std::hint::black_box(&out);
                    }),
                };
                let gb_per_s = if ns == 0 { 0.0 } else { bytes as f64 / ns as f64 };
                let e = Entry { op, world, bytes, density, iters, ns_per_iter: ns, gb_per_s };
                println!(
                    "{:<26} world={world} δ={density:<8} {:>9} B  {:>12} ns/iter  {:>8.3} GB/s  ({} iters)",
                    e.op, e.bytes, e.ns_per_iter, e.gb_per_s, e.iters
                );
                entries.push(e);
            }
            let n = entries.len();
            let (ssar, hybrid) = (&entries[n - 2], &entries[n - 1]);
            if ssar.ns_per_iter > 0 && hybrid.ns_per_iter > 0 {
                println!(
                    "    sparse-native vs hybrid at δ={density}: {:.2}x",
                    hybrid.ns_per_iter as f64 / ssar.ns_per_iter as f64
                );
            }
        }
    }
    entries
}

fn run_sweep(mode: Mode) -> Vec<Entry> {
    let sizes: &[usize] = match mode {
        Mode::Quick => &QUICK_BYTES,
        Mode::Full => &FULL_BYTES,
    };
    let ops = ["ring_allreduce", "allgather_dense", "alltoallv_sparse", "broadcast_dense"];
    let mut entries = Vec::new();
    for &op in &ops {
        for &world in &WORLDS {
            for &bytes in sizes {
                let e = bench_cell(op, world, bytes, mode);
                println!(
                    "{:<26} world={world} {:>9} B  {:>12} ns/iter  {:>8.3} GB/s  ({} iters)",
                    e.op, e.bytes, e.ns_per_iter, e.gb_per_s, e.iters
                );
                entries.push(e);
            }
        }
    }
    entries
}

/// Print per-cell deltas of `label` against the stored "before" run.
fn report_delta(doc: &json::Value, label: &str) {
    let Some(runs) = doc.get("runs").and_then(|r| r.as_arr()) else { return };
    let find = |l: &str| runs.iter().find(|r| r.get("label").and_then(|v| v.as_str()) == Some(l));
    let (Some(before), Some(after)) = (find("before"), find(label)) else { return };
    if label == "before" {
        return;
    }
    let entries = |r: &json::Value| -> Vec<(String, usize, usize, f64, f64)> {
        r.get("entries")
            .and_then(|e| e.as_arr())
            .map(|es| {
                es.iter()
                    .filter_map(|e| {
                        Some((
                            e.get("op")?.as_str()?.to_string(),
                            e.get("world")?.as_f64()? as usize,
                            e.get("bytes")?.as_f64()? as usize,
                            e.get("density").and_then(json::Value::as_f64).unwrap_or(0.0),
                            e.get("gb_per_s")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base = entries(before);
    println!("\ndelta vs \"before\":");
    for (op, world, bytes, density, gbs) in entries(after) {
        if let Some((.., b)) = base
            .iter()
            .find(|(o, w, by, d, _)| *o == op && *w == world && *by == bytes && *d == density)
        {
            if *b > 0.0 {
                println!("{op:<26} world={world} {bytes:>9} B  {:>6.2}x", gbs / b);
            }
        }
    }
}

fn main() {
    let mut label = "current".to_string();
    let mut out = "BENCH_collectives.json".to_string();
    let mut mode = Mode::Full;
    let mut compare_labels: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => mode = Mode::Quick,
            "--label" => label = args.next().expect("--label requires a value"),
            "--out" => out = args.next().expect("--out requires a path"),
            "--compare" => {
                let a = args.next().expect("--compare requires two labels");
                let b = args.next().expect("--compare requires two labels");
                compare_labels = Some((a, b));
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_comm [--quick] [--label L] [--out F] \
                     [--compare A B]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some((a, b)) = compare_labels {
        // Read-only mode: join two stored runs and print the speedups.
        let result = std::fs::read_to_string(&out)
            .map_err(|e| format!("read {out}: {e}"))
            .and_then(|raw| json::parse(&raw).map_err(|e| format!("parse {out}: {e}")))
            .and_then(|doc| compare(&doc, &a, &b));
        if let Err(e) = result {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    println!("bench_comm: label={label} mode={}", mode.as_str());
    let mut entries = run_sweep(mode);
    entries.extend(run_density_sweep(mode));
    let new_run = fmt_run(&label, mode, &entries);
    let doc = merge_into_file(&out, &label, new_run).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    std::fs::write(&out, &doc).unwrap_or_else(|e| {
        eprintln!("write {out}: {e}");
        std::process::exit(1);
    });
    // Self-validation gate: the trajectory must stay machine-readable.
    let parsed = json::parse(&doc).unwrap_or_else(|e| {
        eprintln!("written {out} does not re-parse: {e}");
        std::process::exit(1);
    });
    let n_runs = parsed.get("runs").and_then(|r| r.as_arr()).map_or(0, <[json::Value]>::len);
    println!("\nwrote {out} ({n_runs} run(s)); re-parse OK");
    report_delta(&parsed, &label);
}

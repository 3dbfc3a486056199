//! Extension ablation: stragglers in synchronous training, and why
//! column-wise partitioning matters for them.
//!
//! Synchronous data parallelism waits for the slowest worker at every
//! collective. Two distinct straggler sources exist:
//!
//! 1. *hardware* stragglers (a slow GPU/node) — hit every method alike;
//! 2. *data-induced* stragglers — a worker with more work than its peers.
//!    Row-wise embedding partitioning creates these structurally (hot
//!    Zipf rows concentrate on one shard, §4.1.1); column-wise
//!    partitioning cannot.
//!
//! Part (a) quantifies 1 with the DES running one compute stream per
//! worker; part (b) quantifies 2 by pricing the per-round AlltoAllv
//! imbalance as per-worker service time skew.

use embrace_core::partition::{column_payload_matrix, receive_imbalance, row_payload_matrix};
use embrace_models::{BatchGen, ModelId, ModelSpec};
use embrace_simnet::{synchronous_step, GpuKind, Span};
use embrace_trainer::report::table;

fn main() {
    println!("(a) Hardware straggler: one of 4 workers slowed by factor f");
    println!("    (BP 100 ms, AllReduce 30 ms, FP 50 ms per step)\n");
    let mut rows = Vec::new();
    for f in [1.0, 1.1, 1.25, 1.5, 2.0] {
        let scales = [f, 1.0, 1.0, 1.0];
        let r = synchronous_step(&scales, 0.100, 0.030, 0.050);
        let baseline = synchronous_step(&[1.0; 4], 0.100, 0.030, 0.050).makespan;
        // A healthy worker's utilisation: worker 1's busy time, from its spans.
        let healthy_busy: f64 =
            r.trace.spans.iter().filter(|s| s.name.starts_with("w1/")).map(Span::dur).sum();
        rows.push(vec![
            format!("{f:.2}x"),
            format!("{:.1}", r.makespan * 1e3),
            format!("{:+.1}%", (r.makespan / baseline - 1.0) * 100.0),
            format!("{:.0}%", healthy_busy / r.makespan * 100.0),
        ]);
    }
    print!("{}", table(&["slowdown", "step ms", "step delta", "healthy-worker util"], &rows));

    println!("\n(b) Data-induced straggler: embedding-shard service-time skew");
    println!("    (max/mean gradient bytes a shard must serve, 16 workers)\n");
    let mut rows = Vec::new();
    for spec in ModelSpec::all() {
        let vocab: usize = spec.embeddings.iter().map(|e| e.vocab).sum();
        let batches: Vec<Vec<u32>> = (0..16)
            .map(|r| BatchGen::from_spec(&spec, GpuKind::Rtx3090, r, 7).next_batch())
            .collect();
        let row_m = row_payload_matrix(&batches, vocab, spec.dim());
        let counts: Vec<usize> = batches.iter().map(Vec::len).collect();
        let col_m = column_payload_matrix(&counts, spec.dim());
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.2}x", receive_imbalance(&row_m)),
            format!("{:.2}x", receive_imbalance(&col_m)),
        ]);
    }
    print!("{}", table(&["model", "row-wise skew", "column-wise skew"], &rows));
    println!("\nA hardware straggler penalises everyone equally; the data-induced kind");
    println!("is a design choice — row-wise shards serve 11-15x their fair share on");
    println!("Zipf batches while column-wise shards stay at 1.00x, which is exactly");
    println!("the §4.1.1 argument. (See ablation_partition for the resulting AlltoAll");
    println!("round times.)");
    let _ = ModelId::ALL;
}

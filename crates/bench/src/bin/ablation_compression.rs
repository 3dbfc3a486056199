//! Related-work ablation: gradient compression vs sparsity-aware
//! communication for the embedding plane.
//!
//! §6 cites gradient compression (DGC top-k, QSGD quantization) as
//! orthogonal work. This harness compares, for each model's embedding
//! gradient on 16 RTX3090 GPUs, the bytes and estimated transfer time of:
//!
//! * densified AllReduce (Horovod-AllReduce baseline),
//! * 8-bit quantized AllReduce (4× smaller, still dense-shaped, lossy),
//! * top-k AllGather keeping as many *elements* as the true non-zeros
//!   (DGC-style, lossy in general),
//! * EmbRace's AlltoAll of the exact non-zero rows (lossless).

use embrace_models::{grad_stats, ModelSpec};
use embrace_simnet::{Cluster, CostModel, GpuKind};
use embrace_tensor::F32_BYTES;
use embrace_trainer::report::table;

fn main() {
    let cluster = Cluster::rtx3090(16);
    let cm = CostModel::new(cluster);
    let mib = 1024.0 * 1024.0;
    println!("Compression vs sparsity-aware communication (embedding plane, 16 RTX3090)\n");
    let mut rows = Vec::new();
    for spec in ModelSpec::all() {
        let st = grad_stats(&spec, GpuKind::Rtx3090, 16, 3, 42);
        let dense_bytes = spec.embedding_mib() * mib;
        let quant_bytes = dense_bytes / 4.0;
        // DGC keeps the same number of elements the sparse gradient holds.
        // Each kept element is an f32 value plus its u32 index.
        let k = (st.rows_coalesced * spec.dim() as f64) as usize;
        let topk_bytes = (k * (F32_BYTES + 4)) as f64;
        let exact_bytes = st.coalesced_mib() * mib;

        let t_dense = cm.ring_allreduce(dense_bytes);
        let t_quant = cm.ring_allreduce(quant_bytes);
        let t_topk = cm.allgather(topk_bytes);
        let t_embrace = 2.0 * cm.alltoall(exact_bytes);
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.1} ({:.0} MiB)", t_dense * 1e3, dense_bytes / mib),
            format!("{:.1} ({:.0} MiB)", t_quant * 1e3, quant_bytes / mib),
            format!("{:.1} ({:.0} MiB)", t_topk * 1e3, topk_bytes / mib),
            format!("{:.1} ({:.0} MiB)", t_embrace * 1e3, exact_bytes / mib),
        ]);
    }
    print!(
        "{}",
        table(&["model", "dense AR ms", "8-bit AR ms", "top-k AG ms", "EmbRace A2A ms"], &rows)
    );
    println!("\nQuantization shaves a constant 4x off the dense transfer but still");
    println!("moves every zero; top-k matches the non-zero volume but pays AllGather's");
    println!("N-scaling and is lossy. Exploiting the *structural* row sparsity with");
    println!("AlltoAll is both smaller and lossless — compression remains orthogonal");
    println!("(it could further shrink EmbRace's dense plane).");
}

//! Embedding partition strategies and their communication footprints.
//!
//! §4.1.1: row-wise partitioning splits *words* across workers, so Zipfian
//! word frequencies make some shards hot and the AlltoAll rounds
//! imbalanced; column-wise partitioning splits the *vector dimensions*,
//! keeping the whole vocabulary everywhere, so every worker receives the
//! same request volume by construction. The payload matrices computed here
//! feed `embrace_simnet::CostModel::alltoallv` to quantify that difference
//! (the `ablation_partition` bench).

use embrace_tensor::{column_partition, owner_of_row, row_partition, F32_BYTES, INDEX_BYTES};

/// Per-pair gradient-AlltoAll payload bytes under **column-wise**
/// partitioning: worker `i` sends each worker `j` its batch rows restricted
/// to `j`'s column range — identical volume to every `j` (up to rounding).
pub fn column_payload_matrix(batch_rows: &[usize], dim: usize) -> Vec<Vec<f64>> {
    let world = batch_rows.len();
    let cols = column_partition(dim, world);
    (0..world)
        .map(|i| {
            (0..world)
                .map(|j| batch_rows[i] as f64 * (cols[j].width() * F32_BYTES + INDEX_BYTES) as f64)
                .collect()
        })
        .collect()
}

/// Per-pair gradient payload bytes under **row-wise** partitioning: worker
/// `i` sends each gradient row to the worker owning that vocabulary row,
/// so hot (low-id, frequent) rows concentrate on the first shards.
pub fn row_payload_matrix(batches: &[Vec<u32>], vocab: usize, dim: usize) -> Vec<Vec<f64>> {
    let world = batches.len();
    let shards = row_partition(vocab, world);
    let row_bytes = (dim * F32_BYTES + INDEX_BYTES) as f64;
    let mut bytes = vec![vec![0.0; world]; world];
    for (i, batch) in batches.iter().enumerate() {
        for &tok in batch {
            let owner = owner_of_row(&shards, tok);
            bytes[i][owner] += row_bytes;
        }
    }
    bytes
}

/// Receive-side imbalance of a payload matrix: max over receivers of
/// total inbound bytes, divided by the mean (1.0 = perfectly balanced).
pub fn receive_imbalance(bytes: &[Vec<f64>]) -> f64 {
    let world = bytes.len();
    let inbound: Vec<f64> = (0..world).map(|j| bytes.iter().map(|row| row[j]).sum()).collect();
    let mean = inbound.iter().sum::<f64>() / world as f64;
    if mean == 0.0 {
        return 1.0;
    }
    inbound.iter().fold(0.0_f64, |a, &b| a.max(b)) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_matrix_is_balanced() {
        let m = column_payload_matrix(&[100, 100, 100, 100], 1024);
        assert!((receive_imbalance(&m) - 1.0).abs() < 1e-9);
        // Everyone sends everyone ~the same amount.
        assert!((m[0][0] - m[3][2]).abs() < 1e-9);
    }

    #[test]
    fn column_matrix_scales_with_batch() {
        let m = column_payload_matrix(&[100, 200], 64);
        assert!(m[1][0] > m[0][0], "bigger batch sends more");
    }

    #[test]
    fn row_matrix_concentrates_hot_rows() {
        // All tokens are low ids → all gradients go to shard 0.
        let batches = vec![vec![0, 1, 2, 3], vec![1, 2, 0, 1]];
        let m = row_payload_matrix(&batches, 100, 8);
        assert!(m[0][1] == 0.0 && m[1][1] == 0.0);
        assert!(m[0][0] > 0.0 && m[1][0] > 0.0);
        assert!(receive_imbalance(&m) > 1.9, "one shard takes everything");
    }

    #[test]
    fn row_matrix_uniform_tokens_balance() {
        // Tokens spread evenly over the vocab → balanced.
        let batches: Vec<Vec<u32>> = (0..4).map(|_| (0..100u32).collect()).collect();
        let m = row_payload_matrix(&batches, 100, 8);
        assert!((receive_imbalance(&m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_row_partition_is_imbalanced_but_column_is_not() {
        // The §4.1.1 argument, end to end: Zipfian batches make row-wise
        // partitioning imbalanced while column-wise stays flat.
        use embrace_models::{BatchGen, ZipfSampler};
        let vocab = 10_000;
        let sampler = ZipfSampler::new(vocab, 1.1);
        let batches: Vec<Vec<u32>> = (0..4)
            .map(|r| BatchGen::new(sampler.clone(), 2000, 0.0, r as u64).next_batch())
            .collect();
        let row = row_payload_matrix(&batches, vocab, 64);
        let rows_counts: Vec<usize> = batches.iter().map(Vec::len).collect();
        let col = column_payload_matrix(&rows_counts, 64);
        assert!(receive_imbalance(&row) > 1.5, "got {}", receive_imbalance(&row));
        assert!(receive_imbalance(&col) < 1.05);
    }
}

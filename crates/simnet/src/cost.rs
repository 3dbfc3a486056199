//! Communication-cost functions.
//!
//! Two layers:
//!
//! * [`analytic`] — the *exact* closed forms of the paper's Table 2,
//!   parameterised by (α, M, N, n, S, B, β). Used by tests and by the
//!   `table2` bench binary to print the paper's comparison.
//! * [`CostModel`] — the practical model used by the training simulator.
//!   It refines Table 2 with the cluster's actual traffic pattern: a ring
//!   AllReduce crosses each node NIC once per direction, whereas AlltoAll
//!   and AllGather flows from all of a node's GPUs *share* that NIC; and
//!   per-message effective bandwidth (`bw_eff`) makes small messages
//!   underutilise links (§4.1.2's "practical training scenario" caveat).
//!   With one GPU per node and no bandwidth ramp, every form below reduces
//!   exactly to its Table 2 counterpart — see the tests.

use crate::topology::Cluster;

/// Closed-form costs of Table 2. `alpha` is gradient density (α), `m_bytes`
/// the dense tensor size (M), `world` the GPU count (N), `bw` the uniform
/// bandwidth (B, bytes/s) and `beta` the startup latency (β, s).
pub mod analytic {
    /// AlltoAll: `2(N-1)(αM/(NB) + β)` — both per-step calls (lookup
    /// redistribution + gradient exchange).
    pub fn alltoall(alpha: f64, m_bytes: f64, world: f64, bw: f64, beta: f64) -> f64 {
        2.0 * (world - 1.0) * (alpha * m_bytes / (world * bw) + beta)
    }

    /// Ring AllReduce on the dense tensor: `2(N-1)(M/(NB) + β)`.
    pub fn allreduce(m_bytes: f64, world: f64, bw: f64, beta: f64) -> f64 {
        2.0 * (world - 1.0) * (m_bytes / (world * bw) + beta)
    }

    /// Parameter server with `servers` shards: `2N(αM/(SB) + β)`.
    pub fn ps(alpha: f64, m_bytes: f64, world: f64, servers: f64, bw: f64, beta: f64) -> f64 {
        2.0 * world * (alpha * m_bytes / (servers * bw) + beta)
    }

    /// AllGather of the sparse tensor: `(N-1)(αM/B + β)`.
    pub fn allgather(alpha: f64, m_bytes: f64, world: f64, bw: f64, beta: f64) -> f64 {
        (world - 1.0) * (alpha * m_bytes / bw + beta)
    }
}

/// Which collective a communication task uses; carried in DES task metadata
/// and by the baselines when they emit communication operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Pairwise-exchange AlltoAll (sparse embedding plane of EmbRace).
    AlltoAll,
    /// Ring AllReduce (dense plane; Horovod's default).
    RingAllReduce,
    /// AllGather of sparse tensors (Horovod ≥0.22 sparse path).
    AllGather,
    /// Sharded parameter-server push+pull.
    ParamServer,
    /// OmniReduce-style block-sparse AllReduce.
    OmniReduce,
}

/// Practical cost model over a concrete cluster.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    pub cluster: Cluster,
    /// Block size (bytes) OmniReduce splits tensors into; the paper
    /// observes its "excessive divided messages" underutilise bandwidth.
    pub omnireduce_block: f64,
    /// Effective per-server processing bandwidth of CPU-side parameter
    /// servers. PS shards aggregate sparse rows in host memory, so they
    /// are RAM/memcpy bound rather than NIC bound — the paper's testbeds
    /// have slow RAM, which it blames for BytePS's losses (§5.3).
    pub ps_server_bw: f64,
}

impl CostModel {
    pub fn new(cluster: Cluster) -> Self {
        CostModel { cluster, omnireduce_block: 256.0 * 1024.0, ps_server_bw: cluster.net.host_bw }
    }

    fn beta(&self) -> f64 {
        self.cluster.latency()
    }

    /// Effective bandwidth of a link of nominal `bw` carrying messages of
    /// `msg` bytes.
    fn eff(&self, bw: f64, msg: f64) -> f64 {
        self.cluster.net.bw_eff(bw, msg)
    }

    /// Seconds the busier of the intra-node plane and the shared node NIC
    /// takes when every GPU sends `msg` bytes to every other GPU.
    fn all_pairs_wire(&self, msg: f64) -> f64 {
        let n = self.cluster.world() as f64;
        let w = self.cluster.gpus_per_node as f64;
        // Per-GPU bytes to local peers, over the intra link.
        let intra =
            if w > 1.0 { msg * (w - 1.0) / self.eff(self.cluster.net.intra_bw, msg) } else { 0.0 };
        // Per-NIC bytes to remote GPUs: w local senders × (N−w) remote peers
        // (ingress is symmetric).
        let inter = if self.cluster.nodes > 1 {
            msg * w * (n - w) / self.eff(self.cluster.net.inter_bw, msg)
        } else {
            0.0
        };
        intra.max(inter)
    }

    /// One AlltoAll over `total_bytes` of payload distributed uniformly:
    /// every rank sends `total/N` to each peer. Latency: `(N-1)` exchange
    /// rounds. Bandwidth: the busier of the intra-node plane and the
    /// shared node NIC. (The paper's Table 2 counts both per-step AlltoAll
    /// calls, hence its leading 2; callers here emit the two calls
    /// separately.)
    pub fn alltoall(&self, total_bytes: f64) -> f64 {
        let n = self.cluster.world() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        (n - 1.0) * self.beta() + self.all_pairs_wire(total_bytes / n)
    }

    /// AlltoAllv with explicit per-source-per-destination payloads
    /// (`bytes[i][j]` = bytes rank `i` sends to rank `j`). Executes the
    /// classic rotation schedule (round `r` pairs `i ↔ (i+r) mod N`); each
    /// round lasts as long as its slowest pair — this is what makes
    /// row-wise-partitioned (imbalanced) embeddings slow (§4.1.1).
    pub fn alltoallv(&self, bytes: &[Vec<f64>]) -> f64 {
        let n = self.cluster.world();
        assert_eq!(bytes.len(), n, "need one payload row per rank");
        let mut total = 0.0;
        for r in 1..n {
            let mut round = 0.0_f64;
            for (i, row) in bytes.iter().enumerate() {
                let j = (i + r) % n;
                let m = f64::max(row[j], bytes[j][i]);
                let bw = self.cluster.link_bw(i, j);
                let t = self.beta() + m / self.eff(bw, m);
                round = round.max(t);
            }
            total += round;
        }
        total
    }

    /// Ring AllReduce over a dense tensor of `dense_bytes`: reduce-scatter
    /// then all-gather, `2(N-1)` steps of `M/N` bytes. The ring is laid
    /// out to cross each node NIC exactly once per direction (NCCL-style),
    /// so the governing bandwidth is `min(intra, inter)` — the NIC is
    /// *not* divided among the node's GPUs.
    pub fn ring_allreduce(&self, dense_bytes: f64) -> f64 {
        let n = self.cluster.world() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let unit = dense_bytes / n;
        let bw = if self.cluster.nodes == 1 {
            self.cluster.net.intra_bw
        } else {
            f64::min(self.cluster.net.intra_bw, self.cluster.net.inter_bw)
        };
        2.0 * (n - 1.0) * (self.beta() + unit / self.eff(bw, unit))
    }

    /// AllGather of a sparse tensor of `sparse_bytes` per worker, Table 2's
    /// form: every worker sends its full tensor to every other worker in
    /// `(N-1)` rounds, so a node NIC carries `w × (N−w)` copies.
    pub fn allgather(&self, sparse_bytes: f64) -> f64 {
        let n = self.cluster.world() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        (n - 1.0) * self.beta() + self.all_pairs_wire(sparse_bytes)
    }

    /// Parameter-server push+pull of `sparse_bytes` with `servers` CPU-side
    /// shards: every worker moves `αM/S` to and from each shard, so each
    /// server processes `N·αM/S` per direction (Table 2's bandwidth term).
    /// Requests to the `S` servers are pipelined, so only two round-trip
    /// latencies sit on the critical path; the governing bandwidth is the
    /// lesser of the server link and its RAM-bound processing rate.
    pub fn ps(&self, sparse_bytes: f64, servers: usize) -> f64 {
        let n = self.cluster.world() as f64;
        let s = servers.max(1) as f64;
        let msg = sparse_bytes / s;
        let link = if self.cluster.nodes == 1 {
            self.cluster.net.intra_bw
        } else {
            self.cluster.net.inter_bw
        };
        let bw = link.min(self.ps_server_bw);
        2.0 * self.beta() + 2.0 * n * msg / self.eff(bw, msg)
    }

    /// BytePS-style hierarchical PS transfer: gradients are first reduced
    /// inside each node (NCCL ring over the `w` local GPUs), then one
    /// aggregated copy per node moves through the PS shards — this
    /// node-level aggregation is BytePS's core optimisation, without which
    /// dense PS traffic would scale with `N` instead of `n`.
    pub fn ps_hierarchical(&self, dense_bytes: f64, servers: usize) -> f64 {
        let s = servers.max(1) as f64;
        let w = self.cluster.gpus_per_node as f64;
        let nodes = self.cluster.nodes as f64;
        // Intra-node reduce + broadcast (ring over w GPUs, both phases).
        let intra = if w > 1.0 {
            2.0 * (w - 1.0) / w * dense_bytes / self.cluster.net.intra_bw
        } else {
            0.0
        };
        let msg = dense_bytes / s;
        // Dense chunks are contiguous buffers; server-side summation runs
        // at near-link speed (unlike the sparse row scatter of `ps`), so
        // the NIC governs.
        let bw = if self.cluster.nodes == 1 {
            self.cluster.net.intra_bw
        } else {
            self.cluster.net.inter_bw
        };
        2.0 * self.beta() + intra + 2.0 * nodes * msg / self.eff(bw, msg)
    }

    /// OmniReduce: ring AllReduce restricted to non-zero blocks. The payload
    /// shrinks to `density × dense_bytes` but travels in `omnireduce_block`-
    /// sized messages whose effective bandwidth is reduced, reproducing the
    /// paper's observation that it trails AlltoAll despite sparsity-awareness.
    pub fn omnireduce(&self, dense_bytes: f64, density: f64) -> f64 {
        let n = self.cluster.world() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let payload = dense_bytes * density.clamp(0.0, 1.0);
        let unit = payload / n;
        let bw = if self.cluster.nodes == 1 {
            self.cluster.net.intra_bw
        } else {
            f64::min(self.cluster.net.intra_bw, self.cluster.net.inter_bw)
        };
        let eff = self.eff(bw, self.omnireduce_block.min(unit.max(1.0)));
        // Each of the 2(N-1) ring steps moves `unit` bytes in `unit/block`
        // messages, each paying the startup latency.
        let msgs_per_step = (unit / self.omnireduce_block).max(1.0);
        2.0 * (n - 1.0) * (msgs_per_step * self.beta() + unit / eff)
    }

    /// Dispatch by collective kind; `bytes` is the sparse payload for
    /// AlltoAll/AllGather/PS/OmniReduce and the dense size for AllReduce.
    pub fn collective(
        &self,
        kind: CollectiveKind,
        bytes: f64,
        dense_bytes: f64,
        servers: usize,
    ) -> f64 {
        match kind {
            CollectiveKind::AlltoAll => self.alltoall(bytes),
            CollectiveKind::RingAllReduce => self.ring_allreduce(dense_bytes),
            CollectiveKind::AllGather => self.allgather(bytes),
            CollectiveKind::ParamServer => self.ps(bytes, servers),
            CollectiveKind::OmniReduce => {
                let density = if dense_bytes > 0.0 { (bytes / dense_bytes).min(1.0) } else { 0.0 };
                self.omnireduce(dense_bytes, density)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Cluster, GpuKind, NetworkParams};

    /// One GPU per node, uniform bandwidth, no ramp: the practical model
    /// must match the analytic Table 2 forms exactly.
    fn uniform_cluster(world: usize) -> Cluster {
        Cluster {
            nodes: world,
            gpus_per_node: 1,
            gpu: GpuKind::Rtx3090,
            net: NetworkParams {
                inter_bw: 1e9,
                intra_bw: 1e9,
                latency: 1e-5,
                half_ramp_bytes: 0.0,
                host_bw: 1e9,
            },
        }
    }

    #[test]
    fn alltoall_matches_table2() {
        let model = CostModel::new(uniform_cluster(8));
        let (alpha, m) = (0.1, 250e6);
        let two_calls = 2.0 * model.alltoall(alpha * m);
        let expect = analytic::alltoall(alpha, m, 8.0, 1e9, 1e-5);
        assert!((two_calls - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn allreduce_matches_table2() {
        let model = CostModel::new(uniform_cluster(8));
        let got = model.ring_allreduce(250e6);
        let expect = analytic::allreduce(250e6, 8.0, 1e9, 1e-5);
        assert!((got - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn allgather_matches_table2() {
        let model = CostModel::new(uniform_cluster(8));
        let got = model.allgather(0.1 * 250e6);
        let expect = analytic::allgather(0.1, 250e6, 8.0, 1e9, 1e-5);
        assert!((got - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn ps_matches_table2_bandwidth_term() {
        // The practical PS model pipelines server round-trips (2β instead
        // of Table 2's 2Nβ) but keeps the same bandwidth term 2NαM/(SB).
        let mut model = CostModel::new(uniform_cluster(8));
        model.ps_server_bw = 1e9; // match the uniform link
        let got = model.ps(0.1 * 250e6, 8);
        let expect_bw = analytic::ps(0.1, 250e6, 8.0, 8.0, 1e9, 0.0);
        assert!((got - (expect_bw + 2.0 * 1e-5)).abs() / expect_bw < 1e-9);
    }

    #[test]
    fn hierarchical_ps_beats_flat_ps_for_dense() {
        // BytePS's node-level aggregation: with 4 GPUs/node the flat PS
        // moves 4x the inter-node volume of the hierarchical one.
        let model = CostModel::new(Cluster::rtx3090(16));
        let bytes = 100e6;
        assert!(model.ps_hierarchical(bytes, 4) < model.ps(bytes, 4));
    }

    #[test]
    fn paper_ordering_sparse_tensors() {
        // For α << 1 on a multi-node cluster, the paper's ordering holds:
        // AlltoAll < PS < AllReduce, and AllGather is slowest at large N.
        let model = CostModel::new(Cluster::rtx3090(16));
        let m = 252.5e6; // GNMT-8 embedding
        let alpha = 0.1;
        let a2a = 2.0 * model.alltoall(alpha * m);
        let ar = model.ring_allreduce(m);
        let ag = model.allgather(alpha * m);
        let ps = model.ps(alpha * m, 4);
        assert!(a2a < ar, "alltoall {a2a} should beat dense allreduce {ar}");
        assert!(a2a < ps, "alltoall {a2a} should beat PS {ps}");
        assert!(a2a < ag, "alltoall {a2a} should beat allgather {ag}");
    }

    #[test]
    fn allgather_scales_linearly_with_world() {
        let m = 0.05 * 252.5e6;
        let t4 = CostModel::new(uniform_cluster(4)).allgather(m);
        let t16 = CostModel::new(uniform_cluster(16)).allgather(m);
        let ratio = t16 / t4;
        assert!(ratio > 4.5 && ratio < 5.5, "allgather should scale ~(N-1): {ratio}");
    }

    #[test]
    fn alltoall_scales_well_with_world() {
        let m = 0.05 * 252.5e6;
        let t4 = CostModel::new(uniform_cluster(4)).alltoall(m);
        let t16 = CostModel::new(uniform_cluster(16)).alltoall(m);
        // (N-1)/N bandwidth shape plus latency terms: going 4→16 should
        // stay well under 2×, unlike AllGather's ~5×.
        assert!(t16 / t4 < 2.0, "alltoall should scale nearly flat: {}", t16 / t4);
    }

    #[test]
    fn alltoallv_uniform_matches_rotation_bound() {
        let model = CostModel::new(uniform_cluster(4));
        let per = 1e6;
        let bytes = vec![vec![per; 4]; 4];
        let v = model.alltoallv(&bytes);
        let per_round = model.beta() + per / model.eff(1e9, per);
        assert!((v - 3.0 * per_round).abs() < 1e-12);
    }

    #[test]
    fn alltoallv_imbalance_costs_more() {
        let model = CostModel::new(uniform_cluster(4));
        let balanced = vec![vec![1e6; 4]; 4];
        let mut skewed = vec![vec![0.5e6; 4]; 4];
        for row in skewed.iter_mut() {
            row[0] = 2.5e6; // rank 0 holds the hot rows
        }
        let tb = model.alltoallv(&balanced);
        let ts = model.alltoallv(&skewed);
        assert!(ts > tb, "skewed {ts} should exceed balanced {tb}");
    }

    #[test]
    fn omnireduce_between_sparse_and_dense() {
        let model = CostModel::new(Cluster::fig4b());
        let m = 252.5e6;
        let dense = model.ring_allreduce(m);
        let omni_dense = model.omnireduce(m, 1.0);
        let omni_sparse = model.omnireduce(m, 0.05);
        assert!(omni_sparse < omni_dense, "sparsity must help OmniReduce");
        assert!(omni_dense >= dense * 0.9, "dense OmniReduce no faster than plain ring");
        let a2a = 2.0 * model.alltoall(0.05 * m);
        assert!(a2a < omni_sparse, "paper Fig4b: AlltoAll beats OmniReduce");
    }

    #[test]
    fn costs_monotone_in_payload() {
        let model = CostModel::new(Cluster::rtx3090(8));
        let mut last = 0.0;
        for mb in [1.0, 10.0, 100.0, 1000.0] {
            let t = model.alltoall(mb * 1e6);
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn multi_gpu_nodes_share_nic_for_alltoall_but_not_ring() {
        // Same world size, 4 GPUs/node vs 1 GPU/node (same link params):
        // AlltoAll gets slower when flows share the NIC; ring AllReduce
        // crosses each NIC once regardless, so it stays comparable.
        let net = NetworkParams::infiniband_pcie4();
        let packed = Cluster { nodes: 2, gpus_per_node: 4, gpu: GpuKind::Rtx3090, net };
        let spread = Cluster { nodes: 8, gpus_per_node: 1, gpu: GpuKind::Rtx3090, net };
        let mp = CostModel::new(packed);
        let ms = CostModel::new(spread);
        let payload = 100e6;
        assert!(mp.alltoall(payload) > ms.alltoall(payload) * 0.99);
        let rp = mp.ring_allreduce(payload);
        let rs = ms.ring_allreduce(payload);
        assert!((rp - rs).abs() / rs < 0.6, "ring times should be same order: {rp} vs {rs}");
    }

    #[test]
    fn single_worker_costs_nothing() {
        let model = CostModel::new(Cluster::rtx3090(1));
        assert_eq!(model.alltoall(1e6), 0.0);
        assert_eq!(model.ring_allreduce(1e6), 0.0);
        assert_eq!(model.allgather(1e6), 0.0);
    }
}

//! Cluster topology: nodes, GPUs per node, link bandwidths and latencies.
//!
//! The paper evaluates on two 16-GPU clusters (§5.2.1): 4 nodes × 4
//! RTX3090 (24 GB) and 4 nodes × 4 RTX2080 (8 GB), both on 100 Gbps
//! InfiniBand with two Xeon 4214R CPUs per node. We encode those shapes,
//! plus the "4 nodes × 1 GPU" variant of Fig. 4b.

/// GPU model of a homogeneous cluster. Determines compute-cost calibration
/// (in `embrace-models`) and intra-node link speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuKind {
    /// NVIDIA GeForce RTX 3090, 24 GB — PCIe 4.0 x16 host link.
    Rtx3090,
    /// NVIDIA GeForce RTX 2080, 8 GB — PCIe 3.0 x16 host link.
    Rtx2080,
}

impl GpuKind {
    pub fn name(&self) -> &'static str {
        match self {
            GpuKind::Rtx3090 => "RTX3090",
            GpuKind::Rtx2080 => "RTX2080",
        }
    }
}

/// Link parameters of the α–β model: `time(bytes) = β + bytes / bw_eff`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkParams {
    /// Inter-node NIC bandwidth in bytes/sec (shared by all GPUs of a node).
    pub inter_bw: f64,
    /// Intra-node (PCIe/host) bandwidth in bytes/sec between two local GPUs.
    pub intra_bw: f64,
    /// Per-message startup latency β in seconds.
    pub latency: f64,
    /// Message size (bytes) at which a flow reaches half the nominal link
    /// bandwidth; models protocol ramp-up so small messages underutilise
    /// links (the effect the paper blames for ByteScheduler's partitioning
    /// overhead and OmniReduce's many small blocks, §4.2.1 / §4.1.2).
    pub half_ramp_bytes: f64,
    /// Effective host-memory bandwidth for CPU-side parameter-server row
    /// scatter/gather. The paper's testbeds differ here: the RTX3090
    /// nodes have six DDR4 DIMMs, the RTX2080 nodes only three (§5.2.1),
    /// and the paper blames slow RAM for BytePS/Parallax losses (§5.3).
    pub host_bw: f64,
}

impl NetworkParams {
    /// 100 Gbps InfiniBand (≈ 11 GB/s effective) + PCIe 4.0-class intra-node
    /// links, the RTX3090 testbed.
    pub fn infiniband_pcie4() -> Self {
        NetworkParams {
            inter_bw: 11.0e9,
            intra_bw: 20.0e9,
            latency: 30e-6,
            half_ramp_bytes: 128.0 * 1024.0,
            host_bw: 3.5e9,
        }
    }

    /// 100 Gbps InfiniBand + PCIe 3.0 intra-node links, the RTX2080 testbed.
    /// The paper notes this cluster has slower RAM and lower intra-node
    /// bandwidth (§5.3), which we reflect in `intra_bw`.
    fn infiniband_pcie3() -> Self {
        NetworkParams {
            inter_bw: 11.0e9,
            intra_bw: 9.0e9,
            latency: 35e-6,
            half_ramp_bytes: 128.0 * 1024.0,
            host_bw: 1.8e9,
        }
    }

    /// Effective bandwidth of a `bw` link for a message of `bytes`:
    /// `bw * bytes / (bytes + half_ramp)`. Monotonically increasing in
    /// message size; half the nominal bandwidth at `half_ramp_bytes`.
    pub fn bw_eff(&self, bw: f64, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return bw; // zero-byte messages cost only β
        }
        bw * bytes / (bytes + self.half_ramp_bytes)
    }
}

/// A homogeneous cluster of `nodes × gpus_per_node` workers with ranks
/// assigned node-major (ranks 0..w on node 0, etc.), matching
/// MPI/Horovod's default placement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cluster {
    pub nodes: usize,
    pub gpus_per_node: usize,
    pub gpu: GpuKind,
    pub net: NetworkParams,
}

impl Cluster {
    /// The paper's RTX3090 testbed restricted to `world` GPUs, filling
    /// nodes of 4 first (4 GPUs → 1 node, 8 → 2 nodes, 16 → 4 nodes).
    pub fn rtx3090(world: usize) -> Self {
        Self::packed(world, 4, GpuKind::Rtx3090, NetworkParams::infiniband_pcie4())
    }

    /// The paper's RTX2080 testbed restricted to `world` GPUs.
    pub fn rtx2080(world: usize) -> Self {
        Self::packed(world, 4, GpuKind::Rtx2080, NetworkParams::infiniband_pcie3())
    }

    /// Fig. 4a topology: 2 nodes × 4 RTX3090.
    pub fn fig4a() -> Self {
        Cluster {
            nodes: 2,
            gpus_per_node: 4,
            gpu: GpuKind::Rtx3090,
            net: NetworkParams::infiniband_pcie4(),
        }
    }

    /// Fig. 4b topology: 4 nodes × 1 RTX3090.
    pub fn fig4b() -> Self {
        Cluster {
            nodes: 4,
            gpus_per_node: 1,
            gpu: GpuKind::Rtx3090,
            net: NetworkParams::infiniband_pcie4(),
        }
    }

    fn packed(world: usize, per_node: usize, gpu: GpuKind, net: NetworkParams) -> Self {
        assert!(world > 0, "cluster needs at least one GPU");
        if world <= per_node {
            Cluster { nodes: 1, gpus_per_node: world, gpu, net }
        } else {
            assert!(world.is_multiple_of(per_node), "world size must fill whole nodes");
            Cluster { nodes: world / per_node, gpus_per_node: per_node, gpu, net }
        }
    }

    /// Total number of GPU workers, the paper's `N`.
    pub fn world(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Node index hosting `rank`.
    fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.world(), "rank {rank} out of range");
        rank / self.gpus_per_node
    }

    /// Whether two ranks share a node (and therefore use the intra link).
    fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Nominal point-to-point bandwidth between two ranks. Inter-node flows
    /// share the node NIC among the node's GPUs.
    pub fn link_bw(&self, a: usize, b: usize) -> f64 {
        if self.same_node(a, b) {
            self.net.intra_bw
        } else {
            self.net.inter_bw / self.gpus_per_node as f64
        }
    }

    /// Startup latency β.
    pub fn latency(&self) -> f64 {
        self.net.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_cluster_shapes() {
        assert_eq!(Cluster::rtx3090(4).nodes, 1);
        assert_eq!(Cluster::rtx3090(4).gpus_per_node, 4);
        assert_eq!(Cluster::rtx3090(8).nodes, 2);
        assert_eq!(Cluster::rtx3090(16).nodes, 4);
        assert_eq!(Cluster::rtx3090(16).world(), 16);
        assert_eq!(Cluster::rtx2080(16).gpu, GpuKind::Rtx2080);
    }

    #[test]
    fn small_worlds_fit_one_node() {
        let c = Cluster::rtx3090(2);
        assert_eq!(c.nodes, 1);
        assert_eq!(c.gpus_per_node, 2);
    }

    #[test]
    #[should_panic(expected = "whole nodes")]
    fn ragged_world_panics() {
        Cluster::rtx3090(6);
    }

    #[test]
    fn rank_to_node_mapping() {
        let c = Cluster::rtx3090(16);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(3), 0);
        assert_eq!(c.node_of(4), 1);
        assert_eq!(c.node_of(15), 3);
        assert!(c.same_node(4, 7));
        assert!(!c.same_node(3, 4));
    }

    #[test]
    fn link_bandwidths() {
        let c = Cluster::rtx3090(16);
        assert_eq!(c.link_bw(0, 1), c.net.intra_bw);
        assert_eq!(c.link_bw(0, 4), c.net.inter_bw / 4.0);
        // Fig. 4b: one GPU per node gets the whole NIC.
        assert_eq!(Cluster::fig4b().link_bw(0, 1), Cluster::fig4b().net.inter_bw);
    }

    #[test]
    fn bw_eff_monotone_and_bounded() {
        let p = NetworkParams::infiniband_pcie4();
        let small = p.bw_eff(p.inter_bw, 1024.0);
        let big = p.bw_eff(p.inter_bw, 1e9);
        assert!(small < big);
        assert!(big <= p.inter_bw);
        // Half bandwidth exactly at the half-ramp size.
        let half = p.bw_eff(p.inter_bw, p.half_ramp_bytes);
        assert!((half - p.inter_bw / 2.0).abs() < 1.0);
        // Zero-byte message: nominal bandwidth (time is pure latency).
        assert_eq!(p.bw_eff(p.inter_bw, 0.0), p.inter_bw);
    }
}

//! Differential tests: the discrete-event simulator vs the closed-form
//! α–β cost model (`simnet::cost`).
//!
//! Each collective is expressed twice — once as its round-by-round DES
//! task chain (the structure the step simulator schedules) and once via
//! `CostModel` / the Table 2 closed forms — on a *uniform* cluster
//! (one GPU per node, equal intra/inter bandwidth, no bandwidth ramp)
//! where both must agree to float precision. Any divergence means one of
//! the two encodings of the paper's communication model drifted.

use embrace_repro::simnet::cost::analytic;
use embrace_repro::simnet::{
    Cluster, CommOrder, CostModel, GpuKind, NetworkParams, Res, Sim, SimResult, Task,
};

const WORLDS: [usize; 4] = [2, 4, 8, 16];
const BW: f64 = 1e9;
const BETA: f64 = 1e-5;
/// GNMT-8's embedding, the paper's running example.
const M: f64 = 252.5 * 1024.0 * 1024.0;
const ALPHA: f64 = 0.1;

/// One GPU per node, equal planes, no message-size bandwidth ramp: on
/// this topology `CostModel` reduces exactly to the Table 2 forms, so it
/// can arbitrate between the DES and the analytic model.
fn uniform_cluster(world: usize) -> Cluster {
    Cluster {
        nodes: world,
        gpus_per_node: 1,
        gpu: GpuKind::Rtx3090,
        net: NetworkParams {
            inter_bw: BW,
            intra_bw: BW,
            latency: BETA,
            half_ramp_bytes: 0.0,
            host_bw: BW,
        },
    }
}

/// Run `rounds` sequential communication rounds of `dur` seconds each —
/// the DES skeleton of every rotation/ring collective.
fn run_chain(rounds: usize, dur: f64) -> SimResult {
    let mut sim = Sim::new(CommOrder::Fifo);
    let mut prev = None;
    for r in 0..rounds {
        let mut task = Task::comm(format!("round{r}"), dur, 0);
        if let Some(p) = prev {
            task = task.after([p]);
        }
        prev = Some(sim.add(task));
    }
    sim.run()
}

fn assert_close(label: &str, a: f64, b: f64) {
    let rel = (a - b).abs() / b.abs().max(1e-30);
    assert!(rel < 1e-9, "{label}: {a} vs {b} (rel {rel:.3e})");
}

/// A sequential comm chain has no idle gaps: the network stream must be
/// 100% occupied and the queue-depth log must drain back to zero.
fn assert_saturated(label: &str, res: &SimResult) {
    assert_close(&format!("{label} comm occupancy"), res.occupancy(Res::Comm), 1.0);
    assert!(!res.comm_queue.is_empty(), "{label}: no queue samples");
    let last = res.comm_queue.last().expect("non-empty");
    assert_eq!(last.depth, 0, "{label}: queue should drain to empty");
}

#[test]
fn ring_allreduce_chain_matches_cost_model_and_table2() {
    for world in WORLDS {
        let n = world as f64;
        let cm = CostModel::new(uniform_cluster(world));
        // Reduce-scatter + all-gather: 2(N−1) rounds of M/N bytes.
        let res = run_chain(2 * (world - 1), BETA + (M / n) / BW);
        let label = format!("allreduce world={world}");
        assert_close(&label, res.makespan, cm.ring_allreduce(M));
        assert_close(&label, res.makespan, analytic::allreduce(M, n, BW, BETA));
        assert_saturated(&label, &res);
    }
}

#[test]
fn allgather_chain_matches_cost_model_and_table2() {
    for world in WORLDS {
        let n = world as f64;
        let cm = CostModel::new(uniform_cluster(world));
        // Rotation all-gather: (N−1) rounds, each moving the whole αM.
        let res = run_chain(world - 1, BETA + ALPHA * M / BW);
        let label = format!("allgather world={world}");
        assert_close(&label, res.makespan, cm.allgather(ALPHA * M));
        assert_close(&label, res.makespan, analytic::allgather(ALPHA, M, n, BW, BETA));
        assert_saturated(&label, &res);
    }
}

#[test]
fn alltoall_chain_matches_cost_model_and_table2() {
    for world in WORLDS {
        let n = world as f64;
        let cm = CostModel::new(uniform_cluster(world));
        let payload = ALPHA * M;
        // Pairwise rotation: (N−1) rounds of payload/N bytes.
        let res = run_chain(world - 1, BETA + (payload / n) / BW);
        let label = format!("alltoall world={world}");
        assert_close(&label, res.makespan, cm.alltoall(payload));
        // Table 2 counts both per-step AlltoAll calls (data + grads).
        assert_close(&label, 2.0 * res.makespan, analytic::alltoall(ALPHA, M, n, BW, BETA));
        assert_saturated(&label, &res);
    }
}

#[test]
fn uniform_alltoallv_degenerates_to_alltoall() {
    for world in WORLDS {
        let cm = CostModel::new(uniform_cluster(world));
        let payload = ALPHA * M;
        let per_pair = payload / world as f64;
        let bytes: Vec<Vec<f64>> = (0..world)
            .map(|i| (0..world).map(|j| if i == j { 0.0 } else { per_pair }).collect())
            .collect();
        assert_close(
            &format!("alltoallv world={world}"),
            cm.alltoallv(&bytes),
            cm.alltoall(payload),
        );
    }
}

#[test]
fn ps_chain_matches_cost_model() {
    // PS push+pull pipelines its shard requests, so only two round-trip
    // latencies are on the critical path (unlike Table 2's 2Nβ): the DES
    // encoding is one push round and one pull round, each moving the
    // whole N·(αM/S) through the bottleneck server.
    for world in WORLDS {
        let n = world as f64;
        let servers = (world / 4).max(1);
        let cm = CostModel::new(uniform_cluster(world));
        let msg = ALPHA * M / servers as f64;
        let res = run_chain(2, BETA + n * msg / BW);
        let label = format!("ps world={world} servers={servers}");
        assert_close(&label, res.makespan, cm.ps(ALPHA * M, servers));
        assert_saturated(&label, &res);
    }
}

//! Fidelity bridges: the analyzer's static artefacts (plans, model
//! states) must agree with the *real* threaded implementation.
//!
//! * generated [`P2pPlan`]s match the per-peer send counters of real
//!   endpoints after running each collective on a live mesh;
//! * real (generic) collectives driven over a [`RecordingEndpoint`]
//!   reproduce the planned op sequence exactly;
//! * model-checker terminal results equal the real collectives' outputs
//!   bitwise, on the same inputs;
//! * the scheduled trainer's live submission logs verify SPMD-clean.

use embrace_analyzer::model_check::{
    self, alltoallv_part, broadcast_payload, check_collective, gather_local, ring_init, Collective,
    RankOutcome,
};
use embrace_analyzer::plan::{
    allgather_plan, alltoall_plan, barrier_plan, broadcast_plan, ring_allreduce_plan,
    ring_phase_plan,
};
use embrace_analyzer::{verify_p2p, verify_schedule, P2pOp, RecordingEndpoint, SchedulePlan};
use embrace_collectives::ops::{sparse_allreduce, SsarConfig};
use embrace_collectives::schedule::{Ring, RingPart};
use embrace_collectives::{
    run_group, Comm, CommError, CommOp, CommResult, CommScheduler, Endpoint, Packet,
};
use embrace_tensor::{coalesce, DenseTensor, RowSparse, F32_BYTES, TOKEN_BYTES};
use embrace_trainer::train_convergence_scheduled_observed;

/// After running `f` on a live mesh, every rank's per-peer (msgs, bytes)
/// send counters must equal the plan's link traffic.
fn assert_counters_match_plan<F>(world: usize, plan: &embrace_analyzer::P2pPlan, f: F)
where
    F: Fn(usize, &mut Endpoint) + Sync,
{
    assert!(verify_p2p(plan, None).clean(), "plan for {} must be clean", plan.kind);
    let counters = run_group(world, |rank, ep| {
        f(rank, ep);
        (0..world).map(|peer| (ep.msgs_sent_to(peer), ep.bytes_sent_to(peer))).collect::<Vec<_>>()
    });
    for (from, sent) in counters.iter().enumerate() {
        for (to, &real) in sent.iter().enumerate() {
            if from == to {
                continue;
            }
            let (msgs, bytes) = plan.link_traffic(from, to);
            assert_eq!(
                real,
                (msgs, bytes),
                "{} link {from}->{to}: real (msgs, bytes) vs plan",
                plan.kind
            );
        }
    }
}

#[test]
fn whole_op_plans_match_real_traffic() {
    // Every data-independent family, whole-op: the plan is the shared
    // schedule sized in bytes, the traffic is the live op executing that
    // schedule — the counters pin the byte sizing and the posted traversal.
    for world in [2, 3, 4, 5, 8] {
        assert_counters_match_plan(world, &barrier_plan(world), |_rank, ep| {
            embrace_collectives::ops::barrier(ep);
        });

        let (root, payload) = (world - 1, vec![1u32, 2, 3]);
        let plan = broadcast_plan(world, root, (payload.len() * TOKEN_BYTES) as u64);
        assert_counters_match_plan(world, &plan, move |rank, ep| {
            let p = (rank == root).then(|| Packet::Tokens(payload.clone().into()));
            embrace_collectives::ops::broadcast(ep, root, p);
        });

        // Fewer elements than ranks (empty chunks) and uneven chunks.
        for elems in [world - 1, 2 * world + 3] {
            let plan = ring_allreduce_plan(world, elems);
            assert_counters_match_plan(world, &plan, move |rank, ep| {
                let mut buf: Vec<f32> = (0..elems).map(|i| (rank + i) as f32).collect();
                embrace_collectives::ops::ring_allreduce(ep, &mut buf);
            });
            // Its two phases, as the sharded dense update runs them.
            for part in [RingPart::ReduceScatter, RingPart::AllGather] {
                let plan = ring_phase_plan(world, elems, usize::MAX, part);
                assert_counters_match_plan(world, &plan, move |rank, ep| {
                    let mut buf: Vec<f32> = (0..elems).map(|i| (rank + i) as f32).collect();
                    embrace_collectives::ops::try_ring_part(ep, &mut buf, part)
                        .expect("fault-free");
                });
            }
        }

        let locals: Vec<Vec<u32>> = (0..world).map(gather_local).collect();
        let local_bytes: Vec<u64> = locals.iter().map(|l| (l.len() * TOKEN_BYTES) as u64).collect();
        assert_counters_match_plan(world, &allgather_plan(world, &local_bytes), move |rank, ep| {
            embrace_collectives::ops::allgather_tokens(ep, locals[rank].clone());
        });

        // parts[r][c]: a (r+c+1)-element dense row from rank r to rank c.
        let bytes: Vec<Vec<u64>> = (0..world)
            .map(|r| (0..world).map(|c| ((r + c + 1) * F32_BYTES) as u64).collect())
            .collect();
        let plan = alltoall_plan("alltoall_dense", &bytes);
        assert_counters_match_plan(world, &plan, move |rank, ep| {
            let parts: Vec<DenseTensor> = (0..world)
                .map(|c| DenseTensor::from_vec(1, rank + c + 1, vec![rank as f32; rank + c + 1]))
                .collect();
            embrace_collectives::ops::alltoall_dense(ep, parts);
        });
    }
}

#[test]
fn scheduled_phase_pair_matches_its_plans() {
    // The dense plane the trainer runs: a chunked scheduler's
    // reduce-scatter of a shared gradient, then its all-gather sending the
    // reduce-scatter's segments. Each phase's per-link traffic must equal
    // its plan at the scheduler's segment size — uneven chunks, several
    // segments per chunk — and the pair must leave the sum everywhere.
    for world in 2..=4 {
        for (elems, seg) in [(2 * world + 3, 2), (7 * world + 2, 3)] {
            let plans = [RingPart::ReduceScatter, RingPart::AllGather]
                .map(|part| ring_phase_plan(world, elems, seg, part));
            for plan in &plans {
                assert!(verify_p2p(plan, None).clean(), "plan for {} must be clean", plan.kind);
            }
            let out = run_group(world, |rank, ep| {
                let counters = |ep: &Endpoint| {
                    (0..world).map(|p| (ep.msgs_sent_to(p), ep.bytes_sent_to(p))).collect()
                };
                let grad: Vec<f32> = (0..elems).map(|i| (rank + i) as f32).collect();
                let rs = CommOp::ReduceScatterDense(DenseTensor::from_vec(1, elems, grad));
                let mut comm = CommScheduler::spawn_chunked(&mut *ep, seg * F32_BYTES);
                let CommResult::ReduceScatterDense(mut segments) = comm.submit(0, "rs", rs).wait()
                else {
                    panic!("reduce-scatter failed")
                };
                drop(comm);
                let after_rs: Vec<(u64, u64)> = counters(ep);
                // An identity update takes the last add, into the block's
                // owned range and where the segments write.
                let mut block = DenseTensor::zeros(1, elems);
                let mut at = Ring::whole(world, rank, elems).owned().start;
                for segment in &mut segments {
                    let piece = segment.unsummed();
                    let sums = &mut block.as_mut_slice()[at..at + piece.len()];
                    at += piece.len();
                    piece.update(sums, |x, g| {
                        *x = g;
                        g
                    });
                }
                let ag = CommOp::AllGatherDense(block, segments);
                let mut comm = CommScheduler::spawn_chunked(&mut *ep, seg * F32_BYTES);
                let CommResult::AllGatherDense(block) = comm.submit(0, "ag", ag).wait() else {
                    panic!("all-gather failed")
                };
                drop(comm);
                let after_ag: Vec<(u64, u64)> = counters(ep);
                (after_rs, after_ag, block.into_vec())
            });
            let sum = |i: usize| (world * i + world * (world - 1) / 2) as f32;
            for (from, (after_rs, after_ag, block)) in out.iter().enumerate() {
                assert_eq!(block, &(0..elems).map(sum).collect::<Vec<_>>(), "rank {from}");
                for to in (0..world).filter(|&to| to != from) {
                    let (rs, all) = (after_rs[to], after_ag[to]);
                    let ag = (all.0 - rs.0, all.1 - rs.1);
                    let at = format!("world {world} elems {elems} seg {seg} link {from}->{to}");
                    assert_eq!(rs, plans[0].link_traffic(from, to), "{at}: reduce-scatter");
                    assert_eq!(ag, plans[1].link_traffic(from, to), "{at}: all-gather");
                }
            }
        }
    }
}

#[test]
fn sparse_allreduce_traffic_is_the_allgather_plan() {
    // The op is one posted fan-out of each rank's coalesced gradient: the
    // allgather plan over those block sizes is its traffic, link by link,
    // whichever representation the result takes.
    let (vocab, dim) = (24usize, 3usize);
    // Partially overlapping rows per rank, the first one twice, so the
    // coalesced block is smaller than the raw gradient.
    let grad = move |rank: usize| {
        let first = (rank % 3) as u32;
        let rows: Vec<u32> = (first..vocab as u32).step_by(rank % 4 + 2).chain([first]).collect();
        let n = rows.len();
        RowSparse::new(rows, DenseTensor::full(n, dim, 0.25))
    };
    for world in 2..=4 {
        let blocks: Vec<u64> = (0..world).map(|r| coalesce(&grad(r)).nbytes() as u64).collect();
        let plan = allgather_plan(world, &blocks);
        for crossover in [2.0, 0.0] {
            assert_counters_match_plan(world, &plan, move |rank, ep| {
                let out = sparse_allreduce(ep, &grad(rank), &SsarConfig { vocab, crossover });
                assert_eq!(out.is_dense(), crossover == 0.0, "rank {rank}");
            });
        }
    }
}

/// A live endpoint that keeps a copy of every packet it sends, with its
/// destination.
struct Tap<'a> {
    ep: &'a mut Endpoint,
    sent: Vec<(usize, Packet)>,
}

impl Comm for Tap<'_> {
    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn world(&self) -> usize {
        self.ep.world()
    }

    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        self.sent.push((to, packet.clone()));
        self.ep.try_send(to, packet)
    }

    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError> {
        self.ep.try_recv(from)
    }
}

#[test]
fn recorded_allgather_trace_equals_plan() {
    // Drive the *real* generic allgather over a RecordingEndpoint whose
    // receives replay what the peers sent on a live mesh, headers
    // included: the recorded op sequence must be exactly the planned one,
    // op for op, byte for byte.
    let world = 4;
    let locals: Vec<Vec<u32>> = (0..world).map(gather_local).collect();
    let local_bytes: Vec<u64> = locals.iter().map(|l| (l.len() * TOKEN_BYTES) as u64).collect();
    let plan = allgather_plan(world, &local_bytes);
    let sent = run_group(world, |rank, ep| {
        let mut tap = Tap { ep, sent: Vec::new() };
        embrace_collectives::ops::allgather_tokens(&mut tap, locals[rank].clone());
        tap.sent
    });
    for rank in 0..world {
        let mut rec = RecordingEndpoint::new(rank, world);
        for (src, sent) in sent.iter().enumerate() {
            for (_, packet) in sent.iter().filter(|(to, _)| *to == rank) {
                rec.script(src, packet.clone());
            }
        }
        let out = embrace_collectives::ops::allgather_tokens(&mut rec, locals[rank].clone());
        assert_eq!(out, locals, "rank {rank} gathered payloads");
        assert_eq!(rec.trace(), &plan.ranks[rank][..], "rank {rank} trace vs plan");
    }
}

#[test]
fn recorded_barrier_trace_equals_plan() {
    let world = 3;
    let plan = barrier_plan(world);
    for rank in 0..world {
        let mut rec = RecordingEndpoint::new(rank, world);
        // Dissemination rounds at distances 1 and 2: with world = 3 each
        // rank receives exactly one signal from every other rank.
        let mut dist = 1;
        while dist < world {
            rec.script((rank + world - dist) % world, Packet::Empty);
            dist *= 2;
        }
        embrace_collectives::ops::barrier(&mut rec);
        assert_eq!(rec.trace(), &plan.ranks[rank][..], "rank {rank} trace vs plan");
    }
}

/// Extract the unique all-ok outcome of a fault-free check.
fn unique_ok(report: &model_check::CheckReport) -> &[RankOutcome] {
    assert!(report.deterministic_success(), "{}", report.summary());
    report.unique_outcome().expect("deterministic")
}

#[test]
fn model_allgather_matches_real_results_bitwise() {
    for world in 2..=4 {
        let report = check_collective(world, Collective::AllgatherTokens);
        let model = unique_ok(&report);
        let real = run_group(world, |rank, ep| {
            embrace_collectives::ops::allgather_tokens(ep, gather_local(rank))
        });
        for rank in 0..world {
            let RankOutcome::Ok { out, .. } = &model[rank] else { panic!("model rank failed") };
            assert_eq!(out, &real[rank], "world {world} rank {rank}");
        }
    }
}

#[test]
fn model_ring_allreduce_matches_real_results_bitwise() {
    for world in 2..=4 {
        let elems = 2 * world + 1;
        let report = check_collective(world, Collective::ring(elems));
        let model = unique_ok(&report);
        let real = run_group(world, |rank, ep| {
            let mut buf: Vec<f32> =
                ring_init(rank, elems).iter().map(|&b| f32::from_bits(b)).collect();
            embrace_collectives::ops::ring_allreduce(ep, &mut buf);
            buf.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        });
        for rank in 0..world {
            let RankOutcome::Ok { buf, .. } = &model[rank] else { panic!("model rank failed") };
            assert_eq!(buf, &real[rank], "world {world} rank {rank} (bitwise)");
        }
    }
}

#[test]
fn model_broadcast_matches_real_results() {
    for world in 2..=4 {
        let report = check_collective(world, Collective::Broadcast { root: 0 });
        let model = unique_ok(&report);
        let real = run_group(world, |rank, ep| {
            let p = (rank == 0).then(|| Packet::Tokens(broadcast_payload(world).into()));
            embrace_collectives::ops::broadcast(ep, 0, p)
        });
        for rank in 0..world {
            let RankOutcome::Ok { out, .. } = &model[rank] else { panic!("model rank failed") };
            let want = Packet::Tokens(out[0].clone().into());
            assert_eq!(want, real[rank], "world {world} rank {rank}");
        }
    }
}

#[test]
fn model_alltoallv_matches_real_results() {
    // The alltoallv model mirrors the rotated-send structure shared by
    // `alltoall_dense` and `alltoallv_sparse`; replay its token parts as
    // 1-row dense tensors (small integers are exact in f32).
    for world in 2..=4 {
        let report = check_collective(world, Collective::Alltoallv);
        let model = unique_ok(&report);
        let real = run_group(world, |rank, ep| {
            let parts: Vec<DenseTensor> = (0..world)
                .map(|dst| {
                    let vals: Vec<f32> =
                        alltoallv_part(rank, dst).iter().map(|&t| t as f32).collect();
                    DenseTensor::from_vec(1, vals.len(), vals)
                })
                .collect();
            embrace_collectives::ops::alltoall_dense(ep, parts)
        });
        for rank in 0..world {
            let RankOutcome::Ok { out, .. } = &model[rank] else { panic!("model rank failed") };
            for src in 0..world {
                let got: Vec<u32> = real[rank][src].as_slice().iter().map(|&v| v as u32).collect();
                assert_eq!(out[src], got, "world {world} rank {rank} from {src}");
            }
        }
    }
}

#[test]
fn traced_trainer_schedule_verifies_spmd_clean() {
    // The live scheduled pipeline's submission logs, fed to the static
    // verifier: SPMD multiset + priority consistency must hold.
    let cfg = embrace_trainer::real::ConvergenceConfig { world: 3, steps: 4, ..Default::default() };
    let (result, logs, _) = train_convergence_scheduled_observed(&cfg, false);
    assert_eq!(result.losses.len(), 4);
    assert_eq!(logs.len(), 3);
    for (rank, log) in logs.iter().enumerate() {
        assert!(!log.is_empty(), "rank {rank} submitted nothing");
        // The dense plane is the ring's two phases around the sharded
        // update, one of each per step, and never the whole allreduce.
        let count = |kind: &str| log.iter().filter(|op| op.kind == kind).count();
        assert_eq!(count("reduce_scatter_dense"), cfg.steps, "rank {rank}");
        assert_eq!(count("allgather_dense"), cfg.steps, "rank {rank}");
        assert_eq!(count("allreduce_dense"), 0, "rank {rank}");
    }
    let plan = SchedulePlan::from_logs(&logs);
    let diags = verify_schedule(&plan);
    assert!(diags.is_empty(), "live trainer schedule has diagnostics: {diags:?}");
}

#[test]
fn recording_endpoint_is_a_comm() {
    // Sanity: the recorder reports the same topology the ops see.
    let rec = RecordingEndpoint::new(2, 5);
    assert_eq!(rec.rank(), 2);
    assert_eq!(rec.world(), 5);
    let _: &dyn std::any::Any = &rec;
    let _ = P2pOp::Send { to: 0, bytes: 1 };
}

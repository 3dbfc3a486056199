//! Property tests for the comm-plan verifier (ISSUE satellite): every
//! valid randomly-sized plan passes clean — over unbounded links and over
//! capacity-1 (rendezvous-send) links — and each single seeded mutation —
//! drop a send, retarget a send, skew a priority, shrink a byte count,
//! drop a partition row — is rejected with the right diagnostic kind and,
//! where it starves a receive, the right stuck verdict.

use embrace_analyzer::plan::{
    allgather_plan, alltoall_plan, barrier_plan, broadcast_plan, ring_allreduce_plan,
};
use embrace_analyzer::verify::{mutate_p2p, mutate_partition, mutate_schedule};
use embrace_analyzer::SchedulePlan;
use embrace_analyzer::{
    verify_p2p, verify_partition, verify_schedule, DiagnosticKind, PlanMutation,
};
use embrace_baselines::MethodId;
use embrace_models::ModelId;
use embrace_simnet::Cluster;
use embrace_tensor::row_partition;
use embrace_trainer::sim::{step_plan, SimConfig};
use proptest::prelude::*;

fn kinds(diags: &[embrace_analyzer::Diagnostic]) -> Vec<DiagnosticKind> {
    diags.iter().map(|d| d.kind).collect()
}

/// A random valid point-to-point plan of any of the five shapes.
fn p2p_case(shape: usize, world: usize, elems: usize, sizes: &[u64]) -> embrace_analyzer::P2pPlan {
    match shape % 5 {
        0 => barrier_plan(world),
        1 => broadcast_plan(world, elems % world, sizes[0]),
        2 => ring_allreduce_plan(world, elems),
        3 => allgather_plan(world, &sizes[..world]),
        _ => {
            let bytes: Vec<Vec<u64>> = (0..world)
                .map(|r| (0..world).map(|c| sizes[(r * world + c) % sizes.len()]).collect())
                .collect();
            alltoall_plan("alltoall_dense", &bytes)
        }
    }
}

fn schedule_case(model: usize, world: usize) -> embrace_analyzer::SchedulePlan {
    let id = ModelId::ALL[model % ModelId::ALL.len()];
    let cfg = SimConfig::new(MethodId::EmbRace, id, Cluster::rtx3090(world));
    SchedulePlan::from_plan(&step_plan(&cfg), world)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_random_p2p_plans_are_clean(
        shape in 0usize..5,
        world in 2usize..=16,
        elems in 1usize..48,
        sizes in prop::collection::vec(0u64..8192, 16),
    ) {
        let plan = p2p_case(shape, world, elems, &sizes);
        for capacity in [None, Some(1)] {
            let report = verify_p2p(&plan, capacity);
            prop_assert!(report.clean(), "shape {shape} world {world} {capacity:?}: {report:?}");
            prop_assert!(!report.deadlocks(), "shape {shape} world {world} {capacity:?}");
        }
    }

    #[test]
    fn send_removal_and_retargeting_starve_a_receiver(
        shape in 2usize..5, // shapes with sends on every rank
        retarget in 0usize..2,
        world in 3usize..=8, // retargeting needs a third rank
        elems in 1usize..48,
        rank in 0usize..8,
        index in 0usize..8,
        sizes in prop::collection::vec(1u64..8192, 16),
    ) {
        let mut plan = p2p_case(shape, world, elems, &sizes);
        let m = if retarget == 1 {
            PlanMutation::RetargetSend { rank, index }
        } else {
            PlanMutation::DropSend { rank, index }
        };
        if mutate_p2p(&mut plan, m) {
            // Either way the intended link is one send short: its last
            // receive never completes, so the plan is stuck; a misrouted
            // send is additionally an orphan where it lands.
            let report = verify_p2p(&plan, None);
            let ks = kinds(&report.diagnostics);
            prop_assert!(ks.contains(&DiagnosticKind::RecvWithoutSend), "{m:?}: {ks:?}");
            prop_assert_eq!(retarget == 1, ks.contains(&DiagnosticKind::OrphanSend), "{:?}", m);
            prop_assert!(report.deadlocks(), "{m:?} still completes");
        }
    }

    #[test]
    fn dropped_send_is_always_rejected(
        shape in 2usize..5, // shapes with sends on every rank
        world in 2usize..=4,
        elems in 1usize..48,
        rank in 0usize..4,
        index in 0usize..8,
        sizes in prop::collection::vec(1u64..8192, 16),
    ) {
        let mut plan = p2p_case(shape, world, elems, &sizes);
        if mutate_p2p(&mut plan, PlanMutation::DropSend { rank, index }) {
            let ks = kinds(&verify_p2p(&plan, None).diagnostics);
            prop_assert!(
                ks.contains(&DiagnosticKind::RecvWithoutSend),
                "dropped send must surface a static deadlock, got {ks:?}"
            );
        }
    }

    #[test]
    fn shrunk_bytes_are_always_rejected(
        shape in 2usize..5,
        world in 2usize..=4,
        elems in 1usize..48,
        rank in 0usize..4,
        index in 0usize..8,
        sizes in prop::collection::vec(1u64..8192, 16),
    ) {
        let mut plan = p2p_case(shape, world, elems, &sizes);
        if mutate_p2p(&mut plan, PlanMutation::ShrinkBytes { rank, index }) {
            let ks = kinds(&verify_p2p(&plan, None).diagnostics);
            prop_assert!(
                ks.contains(&DiagnosticKind::ByteMismatch),
                "shrunk send must break byte conservation, got {ks:?}"
            );
        }
    }

    #[test]
    fn valid_schedules_are_clean_and_skew_is_always_rejected(
        model in 0usize..4,
        world in 2usize..=4,
        rank in 0usize..4,
        index in 0usize..64,
        raw_delta in 1i64..2000,
    ) {
        // Fold into a nonzero signed delta: ±(1..=1000).
        let delta = if raw_delta % 2 == 0 { raw_delta / 2 } else { -(raw_delta / 2 + 1) };
        let mut plan = schedule_case(model, world);
        prop_assert!(verify_schedule(&plan).is_empty(), "valid schedule must be clean");
        if mutate_schedule(&mut plan, PlanMutation::SkewPriority { rank, index, delta }) {
            let ks = kinds(&verify_schedule(&plan));
            prop_assert!(
                ks.contains(&DiagnosticKind::PrioritySkew),
                "skewed priority must be caught, got {ks:?}"
            );
        }
    }

    #[test]
    fn partition_coverage_and_dropped_row(
        domain in 1usize..500,
        world in 1usize..=6,
        rank in 0usize..6,
    ) {
        let shards: Vec<(usize, usize)> =
            row_partition(domain, world).iter().map(|r| (r.start, r.end)).collect();
        prop_assert!(verify_partition(&shards, domain).is_empty(), "row_partition must cover");
        let mut mutated = shards.clone();
        if mutate_partition(&mut mutated, PlanMutation::DropPartitionRow { rank }) {
            let ks = kinds(&verify_partition(&mutated, domain));
            prop_assert!(
                ks.contains(&DiagnosticKind::PartitionGap),
                "dropped shard must leave a gap, got {ks:?}"
            );
        }
    }
}

//! The `verify-plan` subcommand of `embrace_sim`: run the static
//! comm-plan verifier over all four paper model specs, demonstrate the
//! seeded-mutation detectors, model-check the five collectives plus the
//! elastic re-form handshake for worlds 2–4, and hold the plan checker to the model checker's
//! verdicts and to its by-construction expectations on seeded mutations.
//!
//! `--large [--out FILE]` switches to the scale sweep: every plan family
//! at worlds 64–1024 through the plan checker, proving pairing, byte
//! conservation and deadlock-freedom — over both unbounded links
//! (`None`) and capacity-1 links, on which a send blocks until the
//! previous message was taken (`Some(1)`) — and printing a per-plan
//! timing table (written to `FILE` for CI artifacts).
//!
//! Exits non-zero (returns `Err`) if any valid plan produces a
//! diagnostic, any seeded mutation goes undetected, the two verifiers
//! disagree, or the model checker finds a deadlock or a
//! non-deterministic interleaving.

use embrace_analyzer::model_check::{check, CheckConfig, Collective};
use embrace_analyzer::plan::{
    allgather_plan, alltoall_plan, barrier_plan, broadcast_plan, chunked_alltoall_plan,
    chunked_ring_allreduce_plan, grad_alltoall_bytes, lookup_alltoall_bytes, reform_plan,
    ring_allreduce_plan, ring_phase_plan, P2pPlan, SchedulePlan,
};
use embrace_analyzer::verify::{mutate_p2p, mutate_partition, mutate_schedule};
use embrace_analyzer::{
    verify_horizontal, verify_p2p, verify_partition, verify_schedule, Diagnostic, DiagnosticKind,
    PlanMutation,
};
use embrace_baselines::MethodId;
use embrace_collectives::schedule::RingPart;
use embrace_core::horizontal::StepPlan;
use embrace_models::{ModelId, ModelSpec};
use embrace_simnet::{Cluster, GpuKind};
use embrace_tensor::{column_partition, row_partition, TOKEN_BYTES};
use embrace_trainer::sim::{step_plan, SimConfig};
use std::time::Instant;

/// Worlds the plan verifier sweeps.
const WORLDS: [usize; 3] = [4, 8, 16];
/// Worlds the model checker explores exhaustively.
const CHECK_WORLDS: [usize; 3] = [2, 3, 4];
/// Worlds of the scale sweep (`--large`).
const LARGE_WORLDS: [usize; 5] = [64, 128, 256, 512, 1024];
/// Link modes every plan family must be clean under: unbounded, and the
/// strictest bound (a send blocks until the previous message was taken).
const LINK_MODES: [Option<usize>; 2] = [None, Some(1)];

/// Pairing and deadlock-freedom of a point-to-point plan, unbounded links.
fn expect_clean_p2p(what: &str, plan: &P2pPlan) -> Result<(), String> {
    expect_clean(what, &verify_p2p(plan, None).diagnostics)
}

fn expect_clean(what: &str, diags: &[Diagnostic]) -> Result<(), String> {
    if diags.is_empty() {
        Ok(())
    } else {
        let lines: Vec<String> = diags.iter().map(|d| format!("  {d}")).collect();
        Err(format!("{what}: {} diagnostic(s)\n{}", diags.len(), lines.join("\n")))
    }
}

/// The EmbRace step plan of `model` on `world` RTX3090s.
fn embrace_step(model: ModelId, world: usize) -> StepPlan {
    step_plan(&SimConfig::new(MethodId::EmbRace, model, Cluster::rtx3090(world)))
}

/// Statically verify every plan the stack would execute for `spec`.
fn verify_model(spec: &ModelSpec, world: usize) -> Result<usize, String> {
    let mut checked = 0usize;
    // 2D-schedule invariants of the step the DES prices: SPMD consistency
    // and §4.2.1 monotonicity.
    let step = embrace_step(spec.id, world);
    let schedule = SchedulePlan::from_plan(&step, world);
    expect_clean(&format!("{} w={world} schedule", spec.name), &verify_schedule(&schedule))?;
    let graph = spec.graph(GpuKind::Rtx3090);
    expect_clean(&format!("{} horizontal order", spec.name), &verify_horizontal(&step, &graph))?;
    checked += 2;

    // Exact-once sharding of every embedding table, both axes.
    for emb in &spec.embeddings {
        let cols: Vec<(usize, usize)> =
            column_partition(emb.dim, world).iter().map(|c| (c.start, c.end)).collect();
        expect_clean(
            &format!("{} {} column partition", spec.name, emb.name),
            &verify_partition(&cols, emb.dim),
        )?;
        let rows: Vec<(usize, usize)> =
            row_partition(emb.vocab, world).iter().map(|r| (r.start, r.end)).collect();
        expect_clean(
            &format!("{} {} row partition", spec.name, emb.name),
            &verify_partition(&rows, emb.vocab),
        )?;
        checked += 2;
    }

    // Point-to-point plans for the collectives the pipeline issues.
    let rows = spec.rows_per_batch(GpuKind::Rtx3090);
    let batch_rows = vec![rows; world];
    for emb in &spec.embeddings {
        let lookup =
            alltoall_plan("alltoallv_sparse", &lookup_alltoall_bytes(&batch_rows, emb.dim));
        expect_clean_p2p(&format!("{} {} lookup alltoall", spec.name, emb.name), &lookup)?;
        let grads = alltoall_plan("alltoallv_sparse", &grad_alltoall_bytes(&batch_rows, emb.dim));
        expect_clean_p2p(&format!("{} {} grad alltoall", spec.name, emb.name), &grads)?;
        checked += 2;
    }
    let dense = ring_allreduce_plan(world, spec.block_params);
    expect_clean_p2p(&format!("{} dense ring", spec.name), &dense)?;
    // Chunked variants of the bulk plans (PR 5 preemptible execution):
    // same byte totals, deadlock-free per-unit programs.
    let seg = spec.block_params.div_ceil(world * 4).max(1);
    let chunked = chunked_ring_allreduce_plan(world, spec.block_params, seg);
    expect_clean_p2p(&format!("{} dense ring (chunked)", spec.name), &chunked)?;
    // The dense plane as the step runs it around the sharded update: the
    // gradient's reduce-scatter, then the weights' all-gather.
    for part in [RingPart::ReduceScatter, RingPart::AllGather] {
        let phase = ring_phase_plan(world, spec.block_params, seg, part);
        expect_clean_p2p(&format!("{} dense {}", spec.name, phase.kind), &phase)?;
        checked += 1;
    }
    if let Some(emb) = spec.embeddings.first() {
        let grads = chunked_alltoall_plan(
            "alltoallv_sparse_chunked",
            &grad_alltoall_bytes(&batch_rows, emb.dim),
        );
        expect_clean_p2p(&format!("{} grad alltoall (chunked)", spec.name), &grads)?;
        checked += 1;
    }
    checked += 1;
    let tokens = allgather_plan(world, &vec![(rows * TOKEN_BYTES) as u64; world]);
    expect_clean_p2p(&format!("{} token gather", spec.name), &tokens)?;
    expect_clean_p2p(&format!("w={world} barrier"), &barrier_plan(world))?;
    expect_clean_p2p(&format!("w={world} tag broadcast"), &broadcast_plan(world, 0, 64))?;
    checked += 4;
    Ok(checked)
}

/// Seed the five canonical mutations and require each to be caught with
/// its distinct diagnostic kind.
fn demo_mutations() -> Result<(), String> {
    let world = 4;
    let mut caught: Vec<(&str, DiagnosticKind)> = Vec::new();
    let mut catch = |name: &'static str, kind: DiagnosticKind, found: Vec<Diagnostic>| {
        if !found.iter().any(|d| d.kind == kind) {
            return Err(format!("{name} not caught as {kind}: {found:?}"));
        }
        caught.push((name, kind));
        Ok(())
    };

    let mut p = allgather_plan(world, &[8, 16, 24, 32]);
    assert!(mutate_p2p(&mut p, PlanMutation::DropSend { rank: 1, index: 2 }));
    catch("drop-send", DiagnosticKind::RecvWithoutSend, verify_p2p(&p, None).diagnostics)?;

    let mut p = ring_allreduce_plan(world, 21);
    assert!(mutate_p2p(&mut p, PlanMutation::ShrinkBytes { rank: 2, index: 1 }));
    catch("shrink-bytes", DiagnosticKind::ByteMismatch, verify_p2p(&p, None).diagnostics)?;

    let mut s = SchedulePlan::from_plan(&embrace_step(ModelId::Transformer, world), world);
    assert!(mutate_schedule(&mut s, PlanMutation::SkewPriority { rank: 3, index: 1, delta: 7 }));
    catch("skew-priority", DiagnosticKind::PrioritySkew, verify_schedule(&s))?;

    let mut shards: Vec<(usize, usize)> =
        row_partition(1000, world).iter().map(|r| (r.start, r.end)).collect();
    assert!(mutate_partition(&mut shards, PlanMutation::DropPartitionRow { rank: 2 }));
    catch("drop-partition-row", DiagnosticKind::PartitionGap, verify_partition(&shards, 1000))?;

    let mut p = ring_allreduce_plan(world, 21);
    assert!(mutate_p2p(&mut p, PlanMutation::HoistRecv));
    catch("hoist-recv", DiagnosticKind::WaitCycle, verify_p2p(&p, None).diagnostics)?;

    println!("  seeded mutations caught:");
    for (name, kind) in &caught {
        println!("    {name:<20} -> {kind}");
    }
    let distinct: std::collections::BTreeSet<String> =
        caught.iter().map(|(_, k)| k.to_string()).collect();
    if distinct.len() != caught.len() {
        return Err(format!("mutations must map to distinct diagnostics, got {distinct:?}"));
    }
    Ok(())
}

/// Exhaustively model-check the five collectives plus their three
/// unit-stepped variants and the preempted ring for worlds 2–4, plus
/// abort termination with a crashed rank 0.
fn model_check_all() -> Result<(), String> {
    for world in CHECK_WORLDS {
        for c in Collective::all(world).into_iter().chain(Collective::chunked(world)) {
            let r = check(&CheckConfig { world, collective: c, crash: None });
            println!("  {}", r.summary());
            if !r.deterministic_success() {
                return Err(format!("model check failed: {}", r.summary()));
            }
            let f = check(&CheckConfig { world, collective: c, crash: Some(0) });
            if !f.deadlock_free() {
                return Err(format!("abort does not terminate: {}", f.summary()));
            }
        }
    }
    Ok(())
}

/// Model-check the elastic shrink re-form handshake for worlds 2–4:
/// fault-free (must commit full membership deterministically), every
/// dead-from-the-start rank (must commit exactly the survivors), and
/// every mid-handshake crash victim — including the coordinator, whose
/// death exercises failover — must stay deadlock-free with all survivors
/// agreeing on one membership.
fn model_check_reform() -> Result<(), String> {
    for world in CHECK_WORLDS {
        let r = check(&CheckConfig { world, collective: Collective::Reform, crash: None });
        println!("  {}", r.summary());
        if !r.deterministic_success() {
            return Err(format!("re-form model check failed: {}", r.summary()));
        }
        for crash in 0..world {
            let f =
                check(&CheckConfig { world, collective: Collective::Reform, crash: Some(crash) });
            if !f.deadlock_free() || f.outcomes.len() != 1 {
                return Err(format!("re-form with dead rank not safe: {}", f.summary()));
            }
        }
        for c in Collective::reform(world) {
            let m = check(&CheckConfig { world, collective: c, crash: None });
            if !m.deadlock_free() {
                return Err(format!("re-form handshake can deadlock: {}", m.summary()));
            }
            if matches!(c, Collective::ReformMidway { .. }) {
                println!("  {}", m.summary());
            }
        }
    }
    Ok(())
}

/// Every point-to-point plan family the stack executes, as generators at
/// sizes scaled to `world` (payloads stay modest so the sweep measures
/// analysis, not plan size). Generated one at a time: a world-1024 plan
/// is ~100 MB.
const PLAN_FAMILIES: [fn(usize) -> P2pPlan; 9] = [
    barrier_plan,
    |w| broadcast_plan(w, 0, 64),
    |w| ring_allreduce_plan(w, 4 * w + 1),
    |w| chunked_ring_allreduce_plan(w, 2 * w + 1, 2),
    |w| allgather_plan(w, &vec![16; w]),
    |w| alltoall_plan("alltoall_lookup", &lookup_alltoall_bytes(&sweep_rows(w), 4 * w)),
    |w| alltoall_plan("alltoallv_grad", &grad_alltoall_bytes(&sweep_rows(w), 4 * w)),
    |w| chunked_alltoall_plan("alltoall_chunked", &lookup_alltoall_bytes(&sweep_rows(w), 4 * w)),
    reform_plan,
];

fn sweep_rows(world: usize) -> Vec<usize> {
    vec![4 + world / 64; world]
}

fn plan_families(world: usize) -> impl Iterator<Item = P2pPlan> {
    PLAN_FAMILIES.iter().map(move |family| family(world))
}

/// Hold the plan checker to what must be true by construction at worlds
/// 2–4: its deadlock verdict equals the exhaustive model checker's on
/// every collective both can express; every plan family is clean in both
/// link modes; a dropped or misrouted send starves its receiver, so the
/// plan must be stuck with that diagnostic; and hoisting every first
/// receive above the first send pairs cleanly but must be a wait cycle.
fn checker_expectations() -> Result<(), String> {
    for world in CHECK_WORLDS {
        let modeled: Vec<(Collective, P2pPlan)> = vec![
            (Collective::Barrier, barrier_plan(world)),
            (Collective::Broadcast { root: 0 }, broadcast_plan(world, 0, 12)),
            (Collective::ring(2 * world + 1), ring_allreduce_plan(world, 2 * world + 1)),
            (
                Collective::RingAllreduce { elems: 2 * world + 1, seg: 2 },
                chunked_ring_allreduce_plan(world, 2 * world + 1, 2),
            ),
            (Collective::Reform, reform_plan(world)),
        ];
        let modeled_count = modeled.len();
        for (collective, plan) in modeled {
            let report = check(&CheckConfig { world, collective, crash: None });
            if report.deadlock_free() == verify_p2p(&plan, None).deadlocks() {
                return Err(format!(
                    "w={world} {}: plan checker disagrees with model checker ({})",
                    plan.kind,
                    report.summary()
                ));
            }
        }
        let mut mutations = 0usize;
        for plan0 in plan_families(world) {
            for capacity in LINK_MODES {
                expect_clean(
                    &format!("w={world} {} over {capacity:?} links", plan0.kind),
                    &verify_p2p(&plan0, capacity).diagnostics,
                )?;
            }
            let starving = (0..world).flat_map(|rank| {
                [
                    PlanMutation::DropSend { rank, index: 0 },
                    PlanMutation::RetargetSend { rank, index: 0 },
                ]
            });
            for m in starving.chain([PlanMutation::HoistRecv]) {
                let mut plan = plan0.clone();
                if !mutate_p2p(&mut plan, m) {
                    continue;
                }
                let report = verify_p2p(&plan, None);
                let expected = match m {
                    PlanMutation::HoistRecv => DiagnosticKind::WaitCycle,
                    _ => DiagnosticKind::RecvWithoutSend,
                };
                if !report.deadlocks() || !report.diagnostics.iter().any(|d| d.kind == expected) {
                    return Err(format!(
                        "w={world} {} {m:?}: expected a stuck plan and {expected}, got {report:?}",
                        plan.kind
                    ));
                }
                mutations += 1;
            }
        }
        println!(
            "  w={world}: plan checker == model checker on {modeled_count} modeled plans, \
             {mutations} seeded mutations stuck with the expected diagnostic, every family clean \
             under None and Some(1) links"
        );
    }
    Ok(())
}

/// The `--large` sweep: every plan family at `worlds` through the plan
/// checker in both link modes, with a timing table.
fn large_sweep(worlds: &[usize], out: Option<&str>) -> Result<(), String> {
    let mut table = format!(
        "{:<24} {:>6} {:>10} {:>12} {:>10} {:>14}\n",
        "plan", "world", "ops", "bytes", "exec_ms", "cap1_exec_ms"
    );
    let t0 = Instant::now();
    for &world in worlds {
        for plan in plan_families(world) {
            let ops: usize = plan.ranks.iter().map(Vec::len).sum();
            let mut timed = Vec::new();
            for capacity in LINK_MODES {
                let t = Instant::now();
                let report = verify_p2p(&plan, capacity);
                timed.push((t.elapsed().as_secs_f64() * 1e3, report.bytes));
                expect_clean(
                    &format!("{} w={world} over {capacity:?} links", plan.kind),
                    &report.diagnostics[..report.diagnostics.len().min(5)],
                )?;
            }
            table.push_str(&format!(
                "{:<24} {:>6} {:>10} {:>12} {:>10.1} {:>14.1}\n",
                plan.kind, world, ops, timed[0].1, timed[0].0, timed[1].0
            ));
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    print!("{table}");
    println!(
        "verify-plan --large: {} plan families x worlds {worlds:?} paired, byte-conserving and \
         deadlock-free (None and Some(1) links) in {total_s:.1} s",
        PLAN_FAMILIES.len()
    );
    if let Some(path) = out {
        table.push_str(&format!("total_s {total_s:.3}\n"));
        std::fs::write(path, table).map_err(|e| format!("writing {path}: {e}"))?;
        println!("timing table written to {path}");
    }
    Ok(())
}

/// Run the whole `verify-plan` pass; `Err` means a check failed.
/// Flags: `--large` (scale sweep at worlds 64–1024), `--out FILE` (write
/// the `--large` timing table).
pub fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut large = false;
    let mut out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--large" => large = true,
            "--out" => {
                out = Some(args.next().ok_or("--out needs a file path")?);
            }
            other => return Err(format!("unknown verify-plan flag: {other}")),
        }
    }
    if large {
        return large_sweep(&LARGE_WORLDS, out.as_deref());
    }
    println!("comm-plan verifier: {} models x worlds {WORLDS:?}", ModelId::ALL.len());
    let mut total = 0usize;
    for id in ModelId::ALL {
        let spec = ModelSpec::get(id);
        for world in WORLDS {
            total += verify_model(&spec, world)?;
        }
        println!("  {:<12} plans clean", spec.name);
    }
    println!("  {total} plans verified, 0 diagnostics");
    demo_mutations()?;
    println!(
        "model checker: worlds {CHECK_WORLDS:?}, 5 collectives + 4 chunked, fault-free + crash(0)"
    );
    model_check_all()?;
    println!("model checker: elastic re-form handshake, fault-free + dead rank + midway crash");
    model_check_reform()?;
    println!("plan checker: agreement with the model checker, seeded mutations, both link modes");
    checker_expectations()?;
    println!("verify-plan: all checks passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_plan_pass_succeeds() {
        run(std::iter::empty()).expect("verify-plan must pass on the clean tree");
    }

    #[test]
    fn large_sweep_succeeds_at_two_worlds() {
        large_sweep(&[64, 256], None).expect("scale sweep must pass on the clean tree");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(run(["--bogus".to_string()].into_iter()).is_err());
    }
}

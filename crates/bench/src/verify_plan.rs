//! The `verify-plan` subcommand of `embrace_sim`: run the static
//! comm-plan verifier over all four paper model specs, demonstrate the
//! seeded-mutation detectors, model-check the six collectives (including
//! the sparse-native split allreduce) plus the elastic re-form handshake
//! for worlds 2–4, and prove the graph analyzer agrees with both
//! enumeration oracles.
//!
//! `--large [--quick] [--out FILE]` switches to the wait-for-graph sweep:
//! every plan family at worlds 64–1024 (64/256 with `--quick`), proving
//! deadlock-freedom and byte conservation structurally — in both the
//! unbounded (channel) mode and the credit mode that models the
//! one-sided slot transport's `SLOT_CAPACITY`-deep pools — and printing
//! a per-plan timing table (written to `FILE` for CI artifacts).
//!
//! Exits non-zero (returns `Err`) if any valid plan produces a
//! diagnostic, any seeded mutation goes undetected, any verdict pair
//! disagrees, or the model checker finds a deadlock or a
//! non-deterministic interleaving.

use embrace_analyzer::graph::{
    analyze_p2p, analyze_p2p_credits, byte_conservation, enumerate_p2p, enumerate_p2p_credits,
    graph_deadlocks,
};
use embrace_analyzer::model_check::{check, CheckConfig, Collective};
use embrace_analyzer::plan::{
    allgather_plan, alltoall_plan, barrier_plan, broadcast_plan, chunked_alltoall_plan,
    chunked_ring_allreduce_plan, grad_alltoall_bytes, horizontal_schedule_plan,
    lookup_alltoall_bytes, lookup_demo_plan, lookup_plan, reform_plan, ring_allreduce_plan,
    sparse_allreduce_demo_plan, sparse_allreduce_plan, P2pPlan,
};
use embrace_analyzer::verify::{mutate_p2p, mutate_partition, mutate_schedule};
use embrace_analyzer::{
    verify_horizontal, verify_p2p, verify_partition, verify_schedule, Diagnostic, DiagnosticKind,
    PlanMutation,
};
use embrace_collectives::SLOT_CAPACITY;
use embrace_core::horizontal::Priorities;
use embrace_models::{ModelId, ModelSpec};
use embrace_simnet::GpuKind;
use embrace_tensor::{column_partition, row_partition, TOKEN_BYTES};
use std::time::Instant;

/// Worlds the plan verifier sweeps.
const WORLDS: [usize; 3] = [4, 8, 16];
/// Worlds the model checker explores exhaustively.
const CHECK_WORLDS: [usize; 3] = [2, 3, 4];
/// Worlds of the wait-for-graph sweep (`--large`).
const LARGE_WORLDS: [usize; 5] = [64, 128, 256, 512, 1024];
/// The `--quick` subset used by CI.
const QUICK_WORLDS: [usize; 2] = [64, 256];

fn expect_clean(what: &str, diags: &[Diagnostic]) -> Result<(), String> {
    if diags.is_empty() {
        Ok(())
    } else {
        let lines: Vec<String> = diags.iter().map(|d| format!("  {d}")).collect();
        Err(format!("{what}: {} diagnostic(s)\n{}", diags.len(), lines.join("\n")))
    }
}

/// Statically verify every plan the stack would execute for `spec`.
fn verify_model(spec: &ModelSpec, world: usize) -> Result<usize, String> {
    let mut checked = 0usize;
    let graph = spec.graph(GpuKind::Rtx3090);
    let prios = Priorities::assign(&graph);

    // 2D-schedule invariants: SPMD consistency and §4.2.1 monotonicity.
    let schedule = horizontal_schedule_plan(&prios, world);
    expect_clean(&format!("{} w={world} schedule", spec.name), &verify_schedule(&schedule))?;
    expect_clean(
        &format!("{} horizontal order", spec.name),
        &verify_horizontal(&prios.schedule_ops()),
    )?;
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
        expect_clean(&format!("{} {} lookup alltoall", spec.name, emb.name), &verify_p2p(&lookup))?;
        let grads = alltoall_plan("alltoallv_sparse", &grad_alltoall_bytes(&batch_rows, emb.dim));
        expect_clean(&format!("{} {} grad alltoall", spec.name, emb.name), &verify_p2p(&grads))?;
        // Sparse-native split allreduce over the same gradient shape:
        // deterministic per-rank index draws at the batch's row count.
        let locals: Vec<Vec<u32>> = (0..world)
            .map(|r| (0..rows).map(|i| ((r * 7919 + i * 31) % emb.vocab) as u32).collect())
            .collect();
        let ssar = sparse_allreduce_plan(world, &locals, emb.dim, emb.vocab, 0.5);
        expect_clean(&format!("{} {} sparse allreduce", spec.name, emb.name), &verify_p2p(&ssar))?;
        // Serving-path lookup RPC over the same table: deterministic
        // skewed request counts (rank/owner-dependent, never uniform).
        let reqs: Vec<Vec<usize>> = (0..world)
            .map(|i| (0..world).map(|j| (i * 13 + j * 7 + rows) % (rows + 1)).collect())
            .collect();
        let serve = lookup_plan(&reqs, emb.dim);
        expect_clean(&format!("{} {} serving lookup", spec.name, emb.name), &verify_p2p(&serve))?;
        checked += 4;
    }
    let dense = ring_allreduce_plan(world, spec.block_params);
    expect_clean(&format!("{} dense ring", spec.name), &verify_p2p(&dense))?;
    // Chunked variants of the bulk plans (PR 5 preemptible execution):
    // same byte totals, deadlock-free per-unit programs.
    let seg = spec.block_params.div_ceil(world * 4).max(1);
    let chunked = chunked_ring_allreduce_plan(world, spec.block_params, seg);
    expect_clean(&format!("{} dense ring (chunked)", spec.name), &verify_p2p(&chunked))?;
    if let Some(emb) = spec.embeddings.first() {
        let grads = chunked_alltoall_plan(
            "alltoallv_sparse_chunked",
            &grad_alltoall_bytes(&batch_rows, emb.dim),
        );
        expect_clean(&format!("{} grad alltoall (chunked)", spec.name), &verify_p2p(&grads))?;
        checked += 1;
    }
    checked += 1;
    let tokens = allgather_plan(world, &vec![(rows * TOKEN_BYTES) as u64; world]);
    expect_clean(&format!("{} token gather", spec.name), &verify_p2p(&tokens))?;
    expect_clean(&format!("w={world} barrier"), &verify_p2p(&barrier_plan(world)))?;
    expect_clean(&format!("w={world} tag broadcast"), &verify_p2p(&broadcast_plan(world, 0, 64)))?;
    checked += 4;
    Ok(checked)
}

/// Seed the four canonical mutations and require each to be caught with
/// its distinct diagnostic kind.
fn demo_mutations() -> Result<(), String> {
    let world = 4;
    let mut caught: Vec<(&str, DiagnosticKind)> = Vec::new();

    let mut p = allgather_plan(world, &[8, 16, 24, 32]);
    assert!(mutate_p2p(&mut p, PlanMutation::DropSend { rank: 1, index: 2 }));
    let d = verify_p2p(&p);
    let kind = d
        .iter()
        .find(|d| d.kind == DiagnosticKind::RecvWithoutSend)
        .ok_or("dropped send not caught")?
        .kind;
    caught.push(("drop-send", kind));

    let mut p = ring_allreduce_plan(world, 21);
    assert!(mutate_p2p(&mut p, PlanMutation::ShrinkBytes { rank: 2, index: 1 }));
    let d = verify_p2p(&p);
    let kind = d
        .iter()
        .find(|d| d.kind == DiagnosticKind::ByteMismatch)
        .ok_or("shrunk bytes not caught")?
        .kind;
    caught.push(("shrink-bytes", kind));

    let spec = ModelSpec::get(ModelId::Transformer);
    let prios = Priorities::assign(&spec.graph(GpuKind::Rtx3090));
    let mut s = horizontal_schedule_plan(&prios, world);
    assert!(mutate_schedule(&mut s, PlanMutation::SkewPriority { rank: 3, index: 1, delta: 7 }));
    let d = verify_schedule(&s);
    let kind = d
        .iter()
        .find(|d| d.kind == DiagnosticKind::PrioritySkew)
        .ok_or("skewed priority not caught")?
        .kind;
    caught.push(("skew-priority", kind));

    let mut shards: Vec<(usize, usize)> =
        row_partition(1000, world).iter().map(|r| (r.start, r.end)).collect();
    assert!(mutate_partition(&mut shards, PlanMutation::DropPartitionRow { rank: 2 }));
    let d = verify_partition(&shards, 1000);
    let kind = d
        .iter()
        .find(|d| d.kind == DiagnosticKind::PartitionGap)
        .ok_or("dropped partition row not caught")?
        .kind;
    caught.push(("drop-partition-row", kind));

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

/// Exhaustively model-check the six collectives plus their three
/// unit-stepped variants and the preempted ring for worlds 2–4, plus abort termination with a
/// crashed rank 0. Every fault-free run must also stay within
/// `SLOT_CAPACITY` in-flight messages per link over all reachable
/// states, proving the one-sided transport's rendezvous fallback is
/// unreachable in steady state.
fn model_check_all() -> Result<(), String> {
    let mut deepest = 0usize;
    for world in CHECK_WORLDS {
        for c in Collective::all(world).into_iter().chain(Collective::chunked(world)) {
            let r = check(&CheckConfig { world, collective: c, crash: None });
            println!("  {}", r.summary());
            if !r.deterministic_success() {
                return Err(format!("model check failed: {}", r.summary()));
            }
            if r.max_link_in_flight > SLOT_CAPACITY {
                return Err(format!(
                    "link depth {} exceeds SLOT_CAPACITY {SLOT_CAPACITY}: {}",
                    r.max_link_in_flight,
                    r.summary()
                ));
            }
            deepest = deepest.max(r.max_link_in_flight);
            let f = check(&CheckConfig { world, collective: c, crash: Some(0) });
            if !f.deadlock_free() {
                return Err(format!("abort does not terminate: {}", f.summary()));
            }
        }
    }
    println!(
        "  max in-flight per link over all reachable states: {deepest} <= SLOT_CAPACITY \
         {SLOT_CAPACITY} (slot rendezvous fallback unreachable)"
    );
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

/// Every point-to-point plan family the stack executes, at sizes scaled
/// to `world` (payloads stay modest so the sweep measures analysis, not
/// plan construction).
fn plan_families(world: usize) -> Vec<P2pPlan> {
    let rows = vec![4 + world / 64; world];
    let dim = 4 * world;
    vec![
        barrier_plan(world),
        broadcast_plan(world, 0, 64),
        ring_allreduce_plan(world, 4 * world + 1),
        chunked_ring_allreduce_plan(world, 2 * world + 1, 2),
        allgather_plan(world, &vec![16; world]),
        alltoall_plan("alltoall_lookup", &lookup_alltoall_bytes(&rows, dim)),
        alltoall_plan("alltoallv_grad", &grad_alltoall_bytes(&rows, dim)),
        chunked_alltoall_plan("alltoall_chunked", &lookup_alltoall_bytes(&rows, dim)),
        sparse_allreduce_demo_plan(world),
        lookup_demo_plan(world),
        reform_plan(world),
    ]
}

/// The graph analyzer must agree with both enumeration oracles: the
/// exhaustive model checker on every collective it can model (worlds
/// 2–4), and the explicit-state plan executor on every plan family and
/// every seeded send-dropping mutation.
fn graph_agreement() -> Result<(), String> {
    for world in CHECK_WORLDS {
        let modeled: Vec<(Collective, P2pPlan)> = vec![
            (Collective::Barrier, barrier_plan(world)),
            (Collective::Broadcast { root: 0 }, broadcast_plan(world, 0, 12)),
            (Collective::ring(2 * world + 1), ring_allreduce_plan(world, 2 * world + 1)),
            (
                Collective::RingAllreduce { elems: 2 * world + 1, seg: 2 },
                chunked_ring_allreduce_plan(world, 2 * world + 1, 2),
            ),
            (Collective::SparseAllreduce, sparse_allreduce_demo_plan(world)),
            (Collective::Reform, reform_plan(world)),
        ];
        let modeled_count = modeled.len();
        for (collective, plan) in modeled {
            let report = check(&CheckConfig { world, collective, crash: None });
            let graph_dead = graph_deadlocks(&analyze_p2p(&plan));
            if report.deadlock_free() == graph_dead {
                return Err(format!(
                    "w={world} {}: graph verdict disagrees with model checker ({})",
                    plan.kind,
                    report.summary()
                ));
            }
        }
        let mut mutations = 0usize;
        for plan0 in plan_families(world) {
            let diags = analyze_p2p(&plan0);
            let exec = enumerate_p2p(&plan0);
            if !diags.is_empty() || !exec.deadlock_free() {
                return Err(format!("w={world} {}: valid plan not clean: {diags:?}", plan0.kind));
            }
            // The same plan must stay deadlock-free when every link is a
            // SLOT_CAPACITY-deep pool whose put blocks on credit
            // exhaustion — the worst case for the one-sided transport
            // (the real pool falls back to counted rendezvous instead).
            let cdiags = analyze_p2p_credits(&plan0, SLOT_CAPACITY);
            let cexec = enumerate_p2p_credits(&plan0, SLOT_CAPACITY);
            if graph_deadlocks(&cdiags) || !cexec.deadlock_free() {
                return Err(format!(
                    "w={world} {}: plan deadlocks under {SLOT_CAPACITY}-credit links \
                     (graph={}, exec={})",
                    plan0.kind,
                    graph_deadlocks(&cdiags),
                    !cexec.deadlock_free()
                ));
            }
            for rank in 0..world {
                for (label, m) in [
                    ("drop-send", PlanMutation::DropSend { rank, index: 0 }),
                    ("retarget-send", PlanMutation::RetargetSend { rank, index: 0 }),
                ] {
                    let mut plan = plan0.clone();
                    if !mutate_p2p(&mut plan, m) {
                        continue;
                    }
                    let diags = analyze_p2p(&plan);
                    let exec = enumerate_p2p(&plan);
                    if graph_deadlocks(&diags) == exec.deadlock_free() {
                        return Err(format!(
                            "w={world} {} {label} rank {rank}: graph says deadlock={}, \
                             enumeration says deadlock={}",
                            plan.kind,
                            graph_deadlocks(&diags),
                            !exec.deadlock_free()
                        ));
                    }
                    if diags.is_empty() {
                        return Err(format!(
                            "w={world} {} {label} rank {rank}: mutation went undetected",
                            plan.kind
                        ));
                    }
                    mutations += 1;
                }
            }
        }
        println!(
            "  w={world}: graph == model checker on {modeled_count} modeled plans, graph == \
             enumeration on {mutations} seeded mutations, every family clean under \
             {SLOT_CAPACITY}-credit links"
        );
    }
    Ok(())
}

/// The `--large` sweep: wait-for-graph analysis + explicit-state
/// execution of every plan family at large worlds, with a timing table.
fn large_sweep(quick: bool, out: Option<&str>) -> Result<(), String> {
    let worlds: &[usize] = if quick { &QUICK_WORLDS } else { &LARGE_WORLDS };
    let mut table = String::new();
    table.push_str(&format!(
        "{:<24} {:>6} {:>10} {:>12} {:>10} {:>10} {:>10}\n",
        "plan", "world", "ops", "bytes", "graph_ms", "credit_ms", "exec_ms"
    ));
    let t0 = Instant::now();
    for &world in worlds {
        for plan in plan_families(world) {
            let ops: usize = plan.ranks.iter().map(Vec::len).sum();
            let tg = Instant::now();
            let diags = analyze_p2p(&plan);
            let graph_ms = tg.elapsed().as_secs_f64() * 1e3;
            if !diags.is_empty() {
                let lines: Vec<String> = diags.iter().take(5).map(|d| format!("  {d}")).collect();
                return Err(format!(
                    "{} w={world}: {} diagnostic(s)\n{}",
                    plan.kind,
                    diags.len(),
                    lines.join("\n")
                ));
            }
            let bytes = byte_conservation(&plan).map_err(|d| format!("{d}"))?;
            // Credit mode: the same wait-for graph plus the slot
            // transport's send#k -> recv#(k - SLOT_CAPACITY) back-edges
            // must stay acyclic, proving a strictly blocking
            // SLOT_CAPACITY-deep pool cannot deadlock these plans.
            let tc = Instant::now();
            let cdiags = analyze_p2p_credits(&plan, SLOT_CAPACITY);
            let credit_ms = tc.elapsed().as_secs_f64() * 1e3;
            if graph_deadlocks(&cdiags) {
                return Err(format!(
                    "{} w={world}: deadlocks under {SLOT_CAPACITY}-credit links",
                    plan.kind
                ));
            }
            let te = Instant::now();
            let exec = enumerate_p2p(&plan);
            let exec_ms = te.elapsed().as_secs_f64() * 1e3;
            if !exec.deadlock_free() {
                return Err(format!(
                    "{} w={world}: enumeration stuck at {:?} though the graph is acyclic",
                    plan.kind, exec.stuck
                ));
            }
            table.push_str(&format!(
                "{:<24} {:>6} {:>10} {:>12} {:>10.1} {:>10.1} {:>10.1}\n",
                plan.kind, world, ops, bytes, graph_ms, credit_ms, exec_ms
            ));
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    print!("{table}");
    println!(
        "verify-plan --large: {} plan families x worlds {worlds:?} deadlock-free (unbounded and \
         {SLOT_CAPACITY}-credit links) and byte-conserving in {total_s:.1} s",
        plan_families(2).len()
    );
    if let Some(path) = out {
        let mut contents = table;
        contents.push_str(&format!("total_s {total_s:.3}\n"));
        std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        println!("timing table written to {path}");
    }
    Ok(())
}

/// Run the whole `verify-plan` pass; `Err` means a check failed.
/// Flags: `--large` (graph sweep at worlds 64–1024), `--quick` (worlds
/// 64/256 only), `--out FILE` (write the `--large` timing table).
pub fn run(args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut large = false;
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--large" => large = true,
            "--quick" => quick = true,
            "--out" => {
                out = Some(args.next().ok_or("--out needs a file path")?);
            }
            other => return Err(format!("unknown verify-plan flag: {other}")),
        }
    }
    if large {
        return large_sweep(quick, out.as_deref());
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
        "model checker: worlds {CHECK_WORLDS:?}, 6 collectives + 4 chunked, fault-free + crash(0)"
    );
    model_check_all()?;
    println!("model checker: elastic re-form handshake, fault-free + dead rank + midway crash");
    model_check_reform()?;
    println!("wait-for graph: agreement with the model checker and the plan executor");
    graph_agreement()?;
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
    fn large_sweep_quick_succeeds() {
        large_sweep(true, None).expect("quick graph sweep must pass on the clean tree");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(run(["--bogus".to_string()].into_iter()).is_err());
    }
}

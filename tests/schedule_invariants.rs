//! Scheduling invariants extracted from real simulator traces: the
//! dependency structure the paper's Figs 5/6 describe must hold in every
//! executed schedule, not just in the DAG construction code.

use embrace_repro::baselines::MethodId;
use embrace_repro::models::ModelId;
use embrace_repro::obs::SpanSet;
use embrace_repro::simnet::{Cluster, Res, Trace};
use embrace_repro::trainer::{
    simulate_with_trace, train_convergence, train_convergence_observed,
    train_convergence_scheduled_observed, ConvergenceConfig, SimConfig, TrainMethod,
};

fn trace_for(method: MethodId) -> Trace {
    let mut cfg = SimConfig::new(method, ModelId::Gnmt8, Cluster::rtx3090(16));
    cfg.steps = 5;
    simulate_with_trace(&cfg).1
}

/// End of the last span whose name contains `pat`; panics if absent.
fn end(trace: &Trace, pat: &str) -> f64 {
    trace.last_end(pat).unwrap_or_else(|| panic!("no span matching {pat}"))
}

fn start(trace: &Trace, pat: &str) -> f64 {
    trace.first_start(pat).unwrap_or_else(|| panic!("no span matching {pat}"))
}

#[test]
fn prior_gradients_complete_before_next_embedding_fp() {
    // Per table: each embedding's FP waits on *its own* prior gradients.
    let t = trace_for(MethodId::EmbRace);
    for step in 0..4 {
        let next = step + 1;
        for table in ["enc_emb", "dec_emb"] {
            let prior_done = end(&t, &format!("s{step}/prior_grad/{table}"));
            let fp_start = start(&t, &format!("s{next}/fp/{table}"));
            assert!(
                prior_done <= fp_start + 1e-12,
                "step {step}/{table}: prior grads end {prior_done} after next FP start {fp_start}"
            );
        }
    }
}

#[test]
fn delayed_gradients_overlap_the_next_step() {
    // At least one delayed transfer must run *after* its step's marker —
    // that is the whole point of delaying.
    let t = trace_for(MethodId::EmbRace);
    let step2_bp_end = end(&t, "s2/bp/enc_emb");
    let delayed_end = end(&t, "s2/delayed_grad");
    assert!(
        delayed_end > step2_bp_end,
        "delayed grads ({delayed_end}) should outlive their step's BP ({step2_bp_end})"
    );
}

#[test]
fn vertical_compute_runs_after_last_bp_and_before_prior() {
    let t = trace_for(MethodId::EmbRace);
    for step in 1..4 {
        let last_bp = end(&t, &format!("s{step}/bp/enc_emb")); // enc_emb BP is last
        let vert = start(&t, &format!("s{step}/vertical_sched"));
        let prior = start(&t, &format!("s{step}/prior_grad"));
        assert!(vert >= last_bp - 1e-12, "step {step}: vertical before last BP");
        assert!(prior >= vert, "step {step}: prior grads before vertical compute");
    }
}

#[test]
fn dense_params_arrive_before_their_fp() {
    let t = trace_for(MethodId::EmbRace);
    for step in 1..4 {
        for blk in ["enc_blk0", "dec_blk7"] {
            let prev = step - 1;
            let comm_done = end(&t, &format!("s{prev}/allreduce/{blk}"));
            let fp_start = start(&t, &format!("s{step}/fp/{blk}"));
            assert!(
                comm_done <= fp_start + 1e-12,
                "step {step}/{blk}: allreduce ends {comm_done}, FP starts {fp_start}"
            );
        }
    }
}

#[test]
fn embedding_fp_is_hoisted_under_2d_scheduling() {
    // Hoisting puts both embedding FPs ahead of every dense-block FP.
    // (The unscheduled variant keeps graph *launch* order, but readiness
    // can still let an unblocked embedding FP run early, so only the
    // hoisted property is a trace invariant.)
    let t = trace_for(MethodId::EmbRace);
    let dec_emb = start(&t, "s2/fp/dec_emb");
    let enc_emb = start(&t, "s2/fp/enc_emb");
    let first_block = start(&t, "s2/fp/enc_blk0").min(start(&t, "s2/fp/dec_blk0"));
    assert!(enc_emb <= first_block, "enc_emb FP must be hoisted");
    assert!(
        dec_emb <= first_block,
        "dec_emb FP {dec_emb} must be hoisted before blocks {first_block}"
    );
}

#[test]
fn fifo_network_never_idles_while_queue_nonempty_under_load() {
    // Weaker sanity: total network busy time ≤ makespan, and the network
    // is meaningfully utilised for a comm-heavy method.
    let t = trace_for(MethodId::HorovodAllReduce);
    let makespan = t.spans.iter().map(|s| s.end).fold(0.0, f64::max);
    let busy = t.busy_in(Res::Comm, 0.0, makespan);
    assert!(busy > 0.3 * makespan, "network should be busy: {busy} of {makespan}");
    assert!(busy <= makespan * 1.0 + 1e-9);
}

/// A span-structure line with its track prefix stripped, so structures
/// can be compared across ranks (tracks are named per rank).
fn rankless_structure(set: &SpanSet) -> Vec<String> {
    set.structure()
        .iter()
        .map(|line| line.split_once('|').expect("track|rest structure line").1.to_string())
        .collect()
}

#[test]
fn observed_training_is_deterministic_in_losses_and_span_structure() {
    // Tracing must be passive: two observed seeded runs (and an
    // unobserved one) produce bitwise-identical loss curves, and the span
    // structure is identical across runs AND across ranks — the SPMD
    // program order is the same everywhere.
    let cfg = ConvergenceConfig { steps: 12, ..Default::default() };
    let (run_a, spans_a) = train_convergence_observed(TrainMethod::EmbRace, &cfg);
    let (run_b, spans_b) = train_convergence_observed(TrainMethod::EmbRace, &cfg);
    let plain = train_convergence(TrainMethod::EmbRace, &cfg);
    assert_eq!(run_a.losses, run_b.losses, "observed runs must match bitwise");
    assert_eq!(run_a.losses, plain.losses, "tracing must not perturb training");

    assert_eq!(spans_a.len(), cfg.world);
    assert_eq!(spans_b.len(), cfg.world);
    let reference = rankless_structure(&spans_a[0]);
    assert!(!reference.is_empty(), "observed run recorded no spans");
    assert!(
        reference.iter().any(|l| l == "d0|train|step0"),
        "per-step spans missing: {reference:?}"
    );
    for (rank, set) in spans_a.iter().chain(spans_b.iter()).enumerate() {
        set.check_well_nested().expect("spans well nested");
        assert_eq!(
            rankless_structure(set),
            reference,
            "span structure diverged (rank/run index {rank})"
        );
    }

    // Every unit the step's comm scheduler runs lies inside a `collective`
    // span directly under its step, partitioned and preempted ops
    // included: one span per op start round plus one per unit, as the
    // scheduler's own timing log counts them on the same run.
    let (_, _, observed) = train_convergence_scheduled_observed(&cfg, true);
    for (rank, (set, (_, timings))) in spans_a.iter().zip(&observed).enumerate() {
        let units: u32 = timings.iter().map(|t| 1 + t.chunks).sum();
        let structure = rankless_structure(set);
        let spans = structure.iter().filter(|l| l.starts_with("d1|collective|")).count();
        let all = structure.iter().filter(|l| l.contains("|collective|")).count();
        assert_eq!((spans, all), (units as usize, spans), "rank {rank}: {structure:?}");
        assert!(timings.iter().any(|t| t.chunks > 1), "rank {rank}: nothing was partitioned");
    }
}

#[test]
fn compute_stream_never_overlaps_itself() {
    for method in [MethodId::EmbRace, MethodId::BytePs, MethodId::HorovodAllGather] {
        let t = trace_for(method);
        let mut spans = t.on(Res::Compute).into_iter().cloned().collect::<Vec<_>>();
        spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for w in spans.windows(2) {
            assert!(
                w[0].end <= w[1].start + 1e-12,
                "{}: compute spans overlap: {} .. {} vs {} ..",
                method.name(),
                w[0].name,
                w[0].end,
                w[1].start
            );
        }
    }
}

/// PR 5 cross-validation: the live `CommScheduler`'s preemptive schedule
/// must match `simnet`'s `CommOrder::Preemptive` ordering model on the
/// same head-of-line scenario — a bulk low-priority AllReduce already on
/// the wire, an urgent gather arriving behind it. Both worlds must agree
/// that (a) the urgent op *completes before* the bulk op and (b) the bulk
/// op was suspended mid-tensor: it had started, and it ran as more than
/// one resumable span.
#[test]
fn threaded_preemption_matches_simnet_preemptive_order() {
    use embrace_repro::collectives::{mesh, CommOp, CommResult, CommScheduler, SchedOptions};
    use embrace_repro::simnet::{CommOrder, Sim, Task};

    // DES model of the scenario.
    let mut sim = Sim::new(CommOrder::Preemptive);
    sim.add(Task::comm("bulk", 10.0, 100));
    let bp = sim.add(Task::compute("bp", 1.0));
    sim.add(Task::comm("urgent", 1.0, -10).after([bp]));
    let des = sim.run();
    let des_urgent_end = des.trace.last_end("urgent").expect("urgent span");
    let des_bulk_end = des.trace.last_end("bulk").expect("bulk span");
    assert!(des_urgent_end < des_bulk_end, "DES: urgent must finish first");
    let des_bulk_spans = des.trace.spans.iter().filter(|s| s.name == "bulk").count();
    assert!(des_bulk_spans > 1, "DES: bulk must be suspended at least once");

    // The same scenario on the real scheduler, one thread per rank: a chunk
    // size far below the bulk payload so preemption points exist
    // mid-tensor, and a head start of a tenth of the bulk op's units (the
    // DES's 1.0 of 10.0) so that it is in flight when the urgent op arrives.
    let world = 2;
    let timings: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh(world)
            .into_iter()
            .map(|ep| {
                scope.spawn(move || {
                    let opts = SchedOptions { chunk_bytes: Some(4 << 10), observed: true };
                    let mut s = CommScheduler::new(ep, opts);
                    let bulk = s.submit(100, "bulk", CommOp::AllReduceDense(vec![1.0f32; 1 << 20]));
                    for _ in 0..102 {
                        assert!(s.progress(), "bulk ended during its head start");
                    }
                    let urgent = s.submit(-10, "urgent", CommOp::GatherTokens(vec![7, 8, 9]));
                    assert!(!matches!(urgent.wait(), CommResult::Failed(_)));
                    assert!(!matches!(bulk.wait(), CommResult::Failed(_)));
                    s.observation().expect("observed").1
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    });
    for (rank, ts) in timings.iter().enumerate() {
        let find = |tag: &str| ts.iter().find(|t| t.tag == tag).expect("timing recorded");
        let (bulk, urgent) = (find("bulk"), find("urgent"));
        assert!(
            bulk.started_s < urgent.submitted_s,
            "rank {rank}: bulk was not on the wire when urgent arrived"
        );
        assert!(
            urgent.finished_s < bulk.finished_s,
            "rank {rank}: measured order diverges from the DES Preemptive model \
             (urgent {} vs bulk {})",
            urgent.finished_s,
            bulk.finished_s
        );
        assert_eq!(bulk.chunks, 1024, "rank {rank}: 512 Ki f32 per step in 1 Ki segments, twice");
    }
}

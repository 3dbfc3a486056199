//! Discrete-event execution of a training-step task DAG.
//!
//! A step is modelled as tasks on streams: one **compute stream** per
//! worker (GPU kernels: FP/BP of each module, plus the Vertical-Scheduling
//! set computation) and one shared **network stream** (one collective at
//! a time, like Horovod's background thread driving NCCL). Dependencies
//! encode the module graph (paper Fig. 5); the network drains either a
//! FIFO queue (default DL framework behaviour, Fig. 6a) or a priority
//! queue (EmbRace / ByteScheduler, Fig. 6b-c).
//!
//! A compute task runs on worker 0 unless [`Task::on`] places it
//! elsewhere, and a run has one more compute stream than the largest
//! worker any task names. The training-step models use worker 0 alone:
//! synchronous data-parallel workers are symmetric, and per-worker
//! asymmetry such as row-partition imbalance is folded into collective
//! durations by [`crate::cost::CostModel::alltoallv`]. A collective whose
//! `deps` span several workers is a barrier that waits for the slowest of
//! them, which is how [`synchronous_step`] exposes stragglers.

use crate::trace::{Span, Trace};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

/// Identifier of a task inside one [`Sim`].
pub type TaskId = usize;

/// Which stream a task occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Res {
    /// GPU compute stream.
    Compute,
    /// Network/communication stream.
    Comm,
}

/// One node of the step DAG.
#[derive(Clone, Debug)]
pub struct Task {
    pub name: String,
    pub dur: f64,
    pub res: Res,
    pub deps: Vec<TaskId>,
    /// Lower value = drained earlier by the priority queue. Ignored for
    /// compute tasks (the GPU stream runs in program order) and ignored by
    /// FIFO scheduling.
    pub priority: i64,
    /// True for model FP/BP kernels — the useful work against which
    /// Computation Stall is measured. False for communication and for
    /// scheduling bookkeeping computations (Algorithm 1), which the paper
    /// counts *as* stall (§5.4).
    pub model_compute: bool,
    /// Worker whose compute stream runs the task (0 unless set by
    /// [`Task::on`]). Ignored for comm tasks: the network is shared.
    pub worker: usize,
}

impl Task {
    fn new(name: impl Into<String>, dur: f64, res: Res, priority: i64, model: bool) -> Self {
        Task {
            name: name.into(),
            dur,
            res,
            deps: vec![],
            priority,
            model_compute: model,
            worker: 0,
        }
    }

    pub fn compute(name: impl Into<String>, dur: f64) -> Self {
        Task::new(name, dur, Res::Compute, 0, true)
    }

    /// A compute-stream task that is *not* useful model work (e.g. the
    /// Vertical Sparse Scheduling set computation).
    pub fn overhead(name: impl Into<String>, dur: f64) -> Self {
        Task::new(name, dur, Res::Compute, 0, false)
    }

    pub fn comm(name: impl Into<String>, dur: f64, priority: i64) -> Self {
        Task::new(name, dur, Res::Comm, priority, false)
    }

    pub fn after(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
    }

    /// Run on worker `worker`'s compute stream.
    pub fn on(mut self, worker: usize) -> Self {
        self.worker = worker;
        self
    }
}

/// How the communication stream picks among ready collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommOrder {
    /// First-ready-first-served (default DAG execution in PyTorch/TF).
    Fifo,
    /// Smallest `priority` first among ready tasks (EmbRace §4.2).
    Priority,
    /// Priority with preemption: a strictly more urgent collective
    /// suspends the one in flight and the remainder resumes later —
    /// PACE's preemptive queue (Bao et al., INFOCOM'20), implemented
    /// here as an extension the paper lists as related work.
    Preemptive,
}

/// One sample of the communication ready-queue depth, taken whenever a
/// collective is enqueued or drained. `priority` is the *effective*
/// priority (0 under FIFO), so per-priority depth series line up with
/// what the scheduler actually saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSample {
    /// Virtual time of the sample.
    pub t: f64,
    /// Effective priority class whose depth changed.
    pub priority: i64,
    /// Depth of that class immediately after the change.
    pub depth: u64,
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Completion time of the last task.
    pub makespan: f64,
    /// Total busy time of the compute streams, summed over workers.
    pub compute_busy: f64,
    /// Total busy time of the communication stream.
    pub comm_busy: f64,
    /// Busy time of *useful* model compute only.
    pub model_compute_busy: f64,
    /// `makespan - model_compute_busy`: compute-stall attributable to
    /// communication and scheduling overhead (paper §5.4).
    pub stall: f64,
    /// Per-task execution spans for timeline rendering and metrics.
    pub trace: Trace,
    /// Per-priority ready-queue depth over time (observability layer:
    /// exported as Chrome counter events by `embrace_sim trace`).
    pub comm_queue: Vec<QueueSample>,
}

impl SimResult {
    /// Fraction of the makespan a stream was busy (0.0 for an empty run);
    /// for [`Res::Compute`], summed over the compute streams.
    pub fn occupancy(&self, res: Res) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        match res {
            Res::Compute => self.compute_busy / self.makespan,
            Res::Comm => self.comm_busy / self.makespan,
        }
    }
}

#[derive(PartialEq)]
struct CommEntry {
    key: (i64, u64, usize), // (priority, ready_seq, id) — min first
}

impl Eq for CommEntry {}
impl Ord for CommEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key) // reverse: BinaryHeap is a max-heap
    }
}
impl PartialOrd for CommEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The ready tasks of one run: a heap per compute stream, in program
/// (id) order — the GPU executes kernels in the order the framework
/// launched them — and the network's queue, whose per-priority depth is
/// sampled on every enqueue and dequeue.
struct Ready<'a> {
    tasks: &'a [Task],
    order: CommOrder,
    compute: Vec<BinaryHeap<Reverse<TaskId>>>,
    comm: BinaryHeap<CommEntry>,
    seq: u64,
    depths: BTreeMap<i64, u64>,
    samples: Vec<QueueSample>,
}

impl Ready<'_> {
    fn push(&mut self, id: TaskId, now: f64) {
        let t = &self.tasks[id];
        match t.res {
            Res::Compute => self.compute[t.worker].push(Reverse(id)),
            Res::Comm => {
                let pr = if self.order == CommOrder::Fifo { 0 } else { t.priority };
                self.comm.push(CommEntry { key: (pr, self.seq, id) });
                self.seq += 1;
                self.sample(pr, now, 1);
            }
        }
    }

    /// Next task for stream `slot` (the network is the last slot), with
    /// its effective priority.
    fn pop(&mut self, slot: usize, now: f64) -> Option<(TaskId, i64)> {
        if let Some(heap) = self.compute.get_mut(slot) {
            return heap.pop().map(|Reverse(id)| (id, 0));
        }
        let (pr, _, id) = self.comm.pop()?.key;
        self.sample(pr, now, -1);
        Some((id, pr))
    }

    fn sample(&mut self, priority: i64, t: f64, delta: i64) {
        let depth = self.depths.entry(priority).or_insert(0);
        *depth = depth.checked_add_signed(delta).expect("dequeue from an empty class");
        self.samples.push(QueueSample { t, priority, depth: *depth });
    }
}

/// A DAG of tasks plus a communication-ordering policy.
#[derive(Clone, Debug)]
pub struct Sim {
    tasks: Vec<Task>,
    order: CommOrder,
}

impl Sim {
    pub fn new(order: CommOrder) -> Self {
        Sim { tasks: Vec::new(), order }
    }

    /// Add a task; returns its id for use in successors' `deps`.
    pub fn add(&mut self, task: Task) -> TaskId {
        for &d in &task.deps {
            assert!(d < self.tasks.len(), "dependency {d} does not exist yet");
        }
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// Execute the DAG; panics on dependency cycles (impossible by
    /// construction since `add` only accepts already-created deps).
    pub fn run(&self) -> SimResult {
        let n = self.tasks.len();
        let mut indegree: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                succs[d].push(id);
            }
        }
        let workers = self.tasks.iter().map(|t| t.worker + 1).max().unwrap_or(1);
        let mut ready = Ready {
            tasks: &self.tasks,
            order: self.order,
            compute: vec![BinaryHeap::new(); workers],
            comm: BinaryHeap::new(),
            seq: 0,
            depths: BTreeMap::new(),
            samples: Vec::new(),
        };
        for id in (0..n).filter(|&id| indegree[id] == 0) {
            ready.push(id, 0.0);
        }

        let mut now = 0.0_f64;
        // One slot per compute stream, then the network:
        // (end time, task id, span start, effective priority).
        let mut slots: Vec<Option<(f64, TaskId, f64, i64)>> = vec![None; workers + 1];
        let net = workers;
        // Remaining duration per task (preemption may split execution).
        let mut remaining: Vec<f64> = self.tasks.iter().map(|t| t.dur).collect();
        let mut spans: Vec<Span> = Vec::with_capacity(n);
        let mut done = 0usize;
        let (mut compute_busy, mut comm_busy, mut model_busy) = (0.0, 0.0, 0.0);

        loop {
            // Preemption (PACE-style extension): a strictly more urgent
            // ready collective suspends the one on the wire; the remainder
            // is requeued and resumes later.
            if self.order == CommOrder::Preemptive {
                if let (Some((end, id, start, pr)), Some(entry)) = (slots[net], ready.comm.peek()) {
                    if entry.key.0 < pr {
                        remaining[id] = end - now;
                        if now > start {
                            comm_busy += now - start;
                            let name = self.tasks[id].name.clone();
                            spans.push(Span { task: id, name, res: Res::Comm, start, end: now });
                        }
                        ready.push(id, now);
                        slots[net] = None;
                    }
                }
            }

            // Fill free slots at `now`.
            for (s, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = ready.pop(s, now).map(|(id, pr)| (now + remaining[id], id, now, pr));
                }
            }

            // Advance to the earliest completion.
            let Some(next) = slots.iter().flatten().map(|s| s.0).reduce(f64::min) else {
                break;
            };
            now = next;

            // Complete whichever streams finish exactly now, compute
            // streams by worker and then the network.
            for slot in &mut slots {
                let Some((end, id, start, _)) = *slot else { continue };
                if end > now {
                    continue;
                }
                let t = &self.tasks[id];
                match t.res {
                    Res::Compute => {
                        compute_busy += end - start;
                        if t.model_compute {
                            model_busy += end - start;
                        }
                    }
                    Res::Comm => comm_busy += end - start,
                }
                spans.push(Span { task: id, name: t.name.clone(), res: t.res, start, end });
                done += 1;
                for &s in &succs[id] {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        ready.push(s, now);
                    }
                }
                *slot = None;
            }
        }

        assert_eq!(done, n, "deadlock: {} of {n} tasks completed (cyclic deps?)", done);
        let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
        SimResult {
            makespan,
            compute_busy,
            comm_busy,
            model_compute_busy: model_busy,
            stall: makespan - model_busy,
            trace: Trace { spans },
            comm_queue: ready.samples,
        }
    }
}

/// One synchronous data-parallel step: per-worker backward compute
/// (scaled by `compute_scale[w]`), a gradient collective joining all
/// workers, then per-worker forward compute — the building block of the
/// straggler ablation. Worker `w`'s spans are named `w{w}/bp` and `w{w}/fp`.
pub fn synchronous_step(compute_scale: &[f64], bp: f64, comm: f64, fp: f64) -> SimResult {
    let mut sim = Sim::new(CommOrder::Fifo);
    let bps: Vec<TaskId> = compute_scale
        .iter()
        .enumerate()
        .map(|(w, &scale)| sim.add(Task::compute(format!("w{w}/bp"), bp * scale).on(w)))
        .collect();
    let coll = sim.add(Task::comm("allreduce", comm, 0).after(bps));
    for (w, &scale) in compute_scale.iter().enumerate() {
        sim.add(Task::compute(format!("w{w}/fp"), fp * scale).on(w).after([coll]));
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim() {
        let r = Sim::new(CommOrder::Fifo).run();
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.stall, 0.0);
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut s = Sim::new(CommOrder::Fifo);
        let a = s.add(Task::compute("a", 1.0));
        let b = s.add(Task::comm("b", 2.0, 0).after([a]));
        let _c = s.add(Task::compute("c", 3.0).after([b]));
        let r = s.run();
        assert!((r.makespan - 6.0).abs() < 1e-12);
        assert!((r.model_compute_busy - 4.0).abs() < 1e-12);
        assert!((r.stall - 2.0).abs() < 1e-12);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::compute("fp", 5.0));
        s.add(Task::comm("net", 5.0, 0));
        let r = s.run();
        assert!((r.makespan - 5.0).abs() < 1e-12, "compute and comm must overlap");
        assert_eq!(r.stall, 0.0);
    }

    #[test]
    fn compute_stream_serialises() {
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::compute("k1", 1.0));
        s.add(Task::compute("k2", 1.0));
        let r = s.run();
        assert!((r.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_runs_in_ready_order() {
        // Two comms become ready at t=0; FIFO runs the first-added first
        // even when the second has better priority.
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::comm("low-prio-first", 1.0, 10));
        s.add(Task::comm("high-prio-second", 1.0, 0));
        let r = s.run();
        let first = r.trace.spans.iter().find(|sp| sp.start == 0.0).unwrap();
        assert_eq!(first.name, "low-prio-first");
    }

    #[test]
    fn priority_queue_reorders() {
        let mut s = Sim::new(CommOrder::Priority);
        s.add(Task::comm("low", 1.0, 10));
        s.add(Task::comm("high", 1.0, 0));
        let r = s.run();
        let first = r.trace.spans.iter().find(|sp| sp.start == 0.0).unwrap();
        assert_eq!(first.name, "high");
    }

    #[test]
    fn priority_cannot_preempt_running_comm() {
        // "low" starts at t=0 (only ready task); "high" becomes ready at
        // t=1 but must wait until "low" finishes at t=5.
        let mut s = Sim::new(CommOrder::Priority);
        s.add(Task::comm("low", 5.0, 10));
        let gate = s.add(Task::compute("bp", 1.0));
        s.add(Task::comm("high", 1.0, 0).after([gate]));
        let r = s.run();
        let high = r.trace.spans.iter().find(|sp| sp.name == "high").unwrap();
        assert!((high.start - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scheduling_changes_makespan_like_fig6() {
        // While an early collective occupies the network, BP finishes grads
        // A (needed late in next FP) and B (needed first). Both are queued
        // when the network frees: FIFO sends A then B, priority sends B
        // first, unblocking the next FP earlier — the Fig. 6a vs 6b effect.
        let build = |order| {
            let mut s = Sim::new(order);
            let bp0 = s.add(Task::compute("bp0", 1.0));
            let _comm0 = s.add(Task::comm("comm0", 2.0, 1).after([bp0]));
            let bp_a = s.add(Task::compute("bp_a", 1.0).after([bp0]));
            let bp_b = s.add(Task::compute("bp_b", 1.0).after([bp_a]));
            let comm_a = s.add(Task::comm("comm_a", 4.0, 5).after([bp_a]));
            let comm_b = s.add(Task::comm("comm_b", 4.0, 0).after([bp_b]));
            let fp_b = s.add(Task::compute("fp_b", 1.0).after([comm_b]));
            let _fp_a = s.add(Task::compute("fp_a", 1.0).after([comm_a, fp_b]));
            s
        };
        let fifo = build(CommOrder::Fifo).run();
        let prio = build(CommOrder::Priority).run();
        assert!(
            prio.makespan < fifo.makespan,
            "priority {p} must beat FIFO {f}",
            p = prio.makespan,
            f = fifo.makespan
        );
    }

    #[test]
    fn overhead_tasks_count_as_stall() {
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::compute("bp", 2.0));
        s.add(Task::overhead("vertical-sched", 1.0));
        let r = s.run();
        assert!((r.model_compute_busy - 2.0).abs() < 1e-12);
        assert!((r.stall - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_dependency_rejected() {
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::compute("a", 1.0).after([3]));
    }

    #[test]
    fn queue_depth_samples_balance_out() {
        let mut s = Sim::new(CommOrder::Priority);
        let bp = s.add(Task::compute("bp", 1.0));
        s.add(Task::comm("a", 1.0, 2).after([bp]));
        s.add(Task::comm("b", 1.0, 2).after([bp]));
        s.add(Task::comm("c", 1.0, 0).after([bp]));
        let r = s.run();
        // Every enqueue has a matching dequeue: final depth per priority
        // is zero, and depth never goes negative (u64 would wrap loudly).
        let last_depth_p2 = r.comm_queue.iter().rfind(|q| q.priority == 2);
        assert_eq!(last_depth_p2.map(|q| q.depth), Some(0));
        // Both p=2 collectives were queued before either ran (they become
        // ready together at t=1 while p=0 wins the wire), so depth 2 is
        // observed.
        let max_p2 = r.comm_queue.iter().filter(|q| q.priority == 2).map(|q| q.depth).max();
        assert_eq!(max_p2, Some(2));
        // Samples are in non-decreasing time order.
        assert!(r.comm_queue.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn fifo_folds_priorities_into_one_class() {
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::comm("x", 1.0, 7));
        s.add(Task::comm("y", 1.0, -3));
        let r = s.run();
        assert!(r.comm_queue.iter().all(|q| q.priority == 0), "{:?}", r.comm_queue);
    }

    #[test]
    fn occupancy_matches_busy_fractions() {
        let mut s = Sim::new(CommOrder::Fifo);
        s.add(Task::compute("fp", 3.0));
        s.add(Task::comm("net", 1.0, 0));
        let r = s.run();
        assert!((r.occupancy(Res::Compute) - 1.0).abs() < 1e-12);
        assert!((r.occupancy(Res::Comm) - 1.0 / 3.0).abs() < 1e-12);
        let empty = Sim::new(CommOrder::Fifo).run();
        assert_eq!(empty.occupancy(Res::Comm), 0.0);
    }

    #[test]
    fn two_tenants_share_links_by_priority() {
        // Job A (latency-critical, priority 0) and job B (batch,
        // priority 5) each issue two collectives at t=0 over the shared
        // network. Under Priority ordering all of A's traffic drains
        // before B's; under FIFO they interleave in submission order.
        let build = |order: CommOrder| {
            let mut sim = Sim::new(order);
            sim.add(Task::comm("b/0", 2.0, 5));
            sim.add(Task::comm("a/0", 1.0, 0));
            sim.add(Task::comm("b/1", 2.0, 5));
            sim.add(Task::comm("a/1", 1.0, 0));
            sim.run()
        };
        let end_of =
            |r: &SimResult, name: &str| r.trace.spans.iter().find(|s| s.name == name).unwrap().end;
        let prio = build(CommOrder::Priority);
        assert_eq!(prio.occupancy(Res::Comm), 1.0);
        // Tenant A's last collective finishes before tenant B's first.
        assert!((end_of(&prio, "a/1") - 2.0).abs() < 1e-12, "{prio:?}");
        assert!(end_of(&prio, "b/0") >= 4.0 - 1e-12);
        let fifo = build(CommOrder::Fifo);
        // FIFO makes A wait behind B's first transfer.
        assert!(end_of(&fifo, "a/0") >= 3.0 - 1e-12, "{fifo:?}");
        // Total makespan is work-conserving either way.
        assert!((prio.makespan - fifo.makespan).abs() < 1e-12);
    }
}

#[cfg(test)]
mod worker_tests {
    use super::*;

    /// Busy time of worker `w`'s compute stream, read from its spans.
    fn worker_busy(r: &SimResult, w: usize) -> f64 {
        let prefix = format!("w{w}/");
        r.trace.spans.iter().filter(|s| s.name.starts_with(&prefix)).map(Span::dur).sum()
    }

    #[test]
    fn symmetric_step_equals_serial_sum() {
        let r = synchronous_step(&[1.0; 4], 2.0, 1.0, 1.0);
        assert!((r.makespan - 4.0).abs() < 1e-12);
        for w in 0..4 {
            assert!((worker_busy(&r, w) - 3.0).abs() < 1e-12);
        }
        // `compute_busy` sums the four streams.
        assert!((r.compute_busy - 12.0).abs() < 1e-12);
        assert!((r.comm_busy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_delays_every_worker() {
        // Worker 0 is 50% slower: the barrier waits for it.
        let r = synchronous_step(&[1.5, 1.0, 1.0, 1.0], 2.0, 1.0, 1.0);
        assert!((r.makespan - (3.0 + 1.0 + 1.5)).abs() < 1e-12, "got {}", r.makespan);
        // Healthy workers start their forward pass only after the barrier.
        assert!((r.trace.first_start("w1/fp").unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn collective_is_a_barrier() {
        let mut sim = Sim::new(CommOrder::Fifo);
        let a = sim.add(Task::compute("fast", 1.0));
        let b = sim.add(Task::compute("slow", 5.0).on(1));
        let c = sim.add(Task::comm("sync", 1.0, 0).after([a, b]));
        sim.add(Task::compute("post", 1.0).after([c]));
        let r = sim.run();
        assert!((r.trace.first_start("sync").unwrap() - 5.0).abs() < 1e-12);
        assert!((r.makespan - 7.0).abs() < 1e-12);
    }

    #[test]
    fn workers_run_in_parallel() {
        let mut sim = Sim::new(CommOrder::Fifo);
        for w in 0..3 {
            sim.add(Task::compute(format!("k{w}"), 2.0).on(w));
        }
        let r = sim.run();
        assert!((r.makespan - 2.0).abs() < 1e-12, "independent workers overlap");
        assert!((r.occupancy(Res::Compute) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn same_worker_tasks_serialise() {
        let mut sim = Sim::new(CommOrder::Fifo);
        sim.add(Task::compute("a", 1.0));
        sim.add(Task::compute("b", 1.0));
        sim.add(Task::compute("c", 1.0).on(1));
        let r = sim.run();
        assert!((r.makespan - 2.0).abs() < 1e-12);
        assert!((r.trace.first_start("b").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn network_serialises_collectives() {
        // Collectives from different workers still share one network;
        // the worker a comm task names is ignored.
        let mut sim = Sim::new(CommOrder::Fifo);
        sim.add(Task::comm("x", 2.0, 0));
        sim.add(Task::comm("y", 2.0, 0).on(1));
        let r = sim.run();
        assert!((r.makespan - 4.0).abs() < 1e-12);
        assert!((r.comm_busy - 4.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod preemptive_tests {
    use super::*;

    /// A long low-priority collective is on the wire when an urgent one
    /// becomes ready: preemption lets the urgent one cut in.
    fn scenario(order: CommOrder) -> SimResult {
        let mut s = Sim::new(order);
        s.add(Task::comm("bulk", 10.0, 100));
        let bp = s.add(Task::compute("bp", 1.0));
        let urgent = s.add(Task::comm("urgent", 1.0, 0).after([bp]));
        s.add(Task::compute("fp", 1.0).after([urgent]));
        s.run()
    }

    #[test]
    fn preemption_unblocks_urgent_comm() {
        let prio = scenario(CommOrder::Priority);
        let pre = scenario(CommOrder::Preemptive);
        // Non-preemptive: fp waits for bulk (10) + urgent (1) + fp (1).
        assert!((prio.makespan - 12.0).abs() < 1e-9, "got {}", prio.makespan);
        // Preemptive: bulk is suspended at t=1; urgent runs 1..2; fp 2..3;
        // bulk resumes 2..11.
        assert!((pre.makespan - 11.0).abs() < 1e-9, "got {}", pre.makespan);
        let fp = pre.trace.first_start("fp").unwrap();
        assert!((fp - 2.0).abs() < 1e-9);
    }

    #[test]
    fn preempted_task_total_time_is_preserved() {
        let pre = scenario(CommOrder::Preemptive);
        // "bulk" executed in two spans totalling its full duration.
        let total: f64 =
            pre.trace.spans.iter().filter(|sp| sp.name == "bulk").map(|sp| sp.dur()).sum();
        assert!((total - 10.0).abs() < 1e-9, "split spans must sum to dur, got {total}");
        let n_spans = pre.trace.spans.iter().filter(|sp| sp.name == "bulk").count();
        assert_eq!(n_spans, 2, "expected exactly one preemption");
        // Busy accounting matches.
        assert!((pre.comm_busy - 11.0).abs() < 1e-9);
    }

    #[test]
    fn equal_priority_does_not_preempt() {
        let mut s = Sim::new(CommOrder::Preemptive);
        s.add(Task::comm("first", 5.0, 1));
        let bp = s.add(Task::compute("bp", 1.0));
        s.add(Task::comm("same-prio", 1.0, 1).after([bp]));
        let r = s.run();
        let spans: Vec<&Span> = r.trace.spans.iter().filter(|sp| sp.name == "first").collect();
        assert_eq!(spans.len(), 1, "no preemption between equal priorities");
    }

    #[test]
    fn preemptive_never_slower_than_priority() {
        // On the fig6-style scenario preemption can only help.
        let build = |order| {
            let mut s = Sim::new(order);
            let bp0 = s.add(Task::compute("bp0", 1.0));
            let _c0 = s.add(Task::comm("comm0", 6.0, 3).after([bp0]));
            let bp1 = s.add(Task::compute("bp1", 1.0).after([bp0]));
            let c1 = s.add(Task::comm("comm1", 2.0, 0).after([bp1]));
            s.add(Task::compute("fp", 1.0).after([c1]));
            s.run()
        };
        let prio = build(CommOrder::Priority);
        let pre = build(CommOrder::Preemptive);
        assert!(pre.makespan <= prio.makespan + 1e-12);
        assert!(pre.makespan < prio.makespan, "this scenario must actually improve");
    }

    #[test]
    fn multiple_preemptions_of_same_task() {
        let mut s = Sim::new(CommOrder::Preemptive);
        s.add(Task::comm("bulk", 10.0, 100));
        let mut prev = None;
        for k in 0..3 {
            let bp = match prev {
                None => s.add(Task::compute(format!("bp{k}"), 1.0)),
                Some(p) => s.add(Task::compute(format!("bp{k}"), 1.0).after([p])),
            };
            s.add(Task::comm(format!("urgent{k}"), 0.5, 0).after([bp]));
            prev = Some(bp);
        }
        let r = s.run();
        let total: f64 =
            r.trace.spans.iter().filter(|sp| sp.name == "bulk").map(|sp| sp.dur()).sum();
        assert!((total - 10.0).abs() < 1e-9);
        assert_eq!(r.trace.spans.iter().filter(|sp| sp.name == "bulk").count(), 4);
    }
}

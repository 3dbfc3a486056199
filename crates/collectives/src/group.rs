//! Launching SPMD worker groups.
//!
//! [`run_group`] spawns one thread per rank, hands each its mesh
//! [`Endpoint`], runs the provided closure and returns the per-rank results
//! in rank order — the same programming model as `horovodrun`-launched
//! training scripts.
//!
//! Two fault-aware variants:
//!
//! * [`run_group_with_faults`] — same join semantics, but the mesh is
//!   built from a [`FaultPlan`] and every endpoint carries a receive
//!   deadline, so rank closures can observe injected faults as typed
//!   errors;
//! * [`run_group_with_deadline`] — a deadlock watchdog: if the whole group
//!   has not completed within a wall-clock deadline, it reports which
//!   ranks were still stuck instead of hanging the caller forever.

use crate::transport::{mesh, mesh_with_faults, Endpoint, FaultPlan};
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f(rank, endpoint)` on `world` scoped threads; returns results in
/// rank order. Panics in any worker propagate.
pub fn run_group<R, F>(world: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Endpoint) -> R + Sync,
{
    run_group_on(mesh(world), f)
}

/// [`run_group`] over a mesh built from `plan` with `deadline` as every
/// endpoint's default receive deadline. With a non-`None` deadline, rank
/// closures using the `try_` collectives observe injected faults as typed
/// errors rather than hangs.
pub fn run_group_with_faults<R, F>(
    world: usize,
    plan: &FaultPlan,
    deadline: Option<Duration>,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Endpoint) -> R + Sync,
{
    run_group_on(mesh_with_faults(world, plan, deadline), f)
}

/// [`run_group`] over an explicit, already-constructed mesh. Results come
/// back in rank order; panics in any worker propagate.
pub fn run_group_on<R, F>(endpoints: Vec<Endpoint>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Endpoint) -> R + Sync,
{
    let world = endpoints.len();
    let mut results: Vec<Option<R>> = (0..world).map(|_| None).collect();
    crossbeam::thread::scope(|s| {
        let mut handles = Vec::with_capacity(world);
        for (rank, mut ep) in endpoints.into_iter().enumerate() {
            let f = &f;
            handles.push(s.spawn(move |_| (rank, f(rank, &mut ep))));
        }
        for h in handles {
            let (rank, r) = h.join().expect("worker thread panicked");
            results[rank] = Some(r);
        }
    })
    .expect("worker group panicked");
    results.into_iter().map(Option::unwrap).collect()
}

/// Why a deadline-guarded group run did not produce a full result set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupError {
    /// The group did not complete within the deadline; `stuck` lists the
    /// ranks that had not finished when the watchdog fired.
    DeadlineExceeded { deadline: Duration, stuck: Vec<usize> },
    /// A worker closure panicked.
    WorkerPanicked { rank: usize },
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::DeadlineExceeded { deadline, stuck } => {
                write!(f, "group deadline {deadline:?} exceeded; stuck ranks: {stuck:?}")
            }
            GroupError::WorkerPanicked { rank } => write!(f, "worker rank {rank} panicked"),
        }
    }
}

impl std::error::Error for GroupError {}

/// Deadlock watchdog around a group run: like [`run_group_with_faults`],
/// but if the whole group has not finished within `deadline` the call
/// returns [`GroupError::DeadlineExceeded`] naming the stuck ranks instead
/// of blocking the caller forever.
///
/// Because a genuinely stuck rank cannot be force-killed, its thread is
/// detached and leaked on timeout (it holds only its endpoint and a clone
/// of `f`); this is the same trade-off `pthread_cancel`-free runtimes make
/// and is why `f` must be `'static`. A rank that panics is reported as
/// [`GroupError::WorkerPanicked`] rather than unwinding into the caller.
pub fn run_group_with_deadline<R, F>(
    world: usize,
    plan: &FaultPlan,
    recv_deadline: Option<Duration>,
    deadline: Duration,
    f: F,
) -> Result<Vec<R>, GroupError>
where
    R: Send + 'static,
    F: Fn(usize, &mut Endpoint) -> R + Send + Sync + 'static,
{
    let endpoints = mesh_with_faults(world, plan, recv_deadline);
    let f = Arc::new(f);
    let (done_tx, done_rx) = mpsc::channel();
    for (rank, mut ep) in endpoints.into_iter().enumerate() {
        let f = Arc::clone(&f);
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(rank, &mut ep)));
            // The watchdog may have given up already; a closed channel
            // just means nobody is listening any more.
            let _ = done_tx.send((rank, outcome));
        });
    }
    drop(done_tx);

    let start = Instant::now();
    let mut results: Vec<Option<R>> = (0..world).map(|_| None).collect();
    let mut completed = 0;
    let mut panicked: Option<usize> = None;
    while completed < world {
        let remaining = deadline.saturating_sub(start.elapsed());
        match done_rx.recv_timeout(remaining) {
            Ok((rank, Ok(r))) => {
                results[rank] = Some(r);
                completed += 1;
            }
            Ok((rank, Err(_))) => {
                // Record the first panic but keep draining so surviving
                // ranks are not reported as stuck.
                panicked.get_or_insert(rank);
                completed += 1;
            }
            Err(_) => {
                let stuck: Vec<usize> = results
                    .iter()
                    .enumerate()
                    .filter(|(r, v)| v.is_none() && panicked != Some(*r))
                    .map(|(r, _)| r)
                    .collect();
                return Err(GroupError::DeadlineExceeded { deadline, stuck });
            }
        }
    }
    if let Some(rank) = panicked {
        return Err(GroupError::WorkerPanicked { rank });
    }
    Ok(results.into_iter().map(Option::unwrap).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Packet;

    #[test]
    fn results_in_rank_order() {
        let out = run_group(4, |rank, _ep| rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_rank_group() {
        let out = run_group(1, |rank, _ep| rank);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn workers_can_exchange() {
        let out = run_group(2, |rank, ep| {
            let peer = 1 - rank;
            ep.send(peer, Packet::Tokens(vec![rank as u32].into()));
            ep.recv(peer)
        });
        assert_eq!(out, [1, 0].map(|r| Packet::Tokens(vec![r].into())));
    }

    #[test]
    fn deadline_runner_passes_through_clean_groups() {
        let out = run_group_with_deadline(
            4,
            &FaultPlan::default(),
            None,
            Duration::from_secs(5),
            |rank, _ep| rank * 2,
        )
        .unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn deadline_runner_names_stuck_ranks() {
        // Ranks 1 and 3 wait on each other and neither sends — a true
        // deadlock: the watchdog must name exactly them.
        let err = run_group_with_deadline(
            4,
            &FaultPlan::default(),
            None,
            Duration::from_millis(100),
            |rank, ep| {
                if rank % 2 == 1 {
                    let _ = ep.try_recv(4 - rank);
                }
                rank
            },
        )
        .unwrap_err();
        match err {
            GroupError::DeadlineExceeded { stuck, .. } => assert_eq!(stuck, vec![1, 3]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadline_runner_reports_panics() {
        let err = run_group_with_deadline(
            3,
            &FaultPlan::default(),
            None,
            Duration::from_secs(5),
            |rank, _ep| {
                if rank == 2 {
                    panic!("injected");
                }
                rank
            },
        )
        .unwrap_err();
        assert_eq!(err, GroupError::WorkerPanicked { rank: 2 });
    }
}

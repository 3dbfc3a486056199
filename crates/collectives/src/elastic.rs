//! Elastic group membership over the threaded mesh.
//!
//! [`ElasticWorker`] wraps an [`Endpoint`] and implements [`Comm`] for a
//! *logical* group that can shrink while the underlying physical
//! mesh stays put. Membership is a sorted set of physical ranks plus a
//! monotonically increasing **epoch**; every payload the worker sends is
//! wrapped in [`Packet::Tagged`] with the current epoch, so the receiving
//! side can tell live traffic from leftovers of a previous group
//! incarnation:
//!
//! * tag == our epoch → deliver the inner packet;
//! * tag < our epoch → a straggling packet from before a re-form;
//!   silently dropped;
//! * tag > our epoch → *we* are the stale one — the group re-formed
//!   without us — surfaced as [`CommError::StaleEpoch`].
//!
//! # The re-form protocol (shrink)
//!
//! When a collective fails (`PeerGone` / `Timeout` / `Aborted`), every
//! survivor calls [`ElasticWorker::reform`]:
//!
//! 1. **Probe + report.** Send [`ReformMsg::Report`] to every current
//!    member. A send that fails with `PeerGone` proves the peer's endpoint
//!    is gone (crashed endpoints drop their channels); a send that
//!    succeeds marks the peer presumed-alive.
//! 2. **Coordinator election.** The minimum presumed-alive physical rank
//!    is coordinator. Deterministic — every survivor that observes the
//!    same failures elects the same coordinator; survivors that observe
//!    *different* failure sets converge via the failover loop below.
//! 3. **Gather.** The coordinator collects one current-epoch `Report`
//!    from each presumed-alive peer (messages stashed by
//!    [`Comm::try_recv`] mid-collective are consulted first), dropping
//!    peers that time out or disconnect.
//! 4. **Commit.** The coordinator sends [`ReformMsg::Commit`] — epoch+1
//!    and the sorted survivor set — to every member of the new group.
//!    Non-coordinators wait for the commit, dropping stale traffic; if
//!    the coordinator itself dies mid-re-form, they remove it from the
//!    candidate set and run another round (failover). A survivor whose
//!    commit does not name it is **evicted** ([`ElasticError::Evicted`]).
//!
//! Re-form messages are deliberately *untagged* so the handshake can
//! cross the epoch boundary; `Report`s carry the sender's epoch so
//! leftovers from an earlier re-form are filtered out.
//!
//! Known scope limit: if the coordinator dies *after* delivering the
//! commit to some survivors but not others, the two halves can commit
//! different epoch-N+1 memberships. The next collective between the
//! halves fails immediately (stale/newer epoch tags), which triggers
//! another re-form; full regression to a single group is the training
//! loop's checkpoint-restart fallback. The model checker covers the
//! crash-*before*-commit window (see `embrace-analyzer`).

use crate::transport::{Comm, CommError, Endpoint, Packet, ReformMsg};
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Fallback deadline for re-form receives when the endpoint has no
/// configured receive deadline.
const REFORM_DEADLINE: Duration = Duration::from_secs(1);

/// Why an elastic operation could not produce a new working group.
#[derive(Clone, Debug, PartialEq)]
pub enum ElasticError {
    /// The group committed a membership at `epoch` that excludes this
    /// rank.
    Evicted { epoch: u64 },
    /// A transport failure the re-form protocol could not route around
    /// (e.g. this rank's own injected crash).
    Comm(CommError),
}

impl From<CommError> for ElasticError {
    fn from(e: CommError) -> Self {
        ElasticError::Comm(e)
    }
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::Evicted { epoch } => {
                write!(f, "evicted from the group at epoch {epoch}")
            }
            ElasticError::Comm(e) => write!(f, "re-form failed: {e}"),
        }
    }
}

impl std::error::Error for ElasticError {}

/// The result of a successful membership change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReformOutcome {
    /// The committed epoch.
    pub epoch: u64,
    /// Sorted physical ranks of the new group.
    pub members: Vec<usize>,
    /// This rank's logical rank within the new group.
    pub rank: usize,
    /// The new logical world size.
    pub world: usize,
    /// Physical ranks that were members before and are not any more.
    pub removed: Vec<usize>,
}

/// A logical group membership over a physical [`Endpoint`]. See the
/// module docs for the protocol.
pub struct ElasticWorker<'a> {
    ep: &'a mut Endpoint,
    epoch: u64,
    /// Sorted physical ranks of the current group.
    members: Vec<usize>,
    /// Re-form messages that arrived (per physical peer) while a
    /// collective was mid-flight; `reform` consults these before reading
    /// the channel.
    stash: Vec<VecDeque<ReformMsg>>,
}

impl<'a> ElasticWorker<'a> {
    /// Wrap `ep` as a member of the full initial group (epoch 0, every
    /// physical rank a member).
    pub fn new(ep: &'a mut Endpoint) -> Self {
        let world = ep.world();
        ElasticWorker {
            ep,
            epoch: 0,
            members: (0..world).collect(),
            stash: (0..world).map(|_| VecDeque::new()).collect(),
        }
    }

    /// The current group epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sorted physical ranks of the current group.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This worker's physical rank (stable across re-forms).
    pub fn phys_rank(&self) -> usize {
        self.ep.rank()
    }

    /// Delegate to [`Endpoint::begin_step`] (fires crash-at-step faults).
    pub fn begin_step(&mut self) -> Result<u64, CommError> {
        self.ep.begin_step()
    }

    /// Direct access to the wrapped endpoint (counters, deadline).
    pub fn endpoint(&self) -> &Endpoint {
        self.ep
    }

    fn recv_deadline(&self) -> Duration {
        self.ep.deadline().unwrap_or(REFORM_DEADLINE)
    }

    fn logical_of(&self, phys: usize) -> usize {
        self.members.binary_search(&phys).expect("physical rank not in group")
    }

    /// Run the shrink re-form protocol after a failed collective. On
    /// success the worker speaks for its logical rank in the committed
    /// group; the caller must rebuild any world-size-dependent state.
    pub fn reform(&mut self) -> Result<ReformOutcome, ElasticError> {
        let me = self.ep.rank();
        let mut candidates: Vec<usize> = self.members.clone();
        loop {
            // Probe: a successful send marks the peer presumed-alive.
            let mut alive = vec![me];
            for &c in &candidates {
                if c == me {
                    continue;
                }
                let report = ReformMsg::Report { origin: me, epoch: self.epoch };
                match self.ep.try_send(c, Packet::Reform(report)) {
                    Ok(()) => alive.push(c),
                    Err(CommError::PeerGone { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            alive.sort_unstable();
            let coord = alive[0];
            if coord == me {
                // Gather one current-epoch report per presumed-alive peer;
                // peers that time out or disconnect drop out of the group.
                let mut committed = vec![me];
                for &p in alive.iter().skip(1) {
                    if self.await_report(p)? {
                        committed.push(p);
                    }
                }
                committed.sort_unstable();
                let next = self.epoch + 1;
                for &p in &committed {
                    if p == me {
                        continue;
                    }
                    let commit = ReformMsg::Commit { epoch: next, members: committed.clone() };
                    // A member dying between gather and commit surfaces on
                    // the group's next collective, which re-forms again.
                    let _ = self.ep.try_send(p, Packet::Reform(commit));
                }
                return Ok(self.adopt(next, committed));
            }
            match self.await_commit(coord)? {
                Some((epoch, members)) => {
                    if !members.contains(&me) {
                        self.members = members;
                        return Err(ElasticError::Evicted { epoch });
                    }
                    return Ok(self.adopt(epoch, members));
                }
                None => {
                    // Coordinator died mid-re-form: failover round without
                    // it. `alive` shrinks every round, so this terminates.
                    candidates = alive.into_iter().filter(|&c| c != coord).collect();
                }
            }
        }
    }

    /// Wait for `p`'s current-epoch report (stash first, then the wire).
    /// `Ok(false)` means `p` dropped out (timeout / disconnect).
    fn await_report(&mut self, p: usize) -> Result<bool, ElasticError> {
        while let Some(msg) = self.stash[p].pop_front() {
            match msg {
                ReformMsg::Report { epoch, .. } if epoch >= self.epoch => return Ok(true),
                _ => {}
            }
        }
        let deadline = self.recv_deadline();
        loop {
            match self.ep.recv_timeout(p, deadline) {
                Ok(Packet::Reform(ReformMsg::Report { epoch, .. })) if epoch >= self.epoch => {
                    return Ok(true)
                }
                // Stale reform leftovers and dead-collective payloads.
                Ok(_) => {}
                Err(CommError::Timeout { .. }) | Err(CommError::PeerGone { .. }) => {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Wait for a newer-epoch commit from `coord` (stash first, then the
    /// wire). `Ok(None)` means the coordinator died (failover needed).
    fn await_commit(&mut self, coord: usize) -> Result<Option<(u64, Vec<usize>)>, ElasticError> {
        while let Some(msg) = self.stash[coord].pop_front() {
            match msg {
                ReformMsg::Commit { epoch, members } if epoch > self.epoch => {
                    return Ok(Some((epoch, members)))
                }
                _ => {}
            }
        }
        let deadline = self.recv_deadline();
        loop {
            match self.ep.recv_timeout(coord, deadline) {
                Ok(Packet::Reform(ReformMsg::Commit { epoch, members })) if epoch > self.epoch => {
                    return Ok(Some((epoch, members)))
                }
                // The coordinator's own probe, stale reform leftovers, and
                // dead-collective payloads.
                Ok(_) => {}
                Err(CommError::Timeout { .. }) | Err(CommError::PeerGone { .. }) => {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn adopt(&mut self, epoch: u64, members: Vec<usize>) -> ReformOutcome {
        let removed: Vec<usize> =
            self.members.iter().copied().filter(|m| !members.contains(m)).collect();
        self.epoch = epoch;
        self.members = members;
        for q in &mut self.stash {
            q.retain(|m| m.epoch() >= epoch);
        }
        ReformOutcome {
            epoch,
            members: self.members.clone(),
            rank: self.logical_of(self.ep.rank()),
            world: self.members.len(),
            removed,
        }
    }
}

impl Comm for ElasticWorker<'_> {
    fn rank(&self) -> usize {
        self.logical_of(self.ep.rank())
    }

    fn world(&self) -> usize {
        self.members.len()
    }

    fn try_send(&mut self, to: usize, packet: Packet) -> Result<(), CommError> {
        let phys = self.members[to];
        self.ep.try_send(phys, Packet::Tagged { epoch: self.epoch, inner: Box::new(packet) })
    }

    fn try_recv(&mut self, from: usize) -> Result<Packet, CommError> {
        let phys = self.members[from];
        // A reform message stashed earlier means a re-form is pending:
        // keep failing the collective until `reform` consumes it.
        if self.stash[phys].iter().any(|m| m.epoch() >= self.epoch) {
            return Err(CommError::Aborted { origin: phys });
        }
        loop {
            match self.ep.try_recv(phys)? {
                Packet::Tagged { epoch, inner } => {
                    if epoch == self.epoch {
                        return Ok(*inner);
                    }
                    if epoch < self.epoch {
                        continue;
                    }
                    return Err(CommError::StaleEpoch { ours: self.epoch, theirs: epoch });
                }
                Packet::Reform(msg) => {
                    if msg.epoch() < self.epoch {
                        continue;
                    }
                    // A peer has started a re-form; surface it as an abort
                    // so the collective unwinds, and keep the message for
                    // `reform` to consume.
                    self.stash[phys].push_back(msg);
                    return Err(CommError::Aborted { origin: phys });
                }
                other => return Err(CommError::Protocol { expected: "Tagged", got: other.kind() }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{try_barrier, try_ring_allreduce};
    use crate::transport::{mesh, mesh_with_faults, FaultPlan};
    use std::thread;

    const DL: Duration = Duration::from_millis(500);

    #[test]
    fn tagged_traffic_round_trips_at_matching_epoch() {
        let mut eps = mesh(2);
        let mut b_ep = eps.pop().unwrap();
        let mut a_ep = eps.pop().unwrap();
        let mut a = ElasticWorker::new(&mut a_ep);
        let mut b = ElasticWorker::new(&mut b_ep);
        a.try_send(1, Packet::Tokens(vec![1, 2].into())).unwrap();
        assert_eq!(b.try_recv(0).unwrap().into_tokens(), vec![1, 2]);
    }

    #[test]
    fn older_epoch_dropped_newer_epoch_is_stale_error() {
        let mut eps = mesh(2);
        let mut b_ep = eps.pop().unwrap();
        let mut a_ep = eps.pop().unwrap();
        // Simulate a re-formed receiver: b is already at epoch 2.
        let mut b = ElasticWorker::new(&mut b_ep);
        b.epoch = 2;
        // Old-epoch leftover: silently dropped, then the live packet lands.
        a_ep.try_send(1, Packet::Tagged { epoch: 1, inner: Box::new(Packet::Empty) }).unwrap();
        a_ep.try_send(1, Packet::Tagged { epoch: 2, inner: Box::new(Packet::Empty) }).unwrap();
        assert_eq!(b.try_recv(0).unwrap(), Packet::Empty);
        // Newer-epoch packet: the receiver itself is stale.
        a_ep.try_send(1, Packet::Tagged { epoch: 7, inner: Box::new(Packet::Empty) }).unwrap();
        assert_eq!(b.try_recv(0), Err(CommError::StaleEpoch { ours: 2, theirs: 7 }));
    }

    #[test]
    fn reform_message_mid_collective_aborts_then_reforms() {
        let mut eps = mesh(2);
        let mut b_ep = eps.pop().unwrap();
        b_ep.set_deadline(Some(DL));
        let mut a_ep = eps.pop().unwrap();
        // Peer 0 starts a re-form while 1 is still mid-collective.
        a_ep.try_send(1, Packet::Reform(ReformMsg::Report { origin: 0, epoch: 0 })).unwrap();
        let mut b = ElasticWorker::new(&mut b_ep);
        assert_eq!(b.try_recv(0), Err(CommError::Aborted { origin: 0 }));
        // The stashed report keeps failing collectives until reform runs.
        assert_eq!(b.try_recv(0), Err(CommError::Aborted { origin: 0 }));
        // b reforms: probes 0, elects 0 coordinator, and waits for the
        // commit, which we play from a's endpoint.
        a_ep.try_send(1, Packet::Reform(ReformMsg::Commit { epoch: 1, members: vec![0, 1] }))
            .unwrap();
        let out = b.reform().unwrap();
        assert_eq!(
            out,
            ReformOutcome { epoch: 1, members: vec![0, 1], rank: 1, world: 2, removed: vec![] }
        );
    }

    #[test]
    fn reform_after_crash_commits_surviving_set() {
        let mut eps = mesh_with_faults(3, &FaultPlan::default(), Some(DL));
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b); // rank 1 dies
        let run = |mut ep: Endpoint, want_rank: usize| {
            move || {
                let mut w = ElasticWorker::new(&mut ep);
                let out = w.reform().unwrap();
                assert_eq!(out.members, vec![0, 2]);
                assert_eq!(out.epoch, 1);
                assert_eq!(out.rank, want_rank);
                assert_eq!(out.removed, vec![1]);
                // The re-formed group is immediately usable.
                let mut buf = [1.0f32, 2.0];
                try_ring_allreduce(&mut w, &mut buf).unwrap();
                assert_eq!(buf, [2.0, 4.0]);
            }
        };
        thread::scope(|s| {
            s.spawn(run(a, 0));
            s.spawn(run(c, 1));
        });
    }

    #[test]
    fn coordinator_death_during_reform_fails_over() {
        let mut eps = mesh_with_faults(3, &FaultPlan::default(), Some(DL));
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        thread::scope(|s| {
            // Rank 0 probes like a re-forming coordinator, then dies
            // before committing.
            s.spawn(move || {
                for p in 1..3 {
                    a.try_send(p, Packet::Reform(ReformMsg::Report { origin: 0, epoch: 0 }))
                        .unwrap();
                }
                thread::sleep(Duration::from_millis(50));
                a.crash();
            });
            for (ep, want_rank) in [(b, 0usize), (c, 1usize)] {
                let mut ep = ep;
                s.spawn(move || {
                    let mut w = ElasticWorker::new(&mut ep);
                    let out = w.reform().unwrap();
                    assert_eq!(out.members, vec![1, 2], "failover must exclude rank 0");
                    assert_eq!(out.epoch, 1);
                    assert_eq!(out.rank, want_rank);
                    try_barrier(&mut w).unwrap();
                });
            }
        });
    }

    #[test]
    fn shrink_mid_allreduce_then_retry_succeeds() {
        // Rank 2 dies on its 4th send — inside the ring allreduce.
        let plan = FaultPlan::new(1).crash_rank_at_op(2, 3);
        let eps = mesh_with_faults(4, &plan, Some(DL));
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .map(|mut ep| {
                    s.spawn(move || {
                        let mut w = ElasticWorker::new(&mut ep);
                        loop {
                            let mut buf = vec![(w.phys_rank() + 1) as f32; 12];
                            match try_ring_allreduce(&mut w, &mut buf) {
                                Ok(()) => return Ok((w.epoch(), w.world(), buf)),
                                Err(CommError::Injected { rank }) => {
                                    return Err(CommError::Injected { rank })
                                }
                                Err(_) => match w.reform() {
                                    Ok(_) => continue,
                                    Err(ElasticError::Comm(e)) => return Err(e),
                                    Err(ElasticError::Evicted { .. }) => {
                                        panic!("no eviction expected")
                                    }
                                },
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Survivors 0, 1, 3 re-formed to a 3-rank group and reduced
        // their fresh contributions: 1 + 2 + 4 = 7.
        for (rank, r) in results.iter().enumerate() {
            if rank == 2 {
                assert_eq!(r, &Err(CommError::Injected { rank: 2 }));
            } else {
                let (epoch, world, buf) = r.as_ref().unwrap();
                assert_eq!((*epoch, *world), (1, 3), "rank {rank}");
                assert!(buf.iter().all(|&v| v == 7.0), "rank {rank}: {buf:?}");
            }
        }
    }
}

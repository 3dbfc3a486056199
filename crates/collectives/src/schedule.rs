//! The one definition of every collective whose peers, order and ranges
//! depend on `(world, rank)` only: who sends which range to whom, in which
//! order.
//!
//! Four consumers read it and none re-derives it: the blocking ops and
//! the chunked scheduler ([`crate::ops`], [`crate::scheduler`]) execute
//! the typed forms below ([`barrier_rounds`], [`broadcast_fan`], [`Ring`],
//! [`fanout_peers`] / [`fanout_sources`] / [`fanout_pairs`]);
//! `embrace-analyzer`'s plan generators and model
//! checker consume the same forms lowered to [`Step`] lists by
//! [`Schedule::units`].
//!
//! # Two fan-out traversals
//!
//! A fan-out (allgather, alltoall) has one rotated peer list and two
//! ways to walk it. [`Traversal::Posted`] — every send, then every receive
//! in ascending source order — is what a whole-op call runs.
//! [`Traversal::Paired`] — unit `u` sends to peer `u` and receives from
//! the mirrored peer — is what the chunked scheduler steps, because a
//! preemption point needs matched send/receive counts on every link.
//! They are not interchangeable: run to completion, the paired order
//! measured 2.0–2.2× slower at world 4 and 2.9–3.2× at world 8 (every
//! blocking receive is a context switch), and draining posted receives
//! in rotated instead of ascending order +16–23 % at world 8.

use embrace_tensor::{row_partition, RowRange};
use std::ops::Range;

/// Every rank but `me`, ascending.
fn others(world: usize, me: usize) -> impl Iterator<Item = usize> {
    (0..world).filter(move |&r| r != me)
}

/// Dissemination barrier (Hensgen/Finkel/Manber): round `k` signals
/// `(rank + 2^k) mod N` and waits on `(rank − 2^k) mod N`, for ⌈log₂ N⌉
/// rounds. Yields `(to, from)` per round.
pub fn barrier_rounds(world: usize, rank: usize) -> impl Iterator<Item = (usize, usize)> {
    std::iter::successors(Some(1usize), |d| Some(d * 2))
        .take_while(move |&d| d < world)
        .map(move |d| ((rank + d) % world, (rank + world - d) % world))
}

/// Broadcast: the root's destinations in send order; every other rank
/// performs one receive from the root.
pub fn broadcast_fan(world: usize, root: usize) -> impl Iterator<Item = usize> {
    others(world, root)
}

/// One resumable unit of the ring allreduce: at most one send to the
/// successor and one receive from the predecessor, as ranges of the
/// caller's buffer. A received range is summed into place when `reduce`
/// (reduce-scatter phase), overwritten otherwise (allgather phase).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingUnit {
    pub send: Option<Range<usize>>,
    pub recv: Option<Range<usize>>,
    pub reduce: bool,
}

/// Which units of a [`Ring`] a collective runs: all of them, or one of the
/// allreduce's two phases.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum RingPart {
    /// Reduce-scatter, then all-gather: the sum everywhere.
    AllReduce,
    /// The first N−1 steps: afterwards [`Ring::owned`] holds the sum.
    ReduceScatter,
    /// The last N−1 steps: every rank's [`Ring::owned`] chunk to every rank.
    AllGather,
}

/// Ring allreduce of `elems` f32s (Patarasuk & Yuan): 2·(N−1) steps, step
/// `t` sending chunk `(rank − t) mod N` of [`row_partition`] and receiving
/// chunk `(rank − t − 1) mod N` — so what a step receives is what the next
/// step sends, across the phase boundary too. Each step is cut into
/// `seg`-element segments, one per unit; every rank runs the same
/// `⌈max chunk / seg⌉` units per step, so unit indices agree on both ends
/// of every link. Segment 0 of a step always exists (empty for an empty
/// chunk); later segments only where the chunk reaches them. `seg` at or
/// above the largest chunk is therefore exactly the whole-op ring.
///
/// The phases split at step N−1 ([`Ring::part`]). The last reduce-scatter
/// step receives chunk `(rank + 1) mod N` — [`Ring::owned`] — completing its
/// sum, and the first all-gather step sends it on; so a reduce-scatter, a
/// transform of the owned chunk, and an all-gather of the result equal the
/// allreduce followed by the transform, bit for bit.
#[derive(Clone, Debug)]
pub struct Ring {
    world: usize,
    rank: usize,
    chunks: Vec<RowRange>,
    seg: usize,
    per_step: usize,
}

impl Ring {
    pub fn new(world: usize, rank: usize, elems: usize, seg: usize) -> Self {
        assert!(seg > 0, "segment size must be positive");
        let chunks = row_partition(elems, world);
        let max_chunk = chunks.iter().map(RowRange::len).max().unwrap_or(0);
        let per_step = max_chunk.div_ceil(seg).max(1);
        Ring { world, rank, chunks, seg: seg.min(max_chunk), per_step }
    }

    /// One segment per step.
    pub fn whole(world: usize, rank: usize, elems: usize) -> Self {
        Ring::new(world, rank, elems, usize::MAX)
    }

    pub fn next(&self) -> usize {
        (self.rank + 1) % self.world
    }

    pub fn prev(&self) -> usize {
        (self.rank + self.world - 1) % self.world
    }

    /// Elements of the largest segment (a segment buffer's capacity).
    pub fn seg(&self) -> usize {
        self.seg
    }

    pub fn per_step(&self) -> usize {
        self.per_step
    }

    /// Total units; zero for a single-rank world.
    pub fn units(&self) -> usize {
        2 * (self.world - 1) * self.per_step
    }

    /// The units `part` runs: all of them, or the steps of one phase.
    pub fn part(&self, part: RingPart) -> Range<usize> {
        let half = (self.world - 1) * self.per_step;
        match part {
            RingPart::AllReduce => 0..self.units(),
            RingPart::ReduceScatter => 0..half,
            RingPart::AllGather => half..self.units(),
        }
    }

    /// The chunk of [`row_partition`] this rank's reduce-scatter leaves
    /// fully reduced and its all-gather sends first: chunk `(rank + 1) mod N`.
    pub fn owned(&self) -> Range<usize> {
        let c = self.chunks[(self.rank + 1) % self.world];
        c.start..c.end
    }

    /// [`Ring::owned`] cut as the ring cuts it: the ranges the last
    /// reduce-scatter step receives and the first all-gather step sends,
    /// in order — the owned chunk in one range per segment.
    pub fn owned_segments(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let chunk = (self.rank + 1) % self.world;
        (0..self.per_step).map_while(move |i| self.segment(chunk, i))
    }

    pub fn unit(&self, u: usize) -> RingUnit {
        let (step, i) = (u / self.per_step, u % self.per_step);
        let send_c = (self.rank + 2 * self.world - step) % self.world;
        let recv_c = (self.rank + 2 * self.world - step - 1) % self.world;
        RingUnit {
            send: self.segment(send_c, i),
            recv: self.segment(recv_c, i),
            reduce: step < self.world - 1,
        }
    }

    fn segment(&self, chunk: usize, i: usize) -> Option<Range<usize>> {
        let c = self.chunks[chunk];
        let lo = c.start + i * self.seg;
        (i == 0 || lo < c.end).then(|| lo..(lo + self.seg).min(c.end))
    }
}

/// A fan-out's peer list: rotated so no rank is flooded first. Both
/// traversals send in this order.
pub fn fanout_peers(world: usize, rank: usize) -> impl DoubleEndedIterator<Item = usize> {
    (1..world).map(move |off| (rank + off) % world)
}

/// Receive order of [`Traversal::Posted`]: ascending source.
pub fn fanout_sources(world: usize, rank: usize) -> impl Iterator<Item = usize> {
    others(world, rank)
}

/// `(to, from)` per unit of [`Traversal::Paired`]: the peer list zipped
/// with its mirror, so on every ordered link the sender's and receiver's
/// unit indices agree and each unit sends before it receives.
pub fn fanout_pairs(world: usize, rank: usize) -> impl Iterator<Item = (usize, usize)> {
    fanout_peers(world, rank).zip(fanout_peers(world, rank).rev())
}

/// How a fan-out walks its peer list (see the module docs).
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum Traversal {
    Posted,
    Paired,
}

/// What a [`Step`] moves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Zero-byte barrier signal.
    Signal,
    /// The broadcast root's message.
    Message,
    /// `buf[lo..hi]` of the ring's reduction buffer. A received range is
    /// summed into place when `reduce`, overwritten otherwise.
    Seg { lo: usize, hi: usize, reduce: bool },
    /// The block the sending rank holds for the receiving rank.
    Block,
}

/// One point-to-point operation of a rank's program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    Send { to: usize, payload: Payload },
    Recv { from: usize, payload: Payload },
}

/// A collective, for the analyses that want it as data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    Barrier,
    Broadcast { root: usize },
    Ring { elems: usize, seg: usize, part: RingPart },
    Fanout(Traversal),
}

impl Schedule {
    /// Rank `rank`'s program as resumable units of [`Step`]s — the typed
    /// forms above, flattened; a whole-op call is all units in order.
    pub fn units(&self, world: usize, rank: usize) -> Vec<Vec<Step>> {
        // A unit's optional send, then its optional receive, as `(peer, payload)`.
        let unit = |send: Option<(usize, Payload)>, recv: Option<(usize, Payload)>| -> Vec<Step> {
            let send = send.map(|(to, payload)| Step::Send { to, payload });
            let recv = recv.map(|(from, payload)| Step::Recv { from, payload });
            send.into_iter().chain(recv).collect()
        };
        let pair =
            |to, from, payload: Payload| unit(Some((to, payload.clone())), Some((from, payload)));
        match *self {
            Schedule::Barrier => barrier_rounds(world, rank)
                .map(|(to, from)| pair(to, from, Payload::Signal))
                .collect(),
            Schedule::Broadcast { root } if rank == root => vec![broadcast_fan(world, root)
                .map(|to| Step::Send { to, payload: Payload::Message })
                .collect()],
            Schedule::Broadcast { root } => {
                vec![vec![Step::Recv { from: root, payload: Payload::Message }]]
            }
            Schedule::Ring { elems, seg: seg_elems, part } => {
                let ring = Ring::new(world, rank, elems, seg_elems);
                ring.part(part)
                    .map(|u| {
                        let RingUnit { send, recv, reduce } = ring.unit(u);
                        let seg = |r: Range<usize>| Payload::Seg { lo: r.start, hi: r.end, reduce };
                        unit(
                            send.map(|r| (ring.next(), seg(r))),
                            recv.map(|r| (ring.prev(), seg(r))),
                        )
                    })
                    .collect()
            }
            Schedule::Fanout(Traversal::Posted) => vec![fanout_peers(world, rank)
                .map(|to| Step::Send { to, payload: Payload::Block })
                .chain(
                    fanout_sources(world, rank)
                        .map(|from| Step::Recv { from, payload: Payload::Block }),
                )
                .collect()],
            Schedule::Fanout(Traversal::Paired) => {
                fanout_pairs(world, rank).map(|(to, from)| pair(to, from, Payload::Block)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_group;
    use crate::ops::{self, FanoutMachine, RingMachine, SsarConfig};
    use crate::transport::{Endpoint, Packet, UNIT_HEADER_BYTES};
    use embrace_tensor::{DenseTensor, RowSparse, TokenBuf, F32_BYTES, INDEX_BYTES, TOKEN_BYTES};

    #[test]
    fn ring_units_forward_what_they_received() {
        // The property receive-fuse-forward rests on, and the one that
        // makes a ring link FIFO-consistent: unit (t, i) receives what
        // unit (t+1, i) sends, and what its predecessor's unit (t, i) sent.
        for world in [2, 3, 4, 5, 8] {
            for elems in [0, 1, world - 1, world, 4 * world + 3] {
                for seg in [1, 3, usize::MAX] {
                    let rings: Vec<Ring> =
                        (0..world).map(|r| Ring::new(world, r, elems, seg)).collect();
                    for ring in &rings {
                        assert_eq!(ring.units(), rings[0].units());
                        for u in 0..ring.units() {
                            let unit = ring.unit(u);
                            assert_eq!(unit.recv, rings[ring.prev()].unit(u).send);
                            if u + ring.per_step() < ring.units() {
                                assert_eq!(unit.recv, ring.unit(u + ring.per_step()).send);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paired_units_agree_on_both_ends_of_every_link() {
        for world in [1, 2, 3, 4, 5, 8] {
            for rank in 0..world {
                let mut sources: Vec<usize> = fanout_peers(world, rank).collect();
                sources.sort_unstable();
                assert!(sources.into_iter().eq(fanout_sources(world, rank)));
                for (u, (to, from)) in fanout_pairs(world, rank).enumerate() {
                    assert_eq!(fanout_pairs(world, to).nth(u).map(|(_, f)| f), Some(rank));
                    assert_eq!(fanout_pairs(world, from).nth(u).map(|(t, _)| t), Some(rank));
                }
            }
        }
    }

    /// Run `live` on a mesh and require every rank's per-peer
    /// `(msgs, bytes)` send counters to equal `schedule` sized by
    /// `bytes(src, dst, payload)` — the plan `embrace-analyzer` derives.
    fn assert_wire(
        world: usize,
        schedule: Schedule,
        bytes: impl Fn(usize, usize, &Payload) -> u64,
        live: impl Fn(usize, &mut Endpoint) + Sync,
    ) {
        let sent = run_group(world, |rank, ep| {
            live(rank, ep);
            (0..world).map(|to| (ep.msgs_sent_to(to), ep.bytes_sent_to(to))).collect::<Vec<_>>()
        });
        for (rank, sent) in sent.into_iter().enumerate() {
            let mut planned = vec![(0u64, 0u64); world];
            for step in schedule.units(world, rank).concat() {
                if let Step::Send { to, payload } = step {
                    planned[to].0 += 1;
                    planned[to].1 += bytes(rank, to, &payload);
                }
            }
            assert_eq!(sent, planned, "{schedule:?} world {world} rank {rank}");
        }
    }

    /// Wire bytes of a ring segment payload: its header and its elements.
    fn seg_bytes(payload: &Payload) -> u64 {
        let Payload::Seg { lo, hi, .. } = payload else { panic!("{payload:?}") };
        (UNIT_HEADER_BYTES + (hi - lo) * F32_BYTES) as u64
    }

    #[test]
    fn live_ops_put_exactly_the_schedule_on_the_wire() {
        for world in [1, 2, 3, 4, 5, 8] {
            assert_wire(world, Schedule::Barrier, |_, _, _| 0, |_, ep| ops::barrier(ep));

            let root = world - 1;
            let msg = (3 * TOKEN_BYTES) as u64;
            assert_wire(
                world,
                Schedule::Broadcast { root },
                |_, _, _| msg,
                |rank, ep| {
                    let payload = (rank == root).then(|| Packet::Tokens(vec![7, 8, 9].into()));
                    ops::broadcast(ep, root, payload);
                },
            );

            // Fewer elements than ranks (empty chunks) and uneven chunks;
            // the allreduce and each of its phases, whole, then the stepped
            // machine at every cut.
            for elems in [world.saturating_sub(1), 2 * world + 3] {
                let input = |rank: usize| (0..elems).map(|i| (rank + i) as f32).collect::<Vec<_>>();
                for part in [RingPart::AllReduce, RingPart::ReduceScatter, RingPart::AllGather] {
                    let whole = Schedule::Ring { elems, seg: usize::MAX, part };
                    assert_wire(
                        world,
                        whole,
                        |_, _, p| seg_bytes(p),
                        |rank, ep| {
                            ops::try_ring_part(ep, &mut input(rank), part).expect("fault-free mesh")
                        },
                    );
                    for seg in [1, 3, elems.div_ceil(world).max(1), elems + 1] {
                        let cut = Schedule::Ring { elems, seg, part };
                        assert_wire(
                            world,
                            cut,
                            |_, _, p| seg_bytes(p),
                            |rank, ep| {
                                let mut buf = input(rank);
                                let ring = Ring::new(world, rank, elems, seg);
                                let mut m = RingMachine::new(ring, part, Vec::new());
                                m.run(ep, &mut ops::RingBuf::Lent(&mut buf), 0)
                                    .expect("fault-free mesh");
                            },
                        );
                    }
                }
            }

            // The sparse allreduce: a posted fan-out of each rank's
            // coalesced block (rank `r` holds rows `0..=r`, row 0 twice),
            // whichever representation its result takes.
            let dim = 3;
            for crossover in [2.0, 0.0] {
                let block = |src: usize, _, _: &Payload| {
                    (UNIT_HEADER_BYTES + (src + 1) * (INDEX_BYTES + dim * F32_BYTES)) as u64
                };
                assert_wire(world, Schedule::Fanout(Traversal::Posted), block, |rank, ep| {
                    let rows: Vec<u32> = (0..=rank as u32).chain([0]).collect();
                    let grad = RowSparse::new(rows, DenseTensor::full(rank + 2, dim, 1.0));
                    ops::sparse_allreduce(ep, &grad, &SsarConfig { vocab: world, crossover });
                });
            }

            // Allgather of rank-dependent lengths, both traversals.
            let tokens = |rank: usize| TokenBuf::from(vec![rank as u32; rank + 1]);
            let gathered =
                |src: usize, _, _: &Payload| (UNIT_HEADER_BYTES + (src + 1) * TOKEN_BYTES) as u64;
            assert_wire(world, Schedule::Fanout(Traversal::Posted), gathered, |rank, ep| {
                ops::allgather_tokens(ep, tokens(rank).to_vec());
            });
            // Alltoall of (src + dst + 1)-element blocks, both traversals.
            let parts = |rank: usize| -> Vec<DenseTensor> {
                (0..world).map(|dst| DenseTensor::full(1, rank + dst + 1, rank as f32)).collect()
            };
            let exchanged = |src: usize, dst: usize, _: &Payload| {
                (UNIT_HEADER_BYTES + (src + dst + 1) * F32_BYTES) as u64
            };
            assert_wire(world, Schedule::Fanout(Traversal::Posted), exchanged, |rank, ep| {
                ops::alltoall_dense(ep, parts(rank));
            });
            if world > 1 {
                assert_wire(world, Schedule::Fanout(Traversal::Paired), gathered, |rank, ep| {
                    let parts = (0..world).map(|_| tokens(rank)).collect();
                    let mut m = FanoutMachine::new(ep, parts, Traversal::Paired);
                    while m.step(ep, 0).expect("fault-free mesh").is_none() {}
                });
                assert_wire(world, Schedule::Fanout(Traversal::Paired), exchanged, |rank, ep| {
                    let mut m = FanoutMachine::new(ep, parts(rank), Traversal::Paired);
                    while m.step(ep, 0).expect("fault-free mesh").is_none() {}
                });
            }
        }
    }
}

//! The one definition of every collective whose peers, order and ranges
//! depend on `(world, rank)` only: who sends which range to whom, in which
//! order. The split allreduce is one of them — only its message *sizes*
//! depend on the data.
//!
//! Four consumers read it and none re-derives it: the blocking ops and
//! the chunked scheduler ([`crate::ops`], [`crate::scheduler`]) execute
//! the typed forms below ([`barrier_rounds`], [`broadcast_fan`], [`Ring`],
//! [`fanout_peers`] / [`fanout_sources`] / [`fanout_pairs`],
//! [`ssar_rounds`]); `embrace-analyzer`'s plan generators and model
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

/// Largest power of two `<= n` (requires `n >= 1`).
pub fn prev_pow2(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << n.ilog2()
}

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

/// One message of the split allreduce: the peer, and the vocabulary row
/// ranges it carries — one wire segment per range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsarMsg {
    pub peer: usize,
    pub rows: Vec<Range<usize>>,
}

/// One round of [`ssar_rounds`]: at most one send, then at most one
/// receive. Entering a `reduce` round a rank holds one range: the single
/// range it sends leaves it, and the single range it receives — the part
/// it keeps — is summed in. In any other round it sends everything it
/// holds and adds what it receives to that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsarRound {
    pub send: Option<SsarMsg>,
    pub recv: Option<SsarMsg>,
    pub reduce: bool,
}

impl SsarRound {
    /// Where a reduce-scatter round splits the held range, and whether the
    /// lower half is the one kept; `None` for every other round.
    pub fn halving(&self) -> Option<(usize, bool)> {
        let (kept, sent) = (&self.recv.as_ref()?.rows[0], &self.send.as_ref()?.rows[0]);
        // The half that ends where the other starts is the lower one.
        let keep_low = kept.end <= sent.start;
        self.reduce.then_some((if keep_low { kept.end } else { kept.start }, keep_low))
    }
}

/// Sparse split allreduce (SparCML's SSAR) over `vocab` rows. With `p` the
/// largest power of two `<= world` and `extra = world − p`:
///
/// 1. *fold-in* (`extra > 0`): rank `r >= p` sends all rows to `r − p`;
/// 2. *recursive-halving reduce-scatter*, distances `d = 1, 2, …, p/2`:
///    partners `r ^ d` hold the same range and split it at its midpoint,
///    the rank with bit `d` clear keeping the lower half;
/// 3. *recursive-doubling allgather*, the same distances again: partners
///    swap every reduced range they have gathered so far;
/// 4. *fold-out*: rank `r < extra` sends all `p` reduced ranges to `r + p`.
///
/// Every rank gets the same number of rounds (ranks a round does not
/// involve get an empty one), so round indices agree across the group.
pub fn ssar_rounds(world: usize, rank: usize, vocab: usize) -> Vec<SsarRound> {
    let p = prev_pow2(world);
    let extra = world - p;
    let distances = || (0..p.trailing_zeros()).map(|bit| 1usize << bit);
    // Rows rank `r < p` holds once the reduce-scatter has run every distance
    // below `d`.
    let held = |r: usize, d: usize| {
        let (mut lo, mut hi) = (0, vocab);
        for bit in distances().take_while(|&bit| bit < d) {
            let mid = lo + (hi - lo) / 2;
            if r & bit == 0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo..hi
    };
    let reduced: Vec<Range<usize>> = (0..p).map(|r| held(r, p)).collect();
    // What rank `r < p` has gathered before the allgather exchange at
    // distance `d`: its own reduced range, then its partners' lists in
    // arrival order.
    let gathered = |r: usize, d: usize| (0..d).map(|m| reduced[r ^ m].clone()).collect();
    let msg = |peer, rows| Some(SsarMsg { peer, rows });
    // The fold rounds pair rank `r >= p` with `r − p`.
    let folded = if rank >= p {
        Some(rank - p)
    } else if rank < extra {
        Some(rank + p)
    } else {
        None
    };
    let mut rounds = Vec::new();
    if extra > 0 {
        let every_row = 0..vocab;
        let all = folded.and_then(|peer| msg(peer, vec![every_row]));
        let (send, recv) = if rank >= p { (all, None) } else { (None, all) };
        rounds.push(SsarRound { send, recv, reduce: true });
    }
    for reduce in [true, false] {
        for d in distances() {
            let peer = rank ^ d;
            let (send, recv) = if rank >= p {
                (None, None)
            } else if reduce {
                (msg(peer, vec![held(peer, 2 * d)]), msg(peer, vec![held(rank, 2 * d)]))
            } else {
                (msg(peer, gathered(rank, d)), msg(peer, gathered(peer, d)))
            };
            rounds.push(SsarRound { send, recv, reduce });
        }
    }
    if extra > 0 {
        let result = folded.and_then(|peer| msg(peer, gathered(rank.min(peer), p)));
        let (send, recv) = if rank >= p { (None, result) } else { (result, None) };
        rounds.push(SsarRound { send, recv, reduce: false });
    }
    rounds
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
    /// `buf[lo..hi]` of the reduction buffer — elements of the ring's, rows
    /// of the split allreduce's. A received range is summed into place when
    /// `reduce`, overwritten otherwise.
    Seg { lo: usize, hi: usize, reduce: bool },
    /// Several such ranges in one message, back to back: an [`SsarMsg`] of
    /// a gather round.
    Segs { ranges: Vec<Range<usize>>, reduce: bool },
    /// The block the sending rank holds for the receiving rank.
    Block,
}

impl Payload {
    /// The buffer ranges a [`Payload::Seg`] or [`Payload::Segs`] moves, in
    /// wire order; nothing for the other payloads.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let (one, many) = match self {
            Payload::Seg { lo, hi, .. } => (Some(*lo..*hi), &[][..]),
            Payload::Segs { ranges, .. } => (None, &ranges[..]),
            _ => (None, &[][..]),
        };
        one.into_iter().chain(many.iter().cloned())
    }
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
    Ssar { vocab: usize },
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
            Schedule::Ssar { vocab } => ssar_rounds(world, rank, vocab)
                .into_iter()
                .map(|SsarRound { send, recv, reduce }| {
                    let segs = |m: SsarMsg| match m.rows[..] {
                        [Range { start: lo, end: hi }] => (m.peer, Payload::Seg { lo, hi, reduce }),
                        _ => (m.peer, Payload::Segs { ranges: m.rows, reduce }),
                    };
                    unit(send.map(segs), recv.map(segs))
                })
                .collect(),
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
    use crate::transport::{Endpoint, Packet, SEG_HEADER_BYTES, UNIT_HEADER_BYTES};
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

    #[test]
    fn ssar_rounds_agree_on_both_ends_and_gather_every_row_once() {
        for world in [1, 2, 3, 4, 5, 6, 8, 13, 16] {
            for vocab in [0, 1, 5, 8, 24] {
                let rounds: Vec<_> = (0..world).map(|r| ssar_rounds(world, r, vocab)).collect();
                for (rank, mine) in rounds.iter().enumerate() {
                    assert_eq!(mine.len(), rounds[0].len(), "world {world} rank {rank}");
                    let every_row = 0..vocab;
                    let mut held = vec![every_row];
                    for (t, round) in mine.iter().enumerate() {
                        if let Some(SsarMsg { peer, rows }) = &round.send {
                            let got = rounds[*peer][t].recv.as_ref().expect("peer receives");
                            assert_eq!(
                                (got.peer, &got.rows),
                                (rank, rows),
                                "world {world} round {t}"
                            );
                            assert_eq!(round.reduce, rounds[*peer][t].reduce);
                            if round.reduce {
                                // The sent and the kept range split what was held.
                                let kept = round.recv.iter().flat_map(|m| m.rows.clone());
                                let mut halves: Vec<_> = kept.chain(rows.clone()).collect();
                                halves.sort_by_key(|r| (r.start, r.end));
                                let (lo, hi) = (halves[0].start, halves[halves.len() - 1].end);
                                assert_eq!(vec![lo..hi], held);
                                assert!(halves.windows(2).all(|w| w[0].end == w[1].start));
                                held.clear();
                            } else {
                                assert_eq!(rows, &held, "a gather round sends all that is held");
                            }
                        }
                        if let Some(msg) = &round.recv {
                            assert!(rounds[msg.peer][t].send.is_some(), "world {world} round {t}");
                            if round.reduce {
                                held.clone_from(&msg.rows);
                            } else {
                                held.extend(msg.rows.iter().cloned());
                            }
                        }
                    }
                    held.sort_by_key(|r| (r.start, r.end));
                    assert_eq!((held[0].start, held[held.len() - 1].end), (0, vocab));
                    assert!(held.windows(2).all(|w| w[0].end == w[1].start), "{held:?}");
                }
            }
        }
    }

    #[test]
    fn prev_pow2_rounds_down() {
        for (n, p) in [(1, 1), (2, 2), (3, 2), (4, 4), (7, 4), (8, 8), (1000, 512)] {
            assert_eq!(prev_pow2(n), p);
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

    /// Wire bytes of a segment payload: `header` per range plus `unit`
    /// per element or row.
    fn seg_bytes(payload: &Payload, header: usize, unit: usize) -> u64 {
        assert!(matches!(payload, Payload::Seg { .. } | Payload::Segs { .. }), "{payload:?}");
        payload.ranges().map(|r| (header + r.len() * unit) as u64).sum()
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
                        |_, _, p| seg_bytes(p, UNIT_HEADER_BYTES, F32_BYTES),
                        |rank, ep| {
                            ops::try_ring_part(ep, &mut input(rank), part).expect("fault-free mesh")
                        },
                    );
                    for seg in [1, 3, elems.div_ceil(world).max(1), elems + 1] {
                        let cut = Schedule::Ring { elems, seg, part };
                        assert_wire(
                            world,
                            cut,
                            |_, _, p| seg_bytes(p, UNIT_HEADER_BYTES, F32_BYTES),
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

            // The split allreduce in its three representation modes, on
            // inputs whose segment sizes follow from the row ranges alone:
            // never dense and always dense (every rank holds every row),
            // dense from step 0 (strided rows).
            let (vocab, dim) = (24, 3);
            let sparse_row = INDEX_BYTES + dim * F32_BYTES;
            for (crossover, stride, row) in
                [(2.0, 1, sparse_row), (0.5, 1, dim * F32_BYTES), (0.0, 3, dim * F32_BYTES)]
            {
                assert_wire(
                    world,
                    Schedule::Ssar { vocab },
                    |_, _, p| seg_bytes(p, SEG_HEADER_BYTES, row),
                    |rank, ep| {
                        let first = (rank % stride) as u32;
                        let rows: Vec<u32> = (first..vocab as u32).step_by(stride).collect();
                        let grad =
                            RowSparse::new(rows.clone(), DenseTensor::full(rows.len(), dim, 1.0));
                        ops::sparse_allreduce(ep, &grad, &SsarConfig { vocab, crossover });
                    },
                );
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

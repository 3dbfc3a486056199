//! Thread-local accounting of tensor-buffer heap allocations.
//!
//! A counting `GlobalAlloc` is off the table (`#![forbid(unsafe_code)]`
//! workspace-wide), so allocation discipline is asserted one level up:
//! every code path in this crate that materialises a fresh `f32`/index
//! buffer — construction, copy-on-write of shared storage, a reused row
//! buffer too small for its row — reports the event here. Collective
//! algorithms that promise steady-state allocation-freedom (the
//! scratch-buffer ring in `embrace-collectives`) are tested against these
//! counters: the per-call delta must be a small constant, independent of
//! world size, step count and payload length.
//!
//! Counters are thread-local on purpose: SPMD workers each run on their
//! own thread, so a rank closure observes exactly its own allocations
//! with no cross-rank (or cross-test) interference.

use std::cell::Cell;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Zero this thread's counters.
pub fn reset() {
    EVENTS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
}

/// Buffer-materialisation events on this thread since the last [`reset`].
pub fn events() -> u64 {
    EVENTS.with(Cell::get)
}

/// Bytes materialised on this thread since the last [`reset`].
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Record one buffer materialisation of `nbytes`. Zero-sized buffers are
/// not counted — `Vec` does not touch the heap for them.
pub(crate) fn note(nbytes: usize) {
    if nbytes == 0 {
        return;
    }
    EVENTS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + nbytes as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_accumulates_and_reset_clears() {
        reset();
        note(16);
        note(0); // zero-sized: ignored
        note(4);
        assert_eq!(events(), 2);
        assert_eq!(bytes(), 20);
        reset();
        assert_eq!(events(), 0);
        assert_eq!(bytes(), 0);
    }
}

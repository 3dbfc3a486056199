//! Thread-local span recorder with an RAII guard.
//!
//! Hot paths (the SPMD collectives in `embrace-collectives`) call
//! [`span`] unconditionally; when no recorder is installed on the
//! current thread the guard is a no-op costing one thread-local read,
//! so instrumentation never perturbs un-observed runs. A worker opts in
//! with [`install`], runs, then harvests its spans with [`take`].
//!
//! Timestamps are `Wall` domain, anchored at the [`install`] call so
//! every span set starts near 0.0.

use crate::clock::{ClockDomain, WallClock};
use crate::span::{SpanSet, TrackId};
use std::cell::RefCell;

struct ThreadRecorder {
    set: SpanSet,
    track: TrackId,
    clock: WallClock,
}

thread_local! {
    static RECORDER: RefCell<Option<ThreadRecorder>> = const { RefCell::new(None) };
}

/// Install a recorder on the current thread with a single track named
/// `label` (e.g. `"rank0"`). Replaces any previous recorder, discarding
/// its spans.
pub fn install(label: &str) {
    let mut set = SpanSet::new(ClockDomain::Wall);
    let track = set.add_track(label);
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(ThreadRecorder { set, track, clock: WallClock::new() });
    });
}

/// Remove the current thread's recorder and return its spans.
pub fn take() -> Option<SpanSet> {
    RECORDER.with(|r| r.borrow_mut().take()).map(|rec| rec.set)
}

/// RAII guard closing the span opened by [`span`] when dropped.
/// `armed` remembers whether a recorder existed at open time, so a
/// guard created before `take()` does not close spans of a recorder
/// installed afterwards.
#[must_use = "span guard closes its span on drop"]
pub struct SpanGuard {
    armed: bool,
}

/// Open a span on the current thread's recorder (no-op guard when none
/// is installed).
pub fn span(name: &str, cat: &str) -> SpanGuard {
    let armed = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(rec) = r.as_mut() {
            let t = rec.clock.now();
            rec.set.begin(rec.track, name, cat, t);
            true
        } else {
            false
        }
    });
    SpanGuard { armed }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(rec) = r.as_mut() {
                if rec.set.open_depth(rec.track) > 0 {
                    let t = rec.clock.now();
                    rec.set.end(rec.track, t);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_recorder_means_noop() {
        assert!(take().is_none());
        {
            let _g = span("unrecorded", "x");
        }
        assert!(take().is_none());
    }

    #[test]
    fn records_nested_spans() {
        install("worker");
        {
            let _outer = span("step", "train");
            let _inner = span("allreduce", "collective");
        }
        let set = take().expect("recorder installed");
        assert!(take().is_none());
        set.check_well_nested().expect("nested");
        assert_eq!(
            set.structure(),
            vec!["worker|d0|train|step".to_string(), "worker|d1|collective|allreduce".to_string()]
        );
    }

    #[test]
    fn threads_are_independent() {
        install("main-thread");
        let handle = std::thread::spawn(|| {
            assert!(take().is_none());
            install("child");
            let _g = span("child-op", "x");
            drop(_g);
            take().expect("child recorder").len()
        });
        assert_eq!(handle.join().expect("join"), 1);
        let _g = span("main-op", "x");
        drop(_g);
        assert_eq!(take().expect("main recorder").len(), 1);
    }

    #[test]
    fn guard_survives_take_mid_span() {
        install("w");
        let g = span("op", "x");
        let set = take().expect("taken while span open");
        assert_eq!(set.len(), 1);
        drop(g); // must not panic or touch a new recorder
        install("w2");
        drop(span("op2", "x"));
        assert_eq!(take().expect("w2").len(), 1);
    }
}

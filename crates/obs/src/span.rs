//! Hierarchical spans on named tracks.
//!
//! A [`SpanSet`] holds closed intervals `[start, end]` grouped by
//! *track* (one track per thread, rank, or DES resource). Spans opened
//! with [`SpanSet::begin`] / closed with [`SpanSet::end`] form a stack
//! per track, so nesting depth is recorded explicitly; fully-formed
//! spans (e.g. converted from a DES trace) enter via
//! [`SpanSet::record`]. Well-nestedness — on any track, two spans are
//! either disjoint or one contains the other — is a checked invariant
//! ([`SpanSet::check_well_nested`]), and [`SpanSet::structure`] projects
//! the set to a timing-free form for determinism comparisons.

use crate::clock::ClockDomain;

/// Index of a track within its [`SpanSet`].
pub type TrackId = usize;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub track: TrackId,
    pub name: String,
    /// Category — coarse grouping used for trace colouring (e.g. `"fp"`,
    /// `"bp"`, `"collective"`).
    pub cat: String,
    /// Start time, in the owning set's clock domain (seconds).
    pub start: f64,
    /// End time (seconds). `NaN` while the span is still open.
    pub end: f64,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
}

impl SpanRec {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A set of spans over named tracks, all in one [`ClockDomain`].
#[derive(Clone, Debug)]
pub struct SpanSet {
    domain: ClockDomain,
    tracks: Vec<String>,
    spans: Vec<SpanRec>,
    /// Per-track stack of indices into `spans` still awaiting `end`.
    open: Vec<Vec<usize>>,
}

impl SpanSet {
    pub fn new(domain: ClockDomain) -> Self {
        SpanSet { domain, tracks: Vec::new(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn domain(&self) -> ClockDomain {
        self.domain
    }

    /// Add a track (a row in the trace viewer); returns its id.
    pub fn add_track(&mut self, name: &str) -> TrackId {
        self.tracks.push(name.to_string());
        self.open.push(Vec::new());
        self.tracks.len() - 1
    }

    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    pub fn track_name(&self, id: TrackId) -> &str {
        &self.tracks[id]
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Open a span on `track` at time `t`; its depth is the number of
    /// spans currently open on that track.
    pub fn begin(&mut self, track: TrackId, name: &str, cat: &str, t: f64) {
        let depth = self.open[track].len();
        self.spans.push(SpanRec {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            start: t,
            end: f64::NAN,
            depth,
        });
        let idx = self.spans.len() - 1;
        self.open[track].push(idx);
    }

    /// Close the innermost open span on `track` at time `t`.
    pub fn end(&mut self, track: TrackId, t: f64) {
        let idx = self.open[track].pop().expect("SpanSet::end with no open span on track");
        let s = &mut self.spans[idx];
        s.end = if t < s.start { s.start } else { t };
    }

    /// Number of spans still open on `track`.
    pub fn open_depth(&self, track: TrackId) -> usize {
        self.open[track].len()
    }

    /// Record a fully-formed span; its depth is the current open depth
    /// on that track (0 for flat traces such as DES resource rows).
    pub fn record(&mut self, track: TrackId, name: &str, cat: &str, start: f64, end: f64) {
        let depth = self.open[track].len();
        self.spans.push(SpanRec {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            start,
            end: if end < start { start } else { end },
            depth,
        });
    }

    /// Latest end time over all spans (0.0 if empty).
    pub fn max_end(&self) -> f64 {
        self.spans.iter().map(|s| s.end).filter(|e| e.is_finite()).fold(0.0, f64::max)
    }

    /// Check the well-nesting invariant: on every track, all spans are
    /// closed and any two are disjoint or one contains the other.
    pub fn check_well_nested(&self) -> Result<(), String> {
        for tid in 0..self.tracks.len() {
            if !self.open[tid].is_empty() {
                return Err(format!(
                    "track '{}': {} span(s) still open",
                    self.tracks[tid],
                    self.open[tid].len()
                ));
            }
            let mut spans: Vec<&SpanRec> = self.spans.iter().filter(|s| s.track == tid).collect();
            if let Some(s) = spans.iter().find(|s| !s.start.is_finite() || !s.end.is_finite()) {
                return Err(format!(
                    "track '{}': span '{}' has non-finite bounds",
                    self.tracks[tid], s.name
                ));
            }
            // Sort by start, longest-first on ties, so containment maps
            // to stack discipline.
            spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
            let mut stack: Vec<&SpanRec> = Vec::new();
            for s in spans {
                while let Some(top) = stack.last() {
                    if top.end <= s.start {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last() {
                    if s.end > top.end {
                        return Err(format!(
                            "track '{}': span '{}' [{:.9}, {:.9}] partially overlaps '{}' [{:.9}, {:.9}]",
                            self.tracks[tid], s.name, s.start, s.end, top.name, top.start, top.end
                        ));
                    }
                }
                stack.push(s);
            }
        }
        Ok(())
    }

    /// Timing-free projection: one line per span in record order —
    /// `track|d<depth>|<cat>|<name>`. Two runs with identical structure
    /// did the same operations in the same order on each track,
    /// regardless of how long each took.
    pub fn structure(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| format!("{}|d{}|{}|{}", self.tracks[s.track], s.depth, s.cat, s.name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_tracks_depth() {
        let mut set = SpanSet::new(ClockDomain::Virtual);
        let t = set.add_track("worker");
        set.begin(t, "step", "train", 0.0);
        set.begin(t, "fp", "compute", 0.1);
        set.end(t, 0.4);
        set.begin(t, "bp", "compute", 0.4);
        set.end(t, 0.9);
        set.end(t, 1.0);
        assert_eq!(set.len(), 3);
        assert_eq!(set.spans()[0].depth, 0);
        assert_eq!(set.spans()[1].depth, 1);
        assert_eq!(set.spans()[2].depth, 1);
        set.check_well_nested().expect("well nested");
        assert!((set.max_end() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn open_span_fails_nesting_check() {
        let mut set = SpanSet::new(ClockDomain::Wall);
        let t = set.add_track("w");
        set.begin(t, "dangling", "x", 0.0);
        assert!(set.check_well_nested().is_err());
    }

    #[test]
    fn partial_overlap_is_rejected() {
        let mut set = SpanSet::new(ClockDomain::Virtual);
        let t = set.add_track("w");
        set.record(t, "a", "x", 0.0, 2.0);
        set.record(t, "b", "x", 1.0, 3.0);
        let err = set.check_well_nested().expect_err("overlap");
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn disjoint_and_contained_spans_pass() {
        let mut set = SpanSet::new(ClockDomain::Virtual);
        let t = set.add_track("w");
        set.record(t, "outer", "x", 0.0, 5.0);
        set.record(t, "inner", "x", 1.0, 2.0);
        set.record(t, "inner2", "x", 2.0, 5.0);
        set.record(t, "later", "x", 6.0, 7.0);
        set.check_well_nested().expect("ok");
    }

    #[test]
    fn structure_ignores_times() {
        let mut a = SpanSet::new(ClockDomain::Wall);
        let ta = a.add_track("r0");
        a.record(ta, "allreduce", "collective", 0.0, 1.0);
        let mut b = SpanSet::new(ClockDomain::Wall);
        let tb = b.add_track("r0");
        b.record(tb, "allreduce", "collective", 5.0, 9.0);
        assert_eq!(a.structure(), b.structure());
        assert_eq!(a.structure(), vec!["r0|d0|collective|allreduce".to_string()]);
    }

    #[test]
    fn end_clamps_backwards_clock() {
        let mut set = SpanSet::new(ClockDomain::Wall);
        let t = set.add_track("w");
        set.begin(t, "s", "x", 1.0);
        set.end(t, 0.5);
        assert_eq!(set.spans()[0].dur(), 0.0);
    }
}

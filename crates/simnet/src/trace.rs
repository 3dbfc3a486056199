//! Execution traces: per-task spans plus an ASCII Gantt renderer used by the
//! `fig6_timeline` bench binary to reproduce the paper's Figure 2/6
//! execution-timeline comparisons.

use crate::event::{QueueSample, Res, TaskId};
use embrace_obs::{ClockDomain, CounterSeries, SpanSet};

/// One executed task occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub task: TaskId,
    pub name: String,
    pub res: Res,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// All spans of one simulation, in start order per stream.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Spans on one resource, sorted by start time.
    pub fn on(&self, res: Res) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.res == res).collect();
        v.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        v
    }

    /// Earliest start of a span whose name contains `pat`.
    pub fn first_start(&self, pat: &str) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.contains(pat))
            .map(|s| s.start)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Latest end of a span whose name contains `pat`.
    pub fn last_end(&self, pat: &str) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.contains(pat))
            .map(|s| s.end)
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Total busy time on a resource inside the window `[from, to)`.
    pub fn busy_in(&self, res: Res, from: f64, to: f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.res == res)
            .map(|s| (s.end.min(to) - s.start.max(from)).max(0.0))
            .sum()
    }

    /// Display character for a span: the first letter of the second
    /// `/`-separated segment of its name (so `s0/fp/enc_emb` renders as
    /// `f`, `s0/allreduce/blk3` as `a`), falling back to the name's first
    /// character.
    fn span_char(name: &str) -> char {
        name.split('/')
            .nth(1)
            .and_then(|seg| seg.chars().next())
            .or_else(|| name.chars().next())
            .unwrap_or('#')
    }

    /// Category of a span for the observability layer: the second
    /// `/`-segment of its name (`s0/fp/enc_emb` → `fp`), or the whole
    /// name when it has no step prefix.
    fn span_cat(name: &str) -> &str {
        name.split('/').nth(1).filter(|s| !s.is_empty()).unwrap_or(name)
    }

    /// Convert to an [`embrace_obs::SpanSet`] in the `Virtual` clock
    /// domain: one track per stream (`gpu compute` / `network`), flat
    /// spans (a DES stream runs one task at a time), categories derived
    /// from the `s{step}/<kind>/<module>` naming convention. This is the
    /// bridge the Chrome-trace exporter (`embrace_sim trace`) rides on.
    pub fn to_spans(&self) -> SpanSet {
        let mut set = SpanSet::new(ClockDomain::Virtual);
        let compute = set.add_track("gpu compute");
        let network = set.add_track("network");
        for (track, res) in [(compute, Res::Compute), (network, Res::Comm)] {
            for s in self.on(res) {
                set.record(track, &s.name, Self::span_cat(&s.name), s.start, s.end);
            }
        }
        set
    }

    /// Per-priority queue-depth counter series (one per priority class)
    /// from DES [`QueueSample`]s, for Chrome `C` events.
    pub fn queue_depth_series(samples: &[QueueSample]) -> Vec<CounterSeries> {
        let mut prios: Vec<i64> = samples.iter().map(|q| q.priority).collect();
        prios.sort_unstable();
        prios.dedup();
        prios
            .into_iter()
            .map(|p| {
                let mut s = CounterSeries::new(&format!("comm queue depth (prio {p})"));
                for q in samples.iter().filter(|q| q.priority == p) {
                    s.push(q.t, q.depth as f64);
                }
                s
            })
            .collect()
    }

    /// Render both streams as a two-row ASCII Gantt chart, `width`
    /// characters wide. Each span is drawn with a letter derived from its
    /// name (see `span_char`); idle time is `.`.
    pub fn render_ascii(&self, width: usize) -> String {
        let makespan = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        if makespan <= 0.0 || width == 0 {
            return String::from("(empty trace)\n");
        }
        let mut out = String::new();
        for (label, res) in [("compute ", Res::Compute), ("network ", Res::Comm)] {
            let mut row = vec!['.'; width];
            for s in self.on(res) {
                let a = ((s.start / makespan) * width as f64).floor() as usize;
                let b = (((s.end / makespan) * width as f64).ceil() as usize).min(width);
                let ch = Self::span_char(&s.name);
                for cell in row.iter_mut().take(b).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            out.push_str(label);
            out.push('|');
            out.extend(row);
            out.push('|');
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CommOrder, Sim, Task};

    fn sample() -> Trace {
        let mut s = Sim::new(CommOrder::Fifo);
        let a = s.add(Task::compute("alpha", 1.0));
        let b = s.add(Task::comm("beta", 2.0, 0).after([a]));
        s.add(Task::compute("gamma", 1.0).after([b]));
        s.run().trace
    }

    #[test]
    fn spans_ordered_and_located() {
        let t = sample();
        assert_eq!(t.on(Res::Compute).len(), 2);
        assert_eq!(t.on(Res::Comm).len(), 1);
        assert_eq!(t.first_start("beta"), Some(1.0));
        assert_eq!(t.last_end("gamma"), Some(4.0));
        assert_eq!(t.first_start("missing"), None);
    }

    #[test]
    fn busy_in_window() {
        let t = sample();
        assert!((t.busy_in(Res::Comm, 0.0, 4.0) - 2.0).abs() < 1e-12);
        assert!((t.busy_in(Res::Comm, 0.0, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(t.busy_in(Res::Comm, 3.5, 4.0), 0.0);
    }

    #[test]
    fn ascii_render_has_two_rows() {
        let g = sample().render_ascii(40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("compute "));
        assert!(lines[0].contains('a'));
        assert!(lines[1].contains('b'));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = Trace::default();
        assert_eq!(t.render_ascii(10), "(empty trace)\n");
    }

    #[test]
    fn to_spans_preserves_times_and_streams() {
        let t = sample();
        let set = t.to_spans();
        assert_eq!(set.domain(), embrace_obs::ClockDomain::Virtual);
        assert_eq!(set.tracks(), &["gpu compute".to_string(), "network".to_string()]);
        assert_eq!(set.len(), t.spans.len());
        set.check_well_nested().expect("DES streams are serial, hence trivially nested");
        assert!((set.max_end() - 4.0).abs() < 1e-12);
        let beta = set.spans().iter().find(|s| s.name == "beta").expect("beta span");
        assert_eq!(set.track_name(beta.track), "network");
        assert!((beta.start - 1.0).abs() < 1e-12 && (beta.end - 3.0).abs() < 1e-12);
    }

    #[test]
    fn queue_series_split_by_priority() {
        use crate::event::QueueSample;
        let samples = [
            QueueSample { t: 0.0, priority: 0, depth: 1 },
            QueueSample { t: 0.5, priority: 2, depth: 1 },
            QueueSample { t: 1.0, priority: 0, depth: 0 },
        ];
        let series = Trace::queue_depth_series(&samples);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "comm queue depth (prio 0)");
        assert_eq!(series[0].points, vec![(0.0, 1.0), (1.0, 0.0)]);
        assert_eq!(series[1].points, vec![(0.5, 1.0)]);
    }
}

#[cfg(test)]
mod span_char_tests {
    use super::*;

    #[test]
    fn picks_second_segment() {
        assert_eq!(Trace::span_char("s0/fp/enc_emb"), 'f');
        assert_eq!(Trace::span_char("s3/allreduce/blk7"), 'a');
        assert_eq!(Trace::span_char("s1/prior_grad/dec_emb"), 'p');
    }

    #[test]
    fn falls_back_to_first_char() {
        assert_eq!(Trace::span_char("bulk"), 'b');
        assert_eq!(Trace::span_char(""), '#');
    }
}

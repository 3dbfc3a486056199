//! `embrace-obs` — the workspace observability layer.
//!
//! Every quantitative claim reproduced from the paper (Table 2, Figs 4,
//! 6–10) is a *time* decomposition, so the workspace needs one shared
//! measurement substrate rather than per-crate ad-hoc timelines. This
//! crate provides it with zero third-party dependencies:
//!
//! * [`SpanSet`] — hierarchical spans on named tracks, tagged with an
//!   explicit [`ClockDomain`]: `Wall` for the threaded collectives
//!   (`std::time::Instant` seconds) and `Virtual` for the discrete-event
//!   simulator's f64-second clock. Well-nestedness per track is a checked
//!   invariant, and [`SpanSet::structure`] gives a timing-free view used
//!   by determinism tests.
//! * [`Metrics`] — counters and log-scale histograms (any quantile) in a
//!   mergeable registry.
//! * [`chrome`] — Chrome `trace_event` JSON export (load in Perfetto or
//!   `chrome://tracing`), plus counter series for e.g. per-priority DES
//!   queue depth.
//! * [`json`] — a minimal JSON parser so trace output can be validated
//!   and round-tripped without external crates.
//! * [`recorder`] — a thread-local recorder + RAII guard so hot paths
//!   (the SPMD collectives) can be instrumented at near-zero cost when
//!   no recorder is installed.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use chrome::{chrome_trace, CounterSeries};
pub use clock::{ClockDomain, WallClock};
pub use metrics::{LogHistogram, Metrics};
pub use span::{SpanRec, SpanSet, TrackId};

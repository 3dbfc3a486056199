//! Metric registry: counters and log-scale histograms.
//!
//! All maps are `BTreeMap`s so iteration (and therefore every exported
//! export) is deterministic. [`Metrics::merge`] combines registries
//! from different ranks/threads; counter merges use wrapping addition so
//! the operation is exactly associative and commutative, which the
//! property tests assert.

use std::collections::BTreeMap;

/// Histogram over a log₂ scale: 4 sub-buckets per octave covering
/// `2^-40 .. 2^24` seconds-ish magnitudes (≈1e-12 to ≈1.7e7), with an
/// underflow bucket for non-positive values. Quantiles are bucket upper
/// bounds clamped to the observed `[min, max]`, which makes
/// `quantile(q)` monotone in `q` by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Sub-buckets per octave.
const SUBDIV: f64 = 4.0;
/// Octaves below 1.0 covered before underflowing.
const OCTAVES_BELOW: f64 = 40.0;
/// Total value buckets (plus one underflow bucket at index 0).
const NBUCKETS: usize = ((40 + 24) as f64 * SUBDIV) as usize + 1;

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NBUCKETS + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let idx = ((v.log2() + OCTAVES_BELOW) * SUBDIV).floor();
        if idx < 0.0 {
            0
        } else if idx as usize >= NBUCKETS {
            NBUCKETS
        } else {
            idx as usize + 1
        }
    }

    /// Upper bound of bucket `i` (i ≥ 1; bucket 0 is the underflow bin
    /// whose upper bound is 0).
    fn bucket_upper(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            ((i as f64) / SUBDIV - OCTAVES_BELOW).exp2()
        }
    }

    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile estimate for `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the ⌈q·n⌉-th observation, clamped to `[min, max]`.
    /// Monotone non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one. Bucket counts add exactly;
    /// `sum` is a float accumulation (reported, not asserted on).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.wrapping_add(*b);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A registry of named counters and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `n` to counter `name` (created at 0). Wrapping, so merges
    /// stay associative even at the edges of `u64`.
    pub fn inc(&mut self, name: &str, n: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = c.wrapping_add(n);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record `v` into histogram `name` (created on first use).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Merge `other` into `self`: counters add (wrapping), histograms
    /// merge bucketwise.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.wrapping_add(*v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Metrics::new();
        a.inc("bytes", 10);
        a.inc("bytes", 5);
        let mut b = Metrics::new();
        b.inc("bytes", 7);
        b.inc("msgs", 1);
        a.merge(&b);
        assert_eq!(a.counter("bytes"), 22);
        assert_eq!(a.counter("msgs"), 1);
        assert_eq!(a.counter("absent"), 0);
    }

    #[test]
    fn histogram_quantiles_bracket_values() {
        let mut h = LogHistogram::new();
        for i in 1..=100 {
            h.observe(i as f64 * 1e-3); // 1ms..100ms
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.p99();
        // Log buckets are ~19% wide; the quantile must land near the
        // true order statistic.
        assert!((0.04..=0.07).contains(&p50), "p50 {p50}");
        assert!((0.09..=0.12).contains(&p99), "p99 {p99}");
        assert!(p50 <= h.quantile(0.95) && h.quantile(0.95) <= p99);
        assert!((h.mean() - 0.0505).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_nonpositive_and_extreme() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e300); // overflow bucket
        h.observe(f64::NAN); // dropped
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), 1e300);
        // Quantiles stay within [min, max] and monotone.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!(q >= prev, "q({}) = {q} < {prev}", i as f64 / 20.0);
            assert!((h.min()..=h.max()).contains(&q));
            prev = q;
        }
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined_stream() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..50 {
            let v = (i as f64 + 1.0) * 2e-4;
            all.observe(v);
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }
}

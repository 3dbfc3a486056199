//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver and the
//! choosing-metrics guide compute spreads with: a spread printed here is
//! the spread they will see.

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that is not a sample distribution (a count, a ratio).
    pub fn single(value: f64) -> Self {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `k/4` of an ascending slice, Python "exclusive" method:
/// position `k(n+1)/4` on a 1-based scale, linearly interpolated and
/// clamped to the sample range.
fn quartile_sorted(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Summarise `samples` (any order). Panics on an empty slice: every
/// caller has measured at least one round.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let v = sorted(samples);
    Summary {
        median: quartile_sorted(&v, 2),
        q1: quartile_sorted(&v, 1),
        q3: quartile_sorted(&v, 3),
        n: v.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Pool the per-round sample vectors into one distribution. The pooled
/// median weights every *sample* equally (right for per-step latency,
/// where rounds are just batches of steps); the median of per-round
/// medians weights every *round* equally (right for round walls).
pub fn pooled<'a>(rounds: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    rounds.flatten().copied().collect()
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of the ladder, no higher than `want`, that has
/// at least ten samples beyond it (choosing-metrics §1), and its value.
/// With fewer than 20 samples even the median is unsupported; the median
/// is returned regardless so short smoke runs still print a number.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    assert!(!samples.is_empty(), "no samples for a tail percentile");
    let v = sorted(samples);
    let n = v.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want && (n as f64) * (1.0 - p) >= 10.0)
        .fold(0.5, f64::max);
    // Nearest-rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (p, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past two points.
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.0]);
        assert_eq!(s, Summary { median: 7.0, q1: 7.0, q3: 7.0, n: 1 });
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: exactly 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(tail(&v, 0.999), (0.99, 990.0));
        assert_eq!(tail(&v, 0.99), (0.99, 990.0));
        assert_eq!(tail(&v, 0.9), (0.9, 900.0));
        // 750 samples: 7.5 beyond p99 is too few, p95 has 37.5.
        let v: Vec<f64> = (1..=750).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.95, 713.0));
        // 10 000 samples support p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.999), (0.999, 9990.0));
        // Too few for anything: falls back to the median.
        assert_eq!(tail(&[5.0, 1.0, 3.0], 0.99), (0.5, 3.0));
    }

    #[test]
    fn pooled_median_weights_samples_and_round_median_weights_rounds() {
        // One long slow round and two short fast ones.
        let rounds = [vec![10.0; 8], vec![1.0; 2], vec![1.0; 2]];
        assert_eq!(median(&pooled(rounds.iter().map(Vec::as_slice))), 10.0);
        let per_round: Vec<f64> = rounds.iter().map(|r| median(r)).collect();
        assert_eq!(median(&per_round), 1.0);
    }
}

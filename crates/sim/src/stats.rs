//! Statistics collection: latency histograms and percentiles.
//!
//! The experiment harnesses report the same aggregates the paper plots:
//! mean throughput, and the 1st/25th/50th/75th/99th latency percentiles of
//! Figure 5. [`Histogram`] uses log-spaced buckets so a single instance can
//! span the sub-millisecond hot path and the 60-second container-timeout
//! tail without losing resolution at either end. Its mean comes from an
//! exact nanosecond sum, not from the buckets.

use crate::time::SimDuration;

/// The five percentiles the paper's Figure 5 shows, plus the mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PercentileSummary {
    /// 1st percentile.
    pub p1: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Log-bucketed histogram over nanosecond durations.
///
/// Buckets are spaced at ~4.6% relative width (16 sub-buckets per octave),
/// which is ample for plotting latency distributions across nine orders of
/// magnitude in a few KB.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    underflow: u64,
}

const SUB_BUCKETS: u32 = 16;
const OCTAVES: u32 = 40; // covers 1ns .. ~1.1e12ns (~18 minutes)
const NUM_BUCKETS: usize = (SUB_BUCKETS * OCTAVES) as usize;

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let log2 = 63 - ns.leading_zeros();
    let base = 1u64 << log2;
    // Position within the octave, scaled to SUB_BUCKETS.
    let frac = ((ns - base) as u128 * SUB_BUCKETS as u128 / base as u128) as u32;
    let idx = log2 * SUB_BUCKETS + frac;
    (idx as usize).min(NUM_BUCKETS - 1)
}

fn bucket_upper_bound(idx: usize) -> u64 {
    let log2 = idx as u32 / SUB_BUCKETS;
    let frac = idx as u32 % SUB_BUCKETS;
    let base = 1u64 << log2;
    base + (base as u128 * (frac + 1) as u128 / SUB_BUCKETS as u128) as u64
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_ns: 0,
            underflow: 0,
        }
    }

    /// Records one duration observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.total += 1;
        self.sum_ns += ns as u128;
        if ns == 0 {
            self.underflow += 1;
        } else {
            self.counts[bucket_of(ns)] += 1;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean duration; zero when empty.
    pub(crate) fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64)
        }
    }

    /// Value at quantile `q` in `[0, 1]`, as an upper bucket bound.
    ///
    /// Returns `SimDuration::ZERO` when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        if self.total == 1 {
            // A one-sample distribution has every quantile equal to the
            // sample itself; reporting the bucket bound instead would
            // inflate p99 for singleton paths (e.g. one cold start).
            return SimDuration::from_nanos(self.sum_ns as u64);
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return SimDuration::ZERO;
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(bucket_upper_bound(idx));
            }
        }
        SimDuration::from_nanos(bucket_upper_bound(NUM_BUCKETS - 1))
    }

    /// The Figure-5 percentile set, in fractional milliseconds.
    pub fn summary_ms(&self) -> PercentileSummary {
        PercentileSummary {
            p1: self.quantile(0.01).as_millis_f64(),
            p25: self.quantile(0.25).as_millis_f64(),
            p50: self.quantile(0.50).as_millis_f64(),
            p75: self.quantile(0.75).as_millis_f64(),
            p99: self.quantile(0.99).as_millis_f64(),
            mean: self.mean().as_millis_f64(),
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.underflow += other.underflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_truth() {
        let mut h = Histogram::new();
        // 1ms .. 100ms uniform.
        for i in 1..=100u64 {
            h.record(SimDuration::from_millis(i));
        }
        let p50 = h.quantile(0.5).as_millis_f64();
        assert!((45.0..60.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).as_millis_f64();
        assert!((90.0..110.0).contains(&p99), "p99 {p99}");
        // Quantile is an upper bound of its bucket.
        assert!(h.quantile(1.0) >= SimDuration::from_millis(100));
    }

    #[test]
    fn histogram_handles_zero_and_huge() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(600));
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), SimDuration::ZERO);
        assert!(h.quantile(0.99) >= SimDuration::from_secs(500));
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let mut h = Histogram::new();
        let d = SimDuration::from_nanos(1_234_567);
        h.record(d);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), d, "q={q}");
        }
        assert_eq!(h.mean(), d);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(0.99) >= SimDuration::from_millis(900));
    }

    #[test]
    fn bucket_monotonicity() {
        let mut prev = 0;
        for ns in [1u64, 2, 3, 10, 100, 1000, 123_456, 10_000_000, 1 << 40] {
            let b = bucket_of(ns);
            assert!(b >= prev, "bucket not monotone at {ns}");
            prev = b;
            assert!(
                bucket_upper_bound(b) >= ns,
                "upper bound below value at {ns}"
            );
        }
    }

    #[test]
    fn summary_ms_fields_ordered() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i * 10));
        }
        let s = h.summary_ms();
        assert!(s.p1 <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p99);
    }
}

//! Log2-bucketed latency histograms on plain atomics.
//!
//! 64 buckets cover the full `u64` nanosecond range: bucket *i* holds
//! samples whose value's bit length is *i* (bucket 0 = 0 ns, bucket 1 =
//! 1 ns, bucket 2 = 2–3 ns, bucket 10 = 512–1023 ns, …). Recording is one
//! `leading_zeros`, three relaxed `fetch_add`s and a relaxed `fetch_max`,
//! whether it records one sample or [`LatencyHistogram::record_n`]'s `n`
//! equal ones — cheap enough to sit on the critical-section completion
//! path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (full `u64` range).
pub const BUCKETS: usize = 64;

/// A concurrent log2 histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: its bit length.
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` samples of `ns` nanoseconds each, in the four updates
    /// one sample costs: the snapshot is that of `n` calls of
    /// [`LatencyHistogram::record`], and `n = 0` changes nothing.
    pub fn record_n(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_of(ns).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        // `n` wrapping `fetch_add`s of `ns` sum to this, wrapped the same.
        self.sum.fetch_add(ns.wrapping_mul(n), Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket *i* covers values with bit length
    /// *i*, i.e. `[2^(i-1), 2^i)` for `i >= 2`.
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Largest recorded sample (ns).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Inclusive lower bound of a bucket, in ns.
    #[must_use]
    pub fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Mean sample value; 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Approximate p-quantile (`0.0..=1.0`) with linear interpolation
    /// inside the bucket holding the p-th sample. 0 when empty.
    ///
    /// Log2 buckets double in width, so returning only the bucket floor
    /// collapses every sub-2× difference: a sweep whose p50, p90 and p99
    /// all land in the `[262144, 524287]` bucket reports three identical
    /// numbers. Interpolating by rank within the bucket (samples assumed
    /// uniform across it — the standard histogram-quantile estimate)
    /// recovers the sub-bucket resolution. The bucket ceiling is clamped
    /// to the recorded maximum, so a lone sample reports itself exactly.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (((self.count as f64) * p.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = HistogramSnapshot::bucket_floor(i);
                // Inclusive upper bound of bucket i: 0 for bucket 0, else
                // 2^i - 1; never past the largest recorded sample.
                let hi = match i {
                    0 => 0,
                    _ => ((1u128 << i) - 1).min(u128::from(self.max)) as u64,
                };
                let rank = target - seen; // 1..=c within this bucket
                let span = u128::from(hi.saturating_sub(lo));
                let off = (span * u128::from(rank) / u128::from(c)) as u64;
                return lo + off;
            }
            seen += c;
        }
        self.max
    }

    /// Iterator over non-empty `(bucket_floor_ns, count)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (HistogramSnapshot::bucket_floor(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64 - 1 + 1); // clamped by record()
    }

    #[test]
    fn record_and_snapshot() {
        let h = LatencyHistogram::new();
        for ns in [0, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1_001_106);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 2, "2 and 3 share a bucket");
        assert!((s.mean() - 1_001_106.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn record_n_is_n_records() {
        let cases = [
            (0, 0),
            (0, 1),
            (0, 5),
            (700, 0),
            (700, 1),
            (700, 32),
            (u64::MAX, 3),
        ];
        for (ns, n) in cases {
            let (once, each) = (LatencyHistogram::new(), LatencyHistogram::new());
            // One sample already in, so `max` and the sum do not start at 0.
            once.record(40);
            each.record(40);
            once.record_n(ns, n);
            for _ in 0..n {
                each.record(ns);
            }
            assert_eq!(once.snapshot(), each.snapshot(), "record_n({ns}, {n})");
        }
    }

    #[test]
    fn quantile_monotone() {
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) <= s.quantile(0.99));
        assert_eq!(s.quantile(1.0), 999, "top quantile reaches the max sample");
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // Uniform 0..999: bucket 10 holds 512..=999 (488 samples). Without
        // interpolation p50/p90/p99 would all collapse to bucket floors;
        // with rank interpolation they separate and pin to exact values.
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let s = h.snapshot();
        // target=500 lands in bucket 9 (256..=511, 256 samples, seen=256
        // before): lo=256, hi=511, rank=244 -> 256 + 255*244/256 = 499.
        assert_eq!(s.quantile(0.5), 499);
        // target=990, bucket 10 (512..=999 after max clamp, 488 samples,
        // seen=512): lo=512, hi=999, rank=478 -> 512 + 487*478/488 = 989.
        assert_eq!(s.quantile(0.99), 989);
        assert_eq!(s.quantile(1.0), 999);
        assert!(s.quantile(0.5) < s.quantile(0.9));
        assert!(s.quantile(0.9) < s.quantile(0.99));

        // A single sample reports itself exactly at every quantile: the
        // bucket ceiling clamps to max, and rank==count pins to it.
        let one = LatencyHistogram::new();
        one.record(100);
        let os = one.snapshot();
        assert_eq!(os.quantile(0.5), 100);
        assert_eq!(os.quantile(0.99), 100);
    }

    #[test]
    fn concurrent_counts_are_exact() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        h.record(i % 512);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
    }
}

//! Fixed-bucket atomic latency histograms and exact mean/max
//! accumulators — the hot-path recording primitives.
//!
//! [`AtomicHistogram`] is an HDR-lite design: latencies are quantized
//! to integer microsecond "ticks" and bucketed with a linear region for
//! small values followed by base-2 groups of 16 sub-buckets each, giving
//! a bounded relative error (< 1/SUB_BUCKETS) across the full range.
//! Every bucket is an `AtomicU64`, so recording is a couple of relaxed
//! atomic adds — no locks, no allocation, safe from any thread. Values
//! past the top bucket saturate into it rather than being dropped.
//!
//! [`AtomicStat`] keeps the exact running count/sum/max that
//! `StatsSnapshot`-style mean/max reporting needs, again with only
//! atomic operations on the record path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per base-2 group: bounds the quantile's relative error.
const SUB_BUCKETS: u64 = 16;
/// Values below this are bucketed exactly (one tick per bucket).
const LINEAR_CUT: u64 = SUB_BUCKETS;
/// Base-2 groups covered before saturation (ticks up to ~2^32).
const GROUPS: u64 = 29;
/// Total bucket count, including the saturating overflow bucket.
pub(crate) const BUCKETS: usize = (LINEAR_CUT + GROUPS * SUB_BUCKETS) as usize;

/// The four quantiles the paper-adjacent reporting cares about.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

/// A fixed-bucket, lock-free histogram of non-negative values.
///
/// Recording is wait-free (two relaxed atomic adds); reading takes a
/// racy-but-consistent-enough snapshot, which is fine for end-of-run
/// summaries. Latencies are recorded in milliseconds and quantized to
/// microsecond ticks internally.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        AtomicHistogram {
            buckets,
            count: AtomicU64::new(0),
        }
    }

    /// Bucket index for a tick value (saturating at the top bucket).
    fn index(ticks: u64) -> usize {
        if ticks < LINEAR_CUT {
            return ticks as usize;
        }
        // msb >= 4 for ticks >= 16: group g = msb - 4 holds
        // [2^(g+4), 2^(g+5)) split into SUB_BUCKETS equal slices.
        let msb = 63 - u64::leading_zeros(ticks) as u64;
        let group = msb - 4;
        let sub = (ticks >> group) - SUB_BUCKETS;
        let idx = LINEAR_CUT + group * SUB_BUCKETS + sub;
        (idx as usize).min(BUCKETS - 1)
    }

    /// Inclusive lower bound (in ticks) of bucket `idx`.
    fn lower(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < LINEAR_CUT {
            return idx;
        }
        let group = (idx - LINEAR_CUT) / SUB_BUCKETS;
        let sub = (idx - LINEAR_CUT) % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << group
    }

    /// Exclusive upper bound (in ticks) of bucket `idx`.
    fn upper(idx: usize) -> u64 {
        if idx + 1 >= BUCKETS {
            // The overflow bucket saturates; give it a nominal width.
            Self::lower(idx) * 2
        } else {
            Self::lower(idx + 1)
        }
    }

    /// Record a latency in milliseconds (quantized to microseconds).
    pub fn record_ms(&self, ms: f64) {
        let ticks = if ms <= 0.0 {
            0
        } else {
            (ms * 1_000.0).round() as u64
        };
        self.record_ticks(ticks);
    }

    fn record_ticks(&self, ticks: u64) {
        self.buckets[Self::index(ticks)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in *ticks*, with linear
    /// interpolation inside the winning bucket. Returns 0.0 when empty.
    ///
    /// A one-tick-wide bucket (ticks 0..=31) is **exact**: every occupant
    /// has the same value, so the quantile is that value, not a point
    /// between it and the next tick that no sample ever had.
    ///
    /// The saturating overflow bucket is **not** interpolated: its
    /// occupants are off-scale (anywhere in `[lower, u64::MAX]`), so any
    /// point inside a "nominal width" would be fabricated precision. A
    /// quantile that lands there reports the bucket's lower bound — a
    /// truthful "at least this much", where the tail is clipped.
    #[must_use]
    pub(crate) fn quantile_ticks(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based; ceil so q=1.0 hits the max.
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = (Self::lower(idx), Self::upper(idx));
                if idx == BUCKETS - 1 || hi - lo == 1 {
                    return lo as f64;
                }
                let into = (target - seen) as f64; // 1..=n
                let frac = into / n as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
            seen += n;
        }
        Self::lower(BUCKETS - 1) as f64
    }

    /// The `q`-quantile interpreted as milliseconds (micro-ticks).
    #[must_use]
    pub(crate) fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ticks(q) / 1_000.0
    }

    /// p50/p90/p99/p999 in milliseconds.
    #[must_use]
    pub fn quantiles_ms(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile_ms(0.50),
            p90: self.quantile_ms(0.90),
            p99: self.quantile_ms(0.99),
            p999: self.quantile_ms(0.999),
        }
    }
}

/// Exact count / mean / max accumulator with atomic-only recording.
///
/// Keeps the numbers `StatsSnapshot` has always reported (average and
/// maximum in milliseconds) without a mutex on the record path: the sum
/// is held in integer nanoseconds (u64 wraps after ~584 years of
/// accumulated latency) and the max uses `fetch_max`.
#[derive(Debug, Default)]
pub struct AtomicStat {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicStat {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean in milliseconds (0.0 when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1_000_000.0
    }

    /// Maximum in milliseconds (0.0 when empty).
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.max_ns.load(Ordering::Relaxed) as f64 / 1_000_000.0
    }
}

#[cfg(test)]
impl AtomicHistogram {
    /// Samples that saturated into the overflow bucket (off-scale values).
    #[must_use]
    pub(crate) fn saturated_count(&self) -> u64 {
        self.buckets[BUCKETS - 1].load(Ordering::Relaxed)
    }

    /// Whether any recorded value was off-scale — quantiles that land in
    /// the overflow bucket are clamped lower bounds, not measurements.
    #[must_use]
    pub(crate) fn is_saturated(&self) -> bool {
        self.saturated_count() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for t in 0..LINEAR_CUT {
            assert_eq!(AtomicHistogram::index(t), t as usize);
            assert_eq!(AtomicHistogram::lower(t as usize), t);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotone() {
        for idx in 0..BUCKETS - 1 {
            assert_eq!(
                AtomicHistogram::upper(idx),
                AtomicHistogram::lower(idx + 1),
                "gap at bucket {idx}"
            );
            assert!(AtomicHistogram::lower(idx) < AtomicHistogram::upper(idx));
        }
    }

    #[test]
    fn every_tick_lands_in_its_own_bucket_bounds() {
        for t in [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            63,
            100,
            1000,
            123_456,
            u64::MAX / 2,
        ] {
            let idx = AtomicHistogram::index(t);
            assert!(AtomicHistogram::lower(idx) <= t, "tick {t} idx {idx}");
            if idx < BUCKETS - 1 {
                assert!(t < AtomicHistogram::upper(idx), "tick {t} idx {idx}");
            }
        }
    }

    #[test]
    fn overflow_saturates_into_top_bucket() {
        let h = AtomicHistogram::new();
        h.record_ticks(u64::MAX);
        h.record_ticks(u64::MAX / 3);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets[BUCKETS - 1].load(Ordering::Relaxed), 2);
        // The quantile stays finite.
        assert!(h.quantile_ticks(1.0).is_finite());
    }

    /// Satellite regression: the overflow bucket must not be interpolated.
    /// The old code gave it a "nominal width" (`lower * 2`) and fabricated
    /// a finite point inside it, so p999 of a tail of off-scale samples
    /// reported a precise-looking value no sample ever had.
    #[test]
    fn off_scale_quantiles_clamp_to_the_overflow_bound_and_flag_saturation() {
        let h = AtomicHistogram::new();
        assert!(!h.is_saturated());
        let overflow_lo = AtomicHistogram::lower(BUCKETS - 1) as f64;
        // 999 in-range samples, 2 far past the top bucket.
        for _ in 0..999 {
            h.record_ticks(100);
        }
        h.record_ticks(u64::MAX);
        h.record_ticks(u64::MAX / 2);
        assert!(h.is_saturated());
        assert_eq!(h.saturated_count(), 2);
        // p999 lands in the overflow bucket: exactly the lower bound, not
        // an interpolated point inside a made-up width.
        let p999 = h.quantile_ticks(0.999);
        assert_eq!(p999, overflow_lo, "p999 must clamp, got {p999}");
        assert_eq!(h.quantile_ticks(1.0), overflow_lo);
        // In-range quantiles are unaffected by the saturated tail.
        assert!(h.quantile_ticks(0.5) < 110.0);
        // A histogram whose top-bucket mass is *in range* is not flagged:
        // saturation only means "a sample may be off-scale", which is
        // indistinguishable at record time — so any top-bucket hit flags.
        let in_range = AtomicHistogram::new();
        in_range.record_ticks(1000);
        assert!(!in_range.is_saturated());
    }

    #[test]
    fn quantiles_of_uniform_ramp_are_close() {
        let h = AtomicHistogram::new();
        // 1..=10_000 microsecond ticks = 0.001..10 ms uniform.
        for t in 1..=10_000u64 {
            h.record_ticks(t);
        }
        let q = h.quantiles_ms();
        // Relative error bounded by the sub-bucket width (1/16).
        assert!((q.p50 - 5.0).abs() / 5.0 < 0.07, "p50={}", q.p50);
        assert!((q.p90 - 9.0).abs() / 9.0 < 0.07, "p90={}", q.p90);
        assert!((q.p99 - 9.9).abs() / 9.9 < 0.07, "p99={}", q.p99);
        assert!((q.p999 - 9.99).abs() / 9.99 < 0.07, "p999={}", q.p999);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        let h = AtomicHistogram::new();
        // All mass in one bucket: [16, 17) ticks... use a wider bucket:
        // ticks 4096..4352 share group buckets; pick one bucket's lower.
        let idx = AtomicHistogram::index(4100);
        let lo = AtomicHistogram::lower(idx) as f64;
        let hi = AtomicHistogram::upper(idx) as f64;
        for _ in 0..100 {
            h.record_ticks(4100);
        }
        let p50 = h.quantile_ticks(0.5);
        assert!(p50 > lo && p50 <= hi, "p50={p50} not in ({lo}, {hi}]");
        // Halfway through the bucket mass → halfway through its width.
        assert!((p50 - (lo + 0.5 * (hi - lo))).abs() <= (hi - lo) / 2.0);
    }

    /// Regression: interpolating inside a one-tick-wide bucket reported
    /// values above the maximum recorded — 3 µs read back as 4 µs.
    #[test]
    fn exact_buckets_report_the_recorded_value() {
        for (micros, samples) in [(3, 1), (5, 100), (31, 7)] {
            let ms = micros as f64 / 1_000.0;
            let h = AtomicHistogram::new();
            for _ in 0..samples {
                h.record_ms(ms);
            }
            let q = h.quantiles_ms();
            for got in [q.p50, q.p90, q.p99, q.p999, h.quantile_ms(1.0)] {
                assert_eq!(got, ms, "{samples} x record_ms({ms})");
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let h = AtomicHistogram::new();
        assert_eq!(h.quantile_ticks(0.99), 0.0);
        assert_eq!(h.quantiles_ms(), Quantiles::default());
    }

    #[test]
    fn atomic_stat_mean_and_max() {
        let s = AtomicStat::new();
        s.record(Duration::from_millis(2));
        s.record(Duration::from_millis(4));
        s.record(Duration::from_millis(6));
        assert_eq!(s.count(), 3);
        assert!((s.mean_ms() - 4.0).abs() < 1e-9);
        assert!((s.max_ms() - 6.0).abs() < 1e-9);
    }
}

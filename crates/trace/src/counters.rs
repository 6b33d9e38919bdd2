//! Aggregated counters and the latency histogram.
//!
//! These are the trace layer's *summary* side: relaxed atomics bumped
//! on the hot path and read at render time. `rqld`'s metrics registry
//! builds on these types directly, so the `METRICS` verb, the
//! per-query `PROFILE` report and the `/metrics` OpenMetrics exposition
//! draw from one accounting layer and can never disagree. (Formerly
//! `rqld::metrics::LatencyHistogram`; moved here so embedded users get
//! the same machinery without a server.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A relaxed counter: the one cell every metric-table field is made of.
/// Counters only [`add`](Counter::add); gauges may also
/// [`set`](Counter::set) or [`sub`](Counter::sub), which saturates at
/// zero.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Fresh zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract 1, saturating at zero (gauge semantics).
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Subtract `n`, saturating at zero (gauge semantics).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Overwrite the value (a gauge that is set rather than counted).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Inclusive upper bound (µs) of each histogram bucket — the single
/// source of truth shared by the `METRICS` wire verb's derived
/// percentiles and the `/metrics` OpenMetrics `le=` bucket bounds.
///
/// `record` places a sample of `m` µs in bucket `64 - m.leading_zeros()`
/// (clamped to 31), i.e. bucket `i` holds samples in `(2^(i-1), 2^i]` µs
/// with bucket 0 holding only `0`. Every sample counted in bucket `i`
/// is therefore `≤ BUCKET_BOUNDS[i] = 2^i`, which is exactly the
/// cumulative-bucket invariant Prometheus histograms require.
pub const BUCKET_BOUNDS: [u64; HISTOGRAM_BUCKETS] = {
    let mut bounds = [0u64; HISTOGRAM_BUCKETS];
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS {
        bounds[i] = 1u64 << i;
        i += 1;
    }
    bounds
};

/// Latency histogram over the power-of-two microsecond buckets defined
/// by [`BUCKET_BOUNDS`].
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Per-bucket sample counts, aligned with [`BUCKET_BOUNDS`]
    /// (non-cumulative; exporters accumulate for `le=` buckets).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Quantile `q` in `[0,1]` in microseconds, linearly interpolated
    /// toward the containing bucket's upper bound (the same estimator
    /// Prometheus's `histogram_quantile` applies to cumulative buckets):
    /// with `k` samples below the bucket and `n` inside it, rank `r`
    /// maps to `lower + (upper - lower) · (r - k) / n`, rounded up.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let upper = BUCKET_BOUNDS[i];
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS[i - 1] };
                let frac = (rank - seen) as f64 / n as f64;
                return (lower as f64 + (upper - lower) as f64 * frac).ceil() as u64;
            }
            seen += n;
        }
        BUCKET_BOUNDS[HISTOGRAM_BUCKETS - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_add_dec_saturate() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        for _ in 0..10 {
            c.dec();
        }
        assert_eq!(c.get(), 0);
        c.set(9);
        c.sub(4);
        assert_eq!(c.get(), 5);
        c.sub(6);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bucket_bounds_are_monotonic_powers_of_two() {
        for (i, b) in BUCKET_BOUNDS.iter().enumerate() {
            assert_eq!(*b, 1u64 << i);
            if i > 0 {
                assert!(BUCKET_BOUNDS[i - 1] < *b);
            }
        }
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_micros(0.50);
        assert!((64..=256).contains(&p50), "p50={p50}");
        let p99 = h.quantile_micros(0.99);
        assert!(p99 <= 256, "p99 covers the 100µs mass, got {p99}");
        let p100 = h.quantile_micros(1.0);
        assert!(p100 >= 32_768, "max sample is 50ms, got {p100}");
        assert!(h.mean_micros() >= 100);
    }

    #[test]
    fn quantiles_interpolate_to_known_values() {
        // 99 samples of 100µs land in bucket 7 = (64, 128]; one 50ms
        // sample lands in bucket 16 = (32768, 65536].
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        // p50: rank 50 of 99 within (64, 128]: 64 + 64·50/99 = 96.32… → 97.
        assert_eq!(h.quantile_micros(0.50), 97);
        // p99: rank 99 of 99 within (64, 128]: exactly the upper bound.
        assert_eq!(h.quantile_micros(0.99), 128);
        // p100: rank 1 of 1 within (32768, 65536]: the upper bound.
        assert_eq!(h.quantile_micros(1.0), 65_536);
        // Bucket counts expose the raw shape for the exporter.
        let counts = h.bucket_counts();
        assert_eq!(counts[7], 99);
        assert_eq!(counts[16], 1);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(h.sum_micros(), 99 * 100 + 50_000);
    }

    #[test]
    fn interpolation_spreads_within_one_bucket() {
        // Four samples, all in bucket 10 = (512, 1024]: quantiles walk
        // up the bucket instead of snapping to one edge.
        let h = LatencyHistogram::default();
        for _ in 0..4 {
            h.record(Duration::from_micros(600));
        }
        assert_eq!(h.quantile_micros(0.25), 640); // 512 + 512·1/4
        assert_eq!(h.quantile_micros(0.50), 768); // 512 + 512·2/4
        assert_eq!(h.quantile_micros(1.0), 1024);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0);
    }
}

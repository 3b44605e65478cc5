//! The two metric cells: [`Counter`] and [`Histogram`].
//!
//! Both are lock-free on the write path — every mutation is a single
//! `Ordering::Relaxed` atomic RMW — so instrumentation can sit inside hot
//! loops (the pool's claim loop, the solver's per-organization sweep)
//! without perturbing the throughput the PR 3 bench measures. Relaxed
//! ordering is sufficient because metrics carry no inter-thread control
//! flow: readers ([`crate::snapshot`]) tolerate slightly stale values, and
//! thread joins at the end of a run establish the happens-before edges that
//! make final snapshots exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and benchmark harnesses only — production
    /// counters are monotonic).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets a [`Histogram`] keeps.
pub const BUCKETS: usize = 32;

/// A fixed-footprint distribution: 32 power-of-two buckets plus
/// count/sum/min/max.
///
/// Bucket `0` holds zero-valued samples; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i)`; the last bucket absorbs everything at or above
/// `2^30`. Good enough to read off medians and tails of nanosecond-scale
/// latencies without storing samples.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty, so the first sample always lowers it.
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Bucket index for a sample (see [`Histogram`] for the layout).
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of a distribution stored
/// as [`Histogram`] bucket counts.
///
/// The rank-`ceil(q·count)` sample's bucket is located by a cumulative
/// walk, then the value is linearly interpolated inside the bucket's
/// `[2^(i-1), 2^i)` range — so the estimate is exact to within one octave,
/// which is all a log2 histogram can promise. Bucket `0` (zero-valued
/// samples) estimates as `0.0`; the open-ended last bucket interpolates
/// toward one further doubling. An empty distribution estimates as `0.0`.
pub fn quantile_from_buckets(buckets: &[u64; BUCKETS], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    // ceil without going through floats losing precision on huge counts.
    let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if cum + n >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = lo * 2.0;
            let frac = (rank - cum) as f64 / n as f64;
            return lo + frac * (hi - lo);
        }
        cum += n;
    }
    // Counts and buckets disagree (concurrent snapshot): fall back to the
    // top of the highest populated bucket.
    buckets
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0.0, |i| (1u64 << i.min(63)) as f64)
}

/// [`quantile_from_buckets`] clamped to the observed `[min, max]`: a
/// bucket estimate can overshoot the largest sample by up to an octave
/// (one 294 ms sample alone would report p50 ≈ 537 ms), so reported
/// quantiles never leave the range the samples actually span. An empty
/// distribution estimates as `0.0`.
pub fn observed_quantile(buckets: &[u64; BUCKETS], count: u64, min: u64, max: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    quantile_from_buckets(buckets, count, q).clamp(min as f64, max.max(min) as f64)
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        // `[AtomicU64::new(0); 32]` needs Copy; build the array literally.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> u64 {
        match self.min.load(Ordering::Relaxed) {
            u64::MAX if self.count() == 0 => 0,
            v => v,
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// Estimated `q`-quantile of the recorded samples (0.0 when empty),
    /// never outside `[min, max]`. See [`observed_quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        observed_quantile(&self.buckets(), self.count(), self.min(), self.max(), q)
    }

    /// The per-bucket sample counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Resets every cell to zero (tests and benchmark harnesses only).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_max_mean() {
        let h = Histogram::new();
        for v in [1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 251.5).abs() < 1e-12);
        let b = h.buckets();
        assert_eq!(b.iter().sum::<u64>(), 4);
        assert_eq!(b[1], 1, "sample 1");
        assert_eq!(b[2], 2, "samples 2 and 3");
        assert_eq!(b[10], 1, "sample 1000");
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn quantiles_of_empty_and_zero_distributions_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn quantiles_land_in_the_right_octave() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1000); // bucket 10: [512, 1024)
        }
        for q in [0.5, 0.9, 0.99] {
            let v = h.quantile(q);
            assert!((512.0..=1024.0).contains(&v), "q{q} estimate {v}");
        }
    }

    #[test]
    fn quantiles_are_monotone_over_a_spread_distribution() {
        let h = Histogram::new();
        // 90 fast samples, 9 slow, 1 very slow — the classic latency shape.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!((64.0..=128.0).contains(&p50), "p50 {p50}");
        assert!((8192.0..=16384.0).contains(&p99), "p99 {p99}");
        // q is clamped; the extremes bracket the samples' octaves.
        assert!(h.quantile(-1.0) <= h.quantile(2.0));
        assert!(h.quantile(1.0) >= 524_288.0, "max-ish octave");
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let mut buckets = [0u64; BUCKETS];
        buckets[11] = 4; // [1024, 2048), 4 samples
        let q25 = quantile_from_buckets(&buckets, 4, 0.25);
        let q100 = quantile_from_buckets(&buckets, 4, 1.0);
        assert_eq!(q25, 1280.0, "rank 1 of 4 → lo + 1/4 of the bucket");
        assert_eq!(q100, 2048.0, "rank 4 of 4 → bucket top");
    }

    #[test]
    fn single_sample_quantiles_equal_the_sample() {
        // Regression: one 294 ms sample used to report p50 ≈ 537 ms, the
        // interpolated middle of its [268 ms, 537 ms) octave.
        let h = Histogram::new();
        h.record(294_000_000);
        assert_eq!(h.min(), 294_000_000);
        assert_eq!(h.max(), 294_000_000);
        assert_eq!(h.quantile(0.5), 294_000_000.0);
        assert_eq!(h.quantile(0.99), 294_000_000.0);
    }

    #[test]
    fn quantiles_stay_within_the_observed_range() {
        let h = Histogram::new();
        for v in [700, 800, 900] {
            h.record(v); // all in bucket 10: [512, 1024)
        }
        assert_eq!(h.min(), 700);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((700.0..=900.0).contains(&v), "q{q} estimate {v}");
        }
        h.reset();
        assert_eq!(h.min(), 0, "an empty histogram reports min 0");
    }

    #[test]
    fn concurrent_increments_are_all_observed() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for v in 0..1000 {
                        c.inc();
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        assert_eq!(h.max(), 999);
    }
}

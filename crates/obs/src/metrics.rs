//! Lock-free metric instruments: counters, gauges, and histograms.
//!
//! Instruments are cheap `Clone` handles. A *disabled* handle (the default)
//! carries no allocation and every operation on it is a branch on a `None` —
//! the zero-cost-when-disabled contract of the crate. An *enabled* handle
//! shares an atomic cell registered in a [`Recorder`](crate::Recorder);
//! updates are relaxed atomic operations, safe to hammer from exploration
//! worker threads without locks.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count.
///
/// # Examples
///
/// ```
/// use obs::Recorder;
///
/// let rec = Recorder::enabled();
/// let c = rec.counter("explore.dedup_hits");
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
///
/// // Disabled recorders hand out no-op handles.
/// let off = Recorder::disabled().counter("anything");
/// off.inc();
/// assert_eq!(off.get(), 0);
/// ```
#[derive(Clone, Default, Debug)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` to the counter (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The shared cell behind an enabled [`Gauge`].
#[derive(Default, Debug)]
pub struct GaugeCell {
    pub(crate) value: AtomicI64,
    pub(crate) peak: AtomicI64,
}

/// A point-in-time level that also tracks its peak (e.g. the live state-store
/// size of an exploration).
///
/// # Examples
///
/// ```
/// use obs::Recorder;
///
/// let rec = Recorder::enabled();
/// let g = rec.gauge("explore.states");
/// g.set(10);
/// g.set(4);
/// assert_eq!((g.get(), g.peak()), (4, 10));
/// ```
#[derive(Clone, Default, Debug)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// Set the current level, updating the peak (no-op when disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.value.store(v, Ordering::Relaxed);
            g.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Move the current level by `delta`, updating the peak (no-op when
    /// disabled). One atomic add, so concurrent updates never lose one
    /// another the way a `set(get() + 1)` can.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = obs::Recorder::enabled().gauge("served.connections");
    /// g.add(1);
    /// g.add(1);
    /// g.add(-1);
    /// assert_eq!((g.get(), g.peak()), (1, 2));
    /// ```
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            let now = g.value.fetch_add(delta, Ordering::Relaxed) + delta;
            g.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.value.load(Ordering::Relaxed))
    }

    /// Highest level ever set (0 when disabled).
    pub fn peak(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.peak.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts observations
/// `v` with `i` significant bits, i.e. `2^(i-1) <= v < 2^i` (bucket 0 is
/// exactly `v == 0`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The shared cell behind an enabled [`Histogram`].
#[derive(Debug)]
pub struct HistogramCell {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A power-of-two-bucketed distribution (term sizes, critical-section
/// lengths, request latencies). Lock-free: one relaxed add per bucket/aggregate.
///
/// # Examples
///
/// ```
/// use obs::Recorder;
///
/// let rec = Recorder::enabled();
/// let h = rec.histogram("translate.skeleton_size");
/// h.observe(0);
/// h.observe(5);
/// h.observe(5);
/// let snap = h.snapshot();
/// assert_eq!((snap.count, snap.sum, snap.max), (3, 10, 5));
/// // 5 has 3 significant bits -> bucket 3 (range 4..8).
/// assert_eq!(snap.buckets, vec![(0, 1), (3, 2)]);
/// ```
#[derive(Clone, Default, Debug)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCell>>);

/// An owned, point-in-time view of a histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the power-of-two
    /// buckets by **bucket-midpoint estimation**:
    ///
    /// 1. The target rank is the smallest `r` with `r >= ceil(q * count)`,
    ///    clamped to `1 ..= count`.
    /// 2. Walk the buckets in ascending order until the cumulative count
    ///    reaches the rank; the estimate is that bucket's midpoint — `0` for
    ///    bucket 0 (exactly the value 0), `1` for bucket 1, and
    ///    `3 * 2^(i-2)` for bucket `i >= 2` (the midpoint of the covered
    ///    range `2^(i-1) .. 2^i`).
    /// 3. The estimate is clamped to the observed maximum, so a saturated
    ///    top bucket (every observation in the highest non-empty bucket)
    ///    never reports a value larger than anything actually observed.
    ///
    /// The estimate is exact when every observation in the selected bucket
    /// equals its midpoint and is otherwise off by at most a factor of two —
    /// the inherent resolution of power-of-two buckets. Returns `0` for an
    /// empty histogram. Monotone in `q` by construction (a larger `q` never
    /// selects an earlier bucket), which the serving layer's
    /// p50 ≤ p90 ≤ p99 CI assertion relies on.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(bucket, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return bucket_midpoint(bucket).min(self.max);
            }
        }
        self.max
    }
}

/// Midpoint of bucket `i`: the representative value quantile estimation
/// reports for an observation that landed there.
fn bucket_midpoint(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        // Bucket i covers 2^(i-1) .. 2^i; the midpoint is 3 * 2^(i-2).
        // For i = 64 this is 3 * 2^62, which still fits in a u64.
        _ => 3u64 << (i - 2),
    }
}

impl Histogram {
    /// Record one observation (no-op when disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            let bucket = (u64::BITS - v.leading_zeros()) as usize;
            h.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Snapshot the current distribution (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(h) => HistogramSnapshot {
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                max: h.max.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i, n))
                    })
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_are_inert() {
        let c = Counter::default();
        c.add(100);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(5);
        assert_eq!((g.get(), g.peak()), (0, 0));
        let h = Histogram::default();
        h.observe(9);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram(Some(Arc::new(HistogramCell::default())));
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // 0 -> b0; 1 -> b1; 2,3 -> b2; 4,7 -> b3; 8 -> b4; MAX -> b64.
        assert_eq!(
            snap.buckets,
            vec![(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (64, 1)]
        );
        assert_eq!(snap.count, 8);
        assert_eq!(snap.max, u64::MAX);
    }

    #[test]
    fn quantile_of_an_empty_histogram_is_zero() {
        let snap = HistogramSnapshot::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_of_a_single_observation_is_clamped_to_it() {
        let h = Histogram(Some(Arc::new(HistogramCell::default())));
        h.observe(5);
        let snap = h.snapshot();
        // 5 lands in bucket 3 (range 4..8, midpoint 6); the estimate is
        // clamped to the observed max, so every quantile reports 5 exactly.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 5, "q={q}");
        }
    }

    #[test]
    fn quantile_handles_the_saturated_top_bucket() {
        // Every observation in the highest bucket (64, values >= 2^63):
        // the midpoint 3 * 2^62 must not overflow, and must stay <= max.
        let h = Histogram(Some(Arc::new(HistogramCell::default())));
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(1u64 << 63);
        let snap = h.snapshot();
        let mid = 3u64 << 62;
        for q in [0.5, 0.9, 0.99] {
            let est = snap.quantile(q);
            assert_eq!(est, mid, "q={q}");
            assert!(est <= snap.max);
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram(Some(Arc::new(HistogramCell::default())));
        for v in [0u64, 1, 3, 9, 17, 300, 5_000, 70_000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        let (p50, p90, p99) = (
            snap.quantile(0.5),
            snap.quantile(0.9),
            snap.quantile(0.99),
        );
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // A mid-distribution estimate is within the selected bucket's range.
        assert!(p50 >= 8 && p50 <= 32, "{p50}");
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let c = Counter(Some(Arc::new(AtomicU64::new(0))));
        let c2 = c.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c2.get(), 4000);
    }

    #[test]
    fn concurrent_gauge_adds_never_lose_an_update() {
        let g = Gauge(Some(Arc::new(GaugeCell::default())));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        g.add(1);
                        g.add(-1);
                    }
                });
            }
        });
        assert_eq!(g.get(), 0);
        assert!((1..=8).contains(&g.peak()), "peak {}", g.peak());
    }
}

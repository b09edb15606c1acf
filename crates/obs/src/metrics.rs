//! Cheap atomic metrics: counters, gauges (with high-water marks), and
//! power-of-two histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are obtained from a
//! [`Recorder`](crate::Recorder) and cached by the instrumented code
//! outside its hot loops. A handle from a disabled recorder holds no
//! allocation and every operation on it is a branch-on-`None` no-op, so
//! instrumentation costs nothing when observability is off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` counts values with
/// `bit_length(v) == i`, i.e. `v == 0` in bucket 0 and
/// `2^(i-1) <= v < 2^i` in bucket `i`.
pub const HIST_BUCKETS: usize = 65;

/// A monotone counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[derive(Debug, Default)]
pub(crate) struct GaugeCell {
    value: AtomicU64,
    hwm: AtomicU64,
}

/// A gauge handle: a settable value with a tracked high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// Sets the current value, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.value.store(v, Ordering::Relaxed);
            g.hwm.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Raises the high-water mark without changing the current value.
    #[inline]
    pub fn record_peak(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.hwm.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|g| g.value.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The high-water mark.
    pub fn peak(&self) -> u64 {
        self.0
            .as_ref()
            .map(|g| g.hwm.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[derive(Debug)]
pub(crate) struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: [0u64; HIST_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A histogram handle over `u64` samples, with power-of-two buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistCell>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            let bucket = (u64::BITS - v.leading_zeros()) as usize;
            h.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        match &self.0 {
            None => HistSnapshot::default(),
            Some(h) => {
                let buckets: Vec<(u32, u64)> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u32, n))
                    })
                    .collect();
                HistSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    max: h.max.load(Ordering::Relaxed),
                    buckets,
                }
            }
        }
    }
}

/// A histogram snapshot: only the non-empty buckets, as
/// `(bit_length, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// `(bit_length(v), samples)` for each non-empty bucket; bucket `b`
    /// covers `2^(b-1) <= v < 2^b` (bucket 0 covers exactly `v == 0`).
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// The mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An **upper-bound estimate** of the `q`-quantile (`0 < q <= 1`),
    /// derived from the power-of-two buckets: the reported value is the
    /// upper edge (`2^b - 1`) of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`, clamped to the observed maximum. The
    /// true quantile lies in `(2^(b-1) - 1, reported]`; with bit-length
    /// buckets the estimate is at most 2× the true value. Returns 0 with
    /// no samples.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(bucket, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                let upper = if bucket == 0 {
                    0
                } else if bucket >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bucket) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Upper-bound estimate of the median. See [`HistSnapshot::percentile`].
    pub fn p50(&self) -> u64 {
        self.percentile(0.5)
    }

    /// Upper-bound estimate of the 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.9)
    }

    /// Upper-bound estimate of the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// The named-metric registry behind an enabled recorder.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    pub(crate) counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    pub(crate) hists: Mutex<BTreeMap<String, Arc<HistCell>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        Counter(Some(map.entry(name.to_string()).or_default().clone()))
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        Gauge(Some(map.entry(name.to_string()).or_default().clone()))
    }

    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.hists.lock().unwrap();
        Histogram(Some(map.entry(name.to_string()).or_default().clone()))
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: v.value.load(Ordering::Relaxed),
                            peak: v.hwm.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
            hists: self
                .hists
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), Histogram(Some(v.clone())).snapshot()))
                .collect(),
        }
    }
}

/// A gauge snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The last value set.
    pub value: u64,
    /// The high-water mark.
    pub peak: u64,
}

/// A point-in-time snapshot of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histograms by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Counters under `prefix`, as `(suffix, delta since before)` — used to
    /// isolate one engine run's numbers out of a shared recorder.
    pub fn counter_deltas(&self, before: &MetricsSnapshot, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, &v)| {
                let delta = v - before.counters.get(k).copied().unwrap_or(0);
                (delta > 0).then(|| (k[prefix.len()..].to_string(), delta))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let c = Counter::default();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(5);
        assert_eq!(g.peak(), 0);
        let h = Histogram::default();
        h.record(7);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let reg = Registry::default();
        let h = reg.histogram("h");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.max, 1000);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1000 → 10.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn percentiles_are_upper_bounds_on_known_distributions() {
        let reg = Registry::default();
        let h = reg.histogram("h");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Rank 50 lands in bucket 6 (32..=63): upper edge 63.
        assert_eq!(s.p50(), 63);
        assert!(s.p50() >= 50, "upper bound must not undershoot");
        // Ranks 90 and 99 land in bucket 7 (64..=127), clamped to max.
        assert_eq!(s.p90(), 100);
        assert_eq!(s.p99(), 100);

        // All-zero distribution: every percentile is 0.
        let z = reg.histogram("z");
        for _ in 0..10 {
            z.record(0);
        }
        let zs = z.snapshot();
        assert_eq!((zs.p50(), zs.p99()), (0, 0));

        // Empty histogram.
        assert_eq!(HistSnapshot::default().p50(), 0);

        // Skewed: 99 fast samples, 1 slow — p99 must reach the tail's
        // bucket (1000 → bucket 10, upper edge 1023, clamped to 1000).
        let sk = reg.histogram("sk");
        for _ in 0..99 {
            sk.record(1);
        }
        sk.record(1000);
        let ss = sk.snapshot();
        assert_eq!(ss.p50(), 1);
        assert_eq!(ss.p99(), 1);
        assert_eq!(ss.percentile(1.0), 1000);
    }

    #[test]
    fn gauge_tracks_high_water_mark() {
        let reg = Registry::default();
        let g = reg.gauge("g");
        g.set(3);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 9);
    }

    #[test]
    fn counters_are_atomic_across_threads() {
        let reg = Registry::default();
        let c = reg.counter("c");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        // The registry hands back the same cell for the same name.
        assert_eq!(reg.counter("c").get(), 80_000);
    }
}

//! Named counters, gauges and log-bucketed latency histograms.
//!
//! The design splits the cold path from the hot path. Looking a metric up
//! by name takes a mutex and may allocate — callers do that once, at
//! construction time, and hold on to the returned [`Counter`] /
//! [`Gauge`] / [`Histogram`] handle. Recording through a handle is a
//! relaxed atomic operation on shared storage: no lock, no allocation,
//! no branching beyond the bucket computation. That keeps the RPC
//! round-trip path within benchmark noise.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use syd_types::sync::Mutex;

/// Number of logarithmic histogram buckets: bucket 0 holds zero, bucket
/// `i` holds values with `floor(log2(v)) == i - 1`, the last bucket
/// absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter handle.
///
/// Cloning is cheap (an `Arc` bump); all clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
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
}

/// A gauge handle: a value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a detached gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram handle, intended for latencies in
/// microseconds.
///
/// `record` performs three relaxed atomic adds and nothing else, so it
/// is safe to call from RPC completion paths.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

#[inline]
fn bucket_index(value: u64) -> usize {
    // 0 → bucket 0; otherwise floor(log2(v)) + 1, saturating at the top.
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Representative value for a bucket, used when reading percentiles
/// back out: the midpoint of the bucket's value range.
fn bucket_mid(index: usize) -> u64 {
    if index == 0 {
        return 0;
    }
    let lo = 1u64 << (index - 1);
    lo + lo / 2
}

impl Histogram {
    /// Creates a detached histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (typically microseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Approximate percentile (`p` in `0.0..=1.0`), reported as the
    /// midpoint of the bucket containing the target rank.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.cells.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_mid(i);
            }
        }
        bucket_mid(HISTOGRAM_BUCKETS - 1)
    }

    /// Snapshot of count/sum/mean and the standard percentiles.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            mean: sum.checked_div(count).unwrap_or(0),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Integer mean (`sum / count`).
    pub mean: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) is the cold path and
/// takes a mutex; it returns a handle that records lock-free. Asking for
/// the same name twice returns a handle to the same underlying cell, so
/// independent modules can share a metric by name.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
    /// When set, every operation delegates to the parent: this registry
    /// is a near-zero-cost forwarder (see [`Registry::with_parent`]).
    parent: Option<Arc<Registry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a *scoped* registry that delegates every operation to
    /// `parent`.
    ///
    /// Fleet mode: a process hosting 10k devices cannot afford 10k
    /// copies of the full metric families (each histogram alone is 64
    /// buckets). A scoped registry owns no cells at all — handles it
    /// returns are the parent's, so all devices sharing one parent
    /// aggregate into one set of cells while keeping the per-device
    /// `Arc<Registry>` plumbing unchanged.
    pub fn with_parent(parent: Arc<Registry>) -> Self {
        Registry {
            inner: Mutex::new(RegistryInner::default()),
            parent: Some(parent),
        }
    }

    /// True when this registry delegates to a parent.
    pub fn is_scoped(&self) -> bool {
        self.parent.is_some()
    }

    /// Gets or creates the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(parent) = &self.parent {
            return parent.counter(name);
        }
        let mut inner = self.inner.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(parent) = &self.parent {
            return parent.gauge(name);
        }
        let mut inner = self.inner.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(parent) = &self.parent {
            return parent.histogram(name);
        }
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The counter called `name`, if it has been registered.
    pub fn get_counter(&self, name: &str) -> Option<Counter> {
        if let Some(parent) = &self.parent {
            return parent.get_counter(name);
        }
        self.inner.lock().counters.get(name).cloned()
    }

    /// The gauge called `name`, if it has been registered.
    pub fn get_gauge(&self, name: &str) -> Option<Gauge> {
        if let Some(parent) = &self.parent {
            return parent.get_gauge(name);
        }
        self.inner.lock().gauges.get(name).cloned()
    }

    /// The histogram called `name`, if it has been registered.
    pub fn get_histogram(&self, name: &str) -> Option<Histogram> {
        if let Some(parent) = &self.parent {
            return parent.get_histogram(name);
        }
        self.inner.lock().histograms.get(name).cloned()
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if let Some(parent) = &self.parent {
            return parent.snapshot();
        }
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`]'s contents.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn counter_shares_storage_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.get_counter("x").unwrap().get(), 3);
        assert!(reg.get_counter("y").is_none());
    }

    #[test]
    fn scoped_registry_delegates_everything_to_parent() {
        let parent = Arc::new(Registry::new());
        let a = Registry::with_parent(Arc::clone(&parent));
        let b = Registry::with_parent(Arc::clone(&parent));
        assert!(a.is_scoped() && !parent.is_scoped());
        a.counter("c").inc();
        b.counter("c").add(2);
        assert_eq!(parent.get_counter("c").unwrap().get(), 3);
        a.gauge("g").set(4);
        assert_eq!(b.get_gauge("g").unwrap().get(), 4);
        a.histogram("h").record(9);
        assert_eq!(parent.get_histogram("h").unwrap().count(), 1);
        let snap = b.snapshot();
        assert_eq!(snap.counters, vec![("c".to_string(), 3)]);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_indices_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Huge values saturate into the last bucket instead of indexing
        // past the array.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 62), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket of [64, 127]
        }
        for _ in 0..10 {
            h.record(10_000); // bucket of [8192, 16383]
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 100 + 10 * 10_000);
        let p50 = h.percentile(0.50);
        assert!((64..=127).contains(&p50), "p50={p50}");
        let p99 = h.percentile(0.99);
        assert!((8_192..=16_383).contains(&p99), "p99={p99}");
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, (90 * 100 + 10 * 10_000) / 100);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::new().summary();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(5);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 5), ("b".to_string(), 1)]
        );
        assert_eq!(snap.gauges, vec![("g".to_string(), -2)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        let _ = h.percentile(1.0);
        let _ = h.percentile(0.0);
    }
}

//! Metrics registry: monotonic counters, gauges, fixed-bucket latency
//! histograms, and the mergeable [`MetricsSnapshot`] exporter.
//!
//! All instruments are lock-free after creation (relaxed atomics); the
//! registry itself takes a short mutex only when an instrument is first
//! named or a snapshot is cut. Snapshots merge associatively — counters
//! and histogram buckets add with saturation, gauges keep the maximum —
//! so per-shard or per-run reports can be folded in any grouping.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bounds (inclusive, nanoseconds) of the fixed latency buckets:
/// 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s. Observations above the
/// last bound land in an overflow bucket, so a histogram has
/// `LATENCY_BUCKET_BOUNDS_NS.len() + 1` buckets.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A gauge holding the latest `f64` sample. Cloning shares the cell.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Overwrite the gauge with `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

/// A latency histogram over [`LATENCY_BUCKET_BOUNDS_NS`] plus an
/// overflow bucket, with total count and sum. Cloning shares the cells.
#[derive(Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64]>,
    count: Arc<AtomicU64>,
    sum_ns: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..=LATENCY_BUCKET_BOUNDS_NS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: Arc::new(AtomicU64::new(0)),
            sum_ns: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
    }

    /// Copy out the histogram's current contents.
    pub fn data(&self) -> HistogramData {
        HistogramData {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum_ns: self.sum_ns.load(Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram, suitable for merging.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramData {
    /// Per-bucket observation counts; last entry is the overflow
    /// bucket. May be shorter than the canonical layout in a snapshot
    /// that was built by hand — merges zero-pad.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, nanoseconds, saturating.
    pub sum_ns: u64,
}

impl HistogramData {
    /// Elementwise-merge `other` into `self`: buckets, count, and sum
    /// add with saturation; bucket vectors of different lengths are
    /// zero-padded to the longer one. Saturating unsigned addition is
    /// associative (every intermediate is ≤ the true sum, so clamping
    /// commutes with grouping), which keeps snapshot folds
    /// order-insensitive.
    pub fn merge(&mut self, other: &HistogramData) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Mean observation in nanoseconds, or 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// Named instruments, created on first use and shared thereafter.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created zeroed on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The gauge named `name`, created at 0.0 on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Cut a point-in-time [`MetricsSnapshot`] of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.data()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Drop every instrument (tests use this to isolate scenarios; the
    /// shared `Counter`/`Gauge` handles already handed out keep working
    /// but are no longer reachable from the registry).
    pub fn reset(&self) {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry all built-in instrumentation reports to.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time export of a [`Registry`]: one report that call sites
/// extend with domain instruments (e.g. the store's `StoreCounters` as
/// counters, its occupancy and sink health as gauges) before rendering
/// or merging.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramData>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`. Counters and histograms add with
    /// saturation; gauges keep the maximum (`f64::max`, NaN-resistant:
    /// a NaN on either side yields the other operand). All three are
    /// associative and commutative, so folding shard snapshots in any
    /// grouping yields the same report — property-tested in
    /// `tests/metrics_properties.rs`.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(f64::NEG_INFINITY);
            *slot = if slot.is_nan() {
                *value
            } else {
                slot.max(*value)
            };
        }
        for (name, data) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(data);
        }
    }

    /// Set gauge `name` in the snapshot itself (used to graft domain
    /// occupancy values into the report).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Set counter `name` in the snapshot itself (used to graft domain
    /// counts like `StoreCounters` into the report).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Total number of named instruments in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot holds no instruments at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics snapshot ({} instruments)", self.len())?;
        for (name, value) in &self.counters {
            writeln!(f, "  counter   {name} = {value}")?;
        }
        for (name, value) in &self.gauges {
            writeln!(f, "  gauge     {name} = {value}")?;
        }
        for (name, data) in &self.histograms {
            writeln!(
                f,
                "  histogram {name} count={} mean={}",
                data.count,
                crate::format_ns(data.mean_ns() as u64)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations_by_bound() {
        let h = Histogram::default();
        h.observe_ns(500); // ≤ 1µs → bucket 0
        h.observe_ns(1_000); // inclusive bound → bucket 0
        h.observe_ns(2_000_000); // ≤ 10ms → bucket 4
        h.observe_ns(u64::MAX); // overflow bucket
        let data = h.data();
        assert_eq!(data.count, 4);
        assert_eq!(data.buckets[0], 2);
        assert_eq!(data.buckets[4], 1);
        assert_eq!(data.buckets[LATENCY_BUCKET_BOUNDS_NS.len()], 1);
    }

    #[test]
    fn registry_returns_shared_instruments() {
        let registry = Registry::new();
        registry.counter("x").add(3);
        registry.counter("x").inc();
        assert_eq!(registry.counter("x").get(), 4);
        registry.gauge("g").set(2.5);
        assert_eq!(registry.gauge("g").get(), 2.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["x"], 4);
        assert_eq!(snap.gauges["g"], 2.5);
    }

    #[test]
    fn merge_pads_short_bucket_vectors() {
        let mut a = HistogramData {
            buckets: vec![1],
            count: 1,
            sum_ns: 10,
        };
        let b = HistogramData {
            buckets: vec![0, 2, 3],
            count: 5,
            sum_ns: 50,
        };
        a.merge(&b);
        assert_eq!(a.buckets, vec![1, 2, 3]);
        assert_eq!(a.count, 6);
        assert_eq!(a.sum_ns, 60);
    }
}

//! Lock-cheap metrics: counters, gauges and fixed-bucket histograms.
//!
//! A [`Registry`] hands out cheap cloneable handles backed by atomic
//! storage, so worker threads record without contention; the registry's
//! own lock is touched only at registration and snapshot time. A
//! disabled registry ([`Registry::disabled`]) hands out no-op handles
//! whose record path is a single branch.
//!
//! Every family is tagged with a [`Determinism`] domain:
//!
//! * [`Determinism::Result`] — derived from simulation *results*, so the
//!   values are byte-identical whether jobs were simulated or served from
//!   the artifact cache, and independent of thread count;
//! * [`Determinism::Execution`] — derived from what actually *ran* (jobs
//!   executed, wall times, injected faults), which legitimately differs
//!   between cold and warm caches.
//!
//! Exporters can render either the full snapshot or the deterministic
//! subset ([`Snapshot::deterministic_only`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What kind of metric a family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-write-wins `f64`.
    Gauge,
    /// Fixed-bucket `f64` distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Whether a family's values are deterministic for a given scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Derived from results: identical for cache-hit and cache-miss
    /// replays of the same scenario, at any thread count.
    Result,
    /// Derived from execution: varies with caching, threads and wall
    /// clock.
    Execution,
}

/// Adds `v` to an `f64` stored as bits in an [`AtomicU64`].
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    bits: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    /// Upper bucket bounds (`le` semantics), strictly increasing; an
    /// implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries,
    /// non-cumulative; the exporter accumulates).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of *finite* observations, as `f64` bits.
    sum_bits: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, v: f64) {
        // Non-finite observations land in the +Inf bucket and are kept
        // out of the sum so `name_sum` stays a number.
        let idx = if v.is_nan() {
            self.bounds.len()
        } else {
            self.bounds
                .iter()
                .position(|b| v <= *b)
                .unwrap_or(self.bounds.len())
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            atomic_f64_add(&self.sum_bits, v);
        }
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    determinism: Determinism,
    cell: Cell,
}

#[derive(Debug, Default)]
struct RegistryInner {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Handle registry for one observability scope (typically one process
/// or one experiment session).
///
/// Cloning shares the underlying storage. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a disabled handle).
    pub fn value(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.bits.load(Ordering::Relaxed)))
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.observe(v);
        }
    }

    /// Total observations so far (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::default()),
        }
    }

    /// A registry whose handles are no-ops (a single branch per record).
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// `true` when recording actually stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        determinism: Determinism,
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let inner = match &self.inner {
            Some(i) => i,
            None => return make(),
        };
        let mut families = inner.families.lock().expect("metrics registry poisoned");
        if let Some(existing) = families.get(name) {
            assert!(
                existing.kind == kind,
                "metric `{name}` already registered as a {}",
                existing.kind.as_str()
            );
            return existing.cell.clone();
        }
        let cell = make();
        families.insert(
            name.to_string(),
            Family {
                help: help.to_string(),
                kind,
                determinism,
                cell: cell.clone(),
            },
        );
        cell
    }

    fn counter_in(&self, name: &str, help: &str, d: Determinism) -> Counter {
        if self.inner.is_none() {
            return Counter::default();
        }
        match self.register(name, help, MetricKind::Counter, d, || {
            Cell::Counter(Arc::default())
        }) {
            Cell::Counter(c) => Counter { cell: Some(c) },
            _ => unreachable!("kind checked at registration"),
        }
    }

    fn gauge_in(&self, name: &str, help: &str, d: Determinism) -> Gauge {
        if self.inner.is_none() {
            return Gauge::default();
        }
        match self.register(name, help, MetricKind::Gauge, d, || {
            Cell::Gauge(Arc::default())
        }) {
            Cell::Gauge(c) => Gauge { cell: Some(c) },
            _ => unreachable!("kind checked at registration"),
        }
    }

    fn histogram_in(&self, name: &str, help: &str, bounds: &[f64], d: Determinism) -> Histogram {
        if self.inner.is_none() {
            return Histogram::default();
        }
        match self.register(name, help, MetricKind::Histogram, d, || {
            Cell::Histogram(Arc::new(HistogramCell::new(bounds)))
        }) {
            Cell::Histogram(c) => Histogram { cell: Some(c) },
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Registers (or retrieves) an execution-domain counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_in(name, help, Determinism::Execution)
    }

    /// Registers (or retrieves) a result-domain counter (identical for
    /// cached and fresh replays of the same scenario).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn result_counter(&self, name: &str, help: &str) -> Counter {
        self.counter_in(name, help, Determinism::Result)
    }

    /// Registers (or retrieves) an execution-domain gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_in(name, help, Determinism::Execution)
    }

    /// Registers (or retrieves) an execution-domain histogram with the
    /// given upper bucket bounds (a `+Inf` bucket is implicit; bounds are
    /// sorted and deduplicated, non-finite bounds dropped).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_in(name, help, bounds, Determinism::Execution)
    }

    /// Registers (or retrieves) a result-domain histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn result_histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_in(name, help, bounds, Determinism::Result)
    }

    /// A point-in-time copy of every registered family, name-sorted.
    pub fn snapshot(&self) -> Snapshot {
        let inner = match &self.inner {
            Some(i) => i,
            None => return Snapshot::default(),
        };
        let families = inner.families.lock().expect("metrics registry poisoned");
        let families = families
            .iter()
            .map(|(name, f)| MetricFamily {
                name: name.clone(),
                help: f.help.clone(),
                kind: f.kind,
                determinism: f.determinism,
                value: match &f.cell {
                    Cell::Counter(c) => MetricValue::Counter(c.value.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => {
                        MetricValue::Gauge(f64::from_bits(g.bits.load(Ordering::Relaxed)))
                    }
                    Cell::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds.clone(),
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                    },
                },
            })
            .collect();
        Snapshot { families }
    }
}

/// One family in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (Prometheus-safe: `[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Result- or execution-domain.
    pub determinism: Determinism,
    /// The family's current value.
    pub value: MetricValue,
}

/// The value payload of one family.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Upper bucket bounds (`+Inf` implicit).
        bounds: Vec<f64>,
        /// Non-cumulative per-bucket counts (`bounds.len() + 1` entries).
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of finite observations.
        sum: f64,
    },
}

/// Point-in-time copy of a registry, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every family, sorted by name.
    pub families: Vec<MetricFamily>,
}

impl Snapshot {
    /// The subset of families whose values are deterministic for a given
    /// scenario (see [`Determinism::Result`]).
    pub fn deterministic_only(&self) -> Snapshot {
        Snapshot {
            families: self
                .families
                .iter()
                .filter(|f| f.determinism == Determinism::Result)
                .cloned()
                .collect(),
        }
    }

    /// Looks a family up by name.
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("jobs_total", "jobs");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        let g = r.gauge("threads", "threads");
        g.set(8.0);
        assert_eq!(g.value(), 8.0);
        // Same name returns the same cell.
        let c2 = r.counter("jobs_total", "jobs");
        c2.inc();
        assert_eq!(c.value(), 6);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _c = r.counter("x", "x");
        let _g = r.gauge("x", "x");
    }

    #[test]
    fn disabled_handles_are_noops() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("a", "a");
        c.add(100);
        assert_eq!(c.value(), 0);
        let h = r.histogram("h", "h", &[1.0]);
        h.observe(0.5);
        assert_eq!(h.count(), 0);
        assert!(r.snapshot().families.is_empty());
    }

    #[test]
    fn histogram_bucket_edges() {
        let r = Registry::new();
        let h = r.histogram("lat", "latency", &[1.0, 2.5, 10.0]);
        h.observe(0.0); // below first bound -> bucket 0
        h.observe(1.0); // exactly on a bound -> le semantics, bucket 0
        h.observe(1.0000001); // just above -> bucket 1
        h.observe(2.5); // on second bound -> bucket 1
        h.observe(10.0); // on last bound -> bucket 2
        h.observe(11.0); // above all bounds -> +Inf bucket
        h.observe(-3.0); // negative -> bucket 0
        let snap = r.snapshot();
        match &snap.family("lat").unwrap().value {
            MetricValue::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                assert_eq!(bounds, &[1.0, 2.5, 10.0]);
                // 0.0, 1.0 (on the bound) and -3.0 land in bucket 0.
                assert_eq!(buckets, &[3, 2, 1, 1][..]);
                assert_eq!(*count, 7);
                assert!((*sum - (0.0 + 1.0 + 1.0000001 + 2.5 + 10.0 + 11.0 - 3.0)).abs() < 1e-9);
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn histogram_nonfinite_observations() {
        let r = Registry::new();
        let h = r.histogram("x", "x", &[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY); // -inf <= 1.0 -> bucket 0, not in sum
        h.observe(0.5);
        match &r.snapshot().family("x").unwrap().value {
            MetricValue::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                assert_eq!(*count, 4);
                assert_eq!(buckets, &[2, 2][..], "NaN and +inf land in +Inf bucket");
                assert!((sum - 0.5).abs() < 1e-12, "sum only counts finite values");
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn histogram_bounds_sorted_and_deduped() {
        let r = Registry::new();
        let h = r.histogram("x", "x", &[5.0, 1.0, 5.0, f64::INFINITY]);
        h.observe(2.0);
        match &r.snapshot().family("x").unwrap().value {
            MetricValue::Histogram {
                bounds, buckets, ..
            } => {
                assert_eq!(bounds, &[1.0, 5.0]);
                assert_eq!(buckets, &[0, 1, 0][..]);
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn empty_bounds_single_inf_bucket() {
        let r = Registry::new();
        let h = r.histogram("x", "x", &[]);
        h.observe(123.0);
        match &r.snapshot().family("x").unwrap().value {
            MetricValue::Histogram {
                bounds, buckets, ..
            } => {
                assert!(bounds.is_empty());
                assert_eq!(buckets, &[1][..]);
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn deterministic_subset_filters_execution_families() {
        let r = Registry::new();
        r.counter("exec_total", "e").inc();
        r.result_counter("result_total", "r").inc();
        let det = r.snapshot().deterministic_only();
        assert_eq!(det.families.len(), 1);
        assert_eq!(det.families[0].name, "result_total");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = Registry::new();
        let c = r.counter("n", "n");
        let h = r.histogram("h", "h", &[0.5]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(if i % 2 == 0 { 0.25 } else { 0.75 });
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        assert_eq!(h.count(), 4000);
    }
}

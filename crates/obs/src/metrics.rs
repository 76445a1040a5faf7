//! A process-wide metrics registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! Metrics are cheap enough to leave on unconditionally (atomic adds behind
//! an `Arc` the caller holds on to); the registry exists so that a single
//! end-of-run [`snapshot`] can be journaled or printed without every
//! subsystem wiring its own counters through function signatures.
//!
//! Names are flat dotted strings (`engine.cache.hits`,
//! `parallel.busy_us`). The first registration of a name fixes its kind
//! (and, for histograms, its bucket bounds); a later registration with a
//! different kind panics — that is a programming error, not an operational
//! condition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tracks one worker's busy/idle split over its lifetime.
///
/// Start the clock when the worker spawns, wrap each unit of real work in
/// [`busy`](WorkClock::busy) (or accumulate with
/// [`add_busy`](WorkClock::add_busy)); everything else — queue waits,
/// channel blocking — counts as idle. Both `ibp_sim`'s `parallel_map`
/// workers and its shard workers report through one of these, so occupancy
/// is measured identically across the two pools.
#[derive(Debug)]
pub struct WorkClock {
    spawned: Instant,
    busy: Duration,
}

impl WorkClock {
    /// Starts the clock (the worker's spawn instant).
    #[must_use]
    pub fn start() -> Self {
        WorkClock {
            spawned: Instant::now(),
            busy: Duration::ZERO,
        }
    }

    /// Runs `f`, attributing its duration to busy time.
    pub fn busy<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.busy += t0.elapsed();
        out
    }

    /// Adds an externally measured busy duration.
    pub fn add_busy(&mut self, d: Duration) {
        self.busy += d;
    }

    /// Busy time so far, in microseconds.
    #[must_use]
    pub fn busy_us(&self) -> u64 {
        u64::try_from(self.busy.as_micros()).unwrap_or(u64::MAX)
    }

    /// Idle time so far (lifetime minus busy), in microseconds.
    #[must_use]
    pub fn idle_us(&self) -> u64 {
        let total = self.spawned.elapsed().saturating_sub(self.busy);
        u64::try_from(total.as_micros()).unwrap_or(u64::MAX)
    }

    /// Busy time as a percentage of lifetime, capped at 100. A clock with
    /// no measurable lifetime reads 100 (it never waited).
    #[must_use]
    pub fn util_pct(&self) -> u64 {
        let total = self.spawned.elapsed();
        if total.is_zero() {
            100
        } else {
            ((100.0 * self.busy.as_secs_f64() / total.as_secs_f64()).round() as u64).min(100)
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed bucket upper bounds.
///
/// A recorded value lands in the first bucket whose (inclusive) upper
/// bound is `>=` the value; values above every bound land in an implicit
/// overflow bucket, so `counts()` has `bounds().len() + 1` entries.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket upper bounds this histogram was registered with.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// A consistent-enough copy of the current state (buckets are read
    /// individually; concurrent recording may skew totals by in-flight
    /// observations, which is fine for reporting).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; the final entry is the overflow
    /// bucket (values above every bound).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Gets or registers the counter `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Gets or registers the gauge `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Gets or registers the histogram `name`. The first registration fixes the
/// bucket bounds; later calls return the existing histogram regardless of
/// the bounds they pass.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind, or if
/// `bounds` is not strictly increasing.
#[must_use]
pub fn histogram(name: &str, bounds: &[u64]) -> Arc<Histogram> {
    let mut reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// All gauges as `(name, value)`.
    pub gauges: Vec<(String, i64)>,
    /// All histograms as `(name, snapshot)`.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots every registered metric.
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut snap = Snapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
            Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
            Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = counter("test.metrics.counter");
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Same name returns the same underlying counter.
        assert_eq!(counter("test.metrics.counter").get(), 10);

        let g = gauge("test.metrics.gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = histogram("test.metrics.hist", &[10, 100, 1000]);
        // A value equal to a bound lands in that bound's bucket (inclusive
        // upper bounds)...
        h.record(10);
        // ...one above it in the next bucket...
        h.record(11);
        h.record(100);
        h.record(101);
        // ...zero in the first bucket, and anything beyond the last bound
        // in the overflow bucket.
        h.record(0);
        h.record(1001);
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![10, 100, 1000]);
        assert_eq!(s.counts, vec![2, 2, 1, 1]); // {0,10}, {11,100}, {101}, {1001}
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 10 + 11 + 100 + 101 + 1001);
        assert!((s.mean() - (s.sum as f64 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = histogram("test.metrics.hist_empty", &[1]);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = histogram("test.metrics.hist_bad", &[10, 10]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let _ = counter("test.metrics.mismatch");
        let _ = gauge("test.metrics.mismatch");
    }

    #[test]
    fn work_clock_attributes_busy_time() {
        let mut clock = WorkClock::start();
        assert_eq!(clock.busy_us(), 0);
        let out = clock.busy(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(clock.busy_us() >= 1_000, "busy = {}us", clock.busy_us());
        clock.add_busy(Duration::from_millis(1));
        assert!(clock.busy_us() >= 2_000);
        assert!(clock.util_pct() <= 100);
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("test.metrics.snap_counter").add(7);
        gauge("test.metrics.snap_gauge").set(-4);
        histogram("test.metrics.snap_hist", &[5]).record(3);
        let s = snapshot();
        assert!(s
            .counters
            .iter()
            .any(|(n, v)| n == "test.metrics.snap_counter" && *v >= 7));
        assert!(s
            .gauges
            .iter()
            .any(|(n, v)| n == "test.metrics.snap_gauge" && *v == -4));
        assert!(s
            .histograms
            .iter()
            .any(|(n, h)| n == "test.metrics.snap_hist" && h.count >= 1));
    }
}

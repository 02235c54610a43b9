//! A process-local registry of named counters, gauges, and histograms
//! with Prometheus text exposition.
//!
//! Instruments are plain `u64` atomics (Prometheus counters/gauges are
//! scraped as numbers; derived rates like pool hit-rate are the
//! scraper's job, so the registry never needs floats). Components
//! either hold a handle ([`Counter`], [`Gauge`], [`Histogram`]) and
//! update it on their hot path, or register a *polled* closure that is
//! sampled at render time — the right shape for stats that already live
//! in engine atomics (pool hits, WAL bytes) and must not be counted
//! twice.
//!
//! Naming scheme (documented in `docs/architecture.md`): every series
//! is `tmql_<layer>_<what>[_total]` — `tmql_pool_*` and `tmql_wal_*`
//! from storage, `tmql_exec_*` from the executor's work counters,
//! `tmql_query_*` / `tmql_txn_*` / `tmql_recovery_*` from the facade.
//! Monotonic counters end in `_total`; point-in-time gauges do not.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter handle.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A point-in-time gauge handle (set, or ratcheted up with
/// [`Gauge::fetch_max`]).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Ratchet the gauge up to at least `v` (high-water marks).
    pub fn fetch_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

struct HistogramCore {
    /// Upper bucket bounds, ascending; an implicit `+Inf` bucket
    /// follows. Counts are per-bucket (cumulated only at render time).
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 slots
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle over `u64` observations (the engine
/// records wall-clock in integer microseconds).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        let idx = c.bounds.partition_point(|&b| b < v);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram(count={}, sum={})", self.count(), self.sum())
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    /// Sampled at render time; `true` marks the series a counter
    /// (rendered with `# TYPE ... counter`), `false` a gauge.
    Polled(Box<dyn Fn() -> u64 + Send + Sync>, bool),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named collection of instruments with Prometheus text exposition.
///
/// Each `Database` owns one registry; there is no global state, so
/// tests and embedded uses stay isolated.
///
/// A name belongs to the kind it was first registered as. Registering it
/// again as another kind returns a fresh handle that no rendering reads:
/// the engine's own series never clash (pinned by a test that registers
/// them all on one registry), and a caller's clash must not take the
/// engine's metrics down with it.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, also after a thread panicked while holding them: every
    /// update leaves the list whole, so a poisoned lock guards no torn state.
    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or fetch the existing) counter named `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return match &e.instrument {
                Instrument::Counter(c) => c.clone(),
                _ => Counter::default(), // a kind clash: detached (see `MetricsRegistry`)
            };
        }
        let c = Counter::default();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Counter(c.clone()),
        });
        c
    }

    /// Register (or fetch the existing) gauge named `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return match &e.instrument {
                Instrument::Gauge(g) => g.clone(),
                _ => Gauge::default(), // a kind clash: detached (see `MetricsRegistry`)
            };
        }
        let g = Gauge::default();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Gauge(g.clone()),
        });
        g
    }

    /// Register a counter whose value is sampled from `f` at render
    /// time. Use for monotonic totals that already live in engine
    /// atomics (pool misses, WAL appends) so they are never counted in
    /// two places. Re-registering a name replaces the closure.
    pub fn counter_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.polled(name, help, Box::new(f), true);
    }

    /// Register a gauge sampled from `f` at render time (resident
    /// pages, free-list length, WAL size).
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.polled(name, help, Box::new(f), false);
    }

    fn polled(&self, name: &str, help: &str, f: Box<dyn Fn() -> u64 + Send + Sync>, counter: bool) {
        let mut entries = self.lock();
        if let Some(e) = entries.iter_mut().find(|e| e.name == name) {
            e.instrument = Instrument::Polled(f, counter);
            return;
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Polled(f, counter),
        });
    }

    /// Register (or fetch the existing) histogram named `name` with the
    /// given ascending upper bucket `bounds` (a `+Inf` bucket is
    /// implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let h = Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }));
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return match &e.instrument {
                Instrument::Histogram(h) => h.clone(),
                _ => h, // a kind clash: detached (see `MetricsRegistry`)
            };
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Histogram(h.clone()),
        });
        h
    }

    /// Render every registered series in Prometheus text exposition
    /// format (`# HELP` / `# TYPE` / samples), families sorted by name
    /// for deterministic output.
    pub fn render(&self) -> String {
        let entries = self.lock();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| entries[a].name.cmp(&entries[b].name));
        let mut out = String::new();
        for i in order {
            let e = &entries[i];
            let ty = match &e.instrument {
                Instrument::Counter(_) | Instrument::Polled(_, true) => "counter",
                Instrument::Gauge(_) | Instrument::Polled(_, false) => "gauge",
                Instrument::Histogram(_) => "histogram",
            };
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} {ty}\n",
                e.name, e.help, e.name
            ));
            match &e.instrument {
                Instrument::Counter(c) => out.push_str(&format!("{} {}\n", e.name, c.get())),
                Instrument::Gauge(g) => out.push_str(&format!("{} {}\n", e.name, g.get())),
                Instrument::Polled(f, _) => out.push_str(&format!("{} {}\n", e.name, f())),
                Instrument::Histogram(h) => {
                    let core = &h.0;
                    let mut cum = 0u64;
                    for (bi, bound) in core.bounds.iter().enumerate() {
                        cum += core.buckets[bi].load(Ordering::Relaxed);
                        out.push_str(&format!("{}_bucket{{le=\"{bound}\"}} {cum}\n", e.name));
                    }
                    cum += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {cum}\n", e.name));
                    out.push_str(&format!("{}_sum {}\n", e.name, h.sum()));
                    out.push_str(&format!("{}_count {}\n", e.name, h.count()));
                }
            }
        }
        out
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.lock().len();
        write!(f, "MetricsRegistry({n} series)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_polled_render() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("tmql_test_events_total", "events seen");
        c.add(3);
        let g = reg.gauge("tmql_test_depth", "current depth");
        g.set(7);
        reg.gauge_fn("tmql_test_polled", "sampled at render", || 42);
        let text = reg.render();
        assert!(
            text.contains("# TYPE tmql_test_events_total counter"),
            "{text}"
        );
        assert!(text.contains("tmql_test_events_total 3\n"), "{text}");
        assert!(text.contains("# TYPE tmql_test_depth gauge"), "{text}");
        assert!(text.contains("tmql_test_depth 7\n"), "{text}");
        assert!(text.contains("tmql_test_polled 42\n"), "{text}");
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("tmql_test_x_total", "x");
        let b = reg.counter("tmql_test_x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(reg.render().matches("# TYPE tmql_test_x_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_cumulate() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("tmql_test_lat", "latency", &[10, 100, 1000]);
        for v in [5, 50, 50, 500, 5000] {
            h.observe(v);
        }
        let text = reg.render();
        assert!(
            text.contains("tmql_test_lat_bucket{le=\"10\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tmql_test_lat_bucket{le=\"100\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("tmql_test_lat_bucket{le=\"1000\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("tmql_test_lat_bucket{le=\"+Inf\"} 5\n"),
            "{text}"
        );
        assert!(text.contains("tmql_test_lat_sum 5605\n"), "{text}");
        assert!(text.contains("tmql_test_lat_count 5\n"), "{text}");
        // Boundary values land in their own bucket (le is inclusive).
        h.observe(10);
        assert!(reg.render().contains("tmql_test_lat_bucket{le=\"10\"} 2\n"));
    }

    #[test]
    fn a_kind_clash_leaves_the_registry_working() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "first a counter").add(2);
        let clash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("x", "then a gauge").set(9);
            reg.histogram("x", "then a histogram", &[1]).observe(5);
        }));
        assert!(clash.is_ok(), "a kind clash must not panic");
        let text = reg.render();
        assert!(text.contains("# TYPE x counter\nx 2\n"), "{text}");
        reg.gauge("y", "registered after the clash").set(4);
        assert_eq!(reg.counter("x", "again").get(), 2);
        assert!(reg.render().contains("y 4\n"), "{}", reg.render());
    }

    #[test]
    fn a_panic_while_locked_does_not_poison_the_registry() {
        let reg = MetricsRegistry::new();
        reg.gauge_fn("tmql_test_boom", "panics when sampled", || panic!("boom"));
        let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.render()));
        assert!(rendered.is_err());
        reg.gauge_fn("tmql_test_boom", "replaced", || 1);
        reg.counter("tmql_test_after_total", "after").inc();
        let text = reg.render();
        assert!(text.contains("tmql_test_boom 1\n"), "{text}");
        assert!(text.contains("tmql_test_after_total 1\n"), "{text}");
    }

    #[test]
    fn families_sort_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("tmql_zz_total", "z");
        reg.counter("tmql_aa_total", "a");
        let text = reg.render();
        let a = text.find("tmql_aa_total").unwrap();
        let z = text.find("tmql_zz_total").unwrap();
        assert!(a < z, "{text}");
    }
}

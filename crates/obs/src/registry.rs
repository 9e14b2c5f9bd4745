//! The global telemetry registry.
//!
//! One process-wide registry holds every counter, gauge and histogram,
//! keyed by dotted name (`"sim.tick"`, `"forest.tree_fit_us"`). The
//! registry itself is guarded by plain `std::sync::Mutex`es — the crate
//! deliberately sits *below* every other workspace crate and therefore
//! carries zero dependencies — while the hot-path cells are atomics:
//!
//! * counters and gauges are `AtomicU64` cells (gauges store `f64` bits);
//! * histograms take a short per-histogram lock only while folding one
//!   observation in.
//!
//! When telemetry is disabled (the default) every operation returns
//! after a single `Relaxed` atomic load — no locking, no allocation, no
//! clock reads — which is what keeps instrumented hot loops within noise
//! of their uninstrumented cost (`table_obs` prints the per-call cost).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::config::{ExportFormat, TelemetryConfig};
use crate::histogram::{HistogramSummary, LogHistogram};

static ENABLED: AtomicBool = AtomicBool::new(false);
static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently recording. A single relaxed load —
/// instrumentation call sites may use it to skip argument preparation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The active export format.
pub fn format() -> ExportFormat {
    match FORMAT.load(Ordering::Relaxed) {
        1 => ExportFormat::Jsonl,
        2 => ExportFormat::Prom,
        _ => ExportFormat::Off,
    }
}

/// Installs a telemetry configuration (normally once, at startup).
/// Enables or disables recording process-wide.
pub fn init(config: &TelemetryConfig) {
    let code = match config.format {
        ExportFormat::Off => 0,
        ExportFormat::Jsonl => 1,
        ExportFormat::Prom => 2,
    };
    FORMAT.store(code, Ordering::Relaxed);
    ENABLED.store(config.enabled(), Ordering::Relaxed);
    crate::journal::set_trace_mode(config.trace);
    crate::export::process_start_us();
}

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LogHistogram>>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// Takes `m`'s lock, recovering it from poison: the registry's maps and
/// histograms and the journal's ring hold plain telemetry data, which a
/// panic that cuts one update short leaves usable.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter_cell(name: &str) -> Arc<AtomicU64> {
    let mut map = lock(&registry().counters);
    if let Some(c) = map.get(name) {
        return Arc::clone(c);
    }
    let cell = Arc::new(AtomicU64::new(0));
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

fn gauge_cell(name: &str) -> Arc<AtomicU64> {
    let mut map = lock(&registry().gauges);
    if let Some(g) = map.get(name) {
        return Arc::clone(g);
    }
    let cell = Arc::new(AtomicU64::new(0.0_f64.to_bits()));
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

fn histogram_cell(name: &str) -> Arc<Mutex<LogHistogram>> {
    let mut map = lock(&registry().histograms);
    if let Some(h) = map.get(name) {
        return Arc::clone(h);
    }
    let cell = Arc::new(Mutex::new(LogHistogram::new()));
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// Adds `delta` to the named counter. No-op while telemetry is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    counter_cell(name).fetch_add(delta, Ordering::Relaxed);
}

/// Current value of a counter (0 when never written).
pub fn counter_value(name: &str) -> u64 {
    lock(&registry().counters)
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Sets the named gauge. No-op while telemetry is disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    gauge_cell(name).store(value.to_bits(), Ordering::Relaxed);
}

/// Current value of a gauge (`None` when never written).
pub fn gauge_value(name: &str) -> Option<f64> {
    lock(&registry().gauges)
        .get(name)
        .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
}

/// Records one observation into the named histogram. No-op while
/// telemetry is disabled.
#[inline]
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let cell = histogram_cell(name);
    lock(&cell).record(value);
}

/// Summary of a histogram (`None` when never written).
pub fn histogram_summary(name: &str) -> Option<HistogramSummary> {
    let cell = lock(&registry().histograms).get(name).map(Arc::clone)?;
    let summary = lock(&cell).summary();
    Some(summary)
}

/// Clears every registered metric (benchmarks and tests). The
/// enabled/format state is left untouched.
pub fn reset() {
    lock(&registry().counters).clear();
    lock(&registry().gauges).clear();
    lock(&registry().histograms).clear();
}

/// The three metric families of a [`dump`], in sorted name order.
pub(crate) type MetricsDump =
    (Vec<(String, u64)>, Vec<(String, f64)>, Vec<(String, HistogramSummary)>);

/// Sorted dump of all metrics, used by the exporters.
pub(crate) fn dump() -> MetricsDump {
    let counters: Vec<(String, u64)> = lock(&registry().counters)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges: Vec<(String, f64)> = lock(&registry().gauges)
        .iter()
        .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
        .collect();
    let hist_cells: Vec<(String, Arc<Mutex<LogHistogram>>)> = lock(&registry().histograms)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    let histograms = hist_cells
        .into_iter()
        .map(|(k, v)| {
            let s = lock(&v).summary();
            (k, s)
        })
        .collect();
    (counters, gauges, histograms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::enable_for_test;

    #[test]
    fn disabled_ops_record_nothing() {
        // Uses names no other test touches; telemetry may have been
        // enabled by a concurrently running test, so force-disable via a
        // scoped guard is not possible — instead verify the default-off
        // path through fresh names before any enabling guard is taken in
        // this test.
        let _guard = crate::test_support::TEST_MUTEX
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let was = enabled();
        init(&TelemetryConfig::off());
        counter_add("registry.test.disabled.counter", 5);
        gauge_set("registry.test.disabled.gauge", 1.0);
        observe("registry.test.disabled.hist", 1.0);
        assert_eq!(counter_value("registry.test.disabled.counter"), 0);
        assert_eq!(gauge_value("registry.test.disabled.gauge"), None);
        assert!(histogram_summary("registry.test.disabled.hist").is_none());
        ENABLED.store(was, Ordering::Relaxed);
    }

    #[test]
    fn enabled_ops_accumulate() {
        let _guard = enable_for_test();
        counter_add("registry.test.counter", 2);
        counter_add("registry.test.counter", 3);
        assert_eq!(counter_value("registry.test.counter"), 5);
        gauge_set("registry.test.gauge", 1.5);
        gauge_set("registry.test.gauge", -2.5);
        assert_eq!(gauge_value("registry.test.gauge"), Some(-2.5));
        observe("registry.test.hist", 10.0);
        observe("registry.test.hist", 20.0);
        let s = histogram_summary("registry.test.hist").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 20.0);
    }

    #[test]
    fn concurrent_counter_adds_are_lossless() {
        let _guard = enable_for_test();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        counter_add("registry.test.concurrent", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter_value("registry.test.concurrent"), 4000);
    }
}

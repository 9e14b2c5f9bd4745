//! [`WorkerTelemetry`]: busy time and utilization of a phase that fans
//! work items out over pool workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::registry;
use crate::span::Span;

/// The one recorder of worker telemetry, shared by every parallel phase
/// (forest fit, batch predict, stage D, grid search, training-data
/// generation): [`WorkerTelemetry::time`] observes each work item's
/// busy µs into the phase's histogram, and [`WorkerTelemetry::finish`]
/// sets its utilization gauge to the summed busy time over `workers ×`
/// the wall time of the phase's span.
///
/// It records only while telemetry is on and the phase runs on two or
/// more workers; otherwise each call is one branch, with no clock read
/// and no allocation.
#[derive(Debug)]
pub struct WorkerTelemetry {
    busy: &'static str,
    utilization: &'static str,
    workers: usize,
    active: bool,
    busy_us: AtomicU64,
}

impl WorkerTelemetry {
    /// Telemetry for a phase on `workers` workers, observing item busy
    /// µs into the histogram `busy` and utilization into the gauge
    /// `utilization`.
    pub fn new(workers: usize, busy: &'static str, utilization: &'static str) -> Self {
        WorkerTelemetry {
            busy,
            utilization,
            workers,
            active: workers >= 2 && registry::enabled(),
            busy_us: AtomicU64::new(0),
        }
    }

    /// Runs one work item and returns its result, timing it when active.
    pub fn time<T>(&self, work: impl FnOnce() -> T) -> T {
        if !self.active {
            return work();
        }
        let started = Instant::now();
        let out = work();
        let us = started.elapsed().as_micros() as u64;
        registry::observe(self.busy, us as f64);
        self.busy_us.fetch_add(us, Ordering::Relaxed);
        out
    }

    /// Sets the utilization gauge from `span`, the phase's still-open
    /// span.
    pub fn finish(self, span: &Span) {
        if !self.active {
            return;
        }
        if let Some(wall_us) = span.elapsed_us().filter(|&us| us > 0.0) {
            let busy_us = self.busy_us.into_inner() as f64;
            registry::gauge_set(self.utilization, busy_us / (self.workers as f64 * wall_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::enable_for_test;
    use crate::{ExportFormat, TelemetryConfig};

    #[test]
    fn records_only_when_on_and_fanned_out() {
        let _guard = enable_for_test();
        // `items` one-millisecond items split over two threads under one
        // span; returns the µs the helper timed, the busy sample count
        // and the gauge.
        let phase = |workers: usize, items: usize, busy: &'static str, gauge: &'static str| {
            let span = Span::enter("workers.test.phase");
            let telemetry = WorkerTelemetry::new(workers, busy, gauge);
            std::thread::scope(|scope| {
                for share in [items / 2, items - items / 2] {
                    let telemetry = &telemetry;
                    let item = || std::thread::sleep(std::time::Duration::from_millis(1));
                    scope.spawn(move || (0..share).for_each(|_| telemetry.time(item)));
                }
            });
            let timed_us = telemetry.busy_us.load(Ordering::Relaxed);
            telemetry.finish(&span);
            let count = registry::histogram_summary(busy).map(|h| h.count);
            (timed_us, count, registry::gauge_value(gauge))
        };
        crate::init(&TelemetryConfig::off());
        let off = phase(2, 4, "workers.test.off_busy_us", "workers.test.off_util");
        assert_eq!(off, (0, None, None));
        crate::init(&TelemetryConfig::with_format(ExportFormat::Prom));
        let one = phase(1, 4, "workers.test.one_busy_us", "workers.test.one_util");
        assert_eq!(one, (0, None, None));
        let (timed_us, count, utilization) =
            phase(2, 5, "workers.test.two_busy_us", "workers.test.two_util");
        assert!(timed_us >= 5_000, "{timed_us}");
        assert_eq!(count, Some(5));
        let utilization = utilization.expect("gauge set at two workers");
        assert!(utilization > 0.0 && utilization <= 1.0, "{utilization}");
    }
}

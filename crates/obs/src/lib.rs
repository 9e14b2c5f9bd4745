//! # monitorless-obs — self-telemetry for the monitorless reproduction
//!
//! A from-scratch, zero-dependency observability layer: the pre-approved
//! dependency set has no `tracing`, so — matching the repo's from-scratch
//! ethos — counters, gauges, log-bucketed histograms, RAII span timers
//! and two exporters (JSONL event stream, Prometheus-style text
//! snapshot) are implemented natively on `std` only. The crate sits
//! below every other workspace crate; anything may depend on it.
//!
//! ## Design
//!
//! * **Cheap when disabled.** Telemetry defaults to off; every
//!   instrumentation call ([`counter_add`], [`gauge_set`], [`observe`],
//!   [`Span::enter`]) starts with one `Relaxed` atomic load and returns
//!   immediately when off — no locks, no clock reads, no allocation.
//!   The `table_obs` binary in `monitorless-bench` times each of these
//!   calls with telemetry off and prints the per-call cost.
//! * **Global registry.** Metrics live in one process-wide registry
//!   keyed by dotted name; hot-path cells are atomics (see
//!   [`registry`]).
//! * **Quantiles.** Histograms use 256 geometric buckets (ratio 1.15,
//!   ≤ 15 % relative error) and report p50/p90/p99 clamped into the
//!   exact observed `[min, max]` (see [`histogram`]).
//! * **Spans.** [`Span::enter`] returns an RAII guard; dropping it
//!   records elapsed µs into the histogram of the same name. Spans nest
//!   per thread, so a child's time is always ≤ its parent's.
//! * **Configuration.** [`TelemetryConfig`] is built from the
//!   `MONITORLESS_OBS` env var and/or a `--telemetry <off|jsonl|prom>`
//!   CLI flag and installed once via [`init`].
//!
//! ## Example
//!
//! ```
//! use monitorless_obs as obs;
//!
//! obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
//! {
//!     let _span = obs::Span::enter("pipeline.fit");
//!     obs::counter_add("pipeline.fits", 1);
//!     obs::observe("pipeline.rows", 120.0);
//! }
//! let text = obs::Snapshot::take().to_prometheus();
//! assert!(text.contains("monitorless_pipeline_fits 1"));
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod export;
pub mod histogram;
pub mod journal;
pub mod registry;
pub mod span;
pub mod workers;

pub use config::{ExportFormat, TelemetryConfig, TraceMode, ENV_VAR, TRACE_ENV_VAR};
pub use export::{event, progress, report_to_stderr, write_audit, write_report, Snapshot};
pub use histogram::{HistogramSummary, LogHistogram};
pub use journal::{
    audit_jsonl, current_trace, drain, enter_trace, journal_stats, next_trace, record,
    trace_enabled, trace_mode, JournalRecord, JournalStats, TraceScope,
};
pub use registry::{
    counter_add, counter_value, enabled, format, gauge_set, gauge_value, histogram_summary, init,
    observe, reset,
};
pub use span::{timed, Span};
pub use workers::WorkerTelemetry;

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that flip the global enabled flag. Rust runs
    /// tests multi-threaded; without this, a test asserting the
    /// disabled path could race a test that enables telemetry.
    pub(crate) static TEST_MUTEX: Mutex<()> = Mutex::new(());

    /// Locks the test mutex and enables telemetry in Prometheus mode
    /// (enabled recording, but no per-event stderr stream to pollute
    /// test output).
    pub(crate) fn enable_for_test() -> MutexGuard<'static, ()> {
        let guard = TEST_MUTEX.lock().unwrap_or_else(PoisonError::into_inner);
        crate::init(&crate::TelemetryConfig::with_format(crate::ExportFormat::Prom));
        guard
    }
}

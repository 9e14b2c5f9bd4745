//! The perf-gate harness: everything the eight binaries that pin a
//! committed `results/BENCH_*.json` snapshot share, so each keeps only
//! its workload, its gate predicate and a [`Snapshot`] report type.
//!
//! ```text
//! // Only in binaries that assert zero allocations:
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let harness = Harness::start("table_x");
//!     let report = measure(harness.scale);
//!     harness.finish(&report, check);
//! }
//! ```
//!
//! Without `--check`, [`Harness::finish`] writes the report to `--out`
//! (default `results/<file>`), prints it, and exits 0. With
//! `--check <path>`, [`Harness::start`] reads and parses the committed
//! snapshot before anything is measured (exit 1 if it cannot), and
//! `finish` passes the fresh and the committed report to the gate
//! predicate, exiting 1 when it fails. A check run writes the fresh
//! report only to an explicit `--out`, so it never overwrites the
//! committed baseline. Pass or fail, the telemetry summary is written
//! before the binary exits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use monitorless_std::json::{self, FromJson};

use crate::snapshot::Snapshot;
use crate::{telemetry_report, Args, Scale};

/// System allocator wrapper counting allocation events, so a bench can
/// prove a hot loop never touches the heap. `alloc`, `alloc_zeroed`
/// and `realloc` each count one event; `dealloc` counts none.
///
/// A binary opts in with `#[global_allocator] static GLOBAL:
/// CountingAlloc = CountingAlloc;`. Every other binary keeps the
/// system allocator, and [`alloc_events`] then stays at 0.
pub struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is
// a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation events [`CountingAlloc`] has counted since the process
/// started, across all threads.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Milliseconds of the fastest of `reps` runs of `f` (at least one),
/// with the last run's output. Each earlier output is dropped outside
/// the timed section.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
        out = Some(v);
    }
    (best, out.expect("at least one rep"))
}

/// Reads and parses a snapshot file into its report type.
///
/// # Errors
///
/// Names the path when the file cannot be read or does not parse into
/// `R` (a missing field, a type mismatch, malformed JSON).
pub fn read_snapshot<R: FromJson>(path: &Path) -> Result<R, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// One perf-gate run: the parsed command line and, under `--check`,
/// the committed report the fresh one is gated against.
pub struct Harness<R> {
    /// Scale and seed to measure at.
    pub scale: Scale,
    name: &'static str,
    report_path: Option<String>,
    committed: Option<(String, R)>,
}

impl<R: Snapshot> Harness<R> {
    /// Parses the command line and installs telemetry (exit 2 on a
    /// malformed flag, see the crate docs), then reads the `--check` snapshot
    /// (exit 1 when it cannot be read or parsed). `name` is the binary's
    /// name, used for its telemetry file.
    pub fn start(name: &'static str) -> Self {
        let args = Args::from_env();
        let committed = args.check.as_ref().map(|path| {
            let committed = read_snapshot(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("perf check FAILED: {e}");
                std::process::exit(1)
            });
            (path.clone(), committed)
        });
        Harness {
            scale: args.scale,
            name,
            report_path: args.report_path(R::FILE),
            committed,
        }
    }

    /// Writes the report, runs `gate(fresh, committed)` under `--check`,
    /// writes the telemetry summary, and exits 1 if the gate failed.
    pub fn finish(self, report: &R, gate: impl FnOnce(&R, &R) -> Result<(), String>) {
        let json = json::to_string(report);
        if let Some(path) = &self.report_path {
            std::fs::write(path, json.clone() + "\n").expect("write report");
        }
        let Some((path, committed)) = &self.committed else {
            println!("{json}");
            if let Some(path) = &self.report_path {
                println!("report written to {path}");
            }
            telemetry_report(self.name);
            return;
        };
        let verdict = gate(report, committed);
        telemetry_report(self.name);
        match verdict {
            Ok(()) => println!("perf check passed against {path}"),
            Err(msg) => {
                eprintln!("perf check FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
}

//! Observability-overhead snapshot: what drift tracing, prediction
//! attribution and the causal journal cost on the serving path.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_obs --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_obs.json`
//! (override with `--out <path>`). The forest under test is the same
//! paper-shaped ensemble as `table7_predict` (250 trees, entropy,
//! `min_samples_leaf 20`) trained on a 20k-row metric-shaped dataset,
//! and each size (1k and 100k rows; `--full` adds 1M) scores the same
//! matrix through three serving configurations:
//!
//! * **plain** — `predict_row` with tracing off. A counting global
//!   allocator asserts this loop performs **zero** heap allocations:
//!   carrying the attribution table (`node_value`) must not reintroduce
//!   allocation into the autoscaler hot path.
//! * **traced** — the same walk plus one ring-journal record per row
//!   (trace mint + `obs::record`), the way the orchestrator journals a
//!   tick under `--trace ring`.
//! * **attributed** — `predict_row_attributed` filling a reused
//!   per-feature contribution buffer. Its probability is asserted
//!   bit-identical to the plain walk on every row, so the overhead
//!   number always describes the same predictions.
//!
//! A separate micro-section times raw `obs::record` appends to size the
//! journal itself, and reports how many records survived in the ring
//! versus were overwritten (the ring keeps the newest
//! `JOURNAL_CAPACITY`). It also times each instrumentation call
//! (`counter_add`, `gauge_set`, `observe`, `Span::enter`) with
//! telemetry off — the price every instrumented site pays in an
//! untraced run — and prints those costs beside the journal's; they
//! stay out of the report.
//!
//! `--check <path>` re-measures at the current scale and exits non-zero
//! if observability got expensive: plain or attributed wall time more
//! than 2x the committed snapshot for the same matrix size (coarse — it
//! must survive CI machine variance), or a same-run attribution-off
//! journal overhead above 10% of the bare predict walk at every
//! measured size (a real record-path regression is size-independent;
//! single-size excursions are CI noise).

use std::hint::black_box;
use std::time::Instant;

use monitorless_bench::harness::{alloc_events, time_ms, CountingAlloc, Harness};
use monitorless_bench::snapshot::obs::{BenchReport, JournalResult, SizeResult};
use monitorless_bench::synth::{dataset, paper_forest};
use monitorless_learn::FlatEnsemble;
use monitorless_obs as obs;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Switches the journal trace mode while keeping the export format.
fn set_trace(mode: obs::TraceMode) {
    obs::init(&obs::TelemetryConfig::with_format(obs::format()).with_trace(mode));
}

fn measure_size(flat: &FlatEnsemble, n_trees: usize, rows: usize, seed: u64) -> SizeResult {
    let cols = 30;
    let (x, _) = dataset(rows, cols, seed.wrapping_add(rows as u64));
    // Best-of-N everywhere the wall time allows; the 1M-row size (tens
    // of seconds per walk) runs once.
    let reps = match rows {
        r if r >= 1_000_000 => 1,
        r if r >= 100_000 => 3,
        _ => 5,
    };

    obs::progress(&format!("serving path, {rows} x {cols}, {n_trees} trees..."));

    set_trace(obs::TraceMode::Off);
    let mut plain = vec![0.0; rows];
    let mut attributed = vec![0.0; rows];
    let mut contrib = vec![0.0; flat.n_features()];
    // Warm up once so the timed loops start from steady state.
    for (r, p) in plain.iter_mut().enumerate() {
        *p = flat.predict_row(x.row(r));
    }

    // Interleave the three serving configurations rep by rep: on a
    // shared core a noise burst then hits all three samples alike and
    // mostly cancels out of the overhead ratios, where back-to-back rep
    // groups would let one configuration absorb the whole burst.
    let mut plain_ms = f64::INFINITY;
    let mut traced_ms = f64::INFINITY;
    let mut attributed_ms = f64::INFINITY;
    let mut plain_allocs = 0u64;
    for _ in 0..reps {
        // --- plain: tracing off, must be allocation-free ---
        let alloc0 = alloc_events();
        let (ms, ()) = time_ms(1, || {
            for (r, p) in plain.iter_mut().enumerate() {
                *p = flat.predict_row(x.row(r));
            }
        });
        plain_ms = plain_ms.min(ms);
        plain_allocs += alloc_events() - alloc0;

        // --- traced: one ring-journal record per row ---
        set_trace(obs::TraceMode::Ring);
        let (ms, ()) = time_ms(1, || {
            let mut sink = 0.0;
            for r in 0..rows {
                let p = flat.predict_row(x.row(r));
                obs::record("bench.predict", obs::next_trace(), &[("proba", p)], &[]);
                sink += p;
            }
            assert!(sink.is_finite());
        });
        traced_ms = traced_ms.min(ms);
        set_trace(obs::TraceMode::Off);
        let _ = obs::drain();

        // --- attributed: per-feature contributions, reused buffer ---
        let (ms, ()) = time_ms(1, || {
            for (r, p) in attributed.iter_mut().enumerate() {
                *p = flat.predict_row_attributed(x.row(r), &mut contrib);
            }
        });
        attributed_ms = attributed_ms.min(ms);
    }
    assert!(
        plain_allocs == 0,
        "attribution-off predict loop allocated ({plain_allocs} events over {reps} reps); the \
         serving hot path must stay allocation-free"
    );

    // The overhead claim only holds if both walks scored identically.
    for (r, (p, a)) in plain.iter().zip(&attributed).enumerate() {
        assert_eq!(
            p.to_bits(),
            a.to_bits(),
            "attributed and plain predictions diverged on row {r} at {rows} rows ({a} vs {p})",
        );
    }

    let r = SizeResult {
        rows,
        cols,
        n_trees,
        n_nodes: flat.n_nodes(),
        plain_ms,
        traced_ms,
        attributed_ms,
        journal_overhead_pct: 100.0 * (traced_ms - plain_ms) / plain_ms,
        attribution_ratio: attributed_ms / plain_ms,
        plain_allocs_per_row: plain_allocs as f64 / rows as f64,
    };
    obs::progress(&format!(
        "  plain {:.1} ms, traced {:.1} ms ({:+.1}%), attributed {:.1} ms ({:.2}x)",
        r.plain_ms, r.traced_ms, r.journal_overhead_pct, r.attributed_ms, r.attribution_ratio
    ));
    r
}

/// Nanoseconds per `call`: the best of three runs of a million calls.
fn ns_per_call(call: impl Fn()) -> f64 {
    const CALLS: usize = 1_000_000;
    let (ms, ()) = time_ms(3, || (0..CALLS).for_each(|_| call()));
    ms * 1e6 / CALLS as f64
}

fn measure_journal() -> JournalResult {
    const APPENDS: usize = 100_000;
    obs::progress("journal append micro-section...");

    set_trace(obs::TraceMode::Off);
    let t0 = Instant::now();
    for i in 0..APPENDS {
        obs::record("bench.journal", i as u64 + 1, &[("i", i as f64)], &[]);
    }
    let record_off_us = t0.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;

    // Each call starts with one relaxed atomic load and returns when
    // telemetry is off: no lock, clock read or allocation.
    let format = obs::format();
    obs::init(&obs::TelemetryConfig::off());
    let [counter_ns, gauge_ns, observe_ns, span_ns] = [
        ns_per_call(|| obs::counter_add(black_box("bench.counter"), 1)),
        ns_per_call(|| obs::gauge_set(black_box("bench.gauge"), 1.5)),
        ns_per_call(|| obs::observe(black_box("bench.hist"), 123.0)),
        ns_per_call(|| drop(obs::Span::enter(black_box("bench.span")))),
    ];
    obs::init(&obs::TelemetryConfig::with_format(format));

    set_trace(obs::TraceMode::Ring);
    let _ = obs::drain();
    let before = obs::journal_stats();
    let t0 = Instant::now();
    for i in 0..APPENDS {
        obs::record("bench.journal", i as u64 + 1, &[("i", i as f64)], &[("path", "bench")]);
    }
    let record_us = t0.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;
    let after = obs::journal_stats();
    set_trace(obs::TraceMode::Off);
    let _ = obs::drain();

    let r = JournalResult {
        record_us,
        record_off_us,
        appended: (after.records - before.records) as f64,
        queued: after.queued as f64,
        overwritten: (after.overwritten - before.overwritten) as f64,
    };
    obs::progress(&format!(
        "  append {:.3} us (off {:.4} us); {} appended, {} queued, {} overwritten",
        r.record_us, r.record_off_us, r.appended, r.queued, r.overwritten
    ));
    obs::progress(&format!(
        "  telemetry off, per call: counter_add {counter_ns:.2} ns, gauge_set {gauge_ns:.2} ns, \
         observe {observe_ns:.2} ns, Span::enter {span_ns:.2} ns"
    ));
    // The ring keeps the newest records and evicts the rest.
    assert_eq!(r.appended as usize, APPENDS);
    assert_eq!(r.queued + r.overwritten, r.appended);
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    // The journal gate fires only when every size exceeds the limit: a
    // real regression in the record path is size-independent, while a
    // noise burst on a shared CI core hits one measurement at a time.
    let min_overhead = report
        .sizes
        .iter()
        .map(|s| s.journal_overhead_pct)
        .fold(f64::INFINITY, f64::min);
    if min_overhead > 10.0 {
        return Err(format!(
            "ring-journal overhead on the attribution-off path is above 10% at every size \
             (best {min_overhead:.1}%)"
        ));
    }
    for current in &report.sizes {
        let Some(baseline) = committed.sizes.iter().find(|s| s.rows == current.rows) else {
            continue;
        };
        if current.plain_ms > 2.0 * baseline.plain_ms {
            return Err(format!(
                "plain predict at {} rows took {:.1} ms, more than 2x the committed {:.1} ms",
                current.rows, current.plain_ms, baseline.plain_ms
            ));
        }
        if current.attributed_ms > 2.0 * baseline.attributed_ms {
            return Err(format!(
                "attributed predict at {} rows took {:.1} ms, more than 2x the committed \
                 {:.1} ms",
                current.rows, current.attributed_ms, baseline.attributed_ms
            ));
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table_obs");
    let scale = harness.scale;
    // The attribution counters only record with telemetry on; default to
    // a quiet snapshot-only format so the report always carries them.
    if !obs::enabled() {
        obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
    }

    let forest = paper_forest(scale.seed);
    let flat = forest.to_flat();
    let n_trees = forest.trees().len();

    let sizes: &[usize] = if scale.full {
        &[1_000, 100_000, 1_000_000]
    } else {
        &[1_000, 100_000]
    };
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        sizes: sizes
            .iter()
            .map(|&n| measure_size(&flat, n_trees, n, scale.seed))
            .collect(),
        journal: measure_journal(),
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_obs.json"))
            .expect("committed snapshot parses")
    }

    #[test]
    fn journal_overhead_fails_only_above_ten_percent_at_every_size() {
        let base = committed();
        let mut fresh = base.clone();
        for s in &mut fresh.sizes {
            s.journal_overhead_pct = 10.0;
        }
        assert_eq!(check(&fresh, &base), Ok(()));
        for s in &mut fresh.sizes {
            s.journal_overhead_pct = 10f64.next_up();
        }
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("above 10% at every size"));
        // One size back under the limit clears the gate.
        fresh.sizes[0].journal_overhead_pct = 10.0;
        fresh.sizes[1].journal_overhead_pct = 50.0;
        assert_eq!(check(&fresh, &base), Ok(()));
    }

    #[test]
    fn plain_wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[1].plain_ms = 2.0 * base.sizes[1].plain_ms;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[1].plain_ms = fresh.sizes[1].plain_ms.next_up();
        assert!(check(&fresh, &base).unwrap_err().contains("plain predict"));
    }

    #[test]
    fn attributed_wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[0].attributed_ms = 2.0 * base.sizes[0].attributed_ms;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[0].attributed_ms = fresh.sizes[0].attributed_ms.next_up();
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("attributed predict"));
    }

    #[test]
    fn rows_without_a_committed_size_are_not_gated() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[0].rows = 123;
        fresh.sizes[0].plain_ms = 1e9;
        fresh.sizes[0].attributed_ms = 1e9;
        assert_eq!(check(&fresh, &base), Ok(()));
    }
}

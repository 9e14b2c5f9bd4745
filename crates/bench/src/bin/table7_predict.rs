//! Predict-path perf snapshot: flat blocked batched inference vs the
//! legacy recursive per-row walk, plus single-row autoscaler-tick
//! latency.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table7_predict --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_predict.json`
//! (override with `--out <path>`). `--full` sweeps 1k/20k/100k/1M-row
//! matrices; the default quick scale measures 1k/20k.
//!
//! The forest under test is paper-shaped (`RandomForestParams::
//! paper_selected()`: 250 trees, entropy, `min_samples_leaf 20`),
//! trained once on a 20k-row metric-shaped dataset — the same column
//! mix as `table3_treefit` (quantized percent gauges, counter deltas,
//! coarse levels, continuous latency-like values). Each sweep size then
//! scores a fresh matrix of that shape through three paths: the legacy
//! recursive walk (`RandomForest::predict_proba_legacy`), the flat
//! evaluator single-threaded, and the flat evaluator sharded over 4
//! pool workers. Flat and legacy outputs are cross-checked bit-for-bit
//! on every run, so the speedup numbers always describe identical
//! predictions.
//!
//! The tick section times one autoscaler tick — scoring a single
//! already-transformed row — the way the orchestrator does it: the old
//! path built a 1-row `Matrix` per call, the flat path walks the table
//! in place. A counting global allocator asserts the flat tick loop
//! performs **zero** heap allocations.
//!
//! `--check <path>` re-measures at the current scale and exits non-zero
//! if the flat evaluator lost its edge: wall time more than 2x the
//! committed snapshot's measurement for the same matrix size (coarse —
//! it must survive CI machine variance) or a same-run speedup over the
//! legacy walk below 1.5x.

use std::time::Instant;

use monitorless_bench::harness::{alloc_events, time_ms, CountingAlloc, Harness};
use monitorless_bench::snapshot::predict::{BenchReport, SizeResult, TickResult};
use monitorless_bench::synth::{dataset, paper_forest};
use monitorless_learn::{Matrix, RandomForest};
use monitorless_obs as obs;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn measure_size(forest: &RandomForest, rows: usize, seed: u64) -> SizeResult {
    let cols = 30;
    let (x, _) = dataset(rows, cols, seed.wrapping_add(rows as u64));
    // Best-of-N everywhere the wall time allows: single-shot numbers on
    // a shared core are too noisy for a perf gate. Only the 1M-row
    // size (tens of seconds per walk) runs once.
    let reps = if rows >= 1_000_000 { 1 } else { 3 };

    obs::progress(&format!("batch predict, {rows} x {cols}, {} trees...", forest.trees().len()));
    let (compile_ms, flat) = time_ms(reps, || forest.to_flat());

    // Interleave the timed walks rep by rep: on a shared core a noise
    // burst then hits the flat and legacy samples alike and mostly
    // cancels out of the ratio, where back-to-back rep groups would
    // let one side absorb the whole burst.
    let mut flat_out = Vec::new();
    let mut legacy_out = Vec::new();
    let mut flat_ms = f64::INFINITY;
    let mut flat_par_ms = f64::INFINITY;
    let mut legacy_ms = f64::INFINITY;
    for _ in 0..reps {
        let (ms, out) = time_ms(1, || flat.predict_proba(&x, 1));
        flat_ms = flat_ms.min(ms);
        flat_out = out;
        let (ms, out) = time_ms(1, || forest.predict_proba_legacy(&x));
        legacy_ms = legacy_ms.min(ms);
        legacy_out = out;
        flat_par_ms = flat_par_ms.min(time_ms(1, || flat.predict_proba(&x, 4)).0);
    }

    // The speedup claim only holds if both walks scored identically.
    assert_eq!(flat_out.len(), legacy_out.len());
    for (i, (f, l)) in flat_out.iter().zip(&legacy_out).enumerate() {
        assert_eq!(
            f.to_bits(),
            l.to_bits(),
            "flat and legacy predictions diverged on row {i} at {rows} rows ({f} vs {l})",
        );
    }

    let r = SizeResult {
        rows,
        cols,
        n_trees: forest.trees().len(),
        n_nodes: flat.n_nodes(),
        legacy_ms,
        flat_ms,
        flat_par_ms,
        compile_ms,
        speedup: legacy_ms / flat_ms,
    };
    obs::progress(&format!(
        "  legacy {:.1} ms, flat {:.1} ms ({:.2}x; 4 workers {:.1} ms, compile {:.2} ms)",
        r.legacy_ms, r.flat_ms, r.speedup, r.flat_par_ms, r.compile_ms
    ));
    r
}

/// Times `ticks` single-row predictions and returns
/// `(microseconds per tick, allocation events per tick)`.
fn measure_ticks(x: &Matrix, ticks: usize, mut f: impl FnMut(&[f64]) -> f64) -> (f64, f64) {
    let mut sink = 0.0;
    // Warm up so lazily grown state (none expected on the flat path)
    // does not count against the steady-state loop.
    for r in 0..64.min(x.rows()) {
        sink += f(x.row(r));
    }
    let alloc0 = alloc_events();
    let t0 = Instant::now();
    for t in 0..ticks {
        sink += f(x.row(t % x.rows()));
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / ticks as f64;
    let allocs = alloc_events() - alloc0;
    assert!(sink.is_finite());
    (us, allocs as f64 / ticks as f64)
}

fn measure_tick(forest: &RandomForest, seed: u64) -> TickResult {
    let (x, _) = dataset(512, 30, seed.wrapping_add(99));
    let flat = forest.to_flat();
    let ticks = 2_000;

    obs::progress("single-row autoscaler tick...");
    // The pre-flat `predict_features` path: a 1-row Matrix per call.
    let (legacy_us, legacy_allocs) = measure_ticks(&x, ticks, |row| {
        let m = Matrix::from_rows(&[row]);
        forest.predict_proba_legacy(&m)[0]
    });
    let (flat_us, flat_allocs) = measure_ticks(&x, ticks, |row| flat.predict_row(row));
    assert!(
        flat_allocs == 0.0,
        "flat tick path allocated ({flat_allocs} events/tick); the autoscaler hot loop must be \
         allocation-free"
    );

    let r = TickResult {
        legacy_us,
        flat_us,
        legacy_allocs_per_tick: legacy_allocs,
        flat_allocs_per_tick: flat_allocs,
    };
    obs::progress(&format!(
        "  legacy {:.1} us/tick ({:.0} allocs), flat {:.1} us/tick ({:.0} allocs)",
        r.legacy_us, r.legacy_allocs_per_tick, r.flat_us, r.flat_allocs_per_tick
    ));
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    for current in &report.sizes {
        let Some(baseline) = committed.sizes.iter().find(|s| s.rows == current.rows) else {
            continue;
        };
        if current.flat_ms > 2.0 * baseline.flat_ms {
            return Err(format!(
                "flat predict at {} rows took {:.1} ms, more than 2x the committed {:.1} ms",
                current.rows, current.flat_ms, baseline.flat_ms
            ));
        }
        if current.speedup < 1.5 {
            return Err(format!(
                "flat evaluator is only {:.2}x faster than legacy at {} rows (need >= 1.5x)",
                current.speedup, current.rows
            ));
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table7_predict");
    let scale = harness.scale;
    // The predict counters and utilization gauge only record with
    // telemetry on; default to a quiet snapshot-only format so the
    // report always carries them.
    if !obs::enabled() {
        obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
    }

    // One paper-shaped forest serves every sweep size.
    let forest = paper_forest(scale.seed);

    let sizes: &[usize] = if scale.full {
        &[1_000, 20_000, 100_000, 1_000_000]
    } else {
        &[1_000, 20_000]
    };
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        sizes: sizes
            .iter()
            .map(|&n| measure_size(&forest, n, scale.seed))
            .collect(),
        tick: measure_tick(&forest, scale.seed),
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_predict.json"))
            .expect("committed snapshot parses")
    }

    #[test]
    fn wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[1].flat_ms = 2.0 * base.sizes[1].flat_ms;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[1].flat_ms = fresh.sizes[1].flat_ms.next_up();
        assert!(check(&fresh, &base).unwrap_err().contains("more than 2x"));
    }

    #[test]
    fn speedup_floor_is_one_and_a_half() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[0].speedup = 1.5;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[0].speedup = 1.5f64.next_down();
        assert!(check(&fresh, &base).unwrap_err().contains("need >= 1.5x"));
    }

    #[test]
    fn rows_without_a_committed_size_are_not_gated() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[0].rows = 123;
        fresh.sizes[0].flat_ms = 1e9;
        fresh.sizes[0].speedup = 0.1;
        assert_eq!(check(&fresh, &base), Ok(()));
    }
}

//! Featurize-path perf snapshot: the streaming column-major feature
//! pipeline vs the legacy row-cloning stage chain, plus per-instance
//! online-push latency.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table1_featurize --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_featurize.json`
//! (override with `--out <path>`). `--full` sweeps 1k/20k/100k-row
//! matrices; the default quick scale measures 1k/20k.
//!
//! The pipeline under test is fitted once on a catalog-width raw
//! series (the full host+container metric catalog — the same raw shape
//! the orchestrator feeds at runtime) with the quick grid point
//! (normalize, forest-filter, time features, products, forest-filter).
//! Each sweep size then transforms a fresh raw series of that shape
//! through both batch paths: the legacy chain
//! (`FittedPipeline::transform_batch_legacy`, which materialises the
//! full stage-D matrix row by row) and the streaming chain
//! (`transform_batch`, which fuses stages into preallocated buffers
//! and only evaluates the selected stage-D cells). The two outputs are
//! cross-checked bit-for-bit on every run, so the speedup numbers
//! always describe identical features.
//!
//! The tick section simulates a 200-instance autoscaler fleet: every
//! instance owns an `InstanceTransformer` fed one raw sample per tick.
//! Streaming `push` and the retained `push_legacy` run on twin
//! instances and are compared bit-for-bit at every tick, including
//! during warmup. A counting global allocator then asserts the
//! steady-state streaming push loop performs **zero** heap
//! allocations.
//!
//! `--check <path>` re-measures at the current scale and exits
//! non-zero if the streaming path lost its edge: wall time more than
//! 2x the committed snapshot's measurement for the same matrix size
//! (coarse — it must survive CI machine variance) or a same-run
//! speedup over the legacy chain below 1.5x.

use std::sync::Arc;
use std::time::Instant;

use monitorless::features::{
    FeaturePipeline, FittedPipeline, InstanceTransformer, PipelineConfig, RawLayout,
};
use monitorless_bench::harness::{alloc_events, time_ms, CountingAlloc, Harness};
use monitorless_bench::snapshot::featurize::{BenchReport, SizeResult, TickResult};
use monitorless_learn::Matrix;
use monitorless_metrics::catalog::Catalog;
use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Rows per simulated instance: each group is one instance's
/// chronological series, so the 100k sweep is a 200-instance fleet.
const GROUP_LEN: usize = 500;

/// Synthetic catalog-width raw series: `rows` samples split into
/// `GROUP_LEN`-row instance groups, each column drawn from a
/// metric-shaped family (utilization gauges, quantized percentages,
/// integer counter deltas, coarse levels, continuous latencies) with a
/// slow per-group ramp so the filtering forests have signal to keep.
fn raw_series(rows: usize, raw_width: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows * raw_width);
    let mut y = Vec::with_capacity(rows);
    let mut groups = Vec::with_capacity(rows);
    let mut row = vec![0.0; raw_width];
    for i in 0..rows {
        let g = (i / GROUP_LEN) as u32;
        let t = i % GROUP_LEN;
        // Per-group utilization ramp in [0, 1] plus noise, so labels
        // correlate with a band of columns the way saturation does.
        let util = (t as f64 / GROUP_LEN as f64 + rng.gen::<f64>() * 0.2).min(1.0);
        for (c, v) in row.iter_mut().enumerate() {
            *v = match c % 5 {
                0 => util * (0.5 + 0.5 * rng.gen::<f64>()),
                1 => (util * 1000.0 * rng.gen::<f64>()).floor() / 10.0,
                2 => (rng.gen::<f64>() * 256.0).floor() * (1.0 + util),
                3 => (rng.gen::<f64>() * 8.0).floor(),
                _ => rng.gen::<f64>() * (1.0 + 3.0 * util),
            };
        }
        y.push(u8::from(util > 0.8));
        groups.push(g);
        data.extend_from_slice(&row);
    }
    (Matrix::from_vec(rows, raw_width, data), y, groups)
}

fn assert_bit_identical(streaming: &Matrix, legacy: &Matrix, rows: usize) {
    assert_eq!(streaming.rows(), legacy.rows());
    assert_eq!(streaming.cols(), legacy.cols());
    for (i, (s, l)) in streaming
        .as_slice()
        .iter()
        .zip(legacy.as_slice())
        .enumerate()
    {
        assert_eq!(
            s.to_bits(),
            l.to_bits(),
            "streaming and legacy features diverged at cell {i} of the {rows}-row sweep \
             ({s} vs {l})",
        );
    }
}

fn measure_size(fitted: &FittedPipeline, raw_width: usize, rows: usize, seed: u64) -> SizeResult {
    let (x, _, groups) = raw_series(rows, raw_width, seed.wrapping_add(rows as u64));
    let n_groups = groups.last().map_or(0, |g| *g as usize + 1);
    obs::progress(&format!("batch transform, {rows} x {raw_width} raw ({n_groups} groups)..."));

    // Interleave the timed runs rep by rep: on a shared core a noise
    // burst then hits the streaming and legacy samples alike and mostly
    // cancels out of the ratio, where back-to-back rep groups would let
    // one side absorb the whole burst.
    let reps = 3;
    let mut streaming_ms = f64::INFINITY;
    let mut legacy_ms = f64::INFINITY;
    let mut streaming_out = None;
    let mut legacy_out = None;
    for _ in 0..reps {
        let (ms, out) = time_ms(1, || fitted.transform_batch(&x, &groups).expect("transform"));
        streaming_ms = streaming_ms.min(ms);
        streaming_out = Some(out);
        let (ms, out) = time_ms(1, || {
            fitted
                .transform_batch_legacy(&x, &groups)
                .expect("transform")
        });
        legacy_ms = legacy_ms.min(ms);
        legacy_out = Some(out);
    }

    // The speedup claim only holds if both chains produced identical
    // features.
    let streaming_out = streaming_out.expect("at least one rep");
    let legacy_out = legacy_out.expect("at least one rep");
    assert_bit_identical(&streaming_out, &legacy_out, rows);

    let r = SizeResult {
        rows,
        raw_width,
        out_width: streaming_out.cols(),
        groups: n_groups,
        legacy_ms,
        streaming_ms,
        speedup: legacy_ms / streaming_ms,
    };
    obs::progress(&format!(
        "  legacy {:.1} ms, streaming {:.1} ms ({:.2}x; {} output features)",
        r.legacy_ms, r.streaming_ms, r.speedup, r.out_width
    ));
    r
}

fn measure_tick(fitted: &Arc<FittedPipeline>, raw_width: usize, seed: u64) -> TickResult {
    let instances = 200;
    let warm_ticks = fitted.config().time_features as usize * 24 + 8;
    let timed_ticks = 64;
    let (x, _, _) = raw_series(warm_ticks + timed_ticks + 64, raw_width, seed.wrapping_add(99));

    obs::progress(&format!("online tick loop, {instances} instances x {timed_ticks} ticks..."));
    let mut streaming: Vec<InstanceTransformer> = (0..instances)
        .map(|_| InstanceTransformer::new(Arc::clone(fitted)))
        .collect();
    let mut legacy: Vec<InstanceTransformer> = (0..instances)
        .map(|_| InstanceTransformer::new(Arc::clone(fitted)))
        .collect();

    // Correctness pass, covering warmup: every instance's streaming
    // push must match its legacy twin bit-for-bit at every tick. Each
    // instance reads the shared series at its own offset so the fleet
    // is not in lockstep.
    for t in 0..warm_ticks {
        for (i, (s, l)) in streaming.iter_mut().zip(&mut legacy).enumerate() {
            let raw = x.row((t + i) % x.rows());
            let sv = s.push(raw).expect("streaming push");
            let lv = l.push_legacy(raw).expect("legacy push");
            assert_eq!(sv.len(), lv.len());
            for (k, (a, b)) in sv.iter().zip(&lv).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "online streaming and legacy features diverged at tick {t}, instance {i}, \
                     feature {k} ({a} vs {b})",
                );
            }
        }
    }

    // Timed streaming pass. The windows are full, every scratch buffer
    // is at capacity: the loop must not allocate at all.
    let mut sink = 0.0;
    let alloc0 = alloc_events();
    let t0 = Instant::now();
    for t in 0..timed_ticks {
        for (i, s) in streaming.iter_mut().enumerate() {
            let out = s
                .push(x.row((warm_ticks + t + i) % x.rows()))
                .expect("streaming push");
            sink += out.last().copied().unwrap_or(0.0);
        }
    }
    let pushes = (timed_ticks * instances) as f64;
    let streaming_us = t0.elapsed().as_secs_f64() * 1e6 / pushes;
    let streaming_allocs = (alloc_events() - alloc0) as f64 / pushes;
    assert!(sink.is_finite());
    assert!(
        streaming_allocs == 0.0,
        "steady-state streaming push allocated ({streaming_allocs} events/push); the online \
         transformer hot loop must be allocation-free"
    );

    // Timed legacy pass on the twin fleet, same tick schedule.
    let mut sink = 0.0;
    let alloc0 = alloc_events();
    let t0 = Instant::now();
    for t in 0..timed_ticks {
        for (i, l) in legacy.iter_mut().enumerate() {
            let out = l
                .push_legacy(x.row((warm_ticks + t + i) % x.rows()))
                .expect("legacy push");
            sink += out.last().copied().unwrap_or(0.0);
        }
    }
    let legacy_us = t0.elapsed().as_secs_f64() * 1e6 / pushes;
    let legacy_allocs = (alloc_events() - alloc0) as f64 / pushes;
    assert!(sink.is_finite());

    let r = TickResult {
        instances,
        legacy_us,
        streaming_us,
        legacy_allocs_per_push: legacy_allocs,
        streaming_allocs_per_push: streaming_allocs,
    };
    obs::progress(&format!(
        "  legacy {:.1} us/push ({:.0} allocs), streaming {:.1} us/push ({:.0} allocs)",
        r.legacy_us, r.legacy_allocs_per_push, r.streaming_us, r.streaming_allocs_per_push
    ));
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    for current in &report.sizes {
        let Some(baseline) = committed.sizes.iter().find(|s| s.rows == current.rows) else {
            continue;
        };
        if current.streaming_ms > 2.0 * baseline.streaming_ms {
            return Err(format!(
                "streaming transform at {} rows took {:.1} ms, more than 2x the committed \
                 {:.1} ms",
                current.rows, current.streaming_ms, baseline.streaming_ms
            ));
        }
        if current.speedup < 1.5 {
            return Err(format!(
                "streaming transform is only {:.2}x faster than legacy at {} rows \
                 (need >= 1.5x)",
                current.speedup, current.rows
            ));
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table1_featurize");
    let scale = harness.scale;
    // The pipeline counters and worker-utilization gauge only record
    // with telemetry on; default to a quiet snapshot-only format so the
    // report always carries them.
    if !obs::enabled() {
        obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
    }

    // One fitted pipeline serves every sweep size; fitting cost is not
    // what this bench measures. The raw shape is the real catalog.
    let layout = RawLayout::from_catalog(&Catalog::standard()).expect("standard catalog layout");
    let raw_width = layout.raw_len();
    obs::progress(&format!(
        "fitting quick pipeline on 2k x {raw_width} catalog-width raw series..."
    ));
    let (xt, yt, gt) = raw_series(2_000, raw_width, scale.seed);
    let (fitted, _) = FeaturePipeline::new(PipelineConfig {
        seed: scale.seed,
        ..PipelineConfig::quick()
    })
    .fit_transform(&xt, &yt, &gt, layout)
    .expect("quick pipeline fits on the synthetic series");
    let fitted = Arc::new(fitted);

    let sizes: &[usize] = if scale.full {
        &[1_000, 20_000, 100_000]
    } else {
        &[1_000, 20_000]
    };
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        sizes: sizes
            .iter()
            .map(|&n| measure_size(&fitted, raw_width, n, scale.seed))
            .collect(),
        tick: measure_tick(&fitted, raw_width, scale.seed),
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_featurize.json"))
            .expect("committed snapshot parses")
    }

    #[test]
    fn wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[1].streaming_ms = 2.0 * base.sizes[1].streaming_ms;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[1].streaming_ms = fresh.sizes[1].streaming_ms.next_up();
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
        fresh.sizes[0].streaming_ms = 1e9;
        fresh.sizes[0].speedup = 0.1;
        assert_eq!(check(&fresh, &base), Ok(()));
    }
}

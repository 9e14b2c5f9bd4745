//! Training-pipeline perf snapshot: parallel episode generation,
//! zero-copy dataset assembly, incremental presort append, and the
//! shadow-retrain fast path built from all three.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_train --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_train.json`
//! (override with `--out <path>`). Four phases, each comparing a fast
//! path against its retained or from-scratch baseline:
//!
//! * `generation` — `generate_training_data` at `n_jobs` 1 vs 4.
//!   Every run asserts the two outputs byte-identical (feature bits,
//!   labels, groups, thresholds, scale-in labels, observed
//!   bottlenecks): the parallel schedule may only change *when*
//!   episodes run, never what they compute.
//! * `assembly` — building the training matrix row by row through the
//!   legacy `instance_vector` → `Vec<Vec<f64>>` → `Matrix::from_rows`
//!   chain vs `instance_vector_write` into a pre-sized
//!   `MatrixBuilder` region. A counting global allocator asserts the
//!   zero-copy row loop performs **zero** heap allocations.
//! * `append` — refreshing a `PresortedDataset` after a 10% row delta:
//!   full rebuild of the concatenated matrix vs
//!   `PresortedDataset::append_rows`. The incremental cache is
//!   asserted bit-identical to the fresh presort every run.
//! * `retrain` — the end-to-end shadow retrain (label + ingest +
//!   challenger fit on the cached presort) vs a cold full retrain
//!   (feature-pipeline refit + forest fit on all rows).
//!
//! `--check <path>` re-measures at the current scale and exits
//! non-zero if the pipeline lost its edge: any phase's fast path more
//! than 2x the committed snapshot, the append speedup below 5x, any
//! assembly allocation, or any identity assertion not having run.
//! The 3x generation-speedup gate needs real cores and is enforced
//! only when `std::thread::available_parallelism()` reports at least
//! 4; on smaller hosts the check logs the skip and still verifies
//! byte identity.

use std::time::Instant;

use monitorless::adapt::{RetrainParams, ShadowRetrainer};
use monitorless::training::{
    generate_training_data, run_fresh_episode, table1, TrainingData, TrainingOptions,
};
use monitorless_bench::harness::{alloc_events, time_ms, CountingAlloc, Harness};
use monitorless_bench::snapshot::train::{BenchReport, PhaseResult};
use monitorless_bench::synth::value;
use monitorless_learn::{Classifier, Matrix, MatrixBuilder, PresortedDataset, RandomForest};
use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::{InstanceId, NodeId, Observation};
use monitorless_obs as obs;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Phase 1: sequential vs parallel `generate_training_data`, asserted
/// byte-identical. Returns the sequential output for reuse downstream.
fn measure_generation(opts: &TrainingOptions) -> (PhaseResult, TrainingData) {
    let seq_opts = TrainingOptions { n_jobs: 1, ..*opts };
    let par_opts = TrainingOptions { n_jobs: 4, ..*opts };
    let (seq_ms, seq) = time_ms(1, || generate_training_data(&seq_opts).expect("sequential"));
    let (par_ms, par) = time_ms(1, || generate_training_data(&par_opts).expect("parallel"));

    assert_eq!(bits(seq.dataset.x()), bits(par.dataset.x()), "feature bytes diverged");
    assert_eq!(seq.dataset.y(), par.dataset.y(), "labels diverged");
    assert_eq!(seq.dataset.groups(), par.dataset.groups(), "groups diverged");
    let thr = |d: &TrainingData| -> Vec<(u32, Option<u64>)> {
        d.thresholds
            .iter()
            .map(|(id, t)| (*id, t.map(f64::to_bits)))
            .collect()
    };
    assert_eq!(thr(&seq), thr(&par), "thresholds diverged");
    assert_eq!(seq.scalein_labels, par.scalein_labels, "scale-in labels diverged");
    assert_eq!(seq.observed_bottlenecks, par.observed_bottlenecks, "bottlenecks diverged");

    let r = PhaseResult {
        phase: "generation".into(),
        rows: seq.dataset.len(),
        baseline_ms: seq_ms,
        fast_ms: par_ms,
        speedup: seq_ms / par_ms,
        fast_allocs: 0.0,
        identical: 1.0,
    };
    obs::progress(&format!(
        "  generation: seq {:.0} ms, 4 workers {:.0} ms ({:.2}x), byte-identical",
        r.baseline_ms, r.fast_ms, r.speedup
    ));
    (r, seq)
}

/// Phase 2: assembling `rows` catalog-width samples into a training
/// matrix — the legacy allocating chain vs the zero-copy builder
/// write. Both paths read identical pre-built observations.
fn measure_assembly(rows: usize) -> PhaseResult {
    let catalog = Catalog::standard();
    let width = catalog.host_len() + catalog.container_len();
    let inst = InstanceId(1);
    let observations: Vec<Observation> = (0..rows as u64)
        .map(|t| Observation {
            node: NodeId(0),
            time: t,
            host: (0..catalog.host_len())
                .map(|m| value(1, m as u64, t))
                .collect(),
            containers: vec![(
                inst,
                (0..catalog.container_len())
                    .map(|m| value(2, m as u64, t))
                    .collect(),
            )],
        })
        .collect();

    let (legacy_ms, legacy) = time_ms(3, || {
        let mut collected: Vec<Vec<f64>> = Vec::new();
        for o in &observations {
            collected.push(o.instance_vector(inst).expect("instance present"));
        }
        let refs: Vec<&[f64]> = collected.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    });

    let mut loop_allocs = u64::MAX;
    let (fast_ms, fast) = time_ms(3, || {
        let mut builder = MatrixBuilder::with_regions(1, rows, width);
        let mut written = 0usize;
        {
            let mut regions = builder.regions_mut();
            let region = regions.next().expect("one region");
            let before = alloc_events();
            for o in &observations {
                let row = &mut region[written * width..(written + 1) * width];
                if o.instance_vector_write(inst, row) {
                    written += 1;
                }
            }
            loop_allocs = loop_allocs.min(alloc_events() - before);
        }
        builder.finish(&[written])
    });
    assert_eq!(bits(&legacy), bits(&fast), "assembly paths diverged");
    assert_eq!(loop_allocs, 0, "zero-copy assembly loop allocated");

    let r = PhaseResult {
        phase: "assembly".into(),
        rows,
        baseline_ms: legacy_ms,
        fast_ms,
        speedup: legacy_ms / fast_ms,
        fast_allocs: loop_allocs as f64,
        identical: 1.0,
    };
    obs::progress(&format!(
        "  assembly: legacy {:.2} ms, zero-copy {:.2} ms ({:.2}x), {} row allocs",
        r.baseline_ms, r.fast_ms, r.speedup, loop_allocs
    ));
    r
}

/// Synthetic feature matrix in telemetry shape: columns draw from a
/// shared grid of 2048 quantized levels spanning `value()`'s 0..100
/// range — monitoring signals (utilizations, rates, queue lengths)
/// mostly repeat an established vocabulary of values, but not so
/// heavily that a comparison sort can shortcut equal runs — plus a
/// sprinkling of NaN cells and one exact-tie constant. Cells where
/// `i % novel_every == 2` stay continuous (unquantized): values the
/// cache has never seen, forcing the append's insert-and-remap path
/// in every column.
fn feature_matrix(rows: usize, cols: usize, salt: u64, novel_every: usize) -> Matrix {
    let levels = 2048.0;
    let mut data = vec![0.0; rows * cols];
    for (i, v) in data.iter_mut().enumerate() {
        let raw = value(salt, i as u64, (i % cols) as u64);
        *v = match i % 101 {
            0 => f64::NAN,
            1 => 42.0,
            _ if novel_every > 0 && i % novel_every == 2 => raw + 0.000_001,
            _ => (raw / 100.0 * levels).floor() / levels * 100.0,
        };
    }
    Matrix::from_vec(rows, cols, data)
}

/// Phase 3: refreshing the presorted training cache after a 10% row
/// delta — full rebuild vs incremental merge append.
fn measure_append(rows: usize) -> PhaseResult {
    let cols = 64usize;
    let base_rows = rows - rows / 10;
    let base = feature_matrix(base_rows, cols, 3, 0);
    // ~5% of delta cells carry values the cache has never seen.
    let delta = feature_matrix(rows - base_rows, cols, 4, 19);
    let mut cache = PresortedDataset::build(&base);
    // Steady-state cache: the retraining loop provisions append slack
    // when it adopts a cache (`ShadowRetrainer::new`), so deltas land
    // in place.
    cache.reserve_rows(base.rows() / 4 + 256);
    // The from-scratch path pays to materialize the concatenated
    // matrix before it can presort; the incremental path never does.
    let (full_ms, fresh) = time_ms(5, || {
        let mut all = Vec::with_capacity(rows * cols);
        all.extend_from_slice(base.as_slice());
        all.extend_from_slice(delta.as_slice());
        PresortedDataset::build(&Matrix::from_vec(rows, cols, all))
    });
    // Clones happen outside the timed section: production appends
    // mutate the cache in place.
    let mut clones = vec![
        cache.clone(),
        cache.clone(),
        cache.clone(),
        cache.clone(),
        cache,
    ];
    let mut append_ms = f64::INFINITY;
    for ps in &mut clones {
        let start = Instant::now();
        ps.append_rows(&delta);
        append_ms = append_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let appended = clones.pop().expect("three clones");
    assert!(appended.bit_identical(&fresh), "incremental cache diverged from fresh presort");

    let r = PhaseResult {
        phase: "append".into(),
        rows,
        baseline_ms: full_ms,
        fast_ms: append_ms,
        speedup: full_ms / append_ms,
        fast_allocs: 0.0,
        identical: 1.0,
    };
    obs::progress(&format!(
        "  append: rebuild {:.1} ms, append {:.1} ms ({:.2}x), bit-identical",
        r.baseline_ms, r.fast_ms, r.speedup
    ));
    r
}

/// Phase 4: the shadow-retrain fast path (label + incremental ingest +
/// challenger fit on the cached presort) vs a cold full retrain
/// (feature-pipeline refit over all rows + forest fit).
fn measure_retrain(
    scale: &monitorless_bench::Scale,
    data: &TrainingData,
    opts: &TrainingOptions,
) -> PhaseResult {
    let champion = monitorless_bench::trained_model(scale);
    let configs = table1();
    let episode_opts = TrainingOptions { n_jobs: 1, ..*opts };
    let fresh = run_fresh_episode(&configs[0], &episode_opts, 0xF00D).expect("fresh episode");
    let holdout_run = run_fresh_episode(&configs[1], &episode_opts, 0xBEEF).expect("holdout");

    let params = RetrainParams::from_model(&champion);
    let seeded =
        ShadowRetrainer::new((*champion).clone(), data, params.clone()).expect("seed retrainer");
    let (fast_ms, report) = time_ms(1, || {
        let mut retrainer = seeded.clone();
        retrainer.ingest_run(&fresh).expect("ingest");
        let holdout = retrainer
            .label_episode(&holdout_run)
            .expect("holdout labels");
        retrainer.retrain(&holdout).expect("retrain")
    });

    // Cold baseline: refit the feature pipeline over base + episode
    // rows and fit the same challenger forest from scratch.
    let labeled = seeded.label_episode(&fresh).expect("episode labels");
    let rows = data.dataset.len() + labeled.raw.rows();
    let cols = data.dataset.x().cols();
    let mut all = Vec::with_capacity(rows * cols);
    all.extend_from_slice(data.dataset.x().as_slice());
    all.extend_from_slice(labeled.raw.as_slice());
    let full_x = Matrix::from_vec(rows, cols, all);
    let mut full_y = data.dataset.y().to_vec();
    full_y.extend_from_slice(&labeled.labels);
    let mut full_groups = data.dataset.groups().to_vec();
    full_groups.extend(std::iter::repeat_n(labeled.group, labeled.raw.rows()));
    let (full_ms, _) = time_ms(1, || {
        let pipeline = monitorless::features::FeaturePipeline::new(scale.model_options().pipeline);
        let (_, x) = pipeline
            .fit_transform(&full_x, &full_y, &full_groups, data.layout.clone())
            .expect("pipeline refit");
        let mut forest = RandomForest::new(params.forest.clone());
        forest.fit(&x, &full_y, None).expect("forest fit");
        forest
    });

    let r = PhaseResult {
        phase: "retrain".into(),
        rows,
        baseline_ms: full_ms,
        fast_ms,
        speedup: full_ms / fast_ms,
        fast_allocs: 0.0,
        identical: 1.0,
    };
    obs::progress(&format!(
        "  retrain: cold {:.0} ms, shadow {:.0} ms ({:.2}x), promoted = {}, challenger F1 {:.3}",
        r.baseline_ms, r.fast_ms, r.speedup, report.promoted, report.challenger_f1
    ));
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    for current in &report.sizes {
        if current.identical != 1.0 {
            return Err(format!("phase {} skipped its identity assertion", current.phase));
        }
        if current.fast_allocs != 0.0 {
            return Err(format!(
                "phase {} fast path performed {} heap allocations (contract: 0)",
                current.phase, current.fast_allocs
            ));
        }
        if let Some(baseline) = committed.sizes.iter().find(|s| s.phase == current.phase) {
            if current.fast_ms > 2.0 * baseline.fast_ms {
                return Err(format!(
                    "phase {} fast path took {:.1} ms, more than 2x the committed {:.1} ms",
                    current.phase, current.fast_ms, baseline.fast_ms
                ));
            }
        }
        if current.phase == "append" && current.speedup < 5.0 {
            return Err(format!(
                "incremental presort append is only {:.2}x faster than a full rebuild \
                 (need >= 5x)",
                current.speedup
            ));
        }
        if current.phase == "generation" {
            if report.workers >= 4 && current.speedup < 3.0 {
                return Err(format!(
                    "parallel generation is only {:.2}x faster than sequential on {} \
                     hardware threads (need >= 3x)",
                    current.speedup, report.workers
                ));
            }
            if report.workers < 4 {
                println!(
                    "generation speedup gate skipped: host reports {} hardware threads \
                     (< 4); byte identity still verified",
                    report.workers
                );
            }
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table_train");
    let scale = harness.scale;
    let gen_opts = scale.training_options();
    let (assembly_rows, append_rows) = if scale.full {
        (20_000, 200_000)
    } else {
        (2_000, 40_000)
    };

    let (generation, data) = measure_generation(&gen_opts);
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sizes: vec![
            generation,
            measure_assembly(assembly_rows),
            measure_append(append_rows),
            measure_retrain(&scale, &data, &gen_opts),
        ],
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_train.json"))
            .expect("committed snapshot parses")
    }

    fn phase<'r>(report: &'r mut BenchReport, name: &str) -> &'r mut PhaseResult {
        report.sizes.iter_mut().find(|p| p.phase == name).unwrap()
    }

    #[test]
    fn fast_path_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        phase(&mut fresh, "retrain").fast_ms = 2.0 * base.sizes[3].fast_ms;
        assert_eq!(check(&fresh, &base), Ok(()));
        phase(&mut fresh, "retrain").fast_ms = (2.0 * base.sizes[3].fast_ms).next_up();
        assert!(check(&fresh, &base).unwrap_err().contains("more than 2x"));
    }

    #[test]
    fn append_speedup_floor_is_five() {
        let base = committed();
        let mut fresh = base.clone();
        phase(&mut fresh, "append").speedup = 5.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        phase(&mut fresh, "append").speedup = 5f64.next_down();
        assert!(check(&fresh, &base).unwrap_err().contains("need >= 5x"));
    }

    #[test]
    fn generation_floor_is_three_only_from_four_workers() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.workers = 4;
        phase(&mut fresh, "generation").speedup = 3.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        phase(&mut fresh, "generation").speedup = 3f64.next_down();
        assert!(check(&fresh, &base).unwrap_err().contains("need >= 3x"));
        fresh.workers = 3;
        phase(&mut fresh, "generation").speedup = 0.5;
        assert_eq!(check(&fresh, &base), Ok(()));
    }

    #[test]
    fn any_fast_path_allocation_or_skipped_identity_fails() {
        let base = committed();
        let mut fresh = base.clone();
        phase(&mut fresh, "assembly").fast_allocs = 1.0;
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("heap allocations"));
        let mut fresh = base.clone();
        phase(&mut fresh, "append").identical = 0.0;
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("skipped its identity assertion"));
    }
}

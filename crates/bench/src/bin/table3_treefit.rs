//! Tree-training perf snapshot: presorted column-oriented builder vs the
//! legacy per-node re-sorting builder, plus parallel grid-search scaling.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table3_treefit --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_table3.json`
//! (override with `--out <path>`). `--full` sweeps 1k/10k/50k-row
//! datasets; the default quick scale measures 1k rows only.
//!
//! The forest under test uses the library-default Gini criterion with
//! the paper-selected Random Forest shape (`min_samples_split 5`,
//! `min_samples_leaf 20`, sqrt feature sampling, bootstrap, 100 trees)
//! on a metric-shaped dataset: most columns quantized the way real
//! monitoring metrics are (percent gauges, counter deltas, coarse
//! levels), plus continuous latency-like columns.
//!
//! `--check <path>` re-measures at the current scale and exits non-zero
//! if the presorted builder lost its edge: wall time more than 2x the
//! committed snapshot's measurement for the same dataset size (coarse —
//! it must survive CI machine variance) or a same-run speedup over the
//! legacy builder below 1.5x. Both builders are also cross-checked for
//! bit-identical trees on every run, so the speedup numbers always
//! describe equivalent models.

use monitorless_bench::harness::{time_ms, Harness};
use monitorless_bench::snapshot::table3::{BenchReport, GridResult, SizeResult};
use monitorless_learn::model_selection::{GridSearch, KFold, ParamGrid, ParamValue};
use monitorless_learn::tree::{DecisionTree, DecisionTreeParams, MaxFeatures, SplitCriterion};
use monitorless_learn::{Classifier, Matrix, RandomForest, RandomForestParams};
use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

/// Synthetic training matrix shaped like the paper's feature tables:
/// a couple of informative columns, heavy-duplicate quantized columns
/// (counter-style metrics) and continuous noise.
fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = u8::from(i % 2 == 1);
        let informative = if label == 1 { 0.7 } else { 0.3 };
        for c in 0..d {
            let v = match c % 5 {
                // Informative utilization-style column.
                0 => informative + rng.gen::<f64>() * 0.4,
                // CPU-style percentage sampled at 0.1% granularity.
                1 => (rng.gen::<f64>() * 1000.0).floor() / 10.0,
                // Integer counter delta (packets, page faults, ...).
                2 => (rng.gen::<f64>() * 256.0).floor(),
                // Coarse gauge with a handful of levels.
                3 => (rng.gen::<f64>() * 8.0).floor(),
                // Continuous latency-like value.
                _ => rng.gen::<f64>(),
            };
            data.push(v);
        }
        y.push(label);
    }
    (Matrix::from_vec(n, d, data), y)
}

fn forest_params(n_trees: usize, seed: u64) -> RandomForestParams {
    RandomForestParams {
        n_estimators: n_trees,
        criterion: SplitCriterion::Gini,
        min_samples_split: 5,
        min_samples_leaf: 20,
        max_features: MaxFeatures::Sqrt,
        bootstrap: true,
        n_jobs: 1,
        seed,
        ..RandomForestParams::default()
    }
}

/// The pre-presort forest trainer: per tree, materialize the bootstrap
/// matrix and run the legacy per-node re-sorting builder. RNG use
/// mirrors `RandomForest::fit` exactly, so the resulting trees must be
/// bit-identical to the presorted path — asserted by the caller.
fn legacy_forest_fit(x: &Matrix, y: &[u8], params: &RandomForestParams) -> Vec<DecisionTree> {
    let n = x.rows();
    (0..params.n_estimators)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(
                params
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(t as u64),
            );
            let indices: Vec<usize> = if params.bootstrap {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            let xb = x.select_rows(&indices);
            let yb: Vec<u8> = indices.iter().map(|&i| y[i]).collect();
            let wb = vec![1.0; indices.len()];
            let mut tree = DecisionTree::new(DecisionTreeParams {
                criterion: params.criterion,
                max_depth: params.max_depth,
                min_samples_split: params.min_samples_split,
                min_samples_leaf: params.min_samples_leaf,
                max_features: params.max_features,
                seed: rng.gen(),
                ..DecisionTreeParams::default()
            });
            // A one-class draw takes the forest's fallback stump: the
            // tree's own criterion, floors, feature sampling and seed,
            // at depth 1, on the full data.
            if tree.fit_resorting(&xb, &yb, Some(&wb)).is_err() {
                let mut fallback = DecisionTree::new(DecisionTreeParams {
                    max_depth: Some(1),
                    ..tree.params().clone()
                });
                fallback
                    .fit_resorting(x, y, Some(&vec![1.0; n]))
                    .expect("full data trains a stump");
                return fallback;
            }
            tree
        })
        .collect()
}

fn measure_size(rows: usize, seed: u64) -> SizeResult {
    let cols = 30;
    let n_trees = 100;
    let (x, y) = dataset(rows, cols, seed);
    let params = forest_params(n_trees, seed);
    let reps = if rows >= 50_000 { 1 } else { 3 };

    obs::progress(&format!("forest fit, {rows} x {cols}, {n_trees} trees..."));
    let mut forest = RandomForest::new(params.clone());
    let (presorted_ms, ()) = time_ms(reps, || {
        forest = RandomForest::new(params.clone());
        forest.fit(&x, &y, None).unwrap();
    });
    let (legacy_ms, legacy) = time_ms(reps, || legacy_forest_fit(&x, &y, &params));

    // The speedup claim only holds if both builders grew the same model.
    assert_eq!(forest.trees().len(), legacy.len());
    for (t, (ours, theirs)) in forest.trees().iter().zip(&legacy).enumerate() {
        assert_eq!(
            monitorless_std::json::to_string(ours),
            monitorless_std::json::to_string(theirs),
            "presorted and legacy builders diverged on tree {t} at {rows} rows",
        );
    }

    let r = SizeResult {
        rows,
        cols,
        n_trees,
        legacy_ms,
        presorted_ms,
        speedup: legacy_ms / presorted_ms,
    };
    obs::progress(&format!(
        "  legacy {:.1} ms, presorted {:.1} ms ({:.2}x)",
        r.legacy_ms, r.presorted_ms, r.speedup
    ));
    r
}

fn measure_grid(rows: usize, seed: u64) -> GridResult {
    let (x, y) = dataset(rows, 30, seed);
    let splits = KFold::new(5).split(rows).unwrap();
    let grid = ParamGrid::new()
        .add("min_samples_leaf", vec![ParamValue::I(5), ParamValue::I(20)])
        .add(
            "criterion",
            vec![
                ParamValue::S("gini".into()),
                ParamValue::S("entropy".into()),
            ],
        );
    let candidates = grid.len();
    let folds = splits.len();
    let factory = |p: &monitorless_learn::model_selection::ParamSet| -> Box<dyn Classifier> {
        Box::new(RandomForest::new(RandomForestParams {
            n_estimators: 40,
            criterion: if p["criterion"].as_str() == "gini" {
                SplitCriterion::Gini
            } else {
                SplitCriterion::Entropy
            },
            min_samples_leaf: p["min_samples_leaf"].as_usize(),
            n_jobs: 1,
            seed,
            ..RandomForestParams::default()
        }))
    };

    obs::progress(&format!("grid search, {candidates} candidates x {folds} folds..."));
    let run = |n_jobs: usize| {
        let search = GridSearch::new(grid.clone(), splits.clone()).with_n_jobs(n_jobs);
        time_ms(1, || {
            search
                .run(factory, monitorless_learn::metrics::f1_score, &x, &y)
                .unwrap()
        })
        .0
    };
    let jobs1_ms = run(1);
    let jobs4_ms = run(4);
    let worker_utilization = obs::gauge_value("gridsearch.worker_utilization").unwrap_or(0.0);
    let r = GridResult {
        candidates,
        folds,
        jobs1_ms,
        jobs4_ms,
        parallel_speedup: jobs1_ms / jobs4_ms,
        worker_utilization,
    };
    obs::progress(&format!(
        "  1 job {:.1} ms, 4 jobs {:.1} ms ({:.2}x, utilization {:.2})",
        r.jobs1_ms, r.jobs4_ms, r.parallel_speedup, r.worker_utilization
    ));
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    for current in &report.sizes {
        let Some(baseline) = committed.sizes.iter().find(|s| s.rows == current.rows) else {
            continue;
        };
        if current.presorted_ms > 2.0 * baseline.presorted_ms {
            return Err(format!(
                "forest fit at {} rows took {:.1} ms, more than 2x the committed {:.1} ms",
                current.rows, current.presorted_ms, baseline.presorted_ms
            ));
        }
        if current.speedup < 1.5 {
            return Err(format!(
                "presorted builder is only {:.2}x faster than legacy at {} rows (need >= 1.5x)",
                current.speedup, current.rows
            ));
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table3_treefit");
    let scale = harness.scale;
    // The utilization gauges only record with telemetry on; default to a
    // quiet snapshot-only format so the report always carries them.
    if !obs::enabled() {
        obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
    }

    let sizes: &[usize] = if scale.full {
        &[1_000, 10_000, 50_000]
    } else {
        &[1_000]
    };
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        sizes: sizes.iter().map(|&n| measure_size(n, scale.seed)).collect(),
        grid: measure_grid(1_000, scale.seed),
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_table3.json"))
            .expect("committed snapshot parses")
    }

    #[test]
    fn wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[1].presorted_ms = 2.0 * base.sizes[1].presorted_ms;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[1].presorted_ms = fresh.sizes[1].presorted_ms.next_up();
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
        fresh.sizes[0].presorted_ms = 1e9;
        fresh.sizes[0].speedup = 0.1;
        assert_eq!(check(&fresh, &base), Ok(()));
    }
}

//! Table 3: training time, per-sample classification time and lagged F1
//! of the six classifiers.
//!
//! All classifiers share the same fitted feature pipeline (its cost is
//! excluded from the timings, as in the paper, where feature extraction
//! "takes the same time for all algorithms"). The validation F1₂ is
//! measured on the three-tier web application run, which the training
//! data never saw.

use std::sync::Arc;
use std::time::Instant;

use monitorless_learn::metrics::lagged_confusion;
use monitorless_learn::{Classifier, Matrix};

use super::scenario::{run_eval_scenario, EvalApp, EvalOptions, EVAL_LAG};
use super::table2::{build, Algorithm, GridScale};
use crate::features::FeaturePipeline;
use crate::training::TrainingData;
use crate::Error;

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Wall-clock training time in seconds.
    pub training_time_s: f64,
    /// Per-sample classification time in milliseconds.
    pub class_time_ms: f64,
    /// Lagged F1 on the validation scenario.
    pub f1_2: f64,
}

/// Formats the rows' deterministic columns, algorithm and F1₂: the same
/// seed prints the same table on every run.
pub fn format(rows: &[Table3Row]) -> String {
    let mut out = format!("{:<22} {:>7}\n", "Algorithm", "F1_2");
    for r in rows {
        out.push_str(&format!("{:<22} {:>7.3}\n", r.algorithm, r.f1_2));
    }
    out
}

/// Formats the rows' timing columns, training and per-sample
/// classification time, which move from run to run.
pub fn format_times(rows: &[Table3Row]) -> String {
    let mut out = format!("{:<22} {:>14} {:>12}\n", "Algorithm", "Training Time", "Class. Time");
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>12.2} s {:>9.3} ms\n",
            r.algorithm, r.training_time_s, r.class_time_ms
        ));
    }
    out
}

/// Runs the comparison: trains each algorithm (with its paper-selected
/// hyper-parameters at `Full` scale, or shrunken ones at `Quick` scale)
/// on the transformed training data and scores it on the three-tier run.
///
/// # Errors
///
/// Propagates learner/scenario errors.
pub fn run(
    data: &TrainingData,
    pipeline_cfg: crate::features::PipelineConfig,
    eval_opts: &EvalOptions,
    scale: GridScale,
) -> Result<Vec<Table3Row>, Error> {
    // Shared pipeline.
    let (fitted, x_train) = FeaturePipeline::new(pipeline_cfg).fit_transform(
        data.dataset.x(),
        data.dataset.y(),
        data.dataset.groups(),
        data.layout.clone(),
    )?;
    let fitted = Arc::new(fitted);

    // Validation scenario with raw instance series.
    let mut eval_opts = *eval_opts;
    eval_opts.record_raw = true;
    let run = run_eval_scenario(EvalApp::ThreeTier, None, &eval_opts)?;
    let raws = run.raw_instances.as_ref().expect("record_raw was set");
    // Transform each instance's series once.
    let mut instance_features: Vec<Matrix> = Vec::new();
    for (_, series) in raws {
        let refs: Vec<&[f64]> = series.iter().map(|r| r.as_slice()).collect();
        let raw = Matrix::from_rows(&refs);
        let groups = vec![0u32; raw.rows()];
        instance_features.push(fitted.transform_batch(&raw, &groups)?);
    }

    let quick = matches!(scale, GridScale::Quick);
    let mut rows = Vec::new();
    // All six classifiers train on the same matrix; the tree-family ones
    // share one presorted view of it through this cache.
    let fit_cache = monitorless_learn::FitCache::new();
    for algorithm in Algorithm::all() {
        let params = paper_selected_params(algorithm, scale);
        let mut clf = build(algorithm, &params, quick);

        let t0 = Instant::now();
        clf.fit_cached(&x_train, &fit_cache, data.dataset.y(), None)?;
        let training_time_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let _ = clf.predict(&x_train);
        let class_time_ms = t1.elapsed().as_secs_f64() * 1000.0 / x_train.rows() as f64;

        // Validation: per-instance predictions, OR-aggregated per tick.
        let f1_2 = score_on_run(clf.as_ref(), &instance_features, &run.ground_truth);
        rows.push(Table3Row {
            algorithm: algorithm.name().to_string(),
            training_time_s,
            class_time_ms,
            f1_2,
        });
    }
    Ok(rows)
}

/// OR-aggregated lagged F1 of a classifier over per-instance feature
/// series.
pub fn score_on_run(
    clf: &dyn Classifier,
    instance_features: &[Matrix],
    ground_truth: &[u8],
) -> f64 {
    let preds: Vec<Vec<u8>> = instance_features
        .iter()
        .map(|x| clf.predict_with_threshold(x, 0.4))
        .collect();
    let n = ground_truth.len();
    let mut app_pred = vec![0u8; n];
    for t in 0..n {
        app_pred[t] = u8::from(preds.iter().any(|p| t < p.len() && p[t] == 1));
    }
    lagged_confusion(ground_truth, &app_pred, EVAL_LAG).f1()
}

/// The hyper-parameters the grid search selected for each algorithm
/// (underlined entries in Table 2).
pub fn paper_selected_params(
    algorithm: Algorithm,
    scale: GridScale,
) -> monitorless_learn::model_selection::ParamSet {
    use monitorless_learn::model_selection::ParamValue as V;
    let mut p = monitorless_learn::model_selection::ParamSet::new();
    let full = matches!(scale, GridScale::Full);
    match algorithm {
        Algorithm::LogisticRegression => {
            p.insert("C".into(), V::F(1.0));
            p.insert("tol".into(), V::F(0.0001));
            p.insert("class_weight".into(), V::S("none".into()));
        }
        Algorithm::Svc => {
            p.insert("C".into(), V::F(10.0));
            p.insert("tol".into(), V::F(0.01));
            p.insert("penalty".into(), V::S("l1".into()));
            p.insert("class_weight".into(), V::S("none".into()));
        }
        Algorithm::AdaBoost => {
            p.insert("n_estimators".into(), V::I(if full { 50 } else { 15 }));
            p.insert("algorithm".into(), V::S("SAMME.R".into()));
            p.insert("DT_criterion".into(), V::S("gini".into()));
            p.insert("DT_splitter".into(), V::S("best".into()));
            p.insert("DT_min_samples_split".into(), V::I(5));
        }
        Algorithm::XgBoost => {
            p.insert("min_child_weight".into(), V::I(1));
            p.insert("max_depth".into(), V::I(if full { 64 } else { 8 }));
            p.insert("gamma".into(), V::I(0));
        }
        Algorithm::NeuralNet => {
            p.insert("activation_function1".into(), V::S("relu".into()));
            p.insert("activation_function2".into(), V::S("relu".into()));
            p.insert("activation_function3".into(), V::S("sigmoid".into()));
        }
        Algorithm::RandomForest => {
            p.insert("n_estimators".into(), V::I(if full { 250 } else { 40 }));
            p.insert("min_samples_leaf".into(), V::I(if full { 20 } else { 5 }));
            p.insert("min_samples_split".into(), V::I(5));
            p.insert("criterion".into(), V::S("entropy".into()));
            p.insert("class_weight".into(), V::S("none".into()));
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::PipelineConfig;
    use crate::training::{generate_training_data, TrainingOptions};

    #[test]
    fn comparison_ranks_forest_highly() {
        let data = generate_training_data(&TrainingOptions {
            run_seconds: 40,
            ramp_seconds: 120,
            seed: 31,
            n_jobs: 4,
        })
        .unwrap();
        let rows = run(
            &data,
            PipelineConfig::quick(),
            &EvalOptions {
                duration: 150,
                ramp_seconds: 150,
                seed: 33,
                record_raw: true,
            },
            GridScale::Quick,
        )
        .unwrap();
        assert_eq!(rows.len(), 6);
        let rf = rows
            .iter()
            .find(|r| r.algorithm == "Random Forest")
            .unwrap();
        assert!(rf.f1_2 > 0.4, "forest F1_2 = {}\n{}", rf.f1_2, format(&rows));
        // The tree ensembles should be near the top, as in the paper.
        let best = rows
            .iter()
            .max_by(|a, b| a.f1_2.partial_cmp(&b.f1_2).unwrap())
            .unwrap();
        assert!(
            ["Random Forest", "XGBoost", "AdaBoost"].contains(&best.algorithm.as_str()),
            "best was {} \n{}",
            best.algorithm,
            format(&rows)
        );
        assert!(rows.iter().all(|r| r.training_time_s >= 0.0));
        assert!(rows.iter().all(|r| r.class_time_ms >= 0.0));
    }
}

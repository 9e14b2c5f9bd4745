//! The monitorless model: feature pipeline + random forest.

use std::path::Path;
use std::sync::Arc;

use monitorless_learn::{FlatEnsemble, Matrix, PresortedDataset, RandomForest, RandomForestParams};

use crate::drift::{DriftProfile, PROFILE_BINS};
use crate::features::{FeaturePipeline, FittedPipeline, InstanceTransformer, PipelineConfig};
use crate::training::TrainingData;
use crate::Error;

/// Training options for [`MonitorlessModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOptions {
    /// Feature-pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Random-forest hyper-parameters.
    pub forest: RandomForestParams,
    /// Decision threshold; the paper uses 0.4 to bias against false
    /// negatives (Section 4).
    pub threshold: f64,
}

impl ModelOptions {
    /// Laptop-scale options for tests and examples.
    pub fn quick() -> Self {
        ModelOptions {
            pipeline: PipelineConfig::quick(),
            forest: RandomForestParams {
                n_estimators: 60,
                min_samples_leaf: 15,
                criterion: monitorless_learn::tree::SplitCriterion::Entropy,
                n_jobs: 4,
                ..RandomForestParams::default()
            },
            threshold: 0.4,
        }
    }

    /// The paper's selected configuration: full pipeline, 250 trees,
    /// 20 samples per leaf, information gain, threshold 0.4.
    pub fn paper() -> Self {
        ModelOptions {
            pipeline: PipelineConfig::paper_default(),
            forest: RandomForestParams {
                n_jobs: 8,
                ..RandomForestParams::paper_selected()
            },
            threshold: 0.4,
        }
    }
}

/// A trained monitorless model.
///
/// Consumes raw 1040-metric vectors (per instance, per second) and
/// predicts whether the instance is saturated — no application KPIs are
/// used at inference time.
#[derive(Debug, Clone)]
pub struct MonitorlessModel {
    /// Shared with every per-instance transformer; its serving plans
    /// are derived state, rebuilt on load like `flat`.
    pipeline: Arc<FittedPipeline>,
    forest: RandomForest,
    threshold: f64,
    /// The forest compiled for batched inference; rebuilt on load, not
    /// serialized (it is derived state).
    flat: FlatEnsemble,
    /// Reference profile of the transformed training features, captured
    /// at fit time for serving-time drift detection; every saved model
    /// carries one.
    drift: DriftProfile,
}

impl MonitorlessModel {
    /// Trains the model on generated training data.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and learner errors.
    pub fn train(data: &TrainingData, opts: &ModelOptions) -> Result<Self, Error> {
        Self::train_with_labels(data, data.dataset.y(), opts)
    }

    /// Trains the model against alternative per-sample labels (same rows
    /// as `data.dataset`) — used by the Section 5 scale-in classifier.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and learner errors; [`Error::Invalid`] if the
    /// labels do not match the dataset length.
    pub fn train_with_labels(
        data: &TrainingData,
        labels: &[u8],
        opts: &ModelOptions,
    ) -> Result<Self, Error> {
        if labels.len() != data.dataset.len() {
            return Err(Error::Invalid("labels do not match dataset rows".into()));
        }
        let pipeline = FeaturePipeline::new(opts.pipeline);
        let (fitted, x) = pipeline.fit_transform(
            data.dataset.x(),
            labels,
            data.dataset.groups(),
            data.layout.clone(),
        )?;
        // One presort serves the forest and the drift profile: the
        // profile reuses every column the forest sorted and sorts only
        // the ones it never read.
        let ps = PresortedDataset::build(&x);
        drop(x);
        let mut forest = RandomForest::new(opts.forest.clone());
        forest.fit_presorted(&ps, labels, None)?;
        let flat = forest.to_flat();
        let drift = DriftProfile::from_presorted(&ps);
        Ok(MonitorlessModel {
            pipeline: Arc::new(fitted),
            forest,
            threshold: opts.threshold,
            flat,
            drift,
        })
    }

    /// The fitted feature pipeline.
    pub fn pipeline(&self) -> &FittedPipeline {
        &self.pipeline
    }

    /// The trained forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// The forest compiled to its flat inference table (built once at
    /// train/load time; all predict entry points run on it).
    pub fn flat(&self) -> &FlatEnsemble {
        &self.flat
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Reference drift profile of the transformed training features.
    pub fn drift_profile(&self) -> &DriftProfile {
        &self.drift
    }

    /// Overrides the decision threshold (FN/FP trade-off, Section 4).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Replaces the forest with one trained elsewhere on this model's
    /// transformed feature space, recompiling the flat table — used to
    /// pair a cheaply fitted pipeline with a separately fitted
    /// paper-shaped forest (e.g. the serving-tick bench).
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when the forest's feature count differs from
    /// the pipeline output width.
    pub fn with_forest(mut self, forest: RandomForest) -> Result<Self, Error> {
        let flat = forest.to_flat();
        if flat.n_features() != self.pipeline.output_width() {
            return Err(Error::Invalid(format!(
                "forest expects {} features, pipeline produces {}",
                flat.n_features(),
                self.pipeline.output_width()
            )));
        }
        self.forest = forest;
        self.flat = flat;
        Ok(self)
    }

    /// Batch prediction on raw vectors (chronological within groups).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn predict_batch(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Vec<u8>, Error> {
        let proba = self.predict_proba_batch(x_raw, groups)?;
        Ok(proba
            .into_iter()
            .map(|p| u8::from(p >= self.threshold))
            .collect())
    }

    /// Batch probabilities on raw vectors, evaluated on the flat table
    /// (bit-identical to the forest's recursive reference walk).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn predict_proba_batch(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Vec<f64>, Error> {
        let x = self.pipeline.transform_batch(x_raw, groups)?;
        Ok(self.flat.predict_proba(&x, self.forest.params().n_jobs))
    }

    /// Creates a per-instance online transformer sharing this model's
    /// pipeline (one `Arc` clone: no copy of the fitted parameters or
    /// the serving plans).
    pub fn transformer(&self) -> InstanceTransformer {
        InstanceTransformer::new(Arc::clone(&self.pipeline))
    }

    /// Predicts from an already-transformed feature vector.
    ///
    /// The flat single-row walk performs no allocation (`table7_predict`
    /// asserts the allocation count stays zero). The per-instance
    /// reference loop, `Orchestrator::step_legacy`, scores through it;
    /// the serving tick scores its whole fleet at once through
    /// [`MonitorlessModel::predict_fleet_into`].
    pub fn predict_features(&self, features: &[f64]) -> (f64, u8) {
        let p = self.flat.predict_row(features);
        (p, u8::from(p >= self.threshold))
    }

    /// Applies the decision threshold to a probability — the same
    /// cutoff [`MonitorlessModel::predict_features`] uses, exposed so
    /// batched fleet scoring can fan probabilities back out to
    /// per-instance decisions.
    pub fn decide(&self, probability: f64) -> u8 {
        u8::from(probability >= self.threshold)
    }

    /// Scores a whole fleet's worth of already-transformed feature
    /// rows (row-major, one row per instance) in one blocked pass on
    /// the calling thread, writing one probability per row into
    /// `probs` — the serving tick's predict phase.
    ///
    /// Per row, the result is bit-identical to
    /// [`MonitorlessModel::predict_features`].
    ///
    /// # Panics
    ///
    /// As [`FlatEnsemble::predict_rows_into`].
    pub fn predict_fleet_into(&self, rows: &[f64], probs: &mut [f64]) {
        self.flat
            .predict_rows_into(rows, self.pipeline.output_width(), probs, 1);
    }

    /// Feature importances of the trained forest, paired with pipeline
    /// feature names and sorted descending — the Table 4 ranking.
    pub fn feature_importances(&self) -> Vec<(String, f64)> {
        let imp = self.forest.feature_importances();
        let mut pairs: Vec<(String, f64)> = self
            .pipeline
            .feature_names()
            .iter()
            .cloned()
            .zip(imp)
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        pairs
    }

    /// Persists the model as JSON, creating the file's parent directory
    /// when it does not exist yet.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialization errors.
    pub fn save(&self, path: &Path) -> Result<(), Error> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = monitorless_std::json::to_string(self);
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads a model saved with [`MonitorlessModel::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O or deserialization errors. A forest with no trees, a
    /// missing drift profile, a forest or drift profile whose width
    /// differs from the pipeline's output width, and a drift feature
    /// without `PROFILE_BINS − 1` edges are deserialization errors, not
    /// panics at the first tick.
    pub fn load(path: &Path) -> Result<Self, Error> {
        let json = std::fs::read_to_string(path)?;
        Ok(monitorless_std::json::from_str(&json)?)
    }
}

// Hand-written (rather than `json_struct!`) because the flat table is
// derived state: pipeline/forest/threshold plus the drift profile go on
// the wire, and deserialization recompiles the flat table from the
// forest. The widths the serving path indexes by are checked here, so a
// malformed file fails to load instead of panicking in
// `Orchestrator::new` or `step`.
impl monitorless_std::json::ToJson for MonitorlessModel {
    fn to_json(&self) -> monitorless_std::json::Json {
        monitorless_std::json::Json::Obj(vec![
            ("pipeline".to_string(), self.pipeline.to_json()),
            ("forest".to_string(), self.forest.to_json()),
            ("threshold".to_string(), self.threshold.to_json()),
            ("drift".to_string(), self.drift.to_json()),
        ])
    }
}

impl monitorless_std::json::FromJson for MonitorlessModel {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        let pipeline: Arc<FittedPipeline> =
            Arc::new(monitorless_std::json::field(json, "pipeline")?);
        let forest: RandomForest = monitorless_std::json::field(json, "forest")?;
        let threshold: f64 = monitorless_std::json::field(json, "threshold")?;
        let drift: DriftProfile = monitorless_std::json::field(json, "drift")?;
        let invalid = |msg: String| Err(monitorless_std::json::JsonError(msg));
        if !forest.is_fitted() {
            return invalid("forest has no trees".into());
        }
        let flat = forest.to_flat();
        let width = pipeline.output_width();
        if flat.n_features() != width {
            return invalid(format!(
                "forest expects {} features, pipeline produces {width}",
                flat.n_features()
            ));
        }
        if drift.features.len() != width {
            return invalid(format!(
                "drift profile has {} features, pipeline produces {width}",
                drift.features.len()
            ));
        }
        let bad = drift
            .features
            .iter()
            .position(|f| f.edges.len() != PROFILE_BINS - 1);
        if let Some(i) = bad {
            return invalid(format!(
                "drift feature {i} has {} edges, expected {}",
                drift.features[i].edges.len(),
                PROFILE_BINS - 1
            ));
        }
        Ok(MonitorlessModel {
            pipeline,
            forest,
            threshold,
            flat,
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate_training_data, TrainingOptions};

    fn tiny_data() -> TrainingData {
        generate_training_data(&TrainingOptions {
            run_seconds: 30,
            ramp_seconds: 100,
            seed: 5,
            n_jobs: 4,
        })
        .unwrap()
    }

    #[test]
    fn train_and_self_predict() {
        let data = tiny_data();
        let model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();
        let pred = model
            .predict_batch(data.dataset.x(), data.dataset.groups())
            .unwrap();
        let f1 = monitorless_learn::metrics::f1_score(data.dataset.y(), &pred);
        assert!(f1 > 0.8, "training F1 = {f1}");
        assert!(model.pipeline().output_width() > 0);
    }

    #[test]
    fn importances_are_normalized_and_named() {
        let data = tiny_data();
        let model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();
        let imp = model.feature_importances();
        assert_eq!(imp.len(), model.pipeline().output_width());
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-6);
        // Sorted descending.
        assert!(imp.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn save_load_roundtrip() {
        let data = tiny_data();
        let model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();
        let dir = std::env::temp_dir().join("monitorless_model_test.json");
        model.save(&dir).unwrap();
        let back = MonitorlessModel::load(&dir).unwrap();
        let p1 = model
            .predict_proba_batch(data.dataset.x(), data.dataset.groups())
            .unwrap();
        let p2 = back
            .predict_proba_batch(data.dataset.x(), data.dataset.groups())
            .unwrap();
        assert_eq!(p1, p2);
        let _ = std::fs::remove_file(dir);
    }

    /// Saving into a directory that does not exist yet creates it, and
    /// loading the file back yields the model that wrote those bytes.
    #[test]
    fn save_creates_missing_directories() {
        let model = MonitorlessModel::train(&tiny_data(), &ModelOptions::quick()).unwrap();
        let root = std::env::temp_dir().join(format!("monitorless_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("nested").join("dir").join("model.json");
        model.save(&path).unwrap();
        let bytes = std::fs::read_to_string(&path).unwrap();
        let back = MonitorlessModel::load(&path).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(bytes, monitorless_std::json::to_string(&model));
        assert_eq!(monitorless_std::json::to_string(&back), bytes);
    }

    #[test]
    fn threshold_is_adjustable() {
        let data = tiny_data();
        let mut model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();
        assert_eq!(model.threshold(), 0.4);
        model.set_threshold(0.9);
        let strict = model
            .predict_batch(data.dataset.x(), data.dataset.groups())
            .unwrap();
        model.set_threshold(0.1);
        let lax = model
            .predict_batch(data.dataset.x(), data.dataset.groups())
            .unwrap();
        let count = |v: &[u8]| v.iter().filter(|&&l| l == 1).count();
        assert!(count(&lax) >= count(&strict));
    }
}

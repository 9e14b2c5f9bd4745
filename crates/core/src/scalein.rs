//! The scale-in (overprovisioning) classifier proposed in Section 5.
//!
//! "It is possible to extend our approach training an additional
//! classifier for detecting overprovisioned services and conservatively
//! scale in to reduce costs." The classifier reuses the full monitorless
//! machinery — same platform metrics, same feature pipeline, same forest
//! — but is trained on *overprovisioning* labels (the service runs far
//! below its knee with zero failures) and uses a conservative decision
//! threshold so scale-in only fires when the model is confident.

use monitorless_learn::Matrix;

use crate::features::InstanceTransformer;
use crate::model::{ModelOptions, MonitorlessModel};
use crate::training::TrainingData;
use crate::Error;

/// Conservative default decision threshold for scale-in: the opposite
/// bias from the saturation model's 0.4 — removing capacity by mistake is
/// the expensive error here.
pub const SCALE_IN_THRESHOLD: f64 = 0.8;

/// A trained overprovisioning detector.
#[derive(Debug, Clone)]
pub struct ScaleInModel {
    inner: MonitorlessModel,
}

impl ScaleInModel {
    /// Trains on the overprovisioning labels carried by the training
    /// data ([`TrainingData::scalein_labels`]).
    ///
    /// # Errors
    ///
    /// Propagates pipeline and learner errors.
    pub fn train(data: &TrainingData, opts: &ModelOptions) -> Result<Self, Error> {
        let mut opts = opts.clone();
        opts.threshold = SCALE_IN_THRESHOLD;
        let inner = MonitorlessModel::train_with_labels(data, &data.scalein_labels, &opts)?;
        Ok(ScaleInModel { inner })
    }

    /// The underlying model (pipeline + forest).
    pub fn inner(&self) -> &MonitorlessModel {
        &self.inner
    }

    /// Batch prediction: 1 = overprovisioned (safe to scale in).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn predict_batch(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Vec<u8>, Error> {
        self.inner.predict_batch(x_raw, groups)
    }

    /// Batch probabilities of the overprovisioned class.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn predict_proba_batch(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Vec<f64>, Error> {
        self.inner.predict_proba_batch(x_raw, groups)
    }

    /// Creates an online per-instance transformer for this model,
    /// sharing the inner model's pipeline.
    pub fn transformer(&self) -> InstanceTransformer {
        self.inner.transformer()
    }

    /// Predicts from an already-transformed feature vector:
    /// `(probability, overprovisioned)`.
    pub fn predict_features(&self, features: &[f64]) -> (f64, u8) {
        self.inner.predict_features(features)
    }

    /// Recommends how many of `current_replicas` could be removed given
    /// per-instance overprovisioning predictions, conservatively keeping
    /// at least one replica and never removing more than half at once.
    pub fn scale_in_recommendation(predictions: &[u8], current_replicas: usize) -> usize {
        if current_replicas <= 1 {
            return 0;
        }
        let overprovisioned = predictions.iter().filter(|&&p| p == 1).count();
        // Only act when EVERY instance looks overprovisioned (the paper's
        // "conservative" guidance), and remove at most half.
        if overprovisioned == predictions.len() && !predictions.is_empty() {
            (current_replicas / 2).max(1).min(current_replicas - 1)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate_training_data, TrainingOptions};
    use monitorless_learn::metrics::f1_score;

    fn data() -> TrainingData {
        generate_training_data(&TrainingOptions {
            run_seconds: 40,
            ramp_seconds: 120,
            seed: 401,
            n_jobs: 4,
        })
        .unwrap()
    }

    #[test]
    fn scalein_labels_are_present_and_disjoint_from_saturation() {
        let d = data();
        assert_eq!(d.scalein_labels.len(), d.dataset.len());
        let both = d
            .scalein_labels
            .iter()
            .zip(d.dataset.y())
            .filter(|(&o, &s)| o == 1 && s == 1)
            .count();
        assert_eq!(both, 0, "a sample cannot be both saturated and overprovisioned");
        let over: usize = d.scalein_labels.iter().map(|&v| v as usize).sum();
        assert!(over > 0, "training data must contain overprovisioned samples");
    }

    #[test]
    fn scalein_model_learns_its_labels() {
        let d = data();
        let model = ScaleInModel::train(&d, &ModelOptions::quick()).unwrap();
        // Measure learning at the neutral 0.5 point: the 0.8 operating
        // threshold deliberately trades recall for precision, so its F1
        // fluctuates with the forest's bootstrap draws.
        let proba = model
            .predict_proba_batch(d.dataset.x(), d.dataset.groups())
            .unwrap();
        let pred: Vec<u8> = proba.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let f1 = f1_score(&d.scalein_labels, &pred);
        assert!(f1 > 0.6, "scale-in training F1 = {f1}");
        assert_eq!(model.inner().threshold(), SCALE_IN_THRESHOLD);
    }

    #[test]
    fn recommendation_is_conservative() {
        assert_eq!(ScaleInModel::scale_in_recommendation(&[1, 1, 1], 1), 0);
        assert_eq!(ScaleInModel::scale_in_recommendation(&[1, 1, 0], 4), 0);
        assert_eq!(ScaleInModel::scale_in_recommendation(&[1, 1, 1], 4), 2);
        assert_eq!(ScaleInModel::scale_in_recommendation(&[1, 1], 2), 1);
        assert_eq!(ScaleInModel::scale_in_recommendation(&[], 3), 0);
    }
}

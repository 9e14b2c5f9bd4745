//! From-scratch machine-learning library for the *monitorless* reproduction.
//!
//! The Middleware '19 paper trains and compares six binary classifiers
//! (Table 2/3): logistic regression (SAG), a linear support-vector
//! classifier, AdaBoost over decision trees, gradient boosting
//! (XGBoost-style second-order), a three-layer neural network and a random
//! forest. This crate implements all of them natively in Rust, together
//! with the preprocessing (scalers, PCA), model selection (k-fold /
//! group-aware cross-validation, grid search) and evaluation machinery
//! (confusion matrices, F1/accuracy and the paper's *lagged* `F1_k` /
//! `Acc_k` variants).
//!
//! # Quick example
//!
//! ```
//! use monitorless_learn::prelude::*;
//!
//! # fn main() -> Result<(), monitorless_learn::Error> {
//! // A toy dataset: one informative feature.
//! let x = Matrix::from_rows(&[
//!     &[0.1, 5.0], &[0.2, 4.0], &[0.3, 6.0], &[0.9, 5.5], &[0.8, 4.5], &[0.95, 5.0],
//! ]);
//! let y = vec![0, 0, 0, 1, 1, 1];
//!
//! let mut forest = RandomForest::new(RandomForestParams {
//!     n_estimators: 10,
//!     ..RandomForestParams::default()
//! });
//! forest.fit(&x, &y, None)?;
//! let proba = forest.predict_proba(&x);
//! assert!(proba[0] < 0.5 && proba[5] > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaboost;
pub mod dataset;
pub mod flat;
pub mod forest;
pub mod gboost;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod model_selection;
pub mod nn;
pub mod pca;
pub mod presort;
pub mod scaler;
pub mod tree;

mod error;

pub use error::Error;

pub use adaboost::{AdaBoost, AdaBoostParams, BoostAlgorithm};
pub use dataset::Dataset;
pub use flat::{top_k_contributions, Finalize, FlatBuilder, FlatEnsemble};
pub use forest::{ClassWeight, RandomForest, RandomForestParams};
pub use gboost::{GradientBoosting, GradientBoostingParams};
pub use linear::{
    LinearSvc, LinearSvcParams, LogisticRegression, LogisticRegressionParams, Penalty,
};
pub use matrix::{Matrix, MatrixBuilder};
pub use metrics::{accuracy, f1_score, lagged_confusion, ConfusionMatrix};
pub use model_selection::{GridSearch, GroupKFold, KFold, ParamGrid, ParamValue};
pub use nn::{Activation, NeuralNet, NeuralNetParams};
pub use pca::Pca;
pub use presort::{FitCache, PresortedDataset};
pub use scaler::{MinMaxScaler, StandardScaler, Transformer};
pub use tree::{DecisionTree, DecisionTreeParams, SplitCriterion, Splitter};

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::adaboost::{AdaBoost, AdaBoostParams, BoostAlgorithm};
    pub use crate::dataset::Dataset;
    pub use crate::flat::{Finalize, FlatBuilder, FlatEnsemble};
    pub use crate::forest::{ClassWeight, RandomForest, RandomForestParams};
    pub use crate::gboost::{GradientBoosting, GradientBoostingParams};
    pub use crate::linear::{
        LinearSvc, LinearSvcParams, LogisticRegression, LogisticRegressionParams, Penalty,
    };
    pub use crate::matrix::{Matrix, MatrixBuilder};
    pub use crate::metrics::{accuracy, f1_score, lagged_confusion, ConfusionMatrix};
    pub use crate::model_selection::{GridSearch, GroupKFold, KFold, ParamGrid, ParamValue};
    pub use crate::nn::{Activation, NeuralNet, NeuralNetParams};
    pub use crate::pca::Pca;
    pub use crate::presort::{FitCache, PresortedDataset};
    pub use crate::scaler::{MinMaxScaler, StandardScaler, Transformer};
    pub use crate::tree::{DecisionTree, DecisionTreeParams, SplitCriterion, Splitter};
    pub use crate::Classifier;
}

/// A trained (or trainable) binary classifier.
///
/// Labels are `0` (negative / not saturated) and `1` (positive /
/// saturated). Probabilities returned by [`Classifier::predict_proba`] are
/// the probability of the positive class.
///
/// The trait is object-safe so heterogeneous collections of classifiers
/// (e.g. the Table 3 comparison harness) can store `Box<dyn Classifier>`.
pub trait Classifier: std::fmt::Debug + Send {
    /// Fit the classifier on feature matrix `x` and labels `y`.
    ///
    /// `sample_weight`, when provided, must have one entry per row of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] for empty inputs,
    /// [`Error::DimensionMismatch`] if `y` (or the weights) do not match the
    /// number of rows in `x`, and [`Error::InvalidLabels`] if `y` contains a
    /// label other than `0`/`1` or only a single class.
    fn fit(&mut self, x: &Matrix, y: &[u8], sample_weight: Option<&[f64]>) -> Result<(), Error>;

    /// Fit using a shared per-dataset [`FitCache`].
    ///
    /// Tree-family classifiers override this to reuse the cache's
    /// presorted view of `x`, so repeated fits on the same matrix
    /// (grid-search candidates on a fold, the Table 3 comparison) pay
    /// the per-feature sort once. The cache is lazy: classifiers that
    /// do not need it never trigger the build. Results are identical to
    /// [`Classifier::fit`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Classifier::fit`].
    fn fit_cached(
        &mut self,
        x: &Matrix,
        cache: &FitCache,
        y: &[u8],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), Error> {
        let _ = cache;
        self.fit(x, y, sample_weight)
    }

    /// Probability of the positive class for each row of `x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the classifier has not been fitted or
    /// if `x` has a different number of columns than the training matrix.
    fn predict_proba(&self, x: &Matrix) -> Vec<f64>;

    /// Hard 0/1 predictions using decision threshold 0.5.
    fn predict(&self, x: &Matrix) -> Vec<u8> {
        self.predict_with_threshold(x, 0.5)
    }

    /// Hard 0/1 predictions using the given decision `threshold`.
    ///
    /// The paper sets the monitorless random-forest threshold to 0.4 to be
    /// conservative about false negatives (Section 4).
    fn predict_with_threshold(&self, x: &Matrix, threshold: f64) -> Vec<u8> {
        self.predict_proba(x)
            .into_iter()
            .map(|p| u8::from(p >= threshold))
            .collect()
    }

    /// Short human-readable name of the algorithm (used in reports).
    fn name(&self) -> &'static str;
}

/// Validates the common `fit` preconditions shared by all classifiers.
pub(crate) fn validate_fit_input(
    x: &Matrix,
    y: &[u8],
    sample_weight: Option<&[f64]>,
) -> Result<(), Error> {
    validate_fit_parts(x.rows(), x.cols(), y, sample_weight)
}

/// Shape-based variant of [`validate_fit_input`] for fit paths that see
/// a presorted view (or a bootstrap sample of one) instead of a
/// [`Matrix`]. Checks run in the same order so both paths return the
/// same error for the same bad input.
pub(crate) fn validate_fit_parts(
    rows: usize,
    cols: usize,
    y: &[u8],
    sample_weight: Option<&[f64]>,
) -> Result<(), Error> {
    if rows == 0 || cols == 0 {
        return Err(Error::EmptyInput);
    }
    if y.len() != rows {
        return Err(Error::DimensionMismatch {
            expected: rows,
            got: y.len(),
        });
    }
    if let Some(w) = sample_weight {
        if w.len() != rows {
            return Err(Error::DimensionMismatch {
                expected: rows,
                got: w.len(),
            });
        }
        if w.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(Error::InvalidParameter(
                "sample weights must be finite and non-negative".into(),
            ));
        }
    }
    if y.iter().any(|&l| l > 1) {
        return Err(Error::InvalidLabels);
    }
    let n_pos = y.iter().filter(|&&l| l == 1).count();
    if n_pos == 0 || n_pos == y.len() {
        return Err(Error::InvalidLabels);
    }
    Ok(())
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn classifier_is_object_safe() {
        fn _takes(_c: &dyn Classifier) {}
    }

    #[test]
    fn validate_rejects_empty() {
        let x = Matrix::zeros(0, 0);
        assert!(matches!(validate_fit_input(&x, &[], None), Err(Error::EmptyInput)));
    }

    #[test]
    fn validate_rejects_mismatched_labels() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            validate_fit_input(&x, &[0, 1], None),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_single_class() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(validate_fit_input(&x, &[1, 1, 1], None), Err(Error::InvalidLabels)));
    }

    #[test]
    fn validate_rejects_bad_weights() {
        let x = Matrix::zeros(2, 1);
        let res = validate_fit_input(&x, &[0, 1], Some(&[1.0, -2.0]));
        assert!(matches!(res, Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn validate_accepts_good_input() {
        let x = Matrix::zeros(2, 1);
        assert!(validate_fit_input(&x, &[0, 1], Some(&[1.0, 2.0])).is_ok());
    }
}

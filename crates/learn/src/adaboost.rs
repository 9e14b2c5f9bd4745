//! AdaBoost over decision trees (Freund & Schapire 1997).
//!
//! Both multi-class variants examined by the paper's grid search
//! (Table 2) are implemented for the binary case: discrete `SAMME` and
//! real-valued `SAMME.R`. The base estimator exposes the grid's
//! `DT_criterion`, `DT_splitter` and `DT_min_samples_split` knobs.

use crate::presort::{FitCache, PresortedDataset};
use crate::tree::{DecisionTree, DecisionTreeParams, MaxFeatures, SplitCriterion, Splitter};
use crate::{validate_fit_input, Classifier, Error, Matrix};

/// The boosting variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoostAlgorithm {
    /// Discrete AdaBoost (stagewise additive, hard votes).
    Samme,
    /// Real AdaBoost using class probabilities (`SAMME.R`).
    #[default]
    SammeR,
}

/// Hyper-parameters for [`AdaBoost`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Boosting variant.
    pub algorithm: BoostAlgorithm,
    /// Split criterion of the base trees (`DT_criterion`).
    pub criterion: SplitCriterion,
    /// Splitter of the base trees (`DT_splitter`).
    pub splitter: Splitter,
    /// `min_samples_split` of the base trees (`DT_min_samples_split`).
    pub min_samples_split: usize,
    /// Depth limit of the base trees (AdaBoost commonly uses shallow trees).
    pub max_depth: Option<usize>,
    /// Learning rate shrinking each stage's contribution.
    pub learning_rate: f64,
    /// RNG seed forwarded to base trees.
    pub seed: u64,
}

impl Default for AdaBoostParams {
    fn default() -> Self {
        AdaBoostParams {
            n_estimators: 50,
            algorithm: BoostAlgorithm::SammeR,
            criterion: SplitCriterion::Gini,
            splitter: Splitter::Best,
            min_samples_split: 5,
            max_depth: Some(3),
            learning_rate: 1.0,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Stage {
    tree: DecisionTree,
    alpha: f64,
}

/// AdaBoost binary classifier.
///
/// ```
/// use monitorless_learn::prelude::*;
///
/// # fn main() -> Result<(), monitorless_learn::Error> {
/// let x = Matrix::from_rows(&[
///     &[0.0], &[0.1], &[0.2], &[0.3], &[0.7], &[0.8], &[0.9], &[1.0],
/// ]);
/// let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
/// let mut ab = AdaBoost::new(AdaBoostParams::default());
/// ab.fit(&x, &y, None)?;
/// assert_eq!(ab.predict(&x), y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoost {
    params: AdaBoostParams,
    stages: Vec<Stage>,
    n_features: usize,
}

impl AdaBoost {
    /// Creates an unfitted ensemble with the given hyper-parameters.
    pub fn new(params: AdaBoostParams) -> Self {
        AdaBoost {
            params,
            stages: Vec::new(),
            n_features: 0,
        }
    }

    /// The hyper-parameters this ensemble was configured with.
    pub fn params(&self) -> &AdaBoostParams {
        &self.params
    }

    /// Whether `fit` has completed successfully.
    pub fn is_fitted(&self) -> bool {
        !self.stages.is_empty()
    }

    /// Number of fitted boosting stages (may be fewer than requested if
    /// boosting terminated early).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    fn base_tree(&self, stage: usize) -> DecisionTree {
        DecisionTree::new(DecisionTreeParams {
            criterion: self.params.criterion,
            splitter: self.params.splitter,
            max_depth: self.params.max_depth,
            min_samples_split: self.params.min_samples_split,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            seed: self.params.seed.wrapping_add(stage as u64),
        })
    }

    fn fit_samme(
        &mut self,
        x: &Matrix,
        ps: &PresortedDataset,
        y: &[u8],
        w: &mut [f64],
    ) -> Result<(), Error> {
        for m in 0..self.params.n_estimators {
            let mut tree = self.base_tree(m);
            tree.fit_presorted(ps, y, Some(w))?;
            let pred = tree.predict(x);
            let total: f64 = w.iter().sum();
            let err: f64 = w
                .iter()
                .zip(pred.iter().zip(y))
                .filter(|(_, (p, t))| p != t)
                .map(|(wi, _)| wi)
                .sum::<f64>()
                / total;
            if err >= 0.5 {
                // Worse than chance: stop boosting (keep earlier stages).
                if self.stages.is_empty() {
                    self.stages.push(Stage { tree, alpha: 1.0 });
                }
                break;
            }
            let err = err.max(1e-10);
            let alpha = self.params.learning_rate * ((1.0 - err) / err).ln();
            for (wi, (p, t)) in w.iter_mut().zip(pred.iter().zip(y)) {
                if p != t {
                    *wi *= alpha.exp();
                }
            }
            let sum: f64 = w.iter().sum();
            for wi in w.iter_mut() {
                *wi /= sum;
            }
            self.stages.push(Stage { tree, alpha });
            if err < 1e-10 {
                break;
            }
        }
        Ok(())
    }

    fn fit_samme_r(
        &mut self,
        x: &Matrix,
        ps: &PresortedDataset,
        y: &[u8],
        w: &mut [f64],
    ) -> Result<(), Error> {
        const CLIP: f64 = 1e-5;
        for m in 0..self.params.n_estimators {
            let mut tree = self.base_tree(m);
            tree.fit_presorted(ps, y, Some(w))?;
            let proba = tree.predict_proba(x);
            // h(x) = 0.5 * lr * log(p1 / p0); weight update uses the signed
            // margin y± * h(x).
            let mut any_error = false;
            for ((wi, &p), &t) in w.iter_mut().zip(&proba).zip(y) {
                let p1 = p.clamp(CLIP, 1.0 - CLIP);
                let h = 0.5 * self.params.learning_rate * (p1 / (1.0 - p1)).ln();
                let y_pm = if t == 1 { 1.0 } else { -1.0 };
                *wi *= (-y_pm * h).exp();
                if (p >= 0.5) != (t == 1) {
                    any_error = true;
                }
            }
            let sum: f64 = w.iter().sum();
            if !(sum.is_finite() && sum > 0.0) {
                return Err(Error::NoConvergence("adaboost sample weights degenerated".into()));
            }
            for wi in w.iter_mut() {
                *wi /= sum;
            }
            self.stages.push(Stage { tree, alpha: 1.0 });
            if !any_error {
                break;
            }
        }
        Ok(())
    }

    /// Compiles the fitted ensemble into a
    /// [`FlatEnsemble`](crate::flat::FlatEnsemble). Leaf values carry
    /// the per-stage contribution already (SAMME: the alpha-weighted
    /// vote; SAMME.R: the shrunk log-odds term), so the flat walk is
    /// load-and-add and predictions are bit-identical to
    /// [`AdaBoost::predict_proba_legacy`].
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is unfitted.
    pub fn to_flat(&self) -> crate::flat::FlatEnsemble {
        assert!(self.is_fitted(), "adaboost must be fitted before flattening");
        const CLIP: f64 = 1e-5;
        match self.params.algorithm {
            BoostAlgorithm::Samme => {
                let norm = self.stages.iter().map(|s| s.alpha).sum::<f64>().max(1e-12);
                let mut builder = crate::flat::FlatBuilder::new(
                    self.n_features,
                    0.0,
                    crate::flat::Finalize::Logit(norm),
                );
                for stage in &self.stages {
                    let alpha = stage.alpha;
                    stage
                        .tree
                        .flatten_into(&mut builder, |p| alpha * if p >= 0.5 { 1.0 } else { -1.0 });
                }
                builder.build()
            }
            BoostAlgorithm::SammeR => {
                let lr = self.params.learning_rate;
                let mut builder = crate::flat::FlatBuilder::new(
                    self.n_features,
                    0.0,
                    crate::flat::Finalize::Logit(1.0),
                );
                for stage in &self.stages {
                    stage.tree.flatten_into(&mut builder, |p| {
                        let p1 = p.clamp(CLIP, 1.0 - CLIP);
                        0.5 * lr * (p1 / (1.0 - p1)).ln()
                    });
                }
                builder.build()
            }
        }
    }

    /// Reference implementation of [`Classifier::predict_proba`]: the
    /// legacy per-stage recursive walk, kept for the flat-equivalence
    /// property suite.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is unfitted.
    pub fn predict_proba_legacy(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "adaboost must be fitted before predicting");
        let norm: f64 = match self.params.algorithm {
            BoostAlgorithm::Samme => self.stages.iter().map(|s| s.alpha).sum::<f64>().max(1e-12),
            BoostAlgorithm::SammeR => 1.0,
        };
        self.decision_function(x)
            .into_iter()
            .map(|s| {
                let z = s / norm;
                // Map the (normalized) margin through a logistic link.
                1.0 / (1.0 + (-2.0 * z).exp())
            })
            .collect()
    }

    // Uses the trees' recursive `predict_row` walk directly so this
    // stays an independent reference path for `predict_proba_legacy`
    // (the trees' own `predict_proba` now routes through `flat`).
    fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        const CLIP: f64 = 1e-5;
        let mut score = vec![0.0; x.rows()];
        match self.params.algorithm {
            BoostAlgorithm::Samme => {
                for stage in &self.stages {
                    for (s, row) in score.iter_mut().zip(x.iter_rows()) {
                        let p = u8::from(stage.tree.predict_row(row) >= 0.5);
                        *s += stage.alpha * if p == 1 { 1.0 } else { -1.0 };
                    }
                }
            }
            BoostAlgorithm::SammeR => {
                for stage in &self.stages {
                    for (s, row) in score.iter_mut().zip(x.iter_rows()) {
                        let p1 = stage.tree.predict_row(row).clamp(CLIP, 1.0 - CLIP);
                        *s += 0.5 * self.params.learning_rate * (p1 / (1.0 - p1)).ln();
                    }
                }
            }
        }
        score
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, x: &Matrix, y: &[u8], sample_weight: Option<&[f64]>) -> Result<(), Error> {
        let cache = FitCache::new();
        self.fit_cached(x, &cache, y, sample_weight)
    }

    fn fit_cached(
        &mut self,
        x: &Matrix,
        cache: &FitCache,
        y: &[u8],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), Error> {
        validate_fit_input(x, y, sample_weight)?;
        if self.params.n_estimators == 0 {
            return Err(Error::InvalidParameter("n_estimators must be at least 1".into()));
        }
        // A NaN or infinite rate fits a SAMME ensemble of NaN
        // probabilities without an error.
        let lr = self.params.learning_rate;
        if !(lr.is_finite() && lr > 0.0) {
            return Err(Error::InvalidParameter(
                "learning_rate must be finite and positive".into(),
            ));
        }
        // Checked before the weights are normalized by their sum.
        if sample_weight.is_some_and(|w| w.iter().sum::<f64>() <= 0.0) {
            return Err(Error::InvalidParameter("sample weights must not all be zero".into()));
        }
        self.stages.clear();
        self.n_features = x.cols();
        let n = x.rows();
        let mut w: Vec<f64> = match sample_weight {
            Some(sw) => {
                let sum: f64 = sw.iter().sum();
                sw.iter().map(|v| v / sum).collect()
            }
            None => vec![1.0 / n as f64; n],
        };
        // One presort serves every boosting round: reweighting changes
        // the samples' importance, never their sort order.
        let ps = cache.presorted(x);
        match self.params.algorithm {
            BoostAlgorithm::Samme => self.fit_samme(x, ps, y, &mut w),
            BoostAlgorithm::SammeR => self.fit_samme_r(x, ps, y, &mut w),
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "adaboost must be fitted before predicting");
        assert_eq!(x.cols(), self.n_features, "feature count must match training data");
        self.to_flat().predict_proba(x, 1)
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes() -> (Matrix, Vec<u8>) {
        // Alternating stripes need several stumps: a real boosting test.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 10.0;
            rows.push(vec![v]);
            y.push(u8::from((i / 10) % 2 == 1));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y)
    }

    #[test]
    fn samme_learns_stripes() {
        let (x, y) = stripes();
        let mut ab = AdaBoost::new(AdaBoostParams {
            algorithm: BoostAlgorithm::Samme,
            max_depth: Some(1),
            n_estimators: 100,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, None).unwrap();
        let acc = crate::metrics::accuracy(&y, &ab.predict(&x));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn samme_r_learns_stripes() {
        let (x, y) = stripes();
        let mut ab = AdaBoost::new(AdaBoostParams {
            algorithm: BoostAlgorithm::SammeR,
            max_depth: Some(1),
            n_estimators: 100,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, None).unwrap();
        let acc = crate::metrics::accuracy(&y, &ab.predict(&x));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn stops_early_on_perfect_fit() {
        let x = Matrix::from_rows(&[
            &[0.0],
            &[1.0],
            &[2.0],
            &[3.0],
            &[10.0],
            &[11.0],
            &[12.0],
            &[13.0],
        ]);
        let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut ab = AdaBoost::new(AdaBoostParams {
            n_estimators: 50,
            min_samples_split: 2,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, None).unwrap();
        assert!(ab.n_stages() < 50);
        assert_eq!(ab.predict(&x), y);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = stripes();
        for algo in [BoostAlgorithm::Samme, BoostAlgorithm::SammeR] {
            let mut ab = AdaBoost::new(AdaBoostParams {
                algorithm: algo,
                n_estimators: 20,
                ..AdaBoostParams::default()
            });
            ab.fit(&x, &y, None).unwrap();
            assert!(ab
                .predict_proba(&x)
                .iter()
                .all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn invalid_learning_rate_rejected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        for learning_rate in [0.0, f64::NAN, f64::INFINITY] {
            for algorithm in [BoostAlgorithm::Samme, BoostAlgorithm::SammeR] {
                let mut ab = AdaBoost::new(AdaBoostParams {
                    learning_rate,
                    algorithm,
                    ..AdaBoostParams::default()
                });
                let r = ab.fit(&x, &[0, 1], None);
                assert!(matches!(r, Err(Error::InvalidParameter(_))), "{learning_rate}: {r:?}");
            }
        }
    }

    #[test]
    fn all_zero_weights_are_rejected() {
        let (x, y) = stripes();
        let zeros = vec![0.0; y.len()];
        match AdaBoost::new(AdaBoostParams::default()).fit(&x, &y, Some(&zeros)) {
            Err(Error::InvalidParameter(msg)) => {
                assert!(msg.contains("must not all be zero"), "{msg}")
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn initial_sample_weights_respected() {
        // Heavily weighting the positive corner changes the prediction there.
        let x = Matrix::from_rows(&[&[0.0], &[0.0], &[1.0], &[1.0]]);
        let y = vec![0, 1, 0, 1];
        let mut ab = AdaBoost::new(AdaBoostParams {
            n_estimators: 5,
            min_samples_split: 2,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, Some(&[0.1, 10.0, 10.0, 0.1])).unwrap();
        let p = ab.predict_proba(&x);
        assert!(p[1] > 0.5 || p[2] < 0.5);
    }
}

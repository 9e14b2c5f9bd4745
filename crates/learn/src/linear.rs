//! Linear models: logistic regression (SAG) and a linear SVC.
//!
//! The paper's grid (Table 2) examines `C`, `tol` and `class_weight` for
//! logistic regression — trained with the stochastic average gradient
//! optimizer (Schmidt et al. 2017), matching scikit-learn's `solver="sag"`
//! — and `C`, `tol`, `penalty` (l1/l2) and `class_weight` for the
//! LIBLINEAR-based SVC, which we train with a Pegasos-style projected
//! subgradient method plus an L1 proximal step when requested.

use monitorless_std::rng::{Rng, StdRng};

use crate::{validate_fit_input, Classifier, Error, Matrix};

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Regularization penalty for [`LinearSvc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Penalty {
    /// Lasso penalty (sparse weights) — the value the grid search chose.
    L1,
    /// Ridge penalty.
    #[default]
    L2,
}

/// Class weights shared by the linear models.
fn class_weights(y: &[u8], balanced: bool) -> (f64, f64) {
    if !balanced {
        return (1.0, 1.0);
    }
    let n = y.len() as f64;
    let n1 = y.iter().filter(|&&t| t == 1).count() as f64;
    let n0 = n - n1;
    (n / (2.0 * n0.max(1.0)), n / (2.0 * n1.max(1.0)))
}

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionParams {
    /// Inverse regularization strength (larger = less regularization).
    pub c: f64,
    /// Convergence tolerance on the maximum weight change per epoch.
    pub tol: f64,
    /// Maximum number of SAG epochs.
    pub max_iter: usize,
    /// Whether to balance class weights.
    pub balanced: bool,
    /// RNG seed for sample ordering.
    pub seed: u64,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams {
            c: 1.0,
            tol: 1e-4,
            max_iter: 100,
            balanced: false,
            seed: 0,
        }
    }
}

/// L2-regularized logistic regression trained with SAG.
///
/// ```
/// use monitorless_learn::prelude::*;
///
/// # fn main() -> Result<(), monitorless_learn::Error> {
/// let x = Matrix::from_rows(&[&[0.0], &[0.1], &[0.9], &[1.0]]);
/// let y = vec![0, 0, 1, 1];
/// let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
/// lr.fit(&x, &y, None)?;
/// assert_eq!(lr.predict(&x), y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    params: LogisticRegressionParams,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LogisticRegression {
    /// Creates an unfitted model with the given hyper-parameters.
    pub fn new(params: LogisticRegressionParams) -> Self {
        LogisticRegression {
            params,
            weights: Vec::new(),
            bias: 0.0,
            fitted: false,
        }
    }

    /// The hyper-parameters this model was configured with.
    pub fn params(&self) -> &LogisticRegressionParams {
        &self.params
    }

    /// Whether `fit` has completed successfully.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Learned coefficients (empty before fitting).
    pub fn coefficients(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.bias
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[u8], sample_weight: Option<&[f64]>) -> Result<(), Error> {
        validate_fit_input(x, y, sample_weight)?;
        if self.params.c <= 0.0 {
            return Err(Error::InvalidParameter("C must be positive".into()));
        }
        let n = x.rows();
        let d = x.cols();
        let (cw0, cw1) = class_weights(y, self.params.balanced);
        let base_w: Vec<f64> = (0..n)
            .map(|i| {
                let sw = sample_weight.map_or(1.0, |w| w[i]);
                sw * if y[i] == 1 { cw1 } else { cw0 }
            })
            .collect();

        // SAG: keep the last residual per sample; the update direction is
        // the running average gradient plus the L2 term.
        let lambda = 1.0 / (self.params.c * n as f64);
        let max_row_sq = x
            .iter_rows()
            .map(|r| r.iter().map(|v| v * v).sum::<f64>())
            .fold(0.0_f64, f64::max);
        // sklearn's SAG step size: 1 / (L) with L = 0.25 * max||x||^2 + lambda.
        let step = 1.0 / (0.25 * (max_row_sq + 1.0) + lambda).max(1e-12);

        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut residual_mem = vec![0.0_f64; n];
        let mut grad_sum = vec![0.0_f64; d];
        let mut grad_sum_bias = 0.0_f64;
        let mut seen = 0usize;
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        for _epoch in 0..self.params.max_iter {
            let mut max_change = 0.0_f64;
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let row = x.row(i);
                let z = self.bias
                    + row
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                let resid = base_w[i] * (sigmoid(z) - y[i] as f64);
                let delta = resid - residual_mem[i];
                if residual_mem[i] == 0.0 && seen < n {
                    seen += 1;
                }
                residual_mem[i] = resid;
                for (g, &xv) in grad_sum.iter_mut().zip(row) {
                    *g += delta * xv;
                }
                grad_sum_bias += delta;
                let m = seen.max(1) as f64;
                for (w, &g) in self.weights.iter_mut().zip(grad_sum.iter()) {
                    let upd = step * (g / m + lambda * *w);
                    *w -= upd;
                    max_change = max_change.max(upd.abs());
                }
                let upd_b = step * (grad_sum_bias / m);
                self.bias -= upd_b;
                max_change = max_change.max(upd_b.abs());
            }
            if max_change < self.params.tol {
                break;
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.fitted, "model must be fitted before predicting");
        x.iter_rows()
            .map(|row| {
                let z = self.bias
                    + row
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                sigmoid(z)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "LogisticRegression"
    }
}

/// Hyper-parameters for [`LinearSvc`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvcParams {
    /// Inverse regularization strength.
    pub c: f64,
    /// Convergence tolerance on the epoch-average weight change.
    pub tol: f64,
    /// Regularization penalty.
    pub penalty: Penalty,
    /// Maximum number of epochs.
    pub max_iter: usize,
    /// Whether to balance class weights.
    pub balanced: bool,
    /// RNG seed for sample ordering.
    pub seed: u64,
}

impl Default for LinearSvcParams {
    fn default() -> Self {
        LinearSvcParams {
            c: 1.0,
            tol: 1e-3,
            penalty: Penalty::L2,
            max_iter: 200,
            balanced: false,
            seed: 0,
        }
    }
}

/// Linear support-vector classifier (hinge loss).
///
/// `predict_proba` maps the signed margin through a logistic link, which
/// is enough for thresholded decisions (the paper does not use calibrated
/// SVC probabilities).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvc {
    params: LinearSvcParams,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LinearSvc {
    /// Creates an unfitted model with the given hyper-parameters.
    pub fn new(params: LinearSvcParams) -> Self {
        LinearSvc {
            params,
            weights: Vec::new(),
            bias: 0.0,
            fitted: false,
        }
    }

    /// The hyper-parameters this model was configured with.
    pub fn params(&self) -> &LinearSvcParams {
        &self.params
    }

    /// Whether `fit` has completed successfully.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Learned coefficients (empty before fitting).
    pub fn coefficients(&self) -> &[f64] {
        &self.weights
    }

    /// Signed margin for each row.
    ///
    /// # Panics
    ///
    /// Panics if the model is unfitted.
    pub fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.fitted, "model must be fitted before predicting");
        x.iter_rows()
            .map(|row| {
                self.bias
                    + row
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
            })
            .collect()
    }
}

impl Classifier for LinearSvc {
    fn fit(&mut self, x: &Matrix, y: &[u8], sample_weight: Option<&[f64]>) -> Result<(), Error> {
        validate_fit_input(x, y, sample_weight)?;
        if self.params.c <= 0.0 {
            return Err(Error::InvalidParameter("C must be positive".into()));
        }
        let n = x.rows();
        let d = x.cols();
        let (cw0, cw1) = class_weights(y, self.params.balanced);
        let lambda = 1.0 / (self.params.c * n as f64);
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut t = 1u64;

        for _epoch in 0..self.params.max_iter {
            let mut change = 0.0_f64;
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let row = x.row(i);
                let y_pm = if y[i] == 1 { 1.0 } else { -1.0 };
                let wi = sample_weight.map_or(1.0, |w| w[i]) * if y[i] == 1 { cw1 } else { cw0 };
                let margin = y_pm
                    * (self.bias
                        + row
                            .iter()
                            .zip(&self.weights)
                            .map(|(a, b)| a * b)
                            .sum::<f64>());
                let eta = 1.0 / (lambda * t as f64);
                t += 1;
                // L2 shrinkage happens implicitly for the L2 penalty;
                // for L1 a proximal soft-threshold is applied instead.
                match self.params.penalty {
                    Penalty::L2 => {
                        for w in &mut self.weights {
                            *w *= 1.0 - (eta * lambda).min(0.5);
                        }
                    }
                    Penalty::L1 => {
                        let shrink = eta * lambda;
                        for w in &mut self.weights {
                            *w = w.signum() * (w.abs() - shrink).max(0.0);
                        }
                    }
                }
                if margin < 1.0 {
                    let scale = (eta * wi).min(1.0);
                    for (w, &xv) in self.weights.iter_mut().zip(row) {
                        *w += scale * y_pm * xv;
                    }
                    self.bias += scale * y_pm;
                    change += scale;
                }
            }
            if change / (n as f64) < self.params.tol {
                break;
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.decision_function(x).into_iter().map(sigmoid).collect()
    }

    fn name(&self) -> &'static str {
        "LinearSVC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..n {
            rows.push(vec![rng.gen::<f64>() * 0.4, rng.gen::<f64>() * 0.4]);
            y.push(0);
            rows.push(vec![0.6 + rng.gen::<f64>() * 0.4, 0.6 + rng.gen::<f64>() * 0.4]);
            y.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y)
    }

    #[test]
    fn logreg_learns_separable() {
        let (x, y) = separable(30);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y, None).unwrap();
        let acc = crate::metrics::accuracy(&y, &lr.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn logreg_probabilities_monotone_in_margin() {
        let (x, y) = separable(20);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y, None).unwrap();
        let far_neg = Matrix::from_rows(&[&[0.0, 0.0]]);
        let far_pos = Matrix::from_rows(&[&[1.0, 1.0]]);
        assert!(lr.predict_proba(&far_neg)[0] < lr.predict_proba(&far_pos)[0]);
    }

    #[test]
    fn logreg_strong_regularization_shrinks_weights() {
        let (x, y) = separable(20);
        let mut weak = LogisticRegression::new(LogisticRegressionParams {
            c: 100.0,
            ..LogisticRegressionParams::default()
        });
        let mut strong = LogisticRegression::new(LogisticRegressionParams {
            c: 0.001,
            ..LogisticRegressionParams::default()
        });
        weak.fit(&x, &y, None).unwrap();
        strong.fit(&x, &y, None).unwrap();
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(strong.coefficients()) < norm(weak.coefficients()));
    }

    #[test]
    fn logreg_balanced_shifts_imbalanced_probability() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            rows.push(vec![0.5]);
            y.push(u8::from(i < 5));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut plain = LogisticRegression::new(LogisticRegressionParams::default());
        let mut bal = LogisticRegression::new(LogisticRegressionParams {
            balanced: true,
            ..LogisticRegressionParams::default()
        });
        plain.fit(&x, &y, None).unwrap();
        bal.fit(&x, &y, None).unwrap();
        assert!(bal.predict_proba(&x)[0] > plain.predict_proba(&x)[0]);
    }

    #[test]
    fn logreg_rejects_nonpositive_c() {
        let mut lr = LogisticRegression::new(LogisticRegressionParams {
            c: 0.0,
            ..LogisticRegressionParams::default()
        });
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        assert!(lr.fit(&x, &[0, 1], None).is_err());
    }

    #[test]
    fn svc_learns_separable() {
        let (x, y) = separable(30);
        let mut svc = LinearSvc::new(LinearSvcParams::default());
        svc.fit(&x, &y, None).unwrap();
        let acc = crate::metrics::accuracy(&y, &svc.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn svc_l1_produces_sparser_weights() {
        // Add noise features; the L1 penalty should zero more of them.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..60 {
            let informative = if i % 2 == 0 { 0.0 } else { 1.0 };
            let mut row = vec![informative];
            for _ in 0..8 {
                row.push(rng.gen::<f64>() * 0.01);
            }
            rows.push(row);
            y.push(u8::from(i % 2 == 1));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut l1 = LinearSvc::new(LinearSvcParams {
            penalty: Penalty::L1,
            c: 0.05,
            ..LinearSvcParams::default()
        });
        l1.fit(&x, &y, None).unwrap();
        // The proximal step drives noise weights to (numerically) zero while
        // the informative weight stays large.
        let near_zero = l1.coefficients()[1..]
            .iter()
            .filter(|w| w.abs() < 1e-3)
            .count();
        assert!(
            near_zero >= 6 && l1.coefficients()[0].abs() > 0.1,
            "expected sparse weights, got {:?}",
            l1.coefficients()
        );
    }

    #[test]
    fn svc_decision_function_sign_matches_predictions() {
        let (x, y) = separable(15);
        let mut svc = LinearSvc::new(LinearSvcParams::default());
        svc.fit(&x, &y, None).unwrap();
        for (df, p) in svc.decision_function(&x).iter().zip(svc.predict(&x)) {
            assert_eq!(p == 1, *df >= 0.0);
        }
    }

    #[test]
    fn svc_rejects_nonpositive_c() {
        let mut svc = LinearSvc::new(LinearSvcParams {
            c: -1.0,
            ..LinearSvcParams::default()
        });
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        assert!(svc.fit(&x, &[0, 1], None).is_err());
    }
}

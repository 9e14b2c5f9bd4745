//! Second-order gradient boosting (XGBoost-style) with logistic loss.
//!
//! Reproduces the `XGBoost` entry of the paper's comparison (Tables 2/3):
//! exact greedy split finding on first/second-order gradients, with the
//! grid's `min_child_weight`, `max_depth` and `gamma` regularizers plus an
//! L2 leaf penalty `lambda` and shrinkage.

use crate::presort::{FitCache, PresortTraversal};
use crate::tree::split_threshold;
use crate::{validate_fit_input, Classifier, Error, Matrix};

/// Hyper-parameters for [`GradientBoosting`].
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostingParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Minimum sum of hessians required in each child (`min_child_weight`).
    pub min_child_weight: f64,
    /// Minimum loss reduction required to make a split (`gamma`).
    pub gamma: f64,
    /// L2 regularization on leaf weights (`lambda`).
    pub lambda: f64,
    /// Shrinkage applied to each tree's output (`eta`).
    pub learning_rate: f64,
}

impl Default for GradientBoostingParams {
    fn default() -> Self {
        GradientBoostingParams {
            n_rounds: 50,
            max_depth: 4,
            min_child_weight: 1.0,
            gamma: 0.0,
            lambda: 1.0,
            learning_rate: 0.3,
        }
    }
}

impl GradientBoostingParams {
    /// The configuration the paper's grid search selected (Table 2):
    /// `min_child_weight = 1`, `max_depth = 64`, `gamma = 0`.
    ///
    /// Depth 64 is effectively unbounded for moderate datasets; rounds and
    /// shrinkage follow the XGBoost defaults the paper used.
    pub fn paper_selected() -> Self {
        GradientBoostingParams {
            min_child_weight: 1.0,
            max_depth: 64,
            gamma: 0.0,
            ..GradientBoostingParams::default()
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum RegNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct RegTree {
    nodes: Vec<RegNode>,
}

impl RegTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                RegNode::Leaf { value } => return *value,
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    }
                }
            }
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Gradient-boosted trees for binary classification.
///
/// ```
/// use monitorless_learn::prelude::*;
///
/// # fn main() -> Result<(), monitorless_learn::Error> {
/// let x = Matrix::from_rows(&[
///     &[0.0], &[0.1], &[0.2], &[0.3], &[0.7], &[0.8], &[0.9], &[1.0],
/// ]);
/// let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
/// let mut gb = GradientBoosting::new(GradientBoostingParams::default());
/// gb.fit(&x, &y, None)?;
/// assert_eq!(gb.predict(&x), y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    params: GradientBoostingParams,
    trees: Vec<RegTree>,
    base_score: f64,
    n_features: usize,
}

impl GradientBoosting {
    /// Creates an unfitted booster with the given hyper-parameters.
    pub fn new(params: GradientBoostingParams) -> Self {
        GradientBoosting {
            params,
            trees: Vec::new(),
            base_score: 0.0,
            n_features: 0,
        }
    }

    /// The hyper-parameters this booster was configured with.
    pub fn params(&self) -> &GradientBoostingParams {
        &self.params
    }

    /// Whether `fit` has completed successfully.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Number of fitted boosting rounds.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Raw log-odds decision function.
    fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        let mut score = vec![self.base_score; x.rows()];
        for tree in &self.trees {
            for (s, row) in score.iter_mut().zip(x.iter_rows()) {
                *s += self.params.learning_rate * tree.predict_row(row);
            }
        }
        score
    }

    /// Compiles the fitted booster into a
    /// [`FlatEnsemble`](crate::flat::FlatEnsemble). Leaf values arrive
    /// pre-shrunk (`learning_rate * value`) and the accumulator starts
    /// at `base_score`, so predictions are bit-identical to
    /// [`GradientBoosting::predict_proba_legacy`].
    ///
    /// # Panics
    ///
    /// Panics if the booster is unfitted.
    pub fn to_flat(&self) -> crate::flat::FlatEnsemble {
        assert!(self.is_fitted(), "booster must be fitted before flattening");
        let lr = self.params.learning_rate;
        let mut builder = crate::flat::FlatBuilder::new(
            self.n_features,
            self.base_score,
            crate::flat::Finalize::Sigmoid,
        );
        for tree in &self.trees {
            builder.begin_tree();
            for node in &tree.nodes {
                match node {
                    RegNode::Leaf { value } => builder.push_leaf(lr * value),
                    RegNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        builder.push_split(*feature as u32, *threshold, *left as u32, *right as u32)
                    }
                }
            }
        }
        builder.build()
    }

    /// Reference implementation of [`Classifier::predict_proba`]: the
    /// legacy per-tree recursive walk, kept for the flat-equivalence
    /// property suite.
    ///
    /// # Panics
    ///
    /// Panics if the booster is unfitted.
    pub fn predict_proba_legacy(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "booster must be fitted before predicting");
        self.decision_function(x).into_iter().map(sigmoid).collect()
    }

    // `!(next > cur)` is deliberate: unlike `next <= cur` it also
    // rejects NaN boundaries (see the comment at the comparison site).
    #[allow(clippy::too_many_arguments, clippy::neg_cmp_op_on_partial_ord)]
    fn build_tree(
        &self,
        trav: &mut PresortTraversal<'_>,
        grad: &[f64],
        hess: &[f64],
        lo: usize,
        hi: usize,
        depth: usize,
        nodes: &mut Vec<RegNode>,
        sorted: &mut Vec<(f64, f64, f64)>,
    ) -> usize {
        let g: f64 = trav
            .rows_segment(lo, hi)
            .iter()
            .map(|&i| grad[i as usize])
            .sum();
        let h: f64 = trav
            .rows_segment(lo, hi)
            .iter()
            .map(|&i| hess[i as usize])
            .sum();
        let leaf_value = -g / (h + self.params.lambda);

        if depth >= self.params.max_depth || hi - lo < 2 {
            nodes.push(RegNode::Leaf { value: leaf_value });
            return nodes.len() - 1;
        }

        // Exact greedy split search over all features, sweeping the
        // presorted per-feature segments (no per-node sort).
        let parent_score = g * g / (h + self.params.lambda);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for feature in 0..self.n_features {
            if trav.dataset().is_constant(feature) {
                continue;
            }
            // gboost never resamples rows, so virtual row == matrix row.
            sorted.resize(hi - lo, (0.0, 0.0, 0.0));
            let emitted = trav.gather_node(feature, lo, hi, |slot, v, value| {
                let vi = v as usize;
                sorted[slot] = (value, grad[vi], hess[vi]);
            });
            if !emitted {
                // Node-constant non-NaN feature: no boundary satisfies
                // `next > cur`, so the sweep below could never yield a
                // candidate anyway.
                continue;
            }
            if sorted[0].0 == sorted[sorted.len() - 1].0 {
                continue;
            }
            let (mut gl, mut hl) = (0.0, 0.0);
            for i in 0..sorted.len() - 1 {
                gl += sorted[i].1;
                hl += sorted[i].2;
                let next = sorted[i + 1].0;
                let cur = sorted[i].0;
                // `!(next > cur)` also rejects a NaN boundary (sorted
                // last under `total_cmp`): a NaN midpoint threshold
                // would send every row right and never make progress.
                if !(next > cur) {
                    continue;
                }
                let gr = g - gl;
                let hr = h - hl;
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                // Zero-gain ties are accepted when gamma = 0 so symmetric
                // problems (XOR) can still make progress, as in tree.rs.
                let gain = 0.5
                    * (gl * gl / (hl + self.params.lambda) + gr * gr / (hr + self.params.lambda)
                        - parent_score)
                    - self.params.gamma;
                if gain >= 0.0 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((feature, split_threshold(cur, next), gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            nodes.push(RegNode::Leaf { value: leaf_value });
            return nodes.len() - 1;
        };
        let n_left = trav.partition(lo, hi, feature, threshold);
        let pos = nodes.len();
        nodes.push(RegNode::Split {
            feature,
            threshold,
            left: 0,
            right: 0,
        });
        let l = self.build_tree(trav, grad, hess, lo, lo + n_left, depth + 1, nodes, sorted);
        let r = self.build_tree(trav, grad, hess, lo + n_left, hi, depth + 1, nodes, sorted);
        if let RegNode::Split { left, right, .. } = &mut nodes[pos] {
            *left = l;
            *right = r;
        }
        pos
    }
}

impl Classifier for GradientBoosting {
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
        let p = &self.params;
        if p.n_rounds == 0 {
            return Err(Error::InvalidParameter("n_rounds must be at least 1".into()));
        }
        // Unchecked, a NaN parameter or all-zero weights fit without an
        // error into a booster of NaN probabilities or of stumps.
        if !(p.learning_rate.is_finite() && p.learning_rate > 0.0) {
            return Err(Error::InvalidParameter(
                "learning_rate must be finite and positive".into(),
            ));
        }
        for (name, v) in [
            ("lambda", p.lambda),
            ("gamma", p.gamma),
            ("min_child_weight", p.min_child_weight),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(Error::InvalidParameter(format!(
                    "{name} must be finite and non-negative"
                )));
            }
        }
        if sample_weight.is_some_and(|w| w.iter().sum::<f64>() <= 0.0) {
            return Err(Error::InvalidParameter("sample weights must not all be zero".into()));
        }
        self.trees.clear();
        self.n_features = x.cols();
        let n = x.rows();
        let w: Vec<f64> = match sample_weight {
            Some(sw) => sw.to_vec(),
            None => vec![1.0; n],
        };
        let pos_w: f64 = y
            .iter()
            .zip(&w)
            .filter(|(&t, _)| t == 1)
            .map(|(_, &wi)| wi)
            .sum();
        let tot_w: f64 = w.iter().sum();
        let p0 = (pos_w / tot_w).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (p0 / (1.0 - p0)).ln();

        let fit_span = monitorless_obs::Span::enter("gboost.fit");
        // One presort serves every boosting round: gradients change, the
        // per-feature sort order does not.
        let ps = cache.presorted(x);
        let mut trav = PresortTraversal::identity(ps);
        let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(n);
        let mut score = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for round in 0..self.params.n_rounds {
            let _round_span = monitorless_obs::Span::enter("gboost.tree_fit");
            for i in 0..n {
                let p = sigmoid(score[i]);
                grad[i] = w[i] * (p - y[i] as f64);
                hess[i] = w[i] * (p * (1.0 - p)).max(1e-12);
            }
            let mut nodes = Vec::new();
            if round > 0 {
                trav.reset_identity();
            }
            self.build_tree(&mut trav, &grad, &hess, 0, n, 0, &mut nodes, &mut sorted);
            let tree = RegTree { nodes };
            for (s, row) in score.iter_mut().zip(x.iter_rows()) {
                *s += self.params.learning_rate * tree.predict_row(row);
            }
            self.trees.push(tree);
        }
        drop(fit_span);
        monitorless_obs::counter_add("gboost.fits", 1);
        monitorless_obs::counter_add("gboost.trees_trained", self.params.n_rounds as u64);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "booster must be fitted before predicting");
        assert_eq!(x.cols(), self.n_features, "feature count must match training data");
        self.to_flat().predict_proba(x, 1)
    }

    fn name(&self) -> &'static str {
        "XGBoost-style GradientBoosting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for k in 0..4 {
                rows.push(vec![a + 0.02 * k as f64, b + 0.02 * k as f64]);
                y.push(u8::from((a > 0.5) != (b > 0.5)));
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut gb = GradientBoosting::new(GradientBoostingParams::default());
        gb.fit(&x, &y, None).unwrap();
        assert_eq!(gb.predict(&x), y);
    }

    #[test]
    fn adjacent_doubles_are_learned() {
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        // Four rows a side clear the default `min_child_weight` of 1.
        let x = Matrix::from_rows(&[&[a], &[a], &[a], &[a], &[b], &[b], &[b], &[b]]);
        let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut gb = GradientBoosting::new(GradientBoostingParams::default());
        gb.fit(&x, &y, None).unwrap();
        assert_eq!(gb.predict(&x), y);
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let (x, y) = xor_data();
        let loss = |gb: &GradientBoosting| -> f64 {
            gb.predict_proba(&x)
                .iter()
                .zip(&y)
                .map(|(&p, &t)| {
                    let p = p.clamp(1e-9, 1.0 - 1e-9);
                    if t == 1 {
                        -p.ln()
                    } else {
                        -(1.0 - p).ln()
                    }
                })
                .sum()
        };
        let mut short = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 2,
            ..GradientBoostingParams::default()
        });
        let mut long = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 40,
            ..GradientBoostingParams::default()
        });
        short.fit(&x, &y, None).unwrap();
        long.fit(&x, &y, None).unwrap();
        assert!(loss(&long) < loss(&short));
    }

    #[test]
    fn min_child_weight_limits_growth() {
        let (x, y) = xor_data();
        let mut strict = GradientBoosting::new(GradientBoostingParams {
            min_child_weight: 1e6,
            n_rounds: 3,
            ..GradientBoostingParams::default()
        });
        strict.fit(&x, &y, None).unwrap();
        // No split can satisfy the hessian floor, so every tree is a leaf
        // and predictions stay at the base rate.
        let p = strict.predict_proba(&x);
        assert!(p.iter().all(|&v| (v - p[0]).abs() < 1e-9));
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let (x, y) = xor_data();
        let mut pruned = GradientBoosting::new(GradientBoostingParams {
            gamma: 1e9,
            n_rounds: 3,
            ..GradientBoostingParams::default()
        });
        pruned.fit(&x, &y, None).unwrap();
        let p = pruned.predict_proba(&x);
        assert!(p.iter().all(|&v| (v - p[0]).abs() < 1e-9));
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = xor_data();
        let mut gb = GradientBoosting::new(GradientBoostingParams::default());
        gb.fit(&x, &y, None).unwrap();
        assert!(gb
            .predict_proba(&x)
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn sample_weights_shift_base_score() {
        let x = Matrix::from_rows(&[&[0.0], &[0.0], &[0.0], &[0.0]]);
        let y = vec![0, 0, 0, 1];
        let mut gb = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 1,
            ..GradientBoostingParams::default()
        });
        gb.fit(&x, &y, Some(&[1.0, 1.0, 1.0, 3.0])).unwrap();
        let p = gb.predict_proba(&x)[0];
        assert!((p - 0.5).abs() < 0.05, "p = {p}");
    }

    #[test]
    fn invalid_params_rejected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let mut gb = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 0,
            ..GradientBoostingParams::default()
        });
        assert!(gb.fit(&x, &[0, 1], None).is_err());
        let mut gb = GradientBoosting::new(GradientBoostingParams {
            learning_rate: -1.0,
            ..GradientBoostingParams::default()
        });
        assert!(gb.fit(&x, &[0, 1], None).is_err());
    }

    /// Fits `params` on the XOR data with weights `w` and asserts an
    /// [`Error::InvalidParameter`] whose message contains `what`.
    fn assert_invalid(params: GradientBoostingParams, w: Option<&[f64]>, what: &str) {
        let (x, y) = xor_data();
        match GradientBoosting::new(params).fit(&x, &y, w) {
            Err(Error::InvalidParameter(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
            other => panic!("{what}: got {other:?}"),
        }
    }

    #[test]
    fn all_zero_weights_are_rejected() {
        let zeros = vec![0.0; xor_data().1.len()];
        assert_invalid(GradientBoostingParams::default(), Some(&zeros), "must not all be zero");
    }

    #[test]
    fn non_finite_learning_rate_is_rejected() {
        for learning_rate in [f64::NAN, f64::INFINITY] {
            let params = GradientBoostingParams {
                learning_rate,
                ..GradientBoostingParams::default()
            };
            assert_invalid(params, None, "learning_rate must be finite and positive");
        }
    }

    #[test]
    fn non_finite_or_negative_regularizers_are_rejected() {
        type Field = fn(&mut GradientBoostingParams) -> &mut f64;
        let fields: [(&str, Field); 3] = [
            ("lambda", |p| &mut p.lambda),
            ("gamma", |p| &mut p.gamma),
            ("min_child_weight", |p| &mut p.min_child_weight),
        ];
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            for (name, field) in fields {
                let mut params = GradientBoostingParams::default();
                *field(&mut params) = bad;
                assert_invalid(params, None, &format!("{name} must be finite and non-negative"));
            }
        }
    }
}

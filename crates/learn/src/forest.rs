//! Random-forest classifier (Breiman 2001).
//!
//! This is the algorithm the paper ultimately selects for *monitorless*
//! (Table 3: F1₂ = 0.997): 250 trees, `min_samples_leaf` around 20,
//! information-gain splitting and no class weighting, with the decision
//! threshold later lowered to 0.4 to favour recall (Section 4).
//!
//! Every tree fits on the shared presorted cache
//! ([`RandomForest::fit_presorted`]), and no bootstrap matrix is ever
//! materialized. With no class weighting and unit sample weights —
//! every forest the model, the feature pipeline's filters and the
//! shadow retrainer fit — a tree grows on its distinct drawn rows, each
//! carrying its draw count (about 63% of the draws); a node's size, its
//! leaf floors and its class counts are drawn counts, so each tree is
//! bit-identical to one grown on its materialized bootstrap. A
//! class-weighted or sample-weighted fit keeps a virtual row per draw.
//! The cache sorts a feature the first time any tree's split search
//! samples it, on whichever worker gets there first, and every other
//! tree reuses that sort; features no tree samples are never sorted,
//! which is most of them when a small forest filters thousands of
//! columns (the feature pipeline's per-configuration filters). With
//! unit weights an information-gain forest takes the tree builder's
//! entropy filter: each candidate threshold is scored from a `k·log2 k`
//! table, built once per forest fit and shared by its trees, and only
//! the few that can still win pay for the exact entropy, with
//! bit-identical trees. That fit is most of a shadow retrain's
//! challenger fit.

use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

use crate::presort::{FitCache, PresortTraversal, PresortedDataset};
use crate::tree::{DecisionTree, DecisionTreeParams, MaxFeatures, SplitCriterion, Splitter};
use crate::{validate_fit_input, Classifier, Error, Matrix};

/// Class weighting schemes from the Table 2 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClassWeight {
    /// No reweighting (the value the grid search selected).
    #[default]
    None,
    /// Weights inversely proportional to class frequencies in the full
    /// training set.
    Balanced,
    /// Like `Balanced`, but computed per bootstrap sample.
    BalancedSubsample,
}

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_estimators: usize,
    /// Split criterion for every tree.
    pub criterion: SplitCriterion,
    /// Maximum depth per tree (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (defaults to `sqrt`).
    pub max_features: MaxFeatures,
    /// Whether to draw bootstrap samples.
    pub bootstrap: bool,
    /// Class weighting scheme.
    pub class_weight: ClassWeight,
    /// Number of worker threads for training (1 = sequential).
    pub n_jobs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_estimators: 100,
            criterion: SplitCriterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            class_weight: ClassWeight::None,
            n_jobs: 1,
            seed: 0,
        }
    }
}

impl RandomForestParams {
    /// Checks what every fit needs of the parameters: at least one
    /// tree, and the split floors every tree fit needs.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the first parameter out of
    /// range.
    pub(crate) fn check(&self) -> Result<(), Error> {
        if self.n_estimators == 0 {
            return Err(Error::InvalidParameter("n_estimators must be at least 1".into()));
        }
        crate::tree::check_split_floors(self.min_samples_split, self.min_samples_leaf)
    }

    /// The configuration the paper's grid search selected (Section 3.4):
    /// 250 trees, 20 samples per leaf, information gain, no class weights.
    pub fn paper_selected() -> Self {
        RandomForestParams {
            n_estimators: 250,
            criterion: SplitCriterion::Entropy,
            min_samples_leaf: 20,
            min_samples_split: 2,
            class_weight: ClassWeight::None,
            ..RandomForestParams::default()
        }
    }
}

/// Random-forest binary classifier with impurity feature importances.
///
/// ```
/// use monitorless_learn::prelude::*;
///
/// # fn main() -> Result<(), monitorless_learn::Error> {
/// let x = Matrix::from_rows(&[
///     &[0.0, 1.0], &[0.1, 0.9], &[0.2, 1.1], &[0.9, 1.0], &[1.0, 0.9], &[1.1, 1.1],
/// ]);
/// let y = vec![0, 0, 0, 1, 1, 1];
/// let mut rf = RandomForest::new(RandomForestParams {
///     n_estimators: 25,
///     ..RandomForestParams::default()
/// });
/// rf.fit(&x, &y, None)?;
/// assert_eq!(rf.predict(&x), y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    params: RandomForestParams,
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Creates an unfitted forest with the given hyper-parameters.
    pub fn new(params: RandomForestParams) -> Self {
        RandomForest {
            params,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// The hyper-parameters this forest was configured with.
    pub fn params(&self) -> &RandomForestParams {
        &self.params
    }

    /// Whether `fit` has completed successfully.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// The fitted trees (empty before fitting).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean impurity-decrease feature importances across trees,
    /// normalized to sum to 1.
    ///
    /// Used to reproduce the Table 4 top-30 feature ranking and the
    /// Section 3.3.4 filtering step (union of per-dataset top-30 lists).
    ///
    /// # Panics
    ///
    /// Panics if the forest is unfitted.
    pub fn feature_importances(&self) -> Vec<f64> {
        assert!(self.is_fitted(), "forest must be fitted");
        let mut acc = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (a, &i) in acc.iter_mut().zip(tree.feature_importances()) {
                *a += i;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Indices of the `k` most important features, descending by
    /// importance (ties broken by index).
    ///
    /// # Panics
    ///
    /// Panics if the forest is unfitted.
    pub fn top_features(&self, k: usize) -> Vec<usize> {
        let imp = self.feature_importances();
        let mut idx: Vec<usize> = (0..imp.len()).collect();
        idx.sort_by(|&a, &b| imp[b].total_cmp(&imp[a]).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }

    /// Compiles the fitted forest into a
    /// [`FlatEnsemble`](crate::flat::FlatEnsemble): all trees' nodes in
    /// one SoA table, finalized by the mean over trees. Predictions are
    /// bit-identical to [`RandomForest::predict_proba_legacy`].
    ///
    /// Long-lived callers (the monitorless model) compile once and
    /// reuse; [`Classifier::predict_proba`] compiles per call.
    ///
    /// # Panics
    ///
    /// Panics if the forest is unfitted.
    pub fn to_flat(&self) -> crate::flat::FlatEnsemble {
        assert!(self.is_fitted(), "forest must be fitted before flattening");
        let mut builder = crate::flat::FlatBuilder::new(
            self.n_features,
            0.0,
            crate::flat::Finalize::Mean(self.trees.len() as f64),
        );
        for tree in &self.trees {
            tree.flatten_into(&mut builder, |p| p);
        }
        builder.build()
    }

    /// Reference implementation of [`Classifier::predict_proba`]: the
    /// legacy recursive per-row walk, kept for the flat-equivalence
    /// property suite and the `table7_predict` bench baseline.
    ///
    /// # Panics
    ///
    /// Panics if the forest is unfitted or `x` has a different column
    /// count than the training matrix.
    pub fn predict_proba_legacy(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "forest must be fitted before predicting");
        assert_eq!(x.cols(), self.n_features, "feature count must match training data");
        // Walk the trees block-by-block so every tree's nodes stay hot
        // in cache while a block of rows streams through. Per row, trees
        // still accumulate in tree order — results are bit-identical to
        // the per-tree sweep.
        const BLOCK: usize = 256;
        let mut acc = vec![0.0; x.rows()];
        let mut start = 0;
        while start < x.rows() {
            let end = (start + BLOCK).min(x.rows());
            for tree in &self.trees {
                for (off, a) in acc[start..end].iter_mut().enumerate() {
                    *a += tree.predict_row(x.row(start + off));
                }
            }
            start = end;
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    fn class_weights_for(y: &[u8], indices: &[usize]) -> (f64, f64) {
        let n = indices.len() as f64;
        let n1 = indices.iter().filter(|&&i| y[i] == 1).count() as f64;
        let n0 = n - n1;
        // sklearn "balanced": n_samples / (n_classes * bincount).
        let w0 = if n0 > 0.0 { n / (2.0 * n0) } else { 0.0 };
        let w1 = if n1 > 0.0 { n / (2.0 * n1) } else { 0.0 };
        (w0, w1)
    }

    /// Grows tree `tree_idx`; `sample_weight` is `None` for unit
    /// weights.
    fn train_one(
        &self,
        ps: &PresortedDataset,
        y: &[u8],
        sample_weight: Option<&[f64]>,
        global_cw: (f64, f64),
        klogk: Option<&[f64]>,
        tree_idx: usize,
    ) -> DecisionTree {
        let _tree_span = obs::Span::enter("forest.tree_fit");
        let mut rng = StdRng::seed_from_u64(
            self.params
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(tree_idx as u64),
        );
        let n = ps.n_rows();
        // Instead of materializing the bootstrap matrix, derive its
        // sorted order from the shared presorted cache. An unweighted
        // draw keeps each drawn row once with its draw count; any
        // other keeps a virtual row per draw, each with its own label
        // and weight.
        let counted = self.params.bootstrap
            && sample_weight.is_none()
            && self.params.class_weight == ClassWeight::None;
        let (mut trav, labels) = if counted {
            let mut draws = vec![0u32; n];
            for _ in 0..n {
                draws[rng.gen_range(0..n)] += 1;
            }
            (PresortTraversal::counted(ps, draws), None)
        } else {
            let indices: Vec<usize> = if self.params.bootstrap {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            let cw = match self.params.class_weight {
                ClassWeight::None => (1.0, 1.0),
                ClassWeight::Balanced => global_cw,
                ClassWeight::BalancedSubsample => Self::class_weights_for(y, &indices),
            };
            let yb: Vec<u8> = indices.iter().map(|&i| y[i]).collect();
            let wb: Vec<f64> = indices
                .iter()
                .map(|&i| sample_weight.map_or(1.0, |w| w[i]) * if y[i] == 1 { cw.1 } else { cw.0 })
                .collect();
            let trav = if self.params.bootstrap {
                PresortTraversal::with_map(ps, indices.iter().map(|&i| i as u32).collect())
            } else {
                PresortTraversal::identity(ps)
            };
            (trav, Some((yb, wb)))
        };
        let (yb, wb) = match &labels {
            Some((yb, wb)) => (yb.as_slice(), Some(wb.as_slice())),
            None => (y, None),
        };

        let mut tree = DecisionTree::new(DecisionTreeParams {
            criterion: self.params.criterion,
            splitter: Splitter::Best,
            max_depth: self.params.max_depth,
            min_samples_split: self.params.min_samples_split,
            min_samples_leaf: self.params.min_samples_leaf,
            max_features: self.params.max_features,
            seed: rng.gen(),
        });
        // A bootstrap sample may contain a single class; fall back to a
        // stump trained on the full data in that unlikely case, under
        // the forest's own criterion, leaf and split floors and feature
        // subsampling. `fit_presorted` checked what else could fail.
        if tree.fit_traversal(&mut trav, yb, wb, klogk).is_err() {
            let mut fallback = DecisionTree::new(DecisionTreeParams {
                max_depth: Some(1),
                ..tree.params().clone()
            });
            fallback
                .fit_presorted(ps, y, sample_weight)
                .expect("full training data was validated in fit");
            return fallback;
        }
        tree
    }

    /// Fits on an already presorted view of the training matrix — the
    /// entry point shared classifiers use via [`Classifier::fit_cached`].
    pub fn fit_presorted(
        &mut self,
        ps: &PresortedDataset,
        y: &[u8],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), Error> {
        crate::validate_fit_parts(ps.n_rows(), ps.n_features(), y, sample_weight)?;
        self.params.check()?;
        // All-one weights fit exactly as no weights do, so they take the
        // counted bootstrap too.
        let sample_weight = sample_weight.filter(|w| w.iter().any(|&v| v != 1.0));
        // With these checked, only a one-class bootstrap draw can fail a
        // tree's fit, and its full-data fallback stump cannot.
        if sample_weight.is_some_and(|w| w.iter().sum::<f64>() <= 0.0) {
            return Err(Error::InvalidParameter("sample weights must not all be zero".into()));
        }
        self.n_features = ps.n_features();
        let all: Vec<usize> = (0..ps.n_rows()).collect();
        let global_cw = Self::class_weights_for(y, &all);

        let n_jobs = self.params.n_jobs.max(1);
        let n_trees = self.params.n_estimators;
        let fit_span = obs::Span::enter("forest.fit");
        // Every tree's sample draws `n_rows` rows, so one entropy-filter
        // table serves them all.
        let klogk = (self.params.criterion == SplitCriterion::Entropy)
            .then(|| crate::tree::klogk_table(ps.n_rows()));
        let klogk = klogk.as_deref();
        obs::gauge_set("forest.workers", n_jobs as f64);
        let mut trees: Vec<Option<DecisionTree>> = vec![None; n_trees];
        let this = &*self;
        let workers =
            obs::WorkerTelemetry::new(n_jobs, "forest.worker_busy_us", "forest.worker_utilization");
        // Chunk `i` starts at tree `i * chunk_size` (the pool's
        // documented partitioning); one worker fits every tree inline.
        let chunk_size = n_trees.div_ceil(n_jobs);
        monitorless_std::pool::for_each_chunk_mut(&mut trees, n_jobs, |chunk_id, chunk| {
            workers.time(|| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let t = chunk_id * chunk_size + off;
                    *slot = Some(this.train_one(ps, y, sample_weight, global_cw, klogk, t));
                }
            });
        });
        workers.finish(&fit_span);
        self.trees = trees
            .into_iter()
            .map(|t| t.expect("all tree slots are filled by workers"))
            .collect();
        drop(fit_span);
        obs::counter_add("forest.fits", 1);
        obs::counter_add("forest.trees_trained", n_trees as u64);
        Ok(())
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8], sample_weight: Option<&[f64]>) -> Result<(), Error> {
        validate_fit_input(x, y, sample_weight)?;
        let ps = PresortedDataset::build(x);
        self.fit_presorted(&ps, y, sample_weight)
    }

    fn fit_cached(
        &mut self,
        x: &Matrix,
        cache: &FitCache,
        y: &[u8],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), Error> {
        validate_fit_input(x, y, sample_weight)?;
        self.fit_presorted(cache.presorted(x), y, sample_weight)
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "forest must be fitted before predicting");
        assert_eq!(x.cols(), self.n_features, "feature count must match training data");
        // Compile to the flat SoA table and run the blocked lockstep
        // evaluator, sharding rows over the training worker count.
        // Bit-identical to `predict_proba_legacy` for every `n_jobs`.
        self.to_flat().predict_proba(x, self.params.n_jobs)
    }

    fn name(&self) -> &'static str {
        "RandomForest"
    }
}

monitorless_std::json_enum!(ClassWeight {
    None,
    Balanced,
    BalancedSubsample,
});
monitorless_std::json_struct!(RandomForestParams {
    n_estimators,
    criterion,
    max_depth,
    min_samples_split,
    min_samples_leaf,
    max_features,
    bootstrap,
    class_weight,
    n_jobs,
    seed,
});

// Hand-written (rather than `json_struct!`) because flattening indexes
// every tree's split features against the forest's width: each decoded
// tree (its split features already checked against its own width) must
// be fitted and no wider than the forest, or the model file fails to
// decode instead of panicking in `FlatBuilder`.
impl monitorless_std::json::ToJson for RandomForest {
    fn to_json(&self) -> monitorless_std::json::Json {
        monitorless_std::json::Json::Obj(vec![
            ("params".into(), self.params.to_json()),
            ("trees".into(), self.trees.to_json()),
            ("n_features".into(), self.n_features.to_json()),
        ])
    }
}

impl monitorless_std::json::FromJson for RandomForest {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, JsonError};
        let forest = RandomForest {
            params: field(json, "params")?,
            trees: field(json, "trees")?,
            n_features: field(json, "n_features")?,
        };
        // A retrain fits a challenger with these parameters.
        forest
            .params
            .check()
            .map_err(|e| JsonError(format!("forest params: {e}")))?;
        for (t, tree) in forest.trees.iter().enumerate() {
            if !tree.is_fitted() {
                return Err(JsonError(format!("forest tree {t} has no nodes")));
            }
            if tree.n_features() > forest.n_features {
                return Err(JsonError(format!(
                    "forest tree {t} has {} features, more than the forest's {}",
                    tree.n_features(),
                    forest.n_features
                )));
            }
        }
        Ok(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(n_per_class: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..n_per_class {
            rows.push(vec![rng.gen::<f64>() * 0.4, rng.gen::<f64>() * 0.4]);
            y.push(0);
            rows.push(vec![0.6 + rng.gen::<f64>() * 0.4, 0.6 + rng.gen::<f64>() * 0.4]);
            y.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blob_data(30);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 30,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        assert_eq!(rf.predict(&x), y);
    }

    #[test]
    fn adjacent_doubles_are_learned() {
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        let x = Matrix::from_rows(&[&[a], &[a], &[a], &[b], &[b], &[b]]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 8,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        assert_eq!(rf.predict(&x), y);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (x, y) = blob_data(20);
        let mut seq = RandomForest::new(RandomForestParams {
            n_estimators: 16,
            n_jobs: 1,
            seed: 3,
            ..RandomForestParams::default()
        });
        let mut par = RandomForest::new(RandomForestParams {
            n_estimators: 16,
            n_jobs: 4,
            seed: 3,
            ..RandomForestParams::default()
        });
        seq.fit(&x, &y, None).unwrap();
        par.fit(&x, &y, None).unwrap();
        assert_eq!(seq.predict_proba(&x), par.predict_proba(&x));
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let (x, y) = blob_data(15);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        assert!(rf
            .predict_proba(&x)
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn importances_identify_informative_feature() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..60 {
            let informative = if i % 2 == 0 { 0.1 } else { 0.9 };
            rows.push(vec![informative + rng.gen::<f64>() * 0.05, rng.gen()]);
            y.push(u8::from(i % 2 == 1));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 20,
            max_features: MaxFeatures::All,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        let imp = rf.feature_importances();
        assert!(imp[0] > imp[1]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(rf.top_features(1), vec![0]);
    }

    #[test]
    fn class_weight_balanced_raises_minority_probability() {
        // 90/10 imbalance on inseparable data: balancing raises the
        // positive-class probability.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            rows.push(vec![0.5]);
            y.push(u8::from(i < 10));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut plain = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            class_weight: ClassWeight::None,
            seed: 1,
            ..RandomForestParams::default()
        });
        let mut balanced = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            class_weight: ClassWeight::Balanced,
            seed: 1,
            ..RandomForestParams::default()
        });
        plain.fit(&x, &y, None).unwrap();
        balanced.fit(&x, &y, None).unwrap();
        let p_plain = plain.predict_proba(&x)[0];
        let p_bal = balanced.predict_proba(&x)[0];
        assert!(p_bal > p_plain);
        assert!((p_bal - 0.5).abs() < 0.15);
    }

    #[test]
    fn one_class_bootstrap_fallback_keeps_the_forest_split_floor() {
        // One positive in 15 rows: about a third of the bootstrap
        // samples miss it and take the full-data fallback stump. A
        // split floor above the row count must leave that stump a leaf
        // too, though the single column separates the classes.
        let rows: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<u8> = (0..15).map(|i| u8::from(i == 14)).collect();
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 16,
            min_samples_split: 30,
            seed: 5,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        let flat = rf.to_flat();
        assert_eq!(flat.n_nodes(), flat.n_trees(), "every tree must stay one leaf");
    }

    #[test]
    fn threshold_04_is_more_recall_oriented() {
        let (x, y) = blob_data(20);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 15,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        let at_05: usize = rf
            .predict_with_threshold(&x, 0.5)
            .iter()
            .map(|&v| v as usize)
            .sum();
        let at_04: usize = rf
            .predict_with_threshold(&x, 0.4)
            .iter()
            .map(|&v| v as usize)
            .sum();
        assert!(at_04 >= at_05);
    }

    #[test]
    fn zero_estimators_rejected() {
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 0,
            ..RandomForestParams::default()
        });
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        assert!(matches!(rf.fit(&x, &[0, 1], None), Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn bad_floors_and_zero_weights_are_rejected_before_any_tree_trains() {
        let (x, y) = blob_data(10);
        let fit = |params: RandomForestParams, w: Option<&[f64]>| {
            RandomForest::new(RandomForestParams {
                n_estimators: 4,
                n_jobs: 2,
                ..params
            })
            .fit(&x, &y, w)
        };
        let invalid = |r: Result<(), Error>, what: &str| match r {
            Err(Error::InvalidParameter(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
            other => panic!("{what}: got {other:?}"),
        };
        invalid(
            fit(
                RandomForestParams {
                    min_samples_leaf: 0,
                    ..RandomForestParams::default()
                },
                None,
            ),
            "min_samples_leaf",
        );
        invalid(
            fit(
                RandomForestParams {
                    min_samples_split: 1,
                    ..RandomForestParams::default()
                },
                None,
            ),
            "min_samples_split",
        );
        let zeros = vec![0.0; x.rows()];
        invalid(fit(RandomForestParams::default(), Some(&zeros)), "sample weights");
        // A decoded forest with such floors fails to decode: a retrain
        // would fit a challenger with them.
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 2,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        rf.params.min_samples_leaf = 0;
        let json = monitorless_std::json::to_string(&rf);
        let err = monitorless_std::json::from_str::<RandomForest>(&json).unwrap_err();
        assert!(err.0.contains("min_samples_leaf must be at least 1"), "{}", err.0);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let (x, y) = blob_data(10);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 8,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        let json = monitorless_std::json::to_string(&rf);
        let back: RandomForest = monitorless_std::json::from_str(&json).unwrap();
        assert_eq!(back.predict_proba(&x), rf.predict_proba(&x));
    }
}

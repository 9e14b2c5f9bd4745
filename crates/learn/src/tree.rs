//! CART decision-tree classifier.
//!
//! Supports the hyper-parameters examined by the paper's grid search
//! (Table 2): split criterion (`gini`/`entropy`), splitter
//! (`best`/`random`), `min_samples_split`, `min_samples_leaf`, a depth
//! limit and per-node feature subsampling (used by the random forest).
//! Sample weights are supported so AdaBoost and class weighting can reuse
//! the same builder.
//!
//! Unit-weight entropy fits (the paper's selected forest, and every
//! shadow-retrain challenger) score each candidate threshold first from
//! a per-fit `k·log2 k` table and compute the exact entropy only where
//! the table says the candidate can still win; the trees stay
//! bit-identical (see `DecisionTree::scan_groups_unit`). Fits report
//! the filter's work as the `tree.split_candidates` and
//! `tree.entropy_evals` counters.
//!
//! A decoded tree is checked before use: split children inside the tree
//! and after their parent, one parent per node, split features in
//! range, finite thresholds and leaf probabilities in `[0, 1]`.

use std::sync::atomic::AtomicU64;

use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

use crate::presort::{value_at, FitCache, NodeGroups, PresortTraversal, PresortedDataset};
use crate::{validate_fit_parts, Classifier, Error, Matrix};

/// Impurity criterion for choosing splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SplitCriterion {
    /// Gini impurity `2 p (1 - p)`.
    #[default]
    Gini,
    /// Shannon entropy (information gain).
    Entropy,
}

impl SplitCriterion {
    /// Impurity of a node with weighted class masses `w0`, `w1`.
    pub fn impurity(self, w0: f64, w1: f64) -> f64 {
        let total = w0 + w1;
        if total <= 0.0 {
            return 0.0;
        }
        let p = w1 / total;
        match self {
            SplitCriterion::Gini => 2.0 * p * (1.0 - p),
            SplitCriterion::Entropy => {
                let mut h = 0.0;
                for q in [p, 1.0 - p] {
                    if q > 0.0 {
                        h -= q * q.log2();
                    }
                }
                h
            }
        }
    }

    /// Impurity decrease of splitting a node of weight `node_weight`
    /// and impurity `parent` into children with class masses
    /// `(l0, l1)` and `(r0, r1)`, clamped at zero: the exact score
    /// every split search maximizes.
    #[inline]
    fn decrease(
        self,
        (l0, l1): (f64, f64),
        (r0, r1): (f64, f64),
        parent: f64,
        node_weight: f64,
    ) -> f64 {
        let child =
            ((l0 + l1) * self.impurity(l0, l1) + (r0 + r1) * self.impurity(r0, r1)) / node_weight;
        // Ties (zero decrease) are accepted: CART must be able to make
        // progress on symmetric problems like XOR where the first split
        // has no immediate gain.
        (parent - child).max(0.0)
    }
}

/// How close (in impurity units) the decrease an entropy split's
/// [`klogk_score`] implies must come to the node's best exact decrease
/// so far before the unit-weight sweep computes the split's exact
/// decrease. The estimate's worst measured error against the exact
/// formula is 7.4e-15 for nodes of up to 200k rows, five orders of
/// magnitude below this margin, so every boundary the filter skips has
/// an exact decrease strictly below the best and could never have been
/// chosen.
const ENTROPY_MARGIN: f64 = 1e-9;

/// `T[k] = k·log2 k` for `k` in `0..=n` (`T[0] = 0`): the table behind
/// the entropy filter of [`DecisionTree::scan_groups_unit`], built once
/// per fit (per forest fit when its trees share it).
pub(crate) fn klogk_table(n: usize) -> Vec<f64> {
    (0..=n)
        .map(|k| {
            let k = k as f64;
            if k > 0.0 {
                k * k.log2()
            } else {
                0.0
            }
        })
        .collect()
}

/// The entropy filter's score of a split of `n` rows into class counts
/// `(l0, l1)` and `(r0, r1)`: `n ×` the weighted child entropy,
/// `T[lw]−T[l0]−T[l1] + T[rw]−T[r0]−T[r1]` over the [`klogk_table`]
/// (lower is better), without a `log2` or a division.
#[inline]
fn klogk_score(t: &[f64], l0: u32, l1: u32, r0: u32, r1: u32) -> f64 {
    let at = |k: u32| t[k as usize];
    at(l0 + l1) - at(l0) - at(l1) + at(r0 + r1) - at(r0) - at(r1)
}

/// The threshold between adjacent distinct values `lo < hi`: their
/// midpoint, or `lo` where the midpoint rounds onto `hi` (adjacent
/// doubles) or is not finite (an infinite side, or a gap wider than
/// `f64::MAX`), scikit-learn's rule. Either way `x <= threshold` sends
/// `lo` left and `hi` right, so neither child of the split is empty.
#[inline]
pub(crate) fn split_threshold(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid == hi || !mid.is_finite() {
        lo
    } else {
        mid
    }
}

/// Checks the split floors every tree fit needs: at least two rows to
/// split a node and at least one per leaf.
pub(crate) fn check_split_floors(
    min_samples_split: usize,
    min_samples_leaf: usize,
) -> Result<(), Error> {
    if min_samples_split < 2 {
        return Err(Error::InvalidParameter("min_samples_split must be at least 2".into()));
    }
    if min_samples_leaf < 1 {
        return Err(Error::InvalidParameter("min_samples_leaf must be at least 1".into()));
    }
    Ok(())
}

/// Split-point search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Splitter {
    /// Exhaustive scan over candidate thresholds (CART default).
    #[default]
    Best,
    /// One uniformly random threshold per candidate feature
    /// (extra-trees style; `DT_splitter = random` in Table 2).
    Random,
}

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MaxFeatures {
    /// All features (plain CART).
    #[default]
    All,
    /// `sqrt(n_features)` — the random-forest default.
    Sqrt,
    /// `log2(n_features)`.
    Log2,
    /// A fixed fraction in `(0, 1]` of the features.
    Fraction(f64),
}

impl MaxFeatures {
    /// Resolves to a concrete feature count for `n_features` total.
    pub fn resolve(self, n_features: usize) -> usize {
        let n = n_features.max(1);
        let k = match self {
            MaxFeatures::All => n,
            MaxFeatures::Sqrt => (n as f64).sqrt().round() as usize,
            MaxFeatures::Log2 => (n as f64).log2().floor() as usize,
            MaxFeatures::Fraction(f) => (n as f64 * f).ceil() as usize,
        };
        k.clamp(1, n)
    }
}

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeParams {
    /// Impurity criterion.
    pub criterion: SplitCriterion,
    /// Threshold search strategy.
    pub splitter: Splitter,
    /// Maximum tree depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum number of samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// RNG seed for feature subsampling / random splits.
    pub seed: u64,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            criterion: SplitCriterion::Gini,
            splitter: Splitter::Best,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        proba: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted (or unfitted) CART binary classifier.
///
/// ```
/// use monitorless_learn::prelude::*;
///
/// # fn main() -> Result<(), monitorless_learn::Error> {
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
/// let y = vec![0, 0, 1, 1];
/// let mut tree = DecisionTree::new(DecisionTreeParams::default());
/// tree.fit(&x, &y, None)?;
/// assert_eq!(tree.predict(&x), y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    params: DecisionTreeParams,
    nodes: Vec<Node>,
    n_features: usize,
    importances: Vec<f64>,
}

impl DecisionTree {
    /// Creates an unfitted tree with the given hyper-parameters.
    pub fn new(params: DecisionTreeParams) -> Self {
        DecisionTree {
            params,
            nodes: Vec::new(),
            n_features: 0,
            importances: Vec::new(),
        }
    }

    /// The hyper-parameters this tree was configured with.
    pub fn params(&self) -> &DecisionTreeParams {
        &self.params
    }

    /// Whether `fit` has completed successfully.
    pub fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of features the tree was fitted on (0 before fitting).
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Impurity-decrease feature importances, normalized to sum to 1
    /// (all zeros if the tree is a single leaf).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Extracts human-readable decision rules for leaves whose positive
    /// probability is at least `min_proba` — the depth-restricted
    /// interpretability path discussed in the paper's Section 5.
    ///
    /// Each rule reads `IF f₁ <= a AND f₂ > b THEN saturated (p=…)`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted or `feature_names` is shorter than
    /// the training feature count.
    pub fn decision_rules(&self, feature_names: &[String], min_proba: f64) -> Vec<String> {
        assert!(self.is_fitted(), "tree must be fitted");
        assert!(feature_names.len() >= self.n_features, "feature names must cover all features");
        let mut rules = Vec::new();
        let mut path: Vec<String> = Vec::new();
        self.walk_rules(0, feature_names, min_proba, &mut path, &mut rules);
        rules
    }

    fn walk_rules(
        &self,
        idx: usize,
        names: &[String],
        min_proba: f64,
        path: &mut Vec<String>,
        rules: &mut Vec<String>,
    ) {
        match &self.nodes[idx] {
            Node::Leaf { proba } => {
                if *proba >= min_proba {
                    let condition = if path.is_empty() {
                        "always".to_string()
                    } else {
                        path.join(" AND ")
                    };
                    rules.push(format!("IF {condition} THEN saturated (p={proba:.2})"));
                }
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                path.push(format!("{} <= {threshold:.3}", names[*feature]));
                self.walk_rules(*left, names, min_proba, path, rules);
                path.pop();
                path.push(format!("{} > {threshold:.3}", names[*feature]));
                self.walk_rules(*right, names, min_proba, path, rules);
                path.pop();
            }
        }
    }

    /// Checks what walking and flattening the tree rely on: each
    /// split's children lie inside the tree and after the split, every
    /// node but the root has exactly one parent, split features are
    /// below `n_features`, thresholds are finite and leaf probabilities
    /// lie in `[0, 1]`. Together the first two make the nodes one tree
    /// rooted at node 0, so every walk ends at a leaf.
    fn check_structure(&self) -> Result<(), String> {
        let n = self.nodes.len();
        let mut has_parent = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                Node::Leaf { proba } => {
                    if !(0.0..=1.0).contains(&proba) {
                        return Err(format!(
                            "tree node {i}: leaf probability {proba} is not in [0, 1]"
                        ));
                    }
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if feature >= self.n_features {
                        return Err(format!(
                            "tree node {i}: split feature {feature} is out of range for {} features",
                            self.n_features
                        ));
                    }
                    if !threshold.is_finite() {
                        return Err(format!(
                            "tree node {i}: split threshold {threshold} is not finite"
                        ));
                    }
                    for child in [left, right] {
                        if child >= n {
                            return Err(format!(
                                "tree node {i}: child {child} is out of range for {n} nodes"
                            ));
                        }
                        if child <= i {
                            return Err(format!(
                                "tree node {i}: child {child} does not follow its parent"
                            ));
                        }
                        if std::mem::replace(&mut has_parent[child], true) {
                            return Err(format!("tree node {child} has two parents"));
                        }
                    }
                }
            }
        }
        match (1..n).find(|&i| !has_parent[i]) {
            Some(orphan) => Err(format!("tree node {orphan} has no parent")),
            None => Ok(()),
        }
    }

    /// Appends this fitted tree's nodes to a flat builder, mapping each
    /// leaf probability through `leaf`.
    ///
    /// Ensembles pre-apply their per-stage leaf transform here (vote
    /// weight, log-odds term) so the flat walk is load-and-add; plain
    /// probability trees pass the identity.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn flatten_into<F: Fn(f64) -> f64>(&self, builder: &mut crate::flat::FlatBuilder, leaf: F) {
        assert!(self.is_fitted(), "tree must be fitted before flattening");
        builder.begin_tree();
        for node in &self.nodes {
            match node {
                Node::Leaf { proba } => builder.push_leaf(leaf(*proba)),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => builder.push_split(*feature as u32, *threshold, *left as u32, *right as u32),
            }
        }
    }

    /// Compiles the fitted tree into a single-tree
    /// [`FlatEnsemble`](crate::flat::FlatEnsemble) — the batched
    /// inference fast path. Predictions are bit-identical to
    /// [`DecisionTree::predict_row`].
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn to_flat(&self) -> crate::flat::FlatEnsemble {
        let mut builder =
            crate::flat::FlatBuilder::new(self.n_features, 0.0, crate::flat::Finalize::Sum);
        self.flatten_into(&mut builder, |p| p);
        builder.build()
    }

    /// Probability of class 1 for a single sample.
    ///
    /// This recursive walk is the *reference implementation* the flat
    /// evaluator (`learn::flat`) is property-tested against
    /// (`tests/flat_equivalence.rs`); batch callers should prefer
    /// [`DecisionTree::to_flat`].
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted or `row` is shorter than the number
    /// of training features.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(self.is_fitted(), "tree must be fitted before predicting");
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { proba } => return *proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &Matrix,
        y: &[u8],
        w: &[f64],
        indices: &[usize],
        depth: usize,
        total_weight: f64,
        rng: &mut StdRng,
    ) -> usize {
        let (mut w0, mut w1) = (0.0, 0.0);
        for &i in indices.iter() {
            if y[i] == 1 {
                w1 += w[i];
            } else {
                w0 += w[i];
            }
        }
        let node_weight = w0 + w1;
        let proba = if node_weight > 0.0 {
            w1 / node_weight
        } else {
            0.5
        };
        let impurity = self.params.criterion.impurity(w0, w1);

        let stop = indices.len() < self.params.min_samples_split
            || indices.len() < 2 * self.params.min_samples_leaf
            || impurity <= 0.0
            || self.params.max_depth.is_some_and(|d| depth >= d);
        if stop {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        }

        let best = self.find_split(x, y, w, indices, impurity, node_weight, rng);
        let Some(split) = best else {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        };

        // Record importance as the weighted impurity decrease at this node.
        self.importances[split.feature] += node_weight / total_weight * split.decrease;

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.get(i, split.feature) <= split.threshold);

        let node_pos = self.nodes.len();
        // Placeholder; children indices are patched after recursion.
        self.nodes.push(Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left: 0,
            right: 0,
        });
        let left = self.build(x, y, w, &left_idx, depth + 1, total_weight, rng);
        let right = self.build(x, y, w, &right_idx, depth + 1, total_weight, rng);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_pos]
        {
            *l = left;
            *r = right;
        }
        node_pos
    }

    #[allow(clippy::too_many_arguments)]
    fn find_split(
        &self,
        x: &Matrix,
        y: &[u8],
        w: &[f64],
        indices: &[usize],
        parent_impurity: f64,
        node_weight: f64,
        rng: &mut StdRng,
    ) -> Option<SplitCandidate> {
        let k = self.params.max_features.resolve(self.n_features);
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if k < self.n_features {
            rng.shuffle(&mut features);
            features.truncate(k);
        }

        let mut best: Option<SplitCandidate> = None;
        let mut sorted: Vec<(f64, u8, f64)> = Vec::with_capacity(indices.len());
        for &feature in features.iter() {
            sorted.clear();
            sorted.extend(indices.iter().map(|&i| (x.get(i, feature), y[i], w[i])));
            // `total_cmp` keeps the sort independent of NaN position
            // (and matches the presorted builder's base order).
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let lo = sorted[0].0;
            let hi = sorted[sorted.len() - 1].0;
            if lo == hi {
                continue;
            }

            match self.params.splitter {
                Splitter::Best => {
                    let candidate = self.scan_best_threshold(&sorted, parent_impurity, node_weight);
                    if let Some(c) = candidate {
                        if best.as_ref().is_none_or(|b| c.decrease > b.decrease) {
                            best = Some(SplitCandidate { feature, ..c });
                        }
                    }
                }
                Splitter::Random => {
                    let threshold = rng.gen_range(lo..hi);
                    if let Some(c) =
                        self.evaluate_threshold(&sorted, threshold, parent_impurity, node_weight)
                    {
                        if best.as_ref().is_none_or(|b| c.decrease > b.decrease) {
                            best = Some(SplitCandidate { feature, ..c });
                        }
                    }
                }
            }
        }
        best
    }

    /// Scans all midpoints between adjacent distinct values.
    // `!(next > v)` is deliberate: unlike `next <= v` it also rejects
    // NaN boundaries (see the comment at the comparison site).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn scan_best_threshold(
        &self,
        sorted: &[(f64, u8, f64)],
        parent_impurity: f64,
        node_weight: f64,
    ) -> Option<SplitCandidate> {
        let n = sorted.len();
        let (mut lw0, mut lw1) = (0.0_f64, 0.0_f64);
        let (mut rw0, mut rw1) = (0.0_f64, 0.0_f64);
        for &(_, label, weight) in sorted {
            if label == 1 {
                rw1 += weight;
            } else {
                rw0 += weight;
            }
        }
        let mut best: Option<SplitCandidate> = None;
        for i in 0..n - 1 {
            let (v, label, weight) = sorted[i];
            if label == 1 {
                lw1 += weight;
                rw1 -= weight;
            } else {
                lw0 += weight;
                rw0 -= weight;
            }
            let next = sorted[i + 1].0;
            // Requires a strictly increasing, *finite* boundary: with NaN
            // cells sorted to the end (`total_cmp`), a midpoint against
            // NaN would be NaN, sending every row right and making no
            // progress. Skipping here keeps the sweep's left/right counts
            // consistent with the actual partition (NaN rows go right).
            if !(next > v) {
                continue;
            }
            let left_count = i + 1;
            let right_count = n - left_count;
            if left_count < self.params.min_samples_leaf
                || right_count < self.params.min_samples_leaf
            {
                continue;
            }
            if lw0 + lw1 <= 0.0 || rw0 + rw1 <= 0.0 {
                continue;
            }
            let decrease = self.params.criterion.decrease(
                (lw0, lw1),
                (rw0, rw1),
                parent_impurity,
                node_weight,
            );
            if best.as_ref().is_none_or(|b| decrease > b.decrease) {
                best = Some(SplitCandidate {
                    feature: 0,
                    threshold: split_threshold(v, next),
                    decrease,
                });
            }
        }
        best
    }

    /// Evaluates one fixed threshold (random splitter).
    fn evaluate_threshold(
        &self,
        sorted: &[(f64, u8, f64)],
        threshold: f64,
        parent_impurity: f64,
        node_weight: f64,
    ) -> Option<SplitCandidate> {
        let (mut lw0, mut lw1, mut rw0, mut rw1) = (0.0, 0.0, 0.0, 0.0);
        let mut left_count = 0usize;
        for &(v, label, weight) in sorted {
            let left = v <= threshold;
            match (left, label) {
                (true, 1) => lw1 += weight,
                (true, _) => lw0 += weight,
                (false, 1) => rw1 += weight,
                (false, _) => rw0 += weight,
            }
            if left {
                left_count += 1;
            }
        }
        let right_count = sorted.len() - left_count;
        if left_count < self.params.min_samples_leaf || right_count < self.params.min_samples_leaf {
            return None;
        }
        if lw0 + lw1 <= 0.0 || rw0 + rw1 <= 0.0 {
            return None;
        }
        let decrease =
            self.params
                .criterion
                .decrease((lw0, lw1), (rw0, rw1), parent_impurity, node_weight);
        Some(SplitCandidate {
            feature: 0,
            threshold,
            decrease,
        })
    }

    /// Fits on a shared [`PresortedDataset`] — the fast path behind
    /// [`Classifier::fit`], forests, AdaBoost and grid search.
    ///
    /// Produces bit-identical trees to the legacy per-node re-sorting
    /// builder (`fit_resorting`); `tests/presort_equivalence.rs` pins
    /// the equivalence.
    pub fn fit_presorted(
        &mut self,
        ps: &PresortedDataset,
        y: &[u8],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), Error> {
        self.fit_traversal(&mut PresortTraversal::identity(ps), y, sample_weight, None)
    }

    /// Fits on a prepared traversal, which may walk a bootstrap sample
    /// (`y`/`sample_weight` are indexed by the traversal's row ids; see
    /// [`PresortTraversal`]). A counted sample takes no weights: it
    /// stands for the unweighted materialized sample. The traversal's
    /// segments are consumed (reordered by the partitions); reset or
    /// rebuild it before reuse.
    ///
    /// `klogk` may pass a [`klogk_table`] over at least the sample's
    /// drawn rows for an entropy fit to use instead of building its
    /// own; a forest builds one for all its trees.
    pub(crate) fn fit_traversal(
        &mut self,
        trav: &mut PresortTraversal<'_>,
        y: &[u8],
        sample_weight: Option<&[f64]>,
        klogk: Option<&[f64]>,
    ) -> Result<(), Error> {
        let d = trav.dataset().n_features();
        validate_fit_parts(trav.n_ids(), d, y, sample_weight)?;
        // A counted sample may draw one class only, though `y` holds
        // both; its materialized sample would fail the check above.
        let (m, n1) = trav.drawn(0, trav.len(), y);
        if n1 == 0 || n1 == m {
            return Err(Error::InvalidLabels);
        }
        check_split_floors(self.params.min_samples_split, self.params.min_samples_leaf)?;
        self.nodes.clear();
        self.n_features = d;
        self.importances = vec![0.0; d];

        // Summed in row order, like the legacy builder: `m` ones sum to
        // exactly `m`.
        let total_weight: f64 = match sample_weight {
            Some(w) => w.iter().sum(),
            None => m as f64,
        };
        if total_weight <= 0.0 {
            return Err(Error::InvalidParameter("sample weights must not all be zero".into()));
        }
        let unit_w = sample_weight.is_none_or(|w| w.iter().all(|&x| x == 1.0));
        let filter = unit_w
            && self.params.criterion == SplitCriterion::Entropy
            && self.params.splitter == Splitter::Best;
        let own_table;
        let klogk: &[f64] = match klogk {
            _ if !filter => &[],
            Some(shared) if shared.len() > m => shared,
            _ => {
                own_table = klogk_table(m);
                &own_table
            }
        };
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let span = obs::Span::enter("tree.fit");
        let mut ctx = PresortCtx {
            trav,
            y,
            w: sample_weight.unwrap_or_default(),
            vals: Vec::new(),
            labs: Vec::new(),
            wts: Vec::new(),
            features: Vec::with_capacity(d),
            unit_w,
            klogk,
            sweep: SweepCounts::default(),
            rng: &mut rng,
        };
        let rows = ctx.trav.len();
        self.build_presorted(&mut ctx, 0, rows, 0, total_weight);
        if let Some(us) = span.elapsed_us() {
            if us > 0.0 {
                obs::observe("tree.nodes_per_sec", self.nodes.len() as f64 / (us / 1e6));
            }
        }
        if unit_w {
            obs::counter_add("tree.rows_grouped", ctx.sweep.rows_grouped);
            obs::counter_add("tree.groups_swept", ctx.sweep.groups_swept);
        }
        if filter {
            obs::counter_add("tree.split_candidates", ctx.sweep.candidates);
            obs::counter_add("tree.entropy_evals", ctx.sweep.entropy_evals);
        }

        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut self.importances {
                *imp /= total;
            }
        }
        Ok(())
    }

    /// Recursive presorted builder over the node segment `[lo, hi)`.
    ///
    /// Mirrors `build` exactly: same stop conditions, same importance
    /// accounting, same accumulation order (the traversal's row segment
    /// is the stable analogue of the legacy row-ascending index list).
    /// A node's size is its drawn size, so a counted sample stops,
    /// splits and weighs its nodes as its materialized sample would.
    fn build_presorted(
        &mut self,
        ctx: &mut PresortCtx<'_, '_>,
        lo: usize,
        hi: usize,
        depth: usize,
        total_weight: f64,
    ) -> usize {
        let (len, w0, w1) = if ctx.unit_w {
            // Unit weights: the legacy sum of ones is an exact integer,
            // so counting labels reproduces it bit-for-bit.
            let (len, c1) = ctx.trav.drawn(lo, hi, ctx.y);
            (len, (len - c1) as f64, c1 as f64)
        } else {
            let (mut w0, mut w1) = (0.0, 0.0);
            for &v in ctx.trav.rows_segment(lo, hi) {
                let vi = v as usize;
                if ctx.y[vi] == 1 {
                    w1 += ctx.w[vi];
                } else {
                    w0 += ctx.w[vi];
                }
            }
            (hi - lo, w0, w1)
        };
        let node_weight = w0 + w1;
        let proba = if node_weight > 0.0 {
            w1 / node_weight
        } else {
            0.5
        };
        let impurity = self.params.criterion.impurity(w0, w1);

        let stop = len < self.params.min_samples_split
            || len < 2 * self.params.min_samples_leaf
            || impurity <= 0.0
            || self.params.max_depth.is_some_and(|d| depth >= d);
        if stop {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        }

        let best = self.find_split_presorted(ctx, lo, hi, len, impurity, node_weight);
        let Some(split) = best else {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        };

        self.importances[split.feature] += node_weight / total_weight * split.decrease;

        let n_left = ctx.trav.partition(lo, hi, split.feature, split.threshold);

        let node_pos = self.nodes.len();
        // Placeholder; children indices are patched after recursion.
        self.nodes.push(Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left: 0,
            right: 0,
        });
        let left = self.build_presorted(ctx, lo, lo + n_left, depth + 1, total_weight);
        let right = self.build_presorted(ctx, lo + n_left, hi, depth + 1, total_weight);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_pos]
        {
            *l = left;
            *r = right;
        }
        node_pos
    }

    /// Split search over rank-sorted node segments: per evaluated
    /// feature the node is tallied by its precomputed value ranks. Unit
    /// weights sweep the rank groups themselves; weighted fits place the
    /// rows in sorted order from the tally's counts (no float comparison
    /// sort), then a single linear sweep scores the thresholds. `n` is
    /// the node's drawn size.
    #[allow(clippy::too_many_arguments)]
    fn find_split_presorted(
        &self,
        ctx: &mut PresortCtx<'_, '_>,
        lo: usize,
        hi: usize,
        n: usize,
        parent_impurity: f64,
        node_weight: f64,
    ) -> Option<SplitCandidate> {
        let PresortCtx {
            trav,
            y,
            w,
            vals,
            labs,
            wts,
            features,
            unit_w,
            klogk,
            sweep,
            rng,
        } = &mut *ctx;
        let k = self.params.max_features.resolve(self.n_features);
        features.clear();
        features.extend(0..self.n_features);
        if k < self.n_features {
            rng.shuffle(features);
            features.truncate(k);
        }

        let mut best: Option<SplitCandidate> = None;
        for &feature in features.iter() {
            if trav.dataset().is_constant(feature) {
                // A globally constant non-NaN feature can never split;
                // the legacy builder reaches the same `continue` through
                // its `lo_v == hi_v` check without consuming randomness.
                continue;
            }
            if *unit_w {
                // Unit weights: no gather, no placement, no per-row
                // sweep. The node's per-rank-group class histogram is
                // everything the split search needs, and the sweep runs
                // over distinct values instead of rows.
                let ps = trav.dataset();
                sweep.rows_grouped += (hi - lo) as u64;
                let Some(groups) = trav.group_node(feature, lo, hi, y) else {
                    // Node-constant non-NaN feature; the legacy builder
                    // reaches the same `continue` through `lo_v == hi_v`.
                    continue;
                };
                let tbl = ps.rank_values_of(feature);
                let (first, last) = (groups.present[0], groups.present[groups.present.len() - 1]);
                let lo_v = value_at(tbl, first as usize);
                let hi_v = value_at(tbl, last as usize);
                if lo_v == hi_v {
                    continue;
                }
                sweep.groups_swept += groups.present.len() as u64;
                match self.params.splitter {
                    // One sweep, compiled with and without the filter so
                    // Gini fits pay nothing for it.
                    Splitter::Best if klogk.is_empty() => self.scan_groups_unit::<false>(
                        feature,
                        tbl,
                        &groups,
                        n,
                        parent_impurity,
                        node_weight,
                        klogk,
                        sweep,
                        &mut best,
                    ),
                    Splitter::Best => self.scan_groups_unit::<true>(
                        feature,
                        tbl,
                        &groups,
                        n,
                        parent_impurity,
                        node_weight,
                        klogk,
                        sweep,
                        &mut best,
                    ),
                    Splitter::Random => {
                        let threshold = rng.gen_range(lo_v..hi_v);
                        let candidate = self.evaluate_groups_unit(
                            tbl,
                            &groups,
                            n,
                            threshold,
                            parent_impurity,
                            node_weight,
                        );
                        if let Some(c) = candidate {
                            if best.as_ref().is_none_or(|b| c.decrease > b.decrease) {
                                best = Some(SplitCandidate { feature, ..c });
                            }
                        }
                    }
                }
                continue;
            }
            let len = hi - lo;
            vals.resize(len, 0.0);
            labs.resize(len, 0);
            wts.resize(len, 0.0);
            let emitted = trav.gather_node(feature, lo, hi, |slot, v, value| {
                let vi = v as usize;
                vals[slot] = value;
                labs[slot] = y[vi];
                wts[slot] = w[vi];
            });
            if !emitted {
                // Node-constant non-NaN feature; the legacy builder
                // reaches the same `continue` through `lo_v == hi_v`.
                continue;
            }
            let lo_v = vals[0];
            let hi_v = vals[len - 1];
            if lo_v == hi_v {
                continue;
            }

            match self.params.splitter {
                Splitter::Best => {
                    let candidate =
                        self.scan_best_threshold_soa(vals, labs, wts, parent_impurity, node_weight);
                    if let Some(c) = candidate {
                        if best.as_ref().is_none_or(|b| c.decrease > b.decrease) {
                            best = Some(SplitCandidate { feature, ..c });
                        }
                    }
                }
                Splitter::Random => {
                    let threshold = rng.gen_range(lo_v..hi_v);
                    if let Some(c) = self.evaluate_threshold_soa(
                        vals,
                        labs,
                        wts,
                        threshold,
                        parent_impurity,
                        node_weight,
                    ) {
                        if best.as_ref().is_none_or(|b| c.decrease > b.decrease) {
                            best = Some(SplitCandidate { feature, ..c });
                        }
                    }
                }
            }
        }
        best
    }

    /// The unit-weight best-split sweep of `feature` over a node's rank
    /// groups (see [`PresortTraversal::group_node`]), folded into the
    /// node's running `best`: features scanned earlier included, the
    /// first strict maximum wins. With all sample weights exactly `1.0`
    /// the per-row sweep's accumulators are exact integer label counts,
    /// so summing whole groups — integer addition is order-independent
    /// — then converting at each boundary yields bit-identical impurity
    /// inputs, and the boundaries themselves (consecutive *present*
    /// groups whose values satisfy `next > v`) are exactly the rows
    /// where the per-row sweep evaluated. The sweep visits only the
    /// present groups: `O(t)` for `t` distinct node-local values,
    /// however many ranks the node spans, instead of `O(len)`. `n` is
    /// the node's drawn size, so the leaf floors count drawn rows.
    ///
    /// Entropy fits sweep with `FILTER` set and the fit's
    /// [`klogk_table`]; Gini fits compile the filter out. Each boundary
    /// is then first scored from the table with six loads and five
    /// adds, and only a boundary whose [`klogk_score`] comes within
    /// [`ENTROPY_MARGIN`] of `best` pays for the exact formula's four
    /// `log2` and three divisions. The score's error is far below the
    /// margin, so a skipped boundary's exact decrease is strictly below
    /// `best`'s and could not have replaced it: the chosen split, and
    /// with it the tree, is bit-identical to scoring every boundary
    /// exactly.
    #[allow(clippy::too_many_arguments)]
    fn scan_groups_unit<const FILTER: bool>(
        &self,
        feature: usize,
        tbl: &[AtomicU64],
        groups: &NodeGroups<'_>,
        n: usize,
        parent_impurity: f64,
        node_weight: f64,
        klogk: &[f64],
        sweep: &mut SweepCounts,
        best: &mut Option<SplitCandidate>,
    ) {
        let min_leaf = self.params.min_samples_leaf;
        let n1: u32 = groups
            .present
            .iter()
            .map(|&g| groups.ones[g as usize])
            .sum();
        let n0 = n as u32 - n1;
        // Table scores at or above the cut cannot beat the best so far.
        let cut_of = |best: &Option<SplitCandidate>| match best {
            Some(b) => (parent_impurity - b.decrease + ENTROPY_MARGIN) * node_weight,
            None => f64::INFINITY,
        };
        let mut local = *best;
        let mut cut = cut_of(&local);
        let (mut l0, mut l1) = (0u32, 0u32);
        let mut left_count = 0usize;
        // Value of the last non-empty group accumulated into the left
        // side; boundaries are evaluated between it and the next
        // non-empty group, matching the per-row sweep's `next > v` gate
        // (which also rejects NaN and `-0.0`/`+0.0` boundaries).
        let mut pending: Option<f64> = None;
        for &g in groups.present {
            let g = g as usize;
            let (c, o) = (groups.counts[g], groups.ones[g]);
            let v = value_at(tbl, g);
            if let Some(pv) = pending {
                if v > pv && left_count >= min_leaf && n - left_count >= min_leaf {
                    let (r0, r1) = (n0 - l0, n1 - l1);
                    let exact = !FILTER || {
                        sweep.candidates += 1;
                        let pass = klogk_score(klogk, l0, l1, r0, r1) < cut;
                        sweep.entropy_evals += u64::from(pass);
                        pass
                    };
                    if exact {
                        // Both sides hold at least `min_samples_leaf >= 1`
                        // rows, so neither side's mass is zero.
                        let decrease = self.params.criterion.decrease(
                            (f64::from(l0), f64::from(l1)),
                            (f64::from(r0), f64::from(r1)),
                            parent_impurity,
                            node_weight,
                        );
                        if local.as_ref().is_none_or(|b| decrease > b.decrease) {
                            local = Some(SplitCandidate {
                                feature,
                                threshold: split_threshold(pv, v),
                                decrease,
                            });
                            cut = cut_of(&local);
                        }
                    }
                }
            }
            l1 += o;
            l0 += c - o;
            left_count += c as usize;
            pending = Some(v);
        }
        *best = local;
    }

    /// [`Self::evaluate_threshold`] over a node's present rank groups
    /// for unit sample weights (`n` drawn rows); see
    /// [`Self::scan_groups_unit`] for why the integer-count form is
    /// bit-identical.
    fn evaluate_groups_unit(
        &self,
        tbl: &[AtomicU64],
        groups: &NodeGroups<'_>,
        n: usize,
        threshold: f64,
        parent_impurity: f64,
        node_weight: f64,
    ) -> Option<SplitCandidate> {
        let n1: u32 = groups
            .present
            .iter()
            .map(|&g| groups.ones[g as usize])
            .sum();
        let n0 = n as u32 - n1;
        let (mut l0, mut l1) = (0u32, 0u32);
        let mut left_count = 0usize;
        for &g in groups.present {
            let g = g as usize;
            let (c, o) = (groups.counts[g], groups.ones[g]);
            // NaN groups compare false and stay on the right, exactly
            // like the per-row `v <= threshold` test.
            if value_at(tbl, g) <= threshold {
                l1 += o;
                l0 += c - o;
                left_count += c as usize;
            }
        }
        let right_count = n - left_count;
        if left_count < self.params.min_samples_leaf || right_count < self.params.min_samples_leaf {
            return None;
        }
        let (lw0, lw1) = (l0 as f64, l1 as f64);
        let (rw0, rw1) = ((n0 - l0) as f64, (n1 - l1) as f64);
        if lw0 + lw1 <= 0.0 || rw0 + rw1 <= 0.0 {
            return None;
        }
        let decrease =
            self.params
                .criterion
                .decrease((lw0, lw1), (rw0, rw1), parent_impurity, node_weight);
        Some(SplitCandidate {
            feature: 0,
            threshold,
            decrease,
        })
    }

    /// [`Self::scan_best_threshold`] over the presorted builder's
    /// structure-of-arrays gather. Operation-for-operation identical to
    /// the tuple version (same accumulation order, same comparisons),
    /// so the chosen split is bit-identical; only the memory layout
    /// differs.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn scan_best_threshold_soa(
        &self,
        values: &[f64],
        labels: &[u8],
        weights: &[f64],
        parent_impurity: f64,
        node_weight: f64,
    ) -> Option<SplitCandidate> {
        let n = values.len();
        let (mut lw0, mut lw1) = (0.0_f64, 0.0_f64);
        let (mut rw0, mut rw1) = (0.0_f64, 0.0_f64);
        for (&label, &weight) in labels.iter().zip(weights) {
            if label == 1 {
                rw1 += weight;
            } else {
                rw0 += weight;
            }
        }
        let mut best: Option<SplitCandidate> = None;
        for i in 0..n - 1 {
            let (v, label, weight) = (values[i], labels[i], weights[i]);
            if label == 1 {
                lw1 += weight;
                rw1 -= weight;
            } else {
                lw0 += weight;
                rw0 -= weight;
            }
            let next = values[i + 1];
            // See `scan_best_threshold`: reject non-increasing and NaN
            // boundaries.
            if !(next > v) {
                continue;
            }
            let left_count = i + 1;
            let right_count = n - left_count;
            if left_count < self.params.min_samples_leaf
                || right_count < self.params.min_samples_leaf
            {
                continue;
            }
            if lw0 + lw1 <= 0.0 || rw0 + rw1 <= 0.0 {
                continue;
            }
            let decrease = self.params.criterion.decrease(
                (lw0, lw1),
                (rw0, rw1),
                parent_impurity,
                node_weight,
            );
            if best.as_ref().is_none_or(|b| decrease > b.decrease) {
                best = Some(SplitCandidate {
                    feature: 0,
                    threshold: split_threshold(v, next),
                    decrease,
                });
            }
        }
        best
    }

    /// [`Self::evaluate_threshold`] over the structure-of-arrays
    /// gather; operation-for-operation identical to the tuple version.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_threshold_soa(
        &self,
        values: &[f64],
        labels: &[u8],
        weights: &[f64],
        threshold: f64,
        parent_impurity: f64,
        node_weight: f64,
    ) -> Option<SplitCandidate> {
        let (mut lw0, mut lw1, mut rw0, mut rw1) = (0.0, 0.0, 0.0, 0.0);
        let mut left_count = 0usize;
        for ((&v, &label), &weight) in values.iter().zip(labels).zip(weights) {
            let left = v <= threshold;
            match (left, label) {
                (true, 1) => lw1 += weight,
                (true, _) => lw0 += weight,
                (false, 1) => rw1 += weight,
                (false, _) => rw0 += weight,
            }
            if left {
                left_count += 1;
            }
        }
        let right_count = values.len() - left_count;
        if left_count < self.params.min_samples_leaf || right_count < self.params.min_samples_leaf {
            return None;
        }
        if lw0 + lw1 <= 0.0 || rw0 + rw1 <= 0.0 {
            return None;
        }
        let decrease =
            self.params
                .criterion
                .decrease((lw0, lw1), (rw0, rw1), parent_impurity, node_weight);
        Some(SplitCandidate {
            feature: 0,
            threshold,
            decrease,
        })
    }

    /// Trains with the legacy per-node re-sorting builder.
    ///
    /// [`Classifier::fit`] now presorts each feature once and stably
    /// partitions (see [`PresortedDataset`]); this path is retained as
    /// the reference implementation the presorted builder must match
    /// bit-for-bit (`tests/presort_equivalence.rs`) and as the baseline
    /// measured into `results/BENCH_table3.json`.
    #[doc(hidden)]
    pub fn fit_resorting(
        &mut self,
        x: &Matrix,
        y: &[u8],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), Error> {
        validate_fit_parts(x.rows(), x.cols(), y, sample_weight)?;
        check_split_floors(self.params.min_samples_split, self.params.min_samples_leaf)?;
        self.nodes.clear();
        self.n_features = x.cols();
        self.importances = vec![0.0; x.cols()];

        let weights: Vec<f64> = match sample_weight {
            Some(w) => w.to_vec(),
            None => vec![1.0; x.rows()],
        };
        let total_weight: f64 = weights.iter().sum();
        if total_weight <= 0.0 {
            return Err(Error::InvalidParameter("sample weights must not all be zero".into()));
        }
        let indices: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        self.build(x, y, &weights, &indices, 0, total_weight, &mut rng);

        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut self.importances {
                *imp /= total;
            }
        }
        Ok(())
    }
}

/// Per-fit state threaded through the presorted builder.
struct PresortCtx<'a, 'b> {
    trav: &'b mut PresortTraversal<'a>,
    /// Labels by row id.
    y: &'b [u8],
    /// Weights by row id; empty for an unweighted fit.
    w: &'b [f64],
    /// Node-local sorted-gather buffers (structure-of-arrays: values,
    /// labels, weights), reused across nodes to avoid per-node
    /// allocation. The split layout keeps the threshold sweep streaming
    /// over dense `f64` lanes.
    vals: Vec<f64>,
    labs: Vec<u8>,
    wts: Vec<f64>,
    /// Candidate-feature scratch, reused across nodes.
    features: Vec<usize>,
    /// Every weight is exactly `1.0`, so class-weight sums are exact
    /// integer counts and the sweep can use the unit-weight scans
    /// (bit-identical results: `f64` sums of ones are exact).
    unit_w: bool,
    /// The entropy filter's [`klogk_table`] over at least the fit's
    /// rows; empty unless the fit is unit-weight, best-split and
    /// entropy.
    klogk: &'b [f64],
    sweep: SweepCounts,
    rng: &'b mut StdRng,
}

/// What the unit-weight split search did over one fit, reported once
/// per tree as the `tree.rows_grouped` and `tree.groups_swept`
/// counters, and for entropy fits the filter's `tree.split_candidates`
/// and `tree.entropy_evals`.
#[derive(Debug, Default)]
struct SweepCounts {
    /// Row ids [`PresortTraversal::group_node`] histogrammed.
    rows_grouped: u64,
    /// Non-empty rank groups the sweeps visited.
    groups_swept: u64,
    /// Admissible boundaries the filtered sweep reached.
    candidates: u64,
    /// Boundaries among them scored with the exact formula.
    entropy_evals: u64,
}

#[derive(Debug, Clone, Copy)]
struct SplitCandidate {
    feature: usize,
    threshold: f64,
    decrease: f64,
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[u8], sample_weight: Option<&[f64]>) -> Result<(), Error> {
        // Validate before paying for the presort; `fit_traversal`
        // re-checks the same conditions in the same order.
        validate_fit_parts(x.rows(), x.cols(), y, sample_weight)?;
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
        validate_fit_parts(x.rows(), x.cols(), y, sample_weight)?;
        self.fit_presorted(cache.presorted(x), y, sample_weight)
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.is_fitted(), "tree must be fitted before predicting");
        assert_eq!(x.cols(), self.n_features, "feature count must match training data");
        self.to_flat().predict_proba(x, 1)
    }

    fn name(&self) -> &'static str {
        "DecisionTree"
    }
}

monitorless_std::json_enum!(SplitCriterion { Gini, Entropy });
monitorless_std::json_enum!(Splitter { Best, Random });
monitorless_std::json_struct!(DecisionTreeParams {
    criterion,
    splitter,
    max_depth,
    min_samples_split,
    min_samples_leaf,
    max_features,
    seed,
});

// Hand-written (rather than `json_struct!`) so a decoded tree is
// structurally sound before anything walks or flattens it: a malformed
// model file fails to decode instead of panicking in `FlatBuilder`.
impl monitorless_std::json::ToJson for DecisionTree {
    fn to_json(&self) -> monitorless_std::json::Json {
        monitorless_std::json::Json::Obj(vec![
            ("params".into(), self.params.to_json()),
            ("nodes".into(), self.nodes.to_json()),
            ("n_features".into(), self.n_features.to_json()),
            ("importances".into(), self.importances.to_json()),
        ])
    }
}

impl monitorless_std::json::FromJson for DecisionTree {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::field;
        let tree = DecisionTree {
            params: field(json, "params")?,
            nodes: field(json, "nodes")?,
            n_features: field(json, "n_features")?,
            importances: field(json, "importances")?,
        };
        tree.check_structure()
            .map_err(monitorless_std::json::JsonError)?;
        Ok(tree)
    }
}

// `MaxFeatures::Fraction` and `Node` carry data, so they keep the
// externally tagged encoding by hand.
impl monitorless_std::json::ToJson for MaxFeatures {
    fn to_json(&self) -> monitorless_std::json::Json {
        use monitorless_std::json::Json;
        match self {
            MaxFeatures::All => Json::Str("All".into()),
            MaxFeatures::Sqrt => Json::Str("Sqrt".into()),
            MaxFeatures::Log2 => Json::Str("Log2".into()),
            MaxFeatures::Fraction(f) => Json::Obj(vec![("Fraction".into(), f.to_json())]),
        }
    }
}

impl monitorless_std::json::FromJson for MaxFeatures {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, Json, JsonError};
        match json {
            Json::Str(s) => match s.as_str() {
                "All" => Ok(MaxFeatures::All),
                "Sqrt" => Ok(MaxFeatures::Sqrt),
                "Log2" => Ok(MaxFeatures::Log2),
                other => Err(JsonError(format!("unknown MaxFeatures variant {other:?}"))),
            },
            Json::Obj(_) => Ok(MaxFeatures::Fraction(field(json, "Fraction")?)),
            _ => Err(JsonError("expected MaxFeatures".into())),
        }
    }
}

impl monitorless_std::json::ToJson for Node {
    fn to_json(&self) -> monitorless_std::json::Json {
        use monitorless_std::json::Json;
        match self {
            Node::Leaf { proba } => {
                Json::Obj(vec![("Leaf".into(), Json::Obj(vec![("proba".into(), proba.to_json())]))])
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Json::Obj(vec![(
                "Split".into(),
                Json::Obj(vec![
                    ("feature".into(), feature.to_json()),
                    ("threshold".into(), threshold.to_json()),
                    ("left".into(), left.to_json()),
                    ("right".into(), right.to_json()),
                ]),
            )]),
        }
    }
}

impl monitorless_std::json::FromJson for Node {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, Json, JsonError};
        match json {
            Json::Obj(members) => match members.first().map(|(k, v)| (k.as_str(), v)) {
                Some(("Leaf", body)) => Ok(Node::Leaf {
                    proba: field(body, "proba")?,
                }),
                Some(("Split", body)) => Ok(Node::Split {
                    feature: field(body, "feature")?,
                    threshold: field(body, "threshold")?,
                    left: field(body, "left")?,
                    right: field(body, "right")?,
                }),
                _ => Err(JsonError("unknown Node variant".into())),
            },
            _ => Err(JsonError("expected Node object".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // XOR needs depth >= 2 — a sanity check that recursion works.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for k in 0..5 {
                rows.push(vec![a + 0.01 * k as f64, b + 0.01 * k as f64]);
                y.push(u8::from((a > 0.5) != (b > 0.5)));
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y)
    }

    #[test]
    fn perfectly_separable_is_learned() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let y = vec![0, 0, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, None).unwrap();
        assert_eq!(t.predict(&x), y);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn xor_is_learned() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, None).unwrap();
        assert_eq!(t.predict(&x), y);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(DecisionTreeParams {
            criterion: SplitCriterion::Entropy,
            ..DecisionTreeParams::default()
        });
        t.fit(&x, &y, None).unwrap();
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn random_splitter_learns_separable_data() {
        let x = Matrix::from_rows(&[&[0.0], &[0.1], &[0.9], &[1.0]]);
        let y = vec![0, 0, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams {
            splitter: Splitter::Random,
            seed: 42,
            ..DecisionTreeParams::default()
        });
        t.fit(&x, &y, None).unwrap();
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn max_depth_zero_yields_single_leaf() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(DecisionTreeParams {
            max_depth: Some(0),
            ..DecisionTreeParams::default()
        });
        t.fit(&x, &y, None).unwrap();
        assert_eq!(t.node_count(), 1);
        let p = t.predict_proba(&x);
        assert!(p.iter().all(|&v| (v - 0.5).abs() < 1e-12));
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams {
            min_samples_leaf: 3,
            ..DecisionTreeParams::default()
        });
        t.fit(&x, &y, None).unwrap();
        // Only the midpoint split keeps 3 samples per leaf.
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn importances_sum_to_one_and_pick_informative_feature() {
        let x = Matrix::from_rows(&[
            &[0.0, 5.0],
            &[0.1, 5.0],
            &[0.2, 5.0],
            &[0.9, 5.0],
            &[1.0, 5.0],
            &[1.1, 5.0],
        ]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, None).unwrap();
        let imp = t.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(imp[0] > 0.99);
        assert!(imp[1] < 0.01);
    }

    #[test]
    fn sample_weights_shift_the_split() {
        // Upweighting the positive samples pulls the predicted probability.
        let x = Matrix::from_rows(&[&[0.0], &[0.0], &[0.0], &[0.0]]);
        let y = vec![0, 0, 0, 1];
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, Some(&[1.0, 1.0, 1.0, 9.0])).unwrap();
        let p = t.predict_proba(&x)[0];
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn invalid_params_rejected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let mut t = DecisionTree::new(DecisionTreeParams {
            min_samples_split: 1,
            ..DecisionTreeParams::default()
        });
        assert!(matches!(t.fit(&x, &[0, 1], None), Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, None).unwrap();
        let json = monitorless_std::json::to_string(&t);
        let back: DecisionTree = monitorless_std::json::from_str(&json).unwrap();
        assert_eq!(back.predict_proba(&x), t.predict_proba(&x));
    }

    #[test]
    fn split_threshold_keeps_both_values_apart() {
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        // `a`'s last mantissa bit is odd, so the midpoint rounds onto `b`.
        assert_eq!(a + (b - a) / 2.0, b);
        assert_eq!(split_threshold(a, b), a);
        assert_eq!(split_threshold(-f64::MAX, f64::MAX), -f64::MAX);
        assert_eq!(split_threshold(0.0, f64::INFINITY), 0.0);
        assert_eq!(split_threshold(f64::NEG_INFINITY, 0.0), f64::NEG_INFINITY);
        assert_eq!(split_threshold(1.0, 3.0), 2.0);
    }

    #[test]
    fn adjacent_doubles_grow_one_split() {
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        let x = Matrix::from_rows(&[&[a], &[a], &[b], &[b]]);
        let y = vec![0, 0, 1, 1];
        let weights = [1.0, 2.0, 1.0, 2.0];
        type Fit = fn(&mut DecisionTree, &Matrix, &[u8], Option<&[f64]>) -> Result<(), Error>;
        let fits: [(Fit, Option<&[f64]>); 4] = [
            (|t, x, y, w| t.fit(x, y, w), None),
            (|t, x, y, w| t.fit(x, y, w), Some(&weights)),
            (DecisionTree::fit_resorting, None),
            (DecisionTree::fit_resorting, Some(&weights)),
        ];
        for (fit, w) in fits {
            let mut t = DecisionTree::new(DecisionTreeParams::default());
            fit(&mut t, &x, &y, w).unwrap();
            assert_eq!((t.node_count(), t.predict(&x)), (3, y.clone()), "weights {w:?}");
        }
        // A midpoint of the two ends of the range overflows.
        let x = Matrix::from_rows(&[&[-f64::MAX], &[f64::MAX]]);
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &[0, 1], None).unwrap();
        assert_eq!((t.node_count(), t.predict(&x)), (3, vec![0, 1]));
    }

    #[test]
    fn decision_rules_describe_the_split() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let y = vec![0, 0, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, None).unwrap();
        let rules = t.decision_rules(&["cpu.util".to_string()], 0.5);
        assert_eq!(rules.len(), 1);
        assert!(rules[0].contains("cpu.util >"), "{}", rules[0]);
        assert!(rules[0].contains("p=1.00"));
        // No rule qualifies at an impossible probability floor.
        assert!(t.decision_rules(&["cpu.util".to_string()], 1.1).is_empty());
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::Log2.resolve(64), 6);
        assert_eq!(MaxFeatures::Fraction(0.25).resolve(10), 3);
        assert_eq!(MaxFeatures::Fraction(0.001).resolve(10), 1);
    }

    /// Gap between the entropy filter's decrease estimate,
    /// `parent − score / n`, and the exact decrease of the split into
    /// class counts `(l0, l1)` and `(r0, r1)`.
    fn klogk_gap(t: &[f64], l0: u32, l1: u32, r0: u32, r1: u32) -> f64 {
        let e = SplitCriterion::Entropy;
        let n = f64::from(l0 + l1 + r0 + r1);
        let parent = e.impurity(f64::from(l0 + r0), f64::from(l1 + r1));
        let exact =
            e.decrease((f64::from(l0), f64::from(l1)), (f64::from(r0), f64::from(r1)), parent, n);
        (parent - klogk_score(t, l0, l1, r0, r1) / n - exact).abs()
    }

    #[test]
    fn klogk_score_tracks_the_exact_entropy_far_inside_the_margin() {
        let bound = ENTROPY_MARGIN / 1e4;
        // Every split of every node of up to 64 rows.
        let t = klogk_table(64);
        let mut worst = 0.0f64;
        for n in 2..=64u32 {
            for left in 1..n {
                for l1 in 0..=left {
                    for r1 in 0..=n - left {
                        worst = worst.max(klogk_gap(&t, left - l1, l1, n - left - r1, r1));
                    }
                }
            }
        }
        assert!(worst <= bound, "worst gap {worst:e} up to 64 rows");
        // A million random splits of nodes of up to 200k rows.
        const MAX_ROWS: u32 = 200_000;
        let t = klogk_table(MAX_ROWS as usize);
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut worst = 0.0f64;
        for _ in 0..1_000_000 {
            let n = rng.gen_range(2..MAX_ROWS + 1);
            let left = rng.gen_range(1..n);
            let l1 = rng.gen_range(0..left + 1);
            let r1 = rng.gen_range(0..n - left + 1);
            worst = worst.max(klogk_gap(&t, left - l1, l1, n - left - r1, r1));
        }
        assert!(worst <= bound, "worst gap {worst:e} up to {MAX_ROWS} rows");
    }

    #[test]
    fn bit_equal_entropy_ties_keep_the_first_split() {
        // Splitting off either end row of feature 0 gives bit-equal
        // decreases, the best of all its boundaries, and feature 1 (a
        // rescaled copy) repeats both: the first boundary of the first
        // feature must win, as it does without the entropy filter.
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[1.0, 10.0],
            &[2.0, 20.0],
            &[3.0, 30.0],
            &[4.0, 40.0],
            &[5.0, 50.0],
        ]);
        let y = vec![0, 1, 1, 1, 1, 0];
        let e = SplitCriterion::Entropy;
        let parent = e.impurity(2.0, 4.0);
        let low = e.decrease((1.0, 0.0), (1.0, 4.0), parent, 6.0);
        let high = e.decrease((1.0, 4.0), (1.0, 0.0), parent, 6.0);
        assert_eq!(low.to_bits(), high.to_bits());
        assert!(low > e.decrease((1.0, 1.0), (1.0, 3.0), parent, 6.0));
        assert!(low > e.decrease((1.0, 2.0), (1.0, 2.0), parent, 6.0));

        let params = DecisionTreeParams {
            criterion: SplitCriterion::Entropy,
            max_depth: Some(1),
            ..DecisionTreeParams::default()
        };
        let mut t = DecisionTree::new(params.clone());
        t.fit(&x, &y, None).unwrap();
        assert_eq!(
            t.nodes[0],
            Node::Split {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 2
            }
        );
        let mut legacy = DecisionTree::new(params);
        legacy.fit_resorting(&x, &y, None).unwrap();
        assert_eq!(t, legacy);
    }

    #[test]
    fn decoding_checks_tree_structure() {
        // One check each way here; `tests/model_load.rs` covers every
        // rule through a saved model.
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y, None).unwrap();
        let decode = |t: &DecisionTree| {
            let json = monitorless_std::json::to_string(t);
            monitorless_std::json::from_str::<DecisionTree>(&json).map_err(|e| e.0)
        };
        assert_eq!(decode(&t), Ok(t.clone()));
        let mut unreachable = t.clone();
        unreachable.nodes.push(Node::Leaf { proba: 0.5 });
        let n = t.nodes.len();
        assert_eq!(decode(&unreachable), Err(format!("tree node {n} has no parent")));
        let mut narrow = t.clone();
        narrow.n_features = 1;
        let err = decode(&narrow).unwrap_err();
        assert!(err.contains("split feature 1 is out of range for 1 features"), "{err}");
    }
}

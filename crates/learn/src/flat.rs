//! Flattened, cache-friendly batched inference over fitted tree ensembles.
//!
//! The legacy predict path walks one row at a time through boxed `Node`
//! enums (`DecisionTree::predict_row`): every level is a dependent load
//! — the next node address is only known once the current 40-byte enum
//! arrives — so a 250-tree forest costs thousands of serialized cache
//! round-trips per row. This module compiles a fitted ensemble once
//! into a contiguous struct-of-arrays node table and evaluates blocks
//! of rows in lockstep:
//!
//! * [`FlatEnsemble`] holds all trees' nodes in three parallel walk
//!   arrays (`feature: u32`, `threshold: f64`, `left: u32` — 16 bytes
//!   per node, well under half the enum layout). Each tree is laid out
//!   breadth-first, so siblings sit in adjacent slots and levels form
//!   contiguous runs: the `>` child of a split is always `left + 1`,
//!   the evaluator's layout contract, so no right-child index is
//!   stored. Leaves are marked with the [`LEAF`] sentinel in `feature`
//!   and store their value inline in `threshold`. Leaf values are
//!   **pre-transformed** at compile time (AdaBoost's per-stage vote or
//!   log-odds term, gradient boosting's shrinkage) so the hot loop is
//!   load-and-add for every ensemble.
//! * The blocked evaluator ([`FlatEnsemble::predict_into`]) walks up
//!   to [`BLOCK`] rows at a time through each tree, advancing *all*
//!   rows of the block one level per branchless pass. The rows' walks
//!   are independent, so the out-of-order core overlaps their node
//!   fetches instead of stalling on one row's pointer chase, and the
//!   BFS layout means a descending block touches monotonically
//!   increasing indices — prefetch-friendly, with the shared top
//!   levels staying hot in L1. Rows that reach a leaf stay there
//!   cheaply until the block's stragglers arrive; a short batch walks
//!   only its own rows.
//! * [`FlatEnsemble::predict_proba`] shards row ranges over
//!   `monitorless_std::pool` workers; rows are independent, so results
//!   are bit-identical for every `n_jobs`.
//!   [`FlatEnsemble::predict_rows_into`] is the same evaluator over a
//!   raw row-major slice — the fleet serving tick's entry, which reuses
//!   one gather matrix and one output buffer across ticks and walks it
//!   on the calling thread.
//! * [`FlatEnsemble::predict_row`] is the allocation-free single-row
//!   walk behind `MonitorlessModel::predict_features`: the per-instance
//!   reference loop and the single-row perf gates call it, and the
//!   unit and property suites hold the blocked pass to it bit for bit.
//!
//! Split semantics are exactly the legacy walk's: `row[feature] <=
//! threshold` goes left, anything else — including NaN, for which the
//! comparison is false — goes right, matching the training-time
//! partition of NaN rows. Accumulation per row runs in tree order and
//! the finalizer applies the same expressions as the legacy
//! implementations, so predictions are bit-for-bit identical
//! (`tests/flat_equivalence.rs` pins the property).

use monitorless_obs as obs;

use crate::matrix::Matrix;

/// Sentinel in [`FlatEnsemble`]'s `feature` array marking a leaf node
/// (its `threshold` slot holds the pre-transformed leaf value).
pub const LEAF: u32 = u32::MAX;

/// Rows walked in lockstep per tree. 64 rows keep the pass state (two
/// index arrays and the output slice) inside a few cache lines while
/// exposing enough independent walks to hide node-fetch latency; the
/// bench sweep in `table7_predict` showed no gain past this size.
pub const BLOCK: usize = 64;

/// How a row's accumulated leaf sum becomes the final probability.
///
/// Each variant reproduces one legacy ensemble's post-processing
/// expression verbatim so results stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Finalize {
    /// Return the raw sum (single decision tree: the sum is one leaf
    /// probability).
    Sum,
    /// Divide by the tree count (random forest).
    Mean(f64),
    /// Logistic link over the normalized margin,
    /// `1 / (1 + exp(-2 (acc / norm)))` (AdaBoost; `norm` is the alpha
    /// sum for SAMME, `1.0` for SAMME.R).
    Logit(f64),
    /// Plain sigmoid `1 / (1 + exp(-acc))` (gradient boosting; the
    /// accumulator starts at `base_score`).
    Sigmoid,
}

/// A fitted tree ensemble compiled to a contiguous SoA node table.
///
/// Build one with the `to_flat` method of [`crate::DecisionTree`],
/// [`crate::RandomForest`], [`crate::AdaBoost`] or
/// [`crate::GradientBoosting`], or assemble it tree by tree with
/// [`FlatBuilder`]. The table is immutable; compiling costs one pass
/// over the ensemble's nodes, so long-lived callers (the monitorless
/// model, the autoscaler) compile once and reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatEnsemble {
    /// Split feature per node; [`LEAF`] marks leaves.
    feature: Vec<u32>,
    /// Split threshold per node; at leaves, the pre-transformed value.
    threshold: Vec<f64>,
    /// Absolute index of the `<=` child; the `>` (and NaN) child is its
    /// BFS sibling at `left + 1`. Leaves point at themselves.
    left: Vec<u32>,
    /// Absolute root index of each tree, in accumulation order.
    roots: Vec<u32>,
    /// Expected margin value per node: the leaf value at leaves, the
    /// unweighted mean of the two children at splits (computed once at
    /// build time; see [`FlatEnsemble::predict_row_attributed`]).
    node_value: Vec<f64>,
    n_features: usize,
    /// Accumulator start value (gradient boosting's `base_score`).
    init: f64,
    finalize: Finalize,
}

impl FlatEnsemble {
    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Feature count the ensemble was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The features some split of some tree reads, ascending and
    /// without duplicates. A feature missing from it cannot move a
    /// prediction; an ensemble of leaves alone reads none.
    pub fn split_features(&self) -> Vec<usize> {
        let mut read = vec![false; self.n_features];
        for &f in &self.feature {
            if f != LEAF {
                read[f as usize] = true;
            }
        }
        (0..self.n_features).filter(|&f| read[f]).collect()
    }

    /// The child a split node `n` sends value `v` to: `left` when
    /// `v <= threshold`, its sibling `left + 1` otherwise. `v <= thr`
    /// must stay the split test: NaN fails it and falls to the right
    /// child, matching the legacy recursive walk bit for bit.
    #[inline]
    fn child(&self, n: usize, v: f64) -> usize {
        let goes_left = v <= self.threshold[n];
        self.left[n] as usize + usize::from(!goes_left)
    }

    #[inline]
    fn finalize_value(&self, acc: f64) -> f64 {
        match self.finalize {
            Finalize::Sum => acc,
            Finalize::Mean(n) => acc / n,
            Finalize::Logit(norm) => {
                let z = acc / norm;
                1.0 / (1.0 + (-2.0 * z).exp())
            }
            Finalize::Sigmoid => 1.0 / (1.0 + (-acc).exp()),
        }
    }

    /// Probability of the positive class for a single sample.
    ///
    /// Performs no allocation — this is the autoscaler tick path
    /// (`table7_predict` asserts the allocation count stays zero).
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty or `row` is shorter than the
    /// training feature count.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.roots.is_empty(), "flat ensemble has no trees");
        assert!(
            row.len() >= self.n_features,
            "row has {} features, ensemble was trained on {}",
            row.len(),
            self.n_features
        );
        let mut acc = self.init;
        for &root in &self.roots {
            let mut n = root as usize;
            loop {
                let f = self.feature[n];
                if f == LEAF {
                    acc += self.threshold[n];
                    break;
                }
                n = self.child(n, row[f as usize]);
            }
        }
        self.finalize_value(acc)
    }

    /// The ensemble's expected margin before any feature is consulted:
    /// `init` plus each tree's root value. Together with the
    /// contribution vector of [`FlatEnsemble::predict_row_attributed`]
    /// this reconstructs the raw margin exactly:
    /// `baseline + Σ contributions = init + Σ leaf values`.
    pub fn baseline(&self) -> f64 {
        self.init
            + self
                .roots
                .iter()
                .map(|&r| self.node_value[r as usize])
                .sum::<f64>()
    }

    /// [`FlatEnsemble::predict_row`] plus per-feature attribution.
    ///
    /// Walks the same root-to-leaf paths with the same `v <= thr` test
    /// and the same accumulation order, so the returned probability is
    /// **bit-identical** to [`FlatEnsemble::predict_row`]. Along the
    /// way, every split step parent → child charges the split's feature
    /// with the change in expected margin,
    /// `node_value[child] − node_value[parent]` (the Saabas
    /// decomposition). Per tree those deltas telescope to
    /// `leaf − root`, so over the ensemble
    ///
    /// ```text
    /// baseline() + Σ contributions[f]  =  raw margin (init + Σ leaves)
    /// ```
    ///
    /// holds exactly (up to float associativity) for *any* consistent
    /// node-value assignment; this table stores no training sample
    /// counts, so split values use the unweighted mean of the two
    /// children. Contributions live in margin space (pre-`finalize`);
    /// every finalizer is monotone, so sign and ranking carry over to
    /// probability space.
    ///
    /// # Panics
    ///
    /// As [`FlatEnsemble::predict_row`], plus if `contributions.len()`
    /// differs from the training feature count.
    pub fn predict_row_attributed(&self, row: &[f64], contributions: &mut [f64]) -> f64 {
        assert!(!self.roots.is_empty(), "flat ensemble has no trees");
        assert!(
            row.len() >= self.n_features,
            "row has {} features, ensemble was trained on {}",
            row.len(),
            self.n_features
        );
        assert_eq!(
            contributions.len(),
            self.n_features,
            "contribution buffer must have one slot per feature"
        );
        contributions.fill(0.0);
        let mut acc = self.init;
        for &root in &self.roots {
            let mut n = root as usize;
            loop {
                let f = self.feature[n];
                if f == LEAF {
                    acc += self.threshold[n];
                    break;
                }
                let next = self.child(n, row[f as usize]);
                contributions[f as usize] += self.node_value[next] - self.node_value[n];
                n = next;
            }
        }
        obs::counter_add("attribution.rows", 1);
        self.finalize_value(acc)
    }

    /// Mean absolute per-feature contribution over every row of `x` —
    /// a global importance ranking in margin space (used by
    /// `interpret::distill` to cite the metrics that drive the model).
    ///
    /// # Panics
    ///
    /// As [`FlatEnsemble::predict_row_attributed`] per row.
    pub fn mean_abs_attribution(&self, x: &Matrix) -> Vec<f64> {
        let mut mean = vec![0.0; self.n_features];
        if x.rows() == 0 {
            return mean;
        }
        let mut contrib = vec![0.0; self.n_features];
        for r in 0..x.rows() {
            self.predict_row_attributed(x.row(r), &mut contrib);
            for (m, c) in mean.iter_mut().zip(&contrib) {
                *m += c.abs();
            }
        }
        let n = x.rows() as f64;
        for m in &mut mean {
            *m /= n;
        }
        mean
    }

    /// Walks rows `row0 .. row0 + out.len()` of `data` (row-major,
    /// `cols` wide) through every tree in lockstep and writes the
    /// finalized probabilities into `out` (`out.len() <= BLOCK`).
    ///
    /// Each pass advances *every* row of the block one level with no
    /// data-dependent branch: a row that has reached a leaf is pinned
    /// there by a select while the stragglers descend, and the leaf
    /// test compiles to a conditional move instead of an unpredictable
    /// branch. That keeps up to [`BLOCK`] independent node fetches of a
    /// pass in flight at once — the whole point of blocking — where an
    /// early-exit branch would flush them on every misprediction. A
    /// short block walks only its own rows, so a 1–3-row call costs a
    /// few single-row walks, not a full block's.
    fn eval_block(&self, data: &[f64], cols: usize, row0: usize, out: &mut [f64]) {
        let b = out.len();
        debug_assert!(b <= BLOCK);
        out.fill(self.init);
        let feat = self.feature.as_slice();
        let thr = self.threshold.as_slice();
        let left = self.left.as_slice();
        let mut bases = [0usize; BLOCK];
        for (o, base) in bases[..b].iter_mut().enumerate() {
            *base = (row0 + o) * cols;
        }
        let mut idx = [0u32; BLOCK];
        for &root in &self.roots {
            let r = root as usize;
            if feat[r] == LEAF {
                // Single-leaf tree (depth-0 stump): no walk needed.
                let v = thr[r];
                for a in out.iter_mut() {
                    *a += v;
                }
                continue;
            }
            idx[..b].fill(root);
            loop {
                let mut moved = 0u32;
                for (slot, &base) in idx[..b].iter_mut().zip(&bases[..b]) {
                    let n = *slot as usize;
                    let f = feat[n];
                    // At a leaf, load any in-range column: the select
                    // below pins the row in place regardless.
                    let fi = if f == LEAF { 0 } else { f as usize };
                    let v = data[base + fi];
                    // Siblings are adjacent (the builder's BFS
                    // layout), so the left index plus the comparison
                    // bit picks the child. `v <= thr` must stay the
                    // split test (NaN fails it → right), so the
                    // right-child bit is its boolean negation.
                    let goes_left = v <= thr[n];
                    let step = left[n] + u32::from(!goes_left);
                    let next = if f == LEAF { *slot } else { step };
                    moved |= next ^ *slot;
                    *slot = next;
                }
                if moved == 0 {
                    break;
                }
            }
            for (o, a) in out.iter_mut().enumerate() {
                *a += thr[idx[o] as usize];
            }
        }
        for a in out.iter_mut() {
            *a = self.finalize_value(*a);
        }
    }

    /// Walks rows `row0 .. row0 + out.len()` of `data` one
    /// [`BLOCK`]-row block at a time.
    fn eval_blocks(&self, data: &[f64], cols: usize, row0: usize, out: &mut [f64]) {
        for (k, block) in out.chunks_mut(BLOCK).enumerate() {
            self.eval_block(data, cols, row0 + k * BLOCK, block);
        }
    }

    /// Batched probability of the positive class for each row of `x`.
    ///
    /// Row-blocks are sharded over `n_jobs` pool workers; rows are
    /// independent, so the result is bit-identical for every `n_jobs`
    /// (and to [`FlatEnsemble::predict_row`] per row).
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty or `x` has a different column
    /// count than the training matrix.
    pub fn predict_proba(&self, x: &Matrix, n_jobs: usize) -> Vec<f64> {
        let mut out = vec![0.0; x.rows()];
        self.predict_into(x, &mut out, n_jobs);
        out
    }

    /// [`FlatEnsemble::predict_proba`] into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// As [`FlatEnsemble::predict_proba`], plus if `out.len()` differs
    /// from `x.rows()`.
    pub fn predict_into(&self, x: &Matrix, out: &mut [f64], n_jobs: usize) {
        assert_eq!(out.len(), x.rows(), "output length must match row count");
        self.predict_rows_into(x.as_slice(), x.cols(), out, n_jobs);
    }

    /// [`FlatEnsemble::predict_into`] over a raw row-major slice.
    ///
    /// The fleet serving tick gathers all instances' feature rows into
    /// one reused flat buffer; this entry point scores it without
    /// requiring a [`Matrix`] wrapper (which would copy or re-own the
    /// data). One probability per row is written to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty, `cols` differs from the
    /// training feature count, or `data.len() != out.len() * cols`.
    pub fn predict_rows_into(&self, data: &[f64], cols: usize, out: &mut [f64], n_jobs: usize) {
        assert!(!self.roots.is_empty(), "flat ensemble has no trees");
        assert_eq!(cols, self.n_features, "feature count must match training data");
        let rows = out.len();
        assert_eq!(data.len(), rows * cols, "data length must be rows * cols");
        if rows == 0 {
            return;
        }
        let n_blocks = rows.div_ceil(BLOCK);
        let n_jobs = n_jobs.max(1).min(n_blocks);
        let span = obs::Span::enter("predict.batch");
        // Static row chunks; each worker walks its own blocks. Chunk `i`
        // starts at row `i * chunk_size` (the pool's documented
        // partitioning); one worker walks every row inline.
        let chunk_size = rows.div_ceil(n_jobs);
        let workers = obs::WorkerTelemetry::new(
            n_jobs,
            "predict.worker_busy_us",
            "predict.worker_utilization",
        );
        monitorless_std::pool::for_each_chunk_mut(out, n_jobs, |chunk_id, chunk| {
            workers.time(|| self.eval_blocks(data, cols, chunk_id * chunk_size, chunk));
        });
        workers.finish(&span);
        drop(span);
        obs::counter_add("predict.rows", rows as u64);
        obs::counter_add("predict.blocks", n_blocks as u64);
    }
}

/// Incremental builder for [`FlatEnsemble`], appending one tree at a
/// time in accumulation order.
///
/// The ensemble `to_flat` implementations drive this; leaf values must
/// arrive already transformed (vote weight, log-odds term, shrinkage
/// applied) so the evaluator can treat every ensemble identically.
#[derive(Debug)]
pub struct FlatBuilder {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    roots: Vec<u32>,
    n_features: usize,
    init: f64,
    finalize: Finalize,
    /// Nodes of the tree currently being appended, in push order with
    /// tree-local child indices; renumbered on flush.
    pending_feature: Vec<u32>,
    pending_threshold: Vec<f64>,
    pending_left: Vec<u32>,
    pending_right: Vec<u32>,
    in_tree: bool,
}

impl FlatBuilder {
    /// Creates a builder for an ensemble over `n_features` inputs whose
    /// per-row accumulator starts at `init` and is post-processed by
    /// `finalize`.
    pub fn new(n_features: usize, init: f64, finalize: Finalize) -> Self {
        FlatBuilder {
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            roots: Vec::new(),
            n_features,
            init,
            finalize,
            pending_feature: Vec::new(),
            pending_threshold: Vec::new(),
            pending_left: Vec::new(),
            pending_right: Vec::new(),
            in_tree: false,
        }
    }

    /// Starts the next tree. Its first pushed node is the root; child
    /// indices passed to [`FlatBuilder::push_split`] are local to this
    /// tree.
    pub fn begin_tree(&mut self) {
        self.flush_tree();
        self.in_tree = true;
    }

    /// Appends a leaf holding the pre-transformed `value`.
    ///
    /// # Panics
    ///
    /// Panics if no tree has been begun.
    pub fn push_leaf(&mut self, value: f64) {
        assert!(self.in_tree, "push_leaf before begin_tree");
        self.pending_feature.push(LEAF);
        self.pending_threshold.push(value);
        self.pending_left.push(0);
        self.pending_right.push(0);
    }

    /// Appends a split on `feature <= threshold` with tree-local child
    /// indices `left` / `right` (rebased internally).
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range for the ensemble or no tree
    /// has been begun.
    pub fn push_split(&mut self, feature: u32, threshold: f64, left: u32, right: u32) {
        assert!(self.in_tree, "push_split before begin_tree");
        assert!(
            (feature as usize) < self.n_features,
            "split feature {feature} out of range for {} features",
            self.n_features
        );
        self.pending_feature.push(feature);
        self.pending_threshold.push(threshold);
        self.pending_left.push(left);
        self.pending_right.push(right);
    }

    /// Renumbers the pending tree breadth-first and appends it to the
    /// global table. BFS order puts siblings in adjacent slots (the
    /// right child of every split sits at `left + 1`, the evaluator's
    /// layout contract, so only `left` is stored) and levels in
    /// contiguous runs, so a descending block of rows touches
    /// monotonically increasing node indices.
    ///
    /// # Panics
    ///
    /// Panics on a malformed tree: a child index outside the tree, a
    /// node with two parents, or unreachable nodes. The evaluator
    /// relies on every walk terminating at a leaf of the same tree.
    fn flush_tree(&mut self) {
        if !self.in_tree {
            return;
        }
        self.in_tree = false;
        let n = self.pending_feature.len();
        assert!(n > 0, "begin_tree was not followed by any nodes");
        let base = self.feature.len() as u32;
        self.roots.push(base);
        // `map[old] = new` tree-local index; `order[new] = old`.
        let mut map = vec![u32::MAX; n];
        let mut order = Vec::with_capacity(n);
        map[0] = 0;
        order.push(0u32);
        let mut head = 0;
        while head < order.len() {
            let old = order[head] as usize;
            head += 1;
            if self.pending_feature[old] == LEAF {
                continue;
            }
            let (l, r) = (self.pending_left[old] as usize, self.pending_right[old] as usize);
            assert!(
                l < n && r < n && map[l] == u32::MAX && map[r] == u32::MAX,
                "split node {old} links outside its tree (0..{n})"
            );
            map[l] = order.len() as u32;
            map[r] = order.len() as u32 + 1;
            order.push(l as u32);
            order.push(r as u32);
        }
        assert_eq!(order.len(), n, "tree has {} unreachable nodes", n - order.len());
        for &old in &order {
            let old = old as usize;
            let f = self.pending_feature[old];
            self.feature.push(f);
            self.threshold.push(self.pending_threshold[old]);
            let left = if f == LEAF {
                self.feature.len() as u32 - 1
            } else {
                base + map[self.pending_left[old] as usize]
            };
            self.left.push(left);
        }
        self.pending_feature.clear();
        self.pending_threshold.clear();
        self.pending_left.clear();
        self.pending_right.clear();
    }

    /// Finishes the table.
    ///
    /// # Panics
    ///
    /// Panics if the last tree is malformed (see
    /// [`FlatBuilder::begin_tree`] / the flush contract): a child index
    /// outside its own tree, shared children, or unreachable nodes.
    pub fn build(mut self) -> FlatEnsemble {
        self.flush_tree();
        // Expected margin per node, bottom-up. The BFS layout guarantees
        // children sit at strictly higher indices than their parent, so
        // one reverse pass over the global table resolves every tree.
        let mut node_value = vec![0.0; self.feature.len()];
        for i in (0..self.feature.len()).rev() {
            node_value[i] = if self.feature[i] == LEAF {
                self.threshold[i]
            } else {
                let l = self.left[i] as usize;
                0.5 * (node_value[l] + node_value[l + 1])
            };
        }
        FlatEnsemble {
            feature: self.feature,
            threshold: self.threshold,
            left: self.left,
            roots: self.roots,
            node_value,
            n_features: self.n_features,
            init: self.init,
            finalize: self.finalize,
        }
    }
}

/// Indices and values of the `k` largest-magnitude contributions,
/// sorted by descending `|contribution|` (ties broken by feature
/// index). Zero contributions are skipped, so fewer than `k` entries
/// may return.
pub fn top_k_contributions(contributions: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = contributions
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| *c != 0.0)
        .collect();
    ranked.sort_by(|a, b| {
        b.1.abs()
            .partial_cmp(&a.1.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x[0] <= 1.0 ? 0.2 : 0.8, built by hand.
    fn stump() -> FlatEnsemble {
        let mut b = FlatBuilder::new(2, 0.0, Finalize::Sum);
        b.begin_tree();
        b.push_split(0, 1.0, 1, 2);
        b.push_leaf(0.2);
        b.push_leaf(0.8);
        b.build()
    }

    #[test]
    fn stump_routes_rows() {
        let f = stump();
        assert_eq!(f.predict_row(&[0.5, 9.0]), 0.2);
        assert_eq!(f.predict_row(&[1.0, 9.0]), 0.2); // boundary goes left
        assert_eq!(f.predict_row(&[1.5, 9.0]), 0.8);
    }

    #[test]
    fn nan_goes_right() {
        let f = stump();
        assert_eq!(f.predict_row(&[f64::NAN, 0.0]), 0.8);
    }

    #[test]
    fn single_leaf_tree() {
        let mut b = FlatBuilder::new(1, 0.0, Finalize::Sum);
        b.begin_tree();
        b.push_leaf(0.7);
        let f = b.build();
        assert_eq!(f.predict_row(&[123.0]), 0.7);
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        assert_eq!(f.predict_proba(&x, 1), vec![0.7; 3]);
    }

    #[test]
    fn mean_finalize_averages_trees() {
        let mut b = FlatBuilder::new(1, 0.0, Finalize::Mean(2.0));
        b.begin_tree();
        b.push_leaf(0.4);
        b.begin_tree();
        b.push_leaf(0.8);
        let f = b.build();
        assert_eq!(f.n_trees(), 2);
        assert_eq!(f.predict_row(&[0.0]), (0.4 + 0.8) / 2.0);
    }

    #[test]
    fn batch_matches_single_row_across_blocks() {
        let f = stump();
        // More rows than one block to cover the block loop.
        let rows: Vec<Vec<f64>> = (0..BLOCK * 2 + 7)
            .map(|i| vec![(i % 5) as f64, 0.0])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let batch = f.predict_proba(&x, 1);
        for (row, &got) in rows.iter().zip(&batch) {
            assert_eq!(got, f.predict_row(row));
        }
    }

    #[test]
    fn n_jobs_does_not_change_bits() {
        let f = stump();
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 7) as f64 * 0.3, 0.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let one = f.predict_proba(&x, 1);
        for jobs in [2, 3, 8] {
            assert_eq!(f.predict_proba(&x, jobs), one, "n_jobs = {jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "links outside its tree")]
    fn cross_tree_link_rejected() {
        let mut b = FlatBuilder::new(1, 0.0, Finalize::Sum);
        b.begin_tree();
        b.push_leaf(0.1);
        b.begin_tree();
        b.push_split(0, 0.5, 1, 2); // children past this tree's end
        b.build();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_feature_rejected() {
        let mut b = FlatBuilder::new(1, 0.0, Finalize::Sum);
        b.begin_tree();
        b.push_split(3, 0.5, 1, 2);
    }

    #[test]
    fn empty_matrix_is_a_no_op() {
        let f = stump();
        let x = Matrix::zeros(0, 2);
        assert!(f.predict_proba(&x, 4).is_empty());
    }

    #[test]
    fn attribution_probability_is_bit_identical() {
        let f = stump();
        let mut contrib = vec![0.0; 2];
        for row in [[0.5, 9.0], [1.0, 9.0], [1.5, 9.0], [f64::NAN, 0.0]] {
            let plain = f.predict_row(&row);
            let attributed = f.predict_row_attributed(&row, &mut contrib);
            assert_eq!(plain.to_bits(), attributed.to_bits());
        }
    }

    #[test]
    fn stump_attribution_charges_split_feature() {
        let f = stump();
        // node_value at the root = mean(0.2, 0.8) = 0.5, so going left
        // charges x0 with 0.2 - 0.5 and going right with 0.8 - 0.5.
        assert_eq!(f.baseline(), 0.5);
        let mut contrib = vec![0.0; 2];
        f.predict_row_attributed(&[0.0, 3.0], &mut contrib);
        assert_eq!(contrib, vec![0.2 - 0.5, 0.0]);
        f.predict_row_attributed(&[2.0, 3.0], &mut contrib);
        assert_eq!(contrib, vec![0.8 - 0.5, 0.0]);
    }

    use monitorless_std::rng::{Rng as _, StdRng};

    /// Appends one random perfect binary tree of the given depth over 3
    /// features; values and splits are derived from the RNG.
    fn push_random_tree(b: &mut FlatBuilder, rng: &mut StdRng, depth: u32) {
        b.begin_tree();
        // Pre-order; tree-local indices are assigned in push order, so a
        // split's left child is the next pushed node and its right child
        // sits one full left subtree (2^depth − 1 nodes) later.
        fn push(b: &mut FlatBuilder, rng: &mut StdRng, depth: u32, next: &mut u32) {
            *next += 1;
            if depth == 0 {
                b.push_leaf(rng.gen_f64() * 2.0 - 1.0);
                return;
            }
            let feature = (rng.next_u64() % 3) as u32;
            let threshold = rng.gen_f64();
            let left = *next;
            let right = left + (1 << depth) - 1;
            b.push_split(feature, threshold, left, right);
            push(b, rng, depth - 1, next);
            push(b, rng, depth - 1, next);
        }
        let mut next = 0;
        push(b, rng, depth, &mut next);
    }

    #[test]
    fn attribution_sums_to_margin_on_random_forests() {
        let mut rng = StdRng::seed_from_u64(0x05ee_da77);
        for trial in 0..50u32 {
            let n_trees = 1 + (trial % 7);
            let mut b = FlatBuilder::new(3, 0.1, Finalize::Sum);
            for _ in 0..n_trees {
                push_random_tree(&mut b, &mut rng, 1 + (trial % 4));
            }
            let f = b.build();
            let mut contrib = vec![0.0; 3];
            for _ in 0..20 {
                let row = [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()];
                let margin = f.predict_row(&row); // Finalize::Sum → raw margin
                f.predict_row_attributed(&row, &mut contrib);
                let reconstructed = f.baseline() + contrib.iter().sum::<f64>();
                assert!(
                    (margin - reconstructed).abs() < 1e-9,
                    "trial {trial}: margin {margin} != baseline+Σcontrib {reconstructed}"
                );
            }
        }
    }

    #[test]
    fn top_k_ranks_by_magnitude() {
        let contrib = [0.1, -0.6, 0.0, 0.3];
        assert_eq!(top_k_contributions(&contrib, 2), vec![(1, -0.6), (3, 0.3)]);
        assert_eq!(top_k_contributions(&contrib, 10), vec![(1, -0.6), (3, 0.3), (0, 0.1)]);
        assert!(top_k_contributions(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn mean_abs_attribution_ranks_the_split_feature_first() {
        let f = stump();
        let x = Matrix::from_rows(&[&[0.0, 5.0], &[2.0, 5.0], &[3.0, 5.0]]);
        let mean = f.mean_abs_attribution(&x);
        assert!(mean[0] > 0.0, "split feature must carry weight");
        assert_eq!(mean[1], 0.0, "unused feature must carry none");
    }

    #[test]
    fn block_pass_matches_predict_row_on_random_forests() {
        let mut rng = StdRng::seed_from_u64(0x9acc_ed01);
        for trial in 0..20u32 {
            let mut b = FlatBuilder::new(3, 0.25, Finalize::Mean(1.0 + (trial % 5) as f64));
            for _ in 0..1 + (trial % 5) {
                push_random_tree(&mut b, &mut rng, 1 + (trial % 4));
            }
            let f = b.build();
            let rows: Vec<Vec<f64>> = (0..BLOCK + 17)
                .map(|i| {
                    if i % 13 == 0 {
                        vec![f64::NAN, rng.gen_f64(), rng.gen_f64()]
                    } else {
                        vec![rng.gen_f64(), rng.gen_f64(), rng.gen_f64()]
                    }
                })
                .collect();
            let want: Vec<u64> = rows.iter().map(|r| f.predict_row(r).to_bits()).collect();
            // Every batch length: 1–3-row calls, one full block, and a
            // block plus a ragged tail split over workers.
            for len in 1..=rows.len() {
                let refs: Vec<&[f64]> = rows[..len].iter().map(|r| r.as_slice()).collect();
                let x = Matrix::from_rows(&refs);
                for jobs in [1, 4] {
                    for (i, p) in f.predict_proba(&x, jobs).iter().enumerate() {
                        assert_eq!(
                            p.to_bits(),
                            want[i],
                            "trial {trial} len {len} row {i} n_jobs {jobs}: block != predict_row"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_feature_space_predicts_exactly() {
        // 2000 features, split on a high index: both entries route
        // the row by that column alone.
        let n = 2000;
        let mut b = FlatBuilder::new(n, 0.0, Finalize::Sum);
        b.begin_tree();
        b.push_split(1500, 0.5, 1, 2);
        b.push_leaf(0.2);
        b.push_leaf(0.8);
        let f = b.build();
        let mut row = vec![0.0; n];
        assert_eq!(f.predict_row(&row), 0.2);
        row[1500] = 1.0;
        assert_eq!(f.predict_row(&row), 0.8);
        let x = Matrix::from_rows(&[row.as_slice()]);
        assert_eq!(f.predict_proba(&x, 1), vec![0.8]);
    }

    #[test]
    fn split_features_are_ascending_unique_and_skip_leaves() {
        let mut b = FlatBuilder::new(6, 0.0, Finalize::Sum);
        // Pushed out of order, with feature 4 split on in two trees and
        // twice in one, and a tree that is a lone leaf.
        b.begin_tree();
        b.push_split(4, 0.5, 1, 2);
        b.push_split(1, 0.5, 3, 4);
        b.push_split(4, 1.5, 5, 6);
        b.push_leaf(0.1);
        b.push_leaf(0.2);
        b.push_leaf(0.3);
        b.push_leaf(0.4);
        b.begin_tree();
        b.push_leaf(0.5);
        b.begin_tree();
        b.push_split(4, 0.0, 1, 2);
        b.push_leaf(0.6);
        b.push_leaf(0.7);
        assert_eq!(b.build().split_features(), vec![1, 4]);

        let mut leaves = FlatBuilder::new(3, 0.0, Finalize::Mean(2.0));
        for v in [0.2, 0.8] {
            leaves.begin_tree();
            leaves.push_leaf(v);
        }
        assert!(leaves.build().split_features().is_empty());
    }

    #[test]
    fn predict_rows_into_matches_matrix_entry() {
        let f = stump();
        let rows: Vec<Vec<f64>> = (0..150).map(|i| vec![(i % 9) as f64 * 0.4, 1.0]).collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let via_matrix = f.predict_proba(&x, 1);
        for jobs in [1, 4] {
            let mut out = vec![0.0; rows.len()];
            f.predict_rows_into(&flat, 2, &mut out, jobs);
            assert_eq!(out, via_matrix, "n_jobs = {jobs}");
        }
    }
}

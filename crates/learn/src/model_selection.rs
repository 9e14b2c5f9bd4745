//! Cross-validation and grid search.
//!
//! The paper performs 5-fold cross-validation where folds are formed from
//! whole *training sets* (Table 1 rows): each fold trains on 20 sets and
//! validates on 5. [`GroupKFold`] reproduces that scheme; a plain shuffled
//! [`KFold`] is provided as well. [`GridSearch`] exhaustively evaluates a
//! Cartesian hyper-parameter grid (Table 2) with any scorer.

use std::collections::BTreeMap;

use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

use crate::presort::FitCache;
use crate::{Classifier, Error, Matrix};

/// A `(train_indices, validation_indices)` pair.
pub type Split = (Vec<usize>, Vec<usize>);

/// Plain k-fold splitter over sample indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KFold {
    /// Number of folds (≥ 2).
    pub n_splits: usize,
    /// Whether to shuffle before splitting.
    pub shuffle: bool,
    /// Seed used when shuffling.
    pub seed: u64,
}

impl KFold {
    /// Creates a shuffled k-fold splitter.
    pub fn new(n_splits: usize) -> Self {
        KFold {
            n_splits,
            shuffle: true,
            seed: 0,
        }
    }

    /// Generates the folds for `n` samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `n_splits < 2` or there are
    /// fewer samples than folds.
    pub fn split(&self, n: usize) -> Result<Vec<Split>, Error> {
        if self.n_splits < 2 {
            return Err(Error::InvalidParameter("n_splits must be at least 2".into()));
        }
        if n < self.n_splits {
            return Err(Error::InvalidParameter(format!(
                "cannot split {n} samples into {} folds",
                self.n_splits
            )));
        }
        let mut indices: Vec<usize> = (0..n).collect();
        if self.shuffle {
            StdRng::seed_from_u64(self.seed).shuffle(&mut indices);
        }
        let fold_sizes = fold_sizes(n, self.n_splits);
        let mut splits = Vec::with_capacity(self.n_splits);
        let mut start = 0;
        for size in fold_sizes {
            let val: Vec<usize> = indices[start..start + size].to_vec();
            let train: Vec<usize> = indices[..start]
                .iter()
                .chain(&indices[start + size..])
                .copied()
                .collect();
            splits.push((train, val));
            start += size;
        }
        Ok(splits)
    }
}

/// Splits whole groups (training configurations) into folds, so no group
/// appears in both the train and validation side of a fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupKFold {
    /// Number of folds (≥ 2).
    pub n_splits: usize,
}

impl GroupKFold {
    /// Creates a group k-fold splitter.
    pub fn new(n_splits: usize) -> Self {
        GroupKFold { n_splits }
    }

    /// Generates folds from per-sample group ids.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `n_splits < 2` or there are
    /// fewer distinct groups than folds.
    pub fn split(&self, groups: &[u32]) -> Result<Vec<Split>, Error> {
        if self.n_splits < 2 {
            return Err(Error::InvalidParameter("n_splits must be at least 2".into()));
        }
        let mut distinct: Vec<u32> = groups.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() < self.n_splits {
            return Err(Error::InvalidParameter(format!(
                "cannot split {} groups into {} folds",
                distinct.len(),
                self.n_splits
            )));
        }
        let sizes = fold_sizes(distinct.len(), self.n_splits);
        let mut splits = Vec::with_capacity(self.n_splits);
        let mut start = 0;
        for size in sizes {
            let val_groups: &[u32] = &distinct[start..start + size];
            let mut train = Vec::new();
            let mut val = Vec::new();
            for (i, g) in groups.iter().enumerate() {
                if val_groups.contains(g) {
                    val.push(i);
                } else {
                    train.push(i);
                }
            }
            splits.push((train, val));
            start += size;
        }
        Ok(splits)
    }
}

fn fold_sizes(n: usize, k: usize) -> Vec<usize> {
    let base = n / k;
    let extra = n % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

/// Per-fold scores and their mean.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Score of each fold.
    pub fold_scores: Vec<f64>,
}

impl CvResult {
    /// Mean score across folds; 0.0 when there are no folds.
    pub fn mean(&self) -> f64 {
        if self.fold_scores.is_empty() {
            return 0.0;
        }
        self.fold_scores.iter().sum::<f64>() / self.fold_scores.len() as f64
    }
}

/// One fold's materialized train/validation data plus the lazily built
/// presort cache every candidate fitting on this fold shares.
#[derive(Debug)]
struct FoldData {
    x_train: Matrix,
    y_train: Vec<u8>,
    x_val: Matrix,
    y_val: Vec<u8>,
    cache: FitCache,
}

fn prepare_folds(x: &Matrix, y: &[u8], splits: &[Split]) -> Vec<FoldData> {
    splits
        .iter()
        .map(|(train, val)| FoldData {
            x_train: x.select_rows(train),
            y_train: train.iter().map(|&i| y[i]).collect(),
            x_val: x.select_rows(val),
            y_val: val.iter().map(|&i| y[i]).collect(),
            cache: FitCache::new(),
        })
        .collect()
}

/// Evaluates one fold: fit (through the fold's shared presort cache),
/// predict, score. `Ok(None)` marks a degenerate (skipped) fold.
fn evaluate_fold<S>(
    fold: &FoldData,
    mut clf: Box<dyn Classifier>,
    scorer: &S,
) -> Result<Option<f64>, Error>
where
    S: Fn(&[u8], &[u8]) -> f64,
{
    match clf.fit_cached(&fold.x_train, &fold.cache, &fold.y_train, None) {
        Ok(()) => {}
        Err(Error::InvalidLabels) => return Ok(None),
        Err(e) => return Err(e),
    }
    let pred = clf.predict(&fold.x_val);
    Ok(Some(scorer(&fold.y_val, &pred)))
}

/// A hyper-parameter value in a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Floating-point parameter (e.g. `C`, `tol`, `gamma`).
    F(f64),
    /// Integer parameter (e.g. `n_estimators`, `max_depth`).
    I(i64),
    /// Categorical parameter (e.g. `criterion`, `class_weight`).
    S(String),
    /// Boolean parameter.
    B(bool),
}

impl ParamValue {
    /// The value as `f64`, if the variant is `F` or `I`.
    pub fn try_as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::F(v) => Some(*v),
            ParamValue::I(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `usize`, if the variant is a non-negative `I`.
    pub fn try_as_usize(&self) -> Option<usize> {
        match self {
            ParamValue::I(v) if *v >= 0 => Some(*v as usize),
            _ => None,
        }
    }

    /// The value as `&str`, if the variant is `S`.
    pub fn try_as_str(&self) -> Option<&str> {
        match self {
            ParamValue::S(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if the variant is `B`.
    pub fn try_as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::B(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `F` or `I`; grid definitions are
    /// static, so a mismatch is a programming error. Use
    /// [`ParamValue::try_as_f64`] for dynamic grids.
    pub fn as_f64(&self) -> f64 {
        self.try_as_f64()
            .unwrap_or_else(|| panic!("parameter {self:?} is not numeric"))
    }

    /// The value as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `I` or the value is negative. Use
    /// [`ParamValue::try_as_usize`] for dynamic grids.
    pub fn as_usize(&self) -> usize {
        self.try_as_usize()
            .unwrap_or_else(|| panic!("parameter {self:?} is not a non-negative integer"))
    }

    /// The value as `&str`.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `S`. Use [`ParamValue::try_as_str`]
    /// for dynamic grids.
    pub fn as_str(&self) -> &str {
        self.try_as_str()
            .unwrap_or_else(|| panic!("parameter {self:?} is not a string"))
    }

    /// The value as `bool`.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `B`. Use [`ParamValue::try_as_bool`]
    /// for dynamic grids.
    pub fn as_bool(&self) -> bool {
        self.try_as_bool()
            .unwrap_or_else(|| panic!("parameter {self:?} is not a bool"))
    }
}

/// A concrete assignment of parameter names to values.
pub type ParamSet = BTreeMap<String, ParamValue>;

/// A named Cartesian hyper-parameter grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamGrid {
    axes: Vec<(String, Vec<ParamValue>)>,
}

impl ParamGrid {
    /// Creates an empty grid (a single empty parameter set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a parameter axis. Returns `self` for chaining.
    pub fn add(mut self, name: &str, values: Vec<ParamValue>) -> Self {
        self.axes.push((name.to_string(), values));
        self
    }

    /// Number of points in the grid.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len().max(1)).product()
    }

    /// Whether the grid has no axes.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Enumerates every parameter combination.
    pub fn iter_combinations(&self) -> Vec<ParamSet> {
        let mut combos = vec![ParamSet::new()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(combos.len() * values.len());
            for combo in &combos {
                for v in values {
                    let mut c = combo.clone();
                    c.insert(name.clone(), v.clone());
                    next.push(c);
                }
            }
            combos = next;
        }
        combos
    }
}

/// Result of a grid search: every combination with its CV score.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// `(params, cv_result)` per combination, in evaluation order.
    pub evaluations: Vec<(ParamSet, CvResult)>,
}

impl GridSearchResult {
    /// The best `(params, mean_score)` by mean CV score.
    ///
    /// # Panics
    ///
    /// Panics if no combinations were evaluated.
    pub fn best(&self) -> (&ParamSet, f64) {
        self.evaluations
            .iter()
            .map(|(p, r)| (p, r.mean()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("grid search evaluated at least one combination")
    }
}

/// One `(candidate, fold)` work item of a grid search.
struct GridCell {
    candidate: usize,
    fold: usize,
    outcome: Option<Result<Option<f64>, Error>>,
}

/// Exhaustive grid search with cross-validation.
///
/// The Cartesian `candidates × folds` task matrix is evaluated on
/// `n_jobs` worker threads (1 = sequential); every candidate fitting on
/// a given fold shares that fold's presorted training cache.
#[derive(Debug)]
pub struct GridSearch {
    grid: ParamGrid,
    splits: Vec<Split>,
    n_jobs: usize,
}

impl GridSearch {
    /// Creates a sequential grid search over `grid` using precomputed CV
    /// `splits`.
    pub fn new(grid: ParamGrid, splits: Vec<Split>) -> Self {
        GridSearch {
            grid,
            splits,
            n_jobs: 1,
        }
    }

    /// Sets the number of worker threads (clamped to at least 1).
    /// Results are identical for every `n_jobs`.
    pub fn with_n_jobs(mut self, n_jobs: usize) -> Self {
        self.n_jobs = n_jobs.max(1);
        self
    }

    /// Runs the search. `factory` builds a classifier from a parameter
    /// set; `scorer` scores validation predictions.
    ///
    /// # Errors
    ///
    /// Propagates classifier fit errors other than
    /// [`Error::InvalidLabels`] (which marks a degenerate, skipped fold).
    /// When several cells fail, the error of the earliest
    /// `(candidate, fold)` cell is returned, matching what a sequential
    /// scan would have hit first.
    pub fn run<F, S>(
        &self,
        factory: F,
        scorer: S,
        x: &Matrix,
        y: &[u8],
    ) -> Result<GridSearchResult, Error>
    where
        F: Fn(&ParamSet) -> Box<dyn Classifier> + Sync,
        S: Fn(&[u8], &[u8]) -> f64 + Sync,
    {
        let combos = self.grid.iter_combinations();
        let folds = prepare_folds(x, y, &self.splits);
        let n_jobs = self.n_jobs.max(1);
        let run_span = obs::Span::enter("gridsearch.run");
        obs::gauge_set("gridsearch.workers", n_jobs as f64);

        // Candidate-major, fold-minor — the order a sequential scan
        // evaluates in, preserved when stitching results back together.
        let mut cells: Vec<GridCell> = Vec::with_capacity(combos.len() * folds.len());
        for candidate in 0..combos.len() {
            for fold in 0..folds.len() {
                cells.push(GridCell {
                    candidate,
                    fold,
                    outcome: None,
                });
            }
        }

        let workers = obs::WorkerTelemetry::new(
            n_jobs,
            "gridsearch.worker_busy_us",
            "gridsearch.worker_utilization",
        );
        // Dynamic scheduling: workers pull cells off a shared queue, so a
        // candidate with expensive hyper-parameters cannot strand its
        // whole chunk on one straggling worker.
        monitorless_std::pool::for_each_item_mut(&mut cells, n_jobs, |_, cell| {
            let evaluate =
                || evaluate_fold(&folds[cell.fold], factory(&combos[cell.candidate]), &scorer);
            cell.outcome = Some(workers.time(evaluate));
        });
        workers.finish(&run_span);
        drop(run_span);
        obs::counter_add("gridsearch.candidates_evaluated", combos.len() as u64);
        obs::counter_add("gridsearch.cells_evaluated", cells.len() as u64);

        let mut evaluations = Vec::with_capacity(combos.len());
        let mut cell_iter = cells.into_iter();
        for params in combos {
            let mut fold_scores = Vec::with_capacity(folds.len());
            for _ in 0..folds.len() {
                let cell = cell_iter.next().expect("one cell per candidate × fold");
                match cell.outcome.expect("every cell is evaluated") {
                    Ok(Some(score)) => fold_scores.push(score),
                    Ok(None) => {}
                    Err(e) => return Err(e),
                }
            }
            evaluations.push((params, CvResult { fold_scores }));
        }
        Ok(GridSearchResult { evaluations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{DecisionTree, DecisionTreeParams};

    #[test]
    fn kfold_partitions_all_samples() {
        let splits = KFold::new(3).split(10).unwrap();
        assert_eq!(splits.len(), 3);
        let mut all: Vec<usize> = splits.iter().flat_map(|(_, v)| v.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        for (train, val) in &splits {
            assert_eq!(train.len() + val.len(), 10);
            assert!(val.iter().all(|i| !train.contains(i)));
        }
    }

    #[test]
    fn kfold_rejects_bad_params() {
        assert!(KFold::new(1).split(10).is_err());
        assert!(KFold::new(5).split(3).is_err());
    }

    #[test]
    fn group_kfold_keeps_groups_intact() {
        let groups = vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4];
        let splits = GroupKFold::new(5).split(&groups).unwrap();
        for (train, val) in &splits {
            let val_groups: Vec<u32> = val.iter().map(|&i| groups[i]).collect();
            for &i in train {
                assert!(!val_groups.contains(&groups[i]));
            }
        }
    }

    #[test]
    fn group_kfold_20_5_shape() {
        // 25 training sets, 5 folds: each fold trains on 20 and
        // validates on 5 — the paper's scheme.
        let groups: Vec<u32> = (0..25).flat_map(|g| vec![g; 4]).collect();
        let splits = GroupKFold::new(5).split(&groups).unwrap();
        for (train, val) in &splits {
            let mut tg: Vec<u32> = train.iter().map(|&i| groups[i]).collect();
            tg.sort_unstable();
            tg.dedup();
            let mut vg: Vec<u32> = val.iter().map(|&i| groups[i]).collect();
            vg.sort_unstable();
            vg.dedup();
            assert_eq!(tg.len(), 20);
            assert_eq!(vg.len(), 5);
        }
    }

    #[test]
    fn group_kfold_rejects_too_few_groups() {
        assert!(GroupKFold::new(5).split(&[0, 0, 1, 1]).is_err());
    }

    #[test]
    fn param_grid_cartesian_product() {
        let grid = ParamGrid::new()
            .add("a", vec![ParamValue::I(1), ParamValue::I(2)])
            .add(
                "b",
                vec![
                    ParamValue::S("x".into()),
                    ParamValue::S("y".into()),
                    ParamValue::S("z".into()),
                ],
            );
        assert_eq!(grid.len(), 6);
        let combos = grid.iter_combinations();
        assert_eq!(combos.len(), 6);
        assert!(combos
            .iter()
            .any(|c| c["a"].as_usize() == 2 && c["b"].as_str() == "z"));
    }

    #[test]
    fn grid_search_finds_better_depth() {
        // Stripes: depth-1 trees underfit, deeper trees fit.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            rows.push(vec![i as f64]);
            y.push(u8::from((i / 15) % 2 == 1));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let grid = ParamGrid::new().add("max_depth", vec![ParamValue::I(1), ParamValue::I(6)]);
        let splits = KFold::new(3).split(60).unwrap();
        let gs = GridSearch::new(grid, splits);
        let result = gs
            .run(
                |p| {
                    Box::new(DecisionTree::new(DecisionTreeParams {
                        max_depth: Some(p["max_depth"].as_usize()),
                        ..DecisionTreeParams::default()
                    }))
                },
                crate::metrics::f1_score,
                &x,
                &y,
            )
            .unwrap();
        let (best, score) = result.best();
        assert_eq!(best["max_depth"].as_usize(), 6);
        assert!(score > 0.9);
    }

    #[test]
    fn grid_search_skips_degenerate_folds() {
        // Fold 0 trains on class 0 only: its fit is refused with
        // `InvalidLabels`, so the fold is skipped, not scored.
        let rows: Vec<[f64; 1]> = (0..20).map(|i| [f64::from(i)]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<u8> = (0..20).map(|i| u8::from(i >= 10)).collect();
        let splits: Vec<Split> = vec![
            ((0..10).collect(), (10..20).collect()),
            ((0..20).step_by(2).collect(), (1..20).step_by(2).collect()),
        ];
        let grid = ParamGrid::new().add("max_depth", vec![ParamValue::I(1), ParamValue::I(3)]);
        for n_jobs in [1, 4] {
            let result = GridSearch::new(grid.clone(), splits.clone())
                .with_n_jobs(n_jobs)
                .run(
                    |p| {
                        Box::new(DecisionTree::new(DecisionTreeParams {
                            max_depth: Some(p["max_depth"].as_usize()),
                            ..DecisionTreeParams::default()
                        }))
                    },
                    crate::metrics::f1_score,
                    &x,
                    &y,
                )
                .unwrap();
            assert_eq!(result.evaluations.len(), 2);
            for (params, cv) in &result.evaluations {
                assert_eq!(cv.fold_scores, vec![1.0], "n_jobs={n_jobs} {params:?}");
            }
        }
    }

    #[test]
    fn param_value_accessors() {
        assert_eq!(ParamValue::F(1.5).as_f64(), 1.5);
        assert_eq!(ParamValue::I(3).as_f64(), 3.0);
        assert_eq!(ParamValue::I(3).as_usize(), 3);
        assert_eq!(ParamValue::S("gini".into()).as_str(), "gini");
        assert!(ParamValue::B(true).as_bool());
    }

    #[test]
    #[should_panic(expected = "not numeric")]
    fn param_value_wrong_accessor_panics() {
        let _ = ParamValue::S("x".into()).as_f64();
    }

    #[test]
    fn param_value_fallible_accessors() {
        assert_eq!(ParamValue::F(1.5).try_as_f64(), Some(1.5));
        assert_eq!(ParamValue::S("x".into()).try_as_f64(), None);
        assert_eq!(ParamValue::I(-1).try_as_usize(), None);
        assert_eq!(ParamValue::I(4).try_as_usize(), Some(4));
        assert_eq!(ParamValue::S("gini".into()).try_as_str(), Some("gini"));
        assert_eq!(ParamValue::F(0.0).try_as_str(), None);
        assert_eq!(ParamValue::B(false).try_as_bool(), Some(false));
        assert_eq!(ParamValue::I(1).try_as_bool(), None);
    }

    #[test]
    fn cv_result_stats() {
        let cv = CvResult {
            fold_scores: vec![0.8, 1.0],
        };
        assert!((cv.mean() - 0.9).abs() < 1e-12);
        let empty = CvResult {
            fold_scores: vec![],
        };
        assert_eq!(empty.mean(), 0.0);
    }
}

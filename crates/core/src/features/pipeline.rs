//! Stage orchestration: the six-step feature pipeline (Section 3.3.7)
//! and its online per-instance form.
//!
//! Stage D (the `X-AVG`/`X-LAG` time features and the cross-domain
//! products) has one evaluator: a plan of cells, one per stage-D value,
//! run one row at a time by `eval_plan_row`. The fit evaluates the full
//! plan over each group block ([`expand_stage_d`]). A fitted pipeline
//! keeps the plan it serves: the kept output columns under a
//! column-selecting second reduction, the full plan for a PCA one to
//! project. It runs that plan over group blocks in
//! [`FittedPipeline::transform_batch`] and over the history ring in
//! [`InstanceTransformer::push_into`], and stages 1–3 compute only the
//! stage-C cells the plan reads. Every path writes straight into
//! preallocated buffers. The original row-cloning implementations are
//! retained as `*_legacy` reference paths, and the plan paths are
//! proven bit-identical to them (`tests/featurize_equivalence.rs`,
//! `table1_featurize`).

use std::collections::HashSet;
use std::sync::Arc;

use monitorless_learn::{Matrix, StandardScaler, Transformer};
use monitorless_obs as obs;
use monitorless_std::json::JsonError;

use super::base::{BaseExpander, RawLayout};
use super::combine::{apply_products, product_names, product_pairs};
use super::reduce::{FittedReduction, Reduction};
use super::timefeat::{TimeExpander, TIME_LAGS};
use crate::Error;

/// Configuration of the feature pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Step 2: standardize features.
    pub normalize: bool,
    /// Step 3: first reduction.
    pub reduce1: Reduction,
    /// Step 4a: add `X-AVG`/`X-LAG` features.
    pub time_features: bool,
    /// Step 4b: add multiplicative cross-domain products.
    pub products: bool,
    /// Step 5: second reduction.
    pub reduce2: Reduction,
    /// Seed for the filtering forests.
    pub seed: u64,
    /// Worker threads for sharding independent group blocks in stage D
    /// (1 = serial; the output is identical for any value).
    pub n_jobs: usize,
}

impl PipelineConfig {
    /// The configuration the paper's grid search settled on: normalize,
    /// forest-filter to the top-30 union, add time and product features,
    /// then filter again.
    pub fn paper_default() -> Self {
        PipelineConfig {
            normalize: true,
            reduce1: Reduction::paper_filter(),
            time_features: true,
            products: true,
            reduce2: Reduction::ForestFilter {
                top_k: 30,
                n_estimators: 50,
            },
            seed: 0,
            n_jobs: 4,
        }
    }

    /// A scaled-down configuration for tests and quick runs.
    pub fn quick() -> Self {
        PipelineConfig {
            normalize: true,
            reduce1: Reduction::ForestFilter {
                top_k: 8,
                n_estimators: 12,
            },
            time_features: true,
            products: true,
            reduce2: Reduction::ForestFilter {
                top_k: 16,
                n_estimators: 12,
            },
            seed: 0,
            n_jobs: 2,
        }
    }
}

/// An unfitted feature pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeaturePipeline {
    config: PipelineConfig,
}

impl FeaturePipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        FeaturePipeline { config }
    }

    /// Fits the pipeline on raw metric vectors and returns the fitted
    /// pipeline together with the transformed training matrix.
    ///
    /// Rows must be ordered chronologically *within* each group (a group
    /// is one Table 1 training run / one instance's time series).
    ///
    /// # Errors
    ///
    /// Propagates learner errors; returns [`Error::Invalid`] for empty
    /// input or mismatched lengths.
    pub fn fit_transform(
        &self,
        x_raw: &Matrix,
        y: &[u8],
        groups: &[u32],
        layout: RawLayout,
    ) -> Result<(FittedPipeline, Matrix), Error> {
        if x_raw.rows() == 0 {
            return Err(Error::Invalid("empty training matrix".into()));
        }
        if y.len() != x_raw.rows() || groups.len() != x_raw.rows() {
            return Err(Error::Invalid("labels/groups do not match rows".into()));
        }
        let cfg = self.config;
        let _fit_span = obs::Span::enter("pipeline.fit");
        let expander = BaseExpander::new(layout);

        // Step 1: base expansion.
        let stage = obs::Span::enter("pipeline.fit.base_expand");
        let mut base_rows: Vec<f64> = Vec::with_capacity(x_raw.rows() * expander.len());
        for row in x_raw.iter_rows() {
            base_rows.extend(expander.expand(row));
        }
        let mut b = Matrix::from_vec(x_raw.rows(), expander.len(), base_rows);
        let names_b = expander.names();
        drop(stage);
        obs::gauge_set("pipeline.features.base", names_b.len() as f64);

        // Step 2: normalization.
        let stage = obs::Span::enter("pipeline.fit.normalize");
        let scaler = if cfg.normalize {
            let mut s = StandardScaler::new();
            b = s.fit_transform(&b)?;
            Some(s)
        } else {
            None
        };
        drop(stage);

        // Step 3: first reduction. The binary level features and the
        // relative utilization metrics are always kept: they are the
        // scale-free features that make the model portable across
        // hardware and load magnitudes (Sections 3.3.1-3.3.3) — absolute
        // metrics alone would overfit each training configuration's
        // traffic level.
        let stage = obs::Span::enter("pipeline.fit.reduce1");
        let mut reduce1 = FittedReduction::fit(cfg.reduce1, &b, y, groups, cfg.seed)?;
        if let FittedReduction::Select(idx) = &mut reduce1 {
            idx.extend(forced_base_indices(&names_b));
            idx.sort_unstable();
            idx.dedup();
        }
        let c = reduce1.apply(&b)?;
        let names_c = reduce1.names(&names_b);
        drop(stage);
        obs::gauge_set("pipeline.features.reduced", names_c.len() as f64);

        // Step 4: time features + products (per group, chronological).
        let stage = obs::Span::enter("pipeline.fit.time_products");
        let time = cfg.time_features.then(|| TimeExpander::new(c.cols()));
        let pairs = if cfg.products {
            product_pairs(&names_c)
        } else {
            Vec::new()
        };
        let (d, names_d) = expand_stage_d(&c, groups, time.as_ref(), &pairs, &names_c, cfg.n_jobs);
        drop(stage);
        obs::gauge_set("pipeline.features.expanded", names_d.len() as f64);

        // Step 5: second reduction, again keeping the scale-free
        // originals and their pairwise products. Forced names go into a
        // set once instead of rescanning the name list per candidate.
        let stage = obs::Span::enter("pipeline.fit.reduce2");
        let mut reduce2 = FittedReduction::fit(cfg.reduce2, &d, y, groups, cfg.seed ^ 0x5a5a)?;
        if let FittedReduction::Select(idx) = &mut reduce2 {
            let forced: HashSet<&str> = forced_base_indices(&names_b)
                .into_iter()
                .map(|i| names_b[i].as_str())
                .collect();
            for (j, name) in names_d.iter().enumerate() {
                let is_forced_original = forced.contains(name.as_str());
                let is_level_product =
                    name.contains(" × ") && name.split(" × ").all(|part| forced.contains(part));
                if is_forced_original || is_level_product {
                    idx.push(j);
                }
            }
            idx.sort_unstable();
            idx.dedup();
        }
        let e = reduce2.apply(&d)?;
        let names_e = reduce2.names(&names_d);
        drop(stage);

        // Step 6: zero-variance removal.
        let stage = obs::Span::enter("pipeline.fit.zero_variance");
        let stds = e.column_stds();
        let keep: Vec<usize> = (0..e.cols()).filter(|&i| stds[i] > 0.0).collect();
        let final_x = e.select_columns(&keep);
        let names: Vec<String> = keep.iter().map(|&i| names_e[i].clone()).collect();
        drop(stage);
        obs::gauge_set("pipeline.features.final", names.len() as f64);

        let fitted = FittedPipeline {
            config: cfg,
            expander,
            scaler,
            reduce1,
            time,
            pairs,
            names_c,
            reduce2,
            keep,
            names,
            serving: Serving::default(),
        }
        .with_serving()?;
        Ok((fitted, final_x))
    }
}

/// Indices of base features that are never filtered out: the 16 binary
/// level features plus the four relative utilization metrics (and the
/// cgroup throttle counter, which is relative to the period rate).
fn forced_base_indices(names_b: &[String]) -> Vec<usize> {
    names_b
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.contains("-LOW")
                || n.contains("-MEDIUM")
                || n.contains("-HIGH")
                || n.contains("-VERYHIGH")
                || n.contains("-EXTREME")
                || n.as_str() == "ctr.containers.cpu.util"
                || n.as_str() == "ctr.containers.mem.util"
                || n.as_str() == "mem.util.used"
                || n.as_str() == "kernel.all.cpu.idle"
                || n.as_str() == "ctr.cgroup.cpusched.throttled"
        })
        .map(|(i, _)| i)
        .collect()
}

/// Contiguous `[start, end)` row ranges of equal group id, in input
/// order (rows of one group must be adjacent and chronological).
///
/// # Errors
///
/// [`Error::Invalid`] unless `groups` holds one id per row of a
/// `rows`-row batch.
fn group_blocks(groups: &[u32], rows: usize) -> Result<Vec<(usize, usize)>, Error> {
    if groups.len() != rows {
        return Err(Error::Invalid(format!(
            "{} group ids for {rows} rows: each row needs exactly one",
            groups.len()
        )));
    }
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < groups.len() {
        let g = groups[i];
        let mut j = i;
        while j < groups.len() && groups[j] == g {
            j += 1;
        }
        blocks.push((i, j));
        i = j;
    }
    Ok(blocks)
}

/// The block runner both batch stage-D paths share: evaluates `plan` at
/// every row of the stage-C matrix `c` into a new `c.rows() × plan.len()`
/// matrix, one group block (from [`group_blocks`]) at a time. Each block
/// writes its own contiguous slice of the output, and independent
/// blocks are sharded over `n_jobs` pool workers, so the output is
/// identical for any worker count. History slot `h` of the plan reads
/// stage-C column `history[h]`. On two or more workers, per-block busy
/// time feeds the `pipeline.worker_utilization` gauge.
fn eval_plan_blocks(
    plan: &[PlanCell],
    history: &[usize],
    c: &Matrix,
    blocks: &[(usize, usize)],
    n_jobs: usize,
) -> Matrix {
    let span = obs::Span::enter("pipeline.stage_d");
    obs::counter_add("pipeline.rows", c.rows() as u64);
    obs::counter_add("pipeline.groups", blocks.len() as u64);
    let (rw, width) = (c.cols(), plan.len());
    let mut data = vec![0.0; c.rows() * width];
    let mut tasks: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(blocks.len());
    let mut rest = data.as_mut_slice();
    for &(start, end) in blocks {
        let (head, tail) = rest.split_at_mut((end - start) * width);
        tasks.push((start, end, head));
        rest = tail;
    }
    let c_data = c.as_slice();
    let workers =
        obs::WorkerTelemetry::new(n_jobs, "pipeline.block_busy_us", "pipeline.worker_utilization");
    monitorless_std::pool::for_each_item_mut(&mut tasks, n_jobs, |_, (start, end, out)| {
        workers.time(|| {
            let block = &c_data[*start * rw..*end * rw];
            let hist = |h: usize, r: usize| block[r * rw + history[h]];
            for i in 0..*end - *start {
                let cur = &block[i * rw..(i + 1) * rw];
                eval_plan_row(plan, cur, hist, i, &mut out[i * width..(i + 1) * width]);
            }
        });
    });
    workers.finish(&span);
    Matrix::from_vec(c.rows(), width, data)
}

/// Stage D (time features + products) through the plan evaluator: the
/// full stage-D plan (`stage_d_plan`) evaluated over every group block
/// straight into the output matrix buffer — no row clones, no per-row
/// vectors — with independent blocks sharded over `n_jobs` pool workers
/// (the output is identical for any worker count). Bit-identical to
/// [`expand_stage_d_legacy`].
///
/// # Panics
///
/// Panics unless `groups` holds one id per row of `c`.
pub fn expand_stage_d(
    c: &Matrix,
    groups: &[u32],
    time: Option<&TimeExpander>,
    pairs: &[(usize, usize)],
    names_c: &[String],
    n_jobs: usize,
) -> (Matrix, Vec<String>) {
    let blocks = group_blocks(groups, c.rows()).unwrap_or_else(|e| panic!("stage D: {e}"));
    let plan = stage_d_plan(c.cols(), time.is_some(), pairs);
    let history: Vec<usize> = (0..c.cols()).collect();
    let d = eval_plan_blocks(&plan, &history, c, &blocks, n_jobs);
    let mut names = match time {
        Some(t) => t.names(names_c),
        None => names_c.to_vec(),
    };
    names.extend(product_names(names_c, pairs));
    (d, names)
}

/// The original row-cloning stage-D implementation, retained as the
/// reference the plan path is proven bit-identical against.
pub fn expand_stage_d_legacy(
    c: &Matrix,
    groups: &[u32],
    time: Option<&TimeExpander>,
    pairs: &[(usize, usize)],
    names_c: &[String],
) -> (Matrix, Vec<String>) {
    let time_width = time.map_or(c.cols(), |t| t.output_width());
    let width = time_width + pairs.len();
    let mut data = Vec::with_capacity(c.rows() * width);

    // Partition rows by group, preserving order.
    let mut i = 0;
    while i < c.rows() {
        let g = groups[i];
        let mut j = i;
        while j < c.rows() && groups[j] == g {
            j += 1;
        }
        let block: Vec<Vec<f64>> = (i..j).map(|r| c.row(r).to_vec()).collect();
        for (local, row) in block.iter().enumerate() {
            let mut out = match time {
                Some(t) => t.expand_at(&block, local),
                None => row.clone(),
            };
            apply_products(&mut out, row, pairs);
            data.extend(out);
        }
        i = j;
    }

    let mut names = match time {
        Some(t) => t.names(names_c),
        None => names_c.to_vec(),
    };
    names.extend(product_names(names_c, pairs));
    (Matrix::from_vec(c.rows(), width, data), names)
}

/// One stage-D value, as [`eval_plan_row`] computes it. A plan lists
/// stage-D columns in output order: every column ([`stage_d_plan`]) or
/// the kept output columns of a column-selecting second reduction
/// ([`FittedPipeline::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanCell {
    /// Stage-C column `f` of the current row.
    Orig(usize),
    /// Mean of history slot `h` over the clamped trailing window.
    Avg {
        /// History slot: index into [`Serving::history`].
        h: usize,
        /// Lag distance (window is `lag + 1` samples).
        lag: usize,
    },
    /// History slot `h`, `lag` samples ago (clamped at block start).
    Lag {
        /// History slot: index into [`Serving::history`].
        h: usize,
        /// Lag distance.
        lag: usize,
    },
    /// Product of stage-C columns `a` and `b` of the current row.
    Product(usize, usize),
}

/// Every stage-D column as a plan cell, in stage-D order: the `rw`
/// stage-C columns, then with time features one `Avg` band per lag in
/// [`TIME_LAGS`] and one `Lag` band per lag (history slot `f` holds
/// stage-C column `f`), then one product per pair.
fn stage_d_plan(rw: usize, time: bool, pairs: &[(usize, usize)]) -> Vec<PlanCell> {
    let mut plan: Vec<PlanCell> = (0..rw).map(PlanCell::Orig).collect();
    if time {
        for lag in TIME_LAGS {
            plan.extend((0..rw).map(|h| PlanCell::Avg { h, lag }));
        }
        for lag in TIME_LAGS {
            plan.extend((0..rw).map(|h| PlanCell::Lag { h, lag }));
        }
    }
    plan.extend(pairs.iter().map(|&(a, b)| PlanCell::Product(a, b)));
    plan
}

/// Evaluates the plan for chronological row `i` of a window, writing
/// one value per plan cell into `out`. `cur` is row `i`'s stage-C row;
/// `hist(h, r)` reads history slot `h` at chronological row `r ≤ i`
/// (a column of the contiguous batch block, or the online ring). This
/// is the one function outside the legacy oracles that computes an
/// `X-AVG`, `X-LAG` or product value: at fit time, in the batch
/// transform and in the online push.
///
/// Summation-order contract: each `Avg` cell re-accumulates its clamped
/// window in ascending chronological order (`hist(h, start) + … +
/// hist(h, i)`, left to right, one divide), the same f64 add sequence
/// as the legacy `TimeExpander::expand_at`, so every cell is
/// bit-identical to the corresponding legacy stage-D column. A rolling
/// sum (add newest, subtract oldest) would reassociate the adds and
/// break that; the window is at most 16 samples.
fn eval_plan_row(
    plan: &[PlanCell],
    cur: &[f64],
    hist: impl Fn(usize, usize) -> f64,
    i: usize,
    out: &mut [f64],
) {
    for (dst, cell) in out.iter_mut().zip(plan) {
        *dst = match *cell {
            PlanCell::Orig(f) => cur[f],
            PlanCell::Avg { h, lag } => {
                let start = i.saturating_sub(lag);
                let n = (i - start + 1) as f64;
                let mut acc = 0.0;
                // Not `start..=i`: the inclusive range's extra end check
                // measurably slows this, the fit's hottest loop.
                for r in start..i + 1 {
                    acc += hist(h, r);
                }
                acc / n
            }
            PlanCell::Lag { h, lag } => hist(h, i.saturating_sub(lag)),
            PlanCell::Product(a, b) => cur[a] * cur[b],
        };
    }
}

/// One value stages 1–3 write: base column `base`, standardized with
/// the scaler statistics (mean 0 and std 0 without a scaler, which
/// leaves the value as is), lands at `col` — its stage-C column, or its
/// base index in the standardized row a PCA first reduction projects.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BaseCell {
    base: usize,
    col: usize,
    mean: f64,
    std: f64,
}

/// Serving state derived from a fitted pipeline's parameters: built
/// once at fit or load time, shared by every transformer through the
/// pipeline's `Arc`, never serialized.
#[derive(Debug, Clone, Default, PartialEq)]
struct Serving {
    /// Host and container widths of a raw observation.
    host_len: usize,
    ctr_len: usize,
    /// Stages 1–3 as one cell per value they write. For a forest filter
    /// first reduction, that is each stage-C column some plan cell
    /// reads (every column when the second reduction is PCA); the
    /// stage-C columns no cell reads are never computed. A PCA first
    /// reduction projects the whole standardized base row, so it gets
    /// every base column.
    cells: Vec<BaseCell>,
    /// The stage-D plan ([`FittedPipeline::plan`]): the kept output
    /// columns of a column-selecting second reduction, or every stage-D
    /// column for a PCA second reduction to project.
    plan: Vec<PlanCell>,
    /// The stage-C column each history slot holds, ascending: the
    /// columns the plan's `Avg`/`Lag` cells read, every column when the
    /// second reduction is PCA, none without time features. The online
    /// ring keeps [`WINDOW_LEN`] samples of these columns only.
    history: Vec<usize>,
}

/// A fitted feature pipeline: transforms raw metric windows into model
/// inputs, both in batch (training) and online (per instance) form.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedPipeline {
    config: PipelineConfig,
    expander: BaseExpander,
    scaler: Option<StandardScaler>,
    reduce1: FittedReduction,
    time: Option<TimeExpander>,
    pairs: Vec<(usize, usize)>,
    names_c: Vec<String>,
    reduce2: FittedReduction,
    keep: Vec<usize>,
    names: Vec<String>,
    serving: Serving,
}

/// Checks `reduction` against its `input` stage's `width`: a selected
/// column beyond it, or a PCA fitted on a different width.
fn check_reduction_input(
    reduction: &FittedReduction,
    stage: &str,
    input: &str,
    width: usize,
) -> Result<(), String> {
    match reduction {
        FittedReduction::Select(idx) => match idx.iter().find(|&&c| c >= width) {
            Some(c) => {
                Err(format!("{stage} selects {input} column {c}, beyond the {input} width {width}"))
            }
            None => Ok(()),
        },
        FittedReduction::Pca(p) if p.n_features() != width => Err(format!(
            "{stage} PCA was fitted on {} columns, the {input} width is {width}",
            p.n_features()
        )),
        FittedReduction::Pca(_) => Ok(()),
    }
}

impl FittedPipeline {
    /// Checks the fitted parameters against each other and rebuilds the
    /// derived serving state from them.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the first width or index that disagrees
    /// (see [`FittedPipeline::check_parameters`]), so a malformed model
    /// file fails to decode instead of panicking in the serving plans.
    fn with_serving(mut self) -> Result<Self, JsonError> {
        self.check_parameters().map_err(JsonError)?;
        let base_len = self.expander.len();
        let rw = self.names_c.len();
        let (plan, history) = self.plan();
        let mut read = vec![false; rw];
        for cell in &plan {
            match *cell {
                PlanCell::Orig(f) => read[f] = true,
                PlanCell::Product(a, b) => {
                    read[a] = true;
                    read[b] = true;
                }
                PlanCell::Avg { .. } | PlanCell::Lag { .. } => {}
            }
        }
        for &f in &history {
            read[f] = true;
        }
        // `(base, col)` per value stages 1–3 write.
        let columns: Vec<(usize, usize)> = match &self.reduce1 {
            FittedReduction::Select(idx) => {
                (0..rw).filter(|&c| read[c]).map(|c| (idx[c], c)).collect()
            }
            FittedReduction::Pca(_) => (0..base_len).map(|b| (b, b)).collect(),
        };
        let stats = self
            .scaler
            .as_ref()
            .map(|s| (s.means().unwrap_or(&[]), s.stds().unwrap_or(&[])));
        let cells = columns
            .into_iter()
            .map(|(base, col)| {
                let (mean, std) = stats.map_or((0.0, 0.0), |(m, s)| (m[base], s[base]));
                BaseCell {
                    base,
                    col,
                    mean,
                    std,
                }
            })
            .collect();
        let layout = self.expander.layout();
        let host_len = layout.host_len();
        self.serving = Serving {
            host_len,
            ctr_len: layout.raw_len() - host_len,
            cells,
            plan,
            history,
        };
        Ok(self)
    }

    /// The decode contract of the fitted parameters: every width and
    /// index the serving plans rely on, checked in stage order.
    ///
    /// # Errors
    ///
    /// The message naming the first mismatch: a raw layout without one
    /// kind per name or with a utilization index beyond the raw width;
    /// scaler statistics not the base width; a `reduce1` selection
    /// beyond the base width, or a `reduce1` PCA not fitted on it;
    /// `names_c` not `reduce1`'s output width; a time expander not that
    /// wide; a product pair beyond it; a `reduce2` selection beyond the
    /// stage-D width, or a `reduce2` PCA not fitted on it; a `keep`
    /// index beyond `reduce2`'s output width; or `names` not one per
    /// `keep` index. (A PCA without components, or with a component
    /// not as long as its mean, already fails in its own decode.)
    fn check_parameters(&self) -> Result<(), String> {
        self.expander.layout().check()?;
        let base_len = self.expander.len();
        if let Some(s) = &self.scaler {
            let (means, stds) =
                (s.means().map_or(0, <[f64]>::len), s.stds().map_or(0, <[f64]>::len));
            if (means, stds) != (base_len, base_len) {
                return Err(format!(
                    "scaler has {means} means and {stds} stds, the base width is {base_len}"
                ));
            }
        }
        check_reduction_input(&self.reduce1, "reduce1", "base", base_len)?;
        let rw = self.names_c.len();
        let c_width = self.reduce1.output_width();
        if rw != c_width {
            return Err(format!("names_c has {rw} names, reduce1 outputs {c_width} columns"));
        }
        if let Some(t) = &self.time {
            if t.input_width() != rw {
                return Err(format!(
                    "time expander is {} wide, names_c has {rw} names",
                    t.input_width()
                ));
            }
        }
        if let Some(&(a, b)) = self.pairs.iter().find(|&&(a, b)| a.max(b) >= rw) {
            return Err(format!(
                "product pair ({a}, {b}) is out of range for {rw} stage-C columns"
            ));
        }
        let d_width = self.time_width() + self.pairs.len();
        check_reduction_input(&self.reduce2, "reduce2", "stage-D", d_width)?;
        let e_width = self.reduce2.output_width();
        if let Some(&k) = self.keep.iter().find(|&&k| k >= e_width) {
            return Err(format!("keep index {k} is out of range for {e_width} reduce2 outputs"));
        }
        if self.names.len() != self.keep.len() {
            return Err(format!(
                "names has {} entries, keep has {}",
                self.names.len(),
                self.keep.len()
            ));
        }
        Ok(())
    }

    /// `(host, container)` metric widths a raw observation must have.
    pub(crate) fn raw_widths(&self) -> (usize, usize) {
        (self.serving.host_len, self.serving.ctr_len)
    }

    /// [`Error::Invalid`] unless `(host, ctr)` are the raw widths.
    fn check_widths(&self, host: usize, ctr: usize) -> Result<(), Error> {
        let (want_host, want_ctr) = self.raw_widths();
        if (host, ctr) == (want_host, want_ctr) {
            return Ok(());
        }
        Err(Error::Invalid(format!(
            "raw sample has {host} host + {ctr} container metrics, the pipeline expects \
             {want_host} + {want_ctr}"
        )))
    }

    /// The configuration used to fit.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Final feature names (model-input space).
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// Number of model-input features.
    pub fn output_width(&self) -> usize {
        self.names.len()
    }

    /// Width of the intermediate (post-reduction-1) space.
    pub fn reduced_width(&self) -> usize {
        self.names_c.len()
    }

    /// Width of the time-feature span of a stage-D row.
    fn time_width(&self) -> usize {
        let rw = self.names_c.len();
        match &self.time {
            Some(t) => t.output_width(),
            None => rw,
        }
    }

    /// Builds the serving plan from the full stage-D plan
    /// ([`stage_d_plan`]). When the second reduction is a column
    /// selection, final output column `k` is exactly one stage-D value,
    /// so the plan keeps only those cells and the batch and online paths
    /// never materialize the full stage-D row; a PCA second reduction
    /// mixes every column, so it gets the full plan to project. Returns
    /// the plan with its history columns (the stage-C columns its
    /// `Avg`/`Lag` cells read, ascending), each cell's slot renumbered
    /// to index that list. Indices are in range once
    /// [`FittedPipeline::check_parameters`] has passed.
    fn plan(&self) -> (Vec<PlanCell>, Vec<usize>) {
        let full = stage_d_plan(self.names_c.len(), self.time.is_some(), &self.pairs);
        let mut plan: Vec<PlanCell> = match &self.reduce2 {
            FittedReduction::Select(idx) => self.keep.iter().map(|&k| full[idx[k]]).collect(),
            FittedReduction::Pca(_) => full,
        };
        let mut history: Vec<usize> = plan
            .iter()
            .filter_map(|cell| match *cell {
                PlanCell::Avg { h, .. } | PlanCell::Lag { h, .. } => Some(h),
                PlanCell::Orig(_) | PlanCell::Product(..) => None,
            })
            .collect();
        history.sort_unstable();
        history.dedup();
        for cell in &mut plan {
            if let PlanCell::Avg { h, .. } | PlanCell::Lag { h, .. } = cell {
                *h = history.partition_point(|&f| f < *h);
            }
        }
        (plan, history)
    }

    /// Batch transform mirroring the fit-time flow: stages 1–3
    /// evaluate only the stage-C cells some plan cell reads, row by row
    /// into the reduced matrix (no intermediate base/scaled matrices),
    /// then the serving plan is evaluated over each group block — only
    /// the kept output cells when the second reduction is a column
    /// selection, the stage-D row a PCA second reduction projects
    /// otherwise. Rows must be ordered chronologically within each
    /// group. Bit-identical to [`FittedPipeline::transform_batch_legacy`].
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when `x_raw` is not the raw width or `groups`
    /// does not hold one id per row (both checked before any work);
    /// propagates PCA errors.
    pub fn transform_batch(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Matrix, Error> {
        let span = obs::Span::enter("pipeline.transform_batch");
        let rows = x_raw.rows();
        let rw = self.names_c.len();
        let host_len = self.serving.host_len;
        self.check_widths(x_raw.cols().min(host_len), x_raw.cols().saturating_sub(host_len))?;
        let blocks = group_blocks(groups, rows)?;

        // Stages 1-3 from the selected cells, one row at a time.
        let mut c_data: Vec<f64> = Vec::with_capacity(rows * rw);
        let mut scaled = Vec::new();
        let mut reduced = Vec::with_capacity(rw);
        for raw in x_raw.iter_rows() {
            let (host, ctr) = raw.split_at(host_len);
            self.reduce_into(host, ctr, &mut scaled, &mut reduced)?;
            c_data.extend_from_slice(&reduced);
        }
        let c = Matrix::from_vec(rows, rw, c_data);
        let (plan, history) = (&self.serving.plan, &self.serving.history);
        let d = eval_plan_blocks(plan, history, &c, &blocks, self.config.n_jobs);
        let out = match &self.reduce2 {
            FittedReduction::Select(_) => d,
            FittedReduction::Pca(_) => self.reduce2.apply(&d)?.select_columns(&self.keep),
        };
        if let Some(us) = span.elapsed_us() {
            if us > 0.0 {
                obs::gauge_set("pipeline.transform_batch.rows_per_sec", rows as f64 / us * 1e6);
            }
        }
        Ok(out)
    }

    /// The original batch transform (intermediate matrices at every
    /// stage, row-cloning stage D), retained as the reference path the
    /// streaming [`FittedPipeline::transform_batch`] is proven
    /// bit-identical against.
    ///
    /// # Errors
    ///
    /// Propagates scaler/PCA errors.
    pub fn transform_batch_legacy(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Matrix, Error> {
        let _span = obs::Span::enter("pipeline.transform_batch");
        let mut base_rows: Vec<f64> = Vec::with_capacity(x_raw.rows() * self.expander.len());
        for row in x_raw.iter_rows() {
            base_rows.extend(self.expander.expand(row));
        }
        let mut b = Matrix::from_vec(x_raw.rows(), self.expander.len(), base_rows);
        if let Some(s) = &self.scaler {
            b = s.transform(&b)?;
        }
        let c = self.reduce1.apply(&b)?;
        let (d, _) =
            expand_stage_d_legacy(&c, groups, self.time.as_ref(), &self.pairs, &self.names_c);
        let e = self.reduce2.apply(&d)?;
        Ok(e.select_columns(&self.keep))
    }

    fn transform_window(&self, window: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        let current = window.last().ok_or(Error::NotFitted)?;
        let mut out = match &self.time {
            Some(t) => t.expand_at(window, window.len() - 1),
            None => current.clone(),
        };
        apply_products(&mut out, current, &self.pairs);
        let reduced = self.reduce2.apply_row(&out)?;
        Ok(self.keep.iter().map(|&i| reduced[i]).collect())
    }

    /// Stages 1–3 for one raw sample `host ++ ctr` (widths already
    /// checked) into the stage-C row `out`: each cell expands, centres
    /// and scales one base column straight from the two parts, so the
    /// concatenated raw vector, the base columns the first reduction
    /// drops and the stage-C columns no plan cell reads are never
    /// built (the unread cells of `out` keep whatever they held).
    /// Bit-identical to expand → scale → reduce on every read cell, and
    /// allocation-free once the buffers have capacity. `scaled` holds
    /// the full standardized row only when the first reduction is PCA.
    fn reduce_into(
        &self,
        host: &[f64],
        ctr: &[f64],
        scaled: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), Error> {
        let (pca, dst, width) = match &self.reduce1 {
            FittedReduction::Pca(p) => (Some(p), &mut *scaled, self.expander.len()),
            FittedReduction::Select(_) => (None, &mut *out, self.names_c.len()),
        };
        dst.resize(width, 0.0);
        for c in &self.serving.cells {
            let v = self.expander.value_at(c.base, host, ctr) - c.mean;
            dst[c.col] = if c.std > 0.0 { v / c.std } else { v };
        }
        if let Some(p) = pca {
            p.transform_row_into(scaled, out)?;
        }
        Ok(())
    }
}

/// Caller-owned working space for [`InstanceTransformer::push_into`],
/// shared across a whole fleet of transformers.
///
/// Stages 1–3 write the current stage-C row (`reduced_width` f64s,
/// about 1 KB for the quick model) per push; a PCA first reduction also
/// needs the full standardized base row (`expanded_width`, about 8 KB),
/// and a PCA second reduction the full stage-D row and its projection.
/// The fleet tick owns a single `TransformScratch` and lends it to each
/// transformer in turn, so per-instance state is just the history ring
/// (`WINDOW_LEN` samples of each history column).
///
/// Buffers grow to their high-water mark on first use and are reused
/// thereafter; a warmed scratch makes `push_into` allocation-free.
#[derive(Debug, Default, Clone)]
pub struct TransformScratch {
    scaled: Vec<f64>,
    reduced: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
}

impl TransformScratch {
    /// An empty scratch; buffers grow on first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for `pipeline`, so even the first push
    /// through it allocates nothing.
    pub fn for_pipeline(pipeline: &FittedPipeline) -> Self {
        let scaled_cap = match pipeline.reduce1 {
            FittedReduction::Pca(_) => pipeline.expander.len(),
            FittedReduction::Select(_) => 0,
        };
        let (d_cap, e_cap) = match &pipeline.reduce2 {
            FittedReduction::Pca(p) => (pipeline.serving.plan.len(), p.n_components()),
            FittedReduction::Select(_) => (0, 0),
        };
        TransformScratch {
            scaled: Vec::with_capacity(scaled_cap),
            reduced: Vec::with_capacity(pipeline.reduced_width()),
            d: Vec::with_capacity(d_cap),
            e: Vec::with_capacity(e_cap),
        }
    }
}

/// Online per-instance transformer: feeds one raw metric vector per
/// second and yields the model-input vector using a rolling window for
/// the time-dependent features — the orchestrator keeps one of these per
/// running container.
///
/// The window is a feature-major ring holding the last [`WINDOW_LEN`]
/// samples of the history columns only — the stage-C columns the
/// model's `X-AVG`/`X-LAG` cells read — with each column's samples
/// contiguous. The current stage-C row stays in the caller's
/// [`TransformScratch`]. A push overwrites the oldest sample of each
/// column and advances a head index instead of sliding the buffer, and
/// the plan reads samples back in chronological order. The serving
/// plans live in the shared [`FittedPipeline`], so per-instance state
/// is the `Arc`, the ring and a few indices. Every intermediate lives
/// in preallocated scratch, so steady-state
/// [`InstanceTransformer::push`] performs no heap allocation (asserted
/// by `table1_featurize`'s counting allocator). Fleets that serve many
/// instances should prefer [`InstanceTransformer::push_into`] with one
/// shared [`TransformScratch`]: the internal scratch buffers start
/// empty and only grow if [`InstanceTransformer::push`] itself is
/// called.
#[derive(Debug, Clone)]
pub struct InstanceTransformer {
    pipeline: Arc<FittedPipeline>,
    /// History ring, `history columns × WINDOW_LEN`: history slot `h`
    /// keeps its samples at `h * WINDOW_LEN ..`, filled in order during
    /// warm-up, then overwritten oldest-first.
    ring: Vec<f64>,
    /// Ring position of the oldest sample (0 until the ring is full).
    head: usize,
    filled: usize,
    /// Private working space for [`InstanceTransformer::push`]; stays
    /// empty (zero heap) on instances served via `push_into`.
    scratch: TransformScratch,
    out: Vec<f64>,
    /// [`InstanceTransformer::push_legacy`]'s sliding window of full
    /// stage-C rows, oldest first; empty unless that oracle runs.
    legacy_window: Vec<f64>,
}

/// Window length required by the 15-second lags (current + 15 history).
pub const WINDOW_LEN: usize = 16;

impl InstanceTransformer {
    /// Creates a transformer bound to a fitted pipeline.
    ///
    /// Only the history ring is preallocated; the private
    /// stage-1–3 scratch grows lazily on the first
    /// [`InstanceTransformer::push`] and never materialises on
    /// instances served through [`InstanceTransformer::push_into`].
    pub fn new(pipeline: Arc<FittedPipeline>) -> Self {
        InstanceTransformer {
            ring: vec![0.0; pipeline.serving.history.len() * WINDOW_LEN],
            head: 0,
            filled: 0,
            scratch: TransformScratch::new(),
            out: Vec::new(),
            legacy_window: Vec::new(),
            pipeline,
        }
    }

    /// Number of samples [`InstanceTransformer::push`] and
    /// [`InstanceTransformer::push_into`] have seen so far (capped at
    /// the window length).
    pub fn warmup(&self) -> usize {
        self.filled
    }

    /// Pushes one raw metric vector (host metrics then container
    /// metrics) and returns the model-input vector, borrowed from an
    /// internal buffer (valid until the next push).
    ///
    /// Early samples use a truncated history, exactly like a training
    /// block's first seconds. Steady state performs no heap allocation.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when `raw` is not the raw width (the window is
    /// left untouched); propagates pipeline errors.
    pub fn push(&mut self, raw: &[f64]) -> Result<&[f64], Error> {
        // Lend the private scratch and output buffer to `push_into`;
        // `mem::take` moves the heap pointers without touching the
        // allocator, so this wrapper adds no per-push cost.
        let width = self.pipeline.output_width();
        let (host, ctr) = raw.split_at(self.pipeline.serving.host_len.min(raw.len()));
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut out = std::mem::take(&mut self.out);
        out.resize(width, 0.0);
        let result = self.push_into(host, ctr, &mut scratch, &mut out);
        self.scratch = scratch;
        self.out = out;
        result?;
        Ok(&self.out)
    }

    /// [`InstanceTransformer::push`] for one observation entry — the
    /// node's host vector and the instance's container vector, read in
    /// place — writing the model-input vector directly into a
    /// caller-provided slice. This is the fleet serving entry point:
    /// the orchestrator hands each instance its row of the shared
    /// feature matrix plus one fleet-wide [`TransformScratch`], so a
    /// tick over N instances performs zero heap allocation and carries
    /// no per-instance scratch (bit-identical to `push`, which
    /// delegates here).
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when `host` or `ctr` is not its raw width (the
    /// window is left untouched); propagates pipeline errors.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the pipeline output width.
    pub fn push_into(
        &mut self,
        host: &[f64],
        ctr: &[f64],
        scratch: &mut TransformScratch,
        out: &mut [f64],
    ) -> Result<(), Error> {
        let _span = obs::Span::enter("pipeline.transform_online");
        obs::counter_add("pipeline.online.pushes", 1);
        let p = &*self.pipeline;
        assert_eq!(out.len(), p.output_width(), "output slice must match pipeline width");
        p.check_widths(host.len(), ctr.len())?;
        p.reduce_into(host, ctr, &mut scratch.scaled, &mut scratch.reduced)?;
        let cur = &scratch.reduced;
        let pos = if self.filled == WINDOW_LEN {
            let oldest = self.head;
            self.head = (oldest + 1) % WINDOW_LEN;
            oldest
        } else {
            self.filled += 1;
            self.filled - 1
        };
        for (samples, &f) in self
            .ring
            .chunks_exact_mut(WINDOW_LEN)
            .zip(&p.serving.history)
        {
            samples[pos] = cur[f];
        }
        let (ring, head) = (&self.ring, self.head);
        let hist = |h: usize, r: usize| ring[h * WINDOW_LEN + (head + r) % WINDOW_LEN];
        let (plan, i) = (&p.serving.plan, self.filled - 1);
        match &p.reduce2 {
            FittedReduction::Select(_) => eval_plan_row(plan, cur, hist, i, out),
            FittedReduction::Pca(_) => {
                scratch.d.resize(plan.len(), 0.0);
                eval_plan_row(plan, cur, hist, i, &mut scratch.d);
                p.reduce2.apply_row_into(&scratch.d, &mut scratch.e)?;
                for (dst, &k) in out.iter_mut().zip(&p.keep) {
                    *dst = scratch.e[k];
                }
            }
        }
        Ok(())
    }

    /// The original per-tick path (1-row matrix through the scaler, a
    /// sliding window of full stage-C rows cloned into fresh vectors,
    /// full stage-D row), retained as the reference
    /// [`InstanceTransformer::push`] is proven bit-identical against. It
    /// keeps its own window, so feed separate instances the same
    /// samples to compare the two paths.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn push_legacy(&mut self, raw: &[f64]) -> Result<Vec<f64>, Error> {
        let _span = obs::Span::enter("pipeline.transform_online");
        obs::counter_add("pipeline.online.pushes", 1);
        let p = Arc::clone(&self.pipeline);
        let base = p.expander.expand(raw);
        let scaled = match &p.scaler {
            Some(s) => {
                let m = Matrix::from_rows(&[base.as_slice()]);
                s.transform(&m)?.row(0).to_vec()
            }
            None => base,
        };
        let reduced = p.reduce1.apply_row(&scaled)?;
        let rw = reduced.len();
        if self.legacy_window.len() == WINDOW_LEN * rw {
            self.legacy_window.copy_within(rw.., 0);
            self.legacy_window[(WINDOW_LEN - 1) * rw..].copy_from_slice(&reduced);
        } else {
            self.legacy_window.extend_from_slice(&reduced);
        }
        let rows: Vec<Vec<f64>> = self.legacy_window.chunks(rw).map(<[f64]>::to_vec).collect();
        p.transform_window(&rows)
    }
}

monitorless_std::json_struct!(PipelineConfig {
    normalize,
    reduce1,
    time_features,
    products,
    reduce2,
    seed,
    n_jobs,
});

// Hand-written (rather than `json_struct!`) because `serving` is derived
// state: the ten fitted fields go on the wire in `json_struct!` order,
// and deserialization rebuilds the serving plans from them.
impl monitorless_std::json::ToJson for FittedPipeline {
    fn to_json(&self) -> monitorless_std::json::Json {
        monitorless_std::json::Json::Obj(vec![
            ("config".into(), self.config.to_json()),
            ("expander".into(), self.expander.to_json()),
            ("scaler".into(), self.scaler.to_json()),
            ("reduce1".into(), self.reduce1.to_json()),
            ("time".into(), self.time.to_json()),
            ("pairs".into(), self.pairs.to_json()),
            ("names_c".into(), self.names_c.to_json()),
            ("reduce2".into(), self.reduce2.to_json()),
            ("keep".into(), self.keep.to_json()),
            ("names".into(), self.names.to_json()),
        ])
    }
}

impl monitorless_std::json::FromJson for FittedPipeline {
    fn from_json(json: &monitorless_std::json::Json) -> Result<Self, JsonError> {
        use monitorless_std::json::field;
        FittedPipeline {
            config: field(json, "config")?,
            expander: field(json, "expander")?,
            scaler: field(json, "scaler")?,
            reduce1: field(json, "reduce1")?,
            time: field(json, "time")?,
            pairs: field(json, "pairs")?,
            names_c: field(json, "names_c")?,
            reduce2: field(json, "reduce2")?,
            keep: field(json, "keep")?,
            names: field(json, "names")?,
            serving: Serving::default(),
        }
        .with_serving()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless_metrics::catalog::Catalog;
    use monitorless_metrics::signals::{ContainerSignals, HostSignals};
    use monitorless_std::json::{FromJson, Json, ToJson};

    /// Builds a toy labeled run: container CPU utilization ramps up and
    /// the label is "cpu util > 0.85".
    fn toy_raw(n: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<u32>) {
        let catalog = Catalog::standard();
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for g in 0..2u32 {
            for t in 0..n {
                let util = (t as f64 / n as f64).min(1.0);
                let host = HostSignals {
                    cpu_util: util * 0.9,
                    tcp_estab: 50.0 + 100.0 * util,
                    net_in_bytes: 1e6 * util,
                    ..HostSignals::default()
                };
                let ctr = ContainerSignals {
                    cpu_util: util,
                    mem_util: 0.4,
                    tcp_conns: 20.0 * util,
                    ..ContainerSignals::default()
                };
                let mut v = catalog.expand_host(&host, t as u64, seed ^ u64::from(g));
                v.extend(catalog.expand_container(&ctr, t as u64, seed ^ u64::from(g) ^ 1));
                rows.push(v);
                y.push(u8::from(util > 0.85));
                groups.push(g);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y, groups)
    }

    fn layout() -> RawLayout {
        RawLayout::from_catalog(&Catalog::standard()).unwrap()
    }

    #[test]
    fn fit_transform_produces_informative_features() {
        let (x, y, groups) = toy_raw(60, 3);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, xt) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        assert_eq!(xt.rows(), x.rows());
        assert!(xt.cols() > 0);
        assert_eq!(xt.cols(), fitted.output_width());
        // No zero-variance columns survive.
        assert!(xt.column_stds().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn transform_batch_matches_fit_transform() {
        let (x, y, groups) = toy_raw(40, 5);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, xt) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let again = fitted.transform_batch(&x, &groups).unwrap();
        assert_eq!(xt.rows(), again.rows());
        for r in 0..xt.rows() {
            for (a, b) in xt.row(r).iter().zip(again.row(r)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn streaming_batch_is_bit_identical_to_legacy() {
        let (x, y, groups) = toy_raw(40, 13);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, _) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let fast = fitted.transform_batch(&x, &groups).unwrap();
        let legacy = fitted.transform_batch_legacy(&x, &groups).unwrap();
        assert_eq!(fast.rows(), legacy.rows());
        assert_eq!(fast.cols(), legacy.cols());
        for r in 0..fast.rows() {
            for (a, b) in fast.row(r).iter().zip(legacy.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn online_transformer_matches_batch_after_warmup() {
        let (x, y, groups) = toy_raw(40, 7);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, xt) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let fitted = Arc::new(fitted);
        let mut online = InstanceTransformer::new(Arc::clone(&fitted));
        let mut online_legacy = InstanceTransformer::new(Arc::clone(&fitted));
        // Feed group 0's rows (first 40 rows).
        for t in 0..40 {
            let legacy = online_legacy.push_legacy(x.row(t)).unwrap();
            let out = online.push(x.row(t)).unwrap();
            // Streaming and legacy online paths are bit-identical at
            // every tick, warmup included.
            for (a, b) in out.iter().zip(&legacy) {
                assert_eq!(a.to_bits(), b.to_bits(), "t={t}");
            }
            if t >= WINDOW_LEN {
                // After warmup the window holds only the last 16 samples;
                // batch lag-15 looks back at most 15 → identical.
                for (a, b) in out.iter().zip(xt.row(t)) {
                    assert!((a - b).abs() < 1e-9, "t={t}");
                }
            }
        }
        assert_eq!(online.warmup(), WINDOW_LEN);
    }

    fn fit(config: PipelineConfig) -> FittedPipeline {
        let (x, y, groups) = toy_raw(40, 3);
        FeaturePipeline::new(config)
            .fit_transform(&x, &y, &groups, layout())
            .unwrap()
            .0
    }

    #[test]
    fn history_columns_are_the_stage_c_columns_time_cells_read() {
        // Read back from the kept names, independently of the plan: a
        // time cell is `<stage-C name>-AVG<x>` or `-LAG<x>`, a product
        // `<a> × <b>`, any other name a stage-C column.
        let quick = fit(PipelineConfig::quick());
        let stage_c = |name: &str| quick.names_c.iter().position(|c| c == name);
        fn time_stem(n: &str) -> Option<&str> {
            TIME_LAGS.iter().find_map(|x| {
                n.strip_suffix(&format!("-AVG{x}"))
                    .or_else(|| n.strip_suffix(&format!("-LAG{x}")))
            })
        }
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let names = quick.feature_names();
        let history = sorted(
            names
                .iter()
                .filter_map(|n| stage_c(time_stem(n)?))
                .collect(),
        );
        assert!(!history.is_empty(), "the quick plan reads time features");
        assert!(history.len() < quick.reduced_width(), "and not every stage-C column");
        assert_eq!(quick.serving.history, history);
        let read = sorted(
            names
                .iter()
                .flat_map(|n| time_stem(n).map_or_else(|| n.split(" × ").collect(), |s| vec![s]))
                .map(|name| stage_c(name).expect("a stage-C name"))
                .collect(),
        );
        let cells: Vec<usize> = quick.serving.cells.iter().map(|c| c.col).collect();
        assert_eq!(cells, read, "stages 1–3 compute exactly the read stage-C columns");

        let pca2 = fit(PipelineConfig {
            reduce2: Reduction::Pca {
                variance: 0.999,
                max_components: 8,
            },
            ..PipelineConfig::quick()
        });
        let every: Vec<usize> = (0..pca2.reduced_width()).collect();
        assert_eq!(pca2.serving.history, every);

        let no_time = fit(PipelineConfig {
            time_features: false,
            ..PipelineConfig::quick()
        });
        assert!(no_time.serving.history.is_empty());
    }

    #[test]
    fn ring_holds_window_len_samples_of_each_history_column() {
        let quick = Arc::new(fit(PipelineConfig::quick()));
        let (x, _, _) = toy_raw(40, 4);
        let mut online = InstanceTransformer::new(Arc::clone(&quick));
        let values = quick.serving.history.len() * WINDOW_LEN;
        assert!(values < quick.reduced_width() * WINDOW_LEN, "not full stage-C rows");
        for t in 0..2 * WINDOW_LEN {
            online.push(x.row(t)).unwrap();
            assert_eq!((online.ring.len(), online.ring.capacity()), (values, values), "t={t}");
        }
        assert!(online.legacy_window.is_empty());

        let no_time = Arc::new(fit(PipelineConfig {
            time_features: false,
            ..PipelineConfig::quick()
        }));
        let mut online = InstanceTransformer::new(no_time);
        for t in 0..2 * WINDOW_LEN {
            online.push(x.row(t)).unwrap();
        }
        assert_eq!(online.ring.capacity(), 0);
    }

    #[test]
    fn product_features_appear_in_names() {
        let (x, y, groups) = toy_raw(40, 9);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, _) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let names = fitted.feature_names();
        assert!(
            names.iter().any(|n| n.contains(" × ")),
            "expected product features among {names:?}"
        );
    }

    /// A toy pipeline with PCA in both reductions, and its output,
    /// fitted once for all the tests that read it.
    fn pca_pipeline() -> &'static (FittedPipeline, Matrix) {
        static FITTED: std::sync::OnceLock<(FittedPipeline, Matrix)> = std::sync::OnceLock::new();
        FITTED.get_or_init(|| {
            let (x, y, groups) = toy_raw(30, 11);
            let config = PipelineConfig {
                normalize: true,
                reduce1: Reduction::Pca {
                    variance: 0.999,
                    max_components: 10,
                },
                time_features: true,
                products: true,
                reduce2: Reduction::Pca {
                    variance: 0.999,
                    max_components: 8,
                },
                seed: 0,
                n_jobs: 2,
            };
            FeaturePipeline::new(config)
                .fit_transform(&x, &y, &groups, layout())
                .unwrap()
        })
    }

    #[test]
    fn pca_pipeline_also_works() {
        let (fitted, xt) = pca_pipeline();
        assert!(xt.cols() <= 8);
        assert!(fitted.feature_names().iter().all(|n| n.starts_with("PC")));
    }

    /// The member `key` of a JSON object.
    fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(members) = json else {
            panic!("expected an object holding {key}")
        };
        let (_, value) = members.iter_mut().find(|(k, _)| k == key).unwrap();
        value
    }

    /// The elements of a JSON array.
    fn elements(json: &mut Json) -> &mut Vec<Json> {
        let Json::Arr(items) = json else {
            panic!("expected an array")
        };
        items
    }

    /// Applies `edit` to the PCA body of the saved pipeline's
    /// `reduction` (`"reduce1"` or `"reduce2"`) and asserts that
    /// decoding fails with a message ending in `want`.
    fn assert_edited_pca_rejected(reduction: &str, edit: impl FnOnce(&mut Json), want: &str) {
        let mut json = pca_pipeline().0.to_json();
        edit(member(member(&mut json, reduction), "Pca"));
        match FittedPipeline::from_json(&json) {
            Err(JsonError(msg)) => assert!(msg.ends_with(want), "{want}: got {msg}"),
            Ok(_) => panic!("{want}: the edited {reduction} PCA decoded"),
        }
    }

    /// Drops the last input column from a PCA body: its mean and every
    /// component lose their last entry, which keeps the PCA itself
    /// consistent but fitted on a width one too narrow.
    fn narrow_pca(pca: &mut Json) {
        elements(member(pca, "mean")).pop();
        for comp in elements(member(pca, "components")) {
            elements(comp).pop();
        }
    }

    #[test]
    fn pca_without_components_fails_to_decode() {
        assert_edited_pca_rejected(
            "reduce2",
            |pca| elements(member(pca, "components")).clear(),
            "PCA has no components",
        );
    }

    #[test]
    fn pca_component_not_the_mean_width_fails_to_decode() {
        let base = pca_pipeline().0.expander.len();
        assert_edited_pca_rejected(
            "reduce1",
            |pca| {
                elements(&mut elements(member(pca, "components"))[0]).pop();
            },
            &format!("PCA component 0 has {} entries, the mean has {base}", base - 1),
        );
    }

    #[test]
    fn reduce1_pca_not_fitted_on_the_base_width_fails_to_decode() {
        let base = pca_pipeline().0.expander.len();
        assert_edited_pca_rejected(
            "reduce1",
            narrow_pca,
            &format!("reduce1 PCA was fitted on {} columns, the base width is {base}", base - 1),
        );
    }

    #[test]
    fn reduce2_pca_not_fitted_on_the_stage_d_width_fails_to_decode() {
        let fitted = &pca_pipeline().0;
        let d_width = fitted.time_width() + fitted.pairs.len();
        assert_edited_pca_rejected(
            "reduce2",
            narrow_pca,
            &format!(
                "reduce2 PCA was fitted on {} columns, the stage-D width is {d_width}",
                d_width - 1
            ),
        );
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (x, y, _) = toy_raw(10, 1);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let err = pipeline.fit_transform(&x, &y, &[0, 1], layout());
        assert!(matches!(err, Err(Error::Invalid(_))));
    }
}

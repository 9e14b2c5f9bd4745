//! Domain adaptation and the production retraining loop.
//!
//! "Monitorless may require additional calibration to infer the
//! performance of applications with resource usage patterns
//! significantly different from those in the training set … in the case
//! where there is no labeled data in the target domain." This module
//! implements the simplest useful heuristic of that family: per-metric
//! first/second-moment alignment. Unlabeled target-domain samples are
//! linearly mapped so each raw metric's mean and spread match the
//! training distribution before entering the feature pipeline —
//! correcting hardware offsets (different clock speeds, link capacities)
//! without touching the trained model.
//!
//! Relative utilizations and the binary level features derived from them
//! are intentionally *not* remapped (they are already scale-free), so
//! alignment is applied only to metrics whose training/target moments
//! differ materially.
//!
//! The second half of the module is the **shadow-retrain fast path**
//! ([`ShadowRetrainer`]): drift-flagged fresh episodes are labeled with
//! the existing Kneedle pipeline, appended to a presorted training
//! cache incrementally
//! ([`monitorless_learn::PresortedDataset::append_rows`] — paying only
//! for the delta, not a full re-sort), a challenger forest is refit on
//! the cache, and the champion is replaced only when a
//! champion/challenger evaluation on a held-out episode passes.

use monitorless_label::kneedle::KneedleParams;
use monitorless_label::{SaturationDirection, SaturationThreshold};
use monitorless_learn::{Matrix, PresortedDataset, RandomForest, RandomForestParams};
use monitorless_obs as obs;

use crate::model::MonitorlessModel;
use crate::training::{saturation_label_parts, TrainingData};
use crate::Error;

/// Per-feature affine alignment from a target domain to the training
/// domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainAdapter {
    scale: Vec<f64>,
    offset: Vec<f64>,
}

/// Features whose moment ratio is within this factor of 1 are left
/// untouched (the distribution shift is noise, not hardware).
const MATERIAL_SHIFT: f64 = 1.15;

impl DomainAdapter {
    /// Fits the adapter from *unlabeled* raw samples of the source
    /// (training) and target domains.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on empty inputs or column mismatch.
    pub fn fit(source: &Matrix, target: &Matrix) -> Result<Self, Error> {
        if source.rows() == 0 || target.rows() == 0 {
            return Err(Error::Invalid("empty domain sample".into()));
        }
        if source.cols() != target.cols() {
            return Err(Error::Invalid("domain feature counts differ".into()));
        }
        let s_mean = source.column_means();
        let s_std = source.column_stds();
        let t_mean = target.column_means();
        let t_std = target.column_stds();
        let mut scale = Vec::with_capacity(source.cols());
        let mut offset = Vec::with_capacity(source.cols());
        for c in 0..source.cols() {
            let (a, b) = if t_std[c] > 1e-12 && s_std[c] > 1e-12 {
                let ratio = s_std[c] / t_std[c];
                if !(1.0 / MATERIAL_SHIFT..=MATERIAL_SHIFT).contains(&ratio)
                    || relative_gap(s_mean[c], t_mean[c]) > MATERIAL_SHIFT - 1.0
                {
                    // x' = (x - μ_t) * σ_s/σ_t + μ_s
                    (ratio, s_mean[c] - t_mean[c] * ratio)
                } else {
                    (1.0, 0.0)
                }
            } else {
                (1.0, 0.0)
            };
            scale.push(a);
            offset.push(b);
        }
        Ok(DomainAdapter { scale, offset })
    }

    /// Number of features the adapter actually remaps.
    pub fn adapted_features(&self) -> usize {
        self.scale
            .iter()
            .zip(&self.offset)
            .filter(|(&a, &b)| a != 1.0 || b != 0.0)
            .count()
    }

    /// Adapts one raw sample in place.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    pub fn adapt_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.scale.len(), "row width");
        for ((v, &a), &b) in row.iter_mut().zip(&self.scale).zip(&self.offset) {
            *v = (*v * a + b).max(0.0);
        }
    }

    /// Adapts a whole matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted width.
    pub fn adapt_matrix(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        for r in 0..out.rows() {
            self.adapt_row(out.row_mut(r));
        }
        out
    }
}

fn relative_gap(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom < 1e-12 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// One fresh, unlabeled serving window: chronological raw samples plus
/// the per-tick KPI series needed to label them. Produced by
/// [`crate::training::run_fresh_episode`] in the simulator; in
/// production this is the window a drift alert flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRun {
    /// Group id of the rows (the Table 1 configuration id).
    pub group: u32,
    /// Raw 1040-metric samples, chronological.
    pub raw: Matrix,
    /// Offered load per recorded tick.
    pub offered_rps: Vec<f64>,
    /// Achieved throughput per recorded tick.
    pub throughput_rps: Vec<f64>,
    /// Failed-request fraction per recorded tick.
    pub failure_fraction: Vec<f64>,
}

/// An episode with its per-tick saturation labels attached.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledEpisode {
    /// Group id of the rows.
    pub group: u32,
    /// Raw samples, chronological.
    pub raw: Matrix,
    /// Saturation label per row.
    pub labels: Vec<u8>,
    /// The Υ the Kneedle calibration found for this episode (`None`
    /// when the window never showed a knee — labels then come from
    /// failures alone).
    pub threshold: Option<f64>,
}

/// Hyper-parameters of the shadow retraining loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainParams {
    /// Challenger forest parameters (including its seed — retraining
    /// is deterministic for a fixed ingest sequence).
    pub forest: RandomForestParams,
    /// Allowed challenger-F1 shortfall against the champion on the
    /// held-out episode. `0.0` means the challenger must match or beat
    /// the champion to be promoted.
    pub tolerance: f64,
}

impl RetrainParams {
    /// Challenger parameters mirroring the champion's own forest.
    pub fn from_model(model: &MonitorlessModel) -> Self {
        RetrainParams {
            forest: model.forest().params().clone(),
            tolerance: 0.0,
        }
    }
}

/// Outcome of one champion/challenger round.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainReport {
    /// Whether the challenger replaced the champion.
    pub promoted: bool,
    /// Champion F1 on the held-out episode.
    pub champion_f1: f64,
    /// Challenger F1 on the held-out episode.
    pub challenger_f1: f64,
    /// Rows in the training cache the challenger was fitted on.
    pub train_rows: usize,
    /// Rows in the held-out episode.
    pub holdout_rows: usize,
}

/// The shadow-retrain fast path: an incrementally growing presorted
/// training cache in the champion's *transformed* feature space, plus
/// the champion/challenger promotion gate.
///
/// The lifecycle closing the ROADMAP item:
///
/// 1. a drift alert flags a serving window → record it as an
///    [`EpisodeRun`];
/// 2. [`ShadowRetrainer::label_episode`] labels it with the existing
///    Kneedle pipeline (knee on offered-vs-throughput, failures
///    override);
/// 3. [`ShadowRetrainer::ingest`] transforms the rows through the
///    champion's fitted pipeline and appends them to the presorted
///    cache via [`PresortedDataset::append_rows`] — paying one sort of
///    the delta instead of a full rebuild;
/// 4. [`ShadowRetrainer::retrain`] refits a challenger forest directly
///    on the cache ([`RandomForest::fit_presorted`]) and promotes it
///    only if it matches or beats the champion's F1 on a held-out
///    episode.
///
/// The pipeline itself is not refit — the cache lives in the
/// champion's feature space, which is what makes both the incremental
/// append and the cheap challenger fit possible.
#[derive(Debug, Clone)]
pub struct ShadowRetrainer {
    champion: MonitorlessModel,
    ps: PresortedDataset,
    y: Vec<u8>,
    params: RetrainParams,
}

impl ShadowRetrainer {
    /// Seeds the retrainer with the champion and its original training
    /// data: the base rows are transformed through the champion's
    /// pipeline once and every column is sorted once, here, so the
    /// sort cost stays in set-up rather than landing in the first
    /// retrain round; every later ingest is incremental.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn new(
        champion: MonitorlessModel,
        data: &TrainingData,
        params: RetrainParams,
    ) -> Result<Self, Error> {
        let x = champion
            .pipeline()
            .transform_batch(data.dataset.x(), data.dataset.groups())?;
        let mut ps = PresortedDataset::build_sorted(&x);
        // Headroom for the ingest loop: the first episodes land in
        // existing slack instead of forcing a cache re-stride.
        ps.reserve_rows(x.rows() / 4 + 256);
        Ok(ShadowRetrainer {
            champion,
            ps,
            y: data.dataset.y().to_vec(),
            params,
        })
    }

    /// The current champion model.
    pub fn champion(&self) -> &MonitorlessModel {
        &self.champion
    }

    /// Rows currently in the training cache.
    pub fn train_rows(&self) -> usize {
        self.ps.n_rows()
    }

    /// Labels a fresh episode with the existing Kneedle pipeline: Υ is
    /// calibrated from the episode's own offered/throughput series
    /// (`None` when no knee exists), then each tick is labeled exactly
    /// like training data
    /// ([`crate::training::saturation_label_parts`]).
    ///
    /// # Errors
    ///
    /// Propagates labeling errors other than a missing knee.
    pub fn label_episode(&self, episode: &EpisodeRun) -> Result<LabeledEpisode, Error> {
        let threshold = match SaturationThreshold::calibrate(
            &episode.offered_rps,
            &episode.throughput_rps,
            &KneedleParams::default(),
            SaturationDirection::Above,
        ) {
            Ok(t) => Some(t),
            Err(monitorless_label::Error::NoKnee) => None,
            Err(e) => return Err(e.into()),
        };
        let labels = episode
            .throughput_rps
            .iter()
            .zip(&episode.failure_fraction)
            .map(|(&tput, &fail)| saturation_label_parts(tput, fail, threshold.as_ref()))
            .collect();
        Ok(LabeledEpisode {
            group: episode.group,
            raw: episode.raw.clone(),
            labels,
            threshold: threshold.map(|t| t.upsilon()),
        })
    }

    /// Transforms a labeled episode through the champion's pipeline and
    /// appends it to the presorted cache incrementally. Returns the
    /// number of rows appended.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors; [`Error::Invalid`] when the label
    /// count does not match the episode's rows.
    pub fn ingest(&mut self, episode: &LabeledEpisode) -> Result<usize, Error> {
        if episode.labels.len() != episode.raw.rows() {
            return Err(Error::Invalid("episode labels do not match its rows".into()));
        }
        let groups = vec![episode.group; episode.raw.rows()];
        let x = self
            .champion
            .pipeline()
            .transform_batch(&episode.raw, &groups)?;
        self.ps.append_rows(&x);
        self.y.extend(&episode.labels);
        obs::counter_add("adapt.ingested_rows", x.rows() as u64);
        Ok(x.rows())
    }

    /// Labels and ingests a fresh episode in one step.
    ///
    /// # Errors
    ///
    /// As [`ShadowRetrainer::label_episode`] and
    /// [`ShadowRetrainer::ingest`].
    pub fn ingest_run(&mut self, episode: &EpisodeRun) -> Result<usize, Error> {
        let labeled = self.label_episode(episode)?;
        self.ingest(&labeled)
    }

    /// Fits a challenger forest on the presorted cache and promotes it
    /// iff its F1 on the held-out episode is within
    /// [`RetrainParams::tolerance`] of the champion's (ties promote:
    /// the challenger has seen strictly more data).
    ///
    /// # Errors
    ///
    /// Propagates learner and pipeline errors.
    pub fn retrain(&mut self, holdout: &LabeledEpisode) -> Result<RetrainReport, Error> {
        let span = obs::Span::enter("adapt.retrain");
        let mut challenger = RandomForest::new(self.params.forest.clone());
        challenger.fit_presorted(&self.ps, &self.y, None)?;

        let holdout_groups = vec![holdout.group; holdout.raw.rows()];
        let hx = self
            .champion
            .pipeline()
            .transform_batch(&holdout.raw, &holdout_groups)?;
        let n_jobs = self.champion.forest().params().n_jobs;
        let threshold = self.champion.threshold();
        let decide = |probs: Vec<f64>| -> Vec<u8> {
            probs
                .into_iter()
                .map(|p| u8::from(p >= threshold))
                .collect()
        };
        let champion_pred = decide(self.champion.flat().predict_proba(&hx, n_jobs));
        let challenger_pred = decide(challenger.to_flat().predict_proba(&hx, n_jobs));
        let champion_f1 = monitorless_learn::metrics::f1_score(&holdout.labels, &champion_pred);
        let challenger_f1 = monitorless_learn::metrics::f1_score(&holdout.labels, &challenger_pred);

        let promoted = challenger_f1 + self.params.tolerance >= champion_f1;
        if promoted {
            self.champion = self.champion.clone().with_forest(challenger)?;
        }
        drop(span);
        obs::counter_add("adapt.retrains", 1);
        obs::counter_add("adapt.promotions", u64::from(promoted));
        Ok(RetrainReport {
            promoted,
            champion_f1,
            challenger_f1,
            train_rows: self.ps.n_rows(),
            holdout_rows: holdout.raw.rows(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless_std::rng::{Rng, StdRng};

    fn domain(n: usize, scale: f64, shift: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for _ in 0..n {
            rows.push(vec![
                (rng.gen::<f64>() * 100.0) * scale + shift,
                rng.gen::<f64>() * 10.0, // stable feature
            ]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    #[test]
    fn adapter_restores_source_moments() {
        let source = domain(300, 1.0, 0.0, 1);
        let target = domain(300, 4.0, 50.0, 2); // different "hardware"
        let adapter = DomainAdapter::fit(&source, &target).unwrap();
        let adapted = adapter.adapt_matrix(&target);
        let s_mean = source.column_means()[0];
        let a_mean = adapted.column_means()[0];
        assert!((s_mean - a_mean).abs() < 0.1 * s_mean, "{s_mean} vs {a_mean}");
        let s_std = source.column_stds()[0];
        let a_std = adapted.column_stds()[0];
        assert!((s_std - a_std).abs() < 0.15 * s_std);
    }

    #[test]
    fn stable_features_are_left_alone() {
        let source = domain(300, 1.0, 0.0, 3);
        let target = domain(300, 4.0, 50.0, 4);
        let adapter = DomainAdapter::fit(&source, &target).unwrap();
        // Only the shifted feature is remapped.
        assert_eq!(adapter.adapted_features(), 1);
        let mut row = vec![10.0, 5.0];
        adapter.adapt_row(&mut row);
        assert_eq!(row[1], 5.0);
        assert_ne!(row[0], 10.0);
    }

    #[test]
    fn identical_domains_need_no_adaptation() {
        let source = domain(200, 1.0, 0.0, 5);
        let target = domain(200, 1.0, 0.0, 6);
        let adapter = DomainAdapter::fit(&source, &target).unwrap();
        assert_eq!(adapter.adapted_features(), 0);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let a = domain(10, 1.0, 0.0, 7);
        let b = Matrix::zeros(5, 3);
        assert!(DomainAdapter::fit(&a, &b).is_err());
        assert!(DomainAdapter::fit(&Matrix::zeros(0, 2), &a).is_err());
    }

    #[test]
    fn adapted_values_stay_nonnegative() {
        let source = domain(100, 1.0, 0.0, 8);
        let target = domain(100, 1.0, 500.0, 9);
        let adapter = DomainAdapter::fit(&source, &target).unwrap();
        let mut row = vec![0.0, 0.0];
        adapter.adapt_row(&mut row);
        assert!(row.iter().all(|&v| v >= 0.0));
    }
}

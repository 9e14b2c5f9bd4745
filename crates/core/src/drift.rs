//! Streaming covariate-drift detection over the serving feature stream.
//!
//! Monitorless's premise — a platform-metrics-only model standing in
//! for app-level monitoring — holds only while the serving feature
//! distribution looks like the training distribution; the model is
//! itself an unmonitored component the moment it drifts. This module
//! monitors the monitor:
//!
//! * [`DriftProfile`] — a compact reference profile captured from the
//!   *transformed* training matrix at fit time (equi-depth quantile bin
//!   edges plus mean/std per feature) and serialized alongside
//!   [`crate::model::MonitorlessModel`]. Equi-depth edges make the
//!   reference distribution uniform by construction (`1/k` per bin), so no
//!   per-bin reference counts need to ship.
//! * [`DriftDetector`] — a zero-allocation-per-row streaming detector
//!   over the features the model's forest splits on: a feature no tree
//!   reads cannot move a prediction, so it is neither binned nor scored.
//!   The orchestrator feeds it a bounded sample of each tick's rows
//!   ([`samples_row`]): every row of a tick of up to [`CHECK_EVERY`]
//!   rows, and an evenly strided `CHECK_EVERY` or fewer of a larger
//!   one. Per scored feature it
//!   keeps only a sliding-window histogram over the reference bins (a
//!   ring of bin indices, updated incrementally), and every
//!   [`CHECK_EVERY`] rows scores each feature with the Population
//!   Stability Index `PSI = Σ (p_i − q_i) · ln(p_i / q_i)` of the window
//!   against the uniform reference. Each term depends only on a bin's
//!   count and the window total, so a check sums table lookups instead
//!   of evaluating a logarithm per bin. Industry folklore reads PSI <
//!   0.1 as stable and PSI > 0.25 as significant shift; those are the
//!   hysteresis bounds. An alert says which way a feature moved through
//!   [`DriftDetector::tail_shares`], read from the same histogram.
//! * **Hysteresis.** A feature *trips* when its PSI reaches
//!   [`PSI_ALERT`] and must stay tripped for [`PATIENCE`] consecutive
//!   checks before the detector raises an alert; it re-arms only after
//!   dropping below [`PSI_CLEAR`]. A stationary stream therefore stays
//!   quiet (sampling noise has expected PSI ≈ (k−1)/window, an order of
//!   magnitude under the alert bound) while a sustained covariate shift
//!   trips within `WINDOW + (PATIENCE + 1) · CHECK_EVERY` rows after
//!   onset (`tests/drift_detection.rs` pins both properties). Ticks of
//!   more than `CHECK_EVERY` rows feed it 16 to 32 rows each, so a
//!   fleet-wide shift alerts within 24 ticks, and within 13 once a
//!   tick holds 992 rows or more.
//!
//! The detector publishes `drift.checks` / `drift.alerts` counters and
//! a `drift.max_psi` gauge through `monitorless-obs`; the orchestrator
//! adds trace-stamped journal records on alert transitions.

use monitorless_learn::{value_order, Matrix, PresortedDataset};
use monitorless_obs as obs;

/// Number of equi-depth bins per feature in the reference profile. Ten
/// is the classic PSI decile convention: coarse enough that a 256-row
/// window fills every bin, fine enough to see mean *and* scale shifts.
pub const PROFILE_BINS: usize = 10;

/// Sliding-window length (rows) of the PSI histogram.
pub const WINDOW: usize = 256;

/// Rows required before the first score (avoids small-sample PSI
/// spikes).
pub const MIN_SAMPLES: usize = 128;

/// Scoring cadence in rows.
pub const CHECK_EVERY: usize = 32;

/// PSI at or above which a feature trips.
pub const PSI_ALERT: f64 = 0.25;

/// PSI below which a tripped feature re-arms (hysteresis).
pub const PSI_CLEAR: f64 = 0.10;

/// Consecutive tripped checks before an alert is raised.
pub const PATIENCE: usize = 3;

/// Whether row `k` of a tick of `n` rows in gather order, the `tick`-th
/// the orchestrator serves, goes into its drift detector. With
/// `stride = max(1, ⌈n / CHECK_EVERY⌉)`, row `k` goes in when
/// `k % stride == tick % stride`. A tick so feeds the detector at most
/// [`CHECK_EVERY`] rows and runs at most one check; a tick of
/// `CHECK_EVERY` rows or fewer feeds every row; and while the fleet
/// does not change, each gather position is taken once every `stride`
/// ticks.
#[inline]
pub fn samples_row(k: usize, n: usize, tick: u64) -> bool {
    let stride = n.div_ceil(CHECK_EVERY).max(1);
    k % stride == (tick % stride as u64) as usize
}

/// Reference statistics for one feature, captured at fit time.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureProfile {
    /// Interior equi-depth bin edges, ascending (`PROFILE_BINS − 1` of
    /// them; values `<= edges[0]` fall in bin 0, `> edges.last()` in the
    /// last bin). Degenerate (constant) features repeat one edge.
    pub edges: Vec<f64>,
    /// Training mean.
    pub mean: f64,
    /// Training standard deviation (population).
    pub std: f64,
}

monitorless_std::json_struct!(FeatureProfile { edges, mean, std });

impl FeatureProfile {
    /// The profile of a non-empty column sorted in [`value_order`]:
    /// equi-depth decile edges, then mean and std summed in that order.
    fn of_sorted(col: &[f64]) -> Self {
        let rows = col.len();
        let edges = (1..PROFILE_BINS)
            .map(|i| col[(i * rows / PROFILE_BINS).min(rows - 1)])
            .collect();
        let mean = col.iter().sum::<f64>() / rows as f64;
        let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / rows as f64;
        FeatureProfile {
            edges,
            mean,
            std: var.sqrt(),
        }
    }

    /// Bin index of `v` among this feature's equi-depth bins: the number
    /// of edges `v` is not at or below, counted without branches. NaN —
    /// for which every comparison is false — lands in the last bin,
    /// mirroring the tree walk's NaN-goes-right convention.
    #[inline]
    pub fn bin(&self, v: f64) -> usize {
        bin_of(&self.edges, v)
    }
}

/// The number of `edges` that `v` is not at or below (see
/// [`FeatureProfile::bin`]). `!(v <= e)` is deliberate: unlike `v > e`
/// it also counts every edge for NaN.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn bin_of(edges: &[f64], v: f64) -> usize {
    edges.iter().map(|&e| usize::from(!(v <= e))).sum()
}

/// A per-feature reference profile of the training feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftProfile {
    /// One profile per pipeline output feature.
    pub features: Vec<FeatureProfile>,
}

monitorless_std::json_struct!(DriftProfile { features });

impl DriftProfile {
    /// Captures a profile from a (transformed) training matrix: per
    /// column, equi-depth decile edges plus mean/std.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no rows.
    pub fn from_matrix(x: &Matrix) -> Self {
        assert!(x.rows() > 0, "cannot profile an empty matrix");
        let mut features = Vec::with_capacity(x.cols());
        let mut col = vec![0.0; x.rows()];
        for c in 0..x.cols() {
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = x.row(r)[c];
            }
            // NaNs of either sign sort last, biasing high quantile
            // edges; training matrices are imputed upstream so this is
            // a safety net, not a design point.
            col.sort_by(|a, b| value_order(*a, *b));
            features.push(FeatureProfile::of_sorted(&col));
        }
        DriftProfile { features }
    }

    /// Captures the same profile as [`DriftProfile::from_matrix`], bit
    /// for bit, from a presorted view of the matrix, without sorting a
    /// column again: a column in [`value_order`] is its distinct
    /// values in rank order, each repeated as many times as rows hold
    /// its rank. A forest fit on the same view has sorted most columns
    /// already; this sorts the rest.
    ///
    /// # Panics
    ///
    /// Panics if `ps` has no rows.
    pub fn from_presorted(ps: &PresortedDataset) -> Self {
        assert!(ps.n_rows() > 0, "cannot profile an empty matrix");
        let mut features = Vec::with_capacity(ps.n_features());
        let mut counts: Vec<u32> = Vec::new();
        let mut col = Vec::with_capacity(ps.n_rows());
        for f in 0..ps.n_features() {
            counts.clear();
            counts.resize(ps.n_ranks(f), 0);
            for r in ps.ranks(f) {
                counts[r as usize] += 1;
            }
            col.clear();
            for (v, &c) in ps.rank_values(f).zip(&counts) {
                col.extend(std::iter::repeat_n(v, c as usize));
            }
            features.push(FeatureProfile::of_sorted(&col));
        }
        DriftProfile { features }
    }

    /// Number of profiled features.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }
}

/// Outcome of one scoring pass (every [`CHECK_EVERY`] rows once warmed
/// up).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCheck {
    /// Largest per-feature PSI this check.
    pub max_psi: f64,
    /// Feature index attaining `max_psi`.
    pub max_feature: usize,
    /// Features whose alert state switched on during this check.
    pub new_alerts: Vec<usize>,
}

/// Streaming per-feature drift detector (see the module docs).
///
/// It scores only the pipeline features it was built over (the model's
/// split features); the others keep score 0 and never alert. A push
/// bins each scored feature with a branch-free count over its edges
/// (copied into one flat array); a check sums, per scored feature, the
/// PSI term of each bin's count from a table indexed by count. The
/// table holds `(p − q)·ln(p/q)` for every count `0..=WINDOW` and is
/// rebuilt only when the window total changes — at most once per check
/// during warm-up, never once the window is full. Every score is
/// bit-identical to evaluating the formula per bin.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    /// The pipeline features scored, ascending.
    features: Vec<usize>,
    /// Interior edges of every scored feature,
    /// `features.len() × (PROFILE_BINS − 1)`.
    edges: Vec<f64>,
    /// PSI term per bin count `0..=terms_total` for a window of
    /// `terms_total` rows (empty before the first check).
    psi_terms: Vec<f64>,
    terms_total: usize,
    /// Ring of bin indices, `WINDOW × features.len()`, row-major.
    ring: Vec<u8>,
    /// Current window histogram, `features.len() × PROFILE_BINS`.
    counts: Vec<u32>,
    /// Next ring row to overwrite.
    head: usize,
    /// Rows currently in the window (saturates at `WINDOW`).
    filled: usize,
    rows_since_check: usize,
    /// Latest PSI per pipeline feature.
    scores: Vec<f64>,
    /// Consecutive tripped checks per pipeline feature.
    trips: Vec<u32>,
    /// Latched alert state per pipeline feature.
    alerted: Vec<bool>,
}

// `push` holds off scoring until the window fill, which saturates at
// `WINDOW`, reaches `MIN_SAMPLES`.
const _: () = assert!(MIN_SAMPLES <= WINDOW);

impl DriftDetector {
    /// Creates a detector over `profile` that scores the pipeline
    /// features listed in `features` (the model's
    /// [`split_features`][split]), keeping only their bin edges. An
    /// empty list gives a detector that counts rows and never alerts.
    ///
    /// [split]: monitorless_learn::FlatEnsemble::split_features
    ///
    /// # Panics
    ///
    /// Panics on a zero-feature profile, a feature without exactly
    /// `PROFILE_BINS − 1` edges, or `features` not strictly ascending
    /// below the profile's feature count.
    pub fn new(profile: &DriftProfile, features: &[usize]) -> Self {
        let n = profile.n_features();
        assert!(n > 0, "drift profile has no features");
        assert!(
            profile
                .features
                .iter()
                .all(|fp| fp.edges.len() == PROFILE_BINS - 1),
            "every drift profile feature needs {} edges",
            PROFILE_BINS - 1
        );
        assert!(
            features.windows(2).all(|w| w[0] < w[1]) && features.last().is_none_or(|&f| f < n),
            "scored features must ascend below {n}"
        );
        let m = features.len();
        DriftDetector {
            features: features.to_vec(),
            edges: features
                .iter()
                .flat_map(|&f| profile.features[f].edges.iter().copied())
                .collect(),
            psi_terms: Vec::with_capacity(WINDOW + 1),
            terms_total: 0,
            ring: vec![0; WINDOW * m],
            counts: vec![0; m * PROFILE_BINS],
            head: 0,
            filled: 0,
            rows_since_check: 0,
            scores: vec![0.0; n],
            trips: vec![0; n],
            alerted: vec![false; n],
        }
    }

    /// Feeds one feature row, indexed by pipeline feature.
    /// Allocation-free. Returns `Some` when this row completed a
    /// scoring pass.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the profiled feature count.
    pub fn push(&mut self, row: &[f64]) -> Option<DriftCheck> {
        let n = self.scores.len();
        assert!(row.len() >= n, "row has {} features, profile has {n}", row.len());
        let base = self.head * self.features.len();
        let full = self.filled == WINDOW;
        let edges = self.edges.chunks_exact(PROFILE_BINS - 1);
        for (j, (&f, edges)) in self.features.iter().zip(edges).enumerate() {
            // Evict the outgoing row's bin once the ring has wrapped.
            if full {
                let old = self.ring[base + j] as usize;
                self.counts[j * PROFILE_BINS + old] -= 1;
            }
            let bin = bin_of(edges, row[f]);
            self.ring[base + j] = bin as u8;
            self.counts[j * PROFILE_BINS + bin] += 1;
        }
        self.head = (self.head + 1) % WINDOW;
        self.filled = (self.filled + 1).min(WINDOW);
        self.rows_since_check += 1;
        if self.filled < MIN_SAMPLES || self.rows_since_check < CHECK_EVERY {
            return None;
        }
        self.rows_since_check = 0;
        Some(self.check())
    }

    /// Scores every scored feature's window against the reference and
    /// updates the hysteresis state.
    fn check(&mut self) -> DriftCheck {
        if self.terms_total != self.filled {
            self.terms_total = self.filled;
            let total = self.filled as f64;
            let q = 1.0 / PROFILE_BINS as f64; // equi-depth reference mass
            let floor = 0.5 / total; // half-a-sample smoothing
            self.psi_terms.clear();
            self.psi_terms.extend((0..=self.filled).map(|c| {
                let p = (c as f64 / total).max(floor);
                (p - q) * (p / q).ln()
            }));
        }
        let mut max_psi = 0.0;
        let mut max_feature = 0;
        let mut new_alerts = Vec::new();
        let counts = self.counts.chunks_exact(PROFILE_BINS);
        for (&f, counts) in self.features.iter().zip(counts) {
            let mut psi = 0.0;
            for &c in counts {
                psi += self.psi_terms[c as usize];
            }
            self.scores[f] = psi;
            if psi > max_psi {
                max_psi = psi;
                max_feature = f;
            }
            if psi >= PSI_ALERT {
                self.trips[f] += 1;
                if self.trips[f] >= PATIENCE as u32 && !self.alerted[f] {
                    self.alerted[f] = true;
                    new_alerts.push(f);
                }
            } else if psi < PSI_CLEAR {
                self.trips[f] = 0;
                self.alerted[f] = false;
            }
            // Between clear and alert: hold state (hysteresis band).
        }
        obs::counter_add("drift.checks", 1);
        obs::gauge_set("drift.max_psi", max_psi);
        if !new_alerts.is_empty() {
            obs::counter_add("drift.alerts", new_alerts.len() as u64);
        }
        DriftCheck {
            max_psi,
            max_feature,
            new_alerts,
        }
    }

    /// Latest PSI per pipeline feature (zeros before the first check,
    /// and always for a feature the detector does not score).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Whether any feature is currently in the alerted state.
    pub fn drifting(&self) -> bool {
        self.alerted.iter().any(|&a| a)
    }

    /// Indices of currently-alerted features.
    pub fn alerted_features(&self) -> Vec<usize> {
        (0..self.alerted.len())
            .filter(|&f| self.alerted[f])
            .collect()
    }

    /// The shares of the window's rows that fall in pipeline feature
    /// `feature`'s lowest and in its highest reference bin — each
    /// `1 / PROFILE_BINS` when the window looks like training, both 0
    /// before the first row and for a feature the detector does not
    /// score. Reported with an alert, so the audit record says which
    /// way the feature moved, not just that it moved.
    pub fn tail_shares(&self, feature: usize) -> (f64, f64) {
        let Ok(j) = self.features.binary_search(&feature) else {
            return (0.0, 0.0);
        };
        let counts = &self.counts[j * PROFILE_BINS..(j + 1) * PROFILE_BINS];
        let total = self.filled.max(1) as f64;
        (f64::from(counts[0]) / total, f64::from(counts[PROFILE_BINS - 1]) / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless_std::rng::{Rng as _, StdRng};

    fn gaussian(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
        // Box–Muller; one draw per call is plenty for tests.
        let u1 = rng.gen_f64().max(1e-12);
        let u2 = rng.gen_f64();
        mean + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A detector that scores every profiled feature.
    fn scoring_all(profile: &DriftProfile) -> DriftDetector {
        let all: Vec<usize> = (0..profile.n_features()).collect();
        DriftDetector::new(profile, &all)
    }

    fn profile_from(rng: &mut StdRng, rows: usize, cols: usize) -> DriftProfile {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|c| gaussian(rng, c as f64, 1.0 + c as f64 * 0.5))
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        DriftProfile::from_matrix(&Matrix::from_rows(&refs))
    }

    #[test]
    fn equi_depth_edges_are_deciles() {
        let col: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let refs: Vec<&[f64]> = col.iter().map(std::slice::from_ref).collect();
        let p = DriftProfile::from_matrix(&Matrix::from_rows(&refs));
        assert_eq!(p.features[0].edges.len(), PROFILE_BINS - 1);
        // Every decile bin of the training data itself gets ~1/10 mass.
        let fp = &p.features[0];
        let mut counts = [0usize; PROFILE_BINS];
        for &v in &col {
            counts[fp.bin(v)] += 1;
        }
        for c in counts {
            assert!((80..=120).contains(&c), "bin count {c} far from uniform");
        }
    }

    #[test]
    fn presorted_profile_matches_the_matrix_profile_bit_for_bit() {
        let bits = |p: &DriftProfile| -> Vec<u64> {
            p.features
                .iter()
                .flat_map(|fp| {
                    fp.edges
                        .iter()
                        .chain([&fp.mean, &fp.std])
                        .map(|v| v.to_bits())
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let palette = [-0.0, 0.0, 1.5, -2.25, f64::NAN, -f64::NAN, 1e300];
        for rows in [1usize, 2, 7, 10, 13, 64, 257] {
            let cols = 6;
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| match i % cols {
                    // Constant, heavily duplicated, continuous and
                    // NaN-holding columns.
                    0 => 4.0,
                    1 | 2 => palette[rng.gen_range(0..palette.len())],
                    3 => palette[rng.gen_range(0..4usize)],
                    _ => gaussian(&mut rng, 3.0, 2.0),
                })
                .collect();
            let x = Matrix::from_vec(rows, cols, data);
            let ps = PresortedDataset::build(&x);
            // Sort one column before the profile sorts the rest.
            let _ = ps.is_constant(2);
            let want = DriftProfile::from_matrix(&x);
            assert_eq!(bits(&DriftProfile::from_presorted(&ps)), bits(&want), "{rows} rows");
        }
    }

    #[test]
    fn nan_lands_in_the_last_bin_and_finite_values_bin_as_before() {
        let fp = FeatureProfile {
            edges: vec![-2.0, -1.0, -1.0, 0.0, 0.5, 1.0, 2.0, 2.0, 3.0],
            mean: 0.0,
            std: 1.0,
        };
        assert_eq!(fp.bin(f64::NAN), PROFILE_BINS - 1);
        assert_eq!(fp.bin(f64::INFINITY), PROFILE_BINS - 1);
        assert_eq!(fp.bin(f64::NEG_INFINITY), 0);
        let mut probes = vec![f64::MIN, f64::MAX, -0.0, 0.0];
        for &e in &fp.edges {
            probes.extend([e, e.next_down(), e.next_up()]);
        }
        for v in probes {
            // Values at an edge stay in the bin below it.
            assert_eq!(fp.bin(v), fp.edges.partition_point(|e| *e < v), "v = {v}");
        }
    }

    /// Every check's scores equal the PSI formula evaluated directly on
    /// a histogram the test keeps itself, bit for bit, both while the
    /// window is still filling and after it has wrapped.
    #[test]
    fn table_scores_match_the_direct_formula_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        let profile = profile_from(&mut rng, 400, 4);
        let mut det = scoring_all(&profile);
        let mut recent: std::collections::VecDeque<Vec<f64>> = Default::default();
        let (mut warm_checks, mut wrapped_checks) = (0, 0);
        for t in 0..1024 {
            // Drift the stream halfway through so counts move, with the
            // odd NaN and edge-exact value.
            let row: Vec<f64> = (0..4)
                .map(|c| match rng.next_u64() % 40 {
                    0 => f64::NAN,
                    1 => profile.features[c].edges[4],
                    _ => gaussian(&mut rng, c as f64 + (t / 512) as f64, 1.0 + c as f64 * 0.5),
                })
                .collect();
            recent.push_back(row.clone());
            if recent.len() > WINDOW {
                recent.pop_front();
            }
            if det.push(&row).is_none() {
                continue;
            }
            if recent.len() < WINDOW {
                warm_checks += 1;
            } else {
                wrapped_checks += 1;
            }
            let total = recent.len() as f64;
            let q = 1.0 / PROFILE_BINS as f64;
            let floor = 0.5 / total;
            for (f, fp) in profile.features.iter().enumerate() {
                let mut counts = [0u32; PROFILE_BINS];
                for r in &recent {
                    counts[fp.bin(r[f])] += 1;
                }
                let mut psi = 0.0;
                for c in counts {
                    let p = (c as f64 / total).max(floor);
                    psi += (p - q) * (p / q).ln();
                }
                assert_eq!(det.scores()[f].to_bits(), psi.to_bits(), "row {t} feature {f}");
                let shares =
                    (f64::from(counts[0]) / total, f64::from(counts[PROFILE_BINS - 1]) / total);
                assert_eq!(det.tail_shares(f), shares, "row {t} feature {f}");
            }
        }
        // Checks at 128, 160, 192 and 224 rows fill the window; the
        // other 25 score a full one, 24 of them after the ring wrapped.
        assert_eq!((warm_checks, wrapped_checks), (4, 25));
    }

    #[test]
    fn stationary_stream_stays_quiet() {
        let mut rng = StdRng::seed_from_u64(7);
        let profile = profile_from(&mut rng, 2000, 3);
        let mut det = scoring_all(&profile);
        let mut row = [0.0; 3];
        for _ in 0..2000 {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = gaussian(&mut rng, c as f64, 1.0 + c as f64 * 0.5);
            }
            if let Some(check) = det.push(&row) {
                assert!(check.new_alerts.is_empty(), "false alert: {check:?}");
            }
        }
        assert!(!det.drifting());
    }

    #[test]
    fn mean_shift_trips_within_bounded_ticks() {
        let mut rng = StdRng::seed_from_u64(11);
        let profile = profile_from(&mut rng, 2000, 3);
        let mut det = scoring_all(&profile);
        let mut row = [0.0; 3];
        // Warm up stationary, then shift feature 1 by 3 reference stds.
        for _ in 0..WINDOW {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = gaussian(&mut rng, c as f64, 1.0 + c as f64 * 0.5);
            }
            det.push(&row);
        }
        assert!(!det.drifting());
        let bound = WINDOW + PATIENCE * CHECK_EVERY + CHECK_EVERY;
        let mut detected_at = None;
        for t in 0..bound {
            for (c, slot) in row.iter_mut().enumerate() {
                let shift = if c == 1 { 3.0 * 1.5 } else { 0.0 };
                *slot = gaussian(&mut rng, c as f64 + shift, 1.0 + c as f64 * 0.5);
            }
            if let Some(check) = det.push(&row) {
                if check.new_alerts.contains(&1) {
                    detected_at = Some(t);
                    break;
                }
            }
        }
        let at = detected_at.expect("shift in feature 1 never detected");
        assert!(det.alerted_features().contains(&1));
        assert!(at < bound, "detected only after {at} rows");
    }

    #[test]
    fn hysteresis_holds_alert_through_the_band() {
        let profile = DriftProfile {
            features: vec![FeatureProfile {
                edges: (1..PROFILE_BINS).map(|i| i as f64).collect(),
                mean: 5.0,
                std: 3.0,
            }],
        };
        let mut det = scoring_all(&profile);
        // All mass in one bin → PSI far above alert from the first
        // check, so the third check raises the alert.
        for _ in 0..MIN_SAMPLES + (PATIENCE - 1) * CHECK_EVERY {
            det.push(&[0.5]);
        }
        assert!(det.drifting());
        // Half a cadence more, so one check of the decay below scores
        // mid-band (PSI ≈ 0.2).
        for _ in 0..CHECK_EVERY / 2 {
            det.push(&[0.5]);
        }
        assert_eq!(det.tail_shares(0), (1.0, 0.0));
        // Back to uniform coverage: PSI decays through the band, where
        // the alert holds, then below clear, which re-arms it.
        let mut band_checks = 0;
        for i in 0..2 * WINDOW {
            if det.push(&[(i % PROFILE_BINS) as f64 + 0.5]).is_some() {
                let psi = det.scores()[0];
                if (PSI_CLEAR..PSI_ALERT).contains(&psi) {
                    band_checks += 1;
                    assert!(det.drifting(), "alert dropped in the band at PSI {psi}");
                }
            }
        }
        assert!(band_checks > 0, "no check scored inside the band");
        assert!(!det.drifting(), "alert did not clear, scores {:?}", det.scores());
    }

    #[test]
    fn profile_serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = profile_from(&mut rng, 500, 4);
        let json = monitorless_std::json::to_string(&p);
        let back: DriftProfile = monitorless_std::json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    /// Features 0 and 2 are scored, 1 and 3 are not. The unscored ones
    /// run off to ±1e12 and NaN from the first row and stay at score 0
    /// with no alert; a mean shift of scored feature 2 still alerts
    /// within the documented bound.
    #[test]
    fn only_scored_features_are_binned_scored_and_alerted() {
        let mut rng = StdRng::seed_from_u64(5);
        let profile = profile_from(&mut rng, 2000, 4);
        let mut det = DriftDetector::new(&profile, &[0, 2]);
        let mut row = [0.0; 4];
        let draw = |rng: &mut StdRng, row: &mut [f64; 4], t: usize, shift: f64| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = match c {
                    1 => 1e12,
                    3 => [f64::NAN, -1e12][t % 2],
                    2 => gaussian(rng, 2.0 + shift, 2.0),
                    _ => gaussian(rng, 0.0, 1.0),
                };
            }
        };
        for t in 0..WINDOW {
            draw(&mut rng, &mut row, t, 0.0);
            if let Some(check) = det.push(&row) {
                assert!(check.new_alerts.is_empty(), "alert at row {t}: {check:?}");
                assert!([0, 2].contains(&check.max_feature));
            }
        }
        assert!(!det.drifting());
        let bound = WINDOW + (PATIENCE + 1) * CHECK_EVERY;
        let mut alerted_at = None;
        for t in 0..bound {
            draw(&mut rng, &mut row, t, 3.0 * 2.0);
            if let Some(check) = det.push(&row) {
                assert!(!check.new_alerts.iter().any(|f| f % 2 == 1), "{check:?}");
                if check.new_alerts.contains(&2) {
                    alerted_at = Some(t);
                    break;
                }
            }
        }
        assert!(alerted_at.is_some(), "shift in feature 2 not detected within {bound} rows");
        assert_eq!(det.alerted_features(), vec![2]);
        assert_eq!((det.scores()[1], det.scores()[3]), (0.0, 0.0));
        assert_eq!((det.tail_shares(1), det.tail_shares(3)), ((0.0, 0.0), (0.0, 0.0)));
        assert!(det.scores()[2] >= PSI_ALERT);
    }

    #[test]
    fn a_detector_over_no_features_counts_rows_and_never_alerts() {
        let mut rng = StdRng::seed_from_u64(6);
        let profile = profile_from(&mut rng, 100, 3);
        let mut det = DriftDetector::new(&profile, &[]);
        let checks = (0..4 * WINDOW)
            .filter_map(|i| det.push(&[i as f64 * 1e9, f64::NAN, -1.0]))
            .inspect(|check| assert!(check.new_alerts.is_empty()))
            .count();
        assert_eq!(checks, (4 * WINDOW - MIN_SAMPLES) / CHECK_EVERY + 1);
        assert_eq!(det.scores(), &[0.0; 3]);
        assert!(!det.drifting());
    }

    /// The row sample's documented bounds, for every tick size up to
    /// 1,100 rows and a few larger ones, at every phase of the stride.
    #[test]
    fn row_sample_takes_at_most_check_every_rows_and_every_position_in_turn() {
        for n in (0..=1100usize).chain([2047, 2048, 2049, 4096, 4097]) {
            let stride = n.div_ceil(CHECK_EVERY).max(1);
            let mut taken_at = vec![0usize; n];
            for tick in 1..=stride as u64 {
                let rows: Vec<usize> = (0..n).filter(|&k| samples_row(k, n, tick)).collect();
                let r = rows.len();
                assert!(r <= CHECK_EVERY, "{n} rows, tick {tick}: {r} taken");
                if n <= CHECK_EVERY {
                    assert_eq!(r, n, "{n} rows, tick {tick}");
                } else {
                    assert!(r >= CHECK_EVERY / 2, "{n} rows, tick {tick}: {r} taken");
                }
                if n >= 992 {
                    assert!(r >= CHECK_EVERY - 1, "{n} rows, tick {tick}: {r} taken");
                }
                for k in rows {
                    taken_at[k] += 1;
                }
            }
            // Over `stride` consecutive ticks each position goes in once.
            assert!(taken_at.iter().all(|&c| c == 1), "{n} rows: {taken_at:?}");
        }
    }
}

//! Property suite for the streaming drift detector (ISSUE 6).
//!
//! Pins the three contract points of `monitorless::drift`:
//!
//! 1. **False-positive rate.** On stationary synthetic streams drawn
//!    from the profiled distribution, at most 1 % of 100 seeds may ever
//!    raise an alert.
//! 2. **Guaranteed detection.** An injected mean or scale shift is
//!    detected within a bounded number of rows after onset, on every
//!    seed.
//! 3. **Persistence.** The reference profile round-trips through
//!    `MonitorlessModel` save/load, and a loaded model's detector is
//!    equivalent to the original's. A model file without a profile
//!    fails to load (`tests/model_load.rs`).

use monitorless::drift::{
    DriftDetector, DriftProfile, CHECK_EVERY, PATIENCE, PROFILE_BINS, WINDOW,
};
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless_learn::Matrix;
use monitorless_std::rng::{Rng as _, StdRng};

/// One standard normal draw (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1 = rng.gen_f64().max(1e-12);
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A detector that scores every profiled feature.
fn scoring_all(profile: &DriftProfile) -> DriftDetector {
    let all: Vec<usize> = (0..profile.n_features()).collect();
    DriftDetector::new(profile, &all)
}

/// A reference profile over `cols` gaussian features with distinct
/// means/scales, captured from `rows` training samples.
fn gaussian_profile(rng: &mut StdRng, rows: usize, cols: usize) -> DriftProfile {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|c| c as f64 + (1.0 + 0.5 * c as f64) * gaussian(rng))
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
    DriftProfile::from_matrix(&Matrix::from_rows(&refs))
}

#[test]
fn false_positive_rate_at_most_one_percent_over_100_seeds() {
    const SEEDS: u64 = 100;
    const STREAM_ROWS: usize = 1500;
    let mut alerting_seeds = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xFACE + seed);
        let profile = gaussian_profile(&mut rng, 1500, 4);
        let mut det = scoring_all(&profile);
        let mut row = [0.0; 4];
        let mut alerted = false;
        for _ in 0..STREAM_ROWS {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = c as f64 + (1.0 + 0.5 * c as f64) * gaussian(&mut rng);
            }
            if let Some(check) = det.push(&row) {
                alerted |= !check.new_alerts.is_empty();
            }
        }
        if alerted {
            alerting_seeds += 1;
        }
    }
    assert!(
        alerting_seeds <= SEEDS / 100,
        "{alerting_seeds}/{SEEDS} stationary seeds raised a drift alert (allowed: 1%)"
    );
}

#[test]
fn injected_shifts_are_detected_within_bound_on_every_seed() {
    // One full window refill plus the hysteresis patience, rounded up a
    // cadence: the documented detection bound.
    let bound = WINDOW + (PATIENCE + 1) * CHECK_EVERY;
    for seed in 0..20u64 {
        for scale_shift in [false, true] {
            let mut rng = StdRng::seed_from_u64(0xD21F7 + seed);
            let profile = gaussian_profile(&mut rng, 1500, 3);
            let mut det = scoring_all(&profile);
            let mut row = [0.0; 3];
            // Stationary warmup.
            for _ in 0..WINDOW {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = c as f64 + (1.0 + 0.5 * c as f64) * gaussian(&mut rng);
                }
                det.push(&row);
            }
            assert!(!det.drifting(), "seed {seed}: drifted during warmup");
            // Onset: feature 2 shifts by 3 reference stds (mean) or its
            // scale quadruples.
            let mut detected = false;
            for _ in 0..bound {
                for (c, slot) in row.iter_mut().enumerate() {
                    let std = 1.0 + 0.5 * c as f64;
                    *slot = if c == 2 {
                        if scale_shift {
                            c as f64 + 4.0 * std * gaussian(&mut rng)
                        } else {
                            c as f64 + 3.0 * std + std * gaussian(&mut rng)
                        }
                    } else {
                        c as f64 + std * gaussian(&mut rng)
                    };
                }
                if let Some(check) = det.push(&row) {
                    if check.new_alerts.contains(&2) {
                        detected = true;
                        break;
                    }
                }
            }
            assert!(
                detected,
                "seed {seed}: {} shift in feature 2 not detected within {bound} rows \
                 (scores {:?})",
                if scale_shift { "scale" } else { "mean" },
                det.scores()
            );
        }
    }
}

#[test]
fn shifted_feature_outranks_stationary_features() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let profile = gaussian_profile(&mut rng, 1500, 3);
    let mut det = scoring_all(&profile);
    let mut row = [0.0; 3];
    for t in 0..1000usize {
        for (c, slot) in row.iter_mut().enumerate() {
            let std = 1.0 + 0.5 * c as f64;
            let shift = if c == 0 && t >= 500 { 5.0 * std } else { 0.0 };
            *slot = c as f64 + shift + std * gaussian(&mut rng);
        }
        det.push(&row);
    }
    let scores = det.scores();
    assert!(scores[0] > scores[1] && scores[0] > scores[2], "PSI ranking wrong: {scores:?}");
    assert_eq!(det.alerted_features(), vec![0]);
}

#[test]
fn reference_profile_roundtrips_through_model_persistence() {
    let data = generate_training_data(&TrainingOptions {
        run_seconds: 30,
        ramp_seconds: 100,
        seed: 11,
        n_jobs: 1,
    })
    .unwrap();
    let model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();
    let profile = model.drift_profile().clone();
    assert_eq!(profile.n_features(), model.flat().n_features());
    for fp in &profile.features {
        assert_eq!(fp.edges.len(), PROFILE_BINS - 1);
        assert!(fp.edges.windows(2).all(|w| w[0] <= w[1]), "edges not ascending");
        assert!(fp.std >= 0.0);
    }

    let path = std::env::temp_dir().join("monitorless_drift_profile_roundtrip.json");
    model.save(&path).unwrap();
    let back = MonitorlessModel::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.drift_profile(), &profile, "profile changed across save/load");

    // A loaded model yields a working, equivalent detector over the
    // same split features.
    let split = model.flat().split_features();
    assert_eq!(back.flat().split_features(), split);
    let mut a = DriftDetector::new(model.drift_profile(), &split);
    let mut b = DriftDetector::new(back.drift_profile(), &split);
    let mut rng = StdRng::seed_from_u64(99);
    let width = profile.n_features();
    let mut row = vec![0.0; width];
    for _ in 0..600 {
        for slot in row.iter_mut() {
            *slot = rng.gen_f64() * 10.0 - 5.0;
        }
        let ca = a.push(&row);
        let cb = b.push(&row);
        assert_eq!(ca, cb, "detectors diverged on identical input");
    }
    assert_eq!(a.scores(), b.scores());
}

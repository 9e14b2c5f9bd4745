//! Golden digests of the weighted and boosted fits, whose trees read
//! each node through the presort's weighted gather: AdaBoost with SAMME
//! and SAMME.R, gradient boosting at depths 4 and 16, and a `Balanced`
//! and a `BalancedSubsample` forest, each fit on one fixed seeded
//! matrix.
//!
//! The presort equivalence properties pin trees to the legacy
//! resorting builder, but gradient boosting has no such reference, and
//! two runs of the same code cannot catch a change that moves both.
//! These committed values can. A forest is digested through its
//! serialized JSON; a booster, which does not serialize, through the
//! bits of its `predict_proba` on the matrix. The values pin the
//! floating-point bits of the x86-64 Linux build.
//!
//! The matrix mixes continuous and quantized columns at 600 rows, so
//! the fits' nodes take the shapes a weighted gather meets: nodes under
//! 64 rows, wide nodes whose rows hold most ranks they span, and nodes
//! that, after a split on another column, hold fewer than half the
//! ranks they span. 211 of its rows are positive: balanced class
//! weights on balanced classes would all be exactly one, and a forest
//! with unit weights takes the unweighted split search instead.

use monitorless_learn::prelude::*;
use monitorless_std::rng::{Rng, SplitMix64};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The digest of a probability vector's bits.
fn proba_digest(p: &[f64]) -> u64 {
    fnv1a64(p.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// 600 rows: two continuous columns the label depends on, a continuous
/// noise column, a counter-like column of 8 levels and one of 40
/// levels. The label is a noisy threshold of the first two columns and
/// the 8-level one.
fn data() -> (Matrix, Vec<u8>) {
    const ROWS: usize = 600;
    let mut rng = SplitMix64::seed_from_u64(0x6F1D);
    let mut data = Vec::with_capacity(ROWS * 5);
    let mut y = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        let a = rng.gen_f64();
        let b = rng.gen_f64() * 4.0 - 2.0;
        let noise = rng.gen_f64();
        let coarse = (rng.next_u64() % 8) as f64;
        let fine = (rng.next_u64() % 40) as f64 * 0.25;
        data.extend([a, b, noise, coarse, fine]);
        let score = a + 0.2 * b + 0.05 * coarse + 0.4 * (noise - 0.5);
        y.push(u8::from(score > 0.85));
    }
    (Matrix::from_vec(ROWS, 5, data), y)
}

fn adaboost_digest(algorithm: BoostAlgorithm, criterion: SplitCriterion) -> u64 {
    let (x, y) = data();
    let mut ab = AdaBoost::new(AdaBoostParams {
        n_estimators: 20,
        algorithm,
        criterion,
        min_samples_split: 5,
        seed: 3,
        ..AdaBoostParams::default()
    });
    ab.fit(&x, &y, None).unwrap();
    proba_digest(&ab.predict_proba(&x))
}

fn gboost_digest(max_depth: usize) -> u64 {
    let (x, y) = data();
    let mut gb = GradientBoosting::new(GradientBoostingParams {
        n_rounds: 15,
        max_depth,
        ..GradientBoostingParams::default()
    });
    gb.fit(&x, &y, None).unwrap();
    proba_digest(&gb.predict_proba(&x))
}

fn forest_digest(class_weight: ClassWeight, criterion: SplitCriterion) -> u64 {
    let (x, y) = data();
    let mut rf = RandomForest::new(RandomForestParams {
        n_estimators: 10,
        criterion,
        class_weight,
        n_jobs: 2,
        seed: 5,
        ..RandomForestParams::default()
    });
    rf.fit(&x, &y, None).unwrap();
    fnv1a64(monitorless_std::json::to_string(&rf).into_bytes())
}

#[test]
fn adaboost_samme_digest() {
    assert_eq!(adaboost_digest(BoostAlgorithm::Samme, SplitCriterion::Gini), 0x0225_f583_5773_d97b);
}

#[test]
fn adaboost_samme_r_digest() {
    assert_eq!(
        adaboost_digest(BoostAlgorithm::SammeR, SplitCriterion::Entropy),
        0x82a0_cb0f_a4d6_37b3
    );
}

#[test]
fn gradient_boosting_depth_4_digest() {
    assert_eq!(gboost_digest(4), 0x0a45_7e37_1f83_49bf);
}

#[test]
fn gradient_boosting_depth_16_digest() {
    assert_eq!(gboost_digest(16), 0xcf85_6627_14cd_8e0f);
}

#[test]
fn balanced_forest_digest() {
    assert_eq!(forest_digest(ClassWeight::Balanced, SplitCriterion::Gini), 0xb06e_7f16_3c20_1543);
}

#[test]
fn balanced_subsample_forest_digest() {
    assert_eq!(
        forest_digest(ClassWeight::BalancedSubsample, SplitCriterion::Entropy),
        0x7a0f_bf8e_14d7_4016
    );
}

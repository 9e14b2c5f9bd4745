//! Property tests pinning the flat batched evaluator to the legacy
//! recursive predict paths.
//!
//! The flat table is an *exact* recompilation of a fitted ensemble:
//! for every input — duplicate values, constant columns, NaN cells,
//! single-leaf trees, deep unbalanced trees — batched probabilities
//! must be bit-for-bit identical to the legacy walk, for every
//! ensemble family and every `n_jobs`.

use monitorless_learn::prelude::*;
use proptest::prelude::*;

/// SplitMix64 — a tiny deterministic generator so each proptest case can
/// expand one seed into a full messy dataset.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A matrix deliberately full of the cases that break naive predict
/// code: heavy duplicate values (threshold-boundary hits), constant
/// columns, and — when `allow_nan` — NaN cells, which must route right
/// at every split.
fn messy_matrix(seed: u64, rows: usize, cols: usize, allow_nan: bool) -> Matrix {
    let mut rng = Mix(seed);
    let palette = [-3.0, 0.0, 0.5, 1.0, 2.5];
    let mut data = vec![0.0; rows * cols];
    for c in 0..cols {
        let constant = rng.below(4) == 0;
        let fill = palette[rng.below(palette.len() as u64) as usize];
        for r in 0..rows {
            data[r * cols + c] = if constant {
                fill
            } else if allow_nan && rng.below(10) == 0 {
                f64::NAN
            } else if rng.below(2) == 0 {
                palette[rng.below(palette.len() as u64) as usize]
            } else {
                rng.next_f64() * 20.0 - 10.0
            };
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// Random binary labels with both classes guaranteed present.
fn messy_labels(seed: u64, rows: usize) -> Vec<u8> {
    let mut rng = Mix(seed ^ 0xA5A5);
    let mut y: Vec<u8> = (0..rows).map(|_| rng.below(2) as u8).collect();
    y[0] = 0;
    y[rows - 1] = 1;
    y
}

/// Asserts two probability vectors are bit-identical (NaN-safe, unlike
/// `==` on floats).
fn assert_bits_equal(
    flat: &[f64],
    legacy: &[f64],
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(flat.len(), legacy.len(), "{}: length mismatch", what);
    for (i, (a, b)) in flat.iter().zip(legacy).enumerate() {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: row {} diverges ({} vs {})", what, i, a, b);
    }
    Ok(())
}

/// Case count for every property: `PROPTEST_CASES` when set (the
/// nightly run raises it to 2000), otherwise 32.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cases())]

    /// A single tree's flat table against the recursive reference walk,
    /// on NaN-bearing inputs.
    #[test]
    fn tree_flat_matches_recursive_walk(
        seed in 0u64..1_000_000,
        rows in 8usize..150,
        cols in 1usize..7,
    ) {
        let x = messy_matrix(seed, rows, cols, true);
        let y = messy_labels(seed, rows);
        let mut tree = DecisionTree::new(DecisionTreeParams {
            min_samples_leaf: 1 + (seed % 3) as usize,
            seed,
            ..DecisionTreeParams::default()
        });
        tree.fit(&x, &y, None).unwrap();
        let flat = tree.to_flat();
        let batch = flat.predict_proba(&x, 1);
        let legacy: Vec<f64> = x.iter_rows().map(|r| tree.predict_row(r)).collect();
        assert_bits_equal(&batch, &legacy, "tree")?;
        // The allocation-free single-row entry agrees too.
        for (r, &want) in x.iter_rows().zip(&batch) {
            prop_assert_eq!(flat.predict_row(r).to_bits(), want.to_bits());
        }
    }

    /// Forest flat evaluation against the legacy blocked recursive walk.
    #[test]
    fn forest_flat_matches_legacy(
        seed in 0u64..1_000_000,
        rows in 8usize..120,
        cols in 1usize..6,
        bootstrap in 0u64..2,
    ) {
        let x = messy_matrix(seed, rows, cols, true);
        let y = messy_labels(seed, rows);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 5,
            min_samples_leaf: 2,
            bootstrap: bootstrap == 1,
            seed,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        assert_bits_equal(&rf.to_flat().predict_proba(&x, 1), &rf.predict_proba_legacy(&x), "forest")?;
    }

    /// AdaBoost (both variants) against its legacy decision-function
    /// path: leaf values are pre-transformed per stage, so the flat
    /// accumulator must reproduce the vote/log-odds sums exactly.
    #[test]
    fn adaboost_flat_matches_legacy(
        seed in 0u64..1_000_000,
        rows in 12usize..100,
        cols in 1usize..5,
        samme_r in 0u64..2,
    ) {
        let x = messy_matrix(seed, rows, cols, true);
        let y = messy_labels(seed, rows);
        let mut ab = AdaBoost::new(AdaBoostParams {
            n_estimators: 6,
            algorithm: if samme_r == 1 { BoostAlgorithm::SammeR } else { BoostAlgorithm::Samme },
            max_depth: Some(1 + (seed % 3) as usize),
            seed,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, None).unwrap();
        assert_bits_equal(&ab.to_flat().predict_proba(&x, 1), &ab.predict_proba_legacy(&x), "adaboost")?;
    }

    /// Gradient boosting against its legacy staged walk; fitted on
    /// clean data, predicted on NaN-bearing rows so the flat NaN
    /// routing is exercised independently of training support.
    #[test]
    fn gboost_flat_matches_legacy(
        seed in 0u64..1_000_000,
        rows in 12usize..100,
        cols in 1usize..5,
    ) {
        let x = messy_matrix(seed, rows, cols, false);
        let y = messy_labels(seed, rows);
        let mut gb = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 6,
            max_depth: 3,
            ..GradientBoostingParams::default()
        });
        gb.fit(&x, &y, None).unwrap();
        let x_nan = messy_matrix(seed ^ 0x77, rows, cols, true);
        assert_bits_equal(&gb.to_flat().predict_proba(&x_nan, 1), &gb.predict_proba_legacy(&x_nan), "gboost")?;
    }

    /// Degenerate single-node trees: a huge `min_samples_split` forces
    /// every root to be a leaf, so the flat table is all depth-0 trees.
    #[test]
    fn single_node_trees_flatten_correctly(
        seed in 0u64..1_000_000,
        rows in 8usize..60,
    ) {
        let x = messy_matrix(seed, rows, 3, true);
        let y = messy_labels(seed, rows);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 4,
            min_samples_split: rows * 2,
            seed,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        let flat = rf.to_flat();
        prop_assert_eq!(flat.n_nodes(), flat.n_trees(), "every tree should be one leaf");
        assert_bits_equal(&flat.predict_proba(&x, 1), &rf.predict_proba_legacy(&x), "stump forest")?;
    }

    /// Deep, unbalanced trees (no depth limit, leaf size 1 on
    /// continuous data): block walks where stragglers descend far past
    /// the block's early finishers.
    #[test]
    fn deep_unbalanced_trees_flatten_correctly(
        seed in 0u64..1_000_000,
        rows in 60usize..160,
    ) {
        let mut rng = Mix(seed ^ 0x1234);
        let rows_v: Vec<Vec<f64>> =
            (0..rows).map(|_| (0..3).map(|_| rng.next_f64() * 10.0).collect()).collect();
        let refs: Vec<&[f64]> = rows_v.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y = messy_labels(seed, rows);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 3,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_depth: None,
            seed,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        assert_bits_equal(&rf.to_flat().predict_proba(&x, 1), &rf.predict_proba_legacy(&x), "deep forest")?;
    }

    /// Sharding rows over pool workers must not change a single bit,
    /// whatever the worker count.
    #[test]
    fn flat_predict_is_independent_of_n_jobs(
        seed in 0u64..1_000_000,
        rows in 8usize..300,
    ) {
        let x = messy_matrix(seed, rows, 4, true);
        let y = messy_labels(seed, rows);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 4,
            min_samples_leaf: 2,
            seed,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y, None).unwrap();
        let flat = rf.to_flat();
        let one = flat.predict_proba(&x, 1);
        for jobs in [2usize, 3, 8, 64] {
            assert_bits_equal(&flat.predict_proba(&x, jobs), &one, "n_jobs")?;
        }
    }
}

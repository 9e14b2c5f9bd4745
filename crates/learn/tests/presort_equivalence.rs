//! Property tests pinning the presorted tree builder to the legacy
//! per-node resorting builder, each bootstrap tree of a forest to that
//! builder on its materialized bootstrap, the lazily sorted cache to a
//! fully sorted one, and parallel forest fits and grid search to their
//! one-worker runs.
//!
//! The presorted path is an *exact* reimplementation: for every input —
//! duplicate values and rows, constant columns, NaN cells, arbitrary
//! sample weights, feature subsampling, the random splitter, the
//! entropy filter of the unit-weight sweep — the serialized
//! trees must be bit-for-bit identical, and a parallel grid search
//! must produce exactly the scores of the one-worker scan. A cache
//! sorts each feature on first read: in whatever order, and from
//! however many threads, features are read, every feature's ranks and
//! distinct values, the trees fit on it, its appends and its clones
//! must equal those of a cache sorted up front.

use monitorless_learn::prelude::*;
use monitorless_learn::tree::MaxFeatures;
use monitorless_std::rng::{Rng, StdRng};
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

/// A matrix deliberately full of the cases that break naive split code:
/// heavy duplicate values (small palette), constant columns, and —
/// when `allow_nan` — NaN cells.
fn messy_matrix(seed: u64, rows: usize, cols: usize, allow_nan: bool) -> Matrix {
    let mut rng = Mix(seed);
    let palette = [-3.0, 0.0, 0.5, 1.0, 2.5];
    let mut data = vec![0.0; rows * cols];
    for c in 0..cols {
        // Roughly one column in four is constant.
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

/// Continuous columns whose values are almost surely all distinct.
/// Past the root, a node of 64 rows or more then often spans more than
/// twice as many ranks as it holds rows, since a split on another
/// column leaves its rows spread over the whole rank range. The
/// palette-heavy [`messy_matrix`] cannot produce that shape at the
/// sizes the properties use: its columns hold too few ranks.
fn continuous_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = Mix(seed ^ 0xC0A7);
    let data = (0..rows * cols)
        .map(|_| rng.next_f64() * 20.0 - 10.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// [`messy_matrix`] with signed zeros: about half of its `0.0` cells
/// become `-0.0`, a distinct bit pattern that compares equal.
fn signed_zero_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = Mix(seed ^ 0x2E50);
    let mut data = messy_matrix(seed, rows, cols, true).into_vec();
    for v in &mut data {
        if *v == 0.0 && rng.below(2) == 0 {
            *v = -0.0;
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// A random permutation of `0..n`.
fn permutation(rng: &mut Mix, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Everything a reader can learn about feature `f`: its ranks, the
/// bits of its distinct values, their count and whether the feature is
/// constant. `first` picks which of the four reads comes first, so
/// each one in turn triggers the feature's sort.
fn feature_view(ps: &PresortedDataset, f: usize, first: u64) -> (Vec<u32>, Vec<u64>, usize, bool) {
    match first {
        0 => {
            let _ = ps.ranks(f);
        }
        1 => {
            let _ = ps.rank_values(f);
        }
        2 => {
            let _ = ps.n_ranks(f);
        }
        _ => {
            let _ = ps.is_constant(f);
        }
    }
    (
        ps.ranks(f).collect(),
        ps.rank_values(f).map(f64::to_bits).collect(),
        ps.n_ranks(f),
        ps.is_constant(f),
    )
}

/// Random binary labels with both classes guaranteed present.
fn messy_labels(seed: u64, rows: usize) -> Vec<u8> {
    let mut rng = Mix(seed ^ 0xA5A5);
    let mut y: Vec<u8> = (0..rows).map(|_| rng.below(2) as u8).collect();
    y[0] = 0;
    y[rows - 1] = 1;
    y
}

/// Positive finite sample weights, including exact duplicates.
fn messy_weights(seed: u64, rows: usize) -> Vec<f64> {
    let mut rng = Mix(seed ^ 0x5A5A);
    (0..rows)
        .map(|_| {
            if rng.below(3) == 0 {
                1.0
            } else {
                0.25 + rng.next_f64() * 2.0
            }
        })
        .collect()
}

/// A materialized bootstrap of `x`/`y`: `x.rows()` rows drawn with
/// replacement, so most distinct rows appear more than once.
fn bootstrap(seed: u64, x: &Matrix, y: &[u8]) -> (Matrix, Vec<u8>) {
    let mut rng = Mix(seed ^ 0xB007);
    let rows = x.rows();
    let picks: Vec<usize> = (0..rows).map(|_| rng.below(rows as u64) as usize).collect();
    let data = picks
        .iter()
        .flat_map(|&r| x.row(r).iter().copied())
        .collect();
    let yb = picks.iter().map(|&r| y[r]).collect();
    (Matrix::from_vec(rows, x.cols(), data), yb)
}

/// sklearn's "balanced" class weights over the rows `picks`:
/// `len / (2 · class count)`, zero for an absent class.
fn balanced_weights(y: &[u8], picks: &[usize]) -> (f64, f64) {
    let n = picks.len() as f64;
    let n1 = picks.iter().filter(|&&i| y[i] == 1).count() as f64;
    let n0 = n - n1;
    let w = |c: f64| if c > 0.0 { n / (2.0 * c) } else { 0.0 };
    (w(n0), w(n1))
}

/// The trees an unweighted-input [`RandomForest`] fit must grow, each
/// grown by the legacy resorting builder on its materialized bootstrap:
/// the draws and tree seed come from the forest's per-tree stream, and
/// a draw holding one class takes the forest's fallback stump (the
/// tree's own parameters at depth 1, fit on the full data). Returns the
/// trees and how many took the fallback.
fn oracle_forest(x: &Matrix, y: &[u8], params: &RandomForestParams) -> (Vec<DecisionTree>, usize) {
    let n = x.rows();
    let all: Vec<usize> = (0..n).collect();
    let mut fallbacks = 0;
    let trees = (0..params.n_estimators)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(
                params
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(t as u64),
            );
            let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let (w0, w1) = match params.class_weight {
                ClassWeight::None => (1.0, 1.0),
                ClassWeight::Balanced => balanced_weights(y, &all),
                ClassWeight::BalancedSubsample => balanced_weights(y, &picks),
            };
            let xb = x.select_rows(&picks);
            let yb: Vec<u8> = picks.iter().map(|&i| y[i]).collect();
            let wb: Vec<f64> = yb.iter().map(|&l| if l == 1 { w1 } else { w0 }).collect();
            let tree_params = DecisionTreeParams {
                criterion: params.criterion,
                splitter: Splitter::Best,
                max_depth: params.max_depth,
                min_samples_split: params.min_samples_split,
                min_samples_leaf: params.min_samples_leaf,
                max_features: params.max_features,
                seed: rng.gen(),
            };
            let mut tree = DecisionTree::new(tree_params.clone());
            if tree.fit_resorting(&xb, &yb, Some(&wb)).is_ok() {
                return tree;
            }
            fallbacks += 1;
            let mut stump = DecisionTree::new(DecisionTreeParams {
                max_depth: Some(1),
                ..tree_params
            });
            stump
                .fit_resorting(x, y, None)
                .expect("the full data trains a stump");
            stump
        })
        .collect();
    (trees, fallbacks)
}

/// Fits `params` as a forest and asserts each tree serializes equal to
/// its [`oracle_forest`] twin; returns the oracle's fallback count.
fn assert_forest_matches_oracle(
    x: &Matrix,
    y: &[u8],
    params: &RandomForestParams,
) -> Result<usize, proptest::test_runner::TestCaseError> {
    let mut rf = RandomForest::new(params.clone());
    rf.fit(x, y, None).unwrap();
    let (oracle, fallbacks) = oracle_forest(x, y, params);
    prop_assert_eq!(rf.trees().len(), oracle.len());
    for (t, (ours, theirs)) in rf.trees().iter().zip(&oracle).enumerate() {
        prop_assert_eq!(
            monitorless_std::json::to_string(ours),
            monitorless_std::json::to_string(theirs),
            "tree {}",
            t
        );
    }
    Ok(fallbacks)
}

/// Forest parameters for the oracle properties: Gini or entropy,
/// `min_samples_leaf` 1–20, the given class weighting.
fn oracle_forest_params(seed: u64, class_weight: ClassWeight) -> RandomForestParams {
    let tree = tree_params(seed);
    let mut rng = Mix(seed ^ 0xF0E5);
    RandomForestParams {
        n_estimators: 5,
        criterion: tree.criterion,
        max_depth: tree.max_depth,
        min_samples_split: tree.min_samples_split,
        min_samples_leaf: 1 + rng.below(20) as usize,
        max_features: tree.max_features,
        bootstrap: true,
        class_weight,
        n_jobs: 1 + rng.below(2) as usize,
        seed,
    }
}

/// Case count for the tree-builder properties: `PROPTEST_CASES` when
/// set (a nightly run raises it to hunt rare rounding ties), otherwise
/// `default`.
fn tree_cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn tree_params(seed: u64) -> DecisionTreeParams {
    let mut rng = Mix(seed ^ 0xC3C3);
    DecisionTreeParams {
        criterion: if rng.below(2) == 0 {
            SplitCriterion::Gini
        } else {
            SplitCriterion::Entropy
        },
        splitter: Splitter::Best,
        max_depth: if rng.below(2) == 0 {
            None
        } else {
            Some(2 + rng.below(4) as usize)
        },
        min_samples_split: 2 + rng.below(4) as usize,
        min_samples_leaf: 1 + rng.below(3) as usize,
        max_features: match rng.below(3) {
            0 => MaxFeatures::All,
            1 => MaxFeatures::Sqrt,
            _ => MaxFeatures::Log2,
        },
        seed,
    }
}

/// Fits one tree through the presorted path and one through the legacy
/// resorting path and asserts the serialized models are identical.
fn assert_tree_paths_agree(
    x: &Matrix,
    y: &[u8],
    w: Option<&[f64]>,
    params: &DecisionTreeParams,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut presorted = DecisionTree::new(params.clone());
    let mut legacy = DecisionTree::new(params.clone());
    let a = presorted.fit(x, y, w);
    let b = legacy.fit_resorting(x, y, w);
    prop_assert_eq!(a.is_ok(), b.is_ok(), "fit outcomes diverge");
    if a.is_ok() {
        prop_assert_eq!(
            monitorless_std::json::to_string(&presorted),
            monitorless_std::json::to_string(&legacy),
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(tree_cases(48))]

    #[test]
    fn presorted_tree_matches_resorting_builder(
        seed in 0u64..1_000_000,
        // Unit weights: every node takes the grouped-histogram sweep,
        // on nodes of up to 200 rows with heavy ties.
        rows in 8usize..200,
        cols in 1usize..7,
    ) {
        let x = messy_matrix(seed, rows, cols, true);
        let y = messy_labels(seed, rows);
        assert_tree_paths_agree(&x, &y, None, &tree_params(seed))?;
    }

    #[test]
    fn presorted_tree_matches_resorting_builder_weighted(
        seed in 0u64..1_000_000,
        rows in 8usize..200,
        cols in 1usize..7,
        wide_rows in 300usize..500,
    ) {
        let x = messy_matrix(seed, rows, cols, true);
        let y = messy_labels(seed, rows);
        let w = messy_weights(seed, rows);
        assert_tree_paths_agree(&x, &y, Some(&w), &tree_params(seed))?;
        // And a weighted gather of nodes that hold few of the ranks
        // they span.
        let x = continuous_matrix(seed, wide_rows, cols + 1);
        let y = messy_labels(seed, wide_rows);
        let w = messy_weights(seed, wide_rows);
        assert_tree_paths_agree(&x, &y, Some(&w), &tree_params(seed))?;
    }

    #[test]
    fn presorted_random_splitter_matches_resorting_builder(
        seed in 0u64..1_000_000,
        rows in 8usize..40,
        cols in 1usize..6,
    ) {
        // The random splitter draws a threshold uniformly between the
        // node's min and max feature value, which is undefined with NaN
        // cells — keep this case NaN-free.
        let x = messy_matrix(seed, rows, cols, false);
        let y = messy_labels(seed, rows);
        let params = DecisionTreeParams {
            splitter: Splitter::Random,
            ..tree_params(seed)
        };
        assert_tree_paths_agree(&x, &y, None, &params)?;
    }

    #[test]
    fn shared_presort_cache_does_not_change_trees(
        seed in 0u64..1_000_000,
        rows in 8usize..40,
        cols in 1usize..6,
    ) {
        let x = messy_matrix(seed, rows, cols, true);
        let y = messy_labels(seed, rows);
        let params = tree_params(seed);

        let mut fresh = DecisionTree::new(params.clone());
        fresh.fit(&x, &y, None).unwrap();

        // Two classifiers fitting through one cache: the second hit
        // reuses the first build and must still produce the same model.
        let cache = FitCache::new();
        let mut first = DecisionTree::new(params.clone());
        first.fit_cached(&x, &cache, &y, None).unwrap();
        let mut second = DecisionTree::new(params);
        second.fit_cached(&x, &cache, &y, None).unwrap();

        let want = monitorless_std::json::to_string(&fresh);
        prop_assert_eq!(monitorless_std::json::to_string(&first), want.clone());
        prop_assert_eq!(monitorless_std::json::to_string(&second), want);
    }
}

proptest! {
    #![proptest_config(tree_cases(32))]

    #[test]
    fn lazy_reads_in_any_order_match_an_eager_build(
        seed in 0u64..1_000_000,
        rows in 1usize..120,
        cols in 1usize..12,
    ) {
        let x = signed_zero_matrix(seed, rows, cols);
        let reference = PresortedDataset::build_sorted(&x);
        prop_assert_eq!(reference.sorted_features(), cols);
        let want: Vec<_> = (0..cols).map(|f| feature_view(&reference, f, 0)).collect();

        // One reader, features in a random order.
        let mut rng = Mix(seed ^ 0x1A27);
        let lazy = PresortedDataset::build(&x);
        prop_assert_eq!(lazy.sorted_features(), 0);
        for f in permutation(&mut rng, cols) {
            prop_assert_eq!(&feature_view(&lazy, f, rng.below(4)), &want[f], "feature {}", f);
        }
        prop_assert_eq!(lazy.sorted_features(), cols);

        // Four readers at once, each in its own order, racing to sort
        // the same features.
        let shared = PresortedDataset::build(&x);
        let orders: Vec<Vec<(usize, u64)>> = (0..4)
            .map(|_| {
                permutation(&mut rng, cols)
                    .into_iter()
                    .map(|f| (f, rng.below(4)))
                    .collect()
            })
            .collect();
        let seen: Vec<Vec<_>> = std::thread::scope(|s| {
            let workers: Vec<_> = orders
                .iter()
                .map(|order| {
                    let shared = &shared;
                    s.spawn(move || {
                        order
                            .iter()
                            .map(|&(f, first)| (f, feature_view(shared, f, first)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("reader thread")).collect()
        });
        for views in &seen {
            for (f, view) in views {
                prop_assert_eq!(view, &want[*f], "feature {} read concurrently", f);
            }
        }
        prop_assert!(shared.bit_identical(&reference));
    }

    #[test]
    fn forests_on_lazy_and_sorted_caches_agree(
        seed in 0u64..1_000_000,
        rows in 8usize..150,
        cols in 4usize..24,
        n_jobs in 1usize..5,
        entropy in 0u64..2,
    ) {
        let x = signed_zero_matrix(seed, rows, cols);
        let y = messy_labels(seed, rows);
        let fit = |ps: &PresortedDataset| {
            let mut rf = RandomForest::new(RandomForestParams {
                n_estimators: 6,
                criterion: if entropy == 1 {
                    SplitCriterion::Entropy
                } else {
                    SplitCriterion::Gini
                },
                min_samples_leaf: 1 + (seed % 3) as usize,
                n_jobs,
                seed,
                ..RandomForestParams::default()
            });
            rf.fit_presorted(ps, &y, None).unwrap();
            monitorless_std::json::to_string(&rf)
        };
        let lazy = PresortedDataset::build(&x);
        let from_lazy = fit(&lazy);
        prop_assert!(lazy.sorted_features() <= cols);
        prop_assert_eq!(from_lazy, fit(&PresortedDataset::build_sorted(&x)));
    }

    #[test]
    fn append_after_partial_reads_matches_a_fresh_sorted_build(
        seed in 0u64..1_000_000,
        rows in 1usize..80,
        extra_rows in 0usize..40,
        cols in 1usize..10,
    ) {
        let base = signed_zero_matrix(seed, rows, cols);
        let extra = signed_zero_matrix(seed ^ 0xADD, extra_rows, cols);
        let mut rng = Mix(seed ^ 0xA99);
        let mut ps = PresortedDataset::build(&base);
        for f in 0..cols {
            if rng.below(2) == 0 {
                feature_view(&ps, f, rng.below(4));
            }
        }
        let read_before = ps.sorted_features();
        if rng.below(3) == 0 {
            ps.reserve_rows(rng.below(50) as usize);
        }
        ps.append_rows(&extra);
        // Features read before the append were merged; the rest are
        // still unsorted.
        prop_assert_eq!(ps.sorted_features(), read_before);
        prop_assert!(ps.bit_identical(&PresortedDataset::build_sorted(&base.vstack(&extra))));
    }

    #[test]
    fn clone_of_a_partly_sorted_cache_equals_the_original(
        seed in 0u64..1_000_000,
        rows in 1usize..80,
        cols in 1usize..10,
    ) {
        let x = signed_zero_matrix(seed, rows, cols);
        let mut rng = Mix(seed ^ 0xC10E);
        let ps = PresortedDataset::build(&x);
        for f in 0..cols {
            if rng.below(2) == 0 {
                feature_view(&ps, f, rng.below(4));
            }
        }
        let copy = ps.clone();
        prop_assert_eq!(copy.sorted_features(), ps.sorted_features());
        prop_assert!(copy.bit_identical(&ps));
        prop_assert!(copy.bit_identical(&PresortedDataset::build_sorted(&x)));
    }
}

proptest! {
    #![proptest_config(tree_cases(24))]

    #[test]
    fn unweighted_bootstrap_forest_trees_match_the_resorting_builder(
        seed in 0u64..1_000_000,
        rows in 8usize..300,
        cols in 1usize..9,
        // One positive row in `rare` cases: about a third of the draws
        // then hold one class and take the fallback stump.
        rare in 0u64..4,
    ) {
        let x = signed_zero_matrix(seed, rows, cols);
        let mut y = messy_labels(seed, rows);
        if rare == 0 {
            y.fill(0);
            y[(seed % rows as u64) as usize] = 1;
        }
        assert_forest_matches_oracle(&x, &y, &oracle_forest_params(seed, ClassWeight::None))?;
    }

    #[test]
    fn class_weighted_bootstrap_forest_trees_match_the_resorting_builder(
        seed in 0u64..1_000_000,
        rows in 8usize..120,
        cols in 1usize..7,
        wide_rows in 300usize..400,
        subsample in 0u64..2,
    ) {
        // A class-weighted forest keeps a virtual row per draw, each
        // with its own weight.
        let x = signed_zero_matrix(seed, rows, cols);
        let y = messy_labels(seed, rows);
        let class_weight = if subsample == 1 {
            ClassWeight::BalancedSubsample
        } else {
            ClassWeight::Balanced
        };
        let params = oracle_forest_params(seed, class_weight);
        assert_forest_matches_oracle(&x, &y, &params)?;
        // And on nodes that hold few of the ranks they span.
        let x = continuous_matrix(seed, wide_rows, cols + 1);
        let y = messy_labels(seed, wide_rows);
        assert_forest_matches_oracle(&x, &y, &params)?;
    }
}

#[test]
fn one_class_draws_take_the_forests_fallback_stump() {
    // Twelve rows, one positive: a draw misses it with probability
    // (11/12)^12, about 0.35, so eight trees nearly always include a
    // fallback; this seed's do.
    for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
        let x = signed_zero_matrix(5, 12, 3);
        let mut y = vec![0u8; 12];
        y[7] = 1;
        let params = RandomForestParams {
            n_estimators: 8,
            criterion,
            min_samples_leaf: 2,
            max_features: MaxFeatures::All,
            seed: 5,
            ..RandomForestParams::default()
        };
        let fallbacks = assert_forest_matches_oracle(&x, &y, &params).unwrap();
        assert!(fallbacks > 0, "{criterion:?}: no draw held one class");
    }
}

proptest! {
    #![proptest_config(tree_cases(12))]

    #[test]
    fn presorted_entropy_tree_matches_resorting_builder_on_bootstraps(
        seed in 0u64..1_000_000,
        // Large enough that nodes near the root weigh hundreds of
        // candidate thresholds per feature, most of which the entropy
        // filter of the unit-weight sweep skips.
        rows in 500usize..3000,
        // At least three sampled features per node, so a node rarely
        // draws only constant columns.
        cols in 8usize..17,
        min_samples_leaf in 1usize..21,
    ) {
        let base = messy_matrix(seed, rows, cols, true);
        let (x, y) = bootstrap(seed, &base, &messy_labels(seed, rows));
        let params = DecisionTreeParams {
            criterion: SplitCriterion::Entropy,
            splitter: Splitter::Best,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf,
            max_features: MaxFeatures::Sqrt,
            seed,
        };
        assert_tree_paths_agree(&x, &y, None, &params)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn forest_training_is_independent_of_n_jobs(
        seed in 0u64..10_000,
        rows in 12usize..40,
        bootstrap in 0u64..2,
        entropy in 0u64..2,
    ) {
        let x = messy_matrix(seed, rows, 4, true);
        let y = messy_labels(seed, rows);
        let fit = |n_jobs: usize| {
            let mut rf = RandomForest::new(RandomForestParams {
                n_estimators: 7,
                criterion: if entropy == 1 {
                    SplitCriterion::Entropy
                } else {
                    SplitCriterion::Gini
                },
                min_samples_leaf: 2,
                bootstrap: bootstrap == 1,
                n_jobs,
                seed,
                ..RandomForestParams::default()
            });
            rf.fit(&x, &y, None).unwrap();
            // Compare the trained trees (and derived importances), not
            // the whole forest: its params echo the n_jobs knob, which
            // is exactly the field allowed to differ.
            (
                monitorless_std::json::to_string(&rf.trees().to_vec()),
                rf.feature_importances(),
            )
        };
        prop_assert_eq!(fit(1), fit(4));
    }

    #[test]
    fn grid_search_is_independent_of_n_jobs(
        seed in 0u64..10_000,
        rows in 16usize..40,
    ) {
        let x = messy_matrix(seed, rows, 3, true);
        let y = messy_labels(seed, rows);
        let splits = KFold::new(3).split(rows).unwrap();
        let grid = ParamGrid::new()
            .add("min_samples_leaf", vec![ParamValue::I(1), ParamValue::I(3)])
            .add(
                "criterion",
                vec![ParamValue::S("gini".into()), ParamValue::S("entropy".into())],
            );
        let factory = |p: &monitorless_learn::model_selection::ParamSet| -> Box<dyn Classifier> {
            Box::new(DecisionTree::new(DecisionTreeParams {
                min_samples_leaf: p["min_samples_leaf"].as_usize(),
                criterion: if p["criterion"].as_str() == "gini" {
                    SplitCriterion::Gini
                } else {
                    SplitCriterion::Entropy
                },
                seed: 11,
                ..DecisionTreeParams::default()
            }))
        };
        let run = |n_jobs: usize| {
            GridSearch::new(grid.clone(), splits.clone())
                .with_n_jobs(n_jobs)
                .run(factory, f1_score, &x, &y)
                .unwrap()
                .evaluations
        };
        let sequential = run(1);
        prop_assert_eq!(sequential.len(), 4);
        prop_assert_eq!(run(4), sequential);
    }
}

//! Synthetic inputs shared by more than one perf-gate binary.

use monitorless_learn::{Classifier, Matrix, RandomForest, RandomForestParams};
use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

/// Synthetic matrix shaped like the paper's feature tables — the same
/// five-column mix as `table3_treefit` (quantized percent gauges,
/// counter deltas, coarse levels, continuous latency-like values).
/// `table7_predict` and `table_obs` both serve it, so `table_obs`'s
/// plain-path numbers are directly comparable with `table7_predict`'s
/// tick section.
///
/// Unlike `table3_treefit`'s training set, the label is a *noisy*
/// combination of several utilization-style columns: a cleanly
/// separable label grows 5-node stumps that say nothing about inference
/// cost, while noisy interactions drive every tree down to its
/// `min_samples_leaf` floor — the node counts a forest trained on real
/// platform metrics shows.
pub fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0; d];
    for _ in 0..n {
        for (c, v) in row.iter_mut().enumerate() {
            *v = match c % 5 {
                // Utilization-style gauge in [0, 1].
                0 => rng.gen::<f64>(),
                // CPU-style percentage sampled at 0.1% granularity.
                1 => (rng.gen::<f64>() * 1000.0).floor() / 10.0,
                // Integer counter delta (packets, page faults, ...).
                2 => (rng.gen::<f64>() * 256.0).floor(),
                // Coarse gauge with a handful of levels.
                3 => (rng.gen::<f64>() * 8.0).floor(),
                // Continuous latency-like value.
                _ => rng.gen::<f64>(),
            };
        }
        // Saturation depends on several gauges plus their interaction,
        // blurred by noise on the same scale as the signal.
        let score = row[0]
            + 0.7 * row[d.min(6) - 1]
            + 0.5 * row[5 % d]
            + 0.8 * row[0] * row[5 % d]
            + (rng.gen::<f64>() - 0.5) * 0.9;
        y.push(u8::from(score > 1.3));
        data.extend_from_slice(&row);
    }
    (Matrix::from_vec(n, d, data), y)
}

/// The paper-shaped forest `table7_predict` and `table_obs` serve
/// (250 trees, entropy, `min_samples_leaf 20`), trained once on a
/// 20k-row [`dataset`]; training cost is not what they measure.
pub fn paper_forest(seed: u64) -> RandomForest {
    obs::progress("training paper-shaped forest (250 trees, 20k rows)...");
    let (x, y) = dataset(20_000, 30, seed);
    let mut forest = RandomForest::new(RandomForestParams {
        n_jobs: 1,
        seed,
        ..RandomForestParams::paper_selected()
    });
    forest
        .fit(&x, &y, None)
        .expect("paper-shaped forest trains on the synthetic dataset");
    forest
}

/// Bounded deterministic metric value in `[0, 100)` (hash-mixed, no RNG
/// state), the metric source of `table_tick` and `table_train`.
pub fn value(entity: u64, metric: u64, t: u64) -> f64 {
    let mut h = entity
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(metric.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(t.wrapping_mul(0x94d0_49bb_1331_11eb));
    h ^= h >> 31;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^= h >> 27;
    (h % 10_000) as f64 / 100.0
}

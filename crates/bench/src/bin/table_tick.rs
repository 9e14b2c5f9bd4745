//! Fleet serving-tick perf snapshot: the one-pass batched
//! `Orchestrator::step` vs the retained per-instance
//! `Orchestrator::step_legacy`.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_tick --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_tick.json`
//! (override with `--out <path>`). The default quick scale sweeps
//! simulated fleets of 100 / 1k / 10k instances; `--full` adds 100k.
//!
//! The model under test pairs the quick feature pipeline with a
//! paper-shaped forest (250 trees, entropy, `min_samples_leaf` 2)
//! fitted on in-distribution transformed rows, so the per-tick predict
//! cost is the paper's while training stays laptop-sized; it is
//! trained once and cached under `target/`. Each fleet size feeds both
//! serving paths identical catalog-width observation batches (952
//! host and 88 container metrics per instance, hash-derived, cycling
//! so the rolling windows keep evolving).
//!
//! Measurements interleave the two paths tick by tick (best-of-3
//! reps), so a noise burst on a shared core hits both sides alike. On
//! every measured tick the batched path's per-instance probabilities
//! and decisions are asserted bit-identical to the legacy loop's, and
//! a counting global allocator asserts the steady-state batched tick
//! (`n_jobs` 1) performs **zero** heap allocations. A 4-worker batched
//! column is reported for information; it allocates on pool spawn and
//! is not part of the 0-alloc contract.
//!
//! `--check <path>` re-measures at the current scale and exits
//! non-zero if the batched tick lost its edge: µs-per-instance more
//! than 2x the committed snapshot for the same fleet size, or a
//! same-run speedup over the legacy loop below 1.5x at fleets >= 1k.

use std::sync::Arc;
use std::time::Instant;

use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::orchestrator::{InstancePrediction, Orchestrator};
use monitorless::training::generate_training_data;
use monitorless_bench::harness::{alloc_events, CountingAlloc, Harness};
use monitorless_bench::snapshot::tick::{BenchReport, SizeResult};
use monitorless_bench::synth::value;
use monitorless_learn::RandomForestParams;
use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::{InstanceId, NodeId, Observation};
use monitorless_obs as obs;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ticks fed to every orchestrator before measuring: fills the
/// 16-sample rolling windows and grows every reused buffer to its
/// high-water mark.
const WARMUP_TICKS: usize = 24;

/// Catalog-width observations for one tick: `n` instances over up to 3
/// nodes, values varying by instance, metric and tick.
fn observations(n: usize, t: u64) -> Vec<Observation> {
    let catalog = Catalog::standard();
    let nodes = n.clamp(1, 3);
    let mut out: Vec<Observation> = (0..nodes)
        .map(|node| Observation {
            node: NodeId(node as u32),
            time: t,
            host: (0..catalog.host_len())
                .map(|m| value(node as u64, m as u64, t))
                .collect(),
            containers: Vec::new(),
        })
        .collect();
    for i in 0..n {
        let container = (0..catalog.container_len())
            .map(|m| value(1000 + i as u64, m as u64, t))
            .collect();
        out[i % nodes]
            .containers
            .push((InstanceId(i as u32), container));
    }
    out
}

/// In-distribution feature rows for the grafted forest: a 32-instance
/// transformer fleet runs over the same hash-derived observation
/// stream the measurement loop serves, so the fitted trees see the
/// value ranges serving rows actually carry. (A synthetic fit set with
/// foreign ranges lets serving rows fall off every tree's spine after
/// a few comparisons, flattening the per-row walk and faking a cheap
/// legacy path.) Each column is then quantized to <= 64 levels inside
/// its observed range so the flat table's deduplicated threshold pool
/// stays within its u16 index and the packed walk engages. The label
/// is a noisy interaction of many range-normalized columns balanced at
/// the median, which keeps every region impure and drives trees down
/// to their `min_samples_leaf` floor instead of stopping at stumps.
fn graft_dataset(
    model: &MonitorlessModel,
    n: usize,
    seed: u64,
) -> (monitorless_learn::Matrix, Vec<u8>) {
    use monitorless_std::rng::{Rng, StdRng};
    let d = model.pipeline().output_width();
    let fleet = 32usize;
    let pipeline = Arc::new(model.pipeline().clone());
    let mut transformers: Vec<_> = (0..fleet)
        .map(|_| monitorless::features::InstanceTransformer::new(Arc::clone(&pipeline)))
        .collect();
    let mut raw = Vec::new();
    let mut data = Vec::with_capacity(n * d);
    let mut rows = 0usize;
    let mut t = 0u64;
    'ticks: loop {
        for observation in observations(fleet, t) {
            for i in 0..observation.n_instances() {
                if rows == n {
                    break 'ticks;
                }
                let id = observation.instance_vector_at(i, &mut raw);
                let row = transformers[id.0 as usize]
                    .push(&raw)
                    .expect("graft transform");
                data.extend_from_slice(row);
                rows += 1;
            }
        }
        t += 1;
    }
    // Quantize each column to <= 64 levels inside its observed range,
    // remembering the range so labels can mix scale-free values.
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for c in 0..d {
        for r in 0..n {
            let v = data[r * d + c];
            if v.is_finite() {
                lo[c] = lo[c].min(v);
                hi[c] = hi[c].max(v);
            }
        }
        for r in 0..n {
            let v = &mut data[r * d + c];
            *v = if !v.is_finite() || hi[c] <= lo[c] {
                0.0
            } else {
                lo[c] + ((*v - lo[c]) / (hi[c] - lo[c]) * 63.0).round() * (hi[c] - lo[c]) / 63.0
            };
        }
    }
    // Noisy many-column interaction score, split at the median so the
    // classes stay balanced.
    let mut rng = StdRng::seed_from_u64(seed);
    let norm = |v: f64, c: usize| {
        if hi[c] <= lo[c] {
            0.0
        } else {
            (v - lo[c]) / (hi[c] - lo[c])
        }
    };
    let mut scores: Vec<f64> = (0..n)
        .map(|r| {
            let row = &data[r * d..(r + 1) * d];
            let mut s = 0.0;
            for k in 0..16usize {
                let c = (k * 29 + 3) % d;
                let c2 = (k * 53 + 11) % d;
                let w = if k % 2 == 0 { 1.0 } else { -1.0 };
                s += w * norm(row[c], c) + 0.6 * norm(row[c], c) * norm(row[c2], c2);
            }
            s + (rng.gen::<f64>() - 0.5) * 1.2
        })
        .collect();
    let mut sorted = scores.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[n / 2];
    let y = scores.drain(..).map(|s| u8::from(s > median)).collect();
    (monitorless_learn::Matrix::from_vec(n, d, data), y)
}

/// The model under test: the quick feature pipeline paired with a
/// paper-shaped 250-tree forest fitted on in-distribution transformed
/// rows ([`graft_dataset`]) with a `min_samples_leaf` of 2, so served
/// rows walk paper-depth paths. Cached under `target/` so re-runs skip
/// both trainings.
fn tick_model(seed: u64) -> Arc<MonitorlessModel> {
    let path = std::path::PathBuf::from(format!("target/monitorless-tickmodel-{seed}.json"));
    if let Ok(model) = MonitorlessModel::load(&path) {
        obs::progress(&format!("loaded cached model from {}", path.display()));
        return Arc::new(model);
    }
    obs::progress("training base model (quick pipeline)...");
    let data = generate_training_data(&monitorless::training::TrainingOptions::quick(seed))
        .expect("training-data generation");
    let base = MonitorlessModel::train(&data, &ModelOptions::quick()).expect("base model training");
    let width = base.pipeline().output_width();
    obs::progress(&format!("fitting deep forest (250 trees, 12k x {width})..."));
    let (x, y) = graft_dataset(&base, 12_000, seed);
    let mut forest = monitorless_learn::RandomForest::new(RandomForestParams {
        min_samples_leaf: 2,
        n_jobs: 4,
        seed,
        ..RandomForestParams::paper_selected()
    });
    monitorless_learn::Classifier::fit(&mut forest, &x, &y, None)
        .expect("paper-shaped forest trains on the quantized dataset");
    let model = base
        .with_forest(forest)
        .expect("forest matches pipeline width");
    if model.save(&path).is_ok() {
        obs::progress(&format!("cached model at {}", path.display()));
    }
    Arc::new(model)
}

fn assert_bit_identical(n: usize, tick: usize, a: &[InstancePrediction], b: &[InstancePrediction]) {
    assert_eq!(a.len(), b.len(), "fleet {n} tick {tick}: prediction count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.instance, y.instance, "fleet {n} tick {tick}: instance order");
        assert_eq!(
            x.probability.to_bits(),
            y.probability.to_bits(),
            "fleet {n} tick {tick} {}: probabilities diverged ({} vs {})",
            x.instance,
            x.probability,
            y.probability
        );
        assert_eq!(x.saturated, y.saturated, "fleet {n} tick {tick} {}: decision", x.instance);
    }
}

fn measure_size(model: &Arc<MonitorlessModel>, n: usize) -> SizeResult {
    obs::progress(&format!("fleet of {n} instances..."));
    // A small cycle of pregenerated tick batches keeps the windows
    // evolving without per-tick generation cost inside the timed loop.
    let cycle: Vec<Vec<Observation>> = (0..4).map(|t| observations(n, t as u64)).collect();
    let mut batched = Orchestrator::new(Arc::clone(model));
    let mut batched_par = Orchestrator::new(Arc::clone(model));
    batched_par.set_n_jobs(4);
    let mut legacy = Orchestrator::new(Arc::clone(model));
    for t in 0..WARMUP_TICKS {
        let observed = &cycle[t % cycle.len()];
        batched.step(observed).expect("batched warmup tick");
        batched_par.step(observed).expect("parallel warmup tick");
        legacy.step_legacy(observed).expect("legacy warmup tick");
    }

    // Interleave the paths tick by tick, best-of-3 reps: a noise burst
    // hits batched and legacy samples alike and cancels out of the
    // ratio. Every measured tick cross-checks bit-identity.
    let reps = 3;
    let ticks = (2_000 / n).clamp(1, 20);
    let mut batched_us = f64::INFINITY;
    let mut batched_par_us = f64::INFINITY;
    let mut legacy_us = f64::INFINITY;
    let mut batched_allocs = 0u64;
    let mut tick_no = WARMUP_TICKS;
    for _ in 0..reps {
        let mut tb = 0.0;
        let mut tp = 0.0;
        let mut tl = 0.0;
        for _ in 0..ticks {
            let observed = &cycle[tick_no % cycle.len()];
            let a0 = alloc_events();
            let t0 = Instant::now();
            let b = batched.step(observed).expect("batched tick");
            tb += t0.elapsed().as_secs_f64();
            batched_allocs += alloc_events() - a0;
            let t1 = Instant::now();
            let l = legacy.step_legacy(observed).expect("legacy tick");
            tl += t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            let p = batched_par.step(observed).expect("parallel tick");
            tp += t2.elapsed().as_secs_f64();
            assert_bit_identical(n, tick_no, b, l);
            assert_bit_identical(n, tick_no, p, l);
            tick_no += 1;
        }
        let per_instance = 1e6 / (ticks * n) as f64;
        batched_us = batched_us.min(tb * per_instance);
        batched_par_us = batched_par_us.min(tp * per_instance);
        legacy_us = legacy_us.min(tl * per_instance);
    }
    let allocs_per_tick = batched_allocs as f64 / (reps * ticks) as f64;
    assert!(
        batched_allocs == 0,
        "batched tick allocated ({allocs_per_tick} events/tick over {} ticks); the steady-state \
         fleet tick must be allocation-free",
        reps * ticks
    );

    let r = SizeResult {
        instances: n,
        measured_ticks: reps * ticks,
        legacy_us_per_instance: legacy_us,
        batched_us_per_instance: batched_us,
        batched_par_us_per_instance: batched_par_us,
        speedup: legacy_us / batched_us,
        batched_allocs_per_tick: allocs_per_tick,
    };
    obs::progress(&format!(
        "  legacy {:.2} us/inst, batched {:.2} us/inst ({:.2}x; 4 workers {:.2} us/inst, 0 allocs)",
        r.legacy_us_per_instance,
        r.batched_us_per_instance,
        r.speedup,
        r.batched_par_us_per_instance
    ));
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    for current in &report.sizes {
        if let Some(baseline) = committed
            .sizes
            .iter()
            .find(|s| s.instances == current.instances)
        {
            if current.batched_us_per_instance > 2.0 * baseline.batched_us_per_instance {
                return Err(format!(
                    "batched tick at {} instances took {:.2} us/inst, more than 2x the committed \
                     {:.2} us/inst",
                    current.instances,
                    current.batched_us_per_instance,
                    baseline.batched_us_per_instance
                ));
            }
        }
        if current.instances >= 1_000 && current.speedup < 1.5 {
            return Err(format!(
                "batched tick is only {:.2}x faster than the per-instance loop at {} instances \
                 (need >= 1.5x)",
                current.speedup, current.instances
            ));
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table_tick");
    let scale = harness.scale;
    let model = tick_model(scale.seed);
    let flat = model.flat();
    obs::progress(&format!(
        "forest: {} trees, {} nodes, packed = {} ({} walk bytes)",
        flat.n_trees(),
        flat.n_nodes(),
        flat.is_packed(),
        flat.walk_bytes()
    ));

    let sizes: &[usize] = if scale.full {
        &[100, 1_000, 10_000, 100_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        n_trees: flat.n_trees(),
        n_nodes: flat.n_nodes(),
        feature_width: model.pipeline().output_width(),
        packed: flat.is_packed(),
        walk_bytes: flat.walk_bytes(),
        sizes: sizes.iter().map(|&n| measure_size(&model, n)).collect(),
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_tick.json"))
            .expect("committed snapshot parses")
    }

    #[test]
    fn wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.sizes[0].batched_us_per_instance = 2.0 * base.sizes[0].batched_us_per_instance;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[0].batched_us_per_instance = fresh.sizes[0].batched_us_per_instance.next_up();
        assert!(check(&fresh, &base).unwrap_err().contains("more than 2x"));
    }

    #[test]
    fn speedup_floor_is_one_and_a_half_from_a_thousand_instances() {
        let base = committed();
        let mut fresh = base.clone();
        assert_eq!(fresh.sizes[1].instances, 1_000);
        fresh.sizes[1].speedup = 1.5;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[1].speedup = 1.5f64.next_down();
        assert!(check(&fresh, &base).unwrap_err().contains("need >= 1.5x"));
        // Unmatched fleets are still held to the floor.
        fresh.sizes[1].instances = 5_000;
        assert!(check(&fresh, &base).unwrap_err().contains("need >= 1.5x"));
    }

    #[test]
    fn small_fleets_have_no_speedup_floor() {
        let base = committed();
        let mut fresh = base.clone();
        assert_eq!(fresh.sizes[0].instances, 100);
        fresh.sizes[0].speedup = 0.5;
        assert_eq!(check(&fresh, &base), Ok(()));
    }
}

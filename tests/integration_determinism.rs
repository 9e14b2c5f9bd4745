//! End-to-end determinism: the whole sim → dataset → feature pipeline →
//! forest chain must be bit-for-bit reproducible for a fixed seed.
//!
//! This is the property the offline-first refactor leans on: with the
//! in-tree RNG (no external `rand`), two identical runs must produce
//! identical training data and byte-identical serialized models.

use std::sync::Arc;

use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::orchestrator::Orchestrator;
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless_metrics::{Collector, NodeId};
use monitorless_sim::apps::build_single;
use monitorless_sim::{Cluster, ContainerLimits, NodeSpec, ServiceProfile};

fn options() -> TrainingOptions {
    TrainingOptions {
        run_seconds: 30,
        ramp_seconds: 100,
        seed: 2026,
        n_jobs: 1,
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn same_seed_is_bit_for_bit_reproducible() {
    let a = generate_training_data(&options()).unwrap();
    let b = generate_training_data(&options()).unwrap();

    // The simulated datasets match exactly — not approximately.
    assert_eq!(a.dataset.x(), b.dataset.x(), "raw metric matrices differ");
    assert_eq!(a.dataset.y(), b.dataset.y(), "labels differ");
    assert_eq!(a.dataset.groups(), b.dataset.groups(), "groups differ");
    assert_eq!(a.thresholds, b.thresholds, "calibrated thresholds differ");

    // Training is deterministic too: the serialized models (pipeline
    // state + every tree) are byte-identical.
    let opts = ModelOptions::quick();
    let model_a = MonitorlessModel::train(&a, &opts).unwrap();
    let model_b = MonitorlessModel::train(&b, &opts).unwrap();
    let json_a = monitorless_std::json::to_string(&model_a);
    let json_b = monitorless_std::json::to_string(&model_b);
    assert!(json_a == json_b, "serialized models differ");

    // Golden: the serialized model's FNV-1a-64 digest. Determinism
    // between two runs cannot catch a change that moves both; this
    // committed value can. It pins the floating-point bits of the
    // x86-64 Linux build; a platform with other libm rounding may
    // differ and needs its own golden.
    assert_eq!(
        fnv1a64(json_a.as_bytes()),
        0xc4d2_05ef_7ce9_40e8,
        "serialized model differs from the committed golden"
    );

    // And so are the predictions they emit.
    let pa = model_a
        .predict_proba_batch(a.dataset.x(), a.dataset.groups())
        .unwrap();
    let pb = model_b
        .predict_proba_batch(b.dataset.x(), b.dataset.groups())
        .unwrap();
    assert_eq!(pa, pb, "predicted probabilities differ");
}

#[test]
fn flat_predict_path_matches_legacy_and_survives_serialization() {
    let data = generate_training_data(&options()).unwrap();
    let model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();

    // The batched entry point runs on the flat table; the forest's
    // recursive walk is the independent reference. Same transformed
    // features, bit-identical scores.
    let x = model
        .pipeline()
        .transform_batch(data.dataset.x(), data.dataset.groups())
        .unwrap();
    let flat = model.flat().predict_proba(&x, 1);
    let legacy = model.forest().predict_proba_legacy(&x);
    assert_eq!(flat.len(), legacy.len());
    for (i, (a, b)) in flat.iter().zip(&legacy).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {i}: flat {a} vs legacy {b}");
    }

    // A save/load round trip recompiles the flat table from the
    // serialized forest; scores must survive bit-for-bit, and the
    // single-row tick entry must agree with the batch path.
    let path = std::env::temp_dir().join("monitorless_determinism_flat.json");
    model.save(&path).unwrap();
    let reloaded = MonitorlessModel::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let reloaded_scores = reloaded
        .predict_proba_batch(data.dataset.x(), data.dataset.groups())
        .unwrap();
    let original_scores = model
        .predict_proba_batch(data.dataset.x(), data.dataset.groups())
        .unwrap();
    for (i, (a, b)) in original_scores.iter().zip(&reloaded_scores).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {i}: original {a} vs reloaded {b}");
    }
    for (row, &want) in x.iter_rows().zip(&flat) {
        let (p, label) = reloaded.predict_features(row);
        assert_eq!(p.to_bits(), want.to_bits(), "tick path diverges from batch");
        assert_eq!(label, u8::from(p >= reloaded.threshold()));
    }
}

#[test]
fn different_seeds_produce_different_data() {
    let a = generate_training_data(&options()).unwrap();
    let b = generate_training_data(&TrainingOptions {
        seed: 2027,
        n_jobs: 1,
        ..options()
    })
    .unwrap();
    assert_ne!(a.dataset.x(), b.dataset.x(), "seed must matter");
}

/// The golden model's orchestrator collects only the columns its
/// serving cells and level features read. On a fixed three-node cluster
/// (two containers, one, none) it noise-hashes a pinned number of cells
/// per collection, about a tenth of a full collection's.
#[test]
fn golden_model_collects_only_the_columns_it_reads() {
    let data = generate_training_data(&options()).unwrap();
    let model = Arc::new(MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap());
    let mut orch = Orchestrator::new(model);
    let nodes = vec![NodeSpec::training_server(); 3];
    let mut cluster = Cluster::new(nodes, 5);
    let mut full = Collector::full(cluster.catalog());
    let (app, _) = build_single(
        &mut cluster,
        ServiceProfile::test_cpu_bound("svc", 8.0),
        ContainerLimits::cpu(1.0),
        NodeId(0),
    );
    cluster.scale_out(app, "svc", NodeId(0)).unwrap();
    cluster.scale_out(app, "svc", NodeId(1)).unwrap();
    let ticks = 10;
    for _ in 0..ticks {
        let report = cluster.step(&[(app, 40.0)]);
        full.collect(report.time, &report.frames);
        assert_eq!(orch.step_report(&report).unwrap().len(), 3);
    }
    let sub = orch.collector().subscription();
    let read = (sub.host_columns().count(), sub.container_columns().count());
    assert_eq!(read, (94, 15), "host and container columns the golden model reads");
    // Three hosts and three containers a second, none of the golden
    // model's columns a constant.
    assert_eq!(orch.collector().cells(), ticks * (3 * 94 + 3 * 15));
    assert_eq!(full.cells(), ticks * (3 * 927 + 3 * 88));
}

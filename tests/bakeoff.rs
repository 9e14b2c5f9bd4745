//! Bake-off harness integration: determinism, tuning ordering, model
//! gating, and true scale-to-zero, all through the public
//! `autoscale::{backend, bakeoff}` API.

use std::sync::Arc;

use monitorless::autoscale::backend::{MonitorlessScaler, ReactiveThreshold};
use monitorless::autoscale::bakeoff::{run_cell, BakeoffOptions};
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless_workload::scenario::Scenario;

fn quick_model() -> Arc<MonitorlessModel> {
    let data = generate_training_data(&TrainingOptions {
        run_seconds: 50,
        ramp_seconds: 120,
        seed: 211,
        n_jobs: 1,
    })
    .unwrap();
    Arc::new(MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap())
}

#[test]
fn same_seed_twice_is_byte_identical() {
    let model = quick_model();
    let opts = BakeoffOptions::standard(11);
    for scenario in Scenario::pack(11, true) {
        let mut a = MonitorlessScaler::with_threshold(model.threshold());
        let mut b = MonitorlessScaler::with_threshold(model.threshold());
        let first = run_cell(&mut a, &scenario, &model, &opts).unwrap();
        let second = run_cell(&mut b, &scenario, &model, &opts).unwrap();
        assert_eq!(
            monitorless_std::json::to_string(&first),
            monitorless_std::json::to_string(&second),
            "cell {} must be a pure function of its inputs",
            scenario.name
        );
    }
}

#[test]
fn tuned_threshold_beats_untuned_on_a_flash_crowd() {
    let model = quick_model();
    let opts = BakeoffOptions::standard(13);
    let scenario = Scenario::flash_crowd(13, true);

    // Tuned: the HPA default 70% utilization target. Untuned: waits
    // for 95% utilization before adding capacity.
    let mut tuned = ReactiveThreshold::hpa_cpu();
    let mut untuned = ReactiveThreshold::with_target(95.0);
    let good = run_cell(&mut tuned, &scenario, &model, &opts).unwrap();
    let bad = run_cell(&mut untuned, &scenario, &model, &opts).unwrap();

    assert!(
        good.slo_violation_s < bad.slo_violation_s,
        "70% target ({} s violated) must beat a 95% target ({} s)",
        good.slo_violation_s,
        bad.slo_violation_s
    );
}

#[test]
fn monitorless_never_scales_out_below_its_threshold() {
    let model = quick_model();
    let opts = BakeoffOptions::standard(17);
    let scenario = Scenario::flash_crowd(17, true);

    // An unreachable threshold means no saturation probability ever
    // crosses it, so the model path must never add capacity; only the
    // idle path may remove some (the scenario floor is 1).
    let mut gated = MonitorlessScaler::with_threshold(2.0);
    let cell = run_cell(&mut gated, &scenario, &model, &opts).unwrap();
    assert_eq!(
        cell.scale_outs, 0,
        "no scale-out may fire while every probability is below threshold"
    );
    assert_eq!(cell.peak_instances, 1, "capacity must stay at the initial replica");
}

#[test]
fn scale_to_zero_reaches_zero_between_bursts_and_comes_back() {
    let model = quick_model();
    let opts = BakeoffOptions::standard(19);
    let scenario = Scenario::scale_to_zero(19, true);

    let mut backend = MonitorlessScaler::with_threshold(model.threshold());
    let cell = run_cell(&mut backend, &scenario, &model, &opts).unwrap();
    assert_eq!(cell.min_instances, 0, "idle gaps must drain the service to zero");
    assert!(cell.peak_instances >= 2, "bursts must scale the service back out");
    assert!(cell.cold_starts > 0, "restarting from zero pays cold starts");
    assert!(cell.zero_capacity_s > 0, "cold-start bursts necessarily hit zero-capacity seconds");
}

#[test]
fn zero_nodes_run_as_one_node() {
    let model = quick_model();
    let scenario = Scenario::flash_crowd(11, true);
    let one = BakeoffOptions {
        nodes: 1,
        ..BakeoffOptions::standard(11)
    };
    let zero = BakeoffOptions {
        nodes: 0,
        ..one.clone()
    };

    let cell = run_cell(&mut ReactiveThreshold::hpa_cpu(), &scenario, &model, &zero).unwrap();
    assert!(cell.scale_outs > 0, "the flash crowd must place scale-outs");
    let on_one = run_cell(&mut ReactiveThreshold::hpa_cpu(), &scenario, &model, &one).unwrap();
    assert_eq!(cell, on_one);
}

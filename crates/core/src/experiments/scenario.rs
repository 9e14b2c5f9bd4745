//! Shared evaluation-scenario runner for Tables 5/6/8 and Figure 3.
//!
//! An evaluation scenario deploys an application the model has never
//! seen (Elgg three-tier, TeaStore or Sockshop), calibrates the
//! application's saturation threshold `Υ` with a linear load ramp, then
//! replays the paper's evaluation workload while recording, per second:
//! the ground-truth label (KPI vs `Υ`), per-instance utilizations for
//! the threshold baselines, the measured response time for the RT
//! baseline, and — when a model is supplied — online monitorless
//! predictions per instance and per service.

use std::sync::Arc;

use monitorless_label::kneedle::KneedleParams;
use monitorless_label::{SaturationDirection, SaturationThreshold};
use monitorless_metrics::{Collector, NodeId};
use monitorless_sim::apps::{build_elgg, build_sockshop, build_teastore};
use monitorless_sim::{AppId, Cluster, NodeSpec};
use monitorless_workload::{
    DailyPatternProfile, LoadProfile, NoisyProfile, RampProfile, SineProfile, SumProfile,
};

use crate::baselines::InstanceUtil;
use crate::model::MonitorlessModel;
use crate::orchestrator::{Aggregation, Orchestrator};
use crate::Error;

/// Which evaluation application a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalApp {
    /// The Elgg three-tier stack (Table 5), alone on one training-class
    /// server.
    ThreeTier,
    /// TeaStore in the multi-tenant M1–M3 deployment, co-located with
    /// Sockshop (Table 6 / Figure 3 / Table 7).
    TeaStore,
    /// Sockshop in the same deployment, co-located with TeaStore
    /// (Table 8).
    Sockshop,
}

/// Options for [`run_eval_scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Length of the measured run in seconds.
    pub duration: u64,
    /// Length of the `Υ` calibration ramp.
    pub ramp_seconds: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Record the raw per-instance metric series (needed by the Table 3
    /// classifier comparison; costs memory).
    pub record_raw: bool,
}

impl EvalOptions {
    /// Laptop-scale defaults.
    pub fn quick(seed: u64) -> Self {
        EvalOptions {
            duration: 500,
            ramp_seconds: 250,
            seed,
            record_raw: false,
        }
    }
}

/// Everything recorded during an evaluation run.
#[derive(Debug, Clone)]
pub struct EvalRun {
    /// Ground-truth application saturation per second.
    pub ground_truth: Vec<u8>,
    /// Offered load per second.
    pub workload: Vec<f64>,
    /// Achieved throughput per second.
    pub throughput: Vec<f64>,
    /// Measured average response time per second (ms).
    pub response_ms: Vec<f64>,
    /// Per-second, per-instance `(cpu%, mem%)` of the target app's
    /// containers.
    pub utils: Vec<Vec<InstanceUtil>>,
    /// Monitorless application-level predictions (when a model was
    /// given).
    pub monitorless: Option<Vec<u8>>,
    /// Monitorless per-service predictions (service name, one label per
    /// second), for Figure 3.
    pub per_service: Option<Vec<(String, Vec<u8>)>>,
    /// Raw per-instance metric series (service name, one 1040-vector per
    /// second), recorded when [`EvalOptions::record_raw`] is set.
    pub raw_instances: Option<Vec<(String, Vec<Vec<f64>>)>>,
    /// The calibrated saturation threshold `Υ` (throughput scale).
    pub upsilon: f64,
}

fn build_app(cluster: &mut Cluster, app: EvalApp) -> AppId {
    match app {
        EvalApp::ThreeTier => build_elgg(cluster, NodeId(0)),
        EvalApp::TeaStore => build_teastore(cluster, NodeId(0), NodeId(1), NodeId(2)),
        EvalApp::Sockshop => build_sockshop(cluster, NodeId(0), NodeId(1), NodeId(2)),
    }
}

fn nodes_for(app: EvalApp) -> Vec<NodeSpec> {
    match app {
        EvalApp::ThreeTier => vec![NodeSpec::training_server()],
        _ => vec![NodeSpec::m1(), NodeSpec::m2(), NodeSpec::m3()],
    }
}

/// The evaluation workload for each application, as in the paper:
/// a 1/10-intensity `sinnoise` for the three-tier app, a worst-case
/// daily-pattern trace for TeaStore, and three overlapping Locust runs
/// for Sockshop.
pub fn eval_workload(app: EvalApp, duration: u64, seed: u64) -> Box<dyn LoadProfile> {
    match app {
        EvalApp::ThreeTier => {
            // sinnoise1000 scaled to one tenth of the intensity.
            let base = SineProfile::new(0.1, 100.0, duration.max(1), duration);
            Box::new(NoisyProfile::new(base, 0.35, 6.0, seed))
        }
        EvalApp::TeaStore => {
            Box::new(DailyPatternProfile::new(60.0, 420.0, (duration / 3).max(1), duration, seed))
        }
        // 0.62 req/s per hatched client: the 700-client plateau of each
        // Locust run pushes the front-end past its knee for the last
        // stretch of hatching plus the hold phase (~10-15% of the trace,
        // as in the paper's 10.1% saturated ratio).
        EvalApp::Sockshop => Box::new(SumProfile::sockshop(0.62)),
    }
}

/// Maximum rate used to size the calibration ramp.
fn ramp_peak(app: EvalApp) -> f64 {
    match app {
        EvalApp::ThreeTier => 140.0,
        EvalApp::TeaStore => 800.0,
        EvalApp::Sockshop => 800.0,
    }
}

/// Calibrates `Υ` for an evaluation application with a linear ramp on a
/// fresh, uncontended deployment (Section 4: "running a linearly
/// increasing load test, as described in Section 2.2").
pub fn calibrate_eval_threshold(
    app: EvalApp,
    opts: &EvalOptions,
) -> Result<SaturationThreshold, Error> {
    let mut cluster = Cluster::new(nodes_for(app), opts.seed ^ 0xEE);
    let target = build_app(&mut cluster, app);
    let ramp = RampProfile::new(1.0, ramp_peak(app), opts.ramp_seconds);
    let mut offered = Vec::new();
    let mut throughput = Vec::new();
    for t in 0..opts.ramp_seconds {
        let load = ramp.intensity(t);
        let report = cluster.step(&[(target, load)]);
        offered.push(load);
        throughput.push(report.kpi(target).expect("app exists").throughput_rps);
    }
    Ok(SaturationThreshold::calibrate(
        &offered,
        &throughput,
        &KneedleParams::default(),
        SaturationDirection::Above,
    )?)
}

/// Runs the evaluation scenario. When `model` is provided, monitorless
/// predictions are produced online (per instance, per service, and
/// OR-aggregated to application level).
///
/// # Errors
///
/// Propagates simulation, labeling and pipeline errors.
pub fn run_eval_scenario(
    app: EvalApp,
    model: Option<&Arc<MonitorlessModel>>,
    opts: &EvalOptions,
) -> Result<EvalRun, Error> {
    let threshold = calibrate_eval_threshold(app, opts)?;

    let mut cluster = Cluster::new(nodes_for(app), opts.seed);
    let target = build_app(&mut cluster, app);
    // Multi-tenant scenarios co-locate the *other* storefront.
    let tenant = match app {
        EvalApp::ThreeTier => None,
        EvalApp::TeaStore => Some((
            build_sockshop(&mut cluster, NodeId(0), NodeId(1), NodeId(2)),
            eval_workload(EvalApp::Sockshop, opts.duration, opts.seed ^ 1),
        )),
        EvalApp::Sockshop => Some((
            build_teastore(&mut cluster, NodeId(0), NodeId(1), NodeId(2)),
            eval_workload(EvalApp::TeaStore, opts.duration, opts.seed ^ 1),
        )),
    };
    let profile = eval_workload(app, opts.duration, opts.seed);

    let service_names: Vec<String> = cluster.app(target).service_names().to_vec();
    let mut orchestrator = model.map(|m| Orchestrator::new(Arc::clone(m)));

    // Baselines read the same monitored (noisy) utilization metrics the
    // model sees, not the simulator's internal state.
    let catalog = Arc::clone(cluster.catalog());
    let idx_cpu = catalog
        .container_index("containers.cpu.util")
        .expect("standard catalog");
    let idx_mem = catalog
        .container_index("containers.mem.util")
        .expect("standard catalog");

    let mut run = EvalRun {
        ground_truth: Vec::new(),
        workload: Vec::new(),
        throughput: Vec::new(),
        response_ms: Vec::new(),
        utils: Vec::new(),
        monitorless: model.map(|_| Vec::new()),
        per_service: model.map(|_| {
            service_names
                .iter()
                .map(|s| (s.clone(), Vec::new()))
                .collect()
        }),
        raw_instances: opts.record_raw.then(|| {
            cluster
                .app(target)
                .instances()
                .iter()
                .map(|&inst| {
                    let (_, svc) = cluster.owner_of(inst).expect("instance belongs to target");
                    (svc.to_string(), Vec::new())
                })
                .collect()
        }),
        upsilon: threshold.upsilon(),
    };
    let raw_instance_ids: Vec<_> = cluster.app(target).instances().to_vec();
    // The baselines and the raw-series dump read columns the model may
    // not, so this loop collects every column, from the first tick.
    let mut collector = Collector::full(&catalog);
    let mut observed = Vec::new();

    for t in 0..opts.duration {
        let load = profile.intensity(t);
        let mut loads = vec![(target, load)];
        if let Some((other, other_profile)) = &tenant {
            loads.push((*other, other_profile.intensity(t)));
        }
        let report = cluster.step(&loads);
        collector.collect_into(report.time, &report.frames, &mut observed);
        let kpi = report.kpi(target).expect("target exists");

        run.workload.push(load);
        run.throughput.push(kpi.throughput_rps);
        run.response_ms.push(kpi.response_ms);
        run.ground_truth
            .push(crate::training::saturation_label(kpi, Some(&threshold)));
        run.utils.push(
            cluster
                .app(target)
                .instances()
                .iter()
                .filter_map(|&inst| {
                    observed.iter().find_map(|o| {
                        o.containers
                            .iter()
                            .find(|(id, _)| *id == inst)
                            .map(|(_, v)| (v[idx_cpu], v[idx_mem]))
                    })
                })
                .collect(),
        );

        if let Some(raws) = run.raw_instances.as_mut() {
            for (k, &inst) in raw_instance_ids.iter().enumerate() {
                if let Some(v) = observed.iter().find_map(|o| o.instance_vector(inst)) {
                    raws[k].1.push(v);
                }
            }
        }

        if let Some(orch) = orchestrator.as_mut() {
            let preds = orch.step(&observed)?;
            let app_instances = cluster.app(target).instances();
            let app_pred =
                Orchestrator::application_prediction(preds, app_instances, Aggregation::Or);
            run.monitorless
                .as_mut()
                .expect("created with model")
                .push(app_pred);
            let per_service = run.per_service.as_mut().expect("created with model");
            for (service, series) in per_service.iter_mut() {
                let insts = cluster.app(target).instances_of(service);
                let p = Orchestrator::application_prediction(preds, &insts, Aggregation::Or);
                series.push(p);
            }
        }
    }
    Ok(run)
}

/// The paper evaluates with lag distance `k = 2`.
pub const EVAL_LAG: usize = 2;

/// Builds the comparison rows shared by Tables 5, 6 and 8: the four
/// a-posteriori-optimal threshold baselines plus monitorless (when the
/// run carried a model).
pub fn comparison_rows(run: &EvalRun) -> Vec<super::ComparisonRow> {
    use crate::baselines::{optimal_baseline, BaselineKind};
    use monitorless_learn::metrics::lagged_confusion;

    let mut rows = Vec::new();
    for kind in [
        BaselineKind::Cpu,
        BaselineKind::Mem,
        BaselineKind::CpuOrMem,
        BaselineKind::CpuAndMem,
    ] {
        let baseline = optimal_baseline(kind, &run.utils, &run.ground_truth, EVAL_LAG);
        let pred = baseline.predict_run(&run.utils);
        let name = match kind {
            BaselineKind::Cpu => format!("CPU ({:.0}%)", baseline.cpu_threshold),
            BaselineKind::Mem => format!("MEM ({:.0}%)", baseline.mem_threshold),
            BaselineKind::CpuOrMem => "CPU-OR-MEM".to_string(),
            BaselineKind::CpuAndMem => "CPU-AND-MEM".to_string(),
        };
        rows.push(super::ComparisonRow {
            algorithm: name,
            confusion: lagged_confusion(&run.ground_truth, &pred, EVAL_LAG),
        });
    }
    if let Some(pred) = &run.monitorless {
        rows.push(super::ComparisonRow {
            algorithm: "monitorless".into(),
            confusion: lagged_confusion(&run.ground_truth, pred, EVAL_LAG),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_tier_scenario_records_everything() {
        let opts = EvalOptions {
            duration: 120,
            ramp_seconds: 150,
            seed: 21,
            record_raw: false,
        };
        let run = run_eval_scenario(EvalApp::ThreeTier, None, &opts).unwrap();
        assert_eq!(run.ground_truth.len(), 120);
        assert_eq!(run.utils.len(), 120);
        assert_eq!(run.utils[0].len(), 3, "three tiers");
        assert!(run.upsilon > 10.0, "upsilon = {}", run.upsilon);
        assert!(run.monitorless.is_none());
        // The noisy sine must saturate the front-end sometimes.
        let pos: usize = run.ground_truth.iter().map(|&l| l as usize).sum();
        assert!(pos > 0, "no saturated samples in the run");
        assert!(pos < 120, "everything saturated");
    }

    #[test]
    fn teastore_scenario_has_low_saturation_ratio() {
        let opts = EvalOptions {
            duration: 200,
            ramp_seconds: 200,
            seed: 23,
            record_raw: false,
        };
        let run = run_eval_scenario(EvalApp::TeaStore, None, &opts).unwrap();
        let pos: usize = run.ground_truth.iter().map(|&l| l as usize).sum();
        let ratio = pos as f64 / run.ground_truth.len() as f64;
        assert!(ratio < 0.5, "TeaStore should saturate only at peaks: {ratio}");
        assert_eq!(run.utils[0].len(), 7);
    }

    #[test]
    fn sockshop_scenario_builds_14_instances() {
        let opts = EvalOptions {
            duration: 60,
            ramp_seconds: 150,
            seed: 29,
            record_raw: true,
        };
        let run = run_eval_scenario(EvalApp::Sockshop, None, &opts).unwrap();
        assert_eq!(run.utils[0].len(), 14);
        let raws = run.raw_instances.as_ref().unwrap();
        assert_eq!(raws.len(), 14);
        assert_eq!(raws[0].1.len(), 60);
        assert_eq!(raws[0].1[0].len(), 1040);
    }
}

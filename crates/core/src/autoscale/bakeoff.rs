//! The bake-off harness: one backend × one hostile scenario, driven
//! tick-for-tick through the event-driven simulator.
//!
//! Each cell builds a small cluster running one CPU-bound service
//! (calibrated to ~100 req/s per 2-core instance, matching the rate
//! units of [`monitorless_workload::scenario`]), wraps it in
//! [`EventSim`], and loops over its 1 Hz monitoring ticks: the tick's
//! [`TickReport`] feeds the Monitorless orchestrator via
//! [`Orchestrator::step_report`], the report plus the orchestrator's
//! saturation probabilities become a [`BackendSample`], and the
//! backend's desired count is applied through cold-start-aware scale
//! events ([`EventSim::schedule_scale_out_cold`] /
//! [`EventSim::schedule_scale_in_to_zero`]).
//!
//! Per-cell metrics:
//!
//! * **SLO-violation seconds** — ticks where the app KPI violates the
//!   750 ms SLO *or* offered load finds zero ready capacity (an empty
//!   service serves nothing; the simulator reports it as simply
//!   absent, so the harness accounts those seconds explicitly).
//! * **Over-provisioned instance-seconds** — ready capacity above the
//!   analytic need `ceil(offered / per-instance capacity)`, integrated
//!   over the run.
//! * **Scaling lag p50/p99** — from the first scale-up request of a
//!   demand episode to the moment ready capacity reaches the episode's
//!   highest requested level (cancelled episodes — demand receded
//!   first — contribute no sample).
//! * **Cold-start count** and **oscillation flips** (scale-direction
//!   changes of applied actions).
//!
//! Everything is a pure function of `(backend, scenario, model,
//! options)`: two runs with the same inputs produce bit-identical
//! [`CellOutcome`]s — the determinism the `tests/bakeoff.rs` suite and
//! the CI gate both pin.

use std::sync::Arc;

use monitorless_metrics::{InstanceId, NodeId};
use monitorless_sim::{
    Cluster, ContainerLimits, EventSim, NodeSpec, ServiceProfile, ServiceRole, TickReport,
};
use monitorless_workload::scenario::Scenario;

use crate::autoscale::backend::{BackendSample, ScalingBackend};
use crate::model::MonitorlessModel;
use crate::orchestrator::Orchestrator;
use crate::Error;

/// Fixed platform parameters shared by every cell of a bake-off run.
#[derive(Debug, Clone, PartialEq)]
pub struct BakeoffOptions {
    /// SLO response-time limit, milliseconds (paper: 750).
    pub slo_ms: f64,
    /// Nodes instances spread over (round-robin); 0 runs as 1.
    pub nodes: usize,
    /// CPU milliseconds per request of the scaled service — 20 ms at a
    /// 2-core limit gives the calibrated ~100 req/s per instance.
    pub cpu_ms_per_req: f64,
    /// Container CPU limit, cores.
    pub limit_cores: f64,
    /// Cluster seed.
    pub seed: u64,
}

impl BakeoffOptions {
    /// The calibrated defaults every committed bake-off uses.
    pub fn standard(seed: u64) -> Self {
        BakeoffOptions {
            slo_ms: 750.0,
            nodes: 3,
            cpu_ms_per_req: 20.0,
            limit_cores: 2.0,
            seed,
        }
    }

    /// Requests/second one instance sustains at its CPU limit.
    pub fn capacity_rps(&self) -> f64 {
        ServiceProfile::test_cpu_bound("web", self.cpu_ms_per_req)
            .cpu_capacity_rps(self.limit_cores)
    }
}

/// Head-to-head metrics for one backend × scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Backend identifier ([`ScalingBackend::name`]).
    pub backend: String,
    /// Scenario identifier ([`Scenario::name`]).
    pub scenario: String,
    /// Monitored seconds.
    pub ticks: u64,
    /// Seconds violating the SLO (KPI breach or zero-capacity).
    pub slo_violation_s: u64,
    /// Of those, seconds where offered load met zero ready instances.
    pub zero_capacity_s: u64,
    /// Ready instance-seconds above the analytic need.
    pub overprovision_inst_s: f64,
    /// Mean ready instances over the run.
    pub avg_instances: f64,
    /// Highest ready count observed.
    pub peak_instances: u64,
    /// Lowest ready count observed.
    pub min_instances: u64,
    /// Median scale-up episode lag, seconds.
    pub lag_p50_s: f64,
    /// 99th-percentile scale-up episode lag, seconds.
    pub lag_p99_s: f64,
    /// Scale-outs that paid a cold start.
    pub cold_starts: u64,
    /// Scale-direction changes.
    pub flips: u64,
    /// Scale-out actions scheduled.
    pub scale_outs: u64,
    /// Scale-in actions scheduled.
    pub scale_ins: u64,
}

monitorless_std::json_struct!(CellOutcome {
    backend,
    scenario,
    ticks,
    slo_violation_s,
    zero_capacity_s,
    overprovision_inst_s,
    avg_instances,
    peak_instances,
    min_instances,
    lag_p50_s,
    lag_p99_s,
    cold_starts,
    flips,
    scale_outs,
    scale_ins,
});

/// Runs one backend through one scenario and reports the cell metrics.
///
/// # Errors
///
/// Propagates orchestrator (feature-pipeline) errors.
pub fn run_cell(
    backend: &mut dyn ScalingBackend,
    scenario: &Scenario,
    model: &Arc<MonitorlessModel>,
    opts: &BakeoffOptions,
) -> Result<CellOutcome, Error> {
    backend.reset();
    // At least one node, and the scale-out placement cycles over the same count.
    let nodes = opts.nodes.max(1);
    let specs: Vec<NodeSpec> = (0..nodes).map(|_| NodeSpec::training_server()).collect();
    let mut cluster = Cluster::new(specs, opts.seed);
    let app = cluster.add_app("bakeoff");
    cluster.add_service(
        app,
        ServiceRole {
            name: "web".into(),
            profile: ServiceProfile::test_cpu_bound("web", opts.cpu_ms_per_req),
            fanout: 1.0,
            limits: ContainerLimits::cpu(opts.limit_cores),
        },
        NodeId(0),
    );
    let mut sim = EventSim::new(cluster);
    sim.add_workload(app, scenario.profile_box());
    let mut orch = Orchestrator::new(Arc::clone(model));
    let capacity = opts.capacity_rps();

    let mut report = TickReport::empty();
    let mut placements = 1u64; // round-robin node cursor (first instance on node 0)

    let mut out = CellOutcome {
        backend: backend.name().to_string(),
        scenario: scenario.name.to_string(),
        ticks: 0,
        slo_violation_s: 0,
        zero_capacity_s: 0,
        overprovision_inst_s: 0.0,
        avg_instances: 0.0,
        peak_instances: 0,
        min_instances: u64::MAX,
        lag_p50_s: 0.0,
        lag_p99_s: 0.0,
        cold_starts: 0,
        flips: 0,
        scale_outs: 0,
        scale_ins: 0,
    };
    let mut instance_integral = 0.0f64;
    let mut lags: Vec<u64> = Vec::new();
    // Open scale-up episode: (request time, highest desired so far).
    let mut episode: Option<(u64, u32)> = None;
    let mut last_dir = 0i8;

    while sim.time() < scenario.duration {
        report.clone_from(sim.step());
        let t = report.time;

        let ready: Vec<InstanceId> = sim.cluster().app(app).instances_of("web");
        let pending = sim.pending_count(app) as u32;
        let kpi = report.kpi(app).copied().unwrap_or_default();
        let offered = kpi.offered_rps;

        // Mean relative utilizations over ready instances.
        let (mut cpu, mut mem, mut seen) = (0.0f64, 0.0f64, 0u32);
        for &inst in &ready {
            if let Some(tick) = report.container(inst) {
                cpu += tick.signals.cpu_util * 100.0;
                mem += tick.signals.mem_util * 100.0;
                seen += 1;
            }
        }
        if seen > 0 {
            cpu /= f64::from(seen);
            mem /= f64::from(seen);
        }

        // Saturation probabilities via the PR 8 step_report bridge.
        let mut saturation = 0.0f64;
        for p in orch.step_report(&report)? {
            if ready.contains(&p.instance) {
                saturation = saturation.max(p.probability);
            }
        }

        // --- accounting (one monitored second per tick) ---
        let n_ready = ready.len() as u64;
        out.ticks += 1;
        instance_integral += n_ready as f64;
        out.peak_instances = out.peak_instances.max(n_ready);
        out.min_instances = out.min_instances.min(n_ready);
        // Offered load with no ready instance serves nobody — capacity
        // still cold-starting doesn't count.
        let zero_capacity = offered > 0.0 && n_ready == 0;
        if zero_capacity {
            out.zero_capacity_s += 1;
            out.slo_violation_s += 1;
        } else if kpi.violates_slo(opts.slo_ms) {
            out.slo_violation_s += 1;
        }
        let needed = (offered / capacity).ceil() as u64;
        if n_ready > needed {
            out.overprovision_inst_s += (n_ready - needed) as f64;
        }

        // --- decision ---
        let sample = BackendSample {
            t,
            ready: n_ready as u32,
            pending,
            cpu_util_pct: cpu,
            mem_util_pct: mem,
            offered_rps: offered,
            saturation,
        };
        let mut desired = backend
            .desired(&sample)
            .clamp(scenario.min_instances, scenario.max_instances);
        // The activator: no backend can observe an empty service, so
        // offered load arriving at zero requested capacity always
        // starts one instance (the serverless activator's job).
        if sample.total() == 0 && offered > 0.0 {
            desired = desired.max(1);
        }

        let now = sim.time(); // t + 1: actions land next tick
        let total = sample.total();
        if desired > total {
            let n = desired - total;
            for _ in 0..n {
                let node = NodeId((placements % nodes as u64) as u32);
                placements += 1;
                sim.schedule_scale_out_cold(now, scenario.cold_start_s, app, "web", node);
            }
            out.scale_outs += u64::from(n);
            if last_dir == -1 {
                out.flips += 1;
            }
            last_dir = 1;
            episode = match episode {
                Some((t0, target)) => Some((t0, target.max(desired))),
                None => Some((t, desired)),
            };
        } else if desired < sample.ready && pending == 0 {
            let n = sample.ready - desired;
            // Newest instances first (instances_of is in creation order).
            for &inst in ready.iter().rev().take(n as usize) {
                if scenario.min_instances == 0 {
                    sim.schedule_scale_in_to_zero(now, inst);
                } else {
                    sim.schedule_scale_in(now, inst);
                }
            }
            out.scale_ins += u64::from(n);
            if last_dir == 1 {
                out.flips += 1;
            }
            last_dir = -1;
            episode = None; // demand receded before capacity landed
        }

        // Close a fulfilled scale-up episode.
        if let Some((t0, target)) = episode {
            if n_ready as u32 >= target {
                lags.push(t - t0);
                episode = None;
            }
        }
    }

    out.avg_instances = instance_integral / out.ticks.max(1) as f64;
    if out.min_instances == u64::MAX {
        out.min_instances = 0;
    }
    lags.sort_unstable();
    out.lag_p50_s = percentile(&lags, 0.50);
    out.lag_p99_s = percentile(&lags, 0.99);
    out.cold_starts = sim.stats().cold_starts;
    Ok(out)
}

/// Nearest-rank percentile of a sorted sample (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

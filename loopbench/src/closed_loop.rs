//! The closed control loop both loop workloads drive, one controller
//! and no think time. Each monitored second runs, in order:
//!
//! 1. `EventSim::step` — the simulator and its metrics agents;
//! 2. `Orchestrator::step_report` — gather/featurize, predict, fan-out
//!    and drift;
//! 3. `ScalingBackend::desired` for every application (the
//!    `MonitorlessScaler`), after the harness builds each backend sample
//!    from the report;
//! 4. the cold-start-aware `EventSim::schedule_scale_*` calls that apply
//!    the decisions.
//!
//! The next second starts only after the decisions are applied. The
//! per-application accounting is `autoscale::bakeoff::run_cell`'s,
//! generalized to many applications on one cluster: on a one-app
//! episode it reproduces `run_cell`'s `CellOutcome` exactly, which the
//! `hostile_pack` workload checks.

use std::sync::Arc;
use std::time::Instant;

use monitorless::autoscale::backend::{BackendSample, MonitorlessScaler, ScalingBackend};
use monitorless::autoscale::bakeoff::{BakeoffOptions, CellOutcome};
use monitorless::model::MonitorlessModel;
use monitorless::orchestrator::Orchestrator;
use monitorless_metrics::{InstanceId, NodeId};
use monitorless_sim::{
    AppId, AppKpi, Cluster, ContainerLimits, EventSim, NodeSpec, ScaleOutcome, ServiceProfile,
    ServiceRole,
};
use monitorless_workload::LoadProfile;

use crate::alloc;
use crate::cpu;
use crate::spans::Spans;
use crate::stats::{Digest, Failures};

/// Service name of every application's single service.
pub const SERVICE: &str = "web";

/// Ticks at the start of an episode that fill the orchestrator's
/// 16-sample windows; they are accounted but not timed.
pub const WARMUP_TICKS: u64 = 16;

/// One application of an episode.
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Offered load.
    pub profile: Box<dyn LoadProfile>,
    /// Instances at start (at least 1).
    pub initial: u32,
    /// Nodes instances are placed on, round-robin; the first instance
    /// goes to `ring[0]`.
    pub ring: Vec<NodeId>,
    /// Fewest instances the autoscaler may keep (0 = scale-to-zero).
    pub min: u32,
    /// Most instances the autoscaler may run.
    pub max: u32,
    /// Seconds a scale-out takes to become ready.
    pub cold_start_s: u64,
}

/// One cluster and the applications it runs for `duration` seconds.
pub struct EpisodeSpec {
    /// Label, e.g. the scenario name.
    pub name: String,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Cluster and platform seed.
    pub seed: u64,
    /// Monitored seconds.
    pub duration: u64,
    /// Applications.
    pub apps: Vec<AppSpec>,
}

/// Per-application decision outcome over an episode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppOutcome {
    /// Monitored seconds.
    pub ticks: u64,
    /// Seconds violating the SLO or meeting zero capacity.
    pub slo_violation_s: u64,
    /// Of those, seconds where offered load met zero ready instances.
    pub zero_capacity_s: u64,
    /// Ready instance-seconds above the analytic need.
    pub overprovision_inst_s: f64,
    /// Ready instance-seconds.
    pub instance_s: f64,
    /// Highest ready count.
    pub peak_instances: u64,
    /// Lowest ready count.
    pub min_instances: u64,
    /// Scale-outs scheduled.
    pub scale_outs: u64,
    /// Scale-ins scheduled.
    pub scale_ins: u64,
    /// Scale-direction changes.
    pub flips: u64,
    /// Seconds from a scale-up request to capacity, per episode.
    pub lags: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Out { app: usize, n: u32 },
    In { app: usize, n: u32 },
}

struct AppState {
    id: AppId,
    backend: MonitorlessScaler,
    ring: Vec<NodeId>,
    cursor: u64,
    min: u32,
    max: u32,
    cold_start_s: u64,
    episode: Option<(u64, u32)>,
    last_dir: i8,
    out: AppOutcome,
}

/// Wall-clock split of one tick, with the allocations made by the sim
/// and orchestrator calls.
#[derive(Debug, Clone, Copy)]
pub struct TickTimes {
    /// Tick start, before `EventSim::step`.
    pub start: Instant,
    /// After `EventSim::step`.
    pub sim_end: Instant,
    /// After `Orchestrator::step_report`.
    pub orch_end: Instant,
    /// After the harness built every backend sample, accounted the
    /// second and asked every backend.
    pub decide_end: Instant,
    /// After the scale scheduling: the decision is applied.
    pub end: Instant,
    /// Process CPU time over the whole tick, ns.
    pub cpu_ns: u64,
    /// Allocations inside `EventSim::step`.
    pub sim_allocs: u64,
    /// Allocations inside `Orchestrator::step_report`.
    pub orch_allocs: u64,
}

impl TickTimes {
    /// Wall time of the whole tick, milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// CPU time of the whole tick, milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ns as f64 / 1e6
    }
}

/// A running episode.
pub struct Episode {
    name: String,
    sim: EventSim,
    orch: Orchestrator,
    apps: Vec<AppState>,
    duration: u64,
    capacity_rps: f64,
    slo_ms: f64,
    /// Probability per instance id for the current tick (NaN = none).
    prob: Vec<f64>,
    /// CPU and memory utilization per instance id (NaN = not reported).
    util: Vec<[f64; 2]>,
    kpis: Vec<(AppId, AppKpi)>,
    actions: Vec<Action>,
    victims: Vec<InstanceId>,
    scale_seen: usize,
    /// Start and end of every `ScalingBackend::desired` call this tick.
    decide_calls: Vec<(Instant, Instant)>,
}

impl Episode {
    /// Builds the cluster, its applications and their controllers.
    ///
    /// # Panics
    ///
    /// Panics when a spec names a node the cluster does not have.
    pub fn new(spec: EpisodeSpec, model: &Arc<MonitorlessModel>) -> Self {
        let opts = BakeoffOptions::standard(spec.seed);
        let specs = (0..spec.nodes.max(1))
            .map(|_| NodeSpec::training_server())
            .collect();
        let mut cluster = Cluster::new(specs, spec.seed);
        let mut apps = Vec::with_capacity(spec.apps.len());
        let mut profiles = Vec::with_capacity(spec.apps.len());
        for a in spec.apps {
            let id = cluster.add_app(&a.name);
            cluster.add_service(
                id,
                ServiceRole {
                    name: SERVICE.into(),
                    profile: ServiceProfile::test_cpu_bound(SERVICE, opts.cpu_ms_per_req),
                    fanout: 1.0,
                    limits: ContainerLimits::cpu(opts.limit_cores),
                },
                a.ring[0],
            );
            let mut cursor = 1u64;
            for _ in 1..a.initial {
                let node = a.ring[(cursor % a.ring.len() as u64) as usize];
                cursor += 1;
                cluster
                    .scale_out(id, SERVICE, node)
                    .expect("episode nodes exist");
            }
            profiles.push((id, a.profile));
            apps.push(AppState {
                id,
                backend: MonitorlessScaler::with_threshold(model.threshold()),
                ring: a.ring,
                cursor,
                min: a.min,
                max: a.max,
                cold_start_s: a.cold_start_s,
                episode: None,
                last_dir: 0,
                out: AppOutcome {
                    min_instances: u64::MAX,
                    ..AppOutcome::default()
                },
            });
        }
        let mut sim = EventSim::new(cluster);
        sim.set_monitor_every(1);
        for (id, profile) in profiles {
            sim.add_workload(id, profile);
        }
        Episode {
            name: spec.name,
            sim,
            orch: Orchestrator::new(Arc::clone(model)),
            apps,
            duration: spec.duration,
            capacity_rps: opts.capacity_rps(),
            slo_ms: opts.slo_ms,
            prob: Vec::new(),
            util: Vec::new(),
            kpis: Vec::new(),
            actions: Vec::new(),
            victims: Vec::new(),
            scale_seen: 0,
            decide_calls: Vec::new(),
        }
    }

    /// Whether the episode has monitored seconds left.
    pub fn running(&self) -> bool {
        self.sim.time() < self.duration
    }

    /// Monitored seconds so far.
    pub fn time(&self) -> u64 {
        self.sim.time()
    }

    /// Runs one monitored second. Folds the tick's probabilities and
    /// decisions into `digest`, tallies the tick and the scale actions
    /// that fired in it into `fails`, and returns the tick's timing.
    /// Fails `check` when a tick does not yield exactly one finite
    /// probability in `[0, 1]` per live instance.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors.
    pub fn tick(
        &mut self,
        digest: &mut Digest,
        fails: &mut Failures,
        check: &mut Result<(), String>,
    ) -> Result<TickTimes, monitorless::Error> {
        self.actions.clear();
        self.decide_calls.clear();
        let a0 = alloc::events();
        let c0 = cpu::process_ns();
        let start = Instant::now();
        let report = self.sim.step();
        let sim_end = Instant::now();
        let a1 = alloc::events();
        let preds = match self.orch.step_report(report) {
            Ok(p) => p,
            Err(e) => {
                fails.tick(false, 0.0);
                return Err(e);
            }
        };
        let orch_end = Instant::now();
        let a2 = alloc::events();

        // Decide: build each application's backend sample from the
        // report and the tick's probabilities, account, and ask.
        self.prob.fill(f64::NAN);
        for p in preds {
            *slot(&mut self.prob, p.instance, f64::NAN) = p.probability;
        }
        self.util.fill([f64::NAN; 2]);
        for (inst, tick) in &report.containers {
            *slot(&mut self.util, *inst, [f64::NAN; 2]) =
                [tick.signals.cpu_util, tick.signals.mem_util];
        }
        self.kpis.clear();
        self.kpis.extend_from_slice(&report.kpis);
        let t = report.time;
        let cluster = self.sim.cluster();
        for (i, app) in self.apps.iter_mut().enumerate() {
            let ready = cluster.app(app.id).instances();
            let pending = self.sim.pending_count(app.id) as u32;
            let kpi = self
                .kpis
                .iter()
                .find(|(a, _)| *a == app.id)
                .map(|(_, k)| *k)
                .unwrap_or_default();
            let offered = kpi.offered_rps;
            let (mut cpu, mut mem, mut seen) = (0.0f64, 0.0f64, 0u32);
            let mut saturation = 0.0f64;
            for &inst in ready {
                if let Some(&[c, m]) = self.util.get(inst.0 as usize) {
                    if !c.is_nan() {
                        cpu += c * 100.0;
                        mem += m * 100.0;
                        seen += 1;
                    }
                }
                if let Some(&p) = self.prob.get(inst.0 as usize) {
                    saturation = saturation.max(p);
                }
            }
            if seen > 0 {
                cpu /= f64::from(seen);
                mem /= f64::from(seen);
            }

            let out = &mut app.out;
            let n_ready = ready.len() as u64;
            out.ticks += 1;
            out.instance_s += n_ready as f64;
            out.peak_instances = out.peak_instances.max(n_ready);
            out.min_instances = out.min_instances.min(n_ready);
            if offered > 0.0 && n_ready == 0 {
                out.zero_capacity_s += 1;
                out.slo_violation_s += 1;
            } else if kpi.violates_slo(self.slo_ms) {
                out.slo_violation_s += 1;
            }
            let needed = (offered / self.capacity_rps).ceil() as u64;
            if n_ready > needed {
                out.overprovision_inst_s += (n_ready - needed) as f64;
            }

            let sample = BackendSample {
                t,
                ready: n_ready as u32,
                pending,
                cpu_util_pct: cpu,
                mem_util_pct: mem,
                offered_rps: offered,
                saturation,
            };
            let asked = Instant::now();
            let mut desired = app.backend.desired(&sample).clamp(app.min, app.max);
            self.decide_calls.push((asked, Instant::now()));
            // The activator: offered load at zero requested capacity
            // always starts one instance.
            if sample.total() == 0 && offered > 0.0 {
                desired = desired.max(1);
            }
            let total = sample.total();
            if desired > total {
                let n = desired - total;
                self.actions.push(Action::Out { app: i, n });
                out.scale_outs += u64::from(n);
                if app.last_dir == -1 {
                    out.flips += 1;
                }
                app.last_dir = 1;
                app.episode = match app.episode {
                    Some((t0, target)) => Some((t0, target.max(desired))),
                    None => Some((t, desired)),
                };
            } else if desired < sample.ready && pending == 0 {
                let n = sample.ready - desired;
                self.actions.push(Action::In { app: i, n });
                out.scale_ins += u64::from(n);
                if app.last_dir == 1 {
                    out.flips += 1;
                }
                app.last_dir = -1;
                app.episode = None;
            }
            if let Some((t0, target)) = app.episode {
                if n_ready as u32 >= target {
                    out.lags.push(t - t0);
                    app.episode = None;
                }
            }
        }
        let decide_end = Instant::now();

        // Apply: actions land at the next second.
        let now = self.sim.time();
        for &action in &self.actions {
            match action {
                Action::Out { app, n } => {
                    let a = &mut self.apps[app];
                    for _ in 0..n {
                        let node = a.ring[(a.cursor % a.ring.len() as u64) as usize];
                        a.cursor += 1;
                        self.sim
                            .schedule_scale_out_cold(now, a.cold_start_s, a.id, SERVICE, node);
                    }
                }
                Action::In { app, n } => {
                    let a = &self.apps[app];
                    self.victims.clear();
                    self.victims.extend(
                        self.sim
                            .cluster()
                            .app(a.id)
                            .instances()
                            .iter()
                            .rev()
                            .take(n as usize),
                    );
                    for &inst in &self.victims {
                        if a.min == 0 {
                            self.sim.schedule_scale_in_to_zero(now, inst);
                        } else {
                            self.sim.schedule_scale_in(now, inst);
                        }
                    }
                }
            }
        }
        let end = Instant::now();
        let c1 = cpu::process_ns();
        let times = TickTimes {
            cpu_ns: c1 - c0,
            start,
            sim_end,
            orch_end,
            decide_end,
            end,
            sim_allocs: a1 - a0,
            orch_allocs: a2 - a1,
        };

        // Outside the timed tick: tallies, checks and the digest.
        fails.tick(true, (end - start).as_secs_f64());
        for (_, outcome) in &self.sim.scale_log()[self.scale_seen..] {
            fails.scale(matches!(outcome, ScaleOutcome::Added(_) | ScaleOutcome::Removed(true)));
        }
        self.scale_seen = self.sim.scale_log().len();
        digest.word(t);
        let live = self.orch.tracked_instances();
        let mut predicted = 0usize;
        for (id, &p) in self.prob.iter().enumerate() {
            if p.is_nan() {
                continue;
            }
            predicted += 1;
            digest.word(id as u64);
            digest.float(p);
            if check.is_ok() && !(0.0..=1.0).contains(&p) {
                *check = Err(format!("{} t={t}: instance {id} probability {p}", self.name));
            }
        }
        let containers = self.sim.cluster().container_count();
        if check.is_ok() && (predicted != containers || live != containers) {
            *check = Err(format!(
                "{} t={t}: {predicted} probabilities for {containers} live instances",
                self.name
            ));
        }
        for &action in &self.actions {
            let (kind, app, n) = match action {
                Action::Out { app, n } => (1, app, n),
                Action::In { app, n } => (2, app, n),
            };
            digest.word(kind);
            digest.word(app as u64);
            digest.word(u64::from(n));
        }
        Ok(times)
    }

    /// Records the last tick and its layer calls as spans: the
    /// simulator step, the orchestrator step, every backend decision and
    /// the scale scheduling. The harness's own work between the calls —
    /// building backend samples and accounting — is left uncovered.
    pub fn record(&self, times: &TickTimes, spans: &mut Spans, op: u64) {
        let root = spans.push("tick", None, op, times.start, times.end);
        spans.push("sim.step", root, op, times.start, times.sim_end);
        spans.push("orchestrator.step", root, op, times.sim_end, times.orch_end);
        for &(start, end) in &self.decide_calls {
            spans.push("autoscale.decide", root, op, start, end);
        }
        spans.push("autoscale.schedule", root, op, times.decide_end, times.end);
    }

    /// Per-application outcomes so far.
    pub fn outcomes(&self) -> impl Iterator<Item = &AppOutcome> {
        self.apps.iter().map(|a| &a.out)
    }

    /// The single application's outcome in `run_cell`'s shape.
    pub fn cell_outcome(&self, scenario: &str) -> CellOutcome {
        let out = &self.apps[0].out;
        let mut lags = out.lags.clone();
        lags.sort_unstable();
        let pct = |q: f64| {
            if lags.is_empty() {
                return 0.0;
            }
            let rank = ((lags.len() as f64 * q).ceil() as usize).clamp(1, lags.len());
            lags[rank - 1] as f64
        };
        CellOutcome {
            backend: self.apps[0].backend.name().to_string(),
            scenario: scenario.to_string(),
            ticks: out.ticks,
            slo_violation_s: out.slo_violation_s,
            zero_capacity_s: out.zero_capacity_s,
            overprovision_inst_s: out.overprovision_inst_s,
            avg_instances: out.instance_s / out.ticks.max(1) as f64,
            peak_instances: out.peak_instances,
            min_instances: if out.min_instances == u64::MAX {
                0
            } else {
                out.min_instances
            },
            lag_p50_s: pct(0.50),
            lag_p99_s: pct(0.99),
            cold_starts: self.sim.stats().cold_starts,
            flips: out.flips,
            scale_outs: out.scale_outs,
            scale_ins: out.scale_ins,
        }
    }

    /// The simulator, for its work counters.
    pub fn sim(&self) -> &EventSim {
        &self.sim
    }

    /// Heap bytes owned by the simulator and by the orchestrator, and
    /// the instances the orchestrator tracked; consumes the episode.
    pub fn into_owned_bytes(self) -> (i64, i64, usize) {
        let tracked = self.orch.tracked_instances();
        let sim = alloc::owned_bytes(self.sim);
        let orch = alloc::owned_bytes(self.orch);
        (sim, orch, tracked)
    }
}

/// The entry for `inst` in a vector indexed by instance id, growing it
/// with `empty` entries as ids grow.
fn slot<T: Copy>(v: &mut Vec<T>, inst: InstanceId, empty: T) -> &mut T {
    let k = inst.0 as usize;
    if k >= v.len() {
        v.resize(k + 1, empty);
    }
    &mut v[k]
}

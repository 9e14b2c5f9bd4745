//! Event-driven simulation driver.
//!
//! [`EventSim`] wraps a [`Cluster`] and replaces the dense
//! "recompute everything every second" loop with an event queue. The
//! only work between events is what the cluster genuinely needs:
//!
//! * **Load-profile change points** — each registered workload schedules
//!   its next [`LoadProfile::next_change`] and is left alone in between.
//!   Sparse profiles (constant, stepped, trace-driven) contribute a
//!   handful of events per episode instead of one per second.
//! * **Monitoring samples** — the periodic 1 Hz (configurable) sample
//!   boundary. These seconds produce full [`TickReport`]s, and the
//!   stream of reports is bit-identical to calling
//!   [`Cluster::step_dense_legacy`] every monitored second. Any second
//!   between two samples runs as a state-only tick, in which a settled
//!   container is a fixed-point cache hit and costs nothing.
//! * **Autoscale actions** — scheduled scale-out/scale-in, applied to the
//!   cluster when they fire.
//!
//! All events sit in one queue ordered by a deterministic `(time, seq)`
//! key, where `seq` is a globally increasing schedule counter — two runs
//! with the same seed and the same schedule pop events in exactly the
//! same order, on any worker count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use monitorless_obs as obs;
use monitorless_workload::LoadProfile;

use crate::engine::{AppId, Cluster, SimStats, TickReport};
use crate::error::ClusterError;
use monitorless_metrics::{InstanceId, NodeId};

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    /// Re-sample workload `idx` and reschedule its next change point.
    LoadChange { workload: usize },
    /// Start an extra instance of `(app, service)` on `node`.
    ScaleOut {
        app: AppId,
        service: String,
        node: NodeId,
    },
    /// Stop an instance. `allow_zero` permits removing the last
    /// instance of its service (scale-to-zero).
    ScaleIn {
        instance: InstanceId,
        allow_zero: bool,
    },
}

/// A queued event. Ordering is by `(time, seq)` only — `seq` is assigned
/// at schedule time from a global counter, making pop order fully
/// deterministic for a fixed schedule.
#[derive(Debug, Clone)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Work counters for the event loop itself (the wrapped cluster keeps
/// its own [`SimStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Total events popped and applied.
    pub events: u64,
    /// Load change-point events applied.
    pub load_changes: u64,
    /// Scale-out/in events applied.
    pub scale_actions: u64,
    /// Monitoring samples produced (full report ticks).
    pub monitor_samples: u64,
    /// Scale-outs scheduled with a non-zero cold start.
    pub cold_starts: u64,
}

/// The result of a scheduled scale action, recorded when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleOutcome {
    /// A scale-out produced this instance.
    Added(InstanceId),
    /// A scale-in removed the instance (`true`) or was rejected because
    /// it targeted the last instance of its service (`false`).
    Removed(bool),
    /// A scale-out failed.
    Failed(ClusterError),
}

/// Event-driven simulation loop over a [`Cluster`].
#[derive(Debug)]
pub struct EventSim {
    cluster: Cluster,
    workloads: Vec<(AppId, Box<dyn LoadProfile>)>,
    /// Current offered load per app, in workload registration order —
    /// exactly the slice a dense driver would pass to `step` each second.
    loads: Vec<(AppId, f64)>,
    /// Every pending event, smallest `(time, seq)` first.
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    monitor_every: u64,
    report: TickReport,
    stats: EventStats,
    /// `(time, outcome)` log of fired scale actions.
    scale_log: Vec<(u64, ScaleOutcome)>,
    /// Scheduled-but-not-yet-ready scale-outs: `(event seq, app)`. An
    /// entry is removed when its `ScaleOut` event fires, so the count
    /// per app is the capacity still cold-starting.
    pending: Vec<(u64, AppId)>,
}

impl EventSim {
    /// Wraps a cluster. Applications must already exist; register their
    /// workloads with [`EventSim::add_workload`].
    pub fn new(cluster: Cluster) -> Self {
        EventSim {
            cluster,
            workloads: Vec::new(),
            loads: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            monitor_every: 1,
            report: TickReport::empty(),
            stats: EventStats::default(),
            scale_log: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Seconds between monitoring samples (default 1 — the paper's 1 Hz
    /// collection interval). Intermediate seconds run as state-only
    /// ticks.
    pub fn set_monitor_every(&mut self, seconds: u64) {
        self.monitor_every = seconds.max(1);
    }

    /// Worker threads for the parallel node phase.
    pub fn set_n_jobs(&mut self, n_jobs: usize) {
        self.cluster.set_n_jobs(n_jobs);
    }

    /// Drives `app` with `profile`. The profile's first change point is
    /// scheduled immediately (at the current simulation time).
    pub fn add_workload(&mut self, app: AppId, profile: Box<dyn LoadProfile>) {
        let idx = self.workloads.len();
        self.workloads.push((app, profile));
        self.loads.push((app, 0.0));
        let now = self.cluster.time();
        self.push_event(now, EventKind::LoadChange { workload: idx });
    }

    /// Schedules a scale-out of `(app, service)` onto `node` at absolute
    /// simulation time `at`.
    pub fn schedule_scale_out(&mut self, at: u64, app: AppId, service: &str, node: NodeId) {
        self.schedule_scale_out_cold(at, 0, app, service, node);
    }

    /// Schedules a scale-out whose capacity only materializes after a
    /// cold start: the decision is taken at `at`, the instance joins the
    /// cluster at `at + cold_start`. In between it is counted by
    /// [`EventSim::pending_count`], so an autoscaler driving the sim can
    /// avoid re-requesting capacity it already asked for.
    pub fn schedule_scale_out_cold(
        &mut self,
        at: u64,
        cold_start: u64,
        app: AppId,
        service: &str,
        node: NodeId,
    ) {
        if cold_start > 0 {
            self.stats.cold_starts += 1;
        }
        let seq = self.push_event(
            at + cold_start,
            EventKind::ScaleOut {
                app,
                service: service.to_string(),
                node,
            },
        );
        self.pending.push((seq, app));
    }

    /// Schedules a scale-in of `instance` at absolute time `at`. The
    /// last instance of a service is kept (the action is rejected when
    /// it fires — see [`ScaleOutcome::Removed`]).
    pub fn schedule_scale_in(&mut self, at: u64, instance: InstanceId) {
        self.push_event(
            at,
            EventKind::ScaleIn {
                instance,
                allow_zero: false,
            },
        );
    }

    /// Schedules a scale-in that may remove the last instance of its
    /// service (serverless-style scale-to-zero). Offered load that then
    /// finds no capacity is the driver's to account — the cluster
    /// reports an empty service as serving nothing.
    pub fn schedule_scale_in_to_zero(&mut self, at: u64, instance: InstanceId) {
        self.push_event(
            at,
            EventKind::ScaleIn {
                instance,
                allow_zero: true,
            },
        );
    }

    /// Scale-outs scheduled for `app` (with or without cold start) whose
    /// events have not fired yet — capacity requested but not ready.
    pub fn pending_count(&self, app: AppId) -> usize {
        self.pending.iter().filter(|(_, a)| *a == app).count()
    }

    fn push_event(&mut self, time: u64, kind: EventKind) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
        seq
    }

    /// Applies every event due at or before `now`, in `(time, seq)`
    /// order.
    fn apply_due(&mut self, now: u64) {
        while self.queue.peek().is_some_and(|Reverse(ev)| ev.time <= now) {
            let Reverse(ev) = self.queue.pop().expect("peeked event exists");
            self.stats.events += 1;
            match ev.kind {
                EventKind::LoadChange { workload } => {
                    self.stats.load_changes += 1;
                    let (app, profile) = &self.workloads[workload];
                    debug_assert_eq!(self.loads[workload].0, *app);
                    self.loads[workload].1 = profile.intensity(now);
                    if let Some(next) = profile.next_change(now) {
                        debug_assert!(next > now, "change points must advance");
                        self.push_event(next, EventKind::LoadChange { workload });
                    }
                }
                EventKind::ScaleOut { app, service, node } => {
                    self.stats.scale_actions += 1;
                    obs::counter_add("sim.event_scale", 1);
                    self.pending.retain(|(seq, _)| *seq != ev.seq);
                    let outcome = match self.cluster.scale_out(app, &service, node) {
                        Ok(id) => ScaleOutcome::Added(id),
                        Err(e) => ScaleOutcome::Failed(e),
                    };
                    self.scale_log.push((now, outcome));
                }
                EventKind::ScaleIn {
                    instance,
                    allow_zero,
                } => {
                    self.stats.scale_actions += 1;
                    obs::counter_add("sim.event_scale", 1);
                    let removed = if allow_zero {
                        self.cluster.scale_in_to_zero(instance)
                    } else {
                        self.cluster.scale_in(instance)
                    };
                    self.scale_log.push((now, ScaleOutcome::Removed(removed)));
                }
            }
        }
    }

    /// Advances to the next monitoring sample and returns its report.
    ///
    /// Every second in between runs as a state-only tick. The returned
    /// report stream is bit-identical to a dense per-second driver
    /// sampled at the same boundary.
    pub fn step(&mut self) -> &TickReport {
        loop {
            let t = self.cluster.time();
            self.apply_due(t);
            if t.is_multiple_of(self.monitor_every) {
                self.cluster.step_into(&self.loads, &mut self.report);
                self.stats.monitor_samples += 1;
                obs::counter_add("sim.event_monitor_samples", 1);
                return &self.report;
            }
            self.cluster.tick_state_only(&self.loads);
        }
    }

    /// Runs until simulation time reaches `until`, returning the number
    /// of monitoring samples produced.
    pub fn run_for(&mut self, until: u64) -> u64 {
        let mut samples = 0;
        while self.cluster.time() < until {
            self.step();
            samples += 1;
        }
        samples
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> u64 {
        self.cluster.time()
    }

    /// The current offered load per application (registration order).
    pub fn loads(&self) -> &[(AppId, f64)] {
        &self.loads
    }

    /// Event-loop counters.
    pub fn stats(&self) -> EventStats {
        self.stats
    }

    /// The wrapped cluster's work counters.
    pub fn cluster_stats(&self) -> SimStats {
        self.cluster.stats()
    }

    /// Outcomes of fired scale actions, in firing order.
    pub fn scale_log(&self) -> &[(u64, ScaleOutcome)] {
        &self.scale_log
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the wrapped cluster. Topology changes made
    /// directly take effect at the next tick.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Unwraps the cluster.
    pub fn into_cluster(self) -> Cluster {
        self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceRole;
    use crate::resources::{ContainerLimits, NodeSpec};
    use crate::service::ServiceProfile;
    use monitorless_workload::{ConstantProfile, SteppedProfile};

    fn build(seed: u64) -> (Cluster, AppId) {
        let mut cluster = Cluster::new(vec![NodeSpec::training_server()], seed);
        let app = cluster.add_app("app");
        cluster.add_service(
            app,
            ServiceRole {
                name: "web".into(),
                profile: ServiceProfile::test_cpu_bound("web", 10.0),
                fanout: 1.0,
                limits: ContainerLimits::cpu(2.0),
            },
            NodeId(0),
        );
        (cluster, app)
    }

    #[test]
    fn event_stream_matches_dense_driver_bitwise() {
        let (cluster, app) = build(42);
        let (mut dense, _) = build(42);
        let mut sim = EventSim::new(cluster);
        let profile = SteppedProfile::new(vec![50.0, 120.0, 80.0], 40);
        sim.add_workload(app, Box::new(profile.clone()));
        for t in 0..120u64 {
            use monitorless_workload::LoadProfile;
            let report = sim.step();
            let want = dense.step_dense_legacy(&[(app, profile.intensity(t))]);
            assert_eq!(report.time, want.time);
            for (f, d) in report.observations.iter().zip(&want.observations) {
                for (a, b) in f.host.iter().zip(&d.host) {
                    assert_eq!(a.to_bits(), b.to_bits(), "t={t}");
                }
            }
        }
        assert_eq!(sim.stats().monitor_samples, 120);
        // Three steps → exactly three load-change events fired.
        assert_eq!(sim.stats().load_changes, 3);
    }

    #[test]
    fn settled_constant_load_skips_state_ticks() {
        let (cluster, app) = build(7);
        let mut sim = EventSim::new(cluster);
        sim.set_monitor_every(60);
        sim.add_workload(app, Box::new(ConstantProfile::new(50.0, 100_000)));
        sim.run_for(10_000);
        let cs = sim.cluster_stats();
        // Every unmonitored second is a state-only tick, but convergence
        // takes a few hundred of them; after that the settled container
        // is a cache hit and nothing is evaluated.
        assert_eq!(cs.ticks + cs.state_ticks, sim.time(), "{cs:?}");
        assert!(cs.container_evals < 1000, "{cs:?}");
        assert!(cs.cached_ticks > 8000, "{cs:?}");
        assert_eq!(cs.ticks, sim.stats().monitor_samples);
    }

    #[test]
    fn scheduled_scale_actions_fire_in_order() {
        let (cluster, app) = build(9);
        let mut sim = EventSim::new(cluster);
        sim.add_workload(app, Box::new(ConstantProfile::new(200.0, 10_000)));
        sim.schedule_scale_out(10, app, "web", NodeId(0));
        sim.schedule_scale_out(10, app, "missing", NodeId(0));
        for _ in 0..20 {
            sim.step();
        }
        assert_eq!(sim.cluster().container_count(), 2);
        let log = sim.scale_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 10);
        assert!(matches!(log[0].1, ScaleOutcome::Added(_)));
        assert!(matches!(log[1].1, ScaleOutcome::Failed(_)));
        let added = match log[0].1 {
            ScaleOutcome::Added(id) => id,
            _ => unreachable!(),
        };
        sim.schedule_scale_in(25, added);
        for _ in 0..10 {
            sim.step();
        }
        assert_eq!(sim.cluster().container_count(), 1);
        assert!(matches!(sim.scale_log()[2], (25, ScaleOutcome::Removed(true))));
    }

    #[test]
    fn cold_start_delays_capacity_and_tracks_pending() {
        let (cluster, app) = build(11);
        let mut sim = EventSim::new(cluster);
        sim.add_workload(app, Box::new(ConstantProfile::new(100.0, 10_000)));
        // Decision at t=5, 20 s cold start: capacity lands at t=25.
        sim.schedule_scale_out_cold(5, 20, app, "web", NodeId(0));
        while sim.time() < 20 {
            sim.step();
        }
        assert_eq!(sim.pending_count(app), 1, "still cold-starting");
        assert_eq!(sim.cluster().container_count(), 1);
        while sim.time() < 30 {
            sim.step();
        }
        assert_eq!(sim.pending_count(app), 0);
        assert_eq!(sim.cluster().container_count(), 2);
        assert_eq!(sim.stats().cold_starts, 1);
        assert!(matches!(sim.scale_log()[0], (25, ScaleOutcome::Added(_))));
    }

    #[test]
    fn scale_in_to_zero_empties_the_service() {
        let (cluster, app) = build(12);
        let first = cluster.app(app).instances()[0];
        let mut sim = EventSim::new(cluster);
        sim.add_workload(app, Box::new(ConstantProfile::new(50.0, 10_000)));
        sim.schedule_scale_in(10, first); // rejected: last instance
        sim.schedule_scale_in_to_zero(20, first); // allowed
        while sim.time() < 30 {
            sim.step();
        }
        assert_eq!(sim.cluster().container_count(), 0);
        let log = sim.scale_log();
        assert_eq!(log[0], (10, ScaleOutcome::Removed(false)));
        assert_eq!(log[1], (20, ScaleOutcome::Removed(true)));
        // The empty cluster still ticks and reports.
        let report = sim.step();
        assert!(report.containers.is_empty());
    }

    #[test]
    fn identical_schedules_pop_identically() {
        // Two sims with the same schedule produce the same event order
        // (the (time, seq) tie-break is deterministic).
        let mk = || {
            let (cluster, app) = build(3);
            let mut sim = EventSim::new(cluster);
            sim.add_workload(app, Box::new(SteppedProfile::new(vec![10.0, 20.0], 5)));
            sim.schedule_scale_out(5, app, "web", NodeId(0));
            sim.schedule_scale_out(5, app, "web", NodeId(0));
            for _ in 0..12 {
                sim.step();
            }
            (sim.stats(), sim.scale_log().to_vec(), sim.cluster().container_count())
        };
        let (s1, l1, c1) = mk();
        let (s2, l2, c2) = mk();
        assert_eq!(s1, s2);
        assert_eq!(l1, l2);
        assert_eq!(c1, c2);
    }
}

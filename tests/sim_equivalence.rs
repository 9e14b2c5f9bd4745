//! Property suite for the event-driven fleet simulator (ISSUE 8).
//!
//! The event path ([`EventSim`] over the incremental [`Cluster::step`])
//! must be **observation-bit-identical** at the 1 Hz monitoring
//! boundary to the retained dense loop
//! ([`Cluster::step_dense_legacy`]): every float in every
//! [`TickReport`] — host and container signal frames, KPIs, container
//! ticks — and in the host and container metric vectors a full
//! [`Collector`] expands the frames to matches bit for bit. This suite
//! pins that contract:
//!
//! 1. **Random paper-shaped topologies** — multi-node clusters with
//!    1–3 multi-service applications placed at random, driven through
//!    mid-episode scale-out and scale-in.
//! 2. **Every load-profile family** — sine, noisy sine, constant,
//!    stepped, ramp, Locust, shifted/summed Locust, daily-pattern and
//!    the trace-driven profiles (bundled sample + synthesizer, both
//!    interpolations).
//! 3. **Deterministic event order** — two identically seeded runs pop
//!    events in the same `(time, seq)` order and end in the same state.
//! 4. **Fixed-point accounting** — every second between sparse monitor
//!    samples runs as a state-only tick, and a settled stretch is
//!    served from the fixed-point cache instead of re-evaluated.

use monitorless_metrics::{Catalog, Collector, InstanceId, NodeId, Observation};
use monitorless_sim::{
    AppId, Cluster, ContainerLimits, EventSim, NodeSpec, ServiceProfile, ServiceRole, TickReport,
};
use monitorless_std::{Rng, StdRng};
use monitorless_workload::{
    ConstantProfile, DailyPatternProfile, LoadProfile, LocustProfile, NoisyProfile, RampProfile,
    ShiftedProfile, SineProfile, SteppedProfile, SumProfile, TraceInterp, TraceProfile,
};

/// Full collectors for the two sides of a comparison, each started
/// with its cluster, so every platform metric the frames expand to is
/// compared too.
struct Twins {
    fast: (Collector, Vec<Observation>),
    dense: (Collector, Vec<Observation>),
}

impl Twins {
    fn new() -> Self {
        let catalog = Catalog::standard();
        Twins {
            fast: (Collector::full(&catalog), Vec::new()),
            dense: (Collector::full(&catalog), Vec::new()),
        }
    }

    /// Asserts two tick reports, and the observations collected from
    /// them, are bit-identical in every float.
    fn assert_identical(&mut self, fast: &TickReport, dense: &TickReport, ctx: &str) {
        assert_eq!(fast.time, dense.time, "{ctx}");
        assert_eq!(fast.frames.len(), dense.frames.len(), "{ctx}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (f, d) in fast.frames.iter().zip(&dense.frames) {
            assert_eq!((f.node, f.seed), (d.node, d.seed), "{ctx}");
            assert_eq!(bits(&f.host.slots()), bits(&d.host.slots()), "{ctx} node {}", f.node);
            assert_eq!(f.containers.len(), d.containers.len(), "{ctx}");
            for ((fi, fs), (di, ds)) in f.containers.iter().zip(&d.containers) {
                assert_eq!(fi, di, "{ctx}");
                assert_eq!(bits(&fs.slots()), bits(&ds.slots()), "{ctx} inst {fi}");
            }
        }
        let (fc, fo) = &mut self.fast;
        fc.collect_into(fast.time, &fast.frames, fo);
        let (dc, dobs) = &mut self.dense;
        dc.collect_into(dense.time, &dense.frames, dobs);
        for (f, d) in fo.iter().zip(dobs.iter()) {
            assert_eq!(f.node, d.node, "{ctx}");
            assert_eq!(f.time, d.time, "{ctx}");
            assert_eq!(bits(&f.host), bits(&d.host), "{ctx} node {} host", f.node);
            assert_eq!(f.containers.len(), d.containers.len(), "{ctx}");
            for ((fi, fv), (di, dv)) in f.containers.iter().zip(&d.containers) {
                assert_eq!(fi, di, "{ctx}");
                assert_eq!(bits(fv), bits(dv), "{ctx} inst {fi} metrics");
            }
        }
        assert_eq!(fast.kpis.len(), dense.kpis.len(), "{ctx}");
        for ((fa, fk), (da, dk)) in fast.kpis.iter().zip(&dense.kpis) {
            assert_eq!(fa, da, "{ctx}");
            for (x, y) in [
                (fk.offered_rps, dk.offered_rps),
                (fk.throughput_rps, dk.throughput_rps),
                (fk.response_ms, dk.response_ms),
                (fk.dropped_rps, dk.dropped_rps),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx} app {fa:?}");
            }
        }
        assert_eq!(fast.containers.len(), dense.containers.len(), "{ctx}");
        for ((fi, ft), (di, dt)) in fast.containers.iter().zip(&dense.containers) {
            assert_eq!(fi, di, "{ctx}");
            assert_eq!(ft, dt, "{ctx} instance {fi}");
        }
    }
}

/// Builds a random paper-shaped topology: 3–8 nodes, 1–3 applications,
/// each with 1–3 services placed on random nodes. Deterministic given
/// `seed`, so twin clusters are bit-identical at birth.
fn random_cluster(seed: u64) -> (Cluster, Vec<AppId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_nodes = rng.gen_range(3..9_u32) as usize;
    let specs: Vec<NodeSpec> = (0..n_nodes)
        .map(|_| match rng.gen_range(0..4_u32) {
            0 => NodeSpec::m1(),
            1 => NodeSpec::m2(),
            2 => NodeSpec::m3(),
            _ => NodeSpec::training_server(),
        })
        .collect();
    let mut cluster = Cluster::new(specs, seed);
    let n_apps = rng.gen_range(1..4_u32) as usize;
    let mut apps = Vec::new();
    for a in 0..n_apps {
        let app = cluster.add_app(&format!("app{a}"));
        let n_services = rng.gen_range(1..4_u32) as usize;
        for s in 0..n_services {
            let node = NodeId(rng.gen_range(0..n_nodes as u32));
            let cpu_ms = 2.0 + rng.gen_range(0.0..12.0_f64);
            let limits = match rng.gen_range(0..3_u32) {
                0 => ContainerLimits::unlimited(),
                1 => ContainerLimits::cpu(1.0 + rng.gen_range(0.0..3.0_f64)),
                _ => ContainerLimits::cpu_and_memory(2.0, 2.0 + rng.gen_range(0.0..6.0_f64)),
            };
            cluster.add_service(
                app,
                ServiceRole {
                    name: format!("svc{s}"),
                    profile: ServiceProfile::test_cpu_bound(&format!("svc{s}"), cpu_ms),
                    fanout: 1.0 + rng.gen_range(0.0..1.5_f64),
                    limits,
                },
                node,
            );
        }
        apps.push(app);
    }
    (cluster, apps)
}

/// Per-app load profiles for a topology, deterministic given `seed`.
fn profiles_for(apps: &[AppId], seed: u64) -> Vec<Box<dyn LoadProfile>> {
    apps.iter()
        .enumerate()
        .map(|(i, _)| -> Box<dyn LoadProfile> {
            match (seed as usize + i) % 5 {
                0 => Box::new(SteppedProfile::new(vec![40.0, 160.0, 90.0, 160.0], 25)),
                1 => Box::new(SineProfile::new(5.0, 300.0, 60, 100_000)),
                2 => Box::new(ConstantProfile::new(120.0, 100_000)),
                3 => Box::new(RampProfile::new(10.0, 400.0, 80)),
                _ => Box::new(TraceProfile::synthesize(seed, 3600, 30, 20.0, 250.0)),
            }
        })
        .collect()
}

/// Runs the event path and the dense twin in lockstep for `ticks`
/// seconds (monitoring at 1 Hz), asserting bitwise-identical reports,
/// with a scale-out and a scale-in fired mid-episode.
fn run_equivalence(seed: u64, ticks: u64) {
    let (cluster, apps) = random_cluster(seed);
    let (mut dense, _) = random_cluster(seed);
    let mut sim = EventSim::new(cluster);
    for (app, profile) in apps.iter().zip(profiles_for(&apps, seed)) {
        sim.add_workload(*app, profile);
    }
    let dense_profiles = profiles_for(&apps, seed);

    // Mid-episode topology churn on app 0's first service. Instance ids
    // are allocated from a deterministic counter, so the id the
    // scale-out will produce is known upfront and the matching scale-in
    // can be scheduled before the episode starts.
    let scale_node = NodeId((seed % dense.node_ids().len() as u64) as u32);
    let out_at = ticks / 3;
    let in_at = 2 * ticks / 3;
    let added = InstanceId(dense.container_count() as u32);
    sim.schedule_scale_out(out_at, apps[0], "svc0", scale_node);
    sim.schedule_scale_in(in_at, added);

    let mut twins = Twins::new();
    for t in 0..ticks {
        if t == out_at {
            assert_eq!(dense.scale_out(apps[0], "svc0", scale_node).unwrap(), added);
        }
        if t == in_at {
            assert!(dense.scale_in(added));
        }
        let loads: Vec<(AppId, f64)> = apps
            .iter()
            .zip(&dense_profiles)
            .map(|(a, p)| (*a, p.intensity(t)))
            .collect();
        let report = sim.step();
        let want = dense.step_dense_legacy(&loads);
        twins.assert_identical(report, &want, &format!("seed={seed} t={t}"));
    }
}

#[test]
fn random_topologies_match_dense_bitwise() {
    for seed in 0..4u64 {
        run_equivalence(seed, 75);
    }
}

/// Mid-episode scale-in is mirrored exactly (not just post-episode).
#[test]
fn mid_episode_scale_in_matches() {
    let (cluster, apps) = random_cluster(9);
    let (mut dense, _) = random_cluster(9);
    let mut sim = EventSim::new(cluster);
    let app = apps[0];
    for (a, p) in apps.iter().zip(profiles_for(&apps, 9)) {
        sim.add_workload(*a, p);
    }
    let dense_profiles = profiles_for(&apps, 9);
    let node = NodeId(0);
    sim.schedule_scale_out(10, app, "svc0", node);
    let mut twins = Twins::new();
    for t in 0..40u64 {
        if t == 10 {
            let added = dense.scale_out(app, "svc0", node).unwrap();
            dense.scale_in(added); // immediate revert...
            let again = dense.scale_out(app, "svc0", node).unwrap();
            // ...and EventSim mirrors the same three actions at t=10.
            sim.schedule_scale_in(10, added);
            sim.schedule_scale_out(10, app, "svc0", node);
            assert!(again > added);
        }
        let loads: Vec<(AppId, f64)> = apps
            .iter()
            .zip(&dense_profiles)
            .map(|(a, p)| (*a, p.intensity(t)))
            .collect();
        let report = sim.step();
        let want = dense.step_dense_legacy(&loads);
        twins.assert_identical(report, &want, &format!("t={t}"));
    }
}

/// Every load-profile family drives the event path bit-identically to
/// the dense loop, including the trace-driven generator in both
/// interpolation modes.
#[test]
fn all_profile_families_match_dense_bitwise() {
    let mk_profiles = || -> Vec<(&'static str, Box<dyn LoadProfile>)> {
        vec![
            ("sin1000", Box::new(SineProfile::sin1000(100_000))),
            ("sinnoise1000", Box::new(NoisyProfile::<SineProfile>::sinnoise1000(100_000, 3))),
            ("constant", Box::new(ConstantProfile::new(80.0, 100_000))),
            ("stepped", Box::new(SteppedProfile::new(vec![20.0, 200.0, 60.0], 20))),
            ("ramp", Box::new(RampProfile::new(5.0, 500.0, 60))),
            ("locust", Box::new(LocustProfile::new(150.0, 30, 20))),
            (
                "shifted_locust",
                Box::new(ShiftedProfile::new(LocustProfile::new(120.0, 15, 10), 12)),
            ),
            ("sockshop_sum", Box::new(SumProfile::sockshop(0.3))),
            ("daily", Box::new(DailyPatternProfile::new(50.0, 40.0, 300, 100_000, 5))),
            ("trace_sample_step", Box::new(TraceProfile::sample_cluster())),
            ("trace_synth_linear", {
                let mut p = TraceProfile::synthesize(11, 7200, 60, 10.0, 400.0);
                p.set_interp(TraceInterp::Linear);
                Box::new(p)
            }),
        ]
    };
    let build = || {
        let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 17);
        let app = cluster.add_app("probe");
        cluster.add_service(
            app,
            ServiceRole {
                name: "svc".into(),
                profile: ServiceProfile::test_cpu_bound("svc", 8.0),
                fanout: 1.0,
                limits: ContainerLimits::cpu(2.0),
            },
            NodeId(0),
        );
        (cluster, app)
    };
    for ((name, profile), (_, dense_profile)) in mk_profiles().into_iter().zip(mk_profiles()) {
        let (cluster, app) = build();
        let (mut dense, _) = build();
        let mut sim = EventSim::new(cluster);
        sim.add_workload(app, profile);
        let mut twins = Twins::new();
        for t in 0..70u64 {
            let report = sim.step();
            let want = dense.step_dense_legacy(&[(app, dense_profile.intensity(t))]);
            twins.assert_identical(report, &want, &format!("profile={name} t={t}"));
        }
    }
}

/// Two identically seeded event runs pop events in the same order and
/// end bit-identical — the `(time, seq)` tie-break is deterministic.
#[test]
fn identically_seeded_runs_are_bit_identical() {
    let run = || {
        let (cluster, apps) = random_cluster(21);
        let mut sim = EventSim::new(cluster);
        for (a, p) in apps.iter().zip(profiles_for(&apps, 21)) {
            sim.add_workload(*a, p);
        }
        // Two same-second actions: their relative order is fixed by seq.
        sim.schedule_scale_out(8, apps[0], "svc0", NodeId(0));
        sim.schedule_scale_out(8, apps[0], "svc0", NodeId(1));
        let mut collector = Collector::full(sim.cluster().catalog());
        let mut host_bits = Vec::new();
        for _ in 0..30 {
            let report = sim.step();
            for o in collector.collect(report.time, &report.frames) {
                host_bits.extend(o.host.iter().map(|v| v.to_bits()));
            }
        }
        (host_bits, sim.stats(), sim.scale_log().to_vec(), sim.cluster().container_count())
    };
    let (b1, s1, l1, c1) = run();
    let (b2, s2, l2, c2) = run();
    assert_eq!(b1, b2);
    assert_eq!(s1, s2);
    assert_eq!(l1, l2);
    assert_eq!(c1, c2);
}

/// With sparse monitoring, every unmonitored second is a state-only
/// tick, and settled stretches are fixed-point cache hits: the cluster's
/// work counters show a cache-hit ratio, not one evaluation per
/// container-second.
#[test]
fn settled_stretches_are_skipped_not_simulated() {
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 3);
    let app = cluster.add_app("quiet");
    cluster.add_service(
        app,
        ServiceRole {
            name: "svc".into(),
            profile: ServiceProfile::test_cpu_bound("svc", 10.0),
            fanout: 1.0,
            limits: ContainerLimits::cpu(1.0),
        },
        NodeId(0),
    );
    let mut sim = EventSim::new(cluster);
    sim.set_monitor_every(300);
    // A stepped profile with one change at t=3600: two long quiet eras.
    sim.add_workload(app, Box::new(SteppedProfile::new(vec![40.0, 110.0], 3600)));
    // Samples land at t = 0, 300, …, 7200 inclusive.
    let samples = sim.run_for(7200);
    assert_eq!(samples, 25);
    let cs = sim.cluster_stats();
    assert_eq!(cs.ticks, 25);
    // Every simulated second is accounted for exactly once.
    assert_eq!(cs.state_ticks + cs.ticks, 7201, "{cs:?}");
    assert_eq!(sim.time(), 7201);
    // Both eras converge in a few hundred seconds; the rest is served
    // from the cache.
    assert!(cs.cached_ticks > 5000, "{cs:?}");
    assert_eq!(cs.container_evals + cs.cached_ticks, 7201, "{cs:?}");
}

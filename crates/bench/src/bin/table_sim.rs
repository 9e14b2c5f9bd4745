//! Fleet-simulation perf snapshot: the event-driven incremental path
//! (`EventSim` over `Cluster::step`) vs the retained dense per-second
//! loop (`Cluster::step_dense_legacy`).
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_sim --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_sim.json`
//! (override with `--out <path>`). The default quick scale sweeps
//! fleets of 100 and 1k nodes (10 containers per node); `--full` adds
//! the 10k-node / 100k-container fleet.
//!
//! Fleets are paper-shaped: groups of 20 nodes, each hosting two
//! 10-service applications with 10 instances per service spread
//! round-robin over the group. Half the applications are
//! driven by synthesized cluster traces (sparse change points), half by
//! stepped profiles, both with long constant stretches so the
//! fixed-point container cache has something to cache — and abrupt
//! steps so it keeps getting invalidated.
//!
//! Measurements interleave the two paths tick by tick (best-of-3
//! reps) against twin clusters built from the same seed, so a noise
//! burst on a shared core hits both sides alike. On **every** measured
//! tick the event path's full `TickReport` — all 952 + 88·c metrics
//! per node, KPIs and container ticks — is asserted bit-identical to
//! the dense loop's, and a counting global allocator asserts the
//! steady-state event tick (`n_jobs` 1) performs **zero** heap
//! allocations (skipped while telemetry streams `jsonl` events, which
//! allocate by design). A 4-worker column is reported for information; it
//! allocates on pool spawn and is not part of the 0-alloc contract.
//!
//! `--check <path>` re-measures at the current scale and exits
//! non-zero if the event path lost its edge: ms-per-tick more than 2x
//! the committed snapshot for the same fleet, a same-run speedup over
//! the dense loop below 3x at fleets >= 1k nodes, or a committed
//! 10k-node row below the 5x-speedup / faster-than-real-time floor.

use std::time::Instant;

use monitorless_bench::harness::{alloc_events, CountingAlloc, Harness};
use monitorless_bench::snapshot::sim::{BenchReport, SizeResult};
use monitorless_metrics::NodeId;
use monitorless_obs as obs;
use monitorless_sim::{
    AppId, Cluster, ContainerLimits, EventSim, NodeSpec, ServiceProfile, ServiceRole, TickReport,
};
use monitorless_workload::{LoadProfile, SteppedProfile, TraceProfile};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Nodes per independent placement group: two applications share each
/// group, no application spans groups.
const GROUP: usize = 20;
const APPS_PER_GROUP: usize = 2;
const SERVICES_PER_APP: usize = 10;
const INSTANCES_PER_SERVICE: usize = 10;

/// Builds the paper-shaped fleet: `n_nodes` nodes in groups of
/// [`GROUP`], each group hosting [`APPS_PER_GROUP`] applications whose
/// service instances spread round-robin over the group's nodes —
/// 10 containers per node.
fn build_fleet(n_nodes: usize, seed: u64) -> (Cluster, Vec<AppId>) {
    let specs: Vec<NodeSpec> = (0..n_nodes)
        .map(|i| match i % 3 {
            0 => NodeSpec::m2(),
            1 => NodeSpec::m3(),
            _ => NodeSpec::training_server(),
        })
        .collect();
    let mut cluster = Cluster::new(specs, seed);
    let mut apps = Vec::new();
    let groups = n_nodes.div_ceil(GROUP);
    for g in 0..groups {
        let base = g * GROUP;
        let width = GROUP.min(n_nodes - base);
        for a in 0..APPS_PER_GROUP {
            let app = cluster.add_app(&format!("g{g}a{a}"));
            let mut rr = a; // offset placement per app
            for s in 0..SERVICES_PER_APP {
                let first = NodeId((base + rr % width) as u32);
                rr += 1;
                let inst = cluster.add_service(
                    app,
                    ServiceRole {
                        name: format!("svc{s}"),
                        profile: ServiceProfile::test_cpu_bound(&format!("svc{s}"), 4.0),
                        fanout: 1.0,
                        limits: ContainerLimits::cpu(2.0),
                    },
                    first,
                );
                let _ = inst;
                for _ in 1..INSTANCES_PER_SERVICE {
                    let node = NodeId((base + rr % width) as u32);
                    rr += 1;
                    cluster
                        .scale_out(app, &format!("svc{s}"), node)
                        .expect("known service");
                }
            }
            apps.push(app);
        }
    }
    (cluster, apps)
}

/// Per-app workloads: alternating synthesized cluster traces (sparse
/// change points, trace-driven arrivals) and stepped profiles. Both
/// hold each level long enough for the fixed-point cache to engage.
fn workloads(apps: &[AppId], seed: u64) -> Vec<Box<dyn LoadProfile>> {
    apps.iter()
        .enumerate()
        .map(|(i, _)| -> Box<dyn LoadProfile> {
            if i % 2 == 0 {
                Box::new(TraceProfile::synthesize(seed ^ i as u64, 200_000, 600, 50.0, 400.0))
            } else {
                Box::new(SteppedProfile::new(
                    vec![80.0, 260.0, 140.0, 320.0],
                    400 + (i as u64 % 7) * 60,
                ))
            }
        })
        .collect()
}

/// Asserts two tick reports are bit-identical in every float.
fn assert_reports_identical(fast: &TickReport, dense: &TickReport, n: usize, tick: usize) {
    assert_eq!(fast.time, dense.time, "fleet {n} tick {tick}");
    assert_eq!(fast.observations.len(), dense.observations.len());
    for (f, d) in fast.observations.iter().zip(&dense.observations) {
        assert_eq!(f.node, d.node);
        for (i, (a, b)) in f.host.iter().zip(&d.host).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "fleet {n} tick {tick} node {} host[{i}]: {a} vs {b}",
                f.node
            );
        }
        assert_eq!(f.containers.len(), d.containers.len());
        for ((fi, fv), (di, dv)) in f.containers.iter().zip(&d.containers) {
            assert_eq!(fi, di);
            for (i, (a, b)) in fv.iter().zip(dv).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "fleet {n} tick {tick} inst {fi} metric[{i}]: {a} vs {b}"
                );
            }
        }
    }
    assert_eq!(fast.kpis.len(), dense.kpis.len());
    for ((fa, fk), (da, dk)) in fast.kpis.iter().zip(&dense.kpis) {
        assert_eq!(fa, da);
        assert_eq!(fk.throughput_rps.to_bits(), dk.throughput_rps.to_bits());
        assert_eq!(fk.response_ms.to_bits(), dk.response_ms.to_bits());
    }
    assert_eq!(fast.containers.len(), dense.containers.len());
    for ((fi, ft), (di, dt)) in fast.containers.iter().zip(&dense.containers) {
        assert_eq!(fi, di);
        assert_eq!(ft, dt, "fleet {n} tick {tick} instance {fi}");
    }
}

fn measure_size(n_nodes: usize, seed: u64, par_jobs: usize) -> SizeResult {
    obs::progress(&format!("fleet of {n_nodes} nodes..."));
    let (event_cluster, apps) = build_fleet(n_nodes, seed);
    let (mut dense, _) = build_fleet(n_nodes, seed);
    let (par_cluster, _) = build_fleet(n_nodes, seed);
    let containers = event_cluster.container_count();
    let profiles = workloads(&apps, seed);

    let mut event = EventSim::new(event_cluster);
    for (app, p) in apps.iter().zip(workloads(&apps, seed)) {
        event.add_workload(*app, p);
    }
    let mut event_par = EventSim::new(par_cluster);
    event_par.set_n_jobs(par_jobs);
    for (app, p) in apps.iter().zip(workloads(&apps, seed)) {
        event_par.add_workload(*app, p);
    }

    let ticks = (20_000 / n_nodes).clamp(3, 60);
    let warmup = ticks.min(5);
    let mut t = 0u64;
    let loads_at = |t: u64| -> Vec<(AppId, f64)> {
        apps.iter()
            .zip(&profiles)
            .map(|(a, p)| (*a, p.intensity(t)))
            .collect()
    };
    for _ in 0..warmup {
        let loads = loads_at(t);
        let got = event.step();
        let want = dense.step_dense_legacy(&loads);
        assert_reports_identical(got, &want, n_nodes, t as usize);
        event_par.step();
        t += 1;
    }

    // Interleave the paths tick by tick, best-of-3 reps: a noise burst
    // hits both sides alike and cancels out of the ratio. Every
    // measured tick cross-checks full bit-identity.
    let reps = 3;
    let mut event_s = f64::INFINITY;
    let mut event_par_s = f64::INFINITY;
    let mut dense_s = f64::INFINITY;
    let mut event_allocs = 0u64;
    event.cluster_mut().reset_stats();
    let stats0 = event.cluster_stats();
    for _ in 0..reps {
        let mut te = 0.0;
        let mut tp = 0.0;
        let mut td = 0.0;
        for _ in 0..ticks {
            let loads = loads_at(t);
            let a0 = alloc_events();
            let t0 = Instant::now();
            let got = event.step();
            te += t0.elapsed().as_secs_f64();
            event_allocs += alloc_events() - a0;
            let t1 = Instant::now();
            let want = dense.step_dense_legacy(&loads);
            td += t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            event_par.step();
            tp += t2.elapsed().as_secs_f64();
            assert_reports_identical(got, &want, n_nodes, t as usize);
            t += 1;
        }
        event_s = event_s.min(te);
        event_par_s = event_par_s.min(tp);
        dense_s = dense_s.min(td);
    }
    let measured = reps * ticks;
    let allocs_per_tick = event_allocs as f64 / measured as f64;
    // `jsonl` telemetry streams span events, which allocate by design.
    if obs::format() != obs::ExportFormat::Jsonl {
        assert!(
            event_allocs == 0,
            "event tick allocated ({allocs_per_tick} events/tick over {measured} ticks); the \
             steady-state simulation tick must be allocation-free at n_jobs 1"
        );
    }
    let stats = event.cluster_stats();
    let evals = stats.container_evals - stats0.container_evals;
    let cached = stats.cached_ticks - stats0.cached_ticks;
    let total_tick_slots = (reps * ticks * containers) as u64;
    assert_eq!(
        evals + cached,
        total_tick_slots,
        "every container-second is evaluated or cache-hit"
    );

    let r = SizeResult {
        nodes: n_nodes,
        containers,
        measured_ticks: measured,
        dense_ms_per_tick: dense_s / ticks as f64 * 1e3,
        event_ms_per_tick: event_s / ticks as f64 * 1e3,
        event_par_ms_per_tick: event_par_s / ticks as f64 * 1e3,
        dense_sim_per_wall: ticks as f64 / dense_s,
        event_sim_per_wall: ticks as f64 / event_s,
        speedup: dense_s / event_s,
        event_us_per_container_second: event_s * 1e6 / (ticks * containers) as f64,
        evals_per_tick: evals as f64 / measured as f64,
        cached_per_tick: cached as f64 / measured as f64,
        event_allocs_per_tick: allocs_per_tick,
    };
    obs::progress(&format!(
        "  dense {:.2} ms/tick ({:.1}x real time), event {:.2} ms/tick ({:.1}x real time, \
         {:.2}x dense, {:.0}% cached, 0 allocs)",
        r.dense_ms_per_tick,
        r.dense_sim_per_wall,
        r.event_ms_per_tick,
        r.event_sim_per_wall,
        r.speedup,
        100.0 * r.cached_per_tick / (r.evals_per_tick + r.cached_per_tick).max(1.0)
    ));
    r
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    for current in &report.sizes {
        if let Some(baseline) = committed.sizes.iter().find(|s| s.nodes == current.nodes) {
            if current.event_ms_per_tick > 2.0 * baseline.event_ms_per_tick {
                return Err(format!(
                    "event tick at {} nodes took {:.2} ms, more than 2x the committed {:.2} ms",
                    current.nodes, current.event_ms_per_tick, baseline.event_ms_per_tick
                ));
            }
        }
        if current.nodes >= 1_000 && current.speedup < 3.0 {
            return Err(format!(
                "event path is only {:.2}x faster than the dense loop at {} nodes (need >= 3x)",
                current.speedup, current.nodes
            ));
        }
    }
    // The committed snapshot must carry the 10k-node headline row and
    // it must clear the paper-scale floor: >= 5x over dense and
    // faster than real time.
    let headline = committed
        .sizes
        .iter()
        .find(|s| s.nodes == 10_000)
        .ok_or("committed snapshot is missing the 10k-node row (regenerate with --full)")?;
    if headline.speedup < 5.0 {
        return Err(format!("committed 10k-node speedup is {:.2}x (< 5x floor)", headline.speedup));
    }
    if headline.event_sim_per_wall <= 1.0 {
        return Err(format!(
            "committed 10k-node event path is not faster than real time \
             ({:.2} sim-seconds per wall-second)",
            headline.event_sim_per_wall
        ));
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table_sim");
    let scale = harness.scale;
    let sizes: &[usize] = if scale.full {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000]
    };
    let par_jobs = 4;
    let report = BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        monitor_hz: 1.0,
        par_jobs,
        sizes: sizes
            .iter()
            .map(|&n| measure_size(n, scale.seed, par_jobs))
            .collect(),
    };
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_sim.json"))
            .expect("committed snapshot parses")
    }

    /// The committed sweep with only its 100- and 1k-node rows, the
    /// sizes a quick run measures.
    fn quick(base: &BenchReport) -> BenchReport {
        let mut fresh = base.clone();
        fresh.sizes.retain(|s| s.nodes < 10_000);
        fresh
    }

    #[test]
    fn wall_time_may_reach_twice_the_committed_value() {
        let base = committed();
        let mut fresh = quick(&base);
        fresh.sizes[0].event_ms_per_tick = 2.0 * base.sizes[0].event_ms_per_tick;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[0].event_ms_per_tick = fresh.sizes[0].event_ms_per_tick.next_up();
        assert!(check(&fresh, &base).unwrap_err().contains("more than 2x"));
    }

    #[test]
    fn speedup_floor_is_three_from_a_thousand_nodes() {
        let base = committed();
        let mut fresh = quick(&base);
        assert_eq!(fresh.sizes[1].nodes, 1_000);
        fresh.sizes[1].speedup = 3.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.sizes[1].speedup = 3f64.next_down();
        assert!(check(&fresh, &base).unwrap_err().contains("need >= 3x"));
        // The 100-node fleet has no floor.
        fresh.sizes[1].speedup = 3.0;
        fresh.sizes[0].speedup = 0.5;
        assert_eq!(check(&fresh, &base), Ok(()));
    }

    #[test]
    fn committed_headline_row_must_clear_five_x() {
        let mut base = committed();
        let fresh = quick(&base);
        let headline = base.sizes.iter_mut().find(|s| s.nodes == 10_000).unwrap();
        headline.speedup = 5.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        let headline = base.sizes.iter_mut().find(|s| s.nodes == 10_000).unwrap();
        headline.speedup = 5f64.next_down();
        assert!(check(&fresh, &base).unwrap_err().contains("< 5x floor"));
    }

    #[test]
    fn committed_headline_row_must_beat_real_time() {
        let mut base = committed();
        let fresh = quick(&base);
        let headline = base.sizes.iter_mut().find(|s| s.nodes == 10_000).unwrap();
        headline.event_sim_per_wall = 1f64.next_up();
        assert_eq!(check(&fresh, &base), Ok(()));
        let headline = base.sizes.iter_mut().find(|s| s.nodes == 10_000).unwrap();
        headline.event_sim_per_wall = 1.0;
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("not faster than real time"));
    }

    #[test]
    fn committed_snapshot_must_carry_the_headline_row() {
        let base = committed();
        let fresh = quick(&base);
        assert!(check(&fresh, &fresh)
            .unwrap_err()
            .contains("missing the 10k-node row"));
    }
}

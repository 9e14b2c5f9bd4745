//! A scale action costs O(1) heap allocations in `EventSim::step`, not
//! O(nodes).
//!
//! The fleet has the shape of loopbench's `fleet_1k`: 100 nodes, each
//! hosting one single-service application of 10 instances, half on a
//! moving load and half on a stepped one. After a warm-up, each round
//! runs a quiet tick, a tick firing one scale-out and a tick firing one
//! scale-in of the instance just added, and counts the allocation
//! events of each `step` call alone. Quiet and scale-in ticks must
//! allocate nothing; a scale-out tick may allocate what one new
//! container needs (its profile, its slot and its observation row), a
//! constant, however many nodes the fleet has.
//!
//! Built with `harness = false`, so no test-runner thread allocates
//! while the counter is read.

use monitorless_bench::harness::{alloc_events, CountingAlloc};
use monitorless_metrics::NodeId;
use monitorless_sim::{
    AppId, Cluster, ContainerLimits, EventSim, NodeSpec, ScaleOutcome, ServiceProfile, ServiceRole,
};
use monitorless_workload::{LoadProfile, SteppedProfile, TraceInterp, TraceProfile};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: usize = 100;
const INSTANCES_PER_APP: usize = 10;
const WARMUP_TICKS: usize = 30;
const ROUNDS: usize = 20;
/// Ceiling on the mean allocation events of a scale-out tick.
const MAX_SCALE_OUT_ALLOCS: f64 = 16.0;

/// The fleet: application `i` runs on node `i` under its own load.
fn fleet() -> (EventSim, Vec<AppId>) {
    let specs = (0..NODES).map(|_| NodeSpec::training_server()).collect();
    let mut cluster = Cluster::new(specs, 1);
    let mut apps = Vec::with_capacity(NODES);
    let mut profiles: Vec<Box<dyn LoadProfile>> = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let app = cluster.add_app(&format!("app{i}"));
        let node = NodeId(i as u32);
        cluster.add_service(
            app,
            ServiceRole {
                name: "web".into(),
                profile: ServiceProfile::test_cpu_bound("web", 20.0),
                fanout: 1.0,
                limits: ContainerLimits::cpu(2.0),
            },
            node,
        );
        for _ in 1..INSTANCES_PER_APP {
            cluster.scale_out(app, "web", node).expect("node exists");
        }
        let base = 350.0 + 7.0 * i as f64;
        profiles.push(if i % 2 == 0 {
            Box::new(TraceProfile::new(vec![(0, base), (400, base + 600.0)], TraceInterp::Linear))
        } else {
            Box::new(SteppedProfile::new(vec![base, base + 300.0, base + 100.0], 20))
        });
        apps.push(app);
    }
    let mut sim = EventSim::new(cluster);
    for (&app, profile) in apps.iter().zip(profiles) {
        sim.add_workload(app, profile);
    }
    (sim, apps)
}

/// Allocation events of one `EventSim::step` call.
fn step_allocs(sim: &mut EventSim) -> u64 {
    let before = alloc_events();
    sim.step();
    alloc_events() - before
}

fn main() {
    let (mut sim, apps) = fleet();
    for _ in 0..WARMUP_TICKS {
        sim.step();
    }
    let (mut quiet, mut scale_out, mut scale_in) = (0u64, 0u64, 0u64);
    for round in 0..ROUNDS {
        quiet += step_allocs(&mut sim);

        let node = round % NODES;
        sim.schedule_scale_out(sim.time(), apps[node], "web", NodeId(node as u32));
        scale_out += step_allocs(&mut sim);
        let added = match sim.scale_log().last() {
            Some((_, ScaleOutcome::Added(id))) => *id,
            other => panic!("round {round}: scale-out did not fire: {other:?}"),
        };

        sim.schedule_scale_in(sim.time(), added);
        scale_in += step_allocs(&mut sim);
        assert_eq!(
            sim.scale_log().last().map(|(_, o)| o),
            Some(&ScaleOutcome::Removed(true)),
            "round {round}: scale-in did not fire"
        );
    }
    assert_eq!(sim.cluster().container_count(), NODES * INSTANCES_PER_APP);
    let rounds = ROUNDS as f64;
    let (q, o, i) = (quiet as f64 / rounds, scale_out as f64 / rounds, scale_in as f64 / rounds);
    println!(
        "scale_action_allocs: {NODES} nodes, {ROUNDS} rounds: allocations per tick \
         quiet {q:.1}, scale-out {o:.1}, scale-in {i:.1}"
    );
    assert_eq!(quiet, 0, "quiet ticks allocated");
    assert_eq!(scale_in, 0, "scale-in ticks allocated");
    assert!(
        o <= MAX_SCALE_OUT_ALLOCS,
        "scale-out ticks average {o:.1} allocations (limit {MAX_SCALE_OUT_ALLOCS})"
    );
}

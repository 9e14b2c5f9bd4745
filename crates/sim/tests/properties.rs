//! Property-based tests for the simulator's physical invariants.

use monitorless_metrics::{Collector, NodeId};
use monitorless_sim::apps::build_single;
use monitorless_sim::{Cluster, ContainerLimits, NodeSpec, ServiceProfile};
use proptest::prelude::*;

fn cluster_with(limit_cores: f64, cpu_ms: f64, seed: u64) -> (Cluster, monitorless_sim::AppId) {
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], seed);
    let (app, _) = build_single(
        &mut cluster,
        ServiceProfile::test_cpu_bound("svc", cpu_ms),
        ContainerLimits::cpu(limit_cores),
        NodeId(0),
    );
    (cluster, app)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn throughput_never_exceeds_offered_load(
        load in 0.0_f64..2000.0,
        cores in 0.5_f64..8.0,
        seed in 0u64..50,
    ) {
        let (mut cluster, app) = cluster_with(cores, 10.0, seed);
        for _ in 0..5 {
            let report = cluster.step(&[(app, load)]);
            let kpi = report.kpi(app).unwrap();
            prop_assert!(kpi.throughput_rps <= load + 1e-9);
            prop_assert!(kpi.throughput_rps >= 0.0);
            prop_assert!(kpi.dropped_rps >= 0.0);
        }
    }

    #[test]
    fn throughput_respects_cpu_capacity(
        load in 500.0_f64..5000.0,
        cores in 1.0_f64..4.0,
        seed in 0u64..50,
    ) {
        // 10 ms/request: capacity = cores * 100 rps.
        let (mut cluster, app) = cluster_with(cores, 10.0, seed);
        let mut last = 0.0;
        for _ in 0..8 {
            let report = cluster.step(&[(app, load)]);
            last = report.kpi(app).unwrap().throughput_rps;
        }
        prop_assert!(last <= cores * 100.0 * 1.01, "tp {last} vs cap {}", cores * 100.0);
    }

    #[test]
    fn response_time_is_monotone_in_utilization(
        cores in 1.0_f64..4.0,
        seed in 0u64..50,
    ) {
        let capacity = cores * 100.0;
        let (mut c1, a1) = cluster_with(cores, 10.0, seed);
        let (mut c2, a2) = cluster_with(cores, 10.0, seed);
        let low = c1.step(&[(a1, capacity * 0.2)]).kpi(a1).unwrap().response_ms;
        let high = c2.step(&[(a2, capacity * 0.9)]).kpi(a2).unwrap().response_ms;
        prop_assert!(high >= low, "{low} -> {high}");
    }

    #[test]
    fn observations_always_cover_all_instances(
        load in 0.0_f64..500.0,
        seed in 0u64..50,
    ) {
        let (mut cluster, app) = cluster_with(2.0, 10.0, seed);
        cluster.scale_out(app, "svc", NodeId(0)).unwrap();
        let mut collector = Collector::full(cluster.catalog());
        let report = cluster.step(&[(app, load)]);
        let observations = collector.collect(report.time, &report.frames);
        let instances = cluster.app(app).instances();
        prop_assert_eq!(instances.len(), 2);
        for &inst in instances {
            prop_assert!(report.frames.iter().any(|f| f.containers.iter().any(|(i, _)| *i == inst)));
            prop_assert!(observations.iter().any(|o| o.instance_vector(inst).is_some()));
        }
    }

    #[test]
    fn kpi_response_time_is_capped_at_timeout(
        load in 5000.0_f64..50_000.0,
        seed in 0u64..20,
    ) {
        let (mut cluster, app) = cluster_with(1.0, 10.0, seed);
        for _ in 0..6 {
            cluster.step(&[(app, load)]);
        }
        let report = cluster.step(&[(app, load)]);
        let per_container = &report.containers[0].1;
        prop_assert!(per_container.response_ms <= monitorless_sim::container::TIMEOUT_MS + 1e-9);
    }
}

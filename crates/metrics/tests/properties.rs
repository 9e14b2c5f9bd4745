//! Property-based tests for the metric model.

use std::sync::Arc;

use monitorless_metrics::catalog::{pseudo_noise, Catalog};
use monitorless_metrics::kind::MetricKind;
use monitorless_metrics::signals::{ContainerSignals, HostSignals};
use monitorless_metrics::{InstanceId, MonitoringAgent, NodeId};
use proptest::prelude::*;

/// Feeds one context-switch rate per second to a fresh agent and returns
/// `kernel.all.pswitch` as the agent reads it and as the catalog expands
/// it that second (the instantaneous value the counter accumulates).
fn pswitch_reads(rates: &[f64]) -> Vec<(f64, f64)> {
    let catalog = Arc::new(Catalog::standard());
    let pswitch = catalog.host_index("kernel.all.pswitch").unwrap();
    let mut agent = MonitoringAgent::new(NodeId(0), Arc::clone(&catalog), 11);
    rates
        .iter()
        .enumerate()
        .map(|(t, &rate)| {
            let hs = HostSignals {
                ctx_switch_rate: rate,
                ..HostSignals::default()
            };
            let read = agent.collect(t as u64, &hs, &[]).host[pswitch];
            (read, catalog.expand_host(&hs, t as u64, 11)[pswitch])
        })
        .collect()
}

proptest! {
    #[test]
    fn accumulate_then_rate_recovers_inputs(
        rates in proptest::collection::vec(0.0_f64..1e7, 2..30),
    ) {
        let reads = pswitch_reads(&rates);
        // First interval is dropped; the rest read back the second's
        // value up to the rounding of the running total.
        prop_assert_eq!(reads[0].0, 0.0);
        for &(read, value) in &reads[1..] {
            prop_assert!((read - value).abs() < 1e-6 * (1.0 + value), "{} vs {}", read, value);
        }
    }

    #[test]
    fn negative_rates_roundtrip_clamped_to_zero(
        rates in proptest::collection::vec(-1e6_f64..1e6, 2..30),
    ) {
        // The kernel never reports a negative rate, so a negative signal
        // adds nothing to the counter instead of running it backwards;
        // the round trip therefore recovers max(value, 0) after the
        // dropped first interval.
        let reads = pswitch_reads(&rates);
        for (&(read, value), rate) in reads.iter().zip(&rates).skip(1) {
            if *rate <= 0.0 {
                prop_assert_eq!(read, 0.0);
            }
            prop_assert!((read - value).abs() < 1e-6 * (1.0 + value), "{} vs {}", read, value);
        }
    }

    #[test]
    fn decreasing_raw_counters_never_yield_negative_rates(
        raws in proptest::collection::vec(0.0_f64..1e9, 2..30),
    ) {
        // A falling signal slows a counter but never runs it backwards:
        // fed in decreasing order, no counter column of the host or of a
        // container reads a negative or non-finite rate.
        let mut raws = raws;
        raws.sort_by(|a, b| b.total_cmp(a));
        let catalog = Arc::new(Catalog::standard());
        let kinds = catalog.concat_kinds();
        let mut agent = MonitoringAgent::new(NodeId(0), Arc::clone(&catalog), 5);
        for (t, &v) in raws.iter().enumerate() {
            let hs = HostSignals {
                ctx_switch_rate: v,
                net_in_bytes: v,
                disk_write_bytes: v,
                ..HostSignals::default()
            };
            let cs = ContainerSignals {
                periods_rate: v,
                net_out_bytes: v,
                ..ContainerSignals::default()
            };
            let obs = agent.collect(t as u64, &hs, &[(InstanceId(1), cs)]);
            let row = obs.instance_vector(InstanceId(1)).unwrap();
            for (&x, kind) in row.iter().zip(&kinds) {
                if *kind == MetricKind::Counter {
                    prop_assert!(x >= 0.0 && x.is_finite(), "t {}: {}", t, x);
                }
            }
        }
    }

    #[test]
    fn counters_are_monotone_under_any_input(
        values in proptest::collection::vec(-100.0_f64..1e6, 1..30),
    ) {
        // The counter's total is the running sum of its rates: it never
        // decreases, and it tracks the sum of the (clamped) values fed
        // after the dropped first interval.
        let reads = pswitch_reads(&values);
        let (mut total, mut fed) = (0.0, 0.0);
        for &(read, value) in &reads[1..] {
            prop_assert!(total + read >= total);
            total += read;
            fed += value;
            prop_assert!((total - fed).abs() < 1e-6 * (1.0 + fed), "{} vs {}", total, fed);
        }
    }

    #[test]
    fn pseudo_noise_is_bounded_and_deterministic(
        idx in 0u64..10_000,
        t in 0u64..10_000,
        seed in 0u64..1000,
    ) {
        let n = pseudo_noise(idx, t, seed);
        prop_assert!((-1.0..=1.0).contains(&n));
        prop_assert_eq!(n, pseudo_noise(idx, t, seed));
    }

    #[test]
    fn host_expansion_is_nonnegative_and_sized(
        cpu in 0.0_f64..1.0,
        net in 0.0_f64..1e9,
        t in 0u64..500,
    ) {
        let catalog = Catalog::standard();
        let hs = HostSignals {
            cpu_util: cpu,
            cpu_user: cpu * 0.7,
            net_in_bytes: net,
            ..HostSignals::default()
        };
        let v = catalog.expand_host(&hs, t, 1);
        prop_assert_eq!(v.len(), 952);
        prop_assert!(v.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn container_utilization_metric_tracks_signal(util in 0.0_f64..1.0) {
        let catalog = Catalog::standard();
        let cs = ContainerSignals {
            cpu_util: util,
            ..ContainerSignals::default()
        };
        let v = catalog.expand_container(&cs, 0, 0);
        let idx = catalog.container_index("containers.cpu.util").unwrap();
        prop_assert!((v[idx] - util * 100.0).abs() < 5.0 + util * 5.0);
    }

    #[test]
    fn bytes_preprocessing_is_monotone(a in 0.0_f64..1e12, b in 0.0_f64..1e12) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(MetricKind::Bytes.preprocess(lo) <= MetricKind::Bytes.preprocess(hi));
    }
}

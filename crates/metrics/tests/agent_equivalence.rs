//! Property test pinning the monitoring agent's one-pass collect to a
//! naive reference.
//!
//! The agent compiles each catalog scope into kind-split column lists
//! and keeps state only for counter columns. The reference below does
//! none of that: it evaluates every metric from its catalog definition
//! with [`pseudo_noise`], accumulates every counter into a running
//! `max(v, 0)` total, and differentiates the raw totals against the
//! previous sample (first interval 0, a decrease 0). A total never takes
//! a non-finite value; a sample that would make it one adds nothing.
//! For random signal frames full of NaN, infinities, negatives, huge
//! values and zeros, random times and seeds, and instances that come,
//! go, return and reorder between seconds, the agent must write the
//! reference's bits into a reused observation whose slots held other
//! instances.

use std::collections::HashMap;
use std::sync::Arc;

use monitorless_metrics::catalog::{pseudo_noise, Catalog, MetricDef};
use monitorless_metrics::signals::{ContainerSignals, HostSignals, SignalSource};
use monitorless_metrics::{InstanceId, MetricKind, MonitoringAgent, NodeId, Observation};
use proptest::prelude::*;

/// SplitMix64 — expands one proptest seed into a whole run.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A signal value, often one of the cases that break naive
    /// collection code.
    fn signal(&mut self) -> f64 {
        match self.below(12) {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            2 => f64::INFINITY,
            3 => 1e300,
            4 => 0.0,
            5 => -self.next_f64() * 1e4,
            6 => self.next_f64(),
            _ => self.next_f64() * 10f64.powi(self.below(10) as i32),
        }
    }

    fn host(&mut self) -> HostSignals {
        HostSignals {
            cpu_util: self.signal(),
            cpu_user: self.signal(),
            cpu_sys: self.signal(),
            cpu_iowait: self.signal(),
            ctx_switch_rate: self.signal(),
            intr_rate: self.signal(),
            syscall_rate: self.signal(),
            nprocs: self.signal(),
            runnable: self.signal(),
            load1: self.signal(),
            mem_util: self.signal(),
            mem_used_bytes: self.signal(),
            mem_cached_bytes: self.signal(),
            mem_dirty_bytes: self.signal(),
            pgin_rate: self.signal(),
            pgout_rate: self.signal(),
            pgfault_rate: self.signal(),
            swap_rate: self.signal(),
            net_in_bytes: self.signal(),
            net_out_bytes: self.signal(),
            net_in_pkts: self.signal(),
            net_out_pkts: self.signal(),
            net_err_rate: self.signal(),
            net_util: self.signal(),
            tcp_estab: self.signal(),
            tcp_inuse: self.signal(),
            tcp_retrans: self.signal(),
            disk_read_bytes: self.signal(),
            disk_write_bytes: self.signal(),
            disk_iops: self.signal(),
            disk_aveq: self.signal(),
            disk_util: self.signal(),
            inodes_free: self.signal(),
        }
    }

    fn container(&mut self) -> ContainerSignals {
        ContainerSignals {
            cpu_util: self.signal(),
            cpu_usage_cores: self.signal(),
            throttled_rate: self.signal(),
            periods_rate: self.signal(),
            mem_util: self.signal(),
            mem_usage_bytes: self.signal(),
            mem_cache_bytes: self.signal(),
            mem_mapped_bytes: self.signal(),
            mem_active_file: self.signal(),
            mem_inactive_file: self.signal(),
            mem_inactive_anon: self.signal(),
            kernel_stack: self.signal(),
            pgfault_rate: self.signal(),
            net_in_bytes: self.signal(),
            net_out_bytes: self.signal(),
            tcp_conns: self.signal(),
            disk_read_bytes: self.signal(),
            disk_write_bytes: self.signal(),
            disk_queue: self.signal(),
            nprocs: self.signal(),
            nthreads: self.signal(),
        }
    }
}

/// Counter state of one host or container in the reference: the running
/// total of every counter column and the previous raw sample.
struct RefScope {
    totals: Vec<f64>,
    previous: Option<Vec<f64>>,
}

impl RefScope {
    fn new(width: usize) -> Self {
        RefScope {
            totals: vec![0.0; width],
            previous: None,
        }
    }

    /// Accumulates one second of instantaneous values into raw samples,
    /// then differentiates them against the previous raw sample.
    fn step(&mut self, defs: &[MetricDef], values: Vec<f64>) -> Vec<f64> {
        let raw: Vec<f64> = defs
            .iter()
            .zip(values)
            .zip(&mut self.totals)
            .map(|((def, v), total)| {
                if def.kind != MetricKind::Counter {
                    return v;
                }
                let next = *total + v.max(0.0);
                if next.is_finite() {
                    *total = next;
                }
                *total
            })
            .collect();
        let out = defs
            .iter()
            .enumerate()
            .map(|(i, def)| match (def.kind, &self.previous) {
                (MetricKind::Counter, None) => 0.0,
                (MetricKind::Counter, Some(prev)) if raw[i] >= prev[i] => raw[i] - prev[i],
                (MetricKind::Counter, Some(_)) => 0.0,
                _ => raw[i],
            })
            .collect();
        self.previous = Some(raw);
        out
    }
}

/// One metric's instantaneous value, straight from its definition.
fn value(
    def: &MetricDef,
    host: &HostSignals,
    ctr: &ContainerSignals,
    idx: usize,
    t: u64,
    seed: u64,
) -> f64 {
    let base = match def.source {
        SignalSource::Host(s) => s.value(host),
        SignalSource::Container(s) => s.value(ctr),
        SignalSource::Constant(c) => return c,
    };
    let eps = pseudo_noise(idx as u64, t, seed);
    (def.offset + def.weight * base * (1.0 + def.noise * eps)).max(0.0)
}

/// The naive agent.
struct Reference {
    catalog: Arc<Catalog>,
    seed: u64,
    host: RefScope,
    containers: HashMap<InstanceId, RefScope>,
}

impl Reference {
    fn collect(
        &mut self,
        t: u64,
        host: &HostSignals,
        containers: &[(InstanceId, ContainerSignals)],
    ) -> (Vec<f64>, Vec<(InstanceId, Vec<f64>)>) {
        let c = &self.catalog;
        let none = ContainerSignals::default();
        let values = (c.host_metrics().iter().enumerate())
            .map(|(i, def)| value(def, host, &none, i, t, self.seed))
            .collect();
        let host_out = self.host.step(c.host_metrics(), values);
        self.containers
            .retain(|id, _| containers.iter().any(|(live, _)| live == id));
        let ctr_out = containers
            .iter()
            .map(|(id, signals)| {
                let seed = self.seed ^ u64::from(id.0).wrapping_mul(0xA24B_AED4_963E_E407);
                let values = (c.container_metrics().iter().enumerate())
                    .map(|(i, def)| {
                        let idx = c.host_len() + i;
                        value(def, &HostSignals::default(), signals, idx, t, seed)
                    })
                    .collect();
                let scope = (self.containers)
                    .entry(*id)
                    .or_insert_with(|| RefScope::new(c.container_len()));
                (*id, scope.step(c.container_metrics(), values))
            })
            .collect();
        (host_out, ctr_out)
    }
}

fn assert_bits(
    got: &[f64],
    want: &[f64],
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: width", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

/// Case count: `PROPTEST_CASES` when set (the nightly run raises it to
/// 2000), otherwise 32.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cases())]

    /// The one-pass collect writes the reference's bits, second after
    /// second, for a churning instance set.
    #[test]
    fn collect_into_matches_naive_reference(
        run in 0u64..1_000_000,
        seconds in 1usize..12,
    ) {
        let mut rng = Mix(run);
        let catalog = Arc::new(Catalog::standard());
        let seed = rng.next_u64();
        let mut agent = MonitoringAgent::new(NodeId(3), Arc::clone(&catalog), seed);
        let mut reference = Reference {
            catalog: Arc::clone(&catalog),
            seed,
            host: RefScope::new(catalog.host_len()),
            containers: HashMap::new(),
        };
        // A reused buffer whose slots hold other instances and widths.
        let mut out = Observation {
            node: NodeId(9),
            time: 99,
            host: vec![f64::NAN; rng.below(2000) as usize],
            containers: (0..rng.below(6))
                .map(|i| (InstanceId(100 + i as u32), vec![-1.0; rng.below(200) as usize]))
                .collect(),
        };
        let mut t = rng.next_u64();
        for _ in 0..seconds {
            // Most seconds follow the last; some jump anywhere.
            t = if rng.below(4) == 0 { rng.next_u64() } else { t.wrapping_add(1) };
            let host = rng.host();
            // A random subset of a small id pool, in random order: ids
            // come, go, come back with fresh state and change places.
            let mut ids: Vec<u32> = (0..6).filter(|_| rng.below(3) != 0).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let containers: Vec<_> = ids.iter().map(|&id| (InstanceId(id), rng.container())).collect();

            agent.collect_into(t, &host, &containers, &mut out);
            let (want_host, want_ctrs) = reference.collect(t, &host, &containers);
            prop_assert_eq!(out.node, NodeId(3));
            prop_assert_eq!(out.time, t);
            assert_bits(&out.host, &want_host, "host")?;
            prop_assert_eq!(out.containers.len(), want_ctrs.len());
            for ((id, got), (want_id, want)) in out.containers.iter().zip(&want_ctrs) {
                prop_assert_eq!(id, want_id);
                assert_bits(got, want, "container")?;
            }
        }
    }
}

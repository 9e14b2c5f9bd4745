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
//! go, return and change places between seconds (listed in ascending
//! id order, as a signal frame lists them), the agent must write the
//! reference's bits into a reused observation whose slots held other
//! instances.
//!
//! A second property collects random subscriptions — empty, every
//! column, random subsets — through a [`Collector`] over several
//! nodes, some without containers: every subscribed cell must carry the
//! reference's bits, no unsubscribed cell may be written, and counter
//! state may exist only for subscribed counters.

use std::collections::HashMap;
use std::sync::Arc;

use monitorless_metrics::catalog::{pseudo_noise, Catalog, MetricDef};
use monitorless_metrics::signals::{ContainerSignals, HostSignals, SignalSource};
use monitorless_metrics::{
    Collector, InstanceId, MetricKind, MonitoringAgent, NodeId, Observation, SignalFrame,
    Subscription,
};
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

    /// A random subset of a small id pool, ascending: ids come, go,
    /// come back with fresh state and change places. Some seconds list
    /// none.
    fn containers(&mut self) -> Vec<(InstanceId, ContainerSignals)> {
        if self.below(5) == 0 {
            return Vec::new();
        }
        let ids: Vec<u32> = (0..6).filter(|_| self.below(3) != 0).collect();
        ids.iter()
            .map(|&id| (InstanceId(id), self.container()))
            .collect()
    }

    /// Empty, every column, or a random share of each scope's columns.
    fn columns(&mut self, width: usize) -> Vec<usize> {
        match self.below(4) {
            0 => Vec::new(),
            1 => (0..width).collect(),
            _ => {
                let keep = self.next_f64();
                (0..width).filter(|_| self.next_f64() < keep).collect()
            }
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
            subscription: None,
        };
        let mut t = rng.next_u64();
        for _ in 0..seconds {
            // Most seconds follow the last; some jump anywhere.
            t = if rng.below(4) == 0 { rng.next_u64() } else { t.wrapping_add(1) };
            let host = rng.host();
            let containers = rng.containers();

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
    /// A subscribed collection writes the reference's bits in every
    /// subscribed cell and nothing else, and keeps counter totals for
    /// subscribed counters only.
    #[test]
    fn subscribed_collect_writes_only_its_columns(
        run in 0u64..1_000_000,
        seconds in 1usize..10,
    ) {
        let mut rng = Mix(run);
        let catalog = Arc::new(Catalog::standard());
        let (host_cols, ctr_cols) = (rng.columns(catalog.host_len()), rng.columns(catalog.container_len()));
        let sub = Arc::new(Subscription::new(&catalog, host_cols.iter().copied(), ctr_cols.iter().copied()));
        let counters = |defs: &[MetricDef], cols: &[usize]| {
            cols.iter().filter(|&&i| defs[i].kind == MetricKind::Counter).count()
        };
        let (host_counters, ctr_counters) =
            (counters(catalog.host_metrics(), &host_cols), counters(catalog.container_metrics(), &ctr_cols));
        let mut collector = Collector::new(Arc::clone(&sub));
        let nodes = 1 + rng.below(3) as u32;
        let seeds: Vec<u64> = (0..nodes).map(|_| rng.next_u64()).collect();
        let mut references: Vec<Reference> = seeds
            .iter()
            .map(|&seed| Reference {
                catalog: Arc::clone(&catalog),
                seed,
                host: RefScope::new(catalog.host_len()),
                containers: HashMap::new(),
            })
            .collect();
        // Buffers that already hold a sentinel everywhere: a collection
        // may only overwrite subscribed cells. Cells a buffer grows by
        // read NaN.
        let sentinel = -7.25f64;
        let mut out: Vec<Observation> = (0..nodes)
            .map(|n| Observation {
                node: NodeId(n),
                time: 0,
                host: vec![sentinel; catalog.host_len()],
                containers: (0..6)
                    .map(|i| (InstanceId(i), vec![sentinel; catalog.container_len()]))
                    .collect(),
                subscription: None,
            })
            .collect();
        let untouched = |v: f64| v.to_bits() == sentinel.to_bits() || v.to_bits() == f64::NAN.to_bits();
        let mut t = rng.next_u64();
        for _ in 0..seconds {
            t = t.wrapping_add(1 + rng.below(2));
            let frames: Vec<SignalFrame> = (0..nodes)
                .map(|n| SignalFrame {
                    node: NodeId(n),
                    seed: seeds[n as usize],
                    host: rng.host(),
                    containers: rng.containers(),
                })
                .collect();
            collector.collect_into(t, &frames, &mut out);
            prop_assert_eq!(out.len(), frames.len());
            for ((o, frame), reference) in out.iter().zip(&frames).zip(&mut references) {
                let (want_host, want_ctrs) = reference.collect(t, &frame.host, &frame.containers);
                prop_assert_eq!((o.node, o.time), (frame.node, t));
                for (i, want) in want_host.iter().enumerate() {
                    match (sub.has_host(i), o.host_value(i)) {
                        (true, Some(got)) => prop_assert_eq!(got.to_bits(), want.to_bits(), "host[{}]", i),
                        (false, None) => prop_assert_eq!(o.host[i].to_bits(), sentinel.to_bits(), "host[{}] written", i),
                        (has, got) => prop_assert!(false, "host[{}]: subscribed {} but read {:?}", i, has, got),
                    }
                }
                prop_assert_eq!(o.containers.len(), want_ctrs.len());
                for (k, ((id, got), (want_id, want))) in o.containers.iter().zip(&want_ctrs).enumerate() {
                    prop_assert_eq!(id, want_id);
                    prop_assert_eq!(got.len(), want.len());
                    for (i, w) in want.iter().enumerate() {
                        match (sub.has_container(i), o.container_value(k, i)) {
                            (true, Some(g)) => prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]", id, i),
                            (false, None) => prop_assert!(untouched(got[i]), "{}[{}] written: {}", id, i, got[i]),
                            (has, g) => prop_assert!(false, "{}[{}]: subscribed {} but read {:?}", id, i, has, g),
                        }
                    }
                }
                let agent = collector.agent(frame.node).expect("the collector saw the node");
                prop_assert_eq!(
                    agent.counter_state(),
                    host_counters + frame.containers.len() * ctr_counters,
                    "counter state of {}", frame.node
                );
            }
        }
        let cells = |cols: &[usize], defs: &[MetricDef]| {
            cols.iter().filter(|&&i| !matches!(defs[i].source, SignalSource::Constant(_))).count()
        };
        let per_ctr = cells(&ctr_cols, catalog.container_metrics());
        prop_assert_eq!(sub.cells(2), cells(&host_cols, catalog.host_metrics()) + 2 * per_ctr);
    }
}

//! The standard 1040-metric catalog (952 host + 88 container).
//!
//! Metric names follow the PCP namespace (`kernel.all.pswitch`,
//! `network.tcp.currestab`, `disk.all.aveq`, `cgroup.cpusched.throttled`,
//! …). Every metric is defined as an affine function of one underlying
//! [`signal`](crate::signals) plus deterministic measurement noise:
//! `value = offset + weight * signal * (1 + noise * ε(metric, t))` — this
//! mirrors how most real PCP metrics are per-device or per-protocol
//! refinements of a handful of physical quantities.
//!
//! [`Catalog::standard`] compiles each scope once into a column plan:
//! lists of constant, gauge and counter columns, each signal column
//! carrying its signal slot, its coefficients and its precomputed noise
//! key. The agent and [`Catalog::expand_host`]/[`Catalog::expand_container`]
//! all evaluate through it, so one formula computes every metric.

use crate::kind::{MetricKind, Scope};
use crate::signals::{ContainerSignal, ContainerSignals, HostSignal, HostSignals, SignalSource};

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// PCP-style dotted name.
    pub name: String,
    /// Preprocessing class.
    pub kind: MetricKind,
    /// Host- or container-scoped.
    pub scope: Scope,
    /// Underlying signal.
    pub source: SignalSource,
    /// Multiplier applied to the signal.
    pub weight: f64,
    /// Constant offset added after scaling.
    pub offset: f64,
    /// Relative measurement-noise amplitude.
    pub noise: f64,
}

/// The noise key's per-metric term for catalog index `idx`.
fn column_key(idx: u64) -> u64 {
    idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The noise key's per-second term: `seed + t · 0xBF58_476D_1CE4_E5B9`,
/// computed once per collect and shared by every column of a scope.
pub(crate) fn time_key(seed: u64, t: u64) -> u64 {
    seed.wrapping_add(t.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// SplitMix64's finalizer, mapped onto `[-1, 1]`.
fn unit_noise(mut z: u64) -> f64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Deterministic pseudo-noise in `[-1, 1]` from (metric, time, seed).
pub fn pseudo_noise(idx: u64, t: u64, seed: u64) -> f64 {
    unit_noise(time_key(seed, t).wrapping_add(column_key(idx)))
}

/// One signal-driven column of a compiled scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Column {
    /// Position in the scope's output vector.
    pub(crate) index: u32,
    /// Index into the scope's signal slots.
    slot: u32,
    weight: f64,
    offset: f64,
    noise: f64,
    /// The column's noise-key term, `idx · 0x9E37_79B9_7F4A_7C15`.
    key: u64,
}

impl Column {
    /// The column's value for one second: `offset + weight · signal ·
    /// (1 + noise · ε)`, clamped at 0, where `time_key` comes from
    /// [`time_key`].
    #[inline]
    pub(crate) fn value(&self, slots: &[f64], time_key: u64) -> f64 {
        let eps = unit_noise(time_key.wrapping_add(self.key));
        let v = self.offset + self.weight * slots[self.slot as usize] * (1.0 + self.noise * eps);
        v.max(0.0)
    }
}

/// One catalog scope compiled once for collection: its columns split by
/// kind, so a collect runs each list in a flat loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ScopePlan {
    /// Output width: the scope's metric count.
    pub(crate) width: usize,
    /// `(index, value)` of every hardware-inventory constant.
    pub(crate) constants: Vec<(usize, f64)>,
    /// Every signal-driven column that is not a counter.
    pub(crate) gauges: Vec<Column>,
    /// Every counter column, in catalog order.
    pub(crate) counters: Vec<Column>,
}

impl ScopePlan {
    /// Compiles one scope's definitions; `first` is the catalog index of
    /// `defs[0]`, which keys the noise.
    fn compile(defs: &[MetricDef], first: usize) -> Self {
        let mut plan = ScopePlan {
            width: defs.len(),
            ..ScopePlan::default()
        };
        for (i, m) in defs.iter().enumerate() {
            let slot = match (m.scope, m.source) {
                (_, SignalSource::Constant(c)) => {
                    assert_ne!(m.kind, MetricKind::Counter, "{} is a constant counter", m.name);
                    plan.constants.push((i, c));
                    continue;
                }
                (Scope::Host, SignalSource::Host(s)) => s.slot(),
                (Scope::Container, SignalSource::Container(s)) => s.slot(),
                _ => panic!("{} reads a signal outside its scope", m.name),
            };
            let column = Column {
                index: i as u32,
                slot: slot as u32,
                weight: m.weight,
                offset: m.offset,
                noise: m.noise,
                key: column_key((first + i) as u64),
            };
            match m.kind {
                MetricKind::Counter => plan.counters.push(column),
                _ => plan.gauges.push(column),
            }
        }
        plan
    }

    /// Every metric's instantaneous value for one signal frame: counters
    /// read the second's increment, not a running total.
    fn expand(&self, slots: &[f64], t: u64, seed: u64) -> Vec<f64> {
        let key = time_key(seed, t);
        let mut out = vec![0.0; self.width];
        for &(i, c) in &self.constants {
            out[i] = c;
        }
        for col in self.gauges.iter().chain(&self.counters) {
            out[col.index as usize] = col.value(slots, key);
        }
        out
    }
}

/// The full metric catalog, with each scope compiled once into a column
/// plan that the agent and the expansions evaluate through.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    host: Vec<MetricDef>,
    container: Vec<MetricDef>,
    host_plan: ScopePlan,
    container_plan: ScopePlan,
}

/// Number of host-scoped metrics in the standard catalog (as in the paper).
pub const STANDARD_HOST_METRICS: usize = 952;
/// Number of container-scoped metrics in the standard catalog.
pub const STANDARD_CONTAINER_METRICS: usize = 88;

impl Catalog {
    /// Builds the standard catalog: exactly 952 host and 88 container
    /// metrics, matching the paper's PCP configuration.
    pub fn standard() -> Self {
        let mut b = Builder::default();
        b.build_host();
        b.build_container();
        let c = Catalog {
            host_plan: ScopePlan::compile(&b.host, 0),
            container_plan: ScopePlan::compile(&b.container, b.host.len()),
            host: b.host,
            container: b.container,
        };
        debug_assert_eq!(c.host.len(), STANDARD_HOST_METRICS);
        debug_assert_eq!(c.container.len(), STANDARD_CONTAINER_METRICS);
        c
    }

    /// Number of host metrics.
    pub fn host_len(&self) -> usize {
        self.host.len()
    }

    /// Number of container metrics.
    pub fn container_len(&self) -> usize {
        self.container.len()
    }

    /// Total number of metrics.
    pub fn len(&self) -> usize {
        self.host.len() + self.container.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host metric definitions.
    pub fn host_metrics(&self) -> &[MetricDef] {
        &self.host
    }

    /// Container metric definitions.
    pub fn container_metrics(&self) -> &[MetricDef] {
        &self.container
    }

    /// All names in concatenation order (host metrics then container
    /// metrics) — the layout of `M_{I,t}`.
    pub fn concat_names(&self) -> Vec<String> {
        self.host
            .iter()
            .map(|m| m.name.clone())
            .chain(self.container.iter().map(|m| format!("ctr.{}", m.name)))
            .collect()
    }

    /// Metric kinds in the same concatenation order as
    /// [`Catalog::concat_names`].
    pub fn concat_kinds(&self) -> Vec<MetricKind> {
        self.host
            .iter()
            .map(|m| m.kind)
            .chain(self.container.iter().map(|m| m.kind))
            .collect()
    }

    /// Index of a host metric by name.
    pub fn host_index(&self, name: &str) -> Option<usize> {
        self.host.iter().position(|m| m.name == name)
    }

    /// Index of a container metric by name (container-local index).
    pub fn container_index(&self, name: &str) -> Option<usize> {
        self.container.iter().position(|m| m.name == name)
    }

    /// Index of a container metric within the concatenated vector.
    pub fn concat_container_index(&self, name: &str) -> Option<usize> {
        self.container_index(name).map(|i| self.host.len() + i)
    }

    /// The compiled host scope.
    pub(crate) fn host_plan(&self) -> &ScopePlan {
        &self.host_plan
    }

    /// The compiled container scope.
    pub(crate) fn container_plan(&self) -> &ScopePlan {
        &self.container_plan
    }

    /// Evaluates all host metrics for one signal frame.
    pub fn expand_host(&self, signals: &HostSignals, t: u64, seed: u64) -> Vec<f64> {
        self.host_plan.expand(&signals.slots(), t, seed)
    }

    /// Evaluates all container metrics for one signal frame.
    pub fn expand_container(&self, signals: &ContainerSignals, t: u64, seed: u64) -> Vec<f64> {
        self.container_plan.expand(&signals.slots(), t, seed)
    }
}

#[derive(Default)]
struct Builder {
    host: Vec<MetricDef>,
    container: Vec<MetricDef>,
}

impl Builder {
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        scope: Scope,
        name: String,
        kind: MetricKind,
        source: SignalSource,
        weight: f64,
        offset: f64,
        noise: f64,
    ) {
        let def = MetricDef {
            name,
            kind,
            scope,
            source,
            weight,
            offset,
            noise,
        };
        match scope {
            Scope::Host => self.host.push(def),
            Scope::Container => self.container.push(def),
        }
    }

    fn host(
        &mut self,
        name: &str,
        kind: MetricKind,
        signal: HostSignal,
        weight: f64,
        offset: f64,
        noise: f64,
    ) {
        self.push(
            Scope::Host,
            name.to_string(),
            kind,
            SignalSource::Host(signal),
            weight,
            offset,
            noise,
        );
    }

    fn host_const(&mut self, name: &str, value: f64) {
        self.push(
            Scope::Host,
            name.to_string(),
            MetricKind::Constant,
            SignalSource::Constant(value),
            0.0,
            0.0,
            0.0,
        );
    }

    fn ctr(
        &mut self,
        name: &str,
        kind: MetricKind,
        signal: ContainerSignal,
        weight: f64,
        offset: f64,
        noise: f64,
    ) {
        self.push(
            Scope::Container,
            name.to_string(),
            kind,
            SignalSource::Container(signal),
            weight,
            offset,
            noise,
        );
    }

    fn build_host(&mut self) {
        use HostSignal as H;
        use MetricKind as K;

        // --- hinv.* hardware inventory (8) ---
        self.host_const("hinv.ncpu", 48.0);
        self.host_const("hinv.ndisk", 4.0);
        self.host_const("hinv.ninterface", 4.0);
        self.host_const("hinv.physmem", 128.0 * 1024.0);
        self.host_const("hinv.pagesize", 4096.0);
        self.host_const("hinv.nnode", 2.0);
        self.host_const("hinv.cpu.clock", 2500.0);
        self.host_const("hinv.ncpus_online", 48.0);

        // --- kernel.all.* (20) ---
        self.host("kernel.all.load.1", K::Gauge, H::Load1, 1.0, 0.0, 0.03);
        self.host("kernel.all.load.5", K::Gauge, H::Load1, 0.9, 0.0, 0.02);
        self.host("kernel.all.load.15", K::Gauge, H::Load1, 0.8, 0.0, 0.01);
        self.host("kernel.all.nprocs", K::Gauge, H::NProcs, 1.0, 0.0, 0.01);
        self.host("kernel.all.runnable", K::Gauge, H::Runnable, 1.0, 0.0, 0.05);
        self.host("kernel.all.blocked", K::Gauge, H::DiskAveq, 0.5, 0.0, 0.1);
        self.host("kernel.all.pswitch", K::Counter, H::CtxSwitchRate, 1.0, 0.0, 0.05);
        self.host("kernel.all.intr", K::Counter, H::IntrRate, 1.0, 0.0, 0.05);
        self.host("kernel.all.syscall", K::Counter, H::SyscallRate, 1.0, 0.0, 0.05);
        self.host("kernel.all.sysfork", K::Counter, H::SyscallRate, 0.002, 0.0, 0.2);
        self.host("kernel.all.sysexec", K::Counter, H::SyscallRate, 0.001, 0.0, 0.2);
        self.host("kernel.all.cpu.user", K::Utilization, H::CpuUser, 100.0, 0.0, 0.02);
        self.host("kernel.all.cpu.sys", K::Utilization, H::CpuSys, 100.0, 0.0, 0.02);
        self.host("kernel.all.cpu.idle", K::Utilization, H::CpuUtil, -100.0, 100.0, 0.02);
        self.host("kernel.all.cpu.wait.total", K::Utilization, H::CpuIowait, 100.0, 0.0, 0.05);
        self.host("kernel.all.cpu.irq.hard", K::Utilization, H::IntrRate, 0.0001, 0.0, 0.1);
        self.host("kernel.all.cpu.irq.soft", K::Utilization, H::IntrRate, 0.0002, 0.0, 0.1);
        self.host("kernel.all.cpu.steal", K::Utilization, H::CpuUtil, 0.0, 0.0, 0.0);
        self.host("kernel.all.cpu.nice", K::Utilization, H::CpuUser, 0.5, 0.0, 0.1);
        self.host_const("kernel.all.uptime", 86_400.0);

        // --- kernel.percpu.* : 48 CPUs x 10 metrics (480) ---
        for cpu in 0..48 {
            // Deterministic per-CPU imbalance around the host aggregate.
            let share = 1.0 + 0.3 * ((cpu as f64) * 0.7).sin();
            for (metric, signal, weight) in [
                ("user", H::CpuUser, 100.0 * share),
                ("sys", H::CpuSys, 100.0 * share),
                ("idle", H::CpuUtil, -100.0 * share),
                ("wait", H::CpuIowait, 100.0 * share),
                ("intr", H::IntrRate, share / 48.0),
                ("nice", H::CpuUser, 0.3 * share),
                ("irq.hard", H::IntrRate, 0.0001 * share),
                ("irq.soft", H::IntrRate, 0.0002 * share),
                ("steal", H::CpuUtil, 0.0),
                ("guest", H::CpuUtil, 0.0),
            ] {
                let offset = if metric == "idle" { 100.0 } else { 0.0 };
                let kind = if metric == "intr" {
                    K::Counter
                } else {
                    K::Utilization
                };
                self.host(
                    &format!("kernel.percpu.cpu.{metric}.cpu{cpu}"),
                    kind,
                    signal,
                    weight,
                    offset,
                    0.08,
                );
            }
        }

        // --- mem.* (11) ---
        self.host("mem.util.used", K::Utilization, H::MemUtil, 100.0, 0.0, 0.01);
        self.host_const("mem.physmem", 128.0 * 1024.0 * 1024.0);
        self.host("mem.freemem", K::Bytes, H::MemUsedBytes, -1.0, 137_438_953_472.0, 0.01);
        self.host("mem.used", K::Bytes, H::MemUsedBytes, 1.0, 0.0, 0.01);
        self.host("mem.cached", K::Bytes, H::MemCachedBytes, 1.0, 0.0, 0.01);
        self.host("mem.bufmem", K::Bytes, H::MemCachedBytes, 0.2, 0.0, 0.02);
        self.host("mem.dirty", K::Bytes, H::MemDirtyBytes, 1.0, 0.0, 0.1);
        self.host("mem.active", K::Bytes, H::MemUsedBytes, 0.6, 0.0, 0.02);
        self.host("mem.inactive", K::Bytes, H::MemUsedBytes, 0.4, 0.0, 0.02);
        self.host("mem.slab", K::Bytes, H::MemUsedBytes, 0.05, 0.0, 0.02);
        self.host("mem.shmem", K::Bytes, H::MemUsedBytes, 0.02, 0.0, 0.02);

        // --- swap.* (4) ---
        self.host("swap.pagesin", K::Counter, H::SwapRate, 0.5, 0.0, 0.2);
        self.host("swap.pagesout", K::Counter, H::SwapRate, 0.5, 0.0, 0.2);
        self.host_const("swap.length", 8.0 * 1024.0 * 1024.0 * 1024.0);
        self.host("swap.used", K::Bytes, H::SwapRate, 4096.0, 0.0, 0.1);

        // --- network.interface.* : 4 interfaces x 14 metrics (56) ---
        for (i, iface) in ["eth0", "eth1", "eth2", "eth3"].iter().enumerate() {
            // eth0 carries most traffic; others are progressively idle.
            let share = [0.7, 0.2, 0.07, 0.03][i];
            self.host(
                &format!("network.interface.in.bytes.{iface}"),
                K::Counter,
                H::NetInBytes,
                share,
                0.0,
                0.05,
            );
            self.host(
                &format!("network.interface.out.bytes.{iface}"),
                K::Counter,
                H::NetOutBytes,
                share,
                0.0,
                0.05,
            );
            self.host(
                &format!("network.interface.in.packets.{iface}"),
                K::Counter,
                H::NetInPkts,
                share,
                0.0,
                0.05,
            );
            self.host(
                &format!("network.interface.out.packets.{iface}"),
                K::Counter,
                H::NetOutPkts,
                share,
                0.0,
                0.05,
            );
            self.host(
                &format!("network.interface.in.errors.{iface}"),
                K::Counter,
                H::NetErrRate,
                share,
                0.0,
                0.3,
            );
            self.host(
                &format!("network.interface.out.errors.{iface}"),
                K::Counter,
                H::NetErrRate,
                share * 0.5,
                0.0,
                0.3,
            );
            self.host(
                &format!("network.interface.in.drops.{iface}"),
                K::Counter,
                H::NetErrRate,
                share * 0.3,
                0.0,
                0.3,
            );
            self.host(
                &format!("network.interface.out.drops.{iface}"),
                K::Counter,
                H::NetErrRate,
                share * 0.2,
                0.0,
                0.3,
            );
            self.host(
                &format!("network.interface.collisions.{iface}"),
                K::Counter,
                H::NetErrRate,
                0.01,
                0.0,
                0.5,
            );
            self.host_const(&format!("network.interface.mtu.{iface}"), 1500.0);
            self.host_const(&format!("network.interface.baudrate.{iface}"), 1.25e9);
            self.host(
                &format!("network.interface.in.mcasts.{iface}"),
                K::Counter,
                H::NetInPkts,
                0.001 * share,
                0.0,
                0.3,
            );
            self.host(
                &format!("network.interface.out.mcasts.{iface}"),
                K::Counter,
                H::NetOutPkts,
                0.001 * share,
                0.0,
                0.3,
            );
            self.host(
                &format!("network.interface.total.bytes.{iface}"),
                K::Counter,
                H::NetInBytes,
                1.8 * share,
                0.0,
                0.05,
            );
        }
        self.host("network.interface.util", K::Utilization, H::NetUtil, 100.0, 0.0, 0.03);

        // --- network.tcp.* (30) ---
        self.host("network.tcp.currestab", K::Gauge, H::TcpEstab, 1.0, 0.0, 0.02);
        self.host("network.tcp.activeopens", K::Counter, H::NetInPkts, 0.01, 0.0, 0.2);
        self.host("network.tcp.passiveopens", K::Counter, H::NetInPkts, 0.02, 0.0, 0.2);
        self.host("network.tcp.attemptfails", K::Counter, H::NetErrRate, 0.2, 0.0, 0.3);
        self.host("network.tcp.estabresets", K::Counter, H::NetErrRate, 0.1, 0.0, 0.3);
        self.host("network.tcp.insegs", K::Counter, H::NetInPkts, 0.95, 0.0, 0.05);
        self.host("network.tcp.outsegs", K::Counter, H::NetOutPkts, 0.95, 0.0, 0.05);
        self.host("network.tcp.retranssegs", K::Counter, H::TcpRetrans, 1.0, 0.0, 0.2);
        self.host("network.tcp.inerrs", K::Counter, H::NetErrRate, 0.5, 0.0, 0.3);
        self.host("network.tcp.outrsts", K::Counter, H::NetErrRate, 0.3, 0.0, 0.3);
        for (name, signal, weight) in [
            ("delayedacks", H::NetInPkts, 0.05),
            ("delayedacklost", H::NetErrRate, 0.05),
            ("listenoverflows", H::NetErrRate, 0.1),
            ("listendrops", H::NetErrRate, 0.1),
            ("prunecalled", H::NetErrRate, 0.02),
            ("rcvpruned", H::NetErrRate, 0.02),
            ("ofopruned", H::NetErrRate, 0.01),
            ("outofwindowicmps", H::NetErrRate, 0.01),
            ("lockdroppedicmps", H::NetErrRate, 0.01),
            ("tw", H::TcpEstab, 0.3),
            ("twrecycled", H::TcpEstab, 0.01),
            ("twkilled", H::TcpEstab, 0.005),
            ("pawspassive", H::NetErrRate, 0.01),
            ("pawsactive", H::NetErrRate, 0.01),
            ("pawsestab", H::NetErrRate, 0.01),
            ("sackrecovery", H::TcpRetrans, 0.2),
            ("sackreorder", H::TcpRetrans, 0.1),
            ("lossundo", H::TcpRetrans, 0.05),
            ("fastretrans", H::TcpRetrans, 0.5),
            ("timeouts", H::TcpRetrans, 0.3),
        ] {
            self.host(&format!("network.tcp.{name}"), K::Counter, signal, weight, 0.0, 0.2);
        }

        // --- network.tcpconn.* (6) ---
        self.host("network.tcpconn.established", K::Gauge, H::TcpEstab, 1.0, 0.0, 0.02);
        self.host("network.tcpconn.time_wait", K::Gauge, H::TcpEstab, 0.3, 0.0, 0.1);
        self.host("network.tcpconn.close_wait", K::Gauge, H::TcpEstab, 0.05, 0.0, 0.2);
        self.host("network.tcpconn.listen", K::Gauge, H::NProcs, 0.1, 0.0, 0.05);
        self.host("network.tcpconn.syn_sent", K::Gauge, H::TcpEstab, 0.02, 0.0, 0.3);
        self.host("network.tcpconn.fin_wait", K::Gauge, H::TcpEstab, 0.04, 0.0, 0.3);

        // --- network.sockstat.* (8) ---
        self.host("network.sockstat.tcp.inuse", K::Gauge, H::TcpInuse, 1.0, 0.0, 0.02);
        self.host("network.sockstat.tcp.orphan", K::Gauge, H::TcpInuse, 0.01, 0.0, 0.3);
        self.host("network.sockstat.tcp.tw", K::Gauge, H::TcpEstab, 0.3, 0.0, 0.1);
        self.host("network.sockstat.tcp.alloc", K::Gauge, H::TcpInuse, 1.1, 0.0, 0.05);
        self.host("network.sockstat.tcp.mem", K::Gauge, H::TcpInuse, 4.0, 0.0, 0.1);
        self.host("network.sockstat.udp.inuse", K::Gauge, H::NProcs, 0.05, 0.0, 0.1);
        self.host("network.sockstat.raw.inuse", K::Gauge, H::NProcs, 0.01, 0.0, 0.1);
        self.host("network.sockstat.frag.inuse", K::Gauge, H::NetErrRate, 0.1, 0.0, 0.3);

        // --- network.udp.* (6) ---
        self.host("network.udp.indatagrams", K::Counter, H::NetInPkts, 0.03, 0.0, 0.2);
        self.host("network.udp.outdatagrams", K::Counter, H::NetOutPkts, 0.03, 0.0, 0.2);
        self.host("network.udp.inerrors", K::Counter, H::NetErrRate, 0.05, 0.0, 0.3);
        self.host("network.udp.noports", K::Counter, H::NetErrRate, 0.02, 0.0, 0.3);
        self.host("network.udp.recvbuferrors", K::Counter, H::NetErrRate, 0.02, 0.0, 0.3);
        self.host("network.udp.sndbuferrors", K::Counter, H::NetErrRate, 0.01, 0.0, 0.3);

        // --- network.icmp.* (4) ---
        self.host("network.icmp.inmsgs", K::Counter, H::NetInPkts, 0.001, 0.0, 0.3);
        self.host("network.icmp.outmsgs", K::Counter, H::NetOutPkts, 0.001, 0.0, 0.3);
        self.host("network.icmp.inerrors", K::Counter, H::NetErrRate, 0.01, 0.0, 0.3);
        self.host("network.icmp.indestunreachs", K::Counter, H::NetErrRate, 0.01, 0.0, 0.3);

        // --- network.ip.* (12) ---
        for (name, signal, weight) in [
            ("inreceives", H::NetInPkts, 1.0),
            ("outrequests", H::NetOutPkts, 1.0),
            ("indelivers", H::NetInPkts, 0.99),
            ("forwdatagrams", H::NetInPkts, 0.001),
            ("indiscards", H::NetErrRate, 0.1),
            ("outdiscards", H::NetErrRate, 0.05),
            ("inhdrerrors", H::NetErrRate, 0.02),
            ("inaddrerrors", H::NetErrRate, 0.02),
            ("innoroutes", H::NetErrRate, 0.01),
            ("fragoks", H::NetOutPkts, 0.001),
            ("fragfails", H::NetErrRate, 0.005),
            ("reasmoks", H::NetInPkts, 0.001),
        ] {
            self.host(&format!("network.ip.{name}"), K::Counter, signal, weight, 0.0, 0.1);
        }

        // --- disk.dev.* : 4 disks x 12 metrics (48) ---
        for (i, dev) in ["sda", "sdb", "sdc", "sdd"].iter().enumerate() {
            let share = [0.55, 0.25, 0.15, 0.05][i];
            self.host(
                &format!("disk.dev.read.{dev}"),
                K::Counter,
                H::DiskIops,
                0.4 * share,
                0.0,
                0.1,
            );
            self.host(
                &format!("disk.dev.write.{dev}"),
                K::Counter,
                H::DiskIops,
                0.6 * share,
                0.0,
                0.1,
            );
            self.host(&format!("disk.dev.total.{dev}"), K::Counter, H::DiskIops, share, 0.0, 0.1);
            self.host(
                &format!("disk.dev.read_bytes.{dev}"),
                K::Counter,
                H::DiskReadBytes,
                share,
                0.0,
                0.1,
            );
            self.host(
                &format!("disk.dev.write_bytes.{dev}"),
                K::Counter,
                H::DiskWriteBytes,
                share,
                0.0,
                0.1,
            );
            self.host(
                &format!("disk.dev.total_bytes.{dev}"),
                K::Counter,
                H::DiskReadBytes,
                1.8 * share,
                0.0,
                0.1,
            );
            self.host(
                &format!("disk.dev.avactive.{dev}"),
                K::Gauge,
                H::DiskUtil,
                1000.0 * share,
                0.0,
                0.1,
            );
            self.host(&format!("disk.dev.aveq.{dev}"), K::Gauge, H::DiskAveq, share, 0.0, 0.1);
            self.host(
                &format!("disk.dev.read_merge.{dev}"),
                K::Counter,
                H::DiskIops,
                0.05 * share,
                0.0,
                0.2,
            );
            self.host(
                &format!("disk.dev.write_merge.{dev}"),
                K::Counter,
                H::DiskIops,
                0.1 * share,
                0.0,
                0.2,
            );
            self.host(
                &format!("disk.dev.read_rawactive.{dev}"),
                K::Gauge,
                H::DiskUtil,
                500.0 * share,
                0.0,
                0.2,
            );
            self.host(
                &format!("disk.dev.write_rawactive.{dev}"),
                K::Gauge,
                H::DiskUtil,
                700.0 * share,
                0.0,
                0.2,
            );
        }

        // --- disk.all.* (12) ---
        self.host("disk.all.read", K::Counter, H::DiskIops, 0.4, 0.0, 0.05);
        self.host("disk.all.write", K::Counter, H::DiskIops, 0.6, 0.0, 0.05);
        self.host("disk.all.total", K::Counter, H::DiskIops, 1.0, 0.0, 0.05);
        self.host("disk.all.read_bytes", K::Counter, H::DiskReadBytes, 1.0, 0.0, 0.05);
        self.host("disk.all.write_bytes", K::Counter, H::DiskWriteBytes, 1.0, 0.0, 0.05);
        self.host("disk.all.total_bytes", K::Counter, H::DiskReadBytes, 1.8, 0.0, 0.05);
        self.host("disk.all.avactive", K::Gauge, H::DiskUtil, 1000.0, 0.0, 0.05);
        self.host("disk.all.aveq", K::Gauge, H::DiskAveq, 1.0, 0.0, 0.05);
        self.host("disk.all.read_merge", K::Counter, H::DiskIops, 0.05, 0.0, 0.1);
        self.host("disk.all.write_merge", K::Counter, H::DiskIops, 0.1, 0.0, 0.1);
        self.host("disk.all.blkread", K::Counter, H::DiskReadBytes, 1.0 / 512.0, 0.0, 0.05);
        self.host("disk.all.blkwrite", K::Counter, H::DiskWriteBytes, 1.0 / 512.0, 0.0, 0.05);

        // --- vfs.* (8) ---
        self.host("vfs.files.count", K::Gauge, H::NProcs, 30.0, 0.0, 0.05);
        self.host("vfs.files.free", K::Gauge, H::NProcs, -30.0, 800_000.0, 0.02);
        self.host_const("vfs.files.max", 800_000.0);
        self.host("vfs.inodes.count", K::Gauge, H::NProcs, 50.0, 100_000.0, 0.02);
        self.host("vfs.inodes.free", K::Gauge, H::InodesFree, 1.0, 0.0, 0.01);
        self.host_const("vfs.inodes.max", 2_000_000.0);
        self.host("vfs.dentry.count", K::Gauge, H::NProcs, 100.0, 50_000.0, 0.05);
        self.host("vfs.dentry.free", K::Gauge, H::NProcs, -50.0, 500_000.0, 0.02);

        // --- filesys.* : 4 filesystems x 6 metrics (24) ---
        for (i, fs) in ["root", "var", "data", "docker"].iter().enumerate() {
            let share = [0.1, 0.2, 0.5, 0.2][i];
            self.host_const(&format!("filesys.capacity.{fs}"), 500.0 * 1024.0 * 1024.0);
            self.host(
                &format!("filesys.used.{fs}"),
                K::Bytes,
                H::MemCachedBytes,
                5.0 * share,
                1e9,
                0.02,
            );
            self.host(
                &format!("filesys.free.{fs}"),
                K::Bytes,
                H::MemCachedBytes,
                -5.0 * share,
                5e11,
                0.02,
            );
            self.host(
                &format!("filesys.avail.{fs}"),
                K::Bytes,
                H::MemCachedBytes,
                -5.0 * share,
                4.8e11,
                0.02,
            );
            self.host(
                &format!("filesys.usedfiles.{fs}"),
                K::Gauge,
                H::NProcs,
                200.0 * share,
                1000.0,
                0.05,
            );
            self.host(
                &format!("filesys.freefiles.{fs}"),
                K::Gauge,
                H::InodesFree,
                share,
                0.0,
                0.02,
            );
        }

        // --- kernel.percpu.interrupts.* : one line per CPU (48) ---
        for cpu in 0..48 {
            let share = 1.0 + 0.2 * ((cpu as f64) * 1.3).cos();
            self.host(
                &format!("kernel.percpu.interrupts.line{cpu}"),
                K::Counter,
                H::IntrRate,
                share / 48.0,
                0.0,
                0.15,
            );
        }

        // --- mem.numa.* : 2 nodes x 16 metrics (32) ---
        for node in 0..2 {
            let share = if node == 0 { 0.55 } else { 0.45 };
            for (name, signal, weight) in [
                ("util.used", H::MemUsedBytes, share),
                ("util.free", H::MemUsedBytes, -share),
                ("util.filePages", H::MemCachedBytes, share),
                ("util.active", H::MemUsedBytes, 0.6 * share),
                ("util.inactive", H::MemUsedBytes, 0.4 * share),
                ("util.dirty", H::MemDirtyBytes, share),
                ("util.mapped", H::MemUsedBytes, 0.1 * share),
                ("util.anonpages", H::MemUsedBytes, 0.5 * share),
                ("util.slab", H::MemUsedBytes, 0.05 * share),
                ("util.kernelStack", H::NProcs, 16_384.0 * share),
                ("alloc.hit", H::PgFaultRate, 100.0 * share),
                ("alloc.miss", H::PgFaultRate, 2.0 * share),
                ("alloc.foreign", H::PgFaultRate, 0.5 * share),
                ("alloc.interleave_hit", H::PgFaultRate, 0.1 * share),
                ("alloc.local_node", H::PgFaultRate, 95.0 * share),
                ("alloc.other_node", H::PgFaultRate, 5.0 * share),
            ] {
                let offset = if name == "util.free" {
                    7e10 * share
                } else {
                    0.0
                };
                let kind = if name.starts_with("alloc") {
                    K::Counter
                } else {
                    K::Bytes
                };
                self.host(
                    &format!("mem.numa.{name}.node{node}"),
                    kind,
                    signal,
                    weight,
                    offset,
                    0.05,
                );
            }
        }

        // --- network.softnet.* : per-CPU packet processing (48) ---
        for cpu in 0..48 {
            let share = 1.0 + 0.25 * ((cpu as f64) * 0.5).sin();
            self.host(
                &format!("network.softnet.processed.cpu{cpu}"),
                K::Counter,
                H::NetInPkts,
                share / 48.0,
                0.0,
                0.12,
            );
        }

        // --- mem.vmstat.* : fill the remainder with real vmstat fields ---
        // The names marked in Table 4 of the paper come first so they are
        // always present.
        let vmstat: &[(&str, HostSignal, f64, MetricKind)] = &[
            ("nr_inactive_anon", H::MemUsedBytes, 0.12 / 4096.0, K::Gauge),
            ("nr_active_anon", H::MemUsedBytes, 0.38 / 4096.0, K::Gauge),
            ("nr_inactive_file", H::MemCachedBytes, 0.45 / 4096.0, K::Gauge),
            ("nr_active_file", H::MemCachedBytes, 0.55 / 4096.0, K::Gauge),
            ("nr_kernel_stack", H::NProcs, 4.0, K::Gauge),
            ("pgpgin", H::PgInRate, 1.0, K::Counter),
            ("pgpgout", H::PgOutRate, 1.0, K::Counter),
            ("pswpin", H::SwapRate, 0.5, K::Counter),
            ("pswpout", H::SwapRate, 0.5, K::Counter),
            ("pgfault", H::PgFaultRate, 1.0, K::Counter),
            ("pgmajfault", H::PgInRate, 0.02, K::Counter),
            ("pgfree", H::PgFaultRate, 1.1, K::Counter),
            ("pgactivate", H::PgFaultRate, 0.2, K::Counter),
            ("pgdeactivate", H::PgOutRate, 0.3, K::Counter),
            ("pgrefill", H::PgOutRate, 0.2, K::Counter),
            ("pgscan_kswapd", H::PgOutRate, 0.8, K::Counter),
            ("pgscan_direct", H::PgOutRate, 0.2, K::Counter),
            ("pgsteal_kswapd", H::PgOutRate, 0.7, K::Counter),
            ("pgsteal_direct", H::PgOutRate, 0.15, K::Counter),
            ("nr_mapped", H::MemUsedBytes, 0.08 / 4096.0, K::Gauge),
            ("nr_dirty", H::MemDirtyBytes, 1.0 / 4096.0, K::Gauge),
            ("nr_writeback", H::MemDirtyBytes, 0.2 / 4096.0, K::Gauge),
            ("nr_shmem", H::MemUsedBytes, 0.02 / 4096.0, K::Gauge),
            ("nr_slab_reclaimable", H::MemUsedBytes, 0.03 / 4096.0, K::Gauge),
            ("nr_slab_unreclaimable", H::MemUsedBytes, 0.02 / 4096.0, K::Gauge),
            ("nr_page_table_pages", H::NProcs, 12.0, K::Gauge),
            ("nr_anon_pages", H::MemUsedBytes, 0.5 / 4096.0, K::Gauge),
            ("nr_file_pages", H::MemCachedBytes, 1.0 / 4096.0, K::Gauge),
            ("nr_free_pages", H::MemUsedBytes, -1.0 / 4096.0, K::Gauge),
            ("nr_unevictable", H::MemUsedBytes, 0.001 / 4096.0, K::Gauge),
            ("nr_mlock", H::MemUsedBytes, 0.001 / 4096.0, K::Gauge),
            ("nr_bounce", H::DiskIops, 0.001, K::Gauge),
            ("nr_vmscan_write", H::PgOutRate, 0.05, K::Counter),
            ("nr_vmscan_immediate_reclaim", H::PgOutRate, 0.02, K::Counter),
            ("nr_writeback_temp", H::MemDirtyBytes, 0.01 / 4096.0, K::Gauge),
            ("nr_isolated_anon", H::PgOutRate, 0.01, K::Gauge),
            ("nr_isolated_file", H::PgOutRate, 0.01, K::Gauge),
            ("nr_dirtied", H::PgOutRate, 0.5, K::Counter),
            ("nr_written", H::PgOutRate, 0.45, K::Counter),
            ("numa_hit", H::PgFaultRate, 0.95, K::Counter),
            ("numa_miss", H::PgFaultRate, 0.02, K::Counter),
            ("numa_foreign", H::PgFaultRate, 0.02, K::Counter),
            ("numa_interleave", H::PgFaultRate, 0.01, K::Counter),
            ("numa_local", H::PgFaultRate, 0.93, K::Counter),
            ("numa_other", H::PgFaultRate, 0.05, K::Counter),
            ("pgalloc_dma", H::PgFaultRate, 0.001, K::Counter),
            ("pgalloc_dma32", H::PgFaultRate, 0.05, K::Counter),
            ("pgalloc_normal", H::PgFaultRate, 1.0, K::Counter),
            ("pgalloc_movable", H::PgFaultRate, 0.0, K::Counter),
            ("allocstall", H::PgOutRate, 0.01, K::Counter),
            ("pageoutrun", H::PgOutRate, 0.02, K::Counter),
            ("kswapd_inodesteal", H::PgOutRate, 0.01, K::Counter),
            ("kswapd_low_wmark_hit_quickly", H::PgOutRate, 0.005, K::Counter),
            ("kswapd_high_wmark_hit_quickly", H::PgOutRate, 0.005, K::Counter),
            ("slabs_scanned", H::PgOutRate, 0.1, K::Counter),
            ("unevictable_pgs_culled", H::PgOutRate, 0.001, K::Counter),
            ("unevictable_pgs_scanned", H::PgOutRate, 0.001, K::Counter),
            ("unevictable_pgs_rescued", H::PgOutRate, 0.001, K::Counter),
            ("thp_fault_alloc", H::PgFaultRate, 0.001, K::Counter),
            ("thp_collapse_alloc", H::PgFaultRate, 0.0005, K::Counter),
            ("thp_split", H::PgFaultRate, 0.0002, K::Counter),
            ("compact_stall", H::PgOutRate, 0.001, K::Counter),
            ("compact_fail", H::PgOutRate, 0.0005, K::Counter),
            ("compact_success", H::PgOutRate, 0.0005, K::Counter),
            ("compact_migrate_scanned", H::PgOutRate, 0.01, K::Counter),
            ("compact_free_scanned", H::PgOutRate, 0.01, K::Counter),
            ("compact_isolated", H::PgOutRate, 0.005, K::Counter),
            ("htlb_buddy_alloc_success", H::PgFaultRate, 0.0001, K::Counter),
            ("htlb_buddy_alloc_fail", H::PgFaultRate, 0.00005, K::Counter),
            ("drop_pagecache", H::PgOutRate, 0.0001, K::Counter),
            ("drop_slab", H::PgOutRate, 0.0001, K::Counter),
            ("balloon_inflate", H::PgOutRate, 0.0, K::Counter),
            ("balloon_deflate", H::PgOutRate, 0.0, K::Counter),
            ("balloon_migrate", H::PgOutRate, 0.0, K::Counter),
            ("swap_ra", H::SwapRate, 0.1, K::Counter),
            ("swap_ra_hit", H::SwapRate, 0.08, K::Counter),
            ("workingset_refault", H::PgInRate, 0.1, K::Counter),
            ("workingset_activate", H::PgInRate, 0.08, K::Counter),
            ("workingset_nodereclaim", H::PgOutRate, 0.01, K::Counter),
            ("pgmigrate_success", H::PgFaultRate, 0.001, K::Counter),
            ("pgmigrate_fail", H::PgFaultRate, 0.0005, K::Counter),
            ("pglazyfree", H::PgOutRate, 0.001, K::Counter),
            ("pglazyfreed", H::PgOutRate, 0.001, K::Counter),
            ("pgrotated", H::PgOutRate, 0.002, K::Counter),
            ("pgcuratestall", H::PgOutRate, 0.0001, K::Counter),
            ("zone_reclaim_failed", H::PgOutRate, 0.0001, K::Counter),
            ("kcompactd_wake", H::PgOutRate, 0.0005, K::Counter),
            ("kcompactd_migrate_scanned", H::PgOutRate, 0.002, K::Counter),
            ("kcompactd_free_scanned", H::PgOutRate, 0.002, K::Counter),
            ("oom_kill", H::MemUtil, 0.001, K::Counter),
            ("numa_pte_updates", H::PgFaultRate, 0.01, K::Counter),
            ("numa_huge_pte_updates", H::PgFaultRate, 0.001, K::Counter),
            ("numa_hint_faults", H::PgFaultRate, 0.005, K::Counter),
            ("numa_hint_faults_local", H::PgFaultRate, 0.004, K::Counter),
            ("numa_pages_migrated", H::PgFaultRate, 0.002, K::Counter),
        ];
        let remaining = STANDARD_HOST_METRICS - self.host.len();
        assert!(
            remaining <= vmstat.len(),
            "vmstat list too short: need {remaining}, have {}",
            vmstat.len()
        );
        for &(name, signal, weight, kind) in vmstat.iter().take(remaining) {
            self.host(&format!("mem.vmstat.{name}"), kind, signal, weight, 0.0, 0.05);
        }
    }

    fn build_container(&mut self) {
        use ContainerSignal as C;
        use MetricKind as K;

        // --- containers.cpu.* / cgroup.cpuacct.* (12) ---
        self.ctr("containers.cpu.util", K::Utilization, C::CpuUtil, 100.0, 0.0, 0.02);
        self.ctr("cgroup.cpuacct.usage", K::Counter, C::CpuUsageCores, 1e9, 0.0, 0.02);
        self.ctr("cgroup.cpuacct.usage_user", K::Counter, C::CpuUsageCores, 0.8e9, 0.0, 0.03);
        self.ctr("cgroup.cpuacct.usage_sys", K::Counter, C::CpuUsageCores, 0.2e9, 0.0, 0.05);
        for vcpu in 0..8 {
            let share = 1.0 + 0.25 * ((vcpu as f64) * 0.9).sin();
            self.ctr(
                &format!("cgroup.cpuacct.usage_percpu.cpu{vcpu}"),
                K::Counter,
                C::CpuUsageCores,
                share * 1e9 / 8.0,
                0.0,
                0.1,
            );
        }

        // --- cgroup.cpusched.* (3) ---
        self.ctr("cgroup.cpusched.periods", K::Counter, C::PeriodsRate, 1.0, 0.0, 0.02);
        self.ctr("cgroup.cpusched.throttled", K::Counter, C::ThrottledRate, 1.0, 0.0, 0.05);
        self.ctr("cgroup.cpusched.throttled_time", K::Counter, C::ThrottledRate, 1e7, 0.0, 0.1);

        // --- containers.mem.* / cgroup.memory.* (20) ---
        self.ctr("containers.mem.util", K::Utilization, C::MemUtil, 100.0, 0.0, 0.02);
        self.ctr("cgroup.memory.usage", K::Bytes, C::MemUsageBytes, 1.0, 0.0, 0.01);
        self.ctr("cgroup.memory.stat.cache", K::Bytes, C::MemCacheBytes, 1.0, 0.0, 0.02);
        self.ctr("cgroup.memory.stat.rss", K::Bytes, C::MemUsageBytes, 0.7, 0.0, 0.02);
        self.ctr("cgroup.memory.stat.rss_huge", K::Bytes, C::MemUsageBytes, 0.1, 0.0, 0.05);
        self.ctr("cgroup.memory.stat.mapped_file", K::Bytes, C::MemMappedBytes, 1.0, 0.0, 0.02);
        self.ctr("cgroup.memory.stat.swap", K::Bytes, C::MemUsageBytes, 0.01, 0.0, 0.2);
        self.ctr("cgroup.memory.stat.working_set", K::Bytes, C::MemUsageBytes, 0.85, 0.0, 0.02);
        self.ctr("cgroup.memory.stat.active_anon", K::Bytes, C::MemUsageBytes, 0.5, 0.0, 0.03);
        self.ctr("cgroup.memory.stat.inactive_anon", K::Bytes, C::MemInactiveAnon, 1.0, 0.0, 0.03);
        self.ctr("cgroup.memory.stat.active_file", K::Bytes, C::MemActiveFile, 1.0, 0.0, 0.03);
        self.ctr("cgroup.memory.stat.inactive_file", K::Bytes, C::MemInactiveFile, 1.0, 0.0, 0.03);
        self.ctr("cgroup.memory.stat.kernel_stack", K::Bytes, C::KernelStack, 1.0, 0.0, 0.05);
        self.ctr("cgroup.memory.stat.pgfault", K::Counter, C::PgFaultRate, 1.0, 0.0, 0.05);
        self.ctr("cgroup.memory.stat.pgmajfault", K::Counter, C::PgFaultRate, 0.01, 0.0, 0.2);
        self.ctr("cgroup.memory.stat.pgpgin", K::Counter, C::PgFaultRate, 0.5, 0.0, 0.1);
        self.ctr("cgroup.memory.stat.pgpgout", K::Counter, C::PgFaultRate, 0.4, 0.0, 0.1);
        self.ctr("cgroup.memory.stat.unevictable", K::Bytes, C::MemUsageBytes, 0.001, 0.0, 0.2);
        self.ctr("cgroup.memory.stat.dirty", K::Bytes, C::DiskWriteBytes, 2.0, 0.0, 0.1);
        self.ctr("cgroup.memory.stat.writeback", K::Bytes, C::DiskWriteBytes, 0.5, 0.0, 0.2);

        // --- cgroup.memory.stat.total_* mirrors (19) ---
        for (name, sig, weight) in [
            ("total_cache", C::MemCacheBytes, 1.0),
            ("total_rss", C::MemUsageBytes, 0.7),
            ("total_rss_huge", C::MemUsageBytes, 0.1),
            ("total_mapped_file", C::MemMappedBytes, 1.0),
            ("total_swap", C::MemUsageBytes, 0.01),
            ("total_active_anon", C::MemUsageBytes, 0.5),
            ("total_inactive_anon", C::MemInactiveAnon, 1.0),
            ("total_active_file", C::MemActiveFile, 1.0),
            ("total_inactive_file", C::MemInactiveFile, 1.0),
            ("total_unevictable", C::MemUsageBytes, 0.001),
            ("total_dirty", C::DiskWriteBytes, 2.0),
            ("total_writeback", C::DiskWriteBytes, 0.5),
            ("total_pgfault", C::PgFaultRate, 1.0),
            ("total_pgmajfault", C::PgFaultRate, 0.01),
            ("total_pgpgin", C::PgFaultRate, 0.5),
            ("total_pgpgout", C::PgFaultRate, 0.4),
            ("shmem", C::MemUsageBytes, 0.01),
            ("slab", C::MemUsageBytes, 0.02),
            ("sock", C::TcpConns, 8192.0),
        ] {
            let kind = if name.contains("pg") {
                K::Counter
            } else {
                K::Bytes
            };
            self.ctr(&format!("cgroup.memory.stat.{name}"), kind, sig, weight, 0.0, 0.05);
        }

        // --- containers.net.* (7) ---
        self.ctr("containers.net.in.bytes", K::Counter, C::NetInBytes, 1.0, 0.0, 0.03);
        self.ctr("containers.net.out.bytes", K::Counter, C::NetOutBytes, 1.0, 0.0, 0.03);
        self.ctr("containers.net.in.packets", K::Counter, C::NetInBytes, 1.0 / 800.0, 0.0, 0.05);
        self.ctr("containers.net.out.packets", K::Counter, C::NetOutBytes, 1.0 / 800.0, 0.0, 0.05);
        self.ctr("containers.net.in.errors", K::Counter, C::NetInBytes, 1e-7, 0.0, 0.5);
        self.ctr("containers.net.out.errors", K::Counter, C::NetOutBytes, 1e-7, 0.0, 0.5);
        self.ctr("containers.net.tcp.conns", K::Gauge, C::TcpConns, 1.0, 0.0, 0.02);

        // --- cgroup.blkio.* aggregate (8) + per-device (16) ---
        for dev in ["all", "sda", "sdb"] {
            let share = match dev {
                "all" => 1.0,
                "sda" => 0.7,
                _ => 0.3,
            };
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_service_bytes.read"),
                K::Counter,
                C::DiskReadBytes,
                share,
                0.0,
                0.05,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_service_bytes.write"),
                K::Counter,
                C::DiskWriteBytes,
                share,
                0.0,
                0.05,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_serviced.read"),
                K::Counter,
                C::DiskReadBytes,
                share / 4096.0,
                0.0,
                0.1,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_serviced.write"),
                K::Counter,
                C::DiskWriteBytes,
                share / 4096.0,
                0.0,
                0.1,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_queued"),
                K::Gauge,
                C::DiskQueue,
                share,
                0.0,
                0.1,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_wait_time"),
                K::Counter,
                C::DiskQueue,
                share * 1e6,
                0.0,
                0.2,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_service_time"),
                K::Counter,
                C::DiskReadBytes,
                share * 10.0,
                0.0,
                0.2,
            );
            self.ctr(
                &format!("cgroup.blkio.{dev}.io_merged"),
                K::Counter,
                C::DiskWriteBytes,
                share / 40_960.0,
                0.0,
                0.3,
            );
        }

        // --- containers.proc.* (3) ---
        self.ctr("containers.proc.nprocs", K::Gauge, C::NProcs, 1.0, 0.0, 0.01);
        self.ctr("containers.proc.nthreads", K::Gauge, C::NThreads, 1.0, 0.0, 0.02);
        self.ctr("containers.proc.fds", K::Gauge, C::TcpConns, 3.0, 8.0, 0.05);

        assert_eq!(
            self.container.len(),
            STANDARD_CONTAINER_METRICS,
            "container catalog size drifted"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_counts_match_paper() {
        let c = Catalog::standard();
        assert_eq!(c.host_len(), 952);
        assert_eq!(c.container_len(), 88);
        assert_eq!(c.len(), 1040);
    }

    #[test]
    fn names_are_unique() {
        let c = Catalog::standard();
        let mut names: Vec<&str> = c
            .host_metrics()
            .iter()
            .chain(c.container_metrics())
            .map(|m| m.name.as_str())
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
    }

    #[test]
    fn table4_metrics_exist() {
        let c = Catalog::standard();
        for name in [
            "network.tcp.currestab",
            "hinv.ninterface",
            "kernel.all.pswitch",
            "mem.vmstat.nr_inactive_anon",
            "network.tcpconn.established",
            "network.sockstat.tcp.inuse",
            "kernel.all.nprocs",
            "mem.vmstat.nr_kernel_stack",
            "vfs.inodes.free",
            "mem.vmstat.pgpgin",
            "mem.vmstat.nr_inactive_file",
            "disk.all.aveq",
        ] {
            assert!(c.host_index(name).is_some(), "missing host metric {name}");
        }
        for name in [
            "containers.cpu.util",
            "containers.mem.util",
            "cgroup.cpusched.periods",
            "cgroup.cpusched.throttled",
            "cgroup.memory.stat.mapped_file",
            "cgroup.memory.stat.active_file",
            "cgroup.memory.usage",
        ] {
            assert!(c.container_index(name).is_some(), "missing container metric {name}");
        }
    }

    #[test]
    fn expansion_tracks_signals() {
        let c = Catalog::standard();
        let hs = HostSignals {
            cpu_util: 0.5,
            tcp_estab: 120.0,
            ..HostSignals::default()
        };
        let v = c.expand_host(&hs, 10, 42);
        assert_eq!(v.len(), 952);
        let idle = v[c.host_index("kernel.all.cpu.idle").unwrap()];
        assert!((idle - 50.0).abs() < 5.0, "idle = {idle}");
        let estab = v[c.host_index("network.tcp.currestab").unwrap()];
        assert!((estab - 120.0).abs() < 10.0, "estab = {estab}");
    }

    #[test]
    fn expansion_is_deterministic() {
        let c = Catalog::standard();
        let hs = HostSignals {
            cpu_util: 0.8,
            net_in_bytes: 1e6,
            ..HostSignals::default()
        };
        assert_eq!(c.expand_host(&hs, 5, 7), c.expand_host(&hs, 5, 7));
        assert_ne!(c.expand_host(&hs, 5, 7), c.expand_host(&hs, 6, 7));
    }

    #[test]
    fn container_expansion_tracks_signals() {
        let c = Catalog::standard();
        let cs = ContainerSignals {
            cpu_util: 0.9,
            tcp_conns: 33.0,
            ..ContainerSignals::default()
        };
        let v = c.expand_container(&cs, 3, 1);
        assert_eq!(v.len(), 88);
        let util = v[c.container_index("containers.cpu.util").unwrap()];
        assert!((util - 90.0).abs() < 5.0);
        let conns = v[c.container_index("containers.net.tcp.conns").unwrap()];
        assert!((conns - 33.0).abs() < 3.0);
    }

    #[test]
    fn values_are_nonnegative() {
        let c = Catalog::standard();
        let hs = HostSignals::default();
        assert!(c.expand_host(&hs, 0, 0).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pseudo_noise_bounded_and_deterministic() {
        for idx in 0..50 {
            for t in 0..20 {
                let n = pseudo_noise(idx, t, 9);
                assert!((-1.0..=1.0).contains(&n));
                assert_eq!(n, pseudo_noise(idx, t, 9));
            }
        }
    }

    #[test]
    fn plans_cover_each_scope_index_exactly_once() {
        let c = Catalog::standard();
        for (plan, defs) in [
            (c.host_plan(), c.host_metrics()),
            (c.container_plan(), c.container_metrics()),
        ] {
            assert_eq!(plan.width, defs.len());
            let mut hits = vec![0; defs.len()];
            for &(i, _) in &plan.constants {
                hits[i] += 1;
            }
            for col in plan.gauges.iter().chain(&plan.counters) {
                hits[col.index as usize] += 1;
            }
            assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
            for col in &plan.counters {
                assert_eq!(defs[col.index as usize].kind, MetricKind::Counter);
            }
            for col in &plan.gauges {
                assert_ne!(defs[col.index as usize].kind, MetricKind::Counter);
            }
        }
        assert_eq!(c.host_plan().counters.len(), 369);
        assert_eq!(c.container_plan().counters.len(), 49);
    }

    #[test]
    fn concat_layout_is_host_then_container() {
        let c = Catalog::standard();
        let names = c.concat_names();
        assert_eq!(names.len(), 1040);
        assert!(names[0].starts_with("hinv."));
        assert!(names[952].starts_with("ctr."));
        assert_eq!(
            c.concat_container_index("containers.cpu.util").unwrap(),
            952 + c.container_index("containers.cpu.util").unwrap()
        );
    }
}

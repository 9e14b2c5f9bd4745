//! The cluster simulation engine.
//!
//! Two execution paths share one storage layout and produce bit-identical
//! [`TickReport`]s at the 1 Hz monitoring boundary:
//!
//! * [`Cluster::step`] (and its buffer-reusing form [`Cluster::step_into`])
//!   — the incremental path. Nodes live in one list indexed by node id
//!   and tick in that order on the calling thread. Within a node,
//!   containers carry a *fixed-point cache*: once an evaluation leaves a
//!   container's persistent state bit-unchanged and its inputs (offered
//!   load, contention factors) are bit-identical, the cached tick is
//!   reused and the container costs nothing until something changes.
//! * [`Cluster::step_dense_legacy`] — the original dense loop, kept as
//!   the equivalence oracle and benchmark baseline: every container is
//!   re-evaluated every second and the gather phases use the original
//!   linear scans (spec lookup per container, tick lookup per KPI
//!   instance, full-fleet filter per node).
//!
//! Both paths aggregate per-node float sums in ascending instance-id
//! order, which is what makes the equality *bitwise* rather than merely
//! approximate — see `tests/sim_equivalence.rs` for the property suite.

use std::collections::HashMap;
use std::sync::Arc;

use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::signals::HostSignals;
use monitorless_metrics::{InstanceId, NodeId, SignalFrame};
use monitorless_obs as obs;

use crate::container::{Container, ContainerTick};
use crate::error::ClusterError;
use crate::kpi::AppKpi;
use crate::resources::{ContainerLimits, NodeSpec};
use crate::service::ServiceProfile;

/// Identifier of an application in a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

/// Definition of one service within an application.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRole {
    /// Service name, unique within the application.
    pub name: String,
    /// Resource demand profile.
    pub profile: ServiceProfile,
    /// Average visits to this service per end-to-end request.
    pub fanout: f64,
    /// Resource limits applied to each instance of this service.
    pub limits: ContainerLimits,
}

#[derive(Debug)]
struct ServiceEntry {
    role: ServiceRole,
    instances: Vec<InstanceId>,
}

/// One application: a set of services, each with ≥1 instances.
#[derive(Debug)]
pub struct Application {
    name: String,
    services: Vec<ServiceEntry>,
    // Flat caches so the hot accessors below can hand out borrowed
    // slices instead of allocating per call.
    all_instances: Vec<InstanceId>,
    names: Vec<String>,
}

impl Application {
    /// The application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of the application's services.
    pub fn service_names(&self) -> &[String] {
        &self.names
    }

    /// All instance ids across all services, grouped by service.
    pub fn instances(&self) -> &[InstanceId] {
        &self.all_instances
    }

    /// Instances of one service.
    pub fn instances_of(&self, service: &str) -> Vec<InstanceId> {
        self.services
            .iter()
            .filter(|s| s.role.name == service)
            .flat_map(|s| s.instances.iter().copied())
            .collect()
    }

    /// Rebuilds `all_instances` after a scale action. `names` only
    /// changes when a service is added, so it is pushed there instead.
    fn refresh_instances(&mut self) {
        self.all_instances.clear();
        self.all_instances.extend(
            self.services
                .iter()
                .flat_map(|s| s.instances.iter().copied()),
        );
    }
}

/// Per-tick output of [`Cluster::step`].
///
/// `containers` is sorted by ascending instance id, so
/// [`TickReport::container`] is a binary search. The report carries no
/// platform metric: each reader collects the columns it reads from the
/// signal frames with its own
/// [`Collector`](monitorless_metrics::Collector).
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Tick timestamp (seconds since start).
    pub time: u64,
    /// One signal frame per node, in node-id order: its host signals,
    /// its containers' signals in ascending instance order and its
    /// measurement seed.
    pub frames: Vec<SignalFrame>,
    /// Application KPIs, in the order of the offered-load slice.
    pub kpis: Vec<(AppId, AppKpi)>,
    /// Per-container evaluation details (bottlenecks, drops, …), sorted
    /// by instance id.
    pub containers: Vec<(InstanceId, ContainerTick)>,
}

impl TickReport {
    /// An empty report, for use with [`Cluster::step_into`]: the report's
    /// vectors are reused across ticks, so a steady-state simulation loop
    /// allocates nothing.
    pub fn empty() -> Self {
        TickReport::default()
    }

    /// KPI of one application.
    pub fn kpi(&self, app: AppId) -> Option<&AppKpi> {
        self.kpis.iter().find(|(a, _)| *a == app).map(|(_, k)| k)
    }

    /// Container tick details of one instance.
    pub fn container(&self, id: InstanceId) -> Option<&ContainerTick> {
        self.containers
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|idx| &self.containers[idx].1)
    }
}

/// Cumulative work counters for a [`Cluster`], exposed so benches and the
/// event loop can report how much the fixed-point cache saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Full (monitored) ticks executed.
    pub ticks: u64,
    /// State-only ticks (container dynamics advanced, no collection).
    pub state_ticks: u64,
    /// Container evaluations actually performed.
    pub container_evals: u64,
    /// Container evaluations skipped by the fixed-point cache.
    pub cached_ticks: u64,
}

/// One container slotted on a node, with its fixed-point cache.
#[derive(Debug)]
struct Slot {
    id: InstanceId,
    container: Container,
    /// Offered load for the current tick.
    offered: f64,
    /// Set when `offered` changed bitwise since the container was last
    /// evaluated.
    offered_changed: bool,
    // Cached node-visible demand terms (already cgroup-capped), valid
    // whenever the container is settled and its offered load unchanged.
    dem_cpu: f64,
    dem_disk: f64,
    dem_net: f64,
    /// Result of the last evaluation.
    tick: Option<ContainerTick>,
    /// Whether the last evaluation left the container state bit-unchanged
    /// (the fixed point: identical inputs now reproduce identical ticks).
    settled: bool,
}

impl Slot {
    fn new(id: InstanceId, container: Container) -> Self {
        Slot {
            id,
            container,
            offered: 0.0,
            offered_changed: true,
            dem_cpu: 0.0,
            dem_disk: 0.0,
            dem_net: 0.0,
            tick: None,
            settled: false,
        }
    }

    fn needs_eval(&self) -> bool {
        self.tick.is_none() || !self.settled || self.offered_changed
    }
}

/// One node: spec, measurement seed, and its containers in ascending
/// instance-id order (instance ids only ever grow, so appends preserve
/// the order the dense loop's sorted scans established).
#[derive(Debug)]
struct NodeEntry {
    id: NodeId,
    spec: NodeSpec,
    /// Measurement-noise seed of the node's metrics, carried by its
    /// signal frames.
    seed: u64,
    slots: Vec<Slot>,
    factors: (f64, f64, f64),
    factors_valid: bool,
    host: HostSignals,
    host_valid: bool,
    /// Containers were added/removed since the last tick.
    topo_dirty: bool,
}

impl NodeEntry {
    fn new(id: NodeId, spec: NodeSpec, seed: u64) -> Self {
        NodeEntry {
            id,
            spec,
            seed,
            slots: Vec::new(),
            factors: (1.0, 1.0, 1.0),
            factors_valid: false,
            host: HostSignals::default(),
            host_valid: false,
            topo_dirty: false,
        }
    }

    /// Advances this node by one second, adding the containers it
    /// evaluated and the cache hits to `stats`. A monitored second
    /// (`monitor`) also brings the host signals up to date.
    fn tick(&mut self, monitor: bool, stats: &mut SimStats) {
        // Demand refresh for stale slots; settled slots with unchanged
        // load reuse their cached (cgroup-capped) demand terms.
        let mut demand_changed = self.topo_dirty;
        for slot in &mut self.slots {
            if slot.needs_eval() {
                let d = slot.container.demands(&self.spec, slot.offered);
                let cpu = d
                    .cpu_cores
                    .min(slot.container.limits().effective_cpu(&self.spec));
                let disk = d.disk_read_bps + d.disk_write_bps;
                let net = d.net_in_bps + d.net_out_bps;
                if cpu.to_bits() != slot.dem_cpu.to_bits()
                    || disk.to_bits() != slot.dem_disk.to_bits()
                    || net.to_bits() != slot.dem_net.to_bits()
                {
                    demand_changed = true;
                }
                slot.dem_cpu = cpu;
                slot.dem_disk = disk;
                slot.dem_net = net;
            }
        }

        // Contention factors, recomputed only when some demand moved.
        // The sum runs in slot (= ascending instance-id) order, exactly
        // like the dense loop's sorted pass, so the bits agree.
        let factors_changed = if demand_changed || !self.factors_valid {
            let mut dc = 0.0;
            let mut dd = 0.0;
            let mut dn = 0.0;
            for slot in &self.slots {
                dc += slot.dem_cpu;
                dd += slot.dem_disk;
                dn += slot.dem_net;
            }
            let cpu_share = if dc > self.spec.cores {
                self.spec.cores / dc
            } else {
                1.0
            };
            let disk_share = if dd > self.spec.disk_bytes_per_sec() {
                self.spec.disk_bytes_per_sec() / dd
            } else {
                1.0
            };
            let net_share = if dn > self.spec.net_bytes_per_sec() {
                self.spec.net_bytes_per_sec() / dn
            } else {
                1.0
            };
            let changed = !self.factors_valid
                || cpu_share.to_bits() != self.factors.0.to_bits()
                || disk_share.to_bits() != self.factors.1.to_bits()
                || net_share.to_bits() != self.factors.2.to_bits();
            self.factors = (cpu_share, disk_share, net_share);
            self.factors_valid = true;
            changed
        } else {
            false
        };

        // Evaluate what moved; a changed factor invalidates every slot on
        // the node (their share inputs changed).
        let (cpu_s, disk_s, net_s) = self.factors;
        let mut any_eval = false;
        for slot in &mut self.slots {
            if factors_changed || slot.needs_eval() {
                let before = slot.container.state_bits();
                let tick = slot
                    .container
                    .evaluate(&self.spec, slot.offered, cpu_s, disk_s, net_s);
                slot.settled = slot.container.state_bits() == before;
                slot.tick = Some(tick);
                slot.offered_changed = false;
                any_eval = true;
                stats.container_evals += 1;
            } else {
                stats.cached_ticks += 1;
            }
        }

        if monitor {
            if any_eval || self.topo_dirty || !self.host_valid {
                self.compute_host();
                self.host_valid = true;
            }
        } else if any_eval || self.topo_dirty {
            // State-only tick moved the containers; a later collect must
            // not trust the stale host aggregate.
            self.host_valid = false;
        }
        self.topo_dirty = false;
    }

    /// Host-signal synthesis, bit-identical to the dense loop: the same
    /// formulas, accumulated in the same (ascending instance-id) order.
    fn compute_host(&mut self) {
        let spec = &self.spec;
        let mut cpu_used = 0.0;
        let mut disk_read = 0.0;
        let mut disk_write = 0.0;
        let mut net_in = 0.0;
        let mut net_out = 0.0;
        let mut conns = 0.0;
        let mut procs = 0.0;
        let mut queue = 0.0;
        let mut pgfault = 0.0;
        let mut mem_used = 6.0; // GiB of host OS overhead
        for slot in &self.slots {
            let s = &slot
                .tick
                .as_ref()
                .expect("evaluated before host synthesis")
                .signals;
            cpu_used += s.cpu_usage_cores;
            disk_read += s.disk_read_bytes;
            disk_write += s.disk_write_bytes;
            net_in += s.net_in_bytes;
            net_out += s.net_out_bytes;
            conns += s.tcp_conns;
            procs += s.nprocs;
            queue += s.disk_queue;
            pgfault += s.pgfault_rate;
            mem_used += s.mem_usage_bytes / (1024.0 * 1024.0 * 1024.0);
        }
        let cpu_util = (cpu_used / spec.cores).clamp(0.0, 1.0);
        let disk_bps = disk_read + disk_write;
        let disk_util = (disk_bps / spec.disk_bytes_per_sec()).clamp(0.0, 1.0);
        let net_util = ((net_in + net_out) / spec.net_bytes_per_sec()).clamp(0.0, 1.0);
        let mem_util = (mem_used / spec.memory_gb).clamp(0.0, 1.0);
        let iowait = 0.3 * disk_util * (1.0 - cpu_util);
        self.host = HostSignals {
            cpu_util,
            cpu_user: cpu_util * 0.72,
            cpu_sys: cpu_util * 0.25,
            cpu_iowait: iowait,
            ctx_switch_rate: 2000.0 + 40.0 * conns + 8000.0 * cpu_util * spec.cores,
            intr_rate: 1000.0 + (net_in + net_out) / 6000.0,
            syscall_rate: 5000.0 + 100.0 * conns,
            nprocs: 180.0 + procs,
            runnable: cpu_util * spec.cores * 1.2,
            load1: cpu_util * spec.cores + queue * 0.5,
            mem_util,
            mem_used_bytes: mem_used * 1024.0 * 1024.0 * 1024.0,
            mem_cached_bytes: (spec.memory_gb - mem_used).max(0.0) * 0.4 * 1024.0 * 1024.0 * 1024.0,
            mem_dirty_bytes: disk_write * 2.0,
            pgin_rate: disk_read / 4096.0,
            pgout_rate: disk_write / 4096.0,
            pgfault_rate: pgfault + 500.0,
            swap_rate: if mem_util > 0.95 {
                (mem_util - 0.95) * 1e5
            } else {
                0.0
            },
            net_in_bytes: net_in,
            net_out_bytes: net_out,
            net_in_pkts: net_in / 800.0,
            net_out_pkts: net_out / 800.0,
            net_err_rate: net_util * net_util * 20.0,
            net_util,
            tcp_estab: conns + 15.0,
            tcp_inuse: conns * 1.2 + 30.0,
            tcp_retrans: net_util.powi(3) * 200.0,
            disk_read_bytes: disk_read,
            disk_write_bytes: disk_write,
            disk_iops: disk_bps / 16_384.0,
            disk_aveq: queue,
            disk_util,
            inodes_free: 1_500_000.0 - 100.0 * procs,
        };
    }

    /// Rewrites `frame` as this node's signal frame, reusing its
    /// container list.
    fn fill_frame(&self, frame: &mut SignalFrame) {
        frame.node = self.id;
        frame.seed = self.seed;
        frame.host = self.host;
        frame.containers.clear();
        frame.containers.extend(
            self.slots
                .iter()
                .map(|sl| (sl.id, sl.tick.as_ref().expect("evaluated").signals)),
        );
    }
}

/// A simulated cloud: nodes, containers, and applications.
#[derive(Debug)]
pub struct Cluster {
    /// Indexed by node id (dense `0..n`).
    nodes: Vec<NodeEntry>,
    node_ids: Vec<NodeId>,
    /// Instance → hosting node.
    locator: HashMap<InstanceId, NodeId>,
    /// All live instance ids, ascending.
    order: Vec<InstanceId>,
    apps: Vec<Application>,
    catalog: Arc<Catalog>,
    next_instance: u32,
    time: u64,
    /// Cleared by [`Cluster::step_dense_legacy`], whose evaluations leave
    /// the incremental caches stale; the next incremental tick then
    /// recomputes everything from scratch.
    caches_valid: bool,
    prev_loads: Vec<(AppId, f64)>,
    loads_valid: bool,
    offered_scratch: HashMap<InstanceId, f64>,
    stats: SimStats,
}

fn same_loads(a: &[(AppId, f64)], b: &[(AppId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

impl Cluster {
    /// Creates a cluster with the given nodes; `seed` drives all
    /// measurement noise: node `i`'s frames carry the seed
    /// `seed ^ (i << 32)`.
    pub fn new(specs: Vec<NodeSpec>, seed: u64) -> Self {
        let catalog = Arc::new(Catalog::standard());
        let mut nodes = Vec::with_capacity(specs.len());
        let mut node_ids = Vec::with_capacity(specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            let id = NodeId(i as u32);
            nodes.push(NodeEntry::new(id, spec, seed ^ ((i as u64) << 32)));
            node_ids.push(id);
        }
        Cluster {
            nodes,
            node_ids,
            locator: HashMap::new(),
            order: Vec::new(),
            apps: Vec::new(),
            catalog,
            next_instance: 0,
            time: 0,
            caches_valid: true,
            prev_loads: Vec::new(),
            loads_valid: false,
            offered_scratch: HashMap::new(),
            stats: SimStats::default(),
        }
    }

    /// The metric catalog the cluster's signals expand against.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Node ids in the cluster.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// Cumulative work counters (evaluations performed vs. cached).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Resets the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Registers a new application.
    pub fn add_app(&mut self, name: &str) -> AppId {
        self.apps.push(Application {
            name: name.to_string(),
            services: Vec::new(),
            all_instances: Vec::new(),
            names: Vec::new(),
        });
        AppId(self.apps.len() as u32 - 1)
    }

    /// The application with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn app(&self, id: AppId) -> &Application {
        &self.apps[id.0 as usize]
    }

    /// Adds a service to an application and starts its first instance on
    /// `node`. Returns the instance id.
    ///
    /// # Panics
    ///
    /// Panics if `app` or `node` is unknown.
    pub fn add_service(&mut self, app: AppId, role: ServiceRole, node: NodeId) -> InstanceId {
        assert!((node.0 as usize) < self.node_ids.len(), "unknown node {node}");
        let a = &mut self.apps[app.0 as usize];
        a.names.push(role.name.clone());
        a.services.push(ServiceEntry {
            role,
            instances: Vec::new(),
        });
        let svc_idx = a.services.len() - 1;
        self.spawn_instance(app, svc_idx, node)
    }

    /// Starts an additional instance (scale-out) of `service` on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`], [`ClusterError::UnknownApp`]
    /// or [`ClusterError::UnknownService`] when the target does not exist;
    /// the cluster is left unchanged.
    pub fn scale_out(
        &mut self,
        app: AppId,
        service: &str,
        node: NodeId,
    ) -> Result<InstanceId, ClusterError> {
        if (node.0 as usize) >= self.node_ids.len() {
            return Err(ClusterError::UnknownNode(node));
        }
        let services = &self
            .apps
            .get(app.0 as usize)
            .ok_or(ClusterError::UnknownApp(app))?
            .services;
        let svc_idx = services
            .iter()
            .position(|s| s.role.name == service)
            .ok_or_else(|| ClusterError::UnknownService {
                app,
                service: service.to_string(),
                known: services.iter().map(|s| s.role.name.clone()).collect(),
            })?;
        obs::counter_add("sim.scale_out", 1);
        Ok(self.spawn_instance(app, svc_idx, node))
    }

    fn spawn_instance(&mut self, app: AppId, svc_idx: usize, node: NodeId) -> InstanceId {
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let a = &mut self.apps[app.0 as usize];
        let (profile, limits) = {
            let role = &a.services[svc_idx].role;
            (role.profile.clone(), role.limits)
        };
        let container = Container::new(id, profile, limits);
        a.services[svc_idx].instances.push(id);
        a.refresh_instances();
        let entry = &mut self.nodes[node.0 as usize];
        debug_assert!(entry.slots.last().is_none_or(|sl| sl.id < id));
        entry.slots.push(Slot::new(id, container));
        entry.topo_dirty = true;
        entry.factors_valid = false;
        self.locator.insert(id, node);
        self.order.push(id); // instance ids strictly increase
        self.loads_valid = false; // per-instance shares changed
        id
    }

    /// Stops an instance (scale-in). Keeps at least one instance per
    /// service: removing the last instance is rejected.
    ///
    /// Returns `true` if the instance was removed.
    pub fn scale_in(&mut self, id: InstanceId) -> bool {
        self.scale_in_with_floor(id, 1)
    }

    /// Stops an instance even if it is the last one of its service
    /// (serverless-style scale-to-zero). A service with zero instances
    /// simply stops contributing to its application's KPIs — the driver
    /// is responsible for accounting offered load that finds no
    /// capacity (see `EventSim`'s cold-start support).
    ///
    /// Returns `true` if the instance was removed.
    pub fn scale_in_to_zero(&mut self, id: InstanceId) -> bool {
        self.scale_in_with_floor(id, 0)
    }

    fn scale_in_with_floor(&mut self, id: InstanceId, floor: usize) -> bool {
        for ai in 0..self.apps.len() {
            for si in 0..self.apps[ai].services.len() {
                let svc = &mut self.apps[ai].services[si];
                if let Some(pos) = svc.instances.iter().position(|&i| i == id) {
                    if svc.instances.len() <= floor {
                        return false;
                    }
                    svc.instances.remove(pos);
                    self.apps[ai].refresh_instances();
                    self.remove_slot(id);
                    obs::counter_add("sim.scale_in", 1);
                    return true;
                }
            }
        }
        false
    }

    fn remove_slot(&mut self, id: InstanceId) {
        let node = self.locator.remove(&id).expect("instance tracked");
        let entry = &mut self.nodes[node.0 as usize];
        let idx = entry
            .slots
            .binary_search_by_key(&id, |sl| sl.id)
            .expect("slot present");
        entry.slots.remove(idx);
        entry.topo_dirty = true;
        entry.factors_valid = false;
        let oidx = self.order.binary_search(&id).expect("ordered");
        self.order.remove(oidx);
        self.loads_valid = false;
    }

    /// Which node an instance runs on.
    pub fn node_of(&self, id: InstanceId) -> Option<NodeId> {
        self.locator.get(&id).copied()
    }

    /// Which `(application, service-name)` an instance belongs to.
    pub fn owner_of(&self, id: InstanceId) -> Option<(AppId, &str)> {
        for (ai, app) in self.apps.iter().enumerate() {
            for svc in &app.services {
                if svc.instances.contains(&id) {
                    return Some((AppId(ai as u32), svc.role.name.as_str()));
                }
            }
        }
        None
    }

    /// Number of running containers.
    pub fn container_count(&self) -> usize {
        self.order.len()
    }

    fn prepare(&mut self) {
        if !self.caches_valid {
            for node in &mut self.nodes {
                node.factors_valid = false;
                node.host_valid = false;
                node.topo_dirty = true;
                for slot in &mut node.slots {
                    slot.settled = false;
                }
            }
            self.loads_valid = false;
            self.caches_valid = true;
        }
    }

    /// Distributes the offered load to the slots, flagging bitwise
    /// changes. Skipped wholesale when `loads` is bit-identical to the
    /// previous tick's (and nothing else invalidated the distribution).
    fn apply_loads(&mut self, loads: &[(AppId, f64)]) {
        if self.loads_valid && same_loads(&self.prev_loads, loads) {
            return;
        }
        self.offered_scratch.clear();
        for &(app_id, load) in loads {
            let app = &self.apps[app_id.0 as usize];
            for svc in &app.services {
                if svc.instances.is_empty() {
                    continue;
                }
                let per_instance = load * svc.role.fanout / svc.instances.len() as f64;
                for &inst in &svc.instances {
                    *self.offered_scratch.entry(inst).or_insert(0.0) += per_instance;
                }
            }
        }
        let scratch = &self.offered_scratch;
        for node in &mut self.nodes {
            for slot in &mut node.slots {
                let new = scratch.get(&slot.id).copied().unwrap_or(0.0);
                if new.to_bits() != slot.offered.to_bits() {
                    slot.offered = new;
                    slot.offered_changed = true;
                }
            }
        }
        self.prev_loads.clear();
        self.prev_loads.extend_from_slice(loads);
        self.loads_valid = true;
    }

    /// Advances every node by one second, in node-id order.
    fn eval_nodes(&mut self, monitor: bool) {
        for node in &mut self.nodes {
            node.tick(monitor, &mut self.stats);
        }
    }

    fn slot_ref(&self, id: InstanceId) -> Option<&Slot> {
        let node = *self.locator.get(&id)?;
        let entry = &self.nodes[node.0 as usize];
        let idx = entry.slots.binary_search_by_key(&id, |sl| sl.id).ok()?;
        Some(&entry.slots[idx])
    }

    /// The sequential gather phase: signal frames (rewritten in the
    /// report's reused buffers), KPIs and the sorted container list.
    fn emit_report(&mut self, time: u64, loads: &[(AppId, f64)], report: &mut TickReport) {
        report.time = time;
        report.frames.truncate(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            obs::observe("sim.node_queue_depth", node.host.disk_aveq);
            if i == report.frames.len() {
                report.frames.push(SignalFrame {
                    node: node.id,
                    seed: node.seed,
                    host: node.host,
                    containers: Vec::new(),
                });
            }
            node.fill_frame(&mut report.frames[i]);
        }

        report.kpis.clear();
        for &(app_id, load) in loads {
            let app = &self.apps[app_id.0 as usize];
            let mut success = 1.0_f64;
            let mut rt = 0.0;
            for svc in &app.services {
                if svc.instances.is_empty() {
                    continue;
                }
                let mut svc_offered = 0.0;
                let mut svc_achieved = 0.0;
                let mut svc_rt = 0.0;
                for &inst in &svc.instances {
                    let slot = self.slot_ref(inst).expect("instance has a slot");
                    let tick = slot.tick.as_ref().expect("evaluated");
                    svc_offered += slot.offered;
                    svc_achieved += tick.achieved_rps;
                    svc_rt += tick.response_ms;
                }
                let svc_rt_avg = svc_rt / svc.instances.len() as f64;
                // Other applications may share these instances' offered
                // load; attribute proportionally.
                let frac = if svc_offered > 0.0 {
                    (svc_achieved / svc_offered).min(1.0)
                } else {
                    1.0
                };
                success *= frac;
                rt += svc.role.fanout * svc_rt_avg;
            }
            let throughput = load * success;
            report.kpis.push((
                app_id,
                AppKpi {
                    offered_rps: load,
                    throughput_rps: throughput,
                    response_ms: rt,
                    dropped_rps: load - throughput,
                },
            ));
        }

        report.containers.clear();
        for &id in &self.order {
            let slot = self.slot_ref(id).expect("ordered instance has a slot");
            report
                .containers
                .push((id, slot.tick.clone().expect("evaluated")));
        }
    }

    /// Advances the simulation by one second with the given offered load
    /// per application (applications not listed get zero load).
    ///
    /// # Panics
    ///
    /// Panics if a load entry references an unknown application.
    pub fn step(&mut self, loads: &[(AppId, f64)]) -> TickReport {
        let mut report = TickReport::empty();
        self.step_into(loads, &mut report);
        report
    }

    /// Like [`Cluster::step`], but writes into `report`, reusing its
    /// buffers: a steady-state loop over `step_into` performs no heap
    /// allocation.
    pub fn step_into(&mut self, loads: &[(AppId, f64)], report: &mut TickReport) {
        let _tick_span = obs::Span::enter("sim.tick");
        obs::counter_add("sim.ticks", 1);
        obs::gauge_set("sim.containers", self.order.len() as f64);
        let t = self.time;
        self.prepare();
        self.apply_loads(loads);
        self.eval_nodes(true);
        self.emit_report(t, loads, report);
        self.time += 1;
        self.stats.ticks += 1;
    }

    /// Advances the container dynamics by one second *without* producing
    /// monitoring output — the event loop's path for unmonitored seconds
    /// while some container is still converging toward its fixed point.
    ///
    /// # Panics
    ///
    /// Panics if a load entry references an unknown application.
    pub fn tick_state_only(&mut self, loads: &[(AppId, f64)]) {
        obs::counter_add("sim.state_ticks", 1);
        self.prepare();
        self.apply_loads(loads);
        self.eval_nodes(false);
        self.time += 1;
        self.stats.state_ticks += 1;
    }

    /// The original dense per-second loop, kept verbatim as the
    /// equivalence oracle and benchmark baseline: every container is
    /// re-evaluated every tick, and the gather phases use the original
    /// linear scans (per-container spec lookup, per-instance tick search
    /// in the KPI pass, full-fleet filter per node in the host pass).
    ///
    /// Produces bit-identical reports to [`Cluster::step`] and leaves the
    /// cluster in a consistent state (the incremental caches are simply
    /// invalidated), so the two paths can be interleaved freely.
    ///
    /// # Panics
    ///
    /// Panics if a load entry references an unknown application.
    pub fn step_dense_legacy(&mut self, loads: &[(AppId, f64)]) -> TickReport {
        let _tick_span = obs::Span::enter("sim.tick");
        obs::counter_add("sim.ticks", 1);
        obs::gauge_set("sim.containers", self.order.len() as f64);
        let t = self.time;

        // Offered load per instance.
        let mut offered: HashMap<InstanceId, f64> = HashMap::new();
        for &(app_id, load) in loads {
            let app = &self.apps[app_id.0 as usize];
            for svc in &app.services {
                if svc.instances.is_empty() {
                    continue;
                }
                let per_instance = load * svc.role.fanout / svc.instances.len() as f64;
                for &inst in &svc.instances {
                    *offered.entry(inst).or_insert(0.0) += per_instance;
                }
            }
        }

        // Pass 1: demands, aggregated per node in ascending instance-id
        // order (the order fixed by the shared storage layout).
        #[derive(Default, Clone, Copy)]
        struct NodeDemand {
            cpu: f64,
            disk: f64,
            net: f64,
        }
        let mut node_demand: HashMap<NodeId, NodeDemand> = HashMap::new();
        for idx in 0..self.order.len() {
            let id = self.order[idx];
            let node_id = self.locator[&id];
            // Linear spec lookup, as the dense loop always did.
            let spec = self
                .node_ids
                .iter()
                .position(|&n| n == node_id)
                .map(|p| self.nodes[p].spec)
                .expect("node exists");
            let slot = self.slot_ref(id).expect("slot present");
            let load = offered.get(&id).copied().unwrap_or(0.0);
            let d = slot.container.demands(&spec, load);
            let nd = node_demand.entry(node_id).or_default();
            // Demand the host actually sees is capped by the cgroup limit.
            nd.cpu += d
                .cpu_cores
                .min(slot.container.limits().effective_cpu(&spec));
            nd.disk += d.disk_read_bps + d.disk_write_bps;
            nd.net += d.net_in_bps + d.net_out_bps;
        }

        // Contention factors per node.
        let mut factors: HashMap<NodeId, (f64, f64, f64)> = HashMap::new();
        for i in 0..self.node_ids.len() {
            let spec = self.nodes[i].spec;
            let node_id = self.node_ids[i];
            let d = node_demand.get(&node_id).copied().unwrap_or_default();
            let cpu_share = if d.cpu > spec.cores {
                spec.cores / d.cpu
            } else {
                1.0
            };
            let disk_share = if d.disk > spec.disk_bytes_per_sec() {
                spec.disk_bytes_per_sec() / d.disk
            } else {
                1.0
            };
            let net_share = if d.net > spec.net_bytes_per_sec() {
                spec.net_bytes_per_sec() / d.net
            } else {
                1.0
            };
            factors.insert(node_id, (cpu_share, disk_share, net_share));
        }

        // Pass 2: evaluate containers in ascending id order.
        let mut ticks: Vec<(InstanceId, ContainerTick)> = Vec::new();
        for idx in 0..self.order.len() {
            let id = self.order[idx];
            let node_id = self.locator[&id];
            let pos = match self.node_ids.iter().position(|&n| n == node_id) {
                Some(p) => p,
                None => continue,
            };
            let entry = &mut self.nodes[pos];
            let spec = entry.spec;
            let (cpu_s, disk_s, net_s) = factors[&node_id];
            let load = offered.get(&id).copied().unwrap_or(0.0);
            let sidx = entry
                .slots
                .binary_search_by_key(&id, |sl| sl.id)
                .expect("slot");
            let tick = entry.slots[sidx]
                .container
                .evaluate(&spec, load, cpu_s, disk_s, net_s);
            ticks.push((id, tick));
        }

        // KPIs per application.
        let mut kpis = Vec::new();
        for &(app_id, load) in loads {
            let app = &self.apps[app_id.0 as usize];
            let mut success = 1.0_f64;
            let mut rt = 0.0;
            for svc in &app.services {
                if svc.instances.is_empty() {
                    continue;
                }
                let mut svc_offered = 0.0;
                let mut svc_achieved = 0.0;
                let mut svc_rt = 0.0;
                for &inst in &svc.instances {
                    if let Some((_, tick)) = ticks.iter().find(|(i, _)| *i == inst) {
                        svc_offered += offered.get(&inst).copied().unwrap_or(0.0);
                        svc_achieved += tick.achieved_rps;
                        svc_rt += tick.response_ms;
                    }
                }
                let svc_rt_avg = svc_rt / svc.instances.len() as f64;
                let frac = if svc_offered > 0.0 {
                    (svc_achieved / svc_offered).min(1.0)
                } else {
                    1.0
                };
                success *= frac;
                rt += svc.role.fanout * svc_rt_avg;
            }
            let throughput = load * success;
            kpis.push((
                app_id,
                AppKpi {
                    offered_rps: load,
                    throughput_rps: throughput,
                    response_ms: rt,
                    dropped_rps: load - throughput,
                },
            ));
        }

        // Host signals and signal frame per node, scanning the whole
        // fleet per node as the dense loop always did.
        let mut frames = Vec::new();
        for i in 0..self.node_ids.len() {
            let node_id = self.node_ids[i];
            let entry = &self.nodes[i];
            let spec = &entry.spec;
            let mut cpu_used = 0.0;
            let mut disk_read = 0.0;
            let mut disk_write = 0.0;
            let mut net_in = 0.0;
            let mut net_out = 0.0;
            let mut conns = 0.0;
            let mut procs = 0.0;
            let mut queue = 0.0;
            let mut pgfault = 0.0;
            let mut mem_used = 6.0; // GiB of host OS overhead
            let mut ctr_signals = Vec::new();
            for (id, tick) in &ticks {
                if self.locator.get(id).copied() != Some(node_id) {
                    continue;
                }
                let s = &tick.signals;
                cpu_used += s.cpu_usage_cores;
                disk_read += s.disk_read_bytes;
                disk_write += s.disk_write_bytes;
                net_in += s.net_in_bytes;
                net_out += s.net_out_bytes;
                conns += s.tcp_conns;
                procs += s.nprocs;
                queue += s.disk_queue;
                pgfault += s.pgfault_rate;
                mem_used += s.mem_usage_bytes / (1024.0 * 1024.0 * 1024.0);
                ctr_signals.push((*id, *s));
            }
            let cpu_util = (cpu_used / spec.cores).clamp(0.0, 1.0);
            let disk_bps = disk_read + disk_write;
            let disk_util = (disk_bps / spec.disk_bytes_per_sec()).clamp(0.0, 1.0);
            let net_util = ((net_in + net_out) / spec.net_bytes_per_sec()).clamp(0.0, 1.0);
            let mem_util = (mem_used / spec.memory_gb).clamp(0.0, 1.0);
            let iowait = 0.3 * disk_util * (1.0 - cpu_util);
            let host = HostSignals {
                cpu_util,
                cpu_user: cpu_util * 0.72,
                cpu_sys: cpu_util * 0.25,
                cpu_iowait: iowait,
                ctx_switch_rate: 2000.0 + 40.0 * conns + 8000.0 * cpu_util * spec.cores,
                intr_rate: 1000.0 + (net_in + net_out) / 6000.0,
                syscall_rate: 5000.0 + 100.0 * conns,
                nprocs: 180.0 + procs,
                runnable: cpu_util * spec.cores * 1.2,
                load1: cpu_util * spec.cores + queue * 0.5,
                mem_util,
                mem_used_bytes: mem_used * 1024.0 * 1024.0 * 1024.0,
                mem_cached_bytes: (spec.memory_gb - mem_used).max(0.0)
                    * 0.4
                    * 1024.0
                    * 1024.0
                    * 1024.0,
                mem_dirty_bytes: disk_write * 2.0,
                pgin_rate: disk_read / 4096.0,
                pgout_rate: disk_write / 4096.0,
                pgfault_rate: pgfault + 500.0,
                swap_rate: if mem_util > 0.95 {
                    (mem_util - 0.95) * 1e5
                } else {
                    0.0
                },
                net_in_bytes: net_in,
                net_out_bytes: net_out,
                net_in_pkts: net_in / 800.0,
                net_out_pkts: net_out / 800.0,
                net_err_rate: net_util * net_util * 20.0,
                net_util,
                tcp_estab: conns + 15.0,
                tcp_inuse: conns * 1.2 + 30.0,
                tcp_retrans: net_util.powi(3) * 200.0,
                disk_read_bytes: disk_read,
                disk_write_bytes: disk_write,
                disk_iops: disk_bps / 16_384.0,
                disk_aveq: queue,
                disk_util,
                inodes_free: 1_500_000.0 - 100.0 * procs,
            };
            obs::observe("sim.node_queue_depth", queue);
            frames.push(SignalFrame {
                node: node_id,
                seed: entry.seed,
                host,
                containers: ctr_signals,
            });
        }

        self.time += 1;
        self.stats.ticks += 1;
        // The dense pass evaluated containers behind the incremental
        // caches' back: force a from-scratch recompute next tick.
        self.caches_valid = false;
        TickReport {
            time: t,
            frames,
            kpis,
            containers: ticks,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn one_node_cluster() -> (Cluster, AppId, InstanceId) {
        let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 1);
        let app = cluster.add_app("svc-app");
        let inst = cluster.add_service(
            app,
            ServiceRole {
                name: "web".into(),
                profile: ServiceProfile::test_cpu_bound("web", 10.0),
                fanout: 1.0,
                limits: ContainerLimits::cpu(1.0),
            },
            NodeId(0),
        );
        (cluster, app, inst)
    }

    /// A frame's node, seed, and every instance id and signal, as bits
    /// for bitwise comparison.
    pub(crate) fn frame_bits(f: &SignalFrame) -> Vec<u64> {
        let mut bits = vec![u64::from(f.node.0), f.seed];
        bits.extend(f.host.slots().iter().map(|x| x.to_bits()));
        for (id, c) in &f.containers {
            bits.push(u64::from(id.0));
            bits.extend(c.slots().iter().map(|x| x.to_bits()));
        }
        bits
    }

    #[test]
    fn step_produces_observations_and_kpis() {
        let (mut cluster, app, inst) = one_node_cluster();
        let report = cluster.step(&[(app, 50.0)]);
        assert_eq!(report.frames.len(), 1);
        assert_eq!(report.frames[0].node, NodeId(0));
        assert_eq!(report.frames[0].seed, 1);
        assert_eq!(report.frames[0].containers.len(), 1);
        assert_eq!(report.frames[0].containers[0].0, inst);
        assert!(report.frames[0].host.cpu_util > 0.0);
        let kpi = report.kpi(app).unwrap();
        assert!((kpi.throughput_rps - 50.0).abs() < 1.0);
        assert!(kpi.response_ms < 100.0);
    }

    #[test]
    fn overload_degrades_kpi() {
        let (mut cluster, app, _) = one_node_cluster();
        // Capacity is ~100 rps; offered 300 rps must eventually drop.
        let mut last = None;
        for _ in 0..10 {
            last = Some(cluster.step(&[(app, 300.0)]));
        }
        let report = last.unwrap();
        let kpi = report.kpi(app).unwrap();
        assert!(kpi.throughput_rps < 150.0);
        assert!(kpi.dropped_rps > 0.0);
        assert!(kpi.response_ms > 1000.0);
    }

    #[test]
    fn scale_out_increases_capacity() {
        let (mut cluster, app, _) = one_node_cluster();
        for _ in 0..5 {
            cluster.step(&[(app, 300.0)]);
        }
        let before = cluster
            .step(&[(app, 300.0)])
            .kpi(app)
            .unwrap()
            .throughput_rps;
        let extra = cluster.scale_out(app, "web", NodeId(0)).unwrap();
        // Let queues drain relative to the new capacity.
        for _ in 0..10 {
            cluster.step(&[(app, 300.0)]);
        }
        let after = cluster
            .step(&[(app, 300.0)])
            .kpi(app)
            .unwrap()
            .throughput_rps;
        assert!(after > before * 1.5, "{before} -> {after}");
        assert!(cluster.scale_in(extra));
        assert_eq!(cluster.container_count(), 1);
    }

    #[test]
    fn scale_out_unknown_targets_are_errors() {
        let (mut cluster, app, _) = one_node_cluster();
        match cluster.scale_out(app, "nope", NodeId(0)) {
            Err(ClusterError::UnknownService { service, known, .. }) => {
                assert_eq!(service, "nope");
                assert_eq!(known, vec!["web".to_string()]);
            }
            other => panic!("expected UnknownService, got {other:?}"),
        }
        assert_eq!(
            cluster.scale_out(app, "web", NodeId(9)),
            Err(ClusterError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            cluster.scale_out(AppId(7), "web", NodeId(0)),
            Err(ClusterError::UnknownApp(AppId(7)))
        );
        // Failed scale-outs leave the cluster untouched.
        assert_eq!(cluster.container_count(), 1);
    }

    #[test]
    fn scale_in_keeps_last_instance() {
        let (mut cluster, app, inst) = one_node_cluster();
        assert!(!cluster.scale_in(inst));
        let _ = app;
        assert_eq!(cluster.container_count(), 1);
    }

    #[test]
    fn scale_in_to_zero_removes_last_instance() {
        let (mut cluster, app, inst) = one_node_cluster();
        assert!(cluster.scale_in_to_zero(inst));
        assert_eq!(cluster.container_count(), 0);
        // An empty service serves nothing but the cluster still ticks:
        // the report simply carries no container rows for it.
        let report = cluster.step(&[(app, 50.0)]);
        assert!(report.containers.is_empty());
        // Scale-out from zero restores capacity.
        let back = cluster.scale_out(app, "web", NodeId(0)).unwrap();
        assert_ne!(back, inst);
        assert_eq!(cluster.container_count(), 1);
    }

    #[test]
    fn colocated_containers_interfere() {
        let mut cluster = Cluster::new(vec![NodeSpec::m3()], 2); // 8 cores
        let a = cluster.add_app("a");
        let b = cluster.add_app("b");
        // Each wants 6 cores at full load: together they exceed the node.
        for (app, name) in [(a, "sa"), (b, "sb")] {
            cluster.add_service(
                app,
                ServiceRole {
                    name: name.into(),
                    profile: ServiceProfile::test_cpu_bound(name, 10.0),
                    fanout: 1.0,
                    limits: ContainerLimits::unlimited(),
                },
                NodeId(0),
            );
        }
        // Alone, app A at 590 rps (5.9 cores) is fine.
        let solo = cluster.step(&[(a, 590.0)]);
        assert!(solo.kpi(a).unwrap().response_ms < 200.0);
        // Together, 590 + 590 rps exceed 8 cores: both degrade.
        let mut both = None;
        for _ in 0..8 {
            both = Some(cluster.step(&[(a, 590.0), (b, 590.0)]));
        }
        let both = both.unwrap();
        assert!(both.kpi(a).unwrap().response_ms > solo.kpi(a).unwrap().response_ms * 2.0);
        assert!(both.kpi(b).unwrap().dropped_rps > 0.0);
    }

    #[test]
    fn owner_and_node_lookup() {
        let (cluster, app, inst) = one_node_cluster();
        assert_eq!(cluster.node_of(inst), Some(NodeId(0)));
        let (owner, svc) = cluster.owner_of(inst).unwrap();
        assert_eq!(owner, app);
        assert_eq!(svc, "web");
        assert_eq!(cluster.app(app).instances(), vec![inst]);
    }

    #[test]
    fn multi_service_chain_sums_response_times() {
        let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 3);
        let app = cluster.add_app("chain");
        for name in ["front", "back"] {
            cluster.add_service(
                app,
                ServiceRole {
                    name: name.into(),
                    profile: ServiceProfile::test_cpu_bound(name, 5.0),
                    fanout: 1.0,
                    limits: ContainerLimits::unlimited(),
                },
                NodeId(0),
            );
        }
        let report = cluster.step(&[(app, 10.0)]);
        let kpi = report.kpi(app).unwrap();
        // Two services, each ~5 ms base latency.
        assert!(kpi.response_ms > 9.0 && kpi.response_ms < 30.0);
    }

    #[test]
    fn time_advances() {
        let (mut cluster, app, _) = one_node_cluster();
        assert_eq!(cluster.time(), 0);
        cluster.step(&[(app, 1.0)]);
        cluster.step(&[(app, 1.0)]);
        assert_eq!(cluster.time(), 2);
    }

    // --- incremental-path invariants ---

    fn two_app_cluster(seed: u64) -> (Cluster, AppId, AppId) {
        // Four nodes: app A spans nodes 0 and 2 (two services), app B
        // lives on node 1, node 3 stays empty.
        let mut cluster = Cluster::new(
            vec![
                NodeSpec::m3(),
                NodeSpec::m2(),
                NodeSpec::m3(),
                NodeSpec::m1(),
            ],
            seed,
        );
        let a = cluster.add_app("a");
        let b = cluster.add_app("b");
        cluster.add_service(
            a,
            ServiceRole {
                name: "front".into(),
                profile: ServiceProfile::test_cpu_bound("front", 8.0),
                fanout: 1.0,
                limits: ContainerLimits::cpu(2.0),
            },
            NodeId(0),
        );
        cluster.add_service(
            a,
            ServiceRole {
                name: "back".into(),
                profile: ServiceProfile::test_cpu_bound("back", 4.0),
                fanout: 2.0,
                limits: ContainerLimits::unlimited(),
            },
            NodeId(2),
        );
        cluster.add_service(
            b,
            ServiceRole {
                name: "solo".into(),
                profile: ServiceProfile::test_cpu_bound("solo", 12.0),
                fanout: 1.0,
                limits: ContainerLimits::cpu(1.0),
            },
            NodeId(1),
        );
        (cluster, a, b)
    }

    fn assert_reports_identical(fast: &TickReport, dense: &TickReport, t: u64) {
        assert_eq!(fast.time, dense.time, "t={t}");
        assert_eq!(fast.frames.len(), dense.frames.len());
        for (f, d) in fast.frames.iter().zip(&dense.frames) {
            assert_eq!(frame_bits(f), frame_bits(d), "t={t} node {}", f.node);
        }
        assert_eq!(fast.kpis.len(), dense.kpis.len());
        for ((fa, fk), (da, dk)) in fast.kpis.iter().zip(&dense.kpis) {
            assert_eq!(fa, da);
            assert_eq!(fk.offered_rps.to_bits(), dk.offered_rps.to_bits(), "t={t}");
            assert_eq!(fk.throughput_rps.to_bits(), dk.throughput_rps.to_bits(), "t={t}");
            assert_eq!(fk.response_ms.to_bits(), dk.response_ms.to_bits(), "t={t}");
            assert_eq!(fk.dropped_rps.to_bits(), dk.dropped_rps.to_bits(), "t={t}");
        }
        assert_eq!(fast.containers.len(), dense.containers.len());
        for ((fi, ft), (di, dt)) in fast.containers.iter().zip(&dense.containers) {
            assert_eq!(fi, di, "t={t}");
            assert_eq!(ft, dt, "t={t} instance {fi}");
        }
    }

    #[test]
    fn incremental_step_matches_dense_legacy_bitwise() {
        let (mut fast, a, b) = two_app_cluster(11);
        let (mut dense, _, _) = two_app_cluster(11);
        let mut report = TickReport::empty();
        for t in 0..60u64 {
            // Constant stretches (cache-friendly), load steps, and a
            // mid-episode scale-out/in to exercise topology changes.
            let la = if t < 20 { 200.0 } else { 650.0 };
            let lb = if t % 10 < 5 { 40.0 } else { 90.0 };
            if t == 30 {
                let f = fast.scale_out(a, "front", NodeId(3)).unwrap();
                let d = dense.scale_out(a, "front", NodeId(3)).unwrap();
                assert_eq!(f, d);
            }
            if t == 45 {
                let victim = fast.app(a).instances_of("front")[1];
                assert!(fast.scale_in(victim));
                assert!(dense.scale_in(victim));
            }
            let loads = [(a, la), (b, lb)];
            fast.step_into(&loads, &mut report);
            let want = dense.step_dense_legacy(&loads);
            assert_reports_identical(&report, &want, t);
        }
        // Long constant-load tail: memory relaxation converges bitwise
        // after ~150 ticks, after which the fixed-point cache kicks in.
        for t in 60..300u64 {
            let loads = [(a, 300.0), (b, 50.0)];
            fast.step_into(&loads, &mut report);
            let want = dense.step_dense_legacy(&loads);
            assert_reports_identical(&report, &want, t);
        }
        assert!(fast.stats().cached_ticks > 0, "{:?}", fast.stats());
        assert!(dense.stats().cached_ticks == 0);
    }

    #[test]
    fn dense_and_incremental_interleave_consistently() {
        let (mut mixed, a, b) = two_app_cluster(5);
        let (mut dense, _, _) = two_app_cluster(5);
        for t in 0..12u64 {
            let loads = [(a, 120.0), (b, 60.0)];
            let want = dense.step_dense_legacy(&loads);
            let got = if t % 3 == 2 {
                mixed.step_dense_legacy(&loads)
            } else {
                mixed.step(&loads)
            };
            assert_reports_identical(&got, &want, t);
        }
    }

    #[test]
    fn settled_cluster_reuses_cached_ticks() {
        let (mut cluster, app, _) = one_node_cluster();
        for _ in 0..200 {
            cluster.step(&[(app, 50.0)]);
        }
        let before = cluster.stats();
        let first = cluster.step(&[(app, 50.0)]);
        let second = cluster.step(&[(app, 50.0)]);
        let after = cluster.stats();
        // Constant load reached the fixed point: both ticks reuse the
        // cached container tick and evaluate nothing.
        assert_eq!(after.cached_ticks - before.cached_ticks, 2, "{after:?}");
        assert_eq!(after.container_evals, before.container_evals, "{after:?}");
        let (f, s) = (first.kpi(app).unwrap(), second.kpi(app).unwrap());
        assert_eq!(f.throughput_rps.to_bits(), s.throughput_rps.to_bits());
        assert_eq!(f.response_ms.to_bits(), s.response_ms.to_bits());
    }

    #[test]
    fn report_container_lookup_is_sorted() {
        let (mut c, a, b) = two_app_cluster(3);
        c.scale_out(a, "back", NodeId(2)).unwrap();
        let report = c.step(&[(a, 100.0), (b, 30.0)]);
        assert!(report.containers.windows(2).all(|w| w[0].0 < w[1].0));
        for (id, tick) in &report.containers {
            assert_eq!(report.container(*id), Some(tick));
        }
        assert_eq!(report.container(InstanceId(999)), None);
    }
}

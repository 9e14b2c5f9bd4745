//! The per-node monitoring agent.
//!
//! One agent runs on every cloud node (paper Figure 1). Each second it
//! receives the node's signal frames from the simulator and makes one
//! pass over each scope's compiled column plan: constants, then gauges,
//! then counters, which it folds into running totals and reads back as
//! per-second rates in the same step. The result is the processed
//! per-second vectors the orchestrator trains and predicts on.

use std::collections::HashMap;
use std::sync::Arc;

use crate::catalog::{time_key, Catalog, ScopePlan};
use crate::rates::CounterTotals;
use crate::sample::{InstanceId, NodeId, Observation};
use crate::signals::{ContainerSignals, HostSignals};

/// Monitoring agent for one node.
///
/// The agent owns its per-instance counter state and collects through
/// `&mut self`: each node's agent is driven by one caller at a time
/// (the simulator's node entry), and it is `Send + Sync`, so a worker
/// pool can tick different nodes' agents on different threads.
#[derive(Debug)]
pub struct MonitoringAgent {
    node: NodeId,
    catalog: Arc<Catalog>,
    seed: u64,
    host: CounterTotals,
    containers: HashMap<InstanceId, CounterTotals>,
}

impl MonitoringAgent {
    /// Creates an agent for `node` using the given catalog and noise seed.
    pub fn new(node: NodeId, catalog: Arc<Catalog>, seed: u64) -> Self {
        MonitoringAgent {
            node,
            seed,
            host: CounterTotals::new(catalog.host_plan().counters.len()),
            containers: HashMap::new(),
            catalog,
        }
    }

    /// The node this agent monitors.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The catalog this agent expands against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Collects one second of data: evaluates every metric, accumulates
    /// counters and derives their rates, producing the processed
    /// [`Observation`].
    ///
    /// Instances that disappear (scale-in) have their counter state
    /// dropped; new instances start with a zero-rate first interval,
    /// exactly like a freshly started container.
    pub fn collect(
        &mut self,
        time: u64,
        host: &HostSignals,
        containers: &[(InstanceId, ContainerSignals)],
    ) -> Observation {
        let mut out = Observation {
            node: self.node,
            time,
            host: Vec::new(),
            containers: Vec::new(),
        };
        self.collect_into(time, host, containers, &mut out);
        out
    }

    /// [`MonitoringAgent::collect`] into `out`, reusing its buffers.
    ///
    /// Allocation-free in steady state (a stable set of container ids):
    /// the output vectors are rewritten in place, and only a new
    /// instance allocates its counter totals. The event-driven simulator
    /// calls this once per node per monitoring sample.
    pub fn collect_into(
        &mut self,
        time: u64,
        host: &HostSignals,
        containers: &[(InstanceId, ContainerSignals)],
        out: &mut Observation,
    ) {
        let _span = monitorless_obs::Span::enter("agent.collect");
        monitorless_obs::counter_add("agent.collections", 1);
        out.node = self.node;
        out.time = time;
        collect_scope(
            self.catalog.host_plan(),
            &host.slots(),
            time_key(self.seed, time),
            &mut self.host,
            &mut out.host,
        );

        // Drop state for instances that no longer exist.
        self.containers
            .retain(|id, _| containers.iter().any(|(live, _)| live == id));

        out.containers.truncate(containers.len());
        while out.containers.len() < containers.len() {
            out.containers.push((InstanceId(0), Vec::new()));
        }
        let plan = self.catalog.container_plan();
        for (slot, (id, signals)) in out.containers.iter_mut().zip(containers) {
            slot.0 = *id;
            let seed = self.seed ^ u64::from(id.0).wrapping_mul(0xA24B_AED4_963E_E407);
            let counters = self
                .containers
                .entry(*id)
                .or_insert_with(|| CounterTotals::new(plan.counters.len()));
            collect_scope(plan, &signals.slots(), time_key(seed, time), counters, &mut slot.1);
        }
    }
}

/// One pass over one scope instance: writes every metric of `plan` into
/// `out`, constants first, then gauges, then counters as rates.
fn collect_scope(
    plan: &ScopePlan,
    slots: &[f64],
    time_key: u64,
    counters: &mut CounterTotals,
    out: &mut Vec<f64>,
) {
    // The three lists cover every index, so stale values are overwritten.
    out.resize(plan.width, 0.0);
    for &(i, c) in &plan.constants {
        out[i] = c;
    }
    for col in &plan.gauges {
        out[col.index as usize] = col.value(slots, time_key);
    }
    counters.advance(&plan.counters, slots, time_key, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> MonitoringAgent {
        MonitoringAgent::new(NodeId(0), Arc::new(Catalog::standard()), 7)
    }

    #[test]
    fn collect_produces_full_vectors() {
        let mut a = agent();
        let obs =
            a.collect(0, &HostSignals::default(), &[(InstanceId(1), ContainerSignals::default())]);
        assert_eq!(obs.host.len(), 952);
        assert_eq!(obs.containers[0].1.len(), 88);
        assert_eq!(obs.instance_vector(InstanceId(1)).unwrap().len(), 1040);
    }

    #[test]
    fn counter_rates_recover_after_warmup() {
        let mut a = agent();
        let cat = Catalog::standard();
        let pswitch = cat.host_index("kernel.all.pswitch").unwrap();
        let hs = HostSignals {
            ctx_switch_rate: 1000.0,
            ..HostSignals::default()
        };
        let first = a.collect(0, &hs, &[]);
        assert_eq!(first.host[pswitch], 0.0, "first counter interval dropped");
        let second = a.collect(1, &hs, &[]);
        assert!((second.host[pswitch] - 1000.0).abs() < 150.0, "rate = {}", second.host[pswitch]);
    }

    #[test]
    fn non_finite_counter_sample_reads_zero_once() {
        // An infinite total would read inf - inf = NaN every second after,
        // so the infinite sample is dropped: that second reads 0 and the
        // next ones read the signal again.
        let mut a = agent();
        let pswitch = Catalog::standard()
            .host_index("kernel.all.pswitch")
            .unwrap();
        let read = |a: &mut MonitoringAgent, t: u64, rate: f64| {
            let hs = HostSignals {
                ctx_switch_rate: rate,
                ..HostSignals::default()
            };
            a.collect(t, &hs, &[]).host[pswitch]
        };
        assert_eq!(read(&mut a, 0, 1000.0), 0.0, "first interval");
        assert!((read(&mut a, 1, 1000.0) - 1000.0).abs() < 150.0);
        assert_eq!(read(&mut a, 2, f64::INFINITY), 0.0, "the infinite sample adds nothing");
        for t in 3..6 {
            let v = read(&mut a, t, 1000.0);
            assert!((v - 1000.0).abs() < 150.0, "t {t}: {v}");
        }
    }

    #[test]
    fn departed_instances_reset_rate_state() {
        let mut a = agent();
        let cs = ContainerSignals {
            pgfault_rate: 100.0,
            ..ContainerSignals::default()
        };
        let cat = Catalog::standard();
        let pgfault = cat.container_index("cgroup.memory.stat.pgfault").unwrap();
        a.collect(0, &HostSignals::default(), &[(InstanceId(1), cs)]);
        a.collect(1, &HostSignals::default(), &[(InstanceId(1), cs)]);
        // Instance disappears, then reappears: first interval is dropped
        // again rather than producing a huge negative/positive spike.
        a.collect(2, &HostSignals::default(), &[]);
        let back = a.collect(3, &HostSignals::default(), &[(InstanceId(1), cs)]);
        assert_eq!(back.containers[0].1[pgfault], 0.0);
    }

    #[test]
    fn collect_into_reused_buffers_match_fresh_collect() {
        let mut fresh = agent();
        let mut reused = agent();
        let mut buf = Observation {
            node: NodeId(9),
            time: 99,
            host: Vec::new(),
            containers: Vec::new(),
        };
        let cs = |v: f64| ContainerSignals {
            tcp_conns: v,
            pgfault_rate: v * 2.0,
            ..ContainerSignals::default()
        };
        // Instance set churns: grow, shrink, regrow — the reused buffers
        // must track it and stay bitwise-identical to fresh collects.
        let frames: [&[(InstanceId, ContainerSignals)]; 5] = [
            &[(InstanceId(1), cs(10.0))],
            &[(InstanceId(1), cs(11.0)), (InstanceId(2), cs(20.0))],
            &[(InstanceId(2), cs(21.0))],
            &[],
            &[(InstanceId(1), cs(12.0)), (InstanceId(3), cs(30.0))],
        ];
        for (t, frame) in frames.iter().enumerate() {
            let hs = HostSignals {
                ctx_switch_rate: 100.0 * t as f64,
                ..HostSignals::default()
            };
            let want = fresh.collect(t as u64, &hs, frame);
            reused.collect_into(t as u64, &hs, frame, &mut buf);
            assert_eq!(buf.node, want.node);
            assert_eq!(buf.time, want.time);
            assert_eq!(buf.host, want.host, "tick {t}: host vector");
            assert_eq!(buf.containers, want.containers, "tick {t}: containers");
        }
    }

    #[test]
    fn agent_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MonitoringAgent>();
    }

    #[test]
    fn different_containers_get_different_noise() {
        let mut a = agent();
        let cs = ContainerSignals {
            tcp_conns: 50.0,
            ..ContainerSignals::default()
        };
        let obs =
            a.collect(0, &HostSignals::default(), &[(InstanceId(1), cs), (InstanceId(2), cs)]);
        let cat = Catalog::standard();
        let conns = cat.container_index("containers.net.tcp.conns").unwrap();
        let v1 = obs.containers[0].1[conns];
        let v2 = obs.containers[1].1[conns];
        assert_ne!(v1, v2);
        assert!((v1 - 50.0).abs() < 5.0 && (v2 - 50.0).abs() < 5.0);
    }
}

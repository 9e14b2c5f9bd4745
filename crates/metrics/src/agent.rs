//! The per-node monitoring agent and the collector that runs one per
//! node.
//!
//! One agent runs on every cloud node (paper Figure 1). Each second it
//! receives the node's signal frame and makes one pass over each
//! scope's column plan, restricted to the columns its [`Subscription`]
//! holds: constants, then gauges, then counters, which it folds into
//! running totals and reads back as per-second rates in the same step.
//! The result is the processed per-second vectors the orchestrator
//! trains and predicts on. A full collection is the all-columns
//! subscription; there is no other collect routine.
//!
//! Collection happens on the reader's side: the simulator emits
//! [`SignalFrame`]s, and each consumer owns a [`Collector`] subscribed
//! to the columns it reads. A collected value depends only on its
//! column, the second, the node's seed and that column's own counter
//! history, so two collectors that start with the same cluster collect
//! every column they share to the same bits.

use std::sync::Arc;

use crate::catalog::{time_key, Catalog, ScopePlan};
use crate::rates::CounterTotals;
use crate::sample::{InstanceId, NodeId, Observation, SignalFrame};
use crate::signals::{ContainerSignals, HostSignals};
use crate::subscription::Subscription;

/// Monitoring agent for one node.
///
/// The agent owns its per-instance counter state, for subscribed
/// counters only, and collects through `&mut self`: each node's agent
/// is driven by one caller at a time (its collector), and it is
/// `Send + Sync`.
#[derive(Debug)]
pub struct MonitoringAgent {
    node: NodeId,
    subscription: Arc<Subscription>,
    seed: u64,
    host: CounterTotals,
    /// Counter totals per tracked instance, ascending by id.
    containers: Vec<(InstanceId, CounterTotals)>,
    /// The next second's `containers`, built by merging the frame's ids
    /// with the tracked ones; kept to reuse its allocation.
    merged: Vec<(InstanceId, CounterTotals)>,
}

impl MonitoringAgent {
    /// Creates an agent for `node` that collects every column of
    /// `catalog`, with the given noise seed.
    pub fn new(node: NodeId, catalog: Arc<Catalog>, seed: u64) -> Self {
        Self::subscribed(node, Arc::new(Subscription::all(&catalog)), seed)
    }

    /// Creates an agent for `node` that collects the columns of
    /// `subscription`, with the given noise seed.
    pub fn subscribed(node: NodeId, subscription: Arc<Subscription>, seed: u64) -> Self {
        MonitoringAgent {
            node,
            seed,
            host: CounterTotals::new(subscription.host_plan().counters.len()),
            containers: Vec::new(),
            merged: Vec::new(),
            subscription,
        }
    }

    /// The node this agent monitors.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Running counter totals the agent holds: one per subscribed host
    /// counter, plus one per subscribed container counter of each
    /// instance it tracks.
    pub fn counter_state(&self) -> usize {
        self.host.len() + self.containers.iter().map(|(_, c)| c.len()).sum::<usize>()
    }

    /// Collects one second of data: evaluates every subscribed metric,
    /// accumulates counters and derives their rates, producing the
    /// processed [`Observation`].
    ///
    /// `containers` lists instances in strictly ascending id order, as
    /// a [`SignalFrame`] does. Instances that disappear (scale-in) have
    /// their counter state dropped; new instances start with a
    /// zero-rate first interval, exactly like a freshly started
    /// container.
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
            subscription: None,
        };
        self.collect_into(time, host, containers, &mut out);
        out
    }

    /// [`MonitoringAgent::collect`] into `out`, reusing its buffers.
    ///
    /// Only subscribed cells are written. `out`'s vectors are resized to
    /// the catalog widths, cells a resize adds reading NaN, so a buffer
    /// the agent keeps reusing reads NaN in every unsubscribed cell.
    /// Allocation-free in steady state (a stable set of container ids):
    /// only a new instance allocates its counter totals.
    pub fn collect_into(
        &mut self,
        time: u64,
        host: &HostSignals,
        containers: &[(InstanceId, ContainerSignals)],
        out: &mut Observation,
    ) {
        let _span = monitorless_obs::Span::enter("agent.collect");
        monitorless_obs::counter_add("agent.collections", 1);
        let sub = &*self.subscription;
        monitorless_obs::counter_add("agent.cells", sub.cells(containers.len()) as u64);
        out.node = self.node;
        out.time = time;
        if !out
            .subscription
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s, &self.subscription))
        {
            out.subscription = Some(Arc::clone(&self.subscription));
        }
        collect_scope(
            sub.host_plan(),
            &host.slots(),
            time_key(self.seed, time),
            &mut self.host,
            &mut out.host,
        );

        debug_assert!(
            containers.windows(2).all(|w| w[0].0 < w[1].0),
            "container ids must be strictly ascending"
        );
        out.containers.truncate(containers.len());
        while out.containers.len() < containers.len() {
            out.containers.push((InstanceId(0), Vec::new()));
        }
        // One merge of the second's ascending ids with the tracked ones:
        // a tracked instance the second skips over is gone, and its state
        // is dropped, so the next time it appears it starts fresh.
        let plan = sub.container_plan();
        let mut tracked = self.containers.drain(..).peekable();
        for (slot, (id, signals)) in out.containers.iter_mut().zip(containers) {
            while tracked.next_if(|(t, _)| t < id).is_some() {}
            let counters = match tracked.next_if(|(t, _)| t == id) {
                Some((_, counters)) => counters,
                None => CounterTotals::new(plan.counters.len()),
            };
            self.merged.push((*id, counters));
            let counters = &mut self.merged.last_mut().expect("just pushed").1;
            slot.0 = *id;
            let seed = self.seed ^ u64::from(id.0).wrapping_mul(0xA24B_AED4_963E_E407);
            collect_scope(plan, &signals.slots(), time_key(seed, time), counters, &mut slot.1);
        }
        drop(tracked);
        std::mem::swap(&mut self.containers, &mut self.merged);
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
    out.resize(plan.width, f64::NAN);
    for &(i, c) in &plan.constants {
        out[i] = c;
    }
    for col in &plan.gauges {
        out[col.index as usize] = col.value(slots, time_key);
    }
    counters.advance(&plan.counters, slots, time_key, out);
}

/// The monitoring agents of a cluster, one per node, collecting one
/// [`Subscription`]'s columns from each second's [`SignalFrame`]s.
///
/// A node's agent starts at the first frame the collector sees from it.
/// A collector that joins a node after its first second therefore
/// starts that node's counters at its own first collection (a first
/// interval of 0), as a freshly attached PCP client would; a collector
/// built with its cluster reads every column exactly as any other
/// collector built then does.
#[derive(Debug)]
pub struct Collector {
    subscription: Arc<Subscription>,
    /// One agent per node seen, ascending by node id.
    agents: Vec<MonitoringAgent>,
    cells: u64,
}

impl Collector {
    /// A collector of `subscription`'s columns that has seen no node.
    pub fn new(subscription: Arc<Subscription>) -> Self {
        Collector {
            subscription,
            agents: Vec::new(),
            cells: 0,
        }
    }

    /// A collector of every column of `catalog`.
    pub fn full(catalog: &Catalog) -> Self {
        Self::new(Arc::new(Subscription::all(catalog)))
    }

    /// The columns this collector collects.
    pub fn subscription(&self) -> &Arc<Subscription> {
        &self.subscription
    }

    /// Cells evaluated and noise-hashed so far: this collector's share
    /// of the `agent.cells` counter.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The agent of `node`, if the collector has seen it.
    pub fn agent(&self, node: NodeId) -> Option<&MonitoringAgent> {
        let k = self
            .agents
            .binary_search_by_key(&node, MonitoringAgent::node)
            .ok()?;
        Some(&self.agents[k])
    }

    /// Collects second `time` of every node in `frames` into `out`, one
    /// observation per frame in frame order. `out`'s observations are
    /// rewritten in place, so a caller that keeps passing the same
    /// vector collects allocation-free in steady state, and reads NaN in
    /// every unsubscribed cell.
    pub fn collect_into(&mut self, time: u64, frames: &[SignalFrame], out: &mut Vec<Observation>) {
        out.truncate(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            let k = match self.agents.get(i) {
                Some(a) if a.node() == frame.node => i,
                _ => match self
                    .agents
                    .binary_search_by_key(&frame.node, MonitoringAgent::node)
                {
                    Ok(k) => k,
                    Err(k) => {
                        let agent = MonitoringAgent::subscribed(
                            frame.node,
                            Arc::clone(&self.subscription),
                            frame.seed,
                        );
                        self.agents.insert(k, agent);
                        k
                    }
                },
            };
            if i == out.len() {
                out.push(Observation {
                    node: frame.node,
                    time,
                    host: Vec::new(),
                    containers: Vec::new(),
                    subscription: None,
                });
            }
            self.cells += self.subscription.cells(frame.containers.len()) as u64;
            self.agents[k].collect_into(time, &frame.host, &frame.containers, &mut out[i]);
        }
    }

    /// [`Collector::collect_into`] into fresh observations.
    pub fn collect(&mut self, time: u64, frames: &[SignalFrame]) -> Vec<Observation> {
        let mut out = Vec::with_capacity(frames.len());
        self.collect_into(time, frames, &mut out);
        out
    }
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
            subscription: None,
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

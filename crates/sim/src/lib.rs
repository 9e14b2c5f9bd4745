//! Discrete-time cloud/container simulator for the *monitorless*
//! reproduction.
//!
//! The paper's substrate is a physical testbed (HP ProLiant servers,
//! Docker, cgroups, CloudSuite services). This crate replaces it with an
//! explicit resource/queueing model that produces, per monitored second,
//! exactly what the real testbed produced:
//!
//! * per-node **host signals** and per-container **container signals**
//!   (expanded to the full 1040-metric PCP catalog by
//!   [`monitorless_metrics`]);
//! * per-application **KPIs**: achieved throughput, average end-to-end
//!   response time, dropped and failed requests.
//!
//! The model captures the phenomena the classifier must learn:
//!
//! * **cgroup-style limits** — a container's CPU capacity is the minimum
//!   of its core limit and its fair share of the node; exceeding the CPU
//!   limit shows up as cgroup throttling, exceeding the memory limit as
//!   cache misses that spill to disk (page thrashing);
//! * **queueing** — response time grows hyperbolically with utilization
//!   (`R = S / (1 − ρ)`); a bounded backlog queue produces drops and
//!   3-second timeouts at overload, exactly the latency effects that
//!   motivate the paper's lagged `F1_k` metrics;
//! * **co-location interference** — containers on the same node contend
//!   for host CPU, disk bandwidth and network capacity;
//! * **multi-service applications** — requests fan out over service
//!   chains (TeaStore's 7 services, Sockshop's 14), so the application
//!   KPI degrades when *any* service on the critical path saturates.
//!
//! [`apps`] provides calibrated service profiles for every system the
//! paper uses: Solr, Memcache, Cassandra (training), and the Elgg
//! three-tier stack, TeaStore and Sockshop (evaluation).
//!
//! Two execution modes share one engine. [`Cluster::step`] advances one
//! second incrementally (fixed-point container caching, per-node
//! contention factors, node-parallel evaluation);
//! [`Cluster::step_dense_legacy`] is the original dense per-second loop,
//! kept as the equivalence oracle. [`event::EventSim`] drives the
//! cluster from one event queue — load change points, scheduled scale
//! actions, monitoring samples — with a monitoring-boundary report
//! stream that is bit-identical to the dense loop's.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod container;
pub mod engine;
pub mod error;
pub mod event;
pub mod kpi;
pub mod resources;
pub mod service;

pub use container::{Bottleneck, Container, ContainerState};
pub use engine::{AppId, Application, Cluster, ServiceRole, SimStats, TickReport};
pub use error::ClusterError;
pub use event::{EventSim, EventStats, ScaleOutcome};
pub use kpi::AppKpi;
pub use resources::{ContainerLimits, NodeSpec};
pub use service::ServiceProfile;

//! PCP-style platform-metric model for the *monitorless* reproduction.
//!
//! The paper collects **1040 platform metrics** with Performance Co-Pilot:
//! 952 scoped to the host and 88 scoped to each container (Section 3.3).
//! This crate reproduces that contract:
//!
//! * a [`catalog::Catalog`] of metric definitions with PCP-like
//!   names (`kernel.all.pswitch`, `network.tcp.currestab`,
//!   `cgroup.cpusched.throttled`, …), each tagged with a
//!   [`kind::MetricKind`] (counter / gauge / utilization /
//!   bytes / constant) and a [`kind::Scope`];
//! * the *signal* layer ([`signals`]): ~50 physically meaningful host and
//!   container quantities that a workload simulator computes every second,
//!   from which the full 1040-metric vector is expanded deterministically
//!   (per-device shares plus reproducible measurement noise) — mirroring
//!   how most real PCP metrics are per-device refinements of a few
//!   underlying quantities;
//! * a [`agent::MonitoringAgent`] that assembles, per second, one host
//!   vector plus one vector per running container, which concatenate
//!   into the per-instance metric vector `M_{I,t}`. It makes one pass
//!   per scope over the catalog's compiled column plan (constants,
//!   gauges, counters) and gives counters their PCP semantics in the
//!   same step: each counter column's running total grows by the
//!   second's value and is differentiated back to a per-second rate,
//!   the paper's "convert counters into rates" preprocessing step;
//! * a [`subscription::Subscription`] of the columns a consumer reads,
//!   and an [`agent::Collector`] that runs one agent per node over the
//!   simulator's [`sample::SignalFrame`]s and evaluates only those
//!   columns (every column for a full collection).
//!
//! ```
//! use monitorless_metrics::catalog::Catalog;
//!
//! let catalog = Catalog::standard();
//! assert_eq!(catalog.host_len(), 952);
//! assert_eq!(catalog.container_len(), 88);
//! assert_eq!(catalog.len(), 1040);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod catalog;
pub mod kind;
mod rates;
pub mod sample;
pub mod signals;
pub mod subscription;

pub use agent::{Collector, MonitoringAgent};
pub use catalog::{Catalog, MetricDef};
pub use kind::{MetricKind, Scope};
pub use sample::{InstanceId, NodeId, Observation, SignalFrame};
pub use signals::{ContainerSignals, HostSignals};
pub use subscription::Subscription;

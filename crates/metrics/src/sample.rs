//! Sample types exchanged between the simulator, the agents and the
//! orchestrator.

use std::sync::Arc;

use crate::signals::{ContainerSignals, HostSignals};
use crate::subscription::Subscription;

/// Identifier of a cloud node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of one service instance (container).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "instance{}", self.0)
    }
}

/// One second of one node's signals, before any metric is collected:
/// what a node hands its monitoring agents.
///
/// A [`crate::agent::Collector`] turns a frame into an [`Observation`]
/// of the columns it subscribes to.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalFrame {
    /// The node.
    pub node: NodeId,
    /// The node's measurement-noise seed.
    pub seed: u64,
    /// Host signals.
    pub host: HostSignals,
    /// Signals of each running container, in ascending instance order.
    pub containers: Vec<(InstanceId, ContainerSignals)>,
}

/// One second of processed monitoring data from one node: the host
/// metric vector plus one container vector per running instance.
///
/// Vectors are as wide as the catalog's scopes. An observation collected
/// under a [`Subscription`] records it: only its columns are written,
/// and [`Observation::host_value`] and [`Observation::container_value`]
/// read every other column as missing. A collector's own buffers hold
/// NaN there.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Node the observation came from.
    pub node: NodeId,
    /// Timestamp in seconds since experiment start.
    pub time: u64,
    /// Processed host metrics (rates already derived).
    pub host: Vec<f64>,
    /// Processed container metrics per instance.
    pub containers: Vec<(InstanceId, Vec<f64>)>,
    /// The columns the observation was collected under; `None` means
    /// every column, as in a hand-built observation.
    pub subscription: Option<Arc<Subscription>>,
}

impl Observation {
    /// Host column `i`, or `None` when it is beyond the vector or was
    /// not collected.
    pub fn host_value(&self, i: usize) -> Option<f64> {
        let present = self.subscription.as_deref().is_none_or(|s| s.has_host(i));
        self.host.get(i).copied().filter(|_| present)
    }

    /// Container column `i` of the `k`th container entry, or `None` when
    /// either is out of range or the column was not collected.
    pub fn container_value(&self, k: usize, i: usize) -> Option<f64> {
        let present = self
            .subscription
            .as_deref()
            .is_none_or(|s| s.has_container(i));
        let (_, ctr) = self.containers.get(k)?;
        ctr.get(i).copied().filter(|_| present)
    }

    /// The concatenated per-instance vector `M_{I,t}` = host ++ container
    /// for the given instance, or `None` if the instance is not present.
    ///
    /// Multiple containers on the same node share the host part but have
    /// different container parts (paper Section 2.3).
    pub fn instance_vector(&self, instance: InstanceId) -> Option<Vec<f64>> {
        self.containers
            .iter()
            .find(|(id, _)| *id == instance)
            .map(|(_, ctr)| {
                let mut v = self.host.clone();
                v.extend_from_slice(ctr);
                v
            })
    }

    /// [`Observation::instance_vector`] into a caller-provided buffer
    /// (cleared and refilled), avoiding the per-call allocation on the
    /// orchestrator's tick path. Returns `false` — leaving `buf` empty —
    /// when the instance is not part of this observation.
    pub fn instance_vector_into(&self, instance: InstanceId, buf: &mut Vec<f64>) -> bool {
        buf.clear();
        let Some((_, ctr)) = self.containers.iter().find(|(id, _)| *id == instance) else {
            return false;
        };
        buf.extend_from_slice(&self.host);
        buf.extend_from_slice(ctr);
        true
    }

    /// [`Observation::instance_vector`] written straight into a
    /// caller-provided slice — the zero-copy dataset-assembly path,
    /// where `out` is the row's final resting place inside the
    /// training matrix and no intermediate `Vec` ever exists. Returns
    /// `false` — leaving `out` untouched — when the instance is not
    /// part of this observation.
    ///
    /// # Panics
    ///
    /// Panics if the instance is present and `out.len()` differs from
    /// the host + container vector width.
    pub fn instance_vector_write(&self, instance: InstanceId, out: &mut [f64]) -> bool {
        let Some((_, ctr)) = self.containers.iter().find(|(id, _)| *id == instance) else {
            return false;
        };
        let (host_part, ctr_part) = out.split_at_mut(self.host.len());
        host_part.copy_from_slice(&self.host);
        ctr_part.copy_from_slice(ctr);
        true
    }

    /// All instances present in this observation.
    pub fn instances(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.containers.iter().map(|(id, _)| *id)
    }

    /// Number of container entries (instances) in this observation.
    pub fn n_instances(&self) -> usize {
        self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_vector_concatenates() {
        let obs = Observation {
            node: NodeId(0),
            time: 3,
            host: vec![1.0, 2.0],
            containers: vec![(InstanceId(7), vec![3.0]), (InstanceId(8), vec![4.0])],
            subscription: None,
        };
        assert_eq!(obs.instance_vector(InstanceId(7)).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(obs.instance_vector(InstanceId(8)).unwrap(), vec![1.0, 2.0, 4.0]);
        assert!(obs.instance_vector(InstanceId(9)).is_none());
        assert_eq!(obs.instances().count(), 2);
        // Buffer-reuse variant matches, including stale-content reset.
        let mut buf = vec![99.0; 7];
        assert!(obs.instance_vector_into(InstanceId(8), &mut buf));
        assert_eq!(buf, vec![1.0, 2.0, 4.0]);
        assert!(!obs.instance_vector_into(InstanceId(9), &mut buf));
        assert!(buf.is_empty());
        // Slice-write variant matches and leaves misses untouched.
        let mut row = [0.0; 3];
        assert!(obs.instance_vector_write(InstanceId(7), &mut row));
        assert_eq!(row, [1.0, 2.0, 3.0]);
        assert!(!obs.instance_vector_write(InstanceId(9), &mut row));
        assert_eq!(row, [1.0, 2.0, 3.0]);
        assert_eq!(obs.n_instances(), 2);
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(2).to_string(), "node2");
        assert_eq!(InstanceId(5).to_string(), "instance5");
    }
}

//! Column subscriptions: which metrics a collector evaluates.
//!
//! A consumer rarely reads all 1040 metrics. The orchestrator's fitted
//! pipeline reads about a tenth of them, so its collector subscribes to
//! those columns only and a collection evaluates, noise-hashes and
//! rate-converts nothing else. A [`Subscription`] is a host column set
//! and a container column set over one catalog, each compiled once into
//! the catalog's column plan restricted to the set. A restricted plan
//! keeps each column's catalog order and noise key, and a counter's
//! running total depends on its own column alone, so a subscribed
//! column collects to the same bits as in a full collection.

use crate::catalog::{Catalog, ScopePlan};

/// A set of host and container columns of one catalog, with the
/// catalog's collection plans restricted to it.
#[derive(Clone, PartialEq)]
pub struct Subscription {
    /// Presence bit per host column.
    host: Vec<bool>,
    /// Presence bit per container column.
    container: Vec<bool>,
    /// Every presence bit is set.
    full: bool,
    host_plan: ScopePlan,
    container_plan: ScopePlan,
}

impl Subscription {
    /// Every column of `catalog`: a full collection.
    pub fn all(catalog: &Catalog) -> Self {
        Self::new(catalog, 0..catalog.host_len(), 0..catalog.container_len())
    }

    /// The given host and container columns of `catalog` (indices within
    /// each scope; repeats are harmless).
    ///
    /// # Panics
    ///
    /// Panics if an index is beyond its scope's width.
    pub fn new(
        catalog: &Catalog,
        host: impl IntoIterator<Item = usize>,
        container: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mark = |width: usize, cols: &mut dyn Iterator<Item = usize>, scope: &str| {
            let mut bits = vec![false; width];
            for c in cols {
                assert!(c < width, "{scope} column {c} is beyond the {scope} width {width}");
                bits[c] = true;
            }
            bits
        };
        let host = mark(catalog.host_len(), &mut host.into_iter(), "host");
        let container = mark(catalog.container_len(), &mut container.into_iter(), "container");
        Subscription {
            full: host.iter().chain(&container).all(|&b| b),
            host_plan: catalog.host_plan().subset(&host),
            container_plan: catalog.container_plan().subset(&container),
            host,
            container,
        }
    }

    /// Whether every column is subscribed.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether host column `i` is subscribed (`false` beyond the width).
    pub fn has_host(&self, i: usize) -> bool {
        self.host.get(i).copied().unwrap_or(false)
    }

    /// Whether container column `i` is subscribed (`false` beyond the
    /// width).
    pub fn has_container(&self, i: usize) -> bool {
        self.container.get(i).copied().unwrap_or(false)
    }

    /// The subscribed host columns, ascending.
    pub fn host_columns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.host.len()).filter(|&i| self.host[i])
    }

    /// The subscribed container columns, ascending.
    pub fn container_columns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.container.len()).filter(|&i| self.container[i])
    }

    /// Cells one collection evaluates and noise-hashes for a node with
    /// `containers` instances: the subscribed signal-driven columns of
    /// the host and of each container (constants are copied).
    pub fn cells(&self, containers: usize) -> usize {
        self.host_plan.cells() + containers * self.container_plan.cells()
    }

    /// The host plan restricted to the subscription.
    pub(crate) fn host_plan(&self) -> &ScopePlan {
        &self.host_plan
    }

    /// The container plan restricted to the subscription.
    pub(crate) fn container_plan(&self) -> &ScopePlan {
        &self.container_plan
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = |bits: &[bool]| bits.iter().filter(|&&b| b).count();
        f.debug_struct("Subscription")
            .field("host", &format_args!("{}/{}", count(&self.host), self.host.len()))
            .field(
                "container",
                &format_args!("{}/{}", count(&self.container), self.container.len()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_keeps_the_catalog_plans() {
        let c = Catalog::standard();
        let all = Subscription::all(&c);
        assert!(all.is_full());
        assert!(all.host_plan() == c.host_plan());
        assert!(all.container_plan() == c.container_plan());
        // 25 host constants are copied, not evaluated.
        assert_eq!(all.cells(0), 927);
        assert_eq!(all.cells(2), 927 + 2 * 88);
        assert_eq!(all.host_plan().counters.len(), 369);
        assert_eq!(all.container_plan().counters.len(), 49);
    }

    #[test]
    fn subset_plans_keep_only_the_subscribed_columns() {
        let c = Catalog::standard();
        let pswitch = c.host_index("kernel.all.pswitch").unwrap();
        let ncpu = c.host_index("hinv.ncpu").unwrap();
        let util = c.container_index("containers.cpu.util").unwrap();
        let s = Subscription::new(&c, [pswitch, ncpu, pswitch], [util]);
        assert!(!s.is_full());
        assert_eq!(s.host_columns().collect::<Vec<_>>(), vec![ncpu, pswitch]);
        assert_eq!(s.container_columns().collect::<Vec<_>>(), vec![util]);
        assert!(s.has_host(pswitch) && !s.has_host(pswitch + 1) && !s.has_host(5000));
        assert!(s.has_container(util) && !s.has_container(88));
        assert_eq!(s.host_plan().constants, vec![(ncpu, 48.0)]);
        assert_eq!(s.cells(3), 1 + 3);
        assert_eq!(s.host_plan().counters.len(), 1);
        assert!(s.container_plan().counters.is_empty());
        let none = Subscription::new(&c, [], []);
        assert_eq!(none.cells(10), 0);
        assert_eq!(none.host_columns().count(), 0);
    }

    #[test]
    #[should_panic(expected = "container column 88 is beyond the container width 88")]
    fn out_of_range_column_panics() {
        let c = Catalog::standard();
        Subscription::new(&c, [], [88]);
    }
}

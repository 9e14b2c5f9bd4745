//! Counter-to-rate conversion.
//!
//! PCP reports most kernel metrics as monotonically increasing counters;
//! the paper's first preprocessing step converts them to per-second rates
//! (Section 3.1). The agent plays both sides in one step per counter
//! column: it adds the second's value to the column's running total, as
//! the kernel's counter does, and reads the rate back as the total's
//! growth since the previous sample, as a monitoring agent does. The
//! previous sample is the total before this second's add, so the running
//! total is the only state a counter keeps.

use crate::catalog::Column;

/// Running totals of one host's or one container's counter columns.
#[derive(Debug)]
pub(crate) struct CounterTotals {
    totals: Vec<f64>,
    /// A previous sample exists. Without one every rate reads 0, as
    /// monitoring agents discard the first interval.
    primed: bool,
}

impl CounterTotals {
    /// Zeroed totals for `counters` columns, before the first sample.
    pub(crate) fn new(counters: usize) -> Self {
        CounterTotals {
            totals: vec![0.0; counters],
            primed: false,
        }
    }

    /// Number of counter columns held.
    pub(crate) fn len(&self) -> usize {
        self.totals.len()
    }

    /// Folds one second of the counter `columns` into the totals and
    /// writes each column's rate into `out` at the column's index.
    ///
    /// A column's value is never negative or NaN (the catalog formula
    /// clamps at 0), so no total decreases. A value that would make its
    /// total non-finite is dropped: that interval reads 0, and the next
    /// one reads the signal again.
    pub(crate) fn advance(
        &mut self,
        columns: &[Column],
        slots: &[f64],
        time_key: u64,
        out: &mut [f64],
    ) {
        let primed = std::mem::replace(&mut self.primed, true);
        for (col, total) in columns.iter().zip(&mut self.totals) {
            let next = *total + col.value(slots, time_key);
            let mut rate = 0.0;
            if next.is_finite() {
                rate = next - *total;
                *total = next;
            }
            out[col.index as usize] = if primed { rate } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::agent::MonitoringAgent;
    use crate::catalog::{time_key, Catalog};
    use crate::kind::MetricKind;
    use crate::sample::{InstanceId, NodeId};
    use crate::signals::{ContainerSignals, HostSignals};

    #[test]
    fn accumulate_then_differentiate_roundtrips() {
        let catalog = Arc::new(Catalog::standard());
        let mut agent = MonitoringAgent::new(NodeId(0), Arc::clone(&catalog), 3);
        let kinds: Vec<_> = catalog.host_metrics().iter().map(|m| m.kind).collect();
        for (t, rate) in [10.0, 20.0, 30.0].into_iter().enumerate() {
            let hs = HostSignals {
                ctx_switch_rate: rate,
                syscall_rate: 2.0 * rate,
                load1: rate / 10.0,
                ..HostSignals::default()
            };
            let got = agent.collect(t as u64, &hs, &[]).host;
            let want = catalog.expand_host(&hs, t as u64, 3);
            for ((&g, &w), kind) in got.iter().zip(&want).zip(&kinds) {
                match kind {
                    // The first counter interval is dropped; later ones
                    // recover the second's value up to the rounding of
                    // the running total.
                    MetricKind::Counter if t == 0 => assert_eq!(g, 0.0),
                    MetricKind::Counter => assert!((g - w).abs() <= 1e-9 * w, "{g} vs {w}"),
                    _ => assert_eq!(g.to_bits(), w.to_bits()),
                }
            }
        }
    }

    #[test]
    fn counters_are_monotone() {
        let catalog = Catalog::standard();
        let columns = &catalog.host_plan().counters;
        let mut counters = CounterTotals::new(columns.len());
        let mut out = vec![0.0; catalog.host_len()];
        for (t, rate) in [
            3.0,
            1.0,
            -50.0,
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            2.0,
        ]
        .into_iter()
        .enumerate()
        {
            let before = counters.totals.clone();
            let hs = HostSignals {
                ctx_switch_rate: rate,
                pgfault_rate: -rate,
                net_in_bytes: rate * 1e6,
                ..HostSignals::default()
            };
            counters.advance(columns, &hs.slots(), time_key(5, t as u64), &mut out);
            for (b, a) in before.iter().zip(&counters.totals) {
                assert!(a >= b && a.is_finite(), "t {t}: {b} -> {a}");
            }
        }
    }

    #[test]
    fn counter_reset_yields_zero_rate() {
        // A total that would overflow is the one way a running counter
        // could wrap: that interval reads 0 instead of inf, the total
        // keeps its value, and the next interval reads the signal again.
        let catalog = Catalog::standard();
        let columns = &catalog.host_plan().counters;
        let pswitch = catalog.host_index("kernel.all.pswitch").unwrap();
        let mut counters = CounterTotals::new(columns.len());
        let mut out = vec![0.0; catalog.host_len()];
        let mut rate_at = |t: u64, rate: f64| {
            let hs = HostSignals {
                ctx_switch_rate: rate,
                ..HostSignals::default()
            };
            counters.advance(columns, &hs.slots(), time_key(1, t), &mut out);
            out[pswitch]
        };
        assert_eq!(rate_at(0, 1e308), 0.0, "first interval");
        assert!(rate_at(1, 1e307) > 0.0);
        assert_eq!(rate_at(2, 1e308), 0.0, "overflowing interval");
        let after = rate_at(3, 1e307);
        assert!(after > 0.0 && after.is_finite(), "{after}");
    }

    #[test]
    fn reset_forgets_history() {
        // A container that departs and returns starts from fresh totals:
        // its first interval back reads 0 on every counter, and from then
        // on it reads exactly as a container the agent never saw before.
        let catalog = Arc::new(Catalog::standard());
        let mut agent = MonitoringAgent::new(NodeId(0), Arc::clone(&catalog), 3);
        let mut fresh = MonitoringAgent::new(NodeId(0), Arc::clone(&catalog), 3);
        let columns = &catalog.container_plan().counters;
        let hs = HostSignals::default();
        let id = InstanceId(1);
        let cs = |t: u64| ContainerSignals {
            throttled_rate: 5.0 + t as f64,
            periods_rate: 10.0,
            pgfault_rate: 100.0 * (t + 1) as f64,
            net_in_bytes: 1e6,
            net_out_bytes: 2e6,
            ..ContainerSignals::default()
        };
        agent.collect(0, &hs, &[(id, cs(0))]);
        let before = agent.collect(1, &hs, &[(id, cs(1))]);
        assert!(columns
            .iter()
            .any(|c| before.containers[0].1[c.index as usize] > 0.0));
        agent.collect(2, &hs, &[]);
        fresh.collect(2, &hs, &[]);
        for t in 3..5 {
            let got = agent.collect(t, &hs, &[(id, cs(t))]);
            let want = fresh.collect(t, &hs, &[(id, cs(t))]);
            if t == 3 {
                for col in columns {
                    assert_eq!(
                        got.containers[0].1[col.index as usize], 0.0,
                        "column {}",
                        col.index
                    );
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.containers[0].1), bits(&want.containers[0].1), "t {t}");
        }
    }
}

//! Metric kinds and scopes.

/// What a metric measures and therefore how it must be preprocessed
/// before reaching the model (paper Sections 3.1 and 3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotonically increasing counter; must be converted to a
    /// per-second rate.
    Counter,
    /// Instantaneous value with no special scaling.
    Gauge,
    /// Value already on a relative 0–100% scale.
    Utilization,
    /// Byte-valued quantity with no known maximum; log-scaled to
    /// emphasize magnitude over absolute value (Section 3.3.2).
    Bytes,
    /// Hardware-inventory constant (e.g. `hinv.ncpu`).
    Constant,
}

impl MetricKind {
    /// Applies the kind-specific scaling used before model training.
    ///
    /// Counters are assumed to have already been converted to rates by
    /// the [`crate::agent::MonitoringAgent`]; byte-valued metrics are
    /// compressed to `log10(1 + v)`.
    pub fn preprocess(self, v: f64) -> f64 {
        match self {
            MetricKind::Bytes => (1.0 + v.max(0.0)).log10(),
            MetricKind::Counter
            | MetricKind::Gauge
            | MetricKind::Utilization
            | MetricKind::Constant => v,
        }
    }
}

/// Whether a metric describes the host or one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Host-level metric (952 in the standard catalog); shared by every
    /// container on the node at a given time.
    Host,
    /// Container-level metric (88 in the standard catalog); specific to
    /// one service instance.
    Container,
}

monitorless_std::json_enum!(MetricKind {
    Counter,
    Gauge,
    Utilization,
    Bytes,
    Constant,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_are_log_scaled() {
        assert_eq!(MetricKind::Bytes.preprocess(0.0), 0.0);
        assert!((MetricKind::Bytes.preprocess(999.0) - 3.0).abs() < 1e-12);
        // Negative transient values are clamped before the log.
        assert_eq!(MetricKind::Bytes.preprocess(-5.0), 0.0);
    }

    #[test]
    fn non_bytes_pass_through() {
        for kind in [
            MetricKind::Counter,
            MetricKind::Gauge,
            MetricKind::Utilization,
            MetricKind::Constant,
        ] {
            assert_eq!(kind.preprocess(42.5), 42.5);
        }
    }
}

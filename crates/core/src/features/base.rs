//! Stage 1: kind-aware scaling and binary level features.

use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::kind::MetricKind;

use crate::Error;

/// Layout of the raw concatenated metric vector: names, kinds and the
/// indices of the four utilization metrics that drive the binary
/// features.
#[derive(Debug, Clone, PartialEq)]
pub struct RawLayout {
    names: Vec<String>,
    kinds: Vec<MetricKind>,
    host_cpu_idle: usize,
    host_mem_util: usize,
    ctr_cpu_util: usize,
    ctr_mem_util: usize,
}

impl RawLayout {
    /// Builds the layout from the standard catalog.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] if the catalog is missing one of the
    /// utilization metrics (cannot happen for [`Catalog::standard`]).
    pub fn from_catalog(catalog: &Catalog) -> Result<Self, Error> {
        let need = |opt: Option<usize>, name: &str| {
            opt.ok_or_else(|| Error::Invalid(format!("catalog is missing {name}")))
        };
        Ok(RawLayout {
            names: catalog.concat_names(),
            kinds: catalog.concat_kinds(),
            host_cpu_idle: need(catalog.host_index("kernel.all.cpu.idle"), "kernel.all.cpu.idle")?,
            host_mem_util: need(catalog.host_index("mem.util.used"), "mem.util.used")?,
            ctr_cpu_util: need(
                catalog.concat_container_index("containers.cpu.util"),
                "containers.cpu.util",
            )?,
            ctr_mem_util: need(
                catalog.concat_container_index("containers.mem.util"),
                "containers.mem.util",
            )?,
        })
    }

    /// The layout's decode contract: one kind per name, and every
    /// utilization index inside the raw width, so expanding a raw
    /// vector of `raw_len` metrics cannot index out of bounds.
    ///
    /// # Errors
    ///
    /// The message naming the first violation.
    pub(crate) fn check(&self) -> Result<(), String> {
        let n = self.names.len();
        if self.kinds.len() != n {
            return Err(format!("raw layout has {} kinds for {n} names", self.kinds.len()));
        }
        for (what, i) in [
            ("host_cpu_idle", self.host_cpu_idle),
            ("host_mem_util", self.host_mem_util),
            ("ctr_cpu_util", self.ctr_cpu_util),
            ("ctr_mem_util", self.ctr_mem_util),
        ] {
            if i >= n {
                return Err(format!("raw layout's {what} index {i} is beyond the raw width {n}"));
            }
        }
        Ok(())
    }

    /// Number of raw metrics.
    pub fn raw_len(&self) -> usize {
        self.names.len()
    }

    /// Number of host metrics: the leading names, before the first
    /// `ctr.`-prefixed container metric of [`Catalog::concat_names`].
    pub(crate) fn host_len(&self) -> usize {
        self.names
            .iter()
            .position(|n| n.starts_with("ctr."))
            .unwrap_or(self.names.len())
    }

    /// Raw metric names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Host CPU utilization (%) from a raw vector.
    pub fn host_cpu_util(&self, raw: &[f64]) -> f64 {
        (100.0 - raw[self.host_cpu_idle]).clamp(0.0, 100.0)
    }

    /// Host memory utilization (%) from a raw vector.
    pub fn host_mem_util(&self, raw: &[f64]) -> f64 {
        raw[self.host_mem_util].clamp(0.0, 100.0)
    }

    /// Container CPU utilization (%) from a raw vector.
    pub fn ctr_cpu_util(&self, raw: &[f64]) -> f64 {
        raw[self.ctr_cpu_util].clamp(0.0, 100.0)
    }

    /// Container memory utilization (%) from a raw vector.
    pub fn ctr_mem_util(&self, raw: &[f64]) -> f64 {
        raw[self.ctr_mem_util].clamp(0.0, 100.0)
    }
}

/// Names and thresholds of the 16 binary features (Section 3.3.1): LOW /
/// MED / HIGH for CPU and memory at both scopes, plus VERYHIGH and
/// EXTREME for CPU. `H-`/`C-` prefixes denote host/container scope, as
/// in Table 4 of the paper.
pub const BINARY_FEATURES: [(&str, BinarySource, BinaryLevel); 16] = [
    ("H-CPU-LOW", BinarySource::HostCpu, BinaryLevel::Low),
    ("H-CPU-MEDIUM", BinarySource::HostCpu, BinaryLevel::Medium),
    ("H-CPU-HIGH", BinarySource::HostCpu, BinaryLevel::High),
    ("H-CPU-VERYHIGH", BinarySource::HostCpu, BinaryLevel::VeryHigh),
    ("H-CPU-EXTREME", BinarySource::HostCpu, BinaryLevel::Extreme),
    ("H-MEM-LOW", BinarySource::HostMem, BinaryLevel::Low),
    ("H-MEM-MEDIUM", BinarySource::HostMem, BinaryLevel::Medium),
    ("H-MEM-HIGH", BinarySource::HostMem, BinaryLevel::High),
    ("C-CPU-LOW", BinarySource::CtrCpu, BinaryLevel::Low),
    ("C-CPU-MEDIUM", BinarySource::CtrCpu, BinaryLevel::Medium),
    ("C-CPU-HIGH", BinarySource::CtrCpu, BinaryLevel::High),
    ("C-CPU-VERYHIGH", BinarySource::CtrCpu, BinaryLevel::VeryHigh),
    ("C-CPU-EXTREME", BinarySource::CtrCpu, BinaryLevel::Extreme),
    ("C-MEM-LOW", BinarySource::CtrMem, BinaryLevel::Low),
    ("C-MEM-MEDIUM", BinarySource::CtrMem, BinaryLevel::Medium),
    ("C-MEM-HIGH", BinarySource::CtrMem, BinaryLevel::High),
];

/// Which utilization a binary feature observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinarySource {
    HostCpu,
    HostMem,
    CtrCpu,
    CtrMem,
}

/// Utilization band of a binary feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryLevel {
    /// Below 50%.
    Low,
    /// 50–80%.
    Medium,
    /// At or above 80%.
    High,
    /// At or above 90%.
    VeryHigh,
    /// At or above 95%.
    Extreme,
}

impl BinaryLevel {
    /// Evaluates the indicator for a utilization percentage.
    pub fn indicator(self, util: f64) -> f64 {
        let on = match self {
            BinaryLevel::Low => util < 50.0,
            BinaryLevel::Medium => (50.0..80.0).contains(&util),
            BinaryLevel::High => util >= 80.0,
            BinaryLevel::VeryHigh => util >= 90.0,
            BinaryLevel::Extreme => util >= 95.0,
        };
        f64::from(u8::from(on))
    }
}

/// Expands a raw metric vector into the base feature vector: kind-scaled
/// raw metrics followed by the 16 binary features.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseExpander {
    layout: RawLayout,
}

impl BaseExpander {
    /// Creates the expander for a raw layout.
    pub fn new(layout: RawLayout) -> Self {
        BaseExpander { layout }
    }

    /// The underlying layout.
    pub fn layout(&self) -> &RawLayout {
        &self.layout
    }

    /// Number of base features.
    pub fn len(&self) -> usize {
        self.layout.raw_len() + BINARY_FEATURES.len()
    }

    /// Whether the expander produces no features (never for real layouts).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base feature names.
    pub fn names(&self) -> Vec<String> {
        let mut names = self.layout.names.clone();
        names.extend(BINARY_FEATURES.iter().map(|(n, _, _)| n.to_string()));
        names
    }

    /// Expands one raw vector.
    ///
    /// # Panics
    ///
    /// Panics if `raw` has the wrong length.
    pub fn expand(&self, raw: &[f64]) -> Vec<f64> {
        assert_eq!(raw.len(), self.layout.raw_len(), "raw vector length");
        let mut out = Vec::with_capacity(self.len());
        for (v, kind) in raw.iter().zip(&self.layout.kinds) {
            out.push(kind.preprocess(*v));
        }
        for (_, source, level) in BINARY_FEATURES {
            let util = match source {
                BinarySource::HostCpu => self.layout.host_cpu_util(raw),
                BinarySource::HostMem => self.layout.host_mem_util(raw),
                BinarySource::CtrCpu => self.layout.ctr_cpu_util(raw),
                BinarySource::CtrMem => self.layout.ctr_mem_util(raw),
            };
            out.push(level.indicator(util));
        }
        out
    }

    /// Base feature `j` of the raw vector `host ++ ctr`, read from the
    /// two parts without concatenating them — bit-identical to
    /// `expand(host ++ ctr)[j]`. The split point is `host.len()`, so
    /// callers check both widths first.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()` or an index falls outside the parts.
    #[inline]
    pub(crate) fn value_at(&self, j: usize, host: &[f64], ctr: &[f64]) -> f64 {
        let raw = |i: usize| match i.checked_sub(host.len()) {
            None => host[i],
            Some(c) => ctr[c],
        };
        let l = &self.layout;
        match j.checked_sub(l.raw_len()) {
            None => l.kinds[j].preprocess(raw(j)),
            Some(k) => {
                let (_, source, level) = BINARY_FEATURES[k];
                let util = match source {
                    BinarySource::HostCpu => 100.0 - raw(l.host_cpu_idle),
                    BinarySource::HostMem => raw(l.host_mem_util),
                    BinarySource::CtrCpu => raw(l.ctr_cpu_util),
                    BinarySource::CtrMem => raw(l.ctr_mem_util),
                };
                level.indicator(util.clamp(0.0, 100.0))
            }
        }
    }

    /// Indices of the binary features in the base feature space.
    pub fn binary_indices(&self) -> Vec<usize> {
        (self.layout.raw_len()..self.len()).collect()
    }
}

monitorless_std::json_struct!(RawLayout {
    names,
    kinds,
    host_cpu_idle,
    host_mem_util,
    ctr_cpu_util,
    ctr_mem_util,
});
monitorless_std::json_struct!(BaseExpander { layout });

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless_metrics::signals::{ContainerSignals, HostSignals};

    fn expander() -> (BaseExpander, Catalog) {
        let catalog = Catalog::standard();
        let layout = RawLayout::from_catalog(&catalog).unwrap();
        (BaseExpander::new(layout), catalog)
    }

    fn raw_vector(catalog: &Catalog, host: &HostSignals, ctr: &ContainerSignals) -> Vec<f64> {
        let mut v = catalog.expand_host(host, 0, 0);
        v.extend(catalog.expand_container(ctr, 0, 0));
        v
    }

    #[test]
    fn base_length_is_raw_plus_16() {
        let (e, _) = expander();
        assert_eq!(e.len(), 1040 + 16);
        assert_eq!(e.names().len(), e.len());
        assert_eq!(e.binary_indices().len(), 16);
    }

    #[test]
    fn value_at_reads_split_parts_bit_identically() {
        let (e, catalog) = expander();
        assert_eq!(e.layout().host_len(), catalog.host_len());
        let mut raw = raw_vector(
            &catalog,
            &HostSignals {
                cpu_util: 0.83,
                mem_used_bytes: 3e9,
                ..HostSignals::default()
            },
            &ContainerSignals {
                cpu_util: 0.97,
                ..ContainerSignals::default()
            },
        );
        // NaN and negative cells exercise the kind scaling's edge cases.
        for (i, v) in raw.iter_mut().enumerate().step_by(37) {
            *v = if i % 2 == 0 { f64::NAN } else { -*v - 1.0 };
        }
        let (host, ctr) = raw.split_at(catalog.host_len());
        for (j, want) in e.expand(&raw).iter().enumerate() {
            let got = e.value_at(j, host, ctr);
            assert_eq!(got.to_bits(), want.to_bits(), "base feature {j}");
        }
    }

    #[test]
    fn binary_levels_fire_at_right_utilizations() {
        assert_eq!(BinaryLevel::Low.indicator(30.0), 1.0);
        assert_eq!(BinaryLevel::Low.indicator(60.0), 0.0);
        assert_eq!(BinaryLevel::Medium.indicator(60.0), 1.0);
        assert_eq!(BinaryLevel::High.indicator(85.0), 1.0);
        assert_eq!(BinaryLevel::VeryHigh.indicator(85.0), 0.0);
        assert_eq!(BinaryLevel::VeryHigh.indicator(92.0), 1.0);
        assert_eq!(BinaryLevel::Extreme.indicator(96.0), 1.0);
        // High levels are cumulative: 96% fires HIGH, VERYHIGH and EXTREME.
        assert_eq!(BinaryLevel::High.indicator(96.0), 1.0);
    }

    #[test]
    fn container_cpu_binaries_track_signal() {
        let (e, catalog) = expander();
        let saturated = raw_vector(
            &catalog,
            &HostSignals::default(),
            &ContainerSignals {
                cpu_util: 0.97,
                ..ContainerSignals::default()
            },
        );
        let base = e.expand(&saturated);
        let names = e.names();
        let get = |name: &str| base[names.iter().position(|n| n == name).unwrap()];
        assert_eq!(get("C-CPU-HIGH"), 1.0);
        assert_eq!(get("C-CPU-VERYHIGH"), 1.0);
        assert_eq!(get("C-CPU-LOW"), 0.0);

        let idle = raw_vector(&catalog, &HostSignals::default(), &ContainerSignals::default());
        let base = e.expand(&idle);
        let get = |name: &str| base[names.iter().position(|n| n == name).unwrap()];
        assert_eq!(get("C-CPU-LOW"), 1.0);
        assert_eq!(get("C-CPU-HIGH"), 0.0);
    }

    #[test]
    fn host_cpu_util_is_inverted_idle() {
        let (e, catalog) = expander();
        let busy = raw_vector(
            &catalog,
            &HostSignals {
                cpu_util: 0.93,
                ..HostSignals::default()
            },
            &ContainerSignals::default(),
        );
        let util = e.layout().host_cpu_util(&busy);
        assert!((util - 93.0).abs() < 5.0, "util = {util}");
    }

    #[test]
    fn byte_metrics_are_log_scaled() {
        let (e, catalog) = expander();
        let raw = raw_vector(
            &catalog,
            &HostSignals {
                mem_used_bytes: 1e9,
                ..HostSignals::default()
            },
            &ContainerSignals::default(),
        );
        let idx = catalog.host_index("mem.used").unwrap();
        let base = e.expand(&raw);
        assert!(base[idx] < 11.0 && base[idx] > 8.0, "log-scaled: {}", base[idx]);
    }
}

//! *Monitorless*: predicting cloud-application KPI degradation from
//! platform-level metrics only.
//!
//! This crate is the reproduction of the Middleware '19 paper's primary
//! contribution. It glues the substrates together:
//!
//! * [`features`] — the feature-engineering pipeline of Section 3.3:
//!   binary CPU/MEM level flags, log scaling, standardization,
//!   random-forest filtering or PCA, time-dependent `X-AVG`/`X-LAG`
//!   variants, multiplicative cross-domain feature products and
//!   zero-variance removal, arranged in the paper's 6-step pipeline;
//! * [`training`] — the Table 1 training-set catalog (25 configurations
//!   of Solr, Memcache and Cassandra under different limits, co-location
//!   and traffic), Υ calibration runs, and dataset generation;
//! * [`model`] — the monitorless model itself (feature pipeline +
//!   random-forest classifier with the paper's 0.4 decision threshold);
//! * [`orchestrator`] — online inference: per-instance rolling windows,
//!   per-container saturation predictions and the logical-OR aggregation
//!   to application level;
//! * [`baselines`] — the comparison detectors of Section 4: optimally
//!   tuned CPU / MEM / CPU-OR-MEM / CPU-AND-MEM thresholds and the
//!   response-time-based (optimal) detector;
//! * [`autoscale`] — the Section 4.2.2 autoscaling loop: scale-out on
//!   predicted saturation, 120-second replica lifespan, SLO accounting
//!   (750 ms average response time, drops, >10% failures);
//! * [`experiments`] — one harness per paper table/figure (Tables 1–8,
//!   Figures 2–3), each returning printable rows.
//!
//! The paper's Section 5 ("Discussion") extensions are implemented too:
//! [`scalein`] (an additional classifier detecting overprovisioned
//! services), [`interpret`] (depth-restricted rule distillation),
//! [`coverage`] (the Section 3.2.3 training-set coverage loop) and
//! [`adapt`] (unlabeled domain adaptation by moment alignment).
//!
//! # Quickstart
//!
//! ```no_run
//! use monitorless::training::{generate_training_data, TrainingOptions};
//! use monitorless::model::{MonitorlessModel, ModelOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = generate_training_data(&TrainingOptions::quick(1))?;
//! let model = MonitorlessModel::train(&data, &ModelOptions::quick())?;
//! println!("trained on {} samples", data.dataset.len());
//! # let _ = model;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapt;
pub mod autoscale;
pub mod baselines;
pub mod coverage;
pub mod drift;
pub mod experiments;
pub mod features;
pub mod interpret;
pub mod model;
pub mod orchestrator;
pub mod scalein;
pub mod training;

/// Errors produced by this crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A machine-learning step failed.
    Learn(monitorless_learn::Error),
    /// A labeling step failed.
    Label(monitorless_label::Error),
    /// The pipeline was used before being fitted.
    NotFitted,
    /// Inconsistent configuration or input.
    Invalid(String),
    /// Serialization failure.
    Serde(monitorless_std::json::JsonError),
    /// I/O failure while persisting a model.
    Io(std::io::Error),
    /// A cluster-simulation operation failed (e.g. scaling an unknown
    /// service).
    Sim(monitorless_sim::ClusterError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Learn(e) => write!(f, "learning error: {e}"),
            Error::Label(e) => write!(f, "labeling error: {e}"),
            Error::NotFitted => write!(f, "pipeline has not been fitted"),
            Error::Invalid(msg) => write!(f, "invalid input: {msg}"),
            Error::Serde(e) => write!(f, "serialization error: {e}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Learn(e) => Some(e),
            Error::Label(e) => Some(e),
            Error::Serde(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<monitorless_learn::Error> for Error {
    fn from(e: monitorless_learn::Error) -> Self {
        Error::Learn(e)
    }
}

impl From<monitorless_label::Error> for Error {
    fn from(e: monitorless_label::Error) -> Self {
        Error::Label(e)
    }
}

impl From<monitorless_std::json::JsonError> for Error {
    fn from(e: monitorless_std::json::JsonError) -> Self {
        Error::Serde(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<monitorless_sim::ClusterError> for Error {
    fn from(e: monitorless_sim::ClusterError) -> Self {
        Error::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays_and_chains() {
        let e = Error::Learn(monitorless_learn::Error::NotFitted);
        assert!(e.to_string().contains("learning"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(Error::NotFitted.to_string().contains("fitted"));
        let s: Error =
            monitorless_sim::ClusterError::UnknownNode(monitorless_metrics::NodeId(3)).into();
        assert!(s.to_string().contains("simulation error"));
        assert!(std::error::Error::source(&s).is_some());
    }
}

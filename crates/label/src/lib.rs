//! KPI labeling for the *monitorless* reproduction.
//!
//! Section 2.2 of the paper labels training data by finding the knee of
//! the workload→KPI curve from a linearly increasing load test:
//!
//! 1. smooth the curve with a Savitzky-Golay filter ([`savgol`]);
//! 2. normalize both axes to the unit square;
//! 3. compute the difference curve `β_i − α_i`;
//! 4. take a local maximum of the difference curve as the knee
//!    (Satopää et al.'s *Kneedle*, [`kneedle`]);
//! 5. use the KPI value at the knee as the saturation threshold `Υ` and
//!    label every sample with `KPI > Υ` as saturated ([`threshold`]).
//!
//! ```
//! use monitorless_label::kneedle::{detect_knee, KneedleParams};
//!
//! // A saturating curve: linear then flat, knee near x = 50.
//! let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! let y: Vec<f64> = x.iter().map(|&v| v.min(50.0)).collect();
//! let knee = detect_knee(&x, &y, &KneedleParams::default()).unwrap();
//! assert!((knee.x - 50.0).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kneedle;
pub mod savgol;
pub mod threshold;

pub use kneedle::{detect_knee, Knee, KneedleParams};
pub use savgol::SavitzkyGolay;
pub use threshold::{label_series, SaturationDirection, SaturationThreshold};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Input series was too short for the requested operation.
    TooShort {
        /// Minimum length required.
        needed: usize,
        /// Length received.
        got: usize,
    },
    /// Two parallel series differ in length.
    LengthMismatch,
    /// A parameter was out of range.
    InvalidParameter(String),
    /// No knee/local maximum could be found.
    NoKnee,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::TooShort { needed, got } => {
                write!(f, "series too short: need at least {needed}, got {got}")
            }
            Error::LengthMismatch => write!(f, "series lengths do not match"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::NoKnee => write!(f, "no knee found in the difference curve"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(Error::NoKnee.to_string().contains("knee"));
        assert!(Error::TooShort { needed: 5, got: 2 }
            .to_string()
            .contains('5'));
    }
}

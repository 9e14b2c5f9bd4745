//! Trace-driven load profiles.
//!
//! Cluster traces published by Google and Azure record arrival rates as a
//! sparse series of `(time, rate)` change points rather than a dense
//! per-second signal: a usage row holds until the next row replaces it.
//! [`TraceProfile`] replays such a series behind the [`LoadProfile`]
//! trait, so traced workloads compose with the synthetic profiles and
//! drive the simulator like any other profile.
//!
//! # Trace format
//!
//! One change point per line, whitespace- or comma-separated:
//!
//! ```text
//! # comment lines start with '#', blank lines are skipped
//! <time-seconds> <rate-requests-per-second>
//! 0       120
//! 300     450.5
//! 600,80
//! ```
//!
//! Times must be integers from 0 to `u64::MAX - 1` in strictly
//! increasing order; rates must be finite and non-negative. The rate of
//! the first row also applies to all seconds before it, and the last row
//! holds forever (step interpolation) or becomes the final value of the
//! last ramp (linear interpolation).
//!
//! # Interpolation
//!
//! * [`TraceInterp::Step`] — the rate holds between rows. This matches
//!   cluster-trace semantics: the rate only changes at the rows.
//! * [`TraceInterp::Linear`] — the rate ramps linearly between rows,
//!   changing every second until the last row.
//!
//! ```
//! use monitorless_workload::{LoadProfile, TraceInterp, TraceProfile};
//!
//! let trace = TraceProfile::parse("0 100\n60 300\n120 50\n", TraceInterp::Step).unwrap();
//! assert_eq!(trace.intensity(59), 100.0);
//! assert_eq!(trace.intensity(60), 300.0);
//! assert_eq!(trace.intensity(10_000), 50.0); // last row holds forever
//! ```

use std::fmt;

use monitorless_std::rng::{Rng, StdRng};

use crate::profile::LoadProfile;

/// How a [`TraceProfile`] fills the seconds between trace rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceInterp {
    /// Each row's rate holds until the next row (cluster-trace semantics).
    Step,
    /// The rate ramps linearly from row to row.
    Linear,
}

/// An error from [`TraceProfile::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace contained no data rows.
    Empty,
    /// A line could not be parsed as `<time> <rate>`, or its time was
    /// `u64::MAX`, which leaves no second after the trace's last row.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// The offending line's text.
        text: String,
    },
    /// A row's time was not strictly greater than its predecessor's.
    NonMonotonic {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// A row's rate was negative or not finite.
    BadRate {
        /// 1-based line number of the offending line.
        line: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace contains no data rows"),
            TraceError::Malformed { line, text } => {
                write!(f, "line {line}: expected `<time> <rate>`, got {text:?}")
            }
            TraceError::NonMonotonic { line } => {
                write!(f, "line {line}: times must be strictly increasing")
            }
            TraceError::BadRate { line } => {
                write!(f, "line {line}: rate must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A load profile replaying a sparse `(time, rate)` change-point series.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    points: Vec<(u64, f64)>,
    interp: TraceInterp,
}

impl TraceProfile {
    /// Builds a profile from change points directly.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, times are not strictly increasing or
    /// reach `u64::MAX`, or a rate is negative/non-finite. Use
    /// [`TraceProfile::parse`] for fallible construction from untrusted
    /// text.
    pub fn new(points: Vec<(u64, f64)>, interp: TraceInterp) -> Self {
        assert!(!points.is_empty(), "trace needs at least one point");
        for w in points.windows(2) {
            assert!(w[1].0 > w[0].0, "times must be strictly increasing");
        }
        assert!(points[points.len() - 1].0 < u64::MAX, "times must be below u64::MAX");
        for &(_, r) in &points {
            assert!(r.is_finite() && r >= 0.0, "rates must be finite and non-negative");
        }
        TraceProfile { points, interp }
    }

    /// Parses the textual trace format described in the module docs.
    pub fn parse(text: &str, interp: TraceInterp) -> Result<Self, TraceError> {
        let mut points: Vec<(u64, f64)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut fields = content
                .split(|c: char| c.is_whitespace() || c == ',')
                .filter(|f| !f.is_empty());
            let (time, rate) = match (fields.next(), fields.next(), fields.next()) {
                (Some(t), Some(r), None) => match (t.parse::<u64>(), r.parse::<f64>()) {
                    (Ok(t), Ok(r)) if t < u64::MAX => (t, r),
                    _ => {
                        return Err(TraceError::Malformed {
                            line,
                            text: raw.to_string(),
                        })
                    }
                },
                _ => {
                    return Err(TraceError::Malformed {
                        line,
                        text: raw.to_string(),
                    })
                }
            };
            if !rate.is_finite() || rate < 0.0 {
                return Err(TraceError::BadRate { line });
            }
            if let Some(&(prev, _)) = points.last() {
                if time <= prev {
                    return Err(TraceError::NonMonotonic { line });
                }
            }
            points.push((time, rate));
        }
        if points.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceProfile { points, interp })
    }

    /// The bundled sample trace: six hours of a diurnal cluster arrival
    /// stream (Google/Azure-trace shaped) at 5-minute resolution, with a
    /// morning ramp, a lunchtime dip, an afternoon burst and an overnight
    /// scale-to-zero tail.
    pub fn sample_cluster() -> Self {
        TraceProfile::parse(include_str!("../traces/sample_cluster.trace"), TraceInterp::Step)
            .expect("bundled trace is valid")
    }

    /// Synthesizes a cluster-trace-shaped change-point series for scale
    /// runs: a diurnal base rate between `base` and `peak` req/s sampled
    /// every `interval` seconds over `duration` seconds, with seeded
    /// burst rows injected on top (deterministic for a given seed).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` or `peak < base`.
    pub fn synthesize(seed: u64, duration: u64, interval: u64, base: f64, peak: f64) -> Self {
        assert!(interval > 0, "interval must be positive");
        assert!(peak >= base, "peak must be at least base");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::new();
        let day = 86_400.0;
        let mut t = 0;
        while t <= duration {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / day;
            // Diurnal curve with a secondary harmonic, like real cluster
            // arrival streams: deep overnight trough, double daytime hump.
            let diurnal = 0.5 - 0.45 * phase.cos() + 0.15 * (2.0 * phase).sin();
            let jitter: f64 = 1.0 + 0.1 * rng.gen_range(-1.0..1.0);
            let burst: f64 = if rng.gen_range(0.0..1.0) < 0.04 {
                1.0 + rng.gen_range(0.5..1.5)
            } else {
                1.0
            };
            let rate = (base + (peak - base) * diurnal.clamp(0.0, 1.0)) * jitter * burst;
            points.push((t, rate.max(0.0)));
            t += interval;
        }
        TraceProfile::new(points, TraceInterp::Step)
    }

    /// The trace's change points, in increasing time order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The interpolation mode between rows.
    pub fn interp(&self) -> TraceInterp {
        self.interp
    }

    /// Changes the interpolation mode between rows.
    pub fn set_interp(&mut self, interp: TraceInterp) {
        self.interp = interp;
    }

    /// Index of the last point with time `<= t`, or `None` before the
    /// first point.
    fn floor_index(&self, t: u64) -> Option<usize> {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }
}

impl LoadProfile for TraceProfile {
    fn intensity(&self, t: u64) -> f64 {
        let i = match self.floor_index(t) {
            Some(i) => i,
            None => return self.points[0].1, // first row also covers the prefix
        };
        match (self.interp, self.points.get(i + 1)) {
            (TraceInterp::Step, _) | (TraceInterp::Linear, None) => self.points[i].1,
            (TraceInterp::Linear, Some(&(t1, r1))) => {
                let (t0, r0) = self.points[i];
                let frac = (t - t0) as f64 / (t1 - t0) as f64;
                r0 + (r1 - r0) * frac
            }
        }
    }

    fn duration(&self) -> u64 {
        self.points.last().expect("non-empty").0 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_comments_blanks_and_commas() {
        let text = "# header\n\n0 100\n 300\t250.5 # inline\n600,80\n";
        let p = TraceProfile::parse(text, TraceInterp::Step).unwrap();
        assert_eq!(p.points(), &[(0, 100.0), (300, 250.5), (600, 80.0)]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "oops",
            "1",
            "1 2 3",
            "x 5",
            "5 y",
            "3 1e999999",
            "18446744073709551615 5",
        ] {
            let err = TraceProfile::parse(bad, TraceInterp::Step).unwrap_err();
            match err {
                TraceError::Malformed { line: 1, .. } | TraceError::BadRate { line: 1 } => {}
                other => panic!("{bad:?}: unexpected error {other:?}"),
            }
        }
        assert_eq!(
            TraceProfile::parse("0 1\n0 2\n", TraceInterp::Step).unwrap_err(),
            TraceError::NonMonotonic { line: 2 }
        );
        assert_eq!(
            TraceProfile::parse("0 1\n5 -2\n", TraceInterp::Step).unwrap_err(),
            TraceError::BadRate { line: 2 }
        );
    }

    #[test]
    fn parse_rejects_empty_traces() {
        for empty in ["", "\n\n", "# only comments\n"] {
            assert_eq!(
                TraceProfile::parse(empty, TraceInterp::Step).unwrap_err(),
                TraceError::Empty
            );
        }
    }

    #[test]
    fn step_holds_between_rows() {
        let p = TraceProfile::parse("10 100\n20 300\n", TraceInterp::Step).unwrap();
        assert_eq!(p.intensity(0), 100.0, "prefix takes the first rate");
        assert_eq!(p.intensity(10), 100.0);
        assert_eq!(p.intensity(19), 100.0);
        assert_eq!(p.intensity(20), 300.0);
        assert_eq!(p.intensity(1000), 300.0, "last row holds forever");
    }

    #[test]
    fn linear_interpolates_at_change_points() {
        let p = TraceProfile::parse("0 100\n10 200\n20 0\n", TraceInterp::Linear).unwrap();
        assert_eq!(p.intensity(0), 100.0);
        assert_eq!(p.intensity(5), 150.0);
        assert_eq!(p.intensity(10), 200.0, "exactly at a row takes the row value");
        assert_eq!(p.intensity(15), 100.0);
        assert_eq!(p.intensity(20), 0.0);
        assert_eq!(p.intensity(99), 0.0);
    }

    #[test]
    fn sample_cluster_trace_loads() {
        let p = TraceProfile::sample_cluster();
        assert!(p.points().len() > 20);
        assert!(p.duration() >= 6 * 3600);
        // Scale-to-zero tail: the trace ends quiet.
        assert_eq!(p.points().last().unwrap().1, 0.0);
        let peak = p.points().iter().map(|&(_, r)| r).fold(0.0, f64::max);
        assert!(peak > 500.0, "peak {peak}");
    }

    #[test]
    fn synthesize_is_deterministic_and_bounded() {
        let a = TraceProfile::synthesize(7, 86_400, 300, 50.0, 800.0);
        let b = TraceProfile::synthesize(7, 86_400, 300, 50.0, 800.0);
        assert_eq!(a, b);
        assert_ne!(a, TraceProfile::synthesize(8, 86_400, 300, 50.0, 800.0));
        assert_eq!(a.points().len(), 86_400 / 300 + 1);
        assert!(a.points().iter().all(|&(_, r)| r >= 0.0));
        // Diurnal shape: overnight trough well below the daytime peak.
        let trough = a.points().iter().map(|&(_, r)| r).fold(f64::MAX, f64::min);
        let peak = a.points().iter().map(|&(_, r)| r).fold(0.0, f64::max);
        assert!(peak > 3.0 * trough.max(1.0), "peak {peak} trough {trough}");
    }
}

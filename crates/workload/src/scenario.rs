//! Hostile autoscaling scenarios for the bake-off harness.
//!
//! The paper's Table 7 compares policies on a single friendly daily
//! trace. Real fleets see worse: serverless-style idle gaps punctuated
//! by bursts that arrive faster than a cold start, flash crowds on top
//! of a steady baseline, diurnal cluster traces with seeded noise
//! bursts, and slow ramps that quietly squeeze capacity. Each
//! [`Scenario`] bundles one such arrival pattern with the platform
//! parameters that make it hostile — cold-start latency and the
//! instance floor/ceiling the autoscaler may move between.
//!
//! Rates are expressed in requests/second and calibrated so that **one
//! instance of the harness's reference service sustains ~100 req/s**;
//! peak demand is then directly readable as "instances needed". Every
//! scenario is a pure function of `(seed, quick)` — two builds with the
//! same arguments replay bit-identical arrivals.

use std::sync::Arc;

use crate::profile::{ConstantProfile, LoadProfile, LocustProfile, RampProfile, SumProfile};
use crate::trace::{TraceInterp, TraceProfile};
use monitorless_std::rng::{Rng, StdRng};

/// One hostile scenario: a seeded arrival pattern plus the platform
/// parameters (cold start, instance floor/ceiling) the bake-off
/// harness applies to every backend it runs through it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable identifier used in reports (`scale_to_zero`, …).
    pub name: &'static str,
    /// One-line description of what makes the scenario hostile.
    pub description: &'static str,
    /// The arrival pattern. Shared so one scenario can drive several
    /// backends with bit-identical load.
    pub profile: Arc<dyn LoadProfile>,
    /// Run length in seconds.
    pub duration: u64,
    /// Seconds between a scale-out decision and the instance serving.
    pub cold_start_s: u64,
    /// Fewest instances the autoscaler may keep (0 = scale-to-zero).
    pub min_instances: u32,
    /// Most instances the autoscaler may run.
    pub max_instances: u32,
}

impl Scenario {
    /// A fresh boxed handle onto the shared arrival pattern.
    pub fn profile_box(&self) -> Box<dyn LoadProfile> {
        Box::new(Arc::clone(&self.profile))
    }

    /// Serverless scale-to-zero: short ~260 req/s bursts separated by
    /// long idle gaps, with a cold start that eats most of a burst if
    /// the scaler starts from zero capacity.
    pub fn scale_to_zero(seed: u64, quick: bool) -> Self {
        let period = 300u64; // one burst every 5 minutes
        let bursts = if quick { 3 } else { 12 };
        let duration = period * bursts as u64;
        let mut parts: Vec<Box<dyn LoadProfile>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C_E5ED);
        for b in 0..bursts {
            // Jitter the burst start inside its period slot so arrival
            // times are not harmonically aligned with anything.
            let start = b as u64 * period + 45 + rng.gen_range(0u64..30);
            let rate = 220.0 + rng.gen_range(0.0..80.0);
            parts.push(Box::new(shifted_pulse(rate, start, 15, 75)));
        }
        Scenario {
            name: "scale_to_zero",
            description: "idle gaps between bursts; capacity must reach zero and come back",
            profile: Arc::new(SumProfile::new(parts)),
            duration,
            cold_start_s: 20,
            min_instances: 0,
            max_instances: 6,
        }
    }

    /// Flash crowd: a comfortable ~70 req/s baseline with Locust-hatch
    /// spikes to ~5x baseline arriving with no warning.
    pub fn flash_crowd(seed: u64, quick: bool) -> Self {
        let duration = if quick { 900 } else { 3600 };
        let spikes = if quick { 2 } else { 5 };
        let mut parts: Vec<Box<dyn LoadProfile>> =
            vec![Box::new(ConstantProfile::new(70.0, duration))];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A5_C0DE);
        let slot = duration / (spikes as u64 + 1);
        for s in 0..spikes {
            let start = slot * (s as u64 + 1) - 60 + rng.gen_range(0u64..120);
            let rate = 380.0 + rng.gen_range(0.0..120.0);
            parts.push(Box::new(shifted_pulse(rate, start, 30, 90)));
        }
        Scenario {
            name: "flash_crowd",
            description: "sudden Locust-hatch spikes to ~5x a steady baseline",
            profile: Arc::new(SumProfile::new(parts)),
            duration,
            cold_start_s: 10,
            min_instances: 1,
            max_instances: 8,
        }
    }

    /// Diurnal replay: a compressed two-peak day in the shape of public
    /// cluster traces, replayed through [`TraceProfile`] with seeded
    /// noise bursts on top.
    pub fn diurnal(seed: u64, quick: bool) -> Self {
        let duration = if quick { 900 } else { 3600 };
        let day = duration; // one full compressed day per run
        let interval = 30u64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1_0BA1);
        let mut points = Vec::new();
        let mut t = 0;
        while t <= duration {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / day as f64;
            let diurnal = 0.5 - 0.45 * phase.cos() + 0.15 * (2.0 * phase).sin();
            let jitter: f64 = 1.0 + 0.08 * rng.gen_range(-1.0..1.0);
            let burst: f64 = if rng.gen_range(0.0..1.0) < 0.05 {
                1.0 + rng.gen_range(0.3..0.9)
            } else {
                1.0
            };
            let rate = (40.0 + 400.0 * diurnal.clamp(0.0, 1.0)) * jitter * burst;
            points.push((t, rate.max(0.0)));
            t += interval;
        }
        Scenario {
            name: "diurnal_trace",
            description: "compressed cluster-trace day with seeded noise bursts",
            profile: Arc::new(TraceProfile::new(points, TraceInterp::Step)),
            duration,
            cold_start_s: 10,
            min_instances: 1,
            max_instances: 8,
        }
    }

    /// Slow-ramp capacity squeeze: demand climbs linearly from well
    /// under one instance to just below the ceiling's capacity, never
    /// giving the scaler a clean step to react to.
    pub fn slow_ramp(_seed: u64, quick: bool) -> Self {
        let duration = if quick { 900 } else { 3600 };
        Scenario {
            name: "slow_ramp",
            description: "linear climb to ~6 instances' worth of demand, then a hard hold",
            profile: Arc::new(RampProfile::new(40.0, 560.0, duration)),
            duration,
            cold_start_s: 10,
            min_instances: 1,
            max_instances: 8,
        }
    }

    /// The full hostile pack, in report order.
    pub fn pack(seed: u64, quick: bool) -> Vec<Scenario> {
        vec![
            Scenario::scale_to_zero(seed, quick),
            Scenario::flash_crowd(seed, quick),
            Scenario::diurnal(seed, quick),
            Scenario::slow_ramp(seed, quick),
        ]
    }
}

/// A single burst: Locust hatch to `rate` over `hatch` seconds, hold
/// for `hold`, then silence — shifted to begin at `start`.
fn shifted_pulse(
    rate: f64,
    start: u64,
    hatch: u64,
    hold: u64,
) -> crate::profile::ShiftedProfile<LocustProfile> {
    crate::profile::ShiftedProfile::new(LocustProfile::new(rate, hatch, hold), start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_is_deterministic() {
        let a = Scenario::pack(7, true);
        let b = Scenario::pack(7, true);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.duration, y.duration);
            for t in (0..x.duration).step_by(7) {
                assert_eq!(
                    x.profile.intensity(t).to_bits(),
                    y.profile.intensity(t).to_bits(),
                    "{} t={t}",
                    x.name
                );
            }
        }
    }

    #[test]
    fn scale_to_zero_has_idle_gaps_and_bursts() {
        let sc = Scenario::scale_to_zero(7, true);
        assert_eq!(sc.min_instances, 0);
        let mut idle = 0u64;
        let mut peak = 0.0f64;
        for t in 0..sc.duration {
            let r = sc.profile.intensity(t);
            if r == 0.0 {
                idle += 1;
            }
            peak = peak.max(r);
        }
        assert!(idle > sc.duration / 3, "idle only {idle} of {} s", sc.duration);
        assert!(peak > 200.0, "peak {peak}");
    }

    #[test]
    fn flash_crowd_spikes_over_baseline() {
        let sc = Scenario::flash_crowd(7, true);
        let base = sc.profile.intensity(5);
        assert!((60.0..=80.0).contains(&base), "baseline {base}");
        let peak = (0..sc.duration)
            .map(|t| sc.profile.intensity(t))
            .fold(0.0, f64::max);
        assert!(peak > 4.0 * base, "peak {peak} vs base {base}");
    }

    #[test]
    fn slow_ramp_is_monotone() {
        let sc = Scenario::slow_ramp(7, true);
        let mut prev = -1.0;
        for t in (0..sc.duration).step_by(60) {
            let r = sc.profile.intensity(t);
            assert!(r >= prev);
            prev = r;
        }
    }
}

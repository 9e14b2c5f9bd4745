//! Load-intensity profiles.

use std::sync::Arc;

use monitorless_std::rng::{Rng, StdRng};

/// A per-second load-intensity function (requests per second).
///
/// Profiles are deterministic functions of time so experiments are
/// reproducible: "noisy" profiles derive their perturbations from a seed.
pub trait LoadProfile: std::fmt::Debug + Send + Sync {
    /// Request rate at second `t` (never negative).
    fn intensity(&self, t: u64) -> f64;

    /// Length of the profile in seconds.
    fn duration(&self) -> u64;

    /// Samples the whole profile as one value per second.
    fn series(&self) -> Vec<f64>
    where
        Self: Sized,
    {
        (0..self.duration()).map(|t| self.intensity(t)).collect()
    }
}

impl<P: LoadProfile + ?Sized> LoadProfile for Arc<P> {
    fn intensity(&self, t: u64) -> f64 {
        (**self).intensity(t)
    }
    fn duration(&self) -> u64 {
        (**self).duration()
    }
}

/// LIMBO-style sine profile between `min` and `max` req/s.
#[derive(Debug, Clone, PartialEq)]
pub struct SineProfile {
    min: f64,
    max: f64,
    period: u64,
    duration: u64,
}

impl SineProfile {
    /// Creates a sine profile.
    ///
    /// # Panics
    ///
    /// Panics if `max < min` or `period == 0`.
    pub fn new(min: f64, max: f64, period: u64, duration: u64) -> Self {
        assert!(max >= min, "max must be at least min");
        assert!(period > 0, "period must be positive");
        SineProfile {
            min,
            max,
            period,
            duration,
        }
    }

    /// The paper's `sin1000` profile: 1 to 1000 req/s.
    pub fn sin1000(duration: u64) -> Self {
        SineProfile::new(1.0, 1000.0, duration.max(1), duration)
    }
}

impl LoadProfile for SineProfile {
    fn intensity(&self, t: u64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t % self.period) as f64 / self.period as f64;
        // Starts at `min`, peaks at `max` mid-period.
        let unit = 0.5 - 0.5 * phase.cos();
        self.min + (self.max - self.min) * unit
    }

    fn duration(&self) -> u64 {
        self.duration
    }
}

/// Adds seeded multiplicative and additive noise to a base profile —
/// the paper's `sinnoise1000` is "massively modified by adding random
/// noise to increase variability".
#[derive(Debug, Clone)]
pub struct NoisyProfile<P> {
    base: P,
    relative: f64,
    absolute: f64,
    seed: u64,
}

impl<P: LoadProfile> NoisyProfile<P> {
    /// Wraps `base` with relative noise amplitude `relative` (e.g. 0.3 =
    /// ±30%) and absolute noise amplitude `absolute` (req/s).
    pub fn new(base: P, relative: f64, absolute: f64, seed: u64) -> Self {
        NoisyProfile {
            base,
            relative,
            absolute,
            seed,
        }
    }

    /// The paper's `sinnoise1000`: heavy noise on `sin1000`.
    pub fn sinnoise1000(duration: u64, seed: u64) -> NoisyProfile<SineProfile> {
        NoisyProfile::new(SineProfile::sin1000(duration), 0.35, 60.0, seed)
    }
}

fn unit_noise(seed: u64, t: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen_range(-1.0..1.0)
}

impl<P: LoadProfile> LoadProfile for NoisyProfile<P> {
    fn intensity(&self, t: u64) -> f64 {
        let base = self.base.intensity(t);
        let n1 = unit_noise(self.seed, t);
        let n2 = unit_noise(self.seed.wrapping_add(1), t);
        (base * (1.0 + self.relative * n1) + self.absolute * n2).max(0.0)
    }

    fn duration(&self) -> u64 {
        self.base.duration()
    }
}

/// Constant target rate (Memcache / Cassandra style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantProfile {
    rate: f64,
    duration: u64,
}

impl ConstantProfile {
    /// Creates a constant-rate profile.
    pub fn new(rate: f64, duration: u64) -> Self {
        ConstantProfile {
            rate: rate.max(0.0),
            duration,
        }
    }
}

impl LoadProfile for ConstantProfile {
    fn intensity(&self, _t: u64) -> f64 {
        self.rate
    }

    fn duration(&self) -> u64 {
        self.duration
    }
}

/// Several constant target levels applied back to back — how the paper
/// sweeps "several constant target loads" for Cassandra.
#[derive(Debug, Clone, PartialEq)]
pub struct SteppedProfile {
    levels: Vec<f64>,
    step_duration: u64,
}

impl SteppedProfile {
    /// Creates a stepped profile holding each level for `step_duration`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `step_duration == 0`.
    pub fn new(levels: Vec<f64>, step_duration: u64) -> Self {
        assert!(!levels.is_empty(), "levels must not be empty");
        assert!(step_duration > 0, "step duration must be positive");
        SteppedProfile {
            levels,
            step_duration,
        }
    }

    /// Evenly spaced levels covering `[lo, hi]` with `n` steps.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `step_duration == 0`.
    pub fn range(lo: f64, hi: f64, n: usize, step_duration: u64) -> Self {
        assert!(n > 0, "need at least one step");
        let levels = (0..n)
            .map(|i| {
                if n == 1 {
                    lo
                } else {
                    lo + (hi - lo) * i as f64 / (n - 1) as f64
                }
            })
            .collect();
        SteppedProfile::new(levels, step_duration)
    }
}

impl LoadProfile for SteppedProfile {
    fn intensity(&self, t: u64) -> f64 {
        let idx = ((t / self.step_duration) as usize).min(self.levels.len() - 1);
        self.levels[idx].max(0.0)
    }

    fn duration(&self) -> u64 {
        self.levels.len() as u64 * self.step_duration
    }
}

/// Linearly increasing load from `start` to `end` req/s — used for the
/// threshold-calibration run of Section 2.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampProfile {
    start: f64,
    end: f64,
    duration: u64,
}

impl RampProfile {
    /// Creates a linear ramp.
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0`.
    pub fn new(start: f64, end: f64, duration: u64) -> Self {
        assert!(duration > 0, "duration must be positive");
        RampProfile {
            start,
            end,
            duration,
        }
    }
}

impl LoadProfile for RampProfile {
    fn intensity(&self, t: u64) -> f64 {
        let frac = (t as f64 / self.duration as f64).min(1.0);
        (self.start + (self.end - self.start) * frac).max(0.0)
    }

    fn duration(&self) -> u64 {
        self.duration
    }
}

/// Locust-style hatch-and-hold: load grows linearly while clients hatch,
/// then stays constant (Section 4.2.1: hatch to 700 users over 700 s,
/// hold for 300 s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocustProfile {
    max_rate: f64,
    hatch_time: u64,
    hold_time: u64,
}

impl LocustProfile {
    /// Creates a hatch-and-hold profile.
    ///
    /// # Panics
    ///
    /// Panics if `hatch_time == 0`.
    pub fn new(max_rate: f64, hatch_time: u64, hold_time: u64) -> Self {
        assert!(hatch_time > 0, "hatch time must be positive");
        LocustProfile {
            max_rate,
            hatch_time,
            hold_time,
        }
    }

    /// The paper's Sockshop run: 700 clients over 700 s, hold 300 s.
    /// `rate_per_client` converts concurrent users to req/s.
    pub fn sockshop_run(rate_per_client: f64) -> Self {
        LocustProfile::new(700.0 * rate_per_client, 700, 300)
    }
}

impl LoadProfile for LocustProfile {
    fn intensity(&self, t: u64) -> f64 {
        if t >= self.hatch_time + self.hold_time {
            0.0
        } else if t >= self.hatch_time {
            self.max_rate
        } else {
            self.max_rate * t as f64 / self.hatch_time as f64
        }
    }

    fn duration(&self) -> u64 {
        self.hatch_time + self.hold_time
    }
}

/// Delays a profile by `offset` seconds (zero before it starts).
#[derive(Debug, Clone)]
pub struct ShiftedProfile<P> {
    base: P,
    offset: u64,
}

impl<P: LoadProfile> ShiftedProfile<P> {
    /// Starts `base` at `offset`.
    pub fn new(base: P, offset: u64) -> Self {
        ShiftedProfile { base, offset }
    }
}

impl<P: LoadProfile> LoadProfile for ShiftedProfile<P> {
    fn intensity(&self, t: u64) -> f64 {
        if t < self.offset {
            0.0
        } else {
            self.base.intensity(t - self.offset)
        }
    }

    fn duration(&self) -> u64 {
        self.offset + self.base.duration()
    }
}

/// Sum of several profiles — e.g. the three overlapping Locust runs of
/// the Sockshop evaluation.
#[derive(Debug)]
pub struct SumProfile {
    parts: Vec<Box<dyn LoadProfile>>,
}

impl SumProfile {
    /// Creates a sum over the given profiles.
    pub fn new(parts: Vec<Box<dyn LoadProfile>>) -> Self {
        SumProfile { parts }
    }

    /// The paper's Sockshop load: three 1000-second Locust runs started
    /// at 1000 s, 3000 s and 5000 s.
    pub fn sockshop(rate_per_client: f64) -> Self {
        SumProfile::new(vec![
            Box::new(ShiftedProfile::new(LocustProfile::sockshop_run(rate_per_client), 1000)),
            Box::new(ShiftedProfile::new(LocustProfile::sockshop_run(rate_per_client), 3000)),
            Box::new(ShiftedProfile::new(LocustProfile::sockshop_run(rate_per_client), 5000)),
        ])
    }
}

impl LoadProfile for SumProfile {
    fn intensity(&self, t: u64) -> f64 {
        self.parts.iter().map(|p| p.intensity(t)).sum()
    }

    fn duration(&self) -> u64 {
        self.parts.iter().map(|p| p.duration()).max().unwrap_or(0)
    }
}

/// A realistic worst-case cloud trace: several daily harmonics, load
/// bursts and heavy noise (Section 4.2.1, following the business-critical
/// workload characterization of Shen et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyPatternProfile {
    base: f64,
    amplitude: f64,
    day_length: u64,
    duration: u64,
    seed: u64,
}

impl DailyPatternProfile {
    /// Creates a daily-pattern trace.
    ///
    /// `day_length` compresses a "day" into the experiment duration so
    /// multiple daily patterns occur within one run, as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `day_length == 0`.
    pub fn new(base: f64, amplitude: f64, day_length: u64, duration: u64, seed: u64) -> Self {
        assert!(day_length > 0, "day length must be positive");
        DailyPatternProfile {
            base,
            amplitude,
            day_length,
            duration,
            seed,
        }
    }
}

impl LoadProfile for DailyPatternProfile {
    fn intensity(&self, t: u64) -> f64 {
        let day =
            2.0 * std::f64::consts::PI * (t % self.day_length) as f64 / self.day_length as f64;
        // Fundamental + harmonics give a two-peaked "business day".
        let shape = 0.5 - 0.35 * day.cos() + 0.25 * (2.0 * day).sin() + 0.1 * (3.0 * day).cos();
        // Occasional bursts: a few percent of seconds see a surge.
        let burst_roll = unit_noise(self.seed.wrapping_add(17), t / 30);
        let burst = if burst_roll > 0.9 { 0.6 } else { 0.0 };
        let noise = 0.15 * unit_noise(self.seed, t);
        (self.base + self.amplitude * (shape + burst) * (1.0 + noise)).max(0.0)
    }

    fn duration(&self) -> u64 {
        self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_respects_bounds_and_period() {
        let p = SineProfile::new(10.0, 100.0, 100, 300);
        for t in 0..300 {
            let v = p.intensity(t);
            assert!((10.0..=100.0).contains(&v), "t={t} v={v}");
        }
        assert!((p.intensity(0) - 10.0).abs() < 1e-9);
        assert!((p.intensity(50) - 100.0).abs() < 1e-9);
        assert_eq!(p.intensity(0), p.intensity(100));
    }

    #[test]
    fn sin1000_range() {
        let p = SineProfile::sin1000(1000);
        let s = p.series();
        let max = s.iter().cloned().fold(0.0, f64::max);
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max <= 1000.0 && max > 990.0);
        assert!((min - 1.0).abs() < 1.0);
    }

    #[test]
    fn noisy_profile_varies_but_tracks_base() {
        let p = NoisyProfile::<SineProfile>::sinnoise1000(500, 42);
        let base = SineProfile::sin1000(500);
        let mut differs = 0;
        for t in 0..500 {
            let v = p.intensity(t);
            assert!(v >= 0.0);
            if (v - base.intensity(t)).abs() > 1.0 {
                differs += 1;
            }
        }
        assert!(differs > 400, "noise should perturb most seconds");
        // Deterministic for the same seed.
        let p2 = NoisyProfile::<SineProfile>::sinnoise1000(500, 42);
        assert_eq!(p.intensity(123), p2.intensity(123));
    }

    #[test]
    fn constant_is_flat() {
        let p = ConstantProfile::new(250.0, 60);
        assert_eq!(p.intensity(0), 250.0);
        assert_eq!(p.intensity(59), 250.0);
        assert_eq!(p.duration(), 60);
    }

    #[test]
    fn stepped_holds_each_level() {
        let p = SteppedProfile::new(vec![10.0, 20.0, 30.0], 5);
        assert_eq!(p.intensity(0), 10.0);
        assert_eq!(p.intensity(4), 10.0);
        assert_eq!(p.intensity(5), 20.0);
        assert_eq!(p.intensity(14), 30.0);
        assert_eq!(p.intensity(100), 30.0);
        assert_eq!(p.duration(), 15);
    }

    #[test]
    fn stepped_range_is_evenly_spaced() {
        let p = SteppedProfile::range(100.0, 300.0, 3, 10);
        assert_eq!(p.intensity(0), 100.0);
        assert_eq!(p.intensity(10), 200.0);
        assert_eq!(p.intensity(20), 300.0);
    }

    #[test]
    fn ramp_is_linear() {
        let p = RampProfile::new(0.0, 100.0, 100);
        assert_eq!(p.intensity(0), 0.0);
        assert_eq!(p.intensity(50), 50.0);
        assert_eq!(p.intensity(100), 100.0);
        assert_eq!(p.intensity(200), 100.0);
    }

    #[test]
    fn locust_hatches_then_holds() {
        let p = LocustProfile::new(700.0, 700, 300);
        assert_eq!(p.intensity(0), 0.0);
        assert!((p.intensity(350) - 350.0).abs() < 1.0);
        assert_eq!(p.intensity(700), 700.0);
        assert_eq!(p.intensity(999), 700.0);
        assert_eq!(p.intensity(1000), 0.0);
        assert_eq!(p.duration(), 1000);
    }

    #[test]
    fn shifted_delays_start() {
        let p = ShiftedProfile::new(ConstantProfile::new(10.0, 100), 50);
        assert_eq!(p.intensity(49), 0.0);
        assert_eq!(p.intensity(50), 10.0);
        assert_eq!(p.duration(), 150);
    }

    #[test]
    fn sockshop_runs_are_disjoint_pulses() {
        let p = SumProfile::sockshop(1.0);
        assert_eq!(p.duration(), 6000);
        assert_eq!(p.intensity(0), 0.0);
        // At t=3900 run 2 holds at 700 and run 3 has not started.
        assert!((p.intensity(3900) - 700.0).abs() < 1.0);
        // The paper's 1000-second runs start at 1000/3000/5000 s, so they
        // never overlap and the plateau is the per-run maximum.
        let max = (0..6000).map(|t| p.intensity(t)).fold(0.0, f64::max);
        assert!(max <= 700.0 + 1e-9);
        // Quiet gaps between runs.
        assert_eq!(p.intensity(2500), 0.0);
        assert_eq!(p.intensity(4500), 0.0);
    }

    #[test]
    fn daily_pattern_is_bursty_and_bounded() {
        let p = DailyPatternProfile::new(50.0, 400.0, 2000, 6000, 9);
        let s: Vec<f64> = (0..6000).map(|t| p.intensity(t)).collect();
        assert!(s.iter().all(|&v| v >= 0.0));
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let peak = s.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 1.8 * mean, "peak {peak} vs mean {mean}");
        // Deterministic.
        assert_eq!(p.intensity(777), p.intensity(777));
    }

    #[test]
    fn profiles_are_object_safe() {
        let v: Vec<Box<dyn LoadProfile>> = vec![
            Box::new(ConstantProfile::new(1.0, 10)),
            Box::new(RampProfile::new(0.0, 1.0, 10)),
        ];
        assert_eq!(v[0].duration(), 10);
    }
}

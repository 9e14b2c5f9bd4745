//! Load-intensity profiles for the *monitorless* reproduction.
//!
//! The paper drives its services with several load generators:
//!
//! * **LIMBO / HTTPLoadGenerator** profiles for Solr and the three-tier
//!   web application: `sin1000` (a sine between 1 and 1000 req/s) and
//!   `sinnoise1000` (the same base heavily perturbed with random noise) —
//!   [`SineProfile`], [`NoisyProfile`];
//! * **constant target loads** for Memcache and Cassandra (with ranges
//!   like "2K–50K R/s") — [`ConstantProfile`], [`SteppedProfile`];
//! * a **linearly increasing load** used to find the saturation threshold
//!   Υ (Section 2.2) — [`RampProfile`];
//! * **Locust** hatch-and-hold runs for Sockshop: clients hatch linearly
//!   for 700 s to 700 concurrent users, hold for 300 s, three runs started
//!   at 1000/3000/5000 s — [`LocustProfile`], [`ShiftedProfile`],
//!   [`SumProfile`];
//! * a **realistic worst-case cloud trace** with multiple daily patterns
//!   and high variance for the TeaStore evaluation (Section 4.2.1,
//!   citing Shen et al.) — [`DailyPatternProfile`].
//!
//! YCSB workload classes A/B/D/F (Section 3.2.1) are modeled by
//! [`ycsb::YcsbClass`], which fixes each class's read/write mix.
//!
//! Beyond the paper's generators, [`trace::TraceProfile`] replays sparse
//! `(time, rate)` change-point series in the shape of public cluster
//! traces (Google/Azure), with a bundled sample trace and a seeded
//! synthesizer for fleet-scale runs — see the [`trace`] module docs for
//! the trace format. Hostile autoscaling arrival patterns — serverless
//! scale-to-zero bursts, flash crowds, diurnal replays and slow-ramp
//! squeezes — are packaged with their platform parameters in
//! [`scenario::Scenario`] for the bake-off harness.
//!
//! ```
//! use monitorless_workload::{LoadProfile, SineProfile};
//!
//! let sin1000 = SineProfile::sin1000(3600);
//! let peak = (0..3600).map(|t| sin1000.intensity(t)).fold(0.0, f64::max);
//! assert!(peak > 990.0 && peak <= 1000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod profile;
pub mod scenario;
pub mod trace;
pub mod ycsb;

pub use profile::{
    ConstantProfile, DailyPatternProfile, LoadProfile, LocustProfile, NoisyProfile, RampProfile,
    ShiftedProfile, SineProfile, SteppedProfile, SumProfile,
};
pub use scenario::Scenario;
pub use trace::{TraceError, TraceInterp, TraceProfile};
pub use ycsb::YcsbClass;

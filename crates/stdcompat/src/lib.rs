//! Offline-first standard-library compatibility layer.
//!
//! Every crate in this workspace compiles against the modules in this
//! crate instead of depending on crates.io, so the whole reproduction
//! builds and tests with an empty cargo registry:
//!
//! - [`rng`] — deterministic pseudo-random numbers (SplitMix64 seeding,
//!   xoshiro256++ generation) in place of `rand`.
//! - [`json`] — a minimal JSON value, parser and serializer plus the
//!   [`json::ToJson`]/[`json::FromJson`] traits in place of
//!   `serde`/`serde_json` for the types that round-trip to disk.
//! - [`pool`] — worker pools over [`std::thread::scope`].

#![forbid(unsafe_code)]

pub mod json;
pub mod pool;
pub mod rng;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{Rng, SplitMix64, StdRng, Xoshiro256PlusPlus};

//! Deterministic pseudo-random numbers without `rand`.
//!
//! [`SplitMix64`] (Steele, Lea & Flood 2014) expands a single `u64`
//! seed into the state of [`Xoshiro256PlusPlus`] (Blackman & Vigna
//! 2019), the workspace's default generator. Both are tiny, fast and
//! pass BigCrush-level batteries; neither is cryptographic, which is
//! fine for bootstrap sampling, weight initialisation and workload
//! noise.
//!
//! The sequences produced for a given seed are part of this crate's
//! contract: `tests/integration_determinism.rs` pins simulation and
//! training output bit-for-bit, so any change to the generation scheme
//! is a breaking change.

use std::ops::{Range, RangeInclusive};

/// The workspace's default generator (drop-in for `rand::rngs::StdRng`
/// call sites, but with a stable, documented algorithm).
pub type StdRng = Xoshiro256PlusPlus;

/// A source of uniform pseudo-random numbers.
///
/// The provided combinators mirror the subset of `rand::Rng` this
/// workspace uses: [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`],
/// plus slice helpers [`Rng::shuffle`] and [`Rng::choose`].
pub trait Rng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        // 53 high bits / 2^53, the standard mantissa-filling construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly distributed value of `T` (unit interval for floats,
    /// full range for integers, fair coin for `bool`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform value in the given (half-open or inclusive) range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = sample_index(self, i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[sample_index(self, slice.len())])
        }
    }
}

/// Unbiased uniform index in `[0, n)` via bitmask rejection.
fn sample_index<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    sample_u64(rng, n as u64) as usize
}

/// Unbiased uniform `u64` in `[0, n)`.
///
/// Bitmask + rejection: mask random words down to the next power of
/// two, retry the (at worst ~50 %) overshoots. Branch-free alternatives
/// exist but this is exact, simple and fast enough for training loops.
fn sample_u64<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "cannot sample from an empty range");
    if n == 1 {
        return 0;
    }
    let mask = u64::MAX >> (n - 1).leading_zeros();
    loop {
        let v = rng.next_u64() & mask;
        if v < n {
            return v;
        }
    }
}

/// Types [`Rng::gen`] can produce.
pub trait Standard {
    /// Draws one uniform value.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.gen_f64()
    }
}

impl Standard for f32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait UniformRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniform value from the range.
    fn sample<R: Rng>(self, rng: &mut R) -> Self::Output;
}

macro_rules! uniform_int_range {
    ($($ty:ty),+) => {$(
        impl UniformRange for Range<$ty> {
            type Output = $ty;
            fn sample<R: Rng>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(sample_u64(rng, span) as $ty)
            }
        }
        impl UniformRange for RangeInclusive<$ty> {
            type Output = $ty;
            fn sample<R: Rng>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for the full u64/i64 domain.
                    return rng.next_u64() as $ty;
                }
                lo.wrapping_add(sample_u64(rng, span as u64) as $ty)
            }
        }
    )+};
}

uniform_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float_range {
    ($($ty:ty),+) => {$(
        impl UniformRange for Range<$ty> {
            type Output = $ty;
            fn sample<R: Rng>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range called with empty range");
                let u = <$ty as Standard>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl UniformRange for RangeInclusive<$ty> {
            type Output = $ty;
            fn sample<R: Rng>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with empty range");
                let u = <$ty as Standard>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )+};
}

uniform_float_range!(f32, f64);

/// SplitMix64: one multiply-shift-xor round per output.
///
/// Used both as a standalone generator and to expand seeds for
/// [`Xoshiro256PlusPlus`] (its recommended seeding procedure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0: 256 bits of state, period 2^256 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator whose state is expanded from `seed` with
    /// [`SplitMix64`], per the xoshiro authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256PlusPlus { s }
    }
}

impl Rng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from the public SplitMix64 test vector
    /// (seed 1234567): the first three outputs.
    #[test]
    fn splitmix64_matches_reference_vector() {
        let mut rng = SplitMix64::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_f64_is_in_unit_interval_and_not_constant() {
        let mut rng = StdRng::seed_from_u64(7);
        let vals: Vec<f64> = (0..1000).map(|_| rng.gen_f64()).collect();
        assert!(vals.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_int_hits_all_values_without_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[rng.gen_range(0..5usize)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
        // Inclusive ranges reach their upper bound.
        assert!((0..=1u8).contains(&rng.gen_range(0..=1u8)));
    }

    #[test]
    fn gen_range_float_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(-2.5_f64..7.5);
            assert!((-2.5..7.5).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle left the slice sorted");
    }

    #[test]
    fn choose_returns_none_only_for_empty() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert!(matches!(rng.choose(&[1, 2, 3]), Some(&(1..=3))));
    }

    #[test]
    fn gen_bool_probability_is_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
    }
}

//! A miniature property-testing framework with the `proptest` 1.x API
//! surface this workspace's test suites use: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`], range and
//! tuple strategies, [`collection::vec`], `prop_map`/`prop_flat_map`
//! and [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case reports its generated inputs and
//!   the run's RNG seed instead of a minimised counterexample.
//! - **Deterministic by default.** Cases derive from a fixed seed
//!   (override with `PROPTEST_RNG_SEED`); case count defaults to 64
//!   (override with `PROPTEST_CASES` or `ProptestConfig::with_cases`).
//!
//! Pointing the workspace manifest's `proptest` entry at crates.io
//! swaps in the real crate with no changes to the test files.

pub mod strategy;

pub mod collection;

/// Configuration and case outcome types.
pub mod test_runner {
    /// Runner configuration (mirrors the fields of
    /// `proptest::test_runner::Config` this workspace sets).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
        /// A `prop_assert!` failed; the test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError::Fail(message.into())
        }

        /// A rejection with the given reason.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    /// The deterministic generator driving a test run (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator from an explicit seed.
        pub fn seed_from_u64(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// The next 64 uniformly distributed bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Unbiased uniform `u64` in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "cannot sample from an empty range");
            if n == 1 {
                return 0;
            }
            let mask = u64::MAX >> (n - 1).leading_zeros();
            loop {
                let v = self.next_u64() & mask;
                if v < n {
                    return v;
                }
            }
        }
    }

    /// The seed for a test run: `PROPTEST_RNG_SEED` if set, otherwise a
    /// fixed constant so CI runs are reproducible.
    pub fn runner_seed() -> u64 {
        std::env::var("PROPTEST_RNG_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x6d6f_6e69_746f_7235) // "monitor5"
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { .. }`
/// item becomes a test running `config.cases` successful cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let seed = $crate::test_runner::runner_seed();
            let mut rng = $crate::test_runner::TestRng::seed_from_u64(seed);
            let mut passed: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = config.cases.saturating_mul(16).max(1024);
            while passed < config.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "{}: exceeded {} attempts (too many prop_assume! rejections)",
                    stringify!($name),
                    max_attempts,
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);
                )*
                let described = format!(
                    concat!("{{", $(" ", stringify!($arg), " = {:?}",)* " }}"),
                    $(&$arg),*
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => continue,
                    Err($crate::test_runner::TestCaseError::Fail(message)) => panic!(
                        "{} failed at case {}: {}\n  inputs: {}\n  (rerun with PROPTEST_RNG_SEED={})",
                        stringify!($name),
                        passed + 1,
                        message,
                        described,
                        seed,
                    ),
                }
            }
        }
    )*};
}

/// Asserts inside a property body; failure fails the case with the
/// generated inputs attached.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{} == {} failed: {:?} != {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "{} != {} failed: both were {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Rejects the current case (retried with fresh inputs, not counted).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(
            x in 0.5_f64..2.5,
            n in 3usize..10,
            b in 0u8..=1,
        ) {
            prop_assert!((0.5..2.5).contains(&x));
            prop_assert!((3..10).contains(&n));
            prop_assert!(b <= 1);
        }

        #[test]
        fn vec_strategy_honours_length_and_element_ranges(
            v in crate::collection::vec(-2.0_f64..2.0, 2..50),
        ) {
            prop_assert!((2..50).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (-2.0..2.0).contains(x)));
        }

        #[test]
        fn flat_map_links_sizes(
            v in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
                crate::collection::vec(0.0_f64..1.0, r * c)
                    .prop_map(move |data| (r, c, data))
            }),
        ) {
            let (r, c, data) = v;
            prop_assert_eq!(data.len(), r * c);
        }

        #[test]
        fn assume_retries_instead_of_failing(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(8))]
                #[allow(unused)]
                fn always_fails(n in 0u32..10) {
                    prop_assert!(n > 100, "n was {}", n);
                }
            }
            always_fails();
        });
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("inputs"), "{message}");
        assert!(message.contains("PROPTEST_RNG_SEED"), "{message}");
    }
}

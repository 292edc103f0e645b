//! Vendored, dependency-free stand-in for `proptest`.
//!
//! The build environment resolves crates offline, so the workspace vendors
//! the subset of proptest its property tests actually use: the
//! [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`]
//! macros, [`ProptestConfig::with_cases`], numeric-range and tuple
//! strategies, and [`collection::vec`]. Cases are drawn from a
//! deterministic seeded generator (no shrinking, no persistence) — each
//! test runs `cases` independent samples and panics on the first failing
//! one, printing the case number so a failure is reproducible by rerunning
//! the same binary.

use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod collection;

/// The RNG driving case generation (deterministic per test run).
pub type TestRng = rand::StdRng;

/// Per-`proptest!` block configuration (the subset used here).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// How many random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// The case was rejected by `prop_assume!`; it is skipped.
    Reject(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// An assumption rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// The runner behind the [`proptest!`] macro: executes `cases` samples of
/// `body`, skipping rejects, panicking (with the case index) on the first
/// failure.
pub fn run_cases(
    test_name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    // Seed folds the test name in so sibling tests draw different streams.
    let mut seed = 0xcafe_f00d_d15e_a5e5u64;
    for b in test_name.bytes() {
        seed = seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(u64::from(b));
    }
    let mut rng = TestRng::seed_from_u64(seed);
    let mut rejected = 0u32;
    for case in 0..config.cases {
        match body(&mut rng) {
            Ok(()) => {}
            Err(TestCaseError::Reject(_)) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!("{test_name}: case {case}/{} failed: {msg}", config.cases)
            }
        }
    }
    // With no shrink/re-draw machinery, an all-reject run would silently
    // verify nothing; make that loud instead.
    assert!(
        rejected < config.cases,
        "{test_name}: every case was rejected by prop_assume!"
    );
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Defines property tests. Supports the upstream block form used in this
/// repository: an optional `#![proptest_config(...)]` header followed by
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_cases(stringify!($name), &config, |__proptest_rng| {
                    $(let $pat = $crate::Strategy::sample(&($strat), __proptest_rng);)+
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}` ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the current case unless the two expressions differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}` (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Skips the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Range strategies respect their bounds.
        #[test]
        fn ranges_in_bounds(x in 3usize..9, y in -1.0f64..1.0, (a, b) in (0u32..4, 5u64..6)) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y), "{y} out of range");
            prop_assert!(a < 4);
            prop_assert_eq!(b, 5);
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0.0f64..1.0, 2..10)) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.len() >= 2 && v.len() < 10);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            if v.len() == 2 {
                return Ok(());
            }
            prop_assert_ne!(v.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "case")]
    fn failing_property_panics() {
        proptest! {
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }

    #[test]
    fn deterministic_across_runs() {
        let mut first = Vec::new();
        let mut second = Vec::new();
        crate::run_cases("det", &ProptestConfig::with_cases(10), |rng| {
            first.push(crate::Strategy::sample(&(0u64..1000), rng));
            Ok(())
        });
        crate::run_cases("det", &ProptestConfig::with_cases(10), |rng| {
            second.push(crate::Strategy::sample(&(0u64..1000), rng));
            Ok(())
        });
        assert_eq!(first, second);
    }
}

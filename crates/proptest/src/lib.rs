//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build environment has no network access, so this workspace ships
//! the slice of the proptest API its property tests use: the
//! [`Strategy`] trait with [`Strategy::prop_map`], range and tuple
//! strategies, [`collection::vec`], [`any`], [`ProptestConfig`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its case number; streams
//!   are deterministic per `(test name, case)`, so failures reproduce
//!   exactly on re-run;
//! * **no persistence/regression files**;
//! * assertion macros panic directly instead of returning `TestCaseError`.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The random source handed to strategies.
pub type TestRng = StdRng;

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property is checked with.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Derives the deterministic RNG for one test case.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value — the
    /// two-stage draw behind "generate cards, then data of that shape".
    fn prop_flat_map<T: Strategy, F: Fn(Self::Value) -> T>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// The [`Strategy::prop_flat_map`] combinator.
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// One arm of a [`OneOf`]: a boxed draw function.
pub type OneOfArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Backing type of [`prop_oneof!`]: draws one of its arms uniformly.
pub struct OneOf<V> {
    arms: Vec<OneOfArm<V>>,
}

/// Builds a [`OneOf`] from boxed draw functions (used by [`prop_oneof!`]).
pub fn one_of<V>(arms: Vec<OneOfArm<V>>) -> OneOf<V> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    OneOf { arms }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        (self.arms[i])(rng)
    }
}

/// Uniform choice between strategies of one value type (upstream's
/// weighted form is not supported — weight every arm equally instead).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::one_of(vec![
            $({
                let s = $strat;
                Box::new(move |rng: &mut $crate::TestRng| {
                    $crate::Strategy::generate(&s, rng)
                }) as Box<dyn Fn(&mut $crate::TestRng) -> _>
            },)+
        ])
    };
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),* $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!(
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F2),
    (A, B, C, D, E, F2, G),
    (A, B, C, D, E, F2, G, H)
);

/// Types with a canonical strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy for the type.
    type Strategy: Strategy<Value = Self>;

    /// Builds that strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for all values of a type with uniformly-samplable bits.
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

macro_rules! any_via_standard {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen::<$t>()
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyStrategy(std::marker::PhantomData)
            }
        }
    )*};
}

any_via_standard!(bool, u32, u64, f64);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: an exact length or a
    /// half-open range of lengths.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy producing `Vec`s of `elem` values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A vector strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ...)`
/// block is run `config.cases` times with fresh random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        #[test]
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::case_rng(stringify!($name), __case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
}

/// In-property assertion (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// In-property equality assertion (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_case() {
        let strat = (0u32..100, collection::vec(0i64..10, 3..8));
        let a = Strategy::generate(&strat, &mut crate::case_rng("t", 5));
        let b = Strategy::generate(&strat, &mut crate::case_rng("t", 5));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3i64..9, y in 0.0f64..2.5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.0..2.5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_the_size_range(
            v in collection::vec(0u32..4, 2..6),
            w in collection::vec(any::<bool>(), 7),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(w.len(), 7);
            prop_assert!(v.iter().all(|&c| c < 4));
        }

        #[test]
        fn prop_map_applies(n in (1usize..5).prop_map(|n| n * 10)) {
            prop_assert!(n % 10 == 0 && (10..50).contains(&n));
        }

        #[test]
        fn flat_map_shapes_the_second_draw(
            v in (1usize..5).prop_flat_map(|len| collection::vec(0u32..9, len))
        ) {
            prop_assert!((1..5).contains(&v.len()));
        }

        #[test]
        fn oneof_draws_every_arm(x in prop_oneof![Just(1u32), Just(2u32), 10u32..20]) {
            prop_assert!(x == 1 || x == 2 || (10u32..20).contains(&x));
        }

        #[test]
        fn just_clones_its_value(v in Just(vec![7u8, 8])) {
            prop_assert_eq!(v, vec![7u8, 8]);
        }
    }
}

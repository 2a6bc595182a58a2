//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace uses: the `proptest!` macro (with an
//! optional `#![proptest_config(...)]` header), `prop_assert!`/`prop_assert_eq!`,
//! range and tuple strategies, `prop_map`, `collection::vec`, `any::<T>()` for
//! primitive types and `prop::sample::Index`, and `ProptestConfig::with_cases`.
//!
//! Differences from upstream: cases are generated from a fixed per-test seed
//! (fully deterministic, no persistence files) and failing cases are reported
//! but **not shrunk**.

// Lets `proptest::...` paths (as written by downstream test code and our own
// unit tests) resolve inside this crate as well.
extern crate self as proptest;

use std::ops::Range;

/// Number of generated cases per property (default; override with
/// `#![proptest_config(ProptestConfig::with_cases(n))]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic generator backing case construction (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed ^ 0x5DEE_CE66_D1CE_4E5B }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A value generator. Unlike upstream there is no intermediate value tree:
/// strategies produce final values directly (no shrinking).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
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

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// `any::<T>()` support (the `Arbitrary` trait).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy producing arbitrary values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Collection size specification: an exact length or a half-open range
    /// (upstream proptest's `SizeRange` conversions this workspace uses).
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into().0 }
    }
}

pub mod sample {
    use super::{Arbitrary, TestRng};

    /// A position into a collection of as-yet-unknown length
    /// (`prop::sample::Index`).
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Maps onto `0..len`. Panics on `len == 0`, like upstream.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// The `prop::` path used by `prop::sample::Index`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

/// Derives a stable 64-bit seed from the test name so every property has its
/// own deterministic stream.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`", left, right
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng =
                    $crate::TestRng::new($crate::seed_from_name(::std::stringify!($name)));
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        ::std::panic!(
                            "proptest case {}/{} of `{}` failed: {}",
                            case + 1, config.cases, ::std::stringify!($name), msg
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(a in 0u64..100, b in -50i64..50) {
            prop_assert!(a < 100);
            prop_assert!((-50..50).contains(&b), "b = {b}");
        }

        #[test]
        fn vec_sizes_respect_bounds(v in proptest::collection::vec(0u64..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn prop_map_applies(x in (0u64..10, 0u64..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(x <= 18);
        }

        #[test]
        fn index_maps_into_len(i in any::<prop::sample::Index>()) {
            let idx = i.index(7);
            prop_assert!(idx < 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn config_header_parses(x in 0u64..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_context() {
        proptest! {
            #[allow(unused)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}

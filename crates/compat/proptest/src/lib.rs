//! Workspace-local stand-in for the subset of `proptest` that the
//! firesim-rs test suites use.
//!
//! The build environment is offline, so the real crate cannot be fetched.
//! This implementation keeps the same *testing semantics* — strategies
//! generate deterministic pseudo-random inputs, `proptest!` runs each test
//! body over many cases, failures report the case number and seed — but
//! does not implement shrinking. Set `PROPTEST_SEED` to reproduce a
//! failing run, or rely on the fixed default seed (runs are fully
//! deterministic by default).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic generator handed to strategies (SplitMix64 stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the RNG for one test case.
    pub fn for_case(seed: u64, case: u64) -> Self {
        // Decorrelate per-case streams through two splitmix rounds.
        let mut rng = TestRng {
            state: seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        rng.next_u64();
        rng.next_u64();
        rng
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------
// Core strategy machinery
// ---------------------------------------------------------------------

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Maps generated values through a partial function, retrying on `None`.
    fn prop_filter_map<U, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(move |rng: &mut TestRng| self.generate(rng)))
    }
}

/// A cloneable type-erased strategy.
pub struct BoxedStrategy<V>(Arc<dyn Fn(&mut TestRng) -> V>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<V> fmt::Debug for BoxedStrategy<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F, U> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map rejected too many values: {}", self.whence);
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
#[derive(Debug, Clone)]
pub struct Union<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

// ---------------------------------------------------------------------
// Primitive strategies: ranges and `any`
// ---------------------------------------------------------------------

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Values drawable by [`any`].
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t { rng.next_u64() as $t }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The `any::<T>()` strategy over the whole domain of `T`.
#[derive(Debug)]
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Any<T> {}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Creates a strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A / a);
tuple_strategy!(A / a, B / b);
tuple_strategy!(A / a, B / b, C / c);
tuple_strategy!(A / a, B / b, C / c, D / d);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e);

// ---------------------------------------------------------------------
// Collections and Option
// ---------------------------------------------------------------------

/// Size specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

/// Collection strategies (`vec`, `btree_set`).
pub mod collection {
    use super::*;

    /// Strategy for `Vec`s of `inner` values with lengths in `size`.
    pub fn vec<S: Strategy>(inner: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            inner,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        inner: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.inner.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s of `inner` values with sizes in `size`.
    pub fn btree_set<S>(inner: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            inner,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        inner: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 100 + 100 {
                out.insert(self.inner.generate(rng));
                attempts += 1;
            }
            assert!(
                out.len() >= self.size.lo,
                "btree_set strategy could not reach minimum size {} (domain too small?)",
                self.size.lo
            );
            out
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::*;

    /// Strategy producing `None` half the time and `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Runner plumbing
// ---------------------------------------------------------------------

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A test-case failure produced by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

/// The base seed: `PROPTEST_SEED` env var when set, a fixed default
/// otherwise (runs are deterministic either way).
fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse().unwrap_or(0xF1E5_1105_EED5_EED5),
        Err(_) => 0xF1E5_1105_EED5_EED5,
    }
}

/// Runs `body` for every case, panicking with context on failure.
pub fn run_cases(
    test_name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let seed = base_seed();
    for case in 0..u64::from(config.cases) {
        let mut rng = TestRng::for_case(seed, case);
        if let Err(e) = body(&mut rng) {
            panic!(
                "proptest {test_name}: case {case}/{} failed (seed {seed:#x}): {e}",
                config.cases
            );
        }
    }
}

/// Everything the test files import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests; see the real proptest for the full syntax.
/// Supported here: an optional `#![proptest_config(..)]` header followed
/// by `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), &__config, |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    let __body_result: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    __body_result
                });
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), __a, __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(*__a == *__b, $($fmt)+);
    }};
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a), stringify!($b), __a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(*__a != *__b, $($fmt)+);
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union(vec![ $( $crate::Strategy::boxed($arm) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_case(1, 2);
        for _ in 0..1000 {
            let v = crate::Strategy::generate(&(5u32..17), &mut rng);
            assert!((5..17).contains(&v));
            let w = crate::Strategy::generate(&(-10i64..=10), &mut rng);
            assert!((-10..=10).contains(&w));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = crate::TestRng::for_case(seed, 7);
            crate::Strategy::generate(&crate::collection::vec(0u64..1000, 3..10), &mut rng)
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_plumbing_works(a in 0u32..100, b in any::<bool>()) {
            prop_assert!(a < 100);
            if b {
                prop_assert_ne!(a + 1, 0);
            }
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            Just(1u8),
            2u8..4,
            (0u8..2).prop_map(|x| x + 10),
        ]) {
            prop_assert!(v == 1 || v == 2 || v == 3 || v == 10 || v == 11);
        }
    }
}

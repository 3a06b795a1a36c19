//! Offline shim for the `proptest` crate.
//!
//! The build environment has no crates registry, so this workspace vendors
//! the slice of the proptest API its property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map` / `prop_recursive`, range and tuple strategies,
//! [`collection::vec`], [`option::of`], `any::<T>()`,
//! `Just`, the `prop_oneof!` / `proptest!` / `prop_assert*!` macros, and
//! [`test_runner::ProptestConfig`].
//!
//! Semantics differ from upstream in one deliberate way: **no shrinking**.
//! Failures reproduce deterministically instead — the RNG stream for a test
//! case is a pure function of the test's module path, name, and case index,
//! so a red case replays identically on every run and platform.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod test_runner;

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Weighted (or unweighted) union of strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property test functions: each argument pattern is bound to a
/// value generated from its strategy, `cases` times per run.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::strategy::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case as u64,
                    );
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

//! `heimdall_integration::prop`: an in-tree, dependency-free
//! property-testing engine.
//!
//! The build environment has no crates.io access, so `proptest` and
//! `quickcheck` are off the table; this module provides the pieces the
//! invariant catalog in `tests/tests/prop_invariants.rs` needs, and
//! nothing more:
//!
//! - **Seeded generation** ([`gen`]): a [`Strategy`] produces a value from
//!   the workspace's deterministic
//!   [`Rng64`](heimdall_trace::rng::Rng64). Combinators cover scalars,
//!   floats, vectors, and tuples; domain-specific generators compose them
//!   or implement [`Strategy`] directly.
//! - **Integrated shrinking**: every built-in strategy knows how to
//!   propose *simpler* variants of a failing value — binary search toward
//!   the lower bound on scalars, chunk removal plus element-wise
//!   simplification on vectors, one coordinate at a time on tuples. The
//!   runner applies them greedily until no candidate still fails.
//! - **A reproducible runner** ([`check`]): each case derives its own
//!   `u64` seed from the property's master seed via SplitMix64, and a
//!   failure report prints that seed together with the shrunken minimal
//!   counterexample. Re-running with `HEIMDALL_PROP_SEED=<seed>` replays
//!   exactly the failing case; `HEIMDALL_PROP_CASES=<n>` turns the same
//!   suite into a long-running fuzz lane.
//!
//! The engine is itself under test: `runner::self_tests` plants a known
//! bug behind `#[cfg(test)]` and asserts the shrinker minimizes it to the
//! documented counterexample.

pub mod gen;
pub mod runner;

pub use gen::{f32_in, tuple2, tuple3, u64_in, usize_in, vec_of, Strategy, Tuple2, Tuple3, VecOf};
pub use runner::{check, falsify, Config, CounterExample};

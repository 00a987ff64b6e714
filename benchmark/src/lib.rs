//! End-to-end and per-layer benchmark of the Heimdall reproduction.
//!
//! Four workloads — trace-to-model build (`pipeline_msr`), admitted replay
//! (`homed_heimdall`), engine-only replay (`homed_hedging`) and wide fan-out
//! (`wide_sf10`) — each measured from outside, by timing calls into the
//! crates' public functions: end-to-end metrics from an untraced run,
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod hist;
pub mod host;
pub mod json;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workloads;

// The smoke tests read allocation counts, so the test binary counts too.
#[cfg(test)]
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

#[cfg(test)]
mod tests;

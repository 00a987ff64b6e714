//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Every `fig*` binary in `src/bin/` regenerates one table or figure from
//! the paper's evaluation (§6-§8). This library provides the pieces they
//! share: experiment setup (trace pools, device pairs, per-device model
//! training), a work-stealing parallel runner ([`runner`], `--jobs N`)
//! whose tables stay byte-identical to a serial run, machine-readable
//! per-run JSON reports under `results/` ([`report`]), and plain-text
//! table output in the same rows/series the paper reports.

pub mod experiment;
pub mod fault;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod timing;

pub use experiment::{
    collect_records, default_trace_pool, light_heavy_pair, record_pool, run_policies,
    ExperimentSetup, PolicyKind, PolicyRun,
};
pub use fault::{fault_sweep, FaultScenario};
pub use report::{Json, RunReport};
pub use runner::run_ordered;
pub use sweep::{joint_replay_sweep, replay_json};
pub use table::{fmt_us, print_header, print_row, row_string};

/// Parses `--key value` style CLI options with defaults, so every bench
/// binary supports quick (`--seeds 3`) and full (`--seeds 50`) runs.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Integer option `--name <n>` with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get_str(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// u64 option.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get_str(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Raw string option.
    pub(crate) fn get_str(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Worker threads for the parallel runner: `--jobs N`, defaulting to
    /// the available hardware parallelism. Tables are byte-identical for
    /// any value (see [`runner`]).
    pub fn jobs(&self) -> usize {
        runner::resolve_jobs(self.get_usize("jobs", 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults_apply() {
        let a = Args {
            raw: vec!["--seeds".into(), "7".into(), "--fast".into()],
        };
        assert_eq!(a.get_usize("seeds", 3), 7);
        assert_eq!(a.get_usize("missing", 9), 9);
        assert!(a.has("fast"));
        assert!(!a.has("slow"));
    }
}

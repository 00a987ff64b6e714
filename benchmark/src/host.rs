//! Host fingerprint and process memory, so two result files are comparable
//! or visibly not.

use crate::json::Json;
use std::process::Command;

/// First line of a command's stdout, or `"unknown"` when it cannot run
/// (the driver's checkout is not a git repository, for instance).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Value of `key` in a `/proc`-style `key: value` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Core count, CPU model, compiler, profile and commit of this run.
pub fn fingerprint() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("cores", Json::Int(cores)),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string())
                .into(),
        ),
        ("rustc", first_line("rustc", &["-V"]).into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit", first_line("git", &["rev-parse", "HEAD"]).into()),
    ])
}

/// Peak resident set size (`VmHWM`) of this process in MB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

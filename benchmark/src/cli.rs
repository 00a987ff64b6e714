//! Command line shared by the two binaries (`bench` keeps the system
//! allocator and serves `--trace 0`; `bench_traced` installs the counting
//! allocator and serves `--trace 1`; `run.sh` picks between them).

use crate::compare::compare;
use crate::run::{run, RunArgs};
use crate::workloads::{Size, NAMES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  run.sh --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
  run.sh compare <base-dir> <change-dir> [--manifest BENCHMARK.json]
  run.sh                      every workload, untraced then traced, seed 11";

/// Where result and trace files go unless `--out` says otherwise.
const DEFAULT_OUT: &str = "benchmark/results";

/// The `--flag value` pairs of `args`; any flag outside `known` is an error.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        pairs.push((name.to_string(), value.clone()));
    }
    Ok(pairs)
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag} takes a whole number, got `{value}`"))
}

fn run_command(args: &[String], traced_binary: bool) -> Result<bool, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 11,
        seconds: 10,
        trace: traced_binary,
    };
    let mut out = PathBuf::from(DEFAULT_OUT);
    for (flag, value) in parse_flags(args, &["workload", "seed", "seconds", "trace", "out"])? {
        match flag.as_str() {
            "workload" => parsed.workload = value,
            "seed" => parsed.seed = number(&flag, &value)?,
            "seconds" => parsed.seconds = number(&flag, &value)?,
            "trace" => parsed.trace = number(&flag, &value)? != 0,
            _ => out = PathBuf::from(value),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!("--workload is one of {}", NAMES.join(", ")));
    }
    // The allocation counters only count in the binary that installed them.
    if parsed.trace != traced_binary {
        return Err(format!(
            "--trace {} is served by the other binary; start through benchmark/run.sh",
            parsed.trace as u8
        ));
    }

    let result = run(&parsed, &Size::FULL)?;
    let stem = format!(
        "{}.s{}.t{}",
        parsed.workload, parsed.seed, parsed.trace as u8
    );
    write(
        &out.join(format!("{stem}.json")),
        &result.report.to_string(),
    )?;
    if let Some(trace) = &result.trace {
        write(
            &out.join(format!("{}.trace.json", parsed.workload)),
            &trace.to_string(),
        )?;
    }

    println!(
        "workload {} seed {} trace {} host {}",
        parsed.workload,
        parsed.seed,
        parsed.trace as u8,
        result.report.get("host").expect("set by run")
    );
    for key in [
        "digest",
        "sim_samples",
        "sim_read_p99_us",
        "sim_read_p9999_us",
        "details",
    ] {
        println!("  {key} {}", result.report.get(key).expect("set by run"));
    }
    for key in ["setup_seconds", "rep_seconds"] {
        if let Some(value) = result.report.get(key) {
            println!("  {key} {value}");
        }
    }
    for (def, value) in &result.metrics {
        println!("  {:<40} {value:>18.6} {}", def.name, def.unit);
    }
    for error in &result.errors {
        println!("  CHECK FAILED: {error}");
    }
    println!("{}", result.driver_line());
    Ok(result.correct)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().expect("joined onto a directory");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [base, change, rest @ ..] = args else {
        return Err("compare takes two result directories".to_string());
    };
    let manifest = parse_flags(rest, &["manifest"])?.pop().map_or_else(
        || PathBuf::from("BENCHMARK.json"),
        |(_, v)| PathBuf::from(v),
    );
    compare(Path::new(base), Path::new(change), &manifest).map(|regressed| !regressed)
}

/// Entry point of both binaries; `traced_binary` says which one is running.
/// Exits 0 when every check passed (or `compare` found no regression), 1
/// when one failed, 2 on a usage error.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        _ => run_command(&args, traced_binary),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

//! Suite-level tests: names, the manifest, and every workload end to end at
//! the smoke size.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{run, RunArgs, RunResult};
use crate::workloads::{Size, NAMES};

fn well_formed(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let metrics: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
    let mut names: Vec<&str> = metrics.iter().map(|m| m.name).chain(NAMES).collect();
    for name in &names {
        assert!(well_formed(name, "_.-", 64), "bad name {name:?}");
        assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name:?}");
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
    for m in metrics {
        assert!(well_formed(m.unit, "_/%.-", 16), "bad unit {:?}", m.unit);
        assert!(["higher", "lower"].contains(&m.better), "{}", m.name);
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn declared(manifest: &Json, list: &str) -> Vec<(String, String, String)> {
    let text = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
        .collect()
}

fn in_code(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn manifest_declares_exactly_what_the_command_emits() {
    let manifest = manifest();
    let keys: Vec<&str> = manifest
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(declared(&manifest, "end_to_end"), in_code(END_TO_END));
    assert_eq!(declared(&manifest, "per_layer"), in_code(PER_LAYER));
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, NAMES);
    for entry in manifest.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    assert_eq!(
        manifest.get("paths"),
        Some(&Json::Arr(vec!["benchmark".into()]))
    );
}

fn smoke(workload: &str, trace: bool) -> RunResult {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0,
        trace,
    };
    let result = run(&args, &Size::SMOKE).expect("inputs build");
    assert!(
        result.correct && result.failed == 0 && result.attempted >= 1,
        "{workload} trace={trace}: {:?}",
        result.errors
    );
    result
}

fn value(result: &RunResult, name: &str) -> f64 {
    let (_, value) = result
        .metrics
        .iter()
        .find(|(def, _)| def.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"));
    *value
}

/// One untraced and two traced runs of a workload: clean, emitting exactly
/// the declared metrics, with counts and simulated results that repeat.
fn check_workload(workload: &str, on_path: &[&str], counts: &[&str]) {
    let untraced = smoke(workload, false);
    let emitted: Vec<&str> = untraced.metrics.iter().map(|(d, _)| d.name).collect();
    let wanted: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(emitted, wanted);
    for (def, value) in &untraced.metrics {
        assert!(value.is_finite() && *value > 0.0, "{} = {value}", def.name);
    }
    let line = untraced.driver_line();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(Json::parse(&line.to_string()).as_ref(), Ok(&line));

    let first = smoke(workload, true);
    let second = smoke(workload, true);
    let emitted: Vec<&str> = first.metrics.iter().map(|(d, _)| d.name).collect();
    let wanted: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(emitted, wanted);
    for name in on_path {
        assert!(
            value(&first, name) > 0.0,
            "{workload}: {name} is on its path"
        );
    }
    // Single-threaded allocation counts and simulated results are exact.
    for name in counts {
        assert!(
            value(&first, name) > 0.0,
            "{workload}: {name} counts nothing"
        );
        assert_eq!(value(&first, name), value(&second, name), "{name}");
    }
    let digest = |r: &RunResult| r.report.get("digest").cloned();
    assert_eq!(digest(&first), digest(&second));
    assert_eq!(
        digest(&first),
        digest(&untraced),
        "traced and untraced runs differ"
    );
    assert!(first.trace.is_some() && untraced.trace.is_none());
}

#[test]
fn pipeline_msr_runs_clean_at_smoke_size() {
    check_workload(
        "pipeline_msr",
        &[
            "core.labeling.tune_seconds",
            "nn.mlp.train_seconds",
            "nn.batch.score_ns_per_row",
            "core.pipeline.roc_auc",
            "bench.trace_overhead_ratio",
        ],
        &[
            "core.pipeline.allocs",
            "core.pipeline.alloc_bytes",
            "core.features.rows",
        ],
    );
}

#[test]
fn homed_heimdall_runs_clean_at_smoke_size() {
    check_workload(
        "homed_heimdall",
        &[
            "cluster.train.fit_seconds",
            "cluster.replayer.policy_seconds",
            "policies.route_read.ns_mean",
            "core.model.decide_ns",
            "nn.quantized.predict_ns",
        ],
        &[
            "cluster.replayer.allocs",
            "policies.ml.inferences",
            "cluster.eventq.events",
        ],
    );
}

#[test]
fn homed_hedging_runs_clean_at_smoke_size() {
    check_workload(
        "homed_hedging",
        &[
            "cluster.replayer.device_seconds",
            "metrics.latency.sort_seconds",
        ],
        &["cluster.replayer.allocs", "cluster.replayer.hedges_fired"],
    );
}

#[test]
fn wide_sf10_runs_clean_at_smoke_size() {
    check_workload(
        "wide_sf10",
        &[
            "cluster.wide.engine_floor_seconds",
            "cluster.wide.ns_per_sub_read",
        ],
        &["cluster.wide.allocs", "cluster.wide.sub_reads"],
    );
}

#[test]
fn unknown_workload_is_an_error() {
    let args = RunArgs {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0,
        trace: false,
    };
    assert!(run(&args, &Size::SMOKE).is_err());
}

//! Deterministic sweep helpers shared by the figure binaries and the
//! integration tests.
//!
//! The parallel runner guarantees result *order* is independent of the
//! worker count; the helpers here additionally keep the rendered output
//! free of anything non-deterministic (wall-clock, worker counts), so a
//! sweep's table and run records are byte-identical for any `--jobs N`.
//! The golden determinism test in `tests/` holds `--jobs 1` against
//! `--jobs 8` on exactly these strings.

use crate::experiment::{ExperimentSetup, PolicyKind};
use crate::report::Json;
use crate::runner::run_ordered;
use crate::table::{fmt_us, row_string};
use heimdall_cluster::replayer::ReplayResult;
use heimdall_ssd::DeviceConfig;
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

/// Deterministic run record for one replay: everything
/// [`crate::PolicyRun::to_json`] reports except the wall-clock stages.
pub fn replay_json(r: &ReplayResult) -> Json {
    Json::obj([
        ("policy", Json::from(r.policy.as_str())),
        ("mean_latency_us", Json::from(r.mean_latency())),
        ("p95_us", Json::from(r.reads.percentile(95.0))),
        ("p99_us", Json::from(r.reads.percentile(99.0))),
        ("reads", Json::from(r.reads.len() as u64)),
        ("writes", Json::from(r.writes)),
        ("rerouted", Json::from(r.rerouted)),
        ("inferences", Json::from(r.inferences)),
        ("reroutes_on_fault", Json::from(r.reroutes_on_fault)),
        ("retries", Json::from(r.retries)),
        ("fallback_decisions", Json::from(r.fallback_decisions)),
        (
            "per_device",
            Json::arr(r.per_device.iter().map(|l| {
                Json::obj([
                    ("admits", Json::from(l.admits)),
                    ("rerouted_away", Json::from(l.rerouted_away)),
                    ("declines", Json::from(l.declines)),
                    ("probe_admits", Json::from(l.probe_admits)),
                    ("fault_rerouted_away", Json::from(l.fault_rerouted_away)),
                    ("writes", Json::from(l.writes)),
                ])
            })),
        ),
    ])
}

/// Replays the joint-inference group widths over a pool of seeded
/// workloads, fanning the (width, seed) cells over `jobs` workers.
///
/// Returns `(table, runs)`: an aligned text table (one row per group
/// width: mean, p99, inferences, rerouted, declines — averaged over seeds)
/// and a JSON array of per-cell [`replay_json`] records. Both the table
/// and the rendered JSON are byte-identical for any `jobs`.
///
/// # Panics
///
/// Panics if `ps` or `seeds` is empty, or if model training fails on the
/// generated profiling data (the seeded workloads are healthy by
/// construction, so a failure is a bug, not an input condition).
pub fn joint_replay_sweep(ps: &[usize], seeds: &[u64], secs: u64, jobs: usize) -> (String, Json) {
    assert!(!ps.is_empty() && !seeds.is_empty(), "empty sweep");
    let cells: Vec<(usize, u64)> = ps
        .iter()
        .flat_map(|&p| seeds.iter().map(move |&s| (p, s)))
        .collect();
    let results: Vec<ReplayResult> = run_ordered(jobs, cells.clone(), |&(p, seed)| {
        // Each cell self-seeds its workload and devices, so results do not
        // depend on which worker ran it.
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(seed)
            .duration_secs(secs)
            .build();
        let mut dev = DeviceConfig::consumer_nvme();
        dev.free_pool = 1 << 30;
        let mut setup = ExperimentSetup::single(trace, dev, seed);
        let kind = if p <= 1 {
            PolicyKind::Heimdall
        } else {
            PolicyKind::HeimdallJoint(p)
        };
        setup.run(kind).expect("seeded workloads train cleanly")
    });

    let mut table = String::new();
    table.push_str(&row_string(
        "group width",
        &["mean", "p99", "inferences", "rerouted", "declines"].map(String::from),
    ));
    table.push('\n');
    for (pi, &p) in ps.iter().enumerate() {
        let chunk = &results[pi * seeds.len()..(pi + 1) * seeds.len()];
        let n = chunk.len() as f64;
        let mean = chunk.iter().map(ReplayResult::mean_latency).sum::<f64>() / n;
        let p99 = chunk
            .iter()
            .map(|r| r.reads.percentile(99.0) as f64)
            .sum::<f64>()
            / n;
        let inferences = chunk.iter().map(|r| r.inferences).sum::<u64>() / chunk.len() as u64;
        let rerouted = chunk.iter().map(|r| r.rerouted).sum::<u64>() / chunk.len() as u64;
        let declines = chunk
            .iter()
            .map(|r| r.per_device.iter().map(|l| l.declines).sum::<u64>())
            .sum::<u64>()
            / chunk.len() as u64;
        table.push_str(&row_string(
            &format!("p={p}"),
            &[
                fmt_us(mean),
                fmt_us(p99),
                inferences.to_string(),
                rerouted.to_string(),
                declines.to_string(),
            ],
        ));
        table.push('\n');
    }

    let runs = Json::arr(
        cells
            .iter()
            .zip(&results)
            .map(|(&(p, seed), r)| match replay_json(r) {
                Json::Obj(mut pairs) => {
                    let mut all = vec![
                        ("group_width".to_string(), Json::from(p)),
                        ("seed".to_string(), Json::from(seed)),
                    ];
                    all.append(&mut pairs);
                    Json::Obj(all)
                }
                other => other,
            }),
    );
    (table, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_emits_one_row_per_width() {
        let (table, runs) = joint_replay_sweep(&[1, 3], &[2], 8, 1);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 widths:\n{table}");
        assert!(lines[1].starts_with("p=1"));
        assert!(lines[2].starts_with("p=3"));
        let runs = runs.to_string();
        assert!(runs.contains("\"group_width\": 1"));
        assert!(runs.contains("\"group_width\": 3"));
        assert!(runs.contains("\"per_device\""));
        assert!(!runs.contains("train_us"), "no wall-clock in golden output");
    }

    #[test]
    #[should_panic(expected = "empty sweep")]
    fn empty_sweep_panics() {
        joint_replay_sweep(&[], &[1], 5, 1);
    }
}

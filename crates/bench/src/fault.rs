//! Fault-injection scenario sweep (`fig_fault`).
//!
//! Replays the light-heavy experiment under scripted device faults and
//! compares plain Heimdall against the graceful-degradation wrapper
//! ([`PolicyKind::HeimdallFallback`]) and the always-admit baseline. The
//! fault hits the *heavy* home device (device 0) for the bulk of the run:
//!
//! - `fail_slow`: sustained 25x service-time inflation (a sick drive),
//! - `firmware_stall`: three periodic whole-device stalls,
//! - `fail_stop`: the device goes dark and every submission is rejected,
//! - `none`: healthy control — the wrapper must be invisible here.
//!
//! Each seed trains the Heimdall models once and shares them between the
//! plain and wrapped cells, so any `none`-scenario divergence between the
//! two is a real behaviour difference, not training noise. Output follows
//! the sweep contract: table and runs are byte-identical for any `--jobs`.

use crate::experiment::{ExperimentSetup, PolicyKind};
use crate::report::Json;
use crate::runner::run_ordered;
use crate::sweep::replay_json;
use crate::table::{fmt_us, row_string};
use heimdall_cluster::replayer::ReplayResult;
use heimdall_ssd::{DeviceConfig, FaultPlan};

/// Scripted fault scenarios for the `fig_fault` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// Healthy control: no fault plan at all.
    None,
    /// Sustained fail-slow on device 0 (25x service time).
    FailSlow,
    /// Periodic firmware stalls on device 0.
    FirmwareStall,
    /// Fail-stop outage on device 0.
    FailStop,
}

/// Service-time inflation of the fail-slow scenario.
pub(crate) const FAIL_SLOW_MULTIPLIER: f64 = 25.0;

impl FaultScenario {
    /// Every scenario, control first.
    pub const ALL: [FaultScenario; 4] = [
        FaultScenario::None,
        FaultScenario::FailSlow,
        FaultScenario::FirmwareStall,
        FaultScenario::FailStop,
    ];

    /// Stable label used in tables and run records.
    pub fn label(self) -> &'static str {
        match self {
            FaultScenario::None => "none",
            FaultScenario::FailSlow => "fail_slow",
            FaultScenario::FirmwareStall => "firmware_stall",
            FaultScenario::FailStop => "fail_stop",
        }
    }

    /// Fault plans for a run of `duration_us`, indexed by device. The
    /// fault targets device 0 (the heavy trace's home) from 25% to 85% of
    /// the run, leaving healthy head and tail windows on both sides.
    pub fn plans(self, duration_us: u64) -> Vec<FaultPlan> {
        let start = duration_us / 4;
        let end = duration_us * 17 / 20;
        let span = end - start;
        match self {
            FaultScenario::None => Vec::new(),
            FaultScenario::FailSlow => {
                vec![FaultPlan::fail_slow(start, end, FAIL_SLOW_MULTIPLIER)]
            }
            FaultScenario::FirmwareStall => {
                let mut plan = Vec::with_capacity(3);
                for k in 0..3u64 {
                    let s = start + k * span / 3;
                    plan.push((s, s + span / 6));
                }
                vec![FaultPlan::try_new(
                    plan.into_iter()
                        .map(|(s, e)| heimdall_ssd::FaultWindow {
                            start_us: s,
                            end_us: e,
                            kind: heimdall_ssd::FaultKind::FirmwareStall,
                            multiplier: 1.0,
                        })
                        .collect(),
                )
                .expect("scenario windows are ordered and disjoint")]
            }
            FaultScenario::FailStop => vec![FaultPlan::fail_stop(start, end)],
        }
    }
}

/// The `fig_fault` policy set: the degradation question is "does the
/// wrapper beat plain Heimdall under faults while matching it healthy?",
/// with the baseline as the floor.
pub(crate) const FAULT_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Baseline,
    PolicyKind::Heimdall,
    PolicyKind::HeimdallFallback,
];

/// Runs the fault scenario grid over `seeds`, fanning seeds over `jobs`
/// workers; within a seed the scenario x policy cells run serially on one
/// shared [`ExperimentSetup`] so the trained models are reused.
///
/// Returns `(table, runs)`: a text table with one row per scenario/policy
/// (mean, p95, p99 averaged over seeds, plus summed degradation counters)
/// and a JSON array of per-cell [`replay_json`] records tagged with
/// scenario, policy and seed. Both strings are byte-identical for any
/// `jobs`.
///
/// # Panics
///
/// Panics if `seeds` is empty or model training fails (the seeded
/// workloads are healthy by construction).
pub fn fault_sweep(seeds: &[u64], secs: u64, jobs: usize) -> (String, Json) {
    assert!(!seeds.is_empty(), "empty sweep");
    let duration_us = secs * 1_000_000;
    let per_seed: Vec<Vec<ReplayResult>> = run_ordered(jobs, seeds.to_vec(), |&seed| {
        let (heavy, light) = crate::experiment::light_heavy_pair(seed, secs);
        let mut setup =
            ExperimentSetup::light_heavy(heavy, light, DeviceConfig::datacenter_nvme(), seed);
        let mut results = Vec::with_capacity(FaultScenario::ALL.len() * FAULT_POLICIES.len());
        for scenario in FaultScenario::ALL {
            setup.fault_plans = scenario.plans(duration_us);
            for kind in FAULT_POLICIES {
                results.push(setup.run(kind).expect("seeded workloads train cleanly"));
            }
        }
        results
    });

    let mut table = String::new();
    table.push_str(&row_string(
        "scenario/policy",
        &[
            "mean",
            "p95",
            "p99",
            "fault_reroutes",
            "retries",
            "fallback",
        ]
        .map(String::from),
    ));
    table.push('\n');
    let n = seeds.len() as f64;
    for (si, scenario) in FaultScenario::ALL.iter().enumerate() {
        for (ki, kind) in FAULT_POLICIES.iter().enumerate() {
            let cell = si * FAULT_POLICIES.len() + ki;
            let chunk: Vec<&ReplayResult> = per_seed.iter().map(|rs| &rs[cell]).collect();
            let mean = chunk.iter().map(|r| r.mean_latency()).sum::<f64>() / n;
            let p95 = chunk
                .iter()
                .map(|r| r.reads.percentile(95.0) as f64)
                .sum::<f64>()
                / n;
            let p99 = chunk
                .iter()
                .map(|r| r.reads.percentile(99.0) as f64)
                .sum::<f64>()
                / n;
            let reroutes = chunk.iter().map(|r| r.reroutes_on_fault).sum::<u64>();
            let retries = chunk.iter().map(|r| r.retries).sum::<u64>();
            let fallback = chunk.iter().map(|r| r.fallback_decisions).sum::<u64>();
            table.push_str(&row_string(
                &format!("{}/{:?}", scenario.label(), kind),
                &[
                    fmt_us(mean),
                    fmt_us(p95),
                    fmt_us(p99),
                    reroutes.to_string(),
                    retries.to_string(),
                    fallback.to_string(),
                ],
            ));
            table.push('\n');
        }
    }

    let runs = Json::arr(seeds.iter().zip(&per_seed).flat_map(|(&seed, results)| {
        FaultScenario::ALL
            .iter()
            .enumerate()
            .flat_map(move |(si, scenario)| {
                FAULT_POLICIES.iter().enumerate().map(move |(ki, kind)| {
                    let r = &results[si * FAULT_POLICIES.len() + ki];
                    match replay_json(r) {
                        Json::Obj(mut pairs) => {
                            let mut all = vec![
                                ("scenario".to_string(), Json::from(scenario.label())),
                                ("kind".to_string(), Json::from(format!("{kind:?}"))),
                                ("seed".to_string(), Json::from(seed)),
                            ];
                            all.append(&mut pairs);
                            Json::Obj(all)
                        }
                        other => other,
                    }
                })
            })
    }));
    (table, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_plans_stay_inside_the_run() {
        let dur = 10_000_000;
        for s in FaultScenario::ALL {
            for plan in s.plans(dur) {
                for w in plan.windows() {
                    assert!(w.start_us >= dur / 4);
                    assert!(w.end_us <= dur * 17 / 20);
                }
            }
        }
        assert!(FaultScenario::None.plans(dur).is_empty());
    }

    #[test]
    fn firmware_stall_windows_are_disjoint() {
        let plans = FaultScenario::FirmwareStall.plans(60_000_000);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].windows().len(), 3);
    }

    #[test]
    fn fault_sweep_renders_full_grid() {
        let (table, runs) = fault_sweep(&[3], 8, 1);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(
            lines.len(),
            1 + FaultScenario::ALL.len() * FAULT_POLICIES.len(),
            "header + one row per cell:\n{table}"
        );
        let runs = runs.to_string();
        assert!(runs.contains("\"scenario\": \"fail_slow\""));
        assert!(runs.contains("\"kind\": \"HeimdallFallback\""));
        assert!(!runs.contains("train_us"), "no wall-clock in golden output");
    }
}

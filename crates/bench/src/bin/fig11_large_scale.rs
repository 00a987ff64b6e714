//! Fig 11 — large-scale evaluation (§6.1).
//!
//! Replays many random light-heavy trace combinations against a homogeneous
//! datacenter-NVMe pair under six policies, and prints (a) the average read
//! latency at percentiles p50-p99.99 and (b) the mean latency — the same
//! two panels as the paper's Fig 11. The paper runs 500 experiments; use
//! `--experiments 500` for the full sweep (default 20 for a quick run).
//!
//! The (experiment, policy) cells fan out over `--jobs` workers; results
//! are aggregated in input order, so the tables are byte-identical for any
//! worker count. A per-run report lands in `results/fig11_large_scale.run.json`.
//!
//! Usage: `fig11_large_scale [--experiments N] [--secs S] [--seed K] [--jobs J]`

use heimdall_bench::{fmt_us, print_header, print_row, run_ordered, Args, Json, RunReport};
use heimdall_bench::{light_heavy_pair, ExperimentSetup, PolicyKind};
use heimdall_metrics::latency::PAPER_PERCENTILES;
use heimdall_ssd::DeviceConfig;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let experiments = args.get_usize("experiments", 20);
    let secs = args.get_u64("secs", 20);
    let seed = args.get_u64("seed", 1);
    let jobs = args.jobs();

    let kinds = PolicyKind::FIG11;
    let cells: Vec<(usize, u64, PolicyKind)> = (0..experiments)
        .flat_map(|e| {
            let exp_seed = seed + e as u64 * 7919;
            kinds.iter().map(move |&k| (e, exp_seed, k))
        })
        .collect();

    let t0 = Instant::now();
    let runs_out = run_ordered(jobs, cells.clone(), |&(_, exp_seed, kind)| {
        let (heavy, light) = light_heavy_pair(exp_seed, secs);
        let mut setup =
            ExperimentSetup::light_heavy(heavy, light, DeviceConfig::datacenter_nvme(), exp_seed);
        setup.run_timed(kind)
    });
    eprintln!(
        "{} cells ({experiments} experiments x {} policies) on {jobs} workers in {:.1}s",
        cells.len(),
        kinds.len(),
        t0.elapsed().as_secs_f64()
    );

    // Percentile accumulators: policy -> percentile -> sum. Aggregation
    // walks the results in input order, so float accumulation matches a
    // serial run exactly.
    let mut pct_sum = vec![vec![0f64; PAPER_PERCENTILES.len()]; kinds.len()];
    let mut mean_sum = vec![0f64; kinds.len()];
    let mut reroute_sum = vec![0f64; kinds.len()];
    let mut runs = vec![0usize; kinds.len()];
    let mut skipped: Vec<Option<String>> = vec![None; kinds.len()];
    let mut report = RunReport::new("fig11_large_scale", jobs);
    report.set("experiments", Json::from(experiments));
    report.set("secs", Json::from(secs));
    report.set("seed", Json::from(seed));

    for (&(e, exp_seed, kind), run) in cells.iter().zip(runs_out) {
        report.push(run.to_json_cell(e, exp_seed));
        let ki = kinds.iter().position(|&k| k == kind).expect("known kind");
        match run.outcome {
            Ok(result) => {
                for (pi, &p) in PAPER_PERCENTILES.iter().enumerate() {
                    pct_sum[ki][pi] += result.reads.percentile(p) as f64;
                }
                mean_sum[ki] += result.reads.mean();
                reroute_sum[ki] += result.rerouted as f64 / result.reads.len().max(1) as f64;
                runs[ki] += 1;
            }
            Err(err) => {
                let _ = skipped[ki].get_or_insert_with(|| err.to_string());
            }
        }
    }

    print_header(&format!(
        "Fig 11a: read latency percentiles, mean over {experiments} experiments"
    ));
    let mut head: Vec<String> = PAPER_PERCENTILES.iter().map(|p| format!("p{p}")).collect();
    head.push("avg".into());
    head.push("reroute%".into());
    print_row("policy", &head);
    for (ki, kind) in kinds.iter().enumerate() {
        if runs[ki] == 0 {
            let err = skipped[ki].as_deref().unwrap_or("no runs");
            print_row(&format!("{kind:?}"), &[format!("skipped ({err})")]);
            continue;
        }
        let n = runs[ki] as f64;
        let mut cells: Vec<String> = pct_sum[ki].iter().map(|&s| fmt_us(s / n)).collect();
        cells.push(fmt_us(mean_sum[ki] / n));
        cells.push(format!("{:.1}%", 100.0 * reroute_sum[ki] / n));
        print_row(&format!("{kind:?}"), &cells);
    }

    print_header("Fig 11b: average read latency (lower is better)");
    let base_mean = mean_sum[0] / runs[0].max(1) as f64;
    for (ki, kind) in kinds.iter().enumerate() {
        if runs[ki] == 0 {
            let err = skipped[ki].as_deref().unwrap_or("no runs");
            print_row(&format!("{kind:?}"), &[format!("skipped ({err})")]);
            continue;
        }
        let m = mean_sum[ki] / runs[ki] as f64;
        print_row(
            &format!("{kind:?}"),
            &[
                fmt_us(m),
                format!("{:+.1}% vs baseline", 100.0 * (m - base_mean) / base_mean),
            ],
        );
    }

    match report.write() {
        Ok(path) => eprintln!("run report: {}", path.display()),
        Err(e) => eprintln!("run report not written: {e}"),
    }
}

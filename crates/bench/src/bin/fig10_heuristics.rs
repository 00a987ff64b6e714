//! Fig 10 — heuristics face-off (§6.1): C3 vs AMS vs Héron.
//!
//! The paper selects one heuristic representative before the main
//! comparison; it finds C3 and AMS nearly tied, both ahead of Héron. This
//! bench replays the same light-heavy experiments under the three
//! heuristics and prints avg/p90/p95/p99 latencies. Cells fan out over
//! `--jobs` workers; a per-run report lands in
//! `results/fig10_heuristics.run.json`.
//!
//! Usage: `fig10_heuristics [--experiments N] [--secs S] [--seed K] [--jobs J]`

use heimdall_bench::{
    fmt_us, light_heavy_pair, print_header, print_row, run_ordered, Args, ExperimentSetup, Json,
    PolicyKind, RunReport,
};
use heimdall_ssd::DeviceConfig;

fn main() {
    let args = Args::parse();
    let experiments = args.get_usize("experiments", 10);
    let secs = args.get_u64("secs", 15);
    let seed = args.get_u64("seed", 2);
    let jobs = args.jobs();

    let kinds = [PolicyKind::C3, PolicyKind::Ams, PolicyKind::Heron];
    let pcts = [50.0, 90.0, 95.0, 99.0];
    let mut sums = vec![vec![0f64; pcts.len() + 1]; kinds.len()];
    let mut runs = vec![0usize; kinds.len()];
    let mut skipped: Vec<Option<String>> = vec![None; kinds.len()];

    let cells: Vec<(usize, u64, PolicyKind)> = (0..experiments)
        .flat_map(|e| {
            let s = seed + e as u64 * 104729;
            kinds.iter().map(move |&k| (e, s, k))
        })
        .collect();
    let results = run_ordered(jobs, cells.clone(), |&(_, s, kind)| {
        let (heavy, light) = light_heavy_pair(s, secs);
        let mut setup =
            ExperimentSetup::light_heavy(heavy, light, DeviceConfig::datacenter_nvme(), s);
        setup.run_timed(kind)
    });

    let mut report = RunReport::new("fig10_heuristics", jobs);
    report.set("experiments", Json::from(experiments));
    report.set("secs", Json::from(secs));
    report.set("seed", Json::from(seed));
    for (&(e, s, kind), run) in cells.iter().zip(results) {
        report.push(run.to_json_cell(e, s));
        let ki = kinds.iter().position(|&k| k == kind).expect("known");
        match run.outcome {
            Ok(r) => {
                for (pi, &p) in pcts.iter().enumerate() {
                    sums[ki][pi] += r.reads.percentile(p) as f64;
                }
                sums[ki][pcts.len()] += r.reads.mean();
                runs[ki] += 1;
            }
            Err(err) => {
                let _ = skipped[ki].get_or_insert_with(|| err.to_string());
            }
        }
    }

    print_header(&format!(
        "Fig 10: heuristic replica selectors over {experiments} experiments"
    ));
    let mut head: Vec<String> = pcts.iter().map(|p| format!("p{p}")).collect();
    head.push("avg".into());
    print_row("policy", &head);
    for (ki, kind) in kinds.iter().enumerate() {
        if runs[ki] == 0 {
            let err = skipped[ki].as_deref().unwrap_or("no runs");
            print_row(&format!("{kind:?}"), &[format!("skipped ({err})")]);
            continue;
        }
        let n = runs[ki] as f64;
        let cells: Vec<String> = sums[ki].iter().map(|&s| fmt_us(s / n)).collect();
        print_row(&format!("{kind:?}"), &cells);
    }

    match report.write() {
        Ok(path) => eprintln!("run report: {}", path.display()),
        Err(e) => eprintln!("run report not written: {e}"),
    }
}

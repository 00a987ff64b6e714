//! Fig 17 — long-term deployment and retraining (§7).
//!
//! Replays a long write-heavy Tencent-like trace (the paper uses 8 hours;
//! pass `--secs 28800` to match — the default is a compressed 10 minutes)
//! and compares:
//! (a) models trained once on the first 1/5/15 "minutes" of the stream
//!     (scaled proportionally for compressed runs), and
//! (b) the accuracy-triggered retraining policy (retrain on the trailing
//!     window when windowed accuracy drops below 80%).
//!
//! Usage: `fig17_retrain [--secs S] [--seed K] [--jobs J]`
//!
//! The three static-training lines and the two retraining policies are
//! independent evaluations over the same record stream; they fan out over
//! `--jobs` workers and print in fixed order.

use heimdall_bench::{print_header, print_row, run_ordered, Args};
use heimdall_core::retrain::{
    evaluate_drift_retraining, evaluate_retraining, evaluate_static, RetrainConfig,
};
use heimdall_core::{collect_batch, PipelineConfig};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn main() {
    let args = Args::parse();
    let secs = args.get_u64("secs", 600);
    let seed = args.get_u64("seed", 6);
    let jobs = args.jobs();

    eprintln!("generating {secs}s drifting write-heavy trace…");
    // The paper picks its most "challenging" trace, where accuracy
    // fluctuates in the long run. Reproduce that by concatenating regime
    // segments (rate and size shifts — the rerate/resize augmentations —
    // plus profile changes) so the workload genuinely drifts. Each segment
    // builds from its own seed, so they generate in parallel.
    let seg = (secs / 6).max(1);
    type SegSpec = (WorkloadProfile, u64, Option<f64>, Option<f64>);
    let specs: Vec<SegSpec> = vec![
        (WorkloadProfile::TencentLike, seed, None, None),
        (WorkloadProfile::TencentLike, seed + 1, Some(14_000.0), None),
        (WorkloadProfile::AlibabaLike, seed + 2, None, None),
        (WorkloadProfile::TencentLike, seed + 3, None, Some(0.6)),
        (WorkloadProfile::MsrLike, seed + 4, None, Some(0.4)),
        (WorkloadProfile::TencentLike, seed + 5, None, None),
    ];
    let segments: Vec<heimdall_trace::Trace> =
        run_ordered(jobs, specs, |&(profile, s, iops, read_ratio)| {
            let mut b = TraceBuilder::from_profile(profile)
                .seed(s)
                .duration_secs(seg);
            if let Some(iops) = iops {
                b = b.iops(iops);
            }
            if let Some(rr) = read_ratio {
                b = b.read_ratio(rr);
            }
            b.build()
        });
    let mut requests = Vec::new();
    let mut offset_us = 0u64;
    for s in &segments {
        for r in &s.requests {
            let mut c = *r;
            c.arrival_us += offset_us;
            c.id = requests.len() as u64;
            requests.push(c);
        }
        offset_us += seg * 1_000_000;
    }
    let trace = heimdall_trace::Trace::new("drifting", requests);
    let mut dev = SsdDevice::new(DeviceConfig::consumer_nvme(), seed ^ 1);
    let records = collect_batch(&trace, &mut dev);
    eprintln!("{} records collected", records.len());

    // Scale the paper's 8-hour timeline onto the requested duration:
    // check-interval : report-window : total = 1min : 10min : 8h.
    let scale = secs as f64 / 28_800.0;
    let minute = (60.0e6 * scale).max(5e6) as u64;
    let cfg = RetrainConfig {
        trigger_accuracy: 0.80,
        check_interval_us: minute,
        retrain_window_us: minute,
        report_window_us: minute * 10,
        pipeline: PipelineConfig::heimdall(),
    };

    // All five evaluations are independent given the record stream; run
    // them as one work-stealing batch and print in fixed order.
    let reports = run_ordered(jobs, (0..5usize).collect(), |&i| match i {
        0 => evaluate_static(&records, minute, &cfg),
        1 => evaluate_static(&records, minute * 5, &cfg),
        2 => evaluate_static(&records, minute * 15, &cfg),
        3 => evaluate_retraining(&records, &cfg),
        _ => evaluate_drift_retraining(&records, &cfg),
    });
    let fmt_series = |report: &heimdall_core::retrain::RetrainReport| {
        let series: Vec<String> = report
            .accuracy_series
            .iter()
            .map(|&(_, a)| format!("{:.2}", a))
            .collect();
        [
            format!("mean {:.3}", report.mean_accuracy()),
            format!("min {:.3}", report.min_accuracy()),
            series.join(" "),
        ]
    };

    print_header("Fig 17a: accuracy over time, single training session");
    let labels = ["first 1 min", "first 5 min", "first 15 min"];
    for (label, report) in labels.iter().zip(&reports) {
        match report {
            Ok(report) => print_row(label, &fmt_series(report)),
            Err(e) => print_row(label, &[format!("training failed: {e}")]),
        }
    }

    print_header("Fig 17b: accuracy-triggered retraining (<80% => retrain on last window)");
    match &reports[3] {
        Ok(report) => {
            print_row("retrain", &fmt_series(report));
            let avg_ios = if report.retrain_sizes.is_empty() {
                0
            } else {
                report.retrain_sizes.iter().sum::<usize>() / report.retrain_sizes.len()
            };
            println!(
                "retraining triggered {} times, avg {} I/Os per retrain",
                report.retrain_times_us.len(),
                avg_ios
            );
        }
        Err(e) => println!("retraining evaluation failed: {e}"),
    }

    print_header("Extension: drift-triggered retraining (PSI >= 0.25 => retrain)");
    match &reports[4] {
        Ok(report) => {
            print_row("drift-retrain", &fmt_series(report));
            println!(
                "drift retraining triggered {} times",
                report.retrain_times_us.len()
            );
        }
        Err(e) => println!("drift evaluation failed: {e}"),
    }
}

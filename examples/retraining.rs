//! Long-deployment retraining (§7): watch a single-shot model drift on a
//! long write-heavy workload, then let the accuracy-triggered retraining
//! policy keep it fresh.
//!
//! ```sh
//! cargo run --release -p heimdall-examples --bin retraining
//! ```

use heimdall_core::collect::collect_batch;
use heimdall_core::pipeline::PipelineConfig;
use heimdall_core::retrain::{evaluate_retraining, evaluate_static, RetrainConfig};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn sparkline(series: &[(u64, f64)]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    series
        .iter()
        .map(|&(_, a)| BARS[((a.clamp(0.5, 1.0) - 0.5) / 0.5 * 7.0) as usize])
        .collect()
}

fn main() {
    // A compressed "long" deployment: 3 minutes of write-heavy I/O with a
    // 5s check interval standing in for the paper's 8h / 1min setup.
    let secs = 180;
    let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(23)
        .duration_secs(secs)
        .build();
    let mut device = SsdDevice::new(DeviceConfig::consumer_nvme(), 24);
    let records = collect_batch(&trace, &mut device);
    println!("{} records over {secs}s", records.len());

    let cfg = RetrainConfig {
        trigger_accuracy: 0.80,
        check_interval_us: 5_000_000,
        retrain_window_us: 5_000_000,
        report_window_us: 15_000_000,
        pipeline: PipelineConfig::heimdall(),
    };

    for (label, train_us) in [
        ("train on first 5s", 5_000_000u64),
        ("train on first 30s", 30_000_000),
    ] {
        let report = evaluate_static(&records, train_us, &cfg).expect("static run");
        println!(
            "{label:<22} mean acc {:.3}  min {:.3}  {}",
            report.mean_accuracy(),
            report.min_accuracy(),
            sparkline(&report.accuracy_series)
        );
    }

    let report = evaluate_retraining(&records, &cfg).expect("retraining run");
    println!(
        "{:<22} mean acc {:.3}  min {:.3}  {}",
        "retrain (<80% => fit)",
        report.mean_accuracy(),
        report.min_accuracy(),
        sparkline(&report.accuracy_series)
    );
    println!(
        "retraining fired {} times{}",
        report.retrain_times_us.len(),
        if report.retrain_sizes.is_empty() {
            String::new()
        } else {
            format!(
                ", avg {} I/Os per retrain",
                report.retrain_sizes.iter().sum::<usize>() / report.retrain_sizes.len()
            )
        }
    );
}

//! Quickstart: train a Heimdall admission model on a simulated
//! workload-device pair and make online decisions with it.
//!
//! ```sh
//! cargo run --release -p heimdall-examples --bin quickstart
//! ```

use heimdall_core::collect::collect_batch;
use heimdall_core::model::OnlineAdmitter;
use heimdall_core::pipeline::{run_batch, PipelineConfig};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn main() {
    // 1. A production-like workload: write-heavy Tencent-style block I/O.
    let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(42)
        .duration_secs(30)
        .build();
    println!(
        "trace: {} requests over {:.0}s",
        trace.len(),
        trace.duration_us() as f64 / 1e6
    );

    // 2. Profile the device: replay the trace, log every I/O (§2).
    let mut device = SsdDevice::new(DeviceConfig::consumer_nvme(), 7);
    let records = collect_batch(&trace, &mut device);
    println!(
        "profiled {} I/Os ({} GC events on the device)",
        records.len(),
        device.stats().gc_events
    );

    // 3. Run the full Heimdall pipeline: period labeling, 3-stage noise
    //    filtering, feature engineering, training, quantization (§3, §4).
    let (model, report) =
        run_batch(&records, &PipelineConfig::heimdall()).expect("trainable trace");
    println!(
        "trained: test ROC-AUC {:.3}, {} train rows, slow fraction {:.1}%",
        report.metrics.roc_auc,
        report.train_rows,
        100.0 * report.slow_fraction
    );
    println!(
        "deployed model: {} B memory, {} multiplications/inference",
        model.memory_bytes(),
        model.multiplications()
    );

    // 4. Make online admission decisions.
    let mut admitter = OnlineAdmitter::new(model);
    // Feed a calm history: short latencies, shallow queues.
    for _ in 0..3 {
        admitter.on_completion(100, 1, 4096);
    }
    println!(
        "calm device, 4 KB read  -> {}",
        if admitter.decide(1, 4096) {
            "DECLINE (reroute)"
        } else {
            "ADMIT"
        }
    );
    // Feed a stormy history: millisecond latencies, deep queues.
    for _ in 0..3 {
        admitter.on_completion(20_000, 40, 4096);
    }
    println!(
        "busy device, 4 KB read  -> {}",
        if admitter.decide(40, 4096) {
            "DECLINE (reroute)"
        } else {
            "ADMIT"
        }
    );
}

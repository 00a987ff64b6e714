//! Joint/group inference (§4.2): train Heimdall models at several group
//! sizes and show the accuracy/throughput trade-off — one inference can
//! green-light a whole group of I/Os.
//!
//! ```sh
//! cargo run --release -p heimdall-examples --bin joint_inference
//! ```

use heimdall_core::collect::collect_batch;
use heimdall_core::model::OnlineAdmitter;
use heimdall_core::pipeline::{run_batch, PipelineConfig};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn main() {
    let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(17)
        .duration_secs(30)
        .build();
    let mut device = SsdDevice::new(DeviceConfig::consumer_nvme(), 18);
    let records = collect_batch(&trace, &mut device);

    println!(
        "{:<8} {:>10} {:>14} {:>16}",
        "joint P", "test AUC", "input width", "mults per I/O"
    );
    for p in [1usize, 3, 5, 7, 9] {
        let mut cfg = PipelineConfig::heimdall();
        cfg.joint = p;
        let (model, report) = run_batch(&records, &cfg).expect("trainable trace");
        println!(
            "{:<8} {:>10.3} {:>14} {:>16.0}",
            p,
            report.metrics.roc_auc,
            report.input_dim,
            model.multiplications() as f64 / p as f64,
        );
    }

    // Group decisions at P = 5: one inference admits five I/Os.
    let mut cfg = PipelineConfig::heimdall();
    cfg.joint = 5;
    let (model, _) = run_batch(&records, &cfg).expect("trainable trace");
    let mut admitter = OnlineAdmitter::new(model);
    for _ in 0..3 {
        admitter.on_completion(120, 2, 4096);
    }
    let group = [4096u32, 8192, 4096, 65536, 4096];
    let declined = admitter.decide_group(2, &group);
    println!(
        "\ngroup of {} I/Os on a calm device -> {}",
        group.len(),
        if declined {
            "DECLINE all"
        } else {
            "ADMIT all (one inference)"
        }
    );
}

//! Replica selection: replay one workload against a 2-way replicated flash
//! array under several admission policies and compare read latencies —
//! a miniature of the paper's large-scale evaluation (§6.1).
//!
//! ```sh
//! cargo run --release -p heimdall-examples --bin replica_selection
//! ```

use heimdall_cluster::replayer::{merge_homed, replay_homed};
use heimdall_cluster::train::{fresh_devices, train_homed};
use heimdall_core::pipeline::PipelineConfig;
use heimdall_policies::{Baseline, Hedging, HeimdallPolicy, Policy, RandomSelect, C3};
use heimdall_ssd::DeviceConfig;
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn main() {
    // The light-heavy combination: a contention-heavy trace homed on
    // device 0 and a light companion homed on device 1 (§6.1).
    let heavy = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(3)
        .duration_secs(20)
        .build();
    let light = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
        .seed(4)
        .duration_secs(20)
        .iops(2_000.0)
        .build();
    let requests = merge_homed(&[&heavy, &light]);
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];

    // Train per-device Heimdall models on a profiling pass.
    let models = train_homed(&requests, &cfgs, &PipelineConfig::heimdall(), 5)
        .expect("profiling pass trains");

    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(Baseline),
        Box::new(RandomSelect::new(5)),
        Box::new(Hedging::default()),
        Box::new(C3::new()),
        Box::new(HeimdallPolicy::new(models)),
    ];

    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "policy", "avg", "p90", "p99", "p99.9", "reroute%"
    );
    for policy in policies.iter_mut() {
        // Fresh, identically-seeded devices for a fair comparison.
        let mut devices = fresh_devices(&cfgs, 99);
        let result = replay_homed(&requests, &mut devices, policy.as_mut());
        println!(
            "{:<12} {:>8.0}u {:>8}u {:>8}u {:>8}u {:>8.1}%",
            result.policy,
            result.reads.mean(),
            result.reads.percentile(90.0),
            result.reads.percentile(99.0),
            result.reads.percentile(99.9),
            100.0 * result.rerouted as f64 / result.reads.len().max(1) as f64,
        );
    }
}

//! End-to-end integration: trace generation → device simulation → pipeline
//! training → policy deployment → replicated replay, asserting the
//! paper-level behaviours hold across crate boundaries.

use heimdall_cluster::replayer::{merge_homed, replay_homed};
use heimdall_cluster::train::{fresh_devices, train_homed};
use heimdall_core::collect::collect_batch;
use heimdall_core::pipeline::{run_batch, PipelineConfig};
use heimdall_integration::gen::contention_trace;
use heimdall_policies::{Baseline, HeimdallPolicy, LinnOsPolicy, Policy, RandomSelect};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

#[test]
fn full_pipeline_produces_deployable_model() {
    let trace = contention_trace(100, 25);
    let mut device = SsdDevice::new(DeviceConfig::consumer_nvme(), 101);
    let records = collect_batch(&trace, &mut device);
    let (model, report) = run_batch(&records, &PipelineConfig::heimdall()).expect("trains");

    // Paper-level invariants: sub-28KB model, 3472 multiplications,
    // meaningful accuracy on the unseen half.
    assert!(
        model.memory_bytes() < 28 * 1024,
        "memory {}",
        model.memory_bytes()
    );
    assert_eq!(model.multiplications(), 3472);
    assert!(
        report.metrics.roc_auc > 0.75,
        "auc {}",
        report.metrics.roc_auc
    );
    assert!(report.slow_fraction > 0.0 && report.slow_fraction < 0.5);
    // Quantized and f32 paths agree on nearly all test decisions.
    assert!((0.0..=1.0).contains(&model.predict_raw(&[0.5; 11])));
}

#[test]
fn heimdall_policy_beats_baseline_on_contended_replay() {
    let heavy = contention_trace(200, 25);
    let light = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
        .seed(201)
        .duration_secs(25)
        .iops(1_500.0)
        .build();
    let requests = merge_homed(&[&heavy, &light]);
    let cfgs = vec![DeviceConfig::consumer_nvme(), DeviceConfig::consumer_nvme()];
    let models = train_homed(&requests, &cfgs, &PipelineConfig::heimdall(), 202).expect("trains");

    let mut base_devices = fresh_devices(&cfgs, 203);
    let base = replay_homed(&requests, &mut base_devices, &mut Baseline);

    let mut heim_devices = fresh_devices(&cfgs, 203);
    let mut policy = HeimdallPolicy::new(models);
    let heim = replay_homed(&requests, &mut heim_devices, &mut policy);

    assert!(
        heim.mean_latency() < base.mean_latency(),
        "heimdall {:.0}us should beat baseline {:.0}us",
        heim.mean_latency(),
        base.mean_latency()
    );
    assert!(heim.rerouted > 0, "policy never rerouted");
    assert!(heim.inferences > 0);
}

#[test]
fn linnos_policy_runs_end_to_end() {
    let trace = contention_trace(300, 20);
    let requests = merge_homed(&[&trace]);
    let cfgs = vec![DeviceConfig::consumer_nvme(), DeviceConfig::consumer_nvme()];
    let models =
        train_homed(&requests, &cfgs, &PipelineConfig::linnos_baseline(), 301).expect("trains");
    let mut devices = fresh_devices(&cfgs, 302);
    let mut policy = LinnOsPolicy::new(models);
    let result = replay_homed(&requests, &mut devices, &mut policy);
    let reads = trace.requests.iter().filter(|r| r.op.is_read()).count();
    assert_eq!(result.reads.len(), reads);
    // Per-page accounting: inferences must exceed the read count.
    assert!(result.inferences >= reads as u64);
}

#[test]
fn replay_accounts_every_read_exactly_once() {
    let trace = contention_trace(400, 10);
    let requests = merge_homed(&[&trace]);
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];
    let reads = trace.requests.iter().filter(|r| r.op.is_read()).count();
    for policy in [
        &mut Baseline as &mut dyn Policy,
        &mut RandomSelect::new(9),
        &mut heimdall_policies::Hedging::default(),
        &mut heimdall_policies::C3::new(),
        &mut heimdall_policies::Ams::new(),
        &mut heimdall_policies::Heron::new(),
    ] {
        let mut devices = fresh_devices(&cfgs, 401);
        let result = replay_homed(&requests, &mut devices, policy);
        assert_eq!(result.reads.len(), reads, "{} lost reads", result.policy);
        assert_eq!(result.writes as usize, trace.len() - reads);
    }
}

#[test]
fn joint_model_deploys_through_policy() {
    let trace = contention_trace(500, 20);
    let requests = merge_homed(&[&trace]);
    let cfgs = vec![DeviceConfig::consumer_nvme(), DeviceConfig::consumer_nvme()];
    let mut cfg = PipelineConfig::heimdall();
    cfg.joint = 3;
    let models = train_homed(&requests, &cfgs, &cfg, 501).expect("trains");
    let mut devices = fresh_devices(&cfgs, 502);
    let mut policy = HeimdallPolicy::new(models);
    let result = replay_homed(&requests, &mut devices, &mut policy);
    let reads = result.reads.len() as u64;
    // One inference green-lights up to three reads.
    assert!(
        result.inferences <= reads / 3 + 1,
        "joint policy used {} inferences for {reads} reads",
        result.inferences
    );
}

#[test]
fn deterministic_experiments_across_crates() {
    let trace = contention_trace(600, 10);
    let requests = merge_homed(&[&trace]);
    let cfgs = vec![DeviceConfig::consumer_nvme(), DeviceConfig::consumer_nvme()];
    let run_once = || {
        let models =
            train_homed(&requests, &cfgs, &PipelineConfig::heimdall(), 601).expect("trains");
        let mut devices = fresh_devices(&cfgs, 602);
        let mut policy = HeimdallPolicy::new(models);
        replay_homed(&requests, &mut devices, &mut policy)
            .reads
            .samples()
            .to_vec()
    };
    assert_eq!(run_once(), run_once());
}

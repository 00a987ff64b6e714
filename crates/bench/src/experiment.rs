//! Experiment setup shared by the figure binaries: trace pools, device
//! pairs, model training, and policy construction.

use crate::report::Json;
use crate::runner::run_ordered;
use heimdall_cluster::replayer::{merge_homed, replay_homed, HomedRequest, ReplayResult};
use heimdall_cluster::train::{fresh_devices_with_plans, train_homed};
use heimdall_core::pipeline::{PipelineConfig, PipelineError, Trained};
use heimdall_policies::{Ams, Baseline, FallbackPolicy, Hedging, Heron, Policy, RandomSelect, C3};
use heimdall_ssd::{DeviceConfig, FaultPlan};
use heimdall_trace::augment::{augmented_pool, Augmentation};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{Trace, WorkloadProfile};
use std::time::Instant;

/// Policy selector used by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Always-admit to the home device.
    Baseline,
    /// Uniform random replica.
    Random,
    /// Request hedging (2 ms deadline).
    Hedging,
    /// C3 cubic scoring.
    C3,
    /// AMS adaptive scheduling.
    Ams,
    /// Héron straggler avoidance.
    Heron,
    /// LinnOS per-page NN.
    Linnos,
    /// LinnOS + hedging.
    LinnosHedge,
    /// Heimdall per-I/O.
    Heimdall,
    /// Heimdall joint inference with group size P.
    HeimdallJoint(usize),
    /// Heimdall per-I/O wrapped in the graceful-degradation layer
    /// (falls back to C3 when drift or latency collapse is detected).
    HeimdallFallback,
}

impl PolicyKind {
    /// The Fig 11 comparison set.
    pub const FIG11: [PolicyKind; 6] = [
        PolicyKind::Baseline,
        PolicyKind::Random,
        PolicyKind::C3,
        PolicyKind::Linnos,
        PolicyKind::Hedging,
        PolicyKind::Heimdall,
    ];

    /// The Fig 12 (kernel-level) comparison set.
    pub const FIG12: [PolicyKind; 6] = [
        PolicyKind::Baseline,
        PolicyKind::Random,
        PolicyKind::C3,
        PolicyKind::Linnos,
        PolicyKind::LinnosHedge,
        PolicyKind::Heimdall,
    ];
}

/// One fully-specified experiment: a homed request stream replayed against
/// a device pair under any policy, with ML models trained on a profiling
/// pass over the same workload/device distribution.
pub struct ExperimentSetup {
    /// Homed request stream (light-heavy combination when two traces).
    pub requests: Vec<HomedRequest>,
    /// Device configurations (one per replica).
    pub device_cfgs: Vec<DeviceConfig>,
    /// Seed for devices and policies.
    pub seed: u64,
    /// Scripted fault plans, indexed by device; devices past the end of
    /// the list stay healthy. Empty by default (no faults).
    pub fault_plans: Vec<FaultPlan>,
    heimdall_models: Option<Vec<Trained>>,
    linnos_models: Option<Vec<Trained>>,
    joint_models: Option<(usize, Vec<Trained>)>,
}

impl ExperimentSetup {
    /// Builds a single-trace experiment on a homogeneous device pair.
    pub fn single(trace: Trace, device: DeviceConfig, seed: u64) -> Self {
        let requests = trace
            .requests
            .iter()
            .map(|r| HomedRequest { req: *r, home: 0 })
            .collect();
        ExperimentSetup {
            requests,
            device_cfgs: vec![device.clone(), device],
            seed,
            fault_plans: Vec::new(),
            heimdall_models: None,
            linnos_models: None,
            joint_models: None,
        }
    }

    /// Builds the paper's light-heavy combination (§6.1): the heavy trace
    /// homes on device 0, the light trace on device 1.
    pub fn light_heavy(heavy: Trace, light: Trace, device: DeviceConfig, seed: u64) -> Self {
        let requests = merge_homed(&[&heavy, &light]);
        ExperimentSetup {
            requests,
            device_cfgs: vec![device.clone(), device],
            seed,
            fault_plans: Vec::new(),
            heimdall_models: None,
            linnos_models: None,
            joint_models: None,
        }
    }

    /// Overrides the device pair (e.g. the heterogeneous Fig 12 pair).
    pub fn with_devices(mut self, cfgs: Vec<DeviceConfig>) -> Self {
        self.device_cfgs = cfgs;
        self
    }

    fn heimdall_models(&mut self) -> Result<Vec<Trained>, PipelineError> {
        if self.heimdall_models.is_none() {
            let mut cfg = PipelineConfig::heimdall();
            cfg.seed = self.seed;
            self.heimdall_models = Some(train_homed(
                &self.requests,
                &self.device_cfgs,
                &cfg,
                self.seed,
            )?);
        }
        Ok(self.heimdall_models.clone().expect("just set"))
    }

    fn linnos_models(&mut self) -> Result<Vec<Trained>, PipelineError> {
        if self.linnos_models.is_none() {
            let mut cfg = PipelineConfig::linnos_baseline();
            cfg.seed = self.seed;
            self.linnos_models = Some(train_homed(
                &self.requests,
                &self.device_cfgs,
                &cfg,
                self.seed,
            )?);
        }
        Ok(self.linnos_models.clone().expect("just set"))
    }

    fn joint_models(&mut self, p: usize) -> Result<Vec<Trained>, PipelineError> {
        if self.joint_models.as_ref().map(|(jp, _)| *jp) != Some(p) {
            let mut cfg = PipelineConfig::heimdall();
            cfg.seed = self.seed;
            cfg.joint = p;
            self.joint_models = Some((
                p,
                train_homed(&self.requests, &self.device_cfgs, &cfg, self.seed)?,
            ));
        }
        Ok(self.joint_models.clone().expect("just set").1)
    }

    /// Constructs the policy instance.
    ///
    /// # Errors
    ///
    /// Propagates training failures for ML policies.
    pub fn build_policy(&mut self, kind: PolicyKind) -> Result<Box<dyn Policy>, PipelineError> {
        Ok(match kind {
            PolicyKind::Baseline => Box::new(Baseline),
            PolicyKind::Random => Box::new(RandomSelect::new(self.seed)),
            PolicyKind::Hedging => Box::new(Hedging::default()),
            PolicyKind::C3 => Box::new(C3::new()),
            PolicyKind::Ams => Box::new(Ams::new()),
            PolicyKind::Heron => Box::new(Heron::new()),
            PolicyKind::Linnos => {
                Box::new(heimdall_policies::LinnOsPolicy::new(self.linnos_models()?))
            }
            PolicyKind::LinnosHedge => Box::new(heimdall_policies::LinnOsHedgePolicy::new(
                self.linnos_models()?,
                Hedging::PAPER_TIMEOUT_US,
            )),
            PolicyKind::Heimdall => Box::new(heimdall_policies::HeimdallPolicy::new(
                self.heimdall_models()?,
            )),
            PolicyKind::HeimdallJoint(p) => Box::new(heimdall_policies::HeimdallPolicy::new(
                self.joint_models(p)?,
            )),
            PolicyKind::HeimdallFallback => Box::new(FallbackPolicy::new(
                Box::new(heimdall_policies::HeimdallPolicy::new(
                    self.heimdall_models()?,
                )),
                Box::new(C3::new()),
            )),
        })
    }

    /// Replays the experiment under one policy on fresh devices.
    ///
    /// # Errors
    ///
    /// Propagates training failures for ML policies.
    pub fn run(&mut self, kind: PolicyKind) -> Result<ReplayResult, PipelineError> {
        self.run_timed(kind).outcome
    }

    /// Replays the experiment under one policy, recording per-stage
    /// wall-clock. A failed run (model training error) is *returned*, not
    /// discarded — the sweep binaries print it as a skipped row and the run
    /// report records the error.
    pub fn run_timed(&mut self, kind: PolicyKind) -> PolicyRun {
        let t0 = Instant::now();
        let policy = self.build_policy(kind);
        let train_us = t0.elapsed().as_micros() as u64;
        let outcome = policy.map(|mut policy| {
            let mut devices =
                fresh_devices_with_plans(&self.device_cfgs, &self.fault_plans, self.seed ^ 0xdead)
                    .expect("experiment device configs are validated at construction");
            replay_homed(&self.requests, &mut devices, policy.as_mut())
        });
        PolicyRun {
            kind,
            train_us,
            replay_us: t0.elapsed().as_micros() as u64 - train_us,
            outcome,
        }
    }
}

/// One policy's run on one experiment: outcome plus per-stage wall-clock.
///
/// `train_us` covers policy construction including model training (near
/// zero when the setup's model cache is warm); `replay_us` covers the
/// replay itself.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Which policy ran.
    pub kind: PolicyKind,
    /// Wall-clock spent building the policy (model training).
    pub train_us: u64,
    /// Wall-clock spent replaying.
    pub replay_us: u64,
    /// The replay result, or why the policy could not run.
    pub outcome: Result<ReplayResult, PipelineError>,
}

impl PolicyRun {
    /// The result, if the run completed.
    pub fn ok(&self) -> Option<&ReplayResult> {
        self.outcome.as_ref().ok()
    }

    /// Run-report record for this run: status, stage wall-clock, latency
    /// summary, and per-device admission lanes.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("policy", Json::from(format!("{:?}", self.kind))),
            ("train_us", Json::from(self.train_us)),
            ("replay_us", Json::from(self.replay_us)),
        ];
        match &self.outcome {
            Ok(r) => {
                pairs.push(("status", Json::from("ok")));
                pairs.push(("mean_latency_us", Json::from(r.mean_latency())));
                pairs.push(("p95_us", Json::from(r.reads.percentile(95.0))));
                pairs.push(("p99_us", Json::from(r.reads.percentile(99.0))));
                pairs.push(("reads", Json::from(r.reads.len() as u64)));
                pairs.push(("writes", Json::from(r.writes)));
                pairs.push(("rerouted", Json::from(r.rerouted)));
                pairs.push(("hedges_fired", Json::from(r.hedges_fired)));
                pairs.push(("inferences", Json::from(r.inferences)));
                pairs.push(("reroutes_on_fault", Json::from(r.reroutes_on_fault)));
                pairs.push(("retries", Json::from(r.retries)));
                pairs.push(("fallback_decisions", Json::from(r.fallback_decisions)));
                pairs.push((
                    "per_device",
                    Json::arr(r.per_device.iter().map(|l| {
                        Json::obj([
                            ("admits", Json::from(l.admits)),
                            ("rerouted_away", Json::from(l.rerouted_away)),
                            ("declines", Json::from(l.declines)),
                            ("probe_admits", Json::from(l.probe_admits)),
                            ("hedge_backups", Json::from(l.hedge_backups)),
                            ("fault_rerouted_away", Json::from(l.fault_rerouted_away)),
                            ("writes", Json::from(l.writes)),
                        ])
                    })),
                ));
            }
            Err(e) => {
                pairs.push(("status", Json::from("skipped")));
                pairs.push(("error", Json::from(format!("{e}"))));
            }
        }
        Json::obj(pairs)
    }

    /// Like [`PolicyRun::to_json`], tagged with the sweep cell it came
    /// from.
    pub fn to_json_cell(&self, experiment: usize, seed: u64) -> Json {
        match self.to_json() {
            Json::Obj(mut pairs) => {
                let mut all = vec![
                    ("experiment".to_string(), Json::from(experiment)),
                    ("seed".to_string(), Json::from(seed)),
                ];
                all.append(&mut pairs);
                Json::Obj(all)
            }
            other => other,
        }
    }
}

/// Runs a set of policies on the same experiment. Every requested policy
/// gets an entry: runs whose model training fails come back with the error
/// in [`PolicyRun::outcome`] so callers can print an explicit skipped row
/// instead of silently dropping the policy.
pub fn run_policies(setup: &mut ExperimentSetup, kinds: &[PolicyKind]) -> Vec<PolicyRun> {
    kinds.iter().map(|&k| setup.run_timed(k)).collect()
}

/// Collects a profiling record stream for accuracy-centric experiments:
/// one trace replayed into one device.
pub fn collect_records(
    profile: WorkloadProfile,
    secs: u64,
    device: &DeviceConfig,
    seed: u64,
) -> heimdall_core::RecordBatch {
    let trace = TraceBuilder::from_profile(profile)
        .seed(seed)
        .duration_secs(secs)
        .build();
    let mut dev = heimdall_ssd::SsdDevice::new(device.clone(), seed ^ 0x5555);
    heimdall_core::collect_batch(&trace, &mut dev)
}

/// A pool of record streams spanning profiles and seeds (the "random
/// datasets" the accuracy experiments sweep over), collected on `jobs`
/// workers.
///
/// All randomness is drawn serially up front — in the same order the old
/// serial loop drew it — so the pool is identical for any worker count.
pub fn record_pool(
    count: usize,
    secs: u64,
    seed: u64,
    jobs: usize,
) -> Vec<heimdall_core::RecordBatch> {
    let mut rng = Rng64::new(seed ^ 0x7265_6373);
    let params: Vec<(WorkloadProfile, DeviceConfig, u64)> = (0..count)
        .map(|_| {
            let profile = *rng.choose(&WorkloadProfile::ALL).expect("non-empty");
            let device = match rng.below(3) {
                0 => DeviceConfig::datacenter_nvme(),
                1 => DeviceConfig::consumer_nvme(),
                _ => DeviceConfig::sata_datacenter(),
            };
            (profile, device, rng.next_u64())
        })
        .collect();
    run_ordered(jobs, params, |(profile, device, s)| {
        collect_records(*profile, secs, device, *s)
    })
}

/// Builds the heavy/light trace pair used by the large-scale evaluation:
/// a contention-heavy profile for the home device and a light companion.
pub fn light_heavy_pair(seed: u64, secs: u64) -> (Trace, Trace) {
    let mut rng = Rng64::new(seed ^ 0x7061_6972);
    let profiles = WorkloadProfile::ALL;
    let heavy_profile = *rng.choose(&profiles).expect("non-empty");
    let heavy = TraceBuilder::from_profile(heavy_profile)
        .seed(rng.next_u64())
        .duration_secs(secs)
        .build();
    let light = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
        .seed(rng.next_u64())
        .duration_secs(secs)
        .iops(2_500.0)
        .build();
    (heavy, light)
}

/// Builds a pool of experiment traces the way §6.1 does: windows from each
/// profile family, augmented with the paper's five functions, then randomly
/// sampled. Per-profile generation fans out over `jobs` workers; the
/// profile seeds are drawn serially first, so the pool matches the serial
/// result exactly.
pub fn default_trace_pool(count: usize, secs: u64, seed: u64, jobs: usize) -> Vec<Trace> {
    let mut rng = Rng64::new(seed ^ 0x706f_6f6c);
    let seeded: Vec<(WorkloadProfile, u64)> = WorkloadProfile::ALL
        .iter()
        .map(|&p| (p, rng.next_u64()))
        .collect();
    let pool: Vec<Trace> = run_ordered(jobs, seeded, |&(profile, s)| {
        let base = TraceBuilder::from_profile(profile)
            .seed(s)
            .duration_secs(secs)
            .build();
        augmented_pool(&base, &Augmentation::PAPER_SET)
    })
    .into_iter()
    .flatten()
    .collect();
    let mut picks = Vec::with_capacity(count);
    for _ in 0..count {
        picks.push(pool[rng.below(pool.len() as u64) as usize].clone());
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_setup(seed: u64) -> ExperimentSetup {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(seed)
            .duration_secs(10)
            .build();
        let mut dev = DeviceConfig::consumer_nvme();
        dev.free_pool = 1 << 30;
        ExperimentSetup::single(trace, dev, seed)
    }

    #[test]
    fn all_policies_run() {
        let mut setup = quick_setup(3);
        let kinds = [
            PolicyKind::Baseline,
            PolicyKind::Random,
            PolicyKind::Hedging,
            PolicyKind::C3,
            PolicyKind::Ams,
            PolicyKind::Heron,
            PolicyKind::Linnos,
            PolicyKind::Heimdall,
            PolicyKind::HeimdallJoint(3),
        ];
        let results = run_policies(&mut setup, &kinds);
        assert_eq!(results.len(), kinds.len());
        for run in &results {
            let r = run.ok().expect("policy runs on healthy profiling data");
            assert!(!r.reads.is_empty());
        }
    }

    #[test]
    fn failed_runs_are_reported_not_dropped() {
        let run = PolicyRun {
            kind: PolicyKind::Linnos,
            train_us: 12,
            replay_us: 0,
            outcome: Err(PipelineError::NoRecords),
        };
        assert!(run.ok().is_none());
        let doc = run.to_json().to_string();
        assert!(
            doc.contains("\"status\": \"skipped\""),
            "skip must be recorded: {doc}"
        );
        assert!(doc.contains("\"error\""));
    }

    #[test]
    fn run_report_includes_per_device_lanes() {
        let mut setup = quick_setup(8);
        let run = setup.run_timed(PolicyKind::Heimdall);
        let doc = run.to_json().to_string();
        assert!(doc.contains("\"status\": \"ok\""));
        assert!(doc.contains("\"per_device\""));
        assert!(doc.contains("\"declines\""));
        assert!(doc.contains("\"probe_admits\""));
    }

    #[test]
    fn policies_share_identical_device_randomness() {
        let mut setup = quick_setup(4);
        let a = setup.run(PolicyKind::Baseline).unwrap();
        let b = setup.run(PolicyKind::Baseline).unwrap();
        assert_eq!(a.reads.samples(), b.reads.samples());
    }

    #[test]
    fn light_heavy_setup_homes_requests() {
        let (heavy, light) = light_heavy_pair(5, 5);
        let mut dev = DeviceConfig::consumer_nvme();
        dev.free_pool = 1 << 30;
        let setup = ExperimentSetup::light_heavy(heavy.clone(), light.clone(), dev, 5);
        assert_eq!(setup.requests.len(), heavy.len() + light.len());
        assert!(setup.requests.iter().any(|h| h.home == 1));
    }

    #[test]
    fn trace_pool_has_requested_size() {
        let pool = default_trace_pool(7, 5, 6, 1);
        assert_eq!(pool.len(), 7);
        assert!(pool.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn pools_are_identical_across_worker_counts() {
        let serial = default_trace_pool(4, 3, 11, 1);
        let parallel = default_trace_pool(4, 3, 11, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.requests, b.requests);
        }
        let rs = record_pool(3, 3, 11, 1);
        let rp = record_pool(3, 3, 11, 4);
        assert_eq!(rs, rp);
    }
}

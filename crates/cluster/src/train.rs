//! Profiling-run training helpers.
//!
//! Before enabling admission decisions, an operator logs a window of I/Os
//! per device and trains a model for each workload-device pair (§2). These
//! helpers run that profiling pass on fresh device instances and hand back
//! one [`Trained`] model per device.

use crate::replayer::HomedRequest;
use heimdall_core::collect::{submit_one, ReadView, RecordBatch};
use heimdall_core::pipeline::{run_view, PipelineConfig, PipelineError, Trained};
use heimdall_ssd::{DeviceConfig, FaultPlan, SsdDevice};
use heimdall_trace::IoOp;

/// Profiles a homed request stream with admission disabled (reads go to
/// their home device, writes are replicated), returning each device's I/O
/// log — what a storage operator would capture before enabling decisions
/// (§2), one columnar [`RecordBatch`] per device. An empty fleet yields no
/// logs.
pub fn profile_homed_batches(
    requests: &[HomedRequest],
    cfgs: &[DeviceConfig],
    seed: u64,
) -> Vec<RecordBatch> {
    let mut devices = fresh_devices(cfgs, seed);
    let Some(last) = devices.len().checked_sub(1) else {
        return Vec::new();
    };
    let mut logs: Vec<RecordBatch> = (0..devices.len()).map(|_| RecordBatch::new()).collect();
    for h in requests {
        match h.req.op {
            IoOp::Write => {
                for (d, dev) in devices.iter_mut().enumerate() {
                    logs[d].push(submit_one(&h.req, dev));
                }
            }
            IoOp::Read => {
                let home = h.home.min(last);
                logs[home].push(submit_one(&h.req, &mut devices[home]));
            }
        }
    }
    logs
}

/// Trains one model per device from a profiling pass over the homed
/// stream: each device's model learns from exactly the I/Os that device
/// served, matching a real per-device deployment.
///
/// # Errors
///
/// Propagates the first [`PipelineError`] that is not "this device's log
/// cannot train" (those devices get an always-admit model).
pub fn train_homed(
    requests: &[HomedRequest],
    cfgs: &[DeviceConfig],
    pipeline: &PipelineConfig,
    seed: u64,
) -> Result<Vec<Trained>, PipelineError> {
    profile_homed_batches(requests, cfgs, seed)
        .into_iter()
        .map(|log| match run_view(&ReadView::from(&log), pipeline) {
            Ok((m, _)) => Ok(m),
            // A device whose log cannot train (no reads, too short) gets
            // a safe always-admit model — exactly how a deployment
            // behaves before its profiling window has data.
            Err(PipelineError::NoRecords | PipelineError::NoRows | PipelineError::EmptySplit) => {
                Ok(Trained::always_admit(pipeline))
            }
            Err(e @ PipelineError::ZeroWindow) => Err(e),
        })
        .collect()
}

/// Builds fresh devices for an experiment run, seeded so that every policy
/// compared on the same `(cfgs, seed)` faces identical device randomness.
///
/// # Panics
///
/// Panics if any config fails validation; programmatically derived configs
/// should go through [`fresh_devices_with_plans`] instead.
pub fn fresh_devices(cfgs: &[DeviceConfig], seed: u64) -> Vec<SsdDevice> {
    fresh_devices_with_plans(cfgs, &[], seed).expect("invalid device config")
}

/// [`fresh_devices`] with scripted fault plans (indexed by device; devices
/// past the end of `plans` stay healthy) and validation surfaced as an
/// error instead of a panic.
///
/// # Errors
///
/// Returns the first config's typed validation error on a degenerate
/// config.
pub fn fresh_devices_with_plans(
    cfgs: &[DeviceConfig],
    plans: &[FaultPlan],
    seed: u64,
) -> Result<Vec<SsdDevice>, heimdall_ssd::DeviceError> {
    cfgs.iter()
        .enumerate()
        .map(|(i, cfg)| {
            let mut dev = SsdDevice::try_new(cfg.clone(), seed + i as u64)?;
            if let Some(plan) = plans.get(i) {
                dev.set_fault_plan(plan.clone());
            }
            Ok(dev)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::WorkloadProfile;

    /// A Tencent-like stream with every read homed on device `i % 2`.
    fn homed_stream(seed: u64, secs: u64) -> Vec<HomedRequest> {
        TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(seed)
            .duration_secs(secs)
            .build()
            .requests
            .into_iter()
            .enumerate()
            .map(|(i, req)| HomedRequest { req, home: i % 2 })
            .collect()
    }

    #[test]
    fn trains_one_model_per_device() {
        let requests = homed_stream(61, 15);
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30;
        let models = train_homed(
            &requests,
            &[cfg.clone(), cfg],
            &PipelineConfig::heimdall(),
            62,
        )
        .unwrap();
        assert_eq!(models.len(), 2);
        // Distinct device seeds see distinct contention; the models differ.
        assert_ne!(models[0].mlp.flat_params(), models[1].mlp.flat_params());
    }

    #[test]
    fn empty_fleet_profiles_to_no_logs() {
        // `home.min(devices.len() - 1)` used to underflow on the first read.
        let requests = homed_stream(63, 1);
        assert!(requests.iter().any(|h| h.req.op == IoOp::Read));
        assert!(profile_homed_batches(&requests, &[], 9).is_empty());
        let models = train_homed(&requests, &[], &PipelineConfig::heimdall(), 9).unwrap();
        assert!(models.is_empty());
    }

    #[test]
    fn fresh_devices_are_reproducible() {
        let cfgs = vec![
            DeviceConfig::datacenter_nvme(),
            DeviceConfig::datacenter_nvme(),
        ];
        let mut a = fresh_devices(&cfgs, 9);
        let mut b = fresh_devices(&cfgs, 9);
        let req = heimdall_trace::IoRequest {
            id: 0,
            arrival_us: 0,
            offset: 0,
            size: heimdall_trace::PAGE_SIZE,
            op: heimdall_trace::IoOp::Read,
        };
        assert_eq!(a[0].submit(&req, 0), b[0].submit(&req, 0));
        assert_eq!(a[1].submit(&req, 0), b[1].submit(&req, 0));
    }

    #[test]
    fn fresh_devices_with_plans_attaches_faults_and_validates() {
        let cfgs = vec![
            DeviceConfig::datacenter_nvme(),
            DeviceConfig::datacenter_nvme(),
        ];
        let plans = vec![heimdall_ssd::FaultPlan::fail_stop(10, 20)];
        let devs = fresh_devices_with_plans(&cfgs, &plans, 3).unwrap();
        assert!(!devs[0].is_available(15));
        assert!(devs[1].is_available(15), "unplanned devices stay healthy");

        let mut bad = DeviceConfig::datacenter_nvme();
        bad.parallelism = 0;
        assert!(fresh_devices_with_plans(&[bad], &[], 3).is_err());
    }
}

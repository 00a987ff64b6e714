//! `wide_sf10`: the §6.3 Ceph-like fan-out at scaling factor 10. The same
//! decision kernel as `homed_heimdall` used differently: grouped
//! `OnlineAdmitter::decide_members` (the batched P>1 path) across 20
//! admitters, a request as slow as the slowest of its 10 sub-reads, and a
//! read-dominated mix beside `homed_*`'s write-dominated one. A gain on the
//! P=1 path that costs the batched path shows here.
//!
//! Input: `WideConfig { scaling_factor: 10, duration_us: 15 s, seed: S,
//! ..Default }` (20 OSDs, 20 clients, 6 × 1 MB noise writers; ~120k
//! requests, ~1.2 M sub-reads). One model is trained in set-up on an OSD-0
//! profiling log generated as `fig13_wide_scale::train_osd_models` does,
//! and cloned to every OSD. Timed: one `run_wide` under
//! `WidePolicy::Heimdall`.

use super::{stage, summarize, Checks, Layers, Outcome, Size, Stage, Traced, Workload};
use crate::alloc;
use crate::spans::Recorder;
use heimdall_cluster::{run_wide, WideConfig, WidePolicy, WideResult};
use heimdall_core::collect::{submit_one, RecordBatch};
use heimdall_core::pipeline::{run_batch, PipelineConfig, Trained};
use heimdall_ssd::SsdDevice;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, PAGE_SIZE};
use std::time::Instant;

struct Input {
    cfg: WideConfig,
    model: Trained,
}

/// The `wide_sf10` workload.
pub struct Wide {
    size: Size,
    input: Option<Input>,
}

/// OSD 0's profiling log: its share of the client reads plus bursts of
/// injector writes, as `fig13_wide_scale::train_osd_models` generates it
/// (copied: that function lives in a figure binary).
fn osd0_profile(cfg: &WideConfig) -> RecordBatch {
    let mut rng = Rng64::new(cfg.seed ^ 0x006f_7364);
    let mut dev = SsdDevice::new(cfg.device.clone(), cfg.seed);
    let mut log = RecordBatch::new();
    let sizes = [PAGE_SIZE, 16 * 1024, 64 * 1024, 256 * 1024];
    let read_gap = (1e6
        / (cfg.clients as f64 * cfg.client_rate * cfg.scaling_factor as f64 / cfg.osds() as f64))
        .max(20.0);
    let mut t = 0u64;
    let mut id = 0u64;
    while t < cfg.duration_us {
        t += rng.exponential(read_gap) as u64 + 1;
        let op = if rng.chance(0.25) {
            IoOp::Write
        } else {
            IoOp::Read
        };
        let size = if op == IoOp::Write {
            cfg.noise_size
        } else {
            sizes[rng.below(4) as usize]
        };
        let req = IoRequest {
            id,
            arrival_us: t,
            offset: id * 4096,
            size,
            op,
        };
        id += 1;
        log.push(submit_one(&req, &mut dev));
    }
    log
}

impl Wide {
    /// The workload at `size`, before set-up.
    pub fn new(size: Size) -> Self {
        Wide { size, input: None }
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("setup runs before rep/traced")
    }

    /// One cluster run: host seconds, result, allocation calls inside it.
    fn run(&self, policy: WidePolicy) -> (f64, WideResult, u64) {
        let allocs = alloc::counts().0;
        let start = Instant::now();
        let result = run_wide(&self.input().cfg, policy);
        let secs = start.elapsed().as_secs_f64();
        (secs, result, alloc::counts().0 - allocs)
    }

    fn heimdall(&self) -> WidePolicy {
        let input = self.input();
        WidePolicy::Heimdall(vec![input.model.clone(); input.cfg.osds()])
    }

    /// Checks one run. The arrival schedule is generated inside `run_wide`,
    /// so conservation is checked against what the configuration implies:
    /// every request fans out to exactly `scaling_factor` sub-reads, and
    /// the Poisson arrivals land near `clients × rate × seconds`.
    fn outcome(&self, result: &WideResult, checks: &mut Checks) -> Outcome {
        let cfg = &self.input().cfg;
        let requests = result.requests.len() as u64;
        let sub_reads = result.sub_reads.len() as u64;
        let fan_out = cfg.scaling_factor as u64;
        checks.ensure(sub_reads == requests * fan_out, || {
            format!("{sub_reads} sub-reads for {requests} requests at fan-out {fan_out}")
        });
        let expected = cfg.clients as f64 * cfg.client_rate * cfg.duration_us as f64 / 1e6;
        checks.ensure(
            (requests as f64 - expected).abs() <= 0.05 * expected,
            || format!("{requests} requests completed, configuration implies ~{expected:.0}"),
        );
        checks.ensure(result.retries == 0, || {
            format!("{} sub-reads retried on healthy OSDs", result.retries)
        });
        let (sim, digest) = summarize(&result.requests);
        Outcome {
            ios: sub_reads,
            attempted: requests,
            failed: (requests * fan_out).abs_diff(sub_reads) + result.retries,
            sim,
            digest,
            details: vec![
                ("requests", requests as f64),
                ("sub_reads", sub_reads as f64),
                ("rerouted", result.rerouted as f64),
            ],
        }
    }
}

impl Workload for Wide {
    fn min_reps(&self) -> usize {
        3
    }

    fn setup(&mut self, seed: u64) -> Result<Vec<Stage>, String> {
        self.input = None;
        let cfg = WideConfig {
            scaling_factor: 10,
            duration_us: self.size.wide_secs * 1_000_000,
            // `run_wide` seeds OSD `i` with `seed + i`: leave it headroom.
            seed: seed & (u64::MAX >> 8),
            ..Default::default()
        };
        let mut stages = Vec::new();
        let log = stage(&mut stages, "cluster.train.profile_seconds", || {
            osd0_profile(&cfg)
        });
        let mut pipeline = PipelineConfig::heimdall();
        pipeline.seed = cfg.seed;
        let (model, _) = stage(&mut stages, "cluster.train.fit_seconds", || {
            run_batch(&log, &pipeline)
        })
        .map_err(|e| format!("OSD 0's profiling log did not train: {e}"))?;
        self.input = Some(Input { cfg, model });
        Ok(stages)
    }

    fn rep(&self, checks: &mut Checks) -> (f64, Outcome) {
        let (secs, result, _) = self.run(self.heimdall());
        (secs, self.outcome(&result, checks))
    }

    fn traced(&self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) -> Traced {
        for name in ["cluster.train.profile_seconds", "cluster.train.fit_seconds"] {
            layers.set(name, rec.seconds(name));
        }
        // `WidePolicy` is a closed enum, so nothing can be wrapped around
        // the admitters: admission is attributed by difference against the
        // same arrivals under the stateless `Random` policy.
        let span = rec.enter("cluster.wide.warm");
        let (plain_secs, _, _) = self.run(self.heimdall());
        rec.exit(span);
        let span = rec.enter("cluster.wide.run_seconds");
        let (run_secs, result, allocs) = self.run(self.heimdall());
        rec.exit(span);
        let span = rec.enter("cluster.wide.engine_floor_seconds");
        let (floor_secs, floor, _) = self.run(WidePolicy::Random);
        rec.exit(span);
        let outcome = self.outcome(&result, checks);
        checks.ensure(floor.requests.len() == result.requests.len(), || {
            format!(
                "the same arrivals completed {} requests under random, {} under heimdall",
                floor.requests.len(),
                result.requests.len()
            )
        });
        let sub_reads = result.sub_reads.len() as f64;
        layers.set("cluster.wide.run_seconds", run_secs);
        layers.set("cluster.wide.engine_floor_seconds", floor_secs);
        layers.set("cluster.wide.admission_seconds", run_secs - floor_secs);
        layers.set("cluster.wide.requests", result.requests.len() as f64);
        layers.set("cluster.wide.sub_reads", sub_reads);
        layers.set("cluster.wide.ns_per_sub_read", run_secs * 1e9 / sub_reads);
        layers.set(
            "cluster.wide.rerouted_ratio",
            result.rerouted as f64 / sub_reads,
        );
        layers.set("cluster.wide.allocs", allocs as f64);
        layers.set(
            "core.pipeline.model_bytes",
            self.input().model.memory_bytes() as f64,
        );
        // Nothing but the counting allocator separates the two Heimdall
        // runs, so the overhead ratio here reads run-to-run noise.
        Traced {
            instrumented_secs: run_secs,
            plain_secs,
            outcome,
        }
    }
}

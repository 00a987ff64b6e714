//! Shared model/trace builders for the integration and property suites.
//!
//! These used to be duplicated across `tests/tests/*.rs`; they live here
//! once so the fixed-seed integration tests and the generator-driven
//! property catalog draw from the same distributions.

use heimdall_bench::light_heavy_pair;
use heimdall_bench::sweep::replay_json;
use heimdall_bench::table::{fmt_us, row_string};
use heimdall_cluster::replayer::{merge_homed, replay_homed, HomedRequest};
use heimdall_cluster::train::{fresh_devices_with_plans, train_homed};
use heimdall_cluster::ReplayResult;
use heimdall_core::collect::{IoRecord, ReadView, RecordBatch};
use heimdall_core::pipeline::{PipelineConfig, Trained};
use heimdall_nn::Dataset;
use heimdall_policies::Policy;
use heimdall_ssd::{DeviceConfig, FaultKind, FaultPlan, FaultWindow, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, Trace, WorkloadProfile, PAGE_SIZE};

/// Owned storage behind the two [`ReadView`] forms of one record log —
/// the form-independence checks run a stage over each and compare, with
/// the row-form `*_reference` engines as the independent third party.
pub struct ViewForms {
    batch: RecordBatch,
    padded: RecordBatch,
    idx: Vec<u32>,
}

impl ViewForms {
    /// Transposes `recs` into a batch, and into a second batch interleaved
    /// with decoy records that only an index projection selects back out.
    pub fn of(recs: &[IoRecord]) -> ViewForms {
        let mut padded = RecordBatch::with_capacity(2 * recs.len());
        for &r in recs {
            padded.push(IoRecord {
                latency_us: r.latency_us / 2 + 7,
                queue_len: r.queue_len ^ 1,
                ..r
            });
            padded.push(r);
        }
        ViewForms {
            batch: RecordBatch::from_records(recs),
            padded,
            idx: (0..recs.len() as u32).map(|i| 2 * i + 1).collect(),
        }
    }

    /// The whole batch and the index projection out of the decoy-padded
    /// one, each with a name for messages.
    pub fn views(&self) -> [(&'static str, ReadView<'_>); 2] {
        [
            ("batch", ReadView::Batch(&self.batch)),
            (
                "indexed",
                ReadView::Indexed {
                    batch: &self.padded,
                    idx: &self.idx,
                },
            ),
        ]
    }
}

/// A contended Tencent-like trace — the end-to-end suites' workhorse.
pub fn contention_trace(seed: u64, secs: u64) -> Trace {
    TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(seed)
        .duration_secs(secs)
        .build()
}

/// One seeded trace per home device, profiles cycled per seed.
pub fn homed_traces(seed: u64, homes: usize) -> Vec<Trace> {
    let profiles = WorkloadProfile::ALL;
    (0..homes)
        .map(|h| {
            TraceBuilder::from_profile(profiles[(seed as usize + h) % profiles.len()])
                .seed(seed * 31 + h as u64)
                .duration_secs(5)
                .build()
        })
        .collect()
}

/// Fresh replicated array (at least two devices) for replay-parity runs.
pub fn replay_devices(seed: u64, n: usize) -> Vec<SsdDevice> {
    let mut cfg = DeviceConfig::consumer_nvme();
    cfg.free_pool = 1 << 30;
    (0..n.max(2))
        .map(|i| SsdDevice::new(cfg.clone(), seed ^ (0xde51 + i as u64)))
        .collect()
}

/// Renders the deterministic run record plus a table row, the two strings
/// the golden outputs are built from.
pub fn rendered(r: &ReplayResult) -> (String, String) {
    let row = row_string(
        r.policy.as_str(),
        &[
            fmt_us(r.mean_latency()),
            fmt_us(r.reads.percentile(99.0) as f64),
            r.reads.len().to_string(),
            r.rerouted.to_string(),
        ],
    );
    (replay_json(r).to_string(), row)
}

/// A seeded synthetic classification set: `rows` rows of `dim` features
/// in roughly the unit interval, labeled by a noisy linear rule so the
/// model has signal to descend on.
pub fn synthetic_dataset(seed: u64, rows: usize, dim: usize) -> Dataset {
    let mut rng = Rng64::new(seed ^ 0x74_7261_696e);
    let mut data = Dataset::new(dim);
    let mut row = vec![0.0f32; dim];
    for _ in 0..rows {
        for v in row.iter_mut() {
            *v = match rng.below(10) {
                0 => -rng.f32() * 0.2,
                1 => 1.0 + rng.f32(),
                _ => rng.f32(),
            };
        }
        let score: f32 = row
            .iter()
            .enumerate()
            .map(|(i, &v)| v * if i % 2 == 0 { 1.0 } else { -0.7 })
            .sum();
        let noise = (rng.f32() - 0.5) * 0.4;
        let label = if score / dim as f32 + noise > 0.07 {
            1.0
        } else {
            0.0
        };
        data.push(&row, label);
    }
    data
}

/// A two-device light/heavy experiment: merged homed stream, datacenter
/// configs, and models trained on the stream.
pub fn light_heavy_experiment(
    seed: u64,
    secs: u64,
) -> (Vec<HomedRequest>, Vec<DeviceConfig>, Vec<Trained>) {
    let (heavy, light) = light_heavy_pair(seed, secs);
    let requests = merge_homed(&[&heavy, &light]);
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];
    let mut pcfg = PipelineConfig::heimdall();
    pcfg.seed = seed;
    let models = train_homed(&requests, &cfgs, &pcfg, seed).unwrap();
    (requests, cfgs, models)
}

/// Replays a homed stream on freshly seeded devices under the given fault
/// plans (empty slice = healthy).
pub fn replay_with_plans(
    requests: &[HomedRequest],
    cfgs: &[DeviceConfig],
    plans: &[FaultPlan],
    seed: u64,
    policy: &mut dyn Policy,
) -> ReplayResult {
    let mut devices = fresh_devices_with_plans(cfgs, plans, seed ^ 0xdead).unwrap();
    replay_homed(requests, &mut devices, policy)
}

/// Builds a valid fault timeline from unsorted random cut points: cuts are
/// sorted and deduped, then consecutive pairs become windows with kinds
/// cycled over all three classes. Valid by construction (sorted, disjoint,
/// non-empty, finite multiplier ≥ 1), and shrinking the cut vector shrinks
/// the plan.
pub fn plan_from_cuts(cuts: &[u64], offset: u64) -> FaultPlan {
    let mut cuts: Vec<u64> = cuts.iter().map(|c| c + offset).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let kinds = [
        FaultKind::FailSlow,
        FaultKind::FirmwareStall,
        FaultKind::FailStop,
    ];
    let windows: Vec<FaultWindow> = cuts
        .chunks_exact(2)
        .enumerate()
        .map(|(i, pair)| FaultWindow {
            start_us: pair[0],
            end_us: pair[1],
            kind: kinds[i % kinds.len()],
            multiplier: if kinds[i % kinds.len()] == FaultKind::FailSlow {
                1.0 + (i % 7) as f64 * 4.0
            } else {
                1.0
            },
        })
        .collect();
    FaultPlan::try_new(windows).expect("cut construction yields a valid plan")
}

/// A single random request with arrival in `[0, max_t)`.
pub fn random_request(rng: &mut Rng64, max_t: u64) -> IoRequest {
    IoRequest {
        id: 0,
        arrival_us: rng.below(max_t),
        offset: rng.below(1 << 30),
        size: rng.range(1, 512) as u32 * PAGE_SIZE,
        op: if rng.chance(0.5) {
            IoOp::Read
        } else {
            IoOp::Write
        },
    }
}

/// A sorted random trace of 1..200 requests over one simulated second.
pub fn random_trace(rng: &mut Rng64) -> Trace {
    let n = rng.range(1, 200) as usize;
    let mut reqs: Vec<IoRequest> = (0..n).map(|_| random_request(rng, 1_000_000)).collect();
    reqs.sort_by_key(|r| r.arrival_us);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = i as u64;
    }
    Trace::new("prop", reqs)
}

/// A stream of well-formed collection records with random latencies.
pub fn random_records(rng: &mut Rng64) -> Vec<IoRecord> {
    let n = rng.range(8, 300) as usize;
    let mut t = 0;
    (0..n)
        .map(|_| {
            t += rng.below(10_000) + 1;
            let lat = rng.range(50, 100_000);
            let size = rng.range(1, 512) as u32 * PAGE_SIZE;
            IoRecord {
                arrival_us: t,
                finish_us: t + lat,
                size,
                op: IoOp::Read,
                queue_len: rng.below(64) as u32,
                latency_us: lat,
                throughput: size as f64 / lat as f64,
                truth_busy: false,
            }
        })
        .collect()
}

/// Random score/label sample of matched length for metric invariants.
pub fn random_scored(rng: &mut Rng64, min_len: u64) -> (Vec<f32>, Vec<bool>) {
    let n = rng.range(min_len, 100) as usize;
    let scores = (0..n).map(|_| rng.f32()).collect();
    let labels = (0..n).map(|_| rng.chance(0.5)).collect();
    (scores, labels)
}

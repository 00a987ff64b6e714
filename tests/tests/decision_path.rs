//! The online decision path (`OnlineAdmitter`) against the pieces the
//! benchmark ledger times separately: row assembly (`DeviceRuntime`), the
//! scaler and the quantized network.

use heimdall_core::collect::collect_batch;
use heimdall_core::pipeline::{run_batch, FeatureKind, FeatureMode, PipelineConfig, Trained};
use heimdall_core::{DeviceRuntime, OnlineAdmitter};
use heimdall_integration::gen::contention_trace;
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::rng::Rng64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One trained model per input recipe: the per-I/O Heimdall spec, a per-I/O
/// spec in another column order (no size column, depth 4), LinnOS digits,
/// joint.
fn models() -> Vec<Trained> {
    let mut cfg = DeviceConfig::consumer_nvme();
    cfg.free_pool = 1 << 30;
    let records = collect_batch(&contention_trace(11, 20), &mut SsdDevice::new(cfg, 12));
    let raw = PipelineConfig {
        features: FeatureMode::LinnosRaw,
        ..PipelineConfig::heimdall()
    };
    let joint = PipelineConfig {
        joint: 3,
        ..PipelineConfig::heimdall()
    };
    [
        PipelineConfig::heimdall(),
        raw,
        PipelineConfig::linnos_baseline(),
        joint,
    ]
    .iter()
    .map(|pc| run_batch(&records, pc).expect("trains").0)
    .collect()
}

/// Log-uniform draw from `[1, max]`.
fn log_uniform(rng: &mut Rng64, max: f64) -> f64 {
    max.powf(rng.f64())
}

fn random_size(rng: &mut Rng64) -> u32 {
    (512.0 * log_uniform(rng, 8192.0)) as u32
}

/// The ledger's composition for one raw row: scale, quantized predict,
/// calibrated threshold.
fn scored(model: &Trained, raw: &[f32]) -> bool {
    let mut row = raw.to_vec();
    if let Some(scaler) = &model.scaler {
        scaler.transform_row(&mut row);
    }
    let quantized = model.quantized.as_ref().expect("ReLU nets quantize");
    quantized.predict(&row) >= model.threshold
}

/// The traced `homed_heimdall` run reports `row_assembly_ns`,
/// `transform_row_ns` and `predict_ns` by calling `raw_row`, `transform_row`
/// and `QuantizedMlp::predict` itself; this holds `decide` (and the group
/// entry points) equal to that composition over a random interleaving of
/// completions and decisions, before and after warm-up.
#[test]
fn decide_is_the_composition_the_ledger_times() {
    for model in models() {
        let mut adm = OnlineAdmitter::new(model.clone());
        let depth = match &model.kind {
            FeatureKind::Spec(spec) => spec.hist_depth,
            FeatureKind::LinnosDigitized => 4,
            FeatureKind::Joint { hist_depth, .. } => *hist_depth,
        };
        let mut rt = DeviceRuntime::new(depth);
        let mut rng = Rng64::new(0xdec1de);
        let (mut declines, mut admits) = (0u32, 0u32);
        for step in 0..6000 {
            if rng.chance(0.35) {
                let latency = log_uniform(&mut rng, 1e6) as u64;
                let (queue_len, size) = (rng.below(1001) as u32, random_size(&mut rng));
                adm.on_completion(latency, queue_len, size);
                rt.on_completion(latency, queue_len, size);
                continue;
            }
            let queue_len = log_uniform(&mut rng, 1e3) as u32 - rng.below(2) as u32;
            let sizes: Vec<u32> = (0..1 + rng.below(10))
                .map(|_| random_size(&mut rng))
                .collect();
            let warm = rt.warmed_up();
            let expect = match &model.kind {
                FeatureKind::Spec(spec) => {
                    warm && scored(&model, rt.raw_row(spec, queue_len, sizes[0]))
                }
                FeatureKind::LinnosDigitized => warm && scored(&model, rt.linnos_row(queue_len)),
                FeatureKind::Joint { hist_depth, p } => {
                    warm && scored(
                        &model,
                        rt.joint_row(*hist_depth, queue_len, &vec![sizes[0]; *p]),
                    )
                }
            };
            assert_eq!(
                adm.decide(queue_len, sizes[0]),
                expect,
                "{:?} step {step}",
                model.kind
            );
            declines += expect as u32;
            admits += (warm && !expect) as u32;

            let mut members = Vec::new();
            if let FeatureKind::Joint { hist_depth, p } = model.kind {
                let group: Vec<u32> = sizes.iter().copied().cycle().take(p).collect();
                let verdict = warm && scored(&model, rt.joint_row(hist_depth, queue_len, &group));
                assert_eq!(adm.decide_group(queue_len, &group), verdict, "step {step}");
                adm.decide_members(queue_len, &group, &mut members);
                assert_eq!(members, vec![verdict; p], "step {step}");
            } else {
                adm.decide_members(queue_len, &sizes, &mut members);
                let each: Vec<bool> = sizes.iter().map(|&s| adm.decide(queue_len, s)).collect();
                assert_eq!(members, each, "{:?} step {step}", model.kind);
            }
        }
        assert!(
            declines > 10 && admits > 10,
            "{:?}: one-sided stream ({declines} declines, {admits} admits)",
            model.kind
        );
    }
}

/// Counts this thread's heap allocations, so tests running in parallel in
/// this binary do not see each other.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to the system allocator. The
// counter is a const-initialized thread-local `Cell` with no destructor, so
// touching it neither allocates nor outlives its storage.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// After warm-up (history ring full, every scratch buffer grown, the i64
/// fallback taken once) no entry point of the decision path allocates, for
/// any input recipe.
#[test]
fn decision_path_allocates_nothing_after_warm_up() {
    for model in models() {
        let mut adm = OnlineAdmitter::new(model.clone());
        let group_sizes: &[usize] = match model.kind {
            FeatureKind::Joint { p, .. } => &[p],
            _ => &[1, 3, 10],
        };
        let mut rng = Rng64::new(0xa110c);
        let mut members = Vec::with_capacity(16);
        let mut round = |adm: &mut OnlineAdmitter, rng: &mut Rng64| {
            adm.on_completion(
                log_uniform(rng, 1e6) as u64,
                rng.below(1001) as u32,
                random_size(rng),
            );
            let queue_len = rng.below(1001) as u32;
            std::hint::black_box(adm.decide(queue_len, random_size(rng)));
            for &p in group_sizes {
                let sizes: [u32; 10] = std::array::from_fn(|_| random_size(rng));
                members.clear();
                adm.decide_members(queue_len, &sizes[..p], &mut members);
                if matches!(model.kind, FeatureKind::Joint { .. }) {
                    std::hint::black_box(adm.decide_group(queue_len, &sizes[..p]));
                }
            }
            std::hint::black_box(&members);
        };
        for _ in 0..8 {
            round(&mut adm, &mut rng);
        }
        // Far outside the i32 pass's bound: the i64 pass grows its buffer.
        adm.decide(u32::MAX, u32::MAX);
        let before = ALLOCATIONS.get();
        for _ in 0..500 {
            round(&mut adm, &mut rng);
        }
        assert_eq!(
            ALLOCATIONS.get() - before,
            0,
            "{:?} allocated on the decision path",
            model.kind
        );
    }
}

//! Differential tests for the replay-engine overhaul.
//!
//! The overhauled hot path — indexed 4-ary event heap, k-way trace merge,
//! pre-sized radix recorder, completion-skip wide engine — must be a pure
//! reimplementation of the seed engines kept as `replay_homed_reference`,
//! `run_wide_reference` and `merge_homed_reference`: same inputs, byte-
//! identical run JSON and tables. On top of the differential sweeps, a
//! property test pins the indexed heap's dequeue contract ((at, seq) order
//! under random insert/pop interleavings) and a jobs-parity test holds a
//! fanned-out replay sweep against its serial run.

use heimdall_bench::runner::run_ordered;
use heimdall_bench::sweep::replay_json;
use heimdall_cluster::replayer::{
    merge_homed, merge_homed_reference, replay_homed, replay_homed_reference, HomedRequest,
};
use heimdall_cluster::{run_wide, run_wide_reference, EventQueue, WideConfig, WidePolicy};
use heimdall_core::collect::submit_one;
use heimdall_core::pipeline::{run_batch, PipelineConfig, Trained};
use heimdall_core::RecordBatch;
use heimdall_integration::gen::{homed_traces as traces, rendered, replay_devices as devices};
use heimdall_policies::{Baseline, Hedging, HeimdallPolicy, Policy};
use heimdall_ssd::SsdDevice;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, Trace, PAGE_SIZE};

/// Replays the same homed stream through both engines on identically
/// seeded devices and asserts byte-identical rendered output.
fn assert_replay_parity(
    homed: &[HomedRequest],
    seed: u64,
    n_devices: usize,
    mut new_policy: impl Policy,
    mut ref_policy: impl Policy,
    what: &str,
) {
    let new = replay_homed(homed, &mut devices(seed, n_devices), &mut new_policy);
    let reference = replay_homed_reference(homed, &mut devices(seed, n_devices), &mut ref_policy);
    let (new_json, new_row) = rendered(&new);
    let (ref_json, ref_row) = rendered(&reference);
    assert_eq!(new_json, ref_json, "run JSON diverged: {what}");
    assert_eq!(new_row, ref_row, "table row diverged: {what}");
    assert_eq!(
        new.per_device, reference.per_device,
        "lanes diverged: {what}"
    );
    assert_eq!(
        new.reads.samples(),
        reference.reads.samples(),
        "sample streams diverged: {what}"
    );
}

/// Tentpole contract: across eight seeded workloads and {1, 2, 6} homed
/// traces (single-trace replays still run on a two-device array), the new
/// engine's run JSON and table rows are byte-identical to the reference,
/// hedged and unhedged.
#[test]
fn replay_engines_are_byte_identical_across_seeds_and_device_counts() {
    for seed in 1..=8u64 {
        for homes in [1usize, 2, 6] {
            let ts = traces(seed, homes);
            let borrowed: Vec<&Trace> = ts.iter().collect();
            let homed = merge_homed(&borrowed);
            assert_eq!(
                homed,
                merge_homed_reference(&borrowed),
                "merge diverged: seed {seed}, {homes} traces"
            );
            let what = format!("seed {seed}, {homes} traces, hedged");
            assert_replay_parity(
                &homed,
                seed,
                homes,
                Hedging::new(2_000),
                Hedging::new(2_000),
                &what,
            );
            let what = format!("seed {seed}, {homes} traces, unhedged");
            assert_replay_parity(&homed, seed, homes, Baseline, Baseline, &what);
        }
    }
}

/// The ML admission path (batched quantized inference, probe rule, online
/// history rings) sits on top of the same event loop; parity must hold
/// there too. Always-admit models keep the inference machinery hot without
/// a training pass.
#[test]
fn replay_engines_are_byte_identical_for_ml_policies() {
    let pcfg = PipelineConfig::heimdall();
    for seed in [3u64, 9] {
        let ts = traces(seed, 2);
        let borrowed: Vec<&Trace> = ts.iter().collect();
        let homed = merge_homed(&borrowed);
        let models = || vec![Trained::always_admit(&pcfg), Trained::always_admit(&pcfg)];
        assert_replay_parity(
            &homed,
            seed,
            2,
            HeimdallPolicy::new(models()),
            HeimdallPolicy::new(models()),
            &format!("seed {seed}, heimdall"),
        );
    }
}

/// One OSD model trained on OSD 0's share of `cfg`'s load (its client
/// reads plus 1 MB injector writes), the profile `fig13_wide_scale` trains
/// each OSD on.
fn wide_osd_model(cfg: &WideConfig) -> Trained {
    let mut rng = Rng64::new(cfg.seed ^ 0x006f_7364);
    let mut dev = SsdDevice::new(cfg.device.clone(), cfg.seed);
    let mut log = RecordBatch::new();
    let sizes = [PAGE_SIZE, 16 * 1024, 64 * 1024, 256 * 1024];
    let read_gap = (1e6
        / (cfg.clients as f64 * cfg.client_rate * cfg.scaling_factor as f64 / cfg.osds() as f64))
        .max(20.0);
    let (mut t, mut id) = (0u64, 0u64);
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
    let mut pcfg = PipelineConfig::heimdall();
    pcfg.seed = cfg.seed;
    run_batch(&log, &pcfg).expect("OSD profile trains").0
}

/// The wide engine against its seed twin with trained OSD models that
/// really decline: admitter feedback, the probe rule and the reroutes it
/// drives must be the reference's, request for request and sub-read for
/// sub-read, at three seeds and scaling factors.
#[test]
fn wide_engine_matches_reference_with_declining_models() {
    for (seed, sf) in [(11u64, 10usize), (3, 4), (7, 1)] {
        let cfg = WideConfig {
            scaling_factor: sf,
            duration_us: 3_000_000,
            seed,
            ..Default::default()
        };
        let model = wide_osd_model(&cfg);
        let policy = || WidePolicy::Heimdall(vec![model.clone(); cfg.osds()]);
        let new = run_wide(&cfg, policy());
        let reference = run_wide_reference(&cfg, policy());
        let what = format!("seed {seed}, SF {sf}");
        assert!(new.rerouted > 0, "the models must decline: {what}");
        assert_eq!(new.rerouted, reference.rerouted, "reroutes: {what}");
        assert_eq!(
            new.requests.samples(),
            reference.requests.samples(),
            "request latencies: {what}"
        );
        assert_eq!(
            new.sub_reads.samples(),
            reference.sub_reads.samples(),
            "sub-read latencies: {what}"
        );
    }
}

/// Property: the indexed 4-ary heap pops in exact `(at, seq)` order — the
/// `BinaryHeap<Reverse<Event>>` dequeue contract the replayers' golden
/// outputs were recorded under — for random insert/pop interleavings with
/// heavy timestamp collisions.
#[test]
fn event_queue_pops_in_at_seq_order_under_random_interleavings() {
    for seed in 0..20u64 {
        let mut rng = Rng64::new(seed ^ 0x4571);
        let mut q: EventQueue<u64> = EventQueue::new();
        // Model: (at, insertion seq) pairs, kept sorted lazily.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..2_000 {
            if model.is_empty() || rng.below(5) < 3 {
                // Small timestamp range forces ties, exercising seq order.
                let at = rng.below(50);
                q.push(at, seq);
                model.push((at, seq));
                seq += 1;
            } else {
                let i = (0..model.len()).min_by_key(|&i| model[i]).unwrap();
                let expect = model.remove(i);
                assert_eq!(q.pop(), Some((expect.0, expect.1)), "seed {seed}");
            }
        }
        model.sort_unstable();
        for (at, s) in model {
            assert_eq!(q.pop(), Some((at, s)), "drain, seed {seed}");
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}

/// A replay sweep fanned over eight workers renders byte-identically to
/// the serial run — the engine overhaul must not leak worker-dependent
/// state into the golden outputs.
#[test]
fn replay_sweep_is_byte_identical_across_worker_counts() {
    let cells: Vec<u64> = (1..=6).collect();
    let sweep = |jobs: usize| -> String {
        run_ordered(jobs, cells.clone(), |&seed| {
            let ts = traces(seed, 2);
            let borrowed: Vec<&Trace> = ts.iter().collect();
            let homed = merge_homed(&borrowed);
            let r = replay_homed(&homed, &mut devices(seed, 2), &mut Hedging::new(2_000));
            replay_json(&r).to_string()
        })
        .join("\n")
    };
    assert_eq!(sweep(1), sweep(8), "sweep output must not depend on --jobs");
}

//! Differential tests for the replay-engine overhaul.
//!
//! The overhauled hot path — indexed 4-ary event heap, k-way trace merge,
//! pre-sized radix recorder, completion-skip wide engine — must be a pure
//! reimplementation of the seed engines kept as `replay_homed_reference`,
//! `run_wide_reference` and `merge_homed_reference`: same inputs, byte-
//! identical run JSON and tables. On top of the differential sweeps, a
//! property test pins the indexed heap's dequeue contract ((at, seq) order
//! under random insert/pop interleavings), a jobs-parity test holds a
//! fanned-out replay sweep against its serial run, and a second property
//! holds the stateless policies' replay to the same policies replayed as
//! observing ones, under random fault plans.

use heimdall_bench::runner::run_ordered;
use heimdall_bench::sweep::replay_json;
use heimdall_cluster::replayer::{
    merge_homed, merge_homed_reference, replay_homed, replay_homed_reference, HomedRequest,
};
use heimdall_cluster::{
    run_wide, run_wide_reference, EventQueue, ReplayResult, WideConfig, WidePolicy,
};
use heimdall_core::collect::submit_one;
use heimdall_core::pipeline::{run_batch, PipelineConfig, Trained};
use heimdall_core::RecordBatch;
use heimdall_integration::gen::{
    homed_traces as traces, plan_from_cuts, random_trace, rendered, replay_devices as devices,
};
use heimdall_integration::prop::{check, tuple2, tuple3, u64_in, usize_in, vec_of, Config};
use heimdall_policies::{
    Baseline, DeviceView, Hedging, HeimdallPolicy, Policy, RandomSelect, Route,
};
use heimdall_ssd::{FaultKind, FaultPlan, FaultWindow, SsdDevice};
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, Trace, PAGE_SIZE};
use std::cell::Cell;

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

/// Forwards only `name` and `route_read`; every other hook keeps the
/// trait's default, `observes_devices` included. Wrapping a policy that
/// never reads device state in it forces the replay through the tracked
/// path an observing policy takes.
struct Observing<P>(P);

impl<P: Policy> Policy for Observing<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        self.0.route_read(req, now, views, home)
    }
}

/// Replays a fresh `make()` bare, then another wrapped in [`Observing`].
fn twins<P: Policy>(
    replay: &dyn Fn(&mut dyn Policy) -> ReplayResult,
    make: impl Fn() -> P,
) -> (ReplayResult, ReplayResult) {
    (replay(&mut make()), replay(&mut Observing(make())))
}

/// One device's fault timeline: [`plan_from_cuts`]' windows (all below
/// 0.6 s), then `stop` = (start, length) adds a fail-stop window that every
/// device shares, so a read arriving inside it finds no live replica and
/// backs off. A zero length means no shared outage.
fn fault_plan(cuts: &[u64], (start, len): (u64, u64)) -> FaultPlan {
    let mut windows = plan_from_cuts(cuts, 0).windows().to_vec();
    if len > 0 {
        windows.push(FaultWindow {
            start_us: start,
            end_us: start + len,
            kind: FaultKind::FailStop,
            multiplier: 1.0,
        });
    }
    FaultPlan::try_new(windows).expect("disjoint by construction")
}

/// Property: Baseline, random selection and hedging read no device state,
/// so replaying them bare must give exactly what replaying them wrapped in
/// [`Observing`] gives: the same sample stream, counters and lanes, over
/// random 1–3-trace homed streams and random fault plans with fail-slow,
/// stall and whole-array fail-stop windows (reroutes, hedges into faults,
/// backoff retries and abandonment all fire).
#[test]
fn prop_stateless_policies_replay_as_their_observing_twins() {
    let strat = tuple3(
        tuple3(u64_in(0..=1 << 40), usize_in(1..=3), usize_in(0..=3)),
        vec_of(vec_of(u64_in(0..=599_999), 0..=6), 0..=3),
        tuple2(u64_in(600_000..=900_000), u64_in(0..=400_000)),
    );
    let (hedged, retried) = (Cell::new(0u32), Cell::new(0u32));
    check(
        "prop_stateless_policies_replay_as_their_observing_twins",
        &Config::seeded(0x0b5e),
        &strat,
        |((seed, homes, policy), cuts, stop)| {
            let mut rng = Rng64::new(*seed);
            let ts: Vec<Trace> = (0..*homes).map(|_| random_trace(&mut rng)).collect();
            let homed = merge_homed(&ts.iter().collect::<Vec<_>>());
            let plans: Vec<FaultPlan> = (0..(*homes).max(2))
                .map(|d| fault_plan(cuts.get(d).map_or(&[], Vec::as_slice), *stop))
                .collect();
            let replay = |policy: &mut dyn Policy| {
                let mut devs = devices(*seed, *homes);
                for (dev, plan) in devs.iter_mut().zip(&plans) {
                    dev.set_fault_plan(plan.clone());
                }
                replay_homed(&homed, &mut devs, policy)
            };
            let (bare, observed) = match policy {
                0 => twins(&replay, || Baseline),
                1 => twins(&replay, || RandomSelect::new(*seed)),
                2 => twins(&replay, || Hedging::new(300)),
                _ => twins(&replay, || Hedging::new(2_000)),
            };
            let fields = |r: &ReplayResult| {
                (
                    r.writes,
                    r.rerouted,
                    r.hedges_fired,
                    r.reroutes_on_fault,
                    r.retries,
                )
            };
            if bare.reads.samples() != observed.reads.samples() {
                return Err(format!("{}: sample streams diverged", bare.policy));
            }
            if fields(&bare) != fields(&observed) {
                return Err(format!(
                    "{}: (writes, rerouted, hedges, fault reroutes, retries) {:?} vs {:?}",
                    bare.policy,
                    fields(&bare),
                    fields(&observed)
                ));
            }
            if bare.per_device != observed.per_device {
                return Err(format!("{}: per-device lanes diverged", bare.policy));
            }
            hedged.set(hedged.get() + u32::from(bare.hedges_fired > 0));
            retried.set(retried.get() + u32::from(bare.retries > 0));
            Ok(())
        },
    );
    // A single replayed case need not reach either path.
    if std::env::var_os("HEIMDALL_PROP_SEED").is_none() {
        assert!(hedged.get() > 0, "no case fired a hedge");
        assert!(retried.get() > 0, "no case backed off");
    }
}

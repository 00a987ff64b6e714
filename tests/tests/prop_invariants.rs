//! The generator-driven invariant catalog.
//!
//! Every property below runs ≥ 256 generated cases through the in-tree
//! engine (`heimdall_integration::prop`): fully deterministic, and any
//! failure panics with a case seed plus a one-line reproduction command
//! (`HEIMDALL_PROP_SEED=<seed> cargo test -p heimdall-integration <name>`).
//! `HEIMDALL_PROP_CASES=<n>` turns the same catalog into a fuzz lane.
//!
//! The catalog is metamorphic/differential where the workspace keeps a
//! fast path and a reference path (event queue, trace merge, radix
//! recorder, batched quantized inference, bulk scaling, threshold tuner,
//! parallel sweeps, model-zoo batched prediction, columnar featurization,
//! history ring, the decision kernel's i32 pass) and law-based where it models physics or math (replay
//! read conservation, fault-window causality, validation classification,
//! tied-rank ROC AUC, the training flush below the quantizer's sight).

use heimdall_cluster::replayer::{merge_homed, merge_homed_reference, replay_homed, HomedRequest};
use heimdall_cluster::train::fresh_devices_with_plans;
use heimdall_cluster::{DeviceLane, EventQueue};
use heimdall_integration::diff::{random_model, random_stream, LANE_BITS};
use heimdall_integration::gen::{plan_from_cuts, random_trace, ViewForms};
use heimdall_integration::prop::{check, tuple2, tuple3, u64_in, usize_in, vec_of, Config};
use heimdall_metrics::{roc_auc, LatencyRecorder};
use heimdall_models::automl::Family;
use heimdall_nn::{
    Activation, Dataset, Mlp, MlpConfig, OutputLayer, QuantizedMlp, Scaler, ScalerKind,
};
use heimdall_policies::{
    Baseline, FallbackPolicy, Hedging, HeimdallPolicy, Policy, RandomSelect, C3,
};
use heimdall_ssd::{DeviceConfig, FaultKind, FaultPlan, FaultPlanError, SsdDevice};
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, Trace, PAGE_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A homed two-device read/write stream derived from one seed.
fn homed_stream(seed: u64) -> Vec<HomedRequest> {
    let trace = random_trace(&mut Rng64::new(seed ^ 0x7072_6f70));
    trace
        .requests
        .iter()
        .map(|&req| HomedRequest {
            req,
            home: (req.id % 2) as usize,
        })
        .collect()
}

fn two_datacenter_cfgs() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ]
}

/// Property 1: The indexed 4-ary [`EventQueue`] is observationally equivalent to
/// `BinaryHeap<Reverse<(at, seq)>>` — the seed engine's queue — under
/// arbitrary interleaved push/pop sequences with heavy timestamp ties.
#[test]
fn prop_event_queue_matches_binary_heap_model() {
    let ops = vec_of(tuple2(u64_in(0..=40), u64_in(0..=4)), 0..=300);
    check(
        "prop_event_queue_matches_binary_heap_model",
        &Config::seeded(0x01),
        &ops,
        |ops| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for &(at, sel) in ops {
                if sel < 3 || model.is_empty() {
                    q.push(at, seq);
                    model.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let expect = model.pop().map(|Reverse(e)| e);
                    let got = q.pop();
                    if got != expect {
                        return Err(format!("pop diverged: queue {got:?} vs model {expect:?}"));
                    }
                }
                if q.len() != model.len() {
                    return Err(format!("len diverged: {} vs {}", q.len(), model.len()));
                }
                if q.next_at() != model.peek().map(|Reverse((at, _))| *at) {
                    return Err("next_at diverged from model peek".into());
                }
            }
            while let Some(Reverse(expect)) = model.pop() {
                let got = q.pop();
                if got != Some(expect) {
                    return Err(format!("drain diverged: {got:?} vs {expect:?}"));
                }
            }
            if q.pop().is_some() {
                return Err("queue still non-empty after model drained".into());
            }
            Ok(())
        },
    );
}

/// Property 2: The k-way [`merge_homed`] equals the stable concat-sort reference on
/// sorted traces, and still equals it when a trace arrives unsorted (the
/// sortedness-checked fallback path).
#[test]
fn prop_merge_homed_matches_reference() {
    // Outer: 1..=4 traces; inner: raw (arrival, pages) request tuples; the
    // final flag leaves one trace unsorted to force the fallback.
    let strat = tuple2(
        vec_of(
            vec_of(tuple2(u64_in(0..=1_000_000), u64_in(1..=64)), 0..=50),
            1..=4,
        ),
        u64_in(0..=3),
    );
    check(
        "prop_merge_homed_matches_reference",
        &Config::seeded(0x02),
        &strat,
        |(raw_traces, flag)| {
            let traces: Vec<Trace> = raw_traces
                .iter()
                .enumerate()
                .map(|(t, raw)| {
                    let mut reqs: Vec<IoRequest> = raw
                        .iter()
                        .map(|&(arrival_us, pages)| IoRequest {
                            id: 0,
                            arrival_us,
                            offset: arrival_us * 8,
                            size: pages as u32 * PAGE_SIZE,
                            op: if pages % 3 == 0 {
                                IoOp::Write
                            } else {
                                IoOp::Read
                            },
                        })
                        .collect();
                    // flag == 0 leaves trace 0 in raw (likely unsorted)
                    // order to exercise the fallback; Trace is built
                    // literally because Trace::new debug-asserts order.
                    if !(*flag == 0 && t == 0) {
                        reqs.sort_by_key(|r| r.arrival_us);
                    }
                    for (i, r) in reqs.iter_mut().enumerate() {
                        r.id = i as u64;
                    }
                    Trace {
                        requests: reqs,
                        name: format!("m{t}"),
                    }
                })
                .collect();
            let borrowed: Vec<&Trace> = traces.iter().collect();
            let fast = merge_homed(&borrowed);
            let reference = merge_homed_reference(&borrowed);
            if fast != reference {
                return Err(format!(
                    "merge diverged at {} vs {} entries (first mismatch {:?})",
                    fast.len(),
                    reference.len(),
                    fast.iter().zip(&reference).position(|(a, b)| a != b)
                ));
            }
            Ok(())
        },
    );
}

/// Property 3: The radix-sorted [`LatencyRecorder`] agrees with a plain
/// `sort_unstable` model on percentile/cdf/mean/max, across mixed
/// magnitudes (multi-digit radix passes), incremental recording, and
/// merge.
#[test]
fn prop_latency_recorder_matches_sort_model() {
    // (raw, band) pairs: band shifts raw into a different radix digit
    // regime so constant-digit skipping and multi-pass sorts both run.
    let strat = vec_of(tuple2(u64_in(0..=999_999), u64_in(0..=3)), 0..=300);
    check(
        "prop_latency_recorder_matches_sort_model",
        &Config::seeded(0x03),
        &strat,
        |pairs| {
            let samples: Vec<u64> = pairs
                .iter()
                .map(|&(raw, band)| raw << (band * 12))
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rec = LatencyRecorder::from_samples(samples.clone());
            let mut incremental = LatencyRecorder::new();
            for &s in &samples {
                incremental.record(s);
            }
            let n = sorted.len();
            for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                let expect = if n == 0 {
                    0
                } else {
                    let idx = ((p / 100.0) * n as f64).ceil() as usize;
                    sorted[idx.saturating_sub(1).min(n - 1)]
                };
                if rec.percentile(p) != expect {
                    return Err(format!("p{p}: {} vs model {expect}", rec.percentile(p)));
                }
                if incremental.percentile(p) != expect {
                    return Err(format!("incremental p{p} diverged"));
                }
            }
            if n > 0 {
                let expect_mean = sorted.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
                if (rec.mean() - expect_mean).abs() > 1e-6 * expect_mean.max(1.0) {
                    return Err(format!("mean {} vs model {expect_mean}", rec.mean()));
                }
                if rec.max() != sorted[n - 1] {
                    return Err(format!("max {} vs model {}", rec.max(), sorted[n - 1]));
                }
            }
            for &probe in sorted.iter().take(8).chain([0, u64::MAX].iter()) {
                let expect = if n == 0 {
                    0.0
                } else {
                    sorted.partition_point(|&s| s <= probe) as f64 / n as f64
                };
                if rec.cdf_at(probe) != expect {
                    return Err(format!("cdf_at({probe}) diverged"));
                }
            }
            // Merge of a split equals the whole.
            let mid = n / 2;
            let mut left = LatencyRecorder::from_samples(samples[..mid].to_vec());
            let right = LatencyRecorder::from_samples(samples[mid..].to_vec());
            left.merge(&right);
            for p in [50.0, 99.0, 100.0] {
                if left.percentile(p) != rec.percentile(p) {
                    return Err(format!("merged p{p} diverged"));
                }
            }
            Ok(())
        },
    );
}

/// Property 4: Batched quantized inference is bitwise-identical to the scalar path
/// for ragged widths and adversarial weights (amplified, sign-flipped,
/// zeroed) that random initialization never produces.
#[test]
fn prop_quantized_batch_matches_scalar_under_adversarial_weights() {
    let strat = tuple3(
        u64_in(0..=1 << 40),
        u64_in(0..=4),
        tuple2(u64_in(0..=1 << 40), usize_in(1..=48)),
    );
    check(
        "prop_quantized_batch_matches_scalar_under_adversarial_weights",
        &Config::seeded(0x04),
        &strat,
        |&(model_seed, amp_idx, (stream_seed, rows))| {
            // Bounded amplification: ×16 keeps the i64 accumulators far
            // from overflow while still leaving the float path's regime.
            let amps: [f32; 5] = [1.0, -1.0, 4.0, 16.0, 0.0];
            let (mut mlp, _) = random_model(model_seed);
            let amp = amps[amp_idx as usize];
            mlp.map_params(|w| w * amp);
            let q = QuantizedMlp::quantize_paper(&mlp);
            let dim = q.input_dim();
            let stream = random_stream(stream_seed, rows, dim);
            let batch_probs = q.predict_batch(&stream);
            let batch_logits = q.logit_batch(&stream);
            let batch_slow = q.predict_slow_batch(&stream);
            for (r, row) in stream.chunks_exact(dim).enumerate() {
                if batch_probs[r].to_bits() != q.predict(row).to_bits() {
                    return Err(format!(
                        "predict row {r}/{rows} diverged: batch {} vs scalar {} (amp {amp})",
                        batch_probs[r],
                        q.predict(row)
                    ));
                }
                if batch_logits[r].to_bits() != q.logit(row).to_bits() {
                    return Err(format!("logit row {r} diverged (amp {amp})"));
                }
                if batch_slow[r] != q.predict_slow(row) {
                    return Err(format!("predict_slow row {r} diverged (amp {amp})"));
                }
            }
            Ok(())
        },
    );
}

/// Property 5: Bulk [`Scaler::transform`] is bitwise-identical to row-at-a-time
/// [`Scaler::transform_row`] for every scaler kind, and degenerate
/// (constant) columns stay finite.
#[test]
fn prop_scaler_bulk_matches_row_transform() {
    let strat = tuple3(u64_in(0..=1 << 40), usize_in(1..=60), usize_in(1..=8));
    check(
        "prop_scaler_bulk_matches_row_transform",
        &Config::seeded(0x05),
        &strat,
        |&(seed, rows, dim)| {
            let mut rng = Rng64::new(seed ^ 0x7363_616c);
            // One column in three is constant — the degenerate-range case.
            let constant_col: Vec<bool> = (0..dim).map(|_| rng.chance(0.33)).collect();
            let mut data = Dataset::new(dim);
            let mut row = vec![0.0f32; dim];
            for _ in 0..rows {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = if constant_col[c] {
                        2.5
                    } else {
                        rng.f32() * 8.0 - 4.0
                    };
                }
                data.push(&row, if rng.chance(0.5) { 1.0 } else { 0.0 });
            }
            for kind in [
                ScalerKind::None,
                ScalerKind::MinMax,
                ScalerKind::Standard,
                ScalerKind::Robust,
            ] {
                let scaler = Scaler::fit(kind, &data);
                let mut bulk = data.clone();
                scaler.transform(&mut bulk);
                for i in 0..data.rows() {
                    let mut expect = data.row(i).to_vec();
                    scaler.transform_row(&mut expect);
                    let got = bulk.row(i);
                    if got.len() != expect.len()
                        || got
                            .iter()
                            .zip(&expect)
                            .any(|(a, b)| a.to_bits() != b.to_bits())
                    {
                        return Err(format!("{kind:?}: bulk row {i} != transform_row"));
                    }
                    if got.iter().any(|v| !v.is_finite()) {
                        return Err(format!("{kind:?}: non-finite output in row {i}"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Property 6: The precomputed-scratch threshold tuner is bitwise-identical to the
/// rebuild-per-candidate reference on arbitrary record streams, over both
/// `ReadView` forms.
#[test]
fn prop_threshold_tuner_matches_reference() {
    check(
        "prop_threshold_tuner_matches_reference",
        &Config::seeded(0x06),
        &u64_in(0..=1 << 40),
        |&seed| {
            let records =
                heimdall_integration::gen::random_records(&mut Rng64::new(seed ^ 0x74756e65));
            let forms = ViewForms::of(&records);
            let [(_, whole), _] = forms.views();
            let reference = heimdall_core::labeling::tune_thresholds_reference(&whole);
            for (form, view) in forms.views() {
                let fast = heimdall_core::labeling::tune_thresholds_view(&view);
                if fast != reference {
                    return Err(format!(
                        "{form}: tuner diverged on {} records: {fast:?} vs {reference:?}",
                        records.len()
                    ));
                }
            }
            Ok(())
        },
    );
}

/// One small Heimdall model per device of [`two_datacenter_cfgs`], trained
/// once per process on a 4 s contention trace.
fn small_models() -> Vec<heimdall_core::pipeline::Trained> {
    use heimdall_core::collect::collect_batch;
    use heimdall_core::pipeline::{run_batch, PipelineConfig, Trained};
    use heimdall_integration::gen::contention_trace;
    static MODEL: std::sync::OnceLock<Trained> = std::sync::OnceLock::new();
    let model = MODEL.get_or_init(|| {
        let mut device = SsdDevice::new(DeviceConfig::datacenter_nvme(), 0x07);
        let records = collect_batch(&contention_trace(0x07, 4), &mut device);
        run_batch(&records, &PipelineConfig::heimdall())
            .expect("a contention log trains")
            .0
    });
    vec![model.clone(), model.clone()]
}

/// Property 7: Replay conservation under arbitrary valid fault timelines: every
/// read and write in the stream lands in the result exactly once, no
/// matter which windows fire or which route shape (plain, random, hedged,
/// admitted or declined by a model, or by its fallback) the policy
/// returns, and the per-device lanes add up to the scalar counters they
/// disaggregate. The ML policies observe the devices, so they replay
/// through tracked submissions; the others through unobserved writes.
#[test]
fn prop_replay_conserves_requests_under_faults() {
    let strat = tuple3(
        tuple2(u64_in(0..=1 << 40), usize_in(0..=4)),
        vec_of(u64_in(0..=2_000_000), 0..=6),
        vec_of(u64_in(0..=2_000_000), 0..=6),
    );
    check(
        "prop_replay_conserves_requests_under_faults",
        &Config::seeded(0x07),
        &strat,
        |((seed, policy), cuts_a, cuts_b)| {
            let requests = homed_stream(*seed);
            let reads = requests.iter().filter(|h| h.req.op.is_read()).count();
            let writes = requests.len() - reads;
            let plans = vec![plan_from_cuts(cuts_a, 0), plan_from_cuts(cuts_b, 0)];
            let mut devices =
                fresh_devices_with_plans(&two_datacenter_cfgs(), &plans, seed ^ 0xfa).unwrap();
            let mut policy: Box<dyn Policy> = match policy {
                0 => Box::new(Baseline),
                1 => Box::new(RandomSelect::new(*seed)),
                // Short enough that hedges fire into the fault windows.
                2 => Box::new(Hedging::new(200)),
                3 => Box::new(HeimdallPolicy::new(small_models())),
                _ => Box::new(FallbackPolicy::new(
                    Box::new(HeimdallPolicy::new(small_models())),
                    Box::new(C3::new()),
                )),
            };
            let result = replay_homed(&requests, &mut devices, policy.as_mut());
            if result.reads.len() != reads {
                return Err(format!(
                    "read conservation violated: {} accounted of {reads}",
                    result.reads.len()
                ));
            }
            if result.writes as usize != writes {
                return Err(format!(
                    "write conservation violated: {} accounted of {writes}",
                    result.writes
                ));
            }
            let lane = |f: fn(&DeviceLane) -> u64| result.per_device.iter().map(f).sum::<u64>();
            let backups = lane(|l| l.hedge_backups);
            if backups != result.hedges_fired {
                return Err(format!(
                    "{backups} hedge backups on the lanes, {} hedges fired",
                    result.hedges_fired
                ));
            }
            let away = lane(|l| l.rerouted_away);
            if away != result.rerouted {
                return Err(format!(
                    "{away} reads rerouted away on the lanes, {} rerouted",
                    result.rerouted
                ));
            }
            // A read is admitted at most once; the ones never admitted were
            // abandoned, and each of those spent the whole 16-retry budget.
            let admits = lane(|l| l.admits);
            if admits > reads as u64 || (reads as u64 - admits) * 16 > result.retries {
                return Err(format!(
                    "{admits} admits for {reads} reads with {} retries",
                    result.retries
                ));
            }
            Ok(())
        },
    );
}

/// Property 8: Inactive fault plans are bitwise-free: windows scheduled entirely
/// after the replay horizon produce a result identical to no plan at all —
/// same sample stream, same per-device lanes, zero fault activity.
#[test]
fn prop_inactive_fault_plans_are_bitwise_free() {
    const FAR_FUTURE_US: u64 = 1 << 50;
    let strat = tuple3(
        u64_in(0..=1 << 40),
        vec_of(u64_in(0..=2_000_000), 0..=8),
        vec_of(u64_in(0..=2_000_000), 0..=8),
    );
    check(
        "prop_inactive_fault_plans_are_bitwise_free",
        &Config::seeded(0x08),
        &strat,
        |(seed, cuts_a, cuts_b)| {
            let requests = homed_stream(*seed);
            let cfgs = two_datacenter_cfgs();
            let plans = vec![
                plan_from_cuts(cuts_a, FAR_FUTURE_US),
                plan_from_cuts(cuts_b, FAR_FUTURE_US),
            ];
            let mut healthy = fresh_devices_with_plans(&cfgs, &[], seed ^ 0xfb).unwrap();
            let bare = replay_homed(&requests, &mut healthy, &mut Baseline);
            let mut planned = fresh_devices_with_plans(&cfgs, &plans, seed ^ 0xfb).unwrap();
            let armed = replay_homed(&requests, &mut planned, &mut Baseline);
            if bare.reads.samples() != armed.reads.samples() {
                return Err("sample streams diverged under an inactive plan".into());
            }
            if bare.per_device != armed.per_device {
                return Err("per-device lanes diverged under an inactive plan".into());
            }
            if armed.reroutes_on_fault != 0 || armed.retries != 0 {
                return Err(format!(
                    "inactive plan produced fault activity: {} reroutes, {} retries",
                    armed.reroutes_on_fault, armed.retries
                ));
            }
            Ok(())
        },
    );
}

/// Property 9: jobs=1 vs jobs=N byte-identity: a sweep fanned over workers renders
/// exactly the serial run's JSON, for arbitrary cell sets and worker
/// counts.
#[test]
fn prop_sweep_output_is_byte_identical_across_worker_counts() {
    let strat = tuple2(vec_of(u64_in(0..=1_000), 1..=4), usize_in(2..=8));
    check(
        "prop_sweep_output_is_byte_identical_across_worker_counts",
        &Config::seeded(0x09),
        &strat,
        |(cells, jobs)| {
            let sweep = |jobs: usize| -> String {
                heimdall_bench::runner::run_ordered(jobs, cells.clone(), |&seed| {
                    let requests = homed_stream(seed);
                    let mut devices =
                        fresh_devices_with_plans(&two_datacenter_cfgs(), &[], seed ^ 0xfc).unwrap();
                    let r = replay_homed(&requests, &mut devices, &mut Hedging::new(2_000));
                    heimdall_bench::sweep::replay_json(&r).to_string()
                })
                .join("\n")
            };
            let serial = sweep(1);
            let fanned = sweep(*jobs);
            if serial != fanned {
                return Err(format!("sweep diverged between jobs=1 and jobs={jobs}"));
            }
            Ok(())
        },
    );
}

/// Property 10: Fault-script validation classifies exactly: scripts valid by
/// construction are accepted, and each seeded mutation is rejected with
/// the precise [`FaultPlanError`] variant it plants.
#[test]
fn prop_fault_plan_validation_classifies_exact_variants() {
    let strat = tuple2(
        vec_of(u64_in(0..=100_000), 0..=10),
        tuple2(u64_in(0..=3), u64_in(0..=1 << 40)),
    );
    check(
        "prop_fault_plan_validation_classifies_exact_variants",
        &Config::seeded(0x0a),
        &strat,
        |(cuts, (mutation, pick))| {
            let mut windows = plan_from_cuts(cuts, 0).windows().to_vec();
            match mutation {
                1 if !windows.is_empty() => {
                    // Plant a zero-length window.
                    let i = (pick % windows.len() as u64) as usize;
                    windows[i].end_us = windows[i].start_us;
                    let expect = FaultPlanError::ZeroLengthWindow {
                        start_us: windows[i].start_us,
                        end_us: windows[i].end_us,
                    };
                    if FaultPlan::try_new(windows) != Err(expect) {
                        return Err("zero-length window not classified".into());
                    }
                }
                2 if windows.len() >= 2 => {
                    // Plant an unsorted adjacent pair (starts always differ:
                    // windows are disjoint and non-empty by construction).
                    let i = (pick % (windows.len() - 1) as u64) as usize;
                    windows.swap(i, i + 1);
                    let expect = FaultPlanError::Unsorted {
                        prev_start_us: windows[i].start_us,
                        next_start_us: windows[i + 1].start_us,
                    };
                    if FaultPlan::try_new(windows) != Err(expect) {
                        return Err("unsorted pair not classified".into());
                    }
                }
                3 if !windows.is_empty() => {
                    // Plant a degenerate multiplier.
                    let i = (pick % windows.len() as u64) as usize;
                    let bad = [0.0, 0.999, -3.0, f64::NAN, f64::INFINITY][(pick / 7 % 5) as usize];
                    windows[i].multiplier = bad;
                    match FaultPlan::try_new(windows) {
                        Err(FaultPlanError::BadMultiplier { multiplier })
                            if multiplier.to_bits() == bad.to_bits() => {}
                        other => return Err(format!("multiplier {bad} not classified: {other:?}")),
                    }
                }
                _ if windows.len() >= 2 && *mutation == 0 && pick % 2 == 0 => {
                    // Plant an overlap: stretch a window over its successor.
                    let i = (pick / 2 % (windows.len() - 1) as u64) as usize;
                    windows[i].end_us = windows[i + 1].start_us + 1;
                    let expect = FaultPlanError::Overlapping {
                        prev_end_us: windows[i].end_us,
                        next_start_us: windows[i + 1].start_us,
                    };
                    if FaultPlan::try_new(windows) != Err(expect) {
                        return Err("overlap not classified".into());
                    }
                }
                _ => {
                    // No mutation (or too few windows to plant one): the
                    // constructed script must be accepted.
                    if FaultPlan::try_new(windows).is_err() {
                        return Err("valid-by-construction script rejected".into());
                    }
                }
            }
            Ok(())
        },
    );
}

/// Property 11: Device completions are causal under faults: accepted submissions
/// start no earlier than arrival and finish after they start; rejections
/// happen only inside fail-stop windows and report that window's end; the
/// device's rejection counter matches the observed rejections.
#[test]
fn prop_device_completions_are_causal_under_faults() {
    let strat = tuple3(
        u64_in(0..=1 << 40),
        vec_of(tuple2(u64_in(0..=20_000), u64_in(1..=64)), 1..=80),
        vec_of(u64_in(0..=1_500_000), 0..=6),
    );
    check(
        "prop_device_completions_are_causal_under_faults",
        &Config::seeded(0x0b),
        &strat,
        |(seed, arrivals, cuts)| {
            let plan = plan_from_cuts(cuts, 0);
            let mut device = SsdDevice::try_new(DeviceConfig::datacenter_nvme(), *seed)
                .unwrap()
                .with_fault_plan(plan.clone());
            let mut now = 0u64;
            let mut rejections = 0u64;
            for (i, &(delta, pages)) in arrivals.iter().enumerate() {
                now += delta;
                let req = IoRequest {
                    id: i as u64,
                    arrival_us: now,
                    offset: i as u64 * 8192,
                    size: pages as u32 * PAGE_SIZE,
                    op: IoOp::Read,
                };
                match device.try_submit(&req, now) {
                    Ok(c) => {
                        if c.start_us < now {
                            return Err(format!(
                                "req {i}: start {} before arrival {now}",
                                c.start_us
                            ));
                        }
                        if c.finish_us <= c.start_us {
                            return Err(format!(
                                "req {i}: finish {} !> start {}",
                                c.finish_us, c.start_us
                            ));
                        }
                        if c.latency_us != c.finish_us - now {
                            return Err(format!(
                                "req {i}: latency {} != finish - arrival",
                                c.latency_us
                            ));
                        }
                    }
                    Err(unavailable) => {
                        rejections += 1;
                        match plan.active_at(now) {
                            Some(w) if w.kind == FaultKind::FailStop => {
                                if unavailable.until_us != w.end_us {
                                    return Err(format!(
                                        "req {i}: rejection reports until {} but window ends {}",
                                        unavailable.until_us, w.end_us
                                    ));
                                }
                            }
                            other => {
                                return Err(format!(
                                    "req {i}: rejected outside a fail-stop window ({other:?})"
                                ))
                            }
                        }
                    }
                }
            }
            if device.fault_stats().rejected != rejections {
                return Err(format!(
                    "rejection counter {} != observed {rejections}",
                    device.fault_stats().rejected
                ));
            }
            Ok(())
        },
    );
}

/// Tiny seeded classification set for the model-zoo properties. Rows 0 and
/// 1 (when present) carry both class labels so most generated sets are
/// fittable by every family; single-row sets stay single-class on purpose.
/// Mutations mirror the parity suite's adversarial variants: 1 pins the
/// first column to a constant, 2 re-appends the leading rows verbatim.
fn tiny_dataset(rows: usize, dim: usize, seed: u64, mutation: usize) -> Dataset {
    let mut rng = Rng64::new(seed);
    let mut d = Dataset::new(dim);
    let mut row = vec![0.0f32; dim];
    for r in 0..rows {
        for v in row.iter_mut() {
            *v = rng.f32();
        }
        let y = if r < 2 {
            r as f32
        } else if row[0] > 0.5 {
            1.0
        } else {
            0.0
        };
        d.push(&row, y);
    }
    match mutation {
        1 => {
            for r in 0..d.rows() {
                d.x[r * d.dim] = 0.5;
            }
        }
        2 => {
            for r in 0..rows.min(4) {
                let dup: Vec<f32> = d.row(r).to_vec();
                let y = d.y[r];
                d.push(&dup, y);
            }
        }
        _ => {}
    }
    d
}

/// Property 12: `predict_batch` is bitwise-identical to per-row `predict` for
/// every one of the sixteen AutoML families, on tiny adversarial datasets
/// (constant columns, duplicated rows, single-row/single-class). The
/// datasets stay small so the fuzz lane (`HEIMDALL_PROP_CASES`) can push
/// thousands of cases through all sixteen fits per case.
#[test]
fn prop_predict_batch_is_bitwise_scalar_for_every_family() {
    let strat = tuple3(
        tuple2(usize_in(1..=24), usize_in(1..=3)),
        u64_in(0..=u64::MAX),
        usize_in(0..=2),
    );
    check(
        "prop_predict_batch_is_bitwise_scalar_for_every_family",
        &Config::seeded(0x0c),
        &strat,
        |&((rows, dim), seed, mutation)| {
            let train = tiny_dataset(rows, dim, seed, mutation);
            let test = tiny_dataset(rows.min(8), dim, seed ^ 0x5eed, 0);
            for family in Family::ALL {
                let mut model = family.sample_seeded(seed ^ 0xfa, 0);
                model.fit(&train);
                let batch = model.predict_batch(&test);
                if batch.len() != test.rows() {
                    return Err(format!(
                        "{}: batch returned {} scores for {} rows",
                        family.paper_name(),
                        batch.len(),
                        test.rows()
                    ));
                }
                for (i, &b) in batch.iter().enumerate() {
                    let scalar = model.predict(test.row(i));
                    if b.to_bits() != scalar.to_bits() {
                        return Err(format!(
                            "{}: row {i} batch {b} != scalar {scalar}",
                            family.paper_name()
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Property 13: [`roc_auc`]'s average-rank tie handling equals the O(n²)
/// counting model (wins + ties/2) / (pos·neg), and degenerates to exactly
/// 0.5 whenever a class is absent. Scores come from a four-value palette
/// so tie runs are dense in every generated case.
#[test]
fn prop_roc_auc_matches_counting_model_under_ties() {
    const PALETTE: [f32; 4] = [-0.5, 0.0, 0.5, 1.0];
    let strat = vec_of(tuple2(u64_in(0..=3), u64_in(0..=1)), 0..=40);
    check(
        "prop_roc_auc_matches_counting_model_under_ties",
        &Config::seeded(0x0d),
        &strat,
        |cases| {
            let scores: Vec<f32> = cases.iter().map(|&(s, _)| PALETTE[s as usize]).collect();
            let labels: Vec<bool> = cases.iter().map(|&(_, l)| l == 1).collect();
            let auc = roc_auc(&scores, &labels);
            let pos: Vec<f32> = scores
                .iter()
                .zip(&labels)
                .filter_map(|(&s, &y)| y.then_some(s))
                .collect();
            let neg: Vec<f32> = scores
                .iter()
                .zip(&labels)
                .filter_map(|(&s, &y)| (!y).then_some(s))
                .collect();
            if pos.is_empty() || neg.is_empty() {
                return if auc == 0.5 {
                    Ok(())
                } else {
                    Err(format!("class absent but auc {auc} != 0.5"))
                };
            }
            let (mut wins, mut ties) = (0.0f64, 0.0f64);
            for &p in &pos {
                for &n in &neg {
                    if p > n {
                        wins += 1.0;
                    } else if p == n {
                        ties += 1.0;
                    }
                }
            }
            let expect = (wins + 0.5 * ties) / (pos.len() as f64 * neg.len() as f64);
            if (auc - expect).abs() > 1e-12 {
                return Err(format!("auc {auc} != counting model {expect}"));
            }
            Ok(())
        },
    );
}

/// An adversarial collection log for the featurization property: writes
/// interleaved with reads, long-inflight I/Os spanning many arrivals,
/// exact finish-time ties, huge queue lengths and sizes (stressing the
/// f64→f32 conversion chain), plus labels and a holed keep mask.
fn adversarial_log(seed: u64) -> (Vec<heimdall_core::IoRecord>, Vec<bool>, Vec<bool>) {
    let mut rng = Rng64::new(seed ^ 0x6665_6174);
    let n = rng.range(4, 250) as usize;
    let mut t = 0u64;
    let mut last_finish = 1u64;
    let recs: Vec<heimdall_core::IoRecord> = (0..n)
        .map(|_| {
            t += rng.below(1_500);
            let lat = if rng.chance(0.15) {
                rng.range(20_000, 120_000) // in flight across many arrivals
            } else if rng.chance(0.3) && last_finish > t {
                last_finish - t // ties an earlier record's finish exactly
            } else {
                rng.range(1, 3_000)
            }
            .max(1);
            last_finish = t + lat;
            let size = (rng.below(1 << 31) + 1) as u32;
            heimdall_core::IoRecord {
                arrival_us: t,
                finish_us: t + lat,
                size,
                op: if rng.chance(0.4) {
                    IoOp::Write
                } else {
                    IoOp::Read
                },
                queue_len: rng.below(1 << 26) as u32,
                latency_us: lat,
                throughput: size as f64 / lat as f64,
                truth_busy: false,
            }
        })
        .collect();
    let labels = (0..n).map(|_| rng.chance(0.3)).collect();
    let keep = (0..n).map(|_| rng.chance(0.8)).collect();
    (recs, labels, keep)
}

/// Property 14: The compiled column-streaming dataset builder is bitwise-identical
/// to the retained `row_into` reference over adversarial logs, random
/// feature layouts (duplicate columns, history offsets at and beyond the
/// depth), random depths, any shard count, and both `ReadView` forms
/// (the whole batch, and an index projection out of a batch interleaved
/// with decoy records).
#[test]
fn prop_columnar_featurization_matches_row_reference() {
    use heimdall_core::features::{
        build_dataset_reference, build_dataset_view, Feature, FeatureSpec,
    };
    let strat = tuple3(
        u64_in(0..=u64::MAX),
        vec_of(tuple2(u64_in(0..=6), usize_in(0..=7)), 0..=12),
        tuple2(usize_in(0..=5), usize_in(1..=8)),
    );
    check(
        "prop_columnar_featurization_matches_row_reference",
        &Config::seeded(0x0e),
        &strat,
        |(seed, raw_cols, (depth, jobs))| {
            let (recs, labels, keep) = adversarial_log(*seed);
            let columns: Vec<Feature> = raw_cols
                .iter()
                .map(|&(kind, k)| match kind {
                    0 => Feature::QueueLen,
                    1 => Feature::Size,
                    2 => Feature::Timestamp,
                    3 => Feature::HistQueueLen(k),
                    4 => Feature::HistLatency(k),
                    5 => Feature::HistThroughput(k),
                    _ => Feature::HistIoType(k),
                })
                .collect();
            let spec = FeatureSpec {
                columns,
                hist_depth: *depth,
            };
            let (want, want_src) = build_dataset_reference(&recs, &labels, &keep, &spec);
            let to_bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            for (form, view) in ViewForms::of(&recs).views() {
                let (got, got_src) = build_dataset_view(&view, &labels, &keep, &spec, *jobs);
                if got_src != want_src {
                    return Err(format!(
                        "{form}: sources diverged: {} vs {} rows (depth {depth}, jobs {jobs})",
                        got_src.len(),
                        want_src.len()
                    ));
                }
                if to_bits(&got.y) != to_bits(&want.y) {
                    return Err(format!("{form}: labels diverged"));
                }
                if to_bits(&got.x) != to_bits(&want.x) {
                    let cell = got
                        .x
                        .iter()
                        .zip(&want.x)
                        .position(|(a, b)| a.to_bits() != b.to_bits());
                    return Err(format!(
                        "{form}: features diverged at flat cell {cell:?} of {} (dim {}, depth {depth}, jobs {jobs})",
                        want.x.len(),
                        want.dim
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Property 15: The fixed-size [`History`] ring is observationally equivalent to a
/// naive `VecDeque` model (push-front, truncate to capacity) under random
/// push sequences — `get` at every offset including out-of-range (the
/// zero-default contract) and `is_full`, for capacities including zero.
#[test]
fn prop_history_ring_matches_vecdeque_model() {
    use heimdall_core::features::{HistEntry, History};
    use std::collections::VecDeque;
    let strat = tuple2(usize_in(0..=6), vec_of(u64_in(0..=u64::MAX), 0..=120));
    check(
        "prop_history_ring_matches_vecdeque_model",
        &Config::seeded(0x0f),
        &strat,
        |(cap, pushes)| {
            let entry = |v: u64| HistEntry {
                latency_us: (v & 0xffff) as f64 * 1.5,
                queue_len: (v >> 16 & 0xff) as f64,
                throughput: (v >> 24 & 0xffff) as f64 / 7.0,
                is_read: f64::from(u8::from(v & 1 == 1)),
            };
            let eq = |a: HistEntry, b: HistEntry| {
                a.latency_us.to_bits() == b.latency_us.to_bits()
                    && a.queue_len.to_bits() == b.queue_len.to_bits()
                    && a.throughput.to_bits() == b.throughput.to_bits()
                    && a.is_read.to_bits() == b.is_read.to_bits()
            };
            let mut ring = History::new(*cap);
            let mut model: VecDeque<HistEntry> = VecDeque::new();
            for (op, &v) in pushes.iter().enumerate() {
                ring.push(entry(v));
                model.push_front(entry(v));
                model.truncate(*cap);
                if ring.is_full() != (model.len() >= *cap) {
                    return Err(format!("is_full diverged after push {op}"));
                }
                for i in 0..cap + 2 {
                    let expect = model.get(i).copied().unwrap_or_default();
                    if !eq(ring.get(i), expect) {
                        return Err(format!("get({i}) diverged after push {op} (cap {cap})"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Property 16: The decision kernel's i32 pass is bitwise-identical to the
/// i64 pass, or declines — over weights amplified to straddle the i16 bound,
/// biases on both sides of the i32 and i64 bounds, out-of-range and
/// non-finite inputs, leaky/PReLU/linear hidden layers, the softmax-2 fold,
/// odd input widths, layer widths that are not a multiple of 4 (1–37, and
/// 64/128/130/200: several full register blocks plus a ragged tail at every
/// lane width), power-of-two and other quantization scales, and networks of
/// one to three layers — at every lane width the host can run. A miss
/// forced at each layer in turn must fall back to the same logit, and the
/// i64 pass must survive every input without overflow (checked arithmetic in
/// dev, saturation in release).
#[test]
fn prop_narrow_pass_matches_wide_pass_or_declines() {
    use std::cell::Cell;
    let strat = tuple3(
        u64_in(0..=1 << 40),
        tuple2(u64_in(0..=9), u64_in(0..=9)),
        tuple2(u64_in(0..=1 << 40), usize_in(1..=12)),
    );
    let (hits, declines) = (Cell::new(0u64), Cell::new(0u64));
    check(
        "prop_narrow_pass_matches_wide_pass_or_declines",
        &Config::seeded(0x10),
        &strat,
        |&(model_seed, (amp_idx, bias_idx), (stream_seed, rows))| {
            let mut rng = Rng64::new(model_seed ^ 0x6e61_7272);
            let acts = [
                Activation::ReLU,
                Activation::LeakyReLU(0.1),
                Activation::PReLU(-0.25),
                Activation::Linear,
            ];
            let cfg = MlpConfig {
                input_dim: 1 + rng.below(17) as usize,
                hidden: (0..rng.below(3))
                    .map(|_| {
                        let width = match rng.below(4) {
                            0 => [64, 128, 130, 200][rng.below(4) as usize],
                            _ => 1 + rng.below(37) as usize,
                        };
                        (width, acts[rng.below(4) as usize])
                    })
                    .collect(),
                output: if rng.chance(0.3) {
                    OutputLayer::Softmax2
                } else {
                    OutputLayer::Sigmoid
                },
            };
            let layers = cfg.hidden.len() + 1;
            let dim = cfg.input_dim;
            // He-init weights quantize to 600–2500 depending on fan-in, so
            // ×16 to ×64 straddles i16. Biases start at exactly zero, which
            // is how the closure tells them from weights; 2048 × 1024² = 2³¹.
            let amp = [1.0, 1.0, -1.0, 0.0, 2.0, 4.0, 16.0, 40.0, 64.0, 3000.0][amp_idx as usize];
            let bias =
                [0.0, 0.0, 0.0, 0.3, -1.7, 3.0, 20.0, 2047.9, -2048.5, 1e13][bias_idx as usize];
            let mut mlp = Mlp::new(cfg, rng.next_u64());
            mlp.map_params(|p| if p == 0.0 { bias } else { p * amp });
            // The deployed scale, a smaller power of two, and two scales that
            // requantize by division.
            let scale = [1024, 1024, 512, 1000, 3][rng.below(5) as usize];
            let q = QuantizedMlp::quantize(&mlp, scale);
            let mut stream = random_stream(stream_seed, rows, dim);
            let wild = [
                40.0,
                -40.0,
                1e4,
                1e30,
                -1e30,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            for v in &mut stream {
                if rng.chance(0.02) {
                    *v = wild[rng.below(wild.len() as u64) as usize];
                }
            }
            // Worst-case probes for the first layer's bound: inputs of one
            // magnitude, signs aligned with (or against) one weight row, so
            // that row's accumulator reaches |b| ± Σ|w|·a exactly — on a
            // ladder of magnitudes that crosses the bound wherever it lies.
            // With no hidden layer nothing downstream declines the row
            // first, so an inexact bound shows as a wrong logit.
            let flat = mlp.flat_params();
            let aligned: Vec<f64> = match mlp.config().hidden.first() {
                Some(&(units, _)) => {
                    let o = rng.below(units as u64) as usize;
                    flat[o * dim..(o + 1) * dim].to_vec()
                }
                None if mlp.config().output == OutputLayer::Softmax2 => {
                    (0..dim).map(|k| flat[dim + k] - flat[k]).collect()
                }
                None => flat[..dim].to_vec(),
            };
            let signs: Vec<f32> = aligned
                .iter()
                .map(|&w| if w < 0.0 { -1.0 } else { 1.0 })
                .collect();
            let mut a = 1u32;
            while a < 40_000 {
                let polarity = if a.is_multiple_of(2) { 1.0 } else { -1.0 };
                stream.extend(signs.iter().map(|s| polarity * s * a as f32 / scale as f32));
                a = a * 4 / 3 + 1;
            }
            for bits in LANE_BITS {
                let mut q = q.clone();
                q.clamp_lane_bits(bits);
                let forced: Vec<QuantizedMlp> = (0..layers)
                    .map(|layer| {
                        let mut f = q.clone();
                        f.clamp_narrow_bound(layer, -1);
                        f
                    })
                    .collect();
                for (r, row) in stream.chunks_exact(dim).enumerate() {
                    let wide = q.logit_wide(row).to_bits();
                    match q.logit_narrow(row) {
                        Some(z) if z.to_bits() != wide => {
                            return Err(format!(
                                "row {r}: narrow {z} vs wide (amp {amp}, bias {bias}, \
                                 scale {scale}, {bits}-bit lanes)"
                            ));
                        }
                        Some(_) => hits.set(hits.get() + 1),
                        None => declines.set(declines.get() + 1),
                    }
                    if q.logit(row).to_bits() != wide {
                        return Err(format!(
                            "row {r}: kernel diverged from the i64 pass ({bits}-bit lanes)"
                        ));
                    }
                    for (layer, f) in forced.iter().enumerate() {
                        if f.logit_narrow(row).is_some() {
                            return Err(format!("row {r}: no decline at forced layer {layer}"));
                        }
                        if f.logit(row).to_bits() != wide {
                            return Err(format!("row {r}: fallback from layer {layer} diverged"));
                        }
                    }
                }
            }
            Ok(())
        },
    );
    // Skipped on a single-case replay (`HEIMDALL_PROP_SEED`).
    let rows = hits.get() + declines.get();
    assert!(
        rows < 256 || (hits.get() * 10 >= rows && declines.get() * 10 >= rows),
        "one-sided run: {} hits, {} declines",
        hits.get(),
        declines.get()
    );
}

/// Property 17: The training-side flush is invisible to a deployment. Zeroing
/// every parameter with `|p| < 2⁻⁶³` (what `Mlp::train` stores as `+0.0`)
/// leaves [`QuantizedMlp::quantize_paper`] bit-identical and moves f32
/// `predict` by less than 1e-12 on inputs in `[0, 1)` — over nets whose
/// parameters were replaced at random by magnitudes from zero through the
/// subnormals up to just past the threshold (so values that must survive are
/// planted too), with the rest amplified or sign-flipped.
#[test]
fn prop_flushing_tiny_parameters_is_invisible_to_quantizer_and_predict() {
    const FLUSH: f32 = 1.0 / (1u64 << 63) as f32;
    let strat = tuple3(
        u64_in(0..=1 << 40),
        u64_in(0..=3),
        tuple2(u64_in(0..=1 << 40), usize_in(1..=24)),
    );
    check(
        "prop_flushing_tiny_parameters_is_invisible_to_quantizer_and_predict",
        &Config::seeded(0x11),
        &strat,
        |&(model_seed, amp_idx, (stream_seed, rows))| {
            let amp = [1.0f32, -1.0, 4.0, 16.0][amp_idx as usize];
            let (mut mlp, _) = random_model(model_seed);
            let mut rng = Rng64::new(model_seed ^ 0x666c_7573);
            // Bit patterns below 0x2000_0000 are exactly the non-negative
            // floats below 2^-63; the extra 2^19 reach 2^-63 * (1 + 1/16).
            mlp.map_params(|p| {
                if rng.chance(0.3) {
                    let tiny = f32::from_bits(rng.below(0x2008_0000) as u32);
                    if rng.chance(0.5) {
                        -tiny
                    } else {
                        tiny
                    }
                } else {
                    p * amp
                }
            });
            let mut flushed = mlp.clone();
            let mut zeroed = 0u32;
            flushed.map_params(|p| {
                if p != 0.0 && p.abs() < FLUSH {
                    zeroed += 1;
                    0.0
                } else {
                    p
                }
            });
            if zeroed == 0 {
                return Err("no parameter was planted below the threshold".into());
            }
            let (q, qf) = (
                QuantizedMlp::quantize_paper(&mlp),
                QuantizedMlp::quantize_paper(&flushed),
            );
            if format!("{q:?}") != format!("{qf:?}") {
                return Err(format!(
                    "quantized model changed ({zeroed} zeroed, amp {amp})"
                ));
            }
            let dim = mlp.config().input_dim;
            let mut srng = Rng64::new(stream_seed);
            for r in 0..rows {
                let row: Vec<f32> = (0..dim).map(|_| srng.f32()).collect();
                let (a, b) = (mlp.predict(&row) as f64, flushed.predict(&row) as f64);
                if (a - b).abs() >= 1e-12 {
                    return Err(format!("row {r}: predict {a} vs {b} (amp {amp})"));
                }
            }
            Ok(())
        },
    );
}

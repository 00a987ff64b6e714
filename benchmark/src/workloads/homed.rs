//! `homed_heimdall` and `homed_hedging`: the §6.1 pinned light-heavy replay
//! on two replicas, once under per-device Heimdall models and once under
//! request hedging.
//!
//! Input (both): a Tencent-like 120 s trace (seed S) homed on device 0 and
//! an MSR-like 120 s trace at 2,500 IOPS (seed S+1) homed on device 1,
//! merged with `merge_homed` (~1.69 M I/Os, ~59% writes); two fresh
//! `datacenter_nvme` replicas per rep. Timed: one `replay_homed`.
//!
//! The seed draws the traffic; the replicas are the same two device
//! instances ([`RIG_SEED`]) in every run, like a test rig's hardware. A
//! device instance draws its over-provisioning headroom once, and that one
//! draw moves mean read latency by more than the traffic does (17% against
//! 6% between quartiles, measured over eight seeds each).
//!
//! * `homed_heimdall` is the online data path: one P=1 decision per read.
//!   `core::model` + `nn::quantized`/`batch` do ~90% of the work, the engine
//!   ~10%. Its models are trained in set-up on the first 30 simulated
//!   seconds of the stream, the way `train_homed` does.
//! * `homed_hedging` is the same engine with no inference: replicated
//!   writes dominate and hedge-fire events load `eventq`. It is the control
//!   on which a kernel change must show no movement, and the workload on
//!   which an engine change shows.

use super::{median, stage, summarize, Checks, Layers, Outcome, Size, Stage, Traced, Workload};
use crate::alloc;
use crate::hist::Log2Hist;
use crate::spans::Recorder;
use heimdall_cluster::replayer::{
    merge_homed, replay_homed, replay_homed_profiled, HomedRequest, ReplayProfile,
};
use heimdall_cluster::train::profile_homed_batches;
use heimdall_cluster::{fresh_devices, ReplayResult};
use heimdall_core::pipeline::{run_batch, FeatureKind, PipelineConfig, Trained};
use heimdall_core::{DeviceRuntime, OnlineAdmitter};
use heimdall_policies::{DecisionCounters, DeviceView, Hedging, HeimdallPolicy, Policy, Route};
use heimdall_ssd::DeviceConfig;
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::{IoOp, IoRequest, WorkloadProfile};
use std::hint::black_box;
use std::time::Instant;

/// Simulator seed of the two replicas (the sizing run of ISSUE 11).
const RIG_SEED: u64 = 11 ^ 0xdead;

struct Input {
    homed: Vec<HomedRequest>,
    cfgs: Vec<DeviceConfig>,
    /// One model per device; `None` under hedging.
    models: Option<Vec<Trained>>,
    reads: u64,
    writes: u64,
}

/// The `homed_heimdall` (`ml`) and `homed_hedging` workloads.
pub struct Homed {
    size: Size,
    ml: bool,
    input: Option<Input>,
}

/// What a policy saw, in order: the input of the isolated decision stream.
#[derive(Debug, Clone, Copy)]
enum Event {
    Decide {
        dev: usize,
        queue_len: u32,
        size: u32,
    },
    Complete {
        dev: usize,
        queue_len: u32,
        size: u32,
        latency_us: u64,
    },
}

/// Wraps a policy, timing every `route_read` and `on_completion` call into
/// a log2 histogram and capturing the `(queue_len, size, completion)`
/// sequence. `Policy` is an open trait, so the engine runs it unmodified.
struct SpanPolicy<P: Policy + ?Sized> {
    route: Log2Hist,
    completion: Log2Hist,
    events: Vec<Event>,
    inner: Box<P>,
}

impl<P: Policy + ?Sized> Policy for SpanPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        let dev = home.min(views.len() - 1);
        self.events.push(Event::Decide {
            dev,
            queue_len: views[dev].queue_len,
            size: req.size,
        });
        let start = Instant::now();
        let route = self.inner.route_read(req, now, views, home);
        self.route.record(start.elapsed().as_nanos() as u64);
        route
    }

    fn on_submit(&mut self, dev: usize, req: &IoRequest, now: u64) {
        self.inner.on_submit(dev, req, now);
    }

    fn on_completion(
        &mut self,
        dev: usize,
        req: &IoRequest,
        queue_len_at_arrival: u32,
        latency_us: u64,
        now: u64,
    ) {
        self.events.push(Event::Complete {
            dev,
            queue_len: queue_len_at_arrival,
            size: req.size,
            latency_us,
        });
        let start = Instant::now();
        self.inner
            .on_completion(dev, req, queue_len_at_arrival, latency_us, now);
        self.completion.record(start.elapsed().as_nanos() as u64);
    }

    fn inferences(&self) -> u64 {
        self.inner.inferences()
    }

    fn decision_counters(&self) -> Vec<DecisionCounters> {
        self.inner.decision_counters()
    }

    fn fallback_decisions(&self) -> u64 {
        self.inner.fallback_decisions()
    }
}

/// Nanoseconds per `Decide` of one level of the decision stack: the stream
/// is replayed with and without its decisions (completions keep the history
/// ring moving either way) and the difference is divided by the decisions,
/// so no clock is read inside the loop.
fn ns_per_decide<S>(
    events: &[Event],
    make: impl Fn() -> S,
    decide: impl Fn(&mut S, u32, u32),
    complete: impl Fn(&mut S, u64, u32, u32),
) -> f64 {
    let pass = |with_decides: bool| {
        let mut state = make();
        let start = Instant::now();
        for event in events {
            match *event {
                Event::Decide {
                    queue_len, size, ..
                } if with_decides => decide(&mut state, queue_len, size),
                Event::Decide { .. } => {}
                Event::Complete {
                    queue_len,
                    size,
                    latency_us,
                    ..
                } => complete(&mut state, latency_us, queue_len, size),
            }
        }
        start.elapsed().as_secs_f64()
    };
    let decides = events
        .iter()
        .filter(|e| matches!(e, Event::Decide { .. }))
        .count();
    let with = median(&[pass(true), pass(true), pass(true)]);
    let without = median(&[pass(false), pass(false), pass(false)]);
    (with - without).max(0.0) * 1e9 / decides.max(1) as f64
}

/// Replays device 0's captured decision stream through each level of the
/// decision stack in isolation, outermost first.
fn decision_stream(model: &Trained, events: &[Event], cap: usize, layers: &mut Layers) {
    // Device 0's own stream, cut after `cap` decisions.
    let mut decides = 0;
    let events: Vec<Event> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Decide { dev: 0, .. } | Event::Complete { dev: 0, .. }
            )
        })
        .take_while(|e| {
            decides += matches!(e, Event::Decide { .. }) as usize;
            decides <= cap
        })
        .copied()
        .collect();
    let FeatureKind::Spec(spec) = &model.kind else {
        unreachable!("heimdall() trains a per-I/O spec model")
    };

    layers.set(
        "core.model.decide_ns",
        ns_per_decide(
            &events,
            || OnlineAdmitter::new(model.clone()),
            |adm, q, size| {
                black_box(adm.decide(q, size));
            },
            |adm, lat, q, size| adm.on_completion(lat, q, size),
        ),
    );
    // The batched path at P=8, per member; an eighth of the stream costs
    // as much as the P=1 pass.
    let short = &events[..events.len() / 8];
    layers.set(
        "core.model.decide_members_p8_ns",
        ns_per_decide(
            short,
            || (OnlineAdmitter::new(model.clone()), Vec::with_capacity(8)),
            |(adm, out), q, size| {
                out.clear();
                adm.decide_members(q, &[size; 8], out);
                black_box(&out);
            },
            |(adm, _), lat, q, size| adm.on_completion(lat, q, size),
        ) / 8.0,
    );
    layers.set(
        "core.model.row_assembly_ns",
        ns_per_decide(
            &events,
            || DeviceRuntime::new(spec.hist_depth),
            |rt, q, size| {
                black_box(rt.raw_row(spec, q, size));
            },
            |rt, lat, q, size| rt.on_completion(lat, q, size),
        ),
    );

    // The rows the stream assembles once the ring is warm, for the levels
    // below the runtime.
    let mut runtime = DeviceRuntime::new(spec.hist_depth);
    let mut rows: Vec<f32> = Vec::new();
    for event in &events {
        match *event {
            Event::Decide {
                queue_len, size, ..
            } if runtime.warmed_up() => {
                rows.extend_from_slice(runtime.raw_row(spec, queue_len, size))
            }
            Event::Decide { .. } => {}
            Event::Complete {
                queue_len,
                size,
                latency_us,
                ..
            } => runtime.on_completion(latency_us, queue_len, size),
        }
    }
    let dim = spec.dim();
    let n = (rows.len() / dim).max(1) as f64;
    let per_row = |f: &mut dyn FnMut()| {
        median(&[(); 3].map(|()| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9 / n
        }))
    };
    let scaler = model.scaler.as_ref().expect("heimdall() scales");
    let mut scaled = rows.clone();
    // Copy first, copy-and-scale second: `scaled` is left scaled for the
    // network levels below.
    let copy_ns = per_row(&mut || scaled.copy_from_slice(&rows));
    let scale_ns = per_row(&mut || {
        scaled.copy_from_slice(&rows);
        scaled.chunks_mut(dim).for_each(|r| scaler.transform_row(r));
    });
    layers.set("nn.scaler.transform_row_ns", scale_ns - copy_ns);
    let quantized = model.quantized.as_ref().expect("heimdall() quantizes");
    layers.set(
        "nn.quantized.predict_ns",
        per_row(&mut || {
            scaled.chunks(dim).for_each(|r| {
                black_box(quantized.predict(r));
            })
        }),
    );
    layers.set(
        "nn.mlp.predict_ns",
        per_row(&mut || {
            scaled.chunks(dim).for_each(|r| {
                black_box(model.mlp.predict(r));
            })
        }),
    );
    layers.set(
        "nn.quantized.macs_per_decision",
        model.multiplications() as f64,
    );
}

impl Homed {
    /// The workload at `size`, before set-up; `ml` selects Heimdall over
    /// hedging.
    pub fn new(size: Size, ml: bool) -> Self {
        Homed {
            size,
            ml,
            input: None,
        }
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("setup runs before rep/traced")
    }

    fn policy(&self) -> Box<dyn Policy> {
        match &self.input().models {
            Some(models) => Box::new(HeimdallPolicy::new(models.clone())),
            None => Box::new(Hedging::default()),
        }
    }

    /// One replay on fresh devices: host seconds, result, allocation calls
    /// inside the engine, and the phase profile when asked for.
    fn replay(
        &self,
        policy: &mut dyn Policy,
        profiled: bool,
    ) -> (f64, ReplayResult, u64, Option<ReplayProfile>) {
        let input = self.input();
        let mut devices = fresh_devices(&input.cfgs, RIG_SEED);
        let allocs = alloc::counts().0;
        let start = Instant::now();
        let (result, profile) = if profiled {
            let (r, p) = replay_homed_profiled(&input.homed, &mut devices, policy);
            (r, Some(p))
        } else {
            (replay_homed(&input.homed, &mut devices, policy), None)
        };
        let secs = start.elapsed().as_secs_f64();
        (secs, result, alloc::counts().0 - allocs, profile)
    }

    /// Checks one replay against the generated input.
    fn outcome(&self, result: &ReplayResult, checks: &mut Checks) -> Outcome {
        let input = self.input();
        let recorded = result.reads.len() as u64;
        checks.ensure(
            recorded == input.reads && result.writes == input.writes,
            || {
                format!(
                    "replay recorded {recorded} of {} reads, {} of {} writes",
                    input.reads, result.writes, input.writes
                )
            },
        );
        checks.ensure(result.retries == 0, || {
            format!("{} reads retried on healthy devices", result.retries)
        });
        let (sim, digest) = summarize(&result.reads);
        Outcome {
            ios: input.homed.len() as u64,
            attempted: input.reads,
            failed: recorded.abs_diff(input.reads) + result.retries,
            sim,
            digest,
            details: vec![
                ("reads", input.reads as f64),
                ("writes", input.writes as f64),
                ("rerouted", result.rerouted as f64),
                ("hedges_fired", result.hedges_fired as f64),
                ("inferences", result.inferences as f64),
            ],
        }
    }
}

impl Workload for Homed {
    fn min_reps(&self) -> usize {
        3
    }

    fn setup(&mut self, seed: u64) -> Result<Vec<Stage>, String> {
        self.input = None;
        let secs = self.size.homed_secs;
        let mut stages = Vec::new();
        let (heavy, light) = stage(&mut stages, "trace.gen.seconds", || {
            (
                TraceBuilder::from_profile(WorkloadProfile::TencentLike)
                    .seed(seed)
                    .duration_secs(secs)
                    .build(),
                TraceBuilder::from_profile(WorkloadProfile::MsrLike)
                    .seed(seed.wrapping_add(1))
                    .duration_secs(secs)
                    .iops(2_500.0)
                    .build(),
            )
        });
        let homed = stage(&mut stages, "cluster.replayer.merge_seconds", || {
            merge_homed(&[&heavy, &light])
        });
        let cfgs = vec![DeviceConfig::datacenter_nvme(); 2];
        let models = if self.ml {
            let cut_us = self.size.homed_profile_secs * 1_000_000;
            let cut = homed.partition_point(|h| h.req.arrival_us < cut_us);
            let logs = stage(&mut stages, "cluster.train.profile_seconds", || {
                profile_homed_batches(&homed[..cut], &cfgs, RIG_SEED)
            });
            let pipeline = PipelineConfig::heimdall();
            let fitted: Result<Vec<Trained>, _> =
                stage(&mut stages, "cluster.train.fit_seconds", || {
                    logs.iter()
                        .map(|log| run_batch(log, &pipeline).map(|(model, _)| model))
                        .collect()
                });
            Some(fitted.map_err(|e| format!("a device's profiling log did not train: {e}"))?)
        } else {
            None
        };
        let reads = homed.iter().filter(|h| h.req.op == IoOp::Read).count() as u64;
        self.input = Some(Input {
            writes: homed.len() as u64 - reads,
            reads,
            homed,
            cfgs,
            models,
        });
        Ok(stages)
    }

    fn rep(&self, checks: &mut Checks) -> (f64, Outcome) {
        let (secs, result, _, _) = self.replay(&mut *self.policy(), false);
        (secs, self.outcome(&result, checks))
    }

    fn traced(&self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) -> Traced {
        let input = self.input();
        for name in [
            "trace.gen.seconds",
            "cluster.replayer.merge_seconds",
            "cluster.train.profile_seconds",
            "cluster.train.fit_seconds",
        ] {
            layers.set(name, rec.seconds(name));
        }
        layers.set("trace.gen.requests", input.homed.len() as f64);

        // Plain rep: the untraced timed region, allocation count, and the
        // recorder's lazy sort on the first percentile query.
        let span = rec.enter("cluster.replayer.rep_seconds");
        let (plain_secs, plain, allocs, _) = self.replay(&mut *self.policy(), false);
        rec.exit(span);
        rec.time("metrics.latency.sort_seconds", || {
            black_box(plain.reads.percentile(50.0))
        });
        let outcome = self.outcome(&plain, checks);
        layers.set("cluster.replayer.rep_seconds", plain_secs);
        layers.set("cluster.replayer.allocs", allocs as f64);
        layers.set(
            "metrics.latency.sort_seconds",
            rec.seconds("metrics.latency.sort_seconds"),
        );

        // Engine phases. The sum sits beside `rep_seconds`, not in place of
        // it: the probe reads the clock around every engine step.
        let span = rec.enter("cluster.replayer.profiled_seconds");
        let (profiled_secs, profiled, _, profile) = self.replay(&mut *self.policy(), true);
        rec.exit(span);
        let profile = profile.expect("asked for");
        layers.set("cluster.replayer.profiled_seconds", profiled_secs);
        for (name, ns) in [
            ("cluster.replayer.queue_seconds", profile.queue_ns),
            ("cluster.replayer.policy_seconds", profile.policy_ns),
            ("cluster.replayer.device_seconds", profile.device_ns),
            ("cluster.replayer.recorder_seconds", profile.recorder_ns),
        ] {
            layers.set(name, ns as f64 / 1e9);
        }
        layers.set("cluster.eventq.events", profile.events as f64);
        layers.set("cluster.replayer.decisions", profile.decisions as f64);

        // Per-call policy timings and the captured decision stream.
        let mut spanned = SpanPolicy {
            route: Log2Hist::default(),
            completion: Log2Hist::default(),
            events: Vec::with_capacity(2 * input.reads as usize),
            inner: self.policy(),
        };
        let span = rec.enter("policies.span_policy_rep");
        let (spanned_secs, wrapped, _, _) = self.replay(&mut spanned, false);
        rec.exit(span);
        for (what, result) in [("profiled", &profiled), ("span-policy", &wrapped)] {
            let digest = summarize(&result.reads).1;
            checks.ensure(digest == outcome.digest, || {
                format!(
                    "{what} rep's latency digest {digest:016x} differs from the plain rep's {:016x}",
                    outcome.digest
                )
            });
        }
        layers.set("policies.route_read.calls", spanned.route.count() as f64);
        layers.set("policies.route_read.ns_p50", spanned.route.percentile(50.0));
        layers.set(
            "policies.route_read.ns_p9999",
            spanned.route.percentile(99.99),
        );
        layers.set("policies.route_read.ns_mean", spanned.route.mean());
        layers.set(
            "policies.on_completion.calls",
            spanned.completion.count() as f64,
        );
        layers.set("policies.on_completion.ns_mean", spanned.completion.mean());
        layers.histograms = vec![
            ("policies.route_read.ns", spanned.route.to_json()),
            ("policies.on_completion.ns", spanned.completion.to_json()),
        ];

        let reads = input.reads.max(1) as f64;
        let lanes = &plain.per_device;
        let declines: u64 = lanes.iter().map(|l| l.declines).sum();
        let probe_admits: u64 = lanes.iter().map(|l| l.probe_admits).sum();
        layers.set("policies.ml.inferences", plain.inferences as f64);
        layers.set(
            "policies.ml.decline_ratio",
            declines as f64 / plain.inferences.max(1) as f64,
        );
        layers.set("policies.ml.probe_admits", probe_admits as f64);
        layers.set(
            "cluster.replayer.rerouted_ratio",
            plain.rerouted as f64 / reads,
        );
        layers.set("cluster.replayer.hedges_fired", plain.hedges_fired as f64);

        if let Some(models) = &input.models {
            let span = rec.enter("core.model.decision_stream");
            decision_stream(&models[0], &spanned.events, self.size.decision_cap, layers);
            rec.exit(span);
            layers.set("core.pipeline.model_bytes", models[0].memory_bytes() as f64);
        }
        Traced {
            instrumented_secs: spanned_secs,
            plain_secs,
            outcome,
        }
    }
}

//! The harness around a workload: set-up (repeated, median reported),
//! warm-up, timed reps for `--seconds`, output checks, and either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::host;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::workloads::{by_name, median, Checks, Layers, Outcome, Size, Workload};
use std::time::Instant;

/// Set-ups per untraced run: at least `SETUP_REPS.0`, then more while they
/// are cheap (under a second in all), up to `SETUP_REPS.1`. `setup_s` is
/// their median, so neither one page-fault storm nor the jitter of a 50 ms
/// set-up reads as a set-up regression.
const SETUP_REPS: (usize, usize) = (3, 15);

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the timed reps run for (whole reps, at least the
    /// workload's minimum).
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The declared metrics of this mode, each with its value.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Failed checks, in words.
    pub errors: Vec<String>,
    /// The result file: the above plus host fingerprint, digest, rep times.
    pub report: Json,
    /// The trace file of a traced run: spans and histograms.
    pub trace: Option<Json>,
}

impl RunResult {
    /// The one-line object the driver reads from the end of stdout.
    pub fn driver_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

fn metrics_json(metrics: &[(&'static MetricDef, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(def, value)| {
        (
            def.name,
            Json::obj([("value", Json::Num(*value)), ("unit", def.unit.into())]),
        )
    }))
}

fn seconds_json(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// Runs `args.workload` at `size`.
///
/// # Errors
///
/// Returns a message when the workload is unknown or its inputs cannot be
/// built; failed output checks come back inside the result instead.
pub fn run(args: &RunArgs, size: &Size) -> Result<RunResult, String> {
    let mut workload = by_name(&args.workload, size)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut checks = Checks::default();
    let host = host::fingerprint();
    let Measured {
        metrics,
        outcome,
        attempted,
        failed,
        extra,
        trace,
    } = if args.trace {
        traced(&mut *workload, args, &host, &mut checks)?
    } else {
        untraced(&mut *workload, args, &mut checks)?
    };
    let correct = checks.0.is_empty() && failed == 0;

    let mut report = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Int(args.seconds)),
        ("host", host),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "errors",
            Json::Arr(checks.0.iter().map(|e| e.as_str().into()).collect()),
        ),
        ("digest", format!("{:016x}", outcome.digest).into()),
        ("sim_samples", Json::Int(outcome.sim.samples as u64)),
        ("sim_read_p99_us", Json::Int(outcome.sim.p99_us)),
        ("sim_read_p9999_us", Json::Int(outcome.sim.p9999_us)),
        (
            "details",
            Json::obj(outcome.details.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
    ];
    report.extend(extra);
    report.push(("metrics", metrics_json(&metrics)));
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        errors: checks.0,
        report: Json::obj(report),
        trace,
    })
}

/// What either mode measured, before it is folded into a [`RunResult`].
struct Measured {
    metrics: Vec<(&'static MetricDef, f64)>,
    /// Outcome of the last (untraced) or the plain (traced) rep.
    outcome: Outcome,
    attempted: u64,
    failed: u64,
    /// Mode-specific fields of the result file.
    extra: Vec<(&'static str, Json)>,
    trace: Option<Json>,
}

fn untraced(
    workload: &mut dyn Workload,
    args: &RunArgs,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPS.1);
    while setup_secs.len() < SETUP_REPS.0
        || (setup_secs.len() < SETUP_REPS.1 && setup_secs.iter().sum::<f64>() < 1.0)
    {
        let start = Instant::now();
        workload.setup(args.seed)?;
        setup_secs.push(start.elapsed().as_secs_f64());
    }

    let mut outcomes: Vec<Outcome> = Vec::new();
    if workload.warmup() {
        outcomes.push(workload.rep(checks).1);
    }
    let warmups = outcomes.len();
    let mut rep_secs = Vec::new();
    let started = Instant::now();
    while rep_secs.len() < workload.min_reps() || started.elapsed().as_secs() < args.seconds {
        let (secs, outcome) = workload.rep(checks);
        rep_secs.push(secs);
        outcomes.push(outcome);
    }
    let last = outcomes.last().expect("at least one rep").clone();
    // Same input, fresh devices: every rep must produce the same samples.
    checks.ensure(outcomes.iter().all(|o| o.digest == last.digest), || {
        format!(
            "result digest differs across reps: {:?}",
            outcomes
                .iter()
                .map(|o| format!("{:016x}", o.digest))
                .collect::<Vec<_>>()
        )
    });
    let timed = &outcomes[warmups..];
    let value = |name: &str| match name {
        "setup_s" => median(&setup_secs),
        "ios_per_s" => last.ios as f64 / median(&rep_secs),
        "peak_rss_mb" => host::peak_rss_mb().unwrap_or(0.0),
        "sim_read_mean_us" => last.sim.mean_us,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Ok(Measured {
        metrics: END_TO_END
            .iter()
            .map(|def| (def, value(def.name)))
            .collect(),
        attempted: timed.iter().map(|o| o.attempted).sum(),
        failed: timed.iter().map(|o| o.failed).sum(),
        outcome: last,
        extra: vec![
            ("setup_seconds", seconds_json(&setup_secs)),
            ("rep_seconds", seconds_json(&rep_secs)),
        ],
        trace: None,
    })
}

fn traced(
    workload: &mut dyn Workload,
    args: &RunArgs,
    host: &Json,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let mut rec = Recorder::new(args.seed);
    let root = rec.enter("bench.run");
    let setup = rec.enter("bench.setup");
    for (name, start, end) in workload.setup(args.seed)? {
        rec.record(name, start, end);
    }
    rec.exit(setup);
    let mut layers = Layers::default();
    let traced = workload.traced(&mut rec, &mut layers, checks);
    rec.exit(root);

    layers.set(
        "bench.trace_overhead_ratio",
        traced.instrumented_secs / traced.plain_secs,
    );
    let sim = traced.outcome.sim;
    layers.set("metrics.latency.sim_read_p99_us", sim.p99_us as f64);
    layers.set("metrics.latency.sim_read_p9999_us", sim.p9999_us as f64);
    layers.set("metrics.latency.samples", sim.samples as f64);
    // A layer off this workload's path did no work: 0.
    let metrics = PER_LAYER
        .iter()
        .map(|def| (def, layers.values.get(def.name).copied().unwrap_or(0.0)))
        .collect();
    let trace = Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::Int(args.seed)),
        ("host", host.clone()),
        ("plain_seconds", Json::Num(traced.plain_secs)),
        ("instrumented_seconds", Json::Num(traced.instrumented_secs)),
        ("histograms", Json::obj(layers.histograms)),
        ("spans", rec.to_json()),
    ]);
    Ok(Measured {
        metrics,
        attempted: traced.outcome.attempted,
        failed: traced.outcome.failed,
        outcome: traced.outcome,
        extra: Vec::new(),
        trace: Some(trace),
    })
}

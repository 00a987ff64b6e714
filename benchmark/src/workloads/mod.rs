//! The four workloads. Each builds its inputs from the seed in `setup`,
//! runs its timed region once per `rep`, checks the outputs of every rep,
//! and attributes one instrumented pass to layers in `traced`.

pub mod homed;
pub mod pipeline_msr;
pub mod wide;

use crate::json::Json;
use crate::spans::Recorder;
use heimdall_metrics::LatencyRecorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes. The command always runs [`Size::FULL`]; there is no CLI
/// knob, so two result files of one workload always measured the same work.
#[derive(Debug, Clone)]
pub struct Size {
    /// `pipeline_msr`: simulated seconds of MSR-like trace.
    pub pipeline_secs: u64,
    /// `homed_*`: simulated seconds of each of the two traces.
    pub homed_secs: u64,
    /// `homed_heimdall`: leading simulated seconds the models are profiled on.
    pub homed_profile_secs: u64,
    /// `wide_sf10`: simulated seconds of cluster traffic (and of the OSD-0
    /// profiling log the model is trained on).
    pub wide_secs: u64,
    /// Decisions replayed by the isolated per-level decision stream.
    pub decision_cap: usize,
    /// Lowest test-half ROC-AUC `pipeline_msr` accepts.
    pub min_roc_auc: f64,
}

impl Size {
    /// The benchmark's sizes (ISSUE 11's sizing run).
    pub const FULL: Size = Size {
        pipeline_secs: 30,
        homed_secs: 120,
        homed_profile_secs: 30,
        wide_secs: 15,
        decision_cap: 200_000,
        min_roc_auc: 0.9,
    };

    /// Seconds-long inputs for the test suite: every mechanism fires, but a
    /// model trained on so little data need not reach the full-size AUC.
    #[cfg(test)]
    pub const SMOKE: Size = Size {
        pipeline_secs: 8,
        homed_secs: 10,
        homed_profile_secs: 5,
        wide_secs: 2,
        decision_cap: 5_000,
        min_roc_auc: 0.6,
    };
}

/// One set-up stage: layer name and the interval it ran in. Set-up is timed
/// with plain `Instant`s so the untraced and traced runs share the code.
pub type Stage = (&'static str, Instant, Instant);

/// Runs `f` as set-up stage `name`.
pub fn stage<R>(stages: &mut Vec<Stage>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    stages.push((name, start, Instant::now()));
    out
}

/// Median of `xs` (the upper one of an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Simulated read (or end-user request) latency of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Mean, simulated µs.
    pub mean_us: f64,
    /// 99th percentile, simulated µs.
    pub p99_us: u64,
    /// 99.99th percentile, simulated µs.
    pub p9999_us: u64,
    /// Samples behind the percentiles.
    pub samples: usize,
}

/// Summary statistics and a digest of the sorted samples. The digest lets
/// two commits be compared exactly: a change meant only to make the host
/// faster must leave it identical.
pub fn summarize(latencies: &LatencyRecorder) -> (SimStats, u64) {
    let mut sorted = latencies.samples().to_vec();
    sorted.sort_unstable();
    let mut digest = Fnv::default();
    sorted.iter().for_each(|&s| digest.u64(s));
    let stats = SimStats {
        mean_us: latencies.mean(),
        p99_us: latencies.percentile(99.0),
        p9999_us: latencies.percentile(99.99),
        samples: latencies.len(),
    };
    (stats, digest.0)
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in.
    pub fn str(&mut self, s: &str) {
        s.bytes().for_each(|b| self.u64(b as u64));
    }
}

/// What one rep produced, after its outputs were checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Work units behind `ios_per_s`: read records in the log
    /// (`pipeline_msr`), requests replayed (`homed_*`), sub-reads (`wide_sf10`).
    pub ios: u64,
    /// Operations attempted: one pipeline run, or every read/request.
    pub attempted: u64,
    /// Operations that failed: a `PipelineError`, or a read/request not
    /// recorded exactly once or retried.
    pub failed: u64,
    /// Simulated latency users of the result would see.
    pub sim: SimStats,
    /// Digest of everything deterministic in the result.
    pub digest: u64,
    /// Further deterministic values worth printing (name, value).
    pub details: Vec<(&'static str, f64)>,
}

/// What a traced run hands back besides its per-layer metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Host seconds of the timed region with the benchmark's
    /// instrumentation around it.
    pub instrumented_secs: f64,
    /// Host seconds of the same region run plain in the same process; the
    /// two give `bench.trace_overhead_ratio`.
    pub plain_secs: f64,
    /// Checked outcome of the plain rep.
    pub outcome: Outcome,
}

/// Per-layer metric values of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-call histograms for the trace file, by name.
    pub histograms: Vec<(&'static str, Json)>,
}

impl Layers {
    /// Sets per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`crate::metrics::PER_LAYER`] or
    /// is set twice — both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "{name} set twice"
        );
    }
}

/// Failed output checks, collected so one run reports all of them.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Records `message()` when `ok` is false.
    pub fn ensure(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.0.push(message());
        }
    }
}

/// A benchmark workload. All run single-threaded (`jobs = 1`) on the
/// calling thread, as batch jobs: work completed per host second at a
/// stated input size. The replays are open-loop in *simulated* time only.
pub trait Workload {
    /// Whether one rep is discarded before timing. `pipeline_msr` skips it:
    /// a rep is a ~15 s batch job with nothing lazy left to warm.
    fn warmup(&self) -> bool {
        true
    }

    /// Fewest timed reps, however short `--seconds` is.
    fn min_reps(&self) -> usize;

    /// Builds the inputs from `seed`, replacing earlier ones, and returns
    /// the stages it went through.
    ///
    /// # Errors
    ///
    /// Returns why the inputs could not be built (a model failed to train).
    fn setup(&mut self, seed: u64) -> Result<Vec<Stage>, String>;

    /// Runs the timed region once on fresh devices; returns its host
    /// seconds and the checked outcome.
    fn rep(&self, checks: &mut Checks) -> (f64, Outcome);

    /// Runs the instrumented passes after `setup` and fills `layers`.
    fn traced(&self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) -> Traced;
}

/// The workload called `name`, at `size`.
pub fn by_name(name: &str, size: &Size) -> Option<Box<dyn Workload>> {
    let size = size.clone();
    Some(match name {
        "pipeline_msr" => Box::new(pipeline_msr::PipelineMsr::new(size)),
        "homed_heimdall" => Box::new(homed::Homed::new(size, true)),
        "homed_hedging" => Box::new(homed::Homed::new(size, false)),
        "wide_sf10" => Box::new(wide::Wide::new(size)),
        _ => return None,
    })
}

/// Workload names, in the order the README lists them.
pub const NAMES: [&str; 4] = [
    "pipeline_msr",
    "homed_heimdall",
    "homed_hedging",
    "wide_sf10",
];

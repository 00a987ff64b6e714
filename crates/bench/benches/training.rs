//! Training-path benchmarks: the batched backprop kernel against the
//! per-sample reference, the scratch-based threshold tuner against the
//! rebuild-per-evaluation reference, and the two combined on a
//! fig15-style joint sweep's train stage. Writes the measured medians to
//! `results/training.run.json` so regressions show up in the recorded run
//! history: the absolute per-item cost of the shipping path (`ns_per_read`
//! for the tuner, `us_per_row` for `Mlp::train`) is the number to watch;
//! the speedup against each reference is a derived column, and it moves
//! whenever a shared routine makes both sides faster.
//!
//! The backprop lane also splits `Mlp::train` into its phases. The timers
//! live here, not in the library: this target compiles `nn/src/mlp.rs` into
//! itself as [`mlp`] to reach the crate-private `Mlp::train_with`, whose
//! callback fires as each phase of a batch ends. That copy takes the same
//! step instance as the library (AVX2 where the CPU has it), but the whole
//! step — kernels, gather, loss, optimizer step — is compiled here with the
//! timers inlined between its phases, so it is not the library's machine
//! code: read `phase_ms` as the split and `us_per_row` as the cost.

use heimdall_bench::report::RunReport;
use heimdall_bench::timing::Group;
use heimdall_bench::Json;
use heimdall_core::features::{build_dataset_view, build_joint_dataset_view, FeatureSpec};
use heimdall_core::filtering::{filter_view, FilterConfig};
use heimdall_core::labeling::{
    period_label_view, period_label_with_view, tune_thresholds_reference, tune_thresholds_view,
    tune_thresholds_with_view, LabelingScratch, PeriodThresholds,
};
use heimdall_core::{collect_batch, read_indices, ReadView, RecordBatch};
// `mlp.rs` names its siblings as `crate::activation` and `crate::data`.
use heimdall_nn::{activation, data};
use heimdall_nn::{Dataset, Mlp, MlpConfig, TrainOpts};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;
use std::hint::black_box;
use std::time::Instant;

#[path = "../../nn/src/mlp.rs"]
#[allow(dead_code)]
mod mlp;

/// The phases `Mlp::train_with` reports, in the order of the JSON columns.
const PHASES: [&str; 4] = ["forward", "delta", "gradient", "update"];

/// Milliseconds one `Mlp::train` spends in each of [`PHASES`] (forward
/// includes the batch gather, delta the loss): one `Instant` pair per phase
/// per batch, the median of `reps` runs per phase.
fn phase_ms(data: &Dataset, reps: usize) -> [f64; 4] {
    let opts = mlp::TrainOpts {
        epochs: bench_opts().epochs,
        ..mlp::TrainOpts::default()
    };
    let mut shipped = Mlp::new(MlpConfig::heimdall(data.dim), 5);
    shipped.train(data, &bench_opts());
    let mut runs = vec![[0.0f64; 4]; reps];
    for run in &mut runs {
        let mut model = mlp::Mlp::new(mlp::MlpConfig::heimdall(data.dim), 5);
        let mut last = Instant::now();
        model.train_with(data, &opts, |phase| {
            let now = Instant::now();
            let slot = PHASES
                .iter()
                .position(|&p| p == phase)
                .expect("known phase");
            run[slot] += (now - last).as_secs_f64() * 1e3;
            last = now;
        });
        assert_eq!(
            model.flat_params(),
            shipped.flat_params(),
            "the bench's copy of mlp.rs trained a different model than the library"
        );
    }
    std::array::from_fn(|p| median(runs.iter().map(|run| run[p]).collect()))
}

/// Upper median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

fn log(secs: u64) -> RecordBatch {
    let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(21)
        .duration_secs(secs)
        .build();
    let mut cfg = DeviceConfig::consumer_nvme();
    cfg.free_pool = 1 << 30;
    let mut dev = SsdDevice::new(cfg, 22);
    collect_batch(&trace, &mut dev)
}

/// A realistic training set: tuned labels, filtered, Heimdall features.
fn training_set(view: &ReadView<'_>) -> Dataset {
    let th = tune_thresholds_view(view);
    let labels = period_label_view(view, &th);
    let (keep, _) = filter_view(view, &labels, &FilterConfig::default());
    build_dataset_view(view, &labels, &keep, &FeatureSpec::heimdall(), 1).0
}

fn bench_opts() -> TrainOpts {
    TrainOpts {
        epochs: 3,
        ..TrainOpts::default()
    }
}

/// One joint-sweep cell's feature build for group width `p`.
fn build_width(view: &ReadView<'_>, labels: &[bool], keep: &[bool], p: usize) -> Dataset {
    if p <= 1 {
        build_dataset_view(view, labels, keep, &FeatureSpec::heimdall(), 1).0
    } else {
        build_joint_dataset_view(view, labels, keep, 3, p, 1).0
    }
}

/// The pre-optimization fig15 train stage: every width re-runs the
/// rebuild-per-evaluation tuner and trains sample-at-a-time.
fn joint_stage_reference(view: &ReadView<'_>, widths: &[usize], opts: &TrainOpts) {
    for &p in widths {
        let th = tune_thresholds_reference(view);
        let labels = period_label_view(view, &th);
        let (keep, _) = filter_view(view, &labels, &FilterConfig::default());
        let data = build_width(view, &labels, &keep, p);
        let mut mlp = Mlp::new(MlpConfig::heimdall(data.dim), 5);
        mlp.train_reference(&data, opts);
        black_box(mlp);
    }
}

/// The shipping fig15 train stage: every width runs the scratch-backed
/// tuner, as each cell of `joint_replay_sweep` does, and trains with
/// batched backprop.
fn joint_stage_optimized(view: &ReadView<'_>, widths: &[usize], opts: &TrainOpts) {
    for &p in widths {
        let scratch = LabelingScratch::new_view(view, PeriodThresholds::default().window_us);
        let th = tune_thresholds_with_view(view, &scratch);
        let labels = period_label_with_view(view, &th, &scratch);
        let (keep, _) = filter_view(view, &labels, &FilterConfig::default());
        let data = build_width(view, &labels, &keep, p);
        let mut mlp = Mlp::new(MlpConfig::heimdall(data.dim), 5);
        mlp.train(&data, opts);
        black_box(mlp);
    }
}

/// Wall-clock of `f`, median of `reps` runs, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times = (0..reps).map(|_| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    });
    median(times.collect())
}

fn main() {
    let batch = log(12);
    let idx = read_indices(&batch);
    let view = ReadView::Indexed {
        batch: &batch,
        idx: &idx,
    };
    let opts = bench_opts();
    let mut report = RunReport::new("training", 1);
    report.set("records", Json::from(view.len() as u64));

    // --- (a) backprop: batched kernel vs per-sample reference.
    let data = training_set(&view);
    let g = Group::new("backprop").sample_size(7);
    let batched_ns = g.bench("train_batched", || {
        let mut mlp = Mlp::new(MlpConfig::heimdall(data.dim), 5);
        mlp.train(black_box(&data), &opts);
        mlp
    });
    let reference_ns = g.bench("train_reference", || {
        let mut mlp = Mlp::new(MlpConfig::heimdall(data.dim), 5);
        mlp.train_reference(black_box(&data), &opts);
        mlp
    });
    // Whole `Mlp::train` call (all epochs) per training-set row, as the
    // benchmark's `nn.mlp.train_us_per_row`.
    let train_us_per_row = batched_ns / 1e3 / data.rows() as f64;
    println!(
        "  backprop: {train_us_per_row:.2} us/row ({} rows x {} epochs), speedup {:.2}x",
        data.rows(),
        opts.epochs,
        reference_ns / batched_ns
    );
    let phases = phase_ms(&data, 5);
    for (name, ms) in PHASES.iter().zip(phases) {
        println!("  backprop/{name:<38} {ms:>9.1} ms");
    }

    // --- (b) threshold tuner: precomputed scratch vs rebuild-per-eval.
    let g = Group::new("tuner").sample_size(7);
    let tuner_ns = g.bench("tune_thresholds", || tune_thresholds_view(black_box(&view)));
    let tuner_ref_ns = g.bench("tune_thresholds_reference", || {
        tune_thresholds_reference(black_box(&view))
    });
    let tuner_ns_per_read = tuner_ns / view.len() as f64;
    println!(
        "  tuner: {tuner_ns_per_read:.1} ns/read, speedup {:.2}x",
        tuner_ref_ns / tuner_ns
    );

    // --- (c) fig15-style joint sweep, tuner + training combined.
    let widths = [1usize, 3, 5];
    let optimized_s = median_secs(3, || joint_stage_optimized(&view, &widths, &opts));
    let reference_s = median_secs(3, || joint_stage_reference(&view, &widths, &opts));
    let joint_speedup = reference_s / optimized_s;
    println!("group: joint_train_stage");
    println!("  joint_train_stage/optimized              {optimized_s:>9.3} s");
    println!("  joint_train_stage/reference              {reference_s:>9.3} s");
    println!("  joint train-stage speedup: {joint_speedup:.2}x");

    report.push(Json::obj([
        ("lane", Json::from("backprop")),
        ("rows", Json::from(data.rows() as u64)),
        ("epochs", Json::from(opts.epochs as u64)),
        ("us_per_row", Json::from(train_us_per_row)),
        (
            "phase_ms",
            Json::obj(
                PHASES
                    .iter()
                    .zip(phases)
                    .map(|(&p, ms)| (p, Json::from(ms))),
            ),
        ),
        ("batched_ns", Json::from(batched_ns)),
        ("reference_ns", Json::from(reference_ns)),
        ("speedup", Json::from(reference_ns / batched_ns)),
    ]));
    report.push(Json::obj([
        ("lane", Json::from("tuner")),
        ("ns_per_read", Json::from(tuner_ns_per_read)),
        ("scratch_ns", Json::from(tuner_ns)),
        ("reference_ns", Json::from(tuner_ref_ns)),
        ("speedup", Json::from(tuner_ref_ns / tuner_ns)),
    ]));
    report.push(Json::obj([
        ("lane", Json::from("joint_train_stage")),
        (
            "widths",
            Json::arr(widths.iter().map(|&p| Json::from(p as u64))),
        ),
        ("optimized_seconds", Json::from(optimized_s)),
        ("reference_seconds", Json::from(reference_s)),
        ("speedup", Json::from(joint_speedup)),
    ]));
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}

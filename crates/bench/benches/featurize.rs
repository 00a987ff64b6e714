//! Columnar featurization bench lane: the fused collect→history→extract→
//! scale dataset builder against the retained row-at-a-time reference, and
//! the deterministic sharded fill against its own single-thread run.
//!
//! Lanes:
//!   (a) build    — `build_dataset_view` (compiled spec, column-streamed
//!                  fill, fused min-max stats) vs `build_dataset_reference`
//!                  (per-row `row_into` match dispatch); **gated at >= 2x**
//!                  on the median of paired per-sample ratios.
//!   (b) sharded  — the same columnar build at jobs = 4 vs jobs = 1;
//!                  **gated at >= 1.5x** when the host has >= 4 cores.
//!
//! Byte-identity is asserted unconditionally before any timing: the
//! columnar dataset (x and y, by bit pattern) must equal the reference,
//! and the jobs = 8 build must equal the jobs = 1 build.
//!
//! Medians and speedups are written to `results/featurize.run.json`.
//!
//! Usage: `cargo bench --bench featurize [-- --seed K --secs S]`

use heimdall_bench::{Args, Json, RunReport};
use heimdall_core::collect::{collect_batch, read_indices};
use heimdall_core::features::{build_dataset_reference, build_dataset_view, FeatureSpec};
use heimdall_core::labeling::{period_label_view, tune_thresholds_view};
use heimdall_core::ReadView;
use heimdall_nn::Dataset;
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;
use std::hint::black_box;
use std::time::Instant;

/// Bit patterns of a dataset's feature and label buffers — the identity
/// the parity gates compare.
fn bits(d: &Dataset) -> (Vec<u32>, Vec<u32>) {
    (
        d.x.iter().map(|v| v.to_bits()).collect(),
        d.y.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Wall-clock of `f`, median of `reps` runs, in seconds.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 23);
    let secs = args.get_u64("secs", 60);
    let mut report = RunReport::new("featurize", 1);

    // One busy profiling log, labeled the way the pipeline labels it.
    let trace = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
        .seed(seed)
        .duration_secs(secs)
        .build();
    let mut dev_cfg = DeviceConfig::consumer_nvme();
    dev_cfg.free_pool = 1 << 30;
    let mut dev = SsdDevice::new(dev_cfg, seed ^ 1);
    let batch = collect_batch(&trace, &mut dev);
    let idx = read_indices(&batch);
    let view = ReadView::Indexed {
        batch: &batch,
        idx: &idx,
    };
    // Row form of the same reads, for the reference builder only.
    let reads: Vec<_> = idx.iter().map(|&i| batch.get(i as usize)).collect();
    let th = tune_thresholds_view(&view);
    let labels = period_label_view(&view, &th);
    let keep = vec![true; reads.len()];
    let spec = FeatureSpec::full(3);
    println!("featurize input: {} reads, dim {}", reads.len(), spec.dim());

    // --- Parity gates (always, before any timing).
    let (reference, _) = build_dataset_reference(&reads, &labels, &keep, &spec);
    let (columnar, _) = build_dataset_view(&view, &labels, &keep, &spec, 1);
    assert_eq!(
        bits(&reference),
        bits(&columnar),
        "columnar build must be byte-identical to the reference"
    );
    let (sharded, _) = build_dataset_view(&view, &labels, &keep, &spec, 8);
    assert_eq!(
        bits(&columnar),
        bits(&sharded),
        "jobs=8 build must be byte-identical to jobs=1"
    );
    println!(
        "  parity: columnar == reference, jobs=8 == jobs=1 ({} rows)",
        columnar.rows()
    );

    // --- (a) columnar vs reference, paired samples: the two sides are
    // timed back-to-back and the gate uses the median of per-pair ratios,
    // so clock drift between lanes cancels out.
    let mut pairs: Vec<(f64, f64)> = (0..9)
        .map(|_| {
            let t = Instant::now();
            black_box(build_dataset_view(&view, &labels, &keep, &spec, 1));
            let new_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(build_dataset_reference(&reads, &labels, &keep, &spec));
            (new_s, t.elapsed().as_secs_f64())
        })
        .collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (new_s, ref_s) = pairs[pairs.len() / 2];
    let build_speedup = ref_s / new_s;
    println!("group: build");
    println!(
        "  build/columnar_jobs1                      {:>9.3} ms",
        new_s * 1e3
    );
    println!(
        "  build/reference                           {:>9.3} ms",
        ref_s * 1e3
    );
    println!("  build speedup: {build_speedup:.2}x (median of paired samples)");

    // --- (b) sharded fill: jobs = 4 vs jobs = 1.
    let serial_s = median_secs(5, || build_dataset_view(&view, &labels, &keep, &spec, 1));
    let parallel_s = median_secs(5, || build_dataset_view(&view, &labels, &keep, &spec, 4));
    let shard_speedup = serial_s / parallel_s;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("group: sharded");
    println!(
        "  sharded/jobs=1                            {:>9.3} ms",
        serial_s * 1e3
    );
    println!(
        "  sharded/jobs=4                            {:>9.3} ms",
        parallel_s * 1e3
    );
    println!("  shard speedup: {shard_speedup:.2}x ({cores} cores)");

    report.push(Json::obj([
        ("lane", Json::from("build")),
        ("rows", Json::from(columnar.rows() as u64)),
        ("dim", Json::from(columnar.dim as u64)),
        ("columnar_seconds", Json::from(new_s)),
        ("reference_seconds", Json::from(ref_s)),
        ("speedup", Json::from(build_speedup)),
        ("byte_identical", Json::from(true)),
    ]));
    report.push(Json::obj([
        ("lane", Json::from("sharded")),
        ("cores", Json::from(cores as u64)),
        ("serial_seconds", Json::from(serial_s)),
        ("parallel_seconds", Json::from(parallel_s)),
        ("speedup", Json::from(shard_speedup)),
        ("byte_identical", Json::from(true)),
    ]));
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }

    assert!(
        build_speedup >= 2.0,
        "columnar build speedup regressed below the 2x gate: {build_speedup:.2}x"
    );
    if cores >= 4 {
        assert!(
            shard_speedup >= 1.5,
            "sharded build speedup regressed below the 1.5x gate: {shard_speedup:.2}x"
        );
    } else {
        println!("  shard gate skipped: only {cores} cores");
    }
}

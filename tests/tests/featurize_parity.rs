//! Differential tests for the columnar featurization engine.
//!
//! The engine replaces the row-at-a-time dataset builders (a `History`
//! ring walked per record, `row_into` matched per cell) with a compiled
//! column-streaming fill over a serial promotion index. The seed paths are
//! retained as `*_reference`; everything here is bitwise: feature buffers
//! and labels compare by `f32::to_bits`, trained models by their flat
//! parameter streams.
//!
//! Every stage takes a [`ReadView`], so the second contract here is form
//! independence: the whole batch and an index projection that selects the
//! same logical log out of a decoy-padded batch must give identical
//! results. The row-form references never see a view, which is what makes
//! them the independent party.
//!
//! Covered seams:
//!   - all three builders (heimdall spec, LinnOS digitized, joint groups)
//!     against their references on a real collected trace;
//!   - sharded fills at ragged job counts against the single-shard build,
//!     for all three builders over both view forms;
//!   - `run_batch` against `run_view` over the index projection, end to
//!     end (parameters, scaler, threshold, report);
//!   - `run_view` over the batch, its read indices and an index
//!     projection of a log with writes, against `run_batch`;
//!   - tuned thresholds, labels and the noise-filter keep mask over the
//!     `read_indices` view of a log against a batch holding only its
//!     reads.

use heimdall_core::collect::{collect_batch, read_indices, ReadView, RecordBatch};
use heimdall_core::features::{
    build_dataset_reference, build_dataset_view, build_joint_dataset_reference,
    build_joint_dataset_view, build_linnos_dataset_reference, build_linnos_dataset_view,
    FeatureSpec,
};
use heimdall_core::filtering::{filter_view, FilterConfig};
use heimdall_core::labeling::{period_label_view, tune_thresholds_view};
use heimdall_core::pipeline::{run_batch, run_view, PipelineConfig, PipelineReport, Trained};
use heimdall_core::IoRecord;
use heimdall_integration::gen::ViewForms;
use heimdall_nn::Dataset;
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn collected(profile: WorkloadProfile, seed: u64, secs: u64) -> RecordBatch {
    let trace = TraceBuilder::from_profile(profile)
        .seed(seed)
        .duration_secs(secs)
        .build();
    let mut cfg = DeviceConfig::consumer_nvme();
    cfg.free_pool = 1 << 30;
    let mut dev = SsdDevice::new(cfg, seed ^ 0xfea7);
    collect_batch(&trace, &mut dev)
}

/// The reads of a log, as rows — what the `*_reference` builders take.
fn read_rows(batch: &RecordBatch) -> Vec<IoRecord> {
    read_indices(batch)
        .iter()
        .map(|&i| batch.get(i as usize))
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn assert_dataset_eq(got: &Dataset, want: &Dataset, what: &str) {
    assert_eq!(got.dim, want.dim, "{what}: dim diverged");
    assert_eq!(bits(&got.y), bits(&want.y), "{what}: labels diverged");
    assert_eq!(bits(&got.x), bits(&want.x), "{what}: features diverged");
}

/// Labeled read stream the builder tests share.
fn labeled_reads(seed: u64) -> (Vec<IoRecord>, Vec<bool>, Vec<bool>) {
    let reads = read_rows(&collected(WorkloadProfile::AlibabaLike, seed, 6));
    let batch = RecordBatch::from_records(&reads);
    let view = ReadView::from(&batch);
    let th = tune_thresholds_view(&view);
    let labels = period_label_view(&view, &th);
    // A keep mask with holes, like the filtering stage produces.
    let keep: Vec<bool> = (0..reads.len()).map(|i| i % 13 != 5).collect();
    (reads, labels, keep)
}

#[test]
fn columnar_builders_match_references_on_collected_trace() {
    let (reads, labels, keep) = labeled_reads(71);
    for (form, view) in ViewForms::of(&reads).views() {
        for spec in [
            FeatureSpec::heimdall(),
            FeatureSpec::full(3),
            FeatureSpec::with_depth(5),
        ] {
            let (want, want_src) = build_dataset_reference(&reads, &labels, &keep, &spec);
            let (got, got_src) = build_dataset_view(&view, &labels, &keep, &spec, 1);
            assert_eq!(got_src, want_src, "{form}: sources ({} cols)", spec.dim());
            assert_dataset_eq(&got, &want, &format!("{form}: heimdall builder"));
        }

        let (want, want_src) = build_linnos_dataset_reference(&reads, &labels, &keep);
        let (got, got_src) = build_linnos_dataset_view(&view, &labels, &keep, 1);
        assert_eq!(got_src, want_src, "{form}");
        assert_dataset_eq(&got, &want, &format!("{form}: linnos builder"));

        let (want, want_groups) = build_joint_dataset_reference(&reads, &labels, &keep, 3, 4);
        let (got, got_groups) = build_joint_dataset_view(&view, &labels, &keep, 3, 4, 1);
        assert_eq!(got_groups, want_groups, "{form}");
        assert_dataset_eq(&got, &want, &format!("{form}: joint builder"));
    }
}

#[test]
fn sharded_builds_are_byte_identical_at_ragged_job_counts() {
    let (reads, labels, keep) = labeled_reads(72);
    let forms = ViewForms::of(&reads);
    let [(_, whole), _] = forms.views();
    let spec = FeatureSpec::heimdall();
    let (serial, serial_src) = build_dataset_view(&whole, &labels, &keep, &spec, 1);
    let (lin1, _) = build_linnos_dataset_view(&whole, &labels, &keep, 1);
    let (joint1, _) = build_joint_dataset_view(&whole, &labels, &keep, 3, 5, 1);
    // More jobs than cores, jobs that don't divide the row count, and a
    // job count larger than some shards can hold rows for — over both
    // view forms, against the single-shard whole-batch build.
    let mut saw_ragged = false;
    for (form, view) in forms.views() {
        for jobs in [1usize, 2, 3, 5, 7, 16, 64] {
            saw_ragged |= serial.rows() % jobs != 0;
            let what = format!("{form} jobs={jobs}");
            let (sharded, sharded_src) = build_dataset_view(&view, &labels, &keep, &spec, jobs);
            assert_eq!(sharded_src, serial_src, "sources diverged at {what}");
            assert_dataset_eq(&sharded, &serial, &what);

            let (lin, _) = build_linnos_dataset_view(&view, &labels, &keep, jobs);
            assert_dataset_eq(&lin, &lin1, &format!("linnos {what}"));

            let (joint, _) = build_joint_dataset_view(&view, &labels, &keep, 3, 5, jobs);
            assert_dataset_eq(&joint, &joint1, &format!("joint {what}"));
        }
    }
    assert!(
        saw_ragged,
        "row count divided every job count; widen the set"
    );
}

fn assert_trained_eq(
    got: &(Trained, PipelineReport),
    want: &(Trained, PipelineReport),
    what: &str,
) {
    let (gm, gr) = got;
    let (wm, wr) = want;
    assert_eq!(
        gm.mlp.flat_params(),
        wm.mlp.flat_params(),
        "{what}: model parameters diverged"
    );
    assert_eq!(
        gm.threshold.to_bits(),
        wm.threshold.to_bits(),
        "{what}: threshold"
    );
    assert_eq!(gm.joint, wm.joint, "{what}: joint width");
    // A probe prediction exercises scaler + quantization end to end.
    let probe = vec![1.5f32; gr.input_dim];
    assert_eq!(
        gm.predict_raw(&probe).to_bits(),
        wm.predict_raw(&probe).to_bits(),
        "{what}: probe prediction diverged"
    );
    assert_eq!(gm.kind, wm.kind, "{what}: feature recipe");
    // `Scaler` has no `PartialEq`; its Debug rendering prints every float
    // shortest-round-trip, so equal renderings mean equal parameters.
    assert_eq!(
        format!("{:?}", gm.scaler),
        format!("{:?}", wm.scaler),
        "{what}: scaler"
    );
    // Every report field but the two wall-clock ones.
    assert_eq!(gr.metrics, wr.metrics, "{what}: metrics diverged");
    assert_eq!(gr.train_rows, wr.train_rows, "{what}: train rows");
    assert_eq!(gr.test_rows, wr.test_rows, "{what}: test rows");
    assert_eq!(gr.input_dim, wr.input_dim, "{what}: input dim");
    assert_eq!(
        gr.slow_fraction.to_bits(),
        wr.slow_fraction.to_bits(),
        "{what}: slow fraction"
    );
    assert_eq!(gr.filter_stats, wr.filter_stats, "{what}: filter stats");
    assert_eq!(
        gr.label_accuracy_vs_truth.to_bits(),
        wr.label_accuracy_vs_truth.to_bits(),
        "{what}: label accuracy"
    );
}

/// `run_batch` over a log against `run_view` over the projection that
/// selects the same log out of the decoy-padded batch.
#[test]
fn batch_pipeline_matches_slice_pipeline_end_to_end() {
    let batch = collected(WorkloadProfile::TencentLike, 73, 6);
    let forms = ViewForms::of(&batch.to_records());
    let [_, (_, projection)] = forms.views();
    for (name, cfg) in [
        ("heimdall", PipelineConfig::heimdall()),
        ("linnos", PipelineConfig::linnos_baseline()),
        ("joint", {
            let mut c = PipelineConfig::heimdall();
            c.joint = 3;
            c
        }),
    ] {
        let want = run_batch(&batch, &cfg).expect("batch pipeline trains");
        let got = run_view(&projection, &cfg).expect("projected pipeline trains");
        assert_trained_eq(&got, &want, name);
    }
}

#[test]
fn run_view_matches_run_batch_on_every_form_of_a_log_with_writes() {
    let batch = collected(WorkloadProfile::TencentLike, 76, 6);
    let reads = read_indices(&batch);
    assert!(
        reads.len() < batch.len(),
        "the log must contain writes for run_view to drop"
    );
    let cfg = PipelineConfig::heimdall();
    let want = run_batch(&batch, &cfg).expect("batch pipeline trains");

    let via_batch = run_view(&ReadView::from(&batch), &cfg).expect("trains");
    assert_trained_eq(&via_batch, &want, "batch view");
    // The reads alone, by index: what the batch holds after its write drop.
    let read_view = ReadView::Indexed {
        batch: &batch,
        idx: &reads,
    };
    let via_reads = run_view(&read_view, &cfg).expect("trains");
    assert_trained_eq(&via_reads, &want, "read-index view");
    // An index projection that still selects writes composes with the drop.
    let forms = ViewForms::of(&batch.to_records());
    let [_, (_, indexed)] = forms.views();
    let via_index = run_view(&indexed, &cfg).expect("trains");
    assert_trained_eq(&via_index, &want, "indexed view");
}

#[test]
fn read_index_view_labeling_matches_a_batch_of_the_reads() {
    // Write-heavy profile: the read-index view is exactly the path that
    // lets such traces label their reads without copying them out.
    let batch = collected(WorkloadProfile::TencentLike, 75, 5);
    let idx = read_indices(&batch);
    assert!(idx.len() < batch.len(), "the log must contain writes");
    let read_batch = RecordBatch::from_records(&read_rows(&batch));
    let whole = ReadView::Batch(&read_batch);
    let indexed = ReadView::Indexed {
        batch: &batch,
        idx: &idx,
    };

    let want_th = tune_thresholds_view(&whole);
    let want_labels = period_label_view(&whole, &want_th);
    let (want_keep, want_stats) = filter_view(&whole, &want_labels, &FilterConfig::default());
    let got_th = tune_thresholds_view(&indexed);
    assert_eq!(got_th, want_th, "tuned thresholds diverged");
    let got_labels = period_label_view(&indexed, &got_th);
    assert_eq!(got_labels, want_labels, "period labels diverged");
    let (got_keep, got_stats) = filter_view(&indexed, &got_labels, &FilterConfig::default());
    assert_eq!(got_keep, want_keep, "keep mask diverged");
    assert_eq!(got_stats, want_stats, "filter stats diverged");
}

//! Retraining for long deployments (§7).
//!
//! The paper's preliminary policy monitors model accuracy every minute and
//! retrains on the last minute of data whenever accuracy drops below 80%.
//! This module implements that monitor over a collected log, producing the
//! Fig 17 series: per-window accuracy with and without retraining, plus the
//! retraining trigger timestamps. The log is in arrival order, so every
//! training slice and monitoring window is a sub-slice of its read indices,
//! computed once per evaluation — the log itself is never copied.

use crate::collect::{read_indices, ReadView, RecordBatch};
use crate::drift::DriftDetector;
use crate::features::{
    build_dataset_view, build_joint_dataset_view, build_linnos_dataset_view, FeatureSpec,
};
use crate::pipeline::{
    label_stage_view, run_view, FeatureKind, LabelingMode, PipelineConfig, PipelineError, Trained,
};
use heimdall_metrics::ConfusionMatrix;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Retraining policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetrainConfig {
    /// Accuracy threshold below which retraining triggers (paper: 0.80).
    pub trigger_accuracy: f64,
    /// Accuracy-check cadence, microseconds (paper: 1 minute).
    pub check_interval_us: u64,
    /// Data window used for a retrain, microseconds (paper: last 1 minute).
    pub retrain_window_us: u64,
    /// Reporting window for the accuracy series, microseconds (paper: 10
    /// minutes per dot in Fig 17).
    pub report_window_us: u64,
    /// Pipeline used for the initial and retrained models.
    pub pipeline: PipelineConfig,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            trigger_accuracy: 0.80,
            check_interval_us: 60_000_000,
            retrain_window_us: 60_000_000,
            report_window_us: 600_000_000,
            pipeline: PipelineConfig::heimdall(),
        }
    }
}

/// Outcome of a long-deployment evaluation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RetrainReport {
    /// `(window_end_us, accuracy)` series.
    pub accuracy_series: Vec<(u64, f64)>,
    /// Times retraining was triggered.
    pub retrain_times_us: Vec<u64>,
    /// I/Os used per retrain.
    pub retrain_sizes: Vec<usize>,
}

impl RetrainReport {
    /// Mean accuracy over the whole deployment.
    pub fn mean_accuracy(&self) -> f64 {
        if self.accuracy_series.is_empty() {
            0.0
        } else {
            self.accuracy_series.iter().map(|&(_, a)| a).sum::<f64>()
                / self.accuracy_series.len() as f64
        }
    }

    /// Minimum windowed accuracy.
    pub fn min_accuracy(&self) -> f64 {
        self.accuracy_series
            .iter()
            .map(|&(_, a)| a)
            .fold(f64::MAX, f64::min)
            .min(1.0)
    }
}

/// Rejects a configuration whose window walk could never advance.
fn check_windows(cfg: &RetrainConfig) -> Result<(), PipelineError> {
    if cfg.check_interval_us == 0 || cfg.report_window_us == 0 {
        return Err(PipelineError::ZeroWindow);
    }
    Ok(())
}

/// The labeling configuration the accuracy monitor scores against:
/// freshly tuned period labels over the raw window, no noise filtering.
fn monitor_label_cfg(cfg: &RetrainConfig) -> PipelineConfig {
    let mut c = cfg.pipeline.clone();
    c.labeling = LabelingMode::PeriodTuned;
    c.filtering = None;
    c
}

/// The sub-slice of `reads` (the log's [`read_indices`]) that arrives in
/// `[lo_us, hi_us)`.
fn arriving<'a>(batch: &RecordBatch, reads: &'a [u32], lo_us: u64, hi_us: u64) -> &'a [u32] {
    let before = |t: u64| reads.partition_point(|&i| batch.arrival_us[i as usize] < t);
    &reads[before(lo_us)..before(hi_us)]
}

/// Scores a model's decisions against period-based labels over the reads
/// of one window; returns plain accuracy.
fn window_accuracy(
    model: &Trained,
    reads: &ReadView<'_>,
    label_cfg: &PipelineConfig,
) -> Option<f64> {
    if reads.len() < 64 {
        return None;
    }
    let labels = &label_stage_view(reads, label_cfg).labels;
    let keep = vec![true; reads.len()];
    let data = match &model.kind {
        FeatureKind::LinnosDigitized => build_linnos_dataset_view(reads, labels, &keep, 1).0,
        FeatureKind::Spec(spec) => build_dataset_view(reads, labels, &keep, spec, 1).0,
        FeatureKind::Joint { hist_depth, p } => {
            build_joint_dataset_view(reads, labels, &keep, *hist_depth, *p, 1).0
        }
    };
    if data.is_empty() {
        return None;
    }
    let scores = model.predict_dataset(&data);
    let cm = ConfusionMatrix::from_scores(&scores, &data.labels_bool(), 0.5);
    Some(cm.accuracy())
}

/// Evaluates a model trained once on the first `initial_train_us` of the
/// log, with no retraining ("First N min" lines of Fig 17a).
///
/// # Errors
///
/// [`PipelineError::ZeroWindow`] on a zero check interval or report window;
/// otherwise propagates [`PipelineError`] from the initial training run.
pub fn evaluate_static(
    batch: &RecordBatch,
    initial_train_us: u64,
    cfg: &RetrainConfig,
) -> Result<RetrainReport, PipelineError> {
    check_windows(cfg)?;
    let reads = read_indices(batch);
    let start = batch.arrival_us.first().copied().unwrap_or(0);
    let idx = arriving(batch, &reads, 0, start + initial_train_us);
    let (model, _) = run_view(&ReadView::Indexed { batch, idx }, &cfg.pipeline)?;
    let label_cfg = monitor_label_cfg(cfg);
    let mut report = RetrainReport::default();
    each_window(batch, &reads, cfg.report_window_us, |end, idx| {
        let window = ReadView::Indexed { batch, idx };
        if let Some(acc) = window_accuracy(&model, &window, &label_cfg) {
            report.accuracy_series.push((end, acc));
        }
    });
    Ok(report)
}

/// Evaluates the accuracy-triggered retraining policy ("Retrain" line of
/// Fig 17b). The model starts from the first check interval of data and is
/// retrained on the trailing [`RetrainConfig::retrain_window_us`] whenever
/// the per-interval accuracy falls below the trigger.
///
/// # Errors
///
/// As [`evaluate_static`].
pub fn evaluate_retraining(
    batch: &RecordBatch,
    cfg: &RetrainConfig,
) -> Result<RetrainReport, PipelineError> {
    let below = |acc: Option<f64>| acc.is_some_and(|a| a < cfg.trigger_accuracy);
    monitor(batch, cfg, |_| {}, |_, acc| below(acc))
}

/// Evaluates *drift-triggered* retraining (the proactive alternative the
/// paper's §7 sketches): instead of waiting for labeled accuracy to drop,
/// a [`DriftDetector`] watches the deployed feature distribution and
/// triggers a retrain when the window's PSI crosses the significance
/// threshold. No labels are needed between retrains.
///
/// # Errors
///
/// As [`evaluate_static`].
pub fn evaluate_drift_retraining(
    batch: &RecordBatch,
    cfg: &RetrainConfig,
) -> Result<RetrainReport, PipelineError> {
    let detector = RefCell::new(None);
    monitor(
        batch,
        cfg,
        |trained_on| *detector.borrow_mut() = DriftDetector::fit(&drift_rows(trained_on)),
        |window, _| {
            let mut detector = detector.borrow_mut();
            let Some(det) = detector.as_mut() else {
                return false;
            };
            let rows = drift_rows(window);
            for i in 0..rows.rows() {
                det.observe(rows.row(i));
            }
            det.drifted()
        },
    )
}

/// The feature rows the drift detector works on, for its reference and for
/// every observation alike: Heimdall's layout over a window's *reads* —
/// what the model trains on and what a deployed admitter, which hears read
/// completions only, sees.
fn drift_rows(reads: &ReadView<'_>) -> heimdall_nn::Dataset {
    let (labels, keep) = (vec![false; reads.len()], vec![true; reads.len()]);
    build_dataset_view(reads, &labels, &keep, &FeatureSpec::heimdall(), 1).0
}

/// The loop both retraining policies share. Trains on the first check
/// interval, then walks the log in check intervals: scores the deployed
/// model on each (reporting the mean per report window) and, when
/// `trigger` says so, retrains on the trailing
/// [`RetrainConfig::retrain_window_us`]. `trigger` gets each interval's
/// reads and accuracy (`None` under 64 reads); `deployed` gets the reads
/// every deployed model — the initial one included — was trained on.
fn monitor(
    batch: &RecordBatch,
    cfg: &RetrainConfig,
    mut deployed: impl FnMut(&ReadView<'_>),
    mut trigger: impl FnMut(&ReadView<'_>, Option<f64>) -> bool,
) -> Result<RetrainReport, PipelineError> {
    check_windows(cfg)?;
    let reads = read_indices(batch);
    let start = batch.arrival_us.first().copied().unwrap_or(0);
    let idx = arriving(batch, &reads, 0, start + cfg.check_interval_us);
    let initial = ReadView::Indexed { batch, idx };
    let (mut model, _) = run_view(&initial, &cfg.pipeline)?;
    deployed(&initial);
    let label_cfg = monitor_label_cfg(cfg);
    let mut report = RetrainReport::default();

    let mean = |accs: &[f64]| accs.iter().sum::<f64>() / accs.len() as f64;
    let mut report_acc: Vec<f64> = Vec::new();
    let mut report_end = start + cfg.report_window_us;
    each_window(batch, &reads, cfg.check_interval_us, |end, idx| {
        let window = ReadView::Indexed { batch, idx };
        let acc = window_accuracy(&model, &window, &label_cfg);
        if let Some(acc) = acc {
            report_acc.push(acc);
            if end >= report_end {
                report.accuracy_series.push((end, mean(&report_acc)));
                report_acc.clear();
                report_end = end + cfg.report_window_us;
            }
        }
        if trigger(&window, acc) {
            let lo = end.saturating_sub(cfg.retrain_window_us);
            let idx = arriving(batch, &reads, lo, end);
            let trailing = ReadView::Indexed { batch, idx };
            if let Ok((m, _)) = run_view(&trailing, &cfg.pipeline) {
                model = m;
                report.retrain_times_us.push(end);
                // I/Os the window held, writes included.
                let before = |t: u64| batch.arrival_us.partition_point(|&a| a < t);
                report.retrain_sizes.push(before(end) - before(lo));
                deployed(&trailing);
            }
        }
    });
    if !report_acc.is_empty() {
        report.accuracy_series.push((report_end, mean(&report_acc)));
    }
    Ok(report)
}

/// Walks the records `idx` selects out of `batch` in consecutive windows of
/// `width_us`, anchored at the log's first arrival, handing the callback
/// each non-empty window's end time and sub-slice of `idx`. Windows in
/// which nothing selected arrives are skipped, not reported empty.
fn each_window<F: FnMut(u64, &[u32])>(batch: &RecordBatch, idx: &[u32], width_us: u64, mut f: F) {
    let Some(&start) = batch.arrival_us.first() else {
        return;
    };
    let mut end = start + width_us;
    let mut lo = 0;
    while lo < idx.len() {
        let first = batch.arrival_us[idx[lo] as usize];
        if first >= end {
            end += ((first - end) / width_us + 1) * width_us;
        }
        let len = idx[lo..].partition_point(|&i| batch.arrival_us[i as usize] < end);
        f(end, &idx[lo..lo + len]);
        lo += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_batch, IoRecord};
    use crate::features::build_dataset_reference;
    use heimdall_ssd::{DeviceConfig, SsdDevice};
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::WorkloadProfile;

    fn long_records(secs: u64) -> RecordBatch {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(31)
            .duration_secs(secs)
            .build();
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30;
        let mut dev = SsdDevice::new(cfg, 32);
        collect_batch(&trace, &mut dev)
    }

    fn quick_cfg() -> RetrainConfig {
        // Compressed timeline for tests: 5-second checks, 20-second reports.
        RetrainConfig {
            check_interval_us: 5_000_000,
            retrain_window_us: 5_000_000,
            report_window_us: 20_000_000,
            trigger_accuracy: 0.80,
            ..Default::default()
        }
    }

    #[test]
    fn static_evaluation_produces_series() {
        let records = long_records(60);
        let report = evaluate_static(&records, 10_000_000, &quick_cfg()).unwrap();
        assert!(!report.accuracy_series.is_empty());
        for &(_, acc) in &report.accuracy_series {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn retraining_evaluation_runs() {
        let records = long_records(60);
        let report = evaluate_retraining(&records, &quick_cfg()).unwrap();
        assert!(!report.accuracy_series.is_empty());
        assert_eq!(report.retrain_times_us.len(), report.retrain_sizes.len());
    }

    #[test]
    fn retraining_never_hurts_mean_accuracy_much() {
        let records = long_records(90);
        let cfg = quick_cfg();
        let static_rep = evaluate_static(&records, cfg.check_interval_us, &cfg).unwrap();
        let retrain_rep = evaluate_retraining(&records, &cfg).unwrap();
        assert!(
            retrain_rep.mean_accuracy() >= static_rep.mean_accuracy() - 0.05,
            "retrain {} vs static {}",
            retrain_rep.mean_accuracy(),
            static_rep.mean_accuracy()
        );
    }

    #[test]
    fn drift_retraining_evaluation_runs() {
        let records = long_records(60);
        let report = evaluate_drift_retraining(&records, &quick_cfg()).unwrap();
        assert!(!report.accuracy_series.is_empty());
        for &(_, acc) in &report.accuracy_series {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    /// `(end, len)` of every window [`each_window`] reports.
    fn windows(batch: &RecordBatch, idx: &[u32], width_us: u64) -> Vec<(u64, usize)> {
        let mut seen = Vec::new();
        each_window(batch, idx, width_us, |end, w| seen.push((end, w.len())));
        seen
    }

    #[test]
    fn windows_partition_records() {
        let records = long_records(30);
        let all: Vec<u32> = (0..records.len() as u32).collect();
        // Pinned from the row-form walk this one replaced. The log opens
        // with a write at 154 us: windows stay anchored there when the
        // walk is over the reads alone.
        let ends = [7_000_154, 14_000_154, 21_000_154, 28_000_154, 35_000_154];
        let sizes = [77_194, 63_280, 107_611, 85_414, 18_069];
        let reads = [25_444, 20_978, 35_539, 28_261, 5_976];
        assert_eq!(sizes.iter().sum::<usize>(), records.len());
        assert_eq!(
            windows(&records, &all, 7_000_000),
            ends.into_iter().zip(sizes).collect::<Vec<_>>()
        );
        assert_eq!(
            windows(&records, &read_indices(&records), 7_000_000),
            ends.into_iter().zip(reads).collect::<Vec<_>>()
        );
        // Consecutive windows are contiguous sub-slices of the index list.
        let mut next = 0u32;
        each_window(&records, &all, 7_000_000, |_, w| {
            assert!(w.iter().copied().eq(next..next + w.len() as u32));
            next += w.len() as u32;
        });
        assert_eq!(next as usize, records.len());
    }

    #[test]
    fn an_arrival_gap_yields_no_empty_window() {
        let at = |arrival_us| IoRecord {
            arrival_us,
            finish_us: arrival_us + 10,
            size: 4096,
            op: heimdall_trace::IoOp::Read,
            queue_len: 0,
            latency_us: 10,
            throughput: 409.6,
            truth_busy: false,
        };
        // Three arrivals in the first window, then silence for three and a
        // half widths, then one exactly on a window boundary.
        let batch = RecordBatch::from_records(&[at(5), at(6), at(104), at(460), at(505)]);
        let all: Vec<u32> = (0..5).collect();
        assert_eq!(
            windows(&batch, &all, 100),
            vec![(105, 3), (505, 1), (605, 1)]
        );
        assert!(windows(&RecordBatch::new(), &[], 100).is_empty());
        assert!(windows(&batch, &[], 100).is_empty());
    }

    #[test]
    fn a_log_with_writes_does_not_drift_from_itself() {
        // Regression: the detector's reference was built over the full
        // window (write completions in the history ring) while every check
        // fed it rows built over the window's reads, so a log read as
        // drifted from itself (PSI >= 0.25 on every check interval of
        // Fig 17). The observing side here is the row-form reference
        // builder over the reads — what a deployed admitter sees.
        let batch = long_records(10);
        let idx = read_indices(&batch);
        assert!(
            (batch.len() - idx.len()) * 4 >= batch.len(),
            "needs >= 25% writes"
        );
        let reads = ReadView::Indexed {
            batch: &batch,
            idx: &idx,
        };
        let mut det = DriftDetector::fit(&drift_rows(&reads)).unwrap();
        let rows: Vec<_> = idx.iter().map(|&i| batch.get(i as usize)).collect();
        let (labels, keep) = (vec![false; rows.len()], vec![true; rows.len()]);
        let (seen, _) = build_dataset_reference(&rows, &labels, &keep, &FeatureSpec::heimdall());
        for i in 0..seen.rows() {
            det.observe(seen.row(i));
        }
        assert!(det.psi() < DriftDetector::SIGNIFICANT, "psi {}", det.psi());
        assert!(!det.drifted());
    }

    #[test]
    fn zero_width_windows_are_a_typed_error() {
        // The walk used to spin forever on `end += 0`.
        let records = long_records(5);
        for (check, report) in [(0, 20_000_000), (5_000_000, 0)] {
            let cfg = RetrainConfig {
                check_interval_us: check,
                report_window_us: report,
                ..quick_cfg()
            };
            let zero = Err(PipelineError::ZeroWindow);
            assert_eq!(evaluate_static(&records, 1_000_000, &cfg).map(|_| ()), zero);
            assert_eq!(evaluate_retraining(&records, &cfg).map(|_| ()), zero);
            assert_eq!(evaluate_drift_retraining(&records, &cfg).map(|_| ()), zero);
        }
    }

    #[test]
    fn report_helpers() {
        let mut r = RetrainReport::default();
        assert_eq!(r.mean_accuracy(), 0.0);
        r.accuracy_series.push((1, 0.9));
        r.accuracy_series.push((2, 0.7));
        assert!((r.mean_accuracy() - 0.8).abs() < 1e-12);
        assert!((r.min_accuracy() - 0.7).abs() < 1e-12);
    }
}

//! Retraining for long deployments (§7).
//!
//! The paper's preliminary policy monitors model accuracy every minute and
//! retrains on the last minute of data whenever accuracy drops below 80%.
//! This module implements that monitor over a stream of collected records,
//! producing the Fig 17 series: per-window accuracy with and without
//! retraining, plus the retraining trigger timestamps.

use crate::collect::{IoRecord, ReadView};
use crate::features::{build_dataset_view, build_joint_dataset_view, build_linnos_dataset_view};
use crate::pipeline::{
    cached_label_stage, run_view, with_reads, FeatureKind, LabelingMode, PipelineConfig,
    PipelineError, Trained,
};
use crate::stage_cache::StageCache;
use heimdall_metrics::ConfusionMatrix;
use serde::{Deserialize, Serialize};

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

/// Scores a model's decisions against period-based labels over `records`
/// (reads only); returns plain accuracy. Several evaluations monitor the
/// same windows, so the tuned window labels go through the shared cache
/// when one is provided.
fn window_accuracy(
    model: &Trained,
    records: &[IoRecord],
    label_cfg: &PipelineConfig,
    cache: Option<&StageCache>,
) -> Option<f64> {
    with_reads(&ReadView::from(records), |reads| {
        if reads.len() < 64 {
            return None;
        }
        let la = cached_label_stage(reads, label_cfg, cache);
        let labels = &la.labels;
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
    })
}

/// Evaluates a model trained once on the first `initial_train_us` of the
/// stream, with no retraining ("First N min" lines of Fig 17a).
///
/// Training and window labeling are served through `cache` when one is
/// given: concurrent evaluations over the same stream (the Fig 17 panel)
/// tune and label each training slice and each monitoring window once.
/// Reports are identical with or without a cache.
///
/// # Errors
///
/// [`PipelineError::ZeroWindow`] on a zero check interval or report window;
/// otherwise propagates [`PipelineError`] from the initial training run.
pub fn evaluate_static(
    records: &[IoRecord],
    initial_train_us: u64,
    cfg: &RetrainConfig,
    cache: Option<&StageCache>,
) -> Result<RetrainReport, PipelineError> {
    check_windows(cfg)?;
    let start = records.first().map_or(0, |r| r.arrival_us);
    let train_slice: Vec<IoRecord> = records
        .iter()
        .copied()
        .filter(|r| r.arrival_us < start + initial_train_us)
        .collect();
    let (model, _) = run_view(&ReadView::from(&train_slice), &cfg.pipeline, cache)?;
    let label_cfg = monitor_label_cfg(cfg);
    let mut report = RetrainReport::default();
    each_window(records, cfg.report_window_us, |end, window| {
        if let Some(acc) = window_accuracy(&model, window, &label_cfg, cache) {
            report.accuracy_series.push((end, acc));
        }
    });
    Ok(report)
}

/// Evaluates the accuracy-triggered retraining policy ("Retrain" line of
/// Fig 17b). The model starts from the first check interval of data and is
/// retrained on the trailing [`RetrainConfig::retrain_window_us`] whenever
/// the per-interval accuracy falls below the trigger. `cache` is as for
/// [`evaluate_static`].
///
/// # Errors
///
/// As [`evaluate_static`].
pub fn evaluate_retraining(
    records: &[IoRecord],
    cfg: &RetrainConfig,
    cache: Option<&StageCache>,
) -> Result<RetrainReport, PipelineError> {
    check_windows(cfg)?;
    let start = records.first().map_or(0, |r| r.arrival_us);
    let initial: Vec<IoRecord> = records
        .iter()
        .copied()
        .filter(|r| r.arrival_us < start + cfg.check_interval_us)
        .collect();
    let (mut model, _) = run_view(&ReadView::from(&initial), &cfg.pipeline, cache)?;
    let label_cfg = monitor_label_cfg(cfg);
    let mut report = RetrainReport::default();

    // Walk in check intervals; report accuracy over report windows.
    let mut report_acc: Vec<f64> = Vec::new();
    let mut report_end = start + cfg.report_window_us;
    each_window(records, cfg.check_interval_us, |end, window| {
        let Some(acc) = window_accuracy(&model, window, &label_cfg, cache) else {
            return;
        };
        report_acc.push(acc);
        if end >= report_end {
            let mean = report_acc.iter().sum::<f64>() / report_acc.len() as f64;
            report.accuracy_series.push((end, mean));
            report_acc.clear();
            report_end = end + cfg.report_window_us;
        }
        if acc < cfg.trigger_accuracy {
            // Retrain on the trailing window.
            let lo = end.saturating_sub(cfg.retrain_window_us);
            let slice: Vec<IoRecord> = records
                .iter()
                .copied()
                .filter(|r| r.arrival_us >= lo && r.arrival_us < end)
                .collect();
            if let Ok((m, _)) = run_view(&ReadView::from(&slice), &cfg.pipeline, cache) {
                model = m;
                report.retrain_times_us.push(end);
                report.retrain_sizes.push(slice.len());
            }
        }
    });
    if !report_acc.is_empty() {
        let mean = report_acc.iter().sum::<f64>() / report_acc.len() as f64;
        report.accuracy_series.push((report_end, mean));
    }
    Ok(report)
}

/// Evaluates *drift-triggered* retraining (the proactive alternative the
/// paper's §7 sketches): instead of waiting for labeled accuracy to drop,
/// a [`DriftDetector`](crate::drift::DriftDetector) watches the deployed
/// feature distribution and triggers a retrain when the window's PSI
/// crosses the significance threshold. No labels are needed between
/// retrains. `cache` is as for [`evaluate_static`].
///
/// # Errors
///
/// As [`evaluate_static`].
pub fn evaluate_drift_retraining(
    records: &[IoRecord],
    cfg: &RetrainConfig,
    cache: Option<&StageCache>,
) -> Result<RetrainReport, PipelineError> {
    use crate::drift::DriftDetector;
    use crate::features::FeatureSpec;

    check_windows(cfg)?;
    let start = records.first().map_or(0, |r| r.arrival_us);
    let initial: Vec<IoRecord> = records
        .iter()
        .copied()
        .filter(|r| r.arrival_us < start + cfg.check_interval_us)
        .collect();
    let (mut model, _) = run_view(&ReadView::from(&initial), &cfg.pipeline, cache)?;
    let spec = FeatureSpec::heimdall();
    let mut detector = DriftDetector::fit_from_records(&initial, &spec);

    let label_cfg = monitor_label_cfg(cfg);
    let mut report = RetrainReport::default();
    let mut report_acc: Vec<f64> = Vec::new();
    let mut report_end = start + cfg.report_window_us;
    each_window(records, cfg.check_interval_us, |end, window| {
        if let Some(acc) = window_accuracy(&model, window, &label_cfg, cache) {
            report_acc.push(acc);
            if end >= report_end {
                let mean = report_acc.iter().sum::<f64>() / report_acc.len() as f64;
                report.accuracy_series.push((end, mean));
                report_acc.clear();
                report_end = end + cfg.report_window_us;
            }
        }
        // Feed this interval's feature rows to the detector.
        let reads: Vec<IoRecord> = window.iter().copied().filter(IoRecord::is_read).collect();
        let labels = vec![false; reads.len()];
        let keep = vec![true; reads.len()];
        let (data, _) = build_dataset_view(&ReadView::from(&reads), &labels, &keep, &spec, 1);
        if let Some(det) = detector.as_mut() {
            for i in 0..data.rows() {
                det.observe(data.row(i));
            }
            if det.drifted() {
                let lo = end.saturating_sub(cfg.retrain_window_us);
                let slice: Vec<IoRecord> = records
                    .iter()
                    .copied()
                    .filter(|r| r.arrival_us >= lo && r.arrival_us < end)
                    .collect();
                if let Ok((m, _)) = run_view(&ReadView::from(&slice), &cfg.pipeline, cache) {
                    model = m;
                    report.retrain_times_us.push(end);
                    report.retrain_sizes.push(slice.len());
                    detector = DriftDetector::fit_from_records(&slice, &spec);
                }
            }
        }
    });
    if !report_acc.is_empty() {
        let mean = report_acc.iter().sum::<f64>() / report_acc.len() as f64;
        report.accuracy_series.push((report_end, mean));
    }
    Ok(report)
}

/// Iterates `records` in consecutive windows of `width_us`, invoking the
/// callback with each non-empty window.
fn each_window<F: FnMut(u64, &[IoRecord])>(records: &[IoRecord], width_us: u64, mut f: F) {
    if records.is_empty() {
        return;
    }
    let start = records[0].arrival_us;
    let mut lo_idx = 0usize;
    let mut end = start + width_us;
    for i in 0..=records.len() {
        let past = i == records.len() || records[i].arrival_us >= end;
        if past {
            if i > lo_idx {
                f(end, &records[lo_idx..i]);
            }
            lo_idx = i;
            if i == records.len() {
                break;
            }
            while records[i].arrival_us >= end {
                end += width_us;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect;
    use heimdall_ssd::{DeviceConfig, SsdDevice};
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::WorkloadProfile;

    fn long_records(secs: u64) -> Vec<IoRecord> {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(31)
            .duration_secs(secs)
            .build();
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30;
        let mut dev = SsdDevice::new(cfg, 32);
        collect(&trace, &mut dev)
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
        let report = evaluate_static(&records, 10_000_000, &quick_cfg(), None).unwrap();
        assert!(!report.accuracy_series.is_empty());
        for &(_, acc) in &report.accuracy_series {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn retraining_evaluation_runs() {
        let records = long_records(60);
        let report = evaluate_retraining(&records, &quick_cfg(), None).unwrap();
        assert!(!report.accuracy_series.is_empty());
        assert_eq!(report.retrain_times_us.len(), report.retrain_sizes.len());
    }

    #[test]
    fn retraining_never_hurts_mean_accuracy_much() {
        let records = long_records(90);
        let cfg = quick_cfg();
        let static_rep = evaluate_static(&records, cfg.check_interval_us, &cfg, None).unwrap();
        let retrain_rep = evaluate_retraining(&records, &cfg, None).unwrap();
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
        let report = evaluate_drift_retraining(&records, &quick_cfg(), None).unwrap();
        assert!(!report.accuracy_series.is_empty());
        for &(_, acc) in &report.accuracy_series {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn cached_evaluations_match_uncached() {
        let records = long_records(60);
        let cfg = quick_cfg();
        let cache = StageCache::new();
        let plain = evaluate_retraining(&records, &cfg, None).unwrap();
        let cached = evaluate_retraining(&records, &cfg, Some(&cache)).unwrap();
        assert_eq!(plain.accuracy_series, cached.accuracy_series);
        assert_eq!(plain.retrain_times_us, cached.retrain_times_us);
        assert_eq!(plain.retrain_sizes, cached.retrain_sizes);
        assert!(cache.misses() > 0, "cache was never consulted");

        let s_plain = evaluate_static(&records, 10_000_000, &cfg, None).unwrap();
        let s_shared = evaluate_static(&records, 10_000_000, &cfg, Some(&cache)).unwrap();
        assert_eq!(s_plain.accuracy_series, s_shared.accuracy_series);
    }

    #[test]
    fn windows_partition_records() {
        let records = long_records(30);
        let mut counted = 0;
        each_window(&records, 7_000_000, |_, w| counted += w.len());
        assert_eq!(counted, records.len());
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
            assert_eq!(
                evaluate_static(&records, 1_000_000, &cfg, None).map(|_| ()),
                zero
            );
            assert_eq!(evaluate_retraining(&records, &cfg, None).map(|_| ()), zero);
            assert_eq!(
                evaluate_drift_retraining(&records, &cfg, None).map(|_| ()),
                zero
            );
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

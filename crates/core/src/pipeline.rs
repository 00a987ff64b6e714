//! The end-to-end Heimdall training pipeline (Fig 1), with every stage
//! independently switchable so the Fig 14 ablation can replay the paper's
//! step-by-step construction: basic labeling (LB) → feature scaling (FC) →
//! accurate labeling (LA) → feature extraction (FE) → feature selection
//! (FS) → model engineering (M) → noise filtering (LN).

use crate::collect::{read_indices, ReadView, RecordBatch};
use crate::features::{
    build_dataset_stats, build_dataset_view, build_joint_dataset_view, build_linnos_dataset_view,
    select_features, FeatureSpec,
};
use crate::filtering::{filter_view, FilterConfig, FilterStats};
use crate::labeling::{
    cutoff_label_view, labeling_accuracy_view, period_label_view, period_label_with_view,
    tune_thresholds_with_view, LabelingScratch, PeriodThresholds,
};
use heimdall_metrics::MetricReport;
use heimdall_nn::{
    BatchScratch, ColumnStats, Dataset, Mlp, MlpConfig, QuantizedMlp, Scaler, ScalerKind, TrainOpts,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Labeling stage selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LabelingMode {
    /// Latency-cutoff labeling (prior work; "LB").
    Cutoff,
    /// Period-based labeling with default thresholds.
    Period,
    /// Period-based labeling with gradient-descent-tuned thresholds ("LA").
    PeriodTuned,
    /// Period-based labeling with explicit thresholds.
    PeriodWith(PeriodThresholds),
}

/// Feature stage selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureMode {
    /// LinnOS' 31 digitized inputs (implies no scaler).
    LinnosDigitized,
    /// LinnOS' raw 9 features (queue length + 4 hist qlen + 4 hist lat).
    LinnosRaw,
    /// Heimdall's layout at historical depth N (the paper uses 3).
    HeimdallDepth(usize),
    /// Every candidate feature at depth N (pre-selection).
    Full(usize),
    /// An explicit spec.
    Custom(FeatureSpec),
}

/// Model-architecture selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelArch {
    /// LinnOS: one 256-neuron hidden layer, 2-neuron softmax output.
    Linnos,
    /// Heimdall: 128 + 16 ReLU hidden layers, sigmoid output (Fig 9f).
    Heimdall,
    /// Explicit architecture.
    Custom(MlpConfig),
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Labeling stage.
    pub labeling: LabelingMode,
    /// Noise filter; `None` disables filtering.
    pub filtering: Option<FilterConfig>,
    /// Feature extraction.
    pub features: FeatureMode,
    /// Correlation-based feature selection threshold; `None` keeps all.
    pub select_min_corr: Option<f64>,
    /// Feature scaling; `None` feeds raw values (digitized features always
    /// skip scaling).
    pub scaling: Option<ScalerKind>,
    /// Network architecture.
    pub arch: ModelArch,
    /// Training options.
    pub train: TrainOpts,
    /// Train fraction of the chronological split (paper: 0.5, §6).
    pub split: f64,
    /// Joint-inference group size; `1` = per-I/O (§4.2).
    pub joint: usize,
    /// Calibrate the decision threshold on the training half (part of
    /// Heimdall's fine-grained tuning stage). The LinnOS baseline keeps the
    /// original fixed 0.5 operating point.
    pub calibrate: bool,
    /// Seed for training/shuffling.
    pub seed: u64,
}

impl PipelineConfig {
    /// The full Heimdall pipeline as evaluated in §6.
    pub fn heimdall() -> Self {
        PipelineConfig {
            labeling: LabelingMode::PeriodTuned,
            filtering: Some(FilterConfig::default()),
            features: FeatureMode::HeimdallDepth(3),
            select_min_corr: None,
            scaling: Some(ScalerKind::MinMax),
            arch: ModelArch::Heimdall,
            train: TrainOpts::default(),
            split: 0.5,
            joint: 1,
            calibrate: true,
            seed: 0,
        }
    }

    /// The LinnOS baseline: digitized per-I/O features, cutoff labels,
    /// 256-wide softmax network, no filtering.
    pub fn linnos_baseline() -> Self {
        PipelineConfig {
            labeling: LabelingMode::Cutoff,
            filtering: None,
            features: FeatureMode::LinnosDigitized,
            select_min_corr: None,
            scaling: None,
            arch: ModelArch::Linnos,
            train: TrainOpts::default(),
            split: 0.5,
            joint: 1,
            calibrate: false,
            seed: 0,
        }
    }
}

/// Errors the pipeline can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// No records to work with.
    NoRecords,
    /// Feature extraction produced no rows (trace shorter than warmup).
    NoRows,
    /// A split side ended up empty.
    EmptySplit,
    /// A monitoring window of zero width (see
    /// [`RetrainConfig`](crate::retrain::RetrainConfig)): the window walk
    /// could never advance.
    ZeroWindow,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoRecords => write!(f, "no input records"),
            PipelineError::NoRows => write!(f, "feature extraction produced no rows"),
            PipelineError::EmptySplit => write!(f, "train/test split produced an empty side"),
            PipelineError::ZeroWindow => write!(f, "check interval and report window must be > 0"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// How a trained model expects its inputs to be built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Raw features per `spec`, optionally scaled.
    Spec(FeatureSpec),
    /// LinnOS' 31 digitized inputs.
    LinnosDigitized,
    /// Joint/group features (§4.2): shared history of depth `hist_depth`
    /// plus `p` member sizes.
    Joint {
        /// Shared pre-group history depth.
        hist_depth: usize,
        /// Group size.
        p: usize,
    },
}

/// A deployable trained admission model: feature recipe + scaler + both the
/// f32 network (kept for retraining) and the quantized deployment network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trained {
    /// Input recipe.
    pub kind: FeatureKind,
    /// Fitted scaler (absent for digitized inputs / unscaled runs).
    pub scaler: Option<Scaler>,
    /// Full-precision network.
    pub mlp: Mlp,
    /// Quantized deployment network (§4.1); absent when the architecture
    /// is not integer-quantizable (sigmoid/tanh hidden layers) — the f32
    /// network serves predictions then.
    pub quantized: Option<QuantizedMlp>,
    /// Joint-inference group size this model was trained for.
    pub joint: usize,
    /// Decision threshold calibrated on the training half (part of the
    /// fine-grained tuning stage): with heavily imbalanced labels the raw
    /// sigmoid output is poorly calibrated around 0.5, so the operating
    /// point is chosen to maximize balanced accuracy on the training data.
    pub threshold: f32,
}

impl Trained {
    /// Builds a safe *always-admit* model for a device with insufficient
    /// profiling data (e.g. a replica that served no reads): the network is
    /// untrained and the threshold is above any reachable score, so
    /// [`Trained::predict_slow`] is always `false`.
    pub fn always_admit(cfg: &PipelineConfig) -> Trained {
        let (kind, input_dim) = match (&cfg.features, cfg.joint) {
            (FeatureMode::LinnosDigitized, _) => {
                (FeatureKind::LinnosDigitized, crate::features::LINNOS_DIM)
            }
            (mode, 1) => {
                let spec = spec_for(mode);
                let dim = spec.dim();
                (FeatureKind::Spec(spec), dim)
            }
            (mode, p) => {
                let spec = spec_for(mode);
                (
                    FeatureKind::Joint {
                        hist_depth: spec.hist_depth,
                        p,
                    },
                    1 + 3 * spec.hist_depth + p,
                )
            }
        };
        let mlp = Mlp::new(mlp_config(cfg, input_dim), cfg.seed);
        let quantized = quantize_if_supported(&mlp);
        Trained {
            kind,
            scaler: None,
            mlp,
            quantized,
            joint: cfg.joint,
            threshold: 1.01,
        }
    }

    /// Probability of "slow" for one raw (unscaled) feature row, using the
    /// quantized deployment path.
    pub fn predict_raw(&self, raw_row: &[f32]) -> f32 {
        let mut p = 0.0;
        BatchScratch::with_local(|scratch| self.score_rows(raw_row, scratch, |score| p = score));
        p
    }

    /// Hard decision: `true` = decline/reroute (calibrated threshold).
    pub fn predict_slow(&self, raw_row: &[f32]) -> bool {
        self.predict_raw(raw_row) >= self.threshold
    }

    /// Scales and scores each row of a row-major batch of raw feature rows
    /// through the decision kernel, one row at a time in `scratch` (whose
    /// size does not depend on the batch), handing each slow-probability to
    /// `sink`. The f32 network serves when the architecture was not
    /// quantizable.
    fn score_rows(&self, rows: &[f32], scratch: &mut BatchScratch, mut sink: impl FnMut(f32)) {
        let dim = self.mlp.config().input_dim;
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "input dimensionality mismatch"
        );
        let mut scaled = scratch.take_rows();
        for row in rows.chunks_exact(dim) {
            scaled.clear();
            scaled.extend_from_slice(row);
            sink(self.score_row(&mut scaled, scratch));
        }
        scratch.put_rows(scaled);
    }

    /// Scales one raw feature row in place and returns its
    /// slow-probability from the decision kernel (the f32 network when the
    /// architecture was not quantizable).
    pub(crate) fn score_row(&self, row: &mut [f32], scratch: &mut BatchScratch) -> f32 {
        if let Some(s) = &self.scaler {
            s.transform_row(row);
        }
        match &self.quantized {
            Some(q) => q.predict_with(row, scratch),
            None => self.mlp.predict(row),
        }
    }

    /// Appends the slow-probability of every row of a row-major batch of
    /// raw (unscaled) feature rows to `out`. Results are bitwise identical
    /// to [`Trained::predict_raw`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn predict_raw_batch_into(
        &self,
        rows: &[f32],
        scratch: &mut BatchScratch,
        out: &mut Vec<f32>,
    ) {
        self.score_rows(rows, scratch, |p| out.push(p));
    }

    /// Allocating wrapper over [`Trained::predict_raw_batch_into`].
    pub fn predict_raw_batch(&self, rows: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        BatchScratch::with_local(|scratch| self.predict_raw_batch_into(rows, scratch, &mut out));
        out
    }

    /// Batched hard decisions at the calibrated threshold (`true` =
    /// decline/reroute).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn predict_slow_batch_into(
        &self,
        rows: &[f32],
        scratch: &mut BatchScratch,
        out: &mut Vec<bool>,
    ) {
        self.score_rows(rows, scratch, |p| out.push(p >= self.threshold));
    }

    /// Scores every row of a raw dataset through the decision kernel.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f32> {
        self.predict_raw_batch(&data.x)
    }

    /// Deployed memory footprint (Fig 16a).
    pub fn memory_bytes(&self) -> usize {
        self.quantized
            .as_ref()
            .map_or_else(|| self.mlp.memory_bytes(), |q| q.memory_bytes())
            + self.scaler.as_ref().map_or(0, |s| s.state_bytes().max(8))
    }

    /// Multiplications per inference (Fig 16b proxy).
    pub fn multiplications(&self) -> usize {
        self.mlp.multiplications()
    }
}

/// Everything the pipeline measured while training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Test-half accuracy metrics (quantized inference path).
    pub metrics: MetricReport,
    /// Rows trained on.
    pub train_rows: usize,
    /// Rows evaluated on.
    pub test_rows: usize,
    /// Slow fraction of the labeled data.
    pub slow_fraction: f64,
    /// Noise-filter statistics when filtering ran.
    pub filter_stats: Option<FilterStats>,
    /// Labeling agreement with simulator ground truth (evaluation only).
    pub label_accuracy_vs_truth: f64,
    /// Preprocessing wall time (labeling + filtering + features), seconds.
    pub preprocess_seconds: f64,
    /// Training wall time, seconds.
    pub train_seconds: f64,
    /// Final input dimensionality.
    pub input_dim: usize,
}

/// Output of the two model-independent stages — labeling (including
/// threshold tuning) and noise filtering. Depends only on the read records
/// and the labeling/filtering configuration — never on seed, features,
/// joint width, split, scaling or training options.
#[derive(Debug, Clone)]
pub(crate) struct LabelArtifact {
    /// Per-read slow/fast label.
    pub labels: Vec<bool>,
    /// Per-read noise-filter keep mask (all-true when filtering is off).
    pub keep: Vec<bool>,
    /// Noise-filter statistics when filtering ran.
    pub filter_stats: Option<FilterStats>,
    /// Labeling agreement with simulator ground truth (evaluation only).
    pub label_accuracy_vs_truth: f64,
}

/// Hands `f` the reads of `view`: the view itself when it holds no
/// writes (nothing is built), else an index projection onto its reads.
fn with_reads<R>(view: &ReadView<'_>, f: impl FnOnce(&ReadView<'_>) -> R) -> R {
    if (0..view.len()).all(|i| view.is_read(i)) {
        return f(view);
    }
    let (batch, idx) = match *view {
        ReadView::Batch(batch) => (batch, read_indices(batch)),
        ReadView::Indexed { batch, idx } => {
            let reads = idx.iter().copied().filter(|&i| batch.is_read(i as usize));
            (batch, reads.collect())
        }
    };
    f(&ReadView::Indexed { batch, idx: &idx })
}

/// Runs the labeling and noise-filtering stages over a write-free view.
pub(crate) fn label_stage_view(view: &ReadView<'_>, cfg: &PipelineConfig) -> LabelArtifact {
    // Stage: labeling. The tuned mode shares one LabelingScratch between
    // the threshold search and the final labeling pass.
    let labels = match cfg.labeling {
        LabelingMode::Cutoff => cutoff_label_view(view),
        LabelingMode::Period => period_label_view(view, &PeriodThresholds::default()),
        LabelingMode::PeriodTuned => {
            if view.len() < 32 {
                period_label_view(view, &PeriodThresholds::default())
            } else {
                let scratch =
                    LabelingScratch::new_view(view, PeriodThresholds::default().window_us);
                let th = tune_thresholds_with_view(view, &scratch);
                period_label_with_view(view, &th, &scratch)
            }
        }
        LabelingMode::PeriodWith(th) => period_label_view(view, &th),
    };
    let label_accuracy_vs_truth = labeling_accuracy_view(view, &labels);

    // Stage: noise filtering.
    let (keep, filter_stats) = match &cfg.filtering {
        Some(fc) => {
            let (k, s) = filter_view(view, &labels, fc);
            (k, Some(s))
        }
        None => (vec![true; view.len()], None),
    };
    LabelArtifact {
        labels,
        keep,
        filter_stats,
        label_accuracy_vs_truth,
    }
}

/// Runs the per-cell model-independent stages — feature extraction (+
/// joint grouping) and selection — over a label/filter artifact, returning
/// the feature recipe of the (post-selection) columns and the unscaled,
/// unsplit dataset in trace order.
///
/// For per-I/O raw specs the min-max scaler statistics over the eventual
/// train half (`cfg.split` of the rows) come back fused out of the same
/// extraction sweep, already reduced to the selected columns; other
/// feature modes return `None` and fit post-split.
fn featurize(
    view: &ReadView<'_>,
    cfg: &PipelineConfig,
    la: &LabelArtifact,
) -> Result<(FeatureKind, Dataset, Option<ColumnStats>), PipelineError> {
    let (labels, keep) = (&la.labels, &la.keep);
    // Stage: feature extraction (+ joint grouping).
    let mut kind;
    let mut stats = None;
    let mut data = match (&cfg.features, cfg.joint) {
        (FeatureMode::LinnosDigitized, _) => {
            kind = FeatureKind::LinnosDigitized;
            build_linnos_dataset_view(view, labels, keep, 1).0
        }
        (mode, 1) => {
            let spec = spec_for(mode);
            kind = FeatureKind::Spec(spec.clone());
            let (data, _, st) = build_dataset_stats(view, labels, keep, &spec, 1, cfg.split);
            stats = Some(st);
            data
        }
        (mode, p) => {
            let spec = spec_for(mode);
            kind = FeatureKind::Joint {
                hist_depth: spec.hist_depth,
                p,
            };
            build_joint_dataset_view(view, labels, keep, spec.hist_depth, p, 1).0
        }
    };
    if data.is_empty() {
        return Err(PipelineError::NoRows);
    }

    // Stage: feature selection (per-I/O raw specs only).
    if let (Some(min_corr), FeatureKind::Spec(spec)) = (cfg.select_min_corr, &kind) {
        let selected = select_features(&data, spec, min_corr);
        if &selected != spec {
            let keep_cols: Vec<usize> = spec
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| selected.columns.contains(c))
                .map(|(i, _)| i)
                .collect();
            data = data.select_columns(&keep_cols);
            // Selection drops columns, never rows, so the fused train-half
            // stats stay valid column-subset for column-subset.
            stats = stats.map(|s| s.select_columns(&keep_cols));
            kind = FeatureKind::Spec(selected);
        }
    }

    Ok((kind, data, stats))
}

/// Runs the configured pipeline over a collected log (see
/// [`crate::collect::collect_batch`]). Reads drive labels and rows; pass
/// the full record stream — writes are dropped by index in [`run_view`].
///
/// # Errors
///
/// Returns [`PipelineError`] when the input is empty or too short to build
/// a single feature row on either split side.
pub fn run_batch(
    batch: &RecordBatch,
    cfg: &PipelineConfig,
) -> Result<(Trained, PipelineReport), PipelineError> {
    run_view(&ReadView::from(batch), cfg)
}

/// The pipeline itself, over any [`ReadView`] of the full record stream —
/// [`run_batch`] is this over a whole batch. Writes are dropped here,
/// once, whatever the view's form.
///
/// # Errors
///
/// Returns [`PipelineError`] exactly as [`run_batch`] does.
pub fn run_view(
    view: &ReadView<'_>,
    cfg: &PipelineConfig,
) -> Result<(Trained, PipelineReport), PipelineError> {
    with_reads(view, |reads| run_reads(reads, cfg))
}

/// [`run_view`] past the write drop: `view` holds reads only.
fn run_reads(
    view: &ReadView<'_>,
    cfg: &PipelineConfig,
) -> Result<(Trained, PipelineReport), PipelineError> {
    if view.is_empty() {
        return Err(PipelineError::NoRecords);
    }
    let t0 = Instant::now();
    let la = label_stage_view(view, cfg);
    let (kind, data, minmax_stats) = featurize(view, cfg, &la)?;

    let slow_fraction = data.positive_rate();

    // Chronological split: the test half is entirely unseen (§6).
    let (mut train, mut test) = data.split(cfg.split);
    if train.is_empty() || test.is_empty() {
        return Err(PipelineError::EmptySplit);
    }

    // Stage: feature scaling — fit on the train half only. Min-max fits
    // over a per-I/O spec come fused out of the extraction sweep (the
    // stats covered exactly the eventual train rows); everything else
    // fits column-strided over the split train half. Both are bitwise
    // identical to the row-materializing `Scaler::fit`.
    let scaler = match (&cfg.features, cfg.scaling) {
        (FeatureMode::LinnosDigitized, _) | (_, None) => None,
        (_, Some(kind)) => {
            let s = match (&minmax_stats, kind) {
                (Some(stats), ScalerKind::MinMax) => {
                    debug_assert_eq!(stats.rows, train.rows(), "fused stats cover train half");
                    Scaler::from_minmax_stats(stats)
                }
                _ => Scaler::fit_columns(kind, &train),
            };
            s.transform(&mut train);
            s.transform(&mut test);
            Some(s)
        }
    };
    let preprocess_seconds = t0.elapsed().as_secs_f64();

    // Stage: model training.
    let t1 = Instant::now();
    let mut mlp = Mlp::new(mlp_config(cfg, train.dim), cfg.seed);
    let mut opts = cfg.train.clone();
    opts.seed ^= cfg.seed;
    train.shuffle(cfg.seed ^ 0x7368_7566);
    mlp.train(&train, &opts);
    let quantized = quantize_if_supported(&mlp);
    // Scoring uses the batched weight-sweep kernel (bitwise identical to
    // row-by-row quantized inference) — one sweep per dataset half.
    let score_all = |data: &Dataset| match &quantized {
        Some(q) => q.predict_batch(&data.x),
        None => (0..data.rows()).map(|i| mlp.predict(data.row(i))).collect(),
    };
    // Calibrate the operating threshold on the training half (MT stage).
    let threshold = if cfg.calibrate {
        calibrate_threshold(&score_all(&train), &train.labels_bool())
    } else {
        0.5
    };
    let train_seconds = t1.elapsed().as_secs_f64();

    // Evaluate the deployment (quantized) path on the unseen half, at the
    // calibrated operating point.
    let input_dim = train.dim;
    let scores: Vec<f32> = score_all(&test);
    let metrics = MetricReport::compute_at(&scores, &test.labels_bool(), threshold);

    let trained = Trained {
        kind,
        scaler,
        mlp,
        quantized,
        joint: cfg.joint,
        threshold,
    };
    let report = PipelineReport {
        metrics,
        train_rows: train.rows(),
        test_rows: test.rows(),
        slow_fraction,
        filter_stats: la.filter_stats,
        label_accuracy_vs_truth: la.label_accuracy_vs_truth,
        preprocess_seconds,
        train_seconds,
        input_dim,
    };
    Ok((trained, report))
}

/// K-fold cross-validation (the "MV" pipeline stage): labels and filters
/// the records once, then trains `k` models on rotating folds and reports
/// each fold's metrics. Used during model engineering to check that an
/// architecture's accuracy is not an artifact of one particular split.
///
/// # Errors
///
/// Returns [`PipelineError`] when the input cannot produce `k` non-empty
/// folds.
pub fn cross_validate(
    view: &ReadView<'_>,
    cfg: &PipelineConfig,
    k: usize,
) -> Result<Vec<MetricReport>, PipelineError> {
    assert!(k >= 2, "need at least two folds");
    let spec = spec_for(&cfg.features);
    let mut data = with_reads(view, |view| {
        if view.is_empty() {
            return Err(PipelineError::NoRecords);
        }
        let la = label_stage_view(view, cfg);
        Ok(build_dataset_view(view, &la.labels, &la.keep, &spec, 1).0)
    })?;
    if data.rows() < k {
        return Err(PipelineError::NoRows);
    }
    data.shuffle(cfg.seed ^ 0x6376);

    let mut reports = Vec::with_capacity(k);
    for fold in 0..k {
        let (mut train, mut val) = data.fold(k, fold);
        if train.is_empty() || val.is_empty() {
            return Err(PipelineError::EmptySplit);
        }
        if let Some(kind) = cfg.scaling {
            let scaler = Scaler::fit_columns(kind, &train);
            scaler.transform(&mut train);
            scaler.transform(&mut val);
        }
        let mut mlp = Mlp::new(mlp_config(cfg, train.dim), cfg.seed + fold as u64);
        mlp.train(&train, &cfg.train);
        let scores: Vec<f32> = (0..val.rows()).map(|i| mlp.predict(val.row(i))).collect();
        reports.push(MetricReport::compute(&scores, &val.labels_bool()));
    }
    Ok(reports)
}

/// Quantizes when the architecture supports the integer pipeline
/// (ReLU-family hidden layers); architectures outside that envelope (only
/// reachable through explicit hyperparameter sweeps) deploy in f32.
fn quantize_if_supported(mlp: &Mlp) -> Option<QuantizedMlp> {
    let ok = mlp.config().hidden.iter().all(|&(_, act)| {
        use heimdall_nn::Activation as A;
        matches!(act, A::ReLU | A::LeakyReLU(_) | A::PReLU(_) | A::Linear)
    });
    ok.then(|| QuantizedMlp::quantize_paper(mlp))
}

/// Picks the score threshold maximizing balanced accuracy (Youden's J) on
/// held-in data; falls back to 0.5 for single-class data.
fn calibrate_threshold(scores: &[f32], labels: &[bool]) -> f32 {
    let pos = labels.iter().filter(|&&l| l).count();
    if pos == labels.len() {
        return 0.5;
    }
    // Too little slow evidence to calibrate: deploy as all-admit. A model
    // acting on a handful of positives produces erratic reroutes.
    if pos < 30 {
        return 1.01;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (p, n) = (pos as f64, (labels.len() - pos) as f64);
    // Prefer the highest recall reachable at a false-reroute budget (a
    // false decline costs the partner device real capacity); fall back to
    // Youden's J when no threshold meets the budget.
    const FPR_BUDGET: f64 = 0.05;
    // Sweep descending thresholds, recording (tpr, fpr, threshold) steps.
    let mut steps: Vec<(f64, f64, f32)> = Vec::new();
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        for &k in &order[i..=j] {
            if labels[k] {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
        }
        steps.push((tp / p, fp / n, scores[order[j]]));
        i = j + 1;
    }
    let best_budget_tpr = steps
        .iter()
        .filter(|s| s.1 <= FPR_BUDGET)
        .map(|s| s.0)
        .fold(0.0f64, f64::max);
    if best_budget_tpr > 0.0 {
        // Among thresholds within budget and within 1% of the best recall,
        // prefer the *highest* threshold: the margin below the positive
        // cluster is what makes the operating point robust to the mild
        // distribution shift between profiling and deployment.
        steps
            .iter()
            .filter(|s| s.1 <= FPR_BUDGET && s.0 >= best_budget_tpr - 0.01)
            .map(|s| s.2)
            .fold(f32::MIN, f32::max)
    } else {
        // No threshold meets the budget; fall back to Youden's J.
        steps
            .iter()
            .max_by(|a, b| {
                (a.0 - a.1)
                    .partial_cmp(&(b.0 - b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|s| s.2)
            .unwrap_or(0.5)
    }
}

/// The configured architecture at the dataset's final input width.
fn mlp_config(cfg: &PipelineConfig, input_dim: usize) -> MlpConfig {
    match &cfg.arch {
        ModelArch::Linnos => MlpConfig {
            input_dim,
            ..MlpConfig::linnos()
        },
        ModelArch::Heimdall => MlpConfig::heimdall(input_dim),
        ModelArch::Custom(c) => MlpConfig {
            input_dim,
            ..c.clone()
        },
    }
}

fn spec_for(mode: &FeatureMode) -> FeatureSpec {
    match mode {
        FeatureMode::LinnosDigitized => FeatureSpec::linnos_raw(),
        FeatureMode::LinnosRaw => FeatureSpec::linnos_raw(),
        FeatureMode::HeimdallDepth(n) => FeatureSpec::with_depth(*n),
        FeatureMode::Full(n) => FeatureSpec::full(*n),
        FeatureMode::Custom(s) => s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_batch, IoRecord};
    use heimdall_ssd::{DeviceConfig, SsdDevice};
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::{IoOp, WorkloadProfile};

    fn busy_records(seed: u64, secs: u64) -> RecordBatch {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(seed)
            .duration_secs(secs)
            .build();
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30; // provoke frequent GC so slow data exists
        let mut dev = SsdDevice::new(cfg, seed ^ 1);
        collect_batch(&trace, &mut dev)
    }

    #[test]
    fn heimdall_pipeline_trains_and_scores_well() {
        let records = busy_records(1, 30);
        let (trained, report) = run_batch(&records, &PipelineConfig::heimdall()).unwrap();
        assert!(
            report.metrics.roc_auc > 0.8,
            "auc {}",
            report.metrics.roc_auc
        );
        assert!(report.slow_fraction > 0.0 && report.slow_fraction < 0.5);
        assert_eq!(report.input_dim, 11);
        assert!(trained.memory_bytes() < 28 * 1024);
    }

    #[test]
    fn linnos_baseline_runs() {
        let records = busy_records(2, 20);
        let (trained, report) = run_batch(&records, &PipelineConfig::linnos_baseline()).unwrap();
        assert_eq!(report.input_dim, 31);
        assert_eq!(trained.mlp.multiplications(), 8448);
        assert!(report.metrics.roc_auc > 0.4);
    }

    #[test]
    fn filtering_reports_stats() {
        let records = busy_records(3, 20);
        let (_, report) = run_batch(&records, &PipelineConfig::heimdall()).unwrap();
        let stats = report.filter_stats.expect("filtering enabled");
        assert!(stats.burst_threshold >= 1);
    }

    #[test]
    fn joint_pipeline_trains() {
        let records = busy_records(4, 20);
        let mut cfg = PipelineConfig::heimdall();
        cfg.joint = 5;
        let (trained, report) = run_batch(&records, &cfg).unwrap();
        assert_eq!(trained.joint, 5);
        // 1 qlen + 9 history + 5 sizes.
        assert_eq!(report.input_dim, 15);
        assert!(
            report.metrics.roc_auc > 0.6,
            "auc {}",
            report.metrics.roc_auc
        );
    }

    #[test]
    fn empty_input_is_error() {
        let empty = RecordBatch::new();
        let cfg = PipelineConfig::heimdall();
        assert_eq!(
            run_batch(&empty, &cfg).unwrap_err(),
            PipelineError::NoRecords
        );
        assert_eq!(
            cross_validate(&ReadView::from(&empty), &cfg, 2).unwrap_err(),
            PipelineError::NoRecords
        );
    }

    /// `n` synthetic I/Os `gap_us` apart; `io(i)` gives the `i`-th one's
    /// `(op, latency_us, size)`.
    fn synthetic_log(n: u64, gap_us: u64, io: impl Fn(u64) -> (IoOp, u64, u32)) -> RecordBatch {
        let records: Vec<IoRecord> = (0..n)
            .map(|i| {
                let (op, latency_us, size) = io(i);
                let arrival_us = 1_000 + i * gap_us;
                IoRecord {
                    arrival_us,
                    finish_us: arrival_us + latency_us,
                    size,
                    op,
                    queue_len: (i % 8) as u32,
                    latency_us,
                    throughput: f64::from(size) / latency_us as f64,
                    truth_busy: false,
                }
            })
            .collect();
        RecordBatch::from_records(&records)
    }

    /// A read with a latency that cycles through slow bursts.
    fn varied_read(i: u64) -> (IoOp, u64, u32) {
        let slow = (i / 50).is_multiple_of(5);
        let latency = if slow {
            2_000
        } else {
            100 + (i * 7_919 % 13) * 20
        };
        (IoOp::Read, latency, 4_096)
    }

    /// Degenerate logs through both entry points: each returns a typed
    /// result, never a panic. A row needs `hist_depth` completions that
    /// finished before its arrival, so a log too short to see that many,
    /// or one where every read arrives at once, has no rows.
    #[test]
    fn degenerate_logs_return_typed_results() {
        use PipelineError::{NoRecords, NoRows};
        let cases = [
            (
                "writes only",
                synthetic_log(200, 100, |_| (IoOp::Write, 100, 4_096)),
                Err(NoRecords),
            ),
            ("1 read", synthetic_log(1, 100, varied_read), Err(NoRows)),
            ("3 reads", synthetic_log(3, 100, varied_read), Err(NoRows)),
            (
                "5,000 reads at one arrival time",
                synthetic_log(5_000, 0, varied_read),
                Err(NoRows),
            ),
            // Just past the `< 32` branch that labels with untuned
            // thresholds.
            ("33 reads", synthetic_log(33, 100, varied_read), Ok(())),
            (
                "5,000 constant-latency reads",
                synthetic_log(5_000, 100, |_| (IoOp::Read, 150, 4_096)),
                Ok(()),
            ),
            (
                "5,000 zero-size reads",
                synthetic_log(5_000, 100, |i| (IoOp::Read, varied_read(i).1, 0)),
                Ok(()),
            ),
        ];
        let cfg = PipelineConfig::heimdall();
        for (name, log, want) in &cases {
            assert_eq!(&run_batch(log, &cfg).map(|_| ()), want, "run_batch: {name}");
            assert_eq!(
                &cross_validate(&ReadView::from(log), &cfg, 2).map(|_| ()),
                want,
                "cross_validate: {name}"
            );
        }
    }

    #[test]
    fn predict_raw_roundtrip() {
        let records = busy_records(5, 20);
        let (trained, _) = run_batch(&records, &PipelineConfig::heimdall()).unwrap();
        let row = vec![1.0f32; 11];
        let p = trained.predict_raw(&row);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(trained.predict_slow(&row), p >= 0.5);
    }

    #[test]
    fn feature_selection_reduces_dim() {
        let records = busy_records(6, 20);
        let mut cfg = PipelineConfig::heimdall();
        cfg.features = FeatureMode::Full(3);
        cfg.select_min_corr = Some(0.02);
        let (_, report) = run_batch(&records, &cfg).unwrap();
        let full_dim = FeatureSpec::full(3).dim();
        assert!(report.input_dim <= full_dim);
    }

    /// Ground-truth AUC of a trained model: score its decisions against the
    /// simulator's internal busy flags (evaluation only — Fig 5a).
    fn truth_auc(trained: &Trained, records: &RecordBatch) -> f64 {
        let idx = read_indices(records);
        let truth: Vec<bool> = idx
            .iter()
            .map(|&i| records.truth_busy(i as usize))
            .collect();
        let keep = vec![true; idx.len()];
        let reads = ReadView::Indexed {
            batch: records,
            idx: &idx,
        };
        let (data, _) = build_dataset_view(&reads, &truth, &keep, &FeatureSpec::heimdall(), 1);
        let (_, test) = data.split(0.5);
        let scores = trained.predict_dataset(&test);
        heimdall_metrics::roc_auc(&scores, &test.labels_bool())
    }

    #[test]
    fn both_labelings_train_models_that_predict_real_busyness() {
        // Sanity behind Fig 5a: models trained under either labeling must
        // rank true device busyness well on this trace. The *comparative*
        // claim (period > cutoff) is seed-sensitive on a single trace and
        // is evaluated over many seeds by the fig05 bench.
        let records = busy_records(7, 30);
        let mut cutoff_cfg = PipelineConfig::heimdall();
        cutoff_cfg.labeling = LabelingMode::Cutoff;
        let (cutoff_model, _) = run_batch(&records, &cutoff_cfg).unwrap();
        let (period_model, _) = run_batch(&records, &PipelineConfig::heimdall()).unwrap();
        let p = truth_auc(&period_model, &records);
        let c = truth_auc(&cutoff_model, &records);
        assert!(p > 0.8, "period truth-AUC too low: {p}");
        assert!(c > 0.8, "cutoff truth-AUC too low: {c}");
    }

    #[test]
    fn cross_validation_reports_per_fold() {
        let records = busy_records(9, 20);
        let reports =
            cross_validate(&ReadView::from(&records), &PipelineConfig::heimdall(), 3).unwrap();
        assert_eq!(reports.len(), 3);
        let mean: f64 = reports.iter().map(|r| r.roc_auc).sum::<f64>() / 3.0;
        assert!(mean > 0.7, "mean CV auc {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let records = busy_records(8, 15);
        let (_, a) = run_batch(&records, &PipelineConfig::heimdall()).unwrap();
        let (_, b) = run_batch(&records, &PipelineConfig::heimdall()).unwrap();
        assert_eq!(a.metrics.roc_auc, b.metrics.roc_auc);
    }
}

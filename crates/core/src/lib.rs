//! Heimdall's core: the extensive ML pipeline for I/O admission control.
//!
//! This crate reproduces the primary contribution of *"Heimdall: Optimizing
//! Storage I/O Admission with Extensive Machine Learning Pipeline"*
//! (EuroSys '25): a disciplined, stage-by-stage ML pipeline that turns raw
//! I/O logs into a tiny, quantized neural admission model.
//!
//! Pipeline stages (paper section in parentheses):
//!
//! - [`collect`] — data collection: replay a trace, log features + outcomes.
//! - [`labeling`] — period-based accurate labeling with gradient-descent
//!   threshold tuning (§3.1, Fig 4), plus the latency-cutoff baseline.
//! - [`filtering`] — 3-stage noise filtering (§3.2, Fig 6).
//! - [`features`] — extraction, correlation-based selection, historical
//!   depth, LinnOS digitized features, joint/group features (§3.3, §4.2).
//! - [`pipeline`] — the configurable end-to-end trainer with per-stage
//!   toggles for the Fig 14 ablation, producing a quantized deployable
//!   model (§4.1).
//! - [`model`] — the online per-device runtime admission policies embed.
//! - [`retrain`] — accuracy-triggered retraining for long deployments (§7).
//! - [`drift`] — proactive input-drift detection (a §7 open question).
//!
//! # One log, one function per operation
//!
//! The log is a columnar [`RecordBatch`] ([`collect::collect_batch`]; an
//! [`IoRecord`] is one row of it), and every stage reads it through a
//! [`ReadView`] — the whole batch, or an index projection of it (the
//! reads, a training slice, a monitoring window), never a copy. Each
//! operation has exactly one entry point (the `*_view` functions of
//! [`labeling`], [`filtering::filter_view`], the `build_*_view` builders
//! of [`features`]). The trainer is [`pipeline::run_view`]`(view, cfg)`,
//! which drops writes; [`pipeline::run_batch`] is that function over a
//! whole batch. The `*_reference` functions are the seed engines the parity
//! suites compare against; the featurizer references take rows
//! ([`RecordBatch::to_records`]) so that they share nothing with the views.
//!
//! # Examples
//!
//! ```no_run
//! use heimdall_core::collect::collect_batch;
//! use heimdall_core::pipeline::{run_batch, PipelineConfig};
//! use heimdall_ssd::{DeviceConfig, SsdDevice};
//! use heimdall_trace::gen::TraceBuilder;
//! use heimdall_trace::WorkloadProfile;
//!
//! let trace = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
//!     .seed(42)
//!     .duration_secs(60)
//!     .build();
//! let mut device = SsdDevice::new(DeviceConfig::datacenter_nvme(), 7);
//! let log = collect_batch(&trace, &mut device);
//! let (model, report) = run_batch(&log, &PipelineConfig::heimdall()).unwrap();
//! println!("test ROC-AUC = {:.3}", report.metrics.roc_auc);
//! assert!(model.memory_bytes() < 28 * 1024);
//! ```

pub mod collect;
pub mod drift;
pub mod features;
pub mod filtering;
pub mod labeling;
pub mod model;
pub mod pipeline;
pub mod retrain;

pub use collect::{collect_batch, read_indices, IoRecord, ReadView, RecordBatch};
pub use drift::DriftDetector;
pub use features::{Feature, FeatureSpec};
pub use filtering::{FilterConfig, FilterStats};
pub use labeling::PeriodThresholds;
pub use model::{DeviceRuntime, OnlineAdmitter};
pub use pipeline::{
    FeatureKind, FeatureMode, LabelingMode, ModelArch, PipelineConfig, PipelineError,
    PipelineReport, Trained,
};
pub use retrain::{RetrainConfig, RetrainReport};

//! `pipeline_msr`: the paper's headline artefact, device log → calibrated
//! quantized model (§6.7). `core::labeling` (threshold tuner) and `nn::mlp`
//! (training) do ~85% of the work; the decision kernel appears only as
//! batch scoring and the replay engine not at all.
//!
//! Input: a 30 s MSR-like trace (~330k I/Os, ~70% reads) collected with
//! `collect_batch` on a GC-prone consumer NVMe, in set-up. Timed: one
//! `pipeline::run_batch(&batch, &cfg)` with `cfg = PipelineConfig::heimdall()`
//! and `cfg.seed` (weight initialisation, shuffle order) from `--seed`.
//! Untimed check: the model is deployed on a two-replica replay of the same
//! trace, which is where this workload's simulated read latency comes from.
//!
//! The log itself is pinned at [`LOG_SEED`]: from one 30 s log to the next
//! the threshold tuner's work varies 2.5x and the deployed latency 6x
//! (measured over ten trace seeds), which no bound of 25% could sit above.
//! One device log, many training runs is also how the pipeline is used.

use super::{stage, summarize, Checks, Fnv, Layers, Outcome, Size, Stage, Traced, Workload};
use crate::alloc;
use crate::spans::Recorder;
use heimdall_cluster::replay;
use heimdall_core::collect::{collect_batch, read_indices, ReadView, RecordBatch};
use heimdall_core::features::build_dataset_stats;
use heimdall_core::filtering::filter_view;
use heimdall_core::labeling::{
    labeling_accuracy_view, period_label_with_view, tune_thresholds_with_view, LabelingScratch,
    PeriodThresholds,
};
use heimdall_core::pipeline::{run_batch, FeatureMode, PipelineConfig, PipelineReport, Trained};
use heimdall_core::FeatureSpec;
use heimdall_metrics::MetricReport;
use heimdall_nn::{Mlp, MlpConfig, QuantizedMlp, Scaler};
use heimdall_policies::HeimdallPolicy;
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::{Trace, WorkloadProfile};
use std::time::Instant;

/// Seed of the pinned trace and device (the sizing run of ISSUE 11).
const LOG_SEED: u64 = 11;

struct Input {
    /// `PipelineConfig::seed` of this run.
    seed: u64,
    trace: Trace,
    batch: RecordBatch,
    reads: u64,
}

/// The `pipeline_msr` workload.
pub struct PipelineMsr {
    size: Size,
    input: Option<Input>,
}

/// Consumer NVMe with a small free pool, so GC fires often enough for the
/// log to hold slow periods.
fn device_cfg() -> DeviceConfig {
    let mut cfg = DeviceConfig::consumer_nvme();
    cfg.free_pool = 1 << 30;
    cfg
}

/// Digest of everything a deployment reads from the model.
fn model_digest(trained: &Trained) -> u64 {
    let mut d = Fnv::default();
    trained
        .mlp
        .flat_params()
        .iter()
        .for_each(|p| d.u64(p.to_bits()));
    d.str(&format!("{:?}", trained.scaler));
    d.u64(trained.threshold.to_bits() as u64);
    d.0
}

impl PipelineMsr {
    /// The workload at `size`, before set-up.
    pub fn new(size: Size) -> Self {
        PipelineMsr { size, input: None }
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("setup runs before rep/traced")
    }

    fn config(&self) -> PipelineConfig {
        PipelineConfig {
            seed: self.input().seed,
            ..PipelineConfig::heimdall()
        }
    }

    /// Checks a finished pipeline run and deploys its model.
    fn outcome(&self, trained: &Trained, report: &PipelineReport, checks: &mut Checks) -> Outcome {
        let input = self.input();
        let auc = report.metrics.roc_auc;
        checks.ensure(auc >= self.size.min_roc_auc, || {
            format!("roc_auc {auc} below {}", self.size.min_roc_auc)
        });

        // Deploy: the trace homed on replica 0, an idle replica 1 to
        // decline to, the same model guarding both.
        let mut devices: Vec<SsdDevice> = (0..2)
            .map(|i| SsdDevice::new(device_cfg(), (LOG_SEED ^ 1) + i))
            .collect();
        let mut policy = HeimdallPolicy::new(vec![trained.clone(), trained.clone()]);
        let deployed = replay(&input.trace, &mut devices, &mut policy);
        let writes = input.trace.requests.len() as u64 - input.reads;
        checks.ensure(
            deployed.reads.len() as u64 == input.reads && deployed.writes == writes,
            || {
                format!(
                    "deploy replay lost I/Os: {} of {} reads, {} of {writes} writes",
                    deployed.reads.len(),
                    input.reads,
                    deployed.writes
                )
            },
        );
        let (sim, latency_digest) = summarize(&deployed.reads);
        let mut digest = Fnv(model_digest(trained));
        digest.u64(latency_digest);
        digest.u64(auc.to_bits());
        Outcome {
            ios: input.reads,
            attempted: 1,
            failed: 0,
            sim,
            digest: digest.0,
            details: vec![
                ("roc_auc", auc),
                ("model_bytes", trained.memory_bytes() as f64),
                ("train_rows", report.train_rows as f64),
                ("test_rows", report.test_rows as f64),
                ("slow_fraction", report.slow_fraction),
                (
                    "deploy_rerouted_ratio",
                    deployed.rerouted as f64 / input.reads.max(1) as f64,
                ),
            ],
        }
    }

    /// Outcome of a run that returned a `PipelineError`.
    fn failed(&self, error: &dyn std::fmt::Display, checks: &mut Checks) -> Outcome {
        checks.0.push(format!("run_batch failed: {error}"));
        let (sim, digest) = summarize(&Default::default());
        Outcome {
            ios: self.input().reads,
            attempted: 1,
            failed: 1,
            sim,
            digest,
            details: Vec::new(),
        }
    }
}

impl Workload for PipelineMsr {
    fn warmup(&self) -> bool {
        false
    }

    fn min_reps(&self) -> usize {
        1
    }

    fn setup(&mut self, seed: u64) -> Result<Vec<Stage>, String> {
        self.input = None;
        let mut stages = Vec::new();
        let trace = stage(&mut stages, "trace.gen.seconds", || {
            TraceBuilder::from_profile(WorkloadProfile::MsrLike)
                .seed(LOG_SEED)
                .duration_secs(self.size.pipeline_secs)
                .build()
        });
        let batch = stage(&mut stages, "core.collect.seconds", || {
            collect_batch(&trace, &mut SsdDevice::new(device_cfg(), LOG_SEED ^ 1))
        });
        if batch.len() != trace.requests.len() {
            return Err(format!(
                "collect logged {} of {} requests",
                batch.len(),
                trace.requests.len()
            ));
        }
        let reads = read_indices(&batch).len() as u64;
        self.input = Some(Input {
            seed,
            trace,
            batch,
            reads,
        });
        Ok(stages)
    }

    fn rep(&self, checks: &mut Checks) -> (f64, Outcome) {
        let cfg = self.config();
        let start = Instant::now();
        let result = run_batch(&self.input().batch, &cfg);
        let secs = start.elapsed().as_secs_f64();
        let outcome = match &result {
            Ok((trained, report)) => self.outcome(trained, report, checks),
            Err(e) => self.failed(e, checks),
        };
        (secs, outcome)
    }

    fn traced(&self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) -> Traced {
        let input = self.input();
        let batch = &input.batch;
        let cfg = self.config();
        let requests = batch.len() as f64;
        let reads = input.reads as f64;
        for name in ["trace.gen.seconds", "core.collect.seconds"] {
            layers.set(name, rec.seconds(name));
        }
        layers.set("trace.gen.requests", requests);
        layers.set(
            "core.collect.ns_per_io",
            rec.seconds("core.collect.seconds") * 1e9 / requests,
        );

        // The parent: one plain `run_batch`, which the staged pass below
        // decomposes. Taken from a separate call so the children's span
        // bookkeeping is not inside it.
        let before = alloc::counts();
        let parent = rec.enter("core.pipeline.run_seconds");
        let result = run_batch(batch, &cfg);
        let parent_secs = rec.exit(parent);
        let after = alloc::counts();
        layers.set("core.pipeline.run_seconds", parent_secs);
        layers.set("core.pipeline.allocs", (after.0 - before.0) as f64);
        layers.set("core.pipeline.alloc_bytes", (after.1 - before.1) as f64);
        let (trained, report) = match result {
            Ok(r) => r,
            Err(e) => {
                return Traced {
                    instrumented_secs: parent_secs,
                    plain_secs: parent_secs,
                    outcome: self.failed(&e, checks),
                }
            }
        };
        let outcome = self.outcome(&trained, &report, checks);

        // The stages, called in the order `run_batch` makes them. The
        // constants below mirror `pipeline::run_view`; the parity checks at
        // the end are what keeps this the same program.
        let staged = rec.enter("core.pipeline.staged");
        let idx = rec.time("core.collect.read_indices", || read_indices(batch));
        let view = if idx.len() == batch.len() {
            ReadView::Batch(batch)
        } else {
            ReadView::Indexed { batch, idx: &idx }
        };
        let scratch = rec.time("core.labeling.scratch_seconds", || {
            LabelingScratch::new_view(&view, PeriodThresholds::default().window_us)
        });
        let thresholds = rec.time("core.labeling.tune_seconds", || {
            tune_thresholds_with_view(&view, &scratch)
        });
        let labels = rec.time("core.labeling.apply_seconds", || {
            period_label_with_view(&view, &thresholds, &scratch)
        });
        let label_accuracy = rec.time("core.labeling.accuracy", || {
            labeling_accuracy_view(&view, &labels)
        });
        let filter_cfg = cfg.filtering.expect("heimdall() filters");
        let (keep, _) = rec.time("core.filtering.seconds", || {
            filter_view(&view, &labels, &filter_cfg)
        });
        let FeatureMode::HeimdallDepth(depth) = cfg.features else {
            unreachable!("heimdall() uses its own feature layout")
        };
        let spec = FeatureSpec::with_depth(depth);
        let (data, _, stats) = rec.time("core.features.build_seconds", || {
            build_dataset_stats(&view, &labels, &keep, &spec, 1, cfg.split)
        });
        let rows = data.rows() as f64;
        let slow_fraction = data.positive_rate();
        let (mut train, mut test) = rec.time("nn.data.split", || data.split(cfg.split));
        let scaler = rec.time("nn.scaler.seconds", || {
            let s = Scaler::from_minmax_stats(&stats);
            s.transform(&mut train);
            s.transform(&mut test);
            s
        });
        let mut opts = cfg.train.clone();
        opts.seed ^= cfg.seed;
        rec.time("nn.data.shuffle", || train.shuffle(cfg.seed ^ 0x7368_7566));
        let mut mlp = Mlp::new(MlpConfig::heimdall(train.dim), cfg.seed);
        rec.time("nn.mlp.train_seconds", || mlp.train(&train, &opts));
        let quantized = rec.time("nn.quantized.quantize_seconds", || {
            QuantizedMlp::quantize_paper(&mlp)
        });
        let (_, test_scores) = rec.time("nn.batch.score_seconds", || {
            (
                quantized.predict_batch(&train.x),
                quantized.predict_batch(&test.x),
            )
        });
        let test_labels = test.labels_bool();
        let metrics = rec.time("metrics.classification.seconds", || {
            MetricReport::compute_at(&test_scores, &test_labels, trained.threshold)
        });
        let staged_secs = rec.exit(staged);
        let children_secs = rec.children_seconds(staged);

        // Same program? Same network, same scaler, same test-half score.
        checks.ensure(mlp.flat_params() == trained.mlp.flat_params(), || {
            "staged pipeline trained different weights than run_batch".to_string()
        });
        checks.ensure(
            format!("{:?}", Some(&scaler)) == format!("{:?}", trained.scaler.as_ref()),
            || "staged pipeline fitted a different scaler than run_batch".to_string(),
        );
        checks.ensure(
            metrics.roc_auc.to_bits() == report.metrics.roc_auc.to_bits(),
            || {
                format!(
                    "staged roc_auc {} differs from run_batch's {}",
                    metrics.roc_auc, report.metrics.roc_auc
                )
            },
        );
        checks.ensure(children_secs >= 0.9 * parent_secs, || {
            format!("stages cover {children_secs:.3}s of a {parent_secs:.3}s run_batch (< 90%)")
        });

        // Quantized against f32 decisions on the unseen half.
        let agreement = rec.time("nn.quantized.f32_agreement", || {
            let same = (0..test.rows())
                .filter(|&i| {
                    (mlp.predict(test.row(i)) >= trained.threshold)
                        == (test_scores[i] >= trained.threshold)
                })
                .count();
            same as f64 / test.rows() as f64
        });
        checks.ensure(agreement >= 0.99, || {
            format!("quantized/f32 decision agreement {agreement} below 0.99")
        });

        for name in [
            "core.labeling.scratch_seconds",
            "core.labeling.tune_seconds",
            "core.labeling.apply_seconds",
            "core.filtering.seconds",
            "core.features.build_seconds",
            "nn.scaler.seconds",
            "nn.mlp.train_seconds",
            "nn.quantized.quantize_seconds",
            "nn.batch.score_seconds",
            "metrics.classification.seconds",
        ] {
            layers.set(name, rec.seconds(name));
        }
        let labeling_secs = rec.seconds("core.labeling.scratch_seconds")
            + rec.seconds("core.labeling.tune_seconds")
            + rec.seconds("core.labeling.apply_seconds");
        layers.set("core.labeling.ns_per_read", labeling_secs * 1e9 / reads);
        layers.set("core.labeling.accuracy_vs_truth", label_accuracy);
        layers.set("core.labeling.slow_fraction", slow_fraction);
        layers.set(
            "core.filtering.kept_ratio",
            keep.iter().filter(|&&k| k).count() as f64 / reads,
        );
        layers.set("core.features.rows", rows);
        layers.set(
            "core.features.ns_per_row",
            rec.seconds("core.features.build_seconds") * 1e9 / rows,
        );
        layers.set(
            "nn.mlp.train_us_per_row",
            rec.seconds("nn.mlp.train_seconds") * 1e6 / train.rows() as f64,
        );
        layers.set(
            "nn.batch.score_ns_per_row",
            rec.seconds("nn.batch.score_seconds") * 1e9 / rows,
        );
        layers.set("nn.quantized.f32_agreement", agreement);
        layers.set("core.pipeline.roc_auc", report.metrics.roc_auc);
        layers.set("core.pipeline.model_bytes", trained.memory_bytes() as f64);
        layers.set(
            "core.pipeline.attributed_ratio",
            children_secs / parent_secs,
        );
        layers.set(
            "core.pipeline.unattributed_seconds",
            parent_secs - children_secs,
        );
        Traced {
            instrumented_secs: staged_secs,
            plain_secs: parent_secs,
            outcome,
        }
    }
}

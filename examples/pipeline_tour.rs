//! Pipeline tour: walk through every Heimdall pipeline stage explicitly —
//! collection, period labeling, noise filtering, feature engineering,
//! training, quantization — printing what each stage contributes.
//!
//! ```sh
//! cargo run --release -p heimdall-examples --bin pipeline_tour
//! ```

use heimdall_core::collect::{collect_batch, read_indices, ReadView};
use heimdall_core::features::{build_dataset_view, feature_correlations, FeatureSpec};
use heimdall_core::filtering::{filter_view, FilterConfig};
use heimdall_core::labeling::{
    cutoff_label_view, labeling_accuracy_view, period_label_view, tune_thresholds_view,
};
use heimdall_metrics::MetricReport;
use heimdall_nn::{Mlp, MlpConfig, QuantizedMlp, Scaler, ScalerKind, TrainOpts};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;

fn main() {
    // --- Stage DC: data collection.
    let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(9)
        .duration_secs(30)
        .build();
    let mut device = SsdDevice::new(DeviceConfig::consumer_nvme(), 10);
    let batch = &collect_batch(&trace, &mut device);
    // Every stage reads the log through a `ReadView`; the reads are an
    // index projection of it, not a copy.
    let idx = &read_indices(batch);
    println!("[DC] collected {} read records", idx.len());
    let view = ReadView::Indexed { batch, idx };

    // --- Stage LA: accurate (period-based) labeling with tuned thresholds.
    let thresholds = tune_thresholds_view(&view);
    let labels = period_label_view(&view, &thresholds);
    let slow = labels.iter().filter(|&&l| l).count();
    println!(
        "[LA] tuned thresholds {thresholds:?}; {} slow labels ({:.2}%)",
        slow,
        100.0 * slow as f64 / labels.len() as f64
    );
    println!(
        "[LA] vs simulator ground truth: period {:.3}, cutoff {:.3} (balanced accuracy)",
        labeling_accuracy_view(&view, &labels),
        labeling_accuracy_view(&view, &cutoff_label_view(&view)),
    );

    // --- Stage LN: 3-stage noise filtering.
    let (keep, stats) = filter_view(&view, &labels, &FilterConfig::default());
    println!(
        "[LN] removed {} rows (slow-period outliers {}, fast-period outliers {}, short bursts {} at threshold {})",
        stats.total(),
        stats.slow_period_outliers,
        stats.fast_period_outliers,
        stats.short_bursts,
        stats.burst_threshold
    );

    // --- Stage FE/FS: feature engineering.
    let spec = FeatureSpec::heimdall();
    let (data, _) = build_dataset_view(&view, &labels, &keep, &spec, 1);
    println!("[FE] {} feature rows x {} columns", data.rows(), data.dim);
    println!("[FS] top features by label correlation:");
    for (f, c) in feature_correlations(&data, &spec).into_iter().take(4) {
        println!("       {:<14} {c:+.3}", f.tag());
    }

    // --- Stage FC + MT: scaling and training (50:50 chronological split).
    let (mut train, mut test) = data.split(0.5);
    let scaler = Scaler::fit(ScalerKind::MinMax, &train);
    scaler.transform(&mut train);
    scaler.transform(&mut test);
    train.shuffle(1);
    let mut mlp = Mlp::new(MlpConfig::heimdall(train.dim), 0);
    let stats = mlp.train(&train, &TrainOpts::default());
    println!(
        "[MT] trained {} epochs; loss {:.4} -> {:.4}",
        stats.epoch_loss.len(),
        stats.epoch_loss.first().unwrap(),
        stats.epoch_loss.last().unwrap()
    );

    // --- Stage OQ: quantization for deployment (§4.1).
    let quant = QuantizedMlp::quantize_paper(&mlp);
    let scores: Vec<f32> = (0..test.rows())
        .map(|i| quant.predict(test.row(i)))
        .collect();
    let report = MetricReport::compute(&scores, &test.labels_bool());
    println!(
        "[OQ] quantized model: {} bytes; test metrics: {report}",
        quant.memory_bytes()
    );
}

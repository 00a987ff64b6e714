//! Fig 7 — in-depth feature engineering (§3.3).
//!
//! (a) Correlation of each candidate feature with the label.
//! (b) Accuracy contribution of each feature family, added incrementally.
//! (c) Accuracy versus historical depth N.
//! (d) Accuracy under different normalization methods.
//!
//! Usage: `fig07_features [--datasets N] [--secs S] [--seed K] [--jobs J]`

use heimdall_bench::{print_header, print_row, record_pool, Args};
use heimdall_core::features::{build_dataset_view, feature_correlations, Feature, FeatureSpec};
use heimdall_core::pipeline::{run_batch, FeatureMode, PipelineConfig};
use heimdall_core::{read_indices, ReadView, RecordBatch};
use heimdall_nn::ScalerKind;

fn mean_auc(pool: &[RecordBatch], cfg: &PipelineConfig) -> (f64, usize) {
    let mut sum = 0.0;
    let mut n = 0;
    for batch in pool {
        if let Ok((_, report)) = run_batch(batch, cfg) {
            if report.slow_fraction > 0.0 {
                sum += report.metrics.roc_auc;
                n += 1;
            }
        }
    }
    (sum / n.max(1) as f64, n)
}

fn main() {
    let args = Args::parse();
    let datasets = args.get_usize("datasets", 10);
    let secs = args.get_u64("secs", 20);
    let seed = args.get_u64("seed", 21);
    let pool = record_pool(datasets, secs, seed, args.jobs());

    // --- Fig 7a: feature correlations, averaged across datasets.
    print_header("Fig 7a: feature correlation with the slow label");
    let spec = FeatureSpec::full(3);
    // Tags formatted once, outside the per-dataset loop; sums accumulate
    // by spec column so ties sort deterministically in spec order.
    let tags: Vec<String> = spec.columns.iter().map(|f| f.tag().into_owned()).collect();
    let mut corr_sum: Vec<(f64, usize)> = vec![(0.0, 0); spec.columns.len()];
    for batch in &pool {
        let idx = read_indices(batch);
        let view = ReadView::Indexed { batch, idx: &idx };
        let th = heimdall_core::labeling::tune_thresholds_view(&view);
        let labels = heimdall_core::labeling::period_label_view(&view, &th);
        if !labels.iter().any(|&l| l) {
            continue;
        }
        let (data, _) = build_dataset_view(&view, &labels, &vec![true; idx.len()], &spec, 1);
        for (f, c) in feature_correlations(&data, &spec) {
            let i = spec
                .columns
                .iter()
                .position(|&g| g == f)
                .expect("correlated feature comes from the spec");
            corr_sum[i].0 += c.abs();
            corr_sum[i].1 += 1;
        }
    }
    let mut rows: Vec<(&str, f64)> = tags
        .iter()
        .zip(&corr_sum)
        .map(|(tag, &(sum, n))| (tag.as_str(), sum / n.max(1) as f64))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (tag, c) in &rows {
        print_row(tag, &[format!("{c:.3}")]);
    }

    // --- Fig 7b: incremental feature contribution.
    print_header("Fig 7b: accuracy as feature families are added");
    let increments: Vec<(&str, Vec<Feature>)> = vec![
        ("queueLen", vec![Feature::QueueLen]),
        (
            "+histQueLen",
            vec![
                Feature::QueueLen,
                Feature::HistQueueLen(0),
                Feature::HistQueueLen(1),
                Feature::HistQueueLen(2),
            ],
        ),
        (
            "+histLat",
            vec![
                Feature::QueueLen,
                Feature::HistQueueLen(0),
                Feature::HistQueueLen(1),
                Feature::HistQueueLen(2),
                Feature::HistLatency(0),
                Feature::HistLatency(1),
                Feature::HistLatency(2),
            ],
        ),
        ("+histThpt", {
            let mut v = vec![
                Feature::QueueLen,
                Feature::HistQueueLen(0),
                Feature::HistQueueLen(1),
                Feature::HistQueueLen(2),
                Feature::HistLatency(0),
                Feature::HistLatency(1),
                Feature::HistLatency(2),
            ];
            v.extend((0..3).map(Feature::HistThroughput));
            v
        }),
        ("+ioSize (full)", FeatureSpec::heimdall().columns),
    ];
    for (name, columns) in increments {
        let mut cfg = PipelineConfig::heimdall();
        cfg.features = FeatureMode::Custom(FeatureSpec {
            columns,
            hist_depth: 3,
        });
        let (auc, n) = mean_auc(&pool, &cfg);
        print_row(name, &[format!("{auc:.3}"), format!("({n} datasets)")]);
    }

    // --- Fig 7c: historical depth sweep.
    print_header("Fig 7c: accuracy vs historical depth N");
    for n_hist in [1usize, 2, 3, 4, 5, 6] {
        let mut cfg = PipelineConfig::heimdall();
        cfg.features = FeatureMode::HeimdallDepth(n_hist);
        let (auc, _) = mean_auc(&pool, &cfg);
        print_row(&format!("N={n_hist}"), &[format!("{auc:.3}")]);
    }

    // --- Fig 7d: normalization methods.
    print_header("Fig 7d: accuracy and scaler state by normalization method");
    print_row("scaler", &["roc-auc".into(), "state bytes".into()]);
    for kind in ScalerKind::ALL {
        let mut cfg = PipelineConfig::heimdall();
        cfg.scaling = Some(kind);
        let (auc, _) = mean_auc(&pool, &cfg);
        // State cost from a representative fitted scaler.
        let state = match kind {
            ScalerKind::None => 0,
            ScalerKind::MinMax => 8 * 11,
            ScalerKind::Standard | ScalerKind::Robust => 8 * 4096 * 11,
        };
        print_row(kind.tag(), &[format!("{auc:.3}"), format!("{state}")]);
    }
}

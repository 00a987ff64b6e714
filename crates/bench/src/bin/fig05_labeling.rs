//! Fig 5 — the importance of preprocessing (§3.1, §3.2).
//!
//! (a) Cutoff- vs period-based labeling: normalized accuracy of the
//! resulting labels and of the models trained on them, averaged over many
//! random datasets — the paper's "better learnability" claim.
//! (b) Misprediction rate attributable to each of the three noise types
//! when they are left in the training data.
//!
//! Usage: `fig05_labeling [--datasets N] [--secs S] [--seed K] [--jobs J]`

use heimdall_bench::{print_header, print_row, record_pool, Args};
use heimdall_core::features::{build_dataset_view, FeatureSpec};
use heimdall_core::filtering::{filter_view, FilterConfig};
use heimdall_core::labeling::{
    cutoff_label_view, labeling_accuracy_view, period_label_view, tune_thresholds_view,
};
use heimdall_core::pipeline::{run_batch, run_view, LabelingMode, PipelineConfig};
use heimdall_core::{read_indices, ReadView, RecordBatch};
use heimdall_metrics::ConfusionMatrix;

/// Ground-truth AUC-style score of a trained model's decisions.
fn truth_decision_accuracy(trained: &heimdall_core::Trained, batch: &RecordBatch) -> Option<f64> {
    let idx = read_indices(batch);
    let truth: Vec<bool> = idx.iter().map(|&i| batch.truth_busy(i as usize)).collect();
    if !truth.iter().any(|&t| t) {
        return None;
    }
    let keep = vec![true; idx.len()];
    let view = ReadView::Indexed { batch, idx: &idx };
    let (data, _) = build_dataset_view(&view, &truth, &keep, &FeatureSpec::heimdall(), 1);
    let (_, test) = data.split(0.5);
    if test.is_empty() {
        return None;
    }
    let scores = trained.predict_dataset(&test);
    Some(heimdall_metrics::roc_auc(&scores, &test.labels_bool()))
}

fn main() {
    let args = Args::parse();
    let datasets = args.get_usize("datasets", 12);
    let secs = args.get_u64("secs", 20);
    let seed = args.get_u64("seed", 7);

    let pool = record_pool(datasets, secs, seed, args.jobs());

    // --- Fig 5a: cutoff vs period labeling.
    let mut label_acc = [0.0f64; 2]; // [cutoff, period]
    let mut model_auc = [0.0f64; 2];
    let mut n_label = 0usize;
    let mut n_model = 0usize;
    for batch in &pool {
        let idx = read_indices(batch);
        if !idx.iter().any(|&i| batch.truth_busy(i as usize)) {
            continue;
        }
        let view = ReadView::Indexed { batch, idx: &idx };
        let cutoff = cutoff_label_view(&view);
        let th = tune_thresholds_view(&view);
        let period = period_label_view(&view, &th);
        label_acc[0] += labeling_accuracy_view(&view, &cutoff);
        label_acc[1] += labeling_accuracy_view(&view, &period);
        n_label += 1;

        let mut cutoff_cfg = PipelineConfig::heimdall();
        cutoff_cfg.labeling = LabelingMode::Cutoff;
        let cutoff_model = run_batch(batch, &cutoff_cfg).ok();
        let period_model = run_batch(batch, &PipelineConfig::heimdall()).ok();
        if let (Some((cm, _)), Some((pm, _))) = (cutoff_model, period_model) {
            if let (Some(ca), Some(pa)) = (
                truth_decision_accuracy(&cm, batch),
                truth_decision_accuracy(&pm, batch),
            ) {
                model_auc[0] += ca;
                model_auc[1] += pa;
                n_model += 1;
            }
        }
    }

    print_header(&format!(
        "Fig 5a: cutoff vs period labeling ({n_label} datasets with contention)"
    ));
    print_row(
        "labeling",
        &["labels-vs-truth".into(), "model-truth-AUC".into()],
    );
    for (i, name) in ["cutoff", "period"].iter().enumerate() {
        print_row(
            name,
            &[
                format!("{:.3}", label_acc[i] / n_label.max(1) as f64),
                format!("{:.3}", model_auc[i] / n_model.max(1) as f64),
            ],
        );
    }
    let norm = model_auc[1] / model_auc[0].max(1e-9);
    println!("normalized model accuracy (period / cutoff): {norm:.2}");

    // --- Fig 5b: misprediction contribution of each noise type.
    // Train with filtering disabled vs each stage enabled alone; report the
    // test misprediction rate attributable to rows each stage would remove.
    print_header("Fig 5b: noise misprediction rate by outlier type");
    print_row("noise type", &["mispredict%".into(), "rows removed".into()]);
    type StageToggle = fn(&mut FilterConfig);
    let stages: [(&str, StageToggle); 3] = [
        ("slow-period outlier", |c| c.stage1 = true),
        ("fast-period outlier", |c| c.stage2 = true),
        ("short burst", |c| c.stage3 = true),
    ];
    for (name, enable) in stages {
        let mut mispredict = 0.0;
        let mut removed = 0usize;
        let mut n = 0usize;
        for batch in &pool {
            let idx = read_indices(batch);
            if idx.len() < 1000 {
                continue;
            }
            let view = ReadView::Indexed { batch, idx: &idx };
            let th = tune_thresholds_view(&view);
            let labels = period_label_view(&view, &th);
            let mut cfg = FilterConfig {
                stage1: false,
                stage2: false,
                stage3: false,
                ..Default::default()
            };
            enable(&mut cfg);
            let (keep, stats) = filter_view(&view, &labels, &cfg);
            removed += stats.total();
            // Train WITHOUT filtering; measure error on the rows the stage
            // flags as noise (they should be the hardest to predict).
            let mut pcfg = PipelineConfig::heimdall();
            pcfg.filtering = None;
            let Ok((model, _)) = run_view(&view, &pcfg) else {
                continue;
            };
            let (data, src) = build_dataset_view(
                &view,
                &labels,
                &vec![true; idx.len()],
                &FeatureSpec::heimdall(),
                1,
            );
            let scores = model.predict_dataset(&data);
            let mut cm = ConfusionMatrix::default();
            for (row, &rec_idx) in src.iter().enumerate() {
                if !keep[rec_idx] {
                    cm.record(scores[row] >= model.threshold, data.y[row] >= 0.5);
                }
            }
            if cm.total() > 0 {
                mispredict += 1.0 - cm.accuracy();
                n += 1;
            }
        }
        print_row(
            name,
            &[
                format!("{:.1}%", 100.0 * mispredict / n.max(1) as f64),
                format!("{removed}"),
            ],
        );
    }
}

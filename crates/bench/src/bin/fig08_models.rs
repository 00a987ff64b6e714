//! Fig 8 — model exploration (§3.4).
//!
//! Trains eight classifier families (NN, RNN, SVC, KNN, LogReg, AdaBoost,
//! gradient boosting, random forest) on the same Heimdall-feature datasets
//! and reports each family's mean normalized accuracy and its accuracy
//! variation (standard deviation across datasets) — the two axes of Fig 8.
//! The paper's finding: the NN sits in the upper-left (high accuracy, low
//! variation).
//!
//! Usage: `fig08_models [--datasets N] [--secs S] [--seed K] [--jobs J]`
//!
//! The (family, dataset) training cells fan out over `--jobs` workers and
//! are merged back in canonical order, so the table is identical at any
//! worker count.

use heimdall_bench::{print_header, print_row, record_pool, run_ordered, Args};
use heimdall_core::features::{build_dataset_view, FeatureSpec};
use heimdall_core::filtering::{filter_view, FilterConfig};
use heimdall_core::labeling::{period_label_view, tune_thresholds_view};
use heimdall_core::{read_indices, ReadView, RecordBatch};
use heimdall_metrics::stats::{mean, std_dev};
use heimdall_models::{
    AdaBoost, Classifier, GradientBoosting, KNearestNeighbors, LogisticRegression, MlpWrapper,
    RandomForest, RbfSvc, RnnWrapper,
};
use heimdall_nn::{Dataset, Scaler, ScalerKind};

/// Builds the scaled Heimdall-feature train/test split for one record set.
fn prepare(batch: &RecordBatch) -> Option<(Dataset, Dataset)> {
    let idx = read_indices(batch);
    let view = ReadView::Indexed { batch, idx: &idx };
    let th = tune_thresholds_view(&view);
    let labels = period_label_view(&view, &th);
    if !labels.iter().any(|&l| l) {
        return None;
    }
    let (keep, _) = filter_view(&view, &labels, &FilterConfig::default());
    let (data, _) = build_dataset_view(&view, &labels, &keep, &FeatureSpec::heimdall(), 1);
    let (mut train, mut test) = data.split(0.5);
    // Both halves need enough slow evidence for a meaningful comparison.
    let train_pos = (train.positive_rate() * train.rows() as f64) as usize;
    if train.is_empty() || test.is_empty() || test.positive_rate() == 0.0 || train_pos < 30 {
        return None;
    }
    let scaler = Scaler::fit(ScalerKind::MinMax, &train);
    scaler.transform(&mut train);
    scaler.transform(&mut test);
    train.shuffle(1);
    Some((train, test))
}

fn main() {
    let args = Args::parse();
    let datasets = args.get_usize("datasets", 10);
    let secs = args.get_u64("secs", 20);
    let seed = args.get_u64("seed", 33);
    let pool = record_pool(datasets, secs, seed, args.jobs());

    let splits: Vec<(Dataset, Dataset)> = pool.iter().filter_map(prepare).collect();
    eprintln!("{} of {} datasets usable", splits.len(), pool.len());

    // Fig 8's eight families. The RNN consumes the 3-step history as a
    // sequence, so it gets the 9 sequence features plus padding.
    // Plain fn pointers so the constructor table is `Sync` for the worker
    // pool.
    type FamilyCtor = fn() -> Box<dyn Classifier>;
    let families: Vec<(&str, FamilyCtor)> = vec![
        ("NN", || Box::new(MlpWrapper::default())),
        ("RNN", || Box::new(SeqRnn::default())),
        ("SVC", || Box::new(RbfSvc::default())),
        ("KNN", || Box::new(KNearestNeighbors::default())),
        ("LogReg", || Box::new(LogisticRegression::default())),
        ("AdaBoost", || Box::new(AdaBoost::default())),
        ("LightGBM", || Box::new(GradientBoosting::default())),
        ("RandForest", || Box::new(RandomForest::default())),
    ];

    print_header("Fig 8: model exploration — normalized accuracy vs variation");
    print_row("model", &["mean AUC".into(), "std (variation)".into()]);
    // One training cell per (family, dataset); every model is seeded
    // internally, so cells are independent and scheduling-free.
    let cells: Vec<(usize, usize)> = (0..families.len())
        .flat_map(|fi| (0..splits.len()).map(move |si| (fi, si)))
        .collect();
    let cell_aucs: Vec<f64> = run_ordered(args.jobs(), cells, |&(fi, si)| {
        let (train, test) = &splits[si];
        let mut model = families[fi].1();
        model.fit(train);
        heimdall_models::evaluate_auc(model.as_ref(), test)
    });
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    for (fi, (name, _)) in families.iter().enumerate() {
        let aucs = &cell_aucs[fi * splits.len()..(fi + 1) * splits.len()];
        results.push((name.to_string(), mean(aucs), std_dev(aucs)));
    }
    // Normalize accuracy to the best mean, matching the paper's y-axis.
    let best = results.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (name, m, s) in &results {
        print_row(name, &[format!("{:.3}", m / best), format!("{s:.3}")]);
    }
}

/// RNN adapter: reshapes the 11 Heimdall features into 3 timesteps of
/// (histQueLen, histLat, histThpt) plus the static features appended to the
/// final step.
struct SeqRnn {
    inner: RnnWrapper,
}

impl Default for SeqRnn {
    fn default() -> Self {
        let mut inner = RnnWrapper::default();
        inner.steps = 3;
        inner.hidden = 16;
        SeqRnn { inner }
    }
}

impl SeqRnn {
    /// 11 features -> 3 steps x 5: per step (histQueLen, histLat, histThpt,
    /// queueLen, size); the static values repeat each step.
    fn reshape(row: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(15);
        for k in 0..3 {
            out.push(row[1 + k]); // histQueLen[k]
            out.push(row[4 + k]); // histLat[k]
            out.push(row[7 + k]); // histThpt[k]
            out.push(row[0]); // queueLen
            out.push(row[10]); // size
        }
        out
    }

    fn reshape_dataset(data: &Dataset) -> Dataset {
        let mut out = Dataset::new(15);
        for i in 0..data.rows() {
            out.push(&Self::reshape(data.row(i)), data.y[i]);
        }
        out
    }
}

impl Classifier for SeqRnn {
    fn name(&self) -> &'static str {
        "RNN"
    }

    fn fit(&mut self, data: &Dataset) {
        self.inner.fit(&Self::reshape_dataset(data));
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.inner.predict(&Self::reshape(x))
    }

    fn descriptor(&self) -> Vec<f64> {
        self.inner.descriptor()
    }
}

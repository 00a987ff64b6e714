//! Fig 18 — Heimdall vs AutoML (§8.2).
//!
//! Runs the auto-sklearn-style random search over sixteen classifier
//! families on raw (un-engineered) features, and compares against the full
//! Heimdall pipeline on the same datasets:
//! (a) accuracy per family vs Heimdall,
//! (b) exploration time (measured, plus the paper's reference hours),
//! (c) cross-dataset model similarity (cosine similarity of the winning
//!     architecture descriptors; Heimdall is 1.0 by construction).
//!
//! Usage: `fig18_automl [--datasets N] [--secs S] [--seed K] [--candidates C] [--jobs J]`
//!
//! The (dataset, family) search cells fan out over `--jobs` workers. Each
//! cell derives its own RNG from (seed, cell), so the search is
//! deterministic for a given seed regardless of worker count.

use heimdall_bench::{print_header, print_row, record_pool, run_ordered, Args};
use heimdall_core::features::{build_dataset_view, FeatureSpec};
use heimdall_core::labeling::cutoff_label_view;
use heimdall_core::pipeline::{run_batch, PipelineConfig};
use heimdall_core::{read_indices, Feature, ReadView, RecordBatch};
use heimdall_metrics::stats::{cosine_similarity, mean};
use heimdall_models::automl::Family;
use heimdall_nn::Dataset;
use std::collections::HashMap;
use std::time::Instant;

/// The "raw" dataset AutoML gets: basic trace features only (arrival time,
/// size, queue length, last latency) with cutoff labels — no Heimdall
/// feature engineering (§8.2: "without the manual feature engineering").
fn raw_dataset(batch: &RecordBatch) -> Option<(Dataset, Dataset)> {
    let idx = read_indices(batch);
    let view = ReadView::Indexed { batch, idx: &idx };
    let labels = cutoff_label_view(&view);
    if !labels.iter().any(|&l| l) {
        return None;
    }
    let spec = FeatureSpec {
        columns: vec![
            Feature::Timestamp,
            Feature::Size,
            Feature::QueueLen,
            Feature::HistLatency(0),
        ],
        hist_depth: 1,
    };
    let (data, _) = build_dataset_view(&view, &labels, &vec![true; idx.len()], &spec, 1);
    let (train, test) = data.split(0.5);
    if train.is_empty() || test.is_empty() || test.positive_rate() == 0.0 {
        return None;
    }
    Some((train, test))
}

fn main() {
    let args = Args::parse();
    let datasets = args.get_usize("datasets", 8);
    let secs = args.get_u64("secs", 15);
    let seed = args.get_u64("seed", 8);
    let candidates = args.get_usize("candidates", 2);

    let jobs = args.jobs();
    let pool = record_pool(datasets, secs, seed, jobs);
    let splits: Vec<(Dataset, Dataset)> = pool.iter().filter_map(raw_dataset).collect();
    eprintln!("{} of {} datasets usable", splits.len(), pool.len());

    // Every (dataset, family) cell runs its candidate search independently
    // with an RNG derived from (seed, cell) — scheduling cannot change the
    // sampled candidates.
    let families = Family::ALL;
    let cells: Vec<(usize, usize)> = (0..splits.len())
        .flat_map(|si| (0..families.len()).map(move |fi| (si, fi)))
        .collect();
    let cell_out: Vec<(f64, Vec<f64>, f64)> = run_ordered(jobs, cells.clone(), |&(si, fi)| {
        let (train, test) = &splits[si];
        // Per-dataset base seed; `sample_seeded` folds in the family's
        // stable id and the candidate index, so neither the dataset list
        // nor the family list shifts any other cell's hyperparameters.
        let cell_seed =
            (seed ^ 0x6175).wrapping_add((si as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let t0 = Instant::now();
        let mut best: Option<(f64, Vec<f64>)> = None;
        for c in 0..candidates {
            let mut model = families[fi].sample_seeded(cell_seed, c);
            model.fit(train);
            let auc = heimdall_models::evaluate_auc(model.as_ref(), test);
            if best.as_ref().is_none_or(|(b, _)| auc > *b) {
                best = Some((auc, model.descriptor()));
            }
        }
        let (auc, desc) = best.expect("candidates > 0");
        (auc, desc, t0.elapsed().as_secs_f64())
    });

    // Per-family: accuracy, measured seconds, winning descriptors.
    let mut acc: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut secs_spent: HashMap<&'static str, f64> = HashMap::new();
    let mut descriptors: HashMap<&'static str, Vec<Vec<f64>>> = HashMap::new();
    // The overall winner per dataset — what auto-sklearn would deploy.
    let mut dataset_winners: Vec<Vec<f64>> = Vec::new();
    for si in 0..splits.len() {
        let mut dataset_best: Option<(f64, Vec<f64>)> = None;
        for (fi, family) in families.iter().enumerate() {
            let (auc, desc, dt) = &cell_out[si * families.len() + fi];
            acc.entry(family.paper_name()).or_default().push(*auc);
            *secs_spent.entry(family.paper_name()).or_default() += *dt;
            if dataset_best.as_ref().is_none_or(|(b, _)| auc > b) {
                dataset_best = Some((*auc, desc.clone()));
            }
            descriptors
                .entry(family.paper_name())
                .or_default()
                .push(desc.clone());
        }
        if let Some((_, d)) = dataset_best {
            dataset_winners.push(d);
        }
    }

    // Heimdall on the same record sets (full pipeline, engineered
    // features).
    let heimdall_auc: Vec<f64> = run_ordered(jobs, pool.iter().collect(), |r: &&RecordBatch| {
        run_batch(r, &PipelineConfig::heimdall())
            .ok()
            .filter(|(_, rep)| rep.slow_fraction > 0.0)
            .map(|(_, rep)| rep.metrics.roc_auc)
    })
    .into_iter()
    .flatten()
    .collect();

    print_header("Fig 18: AutoML families vs Heimdall");
    print_row(
        "family",
        &[
            "mean AUC".into(),
            "explore (s)".into(),
            "paper (h)".into(),
            "similarity".into(),
        ],
    );
    for family in Family::ALL {
        let name = family.paper_name();
        let aucs = &acc[name];
        // Cross-dataset cosine similarity of winning descriptors.
        let descs = &descriptors[name];
        let mut sims = Vec::new();
        for i in 0..descs.len() {
            for j in (i + 1)..descs.len() {
                sims.push(cosine_similarity(&descs[i], &descs[j]));
            }
        }
        print_row(
            name,
            &[
                format!("{:.3}", mean(aucs)),
                format!("{:.1}", secs_spent[name]),
                format!("{:.1}", family.paper_hours()),
                format!("{:.3}", if sims.is_empty() { 1.0 } else { mean(&sims) }),
            ],
        );
    }
    print_row(
        "Heimdall",
        &[
            format!("{:.3}", mean(&heimdall_auc)),
            "n/a".into(),
            "n/a".into(),
            "1.000".into(),
        ],
    );
    // Fig 18c's headline number: how similar are the architectures AutoML
    // actually deploys across datasets? (Heimdall is 1.0 by construction.)
    let mut winner_sims = Vec::new();
    for i in 0..dataset_winners.len() {
        for j in (i + 1)..dataset_winners.len() {
            winner_sims.push(cosine_similarity(&dataset_winners[i], &dataset_winners[j]));
        }
    }
    println!();
    println!(
        "cross-dataset similarity of AutoML's winning architectures: {:.3} (Heimdall: 1.000)",
        if winner_sims.is_empty() {
            1.0
        } else {
            mean(&winner_sims)
        }
    );
    println!(
        "AutoML mean accuracy {:.3} vs Heimdall {:.3} ({:+.0}% gap)",
        mean(&acc.values().flatten().copied().collect::<Vec<_>>()),
        mean(&heimdall_auc),
        100.0 * (mean(&acc.values().flatten().copied().collect::<Vec<_>>()) - mean(&heimdall_auc))
            / mean(&heimdall_auc).max(1e-9)
    );
}

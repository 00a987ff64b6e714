//! AutoML random search over the sixteen classifier families of Fig 18,
//! standing in for auto-sklearn in the paper's §8.2 study.
//!
//! Each candidate samples hyperparameters from a family-specific space,
//! trains on a split of the data, and is scored by validation ROC-AUC. The
//! result keeps per-candidate wall time (Fig 18b's exploration cost) and the
//! winning model's architecture descriptor (Fig 18c's cross-dataset cosine
//! similarity).
//!
//! # Determinism
//!
//! Every candidate draws its hyperparameters from its own RNG, seeded by a
//! SplitMix64 mix of `(cfg.seed, family stable id, candidate index)` — see
//! `candidate_seed`. Two consequences:
//!
//! - the search result is byte-identical at any [`AutoMlConfig::jobs`]
//!   count, because no candidate's randomness depends on when (or on which
//!   worker) it runs;
//! - adding or removing a family from [`AutoMlConfig::families`] never
//!   shifts the hyperparameters of the remaining families' candidates,
//!   because seeds derive from the family's *stable* identity (its row in
//!   [`Family::ALL`]), not its position in the configured list.

use crate::{
    AdaBoost, BernoulliNb, Classifier, DecisionTreeClassifier, ExtraTrees, GaussianNb,
    GradientBoosting, KNearestNeighbors, LinearDiscriminant, LinearSvm, MlpWrapper, MultinomialNb,
    PassiveAggressive, QuadraticDiscriminant, RandomForest, RbfSvc, SgdClassifier,
};
use heimdall_nn::Dataset;
use heimdall_trace::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The sixteen classifier families of the Fig 18 AutoML study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Stochastic gradient descent (modified Huber).
    Sgd,
    /// Passive-aggressive classifier.
    PassiveAggressive,
    /// Linear support-vector machine.
    Svm,
    /// RBF support-vector classifier.
    Svc,
    /// K-nearest neighbors.
    Knn,
    /// Bernoulli naive Bayes.
    BernoulliNb,
    /// Gaussian naive Bayes.
    GaussianNb,
    /// Multinomial naive Bayes.
    MultinomialNb,
    /// Decision tree.
    DecisionTree,
    /// Quadratic discriminant analysis.
    Qda,
    /// Linear discriminant analysis.
    Lda,
    /// AdaBoost.
    AdaBoost,
    /// Gradient boosting.
    GradientBoosting,
    /// Random forest.
    RandomForest,
    /// Extra trees.
    ExtraTrees,
    /// Multi-layer perceptron.
    Mlp,
}

impl Family {
    /// All sixteen families, in the paper's Fig 18 row order.
    pub const ALL: [Family; 16] = [
        Family::Sgd,
        Family::PassiveAggressive,
        Family::Svm,
        Family::Svc,
        Family::Knn,
        Family::BernoulliNb,
        Family::GaussianNb,
        Family::MultinomialNb,
        Family::DecisionTree,
        Family::Qda,
        Family::Lda,
        Family::AdaBoost,
        Family::GradientBoosting,
        Family::RandomForest,
        Family::ExtraTrees,
        Family::Mlp,
    ];

    /// Stable identity: this family's row in [`Family::ALL`]. Used for
    /// descriptor one-hot slots and candidate seed derivation, so neither
    /// depends on which families a particular search configures.
    pub(crate) fn stable_id(self) -> usize {
        match self {
            Family::Sgd => 0,
            Family::PassiveAggressive => 1,
            Family::Svm => 2,
            Family::Svc => 3,
            Family::Knn => 4,
            Family::BernoulliNb => 5,
            Family::GaussianNb => 6,
            Family::MultinomialNb => 7,
            Family::DecisionTree => 8,
            Family::Qda => 9,
            Family::Lda => 10,
            Family::AdaBoost => 11,
            Family::GradientBoosting => 12,
            Family::RandomForest => 13,
            Family::ExtraTrees => 14,
            Family::Mlp => 15,
        }
    }

    /// The paper's Fig 18 row label.
    pub fn paper_name(self) -> &'static str {
        match self {
            Family::Sgd => "Stochastic Gradient Descent",
            Family::PassiveAggressive => "Passive Aggressive Classifier",
            Family::Svm => "Support Vector Machine",
            Family::Svc => "Support Vector Classifier",
            Family::Knn => "K-Nearest Neighbors",
            Family::BernoulliNb => "Bernoulli Naive-Bayes",
            Family::GaussianNb => "Gaussian Naive-Bayes",
            Family::MultinomialNb => "Multinomial Naive-Bayes",
            Family::DecisionTree => "Decision Tree",
            Family::Qda => "Quadratic Discriminant",
            Family::Lda => "Linear Discriminant",
            Family::AdaBoost => "Adaboost",
            Family::GradientBoosting => "Gradient Boosting",
            Family::RandomForest => "Random Forest",
            Family::ExtraTrees => "Extra Trees",
            Family::Mlp => "Multi-Layer Perceptron",
        }
    }

    /// Reference exploration cost in hours from Fig 18b, used to scale the
    /// measured times back to the paper's reported magnitudes.
    pub fn paper_hours(self) -> f64 {
        match self {
            Family::Sgd | Family::PassiveAggressive => 1.9,
            Family::Svm => 3.9,
            Family::Svc => 4.7,
            Family::Knn => 2.8,
            Family::BernoulliNb => 1.9,
            Family::GaussianNb => 1.8,
            Family::MultinomialNb => 1.9,
            Family::DecisionTree => 4.7,
            Family::Qda | Family::Lda => 1.9,
            Family::AdaBoost => 3.6,
            Family::GradientBoosting => 4.3,
            Family::RandomForest => 4.8,
            Family::ExtraTrees => 4.0,
            Family::Mlp => 1.9,
        }
    }

    /// Samples a random-hyperparameter candidate from this family.
    pub fn sample(self, rng: &mut Rng64) -> Box<dyn Classifier> {
        match self {
            Family::Sgd => {
                let mut m = SgdClassifier::default();
                m.lr = 10f32.powf(-(1.0 + rng.f32() * 2.0));
                m.epochs = rng.range(4, 16) as usize;
                Box::new(m)
            }
            Family::PassiveAggressive => {
                let mut m = PassiveAggressive::default();
                m.c = 0.1 + rng.f32() * 2.0;
                m.epochs = rng.range(4, 12) as usize;
                Box::new(m)
            }
            Family::Svm => {
                let mut m = LinearSvm::default();
                m.lr = 10f32.powf(-(1.0 + rng.f32() * 2.0));
                m.epochs = rng.range(6, 16) as usize;
                Box::new(m)
            }
            Family::Svc => {
                let mut m = RbfSvc::default();
                m.gamma = 2f32.powf(rng.f32() * 4.0 - 2.0);
                m.n_features = [64, 128, 256][rng.below(3) as usize];
                Box::new(m)
            }
            Family::Knn => {
                let mut m = KNearestNeighbors::default();
                m.k = [3, 5, 9, 15][rng.below(4) as usize];
                Box::new(m)
            }
            Family::BernoulliNb => Box::new(BernoulliNb::default()),
            Family::GaussianNb => Box::new(GaussianNb::default()),
            Family::MultinomialNb => Box::new(MultinomialNb::default()),
            Family::DecisionTree => {
                let mut t = DecisionTreeClassifier::default();
                t.params.max_depth = rng.range(3, 15) as usize;
                Box::new(t)
            }
            Family::Qda => Box::new(QuadraticDiscriminant::default()),
            Family::Lda => Box::new(LinearDiscriminant::default()),
            Family::AdaBoost => {
                let mut m = AdaBoost::default();
                m.n_rounds = rng.range(10, 50) as usize;
                m.stump_depth = rng.range(1, 4) as usize;
                Box::new(m)
            }
            Family::GradientBoosting => {
                let mut m = GradientBoosting::default();
                m.n_rounds = rng.range(20, 60) as usize;
                m.learning_rate = 0.05 + rng.f32() * 0.3;
                m.max_depth = rng.range(2, 6) as usize;
                Box::new(m)
            }
            Family::RandomForest => {
                let mut m = RandomForest::default();
                m.n_trees = rng.range(10, 50) as usize;
                m.max_depth = rng.range(4, 12) as usize;
                Box::new(m)
            }
            Family::ExtraTrees => Box::new(ExtraTrees::default()),
            Family::Mlp => {
                let widths = [[32usize, 8], [64, 16], [128, 16]];
                let w = widths[rng.below(3) as usize];
                let mut m = MlpWrapper::default();
                m.hidden = w.to_vec();
                m.seed = rng.next_u64();
                Box::new(m)
            }
        }
    }

    /// Samples candidate number `candidate` of this family from its own
    /// derived RNG — see `candidate_seed` and the module-level
    /// determinism notes.
    pub fn sample_seeded(self, base_seed: u64, candidate: usize) -> Box<dyn Classifier> {
        let mut rng = Rng64::new(candidate_seed(base_seed, self, candidate as u64));
        self.sample(&mut rng)
    }
}

/// SplitMix64-style seed for one `(family, candidate)` search cell:
/// distinct odd-multiplier increments separate the family and candidate
/// axes before the finalizer scrambles them. The family axis uses
/// [`Family::stable_id`], never the family's position in the configured
/// list.
pub(crate) fn candidate_seed(base: u64, family: Family, candidate: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + family.stable_id() as u64))
        .wrapping_add(0x632b_e591_96d9_a2bbu64.wrapping_mul(1 + candidate));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// AutoML search configuration.
#[derive(Debug, Clone)]
pub struct AutoMlConfig {
    /// Candidates per family.
    pub candidates_per_family: usize,
    /// Families to explore (defaults to all sixteen).
    pub families: Vec<Family>,
    /// Validation fraction of the training data.
    pub val_fraction: f64,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the candidate search (clamped to at least 1).
    /// Results are byte-identical at any value — see the module-level
    /// determinism notes.
    pub jobs: usize,
}

impl Default for AutoMlConfig {
    fn default() -> Self {
        AutoMlConfig {
            candidates_per_family: 2,
            families: Family::ALL.to_vec(),
            val_fraction: 0.3,
            seed: 0,
            jobs: 1,
        }
    }
}

/// One explored candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateReport {
    /// Family row label.
    pub family: String,
    /// Validation ROC-AUC.
    pub auc: f64,
    /// Measured training + validation wall time.
    pub seconds: f64,
    /// Architecture descriptor.
    pub descriptor: Vec<f64>,
}

/// Search outcome.
pub struct AutoMlResult {
    /// The best fitted model.
    pub best: Box<dyn Classifier>,
    /// Best candidate's validation AUC.
    pub best_auc: f64,
    /// Best candidate's family label.
    pub best_family: String,
    /// Every explored candidate.
    pub reports: Vec<CandidateReport>,
    /// Total measured exploration wall time.
    pub total_seconds: f64,
}

impl AutoMlResult {
    /// JSON digest of everything deterministic in the result — candidate
    /// order, families, AUCs (`{:?}` shortest-roundtrip floats), and
    /// descriptors — excluding the measured wall times. Byte-identical
    /// across runs at any job count; the parity suite diffs it directly.
    pub fn deterministic_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        write!(
            s,
            "{{\"best_family\":{:?},\"best_auc\":{:?},\"candidates\":[",
            self.best_family, self.best_auc
        )
        .expect("write to String");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "{{\"family\":{:?},\"auc\":{:?},\"descriptor\":{:?}}}",
                r.family, r.auc, r.descriptor
            )
            .expect("write to String");
        }
        s.push_str("]}");
        s
    }
}

/// Output of one `(family, candidate)` search cell, before the canonical
/// merge.
struct CellOutput {
    model: Box<dyn Classifier>,
    auc: f64,
    seconds: f64,
    descriptor: Vec<f64>,
}

/// The search driver.
pub struct AutoMl;

impl AutoMl {
    /// Runs the random search.
    ///
    /// With `cfg.jobs > 1` the candidate cells are claimed off a shared
    /// counter by a scoped worker pool; the merge then walks the cells in
    /// their canonical order (configured family order, candidate index
    /// within family), so reports, the winner, and every tie-break match
    /// the serial search exactly.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or the config lists no families.
    pub fn run(data: &Dataset, cfg: &AutoMlConfig) -> AutoMlResult {
        assert!(!data.is_empty(), "empty dataset");
        assert!(!cfg.families.is_empty(), "no families configured");
        let (train, val) = data.split(1.0 - cfg.val_fraction);
        assert!(
            !train.is_empty() && !val.is_empty(),
            "split produced an empty side"
        );

        let started = Instant::now();
        let cells: Vec<(Family, usize)> = cfg
            .families
            .iter()
            .flat_map(|&f| (0..cfg.candidates_per_family).map(move |c| (f, c)))
            .collect();
        let jobs = cfg.jobs.clamp(1, cells.len().max(1));

        let outputs: Vec<CellOutput> = if jobs <= 1 {
            cells
                .iter()
                .map(|&(family, c)| Self::run_cell(&train, &val, cfg.seed, family, c))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<CellOutput>>> =
                cells.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(family, c)) = cells.get(i) else {
                            break;
                        };
                        let out = Self::run_cell(&train, &val, cfg.seed, family, c);
                        *slots[i].lock().expect("cell slot lock") = Some(out);
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("cell slot lock")
                        .expect("worker filled every claimed cell")
                })
                .collect()
        };

        let mut reports = Vec::with_capacity(outputs.len());
        let mut best: Option<(Box<dyn Classifier>, f64, String)> = None;
        for (&(family, _), out) in cells.iter().zip(outputs) {
            reports.push(CandidateReport {
                family: family.paper_name().to_string(),
                auc: out.auc,
                seconds: out.seconds,
                descriptor: out.descriptor,
            });
            // Strict `>`: the earliest cell in canonical order wins ties,
            // matching the serial search.
            if best.as_ref().is_none_or(|(_, b, _)| out.auc > *b) {
                best = Some((out.model, out.auc, family.paper_name().to_string()));
            }
        }
        let (best, best_auc, best_family) = best.expect("at least one candidate");
        AutoMlResult {
            best,
            best_auc,
            best_family,
            reports,
            total_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Trains and scores one candidate cell. Pure in everything but the
    /// wall-time measurement: the model depends only on
    /// `(seed, family, candidate)` and the data split.
    fn run_cell(
        train: &Dataset,
        val: &Dataset,
        seed: u64,
        family: Family,
        candidate: usize,
    ) -> CellOutput {
        let t0 = Instant::now();
        let mut model = family.sample_seeded(seed, candidate);
        model.fit(train);
        let auc = crate::evaluate_auc(model.as_ref(), val);
        let descriptor = model.descriptor();
        CellOutput {
            model,
            auc,
            seconds: t0.elapsed().as_secs_f64(),
            descriptor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            d.push(&[a, b], if a + b > 1.0 { 1.0 } else { 0.0 });
        }
        d
    }

    #[test]
    fn search_finds_a_competent_model() {
        let data = toy(2000, 1);
        let cfg = AutoMlConfig {
            candidates_per_family: 1,
            families: vec![Family::Lda, Family::GaussianNb, Family::DecisionTree],
            ..Default::default()
        };
        let result = AutoMl::run(&data, &cfg);
        assert!(result.best_auc > 0.9, "auc {}", result.best_auc);
        assert_eq!(result.reports.len(), 3);
    }

    #[test]
    fn all_sixteen_families_sample_and_fit() {
        let data = toy(400, 2);
        let mut rng = Rng64::new(3);
        for family in Family::ALL {
            let mut m = family.sample(&mut rng);
            m.fit(&data);
            let p = m.predict(data.row(0));
            assert!((0.0..=1.0).contains(&p), "{}", family.paper_name());
        }
    }

    #[test]
    fn family_names_match_fig18_rows() {
        assert_eq!(Family::ALL.len(), 16);
        let names: Vec<_> = Family::ALL.iter().map(|f| f.paper_name()).collect();
        assert!(names.contains(&"Random Forest"));
        assert!(names.contains(&"Quadratic Discriminant"));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy(600, 4);
        let cfg = AutoMlConfig {
            candidates_per_family: 1,
            families: vec![Family::DecisionTree, Family::Lda],
            seed: 99,
            ..Default::default()
        };
        let a = AutoMl::run(&data, &cfg);
        let b = AutoMl::run(&data, &cfg);
        assert_eq!(a.best_auc, b.best_auc);
        assert_eq!(a.best_family, b.best_family);
    }

    #[test]
    fn stable_ids_index_family_all() {
        for (i, f) in Family::ALL.iter().enumerate() {
            assert_eq!(f.stable_id(), i, "{}", f.paper_name());
        }
    }

    #[test]
    fn job_count_does_not_change_results() {
        let data = toy(900, 6);
        let serial = AutoMl::run(
            &data,
            &AutoMlConfig {
                candidates_per_family: 2,
                families: vec![Family::DecisionTree, Family::Lda, Family::GaussianNb],
                seed: 7,
                jobs: 1,
                ..Default::default()
            },
        );
        let parallel = AutoMl::run(
            &data,
            &AutoMlConfig {
                candidates_per_family: 2,
                families: vec![Family::DecisionTree, Family::Lda, Family::GaussianNb],
                seed: 7,
                jobs: 3,
                ..Default::default()
            },
        );
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        let probe = toy(32, 8);
        for i in 0..probe.rows() {
            assert_eq!(
                serial.best.predict(probe.row(i)).to_bits(),
                parallel.best.predict(probe.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn family_insertion_does_not_shift_other_candidates() {
        let data = toy(700, 9);
        let narrow = AutoMl::run(
            &data,
            &AutoMlConfig {
                candidates_per_family: 2,
                families: vec![Family::DecisionTree, Family::Lda],
                seed: 11,
                ..Default::default()
            },
        );
        let wide = AutoMl::run(
            &data,
            &AutoMlConfig {
                candidates_per_family: 2,
                families: vec![Family::DecisionTree, Family::GaussianNb, Family::Lda],
                seed: 11,
                ..Default::default()
            },
        );
        let pick = |r: &AutoMlResult, fam: &str| -> Vec<(f64, Vec<f64>)> {
            r.reports
                .iter()
                .filter(|c| c.family == fam)
                .map(|c| (c.auc, c.descriptor.clone()))
                .collect()
        };
        for fam in ["Decision Tree", "Linear Discriminant"] {
            assert_eq!(pick(&narrow, fam), pick(&wide, fam), "{fam}");
        }
    }

    #[test]
    fn candidate_seeds_are_distinct_across_cells() {
        let mut seen = std::collections::HashSet::new();
        for f in Family::ALL {
            for c in 0..8 {
                assert!(seen.insert(candidate_seed(42, f, c)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no families configured")]
    fn empty_families_panics() {
        let data = toy(100, 5);
        AutoMl::run(
            &data,
            &AutoMlConfig {
                families: vec![],
                ..Default::default()
            },
        );
    }
}

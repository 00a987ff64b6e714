//! Classical machine-learning baselines and AutoML search.
//!
//! The paper's model-exploration stage (§3.4, Fig 8) compares the neural
//! network against RNN, SVC, KNN, logistic regression, AdaBoost, gradient
//! boosting, and random forests; the AutoML study (§8.2, Fig 18) covers 16
//! scikit-learn classifier families. This crate implements those families
//! from scratch behind one [`Classifier`] trait so the benches can sweep
//! them uniformly.
//!
//! # Examples
//!
//! ```
//! use heimdall_models::{Classifier, LogisticRegression};
//! use heimdall_nn::Dataset;
//!
//! let mut data = Dataset::new(1);
//! for i in 0..100 {
//!     data.push(&[i as f32 / 100.0], if i >= 50 { 1.0 } else { 0.0 });
//! }
//! let mut model = LogisticRegression::default();
//! model.fit(&data);
//! assert!(model.predict(&[0.95]) > model.predict(&[0.05]));
//! ```

pub mod automl;
mod bayes;
mod ensemble;
pub mod knn;
pub mod linear;
mod svm;
pub mod tree;
pub mod zoo;

use heimdall_nn::Dataset;

pub use automl::{AutoMl, AutoMlConfig, AutoMlResult, CandidateReport, Family};
pub(crate) use bayes::{BernoulliNb, GaussianNb, MultinomialNb};
pub use ensemble::{AdaBoost, ExtraTrees, GradientBoosting, RandomForest};
pub use knn::KNearestNeighbors;
pub use linear::LogisticRegression;
pub(crate) use linear::{
    LinearDiscriminant, LinearSvm, PassiveAggressive, QuadraticDiscriminant, SgdClassifier,
};
pub use svm::RbfSvc;
pub use tree::{SplitMode, Tree, TreeParams, TreeTask};
pub(crate) use zoo::DecisionTreeClassifier;
pub use zoo::{MlpWrapper, RnnWrapper};

/// A binary classifier predicting `P(slow)` for a feature row.
///
/// All models use label `1.0` = slow (decline/reroute), `0.0` = fast.
///
/// `Send` is required so the AutoML search can fan candidates out across
/// worker threads; every model here is plain owned data.
pub trait Classifier: Send {
    /// Human-readable family name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Fits the model to a dataset.
    ///
    /// # Panics
    ///
    /// Implementations panic when the dataset is empty.
    fn fit(&mut self, data: &Dataset);

    /// Probability of the slow class for one row.
    fn predict(&self, x: &[f32]) -> f32;

    /// Predictions for every row, bitwise-identical to calling
    /// [`Classifier::predict`] per row. The default is the scalar loop;
    /// families with a batch-friendly structure (trees, KNN, linear
    /// scorers) override it with one-matrix-pass kernels.
    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        (0..data.rows())
            .map(|i| self.predict(data.row(i)))
            .collect()
    }

    /// Predictions for every row (routed through the batched kernel).
    fn predict_all(&self, data: &Dataset) -> Vec<f32> {
        self.predict_batch(data)
    }

    /// Fixed-length architecture descriptor for the cross-dataset model
    /// similarity analysis (Fig 18c). Same-family models with the same
    /// hyperparameters must return identical descriptors.
    fn descriptor(&self) -> Vec<f64>;
}

/// Applies `score` to every row of `data` in one pass over its contiguous
/// row storage — the shared shape of the linear/NB/discriminant batch
/// kernels. The dim-0 degenerate case scores an empty slice per row.
pub(crate) fn batch_rows(data: &Dataset, mut score: impl FnMut(&[f32]) -> f32) -> Vec<f32> {
    if data.dim == 0 {
        return (0..data.rows()).map(|_| score(&[])).collect();
    }
    data.x.chunks_exact(data.dim).map(&mut score).collect()
}

/// Convenience: ROC-AUC of a fitted classifier on a dataset.
pub fn evaluate_auc(model: &dyn Classifier, data: &Dataset) -> f64 {
    heimdall_metrics::roc_auc(&model.predict_all(data), &data.labels_bool())
}

/// Length of a normalized descriptor: 16 one-hot family slots followed by
/// 16 hyperparameter slots.
pub(crate) const DESCRIPTOR_LEN: usize = 32;

/// Pads/truncates a descriptor to the workspace-standard
/// [`DESCRIPTOR_LEN`] slots so cosine similarity is well-defined across
/// families: slots 0-15 one-hot the family (ids follow the
/// [`automl::Family::ALL`] row order; the non-AutoML wrappers
/// LogisticRegression and RnnWrapper reuse their nearest family's slot),
/// slots 16-31 carry hyperparameters.
///
/// # Panics
///
/// Panics if `family_id >= 16` — every family must own a dedicated slot,
/// the seed's `% 8` wraparound silently aliased families (e.g. 0/8, 7/15)
/// and inflated Fig 18c cross-family similarity.
pub(crate) fn normalize_descriptor(mut v: Vec<f64>, family_id: usize) -> Vec<f64> {
    assert!(family_id < 16, "family_id {family_id} out of one-hot range");
    let mut out = vec![0.0; DESCRIPTOR_LEN];
    out[family_id] = 1.0;
    v.truncate(16);
    for (i, x) in v.into_iter().enumerate() {
        out[16 + i] = x;
    }
    out
}

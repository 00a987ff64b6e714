//! Linear-family classifiers: logistic regression, perceptron,
//! passive-aggressive, linear SVM, a generic SGD classifier, and the two
//! discriminant-analysis models (diagonal-covariance LDA/QDA — the full
//! covariance inverse is unnecessary at the feature counts used here and a
//! diagonal model keeps the implementation dependency-free; the restriction
//! is noted in DESIGN.md).

use crate::Classifier;
use heimdall_nn::activation::sigmoid;
use heimdall_nn::Dataset;
use heimdall_trace::rng::Rng64;
use serde::{Deserialize, Serialize};

fn dot(w: &[f32], x: &[f32]) -> f32 {
    w.iter().zip(x).map(|(a, b)| a * b).sum()
}

/// One-matrix-pass margin scoring shared by every linear model here:
/// `sigmoid(w·x + b)` per contiguous row, bitwise-identical to the
/// per-row scalar path.
fn sigmoid_margin_batch(w: &[f32], b: f32, data: &Dataset) -> Vec<f32> {
    crate::batch_rows(data, |x| sigmoid(dot(w, x) + b))
}

/// Logistic regression trained with SGD on log-loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Learning rate.
    pub lr: f32,
    /// Epochs.
    pub epochs: usize,
    /// L2 regularization.
    pub l2: f32,
    w: Vec<f32>,
    b: f32,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            lr: 0.1,
            epochs: 12,
            l2: 1e-5,
            w: Vec::new(),
            b: 0.0,
        }
    }
}

impl Classifier for LogisticRegression {
    fn name(&self) -> &'static str {
        "LogReg"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        self.w = vec![0.0; data.dim];
        self.b = 0.0;
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(0x6c72);
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = data.row(i);
                let p = sigmoid(dot(&self.w, x) + self.b);
                let g = p - data.y[i];
                for (w, &xv) in self.w.iter_mut().zip(x) {
                    *w -= self.lr * (g * xv + self.l2 * *w);
                }
                self.b -= self.lr * g;
            }
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        sigmoid(dot(&self.w, x) + self.b)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        sigmoid_margin_batch(&self.w, self.b, data)
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![self.lr as f64, self.epochs as f64, self.l2 as f64], 0)
    }
}

/// Classic perceptron with margin-free updates; outputs a squashed margin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Perceptron {
    /// Epochs.
    pub epochs: usize,
    w: Vec<f32>,
    b: f32,
}

impl Default for Perceptron {
    fn default() -> Self {
        Perceptron {
            epochs: 10,
            w: Vec::new(),
            b: 0.0,
        }
    }
}

impl Classifier for Perceptron {
    fn name(&self) -> &'static str {
        "Perceptron"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        self.w = vec![0.0; data.dim];
        self.b = 0.0;
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(0x7063);
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = data.row(i);
                let y = if data.y[i] >= 0.5 { 1.0 } else { -1.0 };
                if y * (dot(&self.w, x) + self.b) <= 0.0 {
                    for (w, &xv) in self.w.iter_mut().zip(x) {
                        *w += y * xv;
                    }
                    self.b += y;
                }
            }
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        sigmoid(dot(&self.w, x) + self.b)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        sigmoid_margin_batch(&self.w, self.b, data)
    }

    fn descriptor(&self) -> Vec<f64> {
        // Not one of the sixteen AutoML families: shares the SGD slot
        // (both plain linear margin learners; Fig 18c never compares it).
        crate::normalize_descriptor(vec![self.epochs as f64], 0)
    }
}

/// Passive-aggressive classifier (PA-I with aggressiveness `c`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PassiveAggressive {
    /// Aggressiveness cap.
    pub c: f32,
    /// Epochs.
    pub epochs: usize,
    w: Vec<f32>,
    b: f32,
}

impl Default for PassiveAggressive {
    fn default() -> Self {
        PassiveAggressive {
            c: 1.0,
            epochs: 8,
            w: Vec::new(),
            b: 0.0,
        }
    }
}

impl Classifier for PassiveAggressive {
    fn name(&self) -> &'static str {
        "PassiveAggressive"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        self.w = vec![0.0; data.dim];
        self.b = 0.0;
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(0x7061);
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = data.row(i);
                let y = if data.y[i] >= 0.5 { 1.0 } else { -1.0 };
                let margin = y * (dot(&self.w, x) + self.b);
                let loss = (1.0 - margin).max(0.0);
                if loss > 0.0 {
                    let norm2 = dot(x, x) + 1.0;
                    let tau = (loss / norm2).min(self.c);
                    for (w, &xv) in self.w.iter_mut().zip(x) {
                        *w += tau * y * xv;
                    }
                    self.b += tau * y;
                }
            }
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        sigmoid(dot(&self.w, x) + self.b)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        sigmoid_margin_batch(&self.w, self.b, data)
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![self.c as f64, self.epochs as f64], 1)
    }
}

/// Linear SVM via SGD on hinge loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LinearSvm {
    /// Learning rate.
    pub lr: f32,
    /// Epochs.
    pub epochs: usize,
    /// L2 regularization.
    pub l2: f32,
    w: Vec<f32>,
    b: f32,
}

impl Default for LinearSvm {
    fn default() -> Self {
        LinearSvm {
            lr: 0.05,
            epochs: 12,
            l2: 1e-4,
            w: Vec::new(),
            b: 0.0,
        }
    }
}

impl Classifier for LinearSvm {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        self.w = vec![0.0; data.dim];
        self.b = 0.0;
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(0x7376);
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = data.row(i);
                let y = if data.y[i] >= 0.5 { 1.0 } else { -1.0 };
                let margin = y * (dot(&self.w, x) + self.b);
                for (w, &xv) in self.w.iter_mut().zip(x) {
                    let g = if margin < 1.0 { -y * xv } else { 0.0 };
                    *w -= self.lr * (g + self.l2 * *w);
                }
                if margin < 1.0 {
                    self.b += self.lr * y;
                }
            }
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        sigmoid(dot(&self.w, x) + self.b)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        sigmoid_margin_batch(&self.w, self.b, data)
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![self.lr as f64, self.epochs as f64, self.l2 as f64], 2)
    }
}

/// Generic SGD classifier (the scikit-learn `SGDClassifier` analogue):
/// modified-Huber-style smoothed hinge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SgdClassifier {
    /// Learning rate.
    pub lr: f32,
    /// Epochs.
    pub epochs: usize,
    w: Vec<f32>,
    b: f32,
}

impl Default for SgdClassifier {
    fn default() -> Self {
        SgdClassifier {
            lr: 0.05,
            epochs: 10,
            w: Vec::new(),
            b: 0.0,
        }
    }
}

impl Classifier for SgdClassifier {
    fn name(&self) -> &'static str {
        "SGD"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        self.w = vec![0.0; data.dim];
        self.b = 0.0;
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(0x7367);
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = data.row(i);
                let y = if data.y[i] >= 0.5 { 1.0 } else { -1.0 };
                let margin = y * (dot(&self.w, x) + self.b);
                // Modified Huber gradient.
                let g = if margin >= 1.0 {
                    0.0
                } else if margin >= -1.0 {
                    -2.0 * (1.0 - margin) * y
                } else {
                    -4.0 * y
                };
                if g != 0.0 {
                    for (w, &xv) in self.w.iter_mut().zip(x) {
                        *w -= self.lr * g * xv;
                    }
                    self.b -= self.lr * g;
                }
            }
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        sigmoid(dot(&self.w, x) + self.b)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        sigmoid_margin_batch(&self.w, self.b, data)
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![self.lr as f64, self.epochs as f64], 0)
    }
}

/// Per-class Gaussian statistics with a *shared* diagonal covariance (LDA).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct LinearDiscriminant {
    mean0: Vec<f64>,
    mean1: Vec<f64>,
    var: Vec<f64>,
    prior1: f64,
}

impl Classifier for LinearDiscriminant {
    fn name(&self) -> &'static str {
        "LDA"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        let (m0, v0, n0) = class_moments(data, false);
        let (m1, v1, n1) = class_moments(data, true);
        let n = (n0 + n1).max(1.0);
        // Pooled variance.
        self.var = v0
            .iter()
            .zip(&v1)
            .map(|(a, b)| ((a * n0 + b * n1) / n).max(1e-9))
            .collect();
        self.mean0 = m0;
        self.mean1 = m1;
        self.prior1 = (n1 / n).clamp(1e-6, 1.0 - 1e-6);
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.score_row(x)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        crate::batch_rows(data, |x| self.score_row(x))
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![1.0], 10)
    }
}

impl LinearDiscriminant {
    fn score_row(&self, x: &[f32]) -> f32 {
        let mut log_odds = (self.prior1 / (1.0 - self.prior1)).ln();
        for (i, &xv) in x.iter().enumerate() {
            let xv = xv as f64;
            let d1 = xv - self.mean1[i];
            let d0 = xv - self.mean0[i];
            log_odds += (d0 * d0 - d1 * d1) / (2.0 * self.var[i]);
        }
        sigmoid(log_odds as f32)
    }
}

/// Per-class Gaussian with *per-class* diagonal covariance (QDA).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct QuadraticDiscriminant {
    mean0: Vec<f64>,
    mean1: Vec<f64>,
    var0: Vec<f64>,
    var1: Vec<f64>,
    prior1: f64,
}

impl Classifier for QuadraticDiscriminant {
    fn name(&self) -> &'static str {
        "QDA"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        let (m0, v0, n0) = class_moments(data, false);
        let (m1, v1, n1) = class_moments(data, true);
        self.mean0 = m0;
        self.mean1 = m1;
        self.var0 = v0.into_iter().map(|v| v.max(1e-9)).collect();
        self.var1 = v1.into_iter().map(|v| v.max(1e-9)).collect();
        self.prior1 = (n1 / (n0 + n1).max(1.0)).clamp(1e-6, 1.0 - 1e-6);
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.score_row(x)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        crate::batch_rows(data, |x| self.score_row(x))
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![2.0], 9)
    }
}

impl QuadraticDiscriminant {
    fn score_row(&self, x: &[f32]) -> f32 {
        let mut log_odds = (self.prior1 / (1.0 - self.prior1)).ln();
        for (i, &xv) in x.iter().enumerate() {
            let xv = xv as f64;
            let d1 = xv - self.mean1[i];
            let d0 = xv - self.mean0[i];
            log_odds += d0 * d0 / (2.0 * self.var0[i]) - d1 * d1 / (2.0 * self.var1[i]);
            log_odds += 0.5 * (self.var0[i].ln() - self.var1[i].ln());
        }
        sigmoid(log_odds as f32)
    }
}

/// Per-class mean/variance/count over a dataset (shared with the
/// naive-Bayes module).
pub(crate) fn class_moments_pub(data: &Dataset, positive: bool) -> (Vec<f64>, Vec<f64>, f64) {
    class_moments(data, positive)
}

/// Per-class mean/variance/count over a dataset.
fn class_moments(data: &Dataset, positive: bool) -> (Vec<f64>, Vec<f64>, f64) {
    let mut mean = vec![0.0f64; data.dim];
    let mut count = 0.0f64;
    for i in 0..data.rows() {
        if (data.y[i] >= 0.5) == positive {
            count += 1.0;
            for (m, &x) in mean.iter_mut().zip(data.row(i)) {
                *m += x as f64;
            }
        }
    }
    if count == 0.0 {
        return (vec![0.0; data.dim], vec![1.0; data.dim], 0.0);
    }
    for m in &mut mean {
        *m /= count;
    }
    let mut var = vec![0.0f64; data.dim];
    for i in 0..data.rows() {
        if (data.y[i] >= 0.5) == positive {
            for (k, &x) in data.row(i).iter().enumerate() {
                let d = x as f64 - mean[k];
                var[k] += d * d;
            }
        }
    }
    for v in &mut var {
        *v /= count;
    }
    (mean, var, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_auc;

    fn linear_data(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let a = rng.f32() * 2.0 - 1.0;
            let b = rng.f32() * 2.0 - 1.0;
            let c = rng.f32() * 2.0 - 1.0;
            d.push(
                &[a, b, c],
                if a - 0.5 * b + 0.2 * c > 0.1 {
                    1.0
                } else {
                    0.0
                },
            );
        }
        d
    }

    fn check_learns(model: &mut dyn Classifier, min_auc: f64) {
        let train = linear_data(3000, 100);
        let test = linear_data(800, 101);
        model.fit(&train);
        let auc = evaluate_auc(model, &test);
        assert!(auc > min_auc, "{}: auc {auc}", model.name());
    }

    #[test]
    fn logreg_learns() {
        check_learns(&mut LogisticRegression::default(), 0.97);
    }

    #[test]
    fn perceptron_learns() {
        check_learns(&mut Perceptron::default(), 0.9);
    }

    #[test]
    fn passive_aggressive_learns() {
        check_learns(&mut PassiveAggressive::default(), 0.95);
    }

    #[test]
    fn linear_svm_learns() {
        check_learns(&mut LinearSvm::default(), 0.95);
    }

    #[test]
    fn sgd_classifier_learns() {
        check_learns(&mut SgdClassifier::default(), 0.95);
    }

    #[test]
    fn lda_learns() {
        check_learns(&mut LinearDiscriminant::default(), 0.95);
    }

    #[test]
    fn qda_learns() {
        check_learns(&mut QuadraticDiscriminant::default(), 0.95);
    }

    #[test]
    fn qda_handles_unequal_variances() {
        // Class 1 is a tight cluster inside a wide class-0 cloud: only a
        // quadratic boundary separates them.
        let mut rng = Rng64::new(7);
        let mut d = Dataset::new(2);
        for _ in 0..3000 {
            if rng.chance(0.5) {
                d.push(
                    &[rng.normal(0.0, 0.2) as f32, rng.normal(0.0, 0.2) as f32],
                    1.0,
                );
            } else {
                d.push(
                    &[rng.normal(0.0, 2.0) as f32, rng.normal(0.0, 2.0) as f32],
                    0.0,
                );
            }
        }
        let mut qda = QuadraticDiscriminant::default();
        qda.fit(&d);
        let auc = evaluate_auc(&qda, &d);
        assert!(auc > 0.85, "auc {auc}");
    }

    #[test]
    fn missing_class_does_not_crash() {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            d.push(&[i as f32, 0.0], 0.0);
        }
        let mut lda = LinearDiscriminant::default();
        lda.fit(&d);
        assert!(lda.predict(&[1.0, 0.0]).is_finite());
    }

    #[test]
    fn descriptors_stable_per_family() {
        let a = LogisticRegression::default().descriptor();
        let b = LogisticRegression::default().descriptor();
        assert_eq!(a, b);
        assert_ne!(a, LinearSvm::default().descriptor());
        assert_eq!(a.len(), crate::DESCRIPTOR_LEN);
    }

    #[test]
    fn one_hot_family_slots_do_not_collide() {
        // The seed's `% 8` wraparound aliased e.g. LDA (5) with tree
        // ensembles; every family must now own a distinct one-hot slot.
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(SgdClassifier::default()),
            Box::new(PassiveAggressive::default()),
            Box::new(LinearSvm::default()),
            Box::new(crate::RbfSvc::default()),
            Box::new(crate::KNearestNeighbors::default()),
            Box::new(crate::BernoulliNb::default()),
            Box::new(crate::GaussianNb::default()),
            Box::new(crate::MultinomialNb::default()),
            Box::new(crate::DecisionTreeClassifier::default()),
            Box::new(QuadraticDiscriminant::default()),
            Box::new(LinearDiscriminant::default()),
            Box::new(crate::AdaBoost::default()),
            Box::new(crate::GradientBoosting::default()),
            Box::new(crate::RandomForest::default()),
            Box::new(crate::ExtraTrees::default()),
            Box::new(crate::MlpWrapper::default()),
        ];
        let slots: Vec<usize> = models
            .iter()
            .map(|m| {
                let d = m.descriptor();
                let hot: Vec<usize> = (0..16).filter(|&i| d[i] == 1.0).collect();
                assert_eq!(hot.len(), 1, "{} must one-hot exactly one slot", m.name());
                hot[0]
            })
            .collect();
        // Slots follow Family::ALL row order exactly.
        for (i, &s) in slots.iter().enumerate() {
            assert_eq!(s, i, "{}", models[i].name());
        }
    }
}

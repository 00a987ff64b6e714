//! Naive-Bayes family: Gaussian, Bernoulli, Multinomial — three of the
//! sixteen AutoML classifier rows of Fig 18.
//!
//! Each model folds its class-conditional parameters into per-feature
//! log-odds tables at fit time, so scoring a row is a single table walk
//! with no `ln` calls, and `predict_batch` streams those walks over the
//! dataset's contiguous row storage.

use crate::Classifier;
use heimdall_nn::activation::sigmoid;
use heimdall_nn::Dataset;
use serde::{Deserialize, Serialize};

/// Gaussian naive Bayes with per-feature class-conditional normals.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct GaussianNb {
    mean: [Vec<f64>; 2],
    var: [Vec<f64>; 2],
    log_prior: [f64; 2],
    /// `1 / (2 * var[class][i])`, folded at fit so scoring needs no
    /// divisions.
    inv_two_var: [Vec<f64>; 2],
    /// `Σ_i 0.5 * (ln var[0][i] − ln var[1][i])` — the normalization
    /// constants of the two class likelihoods collapse to one scalar (the
    /// `2π` factors cancel in the odds ratio).
    log_norm_const: f64,
}

impl GaussianNb {
    fn score_row(&self, x: &[f32]) -> f32 {
        let mut log_odds = self.log_prior[1] - self.log_prior[0] + self.log_norm_const;
        for (i, &xv) in x.iter().enumerate() {
            let xv = xv as f64;
            let d0 = xv - self.mean[0][i];
            let d1 = xv - self.mean[1][i];
            log_odds += d0 * d0 * self.inv_two_var[0][i] - d1 * d1 * self.inv_two_var[1][i];
        }
        sigmoid(log_odds as f32)
    }
}

impl Classifier for GaussianNb {
    fn name(&self) -> &'static str {
        "GaussianNB"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        for class in 0..2 {
            let positive = class == 1;
            let (m, v, n) = super::linear::class_moments_pub(data, positive);
            self.mean[class] = m;
            self.var[class] = v.into_iter().map(|x| x.max(1e-9)).collect();
            self.log_prior[class] = ((n + 1.0) / (data.rows() as f64 + 2.0)).ln();
            self.inv_two_var[class] = self.var[class].iter().map(|&v| 1.0 / (2.0 * v)).collect();
        }
        self.log_norm_const = self.var[0]
            .iter()
            .zip(&self.var[1])
            .map(|(&v0, &v1)| 0.5 * (v0.ln() - v1.ln()))
            .sum();
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.score_row(x)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        crate::batch_rows(data, |x| self.score_row(x))
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![1.0], 6)
    }
}

/// Bernoulli naive Bayes; features are binarized at their training mean.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct BernoulliNb {
    thresholds: Vec<f64>,
    /// `p[class][feature]` = P(feature on | class), Laplace-smoothed.
    p_on: [Vec<f64>; 2],
    log_prior: [f64; 2],
    /// `ln p_on[1][k] − ln p_on[0][k]`: log-odds contribution of an
    /// active feature.
    w_on: Vec<f64>,
    /// `ln (1−p_on[1][k]) − ln (1−p_on[0][k])`: contribution of an
    /// inactive feature.
    w_off: Vec<f64>,
}

impl BernoulliNb {
    fn score_row(&self, x: &[f32]) -> f32 {
        let mut log_odds = self.log_prior[1] - self.log_prior[0];
        for (k, &xv) in x.iter().enumerate() {
            log_odds += if xv as f64 > self.thresholds[k] {
                self.w_on[k]
            } else {
                self.w_off[k]
            };
        }
        sigmoid(log_odds as f32)
    }
}

impl Classifier for BernoulliNb {
    fn name(&self) -> &'static str {
        "BernoulliNB"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        self.thresholds = (0..data.dim)
            .map(|c| heimdall_metrics::stats::mean(&data.column_f64(c)))
            .collect();
        let mut on = [vec![0.0f64; data.dim], vec![0.0f64; data.dim]];
        let mut count = [0.0f64; 2];
        for i in 0..data.rows() {
            let class = usize::from(data.y[i] >= 0.5);
            count[class] += 1.0;
            for (k, &x) in data.row(i).iter().enumerate() {
                if x as f64 > self.thresholds[k] {
                    on[class][k] += 1.0;
                }
            }
        }
        for class in 0..2 {
            self.p_on[class] = on[class]
                .iter()
                .map(|&c| (c + 1.0) / (count[class] + 2.0))
                .collect();
            self.log_prior[class] = ((count[class] + 1.0) / (data.rows() as f64 + 2.0)).ln();
        }
        self.w_on = self.p_on[1]
            .iter()
            .zip(&self.p_on[0])
            .map(|(&p1, &p0)| p1.ln() - p0.ln())
            .collect();
        self.w_off = self.p_on[1]
            .iter()
            .zip(&self.p_on[0])
            .map(|(&p1, &p0)| (1.0 - p1).ln() - (1.0 - p0).ln())
            .collect();
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.score_row(x)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        crate::batch_rows(data, |x| self.score_row(x))
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![2.0], 5)
    }
}

/// Multinomial naive Bayes; negative feature values are clamped to zero
/// (the model expects count-like inputs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct MultinomialNb {
    /// `log_p[class][feature]`.
    log_p: [Vec<f64>; 2],
    log_prior: [f64; 2],
    /// `log_p[1][k] − log_p[0][k]`, folded at fit.
    dlog: Vec<f64>,
}

impl MultinomialNb {
    fn score_row(&self, x: &[f32]) -> f32 {
        let mut log_odds = self.log_prior[1] - self.log_prior[0];
        for (k, &xv) in x.iter().enumerate() {
            log_odds += (xv as f64).max(0.0) * self.dlog[k];
        }
        sigmoid(log_odds as f32)
    }
}

impl Classifier for MultinomialNb {
    fn name(&self) -> &'static str {
        "MultinomialNB"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        let mut totals = [vec![0.0f64; data.dim], vec![0.0f64; data.dim]];
        let mut count = [0.0f64; 2];
        for i in 0..data.rows() {
            let class = usize::from(data.y[i] >= 0.5);
            count[class] += 1.0;
            for (k, &x) in data.row(i).iter().enumerate() {
                totals[class][k] += (x as f64).max(0.0);
            }
        }
        for class in 0..2 {
            let sum: f64 = totals[class].iter().sum::<f64>() + data.dim as f64;
            self.log_p[class] = totals[class]
                .iter()
                .map(|&t| ((t + 1.0) / sum).ln())
                .collect();
            self.log_prior[class] = ((count[class] + 1.0) / (data.rows() as f64 + 2.0)).ln();
        }
        self.dlog = self.log_p[1]
            .iter()
            .zip(&self.log_p[0])
            .map(|(&a, &b)| a - b)
            .collect();
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.score_row(x)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        crate::batch_rows(data, |x| self.score_row(x))
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(vec![3.0], 7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_auc;
    use heimdall_trace::rng::Rng64;

    fn shifted_gaussians(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            if rng.chance(0.3) {
                d.push(
                    &[rng.normal(2.0, 1.0) as f32, rng.normal(1.0, 1.0) as f32],
                    1.0,
                );
            } else {
                d.push(
                    &[rng.normal(0.0, 1.0) as f32, rng.normal(0.0, 1.0) as f32],
                    0.0,
                );
            }
        }
        d
    }

    #[test]
    fn gaussian_nb_learns() {
        let train = shifted_gaussians(3000, 1);
        let test = shifted_gaussians(800, 2);
        let mut m = GaussianNb::default();
        m.fit(&train);
        let auc = evaluate_auc(&m, &test);
        assert!(auc > 0.9, "auc {auc}");
    }

    #[test]
    fn bernoulli_nb_learns() {
        let train = shifted_gaussians(3000, 3);
        let test = shifted_gaussians(800, 4);
        let mut m = BernoulliNb::default();
        m.fit(&train);
        let auc = evaluate_auc(&m, &test);
        assert!(auc > 0.8, "auc {auc}");
    }

    #[test]
    fn multinomial_nb_learns_on_counts() {
        // Count-like features: class 1 has heavier "counts" in feature 0.
        let mut rng = Rng64::new(5);
        let mut d = Dataset::new(2);
        for _ in 0..3000 {
            if rng.chance(0.4) {
                d.push(&[rng.range(5, 15) as f32, rng.range(0, 5) as f32], 1.0);
            } else {
                d.push(&[rng.range(0, 5) as f32, rng.range(5, 15) as f32], 0.0);
            }
        }
        let mut m = MultinomialNb::default();
        m.fit(&d);
        let auc = evaluate_auc(&m, &d);
        assert!(auc > 0.9, "auc {auc}");
    }

    #[test]
    fn multinomial_handles_negative_inputs() {
        let mut d = Dataset::new(1);
        d.push(&[-5.0], 0.0);
        d.push(&[3.0], 1.0);
        let mut m = MultinomialNb::default();
        m.fit(&d);
        assert!(m.predict(&[-2.0]).is_finite());
    }

    #[test]
    fn batch_matches_scalar_bitwise_for_all_three() {
        let train = shifted_gaussians(800, 7);
        let test = shifted_gaussians(64, 8);
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(GaussianNb::default()),
            Box::new(BernoulliNb::default()),
            Box::new(MultinomialNb::default()),
        ];
        for mut m in models {
            m.fit(&train);
            let batch = m.predict_batch(&test);
            for (i, &b) in batch.iter().enumerate() {
                assert_eq!(
                    b.to_bits(),
                    m.predict(test.row(i)).to_bits(),
                    "{} row {i}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn predictions_are_probabilities() {
        let train = shifted_gaussians(500, 6);
        let mut m = GaussianNb::default();
        m.fit(&train);
        for i in 0..train.rows() {
            let p = m.predict(train.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }
}

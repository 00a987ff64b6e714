//! Adapters that bring the neural models of `heimdall-nn` and the plain
//! decision tree under the common [`Classifier`] trait, so the Fig 8 and
//! Fig 18 sweeps treat every family uniformly.

use crate::tree::{SplitMode, Tree, TreeParams, TreeTask};
use crate::Classifier;
use heimdall_nn::{Dataset, Mlp, MlpConfig, RnnClassifier, RnnTrainOpts, TrainOpts};
use heimdall_trace::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Standalone CART decision tree classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DecisionTreeClassifier {
    /// Tree growth parameters.
    pub params: TreeParams,
    tree: Option<Tree>,
}

impl Default for DecisionTreeClassifier {
    fn default() -> Self {
        DecisionTreeClassifier {
            params: TreeParams {
                max_depth: 10,
                min_samples_split: 8,
                max_features: 0,
                split_mode: SplitMode::Exact,
            },
            tree: None,
        }
    }
}

impl Classifier for DecisionTreeClassifier {
    fn name(&self) -> &'static str {
        "DecisionTree"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        let idx: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(0x6474);
        self.tree = Some(Tree::fit(
            data,
            &data.y,
            &idx,
            &self.params,
            TreeTask::Classification,
            &mut rng,
        ));
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.tree.as_ref().expect("predict before fit").predict(x)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        let tree = self.tree.as_ref().expect("predict before fit");
        let mut out = vec![0.0f32; data.rows()];
        tree.for_each_prediction(data, |i, p| out[i] = p);
        out
    }

    fn descriptor(&self) -> Vec<f64> {
        crate::normalize_descriptor(
            vec![
                self.params.max_depth as f64,
                self.params.min_samples_split as f64,
            ],
            8,
        )
    }
}

/// Wraps [`Mlp`] as a [`Classifier`] ("NN" in Fig 8, "Multi-Layer
/// Perceptron" in Fig 18).
#[derive(Debug, Clone)]
pub struct MlpWrapper {
    /// Hidden layer widths (paper default `[128, 16]`).
    pub hidden: Vec<usize>,
    /// Training options.
    pub opts: TrainOpts,
    /// Initialization seed.
    pub seed: u64,
    model: Option<Mlp>,
}

impl Default for MlpWrapper {
    fn default() -> Self {
        MlpWrapper {
            hidden: vec![128, 16],
            opts: TrainOpts::default(),
            seed: 0,
            model: None,
        }
    }
}

impl Classifier for MlpWrapper {
    fn name(&self) -> &'static str {
        "NN"
    }

    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        let cfg = MlpConfig {
            input_dim: data.dim,
            hidden: self
                .hidden
                .iter()
                .map(|&u| (u, heimdall_nn::Activation::ReLU))
                .collect(),
            output: heimdall_nn::OutputLayer::Sigmoid,
        };
        let mut m = Mlp::new(cfg, self.seed);
        m.train(data, &self.opts);
        self.model = Some(m);
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.model.as_ref().expect("predict before fit").predict(x)
    }

    fn descriptor(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.hidden.iter().map(|&u| u as f64).collect();
        v.push(self.opts.lr as f64);
        crate::normalize_descriptor(v, 15)
    }
}

/// Wraps [`RnnClassifier`]: rows are `steps × step_dim` sequences.
#[derive(Debug, Clone)]
pub struct RnnWrapper {
    /// Timesteps per row.
    pub steps: usize,
    /// Hidden state width.
    pub hidden: usize,
    /// Training options.
    pub opts: RnnTrainOpts,
    /// Initialization seed.
    pub seed: u64,
    model: Option<RnnClassifier>,
}

impl Default for RnnWrapper {
    fn default() -> Self {
        RnnWrapper {
            steps: 3,
            hidden: 16,
            opts: RnnTrainOpts::default(),
            seed: 0,
            model: None,
        }
    }
}

impl Classifier for RnnWrapper {
    fn name(&self) -> &'static str {
        "RNN"
    }

    /// # Panics
    ///
    /// Panics if `data.dim` is not divisible by `steps`.
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty dataset");
        assert_eq!(
            data.dim % self.steps,
            0,
            "dataset dim {} not divisible into {} steps",
            data.dim,
            self.steps
        );
        let step_dim = data.dim / self.steps;
        let mut m = RnnClassifier::new(step_dim, self.hidden, self.steps, self.seed);
        m.train(data, &self.opts);
        self.model = Some(m);
    }

    fn predict(&self, x: &[f32]) -> f32 {
        self.model.as_ref().expect("predict before fit").predict(x)
    }

    fn descriptor(&self) -> Vec<f64> {
        // Not one of the sixteen AutoML families (Fig 8 only): reuses the
        // MLP slot as the nearest neural relative.
        crate::normalize_descriptor(vec![self.steps as f64, self.hidden as f64], 15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_auc;

    fn board(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            d.push(&[a, b], ((a > 0.5) ^ (b > 0.5)) as u8 as f32);
        }
        d
    }

    #[test]
    fn decision_tree_learns() {
        let train = board(3000, 1);
        let mut m = DecisionTreeClassifier::default();
        m.fit(&train);
        assert!(evaluate_auc(&m, &board(500, 2)) > 0.9);
    }

    #[test]
    fn mlp_wrapper_learns() {
        let train = board(3000, 3);
        let mut m = MlpWrapper::default();
        m.fit(&train);
        assert!(evaluate_auc(&m, &board(500, 4)) > 0.9);
    }

    #[test]
    fn rnn_wrapper_learns_sequence_rule() {
        // Slow iff last step's feature is high.
        let mut rng = Rng64::new(5);
        let mut d = Dataset::new(3);
        for _ in 0..2500 {
            let r = [rng.f32(), rng.f32(), rng.f32()];
            d.push(&r, if r[2] > 0.5 { 1.0 } else { 0.0 });
        }
        let mut m = RnnWrapper {
            steps: 3,
            ..Default::default()
        };
        m.fit(&d);
        assert!(evaluate_auc(&m, &d) > 0.9);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rnn_wrapper_validates_steps() {
        let mut d = Dataset::new(4);
        d.push(&[0.0; 4], 0.0);
        RnnWrapper {
            steps: 3,
            ..Default::default()
        }
        .fit(&d);
    }
}

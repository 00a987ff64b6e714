//! Workload-drift detection — one of the §7 open questions ("what are the
//! I/O characteristics that can provide hints of workload drifts?").
//!
//! The accuracy-triggered retraining of §7 needs labeled data to notice a
//! problem; by the time accuracy has dropped, bad admissions already
//! happened. This module implements the proactive alternative the paper
//! sketches: monitor the *input* distribution and retrain when it shifts.
//! The detector keeps a reference sketch of each feature (a fixed quantile
//! grid built from the training window) and computes a Population Stability
//! Index (PSI) over incoming feature rows; PSI above ~0.25 conventionally
//! signals a significant shift.

use heimdall_nn::Dataset;
use serde::{Deserialize, Serialize};

/// Number of quantile buckets per feature.
const BUCKETS: usize = 10;

/// Reference sketch of one feature's distribution: bucket edges from the
/// training window's quantiles plus the reference mass actually observed
/// in each bucket (ties in discrete features make the masses non-uniform,
/// so they must be measured, not assumed).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FeatureSketch {
    /// Interior bucket edges (BUCKETS-1 values, ascending).
    edges: Vec<f32>,
    /// Reference probability mass per bucket (sums to 1).
    expected: Vec<f64>,
}

impl FeatureSketch {
    fn fit(values: &mut [f32]) -> FeatureSketch {
        // Total order so NaNs group at the ends (negative NaNs first,
        // positive NaNs last) and the finite core stays contiguous; only
        // the finite core defines the quantile grid. An empty or all-NaN
        // window yields no grid at all — every finite observation then
        // lands in bucket 0 and NaNs in the NaN bucket, and `expected` is
        // still measured from the (smoothed) counts, so a stream matching
        // the degenerate reference reads as zero drift.
        values.sort_by(f32::total_cmp);
        let lo = values.iter().take_while(|v| v.is_nan()).count();
        let hi = values.iter().rev().take_while(|v| v.is_nan()).count();
        let finite = &values[lo..values.len() - hi.min(values.len() - lo)];
        let edges: Vec<f32> = if finite.is_empty() {
            Vec::new()
        } else {
            (1..BUCKETS)
                .map(|k| {
                    let pos = k * (finite.len() - 1) / BUCKETS;
                    finite[pos]
                })
                .collect()
        };
        let mut sketch = FeatureSketch {
            edges,
            expected: vec![0.0; BUCKETS],
        };
        let mut counts = [0u64; BUCKETS];
        for &v in values.iter() {
            counts[sketch.bucket(v)] += 1;
        }
        let total = values.len() as f64 + 0.5 * BUCKETS as f64;
        for (e, &c) in sketch.expected.iter_mut().zip(&counts) {
            *e = (c as f64 + 0.5) / total;
        }
        sketch
    }

    fn bucket(&self, v: f32) -> usize {
        if v.is_nan() {
            // NaN compares false against every edge, which would silently
            // alias it with the lowest bucket; give it the top bucket as
            // an explicit out-of-domain bin instead.
            return BUCKETS - 1;
        }
        self.edges.partition_point(|&e| e < v)
    }
}

/// Online drift detector over a trained model's feature stream.
///
/// # Examples
///
/// ```
/// use heimdall_core::drift::DriftDetector;
/// use heimdall_nn::Dataset;
///
/// let mut reference = Dataset::new(2);
/// for i in 0..200 {
///     reference.push(&[i as f32, (i % 7) as f32], 0.0);
/// }
/// let mut det = DriftDetector::fit(&reference).unwrap();
/// for i in 0..200 {
///     det.observe(&[i as f32, (i % 7) as f32]);
/// }
/// assert!(det.psi() < 0.1, "same distribution must not read as drift");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftDetector {
    sketches: Vec<FeatureSketch>,
    /// Per-feature observed bucket counts in the current window.
    counts: Vec<[u64; BUCKETS]>,
    observed: u64,
}

impl DriftDetector {
    /// Conventional PSI threshold for "significant shift".
    pub const SIGNIFICANT: f64 = 0.25;

    /// Fits reference sketches from the training window's features.
    ///
    /// Returns `None` when the dataset has fewer than `BUCKETS` rows (no
    /// meaningful quantile grid exists).
    pub fn fit(reference: &Dataset) -> Option<DriftDetector> {
        if reference.rows() < BUCKETS {
            return None;
        }
        let sketches = (0..reference.dim)
            .map(|c| {
                let mut col: Vec<f32> =
                    (0..reference.rows()).map(|i| reference.row(i)[c]).collect();
                FeatureSketch::fit(&mut col)
            })
            .collect();
        Some(DriftDetector {
            counts: vec![[0; BUCKETS]; reference.dim],
            sketches,
            observed: 0,
        })
    }

    /// Number of rows observed in the current window.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Feeds one feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row dimensionality differs from the reference.
    pub fn observe(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.sketches.len(),
            "row dimensionality mismatch"
        );
        for (c, &v) in row.iter().enumerate() {
            self.counts[c][self.sketches[c].bucket(v)] += 1;
        }
        self.observed += 1;
    }

    /// Population Stability Index of the current window versus the
    /// reference (maximum over features); `0.0` before any observation.
    pub fn psi(&self) -> f64 {
        if self.observed == 0 {
            return 0.0;
        }
        let mut worst = 0.0f64;
        for (counts, sketch) in self.counts.iter().zip(&self.sketches) {
            let mut psi = 0.0;
            for (&c, &expected) in counts.iter().zip(&sketch.expected) {
                // Laplace-smooth the observed share so empty buckets don't
                // blow up the log term.
                let actual = (c as f64 + 0.5) / (self.observed as f64 + 0.5 * BUCKETS as f64);
                psi += (actual - expected) * (actual / expected).ln();
            }
            worst = worst.max(psi);
        }
        worst
    }

    /// Returns `true` when the current window has drifted significantly.
    pub fn drifted(&self) -> bool {
        self.psi() >= Self::SIGNIFICANT
    }

    /// Clears the observation window (after a retrain, refit instead if the
    /// reference itself should move).
    pub fn reset_window(&mut self) {
        self.counts.iter_mut().for_each(|c| c.fill(0));
        self.observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_trace::rng::Rng64;

    fn gaussian_dataset(mean: f64, std: f64, n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            d.push(
                &[
                    rng.normal(mean, std) as f32,
                    rng.normal(mean * 2.0, std) as f32,
                    rng.f32(),
                ],
                0.0,
            );
        }
        d
    }

    #[test]
    fn no_drift_on_same_distribution() {
        let reference = gaussian_dataset(10.0, 2.0, 2000, 1);
        let fresh = gaussian_dataset(10.0, 2.0, 2000, 2);
        let mut det = DriftDetector::fit(&reference).unwrap();
        for i in 0..fresh.rows() {
            det.observe(fresh.row(i));
        }
        assert!(det.psi() < 0.1, "psi {}", det.psi());
        assert!(!det.drifted());
    }

    #[test]
    fn detects_mean_shift() {
        let reference = gaussian_dataset(10.0, 2.0, 2000, 3);
        let shifted = gaussian_dataset(16.0, 2.0, 2000, 4);
        let mut det = DriftDetector::fit(&reference).unwrap();
        for i in 0..shifted.rows() {
            det.observe(shifted.row(i));
        }
        assert!(det.drifted(), "psi {}", det.psi());
    }

    #[test]
    fn detects_variance_change() {
        let reference = gaussian_dataset(10.0, 1.0, 2000, 5);
        let wider = gaussian_dataset(10.0, 6.0, 2000, 6);
        let mut det = DriftDetector::fit(&reference).unwrap();
        for i in 0..wider.rows() {
            det.observe(wider.row(i));
        }
        assert!(det.drifted(), "psi {}", det.psi());
    }

    #[test]
    fn reset_clears_window() {
        let reference = gaussian_dataset(10.0, 2.0, 500, 7);
        let shifted = gaussian_dataset(30.0, 2.0, 500, 8);
        let mut det = DriftDetector::fit(&reference).unwrap();
        for i in 0..shifted.rows() {
            det.observe(shifted.row(i));
        }
        assert!(det.drifted());
        det.reset_window();
        assert_eq!(det.observed(), 0);
        assert_eq!(det.psi(), 0.0);
    }

    #[test]
    fn tiny_reference_rejected() {
        let d = gaussian_dataset(0.0, 1.0, 5, 9);
        assert!(DriftDetector::fit(&d).is_none());
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn wrong_width_panics() {
        let d = gaussian_dataset(0.0, 1.0, 100, 10);
        DriftDetector::fit(&d).unwrap().observe(&[1.0]);
    }

    #[test]
    fn empty_window_yields_safe_sketch() {
        // Regression: `k * (values.len() - 1)` underflowed and panicked.
        let sketch = FeatureSketch::fit(&mut []);
        assert!(sketch.edges.is_empty());
        assert_eq!(sketch.expected.len(), BUCKETS);
        let mass: f64 = sketch.expected.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        // All finite values land in bucket 0, NaN in the NaN bucket.
        assert_eq!(sketch.bucket(-1.0e9), 0);
        assert_eq!(sketch.bucket(42.0), 0);
        assert_eq!(sketch.bucket(f32::NAN), BUCKETS - 1);
    }

    #[test]
    fn single_value_window_is_degenerate_but_safe() {
        let sketch = FeatureSketch::fit(&mut [3.0]);
        assert_eq!(sketch.edges.len(), BUCKETS - 1);
        assert!(sketch.edges.iter().all(|&e| e == 3.0));
        // The constant lands below every `e < v` edge, i.e. bucket 0, and
        // expected mass there dominates.
        assert_eq!(sketch.bucket(3.0), 0);
        assert!(sketch.expected[0] > sketch.expected[1]);
    }

    #[test]
    fn nan_values_route_to_defined_bucket() {
        let mut vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        vals.extend([f32::NAN; 10]);
        let sketch = FeatureSketch::fit(&mut vals);
        assert_eq!(sketch.edges.len(), BUCKETS - 1);
        assert!(sketch.edges.iter().all(|e| e.is_finite()));
        assert_eq!(sketch.bucket(f32::NAN), BUCKETS - 1);
        // NaN mass was measured into the NaN bucket, inflating it past the
        // uniform share.
        assert!(sketch.expected[BUCKETS - 1] > sketch.expected[1]);
    }

    #[test]
    fn all_nan_window_reads_as_no_drift_for_nan_stream() {
        let sketch = FeatureSketch::fit(&mut [f32::NAN; 50]);
        assert!(sketch.edges.is_empty());
        // A detector over this sketch sees a pure-NaN stream as stable.
        let mut det = DriftDetector {
            sketches: vec![sketch],
            counts: vec![[0; BUCKETS]],
            observed: 0,
        };
        for _ in 0..500 {
            det.observe(&[f32::NAN]);
        }
        let psi = det.psi();
        assert!(psi.is_finite());
        assert!(!det.drifted(), "psi {psi}");
    }

    #[test]
    fn detector_survives_nan_rows() {
        let reference = gaussian_dataset(10.0, 2.0, 500, 11);
        let mut det = DriftDetector::fit(&reference).unwrap();
        for _ in 0..100 {
            det.observe(&[f32::NAN, 5.0, f32::NAN]);
        }
        assert!(det.psi().is_finite());
    }
}

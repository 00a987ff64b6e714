//! Flat row-major datasets shared by every learner in the workspace.

use heimdall_trace::rng::Rng64;
use serde::{Deserialize, Serialize};

/// A dense dataset: `rows × dim` features plus one binary label per row
/// (`1.0` = slow/decline, `0.0` = fast/admit).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature dimensionality.
    pub dim: usize,
    /// Row-major features, `len == rows * dim`.
    pub x: Vec<f32>,
    /// Labels, `len == rows`.
    pub y: Vec<f32>,
}

impl Dataset {
    /// Creates an empty dataset with the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Creates a dataset from parts.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `dim` or if the row count
    /// does not match `y.len()`.
    pub fn from_parts(dim: usize, x: Vec<f32>, y: Vec<f32>) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(x.len() % dim, 0, "x length must be a multiple of dim");
        assert_eq!(x.len() / dim, y.len(), "row count mismatch");
        Dataset { dim, x, y }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.y.len()
    }

    /// Returns `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim`.
    pub fn push(&mut self, row: &[f32], label: f32) {
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        self.x.extend_from_slice(row);
        self.y.push(label);
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Labels as booleans (`true` = slow).
    pub fn labels_bool(&self) -> Vec<bool> {
        self.y.iter().map(|&v| v >= 0.5).collect()
    }

    /// Fraction of slow rows.
    pub fn positive_rate(&self) -> f64 {
        if self.y.is_empty() {
            0.0
        } else {
            self.y.iter().filter(|&&v| v >= 0.5).count() as f64 / self.y.len() as f64
        }
    }

    /// Deterministically shuffles rows in place.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = Rng64::new(seed);
        for i in (1..self.rows()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            self.swap_rows(i, j);
        }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let d = self.dim;
        for k in 0..d {
            self.x.swap(a * d + k, b * d + k);
        }
        self.y.swap(a, b);
    }

    /// Splits into `(first, second)` at `fraction` of the rows.
    ///
    /// The paper uses a 50:50 train/test split so the evaluation half is
    /// fully unseen (§6).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn split(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let cut = (self.rows() as f64 * fraction).round() as usize;
        let first = Dataset::from_parts(
            self.dim,
            self.x[..cut * self.dim].to_vec(),
            self.y[..cut].to_vec(),
        );
        let second = Dataset::from_parts(
            self.dim,
            self.x[cut * self.dim..].to_vec(),
            self.y[cut..].to_vec(),
        );
        (first, second)
    }

    /// Returns a copy keeping only the feature columns in `keep` (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index in `keep` is out of range.
    pub fn select_columns(&self, keep: &[usize]) -> Dataset {
        assert!(keep.iter().all(|&c| c < self.dim), "column out of range");
        let mut x = Vec::with_capacity(self.rows() * keep.len());
        for i in 0..self.rows() {
            let row = self.row(i);
            for &c in keep {
                x.push(row[c]);
            }
        }
        Dataset::from_parts(keep.len().max(1), x, self.y.clone())
    }

    /// Column `c` as `f64` values (for correlation analysis).
    pub fn column_f64(&self, c: usize) -> Vec<f64> {
        (0..self.rows()).map(|i| self.row(i)[c] as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f32, (i * 2) as f32], (i % 2) as f32);
        }
        d
    }

    #[test]
    fn push_and_row_roundtrip() {
        let d = sample();
        assert_eq!(d.rows(), 10);
        assert_eq!(d.row(3), &[3.0, 6.0]);
    }

    #[test]
    fn shuffle_is_permutation_and_keeps_pairing() {
        let mut d = sample();
        d.shuffle(42);
        assert_eq!(d.rows(), 10);
        for i in 0..d.rows() {
            let r = d.row(i);
            assert_eq!(r[1], r[0] * 2.0, "row pairing broken");
            assert_eq!(d.y[i], (r[0] as usize % 2) as f32, "label pairing broken");
        }
    }

    #[test]
    fn shuffle_deterministic() {
        let mut a = sample();
        let mut b = sample();
        a.shuffle(7);
        b.shuffle(7);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn split_halves() {
        let d = sample();
        let (tr, te) = d.split(0.5);
        assert_eq!(tr.rows(), 5);
        assert_eq!(te.rows(), 5);
        assert_eq!(te.row(0), d.row(5));
    }

    #[test]
    fn split_extremes() {
        let d = sample();
        let (a, b) = d.split(0.0);
        assert_eq!(a.rows(), 0);
        assert_eq!(b.rows(), 10);
        let (a, b) = d.split(1.0);
        assert_eq!(a.rows(), 10);
        assert_eq!(b.rows(), 0);
    }

    #[test]
    fn select_columns_projects() {
        let d = sample();
        let p = d.select_columns(&[1]);
        assert_eq!(p.dim, 1);
        assert_eq!(p.row(4), &[8.0]);
        assert_eq!(p.y, d.y);
    }

    #[test]
    fn positive_rate_counts() {
        let d = sample();
        assert!((d.positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn push_wrong_dim_panics() {
        sample().push(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn from_parts_validates() {
        Dataset::from_parts(2, vec![1.0, 2.0], vec![0.0, 1.0]);
    }
}

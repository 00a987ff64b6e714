//! Small numeric helpers shared by the pipeline and the benches: means,
//! quantiles, Pearson correlation (feature selection, §3.3) and cosine
//! similarity (the AutoML generalization study, Fig 18c).

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation, `0.0` for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (averages the two central elements for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Total-order comparator used by every quantile helper here: `partial_cmp`
/// with ties (and NaN, which the pipeline never produces) treated as equal.
fn cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Quantile `q` in `[0, 1]` with linear interpolation; `0.0` when empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    quantile_inplace(&mut v, q)
}

/// [`quantile`] via `select_nth_unstable` on a caller-owned scratch buffer —
/// O(n) instead of a fresh sort per call, and no allocation. The buffer's
/// element *order* is clobbered; its contents are preserved. Returns the
/// same value as [`quantile`] on the same data.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_inplace(xs: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut lo_val, rest) = xs.select_nth_unstable_by(lo, cmp_f64);
    if lo == hi {
        return lo_val;
    }
    // The (lo+1)-th order statistic is the minimum of the right partition —
    // identical to the sorted array's `v[hi]` under the same comparator.
    let hi_val = rest
        .iter()
        .copied()
        .min_by(cmp_f64)
        .expect("hi > lo implies a non-empty right partition");
    lo_val + (pos - lo as f64) * (hi_val - lo_val)
}

/// [`median`] on a reusable scratch buffer (see [`quantile_inplace`]).
pub fn median_inplace(xs: &mut [f64]) -> f64 {
    quantile_inplace(xs, 0.5)
}

/// Quantile of data already sorted ascending (by [`quantile`]'s
/// comparator): a pure O(1) index + interpolation, bitwise-identical to
/// [`quantile`] on the unsorted data.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(sorted.windows(2).all(|w| cmp_f64(&w[0], &w[1]).is_le()));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// [`median`] of pre-sorted data (see [`quantile_sorted`]).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    quantile_sorted(sorted, 0.5)
}

/// Sorts with the shared quantile comparator, so callers can prepare input
/// for [`quantile_sorted`] exactly the way [`quantile`] would internally.
pub fn sort_for_quantiles(xs: &mut [f64]) {
    xs.sort_unstable_by(cmp_f64);
}

/// Pearson correlation coefficient; `0.0` if either side has zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// [`pearson`] over an iterator of x values (e.g. a strided dataset
/// column) against a label slice — no column materialization. The
/// accumulation order is exactly [`pearson`]'s (one mean pass per side,
/// then one joint covariance/variance pass), so the result is bitwise
/// identical to `pearson(&xs.collect::<Vec<_>>(), ys)`.
///
/// # Panics
///
/// Panics if the iterator length mismatches `ys`.
pub fn pearson_iter<I>(xs: I, ys: &[f64]) -> f64
where
    I: ExactSizeIterator<Item = f64> + Clone,
{
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    let n = ys.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.clone().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// Cosine similarity between two vectors; `0.0` if either is zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_zero() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile_inplace(&mut [], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn inplace_and_sorted_match_quantile_bitwise() {
        // Seeded LCG data with duplicates — every helper must agree with the
        // full-sort reference exactly (the tuner's bitwise contract).
        let mut state = 0x9e37_79b9u64;
        let xs: Vec<f64> = (0..257)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 1000) as f64 / 7.0
            })
            .collect();
        let mut sorted = xs.clone();
        sort_for_quantiles(&mut sorted);
        for q in [0.0, 0.05, 0.25, 0.3, 0.5, 0.9, 0.95, 1.0] {
            let want = quantile(&xs, q);
            let mut scratch = xs.clone();
            assert_eq!(quantile_inplace(&mut scratch, q).to_bits(), want.to_bits());
            assert_eq!(quantile_sorted(&sorted, q).to_bits(), want.to_bits());
        }
        let mut scratch = xs.clone();
        assert_eq!(
            median_inplace(&mut scratch).to_bits(),
            median(&xs).to_bits()
        );
        assert_eq!(median_sorted(&sorted).to_bits(), median(&xs).to_bits());
    }

    #[test]
    fn inplace_preserves_contents() {
        let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        quantile_inplace(&mut xs, 0.75);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(xs, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn inplace_rejects_bad_q() {
        quantile_inplace(&mut [1.0], 1.5);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_iter_is_bitwise_pearson() {
        let mut state = 0x5eed_u64;
        let xs: Vec<f64> = (0..113)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 30) % 4096) as f64 / 13.0
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 7.0) % 5.0).collect();
        let want = pearson(&xs, &ys);
        let got = pearson_iter(xs.iter().copied(), &ys);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(pearson_iter([].iter().copied(), &[]), 0.0);
        assert_eq!(pearson_iter([1.0].iter().copied(), &[2.0]), 0.0);
    }

    #[test]
    fn cosine_identical_vectors() {
        let a = [1.0, 2.0, 3.0];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_vectors() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pearson_length_mismatch_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}

//! Log2-bucket histogram for per-call nanosecond timings: recording is one
//! `leading_zeros` and two adds, so it can sit around a ~100 ns policy call
//! without a sample vector growing behind it.

use crate::json::Json;

/// Histogram whose bucket `k` holds values in `[2^k, 2^(k+1))` (bucket 0
/// also holds 0). Count and sum are exact; percentiles are interpolated
/// inside a bucket and therefore within a factor of two of the truth.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[63 - (v | 1).leading_zeros() as usize] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile `p` in `[0, 100]`, linearly interpolated
    /// within the bucket the rank falls in; `0.0` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n > 0 && before + n >= rank {
                let lo = if k == 0 { 0.0 } else { (1u64 << k) as f64 };
                let hi = 2.0 * (1u64 << k) as f64;
                return lo + (hi - lo) * (rank - before) as f64 / n as f64;
            }
            before += n;
        }
        unreachable!("rank {rank} exceeds count {}", self.count)
    }

    /// Non-empty buckets as `[lower_bound, count]` pairs, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(k, &n)| Json::Arr(vec![Json::Int(1 << k), Json::Int(n)]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_mean_are_exact() {
        let mut h = Log2Hist::default();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 1_001_006.0 / 6.0).abs() < 1e-9);
        assert_eq!(Log2Hist::default().percentile(50.0), 0.0);
    }

    #[test]
    fn percentile_stays_inside_the_true_values_bucket() {
        // 1000 values spread over three octaves; the exact nearest-rank
        // percentile and the estimate must share a bucket.
        let values: Vec<u64> = (0..1000).map(|i| 100 + i * 7).collect();
        let mut h = Log2Hist::default();
        values.iter().for_each(|&v| h.record(v));
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
            let exact = values[rank - 1];
            let lo = 1u64 << (63 - exact.leading_zeros());
            let est = h.percentile(p);
            assert!(
                est > lo as f64 * 0.999 && est <= 2.0 * lo as f64,
                "p{p}: estimate {est} outside [{lo}, {}] of exact {exact}",
                2 * lo
            );
        }
    }

    #[test]
    fn percentile_interpolates_and_is_monotone() {
        // 1024..2048 uniformly: one bucket, so interpolation is exact to
        // within one step.
        let mut h = Log2Hist::default();
        (1024..2048).for_each(|v| h.record(v));
        assert!((h.percentile(50.0) - 1536.0).abs() <= 1.0);
        assert!((h.percentile(25.0) - 1280.0).abs() <= 1.0);
        let mut last = 0.0;
        for p in 0..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p} = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn tail_percentile_finds_the_outlier_bucket() {
        let mut h = Log2Hist::default();
        (0..9_999).for_each(|_| h.record(100));
        h.record(1 << 20);
        assert!(h.percentile(99.99) <= 128.0);
        assert!(h.percentile(100.0) > (1 << 20) as f64);
    }
}

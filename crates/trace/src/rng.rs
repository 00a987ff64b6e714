//! Small, deterministic pseudo-random toolkit used across the workspace.
//!
//! Every stochastic component in the reproduction (trace generators, the SSD
//! model's internal events, dataset shuffles, weight init) takes an explicit
//! `u64` seed and draws from this generator, so every experiment is exactly
//! reproducible. The core is xoshiro256** seeded through SplitMix64 — the
//! standard, well-tested construction — implemented in ~60 lines so the hot
//! simulation loops carry no external dependency.

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a seed via SplitMix64 state expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream without cross-talk.
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        self.f64() as f32
    }

    /// Uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box-Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Exponential with the given mean (`mean = 1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        -mean * (1.0 - self.f64()).ln()
    }

    /// Log-normal with the given parameters of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Zipf-like rank draw over `[0, n)` with skew `theta in (0, 1)`
    /// using the classic YCSB-style approximation (cheap, adequate for
    /// workload locality). Higher `theta` means more skew.
    pub(crate) fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        let u = self.f64();
        // Map a uniform draw through a power law; exact Zipf is unnecessary
        // for generating hot/cold offset locality.
        let r = (u.powf(1.0 / (1.0 - theta)) * n as f64) as u64;
        r.min(n - 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniformly chooses one element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub(crate) fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(4);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_bound_one_is_zero() {
        let mut r = Rng64::new(5);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn normal_mean_approx() {
        let mut r = Rng64::new(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.normal(5.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn exponential_mean_approx() {
        let mut r = Rng64::new(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn zipf_skews_low_ranks() {
        let mut r = Rng64::new(8);
        let n = 50_000;
        let low = (0..n).filter(|_| r.zipf(1000, 0.9) < 100).count();
        // With theta=0.9, far more than 10% of draws land in the first 10%.
        assert!(
            low as f64 / n as f64 > 0.5,
            "low fraction {}",
            low as f64 / n as f64
        );
    }

    #[test]
    fn zipf_within_bounds() {
        let mut r = Rng64::new(9);
        for _ in 0..10_000 {
            assert!(r.zipf(17, 0.5) < 17);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(10);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_prefers_heavy() {
        let mut r = Rng64::new(11);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = Rng64::new(12);
        assert!(r.choose::<u8>(&[]).is_none());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng64::new(13);
        let mut a = parent.fork();
        let mut b = parent.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}

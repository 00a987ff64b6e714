//! Integer-quantized inference (§4.1).
//!
//! The paper multiplies all weights by 1024 and quantizes biases to match the
//! scale, which captures the non-zero digits of most weights within four
//! decimal points and drops inference to ~0.05 µs. This module reproduces
//! that scheme: weights become `i32` and biases `i64` (the canonical
//! parameters), every layer rescales back by the quantization factor, ReLU
//! stays in the integer domain, and only the final logit is dequantized for
//! the sigmoid. At quantize time each layer is also packed as `i16` weights
//! with the activation bound under which `i32` accumulation is exact; the
//! row kernel in [`crate::batch`] runs on that pack and reruns a row at
//! `i64` width whenever a bound is missed.

use crate::activation::{sigmoid, Activation};
use crate::batch::{BatchScratch, BLOCK};
use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// The paper's quantization scale.
pub const PAPER_SCALE: i32 = 1024;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct QLayer {
    pub(crate) in_dim: usize,
    /// Row-major `[out][in]`, weights × scale.
    pub(crate) w: Vec<i32>,
    /// Biases × scale² (so they add directly to the pre-rescale accumulator
    /// of a scale×scale product).
    pub(crate) b: Vec<i64>,
    /// Negative-side slope numerator for leaky variants, in 1/1024 units
    /// (0 for plain ReLU, 1024 for linear pass-through).
    pub(crate) neg_slope_q: i64,
    /// Input magnitude at which the i64 pass saturates this layer's input
    /// activations, so no accumulator can wrap in either build profile.
    pub(crate) amax64: i64,
    /// Derived cache of `w` for the i32 pass: pair-interleaved
    /// `[in_pad / 2][out_pad][2]`, input dim zero-padded to even and output
    /// dim to whole register blocks. A padded output (zero weights, zero
    /// bias) requantizes to exactly 0: the next layer's zero padding.
    pub(crate) w16: Vec<i16>,
    /// `b` at i32 width, zero-padded to `out_pad`.
    pub(crate) b32: Vec<i32>,
    /// Largest input magnitude for which the i32 pass is exact on this
    /// layer; -1 when its weights or biases do not fit i16/i32.
    pub(crate) amax: i32,
}

/// Largest input-activation magnitude `a` with `|b| + Σ|w|·a ≤ limit` on
/// every output row. Every partial sum of `b + Σ w·x`, in any order, is
/// bounded by that left-hand side when `|x| ≤ a`, so an accumulator that
/// holds `limit` never wraps.
fn act_bound(limit: u64, w: &[i32], b: &[i64], in_dim: usize) -> u64 {
    w.chunks(in_dim)
        .zip(b)
        .map(|(row, b)| {
            let sum: u64 = row.iter().map(|w| u64::from(w.unsigned_abs())).sum();
            limit.saturating_sub(b.unsigned_abs()) / sum.max(1)
        })
        .min()
        .unwrap_or(0)
}

impl QLayer {
    fn new(in_dim: usize, w: Vec<i32>, b: Vec<i64>, neg_slope_q: i64) -> QLayer {
        let (in_pad, out_pad) = (in_dim.next_multiple_of(2), b.len().next_multiple_of(BLOCK));
        let mut w16 = vec![0i16; in_pad * out_pad];
        for (o, row) in w.chunks(in_dim).enumerate() {
            for (k, &wq) in row.iter().enumerate() {
                w16[(k / 2 * out_pad + o) * 2 + k % 2] = wq as i16;
            }
        }
        let mut b32 = vec![0i32; out_pad];
        for (q, &bq) in b32.iter_mut().zip(&b) {
            *q = bq as i32;
        }
        let fits = w.iter().all(|&w| i16::try_from(w).is_ok())
            && b.iter().all(|&b| i32::try_from(b).is_ok());
        let amax = act_bound(i32::MAX as u64, &w, &b, in_dim).min(i16::MAX as u64) as i32;
        QLayer {
            amax64: act_bound(i64::MAX as u64, &w, &b, in_dim) as i64,
            amax: if fits { amax } else { -1 },
            in_dim,
            w,
            b,
            neg_slope_q,
            w16,
            b32,
        }
    }

    /// Input width of the i16 pack.
    pub(crate) fn in_pad(&self) -> usize {
        self.in_dim.next_multiple_of(2)
    }
}

/// A quantized feed-forward network for deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedMlp {
    pub(crate) layers: Vec<QLayer>,
    pub(crate) scale: i32,
    /// `log2(scale)` when the scale is a power of two: requantization is a
    /// shift then, not a hardware divide.
    pub(crate) shift: Option<u32>,
    /// Widest padded activation plane of any layer.
    pub(crate) width: usize,
    /// Widest vector the i32 pass may use, in bits; only
    /// [`QuantizedMlp::clamp_lane_bits`] lowers it.
    pub(crate) lane_bits: u32,
    pub(crate) sigmoid_output: bool,
}

impl QuantizedMlp {
    /// Quantizes a trained [`Mlp`] with the given scale.
    ///
    /// Supported architectures: ReLU-family hidden activations with a
    /// sigmoid, linear, or softmax-2 output (softmax-2 is folded into an
    /// equivalent single-logit sigmoid by differencing the two output rows).
    ///
    /// # Panics
    ///
    /// Panics if a hidden layer uses `Sigmoid` or `Tanh` (not representable
    /// in this integer pipeline) or if `scale <= 0`.
    pub fn quantize(model: &Mlp, scale: i32) -> QuantizedMlp {
        assert!(scale > 0, "scale must be positive");
        let params = model.layer_params();
        let n = params.len();
        let mut layers = Vec::with_capacity(n);
        let quantize_w = |x: f32| (x * scale as f32).round() as i32;
        let quantize_b = |x: f32| (x as f64 * scale as f64 * scale as f64).round() as i64;
        for (li, (w, b, in_dim, out_dim, act, alpha)) in params.into_iter().enumerate() {
            let last = li == n - 1;
            let neg_slope_q = if last {
                // Output layer is linear pre-squash.
                scale as i64
            } else {
                match act {
                    Activation::ReLU => 0,
                    Activation::LeakyReLU(s) => (s * scale as f32).round() as i64,
                    Activation::PReLU(_) => (alpha * scale as f32).round() as i64,
                    Activation::Linear => scale as i64,
                    Activation::Sigmoid | Activation::Tanh => {
                        panic!("quantized inference supports ReLU-family hidden layers only")
                    }
                }
            };
            let (wq, bq) = if last && out_dim == 2 {
                // Fold softmax-2 into one logit: z = z1 - z0.
                let wd = (0..in_dim).map(|k| quantize_w(w[in_dim + k] - w[k]));
                (wd.collect(), vec![quantize_b(b[1] - b[0])])
            } else {
                (
                    w.iter().map(|&x| quantize_w(x)).collect(),
                    b.iter().map(|&x| quantize_b(x)).collect(),
                )
            };
            layers.push(QLayer::new(in_dim, wq, bq, neg_slope_q));
        }
        QuantizedMlp {
            width: layers
                .iter()
                .map(|l| l.in_pad().max(l.b32.len()))
                .max()
                .unwrap_or(0),
            layers,
            scale,
            shift: (scale as u32)
                .is_power_of_two()
                .then(|| scale.trailing_zeros()),
            lane_bits: u32::MAX,
            sigmoid_output: true,
        }
    }

    /// Quantizes with the paper's ×1024 scale.
    pub fn quantize_paper(model: &Mlp) -> QuantizedMlp {
        Self::quantize(model, PAPER_SCALE)
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim)
    }

    /// Deployed memory footprint in bytes (i32 weights + i64 biases), the
    /// Fig 16a number. The ~7.5 KB i16 pack is a cache derived from these
    /// canonical parameters and is not counted.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.len() * 4 + l.b.len() * 8)
            .sum()
    }

    /// Truncate-toward-zero `v / scale`; for a power-of-two scale a shift
    /// with the sign fix-up that keeps negative quotients truncating.
    #[inline]
    fn div_scale(&self, v: i64) -> i64 {
        match self.shift {
            Some(k) => (v + ((v >> 63) & (self.scale as i64 - 1))) >> k,
            None => v / self.scale as i64,
        }
    }

    /// Rescales an accumulator from scale² to scale and applies the
    /// ReLU-family slope. Shared by both passes of the row kernel.
    #[inline]
    pub(crate) fn requant(&self, acc: i64, neg_slope_q: i64) -> i64 {
        let z = self.div_scale(acc);
        if z >= 0 || neg_slope_q == self.scale as i64 {
            z
        } else if neg_slope_q == 0 {
            0
        } else {
            self.div_scale(z.saturating_mul(neg_slope_q))
        }
    }

    /// Raw dequantized output logit for a (already scaled) f32 feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn logit(&self, x: &[f32]) -> f32 {
        BatchScratch::with_local(|s| self.logit_with(x, s))
    }

    /// The i64 pass alone: the reference arithmetic every logit is bitwise
    /// equal to, and the fallback for rows the i32 pass declines.
    pub fn logit_wide(&self, x: &[f32]) -> f32 {
        BatchScratch::with_local(|s| self.wide_row(x, s))
    }

    /// The i32 pass alone: `None` when an activation exceeds a layer's
    /// exactness bound (or the model does not fit i16/i32), in which case
    /// [`QuantizedMlp::logit`] reruns the row through the i64 pass.
    pub fn logit_narrow(&self, x: &[f32]) -> Option<f32> {
        BatchScratch::with_local(|s| self.narrow_row(x, s))
    }

    /// Test hook: lowers (never raises) the i32 pass's activation bound on
    /// one layer, to force a decline there.
    #[doc(hidden)]
    pub fn clamp_narrow_bound(&mut self, layer: usize, amax: i32) {
        self.layers[layer].amax = self.layers[layer].amax.min(amax);
    }

    /// Test hook: caps (never widens) the i32 pass's vector width, so a host
    /// can run every lane instance up to the one it would choose: 128 stops
    /// at the x86-64 baseline, 0 selects the portable lanes.
    #[doc(hidden)]
    pub fn clamp_lane_bits(&mut self, bits: u32) {
        self.lane_bits = self.lane_bits.min(bits);
    }

    /// Maps a logit to the probability the I/O is slow.
    #[inline]
    pub(crate) fn squash(&self, z: f32) -> f32 {
        if self.sigmoid_output {
            sigmoid(z)
        } else {
            z.clamp(0.0, 1.0)
        }
    }

    /// Probability the I/O is slow.
    pub fn predict(&self, x: &[f32]) -> f32 {
        BatchScratch::with_local(|s| self.predict_with(x, s))
    }

    /// [`QuantizedMlp::predict`] in a caller-owned arena.
    pub fn predict_with(&self, x: &[f32], scratch: &mut BatchScratch) -> f32 {
        self.squash(self.logit_with(x, scratch))
    }

    /// Hard admit/decline decision without the sigmoid (logit sign test) —
    /// the cheapest deployed path.
    #[inline]
    pub fn predict_slow(&self, x: &[f32]) -> bool {
        self.logit(x) >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::mlp::{MlpConfig, TrainOpts};
    use heimdall_trace::rng::Rng64;

    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            let c = rng.f32();
            d.push(&[a, b, c], if a + 2.0 * b - c > 1.0 { 1.0 } else { 0.0 });
        }
        d
    }

    fn trained(seed: u64) -> Mlp {
        let data = toy(3000, seed);
        let mut m = Mlp::new(MlpConfig::heimdall(3), seed + 1);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                ..Default::default()
            },
        );
        m
    }

    #[test]
    fn quantized_matches_f32_predictions() {
        let m = trained(1);
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(500, 2);
        let mut agree = 0;
        for i in 0..test.rows() {
            let pf = m.predict(test.row(i)) >= 0.5;
            let pq = q.predict_slow(test.row(i));
            if pf == pq {
                agree += 1;
            }
        }
        assert!(agree >= 490, "agreement {agree}/500");
    }

    #[test]
    fn quantized_probabilities_close() {
        let m = trained(3);
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(200, 4);
        for i in 0..test.rows() {
            let pf = m.predict(test.row(i));
            let pq = q.predict(test.row(i));
            assert!((pf - pq).abs() < 0.08, "pf={pf} pq={pq}");
        }
    }

    #[test]
    fn softmax_model_quantizes_via_logit_difference() {
        let data = toy(3000, 5);
        // LinnOS config has 31 inputs; build a 3-input variant instead.
        let cfg = MlpConfig {
            input_dim: 3,
            ..MlpConfig::linnos()
        };
        let mut m = Mlp::new(cfg, 6);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                ..Default::default()
            },
        );
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(300, 7);
        let mut agree = 0;
        for i in 0..test.rows() {
            if (m.predict(test.row(i)) >= 0.5) == q.predict_slow(test.row(i)) {
                agree += 1;
            }
        }
        assert!(agree >= 290, "agreement {agree}/300");
    }

    #[test]
    fn memory_footprint_under_paper_budget() {
        // Heimdall's 11-feature model quantized must stay within ~28 KB.
        let m = Mlp::new(MlpConfig::heimdall(11), 8);
        let q = QuantizedMlp::quantize_paper(&m);
        assert!(
            q.memory_bytes() < 28 * 1024,
            "footprint {}",
            q.memory_bytes()
        );
    }

    #[test]
    fn predict_slow_consistent_with_predict() {
        let m = trained(9);
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(200, 10);
        for i in 0..test.rows() {
            assert_eq!(q.predict_slow(test.row(i)), q.predict(test.row(i)) >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "ReLU-family hidden layers only")]
    fn tanh_hidden_rejected() {
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![(4, crate::activation::Activation::Tanh)],
            output: crate::mlp::OutputLayer::Sigmoid,
        };
        QuantizedMlp::quantize_paper(&Mlp::new(cfg, 0));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        QuantizedMlp::quantize(&Mlp::new(MlpConfig::heimdall(2), 0), 0);
    }
}

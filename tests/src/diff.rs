//! Differential-testing harness for the inference paths.
//!
//! Replays the same feature stream through the float [`Mlp`] and through
//! the quantized decision kernel by each of its entry points (scalar,
//! batched) and each of its passes (i32 fast path, i64 reference), and
//! checks the contracts the deployment stack rests on (§4.1):
//!
//! 1. **Every quantized entry point ≡ the i64 pass, bitwise.** Integer
//!    accumulation is exact at both widths, so the batched and scalar entry
//!    points and whichever pass answers — at every lane width the host can
//!    run ([`LANE_BITS`]) — must agree bit for bit; any
//!    mismatch is a kernel bug, counted (never tolerated) in
//!    [`DiffReport::batch_bitwise_mismatches`]. The share of rows the i32
//!    pass answered is [`DiffReport::narrow_hit_rate`].
//! 2. **Quantized ≈ float.** ×1024 quantization may drift the probability a
//!    little and may flip a decision only when the float probability sits
//!    essentially on the threshold. The report carries the observed
//!    agreement rate and the worst probability drift for the caller to
//!    assert against.
//!
//! The harness is a library (not a `#[test]`) so the integration tests,
//! benches, and future fuzz drivers can share one replay loop.

use heimdall_nn::{BatchScratch, Mlp, MlpConfig, OutputLayer, QuantizedMlp};
use heimdall_trace::rng::Rng64;

/// Caps for `QuantizedMlp::clamp_lane_bits` that between them select every
/// lane instance of the i32 pass a host can run: the widest it detects, the
/// x86-64 baseline, the portable arrays.
pub const LANE_BITS: [u32; 3] = [256, 128, 0];

/// Differential-run parameters.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Randomized models to generate.
    pub models: usize,
    /// Feature rows replayed per model.
    pub rows_per_model: usize,
    /// Batch sizes cycle through `1..=max_batch`, so every width including
    /// ragged tails is exercised.
    pub max_batch: usize,
    /// Master seed; every model and stream derives from it.
    pub seed: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            models: 24,
            rows_per_model: 192,
            max_batch: 32,
            seed: 0xd1ff,
        }
    }
}

/// Outcome of one differential run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Models replayed.
    pub models: usize,
    /// Total feature rows scored (per path).
    pub rows: u64,
    /// Batched logits or probabilities that failed bitwise equality with
    /// the scalar quantized path. Must be zero.
    pub batch_bitwise_mismatches: u64,
    /// Rows the i32 fast path answered without falling back to the i64 pass.
    pub narrow_hits: u64,
    /// Rows where the quantized decision matched the float decision.
    pub decision_agreements: u64,
    /// Largest `|float probability - quantized probability|` observed.
    pub max_probability_drift: f32,
}

impl DiffReport {
    /// Fraction of rows where quantized and float decisions agree.
    pub fn decision_agreement(&self) -> f64 {
        self.share(self.decision_agreements)
    }

    /// Fraction of rows the i32 fast path answered.
    pub fn narrow_hit_rate(&self) -> f64 {
        self.share(self.narrow_hits)
    }

    fn share(&self, count: u64) -> f64 {
        if self.rows == 0 {
            return 1.0;
        }
        count as f64 / self.rows as f64
    }
}

/// Builds one seeded random model pair (float + quantized) with a
/// randomized architecture: input width 3..=16, Heimdall-style ReLU hidden
/// stack, and (every third seed) LinnOS' softmax-2 output to cover the
/// logit-difference folding.
pub fn random_model(seed: u64) -> (Mlp, QuantizedMlp) {
    let mut rng = Rng64::new(seed ^ 0x6469_6666);
    let dim = 3 + (rng.below(14) as usize);
    let mut cfg = MlpConfig::heimdall(dim);
    if seed % 3 == 2 {
        cfg.output = OutputLayer::Softmax2;
    }
    let mlp = Mlp::new(cfg, rng.next_u64());
    let quant = QuantizedMlp::quantize_paper(&mlp);
    (mlp, quant)
}

/// Draws one feature stream of `rows` rows for a `dim`-wide model:
/// unit-interval values with occasional negative and >1 excursions, the
/// same off-distribution drift the scaler regression guards against.
pub fn random_stream(seed: u64, rows: usize, dim: usize) -> Vec<f32> {
    let mut rng = Rng64::new(seed ^ 0x7374_7265_616d);
    (0..rows * dim)
        .map(|_| match rng.below(8) {
            0 => -rng.f32(),
            1 => 1.0 + rng.f32() * 2.0,
            _ => rng.f32(),
        })
        .collect()
}

/// Replays `cfg.models` randomized models over seeded streams, scoring
/// every row through every path.
///
/// Batch widths cycle `1..=max_batch` across the stream and the final
/// chunk is whatever ragged tail remains, so every width is hit. The
/// scratch arena is reused across batches and models, mirroring a deployed
/// admission loop.
pub fn run_diff(cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport {
        models: cfg.models,
        ..DiffReport::default()
    };
    let mut scratch = BatchScratch::new();
    let mut batch_logits: Vec<f32> = Vec::new();
    let mut batch_probs: Vec<f32> = Vec::new();
    for m in 0..cfg.models {
        let model_seed = cfg.seed.wrapping_add(m as u64).wrapping_mul(0x9e37_79b9);
        let (mlp, quant) = random_model(model_seed);
        let lanes = LANE_BITS.map(|bits| {
            let mut capped = quant.clone();
            capped.clamp_lane_bits(bits);
            capped
        });
        let dim = quant.input_dim();
        let stream = random_stream(model_seed, cfg.rows_per_model, dim);

        let mut width = 1usize;
        let mut offset = 0usize;
        while offset < cfg.rows_per_model {
            let p = width.min(cfg.rows_per_model - offset);
            let rows = &stream[offset * dim..(offset + p) * dim];
            batch_logits.clear();
            batch_probs.clear();
            quant.logit_batch_into(rows, &mut scratch, &mut batch_logits);
            quant.predict_batch_into(rows, &mut scratch, &mut batch_probs);
            for (r, row) in rows.chunks_exact(dim).enumerate() {
                report.rows += 1;
                // Batched vs scalar entry point vs each pass, bitwise.
                let scalar_logit = quant.logit(row);
                let scalar_prob = quant.predict(row);
                let narrow = quant.logit_narrow(row);
                report.narrow_hits += u64::from(narrow.is_some());
                if batch_logits[r].to_bits() != scalar_logit.to_bits()
                    || batch_probs[r].to_bits() != scalar_prob.to_bits()
                    || quant.logit_wide(row).to_bits() != scalar_logit.to_bits()
                    || narrow.is_some_and(|z| z.to_bits() != scalar_logit.to_bits())
                    || lanes.iter().any(|capped| {
                        capped.logit(row).to_bits() != scalar_logit.to_bits()
                            || capped.logit_narrow(row).map(f32::to_bits)
                                != narrow.map(f32::to_bits)
                    })
                {
                    report.batch_bitwise_mismatches += 1;
                }
                // Quantized vs float, statistical.
                let float_prob = mlp.predict(row);
                let drift = (float_prob - scalar_prob).abs();
                if drift > report.max_probability_drift {
                    report.max_probability_drift = drift;
                }
                if (float_prob >= 0.5) == (scalar_prob >= 0.5) {
                    report.decision_agreements += 1;
                }
            }
            offset += p;
            width = if width >= cfg.max_batch { 1 } else { width + 1 };
        }
    }
    report
}

//! Differential tests for the three inference paths (float, scalar
//! quantized, batched quantized), built on the shared harness in
//! `heimdall_integration::diff`.

use heimdall_integration::diff::{random_model, random_stream, run_diff, DiffConfig};
use heimdall_nn::BatchScratch;

/// The headline differential run: dozens of randomized models, every batch
/// width from 1 to 32 including ragged tails, three paths per row.
#[test]
fn differential_harness_holds_all_three_paths_together() {
    let report = run_diff(&DiffConfig::default());
    assert_eq!(report.models, 24);
    assert!(report.rows >= 24 * 192, "harness must score every row");
    assert_eq!(
        report.batch_bitwise_mismatches, 0,
        "batched quantized inference must be bitwise identical to scalar"
    );
    assert!(
        report.narrow_hit_rate() >= 0.99,
        "i32 fast path answered only {:.4} of an in-distribution stream",
        report.narrow_hit_rate()
    );
    assert!(
        report.decision_agreement() >= 0.99,
        "quantized-vs-float decision agreement {:.4} below 99%",
        report.decision_agreement()
    );
    assert!(
        report.max_probability_drift < 0.05,
        "quantization drifted a probability by {}",
        report.max_probability_drift
    );
}

/// Property: for seeded random models, `predict_batch` is bitwise identical
/// to scalar `predict` for every batch size 1..=32, including ragged tails
/// carved off a longer stream.
#[test]
fn predict_batch_bitwise_matches_scalar_for_all_widths() {
    for model_seed in 0..24u64 {
        let (_, quant) = random_model(model_seed);
        let dim = quant.input_dim();
        let mut scratch = BatchScratch::new();
        for p in 1..=32usize {
            let stream = random_stream(model_seed ^ (p as u64) << 8, p, dim);
            let mut probs = Vec::new();
            quant.predict_batch_into(&stream, &mut scratch, &mut probs);
            assert_eq!(probs.len(), p);
            for (r, row) in stream.chunks_exact(dim).enumerate() {
                assert_eq!(
                    probs[r].to_bits(),
                    quant.predict(row).to_bits(),
                    "model {model_seed}, batch {p}, row {r}"
                );
            }
        }
    }
}

/// Property: ragged tails — a stream that is not a multiple of the batch
/// width is scored in full-width chunks plus a short tail, and every row
/// still matches the scalar path bitwise.
#[test]
fn ragged_tail_chunks_match_scalar() {
    for model_seed in [3u64, 7, 11] {
        let (_, quant) = random_model(model_seed);
        let dim = quant.input_dim();
        let rows = 53usize; // prime: every width below leaves a ragged tail
        let stream = random_stream(model_seed, rows, dim);
        let mut scratch = BatchScratch::new();
        for width in [2usize, 5, 8, 17, 32] {
            let mut probs = Vec::new();
            for chunk in stream.chunks(width * dim) {
                quant.predict_batch_into(chunk, &mut scratch, &mut probs);
            }
            assert_eq!(probs.len(), rows);
            for (r, row) in stream.chunks_exact(dim).enumerate() {
                assert_eq!(
                    probs[r].to_bits(),
                    quant.predict(row).to_bits(),
                    "model {model_seed}, width {width}, row {r}"
                );
            }
        }
    }
}

/// The sign-only deployed decisions agree with the probability path for
/// every batched row.
#[test]
fn batched_decisions_are_sign_consistent() {
    let (_, quant) = random_model(5);
    let dim = quant.input_dim();
    let stream = random_stream(5, 64, dim);
    let probs = quant.predict_batch(&stream);
    let slow = quant.predict_slow_batch(&stream);
    for r in 0..64 {
        assert_eq!(slow[r], probs[r] >= 0.5, "row {r}");
    }
}

//! Differential tests for the training-path overhaul.
//!
//! The lane-parallel minibatch kernels in [`Mlp::train`] must be a pure
//! reimplementation of the per-sample reference: same shuffle order,
//! same per-scalar operation order, same optimizer updates. We assert
//! that the two trained models hold bit-identical parameters and report
//! bit-identical per-epoch losses — across batch sizes with and without
//! ragged tails, for both optimizers. (The in-crate
//! `train_matches_reference_bit_for_bit` covers the other architectures.)

use heimdall_integration::gen::synthetic_dataset as synthetic;
use heimdall_nn::{Dataset, Mlp, MlpConfig, Optimizer, TrainOpts};

/// Trains one batched and one reference model from identical seeds and
/// checks the contract for a single (batch size, optimizer) combination.
fn assert_parity(train: &Dataset, opts: &TrainOpts, what: &str) {
    let mut batched = Mlp::new(MlpConfig::heimdall(train.dim), 7);
    let mut reference = Mlp::new(MlpConfig::heimdall(train.dim), 7);
    let stats_b = batched.train(train, opts);
    let stats_r = reference.train_reference(train, opts);

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&batched.flat_params()),
        bits(&reference.flat_params()),
        "{what}: trained parameters diverged"
    );
    assert_eq!(
        bits(&stats_b.epoch_loss),
        bits(&stats_r.epoch_loss),
        "{what}: epoch losses diverged"
    );
}

#[test]
fn batched_backprop_matches_reference_across_batch_sizes_and_optimizers() {
    // 171 rows: ragged tails for both batch size 7 (171 = 24*7 + 3) and
    // 64 (171 = 2*64 + 43); batch size 1 degenerates to per-sample.
    let data = synthetic(11, 171, 11);
    let (train, _) = data.split(0.7);
    assert!(!train.is_empty());

    let optimizers = [
        ("adam", Optimizer::Adam),
        ("sgd", Optimizer::Sgd { momentum: 0.9 }),
    ];
    for (name, optimizer) in optimizers {
        for batch_size in [1usize, 7, 64] {
            let opts = TrainOpts {
                epochs: 4,
                batch_size,
                optimizer,
                seed: 3,
                ..TrainOpts::default()
            };
            assert_parity(&train, &opts, &format!("{name}/batch={batch_size}"));
        }
    }
}

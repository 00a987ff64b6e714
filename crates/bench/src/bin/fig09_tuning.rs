//! Fig 9 — neural-network hyperparameter tuning (§3.5).
//!
//! (b) accuracy vs number of hidden layers,
//! (c) accuracy over the (1st layer, 2nd layer) width grid,
//! (d) accuracy over activation-function permutations,
//! (e) output-layer comparison (sigmoid / linear / softmax).
//!
//! Usage: `fig09_tuning [--datasets N] [--secs S] [--seed K] [--jobs J]`

use heimdall_bench::{print_header, print_row, record_pool, Args};
use heimdall_core::pipeline::{run_batch, ModelArch, PipelineConfig};
use heimdall_core::RecordBatch;
use heimdall_nn::{Activation, MlpConfig, OutputLayer};

fn mean_auc(pool: &[RecordBatch], arch: MlpConfig) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for batch in pool {
        let mut cfg = PipelineConfig::heimdall();
        cfg.arch = ModelArch::Custom(arch.clone());
        if let Ok((_, report)) = run_batch(batch, &cfg) {
            if report.slow_fraction > 0.0 {
                sum += report.metrics.roc_auc;
                n += 1;
            }
        }
    }
    sum / n.max(1) as f64
}

fn hidden(units: &[usize]) -> Vec<(usize, Activation)> {
    units.iter().map(|&u| (u, Activation::ReLU)).collect()
}

fn main() {
    let args = Args::parse();
    let datasets = args.get_usize("datasets", 8);
    let secs = args.get_u64("secs", 20);
    let seed = args.get_u64("seed", 55);
    let pool = record_pool(datasets, secs, seed, args.jobs());

    // --- Fig 9b: number of hidden layers.
    print_header("Fig 9b: accuracy vs hidden-layer count");
    let layer_sets: [&[usize]; 5] = [
        &[128],
        &[128, 16],
        &[128, 32, 16],
        &[128, 64, 32, 16],
        &[128, 64, 32, 16, 8],
    ];
    for units in layer_sets {
        let arch = MlpConfig {
            input_dim: 11,
            hidden: hidden(units),
            output: OutputLayer::Sigmoid,
        };
        let mults = arch.multiplications();
        let auc = mean_auc(&pool, arch);
        print_row(
            &format!("{} layer(s)", units.len()),
            &[format!("{auc:.3}"), format!("{mults} mults")],
        );
    }

    // --- Fig 9c: width grid.
    print_header("Fig 9c: accuracy over (layer1 x layer2) width grid");
    let l1s = [32usize, 64, 128, 256];
    let l2s = [4usize, 8, 16, 32];
    print_row(
        "layer1\\layer2",
        &l2s.iter().map(|u| u.to_string()).collect::<Vec<_>>(),
    );
    for &u1 in &l1s {
        let mut cells = Vec::new();
        for &u2 in &l2s {
            let arch = MlpConfig {
                input_dim: 11,
                hidden: hidden(&[u1, u2]),
                output: OutputLayer::Sigmoid,
            };
            cells.push(format!("{:.3}", mean_auc(&pool, arch)));
        }
        print_row(&u1.to_string(), &cells);
    }

    // --- Fig 9d: activation permutations.
    print_header("Fig 9d: accuracy over activation permutations (layer1/layer2)");
    let acts = Activation::CANDIDATES;
    print_row(
        "l1\\l2",
        &acts.iter().map(|a| a.tag().to_string()).collect::<Vec<_>>(),
    );
    for &a1 in &acts {
        let mut cells = Vec::new();
        for &a2 in &acts {
            let arch = MlpConfig {
                input_dim: 11,
                hidden: vec![(128, a1), (16, a2)],
                output: OutputLayer::Sigmoid,
            };
            cells.push(format!("{:.3}", mean_auc(&pool, arch)));
        }
        print_row(a1.tag(), &cells);
    }

    // --- Fig 9e: output layer.
    print_header("Fig 9e: output-layer comparison");
    for output in [
        OutputLayer::Sigmoid,
        OutputLayer::Linear,
        OutputLayer::Softmax2,
    ] {
        let arch = MlpConfig {
            input_dim: 11,
            hidden: hidden(&[128, 16]),
            output,
        };
        let mults = arch.multiplications();
        let auc = mean_auc(&pool, arch);
        print_row(
            output.tag(),
            &[format!("{auc:.3}"), format!("{mults} mults")],
        );
    }
    println!();
    println!(
        "Final design (Fig 9f): 11 -> 128(ReLU) -> 16(ReLU) -> 1(sigmoid), {} multiplications",
        MlpConfig::heimdall(11).multiplications()
    );
}

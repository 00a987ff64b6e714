//! Fig 16 + §6.7 — memory/CPU overhead and training time.
//!
//! (a) Deployed model memory: Heimdall (quantized, 11 inputs) vs LinnOS
//!     (31 inputs, 256-wide). The paper reports 28 KB vs 68 KB.
//! (b) CPU overhead per 1000 I/Os: multiplications × inferences, for
//!     LinnOS (per page), Heimdall (per I/O), and Heimdall-J3.
//! (§4.1) measured per-inference latency of the f32 and quantized paths.
//! (§6.7) preprocessing + training time per million I/Os.
//!
//! Usage: `fig16_overhead [--secs S] [--seed K]`

use heimdall_bench::{collect_records, print_header, print_row, Args};
use heimdall_core::pipeline::{run_batch, PipelineConfig};
use heimdall_nn::{Mlp, MlpConfig, QuantizedMlp};
use heimdall_ssd::DeviceConfig;
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::{WorkloadProfile, PAGE_SIZE};
use std::time::Instant;

fn time_ns<F: FnMut() -> f32>(mut f: F, iters: u32) -> f64 {
    let mut acc = 0.0f32;
    for _ in 0..1000 {
        acc += f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        acc += f();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let args = Args::parse();
    let secs = args.get_u64("secs", 20);
    let seed = args.get_u64("seed", 4);

    let heimdall_cfg = MlpConfig::heimdall(11);
    let linnos_cfg = MlpConfig::linnos();

    // --- Fig 16a: memory.
    print_header("Fig 16a: deployed model memory");
    let hm = QuantizedMlp::quantize_paper(&Mlp::new(heimdall_cfg.clone(), 1));
    let lm = Mlp::new(linnos_cfg.clone(), 1);
    print_row("model", &["params".into(), "bytes".into()]);
    print_row(
        "Heimdall (quant)",
        &[
            format!("{}", heimdall_cfg.param_count()),
            format!("{}", hm.memory_bytes()),
        ],
    );
    print_row(
        "LinnOS (f32)",
        &[
            format!("{}", linnos_cfg.param_count()),
            format!("{}", lm.memory_bytes()),
        ],
    );
    println!(
        "memory ratio LinnOS/Heimdall: {:.1}x",
        lm.memory_bytes() as f64 / hm.memory_bytes() as f64
    );

    // --- Fig 16b: CPU overhead per 1000 I/Os on a representative size mix.
    print_header("Fig 16b: CPU overhead per 1000 I/Os (multiply operations)");
    let trace = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
        .seed(seed)
        .duration_secs(5)
        .build();
    let reads: Vec<_> = trace.requests.iter().filter(|r| r.op.is_read()).collect();
    let avg_pages: f64 = reads
        .iter()
        .map(|r| f64::from(r.size.div_ceil(PAGE_SIZE)))
        .sum::<f64>()
        / reads.len() as f64;
    let linnos_mults = linnos_cfg.multiplications() as f64 * avg_pages * 1000.0;
    let heimdall_mults = heimdall_cfg.multiplications() as f64 * 1000.0;
    let j3_cfg = MlpConfig::heimdall(1 + 9 + 3);
    let j3_mults = j3_cfg.multiplications() as f64 * 1000.0 / 3.0;
    print_row("policy", &["mults/kIO".into(), "vs LinnOS".into()]);
    for (name, m) in [
        ("LinnOS (per page)", linnos_mults),
        ("Heimdall", heimdall_mults),
        ("Heimdall-J3", j3_mults),
    ] {
        print_row(
            name,
            &[
                format!("{:.2e}", m),
                format!("{:.0}% less", 100.0 * (1.0 - m / linnos_mults)),
            ],
        );
    }
    println!("(average request spans {avg_pages:.1} pages in this trace)");

    // --- §4.1: measured per-inference latency.
    print_header("Inference latency (measured on this CPU, §4.1)");
    let f32_model = Mlp::new(heimdall_cfg, 2);
    let quant = QuantizedMlp::quantize_paper(&f32_model);
    let row = vec![0.3f32; 11];
    let f32_ns = time_ns(|| f32_model.predict(&row), 200_000);
    let q_ns = time_ns(|| quant.predict(&row), 200_000);
    let q_hard_ns = time_ns(|| f32::from(u8::from(quant.predict_slow(&row))), 200_000);
    print_row("f32 forward", &[format!("{:.3}us", f32_ns / 1000.0)]);
    print_row("quantized", &[format!("{:.3}us", q_ns / 1000.0)]);
    print_row(
        "quantized (sign)",
        &[format!("{:.3}us", q_hard_ns / 1000.0)],
    );

    // --- §6.7: training time per million I/Os.
    print_header("Training time (§6.7)");
    let records = collect_records(
        WorkloadProfile::TencentLike,
        secs,
        &DeviceConfig::consumer_nvme(),
        seed,
    );
    let (_, report) = run_batch(&records, &PipelineConfig::heimdall()).expect("trainable trace");
    let total = report.train_rows + report.test_rows;
    let per_million = 1e6 / total.max(1) as f64;
    print_row("stage", &["this trace".into(), "per 1M I/Os".into()]);
    print_row(
        "preprocess",
        &[
            format!("{:.2}s", report.preprocess_seconds),
            format!("{:.1}s", report.preprocess_seconds * per_million),
        ],
    );
    print_row(
        "train",
        &[
            format!("{:.2}s", report.train_seconds),
            format!("{:.1}s", report.train_seconds * per_million),
        ],
    );
    println!("({} feature rows from this trace)", total);
}

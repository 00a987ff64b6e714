//! Micro-benchmarks for the deployment inference paths (§4.1): f32 forward
//! pass, quantized integer pass, sign-only decision, the joint-inference
//! widths, and the decision kernel at group widths 1 and 8. The paper's
//! headline is sub-microsecond quantized inference (0.05-0.12 µs depending
//! on CPU); the kernel lanes record absolute ns/decision and the fast-path
//! hit rate into `results/inference.run.json`.

use heimdall_bench::report::{Json, RunReport};
use heimdall_bench::timing::Group;
use heimdall_nn::{BatchScratch, Mlp, MlpConfig, QuantizedMlp};
use std::hint::black_box;

fn bench_inference() {
    let mlp = Mlp::new(MlpConfig::heimdall(11), 7);
    let quant = QuantizedMlp::quantize_paper(&mlp);
    let row = vec![0.37f32; 11];

    let g = Group::new("inference");
    g.bench("f32_forward", || mlp.predict(black_box(&row)));
    g.bench("quantized", || quant.predict(black_box(&row)));
    g.bench("quantized_sign", || quant.predict_slow(black_box(&row)));
}

fn bench_linnos_vs_heimdall() {
    let heimdall = QuantizedMlp::quantize_paper(&Mlp::new(MlpConfig::heimdall(11), 7));
    let linnos = QuantizedMlp::quantize_paper(&Mlp::new(MlpConfig::linnos(), 7));
    let hrow = vec![0.37f32; 11];
    let lrow = vec![3.0f32; 31];

    let g = Group::new("model_size");
    g.bench("heimdall_3472_mults", || heimdall.predict(black_box(&hrow)));
    g.bench("linnos_8448_mults", || linnos.predict(black_box(&lrow)));
}

fn bench_joint_widths() {
    let g = Group::new("joint_inference");
    for p in [1usize, 3, 5, 9, 32, 128] {
        let dim = 1 + 9 + p;
        let quant = QuantizedMlp::quantize_paper(&Mlp::new(MlpConfig::heimdall(dim), 7));
        let row = vec![0.37f32; dim];
        g.bench(&format!("group/{p}"), || quant.predict(black_box(&row)));
    }
}

/// Absolute cost of the one decision kernel at P = 1 (the shape of
/// `OnlineAdmitter::decide`) and P = 8 (`decide_members`), with the share of
/// rows the i32 fast path answered. Every entry point is the same row
/// kernel, so there is no second side to take a ratio against.
fn bench_kernel(report: &mut RunReport) {
    let quant = QuantizedMlp::quantize_paper(&Mlp::new(MlpConfig::heimdall(11), 7));
    let g = Group::new("kernel");
    for p in [1usize, 8] {
        let rows: Vec<f32> = (0..p * 11).map(|i| (i % 13) as f32 * 0.07).collect();
        let mut scratch = BatchScratch::new();
        let mut out: Vec<bool> = Vec::with_capacity(p);
        let group_ns = g.bench(&format!("decisions/{p}"), || {
            out.clear();
            quant.predict_slow_batch_into(black_box(&rows), &mut scratch, &mut out);
            out.iter().filter(|&&d| d).count()
        });
        let hits = rows
            .chunks_exact(11)
            .filter(|r| quant.logit_narrow(r).is_some())
            .count();
        let hit_rate = hits as f64 / p as f64;
        println!(
            "  kernel/ns_per_decision/{p}           {:>10.1} ns  (fast path {:.0}%)",
            group_ns / p as f64,
            100.0 * hit_rate
        );
        report.push(Json::obj([
            ("group_width", Json::from(p)),
            ("ns_per_group", Json::from(group_ns)),
            ("ns_per_decision", Json::from(group_ns / p as f64)),
            ("fast_path_hit_rate", Json::from(hit_rate)),
        ]));
    }
}

fn main() {
    bench_inference();
    bench_linnos_vs_heimdall();
    bench_joint_widths();
    let mut report = RunReport::new("inference", 1);
    report.set("model", Json::from("heimdall-11"));
    report.set("quantization_scale", Json::from(1024u64));
    bench_kernel(&mut report);
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}

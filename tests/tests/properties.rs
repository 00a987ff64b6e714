//! Property-style tests on cross-crate invariants.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these run each invariant over many randomized cases drawn from the
//! in-tree deterministic generator — same coverage philosophy, fully
//! reproducible, no shrinking.

use heimdall_core::labeling::{device_throughput_view, period_label_view, PeriodThresholds};
use heimdall_core::{ReadView, RecordBatch};
use heimdall_integration::gen::{random_records, random_scored, random_trace};
use heimdall_metrics::{pr_auc, roc_auc, ConfusionMatrix, LatencyRecorder};
use heimdall_nn::{digitize, Mlp, MlpConfig, QuantizedMlp};
use heimdall_trace::augment::{rerate, resize};
use heimdall_trace::rng::Rng64;
use heimdall_trace::{MAX_IO_SIZE, PAGE_SIZE};

const CASES: u64 = 64;

#[test]
fn rerate_preserves_request_count_and_order() {
    let mut rng = Rng64::new(0x9001);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let factor = 0.1 + rng.f64() * 7.9;
        let out = rerate(&trace, factor);
        assert_eq!(out.len(), trace.len(), "case {case}");
        assert!(
            out.requests
                .windows(2)
                .all(|w| w[0].arrival_us <= w[1].arrival_us),
            "case {case}"
        );
    }
}

#[test]
fn resize_keeps_sizes_valid() {
    let mut rng = Rng64::new(0x9002);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let factor = 0.05 + rng.f64() * 15.95;
        let out = resize(&trace, factor);
        for r in &out.requests {
            assert!(r.size >= PAGE_SIZE && r.size <= MAX_IO_SIZE, "case {case}");
            assert_eq!(r.size % PAGE_SIZE, 0, "case {case}");
        }
    }
}

#[test]
fn roc_auc_bounded_and_flip_symmetric() {
    let mut rng = Rng64::new(0x9003);
    for case in 0..CASES {
        let (scores, labels) = random_scored(&mut rng, 4);
        let auc = roc_auc(&scores, &labels);
        assert!((0.0..=1.0).contains(&auc), "case {case}: auc {auc}");
        // Inverting the scores reflects the AUC around 0.5 (when both
        // classes are present).
        if labels.iter().any(|&l| l) && labels.iter().any(|&l| !l) {
            let flipped: Vec<f32> = scores.iter().map(|s| 1.0 - s).collect();
            let fauc = roc_auc(&flipped, &labels);
            assert!(
                (auc + fauc - 1.0).abs() < 1e-9,
                "case {case}: {auc} vs {fauc}"
            );
        }
    }
}

#[test]
fn pr_auc_bounded() {
    let mut rng = Rng64::new(0x9004);
    for case in 0..CASES {
        let (scores, labels) = random_scored(&mut rng, 4);
        let v = pr_auc(&scores, &labels);
        assert!((0.0..=1.0).contains(&v), "case {case}: pr_auc {v}");
    }
}

#[test]
fn confusion_matrix_rates_bounded() {
    let mut rng = Rng64::new(0x9005);
    for case in 0..CASES {
        let (scores, labels) = random_scored(&mut rng, 1);
        let threshold = rng.f32();
        let cm = ConfusionMatrix::from_scores(&scores, &labels, threshold);
        assert_eq!(cm.total() as usize, scores.len(), "case {case}");
        for v in [
            cm.accuracy(),
            cm.precision(),
            cm.recall(),
            cm.f1(),
            cm.fnr(),
            cm.fpr(),
        ] {
            assert!((0.0..=1.0).contains(&v), "case {case}: rate {v}");
        }
        // FNR + recall = 1 when positives exist.
        if cm.tp + cm.fn_ > 0 {
            assert!((cm.fnr() + cm.recall() - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}

#[test]
fn latency_percentiles_monotone() {
    let mut rng = Rng64::new(0x9006);
    for case in 0..CASES {
        let n = rng.range(1, 500) as usize;
        let samples: Vec<u64> = (0..n).map(|_| rng.range(1, 1_000_000)).collect();
        let rec = LatencyRecorder::from_samples(samples);
        let mut prev = 0;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = rec.percentile(p);
            assert!(v >= prev, "case {case}: p{p} {v} < {prev}");
            prev = v;
        }
        assert_eq!(rec.percentile(100.0), rec.max(), "case {case}");
    }
}

#[test]
fn quantized_matches_f32_decisions() {
    let mut rng = Rng64::new(0x9007);
    for case in 0..CASES {
        let mlp = Mlp::new(MlpConfig::heimdall(5), case);
        let q = QuantizedMlp::quantize_paper(&mlp);
        let rows = rng.range(1, 30) as usize;
        for _ in 0..rows {
            let row: Vec<f32> = (0..5).map(|_| rng.f32() * 4.0 - 2.0).collect();
            let pf = mlp.predict(&row);
            let pq = q.predict(&row);
            // Probabilities close; near the boundary the hard decisions may
            // legitimately differ, so assert on probability error only.
            assert!((pf - pq).abs() < 0.1, "case {case}: pf={pf} pq={pq}");
        }
    }
}

#[test]
fn digitize_is_digitwise_reconstructible() {
    let mut rng = Rng64::new(0x9008);
    for case in 0..CASES {
        let v = rng.below(9999);
        let digits = rng.range(1, 6) as usize;
        let d = digitize(v as f64, digits);
        assert_eq!(d.len(), digits, "case {case}");
        let max = 10u64.pow(digits as u32) - 1;
        let expect = v.min(max);
        let rebuilt: u64 = d.iter().fold(0u64, |acc, &x| acc * 10 + x as u64);
        assert_eq!(rebuilt, expect, "case {case}");
    }
}

#[test]
fn period_labels_and_health_are_well_formed() {
    let mut rng = Rng64::new(0x9009);
    for case in 0..CASES {
        let records = RecordBatch::from_records(&random_records(&mut rng));
        let view = ReadView::from(&records);
        let th = PeriodThresholds::default();
        let labels = period_label_view(&view, &th);
        assert_eq!(labels.len(), records.len(), "case {case}");
        let health = device_throughput_view(&view, th.window_us);
        assert_eq!(health.len(), records.len(), "case {case}");
        for &h in &health {
            assert!(
                h.is_finite() && (0.0..=2.0).contains(&h),
                "case {case}: health {h}"
            );
        }
    }
}

#[test]
fn trace_slicing_never_loses_interior_requests() {
    let mut rng = Rng64::new(0x900a);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let a = rng.below(500_000);
        let b = rng.range(500_000, 1_000_001);
        let s = trace.slice(a, b);
        let expect = trace
            .requests
            .iter()
            .filter(|r| r.arrival_us >= a && r.arrival_us < b)
            .count();
        assert_eq!(s.len(), expect, "case {case}");
    }
}

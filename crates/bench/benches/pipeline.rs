//! Benchmarks for the offline pipeline stages (§6.7): labeling, noise
//! filtering, feature extraction, and full training throughput.

use heimdall_bench::timing::Group;
use heimdall_core::features::{build_dataset_view, FeatureSpec};
use heimdall_core::filtering::{filter_view, FilterConfig};
use heimdall_core::labeling::{period_label_view, tune_thresholds_view, PeriodThresholds};
use heimdall_core::{collect, IoRecord, ReadView};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::WorkloadProfile;
use std::hint::black_box;

fn records() -> Vec<IoRecord> {
    let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
        .seed(11)
        .duration_secs(10)
        .build();
    let mut dev = SsdDevice::new(DeviceConfig::consumer_nvme(), 12);
    collect(&trace, &mut dev)
        .into_iter()
        .filter(IoRecord::is_read)
        .collect()
}

fn bench_stages() {
    let reads = records();
    let view = ReadView::from(&reads);
    let th = PeriodThresholds::default();
    let labels = period_label_view(&view, &th);
    let keep = vec![true; reads.len()];

    let g = Group::new("pipeline_stages").sample_size(20);
    g.bench("period_label", || period_label_view(black_box(&view), &th));
    g.bench("tune_thresholds", || tune_thresholds_view(black_box(&view)));
    g.bench("noise_filter", || {
        filter_view(black_box(&view), &labels, &FilterConfig::default())
    });
    g.bench("feature_extraction", || {
        build_dataset_view(
            black_box(&view),
            &labels,
            &keep,
            &FeatureSpec::heimdall(),
            1,
        )
    });
}

fn bench_simulator() {
    let trace = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
        .seed(13)
        .duration_secs(5)
        .build();
    let g = Group::new("simulator").sample_size(20);
    g.bench("ssd_replay_5s_trace", || {
        let mut dev = SsdDevice::new(DeviceConfig::datacenter_nvme(), 14);
        collect(&trace, &mut dev)
    });
}

fn main() {
    bench_stages();
    bench_simulator();
}

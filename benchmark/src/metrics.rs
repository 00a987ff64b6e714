//! Every metric the command emits, by name, with its unit and direction.
//! `BENCHMARK.json` declares the same lists (plus the end-to-end bounds);
//! the test suite holds the two together.
//!
//! Per-layer names are `<crate>.<module>.<what>`; `*_seconds` are host
//! seconds, `*_ns` are host nanoseconds per call. A layer that is not on a
//! workload's path reports 0 there.

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed beside the value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("ios_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("sim_read_mean_us", "us", "lower"),
];

/// Single layers; measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Every workload.
    m("bench.trace_overhead_ratio", "ratio", "lower"),
    m("metrics.latency.sim_read_p99_us", "us", "lower"),
    m("metrics.latency.sim_read_p9999_us", "us", "lower"),
    m("metrics.latency.samples", "count", "higher"),
    // Set-up stages.
    m("trace.gen.seconds", "s", "lower"),
    m("trace.gen.requests", "count", "higher"),
    m("core.collect.seconds", "s", "lower"),
    m("core.collect.ns_per_io", "ns", "lower"),
    m("cluster.replayer.merge_seconds", "s", "lower"),
    m("cluster.train.profile_seconds", "s", "lower"),
    m("cluster.train.fit_seconds", "s", "lower"),
    // pipeline_msr: the stages of one `run_batch`.
    m("core.pipeline.run_seconds", "s", "lower"),
    m("core.labeling.scratch_seconds", "s", "lower"),
    m("core.labeling.tune_seconds", "s", "lower"),
    m("core.labeling.apply_seconds", "s", "lower"),
    m("core.labeling.ns_per_read", "ns", "lower"),
    m("core.labeling.accuracy_vs_truth", "ratio", "higher"),
    m("core.labeling.slow_fraction", "ratio", "lower"),
    m("core.filtering.seconds", "s", "lower"),
    m("core.filtering.kept_ratio", "ratio", "higher"),
    m("core.features.build_seconds", "s", "lower"),
    m("core.features.rows", "count", "higher"),
    m("core.features.ns_per_row", "ns", "lower"),
    m("nn.scaler.seconds", "s", "lower"),
    m("nn.mlp.train_seconds", "s", "lower"),
    m("nn.mlp.train_us_per_row", "us", "lower"),
    m("nn.quantized.quantize_seconds", "s", "lower"),
    m("nn.batch.score_seconds", "s", "lower"),
    m("nn.batch.score_ns_per_row", "ns", "lower"),
    m("nn.quantized.f32_agreement", "ratio", "higher"),
    m("metrics.classification.seconds", "s", "lower"),
    m("core.pipeline.unattributed_seconds", "s", "lower"),
    m("core.pipeline.attributed_ratio", "ratio", "higher"),
    m("core.pipeline.allocs", "count", "lower"),
    m("core.pipeline.alloc_bytes", "bytes", "lower"),
    m("core.pipeline.roc_auc", "ratio", "higher"),
    m("core.pipeline.model_bytes", "bytes", "lower"),
    // homed_*: engine phases, policy calls, counts.
    m("cluster.replayer.rep_seconds", "s", "lower"),
    m("cluster.replayer.profiled_seconds", "s", "lower"),
    m("cluster.replayer.queue_seconds", "s", "lower"),
    m("cluster.replayer.policy_seconds", "s", "lower"),
    m("cluster.replayer.device_seconds", "s", "lower"),
    m("cluster.replayer.recorder_seconds", "s", "lower"),
    m("cluster.eventq.events", "count", "lower"),
    m("cluster.replayer.decisions", "count", "higher"),
    m("policies.route_read.calls", "count", "higher"),
    m("policies.route_read.ns_p50", "ns", "lower"),
    m("policies.route_read.ns_p9999", "ns", "lower"),
    m("policies.route_read.ns_mean", "ns", "lower"),
    m("policies.on_completion.calls", "count", "higher"),
    m("policies.on_completion.ns_mean", "ns", "lower"),
    m("policies.ml.inferences", "count", "lower"),
    m("policies.ml.decline_ratio", "ratio", "lower"),
    m("policies.ml.probe_admits", "count", "lower"),
    m("cluster.replayer.rerouted_ratio", "ratio", "lower"),
    m("cluster.replayer.hedges_fired", "count", "lower"),
    m("cluster.replayer.allocs", "count", "lower"),
    m("metrics.latency.sort_seconds", "s", "lower"),
    // homed_heimdall: the isolated decision stream, outermost level first.
    m("core.model.decide_ns", "ns", "lower"),
    m("core.model.decide_members_p8_ns", "ns", "lower"),
    m("core.model.row_assembly_ns", "ns", "lower"),
    m("nn.scaler.transform_row_ns", "ns", "lower"),
    m("nn.quantized.predict_ns", "ns", "lower"),
    m("nn.mlp.predict_ns", "ns", "lower"),
    m("nn.quantized.macs_per_decision", "count", "lower"),
    // wide_sf10: attribution by difference.
    m("cluster.wide.run_seconds", "s", "lower"),
    m("cluster.wide.engine_floor_seconds", "s", "lower"),
    m("cluster.wide.admission_seconds", "s", "lower"),
    m("cluster.wide.requests", "count", "higher"),
    m("cluster.wide.sub_reads", "count", "higher"),
    m("cluster.wide.ns_per_sub_read", "ns", "lower"),
    m("cluster.wide.rerouted_ratio", "ratio", "lower"),
    m("cluster.wide.allocs", "count", "lower"),
];

//! Online deployment runtime: the per-device state an admission policy
//! maintains to feed a [`Trained`](crate::pipeline::Trained) model.
//!
//! At decision time the policy knows the incoming request's size and the
//! device's current queue length; the history features come from the ring
//! of recently *completed* reads the policy has observed. The same runtime
//! also batches group members for joint inference (§4.2).

use crate::features::{FeatureSpec, HistEntry, History, LINNOS_DIM};
use crate::pipeline::{FeatureKind, Trained};
use heimdall_nn::scaler::digitize_into;
use heimdall_nn::BatchScratch;

/// Per-device online feature state.
#[derive(Debug, Clone)]
pub struct DeviceRuntime {
    hist: History,
    depth: usize,
    row: Vec<f32>,
}

/// LinnOS' 31 digitized inputs: 3 digits of pending queue length, 3 per
/// historical queue length, 4 per historical latency (tens of µs).
fn fill_linnos(hist: &History, queue_len: u32, out: &mut [f32]) {
    assert_eq!(out.len(), LINNOS_DIM, "LinnOS row width");
    let (pending, hist_digits) = out.split_at_mut(3);
    let (queue_lens, latencies) = hist_digits.split_at_mut(12);
    digitize_into(queue_len as f64, pending);
    for (k, digits) in queue_lens.chunks_exact_mut(3).enumerate() {
        digitize_into(hist.get(k).queue_len, digits);
    }
    for (k, digits) in latencies.chunks_exact_mut(4).enumerate() {
        digitize_into(hist.get(k).latency_us / 10.0, digits);
    }
}

/// The joint layout (§4.2): queue length, the shared history as `depth`
/// queue lengths, latencies and throughputs, then one size per member slot
/// of `out`, `sizes` repeating if there are fewer.
fn fill_joint(hist: &History, depth: usize, queue_len: u32, sizes: &[u32], out: &mut [f32]) {
    let (shared, members) = out.split_at_mut(1 + 3 * depth);
    shared[0] = queue_len as f32;
    for k in 0..depth {
        let e = hist.get(k);
        shared[1 + k] = e.queue_len as f32;
        shared[1 + depth + k] = e.latency_us as f32;
        shared[1 + 2 * depth + k] = e.throughput as f32;
    }
    for (x, &size) in members.iter_mut().zip(sizes.iter().cycle()) {
        *x = size as f32;
    }
}

impl DeviceRuntime {
    /// Creates a runtime tracking `depth` historical completions.
    pub fn new(depth: usize) -> Self {
        DeviceRuntime {
            hist: History::new(depth),
            depth,
            row: Vec::new(),
        }
    }

    /// Historical depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Records a completed read.
    pub fn on_completion(&mut self, latency_us: u64, queue_len_at_arrival: u32, size: u32) {
        self.hist.push(HistEntry {
            latency_us: latency_us as f64,
            queue_len: queue_len_at_arrival as f64,
            throughput: size as f64 / latency_us.max(1) as f64,
            is_read: 1.0,
        });
    }

    /// Returns `true` once enough completions exist for a full feature row.
    pub fn warmed_up(&self) -> bool {
        self.hist.is_full()
    }

    /// Builds the raw feature row for `spec` given the current queue length
    /// and the incoming request size. Missing history reads as zero.
    pub fn raw_row(&mut self, spec: &FeatureSpec, queue_len: u32, size: u32) -> &[f32] {
        spec.row_into(
            queue_len as f64,
            size as f64,
            0.0,
            &self.hist,
            &mut self.row,
        );
        &self.row
    }

    /// Builds LinnOS' 31 digitized inputs.
    pub fn linnos_row(&mut self, queue_len: u32) -> &[f32] {
        self.row.resize(LINNOS_DIM, 0.0);
        fill_linnos(&self.hist, queue_len, &mut self.row);
        &self.row
    }

    /// Builds the joint feature row for a group of request sizes (one per
    /// member of the layout being requested).
    pub fn joint_row(&mut self, hist_depth: usize, queue_len: u32, sizes: &[u32]) -> &[f32] {
        self.row.resize(1 + 3 * hist_depth + sizes.len(), 0.0);
        fill_joint(&self.hist, hist_depth, queue_len, sizes, &mut self.row);
        &self.row
    }
}

/// A fully-wired online admission decision helper: model + runtime.
#[derive(Debug, Clone)]
pub struct OnlineAdmitter {
    model: Trained,
    runtime: DeviceRuntime,
    /// Decision-kernel arena reused across calls so the hot path stays
    /// allocation-free.
    scratch: BatchScratch,
    /// The model's input row, assembled and scaled in place.
    row: Vec<f32>,
    /// The model is a per-I/O spec in [`FeatureSpec::with_depth`]'s column
    /// order — the joint layout with one member, which [`fill_joint`]
    /// assembles in one walk of the ring instead of one match per cell.
    joint_order: bool,
}

impl OnlineAdmitter {
    /// Wraps a trained model with a fresh runtime.
    ///
    /// # Panics
    ///
    /// Panics if the model was trained for joint inference (use
    /// [`OnlineAdmitter::decide_group`] sizing for those) with `p == 0`.
    pub fn new(model: Trained) -> Self {
        let depth = match &model.kind {
            FeatureKind::Spec(spec) => spec.hist_depth,
            FeatureKind::LinnosDigitized => 4,
            FeatureKind::Joint { hist_depth, p } => {
                assert!(*p > 0, "joint size must be positive");
                *hist_depth
            }
        };
        OnlineAdmitter {
            runtime: DeviceRuntime::new(depth),
            row: vec![0.0; model.mlp.config().input_dim],
            joint_order: matches!(&model.kind, FeatureKind::Spec(spec)
                if *spec == FeatureSpec::with_depth(spec.hist_depth)),
            model,
            scratch: BatchScratch::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Trained {
        &self.model
    }

    /// The one feed path of a warmed-up admitter: assembles each input row
    /// in place, scales it, runs the row kernel in the admitter's own
    /// scratch and hands the comparison with the calibrated threshold to
    /// `verdict` — once per member for a per-I/O spec, once per call for the
    /// queue-only LinnOS and the joint layouts (per-I/O use of a joint model
    /// pads every slot with the one size). Nothing here allocates.
    fn feed(&mut self, queue_len: u32, sizes: &[u32], mut verdict: impl FnMut(bool)) {
        let (model, hist, row) = (&self.model, &self.runtime.hist, &mut self.row);
        let mut score = |row: &mut [f32]| {
            verdict(model.score_row(row, &mut self.scratch) >= model.threshold);
        };
        match &model.kind {
            FeatureKind::Spec(spec) => {
                for &size in sizes {
                    if self.joint_order {
                        fill_joint(hist, spec.hist_depth, queue_len, &[size], row);
                    } else {
                        spec.row_into(queue_len as f64, size as f64, 0.0, hist, row);
                    }
                    score(row);
                }
            }
            FeatureKind::LinnosDigitized => {
                fill_linnos(hist, queue_len, row);
                score(row);
            }
            FeatureKind::Joint { hist_depth, .. } => {
                fill_joint(hist, *hist_depth, queue_len, sizes, row);
                score(row);
            }
        }
    }

    /// Decision for one request: `true` = decline (predicted slow).
    ///
    /// Admits unconditionally until the runtime has warmed up; after that
    /// the decision is `quantized.predict(transform_row(raw row)) >=
    /// threshold` with the row assembled in reused storage.
    pub fn decide(&mut self, queue_len: u32, size: u32) -> bool {
        let mut decline = false;
        if self.runtime.warmed_up() {
            self.feed(queue_len, &[size], |d| decline = d);
        }
        decline
    }

    /// Joint decision for a group of requests (§4.2): one inference admits
    /// or declines the whole group.
    ///
    /// # Panics
    ///
    /// Panics if the model is not a joint model or the group size differs
    /// from the trained `p`.
    pub fn decide_group(&mut self, queue_len: u32, sizes: &[u32]) -> bool {
        let FeatureKind::Joint { p, .. } = self.model.kind else {
            panic!("decide_group requires a joint-trained model");
        };
        assert_eq!(sizes.len(), p, "group size mismatch");
        let mut decline = false;
        if self.runtime.warmed_up() {
            self.feed(queue_len, sizes, |d| decline = d);
        }
        decline
    }

    /// Per-member decisions for a group of requests sharing one queue
    /// snapshot, appended to `out` (`true` = decline).
    ///
    /// For per-I/O ([`FeatureKind::Spec`]) models every member is scored —
    /// each decision is bitwise identical to calling
    /// [`OnlineAdmitter::decide`] per member. For queue-only LinnOS models
    /// (size-independent) one decision is computed and broadcast; for joint
    /// models the group-level [`OnlineAdmitter::decide_group`] verdict is
    /// broadcast. Admits everything until the runtime has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if the model is joint-trained and `sizes.len()` differs from
    /// the trained `p`.
    pub fn decide_members(&mut self, queue_len: u32, sizes: &[u32], out: &mut Vec<bool>) {
        let start = out.len();
        if self.runtime.warmed_up() && !sizes.is_empty() {
            if let FeatureKind::Joint { p, .. } = self.model.kind {
                assert_eq!(sizes.len(), p, "group size mismatch");
            }
            self.feed(queue_len, sizes, |d| out.push(d));
        }
        // One verdict for the whole group (or none yet): broadcast it.
        let decline = out.get(start).copied().unwrap_or(false);
        out.resize(start + sizes.len(), decline);
    }

    /// Feeds back a completed read.
    pub fn on_completion(&mut self, latency_us: u64, queue_len_at_arrival: u32, size: u32) {
        self.runtime
            .on_completion(latency_us, queue_len_at_arrival, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_batch;
    use crate::pipeline::{run_batch, PipelineConfig};
    use heimdall_ssd::{DeviceConfig, SsdDevice};
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::WorkloadProfile;

    fn trained(joint: usize) -> Trained {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(11)
            .duration_secs(20)
            .build();
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30;
        let mut dev = SsdDevice::new(cfg, 12);
        let records = collect_batch(&trace, &mut dev);
        let mut pc = PipelineConfig::heimdall();
        pc.joint = joint;
        run_batch(&records, &pc).unwrap().0
    }

    #[test]
    fn runtime_row_layout_matches_spec() {
        let mut rt = DeviceRuntime::new(3);
        rt.on_completion(100, 2, 4096);
        rt.on_completion(200, 3, 8192);
        rt.on_completion(400, 4, 4096);
        let spec = FeatureSpec::heimdall();
        let row = rt.raw_row(&spec, 7, 16384).to_vec();
        assert_eq!(row.len(), 11);
        assert_eq!(row[0], 7.0); // queue length
        assert_eq!(row[1], 4.0); // newest hist queue len
        assert_eq!(row[4], 400.0); // newest hist latency
        assert_eq!(row[10], 16384.0); // size
    }

    #[test]
    fn admits_during_warmup() {
        let mut adm = OnlineAdmitter::new(trained(1));
        assert!(!adm.decide(5, 4096), "must admit before warmup");
    }

    #[test]
    fn decisions_flow_after_warmup() {
        let mut adm = OnlineAdmitter::new(trained(1));
        for _ in 0..3 {
            adm.on_completion(100, 1, 4096);
        }
        // Calm history: should admit.
        let d = adm.decide(1, 4096);
        assert!(!d, "calm device should admit");
    }

    #[test]
    fn slow_history_raises_decline_probability() {
        let model = trained(1);
        let mut calm = OnlineAdmitter::new(model.clone());
        let mut stormy = OnlineAdmitter::new(model);
        for _ in 0..3 {
            calm.on_completion(100, 1, 4096);
            stormy.on_completion(20_000, 30, 4096);
        }
        let calm_row_slow = calm.decide(1, 4096);
        let stormy_row_slow = stormy.decide(30, 4096);
        // At minimum the stormy device must not look healthier.
        assert!(stormy_row_slow || !calm_row_slow);
    }

    #[test]
    fn joint_group_decisions() {
        let mut adm = OnlineAdmitter::new(trained(5));
        for _ in 0..3 {
            adm.on_completion(100, 1, 4096);
        }
        let d = adm.decide_group(1, &[4096; 5]);
        assert!(!d, "calm device should admit the group");
    }

    #[test]
    #[should_panic(expected = "group size mismatch")]
    fn wrong_group_size_panics() {
        let mut adm = OnlineAdmitter::new(trained(5));
        for _ in 0..3 {
            adm.on_completion(100, 1, 4096);
        }
        adm.decide_group(1, &[4096; 3]);
    }

    #[test]
    fn decide_members_matches_per_member_decide() {
        let model = trained(1);
        let mut batched = OnlineAdmitter::new(model.clone());
        let mut scalar = OnlineAdmitter::new(model);
        for _ in 0..3 {
            batched.on_completion(9_000, 12, 4096);
            scalar.on_completion(9_000, 12, 4096);
        }
        let sizes = [4096u32, 65536, 8192, 131072, 4096];
        let mut out = Vec::new();
        batched.decide_members(14, &sizes, &mut out);
        assert_eq!(out.len(), sizes.len());
        for (i, &size) in sizes.iter().enumerate() {
            assert_eq!(out[i], scalar.decide(14, size), "member {i}");
        }
    }

    #[test]
    fn decide_members_admits_during_warmup() {
        let mut adm = OnlineAdmitter::new(trained(1));
        let mut out = Vec::new();
        adm.decide_members(5, &[4096; 4], &mut out);
        assert_eq!(out, vec![false; 4]);
    }

    #[test]
    fn decide_members_broadcasts_joint_verdict() {
        let model = trained(5);
        let mut grouped = OnlineAdmitter::new(model.clone());
        let mut joint = OnlineAdmitter::new(model);
        for _ in 0..3 {
            grouped.on_completion(100, 1, 4096);
            joint.on_completion(100, 1, 4096);
        }
        let sizes = [4096u32; 5];
        let mut out = Vec::new();
        grouped.decide_members(1, &sizes, &mut out);
        let verdict = joint.decide_group(1, &sizes);
        assert_eq!(out, vec![verdict; 5]);
    }

    #[test]
    fn decide_members_appends_and_reuses_scratch() {
        let mut adm = OnlineAdmitter::new(trained(1));
        for _ in 0..3 {
            adm.on_completion(100, 1, 4096);
        }
        let mut out = vec![true];
        adm.decide_members(1, &[4096, 8192], &mut out);
        assert_eq!(out.len(), 3);
        assert!(out[0], "existing entries are preserved");
        adm.decide_members(1, &[16384], &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn linnos_row_is_31_digits() {
        let mut rt = DeviceRuntime::new(4);
        for i in 0..4 {
            rt.on_completion(100 * (i + 1), i as u32, 4096);
        }
        // Pending 12; history newest first: queue lengths 3, 2, 1, 0 and
        // latencies 400, 300, 200, 100 µs in tens of microseconds.
        #[rustfmt::skip]
        let want = [
            0., 1., 2.,
            0., 0., 3.,  0., 0., 2.,  0., 0., 1.,  0., 0., 0.,
            0., 0., 4., 0.,  0., 0., 3., 0.,  0., 0., 2., 0.,  0., 0., 1., 0.,
        ];
        assert_eq!(rt.linnos_row(12), want);
    }
}

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
use serde::{Deserialize, Serialize};

/// Per-device online feature state.
#[derive(Debug, Clone)]
pub struct DeviceRuntime {
    hist: History,
    depth: usize,
    row: Vec<f32>,
    /// Completions observed so far.
    completions: u64,
}

impl DeviceRuntime {
    /// Creates a runtime tracking `depth` historical completions.
    pub fn new(depth: usize) -> Self {
        DeviceRuntime {
            hist: History::new(depth),
            depth,
            row: Vec::new(),
            completions: 0,
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
        self.completions += 1;
    }

    /// Returns `true` once enough completions exist for a full feature row.
    pub fn warmed_up(&self) -> bool {
        self.hist.is_full()
    }

    /// Builds the raw feature row for `spec` given the current queue length
    /// and the incoming request size. Missing history reads as zero.
    pub fn raw_row(&mut self, spec: &FeatureSpec, queue_len: u32, size: u32) -> &[f32] {
        let hist = &self.hist;
        let mut row = std::mem::take(&mut self.row);
        spec.row_into(queue_len as f64, size as f64, 0.0, hist, &mut row);
        self.row = row;
        &self.row
    }

    /// Builds LinnOS' 31 digitized inputs.
    pub fn linnos_row(&mut self, queue_len: u32) -> &[f32] {
        self.row.resize(LINNOS_DIM, 0.0);
        let (pending, hist) = self.row.split_at_mut(3);
        let (queue_lens, latencies) = hist.split_at_mut(12);
        digitize_into(queue_len as f64, pending);
        for (k, digits) in queue_lens.chunks_exact_mut(3).enumerate() {
            digitize_into(self.hist.get(k).queue_len, digits);
        }
        for (k, digits) in latencies.chunks_exact_mut(4).enumerate() {
            digitize_into(self.hist.get(k).latency_us / 10.0, digits);
        }
        &self.row
    }

    /// Builds the joint feature row for a group of request sizes.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != p` of the layout being requested.
    pub fn joint_row(&mut self, hist_depth: usize, queue_len: u32, sizes: &[u32]) -> &[f32] {
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        row.push(queue_len as f32);
        for k in 0..hist_depth {
            row.push(self.hist.get(k).queue_len as f32);
        }
        for k in 0..hist_depth {
            row.push(self.hist.get(k).latency_us as f32);
        }
        for k in 0..hist_depth {
            row.push(self.hist.get(k).throughput as f32);
        }
        row.extend(sizes.iter().map(|&s| s as f32));
        self.row = row;
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
    batch_rows: Vec<f32>,
    /// Padded-size scratch for per-I/O use of joint models.
    sizes: Vec<u32>,
    /// Single-decision staging for [`OnlineAdmitter::decide`] /
    /// [`OnlineAdmitter::decide_group`].
    verdicts: Vec<bool>,
}

/// Summary counters of an [`OnlineAdmitter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmitStats {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests declined.
    pub declined: u64,
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
            model,
            scratch: BatchScratch::new(),
            batch_rows: Vec::new(),
            sizes: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Trained {
        &self.model
    }

    /// Decision for one request: `true` = decline (predicted slow).
    ///
    /// Admits unconditionally until the runtime has warmed up. Scores the
    /// single row through the decision kernel as a batch of one; the hot
    /// loop is free of per-decision allocation — the feature row, the
    /// kernel's activations, and the verdict all live in reused scratch.
    pub fn decide(&mut self, queue_len: u32, size: u32) -> bool {
        if !self.runtime.warmed_up() {
            return false;
        }
        self.verdicts.clear();
        match &self.model.kind {
            FeatureKind::Spec(spec) => {
                let row = self.runtime.raw_row(spec, queue_len, size);
                self.model
                    .predict_slow_batch_into(row, &mut self.scratch, &mut self.verdicts);
            }
            FeatureKind::LinnosDigitized => {
                let row = self.runtime.linnos_row(queue_len);
                self.model
                    .predict_slow_batch_into(row, &mut self.scratch, &mut self.verdicts);
            }
            FeatureKind::Joint { hist_depth, p } => {
                // Per-I/O use of a joint model: treat as a group of one,
                // padding the remaining slots with the same size.
                let (hist_depth, p) = (*hist_depth, *p);
                self.sizes.clear();
                self.sizes.resize(p, size);
                let row = self.runtime.joint_row(hist_depth, queue_len, &self.sizes);
                self.model
                    .predict_slow_batch_into(row, &mut self.scratch, &mut self.verdicts);
            }
        }
        self.verdicts[0]
    }

    /// Joint decision for a group of requests (§4.2): one inference admits
    /// or declines the whole group.
    ///
    /// # Panics
    ///
    /// Panics if the model is not a joint model or the group size differs
    /// from the trained `p`.
    pub fn decide_group(&mut self, queue_len: u32, sizes: &[u32]) -> bool {
        let FeatureKind::Joint { hist_depth, p } = self.model.kind else {
            panic!("decide_group requires a joint-trained model");
        };
        assert_eq!(sizes.len(), p, "group size mismatch");
        if !self.runtime.warmed_up() {
            return false;
        }
        self.verdicts.clear();
        let row = self.runtime.joint_row(hist_depth, queue_len, sizes);
        self.model
            .predict_slow_batch_into(row, &mut self.scratch, &mut self.verdicts);
        self.verdicts[0]
    }

    /// Per-member decisions for a group of requests sharing one queue
    /// snapshot, appended to `out` (`true` = decline).
    ///
    /// For per-I/O ([`FeatureKind::Spec`]) models this stacks one feature
    /// row per member and scores them in one call into the decision kernel
    /// — each decision is bitwise identical to calling
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
        if sizes.is_empty() {
            return;
        }
        if !self.runtime.warmed_up() {
            out.extend(sizes.iter().map(|_| false));
            return;
        }
        match &self.model.kind {
            FeatureKind::Spec(_) => {}
            FeatureKind::LinnosDigitized => {
                let d = self.decide(queue_len, sizes[0]);
                out.extend(sizes.iter().map(|_| d));
                return;
            }
            FeatureKind::Joint { .. } => {
                let d = self.decide_group(queue_len, sizes);
                out.extend(sizes.iter().map(|_| d));
                return;
            }
        }
        let FeatureKind::Spec(spec) = &self.model.kind else {
            unreachable!("non-spec kinds returned above")
        };
        let mut rows = std::mem::take(&mut self.batch_rows);
        rows.clear();
        for &size in sizes {
            rows.extend_from_slice(self.runtime.raw_row(spec, queue_len, size));
        }
        self.model
            .predict_slow_batch_into(&rows, &mut self.scratch, out);
        self.batch_rows = rows;
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

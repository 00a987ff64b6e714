//! The ML-powered policies: LinnOS (per-page cutoff NN), LinnOS+Hedging,
//! and Heimdall (per-I/O or joint-inference period NN).
//!
//! Both systems run one model instance *per device* (models are trained for
//! a workload-device pair, §2) and follow the paper's reroute discipline:
//! if the chosen device's model declines the I/O, it is redirected to the
//! replica, which admits by default (§6.1).
//!
//! **Probing.** The history features come from completed reads the policy
//! itself observed. A deployment that rerouted *everything* away from a
//! device would never refresh that device's history and could decline
//! forever on stale evidence. Real block-layer deployments escape this
//! because the device keeps serving other traffic; the user-level replayer
//! reproduces that safety valve explicitly: after `probe_after` consecutive
//! declines with no intervening completion from the device, one read is
//! admitted as a probe.

use crate::{DecisionCounters, DeviceView, Policy, Route};
use heimdall_core::model::OnlineAdmitter;
use heimdall_core::pipeline::{FeatureKind, Trained};
use heimdall_trace::IoRequest;

/// Decline-streak bookkeeping shared by the ML policies: applies the probe
/// rule per device and counts declines and probe admissions for the run
/// report.
#[derive(Debug, Clone)]
struct ProbeGate {
    /// Consecutive declines per device since its last observed completion.
    streak: Vec<u32>,
    /// After this many consecutive declines, admit one probe read so the
    /// history ring refreshes (see the module docs on probing).
    probe_after: u32,
    counters: Vec<DecisionCounters>,
}

impl ProbeGate {
    fn new(devices: usize, probe_after: u32) -> Self {
        ProbeGate {
            streak: vec![0; devices],
            probe_after,
            counters: vec![DecisionCounters::default(); devices],
        }
    }

    /// Applies the probe rule to a raw model decision for `dev`; returns
    /// the final decision (`true` = decline).
    fn apply(&mut self, dev: usize, declined: bool) -> bool {
        if !declined {
            self.streak[dev] = 0;
            return false;
        }
        if self.streak[dev] >= self.probe_after {
            self.streak[dev] = 0;
            self.counters[dev].probe_admits += 1;
            return false; // probe: admit despite the model
        }
        self.streak[dev] += 1;
        self.counters[dev].declines += 1;
        true
    }

    /// A completion on `dev` is fresh evidence: the decline streak resets.
    fn on_completion(&mut self, dev: usize) {
        if let Some(s) = self.streak.get_mut(dev) {
            *s = 0;
        }
    }
}

/// Group-admission cache for one device: the member decisions of the
/// current group and the next unconsumed slot. Heimdall keeps one per
/// device — the group is a property of the device's admission stream, so a
/// decision cached for one home must never be replayed for reads homed
/// elsewhere. Joint models broadcast one verdict across the group.
#[derive(Debug, Clone, Default)]
struct GroupState {
    decisions: Vec<bool>,
    next: usize,
}

impl GroupState {
    fn exhausted(&self) -> bool {
        self.next >= self.decisions.len()
    }
}

/// Heimdall's admission policy (§6.1): the primary device's model predicts
/// fast/slow; predicted-slow reads are rerouted to the secondary, which
/// admits by default.
///
/// With `joint > 1`, one inference covers the next `joint` reads (§4.2):
/// the group decision is refreshed at every group boundary, tracked
/// independently per home device.
pub struct HeimdallPolicy {
    admitters: Vec<OnlineAdmitter>,
    /// Admission group width, the models' trained `p` (1 = decide each
    /// read individually).
    joint: usize,
    /// Per-device group cache (unused when `joint == 1`).
    groups: Vec<GroupState>,
    gate: ProbeGate,
    inferences: u64,
    name: String,
    /// Reused group-size scratch (unused when `joint == 1`).
    sizes: Vec<u32>,
}

impl HeimdallPolicy {
    /// Builds the policy from one trained model per device.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or the models disagree on joint size.
    pub fn new(models: Vec<Trained>) -> Self {
        assert!(!models.is_empty(), "need one model per device");
        let joint = models[0].joint.max(1);
        assert!(
            models.iter().all(|m| m.joint.max(1) == joint),
            "models must share the joint size"
        );
        let name = if joint == 1 {
            "heimdall".to_string()
        } else {
            format!("heimdall-j{joint}")
        };
        let n = models.len();
        HeimdallPolicy {
            admitters: models.into_iter().map(OnlineAdmitter::new).collect(),
            joint,
            groups: vec![GroupState::default(); n],
            gate: ProbeGate::new(n, 8),
            inferences: 0,
            name,
            sizes: Vec::new(),
        }
    }

    /// Number of devices this policy serves.
    pub fn devices(&self) -> usize {
        self.admitters.len()
    }

    /// Overrides the probe interval (consecutive declines before one read
    /// is admitted to refresh the device history). Used by the ablation
    /// bench; the default of 8 balances staleness against exposure.
    pub fn with_probe_after(mut self, probe_after: u32) -> Self {
        self.gate.probe_after = probe_after;
        self
    }
}

impl Policy for HeimdallPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        _now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        debug_assert!(views.len() >= 2);
        let primary = home.min(views.len() - 1);
        let raw = if self.joint == 1 {
            self.inferences += 1;
            self.admitters[primary].decide(views[primary].queue_len, req.size)
        } else {
            // Joint admission: one inference decides the whole group. The
            // cache is per home device — interleaved reads for another
            // home run their own group and never consume this one.
            if self.groups[primary].exhausted() {
                self.inferences += 1;
                self.sizes.clear();
                self.sizes.resize(self.joint, req.size);
                let mut decisions = std::mem::take(&mut self.groups[primary].decisions);
                decisions.clear();
                self.admitters[primary].decide_members(
                    views[primary].queue_len,
                    &self.sizes,
                    &mut decisions,
                );
                self.groups[primary] = GroupState { decisions, next: 0 };
            }
            let group = &mut self.groups[primary];
            let d = group.decisions[group.next];
            group.next += 1;
            d
        };
        let declined = self.gate.apply(primary, raw);
        if declined {
            Route::To((primary + 1) % views.len())
        } else {
            Route::To(primary)
        }
    }

    fn on_completion(
        &mut self,
        dev: usize,
        req: &IoRequest,
        queue_len_at_arrival: u32,
        latency_us: u64,
        _now: u64,
    ) {
        if let Some(adm) = self.admitters.get_mut(dev) {
            adm.on_completion(latency_us, queue_len_at_arrival, req.size);
            self.gate.on_completion(dev);
        }
    }

    fn inferences(&self) -> u64 {
        self.inferences
    }

    fn decision_counters(&self) -> Vec<DecisionCounters> {
        self.gate.counters.clone()
    }
}

/// LinnOS' admission policy: a per-device 31-input digitized NN making one
/// inference per 4 KB page (§3.5a); a predicted-slow read is rerouted to
/// the replica, which admits by default.
pub struct LinnOsPolicy {
    admitters: Vec<OnlineAdmitter>,
    gate: ProbeGate,
    inferences: u64,
}

impl LinnOsPolicy {
    /// Builds the policy from one LinnOS-trained model per device.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or a model was not trained on LinnOS'
    /// digitized features.
    pub fn new(models: Vec<Trained>) -> Self {
        assert!(!models.is_empty(), "need one model per device");
        assert!(
            models
                .iter()
                .all(|m| m.kind == FeatureKind::LinnosDigitized),
            "LinnOS policy requires digitized-feature models"
        );
        let n = models.len();
        LinnOsPolicy {
            admitters: models.into_iter().map(OnlineAdmitter::new).collect(),
            gate: ProbeGate::new(n, 8),
            inferences: 0,
        }
    }

    fn decide(&mut self, req: &IoRequest, views: &[DeviceView], home: usize) -> bool {
        // LinnOS decides per page: a big I/O costs one inference per 4 KB
        // page. The per-page features are identical within one request, so
        // the decision is evaluated once and the cost accounted per page.
        self.inferences += u64::from(req.pages());
        let home = home.min(self.admitters.len() - 1);
        let raw = self.admitters[home].decide(views[home].queue_len, req.size);
        // Same probe rule as Heimdall: never decline unboundedly without
        // fresh evidence.
        self.gate.apply(home, raw)
    }
}

impl Policy for LinnOsPolicy {
    fn name(&self) -> &str {
        "linnos"
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        _now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        if self.decide(req, views, home) {
            Route::To((home + 1) % views.len())
        } else {
            Route::To(home.min(views.len() - 1))
        }
    }

    fn on_completion(
        &mut self,
        dev: usize,
        req: &IoRequest,
        queue_len_at_arrival: u32,
        latency_us: u64,
        _now: u64,
    ) {
        if let Some(adm) = self.admitters.get_mut(dev) {
            adm.on_completion(latency_us, queue_len_at_arrival, req.size);
            self.gate.on_completion(dev);
        }
    }

    fn inferences(&self) -> u64 {
        self.inferences
    }

    fn decision_counters(&self) -> Vec<DecisionCounters> {
        self.gate.counters.clone()
    }
}

/// LinnOS combined with hedging (the Fig 12 "LinnOS-Hedge" line): route by
/// the model, then hedge the chosen submission with a deadline.
pub struct LinnOsHedgePolicy {
    inner: LinnOsPolicy,
    /// Hedge deadline in microseconds.
    pub timeout_us: u64,
}

impl LinnOsHedgePolicy {
    /// Builds from per-device LinnOS models and a hedge deadline.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LinnOsPolicy::new`], or if the
    /// timeout is zero.
    pub fn new(models: Vec<Trained>, timeout_us: u64) -> Self {
        assert!(timeout_us > 0, "timeout must be positive");
        LinnOsHedgePolicy {
            inner: LinnOsPolicy::new(models),
            timeout_us,
        }
    }
}

impl Policy for LinnOsHedgePolicy {
    fn name(&self) -> &str {
        "linnos-hedge"
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        _now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        let primary = if self.inner.decide(req, views, home) {
            (home + 1) % views.len()
        } else {
            home.min(views.len() - 1)
        };
        Route::Hedged {
            primary,
            timeout_us: self.timeout_us,
        }
    }

    fn on_completion(
        &mut self,
        dev: usize,
        req: &IoRequest,
        queue_len_at_arrival: u32,
        latency_us: u64,
        now: u64,
    ) {
        self.inner
            .on_completion(dev, req, queue_len_at_arrival, latency_us, now);
    }

    fn inferences(&self) -> u64 {
        self.inner.inferences()
    }

    fn decision_counters(&self) -> Vec<DecisionCounters> {
        self.inner.decision_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_core::collect::collect_batch;
    use heimdall_core::pipeline::{run_batch, PipelineConfig};
    use heimdall_ssd::{DeviceConfig, SsdDevice};
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::{IoOp, WorkloadProfile, PAGE_SIZE};

    fn trained(cfg: &PipelineConfig) -> Trained {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(51)
            .duration_secs(15)
            .build();
        let mut dcfg = DeviceConfig::consumer_nvme();
        dcfg.free_pool = 1 << 30;
        let mut dev = SsdDevice::new(dcfg, 52);
        let records = collect_batch(&trace, &mut dev);
        run_batch(&records, cfg).unwrap().0
    }

    fn req(id: u64, size: u32) -> IoRequest {
        IoRequest {
            id,
            arrival_us: 0,
            offset: 0,
            size,
            op: IoOp::Read,
        }
    }

    fn views() -> Vec<DeviceView> {
        vec![DeviceView { queue_len: 1 }, DeviceView { queue_len: 1 }]
    }

    #[test]
    fn heimdall_policy_admits_calm_device() {
        let m = trained(&PipelineConfig::heimdall());
        let mut p = HeimdallPolicy::new(vec![m.clone(), m]);
        for i in 0..3 {
            p.on_completion(0, &req(i, PAGE_SIZE), 1, 100, 1000);
        }
        assert_eq!(
            p.route_read(&req(10, PAGE_SIZE), 0, &views(), 0),
            Route::To(0)
        );
        assert_eq!(p.inferences(), 1);
    }

    #[test]
    fn heimdall_joint_amortizes_inferences() {
        let mut cfg = PipelineConfig::heimdall();
        cfg.joint = 3;
        let m = trained(&cfg);
        let mut p = HeimdallPolicy::new(vec![m.clone(), m]);
        assert_eq!(p.name(), "heimdall-j3");
        for i in 0..3 {
            p.on_completion(0, &req(i, PAGE_SIZE), 1, 100, 1000);
        }
        for i in 0..9 {
            p.route_read(&req(10 + i, PAGE_SIZE), 0, &views(), 0);
        }
        assert_eq!(
            p.inferences(),
            3,
            "9 reads at joint=3 should cost 3 inferences"
        );
    }

    #[test]
    fn joint_group_cache_is_per_device() {
        let mut cfg = PipelineConfig::heimdall();
        cfg.joint = 3;
        let m = trained(&cfg);
        let mut p = HeimdallPolicy::new(vec![m.clone(), m]);
        for i in 0..3 {
            p.on_completion(0, &req(i, PAGE_SIZE), 1, 100, 1000);
            p.on_completion(1, &req(i, PAGE_SIZE), 1, 100, 1000);
        }
        // One read homed on each device: each home must open its own joint
        // group, so the second read cannot consume device 0's cached slot.
        p.route_read(&req(10, PAGE_SIZE), 0, &views(), 0);
        p.route_read(&req(11, PAGE_SIZE), 0, &views(), 1);
        assert_eq!(
            p.inferences(),
            2,
            "a read homed on device 1 must not consume device 0's group decision"
        );
        // Per-home amortization still holds: two more reads per home drain
        // the open groups without any new inference.
        for i in 0..2 {
            p.route_read(&req(20 + i, PAGE_SIZE), 0, &views(), 0);
            p.route_read(&req(30 + i, PAGE_SIZE), 0, &views(), 1);
        }
        assert_eq!(p.inferences(), 2);
    }

    #[test]
    fn probe_gate_counts_declines_and_probes() {
        let mut g = ProbeGate::new(2, 2);
        assert!(g.apply(0, true));
        assert!(g.apply(0, true));
        assert!(
            !g.apply(0, true),
            "third consecutive decline becomes a probe admit"
        );
        assert!(g.apply(1, true), "streaks are per device");
        g.on_completion(1);
        assert!(g.apply(1, true));
        assert_eq!(
            g.counters[0],
            DecisionCounters {
                declines: 2,
                probe_admits: 1
            }
        );
        assert_eq!(
            g.counters[1],
            DecisionCounters {
                declines: 2,
                probe_admits: 0
            }
        );
    }

    #[test]
    fn linnos_counts_per_page_inferences() {
        let m = trained(&PipelineConfig::linnos_baseline());
        let mut p = LinnOsPolicy::new(vec![m.clone(), m]);
        p.route_read(&req(0, PAGE_SIZE), 0, &views(), 0);
        assert_eq!(p.inferences(), 1);
        p.route_read(&req(1, 64 * 1024), 0, &views(), 0);
        assert_eq!(p.inferences(), 1 + 16, "64 KB = 16 pages");
    }

    #[test]
    fn linnos_hedge_hedges_routed_device() {
        let m = trained(&PipelineConfig::linnos_baseline());
        let mut p = LinnOsHedgePolicy::new(vec![m.clone(), m], 2_000);
        match p.route_read(&req(0, PAGE_SIZE), 0, &views(), 0) {
            Route::Hedged { timeout_us, .. } => assert_eq!(timeout_us, 2_000),
            r => panic!("expected hedged route, got {r:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "digitized-feature models")]
    fn linnos_rejects_heimdall_models() {
        let m = trained(&PipelineConfig::heimdall());
        LinnOsPolicy::new(vec![m]);
    }

    #[test]
    #[should_panic(expected = "need one model per device")]
    fn empty_models_panic() {
        HeimdallPolicy::new(vec![]);
    }
}

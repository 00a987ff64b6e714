//! Graceful degradation for the ML admitter.
//!
//! §7 of the paper leaves open how a deployed admitter should behave when
//! the workload drifts out from under the model or a device starts failing
//! slow; KML (Akgun et al.) argues learned OS components need explicit safe
//! degradation paths. [`FallbackPolicy`] provides one: it runs an ML policy
//! as primary and watches two health signals —
//!
//! - **input drift**: a [`DriftDetector`] (PSI over quantile sketches) fit
//!   on the first `warmup_reads` feature rows and evaluated every
//!   `psi_window` observations, and
//! - **latency collapse**: a per-device completion-latency EWMA compared
//!   against the warmup-window mean; a device running `collapse_factor`
//!   times slower than the healthy reference *and* `peer_factor` times
//!   slower than its healthiest peer, for `collapse_streak` *consecutive*
//!   completions spanning at least `collapse_min_us` of simulated time,
//!   trips the alarm. The persistence requirements separate a fail-slow
//!   device from a healthy busy period (GC, flush), which inflates latency
//!   just as hard but ends within a burst — including the deep-queue drain
//!   that delivers many inflated completions in a few milliseconds; the
//!   peer comparison separates it from workload overload, which inflates
//!   every replica together. The probe admissions of the ML policy keep
//!   feeding this signal even while the model declines the device.
//!
//! Either alarm demotes the wrapper into a degradation state machine:
//! *primary → degraded → cooldown → re-promoted*. While degraded (and
//! through the cooldown) reads are served by a wrapped heuristic fallback;
//! when the cooldown expires without a fresh alarm the ML policy is
//! re-promoted and the health baselines are re-armed. On a healthy trace
//! the wrapper never draws randomness and delegates routing verbatim, so
//! it is bitwise-identical to the bare ML policy — the robustness layer is
//! provably zero-cost on the happy path.

use crate::{DecisionCounters, DeviceView, Policy, Route};
use heimdall_core::DriftDetector;
use heimdall_nn::Dataset;
use heimdall_trace::IoRequest;

/// Feature row observed per read: the request size alone. Deliberately the
/// one *workload-intrinsic* feature — queue lengths are feedback-coupled
/// with the policy's own routing, and arrival rate / home mix cycle with a
/// workload's natural phases, so a fixed reference over any of them reads
/// healthy steady state as drift. Device sickness is the latency signal's
/// job; the PSI signal owns "the request mix shifted from what the model
/// was profiled on".
const DRIFT_FEATURES: usize = 1;

/// Thresholds and window lengths for [`FallbackPolicy`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FallbackConfig {
    /// Reads used to fit the PSI reference and the latency baseline.
    pub warmup_reads: u64,
    /// Observations per PSI evaluation window.
    pub psi_window: u64,
    /// PSI above this demotes the ML policy (the conventional 0.25 flags a
    /// "significant" shift; demotion wants a distinctly stronger signal).
    pub psi_threshold: f64,
    /// A device whose latency EWMA exceeds `collapse_factor` times the
    /// warmup mean is collapse-suspect.
    pub collapse_factor: f64,
    /// A collapse-suspect device must also run `peer_factor` times slower
    /// than the healthiest peer with data. Workload overload inflates every
    /// replica together and must not read as device sickness; a fail-slow
    /// device is slow *relative to its peers*. With no observed peer (a
    /// single-device deployment, or before any peer completion) the
    /// absolute check stands alone.
    pub peer_factor: f64,
    /// Consecutive collapse-suspect completions on one device before the
    /// alarm trips. Healthy slow periods (GC, flushes) inflate latency far
    /// beyond `collapse_factor` but end within a burst; a fail-slow device
    /// stays inflated, so persistence separates the two.
    pub collapse_streak: u64,
    /// The suspect streak must also span this much *simulated time*. A
    /// deep-queue drain after a busy burst delivers a long run of inflated
    /// completions within a few milliseconds, so a completion count alone
    /// is no persistence at all; a fail-slow fault stays suspect for
    /// seconds. Sized well above the busy-interval tail (GC intervals run
    /// tens of milliseconds).
    pub collapse_min_us: u64,
    /// Smoothing factor of the per-device latency EWMAs.
    pub ewma_alpha: f64,
    /// Reads served by the fallback after a demotion before the cooldown.
    pub degraded_reads: u64,
    /// Further fallback-served reads awaiting re-promotion; a fresh alarm
    /// during the cooldown restarts the degraded phase.
    pub cooldown_reads: u64,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig {
            // The reference must span several busy/calm device cycles; a
            // short warmup sees only cold, empty-queue state and every
            // steady-state window afterwards reads as drift.
            warmup_reads: 4096,
            psi_window: 1024,
            psi_threshold: 1.0,
            collapse_factor: 8.0,
            peer_factor: 4.0,
            collapse_streak: 64,
            collapse_min_us: 1_000_000,
            ewma_alpha: 0.15,
            degraded_reads: 8192,
            cooldown_reads: 1024,
        }
    }
}

impl FallbackConfig {
    fn validate(&self) {
        assert!(self.warmup_reads > 0, "warmup_reads must be positive");
        assert!(self.psi_window > 0, "psi_window must be positive");
        assert!(
            self.psi_threshold > 0.0 && self.psi_threshold.is_finite(),
            "psi_threshold must be positive"
        );
        assert!(
            self.collapse_factor > 1.0 && self.collapse_factor.is_finite(),
            "collapse_factor must exceed 1"
        );
        assert!(
            self.peer_factor > 1.0 && self.peer_factor.is_finite(),
            "peer_factor must exceed 1"
        );
        assert!(self.collapse_streak > 0, "collapse_streak must be positive");
        assert!(self.collapse_min_us > 0, "collapse_min_us must be positive");
        assert!(self.degraded_reads > 0, "degraded_reads must be positive");
        assert!(self.cooldown_reads > 0, "cooldown_reads must be positive");
    }
}

/// Degradation state, counted in fallback-served reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Primary,
    Degraded(u64),
    Cooldown(u64),
}

/// ML-primary policy with heuristic fallback and automatic re-promotion.
pub struct FallbackPolicy {
    primary: Box<dyn Policy>,
    fallback: Box<dyn Policy>,
    cfg: FallbackConfig,
    name: String,
    mode: Mode,
    /// Feature rows collected during warmup (`None` once consumed).
    reference: Option<Dataset>,
    detector: Option<DriftDetector>,
    /// Set when the warmup reference was too degenerate to fit a detector,
    /// so the PSI signal stays off instead of re-collecting forever.
    drift_disabled: bool,
    warm_latency_sum: f64,
    warm_latency_n: u64,
    /// Healthy mean completion latency (set after warmup).
    ref_latency: Option<f64>,
    /// Per-device latency EWMAs, grown on demand.
    ewma: Vec<crate::Ewma>,
    /// Per-device runs of consecutive collapse-suspect completions.
    streak: Vec<u64>,
    /// Simulated time of the first suspect completion in the current run.
    streak_since: Vec<u64>,
    psi_alarm: bool,
    latency_alarm: bool,
    psi_alarms: u64,
    latency_alarms: u64,
    fallback_decisions: u64,
    degradations: u64,
}

impl FallbackPolicy {
    /// Wraps `primary` (the ML admitter) with `fallback` (a heuristic or
    /// admit-all policy) under the default thresholds.
    pub fn new(primary: Box<dyn Policy>, fallback: Box<dyn Policy>) -> Self {
        Self::with_config(primary, fallback, FallbackConfig::default())
    }

    /// [`FallbackPolicy::new`] with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero windows, collapse
    /// factor not above 1, PSI threshold not positive).
    pub(crate) fn with_config(
        primary: Box<dyn Policy>,
        fallback: Box<dyn Policy>,
        cfg: FallbackConfig,
    ) -> Self {
        cfg.validate();
        let name = format!("fallback({})", primary.name());
        FallbackPolicy {
            primary,
            fallback,
            cfg,
            name,
            mode: Mode::Primary,
            reference: Some(Dataset::new(DRIFT_FEATURES)),
            detector: None,
            drift_disabled: false,
            warm_latency_sum: 0.0,
            warm_latency_n: 0,
            ref_latency: None,
            ewma: Vec::new(),
            streak: Vec::new(),
            streak_since: Vec::new(),
            psi_alarm: false,
            latency_alarm: false,
            psi_alarms: 0,
            latency_alarms: 0,
            fallback_decisions: 0,
            degradations: 0,
        }
    }

    /// `true` while reads are served by the fallback (degraded or cooldown).
    #[cfg(test)]
    fn is_degraded(&self) -> bool {
        self.mode != Mode::Primary
    }

    /// Demotions from primary into the degraded state so far.
    pub fn degradations(&self) -> u64 {
        self.degradations
    }

    /// Cumulative `(psi, latency)` alarm counts — which health signal has
    /// been driving demotions.
    #[cfg(test)]
    fn alarm_counts(&self) -> (u64, u64) {
        (self.psi_alarms, self.latency_alarms)
    }

    /// Feeds the drift detector one feature row, fitting the reference
    /// first if warmup just completed.
    fn observe_features(&mut self, req: &IoRequest) {
        let row = [req.size as f32];
        if let Some(reference) = self.reference.as_mut() {
            reference.push(&row, 0.0);
            if reference.rows() as u64 >= self.cfg.warmup_reads {
                let reference = self.reference.take().expect("checked above");
                match DriftDetector::fit(&reference) {
                    Some(det) => self.detector = Some(det),
                    None => self.drift_disabled = true,
                }
            }
            return;
        }
        if let Some(det) = self.detector.as_mut() {
            det.observe(&row);
            if det.observed() >= self.cfg.psi_window {
                let psi = det.psi();
                if psi >= self.cfg.psi_threshold {
                    self.psi_alarm = true;
                    self.psi_alarms += 1;
                }
                det.reset_window();
            }
        }
    }

    /// Consumes and clears the latched alarms.
    fn take_alarm(&mut self) -> bool {
        let alarm = self.psi_alarm || self.latency_alarm;
        self.psi_alarm = false;
        self.latency_alarm = false;
        alarm
    }

    /// Advances the degradation state machine by one read.
    fn step_mode(&mut self, alarm: bool) {
        self.mode = match self.mode {
            Mode::Primary => {
                if alarm {
                    self.degradations += 1;
                    Mode::Degraded(self.cfg.degraded_reads)
                } else {
                    Mode::Primary
                }
            }
            Mode::Degraded(remaining) => {
                if alarm {
                    // A fresh alarm re-arms the full degraded window.
                    Mode::Degraded(self.cfg.degraded_reads)
                } else if remaining <= 1 {
                    Mode::Cooldown(self.cfg.cooldown_reads)
                } else {
                    Mode::Degraded(remaining - 1)
                }
            }
            Mode::Cooldown(remaining) => {
                if alarm {
                    Mode::Degraded(self.cfg.degraded_reads)
                } else if remaining <= 1 {
                    self.repromote();
                    Mode::Primary
                } else {
                    Mode::Cooldown(remaining - 1)
                }
            }
        };
    }

    /// Re-arms the health signals for a fresh primary trial: the drift
    /// window restarts and the collapse streaks reset, but the latency
    /// EWMAs are *kept* — they are the devices' best-known health state.
    /// A recovered device decays below the collapse threshold within a few
    /// completions (the streak reset absorbs that tail), while a device
    /// still inside a fault re-trips the alarm after one streak, so a
    /// re-promotion into an ongoing fault stays a bounded probe instead of
    /// a full flood.
    fn repromote(&mut self) {
        if let Some(det) = self.detector.as_mut() {
            det.reset_window();
        }
        self.streak.iter_mut().for_each(|s| *s = 0);
        self.psi_alarm = false;
        self.latency_alarm = false;
    }
}

impl Policy for FallbackPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        self.observe_features(req);
        let alarm = self.take_alarm();
        self.step_mode(alarm);
        match self.mode {
            // The primary sees the exact call it would see unwrapped.
            Mode::Primary => self.primary.route_read(req, now, views, home),
            Mode::Degraded(_) | Mode::Cooldown(_) => {
                self.fallback_decisions += 1;
                self.fallback.route_read(req, now, views, home)
            }
        }
    }

    fn on_submit(&mut self, dev: usize, req: &IoRequest, now: u64) {
        // Both wrapped policies track submissions so either can take over
        // with warm state.
        self.primary.on_submit(dev, req, now);
        self.fallback.on_submit(dev, req, now);
    }

    fn on_completion(
        &mut self,
        dev: usize,
        req: &IoRequest,
        queue_len_at_arrival: u32,
        latency_us: u64,
        now: u64,
    ) {
        self.primary
            .on_completion(dev, req, queue_len_at_arrival, latency_us, now);
        self.fallback
            .on_completion(dev, req, queue_len_at_arrival, latency_us, now);
        if self.ewma.len() <= dev {
            self.ewma
                .resize_with(dev + 1, || crate::Ewma::new(self.cfg.ewma_alpha));
            self.streak.resize(dev + 1, 0);
            self.streak_since.resize(dev + 1, 0);
        }
        self.ewma[dev].update(latency_us as f64);
        match self.ref_latency {
            None => {
                self.warm_latency_sum += latency_us as f64;
                self.warm_latency_n += 1;
                if self.warm_latency_n >= self.cfg.warmup_reads {
                    self.ref_latency =
                        Some((self.warm_latency_sum / self.warm_latency_n as f64).max(1.0));
                }
            }
            Some(reference) => {
                // Collapse must be *sustained*: a healthy busy period (GC,
                // flush) inflates the EWMA too, but ends within a burst and
                // resets the streak before it reaches the alarm length. It
                // must also be *differential*: overload inflates every
                // replica together, while a sick device lags its peers.
                let own = self.ewma[dev].get_or(reference);
                let min_peer = self
                    .ewma
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != dev)
                    .filter_map(|(_, e)| e.value())
                    .fold(f64::INFINITY, f64::min);
                let lags_peers = min_peer.is_infinite() || own > self.cfg.peer_factor * min_peer;
                if own > self.cfg.collapse_factor * reference && lags_peers {
                    if self.streak[dev] == 0 {
                        self.streak_since[dev] = now;
                    }
                    self.streak[dev] += 1;
                    if self.streak[dev] >= self.cfg.collapse_streak
                        && now.saturating_sub(self.streak_since[dev]) >= self.cfg.collapse_min_us
                    {
                        self.latency_alarm = true;
                        self.latency_alarms += 1;
                        self.streak[dev] = 0;
                    }
                } else {
                    self.streak[dev] = 0;
                }
            }
        }
    }

    fn inferences(&self) -> u64 {
        self.primary.inferences()
    }

    fn decision_counters(&self) -> Vec<DecisionCounters> {
        self.primary.decision_counters()
    }

    fn fallback_decisions(&self) -> u64 {
        self.fallback_decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Baseline;
    use heimdall_trace::{IoOp, PAGE_SIZE};

    /// Marker fallback: always routes to device 1.
    struct ToOne;
    impl Policy for ToOne {
        fn name(&self) -> &str {
            "to-one"
        }
        fn route_read(&mut self, _: &IoRequest, _: u64, _: &[DeviceView], _: usize) -> Route {
            Route::To(1)
        }
    }

    fn read(id: u64, t: u64) -> IoRequest {
        IoRequest {
            id,
            arrival_us: t,
            offset: 0,
            size: PAGE_SIZE,
            op: IoOp::Read,
        }
    }

    fn views() -> Vec<DeviceView> {
        vec![DeviceView { queue_len: 1 }, DeviceView { queue_len: 1 }]
    }

    fn tiny_cfg() -> FallbackConfig {
        FallbackConfig {
            warmup_reads: 16,
            psi_window: 16,
            collapse_streak: 4,
            collapse_min_us: 1_000,
            degraded_reads: 8,
            cooldown_reads: 4,
            ..FallbackConfig::default()
        }
    }

    fn policy(cfg: FallbackConfig) -> FallbackPolicy {
        FallbackPolicy::with_config(Box::new(Baseline), Box::new(ToOne), cfg)
    }

    /// Drives `n` reads with healthy completions through the wrapper.
    fn drive_healthy(p: &mut FallbackPolicy, n: u64, t0: u64) -> u64 {
        let mut t = t0;
        for i in 0..n {
            p.route_read(&read(i, t), t, &views(), 0);
            p.on_completion(0, &read(i, t), 1, 100, t + 100);
            t += 200;
        }
        t
    }

    #[test]
    fn stays_primary_on_healthy_stream() {
        let mut p = policy(tiny_cfg());
        drive_healthy(&mut p, 200, 0);
        assert!(!p.is_degraded());
        assert_eq!(p.fallback_decisions(), 0);
        assert_eq!(p.degradations(), 0);
        let r = p.route_read(&read(999, 1_000_000), 1_000_000, &views(), 0);
        assert_eq!(r, Route::To(0), "primary (Baseline) routes home");
    }

    #[test]
    fn latency_collapse_demotes_then_cooldown_repromotes() {
        let mut p = policy(tiny_cfg());
        let mut t = drive_healthy(&mut p, 32, 0);
        assert!(!p.is_degraded());
        // Collapse: completions 50x the healthy reference.
        for i in 0..8 {
            p.route_read(&read(100 + i, t), t, &views(), 0);
            p.on_completion(0, &read(100 + i, t), 1, 5_000, t + 5_000);
            t += 6_000;
        }
        let r = p.route_read(&read(200, t), t, &views(), 0);
        assert!(p.is_degraded());
        assert_eq!(r, Route::To(1), "degraded reads go to the fallback");
        assert_eq!(p.degradations(), 1);
        assert!(p.fallback_decisions() > 0);
        // Recovery: healthy completions again; after degraded + cooldown
        // reads without an alarm the primary is re-promoted.
        drive_healthy(&mut p, 32, t + 1_000);
        assert!(!p.is_degraded(), "cooldown expiry re-promotes");
        assert_eq!(p.degradations(), 1, "no re-demotion after recovery");
    }

    #[test]
    fn fresh_alarm_rearms_degraded_window() {
        let cfg = tiny_cfg();
        let mut p = policy(cfg);
        let mut t = drive_healthy(&mut p, 32, 0);
        // Sustained collapse far longer than degraded + cooldown.
        for i in 0..200 {
            p.route_read(&read(100 + i, t), t, &views(), 0);
            p.on_completion(0, &read(100 + i, t), 1, 5_000, t + 5_000);
            t += 6_000;
        }
        assert!(p.is_degraded(), "alarms keep re-arming the window");
        assert_eq!(p.degradations(), 1, "one demotion, continuously re-armed");
    }

    #[test]
    fn short_collapse_burst_stays_primary() {
        // Same collapse magnitude and count as the demoting case, but the
        // suspect completions land within less simulated time than
        // `collapse_min_us` — the shape of a deep-queue drain after a busy
        // burst, not of a fail-slow device.
        let mut p = policy(FallbackConfig {
            collapse_min_us: 1_000_000,
            ..tiny_cfg()
        });
        let mut t = drive_healthy(&mut p, 32, 0);
        for i in 0..16u64 {
            p.route_read(&read(100 + i, t), t, &views(), 0);
            p.on_completion(0, &read(100 + i, t), 1, 5_000, t + 5_000);
            t += 10; // rapid-fire drain: whole run spans microseconds
        }
        assert!(!p.is_degraded(), "a burst-length collapse must not demote");
        assert_eq!(p.alarm_counts(), (0, 0));
    }

    #[test]
    fn overload_on_every_device_stays_primary() {
        let mut p = policy(tiny_cfg());
        let mut t = 0;
        // Warm up with completions on both devices so each has peer data.
        for i in 0..32u64 {
            p.route_read(&read(i, t), t, &views(), 0);
            p.on_completion((i % 2) as usize, &read(i, t), 1, 100, t + 100);
            t += 200;
        }
        assert!(!p.is_degraded());
        // Overload: every replica runs 50x slow together. Absolute collapse
        // without peer lag is workload pressure, not device sickness.
        for i in 0..64u64 {
            p.route_read(&read(100 + i, t), t, &views(), 0);
            p.on_completion((i % 2) as usize, &read(100 + i, t), 1, 5_000, t + 5_000);
            t += 6_000;
        }
        assert!(!p.is_degraded(), "uniform overload must not demote");
        assert_eq!(p.alarm_counts(), (0, 0));
    }

    #[test]
    fn device_lagging_its_peer_demotes() {
        let mut p = policy(tiny_cfg());
        let mut t = 0;
        for i in 0..32u64 {
            p.route_read(&read(i, t), t, &views(), 0);
            p.on_completion((i % 2) as usize, &read(i, t), 1, 100, t + 100);
            t += 200;
        }
        // Device 0 collapses while device 1 stays healthy: sickness.
        for i in 0..16u64 {
            p.route_read(&read(100 + i, t), t, &views(), 0);
            let (dev, lat) = if i % 2 == 0 { (0, 5_000) } else { (1, 100) };
            p.on_completion(dev, &read(100 + i, t), 1, lat, t + lat);
            t += 6_000;
        }
        assert!(p.is_degraded(), "a device lagging its peer is sick");
        assert!(p.alarm_counts().1 >= 1);
    }

    #[test]
    #[should_panic(expected = "collapse_factor must exceed 1")]
    fn degenerate_config_rejected() {
        policy(FallbackConfig {
            collapse_factor: 1.0,
            ..FallbackConfig::default()
        });
    }
}

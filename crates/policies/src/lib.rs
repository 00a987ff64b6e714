//! I/O admission and replica-selection policies.
//!
//! Every algorithm the paper evaluates (§6.1) lives here behind one
//! [`Policy`] trait: the always-admit baseline, random selection, request
//! hedging [Dean & Barroso], the heuristic replica selectors C3, AMS, and
//! Heron, the ML baselines LinnOS and LinnOS+Hedging, and Heimdall itself
//! (per-I/O and joint-inference variants). The replayer in
//! `heimdall-cluster` drives any of them over simulated replicated flash
//! arrays.

pub mod fallback;
pub mod heuristics;
pub mod ml;
mod simple;

pub use fallback::FallbackPolicy;
pub use heuristics::{Ams, Heron, C3};
pub use ml::{HeimdallPolicy, LinnOsHedgePolicy, LinnOsPolicy};
pub use simple::{Baseline, Hedging, RandomSelect};

use heimdall_trace::IoRequest;

/// Observable per-device state at decision time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceView {
    /// Outstanding requests on the device.
    pub queue_len: u32,
}

/// Per-device admission-decision counters reported by the ML policies.
///
/// The replayer folds these into its per-device accounting after a replay,
/// so run reports can distinguish a device whose model never declines from
/// one that is kept alive only by probe admissions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Reads the device's model declined (redirected away from home).
    pub declines: u64,
    /// Declines overridden by the probe rule: reads admitted despite the
    /// model so the device's history ring keeps refreshing.
    pub probe_admits: u64,
}

/// Routing decision for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Send to the replica with this index.
    To(usize),
    /// Send to `primary`; if it has not completed after `timeout_us`,
    /// duplicate the request to another replica and take the earlier
    /// completion.
    Hedged {
        /// First-choice replica.
        primary: usize,
        /// Hedge deadline.
        timeout_us: u64,
    },
}

/// A replica-selection / admission policy.
///
/// The replayer calls [`Policy::route_read`] for every read (writes are
/// replicated to all devices), then reports submissions and completions
/// back so stateful policies can track device health. A policy that reads
/// none of that declares so with [`Policy::observes_devices`], and the
/// replayer then skips tracking it.
pub trait Policy {
    /// Display name, e.g. `"c3"` or `"heimdall-j3"`.
    fn name(&self) -> &str;

    /// Chooses where to send a read.
    ///
    /// `views[i]` describes replica `i`; there are at least two replicas.
    /// `home` is the device holding the primary copy of the data (0 for a
    /// single-trace replay; the light-heavy combination of §6.1 gives each
    /// trace its own home device). Routing away from `home` counts as a
    /// reroute.
    fn route_read(&mut self, req: &IoRequest, now: u64, views: &[DeviceView], home: usize)
        -> Route;

    /// Observes a submission to device `dev` (including hedge duplicates).
    fn on_submit(&mut self, _dev: usize, _req: &IoRequest, _now: u64) {}

    /// Observes a read completion on device `dev`.
    fn on_completion(
        &mut self,
        _dev: usize,
        _req: &IoRequest,
        _queue_len_at_arrival: u32,
        _latency_us: u64,
        _now: u64,
    ) {
    }

    /// Whether the policy reads device state: the queue lengths in
    /// [`Policy::route_read`]'s views, [`Policy::on_submit`] or
    /// [`Policy::on_completion`]. A property of the policy type, not an
    /// option.
    ///
    /// With `false` the replayer tracks no device queues and schedules no
    /// completion events: every view's `queue_len` is 0 (the slice still
    /// has one view per replica), and neither callback fires. Routing,
    /// latencies and every counter are those of the observed replay. The
    /// default `true` is always safe; a wrapper keeps it, since what it
    /// wraps, or the wrapper itself, may observe.
    fn observes_devices(&self) -> bool {
        true
    }

    /// Total model inferences performed (0 for non-ML policies); feeds the
    /// Fig 16 CPU-overhead accounting.
    fn inferences(&self) -> u64 {
        0
    }

    /// Per-device decline/probe counters, indexed by device. Empty for
    /// policies that run no per-device admission model.
    fn decision_counters(&self) -> Vec<DecisionCounters> {
        Vec::new()
    }

    /// Reads served through a degraded fallback path (see
    /// [`FallbackPolicy`]); 0 for policies without a fallback layer.
    fn fallback_decisions(&self) -> u64 {
        0
    }
}

/// Exponentially-weighted moving average helper used by the heuristics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ewma {
    value: f64,
    alpha: f64,
    initialized: bool,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is out of range.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        Ewma {
            value: 0.0,
            alpha,
            initialized: false,
        }
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: f64) {
        if self.initialized {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.initialized = true;
        }
    }

    /// Current estimate, or `default` before any observation.
    pub(crate) fn get_or(&self, default: f64) -> f64 {
        if self.initialized {
            self.value
        } else {
            default
        }
    }

    /// Current estimate, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        if self.initialized {
            Some(self.value)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_tracks_mean() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get_or(7.0), 7.0);
        e.update(10.0);
        assert_eq!(e.get_or(0.0), 10.0);
        e.update(20.0);
        assert_eq!(e.get_or(0.0), 15.0);
    }

    /// Only the three non-learning baselines skip device tracking; every
    /// heuristic, learned policy and wrapper observes.
    #[test]
    fn only_the_stateless_baselines_skip_observation() {
        use heimdall_core::pipeline::{PipelineConfig, Trained};
        let stateless: [&dyn Policy; 3] = [&Baseline, &RandomSelect::new(1), &Hedging::default()];
        for p in stateless {
            assert!(!p.observes_devices(), "{} observes", p.name());
        }
        let models = |cfg: PipelineConfig| vec![Trained::always_admit(&cfg); 2];
        let (heimdall, linnos) = (PipelineConfig::heimdall, PipelineConfig::linnos_baseline);
        let observing: Vec<Box<dyn Policy>> = vec![
            Box::new(C3::new()),
            Box::new(Ams::new()),
            Box::new(Heron::new()),
            Box::new(HeimdallPolicy::new(models(heimdall()))),
            Box::new(LinnOsPolicy::new(models(linnos()))),
            Box::new(LinnOsHedgePolicy::new(models(linnos()), 2_000)),
            Box::new(FallbackPolicy::new(Box::new(Baseline), Box::new(Baseline))),
        ];
        for p in &observing {
            assert!(p.observes_devices(), "{} skips observation", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn ewma_rejects_zero_alpha() {
        Ewma::new(0.0);
    }
}

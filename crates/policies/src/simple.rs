//! The non-learning baselines: always-admit, random selection, and request
//! hedging (Dean & Barroso's "Tail at Scale" technique, evaluated in §6.1).

use crate::{DeviceView, Policy, Route};
use heimdall_trace::rng::Rng64;
use heimdall_trace::IoRequest;

/// Always sends reads to the primary replica — the paper's "baseline".
#[derive(Debug, Clone, Default)]
pub struct Baseline;

impl Policy for Baseline {
    fn name(&self) -> &str {
        "baseline"
    }

    fn observes_devices(&self) -> bool {
        false
    }

    fn route_read(
        &mut self,
        _req: &IoRequest,
        _now: u64,
        _views: &[DeviceView],
        home: usize,
    ) -> Route {
        Route::To(home)
    }
}

/// Sends each read to a uniformly random replica.
#[derive(Debug, Clone)]
pub struct RandomSelect {
    rng: Rng64,
}

impl RandomSelect {
    /// Creates a random selector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomSelect {
            rng: Rng64::new(seed ^ 0x7261_6e64),
        }
    }
}

impl Policy for RandomSelect {
    fn name(&self) -> &str {
        "random"
    }

    fn observes_devices(&self) -> bool {
        false
    }

    fn route_read(
        &mut self,
        _req: &IoRequest,
        _now: u64,
        views: &[DeviceView],
        _home: usize,
    ) -> Route {
        Route::To(self.rng.below(views.len().max(1) as u64) as usize)
    }
}

/// Request hedging: submit to the primary and duplicate to another replica
/// after a fixed timeout (the paper observes a 2 ms timeout, §6.1).
#[derive(Debug, Clone)]
pub struct Hedging {
    /// Hedge deadline in microseconds.
    pub timeout_us: u64,
}

impl Hedging {
    /// The paper's observed hedging deadline.
    pub const PAPER_TIMEOUT_US: u64 = 2_000;

    /// Creates a hedging policy with the given deadline.
    ///
    /// # Panics
    ///
    /// Panics if `timeout_us` is zero.
    pub fn new(timeout_us: u64) -> Self {
        assert!(timeout_us > 0, "timeout must be positive");
        Hedging { timeout_us }
    }
}

impl Default for Hedging {
    fn default() -> Self {
        Hedging::new(Self::PAPER_TIMEOUT_US)
    }
}

impl Policy for Hedging {
    fn name(&self) -> &str {
        "hedging"
    }

    fn observes_devices(&self) -> bool {
        false
    }

    fn route_read(
        &mut self,
        _req: &IoRequest,
        _now: u64,
        _views: &[DeviceView],
        home: usize,
    ) -> Route {
        Route::Hedged {
            primary: home,
            timeout_us: self.timeout_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_trace::{IoOp, PAGE_SIZE};

    fn req() -> IoRequest {
        IoRequest {
            id: 0,
            arrival_us: 0,
            offset: 0,
            size: PAGE_SIZE,
            op: IoOp::Read,
        }
    }

    fn views() -> Vec<DeviceView> {
        vec![DeviceView { queue_len: 0 }, DeviceView { queue_len: 5 }]
    }

    #[test]
    fn baseline_always_primary() {
        let mut p = Baseline;
        for _ in 0..10 {
            assert_eq!(p.route_read(&req(), 0, &views(), 0), Route::To(0));
        }
    }

    #[test]
    fn random_covers_both_replicas() {
        let mut p = RandomSelect::new(1);
        let mut seen = [false; 2];
        for _ in 0..100 {
            match p.route_read(&req(), 0, &views(), 0) {
                Route::To(d) => seen[d] = true,
                _ => panic!("random never hedges"),
            }
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomSelect::new(9);
        let mut b = RandomSelect::new(9);
        for _ in 0..50 {
            assert_eq!(
                a.route_read(&req(), 0, &views(), 0),
                b.route_read(&req(), 0, &views(), 0)
            );
        }
    }

    #[test]
    fn hedging_routes_with_timeout() {
        let mut p = Hedging::default();
        assert_eq!(
            p.route_read(&req(), 0, &views(), 0),
            Route::Hedged {
                primary: 0,
                timeout_us: Hedging::PAPER_TIMEOUT_US
            }
        );
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn hedging_rejects_zero_timeout() {
        Hedging::new(0);
    }
}

//! The black-box SSD state machine.
//!
//! The device serves requests FCFS across `parallelism` internal channels
//! and runs three kinds of background activity that contend with reads:
//! garbage collection (triggered when the over-provisioned free pool runs
//! low), urgent write-buffer flushes (when the DRAM buffer overflows), and
//! periodic wear leveling. While such an interval is active, NAND reads are
//! amplified by a per-event factor; a small fraction of reads hit the device
//! DRAM cache and stay fast anyway (the §3.2 "lucky" outliers), and reads in
//! quiet periods occasionally suffer transient retry/ECC slowdowns (the
//! opposite outliers).
//!
//! Policies must treat the device as a black box: only [`Completion`]
//! latencies and [`SsdDevice::queue_len`] are observable. The internal busy
//! log is exposed *for evaluation only* (scoring labeling accuracy, Fig 5a).

use crate::config::DeviceConfig;
use crate::fault::{DeviceUnavailable, FaultKind, FaultPlan, FaultPlanError, FaultStats};
use crate::jitter;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why [`SsdDevice::try_new`] (or [`SsdDevice::try_new_with_plan`])
/// rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The [`DeviceConfig`] failed validation; the message names the field.
    InvalidConfig(String),
    /// The fault script failed [`FaultPlan::try_new`] validation.
    InvalidFaultPlan(FaultPlanError),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidConfig(msg) => write!(f, "invalid device config: {msg}"),
            DeviceError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<FaultPlanError> for DeviceError {
    fn from(e: FaultPlanError) -> Self {
        DeviceError::InvalidFaultPlan(e)
    }
}

/// Flat 4-ary min-heap of completion times. The replayers query
/// [`SsdDevice::queue_len`] before every read, so this sits on the replay
/// hot path: keys are bare `u64`s on one contiguous `Vec` (four children
/// share a cache line) and the sifts move a hole instead of swapping.
/// Duplicate finish times are indistinguishable, so no tie-break sequence
/// is needed.
#[derive(Debug, Clone, Default)]
struct FinishHeap {
    heap: Vec<u64>,
}

impl FinishHeap {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn peek(&self) -> Option<u64> {
        self.heap.first().copied()
    }

    fn push(&mut self, t: u64) {
        self.heap.push(t);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent] <= t {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = t;
    }

    fn pop(&mut self) {
        let last = match self.heap.pop() {
            Some(v) => v,
            None => return,
        };
        if self.heap.is_empty() {
            return;
        }
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + 4).min(n) {
                if self.heap[c] < self.heap[best] {
                    best = c;
                }
            }
            if self.heap[best] >= last {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = last;
    }
}

/// Why the device was internally busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusyKind {
    /// Garbage collection.
    Gc,
    /// Urgent write-buffer flush.
    Flush,
    /// Wear leveling.
    WearLeveling,
}

/// One internal contention interval (ground truth for evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusyInterval {
    /// Interval start, microseconds.
    pub start_us: u64,
    /// Interval end (exclusive), microseconds.
    pub end_us: u64,
    /// Cause.
    pub kind: BusyKind,
    /// Read-latency multiplier during the interval.
    pub amp: f64,
}

/// Result of submitting one request to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// When the request began service.
    pub start_us: u64,
    /// When the request completed.
    pub finish_us: u64,
    /// End-to-end latency including queueing, microseconds.
    pub latency_us: u64,
    /// Device queue length observed at arrival (outstanding requests).
    pub queue_len: u32,
    /// Ground truth: the device was internally busy when service started.
    /// **Evaluation only** — never expose to a policy.
    pub internally_busy: bool,
}

/// Running counters, mostly for tests and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// GC passes triggered.
    pub gc_events: u64,
    /// Urgent flushes triggered.
    pub flush_events: u64,
    /// Wear-leveling passes.
    pub wear_leveling_events: u64,
    /// Reads that hit the DRAM cache.
    pub cache_hits: u64,
    /// Reads that suffered a transient slowdown.
    pub transient_events: u64,
}

/// A simulated black-box flash device.
#[derive(Debug, Clone)]
pub struct SsdDevice {
    cfg: DeviceConfig,
    rng: Rng64,
    /// Free time of each internal channel.
    servers: Vec<u64>,
    /// Outstanding completion times (min-heap) for queue-length queries.
    inflight: FinishHeap,
    /// End of the current internal busy interval.
    busy_until: u64,
    /// Amplification of the current busy interval.
    busy_amp: f64,
    /// Bytes sitting in the DRAM write buffer.
    buffer_fill: f64,
    last_drain_us: u64,
    /// Remaining over-provisioned bytes.
    free_bytes: f64,
    wear_leveling_next_us: u64,
    /// End of the current urgent-flush episode (suppresses re-triggering).
    flush_until: u64,
    busy_log: Vec<BusyInterval>,
    stats: DeviceStats,
    /// `ln(cfg.gc_duration_us)`, the log-normal location of GC durations.
    gc_ln_duration: f64,
    /// Scripted injected faults (empty for a healthy device).
    faults: FaultPlan,
    fault_stats: FaultStats,
}

impl SsdDevice {
    /// Creates a device with the given configuration and deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`DeviceConfig::validate`]).
    /// Prefer [`SsdDevice::try_new`] when the configuration is derived
    /// programmatically.
    pub fn new(cfg: DeviceConfig, seed: u64) -> Self {
        Self::try_new(cfg, seed).expect("invalid device config")
    }

    /// Fallible [`SsdDevice::new`]: returns the typed validation error
    /// instead of panicking on a bad configuration.
    pub fn try_new(cfg: DeviceConfig, seed: u64) -> Result<Self, DeviceError> {
        cfg.validate().map_err(DeviceError::InvalidConfig)?;
        let mut rng = Rng64::new(seed ^ 0x5353_445f_5349_4d00); // "SSD_SIM"
        let first_wl = rng.exponential(cfg.wear_leveling_interval_us) as u64;
        // A deployed drive sits in steady state, not freshly trimmed: start
        // the free pool a modest margin above the GC trigger so background
        // activity appears early in a trace instead of only near its end.
        let headroom = 0.05 + 0.25 * rng.f64();
        let initial_free = (cfg.gc_threshold + headroom).min(1.0) * cfg.free_pool as f64;
        Ok(SsdDevice {
            servers: vec![0; cfg.parallelism],
            free_bytes: initial_free,
            inflight: FinishHeap::default(),
            busy_until: 0,
            busy_amp: 1.0,
            buffer_fill: 0.0,
            last_drain_us: 0,
            flush_until: 0,
            wear_leveling_next_us: first_wl,
            busy_log: Vec::new(),
            stats: DeviceStats::default(),
            gc_ln_duration: cfg.gc_duration_us.ln(),
            faults: FaultPlan::none(),
            fault_stats: FaultStats::default(),
            rng,
            cfg,
        })
    }

    /// Constructs a device and validates a raw fault script in one step —
    /// the single entry point for configs *and* fault timelines sourced
    /// from outside the crate (sweep CLIs, generated test inputs).
    pub fn try_new_with_plan(
        cfg: DeviceConfig,
        seed: u64,
        windows: Vec<crate::fault::FaultWindow>,
    ) -> Result<Self, DeviceError> {
        let plan = FaultPlan::try_new(windows)?;
        Ok(Self::try_new(cfg, seed)?.with_fault_plan(plan))
    }

    /// Attaches a scripted fault plan (builder form).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attaches a scripted fault plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The device's fault plan (empty for a healthy device).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Degradation counters accumulated from the fault plan.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// `false` while the device sits inside a fail-stop outage window —
    /// submissions at `now` would be rejected.
    pub fn is_available(&self, now: u64) -> bool {
        !matches!(
            self.faults.active_at(now),
            Some(w) if w.kind == FaultKind::FailStop
        )
    }

    /// Earliest time at or after `now` when submissions are accepted
    /// (`now` itself for an available device).
    pub fn next_available_at(&self, now: u64) -> u64 {
        match self.faults.active_at(now) {
            Some(w) if w.kind == FaultKind::FailStop => w.end_us,
            _ => now,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Running counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Outstanding requests at time `now` (the queue-length feature).
    pub fn queue_len(&mut self, now: u64) -> u32 {
        while let Some(t) = self.inflight.peek() {
            if t <= now {
                self.inflight.pop();
            } else {
                break;
            }
        }
        self.inflight.len() as u32
    }

    /// Ground-truth internal busy intervals. **Evaluation only.**
    pub fn busy_log(&self) -> &[BusyInterval] {
        &self.busy_log
    }

    /// Ground truth: was the device internally busy at `t`? **Evaluation only.**
    pub fn was_busy_at(&self, t: u64) -> bool {
        // The log is append-ordered by start; intervals may overlap after
        // merges, so scan backwards over the recent tail.
        self.busy_log
            .iter()
            .rev()
            .take(64)
            .any(|b| b.start_us <= t && t < b.end_us)
            || self
                .busy_log
                .iter()
                .any(|b| b.start_us <= t && t < b.end_us)
    }

    fn begin_busy(&mut self, start_us: u64, duration_us: f64, kind: BusyKind, amp: f64) {
        let end = start_us + duration_us.max(1.0) as u64;
        if start_us < self.busy_until {
            // Overlapping events compound: keep the stronger amplification
            // and the later end.
            self.busy_amp = self.busy_amp.max(amp);
            self.busy_until = self.busy_until.max(end);
        } else {
            self.busy_amp = amp;
            self.busy_until = end;
        }
        self.busy_log.push(BusyInterval {
            start_us,
            end_us: end,
            kind,
            amp,
        });
    }

    /// Advances lazy internal state (buffer drain, wear-leveling schedule).
    fn advance(&mut self, now: u64) {
        if now > self.last_drain_us {
            let drained = (now - self.last_drain_us) as f64 * self.cfg.drain_bw_bpus;
            self.buffer_fill = (self.buffer_fill - drained).max(0.0);
            self.last_drain_us = now;
        }
        while self.wear_leveling_next_us <= now {
            let at = self.wear_leveling_next_us;
            let dur = self.rng.exponential(self.cfg.wear_leveling_duration_us);
            let amp = self.cfg.wear_leveling_amp;
            self.begin_busy(at, dur, BusyKind::WearLeveling, amp);
            self.stats.wear_leveling_events += 1;
            self.wear_leveling_next_us =
                at + (self.rng.exponential(self.cfg.wear_leveling_interval_us) as u64).max(1);
        }
    }

    /// Whole microseconds of service: `base` under log-normal jitter, at
    /// least 1 µs, then times the fail-slow `multiplier` (1.0 when healthy).
    ///
    /// The last line is the definition. [`jitter::service_us`] reads the
    /// same two draws from a clone of the generator and returns only an
    /// integer that line would also return; the clone is committed then,
    /// and otherwise dropped, so both branches leave the generator in the
    /// same state.
    fn jittered_us(&mut self, base: f64, multiplier: f64) -> u64 {
        let sigma = self.cfg.jitter_sigma;
        let j = if sigma <= 0.0 {
            1.0
        } else {
            let mut rng = self.rng.clone();
            let u1 = rng.f64().max(f64::MIN_POSITIVE);
            let u2 = rng.f64();
            if let Some(us) = jitter::service_us(u1, u2, sigma, base, multiplier) {
                self.rng = rng;
                return us;
            }
            self.rng.log_normal(0.0, sigma)
        };
        ((base * j).max(1.0) * multiplier) as u64
    }

    /// Submits a request arriving at `now`; returns its completion.
    ///
    /// Requests must be submitted in non-decreasing arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the device is inside a fail-stop outage window (check
    /// [`SsdDevice::is_available`] or use [`SsdDevice::try_submit`] when a
    /// fault plan may reject), and in debug builds if `now` precedes the
    /// previous submission.
    pub fn submit(&mut self, req: &IoRequest, now: u64) -> Completion {
        self.submit_inner(req, now, true)
            .expect("device is inside a fail-stop outage window")
    }

    /// Fallible [`SsdDevice::submit`]: returns [`DeviceUnavailable`] instead
    /// of panicking while a fail-stop outage window is active. A rejected
    /// submission consumes no randomness and mutates no device state beyond
    /// the rejection counter.
    pub fn try_submit(
        &mut self,
        req: &IoRequest,
        now: u64,
    ) -> Result<Completion, DeviceUnavailable> {
        self.submit_inner(req, now, true)
    }

    /// Fallible [`SsdDevice::submit_untracked`].
    pub fn try_submit_untracked(
        &mut self,
        req: &IoRequest,
        now: u64,
    ) -> Result<Completion, DeviceUnavailable> {
        self.submit_inner(req, now, false)
    }

    /// [`SsdDevice::submit`] without queue-length tracking: the inflight
    /// finish-heap is neither drained nor grown, and the returned
    /// [`Completion::queue_len`] is always 0.
    ///
    /// The inflight heap exists only to answer [`SsdDevice::queue_len`]; it
    /// feeds nothing else (service times come from the channel free times,
    /// and the rng stream is untouched), so on replay paths where no policy
    /// observes the queue length — e.g. the stateless wide-scale policies —
    /// this skips pure bookkeeping and every other completion field is
    /// identical to [`SsdDevice::submit`]. Do not mix with
    /// [`SsdDevice::queue_len`] on the same device: untracked submissions
    /// are invisible to it.
    ///
    /// # Panics
    ///
    /// Panics if a fail-stop outage window is active, and in debug builds if
    /// `now` precedes the previous submission.
    pub fn submit_untracked(&mut self, req: &IoRequest, now: u64) -> Completion {
        self.submit_inner(req, now, false)
            .expect("device is inside a fail-stop outage window")
    }

    fn submit_inner(
        &mut self,
        req: &IoRequest,
        now: u64,
        track: bool,
    ) -> Result<Completion, DeviceUnavailable> {
        debug_assert!(
            now >= self.last_drain_us,
            "submissions must be chronological"
        );
        // The fault lookup is one branch on the empty plan, and rejection
        // happens before any rng draw or state advance, so a fault-free run
        // and a rejected submission both leave the stochastic state of the
        // device untouched.
        let fault = self.faults.active_at(now);
        if let Some(w) = fault {
            if w.kind == FaultKind::FailStop {
                self.fault_stats.rejected += 1;
                return Err(DeviceUnavailable { until_us: w.end_us });
            }
        }
        self.advance(now);
        let queue_len = if track { self.queue_len(now) } else { 0 };

        // Earliest-free channel.
        let (idx, &free) = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("parallelism >= 1");
        let mut start = now.max(free);
        if let Some(w) = fault {
            if w.kind == FaultKind::FirmwareStall && start < w.end_us {
                // The controller accepts the request but completes nothing
                // until the stall clears: service begins at the window end.
                start = w.end_us;
                self.fault_stats.stalled += 1;
            }
        }
        let busy_now = start < self.busy_until;
        let amp_now = if busy_now { self.busy_amp } else { 1.0 };

        let service_us = match req.op {
            IoOp::Write => self.write_service(req, start),
            IoOp::Read => self.read_service(req, busy_now, amp_now),
        };
        let multiplier = match fault {
            Some(w) if w.kind == FaultKind::FailSlow => {
                self.fault_stats.slowed += 1;
                w.multiplier
            }
            _ => 1.0,
        };
        let finish = start + self.jittered_us(service_us, multiplier);
        self.servers[idx] = finish;
        if track {
            self.inflight.push(finish);
        }
        Ok(Completion {
            start_us: start,
            finish_us: finish,
            latency_us: finish - now,
            queue_len,
            internally_busy: busy_now,
        })
    }

    fn write_service(&mut self, req: &IoRequest, start: u64) -> f64 {
        self.stats.writes += 1;
        let size = req.size as f64;
        let transfer = size / self.cfg.write_bw_bpus;
        let mut service = self.cfg.write_base_us + transfer;

        if self.buffer_fill + size > self.cfg.buffer_capacity as f64 {
            // Urgent flush: the write stalls until its overflow drains, and
            // — once per overflow episode — the drain traffic contends with
            // reads until the buffer is back to a comfortable level.
            let overflow = self.buffer_fill + size - self.cfg.buffer_capacity as f64;
            let stall = overflow / self.cfg.drain_bw_bpus;
            if start >= self.flush_until {
                let drain_to_ok = (self.buffer_fill - 0.7 * self.cfg.buffer_capacity as f64)
                    .max(0.0)
                    / self.cfg.drain_bw_bpus;
                self.begin_busy(start, drain_to_ok, BusyKind::Flush, self.cfg.flush_amp);
                self.flush_until = start + drain_to_ok.max(1.0) as u64;
                self.stats.flush_events += 1;
            }
            self.buffer_fill = self.cfg.buffer_capacity as f64;
            service += stall;
        } else {
            self.buffer_fill += size;
        }

        // Writes consume the free pool; a low pool triggers GC.
        self.free_bytes -= size;
        if self.free_bytes / self.cfg.free_pool as f64 <= self.cfg.gc_threshold {
            let dur = self.rng.log_normal(self.gc_ln_duration, 0.4);
            let (lo, hi) = self.cfg.gc_amp;
            let amp = lo + self.rng.f64() * (hi - lo);
            self.begin_busy(start, dur, BusyKind::Gc, amp);
            self.stats.gc_events += 1;
            self.free_bytes = (self.free_bytes + self.cfg.gc_reclaim * self.cfg.free_pool as f64)
                .min(self.cfg.free_pool as f64);
        }
        service
    }

    fn read_service(&mut self, req: &IoRequest, busy: bool, amp: f64) -> f64 {
        self.stats.reads += 1;
        let size = req.size as f64;
        let nand = self.cfg.read_base_us + size / self.cfg.read_bw_bpus;
        if self.rng.chance(self.cfg.cache_hit_prob) {
            // DRAM hit: fast regardless of internal contention.
            self.stats.cache_hits += 1;
            return self.cfg.cache_read_us + size / (self.cfg.read_bw_bpus * 4.0);
        }
        if busy {
            // Only reads colliding with the internally-busy die stall for
            // the event's full amplification; the rest see mild contention.
            return if self.rng.chance(self.cfg.busy_collision_prob) {
                nand * amp
            } else {
                nand * self.cfg.busy_light_amp
            };
        }
        if self.rng.chance(self.cfg.transient_slow_prob) {
            self.stats.transient_events += 1;
            let (lo, hi) = self.cfg.transient_amp;
            return nand * (lo + self.rng.f64() * (hi - lo));
        }
        nand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_trace::PAGE_SIZE;

    fn read(id: u64, t: u64, size: u32) -> IoRequest {
        IoRequest {
            id,
            arrival_us: t,
            offset: 0,
            size,
            op: IoOp::Read,
        }
    }

    fn write(id: u64, t: u64, size: u32) -> IoRequest {
        IoRequest {
            id,
            arrival_us: t,
            offset: 0,
            size,
            op: IoOp::Write,
        }
    }

    fn quiet_config() -> DeviceConfig {
        // No stochastic noise so base behaviour is exact.
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.cache_hit_prob = 0.0;
        cfg.transient_slow_prob = 0.0;
        cfg.jitter_sigma = 0.0;
        cfg.wear_leveling_interval_us = 1e15;
        cfg.busy_collision_prob = 1.0;
        cfg
    }

    #[test]
    fn idle_read_latency_is_base_plus_transfer() {
        let cfg = quiet_config();
        let expect = cfg.read_base_us + PAGE_SIZE as f64 / cfg.read_bw_bpus;
        let mut dev = SsdDevice::new(cfg, 1);
        let c = dev.submit(&read(0, 1000, PAGE_SIZE), 1000);
        assert!(
            (c.latency_us as f64 - expect).abs() <= 1.0,
            "{} vs {expect}",
            c.latency_us
        );
        assert!(!c.internally_busy);
    }

    #[test]
    fn bigger_reads_take_longer() {
        let mut dev = SsdDevice::new(quiet_config(), 2);
        let small = dev.submit(&read(0, 0, PAGE_SIZE), 0).latency_us;
        let big = dev
            .submit(&read(1, 10_000_000, 2 << 20), 10_000_000)
            .latency_us;
        assert!(big > small * 3, "big {big} small {small}");
    }

    #[test]
    fn queueing_delays_when_channels_saturated() {
        let mut cfg = quiet_config();
        cfg.parallelism = 1;
        let mut dev = SsdDevice::new(cfg, 3);
        let c1 = dev.submit(&read(0, 0, PAGE_SIZE), 0);
        let c2 = dev.submit(&read(1, 0, PAGE_SIZE), 0);
        assert_eq!(c2.start_us, c1.finish_us);
        assert!(c2.latency_us > c1.latency_us);
    }

    #[test]
    fn queue_len_counts_outstanding() {
        let mut cfg = quiet_config();
        cfg.parallelism = 1;
        let mut dev = SsdDevice::new(cfg, 4);
        assert_eq!(dev.queue_len(0), 0);
        let c = dev.submit(&read(0, 0, PAGE_SIZE), 0);
        dev.submit(&read(1, 0, PAGE_SIZE), 0);
        assert_eq!(dev.queue_len(0), 2);
        assert_eq!(dev.queue_len(c.finish_us), 1);
        assert_eq!(dev.queue_len(c.finish_us * 10), 0);
    }

    #[test]
    fn sustained_writes_trigger_gc() {
        let mut cfg = quiet_config();
        cfg.free_pool = 64 << 20; // tiny pool so the test is quick
        let mut dev = SsdDevice::new(cfg, 5);
        let mut t = 0;
        for i in 0..2_000 {
            dev.submit(&write(i, t, 256 * 1024), t);
            t += 50;
        }
        assert!(
            dev.stats().gc_events > 0,
            "expected GC under write pressure"
        );
        assert!(dev.busy_log().iter().any(|b| b.kind == BusyKind::Gc));
    }

    #[test]
    fn reads_amplified_during_gc() {
        let mut cfg = quiet_config();
        cfg.free_pool = 8 << 20;
        cfg.gc_duration_us = 500_000.0;
        cfg.gc_amp = (20.0, 20.0);
        let mut dev = SsdDevice::new(cfg, 6);
        // Push writes until a GC fires.
        let mut t = 0;
        while dev.stats().gc_events == 0 {
            dev.submit(&write(0, t, 1 << 20), t);
            t += 20;
        }
        let quiet = DeviceConfig::datacenter_nvme().read_base_us;
        let c = dev.submit(&read(1, t + 1, PAGE_SIZE), t + 1);
        assert!(c.internally_busy);
        assert!(
            (c.latency_us as f64) > quiet * 10.0,
            "busy read should be amplified, got {}",
            c.latency_us
        );
    }

    #[test]
    fn cache_hits_stay_fast_during_busy_periods() {
        let mut cfg = quiet_config();
        cfg.cache_hit_prob = 1.0; // force hits
        cfg.free_pool = 8 << 20;
        cfg.gc_duration_us = 500_000.0;
        let mut dev = SsdDevice::new(cfg, 7);
        let mut t = 0;
        while dev.stats().gc_events == 0 {
            dev.submit(&write(0, t, 1 << 20), t);
            t += 20;
        }
        let c = dev.submit(&read(1, t + 1, PAGE_SIZE), t + 1);
        assert!(c.internally_busy);
        assert!(
            c.latency_us < 100,
            "cache hit should be fast, got {}",
            c.latency_us
        );
        assert!(dev.stats().cache_hits > 0);
    }

    #[test]
    fn transient_slowdowns_occur_in_quiet_periods() {
        let mut cfg = quiet_config();
        cfg.transient_slow_prob = 1.0;
        let mut dev = SsdDevice::new(cfg, 8);
        let c = dev.submit(&read(0, 0, PAGE_SIZE), 0);
        assert!(!c.internally_busy);
        assert!(c.latency_us as f64 > cfg_read_floor() * 4.0);
        assert_eq!(dev.stats().transient_events, 1);
    }

    fn cfg_read_floor() -> f64 {
        DeviceConfig::datacenter_nvme().read_base_us
    }

    #[test]
    fn wear_leveling_fires_on_schedule() {
        let mut cfg = quiet_config();
        cfg.wear_leveling_interval_us = 10_000.0;
        let mut dev = SsdDevice::new(cfg, 9);
        for i in 0..100 {
            let t = i * 10_000;
            dev.submit(&read(i, t, PAGE_SIZE), t);
        }
        assert!(dev.stats().wear_leveling_events > 3);
    }

    #[test]
    fn device_is_deterministic() {
        let run = |seed| {
            let mut dev = SsdDevice::new(DeviceConfig::consumer_nvme(), seed);
            (0..500u64)
                .map(|i| {
                    let t = i * 100;
                    let req = if i % 3 == 0 {
                        write(i, t, 64 * 1024)
                    } else {
                        read(i, t, PAGE_SIZE)
                    };
                    dev.submit(&req, t).latency_us
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn busy_log_matches_was_busy_at() {
        let mut cfg = quiet_config();
        cfg.free_pool = 8 << 20;
        let mut dev = SsdDevice::new(cfg, 13);
        let mut t = 0;
        for i in 0..5_000 {
            dev.submit(&write(i, t, 512 * 1024), t);
            t += 30;
        }
        let log = dev.busy_log().to_vec();
        assert!(!log.is_empty());
        for b in log.iter().take(10) {
            assert!(dev.was_busy_at(b.start_us));
            assert!(dev.was_busy_at((b.start_us + b.end_us) / 2));
        }
    }

    #[test]
    fn finish_heap_matches_sorted_model() {
        let mut h = FinishHeap::default();
        let mut rng = Rng64::new(0xf1);
        let mut model: Vec<u64> = Vec::new();
        for _ in 0..500 {
            if model.is_empty() || rng.below(3) > 0 {
                let t = rng.below(1000);
                h.push(t);
                model.push(t);
            } else {
                model.sort_unstable();
                assert_eq!(h.peek(), Some(model[0]));
                h.pop();
                model.remove(0);
            }
        }
        model.sort_unstable();
        for &t in &model {
            assert_eq!(h.peek(), Some(t));
            h.pop();
        }
        assert_eq!(h.peek(), None);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn untracked_submit_matches_tracked_except_queue_len() {
        let mut tracked = SsdDevice::new(DeviceConfig::femu_emulated(), 17);
        let mut untracked = SsdDevice::new(DeviceConfig::femu_emulated(), 17);
        let mut rng = Rng64::new(0xab);
        let mut t = 0;
        for i in 0..2_000u64 {
            t += rng.below(200);
            let req = if rng.chance(0.3) {
                write(i, t, 1 << 20)
            } else {
                read(i, t, PAGE_SIZE * (1 + rng.below(16) as u32))
            };
            let a = tracked.submit(&req, t);
            let b = untracked.submit_untracked(&req, t);
            assert_eq!((a.start_us, a.finish_us, a.latency_us), {
                (b.start_us, b.finish_us, b.latency_us)
            });
            assert_eq!(a.internally_busy, b.internally_busy);
            assert_eq!(b.queue_len, 0);
        }
        assert_eq!(untracked.inflight.len(), 0, "no inflight bookkeeping");
        assert_eq!(tracked.stats(), untracked.stats());
    }

    #[test]
    #[should_panic(expected = "invalid device config")]
    fn invalid_config_panics() {
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.parallelism = 0;
        SsdDevice::new(cfg, 0);
    }

    #[test]
    fn try_new_returns_validation_error() {
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.parallelism = 0;
        let err = SsdDevice::try_new(cfg, 0).unwrap_err();
        match &err {
            DeviceError::InvalidConfig(msg) => assert!(msg.contains("parallelism"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert!(SsdDevice::try_new(DeviceConfig::datacenter_nvme(), 0).is_ok());
        // Used to reach `Rng64::exponential`'s assert inside the fallible
        // constructor.
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.wear_leveling_interval_us = 0.0;
        assert!(matches!(
            SsdDevice::try_new(cfg, 0),
            Err(DeviceError::InvalidConfig(msg)) if msg.contains("wear_leveling_interval_us")
        ));
    }

    #[test]
    fn try_new_with_plan_surfaces_fault_script_errors() {
        use crate::fault::{FaultKind, FaultPlanError, FaultWindow};
        let bad = vec![FaultWindow {
            start_us: 10,
            end_us: 10,
            kind: FaultKind::FailStop,
            multiplier: 1.0,
        }];
        let err =
            SsdDevice::try_new_with_plan(DeviceConfig::datacenter_nvme(), 0, bad).unwrap_err();
        assert_eq!(
            err,
            DeviceError::InvalidFaultPlan(FaultPlanError::ZeroLengthWindow {
                start_us: 10,
                end_us: 10
            })
        );
        let ok = SsdDevice::try_new_with_plan(
            DeviceConfig::datacenter_nvme(),
            0,
            vec![FaultWindow {
                start_us: 0,
                end_us: 100,
                kind: FaultKind::FailSlow,
                multiplier: 4.0,
            }],
        )
        .unwrap();
        assert!(!ok.fault_plan().is_empty());
    }

    #[test]
    fn fail_slow_window_multiplies_service_time() {
        let mk = |plan| SsdDevice::new(quiet_config(), 21).with_fault_plan(plan);
        let mut healthy = mk(FaultPlan::none());
        let mut sick = mk(FaultPlan::fail_slow(1_000, 2_000, 25.0));
        // Before the window: identical.
        let a = healthy.submit(&read(0, 0, PAGE_SIZE), 0);
        let b = sick.submit(&read(0, 0, PAGE_SIZE), 0);
        assert_eq!(a, b);
        // Inside the window: ~25x the healthy latency.
        let a = healthy.submit(&read(1, 1_500, PAGE_SIZE), 1_500);
        let b = sick.submit(&read(1, 1_500, PAGE_SIZE), 1_500);
        assert!(
            b.latency_us >= a.latency_us * 20,
            "slow {} vs healthy {}",
            b.latency_us,
            a.latency_us
        );
        assert_eq!(sick.fault_stats().slowed, 1);
        // After the window: healthy again (channels cleared by then).
        let t = b.finish_us + 10_000;
        let a = healthy.submit(&read(2, t, PAGE_SIZE), t);
        let b = sick.submit(&read(2, t, PAGE_SIZE), t);
        assert_eq!(a, b);
    }

    #[test]
    fn firmware_stall_defers_service_to_window_end() {
        let mut dev =
            SsdDevice::new(quiet_config(), 22).with_fault_plan(FaultPlan::firmware_stall(0, 5_000));
        let c = dev.submit(&read(0, 100, PAGE_SIZE), 100);
        assert_eq!(c.start_us, 5_000);
        assert!(c.latency_us >= 4_900);
        assert_eq!(dev.fault_stats().stalled, 1);
        assert!(dev.is_available(100), "stall accepts I/O");
    }

    #[test]
    fn fail_stop_rejects_submissions_for_the_window() {
        let mut dev =
            SsdDevice::new(quiet_config(), 23).with_fault_plan(FaultPlan::fail_stop(1_000, 2_000));
        assert!(dev.is_available(999));
        assert!(!dev.is_available(1_000));
        assert_eq!(dev.next_available_at(1_500), 2_000);
        dev.try_submit(&read(0, 500, PAGE_SIZE), 500).unwrap();
        let err = dev
            .try_submit(&read(1, 1_500, PAGE_SIZE), 1_500)
            .unwrap_err();
        assert_eq!(err.until_us, 2_000);
        assert_eq!(dev.fault_stats().rejected, 1);
        dev.try_submit(&read(2, 2_000, PAGE_SIZE), 2_000).unwrap();
        assert_eq!(dev.stats().reads, 2, "rejected read served nothing");
    }

    #[test]
    #[should_panic(expected = "fail-stop outage window")]
    fn submit_panics_during_outage() {
        let mut dev =
            SsdDevice::new(quiet_config(), 24).with_fault_plan(FaultPlan::fail_stop(0, 100));
        dev.submit(&read(0, 50, PAGE_SIZE), 50);
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical_to_no_plan() {
        // Stochastic config: any extra rng draw on the fault path would
        // diverge the streams.
        let run = |plan: FaultPlan| {
            let mut dev = SsdDevice::new(DeviceConfig::consumer_nvme(), 25).with_fault_plan(plan);
            let mut rng = Rng64::new(0xfa);
            let mut t = 0;
            (0..2_000u64)
                .map(|i| {
                    t += rng.below(150);
                    let req = if rng.chance(0.25) {
                        write(i, t, 256 * 1024)
                    } else {
                        read(i, t, PAGE_SIZE)
                    };
                    dev.submit(&req, t).latency_us
                })
                .collect::<Vec<_>>()
        };
        let far_future = FaultPlan::fail_slow(u64::MAX - 1, u64::MAX, 100.0);
        assert_eq!(run(FaultPlan::none()), run(far_future));
    }
}

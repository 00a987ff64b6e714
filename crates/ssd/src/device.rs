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
//!
//! A submission whose completion no caller reads
//! ([`SsdDevice::try_submit_unobserved`], the replicated writes of replays
//! whose policy observes no device) takes its jitter draws at once but
//! evaluates its service only if a later submission needs its channel's
//! exact free time. Until then the channel holds an upper bound on that
//! free time; a bound at or before a later arrival proves the channel idle,
//! so most deferred writes are overwritten without ever being evaluated.
//! Every completion, counter and rng draw is the one eager evaluation
//! gives.

use crate::config::DeviceConfig;
use crate::fault::{DeviceUnavailable, FaultKind, FaultPlan, FaultStats};
use crate::jitter;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why [`SsdDevice::try_new`] rejected its configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The [`DeviceConfig`] failed validation; the message names the field.
    InvalidConfig(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidConfig(msg) => write!(f, "invalid device config: {msg}"),
        }
    }
}

impl std::error::Error for DeviceError {}

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

/// An unobserved write whose service is not evaluated yet: the inputs of
/// [`jitter::service_from_draws`], drawn at submission.
#[derive(Debug, Clone, Copy, Default)]
struct DeferredWrite {
    start: u64,
    base: f64,
    multiplier: f64,
    u1: f64,
    u2: f64,
}

/// Bit `channel` of a deferred-slot mask; channels from 64 on have none
/// and are never deferred.
fn slot_bit(channel: usize) -> u64 {
    1u64.checked_shl(channel as u32).unwrap_or(0)
}

/// Where and when a submission is served, and its service before jitter.
struct Placement {
    channel: usize,
    start: u64,
    service_us: f64,
    multiplier: f64,
    internally_busy: bool,
}

/// The first channel with the smallest free time, and that time.
#[inline(always)]
fn earliest(servers: &[u64]) -> (usize, u64) {
    let (idx, &free) = servers
        .iter()
        .enumerate()
        .min_by_key(|(_, &t)| t)
        .expect("parallelism >= 1");
    (idx, free)
}

/// A simulated black-box flash device.
#[derive(Debug, Clone)]
pub struct SsdDevice {
    cfg: DeviceConfig,
    rng: Rng64,
    /// Free time of each internal channel: exact, or for a channel whose
    /// bit is set in `deferred_mask`, an upper bound on it.
    servers: Vec<u64>,
    /// Channels (below 64) whose last write is deferred: `deferred[i]`
    /// holds its draws and `servers[i]` only a bound on its finish.
    deferred_mask: u64,
    deferred: Vec<DeferredWrite>,
    /// [`jitter::jitter_cap`] of the configured σ; `None` disables deferral.
    jitter_cap: Option<f64>,
    /// Deferred writes evaluated so far (the rest were overwritten idle).
    #[cfg(test)]
    evaluated: u64,
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
            deferred_mask: 0,
            deferred: vec![DeferredWrite::default(); cfg.parallelism.min(64)],
            jitter_cap: jitter::jitter_cap(cfg.jitter_sigma),
            #[cfg(test)]
            evaluated: 0,
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

    /// Attaches a scripted fault plan (builder form).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attaches a scripted fault plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
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
    #[cfg(test)]
    fn next_available_at(&self, now: u64) -> u64 {
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
    #[cfg(test)]
    fn was_busy_at(&self, t: u64) -> bool {
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

    /// The two Box–Muller draws of one service's jitter, or `None` when σ
    /// is 0 and a service draws nothing.
    fn jitter_draws(&mut self) -> Option<(f64, f64)> {
        if self.cfg.jitter_sigma <= 0.0 {
            return None;
        }
        let u1 = self.rng.f64().max(f64::MIN_POSITIVE);
        let u2 = self.rng.f64();
        Some((u1, u2))
    }

    /// Whole microseconds of service: `base` under log-normal jitter, at
    /// least 1 µs, then times the fail-slow `multiplier` (1.0 when healthy):
    /// `((base · e^{σz}).max(1.0) · multiplier) as u64`, with z from the
    /// `draws` as in `Rng64::normal`.
    fn jittered_us(&self, draws: Option<(f64, f64)>, base: f64, multiplier: f64) -> u64 {
        match draws {
            None => (base.max(1.0) * multiplier) as u64,
            Some((u1, u2)) => {
                jitter::service_from_draws(u1, u2, self.cfg.jitter_sigma, base, multiplier)
            }
        }
    }

    /// The earliest-free channel and its free time, which is exact unless
    /// it is at or before `now`.
    ///
    /// A bound at or before `now` proves its channel idle, and the caller
    /// overwrites that channel, so its slot is dropped unevaluated. Which
    /// idle channel is overwritten changes no later start: arrivals are
    /// chronological, so a channel idle at `now` is idle for every later
    /// arrival too. Otherwise every deferred slot is evaluated and the
    /// exact argmin taken, so a busy channel's free time is always exact
    /// when it is read.
    #[inline(always)]
    fn earliest_channel(&mut self, now: u64) -> (usize, u64) {
        let pick = earliest(&self.servers);
        if self.deferred_mask == 0 {
            return pick;
        }
        if pick.1 <= now {
            self.deferred_mask &= !slot_bit(pick.0);
            return pick;
        }
        self.evaluate_deferred();
        earliest(&self.servers)
    }

    /// Replaces every deferred channel's bound by its exact finish.
    fn evaluate_deferred(&mut self) {
        let sigma = self.cfg.jitter_sigma;
        let mut mask = std::mem::take(&mut self.deferred_mask);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let w = self.deferred[i];
            self.servers[i] =
                w.start + jitter::service_from_draws(w.u1, w.u2, sigma, w.base, w.multiplier);
            #[cfg(test)]
            {
                self.evaluated += 1;
            }
        }
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

    /// Submits a request whose completion nobody reads: it is untracked,
    /// as in [`SsdDevice::submit_untracked`], and its service may be
    /// evaluated later, or never.
    ///
    /// The submission takes its jitter draws from the generator now, so
    /// the stream is the one [`SsdDevice::submit`] leaves, but stores them
    /// with an upper bound on its finish as its channel's free time. A
    /// later submission evaluates the stored draws only when it must read
    /// that channel's exact free time, to the integer [`SsdDevice::submit`]
    /// would have computed; every later completion, [`SsdDevice::stats`],
    /// [`SsdDevice::busy_log`] and [`SsdDevice::fault_stats`] are as if the
    /// request had been submitted with [`SsdDevice::submit`].
    ///
    /// Returns [`DeviceUnavailable`] inside a fail-stop outage window, as
    /// [`SsdDevice::try_submit`] does.
    pub fn try_submit_unobserved(
        &mut self,
        req: &IoRequest,
        now: u64,
    ) -> Result<(), DeviceUnavailable> {
        let p = self.place(req, now)?;
        let draws = self.jitter_draws();
        if let (Some((u1, u2)), Some(cap), true) = (draws, self.jitter_cap, p.channel < 64) {
            if let Some(bound) = jitter::service_us_bound(u1, cap, p.service_us, p.multiplier) {
                self.deferred[p.channel] = DeferredWrite {
                    start: p.start,
                    base: p.service_us,
                    multiplier: p.multiplier,
                    u1,
                    u2,
                };
                self.deferred_mask |= slot_bit(p.channel);
                self.servers[p.channel] = p.start.saturating_add(bound);
                return Ok(());
            }
        }
        self.servers[p.channel] = p.start + self.jittered_us(draws, p.service_us, p.multiplier);
        Ok(())
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
        let p = self.place(req, now)?;
        let queue_len = if track { self.queue_len(now) } else { 0 };
        let draws = self.jitter_draws();
        let finish = p.start + self.jittered_us(draws, p.service_us, p.multiplier);
        self.servers[p.channel] = finish;
        if track {
            self.inflight.push(finish);
        }
        Ok(Completion {
            start_us: p.start,
            finish_us: finish,
            latency_us: finish - now,
            queue_len,
            internally_busy: p.internally_busy,
        })
    }

    /// Everything of a submission before its jitter: the fault check, the
    /// channel, the start, the service before jitter and its multiplier.
    #[inline(always)]
    fn place(&mut self, req: &IoRequest, now: u64) -> Result<Placement, DeviceUnavailable> {
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

        let (channel, free) = self.earliest_channel(now);
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
        Ok(Placement {
            channel,
            start,
            service_us,
            multiplier,
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
            if req.op == IoOp::Write {
                // Nobody reads an unobserved write's completion; it has none.
                assert!(untracked.try_submit_unobserved(&req, t).is_ok());
                continue;
            }
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

    /// The configs the parity property draws from: the four presets, σ = 0,
    /// σ above the fast jitter's `MAX_SIGMA`, and more channels than a
    /// `u64` mask has bits.
    fn parity_config(which: usize) -> DeviceConfig {
        let mut cfg = match which % 4 {
            0 => DeviceConfig::datacenter_nvme(),
            1 => DeviceConfig::consumer_nvme(),
            2 => DeviceConfig::sata_datacenter(),
            _ => DeviceConfig::femu_emulated(),
        };
        match which {
            4 => cfg.jitter_sigma = 0.0,
            5 => cfg.jitter_sigma = 0.75,
            6 => cfg.parallelism = 70,
            _ => {}
        }
        cfg
    }

    /// A fault timeline from unsorted cut points scaled to `horizon`:
    /// consecutive pairs become windows, kinds cycled over all three
    /// classes, fail-slow multipliers from 1 to 25.
    fn parity_plan(cuts: &[u64], horizon: u64) -> FaultPlan {
        let mut cuts: Vec<u64> = cuts.iter().map(|c| c * horizon / 1_000_000).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let kinds = [
            FaultKind::FailSlow,
            FaultKind::FirmwareStall,
            FaultKind::FailStop,
        ];
        let windows = cuts
            .chunks_exact(2)
            .enumerate()
            .map(|(i, pair)| crate::FaultWindow {
                start_us: pair[0],
                end_us: pair[1],
                kind: kinds[i % 3],
                multiplier: if i % 3 == 0 {
                    1.0 + (i % 7) as f64 * 4.0
                } else {
                    1.0
                },
            })
            .collect();
        FaultPlan::try_new(windows).expect("sorted, disjoint, non-empty windows")
    }

    /// A chronological stream of 4 KB–2 MB reads and writes: exponential
    /// gaps around a per-case mean, and bursts at one instant that fill
    /// every channel.
    fn parity_stream(seed: u64, channels: usize) -> Vec<IoRequest> {
        let mut rng = Rng64::new(seed);
        let n = rng.range(50, 1_500) as usize;
        let write_share = 0.1 + 0.8 * rng.f64();
        let mean_gap = [2.0, 20.0, 200.0, 2_000.0][rng.below(4) as usize];
        let mut t = 0u64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            t += rng.exponential(mean_gap) as u64;
            let burst = if rng.chance(0.05) {
                rng.range(channels as u64, 3 * channels as u64 + 1) as usize
            } else {
                1
            };
            for _ in 0..burst {
                let size = (PAGE_SIZE as f64 * 512f64.powf(rng.f64())) as u32;
                let id = out.len() as u64;
                out.push(if rng.chance(write_share) {
                    write(id, t, size)
                } else {
                    read(id, t, size)
                });
            }
        }
        out
    }

    /// Unobserved writes change nothing anyone can see: device A submits
    /// every request tracked; device B sends writes through
    /// `try_submit_unobserved` and reads through `submit_untracked`. Every
    /// read must complete identically, every write must be accepted or
    /// rejected alike, and the counters and the busy log must agree. Across
    /// the cases, some deferred writes must be evaluated and some dropped.
    #[test]
    fn prop_unobserved_writes_leave_reads_and_counters_alone() {
        use heimdall_integration::prop::{check, tuple3, u64_in, usize_in, vec_of, Config};
        use std::cell::Cell;
        let (writes, evaluated) = (Cell::new(0u64), Cell::new(0u64));
        let strat = tuple3(
            u64_in(0..=u64::MAX),
            usize_in(0..=6),
            vec_of(u64_in(0..=1_000_000), 0..=8),
        );
        check(
            "prop_unobserved_writes_leave_reads_and_counters_alone",
            &Config::seeded(0xdefe_44ed),
            &strat,
            |&(seed, which, ref cuts)| {
                let cfg = parity_config(which);
                let stream = parity_stream(seed, cfg.parallelism);
                let horizon = stream.last().map_or(1, |r| r.arrival_us + 1);
                let plan = parity_plan(cuts, horizon);
                let mut a = SsdDevice::new(cfg.clone(), seed).with_fault_plan(plan.clone());
                let mut b = SsdDevice::new(cfg, seed).with_fault_plan(plan);
                for req in &stream {
                    let t = req.arrival_us;
                    let tracked = a.try_submit(req, t);
                    let same = match req.op {
                        IoOp::Write => {
                            writes.set(writes.get() + 1);
                            tracked.is_ok() == b.try_submit_unobserved(req, t).is_ok()
                        }
                        IoOp::Read => {
                            let untracked = if b.is_available(t) {
                                Ok(b.submit_untracked(req, t))
                            } else {
                                b.try_submit(req, t)
                            };
                            let seen = |c: Completion| {
                                (c.start_us, c.finish_us, c.latency_us, c.internally_busy)
                            };
                            tracked.map(seen) == untracked.map(seen)
                        }
                    };
                    if !same {
                        return Err(format!("request {} at {t} diverged", req.id));
                    }
                }
                if a.stats() != b.stats() {
                    return Err(format!("stats {:?} vs {:?}", a.stats(), b.stats()));
                }
                if a.fault_stats() != b.fault_stats() {
                    return Err(format!(
                        "fault stats {:?} vs {:?}",
                        a.fault_stats(),
                        b.fault_stats()
                    ));
                }
                if a.busy_log() != b.busy_log() {
                    return Err("busy logs diverged".into());
                }
                evaluated.set(evaluated.get() + b.evaluated);
                Ok(())
            },
        );
        assert!(
            0 < evaluated.get() && evaluated.get() < writes.get(),
            "{} of {} unobserved writes evaluated",
            evaluated.get(),
            writes.get()
        );
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
        let DeviceError::InvalidConfig(msg) = SsdDevice::try_new(cfg, 0).unwrap_err();
        assert!(msg.contains("parallelism"), "{msg}");
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

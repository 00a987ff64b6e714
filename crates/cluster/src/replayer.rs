//! The single-node replayer (§6.1, §6.2): a trace is replayed open-loop
//! against an N-way replicated array of simulated SSDs under a pluggable
//! admission policy.
//!
//! Causality is respected with an event queue: policies learn about a
//! completion only once simulated time reaches it, and hedge duplicates are
//! injected at their deadline, interleaved correctly with later arrivals.
//!
//! The hot path is allocation-free in steady state: deferred work sits on a
//! flat 4-ary [`EventQueue`] slab, the device-view snapshot reuses one
//! buffer, and the latency recorder is pre-sized from the stream's read
//! count. The seed engine ([`replay_homed_reference`], `BinaryHeap`-based)
//! is retained for differential testing, and [`replay_homed_profiled`]
//! runs the same overhauled loop with a per-phase timing probe.

use crate::backoff::retry_delay_us;
use crate::eventq::EventQueue;
use heimdall_metrics::LatencyRecorder;
use heimdall_policies::{DeviceView, Policy, Route};
use heimdall_ssd::{Completion, SsdDevice};
use heimdall_trace::{IoOp, IoRequest, Trace};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Per-device admission accounting for one replay.
///
/// `admits`/`rerouted_away`/`hedge_backups`/`writes` are observed by the
/// replayer from routing decisions; `declines`/`probe_admits` are reported
/// by the policy ([`Policy::decision_counters`]) and are zero for policies
/// without per-device admission models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceLane {
    /// Reads submitted to this device as the routed primary.
    pub admits: u64,
    /// Reads homed on this device that the policy routed elsewhere.
    pub rerouted_away: u64,
    /// Model declines charged to this device.
    pub declines: u64,
    /// Probe admissions forced on this device.
    pub probe_admits: u64,
    /// Hedge duplicates fired at this device as the backup.
    pub hedge_backups: u64,
    /// Writes submitted (replicated to every device).
    pub writes: u64,
    /// Reads routed to this device that found it inside a fail-stop outage
    /// and were rerouted to a live replica (or queued for retry).
    pub fault_rerouted_away: u64,
}

/// Outcome of one replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Policy display name.
    pub policy: String,
    /// Effective read latencies (first completion for hedged reads).
    pub reads: LatencyRecorder,
    /// Writes replayed (replicated to every device).
    pub writes: u64,
    /// Reads routed away from the primary replica.
    pub rerouted: u64,
    /// Hedge duplicates actually fired.
    pub hedges_fired: u64,
    /// Model inferences performed by the policy.
    pub inferences: u64,
    /// Reads that found their routed replica inside a fail-stop outage and
    /// were sent to a live replica instead.
    pub reroutes_on_fault: u64,
    /// Backoff retries scheduled because no live replica existed.
    pub retries: u64,
    /// Reads the policy served through its degraded fallback path
    /// ([`Policy::fallback_decisions`]); 0 for plain policies.
    pub fallback_decisions: u64,
    /// Per-device admission accounting, indexed by device.
    pub per_device: Vec<DeviceLane>,
}

impl ReplayResult {
    /// Mean read latency in microseconds.
    pub fn mean_latency(&self) -> f64 {
        self.reads.mean()
    }
}

/// Deferred simulation work, ordered by firing time then sequence.
#[derive(Debug, Clone, Copy)]
enum Deferred {
    /// Notify the policy of a completion.
    Completion {
        dev: usize,
        req: IoRequest,
        queue_len: u32,
        latency_us: u64,
    },
    /// Fire a hedge duplicate of a read queued on `primary`, whose
    /// completion time there is already known.
    HedgeFire {
        req: IoRequest,
        primary: usize,
        primary_finish: u64,
    },
    /// Re-attempt a read that found every replica inside a fail-stop
    /// outage, after a capped exponential backoff in simulated time.
    Retry {
        req: IoRequest,
        home: usize,
        attempt: u32,
    },
}

/// Reference-engine event wrapper (the new engine keys the queue itself).
struct Event {
    at: u64,
    seq: u64,
    work: Deferred,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A request tagged with the device holding its primary copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomedRequest {
    /// The request.
    pub req: IoRequest,
    /// Primary-copy device index.
    pub home: usize,
}

/// Merges several traces into one homed stream: trace `i`'s requests get
/// home device `i`, ids are re-assigned, and arrivals are interleaved in
/// time order. This builds the light-heavy workload combination of §6.1.
///
/// Traces are merged with a k-way sweep over borrowed request slices — no
/// intermediate per-trace copies, one output allocation. Arrival ties break
/// toward the lower trace index, matching the stable concatenate-then-sort
/// of [`merge_homed_reference`]. Falls back to the reference when a trace
/// is not arrival-sorted (generated traces always are).
pub fn merge_homed(traces: &[&Trace]) -> Vec<HomedRequest> {
    if traces.iter().any(|t| {
        !t.requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us)
    }) {
        return merge_homed_reference(traces);
    }
    let total: usize = traces.iter().map(|t| t.requests.len()).sum();
    let mut out: Vec<HomedRequest> = Vec::with_capacity(total);
    let mut cursors = vec![0usize; traces.len()];
    for id in 0..total as u64 {
        let mut best: Option<(u64, usize)> = None;
        for (home, (t, &c)) in traces.iter().zip(&cursors).enumerate() {
            if let Some(r) = t.requests.get(c) {
                // Strict `<`: the earliest trace keeps arrival ties.
                if best.is_none_or(|(at, _)| r.arrival_us < at) {
                    best = Some((r.arrival_us, home));
                }
            }
        }
        let (_, home) = best.expect("cursors not exhausted");
        let mut req = traces[home].requests[cursors[home]];
        cursors[home] += 1;
        req.id = id;
        out.push(HomedRequest { req, home });
    }
    out
}

/// The seed stream-assembly path: concatenate every trace, stable-sort by
/// arrival. Kept as the differential-testing reference for [`merge_homed`].
pub fn merge_homed_reference(traces: &[&Trace]) -> Vec<HomedRequest> {
    let mut out: Vec<HomedRequest> = traces
        .iter()
        .enumerate()
        .flat_map(|(home, t)| {
            t.requests
                .iter()
                .map(move |r| HomedRequest { req: *r, home })
        })
        .collect();
    out.sort_by_key(|h| h.req.arrival_us);
    for (i, h) in out.iter_mut().enumerate() {
        h.req.id = i as u64;
    }
    out
}

/// Replays a single trace (home device 0) — see [`replay_homed`].
///
/// # Panics
///
/// Panics if fewer than two devices are supplied.
pub fn replay(trace: &Trace, devices: &mut [SsdDevice], policy: &mut dyn Policy) -> ReplayResult {
    let homed: Vec<HomedRequest> = trace
        .requests
        .iter()
        .map(|r| HomedRequest { req: *r, home: 0 })
        .collect();
    replay_homed(&homed, devices, policy)
}

/// Wall-clock breakdown of one profiled replay (see
/// [`replay_homed_profiled`]): where a replay's time goes, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayProfile {
    /// Event-queue operations (push/pop/peek).
    pub queue_ns: u64,
    /// Policy work: routing decisions and completion notifications.
    pub policy_ns: u64,
    /// Device simulation: submissions and queue-length snapshots.
    pub device_ns: u64,
    /// Latency recording.
    pub recorder_ns: u64,
    /// Events pushed onto the queue.
    pub events: u64,
    /// Routing decisions made.
    pub decisions: u64,
}

impl ReplayProfile {
    /// Total attributed time across all phases, nanoseconds.
    #[cfg(test)]
    fn total_ns(&self) -> u64 {
        self.queue_ns + self.policy_ns + self.device_ns + self.recorder_ns
    }
}

/// The phases a replay's wall-clock is attributed to (the `*_ns` fields of
/// [`ReplayProfile`]).
#[derive(Clone, Copy)]
enum Phase {
    Queue,
    Policy,
    Device,
    Recorder,
}

/// Per-phase instrumentation hooks for the replay engine. The default
/// no-op impl compiles away entirely; the timing impl backs
/// [`replay_homed_profiled`].
trait ReplayProbe {
    /// Marks the start of a timed span. Needed only after untimed work: a
    /// lap also starts the next span, so adjacent phases are laps in a row.
    #[inline(always)]
    fn start(&mut self) {}
    /// Charges the span to `phase`.
    #[inline(always)]
    fn lap(&mut self, _phase: Phase) {}
    /// Counts one event push.
    #[inline(always)]
    fn count_event(&mut self) {}
    /// Counts one routing decision.
    #[inline(always)]
    fn count_decision(&mut self) {}
}

/// Zero-cost probe for the production path.
struct NoProbe;
impl ReplayProbe for NoProbe {}

/// Wall-clock probe backing [`replay_homed_profiled`].
struct TimingProbe {
    last: Instant,
    profile: ReplayProfile,
}

impl ReplayProbe for TimingProbe {
    #[inline]
    fn start(&mut self) {
        self.last = Instant::now();
    }
    #[inline]
    fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        match phase {
            Phase::Queue => self.profile.queue_ns += ns,
            Phase::Policy => self.profile.policy_ns += ns,
            Phase::Device => self.profile.device_ns += ns,
            Phase::Recorder => self.profile.recorder_ns += ns,
        }
    }
    #[inline]
    fn count_event(&mut self) {
        self.profile.events += 1;
    }
    #[inline]
    fn count_decision(&mut self) {
        self.profile.decisions += 1;
    }
}

/// Replays a homed request stream against the devices under the policy.
///
/// Writes are replicated to every device (keeping replicas in sync and
/// under equal GC pressure); reads are routed by the policy, which counts a
/// read as rerouted when it leaves its home device. Devices must be freshly
/// constructed so that every policy faces identical device randomness.
///
/// # Panics
///
/// Panics if fewer than two devices are supplied or the stream is not
/// sorted by arrival time.
pub fn replay_homed(
    requests: &[HomedRequest],
    devices: &mut [SsdDevice],
    policy: &mut dyn Policy,
) -> ReplayResult {
    replay_homed_impl(requests, devices, policy, &mut NoProbe)
}

/// Runs [`replay_homed`] with per-phase wall-clock attribution. The result
/// is identical to the unprofiled engine; the profile feeds the benchmark's
/// `cluster.replayer.*_seconds` rows.
///
/// # Panics
///
/// Panics under the same conditions as [`replay_homed`].
pub fn replay_homed_profiled(
    requests: &[HomedRequest],
    devices: &mut [SsdDevice],
    policy: &mut dyn Policy,
) -> (ReplayResult, ReplayProfile) {
    let mut probe = TimingProbe {
        last: Instant::now(),
        profile: ReplayProfile::default(),
    };
    let result = replay_homed_impl(requests, devices, policy, &mut probe);
    (result, probe.profile)
}

/// One replay in flight. Every read reaches a device the same way whether
/// it is arriving, retrying after a backoff or being hedged:
/// [`Engine::resolve`] picks a live replica and accounts the fault reroute,
/// [`Engine::submit`] hands the read to the device, tells the policy and
/// schedules the completion.
struct Engine<'a, P: ReplayProbe> {
    devices: &'a mut [SsdDevice],
    policy: &'a mut dyn Policy,
    pending: EventQueue<Deferred>,
    result: ReplayResult,
    probe: &'a mut P,
}

impl<P: ReplayProbe> Engine<'_, P> {
    /// Queues deferred work to fire at `at`.
    fn defer(&mut self, at: u64, work: Deferred) {
        self.probe.start();
        self.pending.push(at, work);
        self.probe.lap(Phase::Queue);
        self.probe.count_event();
    }

    /// Records one read's effective latency.
    fn record(&mut self, latency_us: u64) {
        self.probe.start();
        self.result.reads.record(latency_us);
        self.probe.lap(Phase::Recorder);
    }

    /// The replica a read preferring `prefer` goes to at `at`: `prefer`
    /// itself unless it is inside a fail-stop outage, else the first live
    /// replica scanning ascending from it with wrap-around (never
    /// `exclude`), else none. Finding a substitute is one
    /// `reroutes_on_fault`. The dead `prefer` is charged
    /// `fault_rerouted_away` whenever a substitute serves the read, and
    /// with `charge_unplaced` also when none does: an arrival and a hedge
    /// charge the replica they found dead either way, a backoff retry only
    /// once some replica takes the read.
    fn resolve(
        &mut self,
        prefer: usize,
        exclude: Option<usize>,
        at: u64,
        charge_unplaced: bool,
    ) -> Option<usize> {
        if self.devices[prefer].is_available(at) {
            return Some(prefer);
        }
        let n = self.devices.len();
        let live = (1..n)
            .map(|k| (prefer + k) % n)
            .find(|&d| Some(d) != exclude && self.devices[d].is_available(at));
        if live.is_some() || charge_unplaced {
            self.result.per_device[prefer].fault_rerouted_away += 1;
        }
        if live.is_some() {
            self.result.reroutes_on_fault += 1;
        }
        live
    }

    /// Submits a read to live replica `d` at `at`: the device serves it,
    /// the policy hears of it, and its completion is scheduled.
    fn submit(&mut self, d: usize, req: &IoRequest, at: u64) -> Completion {
        self.probe.start();
        let done = self.devices[d].submit(req, at);
        self.probe.lap(Phase::Device);
        self.policy.on_submit(d, req, at);
        self.probe.lap(Phase::Policy);
        self.defer(
            done.finish_us,
            Deferred::Completion {
                dev: d,
                req: *req,
                queue_len: done.queue_len,
                latency_us: done.latency_us,
            },
        );
        done
    }

    /// One attempt to serve a read at `at`. Attempt 0 is the arrival: it
    /// prefers the replica the policy chose and is hedged after
    /// `timeout_us` (`u64::MAX` = never). Attempt k > 0 is the k-th backoff
    /// retry: it prefers the read's home and is not hedged. With no live
    /// replica the read backs off, and is abandoned once the budget is
    /// spent.
    fn attempt(
        &mut self,
        req: &IoRequest,
        home: usize,
        prefer: usize,
        attempt: u32,
        at: u64,
        timeout_us: u64,
    ) {
        match self.resolve(prefer, None, at, attempt == 0) {
            Some(d) => {
                self.result.per_device[d].admits += 1;
                let done = self.submit(d, req, at);
                if done.latency_us > timeout_us {
                    // The duplicate fires at the deadline; the read is
                    // recorded then, at the earlier finish.
                    self.defer(
                        at + timeout_us,
                        Deferred::HedgeFire {
                            req: *req,
                            primary: d,
                            primary_finish: done.finish_us,
                        },
                    );
                } else {
                    // Latency spans the full wait since the arrival.
                    self.record(done.finish_us - req.arrival_us);
                }
            }
            None => match retry_delay_us(attempt) {
                Some(delay) => {
                    self.result.retries += 1;
                    self.defer(
                        at + delay,
                        Deferred::Retry {
                            req: *req,
                            home,
                            attempt: attempt + 1,
                        },
                    );
                }
                // Whole-array outage outlasted the backoff budget: give up,
                // accounting the read's wait so every read appears in the
                // recorder exactly once.
                None => self.record(at - req.arrival_us),
            },
        }
    }

    /// Runs every deferred event due at or before `t`.
    fn drain(&mut self, t: u64) {
        loop {
            self.probe.start();
            let due = match self.pending.next_at() {
                Some(at) if at <= t => self.pending.pop(),
                _ => None,
            };
            self.probe.lap(Phase::Queue);
            let Some((at, work)) = due else { return };
            match work {
                Deferred::Completion {
                    dev,
                    req,
                    queue_len,
                    latency_us,
                } => {
                    self.policy
                        .on_completion(dev, &req, queue_len, latency_us, at);
                    self.probe.lap(Phase::Policy);
                }
                Deferred::HedgeFire {
                    req,
                    primary,
                    primary_finish,
                } => {
                    // The duplicate goes to the next replica, or its live
                    // substitute, but never to the primary's own device (a
                    // duplicate queued behind its original can never finish
                    // first); with nowhere to go the read completes on the
                    // primary alone.
                    let backup = (primary + 1) % self.devices.len();
                    let finish = match self.resolve(backup, Some(primary), at, true) {
                        Some(b) => {
                            self.result.hedges_fired += 1;
                            self.result.per_device[b].hedge_backups += 1;
                            // Effective latency: earlier of the two.
                            primary_finish.min(self.submit(b, &req, at).finish_us)
                        }
                        None => primary_finish,
                    };
                    self.record(finish - req.arrival_us);
                }
                Deferred::Retry { req, home, attempt } => {
                    self.attempt(&req, home, home, attempt, at, u64::MAX)
                }
            }
        }
    }
}

fn replay_homed_impl<P: ReplayProbe>(
    requests: &[HomedRequest],
    devices: &mut [SsdDevice],
    policy: &mut dyn Policy,
    probe: &mut P,
) -> ReplayResult {
    assert!(devices.len() >= 2, "replication needs at least two devices");
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].req.arrival_us <= w[1].req.arrival_us),
        "homed requests must be sorted by arrival"
    );
    let read_count = requests.iter().filter(|h| h.req.op.is_read()).count();
    let last = devices.len() - 1;
    let mut views: Vec<DeviceView> = Vec::with_capacity(devices.len());
    let mut eng = Engine {
        result: ReplayResult {
            policy: policy.name().to_string(),
            reads: LatencyRecorder::with_capacity(read_count),
            writes: 0,
            rerouted: 0,
            hedges_fired: 0,
            inferences: 0,
            reroutes_on_fault: 0,
            retries: 0,
            fallback_decisions: 0,
            per_device: vec![DeviceLane::default(); devices.len()],
        },
        devices,
        policy,
        pending: EventQueue::with_capacity(64),
        probe,
    };

    for HomedRequest { req, home } in requests {
        let home = (*home).min(last);
        let now = req.arrival_us;
        eng.drain(now);
        match req.op {
            IoOp::Write => {
                eng.result.writes += 1;
                eng.probe.start();
                for (i, dev) in eng.devices.iter_mut().enumerate() {
                    // A replica inside a fail-stop outage misses the write;
                    // its lane counter records only the writes it served.
                    if dev.try_submit(req, now).is_ok() {
                        eng.result.per_device[i].writes += 1;
                    }
                }
                eng.probe.lap(Phase::Device);
            }
            IoOp::Read => {
                eng.probe.start();
                views.clear();
                views.extend(eng.devices.iter_mut().map(|d| DeviceView {
                    queue_len: d.queue_len(now),
                }));
                eng.probe.lap(Phase::Device);
                let route = eng.policy.route_read(req, now, &views, home);
                eng.probe.lap(Phase::Policy);
                eng.probe.count_decision();
                // An unhedged route is a hedge that never fires.
                let (chosen, timeout_us) = match route {
                    Route::To(d) => (d, u64::MAX),
                    Route::Hedged {
                        primary,
                        timeout_us,
                    } => (primary, timeout_us),
                };
                let chosen = chosen.min(last);
                // Policy-level reroute accounting reflects the policy's own
                // decision; degradation caused by an unavailable replica is
                // counted separately, in `resolve`.
                if chosen != home {
                    eng.result.rerouted += 1;
                    eng.result.per_device[home].rerouted_away += 1;
                }
                eng.attempt(req, home, chosen, 0, now, timeout_us);
            }
        }
    }
    eng.drain(u64::MAX);
    eng.result.inferences = eng.policy.inferences();
    eng.result.fallback_decisions = eng.policy.fallback_decisions();
    let lanes = eng.result.per_device.iter_mut();
    for (lane, c) in lanes.zip(eng.policy.decision_counters()) {
        lane.declines = c.declines;
        lane.probe_admits = c.probe_admits;
    }
    eng.result
}

/// The seed replay engine (`BinaryHeap<Reverse<Event>>`, per-read view
/// allocation), kept verbatim as the differential-testing reference for
/// [`replay_homed`]. Same inputs, byte-identical results.
///
/// # Panics
///
/// Panics under the same conditions as [`replay_homed`].
pub fn replay_homed_reference(
    requests: &[HomedRequest],
    devices: &mut [SsdDevice],
    policy: &mut dyn Policy,
) -> ReplayResult {
    assert!(devices.len() >= 2, "replication needs at least two devices");
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].req.arrival_us <= w[1].req.arrival_us),
        "homed requests must be sorted by arrival"
    );
    let mut result = ReplayResult {
        policy: policy.name().to_string(),
        reads: LatencyRecorder::new(),
        writes: 0,
        rerouted: 0,
        hedges_fired: 0,
        inferences: 0,
        reroutes_on_fault: 0,
        retries: 0,
        fallback_decisions: 0,
        per_device: vec![DeviceLane::default(); devices.len()],
    };
    let mut pending: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<Event>>, at: u64, work: Deferred, seq: &mut u64| {
        heap.push(Reverse(Event {
            at,
            seq: *seq,
            work,
        }));
        *seq += 1;
    };

    let drain_until = |heap: &mut BinaryHeap<Reverse<Event>>,
                       t: u64,
                       devices: &mut [SsdDevice],
                       policy: &mut dyn Policy,
                       result: &mut ReplayResult,
                       seq: &mut u64| {
        while let Some(Reverse(ev)) = heap.peek() {
            if ev.at > t {
                break;
            }
            let Reverse(ev) = heap.pop().expect("peeked");
            match ev.work {
                Deferred::Completion {
                    dev,
                    req,
                    queue_len,
                    latency_us,
                } => {
                    policy.on_completion(dev, &req, queue_len, latency_us, ev.at);
                }
                Deferred::HedgeFire {
                    req,
                    primary,
                    primary_finish,
                } => {
                    let backup = (primary + 1) % devices.len();
                    result.hedges_fired += 1;
                    result.per_device[backup].hedge_backups += 1;
                    let done = devices[backup].submit(&req, ev.at);
                    policy.on_submit(backup, &req, ev.at);
                    heap.push(Reverse(Event {
                        at: done.finish_us,
                        seq: *seq,
                        work: Deferred::Completion {
                            dev: backup,
                            req,
                            queue_len: done.queue_len,
                            latency_us: done.latency_us,
                        },
                    }));
                    *seq += 1;
                    // Effective latency: earlier of primary and backup.
                    let finish = primary_finish.min(done.finish_us);
                    result.reads.record(finish - req.arrival_us);
                }
                Deferred::Retry { .. } => {
                    unreachable!("the fault-unaware reference engine never schedules retries")
                }
            }
        }
    };

    for HomedRequest { req, home } in requests {
        let home = (*home).min(devices.len() - 1);
        let now = req.arrival_us;
        drain_until(&mut pending, now, devices, policy, &mut result, &mut seq);
        match req.op {
            IoOp::Write => {
                result.writes += 1;
                for (i, dev) in devices.iter_mut().enumerate() {
                    dev.submit(req, now);
                    result.per_device[i].writes += 1;
                }
            }
            IoOp::Read => {
                let views: Vec<DeviceView> = devices
                    .iter_mut()
                    .map(|d| DeviceView {
                        queue_len: d.queue_len(now),
                    })
                    .collect();
                match policy.route_read(req, now, &views, home) {
                    Route::To(d) => {
                        let d = d.min(devices.len() - 1);
                        result.per_device[d].admits += 1;
                        if d != home {
                            result.rerouted += 1;
                            result.per_device[home].rerouted_away += 1;
                        }
                        let done = devices[d].submit(req, now);
                        policy.on_submit(d, req, now);
                        result.reads.record(done.latency_us);
                        push(
                            &mut pending,
                            done.finish_us,
                            Deferred::Completion {
                                dev: d,
                                req: *req,
                                queue_len: done.queue_len,
                                latency_us: done.latency_us,
                            },
                            &mut seq,
                        );
                    }
                    Route::Hedged {
                        primary,
                        timeout_us,
                    } => {
                        let p = primary.min(devices.len() - 1);
                        result.per_device[p].admits += 1;
                        if p != home {
                            result.rerouted += 1;
                            result.per_device[home].rerouted_away += 1;
                        }
                        let done = devices[p].submit(req, now);
                        policy.on_submit(p, req, now);
                        push(
                            &mut pending,
                            done.finish_us,
                            Deferred::Completion {
                                dev: p,
                                req: *req,
                                queue_len: done.queue_len,
                                latency_us: done.latency_us,
                            },
                            &mut seq,
                        );
                        if done.latency_us > timeout_us {
                            // The duplicate fires at the deadline; the read
                            // completes at the earlier finish. Recording
                            // happens when the hedge fires.
                            push(
                                &mut pending,
                                now + timeout_us,
                                Deferred::HedgeFire {
                                    req: *req,
                                    primary: p,
                                    primary_finish: done.finish_us,
                                },
                                &mut seq,
                            );
                        } else {
                            result.reads.record(done.latency_us);
                        }
                    }
                }
            }
        }
    }
    drain_until(
        &mut pending,
        u64::MAX,
        devices,
        policy,
        &mut result,
        &mut seq,
    );
    result.inferences = policy.inferences();
    result.fallback_decisions = policy.fallback_decisions();
    for (dev, c) in policy
        .decision_counters()
        .into_iter()
        .enumerate()
        .take(devices.len())
    {
        result.per_device[dev].declines = c.declines;
        result.per_device[dev].probe_admits = c.probe_admits;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_policies::{Baseline, Hedging, RandomSelect};
    use heimdall_ssd::DeviceConfig;
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::WorkloadProfile;

    fn devices(seed: u64) -> Vec<SsdDevice> {
        vec![
            SsdDevice::new(DeviceConfig::datacenter_nvme(), seed),
            SsdDevice::new(DeviceConfig::datacenter_nvme(), seed + 1),
        ]
    }

    fn trace() -> Trace {
        TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(5)
            .duration_secs(5)
            .build()
    }

    #[test]
    fn baseline_never_reroutes() {
        let t = trace();
        let mut devs = devices(1);
        let res = replay(&t, &mut devs, &mut Baseline);
        assert_eq!(res.rerouted, 0);
        assert_eq!(res.hedges_fired, 0);
        let reads = t.requests.iter().filter(|r| r.op.is_read()).count();
        assert_eq!(res.reads.len(), reads);
    }

    #[test]
    fn writes_hit_every_device() {
        let t = trace();
        let mut devs = devices(2);
        let res = replay(&t, &mut devs, &mut Baseline);
        assert_eq!(devs[0].stats().writes, res.writes);
        assert_eq!(devs[1].stats().writes, res.writes);
        // Baseline sends all reads to device 0.
        assert_eq!(devs[1].stats().reads, 0);
    }

    #[test]
    fn random_spreads_reads() {
        let t = trace();
        let mut devs = devices(3);
        let res = replay(&t, &mut devs, &mut RandomSelect::new(7));
        assert!(res.rerouted > 0);
        assert!(devs[0].stats().reads > 0 && devs[1].stats().reads > 0);
        let spread = devs[0].stats().reads as f64 / (res.reads.len() as f64);
        assert!((spread - 0.5).abs() < 0.05, "spread {spread}");
    }

    #[test]
    fn hedging_fires_only_on_slow_reads() {
        let t = trace();
        let mut devs = devices(4);
        let res = replay(&t, &mut devs, &mut Hedging::new(2_000));
        // Every read is accounted exactly once.
        let reads = t.requests.iter().filter(|r| r.op.is_read()).count();
        assert_eq!(res.reads.len(), reads);
        // Hedged completions can't exceed timeout + backup latency and the
        // recorded latency never exceeds the primary's.
        assert!(res.hedges_fired < reads as u64);
    }

    #[test]
    fn hedging_caps_tail_versus_baseline() {
        let t = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(6)
            .duration_secs(15)
            .build();
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30;
        let mut base_devs = vec![
            SsdDevice::new(cfg.clone(), 10),
            SsdDevice::new(cfg.clone(), 11),
        ];
        let mut hedge_devs = vec![SsdDevice::new(cfg.clone(), 10), SsdDevice::new(cfg, 11)];
        let base = replay(&t, &mut base_devs, &mut Baseline);
        let hedge = replay(&t, &mut hedge_devs, &mut Hedging::new(2_000));
        assert!(hedge.hedges_fired > 0);
        let (bp, hp) = (base.reads.percentile(99.9), hedge.reads.percentile(99.9));
        assert!(
            hp <= bp,
            "hedging p99.9 {hp} should not exceed baseline {bp}"
        );
    }

    #[test]
    fn per_device_lanes_account_every_submission() {
        let t = trace();
        let mut devs = devices(9);
        let res = replay(&t, &mut devs, &mut RandomSelect::new(3));
        let reads = t.requests.iter().filter(|r| r.op.is_read()).count() as u64;
        let admits: u64 = res.per_device.iter().map(|l| l.admits).sum();
        assert_eq!(
            admits, reads,
            "every read is admitted to exactly one primary"
        );
        let away: u64 = res.per_device.iter().map(|l| l.rerouted_away).sum();
        assert_eq!(away, res.rerouted);
        assert!(res.per_device.iter().all(|l| l.writes == res.writes));
        // Stateless policies report no model decisions.
        assert!(res
            .per_device
            .iter()
            .all(|l| l.declines == 0 && l.probe_admits == 0));
    }

    #[test]
    fn hedge_backups_match_hedges_fired() {
        let t = trace();
        let mut devs = devices(10);
        let res = replay(&t, &mut devs, &mut Hedging::new(2_000));
        let backups: u64 = res.per_device.iter().map(|l| l.hedge_backups).sum();
        assert_eq!(backups, res.hedges_fired);
        // Hedging routes every read to its home first.
        assert_eq!(res.per_device[0].admits, res.reads.len() as u64);
    }

    #[test]
    fn deterministic_replay() {
        let t = trace();
        let r1 = replay(&t, &mut devices(8), &mut Baseline);
        let r2 = replay(&t, &mut devices(8), &mut Baseline);
        assert_eq!(r1.reads.samples(), r2.reads.samples());
    }

    #[test]
    fn profiled_replay_matches_and_attributes_time() {
        let t = trace();
        let homed: Vec<HomedRequest> = t
            .requests
            .iter()
            .map(|r| HomedRequest { req: *r, home: 0 })
            .collect();
        let plain = replay_homed(&homed, &mut devices(21), &mut Hedging::new(2_000));
        let (profiled, profile) =
            replay_homed_profiled(&homed, &mut devices(21), &mut Hedging::new(2_000));
        assert_eq!(plain.reads.samples(), profiled.reads.samples());
        assert_eq!(plain.hedges_fired, profiled.hedges_fired);
        assert_eq!(profile.decisions, plain.reads.len() as u64);
        // Completions are scheduled for every routed read and hedge fire.
        assert_eq!(
            profile.events,
            plain.reads.len() as u64 + plain.hedges_fired,
        );
        assert!(profile.total_ns() > 0);
        assert!(profile.device_ns > 0);
    }

    #[test]
    fn merge_homed_matches_reference() {
        let a = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(31)
            .duration_secs(5)
            .build();
        let b = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(32)
            .duration_secs(5)
            .build();
        let c = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
            .seed(33)
            .duration_secs(3)
            .build();
        for traces in [vec![&a], vec![&a, &b], vec![&a, &b, &c]] {
            let merged = merge_homed(&traces);
            let reference = merge_homed_reference(&traces);
            assert_eq!(merged, reference, "k={} diverged", traces.len());
        }
    }

    #[test]
    fn merge_homed_unsorted_trace_falls_back() {
        let mut a = trace();
        a.requests.swap(0, 1);
        let b = trace();
        assert!(a.requests[0].arrival_us >= a.requests[1].arrival_us);
        let merged = merge_homed(&[&a, &b]);
        let reference = merge_homed_reference(&[&a, &b]);
        assert_eq!(merged, reference);
    }

    #[test]
    fn new_engine_matches_reference_engine() {
        let t = trace();
        let homed: Vec<HomedRequest> = t
            .requests
            .iter()
            .map(|r| HomedRequest { req: *r, home: 0 })
            .collect();
        let new = replay_homed(&homed, &mut devices(14), &mut Hedging::new(2_000));
        let reference = replay_homed_reference(&homed, &mut devices(14), &mut Hedging::new(2_000));
        assert_eq!(new.reads.samples(), reference.reads.samples());
        assert_eq!(new.hedges_fired, reference.hedges_fired);
        assert_eq!(new.per_device, reference.per_device);
    }

    #[test]
    #[should_panic(expected = "at least two devices")]
    fn single_device_panics() {
        let t = trace();
        let mut devs = vec![SsdDevice::new(DeviceConfig::datacenter_nvme(), 0)];
        replay(&t, &mut devs, &mut Baseline);
    }
}

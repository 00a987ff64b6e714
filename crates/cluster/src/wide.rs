//! Wide-scale (Ceph-like) cluster simulation (§6.3).
//!
//! Models the paper's testbed: N nodes hosting 2 OSDs each (FEMU-style
//! emulated SSDs), client nodes issuing end-user requests that fan out into
//! SF parallel sub-reads ("Tail at Scale": the request completes when the
//! slowest sub-read completes), and noise injectors creating noisy
//! neighbours. Placement mirrors replicated pools: each object maps to a
//! primary/secondary OSD pair on different nodes.
//!
//! Matching §6.3, three policies are compared: baseline (primary OSD),
//! random load balancing, and Heimdall (per-OSD admission models; a
//! declined sub-read goes to the secondary, which admits by default).
//!
//! Completion events exist only to feed the admitters, so stateless
//! policies (baseline, random) schedule none. Under Heimdall each OSD keeps
//! its own completions on a flat 4-ary [`EventQueue`] and applies them
//! lazily: an OSD's admitter and decline streak are read only when that OSD
//! decides, so they are brought up to date then, and the engine's one
//! global queue holds only backoff retries. The seed engine is kept as
//! [`run_wide_reference`] for differential testing.

use crate::backoff::retry_delay_us;
use crate::eventq::EventQueue;
use heimdall_core::model::OnlineAdmitter;
use heimdall_core::pipeline::Trained;
use heimdall_metrics::LatencyRecorder;
use heimdall_ssd::{DeviceConfig, FaultPlan, SsdDevice};
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wide-scale experiment configuration.
#[derive(Debug, Clone)]
pub struct WideConfig {
    /// Storage nodes (paper: 10).
    pub nodes: usize,
    /// OSDs per node (paper: 2).
    pub osds_per_node: usize,
    /// Client nodes (paper: 20).
    pub clients: usize,
    /// Sub-requests per end-user request (the Fig 13 scaling factor).
    pub scaling_factor: usize,
    /// Per-client request rate, requests per second.
    pub client_rate: f64,
    /// Experiment duration, microseconds.
    pub duration_us: u64,
    /// Noise injectors (background writers creating noisy neighbours).
    pub noise_injectors: usize,
    /// Per-injector write rate, writes per second.
    pub noise_rate: f64,
    /// Injector write size, bytes.
    pub noise_size: u32,
    /// OSD device model.
    pub device: DeviceConfig,
    /// Scripted fault plans, indexed by OSD; OSDs past the end of the list
    /// stay healthy. The reference engine ignores fault plans (it predates
    /// the fault layer), so differential tests must run fault-free configs.
    pub fault_plans: Vec<FaultPlan>,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for WideConfig {
    fn default() -> Self {
        WideConfig {
            nodes: 10,
            osds_per_node: 2,
            clients: 20,
            scaling_factor: 1,
            client_rate: 400.0,
            duration_us: 20_000_000,
            noise_injectors: 6,
            noise_rate: 4_000.0,
            noise_size: 1024 * 1024,
            device: DeviceConfig::femu_emulated(),
            fault_plans: Vec::new(),
            seed: 0,
        }
    }
}

impl WideConfig {
    /// Total OSD count.
    pub fn osds(&self) -> usize {
        self.nodes * self.osds_per_node
    }
}

/// The §6.3 policy set.
pub enum WidePolicy {
    /// Every sub-read goes to its primary OSD.
    Baseline,
    /// Sub-reads are randomly balanced between primary and secondary.
    Random,
    /// Per-OSD Heimdall admission models (one [`Trained`] per OSD).
    Heimdall(Vec<Trained>),
}

impl WidePolicy {
    fn name(&self) -> &'static str {
        match self {
            WidePolicy::Baseline => "baseline",
            WidePolicy::Random => "random",
            WidePolicy::Heimdall(_) => "heimdall",
        }
    }
}

/// Wide-scale run outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WideResult {
    /// Policy name.
    pub policy: String,
    /// End-user request latencies (max over sub-reads).
    pub requests: LatencyRecorder,
    /// Individual sub-read latencies.
    pub sub_reads: LatencyRecorder,
    /// Sub-reads rerouted away from their primary OSD.
    pub rerouted: u64,
    /// Sub-reads that found their chosen replica inside a fail-stop outage
    /// and went to the other replica instead.
    pub reroutes_on_fault: u64,
    /// Backoff retries scheduled because both replicas were unavailable.
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Client,
    Noise,
}

/// Builds the merged client/injector arrival schedule. Consumes the same
/// rng draws in the same order as the seed engine; the final
/// `sort_unstable_by_key` is load-bearing for byte identity (pdqsort's tie
/// order is part of the golden outputs) and must not be replaced by a
/// stable merge.
fn build_arrivals(cfg: &WideConfig, rng: &mut Rng64) -> Vec<(u64, Source, usize)> {
    let secs = cfg.duration_us as f64 / 1e6;
    let expected =
        secs * (cfg.clients as f64 * cfg.client_rate + cfg.noise_injectors as f64 * cfg.noise_rate);
    let mut arrivals: Vec<(u64, Source, usize)> = Vec::with_capacity(expected as usize * 9 / 8);
    for c in 0..cfg.clients {
        let mut t = 0u64;
        let mut crng = rng.fork();
        loop {
            t += crng.exponential(1e6 / cfg.client_rate).max(1.0) as u64;
            if t >= cfg.duration_us {
                break;
            }
            arrivals.push((t, Source::Client, c));
        }
    }
    for inj in 0..cfg.noise_injectors {
        let mut t = 0u64;
        let mut nrng = rng.fork();
        loop {
            t += nrng.exponential(1e6 / cfg.noise_rate).max(1.0) as u64;
            if t >= cfg.duration_us {
                break;
            }
            arrivals.push((t, Source::Noise, inj));
        }
    }
    arrivals.sort_unstable_by_key(|a| a.0);
    arrivals
}

/// Probe rule (same as the single-node policies): a long streak of declines
/// with no fresh completion from an OSD forces one probe admit, so a stale
/// history cannot decline forever.
const PROBE_AFTER: u32 = 8;

/// Runs one wide-scale experiment.
///
/// # Panics
///
/// Panics on a degenerate configuration (zero nodes/clients/SF), when a
/// Heimdall policy supplies the wrong number of models, or when one of them
/// is joint-trained (sub-reads are decided one at a time).
pub fn run_wide(cfg: &WideConfig, policy: WidePolicy) -> WideResult {
    assert!(
        cfg.nodes > 0 && cfg.osds_per_node > 0,
        "cluster must have OSDs"
    );
    assert!(
        cfg.clients > 0 && cfg.scaling_factor > 0,
        "degenerate client config"
    );
    let n_osds = cfg.osds();
    assert!(n_osds >= 2, "need at least two OSDs for replication");
    if let WidePolicy::Heimdall(models) = &policy {
        assert_eq!(models.len(), n_osds, "one model per OSD required");
        assert!(
            models.iter().all(|m| m.joint <= 1),
            "run_wide needs per-I/O models: a joint-trained model cannot decide one sub-read"
        );
    }

    let mut rng = Rng64::new(cfg.seed ^ 0x7769_6465);
    let mut osds: Vec<SsdDevice> = (0..n_osds)
        .map(|i| SsdDevice::new(cfg.device.clone(), cfg.seed + i as u64))
        .collect();
    for (osd, plan) in osds.iter_mut().zip(&cfg.fault_plans) {
        osd.set_fault_plan(plan.clone());
    }

    // Pre-generate the merged arrival schedule.
    let arrivals = build_arrivals(cfg, &mut rng);

    let client_reqs = arrivals.iter().filter(|a| a.1 == Source::Client).count();
    let name = policy.name();
    let random = matches!(policy, WidePolicy::Random);
    let mut eng = WideEngine {
        osds,
        admission: match policy {
            WidePolicy::Heimdall(models) => Some(
                models
                    .into_iter()
                    .map(|model| OsdAdmission {
                        admitter: OnlineAdmitter::new(model),
                        pending: EventQueue::new(),
                        declines: 0,
                    })
                    .collect(),
            ),
            _ => None,
        },
        retryq: EventQueue::new(),
        open: Vec::new(),
        result: WideResult {
            policy: name.to_string(),
            requests: LatencyRecorder::with_capacity(client_reqs),
            sub_reads: LatencyRecorder::with_capacity(client_reqs * cfg.scaling_factor),
            rerouted: 0,
            reroutes_on_fault: 0,
            retries: 0,
        },
        next_id: 0,
    };
    let sub_sizes = [PAGE_SIZE, 16 * 1024, 64 * 1024, 256 * 1024];
    // Per-request scratch, reused across arrivals so the admission hot path
    // does not allocate.
    let mut members: Vec<SubRead> = Vec::new();
    let mut deferred: Vec<SubRead> = Vec::new();

    for (now, source, idx) in arrivals {
        eng.drain(now);

        match source {
            Source::Noise => {
                // Noisy neighbour: sustained write pressure against one
                // node's OSDs, moving to another node every few seconds —
                // long enough dwell for admission models to react.
                let node = (idx + (now / 5_000_000) as usize) % cfg.nodes;
                let osd = node * cfg.osds_per_node + (eng.next_id as usize % cfg.osds_per_node);
                let req = IoRequest {
                    id: eng.next_id,
                    arrival_us: now,
                    offset: (eng.next_id % 4096) * cfg.noise_size as u64,
                    size: cfg.noise_size,
                    op: IoOp::Write,
                };
                eng.next_id += 1;
                // A noise write into an outage window is simply lost. With
                // no admission, nothing reads its completion.
                if eng.admission.is_some() {
                    let _ = eng.osds[osd].try_submit(&req, now);
                } else {
                    let _ = eng.osds[osd].try_submit_unobserved(&req, now);
                }
            }
            Source::Client => {
                // One end-user request: SF parallel sub-reads. Placement
                // (and the random balancer's coin) is drawn for every
                // member first; Heimdall then decides the members in order,
                // each at its primary's arrival-time queue length — nothing
                // is submitted until all are decided, since the sub-reads
                // are issued in parallel and see the same queues.
                members.clear();
                for _ in 0..cfg.scaling_factor {
                    let object = rng.next_u64();
                    let primary = (object % n_osds as u64) as usize;
                    // Secondary on a different node.
                    let secondary = (primary + n_osds / 2) % n_osds;
                    let size = sub_sizes[(object >> 32) as usize % sub_sizes.len()];
                    let coin = random && !rng.chance(0.5);
                    members.push(SubRead {
                        primary,
                        secondary,
                        size,
                        offset: object % (1 << 36),
                        decline: coin,
                    });
                }
                if let Some(adm) = eng.admission.as_mut() {
                    for m in members.iter_mut() {
                        let qlen = eng.osds[m.primary].queue_len(now);
                        m.decline = adm[m.primary].decide(qlen, m.size, now);
                    }
                }
                let mut max_finish = now;
                for m in &members {
                    let (prefer, other) = if m.decline {
                        (m.secondary, m.primary)
                    } else {
                        (m.primary, m.secondary)
                    };
                    match eng.place(prefer, other, now) {
                        Some(t) => max_finish = max_finish.max(eng.submit_sub(m, t, now, now)),
                        // Both replicas down: the member waits for a
                        // backoff retry; its request stays open.
                        None => deferred.push(*m),
                    }
                }
                if deferred.is_empty() {
                    eng.result.requests.record(max_finish - now);
                } else {
                    let slot = eng.open.len();
                    eng.open.push(OpenRequest {
                        arrival_us: now,
                        outstanding: deferred.len() as u32,
                        max_finish,
                    });
                    for sub in deferred.drain(..) {
                        let unplaced = WideRetry {
                            sub,
                            arrival_us: now,
                            slot,
                            attempt: 0,
                        };
                        eng.back_off(unplaced, now);
                    }
                }
            }
        }
    }
    // Resolve deferred retries beyond the last arrival so every sub-read
    // and end-user request is accounted exactly once.
    eng.drain(u64::MAX);
    eng.result
}

/// One placed sub-read of an end-user request, pending admission.
#[derive(Debug, Clone, Copy)]
struct SubRead {
    primary: usize,
    secondary: usize,
    size: u32,
    offset: u64,
    /// `true` = send to the secondary (random coin or admission decline).
    decline: bool,
}

/// Deferred sub-read completion payload for the new engine; the OSD is the
/// queue it waits on and ordering lives in the [`EventQueue`] keys.
#[derive(Debug, Clone, Copy)]
struct WideCompletion {
    queue_len: u32,
    latency_us: u64,
    size: u32,
}

/// A sub-read waiting out a whole-pair outage on the backoff queue.
#[derive(Debug, Clone, Copy)]
struct WideRetry {
    sub: SubRead,
    /// Original end-user arrival; the recorded latency spans the full wait.
    arrival_us: u64,
    /// Index of the open end-user request this member belongs to.
    slot: usize,
    /// Attempts that found both replicas down so far (0 = the arrival).
    attempt: u32,
}

/// An end-user request that had to defer members: it is recorded when the
/// last of them resolves.
#[derive(Debug, Clone, Copy)]
struct OpenRequest {
    arrival_us: u64,
    outstanding: u32,
    max_finish: u64,
}

/// One OSD's Heimdall admission state. Only this OSD's decisions read it,
/// so its completions wait on `pending` until the next decision applies
/// those due by then.
struct OsdAdmission {
    admitter: OnlineAdmitter,
    /// Completions not yet fed to `admitter`, keyed by finish time.
    pending: EventQueue<WideCompletion>,
    /// Consecutive declines since the last completion fed.
    declines: u32,
}

impl OsdAdmission {
    /// Applies the completions due at or before `now`, in (finish, push)
    /// order; fresh evidence ends the decline streak.
    fn feed(&mut self, now: u64) {
        while self.pending.next_at().is_some_and(|at| at <= now) {
            let (_, c) = self.pending.pop().expect("peeked");
            self.admitter
                .on_completion(c.latency_us, c.queue_len, c.size);
            self.declines = 0;
        }
    }

    /// Decides a `size`-byte sub-read arriving at `now` on an OSD holding
    /// `queue_len` requests: `true` = decline. The model's "slow" verdict
    /// declines unless the streak has reached [`PROBE_AFTER`], which forces
    /// a probe admit.
    fn decide(&mut self, queue_len: u32, size: u32, now: u64) -> bool {
        self.feed(now);
        if !self.admitter.decide(queue_len, size) || self.declines >= PROBE_AFTER {
            self.declines = 0;
            false
        } else {
            self.declines += 1;
            true
        }
    }
}

/// One wide-scale run in flight. A sub-read reaches an OSD the same way
/// whether it is arriving or retrying after a backoff: [`WideEngine::place`]
/// picks the live member of its replica pair, [`WideEngine::submit_sub`]
/// hands it over and queues its completion for the OSD's admitter.
struct WideEngine {
    osds: Vec<SsdDevice>,
    /// Per-OSD admission state (Heimdall only). Completions exist only to
    /// feed it, so without it none is queued and submissions skip
    /// queue-length tracking (nothing ever observes it).
    admission: Option<Vec<OsdAdmission>>,
    // Degraded-mode bookkeeping: sub-reads that found both replicas inside
    // a fail-stop outage wait on `retryq` for a backoff retry, and their
    // end-user request stays in `open` until the last deferred member
    // resolves. All of it stays empty (and costs one peek per arrival) on
    // fault-free runs.
    retryq: EventQueue<WideRetry>,
    open: Vec<OpenRequest>,
    result: WideResult,
    next_id: u64,
}

impl WideEngine {
    /// The OSD a sub-read preferring `prefer` goes to at `at`: `prefer`
    /// unless it is inside a fail-stop outage, else `other` (the second
    /// member of its replica pair, one `reroutes_on_fault`), else none.
    fn place(&mut self, prefer: usize, other: usize, at: u64) -> Option<usize> {
        if self.osds[prefer].is_available(at) {
            Some(prefer)
        } else if self.osds[other].is_available(at) {
            self.result.reroutes_on_fault += 1;
            Some(other)
        } else {
            None
        }
    }

    /// Submits sub-read `m`, part of an end-user request that arrived at
    /// `arrival_us`, to live OSD `target` at `at`; returns its finish time.
    fn submit_sub(&mut self, m: &SubRead, target: usize, arrival_us: u64, at: u64) -> u64 {
        let req = IoRequest {
            id: self.next_id,
            arrival_us: at,
            offset: m.offset,
            size: m.size,
            op: IoOp::Read,
        };
        self.next_id += 1;
        if target != m.primary {
            self.result.rerouted += 1;
        }
        let done = match self.admission.as_mut() {
            Some(adm) => {
                let done = self.osds[target].submit(&req, at);
                adm[target].pending.push(
                    done.finish_us,
                    WideCompletion {
                        queue_len: done.queue_len,
                        latency_us: done.latency_us,
                        size: m.size,
                    },
                );
                done
            }
            None => self.osds[target].submit_untracked(&req, at),
        };
        // Latency spans the full wait since the end-user arrival.
        self.result.sub_reads.record(done.finish_us - arrival_us);
        done.finish_us
    }

    /// A member found both replicas down at `at`: schedule its next attempt,
    /// or give up once the backoff budget is spent, recording the wait so
    /// the sub-read and its request stay accounted.
    fn back_off(&mut self, r: WideRetry, at: u64) {
        match retry_delay_us(r.attempt) {
            Some(delay) => {
                self.result.retries += 1;
                self.retryq.push(
                    at + delay,
                    WideRetry {
                        attempt: r.attempt + 1,
                        ..r
                    },
                );
            }
            None => {
                self.result.sub_reads.record(at - r.arrival_us);
                self.close_member(r.slot, at);
            }
        }
    }

    /// Closes one deferred member of an open request, recording the request
    /// latency once the last member resolves.
    fn close_member(&mut self, slot: usize, finish_us: u64) {
        let o = &mut self.open[slot];
        o.max_finish = o.max_finish.max(finish_us);
        o.outstanding -= 1;
        if o.outstanding == 0 {
            self.result.requests.record(o.max_finish - o.arrival_us);
        }
    }

    /// Fires the backoff retries due at or before `now`, in time order.
    /// Retries never consult an admitter, so completions wait for their
    /// OSD's next decision ([`OsdAdmission::feed`]).
    fn drain(&mut self, now: u64) {
        while let Some(at) = self.retryq.next_at().filter(|&at| at <= now) {
            let (_, r) = self.retryq.pop().expect("peeked");
            // A retry forgets the arrival's decline: primary first.
            match self.place(r.sub.primary, r.sub.secondary, at) {
                Some(t) => {
                    let finish = self.submit_sub(&r.sub, t, r.arrival_us, at);
                    self.close_member(r.slot, finish);
                }
                None => self.back_off(r, at),
            }
        }
    }
}

/// One deferred sub-read completion, ordered by finish time then sequence
/// (reference engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompletionEvent {
    finish_us: u64,
    seq: u64,
    osd: usize,
    queue_len: u32,
    latency_us: u64,
    size: u32,
}

impl PartialOrd for CompletionEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompletionEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finish_us, self.seq).cmp(&(other.finish_us, other.seq))
    }
}

/// Delivers all completions with `finish <= now` to the admitters and
/// clears the probe streak of OSDs that produced fresh evidence
/// (reference engine).
fn deliver_completions(
    pending: &mut BinaryHeap<Reverse<CompletionEvent>>,
    now: u64,
    admitters: &mut Option<Vec<OnlineAdmitter>>,
    declines: &mut [u32],
) {
    while let Some(&Reverse(ev)) = pending.peek() {
        if ev.finish_us > now {
            break;
        }
        pending.pop();
        if let Some(adm) = admitters.as_mut() {
            adm[ev.osd].on_completion(ev.latency_us, ev.queue_len, ev.size);
            declines[ev.osd] = 0;
        }
    }
}

/// The seed wide-scale engine (`BinaryHeap` completions scheduled for every
/// policy), kept verbatim as the differential-testing reference for
/// [`run_wide`]. Same inputs, byte-identical results.
///
/// # Panics
///
/// Panics under the same conditions as [`run_wide`].
pub fn run_wide_reference(cfg: &WideConfig, policy: WidePolicy) -> WideResult {
    assert!(
        cfg.nodes > 0 && cfg.osds_per_node > 0,
        "cluster must have OSDs"
    );
    assert!(
        cfg.clients > 0 && cfg.scaling_factor > 0,
        "degenerate client config"
    );
    let n_osds = cfg.osds();
    assert!(n_osds >= 2, "need at least two OSDs for replication");
    if let WidePolicy::Heimdall(models) = &policy {
        assert_eq!(models.len(), n_osds, "one model per OSD required");
    }

    let mut rng = Rng64::new(cfg.seed ^ 0x7769_6465);
    let mut osds: Vec<SsdDevice> = (0..n_osds)
        .map(|i| SsdDevice::new(cfg.device.clone(), cfg.seed + i as u64))
        .collect();
    let mut admitters: Option<Vec<OnlineAdmitter>> = match &policy {
        WidePolicy::Heimdall(models) => {
            Some(models.iter().cloned().map(OnlineAdmitter::new).collect())
        }
        _ => None,
    };
    let mut declines = vec![0u32; n_osds];

    let arrivals = build_arrivals(cfg, &mut rng);

    // Deferred admitter completion notifications, honoring causality.
    let mut pending: BinaryHeap<Reverse<CompletionEvent>> = BinaryHeap::new();
    let mut seq = 0u64;

    let mut result = WideResult {
        policy: policy.name().to_string(),
        requests: LatencyRecorder::new(),
        sub_reads: LatencyRecorder::new(),
        rerouted: 0,
        reroutes_on_fault: 0,
        retries: 0,
    };
    let mut next_id = 0u64;
    let sub_sizes = [PAGE_SIZE, 16 * 1024, 64 * 1024, 256 * 1024];
    let mut members: Vec<SubRead> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut sizes: Vec<u32> = Vec::new();
    let mut raws: Vec<bool> = Vec::new();

    for (now, source, idx) in arrivals {
        deliver_completions(&mut pending, now, &mut admitters, &mut declines);

        match source {
            Source::Noise => {
                let node = (idx + (now / 5_000_000) as usize) % cfg.nodes;
                let osd = node * cfg.osds_per_node + (next_id as usize % cfg.osds_per_node);
                let req = IoRequest {
                    id: next_id,
                    arrival_us: now,
                    offset: (next_id % 4096) * cfg.noise_size as u64,
                    size: cfg.noise_size,
                    op: IoOp::Write,
                };
                next_id += 1;
                osds[osd].submit(&req, now);
            }
            Source::Client => {
                let sf = cfg.scaling_factor;
                members.clear();
                for _ in 0..sf {
                    let object = rng.next_u64();
                    let primary = (object % n_osds as u64) as usize;
                    let secondary = (primary + n_osds / 2) % n_osds;
                    let size = sub_sizes[(object >> 32) as usize % sub_sizes.len()];
                    let coin = matches!(policy, WidePolicy::Random) && !rng.chance(0.5);
                    members.push(SubRead {
                        primary,
                        secondary,
                        size,
                        offset: object % (1 << 36),
                        decline: coin,
                    });
                }
                if let WidePolicy::Heimdall(_) = &policy {
                    let adm = admitters.as_mut().expect("heimdall admitters");
                    order.clear();
                    order.extend(0..sf);
                    order.sort_by_key(|&i| members[i].primary);
                    let mut k = 0;
                    while k < order.len() {
                        let osd = members[order[k]].primary;
                        let j = k + order[k..]
                            .iter()
                            .take_while(|&&i| members[i].primary == osd)
                            .count();
                        sizes.clear();
                        sizes.extend(order[k..j].iter().map(|&i| members[i].size));
                        raws.clear();
                        let qlen = osds[osd].queue_len(now);
                        adm[osd].decide_members(qlen, &sizes, &mut raws);
                        for (&i, &raw) in order[k..j].iter().zip(&raws) {
                            members[i].decline = raw;
                        }
                        k = j;
                    }
                    for m in members.iter_mut() {
                        if !m.decline || declines[m.primary] >= PROBE_AFTER {
                            declines[m.primary] = 0;
                            m.decline = false;
                        } else {
                            declines[m.primary] += 1;
                        }
                    }
                }
                let mut max_finish = now;
                for m in &members {
                    let target = if m.decline { m.secondary } else { m.primary };
                    let req = IoRequest {
                        id: next_id,
                        arrival_us: now,
                        offset: m.offset,
                        size: m.size,
                        op: IoOp::Read,
                    };
                    next_id += 1;
                    if target != m.primary {
                        result.rerouted += 1;
                    }
                    let done = osds[target].submit(&req, now);
                    result.sub_reads.record(done.latency_us);
                    max_finish = max_finish.max(done.finish_us);
                    pending.push(Reverse(CompletionEvent {
                        finish_us: done.finish_us,
                        seq,
                        osd: target,
                        queue_len: done.queue_len,
                        latency_us: done.latency_us,
                        size: m.size,
                    }));
                    seq += 1;
                }
                result.requests.record(max_finish - now);
            }
        }
    }
    WideResult { ..result }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> WideConfig {
        WideConfig {
            nodes: 4,
            clients: 4,
            client_rate: 200.0,
            duration_us: 3_000_000,
            noise_injectors: 2,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_runs_and_records() {
        let cfg = quick_cfg();
        let res = run_wide(&cfg, WidePolicy::Baseline);
        assert!(!res.requests.is_empty());
        assert_eq!(res.rerouted, 0);
    }

    #[test]
    fn random_reroutes_about_half() {
        let cfg = quick_cfg();
        let res = run_wide(&cfg, WidePolicy::Random);
        let frac = res.rerouted as f64 / res.sub_reads.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "reroute fraction {frac}");
    }

    #[test]
    fn scaling_factor_multiplies_sub_reads() {
        let mut cfg = quick_cfg();
        cfg.scaling_factor = 5;
        let res = run_wide(&cfg, WidePolicy::Baseline);
        assert_eq!(res.sub_reads.len(), res.requests.len() * 5);
    }

    #[test]
    fn request_latency_is_max_of_subreads() {
        let mut cfg = quick_cfg();
        cfg.scaling_factor = 10;
        let res = run_wide(&cfg, WidePolicy::Baseline);
        // The request p50 must dominate the sub-read p50 (max over 10).
        assert!(res.requests.percentile(50.0) >= res.sub_reads.percentile(50.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg();
        let a = run_wide(&cfg, WidePolicy::Random);
        let b = run_wide(&cfg, WidePolicy::Random);
        assert_eq!(a.requests.samples(), b.requests.samples());
    }

    #[test]
    #[should_panic(expected = "one model per OSD")]
    fn heimdall_model_count_checked() {
        run_wide(&quick_cfg(), WidePolicy::Heimdall(vec![]));
    }

    #[test]
    #[should_panic(expected = "run_wide needs per-I/O models")]
    fn heimdall_joint_models_rejected() {
        let cfg = quick_cfg();
        let mut pcfg = heimdall_core::pipeline::PipelineConfig::heimdall();
        pcfg.joint = 4;
        let models = vec![heimdall_core::pipeline::Trained::always_admit(&pcfg); cfg.osds()];
        run_wide(&cfg, WidePolicy::Heimdall(models));
    }

    #[test]
    fn heimdall_policy_runs_wide_scale() {
        let cfg = quick_cfg();
        // Always-admit models exercise the full per-OSD admitter path
        // (history updates, decisions) without a training dependency.
        let pcfg = heimdall_core::pipeline::PipelineConfig::heimdall();
        let models = vec![heimdall_core::pipeline::Trained::always_admit(&pcfg); cfg.osds()];
        let res = run_wide(&cfg, WidePolicy::Heimdall(models));
        assert!(!res.requests.is_empty());
        // Always-admit never reroutes.
        assert_eq!(res.rerouted, 0);
    }

    #[test]
    fn heimdall_grouped_admission_is_deterministic() {
        // SF > 1 puts several members on one OSD per request, each
        // decided after the one before; two runs must agree sample for
        // sample.
        let mut cfg = quick_cfg();
        cfg.scaling_factor = 6;
        let pcfg = heimdall_core::pipeline::PipelineConfig::heimdall();
        let models = vec![heimdall_core::pipeline::Trained::always_admit(&pcfg); cfg.osds()];
        let a = run_wide(&cfg, WidePolicy::Heimdall(models.clone()));
        let b = run_wide(&cfg, WidePolicy::Heimdall(models));
        assert_eq!(a.requests.samples(), b.requests.samples());
        assert_eq!(a.sub_reads.samples(), b.sub_reads.samples());
        assert_eq!(a.rerouted, 0, "always-admit never reroutes");
    }

    #[test]
    fn random_rng_stream_unchanged_by_grouping() {
        // The placement loop draws the balancer coin inline with the object
        // draw; the baseline (which draws no coins) must still see the same
        // object placements — total sub-read counts agree.
        let cfg = quick_cfg();
        let a = run_wide(&cfg, WidePolicy::Baseline);
        let b = run_wide(&cfg, WidePolicy::Random);
        assert_eq!(a.sub_reads.len(), b.sub_reads.len());
    }

    #[test]
    fn noise_injectors_degrade_baseline() {
        let calm = WideConfig {
            noise_injectors: 0,
            ..quick_cfg()
        };
        let noisy = WideConfig {
            noise_injectors: 6,
            noise_rate: 4_000.0,
            ..quick_cfg()
        };
        let a = run_wide(&calm, WidePolicy::Baseline);
        let b = run_wide(&noisy, WidePolicy::Baseline);
        assert!(
            b.requests.percentile(99.0) >= a.requests.percentile(99.0),
            "noise should not reduce tail latency"
        );
    }

    #[test]
    fn fail_stop_outage_reroutes_and_accounts_every_request() {
        let mut cfg = quick_cfg();
        cfg.scaling_factor = 3;
        // OSD 0 is dark for the middle of the run; its secondary peer
        // (osds/2) stays healthy, so members reroute rather than retry.
        cfg.fault_plans = vec![FaultPlan::fail_stop(500_000, 2_500_000)];
        let res = run_wide(&cfg, WidePolicy::Baseline);
        let healthy = run_wide(
            &WideConfig {
                fault_plans: Vec::new(),
                ..cfg.clone()
            },
            WidePolicy::Baseline,
        );
        assert!(res.reroutes_on_fault > 0, "outage must force reroutes");
        assert_eq!(res.rerouted, res.reroutes_on_fault);
        // Every end-user request and sub-read is still accounted.
        assert_eq!(res.requests.len(), healthy.requests.len());
        assert_eq!(res.sub_reads.len(), healthy.sub_reads.len());
    }

    #[test]
    fn whole_pair_outage_backs_off_and_drains() {
        let mut cfg = quick_cfg();
        cfg.duration_us = 1_500_000;
        // Take down a full primary/secondary pair (0 and osds/2) so their
        // members must wait on the backoff queue until the windows lift.
        let n = cfg.osds();
        let mut plans = vec![FaultPlan::none(); n];
        plans[0] = FaultPlan::fail_stop(200_000, 900_000);
        plans[n / 2] = FaultPlan::fail_stop(200_000, 900_000);
        cfg.fault_plans = plans;
        let res = run_wide(&cfg, WidePolicy::Baseline);
        let healthy = run_wide(
            &WideConfig {
                fault_plans: Vec::new(),
                ..cfg.clone()
            },
            WidePolicy::Baseline,
        );
        assert!(res.retries > 0, "pair outage must defer members");
        // The final drain resolves every deferred member: counts match.
        assert_eq!(res.requests.len(), healthy.requests.len());
        assert_eq!(res.sub_reads.len(), healthy.sub_reads.len());
    }

    #[test]
    fn inactive_fault_plans_keep_byte_identity() {
        let mut cfg = quick_cfg();
        cfg.scaling_factor = 4;
        let base = run_wide(&cfg, WidePolicy::Random);
        // A plan whose windows never overlap the run must not perturb
        // anything — same rng stream, same samples, zero fault counters.
        cfg.fault_plans = vec![FaultPlan::fail_stop(u64::MAX - 1, u64::MAX)];
        let planned = run_wide(&cfg, WidePolicy::Random);
        assert_eq!(base.requests.samples(), planned.requests.samples());
        assert_eq!(base.sub_reads.samples(), planned.sub_reads.samples());
        assert_eq!(planned.reroutes_on_fault, 0);
        assert_eq!(planned.retries, 0);
    }

    #[test]
    fn new_engine_matches_reference_engine() {
        let mut cfg = quick_cfg();
        cfg.scaling_factor = 4;
        let pcfg = heimdall_core::pipeline::PipelineConfig::heimdall();
        let models = vec![heimdall_core::pipeline::Trained::always_admit(&pcfg); cfg.osds()];
        let pairs: [(WidePolicy, WidePolicy); 3] = [
            (WidePolicy::Baseline, WidePolicy::Baseline),
            (WidePolicy::Random, WidePolicy::Random),
            (
                WidePolicy::Heimdall(models.clone()),
                WidePolicy::Heimdall(models),
            ),
        ];
        for (new_p, ref_p) in pairs {
            let new = run_wide(&cfg, new_p);
            let reference = run_wide_reference(&cfg, ref_p);
            assert_eq!(new.policy, reference.policy);
            assert_eq!(new.requests.samples(), reference.requests.samples());
            assert_eq!(new.sub_reads.samples(), reference.sub_reads.samples());
            assert_eq!(new.rerouted, reference.rerouted);
        }
    }
}

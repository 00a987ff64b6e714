//! Fault-injection and graceful-degradation integration tests.
//!
//! These hold the contract of the fault layer end to end: the degradation
//! wrapper is provably invisible on healthy streams (bitwise-identical to
//! the bare ML policy), beats the bare policy under a sustained fail-slow
//! fault, and every read stays accounted exactly once through outages,
//! reroutes, and backoff retries. The fault sweep itself must render
//! byte-identically for any worker count, like every other sweep.

use heimdall_bench::{fault_sweep, light_heavy_pair, FaultScenario};
use heimdall_cluster::replayer::{merge_homed, HomedRequest, ReplayResult};
use heimdall_cluster::{run_wide, WideConfig, WidePolicy};
use heimdall_core::collect::collect_batch;
use heimdall_core::pipeline::{run_batch, PipelineConfig};
use heimdall_integration::gen::{
    contention_trace, homed_traces, light_heavy_experiment as experiment,
    replay_with_plans as replay,
};
use heimdall_metrics::LatencyRecorder;
use heimdall_policies::{
    Baseline, DeviceView, FallbackPolicy, Hedging, HeimdallPolicy, Policy, RandomSelect, Route, C3,
};
use heimdall_ssd::{DeviceConfig, FaultPlan, SsdDevice};
use heimdall_trace::{IoOp, IoRequest, Trace};

/// The wrapper's do-no-harm guarantee: on a healthy stream it must be
/// bitwise-identical to the bare ML policy — same samples in the same
/// order, same per-device accounting, zero degradation activity.
#[test]
fn fallback_is_invisible_on_healthy_streams() {
    // Seeds 2 and 5 regress the pre-duration-floor false alarms: their
    // healthy GC drains once read as latency collapse.
    for seed in [2u64, 5, 11] {
        let (requests, cfgs, models) = experiment(seed, 8);
        let mut plain = HeimdallPolicy::new(models.clone());
        let bare = replay(&requests, &cfgs, &[], seed, &mut plain);
        let mut wrapped =
            FallbackPolicy::new(Box::new(HeimdallPolicy::new(models)), Box::new(C3::new()));
        let fb = replay(&requests, &cfgs, &[], seed, &mut wrapped);
        assert_eq!(
            bare.reads.samples(),
            fb.reads.samples(),
            "seed {seed}: healthy replay must be bitwise-identical"
        );
        assert_eq!(bare.per_device, fb.per_device, "seed {seed}");
        assert_eq!(bare.rerouted, fb.rerouted, "seed {seed}");
        assert_eq!(fb.fallback_decisions, 0, "seed {seed}: no degradation");
        assert_eq!(fb.reroutes_on_fault, 0, "seed {seed}: no fault handling");
        assert_eq!(wrapped.degradations(), 0, "seed {seed}");
    }
}

/// The headline robustness claim: under a sustained fail-slow fault on the
/// heavy home device, the degradation wrapper beats the bare ML policy on
/// tail latency, and does it through actual fallback decisions.
#[test]
fn fallback_beats_plain_ml_under_sustained_fail_slow() {
    let seed = 11u64;
    let secs = 10u64;
    let (requests, cfgs, models) = experiment(seed, secs);
    let plans = FaultScenario::FailSlow.plans(secs * 1_000_000);
    let mut plain = HeimdallPolicy::new(models.clone());
    let bare = replay(&requests, &cfgs, &plans, seed, &mut plain);
    let mut wrapped =
        FallbackPolicy::new(Box::new(HeimdallPolicy::new(models)), Box::new(C3::new()));
    let fb = replay(&requests, &cfgs, &plans, seed, &mut wrapped);
    assert!(
        fb.reads.percentile(95.0) < bare.reads.percentile(95.0),
        "wrapper p95 {} must beat bare ML p95 {}",
        fb.reads.percentile(95.0),
        bare.reads.percentile(95.0)
    );
    assert!(
        fb.reads.percentile(99.0) < bare.reads.percentile(99.0),
        "wrapper p99 {} must beat bare ML p99 {}",
        fb.reads.percentile(99.0),
        bare.reads.percentile(99.0)
    );
    assert!(
        fb.fallback_decisions > 0,
        "degradation must actually engage"
    );
    assert!(wrapped.degradations() > 0);
    assert_eq!(
        fb.reads.len(),
        bare.reads.len(),
        "every read accounted under the fault"
    );
}

/// A fail-stop outage on one replica: declined-or-failed reads reroute to
/// the live replica, every read is still accounted exactly once, and the
/// engine-level fault counters disaggregate from policy-level reroutes.
#[test]
fn outage_reroutes_and_accounts_every_read() {
    let (heavy, light) = light_heavy_pair(9, 8);
    let requests = merge_homed(&[&heavy, &light]);
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];
    let plans = vec![FaultPlan::fail_stop(2_000_000, 6_000_000)];
    let mut healthy_policy = Baseline;
    let healthy = replay(&requests, &cfgs, &[], 9, &mut healthy_policy);
    let mut faulted_policy = Baseline;
    let faulted = replay(&requests, &cfgs, &plans, 9, &mut faulted_policy);
    assert!(faulted.reroutes_on_fault > 0, "outage must force reroutes");
    assert!(faulted.per_device[0].fault_rerouted_away > 0);
    assert_eq!(
        faulted.reads.len(),
        healthy.reads.len(),
        "every read accounted exactly once through the outage"
    );
    // Baseline never reroutes on its own; all reroutes are fault-driven.
    assert_eq!(faulted.rerouted, 0, "policy-level reroutes stay clean");
}

/// When every replica is down, reads wait on capped exponential backoff in
/// simulated time; whether they resolve after the outage lifts or exhaust
/// the retry budget, every one still lands in the recorder exactly once.
#[test]
fn total_outage_backs_off_and_resolves() {
    let (heavy, light) = light_heavy_pair(13, 8);
    let requests = merge_homed(&[&heavy, &light]);
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];
    let plans = vec![
        FaultPlan::fail_stop(2_000_000, 4_000_000),
        FaultPlan::fail_stop(2_000_000, 4_000_000),
    ];
    let mut healthy_policy = Baseline;
    let healthy = replay(&requests, &cfgs, &[], 13, &mut healthy_policy);
    let mut faulted_policy = Baseline;
    let faulted = replay(&requests, &cfgs, &plans, 13, &mut faulted_policy);
    assert!(faulted.retries > 0, "whole-cluster outage must defer reads");
    assert_eq!(
        faulted.reads.len(),
        healthy.reads.len(),
        "deferred reads are accounted whether retried or abandoned"
    );
    // The waits span the outage, so the tail must reflect it.
    assert!(faulted.reads.max() >= healthy.reads.max());
}

/// Fault replays are deterministic: identical runs, identical samples.
#[test]
fn fault_replay_is_deterministic() {
    let (heavy, light) = light_heavy_pair(17, 6);
    let requests = merge_homed(&[&heavy, &light]);
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];
    let plans = FaultScenario::FailSlow.plans(6_000_000);
    let mut pa = Baseline;
    let a = replay(&requests, &cfgs, &plans, 17, &mut pa);
    let mut pb = Baseline;
    let b = replay(&requests, &cfgs, &plans, 17, &mut pb);
    assert_eq!(a.reads.samples(), b.reads.samples());
    assert_eq!(a.per_device, b.per_device);
    assert_eq!(a.reroutes_on_fault, b.reroutes_on_fault);
}

/// The fault sweep obeys the repo's sweep contract: table and run records
/// byte-identical for any worker count.
#[test]
fn fault_sweep_is_byte_identical_across_worker_counts() {
    let seeds = [21u64, 22];
    let (t1, r1) = fault_sweep(&seeds, 6, 1);
    let (t8, r8) = fault_sweep(&seeds, 6, 8);
    assert_eq!(t1, t8, "table must not depend on --jobs");
    assert_eq!(
        r1.to_string(),
        r8.to_string(),
        "runs must not depend on --jobs"
    );
}

/// Empty and degenerate replays stay well-formed end to end: a zero-read
/// stream produces an empty recorder whose summary statistics are all
/// defined (the drift-sketch class of bug, held shut at the replay layer).
#[test]
fn empty_trace_replay_is_well_formed() {
    let cfgs = vec![
        DeviceConfig::datacenter_nvme(),
        DeviceConfig::datacenter_nvme(),
    ];
    // No requests at all.
    let mut p = Baseline;
    let empty = replay(&[], &cfgs, &[], 23, &mut p);
    assert!(empty.reads.is_empty());
    assert_eq!(empty.writes, 0);
    assert_eq!(empty.reroutes_on_fault, 0);
    // Write-only stream: reads recorder stays empty, writes land.
    let writes: Vec<HomedRequest> = (0..32)
        .map(|i| HomedRequest {
            req: heimdall_trace::IoRequest {
                id: i,
                arrival_us: i * 500,
                offset: i * 4096,
                size: heimdall_trace::PAGE_SIZE,
                op: heimdall_trace::IoOp::Write,
            },
            home: 0,
        })
        .collect();
    let mut p = Baseline;
    let wr = replay(&writes, &cfgs, &[], 23, &mut p);
    assert!(wr.reads.is_empty());
    assert_eq!(wr.writes, 32);
    assert_eq!(wr.mean_latency(), 0.0);
}

/// Empty-recorder regression (the satellite to the drift-sketch fix): all
/// summary statistics of an empty [`LatencyRecorder`] are defined.
#[test]
fn empty_latency_recorder_statistics_are_defined() {
    let r = LatencyRecorder::new();
    assert!(r.is_empty());
    assert_eq!(r.mean(), 0.0);
    assert_eq!(r.percentile(50.0), 0);
    assert_eq!(r.percentile(99.9), 0);
    assert_eq!(r.max(), 0);
    assert_eq!(r.cdf_at(100), 0.0);
    assert!(r.paper_row().iter().all(|&(_, v)| v == 0));
}

/// [`Hedging`] that logs every submission the engine reports.
struct SubmitLog {
    inner: Hedging,
    /// `(device, request id)` per `on_submit`.
    submits: Vec<(usize, u64)>,
}

impl Policy for SubmitLog {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        self.inner.route_read(req, now, views, home)
    }

    fn on_submit(&mut self, dev: usize, req: &IoRequest, _now: u64) {
        self.submits.push((dev, req.id));
    }
}

/// A hedge duplicate never lands on the device its primary is queued on.
/// With the only other replica fail-stopped for the whole run there is
/// nowhere to hedge to: every read completes on its primary alone, and the
/// dead backup is charged the reroute it could not serve.
#[test]
fn hedge_never_duplicates_onto_the_primarys_device() {
    let requests: Vec<HomedRequest> = (0..400)
        .map(|i| HomedRequest {
            req: IoRequest {
                id: i,
                arrival_us: i * 100,
                offset: i << 20,
                size: 1 << 20,
                op: IoOp::Read,
            },
            home: 0,
        })
        .collect();
    let cfgs = vec![DeviceConfig::datacenter_nvme(); 2];
    let plans = vec![FaultPlan::none(), FaultPlan::fail_stop(0, 1 << 40)];
    let mut policy = SubmitLog {
        inner: Hedging::new(50),
        submits: Vec::new(),
    };
    let r = replay(&requests, &cfgs, &plans, 3, &mut policy);
    let mut seen = policy.submits.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        policy.submits.len(),
        "a request was submitted twice to one device"
    );
    assert_eq!(policy.submits.len(), 400);
    assert_eq!(r.hedges_fired, 0);
    assert_eq!(r.reads.len(), 400);
    assert_eq!(r.reroutes_on_fault, 0);
    assert_eq!(
        r.per_device[1].fault_rerouted_away, 400,
        "every 1 MB read outlives the 50 us deadline and finds its backup dead"
    );
}

// ---------------------------------------------------------------------
// Characterization matrix. Neither reference engine knows the fault layer,
// so nothing differential holds the engines' fault paths (reroute on a dead
// replica, hedge substitution, backoff retry, abandonment) byte for byte.
// These rows do: every policy shape the engines route (plain, random,
// hedged, ML) under every fault shape, pinned as literals. A row that moves
// is a behaviour change and is explained in the commit that moves it; to
// re-capture after a deliberate one, run the test and copy the table it
// prints on mismatch.
// ---------------------------------------------------------------------

/// Order-sensitive FNV-1a over a sample stream.
fn sample_hash(samples: &[u64]) -> u64 {
    samples
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Sample-stream hash, every scalar counter and every lane of one replay.
/// Lanes read admits/rerouted_away/declines/probe_admits/hedge_backups/
/// writes/fault_rerouted_away.
fn homed_fingerprint(r: &ReplayResult) -> String {
    let lanes: Vec<String> = r
        .per_device
        .iter()
        .map(|l| {
            format!(
                "{}/{}/{}/{}/{}/{}/{}",
                l.admits,
                l.rerouted_away,
                l.declines,
                l.probe_admits,
                l.hedge_backups,
                l.writes,
                l.fault_rerouted_away
            )
        })
        .collect();
    format!(
        "{:016x} reads={} writes={} rerouted={} hedges={} inferences={} on_fault={} retries={} fallback={} [{}]",
        sample_hash(r.reads.samples()),
        r.reads.len(),
        r.writes,
        r.rerouted,
        r.hedges_fired,
        r.inferences,
        r.reroutes_on_fault,
        r.retries,
        r.fallback_decisions,
        lanes.join(" ")
    )
}

/// Fails with the full re-captured table when any row moved.
fn assert_pinned(what: &str, got: &[String], pinned: &[&str]) {
    if got != pinned {
        let table: String = got.iter().map(|r| format!("    \"{r}\",\n")).collect();
        let moved = got
            .iter()
            .zip(pinned)
            .filter(|(g, p)| g.as_str() != **p)
            .count()
            + got.len().abs_diff(pinned.len());
        panic!("{what}: {moved} row(s) moved; re-captured table:\n{table}");
    }
}

const SEC: u64 = 1_000_000;

fn stop(from_us: u64, to_us: u64) -> FaultPlan {
    FaultPlan::fail_stop(from_us, to_us)
}

/// The homed fault shapes, indexed by replica. The two whole-array outages
/// are staggered so a backoff retry homed on replica 0 finds replica 1
/// live first (the retry path's own reroute accounting).
fn homed_fault_plans(secs: u64) -> Vec<(&'static str, Vec<FaultPlan>)> {
    vec![
        ("none", Vec::new()),
        ("stop0", vec![stop(SEC, 3 * SEC)]),
        ("stop1", vec![FaultPlan::none(), stop(SEC, 3 * SEC)]),
        (
            "both-0.1s",
            vec![
                stop(3 * SEC / 2, 3 * SEC / 2 + 150_000),
                stop(3 * SEC / 2, 3 * SEC / 2 + 100_000),
            ],
        ),
        // Longer than the 0.2558 s backoff budget: reads are abandoned.
        (
            "both-0.5s",
            vec![
                stop(3 * SEC / 2, 3 * SEC / 2 + 550_000),
                stop(3 * SEC / 2, 3 * SEC / 2 + 500_000),
            ],
        ),
        ("fail-slow", FaultScenario::FailSlow.plans(secs * SEC)),
        ("stall", FaultScenario::FirmwareStall.plans(secs * SEC)),
    ]
}

#[test]
fn homed_fault_matrix_is_pinned() {
    const SECS: u64 = 4;
    let mut rows = Vec::new();
    for seed in [11u64, 29] {
        let (requests, cfgs, models) = experiment(seed, SECS);
        for (plan_name, plans) in homed_fault_plans(SECS) {
            let policies: [(&str, Box<dyn Policy>); 4] = [
                ("baseline", Box::new(Baseline)),
                ("random", Box::new(RandomSelect::new(seed))),
                // Short enough that hedges fire on most contended reads.
                ("hedging", Box::new(Hedging::new(300))),
                ("heimdall", Box::new(HeimdallPolicy::new(models.clone()))),
            ];
            for (policy_name, mut policy) in policies {
                let r = replay(&requests, &cfgs, &plans, seed, policy.as_mut());
                rows.push(format!(
                    "seed {seed} {plan_name} {policy_name}: {}",
                    homed_fingerprint(&r)
                ));
            }
        }
    }
    // Three replicas, two of them dark at once: the live-replica scan wraps
    // past the end of the array, and a hedge has a backup that is neither
    // the dead one nor the primary's.
    let traces = homed_traces(7, 3);
    let borrowed: Vec<&Trace> = traces.iter().collect();
    let requests = merge_homed(&borrowed);
    let cfgs = vec![DeviceConfig::datacenter_nvme(); 3];
    let plans = vec![
        stop(SEC, 3 * SEC),
        FaultPlan::none(),
        stop(SEC / 2, 2 * SEC),
    ];
    let policies: [(&str, Box<dyn Policy>); 2] = [
        ("random", Box::new(RandomSelect::new(7))),
        ("hedging", Box::new(Hedging::new(300))),
    ];
    for (policy_name, mut policy) in policies {
        let r = replay(&requests, &cfgs, &plans, 7, policy.as_mut());
        rows.push(format!(
            "3-replica stop0+stop2 {policy_name}: {}",
            homed_fingerprint(&r)
        ));
    }
    assert_pinned("replay_homed", &rows, HOMED_PINNED);
}

#[test]
fn wide_fault_matrix_is_pinned() {
    let base = WideConfig {
        nodes: 4,
        clients: 4,
        client_rate: 200.0,
        duration_us: 2 * SEC,
        noise_injectors: 2,
        scaling_factor: 3,
        seed: 5,
        ..Default::default()
    };
    // One model trained on the OSD device under contention, cloned to every
    // OSD, so the Heimdall rows decline (and reroute) for real.
    let mut device = SsdDevice::new(base.device.clone(), 41);
    let log = collect_batch(&contention_trace(40, 12), &mut device);
    let (model, _) = run_batch(&log, &PipelineConfig::heimdall()).expect("trains");
    let n = base.osds();
    // OSDs 0 and n/2 are each other's replica for every object they hold.
    let pair = |first: FaultPlan, second: FaultPlan| {
        let mut plans = vec![FaultPlan::none(); n];
        plans[0] = first;
        plans[n / 2] = second;
        plans
    };
    let plan_sets = [
        ("one-down", vec![stop(SEC / 2, 3 * SEC / 2)]),
        (
            "pair-brief",
            pair(stop(200_000, 350_000), stop(200_000, 300_000)),
        ),
        // Longer than the backoff budget: members are abandoned.
        (
            "pair-long",
            pair(stop(200_000, 900_000), stop(200_000, 800_000)),
        ),
        (
            "fail-slow",
            vec![FaultPlan::fail_slow(SEC / 2, 3 * SEC / 2, 25.0)],
        ),
    ];
    let mut rows = Vec::new();
    for (plan_name, plans) in plan_sets {
        let cfg = WideConfig {
            fault_plans: plans,
            ..base.clone()
        };
        let policies = [
            WidePolicy::Baseline,
            WidePolicy::Random,
            WidePolicy::Heimdall(vec![model.clone(); n]),
        ];
        for policy in policies {
            let r = run_wide(&cfg, policy);
            rows.push(format!(
                "{plan_name} {}: {:016x} {:016x} requests={} sub_reads={} rerouted={} on_fault={} retries={}",
                r.policy,
                sample_hash(r.requests.samples()),
                sample_hash(r.sub_reads.samples()),
                r.requests.len(),
                r.sub_reads.len(),
                r.rerouted,
                r.reroutes_on_fault,
                r.retries
            ));
        }
    }
    assert_pinned("run_wide", &rows, WIDE_PINNED);
}

const HOMED_PINNED: &[&str] = &[
    "seed 11 none baseline: 1cbf4d5f661d058a reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [15659/0/0/0/0/34729/0 7009/0/0/0/0/34729/0]",
    "seed 11 none random: d36cf22ce3a70927 reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [11431/7730/0/0/0/34729/0 11237/3502/0/0/0/34729/0]",
    "seed 11 none hedging: 84ab5c264c1f570a reads=22668 writes=34729 rerouted=0 hedges=549 inferences=0 on_fault=0 retries=0 fallback=0 [15659/0/0/0/107/34729/0 7009/0/0/0/442/34729/0]",
    "seed 11 none heimdall: f2d62dbe985d4a7d reads=22668 writes=34729 rerouted=386 hedges=0 inferences=22668 on_fault=0 retries=0 fallback=0 [16041/2/2/0/0/34729/0 6627/384/384/23/0/34729/0]",
    "seed 11 stop0 baseline: 0eb5ba98537e3da5 reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=7623 retries=0 fallback=0 [8036/0/0/0/0/17623/7623 14632/0/0/0/0/34729/0]",
    "seed 11 stop0 random: 1c307c5c29e09a0e reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=5557 retries=0 fallback=0 [5874/7730/0/0/0/17623/5557 16794/3502/0/0/0/34729/0]",
    "seed 11 stop0 hedging: be2a8f94f8f624ce reads=22668 writes=34729 rerouted=0 hedges=251 inferences=0 on_fault=7623 retries=0 fallback=0 [8036/0/0/0/30/17623/7910 14632/0/0/0/221/34729/0]",
    "seed 11 stop0 heimdall: 07caf8e153972bbf reads=22668 writes=34729 rerouted=653 hedges=0 inferences=22668 on_fault=7995 retries=0 fallback=0 [8317/0/0/0/0/17623/7995 14351/653/653/20/0/34729/0]",
    "seed 11 stop1 baseline: d3708c2fc640291e reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=3504 retries=0 fallback=0 [19163/0/0/0/0/34729/0 3505/0/0/0/0/17623/3504]",
    "seed 11 stop1 random: 64217751a98fc83e reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=5570 retries=0 fallback=0 [17001/7730/0/0/0/34729/0 5667/3502/0/0/0/17623/5570]",
    "seed 11 stop1 hedging: f71e52806ab3a16d reads=22668 writes=34729 rerouted=0 hedges=326 inferences=0 on_fault=3504 retries=0 fallback=0 [19163/0/0/0/43/34729/0 3505/0/0/0/283/17623/4150]",
    "seed 11 stop1 heimdall: 216ec99272f0dec2 reads=22668 writes=34729 rerouted=306 hedges=0 inferences=22668 on_fault=3504 retries=0 fallback=0 [19469/0/0/0/0/34729/0 3199/306/306/22/0/17623/3504]",
    "seed 11 both-0.1s baseline: 2f0ab661dd5bc47c reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=461 retries=3906 fallback=0 [15198/0/0/0/0/33715/782 7470/0/0/0/0/34067/159]",
    "seed 11 both-0.1s random: 14c8482d04dd1388 reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=409 retries=3906 fallback=0 [11117/7730/0/0/0/33715/635 11551/3502/0/0/0/34067/254]",
    "seed 11 both-0.1s hedging: 372791d47caf6bce reads=22668 writes=34729 rerouted=0 hedges=382 inferences=0 on_fault=461 retries=3906 fallback=0 [15198/0/0/0/111/33715/782 7470/0/0/0/271/34067/159]",
    "seed 11 both-0.1s heimdall: e7239a56899ea960 reads=22668 writes=34729 rerouted=596 hedges=0 inferences=22668 on_fault=498 retries=3906 fallback=0 [15755/1/1/0/0/33715/819 6913/595/595/41/0/34067/159]",
    "seed 11 both-0.5s baseline: 635f96ec282831fa reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=2294 retries=45621 fallback=0 [12601/0/0/0/0/28120/4964 8904/0/0/0/0/28867/857]",
    "seed 11 both-0.5s random: 70b8405d2c03f3de reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=2137 retries=45621 fallback=0 [9495/7730/0/0/0/28120/3842 12010/3502/0/0/0/28867/1822]",
    "seed 11 both-0.5s hedging: 9c9c95f0e1fbfa8f reads=22668 writes=34729 rerouted=0 hedges=352 inferences=0 on_fault=2294 retries=45621 fallback=0 [12601/0/0/0/51/28120/5291 8904/0/0/0/301/28867/857]",
    "seed 11 both-0.5s heimdall: a50035fe13028bd1 reads=22668 writes=34729 rerouted=490 hedges=0 inferences=22668 on_fault=2359 retries=45621 fallback=0 [12758/134/134/6/0/28120/5029 8747/356/356/17/0/28867/857]",
    "seed 11 fail-slow baseline: 8171974a47e93cd0 reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [15659/0/0/0/0/34729/0 7009/0/0/0/0/34729/0]",
    "seed 11 fail-slow random: 9a4bf69726ce85bd reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [11431/7730/0/0/0/34729/0 11237/3502/0/0/0/34729/0]",
    "seed 11 fail-slow hedging: 4516c9b0da455924 reads=22668 writes=34729 rerouted=0 hedges=11017 inferences=0 on_fault=0 retries=0 fallback=0 [15659/0/0/0/155/34729/0 7009/0/0/0/10862/34729/0]",
    "seed 11 fail-slow heimdall: e0f48cdfec4b5418 reads=22668 writes=34729 rerouted=10470 hedges=0 inferences=22668 on_fault=0 retries=0 fallback=0 [6519/9805/9805/811/0/34729/0 16149/665/665/7/0/34729/0]",
    "seed 11 stall baseline: 9c5171a077ae6d88 reads=22668 writes=34729 rerouted=0 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [15659/0/0/0/0/34729/0 7009/0/0/0/0/34729/0]",
    "seed 11 stall random: 8dd041310c4d8867 reads=22668 writes=34729 rerouted=11232 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [11431/7730/0/0/0/34729/0 11237/3502/0/0/0/34729/0]",
    "seed 11 stall hedging: d29512f0e1de7679 reads=22668 writes=34729 rerouted=0 hedges=5953 inferences=0 on_fault=0 retries=0 fallback=0 [15659/0/0/0/139/34729/0 7009/0/0/0/5814/34729/0]",
    "seed 11 stall heimdall: aad382a06308bc12 reads=22668 writes=34729 rerouted=4893 hedges=0 inferences=22668 on_fault=0 retries=0 fallback=0 [11784/4384/4384/505/0/34729/0 10884/509/509/25/0/34729/0]",
    "seed 29 none baseline: 62b30ed48903f882 reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [17494/0/0/0/0/16565/0 10828/0/0/0/0/16565/0]",
    "seed 29 none random: 7a4b39b2e9ee09f0 reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [14058/8824/0/0/0/16565/0 14264/5388/0/0/0/16565/0]",
    "seed 29 none hedging: dfbb34ad2f248adb reads=28322 writes=16565 rerouted=0 hedges=2454 inferences=0 on_fault=0 retries=0 fallback=0 [17494/0/0/0/206/16565/0 10828/0/0/0/2248/16565/0]",
    "seed 29 none heimdall: 98c2782133bcab2b reads=28322 writes=16565 rerouted=1866 hedges=0 inferences=28322 on_fault=0 retries=0 fallback=0 [17154/1103/1103/24/0/16565/0 11168/763/763/35/0/16565/0]",
    "seed 29 stop0 baseline: 835902ddc8ff86b2 reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=6512 retries=0 fallback=0 [10982/0/0/0/0/9472/6512 17340/0/0/0/0/16565/0]",
    "seed 29 stop0 random: ceca7e12d18ca393 reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=6460 retries=0 fallback=0 [7598/8824/0/0/0/9472/6460 20724/5388/0/0/0/16565/0]",
    "seed 29 stop0 hedging: 1f7df01c89d90071 reads=28322 writes=16565 rerouted=0 hedges=1405 inferences=0 on_fault=6512 retries=0 fallback=0 [10982/0/0/0/214/9472/7200 17340/0/0/0/1191/16565/0]",
    "seed 29 stop0 heimdall: 46f85685f6e275e7 reads=28322 writes=16565 rerouted=1142 hedges=0 inferences=28322 on_fault=7174 retries=0 fallback=0 [11078/192/192/7/0/9472/7174 17244/950/950/18/0/16565/0]",
    "seed 29 stop1 baseline: 9c82cbfb63988a33 reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=6479 retries=0 fallback=0 [23973/0/0/0/0/16565/0 4349/0/0/0/0/9472/6479]",
    "seed 29 stop1 random: 02d61d0d9da90a10 reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=6531 retries=0 fallback=0 [20589/8824/0/0/0/16565/0 7733/5388/0/0/0/9472/6531]",
    "seed 29 stop1 hedging: 537e78267d6751fe reads=28322 writes=16565 rerouted=0 hedges=1956 inferences=0 on_fault=6479 retries=0 fallback=0 [23973/0/0/0/200/16565/0 4349/0/0/0/1756/9472/8968]",
    "seed 29 stop1 heimdall: f3af417073eef111 reads=28322 writes=16565 rerouted=1473 hedges=0 inferences=28322 on_fault=7219 retries=0 fallback=0 [23894/1146/1146/25/0/16565/0 4428/327/327/21/0/9472/7219]",
    "seed 29 both-0.1s baseline: 939c504dff57243e reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=1050 retries=12824 fallback=0 [16444/0/0/0/0/15310/1566 11878/0/0/0/0/15775/1086]",
    "seed 29 both-0.1s random: 3be21518c503fd01 reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=919 retries=12824 fallback=0 [12840/8824/0/0/0/15310/1734 15482/5388/0/0/0/15775/787]",
    "seed 29 both-0.1s hedging: 28d2c92e5f487592 reads=28322 writes=16565 rerouted=0 hedges=2259 inferences=0 on_fault=1050 retries=12824 fallback=0 [16444/0/0/0/226/15310/2162 11878/0/0/0/2033/15775/1086]",
    "seed 29 both-0.1s heimdall: 184fe4db785187e5 reads=28322 writes=16565 rerouted=1313 hedges=0 inferences=28322 on_fault=1296 retries=12824 fallback=0 [16437/537/537/21/0/15310/1812 11885/776/776/32/0/15775/1086]",
    "seed 29 both-0.5s baseline: 66ec97b62ea2b227 reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=1280 retries=77568 fallback=0 [14170/0/0/0/0/13524/4484 10596/0/0/0/0/13609/1959]",
    "seed 29 both-0.5s random: c035900579ec1a61 reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=1279 retries=77568 fallback=0 [11351/8824/0/0/0/13524/3867 13415/5388/0/0/0/13609/2575]",
    "seed 29 both-0.5s hedging: 9b7d5d33bbf9a65b reads=28322 writes=16565 rerouted=0 hedges=2116 inferences=0 on_fault=1280 retries=77568 fallback=0 [14170/0/0/0/531/13524/4578 10596/0/0/0/1585/13609/1959]",
    "seed 29 both-0.5s heimdall: 975218dff8127d0d reads=28322 writes=16565 rerouted=1109 hedges=0 inferences=28322 on_fault=1331 retries=77568 fallback=0 [14610/309/309/8/0/13524/4535 10156/800/800/53/0/13609/1959]",
    "seed 29 fail-slow baseline: 18c16625f4130038 reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [17494/0/0/0/0/16565/0 10828/0/0/0/0/16565/0]",
    "seed 29 fail-slow random: 60fdca4f45c7772d reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [14058/8824/0/0/0/16565/0 14264/5388/0/0/0/16565/0]",
    "seed 29 fail-slow hedging: 8e6b75945130552b reads=28322 writes=16565 rerouted=0 hedges=13606 inferences=0 on_fault=0 retries=0 fallback=0 [17494/0/0/0/310/16565/0 10828/0/0/0/13296/16565/0]",
    "seed 29 fail-slow heimdall: ce71300bf47b17b1 reads=28322 writes=16565 rerouted=12866 hedges=0 inferences=28322 on_fault=0 retries=0 fallback=0 [6786/11787/11787/917/0/16565/0 21536/1079/1079/9/0/16565/0]",
    "seed 29 stall baseline: 92f8cf20e525fe6e reads=28322 writes=16565 rerouted=0 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [17494/0/0/0/0/16565/0 10828/0/0/0/0/16565/0]",
    "seed 29 stall random: 84cb69f922c116b7 reads=28322 writes=16565 rerouted=14212 hedges=0 inferences=0 on_fault=0 retries=0 fallback=0 [14058/8824/0/0/0/16565/0 14264/5388/0/0/0/16565/0]",
    "seed 29 stall hedging: 75ca1ff4da7fd814 reads=28322 writes=16565 rerouted=0 hedges=5904 inferences=0 on_fault=0 retries=0 fallback=0 [17494/0/0/0/253/16565/0 10828/0/0/0/5651/16565/0]",
    "seed 29 stall heimdall: 5c6c3598f944b27e reads=28322 writes=16565 rerouted=4260 hedges=0 inferences=28322 on_fault=0 retries=0 fallback=0 [14806/3474/3474/304/0/16565/0 13516/786/786/25/0/16565/0]",
    "3-replica stop0+stop2 random: a3e1fa8b945aa3a7 reads=81260 writes=87780 rerouted=54264 hedges=0 inferences=0 on_fault=17455 retries=0 fallback=0 [20916/11740/0/0/0/54955/9158 41376/20087/0/0/0/87780/0 18968/22437/0/0/0/57567/8297]",
    "3-replica stop0+stop2 hedging: d8806195398f0789 reads=81260 writes=87780 rerouted=0 hedges=9112 inferences=0 on_fault=13231 retries=0 fallback=0 [16171/0/0/0/1794/54955/4427 39858/0/0/0/4510/87780/0 25231/0/0/0/2808/57567/10296]",
];

const WIDE_PINNED: &[&str] = &[
    "one-down baseline: 5fef5fe1218dfb84 7e1697c561370f62 requests=1635 sub_reads=4905 rerouted=353 on_fault=353 retries=0",
    "one-down random: 657a14d603366d8c bd382f38fe0e7fcd requests=1635 sub_reads=4905 rerouted=2446 on_fault=316 retries=0",
    "one-down heimdall: 95eb576cfc0a4018 e866a9f018a0bf6c requests=1635 sub_reads=4905 rerouted=2472 on_fault=54 retries=0",
    "pair-brief baseline: 756e63ab479dd466 56ed01ada0b15c46 requests=1635 sub_reads=4905 rerouted=48 on_fault=48 retries=552",
    "pair-brief random: 48b70267f927ed30 220467c675bb9c9f requests=1635 sub_reads=4905 rerouted=2466 on_fault=49 retries=545",
    "pair-brief heimdall: 35b72cfcac5493a7 bb1c0823b61089f5 requests=1635 sub_reads=4905 rerouted=2476 on_fault=41 retries=552",
    "pair-long baseline: 6ab78b9bbe984d0a 6d48d69cf99d961b requests=1635 sub_reads=4905 rerouted=133 on_fault=133 retries=5592",
    "pair-long random: f90fe540b2cbfc44 2ef79d5c4c6def70 requests=1635 sub_reads=4905 rerouted=2328 on_fault=102 retries=5453",
    "pair-long heimdall: 9c078747f763124a 00e2b709f42dcd4a requests=1635 sub_reads=4905 rerouted=2380 on_fault=108 retries=5592",
    "fail-slow baseline: f813468fbc46eac9 275f4bcb94643f81 requests=1635 sub_reads=4905 rerouted=0 on_fault=0 retries=0",
    "fail-slow random: 13faa75db004d9e6 b26326697700e112 requests=1635 sub_reads=4905 rerouted=2474 on_fault=0 retries=0",
    "fail-slow heimdall: 5e4b12b043387fab 27b9c6d790bff764 requests=1635 sub_reads=4905 rerouted=2458 on_fault=0 retries=0",
];

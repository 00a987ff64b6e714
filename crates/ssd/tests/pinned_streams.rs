//! Characterization of the device model's observable output, pinned as
//! literals: every preset × {healthy, fail-slow, firmware stall} × two seeds
//! over a mixed chronological stream of ≈ 8,300 submissions each (≈ 200k in
//! all). A row hashes `(start_us, finish_us, queue_len, internally_busy)` of
//! every completion in order, so any change to the service-time arithmetic,
//! the rng draw order or the background-activity schedule moves it. To
//! re-capture after a deliberate change, run the test and copy the table it
//! prints on mismatch.

use heimdall_ssd::{Completion, DeviceConfig, FaultPlan, SsdDevice};
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, PAGE_SIZE};

const SUBMISSIONS: u64 = 8_300;

/// Order-sensitive FNV-1a over the observable fields of each completion.
fn completion_hash(done: &[Completion]) -> u64 {
    done.iter()
        .flat_map(|c| {
            let mut bytes = [0u8; 21];
            bytes[..8].copy_from_slice(&c.start_us.to_le_bytes());
            bytes[8..16].copy_from_slice(&c.finish_us.to_le_bytes());
            bytes[16..20].copy_from_slice(&c.queue_len.to_le_bytes());
            bytes[20] = u8::from(c.internally_busy);
            bytes
        })
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A write-heavy first third (half the requests are writes of up to 1 MB,
/// arriving faster than any preset drains its buffer, so GC and urgent
/// flushes fire), then bursts separated by idle gaps with 20% writes (the
/// stream spans several simulated seconds, so wear leveling can fire).
/// Reads are 4 KB to 256 KB.
fn stream(seed: u64) -> Vec<IoRequest> {
    let mut rng = Rng64::new(seed ^ 0x9157_ed00);
    let mut t = 0u64;
    (0..SUBMISSIONS)
        .map(|id| {
            let heavy = id < SUBMISSIONS / 3;
            t += if heavy {
                rng.exponential(40.0) as u64
            } else if rng.chance(0.03) {
                rng.exponential(30_000.0) as u64
            } else {
                rng.exponential(60.0) as u64
            };
            let (op, size) = if rng.chance(if heavy { 0.5 } else { 0.2 }) {
                (IoOp::Write, rng.range(1, 257) as u32 * PAGE_SIZE)
            } else {
                (IoOp::Read, rng.range(1, 65) as u32 * PAGE_SIZE)
            };
            IoRequest {
                id,
                arrival_us: t,
                offset: id * PAGE_SIZE as u64,
                size,
                op,
            }
        })
        .collect()
}

/// The fault shapes; windows are placed inside the stream's span.
fn plans(span_us: u64) -> [(&'static str, FaultPlan); 3] {
    [
        ("healthy", FaultPlan::none()),
        // A non-integer multiplier: the product is not an integer multiple
        // of the healthy service time.
        (
            "fail-slow",
            FaultPlan::fail_slow(span_us / 4, span_us / 2, 7.3),
        ),
        (
            "stall",
            FaultPlan::firmware_stall(span_us / 2, span_us / 2 + 200_000),
        ),
    ]
}

fn row(name: &str, cfg: &DeviceConfig, plan_name: &str, plan: FaultPlan, seed: u64) -> String {
    let reqs = stream(seed);
    let mut dev = SsdDevice::new(cfg.clone(), seed).with_fault_plan(plan);
    let done: Vec<Completion> = reqs.iter().map(|r| dev.submit(r, r.arrival_us)).collect();
    let s = dev.stats();
    let f = dev.fault_stats();
    format!(
        "{name} {plan_name} seed {seed}: {:016x} reads={} writes={} gc={} flush={} wl={} cache={} transient={} slowed={} stalled={}",
        completion_hash(&done),
        s.reads,
        s.writes,
        s.gc_events,
        s.flush_events,
        s.wear_leveling_events,
        s.cache_hits,
        s.transient_events,
        f.slowed,
        f.stalled
    )
}

#[test]
fn device_streams_are_pinned() {
    let presets = [
        ("datacenter", DeviceConfig::datacenter_nvme()),
        ("consumer", DeviceConfig::consumer_nvme()),
        ("sata", DeviceConfig::sata_datacenter()),
        ("femu", DeviceConfig::femu_emulated()),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in &presets {
        for seed in [11u64, 29] {
            let span = stream(seed).last().map_or(1, |r| r.arrival_us);
            for (plan_name, plan) in plans(span) {
                rows.push(row(name, cfg, plan_name, plan, seed));
            }
        }
    }
    if rows != PINNED {
        let table: String = rows.iter().map(|r| format!("    \"{r}\",\n")).collect();
        let moved = rows
            .iter()
            .zip(PINNED)
            .filter(|(g, p)| g.as_str() != **p)
            .count()
            + rows.len().abs_diff(PINNED.len());
        panic!("{moved} row(s) moved; re-captured table:\n{table}");
    }
}

const PINNED: &[&str] = &[
    "datacenter healthy seed 11: 187fd82b07ce11b7 reads=5779 writes=2521 gc=2 flush=1 wl=0 cache=472 transient=10 slowed=0 stalled=0",
    "datacenter fail-slow seed 11: 660b2366ef587b04 reads=5779 writes=2521 gc=2 flush=1 wl=0 cache=472 transient=10 slowed=1054 stalled=0",
    "datacenter stall seed 11: d6d3e14da5b6bf86 reads=5779 writes=2521 gc=2 flush=1 wl=0 cache=472 transient=10 slowed=0 stalled=8",
    "datacenter healthy seed 29: 57d959eba87db55d reads=5733 writes=2567 gc=2 flush=1 wl=1 cache=499 transient=12 slowed=0 stalled=0",
    "datacenter fail-slow seed 29: aefadb0facc2dcb4 reads=5733 writes=2567 gc=2 flush=1 wl=1 cache=499 transient=12 slowed=1175 stalled=0",
    "datacenter stall seed 29: 13066c405c26dfbc reads=5733 writes=2567 gc=2 flush=1 wl=1 cache=499 transient=12 slowed=0 stalled=8",
    "consumer healthy seed 11: b1d6ee6e155fc325 reads=5779 writes=2521 gc=3 flush=9 wl=0 cache=364 transient=14 slowed=0 stalled=0",
    "consumer fail-slow seed 11: baf0dac26f73073e reads=5779 writes=2521 gc=3 flush=9 wl=0 cache=364 transient=14 slowed=1054 stalled=0",
    "consumer stall seed 11: e9dbce41edd27882 reads=5779 writes=2521 gc=3 flush=9 wl=0 cache=364 transient=14 slowed=0 stalled=4",
    "consumer healthy seed 29: 34f8e155ce763f58 reads=5733 writes=2567 gc=3 flush=10 wl=1 cache=387 transient=13 slowed=0 stalled=0",
    "consumer fail-slow seed 29: 8880eb2828e5b0c7 reads=5733 writes=2567 gc=3 flush=10 wl=1 cache=387 transient=13 slowed=1175 stalled=0",
    "consumer stall seed 29: 5663a49618192708 reads=5733 writes=2567 gc=3 flush=10 wl=1 cache=387 transient=13 slowed=0 stalled=4",
    "sata healthy seed 11: 1ecd9bcdc832a846 reads=5779 writes=2521 gc=3 flush=5 wl=0 cache=434 transient=11 slowed=0 stalled=0",
    "sata fail-slow seed 11: cca96c7a5ecfd4d2 reads=5779 writes=2521 gc=3 flush=5 wl=0 cache=434 transient=11 slowed=1054 stalled=0",
    "sata stall seed 11: 26261dc3d28e5f08 reads=5779 writes=2521 gc=3 flush=5 wl=0 cache=434 transient=11 slowed=0 stalled=4",
    "sata healthy seed 29: 1174861140c26d17 reads=5733 writes=2567 gc=3 flush=5 wl=1 cache=469 transient=9 slowed=0 stalled=0",
    "sata fail-slow seed 29: 1ded1a47c64b264e reads=5733 writes=2567 gc=3 flush=5 wl=1 cache=469 transient=9 slowed=1175 stalled=0",
    "sata stall seed 29: 9480e68a6bca6af7 reads=5733 writes=2567 gc=3 flush=5 wl=1 cache=469 transient=9 slowed=0 stalled=4",
    "femu healthy seed 11: a29981eb625ca76f reads=5779 writes=2521 gc=3 flush=11 wl=0 cache=465 transient=9 slowed=0 stalled=0",
    "femu fail-slow seed 11: e0564edc8c43bdcb reads=5779 writes=2521 gc=3 flush=11 wl=0 cache=465 transient=9 slowed=1054 stalled=0",
    "femu stall seed 11: deed2a85a5ba9d06 reads=5779 writes=2521 gc=3 flush=11 wl=0 cache=465 transient=9 slowed=0 stalled=8",
    "femu healthy seed 29: 0caef4fab4bd2dbb reads=5733 writes=2567 gc=3 flush=11 wl=1 cache=504 transient=14 slowed=0 stalled=0",
    "femu fail-slow seed 29: d3664c52f3ff54d5 reads=5733 writes=2567 gc=3 flush=11 wl=1 cache=504 transient=14 slowed=1175 stalled=0",
    "femu stall seed 29: 5c46104e6e644bb3 reads=5733 writes=2567 gc=3 flush=11 wl=1 cache=504 transient=14 slowed=0 stalled=8",
];

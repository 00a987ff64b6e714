//! Fig 13 — wide-scale (Ceph-like) evaluation (§6.3).
//!
//! Ten nodes × two FEMU-style OSDs, twenty clients, noise injectors.
//! (a) end-user request latency CDF at SF = 1,
//! (b) the CDF at SF = 10 (tail amplified by scale),
//! (c) Heimdall's latency reduction vs random at p50-p95 across SFs.
//!
//! LinnOS is excluded, as in the paper (per-page models cannot handle
//! Ceph's variable-sized objects).
//!
//! Usage: `fig13_wide_scale [--secs S] [--seed K] [--jobs J]`
//!
//! Each (scaling factor, policy) cell — per-SF OSD profiling included —
//! runs independently, so the whole sweep fans out over `--jobs` workers
//! and prints in fixed order.

use heimdall_bench::{fmt_us, print_header, print_row, run_ordered, Args};
use heimdall_cluster::wide::{run_wide, WideConfig, WidePolicy, WideResult};
use heimdall_core::pipeline::{run_batch, PipelineConfig, Trained};
use heimdall_core::RecordBatch;
use heimdall_ssd::SsdDevice;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, PAGE_SIZE};

/// Trains one model per OSD from a profiling run that mimics the cluster's
/// per-OSD load (client reads + noisy-neighbour writes).
fn train_osd_models(cfg: &WideConfig) -> Vec<Trained> {
    let n = cfg.osds();
    let mut rng = Rng64::new(cfg.seed ^ 0x006f_7364);
    (0..n)
        .map(|osd| {
            let mut dev = SsdDevice::new(cfg.device.clone(), cfg.seed + osd as u64);
            let mut log = RecordBatch::new();
            let mut t = 0u64;
            let sizes = [PAGE_SIZE, 16 * 1024, 64 * 1024, 256 * 1024];
            let mut id = 0u64;
            // Per-OSD offered load: its share of client reads plus bursts
            // of injector writes.
            let read_gap = (1e6
                / (cfg.clients as f64 * cfg.client_rate * cfg.scaling_factor as f64 / n as f64))
                .max(20.0);
            while t < cfg.duration_us {
                t += rng.exponential(read_gap) as u64 + 1;
                let op = if rng.chance(0.25) {
                    IoOp::Write
                } else {
                    IoOp::Read
                };
                let size = if op == IoOp::Write {
                    cfg.noise_size
                } else {
                    sizes[rng.below(4) as usize]
                };
                let req = IoRequest {
                    id,
                    arrival_us: t,
                    offset: id * 4096,
                    size,
                    op,
                };
                id += 1;
                log.push(heimdall_core::collect::submit_one(&req, &mut dev));
            }
            let mut pcfg = PipelineConfig::heimdall();
            pcfg.seed = cfg.seed + osd as u64;
            run_batch(&log, &pcfg)
                .map(|(m, _)| m)
                .unwrap_or_else(|_| Trained::always_admit(&pcfg))
        })
        .collect()
}

fn cdf_row(result: &WideResult, points: &[u64]) -> Vec<String> {
    points
        .iter()
        .map(|&v| format!("{:.3}", result.requests.cdf_at(v)))
        .collect()
}

fn main() {
    let args = Args::parse();
    let secs = args.get_u64("secs", 15);
    let seed = args.get_u64("seed", 5);
    let jobs = args.jobs();

    let base_cfg = WideConfig {
        duration_us: secs * 1_000_000,
        seed,
        ..Default::default()
    };
    // --- (a) and (b): latency CDFs at SF = 1 and SF = 10.
    // Models are profiled per scaling factor: the deployment's offered
    // rate (and thus the queue-length feature distribution) scales with
    // SF, and an operator profiles the cluster as it will actually run.
    // train_osd_models(cfg) is deterministic per cfg, so the Heimdall cell
    // profiles its own models without coordinating with the other cells.
    const POLICY_NAMES: [&str; 3] = ["baseline", "random", "heimdall"];
    let ab_sfs = [1usize, 10];
    let ab_cells: Vec<(usize, usize)> = ab_sfs
        .iter()
        .flat_map(|&sf| (0..POLICY_NAMES.len()).map(move |pi| (sf, pi)))
        .collect();
    let ab_results = run_ordered(jobs, ab_cells, |&(sf, pi)| {
        let cfg = WideConfig {
            scaling_factor: sf,
            ..base_cfg.clone()
        };
        let policy = match pi {
            0 => WidePolicy::Baseline,
            1 => WidePolicy::Random,
            _ => WidePolicy::Heimdall(train_osd_models(&cfg)),
        };
        run_wide(&cfg, policy)
    });
    for (si, &sf) in ab_sfs.iter().enumerate() {
        print_header(&format!(
            "Fig 13{}: request-latency CDF at SF = {sf}",
            if sf == 1 { 'a' } else { 'b' }
        ));
        let points = [200u64, 500, 1_000, 2_000, 5_000, 10_000, 50_000];
        print_row(
            "policy",
            &points.iter().map(|p| fmt_us(*p as f64)).collect::<Vec<_>>(),
        );
        for (pi, name) in POLICY_NAMES.iter().enumerate() {
            let result = &ab_results[si * POLICY_NAMES.len() + pi];
            print_row(name, &cdf_row(result, &points));
        }
    }

    // --- (c): Heimdall's reduction vs random across SFs.
    let c_sfs = [1usize, 2, 5, 10];
    let c_cells: Vec<(usize, usize)> = c_sfs
        .iter()
        .flat_map(|&sf| (0..2).map(move |w| (sf, w)))
        .collect();
    let c_results = run_ordered(jobs, c_cells, |&(sf, w)| {
        let cfg = WideConfig {
            scaling_factor: sf,
            ..base_cfg.clone()
        };
        if w == 0 {
            run_wide(&cfg, WidePolicy::Random)
        } else {
            run_wide(&cfg, WidePolicy::Heimdall(train_osd_models(&cfg)))
        }
    });
    print_header("Fig 13c: Heimdall latency reduction vs random, by percentile and SF");
    let pcts = [50.0, 70.0, 80.0, 90.0, 95.0];
    print_row(
        "SF",
        &pcts.iter().map(|p| format!("p{p}")).collect::<Vec<_>>(),
    );
    for (si, &sf) in c_sfs.iter().enumerate() {
        let rand = &c_results[si * 2];
        let heim = &c_results[si * 2 + 1];
        let cells: Vec<String> = pcts
            .iter()
            .map(|&p| {
                let r = rand.requests.percentile(p) as f64;
                let h = heim.requests.percentile(p) as f64;
                format!("{:+.1}%", 100.0 * (r - h) / r.max(1.0))
            })
            .collect();
        print_row(&format!("SF={sf}"), &cells);
    }
}

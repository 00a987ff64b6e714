//! Ablation for this reproduction's own design knobs (called out in
//! DESIGN.md): the probe interval that bounds decline streaks, and the
//! choice of calibrated vs fixed decision thresholds.
//!
//! Usage: `ablation_knobs [--experiments N] [--secs S] [--seed K]`

use heimdall_bench::{fmt_us, light_heavy_pair, print_header, print_row, Args, ExperimentSetup};
use heimdall_cluster::replayer::replay_homed;
use heimdall_cluster::train::{fresh_devices, train_homed};
use heimdall_core::pipeline::PipelineConfig;
use heimdall_policies::HeimdallPolicy;
use heimdall_ssd::DeviceConfig;

fn main() {
    let args = Args::parse();
    let experiments = args.get_usize("experiments", 6);
    let secs = args.get_u64("secs", 15);
    let seed = args.get_u64("seed", 13);

    // --- Probe interval sweep.
    print_header("Probe interval: consecutive declines before a forced probe admit");
    print_row(
        "probe_after",
        &[
            "avg".into(),
            "p99".into(),
            "p99.9".into(),
            "reroute%".into(),
        ],
    );
    for probe in [2u32, 4, 8, 16, 64, u32::MAX] {
        let mut sums = [0f64; 4];
        let mut n = 0usize;
        for e in 0..experiments {
            let s = seed + e as u64 * 7919;
            let (heavy, light) = light_heavy_pair(s, secs);
            let setup =
                ExperimentSetup::light_heavy(heavy, light, DeviceConfig::datacenter_nvme(), s);
            let Ok(models) = train_homed(
                &setup.requests,
                &setup.device_cfgs,
                &{
                    let mut c = PipelineConfig::heimdall();
                    c.seed = s;
                    c
                },
                s,
            ) else {
                continue;
            };
            let mut policy = HeimdallPolicy::new(models).with_probe_after(probe);
            let mut devices = fresh_devices(&setup.device_cfgs, s ^ 0xdead);
            let r = replay_homed(&setup.requests, &mut devices, &mut policy);
            sums[0] += r.reads.mean();
            sums[1] += r.reads.percentile(99.0) as f64;
            sums[2] += r.reads.percentile(99.9) as f64;
            sums[3] += 100.0 * r.rerouted as f64 / r.reads.len().max(1) as f64;
            n += 1;
        }
        let k = n.max(1) as f64;
        print_row(
            &if probe == u32::MAX {
                "never".into()
            } else {
                probe.to_string()
            },
            &[
                fmt_us(sums[0] / k),
                fmt_us(sums[1] / k),
                fmt_us(sums[2] / k),
                format!("{:.1}%", sums[3] / k),
            ],
        );
    }
}

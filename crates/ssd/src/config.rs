//! Device configuration and presets.
//!
//! The presets approximate the device families the paper tests on (§6):
//! a datacenter NVMe drive (Samsung 970 PRO-like), a consumer NVMe drive
//! (Samsung PM961-like), a SATA datacenter drive (Intel DC S3610-like), and
//! a FEMU-style emulated device used in the Ceph evaluation (§6.3). The
//! parameters are not vendor specifications; they are chosen so the model
//! reproduces the *behavioural* envelope the paper relies on — microsecond
//! base reads, 1-10% slow periods under load, and contention amplification
//! up to the ~60× the literature reports for GC interference.

use serde::{Deserialize, Serialize};

/// Full parametric description of one simulated flash device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Human-readable model tag.
    pub model: String,
    /// Fixed cost of a NAND read (controller + flash sense), microseconds.
    pub read_base_us: f64,
    /// Sequential read bandwidth, bytes per microsecond (MB/s ÷ ~1.05e0).
    pub read_bw_bpus: f64,
    /// Fixed cost of buffering a write, microseconds.
    pub write_base_us: f64,
    /// Write-buffer ingest bandwidth, bytes per microsecond.
    pub write_bw_bpus: f64,
    /// Number of internal channels serving requests concurrently.
    pub parallelism: usize,

    /// DRAM write-buffer capacity in bytes.
    pub buffer_capacity: u64,
    /// Buffer drain (flush-to-NAND) bandwidth, bytes per microsecond.
    pub drain_bw_bpus: f64,
    /// Contention multiplier applied to reads while an urgent buffer flush
    /// is in progress.
    pub flush_amp: f64,

    /// Over-provisioned free-space pool in bytes; writes consume it.
    pub free_pool: u64,
    /// GC starts when the free pool drops below this fraction.
    pub gc_threshold: f64,
    /// Mean GC busy-interval duration, microseconds.
    pub gc_duration_us: f64,
    /// Read-latency amplification range while GC runs (sampled per event).
    pub gc_amp: (f64, f64),
    /// Fraction of the free pool reclaimed by one GC pass.
    pub gc_reclaim: f64,

    /// Mean gap between wear-leveling events, microseconds.
    pub wear_leveling_interval_us: f64,
    /// Mean wear-leveling busy duration, microseconds.
    pub wear_leveling_duration_us: f64,
    /// Read amplification during wear leveling.
    pub wear_leveling_amp: f64,

    /// Probability that a read issued during a busy interval collides with
    /// the internally-busy die/channel and suffers the event's full
    /// amplification; non-colliding reads see only [`Self::busy_light_amp`].
    /// GC/flush/wear-leveling serialize one die at a time, so only a
    /// fraction of concurrent reads stall hard.
    pub busy_collision_prob: f64,
    /// Mild slowdown applied to non-colliding reads during busy intervals
    /// (controller contention, shared bus).
    pub busy_light_amp: f64,

    /// Probability a read hits the device DRAM cache (immune to internal
    /// contention — the "lucky" fast outliers of §3.2 stage 1).
    pub cache_hit_prob: f64,
    /// Cache-hit fixed latency, microseconds.
    pub cache_read_us: f64,

    /// Probability a read in a quiet period suffers a transient slowdown
    /// (read retry / ECC, §3.2 stage 2).
    pub transient_slow_prob: f64,
    /// Amplification range for transient slowdowns.
    pub transient_amp: (f64, f64),

    /// Multiplicative log-normal jitter sigma applied to every service time.
    pub jitter_sigma: f64,
}

impl DeviceConfig {
    /// Datacenter NVMe similar in envelope to the Samsung 970 PRO used for
    /// the large-scale evaluation (§6.1).
    pub fn datacenter_nvme() -> Self {
        DeviceConfig {
            model: "samsung-970pro-like".into(),
            read_base_us: 80.0,
            read_bw_bpus: 3000.0,
            write_base_us: 25.0,
            write_bw_bpus: 2300.0,
            parallelism: 8,
            buffer_capacity: 512 << 20,
            drain_bw_bpus: 1200.0,
            flush_amp: 6.0,
            free_pool: 1536 << 20,
            gc_threshold: 0.25,
            gc_duration_us: 60_000.0,
            gc_amp: (8.0, 60.0),
            gc_reclaim: 0.4,
            wear_leveling_interval_us: 20_000_000.0,
            wear_leveling_duration_us: 15_000.0,
            wear_leveling_amp: 6.0,
            busy_collision_prob: 0.30,
            busy_light_amp: 2.0,
            cache_hit_prob: 0.08,
            cache_read_us: 12.0,
            transient_slow_prob: 0.002,
            transient_amp: (5.0, 20.0),
            jitter_sigma: 0.08,
        }
    }

    /// Consumer NVMe (Samsung PM961-like): smaller buffer and free pool, so
    /// it falls into GC sooner; used in the heterogeneous kernel test (§6.2).
    pub fn consumer_nvme() -> Self {
        DeviceConfig {
            model: "samsung-pm961-like".into(),
            read_base_us: 95.0,
            read_bw_bpus: 2200.0,
            write_base_us: 30.0,
            write_bw_bpus: 1500.0,
            parallelism: 4,
            buffer_capacity: 128 << 20,
            drain_bw_bpus: 600.0,
            flush_amp: 8.0,
            free_pool: 1 << 30,
            gc_threshold: 0.30,
            gc_duration_us: 90_000.0,
            gc_amp: (10.0, 60.0),
            gc_reclaim: 0.45,
            wear_leveling_interval_us: 12_000_000.0,
            wear_leveling_duration_us: 25_000.0,
            wear_leveling_amp: 8.0,
            busy_collision_prob: 0.35,
            busy_light_amp: 2.5,
            cache_hit_prob: 0.06,
            cache_read_us: 14.0,
            transient_slow_prob: 0.003,
            transient_amp: (5.0, 25.0),
            jitter_sigma: 0.10,
        }
    }

    /// SATA datacenter drive (Intel DC S3610-like): comparable base read
    /// latency to consumer NVMe but much lower bandwidth and steadier
    /// internals — the heterogeneity of the §6.2 pair is behavioural
    /// (different GC cadence/amplification), not a static speed gap.
    pub fn sata_datacenter() -> Self {
        DeviceConfig {
            model: "intel-dc-s3610-like".into(),
            read_base_us: 110.0,
            read_bw_bpus: 520.0,
            write_base_us: 55.0,
            write_bw_bpus: 450.0,
            parallelism: 4,
            buffer_capacity: 256 << 20,
            drain_bw_bpus: 400.0,
            flush_amp: 5.0,
            free_pool: 1 << 30,
            gc_threshold: 0.22,
            gc_duration_us: 70_000.0,
            gc_amp: (6.0, 40.0),
            gc_reclaim: 0.4,
            wear_leveling_interval_us: 25_000_000.0,
            wear_leveling_duration_us: 20_000.0,
            wear_leveling_amp: 5.0,
            busy_collision_prob: 0.30,
            busy_light_amp: 2.0,
            cache_hit_prob: 0.07,
            cache_read_us: 20.0,
            transient_slow_prob: 0.002,
            transient_amp: (4.0, 15.0),
            jitter_sigma: 0.07,
        }
    }

    /// FEMU-style emulated SSD (100 GB) as used for the Ceph OSDs (§6.3).
    pub fn femu_emulated() -> Self {
        DeviceConfig {
            model: "femu-emulated".into(),
            read_base_us: 70.0,
            read_bw_bpus: 1600.0,
            write_base_us: 20.0,
            write_bw_bpus: 1200.0,
            parallelism: 8,
            buffer_capacity: 64 << 20,
            drain_bw_bpus: 800.0,
            flush_amp: 6.0,
            free_pool: 1 << 30,
            gc_threshold: 0.28,
            gc_duration_us: 50_000.0,
            gc_amp: (8.0, 50.0),
            gc_reclaim: 0.5,
            wear_leveling_interval_us: 15_000_000.0,
            wear_leveling_duration_us: 12_000.0,
            wear_leveling_amp: 6.0,
            busy_collision_prob: 0.30,
            busy_light_amp: 2.0,
            cache_hit_prob: 0.08,
            cache_read_us: 10.0,
            transient_slow_prob: 0.002,
            transient_amp: (5.0, 18.0),
            jitter_sigma: 0.09,
        }
    }

    /// Validates invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.parallelism == 0 {
            return Err("parallelism must be at least 1".into());
        }
        // Rates divide service times, and the means seed exponential and
        // log-normal draws: each must be a finite positive number (a NaN
        // fails every comparison, so test for what is allowed).
        let positive = [
            ("read_bw_bpus", self.read_bw_bpus),
            ("write_bw_bpus", self.write_bw_bpus),
            ("drain_bw_bpus", self.drain_bw_bpus),
            ("gc_duration_us", self.gc_duration_us),
            ("wear_leveling_interval_us", self.wear_leveling_interval_us),
            ("wear_leveling_duration_us", self.wear_leveling_duration_us),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be finite and positive, got {v}"));
            }
        }
        if !(self.jitter_sigma.is_finite() && self.jitter_sigma >= 0.0) {
            return Err(format!(
                "jitter_sigma must be finite and non-negative, got {}",
                self.jitter_sigma
            ));
        }
        if !(0.0..=1.0).contains(&self.gc_threshold) {
            return Err("gc_threshold must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.cache_hit_prob)
            || !(0.0..=1.0).contains(&self.transient_slow_prob)
            || !(0.0..=1.0).contains(&self.busy_collision_prob)
        {
            return Err("probabilities must be in [0,1]".into());
        }
        if self.busy_light_amp < 1.0 {
            return Err("busy_light_amp must be at least 1".into());
        }
        if self.gc_amp.0 > self.gc_amp.1 || self.transient_amp.0 > self.transient_amp.1 {
            return Err("amplification ranges must be ordered".into());
        }
        if !(0.0..=1.0).contains(&self.gc_reclaim) {
            return Err("gc_reclaim must be in [0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            DeviceConfig::datacenter_nvme(),
            DeviceConfig::consumer_nvme(),
            DeviceConfig::sata_datacenter(),
            DeviceConfig::femu_emulated(),
        ] {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.model));
        }
    }

    #[test]
    fn validate_rejects_zero_parallelism() {
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.parallelism = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.cache_hit_prob = 1.5;
        assert!(cfg.validate().is_err());
    }

    /// One negative case per field that used to pass validation and then
    /// panic (`Rng64::exponential`'s assert) or divide by it.
    #[test]
    fn validate_rejects_non_finite_or_non_positive_rates_and_durations() {
        type Field = fn(&mut DeviceConfig) -> &mut f64;
        let fields: [(&str, Field); 7] = [
            ("read_bw_bpus", |c| &mut c.read_bw_bpus),
            ("write_bw_bpus", |c| &mut c.write_bw_bpus),
            ("drain_bw_bpus", |c| &mut c.drain_bw_bpus),
            ("gc_duration_us", |c| &mut c.gc_duration_us),
            ("wear_leveling_interval_us", |c| {
                &mut c.wear_leveling_interval_us
            }),
            ("wear_leveling_duration_us", |c| {
                &mut c.wear_leveling_duration_us
            }),
            ("jitter_sigma", |c| &mut c.jitter_sigma),
        ];
        for (name, field) in fields {
            let bad: &[f64] = if name == "jitter_sigma" {
                &[-0.1, f64::NAN, f64::INFINITY]
            } else {
                &[0.0, -1.0, f64::NAN, f64::INFINITY]
            };
            for &v in bad {
                let mut cfg = DeviceConfig::datacenter_nvme();
                *field(&mut cfg) = v;
                let err = cfg.validate().expect_err(name);
                assert!(err.contains(name), "{name} = {v}: {err}");
            }
        }
        let mut quiet = DeviceConfig::datacenter_nvme();
        quiet.jitter_sigma = 0.0;
        assert!(quiet.validate().is_ok(), "sigma 0 means no jitter");
    }

    #[test]
    fn validate_rejects_inverted_amp_range() {
        let mut cfg = DeviceConfig::datacenter_nvme();
        cfg.gc_amp = (10.0, 2.0);
        assert!(cfg.validate().is_err());
    }
}

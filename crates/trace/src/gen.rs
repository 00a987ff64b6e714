//! Synthetic production-like trace generators.
//!
//! The generators model three aspects of the production traces the paper
//! evaluates on (§6.1): the arrival process, the request-size mixture, and
//! offset locality. Arrivals use a two-state on/off modulated Poisson process
//! (normal rate vs burst rate) so heavy traces exhibit the bursts that drive
//! SSDs into garbage collection; sizes come from a discrete page mixture from
//! 4 KB to 2 MB; offsets mix zipfian hot-spot reuse with sequential runs.

use crate::rng::Rng64;
use crate::{IoOp, IoRequest, Trace, WorkloadProfile, MAX_IO_SIZE, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// A discrete request-size mixture: `(size_bytes, weight)` pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SizeMix {
    entries: Vec<(u32, f64)>,
}

impl SizeMix {
    /// Builds a mixture from `(size, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty, if any weight is negative, if any size is zero or not
    /// page-aligned, or if a size exceeds [`MAX_IO_SIZE`].
    pub fn new(entries: Vec<(u32, f64)>) -> Self {
        assert!(!entries.is_empty(), "size mix must not be empty");
        for &(s, w) in &entries {
            assert!(
                s > 0 && s.is_multiple_of(PAGE_SIZE),
                "size {s} must be a positive page multiple"
            );
            assert!(s <= MAX_IO_SIZE, "size {s} exceeds MAX_IO_SIZE");
            assert!(w >= 0.0, "weights must be non-negative");
        }
        Self { entries }
    }

    /// Small-I/O-dominated mixture (MSR-like).
    pub(crate) fn small_dominated() -> Self {
        SizeMix::new(vec![
            (4 * 1024, 0.45),
            (8 * 1024, 0.25),
            (16 * 1024, 0.15),
            (64 * 1024, 0.10),
            (128 * 1024, 0.05),
        ])
    }

    /// Wide mixture including big 1-2 MB requests (Alibaba-like).
    pub fn wide() -> Self {
        SizeMix::new(vec![
            (4 * 1024, 0.30),
            (16 * 1024, 0.20),
            (64 * 1024, 0.18),
            (128 * 1024, 0.14),
            (256 * 1024, 0.10),
            (1024 * 1024, 0.05),
            (2048 * 1024, 0.03),
        ])
    }

    /// Mid-size mixture (Tencent-like block storage).
    pub fn mid() -> Self {
        SizeMix::new(vec![
            (4 * 1024, 0.25),
            (16 * 1024, 0.30),
            (64 * 1024, 0.25),
            (128 * 1024, 0.15),
            (256 * 1024, 0.05),
        ])
    }

    /// Draws one size.
    pub fn sample(&self, rng: &mut Rng64) -> u32 {
        let weights: Vec<f64> = self.entries.iter().map(|e| e.1).collect();
        self.entries[rng.weighted_index(&weights)].0
    }
}

/// Full parametric description of a synthetic workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct WorkloadSpec {
    /// Trace length in microseconds.
    pub duration_us: u64,
    /// Mean request rate during normal (non-burst) operation, in IOPS.
    pub base_iops: f64,
    /// Burst-state rate multiplier (`1.0` disables bursts).
    pub burst_multiplier: f64,
    /// Mean time spent in the normal state before a burst, microseconds.
    pub mean_normal_us: f64,
    /// Mean burst duration, microseconds.
    pub mean_burst_us: f64,
    /// Fraction of requests that are reads, in `[0, 1]`.
    pub read_ratio: f64,
    /// Request-size mixture.
    pub size_mix: SizeMix,
    /// Addressable bytes on the device.
    pub address_space: u64,
    /// Zipf skew for hot-spot locality, in `(0, 1)`.
    pub locality_theta: f64,
    /// Probability the next request continues sequentially after the
    /// previous one.
    pub sequential_prob: f64,
    /// Jitter applied to interarrival times (`0` = deterministic spacing,
    /// `1` = fully exponential). Tencent-like traces use low jitter to model
    /// the near-constant interarrival the paper observes (§7).
    pub arrival_jitter: f64,
}

impl WorkloadSpec {
    /// Spec for one of the named profiles.
    pub fn from_profile(profile: WorkloadProfile) -> Self {
        match profile {
            WorkloadProfile::MsrLike => WorkloadSpec {
                duration_us: 60_000_000,
                base_iops: 8_000.0,
                burst_multiplier: 6.0,
                mean_normal_us: 2_000_000.0,
                mean_burst_us: 150_000.0,
                read_ratio: 0.70,
                size_mix: SizeMix::small_dominated(),
                address_space: 256 << 30,
                locality_theta: 0.8,
                sequential_prob: 0.45,
                arrival_jitter: 1.0,
            },
            WorkloadProfile::AlibabaLike => WorkloadSpec {
                duration_us: 60_000_000,
                base_iops: 3_500.0,
                burst_multiplier: 5.0,
                mean_normal_us: 1_000_000.0,
                mean_burst_us: 120_000.0,
                read_ratio: 0.60,
                size_mix: SizeMix::wide(),
                address_space: 512 << 30,
                locality_theta: 0.9,
                sequential_prob: 0.25,
                arrival_jitter: 1.0,
            },
            WorkloadProfile::TencentLike => WorkloadSpec {
                duration_us: 60_000_000,
                base_iops: 9_000.0,
                burst_multiplier: 2.5,
                mean_normal_us: 3_000_000.0,
                mean_burst_us: 500_000.0,
                // Write IOPS ~2x read IOPS, triggering GC activity (§7).
                read_ratio: 0.33,
                size_mix: SizeMix::mid(),
                address_space: 512 << 30,
                locality_theta: 0.7,
                sequential_prob: 0.35,
                arrival_jitter: 0.15,
            },
        }
    }
}

/// Builder API over a workload spec (arrival process, size mix, locality)
/// plus a seed.
///
/// # Examples
///
/// ```
/// use heimdall_trace::gen::TraceBuilder;
/// use heimdall_trace::WorkloadProfile;
///
/// let t = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
///     .duration_secs(5)
///     .iops(2_000.0)
///     .seed(1)
///     .build();
/// assert!(t.duration_us() <= 5_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    spec: WorkloadSpec,
    seed: u64,
    name: String,
}

impl TraceBuilder {
    /// Starts from a named profile's spec.
    pub fn from_profile(profile: WorkloadProfile) -> Self {
        Self {
            spec: WorkloadSpec::from_profile(profile),
            seed: 0,
            name: profile.name().to_string(),
        }
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the trace duration in seconds.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.spec.duration_us = secs * 1_000_000;
        self
    }

    /// Overrides the normal-state request rate.
    pub fn iops(mut self, iops: f64) -> Self {
        self.spec.base_iops = iops;
        self
    }

    /// Overrides the read ratio.
    pub fn read_ratio(mut self, ratio: f64) -> Self {
        self.spec.read_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Overrides the trace name tag.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero IOPS or zero duration).
    pub fn build(self) -> Trace {
        let spec = &self.spec;
        assert!(spec.base_iops > 0.0, "base_iops must be positive");
        assert!(spec.duration_us > 0, "duration must be positive");
        let mut rng = Rng64::new(self.seed ^ 0x4865_696d_6461_6c6c); // "Heimdall"

        let mut requests = Vec::new();
        let mut now = 0u64;
        let mut in_burst = false;
        let mut state_ends = rng.exponential(spec.mean_normal_us) as u64;
        let mut last_end_offset: u64 = 0;
        let pages_total = (spec.address_space / PAGE_SIZE as u64).max(1);

        while now < spec.duration_us {
            // Advance the on/off modulating chain.
            while now >= state_ends {
                in_burst = !in_burst;
                let mean = if in_burst {
                    spec.mean_burst_us
                } else {
                    spec.mean_normal_us
                };
                state_ends += rng.exponential(mean.max(1.0)) as u64;
            }
            let rate = if in_burst {
                spec.base_iops * spec.burst_multiplier
            } else {
                spec.base_iops
            };
            let mean_gap_us = 1_000_000.0 / rate;
            // Blend deterministic spacing with exponential jitter.
            let gap = (1.0 - spec.arrival_jitter) * mean_gap_us
                + spec.arrival_jitter * rng.exponential(mean_gap_us);
            now += (gap.max(1.0)) as u64;
            if now >= spec.duration_us {
                break;
            }

            let op = if rng.chance(spec.read_ratio) {
                IoOp::Read
            } else {
                IoOp::Write
            };
            let size = spec.size_mix.sample(&mut rng);
            let offset = if rng.chance(spec.sequential_prob) && last_end_offset > 0 {
                last_end_offset % spec.address_space
            } else {
                let page = rng.zipf(pages_total, spec.locality_theta);
                page * PAGE_SIZE as u64
            };
            let offset = offset.min(spec.address_space.saturating_sub(size as u64));
            last_end_offset = offset + size as u64;

            requests.push(IoRequest {
                id: requests.len() as u64,
                arrival_us: now,
                offset,
                size,
                op,
            });
        }
        Trace::new(self.name, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn builder_is_deterministic() {
        let a = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(9)
            .duration_secs(2)
            .build();
        let b = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(9)
            .duration_secs(2)
            .build();
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(1)
            .duration_secs(2)
            .build();
        let b = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(2)
            .duration_secs(2)
            .build();
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn arrivals_sorted_and_within_duration() {
        let t = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
            .seed(3)
            .duration_secs(3)
            .build();
        assert!(t
            .requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(t.requests.last().unwrap().arrival_us < 3_000_000);
    }

    #[test]
    fn read_ratio_tracks_spec() {
        for profile in WorkloadProfile::ALL {
            let t = TraceBuilder::from_profile(profile)
                .seed(4)
                .duration_secs(5)
                .build();
            let stats = TraceStats::compute(&t);
            let want = WorkloadSpec::from_profile(profile).read_ratio;
            assert!(
                (stats.read_ratio - want).abs() < 0.05,
                "{}: got {} want {}",
                profile.name(),
                stats.read_ratio,
                want
            );
        }
    }

    #[test]
    fn sizes_are_page_aligned_and_bounded() {
        let t = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
            .seed(5)
            .duration_secs(2)
            .build();
        for r in &t.requests {
            assert_eq!(r.size % PAGE_SIZE, 0);
            assert!(r.size <= MAX_IO_SIZE);
        }
    }

    #[test]
    fn tencent_profile_is_write_heavy() {
        let t = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(6)
            .duration_secs(5)
            .build();
        let stats = TraceStats::compute(&t);
        assert!(stats.read_ratio < 0.45, "read ratio {}", stats.read_ratio);
    }

    #[test]
    fn iops_roughly_matches_base_rate() {
        let t = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(7)
            .duration_secs(10)
            .iops(1_000.0)
            .build();
        let got = t.len() as f64 / 10.0;
        // Bursts push the average above base; allow a broad band.
        assert!(got > 700.0 && got < 3_000.0, "iops {got}");
    }

    #[test]
    #[should_panic(expected = "size mix must not be empty")]
    fn empty_size_mix_panics() {
        SizeMix::new(vec![]);
    }

    #[test]
    fn offsets_within_address_space() {
        let t = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(10)
            .duration_secs(2)
            .build();
        let space = WorkloadSpec::from_profile(WorkloadProfile::MsrLike).address_space;
        for r in &t.requests {
            assert!(r.offset + r.size as u64 <= space);
        }
    }
}

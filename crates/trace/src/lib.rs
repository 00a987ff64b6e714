//! Block I/O trace model and synthetic production-like trace generators.
//!
//! This crate is the workload substrate of the Heimdall reproduction. The
//! original paper evaluates on 2 TB of production block traces from MSR
//! Cambridge, Alibaba, and Tencent; those traces are not redistributable at
//! that scale, so this crate provides *parametric generators* that reproduce
//! the statistical properties the Heimdall pipeline depends on:
//!
//! - variable request sizes from one page (4 KB) up to big requests (2 MB),
//! - bursty arrival processes (on/off modulated Poisson),
//! - skewed (zipfian) offset locality with sequential runs,
//! - configurable read/write mixes, including the write-heavy Tencent-like
//!   profile used by the paper's long-term retraining study (§7).
//!
//! It also implements the five data-augmentation functions of the paper's
//! trace tooling (§6.1): 0.1×/0.5×/2× rerate and 2×/4× resize. The paper's
//! other tool, percentile-criteria window selection over multi-day traces,
//! has no input here until a real-trace workload lands; its last version is
//! `trace::select` at commit `83683ca`.
//!
//! # Examples
//!
//! ```
//! use heimdall_trace::{gen::TraceBuilder, WorkloadProfile};
//!
//! let trace = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
//!     .duration_secs(10)
//!     .seed(42)
//!     .build();
//! assert!(!trace.requests.is_empty());
//! ```

pub mod augment;
pub mod gen;
pub mod io;
pub mod rng;

use serde::{Deserialize, Serialize};

/// Size of one flash page in bytes; the minimum I/O granularity.
pub const PAGE_SIZE: u32 = 4096;

/// Largest request the generators will produce (2 MiB, matching the paper's
/// "one-page (4KB) to big request (2MB)" range in §3.1).
pub const MAX_IO_SIZE: u32 = 2 * 1024 * 1024;

/// Direction of a block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// A read request. Heimdall optimizes read latency (§2).
    Read,
    /// A write request. Writes are absorbed by device buffers but trigger
    /// background activity (GC, flushes) that slows later reads.
    Write,
}

impl IoOp {
    /// Returns `true` for [`IoOp::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, IoOp::Read)
    }
}

/// One block I/O request, the unit every other crate operates on.
///
/// Times are in microseconds since the start of the trace; offsets and sizes
/// are in bytes. This mirrors the `(timestamp, offset, size, type)` tuples of
/// the MSR/Alibaba/Tencent trace formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Trace-unique request id (position in the trace).
    pub id: u64,
    /// Arrival time in microseconds from trace start.
    pub arrival_us: u64,
    /// Starting byte offset on the device.
    pub offset: u64,
    /// Request length in bytes (multiple of [`PAGE_SIZE`]).
    pub size: u32,
    /// Read or write.
    pub op: IoOp,
}

impl IoRequest {
    /// Number of 4 KB pages this request spans (rounded up).
    ///
    /// LinnOS-style per-page policies run one inference per page (§3.5a).
    #[inline]
    pub fn pages(&self) -> u32 {
        self.size.div_ceil(PAGE_SIZE)
    }
}

/// An ordered sequence of I/O requests plus bookkeeping.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Requests sorted by arrival time.
    pub requests: Vec<IoRequest>,
    /// Human-readable origin tag, e.g. `"alibaba-like"`.
    pub name: String,
}

impl Trace {
    /// Creates a trace from a pre-sorted request vector.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `requests` is not sorted by arrival time.
    pub fn new(name: impl Into<String>, requests: Vec<IoRequest>) -> Self {
        debug_assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_us <= w[1].arrival_us),
            "trace requests must be sorted by arrival time"
        );
        Self {
            requests,
            name: name.into(),
        }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Trace duration in microseconds (last arrival minus first).
    pub fn duration_us(&self) -> u64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(f), Some(l)) => l.arrival_us - f.arrival_us,
            _ => 0,
        }
    }

    /// Returns the sub-trace with arrivals in `[start_us, end_us)`,
    /// re-based so the first request arrives at time zero.
    pub fn slice(&self, start_us: u64, end_us: u64) -> Trace {
        let mut out = Vec::new();
        for r in &self.requests {
            if r.arrival_us >= start_us && r.arrival_us < end_us {
                let mut c = *r;
                c.arrival_us -= start_us;
                c.id = out.len() as u64;
                out.push(c);
            }
        }
        Trace::new(format!("{}[{start_us}..{end_us})", self.name), out)
    }

    /// Caps the trace at `cap_us` microseconds, as the paper caps each
    /// experiment trace at 3 minutes (§6.1).
    pub fn capped(&self, cap_us: u64) -> Trace {
        self.slice(
            self.requests.first().map_or(0, |r| r.arrival_us),
            self.requests.first().map_or(0, |r| r.arrival_us) + cap_us,
        )
    }
}

/// Named workload families approximating the paper's trace sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadProfile {
    /// MSR-Cambridge-like: moderate IOPS, read-leaning, strong sequential
    /// runs, small-to-medium sizes.
    MsrLike,
    /// Alibaba-block-like: high IOPS, bursty, wide size mix up to 2 MB.
    AlibabaLike,
    /// Tencent-block-like: write-heavy (≈2× more write IOPS than read, §7),
    /// near-constant interarrival, keeps devices uniformly busy.
    TencentLike,
}

impl WorkloadProfile {
    /// All profiles, handy for sweeps.
    pub const ALL: [WorkloadProfile; 3] = [
        WorkloadProfile::MsrLike,
        WorkloadProfile::AlibabaLike,
        WorkloadProfile::TencentLike,
    ];

    /// Stable lowercase name (used in experiment output).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadProfile::MsrLike => "msr-like",
            WorkloadProfile::AlibabaLike => "alibaba-like",
            WorkloadProfile::TencentLike => "tencent-like",
        }
    }
}

#[cfg(test)]
mod stats;

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, t: u64) -> IoRequest {
        IoRequest {
            id,
            arrival_us: t,
            offset: 0,
            size: PAGE_SIZE,
            op: IoOp::Read,
        }
    }

    #[test]
    fn pages_rounds_up() {
        let mut r = req(0, 0);
        r.size = PAGE_SIZE;
        assert_eq!(r.pages(), 1);
        r.size = PAGE_SIZE + 1;
        assert_eq!(r.pages(), 2);
        r.size = MAX_IO_SIZE;
        assert_eq!(r.pages(), 512);
    }

    #[test]
    fn slice_rebases_time_and_ids() {
        let t = Trace::new("t", vec![req(0, 100), req(1, 200), req(2, 300)]);
        let s = t.slice(150, 301);
        assert_eq!(s.len(), 2);
        assert_eq!(s.requests[0].arrival_us, 50);
        assert_eq!(s.requests[0].id, 0);
        assert_eq!(s.requests[1].arrival_us, 150);
    }

    #[test]
    fn capped_limits_duration() {
        let t = Trace::new("t", vec![req(0, 0), req(1, 10), req(2, 1_000_000)]);
        let c = t.capped(100);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn duration_empty_is_zero() {
        assert_eq!(Trace::default().duration_us(), 0);
    }
}

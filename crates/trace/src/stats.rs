//! Per-trace workload statistics (test-only): the generator calibration
//! tests measure their output with these. They are four of the paper's
//! five window-selection criteria (§6.1): read/write ratio, request size,
//! IOPS and randomness.

use crate::{IoRequest, Trace};
use serde::{Deserialize, Serialize};

/// Summary statistics of a trace or trace window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct TraceStats {
    /// Number of requests.
    pub count: usize,
    /// Fraction of reads in `[0, 1]`.
    pub read_ratio: f64,
    /// Mean request size in bytes.
    pub avg_size: f64,
    /// Requests per second over the window duration.
    pub iops: f64,
    /// Fraction of requests that do *not* continue sequentially from the
    /// previous request (1.0 = fully random).
    pub randomness: f64,
    /// Window duration in microseconds.
    pub duration_us: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
}

impl TraceStats {
    /// Computes statistics over a trace.
    pub(crate) fn compute(trace: &Trace) -> TraceStats {
        Self::compute_slice(&trace.requests)
    }

    /// Computes statistics over a raw request slice (must be arrival-sorted).
    pub(crate) fn compute_slice(reqs: &[IoRequest]) -> TraceStats {
        if reqs.is_empty() {
            return TraceStats {
                count: 0,
                read_ratio: 0.0,
                avg_size: 0.0,
                iops: 0.0,
                randomness: 0.0,
                duration_us: 0,
                total_bytes: 0,
            };
        }
        let count = reqs.len();
        let reads = reqs.iter().filter(|r| r.op.is_read()).count();
        let total_bytes: u64 = reqs.iter().map(|r| r.size as u64).sum();
        let duration_us = reqs.last().unwrap().arrival_us - reqs[0].arrival_us;
        let iops = if duration_us == 0 {
            count as f64
        } else {
            count as f64 / (duration_us as f64 / 1e6)
        };
        let mut nonseq = 0usize;
        for w in reqs.windows(2) {
            if w[1].offset != w[0].offset + w[0].size as u64 {
                nonseq += 1;
            }
        }
        let randomness = if count > 1 {
            nonseq as f64 / (count - 1) as f64
        } else {
            1.0
        };
        TraceStats {
            count,
            read_ratio: reads as f64 / count as f64,
            avg_size: total_bytes as f64 / count as f64,
            iops,
            randomness,
            duration_us,
            total_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoOp, PAGE_SIZE};

    fn mk(id: u64, t: u64, off: u64, size: u32, op: IoOp) -> IoRequest {
        IoRequest {
            id,
            arrival_us: t,
            offset: off,
            size,
            op,
        }
    }

    #[test]
    fn empty_trace_stats() {
        let s = TraceStats::compute(&Trace::default());
        assert_eq!(s.count, 0);
        assert_eq!(s.iops, 0.0);
    }

    #[test]
    fn read_ratio_counts_reads() {
        let reqs = vec![
            mk(0, 0, 0, PAGE_SIZE, IoOp::Read),
            mk(1, 10, 0, PAGE_SIZE, IoOp::Write),
            mk(2, 20, 0, PAGE_SIZE, IoOp::Read),
            mk(3, 30, 0, PAGE_SIZE, IoOp::Read),
        ];
        let s = TraceStats::compute_slice(&reqs);
        assert!((s.read_ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iops_uses_window_duration() {
        // Four requests over 3 ms -> ~1333 IOPS.
        let reqs: Vec<_> = (0..4)
            .map(|i| mk(i, i * 1000, 0, PAGE_SIZE, IoOp::Read))
            .collect();
        let s = TraceStats::compute_slice(&reqs);
        assert!((s.iops - 4.0 / 0.003).abs() < 1.0);
    }

    #[test]
    fn randomness_detects_sequential_runs() {
        // Perfectly sequential stream.
        let reqs: Vec<_> = (0..10)
            .map(|i| mk(i, i * 10, i * PAGE_SIZE as u64, PAGE_SIZE, IoOp::Read))
            .collect();
        let s = TraceStats::compute_slice(&reqs);
        assert_eq!(s.randomness, 0.0);
    }

    #[test]
    fn randomness_detects_random_stream() {
        let reqs: Vec<_> = (0..10)
            .map(|i| {
                mk(
                    i,
                    i * 10,
                    (i * 7919) * PAGE_SIZE as u64,
                    PAGE_SIZE,
                    IoOp::Read,
                )
            })
            .collect();
        let s = TraceStats::compute_slice(&reqs);
        assert_eq!(s.randomness, 1.0);
    }
}

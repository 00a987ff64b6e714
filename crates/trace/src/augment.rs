//! The paper's five data-augmentation functions (§6.1).
//!
//! To increase dataset variability, Heimdall augments each selected trace
//! window with 0.1× rerate, 0.5× rerate, 2× rerate, 2× resize, and 4× resize.
//! Rerating by factor `f` multiplies the request *rate* by `f` (interarrival
//! gaps scale by `1/f`); resizing multiplies request sizes, clamped to the
//! valid page-aligned range.

use crate::{Trace, MAX_IO_SIZE, PAGE_SIZE};

/// Multiplies the request rate by `factor` by scaling interarrival gaps.
///
/// # Panics
///
/// Panics if `factor` is not a positive finite number.
pub fn rerate(trace: &Trace, factor: f64) -> Trace {
    assert!(
        factor.is_finite() && factor > 0.0,
        "rerate factor must be positive"
    );
    let mut out = Vec::with_capacity(trace.len());
    let base = trace.requests.first().map_or(0, |r| r.arrival_us);
    for r in &trace.requests {
        let mut c = *r;
        c.arrival_us = base + (((r.arrival_us - base) as f64) / factor).round() as u64;
        out.push(c);
    }
    Trace::new(format!("{}+rerate{factor}x", trace.name), out)
}

/// Multiplies request sizes by `factor` (page-aligned, clamped).
///
/// # Panics
///
/// Panics if `factor` is not a positive finite number.
pub fn resize(trace: &Trace, factor: f64) -> Trace {
    assert!(
        factor.is_finite() && factor > 0.0,
        "resize factor must be positive"
    );
    let mut out = Vec::with_capacity(trace.len());
    for r in &trace.requests {
        let mut c = *r;
        let scaled = (r.size as f64 * factor).round() as u64;
        let clamped = scaled.clamp(PAGE_SIZE as u64, MAX_IO_SIZE as u64) as u32;
        c.size = clamped / PAGE_SIZE * PAGE_SIZE;
        out.push(c);
    }
    Trace::new(format!("{}+resize{factor}x", trace.name), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoOp, IoRequest};

    fn mk_trace(gap: u64, size: u32, n: u64) -> Trace {
        let reqs = (0..n)
            .map(|i| IoRequest {
                id: i,
                arrival_us: i * gap,
                offset: 0,
                size,
                op: IoOp::Read,
            })
            .collect();
        Trace::new("t", reqs)
    }

    #[test]
    fn rerate_2x_halves_gaps() {
        let t = mk_trace(1000, PAGE_SIZE, 5);
        let r = rerate(&t, 2.0);
        assert_eq!(r.requests[1].arrival_us, 500);
        assert_eq!(r.requests[4].arrival_us, 2000);
    }

    #[test]
    fn rerate_tenth_stretches_gaps() {
        let t = mk_trace(100, PAGE_SIZE, 3);
        let r = rerate(&t, 0.1);
        assert_eq!(r.requests[2].arrival_us, 2000);
    }

    #[test]
    fn rerate_preserves_count_and_sizes() {
        let t = mk_trace(10, 8192, 100);
        let r = rerate(&t, 0.5);
        assert_eq!(r.len(), 100);
        assert!(r.requests.iter().all(|q| q.size == 8192));
    }

    #[test]
    fn resize_scales_and_aligns() {
        let t = mk_trace(10, 4096, 3);
        let r = resize(&t, 2.0);
        assert!(r.requests.iter().all(|q| q.size == 8192));
    }

    #[test]
    fn resize_clamps_to_max() {
        let t = mk_trace(10, MAX_IO_SIZE, 3);
        let r = resize(&t, 4.0);
        assert!(r.requests.iter().all(|q| q.size == MAX_IO_SIZE));
    }

    #[test]
    fn resize_never_below_page() {
        let t = mk_trace(10, PAGE_SIZE, 3);
        let r = resize(&t, 0.1);
        assert!(r.requests.iter().all(|q| q.size == PAGE_SIZE));
    }

    #[test]
    #[should_panic(expected = "rerate factor must be positive")]
    fn zero_rerate_panics() {
        rerate(&mk_trace(10, PAGE_SIZE, 2), 0.0);
    }

    #[test]
    fn rerate_keeps_order() {
        let t = mk_trace(7, PAGE_SIZE, 50);
        let r = rerate(&t, 3.0);
        assert!(r
            .requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
    }
}

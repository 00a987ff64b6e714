//! The 3-stage noise filter (§3.2, Fig 6).
//!
//! Stage 1 drops "lucky" fast outliers inside slow periods (device-cache
//! hits during GC). Stage 2 drops transient slow outliers inside fast
//! periods (read retries, ECC). Stage 3 drops slow bursts too short to be
//! genuine internal contention, with the burst-length threshold found by
//! the same gradient-descent tuner as the labeler.
//!
//! Filtering marks rows for *exclusion from training*; it never rewrites
//! labels, matching the paper's "remove them from the dataset" wording.

use crate::collect::ReadView;
use heimdall_metrics::stats::{median, quantile};
use serde::{Deserialize, Serialize};

/// Noise-filter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Enable stage 1 (fast outliers within slow periods).
    pub stage1: bool,
    /// Enable stage 2 (slow outliers within fast periods).
    pub stage2: bool,
    /// Enable stage 3 (short slow bursts).
    pub stage3: bool,
    /// Stage 2 latency quantile of fast-period I/Os above which an I/O is a
    /// transient outlier.
    pub fast_outlier_q: f64,
    /// Stage 3 burst-length threshold; bursts of at most this many
    /// consecutive slow I/Os are removed. `0` lets [`filter_view`] auto-tune it.
    pub max_short_burst: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            stage1: true,
            stage2: true,
            stage3: true,
            fast_outlier_q: 0.995,
            max_short_burst: 0,
        }
    }
}

/// Per-stage removal counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Rows dropped by stage 1.
    pub slow_period_outliers: usize,
    /// Rows dropped by stage 2.
    pub fast_period_outliers: usize,
    /// Rows dropped by stage 3.
    pub short_bursts: usize,
    /// Burst threshold actually used by stage 3.
    pub burst_threshold: usize,
}

impl FilterStats {
    /// Total rows removed.
    pub fn total(&self) -> usize {
        self.slow_period_outliers + self.fast_period_outliers + self.short_bursts
    }
}

/// Runs the 3-stage filter over any [`ReadView`]. Returns a keep-mask
/// (same length as the view) and per-stage statistics.
///
/// # Panics
///
/// Panics if the view and `labels` lengths differ.
pub fn filter_view(
    view: &ReadView<'_>,
    labels: &[bool],
    cfg: &FilterConfig,
) -> (Vec<bool>, FilterStats) {
    assert_eq!(view.len(), labels.len(), "records/labels length mismatch");
    let n = view.len();
    let mut keep = vec![true; n];
    let mut stats = FilterStats::default();
    if n == 0 {
        return (keep, stats);
    }

    let runs = label_runs(labels);

    if cfg.stage1 {
        // Fig 6a: inside each slow run, drop I/Os faster than the run's
        // median latency AND with throughput above the run's median.
        for &(start, end, slow) in &runs {
            if !slow || end - start < 4 {
                continue;
            }
            let lats: Vec<f64> = (start..end).map(|i| view.latency_us(i) as f64).collect();
            let thpts: Vec<f64> = (start..end).map(|i| view.throughput(i)).collect();
            let med_lat = median(&lats);
            let med_thpt = median(&thpts);
            for (i, kept) in keep.iter_mut().enumerate().take(end).skip(start) {
                if (view.latency_us(i) as f64) < med_lat && view.throughput(i) > med_thpt {
                    *kept = false;
                    stats.slow_period_outliers += 1;
                }
            }
        }
    }

    if cfg.stage2 {
        // Fig 6c/6d: inside fast periods, drop rare transient slow spikes:
        // latency above the fast-period tail quantile with throughput below
        // the fast-period low quantile.
        let fast_lats: Vec<f64> = (0..n)
            .zip(labels)
            .filter(|(_, &l)| !l)
            .map(|(i, _)| view.latency_us(i) as f64)
            .collect();
        let fast_thpts: Vec<f64> = (0..n)
            .zip(labels)
            .filter(|(_, &l)| !l)
            .map(|(i, _)| view.throughput(i))
            .collect();
        if !fast_lats.is_empty() {
            let hi = quantile(&fast_lats, cfg.fast_outlier_q);
            let lo_thpt = quantile(&fast_thpts, 1.0 - cfg.fast_outlier_q);
            for i in 0..n {
                if !labels[i]
                    && keep[i]
                    && view.latency_us(i) as f64 > hi
                    && view.throughput(i) <= lo_thpt.max(f64::MIN_POSITIVE)
                {
                    keep[i] = false;
                    stats.fast_period_outliers += 1;
                }
            }
        }
    }

    if cfg.stage3 {
        // Fig 6b: drop short slow bursts entirely.
        let threshold = if cfg.max_short_burst == 0 {
            tune_burst_threshold(&runs)
        } else {
            cfg.max_short_burst
        };
        stats.burst_threshold = threshold;
        for &(start, end, slow) in &runs {
            if slow && end - start <= threshold {
                for k in keep.iter_mut().take(end).skip(start) {
                    if *k {
                        stats.short_bursts += 1;
                    }
                    *k = false;
                }
            }
        }
    }

    (keep, stats)
}

/// Maximal runs of equal labels as `(start, end_exclusive, label)`.
fn label_runs(labels: &[bool]) -> Vec<(usize, usize, bool)> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=labels.len() {
        if i == labels.len() || labels[i] != labels[start] {
            runs.push((start, i, labels[start]));
            start = i;
        }
    }
    runs
}

/// Picks the short-burst threshold by the paper's high-accuracy /
/// low-sensitivity criterion: choose the largest `t` (capped at 5) whose
/// removal discards at most a small fraction of all slow rows — genuine
/// contention shows up as long runs, so short runs are cheap to drop. The
/// paper reports `t = 3` for most datasets.
fn tune_burst_threshold(runs: &[(usize, usize, bool)]) -> usize {
    let total_slow: usize = runs.iter().filter(|r| r.2).map(|r| r.1 - r.0).sum();
    if total_slow == 0 {
        return 3;
    }
    let mut best = 1;
    for t in 1..=5usize {
        let removed: usize = runs
            .iter()
            .filter(|r| r.2 && r.1 - r.0 <= t)
            .map(|r| r.1 - r.0)
            .sum();
        // Keep sensitivity: never drop more than 15% of slow evidence.
        if removed as f64 / total_slow as f64 <= 0.15 {
            best = t;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{IoRecord, RecordBatch};
    use heimdall_trace::IoOp;

    fn rec(lat: u64, size: u32, t: u64) -> IoRecord {
        IoRecord {
            arrival_us: t,
            finish_us: t + lat,
            size,
            op: IoOp::Read,
            queue_len: 0,
            latency_us: lat,
            throughput: size as f64 / lat.max(1) as f64,
            truth_busy: false,
        }
    }

    /// A slow period of 20 I/Os with 3 embedded cache-hit outliers.
    fn slow_period_with_lucky_ios() -> (RecordBatch, Vec<bool>) {
        let mut recs = Vec::new();
        let mut labels = Vec::new();
        let mut t = 0;
        for _ in 0..30 {
            recs.push(rec(100, 4096, t));
            labels.push(false);
            t += 100;
        }
        for i in 0..20 {
            let lucky = i % 7 == 3;
            recs.push(rec(if lucky { 30 } else { 3000 }, 4096, t));
            labels.push(true);
            t += 100;
        }
        for _ in 0..30 {
            recs.push(rec(100, 4096, t));
            labels.push(false);
            t += 100;
        }
        (RecordBatch::from_records(&recs), labels)
    }

    #[test]
    fn stage1_removes_lucky_fast_ios() {
        let (recs, labels) = slow_period_with_lucky_ios();
        let cfg = FilterConfig {
            stage2: false,
            stage3: false,
            ..Default::default()
        };
        let (keep, stats) = filter_view(&ReadView::from(&recs), &labels, &cfg);
        assert_eq!(stats.slow_period_outliers, 3);
        // Only the lucky ones are dropped.
        for i in 0..recs.len() {
            if !keep[i] {
                assert!(labels[i] && recs.latency_us[i] < 100);
            }
        }
    }

    #[test]
    fn stage2_removes_transient_spikes() {
        let mut recs: Vec<IoRecord> = (0..400)
            .map(|i| rec(100 + (i % 5), 4096, i * 100))
            .collect();
        // One transient retry at 8 ms in a fast period.
        recs[200] = rec(8000, 4096, 200 * 100);
        let recs = RecordBatch::from_records(&recs);
        let labels = vec![false; recs.len()];
        let cfg = FilterConfig {
            stage1: false,
            stage3: false,
            ..Default::default()
        };
        let (keep, stats) = filter_view(&ReadView::from(&recs), &labels, &cfg);
        assert_eq!(stats.fast_period_outliers, 1);
        assert!(!keep[200]);
    }

    #[test]
    fn stage3_removes_short_bursts_only() {
        let mut recs = RecordBatch::new();
        let mut labels = Vec::new();
        let mut t = 0;
        // Short burst of 2 slow, then long run of 30 slow.
        for (count, slow) in [(50, false), (2, true), (50, false), (30, true), (50, false)] {
            for _ in 0..count {
                recs.push(rec(if slow { 3000 } else { 100 }, 4096, t));
                labels.push(slow);
                t += 100;
            }
        }
        let cfg = FilterConfig {
            stage1: false,
            stage2: false,
            max_short_burst: 3,
            ..Default::default()
        };
        let (keep, stats) = filter_view(&ReadView::from(&recs), &labels, &cfg);
        assert_eq!(stats.short_bursts, 2);
        // The long run survives.
        let surviving_slow = labels.iter().zip(&keep).filter(|(&l, &k)| l && k).count();
        assert_eq!(surviving_slow, 30);
    }

    #[test]
    fn auto_burst_threshold_close_to_paper_value() {
        // Mostly long slow runs with a few 2-3 length blips: the tuner
        // should settle in the paper's ~3 neighbourhood.
        let mut runs = vec![
            (0usize, 50usize, true),
            (50, 120, false),
            (120, 160, true),
            (160, 240, false),
            (240, 300, true),
            (300, 400, false),
        ];
        for i in 0..4 {
            let s = 400 + i * 10;
            runs.push((s, s + 2 + i % 2, true));
            runs.push((s + 2 + i % 2, s + 10, false));
        }
        let t = tune_burst_threshold(&runs);
        assert!((2..=5).contains(&t), "threshold {t}");
    }

    #[test]
    fn disabled_filter_keeps_everything() {
        let (recs, labels) = slow_period_with_lucky_ios();
        let cfg = FilterConfig {
            stage1: false,
            stage2: false,
            stage3: false,
            ..Default::default()
        };
        let (keep, stats) = filter_view(&ReadView::from(&recs), &labels, &cfg);
        assert!(keep.iter().all(|&k| k));
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn keep_mask_count_matches_stats() {
        let (recs, labels) = slow_period_with_lucky_ios();
        let (keep, stats) = filter_view(&ReadView::from(&recs), &labels, &FilterConfig::default());
        let kept = keep.iter().filter(|&&k| k).count();
        assert_eq!(kept, recs.len() - stats.total());
    }

    #[test]
    fn empty_input_ok() {
        let empty = RecordBatch::new();
        let (keep, stats) = filter_view(&ReadView::from(&empty), &[], &FilterConfig::default());
        assert!(keep.is_empty());
        assert_eq!(stats.total(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let (recs, _) = slow_period_with_lucky_ios();
        filter_view(&ReadView::from(&recs), &[true], &FilterConfig::default());
    }
}

//! Data labeling: the paper's period-based accurate labeling (§3.1, Fig 4)
//! and the latency-cutoff baseline used by prior work (LinnOS et al.).
//!
//! Cutoff labeling thresholds each I/O's *latency* in isolation, which
//! mislabels big-but-healthy I/Os as "slow" (Fig 3b). Period labeling
//! instead detects *windows* of device busyness — simultaneous latency
//! spikes and throughput drops. Throughput here is the *device* throughput
//! (bytes completed over a trailing window), which "takes I/O size into
//! account" (§3.1): a healthy big I/O raises it while genuine contention
//! collapses it. Threshold percentiles are tuned by a gradient-descent
//! search balancing accuracy (class separation) and sensitivity (slow
//! fraction), per Fig 3d.

use crate::collect::ReadView;
use heimdall_metrics::stats::{
    median, median_inplace, median_sorted, quantile_sorted, sort_for_quantiles,
};
use serde::{Deserialize, Serialize};

/// Tunable thresholds of the period labeler (the Fig 4 inputs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodThresholds {
    /// Latency quantile above which an I/O "looks slow" (e.g. 0.90).
    pub high_lat_q: f64,
    /// Device-throughput quantile below which the device "looks starved".
    pub low_thpt_q: f64,
    /// Relative device-throughput drop versus the trailing window that also
    /// flags busyness onset (`0.5` = halved throughput).
    pub max_drop: f64,
    /// Trailing window for device-throughput measurement, microseconds.
    pub window_us: u64,
}

impl Default for PeriodThresholds {
    fn default() -> Self {
        PeriodThresholds {
            high_lat_q: 0.90,
            low_thpt_q: 0.30,
            max_drop: 0.5,
            window_us: 20_000,
        }
    }
}

/// Latency-cutoff labeling (prior work, Fig 3a).
///
/// The cutoff is placed at the knee of the latency CDF: the sorted-latency
/// point with maximum distance from the chord connecting the distribution's
/// endpoints. Everything above the cutoff is labeled slow.
///
/// Returns one label per record (`true` = slow), over any [`ReadView`]
/// (a whole batch or an indexed read subset).
pub fn cutoff_label_view(view: &ReadView<'_>) -> Vec<bool> {
    let n = view.len();
    if n == 0 {
        return Vec::new();
    }
    let mut lats: Vec<f64> = (0..n).map(|i| view.latency_us(i) as f64).collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let cutoff = knee_point(&lats);
    (0..n).map(|i| view.latency_us(i) as f64 > cutoff).collect()
}

/// Knee of a sorted curve via max perpendicular distance from the
/// end-to-end chord; falls back to the median for flat curves.
fn knee_point(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n < 3 {
        return sorted[n - 1];
    }
    let (x0, y0) = (0.0, sorted[0]);
    let (x1, y1) = ((n - 1) as f64, sorted[n - 1]);
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    if norm == 0.0 {
        return median(sorted);
    }
    let mut best = (0.0, sorted[n / 2]);
    for (i, &y) in sorted.iter().enumerate() {
        let d = (dy * (i as f64 - x0) - dx * (y - y0)).abs() / norm;
        if d > best.0 {
            best = (d, y);
        }
    }
    best.1
}

/// Device *health* observed at each record's arrival, in `(0, ~2]`:
/// the inverse of the windowed, size-normalized completion slowness.
///
/// Each completed read's latency is normalized by the trace's median
/// latency for its size bucket (so a big-but-healthy I/O scores ~1 — the
/// §3.1 size-awareness), and the health at time `t` is the reciprocal of
/// the clamped mean slowness of completions in the trailing `window_us`.
/// A healthy device sits near 1 regardless of arrival rate or size mix;
/// internal contention (amplified reads) or queue build-up drives health
/// toward 0. This one signal captures both throughput collapse under load
/// and latency inflation on lightly-loaded devices.
///
/// Produces bitwise-identical health series for the same logical records
/// regardless of the [`ReadView`] layout.
pub fn device_throughput_view(view: &ReadView<'_>, window_us: u64) -> Vec<f64> {
    let n = view.len();
    if n == 0 {
        return Vec::new();
    }
    // Per-size-bucket baseline latency (log2 buckets from 4 KB).
    let bucket = |size: u32| (size.max(1) / 4096).next_power_of_two().trailing_zeros() as usize;
    let mut by_bucket: Vec<Vec<f64>> = vec![Vec::new(); 12];
    for i in 0..n {
        let b = bucket(view.size(i)).min(11);
        by_bucket[b].push(view.latency_us(i) as f64);
    }
    let overall = median_inplace(
        &mut (0..n)
            .map(|i| view.latency_us(i) as f64)
            .collect::<Vec<_>>(),
    );
    let baselines: Vec<f64> = by_bucket
        .iter_mut()
        .map(|v| {
            if v.len() >= 8 {
                median_inplace(v).max(1.0)
            } else {
                overall.max(1.0)
            }
        })
        .collect();

    // Completion events (finish time, slowness), sorted by finish.
    let mut completions: Vec<(u64, f64)> = (0..n)
        .map(|i| {
            let b = bucket(view.size(i)).min(11);
            let slowness = (view.latency_us(i) as f64 / baselines[b]).clamp(0.2, 25.0);
            (view.finish_us(i), slowness)
        })
        .collect();
    completions.sort_unstable_by_key(|c| c.0);
    let finishes: Vec<u64> = completions.iter().map(|c| c.0).collect();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0f64);
    for c in &completions {
        prefix.push(prefix.last().unwrap() + c.1);
    }

    let w = window_us.max(1);
    let mut last_health = 1.0;
    (0..n)
        .map(|i| {
            let arrival = view.arrival_us(i);
            let hi = finishes.partition_point(|&f| f <= arrival);
            let lo = finishes.partition_point(|&f| f.saturating_add(w) <= arrival);
            if hi > lo {
                let mean_slowness = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
                last_health = (1.0 / mean_slowness).min(2.0);
            }
            last_health
        })
        .collect()
}

/// Records in the trailing health mean behind the MAX_DROP onset test.
const TRAIL: usize = 16;

/// Threshold-independent labeling state, computed once per trace.
///
/// Everything in [`period_label_view`] that does not depend on the candidate
/// [`PeriodThresholds`] lives here: the device-health series from
/// [`device_throughput_view`], each record's trailing health mean, the
/// sorted latency / health arrays behind the quantile cuts, the records in
/// descending-latency order, and the histogram of distinct latencies. The
/// tuner never varies `window_us`, so its objective evaluations (76 on the
/// benchmark's `pipeline_msr` log, 15 of them repeats it skips) share one
/// scratch instead of a full re-sort-and-rebuild each. A relabel scans only
/// the records above the latency cut and walks each tail zone once; the
/// objective then reads the histogram, not the records.
#[derive(Debug, Clone)]
pub struct LabelingScratch {
    window_us: u64,
    thpts: Vec<f64>,
    sorted_lats: Vec<f64>,
    sorted_thpts: Vec<f64>,
    thpt_median: f64,
    /// Every record, latency descending: the fields the seed test reads.
    ranked: Vec<Ranked>,
    /// `None` when the histogram objective would not be exact; the tuner
    /// then scores through [`labeling_objective_scratch`].
    hist: Option<LatencyHistogram>,
}

/// One record of [`LabelingScratch::ranked`].
#[derive(Debug, Clone, Copy)]
struct Ranked {
    lat: f64,
    thpt: f64,
    trail: f64,
    rec: usize,
}

/// The log's latencies as a histogram: what the objective needs of a
/// labeling is how many records of each distinct latency are slow.
#[derive(Debug, Clone)]
struct LatencyHistogram {
    /// Distinct latencies, ascending.
    values: Vec<f64>,
    /// Records per distinct latency.
    counts: Vec<u32>,
    /// Each record's index into `values`.
    of_record: Vec<u32>,
}

impl LabelingScratch {
    /// Builds the scratch for one trace and throughput window.
    pub fn new_view(view: &ReadView<'_>, window_us: u64) -> LabelingScratch {
        let thpts = device_throughput_view(view, window_us);
        Self::from_series(
            window_us,
            (0..view.len()).map(|i| view.latency_us(i)),
            thpts,
        )
    }

    /// The scratch for per-record latencies and health.
    fn from_series(
        window_us: u64,
        lats: impl Iterator<Item = u64>,
        thpts: Vec<f64>,
    ) -> LabelingScratch {
        let mut trail_sum = 0.0f64;
        let mut ranked: Vec<Ranked> = lats
            .zip(&thpts)
            .enumerate()
            .map(|(rec, (lat, &thpt))| {
                let trail_len = rec.min(TRAIL);
                let trail = if trail_len == 0 {
                    thpt
                } else {
                    trail_sum / trail_len as f64
                };
                trail_sum += thpt;
                if rec >= TRAIL {
                    trail_sum -= thpts[rec - TRAIL];
                }
                Ranked {
                    lat: lat as f64,
                    thpt,
                    trail,
                    rec,
                }
            })
            .collect();
        // The one latency sort: descending here, ascending when reversed.
        ranked.sort_unstable_by(|a, b| b.lat.total_cmp(&a.lat));
        let sorted_lats = ranked.iter().rev().map(|r| r.lat).collect();
        let hist = LatencyHistogram::new(&ranked);
        let mut sorted_thpts = thpts.clone();
        sort_for_quantiles(&mut sorted_thpts);
        let thpt_median = median_sorted(&sorted_thpts);
        LabelingScratch {
            window_us,
            thpts,
            sorted_lats,
            sorted_thpts,
            thpt_median,
            ranked,
            hist,
        }
    }

    /// The throughput window the scratch was built for.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The one period labeler: Fig 4's labels for `th`, as a bitmap in
    /// `bits.labels`.
    fn label_bits(&self, n: usize, th: &PeriodThresholds, bits: &mut LabelBits) {
        assert_eq!(n, self.thpts.len(), "scratch built for a different trace");
        assert_eq!(
            th.window_us, self.window_us,
            "scratch built for a different throughput window"
        );
        // Line 4 of Fig 4: CalcThreshold. The starvation threshold is the
        // configured quantile, capped well below the median so that a tight
        // throughput distribution (healthy device at steady state) never
        // reads as starved.
        let high_lat = quantile_sorted(&self.sorted_lats, th.high_lat_q);
        let thpt_median = self.thpt_median;
        let low_thpt = quantile_sorted(&self.sorted_thpts, th.low_thpt_q)
            .min(thpt_median * (1.0 - th.max_drop));
        // Tail zones extend while throughput stays clearly depressed.
        let extend_below = thpt_median * (1.0 - th.max_drop / 2.0);

        // Line 9: IsBusy — suspicious only when latency is high AND the
        // throughput signal corroborates: a low health or a drop against
        // the trailing mean. Only the records above the latency cut can
        // seed, and they are a prefix of `ranked`.
        let seeds = &mut bits.seeds;
        seeds.clear();
        seeds.resize(n.div_ceil(64), 0);
        for r in self.ranked.iter().take_while(|r| r.lat > high_lat) {
            let dropped = r.trail > 0.0 && r.thpt < r.trail * (1.0 - th.max_drop);
            if r.thpt < low_thpt || dropped {
                seeds[r.rec / 64] |= 1 << (r.rec % 64);
            }
        }
        // Lines 11-15: extend the TailZone while device throughput stays
        // depressed. Seeds ascend and a zone is a contiguous run, so a seed
        // at or before the previous walk's end (`reach`) would re-walk
        // records already labeled and stop at the same place: resuming at
        // `reach` visits each record at most once however dense the seeds.
        let labels = &mut bits.labels;
        labels.clear();
        labels.extend_from_slice(seeds);
        let mut reach = 0;
        for s in set_bits(seeds) {
            let mut j = reach.max(s + 1);
            while j < n && self.thpts[j] < extend_below {
                labels[j / 64] |= 1 << (j % 64);
                j += 1;
            }
            reach = j;
        }
    }

    /// The tuner's objective for the labeling in `bits.labels`: from the
    /// histogram, or record by record for a log beyond its exactness bound.
    fn objective(&self, view: &ReadView<'_>, bits: &mut LabelBits, buf: &mut Vec<f64>) -> f64 {
        match &self.hist {
            Some(hist) => hist.objective(&bits.labels, &mut bits.slow),
            None => labeling_objective_scratch(view, &bits.to_bools(view.len()), buf),
        }
    }
}

impl LatencyHistogram {
    /// The histogram of a log in descending latency, or `None` when
    /// Σ latency ≥ 2⁵¹.
    ///
    /// Latencies are integers and the fast median is a multiple of ½, so
    /// every excess term `count × (v − median)` is a multiple of ½. Below
    /// the bound every partial sum of such terms is exact in f64 in any
    /// order, so [`LatencyHistogram::objective`] equals the record-order
    /// sums of [`labeling_objective_scratch`] bit for bit.
    fn new(ranked: &[Ranked]) -> Option<LatencyHistogram> {
        // Below the bound every latency is below 2⁵¹, so its f64 is exact
        // and converts back to the same integer.
        let total = ranked
            .iter()
            .try_fold(0u64, |s, r| s.checked_add(r.lat as u64))?;
        if total >= 1 << 51 || u32::try_from(ranked.len()).is_err() {
            return None;
        }
        let mut values: Vec<f64> = Vec::new();
        let mut counts = Vec::new();
        let mut of_record = vec![0; ranked.len()];
        for r in ranked.iter().rev() {
            if values.last() != Some(&r.lat) {
                values.push(r.lat);
                counts.push(0);
            }
            let d = values.len() - 1;
            counts[d] += 1;
            of_record[r.rec] = d as u32;
        }
        Some(LatencyHistogram {
            values,
            counts,
            of_record,
        })
    }

    /// [`labeling_objective_view`] of the labeling in `labels`, from the
    /// histogram: O(slow records + distinct latencies). `slow` is reused
    /// across calls.
    fn objective(&self, labels: &[u64], slow: &mut Vec<u32>) -> f64 {
        let n = self.of_record.len();
        let n_slow = labels
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        if n_slow == 0 || n_slow == n {
            return f64::MIN;
        }
        slow.clear();
        slow.resize(self.values.len(), 0);
        for i in set_bits(labels) {
            slow[self.of_record[i] as usize] += 1;
        }
        // The fast median: `quantile_inplace`'s order statistics `lo` and
        // `hi`, found by walking the fast counts upward.
        let pos = 0.5 * (n - n_slow - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let (mut lo_val, mut hi_val) = (0.0, 0.0);
        let mut below = 0;
        for (d, &v) in self.values.iter().enumerate() {
            let fast = (self.counts[d] - slow[d]) as usize;
            if below <= lo && lo < below + fast {
                lo_val = v;
            }
            if hi < below + fast {
                hi_val = v;
                break;
            }
            below += fast;
        }
        let median = if lo == hi {
            lo_val
        } else {
            lo_val + (pos - lo as f64) * (hi_val - lo_val)
        };
        let fast_med = median.max(1.0);
        let mut slow_excess = 0.0f64;
        let mut fast_excess = 0.0f64;
        for (d, &v) in self.values.iter().enumerate().rev() {
            if v <= fast_med {
                break;
            }
            let e = v - fast_med;
            slow_excess += slow[d] as f64 * e;
            fast_excess += (self.counts[d] - slow[d]) as f64 * e;
        }
        objective_score(n, n_slow, slow_excess, fast_excess)
    }
}

/// Per-candidate buffers, reused across the tuner's evaluations.
#[derive(Debug, Default)]
struct LabelBits {
    seeds: Vec<u64>,
    labels: Vec<u64>,
    slow: Vec<u32>,
}

impl LabelBits {
    /// The label bitmap as one `bool` per record.
    fn to_bools(&self, n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| self.labels[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }
}

/// Indices of the set bits of a bitmap, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

/// The Fig 4 `AccurateLabeling` algorithm: period-based labels.
///
/// Stage (a): an I/O is a *busy seed* when its latency is above the
/// `high_lat` threshold and the device throughput at its arrival is below
/// `low_thpt` **or** dropped by more than `max_drop` versus the trailing
/// mean. Stage (c): from each seed, the tail zone extends forward while
/// device throughput stays below the trace median.
///
/// Returns one label per record (`true` = slow / decline).
pub fn period_label_view(view: &ReadView<'_>, th: &PeriodThresholds) -> Vec<bool> {
    if view.is_empty() {
        return Vec::new();
    }
    period_label_with_view(view, th, &LabelingScratch::new_view(view, th.window_us))
}

/// [`period_label_view`] from a prebuilt [`LabelingScratch`]: no re-sort,
/// no device-throughput rebuild. Returns exactly the labels
/// [`period_label_view`] would.
///
/// # Panics
///
/// Panics if the scratch was built for a different record count or
/// throughput window than `th` asks for.
pub fn period_label_with_view(
    view: &ReadView<'_>,
    th: &PeriodThresholds,
    scratch: &LabelingScratch,
) -> Vec<bool> {
    let mut bits = LabelBits::default();
    scratch.label_bits(view.len(), th, &mut bits);
    bits.to_bools(view.len())
}

/// Objective the threshold search maximizes (Fig 3d): class-separation
/// "accuracy" balanced against "sensitivity" (slow fraction), with a strong
/// penalty for degenerate labelings.
///
/// # Panics
///
/// Panics if `labels` does not hold one label per record.
pub(crate) fn labeling_objective_view(view: &ReadView<'_>, labels: &[bool]) -> f64 {
    labeling_objective_scratch(view, labels, &mut Vec::new())
}

/// [`labeling_objective_view`] on a reused latency buffer, record by
/// record: the tuner's scorer for a log beyond [`LatencyHistogram`]'s
/// exactness bound.
fn labeling_objective_scratch(view: &ReadView<'_>, labels: &[bool], buf: &mut Vec<f64>) -> f64 {
    let n = view.len();
    assert_eq!(n, labels.len(), "records/labels length mismatch");
    let n_slow = labels.iter().filter(|&&l| l).count();
    if n_slow == 0 || n_slow == n || n == 0 {
        return f64::MIN;
    }
    // Accuracy proxy: how much of the trace's tail-latency mass the slow
    // labels capture. "Excess" is latency above the fast median.
    buf.clear();
    buf.extend(
        (0..n)
            .zip(labels)
            .filter(|(_, &l)| !l)
            .map(|(i, _)| view.latency_us(i) as f64),
    );
    let fast_med = median_inplace(buf).max(1.0);
    let excess = |lat: f64| (lat - fast_med).max(0.0);
    // One pass in record order; each class accumulates in the same order
    // the old per-class vectors summed in.
    let mut slow_excess = 0.0f64;
    let mut fast_excess = 0.0f64;
    for (i, &l) in (0..n).zip(labels) {
        let e = excess(view.latency_us(i) as f64);
        if l {
            slow_excess += e;
        } else {
            fast_excess += e;
        }
    }
    objective_score(n, n_slow, slow_excess, fast_excess)
}

/// The Fig 3d score of a labeling with `n_slow` of `n` records slow and
/// the given excess latency per class.
fn objective_score(n: usize, n_slow: usize, slow_excess: f64, fast_excess: f64) -> f64 {
    let sensitivity = n_slow as f64 / n as f64;
    let total = slow_excess + fast_excess;
    let capture = if total > 0.0 {
        slow_excess / total
    } else {
        0.0
    };
    // Slow periods occupy roughly 1-10% of the time (§2); anything within a
    // generous band is acceptable, outside it costs.
    let sens_penalty = if sensitivity < 0.005 {
        (0.005 - sensitivity) * 100.0
    } else if sensitivity > 0.30 {
        (sensitivity - 0.30) * 4.0
    } else {
        0.0
    };
    capture - sens_penalty - 0.3 * sensitivity
}

/// Finite-difference gradient-ascent search for [`PeriodThresholds`]
/// (the Fig 3d tuner). Deterministic; bounded to sensible quantile ranges.
///
/// Builds one [`LabelingScratch`] up front; every objective evaluation is
/// then a relabel from it and a histogram score, on reused buffers, and a
/// candidate already scored is not evaluated again. Returns
/// bitwise-identical thresholds to [`tune_thresholds_reference`].
pub fn tune_thresholds_view(view: &ReadView<'_>) -> PeriodThresholds {
    if view.len() < 32 {
        return PeriodThresholds::default();
    }
    let scratch = LabelingScratch::new_view(view, PeriodThresholds::default().window_us);
    tune_thresholds_with_view(view, &scratch)
}

/// [`tune_thresholds_view`] from a caller-prebuilt [`LabelingScratch`], so
/// the pipeline can share one scratch between the tuner and the final
/// labeling pass.
///
/// # Panics
///
/// Panics if the scratch was built for a different trace or window than
/// the default thresholds use.
pub fn tune_thresholds_with_view(
    view: &ReadView<'_>,
    scratch: &LabelingScratch,
) -> PeriodThresholds {
    let n = view.len();
    if n < 32 {
        return PeriodThresholds::default();
    }
    let mut bits = LabelBits::default();
    let mut buf = Vec::new();
    // The objective is a pure function of the three quantiles (the window
    // is the scratch's), so a candidate the search revisits keeps its score.
    let mut scored: Vec<([u64; 3], f64)> = Vec::new();
    search_thresholds(|t| {
        let key = [t.high_lat_q, t.low_thpt_q, t.max_drop].map(f64::to_bits);
        if let Some(&(_, v)) = scored.iter().find(|(k, _)| *k == key) {
            return v;
        }
        scratch.label_bits(n, t, &mut bits);
        let v = scratch.objective(view, &mut bits, &mut buf);
        scored.push((key, v));
        v
    })
}

/// The pre-scratch tuner: rebuilds the device-health series and every
/// sorted array on each objective evaluation, exactly as the original
/// implementation did. Kept as the differential baseline for the
/// bitwise-identity regression test and the training bench's before/after
/// lane.
pub fn tune_thresholds_reference(view: &ReadView<'_>) -> PeriodThresholds {
    if view.len() < 32 {
        return PeriodThresholds::default();
    }
    search_thresholds(|t| {
        let scratch = LabelingScratch::new_view(view, t.window_us);
        labeling_objective_view(view, &period_label_with_view(view, t, &scratch))
    })
}

/// The shared search schedule (coarse grid multi-start + 24 iterations of
/// coordinate descent with step halving), parameterized over the objective
/// evaluator so the fast and reference paths cannot drift apart.
fn search_thresholds(mut eval: impl FnMut(&PeriodThresholds) -> f64) -> PeriodThresholds {
    let mut th = PeriodThresholds::default();
    // Multi-start: the objective is a plateau of minus-infinity wherever a
    // parameter combination labels nothing, so a single descent can get
    // stuck. Seed from a coarse grid first.
    let mut best = eval(&th);
    for hl in [0.80, 0.90, 0.95] {
        for lt in [0.20, 0.35, 0.50] {
            for md in [0.3, 0.5, 0.7] {
                let cand = PeriodThresholds {
                    high_lat_q: hl,
                    low_thpt_q: lt,
                    max_drop: md,
                    window_us: th.window_us,
                };
                let v = eval(&cand);
                if v > best {
                    best = v;
                    th = cand;
                }
            }
        }
    }
    let mut step = 0.08;
    for _iter in 0..24 {
        let mut improved = false;
        // Coordinate-wise finite-difference steps.
        for dim in 0..3 {
            for dir in [-1.0f64, 1.0] {
                let mut cand = th;
                match dim {
                    0 => cand.high_lat_q = (th.high_lat_q + dir * step).clamp(0.5, 0.99),
                    1 => cand.low_thpt_q = (th.low_thpt_q + dir * step).clamp(0.05, 0.6),
                    _ => cand.max_drop = (th.max_drop + dir * step).clamp(0.1, 0.9),
                }
                let v = eval(&cand);
                if v > best {
                    best = v;
                    th = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
            if step < 0.005 {
                break;
            }
        }
    }
    th
}

/// Scores labels against the simulator's ground-truth busy flags
/// (evaluation only — this is how Fig 5a compares cutoff vs period).
/// Returns balanced accuracy, since busy periods are the rare class.
///
/// # Panics
///
/// Panics if `labels` does not hold one label per record.
pub fn labeling_accuracy_view(view: &ReadView<'_>, labels: &[bool]) -> f64 {
    let n = view.len();
    assert_eq!(n, labels.len(), "records/labels length mismatch");
    if n == 0 {
        return 0.0;
    }
    let mut tp = 0u64;
    let mut fn_ = 0u64;
    let mut tn = 0u64;
    let mut fp = 0u64;
    for (i, &l) in (0..n).zip(labels) {
        match (l, view.truth_busy(i)) {
            (true, true) => tp += 1,
            (false, true) => fn_ += 1,
            (false, false) => tn += 1,
            (true, false) => fp += 1,
        }
    }
    let tpr = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let tnr = if tn + fp == 0 {
        1.0
    } else {
        tn as f64 / (tn + fp) as f64
    };
    (tpr + tnr) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_batch, read_indices, IoRecord, RecordBatch};
    use heimdall_ssd::{DeviceConfig, SsdDevice};
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::{IoOp, WorkloadProfile};

    /// Open-loop record builder: arrival and latency are given directly
    /// (finish = arrival + latency), so tests can depict the Fig 3c shape —
    /// a slow period where latencies spike *and* completions thin out.
    fn rec(arrival: u64, latency: u64, size: u32, busy: bool) -> IoRecord {
        IoRecord {
            arrival_us: arrival,
            finish_us: arrival + latency,
            size,
            op: IoOp::Read,
            queue_len: 0,
            latency_us: latency,
            throughput: size as f64 / latency.max(1) as f64,
            truth_busy: busy,
        }
    }

    /// Test thresholds with a 5 ms throughput window (arrivals every 200 us
    /// here, so ~25 completions per window when healthy).
    fn test_thresholds() -> PeriodThresholds {
        PeriodThresholds {
            window_us: 5_000,
            ..Default::default()
        }
    }

    /// 300 fast I/Os, then a 40-I/O busy window where latency jumps ~20x
    /// and completions thin to one per millisecond, then 300 fast I/Os.
    fn synthetic_busy_window() -> RecordBatch {
        let mut v = RecordBatch::new();
        for i in 0..640u64 {
            let t = i * 200;
            if (300..340).contains(&i) {
                // Growing latencies: the k-th busy I/O completes ~1 ms after
                // the previous (completion rate collapses 5x).
                let k = i - 300;
                v.push(rec(t, 2000 + k * 800, 4096, true));
            } else {
                v.push(rec(t, 100 + i % 7, 4096, false));
            }
        }
        v
    }

    /// Fast period with interleaved big healthy I/Os: latency is high for
    /// the big ones, but the device moves plenty of bytes.
    fn big_healthy_mix() -> RecordBatch {
        let mut v = RecordBatch::new();
        let mut t = 0;
        for i in 0..400u64 {
            if i % 10 == 0 {
                v.push(rec(t, 700, 2 << 20, false)); // 2 MB in 700 us
                t += 800;
            } else {
                v.push(rec(t, 100 + i % 7, 4096, false));
                t += 200;
            }
        }
        v
    }

    #[test]
    fn period_label_finds_busy_window() {
        let recs = synthetic_busy_window();
        let view = ReadView::from(&recs);
        let labels = period_label_view(&view, &test_thresholds());
        let acc = labeling_accuracy_view(&view, &labels);
        assert!(acc > 0.7, "balanced accuracy {acc}");
    }

    #[test]
    fn period_label_does_not_flag_big_healthy_ios() {
        let recs = big_healthy_mix();
        let labels = period_label_view(&ReadView::from(&recs), &test_thresholds());
        let big_flagged = recs
            .size
            .iter()
            .zip(&labels)
            .filter(|(&size, &l)| size > 1 << 20 && l)
            .count();
        let big_total = recs.size.iter().filter(|&&size| size > 1 << 20).count();
        assert!(
            big_flagged * 10 <= big_total,
            "{big_flagged}/{big_total} big healthy I/Os mislabeled slow"
        );
    }

    #[test]
    fn cutoff_label_mislabels_big_ios() {
        // Same scenario: the cutoff labeler flags the big I/Os — exactly
        // the Fig 3b failure the paper motivates with.
        let recs = big_healthy_mix();
        let labels = cutoff_label_view(&ReadView::from(&recs));
        let big_flagged = recs
            .size
            .iter()
            .zip(&labels)
            .filter(|(&size, &l)| size > 1 << 20 && l)
            .count();
        assert!(
            big_flagged >= 30,
            "cutoff flagged only {big_flagged} big I/Os"
        );
    }

    #[test]
    fn period_beats_cutoff_on_big_healthy_ios_in_mixed_scenario() {
        // The Fig 3b failure: a busy window coexists with a continuum of
        // healthy big I/Os whose latencies (250-3000 us) overlap the
        // contention tail (1500-7400 us). Any latency cutoff must then flag
        // healthy 2 MB I/Os as slow; period labeling must not.
        let mut recs = Vec::new();
        let mut t = 0;
        for i in 0..900u64 {
            if (400..440).contains(&i) {
                let k = i - 400;
                recs.push(rec(t, 1500 + k * 400, 4096, true));
                t += 200;
            } else if i % 3 == 0 {
                let (size, lat) = match i / 3 % 4 {
                    0 => (256 * 1024u32, 250 + i % 5 * 30),
                    1 => (512 * 1024, 450 + i % 5 * 40),
                    2 => (1024 * 1024, 900 + i % 5 * 60),
                    _ => (2048 * 1024, 1800 + i % 7 * 200),
                };
                recs.push(rec(t, lat, size, false));
                t += 400;
            } else {
                recs.push(rec(t, 100 + i % 7, 4096, false));
                t += 200;
            }
        }
        let th = PeriodThresholds {
            window_us: 5_000,
            max_drop: 0.35,
            ..Default::default()
        };
        let batch = RecordBatch::from_records(&recs);
        let view = ReadView::from(&batch);
        let period = period_label_view(&view, &th);
        let cutoff = cutoff_label_view(&view);
        let big_mislabels = |labels: &[bool]| {
            recs.iter()
                .zip(labels)
                .filter(|(r, &l)| r.size >= 1024 * 1024 && !r.truth_busy && l)
                .count()
        };
        let (pm, cm) = (big_mislabels(&period), big_mislabels(&cutoff));
        assert!(
            pm * 3 < cm,
            "period mislabeled {pm} big healthy I/Os vs cutoff {cm}"
        );
        // And period must still catch a good share of the busy window.
        let tp = recs
            .iter()
            .zip(&period)
            .filter(|(r, &l)| r.truth_busy && l)
            .count();
        assert!(tp >= 15, "period caught only {tp}/40 busy I/Os");
    }

    #[test]
    fn device_throughput_drops_during_busy_window() {
        let recs = synthetic_busy_window();
        let thpts = device_throughput_view(&ReadView::from(&recs), 5_000);
        let fast_mean: f64 = thpts[50..300].iter().sum::<f64>() / 250.0;
        // Late in the busy window the completion rate has collapsed.
        let busy_mean: f64 = thpts[325..340].iter().sum::<f64>() / 15.0;
        assert!(
            busy_mean < fast_mean * 0.5,
            "busy {busy_mean} vs fast {fast_mean}"
        );
    }

    #[test]
    fn health_near_one_when_completions_are_normal() {
        let recs: Vec<IoRecord> = (0..200)
            .map(|i| rec(i * 200, 100 + i % 7, 4096, false))
            .collect();
        let recs = RecordBatch::from_records(&recs);
        let health = device_throughput_view(&ReadView::from(&recs), 5_000);
        for &h in &health[30..] {
            assert!(h > 0.8 && h <= 2.0, "health {h}");
        }
    }

    #[test]
    fn health_normalizes_by_size() {
        // Healthy mix of small (100 us) and 2 MB (700 us) reads: both are
        // normal for their size, so health stays near 1.
        let recs = big_healthy_mix();
        let health = device_throughput_view(&ReadView::from(&recs), 5_000);
        for &h in &health[30..] {
            assert!(h > 0.7, "big healthy I/O depressed health to {h}");
        }
    }

    #[test]
    fn health_collapses_when_latencies_inflate() {
        // Same arrival rate, but a window where every read takes 20x its
        // normal time (no queue starvation needed).
        let mut recs = RecordBatch::new();
        for i in 0..600u64 {
            let lat = if (300..340).contains(&i) {
                2000
            } else {
                100 + i % 7
            };
            recs.push(rec(i * 200, lat, 4096, (300..340).contains(&i)));
        }
        let health = device_throughput_view(&ReadView::from(&recs), 5_000);
        let min = health[320..345].iter().cloned().fold(f64::MAX, f64::min);
        assert!(min < 0.3, "inflated latencies left health at {min}");
    }

    #[test]
    fn health_stays_up_for_bursty_healthy_traffic() {
        // Quiet stretch then a 10x arrival burst, all served promptly.
        let mut recs = RecordBatch::new();
        let mut t = 0;
        for _ in 0..100 {
            recs.push(rec(t, 100, 4096, false));
            t += 2000;
        }
        for _ in 0..500 {
            recs.push(rec(t, 100, 4096, false));
            t += 200;
        }
        let health = device_throughput_view(&ReadView::from(&recs), 5_000);
        let min = health[10..].iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            min > 0.7,
            "healthy bursty traffic misread: min health {min}"
        );
    }

    #[test]
    fn tail_zone_extends_past_seed() {
        let recs = synthetic_busy_window();
        let labels = period_label_view(&ReadView::from(&recs), &test_thresholds());
        // The latter part of the busy window must be labeled even though
        // only a few I/Os seed the zone (detection lags ~one window).
        let mid = &labels[320..340];
        let hits = mid.iter().filter(|&&l| l).count();
        assert!(hits >= 15, "only {hits}/20 of the busy tail labeled");
    }

    /// Cheap seeded synthetic trace: mixed sizes, seed-positioned busy
    /// windows with latency inflation and completion thinning — enough
    /// structure to drive the tuner off its defaults.
    fn seeded_trace(seed: u64) -> RecordBatch {
        let mut rng = heimdall_trace::rng::Rng64::new(seed ^ 0x6c61_6265_6c74);
        let n = 400 + rng.below(200);
        let busy_at = 100 + rng.below(n - 200);
        let busy_len = 20 + rng.below(40);
        let mut v = RecordBatch::new();
        let mut t = 0u64;
        for i in 0..n {
            let busy = i >= busy_at && i < busy_at + busy_len;
            if busy {
                let k = i - busy_at;
                v.push(rec(t, 1500 + k * rng.range(200, 900), 4096, true));
                t += 200;
            } else if rng.chance(0.1) {
                let size = 1u32 << rng.range(14, 22);
                v.push(rec(t, 150 + size as u64 / 3000, size, false));
                t += 400;
            } else {
                v.push(rec(t, 80 + rng.below(40), 4096, false));
                t += 150 + rng.below(120);
            }
        }
        v
    }

    #[test]
    fn scratch_tuner_is_bitwise_identical_to_reference_on_24_seeded_traces() {
        for seed in 0..24u64 {
            let recs = seeded_trace(seed);
            let view = ReadView::from(&recs);
            let fast = tune_thresholds_view(&view);
            let slow = tune_thresholds_reference(&view);
            assert!(
                fast.high_lat_q.to_bits() == slow.high_lat_q.to_bits()
                    && fast.low_thpt_q.to_bits() == slow.low_thpt_q.to_bits()
                    && fast.max_drop.to_bits() == slow.max_drop.to_bits()
                    && fast.window_us == slow.window_us,
                "seed {seed}: {fast:?} != {slow:?}"
            );
            assert_eq!(
                period_label_view(&view, &fast),
                period_label_with_view(
                    &view,
                    &fast,
                    &LabelingScratch::new_view(&view, fast.window_us)
                ),
                "seed {seed}: scratch labels diverge"
            );
        }
    }

    /// Scratch with pinned quantile cuts: the latency order is built from
    /// `lats`, but one-element sorted arrays pin the cuts (latency cut 0.5,
    /// median health 1.0) whatever quantile a candidate asks for, so a test
    /// chooses per record whether latency is high and whether health is
    /// healthy, depressed or starved.
    fn pinned_scratch(lats: &[u64], thpts: Vec<f64>) -> LabelingScratch {
        LabelingScratch {
            sorted_lats: vec![0.5],
            sorted_thpts: vec![1.0],
            thpt_median: 1.0,
            ..LabelingScratch::from_series(
                PeriodThresholds::default().window_us,
                lats.iter().copied(),
                thpts,
            )
        }
    }

    /// Expands `(code, run length)` runs into per-record series for
    /// [`pinned_scratch`]: `code % 2` is high latency, `code / 2` picks
    /// healthy (at the median), depressed (inside the extension band but
    /// not starved) or starved health for the given `max_drop`.
    fn series_from_runs(runs: &[(u64, usize)], max_drop: f64) -> (Vec<u64>, Vec<f64>) {
        let mut lats = Vec::new();
        let mut thpts = Vec::new();
        for &(code, len) in runs {
            let thpt = match code / 2 {
                0 => 1.0,
                1 => 1.0 - 0.75 * max_drop,
                _ => (1.0 - max_drop) * 0.5,
            };
            lats.extend(std::iter::repeat_n(code % 2, len));
            thpts.extend(std::iter::repeat_n(thpt, len));
        }
        (lats, thpts)
    }

    /// The model: labels from the per-seed tail-zone walk, where every
    /// seed walks its zone from `s + 1` (so `k` seeds in one zone of length
    /// `l` cost `k * l` steps).
    fn naive_tail_zones(n: usize, seeds: &[usize], thpts: &[f64], extend_below: f64) -> Vec<bool> {
        let mut labels = vec![false; n];
        for &s in seeds.iter() {
            labels[s] = true;
            let mut j = s + 1;
            while j < n && thpts[j] < extend_below {
                labels[j] = true;
                j += 1;
            }
        }
        labels
    }

    fn check_against_naive(runs: &[(u64, usize)], max_drop: f64) -> Result<usize, String> {
        let (lats, thpts) = series_from_runs(runs, max_drop);
        let n = lats.len();
        let th = PeriodThresholds {
            max_drop,
            ..Default::default()
        };
        let scratch = pinned_scratch(&lats, thpts);
        let mut bits = LabelBits::default();
        scratch.label_bits(n, &th, &mut bits);
        let labels = bits.to_bools(n);
        // The pinned cuts: latency 0.5, starved below 1 − max_drop.
        let lats: Vec<f64> = lats.iter().map(|&l| l as f64).collect();
        let seeds = naive_seeds(&lats, &scratch.thpts, 0.5, 1.0 - max_drop, max_drop);
        let model = naive_tail_zones(n, &seeds, &scratch.thpts, 1.0 - max_drop / 2.0);
        match labels.iter().zip(&model).position(|(a, b)| a != b) {
            Some(i) => Err(format!(
                "record {i} of {n}: linear {} vs naive {}",
                labels[i], model[i]
            )),
            None => Ok(seeds.len()),
        }
    }

    #[test]
    fn prop_linear_tail_zones_match_per_seed_walk() {
        use heimdall_integration::prop::{check, f32_in, tuple2, u64_in, usize_in, vec_of, Config};
        // Codes: 0 healthy, 1 healthy + high latency, 2 depressed,
        // 3 depressed + high latency, 4 starved, 5 starved + high latency
        // (the only unconditional seed; a drop against the trailing mean
        // can also seed 1 and 3).
        let seeds_of = |runs: &[(u64, usize)]| check_against_naive(runs, 0.5).unwrap();
        assert_eq!(seeds_of(&[]), 0, "empty trace");
        assert_eq!(seeds_of(&[(0, 40), (2, 40), (4, 40)]), 0, "no seeds");
        assert_eq!(seeds_of(&[(5, 64)]), 64, "every record a seed");
        // A zone that runs to index n-1, then one that stops one short.
        assert!(seeds_of(&[(0, 20), (5, 1), (2, 30)]) >= 1);
        assert!(seeds_of(&[(0, 20), (5, 1), (2, 30), (0, 1)]) >= 1);
        // Two zones separated by a single healthy record.
        assert!(seeds_of(&[(5, 3), (2, 9), (0, 1), (5, 2), (2, 9), (0, 5)]) >= 5);
        // Seeds inside an earlier seed's zone, and one at its last record.
        assert!(seeds_of(&[(0, 20), (5, 1), (2, 10), (5, 4), (2, 10), (5, 1), (0, 9)]) >= 6);

        let strategy = tuple2(
            vec_of(tuple2(u64_in(0..=5), usize_in(1..=40)), 0..=24),
            f32_in(0.1, 0.9),
        );
        check(
            "prop_linear_tail_zones_match_per_seed_walk",
            &Config::seeded(0x7a11_20e5),
            &strategy,
            |(runs, max_drop)| check_against_naive(runs, *max_drop as f64).map(|_| ()),
        );
    }

    /// Fig 4's seed loop, record by record, with the running trailing
    /// health sum behind the MAX_DROP onset test.
    fn naive_seeds(
        lats: &[f64],
        thpts: &[f64],
        high_lat: f64,
        low_thpt: f64,
        max_drop: f64,
    ) -> Vec<usize> {
        const TRAIL: usize = 16;
        let mut seeds = Vec::new();
        let mut trail_sum = 0.0f64;
        for i in 0..lats.len() {
            let trail_len = i.min(TRAIL);
            let trail_mean = if trail_len == 0 {
                thpts[i]
            } else {
                trail_sum / trail_len as f64
            };
            let dropped = trail_mean > 0.0 && thpts[i] < trail_mean * (1.0 - max_drop);
            if lats[i] > high_lat && (thpts[i] < low_thpt || dropped) {
                seeds.push(i);
            }
            trail_sum += thpts[i];
            if i >= TRAIL {
                trail_sum -= thpts[i - TRAIL];
            }
        }
        seeds
    }

    /// The naive model of the period labeler, from the log alone: the
    /// quantile cuts from freshly sorted copies, [`naive_seeds`], then
    /// [`naive_tail_zones`].
    fn naive_period_labels(view: &ReadView<'_>, th: &PeriodThresholds) -> Vec<bool> {
        let n = view.len();
        let lats: Vec<f64> = (0..n).map(|i| view.latency_us(i) as f64).collect();
        let thpts = device_throughput_view(view, th.window_us);
        let mut sorted_lats = lats.clone();
        sort_for_quantiles(&mut sorted_lats);
        let mut sorted_thpts = thpts.clone();
        sort_for_quantiles(&mut sorted_thpts);
        let thpt_median = median_sorted(&sorted_thpts);
        let high_lat = quantile_sorted(&sorted_lats, th.high_lat_q);
        let low_thpt =
            quantile_sorted(&sorted_thpts, th.low_thpt_q).min(thpt_median * (1.0 - th.max_drop));
        let extend_below = thpt_median * (1.0 - th.max_drop / 2.0);
        let seeds = naive_seeds(&lats, &thpts, high_lat, low_thpt, th.max_drop);
        naive_tail_zones(n, &seeds, &thpts, extend_below)
    }

    /// The labels and objective the tuner computes for one candidate.
    fn tuner_eval(
        view: &ReadView<'_>,
        scratch: &LabelingScratch,
        th: &PeriodThresholds,
    ) -> (Vec<bool>, f64) {
        let mut bits = LabelBits::default();
        scratch.label_bits(view.len(), th, &mut bits);
        let objective = scratch.objective(view, &mut bits, &mut Vec::new());
        (bits.to_bools(view.len()), objective)
    }

    /// The tuner's objective for an arbitrary labeling.
    fn tuner_objective(view: &ReadView<'_>, scratch: &LabelingScratch, labels: &[bool]) -> f64 {
        let mut bits = LabelBits {
            labels: vec![0; labels.len().div_ceil(64)],
            ..LabelBits::default()
        };
        for i in (0..labels.len()).filter(|&i| labels[i]) {
            bits.labels[i / 64] |= 1 << (i % 64);
        }
        scratch.objective(view, &mut bits, &mut Vec::new())
    }

    /// The labeler property on one log: for every candidate the tuner's
    /// labels equal the naive model's and its objective has the bits of
    /// [`labeling_objective_scratch`] on them; all-fast, all-slow and
    /// `mask` labelings score the same bits on both sides, the first two
    /// `f64::MIN`. `exact` says whether the log is within the histogram
    /// objective's bound, or takes the record-order fallback.
    fn check_labeler_and_objective(
        view: &ReadView<'_>,
        cands: &[PeriodThresholds],
        mask: &[bool],
        exact: bool,
    ) -> Result<(), String> {
        let n = view.len();
        let scratch = LabelingScratch::new_view(view, cands[0].window_us);
        if scratch.hist.is_some() != exact {
            return Err(format!("histogram objective exact: want {exact}"));
        }
        let mut buf = Vec::new();
        for th in cands {
            let (labels, objective) = tuner_eval(view, &scratch, th);
            let model = naive_period_labels(view, th);
            if let Some(i) = labels.iter().zip(&model).position(|(a, b)| a != b) {
                return Err(format!(
                    "{th:?}: record {i} of {n}: labeler {} vs naive {}",
                    labels[i], model[i]
                ));
            }
            let want = labeling_objective_scratch(view, &model, &mut buf);
            if objective.to_bits() != want.to_bits() {
                return Err(format!("{th:?}: objective {objective:e} vs {want:e}"));
            }
        }
        let degenerate = [vec![false; n], vec![true; n]];
        for (k, labels) in degenerate.iter().chain([&mask.to_vec()]).enumerate() {
            let got = tuner_objective(view, &scratch, labels);
            let want = labeling_objective_scratch(view, labels, &mut buf);
            if got.to_bits() != want.to_bits() || (k < 2 && got != f64::MIN) {
                return Err(format!("labeling {k}: objective {got:e} vs {want:e}"));
            }
        }
        Ok(())
    }

    #[test]
    fn prop_labeler_and_objective_match_the_naive_model() {
        use heimdall_integration::prop::{check, f32_in, tuple3, u64_in, vec_of, Config};
        // Σ latency ≥ 2⁵¹: integer excess sums are no longer exact in f64.
        let huge: Vec<IoRecord> = (0..60u64)
            .map(|i| {
                let lat = if i % 4 == 0 {
                    (1 << 48) + i * 3
                } else {
                    100 + i % 5
                };
                rec(i * 250, lat, 4096, false)
            })
            .collect();
        let huge = RecordBatch::from_records(&huge);
        let grid: Vec<PeriodThresholds> = [0.5, 0.8, 0.95]
            .iter()
            .flat_map(|&hl| {
                [0.05, 0.35, 0.6].map(|lt| PeriodThresholds {
                    high_lat_q: hl,
                    low_thpt_q: lt,
                    max_drop: 0.3,
                    window_us: 5_000,
                })
            })
            .collect();
        let mask: Vec<bool> = (0..huge.len()).map(|i| i % 3 == 0).collect();
        check_labeler_and_objective(&ReadView::from(&huge), &grid, &mask, false).unwrap();

        // A read: (latency code, arrival gap, size code). Shapes: 0 the
        // latency is one of a 3–5-value set (heavy ties), 1 all reads have
        // the set's first value, 2 the latency is the code itself (a fast
        // median below 1), 3 the set value plus the gap (few ties).
        let strategy = tuple3(
            vec_of(u64_in(0..=3_000), 3..=5),
            vec_of(
                tuple3(u64_in(0..=4), u64_in(0..=600), u64_in(0..=3)),
                1..=300,
            ),
            tuple3(
                u64_in(0..=3),
                u64_in(0..=2),
                vec_of(
                    tuple3(f32_in(0.0, 1.0), f32_in(0.0, 1.0), f32_in(0.0, 1.0)),
                    1..=8,
                ),
            ),
        );
        check(
            "prop_labeler_and_objective_match_the_naive_model",
            &Config::seeded(0x1abe_1e55),
            &strategy,
            |(values, reads, (shape, window, qs))| {
                let window_us = [1_000, 5_000, 20_000][*window as usize];
                let mut batch = RecordBatch::new();
                let mut t = 0;
                for &(code, gap, size) in reads {
                    let lat = match shape {
                        0 => values[code as usize % values.len()],
                        1 => values[0],
                        2 => code,
                        _ => values[code as usize % values.len()] + gap,
                    };
                    t += gap;
                    batch.push(rec(t, lat, 4096 << (3 * size), false));
                }
                let mut cands = vec![PeriodThresholds {
                    window_us,
                    ..Default::default()
                }];
                cands.extend(qs.iter().map(|&(hl, lt, md)| PeriodThresholds {
                    high_lat_q: hl as f64,
                    low_thpt_q: lt as f64,
                    max_drop: md as f64,
                    window_us,
                }));
                let mask: Vec<bool> = reads.iter().map(|r| r.1 % 3 == 0).collect();
                check_labeler_and_objective(&ReadView::from(&batch), &cands, &mask, true)
            },
        );
    }

    /// 300k records, all of them seeds inside one depressed zone: 3×10⁵
    /// steps for the linear pass, ~4.5×10¹⁰ for a per-seed walk. No timer —
    /// a quadratic regression shows as a suite that hangs.
    #[test]
    fn dense_seeds_in_one_long_zone_relabel_in_linear_time() {
        let n = 300_000;
        let scratch = pinned_scratch(&vec![1; n], vec![0.1; n]);
        let mut bits = LabelBits::default();
        scratch.label_bits(n, &PeriodThresholds::default(), &mut bits);
        assert_eq!(set_bits(&bits.seeds).count(), n);
        assert_eq!(set_bits(&bits.labels).count(), n);
    }

    #[test]
    fn shared_scratch_tuner_matches_standalone() {
        let recs = synthetic_busy_window();
        let view = ReadView::from(&recs);
        let scratch = LabelingScratch::new_view(&view, PeriodThresholds::default().window_us);
        assert_eq!(
            tune_thresholds_with_view(&view, &scratch),
            tune_thresholds_view(&view)
        );
        assert_eq!(scratch.window_us(), 20_000);
    }

    #[test]
    #[should_panic(expected = "different throughput window")]
    fn scratch_window_mismatch_panics() {
        let recs = synthetic_busy_window();
        let view = ReadView::from(&recs);
        let scratch = LabelingScratch::new_view(&view, 5_000);
        period_label_with_view(&view, &PeriodThresholds::default(), &scratch);
    }

    #[test]
    #[should_panic(expected = "records/labels length mismatch")]
    fn objective_rejects_a_short_label_slice() {
        let recs = synthetic_busy_window();
        let mut labels = vec![false; recs.len() - 1];
        labels[300] = true;
        labeling_objective_view(&ReadView::from(&recs), &labels);
    }

    #[test]
    #[should_panic(expected = "records/labels length mismatch")]
    fn accuracy_rejects_a_short_label_slice() {
        let recs = synthetic_busy_window();
        labeling_accuracy_view(&ReadView::from(&recs), &vec![true; recs.len() - 1]);
    }

    #[test]
    fn tuned_thresholds_do_not_regress_default() {
        let recs = synthetic_busy_window();
        let view = ReadView::from(&recs);
        let tuned = tune_thresholds_view(&view);
        let obj_default = labeling_objective_view(
            &view,
            &period_label_view(&view, &PeriodThresholds::default()),
        );
        let obj_tuned = labeling_objective_view(&view, &period_label_view(&view, &tuned));
        assert!(obj_tuned >= obj_default);
    }

    #[test]
    fn works_on_simulated_collection() {
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(7)
            .duration_secs(30)
            .build();
        let mut cfg = DeviceConfig::consumer_nvme();
        cfg.free_pool = 1 << 30;
        let mut dev = SsdDevice::new(cfg, 8);
        let batch = collect_batch(&trace, &mut dev);
        let idx = read_indices(&batch);
        let view = ReadView::Indexed {
            batch: &batch,
            idx: &idx,
        };
        let th = tune_thresholds_view(&view);
        let labels = period_label_view(&view, &th);
        let slow_frac = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
        assert!(
            slow_frac > 0.0 && slow_frac < 0.5,
            "slow fraction {slow_frac}"
        );
        let acc = labeling_accuracy_view(&view, &labels);
        assert!(acc > 0.65, "balanced accuracy vs ground truth {acc}");
    }

    /// Finish times within a window of `u64::MAX` used to overflow the
    /// trailing-window search: a panic in dev, a non-monotone predicate
    /// and a wrong window in release.
    #[test]
    fn finish_times_near_u64_max_label_and_train_without_overflow() {
        for n in [1, 40] {
            // Reads 100 us apart, the last arriving 300 us before u64::MAX.
            let end = |i: u64| {
                let arrival_us = u64::MAX - 300 - 100 * (n - 1 - i);
                IoRecord {
                    arrival_us,
                    finish_us: arrival_us + 100 + i % 7,
                    latency_us: 100 + i % 7,
                    ..rec(0, 100, 4096, false)
                }
            };
            let batch = RecordBatch::from_records(&(0..n).map(end).collect::<Vec<_>>());
            let view = ReadView::from(&batch);
            let health = device_throughput_view(&view, 20_000);
            assert!(health.iter().all(|h| h.is_finite() && *h > 0.0));
            assert_eq!(
                period_label_view(&view, &PeriodThresholds::default()).len(),
                n as usize
            );
            let _ =
                crate::pipeline::run_batch(&batch, &crate::pipeline::PipelineConfig::heimdall());
        }
    }

    #[test]
    fn empty_input_yields_empty_labels() {
        let batch = RecordBatch::new();
        let empty = ReadView::from(&batch);
        assert!(period_label_view(&empty, &PeriodThresholds::default()).is_empty());
        assert!(cutoff_label_view(&empty).is_empty());
        assert!(device_throughput_view(&empty, 1000).is_empty());
    }

    #[test]
    fn knee_point_of_hockey_stick() {
        let mut xs: Vec<f64> = (0..90).map(|_| 100.0).collect();
        xs.extend((0..10).map(|i| 1000.0 + i as f64 * 500.0));
        let k = knee_point(&xs);
        assert!((100.0..=1500.0).contains(&k), "knee {k}");
    }

    #[test]
    fn degenerate_objective_is_min() {
        let recs = synthetic_busy_window();
        let all_fast = vec![false; recs.len()];
        assert_eq!(
            labeling_objective_view(&ReadView::from(&recs), &all_fast),
            f64::MIN
        );
    }
}

//! Feature engineering (§3.3): extraction, selection, and dataset assembly.
//!
//! Heimdall's final feature set has 11 inputs — the current device queue
//! length, the queue lengths / latencies / per-I/O throughputs of the last
//! N=3 *completed* I/Os, and the request size. Histories are built from
//! completions only: at decision time the latency of an in-flight I/O is
//! unknown, so a record enters the history ring once its finish time has
//! passed the incoming request's arrival.
//!
//! The module also builds LinnOS' 31-feature digitized input (3 digits of
//! pending queue length, 3 digits × 4 historical queue lengths, 4 digits ×
//! 4 historical latencies) and the joint/group features of §4.2.

use crate::collect::{IoRecord, ReadView, RecordBatch};
use heimdall_metrics::stats::pearson_iter;
use heimdall_nn::scaler::{digitize, digitize_into};
use heimdall_nn::{ColumnStats, Dataset};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One candidate input feature (the Fig 7a correlation study universe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feature {
    /// Device queue length at arrival.
    QueueLen,
    /// Queue length observed by the i-th most recent completed I/O.
    HistQueueLen(usize),
    /// Latency of the i-th most recent completed I/O.
    HistLatency(usize),
    /// Per-I/O throughput of the i-th most recent completed I/O.
    HistThroughput(usize),
    /// Request size in bytes.
    Size,
    /// Arrival timestamp — kept only for the correlation study; selection
    /// removes it (§3.3).
    Timestamp,
    /// Read/write flag of the i-th most recent completed I/O.
    HistIoType(usize),
}

impl Feature {
    /// Short display tag (used in Fig 7 output). Un-indexed tags borrow a
    /// static string — only history features with an offset allocate.
    pub fn tag(self) -> Cow<'static, str> {
        match self {
            Feature::QueueLen => Cow::Borrowed("queueLen"),
            Feature::HistQueueLen(i) => Cow::Owned(format!("histQueLen[{i}]")),
            Feature::HistLatency(i) => Cow::Owned(format!("histLat[{i}]")),
            Feature::HistThroughput(i) => Cow::Owned(format!("histThpt[{i}]")),
            Feature::Size => Cow::Borrowed("ioSize"),
            Feature::Timestamp => Cow::Borrowed("timestamp"),
            Feature::HistIoType(i) => Cow::Owned(format!("histType[{i}]")),
        }
    }
}

/// A completed-I/O history entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistEntry {
    /// Latency in microseconds.
    pub latency_us: f64,
    /// Queue length that I/O saw at its own arrival.
    pub queue_len: f64,
    /// Its per-I/O throughput (bytes/µs).
    pub throughput: f64,
    /// 1.0 for reads.
    pub is_read: f64,
}

/// Ring of the most recent completed I/Os, newest first.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Fixed-size ring: slot `head` holds the newest entry; older entries
    /// follow at increasing offsets modulo `cap`. A push overwrites the
    /// oldest slot in place — no element shifting, no reallocation.
    entries: Vec<HistEntry>,
    head: usize,
    len: usize,
    cap: usize,
}

impl History {
    /// Creates a history ring holding `cap` entries.
    pub fn new(cap: usize) -> Self {
        History {
            entries: vec![HistEntry::default(); cap],
            head: 0,
            len: 0,
            cap,
        }
    }

    /// Records a completion (newest first).
    pub fn push(&mut self, e: HistEntry) {
        if self.cap == 0 {
            return;
        }
        self.head = if self.head == 0 {
            self.cap - 1
        } else {
            self.head - 1
        };
        self.entries[self.head] = e;
        self.len = (self.len + 1).min(self.cap);
    }

    /// Returns `true` once `cap` completions have been observed.
    pub fn is_full(&self) -> bool {
        self.len >= self.cap
    }

    /// The i-th most recent entry (0 = newest); zero-default when absent.
    pub fn get(&self, i: usize) -> HistEntry {
        if i >= self.len {
            return HistEntry::default();
        }
        let mut idx = self.head + i;
        if idx >= self.cap {
            idx -= self.cap;
        }
        self.entries[idx]
    }
}

/// An ordered feature layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Columns, in dataset order.
    pub columns: Vec<Feature>,
    /// Historical depth N used by the columns.
    pub hist_depth: usize,
}

impl FeatureSpec {
    /// Heimdall's final 11-feature layout (N=3).
    pub fn heimdall() -> Self {
        Self::with_depth(3)
    }

    /// Heimdall layout at a different historical depth (the Fig 7c sweep).
    pub fn with_depth(n: usize) -> Self {
        let mut columns = vec![Feature::QueueLen];
        columns.extend((0..n).map(Feature::HistQueueLen));
        columns.extend((0..n).map(Feature::HistLatency));
        columns.extend((0..n).map(Feature::HistThroughput));
        columns.push(Feature::Size);
        FeatureSpec {
            columns,
            hist_depth: n,
        }
    }

    /// LinnOS' raw (pre-digitization) features: pending queue length plus
    /// four historical queue lengths and latencies. No size (per-page model).
    pub(crate) fn linnos_raw() -> Self {
        let mut columns = vec![Feature::QueueLen];
        columns.extend((0..4).map(Feature::HistQueueLen));
        columns.extend((0..4).map(Feature::HistLatency));
        FeatureSpec {
            columns,
            hist_depth: 4,
        }
    }

    /// Every candidate feature at depth `n` (for the correlation study,
    /// including the low-value timestamp the selection stage removes).
    pub fn full(n: usize) -> Self {
        let mut spec = Self::with_depth(n);
        spec.columns.push(Feature::Timestamp);
        spec.columns.extend((0..n).map(Feature::HistIoType));
        spec
    }

    /// Number of columns.
    pub fn dim(&self) -> usize {
        self.columns.len()
    }

    /// Extracts one raw (unscaled) feature row.
    pub fn row_into(
        &self,
        queue_len: f64,
        size: f64,
        arrival_us: f64,
        hist: &History,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        for &col in &self.columns {
            let v = match col {
                Feature::QueueLen => queue_len,
                Feature::HistQueueLen(i) => hist.get(i).queue_len,
                Feature::HistLatency(i) => hist.get(i).latency_us,
                Feature::HistThroughput(i) => hist.get(i).throughput,
                Feature::Size => size,
                Feature::Timestamp => arrival_us,
                Feature::HistIoType(i) => hist.get(i).is_read,
            };
            out.push(v as f32);
        }
    }

    /// Keeps only the columns selected by `keep_tags` order-preservingly.
    pub fn select(&self, keep: &[Feature]) -> FeatureSpec {
        FeatureSpec {
            columns: self
                .columns
                .iter()
                .copied()
                .filter(|c| keep.contains(c))
                .collect(),
            hist_depth: self.hist_depth,
        }
    }

    /// Resolves each column to a [`CompiledSpec`] source once, so extraction
    /// streams whole columns instead of re-matching the feature enum per
    /// cell (see [`CompiledSpec`]).
    pub(crate) fn compile(&self) -> CompiledSpec {
        let depth = self.hist_depth;
        let cols = self
            .columns
            .iter()
            .map(|&c| match c {
                Feature::QueueLen => ColSource::QueueLen,
                Feature::Size => ColSource::Size,
                Feature::Timestamp => ColSource::Timestamp,
                Feature::HistQueueLen(k) if k < depth => ColSource::HistQlen(k),
                Feature::HistLatency(k) if k < depth => ColSource::HistLat(k),
                Feature::HistThroughput(k) if k < depth => ColSource::HistThpt(k),
                Feature::HistIoType(k) if k < depth => ColSource::HistRead(k),
                // Rows are only emitted once the depth-`cap` ring is full, so
                // any offset at or beyond the depth reads the ring's
                // zero default — a compile-time constant column.
                _ => ColSource::Zero,
            })
            .collect();
        CompiledSpec {
            cols,
            hist_depth: depth,
        }
    }
}

/// A column's resolved data source (see [`FeatureSpec::compile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColSource {
    QueueLen,
    Size,
    Timestamp,
    HistLat(usize),
    HistQlen(usize),
    HistThpt(usize),
    HistRead(usize),
    /// History offset at/beyond the ring depth — always the zero default.
    Zero,
}

/// A feature plan compiled from a [`FeatureSpec`]: per-column source tags
/// with history offsets resolved once. [`CompiledSpec::fill_shard`] streams
/// each feature column over a whole shard of emitted rows, writing straight
/// into the final row-major dataset buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompiledSpec {
    cols: Vec<ColSource>,
    hist_depth: usize,
}

impl CompiledSpec {
    /// Number of columns.
    pub fn dim(&self) -> usize {
        self.cols.len()
    }

    /// Fills `count` emitted rows starting at global row `r0` into the
    /// row-major slice `x` (`count * dim` cells, zero-initialized by the
    /// caller), one column stream at a time, then folds the rows below
    /// `fit_rows` (global index) into `stats` — the fused scaler-fit sweep.
    fn fill_shard(
        &self,
        scratch: &FeatureScratch,
        r0: usize,
        count: usize,
        x: &mut [f32],
        fit_rows: usize,
        stats: &mut ColumnStats,
    ) {
        let dim = self.cols.len();
        debug_assert_eq!(x.len(), count * dim);
        if dim == 0 {
            // Degenerate empty spec: nothing to fill or fold (`chunks_exact`
            // rejects a zero chunk size).
            return;
        }
        // Row-tiled column streaming: each block of the row-major buffer is
        // filled column-by-column while it is cache-resident (a naive
        // whole-shard column sweep would drag the full buffer through main
        // memory `dim` times), then folded into the scaler stats while
        // still hot. Written cell values and fold order are identical to
        // the untiled sweep.
        const BLOCK_ROWS: usize = 512;
        let mut b0 = 0;
        while b0 < count {
            let bn = BLOCK_ROWS.min(count - b0);
            let block = &mut x[b0 * dim..(b0 + bn) * dim];
            let rows = r0 + b0..r0 + b0 + bn;
            for (c, &src) in self.cols.iter().enumerate() {
                match src {
                    ColSource::QueueLen => {
                        let col = &scratch.row_qlen[rows.clone()];
                        for (dst, &v) in block.chunks_exact_mut(dim).zip(col) {
                            dst[c] = v as f32;
                        }
                    }
                    ColSource::Size => {
                        let col = &scratch.row_size[rows.clone()];
                        for (dst, &v) in block.chunks_exact_mut(dim).zip(col) {
                            dst[c] = v as f32;
                        }
                    }
                    ColSource::Timestamp => {
                        let col = &scratch.row_arrival[rows.clone()];
                        for (dst, &v) in block.chunks_exact_mut(dim).zip(col) {
                            dst[c] = v as f32;
                        }
                    }
                    ColSource::HistLat(k) => {
                        let pc = &scratch.row_pcount[rows.clone()];
                        for (dst, &p) in block.chunks_exact_mut(dim).zip(pc) {
                            dst[c] = scratch.promo_lat[p - 1 - k] as f32;
                        }
                    }
                    ColSource::HistQlen(k) => {
                        let pc = &scratch.row_pcount[rows.clone()];
                        for (dst, &p) in block.chunks_exact_mut(dim).zip(pc) {
                            dst[c] = scratch.promo_qlen[p - 1 - k] as f32;
                        }
                    }
                    ColSource::HistThpt(k) => {
                        let pc = &scratch.row_pcount[rows.clone()];
                        for (dst, &p) in block.chunks_exact_mut(dim).zip(pc) {
                            dst[c] = scratch.promo_thpt[p - 1 - k] as f32;
                        }
                    }
                    ColSource::HistRead(k) => {
                        let pc = &scratch.row_pcount[rows.clone()];
                        for (dst, &p) in block.chunks_exact_mut(dim).zip(pc) {
                            dst[c] = scratch.promo_read[p - 1 - k] as f32;
                        }
                    }
                    // The caller zero-initializes the buffer.
                    ColSource::Zero => {}
                }
            }
            let local_fit = fit_rows.saturating_sub(r0 + b0).min(bn);
            for row in block.chunks_exact(dim).take(local_fit) {
                stats.fold_row(row.iter().map(|&v| v as f64));
            }
            b0 += bn;
        }
    }
}

/// Reusable buffers behind the columnar builders: the pending-completion
/// heap plus the flat arrays one serial indexing pass produces — the
/// promotion-ordered history columns and the per-emitted-row scalars every
/// shard fill reads from. No per-row `Vec` is allocated anywhere downstream.
#[derive(Debug, Default)]
pub(crate) struct FeatureScratch {
    /// Min-heap of `(finish_us, record index)` for in-flight I/Os. The
    /// index tie-break reproduces the reference walk's stable sort order.
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    /// Completion history in promotion order (one entry per record, pushed
    /// when its finish time passes an arrival).
    promo_lat: Vec<f64>,
    promo_qlen: Vec<f64>,
    promo_thpt: Vec<f64>,
    promo_read: Vec<f64>,
    /// Per emitted row: promotion count at emission. The k-th most recent
    /// history entry of row `r` is `promo_*[row_pcount[r] - 1 - k]`.
    row_pcount: Vec<usize>,
    /// Per emitted row: the emitting record's own scalars.
    row_qlen: Vec<f64>,
    row_size: Vec<f64>,
    row_arrival: Vec<f64>,
    row_label: Vec<f32>,
    /// Source record index of each emitted row.
    sources: Vec<usize>,
}

impl FeatureScratch {
    /// Creates an empty scratch (buffers grow on first use and are reused).
    pub fn new() -> FeatureScratch {
        FeatureScratch::default()
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.promo_lat.clear();
        self.promo_qlen.clear();
        self.promo_thpt.clear();
        self.promo_read.clear();
        self.row_pcount.clear();
        self.row_qlen.clear();
        self.row_size.clear();
        self.row_arrival.clear();
        self.row_label.clear();
        self.sources.clear();
    }

    /// One serial O(n log inflight) pass over the view: promotes finished
    /// I/Os off the heap into the promotion arrays, emits a row for each
    /// kept read with a full depth-`depth` history, and records everything
    /// the parallel column fills need. Because each row carries its own
    /// promotion count, any shard boundary over the emitted rows is
    /// history-safe — shards need no warmup replay.
    ///
    /// The view variant is matched once out here so the hot loop
    /// monomorphizes over its view-index → batch-index map instead of
    /// paying an enum dispatch per field access.
    fn index(&mut self, view: &ReadView<'_>, labels: &[bool], keep: &[bool], depth: usize) {
        match *view {
            ReadView::Batch(b) => self.index_with(b, b.len(), labels, keep, depth, |i| i),
            ReadView::Indexed { batch, idx } => {
                self.index_with(batch, idx.len(), labels, keep, depth, |i| idx[i] as usize);
            }
        }
    }

    fn index_with(
        &mut self,
        b: &RecordBatch,
        n: usize,
        labels: &[bool],
        keep: &[bool],
        depth: usize,
        at: impl Fn(usize) -> usize,
    ) {
        self.clear();
        self.promo_lat.reserve(n);
        self.promo_qlen.reserve(n);
        self.promo_thpt.reserve(n);
        self.promo_read.reserve(n);
        self.row_pcount.reserve(n);
        self.row_qlen.reserve(n);
        self.row_size.reserve(n);
        self.row_arrival.reserve(n);
        self.row_label.reserve(n);
        self.sources.reserve(n);
        for i in 0..n {
            let r = at(i);
            let arrival_us = b.arrival_us[r];
            // Promote completions that finished before this arrival. Equal
            // finish times promote in record order — the reference walk's
            // stable sort does the same.
            while let Some(&Reverse((finish, j))) = self.pending.peek() {
                if finish > arrival_us {
                    break;
                }
                self.pending.pop();
                let p = at(j);
                self.promo_lat.push(b.latency_us[p] as f64);
                self.promo_qlen.push(f64::from(b.queue_len[p]));
                self.promo_thpt.push(b.throughput[p]);
                self.promo_read.push(f64::from(b.is_read(p)));
            }
            // `promotions >= depth` is exactly the ring's `is_full()`.
            if b.is_read(r) && keep[i] && self.promo_lat.len() >= depth {
                self.row_pcount.push(self.promo_lat.len());
                self.row_qlen.push(f64::from(b.queue_len[r]));
                self.row_size.push(f64::from(b.size[r]));
                self.row_arrival.push(arrival_us as f64);
                self.row_label.push(f32::from(u8::from(labels[i])));
                self.sources.push(i);
            }
            self.pending.push(Reverse((b.finish_us[r], i)));
        }
    }
}

/// Splits `rows` into at most `jobs` contiguous shards (the first
/// `rows % jobs` shards one row longer) and fills them on scoped threads,
/// handing each shard a disjoint `&mut` window of the output buffer and its
/// own [`ColumnStats`]. Every cell depends only on the read-only scratch
/// and its absolute row index, so the concatenated output is byte-identical
/// at any job count; per-shard stats are returned in shard order for an
/// order-preserving merge.
fn fill_sharded<F>(rows: usize, dim: usize, jobs: usize, x: &mut [f32], fill: F) -> Vec<ColumnStats>
where
    F: Fn(usize, usize, &mut [f32], &mut ColumnStats) + Sync,
{
    let jobs = jobs.max(1).min(rows.max(1));
    let mut stats: Vec<ColumnStats> = (0..jobs).map(|_| ColumnStats::new(dim)).collect();
    if jobs == 1 {
        fill(0, rows, x, &mut stats[0]);
        return stats;
    }
    let base = rows / jobs;
    let extra = rows % jobs;
    std::thread::scope(|s| {
        let mut rest = x;
        let mut r0 = 0usize;
        for (w, st) in stats.iter_mut().enumerate() {
            let count = base + usize::from(w < extra);
            let (mine, tail) = rest.split_at_mut(count * dim);
            rest = tail;
            let start = r0;
            r0 += count;
            let fill = &fill;
            s.spawn(move || fill(start, count, mine, st));
        }
    });
    stats
}

/// Walks records chronologically maintaining a completion-ordered history.
///
/// For each record index the callback receives the history as of that
/// record's arrival (completions with `finish_us <= arrival_us`).
fn walk_with_history<F: FnMut(usize, &History)>(records: &[IoRecord], depth: usize, mut f: F) {
    let mut hist = History::new(depth);
    // Completions pending insertion, ordered by finish time.
    let mut pending: Vec<(u64, HistEntry)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        // Promote completions that finished before this arrival.
        pending.sort_by_key(|p| p.0);
        let mut promoted = 0;
        for &(finish, e) in pending.iter() {
            if finish <= r.arrival_us {
                hist.push(e);
                promoted += 1;
            } else {
                break;
            }
        }
        pending.drain(..promoted);
        f(i, &hist);
        pending.push((
            r.finish_us,
            HistEntry {
                latency_us: r.latency_us as f64,
                queue_len: r.queue_len as f64,
                throughput: r.throughput,
                is_read: f64::from(r.is_read()),
            },
        ));
    }
}

/// Builds a raw dataset for the given spec (columnar engine) over any
/// [`ReadView`] — a whole batch or an index projection of one.
///
/// Rows are emitted only for *read* records that (a) survive the `keep`
/// mask and (b) have a full history (warmup records are skipped). Returns
/// the dataset plus the source record index of each row. Byte-identical to
/// [`build_dataset_reference`] (the retained row-at-a-time seed path).
///
/// Shards are extracted on `jobs` scoped threads and concatenated in
/// shard order — byte-identical output at any job count.
///
/// # Panics
///
/// Panics if mask/label lengths mismatch the view.
pub fn build_dataset_view(
    view: &ReadView<'_>,
    labels: &[bool],
    keep: &[bool],
    spec: &FeatureSpec,
    jobs: usize,
) -> (Dataset, Vec<usize>) {
    let (data, sources, _) = build_dataset_stats(view, labels, keep, spec, jobs, 0.0);
    (data, sources)
}

/// [`build_dataset_view`] with the min-max scaler fit fused into the same
/// extraction sweep: per-column min/max are accumulated over the first
/// `(rows * train_fraction).round()` emitted rows — exactly the train side
/// of [`Dataset::split`] — while the columns stream into the buffer, so
/// assembly plus scaler fit is one pass instead of three. The returned
/// [`ColumnStats`] feed [`Scaler::from_minmax_stats`].
///
/// [`Dataset::split`]: heimdall_nn::Dataset::split
/// [`Scaler::from_minmax_stats`]: heimdall_nn::Scaler::from_minmax_stats
///
/// # Panics
///
/// Panics if mask/label lengths mismatch the view.
pub fn build_dataset_stats(
    view: &ReadView<'_>,
    labels: &[bool],
    keep: &[bool],
    spec: &FeatureSpec,
    jobs: usize,
    train_fraction: f64,
) -> (Dataset, Vec<usize>, ColumnStats) {
    assert_eq!(view.len(), labels.len(), "records/labels length mismatch");
    assert_eq!(view.len(), keep.len(), "records/keep length mismatch");
    let compiled = spec.compile();
    let mut scratch = FeatureScratch::new();
    scratch.index(view, labels, keep, spec.hist_depth);
    let rows = scratch.sources.len();
    let dim = compiled.dim();
    let fit_rows = (rows as f64 * train_fraction).round() as usize;
    let mut x = vec![0.0f32; rows * dim];
    let shard_stats = fill_sharded(rows, dim, jobs, &mut x, |r0, count, slice, st| {
        compiled.fill_shard(&scratch, r0, count, slice, fit_rows, st);
    });
    let mut stats = ColumnStats::new(dim);
    for st in &shard_stats {
        stats.merge(st);
    }
    let labels_out = std::mem::take(&mut scratch.row_label);
    let data = if dim == 0 {
        // `Dataset::from_parts` requires dim > 0; an empty spec degenerates
        // to labels-only rows exactly like the reference `push(&[], y)`.
        let mut d = Dataset::new(0);
        d.y = labels_out;
        d
    } else {
        Dataset::from_parts(dim, x, labels_out)
    };
    (data, std::mem::take(&mut scratch.sources), stats)
}

/// The seed row-at-a-time builder, kept as the parity reference for
/// [`build_dataset_view`]: walks records with a [`History`] ring and extracts
/// each row through [`FeatureSpec::row_into`].
///
/// # Panics
///
/// Panics if mask/label lengths mismatch the records.
pub fn build_dataset_reference(
    records: &[IoRecord],
    labels: &[bool],
    keep: &[bool],
    spec: &FeatureSpec,
) -> (Dataset, Vec<usize>) {
    assert_eq!(
        records.len(),
        labels.len(),
        "records/labels length mismatch"
    );
    assert_eq!(records.len(), keep.len(), "records/keep length mismatch");
    let mut data = Dataset::new(spec.dim());
    let mut sources = Vec::new();
    let mut row = Vec::with_capacity(spec.dim());
    walk_with_history(records, spec.hist_depth, |i, hist| {
        let r = &records[i];
        if !r.is_read() || !keep[i] || !hist.is_full() {
            return;
        }
        spec.row_into(
            r.queue_len as f64,
            r.size as f64,
            r.arrival_us as f64,
            hist,
            &mut row,
        );
        data.push(&row, f32::from(u8::from(labels[i])));
        sources.push(i);
    });
    (data, sources)
}

/// Pearson correlation of each column against the label (Fig 7a), sorted by
/// absolute correlation, strongest first. Each column correlates via a
/// strided walk of the row-major buffer ([`pearson_iter`]) — no per-column
/// `Vec` materialization, bitwise identical to the old `column_f64` path.
pub fn feature_correlations(data: &Dataset, spec: &FeatureSpec) -> Vec<(Feature, f64)> {
    assert_eq!(data.dim, spec.dim(), "dataset/spec dimensionality mismatch");
    let y: Vec<f64> = data.y.iter().map(|&v| v as f64).collect();
    let dim = data.dim;
    let mut out: Vec<(Feature, f64)> = spec
        .columns
        .iter()
        .enumerate()
        .map(|(c, &f)| {
            let col = data
                .x
                .get(c..)
                .unwrap_or(&[])
                .iter()
                .step_by(dim)
                .map(|&v| v as f64);
            (f, pearson_iter(col, &y))
        })
        .collect();
    out.sort_by(|a, b| {
        b.1.abs()
            .partial_cmp(&a.1.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Selects the columns whose absolute label correlation meets `min_abs`,
/// returning the reduced spec (§3.3 feature selection).
pub(crate) fn select_features(data: &Dataset, spec: &FeatureSpec, min_abs: f64) -> FeatureSpec {
    let corr = feature_correlations(data, spec);
    let keep: Vec<Feature> = corr
        .into_iter()
        .filter(|&(_, c)| c.abs() >= min_abs)
        .map(|(f, _)| f)
        .collect();
    let selected = spec.select(&keep);
    if selected.columns.is_empty() {
        // Never select down to nothing; fall back to the full spec.
        spec.clone()
    } else {
        selected
    }
}

/// Number of digitized inputs in the LinnOS model.
pub(crate) const LINNOS_DIM: usize = 31;

/// Builds LinnOS' 31-feature digitized dataset: 3 digits of pending queue
/// length, 3 digits × 4 historical queue lengths, 4 digits × 4 historical
/// latencies (latencies in tens of microseconds to fit 4 digits). Columnar
/// engine over any [`ReadView`], sharded over `jobs` threads; byte-identical
/// to [`build_linnos_dataset_reference`] at any job count.
///
/// # Panics
///
/// Panics if mask/label lengths mismatch the view.
pub fn build_linnos_dataset_view(
    view: &ReadView<'_>,
    labels: &[bool],
    keep: &[bool],
    jobs: usize,
) -> (Dataset, Vec<usize>) {
    assert_eq!(view.len(), labels.len(), "records/labels length mismatch");
    assert_eq!(view.len(), keep.len(), "records/keep length mismatch");
    let mut scratch = FeatureScratch::new();
    scratch.index(view, labels, keep, 4);
    let rows = scratch.sources.len();
    let mut x = vec![0.0f32; rows * LINNOS_DIM];
    fill_sharded(
        rows,
        LINNOS_DIM,
        jobs,
        &mut x,
        |r0, count, slice, _stats| {
            for r in 0..count {
                let row = &mut slice[r * LINNOS_DIM..(r + 1) * LINNOS_DIM];
                let g = r0 + r;
                let p = scratch.row_pcount[g];
                digitize_into(scratch.row_qlen[g], &mut row[0..3]);
                for k in 0..4 {
                    digitize_into(
                        scratch.promo_qlen[p - 1 - k],
                        &mut row[3 + 3 * k..6 + 3 * k],
                    );
                }
                for k in 0..4 {
                    digitize_into(
                        scratch.promo_lat[p - 1 - k] / 10.0,
                        &mut row[15 + 4 * k..19 + 4 * k],
                    );
                }
            }
        },
    );
    (
        Dataset::from_parts(LINNOS_DIM, x, std::mem::take(&mut scratch.row_label)),
        std::mem::take(&mut scratch.sources),
    )
}

/// The seed row-at-a-time LinnOS builder, kept as the parity reference for
/// [`build_linnos_dataset_view`].
///
/// # Panics
///
/// Panics if mask/label lengths mismatch the records.
pub fn build_linnos_dataset_reference(
    records: &[IoRecord],
    labels: &[bool],
    keep: &[bool],
) -> (Dataset, Vec<usize>) {
    assert_eq!(
        records.len(),
        labels.len(),
        "records/labels length mismatch"
    );
    assert_eq!(records.len(), keep.len(), "records/keep length mismatch");
    let mut data = Dataset::new(LINNOS_DIM);
    let mut sources = Vec::new();
    walk_with_history(records, 4, |i, hist| {
        let r = &records[i];
        if !r.is_read() || !keep[i] || !hist.is_full() {
            return;
        }
        let mut row: Vec<f32> = Vec::with_capacity(LINNOS_DIM);
        row.extend(digitize(r.queue_len as f64, 3));
        for k in 0..4 {
            row.extend(digitize(hist.get(k).queue_len, 3));
        }
        for k in 0..4 {
            row.extend(digitize(hist.get(k).latency_us / 10.0, 4));
        }
        debug_assert_eq!(row.len(), LINNOS_DIM);
        data.push(&row, f32::from(u8::from(labels[i])));
        sources.push(i);
    });
    (data, sources)
}

/// Builds the joint/group-inference dataset (§4.2): non-overlapping groups
/// of `p` consecutive kept reads. Features are the first member's queue
/// length, the shared pre-group history (depth triples), and the `p` member
/// sizes; the aligned label is slow when *any* member is slow. Columnar
/// engine over any [`ReadView`], sharded over groups on `jobs` threads;
/// byte-identical to [`build_joint_dataset_reference`] at any job count.
///
/// Returns the dataset plus, per row, the source indices of the group.
///
/// # Panics
///
/// Panics if `p == 0` or the mask/label lengths mismatch.
pub fn build_joint_dataset_view(
    view: &ReadView<'_>,
    labels: &[bool],
    keep: &[bool],
    hist_depth: usize,
    p: usize,
    jobs: usize,
) -> (Dataset, Vec<Vec<usize>>) {
    assert!(p > 0, "joint size must be positive");
    assert_eq!(view.len(), labels.len(), "records/labels length mismatch");
    assert_eq!(view.len(), keep.len(), "records/keep length mismatch");
    let mut scratch = FeatureScratch::new();
    scratch.index(view, labels, keep, hist_depth);
    // Qualifying rows stream in order, so complete groups are exactly the
    // leading chunks of `p` emitted rows; a trailing partial group drops.
    let n_groups = scratch.sources.len() / p;
    let dim = 1 + 3 * hist_depth + p;
    let y: Vec<f32> = (0..n_groups)
        .map(|g| {
            let slow = scratch.row_label[g * p..(g + 1) * p]
                .iter()
                .any(|&l| l >= 0.5);
            f32::from(u8::from(slow))
        })
        .collect();
    let mut x = vec![0.0f32; n_groups * dim];
    fill_sharded(n_groups, dim, jobs, &mut x, |g0, count, slice, _stats| {
        for g in 0..count {
            let row = &mut slice[g * dim..(g + 1) * dim];
            let first = (g0 + g) * p;
            let pc = scratch.row_pcount[first];
            // Queue length + history snapshot at the group's first member.
            row[0] = scratch.row_qlen[first] as f32;
            for k in 0..hist_depth {
                row[1 + k] = scratch.promo_qlen[pc - 1 - k] as f32;
            }
            for k in 0..hist_depth {
                row[1 + hist_depth + k] = scratch.promo_lat[pc - 1 - k] as f32;
            }
            for k in 0..hist_depth {
                row[1 + 2 * hist_depth + k] = scratch.promo_thpt[pc - 1 - k] as f32;
            }
            for (m, cell) in row[1 + 3 * hist_depth..].iter_mut().enumerate() {
                *cell = scratch.row_size[first + m] as f32;
            }
        }
    });
    let groups: Vec<Vec<usize>> = scratch
        .sources
        .chunks_exact(p)
        .map(|c| c.to_vec())
        .collect();
    (Dataset::from_parts(dim, x, y), groups)
}

/// The seed row-at-a-time joint builder, kept as the parity reference for
/// [`build_joint_dataset_view`].
///
/// # Panics
///
/// Panics if `p == 0` or the mask/label lengths mismatch.
pub fn build_joint_dataset_reference(
    records: &[IoRecord],
    labels: &[bool],
    keep: &[bool],
    hist_depth: usize,
    p: usize,
) -> (Dataset, Vec<Vec<usize>>) {
    assert!(p > 0, "joint size must be positive");
    assert_eq!(
        records.len(),
        labels.len(),
        "records/labels length mismatch"
    );
    assert_eq!(records.len(), keep.len(), "records/keep length mismatch");
    let dim = 1 + 3 * hist_depth + p;
    let mut data = Dataset::new(dim);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(p);
    let mut group_hist_row: Vec<f32> = Vec::new();

    walk_with_history(records, hist_depth, |i, hist| {
        let r = &records[i];
        if !r.is_read() || !keep[i] || !hist.is_full() {
            return;
        }
        if current.is_empty() {
            // Snapshot queue length + history at group start.
            group_hist_row.clear();
            group_hist_row.push(r.queue_len as f32);
            for k in 0..hist_depth {
                group_hist_row.push(hist.get(k).queue_len as f32);
            }
            for k in 0..hist_depth {
                group_hist_row.push(hist.get(k).latency_us as f32);
            }
            for k in 0..hist_depth {
                group_hist_row.push(hist.get(k).throughput as f32);
            }
        }
        current.push(i);
        if current.len() == p {
            let mut row = group_hist_row.clone();
            row.extend(current.iter().map(|&j| records[j].size as f32));
            let slow = current.iter().any(|&j| labels[j]);
            data.push(&row, f32::from(u8::from(slow)));
            groups.push(std::mem::take(&mut current));
        }
    });
    (data, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_trace::IoOp;

    fn rec(t: u64, lat: u64, size: u32, qlen: u32, op: IoOp) -> IoRecord {
        IoRecord {
            arrival_us: t,
            finish_us: t + lat,
            size,
            op,
            queue_len: qlen,
            latency_us: lat,
            throughput: size as f64 / lat.max(1) as f64,
            truth_busy: false,
        }
    }

    fn stream(n: usize) -> (RecordBatch, Vec<bool>, Vec<bool>) {
        let recs: Vec<IoRecord> = (0..n as u64)
            .map(|i| rec(i * 1000, 100 + i, 4096, (i % 5) as u32, IoOp::Read))
            .collect();
        let labels = vec![false; n];
        let keep = vec![true; n];
        (RecordBatch::from_records(&recs), labels, keep)
    }

    #[test]
    fn heimdall_spec_has_eleven_features() {
        assert_eq!(FeatureSpec::heimdall().dim(), 11);
    }

    #[test]
    fn warmup_rows_are_skipped() {
        let (recs, labels, keep) = stream(20);
        let (data, sources) = build_dataset_view(
            &ReadView::from(&recs),
            &labels,
            &keep,
            &FeatureSpec::heimdall(),
            1,
        );
        // The first 3 reads can't have a full history.
        assert_eq!(data.rows(), 17);
        assert_eq!(sources[0], 3);
    }

    #[test]
    fn history_uses_completed_ios_only() {
        // Second I/O arrives while the first is still in flight: its
        // history must NOT contain the first I/O.
        let recs = RecordBatch::from_records(&[
            rec(0, 10_000, 4096, 0, IoOp::Read), // finishes at 10_000
            rec(100, 50, 4096, 1, IoOp::Read),   // arrives at 100
            rec(20_000, 50, 4096, 0, IoOp::Read),
        ]);
        let labels = vec![false; 3];
        let keep = vec![true; 3];
        let spec = FeatureSpec::with_depth(1);
        let (data, sources) = build_dataset_view(&ReadView::from(&recs), &labels, &keep, &spec, 1);
        // Row for record 2 (only one with full history): its histLat must be
        // from record 1 or 0; both completed by t=20_000. Newest completion
        // is record 0 (finish 10_000) vs record 1 (finish 150) — newest
        // first means record 0.
        assert_eq!(sources, vec![2]);
        let hist_lat_col = spec
            .columns
            .iter()
            .position(|&c| c == Feature::HistLatency(0))
            .unwrap();
        assert_eq!(data.row(0)[hist_lat_col], 10_000.0);
    }

    #[test]
    fn writes_feed_history_but_emit_no_rows() {
        let recs = RecordBatch::from_records(&[
            rec(0, 100, 4096, 0, IoOp::Write),
            rec(1000, 100, 4096, 0, IoOp::Write),
            rec(2000, 100, 4096, 0, IoOp::Read),
        ]);
        let labels = vec![false; 3];
        let keep = vec![true; 3];
        let spec = FeatureSpec::with_depth(2);
        let (data, sources) = build_dataset_view(&ReadView::from(&recs), &labels, &keep, &spec, 1);
        assert_eq!(sources, vec![2]);
        assert_eq!(data.rows(), 1);
    }

    #[test]
    fn keep_mask_excludes_rows() {
        let (recs, labels, mut keep) = stream(20);
        keep[10] = false;
        let (_, sources) = build_dataset_view(
            &ReadView::from(&recs),
            &labels,
            &keep,
            &FeatureSpec::heimdall(),
            1,
        );
        assert!(!sources.contains(&10));
    }

    #[test]
    fn correlations_rank_informative_feature_first() {
        // Label correlates with queue length, not with size.
        let mut recs = RecordBatch::new();
        let mut labels = Vec::new();
        for i in 0..500u64 {
            let q = (i % 10) as u32;
            recs.push(rec(
                i * 1000,
                100,
                4096 * (1 + (i % 3) as u32),
                q,
                IoOp::Read,
            ));
            labels.push(q > 6);
        }
        let keep = vec![true; recs.len()];
        let spec = FeatureSpec::heimdall();
        let (data, src) = build_dataset_view(&ReadView::from(&recs), &labels, &keep, &spec, 1);
        let kept_labels: Vec<f32> = src
            .iter()
            .map(|&i| f32::from(u8::from(labels[i])))
            .collect();
        assert_eq!(data.y, kept_labels);
        let corr = feature_correlations(&data, &spec);
        assert_eq!(corr[0].0, Feature::QueueLen);
        assert!(corr[0].1 > 0.7, "corr {}", corr[0].1);
    }

    #[test]
    fn selection_drops_uninformative_timestamp() {
        let mut recs = RecordBatch::new();
        let mut labels = Vec::new();
        for i in 0..800u64 {
            let q = (i % 10) as u32;
            recs.push(rec(i * 1000, 100 + q as u64 * 50, 4096, q, IoOp::Read));
            labels.push(q > 6);
        }
        let keep = vec![true; recs.len()];
        let spec = FeatureSpec::full(3);
        let (data, _) = build_dataset_view(&ReadView::from(&recs), &labels, &keep, &spec, 1);
        let selected = select_features(&data, &spec, 0.1);
        assert!(!selected.columns.contains(&Feature::Timestamp));
        assert!(selected.columns.contains(&Feature::QueueLen));
    }

    #[test]
    fn linnos_dataset_is_31_wide() {
        let (recs, labels, keep) = stream(30);
        let (data, _) = build_linnos_dataset_view(&ReadView::from(&recs), &labels, &keep, 1);
        assert_eq!(data.dim, LINNOS_DIM);
        assert!(data.rows() > 0);
        // Every cell is a digit.
        for v in &data.x {
            assert!((0.0..=9.0).contains(v) && v.fract() == 0.0);
        }
    }

    #[test]
    fn joint_groups_are_disjoint_and_sized() {
        let (recs, labels, keep) = stream(50);
        let (data, groups) =
            build_joint_dataset_view(&ReadView::from(&recs), &labels, &keep, 3, 5, 1);
        assert_eq!(data.dim, 1 + 9 + 5);
        for g in &groups {
            assert_eq!(g.len(), 5);
        }
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn joint_label_is_any_slow() {
        let (recs, mut labels, keep) = stream(50);
        labels[10] = true; // one slow member
        let (data, groups) =
            build_joint_dataset_view(&ReadView::from(&recs), &labels, &keep, 3, 5, 1);
        for (row, g) in groups.iter().enumerate() {
            let want = g.iter().any(|&i| labels[i]);
            assert_eq!(data.y[row] >= 0.5, want);
        }
        assert!(data.y.iter().any(|&y| y >= 0.5));
    }

    #[test]
    fn spec_select_preserves_order() {
        let spec = FeatureSpec::heimdall();
        let sel = spec.select(&[Feature::Size, Feature::QueueLen]);
        assert_eq!(sel.columns, vec![Feature::QueueLen, Feature::Size]);
    }

    #[test]
    #[should_panic(expected = "joint size must be positive")]
    fn joint_zero_panics() {
        let (recs, labels, keep) = stream(5);
        build_joint_dataset_view(&ReadView::from(&recs), &labels, &keep, 3, 0, 1);
    }

    /// Adversarial mixed stream: writes interleaved, long-inflight I/Os
    /// (finish long after later arrivals), equal finish-time ties, keep
    /// holes, and non-trivial labels.
    fn mixed_stream(n: usize) -> (Vec<IoRecord>, Vec<bool>, Vec<bool>) {
        let recs: Vec<IoRecord> = (0..n as u64)
            .map(|i| {
                let op = if i % 3 == 2 { IoOp::Write } else { IoOp::Read };
                let lat = match i % 4 {
                    0 => 120,
                    1 => 12_000, // stays in flight across many arrivals
                    2 => 500,
                    _ => 500, // ties with the previous finish ordering
                };
                rec(
                    i * 400,
                    lat,
                    4096 * (1 + (i % 3) as u32),
                    (i % 7) as u32,
                    op,
                )
            })
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
        let keep: Vec<bool> = (0..n).map(|i| i % 11 != 7).collect();
        (recs, labels, keep)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Calls `f` with both [`ReadView`] forms of one log: the whole batch,
    /// and an index projection that selects the log back out of a batch
    /// interleaved with decoy records. The row-form `*_reference` builders
    /// the callers compare against never see a view.
    fn each_form(recs: &[IoRecord], mut f: impl FnMut(&str, &ReadView<'_>)) {
        let batch = RecordBatch::from_records(recs);
        let mut padded = RecordBatch::new();
        for &r in recs {
            padded.push(IoRecord {
                latency_us: r.latency_us + 7,
                queue_len: r.queue_len + 1,
                ..r
            });
            padded.push(r);
        }
        let idx: Vec<u32> = (0..recs.len() as u32).map(|i| 2 * i + 1).collect();
        f("batch", &ReadView::Batch(&batch));
        f(
            "indexed",
            &ReadView::Indexed {
                batch: &padded,
                idx: &idx,
            },
        );
    }

    #[test]
    fn columnar_matches_reference_bitwise() {
        let (recs, labels, keep) = mixed_stream(120);
        let deep_offsets = FeatureSpec {
            columns: vec![
                Feature::HistLatency(7),
                Feature::QueueLen,
                Feature::HistIoType(0),
                Feature::HistThroughput(4),
                Feature::Timestamp,
            ],
            hist_depth: 2,
        };
        for spec in [
            FeatureSpec::heimdall(),
            FeatureSpec::full(3),
            FeatureSpec::with_depth(0),
            FeatureSpec::with_depth(5),
            FeatureSpec::linnos_raw(),
            deep_offsets,
        ] {
            let (want, want_src) = build_dataset_reference(&recs, &labels, &keep, &spec);
            each_form(&recs, |form, view| {
                for jobs in [1, 3, 8] {
                    let (got, got_src) = build_dataset_view(view, &labels, &keep, &spec, jobs);
                    assert_eq!(got_src, want_src, "{form}: sources diverged at jobs={jobs}");
                    assert_eq!(
                        bits(&got.y),
                        bits(&want.y),
                        "{form}: labels diverged at jobs={jobs}"
                    );
                    assert_eq!(
                        bits(&got.x),
                        bits(&want.x),
                        "{form}: x diverged at jobs={jobs}"
                    );
                }
            });
        }
    }

    #[test]
    fn columnar_handles_empty_and_short_traces() {
        for n in [0usize, 1, 2, 3] {
            let (recs, labels, keep) = mixed_stream(n);
            let spec = FeatureSpec::heimdall();
            let (want, want_src) = build_dataset_reference(&recs, &labels, &keep, &spec);
            each_form(&recs, |form, view| {
                let (got, got_src) = build_dataset_view(view, &labels, &keep, &spec, 4);
                assert_eq!(got_src, want_src, "{form}");
                assert_eq!(bits(&got.x), bits(&want.x), "{form}");
                assert_eq!(got.rows(), want.rows(), "{form}");
            });
        }
    }

    #[test]
    fn columnar_linnos_matches_reference_bitwise() {
        let (recs, labels, keep) = mixed_stream(90);
        let (want, want_src) = build_linnos_dataset_reference(&recs, &labels, &keep);
        each_form(&recs, |form, view| {
            for jobs in [1, 5] {
                let (got, got_src) = build_linnos_dataset_view(view, &labels, &keep, jobs);
                assert_eq!(got_src, want_src, "{form} jobs={jobs}");
                assert_eq!(bits(&got.y), bits(&want.y), "{form} jobs={jobs}");
                assert_eq!(bits(&got.x), bits(&want.x), "{form} jobs={jobs}");
            }
        });
    }

    #[test]
    fn columnar_joint_matches_reference_bitwise() {
        let (recs, labels, keep) = mixed_stream(100);
        for (depth, p) in [(3usize, 5usize), (0, 2), (2, 7)] {
            let (want, want_groups) =
                build_joint_dataset_reference(&recs, &labels, &keep, depth, p);
            each_form(&recs, |form, view| {
                for jobs in [1, 4] {
                    let (got, got_groups) =
                        build_joint_dataset_view(view, &labels, &keep, depth, p, jobs);
                    assert_eq!(got_groups, want_groups, "{form}: depth {depth} p {p}");
                    assert_eq!(bits(&got.y), bits(&want.y), "{form}");
                    assert_eq!(bits(&got.x), bits(&want.x), "{form}");
                }
            });
        }
    }

    #[test]
    fn fused_stats_match_scaler_fit_on_train_split() {
        use heimdall_nn::{Scaler, ScalerKind};
        let (recs, labels, keep) = mixed_stream(150);
        let spec = FeatureSpec::heimdall();
        let batch = RecordBatch::from_records(&recs);
        let view = ReadView::from(&batch);
        let (data, _, stats) = build_dataset_stats(&view, &labels, &keep, &spec, 3, 0.5);
        let (train, _) = data.split(0.5);
        assert_eq!(stats.rows, train.rows());
        let fused = Scaler::from_minmax_stats(&stats);
        let fit = Scaler::fit(ScalerKind::MinMax, &train);
        let mut a = data.clone();
        let mut b = data.clone();
        fit.transform(&mut a);
        fused.transform(&mut b);
        assert_eq!(bits(&a.x), bits(&b.x));
    }

    #[test]
    fn compiled_spec_resolves_deep_offsets_to_zero() {
        let spec = FeatureSpec {
            columns: vec![Feature::HistLatency(5), Feature::QueueLen],
            hist_depth: 2,
        };
        let compiled = spec.compile();
        assert_eq!(compiled.dim(), 2);
        assert_eq!(compiled.hist_depth, 2);
        assert_eq!(compiled.cols[0], ColSource::Zero);
        assert_eq!(compiled.cols[1], ColSource::QueueLen);
    }

    #[test]
    fn feature_tags_are_static_when_unindexed() {
        assert!(matches!(Feature::QueueLen.tag(), Cow::Borrowed("queueLen")));
        assert!(matches!(Feature::Size.tag(), Cow::Borrowed("ioSize")));
        assert_eq!(Feature::HistLatency(2).tag(), "histLat[2]");
    }
}

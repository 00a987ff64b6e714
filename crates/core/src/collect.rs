//! Data collection (the "DC" pipeline stage in Fig 1).
//!
//! A storage operator logs the last N minutes of I/Os before training (§2):
//! for every request we record its static features (size, type), runtime
//! features (queue length at arrival), and outcome (latency, per-I/O
//! throughput). The simulator additionally stamps the ground-truth busy flag,
//! which only evaluation code may look at.

use heimdall_ssd::SsdDevice;
use heimdall_trace::{IoOp, IoRequest, Trace};
use serde::{Deserialize, Serialize};

/// One logged I/O observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoRecord {
    /// Arrival time, microseconds from trace start.
    pub arrival_us: u64,
    /// Completion time.
    pub finish_us: u64,
    /// Request size in bytes.
    pub size: u32,
    /// Read or write.
    pub op: IoOp,
    /// Device queue length observed at arrival.
    pub queue_len: u32,
    /// End-to-end latency, microseconds.
    pub latency_us: u64,
    /// Per-I/O throughput, bytes per microsecond (`size / latency`). This is
    /// the signal the period-based labeler thresholds on (§3.1): it folds
    /// I/O size into the slowness measure, so a big-but-healthy I/O does not
    /// masquerade as a contention victim.
    pub throughput: f64,
    /// Ground truth from the simulator: the device was internally busy when
    /// this I/O started service. **Evaluation only.**
    pub truth_busy: bool,
}

impl IoRecord {
    /// Returns `true` for read records (the ones Heimdall models).
    pub fn is_read(&self) -> bool {
        self.op.is_read()
    }
}

/// Structure-of-arrays record log: one parallel column per [`IoRecord`]
/// field, plus bitmaps for the two flags. The columnar featurization
/// engine streams these columns directly instead of gathering fields
/// through 64-byte row structs, and a batch is the natural output of a
/// profiling replay — `collect_batch` appends each completion to six
/// columns in one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordBatch {
    /// Arrival times, microseconds from trace start.
    pub arrival_us: Vec<u64>,
    /// Completion times.
    pub finish_us: Vec<u64>,
    /// Request sizes in bytes.
    pub size: Vec<u32>,
    /// Device queue lengths observed at arrival.
    pub queue_len: Vec<u32>,
    /// End-to-end latencies, microseconds.
    pub latency_us: Vec<u64>,
    /// Per-I/O throughputs, bytes per microsecond.
    pub throughput: Vec<f64>,
    /// Read-op bitmap, one bit per record (bit i of word i/64).
    read_bits: Vec<u64>,
    /// Ground-truth busy bitmap. **Evaluation only.**
    truth_bits: Vec<u64>,
    len: usize,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// An empty batch with room for `cap` records.
    pub fn with_capacity(cap: usize) -> RecordBatch {
        RecordBatch {
            arrival_us: Vec::with_capacity(cap),
            finish_us: Vec::with_capacity(cap),
            size: Vec::with_capacity(cap),
            queue_len: Vec::with_capacity(cap),
            latency_us: Vec::with_capacity(cap),
            throughput: Vec::with_capacity(cap),
            read_bits: Vec::with_capacity(cap / 64 + 1),
            truth_bits: Vec::with_capacity(cap / 64 + 1),
            len: 0,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no records are logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one record.
    pub fn push(&mut self, r: IoRecord) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.read_bits.push(0);
            self.truth_bits.push(0);
        }
        self.read_bits[word] |= u64::from(r.is_read()) << bit;
        self.truth_bits[word] |= u64::from(r.truth_busy) << bit;
        self.arrival_us.push(r.arrival_us);
        self.finish_us.push(r.finish_us);
        self.size.push(r.size);
        self.queue_len.push(r.queue_len);
        self.latency_us.push(r.latency_us);
        self.throughput.push(r.throughput);
        self.len += 1;
    }

    /// Whether record `i` is a read.
    #[inline]
    pub fn is_read(&self, i: usize) -> bool {
        self.read_bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Ground-truth busy flag of record `i`. **Evaluation only.**
    #[inline]
    pub fn truth_busy(&self, i: usize) -> bool {
        self.truth_bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Gathers record `i` back into row form.
    pub fn get(&self, i: usize) -> IoRecord {
        IoRecord {
            arrival_us: self.arrival_us[i],
            finish_us: self.finish_us[i],
            size: self.size[i],
            op: if self.is_read(i) {
                IoOp::Read
            } else {
                IoOp::Write
            },
            queue_len: self.queue_len[i],
            latency_us: self.latency_us[i],
            throughput: self.throughput[i],
            truth_busy: self.truth_busy(i),
        }
    }

    /// Transposes a row-form log into columns.
    pub fn from_records(records: &[IoRecord]) -> RecordBatch {
        let mut batch = RecordBatch::with_capacity(records.len());
        for &r in records {
            batch.push(r);
        }
        batch
    }

    /// Transposes back to row form (tests and the reference paths).
    pub fn to_records(&self) -> Vec<IoRecord> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Replays a trace into a device and logs every completed I/O.
///
/// Requests are submitted open-loop at their trace arrival times, matching
/// the paper's replayer (§6.1).
pub fn collect_batch(trace: &Trace, device: &mut SsdDevice) -> RecordBatch {
    let mut batch = RecordBatch::with_capacity(trace.len());
    for req in &trace.requests {
        batch.push(submit_one(req, device));
    }
    batch
}

/// Submits one request and logs it.
pub fn submit_one(req: &IoRequest, device: &mut SsdDevice) -> IoRecord {
    let done = device.submit(req, req.arrival_us);
    IoRecord {
        arrival_us: req.arrival_us,
        finish_us: done.finish_us,
        size: req.size,
        op: req.op,
        queue_len: done.queue_len,
        latency_us: done.latency_us,
        throughput: req.size as f64 / done.latency_us.max(1) as f64,
        truth_busy: done.internally_busy,
    }
}

/// Indices of the read records in a batch (labeling and training operate
/// on reads, §2): stages walk the batch through these indices as a
/// [`ReadView::Indexed`] instead of copying the reads out.
pub fn read_indices(batch: &RecordBatch) -> Vec<u32> {
    debug_assert!(
        batch.len() <= u32::MAX as usize,
        "batch too large for u32 indices"
    );
    (0..batch.len() as u32)
        .filter(|&i| batch.is_read(i as usize))
        .collect()
}

/// A borrowed, uniformly-indexed view over a record log: a whole batch or
/// an index projection of one. Pipeline-stage internals (labeling,
/// filtering, featurization) are written against this view, so read
/// subsets, training slices and monitoring windows are index lists into
/// the one log, never copies of it.
#[derive(Debug, Clone, Copy)]
pub enum ReadView<'a> {
    /// Every record of a columnar batch.
    Batch(&'a RecordBatch),
    /// A subset of a batch, by record index (e.g. [`read_indices`]).
    Indexed {
        /// The underlying batch.
        batch: &'a RecordBatch,
        /// Selected record indices, in order.
        idx: &'a [u32],
    },
}

impl<'a> From<&'a RecordBatch> for ReadView<'a> {
    fn from(batch: &'a RecordBatch) -> Self {
        ReadView::Batch(batch)
    }
}

impl<'a> ReadView<'a> {
    /// Number of records in the view.
    pub fn len(&self) -> usize {
        match self {
            ReadView::Batch(b) => b.len(),
            ReadView::Indexed { idx, .. } => idx.len(),
        }
    }

    /// `true` when the view selects no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arrival time of view record `i`.
    #[inline]
    pub fn arrival_us(&self, i: usize) -> u64 {
        match self {
            ReadView::Batch(b) => b.arrival_us[i],
            ReadView::Indexed { batch, idx } => batch.arrival_us[idx[i] as usize],
        }
    }

    /// Completion time of view record `i`.
    #[inline]
    pub fn finish_us(&self, i: usize) -> u64 {
        match self {
            ReadView::Batch(b) => b.finish_us[i],
            ReadView::Indexed { batch, idx } => batch.finish_us[idx[i] as usize],
        }
    }

    /// Size in bytes of view record `i`.
    #[inline]
    pub fn size(&self, i: usize) -> u32 {
        match self {
            ReadView::Batch(b) => b.size[i],
            ReadView::Indexed { batch, idx } => batch.size[idx[i] as usize],
        }
    }

    /// Queue length of view record `i`.
    #[inline]
    pub fn queue_len(&self, i: usize) -> u32 {
        match self {
            ReadView::Batch(b) => b.queue_len[i],
            ReadView::Indexed { batch, idx } => batch.queue_len[idx[i] as usize],
        }
    }

    /// Latency of view record `i`.
    #[inline]
    pub fn latency_us(&self, i: usize) -> u64 {
        match self {
            ReadView::Batch(b) => b.latency_us[i],
            ReadView::Indexed { batch, idx } => batch.latency_us[idx[i] as usize],
        }
    }

    /// Per-I/O throughput of view record `i`.
    #[inline]
    pub fn throughput(&self, i: usize) -> f64 {
        match self {
            ReadView::Batch(b) => b.throughput[i],
            ReadView::Indexed { batch, idx } => batch.throughput[idx[i] as usize],
        }
    }

    /// Whether view record `i` is a read.
    #[inline]
    pub fn is_read(&self, i: usize) -> bool {
        match self {
            ReadView::Batch(b) => b.is_read(i),
            ReadView::Indexed { batch, idx } => batch.is_read(idx[i] as usize),
        }
    }

    /// Ground-truth busy flag of view record `i`. **Evaluation only.**
    #[inline]
    pub fn truth_busy(&self, i: usize) -> bool {
        match self {
            ReadView::Batch(b) => b.truth_busy(i),
            ReadView::Indexed { batch, idx } => batch.truth_busy(idx[i] as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_ssd::DeviceConfig;
    use heimdall_trace::gen::TraceBuilder;
    use heimdall_trace::WorkloadProfile;

    fn sample_batch() -> RecordBatch {
        let trace = TraceBuilder::from_profile(WorkloadProfile::AlibabaLike)
            .seed(1)
            .duration_secs(3)
            .build();
        let mut dev = SsdDevice::new(DeviceConfig::datacenter_nvme(), 2);
        collect_batch(&trace, &mut dev)
    }

    #[test]
    fn collect_logs_every_request() {
        let trace = TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(3)
            .duration_secs(2)
            .build();
        let mut dev = SsdDevice::new(DeviceConfig::datacenter_nvme(), 4);
        let batch = collect_batch(&trace, &mut dev);
        assert_eq!(batch.len(), trace.len());
    }

    #[test]
    fn throughput_is_size_over_latency() {
        for r in sample_batch().to_records().iter().take(100) {
            let expect = r.size as f64 / r.latency_us.max(1) as f64;
            assert!((r.throughput - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn finish_after_arrival() {
        for r in sample_batch().to_records() {
            assert!(r.finish_us > r.arrival_us);
            assert_eq!(r.finish_us - r.arrival_us, r.latency_us);
        }
    }

    #[test]
    fn collect_batch_matches_reference_rows() {
        // The two ways the benchmark fills a log: `collect_batch` over a
        // trace, and pushing `submit_one` rows one at a time.
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(9)
            .duration_secs(3)
            .build();
        let mut dev_rows = SsdDevice::new(DeviceConfig::datacenter_nvme(), 7);
        let mut dev_cols = SsdDevice::new(DeviceConfig::datacenter_nvme(), 7);
        let mut pushed = RecordBatch::new();
        let mut rows = Vec::new();
        for req in &trace.requests {
            let r = submit_one(req, &mut dev_rows);
            pushed.push(r);
            rows.push(r);
        }
        let batch = collect_batch(&trace, &mut dev_cols);
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch, pushed);
        assert_eq!(batch.to_records(), rows);
        assert_eq!(RecordBatch::from_records(&rows), batch);
    }

    #[test]
    fn read_indices_select_exactly_the_reads() {
        let batch = sample_batch();
        let idx = read_indices(&batch);
        assert!(!idx.is_empty() && idx.len() < batch.len());
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending, no repeats");
        let reads = batch.to_records().iter().filter(|r| r.is_read()).count();
        assert_eq!(idx.len(), reads);
        assert!(idx.iter().all(|&i| batch.get(i as usize).is_read()));
    }

    #[test]
    fn views_agree_on_every_field() {
        // The whole batch, and the same log selected by index out of a
        // batch with a decoy record in front of every real one.
        let batch = sample_batch();
        let recs = batch.to_records();
        let mut padded = RecordBatch::new();
        for &r in &recs {
            padded.push(IoRecord {
                arrival_us: r.arrival_us ^ 1,
                truth_busy: !r.truth_busy,
                ..r
            });
            padded.push(r);
        }
        let odd: Vec<u32> = (0..recs.len() as u32).map(|i| 2 * i + 1).collect();
        let views = [
            ReadView::from(&batch),
            ReadView::Indexed {
                batch: &padded,
                idx: &odd,
            },
        ];
        for v in &views {
            assert_eq!(v.len(), recs.len());
            assert!(!v.is_empty());
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(v.arrival_us(i), r.arrival_us);
                assert_eq!(v.finish_us(i), r.finish_us);
                assert_eq!(v.size(i), r.size);
                assert_eq!(v.queue_len(i), r.queue_len);
                assert_eq!(v.latency_us(i), r.latency_us);
                assert_eq!(v.throughput(i).to_bits(), r.throughput.to_bits());
                assert_eq!(v.is_read(i), r.is_read());
                assert_eq!(v.truth_busy(i), r.truth_busy);
            }
        }
    }

    #[test]
    fn busy_ground_truth_appears_under_write_pressure() {
        // Tencent-like write-heavy trace must drive the device into GC.
        let trace = TraceBuilder::from_profile(WorkloadProfile::TencentLike)
            .seed(5)
            .duration_secs(20)
            .build();
        let mut dev = SsdDevice::new(DeviceConfig::consumer_nvme(), 6);
        let batch = collect_batch(&trace, &mut dev);
        let busy = (0..batch.len()).filter(|&i| batch.truth_busy(i)).count();
        assert!(busy > 0, "no busy periods observed");
        let frac = busy as f64 / batch.len() as f64;
        assert!(frac < 0.6, "device busy too often: {frac}");
    }
}

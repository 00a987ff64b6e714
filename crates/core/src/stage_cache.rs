//! Cross-cell pipeline artifact cache.
//!
//! Threshold tuning, labeling and noise filtering depend only on the
//! trace and the labeling/filtering configuration — not on the model
//! seed, the feature mode, the joint width or the replay policy — yet
//! every (trace, seed, policy, width) cell of a sweep re-runs them. This
//! module keys the label/filter stage output
//! ([`crate::pipeline::LabelArtifact`]) by a content hash of the read
//! records plus the stage-relevant configuration, so a sweep tunes,
//! labels and filters each distinct trace once across all of its cells
//! and worker threads (feature extraction, a single cheap pass, stays
//! per-cell).
//!
//! The cache is deliberately value-deterministic: the artifact for a key
//! is a pure function of the hashed inputs, so a racing double-build (two
//! workers missing on the same key concurrently) produces identical
//! values and first-insert-wins is benign. Sweep outputs therefore stay
//! byte-identical whether the cache is enabled or not, and for any worker
//! count — the golden determinism tests hold exactly that.

use crate::collect::ReadView;
use crate::pipeline::{LabelArtifact, PipelineConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a, the workspace-standard dependency-free content hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a hasher over raw little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Content hash of the label/filter stage inputs: every field of every
/// read record (floats by bit pattern) plus the stage-relevant
/// configuration (labeling mode, filter config). Seed, features, joint
/// width, selection, architecture, training options, split, scaling and
/// calibration are deliberately excluded — they only affect the per-cell
/// stages, so cells differing only in those still share one artifact.
///
/// Hashes the identical byte stream for the same logical records whatever
/// the [`ReadView`] form, so a batch of reads and the read indices of a
/// log with writes share cache entries.
pub fn stage_key_view(view: &ReadView<'_>, cfg: &PipelineConfig) -> u64 {
    let mut h = Fnv::new();
    let n = view.len();
    h.write_u64(n as u64);
    for i in 0..n {
        h.write_u64(view.arrival_us(i));
        h.write_u64(view.finish_us(i));
        h.write_u64(view.size(i) as u64);
        h.write_u64(view.is_read(i) as u64);
        h.write_u64(view.queue_len(i) as u64);
        h.write_u64(view.latency_us(i));
        h.write_u64(view.throughput(i).to_bits());
        h.write_u64(view.truth_busy(i) as u64);
    }
    // The stage-relevant config subset, via its canonical Debug rendering
    // (every variant and field derives Debug; no float formatting loss
    // matters here — equal configs render equally, and that is all a cache
    // key needs).
    let cfg_repr = format!("{:?}|{:?}", cfg.labeling, cfg.filtering);
    h.write(cfg_repr.as_bytes());
    h.0
}

/// Thread-safe, keyed cache of [`LabelArtifact`]s shared across the cells
/// of a sweep. See the module docs for the determinism contract.
#[derive(Default)]
pub struct StageCache {
    map: Mutex<HashMap<u64, Arc<LabelArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> StageCache {
        StageCache::default()
    }

    /// Returns the artifact for `key`, building it with `build` on a miss.
    ///
    /// The builder runs *outside* the lock, so concurrent cells computing
    /// different traces never serialize on each other; two cells racing on
    /// the same key may both build, in which case the first insert wins
    /// (both values are identical by construction).
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> LabelArtifact,
    ) -> Arc<LabelArtifact> {
        if let Some(found) = self.map.lock().expect("stage cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        let built = Arc::new(build());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().expect("stage cache poisoned");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct artifacts currently held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("stage cache poisoned").len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{IoRecord, RecordBatch};
    use crate::pipeline::{FeatureMode, LabelingMode};
    use heimdall_trace::IoOp;

    fn record(arrival: u64, lat: u64) -> IoRecord {
        IoRecord {
            arrival_us: arrival,
            finish_us: arrival + lat,
            size: 4096,
            op: IoOp::Read,
            queue_len: 1,
            latency_us: lat,
            throughput: 4096.0 / lat.max(1) as f64,
            truth_busy: false,
        }
    }

    fn artifact(rows: usize) -> LabelArtifact {
        LabelArtifact {
            labels: vec![false; rows],
            keep: vec![true; rows],
            filter_stats: None,
            label_accuracy_vs_truth: 0.5,
        }
    }

    #[test]
    fn key_is_sensitive_to_records_and_stage_config() {
        let cfg = PipelineConfig::heimdall();
        let a = vec![record(0, 100), record(10, 120)];
        let mut b = a.clone();
        b[1].latency_us += 1;
        let (a, b) = (RecordBatch::from_records(&a), RecordBatch::from_records(&b));
        let (a, b) = (ReadView::from(&a), ReadView::from(&b));
        assert_ne!(stage_key_view(&a, &cfg), stage_key_view(&b, &cfg));
        let mut cutoff = cfg.clone();
        cutoff.labeling = LabelingMode::Cutoff;
        assert_ne!(stage_key_view(&a, &cfg), stage_key_view(&a, &cutoff));
        let mut unfiltered = cfg.clone();
        unfiltered.filtering = None;
        assert_ne!(stage_key_view(&a, &cfg), stage_key_view(&a, &unfiltered));
        assert_eq!(
            stage_key_view(&a, &cfg),
            stage_key_view(&a, &PipelineConfig::heimdall())
        );
    }

    #[test]
    fn key_ignores_model_side_config() {
        let cfg = PipelineConfig::heimdall();
        let recs = RecordBatch::from_records(&[record(0, 100)]);
        let mut cell = cfg.clone();
        cell.seed = 999;
        cell.train.epochs = 1;
        cell.calibrate = false;
        cell.joint = 5;
        cell.features = FeatureMode::Full(2);
        cell.select_min_corr = Some(0.1);
        let view = ReadView::from(&recs);
        assert_eq!(stage_key_view(&view, &cfg), stage_key_view(&view, &cell));
    }

    #[test]
    fn hit_returns_same_artifact() {
        let cache = StageCache::new();
        let first = cache.get_or_build(7, || artifact(3));
        let second = cache.get_or_build(7, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_mixed_keys_converge() {
        let cache = Arc::new(StageCache::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let key = (t + i) % 4;
                        let got = cache.get_or_build(key, || artifact(key as usize + 1));
                        assert_eq!(got.labels.len(), key as usize + 1);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits() + cache.misses(), 400);
    }
}

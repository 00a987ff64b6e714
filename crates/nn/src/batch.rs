//! The decision kernel (§4.1/§4.2 deployment path).
//!
//! Every quantized entry point — scalar, batched, sign-only — scores one row
//! at a time through one row kernel; a batch of P is P rows
//! (the weights are ≤ 15 KB and stay L1-resident, so sweeping them once per
//! row costs nothing a cross-row sweep would save). A row first runs the
//! **i32 pass**: i16 activations against the pair-interleaved i16 weight
//! pack, `acc[o] += w[k][o]·a[k] + w[k+1][o]·a[k+1]` in i32 (`pmaddwd` on
//! x86-64, where SSE2 is baseline), checking after every requantize that
//! `max|a|` is within the next layer's exactness bound. On a miss that row
//! reruns through the **i64 pass** — the canonical i32×i64→i64 arithmetic,
//! saturating activations at the same bound taken at i64 width. Integer
//! arithmetic is exact at both widths, so whichever pass answers, the logit
//! is **bitwise identical** to the i64 pass alone.

use crate::quantized::QuantizedMlp;
use std::cell::RefCell;

/// Reusable scratch arena for the row kernel: current and next activation
/// vector at each width (two halves of one buffer, swapping roles layer by
/// layer), the i32 accumulators, and one staged input row.
///
/// Construct once per deployment site and pass to every `*_into` call; the
/// buffers grow to the widest layer of the widest model seen — never with
/// the batch size — so steady-state scoring is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    a16: Vec<i16>,
    acc: Vec<i32>,
    /// Allocated by the first row that falls back to the i64 pass.
    a64: Vec<i64>,
    /// f32 staging for one scaler-transformed input row.
    scaled: Vec<f32>,
}

thread_local! {
    /// Arena behind the entry points that take no scratch argument.
    static LOCAL: RefCell<BatchScratch> = RefCell::default();
}

impl BatchScratch {
    /// Creates an empty arena (buffers grow on first use).
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Runs `f` with this thread's shared arena (a fresh one if `f` is
    /// itself running inside `with_local`).
    pub fn with_local<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
        LOCAL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut BatchScratch::new()),
        })
    }

    /// Detaches the input-row staging buffer (cleared) for callers that
    /// transform a row before scoring it; hand it back with
    /// [`BatchScratch::put_rows`] so its capacity is reused. The kernel
    /// never touches this buffer, so it stays valid across scoring calls.
    pub fn take_rows(&mut self) -> Vec<f32> {
        let mut v = std::mem::take(&mut self.scaled);
        v.clear();
        v
    }

    /// Returns a buffer obtained from [`BatchScratch::take_rows`].
    pub fn put_rows(&mut self, v: Vec<f32>) {
        self.scaled = v;
    }
}

/// The current and next activation vectors of layer `li`: the two
/// `width`-long halves of `buf` (grown if shorter), roles alternating with
/// the layer index.
fn halves<T: Clone + Default>(buf: &mut Vec<T>, width: usize, li: usize) -> (&mut [T], &mut [T]) {
    if buf.len() < 2 * width {
        buf.resize(2 * width, T::default());
    }
    let (lo, hi) = buf.split_at_mut(width);
    if li.is_multiple_of(2) {
        (lo, &mut hi[..width])
    } else {
        (&mut hi[..width], lo)
    }
}

/// `acc[o] += Σ_k w[k][o][0]·a[2k] + w[k][o][1]·a[2k+1]` over the
/// pair-interleaved pack `w = [a.len() / 2][acc.len()][2]`, for NV vectors
/// of four outputs whose pack columns start at `w[0]`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn madd_block<const NV: usize>(w: &[i16], stride: usize, a: &[i16], acc: &mut [i32]) {
    use std::arch::x86_64::*;
    let pairs = a.len() / 2;
    assert!(acc.len() == 4 * NV && (pairs == 0 || w.len() >= (pairs - 1) * stride + 8 * NV));
    // SAFETY: SSE2 is part of the x86-64 baseline. Each weight load reads 8
    // i16 at `w[k * stride + 8 * v..]` with `k < pairs`, `v < NV`, inside
    // `w` by the assert above; accumulator loads and stores touch
    // `acc[4 * v..4 * v + 4]` with `v < NV`, inside `acc` by the same
    // assert; the unaligned load/store forms carry no alignment requirement.
    unsafe {
        let mut r = [_mm_setzero_si128(); NV];
        for (v, r) in r.iter_mut().enumerate() {
            *r = _mm_loadu_si128(acc.as_ptr().add(4 * v).cast());
        }
        for (k, pair) in a.chunks_exact(2).enumerate() {
            let pair =
                _mm_set1_epi32((pair[0] as u16 as u32 | (pair[1] as u16 as u32) << 16) as i32);
            let wk = w.as_ptr().add(k * stride);
            for (v, r) in r.iter_mut().enumerate() {
                let wv = _mm_loadu_si128(wk.add(8 * v).cast());
                *r = _mm_add_epi32(*r, _mm_madd_epi16(wv, pair));
            }
        }
        for (v, r) in r.iter().enumerate() {
            _mm_storeu_si128(acc.as_mut_ptr().add(4 * v).cast(), *r);
        }
    }
}

/// The i32 pass's inner loop over one layer (see [`madd_block`] for the
/// sum): 16 outputs per block while they last, then 4.
#[cfg(target_arch = "x86_64")]
fn madd_rows(w: &[i16], a: &[i16], acc: &mut [i32]) {
    let stride = 2 * acc.len();
    assert!(acc.len().is_multiple_of(4) && w.len() == a.len() / 2 * stride);
    let mut o = 0;
    while o + 16 <= acc.len() {
        madd_block::<4>(&w[2 * o..], stride, a, &mut acc[o..o + 16]);
        o += 16;
    }
    while o < acc.len() {
        madd_block::<1>(&w[2 * o..], stride, a, &mut acc[o..o + 4]);
        o += 4;
    }
}

/// The same sum in safe scalar code: the inner loop on other targets and
/// the model the SSE2 loop is tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn madd_rows_portable(w: &[i16], a: &[i16], acc: &mut [i32]) {
    assert_eq!(w.len(), a.len() * acc.len());
    for (wk, ak) in w.chunks_exact(2 * acc.len()).zip(a.chunks_exact(2)) {
        for (acc, wo) in acc.iter_mut().zip(wk.chunks_exact(2)) {
            *acc += wo[0] as i32 * ak[0] as i32 + wo[1] as i32 * ak[1] as i32;
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
use madd_rows_portable as madd_rows;

impl QuantizedMlp {
    /// The i32 pass over one row; `None` as soon as an activation exceeds
    /// the bound of the layer about to consume it.
    pub(crate) fn narrow_row(&self, x: &[f32], s: &mut BatchScratch) -> Option<f32> {
        assert_eq!(x.len(), self.input_dim(), "input dimensionality mismatch");
        let scale = self.scale as f32;
        let first = self.layers.first()?;
        let (input, _) = halves(&mut s.a16, self.width, 0);
        input[x.len()..first.in_pad()].fill(0);
        let m = input.iter_mut().zip(x).fold(0, |m, (a, &v)| {
            let q = (v * scale).round() as i32;
            *a = q as i16;
            m.max(q.saturating_abs())
        });
        if m > first.amax {
            return None;
        }
        s.acc.resize(s.acc.len().max(self.width), 0);
        for (li, layer) in self.layers.iter().enumerate() {
            let (cur, out) = halves(&mut s.a16, self.width, li);
            let acc = &mut s.acc[..layer.b32.len()];
            acc.copy_from_slice(&layer.b32);
            madd_rows(&layer.w16, &cur[..layer.in_pad()], acc);
            let Some(next) = self.layers.get(li + 1) else {
                return Some(self.requant(acc[0] as i64, layer.neg_slope_q) as f32 / scale);
            };
            // Plain ReLU at a power-of-two scale requantizes as `max(0) >> k`,
            // which vectorizes. Either way an `as i16` can only truncate a
            // value above 32767 ≥ `next.amax`, and that row is declined
            // before the value is read.
            out[layer.out_dim..next.in_pad()].fill(0);
            let acc = &acc[..layer.out_dim];
            let m = if let Some(k) = self.shift.filter(|_| layer.neg_slope_q == 0) {
                out.iter_mut().zip(acc).fold(0, |m, (y, &acc)| {
                    let v = acc.max(0) >> k;
                    *y = v as i16;
                    m.max(v)
                }) as i64
            } else {
                out.iter_mut().zip(acc).fold(0, |m, (y, &acc)| {
                    let v = self.requant(acc as i64, layer.neg_slope_q);
                    *y = v as i16;
                    m.max(v.saturating_abs())
                })
            };
            if m > next.amax as i64 {
                return None;
            }
        }
        None
    }

    /// The i64 pass over one row: the canonical arithmetic, with every
    /// layer's input activations saturated at the magnitude below which its
    /// accumulators cannot wrap — no overflow in either build profile.
    pub(crate) fn wide_row(&self, x: &[f32], s: &mut BatchScratch) -> f32 {
        assert_eq!(x.len(), self.input_dim(), "input dimensionality mismatch");
        let scale = self.scale as f32;
        let bound = self.layers.first().map_or(0, |l| l.amax64);
        let (input, _) = halves(&mut s.a64, self.width, 0);
        for (a, &v) in input.iter_mut().zip(x) {
            *a = ((v * scale).round() as i64).clamp(-bound, bound);
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let bound = self.layers.get(li + 1).map_or(i64::MAX, |l| l.amax64);
            let (cur, out) = halves(&mut s.a64, self.width, li);
            for ((y, row), &b) in out
                .iter_mut()
                .zip(layer.w.chunks(layer.in_dim))
                .zip(&layer.b)
            {
                let dot: i64 = row.iter().zip(&*cur).map(|(&wq, &aq)| wq as i64 * aq).sum();
                *y = self
                    .requant(b + dot, layer.neg_slope_q)
                    .clamp(-bound, bound);
            }
        }
        let (logit, _) = halves(&mut s.a64, self.width, self.layers.len());
        logit[0] as f32 / scale
    }

    /// Raw dequantized logit for one (already scaled) row — the one kernel
    /// every quantized entry point goes through.
    pub(crate) fn logit_with(&self, x: &[f32], scratch: &mut BatchScratch) -> f32 {
        match self.narrow_row(x, scratch) {
            Some(z) => z,
            None => self.wide_row(x, scratch),
        }
    }

    /// The P rows of a row-major `P × input_dim` batch.
    fn rows_of<'a>(&self, rows: &'a [f32]) -> std::slice::ChunksExact<'a, f32> {
        let dim = self.input_dim();
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "input dimensionality mismatch"
        );
        rows.chunks_exact(dim)
    }

    /// Raw dequantized output logits for a row-major batch of (already
    /// scaled) f32 feature rows, appended to `out`.
    ///
    /// `rows` holds `P × input_dim` values; each of the P logits is bitwise
    /// identical to [`QuantizedMlp::logit`] on the corresponding row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn logit_batch_into(&self, rows: &[f32], scratch: &mut BatchScratch, out: &mut Vec<f32>) {
        out.extend(self.rows_of(rows).map(|x| self.logit_with(x, scratch)));
    }

    /// Slow-probabilities for a row-major batch, appended to `out`; each
    /// value is bitwise identical to [`QuantizedMlp::predict`] on the row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn predict_batch_into(&self, rows: &[f32], scratch: &mut BatchScratch, out: &mut Vec<f32>) {
        let start = out.len();
        self.logit_batch_into(rows, scratch, out);
        for z in &mut out[start..] {
            *z = self.squash(*z);
        }
    }

    /// Hard decisions (`true` = predicted slow) for a row-major batch,
    /// appended to `out` — the sign-only deployed path.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn predict_slow_batch_into(
        &self,
        rows: &[f32],
        scratch: &mut BatchScratch,
        out: &mut Vec<bool>,
    ) {
        out.extend(
            self.rows_of(rows)
                .map(|x| self.logit_with(x, scratch) >= 0.0),
        );
    }

    /// Allocating convenience wrapper over [`QuantizedMlp::logit_batch_into`].
    pub fn logit_batch(&self, rows: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        BatchScratch::with_local(|s| self.logit_batch_into(rows, s, &mut out));
        out
    }

    /// Allocating convenience wrapper over [`QuantizedMlp::predict_batch_into`].
    pub fn predict_batch(&self, rows: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        BatchScratch::with_local(|s| self.predict_batch_into(rows, s, &mut out));
        out
    }

    /// Allocating convenience wrapper over
    /// [`QuantizedMlp::predict_slow_batch_into`].
    pub fn predict_slow_batch(&self, rows: &[f32]) -> Vec<bool> {
        let mut out = Vec::new();
        BatchScratch::with_local(|s| self.predict_slow_batch_into(rows, s, &mut out));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::mlp::{Mlp, MlpConfig, TrainOpts};
    use heimdall_trace::rng::Rng64;

    fn toy(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            for v in &mut row {
                *v = rng.f32();
            }
            let s: f32 = row.iter().sum();
            d.push(&row, if s > dim as f32 / 2.0 { 1.0 } else { 0.0 });
        }
        d
    }

    fn trained(dim: usize, seed: u64) -> QuantizedMlp {
        let data = toy(800, dim, seed);
        let mut m = Mlp::new(MlpConfig::heimdall(dim), seed + 1);
        m.train(
            &data,
            &TrainOpts {
                epochs: 3,
                ..Default::default()
            },
        );
        QuantizedMlp::quantize_paper(&m)
    }

    #[test]
    fn batch_logits_bitwise_match_scalar() {
        let q = trained(5, 1);
        let mut rng = Rng64::new(2);
        for p in [1usize, 2, 3, 7, 8, 32] {
            let rows: Vec<f32> = (0..p * 5).map(|_| rng.f32() * 2.0 - 0.5).collect();
            let batch = q.logit_batch(&rows);
            assert_eq!(batch.len(), p);
            for (r, &z) in batch.iter().enumerate() {
                let scalar = q.logit(&rows[r * 5..(r + 1) * 5]);
                assert_eq!(z.to_bits(), scalar.to_bits(), "row {r} of batch {p}");
            }
        }
    }

    #[test]
    fn batch_predictions_and_decisions_match_scalar() {
        let q = trained(4, 3);
        let mut rng = Rng64::new(4);
        let rows: Vec<f32> = (0..9 * 4).map(|_| rng.f32()).collect();
        let probs = q.predict_batch(&rows);
        let slow = q.predict_slow_batch(&rows);
        for r in 0..9 {
            let row = &rows[r * 4..(r + 1) * 4];
            assert_eq!(probs[r].to_bits(), q.predict(row).to_bits());
            assert_eq!(slow[r], q.predict_slow(row));
        }
    }

    #[test]
    fn scratch_is_reusable_across_batch_sizes() {
        let q = trained(3, 5);
        let mut scratch = BatchScratch::new();
        let mut rng = Rng64::new(6);
        for p in [8usize, 1, 5, 2] {
            let rows: Vec<f32> = (0..p * 3).map(|_| rng.f32()).collect();
            let mut out = Vec::new();
            q.logit_batch_into(&rows, &mut scratch, &mut out);
            for (r, &z) in out.iter().enumerate() {
                assert_eq!(z.to_bits(), q.logit(&rows[r * 3..(r + 1) * 3]).to_bits());
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let q = trained(3, 7);
        assert!(q.predict_batch(&[]).is_empty());
        assert!(q.predict_slow_batch(&[]).is_empty());
    }

    #[test]
    fn into_variants_append_without_clearing() {
        let q = trained(3, 8);
        let mut scratch = BatchScratch::new();
        let mut out = vec![9.0f32];
        q.predict_batch_into(&[0.1, 0.2, 0.3], &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "input dimensionality mismatch")]
    fn ragged_row_length_panics() {
        trained(3, 9).logit_batch(&[0.1, 0.2]);
    }

    #[test]
    fn madd_rows_matches_sequential() {
        // The target's inner loop (SSE2 on x86-64) against the portable
        // loop and a sequential i64 dot product, over odd input widths and
        // output widths that are not a multiple of 4 or 16.
        let mut rng = Rng64::new(10);
        for (in_dim, out_dim) in [(1, 1), (3, 5), (11, 128), (128, 16), (16, 1), (31, 20)] {
            let (in_pad, out_pad) = (
                usize::next_multiple_of(in_dim, 2),
                usize::next_multiple_of(out_dim, 4),
            );
            let mut draw = |n: usize| -> Vec<i16> {
                (0..n)
                    .map(|_| (rng.next_u64() % 4096) as i16 - 2048)
                    .collect()
            };
            let (w, a) = (draw(in_pad * out_pad), draw(in_pad));
            let bias: Vec<i32> = draw(out_pad).iter().map(|&b| b as i32 * 1024).collect();
            let (mut fast, mut portable) = (bias.clone(), bias.clone());
            madd_rows(&w, &a, &mut fast);
            madd_rows_portable(&w, &a, &mut portable);
            assert_eq!(fast, portable, "{in_dim}x{out_dim}");
            for o in 0..out_pad {
                let dot: i64 = (0..in_pad)
                    .map(|k| w[(k / 2 * out_pad + o) * 2 + k % 2] as i64 * a[k] as i64)
                    .sum();
                assert_eq!(
                    fast[o] as i64,
                    bias[o] as i64 + dot,
                    "{in_dim}x{out_dim} row {o}"
                );
            }
        }
    }

    #[test]
    fn scratch_capacity_does_not_grow_with_batch_size() {
        let q = trained(5, 11);
        let bytes = |s: &BatchScratch| {
            2 * s.a16.capacity()
                + 4 * (s.acc.capacity() + s.scaled.capacity())
                + 8 * s.a64.capacity()
        };
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        q.predict_batch_into(&[0.5; 5], &mut scratch, &mut out);
        let one_row = bytes(&scratch);
        assert!(one_row > 0 && one_row <= 24 * q.width, "{one_row} bytes");
        let mut rng = Rng64::new(12);
        let rows: Vec<f32> = (0..100_000 * 5).map(|_| rng.f32()).collect();
        q.predict_batch_into(&rows, &mut scratch, &mut out);
        assert_eq!(out.len(), 100_001);
        assert_eq!(bytes(&scratch), one_row, "high-water mark moved with P");
    }
}

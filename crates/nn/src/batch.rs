//! The decision kernel (§4.1/§4.2 deployment path).
//!
//! Every quantized entry point — scalar, batched, sign-only — scores one row
//! at a time through one row kernel; a batch of P is P rows
//! (the weights are ≤ 15 KB and stay L1-resident, so sweeping them once per
//! row costs nothing a cross-row sweep would save). A row first runs the
//! **i32 pass**: i16 activations against the pair-interleaved i16 weight
//! pack, `acc[o] += w[k][o]·a[k] + w[k+1][o]·a[k+1]` in i32 (`pmaddwd` on
//! x86-64), one register block of `BLOCK` outputs at a time: the block is
//! requantized, bound-checked and narrowed in registers and stored straight
//! into the next layer's input. The block loop and its epilogue are written
//! once over the `Lanes` primitives and run at the widest lanes the CPU
//! has. After every requantize `max|a|` must be within the next layer's
//! exactness bound; on a miss that row reruns through the **i64 pass** —
//! the canonical i32×i64→i64 arithmetic,
//! saturating activations at the same bound taken at i64 width. Integer
//! arithmetic is exact at both widths, so whichever pass answers, the logit
//! is **bitwise identical** to the i64 pass alone.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::quantized::QuantizedMlp;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::cell::RefCell;

/// Outputs per register block of the i32 pass. Every layer's pack is
/// zero-padded to a multiple of this, so no lane width needs a tail loop.
pub(crate) const BLOCK: usize = 16;

/// Reusable scratch arena for the row kernel: current and next activation
/// vector at each width (two halves of one buffer, swapping roles layer by
/// layer) and one staged input row.
///
/// Construct once per deployment site and pass to every `*_into` call; the
/// buffers grow to the widest layer of the widest model seen — never with
/// the batch size — so steady-state scoring is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    a16: Vec<i16>,
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
    /// [`BatchScratch::put_rows`]. The kernel never touches this buffer.
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

/// The current and next activation vectors of a row, each at least `width`
/// long: the halves of `buf`, sized once per row and swapped layer by layer.
fn planes<T: Clone + Default>(buf: &mut Vec<T>, width: usize) -> (&mut [T], &mut [T]) {
    if buf.len() < 2 * width {
        buf.resize(2 * width, T::default());
    }
    buf.split_at_mut(width)
}

/// One vector of i32 accumulators: the primitive operations the i32 pass is
/// written in. The instances — plain arrays, SSE2, AVX2 — differ in these
/// one-liners only; the block loop and the epilogue exist once.
///
/// # Safety
///
/// Every method requires that the CPU supports the instance's instruction
/// set and that a pointer is valid for the stated (unaligned) access.
trait Lanes: Copy {
    /// i32 lanes per vector.
    const N: usize;
    /// `v` on every lane.
    unsafe fn splat(v: i32) -> Self;
    /// Reads `N` i32 at `p`.
    unsafe fn load(p: *const i32) -> Self;
    /// `pmaddwd`: lane `l` gains `w[2l]·lo + w[2l+1]·hi` for the i16 pair
    /// `pair` holds on every lane; reads `2N` i16 at `w`.
    unsafe fn madd(self, w: *const i16, pair: Self) -> Self;
    /// `max(self, 0) >> k` per lane.
    unsafe fn relu_shr(self, k: u32) -> Self;
    /// Lane-wise maximum.
    unsafe fn max(self, other: Self) -> Self;
    /// Writes `N` i32 at `p`.
    unsafe fn store(self, p: *mut i32);
    /// Narrows `self` then `hi` to i16 with saturation and writes the `2N`
    /// values at `p` in lane order.
    unsafe fn store_i16(self, hi: Self, p: *mut i16);
}

/// Plain arrays: the lanes of other targets, and the executable model the
/// vector instances are tested against.
// SAFETY (the three impls, whose `unsafe fn` bodies carry no inner blocks):
// every operation is safe, an intrinsic of the instance's instruction set,
// or an access of exactly the documented extent — the trait's contract.
#[allow(unsafe_op_in_unsafe_fn)]
impl Lanes for [i32; 8] {
    const N: usize = 8;
    #[inline(always)]
    unsafe fn splat(v: i32) -> Self {
        [v; 8]
    }
    #[inline(always)]
    unsafe fn load(p: *const i32) -> Self {
        p.cast::<Self>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn madd(mut self, w: *const i16, pair: Self) -> Self {
        let w = w.cast::<[[i16; 2]; 8]>().read_unaligned();
        let (lo, hi) = ((pair[0] as i16) as i32, pair[0] >> 16);
        for (acc, w) in self.iter_mut().zip(w) {
            *acc += w[0] as i32 * lo + w[1] as i32 * hi;
        }
        self
    }
    #[inline(always)]
    unsafe fn relu_shr(self, k: u32) -> Self {
        self.map(|v| v.max(0) >> k)
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        std::array::from_fn(|l| self[l].max(other[l]))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut i32) {
        p.cast::<Self>().write_unaligned(self)
    }
    #[inline(always)]
    unsafe fn store_i16(self, hi: Self, p: *mut i16) {
        let narrow = |v: i32| v.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
        p.cast::<[[i16; 8]; 2]>()
            .write_unaligned([self.map(narrow), hi.map(narrow)])
    }
}

/// SSE2, the x86-64 baseline (no `pmaxsd` before SSE4.1: maxima are
/// compare-and-blend).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_op_in_unsafe_fn)]
impl Lanes for __m128i {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn splat(v: i32) -> Self {
        _mm_set1_epi32(v)
    }
    #[inline(always)]
    unsafe fn load(p: *const i32) -> Self {
        _mm_loadu_si128(p.cast())
    }
    #[inline(always)]
    unsafe fn madd(self, w: *const i16, pair: Self) -> Self {
        _mm_add_epi32(self, _mm_madd_epi16(_mm_loadu_si128(w.cast()), pair))
    }
    #[inline(always)]
    unsafe fn relu_shr(self, k: u32) -> Self {
        let relu = _mm_andnot_si128(_mm_srai_epi32::<31>(self), self);
        _mm_srl_epi32(relu, _mm_cvtsi32_si128(k as i32))
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        let gt = _mm_cmpgt_epi32(self, other);
        _mm_or_si128(_mm_and_si128(gt, self), _mm_andnot_si128(gt, other))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut i32) {
        _mm_storeu_si128(p.cast(), self)
    }
    #[inline(always)]
    unsafe fn store_i16(self, hi: Self, p: *mut i16) {
        _mm_storeu_si128(p.cast(), _mm_packs_epi32(self, hi))
    }
}

/// AVX2: half the instructions of SSE2 per row, with the weight load folded
/// into `vpmaddwd`. Only reachable through [`QuantizedMlp::narrow_row_avx2`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_op_in_unsafe_fn)]
impl Lanes for __m256i {
    const N: usize = 8;
    #[inline(always)]
    unsafe fn splat(v: i32) -> Self {
        _mm256_set1_epi32(v)
    }
    #[inline(always)]
    unsafe fn load(p: *const i32) -> Self {
        _mm256_loadu_si256(p.cast())
    }
    #[inline(always)]
    unsafe fn madd(self, w: *const i16, pair: Self) -> Self {
        _mm256_add_epi32(self, _mm256_madd_epi16(_mm256_loadu_si256(w.cast()), pair))
    }
    #[inline(always)]
    unsafe fn relu_shr(self, k: u32) -> Self {
        let relu = _mm256_max_epi32(self, _mm256_setzero_si256());
        _mm256_srl_epi32(relu, _mm_cvtsi32_si128(k as i32))
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        _mm256_max_epi32(self, other)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut i32) {
        _mm256_storeu_si256(p.cast(), self)
    }
    #[inline(always)]
    unsafe fn store_i16(self, hi: Self, p: *mut i16) {
        // `vpackssdw` interleaves the 128-bit halves of its operands; the
        // permute restores lane order.
        let packed = _mm256_permute4x64_epi64::<0xD8>(_mm256_packs_epi32(self, hi));
        _mm256_storeu_si256(p.cast(), packed)
    }
}

/// The block loop: `NV` vectors of accumulators for `NV·N` consecutive
/// outputs, started from their biases at `b` and swept over their columns of
/// the pair-interleaved pack (`w`, `stride` i16 between input pairs):
/// `b[o] + Σ_k w[k][o][0]·a[2k] + w[k][o][1]·a[2k+1]`.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set; `b` must be readable for
/// `NV·N` i32 and `w + k·stride` for `2·NV·N` i16 for every `k < a.len() / 2`.
#[inline(always)]
unsafe fn madd_block<L: Lanes, const NV: usize>(
    w: *const i16,
    stride: usize,
    b: *const i32,
    a: &[i16],
) -> [L; NV] {
    // SAFETY: exactly the accesses of the contract above, `v < NV`.
    unsafe {
        let mut r: [L; NV] = std::array::from_fn(|v| L::load(b.add(v * L::N)));
        for (k, pair) in a.chunks_exact(2).enumerate() {
            let pair = L::splat((pair[0] as u16 as u32 | (pair[1] as u16 as u32) << 16) as i32);
            for (v, r) in r.iter_mut().enumerate() {
                *r = r.madd(w.add(k * stride + 2 * v * L::N), pair);
            }
        }
        r
    }
}

/// Round-half-away-from-zero of `t`, clamped to ±2¹⁶, without libm
/// (`f32::round` is a call before SSE4.1): `t ± 0.5` is exact in f64 wherever
/// `t` is not already an integer, and the conversion truncates. NaN maps to
/// 0 as `t.round() as i32` does. The clamp lies beyond every `amax <= 32767`,
/// so a row it touches is declined whatever it stores — and it lets the
/// conversion run unchecked, the form LLVM vectorizes.
#[inline(always)]
fn round_clamped(t: f32) -> i32 {
    let t = t as f64;
    let r = t + 0.5f64.copysign(t);
    let r = if r.is_nan() {
        0.0
    } else {
        r.clamp(-65536.0, 65536.0)
    };
    // SAFETY: `r` is not NaN and within ±2¹⁶ by the lines above.
    unsafe { r.to_int_unchecked() }
}

impl QuantizedMlp {
    /// The i32 pass over one row; `None` as soon as an activation exceeds
    /// the bound of the layer about to consume it. Runs at the widest lanes
    /// the CPU has (and `lane_bits` allows).
    pub(crate) fn narrow_row(&self, x: &[f32], s: &mut BatchScratch) -> Option<f32> {
        match self.lane_bits {
            // SAFETY: AVX2 was observed on this CPU in the guard.
            #[cfg(target_arch = "x86_64")]
            256.. if std::is_x86_feature_detected!("avx2") => unsafe { self.narrow_row_avx2(x, s) },
            // SAFETY: SSE2 is part of the x86-64 baseline.
            #[cfg(target_arch = "x86_64")]
            128.. => unsafe { self.narrow_row_in::<__m128i, 4>(x, s) },
            // SAFETY: the array lanes use no target-specific instruction.
            _ => unsafe { self.narrow_row_in::<[i32; 8], 2>(x, s) },
        }
    }

    /// [`QuantizedMlp::narrow_row_in`] compiled for AVX2: the whole row is
    /// inlined here, so no `__m256i` crosses a boundary lacking the feature.
    ///
    /// # Safety
    ///
    /// The caller must have observed AVX2 on the running CPU.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn narrow_row_avx2(&self, x: &[f32], s: &mut BatchScratch) -> Option<f32> {
        // SAFETY: AVX2 is enabled here and present by the caller's contract.
        unsafe { self.narrow_row_in::<__m256i, 2>(x, s) }
    }

    /// The i32 pass over `NV`-vector register blocks of `L`.
    ///
    /// # Safety
    ///
    /// The CPU must support `L`'s instruction set.
    #[inline(always)]
    unsafe fn narrow_row_in<L: Lanes, const NV: usize>(
        &self,
        x: &[f32],
        s: &mut BatchScratch,
    ) -> Option<f32> {
        const { assert!(NV * L::N == BLOCK && NV.is_multiple_of(2)) };
        assert_eq!(x.len(), self.input_dim(), "input dimensionality mismatch");
        let scale = self.scale as f32;
        let first = self.layers.first()?;
        let (mut cur, mut out) = planes(&mut s.a16, self.width);
        cur[first.in_pad() - 1] = 0; // the zero padding of an odd input width
        let mut m = 0;
        for (a, &v) in cur.iter_mut().zip(x) {
            let q = round_clamped(v * scale);
            *a = q as i16;
            m = m.max(q.abs());
        }
        if m > first.amax {
            return None;
        }
        let mut spill = [0i32; BLOCK];
        for (li, layer) in self.layers.iter().enumerate() {
            let (pairs, out_pad) = (layer.in_pad() / 2, layer.b32.len());
            let (w, b, stride) = (layer.w16.as_ptr(), layer.b32.as_ptr(), 2 * out_pad);
            assert!(
                cur.len() >= 2 * pairs
                    && layer.w16.len() == pairs * stride
                    && (out_pad >= BLOCK && out_pad.is_multiple_of(BLOCK) && out.len() >= out_pad)
            );
            let a = &cur[..2 * pairs];
            let Some(next) = self.layers.get(li + 1) else {
                // SAFETY: the caller vouches for the instruction set. One
                // vector reads `b32[..N]` and `w16[k·stride..][..2N]` for
                // `k < pairs`, inside both slices because `N <= BLOCK <=
                // out_pad` by the assert above; `spill` holds `BLOCK` i32.
                unsafe { madd_block::<L, 1>(w, stride, b, a)[0].store(spill.as_mut_ptr()) };
                return Some(self.requant(spill[0] as i64, layer.neg_slope_q) as f32 / scale);
            };
            // The epilogue stays in registers for plain ReLU at a
            // power-of-two scale (`max(0) >> k`); any other slope or scale
            // spills the block to the one scalar `requant`. Padded outputs
            // requantize to exactly 0: the next layer's zero padding.
            // Narrowing can only clip a value above 32767 >= `next.amax`,
            // and that row is declined before the value is read.
            let shift = self.shift.filter(|_| layer.neg_slope_q == 0);
            let mut m = 0i64;
            // SAFETY: the caller vouches for the instruction set. Block `o`
            // (`o + BLOCK <= out_pad`, `NV·N == BLOCK`) reads
            // `b32[o..][..BLOCK]` and `w16[k·stride + 2o..][..2·BLOCK]` for
            // `k < pairs` and writes `out[o..][..BLOCK]`, inside all three
            // slices by the assert above; `spill` holds `BLOCK` i32.
            unsafe {
                let mut vmax = L::splat(0);
                for o in (0..out_pad).step_by(BLOCK) {
                    let mut r = madd_block::<L, NV>(w.add(2 * o), stride, b.add(o), a);
                    if let Some(k) = shift {
                        for r in &mut r {
                            *r = r.relu_shr(k);
                            vmax = vmax.max(*r);
                        }
                        for (v, r) in r.chunks_exact(2).enumerate() {
                            r[0].store_i16(r[1], out.as_mut_ptr().add(o + 2 * v * L::N));
                        }
                    } else {
                        for (v, r) in r.iter().enumerate() {
                            r.store(spill.as_mut_ptr().add(v * L::N));
                        }
                        for (y, &acc) in out[o..o + BLOCK].iter_mut().zip(&spill) {
                            let v = self.requant(acc as i64, layer.neg_slope_q);
                            *y = v as i16;
                            m = m.max(v.saturating_abs());
                        }
                    }
                }
                vmax.store(spill.as_mut_ptr());
                m = spill[..L::N].iter().fold(m, |m, &v| m.max(v as i64));
            }
            if m > next.amax as i64 {
                return None;
            }
            std::mem::swap(&mut cur, &mut out);
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
        let (mut cur, mut out) = planes(&mut s.a64, self.width);
        for (a, &v) in cur.iter_mut().zip(x) {
            *a = ((v * scale).round() as i64).clamp(-bound, bound);
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let bound = self.layers.get(li + 1).map_or(i64::MAX, |l| l.amax64);
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
            std::mem::swap(&mut cur, &mut out);
        }
        cur[0] as f32 / scale
    }

    /// Raw dequantized logit for one (already scaled) row — the one kernel
    /// every quantized entry point goes through.
    pub(crate) fn logit_with(&self, x: &[f32], scratch: &mut BatchScratch) -> f32 {
        let narrow = self.narrow_row(x, scratch);
        narrow.unwrap_or_else(|| self.wide_row(x, scratch))
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
    use crate::activation::Activation;
    use crate::data::Dataset;
    use crate::mlp::{Mlp, MlpConfig, OutputLayer, TrainOpts};
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
    fn every_lane_instance_matches_the_portable_model() {
        // Whole rows — block loop plus epilogue — through each lane instance
        // the host can run, against the portable lanes (same logit or same
        // decline, same stored activations) and the i64 pass, over odd input
        // widths, output widths that fill several blocks and leave a ragged
        // one, every epilogue kind, and a decline at each layer in turn.
        let acts = [
            Activation::ReLU,
            Activation::LeakyReLU(0.1),
            Activation::Linear,
        ];
        let shapes: [&[usize]; 5] = [&[1], &[3, 5], &[11, 128, 16], &[31, 20, 130], &[16, 200]];
        let mut rng = Rng64::new(10);
        let (mut hits, mut declines) = (0, 0);
        for (case, shape) in shapes.iter().enumerate() {
            let cfg = MlpConfig {
                input_dim: shape[0],
                hidden: (shape[1..].iter().enumerate())
                    .map(|(i, &units)| (units, acts[(case + i) % 3]))
                    .collect(),
                output: OutputLayer::Sigmoid,
            };
            let mut mlp = Mlp::new(cfg, case as u64);
            mlp.map_params(|p| if p == 0.0 { 0.3 } else { p * 4.0 });
            for scale in [1024, 1000] {
                let q = QuantizedMlp::quantize(&mlp, scale);
                // `None`: the model as quantized; `Some(l)`: layer `l`
                // accepts only all-zero inputs, so any live row declines
                // there.
                for forced in std::iter::once(None).chain((0..shape.len()).map(Some)) {
                    let mut q = q.clone();
                    if let Some(layer) = forced {
                        q.clamp_narrow_bound(layer, 0);
                    }
                    for _ in 0..40 {
                        let x: Vec<f32> = (0..shape[0]).map(|_| rng.f32() * 3.0 - 1.0).collect();
                        let mut model = BatchScratch::new();
                        q.lane_bits = 0;
                        let want = q.narrow_row(&x, &mut model).map(f32::to_bits);
                        for bits in [128, 256] {
                            let mut scratch = BatchScratch::new();
                            q.lane_bits = bits;
                            let got = q.narrow_row(&x, &mut scratch).map(f32::to_bits);
                            assert_eq!(got, want, "{shape:?} ×{scale} {forced:?} {bits} bits");
                            assert_eq!(scratch.a16, model.a16, "{shape:?} ×{scale} {bits} bits");
                        }
                        match (forced, want) {
                            (Some(layer), Some(_)) => panic!("{shape:?}: no decline at {layer}"),
                            (_, None) => declines += 1,
                            (None, Some(z)) => {
                                assert_eq!(z, q.wide_row(&x, &mut model).to_bits(), "{shape:?}");
                                hits += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            hits > 200 && declines > 200,
            "{hits} hits, {declines} declines"
        );
    }

    #[test]
    fn scratch_capacity_does_not_grow_with_batch_size() {
        let q = trained(5, 11);
        let bytes = |s: &BatchScratch| {
            2 * s.a16.capacity() + 4 * s.scaled.capacity() + 8 * s.a64.capacity()
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

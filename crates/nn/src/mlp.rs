//! Dense multi-layer perceptron with training.
//!
//! The paper's final model (Fig 9f) is an 11-input MLP with two ReLU hidden
//! layers of 128 and 16 neurons and a single sigmoid output — 3472 multiply
//! operations per inference versus LinnOS' 8448. Both architectures are
//! constructed here ([`MlpConfig::heimdall`], [`MlpConfig::linnos`]), and the
//! config space covers the whole hyperparameter study of §3.5 (layer counts,
//! widths, activations, output layers).

use crate::activation::{sigmoid, Activation};
use crate::data::Dataset;
use heimdall_trace::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Per-layer `(weights, biases, in_dim, out_dim, activation, alpha)` view
/// handed to the quantizer.
pub(crate) type LayerParams<'a> = (&'a [f32], &'a [f32], usize, usize, Activation, f32);

/// Output-layer choices explored in Fig 9e.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputLayer {
    /// Single-neuron sigmoid — the paper's choice (§3.5e).
    Sigmoid,
    /// Single-neuron linear output, clamped to `[0,1]` at prediction time.
    Linear,
    /// Two-neuron softmax, as in LinnOS (doubles output-layer compute).
    Softmax2,
}

impl OutputLayer {
    fn units(self) -> usize {
        match self {
            OutputLayer::Sigmoid | OutputLayer::Linear => 1,
            OutputLayer::Softmax2 => 2,
        }
    }

    /// Short display tag.
    pub fn tag(self) -> &'static str {
        match self {
            OutputLayer::Sigmoid => "sigmoid",
            OutputLayer::Linear => "linear",
            OutputLayer::Softmax2 => "softmax",
        }
    }
}

/// Architecture description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature count.
    pub input_dim: usize,
    /// Hidden layers as `(units, activation)`.
    pub hidden: Vec<(usize, Activation)>,
    /// Output layer kind.
    pub output: OutputLayer,
}

impl MlpConfig {
    /// Heimdall's final architecture: `input → 128(ReLU) → 16(ReLU) → 1(σ)`.
    pub fn heimdall(input_dim: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden: vec![(128, Activation::ReLU), (16, Activation::ReLU)],
            output: OutputLayer::Sigmoid,
        }
    }

    /// LinnOS' architecture: `31 → 256(ReLU) → 2(softmax)`.
    pub fn linnos() -> Self {
        MlpConfig {
            input_dim: 31,
            hidden: vec![(256, Activation::ReLU)],
            output: OutputLayer::Softmax2,
        }
    }

    /// Multiply operations per inference (the Fig 16 CPU-cost proxy).
    pub fn multiplications(&self) -> usize {
        let mut mults = 0;
        let mut prev = self.input_dim;
        for &(units, _) in &self.hidden {
            mults += prev * units;
            prev = units;
        }
        mults + prev * self.output.units()
    }

    /// Total trainable parameters (weights + biases + PReLU slopes).
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        let mut prev = self.input_dim;
        for &(units, act) in &self.hidden {
            n += prev * units + units + usize::from(act.is_prelu());
            prev = units;
        }
        n + prev * self.output.units() + self.output.units()
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `[out][in]`.
    w: Vec<f32>,
    b: Vec<f32>,
    act: Activation,
    /// Learned PReLU slope (unused for other activations).
    alpha: f32,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Rng64) -> Self {
        // He-style uniform initialization.
        let bound = (6.0 / in_dim as f64).sqrt() as f32;
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.f32() * 2.0 - 1.0) * bound)
            .collect();
        let alpha = if let Activation::PReLU(a) = act {
            a
        } else {
            0.0
        };
        Layer {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            act,
            alpha,
        }
    }

    /// `z = W·x + b` into `z`, then activation into `a`.
    fn forward(&self, x: &[f32], z: &mut Vec<f32>, a: &mut Vec<f32>) {
        z.clear();
        a.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut sum = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                sum += wi * xi;
            }
            z.push(sum);
            a.push(self.act.apply(sum, self.alpha));
        }
    }
}

/// Unrolled four-accumulator f32 dot product, and the summation order
/// training is specified in: [`Mlp::train`] and [`Mlp::train_reference`]
/// both compute every pre-activation as `b + dot_f32(w_row, x)`, rounding
/// for rounding. Public so downstream distance/scoring kernels (e.g. the
/// KNN batch path in `heimdall-models`) share one dot-product idiom.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

// The three minibatch kernels of `Mlp::train`. Vector lanes carry
// independent scalars and each scalar keeps the operation order of
// `Mlp::train_reference`, so the result is the reference's, bit for bit.
// They are inlined into both instances of `Mlp::step`, so their code is
// that instance's instruction set.

/// Outputs per register block in the forward and fan-out gradient kernels.
const OUT_BLOCK: usize = 8;
/// Inputs per register block in the delta kernel.
const IN_BLOCK: usize = 32;

/// The first `N` elements of `s`, zero-padded when `s` is shorter: a block
/// over a variable-length slice does not vectorize, so a ragged last block
/// computes padding lanes and [`store_block`] drops them.
#[inline(always)]
fn load_block<const N: usize>(s: &[f32]) -> [f32; N] {
    match s.first_chunk::<N>() {
        Some(full) => *full,
        None => {
            let mut padded = [0.0; N];
            padded[..s.len()].copy_from_slice(s);
            padded
        }
    }
}

/// Stores the leading lanes of `block` that fit in `dst`.
#[inline(always)]
fn store_block<const N: usize>(block: [f32; N], dst: &mut [f32]) {
    match dst.first_chunk_mut::<N>() {
        Some(full) => *full = block,
        None => dst.copy_from_slice(&block[..dst.len()]),
    }
}

/// `acc[l] += a[l] * s` on every lane.
#[inline(always)]
fn madd_lanes<const N: usize>(acc: &mut [f32; N], a: &[f32; N], s: f32) {
    for (acc, &a) in acc.iter_mut().zip(a) {
        *acc += a * s;
    }
}

/// Forward kernel: `z[r][o] = b[o] + dot_f32(W[o], x[r])` for every row of
/// `inp`, then `a = act(z)`. Lanes carry eight outputs of one row, each
/// walking the inputs in [`dot_f32`]'s order (four strided partial sums, a
/// tail sum, the same final tree). `wt` is the layer's `[in][out_pad]`
/// transposed plane, refilled here.
#[inline(always)]
fn forward_plane(layer: &Layer, wt: &mut [f32], inp: &[f32], zp: &mut [f32], ap: &mut [f32]) {
    let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
    let out_pad = out_dim.next_multiple_of(OUT_BLOCK);
    for (o, row) in layer.w.chunks_exact(in_dim).enumerate() {
        for (k, &w) in row.iter().enumerate() {
            wt[k * out_pad + o] = w;
        }
    }
    for (x, zrow) in inp.chunks_exact(in_dim).zip(zp.chunks_exact_mut(out_dim)) {
        for o in (0..out_dim).step_by(OUT_BLOCK) {
            let mut wrows = wt.chunks_exact(out_pad).map(|wk| {
                wk[o..]
                    .first_chunk::<OUT_BLOCK>()
                    .expect("wt rows are whole blocks")
            });
            let mut s = [[0.0f32; OUT_BLOCK]; 4];
            let mut t = [0.0f32; OUT_BLOCK];
            let mut x4 = x.chunks_exact(4);
            for xs in &mut x4 {
                for (sj, &xk) in s.iter_mut().zip(xs) {
                    madd_lanes(sj, wrows.next().expect("one wt row per input"), xk);
                }
            }
            for &xk in x4.remainder() {
                madd_lanes(&mut t, wrows.next().expect("one wt row per input"), xk);
            }
            let mut z: [f32; OUT_BLOCK] = load_block(&layer.b[o..]);
            for (l, z) in z.iter_mut().enumerate() {
                *z += ((s[0][l] + s[1][l]) + (s[2][l] + s[3][l])) + t[l];
            }
            store_block(z, &mut zrow[o..]);
        }
    }
    // Naming the variant hoists the `match` inside `apply` out of the loop.
    let plane = ap.iter_mut().zip(&*zp);
    match layer.act {
        Activation::ReLU => plane.for_each(|(a, &z)| *a = Activation::ReLU.apply(z, 0.0)),
        act => plane.for_each(|(a, &z)| *a = act.apply(z, layer.alpha)),
    }
}

/// Delta kernel: `prev[r][k] = (Σ_o cur[r][o] · W[o][k]) · act'(z[r][k])`
/// over the live (non-zero) deltas of each row in output order, the order
/// a per-output `axpy` into a zeroed row gives. Lanes carry 32 inputs,
/// accumulated in registers and stored once.
#[inline(always)]
fn delta_plane(
    layer: &Layer,
    cur: &[f32],
    live: &mut Vec<(usize, f32)>,
    below: &Layer,
    zs: &[f32],
    acts: &[f32],
    prev: &mut [f32],
) {
    let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
    for (drow, prow) in cur.chunks_exact(out_dim).zip(prev.chunks_exact_mut(in_dim)) {
        live.clear();
        live.extend(drow.iter().copied().enumerate().filter(|&(_, d)| d != 0.0));
        for k in (0..in_dim).step_by(IN_BLOCK) {
            let mut acc = [0.0f32; IN_BLOCK];
            for &(o, d) in live.iter() {
                let w = load_block(&layer.w[o * in_dim + k..(o + 1) * in_dim]);
                madd_lanes(&mut acc, &w, d);
            }
            store_block(acc, &mut prow[k..]);
        }
    }
    // As in `forward_plane`; left inside, the `match` in `derivative`
    // becomes a select chain per element and the delta phase takes 1.6x
    // as long.
    let plane = prev.iter_mut().zip(zs).zip(acts);
    match below.act {
        Activation::ReLU => {
            plane.for_each(|((v, &z), &a)| *v *= Activation::ReLU.derivative(z, a, 0.0))
        }
        act => plane.for_each(|((v, &z), &a)| *v *= act.derivative(z, a, below.alpha)),
    }
}

/// Weight-gradient kernel: `gw[o][k] = Σ_r d[r][o] · x[r][k]` over the
/// rows in order, a zero delta contributing nothing (so a non-finite
/// activation cannot reach a gradient through a dead unit). Accumulates
/// along whichever of (in, out) is wider: a fan-in layer runs one
/// contiguous `axpy` per live output; a fan-out layer puts eight outputs on
/// the lanes, keeps four inputs' sums in registers across the batch, stores
/// them lane-contiguous into the layer's transposed plane `gt` (free
/// between one batch's forward and the next) and transposes that into `gw`
/// once. Expects `gw` zeroed.
#[inline(always)]
fn gradient_plane(layer: &Layer, dp: &[f32], inp: &[f32], gt: &mut [f32], gw: &mut [f32]) {
    let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
    let rows = || dp.chunks_exact(out_dim).zip(inp.chunks_exact(in_dim));
    if out_dim <= in_dim {
        for (drow, xrow) in rows() {
            for (&d, grow) in drow.iter().zip(gw.chunks_exact_mut(in_dim)) {
                if d != 0.0 {
                    grow.iter_mut().zip(xrow).for_each(|(g, &x)| *g += d * x);
                }
            }
        }
        return;
    }
    let out_pad = out_dim.next_multiple_of(OUT_BLOCK);
    for o in (0..out_dim).step_by(OUT_BLOCK) {
        for k in (0..in_dim).step_by(4) {
            let mut acc = [[0.0f32; OUT_BLOCK]; 4];
            for (drow, xrow) in rows() {
                let d: [f32; OUT_BLOCK] = load_block(&drow[o..]);
                let x: [f32; 4] = std::array::from_fn(|j| xrow.get(k + j).copied().unwrap_or(0.0));
                for (aj, &xk) in acc.iter_mut().zip(&x) {
                    for (a, &dl) in aj.iter_mut().zip(&d) {
                        *a += if dl != 0.0 { dl * xk } else { 0.0 };
                    }
                }
            }
            for (trow, a) in gt[k * out_pad..].chunks_exact_mut(out_pad).zip(acc) {
                store_block(a, &mut trow[o..]);
            }
        }
    }
    for (o, grow) in gw.chunks_exact_mut(in_dim).enumerate() {
        for (k, g) in grow.iter_mut().enumerate() {
            *g = gt[k * out_pad + o];
        }
    }
}

/// Magnitude below which a trained *parameter* (weight, bias, PReLU slope)
/// is stored as `+0.0`: 2⁻⁶³, the square root of `f32::MIN_POSITIVE`.
///
/// A weight whose data gradient is identically zero (into or out of a dead
/// ReLU unit, or on a constant-zero input column) is shrunk by L2 through
/// Adam on every step, never reaches zero, and parks where `l2 · w`
/// underflows; from then on every product, `g * g` and moment decay that
/// touches it is a subnormal operation, which x86 serves from microcode at
/// ~150 cycles each. Below 2⁻⁶³ even the square of the value is subnormal.
/// Exact zero is a fixed point: its gradient is exactly zero, so its
/// moments stay zero too. The ×1024 quantizer resolves 2⁻¹¹, 52 binades
/// above this, and for inputs in `[0, 1]` any pre-activation sum above 2⁻³⁸
/// absorbs such a term, so the deployed `QuantizedMlp` does not change.
const PARAM_FLUSH: f32 = 1.0 / (1u64 << 63) as f32;

/// Magnitude below which an optimizer *moment* is stored as `0.0`: only
/// once it is itself subnormal. Lower than [`PARAM_FLUSH`] on purpose:
/// Adam's second moment enters the step as `√v̂ + 1e-8`, so values down to
/// ~1e-31 still move it, and flushing them at 2⁻⁶³ changes trained models.
const MOMENT_FLUSH: f32 = f32::MIN_POSITIVE;

/// `x`, or `+0.0` when `|x| < min` — how [`Mlp::apply_update`] stores
/// every value, with [`PARAM_FLUSH`] or [`MOMENT_FLUSH`].
#[inline]
fn flush(x: f32, min: f32) -> f32 {
    if x.abs() < min {
        0.0
    } else {
        x
    }
}

/// Optimizer choices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimizer {
    /// Plain SGD with momentum.
    Sgd {
        /// Momentum coefficient (0 disables).
        momentum: f32,
    },
    /// Adam with the standard betas.
    Adam,
}

/// Training options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainOpts {
    /// Passes over the data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub l2: f32,
    /// Loss weight multiplier for positive (slow) rows — the §3.6 biased
    /// training experiment. `1.0` disables weighting.
    pub pos_weight: f32,
    /// Optimizer.
    pub optimizer: Optimizer,
    /// Shuffle seed (data order).
    pub seed: u64,
}

impl Default for TrainOpts {
    fn default() -> Self {
        TrainOpts {
            epochs: 6,
            batch_size: 64,
            lr: 5e-3,
            l2: 1e-5,
            pos_weight: 1.0,
            optimizer: Optimizer::Adam,
            seed: 0,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean loss per epoch.
    pub epoch_loss: Vec<f64>,
}

/// Per-layer optimizer state (momentum / Adam moments) shared by the
/// batched and reference training paths so both apply bit-identical
/// updates given identical gradients.
struct OptState {
    mw: Vec<Vec<f32>>,
    mb: Vec<Vec<f32>>,
    vw: Vec<Vec<f32>>,
    vb: Vec<Vec<f32>>,
    t: u64,
}

impl OptState {
    fn new(layers: &[Layer]) -> OptState {
        let zw: Vec<Vec<f32>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let zb: Vec<Vec<f32>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        OptState {
            mw: zw.clone(),
            mb: zb.clone(),
            vw: zw,
            vb: zb,
            t: 0,
        }
    }
}

/// Minibatch training scratch: row-major `B × width` planes for the
/// gathered inputs, pre-activations, activations and deltas, the batch's
/// gradients, the run's optimizer state and the epoch's running loss,
/// allocated once per training run and reused by every batch (no
/// per-sample allocation) — the training-side counterpart of
/// `batch::BatchScratch`.
struct TrainScratch {
    /// Per-layer weight and bias gradients and PReLU slope gradient.
    gw: Vec<Vec<f32>>,
    gb: Vec<Vec<f32>>,
    galpha: Vec<f32>,
    opt: OptState,
    loss: f64,
    /// Gathered input rows, `B × input_dim`.
    xb: Vec<f32>,
    /// Per-layer pre-activations, each `B × out_dim`.
    zs: Vec<Vec<f32>>,
    /// Per-layer activations, each `B × out_dim`.
    acts: Vec<Vec<f32>>,
    /// Per-layer `dL/dz`, each `B × out_dim`.
    deltas: Vec<Vec<f32>>,
    /// Per-sample loss weights (pos-weighting).
    weights: Vec<f32>,
    /// Per-layer transposed plane `[in][out_pad]`, `out_pad` a multiple of
    /// [`OUT_BLOCK`]: the weights while [`forward_plane`] runs, a fan-out
    /// layer's weight gradient while [`gradient_plane`] runs. Padding lanes
    /// only ever hold zeros.
    wt: Vec<Vec<f32>>,
    /// One row's live `(output, delta)` pairs in [`delta_plane`].
    live: Vec<(usize, f32)>,
}

impl TrainScratch {
    fn new(layers: &[Layer], batch: usize) -> TrainScratch {
        let plane = |l: &Layer| vec![0.0f32; batch * l.out_dim];
        TrainScratch {
            gw: layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            gb: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            galpha: vec![0.0; layers.len()],
            opt: OptState::new(layers),
            loss: 0.0,
            xb: vec![0.0; batch * layers[0].in_dim],
            zs: layers.iter().map(plane).collect(),
            acts: layers.iter().map(plane).collect(),
            deltas: layers.iter().map(plane).collect(),
            weights: vec![1.0; batch],
            wt: layers
                .iter()
                .map(|l| vec![0.0; l.in_dim * l.out_dim.next_multiple_of(OUT_BLOCK)])
                .collect(),
            live: Vec::with_capacity(layers.iter().map(|l| l.out_dim).max().unwrap_or(0)),
        }
    }
}

/// A trained (or trainable) dense network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    cfg: MlpConfig,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds a randomly-initialized network.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` is zero or any hidden layer has zero units.
    pub fn new(cfg: MlpConfig, seed: u64) -> Self {
        assert!(cfg.input_dim > 0, "input_dim must be positive");
        assert!(
            cfg.hidden.iter().all(|&(u, _)| u > 0),
            "hidden units must be positive"
        );
        let mut rng = Rng64::new(seed ^ 0x6d6c_705f_696e_6974);
        let mut layers = Vec::new();
        let mut prev = cfg.input_dim;
        for &(units, act) in &cfg.hidden {
            layers.push(Layer::new(prev, units, act, &mut rng));
            prev = units;
        }
        // The output layer computes raw logits; the squashing lives in
        // `predict` / the loss gradient.
        layers.push(Layer::new(
            prev,
            cfg.output.units(),
            Activation::Linear,
            &mut rng,
        ));
        Mlp { cfg, layers }
    }

    /// The architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// Multiply operations per inference.
    pub fn multiplications(&self) -> usize {
        self.cfg.multiplications()
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.cfg.param_count()
    }

    /// Approximate deployed memory footprint in bytes (f32 weights+biases).
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.w.len() + l.b.len()) * 4)
            .sum()
    }

    /// Raw output logits for one input row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cfg.input_dim, "input dimensionality mismatch");
        let mut a = x.to_vec();
        let mut z = Vec::new();
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward(&a, &mut z, &mut next);
            std::mem::swap(&mut a, &mut next);
        }
        a
    }

    /// Probability that the I/O is *slow* (positive class).
    pub fn predict(&self, x: &[f32]) -> f32 {
        let out = self.logits(x);
        match self.cfg.output {
            OutputLayer::Sigmoid => sigmoid(out[0]),
            OutputLayer::Linear => out[0].clamp(0.0, 1.0),
            OutputLayer::Softmax2 => {
                let m = out[0].max(out[1]);
                let e0 = (out[0] - m).exp();
                let e1 = (out[1] - m).exp();
                e1 / (e0 + e1)
            }
        }
    }

    /// Predictions for every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f32> {
        (0..data.rows())
            .map(|i| self.predict(data.row(i)))
            .collect()
    }

    /// Flattened parameter vector (weights then biases per layer), used for
    /// the model-similarity analysis (Fig 18c).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            v.extend(l.w.iter().map(|&w| w as f64));
            v.extend(l.b.iter().map(|&b| b as f64));
        }
        v
    }

    /// Applies `f` to every weight and bias in place. A test hook: the
    /// property suites use it to push seeded models into adversarial
    /// regimes (amplified magnitudes, sign flips, exact zeros) that random
    /// initialization never reaches.
    pub fn map_params(&mut self, mut f: impl FnMut(f32) -> f32) {
        for l in &mut self.layers {
            for w in &mut l.w {
                *w = f(*w);
            }
            for b in &mut l.b {
                *b = f(*b);
            }
        }
    }

    /// Internal: per-layer `(weights, biases)` views for quantization.
    pub(crate) fn layer_params(&self) -> Vec<LayerParams<'_>> {
        self.layers
            .iter()
            .map(|l| {
                (
                    l.w.as_slice(),
                    l.b.as_slice(),
                    l.in_dim,
                    l.out_dim,
                    l.act,
                    l.alpha,
                )
            })
            .collect()
    }

    /// Trains with minibatch gradient descent; returns per-epoch losses.
    ///
    /// Each batch runs one forward, one delta and one gradient kernel per
    /// layer over planes preallocated once per run, at AVX2 width where the
    /// CPU has it. Vector lanes carry
    /// independent scalars and every scalar keeps the operation order
    /// [`Mlp::train_reference`] spells out, so the two trainers produce
    /// bit-identical parameters, PReLU slopes and losses, and training is
    /// fully deterministic for a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its dimensionality mismatches.
    pub fn train(&mut self, data: &Dataset, opts: &TrainOpts) -> TrainStats {
        self.train_with(data, opts, |_| {})
    }

    /// [`Mlp::train`], calling `lap` with the phase's name as each phase
    /// of a batch ends ("forward", "delta", "gradient", "update"). The
    /// `training` bench compiles this file into itself to reach this and
    /// times the phases from there; the library passes a no-op.
    pub(crate) fn train_with(
        &mut self,
        data: &Dataset,
        opts: &TrainOpts,
        lap: impl FnMut(&'static str),
    ) -> TrainStats {
        self.train_in(data, opts, true, lap)
    }

    /// [`Mlp::train_with`], running each batch through [`Mlp::step_avx2`]
    /// when `wide` holds and the CPU has AVX2, else [`Mlp::step_portable`].
    fn train_in(
        &mut self,
        data: &Dataset,
        opts: &TrainOpts,
        wide: bool,
        mut lap: impl FnMut(&'static str),
    ) -> TrainStats {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert_eq!(
            data.dim, self.cfg.input_dim,
            "dataset dimensionality mismatch"
        );
        assert!(opts.batch_size > 0, "batch size must be positive");

        let cap = opts.batch_size.min(data.rows());
        let mut scratch = TrainScratch::new(&self.layers, cap);
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(opts.seed ^ 0x7472_6169_6e00_0000);
        let mut stats = TrainStats::default();

        for _epoch in 0..opts.epochs {
            rng.shuffle(&mut order);
            scratch.loss = 0.0;
            for batch in order.chunks(opts.batch_size) {
                match wide {
                    // SAFETY: AVX2 was observed on this CPU in the guard.
                    #[cfg(target_arch = "x86_64")]
                    true if std::is_x86_feature_detected!("avx2") => unsafe {
                        self.step_avx2(data, opts, batch, &mut scratch, &mut lap)
                    },
                    _ => self.step_portable(data, opts, batch, &mut scratch, &mut lap),
                }
            }
            stats.epoch_loss.push(scratch.loss / data.rows() as f64);
        }
        stats
    }

    /// [`Mlp::step`] at the crate's baseline instruction set.
    #[inline(never)]
    fn step_portable(
        &mut self,
        data: &Dataset,
        opts: &TrainOpts,
        batch: &[usize],
        s: &mut TrainScratch,
        lap: &mut impl FnMut(&'static str),
    ) {
        self.step(data, opts, batch, s, lap)
    }

    /// [`Mlp::step`] compiled for AVX2: the kernels and the optimizer step
    /// are inlined here, so their lanes run 256 bits wide. Not `fma`: a
    /// fused `a * b + c` rounds once where the portable step rounds twice.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    fn step_avx2(
        &mut self,
        data: &Dataset,
        opts: &TrainOpts,
        batch: &[usize],
        s: &mut TrainScratch,
        lap: &mut impl FnMut(&'static str),
    ) {
        self.step(data, opts, batch, s, lap)
    }

    /// One minibatch: gather the rows, run one forward, one delta and one
    /// gradient kernel per layer, add each row's weighted loss to
    /// `s.loss` in batch order, and take the optimizer step.
    #[inline(always)]
    fn step(
        &mut self,
        data: &Dataset,
        opts: &TrainOpts,
        batch: &[usize],
        s: &mut TrainScratch,
        lap: &mut impl FnMut(&'static str),
    ) {
        let n_layers = self.layers.len();
        let dim = self.cfg.input_dim;
        let out_units = self.layers[n_layers - 1].out_dim;
        let bsz = batch.len();
        for g in s.gw.iter_mut().chain(s.gb.iter_mut()) {
            g.iter_mut().for_each(|v| *v = 0.0);
        }
        s.galpha.iter_mut().for_each(|v| *v = 0.0);

        // Gather the batch rows and their loss weights.
        for (r, &i) in batch.iter().enumerate() {
            s.xb[r * dim..(r + 1) * dim].copy_from_slice(data.row(i));
            s.weights[r] = if data.y[i] >= 0.5 {
                opts.pos_weight
            } else {
                1.0
            };
        }

        for (li, layer) in self.layers.iter().enumerate() {
            let (before, after) = s.acts.split_at_mut(li);
            let inp = if li == 0 { &s.xb } else { &before[li - 1] };
            forward_plane(
                layer,
                &mut s.wt[li],
                &inp[..bsz * layer.in_dim],
                &mut s.zs[li][..bsz * layer.out_dim],
                &mut after[0][..bsz * layer.out_dim],
            );
            lap("forward");
        }

        // Loss + output delta per sample (batch order, as in the
        // reference path).
        for (r, &i) in batch.iter().enumerate() {
            let y = data.y[i];
            let w = s.weights[r];
            let zrow = &s.zs[n_layers - 1][r * out_units..(r + 1) * out_units];
            s.loss += w as f64 * self.output_loss(zrow, y) as f64;
            let drow = &mut s.deltas[n_layers - 1][r * out_units..(r + 1) * out_units];
            self.output_delta(zrow, y, w, drow);
        }
        lap("delta");

        for li in (0..n_layers).rev() {
            let layer = &self.layers[li];
            let inp = if li == 0 { &s.xb } else { &s.acts[li - 1] };
            let (below, cur) = s.deltas.split_at_mut(li);
            let dp = &cur[0][..bsz * layer.out_dim];
            for drow in dp.chunks_exact(layer.out_dim) {
                for (g, &d) in s.gb[li].iter_mut().zip(drow) {
                    *g += d;
                }
            }
            gradient_plane(
                layer,
                dp,
                &inp[..bsz * layer.in_dim],
                &mut s.wt[li],
                &mut s.gw[li],
            );
            if layer.act.is_prelu() {
                for (&d, &z) in dp.iter().zip(&s.zs[li]) {
                    if z <= 0.0 {
                        s.galpha[li] += d * z;
                    }
                }
            }
            lap("gradient");
            if li > 0 {
                let n = bsz * layer.in_dim;
                delta_plane(
                    layer,
                    dp,
                    &mut s.live,
                    &self.layers[li - 1],
                    &s.zs[li - 1][..n],
                    &s.acts[li - 1][..n],
                    &mut below[li - 1][..n],
                );
                lap("delta");
            }
        }

        let scale = 1.0 / bsz as f32;
        self.apply_update(opts, scale, &s.gw, &s.gb, &s.galpha, &mut s.opt);
        lap("update");
    }

    /// Sample-at-a-time reference trainer: one row, one output, one scalar
    /// loop at a time — the executable specification of the arithmetic
    /// [`Mlp::train`] performs, and the baseline of the bench lane. Same
    /// shuffle order, loss, pos-weighting, per-scalar operation order and
    /// optimizer updates; the two trainers agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its dimensionality mismatches.
    pub fn train_reference(&mut self, data: &Dataset, opts: &TrainOpts) -> TrainStats {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert_eq!(
            data.dim, self.cfg.input_dim,
            "dataset dimensionality mismatch"
        );
        assert!(opts.batch_size > 0, "batch size must be positive");

        let n_layers = self.layers.len();
        // Per-layer gradient accumulators and optimizer state.
        let mut gw: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut galpha = vec![0.0f32; n_layers];
        let mut opt = OptState::new(&self.layers);

        // Forward caches per sample.
        let mut zs: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
        let mut acts: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
        let mut deltas: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.out_dim]).collect();

        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(opts.seed ^ 0x7472_6169_6e00_0000);
        let mut stats = TrainStats::default();

        for _epoch in 0..opts.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(opts.batch_size) {
                for g in gw.iter_mut().chain(gb.iter_mut()) {
                    g.iter_mut().for_each(|v| *v = 0.0);
                }
                galpha.iter_mut().for_each(|v| *v = 0.0);

                for &i in batch {
                    let x = data.row(i);
                    let y = data.y[i];
                    // Forward, caching every layer; `b + dot_f32` is the
                    // summation order training is specified in.
                    for (li, layer) in self.layers.iter().enumerate() {
                        let (before, after) = acts.split_at_mut(li);
                        let input: &[f32] = if li == 0 { x } else { &before[li - 1] };
                        let (z, a) = (&mut zs[li], &mut after[0]);
                        z.clear();
                        a.clear();
                        for (row, &b) in layer.w.chunks_exact(layer.in_dim).zip(&layer.b) {
                            let sum = b + dot_f32(row, input);
                            z.push(sum);
                            a.push(layer.act.apply(sum, layer.alpha));
                        }
                    }
                    let weight = if y >= 0.5 { opts.pos_weight } else { 1.0 };
                    epoch_loss += weight as f64 * self.output_loss(&zs[n_layers - 1], y) as f64;
                    // Output delta = dL/dz for the output layer.
                    self.output_delta(&zs[n_layers - 1], y, weight, &mut deltas[n_layers - 1]);

                    // Backpropagate.
                    for li in (0..n_layers).rev() {
                        let prev_act: &[f32] = if li == 0 { x } else { &acts[li - 1] };
                        let layer = &self.layers[li];
                        // Accumulate gradients for this layer.
                        for o in 0..layer.out_dim {
                            let d = deltas[li][o];
                            gb[li][o] += d;
                            let row = &mut gw[li][o * layer.in_dim..(o + 1) * layer.in_dim];
                            for (g, &p) in row.iter_mut().zip(prev_act) {
                                *g += d * p;
                            }
                        }
                        if layer.act.is_prelu() {
                            for o in 0..layer.out_dim {
                                let z = zs[li][o];
                                if z <= 0.0 {
                                    galpha[li] += deltas[li][o] * z;
                                }
                            }
                        }
                        // Delta for the previous layer.
                        if li > 0 {
                            let below = &self.layers[li - 1];
                            let (head, tail) = deltas.split_at_mut(li);
                            let cur = &tail[0];
                            let prev_delta = &mut head[li - 1];
                            for o2 in 0..below.out_dim {
                                let mut sum = 0.0;
                                for (o, &c) in cur.iter().enumerate() {
                                    sum += layer.w[o * layer.in_dim + o2] * c;
                                }
                                let dz = below.act.derivative(
                                    zs[li - 1][o2],
                                    acts[li - 1][o2],
                                    below.alpha,
                                );
                                prev_delta[o2] = sum * dz;
                            }
                        }
                    }
                }

                let scale = 1.0 / batch.len() as f32;
                self.apply_update(opts, scale, &gw, &gb, &galpha, &mut opt);
            }
            stats.epoch_loss.push(epoch_loss / data.rows() as f64);
        }
        stats
    }

    /// Applies one batch-mean optimizer step from accumulated gradients —
    /// the single update routine behind both training paths. Every value it
    /// stores goes through [`flush`], so training state never holds a
    /// subnormal.
    #[inline(always)]
    fn apply_update(
        &mut self,
        opts: &TrainOpts,
        scale: f32,
        gw: &[Vec<f32>],
        gb: &[Vec<f32>],
        galpha: &[f32],
        st: &mut OptState,
    ) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        st.t += 1;
        // Past i32::MAX steps both corrections are 1 to the last bit; a
        // wrapping cast would make the exponent negative and `bc` -inf.
        let t = i32::try_from(st.t).unwrap_or(i32::MAX);
        let (bc1, bc2) = (1.0 - B1.powi(t), 1.0 - B2.powi(t));
        let (lr, l2) = (opts.lr, opts.l2);
        let adam = |p: &mut f32, m: &mut f32, v: &mut f32, g: f32| {
            let m1 = B1 * *m + (1.0 - B1) * g;
            let v1 = B2 * *v + (1.0 - B2) * g * g;
            let step = lr * (m1 / bc1) / ((v1 / bc2).sqrt() + EPS);
            *p = flush(*p - step, PARAM_FLUSH);
            *m = flush(m1, MOMENT_FLUSH);
            *v = flush(v1, MOMENT_FLUSH);
        };
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let (gw, gb) = (&gw[li][..], &gb[li][..]);
            let (mw, mb) = (&mut st.mw[li][..], &mut st.mb[li][..]);
            match opts.optimizer {
                Optimizer::Sgd { momentum } => {
                    let sgd = |p: &mut f32, m: &mut f32, g: f32| {
                        let m1 = momentum * *m + g;
                        *p = flush(*p - lr * m1, PARAM_FLUSH);
                        *m = flush(m1, MOMENT_FLUSH);
                    };
                    for ((w, m), &g) in layer.w.iter_mut().zip(mw).zip(gw) {
                        sgd(w, m, g * scale + l2 * *w);
                    }
                    for ((b, m), &g) in layer.b.iter_mut().zip(mb).zip(gb) {
                        sgd(b, m, g * scale);
                    }
                }
                Optimizer::Adam => {
                    let (vw, vb) = (&mut st.vw[li][..], &mut st.vb[li][..]);
                    for (((w, m), v), &g) in layer.w.iter_mut().zip(mw).zip(vw).zip(gw) {
                        adam(w, m, v, g * scale + l2 * *w);
                    }
                    for (((b, m), v), &g) in layer.b.iter_mut().zip(mb).zip(vb).zip(gb) {
                        adam(b, m, v, g * scale);
                    }
                }
            }
            if layer.act.is_prelu() {
                layer.alpha = flush(layer.alpha - lr * galpha[li] * scale, PARAM_FLUSH);
            }
        }
        #[cfg(test)]
        assert_flushed(&self.layers, st);
    }

    fn output_loss(&self, logits: &[f32], y: f32) -> f32 {
        match self.cfg.output {
            OutputLayer::Sigmoid => {
                let p = sigmoid(logits[0]).clamp(1e-7, 1.0 - 1e-7);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            }
            OutputLayer::Linear => {
                let d = logits[0] - y;
                d * d
            }
            OutputLayer::Softmax2 => {
                let m = logits[0].max(logits[1]);
                let e0 = (logits[0] - m).exp();
                let e1 = (logits[1] - m).exp();
                let p1 = (e1 / (e0 + e1)).clamp(1e-7, 1.0 - 1e-7);
                -(y * p1.ln() + (1.0 - y) * (1.0 - p1).ln())
            }
        }
    }

    fn output_delta(&self, logits: &[f32], y: f32, weight: f32, out: &mut [f32]) {
        match self.cfg.output {
            OutputLayer::Sigmoid => {
                out[0] = weight * (sigmoid(logits[0]) - y);
            }
            OutputLayer::Linear => {
                out[0] = weight * 2.0 * (logits[0] - y);
            }
            OutputLayer::Softmax2 => {
                let m = logits[0].max(logits[1]);
                let e0 = (logits[0] - m).exp();
                let e1 = (logits[1] - m).exp();
                let s = e0 + e1;
                out[0] = weight * (e0 / s - (1.0 - y));
                out[1] = weight * (e1 / s - y);
            }
        }
    }
}

/// Unit-test builds check after every optimizer step that training state
/// holds no parameter in `(0, 2⁻⁶³)` and no subnormal moment.
#[cfg(test)]
fn assert_flushed(layers: &[Layer], st: &OptState) {
    for l in layers {
        for &p in l.w.iter().chain(&l.b).chain([&l.alpha]) {
            assert!(
                p == 0.0 || p.abs() >= PARAM_FLUSH,
                "step {}: parameter {p:e} below 2^-63",
                st.t
            );
        }
    }
    let moments = [&st.mw, &st.mb, &st.vw, &st.vb];
    for &m in moments.into_iter().flatten().flatten() {
        assert!(!m.is_subnormal(), "step {}: subnormal moment {m:e}", st.t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heimdall_metrics::roc_auc;

    /// Linearly-separable toy data: slow iff x0 + x1 > 1.
    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            d.push(&[a, b], if a + b > 1.0 { 1.0 } else { 0.0 });
        }
        d
    }

    /// XOR-ish data that needs a hidden layer.
    fn xor(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            let label = ((a > 0.5) ^ (b > 0.5)) as u8 as f32;
            d.push(&[a, b], label);
        }
        d
    }

    fn auc(model: &Mlp, data: &Dataset) -> f64 {
        roc_auc(&model.predict_all(data), &data.labels_bool())
    }

    #[test]
    fn heimdall_arch_multiplication_count_matches_paper() {
        // 11 -> 128 -> 16 -> 1 == 3472 multiplications (§6.6).
        assert_eq!(MlpConfig::heimdall(11).multiplications(), 3472);
    }

    #[test]
    fn linnos_arch_counts_match_paper() {
        let cfg = MlpConfig::linnos();
        assert_eq!(cfg.multiplications(), 8448);
        assert_eq!(cfg.param_count(), 8706);
    }

    #[test]
    fn learns_linear_separation() {
        let data = toy(2000, 1);
        let test = toy(500, 2);
        let mut m = Mlp::new(MlpConfig::heimdall(2), 3);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                ..Default::default()
            },
        );
        assert!(auc(&m, &test) > 0.97, "auc {}", auc(&m, &test));
    }

    #[test]
    fn learns_xor_with_hidden_layers() {
        let data = xor(4000, 4);
        let test = xor(1000, 5);
        let mut m = Mlp::new(MlpConfig::heimdall(2), 6);
        m.train(
            &data,
            &TrainOpts {
                epochs: 20,
                lr: 1e-2,
                ..Default::default()
            },
        );
        assert!(auc(&m, &test) > 0.9, "auc {}", auc(&m, &test));
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = toy(1000, 7);
        let mut m = Mlp::new(MlpConfig::heimdall(2), 8);
        let stats = m.train(
            &data,
            &TrainOpts {
                epochs: 10,
                ..Default::default()
            },
        );
        assert!(stats.epoch_loss.last().unwrap() < stats.epoch_loss.first().unwrap());
    }

    #[test]
    fn softmax_output_learns_too() {
        let data = toy(2000, 9);
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![(32, Activation::ReLU)],
            output: OutputLayer::Softmax2,
        };
        let mut m = Mlp::new(cfg, 10);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                ..Default::default()
            },
        );
        assert!(auc(&m, &data) > 0.95);
    }

    #[test]
    fn linear_output_learns() {
        let data = toy(2000, 11);
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![(32, Activation::ReLU)],
            output: OutputLayer::Linear,
        };
        let mut m = Mlp::new(cfg, 12);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                lr: 1e-2,
                ..Default::default()
            },
        );
        assert!(auc(&m, &data) > 0.9);
    }

    #[test]
    fn prelu_alpha_is_updated() {
        let data = xor(1000, 13);
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![(16, Activation::PReLU(0.25))],
            output: OutputLayer::Sigmoid,
        };
        let mut m = Mlp::new(cfg, 14);
        let before = m.layers[0].alpha;
        m.train(
            &data,
            &TrainOpts {
                epochs: 5,
                ..Default::default()
            },
        );
        assert_ne!(before, m.layers[0].alpha);
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy(500, 15);
        let mut a = Mlp::new(MlpConfig::heimdall(2), 16);
        let mut b = Mlp::new(MlpConfig::heimdall(2), 16);
        a.train(&data, &TrainOpts::default());
        b.train(&data, &TrainOpts::default());
        assert_eq!(a.flat_params(), b.flat_params());
    }

    /// `rows` rows of `dim` features in `[0, 1)`, a fifth of them exact
    /// zeros; slow iff the first and last feature sum above 0.8.
    fn sparse(dim: usize, rows: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut data = Dataset::new(dim);
        for _ in 0..rows {
            let x: Vec<f32> = (0..dim)
                .map(|_| if rng.f32() < 0.2 { 0.0 } else { rng.f32() })
                .collect();
            data.push(&x, f32::from(x[0] + x[dim - 1] > 0.8));
        }
        data
    }

    /// Every weight, bias and PReLU slope of `m`, as bits.
    fn param_bits(m: &Mlp) -> Vec<u32> {
        let params = (m.layers.iter()).flat_map(|l| l.w.iter().chain(&l.b).chain([&l.alpha]));
        params.map(|p| p.to_bits()).collect()
    }

    fn loss_bits(losses: &[f64]) -> Vec<u64> {
        losses.iter().map(|x| x.to_bits()).collect()
    }

    /// The lane-parallel kernels against the scalar reference, bit for bit:
    /// fan-out and fan-in layers, widths on and off the 8-output / 32-input
    /// / 4-input block sizes (1, 2, 3, 5, 7, 13, 31, 40, 130), every
    /// activation, every output layer, both optimizers, batches of one, a
    /// ragged seven and the default 64, on data where a fifth of the
    /// features are exact zeros (signed-zero products) and positives weigh
    /// double.
    #[test]
    fn train_matches_reference_bit_for_bit() {
        use Activation::*;
        let arch = |input_dim, hidden: &[(usize, Activation)], output| MlpConfig {
            input_dim,
            hidden: hidden.to_vec(),
            output,
        };
        let archs = [
            arch(11, &[(128, ReLU), (16, ReLU)], OutputLayer::Sigmoid),
            arch(
                5,
                &[(24, LeakyReLU(0.01)), (8, PReLU(0.25))],
                OutputLayer::Sigmoid,
            ),
            arch(7, &[(13, ReLU), (40, Tanh)], OutputLayer::Softmax2),
            arch(3, &[(64, PReLU(0.25))], OutputLayer::Linear),
            arch(31, &[(256, ReLU)], OutputLayer::Softmax2),
            arch(130, &[(16, Sigmoid), (8, ReLU)], OutputLayer::Sigmoid),
        ];
        for cfg in archs {
            let data = sparse(cfg.input_dim, 333, 31 + cfg.input_dim as u64);
            for optimizer in [Optimizer::Adam, Optimizer::Sgd { momentum: 0.9 }] {
                for batch_size in [1, 7, 64] {
                    let opts = TrainOpts {
                        epochs: 3,
                        batch_size,
                        pos_weight: 2.0,
                        optimizer,
                        seed: 5,
                        ..TrainOpts::default()
                    };
                    let what = format!("{cfg:?} {optimizer:?} batch {batch_size}");
                    let mut fast = Mlp::new(cfg.clone(), 9);
                    let mut slow = fast.clone();
                    let loss_fast = fast.train(&data, &opts).epoch_loss;
                    let loss_slow = slow.train_reference(&data, &opts).epoch_loss;
                    assert_eq!(param_bits(&fast), param_bits(&slow), "{what}: parameters");
                    assert_eq!(
                        loss_bits(&loss_fast),
                        loss_bits(&loss_slow),
                        "{what}: losses"
                    );
                    assert!(
                        loss_fast.iter().all(|l| l.is_finite()),
                        "{what}: {loss_fast:?}"
                    );
                }
            }
        }
    }

    /// The AVX2 instance of the minibatch step trains the portable
    /// instance's model, bit for bit, from one initialisation: input widths
    /// 1-40 and hidden widths 1-70 (ragged 8-output and 32-input blocks,
    /// fan-out and fan-in layers), one to three hidden layers of ReLU,
    /// LeakyReLU, PReLU or Linear, every output layer, Adam and
    /// momentum-SGD with L2 and `pos_weight`, batches of 1, 3, 64, 100 and
    /// more than the rows. On a CPU without AVX2 both runs take the
    /// portable instance, and the test says so on stderr.
    #[test]
    fn prop_avx2_step_trains_the_portable_steps_model() {
        use heimdall_integration::prop::{check, tuple2, tuple3, u64_in, usize_in, vec_of, Config};
        use std::io::Write;
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            // Straight to the handle: the harness captures `eprintln!`.
            let _ = writeln!(
                std::io::stderr(),
                "prop_avx2_step_trains_the_portable_steps_model: no AVX2 on this CPU, \
                 the portable step is compared with itself"
            );
        }
        let acts = [
            Activation::ReLU,
            Activation::LeakyReLU(0.1),
            Activation::PReLU(0.25),
            Activation::Linear,
        ];
        let outputs = [
            OutputLayer::Sigmoid,
            OutputLayer::Linear,
            OutputLayer::Softmax2,
        ];
        let batches = [1, 3, 64, 100, 1000];
        let layer = tuple2(usize_in(1..=70), usize_in(0..=3));
        let strategy = tuple3(
            tuple2(usize_in(1..=40), vec_of(layer, 1..=3)),
            tuple3(usize_in(0..=2), usize_in(0..=1), usize_in(0..=4)),
            u64_in(0..=u64::MAX),
        );
        check(
            "prop_avx2_step_trains_the_portable_steps_model",
            &Config::seeded(0x7a1d_57e9),
            &strategy,
            |((input_dim, hidden), (output, optimizer, batch), seed)| {
                let cfg = MlpConfig {
                    input_dim: *input_dim,
                    hidden: hidden.iter().map(|&(units, a)| (units, acts[a])).collect(),
                    output: outputs[*output],
                };
                let data = sparse(*input_dim, 20 + (*seed % 131) as usize, *seed);
                // Slow enough that no case diverges: a NaN parameter trips
                // `assert_flushed`.
                let (optimizer, lr) = [
                    (Optimizer::Adam, 1e-3),
                    (Optimizer::Sgd { momentum: 0.9 }, 1e-4),
                ][*optimizer];
                let opts = TrainOpts {
                    epochs: 2,
                    batch_size: batches[*batch],
                    lr,
                    l2: 1e-3,
                    pos_weight: 3.0,
                    optimizer,
                    seed: *seed,
                };
                let mut portable = Mlp::new(cfg, *seed);
                let mut wide = portable.clone();
                let want = portable.train_in(&data, &opts, false, |_| {}).epoch_loss;
                let got = wide.train_in(&data, &opts, true, |_| {}).epoch_loss;
                if param_bits(&wide) != param_bits(&portable) {
                    return Err("parameters or PReLU slopes differ".into());
                }
                if loss_bits(&got) != loss_bits(&want) {
                    return Err(format!("epoch losses {got:?} != {want:?}"));
                }
                Ok(())
            },
        );
    }

    /// Weights with an identically zero data gradient — the incoming
    /// weights of an always-zero input column, and both sides of dead ReLU
    /// units (128 units on two live inputs leaves some) — see only L2, which
    /// shrinks them toward zero without reaching it. [`assert_flushed`] runs
    /// after every step of every run here; the end state must show the
    /// flush fired (exact zeros in the dead column) for each trainer,
    /// optimizer and ReLU-family slope.
    #[test]
    fn zero_gradient_weights_end_at_exact_zero_not_subnormal() {
        let mut data = Dataset::new(3);
        let mut rng = Rng64::new(23);
        for _ in 0..600 {
            let (a, b) = (rng.f32(), rng.f32());
            data.push(&[a, 0.0, b], if a + b > 1.0 { 1.0 } else { 0.0 });
        }
        // ~3,000 steps: under Adam the shrink takes ~2,400 to cross 2^-63.
        // SGD's L2 shrink is geometric at `lr * l2 / (1 - momentum)` per
        // step; the large decay makes it cross 2^-63 within the run.
        let optimizers = [
            (Optimizer::Adam, 5e-3, 1e-5),
            (Optimizer::Sgd { momentum: 0.9 }, 2e-2, 2.0),
        ];
        let acts = [
            Activation::ReLU,
            Activation::LeakyReLU(0.1),
            Activation::PReLU(0.25),
        ];
        for (optimizer, lr, l2) in optimizers {
            for act in acts {
                for reference in [false, true] {
                    let cfg = MlpConfig {
                        input_dim: 3,
                        hidden: vec![(128, act), (16, act)],
                        output: OutputLayer::Sigmoid,
                    };
                    let opts = TrainOpts {
                        epochs: 80,
                        batch_size: 16,
                        lr,
                        l2,
                        optimizer,
                        ..Default::default()
                    };
                    let mut m = Mlp::new(cfg, 24);
                    if reference {
                        m.train_reference(&data, &opts);
                    } else {
                        m.train(&data, &opts);
                    }
                    let dead_column = m.layers[0].w.iter().skip(1).step_by(3);
                    let zeros = dead_column.filter(|&&w| w == 0.0).count();
                    assert!(
                        zeros > 0,
                        "{optimizer:?} {act:?} reference={reference}: no dead-column weight reached 0"
                    );
                }
            }
        }
    }

    #[test]
    fn adam_bias_correction_saturates_past_i32_steps() {
        let mut m = Mlp::new(MlpConfig::heimdall(2), 26);
        let mut st = OptState::new(&m.layers);
        st.t = i32::MAX as u64 + 5;
        let gw: Vec<Vec<f32>> = m.layers.iter().map(|l| vec![0.5; l.w.len()]).collect();
        let gb: Vec<Vec<f32>> = m.layers.iter().map(|l| vec![0.5; l.b.len()]).collect();
        let before = m.flat_params();
        m.apply_update(&TrainOpts::default(), 1.0, &gw, &gb, &[0.0; 3], &mut st);
        let after = m.flat_params();
        assert!(after.iter().all(|p| p.is_finite()));
        // A first Adam step on a positive gradient lowers every parameter;
        // with a wrapped (negative) exponent the step would be zero.
        assert!(before.iter().zip(&after).all(|(b, a)| a < b));
    }

    #[test]
    fn pos_weight_shifts_predictions_up() {
        let data = toy(2000, 17);
        let mut plain = Mlp::new(MlpConfig::heimdall(2), 18);
        let mut biased = Mlp::new(MlpConfig::heimdall(2), 18);
        plain.train(
            &data,
            &TrainOpts {
                epochs: 5,
                ..Default::default()
            },
        );
        biased.train(
            &data,
            &TrainOpts {
                epochs: 5,
                pos_weight: 5.0,
                ..Default::default()
            },
        );
        let mp: f32 = plain.predict_all(&data).iter().sum::<f32>() / data.rows() as f32;
        let mb: f32 = biased.predict_all(&data).iter().sum::<f32>() / data.rows() as f32;
        assert!(mb > mp, "biased mean {mb} <= plain mean {mp}");
    }

    #[test]
    fn sgd_optimizer_also_learns() {
        let data = toy(2000, 19);
        let mut m = Mlp::new(MlpConfig::heimdall(2), 20);
        m.train(
            &data,
            &TrainOpts {
                epochs: 15,
                lr: 5e-2,
                optimizer: Optimizer::Sgd { momentum: 0.9 },
                ..Default::default()
            },
        );
        assert!(auc(&m, &data) > 0.95);
    }

    #[test]
    fn predict_bounds() {
        let m = Mlp::new(MlpConfig::heimdall(4), 21);
        for i in 0..50 {
            let x = [i as f32, -(i as f32), 0.5, 100.0];
            let p = m.predict(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "input dimensionality mismatch")]
    fn wrong_input_dim_panics() {
        Mlp::new(MlpConfig::heimdall(3), 0).predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot train on an empty dataset")]
    fn empty_train_panics() {
        Mlp::new(MlpConfig::heimdall(2), 0).train(&Dataset::new(2), &TrainOpts::default());
    }

    #[test]
    fn memory_footprint_reported() {
        let m = Mlp::new(MlpConfig::heimdall(11), 0);
        // 3617 params * 4 bytes ≈ 14.5 KB of weights.
        assert!(m.memory_bytes() > 10_000 && m.memory_bytes() < 20_000);
    }
}

//! CART decision trees: gini classification trees (standalone, forests,
//! extra-trees) and variance-reduction regression trees (gradient boosting).
//!
//! Two performance-critical choices, both with kept reference paths:
//!
//! - **Single-pass split finding** ([`Tree::fit`]): `SplitMode::Exact`
//!   sorts the `(value, target)` pairs of a feature once per node, builds
//!   cumulative `(count, Σtarget, Σtarget²)` moments over the unique
//!   values, and scores every quantile threshold from the prefix arrays —
//!   one sweep instead of the reference's one full `idx` rescan per
//!   candidate threshold (up to 16 per feature per node). Both gini and
//!   variance gains derive from the same moments, so the sweep reproduces
//!   the reference scores: for classification the targets are 0/1 and all
//!   sums are exact f64 integers regardless of accumulation order; for
//!   regression the sums can differ by ulps, which only matters on exact
//!   gain ties that the seeded parity suite shows do not occur in
//!   practice. [`Tree::fit_reference`] keeps the rescan as the oracle.
//! - **Struct-of-arrays node layout**: nodes live in four parallel arrays
//!   (`feat`/`thr`/`left`/`right`, 16 bytes per node vs. 32 for the old
//!   enum) so batched traversal (`Tree::for_each_prediction`) streams
//!   rows against hot, dense node data.

use heimdall_nn::Dataset;
use heimdall_trace::rng::Rng64;
use serde::{Deserialize, Serialize};

/// How split thresholds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitMode {
    /// Scan candidate thresholds for the best gini/variance reduction.
    Exact,
    /// Pick one random threshold per candidate feature (extra-trees style).
    RandomThreshold,
}

/// Tree growth hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Number of features considered per split (`0` = all).
    pub max_features: usize,
    /// Threshold selection mode.
    pub split_mode: SplitMode,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 8,
            min_samples_split: 8,
            max_features: 0,
            split_mode: SplitMode::Exact,
        }
    }
}

/// Sentinel in [`Tree::feat`] marking a leaf node.
const LEAF: u32 = u32::MAX;

/// A fitted binary tree predicting a real value in `[0, 1]` (classification)
/// or an unbounded residual (regression). Nodes are stored
/// struct-of-arrays; node 0 is the root and children always have larger
/// ids (DFS order), so equality compares structure and values directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    /// Split feature per node; [`LEAF`] marks a leaf.
    feat: Vec<u32>,
    /// Split threshold for interior nodes; the predicted value for leaves.
    thr: Vec<f32>,
    /// Left child per node (rows with `x[feat] <= thr`); 0 for leaves.
    left: Vec<u32>,
    /// Right child per node; 0 for leaves.
    right: Vec<u32>,
    dim: usize,
}

/// Objective used when growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeTask {
    /// Gini impurity on binary labels.
    Classification,
    /// Variance reduction on real targets.
    Regression,
}

/// Buffers reused across every node of a fit (and across trees when the
/// caller fits many, via [`Tree::fit_with_scratch`]).
#[derive(Debug, Default)]
pub(crate) struct GrowScratch {
    /// `(feature value, target)` pairs, sorted by value per candidate.
    pairs: Vec<(f32, f32)>,
    /// Unique feature values, ascending.
    uniq: Vec<f32>,
    /// Cumulative `[count, Σtarget, Σtarget²]` over pairs with value
    /// `<= uniq[g]`.
    cum: Vec<[f64; 3]>,
    /// Candidate feature index buffer.
    feats: Vec<usize>,
}

/// Immutable per-fit growth context threaded through the recursion.
struct GrowCtx<'a> {
    data: &'a Dataset,
    targets: &'a [f32],
    params: &'a TreeParams,
    task: TreeTask,
    /// `true` = single-pass sweep, `false` = reference rescan.
    fast_exact: bool,
}

impl Tree {
    /// Fits a tree on `data` rows selected by `idx` with targets `targets`
    /// (classification passes the labels, boosting passes residuals).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty.
    pub fn fit(
        data: &Dataset,
        targets: &[f32],
        idx: &[usize],
        params: &TreeParams,
        task: TreeTask,
        rng: &mut Rng64,
    ) -> Tree {
        let mut scratch = GrowScratch::default();
        Self::fit_with_scratch(data, targets, idx, params, task, rng, &mut scratch)
    }

    /// [`Tree::fit`] with caller-owned scratch so ensembles fitting many
    /// trees reuse the sweep buffers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_with_scratch(
        data: &Dataset,
        targets: &[f32],
        idx: &[usize],
        params: &TreeParams,
        task: TreeTask,
        rng: &mut Rng64,
        scratch: &mut GrowScratch,
    ) -> Tree {
        Self::fit_impl(data, targets, idx, params, task, rng, scratch, true)
    }

    /// The seed implementation: one full `idx` rescan per candidate
    /// threshold. Kept as the parity oracle for [`Tree::fit`] — both must
    /// grow identical trees (same RNG stream, same tie-breaking).
    pub fn fit_reference(
        data: &Dataset,
        targets: &[f32],
        idx: &[usize],
        params: &TreeParams,
        task: TreeTask,
        rng: &mut Rng64,
    ) -> Tree {
        let mut scratch = GrowScratch::default();
        Self::fit_impl(data, targets, idx, params, task, rng, &mut scratch, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn fit_impl(
        data: &Dataset,
        targets: &[f32],
        idx: &[usize],
        params: &TreeParams,
        task: TreeTask,
        rng: &mut Rng64,
        scratch: &mut GrowScratch,
        fast_exact: bool,
    ) -> Tree {
        assert!(!idx.is_empty(), "cannot fit a tree on no rows");
        let mut tree = Tree {
            feat: Vec::new(),
            thr: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            dim: data.dim,
        };
        let ctx = GrowCtx {
            data,
            targets,
            params,
            task,
            fast_exact,
        };
        let mut idx = idx.to_vec();
        tree.grow(&ctx, &mut idx, 0, rng, scratch);
        tree
    }

    fn mean(targets: &[f32], idx: &[usize]) -> f32 {
        idx.iter().map(|&i| targets[i]).sum::<f32>() / idx.len() as f32
    }

    /// Impurity * count (so parent - children compares absolute gain).
    fn impurity_sum(targets: &[f32], idx: &[usize], task: TreeTask) -> f64 {
        let n = idx.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        match task {
            TreeTask::Classification => {
                let p = Self::mean(targets, idx) as f64;
                n * 2.0 * p * (1.0 - p)
            }
            TreeTask::Regression => {
                let m = Self::mean(targets, idx) as f64;
                idx.iter().map(|&i| (targets[i] as f64 - m).powi(2)).sum()
            }
        }
    }

    fn grow(
        &mut self,
        ctx: &GrowCtx,
        idx: &mut [usize],
        depth: usize,
        rng: &mut Rng64,
        scratch: &mut GrowScratch,
    ) -> usize {
        let node_id = self.feat.len();
        self.feat.push(LEAF);
        self.thr.push(Self::mean(ctx.targets, idx));
        self.left.push(0);
        self.right.push(0);
        if depth >= ctx.params.max_depth
            || idx.len() < ctx.params.min_samples_split
            || idx.iter().all(|&i| ctx.targets[i] == ctx.targets[idx[0]])
        {
            return node_id;
        }

        // Candidate features (buffer reused across nodes).
        let n_feats = if ctx.params.max_features == 0 {
            ctx.data.dim
        } else {
            ctx.params.max_features.min(ctx.data.dim)
        };
        let mut feats = std::mem::take(&mut scratch.feats);
        feats.clear();
        feats.extend(0..ctx.data.dim);
        if n_feats < ctx.data.dim {
            rng.shuffle(&mut feats);
            feats.truncate(n_feats);
        }

        let parent = Self::impurity_sum(ctx.targets, idx, ctx.task);
        let mut best: Option<(f64, usize, f32)> = None; // (gain, feature, threshold)
        for &f in &feats {
            match ctx.params.split_mode {
                SplitMode::RandomThreshold => {
                    let (mut lo, mut hi) = (f32::MAX, f32::MIN);
                    for &i in idx.iter() {
                        let v = ctx.data.row(i)[f];
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    if hi <= lo {
                        continue;
                    }
                    let thr = lo + rng.f32() * (hi - lo);
                    if let Some(gain) =
                        split_gain(ctx.data, ctx.targets, idx, f, thr, parent, ctx.task)
                    {
                        if best.is_none_or(|(g, _, _)| gain > g) {
                            best = Some((gain, f, thr));
                        }
                    }
                }
                SplitMode::Exact if ctx.fast_exact => {
                    if let Some((gain, thr)) = exact_split_sweep(ctx, scratch, idx, f, parent) {
                        if best.is_none_or(|(g, _, _)| gain > g) {
                            best = Some((gain, f, thr));
                        }
                    }
                }
                SplitMode::Exact => {
                    // Reference: evaluate up to 16 quantile thresholds of
                    // the feature, rescanning `idx` for each.
                    let mut vals: Vec<f32> = idx.iter().map(|&i| ctx.data.row(i)[f]).collect();
                    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                    vals.dedup();
                    if vals.len() < 2 {
                        continue;
                    }
                    let steps = 16.min(vals.len() - 1);
                    for s in 1..=steps {
                        let pos = s * (vals.len() - 1) / (steps + 1).max(1);
                        let thr = (vals[pos] + vals[(pos + 1).min(vals.len() - 1)]) / 2.0;
                        if let Some(gain) =
                            split_gain(ctx.data, ctx.targets, idx, f, thr, parent, ctx.task)
                        {
                            if best.is_none_or(|(g, _, _)| gain > g) {
                                best = Some((gain, f, thr));
                            }
                        }
                    }
                }
            }
        }
        scratch.feats = feats;

        let Some((gain, feature, threshold)) = best else {
            return node_id;
        };
        if gain <= 1e-9 {
            return node_id;
        }

        // Partition in place.
        let mid = partition(ctx.data, idx, feature, threshold);
        if mid == 0 || mid == idx.len() {
            return node_id;
        }
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        let left = self.grow(ctx, left_idx, depth + 1, rng, scratch);
        let right = self.grow(ctx, right_idx, depth + 1, rng, scratch);
        self.feat[node_id] = feature as u32;
        self.thr[node_id] = threshold;
        self.left[node_id] = left as u32;
        self.right[node_id] = right as u32;
        node_id
    }

    /// Predicted value for one row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim`.
    pub fn predict(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.dim, "input dimensionality mismatch");
        let mut n = 0usize;
        loop {
            let f = self.feat[n];
            if f == LEAF {
                return self.thr[n];
            }
            n = if x[f as usize] <= self.thr[n] {
                self.left[n] as usize
            } else {
                self.right[n] as usize
            };
        }
    }

    /// Streams a prediction for every row of `data` in row order — the
    /// batched traversal shared by all tree ensembles. Identical values to
    /// per-row [`Tree::predict`]; the batch shape keeps the flat node
    /// arrays hot across `data`'s contiguous row storage.
    ///
    /// # Panics
    ///
    /// Panics if `data.dim != self.dim`.
    pub(crate) fn for_each_prediction(&self, data: &Dataset, mut f: impl FnMut(usize, f32)) {
        assert_eq!(data.dim, self.dim, "input dimensionality mismatch");
        if self.dim == 0 {
            for r in 0..data.rows() {
                f(r, self.thr[0]);
            }
            return;
        }
        for (r, x) in data.x.chunks_exact(self.dim).enumerate() {
            let mut n = 0usize;
            loop {
                let ft = self.feat[n];
                if ft == LEAF {
                    f(r, self.thr[n]);
                    break;
                }
                n = if x[ft as usize] <= self.thr[n] {
                    self.left[n] as usize
                } else {
                    self.right[n] as usize
                };
            }
        }
    }

    /// Number of nodes.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.feat.len()
    }

    /// Maximum depth reached.
    pub fn depth(&self) -> usize {
        if self.feat.is_empty() {
            return 0;
        }
        let mut stack = vec![(0u32, 0usize)];
        let mut deepest = 0;
        while let Some((n, d)) = stack.pop() {
            let n = n as usize;
            if self.feat[n] == LEAF {
                deepest = deepest.max(d);
            } else {
                stack.push((self.left[n], d + 1));
                stack.push((self.right[n], d + 1));
            }
        }
        deepest
    }
}

/// Reference gain of one candidate threshold: a full `idx` pass
/// accumulating `(count, sum, sum-of-squares)` per side; both gini and
/// variance derive from those moments. `None` when a side is empty.
#[allow(clippy::too_many_arguments)]
fn split_gain(
    data: &Dataset,
    targets: &[f32],
    idx: &[usize],
    feature: usize,
    threshold: f32,
    parent: f64,
    task: TreeTask,
) -> Option<f64> {
    let (mut nl, mut sl, mut ssl) = (0.0f64, 0.0f64, 0.0f64);
    let (mut nr, mut sr, mut ssr) = (0.0f64, 0.0f64, 0.0f64);
    for &i in idx {
        let t = targets[i] as f64;
        if data.row(i)[feature] <= threshold {
            nl += 1.0;
            sl += t;
            ssl += t * t;
        } else {
            nr += 1.0;
            sr += t;
            ssr += t * t;
        }
    }
    if nl == 0.0 || nr == 0.0 {
        return None;
    }
    Some(parent - children_impurity(task, [nl, sl, ssl], [nr, sr, ssr]))
}

/// Weighted child impurity from per-side `[count, sum, sum-of-squares]`
/// moments — the shared scoring kernel of the rescan and the sweep.
fn children_impurity(task: TreeTask, [nl, sl, ssl]: [f64; 3], [nr, sr, ssr]: [f64; 3]) -> f64 {
    match task {
        TreeTask::Classification => {
            let pl = sl / nl;
            let pr = sr / nr;
            nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)
        }
        TreeTask::Regression => (ssl - sl * sl / nl) + (ssr - sr * sr / nr),
    }
}

/// Single-pass replacement for the per-threshold rescan: sort the
/// feature's `(value, target)` pairs once, fold them into cumulative
/// moments per unique value, then score every quantile threshold from the
/// prefix arrays. Candidate positions, threshold arithmetic, and
/// tie-breaking (first candidate wins on equal gain) mirror the reference
/// loop exactly; the boundary group is resolved with the same `<= thr`
/// comparison the rescan applies, because the midpoint of two adjacent
/// f32 values can round to either endpoint.
fn exact_split_sweep(
    ctx: &GrowCtx,
    sc: &mut GrowScratch,
    idx: &[usize],
    f: usize,
    parent: f64,
) -> Option<(f64, f32)> {
    sc.pairs.clear();
    sc.pairs
        .extend(idx.iter().map(|&i| (ctx.data.row(i)[f], ctx.targets[i])));
    sc.pairs
        .sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    sc.uniq.clear();
    sc.cum.clear();
    let (mut n, mut s, mut ss) = (0.0f64, 0.0f64, 0.0f64);
    for &(v, t) in &sc.pairs {
        if sc.uniq.last() != Some(&v) {
            if !sc.uniq.is_empty() {
                sc.cum.push([n, s, ss]);
            }
            sc.uniq.push(v);
        }
        let t = t as f64;
        n += 1.0;
        s += t;
        ss += t * t;
    }
    sc.cum.push([n, s, ss]);

    let m = sc.uniq.len();
    if m < 2 {
        return None;
    }
    let [nt, st, sst] = *sc.cum.last().expect("cum is non-empty");
    let mut best: Option<(f64, f32)> = None;
    let steps = 16.min(m - 1);
    for s in 1..=steps {
        let pos = s * (m - 1) / (steps + 1).max(1);
        let thr = (sc.uniq[pos] + sc.uniq[(pos + 1).min(m - 1)]) / 2.0;
        let g = if pos + 1 < m && sc.uniq[pos + 1] <= thr {
            pos + 1
        } else {
            pos
        };
        let [nl, sl, ssl] = sc.cum[g];
        let (nr, sr, ssr) = (nt - nl, st - sl, sst - ssl);
        if nl == 0.0 || nr == 0.0 {
            continue;
        }
        let gain = parent - children_impurity(ctx.task, [nl, sl, ssl], [nr, sr, ssr]);
        if best.is_none_or(|(bg, _)| gain > bg) {
            best = Some((gain, thr));
        }
    }
    best
}

/// Stable partition of `idx` by `x[feature] <= threshold`; returns the split
/// point.
fn partition(data: &Dataset, idx: &mut [usize], feature: usize, threshold: f32) -> usize {
    let mut left: Vec<usize> = Vec::with_capacity(idx.len());
    let mut right: Vec<usize> = Vec::new();
    for &i in idx.iter() {
        if data.row(i)[feature] <= threshold {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    let mid = left.len();
    idx[..mid].copy_from_slice(&left);
    idx[mid..].copy_from_slice(&right);
    mid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes(n: usize, seed: u64) -> Dataset {
        // Label = 1 when x0 in [0.25, 0.5) or [0.75, 1.0): needs depth >= 2.
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            let band = (a * 4.0) as u32 % 2;
            d.push(&[a, b], band as f32);
        }
        d
    }

    #[test]
    fn classification_tree_learns_stripes() {
        let data = stripes(2000, 1);
        let idx: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(2);
        let t = Tree::fit(
            &data,
            &data.y,
            &idx,
            &TreeParams::default(),
            TreeTask::Classification,
            &mut rng,
        );
        let test = stripes(500, 3);
        let correct = (0..test.rows())
            .filter(|&i| (t.predict(test.row(i)) >= 0.5) == (test.y[i] >= 0.5))
            .count();
        assert!(correct > 460, "correct {correct}/500");
    }

    #[test]
    fn fast_and_reference_growers_build_identical_trees() {
        for seed in 0..6u64 {
            let data = stripes(700, 20 + seed);
            let idx: Vec<usize> = (0..data.rows()).collect();
            for max_features in [0usize, 1] {
                let params = TreeParams {
                    max_features,
                    ..TreeParams::default()
                };
                let fast = Tree::fit(
                    &data,
                    &data.y,
                    &idx,
                    &params,
                    TreeTask::Classification,
                    &mut Rng64::new(seed),
                );
                let reference = Tree::fit_reference(
                    &data,
                    &data.y,
                    &idx,
                    &params,
                    TreeTask::Classification,
                    &mut Rng64::new(seed),
                );
                assert_eq!(fast, reference, "seed {seed} max_features {max_features}");
            }
        }
    }

    #[test]
    fn fast_and_reference_agree_on_regression_targets() {
        let mut rng = Rng64::new(41);
        let mut d = Dataset::new(3);
        let targets: Vec<f32> = (0..600)
            .map(|_| {
                let x = [rng.f32(), rng.f32(), rng.f32()];
                d.push(&x, 0.0);
                (rng.normal(x[0] as f64, 0.3)) as f32
            })
            .collect();
        let idx: Vec<usize> = (0..600).collect();
        let params = TreeParams {
            max_depth: 6,
            ..TreeParams::default()
        };
        let fast = Tree::fit(
            &d,
            &targets,
            &idx,
            &params,
            TreeTask::Regression,
            &mut Rng64::new(1),
        );
        let reference = Tree::fit_reference(
            &d,
            &targets,
            &idx,
            &params,
            TreeTask::Regression,
            &mut Rng64::new(1),
        );
        assert_eq!(fast, reference);
    }

    #[test]
    fn fast_grower_handles_constant_and_duplicate_columns() {
        // Column 1 is constant, column 2 duplicates column 0: the sweep
        // must skip the former and tie-break the latter to the first
        // feature, exactly like the rescan.
        let mut rng = Rng64::new(42);
        let mut d = Dataset::new(3);
        for _ in 0..300 {
            let a = rng.f32();
            d.push(&[a, 7.5, a], if a > 0.6 { 1.0 } else { 0.0 });
        }
        let idx: Vec<usize> = (0..d.rows()).collect();
        let fast = Tree::fit(
            &d,
            &d.y,
            &idx,
            &TreeParams::default(),
            TreeTask::Classification,
            &mut Rng64::new(0),
        );
        let reference = Tree::fit_reference(
            &d,
            &d.y,
            &idx,
            &TreeParams::default(),
            TreeTask::Classification,
            &mut Rng64::new(0),
        );
        assert_eq!(fast, reference);
    }

    #[test]
    fn batched_traversal_matches_scalar_predict() {
        let data = stripes(800, 50);
        let idx: Vec<usize> = (0..data.rows()).collect();
        let t = Tree::fit(
            &data,
            &data.y,
            &idx,
            &TreeParams::default(),
            TreeTask::Classification,
            &mut Rng64::new(51),
        );
        let mut batched = vec![0.0f32; data.rows()];
        t.for_each_prediction(&data, |r, p| batched[r] = p);
        for (i, &b) in batched.iter().enumerate() {
            assert_eq!(b.to_bits(), t.predict(data.row(i)).to_bits());
        }
    }

    #[test]
    fn depth_limit_respected() {
        let data = stripes(2000, 4);
        let idx: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(5);
        let params = TreeParams {
            max_depth: 3,
            ..Default::default()
        };
        let t = Tree::fit(
            &data,
            &data.y,
            &idx,
            &params,
            TreeTask::Classification,
            &mut rng,
        );
        assert!(t.depth() <= 3);
    }

    #[test]
    fn pure_node_stops_growing() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push(&[i as f32], 1.0);
        }
        let idx: Vec<usize> = (0..100).collect();
        let mut rng = Rng64::new(6);
        let t = Tree::fit(
            &d,
            &d.y,
            &idx,
            &TreeParams::default(),
            TreeTask::Classification,
            &mut rng,
        );
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[5.0]), 1.0);
    }

    #[test]
    fn regression_tree_fits_step() {
        let mut d = Dataset::new(1);
        let targets: Vec<f32> = (0..200)
            .map(|i| {
                let x = i as f32 / 200.0;
                d.push(&[x], 0.0);
                if x < 0.5 {
                    -2.0
                } else {
                    3.0
                }
            })
            .collect();
        let idx: Vec<usize> = (0..200).collect();
        let mut rng = Rng64::new(7);
        let t = Tree::fit(
            &d,
            &targets,
            &idx,
            &TreeParams::default(),
            TreeTask::Regression,
            &mut rng,
        );
        assert!((t.predict(&[0.1]) + 2.0).abs() < 0.2);
        assert!((t.predict(&[0.9]) - 3.0).abs() < 0.2);
    }

    #[test]
    fn random_threshold_mode_still_learns() {
        let data = stripes(3000, 8);
        let idx: Vec<usize> = (0..data.rows()).collect();
        let mut rng = Rng64::new(9);
        let params = TreeParams {
            split_mode: SplitMode::RandomThreshold,
            max_depth: 10,
            ..Default::default()
        };
        let t = Tree::fit(
            &data,
            &data.y,
            &idx,
            &params,
            TreeTask::Classification,
            &mut rng,
        );
        let correct = (0..data.rows())
            .filter(|&i| (t.predict(data.row(i)) >= 0.5) == (data.y[i] >= 0.5))
            .count();
        assert!(correct as f64 / data.rows() as f64 > 0.8);
    }

    #[test]
    fn random_threshold_consumes_the_same_rng_stream_in_both_growers() {
        let data = stripes(900, 10);
        let idx: Vec<usize> = (0..data.rows()).collect();
        let params = TreeParams {
            split_mode: SplitMode::RandomThreshold,
            max_features: 1,
            max_depth: 9,
            ..Default::default()
        };
        let fast = Tree::fit(
            &data,
            &data.y,
            &idx,
            &params,
            TreeTask::Classification,
            &mut Rng64::new(11),
        );
        let reference = Tree::fit_reference(
            &data,
            &data.y,
            &idx,
            &params,
            TreeTask::Classification,
            &mut Rng64::new(11),
        );
        assert_eq!(fast, reference);
    }

    #[test]
    fn partition_is_stable_and_correct() {
        let mut d = Dataset::new(1);
        for v in [5.0f32, 1.0, 3.0, 8.0, 2.0] {
            d.push(&[v], 0.0);
        }
        let mut idx = vec![0, 1, 2, 3, 4];
        let mid = partition(&d, &mut idx, 0, 3.0);
        assert_eq!(mid, 3);
        assert_eq!(&idx[..3], &[1, 2, 4]);
        assert_eq!(&idx[3..], &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot fit a tree on no rows")]
    fn empty_fit_panics() {
        let d = Dataset::new(1);
        let mut rng = Rng64::new(0);
        Tree::fit(
            &d,
            &[],
            &[],
            &TreeParams::default(),
            TreeTask::Classification,
            &mut rng,
        );
    }
}

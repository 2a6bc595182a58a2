#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! Bin weightings (§5.3): the estimated number of sample points per aggregation-column
//! bin satisfying the predicate, with lower/upper bounds.
//!
//! The recursion follows Eq 25–28: leaf probabilities come from coverage vectors
//! (through the relevant pair histogram when the condition column differs from the
//! aggregation column, Eq 27), AND multiplies element-wise, OR applies the
//! complement-product rule — all under the conditional-independence assumption that
//! delayed transformation makes tolerable. Bounds propagate monotonically (both
//! combination rules are increasing in each argument), then get widened for sampling
//! uncertainty (Eq 29).
//!
//! # Hot-path architecture
//!
//! Evaluation allocates nothing once a thread is warm. Every buffer it needs
//! lives in one per-thread [`Scratch`] ([`with_scratch`]) that an execute
//! borrows once and runs every engine of its table through: a pool of [`Probs`]
//! triples (AND/OR nodes fold their children into pooled buffers, O(depth) of
//! them), the coverage triple of the leaf being folded, and one slot per
//! *repeated* leaf. Which leaves repeat is a plan-time fact
//! (`PlanNode::Leaf::memo`): a leaf that occurs once is evaluated straight into
//! its caller's buffer, a repeated one is computed at its first occurrence and
//! found again by slot index. A cross-column leaf is one pass over its pair
//! histogram ([`PairHist::fold_coverage3`](crate::build2d::PairHist)), and the
//! [`Weights`] are the evaluated probabilities scaled in place.

use std::cell::RefCell;

use crate::aggregate::Estimate;
use crate::build::PairwiseHist;
use crate::coverage::{bin_coverage, coverage_bounds, RangeSet};
use crate::plan::PlanNode;

/// Numerical floor for "non-zero weight" tests.
pub(crate) const W_EPS: f64 = 1e-9;

/// Weightings for the aggregation column: estimate and bounds, in sample units.
///
/// The ℓ₁ totals of all three vectors are computed eagerly at construction, so
/// aggregation call sites never re-sum the vectors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Weights {
    /// Estimated per-bin satisfying counts `w`.
    pub w: Vec<f64>,
    /// Lower bounds `w⁻`.
    pub lo: Vec<f64>,
    /// Upper bounds `w⁺`.
    pub hi: Vec<f64>,
    total: f64,
    total_lo: f64,
    total_hi: f64,
}

impl Weights {
    /// Builds the weighting, caching `‖w‖₁`, `‖w⁻‖₁` and `‖w⁺‖₁`.
    pub fn new(w: Vec<f64>, lo: Vec<f64>, hi: Vec<f64>) -> Self {
        let total = w.iter().sum();
        let total_lo = lo.iter().sum();
        let total_hi = hi.iter().sum();
        Self { w, lo, hi, total, total_lo, total_hi }
    }

    /// `‖w‖₁` (cached).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// `‖w⁻‖₁` (cached).
    pub fn total_lo(&self) -> f64 {
        self.total_lo
    }

    /// `‖w⁺‖₁` (cached).
    pub fn total_hi(&self) -> f64 {
        self.total_hi
    }

    /// Gives the three vectors back as a buffer for [`WeightCtx::recycle`].
    pub fn into_probs(self) -> Probs {
        Probs { p: self.w, lo: self.lo, hi: self.hi }
    }
}

/// Per-bin probability triples (estimate, lower, upper), all sized to the
/// aggregation column's bin count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Probs {
    pub p: Vec<f64>,
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
}

impl Probs {
    #[cfg(test)]
    fn ones(k: usize) -> Self {
        Self { p: vec![1.0; k], lo: vec![1.0; k], hi: vec![1.0; k] }
    }

    /// Sets the length of all three vectors; what they hold afterwards is for
    /// the caller to overwrite.
    fn resize(&mut self, k: usize) {
        self.p.resize(k, 0.0);
        self.lo.resize(k, 0.0);
        self.hi.resize(k, 0.0);
    }

    fn fill_ones(&mut self) {
        self.p.fill(1.0);
        self.lo.fill(1.0);
        self.hi.fill(1.0);
    }

    fn copy_from(&mut self, other: &Probs) {
        self.p.clone_from(&other.p);
        self.lo.clone_from(&other.lo);
        self.hi.clone_from(&other.hi);
    }

    /// Element-wise AND combination (Eq 25): `self ∧= child`.
    #[inline]
    pub(crate) fn and_assign(&mut self, child: &Probs) {
        for t in 0..self.p.len() {
            self.p[t] *= child.p[t];
            self.lo[t] *= child.lo[t];
            self.hi[t] *= child.hi[t];
        }
    }

    /// Accumulates one OR branch's complement (Eq 26): `self ·= (1 − child)`.
    #[inline]
    fn or_accumulate(&mut self, child: &Probs) {
        for t in 0..self.p.len() {
            self.p[t] *= 1.0 - child.p[t];
            self.lo[t] *= 1.0 - child.lo[t];
            self.hi[t] *= 1.0 - child.hi[t];
        }
    }

    /// Finishes the OR rule in place: `self = 1 − self`. The complement swaps the
    /// bound roles back.
    #[inline]
    fn complement(&mut self) {
        for t in 0..self.p.len() {
            self.p[t] = 1.0 - self.p[t];
            self.lo[t] = 1.0 - self.lo[t];
            self.hi[t] = 1.0 - self.hi[t];
        }
    }
}

/// Every buffer an execute needs, kept per thread and grown to the widest
/// histogram it has met: nothing here outlives a query's answer, everything
/// here outlives the query.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Released [`Probs`] buffers (as many as the deepest plan needed at once).
    pool: Vec<Probs>,
    /// Probabilities of the repeated leaves evaluated so far, by
    /// `PlanNode::Leaf::memo` slot; `memo_filled[slot]` (same length) says whether
    /// `memo[slot]` belongs to the evaluation in flight.
    memo: Vec<Probs>,
    memo_filled: Vec<bool>,
    /// Coverage triple over the condition column's refined bins, for the
    /// cross-column leaf being folded.
    cov: Probs,
    /// Per-engine partial estimates of the scalar execute in flight (the fan-out
    /// in `segment.rs` collects here instead of in a fresh `Vec` per query).
    pub parts: Vec<Estimate>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with the calling thread's [`Scratch`]. A nested call (nothing makes
/// one today) gets a fresh scratch instead of a `RefCell` panic.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// Weight computation for one engine and aggregation column, over a borrowed
/// [`Scratch`]. Build one per engine per `execute` and reuse it for every
/// weighting that call needs (grouped queries evaluate the shared predicate once
/// and every group leaf through the same context).
pub(crate) struct WeightCtx<'a> {
    ph: &'a PairwiseHist,
    agg_col: usize,
    /// Aggregation-column bin count; every buffer handed out has this length.
    k: usize,
    scratch: &'a mut Scratch,
}

impl<'a> WeightCtx<'a> {
    pub fn new(ph: &'a PairwiseHist, agg_col: usize, scratch: &'a mut Scratch) -> Self {
        // Whatever the slots hold was computed against another engine or column.
        scratch.memo_filled.fill(false);
        Self { ph, agg_col, k: ph.hist1d(agg_col).k(), scratch }
    }

    fn acquire(&mut self) -> Probs {
        let mut buf = self.scratch.pool.pop().unwrap_or_default();
        buf.resize(self.k);
        buf
    }

    /// Returns a buffer to the pool once the caller is done with it.
    pub fn recycle(&mut self, buf: Probs) {
        self.scratch.pool.push(buf);
    }

    /// Evaluates the plan into a pooled buffer and returns it.
    pub fn eval(&mut self, node: &PlanNode) -> Probs {
        let mut out = self.acquire();
        self.eval_into(node, &mut out);
        out
    }

    /// Evaluates a single leaf into a pooled buffer — the factored GROUP BY path
    /// uses this for its per-group leaves.
    pub fn eval_leaf(&mut self, col: usize, ranges: &RangeSet) -> Probs {
        let mut out = self.acquire();
        self.leaf_into(col, ranges, &mut out);
        out
    }

    /// Bin weightings under an optional compiled predicate. The vectors come from
    /// the pool: [`recycle`](Self::recycle) them ([`Weights::into_probs`]) when
    /// the estimate is out.
    pub fn weights(&mut self, plan: Option<&PlanNode>) -> Weights {
        let probs = match plan {
            Some(node) => self.eval(node),
            None => {
                let mut ones = self.acquire();
                ones.fill_ones();
                ones
            }
        };
        weights_from_probs(self.ph, self.agg_col, probs)
    }

    /// `Pr(node | bin t of agg_col)` per bin, with bounds (Eq 27–28), written
    /// into `out`.
    fn eval_into(&mut self, node: &PlanNode, out: &mut Probs) {
        match node {
            PlanNode::Leaf { col, ranges, memo: None } => self.leaf_into(*col, ranges, out),
            PlanNode::Leaf { col, ranges, memo: Some(slot) } => {
                let slot = *slot as usize;
                if self.scratch.memo.len() <= slot {
                    self.scratch.memo.resize_with(slot + 1, Probs::default);
                    self.scratch.memo_filled.resize(slot + 1, false);
                }
                if self.scratch.memo_filled[slot] {
                    out.copy_from(&self.scratch.memo[slot]);
                } else {
                    self.leaf_into(*col, ranges, out);
                    self.scratch.memo[slot].copy_from(out);
                    self.scratch.memo_filled[slot] = true;
                }
            }
            PlanNode::And(children) => {
                out.fill_ones();
                let mut child_buf = self.acquire();
                for child in children {
                    self.eval_into(child, &mut child_buf);
                    out.and_assign(&child_buf);
                }
                self.recycle(child_buf);
            }
            PlanNode::Or(children) => {
                // 1 − ∏(1 − p): complements multiply (Eq 26).
                out.fill_ones();
                let mut child_buf = self.acquire();
                for child in children {
                    self.eval_into(child, &mut child_buf);
                    out.or_accumulate(&child_buf);
                }
                self.recycle(child_buf);
                out.complement();
            }
        }
    }

    fn leaf_into(&mut self, col: usize, ranges: &RangeSet, out: &mut Probs) {
        if col == self.agg_col {
            self.leaf_same_column(ranges, out);
        } else {
            self.leaf_cross_column(col, ranges, out);
        }
    }

    /// Direct coverage of the aggregation column's own bins (Eq 15–16, 22–23).
    fn leaf_same_column(&mut self, ranges: &RangeSet, out: &mut Probs) {
        let bins = self.ph.hist1d(self.agg_col);
        let m_min = self.ph.params().m_min;
        for t in 0..self.k {
            let h = bins.counts[t];
            let beta = bin_coverage(h, bins.meta(t), ranges);
            let (bl, bh) =
                coverage_bounds(beta, h, bins.uniq[t], m_min, |dof| self.ph.critical(dof));
            out.p[t] = beta;
            out.lo[t] = bl;
            out.hi[t] = bh;
        }
    }

    /// Coverage through the pair histogram: coverage over the condition column's
    /// refined bins, folded into the aggregation column's 1-d bins
    /// (`H⁽ⁱʲ⁾β ⊘ H⁽ⁱ⁾`, Eq 27).
    fn leaf_cross_column(&mut self, col: usize, ranges: &RangeSet, out: &mut Probs) {
        let ph = self.ph;
        let pair = ph.pair(self.agg_col, col);
        let cover_on_j = pair.col_j == col;
        let cov_dim = if cover_on_j { pair.dim_j } else { pair.dim_i };
        let kb = cov_dim.k();
        let m_min = ph.params().m_min;
        let cov = &mut self.scratch.cov;
        cov.resize(kb);
        // The refined bins with any coverage at all: `β⁻ ≤ β ≤ β⁺`, so a zero
        // upper bound means all three are zero and the fold can skip the bin.
        let mut band = kb..kb;
        cov_dim.for_each_bin(|t, h, meta| {
            let beta = bin_coverage(h, meta, ranges);
            let (bl, bh) = coverage_bounds(beta, h, meta.uniq, m_min, |dof| ph.critical(dof));
            cov.p[t] = beta;
            cov.lo[t] = bl;
            cov.hi[t] = bh;
            if bh != 0.0 {
                band = band.start.min(t)..t + 1;
            }
        });
        pair.fold_coverage3(
            [&cov.p, &cov.lo, &cov.hi],
            cover_on_j,
            band,
            [&mut out.p, &mut out.lo, &mut out.hi],
        );
        let h1d = &ph.hist1d(self.agg_col).counts;
        for dst in [&mut out.p, &mut out.lo, &mut out.hi] {
            for (x, &h) in dst.iter_mut().zip(h1d) {
                *x = if h > 0 { (*x / h as f64).clamp(0.0, 1.0) } else { 0.0 };
            }
        }
    }
}

/// Computes bin weightings for `agg_col` under an optional compiled predicate,
/// in vectors the caller keeps.
pub(crate) fn compute_weights(
    ph: &PairwiseHist,
    plan: Option<&PlanNode>,
    agg_col: usize,
) -> Weights {
    with_scratch(|scratch| WeightCtx::new(ph, agg_col, scratch).weights(plan))
}

/// Scales per-bin probabilities by bin counts, in place, and widens for sampling
/// (Eq 29).
pub(crate) fn weights_from_probs(ph: &PairwiseHist, agg_col: usize, probs: Probs) -> Weights {
    let bins = ph.hist1d(agg_col);
    let Probs { p: mut w, mut lo, mut hi } = probs;
    for t in 0..bins.k() {
        let h = bins.counts[t] as f64;
        w[t] *= h;
        lo[t] *= h;
        hi[t] *= h;
    }
    widen_for_sampling(ph, bins.counts.as_slice(), &w, &mut lo, &mut hi);
    Weights::new(w, lo, hi)
}

/// Eq 29: widens weighting bounds for sampling uncertainty with the finite-population
/// correction `(N − Ns)/(N − 1)`.
///
/// Note on fidelity: the paper's printed formula adds `z·√(β(1−β)·fpc)` directly to a
/// *count*; a proportion's standard deviation must be scaled by the bin count to land
/// in count units, so we widen by the Binomial count deviation
/// `z·√(h·β(1−β)·fpc)` — the standard stratified-sampling bound the text describes.
fn widen_for_sampling(
    ph: &PairwiseHist,
    counts: &[u64],
    w: &[f64],
    lo: &mut [f64],
    hi: &mut [f64],
) {
    let p = ph.params();
    let n = p.n_total as f64;
    let ns = p.ns as f64;
    if ns >= n || n <= 1.0 {
        return;
    }
    let fpc = (n - ns) / (n - 1.0);
    let z = ph.z98;
    for t in 0..counts.len() {
        let h = counts[t] as f64;
        if h == 0.0 {
            continue;
        }
        let b_lo = (lo[t] / h).clamp(0.0, 1.0);
        let b_hi = (hi[t] / h).clamp(0.0, 1.0);
        lo[t] = (lo[t] - z * (h * b_lo * (1.0 - b_lo) * fpc).sqrt()).max(0.0);
        hi[t] = (hi[t] + z * (h * b_hi * (1.0 - b_hi) * fpc).sqrt()).min(h);
        // Keep the bracket ordered around the estimate.
        lo[t] = lo[t].min(w[t]);
        hi[t] = hi[t].max(w[t]);
    }
}

/// Reference implementation kept for the equivalence property tests: the direct
/// Eq 25–28 recursion with per-node allocation, one dense fold per coverage
/// vector, no leaf slots and no buffer reuse. The optimized [`WeightCtx`] path
/// must match it bit-for-bit on any plan (same operations in the same order,
/// modulo commuting one multiply).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub fn prob_vector_naive(ph: &PairwiseHist, node: &PlanNode, agg_col: usize) -> Probs {
        let k = ph.hist1d(agg_col).k();
        match node {
            PlanNode::Leaf { col, ranges, .. } => {
                if *col == agg_col {
                    let bins = ph.hist1d(agg_col);
                    let mut p = Vec::with_capacity(k);
                    let mut lo = Vec::with_capacity(k);
                    let mut hi = Vec::with_capacity(k);
                    for t in 0..k {
                        let beta = bin_coverage(bins.counts[t], bins.meta(t), ranges);
                        let (bl, bh) = coverage_bounds(
                            beta,
                            bins.counts[t],
                            bins.uniq[t],
                            ph.params().m_min,
                            |dof| ph.critical(dof),
                        );
                        p.push(beta);
                        lo.push(bl);
                        hi.push(bh);
                    }
                    Probs { p, lo, hi }
                } else {
                    let pair = ph.pair(agg_col, *col);
                    let cover_on_j = pair.col_j == *col;
                    let cov_dim = if cover_on_j { pair.dim_j } else { pair.dim_i };
                    let kb = cov_dim.k();
                    let mut cov = Vec::with_capacity(kb);
                    let mut cov_lo = Vec::with_capacity(kb);
                    let mut cov_hi = Vec::with_capacity(kb);
                    cov_dim.for_each_bin(|_, h, meta| {
                        let beta = bin_coverage(h, meta, ranges);
                        let (bl, bh) =
                            coverage_bounds(beta, h, meta.uniq, ph.params().m_min, |dof| {
                                ph.critical(dof)
                            });
                        cov.push(beta);
                        cov_lo.push(bl);
                        cov_hi.push(bh);
                    });
                    let h1d = &ph.hist1d(agg_col).counts;
                    let fold = |c: &[f64]| -> Vec<f64> {
                        pair.fold_coverage(c, cover_on_j, k)
                            .iter()
                            .zip(h1d)
                            .map(
                                |(&num, &h)| {
                                    if h > 0 {
                                        (num / h as f64).clamp(0.0, 1.0)
                                    } else {
                                        0.0
                                    }
                                },
                            )
                            .collect()
                    };
                    Probs { p: fold(&cov), lo: fold(&cov_lo), hi: fold(&cov_hi) }
                }
            }
            PlanNode::And(children) => {
                let mut acc = Probs::ones(k);
                for child in children {
                    let c = prob_vector_naive(ph, child, agg_col);
                    acc.and_assign(&c);
                }
                acc
            }
            PlanNode::Or(children) => {
                let mut acc = Probs::ones(k);
                for child in children {
                    let c = prob_vector_naive(ph, child, agg_col);
                    acc.or_accumulate(&c);
                }
                acc.complement();
                acc
            }
        }
    }

    /// The naive weighting pipeline: allocate-per-node recursion, then scale.
    pub fn compute_weights_naive(
        ph: &PairwiseHist,
        plan: Option<&PlanNode>,
        agg_col: usize,
    ) -> Weights {
        let probs = match plan {
            None => Probs::ones(ph.hist1d(agg_col).k()),
            Some(node) => prob_vector_naive(ph, node, agg_col),
        };
        weights_from_probs(ph, agg_col, probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PairwiseHistConfig;
    use crate::plan::compile_predicate;
    use ph_sql::parse_query;
    use ph_types::{Column, Dataset};
    use rand::{Rng, SeedableRng};

    fn setup(n: usize) -> (Dataset, PairwiseHist) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..500))).collect();
        let y: Vec<Option<i64>> =
            x.iter().map(|v| Some(v.unwrap() * 2 + rng.gen_range(0..40))).collect();
        let data = Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .build();
        let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: n, ..Default::default() });
        (data, ph)
    }

    fn weights_for(ph: &PairwiseHist, sql: &str, agg_col: usize) -> Weights {
        let q = parse_query(sql).unwrap();
        let plan = q.predicate.as_ref().map(|p| compile_predicate(p, ph.preprocessor()).unwrap());
        compute_weights(ph, plan.as_ref(), agg_col)
    }

    #[test]
    fn no_predicate_weights_equal_counts() {
        let (_, ph) = setup(5000);
        let w = compute_weights(&ph, None, 0);
        let counts: Vec<f64> = ph.hist1d(0).counts.iter().map(|&c| c as f64).collect();
        assert_eq!(w.w, counts);
        assert_eq!(w.lo, counts);
        assert_eq!(w.hi, counts);
    }

    #[test]
    fn bounds_bracket_weights() {
        let (_, ph) = setup(5000);
        for sql in [
            "SELECT COUNT(x) FROM t WHERE y > 300",
            "SELECT COUNT(x) FROM t WHERE x < 100 OR y > 800",
            "SELECT COUNT(x) FROM t WHERE x > 50 AND x < 450 AND y < 700",
        ] {
            let w = weights_for(&ph, sql, 0);
            for t in 0..w.w.len() {
                assert!(
                    w.lo[t] <= w.w[t] + 1e-9 && w.w[t] <= w.hi[t] + 1e-9,
                    "{sql}: bin {t}: {} <= {} <= {}",
                    w.lo[t],
                    w.w[t],
                    w.hi[t]
                );
                assert!(w.w[t] >= -1e-9);
                assert!(w.hi[t] <= ph.hist1d(0).counts[t] as f64 + 1e-6);
            }
        }
    }

    #[test]
    fn count_estimate_tracks_truth_cross_column() {
        let (data, ph) = setup(20_000);
        // y = 2x + noise: y > 600 should select roughly x > 280..300.
        let w = weights_for(&ph, "SELECT COUNT(x) FROM t WHERE y > 600", 0);
        let est = w.total();
        let q = parse_query("SELECT COUNT(x) FROM t WHERE y > 600").unwrap();
        let truth = ph_exact::evaluate(&q, &data).unwrap().scalar().unwrap();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.05, "estimate {est} vs truth {truth} (rel {rel})");
    }

    #[test]
    fn same_column_or_is_additive() {
        let (data, ph) = setup(20_000);
        let sql = "SELECT COUNT(x) FROM t WHERE x < 100 OR x >= 400";
        let w = weights_for(&ph, sql, 0);
        let q = parse_query(sql).unwrap();
        let truth = ph_exact::evaluate(&q, &data).unwrap().scalar().unwrap();
        let rel = (w.total() - truth).abs() / truth;
        assert!(rel < 0.05, "estimate {} vs truth {truth}", w.total());
    }

    #[test]
    fn empty_predicate_gives_zero_weights() {
        let (_, ph) = setup(5000);
        let w = weights_for(&ph, "SELECT COUNT(x) FROM t WHERE x > 100000", 0);
        assert!(w.total() < W_EPS);
    }

    #[test]
    fn cached_totals_match_recomputation() {
        let (_, ph) = setup(8000);
        for sql in [
            "SELECT COUNT(x) FROM t WHERE y > 300",
            "SELECT COUNT(x) FROM t WHERE x < 100 OR y > 800",
        ] {
            let w = weights_for(&ph, sql, 0);
            assert_eq!(w.total(), w.w.iter().sum::<f64>());
            assert_eq!(w.total_lo(), w.lo.iter().sum::<f64>());
            assert_eq!(w.total_hi(), w.hi.iter().sum::<f64>());
        }
    }

    /// Skewed, correlated numerics (one with NULLs), a float and two
    /// categoricals: wide enough that pair histograms refine and every leaf
    /// orientation occurs.
    fn multi_column(n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<Option<i64>> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                Some((u * u * 3000.0) as i64)
            })
            .collect();
        let b: Vec<Option<i64>> = a
            .iter()
            .map(|v| (!rng.gen_bool(0.04)).then(|| v.unwrap() / 3 + rng.gen_range(0..60)))
            .collect();
        let c: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(-50..450))).collect();
        let f: Vec<Option<f64>> =
            c.iter().map(|v| Some(v.unwrap() as f64 * 0.5 + rng.gen_range(0.0..25.0))).collect();
        let kinds = ["k0", "k1", "k2", "k3", "k4"];
        let g: Vec<Option<&str>> =
            a.iter().map(|v| Some(kinds[(v.unwrap() as usize / 700).min(4)])).collect();
        let h: Vec<Option<&str>> =
            (0..n).map(|_| Some(["u", "v", "w"][rng.gen_range(0..3usize)])).collect();
        Dataset::builder("t")
            .column(Column::from_ints("a", a))
            .unwrap()
            .column(Column::from_ints("b", b))
            .unwrap()
            .column(Column::from_ints("c", c))
            .unwrap()
            .column(Column::from_floats("f", f, 1))
            .unwrap()
            .column(Column::from_strings("g", g))
            .unwrap()
            .column(Column::from_strings("h", h))
            .unwrap()
            .build()
    }

    /// Generated, not enumerated: the paper's scaled-up workload shape (all seven
    /// aggregates, 1–5 predicates, AND/OR mix, a third of the queries grouped)
    /// over a six-column table. The scratch-pooled, fused-fold kernel must give the reference recursion's weights to the last bit — for
    /// the plan itself and, on grouped queries, for `AND(plan, group leaf)` of
    /// every group (the point-coverage band).
    #[test]
    fn optimized_kernel_matches_reference_bitwise() {
        let data = multi_column(12_000, 41);
        let ph =
            PairwiseHist::build(&data, &PairwiseHistConfig { ns: 8_000, ..Default::default() });
        let pre = ph.preprocessor();
        let queries = ph_workload::generate(
            &data,
            &ph_workload::WorkloadConfig {
                group_by_probability: 0.35,
                check_rows: 3_000,
                ..ph_workload::WorkloadConfig::scaled(160, 0x5eed)
            },
        );
        assert_eq!(queries.len(), 160, "the generator ran out of attempts");
        let (mut grouped, mut multi_leaf) = (0, 0);
        for q in &queries {
            let agg_col = pre.column_index(&q.column).unwrap();
            let plan = compile_predicate(q.predicate.as_ref().unwrap(), pre).unwrap();
            multi_leaf += usize::from(!matches!(plan, PlanNode::Leaf { .. }));
            let fast = compute_weights(&ph, Some(&plan), agg_col);
            let naive = reference::compute_weights_naive(&ph, Some(&plan), agg_col);
            assert_eq!(fast, naive, "{q}");
            let Some(group) = &q.group_by else { continue };
            grouped += 1;
            let gcol = pre.column_index(group).unwrap();
            for rank in 0..pre.transform(gcol).n_categories().unwrap() {
                let leaf = PlanNode::leaf(gcol, RangeSet::point(rank as u64));
                let per_group = PlanNode::And(vec![plan.clone(), leaf]);
                let fast = compute_weights(&ph, Some(&per_group), agg_col);
                let naive = reference::compute_weights_naive(&ph, Some(&per_group), agg_col);
                assert_eq!(fast, naive, "{q}, group {rank}");
            }
        }
        // The corpus exercises what it claims to.
        assert!(grouped >= 30 && multi_leaf >= 60, "{grouped} grouped, {multi_leaf} multi-leaf");
    }

    /// `OR(AND(x, y), AND(x', y))` with `x ≠ x'`: `y`'s leaf occurs twice and
    /// shares slot 0, the `x` leaves occur once each and have none. The second
    /// occurrence is a copy of the first, and a second evaluation through a new
    /// context (as the next engine of a fan-out would make) starts from unfilled
    /// slots rather than another engine's probabilities.
    #[test]
    fn repeated_leaves_are_evaluated_once_per_context() {
        let (_, ph) = setup(5000);
        let q =
            parse_query("SELECT COUNT(x) FROM t WHERE x < 100 AND y > 300 OR x > 400 AND y > 300")
                .unwrap();
        let plan = compile_predicate(q.predicate.as_ref().unwrap(), ph.preprocessor()).unwrap();
        let mut slots = Vec::new();
        fn memos(node: &PlanNode, out: &mut Vec<(usize, Option<u32>)>) {
            match node {
                PlanNode::Leaf { col, memo, .. } => out.push((*col, *memo)),
                PlanNode::And(ch) | PlanNode::Or(ch) => ch.iter().for_each(|c| memos(c, out)),
            }
        }
        memos(&plan, &mut slots);
        slots.sort_unstable();
        assert_eq!(slots, [(0, None), (0, None), (1, Some(0)), (1, Some(0))]);

        let mut scratch = Scratch::default();
        let a = WeightCtx::new(&ph, 0, &mut scratch).eval(&plan);
        assert_eq!(scratch.memo_filled, [true]);
        assert_eq!(a, reference::prob_vector_naive(&ph, &plan, 0));
        // Poison the slot: a new context must recompute it, not trust it.
        scratch.memo[0].fill_ones();
        let b = WeightCtx::new(&ph, 0, &mut scratch).eval(&plan);
        assert_eq!(a, b);
    }
}

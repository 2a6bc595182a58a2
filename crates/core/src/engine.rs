//! Query execution against the synopsis (§5, Fig 7 pipeline): parse → transform
//! literals → coverage → weightings → aggregation → map back to the value domain.

use std::collections::BTreeMap;
use std::fmt;

use ph_sql::{AggFunc, Query};
use ph_types::PhError;

use crate::aggregate::{estimate, Estimate};
use crate::build::{workers_for, PairwiseHist};
use crate::coverage::RangeSet;
use crate::plan::{compile_predicate, PlanNode};
use crate::prepared::{AqpEngine, Prepared};
use crate::weights::{
    compute_weights, weights_from_probs, with_scratch, Probs, Scratch, WeightCtx, W_EPS,
};

/// A grouped query fans its per-group work across cores once the total
/// per-group bin work crosses this (groups × aggregation-column bins).
const PARALLEL_GROUP_WORK: usize = 4096;

/// Errors raised during approximate query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum AqpError {
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A predicate is ill-typed for its column.
    InvalidPredicate(String),
    /// Aggregating a categorical column with a numeric aggregate.
    BadAggregate(String),
    /// GROUP BY on a non-categorical column.
    BadGroupBy(String),
}

impl fmt::Display for AqpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AqpError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            AqpError::InvalidPredicate(d) => write!(f, "invalid predicate: {d}"),
            AqpError::BadAggregate(d) => write!(f, "invalid aggregate: {d}"),
            AqpError::BadGroupBy(c) => {
                write!(f, "GROUP BY requires a categorical column, got '{c}'")
            }
        }
    }
}

impl std::error::Error for AqpError {}

impl From<AqpError> for PhError {
    fn from(e: AqpError) -> Self {
        match e {
            AqpError::UnknownColumn(c) => PhError::UnknownColumn(c),
            other => PhError::InvalidQuery(other.to_string()),
        }
    }
}

/// Result of approximate execution: a bounded scalar or one bounded value per group.
#[derive(Debug, Clone, PartialEq)]
pub enum AqpAnswer {
    /// Non-grouped result; `None` mirrors SQL NULL (empty selection, COUNT excepted).
    Scalar(Option<Estimate>),
    /// Per-group results for groups with non-zero estimated weight.
    Groups(BTreeMap<String, Estimate>),
}

impl AqpAnswer {
    /// The scalar estimate, if this is a scalar answer.
    pub fn scalar(&self) -> Option<Estimate> {
        match self {
            AqpAnswer::Scalar(e) => *e,
            AqpAnswer::Groups(_) => None,
        }
    }

    /// The group map, if grouped.
    pub fn groups(&self) -> Option<&BTreeMap<String, Estimate>> {
        match self {
            AqpAnswer::Groups(g) => Some(g),
            AqpAnswer::Scalar(_) => None,
        }
    }
}

/// PairwiseHist's compiled query plan: everything [`PairwiseHist::execute`] derives
/// from the query text before touching a single histogram bin. Carried as the
/// opaque payload of a [`Prepared`], so repeated templates skip name resolution,
/// literal transformation and plan canonicalization entirely.
#[derive(Debug, Clone)]
pub(crate) struct PhPlan {
    /// Resolved aggregation column.
    agg_col: usize,
    /// Canonicalized predicate plan (§5.1–5.2), if any.
    plan: Option<PlanNode>,
    /// Table 3 "1-d" special case: all predicate columns equal the aggregation column.
    single_col: bool,
    /// Conjunctively-implied range of the aggregation column (order-statistic clamp).
    clamp: Option<RangeSet>,
    /// Resolved GROUP BY: `(group column, category count)`.
    group: Option<(usize, usize)>,
}

impl PhPlan {
    /// The leaves every satisfying row must match: the plan itself when it is
    /// one leaf, the leaf children of a top-level AND, nothing under an OR.
    pub(crate) fn conjuncts(&self) -> impl Iterator<Item = (usize, &RangeSet)> {
        let top = match &self.plan {
            Some(PlanNode::And(children)) => children.as_slice(),
            Some(leaf @ PlanNode::Leaf { .. }) => std::slice::from_ref(leaf),
            _ => &[],
        };
        top.iter().filter_map(|node| match node {
            PlanNode::Leaf { col, ranges, .. } => Some((*col, ranges)),
            _ => None,
        })
    }

    /// What [`PairwiseHist::run_plan`] answers when a conjunct has zero coverage
    /// on every bin, so every weight and both bounds come out `+0.0`: COUNT is 0
    /// with zero bounds and moments, every other aggregate is undefined, and no
    /// group clears the weight floor.
    pub(crate) fn empty_answer(&self, agg: AggFunc) -> AqpAnswer {
        match (self.group, agg) {
            (Some(_), _) => AqpAnswer::Groups(BTreeMap::new()),
            (None, AggFunc::Count) => AqpAnswer::Scalar(Some(Estimate {
                value: 0.0,
                lo: 0.0,
                hi: 0.0,
                support: 0.0,
                mean: 0.0,
            })),
            (None, _) => AqpAnswer::Scalar(None),
        }
    }
}

impl PairwiseHist {
    /// Executes an approximate query (§5). Estimates and bounds are returned in the
    /// original value domain.
    ///
    /// One-shot path: plans and runs. For repeated templates, plan once via
    /// [`AqpEngine::prepare`] and run [`PairwiseHist::execute_prepared`] — or let a
    /// `Session` do the caching.
    pub fn execute(&self, q: &Query) -> Result<AqpAnswer, AqpError> {
        let plan = self.plan_query(q)?;
        Ok(with_scratch(|scratch| self.run_plan(q.agg, &plan, scratch)))
    }

    /// Runs a plan previously prepared through the [`AqpEngine`] interface.
    ///
    /// Plans are bound to the preprocessor instance they were compiled against
    /// (they embed resolved column indices and encoded-domain literals); a plan
    /// prepared before a rebuild — or by a different synopsis — is rejected.
    pub fn execute_prepared(&self, p: &Prepared) -> Result<AqpAnswer, PhError> {
        let plan = self.checked_plan(p)?;
        Ok(with_scratch(|scratch| self.run_plan(p.query().agg, plan, scratch)))
    }

    /// The compiled plan inside `p`, once `p` is known to be this engine's: right
    /// engine name, this instance's epoch, a PairwiseHist payload. Every engine
    /// of a table version shares the epoch, so a segmented execute checks once.
    pub(crate) fn checked_plan<'p>(&self, p: &'p Prepared) -> Result<&'p PhPlan, PhError> {
        p.check_engine(ENGINE_NAME)?;
        p.check_token(self.plan_token())?;
        p.payload::<PhPlan>().ok_or_else(|| {
            PhError::InvalidQuery("prepared payload is not a PairwiseHist plan".into())
        })
    }

    /// Token identifying the synopsis instance plans are compiled against: a
    /// process-unique construction epoch (clones share it — their plans are
    /// interchangeable; a rebuild or reload never does, and epochs are never
    /// reused, so there is no pointer-ABA loophole).
    fn plan_token(&self) -> u64 {
        self.plan_epoch
    }

    /// The prepare phase: name resolution, type checks, literal transformation and
    /// plan canonicalization — everything except touching the histograms.
    pub(crate) fn plan_query(&self, q: &Query) -> Result<PhPlan, AqpError> {
        let pre = &self.pre;
        let agg_col =
            pre.column_index(&q.column).ok_or_else(|| AqpError::UnknownColumn(q.column.clone()))?;
        let numeric = pre.transform(agg_col).is_numeric();
        if !numeric && q.agg != AggFunc::Count {
            return Err(AqpError::BadAggregate(format!(
                "{} on categorical column '{}'",
                q.agg, q.column
            )));
        }

        let plan = match &q.predicate {
            Some(p) => Some(compile_predicate(p, pre)?),
            None => None,
        };
        let single_col = q.group_by.is_none()
            && plan.as_ref().is_none_or(|p| p.columns().iter().all(|&c| c == agg_col));
        let clamp = plan.as_ref().and_then(|p| conjunctive_range(p, agg_col));

        let group = match &q.group_by {
            None => None,
            Some(g) => {
                let gcol = g
                    .as_str()
                    .split_whitespace()
                    .next()
                    .and_then(|name| pre.column_index(name))
                    .ok_or_else(|| AqpError::UnknownColumn(g.clone()))?;
                let n_groups = pre
                    .transform(gcol)
                    .n_categories()
                    .ok_or_else(|| AqpError::BadGroupBy(g.clone()))?;
                Some((gcol, n_groups))
            }
        };
        Ok(PhPlan { agg_col, plan, single_col, clamp, group })
    }

    /// The execute phase: pure histogram arithmetic over a compiled plan, in the
    /// caller's scratch buffers.
    pub(crate) fn run_plan(&self, agg: AggFunc, p: &PhPlan, scratch: &mut Scratch) -> AqpAnswer {
        let mut ctx = WeightCtx::new(self, p.agg_col, scratch);
        match p.group {
            None => {
                let w = ctx.weights(p.plan.as_ref());
                let e = self.finish(agg, &w, p.agg_col, p.single_col, p.clamp.as_ref());
                ctx.recycle(w.into_probs());
                AqpAnswer::Scalar(e)
            }
            Some((gcol, n_groups)) => {
                let work = n_groups * self.hist1d(p.agg_col).k();
                let workers = if work >= PARALLEL_GROUP_WORK { workers_for(n_groups) } else { 1 };
                AqpAnswer::Groups(self.execute_groups(agg, p, gcol, n_groups, workers, &mut ctx))
            }
        }
    }

    /// Factored GROUP BY execution (the Fig 7 pipeline run once, not per group).
    ///
    /// The shared predicate's probability vector is evaluated a single time;
    /// each group then contributes only its own leaf — a point coverage on the
    /// group column, combined with the shared vector by the element-wise AND
    /// rule (Eq 25). That turns the seed's O(groups × plan) recursion into
    /// O(plan + groups), and the per-group loop itself fans out across
    /// `workers` threads, each owning a contiguous run of groups.
    ///
    /// Every group's weighting is *identical* (bit-for-bit) to recomputing
    /// `AND(plan, group-leaf)` from scratch: the AND rule is a plain product,
    /// and IEEE multiplication commutes.
    fn execute_groups(
        &self,
        agg: AggFunc,
        p: &PhPlan,
        gcol: usize,
        n_groups: usize,
        workers: usize,
        ctx: &mut WeightCtx<'_>,
    ) -> BTreeMap<String, Estimate> {
        let agg_col = p.agg_col;
        let shared: Option<Probs> = p.plan.as_ref().map(|plan| ctx.eval(plan));
        // The order-statistic clamp never involves the group column: it only
        // applies to MIN/MAX/MEDIAN, whose aggregation column is numeric while
        // the group column is categorical — so it is group-invariant, and the
        // plan's own clamp serves every group.
        let clamp = p.clamp.as_ref();

        // One group's estimate, through whichever context the calling thread owns.
        let one_group = |ctx: &mut WeightCtx<'_>, rank: usize| -> Option<(String, Estimate)> {
            let mut probs = ctx.eval_leaf(gcol, &RangeSet::point(rank as u64));
            if let Some(sh) = &shared {
                probs.and_assign(sh);
            }
            let w = weights_from_probs(self, agg_col, probs);
            // A group with no estimated satisfying rows is not in the answer.
            let e =
                if w.total() > W_EPS { self.finish(agg, &w, agg_col, false, clamp) } else { None };
            ctx.recycle(w.into_probs());
            let e = e?;
            let label = self
                .pre
                .transform(gcol)
                .category(rank)
                .expect("rank within dictionary")
                .to_string();
            Some((label, e))
        };

        if workers <= 1 {
            let out = (0..n_groups).filter_map(|rank| one_group(ctx, rank)).collect();
            // Back to the pool, or the next grouped query allocates it afresh.
            if let Some(shared) = shared {
                ctx.recycle(shared);
            }
            return out;
        }
        let chunk = n_groups.div_ceil(workers);
        let mut out = BTreeMap::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wi| {
                    let one_group = &one_group;
                    scope.spawn(move || {
                        // Each worker owns its scratch and context; the shared
                        // probability vector and clamp are read-only across threads.
                        let mut scratch = Scratch::default();
                        let mut local = WeightCtx::new(self, agg_col, &mut scratch);
                        (wi * chunk..((wi + 1) * chunk).min(n_groups))
                            .filter_map(|rank| one_group(&mut local, rank))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("group worker panicked"));
            }
        });
        out
    }

    /// Estimates the selectivity of a predicate: the fraction of table rows it
    /// selects, with bounds — the classical histogram application the paper's
    /// related-work section frames AQP around (selectivity estimation ≡ COUNT/N).
    ///
    /// Rows with NULL in the first predicate column count as not selected,
    /// mirroring the engines' COUNT semantics.
    pub fn selectivity(&self, predicate: &ph_sql::Predicate) -> Result<Estimate, AqpError> {
        let plan = compile_predicate(predicate, &self.pre)?;
        // Anchor the weighting on the first predicate column: its weights estimate
        // the satisfying-row count directly.
        let anchor = *plan.columns().first().expect("predicate has a column");
        let w = compute_weights(self, Some(&plan), anchor);
        let n = self.params().n_total.max(1) as f64;
        let rho = self.params().rho();
        let count =
            estimate(AggFunc::Count, &w, self.hist1d(anchor), rho, false, self.params().m_min)
                .expect("COUNT is always defined");
        Ok(Estimate::ordered(
            (count.value / n).clamp(0.0, 1.0),
            (count.lo / n).clamp(0.0, 1.0),
            (count.hi / n).clamp(0.0, 1.0),
        ))
    }

    /// Runs the Table 3 estimator and maps the result back to the original domain.
    ///
    /// Every estimate leaves here with its merge moments attached — what lets a
    /// segmented table combine per-segment answers (see `crate::merge`) without
    /// re-executing auxiliary aggregates. [`Estimate::support`] is O(1) beyond
    /// the aggregate itself (the COUNT totals are cached on the weighting);
    /// [`Estimate::mean`] costs real dot products, so it is only computed where
    /// a merge rule reads it — VAR parts (law of total variance) — and reused
    /// from the value for AVG.
    fn finish(
        &self,
        agg: AggFunc,
        w: &crate::weights::Weights,
        agg_col: usize,
        single_col: bool,
        clamp: Option<&RangeSet>,
    ) -> Option<Estimate> {
        let bins = self.hist1d(agg_col);
        let rho = self.params().rho();
        let m_min = self.params().m_min;
        let mut enc = estimate(agg, w, bins, rho, single_col, m_min)?;
        // Order-statistic aggregates can be sharpened with the predicate's own
        // conjunctive constraint on the aggregation column: the true MIN/MAX/MEDIAN
        // of satisfying rows necessarily lies inside that range.
        if let Some(rs) = clamp {
            if !rs.is_empty() {
                let (range_lo, range_hi) = {
                    let ivs = rs.intervals();
                    (ivs[0].0 as f64, ivs[ivs.len() - 1].1 as f64)
                };
                enc = match agg {
                    AggFunc::Min => {
                        Estimate::ordered(enc.value.max(range_lo), enc.lo.max(range_lo), enc.hi)
                    }
                    AggFunc::Max => {
                        Estimate::ordered(enc.value.min(range_hi), enc.lo, enc.hi.min(range_hi))
                    }
                    AggFunc::Median => Estimate::ordered(
                        enc.value.clamp(range_lo, range_hi),
                        enc.lo.max(range_lo),
                        enc.hi.min(range_hi),
                    ),
                    _ => enc,
                };
            }
        }
        let affine = self.pre.transform(agg_col).affine();
        // The satisfying-row count behind this estimate; its totals are cached on
        // the weighting, so this is O(1) beyond what the aggregate already paid.
        let n = estimate(AggFunc::Count, w, bins, rho, single_col, m_min)
            .expect("COUNT is always defined");
        let mut out = match (agg, affine) {
            // Counts are domain-free; categorical columns (no affine) only COUNT.
            (AggFunc::Count, _) | (_, None) => enc,
            (AggFunc::Sum, Some((a, b))) => {
                // Σ(a·x + b) = a·Σx + b·n: needs the COUNT estimate for the offset.
                let (n_for_lo, n_for_hi) = if b >= 0.0 { (n.lo, n.hi) } else { (n.hi, n.lo) };
                Estimate::ordered(
                    a * enc.value + b * n.value,
                    a * enc.lo + b * n_for_lo,
                    a * enc.hi + b * n_for_hi,
                )
            }
            (AggFunc::Var, Some((a, _))) => {
                // Var(a·x + b) = a²·Var(x).
                Estimate::ordered(a * a * enc.value, a * a * enc.lo, a * a * enc.hi)
            }
            // AVG / MIN / MAX / MEDIAN transform per-value; a > 0 keeps order.
            (_, Some((a, b))) => {
                Estimate::ordered(a * enc.value + b, a * enc.lo + b, a * enc.hi + b)
            }
        };
        out.support = n.value;
        out.mean = match (agg, affine) {
            // AVG's own value *is* the selection mean; reuse it bit-for-bit.
            (AggFunc::Avg, _) => out.value,
            // VAR is the one aggregate whose merge rule reads the part means
            // (law of total variance), so only it pays the extra dot products.
            (AggFunc::Var, Some((a, b))) => estimate(AggFunc::Avg, w, bins, rho, single_col, m_min)
                .map_or(0.0, |m| a * m.value + b),
            // Everything else: untracked (no merge rule consumes it).
            _ => 0.0,
        };
        Some(out)
    }
}

/// [`AqpEngine::name`] of PairwiseHist.
const ENGINE_NAME: &str = "pairwisehist";

impl AqpEngine for PairwiseHist {
    fn name(&self) -> &'static str {
        ENGINE_NAME
    }

    fn footprint(&self) -> usize {
        self.synopsis_size().total
    }

    fn prepare(&self, query: &Query) -> Result<Prepared, PhError> {
        let plan = self.plan_query(query)?;
        Ok(Prepared::new(ENGINE_NAME, query.clone(), Box::new(plan)).with_token(self.plan_token()))
    }

    fn execute(&self, prepared: &Prepared) -> Result<AqpAnswer, PhError> {
        self.execute_prepared(prepared)
    }
}

/// The predicate's conjunctively-implied range on `col`, if any: values of `col` in
/// satisfying rows necessarily fall in this set.
///
/// * a leaf on `col` implies its own range;
/// * an AND implies the intersection of whatever its children imply;
/// * an OR implies the union, but only if *every* branch constrains `col`.
fn conjunctive_range(plan: &PlanNode, col: usize) -> Option<RangeSet> {
    match plan {
        PlanNode::Leaf { col: c, ranges, .. } => (*c == col).then(|| ranges.clone()),
        PlanNode::And(children) => children
            .iter()
            .filter_map(|ch| conjunctive_range(ch, col))
            .reduce(|a, b| a.intersect(&b)),
        PlanNode::Or(children) => {
            let parts: Vec<RangeSet> =
                children.iter().map(|ch| conjunctive_range(ch, col)).collect::<Option<_>>()?;
            parts.into_iter().reduce(|a, b| a.union(&b))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::build::PairwiseHistConfig;
    use ph_exact::{evaluate, ExactAnswer};
    use ph_sql::parse_query;
    use ph_types::{Column, Dataset};
    use rand::{Rng, SeedableRng};

    /// Correlated dataset with skewed numerics, floats, categoricals and nulls —
    /// the distribution shapes real flight data has (right-skewed distances,
    /// correlated air time, uneven carrier shares).
    fn flights_like(n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist: Vec<Option<i64>> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                Some(69 + (u * u * 2000.0) as i64)
            })
            .collect();
        let air_time: Vec<Option<f64>> = dist
            .iter()
            .map(|d| {
                if rng.gen_bool(0.03) {
                    None
                } else {
                    Some(d.unwrap() as f64 / 8.0 + rng.gen_range(0.0..20.0))
                }
            })
            .collect();
        let delay: Vec<Option<i64>> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                Some(-10 + (u * u * 130.0) as i64)
            })
            .collect();
        let carriers = ["AA", "UA", "DL", "WN"];
        let carrier: Vec<Option<&str>> = (0..n)
            .map(|_| {
                let r: f64 = rng.gen();
                let idx = if r < 0.4 {
                    0
                } else if r < 0.7 {
                    1
                } else if r < 0.9 {
                    2
                } else {
                    3
                };
                Some(carriers[idx])
            })
            .collect();
        Dataset::builder("flights")
            .column(Column::from_ints("dist", dist))
            .unwrap()
            .column(Column::from_floats("air_time", air_time, 1))
            .unwrap()
            .column(Column::from_ints("delay", delay))
            .unwrap()
            .column(Column::from_strings("carrier", carrier))
            .unwrap()
            .build()
    }

    fn build(data: &Dataset) -> PairwiseHist {
        PairwiseHist::build(data, &PairwiseHistConfig { ns: data.n_rows(), ..Default::default() })
    }

    fn check(ph: &PairwiseHist, data: &Dataset, sql: &str, tol: f64) {
        let q = parse_query(sql).unwrap();
        let approx = ph.execute(&q).unwrap().scalar();
        let truth = evaluate(&q, data).unwrap().scalar();
        match (approx, truth) {
            (Some(a), Some(t)) => {
                let denom = t.abs().max(1.0);
                let rel = (a.value - t).abs() / denom;
                assert!(rel < tol, "{sql}: approx {} vs exact {t} (rel {rel:.4})", a.value);
            }
            (a, t) => panic!("{sql}: definedness mismatch approx={a:?} truth={t:?}"),
        }
    }

    #[test]
    fn count_sum_avg_accuracy() {
        let data = flights_like(30_000, 7);
        let ph = build(&data);
        check(&ph, &data, "SELECT COUNT(delay) FROM flights WHERE dist > 1000", 0.02);
        check(&ph, &data, "SELECT SUM(dist) FROM flights WHERE air_time > 100", 0.05);
        check(&ph, &data, "SELECT AVG(dist) FROM flights WHERE air_time > 100", 0.05);
        check(
            &ph,
            &data,
            "SELECT AVG(air_time) FROM flights WHERE dist >= 500 AND dist < 1500",
            0.05,
        );
    }

    #[test]
    fn min_max_median_var_accuracy() {
        let data = flights_like(30_000, 8);
        let ph = build(&data);
        check(&ph, &data, "SELECT MIN(dist) FROM flights WHERE dist > 500", 0.05);
        check(&ph, &data, "SELECT MAX(dist) FROM flights WHERE dist < 1500", 0.05);
        check(&ph, &data, "SELECT MEDIAN(dist) FROM flights", 0.05);
        check(&ph, &data, "SELECT VAR(dist) FROM flights", 0.10);
    }

    #[test]
    fn fig7_style_query_runs() {
        // The Fig 7 query shape: mixed AND/OR with a same-column consolidated group.
        // dist and air_time are strongly correlated, so Eq 28's conditional-
        // independence assumption overestimates here — a failure mode the paper
        // itself flags (§5.3). Assert the estimate is the right order of magnitude
        // rather than tight.
        let data = flights_like(30_000, 9);
        let ph = build(&data);
        check(
            &ph,
            &data,
            "SELECT COUNT(delay) FROM flights WHERE dist > 150 AND dist < 300 OR dist < 450 AND air_time > 30.5",
            0.80,
        );
        // The same shape on independent columns stays accurate.
        check(
            &ph,
            &data,
            "SELECT COUNT(dist) FROM flights WHERE delay > 20 AND delay < 80 OR delay < 100 AND carrier = 'AA'",
            0.10,
        );
    }

    #[test]
    fn bounds_contain_truth_for_most_queries() {
        let data = flights_like(20_000, 10);
        let ph = build(&data);
        let queries = [
            "SELECT COUNT(delay) FROM flights WHERE dist > 800",
            "SELECT SUM(dist) FROM flights WHERE dist > 800",
            "SELECT AVG(dist) FROM flights WHERE air_time < 150",
            "SELECT MEDIAN(dist) FROM flights WHERE dist < 1500",
        ];
        let mut correct = 0;
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let a = ph.execute(&q).unwrap().scalar().unwrap();
            let t = evaluate(&q, &data).unwrap().scalar().unwrap();
            if a.contains(t) {
                correct += 1;
            }
        }
        assert!(correct >= 3, "bounds should contain truth for most queries ({correct}/4)");
    }

    /// The seed's per-group recomputation, kept as the reference: build
    /// `AND(plan, group-leaf)` and run the full weighting recursion per group.
    fn group_by_naive(
        ph: &PairwiseHist,
        agg: AggFunc,
        plan: Option<&PlanNode>,
        agg_col: usize,
        gcol: usize,
        n_groups: usize,
    ) -> BTreeMap<String, Estimate> {
        let mut out = BTreeMap::new();
        for rank in 0..n_groups {
            let leaf = PlanNode::leaf(gcol, RangeSet::point(rank as u64));
            let grouped = match plan {
                Some(p) => PlanNode::And(vec![p.clone(), leaf]),
                None => leaf,
            };
            let w = crate::weights::reference::compute_weights_naive(ph, Some(&grouped), agg_col);
            if w.total() <= W_EPS {
                continue;
            }
            let clamp = conjunctive_range(&grouped, agg_col);
            if let Some(e) = ph.finish(agg, &w, agg_col, false, clamp.as_ref()) {
                let label = ph
                    .pre
                    .transform(gcol)
                    .category(rank)
                    .expect("rank within dictionary")
                    .to_string();
                out.insert(label, e);
            }
        }
        out
    }

    #[test]
    fn factored_group_by_matches_naive_recomputation_exactly() {
        let data = flights_like(25_000, 21);
        let ph = build(&data);
        let gcol = ph.pre.column_index("carrier").unwrap();
        let n_groups = ph.pre.transform(gcol).n_categories().unwrap();
        for sql in [
            "SELECT COUNT(delay) FROM flights GROUP BY carrier",
            "SELECT COUNT(delay) FROM flights WHERE dist > 500 GROUP BY carrier",
            "SELECT AVG(dist) FROM flights WHERE air_time > 100 GROUP BY carrier",
            "SELECT SUM(dist) FROM flights WHERE dist > 200 AND delay < 60 GROUP BY carrier",
            "SELECT MIN(dist) FROM flights WHERE dist > 300 OR air_time > 150 GROUP BY carrier",
            "SELECT MEDIAN(delay) FROM flights WHERE dist < 1500 GROUP BY carrier",
        ] {
            let q = parse_query(sql).unwrap();
            let agg_col = ph.pre.column_index(&q.column).unwrap();
            let plan = q.predicate.as_ref().map(|p| compile_predicate(p, &ph.pre).unwrap());
            let factored = ph.execute(&q).unwrap();
            let naive = group_by_naive(&ph, q.agg, plan.as_ref(), agg_col, gcol, n_groups);
            let AqpAnswer::Groups(factored) = factored else { panic!("expected groups") };
            assert_eq!(factored, naive, "{sql}: factored GROUP BY must be bit-identical");
        }
    }

    /// The fanned-out GROUP BY answers, bit for bit, what one thread answers.
    /// The worker counts are explicit, so the threads run even on one core.
    #[test]
    fn parallel_and_serial_group_by_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let n = 40_000;
        let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..2000))).collect();
        let y: Vec<Option<i64>> =
            x.iter().map(|v| Some(v.unwrap() / 2 + rng.gen_range(0..100))).collect();
        let names: Vec<String> = (0..n).map(|i| format!("g{:03}", i % 300)).collect();
        let g: Vec<Option<&str>> = names.iter().map(|s| Some(s.as_str())).collect();
        let data = Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .column(Column::from_strings("g", g))
            .unwrap()
            .build();
        let ph = build(&data);
        let q = parse_query("SELECT COUNT(x) FROM t WHERE y > 300 GROUP BY g").unwrap();
        let p = ph.plan_query(&q).unwrap();
        let (gcol, n_groups) = p.group.unwrap();
        let groups = |workers| {
            with_scratch(|scratch| {
                let mut ctx = WeightCtx::new(&ph, p.agg_col, scratch);
                ph.execute_groups(q.agg, &p, gcol, n_groups, workers, &mut ctx)
            })
        };
        let bits = |g: &BTreeMap<String, Estimate>| -> Vec<(String, [u64; 5])> {
            g.iter()
                .map(|(k, e)| {
                    (k.clone(), [e.value, e.lo, e.hi, e.support, e.mean].map(f64::to_bits))
                })
                .collect()
        };
        let serial = groups(1);
        assert!(serial.len() > 250, "most groups populated, got {}", serial.len());
        for workers in [2, 3] {
            assert_eq!(bits(&groups(workers)), bits(&serial), "{workers} workers");
        }
        assert_eq!(ph.execute(&q).unwrap(), AqpAnswer::Groups(serial), "the gated path");
    }

    /// Random-query corpus: the canonicalized optimized pipeline agrees with the
    /// naive reference — bit-identical where canonicalization is structure-only,
    /// and within 1e-12 of ground-truth-equivalent weights everywhere (the
    /// random corpus below only produces cross-column merges, which are exact).
    #[test]
    fn random_query_corpus_weights_match_reference() {
        use rand::{Rng, SeedableRng};
        let data = flights_like(15_000, 23);
        let ph = build(&data);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        let cols = ["dist", "air_time", "delay"];
        for case in 0..40 {
            // 1-3 range conditions joined by AND/OR over numeric columns.
            let n_conds = rng.gen_range(1..=3);
            let mut pred = String::new();
            for i in 0..n_conds {
                if i > 0 {
                    pred.push_str(if rng.gen_bool(0.5) { " AND " } else { " OR " });
                }
                let col = cols[rng.gen_range(0..cols.len())];
                let op = ["<", "<=", ">", ">="][rng.gen_range(0..4)];
                let lit = rng.gen_range(50..1800);
                pred.push_str(&format!("{col} {op} {lit}"));
            }
            let sql = format!("SELECT COUNT(delay) FROM flights WHERE {pred}");
            let q = parse_query(&sql).unwrap();
            let agg_col = ph.pre.column_index("delay").unwrap();
            let canonical = compile_predicate(q.predicate.as_ref().unwrap(), &ph.pre).unwrap();
            let raw =
                crate::plan::compile_predicate_raw(q.predicate.as_ref().unwrap(), &ph.pre).unwrap();
            let fast = compute_weights(&ph, Some(&canonical), agg_col);
            let naive_canonical =
                crate::weights::reference::compute_weights_naive(&ph, Some(&canonical), agg_col);
            assert_eq!(
                fast, naive_canonical,
                "case {case} ({sql}): optimized kernel must match reference"
            );
            // Canonicalization itself: same-column merges are exact interval
            // algebra; cross-column structure is preserved. Compare against the
            // raw (uncanonicalized) plan within 1e-12.
            let naive_raw =
                crate::weights::reference::compute_weights_naive(&ph, Some(&raw), agg_col);
            let same_col_merge_possible = {
                // When one AND/OR level sees the same column twice, merging
                // replaces the independence approximation by exact algebra and
                // weights may legitimately differ.
                fn has_dup(node: &PlanNode) -> bool {
                    match node {
                        PlanNode::Leaf { .. } => false,
                        PlanNode::And(ch) | PlanNode::Or(ch) => {
                            let mut cols = Vec::new();
                            for c in ch {
                                if let PlanNode::Leaf { col, .. } = c {
                                    if cols.contains(col) {
                                        return true;
                                    }
                                    cols.push(*col);
                                }
                            }
                            ch.iter().any(has_dup)
                        }
                    }
                }
                has_dup(&raw)
            };
            if !same_col_merge_possible {
                for t in 0..fast.w.len() {
                    assert!(
                        (fast.w[t] - naive_raw.w[t]).abs() < 1e-12
                            && (fast.lo[t] - naive_raw.lo[t]).abs() < 1e-12
                            && (fast.hi[t] - naive_raw.hi[t]).abs() < 1e-12,
                        "case {case} ({sql}): canonicalized weights diverged at bin {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_by_matches_exact_groups() {
        let data = flights_like(20_000, 11);
        let ph = build(&data);
        let q = parse_query("SELECT COUNT(delay) FROM flights WHERE dist > 500 GROUP BY carrier")
            .unwrap();
        let approx = ph.execute(&q).unwrap();
        let truth = evaluate(&q, &data).unwrap();
        let (AqpAnswer::Groups(ag), ExactAnswer::Groups(tg)) = (&approx, &truth) else {
            panic!("expected grouped answers");
        };
        assert_eq!(
            ag.keys().collect::<Vec<_>>(),
            tg.keys().collect::<Vec<_>>(),
            "same group labels"
        );
        for (label, est) in ag {
            let t = tg[label].unwrap();
            let rel = (est.value - t).abs() / t.max(1.0);
            assert!(rel < 0.05, "group {label}: {} vs {t}", est.value);
        }
    }

    #[test]
    fn float_domain_mapping_roundtrips() {
        let data = flights_like(20_000, 12);
        let ph = build(&data);
        // air_time is a float column with scale 1: estimates must come back in the
        // original units.
        check(&ph, &data, "SELECT AVG(air_time) FROM flights", 0.03);
        check(&ph, &data, "SELECT MIN(air_time) FROM flights WHERE air_time > 50.5", 0.10);
    }

    #[test]
    fn count_on_categorical_column() {
        let data = flights_like(10_000, 13);
        let ph = build(&data);
        check(&ph, &data, "SELECT COUNT(carrier) FROM flights WHERE dist > 1000", 0.05);
    }

    #[test]
    fn categorical_equality_predicates() {
        let data = flights_like(20_000, 14);
        let ph = build(&data);
        check(&ph, &data, "SELECT COUNT(delay) FROM flights WHERE carrier = 'AA'", 0.05);
        check(&ph, &data, "SELECT COUNT(delay) FROM flights WHERE carrier <> 'AA'", 0.05);
        check(
            &ph,
            &data,
            "SELECT AVG(dist) FROM flights WHERE carrier = 'UA' AND dist > 500",
            0.08,
        );
    }

    #[test]
    fn unknown_category_matches_nothing() {
        let data = flights_like(5_000, 15);
        let ph = build(&data);
        let q = parse_query("SELECT COUNT(delay) FROM flights WHERE carrier = 'ZZ'").unwrap();
        let a = ph.execute(&q).unwrap().scalar().unwrap();
        assert_eq!(a.value, 0.0);
    }

    #[test]
    fn selectivity_estimation() {
        let data = flights_like(20_000, 30);
        let ph = build(&data);
        for sql in [
            "SELECT COUNT(dist) FROM flights WHERE dist > 1000",
            "SELECT COUNT(dist) FROM flights WHERE dist > 500 AND air_time < 150",
            "SELECT COUNT(carrier) FROM flights WHERE carrier = 'AA'",
        ] {
            let q = parse_query(sql).unwrap();
            let sel = ph.selectivity(q.predicate.as_ref().unwrap()).unwrap();
            let truth = evaluate(&q, &data).unwrap().scalar().unwrap() / 20_000.0;
            assert!(
                (sel.value - truth).abs() < 0.02,
                "{sql}: selectivity {} vs {truth}",
                sel.value
            );
            assert!(sel.lo <= sel.value && sel.value <= sel.hi);
            assert!((0.0..=1.0).contains(&sel.lo) && (0.0..=1.0).contains(&sel.hi));
        }
    }

    #[test]
    fn errors_mirror_exact_engine() {
        let data = flights_like(2_000, 16);
        let ph = build(&data);
        let q = parse_query("SELECT SUM(carrier) FROM flights").unwrap();
        assert!(matches!(ph.execute(&q), Err(AqpError::BadAggregate(_))));
        let q = parse_query("SELECT COUNT(delay) FROM flights GROUP BY dist").unwrap();
        assert!(matches!(ph.execute(&q), Err(AqpError::BadGroupBy(_))));
        let q = parse_query("SELECT COUNT(nope) FROM flights").unwrap();
        assert!(matches!(ph.execute(&q), Err(AqpError::UnknownColumn(_))));
    }

    #[test]
    fn sampled_synopsis_scales_counts() {
        let data = flights_like(40_000, 17);
        let ph =
            PairwiseHist::build(&data, &PairwiseHistConfig { ns: 8_000, ..Default::default() });
        let q = parse_query("SELECT COUNT(delay) FROM flights WHERE dist > 1000").unwrap();
        let a = ph.execute(&q).unwrap().scalar().unwrap();
        let t = evaluate(&q, &data).unwrap().scalar().unwrap();
        let rel = (a.value - t).abs() / t;
        assert!(rel < 0.05, "sampled estimate {} vs {t}", a.value);
        assert!(a.lo <= t && t <= a.hi, "widened bounds should contain truth");
    }

    #[test]
    fn empty_result_semantics() {
        let data = flights_like(5_000, 18);
        let ph = build(&data);
        let q = parse_query("SELECT AVG(dist) FROM flights WHERE dist > 999999").unwrap();
        assert_eq!(ph.execute(&q).unwrap().scalar(), None);
        let q = parse_query("SELECT COUNT(dist) FROM flights WHERE dist > 999999").unwrap();
        assert_eq!(ph.execute(&q).unwrap().scalar().unwrap().value, 0.0);
    }

    #[test]
    fn works_via_gd_pipeline() {
        use ph_gd::{GdCompressor, Preprocessor};
        let data = flights_like(20_000, 19);
        let pre = Arc::new(Preprocessor::fit(&data));
        let store = GdCompressor::new().compress(&pre.encode(&data));
        let ph = PairwiseHist::build_from_gd(
            &store,
            pre,
            &PairwiseHistConfig { ns: 10_000, ..Default::default() },
        );
        let q = parse_query("SELECT AVG(dist) FROM flights WHERE air_time > 100").unwrap();
        let a = ph.execute(&q).unwrap().scalar().unwrap();
        let t = evaluate(&q, &data).unwrap().scalar().unwrap();
        let rel = (a.value - t).abs() / t;
        assert!(rel < 0.05, "GD-pipeline estimate {} vs {t}", a.value);
    }
}

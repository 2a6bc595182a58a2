//! Combining per-segment estimates into one table-level answer.
//!
//! A segmented table (see `ph_core::session`) answers a query by executing the
//! same compiled plan against every sealed segment's synopsis plus the active
//! delta's, then merging the partial [`Estimate`]s here. The merge rules, per
//! aggregate — writing `sᵢ` for part `i`'s [`Estimate::support`] (its estimated
//! satisfying-row count) and `S = Σsᵢ`:
//!
//! * **COUNT / SUM** are additive: values *and* bounds sum. If every part's
//!   bounds contain its partial truth, the summed bounds contain the total —
//!   additivity preserves the deterministic-bound guarantee exactly.
//! * **AVG** combines by weighted moments: `value = Σ sᵢ·vᵢ / S`. The CI is
//!   the support-weighted interval `[Σ sᵢ·loᵢ/S, Σ sᵢ·hiᵢ/S]` — the
//!   containment-preserving analogue of the additive rule: if every part's
//!   bounds contain its partial mean, the weighted combination contains the
//!   combined mean — widened where the per-segment variance combination
//!   `√(Σ (sᵢ·hᵢ)²)/S` (each half-width `hᵢ` treated as an independent
//!   dispersion term; segments hold disjoint rows) extends past it. The
//!   deterministic-style per-part bounds carry *systematic* error components,
//!   so quadrature alone could undercut a bound every part agrees on; taking
//!   the union keeps the guarantee while still letting the variance
//!   combination widen degenerate (zero-width-part) cases.
//! * **VARIANCE** uses the law of total variance over disjoint partitions:
//!   `Var = Σ sᵢ·(varᵢ + mᵢ²)/S − m²` with `m = Σ sᵢ·mᵢ/S` the combined mean
//!   (each part's [`Estimate::mean`] carries `mᵢ`). Bounds combine like AVG's,
//!   floored at zero — and are *approximate*, not containment-guaranteed: the
//!   between-part mean-spread term enters through `mᵢ`, which is a point
//!   estimate with no bound of its own, so its estimation error carries no
//!   width. (Tracking mean bounds per estimate would fix this at the cost of
//!   two more moments everywhere; the single-synopsis VAR bounds are already
//!   heuristic, so the merge keeps parity rather than promising more.)
//! * **MIN / MAX**: the combined extreme is the extreme of the parts, and the
//!   bound pair combines with the same `min`/`max` — if `truthᵢ ∈ [loᵢ, hiᵢ]`
//!   for every part, then `min(truthᵢ) ∈ [min loᵢ, min hiᵢ]` (dually for MAX),
//!   so containment survives the merge.
//! * **MEDIAN** has no exact decomposition over partitions; the merged value is
//!   the support-weighted median of the per-part medians and the bounds widen
//!   to the union `[min lo, max hi]` — conservative by construction.
//!
//! Merging one part returns it verbatim (bit-for-bit), so a single-segment
//! table answers exactly like a monolithic one. Every merged estimate carries
//! combined moments (`support = S`, `mean = m`), so merges compose.

use std::collections::BTreeMap;

use ph_sql::AggFunc;

use crate::aggregate::Estimate;
use crate::engine::AqpAnswer;

/// Merges per-segment answers to the same query into one table-level answer.
///
/// All parts must share the answer shape (they come from the same plan); group
/// maps are merged per label, with labels missing from a segment simply
/// contributing nothing. An empty `parts` yields an empty scalar answer.
pub fn merge_answers(agg: AggFunc, parts: Vec<AqpAnswer>) -> AqpAnswer {
    if parts.len() == 1 {
        return parts.into_iter().next().expect("one part");
    }
    let mut scalars: Vec<Estimate> = Vec::new();
    let mut grouped: BTreeMap<String, Vec<Estimate>> = BTreeMap::new();
    let mut any_groups = false;
    for part in parts {
        match part {
            AqpAnswer::Scalar(e) => scalars.extend(e),
            AqpAnswer::Groups(g) => {
                any_groups = true;
                for (label, e) in g {
                    grouped.entry(label).or_default().push(e);
                }
            }
        }
    }
    if any_groups {
        AqpAnswer::Groups(
            grouped
                .into_iter()
                .filter_map(|(label, es)| merge_estimates(agg, &es).map(|e| (label, e)))
                .collect(),
        )
    } else {
        AqpAnswer::Scalar(merge_estimates(agg, &scalars))
    }
}

/// Merges partial estimates of one aggregate over disjoint row sets.
///
/// Parts whose selection was empty are represented by their absence (a segment
/// answering `Scalar(None)` contributes nothing); `None` is returned only when
/// *every* part was empty — except COUNT, which an executor should never hand
/// in as `None` (it is always defined) but which merges to the zero-count sum
/// of whatever parts exist.
pub fn merge_estimates(agg: AggFunc, parts: &[Estimate]) -> Option<Estimate> {
    match parts {
        [] => None,
        [one] => Some(*one),
        _ => Some(match agg {
            AggFunc::Count | AggFunc::Sum => additive(parts),
            AggFunc::Avg => weighted_mean(parts),
            AggFunc::Var => pooled_variance(parts),
            AggFunc::Min => extreme(parts, f64::min),
            AggFunc::Max => extreme(parts, f64::max),
            AggFunc::Median => weighted_median(parts),
        }),
    }
}

/// The merge weight of each part: its support, or equal weights when no part
/// tracks one (a merge of supportless estimates degrades to equal weighting
/// rather than 0/0).
#[derive(Clone, Copy)]
struct Supports {
    tracked: bool,
    /// Sum of the weights.
    total: f64,
}

impl Supports {
    fn of(parts: &[Estimate]) -> Self {
        let total: f64 = parts.iter().map(|e| e.support.max(0.0)).sum();
        if total <= 0.0 {
            Self { tracked: false, total: parts.len() as f64 }
        } else {
            Self { tracked: true, total }
        }
    }

    fn weight(&self, e: &Estimate) -> f64 {
        if self.tracked {
            e.support.max(0.0)
        } else {
            1.0
        }
    }

    /// `Σ sᵢ·f(partᵢ) / S`.
    fn mean_of(&self, parts: &[Estimate], f: impl Fn(&Estimate) -> f64) -> f64 {
        parts.iter().map(|e| self.weight(e) * f(e)).sum::<f64>() / self.total
    }
}

/// Support-weighted mean of the parts' `mean` moments.
fn combined_mean(parts: &[Estimate]) -> f64 {
    Supports::of(parts).mean_of(parts, |e| e.mean)
}

fn with_moments(mut e: Estimate, support: f64, mean: f64) -> Estimate {
    e.support = support;
    e.mean = mean;
    e
}

/// COUNT / SUM: values and bounds sum; containment is preserved exactly.
fn additive(parts: &[Estimate]) -> Estimate {
    let value = parts.iter().map(|e| e.value).sum();
    let lo = parts.iter().map(|e| e.lo).sum();
    let hi = parts.iter().map(|e| e.hi).sum();
    let support: f64 = parts.iter().map(|e| e.support).sum();
    with_moments(Estimate::ordered(value, lo, hi), support, combined_mean(parts))
}

/// The independence combination of per-part CI half-widths around `value`:
/// `√(Σ (sᵢ·hᵢ)²) / S`.
fn quadrature_halfwidth(parts: &[Estimate], s: Supports) -> f64 {
    let sq: f64 = parts
        .iter()
        .map(|e| {
            let h = s.weight(e) * 0.5 * (e.hi - e.lo);
            h * h
        })
        .sum();
    sq.sqrt() / s.total
}

/// Support-weighted bounds widened by the quadrature term: the weighted
/// interval preserves per-part containment (systematic errors included); the
/// variance combination extends it where it is the wider of the two.
fn weighted_bounds(parts: &[Estimate], s: Supports, value: f64) -> (f64, f64) {
    let wlo = s.mean_of(parts, |e| e.lo);
    let whi = s.mean_of(parts, |e| e.hi);
    let h = quadrature_halfwidth(parts, s);
    (wlo.min(value - h), whi.max(value + h))
}

/// AVG: support-weighted value; containment-preserving combined CI.
fn weighted_mean(parts: &[Estimate]) -> Estimate {
    let s = Supports::of(parts);
    let value = s.mean_of(parts, |e| e.value);
    let (lo, hi) = weighted_bounds(parts, s, value);
    let support: f64 = parts.iter().map(|e| e.support).sum();
    with_moments(Estimate::ordered(value, lo, hi), support, value)
}

/// VARIANCE: law of total variance over the disjoint partition, CI like AVG's.
fn pooled_variance(parts: &[Estimate]) -> Estimate {
    let s = Supports::of(parts);
    let mean = combined_mean(parts);
    let second_moment = s.mean_of(parts, |e| e.value + e.mean * e.mean);
    let value = (second_moment - mean * mean).max(0.0);
    let (lo, hi) = weighted_bounds(parts, s, value);
    let support: f64 = parts.iter().map(|e| e.support).sum();
    with_moments(Estimate::ordered(value, lo.max(0.0), hi), support, mean)
}

/// MIN / MAX: fold value, lo and hi with the same extreme.
fn extreme(parts: &[Estimate], pick: fn(f64, f64) -> f64) -> Estimate {
    let fold = |f: fn(&Estimate) -> f64| parts.iter().map(f).reduce(pick).expect("non-empty parts");
    let support: f64 = parts.iter().map(|e| e.support).sum();
    with_moments(
        Estimate::ordered(fold(|e| e.value), fold(|e| e.lo), fold(|e| e.hi)),
        support,
        combined_mean(parts),
    )
}

/// MEDIAN: support-weighted median of part medians, union bounds.
fn weighted_median(parts: &[Estimate]) -> Estimate {
    let s = Supports::of(parts);
    // Ascending by value, ties in part order: the order a stable sort gives.
    let by_value =
        |a: &usize, b: &usize| parts[*a].value.total_cmp(&parts[*b].value).then(a.cmp(b));
    // Walked by repeated selection rather than sorted into a vector: a table
    // has a handful of segments, and this runs on the allocation-free path.
    let mut acc = 0.0;
    let mut value = f64::NAN;
    let mut taken: Option<usize> = None;
    for _ in 0..parts.len() {
        let i = (0..parts.len())
            .filter(|i| taken.is_none_or(|t| by_value(&t, i).is_lt()))
            .min_by(by_value)
            .expect("fewer parts taken than there are");
        value = parts[i].value;
        acc += s.weight(&parts[i]);
        if acc + 1e-12 >= 0.5 * s.total {
            break;
        }
        taken = Some(i);
    }
    let lo = parts.iter().map(|e| e.lo).fold(f64::INFINITY, f64::min);
    let hi = parts.iter().map(|e| e.hi).fold(f64::NEG_INFINITY, f64::max);
    let support: f64 = parts.iter().map(|e| e.support).sum();
    with_moments(Estimate::ordered(value, lo, hi), support, combined_mean(parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(value: f64, lo: f64, hi: f64, support: f64, mean: f64) -> Estimate {
        let mut e = Estimate::ordered(value, lo, hi);
        e.support = support;
        e.mean = mean;
        e
    }

    #[test]
    fn single_part_is_verbatim() {
        let e = est(10.0, 8.0, 12.0, 100.0, 3.5);
        for agg in AggFunc::ALL {
            assert_eq!(merge_estimates(agg, &[e]), Some(e), "{agg}");
        }
        let a = AqpAnswer::Scalar(Some(e));
        assert_eq!(merge_answers(AggFunc::Avg, vec![a.clone()]), a);
    }

    #[test]
    fn count_and_sum_are_additive() {
        let parts = [est(100.0, 90.0, 110.0, 100.0, 5.0), est(50.0, 45.0, 60.0, 50.0, 7.0)];
        for agg in [AggFunc::Count, AggFunc::Sum] {
            let m = merge_estimates(agg, &parts).unwrap();
            assert_eq!(m.value, 150.0);
            assert_eq!(m.lo, 135.0);
            assert_eq!(m.hi, 170.0);
            assert_eq!(m.support, 150.0);
        }
    }

    #[test]
    fn avg_is_support_weighted() {
        let parts = [est(10.0, 9.0, 11.0, 300.0, 10.0), est(20.0, 18.0, 22.0, 100.0, 20.0)];
        let m = merge_estimates(AggFunc::Avg, &parts).unwrap();
        assert!((m.value - 12.5).abs() < 1e-12, "(300·10 + 100·20)/400 = 12.5, got {}", m.value);
        // The support-weighted interval dominates the quadrature term here:
        // [ (300·9 + 100·18)/400, (300·11 + 100·22)/400 ] = [11.25, 13.75].
        assert!((m.lo - 11.25).abs() < 1e-12, "got lo {}", m.lo);
        assert!((m.hi - 13.75).abs() < 1e-12, "got hi {}", m.hi);
        assert_eq!(m.support, 400.0);
        assert_eq!(m.mean, m.value);
    }

    /// The containment property the weighted interval exists for: if every
    /// part's bounds contain its partial mean — even with the *same systematic
    /// bias* (all truths at the hi bound) — the merged bounds contain the
    /// combined mean. Pure quadrature would fail this.
    #[test]
    fn avg_bounds_survive_systematic_per_part_error() {
        // True partial means both sit at hi = value + 1.
        let parts = [est(10.0, 9.0, 11.0, 100.0, 10.0), est(12.0, 11.0, 13.0, 100.0, 12.0)];
        let m = merge_estimates(AggFunc::Avg, &parts).unwrap();
        let combined_truth = (100.0 * 11.0 + 100.0 * 13.0) / 200.0; // 12.0
        assert!(
            m.lo <= combined_truth && combined_truth <= m.hi,
            "weighted bounds must contain the worst-case combined mean: \
             [{}, {}] vs {combined_truth}",
            m.lo,
            m.hi
        );
        // And the quadrature term still widens degenerate zero-width parts.
        let degenerate = [est(10.0, 9.5, 10.5, 100.0, 10.0), est(10.0, 10.0, 10.0, 100.0, 10.0)];
        let d = merge_estimates(AggFunc::Avg, &degenerate).unwrap();
        assert!(d.lo < 10.0 && d.hi > 10.0, "[{}, {}]", d.lo, d.hi);
    }

    #[test]
    fn var_merges_by_law_of_total_variance() {
        // Two parts with equal counts, means 0 and 10, each variance 4:
        // combined mean 5, combined var = (4 + 0 + 4 + 100)/2 − 25 = 29.
        let parts = [est(4.0, 4.0, 4.0, 50.0, 0.0), est(4.0, 4.0, 4.0, 50.0, 10.0)];
        let m = merge_estimates(AggFunc::Var, &parts).unwrap();
        assert!((m.value - 29.0).abs() < 1e-12, "got {}", m.value);
        assert!((m.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_fold_bounds_with_the_extreme() {
        let parts = [est(5.0, 3.0, 7.0, 10.0, 5.0), est(8.0, 6.0, 9.0, 10.0, 8.0)];
        let mn = merge_estimates(AggFunc::Min, &parts).unwrap();
        assert_eq!((mn.value, mn.lo, mn.hi), (5.0, 3.0, 7.0));
        let mx = merge_estimates(AggFunc::Max, &parts).unwrap();
        assert_eq!((mx.value, mx.lo, mx.hi), (8.0, 6.0, 9.0));
    }

    #[test]
    fn median_picks_weighted_part_and_unions_bounds() {
        let parts = [
            est(1.0, 0.0, 2.0, 10.0, 1.0),
            est(5.0, 4.0, 6.0, 80.0, 5.0),
            est(9.0, 8.0, 10.0, 10.0, 9.0),
        ];
        let m = merge_estimates(AggFunc::Median, &parts).unwrap();
        assert_eq!(m.value, 5.0, "the dominant part holds the weighted median");
        assert_eq!((m.lo, m.hi), (0.0, 10.0), "bounds union conservatively");
    }

    #[test]
    fn group_maps_merge_per_label() {
        let mut g1 = BTreeMap::new();
        g1.insert("a".to_string(), est(10.0, 9.0, 11.0, 10.0, 0.0));
        g1.insert("b".to_string(), est(5.0, 5.0, 5.0, 5.0, 0.0));
        let mut g2 = BTreeMap::new();
        g2.insert("a".to_string(), est(20.0, 19.0, 21.0, 20.0, 0.0));
        g2.insert("c".to_string(), est(7.0, 7.0, 7.0, 7.0, 0.0));
        let merged =
            merge_answers(AggFunc::Count, vec![AqpAnswer::Groups(g1), AqpAnswer::Groups(g2)]);
        let groups = merged.groups().expect("grouped answer");
        assert_eq!(groups["a"].value, 30.0, "shared label sums");
        assert_eq!(groups["b"].value, 5.0, "label in one part passes through");
        assert_eq!(groups["c"].value, 7.0);
    }

    #[test]
    fn empty_and_none_parts_degrade_cleanly() {
        assert_eq!(merge_estimates(AggFunc::Avg, &[]), None);
        let merged =
            merge_answers(AggFunc::Avg, vec![AqpAnswer::Scalar(None), AqpAnswer::Scalar(None)]);
        assert_eq!(merged, AqpAnswer::Scalar(None), "all-empty selections stay NULL");
        let one = est(3.0, 2.0, 4.0, 9.0, 3.0);
        let merged = merge_answers(
            AggFunc::Avg,
            vec![AqpAnswer::Scalar(None), AqpAnswer::Scalar(Some(one))],
        );
        assert_eq!(merged, AqpAnswer::Scalar(Some(one)), "empty parts contribute nothing");
    }

    #[test]
    fn untracked_support_falls_back_to_equal_weights() {
        let parts = [Estimate::unbounded(10.0), Estimate::unbounded(20.0)];
        let m = merge_estimates(AggFunc::Avg, &parts).unwrap();
        assert!((m.value - 15.0).abs() < 1e-12);
    }
}

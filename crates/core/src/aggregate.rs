//! Aggregation estimators and bounds (§5.4, Table 3), computed in the encoded domain.
//!
//! All estimators are small dot products over the aggregation column's 1-d bins:
//! weightings `w` (with bounds `w⁻`, `w⁺`) from `crate::weights`, bin midpoints `c`
//! and weighted-centre bounds `c⁻`, `c⁺` from the bin metadata. The engine converts
//! results back to the original value domain afterwards.

use ph_sql::AggFunc;
use ph_stats::terrell_scott;

use crate::bins::DimBins;
use crate::weights::{Weights, W_EPS};

/// An approximate result with deterministic-style bounds `[lo, hi]`, plus the
/// selection moments that make estimates **mergeable** across table segments.
///
/// Segmented tables (see `ph_core::merge`) answer a query by fanning it out over
/// per-segment synopses and combining the partial estimates. Additive aggregates
/// (COUNT, SUM) combine from `value` alone, but AVG needs each part's satisfying
/// row count and VARIANCE needs the count *and* the mean — so every estimate
/// carries [`support`](Estimate::support) (the estimated number of satisfying
/// rows behind it) and [`mean`](Estimate::mean) (the estimated mean of the
/// aggregation column over those rows, in the original value domain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate.
    pub value: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Estimated number of rows satisfying the selection this estimate is over
    /// (the merge weight). `0.0` when the producing engine does not track it.
    pub support: f64,
    /// Estimated mean of the aggregation column over the satisfying rows, in
    /// the original value domain. Needed to combine VARIANCE estimates via the
    /// law of total variance, so it is populated on AVG estimates (where it
    /// equals `value`) and VAR estimates; `0.0` elsewhere (untracked — no
    /// merge rule reads it).
    pub mean: f64,
}

impl Estimate {
    /// Builds an estimate, re-ordering so that `lo ≤ value ≤ hi` always holds.
    /// Merge moments default to "untracked" (`support = 0`, `mean = value`);
    /// producers that know them attach them afterwards.
    pub(crate) fn ordered(value: f64, lo: f64, hi: f64) -> Self {
        Self { value, lo: lo.min(value), hi: hi.max(value), support: 0.0, mean: value }
    }

    /// A point estimate with no spread (`lo == value == hi`) — engines that provide
    /// no bounds (sample extremes, DBEst-style models, the exact engine) return
    /// these.
    pub fn unbounded(value: f64) -> Self {
        Self { value, lo: value, hi: value, support: 0.0, mean: value }
    }

    /// A bounded estimate with untracked merge moments, for engines outside this
    /// crate (the baselines). Bounds are re-ordered so `lo ≤ value ≤ hi` holds.
    pub fn with_bounds(value: f64, lo: f64, hi: f64) -> Self {
        Self::ordered(value, lo, hi)
    }

    /// Bound width relative to the estimate (the Table 6 "width" metric).
    pub fn rel_width(&self) -> f64 {
        if self.value.abs() < f64::EPSILON {
            self.hi - self.lo
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }

    /// Whether `truth` lies within the bounds (the Table 6 "correct rate" metric).
    pub fn contains(&self, truth: f64) -> bool {
        self.lo <= truth && truth <= self.hi
    }
}

/// Evaluates one aggregate in the encoded domain.
///
/// `rho` is the sampling ratio `ρ = Ns/N`; `single_col` marks queries whose
/// aggregation and predicate columns coincide (Table 3's "1-d" special cases);
/// `m_min` is the construction parameter `M`.
///
/// Returns `None` when the selection is empty and the aggregate undefined (COUNT is
/// always defined).
pub(crate) fn estimate(
    agg: AggFunc,
    w: &Weights,
    bins: &DimBins,
    rho: f64,
    single_col: bool,
    m_min: usize,
) -> Option<Estimate> {
    match agg {
        AggFunc::Count => Some(count(w, rho)),
        AggFunc::Sum => defined(w).then(|| sum(w, bins, rho)),
        AggFunc::Avg => defined(w).then(|| avg(w, bins)),
        AggFunc::Min => min_max(w, bins, single_col, m_min, false),
        AggFunc::Max => min_max(w, bins, single_col, m_min, true),
        AggFunc::Median => defined(w).then(|| median(w, bins)),
        AggFunc::Var => defined(w).then(|| var(w, bins)),
    }
}

fn defined(w: &Weights) -> bool {
    w.total() > W_EPS
}

/// `COUNT = ‖w‖₁ / ρ` (§5.4.1). All three totals are cached on the weighting.
fn count(w: &Weights, rho: f64) -> Estimate {
    Estimate::ordered(w.total() / rho, w.total_lo() / rho, w.total_hi() / rho)
}

/// `SUM = w · c / ρ` (§5.4.2).
fn sum(w: &Weights, bins: &DimBins, rho: f64) -> Estimate {
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    Estimate::ordered(
        dot(&w.w, &bins.mid) / rho,
        dot(&w.lo, &bins.c_lo) / rho,
        dot(&w.hi, &bins.c_hi) / rho,
    )
}

/// `AVG = w · c / ‖w‖₁`; bounds evaluate both weighting extrema (§5.4.3).
/// Totals come pre-computed from the weighting.
fn avg(w: &Weights, bins: &DimBins) -> Estimate {
    let weighted_mean = |wv: &[f64], total: f64, c: &[f64]| -> Option<f64> {
        (total > W_EPS).then(|| wv.iter().zip(c).map(|(x, y)| x * y).sum::<f64>() / total)
    };
    let value = weighted_mean(&w.w, w.total(), &bins.mid).expect("caller checked non-empty");
    let mut lo = value;
    let mut hi = value;
    for (wv, total) in [(&w.lo, w.total_lo()), (&w.hi, w.total_hi())] {
        if let Some(m) = weighted_mean(wv, total, &bins.c_lo) {
            lo = lo.min(m);
        }
        if let Some(m) = weighted_mean(wv, total, &bins.c_hi) {
            hi = hi.max(m);
        }
    }
    Estimate::ordered(value, lo, hi)
}

/// MIN and MAX (§5.4.4–5.4.5). `reverse = true` evaluates MAX by mirroring the bin
/// scan direction and the roles of `v⁻`/`v⁺`.
fn min_max(
    w: &Weights,
    bins: &DimBins,
    single_col: bool,
    m_min: usize,
    reverse: bool,
) -> Option<Estimate> {
    let k = bins.k();
    // First bin, in scan order, whose weight exceeds the threshold.
    let first = |v: &[f64], thresh: f64| -> Option<usize> {
        if reverse {
            v.iter().rposition(|&x| x > thresh)
        } else {
            v.iter().position(|&x| x > thresh)
        }
    };
    // Inner/outer extremes swap between MIN and MAX.
    let near = |t: usize| if reverse { bins.vmax[t] } else { bins.vmin[t] };
    let far = |t: usize| if reverse { bins.vmin[t] } else { bins.vmax[t] };

    // Estimate (Eq 30 / Eq 33 with the u = 2 special case).
    let t_est = first(&w.w, W_EPS)?;
    let value =
        if single_col && bins.uniq[t_est] == 2 && w.w[t_est] < bins.counts[t_est] as f64 / 2.0 {
            far(t_est) as f64
        } else {
            near(t_est) as f64
        };

    // Outer bound (MIN's lower / MAX's upper): first bin that *could* hold weight
    // (Eq 31), with Table 3's u = 2 low-weight refinement.
    let outer = match first(&w.hi, W_EPS) {
        Some(t) => {
            if single_col && bins.uniq[t] == 2 && w.hi[t] < bins.counts[t] as f64 / 5.0 {
                far(t) as f64
            } else {
                near(t) as f64
            }
        }
        None => value,
    };

    // Inner bound (MIN's upper / MAX's lower): first bin confidently non-empty
    // (Eq 32, threshold ½), tightened by fully-covered sub-bins when the bin passed
    // the uniformity test (§5.4.4 last paragraph).
    let inner = match first(&w.lo, 0.5) {
        Some(t) => {
            let mut v = far(t) as f64;
            if single_col && bins.uniq[t] > 2 && bins.counts[t] as usize > m_min {
                let s = terrell_scott(bins.uniq[t] as usize) as f64;
                let delta = bins.width(t) / s;
                let a = (s * w.lo[t] / bins.counts[t] as f64).floor();
                if reverse {
                    v = (bins.vmin[t] as f64 + a * delta).min(far(t) as f64);
                } else {
                    v = (bins.vmax[t] as f64 - a * delta).max(bins.vmin[t] as f64);
                }
            }
            v
        }
        // No bin is confidently non-empty: fall back to the farthest possible
        // location among bins that could hold weight.
        None => {
            let fallback = if reverse { first(&w.hi, W_EPS) } else { last(&w.hi, W_EPS, k) };
            match (reverse, fallback.or(Some(t_est))) {
                (false, Some(t)) => bins.vmax[t] as f64,
                (true, Some(t)) => bins.vmin[t] as f64,
                _ => value,
            }
        }
    };

    let (lo, hi) = if reverse { (inner, outer) } else { (outer, inner) };
    Some(Estimate::ordered(value, lo, hi))
}

fn last(v: &[f64], thresh: f64, k: usize) -> Option<usize> {
    (0..k).rev().find(|&t| v[t] > thresh)
}

/// MEDIAN (§5.4.6, Eq 34–37).
fn median(w: &Weights, bins: &DimBins) -> Estimate {
    let t_star = median_bin_with_total(&w.w, w.total()).expect("caller checked non-empty");
    let total = w.total();
    let before: f64 = w.w[..t_star].iter().sum();
    let f = ((0.5 * total - before) / w.w[t_star]).clamp(0.0, 1.0);
    let value = if bins.uniq[t_star] == 2 {
        if f < 0.5 {
            bins.vmin[t_star] as f64
        } else {
            bins.vmax[t_star] as f64
        }
    } else {
        bins.vmin[t_star] as f64 + bins.width(t_star) * f
    };
    // Bounds: the earliest and latest bins that could contain the median over both
    // weighting extrema (Eq 36-37).
    let mut t_lo = t_star;
    let mut t_hi = t_star;
    for (wv, total) in [(&w.lo, w.total_lo()), (&w.hi, w.total_hi())] {
        if let Some(t) = median_bin_with_total(wv, total) {
            t_lo = t_lo.min(t);
            t_hi = t_hi.max(t);
        }
    }
    Estimate::ordered(value, bins.vmin[t_lo] as f64, bins.vmax[t_hi] as f64)
}

/// First index where the cumulative weight reaches half the (pre-computed) total.
fn median_bin_with_total(w: &[f64], total: f64) -> Option<usize> {
    if total <= W_EPS {
        return None;
    }
    let half = 0.5 * total;
    let mut cum = 0.0;
    for (t, &x) in w.iter().enumerate() {
        cum += x;
        if cum >= half {
            return Some(t);
        }
    }
    Some(w.len() - 1)
}

/// VAR (§5.4.7, Eq 38–39).
fn var(w: &Weights, bins: &DimBins) -> Estimate {
    /// Second central moment of the per-bin locations `x(t)` under weights `wv`.
    fn moments(wv: &[f64], total: f64, x: impl Fn(usize) -> f64) -> Option<f64> {
        if total <= W_EPS {
            return None;
        }
        let m1 = wv.iter().enumerate().map(|(t, a)| a * x(t)).sum::<f64>() / total;
        let m2 = wv.iter().enumerate().map(|(t, a)| a * x(t) * x(t)).sum::<f64>() / total;
        Some((m2 - m1 * m1).max(0.0))
    }
    let value = moments(&w.w, w.total(), |t| bins.mid[t]).expect("caller checked non-empty");
    let avg_est = w.w.iter().zip(&bins.mid).map(|(a, b)| a * b).sum::<f64>() / w.total();
    // ξ⁻: each bin's points as close to the mean as possible; ξ⁺: as far as possible.
    let xi_lo = |t: usize| {
        let (vlo, vhi) = (bins.vmin[t] as f64, bins.vmax[t] as f64);
        if vhi < avg_est {
            vhi
        } else if vlo > avg_est {
            vlo
        } else {
            avg_est
        }
    };
    let xi_hi = |t: usize| {
        let (vlo, vhi) = (bins.vmin[t] as f64, bins.vmax[t] as f64);
        if (avg_est - vlo).abs() > (vhi - avg_est).abs() {
            vlo
        } else {
            vhi
        }
    };
    let mut lo = value;
    let mut hi = value;
    for (wv, total) in [(&w.lo, w.total_lo()), (&w.hi, w.total_hi())] {
        if let Some(v) = moments(wv, total, xi_lo) {
            lo = lo.min(v);
        }
        if let Some(v) = moments(wv, total, xi_hi) {
            hi = hi.max(v);
        }
    }
    Estimate::ordered(value, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_stats::Chi2Cache;

    /// Two bins: [0..9] x100 points u=10, [10..19] x300 points u=10.
    fn bins() -> DimBins {
        let mut chi2 = Chi2Cache::new(0.001);
        DimBins::finalize(
            vec![-0.5, 9.5, 19.5],
            vec![0, 10],
            vec![9, 19],
            vec![10, 10],
            vec![100, 300],
            50,
            &mut chi2,
        )
    }

    fn uniform_weights(bins: &DimBins) -> Weights {
        let w: Vec<f64> = bins.counts.iter().map(|&c| c as f64).collect();
        Weights::new(w.clone(), w.clone(), w)
    }

    #[test]
    fn count_scales_by_rho() {
        let b = bins();
        let w = uniform_weights(&b);
        let e = estimate(AggFunc::Count, &w, &b, 0.1, false, 50).unwrap();
        assert_eq!(e.value, 4000.0);
        assert_eq!(e.lo, 4000.0);
    }

    #[test]
    fn sum_and_avg_use_midpoints() {
        let b = bins();
        let w = uniform_weights(&b);
        // mid = [4.5, 14.5]; SUM = 100*4.5 + 300*14.5 = 4800.
        let e = estimate(AggFunc::Sum, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(e.value, 4800.0);
        let a = estimate(AggFunc::Avg, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(a.value, 12.0);
        assert!(a.lo <= a.value && a.value <= a.hi);
    }

    #[test]
    fn min_max_pick_extreme_bins() {
        let b = bins();
        let w = uniform_weights(&b);
        let mn = estimate(AggFunc::Min, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(mn.value, 0.0);
        let mx = estimate(AggFunc::Max, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(mx.value, 19.0);
        assert!(mn.lo <= mn.value && mn.value <= mn.hi);
        assert!(mx.lo <= mx.value && mx.value <= mx.hi);
    }

    #[test]
    fn min_skips_zero_weight_bins() {
        let b = bins();
        let w = Weights::new(vec![0.0, 300.0], vec![0.0, 280.0], vec![0.0, 300.0]);
        let mn = estimate(AggFunc::Min, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(mn.value, 10.0);
    }

    #[test]
    fn median_interpolates() {
        let b = bins();
        let w = uniform_weights(&b);
        // total 400, half 200; first bin cum 100 < 200, second bin f = 100/300.
        let e = estimate(AggFunc::Median, &w, &b, 1.0, false, 50).unwrap();
        let expect = 10.0 + 9.0 * (100.0 / 300.0);
        assert!((e.value - expect).abs() < 1e-12);
        assert!(e.lo <= e.value && e.value <= e.hi);
    }

    #[test]
    fn var_nonnegative_and_bracketed() {
        let b = bins();
        let w = uniform_weights(&b);
        let e = estimate(AggFunc::Var, &w, &b, 1.0, false, 50).unwrap();
        assert!(e.value >= 0.0);
        assert!(e.lo <= e.value && e.value <= e.hi);
        assert!(e.lo >= 0.0);
    }

    #[test]
    fn empty_selection_none_except_count() {
        let b = bins();
        let w = Weights::new(vec![0.0, 0.0], vec![0.0, 0.0], vec![0.0, 0.0]);
        assert!(estimate(AggFunc::Sum, &w, &b, 1.0, false, 50).is_none());
        assert!(estimate(AggFunc::Avg, &w, &b, 1.0, false, 50).is_none());
        assert!(estimate(AggFunc::Min, &w, &b, 1.0, false, 50).is_none());
        let c = estimate(AggFunc::Count, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(c.value, 0.0);
    }

    #[test]
    fn u2_special_case_for_min() {
        let mut chi2 = Chi2Cache::new(0.001);
        // Single bin with only two unique values 0 and 9; low coverage weight.
        let b =
            DimBins::finalize(vec![-0.5, 9.5], vec![0], vec![9], vec![2], vec![100], 50, &mut chi2);
        let w = Weights::new(vec![10.0], vec![5.0], vec![15.0]);
        // Single-column query, w < h/2: estimate should flip to vmax.
        let e = estimate(AggFunc::Min, &w, &b, 1.0, true, 50).unwrap();
        assert_eq!(e.value, 9.0);
        // Multi-column query keeps vmin.
        let e2 = estimate(AggFunc::Min, &w, &b, 1.0, false, 50).unwrap();
        assert_eq!(e2.value, 0.0);
    }
}

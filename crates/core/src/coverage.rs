//! Predicate coverage (§5.2): interval-set algebra over the encoded integer domain
//! plus the per-bin coverage estimates (Eq 14–16) and bounds (Theorem 2, Eq 22–23).
//!
//! Because GreedyGD pre-processing maps every column to non-negative integers,
//! every condition — and every AND/OR combination of *same-column* conditions formed
//! by delayed transformation — normalises to a union of disjoint closed integer
//! intervals. Interval algebra is exact, so consolidation never loses precision.

use ph_gd::EncodedLiteral;
use ph_sql::CmpOp;
use ph_stats::terrell_scott;

use crate::bins::BinMeta;

/// A union of disjoint, sorted, closed integer intervals `[lo, hi]` over the encoded
/// domain of one column.
///
/// Equality is structural and canonical (the interval list is always normalised:
/// sorted, disjoint, non-adjacent), which is what the planner compares by when
/// it looks for leaves a plan repeats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSet {
    ivs: Vec<(u64, u64)>,
}

impl RangeSet {
    /// The empty set (matches no value).
    pub fn empty() -> Self {
        Self { ivs: Vec::new() }
    }

    /// The full domain `[0, max]`.
    pub fn full(max: u64) -> Self {
        Self { ivs: vec![(0, max)] }
    }

    /// A single point.
    pub fn point(v: u64) -> Self {
        Self { ivs: vec![(v, v)] }
    }

    /// A single closed interval; empty if `lo > hi`.
    pub fn interval(lo: u64, hi: u64) -> Self {
        if lo > hi {
            Self::empty()
        } else {
            Self { ivs: vec![(lo, hi)] }
        }
    }

    /// Builds the range set for one condition `x OP literal` over a column whose
    /// encoded domain is `[0, max]` (§5.1 literal transformation already applied).
    pub fn from_condition(op: CmpOp, lit: EncodedLiteral, max: u64) -> Self {
        match lit {
            EncodedLiteral::NoMatch => match op {
                // '=' to an unknown category matches nothing; '<>' matches all
                // non-null values.
                CmpOp::Eq => Self::empty(),
                CmpOp::Ne => Self::full(max),
                _ => Self::empty(),
            },
            EncodedLiteral::Rank(r) => Self::from_numeric(op, r as f64, max),
            EncodedLiteral::Num(x) => Self::from_numeric(op, x, max),
        }
    }

    /// Range for a numeric comparison; the literal may be fractional (a float
    /// literal with more precision than the column scale).
    fn from_numeric(op: CmpOp, x: f64, max: u64) -> Self {
        let clamp = |v: f64| -> Option<u64> {
            if v < 0.0 {
                None
            } else {
                Some((v as u64).min(max))
            }
        };
        match op {
            CmpOp::Lt => {
                // v < x ⟺ v ≤ x-1 for integer x, v ≤ ⌊x⌋ otherwise.
                let hi = if x.fract() == 0.0 { x - 1.0 } else { x.floor() };
                match clamp(hi) {
                    Some(h) if hi >= 0.0 => Self::interval(0, h),
                    _ => Self::empty(),
                }
            }
            CmpOp::Le => match clamp(x.floor()) {
                Some(h) if x >= 0.0 => Self::interval(0, h),
                _ => Self::empty(),
            },
            CmpOp::Gt => {
                let lo = (x.floor() + 1.0).max(0.0);
                if lo > max as f64 {
                    Self::empty()
                } else {
                    Self::interval(lo as u64, max)
                }
            }
            CmpOp::Ge => {
                let lo = x.ceil().max(0.0);
                if lo > max as f64 {
                    Self::empty()
                } else {
                    Self::interval(lo as u64, max)
                }
            }
            CmpOp::Eq => {
                if x.fract() == 0.0 && x >= 0.0 && x <= max as f64 {
                    Self::point(x as u64)
                } else {
                    Self::empty()
                }
            }
            CmpOp::Ne => Self::from_numeric(CmpOp::Eq, x, max).complement(max),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: u64) -> bool {
        self.ivs
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Index of the first interval ending at or after `v` — the only one that can
    /// contain `v`, and where any scan of `[v, …]` starts (intervals are sorted
    /// and disjoint, so their ends ascend too).
    fn first_ending_at_or_after(&self, v: u64) -> usize {
        self.ivs.partition_point(|&(_, b)| b < v)
    }

    /// Whether the set fully covers `[lo, hi]`.
    pub fn covers(&self, lo: u64, hi: u64) -> bool {
        match self.ivs.get(self.first_ending_at_or_after(lo)) {
            Some(&(a, b)) => a <= lo && b >= hi,
            None => false,
        }
    }

    /// Set intersection (AND of same-column conditions; delayed transformation).
    pub fn intersect(&self, other: &RangeSet) -> RangeSet {
        let mut out = Vec::new();
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.ivs.len() && b < other.ivs.len() {
            let (alo, ahi) = self.ivs[a];
            let (blo, bhi) = other.ivs[b];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                a += 1;
            } else {
                b += 1;
            }
        }
        RangeSet { ivs: out }
    }

    /// Set union (OR of same-column conditions).
    pub fn union(&self, other: &RangeSet) -> RangeSet {
        let mut all: Vec<(u64, u64)> = self.ivs.iter().chain(&other.ivs).copied().collect();
        all.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(all.len());
        for (lo, hi) in all {
            match out.last_mut() {
                // Merge overlapping or adjacent intervals ([0,3] and [4,9] touch in
                // the integer domain).
                Some((_, phi)) if lo <= phi.saturating_add(1) => *phi = (*phi).max(hi),
                _ => out.push((lo, hi)),
            }
        }
        RangeSet { ivs: out }
    }

    /// Complement within `[0, max]`.
    pub fn complement(&self, max: u64) -> RangeSet {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for &(lo, hi) in &self.ivs {
            if lo > cursor {
                out.push((cursor, lo - 1));
            }
            cursor = match hi.checked_add(1) {
                Some(c) => c,
                None => return RangeSet { ivs: out },
            };
            if cursor > max {
                return RangeSet { ivs: out };
            }
        }
        if cursor <= max {
            out.push((cursor, max));
        }
        RangeSet { ivs: out }
    }

    /// Intervals clipped to `[lo, hi]`: a binary search for the first overlap,
    /// then only the overlapping run is visited.
    pub fn clip(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ivs[self.first_ending_at_or_after(lo)..]
            .iter()
            .take_while(move |&&(a, _)| a <= hi)
            .map(move |&(a, b)| (a.max(lo), b.min(hi)))
    }

    /// The raw intervals (sorted, disjoint).
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.ivs
    }
}

/// Per-bin coverage `β_t` for one condition group (Eq 15–16 generalised to interval
/// sets).
///
/// * point intervals inside the bin contribute `1/u` (Eq 15);
/// * wider intervals contribute the fraction of the bin width `Δ = v⁺ − v⁻` they
///   overlap (Eq 16's `f_t`);
/// * the `u = 2` special case uses the half-credit rule;
/// * the total is capped at 1.
///
/// `h` is the bin's count and `meta` its value metadata.
pub fn bin_coverage(h: u64, meta: BinMeta, rs: &RangeSet) -> f64 {
    if h == 0 {
        return 0.0;
    }
    let BinMeta { vmin, vmax, uniq: u } = meta;
    if u <= 1 {
        return if rs.contains(vmin) { 1.0 } else { 0.0 };
    }
    if u == 2 {
        return 0.5 * (rs.contains(vmin) as u8 + rs.contains(vmax) as u8) as f64;
    }
    if rs.covers(vmin, vmax) {
        return 1.0;
    }
    // Dense integer bins (every slot between the extremes holds a distinct value —
    // the normal case for categorical ranks and small integer domains): value
    // counting is exact under per-value uniformity and strictly sharper than the
    // continuous width fraction. Detectable from stored metadata alone.
    if u as u64 == vmax - vmin + 1 {
        let covered: u64 = rs.clip(vmin, vmax).map(|(lo, hi)| hi - lo + 1).sum();
        return (covered as f64 / u as f64).min(1.0);
    }
    let width = (vmax - vmin) as f64;
    let mut frac = 0.0;
    for (lo, hi) in rs.clip(vmin, vmax) {
        if lo == hi {
            frac += 1.0 / u as f64;
        } else {
            frac += (hi - lo) as f64 / width;
        }
    }
    frac.min(1.0)
}

/// Coverage bounds `β⁻, β⁺` for one bin (Eq 22–23).
///
/// `crit` maps degrees of freedom to `χ²_α`.
pub fn coverage_bounds(
    beta: f64,
    h: u64,
    u: u32,
    m_min: usize,
    crit: impl Fn(usize) -> f64,
) -> (f64, f64) {
    if beta <= 0.0 {
        return (0.0, 0.0);
    }
    if beta >= 1.0 {
        return (1.0, 1.0);
    }
    let hf = h as f64;
    if (h as usize) < m_min {
        // Non-passing bins: anywhere from one point to all but one point.
        return ((1.0 / hf).min(beta), (1.0 - 1.0 / hf).max(beta));
    }
    let s = terrell_scott(u as usize) as f64;
    let chi = crit(s as usize - 1);
    let a = (beta * s).floor();
    let b = (beta * s).ceil();
    let lo = if a <= 0.0 { 0.0 } else { (a / s) - (a / s) * (chi * (s - a) / (hf * a)).sqrt() };
    let hi = if b >= s { 1.0 } else { (b / s) + (b / s) * (chi * (s - b) / (hf * b)).sqrt() };
    (lo.clamp(0.0, beta), hi.clamp(beta, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_stats::chi2_critical;
    use proptest::prelude::*;

    fn rs(ivs: &[(u64, u64)]) -> RangeSet {
        let mut out = RangeSet::empty();
        for &(a, b) in ivs {
            out = out.union(&RangeSet::interval(a, b));
        }
        out
    }

    #[test]
    fn condition_ranges_integer_literals() {
        let max = 100;
        assert_eq!(
            RangeSet::from_condition(CmpOp::Gt, EncodedLiteral::Num(81.0), max),
            RangeSet::interval(82, 100)
        );
        assert_eq!(
            RangeSet::from_condition(CmpOp::Ge, EncodedLiteral::Num(81.0), max),
            RangeSet::interval(81, 100)
        );
        assert_eq!(
            RangeSet::from_condition(CmpOp::Lt, EncodedLiteral::Num(81.0), max),
            RangeSet::interval(0, 80)
        );
        assert_eq!(
            RangeSet::from_condition(CmpOp::Le, EncodedLiteral::Num(81.0), max),
            RangeSet::interval(0, 81)
        );
        assert_eq!(
            RangeSet::from_condition(CmpOp::Eq, EncodedLiteral::Num(81.0), max),
            RangeSet::point(81)
        );
        let ne = RangeSet::from_condition(CmpOp::Ne, EncodedLiteral::Num(81.0), max);
        assert!(!ne.contains(81) && ne.contains(80) && ne.contains(100));
    }

    #[test]
    fn condition_ranges_fractional_literals() {
        let max = 1000;
        // x > 630.5 -> v >= 631 (Fig 7's air_time example shape).
        assert_eq!(
            RangeSet::from_condition(CmpOp::Gt, EncodedLiteral::Num(630.5), max),
            RangeSet::interval(631, 1000)
        );
        assert_eq!(
            RangeSet::from_condition(CmpOp::Lt, EncodedLiteral::Num(630.5), max),
            RangeSet::interval(0, 630)
        );
        // Equality to a non-representable fraction matches nothing.
        assert!(RangeSet::from_condition(CmpOp::Eq, EncodedLiteral::Num(0.5), max).is_empty());
    }

    #[test]
    fn out_of_domain_literals() {
        let max = 10;
        assert!(RangeSet::from_condition(CmpOp::Gt, EncodedLiteral::Num(10.0), max).is_empty());
        assert_eq!(
            RangeSet::from_condition(CmpOp::Lt, EncodedLiteral::Num(-5.0), max),
            RangeSet::empty()
        );
        assert_eq!(
            RangeSet::from_condition(CmpOp::Ge, EncodedLiteral::Num(-5.0), max),
            RangeSet::full(max)
        );
    }

    #[test]
    fn intersect_matches_fig7_consolidation() {
        // dist > 81 AND dist < 231 -> [82, 230].
        let a = RangeSet::from_condition(CmpOp::Gt, EncodedLiteral::Num(81.0), 10_000);
        let b = RangeSet::from_condition(CmpOp::Lt, EncodedLiteral::Num(231.0), 10_000);
        assert_eq!(a.intersect(&b), RangeSet::interval(82, 230));
    }

    #[test]
    fn union_merges_adjacent() {
        let u = rs(&[(0, 3)]).union(&rs(&[(4, 9)]));
        assert_eq!(u.intervals(), &[(0, 9)]);
    }

    #[test]
    fn complement_roundtrip() {
        let set = rs(&[(2, 5), (10, 20)]);
        let c = set.complement(30);
        assert_eq!(c.intervals(), &[(0, 1), (6, 9), (21, 30)]);
        assert_eq!(c.complement(30), set);
    }

    /// One bin over values `0..=99` holding `uniq` of them.
    fn bin(uniq: u32) -> BinMeta {
        BinMeta { vmin: 0, vmax: 99, uniq }
    }

    #[test]
    fn coverage_cases() {
        // One bin, values 0..=99, u = 100, h = 1000.
        let b = bin(100);
        // Full cover.
        assert_eq!(bin_coverage(1000, b, &RangeSet::full(200)), 1.0);
        // No overlap.
        assert_eq!(bin_coverage(1000, b, &RangeSet::interval(200, 300)), 0.0);
        // Dense bin (u = extent): [0, 49] covers exactly 50 of 100 values.
        let half = bin_coverage(1000, b, &RangeSet::interval(0, 49));
        assert!((half - 0.5).abs() < 1e-12);
        // Point: 1/u.
        assert!((bin_coverage(1000, b, &RangeSet::point(42)) - 0.01).abs() < 1e-12);
        // An empty bin covers nothing.
        assert_eq!(bin_coverage(0, b, &RangeSet::full(200)), 0.0);
    }

    #[test]
    fn coverage_sparse_bin_uses_width_fraction() {
        // u = 50 < extent 100: falls back to the paper's width-fraction rule.
        let c = bin_coverage(1000, bin(50), &RangeSet::interval(0, 49));
        assert!((c - 49.0 / 99.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_u2_half_rule() {
        // Covers only vmin.
        assert_eq!(bin_coverage(50, bin(2), &RangeSet::interval(0, 50)), 0.5);
        // Covers both extremes -> 1 even though middle uncovered.
        let both = RangeSet::point(0).union(&RangeSet::point(99));
        assert_eq!(bin_coverage(50, bin(2), &both), 1.0);
    }

    #[test]
    fn bounds_bracket_estimate() {
        let crit = |dof: usize| chi2_critical(0.001, dof as f64);
        for &(beta, h, u) in
            &[(0.3, 5000u64, 400u32), (0.7, 120, 50), (0.05, 90, 10), (0.999, 10_000, 1000)]
        {
            let (lo, hi) = coverage_bounds(beta, h, u, 100, crit);
            assert!(lo <= beta && beta <= hi, "beta={beta} h={h} u={u}: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn bounds_tighten_with_count() {
        let crit = |dof: usize| chi2_critical(0.001, dof as f64);
        let (lo1, hi1) = coverage_bounds(0.4, 200, 100, 100, crit);
        let (lo2, hi2) = coverage_bounds(0.4, 20_000, 100, 100, crit);
        assert!(hi2 - lo2 < hi1 - lo1, "more points must tighten Theorem 2 bounds");
    }

    #[test]
    fn non_passing_bin_bounds() {
        let crit = |_: usize| 0.0;
        let (lo, hi) = coverage_bounds(0.5, 10, 5, 100, crit);
        assert!((lo - 0.1).abs() < 1e-12);
        assert!((hi - 0.9).abs() < 1e-12);
    }

    /// The linear scans `covers` and `clip` were before they binary-searched.
    fn covers_linear(rs: &RangeSet, lo: u64, hi: u64) -> bool {
        match rs.intervals().iter().find(|&&(a, b)| a <= lo && lo <= b) {
            Some(&(_, b)) => b >= hi,
            None => false,
        }
    }

    fn clip_linear(rs: &RangeSet, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        rs.intervals()
            .iter()
            .filter(|&&(a, b)| b >= lo && a <= hi)
            .map(|&(a, b)| (a.max(lo), b.min(hi)))
            .collect()
    }

    proptest! {
        #[test]
        fn prop_covers_and_clip_match_the_linear_scans(
            a in proptest::collection::vec((0u64..400, 0u64..12), 0..40),
            probes in proptest::collection::vec((0u64..420, 0u64..60), 30),
        ) {
            // Many short intervals: the shape of `<>` and OR-of-equalities on a
            // wide dictionary.
            let set = a.iter().fold(RangeSet::empty(), |acc, &(lo, len)| {
                acc.union(&RangeSet::interval(lo, lo + len))
            });
            for (lo, len) in probes {
                let hi = lo + len;
                prop_assert_eq!(set.covers(lo, hi), covers_linear(&set, lo, hi));
                prop_assert_eq!(set.clip(lo, hi).collect::<Vec<_>>(), clip_linear(&set, lo, hi));
            }
        }

        #[test]
        fn prop_union_intersect_consistent(
            a in proptest::collection::vec((0u64..1000, 0u64..1000), 0..6),
            b in proptest::collection::vec((0u64..1000, 0u64..1000), 0..6),
            probe in proptest::collection::vec(0u64..1000, 20),
        ) {
            let ra = a.iter().fold(RangeSet::empty(), |acc, &(x, y)| {
                acc.union(&RangeSet::interval(x.min(y), x.max(y)))
            });
            let rb = b.iter().fold(RangeSet::empty(), |acc, &(x, y)| {
                acc.union(&RangeSet::interval(x.min(y), x.max(y)))
            });
            let uni = ra.union(&rb);
            let int = ra.intersect(&rb);
            for v in probe {
                prop_assert_eq!(uni.contains(v), ra.contains(v) || rb.contains(v));
                prop_assert_eq!(int.contains(v), ra.contains(v) && rb.contains(v));
            }
        }

        #[test]
        fn prop_complement_involution(
            a in proptest::collection::vec((0u64..500, 0u64..500), 0..5),
            probe in proptest::collection::vec(0u64..500, 20),
        ) {
            let ra = a.iter().fold(RangeSet::empty(), |acc, &(x, y)| {
                acc.union(&RangeSet::interval(x.min(y), x.max(y)))
            });
            let c = ra.complement(500);
            for v in probe {
                prop_assert_eq!(c.contains(v), !ra.contains(v));
            }
        }
    }
}

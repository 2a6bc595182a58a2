//! One-dimensional histogram construction (`RefineBin1D`, Algorithm 2).

use ph_stats::Chi2Cache;

use crate::bins::DimBins;
use crate::build::SplitRule;
use crate::uniform::{snap_split, snap_split_equal_depth, test_uniform};

/// Hard cap on recursion depth. Splits halve the bin width, so depth is naturally
/// bounded by the bit width of the encoded domain (< 53); this is a safety net.
const MAX_DEPTH: u32 = 64;

/// Accumulates finished bins in left-to-right order during refinement.
#[derive(Debug, Default)]
struct BinAcc {
    upper_edges: Vec<f64>,
    vmin: Vec<u64>,
    vmax: Vec<u64>,
    uniq: Vec<u32>,
    counts: Vec<u64>,
}

/// Builds the one-dimensional histogram for one column from its **ascending-sorted**
/// non-null sample values.
///
/// `initial_edges` seeds the refinement: either cut points derived from GreedyGD
/// bases (Algorithm 1 line 4) or just the column min/max. All edges must be
/// half-integers bracketing every value.
pub fn build_dim_bins_1d(
    sorted: &[u64],
    initial_edges: &[f64],
    m_min: usize,
    split_rule: SplitRule,
    chi2: &mut Chi2Cache,
) -> DimBins {
    assert!(initial_edges.len() >= 2, "need at least a [lo, hi] edge pair");
    debug_assert!(initial_edges.windows(2).all(|w| w[0] < w[1]));
    let mut acc = BinAcc::default();
    let mut start = 0usize;
    for w in initial_edges.windows(2) {
        let (e_lo, e_hi) = (w[0], w[1]);
        // Values in (e_lo, e_hi); edges are half-integers so no ties.
        let end = start + sorted[start..].partition_point(|&v| (v as f64) < e_hi);
        refine_bin_1d(&sorted[start..end], e_lo, e_hi, m_min, split_rule, chi2, 0, &mut acc);
        start = end;
    }
    debug_assert_eq!(start, sorted.len(), "all values must fall inside the edges");
    let mut edges = Vec::with_capacity(acc.upper_edges.len() + 1);
    edges.push(initial_edges[0]);
    edges.extend_from_slice(&acc.upper_edges);
    DimBins::finalize(edges, acc.vmin, acc.vmax, acc.uniq, acc.counts, m_min, chi2)
}

/// `RefineBin1D` (Algorithm 2): recursively split `values ⊂ (e_lo, e_hi)` until the
/// bin is empty, single-valued, too small to split, or accepted as uniform.
#[allow(clippy::too_many_arguments)]
fn refine_bin_1d(
    values: &[u64],
    e_lo: f64,
    e_hi: f64,
    m_min: usize,
    split_rule: SplitRule,
    chi2: &mut Chi2Cache,
    depth: u32,
    acc: &mut BinAcc,
) {
    let h = values.len();
    // Line 3: empty bin — edge-derived placeholders for the extrema.
    if h == 0 {
        acc.push(e_hi, e_lo.ceil() as u64, e_hi.floor() as u64, 0, 0);
        return;
    }
    let vmin = values[0];
    let vmax = values[h - 1];
    // Line 5: single unique value.
    if vmin == vmax {
        acc.push(e_hi, vmin, vmax, 1, h as u64);
        return;
    }
    let uniq = count_unique_sorted(values);
    // Line 7: too few points, or the uniformity test accepts.
    let leaf = h < m_min
        || depth >= MAX_DEPTH
        || test_uniform(values, e_lo, e_hi, uniq, chi2).is_uniform();
    if leaf {
        acc.push(e_hi, vmin, vmax, uniq as u32, h as u64);
        return;
    }
    // Lines 10-14: split and recurse. If no valid split point exists the bin spans a
    // single integer slot and cannot be refined further.
    let z = match split_rule {
        SplitRule::EqualWidth => snap_split(e_lo, e_hi),
        SplitRule::EqualDepth => {
            snap_split_equal_depth(values, e_lo, e_hi).or_else(|| snap_split(e_lo, e_hi))
        }
    };
    let Some(z) = z else {
        acc.push(e_hi, vmin, vmax, uniq as u32, h as u64);
        return;
    };
    let cut = values.partition_point(|&v| (v as f64) < z);
    refine_bin_1d(&values[..cut], e_lo, z, m_min, split_rule, chi2, depth + 1, acc);
    refine_bin_1d(&values[cut..], z, e_hi, m_min, split_rule, chi2, depth + 1, acc);
}

impl BinAcc {
    fn push(&mut self, upper: f64, vmin: u64, vmax: u64, uniq: u32, count: u64) {
        self.upper_edges.push(upper);
        self.vmin.push(vmin);
        self.vmax.push(vmax);
        self.uniq.push(uniq);
        self.counts.push(count);
    }
}

/// Unique count of an ascending-sorted slice.
pub fn count_unique_sorted(values: &[u64]) -> usize {
    if values.is_empty() {
        return 0;
    }
    1 + values.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Converts a set of seed values (e.g. GreedyGD base values) into half-integer cut
/// points between consecutive distinct seeds, clamped to the observed data range, and
/// bracketed by `min − 0.5` and `max + 0.5`.
pub fn edges_from_seeds(seeds: &[u64], data_min: u64, data_max: u64) -> Vec<f64> {
    let lo = data_min as f64 - 0.5;
    let hi = data_max as f64 + 0.5;
    let mut edges = vec![lo];
    for w in seeds.windows(2) {
        if w[0] == w[1] {
            continue;
        }
        let cut = ((w[0] + w[1]) / 2) as f64 + 0.5;
        if cut > lo && cut < hi && Some(&cut) != edges.last() {
            edges.push(cut);
        }
    }
    edges.push(hi);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(sorted: &[u64], m_min: usize) -> DimBins {
        let lo = sorted.first().map_or(0.0, |&v| v as f64 - 0.5);
        let hi = sorted.last().map_or(1.0, |&v| v as f64 + 0.5);
        let mut chi2 = Chi2Cache::new(0.001);
        build_dim_bins_1d(sorted, &[lo, hi], m_min, SplitRule::EqualWidth, &mut chi2)
    }

    #[test]
    fn counts_partition_the_data() {
        let mut values: Vec<u64> = (0..5000u64).map(|i| (i * i) % 997).collect();
        values.sort_unstable();
        let bins = build(&values, 50);
        assert_eq!(bins.counts.iter().sum::<u64>(), 5000);
        assert!(bins.edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn metadata_invariants_hold() {
        let mut values: Vec<u64> = (0..3000u64).map(|i| (i * 37) % 512).collect();
        values.sort_unstable();
        let bins = build(&values, 30);
        for t in 0..bins.k() {
            if bins.counts[t] > 0 {
                assert!(bins.vmin[t] <= bins.vmax[t]);
                assert!(bins.uniq[t] >= 1);
                assert!(bins.uniq[t] as u64 <= bins.counts[t]);
                assert!((bins.vmin[t] as f64) > bins.edges[t]);
                assert!((bins.vmax[t] as f64) < bins.edges[t + 1]);
            }
        }
    }

    #[test]
    fn uniform_column_stays_one_bin() {
        // Uniform data should pass the test immediately: one bin.
        let values: Vec<u64> = (0..10_000u64).map(|i| i % 1000).collect::<Vec<_>>();
        let mut sorted = values;
        sorted.sort_unstable();
        let bins = build(&sorted, 100);
        assert_eq!(bins.k(), 1, "uniform data must not be split, got {} bins", bins.k());
    }

    #[test]
    fn bimodal_column_gets_split() {
        // Two tight clusters far apart: must split at least once.
        let mut values: Vec<u64> = Vec::new();
        for i in 0..2000u64 {
            values.push(i % 10);
            values.push(990 + i % 10);
        }
        values.sort_unstable();
        let bins = build(&values, 100);
        assert!(bins.k() >= 2, "bimodal data must split, got {} bins", bins.k());
        // All data is in the clusters; middle bins are empty or tiny.
        let total: u64 = bins.counts.iter().sum();
        assert_eq!(total, 4000);
    }

    #[test]
    fn single_value_column() {
        let values = vec![42u64; 500];
        let bins = build(&values, 10);
        assert_eq!(bins.k(), 1);
        assert_eq!(bins.uniq[0], 1);
        assert_eq!(bins.vmin[0], 42);
    }

    #[test]
    fn empty_column_single_empty_bin() {
        let mut chi2 = Chi2Cache::new(0.001);
        let bins = build_dim_bins_1d(&[], &[-0.5, 0.5], 10, SplitRule::EqualWidth, &mut chi2);
        assert_eq!(bins.k(), 1);
        assert_eq!(bins.counts[0], 0);
    }

    #[test]
    fn too_few_points_never_split() {
        let values = vec![0u64, 1, 2, 100, 101, 102];
        let bins = build(&values, 100);
        assert_eq!(bins.k(), 1, "h < M must not split");
    }

    #[test]
    fn equal_depth_rule_also_partitions() {
        let mut values: Vec<u64> = (0..4000u64).map(|i| (i * 13) % 300).collect();
        values.extend(std::iter::repeat_n(299, 4000));
        values.sort_unstable();
        let mut chi2 = Chi2Cache::new(0.001);
        let bins = build_dim_bins_1d(&values, &[-0.5, 299.5], 50, SplitRule::EqualDepth, &mut chi2);
        assert_eq!(bins.counts.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn seed_edges_are_half_integers_in_range() {
        let edges = edges_from_seeds(&[0, 8, 8, 16, 100], 2, 90);
        assert_eq!(edges[0], 1.5);
        assert_eq!(*edges.last().unwrap(), 90.5);
        for w in edges.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &e in &edges {
            assert_eq!((e * 2.0).rem_euclid(2.0), 1.0, "{e} must be half-integer");
        }
    }

    #[test]
    fn unique_count_correct() {
        assert_eq!(count_unique_sorted(&[]), 0);
        assert_eq!(count_unique_sorted(&[5]), 1);
        assert_eq!(count_unique_sorted(&[1, 1, 2, 3, 3, 3]), 3);
    }
}

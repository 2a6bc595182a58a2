//! Histogram bins with the paper's per-bin metadata.
//!
//! All values live in the GreedyGD-encoded non-negative integer domain, and all bin
//! edges are **half-integers** (`…, 4.5, 17.5, …`). Splits only ever land on
//! half-integers (see [`crate::uniform::snap_split`]), so no data point can coincide
//! with an edge — bin assignment is unambiguous without tie-breaking rules, and every
//! edge is exactly representable both as an `f64` and as the integer `2e + 1` used by
//! the storage encoder.

use ph_stats::{terrell_scott, Chi2Cache};

/// Bins along one dimension of a histogram: edges plus the paper's metadata
/// (minimum/maximum actual value, unique count, bin count) and the derived midpoints
/// and weighted-centre bounds (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct DimBins {
    /// `k + 1` strictly ascending half-integer edges.
    pub edges: Vec<f64>,
    /// Per-bin minimum actual value `v⁻` (edge-derived placeholder for empty bins).
    pub vmin: Vec<u64>,
    /// Per-bin maximum actual value `v⁺`.
    pub vmax: Vec<u64>,
    /// Per-bin unique value count `u`.
    pub uniq: Vec<u32>,
    /// Per-bin count `h`.
    pub counts: Vec<u64>,
    /// Derived: bin midpoints `c = (v⁻ + v⁺) / 2`.
    pub mid: Vec<f64>,
    /// Derived: weighted-centre lower bounds `c⁻` (Eq 10).
    pub c_lo: Vec<f64>,
    /// Derived: weighted-centre upper bounds `c⁺` (Eq 10).
    pub c_hi: Vec<f64>,
}

/// One bin's value metadata: `v⁻`, `v⁺` and `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinMeta {
    /// Minimum actual value `v⁻`.
    pub vmin: u64,
    /// Maximum actual value `v⁺`.
    pub vmax: u64,
    /// Unique value count `u`.
    pub uniq: u32,
}

impl BinMeta {
    /// Applies one value of the column to the metadata: `u` counts values
    /// only as they widen `[v⁻, v⁺]` (see `update.rs`), and a bin no value
    /// has reached yet (`u = 0`) takes `v` as its only value.
    pub(crate) fn bump(&mut self, v: u64) {
        if self.uniq == 0 {
            *self = BinMeta { vmin: v, vmax: v, uniq: 1 };
        } else if v < self.vmin {
            (self.vmin, self.uniq) = (v, self.uniq + 1);
        } else if v > self.vmax {
            (self.vmax, self.uniq) = (v, self.uniq + 1);
        }
    }
}

impl DimBins {
    /// Number of bins `k`.
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Bin `t`'s value metadata.
    #[inline]
    pub fn meta(&self, t: usize) -> BinMeta {
        BinMeta { vmin: self.vmin[t], vmax: self.vmax[t], uniq: self.uniq[t] }
    }

    /// Assembles bins from construction output and derives midpoints and
    /// weighted-centre bounds.
    ///
    /// `m_min` is the `M` parameter (bins with `h ≥ M` passed the uniformity test and
    /// get the tighter Theorem 1 centre bounds) and `chi2` the cached critical values
    /// at the build significance level.
    pub fn finalize(
        edges: Vec<f64>,
        vmin: Vec<u64>,
        vmax: Vec<u64>,
        uniq: Vec<u32>,
        counts: Vec<u64>,
        m_min: usize,
        chi2: &mut Chi2Cache,
    ) -> Self {
        let k = counts.len();
        assert_eq!(edges.len(), k + 1, "need k+1 edges for k bins");
        assert_eq!(vmin.len(), k);
        assert_eq!(vmax.len(), k);
        assert_eq!(uniq.len(), k);
        let mut mid = Vec::with_capacity(k);
        let mut c_lo = Vec::with_capacity(k);
        let mut c_hi = Vec::with_capacity(k);
        for t in 0..k {
            let (m, lo, hi) = centre_bounds(vmin[t], vmax[t], uniq[t], counts[t], m_min, chi2);
            mid.push(m);
            c_lo.push(lo);
            c_hi.push(hi);
        }
        Self { edges, vmin, vmax, uniq, counts, mid, c_lo, c_hi }
    }

    /// Recomputes the derived midpoints and weighted-centre bounds from the current
    /// metadata (used after incremental updates mutate counts or extremes).
    pub fn refresh(&mut self, m_min: usize, chi2: &mut Chi2Cache) {
        for t in 0..self.k() {
            let (m, lo, hi) = centre_bounds(
                self.vmin[t],
                self.vmax[t],
                self.uniq[t],
                self.counts[t],
                m_min,
                chi2,
            );
            self.mid[t] = m;
            self.c_lo[t] = lo;
            self.c_hi[t] = hi;
        }
    }

    /// Bin index containing integer value `v`, or `None` if outside the histogram
    /// range. Edges are half-integers so `v` never ties with an edge.
    #[inline]
    pub fn bin_of(&self, v: u64) -> Option<usize> {
        let x = v as f64;
        if x < self.edges[0] || x > *self.edges.last().unwrap() {
            return None;
        }
        let idx = self.edges.partition_point(|&e| e < x);
        // idx is the first edge greater than x; bin is idx - 1.
        (idx > 0 && idx <= self.k()).then(|| idx - 1)
    }

    /// Bin width `Δt = v⁺ − v⁻` used by coverage fractions and MEDIAN interpolation.
    #[inline]
    pub fn width(&self, t: usize) -> f64 {
        (self.vmax[t] - self.vmin[t]) as f64
    }

    /// Sub-bin width `δ = Δ / s` with `s` from the Terrell–Scott rule.
    #[inline]
    pub fn sub_width(&self, t: usize) -> f64 {
        self.width(t) / terrell_scott(self.uniq[t] as usize) as f64
    }
}

/// Midpoint and weighted-centre bounds for one bin (paper Eq 10 / Theorem 1).
///
/// * bins that did **not** pass the hypothesis test (`h < M`) get the adversarial
///   bound: all but `u − 1` points at one extremum, the rest packed at minimum
///   spacing `µ = 1` (integer domain);
/// * bins that passed are approximately uniform over `s` sub-bins, giving the tighter
///   Theorem 1 bound with the χ² budget.
fn centre_bounds(
    vmin: u64,
    vmax: u64,
    uniq: u32,
    count: u64,
    m_min: usize,
    chi2: &mut Chi2Cache,
) -> (f64, f64, f64) {
    let lo_v = vmin as f64;
    let hi_v = vmax as f64;
    let mid = 0.5 * (lo_v + hi_v);
    if count == 0 || uniq <= 1 {
        return (mid, mid, mid);
    }
    let h = count as f64;
    let u = uniq as f64;
    let (mut c_lo, mut c_hi) = if (count as usize) < m_min {
        // Eq 10 top case, µ = 1.
        let shift = (u - 1.0) * u / (2.0 * h);
        (lo_v + shift, hi_v - shift)
    } else {
        // Theorem 1.
        let s = terrell_scott(uniq as usize) as f64;
        let delta = (hi_v - lo_v) / s;
        let crit = chi2.critical(s as u32 - 1);
        let spread = delta / 6.0 * (3.0 * crit * (s * s - 1.0) / h).sqrt();
        (lo_v + (s - 1.0) * delta / 2.0 - spread, lo_v + (s + 1.0) * delta / 2.0 + spread)
    };
    // The weighted centre always lies within the value extremes.
    c_lo = c_lo.clamp(lo_v, hi_v);
    c_hi = c_hi.clamp(lo_v, hi_v);
    if c_lo > c_hi {
        std::mem::swap(&mut c_lo, &mut c_hi);
    }
    (mid, c_lo, c_hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_bins() -> DimBins {
        let mut chi2 = Chi2Cache::new(0.001);
        DimBins::finalize(
            vec![-0.5, 9.5, 19.5],
            vec![0, 10],
            vec![9, 19],
            vec![10, 10],
            vec![100, 50],
            1000,
            &mut chi2,
        )
    }

    #[test]
    fn bin_lookup() {
        let b = simple_bins();
        assert_eq!(b.bin_of(0), Some(0));
        assert_eq!(b.bin_of(9), Some(0));
        assert_eq!(b.bin_of(10), Some(1));
        assert_eq!(b.bin_of(19), Some(1));
        assert_eq!(b.bin_of(20), None);
    }

    #[test]
    fn midpoints_between_extremes() {
        let b = simple_bins();
        assert_eq!(b.mid[0], 4.5);
        assert_eq!(b.mid[1], 14.5);
        for t in 0..b.k() {
            assert!(b.c_lo[t] >= b.vmin[t] as f64);
            assert!(b.c_hi[t] <= b.vmax[t] as f64);
            assert!(b.c_lo[t] <= b.c_hi[t]);
        }
    }

    #[test]
    fn small_bin_bounds_use_min_spacing_rule() {
        let mut chi2 = Chi2Cache::new(0.001);
        // h = 10 < M: bounds shift by (u-1)u/(2h) = 3*4/20 = 0.6.
        let (_, lo, hi) = centre_bounds(0, 100, 4, 10, 1000, &mut chi2);
        assert!((lo - 0.6).abs() < 1e-12, "lo = {lo}");
        assert!((hi - 99.4).abs() < 1e-12, "hi = {hi}");
    }

    #[test]
    fn passing_bin_bounds_tighter_with_more_points() {
        let mut chi2 = Chi2Cache::new(0.001);
        let (_, lo_small, hi_small) = centre_bounds(0, 1000, 100, 2000, 1000, &mut chi2);
        let (_, lo_big, hi_big) = centre_bounds(0, 1000, 100, 200_000, 1000, &mut chi2);
        assert!(hi_big - lo_big < hi_small - lo_small, "more points must tighten Theorem 1 bounds");
        // Both centred near the true uniform centre 500.
        assert!((0.5 * (lo_big + hi_big) - 500.0).abs() < 20.0);
    }

    #[test]
    fn single_value_bin_degenerates() {
        let mut chi2 = Chi2Cache::new(0.001);
        let (mid, lo, hi) = centre_bounds(7, 7, 1, 42, 10, &mut chi2);
        assert_eq!((mid, lo, hi), (7.0, 7.0, 7.0));
    }
}

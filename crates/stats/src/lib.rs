//! Statistical primitives for the PairwiseHist AQP framework.
//!
//! The paper relies on a small set of classical statistics:
//!
//! * **χ² tail quantiles** for the recursive uniformity hypothesis test (§4.1, Eq 3)
//!   and for the weighted-centre and partial-count bounds (Theorems 1 and 2);
//! * the **Terrell–Scott inequality** (Eq 2) for choosing the number of sub-bins;
//! * **normal quantiles** for the sampling-uncertainty widening of weighting bounds
//!   (Eq 29, the two-sided 98-percentile `z`);
//! * **Gaussian sampling** for the IDEBench-style synthetic data generator.
//!
//! Everything is implemented here from standard numerical recipes (Lanczos log-gamma,
//! regularized incomplete gamma, Acklam's inverse normal CDF, Box–Muller) so the
//! workspace needs no external statistics crates.

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
mod chi2;
mod gamma;
mod normal;
mod sampling;

pub use chi2::{chi2_cdf, chi2_critical, chi2_sf, usable_alpha, Chi2Cache};
pub use gamma::{ln_gamma, reg_lower_gamma};
pub use normal::{normal_cdf, normal_quantile};
pub use sampling::{gaussian, Gaussian};

/// Terrell–Scott rule (paper Eq 2): the number of sub-bins to use when testing a bin
/// with `u` unique values for uniformity, `s = ⌈(2u)^(1/3)⌉`.
///
/// Always at least 2 for `u >= 1` — a single sub-bin cannot discriminate anything, and
/// the paper only tests bins with more than one unique value.
pub fn terrell_scott(u: usize) -> usize {
    let s = (2.0 * u as f64).cbrt().ceil() as usize;
    s.max(2)
}

/// Linear-interpolated quantile of an ascending-sorted slice, `q ∈ [0, 1]`.
///
/// Used by the workload generator to draw predicate literals at controlled
/// selectivities.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Running mean/variance accumulator (Welford), shared by the exact engine and the
/// baselines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean, or `None` if no observations.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance (`÷ n`), matching the paper's VAR estimator
    /// `E[x²] − E[x]²`; `None` if no observations.
    pub fn variance_population(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Sample variance (`÷ (n−1)`); `None` for fewer than two observations.
    pub fn variance_sample(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terrell_scott_matches_formula() {
        // (2u)^(1/3) rounded up: u=1 -> ceil(1.26)=2, u=4 -> 2, u=5 -> ceil(2.154)=3,
        // u=500 -> ceil(10)=10.
        assert_eq!(terrell_scott(1), 2);
        assert_eq!(terrell_scott(4), 2);
        assert_eq!(terrell_scott(5), 3);
        assert_eq!(terrell_scott(500), 10);
        assert_eq!(terrell_scott(13), 3); // (26)^(1/3)=2.96 -> 3
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean().unwrap() - mean).abs() < 1e-12);
        assert!((w.variance_population().unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance_population(), None);
    }
}

//! χ² distribution: CDF, survival function and tail quantiles.
//!
//! The uniformity test of §4.1 rejects (and splits a bin) when the statistic of Eq 3
//! exceeds the critical value `χ²_α` with `Pr(χ² > χ²_α) = α` at `s − 1` degrees of
//! freedom. Construction performs this test once per candidate bin, so critical values
//! are memoised per degree-of-freedom in [`Chi2Cache`].

use crate::gamma::reg_lower_gamma;
use crate::normal::normal_quantile;

/// χ² CDF with `k` degrees of freedom: `P(k/2, x/2)`.
pub fn chi2_cdf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_cdf needs positive dof, got {k}");
    if x <= 0.0 {
        return 0.0;
    }
    reg_lower_gamma(k / 2.0, x / 2.0)
}

/// χ² survival function `Pr(X > x)` with `k` degrees of freedom.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    1.0 - chi2_cdf(x, k)
}

/// Whether `α` is a significance level the χ² tests can run at: inside
/// `(0, 1)` and far enough from 0 that `1 − α` is not 1 (the quantile the
/// critical value starts from is taken at `1 − α`).
pub fn usable_alpha(alpha: f64) -> bool {
    alpha < 1.0 && 1.0 - alpha < 1.0
}

/// Upper-tail quantile: the `x` with `Pr(X > x) = alpha` at `k` degrees of freedom.
///
/// Seeds Newton iteration with the Wilson–Hilferty cube approximation, then polishes
/// with bisection-guarded Newton on the survival function; converges to ~1e-10 in a
/// handful of steps.
pub fn chi2_critical(alpha: f64, k: f64) -> f64 {
    assert!(usable_alpha(alpha), "alpha {alpha} is not a usable significance level");
    assert!(k > 0.0, "chi2_critical needs positive dof, got {k}");

    // Wilson–Hilferty start point.
    let z = normal_quantile(1.0 - alpha);
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    let mut x = (k * t * t * t).max(1e-8);

    // Bracket the root, then bisection-guarded Newton on f(x) = sf(x) - alpha.
    let mut lo = 0.0_f64;
    let mut hi = x.max(k) * 2.0 + 10.0;
    while chi2_sf(hi, k) > alpha {
        hi *= 2.0;
    }
    for _ in 0..100 {
        let f = chi2_sf(x, k) - alpha;
        if f.abs() < 1e-12 {
            break;
        }
        if f > 0.0 {
            lo = x; // sf too large -> x too small
        } else {
            hi = x;
        }
        // Newton step using the χ² pdf as derivative of -sf.
        let pdf = chi2_pdf(x, k);
        let next = if pdf > 1e-300 { x + f / pdf } else { f64::NAN };
        x = if next.is_finite() && next > lo && next < hi { next } else { 0.5 * (lo + hi) };
    }
    x
}

fn chi2_pdf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let half_k = k / 2.0;
    ((half_k - 1.0) * x.ln()
        - x / 2.0
        - half_k * std::f64::consts::LN_2
        - crate::gamma::ln_gamma(half_k))
    .exp()
}

/// Memoised `χ²_α` lookups keyed by integer degrees of freedom, for a fixed `α`.
///
/// Histogram construction calls the test with `s ∈ [2, ~30]` sub-bins over and over;
/// this cache turns each lookup after the first into an index into a dense table.
/// Degrees of freedom are Terrell–Scott sub-bin counts less one, so the table never
/// grows past ≈ 2 000 entries (`(2 · u32::MAX)^⅓`).
#[derive(Debug, Clone)]
pub struct Chi2Cache {
    alpha: f64,
    /// `table[dof]`, `None` until first asked for.
    table: Vec<Option<f64>>,
}

impl Chi2Cache {
    /// New cache for significance level `alpha`.
    ///
    /// # Panics
    /// Panics unless [`usable_alpha`] holds for `alpha`.
    pub fn new(alpha: f64) -> Self {
        assert!(usable_alpha(alpha), "alpha {alpha} is not a usable significance level");
        Self { alpha, table: Vec::new() }
    }

    /// The significance level this cache serves.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `χ²_α` at `dof` degrees of freedom.
    pub fn critical(&mut self, dof: u32) -> f64 {
        let i = dof as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, None);
        }
        let alpha = self.alpha;
        *self.table[i].get_or_insert_with(|| chi2_critical(alpha, dof as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook χ² upper-tail critical values.
    #[test]
    fn critical_matches_tables() {
        let cases = [
            (0.05, 1.0, 3.841),
            (0.05, 10.0, 18.307),
            (0.01, 2.0, 9.210),
            (0.001, 5.0, 20.515),
            (0.1, 3.0, 6.251),
            (0.001, 1.0, 10.828),
        ];
        for (alpha, k, expect) in cases {
            let got = chi2_critical(alpha, k);
            assert!(
                (got - expect).abs() < 5e-3,
                "alpha={alpha} k={k}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn critical_inverts_sf() {
        for &alpha in &[0.1, 0.01, 0.001] {
            for &k in &[1.0, 2.0, 7.0, 29.0, 100.0] {
                let x = chi2_critical(alpha, k);
                assert!(
                    (chi2_sf(x, k) - alpha).abs() < 1e-9,
                    "alpha={alpha} k={k} x={x} sf={}",
                    chi2_sf(x, k)
                );
            }
        }
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let mut prev = 0.0;
        for i in 0..300 {
            let x = i as f64 * 0.25;
            let p = chi2_cdf(x, 4.0);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn cache_consistent_with_direct() {
        let mut cache = Chi2Cache::new(0.001);
        for dof in 1..20 {
            let a = cache.critical(dof);
            let b = chi2_critical(0.001, dof as f64);
            assert!((a - b).abs() < 1e-12);
        }
        // Second lookup hits the memo and must agree, bit for bit.
        let again = cache.critical(5);
        assert_eq!(again.to_bits(), chi2_critical(0.001, 5.0).to_bits());
        // Out of order, past the filled prefix, then inside it.
        assert_eq!(cache.critical(40).to_bits(), chi2_critical(0.001, 40.0).to_bits());
        assert_eq!(cache.critical(25).to_bits(), chi2_critical(0.001, 25.0).to_bits());
    }

    #[test]
    fn usable_alpha_refuses_what_the_quantile_cannot_take() {
        for alpha in [0.001, 0.05, 0.5, 1e-15] {
            assert!(usable_alpha(alpha), "{alpha}");
            assert!(chi2_critical(alpha, 3.0).is_finite());
        }
        for alpha in [0.0, -0.1, 1.0, 1.5, 1e-17, 1e-300, 5e-324, f64::NAN, f64::INFINITY] {
            assert!(!usable_alpha(alpha), "{alpha}");
        }
    }
}

//! Log-gamma and the regularized lower incomplete gamma function.
//!
//! These power the χ² CDF: `chi2_cdf(x; k) = P(k/2, x/2)` where `P` is the regularized
//! lower incomplete gamma function. Implementations follow the classical Numerical
//! Recipes formulations (Lanczos approximation; series expansion for `x < a + 1`,
//! Lentz continued fraction otherwise), accurate to ~1e-12 over the ranges the
//! synopsis uses.

/// Lanczos coefficients (g = 7, n = 9), standard double-precision set.
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain error: x = {x}");
    if x < 0.5 {
        // Reflection formula keeps precision near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)` for `a > 0, x >= 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "reg_lower_gamma domain error: a = {a}, x = {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_fraction(a, x)
    }
}

/// Series representation of `P(a, x)`, converges fast for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of `Q(a, x) = 1 − P(a, x)` (modified Lentz),
/// converges fast for `x >= a + 1`.
fn gamma_cont_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn reg_gamma_limits() {
        assert_eq!(reg_lower_gamma(2.0, 0.0), 0.0);
        assert!((reg_lower_gamma(1.0, 50.0) - 1.0).abs() < 1e-12);
        // P(1, x) = 1 - e^{-x} (exponential distribution CDF).
        for x in [0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((reg_lower_gamma(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-10, "x = {x}");
        }
    }

    #[test]
    fn reg_gamma_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = reg_lower_gamma(3.5, x);
            assert!(p >= prev, "P(a,x) must be non-decreasing in x");
            prev = p;
        }
    }
}

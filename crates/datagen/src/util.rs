//! Shared distribution helpers for the dataset generators.

use rand::Rng;

use ph_stats::gaussian;

/// Log-normal sample: `exp(mu + sigma·Z)`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * gaussian(rng)).exp()
}

/// Zipf-like categorical index over `n` items with exponent `s` (rank 0 most
/// frequent).
pub fn zipf<R: Rng + ?Sized>(rng: &mut R, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    // Inverse-CDF over precomputable weights would be faster, but generators run
    // once per dataset; keep it allocation-free instead.
    let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
    let mut u = rng.gen_range(0.0..norm);
    for k in 1..=n {
        let w = 1.0 / (k as f64).powf(s);
        if u < w {
            return k - 1;
        }
        u -= w;
    }
    n - 1
}

/// Daily sinusoid value at sample index `i` with `period` samples per cycle.
pub fn diurnal(i: usize, period: usize, amplitude: f64) -> f64 {
    amplitude * (2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64).sin()
}

/// Mean-reverting random walk step (Ornstein–Uhlenbeck flavoured).
pub fn walk_step<R: Rng + ?Sized>(
    rng: &mut R,
    current: f64,
    mean: f64,
    pull: f64,
    noise: f64,
) -> f64 {
    current + pull * (mean - current) + noise * gaussian(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed_to_low_ranks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[zipf(&mut rng, 10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[4] && counts[4] > counts[9]);
    }

    #[test]
    fn lognormal_positive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(lognormal(&mut rng, 0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn walk_reverts_to_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut x = 100.0;
        for _ in 0..500 {
            x = walk_step(&mut rng, x, 0.0, 0.1, 0.5);
        }
        assert!(x.abs() < 20.0, "walk should revert toward 0, got {x}");
    }
}

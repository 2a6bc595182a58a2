//! Sample statistics: nearest-rank percentiles, the "ten samples beyond" rule
//! that decides which tail percentile a sample can support, and the
//! best-slice estimator with its across-slice spread.

/// Sorts in place and returns the nearest-rank `p`-quantile (`0 < p <= 1`).
/// `NaN` on an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// Nearest-rank quantile of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank_of(p, sorted.len()) - 1]
}

/// 1-based nearest rank of the `p`-quantile in `n >= 1` samples. The epsilon
/// keeps a product such as `0.95 × 200` from rounding up to rank 191.
fn rank_of(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of a sample (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The percentiles a report may name, lowest first.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it in a sample of `n`: a tail read off fewer is one outlier's
/// position, not a property of the distribution. `None` under 20 samples,
/// where even the median has fewer than ten on each side.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n >= 1 && n >= rank_of(p, n) + 10)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The best of several per-slice (or per-repetition) readings of one metric,
/// and how far the slices disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Best {
    /// The best slice's reading: interference on a shared host only ever adds
    /// time, so the best slice is the one closest to the program's own cost.
    pub value: f64,
    /// Nearest-rank median of the readings.
    pub median: f64,
    /// `(max − min) / median` across slices, in percent: what "within noise"
    /// means for this metric in this run.
    pub spread_pct: f64,
}

/// Best slice and across-slice spread. `None` for an empty input.
pub fn best_of(readings: &[f64], better: Better) -> Option<Best> {
    let mut sorted = readings.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let (lo, hi) = (*sorted.first()?, *sorted.last()?);
    let mid = percentile_sorted(&sorted, 0.5);
    let value = match better {
        Better::Lower => lo,
        Better::Higher => hi,
    };
    let spread_pct = if mid.abs() > 0.0 {
        (hi - lo) / mid.abs() * 100.0
    } else {
        0.0
    };
    Some(Best {
        value,
        median: mid,
        spread_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        // p95 of 200 is rank 190: exactly ten beyond. One fewer sample and it
        // drops a rung.
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(199), Some(0.9));
        // p99 of 1000 is rank 990: ten beyond.
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        // The 300-batch load supports p95 but not p99.
        assert_eq!(supported_tail(300), Some(0.95));
    }

    #[test]
    fn best_slice_and_spread() {
        let lat = best_of(&[12.0, 10.0, 11.0, 15.0], Better::Lower).unwrap();
        assert_eq!(lat.value, 10.0);
        // Nearest-rank median of 4 is the 2nd: 11. Spread (15 − 10) / 11.
        assert!((lat.spread_pct - 5.0 / 11.0 * 100.0).abs() < 1e-9);
        let rate = best_of(&[900.0, 1000.0, 950.0], Better::Higher).unwrap();
        assert_eq!(rate.value, 1000.0);
        assert!((rate.spread_pct - 100.0 / 950.0 * 100.0).abs() < 1e-9);
        assert_eq!(
            best_of(&[7.0], Better::Lower),
            Some(Best {
                value: 7.0,
                median: 7.0,
                spread_pct: 0.0
            })
        );
        assert_eq!(best_of(&[], Better::Lower), None);
    }

    #[test]
    fn better_direction() {
        assert!(Better::Lower.beats(1.0, 2.0));
        assert!(!Better::Lower.beats(2.0, 2.0));
        assert!(Better::Higher.beats(3.0, 2.0));
    }
}

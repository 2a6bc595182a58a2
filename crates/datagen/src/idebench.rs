#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! IDEBench-style dataset scale-up \[22\].
//!
//! The paper scales Power and Flights to one billion rows with IDEBench and notes
//! (§6.3) that "IDEBench generates synthetic data by applying normalisation and
//! Gaussian models" — which is why DeepDB looks much better on IDEBench data than on
//! the real thing (Fig 10(d)). This module reproduces that mechanism: numeric
//! columns are z-normalised, their correlation matrix is estimated, and new rows are
//! drawn from the fitted multivariate Gaussian (Cholesky sampling), clamped to the
//! observed range; categorical columns are sampled from their marginal frequencies.
//! The result preserves means, variances and pairwise correlations while smoothing
//! away the irregular structure real data has — exactly the property the
//! real-vs-IDEBench experiment measures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ph_stats::gaussian;
use ph_types::{Column, ColumnType, Dataset};

/// Scales `seed_data` up (or down) to `target_rows` rows via the fitted
/// normalisation + Gaussian model. Deterministic in `seed`.
pub fn scale_up(seed_data: &Dataset, target_rows: usize, seed: u64) -> Dataset {
    let d = seed_data.n_columns();
    let mut rng = StdRng::seed_from_u64(seed);

    // Split columns into numeric (joint Gaussian) and categorical (marginal).
    let numeric_cols: Vec<usize> =
        (0..d).filter(|&c| seed_data.column(c).ty() != ColumnType::Categorical).collect();
    let stats: Vec<NumStats> = numeric_cols.iter().map(|&c| NumStats::fit(seed_data, c)).collect();
    let corr = correlation_matrix(seed_data, &numeric_cols, &stats);
    let chol = cholesky(&corr);

    let mut out_numeric: Vec<Vec<Option<f64>>> =
        vec![Vec::with_capacity(target_rows); numeric_cols.len()];
    let mut out_cat: Vec<Vec<Option<u32>>> = (0..d)
        .filter(|&c| seed_data.column(c).ty() == ColumnType::Categorical)
        .map(|_| Vec::with_capacity(target_rows))
        .collect();
    let cat_cols: Vec<usize> =
        (0..d).filter(|&c| seed_data.column(c).ty() == ColumnType::Categorical).collect();
    let cat_freqs: Vec<Vec<f64>> = cat_cols.iter().map(|&c| code_freqs(seed_data, c)).collect();
    let cat_null: Vec<f64> = cat_cols
        .iter()
        .map(|&c| 1.0 - seed_data.column(c).valid_count() as f64 / seed_data.n_rows().max(1) as f64)
        .collect();

    let k = numeric_cols.len();
    let mut z = vec![0.0; k];
    for _ in 0..target_rows {
        // Correlated standard normals via the Cholesky factor.
        let raw: Vec<f64> = (0..k).map(|_| gaussian(&mut rng)).collect();
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = (0..=i).map(|j| chol[i * k + j] * raw[j]).sum();
        }
        for (i, &zi) in z.iter().enumerate() {
            let s = &stats[i];
            if rng.gen_bool(s.null_frac) {
                out_numeric[i].push(None);
            } else {
                out_numeric[i].push(Some((s.mean + s.sd * zi).clamp(s.min, s.max)));
            }
        }
        for ((freqs, null_frac), out) in cat_freqs.iter().zip(&cat_null).zip(out_cat.iter_mut()) {
            if rng.gen_bool(*null_frac) {
                out.push(None);
            } else {
                out.push(Some(sample_code(&mut rng, freqs)));
            }
        }
    }

    // Reassemble in the original column order.
    let mut b = Dataset::builder(format!("{}-idebench", seed_data.name()));
    let mut num_iter = numeric_cols.iter().zip(out_numeric);
    let mut cat_iter = cat_cols.iter().zip(out_cat);
    let mut next_num = num_iter.next();
    let mut next_cat = cat_iter.next();
    for c in 0..d {
        let col = seed_data.column(c);
        if Some(c) == next_num.as_ref().map(|(&i, _)| i) {
            let (_, values) = next_num.take().unwrap();
            next_num = num_iter.next();
            let built = match col.ty() {
                ColumnType::Int => Column::from_ints(
                    col.name(),
                    values.into_iter().map(|v| v.map(|x| x.round() as i64)).collect(),
                ),
                ColumnType::Timestamp => Column::from_timestamps(
                    col.name(),
                    values.into_iter().map(|v| v.map(|x| x.round() as i64)).collect(),
                ),
                ColumnType::Float { scale } => Column::from_floats(col.name(), values, scale),
                ColumnType::Categorical => unreachable!(),
            };
            b = b.column(built).expect("fresh schema");
        } else {
            let (_, codes) = next_cat.take().unwrap();
            next_cat = cat_iter.next();
            let dict = col.dictionary().expect("categorical dictionary").to_vec();
            b = b.column(Column::from_codes(col.name(), codes, dict)).expect("fresh schema");
        }
    }
    b.build()
}

struct NumStats {
    mean: f64,
    sd: f64,
    min: f64,
    max: f64,
    null_frac: f64,
}

impl NumStats {
    fn fit(data: &Dataset, c: usize) -> Self {
        let col = data.column(c);
        let mut w = ph_stats::Welford::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for r in 0..data.n_rows() {
            if let Some(x) = col.numeric(r) {
                w.push(x);
                min = min.min(x);
                max = max.max(x);
            }
        }
        if w.count() == 0 {
            return Self { mean: 0.0, sd: 0.0, min: 0.0, max: 0.0, null_frac: 1.0 };
        }
        Self {
            mean: w.mean().unwrap(),
            sd: w.variance_population().unwrap().sqrt(),
            min,
            max,
            null_frac: 1.0 - w.count() as f64 / data.n_rows() as f64,
        }
    }
}

/// Pairwise Pearson correlations on z-scores, null pairs skipped.
fn correlation_matrix(data: &Dataset, cols: &[usize], stats: &[NumStats]) -> Vec<f64> {
    let k = cols.len();
    let mut m = vec![0.0; k * k];
    for i in 0..k {
        m[i * k + i] = 1.0;
        for j in 0..i {
            let (ci, cj) = (data.column(cols[i]), data.column(cols[j]));
            let (si, sj) = (&stats[i], &stats[j]);
            let mut n = 0.0;
            let mut acc = 0.0;
            for r in 0..data.n_rows() {
                if let (Some(a), Some(b)) = (ci.numeric(r), cj.numeric(r)) {
                    if si.sd > 0.0 && sj.sd > 0.0 {
                        acc += (a - si.mean) / si.sd * ((b - sj.mean) / sj.sd);
                        n += 1.0;
                    }
                }
            }
            let r = if n > 1.0 { (acc / n).clamp(-0.999, 0.999) } else { 0.0 };
            m[i * k + j] = r;
            m[j * k + i] = r;
        }
    }
    m
}

/// Cholesky factorisation with diagonal jitter for near-singular inputs.
fn cholesky(a: &[f64]) -> Vec<f64> {
    let k = (a.len() as f64).sqrt() as usize;
    let mut l = vec![0.0; k * k];
    for i in 0..k {
        for j in 0..=i {
            let mut sum = a[i * k + j];
            for p in 0..j {
                sum -= l[i * k + p] * l[j * k + p];
            }
            if i == j {
                l[i * k + j] = sum.max(1e-9).sqrt();
            } else {
                l[i * k + j] = sum / l[j * k + j];
            }
        }
    }
    l
}

fn code_freqs(data: &Dataset, c: usize) -> Vec<f64> {
    let col = data.column(c);
    let k = col.dictionary().map_or(0, |d| d.len());
    let mut freq = vec![0.0; k.max(1)];
    for r in 0..data.n_rows() {
        if let Some(code) = col.code(r) {
            freq[code as usize] += 1.0;
        }
    }
    let total: f64 = freq.iter().sum();
    if total > 0.0 {
        for f in &mut freq {
            *f /= total;
        }
    }
    freq
}

fn sample_code(rng: &mut StdRng, freqs: &[f64]) -> u32 {
    let mut u: f64 = rng.gen();
    for (code, &f) in freqs.iter().enumerate() {
        if u < f {
            return code as u32;
        }
        u -= f;
    }
    (freqs.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::generate;

    #[test]
    fn preserves_moments_and_correlations() {
        let seed = generate("Power", 20_000, 1).unwrap();
        let scaled = scale_up(&seed, 40_000, 2);
        assert_eq!(scaled.n_rows(), 40_000);
        assert_eq!(scaled.n_columns(), seed.n_columns());
        // Mean of active power preserved within a few percent.
        let col_orig = seed.column_by_name("global_active_power").unwrap();
        let col_new = scaled.column_by_name("global_active_power").unwrap();
        let mean = |c: &ph_types::Column, n: usize| {
            let mut w = ph_stats::Welford::new();
            for r in 0..n {
                if let Some(x) = c.numeric(r) {
                    w.push(x);
                }
            }
            w.mean().unwrap()
        };
        let m0 = mean(col_orig, seed.n_rows());
        let m1 = mean(col_new, scaled.n_rows());
        assert!((m0 - m1).abs() / m0 < 0.05, "{m0} vs {m1}");
    }

    #[test]
    fn smooths_away_bimodality() {
        // Furnace loads are bimodal (8 W vs 950 W); the Gaussian model produces
        // mid-range values that never occur in the source — the "well-behaved"
        // smoothing DeepDB benefits from in Fig 10(d).
        let seed = generate("Furnace", 10_000, 3).unwrap();
        let scaled = scale_up(&seed, 10_000, 4);
        let ch = scaled.column_by_name("ch01").unwrap();
        let mid = (0..scaled.n_rows())
            .filter_map(|r| ch.numeric(r))
            .filter(|&v| (100.0..300.0).contains(&v))
            .count();
        assert!(mid > 500, "Gaussian scale-up should fill the gap, got {mid} mid-range");
    }

    #[test]
    fn categorical_frequencies_preserved() {
        let seed = generate("Taxis", 10_000, 5).unwrap();
        let scaled = scale_up(&seed, 20_000, 6);
        let freq = |d: &Dataset| {
            let c = d.column_by_name("payment_type").unwrap();
            let mut f = vec![0.0; 6];
            for r in 0..d.n_rows() {
                if let Some(code) = c.code(r) {
                    f[code as usize] += 1.0;
                }
            }
            let t: f64 = f.iter().sum();
            f.into_iter().map(|x| x / t).collect::<Vec<_>>()
        };
        let (f0, f1) = (freq(&seed), freq(&scaled));
        for (a, b) in f0.iter().zip(&f1) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let seed = generate("Light", 2_000, 7).unwrap();
        assert_eq!(scale_up(&seed, 1_000, 9), scale_up(&seed, 1_000, 9));
    }
}

//! Classical uniform-sampling AQP with CLT confidence bounds.

use ph_sql::{AggFunc, Query};
use ph_stats::{normal_quantile, Welford};
use ph_types::Dataset;

use crate::{AqpBaseline, Estimate, Unsupported};

/// Construction parameters for the sampling baseline.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Rows to sample.
    pub sample_n: usize,
    /// Sampling seed (deterministic).
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self { sample_n: 100_000, seed: 0x5341_4d50 }
    }
}

/// Uniform row sample + scan-time estimation (the classical AQP recipe behind
/// BlinkDB/VerdictDB-style systems).
///
/// COUNT and SUM estimates scale by `1/ρ`; confidence bounds come from the central
/// limit theorem with the finite-population correction. MIN/MAX/MEDIAN are the sample
/// statistics (no useful CLT bounds exist for extremes — the usual sampling-AQP
/// weakness the paper contrasts with histogram synopses' outlier recall).
#[derive(Debug, Clone)]
pub struct SamplingAqp {
    sample: Dataset,
    n_total: usize,
    z: f64,
}

impl SamplingAqp {
    /// Draws a uniform sample of `data` per `cfg` (deterministic in the seed).
    pub fn build(data: &Dataset, cfg: &SamplingConfig) -> Self {
        Self {
            sample: data.sample(cfg.sample_n, cfg.seed),
            n_total: data.n_rows(),
            z: normal_quantile(0.99),
        }
    }

    /// Resolves a query against the sample schema, rejecting everything `execute`
    /// cannot answer — the single source of truth for both `AqpEngine::prepare`
    /// and the scan itself.
    fn resolve(
        &self,
        query: &Query,
    ) -> Result<(usize, Option<ph_exact::CompiledPredicate>), Unsupported> {
        if query.group_by.is_some() {
            return Err(Unsupported::Shape("GROUP BY handled per-group by the harness".into()));
        }
        let agg_col = self
            .sample
            .column_index(&query.column)
            .map_err(|e| Unsupported::Invalid(e.to_string()))?;
        let pred = match &query.predicate {
            Some(p) => Some(
                ph_exact::CompiledPredicate::compile(p, &self.sample)
                    .map_err(|e| Unsupported::Invalid(e.to_string()))?,
            ),
            None => None,
        };
        Ok((agg_col, pred))
    }

    /// The cheap shape check behind `AqpEngine::prepare`.
    fn validate(&self, query: &Query) -> Result<(), Unsupported> {
        self.resolve(query).map(|_| ())
    }

    /// Sampling ratio `ρ`.
    pub fn rho(&self) -> f64 {
        (self.sample.n_rows() as f64 / self.n_total as f64).min(1.0)
    }

    fn fpc(&self) -> f64 {
        let n = self.n_total as f64;
        let ns = self.sample.n_rows() as f64;
        if ns >= n || n <= 1.0 {
            0.0
        } else {
            (n - ns) / (n - 1.0)
        }
    }
}

impl AqpBaseline for SamplingAqp {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn execute(&self, query: &Query) -> Result<Estimate, Unsupported> {
        let (agg_col, pred) = self.resolve(query)?;

        let ns = self.sample.n_rows();
        let col = self.sample.column(agg_col);
        let rho = self.rho();
        let fpc = self.fpc();

        // One scan: matched non-null values + the per-row contribution accumulator
        // needed for the CLT standard error of the scaled estimators.
        let mut matched: Vec<f64> = Vec::new();
        let mut contrib = Welford::new(); // per-sample-row contribution (0 for misses)
        for r in 0..ns {
            let pass = pred.as_ref().is_none_or(|p| p.eval(&self.sample, r));
            let v = if col.ty() == ph_types::ColumnType::Categorical {
                col.is_valid(r).then_some(0.0)
            } else {
                col.numeric(r)
            };
            match (pass, v) {
                (true, Some(x)) => {
                    matched.push(x);
                    contrib.push(match query.agg {
                        AggFunc::Count => 1.0,
                        AggFunc::Sum => x,
                        _ => 1.0,
                    });
                }
                _ => contrib.push(0.0),
            }
        }
        let m = matched.len() as f64;

        let approx = match query.agg {
            AggFunc::Count | AggFunc::Sum => {
                let est = contrib.mean().unwrap_or(0.0) * ns as f64 / rho;
                let sd = contrib.variance_sample().unwrap_or(0.0).sqrt();
                let se = sd * (ns as f64).sqrt() / rho * fpc.sqrt();
                Estimate::with_bounds(est, est - self.z * se, est + self.z * se)
            }
            AggFunc::Avg => {
                if matched.is_empty() {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                let mut w = Welford::new();
                for &x in &matched {
                    w.push(x);
                }
                let est = w.mean().unwrap();
                let se = (w.variance_sample().unwrap_or(0.0) / m).sqrt() * fpc.sqrt();
                Estimate::with_bounds(est, est - self.z * se, est + self.z * se)
            }
            AggFunc::Var => {
                if matched.is_empty() {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                let mut w = Welford::new();
                for &x in &matched {
                    w.push(x);
                }
                let est = w.variance_population().unwrap();
                // Asymptotic se of the variance under normality: var·√(2/m).
                let se = est * (2.0 / m).sqrt();
                Estimate::with_bounds(est, (est - self.z * se).max(0.0), est + self.z * se)
            }
            AggFunc::Min | AggFunc::Max => {
                if matched.is_empty() {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                let est = matched.iter().copied().fold(
                    if query.agg == AggFunc::Min { f64::INFINITY } else { f64::NEG_INFINITY },
                    |a, b| {
                        if query.agg == AggFunc::Min {
                            a.min(b)
                        } else {
                            a.max(b)
                        }
                    },
                );
                Estimate::unbounded(est)
            }
            AggFunc::Median => {
                if matched.is_empty() {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                matched.sort_by(|a, b| a.total_cmp(b));
                let mid = matched.len() / 2;
                let est = if matched.len() % 2 == 1 {
                    matched[mid]
                } else {
                    0.5 * (matched[mid - 1] + matched[mid])
                };
                // Order-statistic confidence interval: ranks m/2 ± z√m/2.
                let spread = (self.z * m.sqrt() / 2.0).ceil() as usize;
                let lo_idx = mid.saturating_sub(spread);
                let hi_idx = (mid + spread).min(matched.len() - 1);
                Estimate::with_bounds(est, matched[lo_idx], matched[hi_idx])
            }
        };
        Ok(approx)
    }

    fn size_bytes(&self) -> usize {
        self.sample.heap_size()
    }
}

crate::baseline_engine!(SamplingAqp);

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sql::parse_query;
    use ph_types::Column;
    use rand::{Rng, SeedableRng};

    fn data(n: usize) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        Dataset::builder("t")
            .column(Column::from_ints("x", (0..n).map(|_| Some(rng.gen_range(0..1000))).collect()))
            .unwrap()
            .build()
    }

    #[test]
    fn count_estimate_and_bounds() {
        let d = data(100_000);
        let s = SamplingAqp::build(&d, &SamplingConfig { sample_n: 10_000, seed: 1 });
        let q = parse_query("SELECT COUNT(x) FROM t WHERE x < 500").unwrap();
        let a = s.execute(&q).unwrap();
        let truth = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
        assert!((a.value - truth).abs() / truth < 0.05, "{} vs {truth}", a.value);
        assert!(a.contains(truth), "CLT bounds should contain the truth");
    }

    #[test]
    fn avg_tracks_truth() {
        let d = data(50_000);
        let s = SamplingAqp::build(&d, &SamplingConfig { sample_n: 5_000, seed: 2 });
        let q = parse_query("SELECT AVG(x) FROM t WHERE x >= 250").unwrap();
        let a = s.execute(&q).unwrap();
        let truth = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
        assert!((a.value - truth).abs() / truth < 0.03);
    }

    #[test]
    fn full_sample_has_zero_width_count_bounds() {
        let d = data(1_000);
        let s = SamplingAqp::build(&d, &SamplingConfig { sample_n: 1_000, seed: 3 });
        let q = parse_query("SELECT COUNT(x) FROM t").unwrap();
        let a = s.execute(&q).unwrap();
        assert_eq!(a.value, 1000.0);
        assert_eq!(a.lo, a.hi, "fpc = 0 for a full sample");
    }

    #[test]
    fn min_is_biased_upward_on_small_samples() {
        // The classical sampling failure: sample MIN >= true MIN always.
        let d = data(100_000);
        let s = SamplingAqp::build(&d, &SamplingConfig { sample_n: 100, seed: 4 });
        let q = parse_query("SELECT MIN(x) FROM t").unwrap();
        let a = s.execute(&q).unwrap();
        let truth = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
        assert!(a.value >= truth);
    }

    #[test]
    fn empty_selection_unsupported_for_avg() {
        let d = data(1_000);
        let s = SamplingAqp::build(&d, &SamplingConfig { sample_n: 1_000, seed: 5 });
        let q = parse_query("SELECT AVG(x) FROM t WHERE x > 99999").unwrap();
        assert!(s.execute(&q).is_err());
    }
}

//! A DBEst-style per-query-template baseline [21, 40]: kernel density estimation of
//! the predicate column plus piecewise regression of the aggregate column.
//!
//! DBEst/DBEst++ train **one model per query template** `(aggregation column,
//! predicate column)` — the structural property behind the paper's storage
//! accounting ("we include all DBEst++ models required to support the same queries
//! as PairwiseHist", §6) and its construction-time blowup. The paper's §2 catalogue
//! of DBEst++ limitations is reproduced here:
//!
//! * no queries involving more than two columns;
//! * no OR between predicates;
//! * no queries on only categorical columns;
//! * no inequality predicates on date/time columns;
//! * no MIN/MAX/MEDIAN (VAR is answered, with the large errors Table 5 shows).

use std::collections::HashMap;

use ph_sql::{AggFunc, CmpOp, Predicate, Query};
use ph_types::{ColumnType, Dataset};

use crate::{AqpBaseline, Estimate, Unsupported};

/// Training parameters, including the query templates to train models for.
#[derive(Debug, Clone)]
pub struct KdeConfig {
    /// Sample size per template.
    pub sample_n: usize,
    /// Density grid resolution.
    pub grid: usize,
    /// Regression bin count.
    pub reg_bins: usize,
    /// Sampling seed.
    pub seed: u64,
    /// `(aggregation column, predicate column)` templates to train. Empty means
    /// "every ordered pair of numeric columns" — the exhaustive model set the
    /// paper charges DBEst++ with when sizing it against PairwiseHist (§6), at the
    /// corresponding construction cost.
    pub templates: Vec<(String, String)>,
}

impl Default for KdeConfig {
    fn default() -> Self {
        Self { sample_n: 10_000, grid: 256, reg_bins: 64, seed: 0x4b44_4521, templates: Vec::new() }
    }
}

impl KdeConfig {
    /// Default parameters with an explicit template list.
    pub fn for_templates(templates: &[(&str, &str)]) -> Self {
        Self {
            templates: templates.iter().map(|&(a, p)| (a.to_string(), p.to_string())).collect(),
            ..Default::default()
        }
    }
}

/// One trained template: density of the predicate column + regressions of the
/// aggregate column on it.
#[derive(Debug, Clone)]
struct TemplateModel {
    lo: f64,
    hi: f64,
    /// Normalised density over `grid` cells (sums to 1).
    density: Vec<f64>,
    /// `E[agg | pred ∈ reg bin]`.
    reg_mean: Vec<f64>,
    /// `E[agg² | pred ∈ reg bin]`.
    reg_meansq: Vec<f64>,
    /// Fraction of rows with both columns non-null.
    valid_frac: f64,
}

/// The DBEst-style engine: a set of per-template models over one table.
#[derive(Debug, Clone)]
pub struct KdeAqp {
    models: HashMap<(usize, usize), TemplateModel>,
    names: Vec<String>,
    types: Vec<ColumnType>,
    n_total: usize,
    grid: usize,
}

impl KdeAqp {
    /// Trains one model per `(aggregation column, predicate column)` template in
    /// `cfg.templates` (every ordered numeric pair when the list is empty).
    ///
    /// Template columns must be numeric; categorical-only templates are skipped
    /// (DBEst++ cannot answer them anyway).
    pub fn build(data: &Dataset, cfg: &KdeConfig) -> Self {
        let sample = data.sample(cfg.sample_n, cfg.seed);
        let templates: Vec<(String, String)> = if cfg.templates.is_empty() {
            let numeric: Vec<&str> =
                data.columns().iter().filter(|c| c.ty().is_numeric()).map(|c| c.name()).collect();
            numeric
                .iter()
                .flat_map(|&a| numeric.iter().map(move |&p| (a.to_string(), p.to_string())))
                .collect()
        } else {
            cfg.templates.clone()
        };
        let mut models = HashMap::new();
        for (agg_name, pred_name) in &templates {
            let (Ok(agg), Ok(pred)) =
                (sample.column_index(agg_name), sample.column_index(pred_name))
            else {
                continue;
            };
            if !sample.column(agg).ty().is_numeric() || !sample.column(pred).ty().is_numeric() {
                continue;
            }
            if models.contains_key(&(agg, pred)) {
                continue;
            }
            if let Some(model) = train(&sample, agg, pred, cfg) {
                models.insert((agg, pred), model);
            }
        }
        Self {
            models,
            names: data.columns().iter().map(|c| c.name().to_string()).collect(),
            types: data.columns().iter().map(|c| c.ty()).collect(),
            n_total: data.n_rows(),
            grid: cfg.grid,
        }
    }

    /// Number of trained templates.
    pub fn n_models(&self) -> usize {
        self.models.len()
    }

    /// Resolves a query to its trained template and predicate interval, rejecting
    /// every shape DBEst++ cannot express — the full check `AqpEngine::prepare`
    /// runs, and the front half of `execute`.
    fn resolve(&self, query: &Query) -> Result<(&TemplateModel, f64, f64), Unsupported> {
        if query.group_by.is_some() {
            return Err(Unsupported::Shape("GROUP BY not supported".into()));
        }
        match query.agg {
            AggFunc::Count | AggFunc::Sum | AggFunc::Avg | AggFunc::Var => {}
            other => return Err(Unsupported::Aggregate(other.name().into())),
        }
        let agg = self
            .names
            .iter()
            .position(|n| n == &query.column)
            .ok_or_else(|| Unsupported::Invalid(format!("unknown column {}", query.column)))?;
        if self.types[agg] == ColumnType::Categorical {
            return Err(Unsupported::Shape("categorical-only queries not supported".into()));
        }

        // Predicate shape: a conjunction over exactly one (numeric, non-timestamp-
        // inequality) column — DBEst's two-column template limit.
        let Some(pred) = &query.predicate else {
            return Err(Unsupported::Shape("DBEst templates need a predicate".into()));
        };
        if pred.has_or() {
            return Err(Unsupported::OrPredicate);
        }
        let cols = pred.columns();
        if cols.len() != 1 {
            return Err(Unsupported::Shape(format!(
                "{} predicate columns; templates support one",
                cols.len()
            )));
        }
        let pcol = self
            .names
            .iter()
            .position(|n| n == cols[0])
            .ok_or_else(|| Unsupported::Invalid(format!("unknown column {}", cols[0])))?;
        if self.types[pcol] == ColumnType::Categorical {
            return Err(Unsupported::Shape("categorical predicate columns not supported".into()));
        }
        let (mut a, mut b) = (f64::NEG_INFINITY, f64::INFINITY);
        collect_interval(pred, self.types[pcol], &mut a, &mut b)?;
        let model = self
            .models
            .get(&(agg, pcol))
            .ok_or_else(|| Unsupported::Shape("no model trained for this template".into()))?;
        Ok((model, a, b))
    }

    /// The cheap shape check behind `AqpEngine::prepare`.
    fn validate(&self, query: &Query) -> Result<(), Unsupported> {
        self.resolve(query).map(|_| ())
    }
}

/// Fits the KDE + regressions for one template from rows where both columns are
/// non-null.
fn train(sample: &Dataset, agg: usize, pred: usize, cfg: &KdeConfig) -> Option<TemplateModel> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let (ca, cp) = (sample.column(agg), sample.column(pred));
    for r in 0..sample.n_rows() {
        if let (Some(y), Some(x)) = (ca.numeric(r), cp.numeric(r)) {
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.len() < 30 {
        return None;
    }
    let n = xs.len() as f64;
    let valid_frac = n / sample.n_rows() as f64;
    let (lo, hi) =
        xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| (a.min(v), b.max(v)));
    let hi = hi.max(lo + 1e-9);

    // Silverman bandwidth.
    let mean = xs.iter().sum::<f64>() / n;
    let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n)
        .sqrt()
        .max((hi - lo) / 1000.0);
    let h = 1.06 * sd * n.powf(-0.2);

    // Gaussian KDE evaluated at grid cell centres (the deliberate O(n·grid) training
    // cost that dominates DBEst construction).
    let g = cfg.grid;
    let width = (hi - lo) / g as f64;
    let mut density = vec![0.0; g];
    let inv = 1.0 / (h * (2.0 * std::f64::consts::PI).sqrt());
    for (b, d) in density.iter_mut().enumerate() {
        let centre = lo + (b as f64 + 0.5) * width;
        let mut acc = 0.0;
        for &x in &xs {
            let z = (centre - x) / h;
            acc += (-0.5 * z * z).exp();
        }
        *d = acc * inv / n;
    }
    // Normalise cell masses to sum to 1.
    let total: f64 = density.iter().map(|d| d * width).sum();
    if total > 0.0 {
        for d in &mut density {
            *d = *d * width / total;
        }
    }

    // Piecewise regression of agg on pred.
    let rb = cfg.reg_bins;
    let rw = (hi - lo) / rb as f64;
    let mut sums = vec![0.0; rb];
    let mut sumsq = vec![0.0; rb];
    let mut counts = vec![0.0; rb];
    for (&x, &y) in xs.iter().zip(&ys) {
        let b = (((x - lo) / rw) as usize).min(rb - 1);
        sums[b] += y;
        sumsq[b] += y * y;
        counts[b] += 1.0;
    }
    let global_mean = ys.iter().sum::<f64>() / n;
    let global_meansq = ys.iter().map(|y| y * y).sum::<f64>() / n;
    let reg_mean: Vec<f64> =
        (0..rb).map(|b| if counts[b] > 0.0 { sums[b] / counts[b] } else { global_mean }).collect();
    let reg_meansq: Vec<f64> = (0..rb)
        .map(|b| if counts[b] > 0.0 { sumsq[b] / counts[b] } else { global_meansq })
        .collect();
    Some(TemplateModel { lo, hi, density, reg_mean, reg_meansq, valid_frac })
}

impl TemplateModel {
    /// Integrates `(mass, mass·E[y], mass·E[y²])` over `pred ∈ [a, b]`.
    fn integrate(&self, a: f64, b: f64) -> (f64, f64, f64) {
        let g = self.density.len();
        let width = (self.hi - self.lo) / g as f64;
        let rb = self.reg_mean.len();
        let rw = (self.hi - self.lo) / rb as f64;
        let mut mass = 0.0;
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for (cell, &p) in self.density.iter().enumerate() {
            let c_lo = self.lo + cell as f64 * width;
            let c_hi = c_lo + width;
            let o_lo = c_lo.max(a);
            let o_hi = c_hi.min(b);
            if o_hi <= o_lo {
                continue;
            }
            let frac = (o_hi - o_lo) / width;
            let centre = 0.5 * (o_lo + o_hi);
            let r = (((centre - self.lo) / rw) as usize).min(rb - 1);
            mass += p * frac;
            m1 += p * frac * self.reg_mean[r];
            m2 += p * frac * self.reg_meansq[r];
        }
        (mass, m1, m2)
    }
}

impl AqpBaseline for KdeAqp {
    fn name(&self) -> &'static str {
        "kde"
    }

    fn execute(&self, query: &Query) -> Result<Estimate, Unsupported> {
        let (model, a, b) = self.resolve(query)?;
        let (mass, m1, m2) = model.integrate(a.max(model.lo), b.min(model.hi));
        let scale = self.n_total as f64 * model.valid_frac;
        let out = match query.agg {
            AggFunc::Count => mass * scale,
            AggFunc::Sum => m1 * scale,
            AggFunc::Avg => {
                if mass <= 1e-12 {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                m1 / mass
            }
            AggFunc::Var => {
                if mass <= 1e-12 {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                let mean = m1 / mass;
                (m2 / mass - mean * mean).max(0.0)
            }
            _ => unreachable!(),
        };
        // DBEst++ provides no error bounds (Table 1).
        Ok(Estimate::unbounded(out))
    }

    fn size_bytes(&self) -> usize {
        // Grid + two regressions + constants, per model.
        self.models.len() * (self.grid * 8 + 2 * 64 * 8 + 48)
    }
}

crate::baseline_engine!(KdeAqp);

/// Collects a conjunctive interval on the single predicate column, rejecting the
/// shapes DBEst++ cannot express.
fn collect_interval(
    pred: &Predicate,
    ty: ColumnType,
    lo: &mut f64,
    hi: &mut f64,
) -> Result<(), Unsupported> {
    match pred {
        Predicate::Or(_) => Err(Unsupported::OrPredicate),
        Predicate::And(children) => {
            for c in children {
                collect_interval(c, ty, lo, hi)?;
            }
            Ok(())
        }
        Predicate::Cond(c) => {
            if ty == ColumnType::Timestamp && c.op != CmpOp::Eq {
                return Err(Unsupported::Shape(
                    "inequality predicates on date/time columns not supported".into(),
                ));
            }
            let lit = c.value.as_f64().ok_or_else(|| {
                Unsupported::Invalid(format!("non-numeric literal on {}", c.column))
            })?;
            match c.op {
                CmpOp::Lt => *hi = hi.min(lit - 1e-9),
                CmpOp::Le => *hi = hi.min(lit),
                CmpOp::Gt => *lo = lo.max(lit + 1e-9),
                CmpOp::Ge => *lo = lo.max(lit),
                CmpOp::Eq => {
                    *lo = lo.max(lit - 0.5);
                    *hi = hi.min(lit + 0.5);
                }
                CmpOp::Ne => {
                    return Err(Unsupported::Shape("<> not expressible in a template".into()))
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sql::parse_query;
    use ph_types::Column;
    use rand::{Rng, SeedableRng};

    fn data(n: usize) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let x: Vec<Option<i64>> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                Some((u * u * 1000.0) as i64)
            })
            .collect();
        let y: Vec<Option<i64>> =
            x.iter().map(|v| Some(v.unwrap() * 3 + rng.gen_range(0..100))).collect();
        let t: Vec<Option<i64>> = (0..n).map(|i| Some(1_600_000_000 + i as i64)).collect();
        Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .column(Column::from_timestamps("ts", t))
            .unwrap()
            .build()
    }

    fn build(d: &Dataset) -> KdeAqp {
        KdeAqp::build(
            d,
            &KdeConfig {
                sample_n: d.n_rows(),
                ..KdeConfig::for_templates(&[("y", "x"), ("x", "x"), ("x", "ts")])
            },
        )
    }

    #[test]
    fn count_and_avg_track_truth() {
        let d = data(20_000);
        let kde = build(&d);
        // Tolerances are loose: Silverman-bandwidth KDE over-smooths skewed data,
        // which is exactly the mediocre-accuracy behaviour the paper reports for
        // DBEst-style engines.
        for (sql, tol) in [
            ("SELECT COUNT(y) FROM t WHERE x > 500", 0.12),
            ("SELECT AVG(y) FROM t WHERE x > 250 AND x < 750", 0.08),
            ("SELECT SUM(y) FROM t WHERE x <= 400", 0.12),
        ] {
            let q = parse_query(sql).unwrap();
            let a = kde.execute(&q).unwrap();
            let t = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
            let rel = (a.value - t).abs() / t.abs();
            assert!(rel < tol, "{sql}: {} vs {t} ({rel})", a.value);
        }
    }

    #[test]
    fn unsupported_shapes_match_dbest_limitations() {
        let d = data(5_000);
        let kde = build(&d);
        // OR.
        let q = parse_query("SELECT COUNT(y) FROM t WHERE x < 10 OR x > 900").unwrap();
        assert_eq!(kde.execute(&q), Err(Unsupported::OrPredicate));
        // More than one predicate column (3-column query).
        let q = parse_query("SELECT COUNT(y) FROM t WHERE x > 1 AND ts > 5").unwrap();
        assert!(matches!(kde.execute(&q), Err(Unsupported::Shape(_))));
        // Inequality on a timestamp.
        let q = parse_query("SELECT COUNT(x) FROM t WHERE ts > 1600000500").unwrap();
        assert!(matches!(kde.execute(&q), Err(Unsupported::Shape(_))));
        // MIN/MAX/MEDIAN.
        let q = parse_query("SELECT MIN(y) FROM t WHERE x > 10").unwrap();
        assert!(matches!(kde.execute(&q), Err(Unsupported::Aggregate(_))));
        // No predicate at all.
        let q = parse_query("SELECT COUNT(y) FROM t").unwrap();
        assert!(matches!(kde.execute(&q), Err(Unsupported::Shape(_))));
    }

    #[test]
    fn missing_template_is_reported() {
        let d = data(5_000);
        let kde = KdeAqp::build(&d, &KdeConfig::for_templates(&[("y", "x")]));
        let q = parse_query("SELECT COUNT(x) FROM t WHERE y > 100").unwrap();
        assert!(matches!(kde.execute(&q), Err(Unsupported::Shape(_))));
    }

    #[test]
    fn storage_grows_with_templates() {
        let d = data(5_000);
        let one = KdeAqp::build(&d, &KdeConfig::for_templates(&[("y", "x")]));
        let three = build(&d);
        assert!(three.n_models() > one.n_models());
        assert!(three.size_bytes() > one.size_bytes());
    }

    #[test]
    fn var_is_supported_but_weak() {
        // The paper's Table 5 shows DBEst++ VAR errors near 100%; ours only needs to
        // be defined, not good.
        let d = data(10_000);
        let kde = build(&d);
        let q = parse_query("SELECT VAR(y) FROM t WHERE x > 100").unwrap();
        assert!(kde.execute(&q).unwrap().value >= 0.0);
    }
}

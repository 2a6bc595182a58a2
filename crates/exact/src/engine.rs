//! Query evaluation over a dataset.

use std::collections::BTreeMap;
use std::fmt;

use ph_sql::{AggFunc, Query};
use ph_types::{ColumnType, Dataset};

use crate::predicate::CompiledPredicate;

/// Errors raised during exact evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactError {
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A predicate is ill-typed for its column.
    InvalidPredicate(String),
    /// GROUP BY on a non-categorical column.
    BadGroupBy(String),
    /// Aggregating a categorical column with a numeric aggregate.
    BadAggregate(String),
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ExactError::InvalidPredicate(d) => write!(f, "invalid predicate: {d}"),
            ExactError::BadGroupBy(c) => {
                write!(f, "GROUP BY requires a categorical column, got '{c}'")
            }
            ExactError::BadAggregate(d) => write!(f, "invalid aggregate: {d}"),
        }
    }
}

impl std::error::Error for ExactError {}

/// Result of exact evaluation: a scalar, or one value per group.
///
/// `None` values mirror SQL NULL results (e.g. `AVG` over an empty selection).
#[derive(Debug, Clone, PartialEq)]
pub enum ExactAnswer {
    /// Non-grouped query result.
    Scalar(Option<f64>),
    /// `GROUP BY` results keyed by group label, only for groups with at least one
    /// satisfying row.
    Groups(BTreeMap<String, Option<f64>>),
}

impl ExactAnswer {
    /// The scalar value, if this is a scalar answer.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            ExactAnswer::Scalar(v) => *v,
            ExactAnswer::Groups(_) => None,
        }
    }
}

/// Evaluates `query` exactly against `data`.
pub fn evaluate(query: &Query, data: &Dataset) -> Result<ExactAnswer, ExactError> {
    let agg_col = data
        .column_index(&query.column)
        .map_err(|_| ExactError::UnknownColumn(query.column.clone()))?;
    if data.column(agg_col).ty() == ColumnType::Categorical && query.agg != AggFunc::Count {
        return Err(ExactError::BadAggregate(format!(
            "{} on categorical column '{}'",
            query.agg, query.column
        )));
    }

    let pred = match &query.predicate {
        Some(p) => Some(CompiledPredicate::compile(p, data)?),
        None => None,
    };

    match &query.group_by {
        None => {
            let mut acc = Accumulator::new(query.agg);
            scan(data, agg_col, &pred, |x| acc.push(x));
            Ok(ExactAnswer::Scalar(acc.finish()))
        }
        Some(g) => {
            let gcol = data.column_index(g).map_err(|_| ExactError::UnknownColumn(g.clone()))?;
            let group = data.column(gcol);
            if group.ty() != ColumnType::Categorical {
                return Err(ExactError::BadGroupBy(g.clone()));
            }
            let dict = group.dictionary().expect("categorical dictionary").to_vec();
            let mut accs: Vec<Option<Accumulator>> = vec![None; dict.len()];
            let agg = data.column(agg_col);
            for r in 0..data.n_rows() {
                if let Some(p) = &pred {
                    if !p.eval(data, r) {
                        continue;
                    }
                }
                let Some(code) = group.code(r) else { continue };
                let acc = accs[code as usize].get_or_insert_with(|| Accumulator::new(query.agg));
                if let Some(x) = agg.numeric(r) {
                    acc.push(x);
                } else if agg.is_valid(r) {
                    // Categorical aggregation column under COUNT: non-null counts.
                    acc.push(0.0);
                }
            }
            let mut out = BTreeMap::new();
            for (code, acc) in accs.into_iter().enumerate() {
                if let Some(acc) = acc {
                    out.insert(dict[code].clone(), acc.finish());
                }
            }
            Ok(ExactAnswer::Groups(out))
        }
    }
}

/// Scans rows passing the predicate, feeding non-null aggregation values to `f`.
fn scan(data: &Dataset, agg_col: usize, pred: &Option<CompiledPredicate>, mut f: impl FnMut(f64)) {
    let col = data.column(agg_col);
    let categorical = col.ty() == ColumnType::Categorical;
    for r in 0..data.n_rows() {
        if let Some(p) = pred {
            if !p.eval(data, r) {
                continue;
            }
        }
        if categorical {
            if col.is_valid(r) {
                f(0.0);
            }
        } else if let Some(x) = col.numeric(r) {
            f(x);
        }
    }
}

/// Streaming aggregate accumulator (MEDIAN buffers values; everything else is O(1)
/// state).
#[derive(Debug, Clone)]
struct Accumulator {
    agg: AggFunc,
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    values: Vec<f64>,
}

impl Accumulator {
    fn new(agg: AggFunc) -> Self {
        Self {
            agg,
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            values: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, x: f64) {
        self.n += 1;
        match self.agg {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sum += x,
            AggFunc::Var => {
                self.sum += x;
                self.sum_sq += x * x;
            }
            AggFunc::Min => self.min = self.min.min(x),
            AggFunc::Max => self.max = self.max.max(x),
            AggFunc::Median => self.values.push(x),
        }
    }

    fn finish(mut self) -> Option<f64> {
        if self.agg == AggFunc::Count {
            return Some(self.n as f64);
        }
        if self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        Some(match self.agg {
            AggFunc::Count => unreachable!(),
            AggFunc::Sum => self.sum,
            AggFunc::Avg => self.sum / n,
            AggFunc::Var => {
                let mean = self.sum / n;
                (self.sum_sq / n - mean * mean).max(0.0)
            }
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Median => {
                let v = &mut self.values;
                let mid = v.len() / 2;
                let (_, m, _) = v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
                let hi = *m;
                if v.len() % 2 == 1 {
                    hi
                } else {
                    let lo = v[..mid].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    0.5 * (lo + hi)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sql::parse_query;
    use ph_types::Column;

    fn data() -> Dataset {
        Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(1), Some(2), Some(3), Some(4), None, Some(6)]))
            .unwrap()
            .column(Column::from_strings(
                "g",
                vec![Some("a"), Some("a"), Some("b"), Some("b"), Some("b"), None],
            ))
            .unwrap()
            .build()
    }

    fn run(sql: &str) -> ExactAnswer {
        evaluate(&parse_query(sql).unwrap(), &data()).unwrap()
    }

    #[test]
    fn count_ignores_null_agg_values() {
        assert_eq!(run("SELECT COUNT(x) FROM t"), ExactAnswer::Scalar(Some(5.0)));
    }

    #[test]
    fn sum_avg_min_max() {
        assert_eq!(run("SELECT SUM(x) FROM t").scalar(), Some(16.0));
        assert_eq!(run("SELECT AVG(x) FROM t").scalar(), Some(3.2));
        assert_eq!(run("SELECT MIN(x) FROM t").scalar(), Some(1.0));
        assert_eq!(run("SELECT MAX(x) FROM t").scalar(), Some(6.0));
    }

    #[test]
    fn median_even_and_odd() {
        // Values 1,2,3,4,6 -> median 3.
        assert_eq!(run("SELECT MEDIAN(x) FROM t").scalar(), Some(3.0));
        // With x >= 2: 2,3,4,6 -> (3+4)/2.
        assert_eq!(run("SELECT MEDIAN(x) FROM t WHERE x >= 2").scalar(), Some(3.5));
    }

    #[test]
    fn var_is_population() {
        // 1,2,3,4,6: mean 3.2, E[x^2] = (1+4+9+16+36)/5 = 13.2, var = 13.2-10.24.
        let v = run("SELECT VAR(x) FROM t").scalar().unwrap();
        assert!((v - 2.96).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_is_null_except_count() {
        assert_eq!(run("SELECT AVG(x) FROM t WHERE x > 100").scalar(), None);
        assert_eq!(run("SELECT COUNT(x) FROM t WHERE x > 100").scalar(), Some(0.0));
    }

    #[test]
    fn group_by_partitions() {
        match run("SELECT SUM(x) FROM t GROUP BY g") {
            ExactAnswer::Groups(g) => {
                assert_eq!(g.get("a"), Some(&Some(3.0)));
                // Group b has x = 3, 4, null -> 7.
                assert_eq!(g.get("b"), Some(&Some(7.0)));
                assert_eq!(g.len(), 2, "null group keys are dropped");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_by_respects_predicate() {
        match run("SELECT COUNT(x) FROM t WHERE x >= 3 GROUP BY g") {
            ExactAnswer::Groups(g) => {
                assert!(!g.contains_key("a"), "group a has no satisfying rows");
                assert_eq!(g.get("b"), Some(&Some(2.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_on_categorical_allowed() {
        assert_eq!(run("SELECT COUNT(g) FROM t").scalar(), Some(5.0));
    }

    #[test]
    fn numeric_agg_on_categorical_rejected() {
        let q = parse_query("SELECT SUM(g) FROM t").unwrap();
        assert!(matches!(evaluate(&q, &data()), Err(ExactError::BadAggregate(_))));
    }

    #[test]
    fn group_by_numeric_rejected() {
        let q = parse_query("SELECT COUNT(x) FROM t GROUP BY x").unwrap();
        assert!(matches!(evaluate(&q, &data()), Err(ExactError::BadGroupBy(_))));
    }

    #[test]
    fn unknown_column_rejected() {
        let q = parse_query("SELECT COUNT(zzz) FROM t").unwrap();
        assert!(matches!(evaluate(&q, &data()), Err(ExactError::UnknownColumn(_))));
    }
}

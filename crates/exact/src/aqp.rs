//! The exact engine behind the shared [`AqpEngine`] interface.
//!
//! Wrapping the row scan in the same trait every approximate engine implements
//! lets harnesses (and a `Session` catalog) treat ground truth as just another
//! engine: same parsed queries in, same [`AqpAnswer`] out — with zero-width
//! bounds, because the scan is exact.

use ph_core::{AqpAnswer, AqpEngine, Estimate, Prepared};
use ph_sql::Query;
use ph_types::{Dataset, PhError};

use crate::engine::{evaluate, ExactAnswer, ExactError};
use crate::predicate::CompiledPredicate;

/// [`AqpEngine::name`] of the exact scan engine.
const ENGINE_NAME: &str = "exact";

impl From<ExactError> for PhError {
    fn from(e: ExactError) -> Self {
        match e {
            ExactError::UnknownColumn(c) => PhError::UnknownColumn(c),
            other => PhError::InvalidQuery(other.to_string()),
        }
    }
}

/// A dataset served by exact row scans, as one interchangeable [`AqpEngine`].
///
/// `prepare` does the same name resolution and predicate compilation the scan
/// would (so [`AqpEngine::supports`] is cheap and errors surface at prepare
/// time); `execute` runs the scan. Estimates are exact, so every bound is
/// zero-width.
#[derive(Debug, Clone)]
pub struct ExactEngine {
    data: Dataset,
}

impl ExactEngine {
    /// Wraps a dataset.
    pub fn new(data: Dataset) -> Self {
        Self { data }
    }

    /// The wrapped dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Validation shared by `prepare`: everything `evaluate` would reject, the
    /// scan itself excluded.
    fn validate(&self, query: &Query) -> Result<(), PhError> {
        let agg_col = self
            .data
            .column_index(&query.column)
            .map_err(|_| PhError::UnknownColumn(query.column.clone()))?;
        if self.data.column(agg_col).ty() == ph_types::ColumnType::Categorical
            && query.agg != ph_sql::AggFunc::Count
        {
            return Err(PhError::InvalidQuery(format!(
                "{} on categorical column '{}'",
                query.agg, query.column
            )));
        }
        if let Some(p) = &query.predicate {
            CompiledPredicate::compile(p, &self.data)?;
        }
        if let Some(g) = &query.group_by {
            let gcol = self.data.column_index(g).map_err(|_| PhError::UnknownColumn(g.clone()))?;
            if self.data.column(gcol).ty() != ph_types::ColumnType::Categorical {
                return Err(PhError::InvalidQuery(format!(
                    "GROUP BY requires a categorical column, got '{g}'"
                )));
            }
        }
        Ok(())
    }
}

impl AqpEngine for ExactEngine {
    fn name(&self) -> &'static str {
        ENGINE_NAME
    }

    fn footprint(&self) -> usize {
        // The "model" is the raw table itself — the honest storage cost the paper
        // charges exact evaluation with.
        self.data.heap_size()
    }

    fn prepare(&self, query: &Query) -> Result<Prepared, PhError> {
        self.validate(query)?;
        Ok(Prepared::new(ENGINE_NAME, query.clone(), Box::new(())))
    }

    fn execute(&self, prepared: &Prepared) -> Result<AqpAnswer, PhError> {
        prepared.check_engine(ENGINE_NAME)?;
        Ok(match evaluate(prepared.query(), &self.data)? {
            ExactAnswer::Scalar(v) => AqpAnswer::Scalar(v.map(Estimate::unbounded)),
            ExactAnswer::Groups(g) => AqpAnswer::Groups(
                g.into_iter()
                    // Groups whose aggregate is NULL (no non-null values) have no
                    // estimate to report, mirroring the approximate engines.
                    .filter_map(|(k, v)| v.map(|x| (k, Estimate::unbounded(x))))
                    .collect(),
            ),
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

    /// `AqpEngine` now carries `Send + Sync` as a supertrait; this pins the
    /// exact engine's side of that contract at compile time.
    #[test]
    fn exact_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExactEngine>();
    }

    #[test]
    fn answers_match_evaluate_with_zero_width_bounds() {
        let e = ExactEngine::new(data());
        let q = parse_query("SELECT SUM(x) FROM t WHERE x >= 2").unwrap();
        let a = e.answer(&q).unwrap().scalar().unwrap();
        assert_eq!(a.value, 15.0);
        assert_eq!((a.lo, a.hi), (15.0, 15.0), "exact answers carry no spread");
    }

    #[test]
    fn grouped_answers_translate() {
        let e = ExactEngine::new(data());
        let q = parse_query("SELECT COUNT(x) FROM t GROUP BY g").unwrap();
        let a = e.answer(&q).unwrap();
        let groups = a.groups().unwrap();
        assert_eq!(groups["a"].value, 2.0);
        assert_eq!(groups["b"].value, 2.0);
    }

    #[test]
    fn prepare_surfaces_validation_errors() {
        let e = ExactEngine::new(data());
        let q = parse_query("SELECT SUM(g) FROM t").unwrap();
        assert!(matches!(e.prepare(&q), Err(PhError::InvalidQuery(_))));
        assert!(!e.supports(&q));
        let q = parse_query("SELECT COUNT(zzz) FROM t").unwrap();
        assert!(matches!(e.prepare(&q), Err(PhError::UnknownColumn(_))));
        let q = parse_query("SELECT COUNT(x) FROM t GROUP BY x").unwrap();
        assert!(matches!(e.prepare(&q), Err(PhError::InvalidQuery(_))));
    }

    #[test]
    fn foreign_plans_rejected() {
        let e = ExactEngine::new(data());
        let q = parse_query("SELECT COUNT(x) FROM t").unwrap();
        let p = Prepared::new("other", q, Box::new(()));
        assert!(AqpEngine::execute(&e, &p).is_err());
    }
}

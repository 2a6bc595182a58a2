//! Seeded inputs: tables from `ph_datagen`, query pools from `ph_workload`,
//! and exact answers from `ph_exact`. The seed stops here — the program under
//! test sees datasets and SQL text, never the seed or a workload name.

use ph_core::AqpAnswer;
use ph_sql::{parse_query, Query};
use ph_types::{Column, ColumnType, Dataset};
use ph_workload::WorkloadConfig;

/// Power/`rows` from `seed` with a categorical `day` column derived from
/// `weekday`, so GROUP BY has a dictionary column to group on. Built as
/// `ph_bench::power_with_day` builds it, but from the caller's seed.
pub fn power_with_day(rows: usize, seed: u64) -> Dataset {
    let power = ph_datagen::generate("Power", rows, seed).expect("Power is a bundled dataset");
    let weekday = power
        .column_by_name("weekday")
        .expect("Power has a weekday column");
    let names: Vec<Option<String>> = (0..power.n_rows())
        .map(|i| weekday.numeric(i).map(|d| format!("d{}", d as i64)))
        .collect();
    let day: Vec<Option<&str>> = names.iter().map(|n| n.as_deref()).collect();
    let mut b = Dataset::builder("Power");
    for col in power.columns() {
        b = b.column(col.clone()).expect("copy column");
    }
    b.column(Column::from_strings("day", day))
        .expect("day column")
        .build()
}

/// `n` SQL strings against `data` from the paper's scaled-up generator (all
/// seven aggregates, 1–5 predicates, AND/OR mix). The program is handed text,
/// so what it parses is what the exact engine is asked too — see [`parse_all`].
pub fn query_pool(data: &Dataset, n: usize, group_by_probability: f64, seed: u64) -> Vec<String> {
    // A quarter of the default selectivity check sample: generation cost is
    // the check scan, and a 5 000-row check still rejects empty selections.
    let cfg = WorkloadConfig {
        group_by_probability,
        check_rows: 5_000,
        ..WorkloadConfig::scaled(n, seed)
    };
    let pool: Vec<String> = ph_workload::generate(data, &cfg)
        .iter()
        .map(Query::to_string)
        .collect();
    assert_eq!(pool.len(), n, "the generator ran out of attempts");
    pool
}

/// The pool as the program's own parser reads it.
pub fn parse_all(pool: &[String]) -> Vec<Query> {
    pool.iter()
        .map(|sql| parse_query(sql).expect("generated SQL parses"))
        .collect()
}

/// Row indices (ascending) of a registration base of exactly `base_rows` rows
/// that later batches cannot force a refit against: the earliest rows, except
/// that the base also holds, per numeric column, a row with the column's
/// global minimum (a value below the fitted minimum makes the next seal
/// refit the whole table and collapse its segments), per column its first
/// NULL, and per categorical column the first row of every category (novel
/// NULLs and categories refit at once).
pub fn base_row_indices(data: &Dataset, base_rows: usize) -> Vec<usize> {
    let mut pinned: Vec<usize> = Vec::new();
    for col in data.columns() {
        let n = col.len();
        if let Some(first_null) = (0..n).find(|&i| !col.is_valid(i)) {
            pinned.push(first_null);
        }
        if col.ty() == ColumnType::Categorical {
            let mut seen = vec![false; col.dictionary().map_or(0, <[String]>::len)];
            for i in 0..n {
                if let Some(code) = col.code(i) {
                    if !std::mem::replace(&mut seen[code as usize], true) {
                        pinned.push(i);
                    }
                }
            }
        } else {
            let min_row = (0..n)
                .filter_map(|i| col.numeric(i).map(|x| (i, x)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            pinned.extend(min_row.map(|(i, _)| i));
        }
    }
    pinned.sort_unstable();
    pinned.dedup();
    assert!(
        pinned.len() <= base_rows,
        "base too small for {} pinned rows",
        pinned.len()
    );
    let head = base_rows - pinned.len();
    let mut base: Vec<usize> = (0..data.n_rows())
        .filter(|i| pinned.binary_search(i).is_err())
        .take(head)
        .collect();
    base.extend(&pinned);
    base.sort_unstable();
    base
}

/// Splits `data` into the refit-proof base of [`base_row_indices`] and the
/// remaining rows in their original order.
pub fn split_base(data: &Dataset, base_rows: usize) -> (Dataset, Dataset) {
    let base = base_row_indices(data, base_rows);
    let rest: Vec<usize> = (0..data.n_rows())
        .filter(|i| base.binary_search(i).is_err())
        .collect();
    (data.take(&base), data.take(&rest))
}

/// `data` cut into consecutive batches of `batch_rows`.
pub fn batches(data: &Dataset, batch_rows: usize) -> Vec<Dataset> {
    (0..data.n_rows() / batch_rows)
        .map(|k| data.slice(k * batch_rows, batch_rows))
        .collect()
}

/// A copy of `batch` whose first row reads, in the table's first float
/// column, one unit below anything in `whole`: a reading under the fitted
/// minimum. The program cannot encode it, so the next seal refits the whole
/// table instead — planted at a fixed batch, the refit falls at the same
/// point of the stream whatever the seed.
pub fn plant_below_min(batch: &Dataset, whole: &Dataset) -> Dataset {
    let (at, scale) = whole
        .columns()
        .iter()
        .enumerate()
        .find_map(|(i, c)| match c.ty() {
            ColumnType::Float { scale } => Some((i, scale)),
            _ => None,
        })
        .expect("the table has a float column");
    let column = whole.column(at);
    let min = (0..column.len())
        .filter_map(|i| column.numeric(i))
        .fold(f64::INFINITY, f64::min);
    let mut b = Dataset::builder(batch.name());
    for (i, col) in batch.columns().iter().enumerate() {
        let col = if i == at {
            let mut values: Vec<Option<f64>> = (0..col.len()).map(|r| col.numeric(r)).collect();
            values[0] = Some(min - 1.0);
            Column::from_floats(col.name(), values, scale)
        } else {
            col.clone()
        };
        b = b.column(col).expect("same schema");
    }
    b.build()
}

/// Accuracy of scalar answers against exact results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Median relative error, percent (the paper's accuracy metric).
    pub rel_error_median_pct: f64,
    /// Share of answers within 5 % of the exact value, percent. Steadier
    /// from seed to seed than the median error of a 256-query pool (a
    /// proportion near 0.8 against an order statistic of a heavy-tailed
    /// sample), which is what lets it carry a regression bound.
    pub within_5pct_pct: f64,
    /// Share of answers whose `[lo, hi]` contains the exact value, percent.
    pub bound_cover_pct: f64,
    /// Scalar answers with a defined exact value.
    pub scored: usize,
}

/// Scores `answers` against `truths` (`None` where the query is grouped or
/// the exact result is SQL NULL — those are not scored).
pub fn accuracy(answers: &[AqpAnswer], truths: &[Option<f64>]) -> Accuracy {
    let mut errors = Vec::new();
    let mut covered = 0usize;
    for (answer, truth) in answers.iter().zip(truths) {
        let (Some(e), Some(t)) = (answer.scalar(), *truth) else {
            continue;
        };
        let Some(err) = ph_bench::relative_error(Some(e.value), Some(t)) else {
            continue;
        };
        errors.push(err * 100.0);
        covered += usize::from(e.lo <= t && t <= e.hi);
    }
    let scored = errors.len();
    let share = |n: usize| n as f64 / scored.max(1) as f64 * 100.0;
    Accuracy {
        within_5pct_pct: share(errors.iter().filter(|e| **e <= 5.0).count()),
        rel_error_median_pct: crate::stats::median(&mut errors),
        bound_cover_pct: share(covered),
        scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::Estimate;

    fn table() -> Dataset {
        // `x` has its minimum (−5) at row 7 and a NULL at row 5; `c` first
        // shows category "z" at row 8.
        let x = [9, 8, 7, 6, 5, 0, 4, -5, 3, 2];
        let xs: Vec<Option<i64>> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| (i != 5).then_some(v))
            .collect();
        let c = ["a", "a", "b", "a", "b", "a", "a", "b", "z", "a"];
        Dataset::builder("t")
            .column(Column::from_ints("x", xs))
            .unwrap()
            .column(Column::from_strings(
                "c",
                c.iter().map(|s| Some(*s)).collect(),
            ))
            .unwrap()
            .build()
    }

    #[test]
    fn base_holds_global_minimum_first_null_and_every_category() {
        let data = table();
        // Pinned: x's NULL (5) and minimum (7); c's categories a (0), b (2), z (8).
        assert_eq!(base_row_indices(&data, 5), vec![0, 2, 5, 7, 8]);
        // A larger base fills up with the earliest unpinned rows.
        assert_eq!(base_row_indices(&data, 7), vec![0, 1, 2, 3, 5, 7, 8]);
        let (base, rest) = split_base(&data, 7);
        assert_eq!((base.n_rows(), rest.n_rows()), (7, 3));
        // The remainder keeps stream order: rows 4, 6, 9.
        let rest_x: Vec<Option<f64>> = (0..3).map(|i| rest.column(0).numeric(i)).collect();
        assert_eq!(rest_x, vec![Some(5.0), Some(4.0), Some(2.0)]);
        // Nothing left in the remainder is below the base's minimum.
        let base_min = (0..7)
            .filter_map(|i| base.column(0).numeric(i))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(base_min, -5.0);
    }

    #[test]
    fn minimum_already_in_the_head_needs_no_extra_row() {
        let data = Dataset::builder("t")
            .column(Column::from_ints("x", (0..10).map(Some).collect()))
            .unwrap()
            .build();
        assert_eq!(base_row_indices(&data, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn planted_value_is_below_everything_and_nothing_else_moves() {
        let whole = power_with_day(2_000, 3);
        let batch = whole.slice(500, 100);
        let planted = plant_below_min(&batch, &whole);
        let at = whole
            .columns()
            .iter()
            .position(|c| matches!(c.ty(), ColumnType::Float { .. }))
            .unwrap();
        let min = (0..whole.n_rows())
            .filter_map(|i| whole.column(at).numeric(i))
            .fold(f64::INFINITY, f64::min);
        assert!(planted.column(at).numeric(0).unwrap() < min);
        assert_eq!(planted.slice(1, 99), batch.slice(1, 99));
        for c in (0..whole.n_columns()).filter(|c| *c != at) {
            assert_eq!(planted.column(c), batch.column(c));
        }
    }

    #[test]
    fn accuracy_scores_scalars_only() {
        let est = |value: f64, lo: f64, hi: f64| {
            AqpAnswer::Scalar(Some(Estimate {
                value,
                lo,
                hi,
                support: 0.0,
                mean: 0.0,
            }))
        };
        let answers = [
            est(110.0, 90.0, 120.0), // 10 % off, covered
            est(100.5, 99.0, 101.0), // 0.5 % off, covered
            est(50.0, 60.0, 70.0),   // 50 % off, missed
            AqpAnswer::Scalar(None),
            est(1.0, 0.0, 2.0), // no exact value: not scored
        ];
        let truths = [Some(100.0), Some(100.0), Some(100.0), Some(1.0), None];
        let a = accuracy(&answers, &truths);
        assert_eq!(a.scored, 3);
        assert!((a.rel_error_median_pct - 10.0).abs() < 1e-9);
        assert!((a.bound_cover_pct - 200.0 / 3.0).abs() < 1e-9);
        assert!((a.within_5pct_pct - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = power_with_day(3_000, 5);
        assert_eq!(a, power_with_day(3_000, 5));
        assert_ne!(a, power_with_day(3_000, 6));
        assert_eq!(
            a.column_by_name("day").unwrap().ty(),
            ColumnType::Categorical
        );
        let pool = query_pool(&a, 32, 0.2, 5);
        assert_eq!(pool, query_pool(&a, 32, 0.2, 5));
        assert_eq!(parse_all(&pool).len(), 32);
    }
}

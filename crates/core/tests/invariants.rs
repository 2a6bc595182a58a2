//! Property-based invariants of the synopsis over randomized datasets:
//! construction totals, estimator identities, bound containment, serialization.

use std::collections::HashSet;

use proptest::prelude::*;

use ph_core::{PairwiseHist, PairwiseHistConfig};
use ph_sql::{parse_query, AggFunc, CmpOp, Condition, Predicate, Query};
use ph_types::{Column, Dataset, Value};

/// Strategy: a small dataset with 2-3 numeric columns (one possibly correlated,
/// one with nulls) plus a categorical column.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (
        100usize..800,
        any::<u64>(),
        10i64..200, // value range scale
        0u8..3,     // correlation style
    )
        .prop_map(|(n, seed, range, style)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x: Vec<Option<i64>> = (0..n)
                .map(|_| {
                    let u: f64 = rng.gen();
                    Some((u * u * range as f64) as i64)
                })
                .collect();
            let y: Vec<Option<i64>> = x
                .iter()
                .map(|v| {
                    if rng.gen_bool(0.1) {
                        None
                    } else {
                        Some(match style {
                            0 => v.unwrap() * 2 + rng.gen_range(0..10),
                            1 => range - v.unwrap() + rng.gen_range(0..5),
                            _ => rng.gen_range(0..range.max(2)),
                        })
                    }
                })
                .collect();
            let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c"][i % 3])).collect();
            Dataset::builder("p")
                .column(Column::from_ints("x", x))
                .unwrap()
                .column(Column::from_ints("y", y))
                .unwrap()
                .column(Column::from_strings("c", c))
                .unwrap()
                .build()
        })
}

fn build(data: &Dataset) -> PairwiseHist {
    PairwiseHist::build(
        data,
        &PairwiseHistConfig {
            ns: data.n_rows(),
            // M at 5 % of the sample rather than the paper's 1 %.
            m_absolute: Some(((data.n_rows() as f64 * 0.05).round() as usize).max(2)),
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With a full sample and no predicate, COUNT is exact (non-null count).
    #[test]
    fn count_without_predicate_is_exact(data in dataset_strategy()) {
        let ph = build(&data);
        for (col, name) in [(0usize, "x"), (1, "y")] {
            let q = parse_query(&format!("SELECT COUNT({name}) FROM p")).unwrap();
            let est = ph.execute(&q).unwrap().scalar().unwrap();
            let truth = data.column(col).valid_count() as f64;
            prop_assert!((est.value - truth).abs() < 1e-6, "{name}: {} vs {truth}", est.value);
            prop_assert!(est.lo <= truth && truth <= est.hi);
        }
    }

    /// Every aggregate's bounds bracket its own estimate, for arbitrary range
    /// predicates.
    #[test]
    fn bounds_bracket_estimates(data in dataset_strategy(), lit in 0i64..200, ge in any::<bool>()) {
        let ph = build(&data);
        let op = if ge { ">=" } else { "<" };
        for agg in ["COUNT", "SUM", "AVG", "VAR", "MIN", "MAX", "MEDIAN"] {
            let q = parse_query(&format!("SELECT {agg}(x) FROM p WHERE y {op} {lit}")).unwrap();
            if let Some(e) = ph.execute(&q).unwrap().scalar() {
                prop_assert!(e.lo <= e.value + 1e-9, "{agg}: lo {} > value {}", e.lo, e.value);
                prop_assert!(e.value <= e.hi + 1e-9, "{agg}: value {} > hi {}", e.value, e.hi);
                prop_assert!(e.value.is_finite());
            }
        }
    }

    /// MIN/MAX estimates always lie within the true value range of the column, and
    /// respect conjunctive constraints on the aggregation column itself.
    #[test]
    fn min_max_within_domain(data in dataset_strategy(), lit in 0i64..150) {
        let ph = build(&data);
        let q = parse_query(&format!("SELECT MIN(x) FROM p WHERE x >= {lit}")).unwrap();
        if let Some(e) = ph.execute(&q).unwrap().scalar() {
            prop_assert!(e.value >= lit as f64, "MIN {} below predicate floor {lit}", e.value);
        }
        let q = parse_query(&format!("SELECT MAX(x) FROM p WHERE x < {lit}")).unwrap();
        if let Some(e) = ph.execute(&q).unwrap().scalar() {
            prop_assert!(e.value < lit as f64 + 1.0, "MAX {} above ceiling {lit}", e.value);
        }
    }

    /// Serialization round-trips bit-exactly at the structure level and produces
    /// identical answers.
    #[test]
    fn serialization_roundtrip(data in dataset_strategy(), lit in 0i64..200) {
        let ph = build(&data);
        let restored =
            PairwiseHist::from_bytes(&ph.to_bytes(), ph.preprocessor().clone()).unwrap();
        let q = parse_query(&format!("SELECT AVG(x) FROM p WHERE y > {lit}")).unwrap();
        prop_assert_eq!(ph.execute(&q).unwrap(), restored.execute(&q).unwrap());
        let q = parse_query("SELECT COUNT(x) FROM p GROUP BY c").unwrap();
        prop_assert_eq!(ph.execute(&q).unwrap(), restored.execute(&q).unwrap());
    }

    /// Widening a range predicate never shrinks the COUNT estimate (monotonicity of
    /// coverage and weightings).
    #[test]
    fn count_monotone_in_predicate(data in dataset_strategy(), a in 0i64..100, b in 0i64..100) {
        let ph = build(&data);
        let (lo, hi) = (a.min(b), a.max(b));
        let narrow = parse_query(&format!("SELECT COUNT(x) FROM p WHERE x >= {hi}")).unwrap();
        let wide = parse_query(&format!("SELECT COUNT(x) FROM p WHERE x >= {lo}")).unwrap();
        let en = ph.execute(&narrow).unwrap().scalar().unwrap();
        let ew = ph.execute(&wide).unwrap().scalar().unwrap();
        prop_assert!(ew.value >= en.value - 1e-9, "wide {} < narrow {}", ew.value, en.value);
    }

    /// GROUP BY estimates decompose the unconditioned estimate: the per-group COUNT
    /// totals add back up (within rounding) to the global COUNT.
    #[test]
    fn group_counts_sum_to_total(data in dataset_strategy()) {
        let ph = build(&data);
        let grouped = parse_query("SELECT COUNT(x) FROM p GROUP BY c").unwrap();
        let total = parse_query("SELECT COUNT(x) FROM p").unwrap();
        let groups = ph.execute(&grouped).unwrap();
        let total = ph.execute(&total).unwrap().scalar().unwrap().value;
        let sum: f64 = groups.groups().unwrap().values().map(|e| e.value).sum();
        prop_assert!((sum - total).abs() / total.max(1.0) < 0.01, "{sum} vs {total}");
    }

    /// Corrupted synopsis bytes never panic the deserializer: every mutation either
    /// fails cleanly (`None`) or yields a structurally valid synopsis.
    #[test]
    fn corrupted_bytes_never_panic(
        data in dataset_strategy(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let ph = build(&data);
        let mut bytes = ph.to_bytes();
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        let _ = PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone());
        let cut = cut.index(bytes.len());
        let _ = PairwiseHist::from_bytes(&bytes[..cut], ph.preprocessor().clone());
    }

    /// Incremental ingestion preserves the core COUNT identity: after ingesting a
    /// batch at full sampling, the unconditioned COUNT equals the combined non-null
    /// total.
    #[test]
    fn ingest_preserves_count_identity(data in dataset_strategy(), extra_seed in any::<u64>()) {
        let mut ph = build(&data);
        // Re-encode a shuffled copy of the same dataset as the "new" batch, so all
        // values stay within the fitted transform ranges.
        let batch = data.sample(data.n_rows() / 2, extra_seed);
        let encoded = ph.preprocessor().clone().encode(&batch);
        ph.ingest(&encoded);
        let q = parse_query("SELECT COUNT(x) FROM p").unwrap();
        let est = ph.execute(&q).unwrap().scalar().unwrap();
        let truth = (data.column(0).valid_count() + batch.column(0).valid_count()) as f64;
        prop_assert!((est.value - truth).abs() < 1e-6, "{} vs {truth}", est.value);
    }

    /// Selectivity estimates are probabilities and track predicate strictness.
    #[test]
    fn selectivity_is_probability(data in dataset_strategy(), lit in 0i64..200) {
        let ph = build(&data);
        let pred = Predicate::Cond(Condition {
            column: "x".into(),
            op: CmpOp::Ge,
            value: Value::Int(lit),
        });
        let sel = ph.selectivity(&pred).unwrap();
        prop_assert!((0.0..=1.0).contains(&sel.value));
        prop_assert!(sel.lo <= sel.value && sel.value <= sel.hi);
    }

    /// The engine never panics across the full aggregate × operator grid, and
    /// definedness matches the exact engine.
    #[test]
    fn definedness_matches_exact(data in dataset_strategy(), lit in 0i64..400) {
        let ph = build(&data);
        let aggs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Median, AggFunc::Var];
        let mut mismatches = HashSet::new();
        for agg in aggs {
            let q = Query {
                agg,
                column: "x".into(),
                table: "p".into(),
                predicate: Some(Predicate::Cond(Condition {
                    column: "y".into(),
                    op: CmpOp::Gt,
                    value: Value::Int(lit),
                })),
                group_by: None,
            };
            let approx = ph.execute(&q).unwrap().scalar();
            let truth = ph_exact::evaluate(&q, &data).unwrap().scalar();
            // COUNT is always defined; others should agree on definedness except in
            // boundary cases where the synopsis sees epsilon weight.
            if approx.is_some() != truth.is_some() {
                mismatches.insert(agg.name());
            }
        }
        // Allow at most one boundary mismatch per case (near-zero selectivity).
        prop_assert!(mismatches.len() <= 1, "definedness mismatches: {mismatches:?}");
    }
}

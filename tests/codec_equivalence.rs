//! Equivalence suite for the per-column codec cascade's predicate paths: the
//! acceptance contract is that evaluating a predicate *directly on encoded
//! data* — dictionary code intervals without materialization, run skipping
//! over run-end columns — produces bit-identical counts to decoding the store
//! and scanning, on randomized tables and through the public session API.

use proptest::prelude::*;

use pairwisehist::core::RangeSet;
use pairwisehist::gd::{choose_store, ColumnarStore, EncodedPred, GdCompressor, RowStore};
use pairwisehist::prelude::*;
use pairwisehist::sql::CmpOp;

/// Decode-then-scan reference: the count the encoded path must reproduce.
fn scan_count(store: &RowStore, col: usize, lo: u64, hi: u64) -> u64 {
    store.decompress().columns[col].iter().filter(|&&v| lo <= v && v <= hi).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both store representations — GreedyGD and the columnar cascade —
    /// agree bit-identically with decode-then-scan on random
    /// range and equality predicates over mixed-shape columns.
    #[test]
    fn prop_encoded_predicates_match_decoded_scan(
        runs in proptest::collection::vec((0u64..6, 1usize..40), 1..40),
        noise in proptest::collection::vec(0u64..1_000_000, 8..200),
        lo in 0u64..8,
        span in 0u64..1_000_000,
    ) {
        // Column 0: run-structured small domain; column 1: wide noise.
        let runny: Vec<u64> = runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let n_rows = runny.len().min(noise.len());
        let matrix = pairwisehist::gd::EncodedMatrix::new(vec![
            runny[..n_rows].to_vec(),
            noise[..n_rows].to_vec(),
        ]);
        let gd = GdCompressor::new().compress(&matrix);
        let stores = [
            RowStore::Gd(GdCompressor::new().compress(&matrix)),
            RowStore::Columnar(ColumnarStore::encode(&matrix)),
            choose_store(&matrix, gd),
        ];
        let hi = lo.saturating_add(span);
        for store in &stores {
            for col in 0..2 {
                let pred = EncodedPred::Range { lo: Some(lo), hi: Some(hi) };
                prop_assert_eq!(
                    store.count_matching(col, &pred).expect("column in range"),
                    scan_count(store, col, lo, hi)
                );
                let eq = EncodedPred::Eq(lo);
                prop_assert_eq!(
                    store.count_matching(col, &eq).expect("column in range"),
                    scan_count(store, col, lo, lo)
                );
            }
            prop_assert_eq!(store.count_matching(2, &EncodedPred::Eq(0)), None);
        }
    }
}

fn mixed_dataset(n: usize) -> Dataset {
    // Runs + a low-cardinality categorical: shapes where run-end and dict win,
    // so both specialized predicate paths (run skipping, code intervals) are
    // actually exercised rather than falling back to bitpack scans.
    let x: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 / 37) % 11)).collect();
    let y: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 * 7) % 500)).collect();
    let names = ["alpha", "beta", "gamma", "delta"];
    let c: Vec<Option<&str>> = (0..n).map(|i| Some(names[(i / 61) % 4])).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

/// The public session path: `TableSnapshot::count_sealed_matching` answers
/// from the compressed stores and must agree exactly with brute-force counts
/// over the original rows — dictionary equality on a categorical (via the
/// preprocessor's literal encoding, no materialization) and a numeric range.
#[test]
fn session_count_sealed_matching_is_exact() {
    let n = 4_000;
    let data = mixed_dataset(n);
    let session = Session::new();
    session.register(data.clone()).unwrap();
    let snap = session.engine("t").unwrap();
    let pre = snap.engine().preprocessor().clone();

    // Categorical equality through the dict-code path.
    let lit = pre.encode_literal(2, &Value::Str("gamma".into())).unwrap();
    let rank = match lit {
        pairwisehist::gd::EncodedLiteral::Rank(r) => r,
        other => panic!("categorical literal must encode to a rank, got {other:?}"),
    };
    let got = snap.count_sealed_matching(2, &RangeSet::point(rank)).expect("store present");
    let want = (0..n).filter(|&i| data.column(2).value(i) == Value::Str("gamma".into())).count();
    assert_eq!(got, want as u64, "dict equality must be exact");

    // Numeric range x >= 4 through the encoded domain.
    let lit = pre.encode_literal(0, &Value::Int(4)).unwrap();
    let rs = RangeSet::from_condition(CmpOp::Ge, lit, u64::MAX);
    let got = snap.count_sealed_matching(0, &rs).expect("store present");
    let want =
        (0..n).filter(|&i| matches!(data.column(0).value(i), Value::Int(v) if v >= 4)).count();
    assert_eq!(got, want as u64, "run-skipping range count must be exact");

    // Out-of-range column is a clean None, not a panic.
    assert_eq!(snap.count_sealed_matching(9, &RangeSet::full(10)), None);
}

/// Sealed-segment stores (the ingest path, one cascade store per slice) keep
/// the same exactness across multiple segments.
#[test]
fn sealed_segments_count_exactly_across_stores() {
    let base = mixed_dataset(2_000);
    let session = Session::new();
    session.set_seal_threshold(500);
    session.set_max_staleness(f64::INFINITY);
    session.register(base.clone()).unwrap();
    let extra = mixed_dataset(1_500);
    session.ingest("t", &extra).unwrap();
    let snap = session.engine("t").unwrap();
    assert!(snap.n_segments() >= 2, "ingest must have sealed extra segments");
    let pre = snap.engine().preprocessor().clone();

    let lit = pre.encode_literal(2, &Value::Str("beta".into())).unwrap();
    let rank = match lit {
        pairwisehist::gd::EncodedLiteral::Rank(r) => r,
        other => panic!("categorical literal must encode to a rank, got {other:?}"),
    };
    let got = snap.count_sealed_matching(2, &RangeSet::point(rank));
    let count_in = |d: &Dataset| {
        (0..d.n_rows()).filter(|&i| d.column(2).value(i) == Value::Str("beta".into())).count()
            as u64
    };
    // 1 500 rows at a 500-row threshold seal whole: nothing is left in the delta.
    assert_eq!(session.table_stats("t").unwrap().delta_rows, 0);
    assert_eq!(got, Some(count_in(&base) + count_in(&extra)));
}

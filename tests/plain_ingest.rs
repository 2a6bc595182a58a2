//! The plain (no seal, no refit) path of `Session::ingest` pays for the rows of
//! a batch and the dictionary entries those rows reference — not for the
//! fitted dictionary, nor for whatever dictionary the batch happens to carry.
//!
//! * an entry no row references is not a novel category (no refit for a value
//!   that is not there);
//! * the journal record of a batch is the same bytes whatever dictionary the
//!   batch was cut with;
//! * a batch with no rows changes nothing;
//! * a scaling guard, judged in release builds only: appends to a table with a
//!   20 000-entry fitted dictionary stay in the low milliseconds.

use std::path::{Path, PathBuf};

use pairwisehist::prelude::*;

fn entries(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("tail-{i:05}")).collect()
}

/// `n` rows over `dict`: row `i` reads `i` and entry `(i · stride) mod used`.
fn rows(n: usize, dict: &[String], used: usize, stride: usize) -> Dataset {
    let x = (0..n as i64).map(Some).collect();
    let codes = (0..n).map(|i| Some(((i * stride) % used) as u32)).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_codes("tail", codes, dict.to_vec()))
        .unwrap()
        .build()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ph_plain_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_bytes(dir: &Path) -> Vec<u8> {
    let wal = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "phwal"))
        .expect("one table, one log");
    std::fs::read(wal).unwrap()
}

#[test]
fn unreferenced_dictionary_entry_is_not_a_novel_category() {
    let dict = entries(40);
    let session = Session::new();
    session.register(rows(2_000, &dict, 40, 7)).unwrap();

    let mut carried = dict.clone();
    carried.push("never flown".into());
    // Carried by the batch, used by none of its rows: the plain path.
    let unused = rows(50, &carried, 40, 3);
    let report = session.ingest("t", &unused).unwrap();
    assert!(!report.rebuilt, "a value no row holds forced a refit");
    assert_eq!(report.sealed_segments, 0);
    let count = |s: &Session| match s.sql("SELECT COUNT(x) FROM t;").unwrap() {
        AqpAnswer::Scalar(Some(e)) => e.value,
        other => panic!("{other:?}"),
    };
    assert_eq!(count(&session), 2_050.0);
    assert_eq!(session.table_stats("t").unwrap().delta_rows, 50);
    let flown = |s: &Session| match s.sql("SELECT COUNT(x) FROM t WHERE tail = 'never flown';") {
        Ok(AqpAnswer::Scalar(Some(e))) => e.value,
        other => panic!("{other:?}"),
    };
    assert_eq!(flown(&session), 0.0, "the table learnt a value it was never given");

    // Used by one row: the table has to refit to hold it.
    let used = rows(50, &carried, 41, 1);
    let report = session.ingest("t", &used).unwrap();
    assert!(report.rebuilt && report.sealed_segments == 0, "{report:?}");
    assert_eq!(count(&session), 2_100.0);
    assert!(flown(&session) > 0.0, "the refit table cannot find the value it refit for");
}

#[test]
fn wal_record_does_not_depend_on_the_carried_dictionary() {
    // The same fifty rows, cut with the fifty entries they use and with a
    // 20 000-entry dictionary that holds those fifty at every 400th position.
    let small = entries(50);
    let mut large: Vec<String> = (0..20_000).map(|i| format!("other-{i}")).collect();
    for (i, s) in small.iter().enumerate() {
        large[i * 400] = s.clone();
    }
    let lean = rows(50, &small, 50, 1);
    let x = (0..50i64).map(Some).collect();
    let codes = (0..50u32).map(|i| Some(i * 400)).collect();
    let wide = Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_codes("tail", codes, large))
        .unwrap()
        .build();

    let journal = |tag: &str, batch: &Dataset| {
        let dir = scratch(tag);
        let session = Session::new();
        session.register(rows(500, &small, 50, 1)).unwrap();
        session.enable_wal(&dir).unwrap();
        assert!(!session.ingest("t", batch).unwrap().rebuilt);
        let bytes = wal_bytes(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    };
    let (lean_log, wide_log) = (journal("lean", &lean), journal("wide", &wide));
    assert_eq!(lean_log.len(), wide_log.len());
    assert_eq!(lean_log, wide_log, "same rows, same record");
    // Fifty short strings and a hundred small numbers, not 20 000 strings.
    assert!(lean_log.len() < 1_200, "{} bytes", lean_log.len());
}

/// A schema-valid batch with no rows is a no-op: nothing is journaled or
/// published, and the next real batch gets a delta of its own rather than
/// being folded into an empty one — the table answers bit for bit as a twin
/// that never saw the empty batch.
#[test]
fn an_empty_batch_changes_nothing() {
    let rows = |n: usize, salt: i64| {
        let x = (0..n as i64).map(|i| Some((i * 7_919 + salt) % 1_000)).collect();
        let y = (0..n as i64).map(|i| Some((i * 104_729 + salt) % 500)).collect();
        Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .build()
    };
    let dir = scratch("empty");
    let (touched, twin) = (Session::new(), Session::new());
    for session in [&touched, &twin] {
        session.register(rows(5_000, 0)).unwrap();
    }
    touched.enable_wal(&dir).unwrap();
    let report = touched.ingest("t", &rows(0, 0)).unwrap();
    assert_eq!((report.rows, report.rebuilt, report.sealed_segments), (0, false, 0));
    let stats = touched.table_stats("t").unwrap();
    assert_eq!((stats.wal_records, stats.delta_rows), (0, 0), "{stats:?}");
    assert!(touched.engine("t").unwrap().delta().is_none(), "an empty delta was published");
    for session in [&touched, &twin] {
        session.ingest("t", &rows(100, 3)).unwrap();
    }
    for agg in ["COUNT", "SUM", "AVG"] {
        let sql = format!("SELECT {agg}(x) FROM t WHERE y > 100;");
        assert_eq!(touched.sql(&sql).unwrap(), twin.sql(&sql).unwrap(), "{sql}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Timing guard: CI runs it with `cargo test --release` (see `build-test-lint`).
/// At the parent of the change that added it each append took some 0.6 s —
/// the novelty check compared every carried entry with every fitted one. The
/// median of twenty is judged, so one descheduled call cannot fail it.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing guard: judged in release builds only")]
fn plain_appends_do_not_scale_with_the_fitted_dictionary() {
    let dict = entries(20_000);
    let session = Session::new();
    session.register(rows(40_000, &dict, 20_000, 1)).unwrap();
    let more = rows(1_000, &dict, 20_000, 37);
    let mut ms: Vec<f64> = (0..20)
        .map(|k| {
            let batch = more.slice(k * 50, 50);
            let start = std::time::Instant::now();
            let report = session.ingest("t", &batch).unwrap();
            assert!(!report.rebuilt, "append {k} left the plain path");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    assert!(ms[ms.len() / 2] < 50.0, "50-row appends took {ms:?} ms");
}

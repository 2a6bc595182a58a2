//! Persistence guarantees of the synopsis and the `Session` catalog:
//!
//! * property: `to_bytes` → `from_bytes` → `to_bytes` is **bit-identical** over
//!   randomized datasets (and likewise for the fitted preprocessor);
//! * a catalog saved with `save_dir` and reopened with `open_dir` answers a
//!   50-query generated workload identically to the original session.

use proptest::prelude::*;

use pairwisehist::prelude::*;
use pairwisehist::workload::{self, WorkloadConfig};

/// Strategy: a small random dataset with correlated numerics, nulls and a
/// categorical column — enough shape variety to exercise every storage section
/// (dense and sparse count matrices, split-bin metadata, null codes).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (200usize..1_500, any::<u64>(), 20i64..500).prop_map(|(n, seed, range)| {
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
                if rng.gen_bool(0.08) {
                    None
                } else {
                    Some(v.unwrap() * 2 + rng.gen_range(0..30))
                }
            })
            .collect();
        let c: Vec<Option<&str>> =
            (0..n).map(|i| Some(["a", "b", "c", "d"][i % 4])).collect();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Fig 6 encoding is a bijection on its image: deserializing and
    /// re-serializing reproduces the original bytes exactly.
    #[test]
    fn synopsis_bytes_roundtrip_bit_identically(data in dataset_strategy()) {
        let ph = PairwiseHist::build(
            &data,
            &PairwiseHistConfig { ns: data.n_rows(), parallel: false, ..Default::default() },
        );
        let bytes = ph.to_bytes();
        let restored = PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone())
            .expect("bytes produced by to_bytes must deserialize");
        prop_assert_eq!(restored.to_bytes(), bytes, "re-serialization must be bit-identical");

        // The preprocessor the synopsis travels with round-trips the same way.
        let pre_bytes = ph.preprocessor().to_bytes();
        let pre = Preprocessor::from_bytes(&pre_bytes).expect("preprocessor bytes decode");
        prop_assert_eq!(pre.to_bytes(), pre_bytes);
    }
}

/// A reloaded session answers a 50-query generated workload identically —
/// estimates, bounds and group maps, bit for bit.
#[test]
fn reloaded_session_answers_workload_identically() {
    let data = pairwisehist::datagen::generate("Power", 60_000, 17).expect("dataset");
    let queries = workload::generate(
        &data,
        &WorkloadConfig {
            n_queries: 50,
            aggs: AggFunc::ALL.to_vec(),
            max_predicates: 3,
            or_probability: 0.2,
            seed: 0xFEED,
            ..Default::default()
        },
    );
    assert_eq!(queries.len(), 50, "workload generator must fill the quota");

    let session = Session::with_config(PairwiseHistConfig {
        ns: 30_000,
        ..Default::default()
    });
    session.register(data).unwrap();

    let dir = std::env::temp_dir().join(format!("ph_sess_wl_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    session.save_dir(&dir).unwrap();
    let reloaded = Session::open_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    for q in &queries {
        let sql = q.to_string();
        let a = session.sql(&sql).expect("original session answers");
        let b = reloaded.sql(&sql).expect("reloaded session answers");
        assert_eq!(a, b, "answers must be identical after reload: {sql}");
    }
    // Both sessions served every query through their plan caches' miss path once;
    // a second pass is all hits.
    for q in queries.iter().take(5) {
        reloaded.sql(&q.to_string()).unwrap();
    }
    assert!(reloaded.cache_stats().hits >= 5);
}

/// A live table and its WAL-replayed twin stay the same table through a later
/// refit, however oversized the dictionaries its batches were cut with.
///
/// The base uses entries 0..300 of a 500-entry dictionary; every batch is a
/// slice of one table over that dictionary plus strings nobody uses, and
/// references entries 300..500 in scrambled order — values the fitted
/// transforms can encode but the sealed rows do not hold, so at the refit their
/// equal frequencies tie and the tie falls in dictionary order. The live delta
/// and the journal must therefore agree on that order, entry for entry.
#[test]
fn live_and_replayed_tables_agree_after_a_refit_behind_oversized_dictionaries() {
    let fitted: Vec<String> = (0..500).map(|i| format!("cat-{i:03}")).collect();
    let table = |n: usize, dict: &[String], code: &dyn Fn(usize) -> u32| {
        Dataset::builder("wide")
            .column(Column::from_ints("x", (0..n).map(|i| Some((i * 37 % 1000) as i64)).collect()))
            .unwrap()
            .column(Column::from_floats(
                "y",
                (0..n).map(|i| (i % 11 != 0).then_some((i * 13 % 500) as f64 / 4.0)).collect(),
                2,
            ))
            .unwrap()
            .column(Column::from_codes(
                "c",
                (0..n).map(|i| (i % 17 != 3).then_some(code(i))).collect(),
                dict.to_vec(),
            ))
            .unwrap()
            .build()
    };
    let base = table(6_000, &fitted, &|i| (i % 300) as u32);
    let mut oversized = fitted.clone();
    oversized.extend((0..700).map(|i| format!("unused-{i}")));
    let stream = table(1_200, &oversized, &|i| 300 + (i * 89 % 200) as u32);
    // One row of the last batch holds a value outside the fitted dictionary.
    let mut novel_dict = oversized.clone();
    novel_dict.push("brand new".into());
    let novel = table(40, &novel_dict, &|i| if i == 5 { 1_200 } else { 300 + (i % 200) as u32 });

    let dir = std::env::temp_dir().join(format!("ph_sess_twin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = Session::new();
    fresh.register(base).unwrap();
    fresh.save_dir(&dir).unwrap();
    drop(fresh);

    let live = Session::open_dir(&dir).unwrap();
    assert!(live.wal_enabled());
    for k in 0..12 {
        let report = live.ingest("wide", &stream.slice(k * 100, 100)).unwrap();
        assert!(!report.rebuilt, "batch {k} left the plain path");
    }
    let report = live.ingest("wide", &novel).unwrap();
    assert!(report.rebuilt && report.sealed_segments == 0, "{report:?}");
    // The crash: nothing saved since the base; the twin is the log replayed.
    let twin = Session::open_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let pre_bytes = |s: &Session| s.engine("wide").unwrap().engine().preprocessor().to_bytes();
    // (`assert!`, not `assert_eq!`: a failure should not print two dictionaries.)
    assert!(pre_bytes(&live) == pre_bytes(&twin), "the refits ranked the categories differently");
    for sql in [
        "SELECT COUNT(x) FROM wide;",
        "SELECT COUNT(x) FROM wide GROUP BY c;",
        "SELECT AVG(y) FROM wide WHERE c = 'cat-417';",
        "SELECT SUM(x) FROM wide WHERE c = 'brand new' OR c = 'cat-301';",
        "SELECT MAX(y) FROM wide WHERE x > 400 GROUP BY c;",
        "SELECT COUNT(y) FROM wide WHERE c = 'unused-3';",
    ] {
        assert_eq!(live.sql(sql).unwrap(), twin.sql(sql).unwrap(), "{sql}");
    }
}

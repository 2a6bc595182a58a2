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
            &PairwiseHistConfig { ns: data.n_rows(), ..Default::default() },
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

/// `n` rows of `x` (uniform), `y` (≈ 2x with NULLs) and a three-way `c`; row 0
/// holds both minima, so no batch of these forces a refit by dipping below
/// what the table was fitted on.
fn anchored(n: usize, seed: u64) -> Dataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
    let mut y: Vec<Option<i64>> =
        x.iter().map(|v| rng.gen_bool(0.96).then(|| v.unwrap() * 2 + rng.gen_range(0..60))).collect();
    (x[0], y[0]) = (Some(0), Some(0));
    let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c"][(i * 7 + seed as usize) % 3])).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

const BATTERY: [&str; 6] = [
    "SELECT COUNT(x) FROM t;",
    "SELECT AVG(y) FROM t WHERE x > 300;",
    "SELECT SUM(x) FROM t WHERE y < 900 AND c = 'b';",
    "SELECT VAR(y) FROM t WHERE x < 700;",
    "SELECT MEDIAN(x) FROM t WHERE y > 400;",
    "SELECT COUNT(y) FROM t WHERE x > 100 GROUP BY c;",
];

/// The crashed twin answers every battery query exactly as the live table,
/// holds the same segments, and — fed the same further batches — stays so.
fn assert_twins(live: &Session, twin: &Session, more: &[Dataset], tag: &str) {
    let same = |tag: &str| {
        let (l, t) = (live.table_stats("t").unwrap(), twin.table_stats("t").unwrap());
        assert_eq!((l.segments, l.sealed_rows, l.delta_rows), (t.segments, t.sealed_rows, t.delta_rows), "{tag}");
        for sql in BATTERY {
            assert_eq!(live.sql(sql).unwrap(), twin.sql(sql).unwrap(), "{tag}: {sql}");
        }
    };
    same(tag);
    for (k, batch) in more.iter().enumerate() {
        let (l, t) = (live.ingest("t", batch).unwrap(), twin.ingest("t", batch).unwrap());
        assert_eq!(l, t, "{tag}: further batch {k}");
    }
    same(&format!("{tag}, after the same further batches"));
}

fn home(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ph_sess_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// ROADMAP 4(c): the seal policy is persisted with the table. A table reopened
/// from disk, streamed at a non-default threshold and staleness and crashed
/// comes back sealing exactly where the live table sealed — the recovery
/// replays only the batches since its last seal, under the same policy.
#[test]
fn recovered_twin_seals_like_the_live_table_at_a_non_default_policy() {
    let dir = home("policy");
    let fresh = Session::new();
    fresh.register(anchored(12_000, 1)).unwrap();
    fresh.save_dir(&dir).unwrap();
    drop(fresh);

    let live = Session::open_dir(&dir).unwrap();
    live.set_seal_threshold(7_000);
    live.set_max_staleness(0.35);
    let sealed: usize =
        (0..12).map(|k| live.ingest("t", &anchored(2_500, 10 + k)).unwrap().sealed_segments).sum();
    assert!(sealed >= 3, "the stream must seal at the lowered threshold: {sealed}");
    assert_eq!(live.ingest("t", &anchored(1_000, 99)).unwrap().sealed_segments, 0);
    let stats = live.table_stats("t").unwrap();
    assert!(stats.delta_rows > 0, "a tail stays in the delta: {stats:?}");
    assert_eq!(stats.wal_records, 1, "only the delta's batch is left to replay: {stats:?}");

    let twin = Session::open_dir(&dir).unwrap(); // the crash: nothing saved since
    let more: Vec<Dataset> = (0..4).map(|k| anchored(3_000, 40 + k)).collect();
    assert_twins(&live, &twin, &more, "policy twin");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A table registered in a session with a WAL home — at a build configuration
/// of its own — survives a crash together with its acknowledged batches, and
/// its recovery seals with that configuration.
#[test]
fn registration_under_a_wal_survives_a_crash_with_its_batches() {
    let dir = home("register");
    let cfg = PairwiseHistConfig { ns: 3_000, m_absolute: Some(60), ..Default::default() };
    let live = Session::with_config(cfg);
    live.set_seal_threshold(5_000);
    live.enable_wal(&dir).unwrap();
    live.register(anchored(8_000, 2)).unwrap();
    for k in 0..5 {
        live.ingest("t", &anchored(2_200, 20 + k)).unwrap();
    }
    assert!(live.table_stats("t").unwrap().segments > 1, "the batches sealed");

    let twin = Session::open_dir(&dir).unwrap();
    assert_eq!(twin.tables(), vec!["t"], "the registration is durable");
    let more: Vec<Dataset> = (0..3).map(|k| anchored(4_000, 50 + k)).collect();
    assert_twins(&live, &twin, &more, "registered twin");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `compact` is a checkpoint: a crash after it recovers the compacted table
/// bit for bit, not the fragments the log would have re-sealed.
#[test]
fn compaction_survives_a_crash_bit_identically() {
    let dir = home("compact");
    let fresh = Session::new();
    fresh.register(anchored(6_000, 3)).unwrap();
    fresh.save_dir(&dir).unwrap();
    drop(fresh);

    let live = Session::open_dir(&dir).unwrap();
    // Each batch outweighs the table so far, so each seals on its own.
    for (k, n) in [7_000, 14_000].into_iter().enumerate() {
        assert_eq!(live.ingest("t", &anchored(n, 30 + k as u64)).unwrap().sealed_segments, 1);
    }
    let report = live.compact("t").unwrap();
    assert_eq!((report.segments_before, report.segments_after), (3, 1), "{report:?}");
    live.ingest("t", &anchored(2_000, 33)).unwrap();
    assert_eq!(live.table_stats("t").unwrap().checkpoint_failures, 0);

    let twin = Session::open_dir(&dir).unwrap();
    assert_eq!(twin.table_stats("t").unwrap().segments, 1, "the compaction was undone");
    let more: Vec<Dataset> = (0..2).map(|k| anchored(9_000, 60 + k)).collect();
    assert_twins(&live, &twin, &more, "compacted twin");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: the log's reader refused strings over 1 MiB while the
/// preprocessor and segment blobs take any length, so an acknowledged batch
/// holding a 2 MiB categorical value quarantined its table at the next open
/// ("passes checksum but does not decode"). A string is now bounded by the
/// bytes left in its record, as everywhere else.
#[test]
fn a_batch_with_a_two_mib_categorical_value_replays() {
    let long = "v".repeat(2 << 20);
    let rows = |n: usize| {
        Dataset::builder("t")
            .column(Column::from_ints("x", (0..n as i64).map(Some).collect()))
            .unwrap()
            .column(Column::from_strings(
                "c",
                (0..n).map(|i| Some(if i % 3 == 0 { long.as_str() } else { "short" })).collect(),
            ))
            .unwrap()
            .build()
    };
    let dir = home("long_value");
    let fresh = Session::new();
    fresh.register(rows(300)).unwrap();
    fresh.save_dir(&dir).unwrap();
    drop(fresh);

    let live = Session::open_dir(&dir).unwrap();
    assert!(live.wal_enabled());
    assert!(!live.ingest("t", &rows(10)).unwrap().rebuilt, "a plain batch");
    let sql = "SELECT COUNT(x) FROM t GROUP BY c;";
    let answer = live.sql(sql).unwrap();
    drop(live);

    let twin = Session::open_dir(&dir).unwrap();
    assert_eq!(twin.quarantined(), Vec::new());
    assert_eq!(twin.table_stats("t").unwrap().delta_rows, 10);
    assert_eq!(twin.sql(sql).unwrap(), answer);
    std::fs::remove_dir_all(&dir).unwrap();
}

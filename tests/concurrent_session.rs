//! Concurrency stress test for the thread-safe `Session` (the tentpole of the
//! shared-read-path work): N reader threads hammer a mixed 9-aggregate workload
//! while a writer thread ingests batches, some of which trigger full rebuilds.
//!
//! The assertions lean on determinism: every state the concurrent session can
//! ever serve is one of the 7 states a *twin* session reaches by applying the
//! same batches serially (builds and edge-free ingests are fully deterministic
//! given the same data and config). So:
//!
//! * no call may panic or error (readers retry transparently through rebuilds,
//!   whether they answer through `Session::sql` or a `Session::batch()`);
//! * every answer a reader observes must equal, bit for bit, the answer some
//!   point-in-time state of the ingest timeline gives — i.e. pre- or
//!   post-some-batch consistent, never a half-applied blend;
//! * a `Prepared` handle from before the first rebuild must either answer
//!   consistently (pre-rebuild) or fail with `PhError::StalePlan` — never return
//!   numbers from an epoch it was not compiled for.

use std::sync::atomic::{AtomicBool, Ordering};

use pairwisehist::prelude::*;

fn dataset(n: usize, seed: u64) -> Dataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
    let y: Vec<Option<i64>> =
        x.iter()
            .map(|v| {
                if rng.gen_bool(0.02) {
                    None
                } else {
                    Some(v.unwrap() * 2 + rng.gen_range(0..90))
                }
            })
            .collect();
    let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c"][i % 3])).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

/// The mixed 9-aggregate workload: all seven aggregate functions plus a
/// multi-predicate AND/OR shape and a GROUP BY.
const WORKLOAD: [&str; 9] = [
    "SELECT COUNT(x) FROM t",
    "SELECT SUM(x) FROM t WHERE y > 400",
    "SELECT AVG(y) FROM t WHERE x > 300 AND x < 700",
    "SELECT MIN(x) FROM t WHERE x > 100",
    "SELECT MAX(y) FROM t WHERE x < 900",
    "SELECT MEDIAN(x) FROM t WHERE c = 'a'",
    "SELECT VAR(x) FROM t WHERE y < 1500",
    "SELECT COUNT(y) FROM t WHERE x > 150 AND x < 450 OR y > 1200 AND c <> 'b'",
    "SELECT COUNT(x) FROM t WHERE y > 300 GROUP BY c",
];

const BASE_ROWS: usize = 8_000;
const BATCHES: usize = 6;
const BATCH_ROWS: usize = 2_000;
const MAX_STALENESS: f64 = 0.25;

fn config() -> PairwiseHistConfig {
    PairwiseHistConfig { ns: BASE_ROWS, ..Default::default() }
}

fn batches() -> Vec<Dataset> {
    (0..BATCHES as u64).map(|k| dataset(BATCH_ROWS, 100 + k)).collect()
}

/// Applies the batches serially, recording each query's answer at every step of
/// the timeline (step 0 = pre-ingest, step k = after batch k).
fn reference_timeline() -> Vec<Vec<AqpAnswer>> {
    let twin = Session::with_config(config());
    twin.set_max_staleness(MAX_STALENESS);
    twin.register(dataset(BASE_ROWS, 7)).unwrap();
    let snapshot = |s: &Session| -> Vec<AqpAnswer> {
        WORKLOAD.iter().map(|sql| s.sql(sql).expect("twin answers")).collect()
    };
    let mut timeline = vec![snapshot(&twin)];
    for batch in batches() {
        twin.ingest("t", &batch).expect("twin ingest");
        timeline.push(snapshot(&twin));
    }
    timeline
}

#[test]
fn readers_stay_consistent_while_writer_ingests() {
    let timeline = reference_timeline();
    // Sanity on the reference itself: the timeline really moves (otherwise the
    // membership assertion below would be vacuous).
    let count0 = timeline[0][0].scalar().unwrap().value;
    let count_n = timeline[BATCHES][0].scalar().unwrap().value;
    assert!(count_n > count0 * 1.5, "ingest must visibly grow COUNT: {count0} -> {count_n}");

    let session = Session::with_config(config());
    session.set_max_staleness(MAX_STALENESS);
    session.register(dataset(BASE_ROWS, 7)).unwrap();
    // A handle prepared before any ingest: valid at first, guaranteed stale
    // after the first rebuild (staleness 0.25 is crossed by batch 2).
    let early_plan = session.prepare(WORKLOAD[0]).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let session = &session;
        let done = &done;
        let timeline = &timeline;
        let early_plan = &early_plan;

        scope.spawn(move || {
            for batch in batches() {
                session.ingest("t", &batch).expect("concurrent ingest");
                // Give readers a window on every intermediate state.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            done.store(true, Ordering::Release);
        });

        for reader in 0..4usize {
            scope.spawn(move || {
                let mut iterations = 0usize;
                // Reader 3 answers through a batch, as a serving executor
                // does, renewed every third query: its pins straddle swaps.
                let mut batch = session.batch();
                // Keep reading until the writer finishes, then one full sweep
                // more so every reader also sees the final state.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for (qi, sql) in WORKLOAD.iter().enumerate() {
                        let answer = if reader == 3 {
                            if qi % 3 == 0 {
                                batch = session.batch();
                            }
                            batch.sql(sql)
                        } else {
                            session.sql(sql)
                        };
                        let answer =
                            answer.unwrap_or_else(|e| panic!("reader {reader} query {qi}: {e}"));
                        assert!(
                            timeline.iter().any(|step| step[qi] == answer),
                            "reader {reader} got an answer outside the ingest timeline \
                             for {sql}: {answer:?}"
                        );
                    }
                    // The long-lived handle: pre-rebuild-consistent answers or a
                    // clean stale error; anything else is a correctness bug.
                    match session.execute(early_plan) {
                        Ok(answer) => assert!(
                            // Valid only while the first build's epoch serves:
                            // steps 0 and 1 (batch 2 crosses staleness 0.25 and
                            // rebuilds, minting a new epoch).
                            timeline[..2].iter().any(|step| step[0] == answer),
                            "early plan answered outside its epoch: {answer:?}"
                        ),
                        Err(PhError::StalePlan(_)) => {}
                        Err(e) => panic!("early plan must stale cleanly, got {e}"),
                    }
                    iterations += 1;
                    if finished {
                        break;
                    }
                }
                assert!(iterations >= 2, "reader {reader} must overlap the writer");
            });
        }
    });

    // The writer is done: the session must now serve exactly the final timeline
    // state, and the pre-ingest handle must be stale (>= 1 rebuild happened).
    for (qi, sql) in WORKLOAD.iter().enumerate() {
        assert_eq!(
            session.sql(sql).unwrap(),
            timeline[BATCHES][qi],
            "final answer must match the serial twin: {sql}"
        );
    }
    assert!(
        matches!(session.execute(&early_plan), Err(PhError::StalePlan(_))),
        "the pre-ingest plan must be stale after the rebuilds"
    );
    // And `sql` with the same text transparently re-prepared all along.
    assert_eq!(session.sql(WORKLOAD[0]).unwrap(), timeline[BATCHES][0]);
}

/// Plain folds supersede the version a reader may still hold (their delta
/// synopsis once recycled the superseded one's buffers, which the name
/// recalls). Two readers pin a version (a `TableSnapshot`, and a
/// `BatchSession`'s table pin), keep answering from it bit for bit across
/// several folds, then let it go and pin the newest; two more race the
/// writer through `Session::sql`. Every answer is one of the serial
/// timeline's, and the final state is its last. Under ThreadSanitizer this
/// is the hand-off between the writer and the last reader to drop a version.
#[test]
fn pinned_versions_survive_recycled_folds() {
    const FOLDS: usize = 12;
    let folds: Vec<Dataset> = (0..FOLDS as u64).map(|k| dataset(300, 500 + k)).collect();
    let open = || {
        let s = Session::with_config(config());
        // Every batch after the first folds into the delta: no seal, no refit.
        s.set_max_staleness(f64::INFINITY);
        s.register(dataset(BASE_ROWS, 7)).unwrap();
        s.ingest("t", &dataset(300, 499)).unwrap();
        s
    };
    let answers = |s: &Session| -> Vec<AqpAnswer> {
        WORKLOAD.iter().map(|sql| s.sql(sql).expect("twin answers")).collect()
    };
    let twin = open();
    let mut timeline = vec![answers(&twin)];
    for batch in &folds {
        let report = twin.ingest("t", batch).unwrap();
        assert!(!report.rebuilt, "every batch must fold: {report:?}");
        timeline.push(answers(&twin));
    }
    let queries: Vec<Query> = WORKLOAD.iter().map(|sql| parse_query(sql).unwrap()).collect();

    let session = open();
    let done = AtomicBool::new(false);
    let pinned = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let (session, done, pinned) = (&session, &done, &pinned);
        let (timeline, queries, folds) = (&timeline, &queries, &folds);
        let on_timeline = |qi: usize, answer: &AqpAnswer| {
            assert!(
                timeline.iter().any(|step| step[qi] == *answer),
                "answer outside the fold timeline for {}: {answer:?}",
                WORKLOAD[qi]
            );
        };

        scope.spawn(move || {
            pinned.wait();
            for batch in folds {
                let report = session.ingest("t", batch).expect("concurrent ingest");
                assert!(!report.rebuilt, "{report:?}");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });

        // A snapshot holder: each pinned version answers alike until let go.
        scope.spawn(move || {
            let mut first_pin = Some(pinned);
            while !done.load(Ordering::Acquire) {
                let snap = session.engine("t").unwrap();
                let first: Vec<AqpAnswer> =
                    queries.iter().map(|q| snap.execute(q).unwrap()).collect();
                if let Some(barrier) = first_pin.take() {
                    barrier.wait();
                }
                first.iter().enumerate().for_each(|(qi, a)| on_timeline(qi, a));
                for _ in 0..3 {
                    for (q, want) in queries.iter().zip(&first) {
                        assert_eq!(snap.execute(q).unwrap(), *want, "a held snapshot moved");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        });

        // A batch: its first query pins the table for the batch's lifetime.
        scope.spawn(move || {
            let mut first_pin = Some(pinned);
            while !done.load(Ordering::Acquire) {
                let mut batch = session.batch();
                let first: Vec<AqpAnswer> =
                    WORKLOAD.iter().map(|sql| batch.sql(sql).unwrap()).collect();
                if let Some(barrier) = first_pin.take() {
                    barrier.wait();
                }
                first.iter().enumerate().for_each(|(qi, a)| on_timeline(qi, a));
                for _ in 0..3 {
                    for (sql, want) in WORKLOAD.iter().zip(&first) {
                        assert_eq!(batch.sql(sql).unwrap(), *want, "a batch's pin moved");
                    }
                }
            }
        });

        for _ in 0..2 {
            scope.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                for (qi, sql) in WORKLOAD.iter().enumerate() {
                    on_timeline(qi, &session.sql(sql).unwrap());
                }
                if finished {
                    break;
                }
            });
        }
    });

    for (qi, sql) in WORKLOAD.iter().enumerate() {
        assert_eq!(session.sql(sql).unwrap(), timeline[FOLDS][qi], "final answer: {sql}");
    }
}

/// Registration races: concurrent `register` calls on distinct tables all land;
/// on the same name exactly one wins — no torn catalog state either way.
#[test]
fn concurrent_registration_is_atomic() {
    let session = Session::with_config(config());
    std::thread::scope(|scope| {
        let session = &session;
        for k in 0..4u64 {
            scope.spawn(move || {
                let mut d = dataset(1_000, 200 + k);
                d.rename(format!("fresh_{k}"));
                session.register(d).unwrap();
            });
        }
        for _ in 0..3 {
            scope.spawn(move || {
                // All three race to claim "contested"; errors are the clean
                // duplicate-table kind, never a panic or a half-registered table.
                let mut d = dataset(1_000, 300);
                d.rename("contested");
                match session.register(d) {
                    Ok(()) => {}
                    Err(PhError::Schema(m)) => assert!(m.contains("already registered")),
                    Err(e) => panic!("unexpected registration error: {e}"),
                }
            });
        }
    });
    let mut tables = session.tables();
    tables.sort();
    assert_eq!(
        tables,
        vec!["contested", "fresh_0", "fresh_1", "fresh_2", "fresh_3"],
        "every distinct table registered exactly once"
    );
    for t in tables {
        let sql = format!("SELECT COUNT(x) FROM {t}");
        assert!(session.sql(&sql).is_ok(), "{t} must be fully queryable");
    }
}

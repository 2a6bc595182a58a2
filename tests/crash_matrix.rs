//! The crash matrix: kill the durability state machine at **every**
//! filesystem operation and prove recovery.
//!
//! A scripted workload with the WAL on — journaled ingests that cross two seals
//! (at a lowered threshold the baseline's manifest persists), a `save_dir`
//! into the home, a `compact`, a refit-forcing batch and a plain tail, so every
//! kind of checkpoint, its blob writes, manifest commit, sweep and log
//! deletion included — first runs under a pure counting plan to enumerate its
//! filesystem operations. Then, for every operation index `k` and every
//! crash-flavoured fault, the workload re-runs on a fresh copy of the baseline
//! catalog with the fault armed at `k`, the "process" dies, and the directory
//! is reopened. Recovery must satisfy:
//!
//! * **acked rows survive** — every batch whose `ingest` returned `Ok` before
//!   the crash is present in the reopened catalog (a fully journaled but
//!   unacknowledged batch may also replay: acked ⊆ recovered);
//! * **bit-identical estimates** — the reopened catalog answers a query
//!   battery exactly like an uncrashed twin that absorbed the same batches,
//!   with or without the compaction (the one change a failed checkpoint can
//!   leave uncommitted: a crash before the next checkpoint recovers the table
//!   uncompacted);
//! * **no quarantine** — a crash is not corruption; every table serves.
//!
//! A separate bit-rot matrix arms [`FaultKind::ReadCorruption`] at every read
//! of the reopen path and asserts the damaged table is quarantined (or, for a
//! torn-tail alias in the log, served from a consistent prefix) while
//! `open_dir` itself never fails and the rest of the catalog serves.
//!
//! `PH_BENCH_SMOKE=1` strides the matrix (every 4th index) so the suite stays
//! in the per-push CI budget; the dedicated crash-matrix job runs it in full.

use pairwisehist::prelude::*;
use pairwisehist::types::faultfs::{self, FaultKind, FaultPlan};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const BASE_ROWS: usize = 1_200;
const BATCH_ROWS: usize = 150;
/// Batches in the script.
const BATCHES: usize = 6;
/// The baseline's seal threshold: batches 1–2 and 3–4 each fill the delta past
/// it, so each pair seals (a full slice plus a small remainder).
const SEAL_ROWS: usize = 300;

/// Correlated base table: `x` uniform, `y = 2x + noise` with ~3 % nulls, and a
/// three-value category. The first rows pin the numeric extremes so every
/// workload batch stays inside the fitted ranges (edge-free ingest path).
fn base_table(name: &str) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let n = BASE_ROWS;
    let mut x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
    x[0] = Some(0);
    x[1] = Some(999);
    let mut y: Vec<Option<i64>> = x
        .iter()
        .map(|v| rng.gen_bool(0.97).then(|| v.unwrap() * 2 + rng.gen_range(0..80)))
        .collect();
    y[0] = Some(0);
    y[1] = Some(2 * 999 + 79);
    let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c"][i % 3])).collect();
    Dataset::builder(name)
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

/// Batch sizes are `BATCH_ROWS + 2^(i-1)`: the power-of-two excess makes the
/// recovered row count decode to the exact *subset* of batches that survived
/// (`extra / BATCH_ROWS` batches, bitmask `extra % BATCH_ROWS`) — a survivable
/// fault like ENOSPC can fail one mid-stream batch while later ones land, so
/// recovery is a subset, not a prefix.
fn batch_rows(i: u64) -> usize {
    BATCH_ROWS + (1 << (i - 1))
}

/// Workload batch `i` (1-based). Batch 5 carries an unseen category, forcing
/// the refit-rebuild ingest path; the others ride the edge-free path.
fn batch(i: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i);
    let n = batch_rows(i);
    let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
    let y: Vec<Option<i64>> = x
        .iter()
        .map(|v| rng.gen_bool(0.97).then(|| v.unwrap() * 2 + rng.gen_range(0..80)))
        .collect();
    let cat = if i == 5 { "NEW" } else { "a" };
    let c: Vec<Option<&str>> = (0..n).map(|_| Some(cat)).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
}

/// The scripted workload, on a session opened on the baseline (its WAL home
/// is `dir`): batches 1–6, a save into the home after batch 1 (a checkpoint
/// with a non-empty delta) and, when `compact`, a compaction after batch 4.
/// Returns the per-batch acknowledgement flags (`ingest` returned `Ok`);
/// `only` skips the batches it marks `false` (the twins' subset).
fn run_workload(
    session: &Session,
    dir: &Path,
    only: [bool; BATCHES],
    compact: bool,
) -> [bool; BATCHES] {
    let mut acked = [false; BATCHES];
    for i in 1..=BATCHES as u64 {
        if only[i as usize - 1] {
            acked[i as usize - 1] = session.ingest("t", &batch(i)).is_ok();
        }
        if i == 1 {
            let _ = session.save_dir(dir);
        }
        if i == 4 && compact {
            let _ = session.compact("t");
        }
    }
    acked
}

/// Decodes the recovered batch subset from the table's extra rows (see
/// [`batch_rows`]). Panics if the count is not a valid subset sum — i.e. a
/// torn, partially applied batch is visible.
fn recovered_subset(rows: usize, tag: &str) -> [bool; BATCHES] {
    assert!(rows >= BASE_ROWS, "{tag}: base rows lost");
    let extra = rows - BASE_ROWS;
    let count = extra / BATCH_ROWS;
    let mask = extra % BATCH_ROWS;
    assert!(
        count <= BATCHES && mask < 1 << BATCHES && mask.count_ones() as usize == count,
        "{tag}: {rows} rows is not base + a whole-batch subset"
    );
    std::array::from_fn(|i| mask & (1 << i) != 0)
}

/// Battery of estimates that must be bit-identical between the recovered
/// catalog and its uncrashed twin.
const BATTERY: [&str; 6] = [
    "SELECT COUNT(x) FROM t",
    "SELECT COUNT(y) FROM t WHERE x > 400",
    "SELECT SUM(y) FROM t WHERE x < 700",
    "SELECT AVG(y) FROM t WHERE x > 100",
    "SELECT VAR(x) FROM t WHERE y < 1500",
    "SELECT COUNT(x) FROM t GROUP BY c",
];

fn battery_answers(session: &Session) -> Vec<pairwisehist::core::AqpAnswer> {
    BATTERY.iter().map(|sql| session.sql(sql).expect(sql)).collect()
}

fn total_rows(session: &Session, table: &str) -> usize {
    let stats = session.stats();
    let t = stats.tables.iter().find(|t| t.name == table).expect("table stats");
    (t.sealed_rows + t.delta_rows) as usize
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ph_crashmx_{}_{tag}", std::process::id()))
}

fn smoke_stride() -> usize {
    if std::env::var("PH_BENCH_SMOKE").is_ok_and(|v| v == "1") {
        4
    } else {
        1
    }
}

/// Baseline catalog on disk: the base table saved once, no WAL yet, at the
/// lowered seal threshold (size-based sealing only), which its manifest keeps.
fn make_baseline(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let s = Session::new();
    s.set_max_staleness(f64::INFINITY);
    s.set_seal_threshold(SEAL_ROWS);
    s.register(base_table("t")).unwrap();
    s.save_dir(&dir).unwrap();
    dir
}

/// Battery answers of an uncrashed run of the script over `subset`, with or
/// without the compaction — memoized, since thousands of crash points share
/// a handful of lineages.
fn twin_answers(
    baseline: &Path,
    memo: &mut HashMap<([bool; BATCHES], bool), Vec<pairwisehist::core::AqpAnswer>>,
    subset: [bool; BATCHES],
    compact: bool,
) -> Vec<pairwisehist::core::AqpAnswer> {
    memo.entry((subset, compact))
        .or_insert_with(|| {
            let dir =
                scratch(&format!("twin_{subset:?}_{compact}").replace([' ', ',', '[', ']'], ""));
            copy_dir(baseline, &dir);
            let twin = Session::open_dir(&dir).unwrap();
            let acked = run_workload(&twin, &dir, subset, compact);
            assert_eq!(acked, subset, "the twin acknowledges every batch it is given");
            let answers = battery_answers(&twin);
            drop(twin);
            std::fs::remove_dir_all(&dir).unwrap();
            answers
        })
        .clone()
}

#[test]
fn crash_matrix_recovers_acked_rows_bit_identically() {
    let baseline = make_baseline("base");
    let work = scratch("count");

    // Counting run: enumerate the workload's filesystem operations.
    copy_dir(&baseline, &work);
    let session = Session::open_dir(&work).unwrap();
    faultfs::arm(FaultPlan { trigger_at_op: usize::MAX, kind: FaultKind::ShortWrite });
    let acked_clean = run_workload(&session, &work, [true; BATCHES], true);
    let total_ops = faultfs::disarm();
    let stats = session.table_stats("t").unwrap();
    drop(session);
    assert_eq!(acked_clean, [true; BATCHES], "fault-free workload acks everything");
    // Seal, seal, save, compaction, refit: five checkpoints, none failed.
    assert_eq!((stats.checkpoints, stats.checkpoint_failures), (5, 0), "{stats:?}");
    assert!(total_ops > 60, "workload must exercise the durability surface, saw {total_ops}");
    let mut memo = HashMap::new();

    let kinds = [FaultKind::ShortWrite, FaultKind::Enospc, FaultKind::TornRename];
    for kind in kinds {
        for k in (0..total_ops).step_by(smoke_stride()) {
            let tag = format!("{kind:?}_{k}");
            let run_dir = scratch(&tag);
            copy_dir(&baseline, &run_dir);

            let session = Session::open_dir(&run_dir).unwrap();
            faultfs::arm(FaultPlan { trigger_at_op: k, kind });
            let acked = run_workload(&session, &run_dir, [true; BATCHES], true);
            faultfs::disarm();
            drop(session); // the "process" is dead; only the disk survives

            // Reopen: recovery must never fail or quarantine after a crash.
            let recovered = Session::open_dir(&run_dir).expect("reopen after crash");
            assert!(
                recovered.quarantined().is_empty(),
                "{tag}: a crash is not corruption: {:?}",
                recovered.quarantined()
            );
            let rows = total_rows(&recovered, "t");
            let subset = recovered_subset(rows, &tag);
            for i in 0..BATCHES {
                assert!(
                    subset[i] || !acked[i],
                    "{tag}: batch {} was acknowledged but did not survive \
                     (acked {acked:?}, recovered {subset:?})",
                    i + 1
                );
            }

            // Every checkpoint commits atomically and the log replays the rest,
            // so recovery must land on an uncrashed lineage of the surviving
            // batches, bit for bit: compacted, or — when the compaction's
            // checkpoint is what the fault hit — not.
            let recovered_answers = battery_answers(&recovered);
            let compacted = twin_answers(&baseline, &mut memo, subset, true);
            let uncompacted = twin_answers(&baseline, &mut memo, subset, false);
            assert!(
                recovered_answers == compacted || recovered_answers == uncompacted,
                "{tag}: recovered estimates match neither uncrashed lineage\n\
                 recovered:   {recovered_answers:?}\n\
                 compacted:   {compacted:?}\n\
                 uncompacted: {uncompacted:?}"
            );
            drop(recovered);
            std::fs::remove_dir_all(&run_dir).unwrap();
        }
    }
    std::fs::remove_dir_all(&baseline).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// Bit-rot matrix: one flipped bit at every read of the reopen path. The
/// damaged table quarantines (or serves a consistent prefix when the flip
/// lands in the WAL's final record — indistinguishable from a torn append);
/// `open_dir` itself must survive, and the undamaged second table must serve.
#[test]
fn read_corruption_quarantines_without_taking_down_the_catalog() {
    let dir = scratch("rot_base");
    let _ = std::fs::remove_dir_all(&dir);
    let s = Session::new();
    s.register(base_table("t")).unwrap();
    s.register(base_table("u")).unwrap();
    s.save_dir(&dir).unwrap();
    drop(s);
    // Leave journaled-but-unsaved batches behind so the WAL is part of the
    // read surface.
    let s = Session::open_dir(&dir).unwrap();
    s.ingest("t", &batch(1)).unwrap();
    s.ingest("t", &batch(2)).unwrap();
    drop(s);

    // Count the reads of a clean reopen.
    let probe = scratch("rot_probe");
    copy_dir(&dir, &probe);
    faultfs::arm(FaultPlan { trigger_at_op: usize::MAX, kind: FaultKind::ReadCorruption });
    let clean = Session::open_dir(&probe).unwrap();
    let total_ops = faultfs::disarm();
    let clean_t_rows = total_rows(&clean, "t");
    let clean_u_rows = total_rows(&clean, "u");
    drop(clean);
    std::fs::remove_dir_all(&probe).unwrap();
    assert_eq!(clean_t_rows, BASE_ROWS + batch_rows(1) + batch_rows(2));
    assert_eq!(clean_u_rows, BASE_ROWS);

    for k in (0..total_ops).step_by(smoke_stride()) {
        let run_dir = scratch(&format!("rot_{k}"));
        copy_dir(&dir, &run_dir);
        faultfs::arm(FaultPlan { trigger_at_op: k, kind: FaultKind::ReadCorruption });
        let opened = Session::open_dir(&run_dir).expect("bit-rot must never fail open_dir");
        let fired = faultfs::fault_fired();
        faultfs::disarm();

        let quarantined = opened.quarantined();
        assert!(quarantined.len() <= 1, "one flipped bit damages at most one table");
        for (name, reason) in &quarantined {
            assert!(!reason.is_empty(), "quarantine must say why");
            // Queries on the quarantined table answer Quarantined, not
            // UnknownTable — the operator sees "damaged", not "absent".
            if name == "t" || name == "u" {
                let sql = format!("SELECT COUNT(x) FROM {name}");
                assert!(
                    matches!(opened.sql(&sql), Err(PhError::Quarantined(_))),
                    "query on quarantined '{name}' must say so"
                );
            }
        }
        if fired && quarantined.is_empty() {
            // The flip landed somewhere self-healing: only the WAL's final
            // record can absorb damage silently (torn-tail alias), so every
            // serving table still holds a whole-batch subset, never a torn
            // one.
            recovered_subset(total_rows(&opened, "t"), &format!("rot_{k}"));
        }
        // The undamaged table(s) keep serving.
        let serving = opened.tables();
        assert!(
            serving.len() + quarantined.len() >= 2,
            "catalog lost tables without quarantining them: {serving:?} / {quarantined:?}"
        );
        for name in &serving {
            opened
                .sql(&format!("SELECT COUNT(x) FROM {name}"))
                .unwrap_or_else(|e| panic!("serving table '{name}' must answer: {e}"));
        }
        drop(opened);
        std::fs::remove_dir_all(&run_dir).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Query-log crash matrix: the server's PHQL1 query log writes through the
/// same `faultfs` surface as the WAL, so every fault kind at every file
/// operation must leave bytes the lossy reader degrades on — salvaging an
/// in-order subset of the cleanly-written records (a crashed appender leaves
/// a prefix; a swallowed ENOSPC drops exactly the record being appended) —
/// and must never panic, fabricate, or reorder.
#[test]
fn query_log_fault_matrix_degrades_without_fabricating() {
    use pairwisehist::server::querylog::{read_query_log, read_query_log_lossy, QueryLogWriter};

    let sqls: Vec<String> =
        (0..6).map(|i| format!("SELECT COUNT(x) FROM t WHERE x < {i};")).collect();
    let write_all = |path: &Path| -> Result<(), pairwisehist::types::PhError> {
        let log = QueryLogWriter::create(path)?;
        for (i, sql) in sqls.iter().enumerate() {
            // Deterministic status/latency so records are identifiable across
            // runs (timestamps are wall-clock and excluded from comparison).
            log.append(if i % 3 == 0 { 400 } else { 200 }, 1_000 + i as u64, sql);
        }
        Ok(())
    };

    // Counting run: how many faultable file ops one full log lifetime makes.
    let dir = scratch("qlog_count");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("q.phqlog");
    faultfs::arm(FaultPlan { trigger_at_op: usize::MAX, kind: FaultKind::ShortWrite });
    write_all(&path).unwrap();
    let total_ops = faultfs::disarm();
    let clean = read_query_log(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(clean.len(), sqls.len(), "fault-free log holds every record");
    assert!(total_ops > sqls.len(), "create + each append must be faultable ops");

    let keys = |r: &pairwisehist::encoding::QlogRecord| (r.status, r.latency_micros, r.sql.clone());
    let clean_keys: Vec<_> = clean.iter().map(&keys).collect();
    for kind in [FaultKind::ShortWrite, FaultKind::Enospc, FaultKind::TornRename] {
        for k in 0..total_ops {
            let tag = format!("qlog_{kind:?}_{k}");
            let run_dir = scratch(&tag);
            let _ = std::fs::remove_dir_all(&run_dir);
            std::fs::create_dir_all(&run_dir).unwrap();
            let run_path = run_dir.join("q.phqlog");
            faultfs::arm(FaultPlan { trigger_at_op: k, kind });
            let created = write_all(&run_path).is_ok();
            faultfs::disarm();

            // The writing "process" is gone; only the file survives. Reading
            // whatever is there must degrade, never panic or invent.
            let (salvaged, intact) = read_query_log_lossy(&run_path);
            let got_keys: Vec<_> = salvaged.iter().map(&keys).collect();
            let mut next = 0usize;
            for g in &got_keys {
                let found = clean_keys[next..].iter().position(|c| c == g);
                let Some(at) = found else {
                    panic!("{tag}: salvaged record {g:?} is not an in-order clean record");
                };
                next += at + 1;
            }
            if created && salvaged.len() == clean.len() {
                assert!(intact, "{tag}: complete salvage must report intact");
            }
            // A crashed appender (ShortWrite/TornRename kill the thread) can
            // only leave a prefix; ENOSPC is swallowed per-record, so gaps are
            // allowed there but order never breaks (asserted above).
            if kind != FaultKind::Enospc {
                assert_eq!(
                    got_keys,
                    clean_keys[..got_keys.len()],
                    "{tag}: crash salvage must be a prefix"
                );
            }
            std::fs::remove_dir_all(&run_dir).unwrap();
        }
    }
}

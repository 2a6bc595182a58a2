//! Allocation guard for the hot query path: a plan-cache-hit `Session::sql`
//! of a scalar plan — or a `BatchSession::sql` once the batch has pinned its
//! table — runs in the calling thread's scratch buffers and allocates
//! nothing, whatever the aggregate, the predicate shape or the number of
//! segments the plan fans out over.
//!
//! The count comes from a counting `#[global_allocator]` that tallies per
//! thread, so what other tests of this binary (or the harness) allocate
//! meanwhile cannot reach it: the number is a property of the code path, not
//! of the run. CI judges it in release, the build that ships. The same
//! allocator also records the largest single request, which guards decoding:
//! a few hostile bytes must not reserve gigabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pairwisehist::encoding::write_uvarint;
use pairwisehist::gd::DictCodec;
use pairwisehist::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Allocations (fresh or growing) made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest size this thread asked for in one allocation, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn bump(size: usize) {
    // `try_with`: a thread tearing down its locals may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: a pure pass-through to `System` (see the methods); it adds no state
// an allocation could observe.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System` with the caller's arguments untouched, under
    // the same contract; the counter bump before it cannot allocate.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
    // SAFETY: as `alloc`; `ptr` came from this allocator, which is `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: `ptr` came from this allocator, which is `System` underneath.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn largest_allocation_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A time-ordered slice: `ts` ascends across slices, `x` and `y` are seeded
/// noise around a trend, `c` cycles three categories. Row 0 of every slice
/// repeats the table-wide minima so no batch forces a refit.
fn slice(k: usize, n: usize) -> Dataset {
    let at = |i: usize| (k * n + i) as i64;
    let mut ts: Vec<Option<i64>> = (0..n).map(|i| Some(1_000 + at(i))).collect();
    let mut x: Vec<Option<i64>> = (0..n).map(|i| Some((at(i) * 7919) % 1_000)).collect();
    let mut y: Vec<Option<i64>> =
        (0..n).map(|i| Some((at(i) * 104_729) % 3_000 + at(i) / 50)).collect();
    (ts[0], x[0], y[0]) = (Some(0), Some(0), Some(0));
    let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c"][i % 3])).collect();
    Dataset::builder("t")
        .column(Column::from_ints("ts", ts))
        .unwrap()
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

/// A table of exactly `segments` sealed segments of 2 000 rows and no delta.
fn table(segments: usize) -> Session {
    let session = Session::new();
    session.set_max_staleness(f64::INFINITY);
    session.set_seal_threshold(2_000);
    session.register(slice(0, 2_000)).unwrap();
    for k in 1..segments {
        // A batch that fills the threshold seals at once, into one segment.
        session.ingest("t", &slice(k, 2_000)).unwrap();
    }
    let stats = session.table_stats("t").unwrap();
    assert_eq!(
        stats.segments + usize::from(stats.delta_rows > 0),
        segments,
        "{segments} engines wanted: {stats:?}"
    );
    session
}

/// Scalar plans of every aggregate: one leaf, a cross-column AND, an OR, a
/// repeated leaf (memo slot), a range that prunes the early segments, and no
/// predicate at all.
fn scalar_pool() -> Vec<String> {
    let predicates = [
        "",
        " WHERE x > 400",
        " WHERE y < 1500 AND c = 'a'",
        " WHERE x > 200 AND x < 800 OR c <> 'b'",
        " WHERE x < 300 AND y > 100 OR ts > 500 AND y > 100",
        " WHERE ts > 6000 AND y > 200",
    ];
    let mut pool = Vec::new();
    for agg in ["COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR"] {
        for column in ["x", "y"] {
            for p in predicates {
                pool.push(format!("SELECT {agg}({column}) FROM t{p};"));
            }
        }
    }
    pool
}

/// Worst case over the pool of the allocations one warm query makes, through
/// `Session::sql` and through a `BatchSession` that has pinned the table.
fn worst_hit(session: &Session, pool: &[String]) -> (u64, String) {
    // Twice: the first run plans and caches, the second grows this thread's
    // scratch to the widest histogram the pool touches.
    for _ in 0..2 {
        for sql in pool {
            session.sql(sql).unwrap();
        }
    }
    let mut batch = session.batch();
    batch.sql(&pool[0]).unwrap(); // pins the table: the batch allocates only here
    let misses = session.cache_stats().misses;
    let worst = pool
        .iter()
        .flat_map(|sql| {
            let (direct, n) = allocations_of(|| session.sql(sql));
            let (batched, m) = allocations_of(|| batch.sql(sql));
            assert!(matches!(direct, Ok(AqpAnswer::Scalar(_))), "{sql}: {direct:?}");
            assert_eq!(direct, batched, "{sql}");
            [(n, format!("Session::sql {sql}")), (m, format!("BatchSession::sql {sql}"))]
        })
        .max()
        .unwrap();
    assert_eq!(session.cache_stats().misses, misses, "a measured query was planned");
    worst
}

/// The number found: **0** — a scalar answer is a value, the plan and the
/// table version are reached through `Arc` bumps, and every buffer between
/// them belongs to the thread. One segment or eight, no predicate or five
/// leaves, pruned engines or not.
#[test]
fn cached_scalar_queries_allocate_nothing_whatever_the_segment_count() {
    let pool = scalar_pool();
    for segments in [1, 4, 8] {
        let session = table(segments);
        let (allocs, sql) = worst_hit(&session, &pool);
        assert_eq!(allocs, 0, "{segments} segment(s): {allocs} allocation(s) in {sql}");
        if segments > 1 {
            let stats = session.table_stats("t").unwrap();
            assert!(stats.segments_pruned > 0, "the ts range pruned nothing: {stats:?}");
        }
    }
}

/// A dictionary body claiming 2^28 entries in six bytes is refused before
/// anything is sized from the claim: every entry takes at least a byte, so
/// decoding reserves no more than a small multiple of what it was given.
#[test]
fn decoding_a_dictionary_reserves_only_what_its_body_backs() {
    let mut body = Vec::new();
    write_uvarint(&mut body, 0); // n_rows
    write_uvarint(&mut body, 1 << 28); // k
    assert_eq!(body.len(), 6);
    let (restored, largest) = largest_allocation_of(|| DictCodec::from_bytes(&body));
    assert!(restored.is_none());
    assert!(largest <= 16 * body.len(), "{largest} bytes reserved for a 6-byte body");
}

/// The same bound on the ingest log: a checksum-valid record of a batch with
/// no rows and one categorical column whose dictionary claims 2^24 entries —
/// twenty-odd bytes that once reserved ≈ 400 MB of `String`s — quarantines
/// its table at `Session::open_dir`, and nothing the open reserves comes near
/// the claim.
#[test]
fn replaying_a_log_reserves_only_what_its_records_back() {
    use pairwisehist::encoding::crc32;

    let dir = std::env::temp_dir().join(format!("ph_alloc_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new();
    session.register(slice(0, 300)).unwrap();
    session.save_dir(&dir).unwrap();
    let manifest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "pwhs"))
        .unwrap();

    let mut payload = Vec::new();
    write_uvarint(&mut payload, 1); // seq
    write_uvarint(&mut payload, 1); // batch name
    payload.push(b't');
    write_uvarint(&mut payload, 0); // n_rows
    write_uvarint(&mut payload, 1); // n_cols
    write_uvarint(&mut payload, 1); // column name
    payload.push(b'c');
    payload.push(3); // categorical; no rows, so no validity bytes
    write_uvarint(&mut payload, 1 << 24); // dict_len
    let mut log = b"PHWL1".to_vec();
    write_uvarint(&mut log, payload.len() as u64);
    log.extend_from_slice(&crc32(&payload).to_le_bytes());
    log.extend_from_slice(&payload);
    std::fs::write(manifest.with_extension("phwal"), &log).unwrap();

    let (reopened, largest) = largest_allocation_of(|| Session::open_dir(&dir).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    let quarantined = reopened.quarantined();
    assert!(
        quarantined.iter().any(|(t, why)| t == "t" && why.contains("does not decode")),
        "{quarantined:?}"
    );
    assert!(largest < 4 << 20, "{largest} bytes reserved opening a 300-row table");
}

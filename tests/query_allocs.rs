//! Allocation guard for the hot query path: a plan-cache-hit `Session::sql`
//! of a scalar plan — or a `BatchSession::sql` once the batch has pinned its
//! table — runs in the calling thread's scratch buffers and allocates
//! nothing, whatever the aggregate, the predicate shape or the number of
//! segments the plan fans out over.
//!
//! The count comes from a counting `#[global_allocator]` that tallies per
//! thread, so what other tests of this binary (or the harness) allocate
//! meanwhile cannot reach it: the number is a property of the code path, not
//! of the run. CI judges it in release, the build that ships.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pairwisehist::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Allocations (fresh or growing) made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread tearing down its locals may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pure pass-through to `System` (see the methods); it adds no state
// an allocation could observe.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System` with the caller's arguments untouched, under
    // the same contract; the counter bump before it cannot allocate.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    // SAFETY: as `alloc`; `ptr` came from this allocator, which is `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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

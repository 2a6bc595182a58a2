//! Allocation guard for the hot query path: a plan-cache-hit `Session::sql`
//! of a scalar plan — or a `BatchSession::sql` once the batch has pinned its
//! table — runs in the calling thread's scratch buffers and allocates
//! nothing, whatever the aggregate, the predicate shape or the number of
//! segments the plan fans out over. The plain ingest path, a seal-policy
//! change and `compact` are held to a handful of allocations per column,
//! none per pair: a synopsis keeps every pair in a fixed handful of flat
//! buffers, so a copy of the delta synopsis is a few buffers per column.
//!
//! The count comes from a counting `#[global_allocator]` that tallies per
//! thread, so what other tests of this binary (or the harness) allocate
//! meanwhile cannot reach it: the number is a property of the code path, not
//! of the run. CI judges it in release, the build that ships. The same
//! allocator also records the largest single request, which guards decoding:
//! a few hostile bytes must not reserve gigabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use pairwisehist::encoding::write_uvarint;
use pairwisehist::gd::{DictCodec, RunEndCodec};
use pairwisehist::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Allocations (fresh or growing) made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest size this thread asked for in one allocation, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread asked for, over all its allocations.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(size: usize) {
    // `try_with`: a thread tearing down its locals may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
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

/// `f`'s result, allocations and bytes allocated.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = BYTES.with(Cell::get);
    let (out, allocs) = allocations_of(f);
    (out, allocs, BYTES.with(Cell::get) - before)
}

fn largest_allocation_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn uvarints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        write_uvarint(&mut out, v);
    }
    out
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

/// A WAL-less table of the first `columns` Flights columns, `rows` registered,
/// plus a delta of one 50-row append and three folded ones.
fn flights_with_delta(columns: usize, rows: usize) -> (Session, Dataset) {
    let all = pairwisehist::datagen::generate("Flights", rows, 3).unwrap();
    let mut builder = Dataset::builder("Flights");
    for column in &all.columns()[..columns] {
        builder = builder.column(column.clone()).unwrap();
    }
    let data = builder.build();
    let session = Session::new();
    session.register(data.clone()).unwrap();
    for k in 0..4 {
        let report = session.ingest("Flights", &data.slice(k * 50, 50)).unwrap();
        assert!(!report.rebuilt, "append {k} refit or sealed: {report:?}");
    }
    (session, data)
}

/// One more plain append costs a bounded number of allocations, a handful
/// per column whatever the number of pairs: its out-of-place copy of the
/// delta synopsis is a few buffers per column, where one `Vec` per bin array
/// of every pair dimension made ≈ 840 / 2 700 / 10 100 at 8 / 16 / 32
/// columns (28 / 120 / 496 pairs). A seal-policy call that changes nothing
/// allocates nothing; one that changes the policy, and a `compact` with
/// nothing to merge, stay within the fold's bound, where each once copied the
/// delta synopsis pair by pair (≈ 19 000 allocations at 32 columns).
#[test]
fn a_plain_fold_allocates_per_column_not_per_pair() {
    for columns in [8, 16, 32] {
        let (session, data) = flights_with_delta(columns, 4_000);
        let batch = data.slice(1_000, 50);
        let (report, allocs) = allocations_of(|| session.ingest("Flights", &batch).unwrap());
        assert!(!report.rebuilt && report.sealed_segments == 0, "{report:?}");
        let bound = 256 + 16 * columns as u64;
        assert!(allocs <= bound, "{columns} columns: {allocs} allocations, bound {bound}");
        let (_, policy) = allocations_of(|| {
            session.set_max_staleness(0.5);
            session.set_seal_threshold(50_000);
        });
        assert_eq!(policy, 0, "{columns} columns: an unchanged seal policy allocated");
        let (_, changed) = allocations_of(|| session.set_seal_threshold(40_000));
        assert!(changed <= bound, "{columns} columns: a policy change made {changed} allocations");
        let (report, compact) = allocations_of(|| session.compact("Flights").unwrap());
        assert_eq!(report.segments_after, 1, "{report:?}");
        assert!(compact <= bound, "{columns} columns: compact made {compact} allocations");
        assert_eq!(session.table_stats("Flights").unwrap().delta_rows, 250);
    }
}

/// A clone of a 32-column Flights synopsis (496 pairs) makes a few
/// allocations per column: every pair lives in a fixed handful of flat
/// buffers (264 allocations measured), where one `Vec` per bin array of
/// every pair dimension made 9 683. It also copies at least 30 % fewer
/// bytes: an unsplit pair bin no longer repeats its 1-d parent's edges,
/// metadata and derived centres (381 972 bytes measured, 1 036 064 before).
#[test]
fn a_synopsis_clone_allocates_per_column_not_per_pair() {
    const BYTES_WITH_A_VEC_PER_PAIR_ARRAY: u64 = 1_036_064;
    let data = pairwisehist::datagen::generate("Flights", 4_000, 3).unwrap();
    let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 4_000, ..Default::default() });
    let d = ph.n_columns() as u64;
    assert_eq!(d, 32);
    let (copy, allocs, bytes) = bytes_of(|| ph.clone());
    assert_eq!(copy.to_bytes(), ph.to_bytes());
    assert!(allocs <= 8 * d + 32, "{allocs} allocations for {d} columns");
    assert!(
        bytes * 10 <= BYTES_WITH_A_VEC_PER_PAIR_ARRAY * 7,
        "{bytes} bytes, not 30 % below {BYTES_WITH_A_VEC_PER_PAIR_ARRAY}"
    );
}

/// Hostile bodies of four formats, each a few bytes that claim a huge count:
/// every one is refused before anything is sized from the claim, so decoding
/// reserves no more than a small multiple of what it was given.
/// - `DictCodec`: a dictionary of 2^28 entries in six bytes.
/// - `RunEndCodec`: 2^28 runs of a width-0 value plane, whose ends plane is
///   missing (once collected 2 GiB of zeros before finding that out).
/// - `PRE2`: one categorical column whose plain dictionary claims 2^24
///   entries (once reserved 384 MiB of `String`s).
/// - `PWH1`: one column of 2^24 bins (once reserved 128 MiB of edges).
#[test]
fn decoding_a_hostile_body_reserves_only_what_it_backs() {
    let dict = [&uvarints(&[0, 1 << 28])[..]].concat();
    let run_end = [&uvarints(&[1 << 28, 1 << 28, 0])[..], &[0, 29]].concat();
    let pre2 = [&b"PRE2"[..], &uvarints(&[1, 1]), b"a", &[3], &uvarints(&[1 << 24]), &[0]].concat();
    let pwh1 = [
        &b"PWH1"[..],
        &0u64.to_le_bytes(),         // n_total
        &0u64.to_le_bytes(),         // ns
        &1u32.to_le_bytes(),         // m_min
        &0.05f64.to_le_bytes(),      // alpha
        &1u16.to_le_bytes(),         // columns
        &[1],                        // edge widths
        &(1u32 << 24).to_le_bytes(), // bins of column 0
    ]
    .concat();
    let one_int = Dataset::builder("t")
        .column(Column::from_ints("x", vec![Some(1), Some(2)]))
        .unwrap()
        .build();
    let pre = Arc::new(Preprocessor::fit(&one_int));
    let refuses = |format: &str, body: &[u8], len: usize, refused: &dyn Fn(&[u8]) -> bool| {
        assert_eq!(body.len(), len, "{format}");
        let (refused, largest) = largest_allocation_of(|| refused(body));
        assert!(refused, "{format}: a hostile body decoded");
        assert!(largest <= 16 * len, "{format}: {largest} bytes reserved for a {len}-byte body");
    };
    refuses("DictCodec", &dict, 6, &|b| DictCodec::from_bytes(b, 0).is_none());
    refuses("RunEndCodec", &run_end, 13, &|b| RunEndCodec::from_bytes(b, 1 << 28).is_none());
    refuses("PRE2", &pre2, 13, &|b| Preprocessor::from_bytes(b).is_none());
    refuses("PWH1", &pwh1, 39, &|b| PairwiseHist::from_bytes(b, pre.clone()).is_none());
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

// --- Generated allocation property -------------------------------------------
//
// Every durable decoder, fed any input of length L, makes no single allocation
// larger than `64·L + 64 KiB`. Inputs are random bytes, random bytes after a
// valid header, and valid blobs with bytes flipped, set, cut off, or with a
// large length spliced in at any offset (as a uvarint or a 2-, 4- or 8-byte
// little-endian field). Those splices are swept over every offset of every
// valid blob, so each length field of each format is tried with each size.
//
// One allocation is exempt: a sparse pair's count matrix is dense in memory,
// `ki·kj` cells sized from edges already decoded rather than from a length
// field, so a synopsis that decodes may hold `4·ki·kj` bytes its body does not.

/// The largest single allocation decoding `len` bytes may make.
fn backed_by(len: usize) -> usize {
    64 * len + (64 << 10)
}

/// Decodes a body: `None` when it is refused, else the bytes of the largest
/// exempt allocation the result holds.
type Decode = Box<dyn Fn(&[u8]) -> Option<usize>>;

/// Decodes a body and encodes what it decoded: `None` when it is refused.
type RoundTrip = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;

/// A public decoder, its format's encoder and a valid body of the format.
struct Target {
    name: &'static str,
    valid: Vec<u8>,
    decode: Decode,
    round_trip: RoundTrip,
}

/// The target of a format decoded by `decode` to a `T`, whose largest exempt
/// allocation is `exempt`, and encoded back by `encode`.
fn target<T: 'static>(
    name: &'static str,
    valid: Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T> + 'static,
    exempt: impl Fn(&T) -> usize + 'static,
    encode: impl Fn(&T) -> Vec<u8> + 'static,
) -> Target {
    let decode = std::rc::Rc::new(decode);
    let again = decode.clone();
    Target {
        name,
        valid,
        decode: Box::new(move |b| decode(b).map(|t| exempt(&t))),
        round_trip: Box::new(move |b| again(b).map(|t| encode(&t))),
    }
}

/// Decodes `input` with `target` and holds the largest allocation to the bound.
fn check(target: &Target, input: &[u8], how: &dyn Fn() -> String) {
    let (exempt, largest) = largest_allocation_of(|| (target.decode)(input));
    let bound = backed_by(input.len()).max(exempt.unwrap_or(0));
    assert!(
        largest <= bound,
        "{}: {} allocated one block of {largest} bytes decoding {} bytes (bound {bound})",
        target.name,
        how(),
        input.len()
    );
}

/// One edit of a body.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Flip(usize, u8),
    Set(usize, u8),
    Cut(usize),
    /// A uvarint replacing the one at the offset.
    Uvarint(usize, u64),
    /// A little-endian field of the given width replacing the bytes there.
    Le(usize, usize, u64),
}

fn apply(body: &[u8], edit: Edit) -> Option<Vec<u8>> {
    let mut out = body.to_vec();
    match edit {
        Edit::Flip(at, mask) => *out.get_mut(at)? ^= mask,
        Edit::Set(at, byte) => *out.get_mut(at)? = byte,
        Edit::Cut(at) => out.truncate(at),
        Edit::Uvarint(at, v) => {
            let old = body.get(at..)?.iter().take(10).position(|b| b & 0x80 == 0)? + 1;
            out.splice(at..at + old, uvarints(&[v]));
        }
        Edit::Le(at, width, v) => {
            out.get_mut(at..at + width)?.copy_from_slice(&v.to_le_bytes()[..width]);
        }
    }
    Some(out)
}

/// The large lengths spliced in at every offset.
const CLAIMS: [u64; 4] = [0xFFFF, 1 << 20, 1 << 24, 1 << 28];

/// Every splice of a claim at `at`.
fn splices(at: usize) -> impl Iterator<Item = Edit> {
    CLAIMS.into_iter().flat_map(move |v| {
        [Edit::Uvarint(at, v), Edit::Le(at, 2, v), Edit::Le(at, 4, v), Edit::Le(at, 8, v)]
    })
}

/// A random edit of a `len`-byte body, from three random words.
fn random_edit(len: usize, [a, b, c]: [u64; 3]) -> Edit {
    let at = (a % len.max(1) as u64) as usize;
    let claim = 1u64 << (b % 40);
    match c % 6 {
        0 => Edit::Flip(at, (b as u8).max(1)),
        1 => Edit::Set(at, b as u8),
        2 => Edit::Cut(at),
        3 => Edit::Uvarint(at, claim),
        _ => Edit::Le(at, [2, 4, 8][(b % 3) as usize], claim),
    }
}

/// Two integer columns with few distinct values: a synopsis of a few hundred
/// bytes with one pair.
fn two_columns() -> Dataset {
    let x: Vec<Option<i64>> = (0..400).map(|i| Some((i * 7919) % 50)).collect();
    let y: Vec<Option<i64>> = x.iter().map(|v| v.map(|v| 2 * v + v % 7)).collect();
    Dataset::builder("p")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .build()
}

/// `slice`'s columns plus URL-like strings, whose dictionary FSST compresses.
fn with_urls() -> Dataset {
    let urls: Vec<String> =
        (0..60).map(|i| format!("https://example.com/a/b/{}", i % 40)).collect();
    let mut b = Dataset::builder("t");
    for col in slice(0, 60).columns() {
        b = b.column(col.clone()).unwrap();
    }
    b.column(Column::from_strings("u", urls.iter().map(|s| Some(s.as_str())).collect()))
        .unwrap()
        .build()
}

fn targets() -> Vec<Target> {
    use pairwisehist::encoding::{read_qlog_body, write_qlog_record, QlogRecord};
    use pairwisehist::gd::{BitPackCodec, ColumnCodec, ColumnarStore, DeltaCodec, SymbolTable};

    let ph = PairwiseHist::build(&two_columns(), &PairwiseHistConfig::default());
    let pre = ph.preprocessor().clone();
    let urls = with_urls();
    let fitted = Preprocessor::fit(&urls);
    let column: Vec<u64> = (0..600u64).map(|i| 1_000 + i * 3 + i % 4).collect();
    let constant = vec![0u64; 700];
    // A constant column of 2^28 rows: one run, a width-0 value plane.
    let tall =
        [&uvarints(&[1 << 28, 1, 0])[..], &[0, 29], &((1u32 << 28) << 3).to_be_bytes()].concat();
    assert!(RunEndCodec::from_bytes(&tall, 1 << 28).is_some());
    let codecs = [
        ColumnCodec::BitPack(BitPackCodec::encode(&column)),
        ColumnCodec::Delta(DeltaCodec::encode(&column)),
        ColumnCodec::Dict(DictCodec::encode(&constant[..9].iter().map(|_| 7).collect::<Vec<_>>())),
        ColumnCodec::Dict(DictCodec::encode(&column.iter().map(|v| v % 5).collect::<Vec<_>>())),
        ColumnCodec::RunEnd(RunEndCodec::encode(
            &column.iter().map(|v| v / 100).collect::<Vec<_>>(),
        )),
        ColumnCodec::RunEnd(RunEndCodec::encode(&constant)),
    ];
    let mut qlog = Vec::new();
    let mut prev = 0;
    for (i, sql) in
        ["SELECT COUNT(x) FROM t;", "", "SELECT AVG(y) FROM t WHERE x > 3;"].iter().enumerate()
    {
        let rec = QlogRecord {
            ts_micros: 1_000 + i as u64,
            status: 200,
            latency_micros: 9,
            sql: sql.to_string(),
        };
        prev = write_qlog_record(&mut qlog, prev, &rec);
    }

    let urls_store = ColumnarStore::encode(&fitted.encode(&urls));
    let shape = (urls_store.n_rows(), urls_store.n_columns());
    let mut targets = vec![
        target(
            "PWH1 synopsis",
            ph.to_bytes(),
            move |b| PairwiseHist::from_bytes(b, pre.clone()),
            |ph| {
                // Every pair's count matrix, in one buffer.
                4 * ph.total_2d_cells()
            },
            PairwiseHist::to_bytes,
        ),
        target(
            "PRE2 preprocessor",
            fitted.to_bytes(),
            Preprocessor::from_bytes,
            |_| 0,
            Preprocessor::to_bytes,
        ),
        target(
            "columnar store",
            urls_store.to_bytes(),
            move |b| ColumnarStore::from_bytes(b, shape.0, shape.1),
            |_| 0,
            ColumnarStore::to_bytes,
        ),
        target(
            "FSST symbol table",
            SymbolTable::build(urls.columns()[4].dictionary().unwrap()).to_bytes(),
            SymbolTable::from_bytes,
            |_| 0,
            SymbolTable::to_bytes,
        ),
        target(
            "PHQL1 body",
            qlog,
            read_qlog_body,
            |_| 0,
            |records| {
                let mut out = Vec::new();
                records.iter().fold(0, |prev, rec| write_qlog_record(&mut out, prev, rec));
                out
            },
        ),
        target(
            "run-end codec (2^28 rows)",
            tall,
            |b| ColumnCodec::from_tag_bytes(3, b, 1 << 28),
            |_| 0,
            ColumnCodec::to_bytes,
        ),
    ];
    for codec in codecs {
        let (tag, rows) = (codec.tag(), codec.decode().len());
        targets.push(target(
            codec.name(),
            codec.to_bytes(),
            move |b| ColumnCodec::from_tag_bytes(tag, b, rows),
            |_| 0,
            ColumnCodec::to_bytes,
        ));
    }
    targets
}

/// Every claim at every offset of every valid blob, after the valid blob
/// itself decodes and encodes back to the same bytes.
#[test]
fn spliced_lengths_reserve_only_what_their_bodies_back() {
    for target in targets() {
        let back = (target.round_trip)(&target.valid);
        assert!(back.as_ref() == Some(&target.valid), "{}: the valid blob re-encodes", target.name);
        check(&target, &target.valid, &|| "the valid blob".into());
        for at in 0..target.valid.len() {
            for edit in splices(at) {
                if let Some(input) = apply(&target.valid, edit) {
                    check(&target, &input, &|| format!("{edit:?}"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, random bytes after a valid header, and valid blobs with a
    /// few random edits.
    #[test]
    fn random_and_edited_bodies_reserve_only_what_they_back(
        pick in any::<u64>(),
        mode in 0u8..3,
        noise in prop::collection::vec(any::<u8>(), 0..96),
        edits in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        thread_local! {
            static TARGETS: Vec<Target> = targets();
        }
        TARGETS.with(|targets| {
            let target = &targets[(pick % targets.len() as u64) as usize];
            let input = match mode {
                0 => noise.clone(),
                1 => {
                    let head = (pick as usize >> 8) % (target.valid.len() + 1);
                    [&target.valid[..head], &noise[..]].concat()
                }
                _ => edits.iter().fold(target.valid.clone(), |body, &(a, b, c)| {
                    apply(&body, random_edit(body.len(), [a, b, c])).unwrap_or(body)
                }),
            };
            check(target, &input, &|| format!("mode {mode}, edits {edits:?}"));
        });
    }
}

/// A catalog in its WAL home: table `t` sealed from `base`, then `batch`
/// journaled into its log without sealing. Built once per template.
fn catalog(tag: &str, base: Dataset, batch: Dataset) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ph_alloc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new();
    session.set_max_staleness(f64::INFINITY);
    session.set_seal_threshold(1 << 20);
    session.enable_wal(&dir).unwrap();
    session.register(base).unwrap();
    session.ingest("t", &batch).unwrap();
    dir
}

/// The file of `dir` with extension `ext`.
fn file_of(dir: &Path, ext: &str) -> PathBuf {
    let mut files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    files.find(|p| p.extension().is_some_and(|e| e == ext)).unwrap()
}

/// `bytes` of a catalog file with `edit` applied to what its checksum covers,
/// and the checksum recomputed: the body before a manifest's or a blob's CRC
/// trailer, or the payload of a log's one record, reframed.
fn reframed(path: &Path, bytes: &[u8], edit: Edit) -> Option<Vec<u8>> {
    use pairwisehist::encoding::crc32;
    if path.extension().is_some_and(|e| e == "phwal") {
        let (magic, record) = bytes.split_at(5);
        let header = record.iter().position(|b| b & 0x80 == 0)? + 1 + 4;
        let payload = apply(&record[header..], edit)?;
        let mut out = [magic, &uvarints(&[payload.len() as u64])].concat();
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Some(out)
    } else {
        let mut body = apply(&bytes[..bytes.len() - 4], edit)?;
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        Some(body)
    }
}

/// Opens a copy of `template` whose `ext` file has `edit` applied (reframed),
/// then runs one query, one ingest of `refit` (a batch the fitted transforms
/// cannot encode, so a refit decodes every stored row) and a compaction, none
/// of which may panic. The open's largest allocation is held to the bound on
/// the directory's bytes, and what follows it to that plus 16 bytes per cell
/// of the rows the opened synopses commit. `None` when the edit does not
/// apply to the file.
fn open_edited(template: &Path, ext: &str, edit: Option<Edit>, refit: &Dataset) -> Option<()> {
    let dir = template.with_extension("case");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut total = 0;
    for entry in std::fs::read_dir(template).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        if let (Some(edit), true) = (edit, path.extension().is_some_and(|e| e == ext)) {
            bytes = reframed(&path, &bytes, edit)?;
        }
        total += bytes.len();
        std::fs::write(dir.join(path.file_name().unwrap()), &bytes).unwrap();
    }
    let (session, largest) = largest_allocation_of(|| Session::open_dir(&dir).unwrap());
    let bound = backed_by(total);
    let case = || format!("open_dir with {edit:?} in the .{ext} file of a {total}-byte catalog");
    assert!(largest <= bound, "{}: one block of {largest} bytes (bound {bound})", case());

    let committed = session.table_stats("t").map_or(0, |t| t.sealed_rows + t.delta_rows);
    let columns = session.engine("t").map_or(0, |t| t.preprocessor().n_columns());
    let bound = bound + 16 * committed as usize * columns;
    let (outcome, largest) = largest_allocation_of(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.sql("SELECT COUNT(x) FROM t WHERE x > 100");
            let refitted = session.ingest("t", refit).is_ok_and(|r| r.rebuilt);
            let _ = session.compact("t");
            refitted
        }))
    });
    std::fs::remove_dir_all(&dir).unwrap();
    let refitted =
        outcome.unwrap_or_else(|_| panic!("{}: a query, a refit or a compaction panicked", case()));
    assert!(refitted || edit.is_some(), "{}: the unedited catalog did not refit", case());
    assert!(
        largest <= bound,
        "{}, then a query, a refit and a compaction: one block of {largest} bytes for \
         {committed} committed rows of {columns} columns (bound {bound})",
        case()
    );
    Some(())
}

/// The same bound through `Session::open_dir`, whose manifest, segment blobs
/// and log each pass their checksum once edited: every claim at every offset
/// of a two-row log record, cuts every 256 bytes into a 32 768-row record
/// (whose int column is then backed by its validity bytes alone), and random
/// edits of each file of the small catalog. Each opened catalog then answers
/// a query, refits and compacts without a panic, within the bound plus the
/// rows its synopses commit.
#[test]
fn opening_an_edited_catalog_reserves_only_what_its_bytes_back() {
    let small = catalog("small", slice(0, 300), slice(1, 2));
    let one_int = |x: Vec<Option<i64>>| {
        Dataset::builder("t").column(Column::from_ints("x", x)).unwrap().build()
    };
    let ints = |n: usize| one_int((0..n).map(|i| Some((i % 1_000) as i64)).collect());
    let wide = catalog("wide", ints(300), ints(32_768));
    // A novel category, and a NULL in a column fitted without one: each
    // forces a refit of its table.
    let novel = Dataset::builder("t")
        .column(Column::from_ints("ts", vec![Some(5)]))
        .unwrap()
        .column(Column::from_ints("x", vec![Some(5)]))
        .unwrap()
        .column(Column::from_ints("y", vec![Some(5)]))
        .unwrap()
        .column(Column::from_strings("c", vec![Some("novel")]))
        .unwrap()
        .build();
    let null = one_int(vec![None]);
    for (template, refit) in [(&small, &novel), (&wide, &null)] {
        for ext in ["pwhs", "phseg", "phwal"] {
            open_edited(template, ext, None, refit).unwrap();
        }
    }

    let log = std::fs::read(file_of(&small, "phwal")).unwrap();
    for at in 0..log.len() {
        for claim in CLAIMS {
            open_edited(&small, "phwal", Some(Edit::Uvarint(at, claim)), &novel);
        }
    }
    let log = std::fs::read(file_of(&wide, "phwal")).unwrap();
    for at in (0..log.len()).step_by(256) {
        open_edited(&wide, "phwal", Some(Edit::Cut(at)), &null);
    }

    // splitmix64: a seeded stream of edits.
    let mut state = 0xA110_CA7E_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for ext in ["pwhs", "phseg", "phwal"] {
        let len = std::fs::read(file_of(&small, ext)).unwrap().len();
        for _ in 0..16 {
            let words = [next(), next(), next()];
            open_edited(&small, ext, Some(random_edit(len, words)), &novel);
        }
    }
    std::fs::remove_dir_all(&small).unwrap();
    std::fs::remove_dir_all(&wide).unwrap();
}

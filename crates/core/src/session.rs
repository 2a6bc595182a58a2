//! The `Session` catalog facade: named tables in **segmented storage**,
//! prepared-plan caching, O(batch)-amortized ingest with delta sealing, and
//! versioned multi-file persistence — all safely shareable across threads.
//!
//! A `Session` is the single front door the serving story needs: applications
//! register datasets once, then speak SQL. Behind the door it
//!
//! * stores each table as a list of immutable **sealed segments** — every
//!   segment holding its own PairwiseHist synopsis *plus* its retained rows
//!   GD-compressed in a `ph_gd::GdStore` — and one **active delta** synopsis
//!   absorbing `ingest` batches (see `crate::segment` for the layout);
//! * routes each query by its `FROM` table, fans the compiled plan out across
//!   the table's segment synopses and **merges** the partial estimates
//!   (`crate::merge`: COUNT/SUM additive, AVG/VARIANCE by weighted moment
//!   combination, CI widths combined from per-segment variances);
//! * caches canonicalized plans keyed by [`Query::fingerprint`], so a repeated
//!   template (the common case under production traffic) skips parsing *and*
//!   planning and goes straight to histogram arithmetic;
//! * **seals** the delta into a new segment when it crosses a size threshold
//!   ([`Session::set_seal_threshold`]) or the staleness policy
//!   ([`Session::set_max_staleness`]) — an O(threshold) operation regardless of
//!   total table size, replacing the old full-table rebuild — and merges
//!   accumulated small segments on an explicit [`Session::compact`];
//! * persists every table to a directory (one manifest + one blob per segment,
//!   compressed rows included) and reopens it cold with ingest *still working*:
//!   the compressed rows round-trip, so rebuilds keep their source material;
//!   with a WAL home, every seal is a checkpoint and the log holds only the
//!   delta (`save_dir` / `open_dir`, checkpoints and the on-disk format live in
//!   `crate::persist`).
//!
//! # Threading model
//!
//! Every public method takes `&self`, and `Session` is `Send + Sync`: wrap one in
//! an `Arc` (or hand out `&Session` under `std::thread::scope`) and let any number
//! of reader threads call [`Session::sql`] / [`Session::prepare`] /
//! [`Session::execute`] while writer threads [`Session::ingest`] and
//! [`Session::register`] concurrently. Three mechanisms make that safe without
//! serializing the read path:
//!
//! 1. **Epoch-swapped table state.** Each table's segment list (plus delta
//!    synopsis, shared preprocessor and build config) lives in an immutable
//!    `TableState` behind `RwLock<Arc<TableState>>`. Readers take the read lock
//!    just long enough to clone the `Arc` — nanoseconds — then run the whole
//!    query against their private snapshot with no lock held. `ingest` builds
//!    the replacement state *off to the side* (holding only a per-table writer
//!    mutex that excludes other writers, never readers) and swaps the `Arc` in
//!    one write-lock store. A reader mid-query keeps its snapshot alive through
//!    the `Arc`; every answer is consistent with *some* point in the ingest
//!    timeline, never a half-applied batch. Unchanged sealed-segment `Arc`s are
//!    shared between versions, so an ingest publishes O(1) new state.
//! 2. **A sharded plan cache.** The fingerprint → plan and text → plan maps are
//!    split across [`PLAN_CACHE_SHARDS`] `RwLock`ed shards, so concurrent cache
//!    hits on different templates don't contend on one global lock, and a hit is
//!    a single read-lock probe.
//! 3. **Plan epochs for staleness.** Every engine of one table version carries
//!    the version's **plan epoch**, so one prepared plan serves all segments. A
//!    seal or rebuild mints a fresh epoch (sealing re-refines the delta's
//!    synopsis; rebuilding refits the preprocessor), so a `Prepared` handle held
//!    across one fails with [`PhError::StalePlan`] instead of answering wrongly;
//!    [`Session::sql`] transparently re-prepares on that error (bounded retries
//!    — see `STALE_RETRIES`), while [`Session::execute`] surfaces it so callers
//!    holding long-lived handles can re-prepare themselves. Edge-free delta
//!    ingest keeps the epoch — plans stay valid across those swaps.
//!
//! **Lock poison policy.** Every lock acquisition recovers from poison
//! (`unwrap_or_else(PoisonError::into_inner)`) instead of panicking: one
//! panicking thread must degrade the session, never kill every other thread
//! that touches the same lock. This is sound here because the structures the
//! locks guard are either published atomically (whole-`Arc` swaps — a panicked
//! writer's half-built state was never visible) or are maps/sets whose
//! individual operations complete before the guard drops. Enforced by the
//! `no-panic-serving` lint rule.
//!
//! # Quick start
//!
//! ```
//! use ph_core::Session;
//! use ph_types::{Column, Dataset};
//!
//! let data = Dataset::builder("demo")
//!     .column(Column::from_ints("x", (0..10_000).map(|i| Some(i % 100)).collect())).unwrap()
//!     .column(Column::from_ints("y", (0..10_000).map(|i| Some((i % 100) * 2)).collect())).unwrap()
//!     .build();
//!
//! let session = Session::new();
//! session.register(data).unwrap();
//! let est = session.sql("SELECT COUNT(y) FROM demo WHERE x >= 50;").unwrap()
//!     .scalar().unwrap();
//! assert!((est.value - 5000.0).abs() < 100.0);
//! assert!(est.lo <= 5000.0 && 5000.0 <= est.hi);
//!
//! // The same session, shared by reference across threads:
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         scope.spawn(|| session.sql("SELECT AVG(y) FROM demo WHERE x > 10").unwrap());
//!     }
//! });
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use ph_obs::{span, Stage};
use ph_sql::parse_query;
use ph_types::{Dataset, PhError};

use crate::build::{next_plan_epoch, PairwiseHist, PairwiseHistConfig};
use crate::engine::AqpAnswer;
use crate::coverage::RangeSet;
use crate::prepared::Prepared;
use crate::persist::Durability;
use crate::segment::{
    build_delta, count_store_matching, decode_store, merge_segments, registration_segment,
    seal_segment, CompactReport, FootprintReport, SealPolicy, Segment, TableState,
};

/// Plan-cache capacity across all shards. Caching is keyed by full query
/// fingerprint (structure and literals), so adversarially unique literals could
/// grow the map without bound; past this many distinct templates a shard is
/// simply cleared — correct, and cheap relative to the cost of tracking recency.
const PLAN_CACHE_CAP: usize = 4096;

/// Number of plan-cache shards. Hits on different templates land on different
/// locks with high probability; 16 is plenty for the core counts this serves.
const PLAN_CACHE_SHARDS: usize = 16;

/// How many times [`Session::sql`] re-prepares after a [`PhError::StalePlan`]
/// before giving up. Each retry replans against the *latest* table state, so a
/// retry only fails if a seal or rebuild lands in the microseconds between
/// planning and execution — `N` consecutive failures require `N` back-to-back
/// seals interleaved exactly so, which no realistic writer produces.
const STALE_RETRIES: usize = 4;

/// Process-unique session ids for the plan identity check (never 0: 0 means
/// "unbound" on a [`Prepared`]).
fn next_session_id() -> u64 {
    static IDS: AtomicU64 = AtomicU64::new(1);
    IDS.fetch_add(1, Ordering::Relaxed)
}

/// The epoch cell of one table: the current state, swapped atomically under
/// `state`'s write lock, plus the raw un-sealed delta rows. The rows mutex
/// doubles as the writer lock — it serializes ingests/compactions (two writers
/// must never build replacements from the same base; the second would silently
/// drop the first's rows), and it guards the only writer-side mutable data, so
/// delta rows are appended in place (O(batch) per ingest) instead of cloned per
/// batch. Readers never touch it: snapshots expose only the engines.
pub(crate) struct TableCell {
    state: RwLock<Arc<TableState>>,
    /// Raw rows ingested since the last seal; `None` when the delta is empty.
    /// Invariant under the writer lock: `Some` here ⟺ the published state has
    /// a delta synopsis.
    pub(crate) delta_rows: Mutex<Option<Dataset>>,
    /// Heap bytes of `delta_rows`, maintained by writers after each mutation,
    /// so footprint queries never touch the writer lock (a metrics poll must
    /// not stall behind an in-flight seal, rebuild or save).
    delta_bytes: AtomicUsize,
    /// Sequence number of the last ingest batch journaled to (or replayed
    /// from) this table's WAL; 0 = none. Written only under the writer lock
    /// (or during single-threaded `open_dir` replay).
    pub(crate) wal_seq: AtomicU64,
    /// What the table has committed to the WAL home (`crate::persist`).
    pub(crate) durability: Durability,
    /// Reusable encode buffers for the seal path. Sealing encodes every delta
    /// slice into a fresh `EncodedMatrix`; recycling the column buffers across
    /// seals removes the allocation spike that dominated ingest tail latency
    /// (p99 ≫ p50 on seal batches). Only the seal branch locks it, under the
    /// writer lock, so there is never contention.
    seal_scratch: Mutex<ph_gd::EncodeScratch>,
}

impl TableCell {
    pub(crate) fn new(state: TableState) -> Self {
        Self {
            state: RwLock::new(Arc::new(state)),
            delta_rows: Mutex::new(None),
            delta_bytes: AtomicUsize::new(0),
            wal_seq: AtomicU64::new(0),
            durability: Durability::default(),
            seal_scratch: Mutex::new(ph_gd::EncodeScratch::new()),
        }
    }

    /// The current state; the read lock is held only for the `Arc` clone.
    pub(crate) fn snapshot(&self) -> Arc<TableState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Publishes a replacement state.
    pub(crate) fn swap(&self, next: TableState) {
        *self.state.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
    }

    /// Records the delta rows' resident bytes (writer-side, after mutation).
    fn set_delta_bytes(&self, bytes: usize) {
        self.delta_bytes.store(bytes, Ordering::Relaxed);
    }
}

/// A point-in-time view of one table's serving state, as returned by
/// [`Session::engine`]. Holding a snapshot keeps that version alive even while
/// writers swap in newer ones — queries through it answer from the version it
/// captured (including across a [`Session::drop_table`]). Dereferences to the
/// table's primary [`PairwiseHist`] (its first sealed segment's synopsis); use
/// [`TableSnapshot::execute`] for answers merged across *all* segments.
pub struct TableSnapshot(Arc<TableState>);

impl TableSnapshot {
    /// The primary synopsis engine of this version (the first sealed segment).
    pub fn engine(&self) -> &PairwiseHist {
        self.0.primary()
    }

    /// The plan epoch of this version: plans whose token matches execute
    /// against every segment of this snapshot.
    pub fn plan_epoch(&self) -> u64 {
        self.0.epoch
    }

    /// Exact count over this snapshot's *sealed* rows whose encoded value in
    /// `column` falls in the range set, evaluated directly on the compressed
    /// row stores: dictionary columns compare code intervals, run-end columns
    /// skip whole runs, and nothing is materialized. Bit-identical to decoding
    /// every store and scanning (the codec equivalence suite asserts this).
    /// Delta (un-sealed) rows are not counted; `None` when the column is out
    /// of range.
    pub fn count_sealed_matching(&self, column: usize, rs: &RangeSet) -> Option<u64> {
        let mut total = 0u64;
        for seg in &self.0.segments {
            total = total.checked_add(count_store_matching(&seg.store, column, rs)?)?;
        }
        Some(total)
    }

    /// Number of sealed segments in this version.
    pub fn n_segments(&self) -> usize {
        self.0.segments.len()
    }

    /// Every sealed segment's synopsis, oldest first.
    pub fn segments(&self) -> Vec<&PairwiseHist> {
        self.0.segments.iter().map(|s| &s.engine).collect()
    }

    /// The active delta's synopsis, if the table has un-sealed rows.
    pub fn delta(&self) -> Option<&PairwiseHist> {
        self.0.delta.as_ref()
    }

    /// Executes a query against this snapshot: the plan fans out across every
    /// segment (and the delta) and the partial estimates are merged. On a
    /// single-segment table this is bit-identical to executing on
    /// [`TableSnapshot::engine`] directly.
    pub fn execute(&self, query: &ph_sql::Query) -> Result<AqpAnswer, PhError> {
        self.0.execute_query(query)
    }
}

/// A short-lived executor for one drained batch of queries, created by
/// [`Session::batch`]: every query in the batch against the same table shares
/// **one** pinned snapshot (one read-lock acquisition and `Arc` bump per table
/// per batch) instead of one per request. Built for batched serving loops that
/// drain many parsed queries at once — the per-request snapshot cost was pure
/// overhead when the whole batch answers from the same version anyway.
///
/// Answers are bit-identical to [`Session::sql`] against the version pinned
/// when the table was first touched by this batch. A concurrent seal or
/// rebuild surfaces internally as [`PhError::StalePlan`] exactly like the
/// unbatched path; the batch transparently re-pins the table and replans, with
/// the same bounded-retry contract, falling back to [`Session::sql`] under a
/// writer storm. Dropping the batch releases its pinned snapshots.
pub struct BatchSession<'a> {
    session: &'a Session,
    /// Tables this batch has touched, each pinned at first touch. Batches are
    /// small and almost always single-table, so a linear scan beats a map.
    snaps: Vec<(String, Arc<TableState>)>,
}

impl BatchSession<'_> {
    /// Parses, plans (through the session's shared plan cache) and executes
    /// one query against this batch's pinned snapshot of its table.
    pub fn sql(&mut self, sql: &str) -> Result<AqpAnswer, PhError> {
        let mut prepared = self.session.prepare(sql)?;
        for _ in 0..=STALE_RETRIES {
            let state = self.snap(&prepared.query().table)?;
            match state.execute_prepared(&prepared) {
                Err(PhError::StalePlan(_)) => {
                    // The pinned snapshot (and possibly the plan) lost a race
                    // with a seal or rebuild: unpin, purge the table's cached
                    // plans, and replan against the live state.
                    let table = prepared.query().table.clone();
                    self.evict(&table);
                    self.session.cache.invalidate_table(&table);
                    prepared = self.session.prepare_internal(sql)?;
                }
                other => return other,
            }
        }
        // Writer storm: every re-pin raced a fresh seal. Fall back to the
        // unbatched path, which pins a fresh snapshot per attempt.
        self.session.sql(sql)
    }

    /// The pinned snapshot for `table`, pinning the current version on first
    /// touch.
    fn snap(&mut self, table: &str) -> Result<Arc<TableState>, PhError> {
        if let Some((_, state)) = self.snaps.iter().find(|(name, _)| name == table) {
            return Ok(state.clone());
        }
        let state = self.session.cell(table)?.snapshot();
        self.snaps.push((table.to_string(), state.clone()));
        Ok(state)
    }

    fn evict(&mut self, table: &str) {
        self.snaps.retain(|(name, _)| name != table);
    }
}

impl Deref for TableSnapshot {
    type Target = PairwiseHist;

    fn deref(&self) -> &PairwiseHist {
        self.0.primary()
    }
}

/// One plan-cache shard: template plans by fingerprint, plus a text index that
/// lets byte-identical SQL resolve in a single probe without parsing. Both maps
/// hold the plan `Arc` directly, so the two indexes need no cross-shard
/// consistency.
#[derive(Default)]
struct CacheShard {
    by_fingerprint: HashMap<u64, Arc<Prepared>>,
    by_text: HashMap<String, Arc<Prepared>>,
}

/// The sharded plan cache. Shard choice is by fingerprint for the canonical
/// index and by text hash for the spelling index; hit/miss counters are
/// [`ph_obs::Counter`] handles (lock-free) so the hot path never takes a lock
/// for bookkeeping and a scraper reads the same counters `/metrics` exposes.
struct PlanCache {
    shards: Vec<RwLock<CacheShard>>,
    hits: ph_obs::Counter,
    misses: ph_obs::Counter,
}

impl PlanCache {
    fn new() -> Self {
        Self {
            shards: (0..PLAN_CACHE_SHARDS).map(|_| RwLock::new(CacheShard::default())).collect(),
            hits: ph_obs::Counter::new(),
            misses: ph_obs::Counter::new(),
        }
    }

    fn shard_for_fp(&self, fp: u64) -> &RwLock<CacheShard> {
        // ph-lint: allow(no-panic-serving) — index is % len: new() builds exactly PLAN_CACHE_SHARDS shards
        &self.shards[(fp as usize) % PLAN_CACHE_SHARDS]
    }

    fn shard_for_text(&self, sql: &str) -> &RwLock<CacheShard> {
        // ph-lint: allow(no-panic-serving) — index is % len: new() builds exactly PLAN_CACHE_SHARDS shards
        &self.shards[(ph_types::fnv1a(sql.as_bytes()) as usize) % PLAN_CACHE_SHARDS]
    }

    fn get_by_text(&self, sql: &str) -> Option<Arc<Prepared>> {
        self.shard_for_text(sql).read().unwrap_or_else(PoisonError::into_inner).by_text.get(sql).cloned()
    }

    fn get_by_fp(&self, fp: u64) -> Option<Arc<Prepared>> {
        self.shard_for_fp(fp).read().unwrap_or_else(PoisonError::into_inner).by_fingerprint.get(&fp).cloned()
    }

    /// Records a plan under its fingerprint and the spelling that produced it.
    /// Each shard is capped (see [`PLAN_CACHE_CAP`]); distinct re-spellings of
    /// cached templates (whitespace/case variants) must not grow memory without
    /// limit in a long-lived serving process, so the text index has its own cap.
    fn insert(&self, sql: &str, plan: &Arc<Prepared>) {
        let per_shard = (PLAN_CACHE_CAP / PLAN_CACHE_SHARDS).max(1);
        {
            let mut shard = self.shard_for_fp(plan.fingerprint()).write().unwrap_or_else(PoisonError::into_inner);
            if shard.by_fingerprint.len() >= per_shard {
                shard.by_fingerprint.clear();
            }
            shard.by_fingerprint.insert(plan.fingerprint(), plan.clone());
        }
        let mut shard = self.shard_for_text(sql).write().unwrap_or_else(PoisonError::into_inner);
        if shard.by_text.len() >= per_shard * 4 {
            shard.by_text.clear();
        }
        shard.by_text.insert(sql.to_string(), plan.clone());
    }

    /// Drops every cached plan for `table` (its serving state changed epoch, or
    /// the table was dropped).
    fn invalidate_table(&self, table: &str) {
        for shard in &self.shards {
            let mut s = shard.write().unwrap_or_else(PoisonError::into_inner);
            s.by_fingerprint.retain(|_, p| p.query().table != table);
            s.by_text.retain(|_, p| p.query().table != table);
        }
    }

    fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).by_fingerprint.len())
            .sum()
    }
}

/// Running totals of the plan cache, for observability and the latency benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a cached plan.
    pub hits: u64,
    /// Queries that had to be planned.
    pub misses: u64,
    /// Distinct templates currently cached.
    pub entries: usize,
}

/// Point-in-time serving statistics of one table, as reported by
/// [`Session::stats`] / [`Session::table_stats`]. All values come from the
/// published state snapshot — reading them never blocks writers.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// The table's current plan epoch. Changes exactly when held
    /// [`Prepared`] handles go stale (a seal or refit rebuild).
    pub epoch: u64,
    /// Sealed segments currently serving.
    pub segments: usize,
    /// Rows represented by the sealed segments' synopses.
    pub sealed_rows: u64,
    /// Rows in the active (un-sealed) delta.
    pub delta_rows: u64,
    /// Fraction of the serving sample held by the un-sealed delta.
    pub staleness: f64,
    /// Row-store codec mix across the sealed segments: `(codec name, columns
    /// held under it)`, sorted by name. GreedyGD segments report every column
    /// as `"greedy-gd"`; per-column cascade segments report the winning codec
    /// of each column (`"bitpack"`, `"delta"`, `"dict"`, `"runend"`).
    pub codec_mix: Vec<(String, u64)>,
    /// Engine evaluations (one per segment or delta a query's plan was folded
    /// on) since the table was registered or opened.
    pub segments_consulted: u64,
    /// Engines skipped without folding: a conjunct missed their value range.
    pub segments_pruned: u64,
    /// Journaled batches a restart would replay: the log past the watermark
    /// of the table's last committed checkpoint (0 without a WAL home).
    pub wal_records: u64,
    /// Checkpoints committed into the WAL home since the table was registered
    /// or opened.
    pub checkpoints: u64,
    /// Checkpoints that failed. Nothing acknowledged is lost — the log keeps
    /// those batches, and the next seal, refit or compaction retries.
    pub checkpoint_failures: u64,
}

/// Point-in-time statistics of a whole session: plan-cache totals plus one
/// [`TableStats`] per registered table, sorted by name. The single payload a
/// metrics endpoint needs — see `ph_server`'s `GET /stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Plan-cache totals since the session was created.
    pub cache: CacheStats,
    /// Per-table serving state, sorted by table name.
    pub tables: Vec<TableStats>,
}

/// Outcome of one [`Session::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Rows folded into the table.
    pub rows: usize,
    /// The table's staleness *after* this batch: the fraction of the serving
    /// sample held by the un-sealed delta (0 right after a seal or rebuild).
    pub staleness: f64,
    /// Whether this batch changed the table's plan epoch — a seal (the delta
    /// froze into a segment) or a full refit rebuild (the batch carried values
    /// the fitted transforms could not encode). Held [`Prepared`] handles fail
    /// with [`PhError::StalePlan`] afterwards.
    pub rebuilt: bool,
    /// Sealed segments created by this batch (0 on the pure edge-free path).
    pub sealed_segments: usize,
}

/// A catalog of named tables in segmented storage with prepared queries,
/// O(batch)-amortized ingest, and multi-file persistence, safely shareable
/// across threads — see the module-level documentation for the architecture
/// and threading model.
pub struct Session {
    /// Process-unique identity for the cross-session plan check.
    id: u64,
    pub(crate) tables: RwLock<BTreeMap<String, Arc<TableCell>>>,
    cache: PlanCache,
    default_cfg: PairwiseHistConfig,
    /// The seal policy new tables register with (see
    /// [`Session::set_seal_threshold`], [`Session::set_max_staleness`]).
    pub(crate) policy: Mutex<SealPolicy>,
    /// Held from a registration's name check to its publication, across the
    /// checkpoint between them: two registrations of one name must not both
    /// commit files.
    registering: Mutex<()>,
    /// Names passed to [`Session::drop_table`]: the next [`Session::save_dir`]
    /// deletes their persisted blobs. Only files belonging to this catalog's
    /// current or dropped tables are ever touched — a shared directory's
    /// foreign files are left alone.
    pub(crate) dropped: Mutex<HashSet<String>>,
    /// Durability home (see [`Session::enable_wal`]): when set, every accepted
    /// ingest batch is journaled and fsynced to the table's log in `<dir>` before
    /// the in-memory swap, and every change the log cannot replay is
    /// checkpointed there.
    pub(crate) wal_dir: Mutex<Option<PathBuf>>,
    /// Tables whose persisted state failed checksum/decode verification at
    /// [`Session::open_dir`]: key (table name, or the file-name base when the
    /// manifest itself was unreadable) → reason. Quarantined tables are not
    /// served; everything else in the catalog is.
    pub(crate) quarantined: Mutex<BTreeMap<String, String>>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// An empty catalog with the paper's default build configuration.
    pub fn new() -> Self {
        Self::with_config(PairwiseHistConfig::default())
    }

    /// An empty catalog whose [`Session::register`] uses `cfg` for every build.
    pub fn with_config(cfg: PairwiseHistConfig) -> Self {
        Self {
            id: next_session_id(),
            tables: RwLock::new(BTreeMap::new()),
            cache: PlanCache::new(),
            default_cfg: cfg,
            policy: Mutex::new(SealPolicy::default()),
            registering: Mutex::new(()),
            dropped: Mutex::new(HashSet::new()),
            wal_dir: Mutex::new(None),
            quarantined: Mutex::new(BTreeMap::new()),
        }
    }

    /// Tables isolated at [`Session::open_dir`] because their persisted state
    /// failed checksum or decode verification, as `(name, reason)` pairs
    /// sorted by name. Queries against a quarantined table fail with
    /// [`PhError::Quarantined`]; the rest of the catalog serves normally.
    /// Re-[`Session::register`]ing the name (with fresh data) clears the entry.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.quarantined
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect()
    }

    /// Sets the staleness threshold above which [`Session::ingest`] seals a
    /// table's delta into a segment (default 0.5 — seal once at most half the
    /// serving sample is un-refined delta), for every registered table and
    /// every table registered later. Sealing re-refines the delta's synopsis,
    /// so it mints a fresh plan epoch. The threshold is part of each table's
    /// persisted state: [`Session::open_dir`] restores it, and under a WAL
    /// home the change is checkpointed.
    pub fn set_max_staleness(&self, threshold: f64) {
        self.set_policy(|p| p.max_staleness = threshold.max(0.0));
    }

    /// Sets the delta size (rows) above which [`Session::ingest`] seals, cutting
    /// the delta into segment-sized slices (default 50 000), for every
    /// registered table and every table registered later. Smaller thresholds
    /// seal more often (cheaper per seal, more segments to merge at query
    /// time); larger ones batch more work per seal. Persisted and restored
    /// like [`Session::set_max_staleness`].
    pub fn set_seal_threshold(&self, rows: usize) {
        self.set_policy(|p| p.rows = rows.max(1));
    }

    /// Registers a dataset under its own name, building the table's first sealed
    /// segment with the session's default configuration: a synopsis over the
    /// rows plus the rows themselves, GD-compressed, as rebuild material.
    ///
    /// Under a WAL home (see [`Session::enable_wal`]) the table is checkpointed
    /// into it before it is published, so a registration that returns `Ok`
    /// survives a crash; one whose checkpoint fails returns the error and
    /// registers nothing.
    pub fn register(&self, data: Dataset) -> Result<(), PhError> {
        let cfg = self.default_cfg.clone();
        self.register_with(data, &cfg)
    }

    /// Registers a dataset with an explicit build configuration.
    pub fn register_with(&self, data: Dataset, cfg: &PairwiseHistConfig) -> Result<(), PhError> {
        let name = data.name().to_string();
        // The manifest frames the name with a u16 length.
        if name.len() > u16::MAX as usize {
            return Err(PhError::Schema(format!(
                "table name is {} bytes; the limit is {}",
                name.len(),
                u16::MAX
            )));
        }
        let taken = |name: &str| {
            Err(PhError::Schema(format!("table '{name}' is already registered")))
        };
        if self.tables.read().unwrap_or_else(PoisonError::into_inner).contains_key(&name) {
            return taken(&name);
        }
        // The state keeps the *requested* configuration; `ns` is clamped to the
        // rows actually present at each build, so a table that grows past the
        // requested sample size samples up to it again on later seals. The build
        // runs before the map lock is taken — registration must not stall the
        // catalog.
        let pre = Arc::new(ph_gd::Preprocessor::fit(&data));
        let segment = registration_segment(&data, &pre, cfg);
        let epoch = segment.engine.plan_epoch();
        let policy = *self.policy.lock().unwrap_or_else(PoisonError::into_inner);
        let state = TableState::new(epoch, pre, vec![Arc::new(segment)], cfg.clone(), policy);
        let cell = Arc::new(TableCell::new(state));
        let _registering = self.registering.lock().unwrap_or_else(PoisonError::into_inner);
        if self.tables.read().unwrap_or_else(PoisonError::into_inner).contains_key(&name) {
            return taken(&name); // lost a registration race for the same name
        }
        self.checkpoint(&name, &cell, None)?;
        // Fresh data under a quarantined name supersedes the damaged files
        // (its first checkpoint, or the next save_dir, overwrites them).
        self.quarantined.lock().unwrap_or_else(PoisonError::into_inner).remove(&name);
        self.tables.write().unwrap_or_else(PoisonError::into_inner).insert(name, cell);
        Ok(())
    }

    /// Registered table names, in sorted order.
    pub fn tables(&self) -> Vec<String> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect()
    }

    /// Removes `table` from the catalog and invalidates its cached plans. Its
    /// persisted blobs are deleted on the next [`Session::save_dir`] (the name
    /// is remembered so the save can sweep exactly that table's files). A drop
    /// is not itself durable, deliberately: until that save, a crash and
    /// [`Session::open_dir`] bring the table back from its last checkpoint.
    ///
    /// Readers holding a [`TableSnapshot`] keep answering from their version —
    /// the `Arc` keeps it alive — while new [`Session::sql`] calls fail with
    /// [`PhError::UnknownTable`]. The name can be re-registered immediately.
    pub fn drop_table(&self, table: &str) -> Result<(), PhError> {
        let removed = self.tables.write().unwrap_or_else(PoisonError::into_inner).remove(table);
        if removed.is_none() {
            // Dropping a quarantined table is how an operator discards damaged
            // files for good: the next save_dir sweeps them.
            if self.quarantined.lock().unwrap_or_else(PoisonError::into_inner).remove(table).is_some() {
                self.dropped.lock().unwrap_or_else(PoisonError::into_inner).insert(table.to_string());
                return Ok(());
            }
            return Err(PhError::UnknownTable(table.to_string()));
        }
        // After the map removal, so a racing `prepare` can't re-cache a plan
        // for a table that still resolves.
        self.cache.invalidate_table(table);
        self.dropped.lock().unwrap_or_else(PoisonError::into_inner).insert(table.to_string());
        Ok(())
    }

    /// A snapshot of the state currently serving `table`, if registered. The
    /// snapshot stays valid (and answers from its version) even if writers swap
    /// in newer state — or drop the table — afterwards.
    pub fn engine(&self, table: &str) -> Option<TableSnapshot> {
        let cell = self.tables.read().unwrap_or_else(PoisonError::into_inner).get(table).cloned()?;
        Some(TableSnapshot(cell.snapshot()))
    }

    /// Total resident bytes of every registered table: synopses, compressed
    /// segment row stores, and raw un-sealed delta rows (the sum of each table's
    /// [`Session::footprint_report`] total).
    pub fn footprint(&self) -> usize {
        self.tables()
            .iter()
            .filter_map(|t| self.footprint_report(t).ok())
            .map(|r| r.total)
            .sum()
    }

    /// Per-table storage breakdown: synopsis bytes vs compressed row-store bytes
    /// vs raw delta bytes. The parts always sum to the report's `total`.
    ///
    /// Non-blocking: reads the published state snapshot plus a writer-maintained
    /// byte counter, so a metrics poll never stalls behind an in-flight seal,
    /// rebuild, compaction or save (delta bytes reflect the last completed
    /// write).
    pub fn footprint_report(&self, table: &str) -> Result<FootprintReport, PhError> {
        let cell = self.cell(table)?;
        let state = cell.snapshot();
        // Cached on the immutable snapshot: the engine walk runs once per
        // published version, so a periodic scraper re-reads two integers
        // instead of re-measuring every synopsis on every poll.
        let (synopsis_bytes, row_store_bytes) = state.footprint();
        let delta_bytes = cell.delta_bytes.load(Ordering::Relaxed);
        Ok(FootprintReport {
            synopsis_bytes,
            row_store_bytes,
            delta_bytes,
            total: synopsis_bytes + row_store_bytes + delta_bytes,
            segments: state.segments.len(),
        })
    }

    fn cell(&self, table: &str) -> Result<Arc<TableCell>, PhError> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner).get(table).cloned().ok_or_else(|| {
            match self.quarantined.lock().unwrap_or_else(PoisonError::into_inner).get(table) {
                Some(reason) => PhError::Quarantined(format!("'{table}': {reason}")),
                None => PhError::UnknownTable(table.to_string()),
            }
        })
    }

    /// Parses, routes and executes one query, going through the plan cache.
    ///
    /// Byte-identical SQL skips parsing entirely; a re-formatted spelling of a
    /// cached template still skips planning (fingerprints are canonical). A
    /// cached plan invalidated by a concurrent seal or rebuild
    /// ([`PhError::StalePlan`]) is re-prepared transparently, with bounded
    /// retries: the error can only surface if a fresh seal lands between
    /// *every* replan and its execution, `STALE_RETRIES` + 1 times back to back.
    pub fn sql(&self, sql: &str) -> Result<AqpAnswer, PhError> {
        // Text-level fast path. No pre-validation here: `execute` runs the
        // epoch check anyway, and the `StalePlan` arm below purges the cache —
        // pre-validating would only double the table lookups on the hot path.
        if let Some(p) = self.cache.get_by_text(sql) {
            // Zero-duration marker: which of hit/miss appears in a trace is
            // the signal; the real time lives in the parse/plan spans.
            drop(span(Stage::PlanCacheHit));
            match self.execute(&p) {
                Err(PhError::StalePlan(_)) => self.cache.invalidate_table(&p.query().table),
                other => {
                    self.cache.hits.inc();
                    return other;
                }
            }
        }
        let mut last = self.prepare_internal(sql)?;
        for _ in 0..STALE_RETRIES {
            match self.execute(&last) {
                Err(PhError::StalePlan(_)) => {
                    // The plan lost a race with a seal or rebuild: purge the
                    // table's cached plans (they are all from the dead epoch)
                    // and replan against the state that replaced it.
                    self.cache.invalidate_table(&last.query().table);
                    last = self.prepare_internal(sql)?;
                }
                other => return other,
            }
        }
        self.execute(&last)
    }

    /// Runs one query with tracing enabled and returns the answer plus the
    /// full stage breakdown (parse, plan-cache hit/miss, per-segment
    /// estimates, merge …) — the in-process counterpart of the server's
    /// `/debug/slow`. Span offsets are nanoseconds from the call's start.
    ///
    /// Installs a fresh trace on the calling thread for the duration (any
    /// trace already installed is replaced). With tracing disabled
    /// ([`ph_obs::set_tracing`]) or compiled out (`obs-off`), the answer is
    /// returned with an empty breakdown.
    pub fn trace_report(&self, sql: &str) -> Result<(AqpAnswer, Vec<ph_obs::SpanRec>), PhError> {
        ph_obs::trace::install(ph_obs::Trace::new());
        let result = {
            let _root = span(Stage::Query);
            self.sql(sql)
        };
        let spans =
            ph_obs::trace::take().map(ph_obs::Trace::into_spans).unwrap_or_default();
        Ok((result?, spans))
    }

    /// Starts a batch: returns a [`BatchSession`] whose queries share one
    /// pinned snapshot per table for the lifetime of the batch. Serving loops
    /// that drain N parsed queries at once pay one read-lock + `Arc` bump per
    /// table instead of N.
    pub fn batch(&self) -> BatchSession<'_> {
        BatchSession { session: self, snaps: Vec::new() }
    }

    /// Convenience: runs a slice of queries through one [`Session::batch`],
    /// returning per-query results in order.
    pub fn sql_batch(&self, sqls: &[&str]) -> Vec<Result<AqpAnswer, PhError>> {
        let mut batch = self.batch();
        sqls.iter().map(|sql| batch.sql(sql)).collect()
    }

    /// Parses and plans one query, returning the cached plan handle. Repeated calls
    /// with the same template return the same `Arc` without re-planning; pair with
    /// [`Session::execute`] for parse-once/execute-many loops. A handle held
    /// across a seal or rebuild of its table fails [`Session::execute`] with
    /// [`PhError::StalePlan`]; re-`prepare` to get a live one.
    pub fn prepare(&self, sql: &str) -> Result<Arc<Prepared>, PhError> {
        if let Some(p) = self.cached_by_text(sql) {
            self.cache.hits.inc();
            drop(span(Stage::PlanCacheHit));
            return Ok(p);
        }
        self.prepare_internal(sql)
    }

    /// Text-index lookup, epoch-validated against the serving state: a stale
    /// survivor (a plan a racing `prepare` re-inserted after a seal's
    /// invalidation sweep) is purged here and treated as a miss — otherwise the
    /// cache would keep handing out a plan whose every execution fails with
    /// [`PhError::StalePlan`], and a caller following the documented
    /// re-`prepare` recipe would loop on the same dead handle.
    fn cached_by_text(&self, sql: &str) -> Option<Arc<Prepared>> {
        let p = self.cache.get_by_text(sql)?;
        let cell = self.tables.read().unwrap_or_else(PoisonError::into_inner).get(&p.query().table).cloned()?;
        if p.token() == cell.snapshot().epoch {
            Some(p)
        } else {
            self.cache.invalidate_table(&p.query().table);
            None
        }
    }

    /// Executes a plan from [`Session::prepare`], routing by its `FROM` table:
    /// the plan runs against every sealed segment (and the delta) of the current
    /// state, and the per-segment estimates are merged.
    ///
    /// Two guards protect against handle misuse: a plan prepared by a *different
    /// session* is rejected by identity (sharing a table name does not make two
    /// catalogs interchangeable), and a plan prepared before its table was
    /// sealed or rebuilt fails with [`PhError::StalePlan`] via the engines'
    /// epoch check.
    pub fn execute(&self, prepared: &Prepared) -> Result<AqpAnswer, PhError> {
        if prepared.session() != 0 && prepared.session() != self.id {
            return Err(PhError::InvalidQuery(format!(
                "plan for '{}' was prepared by a different session; a table of the \
                 same name in another catalog is not the same table — re-prepare \
                 on this session",
                prepared.query()
            )));
        }
        let state = self.cell(&prepared.query().table)?.snapshot();
        state.execute_prepared(prepared)
    }

    /// Plan-cache totals since the session was created.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.hits.get(),
            misses: self.cache.misses.get(),
            entries: self.cache.entries(),
        }
    }

    /// Serving statistics for one table: plan epoch, segment count, sealed vs
    /// delta rows, staleness. Non-blocking (reads the published snapshot).
    pub fn table_stats(&self, table: &str) -> Result<TableStats, PhError> {
        let cell = self.cell(table)?;
        let state = cell.snapshot();
        let sealed_rows: u64 = state.segments.iter().map(|s| s.engine.params().n_total).sum();
        let delta_rows = state.delta.as_ref().map_or(0, |d| d.params().n_total);
        let mut mix: BTreeMap<&'static str, u64> = BTreeMap::new();
        for seg in &state.segments {
            for name in seg.store.codec_names() {
                *mix.entry(name).or_insert(0) += 1;
            }
        }
        let codec_mix = mix.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Ok(TableStats {
            name: table.to_string(),
            epoch: state.epoch,
            segments: state.segments.len(),
            sealed_rows,
            delta_rows,
            staleness: state.staleness(),
            codec_mix,
            segments_consulted: state.fanout.consulted.get(),
            segments_pruned: state.fanout.pruned.get(),
            wal_records: cell.durability.pending(cell.wal_seq.load(Ordering::Relaxed)),
            checkpoints: cell.durability.checkpoints.get(),
            checkpoint_failures: cell.durability.failures.get(),
        })
    }

    /// Session-wide serving statistics: plan-cache totals plus one
    /// [`TableStats`] per registered table (sorted by name). A table dropped
    /// concurrently between the name listing and its stats read is simply
    /// omitted.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            cache: self.cache_stats(),
            tables: self
                .tables()
                .iter()
                .filter_map(|t| self.table_stats(t).ok())
                .collect(),
        }
    }

    /// Slow path: parse, then fingerprint-level lookup, then plan + insert.
    fn prepare_internal(&self, sql: &str) -> Result<Arc<Prepared>, PhError> {
        let query = {
            let _parse = span(Stage::Parse);
            parse_query(sql)?
        };
        let state = self.cell(&query.table)?.snapshot();
        let fp = query.fingerprint();
        if let Some(p) = self.cache.get_by_fp(fp) {
            // New spelling of a known template — but only trust it if it still
            // matches the serving epoch; a stale survivor is replaced below.
            if p.token() == state.epoch {
                self.cache.hits.inc();
                drop(span(Stage::PlanCacheHit));
                self.cache.insert(sql, &p);
                return Ok(p);
            }
        }
        let prepared = {
            let _miss = span(Stage::PlanCacheMiss);
            let _plan = span(Stage::Plan);
            Arc::new(state.prepare(&query)?.with_session(self.id))
        };
        self.cache.misses.inc();
        self.cache.insert(sql, &prepared);
        Ok(prepared)
    }

    /// Folds a batch of new rows into `table`. The batch must match the table's
    /// schema: same column names **and** logical types, in order.
    ///
    /// The hot path costs O(rows + dictionary entries those rows reference),
    /// whatever the size of the fitted dictionaries, of the dictionary the batch
    /// carries (a slice of a larger table carries that table's) and of the one
    /// the delta has accumulated: the batch is cut down to its referenced
    /// entries at the door, each is looked up once in the fitted index, and the
    /// journal record, the delta rows and the fold all take that one form. It
    /// appends to the table's raw delta rows and folds into the delta's synopsis
    /// through the edge-free update path (`update.rs`) — whose out-of-place copy
    /// of the delta synopsis is the one term left that is not O(batch) —
    /// leaving every sealed segment untouched. When the delta
    /// crosses [`Session::set_seal_threshold`] rows — or its staleness crosses
    /// [`Session::set_max_staleness`] — it is **sealed**: cut into segment-sized
    /// slices, each GD-compressed and refined into a fresh synopsis, appended to
    /// the segment list. Sealing costs O(threshold) regardless of how large the
    /// table has grown; there is no full-table rebuild on this path.
    ///
    /// The replacement state is built **out of place** — readers keep answering
    /// from the current version the whole time — and swapped in atomically at the
    /// end. Concurrent `ingest` calls on the same table serialize on a per-table
    /// writer lock (never blocking readers); different tables ingest in parallel.
    ///
    /// Batches containing categorical values or NULLs unrepresentable under the
    /// table's fitted transforms cannot take any incremental path: they trigger
    /// the one remaining full rebuild — every segment's compressed rows are
    /// decoded, the transforms refit over all rows plus the batch, and the table
    /// collapses to a single fresh segment. Because compressed rows round-trip,
    /// this works on reopened catalogs too.
    ///
    /// Seals and rebuilds mint a fresh plan epoch and invalidate the table's
    /// cached plans; held handles fail with [`PhError::StalePlan`] rather than
    /// answering wrongly.
    ///
    /// Under a WAL home (see [`Session::enable_wal`]) the batch is journaled
    /// and fsynced before it is published, so an `Ok` survives a crash, and a
    /// seal or refit is checkpointed before `ingest` returns: the new
    /// segments' blobs and the table's manifest are committed, and the log,
    /// which then holds no un-sealed batch, is deleted. A failed checkpoint
    /// does not fail the ingest — the batch is already in the log, which stays
    /// until a later checkpoint commits it (see
    /// [`TableStats::checkpoint_failures`]).
    pub fn ingest(&self, table: &str, batch: &Dataset) -> Result<IngestReport, PhError> {
        let cell = self.cell(table)?;
        // The delta-rows lock is the writer lock: one writer per table at a
        // time; readers are never blocked by it.
        let mut delta_rows = cell.delta_rows.lock().unwrap_or_else(PoisonError::into_inner);
        self.adopt(table, &cell, delta_rows.as_ref())?;
        let cur = cell.snapshot();
        let pre = cur.pre.clone();
        let admit = span(Stage::Admit);
        // Full schema validation up front: nothing below may fail half-applied.
        if batch.n_columns() != pre.n_columns() {
            return Err(PhError::Schema(format!(
                "batch has {} columns, table '{table}' has {}",
                batch.n_columns(),
                pre.n_columns()
            )));
        }
        for (c, (name, col)) in
            batch.columns().iter().zip(pre.names().iter().zip(0..pre.n_columns()))
        {
            if c.name() != name || c.ty() != pre.column_type(col) {
                return Err(PhError::Schema(format!(
                    "batch column '{}' ({:?}) does not match table '{table}' column \
                     '{name}' ({:?})",
                    c.name(),
                    c.ty(),
                    pre.column_type(col)
                )));
            }
        }
        // One form of the batch from here on — dictionaries cut down to the
        // entries its rows reference — for the journal, the delta rows and the
        // fold alike: a replayed table is fed exactly what the live one kept,
        // so the two stay identical through any later refit (whose frequency
        // ties fall in dictionary order), and nothing downstream pays for
        // entries the batch merely carries.
        let batch = batch.with_compact_dictionaries();
        let batch: &Dataset = &batch;
        // Two batch shapes the fitted transforms cannot encode, so no
        // incremental path can absorb them: categorical values outside the
        // dictionary, and NULLs in a column that had none at fit time (no null
        // code exists — the sentinel the encoder would emit reads back as a
        // real value). The lookup that decides the first is the one the fold
        // encodes through.
        let ranks = pre.resolve(batch);
        let has_novel_null = batch.columns().iter().enumerate().any(|(col, c)| {
            c.valid_count() < c.len() && pre.transform(col).null_code().is_none()
        });
        drop(admit);

        if ranks.has_novel() || has_novel_null {
            // Full refit rebuild: decode every segment's compressed rows, add
            // the delta and the batch, refit the transforms over everything and
            // collapse to one fresh segment. O(total) — the documented cost of
            // values the fitted encoding cannot represent. The delta rows are
            // only consumed *after* the rebuild succeeds: a failure (a store
            // holding a code with no preimage) must leave the table — and the
            // delta-rows ↔ delta-synopsis invariant — exactly as it was.
            let state = self.rebuild_with_batch(table, &cur, delta_rows.as_ref(), batch)?;
            // Journal only once the batch is certain to apply: a journaled
            // batch that could never re-apply would poison replay.
            self.wal_append(table, &cell, batch)?;
            *delta_rows = None;
            cell.set_delta_bytes(0);
            let staleness = state.staleness();
            cell.swap(state);
            // After the swap, so a re-prepare triggered by the invalidation can
            // only ever see the new epoch.
            self.cache.invalidate_table(table);
            self.sealed(table, &cell);
            return Ok(IngestReport {
                rows: batch.n_rows(),
                staleness,
                rebuilt: true,
                sealed_segments: 0,
            });
        }

        // Durability point: the batch is accepted — journal it (append +
        // fsync) *before* any in-memory mutation, so once `ingest` returns the
        // rows are recoverable. On a journaling failure (e.g. disk full) the
        // table is untouched and the error propagates; a torn record from a
        // crash mid-append is discarded by replay as an unacknowledged tail.
        // Nothing after this point can fail: the batch schema was fully
        // validated above, so the delta append and synopsis fold are total.
        self.wal_append(table, &cell, batch)?;

        // Edge-free hot path: grow the raw delta rows in place (we hold their
        // lock — the writer lock) and decide sealing on the grown delta. `cur`
        // keeps serving until the single swap at the end.
        match delta_rows.as_mut() {
            Some(d) => d.append(batch)?,
            None => *delta_rows = Some(batch.clone()),
        }
        // ph-lint: allow(no-panic-serving) — the match directly above guarantees Some
        let delta_data = delta_rows.as_ref().expect("delta appended above");
        let delta_n = delta_data.n_rows();

        // Prospective staleness if we only edge-ingest: the grown delta's share
        // of the table's rows (row-based like `TableState::staleness`, so a
        // table registered far larger than its sample size doesn't overstate
        // the delta and seal early).
        let seg_rows: u64 = cur.segments.iter().map(|s| s.engine.params().n_total).sum();
        let threshold = cur.policy.rows;
        let prospective = delta_n as f64 / (seg_rows as f64 + delta_n as f64).max(1.0);
        let seal = delta_n >= threshold || prospective > cur.policy.max_staleness;

        let (state, sealed_segments) = if seal {
            // Sealing would *freeze* the delta's encoding into a compressed
            // store — including the lossy saturation of numeric values below
            // the fitted minimum (`encode` clamps them to 0). Raw delta rows
            // still hold the true values, so when such values are present we
            // refit instead: decode everything, fit transforms that cover the
            // extended range, rebuild once. (The monolithic design healed the
            // same case through its staleness rebuild; baking saturated codes
            // into a store would have made it permanent.) A table whose
            // stores do not decode can't refit; its batch is already
            // journaled, so it seals as encoded rather than failing.
            if below_fitted_min(&pre, delta_data) {
                if let Ok(state) =
                    self.rebuild_with_batch(table, &cur, delta_rows.as_ref(), &batch.take(&[]))
                {
                    *delta_rows = None;
                    cell.set_delta_bytes(0);
                    let staleness = state.staleness();
                    cell.swap(state);
                    self.cache.invalidate_table(table);
                    self.sealed(table, &cell);
                    return Ok(IngestReport {
                        rows: batch.n_rows(),
                        staleness,
                        rebuilt: true,
                        sealed_segments: 0,
                    });
                }
            }
            // Seal the whole delta: full threshold-sized slices become segments,
            // the remainder a final (smaller) one. A fresh epoch is minted —
            // sealing re-refines the delta's synopsis — and retained segments
            // are restamped so the version keeps one epoch for all engines.
            let epoch = next_plan_epoch();
            let mut segments: Vec<Arc<Segment>> =
                cur.segments.iter().map(|s| Arc::new(s.restamped(epoch))).collect();
            // ph-lint: allow(no-panic-serving) — seal is only entered when delta_n > 0, so the delta exists
            let rows = delta_rows.take().expect("delta present when sealing");
            let mut scratch =
                cell.seal_scratch.lock().unwrap_or_else(PoisonError::into_inner);
            let mut sealed = 0usize;
            let mut start = 0usize;
            while rows.n_rows() - start > threshold {
                segments.push(Arc::new(seal_segment(
                    &rows.slice(start, threshold),
                    &pre,
                    &cur.cfg,
                    epoch,
                    &mut scratch,
                )));
                sealed += 1;
                start += threshold;
            }
            segments.push(Arc::new(seal_segment(
                &rows.slice(start, rows.n_rows() - start),
                &pre,
                &cur.cfg,
                epoch,
                &mut scratch,
            )));
            sealed += 1;
            drop(scratch);
            cell.set_delta_bytes(0);
            (cur.successor(epoch, pre, segments, None), sealed)
        } else {
            // Pure O(batch) path: fold the encoded batch into the delta synopsis
            // (or build it fresh from the first batch), keep the epoch.
            let delta = {
                let _fold = span(Stage::Fold);
                match &cur.delta {
                    Some(engine) => engine.with_ingested(&pre.encode_resolved(
                        batch,
                        &ranks,
                        &mut ph_gd::EncodeScratch::new(),
                    )),
                    None => build_delta(delta_data, &pre, &cur.cfg, cur.epoch),
                }
            };
            cell.set_delta_bytes(delta_data.heap_size());
            (cur.successor(cur.epoch, pre, cur.segments.clone(), Some(delta)), 0)
        };
        let staleness = state.staleness();
        cell.swap(state);
        if seal {
            self.cache.invalidate_table(table);
            self.sealed(table, &cell);
        }
        Ok(IngestReport {
            rows: batch.n_rows(),
            staleness,
            rebuilt: seal,
            sealed_segments,
        })
    }

    /// The refit rebuild: all rows (decoded segment stores + delta + batch) under
    /// freshly fitted transforms, as one segment. Pure with respect to the
    /// caller's state — the delta rows are borrowed, not consumed, so a failure
    /// leaves the table untouched.
    fn rebuild_with_batch(
        &self,
        table: &str,
        cur: &TableState,
        delta: Option<&Dataset>,
        batch: &Dataset,
    ) -> Result<TableState, PhError> {
        let mut all: Option<Dataset> = None;
        for seg in &cur.segments {
            let decoded = decode_store(table, &cur.pre, &seg.store)?;
            match all.as_mut() {
                Some(d) => d.append(&decoded)?,
                None => all = Some(decoded),
            }
        }
        let mut all = all.unwrap_or_else(|| batch.take(&[]));
        if let Some(d) = delta {
            all.append(d)?;
        }
        all.append(batch)?;
        let pre = Arc::new(ph_gd::Preprocessor::fit(&all));
        let segment = registration_segment(&all, &pre, &cur.cfg);
        let epoch = segment.engine.plan_epoch();
        Ok(cur.successor(epoch, pre, vec![Arc::new(segment)], None))
    }

    /// Merges `table`'s small sealed segments (fewer rows than the seal
    /// threshold) into one: their compressed stores are decompressed,
    /// concatenated, re-compressed, and a single synopsis is refined over the
    /// result — cost bounded by the rows of the segments being merged, never the
    /// whole table. The shared transforms are unchanged, so the plan epoch is
    /// kept and held plans stay valid.
    ///
    /// Serializes with ingest on the per-table writer lock; readers are never
    /// blocked. Under a WAL home the merged segment is checkpointed — its one
    /// new blob, then the manifest — before `compact` returns, so a crash does
    /// not undo it; if that checkpoint fails (see
    /// [`TableStats::checkpoint_failures`]), a crash before the table's next
    /// checkpoint recovers it uncompacted.
    pub fn compact(&self, table: &str) -> Result<CompactReport, PhError> {
        let cell = self.cell(table)?;
        let delta_rows = cell.delta_rows.lock().unwrap_or_else(PoisonError::into_inner);
        let cur = cell.snapshot();
        let threshold = cur.policy.rows;
        let is_small = |s: &Arc<Segment>| s.n_rows() < threshold;
        let small: Vec<Arc<Segment>> =
            cur.segments.iter().filter(|s| is_small(s)).cloned().collect();
        let before = cur.segments.len();
        if small.len() < 2 {
            return Ok(CompactReport {
                segments_before: before,
                segments_after: before,
                rows_compacted: 0,
            });
        }
        let rows_compacted: usize = small.iter().map(|s| s.n_rows()).sum();
        let merged = Arc::new(merge_segments(&small, &cur.pre, &cur.cfg, cur.epoch));
        // The merged segment takes the position of the oldest segment it
        // absorbed, keeping the list oldest-first (and the primary engine —
        // `TableSnapshot`'s deref target — stable whenever segment 0 survives).
        let mut segments = Vec::with_capacity(before - small.len() + 1);
        let mut merged = Some(merged);
        for seg in &cur.segments {
            if is_small(seg) {
                if let Some(m) = merged.take() {
                    segments.push(m);
                }
            } else {
                segments.push(seg.clone());
            }
        }
        let after = segments.len();
        cell.swap(cur.successor(cur.epoch, cur.pre.clone(), segments, cur.delta.clone()));
        let _ = self.checkpoint(table, &cell, delta_rows.as_ref());
        Ok(CompactReport {
            segments_before: before,
            segments_after: after,
            rows_compacted,
        })
    }
}

/// Whether `data` holds a numeric value below the fitted minimum of its
/// column's transform — the one value shape `Preprocessor::encode` cannot
/// represent losslessly (it saturates to 0). Sealing such rows would bake the
/// corruption into a compressed store, so the seal path refits instead.
fn below_fitted_min(pre: &ph_gd::Preprocessor, data: &Dataset) -> bool {
    data.columns().iter().enumerate().any(|(col, c)| match pre.transform(col) {
        ph_gd::ColumnTransform::Numeric { min_scaled, scale, .. } => {
            let factor = 10f64.powi(*scale as i32);
            (0..c.len())
                .any(|i| c.numeric(i).is_some_and(|x| ((x * factor).round() as i64) < *min_scaled))
        }
        ph_gd::ColumnTransform::Categorical { .. } => false,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prepared::AqpEngine;
    use ph_types::Column;
    use rand::{Rng, SeedableRng};

    pub(crate) fn dataset(name: &str, n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
        let mut y: Vec<Option<i64>> = x
            .iter()
            .map(|v| {
                if rng.gen_bool(0.03) {
                    None
                } else {
                    Some(v.unwrap() * 2 + rng.gen_range(0..80))
                }
            })
            .collect();
        // Anchor the domain minima so every generated batch shares them: a
        // batch dipping below a table's fitted minimum (legitimately) forces a
        // refit rebuild, and the tests that exercise the *edge-free and seal*
        // paths need batches the fitted transforms can represent.
        x[0] = Some(0);
        y[0] = Some(0);
        let c: Vec<Option<&str>> =
            (0..n).map(|i| Some(["a", "b", "c"][i % 3])).collect();
        Dataset::builder(name)
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .column(Column::from_strings("c", c))
            .unwrap()
            .build()
    }

    pub(crate) fn session_with(name: &str, n: usize, seed: u64) -> Session {
        let s = Session::with_config(PairwiseHistConfig {
            parallel: false,
            ..Default::default()
        });
        s.register(dataset(name, n, seed)).unwrap();
        s
    }

    /// The compile-time contract the whole threading model rests on: a field
    /// that is not thread-safe (`Rc`, `RefCell`, …) fails right here.
    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Arc<Prepared>>();
        assert_send_sync::<TableSnapshot>();
        assert_send_sync::<Box<dyn AqpEngine>>();
    }

    #[test]
    fn routes_by_from_table() {
        let s = session_with("t1", 8_000, 1);
        s.register(dataset("t2", 8_000, 2)).unwrap();
        assert_eq!(s.tables(), vec!["t1", "t2"]);
        assert!(s.sql("SELECT COUNT(x) FROM t1").is_ok());
        assert!(s.sql("SELECT COUNT(x) FROM t2").is_ok());
        assert!(matches!(
            s.sql("SELECT COUNT(x) FROM nope"),
            Err(PhError::UnknownTable(t)) if t == "nope"
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let s = session_with("t", 2_000, 3);
        assert!(matches!(s.register(dataset("t", 100, 4)), Err(PhError::Schema(_))));
    }

    #[test]
    fn plan_cache_hits_on_repeats_and_reformats() {
        let s = session_with("t", 8_000, 5);
        let sql = "SELECT AVG(y) FROM t WHERE x > 300 AND x < 700";
        let first = s.sql(sql).unwrap();
        assert_eq!(s.cache_stats(), CacheStats { hits: 0, misses: 1, entries: 1 });
        // Byte-identical text: hit without parsing.
        let second = s.sql(sql).unwrap();
        assert_eq!(first, second, "cached plan must answer identically");
        assert_eq!(s.cache_stats().hits, 1);
        // Re-formatted spelling of the same template: parses, then hits by
        // fingerprint without re-planning.
        let third = s.sql("select avg(y) from t where x > 300 and x < 700 ;").unwrap();
        assert_eq!(first, third);
        assert_eq!(s.cache_stats().hits, 2);
        assert_eq!(s.cache_stats().entries, 1);
        // Different literal = different template.
        s.sql("SELECT AVG(y) FROM t WHERE x > 301 AND x < 700").unwrap();
        assert_eq!(s.cache_stats().misses, 2);
    }

    #[test]
    fn prepared_execute_matches_direct_execution() {
        let s = session_with("t", 10_000, 6);
        for sql in [
            "SELECT COUNT(y) FROM t WHERE x > 500",
            "SELECT SUM(x) FROM t WHERE y > 400 OR x < 100",
            "SELECT MEDIAN(x) FROM t WHERE c = 'a'",
            "SELECT COUNT(x) FROM t WHERE y > 200 GROUP BY c",
        ] {
            let p = s.prepare(sql).unwrap();
            let via_prepared = s.execute(&p).unwrap();
            let direct = s
                .engine("t")
                .unwrap()
                .execute(&ph_sql::parse_query(sql).unwrap())
                .unwrap();
            assert_eq!(via_prepared, direct, "{sql}");
        }
    }

    #[test]
    fn parse_errors_surface_as_ph_error() {
        let s = session_with("t", 1_000, 7);
        assert!(matches!(s.sql("SELECT COUNT(x FROM t"), Err(PhError::Parse(_))));
        assert!(matches!(
            s.sql("SELECT SUM(c) FROM t"),
            Err(PhError::InvalidQuery(_))
        ));
        assert!(matches!(
            s.sql("SELECT COUNT(zzz) FROM t"),
            Err(PhError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ingest_updates_counts_and_reports_staleness() {
        let s = session_with("t", 10_000, 8);
        s.set_max_staleness(0.9); // keep the edge-free path for this test
        let r = s.ingest("t", &dataset("t", 5_000, 9)).unwrap();
        assert_eq!(r.rows, 5_000);
        assert!(!r.rebuilt);
        assert_eq!(r.sealed_segments, 0);
        assert!((r.staleness - 1.0 / 3.0).abs() < 0.01, "got {}", r.staleness);
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 15_000.0).abs() / 15_000.0 < 0.02, "{}", est.value);
    }

    #[test]
    fn staleness_policy_triggers_seal_and_invalidates_plans() {
        let s = session_with("t", 6_000, 10);
        s.set_max_staleness(0.3);
        let sql = "SELECT COUNT(x) FROM t WHERE x > 250";
        s.sql(sql).unwrap();
        assert_eq!(s.cache_stats().entries, 1);
        // A batch as large as the base: staleness 0.5 > 0.3 → seal.
        let r = s.ingest("t", &dataset("t", 6_000, 11)).unwrap();
        assert!(r.rebuilt, "staleness policy must trigger a seal");
        assert_eq!(r.sealed_segments, 1);
        assert_eq!(r.staleness, 0.0, "a sealed delta is not stale");
        assert_eq!(s.cache_stats().entries, 0, "sealing invalidates cached plans");
        assert_eq!(s.engine("t").unwrap().n_segments(), 2);
        // The segment fan-out serves the combined rows.
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 12_000.0).abs() / 12_000.0 < 0.02, "{}", est.value);
    }

    #[test]
    fn seal_threshold_cuts_delta_into_segments() {
        let s = session_with("t", 4_000, 40);
        s.set_max_staleness(f64::INFINITY); // only the size threshold may seal
        s.set_seal_threshold(3_000);
        // Two small batches stay delta-resident…
        assert_eq!(s.ingest("t", &dataset("t", 1_000, 41)).unwrap().sealed_segments, 0);
        assert_eq!(s.ingest("t", &dataset("t", 1_000, 42)).unwrap().sealed_segments, 0);
        assert_eq!(s.engine("t").unwrap().n_segments(), 1);
        assert!(s.engine("t").unwrap().delta().is_some());
        // …until one crosses the threshold: a 5k batch makes a 7k delta, sealed
        // at threshold boundaries (`Dataset::slice`) into 3k + 3k + 1k segments.
        let r = s.ingest("t", &dataset("t", 5_000, 43)).unwrap();
        assert!(r.rebuilt);
        assert_eq!(r.sealed_segments, 3, "7k delta → 3k + 3k + 1k slices");
        let snap = s.engine("t").unwrap();
        assert_eq!(snap.n_segments(), 4);
        assert!(snap.delta().is_none(), "sealing drains the delta");
        // Every row is still served.
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 11_000.0).abs() / 11_000.0 < 0.03, "{}", est.value);
    }

    #[test]
    fn compact_merges_small_segments() {
        let s = session_with("t", 3_000, 50);
        // Staleness-triggered seals produce under-threshold segments — exactly
        // the fragmentation compact exists to undo. 0.1 makes every 1k batch
        // seal on its own.
        s.set_max_staleness(0.1);
        for k in 0..4 {
            s.ingest("t", &dataset("t", 1_000, 51 + k)).unwrap();
        }
        let before_answer = s.sql("SELECT COUNT(x) FROM t WHERE x > 500").unwrap();
        let snap = s.engine("t").unwrap();
        assert!(snap.n_segments() >= 4, "got {}", snap.n_segments());
        // A plan held across compact stays valid: the epoch is kept.
        let plan = s.prepare("SELECT AVG(y) FROM t WHERE x > 100").unwrap();
        let report = s.compact("t").unwrap();
        assert!(report.segments_after < report.segments_before);
        assert!(report.rows_compacted > 0);
        assert!(s.execute(&plan).is_ok(), "compaction must not stale plans");
        // Counts agree before and after (compaction rebuilds over identical rows).
        let after_answer = s.sql("SELECT COUNT(x) FROM t WHERE x > 500").unwrap();
        let (b, a) = (before_answer.scalar().unwrap(), after_answer.scalar().unwrap());
        assert!((b.value - a.value).abs() / b.value.max(1.0) < 0.05, "{} vs {}", b.value, a.value);
        // Compacting again is a no-op report.
        let again = s.compact("t").unwrap();
        assert_eq!(again.rows_compacted, 0);
    }

    #[test]
    fn drop_table_removes_and_racing_snapshot_survives() {
        let s = session_with("t", 4_000, 60);
        let sql = "SELECT COUNT(x) FROM t";
        s.sql(sql).unwrap();
        assert_eq!(s.cache_stats().entries, 1);
        let snapshot = s.engine("t").unwrap(); // the racing reader's view
        s.drop_table("t").unwrap();
        assert!(s.tables().is_empty());
        assert_eq!(s.cache_stats().entries, 0, "dropping sweeps cached plans");
        assert!(matches!(s.sql(sql), Err(PhError::UnknownTable(_))));
        assert!(matches!(s.drop_table("t"), Err(PhError::UnknownTable(_))));
        // The held snapshot still answers from its version.
        let q = ph_sql::parse_query(sql).unwrap();
        let est = snapshot.execute(&q).unwrap().scalar().unwrap();
        assert!((est.value - 4_000.0).abs() / 4_000.0 < 0.02, "{}", est.value);
        // And the name is immediately reusable.
        s.register(dataset("t", 500, 61)).unwrap();
        assert!(s.sql(sql).is_ok());
    }

    #[test]
    fn ingest_schema_mismatch_rejected() {
        let s = session_with("t", 1_000, 12);
        let bad = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(1)]))
            .unwrap()
            .build();
        assert!(matches!(s.ingest("t", &bad), Err(PhError::Schema(_))));
        // Same names, wrong type: rejected before anything mutates.
        let before = s.engine("t").unwrap().params().clone();
        let bad_ty = Dataset::builder("t")
            .column(Column::from_floats("x", vec![Some(1.0)], 1))
            .unwrap()
            .column(Column::from_ints("y", vec![Some(2)]))
            .unwrap()
            .column(Column::from_strings("c", vec![Some("a")]))
            .unwrap()
            .build();
        assert!(matches!(s.ingest("t", &bad_ty), Err(PhError::Schema(_))));
        assert_eq!(s.engine("t").unwrap().params(), &before, "failed ingest must be a no-op");
        assert!(matches!(
            s.ingest("missing", &dataset("t", 10, 13)),
            Err(PhError::UnknownTable(_))
        ));
    }

    #[test]
    fn novel_categories_force_rebuild_even_when_reopened() {
        let s = session_with("t", 4_000, 30);
        s.set_max_staleness(10.0); // only the novel category may trigger a rebuild
        let batch = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let n = 500;
            let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
            let y: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..2000))).collect();
            let c: Vec<Option<&str>> = (0..n).map(|_| Some("NEW")).collect(); // unseen
            Dataset::builder("t")
                .column(Column::from_ints("x", x))
                .unwrap()
                .column(Column::from_ints("y", y))
                .unwrap()
                .column(Column::from_strings("c", c))
                .unwrap()
                .build()
        };
        // The unseen category forces a full refit rebuild (no panic).
        let r = s.ingest("t", &batch).unwrap();
        assert!(r.rebuilt, "unseen category must force a rebuild");
        let grouped = s.sql("SELECT COUNT(x) FROM t GROUP BY c").unwrap();
        assert!(grouped.groups().unwrap().contains_key("NEW"), "new category queryable");

        // A reopened catalog used to be a dead-end here (`rows: None`); the
        // segmented format ships compressed rows, so the same rebuild works
        // after a cold start.
        let dir = std::env::temp_dir().join(format!("ph_sess_novel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save_dir(&dir).unwrap();
        let cold = Session::open_dir(&dir).unwrap();
        let batch2 = {
            let x = vec![Some(1i64)];
            let y = vec![Some(2i64)];
            let c = vec![Some("NEWER")];
            Dataset::builder("t")
                .column(Column::from_ints("x", x))
                .unwrap()
                .column(Column::from_ints("y", y))
                .unwrap()
                .column(Column::from_strings("c", c))
                .unwrap()
                .build()
        };
        let r = cold.ingest("t", &batch2).expect("reopened catalogs must stay ingestable");
        assert!(r.rebuilt);
        let grouped = cold.sql("SELECT COUNT(x) FROM t GROUP BY c").unwrap();
        assert!(
            grouped.groups().unwrap().contains_key("NEWER"),
            "novel category lands after a cold reopen"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn novel_nulls_force_rebuild_not_corruption() {
        // Base table with NO nulls anywhere: the fitted transforms have no null
        // codes, so a null-bearing batch cannot take the edge-free path (its
        // sentinel would read back as a real value and corrupt COUNT/MAX).
        let n = 4_000;
        let x: Vec<Option<i64>> = (0..n).map(|i| Some(i % 100)).collect();
        let y: Vec<Option<i64>> = (0..n).map(|i| Some((i % 100) * 2)).collect();
        let base = Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .build();
        let s = Session::with_config(PairwiseHistConfig {
            parallel: false,
            ..Default::default()
        });
        s.register(base).unwrap();
        s.set_max_staleness(10.0); // only the novel nulls may trigger the rebuild

        let batch = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(5), None, Some(7)]))
            .unwrap()
            .column(Column::from_ints("y", vec![None, Some(4), Some(14)]))
            .unwrap()
            .build();
        let r = s.ingest("t", &batch).unwrap();
        assert!(r.rebuilt, "null-introducing batch must rebuild, not edge-ingest");
        let count = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert_eq!(count.value, (n + 2) as f64, "nulls must not count as values");
        let max = s.sql("SELECT MAX(x) FROM t").unwrap().scalar().unwrap();
        assert!(max.value <= 99.0, "null sentinel must not leak into MAX: {}", max.value);
    }

    #[test]
    fn stale_prepared_plans_rejected_after_seal() {
        let s = session_with("t", 5_000, 32);
        s.set_max_staleness(0.3);
        let sql = "SELECT COUNT(x) FROM t WHERE x > 400";
        let plan = s.prepare(sql).unwrap();
        assert!(s.execute(&plan).is_ok());
        // Trigger a seal: the delta's synopsis is re-refined, held handles go
        // stale.
        let r = s.ingest("t", &dataset("t", 5_000, 33)).unwrap();
        assert!(r.rebuilt);
        assert!(
            matches!(s.execute(&plan), Err(PhError::StalePlan(_))),
            "stale plan must be rejected, not silently mis-answered"
        );
        // `sql` with the same text re-prepares transparently.
        assert!(s.sql(sql).is_ok());
        // Re-preparing the same text works and answers over the grown table.
        let fresh = s.prepare(sql).unwrap();
        assert!(s.execute(&fresh).is_ok());
    }

    /// Regression (satellite fix): a `Prepared` from a *different session* whose
    /// table shares the name must be rejected by session identity — with an error
    /// that names the real mistake — not merely by the engine's epoch token.
    #[test]
    fn prepared_from_other_session_rejected_by_identity() {
        let s1 = session_with("t", 3_000, 40);
        let s2 = session_with("t", 3_000, 40); // same name, same rows, other catalog
        let p1 = s1.prepare("SELECT COUNT(x) FROM t WHERE x > 100").unwrap();
        assert!(s1.execute(&p1).is_ok());
        let err = s2.execute(&p1).unwrap_err();
        assert!(
            matches!(&err, PhError::InvalidQuery(m) if m.contains("different session")),
            "cross-session plans must fail the identity check, got: {err:?}"
        );
        // A plan prepared straight on an engine (never session-bound) still
        // passes routing — only the epoch token applies to it.
        let q = ph_sql::parse_query("SELECT COUNT(x) FROM t").unwrap();
        let raw = s2.engine("t").unwrap().prepare(&q).unwrap();
        assert!(s2.execute(&raw).is_ok());
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        // The full stress test lives in tests/concurrent_session.rs; this is the
        // in-crate smoke: shared &Session, two readers racing one ingesting
        // writer, nothing panics and answers stay plausible.
        let s = session_with("t", 6_000, 50);
        s.set_max_staleness(0.25); // force seals mid-run
        std::thread::scope(|scope| {
            let session = &s;
            scope.spawn(move || {
                for k in 0..4 {
                    session.ingest("t", &dataset("t", 2_000, 60 + k)).unwrap();
                }
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..200 {
                        let est = session
                            .sql("SELECT COUNT(x) FROM t")
                            .expect("sql must retry through seals")
                            .scalar()
                            .unwrap();
                        assert!(
                            est.value >= 5_000.0 && est.value <= 15_000.0,
                            "count estimate out of the ingest timeline: {}",
                            est.value
                        );
                    }
                });
            }
        });
        let final_est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((final_est.value - 14_000.0).abs() / 14_000.0 < 0.05, "{}", final_est.value);
    }

    #[test]
    fn snapshots_outlive_swaps() {
        let s = session_with("t", 5_000, 70);
        s.set_max_staleness(0.1);
        let snap = s.engine("t").unwrap();
        let epoch_before = snap.plan_epoch();
        let r = s.ingest("t", &dataset("t", 5_000, 71)).unwrap();
        assert!(r.rebuilt);
        // The held snapshot still answers from its version…
        let q = ph_sql::parse_query("SELECT COUNT(x) FROM t").unwrap();
        let old = snap.execute(&q).unwrap().scalar().unwrap();
        assert!((old.value - 5_000.0).abs() / 5_000.0 < 0.02, "{}", old.value);
        assert_eq!(snap.plan_epoch(), epoch_before);
        // …while the session serves the new one.
        let newer = s.engine("t").unwrap();
        assert_ne!(newer.plan_epoch(), epoch_before);
        let fresh = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((fresh.value - 10_000.0).abs() / 10_000.0 < 0.02, "{}", fresh.value);
    }

    /// A failed refit rebuild (a segment store holding a categorical code with
    /// no preimage) must leave the delta — rows *and* synopsis — exactly as it
    /// was, not half-consumed.
    #[test]
    fn failed_refit_rebuild_preserves_delta_rows() {
        let s = session_with("t", 3_000, 90);
        s.set_max_staleness(f64::INFINITY);
        // Swap in a store whose category column carries a rank the dictionary
        // (a, b, c) has no entry for: it serves, but cannot be decoded.
        let cell = s.cell("t").unwrap();
        let cur = cell.snapshot();
        let mut matrix = cur.segments[0].store.decompress();
        matrix.columns[2][0] = 99;
        let doctored = Segment::new(
            cur.segments[0].engine.clone(),
            ph_gd::RowStore::Columnar(ph_gd::ColumnarStore::encode(&matrix)),
        );
        cell.swap(cur.successor(cur.epoch, cur.pre.clone(), vec![Arc::new(doctored)], None));

        // Edge-free rows land in the delta…
        s.ingest("t", &dataset("t", 1_000, 91)).unwrap();
        // …then a novel-category batch fails the rebuild (the store does not decode).
        let novel = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(1)]))
            .unwrap()
            .column(Column::from_ints("y", vec![Some(2)]))
            .unwrap()
            .column(Column::from_strings("c", vec![Some("NEW")]))
            .unwrap()
            .build();
        assert!(matches!(s.ingest("t", &novel), Err(PhError::Corrupt(_))));
        // The delta survives: its rows still answer, and further edge ingests
        // (and the seals they trigger) still see them.
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 4_000.0).abs() / 4_000.0 < 0.02, "{}", est.value);
        s.set_seal_threshold(1_500); // next batch crosses it
        let r = s.ingest("t", &dataset("t", 1_000, 92)).unwrap();
        assert!(r.rebuilt, "threshold seal fires over the preserved delta");
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 5_000.0).abs() / 5_000.0 < 0.02, "{}", est.value);
    }

    #[test]
    fn footprint_report_parts_sum_to_total() {
        let s = session_with("t", 5_000, 16);
        s.set_max_staleness(f64::INFINITY);
        s.set_seal_threshold(100_000); // keep the next batch delta-resident
        s.ingest("t", &dataset("t", 2_000, 17)).unwrap();
        let r = s.footprint_report("t").unwrap();
        assert_eq!(
            r.synopsis_bytes + r.row_store_bytes + r.delta_bytes,
            r.total,
            "the breakdown must sum to the total"
        );
        assert!(r.synopsis_bytes > 0, "synopsis bytes counted");
        assert!(r.row_store_bytes > 0, "compressed segment rows counted");
        assert!(r.delta_bytes > 0, "raw delta rows counted");
        assert_eq!(r.segments, 1);
        // The session total is the sum of its tables' totals — and no longer
        // undercounts by ignoring retained rows.
        assert_eq!(s.footprint(), r.total);
        assert!(
            s.footprint() > s.engine("t").unwrap().synopsis_size().total,
            "footprint must include more than synopsis bytes"
        );
        assert!(matches!(s.footprint_report("nope"), Err(PhError::UnknownTable(_))));
    }

    #[test]
    fn stats_report_cache_and_table_state() {
        let s = session_with("t", 6_000, 31);
        s.register(dataset("u", 3_000, 32)).unwrap();
        s.sql("SELECT COUNT(x) FROM t WHERE x > 100").unwrap();
        s.sql("SELECT COUNT(x) FROM t WHERE x > 100").unwrap();

        let stats = s.stats();
        assert_eq!(stats.cache, s.cache_stats());
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(
            stats.tables.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
            vec!["t", "u"],
            "one entry per table, sorted by name"
        );
        let t = &stats.tables[0];
        assert_eq!(t.segments, 1);
        assert_eq!(t.sealed_rows, 6_000);
        assert_eq!(t.delta_rows, 0);
        assert_eq!(t.staleness, 0.0);
        assert_eq!(t.epoch, s.engine("t").unwrap().plan_epoch());

        // Ingest on the edge-free path: delta rows appear, epoch is kept.
        s.ingest("t", &dataset("t", 500, 31)).unwrap();
        let after = s.table_stats("t").unwrap();
        assert_eq!(after.epoch, t.epoch, "edge-free ingest keeps the plan epoch");
        assert_eq!(after.delta_rows, 500);
        assert!(after.staleness > 0.0);

        // Sealing mints a new epoch and moves the rows into segments.
        s.set_seal_threshold(400);
        s.ingest("t", &dataset("t", 500, 31)).unwrap();
        let sealed = s.table_stats("t").unwrap();
        assert_ne!(sealed.epoch, t.epoch, "seal mints a fresh plan epoch");
        assert_eq!(sealed.delta_rows, 0);
        assert_eq!(sealed.sealed_rows, 7_000);
        assert!(sealed.segments > 1);

        assert!(matches!(s.table_stats("nope"), Err(PhError::UnknownTable(_))));
    }
}

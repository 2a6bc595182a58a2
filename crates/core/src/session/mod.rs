//! The `Session` catalog facade: named tables in **segmented storage**,
//! prepared-plan caching, O(batch)-amortized ingest with delta sealing, and
//! versioned multi-file persistence — all safely shareable across threads.
//!
//! A `Session` is the single front door the serving story needs: applications
//! register datasets once, then speak SQL. Behind the door it
//!
//! * stores each table as a list of immutable **sealed segments** — every
//!   segment holding its own PairwiseHist synopsis *plus* its retained rows in
//!   the per-column codec cascade (`ph_gd::ColumnarStore`) — and one **active
//!   delta** synopsis absorbing `ingest` batches (see `crate::segment` for the
//!   layout);
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
//! 1. **Epoch-swapped table state, one writer lock.** Each table's segment
//!    list (plus delta synopsis, shared preprocessor and build config) lives in
//!    an immutable `TableState` behind `RwLock<Arc<TableState>>`. Readers take
//!    the read lock just long enough to clone the `Arc` — nanoseconds — then
//!    run the whole query against their private snapshot with no lock held.
//!    Writers serialize on the table's one writer lock, `Mutex<Writer>`, which
//!    owns everything only a writer touches — the raw delta rows, the
//!    checkpoint record and the seal's encode buffers — build the replacement
//!    state *off to the side* and swap the `Arc` in one write-lock store. What
//!    readers poll (delta bytes, WAL and checkpoint watermarks, counters) is
//!    atomic, so no reader ever waits behind a seal. A reader mid-query keeps
//!    its snapshot alive through the `Arc`; every answer is consistent with
//!    *some* point in the ingest timeline, never a half-applied batch.
//!    Unchanged sealed-segment `Arc`s are shared between versions, so an
//!    ingest publishes O(1) new state.
//! 2. **A sharded plan cache.** The fingerprint → plan and text → plan maps are
//!    split across `PLAN_CACHE_SHARDS` `RwLock`ed shards, so concurrent cache
//!    hits on different templates don't contend on one global lock, and a hit is
//!    a single read-lock probe.
//! 3. **Plan epochs for staleness.** Every engine of one table version carries
//!    the version's **plan epoch**, so one prepared plan serves all segments. A
//!    seal or rebuild mints a fresh epoch (sealing re-refines the delta's
//!    synopsis; rebuilding refits the preprocessor), so a `Prepared` handle held
//!    across one fails with [`PhError::StalePlan`] instead of answering wrongly.
//!    One private query path serves [`Session::sql`], [`BatchSession::sql`] and
//!    [`Session::prepare`], and it alone retries on that error: it drops the
//!    table's cached plans, re-pins the table and replans (bounded — see
//!    `STALE_RETRIES`). [`Session::execute`] surfaces the error so callers
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

use std::collections::{BTreeMap, HashSet};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use ph_types::{Dataset, PhError};

use crate::build::{PairwiseHist, PairwiseHistConfig};
use crate::coverage::RangeSet;
use crate::engine::AqpAnswer;
use crate::persist::{Durability, Durable};
use crate::segment::{
    count_store_matching, registration_segment, FootprintReport, SealPolicy, TableState,
};

mod ingest;
mod query;

pub use ingest::IngestReport;
use query::PlanCache;
pub use query::{BatchSession, CacheStats};

/// Process-unique session ids for the plan identity check (never 0: 0 means
/// "unbound" on a [`Prepared`](crate::Prepared)).
fn next_session_id() -> u64 {
    static IDS: AtomicU64 = AtomicU64::new(1);
    IDS.fetch_add(1, Ordering::Relaxed)
}

/// Everything only a writer of one table touches, reachable only through the
/// table's writer lock ([`TableCell::writer`]).
#[derive(Default)]
pub(crate) struct Writer {
    /// Raw rows ingested since the last seal, appended in place (O(batch) per
    /// ingest); `None` when the delta is empty. Invariant: `Some` here ⟺ the
    /// published state has a delta synopsis.
    pub(crate) delta_rows: Option<Dataset>,
    /// What the table has committed to the WAL home (`crate::persist`).
    pub(crate) durable: Durable,
    /// Reusable encode buffers for the seal path and the plain fold:
    /// recycling the column buffers across seals removes the allocation spike
    /// that dominated ingest tail latency (p99 ≫ p50 on seal batches).
    encode_scratch: ph_gd::EncodeScratch,
}

/// The epoch cell of one table: the current state, swapped atomically under
/// `state`'s write lock, plus the one writer lock. The writer lock serializes
/// ingests, compactions, policy changes, saves and checkpoints — two writers
/// must never build replacements from the same base; the second would
/// silently drop the first's rows. Readers never take it: snapshots expose
/// only the engines, and what `/stats` and footprint polls read is atomic.
pub(crate) struct TableCell {
    state: RwLock<Arc<TableState>>,
    pub(crate) writer: Mutex<Writer>,
    /// Heap bytes of the delta rows, maintained by writers after each
    /// mutation, so footprint queries never touch the writer lock (a metrics
    /// poll must not stall behind an in-flight seal, rebuild or save).
    delta_bytes: AtomicUsize,
    /// Sequence number of the last ingest batch journaled to (or replayed
    /// from) this table's WAL; 0 = none. Written only under the writer lock
    /// (or during single-threaded `open_dir` replay).
    pub(crate) wal_seq: AtomicU64,
    /// The table's committed WAL watermark and checkpoint counters.
    pub(crate) durability: Durability,
}

impl TableCell {
    pub(crate) fn new(state: TableState) -> Self {
        Self {
            state: RwLock::new(Arc::new(state)),
            writer: Mutex::default(),
            delta_bytes: AtomicUsize::new(0),
            wal_seq: AtomicU64::new(0),
            durability: Durability::default(),
        }
    }

    /// The current state; the read lock is held only for the `Arc` clone.
    pub(crate) fn snapshot(&self) -> Arc<TableState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Publishes a replacement state and returns the one it replaced, so that
    /// whatever dropping it frees is freed outside the state lock.
    pub(crate) fn swap(&self, next: TableState) -> Arc<TableState> {
        let next = Arc::new(next);
        std::mem::replace(&mut *self.state.write().unwrap_or_else(PoisonError::into_inner), next)
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

impl Deref for TableSnapshot {
    type Target = PairwiseHist;

    fn deref(&self) -> &PairwiseHist {
        self.0.primary()
    }
}

/// Point-in-time serving statistics of one table, as reported by
/// [`Session::stats`] / [`Session::table_stats`]. All values come from the
/// published state snapshot — reading them never blocks writers.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// The table's current plan epoch. Changes exactly when held
    /// [`Prepared`](crate::Prepared) handles go stale (a seal or refit rebuild).
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
    /// held under it)`, sorted by name — the winning codec of each segment's
    /// columns (`"bitpack"`, `"delta"`, `"dict"`, `"runend"`).
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

    /// Registers a dataset under its own name, building the table's first sealed
    /// segment with the session's build configuration (see
    /// [`Session::with_config`]): a synopsis over the rows plus the rows
    /// themselves, compressed column by column through the codec cascade, as
    /// rebuild material.
    ///
    /// Under a WAL home (see [`Session::enable_wal`]) the table is checkpointed
    /// into it before it is published, so a registration that returns `Ok`
    /// survives a crash; one whose checkpoint fails returns the error and
    /// registers nothing. A session whose configured `α` the χ² tests cannot
    /// run at (see [`ph_stats::usable_alpha`]) refuses every registration with
    /// [`PhError::Schema`].
    pub fn register(&self, data: Dataset) -> Result<(), PhError> {
        let name = data.name().to_string();
        // The manifest frames the name with a u16 length.
        if name.len() > u16::MAX as usize {
            return Err(PhError::Schema(format!(
                "table name is {} bytes; the limit is {}",
                name.len(),
                u16::MAX
            )));
        }
        let alpha = self.default_cfg.alpha;
        if !ph_stats::usable_alpha(alpha) {
            return Err(PhError::Schema(format!(
                "significance level α = {alpha:e} is not one the χ² tests can run at"
            )));
        }
        let taken =
            |name: &str| Err(PhError::Schema(format!("table '{name}' is already registered")));
        if self.tables.read().unwrap_or_else(PoisonError::into_inner).contains_key(&name) {
            return taken(&name);
        }
        // The state keeps the *requested* configuration; `ns` is clamped to the
        // rows actually present at each build, so a table that grows past the
        // requested sample size samples up to it again on later seals. The build
        // runs before the map lock is taken — registration must not stall the
        // catalog.
        let pre = Arc::new(ph_gd::Preprocessor::fit(&data));
        let cfg = &self.default_cfg;
        let segment = registration_segment(&data, &pre, cfg);
        let epoch = segment.engine.plan_epoch();
        let policy = *self.policy.lock().unwrap_or_else(PoisonError::into_inner);
        let state = TableState::new(epoch, pre, vec![Arc::new(segment)], cfg.clone(), policy);
        let cell = Arc::new(TableCell::new(state));
        let _registering = self.registering.lock().unwrap_or_else(PoisonError::into_inner);
        if self.tables.read().unwrap_or_else(PoisonError::into_inner).contains_key(&name) {
            return taken(&name); // lost a registration race for the same name
        }
        let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.checkpoint(&name, &cell, &mut w)?;
        drop(w);
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
            if self
                .quarantined
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(table)
                .is_some()
            {
                self.dropped
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(table.to_string());
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
        let cell =
            self.tables.read().unwrap_or_else(PoisonError::into_inner).get(table).cloned()?;
        Some(TableSnapshot(cell.snapshot()))
    }

    /// Total resident bytes of every registered table: synopses, compressed
    /// segment row stores, and raw un-sealed delta rows (the sum of each table's
    /// [`Session::footprint_report`] total).
    pub fn footprint(&self) -> usize {
        self.tables().iter().filter_map(|t| self.footprint_report(t).ok()).map(|r| r.total).sum()
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
        self.tables.read().unwrap_or_else(PoisonError::into_inner).get(table).cloned().ok_or_else(
            || match self.quarantined.lock().unwrap_or_else(PoisonError::into_inner).get(table) {
                Some(reason) => PhError::Quarantined(format!("'{table}': {reason}")),
                None => PhError::UnknownTable(table.to_string()),
            },
        )
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
            tables: self.tables().iter().filter_map(|t| self.table_stats(t).ok()).collect(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prepared::{AqpEngine, Prepared};
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

    pub(crate) fn session_with(name: &str, n: usize, seed: u64) -> Session {
        let s = Session::new();
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

    /// `α = 1e-17` is inside `(0, 1)`, yet `1 − α == 1`: the first uniformity
    /// test would take the normal quantile at 1. Registration answers instead.
    #[test]
    fn an_unusable_alpha_is_refused_not_a_panic() {
        for alpha in [1e-17, 1e-300, 5e-324, 0.0, 1.0, f64::NAN] {
            let s = Session::with_config(PairwiseHistConfig { alpha, ..Default::default() });
            let register = std::panic::AssertUnwindSafe(|| s.register(dataset("t", 5_000, 5)));
            let got = std::panic::catch_unwind(register);
            assert!(matches!(got, Ok(Err(PhError::Schema(_)))), "α = {alpha:e}: {got:?}");
            assert!(s.tables().is_empty());
        }
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

//! The on-disk catalog and its commit protocol: what [`Session::save_dir`]
//! writes, what a checkpoint commits into the WAL home, and what
//! [`Session::open_dir`] reads back — blob framing, file naming, the
//! write-once commit and the sweep after it. The ingest log beside it is
//! `crate::wal`; the synopsis bytes inside a segment blob are `crate::storage`
//! (Fig 6).
//!
//! A `Session` table persists as one **manifest** plus one blob **per sealed
//! segment**. The manifest carries what every segment shares — the table name,
//! the fitted preprocessor, the build configuration and the seal policy — plus
//! the ingest-WAL watermark and the number of each segment's blob, so segment
//! blobs stay self-contained pairs of synopsis + compressed rows. Both are one
//! frame, `magic | u8 version | body | u32 crc32 of all prior bytes`, around
//! these bodies:
//!
//! ```text
//! manifest "PWT2" v5 (<base>.pwhs):
//!     u16 name_len | name | u32 pre_len | preprocessor
//!     | u64 ns | u64 m_absolute (u64::MAX = none) | f64 alpha
//!     | u8 split_rule | u64 seed                        (the build configuration)
//!     | u64 seal_rows | f64 max_staleness                 (the seal policy)
//!     | u64 wal_seq | u32 n_segments | u64 blob_number × n_segments
//! segment "PSG3" v3 (<base>.seg<blob_number>.phseg):
//!     u64 syn_len | synopsis | u8 store_kind | u64 store_len | store bytes
//! ```
//!
//! `store_kind` names the row-store representation. The one this build writes
//! and reads is 2, the per-column codec cascade ([`ph_gd::ColumnarStore`]);
//! any other kind (1 was a GreedyGD store) is rejected by name.
//! `wal_seq` is the ingest-WAL watermark (replay skips WAL records with seq ≤
//! it), and the CRC32 trailer lets `open_dir` tell a clean blob from bit-rot
//! and quarantine the table instead of loading garbage.
//!
//! # A seal is a checkpoint, the log is the delta
//!
//! A session with a WAL home ([`Session::enable_wal`]) commits every change
//! its log cannot replay — registration, a seal, a refit, a compaction, a
//! seal-policy change, `save_dir` into the home — as a **checkpoint** of the
//! table into the home. Sealed rows are durable in segment blobs and delta rows
//! in the log, never only in a serialized delta: a checkpoint's watermark is
//! the last journaled batch folded into a sealed segment, so `open_dir`
//! replays exactly the delta's batches, through `ingest`, and rebuilds the
//! delta as the live table built it. A checkpoint that finds the delta empty
//! deletes the log. Blobs are **write-once** — a committed blob is never
//! rewritten — so a seal's checkpoint writes only the blobs that seal created.
//! A failed checkpoint fails no acknowledged ingest: those batches are in the
//! log, which stays until a later checkpoint commits them.
//!
//! One [`commit`] serves checkpoints and exports alike: blobs first, each under
//! a number no file of the table has used; then the manifest, whose rename is
//! the commit point; then the sweep of the table's files it no longer names.
//! A crash before the rename recovers the previous manifest and its log; after
//! it, the new manifest, whose watermark skips the records it folded in.
//!
//! There is exactly one reader per blob kind: anything else — another magic,
//! another version, another store kind — is rejected, never guessed at.
//!
//! Every durable format — these two frames ([`ph_encoding::frame`] /
//! [`ph_encoding::unframe`]), the preprocessor, synopsis and row store inside
//! them, the ingest log and the query log — is written through
//! [`ph_encoding::Out`] and decodes through its mirror, one bounded cursor,
//! [`ph_encoding::Bytes`]; every reservation a decoder makes is sized from
//! [`ph_encoding::Bytes::count`] (the `bounded-reserve` lint rule), and a
//! segment's store is held to the rows and columns its synopsis and the
//! preprocessor commit.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use ph_encoding::{frame, unframe, Out};
use ph_gd::{ColumnarStore, Preprocessor};
use ph_obs::{span, Counter, Stage};
use ph_stats::usable_alpha;
use ph_types::{faultfs, Dataset, PhError};

use crate::build::{next_plan_epoch, PairwiseHist, PairwiseHistConfig, SplitRule};
use crate::segment::{build_delta, SealPolicy, Segment, TableState};
use crate::session::{Session, TableCell, Writer};
use crate::wal;

/// Magic and frame version of the table manifest.
const TABLE_MAGIC: &[u8; 4] = b"PWT2";
const TABLE_VERSION: u8 = 5;
/// Magic and frame version of a segment blob.
const SEGMENT_MAGIC: &[u8; 4] = b"PSG3";
const SEGMENT_VERSION: u8 = 3;
/// The `store_kind` of a segment blob: the per-column codec cascade.
const COLUMNAR_STORE: u8 = 2;

/// Why a blob that [`unframe`]s or decodes to `None` was turned away, for the
/// quarantine reason: a container this build does not read — a retired or
/// foreign magic/version, or an intact frame around a body it has no reader
/// for — is named as such; everything else is damage.
fn reject_reason(magic: &[u8; 4], version: u8, data: &[u8]) -> String {
    let shown = |m: &[u8]| String::from_utf8_lossy(m).into_owned();
    match (data.get(..4), data.get(4)) {
        (Some(m), Some(&v)) if m != magic || v != version => format!(
            "unsupported format '{}' v{v} (this build reads '{}' v{version})",
            shown(m),
            shown(magic)
        ),
        _ if unframe(magic, version, data).is_some() => format!(
            "unsupported format: intact '{}' v{version} frame around a body this \
             build does not read",
            shown(magic)
        ),
        _ => "does not decode (checksum mismatch or truncation)".to_string(),
    }
}

/// Decoded table manifest.
struct TableManifest {
    name: String,
    pre: Preprocessor,
    cfg: PairwiseHistConfig,
    policy: SealPolicy,
    /// Ingest-WAL watermark: every WAL record with `seq <= wal_seq` is already
    /// folded into the segments this manifest names.
    wal_seq: u64,
    /// Blob number of each sealed segment, oldest first.
    blobs: Vec<u64>,
}

/// Serializes a table manifest (what every segment blob of the table shares).
fn table_manifest_to_bytes(
    table: &str,
    pre: &Preprocessor,
    cfg: &PairwiseHistConfig,
    policy: SealPolicy,
    wal_seq: u64,
    blobs: &[u64],
) -> Vec<u8> {
    frame(TABLE_MAGIC, TABLE_VERSION, |out| {
        debug_assert!(table.len() <= u16::MAX as usize, "register rejects longer names");
        out.u16(table.len() as u16);
        out.bytes(table.as_bytes());
        let pre_bytes = pre.to_bytes();
        out.u32(pre_bytes.len() as u32);
        out.bytes(&pre_bytes);
        out.u64(cfg.ns as u64);
        out.u64(cfg.m_absolute.map_or(u64::MAX, |m| m as u64));
        out.f64(cfg.alpha);
        out.u8(match cfg.split_rule {
            SplitRule::EqualWidth => 0,
            SplitRule::EqualDepth => 1,
        });
        out.u64(cfg.seed);
        out.u64(policy.rows as u64);
        out.f64(policy.max_staleness);
        out.u64(wal_seq);
        out.u32(blobs.len() as u32);
        for &no in blobs {
            out.u64(no);
        }
    })
}

/// Restores a [`TableManifest`]. Returns `None` on malformed or corrupted
/// input, including a configuration or policy no build could run under.
fn table_manifest_from_bytes(data: &[u8]) -> Option<TableManifest> {
    let mut r = unframe(TABLE_MAGIC, TABLE_VERSION, data)?;
    // A `u64` setting that must be positive and fit a `usize`.
    let positive = |v: u64| usize::try_from(v).ok().filter(|&n| n > 0);
    let name_len = r.u16()?;
    let name = r.str(name_len.into())?.to_string();
    let pre_len = r.u32()? as usize;
    let pre = Preprocessor::from_bytes(r.take(pre_len)?)?;
    let cfg = PairwiseHistConfig {
        ns: positive(r.u64()?)?,
        m_absolute: match r.u64()? {
            u64::MAX => None,
            m => Some(positive(m)?),
        },
        alpha: r.f64().filter(|&a| usable_alpha(a))?,
        split_rule: match r.u8()? {
            0 => SplitRule::EqualWidth,
            1 => SplitRule::EqualDepth,
            _ => return None,
        },
        seed: r.u64()?,
    };
    let policy =
        SealPolicy { rows: positive(r.u64()?)?, max_staleness: r.f64().filter(|s| *s >= 0.0)? };
    let wal_seq = r.u64()?;
    let n_segments = r.u32()?;
    let n_segments = r.count(n_segments.into(), 8)?;
    let mut blobs = Vec::with_capacity(n_segments);
    for _ in 0..n_segments {
        blobs.push(r.u64()?);
    }
    r.finish()?;
    Some(TableManifest { name, pre, cfg, policy, wal_seq, blobs })
}

/// Serializes one sealed segment, synopsis and compressed rows, as the `PSG3`
/// blob a checkpoint commits. [`Session::open_dir`] quarantines a blob whose
/// store is not the synopsis's rows by the preprocessor's columns.
pub fn segment_to_bytes(engine: &PairwiseHist, store: &ColumnarStore) -> Vec<u8> {
    frame(SEGMENT_MAGIC, SEGMENT_VERSION, |out| {
        let syn = engine.to_bytes();
        out.u64(syn.len() as u64);
        out.bytes(&syn);
        let store_bytes = store.to_bytes();
        out.u8(COLUMNAR_STORE);
        out.u64(store_bytes.len() as u64);
        out.bytes(&store_bytes);
    })
}

/// Restores a segment blob against the table's shared preprocessor, or says
/// why not for the quarantine reason: a row-store kind other than the cascade
/// and a store of another shape than `n_total` rows by `pre.n_columns()` are
/// named, everything else is [`reject_reason`]'s.
fn segment_from_bytes(
    data: &[u8],
    pre: Arc<Preprocessor>,
) -> Result<(PairwiseHist, ColumnarStore), String> {
    let rejected = || reject_reason(SEGMENT_MAGIC, SEGMENT_VERSION, data);
    let mut r = unframe(SEGMENT_MAGIC, SEGMENT_VERSION, data).ok_or_else(rejected)?;
    let parts = (|| {
        let syn_len = usize::try_from(r.u64()?).ok()?;
        let syn = r.take(syn_len)?;
        let kind = r.u8()?;
        let store_len = usize::try_from(r.u64()?).ok()?;
        let store = r.take(store_len)?;
        // Trailing bytes: not a clean blob.
        r.finish().map(|()| (syn, kind, store))
    })();
    let (syn, kind, store) = parts.ok_or_else(rejected)?;
    if kind != COLUMNAR_STORE {
        return Err(format!(
            "unsupported format: '{}' v{SEGMENT_VERSION} row-store kind {kind} (this build \
             reads kind {COLUMNAR_STORE})",
            String::from_utf8_lossy(SEGMENT_MAGIC)
        ));
    }
    let cols = pre.n_columns();
    let engine = PairwiseHist::from_bytes(syn, pre).ok_or_else(rejected)?;
    let rows = engine.params().n_total;
    match ColumnarStore::shape(store) {
        Some(found) if found != (rows, cols as u64) => Err(format!(
            "row store holds {} × {} (rows × columns) where its synopsis and preprocessor \
             commit {rows} × {cols}",
            found.0, found.1
        )),
        _ => usize::try_from(rows)
            .ok()
            .and_then(|n| ColumnarStore::from_bytes(store, n, cols))
            .map(|store| (engine, store))
            .ok_or_else(rejected),
    }
}

/// A blob a manifest names: committed earlier under its number, or new bytes.
enum Blob {
    Committed(u64),
    New(Vec<u8>),
}

/// Commits one table into `dir`, write-once: every new blob under a number no
/// file of the table's `base` has used, then the manifest `manifest(numbers)`
/// — its rename is the commit point — then the sweep of `base`'s files the
/// manifest does not name (superseded blobs, `.tmp` orphans of interrupted
/// writes; the log is not this function's). Returns the blob numbers the
/// manifest names, in order.
fn commit(
    dir: &Path,
    base: &str,
    blobs: Vec<Blob>,
    manifest: impl FnOnce(&[u64]) -> Vec<u8>,
) -> Result<Vec<u64>, PhError> {
    // `(path, is a .tmp orphan, blob number)` of every file of this table.
    let mut owned: Vec<(PathBuf, bool, Option<u64>)> = Vec::new();
    for path in faultfs::read_dir_paths(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let logical = name.strip_suffix(".tmp").unwrap_or(name);
        if owned_base_of(logical) == Some(base) {
            let (is_tmp, no) = (logical.len() != name.len(), blob_of(logical).map(|(_, no)| no));
            owned.push((path.clone(), is_tmp, no));
        }
    }
    let mut next = owned.iter().filter_map(|f| f.2).max().unwrap_or(0);
    let mut named = Vec::with_capacity(blobs.len());
    for blob in blobs {
        named.push(match blob {
            Blob::Committed(no) => no,
            Blob::New(bytes) => {
                next += 1;
                write_atomic(dir, &blob_file_name(base, next), &bytes)?;
                next
            }
        });
    }
    write_atomic(dir, &format!("{base}.pwhs"), &manifest(&named))?;
    for (path, is_tmp, no) in owned {
        if is_tmp || no.is_some_and(|no| !named.contains(&no)) {
            faultfs::remove_file(&path)?;
        }
    }
    Ok(named)
}

/// What one table has committed to the session's WAL home. Part of the
/// table's [`Writer`], so only reachable under its writer lock.
#[derive(Default)]
pub(crate) struct Durable {
    /// The home the table was adopted into (its first checkpoint there), with
    /// the blob number that home's committed manifest names for each sealed
    /// segment, by segment id. `None` until then.
    home: Option<(PathBuf, HashMap<u64, u64>)>,
    /// Seq of the last journaled batch whose rows are in a sealed segment: the
    /// watermark the next checkpoint commits.
    sealed_seq: u64,
}

/// What readers poll of one table's checkpoints, lock-free: the committed
/// watermark and the outcome counters.
#[derive(Default)]
pub(crate) struct Durability {
    /// The WAL seq at or below which a restart replays nothing: the committed
    /// manifest's watermark (or, right after an adoption, where the home's log
    /// starts).
    committed_seq: AtomicU64,
    /// Checkpoints committed since the table was registered or opened.
    pub(crate) checkpoints: Counter,
    /// Checkpoints that failed; the log keeps what they would have committed.
    pub(crate) failures: Counter,
}

impl Durability {
    /// Journaled batches a restart would replay, for a table at WAL seq
    /// `wal_seq`.
    pub(crate) fn pending(&self, wal_seq: u64) -> u64 {
        wal_seq.saturating_sub(self.committed_seq.load(Ordering::Relaxed))
    }
}

/// The checkpoint itself, under the table's writer lock (see
/// [`Session::checkpoint`]).
fn checkpoint_into(
    w: &mut Writer,
    home: &Path,
    table: &str,
    cell: &TableCell,
) -> Result<(), PhError> {
    let base = file_base_for(table);
    let log = wal::wal_path(home, &base);
    let d = &mut w.durable;
    let committed = d.home.as_ref().filter(|(dir, _)| dir == home).map(|(_, blobs)| blobs);
    let adopting = committed.is_none();
    if adopting {
        // No batch of this table is in the home's log yet: whatever log is
        // there belongs to an earlier table of the same name, and must not
        // replay into this one.
        wal::remove_wal(&log)?;
    }
    let state = cell.snapshot();
    let blobs = state
        .segments
        .iter()
        .map(|s| match committed.and_then(|c| c.get(&s.id)) {
            Some(&no) => Blob::Committed(no),
            None => Blob::New(segment_to_bytes(&s.engine, &s.store)),
        })
        .collect();
    let sealed_seq = d.sealed_seq;
    let named = commit(home, &base, blobs, |named| {
        table_manifest_to_bytes(table, &state.pre, &state.cfg, state.policy, sealed_seq, named)
    })?;
    let committed: HashMap<u64, u64> = state.segments.iter().map(|s| s.id).zip(named).collect();
    let wal_seq = cell.wal_seq.load(Ordering::Relaxed);
    if adopting {
        cell.durability.committed_seq.store(wal_seq, Ordering::Relaxed);
        if let Some(rows) = &w.delta_rows {
            // Rows ingested before the table had this home: journal them as one
            // batch, and rebuild the live delta the way replaying that batch
            // will, so the recovered table is this one.
            wal::append_record(&log, wal_seq + 1, rows)?;
            cell.wal_seq.store(wal_seq + 1, Ordering::Relaxed);
            let delta = build_delta(rows, &state.pre, &state.cfg, state.epoch);
            let (pre, segments) = (state.pre.clone(), state.segments.clone());
            cell.swap(state.successor(state.epoch, pre, segments, Some(delta)));
        }
    } else {
        cell.durability.committed_seq.store(sealed_seq, Ordering::Relaxed);
    }
    d.home = Some((home.to_path_buf(), committed));
    if !adopting && state.delta.is_none() {
        // Every journaled batch is in a committed blob: the log is done. A
        // crash before this line leaves records the watermark skips.
        debug_assert_eq!(sealed_seq, wal_seq, "an empty delta means everything is sealed");
        wal::remove_wal(&log)?;
    }
    Ok(())
}

/// `save_dir` into a directory other than the WAL home: an export. With no log
/// beside it, the delta is serialized as a final sealed segment and the
/// watermark covers every journaled batch. The manifest carries the build
/// configuration as the first segment was built — `Ns` clamped to the rows it
/// held, `M` fixed, the table's own `α`, split rule and seed — the
/// configuration every reopened export has sealed with.
fn export(
    dir: &Path,
    table: &str,
    cell: &TableCell,
    delta_rows: Option<&Dataset>,
) -> Result<(), PhError> {
    let state = cell.snapshot();
    let mut blobs: Vec<Blob> =
        state.segments.iter().map(|s| Blob::New(segment_to_bytes(&s.engine, &s.store))).collect();
    if let (Some(rows), Some(delta)) = (delta_rows, state.delta.as_ref()) {
        let store = ColumnarStore::encode(&state.pre.encode(rows));
        blobs.push(Blob::New(segment_to_bytes(delta, &store)));
    }
    let built = state.primary().params();
    let cfg = PairwiseHistConfig {
        ns: built.ns,
        alpha: built.alpha,
        m_absolute: Some(built.m_min),
        ..state.cfg.clone()
    };
    let wal_seq = cell.wal_seq.load(Ordering::Relaxed);
    commit(dir, &file_base_for(table), blobs, |named| {
        table_manifest_to_bytes(table, &state.pre, &cfg, state.policy, wal_seq, named)
    })?;
    Ok(())
}

impl Session {
    /// Turns on write-ahead logging with `dir` (created if missing) as the
    /// session's **durability home**. From now on every accepted
    /// [`Session::ingest`] batch is appended — and fsynced — to the table's log
    /// in `dir` *before* the in-memory swap, and every change the log cannot
    /// replay (registration, seal, refit, [`Session::compact`], a seal-policy
    /// change) is checkpointed into `dir`: the new segments' blobs, then the
    /// table's manifest. So a crash after any call returns loses nothing, and
    /// [`Session::open_dir`] on the directory replays only the batches past
    /// each table's last seal. [`Session::open_dir`] makes the opened directory
    /// the home automatically.
    ///
    /// Every registered table is checkpointed into `dir` now — rows ingested
    /// before this call are journaled as one batch — and the first error is
    /// returned. A table whose checkpoint failed stays registered, and the
    /// next ingest into it retries the checkpoint before journaling anything.
    pub fn enable_wal(&self, dir: impl AsRef<Path>) -> Result<(), PhError> {
        let dir = dir.as_ref();
        faultfs::create_dir_all(dir)?;
        *self.wal_dir.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir.to_path_buf());
        let mut first_error = Ok(());
        for (name, cell) in self.cells() {
            let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
            first_error = first_error.and(self.checkpoint(&name, &cell, &mut w));
        }
        first_error
    }

    /// Whether ingest batches are currently journaled (see [`Session::enable_wal`]).
    pub fn wal_enabled(&self) -> bool {
        self.wal_home().is_some()
    }

    fn wal_home(&self) -> Option<PathBuf> {
        self.wal_dir.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Every registered table, as of now.
    fn cells(&self) -> Vec<(String, Arc<TableCell>)> {
        let tables = self.tables.read().unwrap_or_else(PoisonError::into_inner);
        tables.iter().map(|(n, c)| (n.clone(), c.clone())).collect()
    }

    /// Journals `batch` to the table's write-ahead log; a no-op without a WAL
    /// home.
    ///
    /// Called under the table's writer lock, after every fallible part of the
    /// ingest and before any in-memory mutation. That placement is the whole
    /// durability argument: once the record is fsynced the batch is certain to
    /// apply, so an acknowledged ingest survives a crash, and a crash mid-append
    /// leaves a torn tail that replay discards as never acknowledged.
    pub(crate) fn wal_append(
        &self,
        table: &str,
        cell: &TableCell,
        batch: &Dataset,
    ) -> Result<(), PhError> {
        let Some(dir) = self.wal_home() else { return Ok(()) };
        let seq = cell.wal_seq.load(Ordering::Relaxed) + 1;
        wal::append_record(&wal::wal_path(&dir, &file_base_for(table)), seq, batch)?;
        cell.wal_seq.store(seq, Ordering::Relaxed);
        Ok(())
    }

    /// Checkpoints `table` into the WAL home unless its home already holds it:
    /// no batch is journaled for a table the home has no manifest of (one whose
    /// registration raced [`Session::enable_wal`], or whose checkpoint there
    /// failed). Called under the writer lock before anything else.
    pub(crate) fn adopt(
        &self,
        table: &str,
        cell: &TableCell,
        w: &mut Writer,
    ) -> Result<(), PhError> {
        let Some(home) = self.wal_home() else { return Ok(()) };
        if w.durable.home.as_ref().is_some_and(|(dir, _)| *dir == home) {
            return Ok(());
        }
        self.checkpoint(table, cell, w)
    }

    /// A seal or refit just emptied the delta into sealed segments, so every
    /// journaled batch is in one: checkpoint them. A failure is counted and
    /// otherwise ignored — the batches are in the log, which stays until a later
    /// checkpoint commits them.
    pub(crate) fn sealed(&self, table: &str, cell: &TableCell, w: &mut Writer) {
        w.durable.sealed_seq = cell.wal_seq.load(Ordering::Relaxed);
        let _ = self.checkpoint(table, cell, w);
    }

    /// Commits `table`'s sealed state into the WAL home — a no-op without one
    /// — under a `checkpoint` span, counting the outcome. The writer guard is
    /// the proof the caller holds the table's writer lock. The first
    /// checkpoint into a home **adopts** the table there: a log an earlier
    /// table of the name left is deleted, every segment gets a blob, and rows
    /// ingested before the home existed are journaled as one batch.
    pub(crate) fn checkpoint(
        &self,
        table: &str,
        cell: &TableCell,
        w: &mut Writer,
    ) -> Result<(), PhError> {
        let Some(home) = self.wal_home() else { return Ok(()) };
        let _checkpoint = span(Stage::Checkpoint);
        let done = checkpoint_into(w, &home, table, cell);
        let d = &cell.durability;
        let outcome = if done.is_ok() { &d.checkpoints } else { &d.failures };
        outcome.inc();
        done
    }

    /// Edits the seal policy the session registers tables with, and every
    /// registered table's, checkpointing each table whose policy changed (the
    /// policy decides where a replay seals, so the log cannot stand in for
    /// it). An edit that changes no table's policy returns without a writer
    /// lock or an allocation: only this function changes a published policy,
    /// so the published ones are what it would find under the locks.
    pub(crate) fn set_policy(&self, edit: impl Fn(&mut SealPolicy)) {
        edit(&mut self.policy.lock().unwrap_or_else(PoisonError::into_inner));
        let edited = |policy: SealPolicy| {
            let mut next = policy;
            edit(&mut next);
            (next != policy).then_some(next)
        };
        let tables = self.tables.read().unwrap_or_else(PoisonError::into_inner);
        if tables.values().all(|cell| edited(cell.snapshot().policy).is_none()) {
            return;
        }
        drop(tables);
        for (name, cell) in self.cells() {
            let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let cur = cell.snapshot();
            if let Some(policy) = edited(cur.policy) {
                let mut next = cur.successor(
                    cur.epoch,
                    cur.pre.clone(),
                    cur.segments.clone(),
                    cur.delta.clone(),
                );
                next.policy = policy;
                cell.swap(next);
                let _ = self.checkpoint(&name, &cell, &mut w);
            }
        }
    }

    /// Persists every table to `dir` (created if missing): one manifest
    /// (`.pwhs`) plus one blob per sealed segment (`.phseg`), compressed rows
    /// included, so a reopened catalog remains fully ingestable. Returns the
    /// number of tables written.
    ///
    /// Into the session's WAL home (see [`Session::enable_wal`]) this is a
    /// checkpoint of every table: blobs already committed are not rewritten,
    /// and the un-sealed delta stays where it is durable — in the log. Into any
    /// other directory it is an **export**: every blob is written, the delta is
    /// serialized as a final sealed segment, and the manifest carries the
    /// build configuration as the table's first segment was built (`Ns`
    /// clamped to its rows, `M` fixed) — what a reopened export seals with.
    ///
    /// Either way the save is **crash-safe** and write-once. Every file is
    /// written to a `.tmp` sibling, fsynced, renamed into place, and the
    /// directory fsynced; a table's blobs land before its manifest, each under a
    /// number no file of the table has used, so an interrupted save never tears
    /// a blob the committed manifest names. The manifest rename is the table's
    /// commit point; after it, the table's files the manifest no longer names
    /// (superseded blobs, `.tmp` orphans) are swept. A crash anywhere leaves
    /// each table opening to either its old or its new manifest, never a torn
    /// mix. Once every table has committed, the files of
    /// [`Session::drop_table`]ed names are swept too — only files of this
    /// catalog's own tables are ever touched, so a shared directory's foreign
    /// files are left alone.
    ///
    /// Concurrent writers may swap tables while the directory is written; each
    /// table's files are internally consistent (written under the table's
    /// writer lock), and the set of tables is the registration set at the start
    /// of the call.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<usize, PhError> {
        let dir = dir.as_ref();
        faultfs::create_dir_all(dir)?;
        let cells = self.cells();
        let home = self.wal_home().as_deref() == Some(dir);
        for (name, cell) in &cells {
            // The writer lock pins the delta rows to the published delta and
            // freezes the WAL seq, so what is written is one version.
            let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
            if home {
                self.checkpoint(name, cell, &mut w)?;
            } else {
                export(dir, name, cell, w.delta_rows.as_ref())?;
            }
        }
        // Reached only with every table committed. A dropped name registered
        // again is a live table: its files stay.
        let live: HashSet<String> = cells.iter().map(|(name, _)| file_base_for(name)).collect();
        let dropped: HashSet<String> = self
            .dropped
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|n| file_base_for(n))
            .filter(|base| !live.contains(base))
            .collect();
        if !dropped.is_empty() {
            for path in faultfs::read_dir_paths(dir)? {
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
                let logical = name.strip_suffix(".tmp").unwrap_or(name);
                if owned_base_of(logical).is_some_and(|base| dropped.contains(base)) {
                    faultfs::remove_file(&path)?;
                }
            }
        }
        Ok(cells.len())
    }

    /// Reopens a catalog persisted with [`Session::save_dir`] or checkpointed
    /// into a WAL home: every manifest in `dir` becomes a registered table with
    /// its full segment list, build configuration and seal policy, serving
    /// straight from the deserialized synopses. Compressed rows are restored
    /// with each segment, so ingest — including batches that force a refit
    /// rebuild — keeps working on the reopened catalog.
    ///
    /// Tables whose files fail checksum or decode verification — or are not in
    /// the one format this build reads — are
    /// **quarantined** rather than failing the whole open: the rest of the
    /// catalog serves, queries on the damaged table answer
    /// [`PhError::Quarantined`], and [`Session::quarantined`] lists the
    /// casualties with reasons. Only directory-level I/O failures abort.
    ///
    /// After the manifests load, each table's write-ahead log is replayed
    /// through the normal ingest path: records at or below the manifest's
    /// watermark (already in its segments) are skipped, so what replays is the
    /// delta — O(batches since the last seal), not O(batches since the last
    /// save). A torn final record — the signature of a crash mid-append — is
    /// discarded as never acknowledged, and mid-log damage quarantines the
    /// table. The opened directory becomes the session's WAL home (see
    /// [`Session::enable_wal`]), so the reopened catalog is durable by default;
    /// a table whose replay re-ran a seal (its checkpoint had failed) is
    /// checkpointed on the way out.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Session, PhError> {
        let dir = dir.as_ref();
        let session = Session::new();
        let mut paths = faultfs::read_dir_paths(dir)?;
        // Deterministic load order: fault injection counts filesystem ops, and
        // quarantine-on-duplicate must pick the same file every run.
        paths.sort();
        // Tables that loaded, with their manifest's WAL watermark.
        let mut loaded: Vec<(String, Arc<TableCell>, u64)> = Vec::new();
        {
            let mut map = session.tables.write().unwrap_or_else(PoisonError::into_inner);
            let mut quarantined =
                session.quarantined.lock().unwrap_or_else(PoisonError::into_inner);
            for path in &paths {
                if path.extension().and_then(|e| e.to_str()) != Some("pwhs") {
                    continue;
                }
                // Until the manifest's checksum clears, the name bytes inside
                // it cannot be trusted — early failures quarantine under the
                // file's base name instead.
                let file_base =
                    path.file_stem().and_then(|s| s.to_str()).unwrap_or("<non-utf8>").to_string();
                let fail = |k: &str, e: PhError| (k.to_string(), e);
                let corrupt =
                    |detail: String| PhError::Corrupt(format!("{}: {detail}", path.display()));
                type Loaded = (String, TableState, HashMap<u64, u64>, u64);
                let load = || -> Result<Loaded, (String, PhError)> {
                    // open_dir runs before the session is shared: both maps are
                    // locked for the whole single-threaded load.
                    let bytes =
                        // ph-lint: allow(lock-across-io) — single-threaded startup load, no contention
                        faultfs::read(path).map_err(|e| fail(&file_base, e.into()))?;
                    let m = table_manifest_from_bytes(&bytes).ok_or_else(|| {
                        let why = reject_reason(TABLE_MAGIC, TABLE_VERSION, &bytes);
                        fail(&file_base, corrupt(format!("manifest: {why}")))
                    })?;
                    let name = m.name;
                    let pre = Arc::new(m.pre);
                    let base = file_base_for(&name);
                    let epoch = next_plan_epoch();
                    let mut segments = Vec::with_capacity(m.blobs.len());
                    for &no in &m.blobs {
                        let seg_path = dir.join(blob_file_name(&base, no));
                        let seg_bytes =
                            // ph-lint: allow(lock-across-io) — single-threaded startup load, no contention
                            faultfs::read(&seg_path).map_err(|e| fail(&name, e.into()))?;
                        let (mut engine, store) = segment_from_bytes(&seg_bytes, pre.clone())
                            .map_err(|why| {
                                fail(&name, corrupt(format!("segment blob {no}: {why}")))
                            })?;
                        engine.plan_epoch = epoch;
                        segments.push(Arc::new(Segment::new(engine, store)));
                    }
                    if segments.is_empty() {
                        return Err(fail(&name, corrupt("manifest lists no segments".into())));
                    }
                    let blobs = segments.iter().map(|s| s.id).zip(m.blobs).collect();
                    let state = TableState::new(epoch, pre, segments, m.cfg, m.policy);
                    Ok((name, state, blobs, m.wal_seq))
                };
                match load() {
                    Ok((name, state, blobs, watermark)) => {
                        if map.contains_key(&name) {
                            quarantined.insert(
                                file_base,
                                format!("table '{name}' appears in more than one file"),
                            );
                            continue;
                        }
                        let cell = Arc::new(TableCell::new(state));
                        cell.writer.lock().unwrap_or_else(PoisonError::into_inner).durable =
                            Durable {
                                home: Some((dir.to_path_buf(), blobs)),
                                sealed_seq: watermark,
                            };
                        cell.durability.committed_seq.store(watermark, Ordering::Relaxed);
                        cell.wal_seq.store(watermark, Ordering::Relaxed);
                        map.insert(name.clone(), cell.clone());
                        loaded.push((name, cell, watermark));
                    }
                    Err((key, e)) => {
                        quarantined.insert(key, e.to_string());
                    }
                }
            }
        }
        // Replay each surviving table's WAL tail. `wal_dir` is still `None`
        // here, so the replayed ingests neither journal nor checkpoint.
        for (name, cell, watermark) in &loaded {
            let wal_path = wal::wal_path(dir, &file_base_for(name));
            let replayed = (|| -> Result<(), PhError> {
                let replay = wal::read_wal(&wal_path)?;
                if replay.torn_tail {
                    // Amputate the torn bytes now: a later append landing
                    // after them would read as mid-log damage next open. A
                    // prefix too short to hold even the magic means no intact
                    // record ever hit the disk — start the log over.
                    if replay.valid_len <= wal::WAL_MAGIC.len() {
                        wal::remove_wal(&wal_path)?;
                    } else {
                        faultfs::truncate(&wal_path, replay.valid_len as u64)?;
                    }
                }
                for (seq, batch) in &replay.records {
                    // At or below the watermark: already in a committed blob.
                    // A crash between a manifest commit and the log's deletion
                    // leaves such records behind; skipping them is what makes
                    // the commit idempotent.
                    if seq <= watermark {
                        continue;
                    }
                    // The batch's own seq, so a seal it triggers records the
                    // watermark the live table's checkpoint did.
                    cell.wal_seq.store(*seq, Ordering::Relaxed);
                    session.ingest(name, batch)?;
                }
                Ok(())
            })();
            if let Err(e) = replayed {
                // A log that cannot be trusted poisons the whole table:
                // serving the snapshot alone could silently drop
                // acknowledged rows.
                session.tables.write().unwrap_or_else(PoisonError::into_inner).remove(name);
                session
                    .quarantined
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(name.clone(), format!("WAL replay failed: {e}"));
            }
        }
        *session.wal_dir.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir.to_path_buf());
        for (name, cell) in session.cells() {
            let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
            if w.durable.sealed_seq > cell.durability.committed_seq.load(Ordering::Relaxed) {
                let _ = session.checkpoint(&name, &cell, &mut w);
            }
        }
        Ok(session)
    }
}

/// Writes `bytes` to `dir/name` atomically: a `.tmp` sibling is written and
/// fsynced, renamed over the final name, and the directory fsynced so the
/// rename itself is durable. A crash at any point leaves either the old file,
/// the new file, or a `.tmp` orphan (swept by the table's next commit) — never
/// a partially written file under the final name.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), PhError> {
    let tmp = dir.join(format!("{name}.tmp"));
    faultfs::write(&tmp, bytes)?;
    faultfs::fsync_file(&tmp)?;
    faultfs::rename(&tmp, &dir.join(name))?;
    faultfs::fsync_dir(dir)?;
    Ok(())
}

/// File name of blob number `no` of the table with file-name base `base`.
fn blob_file_name(base: &str, no: u64) -> String {
    format!("{base}.seg{no}.phseg")
}

/// `(base, blob number)` of a segment blob's file name.
fn blob_of(logical: &str) -> Option<(&str, u64)> {
    let (base, no) = logical.strip_suffix(".phseg")?.rsplit_once(".seg")?;
    if no.is_empty() || !no.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, no.parse().ok()?))
}

/// The table file base a catalog file name belongs to, or `None` for names this
/// layer never produces. Recognized shapes: `<base>.pwhs`, `<base>.phwal`,
/// `<base>.seg<number>.phseg`. [`file_base_for`] output never contains a dot,
/// so any parse that leaves one marks a foreign file the sweep must leave
/// alone.
fn owned_base_of(logical: &str) -> Option<&str> {
    let base = match logical.strip_suffix(".pwhs").or_else(|| logical.strip_suffix(".phwal")) {
        Some(base) => base,
        None => blob_of(logical)?.0,
    };
    (!base.is_empty() && !base.contains('.')).then_some(base)
}

/// Longest sanitized-name prefix a file-name base carries. File names are
/// bounded (255 bytes on most filesystems) while table names are not; the
/// appended hash already disambiguates and the authoritative name lives in
/// the manifest, so the prefix is only for the operator's eye.
const FILE_BASE_PREFIX: usize = 64;

/// Filesystem-safe file-name base for a table: hostile characters are replaced,
/// the result capped at [`FILE_BASE_PREFIX`] bytes, and a name hash appended so
/// distinct tables never collide. The authoritative name lives inside the
/// manifest.
pub(crate) fn file_base_for(table: &str) -> String {
    let safe: String = table
        .chars()
        .take(FILE_BASE_PREFIX)
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("{safe}-{:08x}", ph_types::fnv1a(table.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::{dataset, session_with};
    use std::collections::BTreeSet;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ph_persist_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_and_open_dir_round_trip_answers() {
        let s = session_with("alpha", 12_000, 14);
        s.register(dataset("beta", 9_000, 15)).unwrap();
        let dir = scratch("roundtrip");
        assert_eq!(s.save_dir(&dir).unwrap(), 2);

        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.tables(), vec!["alpha", "beta"]);
        for sql in [
            "SELECT COUNT(y) FROM alpha WHERE x > 500",
            "SELECT AVG(x) FROM alpha WHERE y < 800",
            "SELECT MEDIAN(y) FROM beta WHERE c = 'b'",
            "SELECT COUNT(x) FROM beta WHERE x > 100 GROUP BY c",
        ] {
            assert_eq!(s.sql(sql).unwrap(), reopened.sql(sql).unwrap(), "{sql}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a table name longer than a file name may be used to fail
    /// `save_dir` for the whole catalog ("File name too long") with nothing
    /// written. The file-name base now carries a capped prefix of the name.
    #[test]
    fn long_table_names_save_and_reopen() {
        let long = "n".repeat(300);
        let s = session_with(&long, 2_000, 97);
        s.register(dataset("short", 2_000, 98)).unwrap();
        let dir = scratch("longname");
        assert_eq!(s.save_dir(&dir).unwrap(), 2);
        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.tables(), s.tables());
        for table in [long.as_str(), "short"] {
            let sql = format!("SELECT AVG(y) FROM {table} WHERE x > 300 GROUP BY c");
            assert_eq!(s.sql(&sql).unwrap(), reopened.sql(&sql).unwrap(), "{table}");
        }
        // Names up to the cap keep the file names they always had.
        assert_eq!(file_base_for("short"), format!("short-{:08x}", ph_types::fnv1a(b"short")));
        // Beyond what the manifest's u16 length field can frame, registration
        // refuses instead of truncating on save.
        let huge = dataset(&"h".repeat(u16::MAX as usize + 1), 10, 99);
        assert!(matches!(s.register(huge), Err(PhError::Schema(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two catalogs sharing one save directory: each save sweeps only its own
    /// stale files and never deletes the other catalog's tables.
    #[test]
    fn save_dir_leaves_foreign_catalog_files_alone() {
        let a = session_with("mine", 1_500, 95);
        let b = session_with("theirs", 1_500, 96);
        let dir = scratch("shared");
        a.save_dir(&dir).unwrap();
        b.save_dir(&dir).unwrap();
        // Session `a` drops its table and re-saves: only `mine`'s files go.
        a.drop_table("mine").unwrap();
        a.save_dir(&dir).unwrap();
        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.tables(), vec!["theirs"], "foreign table must survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dir_sweeps_dropped_tables() {
        let s = session_with("keep", 2_000, 80);
        s.register(dataset("gone", 2_000, 81)).unwrap();
        let dir = scratch("sweep");
        assert_eq!(s.save_dir(&dir).unwrap(), 2);
        let files = |d: &std::path::Path| -> usize { std::fs::read_dir(d).unwrap().count() };
        assert_eq!(files(&dir), 4, "2 manifests + 2 segment blobs");
        s.drop_table("gone").unwrap();
        assert_eq!(s.save_dir(&dir).unwrap(), 1);
        assert_eq!(
            files(&dir),
            2,
            "dropped table's blobs swept, the re-save's superseded ones too"
        );
        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.tables(), vec!["keep"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment blob round-trips its synopsis and its cascade store, and the
    /// CRC trailer catches a flipped bit. An intact blob around any other
    /// row-store kind — kind 1, a GreedyGD store, included — quarantines its
    /// table under a reason naming the kind, while the table beside it serves.
    #[test]
    fn segment_blob_roundtrips_and_other_store_kinds_quarantine_by_name() {
        let data = dataset("t", 4_000, 7);
        let ph = PairwiseHist::build(&data, &PairwiseHistConfig::default());
        let pre = ph.preprocessor().clone();
        let matrix = pre.encode(&data);
        let store = ColumnarStore::encode(&matrix);
        let bytes = segment_to_bytes(&ph, &store);
        assert_eq!(&bytes[..4], SEGMENT_MAGIC);
        let (engine, back) = segment_from_bytes(&bytes, pre.clone()).expect("clean blob decodes");
        assert_eq!(engine.params, ph.params);
        assert_eq!(store.to_bytes(), back.to_bytes());
        // Any flipped payload bit must fail the CRC, not decode garbage.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(segment_from_bytes(&bad, pre.clone()).is_err());

        let gd_blob = frame(SEGMENT_MAGIC, SEGMENT_VERSION, |out| {
            let syn = ph.to_bytes();
            let gd = ph_gd::GdCompressor::new().compress(&matrix).to_bytes();
            out.extend_from_slice(&(syn.len() as u64).to_le_bytes());
            out.extend_from_slice(&syn);
            out.push(1);
            out.extend_from_slice(&(gd.len() as u64).to_le_bytes());
            out.extend_from_slice(&gd);
        });
        let s = Session::new();
        s.register(data).unwrap();
        s.register(dataset("u", 2_000, 8)).unwrap();
        let dir = scratch("store_kind");
        s.save_dir(&dir).unwrap();
        let base = file_base_for("t");
        let blob = faultfs::read_dir_paths(&dir)
            .unwrap()
            .into_iter()
            .find(|p| p.to_str().is_some_and(|n| n.contains(&base) && n.ends_with(".phseg")))
            .expect("the table's one segment blob");
        std::fs::write(&blob, gd_blob).unwrap();
        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.tables(), vec!["u"]);
        let quarantined = reopened.quarantined();
        let reason = &quarantined.iter().find(|(n, _)| n == "t").expect("t quarantined").1;
        assert!(
            reason.contains("unsupported format") && reason.contains("row-store kind 1"),
            "{reason}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The manifest round-trips every field of a non-default configuration and
    /// policy, and refuses one no build could run under behind a valid CRC.
    #[test]
    fn manifest_roundtrips_config_and_policy() {
        let pre = Preprocessor::fit(&dataset("t", 300, 3));
        let cfg = PairwiseHistConfig {
            ns: 1_234,
            m_absolute: Some(17),
            alpha: 0.01,
            split_rule: SplitRule::EqualDepth,
            seed: 99,
        };
        let policy = SealPolicy { rows: 777, max_staleness: f64::INFINITY };
        let bytes = table_manifest_to_bytes("t", &pre, &cfg, policy, 41, &[3, 9]);
        let m = table_manifest_from_bytes(&bytes).expect("decodes");
        assert_eq!((m.name.as_str(), m.wal_seq, m.blobs.as_slice()), ("t", 41, &[3u64, 9][..]));
        assert_eq!(m.policy, policy);
        assert_eq!(format!("{:?}", m.cfg), format!("{cfg:?}"));
        let zero_m = PairwiseHistConfig { m_absolute: Some(0), ..cfg };
        let bytes = table_manifest_to_bytes("t", &pre, &zero_m, policy, 41, &[3]);
        assert!(table_manifest_from_bytes(&bytes).is_none(), "M = 0 cannot build");
    }

    /// An export keeps the table's own seed and split rule; only `Ns` and `M`
    /// are clamped to what the first segment was built with.
    #[test]
    fn export_manifest_keeps_the_tables_seed_and_split_rule() {
        let cfg = PairwiseHistConfig {
            seed: 99,
            split_rule: SplitRule::EqualDepth,
            ..Default::default()
        };
        let s = Session::with_config(cfg);
        s.register(dataset("t", 2_000, 4)).unwrap();
        let dir = scratch("export_cfg");
        s.save_dir(&dir).unwrap();
        let bytes = std::fs::read(dir.join(format!("{}.pwhs", file_base_for("t")))).unwrap();
        let m = table_manifest_from_bytes(&bytes).expect("decodes");
        assert_eq!((m.cfg.seed, m.cfg.split_rule), (99, SplitRule::EqualDepth));
        assert_eq!((m.cfg.ns, m.cfg.m_absolute), (2_000, Some(20)), "Ns and M clamped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rows ingested before the session had a WAL home are journaled as one
    /// batch when `enable_wal` adopts the table, and the live delta is rebuilt
    /// the way replaying that batch rebuilds it: the crashed twin answers bit
    /// for bit, before and after the same further batch.
    #[test]
    fn enable_wal_adopts_an_unjournaled_delta() {
        let dir = scratch("adopt");
        let live = session_with("t", 12_000, 5);
        for k in 0..2 {
            assert!(!live.ingest("t", &dataset("t", 1_000, 50 + k)).unwrap().rebuilt);
        }
        live.enable_wal(&dir).unwrap();
        let log = wal::wal_path(&dir, &file_base_for("t"));
        assert_eq!(wal::read_wal(&log).unwrap().records.len(), 1, "the delta, as one batch");
        assert_eq!(live.table_stats("t").unwrap().wal_records, 1);
        let twin = Session::open_dir(&dir).unwrap();
        let more = dataset("t", 700, 60);
        for round in 0..2 {
            for sql in ["SELECT AVG(y) FROM t WHERE x > 200", "SELECT COUNT(x) FROM t GROUP BY c"] {
                assert_eq!(live.sql(sql).unwrap(), twin.sql(sql).unwrap(), "round {round}: {sql}");
            }
            assert_eq!(live.ingest("t", &more).unwrap(), twin.ingest("t", &more).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The deterministic bound behind `recover_s`: with a WAL home, after each
    /// of k = 1…6 seals the log holds only the delta's batches — none right
    /// after the seal, one after the next plain batch — and the seal's
    /// checkpoint wrote exactly one new `.phseg` and rewrote none.
    #[test]
    fn each_seal_checkpoints_one_blob_and_leaves_the_log_to_the_delta() {
        let dir = scratch("bound");
        let s = Session::new();
        s.set_max_staleness(f64::INFINITY);
        s.set_seal_threshold(1_000);
        s.enable_wal(&dir).unwrap();
        s.register(dataset("t", 1_000, 1)).unwrap();
        let blobs = || -> BTreeSet<String> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.ends_with(".phseg"))
                .collect()
        };
        let log = wal::wal_path(&dir, &file_base_for("t"));
        let logged = || wal::read_wal(&log).unwrap().records.len();
        for k in 1..=6u64 {
            assert!(!s.ingest("t", &dataset("t", 500, 10 * k)).unwrap().rebuilt);
            assert_eq!(logged(), 1, "seal {k}: the log holds the delta's one batch");
            let before = blobs();
            let report = s.ingest("t", &dataset("t", 500, 10 * k + 1)).unwrap();
            assert_eq!(report.sealed_segments, 1, "seal {k}: {report:?}");
            let after = blobs();
            assert!(before.is_subset(&after), "seal {k}: a committed blob went away");
            assert_eq!(after.len() - before.len(), 1, "seal {k}: {before:?} → {after:?}");
            assert_eq!(after.len() as u64, k + 1, "one blob per sealed segment");
            assert_eq!(logged(), 0, "seal {k}: the sealed batches left the log");
            let stats = s.table_stats("t").unwrap();
            assert_eq!(
                (stats.checkpoints, stats.checkpoint_failures, stats.wal_records),
                (k + 1, 0, 0)
            );
        }
        let live = s.sql("SELECT AVG(y) FROM t WHERE x > 200").unwrap();
        drop(s);
        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.sql("SELECT AVG(y) FROM t WHERE x > 200").unwrap(), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

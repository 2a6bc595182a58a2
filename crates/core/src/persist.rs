//! The on-disk catalog: what [`Session::save_dir`] writes and
//! [`Session::open_dir`] reads back — blob framing, file naming, the atomic
//! commit protocol and the post-commit sweep. The ingest log beside it is
//! `crate::wal`; the synopsis bytes inside a segment blob are `crate::storage`
//! (Fig 6).
//!
//! A `Session` table persists as one **manifest** plus one blob **per segment**
//! (the delta, if any, is serialized as a final sealed segment). The manifest
//! carries what every segment shares — the table name and the fitted
//! preprocessor — so segment blobs stay self-contained pairs of synopsis +
//! compressed rows. Both are one frame, `magic | u8 version | body | u32 crc32
//! of all prior bytes`, around these bodies:
//!
//! ```text
//! manifest "PWT2" (<base>.pwhs):   u16 name_len | name | u32 pre_len | preprocessor
//!                                  | u32 n_segments | u64 gen | u64 wal_seq
//! segment  "PSG3" (<base>.g<gen>.seg<i>.phseg):
//!                                  u64 syn_len | synopsis | u8 store_kind
//!                                  | u64 store_len | store bytes
//! ```
//!
//! `store_kind` names the row-store representation: 1 = GreedyGD
//! ([`ph_gd::GdStore`]), 2 = per-column codec cascade ([`ph_gd::ColumnarStore`]).
//! `gen` is the snapshot generation (segment files are generation-numbered so a
//! crashed save can never tear the files the committed manifest still
//! references), `wal_seq` is the ingest-WAL watermark (replay skips WAL records
//! with seq ≤ it), and the CRC32 trailer lets `open_dir` tell a clean blob from
//! bit-rot and quarantine the table instead of loading garbage.
//!
//! There is exactly one reader per blob kind: anything else — another magic,
//! another version, another store kind — is rejected, never guessed at.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use ph_gd::Preprocessor;
use ph_types::{faultfs, PhError};

use crate::build::{next_plan_epoch, PairwiseHist, PairwiseHistConfig};
use crate::segment::{compress_rows, Segment, TableState};
use crate::session::{Session, TableCell};
use crate::wal;

/// Magic of the table manifest.
const TABLE_MAGIC: &[u8; 4] = b"PWT2";
/// Magic of a segment blob.
const SEGMENT_MAGIC: &[u8; 4] = b"PSG3";
/// The one frame version this build writes and reads.
const FRAME_VERSION: u8 = 3;

/// Wraps a body in the catalog frame: `magic | version | body | crc32`.
fn frame(magic: &[u8; 4], write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.push(FRAME_VERSION);
    write_body(&mut out);
    let crc = ph_encoding::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The body of a frame written by [`frame`], or `None` when the header is not
/// `magic` at the current version or the checksum fails — in which case none
/// of the other bytes can be trusted, not even their length fields.
fn unframe<'a>(magic: &[u8; 4], data: &'a [u8]) -> Option<&'a [u8]> {
    let (framed, trailer) = data.split_at_checked(data.len().checked_sub(4)?)?;
    let body = framed.strip_prefix(magic)?.strip_prefix(&[FRAME_VERSION])?;
    (ph_encoding::crc32(framed) == u32::from_le_bytes(trailer.try_into().ok()?)).then_some(body)
}

/// Why a blob that [`unframe`]s or decodes to `None` was turned away, for the
/// quarantine reason: a container this build does not read — a retired or
/// foreign magic/version, or an intact frame around a body it has no reader
/// for — is named as such; everything else is damage.
fn reject_reason(magic: &[u8; 4], data: &[u8]) -> String {
    let shown = |m: &[u8]| String::from_utf8_lossy(m).into_owned();
    match (data.get(..4), data.get(4)) {
        (Some(m), Some(&v)) if m != magic || v != FRAME_VERSION => format!(
            "unsupported format '{}' v{v} (this build reads '{}' v{FRAME_VERSION})",
            shown(m),
            shown(magic)
        ),
        _ if unframe(magic, data).is_some() => format!(
            "unsupported format: intact '{}' v{FRAME_VERSION} frame around a body this \
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
    n_segments: usize,
    /// Snapshot generation the segment files of this manifest belong to.
    gen: u64,
    /// Ingest-WAL watermark: every WAL record with `seq <= wal_seq` is already
    /// folded into the segments this manifest references.
    wal_seq: u64,
}

/// Serializes a table manifest (shared metadata of all its segment blobs).
fn table_manifest_to_bytes(
    table: &str,
    pre: &Preprocessor,
    n_segments: usize,
    gen: u64,
    wal_seq: u64,
) -> Vec<u8> {
    frame(TABLE_MAGIC, |out| {
        let name = table.as_bytes();
        debug_assert!(name.len() <= u16::MAX as usize, "register_with rejects longer names");
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        let pre_bytes = pre.to_bytes();
        out.extend_from_slice(&(pre_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&pre_bytes);
        out.extend_from_slice(&(n_segments as u32).to_le_bytes());
        out.extend_from_slice(&gen.to_le_bytes());
        out.extend_from_slice(&wal_seq.to_le_bytes());
    })
}

/// Restores a [`TableManifest`]. Returns `None` on malformed or corrupted
/// input.
fn table_manifest_from_bytes(data: &[u8]) -> Option<TableManifest> {
    let body = unframe(TABLE_MAGIC, data)?;
    let mut pos = 0usize;
    let name_len = u16::from_le_bytes(body.get(pos..pos + 2)?.try_into().ok()?) as usize;
    pos += 2;
    let name =
        std::str::from_utf8(body.get(pos..pos.checked_add(name_len)?)?).ok()?.to_string();
    pos += name_len;
    let pre_len = u32::from_le_bytes(body.get(pos..pos + 4)?.try_into().ok()?) as usize;
    pos += 4;
    let pre = Preprocessor::from_bytes(body.get(pos..pos.checked_add(pre_len)?)?)?;
    pos += pre_len;
    let n_segments = u32::from_le_bytes(body.get(pos..pos + 4)?.try_into().ok()?) as usize;
    pos += 4;
    let gen = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?);
    pos += 8;
    let wal_seq = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?);
    pos += 8;
    if pos != body.len() || n_segments > 1 << 20 {
        return None;
    }
    Some(TableManifest { name, pre, n_segments, gen, wal_seq })
}

/// Serializes one segment: its synopsis and its compressed rows under a tagged
/// row-store representation.
fn segment_to_bytes(engine: &PairwiseHist, store: &ph_gd::RowStore) -> Vec<u8> {
    frame(SEGMENT_MAGIC, |out| {
        let syn = engine.to_bytes();
        out.extend_from_slice(&(syn.len() as u64).to_le_bytes());
        out.extend_from_slice(&syn);
        let (kind, store_bytes): (u8, Vec<u8>) = match store {
            ph_gd::RowStore::Gd(s) => (1, s.to_bytes()),
            ph_gd::RowStore::Columnar(s) => (2, s.to_bytes()),
        };
        out.push(kind);
        out.extend_from_slice(&(store_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&store_bytes);
    })
}

/// Restores a segment blob against the table's shared preprocessor. Returns
/// `None` on malformed or corrupted input.
fn segment_from_bytes(
    data: &[u8],
    pre: Arc<Preprocessor>,
) -> Option<(PairwiseHist, ph_gd::RowStore)> {
    let body = unframe(SEGMENT_MAGIC, data)?;
    let mut pos = 0usize;
    let syn_len = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?) as usize;
    pos += 8;
    let end = pos.checked_add(syn_len)?;
    let engine = PairwiseHist::from_bytes(body.get(pos..end)?, pre)?;
    pos = end;
    let kind = *body.get(pos)?;
    pos += 1;
    let store_len = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?) as usize;
    pos += 8;
    let end = pos.checked_add(store_len)?;
    let store_slice = body.get(pos..end)?;
    if end != body.len() {
        return None; // trailing bytes: not a clean blob
    }
    let store = match kind {
        1 => ph_gd::RowStore::Gd(ph_gd::GdStore::from_bytes(store_slice)?),
        2 => ph_gd::RowStore::Columnar(ph_gd::ColumnarStore::from_bytes(store_slice)?),
        _ => return None,
    };
    Some((engine, store))
}

impl Session {
    /// Persists every table to `dir` (created if missing) in the versioned
    /// multi-file layout: one manifest (`.pwhs`) plus one blob per segment
    /// (`.phseg`), the un-sealed delta serialized as a final segment. Compressed
    /// rows ship with each segment, so a reopened catalog remains fully
    /// ingestable. Returns the number of tables written.
    ///
    /// The save is **crash-safe**. Every file is written to a `.tmp` sibling,
    /// fsynced, renamed into place, and the directory fsynced; segment blobs
    /// land before their manifest, and segment files are generation-numbered
    /// (`<base>.g<gen>.seg<i>.phseg`) so an interrupted save can never tear the
    /// files the previously committed manifest still references. The manifest
    /// rename is each table's single commit point; it records the table's WAL
    /// watermark, and a save into the WAL home directory (see
    /// [`Session::enable_wal`]) then truncates that table's log. A crash
    /// anywhere leaves the directory opening to either the old or the new
    /// snapshot, never a torn mix.
    ///
    /// Only after every table has committed are stale files swept: blobs of
    /// [`Session::drop_table`]ed names, segment files of superseded
    /// generations, and orphaned `*.tmp` files from interrupted saves (never
    /// counted as catalog members). The sweep is scoped to file-name bases
    /// this catalog's current or dropped tables own — a shared directory's
    /// foreign files are left alone.
    ///
    /// Concurrent writers may swap tables while the directory is written; each
    /// table's files are internally consistent (serialized under the table's
    /// writer lock), and the set of tables is the registration set at the start
    /// of the call.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<usize, PhError> {
        let dir = dir.as_ref();
        faultfs::create_dir_all(dir)?;
        let cells: Vec<(String, Arc<TableCell>)> = self
            .tables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, c)| (n.clone(), c.clone()))
            .collect();
        let truncate_wal =
            self.wal_dir.lock().unwrap_or_else(PoisonError::into_inner).as_deref() == Some(dir);
        // One listing up front decides each table's next generation number:
        // one past the highest generation any existing file of its base claims.
        let mut existing: Vec<PathBuf> = faultfs::read_dir_paths(dir)?;
        existing.sort();
        let gen_of = |base: &str| -> u64 {
            let prefix = format!("{base}.g");
            existing
                .iter()
                .filter_map(|p| p.file_name()?.to_str()?.strip_prefix(&prefix))
                .filter_map(|rest| rest.split('.').next()?.parse::<u64>().ok())
                .max()
                .unwrap_or(0)
        };
        let mut expected: HashSet<String> = HashSet::new();
        for (name, cell) in &cells {
            // The writer lock pins the delta-rows ↔ state invariant so the
            // serialized delta segment matches the published delta synopsis —
            // and freezes `wal_seq`, so the watermark written below covers
            // exactly the batches folded into these blobs.
            let delta_rows = cell.delta_rows.lock().unwrap_or_else(PoisonError::into_inner);
            let state = cell.snapshot();
            let mut blobs: Vec<Vec<u8>> = state
                .segments
                .iter()
                .map(|s| segment_to_bytes(&s.engine, &s.store))
                .collect();
            if let (Some(rows), Some(delta)) = (delta_rows.as_ref(), state.delta.as_ref()) {
                let matrix = state.pre.encode(rows);
                blobs.push(segment_to_bytes(delta, &compress_rows(&matrix)));
            }
            let base = file_base_for(name);
            let gen = gen_of(&base) + 1;
            // Segments first: the manifest must never name a blob that is not
            // already durable.
            for (i, blob) in blobs.iter().enumerate() {
                let seg_name = segment_file_name(&base, gen, i);
                // ph-lint: allow(lock-across-io) — the writer lock freezes delta ↔ wal_seq
                // so the manifest's watermark covers exactly the blobs written here;
                // releasing it would let an ingest slip between blob and watermark
                write_atomic(dir, &seg_name, blob)?;
                expected.insert(seg_name);
            }
            let wal_seq = cell.wal_seq.load(Ordering::Relaxed);
            let manifest =
                table_manifest_to_bytes(name, &state.pre, blobs.len(), gen, wal_seq);
            let manifest_name = format!("{base}.pwhs");
            // Commit point for this table.
            // ph-lint: allow(lock-across-io) — same invariant as the segment writes above
            write_atomic(dir, &manifest_name, &manifest)?;
            expected.insert(manifest_name);
            if truncate_wal {
                // Everything the log holds up to `wal_seq` is now in the
                // committed snapshot. A crash right here replays nothing: the
                // watermark skips every surviving record.
                // ph-lint: allow(lock-across-io) — WAL truncation must precede any new
                // journaled batch, which the held writer lock excludes
                wal::remove_wal(&wal::wal_path(dir, &base))?;
            }
        }
        // Post-commit sweep — reached only with every manifest committed, so a
        // failed save never deletes the files a reopen would still need.
        let dropped_bases: HashSet<String> = self
            .dropped
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|n| file_base_for(n))
            .collect();
        let mut owned_bases: HashSet<String> =
            cells.iter().map(|(name, _)| file_base_for(name)).collect();
        owned_bases.extend(dropped_bases.iter().cloned());
        for path in faultfs::read_dir_paths(dir)? {
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // A `.tmp` sibling is an interrupted save's orphan: whatever its
            // underlying name, it was never a catalog member.
            let logical = file_name.strip_suffix(".tmp").unwrap_or(file_name);
            let is_tmp = logical.len() != file_name.len();
            let Some(base) = owned_base_of(logical) else { continue };
            if !owned_bases.contains(base) {
                continue;
            }
            let remove = if is_tmp {
                true
            } else if logical.ends_with(".phwal") {
                // Live tables keep their (just-truncated) logs; a dropped
                // table's log goes with its blobs.
                dropped_bases.contains(base)
            } else {
                !expected.contains(logical)
            };
            if remove {
                faultfs::remove_file(&path)?;
            }
        }
        Ok(cells.len())
    }

    /// Reopens a catalog persisted with [`Session::save_dir`]: every manifest in
    /// `dir` becomes a registered table with its full segment list, serving
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
    /// After the snapshot loads, each table's write-ahead log tail is replayed
    /// through the normal ingest path: records at or below the manifest's
    /// watermark (already folded into the snapshot) are skipped, a torn final
    /// record — the signature of a crash mid-append — is discarded as never
    /// acknowledged, and mid-log damage quarantines the table. The opened
    /// directory becomes the session's WAL home (see [`Session::enable_wal`]),
    /// so the reopened catalog is durable by default.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Session, PhError> {
        let dir = dir.as_ref();
        let session = Session::new();
        let mut paths = faultfs::read_dir_paths(dir)?;
        // Deterministic load order: fault injection counts filesystem ops, and
        // quarantine-on-duplicate must pick the same file every run.
        paths.sort();
        // Tables that loaded, with their manifest's WAL watermark.
        let mut loaded: Vec<(String, u64)> = Vec::new();
        {
            let mut map = session.tables.write().unwrap_or_else(PoisonError::into_inner);
            let mut quarantined = session.quarantined.lock().unwrap_or_else(PoisonError::into_inner);
            for path in &paths {
                if path.extension().and_then(|e| e.to_str()) != Some("pwhs") {
                    continue;
                }
                // Until the manifest's checksum clears, the name bytes inside
                // it cannot be trusted — early failures quarantine under the
                // file's base name instead.
                let file_base = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("<non-utf8>")
                    .to_string();
                let fail = |k: &str, e: PhError| (k.to_string(), e);
                let corrupt =
                    |detail: String| PhError::Corrupt(format!("{}: {detail}", path.display()));
                let load = || -> Result<(String, TableState, u64), (String, PhError)> {
                    // open_dir runs before the session is shared: both maps are
                    // locked for the whole single-threaded load.
                    let bytes =
                        // ph-lint: allow(lock-across-io) — single-threaded startup load, no contention
                        faultfs::read(path).map_err(|e| fail(&file_base, e.into()))?;
                    let m = table_manifest_from_bytes(&bytes).ok_or_else(|| {
                        let why = reject_reason(TABLE_MAGIC, &bytes);
                        fail(&file_base, corrupt(format!("manifest: {why}")))
                    })?;
                    let name = m.name;
                    let pre = Arc::new(m.pre);
                    let base = file_base_for(&name);
                    let epoch = next_plan_epoch();
                    let mut segments = Vec::with_capacity(m.n_segments);
                    for i in 0..m.n_segments {
                        let seg_path = dir.join(segment_file_name(&base, m.gen, i));
                        let seg_bytes =
                            // ph-lint: allow(lock-across-io) — single-threaded startup load, no contention
                            faultfs::read(&seg_path).map_err(|e| fail(&name, e.into()))?;
                        let (mut engine, store) = segment_from_bytes(&seg_bytes, pre.clone())
                            .ok_or_else(|| {
                                let why = reject_reason(SEGMENT_MAGIC, &seg_bytes);
                                fail(&name, corrupt(format!("segment {i}: {why}")))
                            })?;
                        engine.plan_epoch = epoch;
                        segments.push(Arc::new(Segment::new(engine, store)));
                    }
                    let Some(first) = segments.first() else {
                        return Err(fail(&name, corrupt("manifest lists no segments".into())));
                    };
                    let cfg = config_from_engine(&first.engine);
                    let state = TableState::new(epoch, pre, segments, cfg);
                    Ok((name, state, m.wal_seq))
                };
                match load() {
                    Ok((name, state, watermark)) => {
                        if map.contains_key(&name) {
                            quarantined.insert(
                                file_base,
                                format!("table '{name}' appears in more than one file"),
                            );
                            continue;
                        }
                        map.insert(name.clone(), Arc::new(TableCell::new(state)));
                        loaded.push((name, watermark));
                    }
                    Err((key, e)) => {
                        quarantined.insert(key, e.to_string());
                    }
                }
            }
        }
        // Replay each surviving table's WAL tail. `wal_dir` is still `None`
        // here, so the replayed ingests do not re-journal themselves.
        for (name, watermark) in loaded {
            let wal_path = wal::wal_path(dir, &file_base_for(&name));
            let replayed = (|| -> Result<u64, PhError> {
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
                let mut max_seq = watermark;
                for (seq, batch) in &replay.records {
                    // At or below the watermark: already in the snapshot. A
                    // crash between manifest commit and WAL truncation leaves
                    // such records behind; skipping them is what makes the
                    // commit protocol idempotent.
                    if *seq <= watermark {
                        continue;
                    }
                    session.ingest(&name, batch)?;
                    max_seq = max_seq.max(*seq);
                }
                Ok(max_seq)
            })();
            match replayed {
                Ok(max_seq) => {
                    if let Some(cell) = session.tables.read().unwrap_or_else(PoisonError::into_inner).get(&name) {
                        cell.wal_seq.store(max_seq, Ordering::Relaxed);
                    }
                }
                Err(e) => {
                    // A log that cannot be trusted poisons the whole table:
                    // serving the snapshot alone could silently drop
                    // acknowledged rows.
                    session.tables.write().unwrap_or_else(PoisonError::into_inner).remove(&name);
                    session
                        .quarantined
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(name, format!("WAL replay failed: {e}"));
                }
            }
        }
        *session.wal_dir.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir.to_path_buf());
        Ok(session)
    }
}

/// Writes `bytes` to `dir/name` atomically: a `.tmp` sibling is written and
/// fsynced, renamed over the final name, and the directory fsynced so the
/// rename itself is durable. A crash at any point leaves either the old file,
/// the new file, or a `.tmp` orphan (swept after the next fully committed
/// save) — never a partially written file under the final name.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), PhError> {
    let tmp = dir.join(format!("{name}.tmp"));
    faultfs::write(&tmp, bytes)?;
    faultfs::fsync_file(&tmp)?;
    faultfs::rename(&tmp, &dir.join(name))?;
    faultfs::fsync_dir(dir)?;
    Ok(())
}

/// File name of segment `i` at generation `gen` for a table with file-name base
/// `base`. The generation is part of the name so a new save never overwrites
/// blobs the previously committed manifest still references.
fn segment_file_name(base: &str, gen: u64, i: usize) -> String {
    format!("{base}.g{gen}.seg{i}.phseg")
}

/// The table file base a catalog file name belongs to, or `None` for names this
/// layer never produces. Recognized shapes: `<base>.pwhs`, `<base>.phwal`,
/// `<base>.g<gen>.seg<i>.phseg`. [`file_base_for`] output never contains a
/// dot, so any parse that leaves one marks a foreign file the sweep must leave
/// alone.
fn owned_base_of(logical: &str) -> Option<&str> {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let base = match logical.strip_suffix(".pwhs").or_else(|| logical.strip_suffix(".phwal")) {
        Some(base) => base,
        None => {
            let (head, idx) = logical.strip_suffix(".phseg")?.rsplit_once(".seg")?;
            let (base, gen) = head.rsplit_once(".g")?;
            if !digits(idx) || !digits(gen) {
                return None;
            }
            base
        }
    };
    (!base.is_empty() && !base.contains('.')).then_some(base)
}

/// Reconstructs a build configuration from a deserialized engine's parameters.
fn config_from_engine(engine: &PairwiseHist) -> PairwiseHistConfig {
    PairwiseHistConfig {
        ns: engine.params().ns,
        alpha: engine.params().alpha,
        m_absolute: Some(engine.params().m_min),
        ..PairwiseHistConfig::default()
    }
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

    #[test]
    fn save_and_open_dir_round_trip_answers() {
        let s = session_with("alpha", 12_000, 14);
        s.register(dataset("beta", 9_000, 15)).unwrap();
        let dir = std::env::temp_dir().join(format!("ph_session_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("ph_sess_longname_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("ph_shared_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("ph_sess_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(s.save_dir(&dir).unwrap(), 2);
        let files = |d: &std::path::Path| -> usize { std::fs::read_dir(d).unwrap().count() };
        assert_eq!(files(&dir), 4, "2 manifests + 2 segment blobs");
        s.drop_table("gone").unwrap();
        assert_eq!(s.save_dir(&dir).unwrap(), 1);
        assert_eq!(files(&dir), 2, "dropped table's blobs swept on save");
        let reopened = Session::open_dir(&dir).unwrap();
        assert_eq!(reopened.tables(), vec!["keep"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every row-store representation survives the segment-blob round trip
    /// with its kind tag intact, and the CRC trailer catches a flipped bit.
    #[test]
    fn segment_blob_roundtrips_every_store_kind() {
        let data = dataset("t", 4_000, 7);
        let ph = PairwiseHist::build(
            &data,
            &PairwiseHistConfig { ns: 4_000, parallel: false, ..Default::default() },
        );
        let pre = ph.preprocessor().clone();
        let matrix = pre.encode(&data);
        let gd = ph_gd::GdCompressor::new().compress(&matrix);
        let columnar = ph_gd::ColumnarStore::encode(&matrix);
        for store in [ph_gd::RowStore::Gd(gd), ph_gd::RowStore::Columnar(columnar)] {
            let bytes = segment_to_bytes(&ph, &store);
            assert_eq!(&bytes[..4], SEGMENT_MAGIC);
            let (engine, back) =
                segment_from_bytes(&bytes, pre.clone()).expect("clean blob decodes");
            assert_eq!(engine.params, ph.params);
            assert_eq!(
                std::mem::discriminant(&store),
                std::mem::discriminant(&back),
                "store kind survives"
            );
            assert_eq!(store.decompress().columns, back.decompress().columns);
            // Any flipped payload bit must fail the CRC, not decode garbage.
            let mut bad = bytes.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            assert!(segment_from_bytes(&bad, pre.clone()).is_none());
        }
    }
}

//! Per-table ingest write-ahead log (`PHWL1`).
//!
//! Each accepted ingest batch is appended — and fsynced — to the table's WAL
//! *before* the in-memory epoch swap, so a `kill -9` after `ingest` returns
//! loses nothing: `Session::open_dir` replays the records past the committed
//! checkpoint's watermark. The log holds the table's un-sealed delta and
//! nothing else: a checkpoint that leaves the delta empty (a seal, a refit)
//! deletes it, and the next append starts it over (see `crate::persist`).
//!
//! ## Format
//!
//! ```text
//! file:    "PHWL1" | record*
//! record:  uvarint payload_len | u32le crc32(payload) | payload
//! payload: uvarint seq | batch
//! batch:   uvarint name_len | name | uvarint n_rows | uvarint n_cols | column*
//! column:  uvarint name_len | name | u8 type_tag [| u8 scale]
//!          | validity (⌈n_rows/8⌉ bytes, LSB-first)
//!          | Int/Timestamp: zigzag-delta uvarints
//!          | Float:         raw little-endian f64 bits
//!          | Categorical:   uvarint dict_len | (uvarint len | bytes)* |
//!                           uvarint codes
//! ```
//!
//! A categorical column is written with the dictionary it has. `Session::ingest`
//! journals a batch after cutting its dictionaries down to the entries its rows
//! reference, so a record's size follows its rows, not the table the batch was
//! sliced from; a log written before that (whole dictionaries) reads the same
//! way, and is cut down at the same door on replay.
//!
//! The framing follows the machine-generated-data observation motivating the
//! `PHQL1` query log: monotone-ish integer streams delta+varint-encode to a
//! small fraction of their raw width, so journaling every row costs little.
//! Floats are stored as raw bits on purpose — replayed batches must be
//! **bit-identical** to what was ingested, or the recovered synopsis would
//! drift from its uncrashed twin.
//!
//! ## Tail handling
//!
//! A crash mid-append leaves a torn final record. The reader distinguishes
//! the two failure shapes: a record whose claimed extent (or checksum
//! mismatch) runs into end-of-file is a **torn tail** — replay stops cleanly
//! before it, the expected aftermath of a crash; a checksum-failing record
//! *followed by more data* cannot come from a sequential append and is
//! reported as [`PhError::Corrupt`].

use std::path::{Path, PathBuf};

use ph_encoding::{crc32, Bytes, Out};
use ph_obs::{span, Stage};
use ph_types::{faultfs, Column, ColumnData, ColumnType, Dataset, PhError};

pub(crate) const WAL_MAGIC: &[u8; 5] = b"PHWL1";

/// WAL file of the table with catalog file base `base` (see `file_base_for`).
pub(crate) fn wal_path(dir: &Path, base: &str) -> PathBuf {
    dir.join(format!("{base}.phwal"))
}

/// Appends one batch under sequence number `seq` and fsyncs. Creates the file
/// (with magic) on first use, and then fsyncs its directory too: a checkpoint
/// deletes the log, so every restart of it is a new directory entry that a
/// crash could otherwise lose along with the acknowledged batches inside. The
/// caller must hold the table's writer lock — the log is single-writer by
/// construction.
pub(crate) fn append_record(path: &Path, seq: u64, batch: &Dataset) -> Result<(), PhError> {
    let mut payload = Vec::new();
    payload.uvarint(seq);
    encode_batch(&mut payload, batch);
    let mut rec = Vec::new();
    // Prepend the magic when the log is empty, not merely absent: a failed
    // earlier append (ENOSPC after open) can leave a zero-byte file behind,
    // and appending a bare record to it would produce an unreadable log.
    let empty = faultfs::file_len(path).map(|n| n == 0).unwrap_or(true);
    if empty {
        rec.bytes(WAL_MAGIC);
    }
    rec.uvarint(payload.len() as u64);
    rec.u32(crc32(&payload));
    rec.bytes(&payload);
    {
        let _append = span(Stage::WalAppend);
        faultfs::append(path, &rec)?;
    }
    let _fsync = span(Stage::WalFsync);
    faultfs::fsync_file(path)?;
    if let (true, Some(dir)) = (empty, path.parent()) {
        faultfs::fsync_dir(dir)?;
    }
    Ok(())
}

/// Deletes the log (after a committed checkpoint). Missing file is fine.
pub(crate) fn remove_wal(path: &Path) -> Result<(), PhError> {
    match faultfs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Complete, checksum-verified records in append order.
    pub records: Vec<(u64, Dataset)>,
    /// Whether a torn final record was discarded (normal crash aftermath).
    pub torn_tail: bool,
    /// Byte length of the intact prefix (magic + verified records). When a
    /// tail was torn, truncating the file here makes the log appendable again
    /// — a later append after the torn bytes would read as mid-log damage.
    pub valid_len: usize,
}

/// Scans the WAL, verifying every record checksum. A missing file yields an
/// empty replay; a torn tail is discarded; mid-log damage is `Corrupt`.
pub(crate) fn read_wal(path: &Path) -> Result<WalReplay, PhError> {
    let data = match faultfs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay { records: Vec::new(), torn_tail: false, valid_len: 0 })
        }
        Err(e) => return Err(e.into()),
    };
    if data.len() < WAL_MAGIC.len() {
        // A crash during the very first append can tear mid-magic.
        return Ok(WalReplay { records: Vec::new(), torn_tail: !data.is_empty(), valid_len: 0 });
    }
    let mut r = Bytes::new(&data);
    if r.take(WAL_MAGIC.len()) != Some(WAL_MAGIC) {
        return Err(PhError::Corrupt(format!("{}: bad WAL magic", path.display())));
    }
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut valid_len = r.position();
    while !r.is_empty() {
        let header = (|| {
            let len = usize::try_from(r.uvarint()?).ok()?;
            let stored = r.u32()?;
            Some((stored, r.take(len)?))
        })();
        let Some((stored, payload)) = header else {
            // Header or payload runs past end-of-file: torn final append.
            torn_tail = true;
            break;
        };
        if crc32(payload) != stored {
            if r.is_empty() {
                // Checksum failure on the very last record: a torn append
                // whose length field happened to survive. Discard it.
                torn_tail = true;
                break;
            }
            return Err(PhError::Corrupt(format!(
                "{}: WAL record at byte {valid_len} fails checksum with data after it",
                path.display()
            )));
        }
        let mut p = Bytes::new(payload);
        let parsed = p
            .uvarint()
            .and_then(|seq| decode_batch(&mut p).map(|b| (seq, b)))
            .filter(|_| p.is_empty());
        let Some(record) = parsed else {
            return Err(PhError::Corrupt(format!(
                "{}: WAL record at byte {valid_len} passes checksum but does not decode",
                path.display()
            )));
        };
        records.push(record);
        valid_len = r.position();
    }
    Ok(WalReplay { records, torn_tail, valid_len })
}

// --- Batch codec ----------------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_TIMESTAMP: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_CAT: u8 = 3;

/// Serializes a batch with lossless, replay-exact value encoding.
pub(crate) fn encode_batch(out: &mut Vec<u8>, batch: &Dataset) {
    out.uvarint_str(batch.name());
    out.uvarint(batch.n_rows() as u64);
    out.uvarint(batch.n_columns() as u64);
    for col in batch.columns() {
        out.uvarint_str(col.name());
        match col.ty() {
            ColumnType::Int => out.u8(TAG_INT),
            ColumnType::Timestamp => out.u8(TAG_TIMESTAMP),
            ColumnType::Float { scale } => {
                out.u8(TAG_FLOAT);
                out.u8(scale);
            }
            ColumnType::Categorical => out.u8(TAG_CAT),
        }
        // Validity bitmap, LSB-first.
        let n = col.len();
        for start in (0..n).step_by(8) {
            let valid = (start..n.min(start + 8)).filter(|&i| col.is_valid(i));
            out.u8(valid.fold(0, |byte, i| byte | 1 << (i % 8)));
        }
        match col.data() {
            ColumnData::Int(values) => {
                let mut prev = 0i64;
                for &v in values {
                    out.ivarint(v.wrapping_sub(prev));
                    prev = v;
                }
            }
            ColumnData::Float(values) => {
                for &v in values {
                    out.f64(v);
                }
            }
            ColumnData::Cat(codes, dict) => {
                out.uvarint(dict.len() as u64);
                for entry in dict {
                    out.uvarint_str(entry);
                }
                for &c in codes {
                    out.uvarint(c as u64);
                }
            }
        }
    }
}

/// Decodes a batch; total — returns `None` on any malformed input. Every
/// value takes at least a byte (eight for a float), so the bytes left bound
/// each column's reservation.
pub(crate) fn decode_batch(r: &mut Bytes<'_>) -> Option<Dataset> {
    let mut builder = Dataset::builder(r.uvarint_str()?);
    let n_rows = r.uvarint()?;
    // A column is at least its name's length and its type tag.
    let n_cols = r.uvarint()?;
    for _ in 0..r.count(n_cols, 2)? {
        let col_name = r.uvarint_str()?.to_string();
        let tag = r.u8()?;
        let scale = if tag == TAG_FLOAT { r.u8()? } else { 0 };
        let bits = r.take(usize::try_from(n_rows.div_ceil(8)).ok()?)?;
        let valid = |i: usize| bits.get(i / 8).is_some_and(|&b| b & (1 << (i % 8)) != 0);
        let col = match tag {
            TAG_INT | TAG_TIMESTAMP => {
                let n = r.count(n_rows, 1)?;
                let mut values = Vec::with_capacity(n);
                let mut prev = 0i64;
                for i in 0..n {
                    let v = prev.wrapping_add(r.ivarint()?);
                    prev = v;
                    values.push(valid(i).then_some(v));
                }
                if tag == TAG_INT {
                    Column::from_ints(col_name, values)
                } else {
                    Column::from_timestamps(col_name, values)
                }
            }
            TAG_FLOAT => {
                let n = r.count(n_rows, 8)?;
                let mut values = Vec::with_capacity(n);
                for i in 0..n {
                    values.push(valid(i).then_some(r.f64()?));
                }
                Column::from_floats(col_name, values, scale)
            }
            TAG_CAT => {
                let dict_len = r.uvarint()?;
                let dict_len = r.count(dict_len, 1)?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(r.uvarint_str()?.to_string());
                }
                let n = r.count(n_rows, 1)?;
                let mut codes = Vec::with_capacity(n);
                for i in 0..n {
                    let c = r.uvarint()?;
                    if valid(i) && c >= dict_len as u64 {
                        return None;
                    }
                    codes.push(valid(i).then_some(c as u32));
                }
                Column::from_codes(col_name, codes, dict)
            }
            _ => return None,
        };
        builder = builder.column(col).ok()?;
    }
    Some(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn batch(n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ints: Vec<Option<i64>> =
            (0..n).map(|_| rng.gen_bool(0.9).then(|| rng.gen_range(-5_000..5_000))).collect();
        let ts: Vec<Option<i64>> = (0..n).map(|i| Some(1_700_000_000 + i as i64 * 17)).collect();
        let floats: Vec<Option<f64>> =
            (0..n).map(|_| rng.gen_bool(0.95).then(|| rng.gen_range(-1.0e6..1.0e6))).collect();
        let cats: Vec<Option<&str>> =
            (0..n).map(|i| (i % 7 != 0).then(|| ["red", "green", "blue"][i % 3])).collect();
        Dataset::builder("wal_batch")
            .column(Column::from_ints("i", ints))
            .unwrap()
            .column(Column::from_timestamps("t", ts))
            .unwrap()
            .column(Column::from_floats("f", floats, 3))
            .unwrap()
            .column(Column::from_strings("c", cats))
            .unwrap()
            .build()
    }

    fn tmp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ph_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        wal_path(&dir, "t")
    }

    #[test]
    fn batch_roundtrip_is_exact() {
        for n in [0usize, 1, 3, 257] {
            let b = batch(n, n as u64);
            let mut buf = Vec::new();
            encode_batch(&mut buf, &b);
            let mut r = Bytes::new(&buf);
            let back = decode_batch(&mut r).expect("decode");
            assert!(r.is_empty());
            assert_eq!(back, b, "n = {n}");
        }
    }

    #[test]
    fn append_and_replay() {
        let path = tmp_wal("replay");
        for seq in 1..=4u64 {
            append_record(&path, seq, &batch(50, seq)).unwrap();
        }
        let replay = read_wal(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 4);
        for (i, (seq, b)) in replay.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(*b, batch(50, *seq));
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// The append that creates the log makes its directory entry durable; a
    /// later append does not pay for it again. Pinned as operation counts (the
    /// length probe, the append, the file fsync, then the directory fsync) and
    /// by killing the fourth operation of the first append.
    #[test]
    fn creating_append_fsyncs_the_directory() {
        use ph_types::faultfs::{arm, disarm, FaultKind, FaultPlan};
        let count = |path: &Path, seq: u64| {
            arm(FaultPlan { trigger_at_op: usize::MAX, kind: FaultKind::ShortWrite });
            append_record(path, seq, &batch(10, seq)).unwrap();
            disarm()
        };
        let path = tmp_wal("dirsync");
        assert_eq!(count(&path, 1), 4, "probe, append, fsync file, fsync directory");
        assert_eq!(count(&path, 2), 3, "probe, append, fsync file");
        remove_wal(&path).unwrap();
        arm(FaultPlan { trigger_at_op: 3, kind: FaultKind::ShortWrite });
        assert!(append_record(&path, 3, &batch(10, 3)).is_err(), "op 3 is the directory fsync");
        disarm();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_wal_is_empty() {
        let path = tmp_wal("missing");
        let replay = read_wal(&path).unwrap();
        assert!(replay.records.is_empty() && !replay.torn_tail);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        let path = tmp_wal("torn");
        append_record(&path, 1, &batch(40, 1)).unwrap();
        append_record(&path, 2, &batch(40, 2)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every byte boundary inside the second record: the
        // first record must always survive, and nothing may error or panic.
        let one = {
            let tmp = tmp_wal("torn_one");
            append_record(&tmp, 1, &batch(40, 1)).unwrap();
            let n = std::fs::read(&tmp).unwrap().len();
            std::fs::remove_dir_all(tmp.parent().unwrap()).unwrap();
            n
        };
        for cut in one..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_wal(&path).expect("torn tail never errors");
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert_eq!(replay.torn_tail, cut != one, "cut at {cut}");
            assert_eq!(replay.valid_len, one, "intact prefix ends at record 1, cut at {cut}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn mid_log_damage_is_corrupt() {
        let path = tmp_wal("damage");
        append_record(&path, 1, &batch(40, 1)).unwrap();
        append_record(&path, 2, &batch(40, 2)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's payload: the damage sits in
        // front of intact data, so it must be Corrupt, not a torn tail.
        let mut bad = full.clone();
        bad[WAL_MAGIC.len() + 10] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        match read_wal(&path) {
            Err(PhError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let path = tmp_wal("magic");
        std::fs::write(&path, b"XXXXXjunkjunkjunk").unwrap();
        assert!(matches!(read_wal(&path), Err(PhError::Corrupt(_))));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

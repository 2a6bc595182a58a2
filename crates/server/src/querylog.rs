//! The server's append-only query log: every `/query` request (status, latency
//! and the SQL text) in the varint-compressed `PHQL1` record format defined by
//! [`ph_encoding`] (following Xie et al., "Query Log Compression for Workload
//! Analytics"). The log is the serving layer's workload memory — replayable by
//! the `logreplay` bench bin and by the end-to-end tests, which assert that a
//! replayed log reproduces the exact estimates the server returned.
//!
//! All file I/O routes through [`ph_types::faultfs`], so the fault-injection
//! matrix can cut the log mid-record exactly like it cuts the WAL — and the
//! corruption tests assert that a damaged log degrades to its clean prefix
//! ([`read_query_log_lossy`]) rather than panicking or fabricating records.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use ph_encoding::{read_qlog_body, read_qlog_prefix, write_qlog_record, QlogRecord, QLOG_MAGIC};
use ph_types::{faultfs, PhError};

struct LogInner {
    path: PathBuf,
    prev_ts: u64,
}

/// Thread-safe appender. One mutex serializes record writes; the encoding work
/// per record is a handful of varints, so contention is negligible next to the
/// query execution the log trails.
pub struct QueryLogWriter {
    inner: Mutex<LogInner>,
}

impl QueryLogWriter {
    /// Creates (truncating) a log file at `path` and writes the magic.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, PhError> {
        let path = path.as_ref().to_path_buf();
        faultfs::write(&path, QLOG_MAGIC)?;
        Ok(Self { inner: Mutex::new(LogInner { path, prev_ts: 0 }) })
    }

    /// Appends one record, stamped with the current wall clock. Each record is
    /// one appended write — a crash loses at most the record being written.
    pub fn append(&self, status: u16, latency_micros: u64, sql: &str) {
        let ts_micros =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
        let rec = QlogRecord { ts_micros, status, latency_micros, sql: sql.to_owned() };
        let mut buf = Vec::with_capacity(sql.len() + 16);
        // Poison recovery: a panicking appender can at worst have lost its own
        // record; prev_ts stays a valid clamp base either way.
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.prev_ts = write_qlog_record(&mut buf, inner.prev_ts, &rec);
        // Log failures must not fail queries: serving is the product, the log
        // is the audit trail. A full disk degrades to a truncated log, which
        // the lossy reader salvages.
        // ph-lint: allow(lock-across-io) — the delta-timestamp chain requires file
        // order to match encode order, so the append must stay under the mutex
        let _ = faultfs::append(&inner.path, &buf);
    }
}

/// Reads a whole query log back into records. Fails with
/// [`PhError::Corrupt`] on a bad magic or an undecodable record.
pub fn read_query_log(path: impl AsRef<Path>) -> Result<Vec<QlogRecord>, PhError> {
    let path = path.as_ref();
    let bytes = faultfs::read(path)?;
    let body = bytes
        .strip_prefix(QLOG_MAGIC.as_slice())
        .ok_or_else(|| PhError::Corrupt(format!("{path:?}: not a PHQL1 query log")))?;
    read_qlog_body(body)
        .ok_or_else(|| PhError::Corrupt(format!("{path:?}: truncated or corrupt record")))
}

/// Reads as much of a query log as decodes cleanly. Returns the salvaged
/// records and whether the file was fully intact (`false` means a truncated or
/// corrupt tail was dropped). A missing or magic-less file salvages zero
/// records — degraded, never an error, never fabricated: every returned record
/// decoded from an intact byte range.
pub fn read_query_log_lossy(path: impl AsRef<Path>) -> (Vec<QlogRecord>, bool) {
    let Ok(bytes) = faultfs::read(path.as_ref()) else {
        return (Vec::new(), false);
    };
    let Some(body) = bytes.strip_prefix(QLOG_MAGIC.as_slice()) else {
        return (Vec::new(), false);
    };
    let (records, offset) = read_qlog_prefix(body);
    let intact = offset == body.len();
    (records, intact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ph_qlog_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.phqlog");
        let log = QueryLogWriter::create(&path).unwrap();
        log.append(200, 412, "SELECT COUNT(x) FROM t;");
        log.append(400, 9, "SELEC oops");
        let records = read_query_log(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].status, 200);
        assert_eq!(records[0].sql, "SELECT COUNT(x) FROM t;");
        assert_eq!(records[1].status, 400);
        assert!(records[1].ts_micros >= records[0].ts_micros, "monotone timestamps");
        let (salvaged, intact) = read_query_log_lossy(&path);
        assert_eq!(salvaged, records);
        assert!(intact);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_corrupt_error() {
        let dir = std::env::temp_dir().join(format!("ph_qlog_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.phqlog");
        std::fs::write(&path, b"NOTALOG").unwrap();
        assert!(matches!(read_query_log(&path), Err(PhError::Corrupt(_))));
        let (salvaged, intact) = read_query_log_lossy(&path);
        assert!(salvaged.is_empty());
        assert!(!intact);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_log_salvages_clean_prefix() {
        let dir = std::env::temp_dir().join(format!("ph_qlog_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.phqlog");
        let log = QueryLogWriter::create(&path).unwrap();
        log.append(200, 10, "SELECT 1;");
        log.append(200, 20, "SELECT 2;");
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the second record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(read_query_log(&path).is_err(), "strict reader refuses the cut log");
        let (salvaged, intact) = read_query_log_lossy(&path);
        assert_eq!(salvaged.len(), 1, "first record salvaged");
        assert_eq!(salvaged[0].sql, "SELECT 1;");
        assert!(!intact);
        std::fs::remove_dir_all(&dir).ok();
    }
}

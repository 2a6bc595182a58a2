//! Append-only query-log record format (`PHQL1`).
//!
//! Following Xie et al. ("Query Log Compression for Workload Analytics"), a
//! serving process should retain a compact record of the workload it answers —
//! both for replay (regression testing, capacity planning) and for workload
//! analytics. The record codec lives here, next to the other byte formats this
//! workspace defines, so the server and any offline analyzer agree on it.
//!
//! A log file is the 5-byte [`QLOG_MAGIC`] followed by zero or more records.
//! Every integer field is an LEB128 varint ([`super::Out::uvarint`]); the
//! timestamp is **delta-encoded** against the previous record (monotone
//! timestamps — the common case for an append-only log — cost one or two
//! bytes per record instead of eight):
//!
//! ```text
//! record := ts_delta_micros  varint   (first record: absolute µs timestamp)
//!           status           varint   (HTTP status the request was answered with)
//!           latency_micros   varint
//!           sql_len          varint
//!           sql_utf8         sql_len bytes
//! ```
//!
//! Decoding is total: truncated or corrupt input yields `None`, never a panic
//! — the reader must survive a log cut mid-record by a crash.

use crate::bytes::{Bytes, Out};

/// File magic of a query log: format name + version.
pub const QLOG_MAGIC: &[u8; 5] = b"PHQL1";

/// One served query: when, how it went, how long it took, and the text itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QlogRecord {
    /// Microseconds since the Unix epoch at which the request was answered.
    pub ts_micros: u64,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Service latency in microseconds.
    pub latency_micros: u64,
    /// The SQL text as received.
    pub sql: String,
}

/// Appends one record to `out`. `prev_ts` is the previous record's timestamp
/// (0 before the first record); timestamps that go backwards are clamped to
/// `prev_ts` so the delta stays representable — the log is an audit trail, not
/// a clock, and a small backwards step (NTP slew) must not poison the stream.
pub fn write_qlog_record(out: &mut Vec<u8>, prev_ts: u64, rec: &QlogRecord) -> u64 {
    let ts = rec.ts_micros.max(prev_ts);
    out.uvarint(ts - prev_ts);
    out.uvarint(u64::from(rec.status));
    out.uvarint(rec.latency_micros);
    out.uvarint_str(&rec.sql);
    ts
}

/// Reads one record, `None` on truncated or corrupt input (the cursor is then
/// somewhere inside it).
fn read_qlog_record(r: &mut Bytes<'_>, prev_ts: u64) -> Option<QlogRecord> {
    let delta = r.uvarint()?;
    let status = u16::try_from(r.uvarint()?).ok()?;
    let latency_micros = r.uvarint()?;
    let sql = r.uvarint_str()?.to_owned();
    Some(QlogRecord { ts_micros: prev_ts.checked_add(delta)?, status, latency_micros, sql })
}

/// Decodes a whole log body (the bytes *after* [`QLOG_MAGIC`]) into records.
/// `None` if any record is truncated or corrupt.
pub fn read_qlog_body(data: &[u8]) -> Option<Vec<QlogRecord>> {
    let (records, clean) = read_qlog_prefix(data);
    (clean == data.len()).then_some(records)
}

/// Decodes the longest clean prefix of a log body. Returns the records that
/// decoded and the byte offset they span; `offset == data.len()` means the
/// whole body was clean. Unlike [`read_qlog_body`] this never gives up
/// wholesale: a log cut mid-record by a crash — or with a corrupted tail —
/// still yields every record before the damage. It cannot fabricate records:
/// every returned record decoded from an intact byte range, and decoding stops
/// at the first record that does not.
pub fn read_qlog_prefix(data: &[u8]) -> (Vec<QlogRecord>, usize) {
    let mut out = Vec::new();
    let mut r = Bytes::new(data);
    let mut prev_ts = 0u64;
    while !r.is_empty() {
        let mark = r.position();
        match read_qlog_record(&mut r, prev_ts) {
            Some(rec) => {
                prev_ts = rec.ts_micros;
                out.push(rec);
            }
            None => return (out, mark),
        }
    }
    (out, r.position())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(records: &[QlogRecord]) -> Option<Vec<QlogRecord>> {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for r in records {
            prev = write_qlog_record(&mut buf, prev, r);
        }
        read_qlog_body(&buf)
    }

    #[test]
    fn empty_log_decodes_empty() {
        assert_eq!(read_qlog_body(&[]), Some(Vec::new()));
    }

    #[test]
    fn known_records_roundtrip() {
        let records = vec![
            QlogRecord {
                ts_micros: 1_700_000_000_000_000,
                status: 200,
                latency_micros: 412,
                sql: "SELECT COUNT(x) FROM t WHERE x > 3;".into(),
            },
            QlogRecord {
                ts_micros: 1_700_000_000_000_350,
                status: 400,
                latency_micros: 9,
                sql: "SELEC oops".into(),
            },
            QlogRecord {
                ts_micros: 1_700_000_000_001_000,
                status: 503,
                latency_micros: 1,
                sql: String::new(),
            },
        ];
        assert_eq!(roundtrip(&records).as_deref(), Some(&records[..]));
    }

    #[test]
    fn backwards_timestamp_is_clamped_not_corrupt() {
        let records = vec![
            QlogRecord { ts_micros: 1000, status: 200, latency_micros: 5, sql: "a".into() },
            QlogRecord { ts_micros: 900, status: 200, latency_micros: 5, sql: "b".into() },
        ];
        let decoded = roundtrip(&records).expect("decodes");
        assert_eq!(decoded[1].ts_micros, 1000, "clamped to the previous timestamp");
    }

    #[test]
    fn truncated_record_is_none() {
        let mut buf = Vec::new();
        write_qlog_record(
            &mut buf,
            0,
            &QlogRecord { ts_micros: 42, status: 200, latency_micros: 7, sql: "SELECT".into() },
        );
        for cut in 1..buf.len() {
            assert_eq!(read_qlog_body(&buf[..cut]), None, "cut at {cut} must fail cleanly");
        }
    }

    #[test]
    fn prefix_salvages_records_before_the_damage() {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        let recs = [
            QlogRecord { ts_micros: 100, status: 200, latency_micros: 5, sql: "a".into() },
            QlogRecord { ts_micros: 200, status: 200, latency_micros: 6, sql: "bb".into() },
        ];
        for r in &recs {
            prev = write_qlog_record(&mut buf, prev, r);
        }
        let clean_len = buf.len();
        // A third record, cut mid-way: the prefix reader salvages the first two
        // at every cut point and reports the clean offset.
        write_qlog_record(
            &mut buf,
            prev,
            &QlogRecord { ts_micros: 300, status: 500, latency_micros: 7, sql: "ccc".into() },
        );
        for cut in clean_len + 1..buf.len() {
            let (salvaged, offset) = read_qlog_prefix(&buf[..cut]);
            assert_eq!(salvaged, recs, "cut at {cut}");
            assert_eq!(offset, clean_len, "cut at {cut}");
        }
        // Untruncated, the prefix reader agrees with the strict one.
        let (all, offset) = read_qlog_prefix(&buf);
        assert_eq!(all.len(), 3);
        assert_eq!(offset, buf.len());
        assert_eq!(read_qlog_body(&buf).as_deref(), Some(&all[..]));
    }

    #[test]
    fn non_utf8_sql_is_none() {
        // Hand-build a record whose sql bytes are invalid UTF-8.
        let mut buf = Vec::new();
        crate::write_uvarint(&mut buf, 1); // ts delta
        crate::write_uvarint(&mut buf, 200); // status
        crate::write_uvarint(&mut buf, 3); // latency
        crate::write_uvarint(&mut buf, 2); // sql_len
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(read_qlog_body(&buf), None);
    }

    proptest! {
        /// Any record list round-trips (timestamps normalized to the monotone
        /// clamp the writer applies).
        #[test]
        fn prop_roundtrip(
            seeds in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u32>(), 0usize..40), 0..8)
        ) {
            let mut records: Vec<QlogRecord> = seeds
                .into_iter()
                .map(|(ts, status, lat, n)| QlogRecord {
                    ts_micros: u64::from(ts),
                    status,
                    latency_micros: u64::from(lat),
                    // Includes multi-byte UTF-8 and quotes on purpose.
                    sql: "é\"☃x".chars().cycle().take(n).collect(),
                })
                .collect();
            // Normalize to the writer's monotone clamp before comparing.
            let mut prev = 0u64;
            for r in &mut records {
                r.ts_micros = r.ts_micros.max(prev);
                prev = r.ts_micros;
            }
            let decoded = roundtrip(&records);
            prop_assert_eq!(decoded.as_deref(), Some(&records[..]));
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn prop_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            let _ = read_qlog_body(&bytes);
        }
    }
}

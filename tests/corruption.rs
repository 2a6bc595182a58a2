//! Property suite: random corruption of on-disk catalog state — byte flips
//! and truncations of manifests, segment blobs, and WAL files — must surface
//! as `PhError::Corrupt` / quarantine (or be repaired as a torn WAL tail).
//! Opening a damaged directory must never panic and must never serve a
//! silently wrong catalog: every table either answers from verified bytes or
//! is quarantined with a reason.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use pairwisehist::prelude::*;

/// Rows in the base (sealed) data of each table.
const BASE_ROWS: usize = 900;
/// Rows per WAL-journaled ingest batch into `t`.
const BATCH_ROWS: usize = 120;

fn dataset(name: &str, n: usize, seed: u64) -> Dataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
    let y: Vec<Option<i64>> = x
        .iter()
        .map(
            |v| if rng.gen_bool(0.05) { None } else { Some(v.unwrap() * 2 + rng.gen_range(0..40)) },
        )
        .collect();
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

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
}

/// Template catalog on disk, built once: two saved tables plus two journaled
/// (unsnapshotted) ingest batches into `t`, so the directory holds all three
/// durable file kinds — manifests, segment blobs, and a live WAL.
fn template() -> &'static PathBuf {
    static DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    DIR.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("ph_corruption_template_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new();
        session.register(dataset("t", BASE_ROWS, 1)).unwrap();
        session.register(dataset("u", BASE_ROWS, 2)).unwrap();
        session.save_dir(&dir).unwrap();
        let session = Session::open_dir(&dir).unwrap();
        session.ingest("t", &dataset("t", BATCH_ROWS, 3)).unwrap();
        session.ingest("t", &dataset("t", BATCH_ROWS, 4)).unwrap();
        let wal_present = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().path().extension().is_some_and(|x| x == "phwal"));
        assert!(wal_present, "template must contain a live WAL");
        dir
    })
}

fn total_rows(session: &Session, table: &str) -> Option<usize> {
    session
        .stats()
        .tables
        .iter()
        .find(|t| t.name == table)
        .map(|t| (t.sealed_rows + t.delta_rows) as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flip one byte (or truncate) one durable file, then reopen. The open
    /// must succeed; each table either serves with verified contents or is
    /// quarantined with a non-empty reason. Served row counts for `t` must
    /// be a valid WAL prefix — never a fabricated in-between state.
    #[test]
    fn random_corruption_never_panics_or_serves_wrong_state(
        file_sel in any::<u64>(),
        pos_sel in any::<u64>(),
        mask in 1u8..255,
        truncate in any::<bool>(),
    ) {
        let template = template();
        let dir = std::env::temp_dir().join(format!(
            "ph_corruption_case_{}_{file_sel:x}_{pos_sel:x}", std::process::id()
        ));
        copy_dir(template, &dir);

        // Pick a durable file and damage it.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = &files[(file_sel % files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        prop_assert!(!bytes.is_empty(), "durable files are never empty: {victim:?}");
        let pos = (pos_sel % bytes.len() as u64) as usize;
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= mask;
        }
        std::fs::write(victim, &bytes).unwrap();

        // Opening must not panic and must not fail wholesale: damage to one
        // table's files quarantines that table while the rest serve.
        let session = Session::open_dir(&dir).expect("open_dir must absorb corruption");
        let quarantined = session.quarantined();
        prop_assert!(
            quarantined.iter().all(|(_, reason)| !reason.is_empty()),
            "quarantine entries must carry a reason: {quarantined:?}"
        );

        for table in ["t", "u"] {
            let in_quarantine = quarantined.iter().any(|(name, _)| {
                // When the manifest itself is unreadable the quarantine key
                // is the file base, which embeds the sanitized table name.
                name == table || name.starts_with(&format!("{table}-"))
            });
            let sql = format!("SELECT COUNT(x) FROM {table};");
            match session.sql(&sql) {
                Ok(_) => {
                    prop_assert!(
                        !in_quarantine,
                        "{table} answered while quarantined: {quarantined:?}"
                    );
                    let rows = total_rows(&session, table).unwrap();
                    let valid: &[usize] = if table == "t" {
                        // Base rows plus a *prefix* of the journaled batches:
                        // a damaged final record is discarded as a torn tail,
                        // a damaged earlier record quarantines instead.
                        &[BASE_ROWS, BASE_ROWS + BATCH_ROWS, BASE_ROWS + 2 * BATCH_ROWS]
                    } else {
                        &[BASE_ROWS]
                    };
                    prop_assert!(
                        valid.contains(&rows),
                        "{table} serves a fabricated row count {rows} (valid: {valid:?})"
                    );
                }
                Err(PhError::Quarantined(reason)) => {
                    prop_assert!(in_quarantine, "{table} rejected but not listed as quarantined");
                    prop_assert!(!reason.is_empty());
                }
                // An unreadable manifest quarantines under the *file base*
                // (the name inside the manifest is unrecoverable), so the
                // table is absent from the catalog rather than rejecting.
                Err(PhError::UnknownTable(_)) => {
                    prop_assert!(
                        in_quarantine,
                        "{table} vanished without a quarantine entry: {quarantined:?}"
                    );
                }
                Err(other) => {
                    return Err(format!(
                        "{table}: expected an answer or quarantine, got {other}"
                    ));
                }
            }
        }

        drop(session);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Clean query log built once: its raw bytes and its decoded records.
fn qlog_template() -> &'static (Vec<u8>, Vec<pairwisehist::encoding::QlogRecord>) {
    use pairwisehist::server::querylog::{read_query_log, QueryLogWriter};
    static CLEAN: std::sync::OnceLock<(Vec<u8>, Vec<pairwisehist::encoding::QlogRecord>)> =
        std::sync::OnceLock::new();
    CLEAN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("ph_qlog_corr_tpl_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.phqlog");
        let log = QueryLogWriter::create(&path).unwrap();
        for i in 0..8u64 {
            let status = if i % 3 == 0 { 400 } else { 200 };
            log.append(status, 100 + i, &format!("SELECT COUNT(x) FROM t WHERE x < {i};"));
        }
        let bytes = std::fs::read(&path).unwrap();
        let records = read_query_log(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (bytes, records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip one byte of (or truncate) the server's PHQL1 query log, then read
    /// it back. Neither reader may panic; the lossy reader must degrade, not
    /// fabricate: a truncated log salvages exactly a prefix of the clean
    /// records, and whenever the strict reader accepts the bytes the lossy
    /// reader returns the same records and reports the file intact.
    #[test]
    fn query_log_corruption_salvages_without_fabricating(
        pos_sel in any::<u64>(),
        mask in 1u8..255,
        truncate in any::<bool>(),
    ) {
        use pairwisehist::server::querylog::{read_query_log, read_query_log_lossy};

        let (bytes, clean) = qlog_template();
        let mut damaged = bytes.clone();
        let pos = (pos_sel % damaged.len() as u64) as usize;
        if truncate {
            damaged.truncate(pos);
        } else {
            damaged[pos] ^= mask;
        }
        let dir = std::env::temp_dir().join(format!(
            "ph_qlog_corr_case_{}_{pos_sel:x}_{mask:x}_{truncate}", std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.phqlog");
        std::fs::write(&path, &damaged).unwrap();

        let strict = read_query_log(&path);
        let (salvaged, intact) = read_query_log_lossy(&path);

        if truncate {
            // A cut can only shorten: the salvage is a byte-exact prefix of
            // the clean records, never an invented or altered one.
            prop_assert!(salvaged.len() <= clean.len(), "cut log grew records");
            for (got, want) in salvaged.iter().zip(clean) {
                prop_assert!(got == want, "salvaged record differs from the clean log");
            }
            prop_assert!(pos >= bytes.len() || strict.is_err() || intact);
        }
        match strict {
            Ok(records) => {
                prop_assert!(salvaged == records, "strict and lossy readers disagree");
                prop_assert!(intact, "fully decodable log reported damaged");
            }
            Err(PhError::Corrupt(reason)) => prop_assert!(!reason.is_empty()),
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    /// Decode is total on arbitrary codes: a corrupted or version-skewed store
    /// can hand the preprocessor any `u64` — every out-of-range categorical
    /// rank or over-wide numeric code must surface as a typed error (mapping
    /// to `PhError::Corrupt`), never a panic or silent garbage.
    #[test]
    fn decode_value_is_total_on_arbitrary_codes(
        codes in proptest::collection::vec(any::<u64>(), 48),
    ) {
        let data = dataset("t", 300, 11);
        let pre = pairwisehist::gd::Preprocessor::fit(&data);
        // One past the real column count: out-of-range columns are errors too.
        for c in 0..=pre.n_columns() {
            for &v in &codes {
                if let Err(e) = pre.decode_value(c, v) {
                    let as_ph: PhError = e.into();
                    let text = as_ph.to_string();
                    prop_assert!(!text.is_empty());
                }
            }
        }
        // Every code the preprocessor itself produced still decodes cleanly.
        let matrix = pre.encode(&data);
        for (c, col) in matrix.columns.iter().enumerate() {
            for &v in col.iter().take(64) {
                prop_assert!(pre.decode_value(c, v).is_ok());
            }
        }
        // An out-of-range categorical rank is specifically the corruption
        // error, which quarantine-on-open keys off.
        let cat = pre.n_columns() - 1; // 'c' column in `dataset`
        let bad = pre.decode_value(cat, 1 << 40);
        prop_assert!(matches!(
            bad.map_err(PhError::from),
            Err(PhError::Corrupt(_))
        ));
    }
}

/// The one file with extension `ext` that `table` has in `dir`.
fn file_of(dir: &Path, table: &str, ext: &str) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.extension().is_some_and(|x| x == ext)
                && p.file_name().unwrap().to_str().unwrap().starts_with(table)
        })
        .expect("one such file per table")
}

/// The one segment file `table` has in `dir`.
fn segment_of(dir: &Path, table: &str) -> PathBuf {
    file_of(dir, table, "phseg")
}

/// End of the synopsis in a segment blob, whose layout is: magic(4) version(1)
/// syn_len(8) synopsis kind(1) store_len(8) store crc(4).
fn syn_end(blob: &[u8]) -> usize {
    13 + u64::from_le_bytes(blob[5..13].try_into().unwrap()) as usize
}

/// Retired on-disk formats are outside input, rejected like any other: a
/// pre-segmentation `PWHS` single blob, a `PSG2` segment, a `PSG3` segment
/// claiming store kind 0 (a row-less segment), a `PWT2` v3 manifest (no
/// build configuration, seal policy or blob numbers) and a `PWT2` v4 manifest
/// (with an `M` fraction and a serial/parallel flag) each quarantine their
/// table under a reason naming the format, while the healthy table beside them
/// serves.
#[test]
fn retired_formats_quarantine_without_taking_down_the_catalog() {
    use pairwisehist::encoding::crc32;

    let dir = std::env::temp_dir().join(format!("ph_retired_formats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new();
    let tables =
        [("healthy", 21), ("oldseg", 22), ("rowless", 23), ("oldmanifest", 25), ("v4", 26)];
    for (name, seed) in tables {
        session.register(dataset(name, BASE_ROWS, seed)).unwrap();
    }
    session.save_dir(&dir).unwrap();
    let segment_of = |table: &str| segment_of(&dir, table);

    // `PSG2` v2: the same body (has_store flag where the kind byte is, implicit
    // GreedyGD payload) under the old magic and version, without a CRC trailer.
    let current = std::fs::read(segment_of("oldseg")).unwrap();
    let mut psg2 = b"PSG2\x02".to_vec();
    psg2.extend_from_slice(&current[5..syn_end(&current)]);
    psg2.push(1);
    psg2.extend_from_slice(&current[syn_end(&current) + 1..current.len() - 4]);
    std::fs::write(segment_of("oldseg"), psg2).unwrap();

    // `PSG3` v3 with store kind 0: intact frame, no rows.
    let current = std::fs::read(segment_of("rowless")).unwrap();
    let mut kind0 = current[..syn_end(&current)].to_vec();
    kind0.push(0);
    kind0.extend_from_slice(&0u64.to_le_bytes());
    let crc = crc32(&kind0);
    kind0.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(segment_of("rowless"), kind0).unwrap();

    // `PWHS` v1: name + preprocessor + synopsis in one blob, no rows, no CRC.
    let ph = PairwiseHist::build(&dataset("single", BASE_ROWS, 24), &PairwiseHistConfig::default());
    let (pre, syn) = (ph.preprocessor().to_bytes(), ph.to_bytes());
    let mut pwhs = b"PWHS\x01".to_vec();
    pwhs.extend_from_slice(&6u16.to_le_bytes());
    pwhs.extend_from_slice(b"single");
    pwhs.extend_from_slice(&(pre.len() as u32).to_le_bytes());
    pwhs.extend_from_slice(&pre);
    pwhs.extend_from_slice(&(syn.len() as u64).to_le_bytes());
    pwhs.extend_from_slice(&syn);
    std::fs::write(dir.join("single-0000.pwhs"), pwhs).unwrap();

    // `PWT2` v3: an intact frame at the version before the build configuration
    // moved into the manifest.
    let manifest = file_of(&dir, "oldmanifest", "pwhs");
    let current = std::fs::read(&manifest).unwrap();
    let mut v3 = current[..current.len() - 4].to_vec();
    v3[4] = 3;
    let crc = crc32(&v3);
    v3.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&manifest, v3).unwrap();
    let v3_key = manifest.file_stem().unwrap().to_str().unwrap().to_string();

    // `PWT2` v4: the v5 body with its two retired fields back in place — an
    // `f64` M fraction after `ns`, a `u8` parallel flag after the seed.
    let manifest = file_of(&dir, "v4", "pwhs");
    let current = std::fs::read(&manifest).unwrap();
    let name_end = 7 + u16::from_le_bytes(current[5..7].try_into().unwrap()) as usize;
    let pre_len = u32::from_le_bytes(current[name_end..name_end + 4].try_into().unwrap());
    let ns_end = name_end + 4 + pre_len as usize + 8;
    let seed_end = ns_end + 8 + 8 + 1 + 8; // m_absolute, alpha, split rule, seed
    let mut v4 = current[..ns_end].to_vec();
    v4[4] = 4;
    v4.extend_from_slice(&0.01f64.to_bits().to_le_bytes());
    v4.extend_from_slice(&current[ns_end..seed_end]);
    v4.push(1);
    v4.extend_from_slice(&current[seed_end..current.len() - 4]);
    let crc = crc32(&v4);
    v4.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(v4.len(), current.len() + 9, "v4 carried nine more bytes");
    std::fs::write(&manifest, v4).unwrap();
    let v4_key = manifest.file_stem().unwrap().to_str().unwrap().to_string();

    let reopened = Session::open_dir(&dir).expect("retired formats must not fail the open");
    assert_eq!(reopened.tables(), vec!["healthy"], "only the current-format table loads");
    let sql = "SELECT AVG(y) FROM healthy WHERE x > 300 GROUP BY c";
    assert_eq!(reopened.sql(sql).unwrap(), session.sql(sql).unwrap());

    let quarantined = reopened.quarantined();
    for (key, format) in [
        ("oldseg", "PSG2"),
        ("rowless", "PSG3"),
        ("single-0000", "PWHS"),
        (v3_key.as_str(), "PWT2"),
        (v4_key.as_str(), "PWT2' v4"),
    ] {
        let reason = &quarantined
            .iter()
            .find(|(name, _)| name == key)
            .unwrap_or_else(|| panic!("{key} must be quarantined: {quarantined:?}"))
            .1;
        assert!(
            reason.contains("unsupported format") && reason.contains(format),
            "{key}: reason must name the unsupported format {format}: {reason}"
        );
    }
    for table in ["oldseg", "rowless"] {
        let sql = format!("SELECT COUNT(x) FROM {table}");
        assert!(matches!(reopened.sql(&sql), Err(PhError::Quarantined(_))), "{table}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checksum proves a segment blob arrived as written, not that its writer
/// was honest: a `PSG3` frame with a valid CRC around a kind-1 (GreedyGD)
/// store whose header claims 2^40 bases must quarantine its table — not abort
/// the process on a terabyte allocation — while the healthy table beside it
/// serves. (Kind 1 is no longer read at all, so the reason names the kind.)
#[test]
fn hostile_gd_store_header_quarantines_instead_of_aborting() {
    use pairwisehist::encoding::{crc32, write_uvarint};

    let dir = std::env::temp_dir().join(format!("ph_hostile_gd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new();
    for (name, seed) in [("healthy", 31), ("hostile", 32)] {
        session.register(dataset(name, BASE_ROWS, seed)).unwrap();
    }
    session.save_dir(&dir).unwrap();

    // n_rows 0, one 8-bit column, 2^40 bases, no payload.
    let mut store = vec![0, 1];
    write_uvarint(&mut store, 1 << 40);
    store.extend_from_slice(&[8, 0]);
    let path = segment_of(&dir, "hostile");
    let current = std::fs::read(&path).unwrap();
    let mut blob = current[..syn_end(&current)].to_vec();
    blob.push(1);
    blob.extend_from_slice(&(store.len() as u64).to_le_bytes());
    blob.extend_from_slice(&store);
    let crc = crc32(&blob);
    blob.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, blob).unwrap();

    let reopened = Session::open_dir(&dir).expect("a hostile store must not fail the open");
    assert_eq!(reopened.tables(), vec!["healthy"]);
    let sql = "SELECT AVG(y) FROM healthy WHERE x > 300 GROUP BY c";
    assert_eq!(reopened.sql(sql).unwrap(), session.sql(sql).unwrap());
    assert!(reopened
        .quarantined()
        .iter()
        .any(|(name, why)| name == "hostile" && why.contains("row-store kind 1")));
    assert!(matches!(reopened.sql("SELECT COUNT(x) FROM hostile"), Err(PhError::Quarantined(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Saves table `t` of 4 000 rows beside a healthy table, replaces `t`'s
/// segment blob with `store` under `t`'s own synopsis — written by
/// `segment_to_bytes`, so its checksum holds — and reopens. Returns `t`'s
/// quarantine reason, after checking that a refit-forcing ingest (a novel
/// category) into `t` fails as quarantined instead of decoding the store and
/// that the healthy table still answers as before.
fn reopen_with_store(tag: &str, store: &pairwisehist::gd::ColumnarStore) -> String {
    use pairwisehist::core::segment_to_bytes;

    let dir = std::env::temp_dir().join(format!("ph_store_shape_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new();
    session.register(dataset("healthy", BASE_ROWS, 41)).unwrap();
    session.register(dataset("t", 4_000, 42)).unwrap();
    session.save_dir(&dir).unwrap();
    let snap = session.engine("t").unwrap();
    std::fs::write(segment_of(&dir, "t"), segment_to_bytes(snap.segments()[0], store)).unwrap();

    let reopened = Session::open_dir(&dir).expect("a misshapen store must not fail the open");
    std::fs::remove_dir_all(&dir).unwrap();
    let quarantined = reopened.quarantined();
    let reason = quarantined
        .iter()
        .find(|(name, _)| name == "t")
        .unwrap_or_else(|| panic!("t must be quarantined at open: {quarantined:?}"))
        .1
        .clone();
    let novel = Dataset::builder("t")
        .column(Column::from_ints("x", vec![Some(1)]))
        .unwrap()
        .column(Column::from_ints("y", vec![Some(2)]))
        .unwrap()
        .column(Column::from_strings("c", vec![Some("novel")]))
        .unwrap()
        .build();
    assert!(matches!(reopened.ingest("t", &novel), Err(PhError::Quarantined(_))));
    let sql = "SELECT AVG(y) FROM healthy WHERE x > 300 GROUP BY c";
    assert_eq!(reopened.sql(sql).unwrap(), session.sql(sql).unwrap());
    reason
}

/// A store of one column under a three-column preprocessor, in a blob whose
/// checksum holds. It once opened and served (the synopsis answers queries),
/// then panicked the first refit, which indexed the missing columns.
#[test]
fn a_store_of_too_few_columns_quarantines_at_open() {
    use pairwisehist::gd::{ColumnarStore, EncodedMatrix};

    let store = ColumnarStore::encode(&EncodedMatrix::new(vec![vec![0; 4_000]]));
    let reason = reopen_with_store("columns", &store);
    assert!(
        reason.contains("holds 4000 × 1 (rows × columns)") && reason.contains("commit 4000 × 3"),
        "the reason names the store's shape and the table's: {reason}"
    );
}

/// Three width-0 columns that claim 2^28 rows in 33 bytes, under a synopsis
/// of 4 000. It once opened, and the first refit sized 2 GiB per column from
/// the claim.
#[test]
fn a_store_claiming_more_rows_than_its_synopsis_quarantines_at_open() {
    use pairwisehist::encoding::Out;
    use pairwisehist::gd::ColumnarStore;

    let mut bytes = Vec::new();
    bytes.uvarint(1 << 28);
    bytes.uvarint(3);
    for _ in 0..3 {
        // A bit-pack column: rows, minimum 0, width 0 — no residual bytes.
        bytes.bytes(&[0, 7]);
        bytes.uvarint(1 << 28);
        bytes.bytes(&[0, 0]);
    }
    assert_eq!(bytes.len(), 33);
    let store = ColumnarStore::from_bytes(&bytes, 1 << 28, 3).expect("the store alone decodes");
    let reason = reopen_with_store("rows", &store);
    assert!(
        reason.contains("holds 268435456 × 3 (rows × columns)")
            && reason.contains("commit 4000 × 3"),
        "the reason names the store's shape and the table's: {reason}"
    );
}

/// A pair dimension's split edges lie strictly inside the column's 1-d bins,
/// so a synopsis whose split edge sits at or beyond an outer 1-d edge is
/// refused, whatever the rest of its bytes: taking it would give the pair a
/// copy of the column's range of its own. No encoder writes one.
#[test]
fn a_split_edge_at_or_beyond_the_outer_edges_is_refused() {
    use rand::{Rng, SeedableRng};
    // Skewed `x`, and `y` a tight function of it: the pair refines `x`.
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let x: Vec<i64> = (0..20_000).map(|_| (rng.gen::<f64>().powi(2) * 1000.0) as i64).collect();
    let y = x.iter().map(|v| Some(v + rng.gen_range(0..10))).collect();
    let data = Dataset::builder("t")
        .column(Column::from_ints("x", x.into_iter().map(Some).collect()))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .build();
    let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 20_000, ..Default::default() });
    let bytes = ph.to_bytes();
    // The pair section opens with pair (x, y)'s x dimension: its count of
    // split edges, then the edges, ascending, each as wide as x's 1-d edges
    // (the first width after the 34-byte header).
    let size = ph.synopsis_size();
    let at = size.params + size.hists_1d;
    let n_extra = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    assert!(n_extra > 0, "x splits in its pair with y");
    let width = bytes[34] as usize;
    let (first, last) = (at + 4, at + 4 + (n_extra - 1) * width);
    let edges = &ph.hist1d(0).edges;
    let code = |e: f64| (2.0 * e + 1.0) as u64;
    let (bottom, top) = (code(edges[0]), code(edges[edges.len() - 1]));
    assert!(PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone()).is_some());
    for (slot, bad) in [(first, bottom), (last, top), (last, top + 1)] {
        assert!(bad < 1 << (8 * width), "the edit fits the edge's width");
        let mut edited = bytes.clone();
        edited[slot..slot + width].copy_from_slice(&bad.to_le_bytes()[..width]);
        assert!(
            PairwiseHist::from_bytes(&edited, ph.preprocessor().clone()).is_none(),
            "a split edge coded {bad} (outer edges {bottom} and {top}) decoded"
        );
    }
}

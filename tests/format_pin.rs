//! Format pin: the bytes `save_dir` writes for one seeded table are frozen.
//!
//! Every persisted blob kind has exactly one reader, so there is no "an older
//! generation still loads" safety net: a writer that drifts by one byte strands
//! every catalog already on disk. This test is the tripwire. For a seeded
//! Power table (two sealed segments + a delta) it pins the length and CRC32
//! of the manifest, of each segment blob and of the preprocessor. A deliberate
//! format change bumps the blob's version byte and re-pins these constants in
//! the same commit (last: the `PWT2` v5 manifest, which dropped the build
//! configuration's `M` fraction and its serial/parallel flag).
//!
//! Segments keep the per-column cascade, so two more pins reach what the
//! Power table does not: each of the four column codecs on fixed columns, and
//! the GreedyGD store the storage experiments measure, on rows where GD beats
//! the cascade.

use pairwisehist::encoding::crc32;
use pairwisehist::gd::{
    BitPackCodec, ColumnarStore, DeltaCodec, DictCodec, EncodedMatrix, RunEndCodec,
};
use pairwisehist::prelude::*;
use rand::{Rng, SeedableRng};

/// `(length, crc32)` of what precedes a catalog file's own CRC trailer. (The
/// CRC32 of a whole trailed file is the same residue for every file, so it
/// would pin nothing.)
const MANIFEST: (usize, u32) = (0x1b0, 0x7cac_0912);
/// Segment 0, segment 1, then the delta serialized as a final segment.
const SEGMENTS: [(usize, u32); 3] =
    [(0x1_6f91, 0x8f60_9f9d), (0x1_1de5, 0xea16_32c0), (0x96f2, 0xab5d_341c)];
const PREPROCESSOR: (usize, u32) = (331, 0x4948_a266);

#[test]
fn persisted_bytes_of_a_seeded_table_are_pinned() {
    let data = pairwisehist::datagen::generate("Power", 20_000, 7).expect("dataset");
    let session = Session::new();
    session.set_max_staleness(f64::INFINITY); // size-based sealing only
    session.set_seal_threshold(8_000);
    // The registration fit must cover every numeric column's minimum, or a
    // later batch dipping below it forces a refit that collapses the segments.
    let mut first = data.slice(0, 8_000);
    let argmin_rows: Vec<usize> = (0..data.n_columns())
        .filter_map(|c| {
            let col = data.column(c);
            (0..data.n_rows())
                .filter_map(|i| col.numeric(i).map(|x| (i, x)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
        })
        .collect();
    first.append(&data.take(&argmin_rows)).unwrap();
    session.register(first).unwrap();
    session.ingest("Power", &data.slice(8_000, 8_000)).unwrap();
    session.ingest("Power", &data.slice(16_000, 4_000)).unwrap();
    let snap = session.engine("Power").unwrap();
    assert_eq!(snap.n_segments(), 2, "registration segment + one sealed batch");
    assert!(snap.delta().is_some(), "the last batch stays delta-resident");

    let dir = std::env::temp_dir().join(format!("ph_format_pin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    session.save_dir(&dir).unwrap();
    let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    let pins_of = |ext: &str| -> Vec<(usize, u32)> {
        files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .map(|p| {
                let bytes = std::fs::read(p).unwrap();
                let body = &bytes[..bytes.len() - 4];
                assert_eq!(bytes[body.len()..], crc32(body).to_le_bytes(), "trailer of {p:?}");
                (body.len(), crc32(body))
            })
            .collect()
    };
    let manifest = pins_of("pwhs");
    let segments = pins_of("phseg");
    let pre = snap.preprocessor().to_bytes();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(manifest, [MANIFEST], "manifest bytes drifted");
    assert_eq!(segments, SEGMENTS, "segment blob bytes drifted (seg0, seg1, delta)");
    assert_eq!((pre.len(), crc32(&pre)), PREPROCESSOR, "preprocessor bytes drifted");
}

fn pin(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

/// `to_bytes` of each codec (bitpack, delta, dict, run-end) on each of
/// [`pinned_columns`].
const CODECS: [[(usize, u32); 4]; 4] = [
    [(4, 0x58ab_6c66), (59, 0x398e_20da), (1408, 0xd849_4ec6), (3, 0xff41_d912)],
    [(8, 0x90ed_fa0d), (52, 0x5693_a408), (366, 0xff16_8184), (4, 0x2144_df1c)],
    [(5, 0x2df8_e5a5), (27, 0xdad9_5748), (1584, 0x5e7d_bec7), (3, 0xff41_d912)],
    [(8, 0x5359_b7d2), (64, 0xd4e1_e88a), (2286, 0xa718_8c4a), (5, 0xc622_f71d)],
];
/// `to_bytes` of the GreedyGD store over [`dozen_rows_repeated`].
const GD_STORE: (usize, u32) = (1308, 0xe9f2_7201);

/// A constant column (every width 0), a width-64 extreme, three delta blocks
/// of a jittered fixed step, and the empty column.
fn pinned_columns() -> [Vec<u64>; 4] {
    [
        vec![42; 1_000],
        vec![5, u64::MAX, 5, 1 << 52, 77, 0, u64::MAX],
        (0..700u64).map(|i| 1_600_000_000 + 60 * i + i * i % 7).collect(),
        Vec::new(),
    ]
}

/// `n` rows drawn from a dozen distinct rows: whole-row redundancy, the shape
/// on which GreedyGD beats the per-column cascade (shape 1 of `ph_gd`'s test
/// matrices, same draws).
fn dozen_rows_repeated(n: usize, seed: u64) -> EncodedMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (1 << 32));
    let rows: Vec<[u64; 3]> = (0..12)
        .map(|_| [rng.gen_range(0..1 << 20), rng.gen_range(0..1 << 9), rng.gen_range(0..7)])
        .collect();
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rows.len())).collect();
    EncodedMatrix::new((0..3).map(|c| picks.iter().map(|&p| rows[p][c]).collect()).collect())
}

#[test]
fn codec_and_gd_store_bytes_are_pinned() {
    let columns = pinned_columns();
    let codecs = [
        columns.each_ref().map(|c| pin(&BitPackCodec::encode(c).to_bytes())),
        columns.each_ref().map(|c| pin(&DeltaCodec::encode(c).to_bytes())),
        columns.each_ref().map(|c| pin(&DictCodec::encode(c).to_bytes())),
        columns.each_ref().map(|c| pin(&RunEndCodec::encode(c).to_bytes())),
    ];
    assert_eq!(codecs, CODECS, "codec bytes drifted (bitpack, delta, dict, run-end)");

    let m = dozen_rows_repeated(2_500, 4);
    let bytes = GdCompressor::new().compress(&m).to_bytes();
    assert!(bytes.len() < ColumnarStore::encode(&m).packed_bytes(), "GD beats the cascade here");
    assert_eq!(GdStore::from_bytes(&bytes).map(|s| s.decompress()), Some(m));
    assert_eq!(pin(&bytes), GD_STORE, "GreedyGD store bytes drifted");
}

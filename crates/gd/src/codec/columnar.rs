//! The columnar row store: one adaptively-chosen codec per column, plus the
//! [`RowStore`] enum that holds either this or the GreedyGD store — whichever
//! is smaller, for the storage experiments that compare the two.

use ph_encoding::{read_uvarint, write_uvarint};

use crate::{EncodedMatrix, GdStore};

use super::column::{choose_codec, ColumnCodec};
use super::{uvarint_len, EncodedPred, MAX_CODEC_ROWS};

/// A segment's rows, one codec per column.
///
/// Wire layout: `uvarint n_rows | uvarint n_cols | per column: u8 tag |
/// uvarint payload_len | payload`. The CRC trailer lives one level up in the
/// `PSG3` segment blob, like every other persisted unit.
#[derive(Debug, Clone)]
pub struct ColumnarStore {
    n_rows: usize,
    columns: Vec<ColumnCodec>,
}

impl ColumnarStore {
    /// Encodes every column of the matrix through [`choose_codec`].
    pub fn encode(matrix: &EncodedMatrix) -> Self {
        Self {
            n_rows: matrix.n_rows,
            columns: matrix.columns.iter().map(|c| choose_codec(c)).collect(),
        }
    }

    /// Rows held.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns held.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Full decode back to the encoded-domain matrix. Total on any store that
    /// exists in memory (encoded here or validated by `from_bytes`).
    pub fn decompress(&self) -> EncodedMatrix {
        EncodedMatrix {
            columns: self.columns.iter().map(|c| c.decode()).collect(),
            n_rows: self.n_rows,
        }
    }

    /// Serialized size in bytes, O(columns) arithmetic — no encoding.
    pub fn packed_bytes(&self) -> usize {
        uvarint_len(self.n_rows as u64)
            + uvarint_len(self.columns.len() as u64)
            + self
                .columns
                .iter()
                .map(|c| {
                    let len = c.packed_bytes();
                    1 + uvarint_len(len as u64) + len
                })
                .sum::<usize>()
    }

    /// Serializes the store.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes());
        write_uvarint(&mut out, self.n_rows as u64);
        write_uvarint(&mut out, self.columns.len() as u64);
        for c in &self.columns {
            let payload = c.to_bytes();
            out.push(c.tag());
            write_uvarint(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Restores a store; `None` on any malformed column, row-count mismatch,
    /// or trailing bytes. Decode paths are total afterwards.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let n_rows = read_uvarint(data, &mut pos)? as usize;
        if n_rows > MAX_CODEC_ROWS {
            return None;
        }
        let n_cols = read_uvarint(data, &mut pos)? as usize;
        if n_cols > 1 << 16 {
            return None;
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let tag = *data.get(pos)?;
            pos += 1;
            let len = read_uvarint(data, &mut pos)? as usize;
            let payload = data.get(pos..pos.checked_add(len)?)?;
            pos += len;
            let codec = ColumnCodec::from_tag_bytes(tag, payload)?;
            if codec.n_rows() != n_rows {
                return None;
            }
            columns.push(codec);
        }
        if pos != data.len() {
            return None;
        }
        Some(Self { n_rows, columns })
    }

    /// Rows of column `col` matching `pred`, evaluated on encoded data.
    pub fn count_matching(&self, col: usize, pred: &EncodedPred) -> Option<u64> {
        Some(self.columns.get(col)?.count_matching(pred))
    }

    /// Codec name per column, for `/stats` and bench reporting.
    pub fn codec_names(&self) -> Vec<&'static str> {
        self.columns.iter().map(|c| c.name()).collect()
    }
}

/// Rows under whichever of the two schemes is smaller ([`choose_store`]).
#[derive(Debug, Clone)]
pub enum RowStore {
    /// GreedyGD base/deviation store (the paper's scheme).
    Gd(GdStore),
    /// Per-column adaptive codecs.
    Columnar(ColumnarStore),
}

impl RowStore {
    /// Serialized size in bytes, O(columns).
    pub fn packed_bytes(&self) -> usize {
        match self {
            RowStore::Gd(s) => s.packed_bytes(),
            RowStore::Columnar(s) => s.packed_bytes(),
        }
    }

    /// Full decode back to the encoded-domain matrix.
    pub fn decompress(&self) -> EncodedMatrix {
        match self {
            RowStore::Gd(s) => s.decompress(),
            RowStore::Columnar(s) => s.decompress(),
        }
    }

    /// Rows of column `col` matching `pred`. The columnar store evaluates on
    /// encoded data (dict code intervals, run skipping); the GD store scans
    /// its decoded rows — correct either way, fast where the codecs allow.
    pub fn count_matching(&self, col: usize, pred: &EncodedPred) -> Option<u64> {
        match self {
            RowStore::Gd(s) => {
                if col >= s.n_columns() {
                    return None;
                }
                let m = s.decompress();
                Some(m.columns[col].iter().filter(|&&v| pred.matches(v)).count() as u64)
            }
            RowStore::Columnar(s) => s.count_matching(col, pred),
        }
    }
}

/// Keeps the smaller of the two stores over the same rows, for a caller that
/// already holds the GD store: the columnar encode is all this adds. GD stays
/// the choice whenever whole-row redundancy beats per-column shape.
pub fn choose_store(matrix: &EncodedMatrix, gd: GdStore) -> RowStore {
    let columnar = ColumnarStore::encode(matrix);
    if columnar.packed_bytes() < gd.packed_bytes() {
        RowStore::Columnar(columnar)
    } else {
        RowStore::Gd(gd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GdCompressor;
    use proptest::prelude::*;

    fn matrix(columns: Vec<Vec<u64>>) -> EncodedMatrix {
        let n_rows = columns.first().map_or(0, |c| c.len());
        EncodedMatrix { columns, n_rows }
    }

    #[test]
    fn store_roundtrips_mixed_columns() {
        let m = matrix(vec![
            (0..2_000u64).map(|i| 1_700_000_000 + i * 30).collect(),
            (0..2_000u64).map(|i| ((i * 2_654_435_761) % 8) << 40).collect(),
            (0..2_000u64).map(|i| (i / 500) % 2).collect(),
            vec![42; 2_000],
        ]);
        let s = ColumnarStore::encode(&m);
        assert_eq!(s.decompress().columns, m.columns);
        assert_eq!(s.packed_bytes(), s.to_bytes().len());
        let restored = ColumnarStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(restored.decompress().columns, m.columns);
        assert_eq!(restored.codec_names(), ["delta", "dict", "runend", "bitpack"]);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let m = matrix(vec![(0..100u64).collect(), vec![5; 100]]);
        let bytes = ColumnarStore::encode(&m).to_bytes();
        assert!(ColumnarStore::from_bytes(&bytes).is_some());
        for cut in 0..bytes.len() {
            assert!(ColumnarStore::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(ColumnarStore::from_bytes(&extra).is_none());
        let mut bad_tag = bytes.clone();
        // First column tag byte sits right after the two header uvarints.
        bad_tag[2] = 9;
        assert!(ColumnarStore::from_bytes(&bad_tag).is_none());
    }

    #[test]
    fn choose_store_prefers_smaller() {
        // Structured columns: the cascade should crush GD here.
        let m = matrix(vec![
            (0..5_000u64).map(|i| 1_000_000 + i).collect(),
            (0..5_000u64).map(|i| i % 3).collect(),
        ]);
        let gd = GdCompressor::new().compress(&m);
        let gd_bytes = gd.packed_bytes();
        let store = choose_store(&m, gd);
        assert!(matches!(store, RowStore::Columnar(_)));
        assert!(store.packed_bytes() < gd_bytes);
        assert_eq!(store.decompress().columns, m.columns);
    }

    /// GreedyGD wins on whole-row redundancy (shape 1), and `choose_store`
    /// keeps it.
    #[test]
    fn choose_store_keeps_gd_on_repeated_rows() {
        let m = crate::matrix::shapes::shaped(1, 2_500, 4);
        let gd = GdCompressor::new().compress(&m);
        let gd_bytes = gd.to_bytes();
        let RowStore::Gd(kept) = choose_store(&m, gd) else {
            panic!("GreedyGD must win on repeated rows");
        };
        assert_eq!(kept.to_bytes(), gd_bytes);
    }

    #[test]
    fn gd_store_count_matching_matches_scan() {
        let m = matrix(vec![(0..400u64).map(|i| i % 10).collect()]);
        let gd = RowStore::Gd(GdCompressor::new().compress(&m));
        assert_eq!(gd.count_matching(0, &EncodedPred::Eq(3)), Some(40));
        assert_eq!(gd.count_matching(1, &EncodedPred::Eq(3)), None);
    }

    // -- property tests: every codec round-trips bit-identically, sizes are
    //    exact, predicates match a scan. --

    /// Generates one of four column shapes per case: low cardinality, runs,
    /// near-arithmetic sequences, or arbitrary u64s (incl. extremes).
    struct ColumnStrategy;

    impl Strategy for ColumnStrategy {
        type Value = Vec<u64>;

        fn generate(&self, rng: &mut proptest::TestRng) -> Vec<u64> {
            match rng.below(4) {
                0 => (0..rng.below(300)).map(|_| rng.below(8)).collect(),
                1 => {
                    let mut out = Vec::new();
                    for _ in 0..rng.below(40) {
                        let v = rng.below(5);
                        let n = 1 + rng.below(19) as usize;
                        out.extend(std::iter::repeat_n(v, n));
                    }
                    out
                }
                2 => {
                    let base = rng.below(1 << 40);
                    let step = rng.below(1000);
                    (0..rng.below(300))
                        .map(|i| base + i * step + rng.below(16))
                        .collect()
                }
                _ => (0..rng.below(120)).map(|_| rng.next_u64()).collect(),
            }
        }
    }

    fn column_strategy() -> impl Strategy<Value = Vec<u64>> {
        ColumnStrategy
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_every_codec_roundtrips(vals in column_strategy()) {
            use super::super::{BitPackCodec, DeltaCodec, DictCodec, RunEndCodec};
            macro_rules! check {
                ($ty:ty) => {{
                    let c = <$ty>::encode(&vals);
                    prop_assert_eq!(c.decode(), vals.clone());
                    prop_assert_eq!(c.packed_bytes(), c.to_bytes().len());
                    let restored = <$ty>::from_bytes(&c.to_bytes());
                    prop_assert!(restored.is_some());
                    let restored = restored.unwrap();
                    prop_assert_eq!(restored.decode(), vals.clone());
                    prop_assert_eq!(restored.n_rows(), vals.len());
                }};
            }
            check!(BitPackCodec);
            check!(DeltaCodec);
            check!(DictCodec);
            check!(RunEndCodec);
        }

        #[test]
        fn prop_chosen_codec_roundtrips_and_counts(
            vals in column_strategy(),
            lo in 0u64..40,
            span in 0u64..40,
        ) {
            let c = choose_codec(&vals);
            prop_assert_eq!(c.decode(), vals.clone());
            prop_assert_eq!(c.packed_bytes(), c.to_bytes().len());
            for pred in [
                EncodedPred::Eq(lo),
                EncodedPred::Range { lo: Some(lo), hi: Some(lo + span) },
                EncodedPred::Range { lo: None, hi: Some(lo) },
                EncodedPred::Range { lo: Some(lo), hi: None },
            ] {
                let want = vals.iter().filter(|&&v| pred.matches(v)).count() as u64;
                prop_assert_eq!(c.count_matching(&pred), want, "pred {:?}", pred);
            }
        }

        #[test]
        fn prop_columnar_store_roundtrips(
            cols in proptest::collection::vec(column_strategy(), 1..4)
        ) {
            let n = cols.iter().map(|c| c.len()).min().unwrap_or(0);
            let cols: Vec<Vec<u64>> =
                cols.into_iter().map(|mut c| { c.truncate(n); c }).collect();
            let m = matrix(cols);
            let s = ColumnarStore::encode(&m);
            prop_assert_eq!(s.packed_bytes(), s.to_bytes().len());
            let restored = ColumnarStore::from_bytes(&s.to_bytes());
            prop_assert!(restored.is_some());
            prop_assert_eq!(restored.unwrap().decompress().columns, m.columns);
        }
    }
}

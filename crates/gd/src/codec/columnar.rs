//! The columnar row store: one adaptively-chosen codec per column, plus the
//! [`RowStore`] enum that lets a sealed segment hold either this or the
//! GreedyGD store — whichever the size model says is smaller.

use ph_encoding::{read_uvarint, write_uvarint};

use crate::{EncodedMatrix, GdSplit, GdStore};

use super::column::{choose_codec, ColumnCodec};
use super::{uvarint_len, Codec, EncodedPred, MAX_CODEC_ROWS};

/// A sealed segment's rows, one codec per column.
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

    /// The codec sealed over column `c`.
    pub fn column(&self, c: usize) -> Option<&ColumnCodec> {
        self.columns.get(c)
    }

    /// Random access to one cell.
    pub fn get(&self, row: usize, col: usize) -> Option<u64> {
        self.columns.get(col)?.get(row)
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

/// A sealed segment's retained rows under whichever scheme won at seal time.
#[derive(Debug, Clone)]
pub enum RowStore {
    /// GreedyGD base/deviation store (the paper's scheme; also what every
    /// pre-PSG3 blob deserializes to).
    Gd(GdStore),
    /// Per-column adaptive codecs.
    Columnar(ColumnarStore),
}

impl RowStore {
    /// Rows held.
    pub fn n_rows(&self) -> usize {
        match self {
            RowStore::Gd(s) => s.n_rows(),
            RowStore::Columnar(s) => s.n_rows(),
        }
    }

    /// Columns held.
    pub fn n_columns(&self) -> usize {
        match self {
            RowStore::Gd(s) => s.n_columns(),
            RowStore::Columnar(s) => s.n_columns(),
        }
    }

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

    /// Codec name per column (`"greedy-gd"` for every column of a GD store).
    pub fn codec_names(&self) -> Vec<&'static str> {
        match self {
            RowStore::Gd(s) => vec!["greedy-gd"; s.n_columns()],
            RowStore::Columnar(s) => s.codec_names(),
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

/// Keeps the smaller of the two stores over a segment's rows, for a caller that
/// already holds the GD store: the columnar encode is all this adds. GD stays
/// the fallback whenever whole-row redundancy beats per-column shape.
pub fn choose_store(matrix: &EncodedMatrix, gd: GdStore) -> RowStore {
    smaller(ColumnarStore::encode(matrix), gd)
}

/// The store [`choose_store`] keeps of `GdStore::build(matrix, split)`, for a
/// caller that holds only the fitted split: the cascade is encoded first and
/// the GD store is built only if it can still win. Its serialized size is a
/// closed form that only grows with the number of bases, so the cheap lower
/// bound [`GdSplit::min_bases`] settles most seals — on machine-generated
/// tables the fit ends all-deviation (one base, rows verbatim) and the
/// per-column codecs win outright.
pub fn seal_store(matrix: &EncodedMatrix, split: &GdSplit) -> RowStore {
    let columnar = ColumnarStore::encode(matrix);
    let gd_at_least = GdStore::packed_size(
        matrix.n_rows,
        &split.widths,
        &split.dev_bits,
        split.min_bases(matrix),
    );
    if columnar.packed_bytes() < gd_at_least {
        return RowStore::Columnar(columnar);
    }
    smaller(columnar, GdStore::build(matrix, &split.widths, &split.dev_bits))
}

/// The columnar store when strictly smaller, else the GD store.
fn smaller(columnar: ColumnarStore, gd: GdStore) -> RowStore {
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
            (0..2_000u64).map(|i| 1_700_000_000 + i * 30).collect(), // delta
            (0..2_000u64).map(|i| i % 7).collect(),                  // dict
            vec![42; 2_000],                                         // runend
            (0..2_000u64).map(|i| i.wrapping_mul(0x9E37_79B9) >> 12).collect(), // bitpack
        ]);
        let s = ColumnarStore::encode(&m);
        assert_eq!(s.decompress().columns, m.columns);
        assert_eq!(s.packed_bytes(), s.to_bytes().len());
        let restored = ColumnarStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(restored.decompress().columns, m.columns);
        assert_eq!(restored.codec_names(), s.codec_names());
        for (c, col) in m.columns.iter().enumerate() {
            for &row in &[0usize, 1, 999, 1_999] {
                assert_eq!(restored.get(row, c), Some(col[row]));
            }
            assert_eq!(restored.get(2_000, c), None);
        }
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
        assert_eq!(store.codec_names().len(), 2);
    }

    /// `seal_store` is `choose_store` minus the GD store it can prove would
    /// lose: same kind, same bytes, on every shape — the cascade winning, GD
    /// winning, and fits that keep base bits (where the bound has to be right).
    #[test]
    fn seal_store_keeps_what_choose_store_keeps() {
        use crate::matrix::shapes::{shaped, SHAPES};
        let bytes = |s: &RowStore| match s {
            RowStore::Gd(s) => (0u8, s.to_bytes()),
            RowStore::Columnar(s) => (1u8, s.to_bytes()),
        };
        let mut kinds = [0usize; 2];
        for shape in 0..SHAPES {
            for (seed, n) in [(1u64, 1usize), (2, 40), (3, 900), (4, 2_500)] {
                let m = shaped(shape, n, seed);
                let compressor = GdCompressor::new();
                let sealed = seal_store(&m, &compressor.fit(&m));
                let chosen = choose_store(&m, compressor.compress(&m));
                assert_eq!(bytes(&sealed), bytes(&chosen), "shape {shape} seed {seed} n {n}");
                kinds[bytes(&sealed).0 as usize] += 1;
            }
        }
        assert!(kinds[0] > 0 && kinds[1] > 0, "both outcomes covered: {kinds:?}");
    }

    #[test]
    fn gd_store_count_matching_matches_scan() {
        let m = matrix(vec![(0..400u64).map(|i| i % 10).collect()]);
        let gd = RowStore::Gd(GdCompressor::new().compress(&m));
        assert_eq!(gd.count_matching(0, &EncodedPred::Eq(3)), Some(40));
        assert_eq!(gd.count_matching(1, &EncodedPred::Eq(3)), None);
        assert_eq!(gd.codec_names(), vec!["greedy-gd"]);
    }

    // -- property tests: every codec round-trips bit-identically, random access
    //    agrees with full decode, sizes are exact, predicates match a scan. --

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
                    for (i, &v) in vals.iter().enumerate() {
                        prop_assert_eq!(restored.get(i), Some(v));
                    }
                    prop_assert_eq!(restored.get(vals.len()), None);
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

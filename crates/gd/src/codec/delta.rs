//! Zigzag-delta encoding with periodic absolute anchors.
//!
//! Machine-generated numeric columns (timestamps above all) advance by a nearly
//! constant step, so consecutive differences span a tiny range even when the
//! absolute values need 40+ bits. Deltas are zigzag-mapped to unsigned, then
//! frame-of-reference packed; every [`DELTA_BLOCK`]'th row stores the absolute
//! value instead, so a block decodes on its own. A fixed-step column needs 0
//! bits per non-anchor row.

use ph_encoding::{unzigzag, uvarint_len, zigzag, BitReader, BitWriter, Bytes, Out};

use super::{width_for, EncodedPred};

/// Rows per block: one absolute anchor, then `DELTA_BLOCK - 1` deltas.
pub(crate) const DELTA_BLOCK: usize = 256;

/// Blocked zigzag-delta column store.
///
/// Wire layout: `uvarint n_rows | u8 anchor_width | u8 delta_width |
/// uvarint min_zz | packed` where each block is a plane of one absolute anchor
/// at `anchor_width` bits followed by a plane of its `min_zz`-subtracted
/// zigzag deltas at `delta_width` bits. All blocks except the last are full.
#[derive(Debug, Clone)]
pub struct DeltaCodec {
    n_rows: usize,
    anchor_width: u32,
    delta_width: u32,
    min_zz: u64,
    packed: Vec<u8>,
}

impl DeltaCodec {
    /// Encodes a column slice. Deltas use wrapping subtraction so arbitrary
    /// u64 sequences (including wrap-around) round-trip exactly.
    pub fn encode(values: &[u64]) -> Self {
        let (anchor_width, delta_width, min_zz) = Self::widths(values);
        let mut w = BitWriter::new();
        for block in values.chunks(DELTA_BLOCK) {
            w.write_plane(block.first().copied(), anchor_width);
            let deltas = block.windows(2).map(|p| zigzag(p[1].wrapping_sub(p[0]) as i64));
            w.write_plane(deltas.map(|zz| zz - min_zz), delta_width);
        }
        Self { n_rows: values.len(), anchor_width, delta_width, min_zz, packed: w.finish() }
    }

    fn widths(values: &[u64]) -> (u32, u32, u64) {
        let max = values.iter().copied().max().unwrap_or(0);
        let mut min_zz = u64::MAX;
        let mut max_zz = 0u64;
        let mut any = false;
        for r in 1..values.len() {
            if r % DELTA_BLOCK == 0 {
                continue;
            }
            let zz = zigzag(values[r].wrapping_sub(values[r - 1]) as i64);
            min_zz = min_zz.min(zz);
            max_zz = max_zz.max(zz);
            any = true;
        }
        if !any {
            min_zz = 0;
        }
        (width_for(max), width_for(max_zz - min_zz), min_zz)
    }

    /// Exact serialized size given precomputed column stats (max value plus
    /// the zigzag-delta range over non-anchor rows).
    pub fn size_for(n_rows: usize, max: u64, min_zz: u64, max_zz: u64) -> usize {
        let aw = width_for(max) as usize;
        let dw = width_for(max_zz.saturating_sub(min_zz)) as usize;
        let n_anchors = n_rows.div_ceil(DELTA_BLOCK);
        let bits = n_anchors * aw + (n_rows - n_anchors) * dw;
        uvarint_len(n_rows as u64) + 2 + uvarint_len(min_zz) + bits.div_ceil(8)
    }

    /// Every row's value, block by block: a running sum of the anchor and
    /// then the deltas.
    fn values(&self) -> impl Iterator<Item = u64> + '_ {
        let (n_rows, min_zz) = (self.n_rows, self.min_zz);
        let mut r = BitReader::new(&self.packed);
        (0..n_rows).step_by(DELTA_BLOCK).flat_map(move |start| {
            // `encode` wrote, or `from_bytes` checked, every block's bits.
            let anchor = r.read_plane(1, self.anchor_width).into_iter().flatten();
            let n_deltas = DELTA_BLOCK.min(n_rows - start) - 1;
            let deltas = r.read_plane(n_deltas, self.delta_width).into_iter().flatten();
            let steps = deltas.map(move |d| unzigzag(min_zz.wrapping_add(d)) as u64);
            anchor.chain(steps).scan(0u64, |v, step| {
                *v = v.wrapping_add(step);
                Some(*v)
            })
        })
    }

    /// Full decode back to the encoded-domain column.
    pub fn decode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n_rows);
        // `for_each` folds block by block; `extend` would step the flattened
        // iterator one row at a time.
        self.values().for_each(|v| out.push(v));
        out
    }

    /// Serialized size, `== to_bytes().len()`.
    pub fn packed_bytes(&self) -> usize {
        uvarint_len(self.n_rows as u64) + 2 + uvarint_len(self.min_zz) + self.packed.len()
    }

    /// Serializes to the wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes());
        out.uvarint(self.n_rows as u64);
        out.u8(self.anchor_width as u8);
        out.u8(self.delta_width as u8);
        out.uvarint(self.min_zz);
        out.bytes(&self.packed);
        out
    }

    /// Restores from [`to_bytes`](Self::to_bytes) output of `n_rows` rows;
    /// `None` on malformed input or another row count.
    pub fn from_bytes(data: &[u8], n_rows: usize) -> Option<Self> {
        let mut r = Bytes::new(data);
        r.uvarint().filter(|&n| n == n_rows as u64)?;
        let [anchor_width, delta_width] = r.array()?.map(u32::from);
        if anchor_width > 64 || delta_width > 64 {
            return None;
        }
        let min_zz = r.uvarint()?;
        let n_anchors = n_rows.div_ceil(DELTA_BLOCK) as u64;
        let delta_bits = (n_rows as u64 - n_anchors).checked_mul(delta_width.into())?;
        let bits = (n_anchors * u64::from(anchor_width)).checked_add(delta_bits)?;
        let packed = r.take(usize::try_from(bits.div_ceil(8)).ok()?)?.to_vec();
        r.finish()?;
        Some(Self { n_rows, anchor_width, delta_width, min_zz, packed })
    }

    /// Rows matching `pred`, decoded on the fly.
    pub fn count_matching(&self, pred: &EncodedPred) -> u64 {
        self.values().filter(|&v| pred.matches(v)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrips() {
        for d in [0i64, 1, -1, i64::MAX, i64::MIN, -123456] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn fixed_step_column_costs_no_delta_bits() {
        let vals: Vec<u64> = (0..1000u64).map(|i| 1_600_000_000 + i * 60).collect();
        let c = DeltaCodec::encode(&vals);
        assert_eq!(c.delta_width, 0);
        assert_eq!(c.decode(), vals);
        assert_eq!(c.packed_bytes(), c.to_bytes().len());
        let restored = DeltaCodec::from_bytes(&c.to_bytes(), vals.len()).unwrap();
        assert_eq!(restored.decode(), vals);
    }

    #[test]
    fn wrapping_sequences_roundtrip() {
        let vals = vec![u64::MAX, 0, u64::MAX - 3, 17, 1 << 63, 0];
        let c = DeltaCodec::encode(&vals);
        let restored = DeltaCodec::from_bytes(&c.to_bytes(), vals.len()).unwrap();
        assert_eq!(restored.decode(), vals);
    }

    #[test]
    fn multi_block_decode_crosses_anchors() {
        let vals: Vec<u64> = (0..700u64).map(|i| i * i % 9973).collect();
        let c = DeltaCodec::encode(&vals);
        assert_eq!(DeltaCodec::from_bytes(&c.to_bytes(), 700).unwrap().decode(), vals);
        let pred = EncodedPred::Range { lo: Some(100), hi: Some(5_000) };
        let want = vals.iter().filter(|&&v| pred.matches(v)).count() as u64;
        assert_eq!(c.count_matching(&pred), want);
        let (_, _, min_zz) = DeltaCodec::widths(&vals);
        let max = *vals.iter().max().unwrap();
        let max_zz = (1..vals.len())
            .filter(|r| r % DELTA_BLOCK != 0)
            .map(|r| zigzag(vals[r].wrapping_sub(vals[r - 1]) as i64))
            .max()
            .unwrap();
        assert_eq!(DeltaCodec::size_for(vals.len(), max, min_zz, max_zz), c.to_bytes().len());
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let vals: Vec<u64> = (0..300u64).collect();
        let bytes = DeltaCodec::encode(&vals).to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(DeltaCodec::from_bytes(&bytes[..cut], 300).is_none(), "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(DeltaCodec::from_bytes(&extra, 300).is_none());
        assert!(DeltaCodec::from_bytes(&bytes, 300).is_some());
        assert!(DeltaCodec::from_bytes(&bytes, 299).is_none(), "another row count");
    }
}

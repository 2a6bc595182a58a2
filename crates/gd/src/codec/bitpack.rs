//! Frame-of-reference bit packing: subtract the column minimum, store residuals
//! at the fixed width of the largest residual. Constant columns cost 0 bits/row.

use ph_encoding::{read_uvarint, write_uvarint, BitPlane};

use super::{uvarint_len, width_for, EncodedPred, MAX_CODEC_ROWS};

/// Minimum-subtracted fixed-width column store.
///
/// Wire layout: `uvarint n_rows | uvarint min | u8 width | residual plane`
/// (`n_rows` values at `width` bits).
#[derive(Debug, Clone)]
pub struct BitPackCodec {
    min: u64,
    residuals: BitPlane,
}

impl BitPackCodec {
    /// Encodes a column slice. Residual reconstruction uses wrapping addition,
    /// so even `min > 0` with width-64 residuals round-trips.
    pub fn encode(values: &[u64]) -> Self {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let residuals = BitPlane::pack(values.iter().map(|&v| v - min), width_for(max - min));
        Self { min, residuals }
    }

    /// Exact serialized size for a column with the given stats — lets
    /// [`choose_codec`](super::choose_codec) cost this codec without encoding.
    pub fn size_for(n_rows: usize, min: u64, max: u64) -> usize {
        let width = width_for(max - min) as usize;
        uvarint_len(n_rows as u64) + uvarint_len(min) + 1 + (n_rows * width).div_ceil(8)
    }

    /// Rows held.
    pub fn n_rows(&self) -> usize {
        self.residuals.len()
    }

    /// Every row's value.
    fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.residuals.iter().map(|r| self.min.wrapping_add(r))
    }

    /// Full decode back to the encoded-domain column.
    pub fn decode(&self) -> Vec<u64> {
        self.values().collect()
    }

    /// Serialized size, `== to_bytes().len()`.
    pub fn packed_bytes(&self) -> usize {
        uvarint_len(self.n_rows() as u64)
            + uvarint_len(self.min)
            + 1
            + self.residuals.as_bytes().len()
    }

    /// Serializes to the wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes());
        write_uvarint(&mut out, self.n_rows() as u64);
        write_uvarint(&mut out, self.min);
        out.push(self.residuals.width() as u8);
        out.extend_from_slice(self.residuals.as_bytes());
        out
    }

    /// Restores from [`to_bytes`](Self::to_bytes) output; `None` on malformed
    /// input.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let n_rows = read_uvarint(data, &mut pos)? as usize;
        if n_rows > MAX_CODEC_ROWS {
            return None;
        }
        let min = read_uvarint(data, &mut pos)?;
        let width = *data.get(pos)? as u32;
        let residuals = BitPlane::from_bytes(data.get(pos + 1..)?, n_rows, width)?;
        Some(Self { min, residuals })
    }

    /// Rows matching `pred`.
    pub fn count_matching(&self, pred: &EncodedPred) -> u64 {
        self.values().filter(|&v| pred.matches(v)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_column_is_header_only() {
        let c = BitPackCodec::encode(&[42; 1000]);
        assert_eq!(c.packed_bytes(), c.to_bytes().len());
        // uvarint(1000)=2 + uvarint(42)=1 + width byte: no per-row cost.
        assert_eq!(c.packed_bytes(), 4);
        assert_eq!(c.decode(), vec![42; 1000]);
        assert_eq!(c.count_matching(&EncodedPred::Eq(42)), 1000);
    }

    #[test]
    fn roundtrip_with_extremes() {
        let vals = vec![5, u64::MAX, 5, 1 << 52, 77];
        let c = BitPackCodec::encode(&vals);
        let restored = BitPackCodec::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(restored.decode(), vals);
        assert_eq!(c.packed_bytes(), c.to_bytes().len());
        assert_eq!(
            BitPackCodec::size_for(vals.len(), 5, u64::MAX),
            c.to_bytes().len()
        );
    }

    #[test]
    fn from_bytes_rejects_bad_payload_length() {
        let c = BitPackCodec::encode(&[1, 2, 3, 4]);
        let mut bytes = c.to_bytes();
        bytes.push(0);
        assert!(BitPackCodec::from_bytes(&bytes).is_none());
        bytes.truncate(bytes.len() - 2);
        assert!(BitPackCodec::from_bytes(&bytes).is_none());
        assert!(BitPackCodec::from_bytes(&[]).is_none());
    }

    #[test]
    fn count_matching_agrees_with_scan() {
        let vals: Vec<u64> = (0..500).map(|i| (i * 7) % 40).collect();
        let c = BitPackCodec::encode(&vals);
        let pred = EncodedPred::Range { lo: Some(10), hi: Some(20) };
        let want = vals.iter().filter(|&&v| pred.matches(v)).count() as u64;
        assert_eq!(c.count_matching(&pred), want);
    }
}

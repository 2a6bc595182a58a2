//! Run-end encoding: one (value, exclusive end) pair per run.
//!
//! Sorted or bursty categorical columns collapse to a handful of runs, and a
//! predicate is evaluated once per *run* — matching runs contribute their whole
//! length with one addition, so selective scans skip millions of rows.

use ph_encoding::{uvarint_len, BitWriter, Bytes, Out};

use super::{width_for, EncodedPred};

/// Run-end column store.
///
/// Wire layout: `uvarint n_rows | uvarint n_runs | uvarint min | u8 val_width |
/// u8 end_width | values plane | ends plane` — run values (`min`-subtracted,
/// `val_width` bits) then exclusive run ends (`end_width` bits, strictly
/// increasing, last one equal to `n_rows`), the two planes back to back.
#[derive(Debug, Clone)]
pub struct RunEndCodec {
    n_rows: usize,
    values: Vec<u64>,
    ends: Vec<u64>,
    min: u64,
    val_width: u32,
}

impl RunEndCodec {
    /// Encodes a column slice by collapsing consecutive equal values.
    pub fn encode(column: &[u64]) -> Self {
        let mut values = Vec::new();
        let mut ends = Vec::new();
        for (i, &v) in column.iter().enumerate() {
            if values.last() == Some(&v) {
                *ends.last_mut().unwrap() = i as u64 + 1;
            } else {
                values.push(v);
                ends.push(i as u64 + 1);
            }
        }
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        Self { n_rows: column.len(), values, ends, min, val_width: width_for(max - min) }
    }

    /// Exact serialized size given run count and the value range of the runs.
    pub fn size_for(n_rows: usize, n_runs: usize, min: u64, max: u64) -> usize {
        let vw = width_for(max.saturating_sub(min)) as usize;
        let ew = width_for(n_rows as u64) as usize;
        let bits = n_runs * (vw + ew);
        uvarint_len(n_rows as u64)
            + uvarint_len(n_runs as u64)
            + uvarint_len(min)
            + 2
            + bits.div_ceil(8)
    }

    #[inline]
    fn end_width(&self) -> u32 {
        width_for(self.n_rows as u64)
    }

    /// Full decode back to the encoded-domain column.
    pub fn decode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n_rows);
        let mut prev = 0u64;
        for (&v, &e) in self.values.iter().zip(&self.ends) {
            out.resize(out.len() + (e - prev) as usize, v);
            prev = e;
        }
        out
    }

    /// Serialized size, `== to_bytes().len()`.
    pub fn packed_bytes(&self) -> usize {
        let bits = self.values.len() * (self.val_width + self.end_width()) as usize;
        uvarint_len(self.n_rows as u64)
            + uvarint_len(self.values.len() as u64)
            + uvarint_len(self.min)
            + 2
            + bits.div_ceil(8)
    }

    /// Serializes to the wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes());
        out.uvarint(self.n_rows as u64);
        out.uvarint(self.values.len() as u64);
        out.uvarint(self.min);
        out.u8(self.val_width as u8);
        out.u8(self.end_width() as u8);
        let mut w = BitWriter::new();
        w.write_plane(self.values.iter().map(|&v| v - self.min), self.val_width);
        w.write_plane(self.ends.iter().copied(), self.end_width());
        out.bytes(&w.finish());
        out
    }

    /// Restores from [`to_bytes`](Self::to_bytes) output of `n_rows` rows;
    /// `None` on malformed input or another row count.
    pub fn from_bytes(data: &[u8], n_rows: usize) -> Option<Self> {
        let mut r = Bytes::new(data);
        r.uvarint().filter(|&n| n == n_rows as u64)?;
        let n_runs = usize::try_from(r.uvarint()?).ok().filter(|&n| n <= n_rows)?;
        let min = r.uvarint()?;
        let [val_width, end_width] = r.array()?.map(u32::from);
        if end_width != width_for(n_rows as u64) {
            return None;
        }
        // Both planes and nothing after them but the last byte's padding.
        let [values, ends] = r.planes([(n_runs, val_width), (n_runs, end_width)])?;
        r.finish()?;
        let values: Vec<u64> = values.map(|v| min.checked_add(v)).collect::<Option<_>>()?;
        let ends: Vec<u64> = ends.collect();
        // Strictly increasing from ≥ 1, the last one closing the column.
        let increasing = ends.first() != Some(&0) && ends.windows(2).all(|w| w[0] < w[1]);
        if !increasing || ends.last().copied().unwrap_or(0) != n_rows as u64 {
            return None;
        }
        Some(Self { n_rows, values, ends, min, val_width })
    }

    /// Rows matching `pred`, one test per run.
    pub fn count_matching(&self, pred: &EncodedPred) -> u64 {
        let mut count = 0u64;
        let mut prev = 0u64;
        for (&v, &e) in self.values.iter().zip(&self.ends) {
            if pred.matches(v) {
                count += e - prev;
            }
            prev = e;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_encoding::BitPlane;

    #[test]
    fn collapses_runs_and_roundtrips() {
        let vals: Vec<u64> = [5u64; 300]
            .iter()
            .chain([9u64; 200].iter())
            .chain([5u64; 100].iter())
            .copied()
            .collect();
        let c = RunEndCodec::encode(&vals);
        assert_eq!(c.ends, [300, 500, 600]);
        assert_eq!(c.decode(), vals);
        assert_eq!(c.packed_bytes(), c.to_bytes().len());
        let restored = RunEndCodec::from_bytes(&c.to_bytes(), 600).unwrap();
        assert_eq!(restored.decode(), vals);
        assert_eq!(RunEndCodec::size_for(600, 3, 5, 9), c.to_bytes().len());
    }

    #[test]
    fn run_skipping_counts() {
        let vals: Vec<u64> = [1u64; 1000]
            .iter()
            .chain([2u64; 500].iter())
            .chain([1u64; 250].iter())
            .copied()
            .collect();
        let c = RunEndCodec::encode(&vals);
        assert_eq!(c.count_matching(&EncodedPred::Eq(1)), 1250);
        assert_eq!(c.count_matching(&EncodedPred::Eq(2)), 500);
        assert_eq!(c.count_matching(&EncodedPred::Eq(3)), 0);
        let r = EncodedPred::Range { lo: Some(2), hi: None };
        assert_eq!(c.count_matching(&r), 500);
    }

    #[test]
    fn empty_column() {
        let c = RunEndCodec::encode(&[]);
        assert_eq!(c.decode(), Vec::<u64>::new());
        let restored = RunEndCodec::from_bytes(&c.to_bytes(), 0).unwrap();
        assert!(restored.decode().is_empty());
    }

    #[test]
    fn from_bytes_rejects_non_monotone_ends() {
        let vals = vec![1u64, 1, 2, 2, 3];
        let good = RunEndCodec::encode(&vals).to_bytes();
        assert!(RunEndCodec::from_bytes(&good, 5).is_some());
        assert!(RunEndCodec::from_bytes(&good, 6).is_none(), "another row count");
        for cut in 0..good.len() {
            assert!(RunEndCodec::from_bytes(&good[..cut], 5).is_none(), "cut {cut}");
        }
        // Hand-built ends over 4 rows: only strictly increasing ones from
        // ≥ 1 that end at n_rows are accepted.
        for (ends, ok) in
            [(vec![2u64, 4], true), (vec![2], false), (vec![4, 4], false), (vec![0, 4], false)]
        {
            let mut bytes = Vec::new();
            bytes.uvarint(4); // n_rows
            bytes.uvarint(ends.len() as u64); // n_runs
            bytes.uvarint(7); // min
            bytes.bytes(&[0, 3]); // val_width, end_width = width_for(4)
            bytes.plane(&BitPlane::pack(ends.iter().copied(), 3));
            assert_eq!(RunEndCodec::from_bytes(&bytes, 4).is_some(), ok, "ends {ends:?}");
        }
    }
}

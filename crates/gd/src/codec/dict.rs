//! Dictionary + bit-packed codes for low-cardinality columns.
//!
//! The dictionary is the **sorted** distinct value set, so code order equals
//! value order: equality predicates binary-search the dictionary and compare
//! codes, range predicates become a contiguous code interval — both evaluate
//! on the packed codes without materializing a single value.

use ph_encoding::{uvarint_len, BitPlane, Bytes, Out};

use super::{width_for, EncodedPred};

/// Sorted-dictionary column store.
///
/// Wire layout: `uvarint n_rows | uvarint k | dict | u8 code_width | code
/// plane`, where `dict` is `uvarint dict[0]` followed by `k-1` uvarint gaps
/// (`dict[i] - dict[i-1]`, each ≥ 1 — strictly ascending by construction) and
/// the plane holds `n_rows` codes at `code_width` bits.
#[derive(Debug, Clone)]
pub struct DictCodec {
    dict: Vec<u64>,
    codes: BitPlane,
    dict_bytes: usize,
}

fn dict_payload_len(dict: &[u64]) -> usize {
    match dict.first() {
        None => 0,
        Some(&first) => {
            uvarint_len(first) + dict.windows(2).map(|w| uvarint_len(w[1] - w[0])).sum::<usize>()
        }
    }
}

impl DictCodec {
    /// Encodes a column slice through its sorted distinct-value dictionary.
    pub fn encode(values: &[u64]) -> Self {
        let mut dict: Vec<u64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        // Present by construction: dict is the distinct set of values.
        let codes = values.iter().map(|v| dict.binary_search(v).unwrap_or(0) as u64);
        let codes = BitPlane::pack(codes, width_for(dict.len().saturating_sub(1) as u64));
        let dict_bytes = dict_payload_len(&dict);
        Self { dict, codes, dict_bytes }
    }

    /// Exact serialized size given the sorted distinct set of the column.
    pub fn size_for(n_rows: usize, sorted_distinct: &[u64]) -> usize {
        let k = sorted_distinct.len();
        let cw = width_for(k.saturating_sub(1) as u64) as usize;
        uvarint_len(n_rows as u64)
            + uvarint_len(k as u64)
            + dict_payload_len(sorted_distinct)
            + 1
            + (n_rows * cw).div_ceil(8)
    }

    /// The code interval `[lo, hi)` whose dictionary values satisfy `pred`,
    /// empty if none do. Valid because the dictionary is sorted ascending.
    fn code_interval(&self, pred: &EncodedPred) -> (u64, u64) {
        match *pred {
            EncodedPred::Eq(v) => match self.dict.binary_search(&v) {
                Ok(c) => (c as u64, c as u64 + 1),
                Err(_) => (0, 0),
            },
            EncodedPred::Range { lo, hi } => {
                let start = match lo {
                    Some(l) => self.dict.partition_point(|&d| d < l),
                    None => 0,
                };
                let end = match hi {
                    Some(h) => self.dict.partition_point(|&d| d <= h),
                    None => self.dict.len(),
                };
                (start as u64, end.max(start) as u64)
            }
        }
    }

    /// Rows held.
    pub fn n_rows(&self) -> usize {
        self.codes.len()
    }

    /// Full decode back to the encoded-domain column.
    pub fn decode(&self) -> Vec<u64> {
        // from_bytes validated every code < k.
        self.codes.iter().map(|c| self.dict.get(c as usize).copied().unwrap_or(0)).collect()
    }

    /// Serialized size, `== to_bytes().len()`.
    pub fn packed_bytes(&self) -> usize {
        uvarint_len(self.n_rows() as u64)
            + uvarint_len(self.dict.len() as u64)
            + self.dict_bytes
            + 1
            + self.codes.as_bytes().len()
    }

    /// Serializes to the wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes());
        out.uvarint(self.n_rows() as u64);
        out.uvarint(self.dict.len() as u64);
        if let Some(&first) = self.dict.first() {
            out.uvarint(first);
            for w in self.dict.windows(2) {
                out.uvarint(w[1] - w[0]);
            }
        }
        out.u8(self.codes.width() as u8);
        out.plane(&self.codes);
        out
    }

    /// Restores from [`to_bytes`](Self::to_bytes) output of `n_rows` rows;
    /// `None` on malformed input or another row count.
    pub fn from_bytes(data: &[u8], n_rows: usize) -> Option<Self> {
        let mut r = Bytes::new(data);
        r.uvarint().filter(|&n| n == n_rows as u64)?;
        // Every entry takes at least a byte.
        let k = r.uvarint()?;
        let k = r.count(k, 1)?;
        let mut dict = Vec::with_capacity(k);
        if k > 0 {
            let mut v = r.uvarint()?;
            dict.push(v);
            for _ in 1..k {
                // Gaps of 0 would not be strictly ascending.
                v = v.checked_add(r.uvarint().filter(|&gap| gap > 0)?)?;
                dict.push(v);
            }
        }
        let code_width = r.u8()? as u32;
        if code_width != width_for(k.saturating_sub(1) as u64) {
            return None;
        }
        let codes = r.plane(n_rows, code_width)?;
        r.finish()?;
        // Every code names an entry, so decode stays total.
        if codes.max().is_some_and(|c| c >= k as u64) {
            return None;
        }
        let dict_bytes = dict_payload_len(&dict);
        Some(Self { dict, codes, dict_bytes })
    }

    /// Rows matching `pred`, counted on the codes.
    pub fn count_matching(&self, pred: &EncodedPred) -> u64 {
        let (lo, hi) = self.code_interval(pred);
        if lo >= hi {
            return 0; // no dictionary value matches: no row can
        }
        self.codes.iter().filter(|c| (lo..hi).contains(c)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_low_cardinality() {
        let vals: Vec<u64> = (0..600).map(|i| [3u64, 900, 7, 3, 100][i % 5]).collect();
        let c = DictCodec::encode(&vals);
        assert_eq!(c.dict, [3, 7, 100, 900]);
        assert_eq!(c.decode(), vals);
        assert_eq!(c.packed_bytes(), c.to_bytes().len());
        let restored = DictCodec::from_bytes(&c.to_bytes(), vals.len()).unwrap();
        assert_eq!(restored.decode(), vals);
        let mut distinct = vals.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(DictCodec::size_for(vals.len(), &distinct), c.to_bytes().len());
    }

    #[test]
    fn single_value_column_has_no_code_bits() {
        let c = DictCodec::encode(&[9; 512]);
        assert_eq!(c.codes.width(), 0);
        assert_eq!(c.decode(), vec![9; 512]);
        assert_eq!(c.count_matching(&EncodedPred::Eq(9)), 512);
        assert_eq!(c.count_matching(&EncodedPred::Eq(8)), 0);
        let restored = DictCodec::from_bytes(&c.to_bytes(), 512).unwrap();
        assert_eq!(restored.decode(), vec![9; 512]);
    }

    #[test]
    fn predicates_resolve_to_code_intervals() {
        let vals = vec![10u64, 20, 30, 20, 10, 40, 40, 40];
        let c = DictCodec::encode(&vals);
        assert_eq!(c.count_matching(&EncodedPred::Eq(20)), 2);
        assert_eq!(c.count_matching(&EncodedPred::Eq(25)), 0);
        let r = EncodedPred::Range { lo: Some(15), hi: Some(35) };
        assert_eq!(c.count_matching(&r), 3);
        let open = EncodedPred::Range { lo: None, hi: Some(10) };
        assert_eq!(c.count_matching(&open), 2);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let c = DictCodec::encode(&[1u64, 5, 9, 5, 1]);
        let bytes = c.to_bytes();
        assert!(DictCodec::from_bytes(&bytes, 5).is_some());
        assert!(DictCodec::from_bytes(&bytes, 4).is_none(), "another row count");
        for cut in 0..bytes.len() {
            assert!(DictCodec::from_bytes(&bytes[..cut], 5).is_none(), "cut {cut}");
        }
        // Zero gap (duplicate dict entry) must be rejected.
        let mut zero_gap = Vec::new();
        zero_gap.uvarint(2); // n_rows
        zero_gap.uvarint(2); // k
        zero_gap.uvarint(5); // dict[0]
        zero_gap.uvarint(0); // gap of 0 — invalid
        zero_gap.u8(1); // code_width
        zero_gap.u8(0x00);
        assert!(DictCodec::from_bytes(&zero_gap, 2).is_none());
        // A code past the dictionary must be rejected too.
        let mut bad_code = c.to_bytes();
        *bad_code.last_mut().unwrap() |= 0xC0; // row 4's code 0 -> 3, with k = 3
        assert!(DictCodec::from_bytes(&bad_code, 5).is_none());
    }

    /// A body of `codes` at the narrowest width for a `k`-entry dictionary
    /// (`0, 1, …, k-1`), whatever the codes are.
    fn body_with_codes(k: u64, codes: &[u64]) -> Vec<u8> {
        let mut body = Vec::new();
        body.uvarint(codes.len() as u64);
        body.uvarint(k);
        body.uvarint(0);
        for _ in 1..k {
            body.uvarint(1);
        }
        let width = width_for(k - 1);
        body.u8(width as u8);
        body.plane(&BitPlane::pack(codes.iter().copied(), width));
        body
    }

    /// One code equal to `k` is refused wherever the packed check meets it:
    /// the first value, mid-plane, the first value inside the last eight
    /// bytes (read by the gather tail) and the last one; `k - 1` there is
    /// accepted. Width 8 and 16 take the byte-chunk path, 2 and 13 the
    /// eight-value groups. (Width 1 has no code equal to `k`, and width 32
    /// takes a 2^31-entry dictionary.)
    #[test]
    fn from_bytes_refuses_one_code_equal_to_k_anywhere() {
        for width in [2u32, 8, 13, 16] {
            let k = (1u64 << (width - 1)) + 1;
            let n = 300;
            let codes: Vec<u64> = (0..n as u64).map(|i| i * 7919 % (k - 1)).collect();
            let tail_bit = 8 * ((n * width as usize).div_ceil(8) - 8);
            let first_in_tail = tail_bit.div_ceil(width as usize);
            for row in [0, n / 2, first_in_tail, n - 1] {
                let mut codes = codes.clone();
                codes[row] = k - 1;
                let ok = body_with_codes(k, &codes);
                assert!(DictCodec::from_bytes(&ok, n).is_some(), "width {width}, row {row}");
                codes[row] = k;
                let bad = body_with_codes(k, &codes);
                assert!(DictCodec::from_bytes(&bad, n).is_none(), "width {width}, row {row}");
            }
        }
    }

    /// A width-0 plane costs no bytes whatever its rows: a one-entry
    /// dictionary over 2^28 rows validates without walking them.
    #[test]
    fn from_bytes_validates_a_width_zero_plane_without_walking_it() {
        let rows = 1usize << 28;
        let mut body = Vec::new();
        body.uvarint(rows as u64);
        body.uvarint(1); // k
        body.uvarint(42); // dict[0]
        body.u8(0); // code_width
        let c = DictCodec::from_bytes(&body, rows).unwrap();
        assert_eq!((c.n_rows(), c.codes.max()), (rows, Some(0)));
        assert_eq!(c.to_bytes(), body);
    }

    /// A claimed dictionary size the body cannot back fails before anything is
    /// sized from it.
    #[test]
    fn from_bytes_bounds_k_by_the_body() {
        let mut body = Vec::new();
        body.uvarint(0); // n_rows
        body.uvarint(1 << 28); // k
        assert_eq!(body.len(), 6);
        assert!(DictCodec::from_bytes(&body, 0).is_none());
    }
}

//! Adaptive per-column codecs for sealed-segment row stores.
//!
//! GreedyGD treats a row as one unit: every column contributes bits to a shared
//! base/deviation split, and compression comes from whole-row redundancy. Real
//! machine-generated tables are *column*-heterogeneous — a timestamp advances by
//! a fixed step, a sub-metering column is 90 % zeros, a categorical column has a
//! dozen distinct values, a voltage column is dense noise — and each shape has a
//! specialist encoder that beats the row-wise split on that column alone
//! ("High-Ratio Compression for Machine-Generated Data", PAPERS.md).
//!
//! This module provides those specialists, dispatched through [`ColumnCodec`].
//! Each is a transform in front of one packer: every fixed-width array it
//! stores is a [`BitPlane`](ph_encoding::BitPlane).
//!
//! * [`BitPackCodec`] — frame-of-reference: minimum subtracted, residuals at a
//!   fixed bit width (degenerates to **0 bits/row** on constant columns);
//! * [`DeltaCodec`] — zigzag deltas with their own frame of reference, plus
//!   an absolute anchor every block (0 bits/row on fixed-step timestamps);
//! * [`DictCodec`] — sorted distinct-value dictionary + bit-packed codes; code
//!   order equals value order, so equality *and* range predicates evaluate on
//!   the codes without materializing values;
//! * [`RunEndCodec`] — run values + exclusive run ends; predicates skip whole
//!   runs.
//!
//! [`choose_codec`] picks per column from one pass of cheap statistics
//! (value range, run structure, bounded distinct count, delta spread) by exact
//! serialized-size accounting. [`ColumnarStore`] applies it to every column of
//! a matrix and is the one row store a sealed segment keeps: on every bundled
//! dataset it is smaller than GreedyGD's (DESIGN §2). [`choose_store`] keeps
//! the smaller of the two for the storage experiments that compare them; GD
//! wins on whole-row duplication.
//!
//! Every codec's `from_bytes` validates enough that `decode` and
//! `count_matching` are total afterwards — corrupted payloads fail at load with
//! `None`, never at read with a panic — matching the serving-path posture of
//! ph-lint rule R2.

mod bitpack;
mod column;
mod columnar;
mod delta;
mod dict;
mod fsst;
mod runend;

pub use bitpack::BitPackCodec;
pub use column::{choose_codec, ColumnCodec};
pub use columnar::{choose_store, ColumnarStore, RowStore};
pub use delta::DeltaCodec;
pub use dict::DictCodec;
pub use fsst::SymbolTable;
pub use runend::RunEndCodec;

/// Upper bound on `n_rows` accepted from serialized input: a corrupted length
/// field must never translate into a multi-gigabyte allocation.
pub(crate) const MAX_CODEC_ROWS: usize = 1 << 28;

/// A predicate over one column in the *encoded* (non-negative integer) domain,
/// with **inclusive** bounds. Literals are mapped into this domain by
/// [`Preprocessor::encode_literal`](crate::Preprocessor::encode_literal); the
/// codecs evaluate it directly on their compressed representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedPred {
    /// Exact match on one encoded value (dictionary codes, categorical ranks).
    Eq(u64),
    /// `lo ≤ v ≤ hi`; a missing bound is unbounded on that side.
    Range {
        /// Inclusive lower bound.
        lo: Option<u64>,
        /// Inclusive upper bound.
        hi: Option<u64>,
    },
}

impl EncodedPred {
    /// Whether an encoded value satisfies the predicate.
    #[inline]
    pub fn matches(&self, v: u64) -> bool {
        match *self {
            EncodedPred::Eq(t) => v == t,
            EncodedPred::Range { lo, hi } => {
                lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v <= h)
            }
        }
    }
}

/// Bit width needed for `v`, allowing **zero** for `v == 0` — unlike
/// [`ph_encoding::bits_for`], which floors at 1. A constant column's residuals
/// are all zero and should cost 0 bits/row, not 1.
#[inline]
pub(crate) fn width_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Serialized length of a uvarint, for O(1) size accounting.
#[inline]
pub(crate) fn uvarint_len(v: u64) -> usize {
    let mut v = v;
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_allows_zero() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn uvarint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            ph_encoding::write_uvarint(&mut buf, v);
            assert_eq!(uvarint_len(v), buf.len(), "v = {v}");
        }
    }

    #[test]
    fn pred_matches_inclusive_bounds() {
        let p = EncodedPred::Range { lo: Some(3), hi: Some(7) };
        assert!(!p.matches(2));
        assert!(p.matches(3));
        assert!(p.matches(7));
        assert!(!p.matches(8));
        let open = EncodedPred::Range { lo: None, hi: None };
        assert!(open.matches(0) && open.matches(u64::MAX));
        assert!(EncodedPred::Eq(5).matches(5));
        assert!(!EncodedPred::Eq(5).matches(6));
    }
}

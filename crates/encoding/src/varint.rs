//! LEB128-style unsigned varints for header fields of variable magnitude.

use crate::bytes::Out;

/// Appends `v` as a little-endian base-128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, v: u64) {
    out.uvarint(v);
}

/// Serialized length of `v` as a uvarint, for O(1) size accounting.
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `v` as a zigzag-mapped varint ([`Out::ivarint`]).
pub fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    out.ivarint(v);
}

/// Reads a zigzag varint written by [`write_ivarint`]; `None` on truncated or
/// over-long input.
pub fn read_ivarint(data: &[u8], pos: &mut usize) -> Option<i64> {
    read_uvarint(data, pos).map(unzigzag)
}

/// Maps signed to unsigned so small magnitudes stay small: 0, -1, 1, -2 → 0, 1, 2, 3.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads a varint from `data` starting at `*pos`, advancing `*pos`; `None` on
/// truncated or over-long (>10 byte) input.
pub fn read_uvarint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_known() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            assert_eq!(uvarint_len(v), buf.len(), "v = {v}");
        }
    }

    #[test]
    fn truncated_is_none() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), None);
    }

    #[test]
    fn ivarint_small_magnitudes_are_one_byte() {
        for v in [0i64, 1, -1, 63, -63] {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            assert_eq!(buf.len(), 1, "v={v}");
            let mut pos = 0;
            assert_eq!(read_ivarint(&buf, &mut pos), Some(v));
        }
    }

    proptest! {
        #[test]
        fn prop_ivarint_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            prop_assert!(buf.len() <= 10);
            let mut pos = 0;
            prop_assert_eq!(read_ivarint(&buf, &mut pos), Some(v));
        }

        #[test]
        fn prop_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            prop_assert_eq!(uvarint_len(v), buf.len());
            let mut pos = 0;
            prop_assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
        }
    }
}

//! The wire layer in both directions: [`Bytes`], the one bounded cursor every
//! durable format decodes through, [`Out`], its mirror that every durable
//! format encodes through with the same verbs, and the catalog frame
//! ([`frame`] / [`unframe`]) around the blobs that carry a CRC trailer.
//!
//! The rule the reader enforces: **no reservation exceeds what its bytes can
//! back**. A decoder reads a length or a count off the wire, and
//! [`Bytes::count`] turns it into a `usize` only when that many items of at
//! least `min_bytes_each` bytes fit in what is left; that is the one value a
//! decoder sizes a `with_capacity`, `reserve` or `vec![_; n]` from (the
//! `bounded-reserve` lint rule holds the decoders to it). Every other read —
//! fixed-width integers, uvarints, slices, strings, bit planes — is bounded by
//! the bytes left, so a hostile length fails with `None` before anything is
//! sized from it. A count no byte backs — the rows of a width-0 plane — the
//! decoder takes from the parent that committed it.

use crate::bitio::{plane_values, BitPlane};
use crate::crc32::crc32;
use crate::varint::{read_ivarint, read_uvarint, zigzag};

/// A read position over a byte slice. Every read either returns what it asked
/// for and moves past it, or returns `None`.
#[derive(Debug, Clone)]
pub struct Bytes<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes read so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// `Some(())` when every byte has been read: what a decoder ends on, so
    /// trailing bytes reject the body.
    #[inline]
    pub fn finish(&self) -> Option<()> {
        self.is_empty().then_some(())
    }

    /// `n` as a length that may size a reservation: `Some` only when `n` items
    /// of at least `min_bytes_each` bytes each fit in the bytes left.
    #[inline]
    pub fn count(&self, n: u64, min_bytes_each: usize) -> Option<usize> {
        let n = usize::try_from(n).ok()?;
        (n.checked_mul(min_bytes_each)? <= self.remaining()).then_some(n)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.data.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(out)
    }

    /// Every byte left.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.data[self.pos..];
        self.pos = self.data.len();
        out
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian bits.
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A little-endian unsigned integer `width` (1..=8) bytes wide.
    #[inline]
    pub fn uint(&mut self, width: usize) -> Option<u64> {
        let mut buf = [0u8; 8];
        buf.get_mut(..width)?.copy_from_slice(self.take(width)?);
        Some(u64::from_le_bytes(buf))
    }

    /// A uvarint ([`Out::uvarint`]).
    #[inline]
    pub fn uvarint(&mut self) -> Option<u64> {
        read_uvarint(self.data, &mut self.pos)
    }

    /// A zigzag ivarint ([`Out::ivarint`]).
    #[inline]
    pub fn ivarint(&mut self) -> Option<i64> {
        read_ivarint(self.data, &mut self.pos)
    }

    /// The next `len` bytes as UTF-8.
    #[inline]
    pub fn str(&mut self, len: usize) -> Option<&'a str> {
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// A uvarint length, then that many bytes of UTF-8.
    pub fn uvarint_str(&mut self) -> Option<&'a str> {
        let len = usize::try_from(self.uvarint()?).ok()?;
        self.str(len)
    }

    /// One byte-aligned [`BitPlane`] of `len` values at `width` bits: its
    /// `⌈len·width / 8⌉` bytes, copied.
    pub fn plane(&mut self, len: usize, width: u32) -> Option<BitPlane> {
        let bits = (len as u64).checked_mul(width as u64)?;
        let bytes = self.take(usize::try_from(bits.div_ceil(8)).ok()?)?;
        BitPlane::from_bytes(bytes, len, width)
    }

    /// The next `N` bit planes, packed back to back from this byte on and
    /// zero-padded to a byte after the last: shape `(len, width)` each. Every
    /// plane's bits are checked before any value is read, so a plane that
    /// costs nothing (width 0) cannot be collected ahead of a sibling the body
    /// does not hold. `None`, and the cursor stays put, if one width exceeds
    /// 64 or the bytes left cannot hold them all.
    pub fn planes<const N: usize>(
        &mut self,
        shapes: [(usize, u32); N],
    ) -> Option<[impl ExactSizeIterator<Item = u64> + 'a; N]> {
        let mut bits = 0u64;
        for (len, width) in shapes {
            let plane = (width <= 64).then(|| (len as u64).checked_mul(width as u64))??;
            bits = bits.checked_add(plane)?;
        }
        let data = self.take(usize::try_from(bits.div_ceil(8)).ok()?)?;
        let mut pos = 0u64;
        Some(shapes.map(|(len, width)| {
            let values = plane_values(data, pos, len, width);
            pos += len as u64 * width as u64;
            values
        }))
    }
}

/// The writer twin of [`Bytes`]: each verb appends what the reader's verb of
/// the same name reads back, into the `Vec<u8>` an encoder was handed.
pub trait Out {
    /// Raw bytes, as they are ([`Bytes::take`]).
    fn bytes(&mut self, b: &[u8]);

    /// One byte.
    fn u8(&mut self, v: u8);

    /// A little-endian `u16`.
    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64` as its little-endian bits.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The low `width` (1..=8) bytes of `v`, little-endian; `v` must fit.
    fn uint(&mut self, v: u64, width: usize) {
        debug_assert!(width >= 8 || v >> (8 * width) == 0, "{v} exceeds {width} bytes");
        let le = v.to_le_bytes();
        self.bytes(le.get(..width).unwrap_or(&le));
    }

    /// A LEB128 uvarint: seven bits a byte, low bits first.
    fn uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// A zigzag-mapped uvarint: small magnitudes of either sign take a byte.
    fn ivarint(&mut self, v: i64) {
        self.uvarint(zigzag(v));
    }

    /// A uvarint length, then the string's UTF-8 bytes.
    fn uvarint_str(&mut self, s: &str) {
        self.uvarint(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// One byte-aligned bit plane: its bytes, not its shape ([`Bytes::plane`]).
    fn plane(&mut self, p: &BitPlane) {
        self.bytes(p.as_bytes());
    }
}

impl Out for Vec<u8> {
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }

    #[inline]
    fn u8(&mut self, v: u8) {
        self.push(v);
    }
}

/// Wraps a body in the catalog frame: `magic | u8 version | body | u32 crc32`
/// of every byte before the trailer, little-endian.
pub fn frame(magic: &[u8; 4], version: u8, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.bytes(magic);
    out.u8(version);
    write_body(&mut out);
    let crc = crc32(&out);
    out.u32(crc);
    out
}

/// A cursor over the body of a blob [`frame`] wrote, or `None` when the
/// header is not `magic` at `version` or the checksum fails — in which case
/// none of the other bytes can be trusted, not even their length fields.
pub fn unframe<'a>(magic: &[u8; 4], version: u8, data: &'a [u8]) -> Option<Bytes<'a>> {
    let body = check_crc(data)?.strip_prefix(magic)?.strip_prefix(&[version])?;
    Some(Bytes::new(body))
}

/// The bytes before a `u32` CRC32 trailer, if the trailer is theirs: the
/// checksum as one more bytes → bytes stage.
fn check_crc(data: &[u8]) -> Option<&[u8]> {
    let (covered, trailer) = data.split_last_chunk::<4>()?;
    (crc32(covered) == u32::from_le_bytes(*trailer)).then_some(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_uvarint, BitWriter};

    #[test]
    fn fixed_width_reads_are_little_endian_and_bounded() {
        let mut data = vec![7u8];
        data.extend_from_slice(&0xBEEFu16.to_le_bytes());
        data.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        data.extend_from_slice(&u64::MAX.to_le_bytes());
        data.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        data.extend_from_slice(&[0x34, 0x12, 0x00]);
        let mut r = Bytes::new(&data);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.f64(), Some(1.5));
        assert_eq!(r.uint(3), Some(0x1234));
        assert!(r.finish().is_some());
        assert_eq!((r.u8(), r.uint(0)), (None, Some(0)));
        assert_eq!(Bytes::new(&[1, 2]).u32(), None);
        assert_eq!(Bytes::new(&[0; 9]).uint(9), None);
    }

    /// Each verb of the writer writes what the reader's verb of the same
    /// name reads back, and nothing else.
    #[test]
    fn out_writes_what_bytes_reads() {
        let plane = BitPlane::pack([5u64, 0, 3].into_iter(), 3);
        let mut out = Vec::new();
        out.u8(7);
        out.u16(0xBEEF);
        out.u32(0xDEAD_BEEF);
        out.u64(u64::MAX);
        out.f64(-0.25);
        out.uint(0x12_3456, 3);
        out.uint(u64::MAX, 8);
        out.uvarint(300);
        out.ivarint(-2);
        out.uvarint_str("é!");
        out.plane(&plane);
        out.bytes(b"end");
        let mut r = Bytes::new(&out);
        assert_eq!(
            (r.u8(), r.u16(), r.u32(), r.u64()),
            (Some(7), Some(0xBEEF), Some(0xDEAD_BEEF), Some(u64::MAX))
        );
        assert_eq!((r.f64(), r.uint(3), r.uint(8)), (Some(-0.25), Some(0x12_3456), Some(u64::MAX)));
        assert_eq!((r.uvarint(), r.ivarint(), r.uvarint_str()), (Some(300), Some(-2), Some("é!")));
        assert_eq!(r.plane(3, 3), Some(plane));
        assert_eq!(r.rest(), b"end");
        assert_eq!(out.len(), 1 + 2 + 4 + 8 + 8 + 3 + 8 + 2 + 1 + 4 + 2 + 3);
    }

    #[test]
    fn a_short_read_moves_nothing() {
        let mut r = Bytes::new(b"abcdef");
        assert_eq!(r.take(2), Some(&b"ab"[..]));
        assert_eq!(r.take(5), None);
        assert_eq!(r.take(usize::MAX), None);
        assert_eq!(r.position(), 2);
        assert_eq!(r.str(4), Some("cdef"));
        assert_eq!(r.rest(), b"");
    }

    #[test]
    fn strings_are_utf8_bounded_by_the_bytes_left() {
        let mut data = Vec::new();
        write_uvarint(&mut data, 3);
        data.extend_from_slice("é!".as_bytes());
        write_uvarint(&mut data, 1);
        data.push(0xFF);
        let mut r = Bytes::new(&data);
        assert_eq!(r.uvarint_str(), Some("é!"));
        assert_eq!(r.uvarint_str(), None, "not UTF-8");
        let mut huge = Vec::new();
        write_uvarint(&mut huge, u64::MAX);
        assert_eq!(Bytes::new(&huge).uvarint_str(), None);
    }

    #[test]
    fn count_is_backed_by_the_bytes_left() {
        let r = Bytes::new(&[0; 10]);
        assert_eq!(r.count(10, 1), Some(10));
        assert_eq!(r.count(5, 2), Some(5));
        assert_eq!(r.count(11, 1), None);
        assert_eq!(r.count(6, 2), None);
        assert_eq!(r.count(u64::MAX, 1), None);
        assert_eq!(r.count(1 << 62, 8), None, "the product overflows");
        assert_eq!(r.count(u64::MAX, 0).is_some(), usize::BITS == 64);
    }

    /// Planes written back to back read back as written, and a body that
    /// holds one plane but not its sibling yields neither.
    #[test]
    fn planes_are_checked_together_before_any_is_read() {
        let mut w = BitWriter::new();
        w.write_plane((0..10u64).map(|i| i * 3), 5);
        w.write_plane([7u64, 0, 7], 3);
        let mut data = w.finish();
        data.push(0xAB);
        let mut r = Bytes::new(&data);
        let [a, b] = r.planes([(10, 5), (3, 3)]).unwrap();
        assert_eq!(a.collect::<Vec<_>>(), (0..10u64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(b.collect::<Vec<_>>(), [7, 0, 7]);
        assert_eq!(r.u8(), Some(0xAB), "the cursor moved past the padding");

        let mut r = Bytes::new(&data);
        assert!(r.planes([(1 << 40, 0), (1 << 20, 29)]).is_none());
        assert!(r.planes([(1, 65)]).is_none());
        assert!(r.planes([(usize::MAX, 64)]).is_none());
        assert_eq!(r.position(), 0);
        assert_eq!(r.planes([(1 << 40, 0)]).map(|[p]| p.len()), Some(1 << 40));
    }

    #[test]
    fn a_plane_takes_exactly_its_bytes() {
        let plane = BitPlane::pack([1u64, 2, 3].into_iter(), 2);
        let mut data = plane.as_bytes().to_vec();
        data.push(9);
        let mut r = Bytes::new(&data);
        assert_eq!(r.plane(3, 2), Some(plane));
        assert_eq!(r.rest(), [9]);
        assert!(Bytes::new(&[]).plane(1, 1).is_none());
        assert!(Bytes::new(&[0]).plane(1, 65).is_none());
    }

    #[test]
    fn frames_check_magic_version_and_checksum() {
        let blob = frame(b"TEST", 3, |out| out.extend_from_slice(b"body"));
        assert_eq!(blob.len(), 4 + 1 + 4 + 4);
        assert_eq!(unframe(b"TEST", 3, &blob).map(|mut b| b.rest()), Some(&b"body"[..]));
        assert!(unframe(b"TEST", 4, &blob).is_none());
        assert!(unframe(b"TESU", 3, &blob).is_none());
        for i in 0..blob.len() {
            let mut flipped = blob.clone();
            flipped[i] ^= 0x10;
            assert!(unframe(b"TEST", 3, &flipped).is_none(), "flip at byte {i}");
        }
        for cut in 0..blob.len() {
            assert!(unframe(b"TEST", 3, &blob[..cut]).is_none(), "cut at {cut}");
        }
        assert_eq!(check_crc(&blob), Some(&blob[..blob.len() - 4]));
    }
}

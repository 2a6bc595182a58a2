//! MSB-first bit reader and writer, and [`BitPlane`]: the one packer of every
//! fixed-width integer array (column codecs, GD base IDs, synopsis counts).

/// `len` unsigned integers of `width` bits each, packed MSB-first back to back
/// (the layout [`BitWriter::write_bits`] produces) and zero-padded to a byte:
/// `⌈len·width / 8⌉` bytes, none at width 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlane {
    width: u32,
    len: usize,
    bytes: Vec<u8>,
}

impl BitPlane {
    /// Packs `values`, each of which must fit in `width` (≤ 64) bits.
    pub fn pack(values: impl ExactSizeIterator<Item = u64>, width: u32) -> Self {
        let len = values.len();
        let mut w = BitWriter::new();
        w.write_plane(values, width);
        Self { width, len, bytes: w.finish() }
    }

    /// The plane of `len` values at `width` bits whose [`as_bytes`](Self::as_bytes)
    /// are `bytes`; `None` unless `width ≤ 64` and `bytes` is exactly
    /// `⌈len·width / 8⌉` long.
    pub fn from_bytes(bytes: &[u8], len: usize, width: u32) -> Option<Self> {
        let bits = (len as u64).checked_mul(width as u64)?;
        (width <= 64 && bytes.len() as u64 == bits.div_ceil(8))
            .then(|| Self { width, len, bytes: bytes.to_vec() })
    }

    /// Values held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plane holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The values, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        plane_values(BitReader::new(&self.bytes), self.len, self.width)
    }

    /// The packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// `len` values of `width` bits from `bits`, whose caller checked that they
/// are all there (so the `unwrap_or` never fires): the one unpacker behind
/// [`BitPlane::iter`] and [`BitReader::read_plane`]. A mapped range rather than
/// an `Iterator` impl of its own, because std trusts a range's length: a
/// `collect` into a `Vec` ran about twice as fast this way.
fn plane_values(
    mut bits: BitReader<'_>,
    len: usize,
    width: u32,
) -> impl ExactSizeIterator<Item = u64> + '_ {
    (0..len).map(move |_| bits.read_bits(width).unwrap_or(0))
}

/// Appends bits MSB-first into a growable byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, right-aligned: the low `cur_bits` bits of `cur`.
    cur: u64,
    /// Always `< 64`; a full word is flushed to `buf` at once.
    cur_bits: u32,
    total_bits: u64,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that continues a stream [`finish`](Self::finish) produced:
    /// `bytes` holds `bit_len` bits (zero-padded to a byte), and the next write
    /// lands at bit `bit_len`.
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly the `⌈bit_len / 8⌉` bytes of such a stream.
    pub fn resume(mut bytes: Vec<u8>, bit_len: u64) -> Self {
        assert_eq!(bytes.len() as u64, bit_len.div_ceil(8), "not a {bit_len}-bit stream");
        let cur_bits = (bit_len % 8) as u32;
        let cur = match cur_bits {
            0 => 0,
            _ => {
                let partial = bytes.pop().expect("a partial byte implies a non-empty stream");
                (partial >> (8 - cur_bits)) as u64
            }
        };
        Self { buf: bytes, cur, cur_bits, total_bits: bit_len }
    }

    /// Writes the low `n` bits of `v`, most significant first. `n` may be 0..=64.
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once (asked {n})");
        debug_assert!(n == 64 || v < (1u64 << n), "value {v} does not fit in {n} bits");
        let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        let free = 64 - self.cur_bits;
        if n < free {
            self.cur = (self.cur << n) | v;
            self.cur_bits += n;
        } else {
            // `cur` fills up: emit one whole word, keep the `rest` low bits of `v`.
            let rest = n - free;
            let head = if free == 64 { 0 } else { self.cur << free };
            self.buf.extend_from_slice(&(head | (v >> rest)).to_be_bytes());
            self.cur = v & ((1u64 << rest) - 1);
            self.cur_bits = rest;
        }
        self.total_bits += n as u64;
    }

    /// Writes each of `values` at `width` bits: a [`BitPlane`] laid into the
    /// stream at its current position.
    #[inline]
    pub fn write_plane(&mut self, values: impl IntoIterator<Item = u64>, width: u32) {
        for v in values {
            self.write_bits(v, width);
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Copies the next `n_bits` bits of `from`, a word at a time; `None` (with
    /// some of them copied) if `from` runs out first.
    pub fn copy_bits(&mut self, from: &mut BitReader<'_>, n_bits: u64) -> Option<()> {
        let mut left = n_bits;
        while left > 0 {
            let n = left.min(64) as u32;
            self.write_bits(from.read_bits(n)?, n);
            left -= n as u64;
        }
        Some(())
    }

    /// A unary code: `q` one-bits followed by a zero bit.
    pub fn write_unary(&mut self, q: u64) {
        for _ in 0..q {
            self.write_bit(true);
        }
        self.write_bit(false);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.total_bits
    }

    /// Flushes (zero-padding the final partial byte) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.cur_bits > 0 {
            let word = (self.cur << (64 - self.cur_bits)).to_be_bytes();
            self.buf.extend_from_slice(&word[..self.cur_bits.div_ceil(8) as usize]);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Reader over `data` starting at bit 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Remaining bits.
    pub fn remaining_bits(&self) -> u64 {
        (self.data.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Reads one bit; `None` past the end.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = (self.pos / 8) as usize;
        if byte >= self.data.len() {
            return None;
        }
        let bit = (self.data[byte] >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits MSB-first into the low bits of a `u64`; `None` if fewer remain.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once (asked {n})");
        if self.remaining_bits() < n as u64 {
            return None;
        }
        if n == 0 {
            return Some(0);
        }
        let byte = (self.pos / 8) as usize;
        let off = (self.pos % 8) as u32;
        self.pos += n as u64;
        // The bits sit in at most nine bytes: one aligned word, plus the top of
        // a ninth byte when `off + n > 64`.
        let v = match self.data.get(byte..byte + 8) {
            Some(word) => {
                let w = u64::from_be_bytes(word.try_into().expect("slice of 8")) << off;
                match (off + n).checked_sub(64) {
                    None | Some(0) => w >> (64 - n),
                    Some(spill) => (w >> (64 - n)) | (self.data[byte + 8] >> (8 - spill)) as u64,
                }
            }
            // Within eight bytes of the end: gather what is there.
            None => {
                let tail = &self.data[byte..];
                let acc = tail.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64);
                let spare = tail.len() as u32 * 8 - off - n;
                (acc >> spare) & (u64::MAX >> (64 - n))
            }
        };
        Some(v)
    }

    /// The next `len` values of `width` bits (the inverse of
    /// [`BitWriter::write_plane`]); the reader moves past them. `None`, and the
    /// reader stays put, if `width > 64` or fewer than `len·width` bits remain.
    pub fn read_plane(
        &mut self,
        len: usize,
        width: u32,
    ) -> Option<impl ExactSizeIterator<Item = u64> + 'a> {
        let bits = (len as u64).checked_mul(width as u64)?;
        if width > 64 || bits > self.remaining_bits() {
            return None;
        }
        let plane = plane_values(self.clone(), len, width);
        self.pos += bits;
        Some(plane)
    }

    /// Reads a unary code (count of leading one-bits before the terminating zero).
    pub fn read_unary(&mut self) -> Option<u64> {
        let mut q = 0u64;
        loop {
            match self.read_bit()? {
                true => q += 1,
                false => return Some(q),
            }
        }
    }

    /// Seeks to an absolute bit position (may be past the end; subsequent reads then
    /// return `None`). Enables random access into fixed-stride packed layouts.
    pub fn seek(&mut self, bit_pos: u64) {
        self.pos = bit_pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(123_456_789, 27);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(16), Some(0xFFFF));
        assert_eq!(r.read_bits(1), Some(0));
        assert_eq!(r.read_bits(27), Some(123_456_789));
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for q in [0u64, 1, 7, 20] {
            w.write_unary(q);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for q in [0u64, 1, 7, 20] {
            assert_eq!(r.read_unary(), Some(q));
        }
    }

    #[test]
    fn sixty_four_bit_write() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish(); // padded to 1 byte
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0b1100_0000));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn bit_len_counts_before_padding() {
        let mut w = BitWriter::new();
        w.write_bits(1, 5);
        assert_eq!(w.bit_len(), 5);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 1);
    }

    /// The word-at-a-time writer and reader against the obvious one-bit-at-a-time
    /// definition, over every width and alignment a pseudo-random script reaches.
    #[test]
    fn word_paths_match_bit_by_bit_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let script: Vec<(u64, u32)> = (0..2_000)
            .map(|_| {
                let n = (next() % 65) as u32;
                (if n == 64 { next() } else { next() & ((1u64 << n) - 1) }, n)
            })
            .collect();
        let mut w = BitWriter::new();
        let mut reference: Vec<bool> = Vec::new();
        for &(v, n) in &script {
            w.write_bits(v, n);
            reference.extend((0..n).rev().map(|i| (v >> i) & 1 == 1));
        }
        assert_eq!(w.bit_len(), reference.len() as u64);
        let bytes = w.finish();
        let mut expect = vec![0u8; reference.len().div_ceil(8)];
        for (p, _) in reference.iter().enumerate().filter(|(_, b)| **b) {
            expect[p / 8] |= 0x80 >> (p % 8);
        }
        assert_eq!(bytes, expect);
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &script {
            assert_eq!(r.read_bits(n), Some(v), "width {n} at bit {}", r.bit_pos());
        }
        assert_eq!(r.remaining_bits(), bytes.len() as u64 * 8 - reference.len() as u64);
    }

    /// `resume` + `copy_bits` splice two packed streams exactly as writing both
    /// in one go would, whatever the alignment of the seam.
    #[test]
    fn resume_and_copy_bits_continue_a_stream() {
        for head_bits in [0u32, 1, 7, 8, 13, 64, 67] {
            let mut whole = BitWriter::new();
            let mut head = BitWriter::new();
            let mut tail = BitWriter::new();
            for i in 0..head_bits {
                whole.write_bit(i % 3 == 0);
                head.write_bit(i % 3 == 0);
            }
            for i in 0..150u64 {
                whole.write_bits(i * 7 % 32, 5);
                tail.write_bits(i * 7 % 32, 5);
            }
            let tail_bits = tail.bit_len();
            let mut spliced = BitWriter::resume(head.finish(), head_bits as u64);
            let tail = tail.finish();
            assert!(spliced.copy_bits(&mut BitReader::new(&tail), tail_bits).is_some());
            assert!(spliced.copy_bits(&mut BitReader::new(&tail[..1]), 9).is_none());
            assert_eq!(spliced.bit_len(), whole.bit_len());
            assert_eq!(spliced.finish(), whole.finish(), "head of {head_bits} bits");
        }
    }

    /// A plane is `write_bits` of each value at one width, at every width; its
    /// bytes come back only at their exact length.
    #[test]
    fn plane_is_fixed_width_write_bits_and_checks_its_length() {
        for width in 0..=64u32 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let values: Vec<u64> =
                (0..37u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask).collect();
            let plane = BitPlane::pack(values.iter().copied(), width);
            let mut w = BitWriter::new();
            for &v in &values {
                w.write_bits(v, width);
            }
            assert_eq!(plane.as_bytes(), w.finish(), "width {width}");
            assert_eq!(plane.iter().collect::<Vec<_>>(), values, "width {width}");
            assert_eq!((plane.len(), plane.width()), (37, width));
            let bytes = plane.as_bytes();
            assert_eq!(BitPlane::from_bytes(bytes, 37, width), Some(plane.clone()));
            assert!(BitPlane::from_bytes(&[bytes, &[0]].concat(), 37, width).is_none());
            if let Some((_, short)) = bytes.split_last() {
                assert!(BitPlane::from_bytes(short, 37, width).is_none());
            }
        }
        assert!(BitPlane::from_bytes(&[], 0, 65).is_none());
        assert!(BitPlane::from_bytes(&[], usize::MAX, 64).is_none());
        let empty = BitPlane::pack(std::iter::empty(), 9);
        assert!(empty.is_empty() && empty.as_bytes().is_empty());
    }

    /// Planes after a header and after each other read back as written, and a
    /// plane the stream cannot back leaves the reader where it was.
    #[test]
    fn planes_share_a_stream() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_plane((0..10u64).map(|i| i * 3), 5);
        w.write_plane([7u64, 0, 7], 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        let first: Vec<u64> = r.read_plane(10, 5).unwrap().collect();
        assert_eq!(first, (0..10u64).map(|i| i * 3).collect::<Vec<_>>());
        let at = r.bit_pos();
        assert!(r.read_plane(100, 3).is_none());
        assert!(r.read_plane(1, 65).is_none());
        assert_eq!(r.bit_pos(), at);
        assert_eq!(r.read_plane(3, 3).unwrap().collect::<Vec<_>>(), [7, 0, 7]);
        assert_eq!(r.read_plane(1_000_000, 0).map(|p| p.len()), Some(1_000_000));
    }
}

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
        (width <= 64 && bytes.len() as u64 == bits.div_ceil(8)).then(|| Self {
            width,
            len,
            bytes: bytes.to_vec(),
        })
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
        plane_values(&self.bytes, 0, self.len, self.width)
    }

    /// The largest value, `None` if the plane is empty: one pass over the
    /// packed bytes in a loop monomorphised for the width, and none at all at
    /// width 0.
    pub fn max(&self) -> Option<u64> {
        match (self.len, self.width) {
            (0, _) => None,
            (_, 0) => Some(0),
            (len, width) => {
                let max_of: fn(&[u8], u64, usize) -> u64 = by_width!(width, max_of);
                Some(max_of(&self.bytes, 0, len))
            }
        }
    }

    /// The packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// `len` values of `width` (≤ 64) bits packed from bit `pos` of `bytes`, whose
/// caller checked that `bytes` holds them all: the one unpacker behind
/// [`BitPlane::iter`], [`BitReader::read_plane`] and [`Bytes::planes`](crate::Bytes::planes).
pub(crate) fn plane_values(bytes: &[u8], pos: u64, len: usize, width: u32) -> PlaneValues<'_> {
    let unpack: fn(&[u8], u64, &mut [u64]) = by_width!(width, unpack_into);
    PlaneValues { bytes, pos, len, width, unpack, buf: [0; CHUNK], at: 0, filled: 0 }
}

/// Values a plane iterator unpacks at a time.
const CHUNK: usize = 64;

/// `$f::<W>` for the `W` that is `$width` (≤ 64): a `match` on the width,
/// once per plane, picks a loop monomorphised for it, as facet_bitcode's
/// `copy_for_size!` does for element sizes.
macro_rules! by_width {
    ($width:expr, $f:ident) => {
        by_width!($width, $f;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
            61 62 63)
    };
    ($width:expr, $f:ident; $($w:literal)*) => {
        match $width {
            $($w => $f::<$w>,)*
            _ => $f::<64>,
        }
    };
}
use by_width;

/// The iterator [`plane_values`] returns: it unpacks up to [`CHUNK`] values
/// at a time into a buffer, through the [`unpack_into`] for its width, and
/// hands them out from there.
#[derive(Debug, Clone)]
pub(crate) struct PlaneValues<'a> {
    bytes: &'a [u8],
    /// Bit position of the first value not yet unpacked.
    pos: u64,
    /// Values not yet unpacked.
    len: usize,
    width: u32,
    unpack: fn(&[u8], u64, &mut [u64]),
    /// Unpacked values; `buf[at..filled]` are still to be handed out.
    buf: [u64; CHUNK],
    at: usize,
    filled: usize,
}

impl PlaneValues<'_> {
    /// Unpacks the next chunk into `buf`; `None` once every value is out.
    #[inline]
    fn refill(&mut self) -> Option<()> {
        let n = self.len.min(CHUNK);
        let out = self.buf.get_mut(..n).filter(|out| !out.is_empty())?;
        (self.unpack)(self.bytes, self.pos, out);
        self.pos += n as u64 * self.width as u64;
        (self.len, self.at, self.filled) = (self.len - n, 0, n);
        Some(())
    }

    /// The unpacked values not yet handed out.
    #[inline]
    fn buffered(&self) -> &[u64] {
        self.buf.get(self.at..self.filled).unwrap_or_default()
    }
}

impl Iterator for PlaneValues<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.at == self.filled {
            self.refill()?;
        }
        let v = self.buf.get(self.at).copied();
        self.at += 1;
        v
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len + self.buffered().len();
        (n, Some(n))
    }

    #[inline]
    fn fold<B, F: FnMut(B, u64) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = self.buffered().iter().fold(init, |acc, &v| f(acc, v));
        while self.refill().is_some() {
            acc = self.buffered().iter().fold(acc, |acc, &v| f(acc, v));
        }
        acc
    }
}

impl ExactSizeIterator for PlaneValues<'_> {}

/// Fills `out` with the `out.len()` values of `W` bits from bit `pos` of
/// `bytes`, which holds them.
fn unpack_into<const W: u32>(bytes: &[u8], pos: u64, out: &mut [u64]) {
    let mut slots = out.iter_mut();
    fold_width::<W, _, _>(bytes, pos, slots.len(), (), |(), v| {
        if let Some(slot) = slots.next() {
            *slot = v;
        }
    });
}

/// The largest of the `len` values of `W` bits from bit `pos` of `bytes`,
/// which holds them (0 if there are none).
fn max_of<const W: u32>(bytes: &[u8], pos: u64, len: usize) -> u64 {
    fold_width::<W, _, _>(bytes, pos, len, 0, u64::max)
}

/// The big-endian 8-byte word at byte `pos / 8` of `bytes`, `None` within
/// eight bytes of the end.
#[inline(always)]
fn window(bytes: &[u8], pos: u64) -> Option<u64> {
    let at = usize::try_from(pos / 8).ok()?;
    bytes.get(at..)?.first_chunk().map(|w| u64::from_be_bytes(*w))
}

/// Folds `f` over the `len` values of `W` bits from bit `pos` of `bytes`,
/// which holds them: zeros at width 0 without reading a byte; whole bytes
/// from a byte-aligned start, fixed-size big-endian chunks; otherwise up to
/// 56 bits, groups of eight values, then one 8-byte window per value; wider,
/// one 16-byte window per value; [`bits_at`] for the values in the last 8
/// (or 16) bytes.
#[inline(always)]
fn fold_width<const W: u32, B, F: FnMut(B, u64) -> B>(
    bytes: &[u8],
    mut pos: u64,
    mut len: usize,
    mut acc: B,
    mut f: F,
) -> B {
    if W == 0 {
        return (0..len).fold(acc, |acc, _| f(acc, 0));
    }
    let at = usize::try_from(pos / 8).unwrap_or(usize::MAX);
    if W.is_multiple_of(8) && pos.is_multiple_of(8) {
        let n_bytes = len.saturating_mul(W as usize / 8);
        if let Some(run) = bytes.get(at..).and_then(|b| b.get(..n_bytes)) {
            let chunks = run.chunks_exact(W as usize / 8);
            return chunks.fold(acc, |acc, c| f(acc, c.iter().fold(0, |v, &b| v << 8 | b as u64)));
        }
    }
    if W <= 56 {
        // A start mid-byte gets its own copy of the group loop, so the
        // byte-aligned one (every `BitPlane`) shifts by constants.
        let from = bytes.get(at..).unwrap_or_default();
        let groups;
        (acc, groups) = match pos % 8 {
            0 => fold_groups::<W, B, F>(from, 0, len / 8, acc, &mut f),
            off => fold_groups::<W, B, F>(from, off as u32, len / 8, acc, &mut f),
        };
        pos += groups as u64 * 8 * W as u64;
        len -= groups * 8;
        while len > 0 {
            let Some(word) = window(bytes, pos) else { break };
            acc = f(acc, (word << (pos % 8)) >> (64 - W));
            pos += W as u64;
            len -= 1;
        }
    } else {
        // Up to 71 bits from the value's first byte on: a 16-byte window.
        while len > 0 {
            let at = usize::try_from(pos / 8).unwrap_or(usize::MAX);
            let Some(word) = bytes.get(at..).and_then(|b| b.first_chunk()) else { break };
            acc = f(acc, ((u128::from_be_bytes(*word) << (pos % 8)) >> (128 - W)) as u64);
            pos += W as u64;
            len -= 1;
        }
    }
    (0..len).fold(acc, |acc, _| {
        let v = bits_at(bytes, pos, W);
        pos += W as u64;
        f(acc, v)
    })
}

/// Up to `groups` groups of eight `W`-bit values from bit `off` (< 8) of
/// `bytes` folded into `acc`, and how many were: it stops at the first group
/// whose `W + 8` bytes run past the end. Eight values fill `W` bytes and each
/// one's window starts within them, so those bytes hold all eight windows.
#[inline(always)]
fn fold_groups<const W: u32, B, F: FnMut(B, u64) -> B>(
    bytes: &[u8],
    off: u32,
    groups: usize,
    mut acc: B,
    f: &mut F,
) -> (B, usize) {
    let w = W as usize;
    for g in 0..groups {
        let Some(group) = bytes.get(g * w..).and_then(|b| b.get(..w + 8)) else {
            return (acc, g);
        };
        for j in 0..8 {
            let bit = off % 8 + j * W;
            let word = group
                .get((bit / 8) as usize..)
                .and_then(|b| b.first_chunk())
                .map_or(0, |b| u64::from_be_bytes(*b));
            acc = f(acc, (word << (bit % 8)) >> (64 - W));
        }
    }
    (acc, groups)
}

/// The `n ≤ 64` bits at bit `pos` of `data`, which holds them all: one
/// aligned word, plus the top of a ninth byte when `pos % 8 + n > 64`; within
/// eight bytes of the end, the bytes there gathered one by one.
#[inline]
fn bits_at(data: &[u8], pos: u64, n: u32) -> u64 {
    if n == 0 {
        return 0;
    }
    let byte = (pos / 8) as usize;
    let off = (pos % 8) as u32;
    match window(data, pos) {
        Some(w) => {
            let w = w << off;
            match (off + n).checked_sub(64) {
                None | Some(0) => w >> (64 - n),
                Some(spill) => (w >> (64 - n)) | (data[byte + 8] >> (8 - spill)) as u64,
            }
        }
        None => {
            let tail = &data[byte..];
            let acc = tail.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64);
            let spare = tail.len() as u32 * 8 - off - n;
            (acc >> spare) & (u64::MAX >> (64 - n))
        }
    }
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
        let v = self.peek_bits(n)?;
        self.pos += n as u64;
        Some(v)
    }

    /// The next `n` bits, as [`BitReader::read_bits`] reads them, without
    /// moving past them.
    #[inline]
    fn peek_bits(&self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once (asked {n})");
        (self.remaining_bits() >= n as u64).then(|| bits_at(self.data, self.pos, n))
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
        let plane = plane_values(self.data, self.pos, len, width);
        self.pos += bits;
        Some(plane)
    }

    /// Reads a unary code (count of leading one-bits before the terminating zero).
    /// `None` if the data ends first; the reader is then at the end.
    ///
    /// Counts the ones of up to 64 bits at a time.
    pub fn read_unary(&mut self) -> Option<u64> {
        let mut q = 0u64;
        loop {
            let n = self.remaining_bits().min(64) as u32;
            if n == 0 {
                return None;
            }
            // Left-aligned, so the bits past the window read as zeros.
            let window = self.peek_bits(n)? << (64 - n);
            let ones = window.leading_ones();
            if ones < n {
                self.pos += ones as u64 + 1;
                return Some(q + ones as u64);
            }
            self.pos += n as u64;
            q += n as u64;
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

    /// The values `fold` hands out, in order.
    fn by_fold(values: impl Iterator<Item = u64>) -> Vec<u64> {
        values.fold(Vec::new(), |mut out, v| {
            out.push(v);
            out
        })
    }

    /// The unpacker before it went a word at a time: one
    /// [`BitReader::read_bits`] per value.
    fn plane_by_read_bits(r: &mut BitReader<'_>, len: usize, width: u32) -> Vec<u64> {
        (0..len).map(|_| r.read_bits(width).expect("the plane is all there")).collect()
    }

    /// Every way of driving the word-at-a-time unpacker — `next`
    /// (`collect`), `fold`, a `fold` taking over after some `next`s, and
    /// [`BitPlane::max`] — reads what one `read_bits` per value reads: at
    /// every width, at lengths across the eight-value group, the 8-byte
    /// window and the 64-value chunk boundaries, from every bit offset (the
    /// second plane of [`Bytes::planes`](crate::Bytes::planes)), with random
    /// and all-ones values, ending at the end of the slice or followed by set
    /// bits the unpacker must not let in.
    #[test]
    fn plane_paths_match_a_read_bits_per_value() {
        let mut state = 0x706c_616e_6500_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lens: &[usize] = if cfg!(miri) {
            &[0, 1, 7, 9, 17, 26]
        } else {
            &[0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 33, 63, 64, 65, 127, 129, 300]
        };
        let heads: &[u32] = if cfg!(miri) { &[0, 5] } else { &[0, 1, 2, 3, 4, 5, 6, 7] };
        for width in 0..=64u32 {
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            for &len in lens {
                for ones in [false, true] {
                    let values: Vec<u64> =
                        (0..len).map(|_| if ones { mask } else { next() & mask }).collect();
                    let at = format!("width {width}, {len} values, all ones {ones}");
                    let plane = BitPlane::pack(values.iter().copied(), width);
                    let by_read_bits =
                        plane_by_read_bits(&mut BitReader::new(plane.as_bytes()), len, width);
                    assert_eq!(by_read_bits, values, "{at}");
                    assert_eq!(plane.iter().collect::<Vec<_>>(), values, "{at}");
                    assert_eq!(by_fold(plane.iter()), values, "{at}");
                    assert_eq!(plane.max(), values.iter().copied().max(), "{at}");
                    let mut resumed = plane.iter();
                    let head: Vec<u64> = resumed.by_ref().take(len / 3).collect();
                    assert_eq!(resumed.len(), len - len / 3, "{at}");
                    assert_eq!([head, by_fold(resumed)].concat(), values, "{at}");
                    for &head_bits in heads {
                        for trailer in [0u32, 71] {
                            let mut w = BitWriter::new();
                            w.write_plane(std::iter::repeat_n(1, head_bits as usize), 1);
                            w.write_plane(values.iter().copied(), width);
                            for _ in 0..trailer {
                                w.write_bit(true);
                            }
                            let bytes = w.finish();
                            let at = format!("{at}, from bit {head_bits}, {trailer} bits after");
                            let mut r = BitReader::new(&bytes);
                            r.seek(head_bits as u64);
                            assert_eq!(plane_by_read_bits(&mut r, len, width), values, "{at}");
                            let shapes = [(head_bits as usize, 1), (len, width)];
                            let [_, second] = crate::Bytes::new(&bytes).planes(shapes).unwrap();
                            assert_eq!(by_fold(second), values, "{at}");
                            let [_, second] = crate::Bytes::new(&bytes).planes(shapes).unwrap();
                            assert_eq!(second.collect::<Vec<_>>(), values, "{at}");
                            let mut r = BitReader::new(&bytes);
                            r.seek(head_bits as u64);
                            let read = r.read_plane(len, width).unwrap();
                            assert_eq!(
                                read.fold(0, u64::max),
                                values.iter().fold(0, |a, &v| a.max(v))
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`BitReader::read_unary`] as it was: one bit a call.
    fn unary_bitwise(r: &mut BitReader<'_>) -> Option<u64> {
        let mut q = 0;
        loop {
            match r.read_bit()? {
                true => q += 1,
                false => return Some(q),
            }
        }
    }

    /// Counting a 64-bit window's leading ones reads what the bit-at-a-time
    /// loop reads and stops where it stops — `None` at the end of the data
    /// included: runs from empty to several words long, at every alignment
    /// (random bit reads between them), a last run the data ends inside, and a
    /// reader sought past the end.
    #[test]
    fn word_unary_matches_the_bitwise_reference() {
        let mut state = 0x756e_6172_7900_0001u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let streams = if cfg!(miri) { 12 } else { 400 };
        for stream in 0..streams {
            let mut w = BitWriter::new();
            for _ in 0..next(24) {
                match next(4) {
                    0 => w.write_unary(next(3)),
                    1 => w.write_unary(60 + next(10)),
                    2 => w.write_unary(next(200)),
                    _ => {
                        let width = 1 + next(20) as u32;
                        w.write_bits(next(1 << width), width);
                    }
                }
            }
            // Half the streams end inside a run of ones, padding included.
            if stream % 2 == 1 {
                for _ in 0..next(130) {
                    w.write_bit(true);
                }
            }
            let used = (w.bit_len() % 8) as u32;
            let mut data = w.finish();
            if let (1, Some(last)) = (stream % 2, data.last_mut()) {
                if used > 0 {
                    *last |= 0xFF >> used;
                }
            }
            let (mut fast, mut slow) = (BitReader::new(&data), BitReader::new(&data));
            loop {
                if next(5) == 0 {
                    let n = next(65) as u32;
                    assert_eq!(fast.read_bits(n), slow.read_bits(n), "stream {stream}");
                } else {
                    let (got, want) = (fast.read_unary(), unary_bitwise(&mut slow));
                    assert_eq!(got, want, "stream {stream} at bit {}", slow.bit_pos());
                }
                assert_eq!(fast.bit_pos(), slow.bit_pos(), "stream {stream}");
                if slow.remaining_bits() == 0 {
                    break;
                }
            }
            assert_eq!(fast.read_unary(), None);
            fast.seek(data.len() as u64 * 8 + 5);
            assert_eq!(fast.read_unary(), None);
            assert_eq!(fast.bit_pos(), data.len() as u64 * 8 + 5);
        }
    }
}

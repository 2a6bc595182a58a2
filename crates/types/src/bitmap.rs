//! Word-packed validity bitmap.

/// A fixed-length bitmap used to track which rows of a column are valid (non-null).
///
/// Bit `i` set means row `i` holds a value; clear means the row is NULL. The bitmap is
/// stored as little-endian `u64` words, so validity checks in hot scan loops cost one
/// shift and one mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all set (no nulls).
    pub fn new_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Self { words, len }
    }

    /// Creates a bitmap of `len` bits, all clear (all null).
    pub fn new_clear(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a bitmap from a slice of booleans (`true` = valid).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bm = Self::new_clear(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i);
            }
        }
        bm
    }

    /// Number of bits in the bitmap.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bitmap index {i} out of bounds ({})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bitmap index {i} out of bounds ({})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set bits (valid rows).
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends a bit, growing the bitmap by one.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends bits `[start, start + len)` of `other`, a word at a time.
    ///
    /// # Panics
    /// Panics if the range runs past `other.len()`.
    pub fn extend_from_range(&mut self, other: &Bitmap, start: usize, len: usize) {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= other.len),
            "bitmap range {start}+{len} out of bounds ({})",
            other.len
        );
        self.words.resize((self.len + len).div_ceil(64), 0);
        let mut done = 0;
        while done < len {
            // Up to 64 source bits starting at `from`, low bit first; whatever
            // lies past the range is masked off, so the tail words stay clean.
            let from = start + done;
            let take = (len - done).min(64);
            let (word, shift) = (from / 64, from % 64);
            let mut bits = other.words[word] >> shift;
            if shift != 0 && shift + take > 64 {
                bits |= other.words[word + 1] << (64 - shift);
            }
            if take < 64 {
                bits &= (1u64 << take) - 1;
            }
            let (word, shift) = (self.len / 64, self.len % 64);
            self.words[word] |= bits << shift;
            if shift != 0 && shift + take > 64 {
                self.words[word + 1] |= bits >> (64 - shift);
            }
            self.len += take;
            done += take;
        }
    }

    /// Iterates over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_has_all_bits() {
        for len in [0, 1, 63, 64, 65, 130] {
            let bm = Bitmap::new_set(len);
            assert_eq!(bm.len(), len);
            assert_eq!(bm.count_set(), len, "len={len}");
            assert!(bm.iter().all(|b| b));
        }
    }

    #[test]
    fn new_clear_has_no_bits() {
        for len in [0, 1, 64, 100] {
            let bm = Bitmap::new_clear(len);
            assert_eq!(bm.count_set(), 0);
        }
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut bm = Bitmap::new_clear(200);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(199);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(199));
        assert_eq!(bm.count_set(), 4);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_set(), 3);
    }

    #[test]
    fn push_grows() {
        let mut bm = Bitmap::new_clear(0);
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.count_set(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn extend_from_range_matches_bit_by_bit_pushes() {
        let src =
            Bitmap::from_bools(&(0..300).map(|i| i % 3 == 0 || i % 7 == 2).collect::<Vec<_>>());
        for held in [0usize, 1, 37, 63, 64, 65, 128] {
            for (start, len) in [
                (0, 0),
                (0, 300),
                (1, 64),
                (5, 59),
                (63, 2),
                (64, 64),
                (70, 200),
                (299, 1),
                (300, 0),
            ] {
                let mut fast = Bitmap::new_clear(0);
                let mut slow = Bitmap::new_clear(0);
                for i in 0..held {
                    fast.push(i % 2 == 0);
                    slow.push(i % 2 == 0);
                }
                fast.extend_from_range(&src, start, len);
                for i in start..start + len {
                    slow.push(src.get(i));
                }
                assert_eq!(fast, slow, "held {held}, range {start}+{len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extend_from_range_past_the_end_panics() {
        Bitmap::new_clear(0).extend_from_range(&Bitmap::new_set(10), 5, 6);
    }

    #[test]
    fn from_bools_matches() {
        let bits: Vec<bool> = (0..77).map(|i| i % 2 == 0).collect();
        let bm = Bitmap::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bm.get(i), b);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::new_set(10).get(10);
    }
}

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

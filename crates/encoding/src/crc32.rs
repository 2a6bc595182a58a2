//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The durability layer stamps every persisted blob — `PWT2`/`PSG3` snapshot
//! files and each `PHWL1` WAL record — with this checksum so `open_dir` can
//! tell a torn write from bit-rot and quarantine the damage instead of loading
//! a silently wrong catalog. Slicing-by-16: sixteen 256-entry tables, built at
//! compile time, fold sixteen bytes per step with one table lookup each
//! instead of a dependent lookup chain per byte. This is the ubiquitous
//! zlib/gzip polynomial so externally generated fixtures can be checked
//! against `cksum -o 3`/`crc32` outputs.

/// `TABLES[0]` is the classic byte-at-a-time table of the reflected IEEE
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so the byte `k` places before the end of a 16-byte block is looked
/// up in `TABLES[k]`.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC-32 state.
///
/// ```
/// let mut h = ph_encoding::Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finish(), 0xCBF4_3926); // the IEEE check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (equivalent to hashing zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
        let mut crc = self.state;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
            let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
            crc = t15[(lo & 0xFF) as usize]
                ^ t14[((lo >> 8) & 0xFF) as usize]
                ^ t13[((lo >> 16) & 0xFF) as usize]
                ^ t12[(lo >> 24) as usize]
                ^ t11[b4 as usize]
                ^ t10[b5 as usize]
                ^ t9[b6 as usize]
                ^ t8[b7 as usize]
                ^ t7[b8 as usize]
                ^ t6[b9 as usize]
                ^ t5[b10 as usize]
                ^ t4[b11 as usize]
                ^ t3[b12 as usize]
                ^ t2[b13 as usize]
                ^ t1[b14 as usize]
                ^ t0[b15 as usize];
        }
        for &b in tail {
            crc = t0[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The definition the tables are derived from: one bit per step.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// splitmix64: a seeded byte source for the reference comparison.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// `data` fed through `update` in random pieces, empty ones included.
    fn in_random_pieces(data: &[u8], rng: &mut Rng) -> u32 {
        let mut h = Crc32::new();
        let mut rest = data;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(rng.below(rest.len().min(100) + 1));
            h.update(piece);
            rest = tail;
        }
        h.finish()
    }

    #[test]
    fn slicing_by_16_matches_the_bitwise_reference() {
        let mut rng = Rng(0x6372_6333_3221);
        let rounds = if cfg!(miri) { 1 } else { 8 };
        // The block boundary at every offset, and a multi-block run around it.
        let big = if cfg!(miri) { 4 << 10 } else { 1 << 20 };
        let lengths =
            (0..=64).chain([127, 128, 129, 255, 256, 257]).chain([big - 1, big, big + 15]);
        for len in lengths {
            for _ in 0..if len > 4096 { 1 } else { rounds } {
                let data = rng.bytes(len);
                let want = bitwise(&data);
                assert_eq!(crc32(&data), want, "one-shot, {len} bytes");
                assert_eq!(in_random_pieces(&data, &mut rng), want, "in pieces, {len} bytes");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"pairwisehist durability layer";
        let mut h = Crc32::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        let base = crc32(&data);
        for byte in [0usize, 100, 511] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}

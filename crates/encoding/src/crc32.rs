//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The durability layer stamps every persisted blob — `PWT2`/`PSG3` snapshot
//! files and each `PHWL1` WAL record — with this checksum so `open_dir` can
//! tell a torn write from bit-rot and quarantine the damage instead of loading
//! a silently wrong catalog. Table-driven, one table built at first use; this
//! is the ubiquitous zlib/gzip polynomial so externally generated fixtures can
//! be checked against `cksum -o 3`/`crc32` outputs.

/// 256-entry lookup table for the reflected IEEE polynomial.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    })
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
        let t = table();
        for &b in bytes {
            self.state = t[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
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

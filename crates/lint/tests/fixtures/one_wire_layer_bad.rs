// Fixture (linted as crates/core/src/storage.rs): an encoder pushing bytes by hand.
pub fn to_bytes(n: u64, len: u32, d: i64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&len.to_le_bytes());
    write_uvarint(&mut out, n);
    ph_encoding::write_ivarint(&mut out, d);
    out
}
#[cfg(test)]
mod tests {
    fn hand_built() -> Vec<u8> {
        7u32.to_le_bytes().to_vec()
    }
}

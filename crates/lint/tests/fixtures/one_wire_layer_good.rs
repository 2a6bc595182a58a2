// Fixture (linted as crates/core/src/storage.rs): every byte goes through Out;
// to_le_bytes in a comment and "write_uvarint" in a string are not calls.
pub fn to_bytes(n: u64, len: u32, d: i64) -> Vec<u8> {
    let mut out = Vec::new();
    out.u32(len);
    out.uvarint(n);
    out.ivarint(d);
    out
}
const WHY: &str = "no write_uvarint here";
#[cfg(test)]
mod tests {
    fn hand_built() -> Vec<u8> {
        7u32.to_le_bytes().to_vec()
    }
}

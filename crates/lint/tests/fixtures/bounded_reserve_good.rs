// Fixture (linted as crates/gd/src/codec/dict.rs): every decoder reservation
// is sized from `Bytes::count`, a literal, or carries a justified allow.
pub fn from_bytes(data: &[u8]) -> Option<Vec<u64>> {
    let mut r = Bytes::new(data);
    let k = r.uvarint()?;
    let k = r.count(k, 1)?;
    let mut dict = Vec::with_capacity(k + 1);
    let n = r.uvarint()?;
    let codes: Vec<u32> = Vec::with_capacity(r.count(n, 4)?);
    let mut pair = Vec::with_capacity(2);
    let seen = vec![0u8; 256];
    let listed = vec![k, k, k];
    dict.reserve(r.count(n, 8).filter(|&n| n > 0)?);
    Some(dict)
}
fn decode_rows(rows: &[usize]) -> Vec<u64> {
    // ph-lint: allow(bounded-reserve) — decodes rows already in memory
    Vec::with_capacity(rows.len())
}
pub fn encode(values: &[u64]) -> Vec<u8> {
    Vec::with_capacity(values.len() * 8)
}
#[cfg(test)]
mod tests {
    fn read_everything() {
        let _ = Vec::<u8>::with_capacity(1 << 30);
    }
}

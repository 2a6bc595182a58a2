// Fixture (linted as crates/gd/src/codec/dict.rs): decoders sizing from claims.
pub fn from_bytes(data: &[u8]) -> Option<Vec<u64>> {
    let mut r = Bytes::new(data);
    let k = r.uvarint()? as usize;
    let mut dict = Vec::with_capacity(k);
    let n = r.uvarint()? as usize;
    let codes = vec![0u32; n];
    dict.reserve(r.u8()? as usize);
    Some(dict)
}
fn read_dict(r: &mut Bytes<'_>) -> Option<Vec<String>> {
    let n = r.uvarint()?;
    let n = r.count(n, 1)?;
    let extra = r.u32()? as usize;
    let mut out = Vec::with_capacity(n + extra);
    let k = r.count(n as u64, 1)?;
    let k = k + r.u8()? as usize;
    out.reserve_exact(k);
    Some(out)
}

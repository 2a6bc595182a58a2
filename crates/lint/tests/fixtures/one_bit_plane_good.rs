// Fixture (linted as crates/gd/src/codec/bitpack.rs): every array is a plane;
// write_bits in a comment and "read_bits" in a string are not calls.
pub fn to_bytes(values: &[u64], width: u32) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_plane(values.iter().copied(), width);
    w.finish()
}
pub fn from_bytes(data: &[u8], n: usize, width: u32) -> Option<BitPlane> {
    Bytes::new(data).plane(n, width)
}
const WHY: &str = "no read_bits here";

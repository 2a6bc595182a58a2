// Fixture (linted as crates/gd/src/codec/bitpack.rs): a codec packing by hand.
pub fn to_bytes(values: &[u64], width: u32) -> Vec<u8> {
    let mut w = BitWriter::new();
    for &v in values {
        w.write_bits(v, width);
    }
    w.finish()
}
#[cfg(test)]
mod tests {
    fn first(bytes: &[u8]) -> Option<u64> {
        BitReader::new(bytes).read_bits(3)
    }
}

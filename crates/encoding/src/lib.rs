//! Bit-level encoding substrate for the PairwiseHist AQP framework.
//!
//! Two consumers drive the design:
//!
//! * **GreedyGD** (`ph-gd`) packs bases and deviations at arbitrary bit widths;
//! * **PairwiseHist storage** (§4.3, Fig 6) packs bin counts at `ℓ_h` bits each and
//!   Golomb-codes the index gaps of sparse count matrices — Golomb coding is optimal
//!   for the geometrically distributed gaps the paper expects.
//!
//! Every fixed-width integer array among them (GD base IDs, dense counts, the
//! column codecs' residuals, codes, runs and deltas) is one [`BitPlane`]. Every
//! durable format is written through one writer, [`Out`], and read back
//! through its mirror, one bounded cursor, [`Bytes`], whose [`Bytes::count`]
//! is the only size a decoder reserves from.
//! All streams are MSB-first within each byte, so encoded sizes match the paper's
//! `⌈bits / 8⌉` accounting exactly.

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
mod bitio;
mod bytes;
mod crc32;
mod golomb;
mod qlog;
mod varint;

pub use bitio::{BitPlane, BitReader, BitWriter};
pub use bytes::{frame, unframe, Bytes, Out};
pub use crc32::{crc32, Crc32};
pub use golomb::{golomb_decode, golomb_encode, golomb_len_bits, optimal_golomb_m};
pub use qlog::{read_qlog_body, read_qlog_prefix, write_qlog_record, QlogRecord, QLOG_MAGIC};
pub use varint::{
    read_ivarint, read_uvarint, unzigzag, uvarint_len, write_ivarint, write_uvarint, zigzag,
};

/// Number of bits needed to represent `v` (0 needs 1 bit).
#[inline]
pub fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_edges() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }
}

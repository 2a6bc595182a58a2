//! Columnar dataset substrate for the PairwiseHist AQP framework.
//!
//! The paper's problem definition (§3) considers a dataset `D` with `N` rows and `d`
//! attributes that may be integers, floating-point measurements, categorical values or
//! timestamps, with missing values. This crate provides that substrate: a typed,
//! null-aware, columnar in-memory table that the compression layer ([`ph-gd`]), the
//! synopsis ([`ph-core`]), the exact engine ([`ph-exact`]) and every baseline operate
//! on.
//!
//! Layout choices follow the usual analytical-store idioms: one contiguous buffer per
//! column plus a word-packed validity bitmap, so scans are cache-friendly and null
//! checks are branch-cheap.
//!
//! [`ph-gd`]: https://docs.rs/ph-gd
//! [`ph-core`]: https://docs.rs/ph-core
//! [`ph-exact`]: https://docs.rs/ph-exact

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
mod bitmap;
mod column;
mod dataset;
mod dict;
mod error;
pub mod faultfs;
mod value;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnData, ColumnType};
pub use dataset::{sample_rows, Dataset, DatasetBuilder};
pub use dict::DictIndex;
pub use error::{PhError, TypeError};
pub use value::Value;

/// FNV-1a over a byte string: the workspace's standard cheap stable hash
/// (query fingerprints, catalog file names). Not cryptographic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

//! GreedyGD: Generalized Deduplication compression with direct-analytics bases.
//!
//! Generalized Deduplication (GD) splits each data chunk — here, a table row — into a
//! **base** (the most significant bits of each attribute) and a **deviation** (the
//! remaining bits). Bases are deduplicated; deviations are stored verbatim with an ID
//! linking each row to its base (paper Fig 3). Compression results whenever many rows
//! share a base. GreedyGD \[8\] is the variant that greedily chooses, per column, how
//! many low-order bits go to the deviation so that total compressed size is minimised.
//!
//! Two properties matter for the AQP framework of the paper (§3):
//!
//! 1. the deduplicated **bases double as a coarse data synopsis** — PairwiseHist seeds
//!    its initial histogram bin edges from them, which speeds up construction;
//! 2. rows remain **randomly accessible** without decompressing the whole store, so
//!    the synopsis builder can decode just its `Ns`-row sample.
//!
//! Pipeline: [`Preprocessor::fit`] learns per-column lossless transforms (minimum
//! subtraction, float→integer conversion, frequency-ranked categorical codes, missing
//! value encoding — §3 "Data Compression"), [`Preprocessor::encode`] produces an
//! [`EncodedMatrix`] of non-negative integers, and [`GdCompressor`] picks the
//! base/deviation split and builds a [`GdStore`].

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
mod codec;
mod greedy;
mod matrix;
mod preprocess;
mod store;

pub use codec::{
    choose_codec, choose_store, BitPackCodec, ColumnCodec, ColumnarStore, DeltaCodec, DictCodec,
    EncodedPred, RowStore, RunEndCodec, SymbolTable,
};
pub use greedy::GdCompressor;
pub use matrix::EncodedMatrix;
pub use preprocess::{
    CodeRanks, ColumnTransform, EncodeScratch, EncodedLiteral, GdError, Preprocessor,
};
pub use store::GdStore;

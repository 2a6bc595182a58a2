//! R10 `one-bit-plane`: the column codecs pack through `BitPlane` alone.
//!
//! Every fixed-width array a column codec stores is a `ph_encoding::BitPlane`
//! (`pack` / `iter`, `Bytes::plane`, or `write_plane` / `Bytes::planes` for
//! planes that share a stream). A codec that calls the raw bit writer or
//! reader is a second packer, with its own length checks to get wrong.
//!
//! Flags the identifiers `write_bits` and `read_bits` anywhere under
//! `crates/gd/src/codec/`, test code included (a test that packs by hand
//! pins a layout the codecs do not write). A mention in a comment or a string
//! is not an identifier.

use super::Diagnostic;
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "one-bit-plane";

/// Flags raw bit reads and writes in the codec layer.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.rel.starts_with("crates/gd/src/codec/") {
        return;
    }
    for t in &ctx.tokens {
        if t.is_ident("write_bits") || t.is_ident("read_bits") {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: t.line,
                rule: NAME,
                message: format!(
                    "`{}` in a column codec is a second packer — store the array as a \
                     `BitPlane` (`pack`, `write_plane`, `Bytes::plane`/`planes`)",
                    t.text
                ),
            });
        }
    }
}

//! R12 `one-wire-layer`: durable bytes are written through `ph_encoding::Out`.
//!
//! Every durable format of `ph_core` and `ph_gd` is written through one
//! writer, `ph_encoding::Out`, the mirror of the `Bytes` cursor that reads it
//! back. A `to_le_bytes` push or a direct `write_uvarint` / `write_ivarint`
//! call is a second writer, one more place for an encoder to drift from its
//! decoder.
//!
//! Scope: the non-test code of `crates/core/src/` and `crates/gd/src/`, except
//! `crates/gd/src/store.rs` (the GreedyGD store, which leaves the serving
//! crates whole). `ph_encoding` implements the writer; `ph_obs`'s span ring
//! lives in memory and is not a durable format; `phbench` is never scanned.
//! A mention in a comment or a string is not an identifier.

use super::Diagnostic;
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "one-wire-layer";

/// The identifiers of a second writer.
const BANNED: [&str; 3] = ["to_le_bytes", "write_uvarint", "write_ivarint"];

/// Whether the rule looks at this file.
fn in_scope(rel: &str) -> bool {
    (rel.starts_with("crates/core/src/") || rel.starts_with("crates/gd/src/"))
        && rel != "crates/gd/src/store.rs"
}

/// Flags byte pushes that bypass `Out`.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !in_scope(&ctx.rel) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] || !BANNED.iter().any(|b| t.is_ident(b)) {
            continue;
        }
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line: t.line,
            rule: NAME,
            message: format!(
                "`{}` writes durable bytes beside `ph_encoding::Out` — write through its verbs \
                 (`u16`/`u32`/`u64`/`f64`, `uint`, `uvarint`, `ivarint`, `uvarint_str`, `bytes`, \
                 `plane`)",
                t.text
            ),
        });
    }
}

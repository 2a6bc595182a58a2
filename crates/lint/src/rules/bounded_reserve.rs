//! R9 `bounded-reserve`: a decoder sizes a reservation only from
//! `ph_encoding::Bytes::count`.
//!
//! A length read off the wire is a claim, and a few hostile bytes can claim
//! gigabytes. `Bytes::count(n, min_bytes_each)` returns `n` only when that many
//! items of at least `min_bytes_each` bytes fit in what is left of the body, so
//! a reservation sized from it never exceeds what its bytes can back.
//!
//! Scope: the non-test code of `ph_core`, `ph_gd` and `ph_encoding`, inside
//! functions named `from_bytes`, `from_tag_bytes`, `decode_*` or `read_*`.
//! There, the size of `with_capacity(…)`, `.reserve(…)`, `.reserve_exact(…)`
//! and `vec![_; …]` must be literal, contain a `.count(…)` call with arguments,
//! or use only names whose nearest `let` above it in the function binds such
//! a call. Token-scope approximation: it cannot tell `Bytes::count` from
//! another two-argument `count`, and a binding reached through a pattern or a
//! parameter is not a count. A size that is bounded another way (a value
//! derived from already-decoded structure) carries a justified allow.

use super::Diagnostic;
use crate::lexer::TokKind;
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "bounded-reserve";

/// Crates whose decoders the rule covers.
const CRATES: [&str; 3] = ["crates/core/src/", "crates/gd/src/", "crates/encoding/src/"];

/// Flags reservations in decoders that are not sized from `Bytes::count`.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !CRATES.iter().any(|c| ctx.rel.starts_with(c)) {
        return;
    }
    let fns = ctx.enclosing_fns();
    for i in 0..ctx.tokens.len() {
        let Some(name) = fns[i] else { continue };
        if ctx.in_test[i] || !is_decoder(name) {
            continue;
        }
        let size = match ctx.ident(i) {
            Some("with_capacity") if ctx.punct(i + 1, '(') => (i + 2, ctx.closing(i + 1)),
            Some("reserve" | "reserve_exact")
                if i > 0 && ctx.punct(i - 1, '.') && ctx.punct(i + 1, '(') =>
            {
                (i + 2, ctx.closing(i + 1))
            }
            Some("vec") if ctx.punct(i + 1, '!') && ctx.punct(i + 2, '[') => {
                let close = ctx.closing(i + 2);
                match (i + 3..close).find(|&j| ctx.punct(j, ';') && depth(ctx, i + 3, j) == 0) {
                    Some(semi) => (semi + 1, close),
                    None => continue, // `vec![a, b]`: sized by its elements
                }
            }
            _ => continue,
        };
        if !counted(ctx, &fns, i, size) {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: ctx.tokens[i].line,
                rule: NAME,
                message: format!(
                    "a reservation in decoder `{name}` is not sized from `Bytes::count` — a \
                     length off the wire must pass `count(n, min_bytes_each)` first"
                ),
            });
        }
    }
}

/// Whether a function of this name decodes bytes.
fn is_decoder(name: &str) -> bool {
    matches!(name, "from_bytes" | "from_tag_bytes")
        || name.starts_with("decode_")
        || name.starts_with("read_")
}

/// Bracket depth of `end` relative to `start`.
fn depth(ctx: &FileCtx, start: usize, end: usize) -> i32 {
    (start..end).fold(0, |d, j| {
        if ctx.punct(j, '(') || ctx.punct(j, '[') || ctx.punct(j, '{') {
            d + 1
        } else if ctx.punct(j, ')') || ctx.punct(j, ']') || ctx.punct(j, '}') {
            d - 1
        } else {
            d
        }
    })
}

/// Whether `tokens[from..to]` hold a `.count(…)` call with arguments.
fn calls_count(ctx: &FileCtx, (from, to): (usize, usize)) -> bool {
    (from..to).any(|j| {
        ctx.punct(j.wrapping_sub(1), '.')
            && ctx.ident(j) == Some("count")
            && ctx.punct(j + 1, '(')
            && !ctx.punct(j + 2, ')')
    })
}

/// Whether the size expression `tokens[from..to]` of the reservation at `at`
/// is literal, calls `count`, or names only bindings of a `count`.
fn counted(ctx: &FileCtx, fns: &[Option<&str>], at: usize, size: (usize, usize)) -> bool {
    if calls_count(ctx, size) {
        return true;
    }
    (size.0..size.1).filter(|&j| ctx.tokens[j].kind == TokKind::Ident).all(|j| {
        let name = ctx.tokens[j].text.as_str();
        // The nearest `let [mut] name =` above the reservation, in its fn.
        let binding = (0..at).rev().take_while(|&k| fns[k] == fns[at]).find(|&k| {
            ctx.ident(k) == Some("let") && {
                let n = if ctx.ident(k + 1) == Some("mut") { k + 2 } else { k + 1 };
                ctx.ident(n) == Some(name) && (ctx.punct(n + 1, '=') || ctx.punct(n + 1, ':'))
            }
        });
        binding.is_some_and(|k| {
            let end = (k..at).find(|&e| ctx.punct(e, ';') && depth(ctx, k, e) == 0).unwrap_or(at);
            calls_count(ctx, (k, end))
        })
    })
}

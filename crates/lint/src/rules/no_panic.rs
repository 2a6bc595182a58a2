//! R2 `no-panic-serving`: the serving path must degrade, never die.
//!
//! A panic in a worker thread takes out that worker; a panic while a lock is
//! held poisons it and (with `expect("… lock")` at every acquisition site)
//! cascades into taking out *every* worker — one bad request becomes a full
//! outage. The serving path is therefore held to panic-freedom: no
//! `unwrap`/`expect`, no panic-family macros, and no slice indexing (the
//! stealthiest panic of all) in `ph_server`'s library code or in the
//! `ph_core` modules every request crosses (every file of `session/`, then
//! `persist`, `segment` — the segment load and the refit's decode — `wal`,
//! `storage`).
//!
//! Scope notes: binaries are exempt (aborting with a message at startup *is*
//! the operator interface), tests are exempt (an `unwrap` in a test is an
//! assertion). Deliberate sites — a clamped index, a checked invariant — get a
//! justified allow, which doubles as the proof obligation's documentation.

use super::{paths, Diagnostic};
use crate::lexer::TokKind;
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "no-panic-serving";

/// Panic-family macro names.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Macros whose panics are debug-only or deliberate assertions: flagged via
/// the stricter subset only. (`assert!` in serving code is a real abort and
/// is flagged; `debug_assert!` vanishes in release builds and is not.)
const EXEMPT_MACROS: &[&str] = &["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// The files held to panic-freedom.
fn in_scope(rel: &str) -> bool {
    if paths::is_test_path(rel) || paths::is_bin(rel) {
        return false;
    }
    rel.starts_with("crates/server/src/")
        || rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/core/src/session/")
        || rel == "crates/core/src/persist.rs"
        || rel == "crates/core/src/segment.rs"
        || rel == "crates/core/src/wal.rs"
        || rel == "crates/core/src/storage.rs"
}

/// Scans for panic sites.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !in_scope(&ctx.rel) {
        return;
    }
    let toks = &ctx.tokens;
    let mut diag = |i: usize, msg: String| {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line: toks[i].line,
            rule: NAME,
            message: msg,
        });
    };
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(` — method position only, so a local fn
        // named `expect` (the JSON parser has one) is not confused with
        // `Option::expect`.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && ctx.punct(i + 1, '(')
        {
            diag(
                i,
                format!(
                    ".{}() can panic a worker (a poisoned lock here cascades into a full \
                     outage); recover, propagate a PhError, or add a justified allow",
                    t.text
                ),
            );
            continue;
        }
        // Panic-family macros.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && !EXEMPT_MACROS.contains(&t.text.as_str())
            && ctx.punct(i + 1, '!')
        {
            diag(i, format!("{}! aborts the serving thread; return an error instead", t.text));
            continue;
        }
        // Slice/array indexing: `expr[...]` panics out of bounds. An opening
        // `[` directly after an identifier, `)`, `]` or `?` is an index
        // expression; after anything else it is an array literal, attribute,
        // or type syntax.
        if t.is_punct('[') && i > 0 {
            let p = &toks[i - 1];
            let indexing = matches!(p.kind, TokKind::Ident) && !is_keyword_before_bracket(&p.text)
                || p.is_punct(')')
                || p.is_punct(']')
                || p.is_punct('?');
            if indexing {
                diag(
                    i,
                    "slice indexing panics out of bounds — the stealthiest serving-path \
                     abort; use .get()/.get_mut() or first/last, or add a justified allow"
                        .into(),
                );
            }
        }
    }
}

/// `return [..]`, `in [..]`, `break [..]` … — an identifier-looking keyword
/// before `[` starts an array literal (or, after `let`, a slice pattern), not
/// an index.
fn is_keyword_before_bracket(word: &str) -> bool {
    matches!(
        word,
        "return"
            | "in"
            | "break"
            | "else"
            | "match"
            | "if"
            | "while"
            | "mut"
            | "dyn"
            | "as"
            | "let"
            | "impl"
            | "where"
            | "const"
            | "static"
            | "type"
            | "box"
            | "move"
            | "yield"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::FileCtx;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(rel, src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn unwrap_expect_and_macros_fire() {
        let src = "fn f() { a.unwrap(); b.expect(\"m\"); panic!(\"x\"); unreachable!(); }";
        let d = run("crates/server/src/server.rs", src);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn indexing_fires_but_literals_do_not() {
        let src = "fn f() { let a = [1, 2]; let b = a[0]; let c = &xs[1..]; let t: [u8; 4]; }";
        let d = run("crates/core/src/wal.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn non_panicking_cousins_are_fine() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|p| p.into_inner()); c.get(i); \
                   debug_assert!(x); }";
        assert!(run("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn local_fn_named_expect_is_not_flagged() {
        let src = "fn expect(b: &[u8]) {} fn f() { expect(bytes); }";
        assert!(run("crates/server/src/json.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_files_and_tests_are_exempt() {
        let src = "fn f() { a.unwrap(); }";
        assert!(run("crates/core/src/engine.rs", src).is_empty());
        assert!(run("crates/server/src/bin/ph-serve.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }";
        assert!(run("crates/server/src/server.rs", test_src).is_empty());
    }
}

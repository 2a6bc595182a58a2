//! R4 `error-convention`: one error type flows through the stack.
//!
//! The workspace's contract since PR 2: every layer's error converts into
//! `ph_types::PhError` via a `From` impl living next to the source type, so
//! the `Session` facade — and anything built on `AqpEngine` — propagates a
//! single type with `?`. A public library function returning `Result<_, E>`
//! for an `E` outside that family (a bare `String`, an ad-hoc enum without a
//! `From` impl) breaks the chain: callers can no longer `?` it into the
//! session, so they reach for `unwrap` — which R2 then rightly rejects. The
//! two rules together close the loop.
//!
//! Accepted error types: `PhError` itself, `std::io::Error` (spelled
//! `io::Error` or via `io::Result<T>`), and any type `X` with an
//! `impl From<X> for PhError` anywhere in the workspace (collected by the
//! engine's pre-pass into [`WsCtx`]). `fmt::Result` and single-argument
//! `Result<T>` aliases other than `io::Result` are skipped — a token-scope
//! pass cannot resolve them, and guessing would flag valid code.

use super::{paths, Diagnostic, WsCtx};
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "error-convention";

/// Library crates only: the product surface under `crates/*/src`, minus
/// binaries, shims, the bench harness and this linter.
fn in_scope(rel: &str) -> bool {
    paths::is_crate_src(rel)
        && !paths::is_bin(rel)
        && !paths::is_shim(rel)
        && !paths::is_bench_crate(rel)
        && !paths::is_lint_crate(rel)
}

/// Scans public fn signatures.
pub fn check(ctx: &FileCtx, ws: &WsCtx, out: &mut Vec<Diagnostic>) {
    if !in_scope(&ctx.rel) {
        return;
    }
    let toks = &ctx.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if ctx.in_test[i] || !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        let mut j = i + 1;
        if ctx.punct(j, '(') {
            i += 1;
            continue;
        }
        while matches!(
            ctx.ident(j),
            Some("const") | Some("async") | Some("unsafe") | Some("extern")
        ) {
            j += 1;
            if toks.get(j).is_some_and(|t| t.kind == crate::lexer::TokKind::Str) {
                j += 1; // extern "C"
            }
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        let fn_name = ctx.ident(j + 1).unwrap_or("?").to_string();
        let sig_line = toks[j].line;
        // Scan to `->` (if any) before the body `{`, a `;`, or `where`.
        let mut k = j + 2;
        let mut bal = 0i32;
        let mut arrow = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                bal += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                bal -= 1;
            } else if bal == 0 {
                if t.is_punct('-') && ctx.punct(k + 1, '>') {
                    arrow = Some(k + 2);
                    k += 2;
                    continue;
                }
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
            }
            k += 1;
        }
        let Some(ret_start) = arrow else {
            i = k;
            continue;
        };
        if let Some(err) = offending_error_type(ctx, ws, ret_start, k) {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: sig_line,
                rule: NAME,
                message: format!(
                    "pub fn {fn_name} returns Result<_, {err}>, which has no From<{err}> \
                     for PhError impl — callers cannot `?` it through the stack; use \
                     PhError, or give {err} a From impl beside its definition"
                ),
            });
        }
        i = k;
    }
}

/// Examines the return type tokens `[start..end)`; returns the offending
/// error type name if the convention is broken.
fn offending_error_type(ctx: &FileCtx, ws: &WsCtx, start: usize, end: usize) -> Option<String> {
    let toks = &ctx.tokens;
    // Locate the first `Result` identifier in the return type.
    let r = (start..end).find(|&k| toks[k].is_ident("Result"))?;
    // `fmt::Result` and other un-parameterized aliases: nothing to check.
    if !ctx.punct(r + 1, '<') {
        return None;
    }
    let io_alias =
        r >= 3 && ctx.punct(r - 1, ':') && ctx.punct(r - 2, ':') && ctx.ident(r - 3) == Some("io");
    // Split the generic arguments at top level.
    let mut depth = 1i32;
    let mut k = r + 2;
    let mut arg_starts = vec![k];
    while k < end && depth > 0 {
        let t = &toks[k];
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 1 {
            arg_starts.push(k + 1);
        }
        k += 1;
    }
    if arg_starts.len() < 2 {
        // One generic argument: `io::Result<T>` means io::Error (accepted —
        // the workspace has From<io::Error> for PhError); any other alias is
        // unresolvable at token scope.
        let _ = io_alias;
        return None;
    }
    // The error type is the second argument; judge it by its last path
    // segment before any of its own generics.
    let estart = arg_starts[1];
    let mut last_seg: Option<String> = None;
    let mut d2 = 0i32;
    for t in toks.iter().take(k.saturating_sub(1)).skip(estart) {
        if t.is_punct('<') {
            d2 += 1;
        } else if t.is_punct('>') {
            d2 -= 1;
        } else if d2 == 0 && t.kind == crate::lexer::TokKind::Ident {
            last_seg = Some(t.text.clone());
        }
    }
    let name = last_seg?;
    let accepted = name == "PhError"
        || name == "Error" // io::Error etc.: From<io::Error> exists
        || ws.pherror_froms.contains(&name);
    if accepted {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::FileCtx;

    fn run(src: &str, froms: &[&str]) -> Vec<Diagnostic> {
        let ctx = FileCtx::new("crates/server/src/wire.rs", src);
        let ws = WsCtx { pherror_froms: froms.iter().map(|s| s.to_string()).collect() };
        let mut out = Vec::new();
        check(&ctx, &ws, &mut out);
        out
    }

    #[test]
    fn string_error_on_pub_fn_fires() {
        let d = run("pub fn f(x: u8) -> Result<u8, String> { Ok(x) }", &[]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("String"));
    }

    #[test]
    fn pherror_and_from_family_pass() {
        let src = "pub fn a() -> Result<(), PhError> { Ok(()) }\n\
                   pub fn b() -> Result<u8, GdError> { Ok(1) }\n\
                   pub fn c(p: &Path) -> io::Result<Vec<u8>> { std::fs::read(p) }\n\
                   pub fn d() -> Result<(), std::io::Error> { Ok(()) }\n";
        assert!(run(src, &["GdError"]).is_empty());
    }

    #[test]
    fn unknown_crate_error_without_from_fires() {
        let d = run("pub fn f() -> Result<(), GdError> { Ok(()) }", &[]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn private_and_pub_crate_fns_are_skipped() {
        let src = "fn f() -> Result<(), String> { Ok(()) }\n\
                   pub(crate) fn g() -> Result<(), String> { Ok(()) }\n";
        assert!(run(src, &[]).is_empty());
    }

    #[test]
    fn fmt_result_and_plain_returns_pass() {
        let src = "pub fn f(&self, f: &mut fmt::Formatter) -> fmt::Result { Ok(()) }\n\
                   pub fn g() -> usize { 0 }\n";
        assert!(run(src, &[]).is_empty());
    }

    #[test]
    fn ws_ctx_absorbs_from_impls() {
        let ctx = FileCtx::new(
            "crates/gd/src/lib.rs",
            "impl From<GdError> for PhError { fn from(e: GdError) -> Self { todo!() } }",
        );
        let mut ws = WsCtx::default();
        ws.absorb(&ctx);
        assert_eq!(ws.pherror_froms, vec!["GdError"]);
    }

    #[test]
    fn ws_ctx_absorbs_qualified_target_paths() {
        let ctx = FileCtx::new(
            "crates/gd/src/lib.rs",
            "impl From<GdError> for ph_types::PhError { fn from(e: GdError) -> Self { todo!() } }\n\
             impl From<wal::Oops> for other::Error { }",
        );
        let mut ws = WsCtx::default();
        ws.absorb(&ctx);
        assert_eq!(ws.pherror_froms, vec!["GdError"], "qualified PhError accepted, others not");
    }
}

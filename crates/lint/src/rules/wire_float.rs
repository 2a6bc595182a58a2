//! R5 `wire-float-hygiene`: in wire-format files, the lossless encoder is the
//! only float egress.
//!
//! PR 5's contract is that an answer crossing the wire is **bit-identical** to
//! the in-process answer; it holds because every `f64` is serialized by one
//! function (`json::write_f64`, shortest-round-trip) and parsed by one. Any
//! ad-hoc stringification in the files that define wire bytes —
//! `wire.rs`, `qlog.rs`, `querylog.rs` — is a latent second egress: today it
//! formats a path, tomorrow someone formats an estimate with `{:.3}` and the
//! replay tests go red a week later on one unlucky query.
//!
//! The rule therefore bans, in those files: Display placeholders (`{}`,
//! `{name}`, width/fill specs), precision/exponent specs (`{:.3}`, `{:e}`),
//! `.to_string()`, and `as f32` narrowing. Debug (`{:?}`) and explicitly
//! numeric (`{:x}`-family on integers) placeholders stay legal — they never
//! carry a wire float. String-building that is genuinely needed rewrites to
//! `String::from`/`.to_owned()` (which do not exist for floats, so the
//! compiler — not this linter — then guarantees no float sneaks through) or
//! carries a justified allow.

use super::Diagnostic;
use crate::lexer::TokKind;
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "wire-float-hygiene";

/// Format-building macros whose first string literal is a format string.
const FMT_MACROS: &[&str] =
    &["format", "write", "writeln", "print", "println", "eprint", "eprintln", "format_args"];

/// The wire-format files.
fn in_scope(rel: &str) -> bool {
    rel.ends_with("/wire.rs") || rel.ends_with("/qlog.rs") || rel.ends_with("/querylog.rs")
}

/// Scans for ad-hoc stringification.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !in_scope(&ctx.rel) {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        // `.to_string()`.
        if t.is_ident("to_string") && i > 0 && toks[i - 1].is_punct('.') && ctx.punct(i + 1, '(') {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: t.line,
                rule: NAME,
                message: ".to_string() in a wire-format file is a second float egress \
                          waiting to happen; use String::from/.to_owned() for strings \
                          (they don't exist for floats) or route through the JSON encoder"
                    .into(),
            });
            continue;
        }
        // `as f32` narrowing destroys f64 bit-identity.
        if t.is_ident("as") && ctx.ident(i + 1) == Some("f32") {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: t.line,
                rule: NAME,
                message: "`as f32` narrows an f64 — bit-identity across the wire is lost".into(),
            });
            continue;
        }
        // Format macros: audit the format string's placeholders.
        if t.kind == TokKind::Ident
            && FMT_MACROS.contains(&t.text.as_str())
            && ctx.punct(i + 1, '!')
        {
            // The format string is the first Str token in the macro call
            // (for write!/writeln! it follows the destination argument).
            let fmt = (i + 2..(i + 12).min(toks.len()))
                .find(|&k| toks[k].kind == TokKind::Str)
                .map(|k| toks[k].text.as_str());
            if let Some(fmt) = fmt {
                if let Some(bad) = first_display_placeholder(fmt) {
                    out.push(Diagnostic {
                        file: ctx.rel.clone(),
                        line: t.line,
                        rule: NAME,
                        message: format!(
                            "{}! formats `{{{bad}}}` via Display in a wire-format file — \
                             if the argument is (or becomes) a float this silently forks \
                             the wire encoding; use {{:?}} for diagnostics or route \
                             values through the JSON encoder",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// First placeholder in `fmt` that formats via Display or a lossy numeric
/// spec. Returns its inner text; `None` when all placeholders are `{:?}`-like
/// or escaped braces.
fn first_display_placeholder(fmt: &str) -> Option<String> {
    let b = fmt.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != b'{' {
            i += 1;
            continue;
        }
        if b.get(i + 1) == Some(&b'{') {
            i += 2; // escaped `{{`
            continue;
        }
        let close = fmt[i + 1..].find('}').map(|o| i + 1 + o)?;
        let inner = &fmt[i + 1..close];
        match inner.split_once(':') {
            // `{}` / `{name}`: Display.
            None => return Some(inner.to_string()),
            Some((_, spec)) => {
                // Debug and integer-radix specs never carry a wire float;
                // anything else (empty = Display, precision, exponent, fill)
                // is flagged.
                let spec_ok = spec.contains('?')
                    || spec.ends_with('x')
                    || spec.ends_with('X')
                    || spec.ends_with('b')
                    || spec.ends_with('o');
                if !spec_ok {
                    return Some(inner.to_string());
                }
            }
        }
        i = close + 1;
    }
    None
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
    fn display_and_precision_placeholders_fire() {
        for src in [
            "fn f() { let s = format!(\"{}\", x); }",
            "fn f() { let s = format!(\"v={x}\"); }",
            "fn f() { let s = format!(\"{:.3}\", x); }",
            "fn f() { let s = format!(\"{:e}\", x); }",
        ] {
            assert_eq!(run("crates/server/src/wire.rs", src).len(), 1, "{src}");
        }
    }

    #[test]
    fn debug_hex_and_escaped_braces_pass() {
        for src in [
            "fn f() { let s = format!(\"{x:?}\"); }",
            "fn f() { let s = format!(\"{:04x}\", n); }",
            "fn f() { let s = format!(\"literal {{braces}}\"); }",
        ] {
            assert!(run("crates/server/src/querylog.rs", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn to_string_and_f32_fire() {
        let d = run(
            "crates/encoding/src/qlog.rs",
            "fn f() { let s = x.to_string(); let y = v as f32; }",
        );
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn other_files_are_out_of_scope() {
        let src = "fn f() { let s = format!(\"{}\", x); }";
        assert!(run("crates/server/src/server.rs", src).is_empty());
        assert!(run("crates/server/src/json.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { format!(\"{}\", x); } }";
        assert!(run("crates/server/src/wire.rs", src).is_empty());
    }
}

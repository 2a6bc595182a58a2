//! A hand-rolled Rust lexer, just deep enough for token-scope lints.
//!
//! The rules in this crate match *token sequences*, so the lexer's one job is
//! to never confuse code with non-code: string literals (plain, raw, byte),
//! char literals vs lifetimes, and line/block comments (nested) must all be
//! classified correctly, or a lint would fire on `"std::fs"` inside a test
//! string. Everything else — keywords, precedence, types — stays out of scope;
//! the rules reason about identifier/punctuation sequences instead.
//!
//! Comments are not discarded: they carry the `// ph-lint: allow(...)`
//! escape hatches and the `// SAFETY:` audit trail, so they come out as a
//! side list with line spans.

/// What a token is, at the fidelity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`std`, `fn`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`, `'_`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal, suffix included.
    Number,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`). `text` holds
    /// the raw content between the delimiters (escapes unprocessed).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character. Multi-char operators (`::`, `->`) are
    /// matched by the rules as consecutive `Punct` tokens.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Source text (for `Str`: the content between delimiters).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Is this the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes() == [c as u8]
    }
}

/// One comment with its line span and whether code precedes it on its first
/// line (a *trailing* comment annotates its own line; a standalone comment
/// annotates the next line of code).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` delimiters.
    pub text: String,
    /// 1-based first line.
    pub line_start: u32,
    /// 1-based last line (block comments may span several).
    pub line_end: u32,
    /// True when a token appears before the comment on `line_start`.
    pub trailing: bool,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenizes Rust source. Total: unterminated literals/comments consume to end
/// of input rather than erroring — a linter must degrade, not die, on the one
/// weird file.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut token_on_line = false;

    macro_rules! count_lines {
        ($range:expr) => {
            line += b[$range].iter().filter(|&&c| c == b'\n').count() as u32
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                token_on_line = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line_start: line,
                    line_end: line,
                    trailing: token_on_line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    text: src[start..end].to_string(),
                    line_start: start_line,
                    line_end: line,
                    trailing: token_on_line,
                });
            }
            b'"' => {
                let tok_line = line;
                let (content, next) = scan_plain_string(src, i + 1);
                count_lines!(i..next);
                out.tokens.push(Token { kind: TokKind::Str, text: content, line: tok_line });
                token_on_line = true;
                i = next;
            }
            b'r' | b'b' if starts_raw_or_byte_literal(b, i) => {
                let tok_line = line;
                let (kind, content, next) = scan_prefixed_literal(src, i);
                count_lines!(i..next);
                out.tokens.push(Token { kind, text: content, line: tok_line });
                token_on_line = true;
                i = next;
            }
            b'\'' => {
                let tok_line = line;
                let (kind, text, next) = scan_quote(src, i);
                count_lines!(i..next);
                out.tokens.push(Token { kind, text, line: tok_line });
                token_on_line = true;
                i = next;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i = scan_number(b, i);
                out.tokens.push(Token {
                    kind: TokKind::Number,
                    text: src[start..i].to_string(),
                    line,
                });
                token_on_line = true;
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80)
                {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
                token_on_line = true;
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                token_on_line = true;
                i += 1;
            }
        }
    }
    out
}

/// Does `b[i..]` start a raw string, byte string or byte char literal (as
/// opposed to a plain identifier beginning with `r`/`b`)?
fn starts_raw_or_byte_literal(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'r' => {
            let mut j = i + 1;
            while b.get(j) == Some(&b'#') {
                j += 1;
            }
            j > i + 1 && b.get(j) == Some(&b'"') || b.get(i + 1) == Some(&b'"')
        }
        b'b' => match b.get(i + 1) {
            Some(&b'"') | Some(&b'\'') => true,
            // `br#*"` — but not identifiers like `break`.
            Some(&b'r') => {
                let mut j = i + 2;
                while b.get(j) == Some(&b'#') {
                    j += 1;
                }
                b.get(j) == Some(&b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Scans a plain `"…"` body starting *after* the opening quote; returns the
/// content and the index after the closing quote.
fn scan_plain_string(src: &str, mut i: usize) -> (String, usize) {
    let b = src.as_bytes();
    let start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => i = (i + 2).min(b.len()),
            b'"' => return (src[start..i].to_string(), i + 1),
            _ => i += 1,
        }
    }
    (src[start..i].to_string(), i)
}

/// Scans `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` starting at the prefix
/// character. Returns (kind, content, index-after).
fn scan_prefixed_literal(src: &str, i: usize) -> (TokKind, String, usize) {
    let b = src.as_bytes();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) == Some(&b'\'') {
        // Byte char literal: reuse the char scanner from the quote.
        let (_, text, next) = scan_quote(src, j);
        return (TokKind::Char, text, next);
    }
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(b.get(j), Some(&b'"'));
    j += 1;
    let start = j;
    if raw {
        // Raw: no escapes; ends at `"` + `hashes` hash marks.
        while j < b.len() {
            if b[j] == b'"'
                && b[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
            {
                return (TokKind::Str, src[start..j].to_string(), j + 1 + hashes);
            }
            j += 1;
        }
        (TokKind::Str, src[start..j].to_string(), j)
    } else {
        let (content, next) = scan_plain_string(src, start);
        (TokKind::Str, content, next)
    }
}

/// Disambiguates `'` at index `i`: char literal (`'x'`, `'\n'`) vs lifetime
/// (`'a`, `'_`, `'static`). Returns (kind, text, index-after).
fn scan_quote(src: &str, i: usize) -> (TokKind, String, usize) {
    let b = src.as_bytes();
    let mut j = i + 1;
    if b.get(j) == Some(&b'\\') {
        // Escaped char literal: consume escape then closing quote.
        j += 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        let end = (j + 1).min(b.len());
        return (TokKind::Char, src[i..end].to_string(), end);
    }
    let ident_start =
        matches!(b.get(j), Some(&c) if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80);
    if ident_start {
        let mut k = j + 1;
        while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_' || b[k] >= 0x80) {
            k += 1;
        }
        if b.get(k) == Some(&b'\'') {
            // 'a' — a char literal.
            return (TokKind::Char, src[i..k + 1].to_string(), k + 1);
        }
        // 'a — a lifetime.
        return (TokKind::Lifetime, src[i..k].to_string(), k);
    }
    // Something like `'('` or a stray quote: take one char + closing quote if
    // present so we never loop.
    let mut k = j;
    if k < b.len() {
        k += 1;
    }
    if b.get(k) == Some(&b'\'') {
        k += 1;
    }
    (TokKind::Char, src[i..k].to_string(), k)
}

/// Scans a numeric literal starting at a digit. Consumes digits, radix
/// prefixes, `_`, exponents with signs, a fractional part, and type suffixes —
/// but stops before `..` (range) and `.method()`.
fn scan_number(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'0'..=b'9' | b'a'..=b'd' | b'f'..=b'z' | b'A'..=b'D' | b'F'..=b'Z' | b'_' => i += 1,
            b'e' | b'E' => {
                i += 1;
                if matches!(b.get(i), Some(&b'+') | Some(&b'-')) {
                    i += 1;
                }
            }
            b'.' => {
                // `1..n` is a range, `1.max()` a method call: both end the number.
                match b.get(i + 1) {
                    Some(&b'.') => break,
                    Some(c) if c.is_ascii_alphabetic() || *c == b'_' => break,
                    _ => i += 1,
                }
            }
            _ => break,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn code_in_strings_and_comments_is_not_code() {
        let src = r##"
            // std::fs::write in a comment
            /* nested /* block */ std::fs */
            let a = "std::fs::write";
            let b = r#"File::create"#;
            let c = b"unwrap()";
            real_ident();
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "real_ident"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("std::fs::write"));
    }

    #[test]
    fn char_vs_lifetime() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        let chars: Vec<_> = lexed.tokens.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn lines_and_trailing_comments() {
        let src = "let a = 1; // trailing\n// standalone\nlet b = 2;\n";
        let lexed = lex(src);
        assert!(lexed.comments[0].trailing);
        assert!(!lexed.comments[1].trailing);
        assert_eq!(lexed.comments[1].line_start, 2);
        let b_tok = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let lexed = lex(r###"let s = r#"a "quoted" unwrap()"#; done();"###);
        let s = lexed.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, r#"a "quoted" unwrap()"#);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let ids = idents("for i in 0..10 { x = 1.5e-3; y = 2.max(z); }");
        assert!(ids.contains(&"max".to_string()));
        let lexed = lex("0..10 1.5e-3 2.max 0xfe_u32");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3", "2", "0xfe_u32"]);
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("let s = r#\"unterminated");
        let _ = lex("/* unterminated");
    }
}

//! Per-file analysis shared by every rule: test-region detection and the
//! `ph-lint: allow` escape hatch.
//!
//! # Test regions
//!
//! Most rules exempt test code (tests *should* `unwrap`). A token is "in test"
//! when it sits inside the braces of an item annotated `#[cfg(test)]`,
//! `#[test]`, or any attribute whose path mentions `test` — covering
//! `#[cfg(test)] mod tests { … }` and standalone `#[test] fn`s. Whole files
//! under a `tests/`, `benches/` or `examples/` directory are exempted by path
//! in [`crate::rules`], not here.
//!
//! # Allow directives
//!
//! A justified escape is written as a comment:
//!
//! ```text
//! // ph-lint: allow(no-panic-serving) — invariant: delta appended 3 lines up
//! ```
//!
//! The justification after the closing parenthesis is **mandatory**: an allow
//! that does not say *why* is itself a violation (`bad-allow`), because an
//! unexplained suppression is exactly the silent convention drift this tool
//! exists to stop. A standalone directive covers the next line of code; a
//! trailing one covers its own line. `allow-file(rule)` at any position covers
//! the whole file (for the rare file whose purpose conflicts with a rule —
//! justification still required).

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// One parsed `ph-lint:` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule names inside the parentheses.
    pub rules: Vec<String>,
    /// Line of the directive comment (its last line, for block comments).
    pub line: u32,
    /// The code line this directive suppresses (the directive line itself for
    /// trailing comments, else the next line holding a token).
    pub covered_line: u32,
    /// True for `allow-file(...)`.
    pub file_wide: bool,
    /// The justification text after the parentheses (trimmed).
    pub justification: String,
}

/// The fully analyzed form of one source file, handed to every rule.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// `in_test[i]` ⇔ `tokens[i]` is inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: Vec<bool>,
    /// All comments (for the SAFETY audit).
    pub comments: Vec<Comment>,
    /// Parsed allow directives.
    pub allows: Vec<Allow>,
    /// Newlines in the source: its length as `wc -l` counts it.
    pub lines: u32,
}

impl FileCtx {
    /// Lexes and analyzes `src` as the file at `rel`.
    pub fn new(rel: &str, src: &str) -> FileCtx {
        let Lexed { tokens, comments } = lex(src);
        let in_test = mark_test_regions(&tokens);
        let allows = parse_allows(&comments, &tokens);
        let lines = src.bytes().filter(|&b| b == b'\n').count() as u32;
        FileCtx { rel: rel.to_string(), tokens, in_test, comments, allows, lines }
    }

    /// Is the diagnostic `(rule, line)` suppressed by an allow?
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rules.iter().any(|r| r == rule)
                && !a.justification.is_empty()
                && (a.file_wide || a.covered_line == line)
        })
    }

    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i) {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// Does `tokens[i..]` start with the given `::`-separated path? Each
    /// element of `path` is an identifier; separators are matched as two `:`
    /// punct tokens. Returns the index just past the match.
    pub fn match_path(&self, i: usize, path: &[&str]) -> Option<usize> {
        let mut j = i;
        for (n, seg) in path.iter().enumerate() {
            if n > 0 {
                if !(self.punct(j, ':') && self.punct(j + 1, ':')) {
                    return None;
                }
                j += 2;
            }
            if self.ident(j) != Some(*seg) {
                return None;
            }
            j += 1;
        }
        Some(j)
    }

    /// Is token `i` the punctuation `c`?
    pub fn punct(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// For each token, the name of the innermost `fn` whose body encloses it
    /// (closures belong to the `fn` they are written in).
    pub fn enclosing_fns(&self) -> Vec<Option<&str>> {
        let mut out = Vec::with_capacity(self.tokens.len());
        // Open fns: (name, brace depth just inside its body).
        let mut fns: Vec<(&str, usize)> = Vec::new();
        let mut pending: Option<&str> = None;
        let (mut depth, mut nest) = (0usize, 0usize);
        for i in 0..self.tokens.len() {
            if self.ident(i) == Some("fn") {
                pending = self.ident(i + 1);
            } else if self.punct(i, '(') || self.punct(i, '[') {
                nest += 1;
            } else if self.punct(i, ')') || self.punct(i, ']') {
                nest = nest.saturating_sub(1);
            } else if self.punct(i, ';') && nest == 0 {
                pending = None; // a declaration without a body
            } else if self.punct(i, '{') {
                depth += 1;
                if let Some(name) = pending.take() {
                    fns.push((name, depth));
                }
            } else if self.punct(i, '}') {
                if fns.last().is_some_and(|&(_, d)| d == depth) {
                    fns.pop();
                }
                depth = depth.saturating_sub(1);
            }
            out.push(fns.last().map(|&(name, _)| name));
        }
        out
    }

    /// Index of the token that closes the bracket opened at `open` (`(`, `[`
    /// or `{`), or the end of the file.
    pub fn closing(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.tokens.len() {
            if self.punct(i, '(') || self.punct(i, '[') || self.punct(i, '{') {
                depth += 1;
            } else if self.punct(i, ')') || self.punct(i, ']') || self.punct(i, '}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len()
    }
}

/// Marks tokens inside test items. Single forward pass: attributes are
/// collected until the item they annotate begins; a test-ish attribute marks
/// the item's brace-delimited body.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // `#[...]` or `#![...]` — scan the attribute's bracket group.
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let (attr_end, is_test) = scan_attr(tokens, j);
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = attr_end;
        while tokens.get(k).is_some_and(|t| t.is_punct('#')) {
            let mut l = k + 1;
            if tokens.get(l).is_some_and(|t| t.is_punct('!')) {
                l += 1;
            }
            if !tokens.get(l).is_some_and(|t| t.is_punct('[')) {
                break;
            }
            let (e, _) = scan_attr(tokens, l);
            k = e;
        }
        // Find the item's opening brace (stop at `;` — e.g. `mod tests;`).
        let mut open = None;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                open = Some(k);
                break;
            }
            if tokens[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = attr_end;
            continue;
        };
        // Mark to the matching close brace.
        let mut depth = 0i32;
        let mut m = open;
        while m < tokens.len() {
            if tokens[m].is_punct('{') {
                depth += 1;
            } else if tokens[m].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            in_test[m] = true;
            m += 1;
        }
        if m < tokens.len() {
            in_test[m] = true;
        }
        i = attr_end;
    }
    in_test
}

/// Scans an attribute whose `[` is at `open`. Returns (index past `]`, does
/// the attribute mention `test`).
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_test = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i + 1, is_test);
            }
        } else if t.kind == TokKind::Ident && t.text == "test" {
            is_test = true;
        }
        i += 1;
    }
    (i, is_test)
}

/// Parses every `ph-lint:` directive out of the comment list.
fn parse_allows(comments: &[Comment], tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("ph-lint:") else { continue };
        let rest = c.text[at + "ph-lint:".len()..].trim_start();
        let file_wide = rest.starts_with("allow-file");
        let keyword_len = if file_wide { "allow-file".len() } else { "allow".len() };
        if !rest.starts_with("allow") {
            // An unrecognized directive is reported as a malformed allow so
            // typos (`ph-lint: alow(...)`) cannot silently do nothing.
            out.push(Allow {
                rules: Vec::new(),
                line: c.line_end,
                covered_line: covered_line(c, tokens),
                file_wide: false,
                justification: String::new(),
            });
            continue;
        }
        let rest = rest[keyword_len..].trim_start();
        let (rules, justification) = match rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|close| (&r[..close], &r[close + 1..])))
        {
            Some((inside, after)) => {
                let rules: Vec<String> = inside
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                let just = after
                    .trim_start_matches(|ch: char| {
                        ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':')
                    })
                    .trim()
                    .to_string();
                (rules, just)
            }
            None => (Vec::new(), String::new()),
        };
        out.push(Allow {
            rules,
            line: c.line_end,
            covered_line: covered_line(c, tokens),
            file_wide,
            justification,
        });
    }
    out
}

/// The code line an allow comment covers: its own line when trailing, else
/// the first line at or after the comment that holds a token.
fn covered_line(c: &Comment, tokens: &[Token]) -> u32 {
    if c.trailing {
        return c.line_start;
    }
    tokens.iter().map(|t| t.line).filter(|&l| l > c.line_end).min().unwrap_or(c.line_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b(); }\n}\n";
        let ctx = FileCtx::new("x.rs", src);
        let a = ctx.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        let b = ctx.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        assert!(!ctx.in_test[a]);
        assert!(ctx.in_test[b]);
    }

    #[test]
    fn test_fn_with_stacked_attrs_is_marked() {
        let src = "#[test]\n#[ignore]\nfn t() { inner(); }\nfn live() { outer(); }\n";
        let ctx = FileCtx::new("x.rs", src);
        let i = ctx.tokens.iter().position(|t| t.is_ident("inner")).unwrap();
        let o = ctx.tokens.iter().position(|t| t.is_ident("outer")).unwrap();
        assert!(ctx.in_test[i]);
        assert!(!ctx.in_test[o]);
    }

    #[test]
    fn allow_parses_rules_and_justification() {
        let src = "// ph-lint: allow(durable-io, no-panic-serving) — demo loader, read-only\nlet x = 1;\n";
        let ctx = FileCtx::new("x.rs", src);
        assert_eq!(ctx.allows.len(), 1);
        let a = &ctx.allows[0];
        assert_eq!(a.rules, vec!["durable-io", "no-panic-serving"]);
        assert_eq!(a.justification, "demo loader, read-only");
        assert_eq!(a.covered_line, 2);
        assert!(ctx.is_allowed("durable-io", 2));
        assert!(!ctx.is_allowed("durable-io", 3));
    }

    #[test]
    fn unjustified_allow_suppresses_nothing() {
        let src = "// ph-lint: allow(durable-io)\nlet x = 1;\n";
        let ctx = FileCtx::new("x.rs", src);
        assert!(!ctx.is_allowed("durable-io", 2));
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src = "let x = 1; // ph-lint: allow(wire-float-hygiene): label, not a float\n";
        let ctx = FileCtx::new("x.rs", src);
        assert!(ctx.is_allowed("wire-float-hygiene", 1));
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// ph-lint: allow-file(error-convention) — total parser, String errors\nfn a() {}\nfn b() {}\n";
        let ctx = FileCtx::new("x.rs", src);
        assert!(ctx.is_allowed("error-convention", 3));
        assert!(ctx.is_allowed("error-convention", 999));
    }
}

//! `ph_lint` — a dependency-free invariant checker for this workspace, run as
//! a **blocking CI gate**.
//!
//! The codebase carries load-bearing conventions that the compiler cannot see:
//! durable I/O must route through `ph_types::faultfs` or the crash matrix
//! never exercises it; the serving path must not panic or a poisoned lock
//! cascades one bad request into a full outage; floats cross the wire through
//! exactly one lossless encoder or the bit-identity contract rots. In the
//! spirit of treating format invariants as *verifiable properties* rather than
//! conventions (PAPERS.md, "High-Ratio Compression for Machine-Generated
//! Data"), this crate machine-checks them on every push.
//!
//! # Architecture
//!
//! ```text
//! *.rs ──▶ lexer (strings/chars/comments exact) ──▶ FileCtx (test regions,
//!          allow directives) ──▶ rules (token-scope) ──▶ diagnostics
//!                       └──▶ WsCtx pre-pass (From<…> for PhError impls)
//! ```
//!
//! * [`lexer`] — hand-rolled Rust lexer; its single obligation is never
//!   confusing code with string/comment content.
//! * [`scope`] — `#[cfg(test)]`/`#[test]` region marking and the
//!   `// ph-lint: allow(rule) — justification` escape hatch (justification
//!   mandatory, audited by the `bad-allow` meta-rule).
//! * [`rules`] — the rule set; see `ph-lint --rules` or [`rules::RULES`].
//!
//! The crate has **zero dependencies** (not even workspace ones): the gate
//! must build before, and independently of, the code it checks.

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
pub mod lexer;
pub mod rules;
pub mod scope;

use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, WsCtx};
pub use scope::FileCtx;

/// Lints one file's source text as if at workspace-relative path `rel`.
/// The path decides which rules apply (see each rule's scoping); `ws` carries
/// the workspace pre-pass facts. This is the entry point the fixture tests
/// drive directly.
pub fn lint_source(rel: &str, src: &str, ws: &WsCtx) -> Vec<Diagnostic> {
    rules::check_file(&FileCtx::new(rel, src), ws)
}

/// A scanned workspace: every `.rs` file lexed and analyzed, plus the
/// workspace-level pre-pass facts.
pub struct Workspace {
    files: Vec<FileCtx>,
    ws: WsCtx,
}

impl Workspace {
    /// Walks `root`, reading every `.rs` file outside `target/`, `.git/` and
    /// this crate's own lint fixtures (which are deliberate violations).
    pub fn scan(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        let mut ws = WsCtx::default();
        for rel in paths {
            let src = std::fs::read_to_string(root.join(&rel))?;
            let ctx = FileCtx::new(&rel, &src);
            ws.absorb(&ctx);
            files.push(ctx);
        }
        Ok(Workspace { files, ws })
    }

    /// Runs every rule over every file. Diagnostics come back sorted by
    /// (file, line, rule).
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> =
            self.files.iter().flat_map(|f| rules::check_file(f, &self.ws)).collect();
        out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        out
    }

    /// Number of files scanned.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The workspace pre-pass facts (exposed for tests).
    pub fn ws_ctx(&self) -> &WsCtx {
        &self.ws
    }
}

/// Recursive walk collecting workspace-relative `.rs` paths.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            // The fixtures are known-bad snippets the tests assert on.
            if name == "fixtures" && rel_of(root, &path).starts_with("crates/lint/tests") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_of(root, &path));
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_yields_no_diagnostics() {
        let src = "pub fn f() -> Result<(), PhError> { Ok(()) }\n";
        assert!(lint_source("crates/core/src/engine.rs", src, &WsCtx::default()).is_empty());
    }

    #[test]
    fn diagnostics_render_as_path_line_rule() {
        let d = lint_source(
            "crates/core/src/wal.rs",
            "fn f() { std::fs::write(p, b); }",
            &WsCtx::default(),
        );
        assert_eq!(d.len(), 1);
        let s = d[0].to_string();
        assert!(s.starts_with("crates/core/src/wal.rs:1: [durable-io]"), "{s}");
    }

    #[test]
    fn allow_with_justification_suppresses_exactly_one_line() {
        let src = "// ph-lint: allow(durable-io) — demo data loader, read-only path\n\
                   fn f() { std::fs::read(p); }\n\
                   fn g() { std::fs::read(p); }\n";
        let d = lint_source("crates/core/src/wal.rs", src, &WsCtx::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn unjustified_allow_is_its_own_violation_and_suppresses_nothing() {
        let src = "// ph-lint: allow(durable-io)\nfn f() { std::fs::read(p); }\n";
        let d = lint_source("crates/core/src/wal.rs", src, &WsCtx::default());
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"durable-io"), "{d:?}");
        assert!(rules.contains(&"bad-allow"), "{d:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// ph-lint: allow(no-such-rule) — because\nfn f() {}\n";
        let d = lint_source("crates/core/src/wal.rs", src, &WsCtx::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::BAD_ALLOW);
    }
}

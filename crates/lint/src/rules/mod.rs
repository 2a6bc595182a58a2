//! The rule set. Each rule is a pure function `FileCtx (+ WsCtx) → diagnostics`;
//! this module holds the shared vocabulary (diagnostics, workspace context,
//! path scoping) and the registry the engine iterates.
//!
//! Rules are deliberately **token-scope approximations**: they reason about
//! identifier/punctuation sequences, not types or control flow, in the same
//! offline-shim spirit as the rest of the workspace — a hand-rolled pass with
//! zero dependencies that a CI job can run in milliseconds. Where an
//! approximation flags a deliberate pattern, the fix is a *justified*
//! `// ph-lint: allow(rule) — why` (see [`crate::scope`]); the justification
//! requirement turns each escape into documentation of the invariant's edge.

pub mod bounded_reserve;
pub mod durable_io;
pub mod error_convention;
pub mod file_size_cap;
pub mod lock_across_io;
pub mod metric_help;
pub mod no_panic;
pub mod one_bit_plane;
pub mod one_parallelism_rule;
pub mod one_wire_layer;
pub mod safety_comment;
pub mod wire_float;

use crate::scope::FileCtx;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (`durable-io`, …).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Workspace-level facts gathered in a pre-pass before per-file rules run.
#[derive(Debug, Default, Clone)]
pub struct WsCtx {
    /// Last path segment of every `X` with an `impl From<X> for PhError`
    /// anywhere in the workspace — the error types [`error_convention`]
    /// accepts on public `Result` signatures.
    pub pherror_froms: Vec<String>,
}

impl WsCtx {
    /// Scans one file for `impl From<X> for PhError` and records `X`.
    pub fn absorb(&mut self, ctx: &FileCtx) {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("impl") && toks.get(i + 1).is_some_and(|t| t.is_ident("From"))) {
                continue;
            }
            if !ctx.punct(i + 2, '<') {
                continue;
            }
            // Collect the source type up to the matching `>`.
            let mut depth = 1i32;
            let mut j = i + 3;
            let mut last_seg = None;
            while j < toks.len() && depth > 0 {
                if ctx.punct(j, '<') {
                    depth += 1;
                } else if ctx.punct(j, '>') {
                    depth -= 1;
                } else if depth == 1 {
                    if let Some(name) = ctx.ident(j) {
                        last_seg = Some(name.to_string());
                    }
                }
                j += 1;
            }
            if ctx.ident(j) != Some("for") {
                continue;
            }
            // The target may be a qualified path (`ph_types::PhError`); accept
            // any path whose final segment is `PhError`.
            let mut t = j + 1;
            let mut target_last = ctx.ident(t);
            while target_last.is_some() && ctx.punct(t + 1, ':') && ctx.punct(t + 2, ':') {
                t += 3;
                target_last = ctx.ident(t);
            }
            if target_last == Some("PhError") {
                if let Some(seg) = last_seg {
                    if !self.pherror_froms.contains(&seg) {
                        self.pherror_froms.push(seg);
                    }
                }
            }
        }
    }
}

/// Path predicates shared by the rules' scoping decisions. Paths are
/// workspace-relative with `/` separators.
pub mod paths {
    /// Test-only code by location: integration test dirs and bench harnesses.
    pub fn is_test_path(rel: &str) -> bool {
        rel.contains("/tests/") || rel.starts_with("tests/") || rel.contains("/benches/")
    }

    /// Example programs (documentation, not shipped surface).
    pub fn is_example(rel: &str) -> bool {
        rel.contains("/examples/") || rel.starts_with("examples/")
    }

    /// Offline dependency shims (mimic external crates' APIs verbatim).
    pub fn is_shim(rel: &str) -> bool {
        rel.starts_with("shims/")
    }

    /// The bench harness crate (measurement code, not serving surface).
    pub fn is_bench_crate(rel: &str) -> bool {
        rel.starts_with("crates/bench/")
    }

    /// This linter itself (a build tool; it reads the tree with `std::fs` and
    /// is not part of the product library surface).
    pub fn is_lint_crate(rel: &str) -> bool {
        rel.starts_with("crates/lint/")
    }

    /// A binary target (`src/bin/...` or `src/main.rs`): operator-facing
    /// entrypoints where aborting with a message at startup is the interface.
    pub fn is_bin(rel: &str) -> bool {
        rel.contains("/src/bin/") || rel.ends_with("/src/main.rs")
    }

    /// Library source inside `crates/*` (the product surface).
    pub fn is_crate_src(rel: &str) -> bool {
        rel.starts_with("crates/") && rel.contains("/src/")
    }
}

/// Every rule: `(name, one-line description)`. Kept in one place so
/// `ph-lint --rules` and the docs cannot drift from the implementation.
pub const RULES: &[(&str, &str)] = &[
    (
        durable_io::NAME,
        "std::fs / File:: / OpenOptions outside ph_types::faultfs, shims, benches and tests — \
         every durable write must be reachable by the fault-injection matrix",
    ),
    (
        no_panic::NAME,
        "unwrap/expect/panic!/unreachable!/todo!/unimplemented!/slice-indexing in serving-path \
         code (ph_server lib + ph_core session/*, persist, segment, wal, storage) — a worker \
         must degrade, not die",
    ),
    (
        lock_across_io::NAME,
        "faultfs/WAL/network I/O while a lock()/read()/write() guard binding is live in the \
         same block — I/O under a lock serializes the serving path (token-scope approximation)",
    ),
    (
        error_convention::NAME,
        "public fn returning Result in a library crate must use PhError or an error with a \
         From<…> for PhError impl — one error type flows through the whole stack",
    ),
    (
        wire_float::NAME,
        "ad-hoc stringification ({} display, {:.N} precision, to_string, as f32) in wire-format \
         files — the lossless JSON encoder is the only float egress",
    ),
    (
        safety_comment::NAME,
        "every `unsafe` must carry a `// SAFETY:` comment on or directly above its line",
    ),
    (
        metric_help::NAME,
        "a metric registered with counter()/gauge()/histogram()/push_header() must carry \
         non-empty help text — /metrics renders it as the family's # HELP line",
    ),
    (
        one_parallelism_rule::NAME,
        "std::thread::available_parallelism anywhere in ph_core but build::workers_for — every \
         engine thread count is the host's cores capped by the units of work, one rule",
    ),
    (
        bounded_reserve::NAME,
        "in a decoder of ph_core, ph_gd or ph_encoding (from_bytes, from_tag_bytes, decode_*, \
         read_*), with_capacity/reserve/vec![_; n] must take its size from Bytes::count — no \
         reservation exceeds what its bytes can back",
    ),
    (
        one_bit_plane::NAME,
        "write_bits/read_bits in crates/gd/src/codec — every fixed-width array a column codec \
         stores is a BitPlane, one packer",
    ),
    (
        one_wire_layer::NAME,
        "to_le_bytes/write_uvarint/write_ivarint in non-test ph_core or ph_gd code (but the \
         GreedyGD store) — every durable byte is written through ph_encoding::Out",
    ),
    (
        file_size_cap::NAME,
        "a source file under crates/*/src over 1,200 lines — split the module, do not raise \
         the cap",
    ),
    (
        BAD_ALLOW,
        "a ph-lint allow directive must name known rules and carry a non-empty justification",
    ),
];

/// Rule name for malformed allow directives (implemented by the engine, since
/// allows are parsed there; not suppressible by an allow).
pub const BAD_ALLOW: &str = "bad-allow";

/// Runs every per-file rule on `ctx`, honoring allow directives, and audits
/// the directives themselves.
pub fn check_file(ctx: &FileCtx, ws: &WsCtx) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    durable_io::check(ctx, &mut raw);
    no_panic::check(ctx, &mut raw);
    lock_across_io::check(ctx, &mut raw);
    error_convention::check(ctx, ws, &mut raw);
    wire_float::check(ctx, &mut raw);
    safety_comment::check(ctx, &mut raw);
    metric_help::check(ctx, &mut raw);
    one_parallelism_rule::check(ctx, &mut raw);
    bounded_reserve::check(ctx, &mut raw);
    one_bit_plane::check(ctx, &mut raw);
    one_wire_layer::check(ctx, &mut raw);
    file_size_cap::check(ctx, &mut raw);
    let mut out: Vec<Diagnostic> =
        raw.into_iter().filter(|d| !ctx.is_allowed(d.rule, d.line)).collect();

    // Audit the allows: unknown rule names and missing justifications are
    // violations in their own right — a typo'd or unexplained escape must not
    // pass silently. (bad-allow itself cannot be allowed away.) The linter's
    // own sources are exempt: their doc comments quote directive syntax as
    // examples, which the comment-level parser cannot tell from real use.
    if paths::is_lint_crate(&ctx.rel) {
        out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        return out;
    }
    let known: Vec<&str> = RULES.iter().map(|(n, _)| *n).collect();
    for a in &ctx.allows {
        if a.rules.is_empty() {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: a.line,
                rule: BAD_ALLOW,
                message: "malformed ph-lint directive: expected `allow(<rule>[, …]) — \
                          <justification>`"
                    .into(),
            });
            continue;
        }
        for r in &a.rules {
            if !known.contains(&r.as_str()) {
                out.push(Diagnostic {
                    file: ctx.rel.clone(),
                    line: a.line,
                    rule: BAD_ALLOW,
                    message: format!("allow names unknown rule '{r}' (see ph-lint --rules)"),
                });
            }
        }
        if a.justification.is_empty() {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: a.line,
                rule: BAD_ALLOW,
                message: "allow without a justification: write `allow(rule) — <why this \
                          site is sound>`"
                    .into(),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

//! R1 `durable-io`: all filesystem access in product code goes through
//! `ph_types::faultfs`.
//!
//! PR 6's crash-safety guarantee is only as strong as its coverage: the crash
//! matrix kills the process at every *wrapped* operation, so a write issued
//! through raw `std::fs` is invisible to fault injection — it gets torn in
//! production in ways no test ever rehearsed. This rule makes the routing
//! convention mechanical: `std::fs`, `File::…` and `OpenOptions` may appear
//! only inside `faultfs` itself (the wrapper has to call the real thing),
//! dependency shims, the bench harness, this linter, examples, and test code.

use super::{paths, Diagnostic};
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "durable-io";

/// Does the rule apply to this file at all?
fn in_scope(rel: &str) -> bool {
    if rel.ends_with("faultfs.rs")
        || paths::is_shim(rel)
        || paths::is_bench_crate(rel)
        || paths::is_lint_crate(rel)
        || paths::is_test_path(rel)
        || paths::is_example(rel)
    {
        return false;
    }
    paths::is_crate_src(rel) || rel.starts_with("src/")
}

/// Scans for forbidden filesystem entry points.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !in_scope(&ctx.rel) {
        return;
    }
    let n = ctx.tokens.len();
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.tokens[i];
        let hit = if ctx.match_path(i, &["std", "fs"]).is_some() {
            // `use std::fs...` and `std::fs::write(...)` alike: importing the
            // module is already the convention breach.
            Some("std::fs")
        } else if (t.is_ident("File") || t.is_ident("OpenOptions"))
            && ctx.punct(i + 1, ':')
            && ctx.punct(i + 2, ':')
            && !prev_is_path_sep(ctx, i)
        {
            Some("std::fs::File/OpenOptions")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: t.line,
                rule: NAME,
                message: format!(
                    "{what} bypasses ph_types::faultfs — this I/O is invisible to the \
                     fault-injection matrix, so its crash behavior is untested; route it \
                     through faultfs (or add a wrapper there)"
                ),
            });
        }
    }
}

/// `fs::File::create` would otherwise report twice (once for `std::fs`, once
/// for `File::`): suppress the `File::` hit when it is itself path-qualified.
fn prev_is_path_sep(ctx: &FileCtx, i: usize) -> bool {
    i >= 2 && ctx.punct(i - 1, ':') && ctx.punct(i - 2, ':')
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
    fn raw_fs_in_product_code_fires_once_per_site() {
        let d = run(
            "crates/server/src/querylog.rs",
            "use std::fs::File;\nfn f() { let g = File::create(p); }\n",
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].rule, NAME);
    }

    #[test]
    fn qualified_path_reports_once() {
        let d = run("crates/core/src/wal.rs", "fn f() { std::fs::File::create(p); }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn faultfs_shims_bench_tests_are_exempt() {
        for rel in [
            "crates/types/src/faultfs.rs",
            "shims/rand/src/lib.rs",
            "crates/bench/src/bin/logreplay.rs",
            "crates/server/tests/server_tests.rs",
            "tests/crash_matrix.rs",
            "examples/quickstart.rs",
            "crates/lint/src/main.rs",
        ] {
            assert!(run(rel, "fn f() { std::fs::write(p, b); }").is_empty(), "{rel}");
        }
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { std::fs::remove_dir_all(d); }\n}\n";
        assert!(run("crates/core/src/session/mod.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "// std::fs::write\nfn f() { let s = \"std::fs\"; }\n";
        assert!(run("crates/core/src/wal.rs", src).is_empty());
    }
}

//! R8 `one-parallelism-rule`: in `ph_core`, the host's core count is read in
//! one place — `build::workers_for`.
//!
//! Every thread count in the engine (the pair build, the GROUP BY fan-out)
//! comes from `workers_for`: the host's cores, capped by the units of work. A
//! second read of `available_parallelism` is a second rule, and the two drift
//! apart the first time one of them gains a cap the other lacks.
//!
//! Token-scope approximation: every `available_parallelism` identifier in
//! `crates/core/src/` — test code included, as a test reading the core count
//! tests a rule the engine does not run — is flagged unless the innermost
//! `fn` whose body encloses it is `workers_for` in `crates/core/src/build.rs`.
//! A mention in a comment or a string literal is not an identifier.

use super::Diagnostic;
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "one-parallelism-rule";

/// The one file and function that may read the core count.
const HOME: (&str, &str) = ("crates/core/src/build.rs", "workers_for");

/// Flags reads of the core count outside `build::workers_for`.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.rel.starts_with("crates/core/src/") {
        return;
    }
    let fns = ctx.enclosing_fns();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.is_ident("available_parallelism")
            && (ctx.rel.as_str(), fns[i]) != (HOME.0, Some(HOME.1))
        {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: t.line,
                rule: NAME,
                message: "the core count is read outside `build::workers_for` — take the \
                          thread count from `workers_for(units)` instead"
                    .into(),
            });
        }
    }
}

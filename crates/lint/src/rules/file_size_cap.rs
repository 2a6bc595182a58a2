//! R11 `file-size-cap`: no source file of a crate is over 1,200 lines.
//!
//! A module a newcomer can read in one sitting is the unit of this codebase's
//! design. `server.rs` was split at 2,028 lines and `session.rs` at 1,842; the
//! cap says to split the next one before it gets there, not to raise it.
//!
//! Counts newlines (as `wc -l` does) in every `.rs` file under `crates/*/src/`,
//! test modules included.

use super::{paths, Diagnostic};
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "file-size-cap";

/// The most lines a source file may have.
pub const MAX_LINES: u32 = 1_200;

/// Flags a crate source file longer than [`MAX_LINES`].
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if paths::is_crate_src(&ctx.rel) && ctx.lines > MAX_LINES {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line: MAX_LINES + 1,
            rule: NAME,
            message: format!(
                "{} lines, over the {MAX_LINES}-line cap — split the module, do not raise \
                 the cap",
                ctx.lines
            ),
        });
    }
}

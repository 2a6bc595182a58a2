//! R3 `lock-across-io`: no durable or network I/O while a lock guard binding
//! is live in the same block scope.
//!
//! I/O takes milliseconds (an fsync can take tens); a lock held across it
//! turns every other thread that wants the lock into a disk-latency hostage.
//! The workspace's concurrency design (epoch-swapped snapshots, lock-free
//! reads) exists precisely so that no reader ever waits on a writer's I/O —
//! this rule keeps new code from quietly reintroducing that wait.
//!
//! # Approximation
//!
//! This is a *token-scope* check, deliberately so. A guard is recognized as a
//! `let` binding whose initializer **ends** in `.lock()`, `.read()` or
//! `.write()` — with no arguments, which distinguishes `Mutex::lock()` /
//! `RwLock::read()` from `io::Read::read(&mut buf)` — optionally followed by
//! poison-handling (`.expect(…)`, `.unwrap()`, `.unwrap_or_else(…)`) or `?`.
//! Temporary guards consumed inside one expression
//! (`x.lock().….clone()`) are *not* bindings and are fine: they drop at the
//! statement's end. A live guard ends at `drop(guard)` or its block's close
//! brace. While one is live, calls into `faultfs::…`, `wal::…`,
//! `write_atomic(…)`, `std::net`, `TcpStream::…`, `polling::…`, `Poller::…`,
//! `.sync_all()`, `.write_all(…)`, `.flush()` and `.notify()` are flagged —
//! the last being the poll shim's self-pipe write: waking the event loop
//! while holding its completion-queue lock hands the loop a lock convoy.
//! (`.notify_one()`/`.notify_all()` are *not* flagged: a `Condvar` signal
//! under its own mutex is the condvar protocol, not I/O.)
//!
//! The deliberate exceptions — the WAL append that *must* happen under the
//! table writer lock (write-ahead ordering), the query-log mutex that exists
//! to serialize appends — carry justified allows, which is exactly where
//! those design decisions should be written down.

use super::{paths, Diagnostic};
use crate::scope::FileCtx;

/// Rule name.
pub const NAME: &str = "lock-across-io";

/// One live guard binding.
struct Guard {
    /// Binding name (`_`-prefixed or destructured patterns keep `None` and
    /// are only released by scope exit).
    name: Option<String>,
    /// Brace depth at the `let`; the guard dies when depth drops below this.
    depth: i32,
    /// Line of the binding, for the diagnostic.
    line: u32,
}

/// Files in scope: product library code (I/O discipline matters everywhere,
/// not just the serving path), minus shims/bench/linter/tests/examples.
fn in_scope(rel: &str) -> bool {
    if paths::is_shim(rel)
        || paths::is_bench_crate(rel)
        || paths::is_lint_crate(rel)
        || paths::is_test_path(rel)
        || paths::is_example(rel)
    {
        return false;
    }
    paths::is_crate_src(rel) || rel.starts_with("src/")
}

/// Scans for I/O under live guard bindings.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !in_scope(&ctx.rel) {
        return;
    }
    let toks = &ctx.tokens;
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if ctx.in_test[i] {
            // fall through the counterless branches below
        } else if t.is_ident("drop") && ctx.punct(i + 1, '(') {
            if let Some(name) = ctx.ident(i + 2) {
                if ctx.punct(i + 3, ')') {
                    guards.retain(|g| g.name.as_deref() != Some(name));
                }
            }
        } else if t.is_ident("let") {
            if let Some((guard, after)) = parse_guard_let(ctx, i, depth) {
                guards.push(guard);
                i = after;
                continue;
            }
        } else if !guards.is_empty() {
            if let Some(what) = io_call_at(ctx, i) {
                let g = &guards[guards.len() - 1];
                out.push(Diagnostic {
                    file: ctx.rel.clone(),
                    line: t.line,
                    rule: NAME,
                    message: format!(
                        "{what} while the guard from line {} is held — every thread \
                         contending that lock now waits on this I/O; move the I/O out of \
                         the critical section, drop() the guard first, or add a justified \
                         allow documenting why the ordering requires it",
                        g.line
                    ),
                });
            }
        }
        i += 1;
    }
}

/// If tokens at `i` start `let <pat> = <expr ending in guard acquisition> ;`,
/// returns the guard and the index of the terminating `;`.
fn parse_guard_let(ctx: &FileCtx, i: usize, depth: i32) -> Option<(Guard, usize)> {
    let toks = &ctx.tokens;
    // Binding name: first identifier after `let` (skipping `mut`); patterns
    // that destructure or are `let Some(x) =` style still yield a name good
    // enough for drop() matching.
    let mut j = i + 1;
    let mut name = None;
    while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
        if name.is_none() {
            if let Some(id) = ctx.ident(j) {
                if id != "mut" {
                    name = Some(id.to_string());
                }
            }
        }
        j += 1;
    }
    if !toks.get(j)?.is_punct('=') || toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
        return None;
    }
    // Initializer: up to the `;` balancing (), [], {} — or a top-level `{`,
    // which ends the condition of an `if let`/`while let` guard binding.
    let init_start = j + 1;
    let mut bal = 0i32;
    let mut end = init_start;
    while end < toks.len() {
        let t = &toks[end];
        if t.is_punct('{') && bal == 0 {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            bal += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            bal -= 1;
        } else if t.is_punct(';') && bal == 0 {
            break;
        }
        end += 1;
    }
    if !ends_in_guard_acquisition(ctx, init_start, end) {
        return None;
    }
    Some((Guard { name, depth, line: toks[i].line }, end))
}

/// Does the initializer `tokens[start..end]` end with `.lock()`, `.read()` or
/// `.write()` plus at most poison handling / `?`?
fn ends_in_guard_acquisition(ctx: &FileCtx, start: usize, end: usize) -> bool {
    let toks = &ctx.tokens;
    let mut k = end; // exclusive
                     // Strip trailing `?`.
    while k > start && toks[k - 1].is_punct('?') {
        k -= 1;
    }
    // Strip one trailing `.expect(…)`/`.unwrap()`/`.unwrap_or_else(…)` call.
    if k > start && toks[k - 1].is_punct(')') {
        let Some(open) = matching_open_paren(toks, k - 1, start) else { return false };
        if open >= 2
            && toks[open - 2].is_punct('.')
            && matches!(
                ctx.ident(open - 1),
                Some("expect") | Some("unwrap") | Some("unwrap_or_else") | Some("map_err")
            )
        {
            k = open - 1;
            // Re-strip: `.lock().unwrap()` leaves `.lock()` which the final
            // check below consumes.
            if k > start && toks.get(k - 1).is_some_and(|t| t.is_punct('.')) {
                k -= 1;
            }
            while k > start && toks[k - 1].is_punct('?') {
                k -= 1;
            }
        }
    }
    // Now require `… . (lock|read|write) ( )`.
    if k < start + 4 || !toks[k - 1].is_punct(')') || !toks[k - 2].is_punct('(') {
        return false;
    }
    matches!(ctx.ident(k - 3), Some("lock") | Some("read") | Some("write"))
        && toks[k - 4].is_punct('.')
}

/// Index of the `(` matching the `)` at `close`, searching no further back
/// than `floor`. (Option for easy `?` use; `None` on imbalance.)
fn matching_open_paren(toks: &[crate::lexer::Token], close: usize, floor: usize) -> Option<usize> {
    let mut bal = 0i32;
    let mut k = close;
    loop {
        if toks[k].is_punct(')') {
            bal += 1;
        } else if toks[k].is_punct('(') {
            bal -= 1;
            if bal == 0 {
                return Some(k);
            }
        }
        if k == floor {
            return None;
        }
        k -= 1;
    }
}

/// Is there an I/O call at token `i`? Returns a description for the message.
fn io_call_at(ctx: &FileCtx, i: usize) -> Option<&'static str> {
    let toks = &ctx.tokens;
    if ctx.match_path(i, &["faultfs"]).is_some() && ctx.punct(i + 1, ':') {
        return Some("faultfs call (durable I/O)");
    }
    if toks[i].is_ident("wal") && ctx.punct(i + 1, ':') && ctx.punct(i + 2, ':') {
        return Some("WAL call (fsynced append)");
    }
    if toks[i].is_ident("write_atomic") && ctx.punct(i + 1, '(') {
        return Some("atomic snapshot write");
    }
    if ctx.match_path(i, &["std", "net"]).is_some() {
        return Some("std::net call");
    }
    if toks[i].is_ident("TcpStream") && ctx.punct(i + 1, ':') && ctx.punct(i + 2, ':') {
        return Some("TcpStream call");
    }
    if (toks[i].is_ident("polling") || toks[i].is_ident("Poller"))
        && ctx.punct(i + 1, ':')
        && ctx.punct(i + 2, ':')
        // Not already inside a longer path (`polling::Poller::` fires once).
        && !(i > 0 && toks[i - 1].is_punct(':'))
    {
        return Some("poll-shim call (readiness I/O)");
    }
    if i > 0
        && toks[i - 1].is_punct('.')
        && ctx.ident(i) == Some("notify")
        && ctx.punct(i + 1, '(')
        && ctx.punct(i + 2, ')')
    {
        return Some("event-loop wakeup (self-pipe write)");
    }
    if i > 0
        && toks[i - 1].is_punct('.')
        && matches!(ctx.ident(i), Some("sync_all") | Some("write_all") | Some("flush"))
        && ctx.punct(i + 1, '(')
    {
        return Some("blocking stream write");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::FileCtx;

    fn run(src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new("crates/core/src/session/ingest.rs", src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn faultfs_under_guard_fires() {
        let src = "fn f() { let g = m.lock().unwrap(); faultfs::write(p, b); }";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("faultfs"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f() { let g = m.lock().unwrap(); drop(g); faultfs::write(p, b); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let src = "fn f() { { let g = m.read().expect(\"x\"); } faultfs::write(p, b); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporary_guard_in_expression_is_fine() {
        // `.read()…clone()` consumes the guard inside the statement.
        let src = "fn f() { let snap = cell.read().unwrap().clone(); faultfs::write(p, b); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn io_read_with_args_is_not_a_guard() {
        let src = "fn f() { let n = stream.read(&mut buf)?; TcpStream::connect(a); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn rwlock_write_guard_plus_stream_write_fires() {
        let src = "fn f() { let mut g = cell.write()?; out.write_all(b); }";
        let d = run(src);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn poller_notify_under_guard_fires() {
        let src = "fn f() { let mut q = done.lock().unwrap(); q.push(x); poller.notify(); }";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("wakeup"), "{d:?}");
    }

    #[test]
    fn poll_shim_path_under_guard_fires() {
        let src = "fn f() { let g = m.lock().unwrap(); polling::Poller::new(); }";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("poll-shim"), "{d:?}");
    }

    #[test]
    fn condvar_notify_one_under_guard_is_the_protocol_not_io() {
        let src = "fn f() { let mut g = m.lock().unwrap(); g.closed = true; cv.notify_one(); cv.notify_all(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn notify_after_guard_scope_is_fine() {
        let src = "fn f() { { let mut q = done.lock().unwrap(); q.push(x); } poller.notify(); }";
        assert!(run(src).is_empty());
    }
}

//! [`ServerConfig`]: every knob of one server instance, and the one set of
//! defaults embedded servers and `ph-serve` share.

use std::path::PathBuf;
use std::time::Duration;

/// Tuning knobs of one server instance: only what a deployment sets. The
/// span flight recorder behind `/debug/slow` has one size everywhere (16 Ki
/// spans) and is not configured here.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor worker threads draining the query queue one connection's run
    /// at a time; the event loop still answers a lone plan-cache hit itself
    /// (see the architecture notes in [`crate::server`]). `0` = inline mode:
    /// the loop runs every request itself (no hand-offs, but a slow ingest
    /// then stalls every socket).
    pub workers: usize,
    /// Parsed requests that may wait in the executor queue before the server
    /// answers `503` in-stream.
    pub queue_depth: usize,
    /// Largest request body accepted (bigger → `413`).
    pub max_body_bytes: usize,
    /// Deadline for receiving one complete request, armed at its first byte
    /// and never extended by partial progress — a client trickling a head
    /// byte-by-byte is closed at this deadline.
    pub read_timeout: Duration,
    /// Deadline for the peer to drain a pending response backlog.
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit idle *between* requests.
    /// Deliberately separate from `read_timeout`: holding mostly-idle
    /// sockets is the point of the event loop, stalling mid-request is not.
    pub idle_timeout: Duration,
    /// Concurrent-connection cap; over it, new connections get `503` at the
    /// door. Each connection costs one descriptor, so under a lower
    /// `RLIMIT_NOFILE` it is `accept` that fails first: the surplus then
    /// waits in the listen backlog instead of getting a `503`.
    pub max_connections: usize,
    /// Where to append the query log (`None` → no log).
    pub query_log: Option<PathBuf>,
    /// Queries slower than this (end-to-end, microseconds) land in the
    /// `GET /debug/slow` forensics ring. `0` records every query.
    pub slow_query_threshold_us: u64,
    /// How many slow queries `GET /debug/slow` retains (oldest evicted).
    pub slow_query_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).max(4),
            queue_depth: 64,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_connections: 10_000,
            query_log: None,
            slow_query_threshold_us: 100_000,
            slow_query_cap: 64,
        }
    }
}

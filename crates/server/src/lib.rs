//! # `ph_server` — the networked AQP serving layer
//!
//! Everything below this crate answers queries *in process*; this crate puts
//! the system on a socket. A [`Server`] is a dependency-free HTTP/1.1 process
//! component on `std::net`: a readiness-driven event loop (epoll via the
//! offline `polling` shim) holding thousands of non-blocking keep-alive
//! connections, with a batched executor pool over one shared
//! [`Session`](ph_core::Session) — serving:
//!
//! | endpoint        | what it does |
//! |-----------------|--------------|
//! | `POST /query`   | SQL in (raw text or `{"sql": …}`), JSON estimate with bounds out |
//! | `POST /ingest`  | JSON rows or CSV into a named table (O(batch) segmented ingest) |
//! | `GET /tables`   | catalog with per-table epoch / segment / row counts |
//! | `GET /stats`    | plan-cache hit/miss, per-table footprint, per-endpoint p50/p90/p99 latency |
//! | `GET /healthz`  | liveness, version, uptime |
//! | `GET /metrics`  | every metric family in Prometheus text exposition format ([`ph_obs`]) |
//! | `GET /debug/slow` | last N over-threshold queries: SQL fingerprint + full stage breakdown |
//!
//! Three serving-layer guarantees the in-process library cannot give:
//!
//! * **Admission control.** A connection past the cap is answered `503` at
//!   the door; a parsed request that doesn't fit the bounded executor queue
//!   is answered `503` in-stream. Either way the server sheds load fast and
//!   explicitly instead of accumulating unbounded work. Connection *capacity*
//!   is an fd budget, not a thread count ([`ServerConfig::max_connections`],
//!   10 000 by default): the event loop holds idle keep-alive sockets for a
//!   slab slot each, and pipelined requests on one connection are answered
//!   strictly in request order.
//! * **Structured failure.** Every [`PhError`](ph_types::PhError) maps to an
//!   HTTP status ([`status_for`]) and a JSON error body with a machine-readable
//!   `kind` — parse errors even carry the byte offset of the syntax error.
//! * **A workload memory.** Every `/query` is appended to a varint-compressed
//!   query log (the `PHQL1` format in [`ph_encoding`], after Xie et al.'s query
//!   log compression work), replayable by the `logreplay` bench bin — and by
//!   the tests, which assert a replayed log reproduces the served estimates.
//! * **Self-description.** Every request is traced through the [`ph_obs`]
//!   pipeline — HTTP read → admission → queue wait → parse → plan cache →
//!   per-segment estimate → merge → serialize — feeding the
//!   `ph_query_stage_seconds{stage}` histograms, a compact span flight
//!   recorder, and the `/debug/slow` forensics ring (fingerprints, never raw
//!   SQL). A 1 Hz scraper on `/metrics` costs the serving path nothing it
//!   wasn't already paying: handles are relaxed atomics and table footprints
//!   are cached on the immutable snapshot.
//!
//! The [`Client`] speaks the same wire format back: `Client::query` returns
//! the same [`AqpAnswer`](ph_core::AqpAnswer) a local `Session::sql` call
//! does, **bit-identical** (float-lossless JSON on both sides).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use ph_core::Session;
//! use ph_server::{Client, Server, ServerConfig};
//! use ph_types::{Column, Dataset};
//!
//! let data = Dataset::builder("demo")
//!     .column(Column::from_ints("x", (0..8_000).map(|i| Some(i % 100)).collect())).unwrap()
//!     .column(Column::from_ints("y", (0..8_000).map(|i| Some((i % 100) * 2)).collect())).unwrap()
//!     .build();
//! let session = Arc::new(Session::new());
//! session.register(data).unwrap();
//!
//! // Port 0 = ephemeral; `local_addr` has the resolved port.
//! let server = Server::bind(session, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::new(server.local_addr().to_string());
//! let estimate = client.query_scalar("SELECT COUNT(y) FROM demo WHERE x >= 50;").unwrap();
//! assert!(estimate.lo <= estimate.value && estimate.value <= estimate.hi);
//!
//! // Scrape the observability surface like Prometheus would.
//! let metrics = client.metrics().unwrap();
//! assert!(metrics.contains("# TYPE ph_queries_total counter"));
//! assert!(metrics.contains("ph_queries_total 1"));
//! server.shutdown();
//! ```
//!
//! Binaries: `ph-serve` (the server process) and `ph-bench-client` (a
//! closed-loop load generator over [`load::run_load`] — active closed loops,
//! optional pipelining, and an optional held-idle keep-alive population).

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
pub mod client;
mod config;
mod event_loop;
mod exec;
pub mod http;
mod ingest;
pub mod json;
pub mod load;
pub mod querylog;
pub mod server;
mod stats;
mod timer;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy};
pub use json::Json;
pub use load::{run_load, LoadProfile, LoadReport};
/// The observability substrate, re-exported for embedders and the `ph-serve`
/// bin (runtime tracing switch, registry/ring types).
pub use ph_obs as obs;
pub use querylog::{read_query_log, read_query_log_lossy, QueryLogWriter};
pub use server::{Server, ServerConfig, ServerStats};
pub use wire::{answer_from_json, answer_to_json, error_body, status_for};

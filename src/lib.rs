//! # PairwiseHist
//!
//! A from-scratch Rust implementation of **PairwiseHist: Fast, Accurate and
//! Space-Efficient Approximate Query Processing with Data Compression**
//! (Hurst, Lucani, Zhang — VLDB 2024), together with every substrate the paper's
//! framework depends on:
//!
//! * [`core`] — the PairwiseHist synopsis itself: one- and two-dimensional
//!   histograms refined by recursive χ² uniformity testing, per-bin metadata,
//!   the compact Fig 6 storage encoding, and bounded execution of seven
//!   aggregation functions;
//! * [`gd`] — GreedyGD: generalized-deduplication compression whose bases double
//!   as the synopsis seed and whose store supports random row access;
//! * [`sql`] — the query-template parser (`SELECT F(X) FROM t WHERE … GROUP BY g`);
//! * [`exact`] — the ground-truth row-scan engine used by the evaluation;
//! * [`baselines`] — sampling, DeepDB-like SPN, and DBEst-like KDE engines;
//! * [`datagen`] — synthetic analogues of the paper's 11 evaluation datasets and
//!   the IDEBench-style Gaussian scale-up;
//! * [`workload`] — seeded random query workloads with selectivity control;
//! * [`types`], [`stats`], [`encoding`] — the columnar table, statistics and
//!   bit-coding substrates.
//!
//! ## Quick start
//!
//! The front door is a [`Session`](ph_core::Session): a catalog of named tables,
//! each served by a synopsis, with plan caching, incremental ingest and
//! persistence built in. Register datasets, then speak SQL:
//!
//! ```
//! use pairwisehist::prelude::*;
//!
//! // A small correlated table.
//! let data = Dataset::builder("demo")
//!     .column(Column::from_ints("x", (0..20_000).map(|i| Some((i * i) % 997)).collect())).unwrap()
//!     .column(Column::from_ints("y", (0..20_000).map(|i| Some(((i * i) % 997) * 2)).collect())).unwrap()
//!     .build();
//!
//! // Keep the exact engine around for comparison before the session takes the rows.
//! let exact = ExactEngine::new(data.clone());
//!
//! // Register the table (builds its synopsis) and ask an approximate question.
//! let mut session = Session::new();
//! session.register(data).unwrap();
//! let sql = "SELECT AVG(y) FROM demo WHERE x > 500;";
//! let estimate = session.sql(sql).unwrap().scalar().unwrap();
//!
//! // Repeats of the template skip parsing and planning (prepared-query cache).
//! session.sql(sql).unwrap();
//! assert_eq!(session.cache_stats().hits, 1);
//!
//! // Every engine — synopsis, exact scan, baselines — answers the same parsed
//! // queries through the `AqpEngine` trait with the same bounded-estimate types.
//! let query = parse_query(sql).unwrap();
//! let truth = exact.answer(&query).unwrap().scalar().unwrap().value;
//! assert!((estimate.value - truth).abs() / truth < 0.05);
//! assert!(estimate.lo <= truth && truth <= estimate.hi);
//! ```
//!
//! ## Segmented storage: delta → seal → compact
//!
//! Behind the catalog, every table lives in **segmented storage**: a list of
//! immutable sealed segments — each holding its own synopsis *plus* its rows
//! in the per-column codec cascade ([`ColumnarStore`](ph_gd::ColumnarStore))
//! — and one active delta that
//! absorbs [`Session::ingest`](ph_core::Session::ingest) batches in O(batch).
//! When the delta crosses the seal threshold (or the staleness policy), it is
//! *sealed* into a new segment — O(threshold), independent of how large the
//! table has grown; there is no full-table rebuild on the ingest path. Queries
//! fan out across segment synopses and merge the partial estimates
//! ([`ph_core::merge`]: COUNT/SUM additive, AVG/VARIANCE by weighted moments,
//! CI widths combined from per-segment variances).
//! [`Session::compact`](ph_core::Session::compact) folds accumulated small
//! segments back into one, and
//! [`Session::footprint_report`](ph_core::Session::footprint_report) breaks a
//! table's resident bytes down into synopsis vs compressed row store vs raw
//! delta.
//!
//! A session persists: [`Session::save_dir`](ph_core::Session::save_dir) writes
//! one manifest per table plus one blob per segment (compressed rows included),
//! and [`Session::open_dir`](ph_core::Session::open_dir) reopens the catalog
//! cold — on another machine, an edge device, or the next process — answering
//! the same queries identically *and* remaining fully ingestable: rebuilds
//! decode the persisted compressed rows. Each blob kind has one format and
//! one reader; a file in any other format quarantines its table (below).
//!
//! ## Crash safety: WAL, atomic snapshots, quarantine
//!
//! Persistence is crash-safe end to end. Commits are **atomic** and
//! write-once: every file is written to a temp name, fsynced and renamed,
//! segment blobs commit before their table's manifest, a committed blob is
//! never rewritten, and everything on disk carries a CRC32 trailer — a crash
//! mid-save leaves the previous manifest intact, never a half-state. A session
//! with a **WAL home** — armed explicitly with
//! [`Session::enable_wal`](ph_core::Session::enable_wal), or implicitly by
//! `open_dir`, which makes the opened directory the home (query it with
//! [`Session::wal_enabled`](ph_core::Session::wal_enabled)) — journals every
//! accepted ingest batch *before* publishing it, and **checkpoints** every
//! change the journal cannot replay (registration, seal, refit, compaction)
//! into the home before the call returns: a seal's new segment blobs, then the
//! table's manifest, then the journal is deleted. So a `kill -9` loses nothing,
//! and the next `open_dir` replays only the batches since each table's last
//! seal, answering exactly as an uncrashed process would.
//!
//! Verification failures at open time (bit-rot, a doctored file) don't take
//! the catalog down: the damaged table is **quarantined** — excluded from
//! serving, listed with a reason in
//! [`Session::quarantined`](ph_core::Session::quarantined) and the server's
//! `/stats` — while every intact table serves. Queries against it return
//! [`PhError::Quarantined`](ph_types::PhError::Quarantined) (HTTP 503);
//! re-registering or dropping the table clears the entry.
//!
//! ## Sharing a session across threads
//!
//! `Session` is `Send + Sync` and every method takes `&self`: put one behind an
//! `Arc` (or share `&Session` with scoped threads) and serve readers and writers
//! concurrently. Queries run against immutable snapshots that ingest replaces
//! atomically, so readers never block on writers and every answer reflects one
//! consistent point of the ingest timeline. A [`Prepared`](ph_core::Prepared)
//! handle held across a seal or rebuild fails with
//! [`PhError::StalePlan`](ph_types::PhError::StalePlan) (re-prepare it);
//! [`Session::sql`](ph_core::Session::sql) re-prepares transparently.
//!
//! ```
//! use std::sync::Arc;
//! use pairwisehist::prelude::*;
//!
//! let data = Dataset::builder("demo")
//!     .column(Column::from_ints("x", (0..20_000).map(|i| Some(i % 1000)).collect())).unwrap()
//!     .column(Column::from_ints("y", (0..20_000).map(|i| Some((i % 1000) * 3)).collect())).unwrap()
//!     .build();
//! let session = Arc::new(Session::new());
//! session.register(data).unwrap();
//!
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let session = session.clone();
//!         std::thread::spawn(move || {
//!             session.sql("SELECT AVG(y) FROM demo WHERE x > 500").unwrap()
//!         })
//!     })
//!     .collect();
//! let answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(answers.windows(2).all(|w| w[0] == w[1]), "same snapshot, same answer");
//! ```
//!
//! ## Serving over the network
//!
//! The [`server`] layer puts a session on a socket: a dependency-free HTTP/1.1
//! [`Server`](ph_server::Server) (fixed worker pool, **bounded accept queue
//! with 503 admission control**, graceful shutdown) exposing `POST /query`,
//! `POST /ingest` (JSON rows or CSV), `GET /tables`, `GET /stats`
//! (plan-cache hit/miss via [`Session::stats`](ph_core::Session::stats),
//! per-table footprints, per-endpoint p50/p90/p99), `GET /healthz`,
//! `GET /metrics` (Prometheus text exposition of every
//! [`ph_obs`](ph_core::obs) family) and `GET /debug/slow` (recent
//! over-threshold queries with their full stage breakdown, keyed by SQL
//! fingerprint).
//! Every [`PhError`](ph_types::PhError) maps to a structured 4xx/5xx JSON body
//! ([`status_for`](ph_server::status_for)); parse errors carry the byte offset
//! of the syntax error. Served queries are appended to a varint-compressed
//! **query log** replayable by the `logreplay` bench bin. The bundled
//! [`Client`](ph_server::Client) returns the same
//! [`AqpAnswer`](ph_core::AqpAnswer) values a local `Session::sql` call
//! produces — bit-identical, because the wire format is float-lossless:
//!
//! ```
//! use std::sync::Arc;
//! use pairwisehist::prelude::*;
//!
//! let data = Dataset::builder("demo")
//!     .column(Column::from_ints("x", (0..8_000).map(|i| Some(i % 100)).collect())).unwrap()
//!     .column(Column::from_ints("y", (0..8_000).map(|i| Some((i % 100) * 2)).collect())).unwrap()
//!     .build();
//! let session = Arc::new(Session::new());
//! session.register(data).unwrap();
//!
//! let server = Server::bind(session.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::new(server.local_addr().to_string());
//! let sql = "SELECT COUNT(y) FROM demo WHERE x >= 50;";
//! assert_eq!(client.query(sql).unwrap(), session.sql(sql).unwrap()); // bit-identical
//!
//! // Every request was traced; scrape the metrics like Prometheus would.
//! let metrics = client.metrics().unwrap();
//! assert!(metrics.contains("# TYPE ph_queries_total counter"));
//! assert!(metrics.contains("# TYPE ph_query_stage_seconds histogram"));
//! server.shutdown();
//! ```
//!
//! Standalone deployment uses the `ph-serve` binary (`--data-dir` reopens a
//! persisted catalog) and `ph-bench-client`, a closed-loop load generator.
//!
//! See `examples/` for the full compression pipeline (Fig 2), an edge-analytics
//! scenario, a flight-delay analysis and the served deployment (`serve.rs`),
//! `crates/bench` for the binaries that regenerate every table and figure of
//! the paper's evaluation, and `phbench/` (with `BENCHMARK.json`) for the
//! performance benchmark of record.

pub use ph_baselines as baselines;
pub use ph_core as core;
pub use ph_datagen as datagen;
pub use ph_encoding as encoding;
pub use ph_exact as exact;
pub use ph_gd as gd;
pub use ph_server as server;
pub use ph_sql as sql;
pub use ph_stats as stats;
pub use ph_types as types;
pub use ph_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use ph_core::{
        AqpAnswer, AqpEngine, AqpError, CacheStats, CompactReport, Estimate, FootprintReport,
        IngestReport, PairwiseHist, PairwiseHistConfig, Prepared, Session, SessionStats, SplitRule,
        TableSnapshot, TableStats,
    };
    pub use ph_exact::{evaluate, ExactAnswer, ExactEngine};
    pub use ph_gd::{GdCompressor, GdStore, Preprocessor};
    pub use ph_server::{Client, ClientError, Server, ServerConfig};
    pub use ph_sql::{parse_query, AggFunc, Query};
    pub use ph_types::{Column, ColumnType, Dataset, PhError, Value};
}

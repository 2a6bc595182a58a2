//! The serving process: a readiness-driven event loop holding thousands of
//! keep-alive connections. It answers a lone plan-cache hit itself and feeds
//! everything else to a small executor pool, one connection's pipelined run
//! of requests at a time, each run sharing one `Session` snapshot.
//!
//! # Architecture
//!
//! ```text
//!                    ┌──────────────────────────────┐  job queue   ┌────────┐
//!  accept ──▶ 503?──▶│          event loop          │─▶ (bounded) ─▶│ exec 0 │─┐
//!  (conn cap)        │    epoll · non-blocking      │      │503?   │   …    │ │ one snapshot
//!                    │  per-conn HTTP state machine │      ▼       │ exec N │ │ per run
//!                    │  pipelining · timer wheel    │◀─ completions └────────┘─┘
//!                    │  runs a lone cached query    │   + notify
//!                    └──────────────────────────────┘
//! ```
//!
//! * **Readiness, not threads.** One loop thread owns every socket
//!   (non-blocking `std::net`, registered with the `polling` shim's epoll).
//!   Connection capacity is an fd budget ([`ServerConfig::max_connections`]),
//!   not a thread count: tens of thousands of mostly-idle keep-alive sockets
//!   cost a slab slot each.
//! * **Admission control, twice.** A connection over the cap is answered
//!   `503` at the door and closed. A parsed request that does not fit the
//!   bounded executor queue is answered `503` in-stream. Either way overload
//!   sheds *fast and explicit* (clients see 503 and back off) rather than
//!   slow and silent. When the process runs out of descriptors *below* the
//!   cap (`accept` fails with `EMFILE`), the loop stops polling the listener
//!   until a connection closes or the next wheel tick, so a backlog it cannot
//!   accept never spins it; established connections keep being served.
//! * **Pipelining.** The loop parses *every* complete request buffered on a
//!   readable socket (incremental, resumable parsing — `try_parse_request`).
//!   Each request takes an ordered response slot; out-of-order completions
//!   wait in their slot so responses always leave in request order.
//! * **Where a request runs.** This is the one statement of the rule; the
//!   code that applies it is `EventLoop::dispatch`. The loop collects the
//!   `/query` and `/ingest` requests it parses in one poll wake, then routes
//!   them using only what it can observe. It runs a query itself, on the
//!   wake's [`ph_core::BatchSession`] through the same path a worker uses,
//!   when three things hold:
//!   - *it is the wake's only executor-bound request*: while the loop runs a
//!     query, every other socket waits, so this bounds that stall to one
//!     query per wake. Under concurrent load most wakes carry several
//!     requests, and then execution leaves the loop entirely;
//!   - *its connection has no earlier request unanswered*: that request may
//!     be an `/ingest` still at a worker, which the loop must not overtake,
//!     and the answer would wait behind it in its pipeline slot anyway;
//!   - *its exact SQL text has a cached plan* (`BatchSession::is_cached`):
//!     a miss parses and plans, a longer stall. A plan evicted between the
//!     probe and the run just replans.
//!
//!   A client that waits for each answer before it asks again, alone on the
//!   server, meets all three on every repeated query, and for it handing
//!   the query off (queue → worker → completion list → poller notify → loop)
//!   costs as much as running it. `ph_queries_on_loop_total` counts the
//!   queries the loop ran; their traces have no `queue_wait` stage.
//! * **Batched execution.** Everything else goes to the executor workers.
//!   The requests one connection sent in one wake form one queue entry (a
//!   *run*), and a worker pops one run at a time, so different connections
//!   run side by side on different workers. A worker runs a run in request
//!   order through [`ph_core::Session::batch`]: one table-state snapshot
//!   (one read-lock hit + `Arc` bump) serves a pipelined burst instead of
//!   one per request, and an `/ingest` renews it, so a query pipelined
//!   behind an ingest reads the ingested rows. Requests of one connection
//!   parsed in *different* wakes keep no order between them once the
//!   earlier run has left the queue. `workers == 0` selects **inline
//!   mode**: the loop runs every request itself, one shared snapshot per
//!   poll wake and zero cross-thread handoffs, but a slow ingest then stalls
//!   every socket.
//! * **Deadlines by timer wheel.** A hashed wheel (lazy re-validation, so a
//!   moved deadline never needs cancellation) enforces three clocks per
//!   connection: a *read* deadline armed at the first byte of a partial
//!   request and **never extended by trickle** (slowloris is closed at
//!   `read_timeout` no matter how diligently it drips), a *write* deadline on
//!   an undrained response backlog, and a long *idle* deadline for keep-alive
//!   sockets between requests.
//! * **Graceful shutdown.** [`Server::shutdown`] stops accepting, parses no
//!   new requests, answers everything already parsed (responses flip to
//!   `Connection: close`), and joins every thread. The query log needs no
//!   flush: every record is one unbuffered append.
//!
//! Answers are bit-identical to in-process `Session::sql` calls
//! (`tests/server_e2e.rs`): batching only changes *when* a snapshot is taken,
//! never what it contains.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ph_core::Session;
use ph_obs::{SlowQuery, SlowRing, SpanRing};
use ph_types::PhError;
use polling::{Event, Poller};

pub use crate::config::ServerConfig;
use crate::event_loop::{EventLoop, LISTENER_KEY};
use crate::exec::{executor_loop, Done, WorkQueue};
use crate::querylog::QueryLogWriter;
pub use crate::stats::ServerStats;
use crate::stats::{Endpoint, Metrics};

/// Span capacity of the flight-recorder ring behind `/debug/slow` and
/// `ph_query_stage_seconds` (varint/delta encoded; 64k spans < 1 MB).
const SPAN_RING_CAPACITY: usize = 16 * 1024;

/// State shared by the loop, the executor workers and the handle.
pub(crate) struct Shared {
    pub(crate) session: Arc<Session>,
    pub(crate) cfg: ServerConfig,
    pub(crate) metrics: Metrics,
    pub(crate) qlog: Option<QueryLogWriter>,
    pub(crate) poller: Poller,
    pub(crate) work: WorkQueue,
    pub(crate) done: Mutex<Vec<Done>>,
    pub(crate) stop: AtomicBool,
    pub(crate) started: Instant,
    /// Flight recorder: the most recent spans across all traced requests.
    pub(crate) span_ring: SpanRing,
    /// Slow-query forensics behind `GET /debug/slow`.
    pub(crate) slow: SlowRing,
    /// Monotone trace IDs for the span ring.
    trace_seq: AtomicU64,
}

impl Shared {
    /// The one read of the connection-, queue- and routing-level counters:
    /// `/stats`, `/metrics` and the [`Server`] handle all report from this.
    pub(crate) fn connection_stats(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            open_connections: m.open.get().max(0) as u64,
            accepted_connections: m.accepted.get(),
            rejected_503: m.rejected.get(),
            pipelined_requests: m.pipelined.get(),
            executor_queue_hwm: self.work.hwm.load(Ordering::Relaxed),
            queries_on_loop: m.queries_on_loop.get(),
        }
    }

    /// Drains the executing thread's finished trace into the per-stage
    /// histograms, the span flight recorder, and — for a slow query — the
    /// forensics ring. No-op when the request ran untraced.
    pub(crate) fn finish_trace(
        &self,
        endpoint: Endpoint,
        status: u16,
        total_us: u64,
        sql: Option<&str>,
    ) {
        let Some(trace) = ph_obs::trace::take() else { return };
        let spans = trace.into_spans();
        for s in &spans {
            if let Some(h) = self.metrics.stage(s.stage) {
                h.observe(s.dur_ns);
            }
        }
        let trace_id = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.span_ring.push_trace(trace_id, &spans);
        // End-to-end latency from the trace origin (first byte): the furthest
        // span end covers HTTP read and queue wait, which the executor-side
        // clock does not.
        let total_us = spans
            .iter()
            .map(|s| s.start_ns.saturating_add(s.dur_ns) / 1_000)
            .max()
            .unwrap_or(0)
            .max(total_us);
        if endpoint == Endpoint::Query && total_us >= self.slow.threshold_us() {
            // Slow path only: re-deriving the canonical fingerprint re-parses
            // the SQL, which is fine at forensics frequency. The raw text is
            // never retained — unparseable queries fall back to a text hash.
            let fingerprint = sql
                .map(|sql| match ph_sql::parse_query(sql) {
                    Ok(q) => q.fingerprint(),
                    Err(_) => ph_types::fnv1a(sql.as_bytes()),
                })
                .unwrap_or(0);
            let unix_ms = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            self.slow.offer(SlowQuery { fingerprint, total_us, status, unix_ms, spans });
        }
    }
}

/// A running server. Dropping the handle **without** calling
/// [`Server::shutdown`] detaches the threads (the process exit reaps them);
/// call `shutdown` for a deterministic stop.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the event
    /// loop and executor threads, serving `session`.
    pub fn bind(
        session: Arc<Session>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> Result<Server, PhError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        // std's bind hardcodes a listen backlog of 128, which a local connect
        // burst overflows in milliseconds whenever the loop thread loses the
        // CPU — every overflowed SYN then stalls that client ~1 s on a
        // retransmit. Resize the queue to cover the connection budget (the
        // kernel clamps to net.core.somaxconn); best-effort, since serving
        // still works at the default depth.
        let backlog = cfg.max_connections.clamp(128, 4096) as i32;
        let _ = polling::set_listen_backlog(&listener, backlog);
        let local_addr = listener.local_addr()?;
        let qlog = match &cfg.query_log {
            Some(path) => Some(QueryLogWriter::create(path)?),
            None => None,
        };
        let poller = Poller::new()?;
        poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let exec_n = cfg.workers;
        let shared = Arc::new(Shared {
            session,
            work: WorkQueue::new(cfg.queue_depth),
            metrics: Metrics::new(),
            qlog,
            poller,
            done: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            span_ring: SpanRing::new(SPAN_RING_CAPACITY),
            slow: SlowRing::new(cfg.slow_query_cap, cfg.slow_query_threshold_us),
            trace_seq: AtomicU64::new(0),
            cfg,
        });
        let event_loop = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ph-loop".into())
                .spawn(move || EventLoop::new(&shared, listener).run())
                .map_err(|e| PhError::Io(e.to_string()))?
        };
        let workers = (0..exec_n)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ph-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .map_err(|e| PhError::Io(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Server { shared, local_addr, event_loop: Some(event_loop), workers })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Admission `503`s so far (door + executor queue).
    pub fn rejected(&self) -> u64 {
        self.stats().rejected_503
    }

    /// Connection- and queue-level counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.connection_stats()
    }

    /// Stops accepting, answers every request already parsed and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        let _ = self.shared.poller.notify();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        self.shared.work.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

//! The serving process: a readiness-driven event loop holding thousands of
//! keep-alive connections, feeding a small batched executor pool that shares
//! one `Session` snapshot per drained batch.
//!
//! # Architecture
//!
//! ```text
//!                    ┌──────────────────────────────┐  job queue   ┌────────┐
//!  accept ──▶ 503?──▶│          event loop          │─▶ (bounded) ─▶│ exec 0 │─┐
//!  (conn cap)        │    epoll · non-blocking      │      │503?   │   …    │ │ one snapshot
//!                    │  per-conn HTTP state machine │      ▼       │ exec N │ │ per batch
//!                    │  pipelining · timer wheel    │◀─ completions └────────┘─┘
//!                    └──────────────────────────────┘   + notify
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
//! * **Batched execution.** Executor workers drain jobs in batches and run
//!   each batch through [`ph_core::Session::batch`]: one table-state snapshot
//!   (one read-lock hit + `Arc` bump) serves the whole batch instead of one
//!   per request. `workers == 0` selects **inline mode**: the loop executes
//!   queries itself, one shared snapshot per poll drain and zero cross-thread
//!   handoffs — the fastest shape on a single-core box.
//! * **Deadlines by timer wheel.** A hashed wheel (lazy re-validation, so a
//!   moved deadline never needs cancellation) enforces three clocks per
//!   connection: a *read* deadline armed at the first byte of a partial
//!   request and **never extended by trickle** (slowloris is closed at
//!   `read_timeout` no matter how diligently it drips), a *write* deadline on
//!   an undrained response backlog, and a long *idle* deadline for keep-alive
//!   sockets between requests.
//! * **Graceful shutdown.** [`Server::shutdown`] stops accepting, parses no
//!   new requests, answers everything already parsed (responses flip to
//!   `Connection: close`), flushes the query log, and joins every thread.
//!
//! Answers are bit-identical to in-process `Session::sql` calls
//! (`tests/server_e2e.rs`): batching only changes *when* a snapshot is taken,
//! never what it contains.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ph_core::{BatchSession, Session, TableStats};
use ph_obs::{
    push_header, push_sample, span, Counter, Gauge, Histogram, Kind, Registry, SlowQuery,
    SlowRing, SpanRing, Stage, Trace,
};
use ph_types::PhError;
use polling::{Event, Poller};

use crate::http::{response_bytes, response_bytes_typed, try_parse_request, HttpError, Request};
use crate::ingest::dataset_from_body;
use crate::json::{obj, Json};
use crate::querylog::QueryLogWriter;
use crate::wire::{answer_to_json, error_body, status_for};

/// Poller key of the listening socket (connection keys are slab indices,
/// which stay far below this).
const LISTENER_KEY: usize = usize::MAX - 1;

/// Timer-wheel granularity. Deadlines fire within one tick of their instant.
const WHEEL_TICK: Duration = Duration::from_millis(25);

/// Timer-wheel slots. Deadlines further out than `WHEEL_TICK × SLOTS` wrap
/// and fire early; the lazy re-validation on fire reschedules them, so a
/// small table stays correct for arbitrarily long deadlines.
const WHEEL_SLOTS: usize = 256;

/// Most jobs one executor worker drains per wakeup — the batch that shares
/// one snapshot.
const EXEC_BATCH: usize = 64;

/// Read size per `read` call on a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor worker threads draining the query queue in snapshot-sharing
    /// batches. `0` = inline mode: the event loop executes queries itself
    /// (no handoffs; best on one core, but a slow ingest then stalls the
    /// loop).
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
    /// Span capacity of the flight-recorder ring behind `/debug/slow` and
    /// `ph_query_stage_seconds` (varint/delta encoded; 64k spans < 1 MB).
    pub span_ring_spans: usize,
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
            span_ring_spans: 16 * 1024,
        }
    }
}

/// Endpoints with their own metrics slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Query,
    Ingest,
    Tables,
    Stats,
    Healthz,
    Metrics,
    Debug,
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 8] = [
        Endpoint::Query,
        Endpoint::Ingest,
        Endpoint::Tables,
        Endpoint::Stats,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Debug,
        Endpoint::Other,
    ];

    fn idx(self) -> usize {
        match self {
            Endpoint::Query => 0,
            Endpoint::Ingest => 1,
            Endpoint::Tables => 2,
            Endpoint::Stats => 3,
            Endpoint::Healthz => 4,
            Endpoint::Metrics => 5,
            Endpoint::Debug => 6,
            Endpoint::Other => 7,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Ingest => "ingest",
            Endpoint::Tables => "tables",
            Endpoint::Stats => "stats",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
            Endpoint::Other => "other",
        }
    }
}

/// One endpoint's registry handles: request/error counters plus the log₂
/// latency histogram that `/stats` quantiles and `/metrics` buckets both read.
struct EndpointMetrics {
    requests: Arc<Counter>,
    status_4xx: Arc<Counter>,
    status_5xx: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl EndpointMetrics {
    fn new(registry: &Registry, name: &'static str) -> Self {
        let ep: &[(&str, &str)] = &[("endpoint", name)];
        Self {
            requests: registry.counter("ph_http_requests_total", "Requests served, by endpoint.", ep),
            status_4xx: registry.counter(
                "ph_http_errors_total",
                "Error responses, by endpoint and status class.",
                &[("endpoint", name), ("class", "4xx")],
            ),
            status_5xx: registry.counter(
                "ph_http_errors_total",
                "Error responses, by endpoint and status class.",
                &[("endpoint", name), ("class", "5xx")],
            ),
            latency: registry.histogram(
                "ph_http_request_seconds",
                "End-to-end request latency, by endpoint.",
                1e-6,
                ep,
            ),
        }
    }

    fn record(&self, status: u16, micros: u64) {
        self.requests.inc();
        if (400..500).contains(&status) {
            self.status_4xx.inc();
        } else if status >= 500 {
            self.status_5xx.inc();
        }
        self.latency.observe(micros);
    }
}

/// Every serving metric, backed by one [`Registry`] so `GET /metrics` renders
/// the lot without bespoke glue. Handles are relaxed atomics; the registry
/// mutex is touched only here (startup) and at scrape.
pub(crate) struct Metrics {
    registry: Registry,
    endpoints: [EndpointMetrics; 8],
    /// Admission `503`s: connections shed at the door plus requests shed at
    /// the executor queue.
    rejected: Arc<Counter>,
    /// Connections admitted past the cap since start.
    accepted: Arc<Counter>,
    /// Currently open connections.
    open: Arc<Gauge>,
    /// Requests parsed while an earlier request on the same connection was
    /// still unanswered — the pipelining win counter.
    pipelined: Arc<Counter>,
    /// `/query` requests executed (any status).
    queries: Arc<Counter>,
    /// `/ingest` batches applied successfully.
    ingest_batches: Arc<Counter>,
    /// Per-stage time from finished traces, indexed by [`Stage::code`].
    stages: Vec<Arc<Histogram>>,
    /// Jobs drained per executor wakeup — the snapshot-sharing batch size.
    exec_batch: Arc<Histogram>,
    /// Time the event loop spent blocked in the poller per iteration.
    poll_wait: Arc<Histogram>,
    /// Readiness events delivered per wakeup.
    wake_events: Arc<Histogram>,
    /// Timer-wheel entries fired (before lazy re-validation).
    timer_fired: Arc<Counter>,
}

impl Metrics {
    fn new() -> Self {
        let registry = Registry::new();
        let endpoints = Endpoint::ALL.map(|e| EndpointMetrics::new(&registry, e.name()));
        let stages = ph_obs::trace::ALL_STAGES
            .iter()
            .map(|s| {
                registry.histogram(
                    "ph_query_stage_seconds",
                    "Time spent per pipeline stage, from request traces.",
                    1e-9,
                    &[("stage", s.name())],
                )
            })
            .collect();
        Self {
            endpoints,
            rejected: registry.counter(
                "ph_requests_rejected_total",
                "Admission 503s: connections shed at the door plus requests shed at the executor queue.",
                &[],
            ),
            accepted: registry.counter(
                "ph_connections_accepted_total",
                "Connections admitted past the cap since start.",
                &[],
            ),
            open: registry.gauge("ph_connections_open", "Currently open connections.", &[]),
            pipelined: registry.counter(
                "ph_pipelined_requests_total",
                "Requests parsed behind an unanswered request on the same connection.",
                &[],
            ),
            queries: registry.counter("ph_queries_total", "Queries executed (any status).", &[]),
            ingest_batches: registry.counter(
                "ph_ingest_batches_total",
                "Ingest batches applied successfully.",
                &[],
            ),
            stages,
            exec_batch: registry.histogram(
                "ph_exec_batch_size",
                "Jobs drained per executor wakeup (one session snapshot per batch).",
                1.0,
                &[],
            ),
            poll_wait: registry.histogram(
                "ph_loop_poll_wait_seconds",
                "Time the event loop spent blocked in the poller per iteration.",
                1e-6,
                &[],
            ),
            wake_events: registry.histogram(
                "ph_loop_events_per_wake",
                "Readiness events delivered per event-loop wakeup.",
                1.0,
                &[],
            ),
            timer_fired: registry.counter(
                "ph_timer_wheel_fired_total",
                "Timer-wheel entries fired, before lazy re-validation.",
                &[],
            ),
            registry,
        }
    }

    fn endpoint(&self, e: Endpoint) -> &EndpointMetrics {
        // ph-lint: allow(no-panic-serving) — idx() enumerates Endpoint::ALL, 0..8
        &self.endpoints[e.idx()]
    }

    /// The per-stage histogram for `stage`, if registered.
    fn stage(&self, stage: Stage) -> Option<&Histogram> {
        self.stages.get(stage.code() as usize).map(Arc::as_ref)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            Endpoint::ALL
                .iter()
                .map(|e| {
                    let m = self.endpoint(*e);
                    (
                        e.name().to_string(),
                        obj(vec![
                            ("requests", Json::Num(m.requests.get() as f64)),
                            ("status_4xx", Json::Num(m.status_4xx.get() as f64)),
                            ("status_5xx", Json::Num(m.status_5xx.get() as f64)),
                            ("p50_us", Json::Num(m.latency.quantile(0.50))),
                            ("p90_us", Json::Num(m.latency.quantile(0.90))),
                            ("p99_us", Json::Num(m.latency.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Connection- and queue-level serving counters, as reported under
/// `server.connections` in `GET /stats` and by [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Currently open connections.
    pub open_connections: u64,
    /// Connections admitted since start.
    pub accepted_connections: u64,
    /// Admission `503`s (door + executor queue).
    pub rejected_503: u64,
    /// Requests parsed behind an unanswered request on the same connection.
    pub pipelined_requests: u64,
    /// High-water mark of the executor queue depth.
    pub executor_queue_hwm: u64,
}

/// One parsed request handed to the executor.
struct Job {
    key: usize,
    gen: u64,
    seq: u64,
    keep_alive: bool,
    req: Request,
    /// The request's trace (origin at its first byte, HTTP-read and admission
    /// spans already recorded); `None` when tracing is off.
    trace: Option<Trace>,
    /// When the job entered the executor queue — the queue-wait span's start.
    queued_at: Instant,
}

/// One finished response headed back to the loop.
struct Done {
    key: usize,
    gen: u64,
    seq: u64,
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// The bounded handoff between the event loop and the executor workers.
struct WorkQueue {
    inner: Mutex<WorkInner>,
    ready: Condvar,
    cap: usize,
    /// Deepest the queue has been — the backlog signal operators watch.
    hwm: AtomicU64,
}

struct WorkInner {
    q: VecDeque<Job>,
    closed: bool,
}

impl WorkQueue {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(WorkInner { q: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
            hwm: AtomicU64::new(0),
        }
    }

    /// Admits `job` if there is room; hands it back (for the in-stream 503)
    /// otherwise.
    ///
    /// Poison policy: the mutex is only held for these few lines, so a
    /// poisoned lock means a thread panicked mid-queue-op. That is treated as
    /// shutdown — the loop sheds requests (503) instead of propagating the
    /// panic and taking the whole server down with it.
    // The Err variant carries the whole Job back on purpose: the caller still
    // owns the parsed request and must fill its pipeline slot with the 503.
    // Boxing it would put an allocation on the admission path to move 152
    // bytes that the success path moves anyway.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let Ok(mut inner) = self.inner.lock() else { return Err(job) };
        if inner.closed || inner.q.len() >= self.cap {
            return Err(job);
        }
        inner.q.push_back(job);
        self.hwm.fetch_max(inner.q.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next batch (up to `max` jobs in one lock hold); `None`
    /// once closed and drained — or if the lock is poisoned (see
    /// [`WorkQueue::try_push`]): surviving workers drain out exactly as on a
    /// normal shutdown.
    fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().ok()?;
        loop {
            if !inner.q.is_empty() {
                let n = inner.q.len().min(max.max(1));
                return Some(inner.q.drain(..n).collect());
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).ok()?;
        }
    }

    /// Closes the queue. Shutdown must win even over poison, so the guard is
    /// recovered rather than discarded: `closed` is always set.
    fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// State shared by the loop, the executor workers and the handle.
pub(crate) struct Shared {
    pub(crate) session: Arc<Session>,
    cfg: ServerConfig,
    pub(crate) metrics: Metrics,
    qlog: Option<QueryLogWriter>,
    poller: Poller,
    work: WorkQueue,
    done: Mutex<Vec<Done>>,
    stop: AtomicBool,
    started: Instant,
    /// Flight recorder: the most recent spans across all traced requests.
    span_ring: SpanRing,
    /// Slow-query forensics behind `GET /debug/slow`.
    slow: SlowRing,
    /// Monotone trace IDs for the span ring.
    trace_seq: AtomicU64,
}

impl Shared {
    /// The one read of the connection- and queue-level counters: `/stats`,
    /// `/metrics` and the [`Server`] handle all report from this.
    fn connection_stats(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            open_connections: m.open.get().max(0) as u64,
            accepted_connections: m.accepted.get(),
            rejected_503: m.rejected.get(),
            pipelined_requests: m.pipelined.get(),
            executor_queue_hwm: self.work.hwm.load(Ordering::Relaxed),
        }
    }

    /// Drains the executing thread's finished trace into the per-stage
    /// histograms, the span flight recorder, and — for a slow query — the
    /// forensics ring. No-op when the request ran untraced.
    fn finish_trace(&self, endpoint: Endpoint, status: u16, total_us: u64, req: &Request) {
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
            let fingerprint = query_text(req)
                .map(|sql| match ph_sql::parse_query(&sql) {
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
/// call `shutdown` for a deterministic, log-flushed stop.
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
            span_ring: SpanRing::new(cfg.span_ring_spans),
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

    /// The Prometheus text exposition `GET /metrics` serves.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.shared)
    }

    /// Stops accepting, answers every request already parsed, flushes the
    /// query log and joins every thread.
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
        if let Some(qlog) = &self.shared.qlog {
            qlog.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

fn executor_loop(shared: &Shared) {
    while let Some(jobs) = shared.work.pop_batch(EXEC_BATCH) {
        // One snapshot pin per table for the whole batch — the point of
        // draining in batches.
        shared.metrics.exec_batch.observe(jobs.len() as u64);
        let mut batch = shared.session.batch();
        let mut done = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            if let Some(mut trace) = job.trace.take() {
                trace.record_between(Stage::QueueWait, job.queued_at, Instant::now());
                ph_obs::trace::install(trace);
            }
            let (_, _, bytes) = execute_traced(shared, &mut batch, &job.req, job.keep_alive);
            done.push(Done {
                key: job.key,
                gen: job.gen,
                seq: job.seq,
                bytes,
                keep_alive: job.keep_alive,
            });
        }
        {
            let mut pending = shared.done.lock().unwrap_or_else(|p| p.into_inner());
            pending.append(&mut done);
        }
        let _ = shared.poller.notify();
    }
}

/// The request root stage for tracing, by path: queries and ingests get a
/// whole-request root span; everything else runs untraced.
fn root_stage(req: &Request) -> Option<Stage> {
    match req.path.as_str() {
        "/query" => Some(Stage::Query),
        "/ingest" => Some(Stage::Ingest),
        _ => None,
    }
}

/// Runs one executor-bound request under its installed trace (if any): a root
/// span wraps execution and serialization, endpoint metrics and the query log
/// record the outcome, and the finished trace drains into the stage
/// histograms and forensics rings.
fn execute_traced(
    shared: &Shared,
    batch: &mut BatchSession<'_>,
    req: &Request,
    keep_alive: bool,
) -> (Endpoint, u16, Vec<u8>) {
    let t0 = Instant::now();
    let traced = ph_obs::trace::is_active();
    let root = root_stage(req).map(span);
    let (endpoint, status, body) = execute_request(shared, batch, req);
    let bytes = {
        let _serialize = span(Stage::Serialize);
        response_bytes(status, &body.to_string(), keep_alive)
    };
    drop(root);
    let micros = t0.elapsed().as_micros() as u64;
    shared.metrics.endpoint(endpoint).record(status, micros);
    match endpoint {
        Endpoint::Query => {
            shared.metrics.queries.inc();
            if let Some(qlog) = &shared.qlog {
                qlog.append(status, micros, &query_text(req).unwrap_or_default());
            }
        }
        Endpoint::Ingest if status == 200 => shared.metrics.ingest_batches.inc(),
        _ => {}
    }
    if traced {
        shared.finish_trace(endpoint, status, micros, req);
    }
    (endpoint, status, bytes)
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Hashed timer wheel with lazy re-validation: entries are `(key, gen)`
/// hints, not authoritative deadlines. On fire the loop re-reads the
/// connection's *current* deadlines — an entry for a dead connection (gen
/// mismatch) is dropped, one for a moved deadline reschedules itself. So
/// arming is O(1), cancellation is free, and deadlines past one wheel
/// rotation merely fire a few cheap revalidations early.
struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    origin: Instant,
    /// Ticks fully drained so far.
    cursor: u64,
}

impl TimerWheel {
    fn new(origin: Instant) -> Self {
        Self { slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(), origin, cursor: 0 }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.origin).as_millis() / WHEEL_TICK.as_millis().max(1))
            as u64
    }

    fn schedule(&mut self, key: usize, gen: u64, deadline: Instant) {
        // +1 so the entry fires at-or-after the deadline, never a tick short;
        // never behind the cursor or it would sit un-drained for a rotation.
        let tick = (self.tick_of(deadline) + 1).max(self.cursor + 1);
        if let Some(slot) = self.slots.get_mut((tick % WHEEL_SLOTS as u64) as usize) {
            slot.push((key, gen));
        }
    }

    /// All entries whose tick has passed. Bounded: a loop stalled longer than
    /// one rotation drains every slot exactly once.
    fn drain_expired(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let target = self.tick_of(now);
        if target <= self.cursor {
            return Vec::new();
        }
        let steps = (target - self.cursor).min(WHEEL_SLOTS as u64);
        let mut out = Vec::new();
        for _ in 0..steps {
            self.cursor += 1;
            if let Some(slot) = self.slots.get_mut((self.cursor % WHEEL_SLOTS as u64) as usize) {
                out.append(slot);
            }
        }
        self.cursor = target;
        out
    }

    /// Time until the next non-empty slot fires, if any entry is armed.
    fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        let mut nearest: Option<u64> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.is_empty() {
                continue;
            }
            // The slot's next firing tick at or after cursor+1.
            let base = self.cursor + 1;
            let phase = (i as u64 + WHEEL_SLOTS as u64 - base % WHEEL_SLOTS as u64)
                % WHEEL_SLOTS as u64;
            let tick = base + phase;
            nearest = Some(nearest.map_or(tick, |n| n.min(tick)));
        }
        let tick = nearest?;
        let due = self.origin + WHEEL_TICK.saturating_mul(tick as u32).max(WHEEL_TICK);
        Some(due.saturating_duration_since(now).max(Duration::from_millis(1)))
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: completions and wheel entries carry it, so a slot
    /// reused after a close never receives a stale delivery.
    gen: u64,
    /// Unparsed received bytes (at most one partial request: complete
    /// requests are drained eagerly).
    buf: Vec<u8>,
    /// Serialized responses not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Ordered response slots: index `seq - base_seq`. A request takes a
    /// `None` slot at parse time; its response fills it; the front drains to
    /// `out` in order.
    inflight: VecDeque<Option<(Vec<u8>, bool)>>,
    base_seq: u64,
    next_seq: u64,
    /// No more requests will be parsed; close once every slot has flushed.
    closing: bool,
    /// Peer sent EOF (half-close): serve what's buffered, then close.
    peer_closed: bool,
    /// Armed at the first byte of a partial request; never extended.
    read_deadline: Option<Instant>,
    /// When the first byte of the currently-buffered request arrived — the
    /// trace origin, so the HTTP-read span starts at offset zero.
    req_t0: Option<Instant>,
    /// Armed when a response backlog stalls in `out`.
    write_deadline: Option<Instant>,
    /// Rolling keep-alive deadline between requests.
    idle_deadline: Instant,
    /// Whether the poller registration currently includes write interest.
    interest_w: bool,
}

struct EventLoop<'a> {
    shared: &'a Shared,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen_counter: u64,
    wheel: TimerWheel,
    open: usize,
    /// The listener is out of the poller after a failed `accept` (descriptor
    /// budget exhausted); a closing connection or the next wheel tick puts it
    /// back.
    accept_paused: bool,
    /// Set once `stop` is observed: accepting has ceased, idle connections
    /// are swept, the loop drains in-flight work then exits.
    stopping: bool,
}

impl<'a> EventLoop<'a> {
    fn new(shared: &'a Shared, listener: TcpListener) -> Self {
        EventLoop {
            shared,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            gen_counter: 0,
            wheel: TimerWheel::new(Instant::now()),
            open: 0,
            accept_paused: false,
            stopping: false,
        }
    }

    fn run(mut self) {
        let shared = self.shared;
        let inline = shared.cfg.workers == 0;
        let mut events: Vec<Event> = Vec::new();
        loop {
            if !self.stopping && shared.stop.load(Ordering::Acquire) {
                self.begin_shutdown();
            }
            if self.stopping && self.open == 0 {
                return;
            }
            let now = Instant::now();
            let timeout = match self.wheel.next_wakeup(now) {
                Some(d) => Some(d.min(Duration::from_secs(1))),
                None => Some(Duration::from_secs(1)),
            };
            let wait_t0 = Instant::now();
            if shared.poller.wait(&mut events, timeout).is_err() {
                // A failing poller cannot serve; back off instead of spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
            shared.metrics.poll_wait.observe(wait_t0.elapsed().as_micros() as u64);
            shared.metrics.wake_events.observe(events.len() as u64);
            // Responses finished by the executor first: they free slots and
            // may retire connections before new bytes are read.
            let finished: Vec<Done> =
                std::mem::take(&mut *shared.done.lock().unwrap_or_else(|p| p.into_inner()));
            for done in finished {
                self.apply_done(done);
            }
            // One pinned snapshot per poll drain in inline mode.
            let mut batch = if inline { Some(shared.session.batch()) } else { None };
            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else { break };
                if ev.key == LISTENER_KEY {
                    if !self.stopping {
                        self.accept_ready();
                    }
                    continue;
                }
                if ev.writable {
                    self.write_out(ev.key);
                }
                if ev.readable {
                    self.conn_readable(ev.key, &mut batch);
                }
            }
            drop(batch);
            let now = Instant::now();
            for (key, gen) in self.wheel.drain_expired(now) {
                shared.metrics.timer_fired.inc();
                if key == LISTENER_KEY {
                    self.resume_accept();
                } else {
                    self.check_deadlines(key, gen, now);
                }
            }
        }
    }

    /// Stop accepting and sweep connections that owe nothing.
    fn begin_shutdown(&mut self) {
        self.stopping = true;
        let _ = self.shared.poller.delete(&self.listener);
        for key in 0..self.conns.len() {
            let idle = match self.conns.get_mut(key).and_then(|s| s.as_mut()) {
                Some(conn) => {
                    conn.closing = true;
                    conn.buf.clear();
                    conn.inflight.is_empty() && conn.out_pos >= conn.out.len()
                }
                None => false,
            };
            if idle {
                self.close(key);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Any other failure (EMFILE/ENFILE once descriptors run out)
                // leaves the backlog, and so the level-triggered listener,
                // readable: polling it again would spin the loop.
                Err(_) => return self.pause_accept(),
            };
            if self.shared.stop.load(Ordering::Acquire) {
                continue;
            }
            if self.open >= self.shared.cfg.max_connections {
                // Admission control: shed at the door, explicitly.
                self.shared.metrics.rejected.inc();
                reject_at_door(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let now = Instant::now();
            self.gen_counter += 1;
            let conn = Conn {
                stream,
                gen: self.gen_counter,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                inflight: VecDeque::new(),
                base_seq: 0,
                next_seq: 0,
                closing: false,
                peer_closed: false,
                read_deadline: None,
                req_t0: None,
                write_deadline: None,
                idle_deadline: now + self.shared.cfg.idle_timeout,
                interest_w: false,
            };
            let key = match self.free.pop() {
                Some(k) => k,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let registered = self
                .shared
                .poller
                .add(&conn.stream, Event::readable(key))
                .is_ok();
            if !registered {
                self.free.push(key);
                continue;
            }
            let gen = conn.gen;
            let deadline = conn.idle_deadline;
            if let Some(slot) = self.conns.get_mut(key) {
                *slot = Some(conn);
            }
            self.wheel.schedule(key, gen, deadline);
            self.open += 1;
            self.shared.metrics.accepted.inc();
            self.shared.metrics.open.add(1);
        }
    }

    /// Take the listener out of the poller until [`EventLoop::resume_accept`]:
    /// a close calls it, and so does the wheel entry armed here, one tick on.
    fn pause_accept(&mut self) {
        self.accept_paused = true;
        let _ = self.shared.poller.modify(&self.listener, Event::none(LISTENER_KEY));
        self.wheel.schedule(LISTENER_KEY, 0, Instant::now());
    }

    fn resume_accept(&mut self) {
        if self.accept_paused {
            self.accept_paused = false;
            let _ = self.shared.poller.modify(&self.listener, Event::readable(LISTENER_KEY));
        }
    }

    fn conn_readable(&mut self, key: usize, batch: &mut Option<BatchSession<'_>>) {
        let mut fatal = false;
        {
            let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
            if conn.closing {
                // Drain the socket so level-triggered readiness quiesces, but
                // parse nothing further.
                let mut chunk = [0u8; READ_CHUNK];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn.peer_closed = true;
                            break;
                        }
                        Ok(_) => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            fatal = true;
                            break;
                        }
                    }
                }
            } else {
                let mut chunk = [0u8; READ_CHUNK];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn.peer_closed = true;
                            break;
                        }
                        // Read's contract bounds n by the buffer length.
                        Ok(n) => conn.buf.extend_from_slice(chunk.get(..n).unwrap_or(&chunk)),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            fatal = true;
                            break;
                        }
                    }
                }
                if !conn.buf.is_empty() && conn.req_t0.is_none() {
                    // First byte of the next request this wake: the trace
                    // origin (and the span clock's zero) for that request.
                    conn.req_t0 = Some(Instant::now());
                }
            }
        }
        if fatal {
            return self.close(key);
        }
        self.parse_requests(key, batch);
        self.after_read(key);
    }

    /// Drain every complete pipelined request buffered on `key`.
    fn parse_requests(&mut self, key: usize, batch: &mut Option<BatchSession<'_>>) {
        let max_body = self.shared.cfg.max_body_bytes;
        loop {
            enum Parsed {
                Req { seq: u64, keep: bool, req: Request, trace: Option<Trace> },
                Fatal { seq: u64, status: u16, kind: &'static str, message: String },
                Silent,
                Idle,
            }
            let parsed = {
                let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else {
                    return;
                };
                if conn.closing {
                    conn.buf.clear();
                    return;
                }
                match try_parse_request(&mut conn.buf, max_body) {
                    Ok(Some(req)) => {
                        // The first request parsed this wake is anchored at
                        // its observed first byte; pipelined successors start
                        // now. Only executor-bound endpoints are traced.
                        let t0 = conn.req_t0.take();
                        let trace = if ph_obs::tracing_on() && root_stage(&req).is_some() {
                            let origin = t0.unwrap_or_else(Instant::now);
                            let mut t = Trace::with_origin(origin);
                            t.record_between(Stage::HttpRead, origin, Instant::now());
                            Some(t)
                        } else {
                            None
                        };
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.inflight.push_back(None);
                        if conn.inflight.len() > 1 {
                            self.shared.metrics.pipelined.inc();
                        }
                        let keep =
                            req.keep_alive() && !self.shared.stop.load(Ordering::Acquire);
                        if !keep {
                            // The response will say `Connection: close`; later
                            // pipelined bytes are dead.
                            conn.closing = true;
                            conn.buf.clear();
                        }
                        conn.idle_deadline = Instant::now() + self.shared.cfg.idle_timeout;
                        Parsed::Req { seq, keep, req, trace }
                    }
                    Ok(None) => Parsed::Idle,
                    Err(HttpError::Malformed(m)) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.inflight.push_back(None);
                        conn.closing = true;
                        conn.buf.clear();
                        Parsed::Fatal { seq, status: 400, kind: "bad_request", message: m }
                    }
                    Err(HttpError::TooLarge(m)) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.inflight.push_back(None);
                        conn.closing = true;
                        conn.buf.clear();
                        Parsed::Fatal { seq, status: 413, kind: "too_large", message: m }
                    }
                    Err(_) => Parsed::Silent,
                }
            };
            match parsed {
                Parsed::Req { seq, keep, req, trace } => {
                    self.route(key, seq, keep, req, trace, batch);
                }
                Parsed::Fatal { seq, status, kind, message } => {
                    let body = error_body(status, kind, &message, None);
                    self.fill(key, seq, response_bytes(status, &body.to_string(), false), false);
                    return;
                }
                Parsed::Silent => return self.close(key),
                Parsed::Idle => return,
            }
        }
    }

    /// Dispatch one parsed request: loop-served endpoints answer inline;
    /// query/ingest go to the executor (or run on the inline batch).
    fn route(
        &mut self,
        key: usize,
        seq: u64,
        keep: bool,
        req: Request,
        mut trace: Option<Trace>,
        batch: &mut Option<BatchSession<'_>>,
    ) {
        let shared = self.shared;
        let gen = match self.conns.get(key).and_then(|s| s.as_ref()) {
            Some(conn) => conn.gen,
            None => return,
        };
        let t0 = Instant::now();
        if req.method == "GET" && req.path == "/metrics" {
            // Text exposition, not JSON: answered here instead of route_inline.
            let text = metrics_text(shared);
            let micros = t0.elapsed().as_micros() as u64;
            shared.metrics.endpoint(Endpoint::Metrics).record(200, micros);
            let bytes =
                response_bytes_typed(200, "text/plain; version=0.0.4", &text, keep);
            self.fill(key, seq, bytes, keep);
            return;
        }
        if let Some((endpoint, status, body)) = route_inline(shared, &req) {
            let micros = t0.elapsed().as_micros() as u64;
            shared.metrics.endpoint(endpoint).record(status, micros);
            self.fill(key, seq, response_bytes(status, &body.to_string(), keep), keep);
            return;
        }
        if let Some(b) = batch.as_mut() {
            // Inline mode: no queue, so admission is a zero-width marker and
            // the trace installs on the loop thread itself.
            if let Some(mut t) = trace.take() {
                let now = Instant::now();
                t.record_between(Stage::Admission, t0, now);
                ph_obs::trace::install(t);
            }
            let (_, _, bytes) = execute_traced(shared, b, &req, keep);
            self.fill(key, seq, bytes, keep);
            return;
        }
        if let Some(t) = trace.as_mut() {
            t.record_between(Stage::Admission, t0, Instant::now());
        }
        let job = Job { key, gen, seq, keep_alive: keep, req, trace, queued_at: Instant::now() };
        if shared.work.try_push(job).is_err() {
            // Admission control, stage two: the executor queue is full.
            shared.metrics.rejected.inc();
            let body = error_body(
                503,
                "overload",
                "server at capacity (executor queue full); retry with backoff",
                None,
            );
            self.fill(key, seq, response_bytes(503, &body.to_string(), keep), keep);
        }
    }

    /// A finished executor response; dropped if the connection died or the
    /// slot was reused (generation mismatch).
    fn apply_done(&mut self, done: Done) {
        let live = self
            .conns
            .get(done.key)
            .and_then(|s| s.as_ref())
            .is_some_and(|c| c.gen == done.gen);
        if live {
            self.fill(done.key, done.seq, done.bytes, done.keep_alive);
        }
    }

    /// Deliver a response into its ordered slot and flush whatever is ready.
    fn fill(&mut self, key: usize, seq: u64, bytes: Vec<u8>, keep: bool) {
        {
            let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
            let Some(idx) = seq.checked_sub(conn.base_seq) else { return };
            match conn.inflight.get_mut(idx as usize) {
                Some(slot) => *slot = Some((bytes, keep)),
                None => return,
            }
            // Drain the in-order prefix of filled slots into the write buffer.
            while matches!(conn.inflight.front(), Some(Some(_))) {
                if let Some(Some((bytes, keep))) = conn.inflight.pop_front() {
                    conn.base_seq += 1;
                    conn.out.extend_from_slice(&bytes);
                    if !keep {
                        // This response closes the connection: everything
                        // behind it is dead. base_seq jumps so stale
                        // completions fall out of range.
                        conn.closing = true;
                        conn.buf.clear();
                        conn.inflight.clear();
                        conn.base_seq = conn.next_seq;
                        break;
                    }
                }
            }
        }
        self.write_out(key);
    }

    /// Push the write buffer into the socket as far as it will go.
    fn write_out(&mut self, key: usize) {
        enum Outcome {
            Close,
            Drained { close: bool },
            Stalled { arm: Option<(u64, Instant)> },
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
            let mut failed = false;
            while conn.out_pos < conn.out.len() {
                let pending = conn.out.get(conn.out_pos..).unwrap_or(&[]);
                match conn.stream.write(pending) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                Outcome::Close
            } else if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                conn.write_deadline = None;
                conn.idle_deadline = Instant::now() + self.shared.cfg.idle_timeout;
                Outcome::Drained {
                    close: (conn.closing || conn.peer_closed) && conn.inflight.is_empty(),
                }
            } else {
                let arm = if conn.write_deadline.is_none() {
                    let deadline = Instant::now() + self.shared.cfg.write_timeout;
                    conn.write_deadline = Some(deadline);
                    Some((conn.gen, deadline))
                } else {
                    None
                };
                Outcome::Stalled { arm }
            }
        };
        match outcome {
            Outcome::Close => self.close(key),
            Outcome::Drained { close: true } => self.close(key),
            Outcome::Drained { close: false } => self.update_interest(key),
            Outcome::Stalled { arm } => {
                if let Some((gen, deadline)) = arm {
                    self.wheel.schedule(key, gen, deadline);
                }
                self.update_interest(key);
            }
        }
    }

    /// Post-read bookkeeping: arm/clear the read deadline for a partial
    /// request, honor a half-close, retire a finished connection.
    fn after_read(&mut self, key: usize) {
        let mut arm: Option<(u64, Instant)> = None;
        let close_now;
        {
            let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
            if conn.peer_closed {
                // Whatever was buffered has been parsed; nothing more can
                // arrive. Finish what is owed, then close.
                conn.closing = true;
                conn.buf.clear();
            }
            if conn.buf.is_empty() || conn.closing {
                conn.read_deadline = None;
            } else if conn.read_deadline.is_none() {
                // First byte of a partial request: the whole message must
                // arrive within read_timeout. Deliberately never extended —
                // trickling bytes (slowloris) does not push it back.
                let deadline = Instant::now() + self.shared.cfg.read_timeout;
                conn.read_deadline = Some(deadline);
                arm = Some((conn.gen, deadline));
            }
            close_now =
                conn.closing && conn.inflight.is_empty() && conn.out_pos >= conn.out.len();
        }
        if let Some((gen, deadline)) = arm {
            self.wheel.schedule(key, gen, deadline);
        }
        if close_now {
            self.close(key);
        }
    }

    /// A wheel entry fired: re-validate against the connection's current
    /// deadlines — close if one truly expired, reschedule otherwise.
    fn check_deadlines(&mut self, key: usize, gen: u64, now: Instant) {
        enum Verdict {
            Dead,
            Expired,
            Reschedule(Instant),
        }
        let verdict = {
            let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else {
                return;
            };
            if conn.gen != gen {
                Verdict::Dead
            } else {
                let busy = !conn.inflight.is_empty() || conn.out_pos < conn.out.len();
                let expired = conn.read_deadline.is_some_and(|d| d <= now)
                    || conn.write_deadline.is_some_and(|d| d <= now)
                    || (!busy && conn.buf.is_empty() && conn.idle_deadline <= now);
                if expired {
                    Verdict::Expired
                } else {
                    if busy && conn.idle_deadline <= now {
                        // Still working on its behalf: keep-alive clock
                        // restarts rather than killing an active connection.
                        conn.idle_deadline = now + self.shared.cfg.idle_timeout;
                    }
                    let mut next = conn.idle_deadline;
                    if let Some(d) = conn.read_deadline {
                        next = next.min(d);
                    }
                    if let Some(d) = conn.write_deadline {
                        next = next.min(d);
                    }
                    Verdict::Reschedule(next)
                }
            }
        };
        match verdict {
            Verdict::Dead => {}
            // Timeouts close silently, exactly like the blocking pool's
            // socket-timeout path: a stalled peer gets no farewell body.
            Verdict::Expired => self.close(key),
            Verdict::Reschedule(next) => self.wheel.schedule(key, gen, next),
        }
    }

    fn update_interest(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
        let want_w = conn.out_pos < conn.out.len();
        if want_w != conn.interest_w {
            conn.interest_w = want_w;
            let interest =
                if want_w { Event::all(key) } else { Event::readable(key) };
            let _ = self.shared.poller.modify(&conn.stream, interest);
        }
    }

    fn close(&mut self, key: usize) {
        if let Some(conn) = self.conns.get_mut(key).and_then(|s| s.take()) {
            let _ = self.shared.poller.delete(&conn.stream);
            self.open = self.open.saturating_sub(1);
            self.shared.metrics.open.sub(1);
            self.free.push(key);
            self.resume_accept();
        }
    }
}

/// Best-effort `503` to a just-accepted connection over the cap. One
/// non-blocking write: the ~190 bytes always fit an empty send buffer, and
/// the loop must never block on a stranger's socket.
fn reject_at_door(stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let body = error_body(
        503,
        "overload",
        "server at capacity (connection limit reached); retry with backoff",
        None,
    );
    let bytes = response_bytes(503, &body.to_string(), false);
    let mut stream = stream;
    let _ = stream.write(&bytes);
}

/// The SQL text of a `/query` request: a JSON body's `"sql"` member, or the
/// raw body as UTF-8.
fn query_text(req: &Request) -> Option<String> {
    let text = std::str::from_utf8(&req.body).ok()?;
    if text.trim_start().starts_with('{') {
        let doc = Json::parse(text).ok()?;
        return doc.get("sql")?.as_str().map(str::to_string);
    }
    Some(text.to_string())
}

/// Endpoints the loop answers without involving the executor: cheap reads of
/// shared state plus routing errors. `/healthz` in particular stays
/// responsive even when every executor is busy. `None` → executor work.
fn route_inline(shared: &Shared, req: &Request) -> Option<(Endpoint, u16, Json)> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") | ("POST", "/ingest") => None,
        ("GET", "/tables") => Some((Endpoint::Tables, 200, tables_json(shared))),
        ("GET", "/stats") => Some((Endpoint::Stats, 200, stats_json(shared))),
        ("GET", "/debug/slow") => Some((Endpoint::Debug, 200, slow_json(shared))),
        ("GET", "/healthz") => Some((
            Endpoint::Healthz,
            200,
            obj(vec![
                ("status", Json::Str("ok".into())),
                ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
                ("tables", Json::Num(shared.session.tables().len() as f64)),
                ("uptime_seconds", Json::Num(shared.started.elapsed().as_secs_f64())),
            ]),
        )),
        (_, "/query" | "/ingest" | "/tables" | "/stats" | "/healthz" | "/metrics"
        | "/debug/slow") => {
            let body = error_body(
                405,
                "method_not_allowed",
                &format!("{} is not supported on {}", req.method, req.path),
                None,
            );
            Some((Endpoint::Other, 405, body))
        }
        _ => {
            let body = error_body(
                404,
                "no_such_endpoint",
                &format!(
                    "{:?} is not an endpoint (have: POST /query, POST /ingest, GET /tables, \
                     GET /stats, GET /healthz, GET /metrics, GET /debug/slow)",
                    req.path
                ),
                None,
            );
            Some((Endpoint::Other, 404, body))
        }
    }
}

/// The `GET /debug/slow` body: ring configuration plus the retained slow
/// queries, most recent last, each with its full stage breakdown. Queries are
/// identified by fingerprint — raw SQL never appears here.
fn slow_json(shared: &Shared) -> Json {
    let entries = shared
        .slow
        .snapshot()
        .into_iter()
        .map(|q| {
            let spans = q
                .spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("stage", Json::Str(s.stage.name().into())),
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("start_us", Json::Num(s.start_ns as f64 / 1_000.0)),
                        ("dur_us", Json::Num(s.dur_ns as f64 / 1_000.0)),
                    ])
                })
                .collect();
            obj(vec![
                ("fingerprint", Json::Str(format!("{:016x}", q.fingerprint))),
                ("total_us", Json::Num(q.total_us as f64)),
                ("status", Json::Num(f64::from(q.status))),
                ("unix_ms", Json::Num(q.unix_ms as f64)),
                ("spans", Json::Arr(spans)),
            ])
        })
        .collect();
    obj(vec![
        ("threshold_us", Json::Num(shared.slow.threshold_us() as f64)),
        ("cap", Json::Num(shared.slow.cap() as f64)),
        ("count", Json::Num(shared.slow.len() as f64)),
        ("slow", Json::Arr(entries)),
    ])
}

/// The `GET /metrics` body: every registered family, then dynamic families
/// computed at scrape time (uptime, queue high-water mark, plan cache, ring
/// occupancy, per-table footprint). Table footprints read the snapshot cache
/// on [`ph_core::FootprintReport`]'s side, so a 1 Hz scraper never recomputes
/// synopsis sizes and cannot perturb serving.
fn metrics_text(shared: &Shared) -> String {
    let mut out = shared.metrics.registry.render();
    push_header(&mut out, "ph_uptime_seconds", "Seconds since the server started.", Kind::Gauge);
    push_sample(&mut out, "ph_uptime_seconds", &[], shared.started.elapsed().as_secs_f64());
    push_header(
        &mut out,
        "ph_executor_queue_hwm",
        "Deepest the executor queue has been since start.",
        Kind::Gauge,
    );
    push_sample(
        &mut out,
        "ph_executor_queue_hwm",
        &[],
        shared.connection_stats().executor_queue_hwm as f64,
    );
    push_header(
        &mut out,
        "ph_span_ring_spans",
        "Spans currently retained by the trace flight recorder.",
        Kind::Gauge,
    );
    push_sample(&mut out, "ph_span_ring_spans", &[], shared.span_ring.len() as f64);
    push_header(
        &mut out,
        "ph_slow_queries_retained",
        "Slow queries currently retained by the forensics ring.",
        Kind::Gauge,
    );
    push_sample(&mut out, "ph_slow_queries_retained", &[], shared.slow.len() as f64);
    let stats = shared.session.stats();
    push_header(
        &mut out,
        "ph_plan_cache_hits_total",
        "Plan-cache hits since start.",
        Kind::Counter,
    );
    push_sample(&mut out, "ph_plan_cache_hits_total", &[], stats.cache.hits as f64);
    push_header(
        &mut out,
        "ph_plan_cache_misses_total",
        "Plan-cache misses since start.",
        Kind::Counter,
    );
    push_sample(&mut out, "ph_plan_cache_misses_total", &[], stats.cache.misses as f64);
    push_header(
        &mut out,
        "ph_table_bytes",
        "Per-table storage footprint by component, from the snapshot cache.",
        Kind::Gauge,
    );
    for t in &stats.tables {
        if let Ok(f) = shared.session.footprint_report(&t.name) {
            let table = t.name.as_str();
            push_sample(
                &mut out,
                "ph_table_bytes",
                &[("table", table), ("component", "synopsis")],
                f.synopsis_bytes as f64,
            );
            push_sample(
                &mut out,
                "ph_table_bytes",
                &[("table", table), ("component", "row_store")],
                f.row_store_bytes as f64,
            );
            push_sample(
                &mut out,
                "ph_table_bytes",
                &[("table", table), ("component", "delta")],
                f.delta_bytes as f64,
            );
        }
    }
    push_header(&mut out, "ph_table_rows", "Per-table row counts by tier.", Kind::Gauge);
    for t in &stats.tables {
        let table = t.name.as_str();
        push_sample(
            &mut out,
            "ph_table_rows",
            &[("table", table), ("tier", "sealed")],
            t.sealed_rows as f64,
        );
        push_sample(
            &mut out,
            "ph_table_rows",
            &[("table", table), ("tier", "delta")],
            t.delta_rows as f64,
        );
    }
    out
}

/// Executor-side routing: the two stateful endpoints. Everything else was
/// answered inline and never reaches here.
fn execute_request(
    shared: &Shared,
    batch: &mut BatchSession<'_>,
    req: &Request,
) -> (Endpoint, u16, Json) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => {
            let (status, body) = handle_query(batch, req);
            (Endpoint::Query, status, body)
        }
        ("POST", "/ingest") => {
            let (status, body) = handle_ingest(shared, req);
            (Endpoint::Ingest, status, body)
        }
        _ => {
            let body =
                error_body(404, "no_such_endpoint", &format!("{:?}", req.path), None);
            (Endpoint::Other, 404, body)
        }
    }
}

fn handle_query(batch: &mut BatchSession<'_>, req: &Request) -> (u16, Json) {
    let Some(sql) = query_text(req) else {
        return (
            400,
            error_body(
                400,
                "bad_request",
                "body must be SQL text or a JSON object with an \"sql\" member",
                None,
            ),
        );
    };
    let t0 = Instant::now();
    match batch.sql(&sql) {
        Ok(answer) => {
            let mut body = answer_to_json(&answer);
            if let Json::Obj(members) = &mut body {
                members.push((
                    "latency_us".into(),
                    Json::Num(t0.elapsed().as_micros() as f64),
                ));
            }
            (200, body)
        }
        Err(e) => {
            let status = status_for(&e);
            // Recover the byte offset a parse error loses crossing `PhError`.
            let position = match &e {
                PhError::Parse(_) => ph_sql::error_offset(&sql),
                _ => None,
            };
            (status, error_body(status, kind_of(&e), &e.to_string(), position))
        }
    }
}

fn handle_ingest(shared: &Shared, req: &Request) -> (u16, Json) {
    match dataset_from_body(&shared.session, req) {
        Ok((table, batch)) => match shared.session.ingest(&table, &batch) {
            Ok(report) => (
                200,
                obj(vec![
                    ("table", Json::Str(table)),
                    ("rows", Json::Num(report.rows as f64)),
                    ("staleness", Json::Num(report.staleness)),
                    ("rebuilt", Json::Bool(report.rebuilt)),
                    ("sealed_segments", Json::Num(report.sealed_segments as f64)),
                ]),
            ),
            Err(e) => {
                let status = status_for(&e);
                (status, error_body(status, kind_of(&e), &e.to_string(), None))
            }
        },
        Err(e) => {
            let status = status_for(&e);
            (status, error_body(status, kind_of(&e), &e.to_string(), None))
        }
    }
}

/// The per-table members `/tables` lists; `/stats` reports the same six and
/// appends the codec mix and footprint.
fn table_members(t: &TableStats) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::Str(t.name.clone())),
        ("epoch", Json::Num(t.epoch as f64)),
        ("segments", Json::Num(t.segments as f64)),
        ("sealed_rows", Json::Num(t.sealed_rows as f64)),
        ("delta_rows", Json::Num(t.delta_rows as f64)),
        ("staleness", Json::Num(t.staleness)),
    ]
}

fn tables_json(shared: &Shared) -> Json {
    let tables = shared.session.stats().tables.iter().map(|t| obj(table_members(t))).collect();
    obj(vec![("tables", Json::Arr(tables))])
}

fn stats_json(shared: &Shared) -> Json {
    let stats = shared.session.stats();
    let tables = stats
        .tables
        .iter()
        .map(|t| {
            let footprint = shared
                .session
                .footprint_report(&t.name)
                .map(|f| {
                    obj(vec![
                        ("synopsis_bytes", Json::Num(f.synopsis_bytes as f64)),
                        ("row_store_bytes", Json::Num(f.row_store_bytes as f64)),
                        ("delta_bytes", Json::Num(f.delta_bytes as f64)),
                        ("total_bytes", Json::Num(f.total as f64)),
                    ])
                })
                .unwrap_or(Json::Null);
            // Codec mix of the sealed row stores: column counts keyed by the
            // winning codec, so operators can see what the cascade picked.
            let codec_mix = Json::Obj(
                t.codec_mix
                    .iter()
                    .map(|(name, cols)| (name.clone(), Json::Num(*cols as f64)))
                    .collect(),
            );
            let mut members = table_members(t);
            members.push(("codec_mix", codec_mix));
            members.push(("footprint", footprint));
            obj(members)
        })
        .collect();
    // Quarantined tables: present in the persisted catalog but isolated after
    // failing open-time verification. Operators watch this array — a non-empty
    // value means durable state needs attention even though serving is up.
    let quarantined = shared
        .session
        .quarantined()
        .into_iter()
        .map(|(table, reason)| {
            obj(vec![("table", Json::Str(table)), ("reason", Json::Str(reason))])
        })
        .collect();
    let conns = shared.connection_stats();
    obj(vec![
        ("uptime_seconds", Json::Num(shared.started.elapsed().as_secs_f64())),
        (
            "plan_cache",
            obj(vec![
                ("hits", Json::Num(stats.cache.hits as f64)),
                ("misses", Json::Num(stats.cache.misses as f64)),
                ("entries", Json::Num(stats.cache.entries as f64)),
            ]),
        ),
        ("tables", Json::Arr(tables)),
        ("quarantined", Json::Arr(quarantined)),
        (
            "server",
            obj(vec![
                ("workers", Json::Num(shared.cfg.workers as f64)),
                ("queue_depth", Json::Num(shared.cfg.queue_depth as f64)),
                ("max_connections", Json::Num(shared.cfg.max_connections as f64)),
                ("rejected_503", Json::Num(conns.rejected_503 as f64)),
                (
                    "connections",
                    obj(vec![
                        ("open", Json::Num(conns.open_connections as f64)),
                        ("accepted", Json::Num(conns.accepted_connections as f64)),
                        ("rejected", Json::Num(conns.rejected_503 as f64)),
                        ("pipelined_requests", Json::Num(conns.pipelined_requests as f64)),
                        ("executor_queue_hwm", Json::Num(conns.executor_queue_hwm as f64)),
                    ]),
                ),
                ("endpoints", shared.metrics.to_json()),
            ]),
        ),
    ])
}

/// The error `kind` slug of a [`PhError`], mirrored by the client.
pub(crate) fn kind_of(e: &PhError) -> &'static str {
    match e {
        PhError::Parse(_) => "parse",
        PhError::UnknownTable(_) => "unknown_table",
        PhError::UnknownColumn(_) => "unknown_column",
        PhError::InvalidQuery(_) => "invalid_query",
        PhError::StalePlan(_) => "stale_plan",
        PhError::Unsupported(_) => "unsupported",
        PhError::Schema(_) => "schema",
        PhError::Io(_) => "io",
        PhError::Corrupt(_) => "corrupt",
        PhError::Quarantined(_) => "quarantined",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64) -> Job {
        Job {
            key: 0,
            gen: 1,
            seq,
            keep_alive: true,
            req: Request {
                method: "POST".into(),
                path: "/query".into(),
                params: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            trace: None,
            queued_at: Instant::now(),
        }
    }

    /// Poisons `queue`'s mutex by locking it on a thread that then panics.
    fn poison(queue: &Arc<WorkQueue>) {
        let q = Arc::clone(queue);
        let h = std::thread::spawn(move || {
            let _guard = q.inner.lock().unwrap();
            panic!("worker dies holding the queue lock");
        });
        assert!(h.join().is_err(), "the poisoning thread must have panicked");
        assert!(queue.inner.lock().is_err(), "mutex is poisoned");
    }

    /// The regression this module exists for: a worker panicking while it
    /// holds the queue lock must not wedge or crash the rest of the server.
    /// Poison degrades to shutdown semantics — push sheds, pop drains out,
    /// close still closes — instead of cascading the panic.
    #[test]
    fn poisoned_work_queue_degrades_to_shutdown() {
        let queue = Arc::new(WorkQueue::new(4));
        poison(&queue);
        assert!(queue.try_push(job(0)).is_err(), "push sheds instead of panicking");
        assert!(queue.pop_batch(8).is_none(), "pop drains out instead of panicking");
        queue.close(); // must not panic, and must still mark the queue closed
        assert!(queue.inner.lock().unwrap_or_else(|p| p.into_inner()).closed);
    }

    /// Without poison the queue behaves as a bounded batch queue: jobs come
    /// back in order and in one batch, the cap sheds, close wakes a parked
    /// consumer, and the high-water mark records the deepest backlog.
    #[test]
    fn work_queue_batches_caps_and_closes() {
        let queue = Arc::new(WorkQueue::new(2));
        assert!(queue.try_push(job(0)).is_ok());
        assert!(queue.try_push(job(1)).is_ok());
        assert!(queue.try_push(job(2)).is_err(), "cap of 2 sheds the third");
        assert_eq!(queue.hwm.load(Ordering::Relaxed), 2);
        let batch = queue.pop_batch(8).unwrap();
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), vec![0, 1]);
        let q = Arc::clone(&queue);
        let waiter = std::thread::spawn(move || q.pop_batch(8));
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert!(waiter.join().unwrap().is_none(), "parked pop wakes with None on close");
    }

    /// Latency buckets clamp: the u64 extremes land in the last bucket rather
    /// than out of bounds, and quantiles stay finite. (The histogram itself
    /// lives in ph_obs now; this pins the serving-side contract.)
    #[test]
    fn latency_hist_extremes_are_clamped() {
        let m = Metrics::new();
        let ep = m.endpoint(Endpoint::Query);
        ep.record(200, 0);
        ep.record(404, 1);
        ep.record(500, u64::MAX);
        assert_eq!(ep.latency.count(), 3, "every sample landed in some bucket");
        assert_eq!(ep.requests.get(), 3);
        assert_eq!(ep.status_4xx.get(), 1);
        assert_eq!(ep.status_5xx.get(), 1);
        assert!(ep.latency.quantile(0.99).is_finite());
    }

    /// The registry behind `/metrics` carries every family CI greps for, with
    /// headers present even before the first increment.
    #[test]
    fn required_metric_families_render_from_start() {
        let m = Metrics::new();
        let text = m.registry.render();
        for family in [
            "ph_queries_total",
            "ph_query_stage_seconds",
            "ph_ingest_batches_total",
            "ph_connections_open",
            "ph_http_requests_total",
            "ph_http_request_seconds",
        ] {
            assert!(text.contains(&format!("# TYPE {family}")), "missing family {family}");
        }
        // Every stage has a labeled histogram child.
        for s in ph_obs::trace::ALL_STAGES {
            assert!(
                text.contains(&format!("stage=\"{}\"", s.name())),
                "missing stage label {}",
                s.name()
            );
        }
    }

    /// Wheel entries fire at-or-after their deadline, stale generations are
    /// the caller's problem (the wheel just hands back hints), and deadlines
    /// beyond one rotation still fire (early, via wrap) rather than never.
    #[test]
    fn timer_wheel_fires_at_or_after_deadline() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.schedule(7, 1, t0 + Duration::from_millis(60));
        assert!(wheel.drain_expired(t0 + Duration::from_millis(10)).is_empty());
        assert!(wheel.next_wakeup(t0 + Duration::from_millis(10)).is_some());
        let fired = wheel.drain_expired(t0 + Duration::from_millis(200));
        assert_eq!(fired, vec![(7, 1)]);
        assert!(wheel.next_wakeup(t0 + Duration::from_millis(200)).is_none());
        // Far beyond one rotation: wraps, fires early at some point ≤ deadline.
        let far = t0 + WHEEL_TICK.saturating_mul(WHEEL_SLOTS as u32 * 3);
        wheel.schedule(9, 2, far);
        let fired = wheel.drain_expired(far);
        assert!(fired.contains(&(9, 2)), "wrapped entry eventually drains");
    }
}

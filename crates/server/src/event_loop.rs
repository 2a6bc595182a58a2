//! The readiness loop: one thread owning the listener and every connection,
//! each a [`Conn`] state machine in a generation-stamped slab — accept and the
//! connection cap, incremental parsing with ordered pipeline slots, write-out,
//! the three deadlines, the endpoints the loop answers itself, and the
//! per-wake dispatch that runs a lone cached query here and hands everything
//! else to the workers. See the architecture notes in [`crate::server`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ph_obs::{Stage, Trace};
use polling::Event;

use crate::exec::{execute_traced, Call, Done, Job};
use crate::http::{response_bytes, response_bytes_typed, try_parse_request, HttpError, Request};
use crate::json::{obj, Json};
use crate::server::Shared;
use crate::stats::{metrics_text, slow_json, stats_json, tables_json, Endpoint};
use crate::timer::TimerWheel;
use crate::wire::error_body;

/// Poller key of the listening socket (connection keys are slab indices,
/// which stay far below this).
pub(crate) const LISTENER_KEY: usize = usize::MAX - 1;

/// Read size per `read` call on a readable socket.
const READ_CHUNK: usize = 16 * 1024;

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

pub(crate) struct EventLoop<'a> {
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
    /// `/query` and `/ingest` requests parsed this wake, in parse order,
    /// waiting for [`EventLoop::dispatch`] at the wake's end.
    ready: Vec<Job>,
}

impl<'a> EventLoop<'a> {
    pub(crate) fn new(shared: &'a Shared, listener: TcpListener) -> Self {
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
            ready: Vec::new(),
        }
    }

    pub(crate) fn run(mut self) {
        let shared = self.shared;
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
                    self.conn_readable(ev.key);
                }
            }
            self.dispatch();
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
            let registered = self.shared.poller.add(&conn.stream, Event::readable(key)).is_ok();
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

    fn conn_readable(&mut self, key: usize) {
        let mut fatal = false;
        {
            let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    // A closing connection still drains the socket, so that
                    // level-triggered readiness quiesces, but keeps nothing.
                    Ok(_) if conn.closing => continue,
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
        if fatal {
            return self.close(key);
        }
        self.parse_requests(key);
        self.after_read(key);
    }

    /// Drain every complete pipelined request buffered on `key`.
    fn parse_requests(&mut self, key: usize) {
        let max_body = self.shared.cfg.max_body_bytes;
        loop {
            enum Parsed {
                Req { seq: u64, keep: bool, req: Request, origin: Option<Instant> },
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
                        // when they are routed.
                        let origin = conn.req_t0.take();
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.inflight.push_back(None);
                        if conn.inflight.len() > 1 {
                            self.shared.metrics.pipelined.inc();
                        }
                        let keep = req.keep_alive() && !self.shared.stop.load(Ordering::Acquire);
                        if !keep {
                            // The response will say `Connection: close`; later
                            // pipelined bytes are dead.
                            conn.closing = true;
                            conn.buf.clear();
                        }
                        conn.idle_deadline = Instant::now() + self.shared.cfg.idle_timeout;
                        Parsed::Req { seq, keep, req, origin }
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
                Parsed::Req { seq, keep, req, origin } => self.route(key, seq, keep, req, origin),
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

    /// Route one parsed request: loop-served endpoints answer at once;
    /// `/query` and `/ingest` join the wake's ready list (see
    /// [`EventLoop::dispatch`]), traced from `origin`, the request's first
    /// byte, when that was observed.
    fn route(&mut self, key: usize, seq: u64, keep: bool, req: Request, origin: Option<Instant>) {
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
            let bytes = response_bytes_typed(200, "text/plain; version=0.0.4", &text, keep);
            self.fill(key, seq, bytes, keep);
            return;
        }
        if let Some((endpoint, status, body)) = route_inline(shared, &req) {
            let micros = t0.elapsed().as_micros() as u64;
            shared.metrics.endpoint(endpoint).record(status, micros);
            self.fill(key, seq, response_bytes(status, &body.to_string(), keep), keep);
            return;
        }
        let trace = ph_obs::tracing_on().then(|| {
            let origin = origin.unwrap_or(t0);
            let mut t = Trace::with_origin(origin);
            t.record_between(Stage::HttpRead, origin, t0);
            t
        });
        let call = Call::of(req);
        self.ready.push(Job { key, gen, seq, keep_alive: keep, call, trace, queued_at: t0 });
    }

    /// Runs this wake's ready list here or hands it to the workers, by the
    /// rule in the architecture notes of [`crate::server`].
    fn dispatch(&mut self) {
        if self.ready.is_empty() {
            return;
        }
        let shared = self.shared;
        let mut ready = std::mem::take(&mut self.ready);
        let mut batch = shared.session.batch();
        let on_loop = shared.cfg.workers == 0
            || match ready.as_slice() {
                [Job { key, gen, call: Call::Query(Some(sql)), .. }] => {
                    let alone = self
                        .conns
                        .get(*key)
                        .and_then(|s| s.as_ref())
                        .is_some_and(|c| c.gen == *gen && c.inflight.len() == 1);
                    alone && batch.is_cached(sql)
                }
                _ => false,
            };
        // Admission ends here: at the wake's end, where each request learns
        // where it runs.
        let now = Instant::now();
        for job in &mut ready {
            if let Some(t) = job.trace.as_mut() {
                t.record_between(Stage::Admission, job.queued_at, now);
            }
            job.queued_at = now;
        }
        if on_loop {
            for mut job in ready.drain(..) {
                if let Some(t) = job.trace.take() {
                    ph_obs::trace::install(t);
                }
                if matches!(job.call, Call::Query(_)) {
                    shared.metrics.queries_on_loop.inc();
                }
                let bytes = execute_traced(shared, &mut batch, &job.call, job.keep_alive);
                self.apply_done(job.done(bytes));
            }
        } else {
            for job in shared.work.push_wake(std::mem::take(&mut ready)) {
                // Admission control, stage two: the executor queue is full.
                shared.metrics.rejected.inc();
                let body = error_body(
                    503,
                    "overload",
                    "server at capacity (executor queue full); retry with backoff",
                    None,
                );
                let bytes = response_bytes(503, &body.to_string(), job.keep_alive);
                self.apply_done(job.done(bytes));
            }
        }
        self.ready = ready;
    }

    /// A finished response; dropped if the connection died or the slot was
    /// reused (generation mismatch) since its request was parsed.
    fn apply_done(&mut self, done: Done) {
        let live =
            self.conns.get(done.key).and_then(|s| s.as_ref()).is_some_and(|c| c.gen == done.gen);
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
            close_now = conn.closing && conn.inflight.is_empty() && conn.out_pos >= conn.out.len();
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
            // Timeouts close silently: a stalled peer gets no farewell body.
            Verdict::Expired => self.close(key),
            Verdict::Reschedule(next) => self.wheel.schedule(key, gen, next),
        }
    }

    fn update_interest(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(key).and_then(|s| s.as_mut()) else { return };
        let want_w = conn.out_pos < conn.out.len();
        if want_w != conn.interest_w {
            conn.interest_w = want_w;
            let interest = if want_w { Event::all(key) } else { Event::readable(key) };
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
        (
            _,
            "/query" | "/ingest" | "/tables" | "/stats" | "/healthz" | "/metrics" | "/debug/slow",
        ) => {
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

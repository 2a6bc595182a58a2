//! The executor side: the two stateful endpoints as [`Call`]s, the bounded
//! [`WorkQueue`] between the event loop and the worker threads, the
//! run-draining [`executor_loop`], and [`execute_traced`], which runs a
//! call with its tracing, metrics and query-log bookkeeping on whichever
//! thread the loop chose (the rule is in the architecture notes of
//! [`crate::server`]). A call is decoded once, on the loop: `POST /query`
//! travels as its SQL text, which the loop needs anyway to probe the plan
//! cache.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use ph_core::BatchSession;
use ph_obs::{span, Stage, Trace};
use ph_types::PhError;

use crate::http::{response_bytes, Request};
use crate::ingest::dataset_from_body;
use crate::json::{obj, Json};
use crate::server::Shared;
use crate::stats::Endpoint;
use crate::wire::{answer_to_json, error_body, status_for};

/// What an executor-bound request asks for, decoded once on the loop.
pub(crate) enum Call {
    /// `POST /query` with its SQL: a JSON body's `"sql"` member, or the raw
    /// body as UTF-8. `None` when the body is neither (answered `400`).
    Query(Option<String>),
    /// `POST /ingest`; its body is decoded where it runs.
    Ingest(Request),
}

impl Call {
    /// The call of a request the loop does not answer itself, which is a
    /// `POST` to `/query` or `/ingest`.
    pub(crate) fn of(req: Request) -> Call {
        if req.path == "/query" {
            Call::Query(query_text(req.body))
        } else {
            Call::Ingest(req)
        }
    }
}

/// One parsed executor-bound request, on its way to the thread that runs it.
pub(crate) struct Job {
    pub(crate) key: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    pub(crate) keep_alive: bool,
    pub(crate) call: Call,
    /// The request's trace (origin at its first byte, HTTP-read and admission
    /// spans already recorded once it leaves the loop); `None` when tracing
    /// is off.
    pub(crate) trace: Option<Trace>,
    /// Start of the job's current wait: its admission on the loop until the
    /// wake dispatches it, then its stay in the executor queue.
    pub(crate) queued_at: Instant,
}

impl Job {
    /// This job's finished response, `bytes`.
    pub(crate) fn done(&self, bytes: Vec<u8>) -> Done {
        Done { key: self.key, gen: self.gen, seq: self.seq, bytes, keep_alive: self.keep_alive }
    }
}

/// One finished response headed back to the loop.
pub(crate) struct Done {
    pub(crate) key: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) keep_alive: bool,
}

/// The bounded handoff between the event loop and the executor workers.
pub(crate) struct WorkQueue {
    inner: Mutex<WorkInner>,
    ready: Condvar,
    cap: usize,
    /// Deepest the queue has been — the backlog signal operators watch.
    pub(crate) hwm: AtomicU64,
}

struct WorkInner {
    /// Runs of consecutive jobs from one connection, in request order. A
    /// worker pops one run at a time, so a connection's run is never split
    /// and different connections' runs go to different workers.
    q: VecDeque<Vec<Job>>,
    /// Jobs across all runs — what the cap and the high-water mark count.
    jobs: usize,
    closed: bool,
}

impl WorkQueue {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(WorkInner { q: VecDeque::new(), jobs: 0, closed: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
            hwm: AtomicU64::new(0),
        }
    }

    /// Admits one loop wake's jobs, in parse order, as many as there is room
    /// for, and hands back the rest (for their in-stream 503s). A job joins
    /// the last queued run when both come from one connection, and starts a
    /// new run otherwise.
    ///
    /// Poison policy: the mutex is only held for these few lines, so a
    /// poisoned lock means a thread panicked mid-queue-op. That is treated as
    /// shutdown — the loop sheds requests (503) instead of propagating the
    /// panic and taking the whole server down with it.
    pub(crate) fn push_wake(&self, mut jobs: Vec<Job>) -> Vec<Job> {
        let Ok(mut inner) = self.inner.lock() else { return jobs };
        let room = if inner.closed { 0 } else { self.cap.saturating_sub(inner.jobs) };
        let shed = jobs.split_off(room.min(jobs.len()));
        inner.jobs += jobs.len();
        let mut runs = 0;
        for job in jobs {
            match inner.q.back_mut() {
                Some(run) if run.last().is_some_and(|last| last.key == job.key) => run.push(job),
                _ => {
                    inner.q.push_back(vec![job]);
                    runs += 1;
                }
            }
        }
        self.hwm.fetch_max(inner.jobs as u64, Ordering::Relaxed);
        drop(inner);
        for _ in 0..runs {
            self.ready.notify_one();
        }
        shed
    }

    /// Blocks for the next run of one connection's jobs; `None` once closed
    /// and drained — or if the lock is poisoned (see
    /// [`WorkQueue::push_wake`]): surviving workers drain out exactly as on a
    /// normal shutdown.
    fn pop_run(&self) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().ok()?;
        loop {
            if let Some(run) = inner.q.pop_front() {
                inner.jobs = inner.jobs.saturating_sub(run.len());
                return Some(run);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).ok()?;
        }
    }

    /// Closes the queue. Shutdown must win even over poison, so the guard is
    /// recovered rather than discarded: `closed` is always set.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

pub(crate) fn executor_loop(shared: &Shared) {
    while let Some(jobs) = shared.work.pop_run() {
        // One snapshot pin per table for the whole run — what a pipelined
        // burst saves.
        shared.metrics.exec_batch.observe(jobs.len() as u64);
        let mut batch = shared.session.batch();
        let mut done = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            if let Some(mut trace) = job.trace.take() {
                trace.record_between(Stage::QueueWait, job.queued_at, Instant::now());
                ph_obs::trace::install(trace);
            }
            let bytes = execute_traced(shared, &mut batch, &job.call, job.keep_alive);
            done.push(job.done(bytes));
        }
        {
            let mut pending = shared.done.lock().unwrap_or_else(|p| p.into_inner());
            pending.append(&mut done);
        }
        let _ = shared.poller.notify();
    }
}

/// Runs one call under its installed trace (if any) and returns the response
/// bytes: a root span wraps execution and serialization, endpoint metrics and
/// the query log record the outcome, and the finished trace drains into the
/// stage histograms and forensics rings. An ingest renews `batch`, so the
/// calls after it in the batch read what it published.
pub(crate) fn execute_traced<'s>(
    shared: &'s Shared,
    batch: &mut BatchSession<'s>,
    call: &Call,
    keep_alive: bool,
) -> Vec<u8> {
    let t0 = Instant::now();
    let traced = ph_obs::trace::is_active();
    let (endpoint, sql, root) = match call {
        Call::Query(sql) => (Endpoint::Query, sql.as_deref(), span(Stage::Query)),
        Call::Ingest(_) => (Endpoint::Ingest, None, span(Stage::Ingest)),
    };
    let (status, body) = match call {
        Call::Query(_) => handle_query(batch, sql),
        Call::Ingest(req) => {
            let answer = handle_ingest(shared, req);
            *batch = shared.session.batch();
            answer
        }
    };
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
                qlog.append(status, micros, sql.unwrap_or_default());
            }
        }
        Endpoint::Ingest if status == 200 => shared.metrics.ingest_batches.inc(),
        _ => {}
    }
    if traced {
        shared.finish_trace(endpoint, status, micros, sql);
    }
    bytes
}

/// The SQL text of a `/query` body: a JSON object's `"sql"` member, or the
/// raw body as UTF-8.
fn query_text(body: Vec<u8>) -> Option<String> {
    let text = String::from_utf8(body).ok()?;
    if text.trim_start().starts_with('{') {
        let doc = Json::parse(&text).ok()?;
        return doc.get("sql")?.as_str().map(str::to_string);
    }
    Some(text)
}

fn handle_query(batch: &mut BatchSession<'_>, sql: Option<&str>) -> (u16, Json) {
    let Some(sql) = sql else {
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
    match batch.sql(sql) {
        Ok(answer) => {
            let mut body = answer_to_json(&answer);
            if let Json::Obj(members) = &mut body {
                members.push(("latency_us".into(), Json::Num(t0.elapsed().as_micros() as f64)));
            }
            (200, body)
        }
        Err(e) => {
            let status = status_for(&e);
            // Recover the byte offset a parse error loses crossing `PhError`.
            let position = match &e {
                PhError::Parse(_) => ph_sql::error_offset(sql),
                _ => None,
            };
            (status, error_body(status, kind_of(&e), &e.to_string(), position))
        }
    }
}

fn handle_ingest(shared: &Shared, req: &Request) -> (u16, Json) {
    let applied = dataset_from_body(&shared.session, req)
        .and_then(|(table, batch)| Ok((shared.session.ingest(&table, &batch)?, table)));
    match applied {
        Ok((report, table)) => (
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
    }
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
    use std::sync::Arc;
    use std::time::Duration;

    fn job(key: usize, seq: u64) -> Job {
        Job {
            key,
            gen: 1,
            seq,
            keep_alive: true,
            call: Call::Query(None),
            trace: None,
            queued_at: Instant::now(),
        }
    }

    fn query_sql(body: &[u8]) -> Option<String> {
        let req = Request {
            method: "POST".into(),
            path: "/query".into(),
            params: Vec::new(),
            headers: Vec::new(),
            body: body.to_vec(),
        };
        match Call::of(req) {
            Call::Query(sql) => sql,
            Call::Ingest(_) => panic!("a /query request is a query call"),
        }
    }

    /// A `/query` body decodes to its SQL once: a JSON object's `"sql"`
    /// member or the raw text, and nothing for a body that is neither.
    #[test]
    fn query_bodies_decode_to_their_sql() {
        let sql = "SELECT COUNT(x) FROM t";
        assert_eq!(query_sql(sql.as_bytes()).as_deref(), Some(sql));
        assert_eq!(query_sql(br#" {"sql": "SELECT COUNT(x) FROM t"}"#).as_deref(), Some(sql));
        for bad in [&br#"{"query": "SELECT 1"}"#[..], br#"{"sql": 1}"#, b"{not json", b"\xFF\xFE"] {
            assert_eq!(query_sql(bad), None, "{bad:?}");
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
        assert_eq!(queue.push_wake(vec![job(0, 0)]).len(), 1, "push sheds instead of panicking");
        assert!(queue.pop_run().is_none(), "pop drains out instead of panicking");
        queue.close(); // must not panic, and must still mark the queue closed
        assert!(queue.inner.lock().unwrap_or_else(|p| p.into_inner()).closed);
    }

    /// Without poison the queue behaves as a bounded queue of runs: one
    /// connection's jobs come back in order and together, the cap sheds,
    /// close wakes a parked consumer, and the high-water mark records the
    /// deepest backlog.
    #[test]
    fn work_queue_batches_caps_and_closes() {
        let queue = Arc::new(WorkQueue::new(2));
        assert!(queue.push_wake(vec![job(0, 0)]).is_empty());
        let shed = queue.push_wake(vec![job(0, 1), job(0, 2)]);
        assert_eq!(seqs(&shed), vec![2], "cap of 2 sheds the third");
        assert_eq!(queue.hwm.load(Ordering::Relaxed), 2);
        assert_eq!(
            seqs(&queue.pop_run().unwrap()),
            vec![0, 1],
            "a still-queued run takes its connection's next job"
        );
        let q = Arc::clone(&queue);
        let waiter = std::thread::spawn(move || q.pop_run());
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert!(waiter.join().unwrap().is_none(), "parked pop wakes with None on close");
    }

    fn seqs(jobs: &[Job]) -> Vec<u64> {
        jobs.iter().map(|j| j.seq).collect()
    }

    /// One connection's jobs of a wake reach one worker together and in
    /// order, however full the queue already is, while other connections'
    /// jobs are separate runs for other workers. The queue is pre-filled with
    /// 63 runs, so a 64-job batch limit would have cut the last wake's
    /// two-job run in half; a run longer than that still comes back whole.
    #[test]
    fn a_connections_run_is_never_split() {
        let queue = WorkQueue::new(1_000);
        for key in 0..63 {
            assert!(queue.push_wake(vec![job(key, 0)]).is_empty());
        }
        let wake = vec![job(100, 0), job(100, 1), job(101, 0), job(102, 0), job(102, 1)];
        assert!(queue.push_wake(wake).is_empty());
        assert!(queue.push_wake((0..70).map(|seq| job(103, seq)).collect()).is_empty());
        for key in 0..63 {
            assert_eq!(queue.pop_run().unwrap()[0].key, key);
        }
        for (key, run) in
            [(100, vec![0, 1]), (101, vec![0]), (102, vec![0, 1]), (103, (0..70).collect())]
        {
            let popped = queue.pop_run().unwrap();
            assert!(popped.iter().all(|j| j.key == key));
            assert_eq!(seqs(&popped), run);
        }
        assert_eq!(queue.inner.lock().unwrap().jobs, 0);
    }
}

//! The executor side: the bounded [`WorkQueue`] between the event loop and
//! the worker threads, the batch-draining [`executor_loop`], and the two
//! stateful endpoints (`POST /query`, `POST /ingest`) with their tracing,
//! metrics and query-log bookkeeping. Inline mode (`workers: 0`) runs the same
//! [`execute_traced`] on the loop thread.

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

/// Most jobs one executor worker drains per wakeup — the batch that shares
/// one snapshot.
const EXEC_BATCH: usize = 64;

/// One parsed request handed to the executor.
pub(crate) struct Job {
    pub(crate) key: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    pub(crate) keep_alive: bool,
    pub(crate) req: Request,
    /// The request's trace (origin at its first byte, HTTP-read and admission
    /// spans already recorded); `None` when tracing is off.
    pub(crate) trace: Option<Trace>,
    /// When the job entered the executor queue — the queue-wait span's start.
    pub(crate) queued_at: Instant,
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
    q: VecDeque<Job>,
    closed: bool,
}

impl WorkQueue {
    pub(crate) fn new(cap: usize) -> Self {
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
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
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
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

pub(crate) fn executor_loop(shared: &Shared) {
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
pub(crate) fn root_stage(req: &Request) -> Option<Stage> {
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
pub(crate) fn execute_traced(
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

/// The SQL text of a `/query` request: a JSON body's `"sql"` member, or the
/// raw body as UTF-8.
pub(crate) fn query_text(req: &Request) -> Option<String> {
    let text = std::str::from_utf8(&req.body).ok()?;
    if text.trim_start().starts_with('{') {
        let doc = Json::parse(text).ok()?;
        return doc.get("sql")?.as_str().map(str::to_string);
    }
    Some(text.to_string())
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
}

//! Structured tracing: per-request span trees on a monotonic clock.
//!
//! A [`Trace`] is an owned buffer of [`SpanRec`]s for one request. The server
//! creates it when a request arrives (so cross-thread stages like HTTP read
//! and executor queue wait can be recorded explicitly with
//! [`Trace::record_between`]), then *installs* it in the executing thread's
//! slot; library code anywhere below — parser, plan cache, segment fan-out,
//! WAL — calls [`span`] and gets a guard that records its interval into the
//! installed trace on drop. Parent IDs follow lexical nesting via a stack.
//!
//! Cost contract: an active span is two `Instant::now()` calls plus a `Vec`
//! push. With no trace installed, [`span`] is one thread-local read and *no*
//! clock reads. With the `off` feature the guard is inert at compile time.

use std::cell::RefCell;
use std::time::Instant;

/// Pipeline stages a span can label. Codes are stable across the wire (span
/// ring encoding); names are what `/metrics` and `/debug/slow` expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Whole-request root (query).
    Query = 0,
    /// Reading + parsing the HTTP request off the socket.
    HttpRead = 1,
    /// Admission decision (queue/connection caps).
    Admission = 2,
    /// Waiting in the executor queue.
    QueueWait = 3,
    /// SQL text → AST.
    Parse = 4,
    /// Plan-cache lookup that hit.
    PlanCacheHit = 5,
    /// Plan-cache miss: parse + plan + insert.
    PlanCacheMiss = 6,
    /// Planning a parsed query against the table snapshot.
    Plan = 7,
    /// Executing a prepared plan (fan-out + merge).
    Execute = 8,
    /// One segment's (or the delta's) estimate.
    Estimate = 9,
    /// Merging per-segment partial answers.
    Merge = 10,
    /// Rendering the answer to wire bytes.
    Serialize = 11,
    /// Whole-request root (ingest).
    Ingest = 12,
    /// WAL record encode + append.
    WalAppend = 13,
    /// WAL fsync.
    WalFsync = 14,
    /// Sealing a delta slice into an immutable segment.
    Seal = 15,
    /// Codec cascade: choosing + encoding the sealed row store.
    Codec = 16,
    /// Folding ingested rows into the active delta synopsis.
    Fold = 17,
    /// GreedyGD split search over a sealing segment's rows.
    GdFit = 18,
    /// Refining a sealing segment's synopsis (1-d and pair histograms).
    Synopsis = 19,
    /// Admitting an ingest batch: schema validation, then resolving its
    /// categorical values against the fitted dictionaries.
    Admit = 20,
    /// Zero-duration marker: a segment (or the delta) skipped because a
    /// top-level conjunct of the plan misses its value range. A sibling of the
    /// `estimate` spans under `execute`.
    Prune = 21,
    /// Committing a table's sealed state into the WAL home: the blobs a seal,
    /// refit or compaction created, then the manifest, then the log's
    /// deletion when the delta is empty. A sibling of the `seal` spans it
    /// commits.
    Checkpoint = 22,
}

/// Every stage, for registering per-stage metric families.
pub const ALL_STAGES: &[Stage] = &[
    Stage::Query,
    Stage::HttpRead,
    Stage::Admission,
    Stage::QueueWait,
    Stage::Parse,
    Stage::PlanCacheHit,
    Stage::PlanCacheMiss,
    Stage::Plan,
    Stage::Execute,
    Stage::Estimate,
    Stage::Merge,
    Stage::Serialize,
    Stage::Ingest,
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::Seal,
    Stage::Codec,
    Stage::Fold,
    Stage::GdFit,
    Stage::Synopsis,
    Stage::Admit,
    Stage::Prune,
    Stage::Checkpoint,
];

impl Stage {
    /// Stable wire code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Stage::code`]; `None` for unknown codes (forward compat
    /// when decoding a ring written by a newer build).
    pub fn from_code(code: u8) -> Option<Stage> {
        ALL_STAGES.iter().copied().find(|s| s.code() == code)
    }

    /// Label value used in metric families and JSON breakdowns.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::HttpRead => "http_read",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::PlanCacheHit => "plan_cache_hit",
            Stage::PlanCacheMiss => "plan_cache_miss",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
            Stage::Estimate => "estimate",
            Stage::Merge => "merge",
            Stage::Serialize => "serialize",
            Stage::Ingest => "ingest",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::Seal => "seal",
            Stage::Codec => "codec",
            Stage::Fold => "fold",
            Stage::GdFit => "gd_fit",
            Stage::Synopsis => "synopsis",
            Stage::Admit => "admit",
            Stage::Prune => "prune",
            Stage::Checkpoint => "checkpoint",
        }
    }
}

/// One recorded span: a stage interval relative to the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// 1-based span ID, unique within the trace.
    pub id: u32,
    /// Parent span ID; 0 for roots.
    pub parent: u32,
    /// What this interval covers.
    pub stage: Stage,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// An owned span buffer for one request.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<SpanRec>,
    next_id: u32,
    /// Open-span stack: the top is the parent for newly started spans.
    stack: Vec<u32>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// A fresh trace whose origin is now.
    pub fn new() -> Trace {
        Trace::with_origin(Instant::now())
    }

    /// A fresh trace anchored at `origin` (e.g. the request's first byte, so
    /// the HTTP-read span starts at offset zero).
    pub fn with_origin(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::with_capacity(16), next_id: 0, stack: Vec::with_capacity(8) }
    }

    #[inline]
    fn rel_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed interval measured externally (cross-thread stages:
    /// HTTP read on the loop thread, queue wait between threads). Parent is
    /// the currently open span, or root. Returns the new span's ID.
    pub fn record_between(&mut self, stage: Stage, start: Instant, end: Instant) -> u32 {
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.rel_ns(start);
        self.spans.push(SpanRec {
            id,
            parent,
            stage,
            start_ns,
            dur_ns: self.rel_ns(end).saturating_sub(start_ns),
        });
        id
    }

    /// Opens a span: allocates its ID and makes it the parent of anything
    /// started before the matching [`Trace::end`].
    fn begin(&mut self) -> u32 {
        self.next_id += 1;
        let id = self.next_id;
        self.stack.push(id);
        id
    }

    /// Closes the span opened as `id`, recording its interval.
    fn end(&mut self, id: u32, stage: Stage, start: Instant) {
        let end = Instant::now();
        // Unwind to this span's frame; a missed pop (a guard leaked across
        // threads) must not corrupt later parentage.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.rel_ns(start);
        self.spans.push(SpanRec {
            id,
            parent,
            stage,
            start_ns,
            dur_ns: self.rel_ns(end).saturating_sub(start_ns),
        });
    }

    /// The recorded spans, in completion order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Consumes the trace, yielding its spans.
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }

    /// Origin instant (offset zero for every span).
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Installs `t` as this thread's active trace; [`span`] guards record into it
/// until [`take`]. Replaces any previous trace (dropped silently). No-op when
/// tracing is off (runtime switch or `off` feature).
pub fn install(t: Trace) {
    if !crate::tracing_on() {
        return;
    }
    ACTIVE.with(|a| *a.borrow_mut() = Some(t));
}

/// Removes and returns this thread's active trace, if any.
pub fn take() -> Option<Trace> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Whether a trace is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Starts a span for `stage` on the active trace. With no trace installed the
/// guard is inert — no clock reads, nothing recorded.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    if cfg!(feature = "off") {
        return SpanGuard { id: 0, stage, start: None };
    }
    let id = ACTIVE.with(|a| a.borrow_mut().as_mut().map(Trace::begin)).unwrap_or(0);
    if id == 0 {
        return SpanGuard { id: 0, stage, start: None };
    }
    SpanGuard { id, stage, start: Some(Instant::now()) }
}

/// RAII guard for an open span: records its interval on drop.
#[derive(Debug)]
pub struct SpanGuard {
    id: u32,
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let (id, stage) = (self.id, self.stage);
        ACTIVE.with(|a| {
            if let Some(t) = a.borrow_mut().as_mut() {
                t.end(id, stage, start);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_codes_roundtrip() {
        for s in ALL_STAGES {
            assert_eq!(Stage::from_code(s.code()), Some(*s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(Stage::from_code(200), None);
    }

    #[test]
    fn nested_guards_set_parent_ids() {
        install(Trace::new());
        {
            let _root = span(Stage::Query);
            {
                let _parse = span(Stage::Parse);
            }
            {
                let _exec = span(Stage::Execute);
                let _est = span(Stage::Estimate);
            }
        }
        let spans = take().expect("trace installed").into_spans();
        assert_eq!(spans.len(), 4);
        let by_stage = |st: Stage| spans.iter().find(|s| s.stage == st).copied().expect("span");
        let root = by_stage(Stage::Query);
        assert_eq!(root.parent, 0);
        assert_eq!(by_stage(Stage::Parse).parent, root.id);
        let exec = by_stage(Stage::Execute);
        assert_eq!(exec.parent, root.id);
        assert_eq!(by_stage(Stage::Estimate).parent, exec.id);
    }

    #[test]
    fn span_without_trace_is_inert() {
        assert!(take().is_none());
        let g = span(Stage::Parse);
        drop(g);
        assert!(take().is_none());
    }

    #[test]
    fn record_between_anchors_to_origin() {
        let t0 = Instant::now();
        let mut t = Trace::with_origin(t0);
        let id = t.record_between(Stage::HttpRead, t0, Instant::now());
        assert_eq!(id, 1);
        let s = t.spans()[0];
        assert_eq!(s.start_ns, 0);
        assert_eq!(s.parent, 0);
    }

    #[test]
    fn take_clears_the_slot() {
        install(Trace::new());
        assert!(is_active());
        assert!(take().is_some());
        assert!(!is_active());
    }
}

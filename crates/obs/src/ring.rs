//! The span flight recorder: a bounded ring of recent spans, varint/delta
//! encoded so a 64k-span ring stays under 1 MB.
//!
//! Layout is a **flip buffer**: records append to `cur`; when `cur` reaches
//! half the byte or span budget it becomes `prev` and a fresh `cur` starts
//! (dropping the old `prev`). Eviction is therefore whole-buffer, which lets
//! each buffer be a self-contained delta stream — the first record encodes
//! absolute values, later ones delta against their predecessor (trace IDs
//! repeat, span starts are near-monotone), so a typical record is 7–10 bytes:
//!
//! ```text
//! ivarint(trace_id Δ) · stage u8 · uvarint(id) · uvarint(parent)
//!   · ivarint(start_ns Δ) · uvarint(dur_ns)
//! ```
//!
//! Readers snapshot under the same mutex writers take, so a decode never sees
//! a torn record (property-tested under concurrent push/snapshot).

use ph_encoding::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use std::sync::{Mutex, PoisonError};

use crate::trace::{SpanRec, Stage};

/// Worst-case encoded record: two 10-byte ivarints, two 5-byte uvarints, one
/// 10-byte uvarint, one stage byte.
const MAX_REC: usize = 41;

/// Byte budget per retained span (both halves together): 14 bytes/span keeps
/// a 64k-span ring at ≤ 896 KiB while typical 8-byte records leave headroom.
const BYTES_PER_SPAN: usize = 14;

/// One decoded ring entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedSpan {
    /// The trace (request) this span belongs to.
    pub trace_id: u64,
    /// The span itself.
    pub rec: SpanRec,
}

/// Per-buffer encoder/decoder state: delta bases reset on every flip.
#[derive(Debug, Default, Clone, Copy)]
struct DeltaState {
    trace_id: u64,
    start_ns: u64,
}

#[derive(Debug)]
struct RingInner {
    cur: Vec<u8>,
    cur_spans: usize,
    prev: Vec<u8>,
    prev_spans: usize,
    state: DeltaState,
    total: u64,
}

/// A bounded, compact ring of the most recent spans across all traces.
#[derive(Debug)]
pub struct SpanRing {
    inner: Mutex<RingInner>,
    cap_spans: usize,
    half_bytes: usize,
}

impl SpanRing {
    /// A ring retaining at most `cap_spans` spans (and roughly
    /// `cap_spans · 14` bytes of encoded records).
    pub fn new(cap_spans: usize) -> SpanRing {
        let cap_spans = cap_spans.max(2);
        let half_bytes = cap_spans * BYTES_PER_SPAN / 2;
        SpanRing {
            inner: Mutex::new(RingInner {
                cur: Vec::with_capacity(half_bytes),
                cur_spans: 0,
                prev: Vec::new(),
                prev_spans: 0,
                state: DeltaState::default(),
                total: 0,
            }),
            cap_spans,
            half_bytes,
        }
    }

    /// Maximum spans retained.
    pub fn cap(&self) -> usize {
        self.cap_spans
    }

    /// Appends every span of one finished trace.
    pub fn push_trace(&self, trace_id: u64, spans: &[SpanRec]) {
        if spans.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        for s in spans {
            // Flip before the record that would overflow this half, so each
            // buffer is a self-contained delta stream within budget.
            if inner.cur.len() + MAX_REC > self.half_bytes
                || inner.cur_spans >= (self.cap_spans / 2).max(1)
            {
                let RingInner { cur, cur_spans, prev, prev_spans, state, .. } = &mut *inner;
                std::mem::swap(cur, prev);
                *prev_spans = *cur_spans;
                cur.clear();
                *cur_spans = 0;
                *state = DeltaState::default();
            }
            let st = inner.state;
            let buf = &mut inner.cur;
            write_ivarint(buf, trace_id.wrapping_sub(st.trace_id) as i64);
            buf.push(s.stage.code());
            write_uvarint(buf, u64::from(s.id));
            write_uvarint(buf, u64::from(s.parent));
            write_ivarint(buf, s.start_ns.wrapping_sub(st.start_ns) as i64);
            write_uvarint(buf, s.dur_ns);
            inner.state = DeltaState { trace_id, start_ns: s.start_ns };
            inner.cur_spans += 1;
            inner.total += 1;
        }
    }

    /// Decodes every retained span, oldest first.
    pub fn snapshot(&self) -> Vec<DecodedSpan> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(inner.prev_spans + inner.cur_spans);
        decode_buf(&inner.prev, &mut out);
        decode_buf(&inner.cur, &mut out);
        out
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.prev_spans + inner.cur_spans
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans ever recorded (monotone; not capped).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).total
    }

    /// Bytes held by the encoded buffers (capacity, i.e. real memory).
    pub fn mem_bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.cur.capacity() + inner.prev.capacity()
    }
}

/// Decodes one self-contained buffer, appending well-formed records to `out`.
/// A truncated or unknown-stage record ends the buffer (no resync attempted —
/// the encoder only ever writes whole records, so this is forward-compat
/// hygiene, not an expected path).
fn decode_buf(buf: &[u8], out: &mut Vec<DecodedSpan>) {
    let mut pos = 0usize;
    let mut st = DeltaState::default();
    while pos < buf.len() {
        let Some(tid_d) = read_ivarint(buf, &mut pos) else { return };
        let Some(&stage_code) = buf.get(pos) else { return };
        pos += 1;
        let Some(stage) = Stage::from_code(stage_code) else { return };
        let Some(id) = read_uvarint(buf, &mut pos) else { return };
        let Some(parent) = read_uvarint(buf, &mut pos) else { return };
        let Some(start_d) = read_ivarint(buf, &mut pos) else { return };
        let Some(dur_ns) = read_uvarint(buf, &mut pos) else { return };
        let trace_id = st.trace_id.wrapping_add(tid_d as u64);
        let start_ns = st.start_ns.wrapping_add(start_d as u64);
        st = DeltaState { trace_id, start_ns };
        out.push(DecodedSpan {
            trace_id,
            rec: SpanRec { id: id as u32, parent: parent as u32, stage, start_ns, dur_ns },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, parent: u32, stage: Stage, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec { id, parent, stage, start_ns, dur_ns }
    }

    #[test]
    fn roundtrips_spans_in_order() {
        let ring = SpanRing::new(1024);
        let spans = vec![
            mk(1, 0, Stage::Query, 0, 5_000),
            mk(2, 1, Stage::Parse, 100, 900),
            mk(3, 1, Stage::Execute, 1_100, 3_000),
        ];
        ring.push_trace(42, &spans);
        let got = ring.snapshot();
        assert_eq!(got.len(), 3);
        for (g, s) in got.iter().zip(spans.iter()) {
            assert_eq!(g.trace_id, 42);
            assert_eq!(g.rec, *s);
        }
    }

    #[test]
    fn never_exceeds_span_cap_and_memory_budget() {
        let ring = SpanRing::new(64 * 1024);
        let mut start = 0u64;
        for t in 0..40_000u64 {
            let spans: Vec<SpanRec> = (0..4)
                .map(|i| {
                    start += 2_500;
                    mk(i + 1, if i == 0 { 0 } else { 1 }, Stage::Estimate, start, 1_200)
                })
                .collect();
            ring.push_trace(t, &spans);
        }
        assert_eq!(ring.total_recorded(), 160_000);
        assert!(ring.len() <= 64 * 1024, "len={}", ring.len());
        assert!(ring.mem_bytes() < 1024 * 1024, "mem={}", ring.mem_bytes());
        // Retention stays meaningful: the byte budget holds tens of thousands
        // of typical records, not a handful.
        assert!(ring.len() > 16 * 1024, "len={}", ring.len());
        let snap = ring.snapshot();
        assert_eq!(snap.len(), ring.len());
        // Oldest-first: trace ids non-decreasing across the snapshot.
        for w in snap.windows(2) {
            assert!(w[0].trace_id <= w[1].trace_id);
        }
    }

    #[test]
    fn tiny_cap_still_works() {
        let ring = SpanRing::new(2);
        for t in 0..100 {
            ring.push_trace(t, &[mk(1, 0, Stage::Query, t * 1000, 10)]);
        }
        assert!(ring.len() <= 2);
        let snap = ring.snapshot();
        assert_eq!(snap.last().map(|d| d.trace_id), Some(99));
    }
}

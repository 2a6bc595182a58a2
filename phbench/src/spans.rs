//! The benchmark's own span recorder: one preallocated in-memory `Vec` of
//! `{name, op, parent, start, end}` wrapped around every call the driver makes
//! into a layer, written out only after the run (delta + varint columns).
//!
//! Program-internal tracing is a later issue; these spans see each layer from
//! outside, at the public function the driver calls.

use std::time::Instant;

use ph_encoding::{write_ivarint, write_uvarint};

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    /// Spans of one operation (one request, one ingest step) share an id.
    pub op: u32,
    /// 1-based index of the enclosing span; 0 for a root.
    pub parent: u32,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

/// An open span, to be handed back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Span recorder. Disabled, every call is a branch and nothing else, so the
/// end-to-end run and the traced run execute the same driver code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// 1-based indices of the spans currently open, innermost last.
    stack: Vec<u32>,
    next_op: u32,
    /// Spans not recorded because the preallocated buffer was full.
    pub dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans, allocated up front so a
    /// traced loop never reallocates.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::new(),
            next_op: 0,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (the trace-overhead probe alternates).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Registers (or finds) a span name.
    pub fn name(&mut self, name: &'static str) -> Name {
        let at = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        Name(at as u16)
    }

    fn now_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: Name, start: Instant, end: Option<Instant>) -> Open {
        if !self.enabled || self.spans.len() == self.spans.capacity() {
            self.dropped += u64::from(self.enabled);
            return Open(0);
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let op = match parent {
            0 => {
                self.next_op += 1;
                self.next_op
            }
            p => self.spans[p as usize - 1].op,
        };
        let start_ns = self.now_ns(start);
        let end_ns = end.map_or(start_ns, |e| self.now_ns(e));
        self.spans.push(Span {
            name: name.0,
            op,
            parent,
            start_ns,
            end_ns,
        });
        Open(self.spans.len() as u32)
    }

    /// Opens a span that encloses whatever is recorded until [`Recorder::exit`].
    pub fn enter(&mut self, name: Name) -> Open {
        let open = self.push(name, Instant::now(), None);
        if open.0 != 0 {
            self.stack.push(open.0);
        }
        open
    }

    /// Closes a span opened by [`Recorder::enter`].
    pub fn exit(&mut self, open: Open) {
        if open.0 == 0 {
            return;
        }
        let end = self.now_ns(Instant::now());
        self.spans[open.0 as usize - 1].end_ns = end;
        if self.stack.last() == Some(&open.0) {
            self.stack.pop();
        }
    }

    /// Times one call into a layer and records it as a leaf under whatever
    /// span is open. Returns the call's result and its wall time in µs — the
    /// same clock reads serve the percentile samples and the span.
    pub fn time<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, start, Some(end));
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name `(count, total µs, self µs)`, in registration order.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let own = self_times_ns(&self.spans);
        let mut rows: Vec<(&'static str, u64, f64, f64)> =
            self.names.iter().map(|n| (*n, 0, 0.0, 0.0)).collect();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let row = &mut rows[s.name as usize];
            row.1 += 1;
            row.2 += (s.end_ns - s.start_ns) as f64 / 1e3;
            row.3 += own_ns as f64 / 1e3;
        }
        rows
    }

    /// The whole trace as delta + varint columns (format in the README).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = b"PHSP1\n".to_vec();
        write_uvarint(&mut out, self.names.len() as u64);
        for n in &self.names {
            write_uvarint(&mut out, n.len() as u64);
            out.extend_from_slice(n.as_bytes());
        }
        write_uvarint(&mut out, self.spans.len() as u64);
        for s in &self.spans {
            write_uvarint(&mut out, u64::from(s.name));
        }
        let mut prev = 0i64;
        for s in &self.spans {
            write_ivarint(&mut out, i64::from(s.op) - prev);
            prev = i64::from(s.op);
        }
        // A parent precedes its child, so the distance back to it is small
        // and positive; 0 marks a root.
        for (i, s) in self.spans.iter().enumerate() {
            let back = if s.parent == 0 {
                0
            } else {
                i as u64 + 1 - u64::from(s.parent)
            };
            write_uvarint(&mut out, back);
        }
        let mut prev = 0i64;
        for s in &self.spans {
            write_ivarint(&mut out, s.start_ns as i64 - prev);
            prev = s.start_ns as i64;
        }
        for s in &self.spans {
            write_uvarint(&mut out, s.end_ns - s.start_ns);
        }
        out
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children counted once, children clipped to
/// the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_encoding::{read_ivarint, read_uvarint};

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, 0, 100),   // 1: root
            span(1, 10, 40),   // 2: child of 1
            span(2, 15, 25),   // 3: grandchild, must not be subtracted from 1 twice
            span(1, 50, 70),   // 4: sibling of 2
            span(1, 60, 80),   // 5: overlaps 4 — the overlap counts once
            span(1, 90, 120),  // 6: runs past the parent — clipped to 100
            span(0, 200, 230), // 7: childless root
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 30 - 10, 20, 10, 20, 20, 30, 30]
        );
    }

    #[test]
    fn recorder_nests_ops_and_parents() {
        let mut rec = Recorder::new(true, 16);
        let (step, sql) = (rec.name("step"), rec.name("sql"));
        assert_eq!(rec.name("step"), step);
        let open = rec.enter(step);
        rec.time(sql, || ());
        rec.time(sql, || ());
        rec.exit(open);
        rec.time(sql, || ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (0, 1, 1, 0)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 1));
        assert_eq!(s[3].op, 2);
        assert!(s[0].end_ns >= s[2].end_ns);
        let summary = rec.summary();
        assert_eq!((summary[0].0, summary[0].1), ("step", 1));
        assert_eq!((summary[1].0, summary[1].1), ("sql", 3));
    }

    #[test]
    fn disabled_or_full_recorder_records_nothing() {
        let mut off = Recorder::new(false, 16);
        let n = off.name("x");
        let open = off.enter(n);
        let (v, us) = off.time(n, || 7);
        off.exit(open);
        assert_eq!(v, 7);
        assert!(us >= 0.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.dropped, 0);

        let mut full = Recorder::new(true, 1);
        let n = full.name("x");
        full.time(n, || ());
        full.time(n, || ());
        assert_eq!(full.spans().len(), 1);
        assert_eq!(full.dropped, 1);
    }

    /// Inverse of [`Recorder::encode`], kept beside it so the format in the
    /// README is checked by a round trip.
    fn decode(data: &[u8]) -> Option<(Vec<String>, Vec<Span>)> {
        let mut pos = data.strip_prefix(b"PHSP1\n").map(|_| 6)?;
        let n_names = read_uvarint(data, &mut pos)? as usize;
        let mut names = Vec::new();
        for _ in 0..n_names {
            let len = read_uvarint(data, &mut pos)? as usize;
            names.push(String::from_utf8(data.get(pos..pos + len)?.to_vec()).ok()?);
            pos += len;
        }
        let n = read_uvarint(data, &mut pos)? as usize;
        let mut spans = vec![span(0, 0, 0); n];
        for s in &mut spans {
            s.name = read_uvarint(data, &mut pos)? as u16;
        }
        let mut prev = 0i64;
        for s in &mut spans {
            prev += read_ivarint(data, &mut pos)?;
            s.op = prev as u32;
        }
        for (i, s) in spans.iter_mut().enumerate() {
            let back = read_uvarint(data, &mut pos)?;
            s.parent = if back == 0 {
                0
            } else {
                (i as u64 + 1 - back) as u32
            };
        }
        let mut prev = 0i64;
        for s in &mut spans {
            prev += read_ivarint(data, &mut pos)?;
            s.start_ns = prev as u64;
        }
        for s in &mut spans {
            s.end_ns = s.start_ns + read_uvarint(data, &mut pos)?;
        }
        (pos == data.len()).then_some((names, spans))
    }

    #[test]
    fn encoded_trace_round_trips() {
        let mut rec = Recorder::new(true, 64);
        let (a, b) = (rec.name("outer"), rec.name("inner"));
        for _ in 0..5 {
            let open = rec.enter(a);
            rec.time(b, || std::hint::black_box(1 + 1));
            rec.time(b, || ());
            rec.exit(open);
        }
        let bytes = rec.encode();
        let (names, spans) = decode(&bytes).expect("decodes");
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(spans, rec.spans());
        // 15 spans × 5 columns in well under the 24 bytes a raw span takes.
        assert!(bytes.len() < 15 * 12, "{} bytes", bytes.len());
    }
}

//! Concurrency and exposition contracts for the observability substrate:
//!
//! 1. **Monotone counters** — readers sampling a counter while writers
//!    increment it never observe a decrease, and the final value is exact.
//! 2. **Exposition well-formedness** — a registry scraped mid-write renders
//!    Prometheus text that parses line by line: every line is a `# HELP`,
//!    a `# TYPE`, or a `name{labels} value` sample with a finite value.
//! 3. **Slow-ring cap** — concurrent offers never grow the ring past its cap.
//! 4. **Span-ring torn reads** — snapshots taken while other threads push
//!    traces only ever decode self-consistent records (property-tested:
//!    every span's payload is a checksum of its identity, so a torn or
//!    misframed read cannot go unnoticed).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ph_obs::trace::ALL_STAGES;
use ph_obs::{Registry, SlowQuery, SlowRing, SpanRec, SpanRing, Stage};

#[test]
fn counters_are_monotone_under_concurrent_readers() {
    const WRITERS: usize = 4;
    const INCS: u64 = 20_000;
    let registry = Registry::new();
    let counter = registry.counter("ph_test_total", "Test increments.", &[]);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let counter = Arc::clone(&counter);
            scope.spawn(move || {
                for _ in 0..INCS {
                    counter.inc();
                }
            });
        }
        let reader = Arc::clone(&counter);
        let done = &done;
        scope.spawn(move || {
            let mut last = 0u64;
            while !done.load(Ordering::Relaxed) {
                let now = reader.get();
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                last = now;
            }
        });
        // Writers joined by scope exit would race the reader's `done` check;
        // spawn a closer that flips the flag once the count stabilises.
        let closer = Arc::clone(&counter);
        scope.spawn(move || {
            while closer.get() < WRITERS as u64 * INCS {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    assert_eq!(counter.get(), WRITERS as u64 * INCS);
}

/// Splits one sample line into (name, labels, value-text), or panics with the
/// offending line. Grammar: `name['{'k="v",...'}'] ' ' float`.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (head, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line:?}"));
    let value: f64 = value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').unwrap_or_else(|| panic!("unclosed {{: {line:?}"));
            let labels = body
                .split(',')
                .filter(|p| !p.is_empty())
                .map(|pair| {
                    let (k, v) =
                        pair.split_once('=').unwrap_or_else(|| panic!("bad label in {line:?}"));
                    let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                    (
                        k.to_string(),
                        v.unwrap_or_else(|| panic!("unquoted label in {line:?}")).to_string(),
                    )
                })
                .collect();
            (name.to_string(), labels)
        }
    };
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad metric name in {line:?}"
    );
    (name, labels, value)
}

#[test]
fn exposition_parses_line_by_line_while_writers_run() {
    let registry = Arc::new(Registry::new());
    let hits = registry.counter("ph_hits_total", "Hits.", &[("endpoint", "query")]);
    let open = registry.gauge("ph_open", "Open connections.", &[]);
    let lat = registry.histogram("ph_lat_seconds", "Latency.", 1e-6, &[("endpoint", "query")]);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let done = &done;
        scope.spawn(|| {
            let mut i = 0u64;
            while !done.load(Ordering::Relaxed) {
                hits.inc();
                open.set((i % 7) as i64);
                lat.observe(i % 100_000);
                i += 1;
            }
        });
        for _ in 0..50 {
            let text = registry.render();
            let mut seen_help = std::collections::HashSet::new();
            let mut seen_type = std::collections::HashSet::new();
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix("# HELP ") {
                    let (family, help) = rest.split_once(' ').expect("HELP without text");
                    assert!(!help.trim().is_empty(), "empty help for {family}");
                    seen_help.insert(family.to_string());
                } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                    let (family, kind) = rest.split_once(' ').expect("TYPE without kind");
                    assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line:?}");
                    assert!(seen_help.contains(family), "TYPE before HELP: {line:?}");
                    seen_type.insert(family.to_string());
                } else if !line.is_empty() {
                    let (name, labels, value) = parse_sample(line);
                    let family = name
                        .strip_suffix("_bucket")
                        .or_else(|| name.strip_suffix("_sum"))
                        .or_else(|| name.strip_suffix("_count"))
                        .filter(|f| seen_type.contains(*f))
                        .unwrap_or(&name);
                    assert!(seen_type.contains(family), "sample before TYPE: {line:?}");
                    assert!(value.is_finite() || value.is_infinite(), "NaN sample: {line:?}");
                    if name.ends_with("_bucket") {
                        assert!(
                            labels.iter().any(|(k, _)| k == "le"),
                            "bucket without le: {line:?}"
                        );
                    }
                }
            }
            // All three families made it out, including the +Inf bucket.
            for f in ["ph_hits_total", "ph_open", "ph_lat_seconds"] {
                assert!(seen_type.contains(f), "missing family {f}");
            }
            assert!(text.contains("le=\"+Inf\""), "histogram without +Inf bucket");
        }
        done.store(true, Ordering::Relaxed);
    });
}

#[test]
fn slow_ring_never_exceeds_cap_under_concurrent_offers() {
    const CAP: usize = 16;
    let ring = SlowRing::new(CAP, 100);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let ring = &ring;
        let done = &done;
        for t in 0..4u64 {
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    ring.offer(SlowQuery {
                        fingerprint: t << 32 | i,
                        total_us: 100 + i, // all at/over threshold
                        status: 200,
                        unix_ms: 0,
                        spans: Vec::new(),
                    });
                }
            });
        }
        scope.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                assert!(ring.len() <= CAP, "ring grew past cap: {}", ring.len());
                assert!(ring.snapshot().len() <= CAP);
            }
        });
        scope.spawn(|| {
            while ring.len() < CAP {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    assert_eq!(ring.len(), CAP);
    // Sub-threshold offers are filtered even with room conceptually "free".
    assert!(!ring.offer(SlowQuery {
        fingerprint: 0,
        total_us: 99,
        status: 200,
        unix_ms: 0,
        spans: Vec::new()
    }));
}

/// The self-checking span payload: `dur_ns` is a hash of the span's identity,
/// so any torn/misframed decode breaks the relation.
fn check_dur(trace_id: u64, id: u32) -> u64 {
    trace_id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u64::from(id)) % 1_000_000
}

fn mk_trace(trace_id: u64, n_spans: usize) -> Vec<SpanRec> {
    (0..n_spans)
        .map(|i| {
            let id = (i + 1) as u32;
            SpanRec {
                id,
                parent: if i == 0 { 0 } else { 1 },
                stage: ALL_STAGES[(trace_id as usize + i) % ALL_STAGES.len()],
                start_ns: trace_id.wrapping_mul(10_000) + (i as u64) * 100,
                dur_ns: check_dur(trace_id, id),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent `push_trace` / `snapshot`: every decoded span satisfies the
    /// identity checksum, the cap holds at every observation point, and after
    /// the writers finish the newest spans decode exactly.
    #[test]
    fn span_ring_snapshots_are_torn_read_safe(
        cap in 2usize..400,
        traces_per_writer in 1u64..120,
        spans_per_trace in 1usize..6,
    ) {
        let ring = SpanRing::new(cap);
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for t in 0..traces_per_writer {
                        let trace_id = (w << 48) | t;
                        ring.push_trace(trace_id, &mk_trace(trace_id, spans_per_trace));
                    }
                });
            }
            // Reader races the writers; validity must hold on every snapshot.
            let ring = &ring;
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = ring.snapshot();
                    assert!(snap.len() <= ring.cap(), "{} > cap {}", snap.len(), ring.cap());
                    for d in &snap {
                        assert_eq!(
                            d.rec.dur_ns,
                            check_dur(d.trace_id, d.rec.id),
                            "torn decode: {d:?}"
                        );
                    }
                }
            });
        });

        // Quiescent: full re-validation, including stage/start reconstruction.
        let snap = ring.snapshot();
        prop_assert!(snap.len() <= ring.cap());
        prop_assert!(ring.len() == snap.len());
        for d in &snap {
            let i = (d.rec.id - 1) as usize;
            prop_assert_eq!(d.rec.dur_ns, check_dur(d.trace_id, d.rec.id));
            prop_assert_eq!(d.rec.stage, ALL_STAGES[(d.trace_id as usize + i) % ALL_STAGES.len()]);
            prop_assert_eq!(d.rec.start_ns, d.trace_id.wrapping_mul(10_000) + (i as u64) * 100);
        }
        // The encoded rings stay within the structural byte budget: two half
        // buffers of ~14 bytes/span each, with Vec-doubling headroom.
        prop_assert!(ring.mem_bytes() <= ring.cap() * 28 + 256, "{} bytes", ring.mem_bytes());
    }

    /// Traces built through the public span API stay well-formed: IDs unique,
    /// parents precede children, nesting reflected in parent links.
    #[test]
    fn trace_span_nesting_is_well_formed(depth in 1usize..6, breadth in 1usize..4) {
        ph_obs::trace::install(ph_obs::Trace::new());
        fn nest(depth: usize, breadth: usize) {
            if depth == 0 {
                return;
            }
            for _ in 0..breadth {
                let _g = ph_obs::span(Stage::Execute);
                nest(depth - 1, breadth);
            }
        }
        nest(depth, breadth);
        let trace = ph_obs::trace::take().expect("trace stays installed");
        let spans = trace.into_spans();
        let mut n = 0usize;
        for d in (0..depth).rev() {
            n += breadth.pow((depth - d) as u32);
        }
        prop_assert_eq!(spans.len(), n);
        let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), spans.len(), "duplicate span IDs");
        for s in &spans {
            prop_assert!(s.parent < s.id, "parent {} !< id {}", s.parent, s.id);
        }
    }
}

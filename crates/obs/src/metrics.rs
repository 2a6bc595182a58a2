//! The metrics registry: lock-free `Counter` / `Gauge` / `Histogram` handles
//! registered once at startup, rendered as Prometheus text exposition.
//!
//! Handles are relaxed atomics — an increment never takes a lock and a scrape
//! never stops a writer. Histograms are fixed log₂ buckets (bucket *i* counts
//! observations in `[2^i, 2^{i+1})` of the base unit), which makes them
//! mergeable bucket-wise and keeps `observe` at one `leading_zeros` plus one
//! `fetch_add`. The registry itself is a mutex over the family list, touched
//! only at registration (startup) and scrape (1 Hz), never per-request.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of log₂ histogram buckets: `2^0 .. 2^26` of the base unit plus a
/// final catch-all. With microsecond observations the top finite bound is
/// ~67 s, far beyond any serving deadline.
pub const HIST_BUCKETS: usize = 28;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero (usable standalone, without a registry).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed log₂-bucket histogram. Bucket *i* counts observations `v` with
/// `⌊log₂ max(v,1)⌋ = i` (so bucket 0 holds 0 and 1); the last bucket absorbs
/// everything larger. Mergeable: two histograms add bucket-wise.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of raw observed values (base units), for the Prometheus `_sum`.
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

impl Histogram {
    /// A fresh, empty histogram (usable standalone, without a registry).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `v` base units.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = (63 - v.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        if let Some(b) = self.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values in base units.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), index = `⌊log₂ v⌋`.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets.get(i).map(|b| b.load(Ordering::Relaxed)).unwrap_or(0))
    }

    /// Adds every bucket and the sum of `other` into `self`.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Quantile estimate in base units: the geometric midpoint of the bucket
    /// holding the rank-`q` observation (0 when empty). Matches the log₂
    /// endpoint histograms `/stats` has always served.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return 2f64.powi(i as i32) * std::f64::consts::SQRT_2;
            }
        }
        2f64.powi(HIST_BUCKETS as i32 - 1)
    }
}

/// Metric family kinds, matching the Prometheus `# TYPE` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone counter (`_total` naming convention).
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket distribution.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Handle {
    C(Arc<Counter>),
    G(Arc<Gauge>),
    H(Arc<Histogram>),
}

struct Child {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// Multiplier from histogram base units to the exposition unit (e.g.
    /// `1e-6` for microsecond observations exposed as seconds). `1.0` for
    /// unitless histograms and ignored for counters/gauges.
    scale: f64,
    children: Vec<Child>,
}

/// The process-wide metric registry. Register handles once at startup, render
/// on scrape. Registering the same family name again with more labels appends
/// a labeled child (the first registration's help text wins).
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or extends) a counter family. `help` must be non-empty —
    /// enforced by the `metric-help` lint at the call site.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push_child(name, help, Kind::Counter, 1.0, labels, Handle::C(Arc::clone(&c)));
        c
    }

    /// Registers (or extends) a gauge family.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push_child(name, help, Kind::Gauge, 1.0, labels, Handle::G(Arc::clone(&g)));
        g
    }

    /// Registers (or extends) a histogram family whose observations are in
    /// base units of `scale` exposition units (e.g. observe microseconds with
    /// `scale = 1e-6` to expose seconds).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push_child(name, help, Kind::Histogram, scale, labels, Handle::H(Arc::clone(&h)));
        h
    }

    fn push_child(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        scale: f64,
        labels: &[(&str, &str)],
        handle: Handle,
    ) {
        debug_assert!(!help.is_empty(), "metric {name} registered without help text");
        let child = Child {
            labels: labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            handle,
        };
        let mut fams = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = fams.iter_mut().find(|f| f.name == name) {
            debug_assert!(f.kind == kind, "metric {name} re-registered with a different kind");
            f.children.push(child);
        } else {
            fams.push(Family {
                name: name.to_owned(),
                help: help.to_owned(),
                kind,
                scale,
                children: vec![child],
            });
        }
    }

    /// Renders every family in Prometheus text exposition format (v0.0.4).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let fams = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        for f in fams.iter() {
            push_header(&mut out, &f.name, &f.help, f.kind);
            for c in &f.children {
                let labels: Vec<(&str, &str)> =
                    c.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                match &c.handle {
                    Handle::C(h) => push_sample(&mut out, &f.name, &labels, h.get() as f64),
                    Handle::G(h) => push_sample(&mut out, &f.name, &labels, h.get() as f64),
                    Handle::H(h) => render_histogram(&mut out, &f.name, &labels, f.scale, h),
                }
            }
        }
        out
    }
}

/// Appends cumulative `_bucket` lines plus `_sum`/`_count` for one histogram
/// child. Bucket *i* holds `v < 2^{i+1}` base units, so its `le` bound is
/// `2^{i+1} · scale`; the final bucket is `+Inf`.
fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    scale: f64,
    h: &Histogram,
) {
    let counts = h.bucket_counts();
    let bucket_name = format!("{name}_bucket");
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        let le = if i + 1 == HIST_BUCKETS {
            "+Inf".to_owned()
        } else {
            format!("{}", 2f64.powi(i as i32 + 1) * scale)
        };
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", le.as_str()));
        push_sample(out, &bucket_name, &ls, cum as f64);
    }
    push_sample(out, &format!("{name}_sum"), labels, h.sum() as f64 * scale);
    push_sample(out, &format!("{name}_count"), labels, cum as f64);
}

/// Appends a `# HELP` / `# TYPE` header for a family. Public so dynamically
/// computed families (table footprints, plan-cache stats) can share the same
/// exposition path as registered handles.
pub fn push_header(out: &mut String, name: &str, help: &str, kind: Kind) {
    let mut escaped = String::with_capacity(help.len());
    for ch in help.chars() {
        match ch {
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            c => escaped.push(c),
        }
    }
    let _ = writeln!(out, "# HELP {name} {escaped}");
    let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
}

/// Appends one `name{labels} value` sample line.
pub fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("ph_test_total", "test counter", &[]);
        let g = r.gauge("ph_test_open", "test gauge", &[("kind", "a")]);
        c.inc();
        c.add(2);
        g.set(5);
        g.sub(2);
        g.set_max(4);
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 4);
        let text = r.render();
        assert!(text.contains("# TYPE ph_test_total counter"));
        assert!(text.contains("ph_test_total 3"));
        assert!(text.contains("ph_test_open{kind=\"a\"} 4"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_mergeable() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1003);
        let h2 = Histogram::new();
        h2.observe(2);
        h2.merge_from(&h);
        assert_eq!(h2.count(), 5);
        let counts = h2.bucket_counts();
        assert_eq!(counts[0], 2); // 0 and 1
        assert_eq!(counts[1], 2); // the two 2s
        assert_eq!(counts[9], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn quantile_matches_log2_midpoint() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(100); // bucket 6: [64, 128)
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 64.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn labeled_children_share_a_family_header() {
        let r = Registry::new();
        let a = r.counter("ph_reqs_total", "requests", &[("endpoint", "query")]);
        let b = r.counter("ph_reqs_total", "requests", &[("endpoint", "ingest")]);
        a.inc();
        b.add(2);
        let text = r.render();
        assert_eq!(text.matches("# TYPE ph_reqs_total counter").count(), 1);
        assert!(text.contains("ph_reqs_total{endpoint=\"query\"} 1"));
        assert!(text.contains("ph_reqs_total{endpoint=\"ingest\"} 2"));
    }

    #[test]
    fn histogram_exposition_has_inf_sum_count() {
        let r = Registry::new();
        let h = r.histogram("ph_lat_seconds", "latency", 1e-6, &[]);
        h.observe(3); // 3 µs
        let text = r.render();
        assert!(text.contains("ph_lat_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ph_lat_seconds_count 1"));
        assert!(text.contains("ph_lat_seconds_sum 0.000003"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        push_sample(&mut out, "m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(out, "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }
}

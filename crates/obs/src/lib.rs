//! `ph_obs`: the observability substrate for the PairwiseHist serving stack.
//!
//! Three pieces, all dependency-free and cheap enough for the serving path:
//!
//! * **[`Registry`]** — process-wide metric families (`Counter` / `Gauge` /
//!   `Histogram`), registered once at startup with a name, help text and
//!   optional labels, rendered in Prometheus text exposition format. Handles
//!   are plain relaxed atomics: an increment is one `fetch_add`, histograms
//!   are fixed log₂ buckets (mergeable bucket-wise), and a scrape walks the
//!   registry without stopping writers.
//!
//! * **Tracing spans** — [`trace::span`] records a stage interval (two
//!   monotonic clock reads + one `Vec` push) into the thread's active
//!   [`Trace`], with parent IDs maintained by lexical nesting. Finished
//!   traces drain into a [`SpanRing`] flight recorder whose records are
//!   varint/delta encoded (a 64k-span ring stays under 1 MB) and into per-
//!   stage histograms. When no trace is installed a span is a no-op that
//!   never touches the clock.
//!
//! * **Forensics rings** — [`SlowRing`] keeps the last N queries whose total
//!   latency crossed a configurable threshold, identified by SQL fingerprint
//!   (never raw text) with their full stage breakdown; [`SpanRing`] keeps the
//!   most recent spans from every traced request.
//!
//! The overhead contract: spans cost two `Instant::now()` calls and a ring
//! write, tracing can be disabled at runtime ([`set_tracing`]) or compiled
//! out entirely with the `off` feature, and the bench artifact pins the
//! instrumented-vs-off throughput delta below 2%.

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod metrics;
mod ring;
mod slow;
pub mod trace;

pub use metrics::{
    push_header, push_sample, Counter, Gauge, Histogram, Kind, Registry, HIST_BUCKETS,
};
pub use ring::{DecodedSpan, SpanRing};
pub use slow::{SlowQuery, SlowRing};
pub use trace::{span, SpanGuard, SpanRec, Stage, Trace};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide tracing switch. `true` by default; flipping it off makes
/// [`trace::install`] a no-op so subsequent requests run untraced (spans on a
/// thread that already has an active trace still record). With the `off`
/// feature this is compiled to constant `false`.
static TRACING: AtomicBool = AtomicBool::new(true);

/// Enables or disables trace installation at runtime.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether new traces may be installed.
#[inline]
pub fn tracing_on() -> bool {
    !cfg!(feature = "off") && TRACING.load(Ordering::Relaxed)
}
